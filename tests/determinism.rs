//! Determinism regression tests: the whole pipeline is a pure function
//! of `ExperimentConfig` (the in-workspace RNG shim is seeded, never
//! entropy-backed), so repeated runs must agree bit-for-bit — not just
//! statistically. Future performance PRs (parallelism, caching,
//! incremental state) must preserve this or consciously break it here.

use loom_core::graph::{datasets, VertexId};
use loom_core::pipeline::build_partitioner;
use loom_core::prelude::*;
use loom_core::{partition_timed, ExperimentConfig, System};

fn tiny(dataset: DatasetKind, order: StreamOrder) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::evaluation_defaults(dataset, Scale::Tiny, order);
    cfg.k = 4;
    cfg.limit_per_query = 30_000;
    cfg
}

/// Two runs of `run_experiment` with the same seed agree on every
/// observable outcome: match counts, ipt (weighted and raw), and the
/// full partition-size vector, for every system.
#[test]
fn run_experiment_is_bit_identical_across_runs() {
    for order in [StreamOrder::BreadthFirst, StreamOrder::Random] {
        let cfg = tiny(DatasetKind::ProvGen, order);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.num_vertices, b.num_vertices);
        assert_eq!(a.num_edges, b.num_edges);
        assert_eq!(a.systems.len(), b.systems.len());
        for (x, y) in a.systems.iter().zip(&b.systems) {
            let name = x.system.name();
            assert_eq!(x.system, y.system, "{name}: system order changed");
            assert_eq!(x.matches, y.matches, "{name}: match count diverged");
            assert_eq!(x.total_ipt, y.total_ipt, "{name}: raw ipt diverged");
            assert_eq!(
                x.weighted_ipt.to_bits(),
                y.weighted_ipt.to_bits(),
                "{name}: weighted ipt diverged"
            );
            assert_eq!(x.metrics.sizes, y.metrics.sizes, "{name}: sizes diverged");
            assert_eq!(x.edges, y.edges, "{name}: edge count diverged");
        }
    }
}

/// Stronger than size vectors: the per-vertex partition assignment of
/// every system is identical across runs of the same config.
#[test]
fn assignments_are_identical_across_runs() {
    let cfg = tiny(DatasetKind::Dblp, StreamOrder::Random);
    let graph = datasets::generate(cfg.dataset, cfg.scale, cfg.seed);
    let workload = workload_for(cfg.dataset);
    let stream = GraphStream::from_graph(&graph, cfg.order, cfg.seed);
    for system in System::ALL {
        let (a, _) = partition_timed(system, &cfg, &stream, &workload);
        let (b, _) = partition_timed(system, &cfg, &stream, &workload);
        assert_eq!(a.k(), b.k());
        for v in graph.vertices() {
            assert_eq!(
                a.partition_of(v),
                b.partition_of(v),
                "{}: vertex {v:?} moved between identical runs",
                system.name()
            );
        }
    }
}

/// Different seeds must actually change the outcome — guards against a
/// seed that is silently ignored somewhere in the pipeline (which
/// would make the two tests above pass vacuously).
#[test]
fn seed_is_not_ignored() {
    let mut a_cfg = tiny(DatasetKind::ProvGen, StreamOrder::Random);
    let mut b_cfg = a_cfg.clone();
    a_cfg.seed = 1;
    b_cfg.seed = 2;
    let a = run_experiment(&a_cfg);
    let b = run_experiment(&b_cfg);
    let diverged = a
        .systems
        .iter()
        .zip(&b.systems)
        .any(|(x, y)| x.weighted_ipt != y.weighted_ipt || x.metrics.sizes != y.metrics.sizes);
    assert!(diverged, "changing the seed changed nothing");
}

/// FNV-1a (64-bit) over `words`, each fed as 8 little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Drive `p` over `source` in pulls of `batch` edges (at most `max`)
/// through `try_on_batch`, as the engine does, finish it, and digest
/// the final assignment: the registered extent, then every vertex's
/// partition (`u32::MAX` for unassigned).
fn drive(
    p: &mut dyn StreamPartitioner,
    mut source: Box<dyn EdgeSource + '_>,
    max: usize,
    batch: usize,
) -> u64 {
    let (mut buf, mut fed) = (Vec::with_capacity(batch), 0);
    while fed < max && source.next_batch_into(&mut buf, batch.min(max - fed)) > 0 {
        p.try_on_batch(&buf).expect("sequential ingest cannot fail");
        fed += buf.len();
        buf.clear();
    }
    p.finish();
    let state = p.state();
    let cells = (0..state.num_vertices() as u32)
        .map(|v| state.partition_of(VertexId(v)).map_or(u32::MAX, |q| q.0) as u64);
    fnv1a(std::iter::once(state.num_vertices() as u64).chain(cells))
}

/// The final-assignment digests of Hash, LDG, Fennel and Loom (in
/// `System::ALL` order), each built from `config` and driven over a
/// fresh `source()`, plus the digest of Loom's `LoomStats` counters.
fn golden_digests<'a>(
    config: &LoomConfig,
    workload: &Workload,
    num_labels: usize,
    source: impl Fn() -> Box<dyn EdgeSource + 'a>,
    max: usize,
    batch: usize,
) -> ([u64; 4], u64) {
    let [hash, ldg, fennel] = [System::Hash, System::Ldg, System::Fennel].map(|system| {
        let mut p = build_partitioner(system, config, Some(workload), num_labels)
            .expect("a workload is given");
        drive(&mut *p, source(), max, batch)
    });
    let mut loom = LoomPartitioner::new(config, workload, num_labels);
    let loom_digest = drive(&mut loom, source(), max, batch);
    let s = loom.stats();
    let stats = [
        s.bypassed,
        s.buffered,
        s.auctions,
        s.matches_assigned,
        s.fallback_auctions,
    ];
    ([hash, ldg, fennel, loom_digest], fnv1a(stats))
}

/// [`golden_digests`] of ProvGen at scale small, BFS order, seed 42,
/// prescient capacity: the paper's evaluation setting. Captured, like
/// the next one, from the sequential flat-layout ingest before the
/// shard layout and the baselines' parallel paths were deleted; any
/// change to a placement, to Loom's stats or to the extent a state
/// registers moves a digest.
const GOLDEN_PROVGEN_SMALL_BFS: ([u64; 4], u64) = (
    [
        0x238250c54b3da126,
        0x7a333d08c90debc5,
        0x842814fe51c7bee4,
        0x4758b4b5947ef290,
    ],
    0x0bd0267fe4fbd930,
);

/// [`golden_digests`] of 200k `SyntheticEdgeSource::new(13, 4)` edges
/// under adaptive capacity, the dblp workload, k 4 and window 1024:
/// the `synth-*` benchmark shape.
const GOLDEN_SYNTHETIC_200K: ([u64; 4], u64) = (
    [
        0xbf5bcbc9166b0973,
        0x025f91653aa71c13,
        0x025f91653aa71c13,
        0x2c825a57230b5510,
    ],
    0xf84c8446d6b0d2b6,
);

/// Every system's final assignment, and Loom's stats, equal their
/// golden digests at batch 1 and at batch 256.
#[test]
fn final_states_match_golden_digests() {
    let cfg = ExperimentConfig::evaluation_defaults(
        DatasetKind::ProvGen,
        Scale::Small,
        StreamOrder::BreadthFirst,
    );
    assert_eq!(cfg.seed, 42);
    let graph = datasets::generate(cfg.dataset, cfg.scale, cfg.seed);
    let stream = GraphStream::from_graph(&graph, cfg.order, cfg.seed);
    let provgen = cfg.loom_config(CapacityModel::for_stream(&stream));
    let synthetic = LoomConfig {
        window_size: 1_024,
        capacity: CapacityModel::Adaptive,
        ..LoomConfig::evaluation_defaults(4)
    };
    for batch in [1usize, 256] {
        let got = golden_digests(
            &provgen,
            &workload_for(DatasetKind::ProvGen),
            stream.num_labels(),
            || Box::new(stream.source()),
            usize::MAX,
            batch,
        );
        let ctx = format!("provgen-small-bfs, batch {batch}: got {got:#x?}");
        assert_eq!(got, GOLDEN_PROVGEN_SMALL_BFS, "{ctx}");
        let got = golden_digests(
            &synthetic,
            &workload_for(DatasetKind::Dblp),
            DatasetKind::Dblp.num_labels(),
            || Box::new(SyntheticEdgeSource::new(13, 4)),
            200_000,
            batch,
        );
        let ctx = format!("synthetic-200k, batch {batch}: got {got:#x?}");
        assert_eq!(got, GOLDEN_SYNTHETIC_200K, "{ctx}");
    }
}
