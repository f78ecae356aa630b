//! Serving-equivalence oracle (DESIGN.md §16): enabling the `loom
//! serve` read path is **pure observation**. A run with serving on —
//! views publishing at a real cadence, concurrent reader threads
//! loading them and executing the full request mix the whole time —
//! must be bit-identical to its serving-off twin in every recoverable
//! respect: the complete snapshot sequence (all fields except
//! `serving` itself), every vertex assignment, and the engine state
//! digest. Checked across the threads × shards cross, because the
//! serve hook sits on the same commit boundary the parallel and
//! sharded pipelines synchronise on.
//!
//! Readers double as the monotonicity oracle: the epoch and edge
//! count of loaded views must never decrease, and every well-formed
//! request against any published view must answer `OK`.

use loom_core::engine::{EngineConfig, OnlineEngine, Snapshot};
use loom_core::ServeOptions;
use loom_graph::{EdgeId, EdgeSource, Label, PatternGraph, StreamEdge, VertexId, Workload};
use loom_partition::{
    AdjacencyHorizon, CapacityModel, EoParams, LoomConfig, LoomPartitioner, StreamPartitioner,
};
use loom_query::{handle_request, ReadView};
use loom_runtime::EpochCell;
use rand::Rng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const A: Label = Label(0);
const B: Label = Label(1);
const C: Label = Label(2);

/// The equivalence suites' adversarial shape: shuffled a–b–c chains,
/// hub→b edges, and non-motif c–c bypass edges.
fn hub_stream(n_chains: usize, seed: u64) -> (Vec<StreamEdge>, Workload) {
    let hub = 0u32;
    let mut edges = Vec::new();
    for i in 0..n_chains as u32 {
        let (a, b, c) = (3 * i + 1, 3 * i + 2, 3 * i + 3);
        edges.push((a, A, b, B));
        edges.push((b, B, c, C));
        edges.push((hub, A, b, B));
        if i > 0 {
            edges.push((c, C, c - 3, C));
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..=i));
    }
    let stream = edges
        .into_iter()
        .enumerate()
        .map(|(id, (src, sl, dst, dl))| StreamEdge {
            id: EdgeId(id as u32),
            src: VertexId(src),
            dst: VertexId(dst),
            src_label: sl,
            dst_label: dl,
        })
        .collect();
    let workload = Workload::new(vec![(PatternGraph::path("q", vec![A, B, C]), 1.0)]);
    (stream, workload)
}

fn loom_partitioner(workload: &Workload, threads: usize, shards: usize) -> Box<LoomPartitioner> {
    let config = LoomConfig {
        k: 4,
        window_size: 16,
        support_threshold: 0.4,
        prime: 251,
        eo: EoParams::default(),
        capacity_slack: 1.1,
        capacity: CapacityModel::Adaptive,
        seed: 7,
        allocation: Default::default(),
        adjacency_horizon: AdjacencyHorizon::Edges(96),
    };
    let mut p = Box::new(LoomPartitioner::new(&config, workload, 3));
    p.set_shards(shards);
    p.set_threads(threads);
    p
}

fn engine(workload: &Workload, threads: usize, shards: usize) -> OnlineEngine {
    OnlineEngine::new(
        loom_partitioner(workload, threads, shards),
        EngineConfig {
            snapshot_every: 512,
            batch_size: 64,
            ..EngineConfig::default()
        },
    )
}

struct VecSource {
    edges: Vec<StreamEdge>,
    pos: usize,
}

impl EdgeSource for VecSource {
    fn next_edge(&mut self) -> Option<StreamEdge> {
        let e = self.edges.get(self.pos).copied();
        self.pos += e.is_some() as usize;
        e
    }
}

fn source(edges: &[StreamEdge]) -> VecSource {
    VecSource {
        edges: edges.to_vec(),
        pos: 0,
    }
}

/// Everything except `serving` — the one field allowed to differ.
fn assert_snap_eq(a: &Snapshot, b: &Snapshot, ctx: &str) {
    assert_eq!(a.seq, b.seq, "{ctx}: seq");
    assert_eq!(a.edges, b.edges, "{ctx}: edges");
    assert_eq!(a.vertices, b.vertices, "{ctx}: vertices");
    assert_eq!(a.sizes, b.sizes, "{ctx}: sizes");
    assert_eq!(
        a.capacity.to_bits(),
        b.capacity.to_bits(),
        "{ctx}: capacity"
    );
    assert_eq!(
        a.imbalance.to_bits(),
        b.imbalance.to_bits(),
        "{ctx}: imbalance"
    );
    assert_eq!(a.cut_edges, b.cut_edges, "{ctx}: cut_edges");
    assert_eq!(a.resolved_edges, b.resolved_edges, "{ctx}: resolved_edges");
    assert_eq!(
        a.weighted_ipt.map(f64::to_bits),
        b.weighted_ipt.map(f64::to_bits),
        "{ctx}: weighted_ipt"
    );
    assert_eq!(a.arena, b.arena, "{ctx}: arena occupancy");
    assert_eq!(a.adjacency, b.adjacency, "{ctx}: adjacency occupancy");
}

/// A reader thread: spin on the publication cell for the run's whole
/// lifetime, assert monotonicity and well-formed replies, return how
/// many views it executed the request mix against.
fn spawn_reader(
    cell: Arc<EpochCell<ReadView>>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let (mut last_epoch, mut last_edges, mut rounds) = (0u64, 0u64, 0u64);
        loop {
            // Load BEFORE checking stop: the final view (published by
            // `finish`) is guaranteed to be observed at least once.
            let done = stop.load(Ordering::Acquire);
            if let Some(view) = cell.load() {
                assert!(
                    view.epoch >= last_epoch,
                    "epoch went backwards: {} after {last_epoch}",
                    view.epoch
                );
                assert!(
                    view.edges >= last_edges,
                    "edges went backwards: {} after {last_edges}",
                    view.edges
                );
                last_epoch = view.epoch;
                last_edges = view.edges;
                for req in ["STATS", "EPOCH", "KHOP 1 2 500", "PART 2", "HELP"] {
                    let reply = handle_request(Some(&view), req);
                    assert!(reply.starts_with("OK "), "{req} -> {reply}");
                }
                // MATCH needs all three labels observed; early views
                // may predate that, which must be a clean ERR.
                let reply = handle_request(Some(&view), "MATCH 0-1-2 100");
                assert!(
                    reply.starts_with("OK match") || reply.starts_with("ERR bad label"),
                    "MATCH -> {reply}"
                );
                rounds += 1;
            }
            if done {
                break;
            }
            std::thread::yield_now();
        }
        assert!(last_epoch > 0, "reader never observed a published view");
        rounds
    })
}

/// The acceptance cross: threads {1, 4} × shards {1, 4}, each cell's
/// serving-on run (3 concurrent readers hammering published views the
/// whole time) bit-identical to its serving-off twin.
#[test]
fn serving_on_is_bit_identical_to_serving_off_across_threads_and_shards() {
    let (edges, workload) = hub_stream(1_200, 0x5e12e);
    for (threads, shards) in [(1usize, 1usize), (4, 1), (1, 4), (4, 4)] {
        let ctx = format!("threads={threads} shards={shards}");

        let mut off = engine(&workload, threads, shards);
        let mut off_snaps = Vec::new();
        off.run(&mut source(&edges), None, |s| off_snaps.push(s.clone()))
            .expect("serving-off run");
        let off_fin = off.finish();

        let mut on = engine(&workload, threads, shards);
        let handle = on.enable_serving(ServeOptions {
            horizon_edges: 4_096,
            publish_every: 256,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| spawn_reader(Arc::clone(&handle.view), Arc::clone(&stop)))
            .collect();
        let mut on_snaps = Vec::new();
        on.run(&mut source(&edges), None, |s| on_snaps.push(s.clone()))
            .expect("serving-on run");
        let on_fin = on.finish();
        stop.store(true, Ordering::Release);
        let mut rounds = 0u64;
        for r in readers {
            rounds += r.join().expect("reader thread");
        }
        assert!(rounds > 0, "{ctx}: no reader executed a single round");

        assert_eq!(off_snaps.len(), on_snaps.len(), "{ctx}: snapshot count");
        for (a, b) in off_snaps.iter().zip(&on_snaps) {
            assert_snap_eq(a, b, &ctx);
            assert!(a.serving.is_none(), "{ctx}: serving-off twin has stats");
            assert!(b.serving.is_some(), "{ctx}: serving-on twin lacks stats");
        }
        assert_snap_eq(&off_fin, &on_fin, &format!("{ctx}: final"));

        assert_eq!(
            off.state_digest().expect("off digest"),
            on.state_digest().expect("on digest"),
            "{ctx}: state digest diverged"
        );
        let (a, b) = (off.into_assignment(), on.into_assignment());
        for e in &edges {
            for v in [e.src, e.dst] {
                assert_eq!(
                    a.partition_of(v),
                    b.partition_of(v),
                    "{ctx}: assignment diverged at {v:?}"
                );
            }
        }
    }
}

/// The final view `finish` publishes reflects the drained end state:
/// its edge count is the full stream and its assignment agrees with
/// the engine's final assignment, vertex for vertex.
#[test]
fn final_view_matches_final_assignment() {
    let (edges, workload) = hub_stream(400, 0xf17a1);
    let mut eng = engine(&workload, 1, 1);
    let handle = eng.enable_serving(ServeOptions {
        horizon_edges: 2_048,
        publish_every: 512,
    });
    eng.run(&mut source(&edges), None, |_| {}).expect("run");
    eng.finish();
    let view = handle.view.load().expect("final view published");
    assert_eq!(view.edges, edges.len() as u64);
    let assignment = eng.into_assignment();
    for e in &edges {
        for v in [e.src, e.dst] {
            assert_eq!(
                view.assignment.partition_of(v),
                assignment.partition_of(v),
                "view assignment diverged at {v:?}"
            );
        }
    }
    // The retained adjacency serves traversals over recent edges.
    let reply = handle_request(Some(&view), &format!("KHOP {} 2", edges[0].src.0));
    assert!(reply.starts_with("OK khop"), "{reply}");
}

/// Malformed requests against a live engine's published views answer
/// a single `ERR` line — and the stream of garbage leaves ingest
/// untouched: the engine still digests identically to a twin that
/// never served a request.
#[test]
fn malformed_requests_err_cleanly_and_never_perturb_ingest() {
    let (edges, workload) = hub_stream(300, 0xbad);
    let half = edges.len() / 2;

    let mut twin = engine(&workload, 1, 1);
    twin.run(&mut source(&edges), None, |_| {}).expect("twin");
    twin.finish();

    let mut eng = engine(&workload, 1, 1);
    let handle = eng.enable_serving(ServeOptions {
        horizon_edges: 1_024,
        publish_every: 128,
    });
    eng.run(&mut source(&edges), Some(half as u64), |_| {})
        .expect("first half");
    eng.await_views().expect("views land");
    let view = handle.view.load().expect("mid-stream view");
    for req in [
        "",
        "   ",
        "BOGUS",
        "stats",
        "KHOP",
        "KHOP x 2",
        "KHOP 1",
        "KHOP 1 99",
        "KHOP 1 2 0",
        "MATCH",
        "MATCH 0",
        "MATCH 0-x",
        "MATCH 0-1 nope",
        "PART",
        "PART abc",
        "EPOCH extra",
    ] {
        let reply = handle_request(Some(&view), req);
        assert!(reply.starts_with("ERR "), "{req:?} -> {reply:?}");
        assert!(!reply.contains('\n'), "{req:?}: multi-line reply");
    }
    // No view at all (server came up before the first publication).
    assert!(handle_request(None, "STATS").starts_with("ERR not ready"));

    let mut rest = source(&edges);
    assert_eq!(rest.skip_edges(half as u64), half as u64);
    eng.run(&mut rest, None, |_| {}).expect("second half");
    eng.finish();
    assert_eq!(
        twin.state_digest().expect("twin digest"),
        eng.state_digest().expect("engine digest"),
        "garbage requests perturbed ingest"
    );
}
