//! Experiment suites: one function per paper table/figure, each
//! returning the rendered report text (and machine-readable rows).

use loom_core::graph::datasets;
use loom_core::graph::{DatasetKind, GraphStream, Scale, StreamOrder};
use loom_core::motif::collision;
use loom_core::partition::{
    partition_stream, AllocationPolicy, CapacityModel, LoomConfig, LoomPartitioner,
    PartitionMetrics,
};
use loom_core::prelude::*;
use loom_core::report::{markdown_table, pct, rows};
use loom_core::{ExperimentConfig, System};
use std::fmt::Write as _;

/// Shared suite options.
#[derive(Clone, Copy, Debug)]
pub struct SuiteOptions {
    /// Dataset scale for the ipt experiments.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            scale: Scale::Small,
            seed: 42,
        }
    }
}

fn cfg_for(opts: &SuiteOptions, dataset: DatasetKind, order: StreamOrder) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::evaluation_defaults(dataset, opts.scale, order);
    cfg.seed = opts.seed;
    cfg
}

/// The prescient Loom of an experiment cell, as the suites that drive
/// it by hand build it.
fn loom_config(cfg: &ExperimentConfig, stream: &GraphStream) -> LoomConfig {
    LoomConfig {
        window_size: cfg.window_size,
        support_threshold: cfg.support_threshold,
        capacity: CapacityModel::for_stream(stream),
        seed: cfg.seed,
        ..LoomConfig::evaluation_defaults(cfg.k)
    }
}

/// Fig. 4: probability of fewer than C% factor collisions, for 24/36/48
/// factors (8/12/16-edge queries) and tolerances 5/10/20%, across
/// primes — the analytic binomial model, plus an empirical
/// false-positive measurement validating the `p = 251` choice.
pub fn fig4() -> String {
    let mut out = String::new();
    writeln!(out, "## Figure 4 — P(< C% factor collisions) vs prime p\n").unwrap();
    let primes = [2u64, 7, 17, 31, 61, 101, 151, 201, 251, 317];
    for tolerance in [0.05, 0.10, 0.20] {
        writeln!(out, "### tolerance {:.0}%\n", tolerance * 100.0).unwrap();
        let header: Vec<String> = std::iter::once("factors".to_string())
            .chain(primes.iter().map(|p| format!("p={p}")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut body = Vec::new();
        for factors in [24usize, 36, 48] {
            let mut row = vec![factors.to_string()];
            for &p in &primes {
                row.push(format!(
                    "{:.3}",
                    collision::acceptance_probability(factors, p, tolerance)
                ));
            }
            body.push(row);
        }
        out.push_str(&markdown_table(&header_refs, &body));
        out.push('\n');
    }

    writeln!(
        out,
        "### Empirical signature collisions (random 8-edge patterns, 4 labels)\n"
    )
    .unwrap();
    let mut body = Vec::new();
    for &p in &[7u64, 31, 101, 251] {
        let stats = collision::measure_collisions(2_000, 8, 4, p, 7);
        body.push(vec![
            format!("p={p}"),
            format!("{}", stats.pairs),
            format!("{}", stats.false_positives),
            format!("{:.4}", stats.false_positive_rate()),
            format!("{}", stats.false_negatives),
        ]);
    }
    out.push_str(&markdown_table(
        &["prime", "pairs", "false+", "fp rate", "false- (must be 0)"],
        &body,
    ));
    out
}

/// Table 1: the dataset inventory — paper sizes next to the generated
/// stand-ins at the chosen scale.
pub fn table1(opts: &SuiteOptions) -> String {
    let paper: &[(&str, &str, &str)] = &[
        ("DBLP", "1.2M", "2.5M"),
        ("ProvGen", "0.5M", "0.9M"),
        ("MusicBrainz", "31M", "100M"),
        ("LUBM-100", "2.6M", "11M"),
        ("LUBM-4000", "131M", "534M"),
    ];
    let mut body = Vec::new();
    for (i, kind) in DatasetKind::ALL.into_iter().enumerate() {
        let g = datasets::generate(kind, opts.scale, opts.seed);
        body.push(vec![
            kind.name().to_string(),
            paper[i].1.to_string(),
            paper[i].2.to_string(),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            kind.num_labels().to_string(),
            if kind.paper_dataset_was_real() {
                "Y"
            } else {
                "N"
            }
            .to_string(),
        ]);
    }
    format!(
        "## Table 1 — datasets (paper vs generated at scale `{}`)\n\n{}",
        opts.scale.name(),
        markdown_table(
            &[
                "dataset",
                "paper |V|",
                "paper |E|",
                "gen |V|",
                "gen |E|",
                "|Lv|",
                "real in paper"
            ],
            &body,
        )
    )
}

/// One Fig. 7/8-style table: ipt as % of Hash per system.
fn ipt_table(results: &[(String, loom_core::ExperimentResult)]) -> String {
    let mut body = Vec::new();
    for (label, r) in results {
        let mut row = vec![label.clone()];
        for sys in [System::Ldg, System::Fennel, System::Loom] {
            row.push(pct(r.ipt_vs_hash(sys).unwrap_or(f64::NAN)));
        }
        body.push(row);
    }
    markdown_table(&["cell", "LDG", "Fennel", "Loom"], &body)
}

/// Fig. 7: ipt % vs Hash for 8-way partitionings under the three
/// stream orders, over the four ipt-evaluated datasets. Also prints
/// the §5.2 imbalance note for the breadth-first runs.
pub fn fig7(opts: &SuiteOptions) -> (String, Vec<loom_core::ExperimentResult>) {
    let mut results = Vec::new();
    let mut out = String::new();
    writeln!(
        out,
        "## Figure 7 — ipt as % of Hash, k = 8, three stream orders\n"
    )
    .unwrap();
    for order in StreamOrder::EVALUATED {
        let mut cells = Vec::new();
        for dataset in DatasetKind::IPT_EVALUATED {
            let cfg = cfg_for(opts, dataset, order);
            let r = loom_core::run_experiment(&cfg);
            cells.push((dataset.name().to_string(), r.clone()));
            results.push(r);
        }
        writeln!(out, "### {} order\n", order.name()).unwrap();
        out.push_str(&ipt_table(&cells));
        out.push('\n');
    }

    // §5.2's imbalance side note, from the breadth-first cells.
    writeln!(
        out,
        "### Imbalance (breadth-first runs; paper: LDG 1-3%, Fennel/Loom 7-10%)\n"
    )
    .unwrap();
    let mut body = Vec::new();
    for r in results
        .iter()
        .filter(|r| r.config.order == StreamOrder::BreadthFirst)
    {
        let mut row = vec![r.config.dataset.name().to_string()];
        for sys in System::ALL {
            let m = &r.system(sys).unwrap().metrics;
            row.push(pct(m.imbalance * 100.0));
        }
        body.push(row);
    }
    out.push_str(&markdown_table(
        &["dataset", "Hash", "LDG", "Fennel", "Loom"],
        &body,
    ));
    (out, results)
}

/// Fig. 8: ipt % vs Hash for k ∈ {2, 8, 32} on breadth-first streams.
pub fn fig8(opts: &SuiteOptions) -> (String, Vec<loom_core::ExperimentResult>) {
    let mut results = Vec::new();
    let mut out = String::new();
    writeln!(
        out,
        "## Figure 8 — ipt as % of Hash, breadth-first streams, k sweep\n"
    )
    .unwrap();
    for k in [2usize, 8, 32] {
        let mut cells = Vec::new();
        for dataset in DatasetKind::IPT_EVALUATED {
            let mut cfg = cfg_for(opts, dataset, StreamOrder::BreadthFirst);
            cfg.k = k;
            let r = loom_core::run_experiment(&cfg);
            cells.push((dataset.name().to_string(), r.clone()));
            results.push(r);
        }
        writeln!(out, "### k = {k}\n").unwrap();
        out.push_str(&ipt_table(&cells));
        out.push('\n');
    }
    (out, results)
}

/// Table 2: milliseconds to partition 10k edges, per system per
/// dataset — including LUBM-4000, which (as in the paper) is
/// partitioned but not ipt-evaluated.
pub fn table2(opts: &SuiteOptions) -> String {
    let mut body = Vec::new();
    for dataset in DatasetKind::ALL {
        let cfg = cfg_for(opts, dataset, StreamOrder::BreadthFirst);
        let graph = datasets::generate(dataset, opts.scale, opts.seed);
        let workload = workload_for(dataset);
        let stream = GraphStream::from_graph(&graph, cfg.order, cfg.seed);
        let mut row = vec![dataset.name().to_string()];
        for sys in [System::Ldg, System::Fennel, System::Loom, System::Hash] {
            let (_, took) = loom_core::partition_timed(sys, &cfg, &stream, &workload);
            let ms = took.as_secs_f64() * 1e3 * 10_000.0 / stream.len().max(1) as f64;
            row.push(format!("{ms:.1}"));
        }
        body.push(row);
    }
    let mut out = format!(
        "## Table 2 — time to partition 10k edges (ms)\n\n{}",
        markdown_table(&["dataset", "LDG", "Fennel", "Loom", "Hash"], &body)
    );

    // Loom per-phase breakdown, from separate profiled runs (the timed
    // rows above stay stopwatch-free). Phases: motif matching,
    // partitioning decisions (bypass placements + auctions), window +
    // adjacency + counter upkeep.
    writeln!(
        out,
        "\n### Loom per-phase breakdown (ms per 10k edges, profiled run)\n"
    )
    .unwrap();
    let mut body = Vec::new();
    for dataset in DatasetKind::ALL {
        let cfg = cfg_for(opts, dataset, StreamOrder::BreadthFirst);
        let graph = datasets::generate(dataset, opts.scale, opts.seed);
        let workload = workload_for(dataset);
        let stream = GraphStream::from_graph(&graph, cfg.order, cfg.seed);
        let loom_cfg = loom_config(&cfg, &stream);
        let mut p = LoomPartitioner::new(&loom_cfg, &workload, stream.num_labels());
        p.enable_phase_profile();
        partition_stream(&mut p, &stream);
        let phases = p.phase_breakdown();
        let per_10k = |ns: u64| ns as f64 / 1e6 * 10_000.0 / stream.len().max(1) as f64;
        body.push(vec![
            dataset.name().to_string(),
            format!("{:.2}", per_10k(phases.matcher_ns)),
            format!("{:.2}", per_10k(phases.partitioner_ns)),
            format!("{:.2}", per_10k(phases.window_ns)),
        ]);
    }
    out.push_str(&markdown_table(
        &["dataset", "matcher", "partitioner", "window upkeep"],
        &body,
    ));
    out
}

/// Fig. 9: Loom's ipt across window sizes, per dataset (breadth-first).
/// The paper sweeps 100..100k on 10⁵-10⁸-edge streams; the sweep here
/// covers the same ratios against the scaled streams.
pub fn fig9(opts: &SuiteOptions) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "## Figure 9 — Loom ipt (absolute, weighted) vs window size t\n"
    )
    .unwrap();
    let fractions: [(usize, &str); 5] = [
        (600, "1/600"),
        (200, "1/200"),
        (50, "1/50"),
        (12, "1/12"),
        (4, "1/4"),
    ];
    let header: Vec<String> = std::iter::once("dataset".to_string())
        .chain(fractions.iter().map(|&(_, name)| format!("t={name} |E|")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut body = Vec::new();
    for dataset in DatasetKind::IPT_EVALUATED {
        let graph = datasets::generate(dataset, opts.scale, opts.seed);
        let workload = workload_for(dataset);
        let stream = GraphStream::from_graph(&graph, StreamOrder::BreadthFirst, opts.seed);
        let mut row = vec![dataset.name().to_string()];
        for &(div, _) in &fractions {
            let mut cfg = cfg_for(opts, dataset, StreamOrder::BreadthFirst);
            cfg.window_size = (stream.len() / div).max(16);
            let (assignment, _) =
                loom_core::partition_timed(System::Loom, &cfg, &stream, &workload);
            let report = count_ipt(&graph, &assignment, &workload, cfg.limit_per_query);
            row.push(format!("{:.0}", report.weighted_ipt));
        }
        body.push(row);
    }
    out.push_str(&markdown_table(&header_refs, &body));
    out
}

/// Ablations promised in DESIGN.md §7: equal opportunism vs the naive
/// greedy allocation of §4, and factor-multiset vs product signatures.
pub fn ablations(opts: &SuiteOptions) -> String {
    let mut out = String::new();

    // (a) Allocation policy ablation.
    writeln!(
        out,
        "## Ablation A — equal opportunism vs naive greedy (§4)\n"
    )
    .unwrap();
    let mut body = Vec::new();
    for dataset in DatasetKind::IPT_EVALUATED {
        let cfg = cfg_for(opts, dataset, StreamOrder::BreadthFirst);
        let graph = datasets::generate(dataset, opts.scale, opts.seed);
        let workload = workload_for(dataset);
        let stream = GraphStream::from_graph(&graph, cfg.order, cfg.seed);
        let mut row = vec![dataset.name().to_string()];
        for policy in [
            AllocationPolicy::EqualOpportunism,
            AllocationPolicy::NaiveGreedy,
        ] {
            let loom_cfg = LoomConfig {
                allocation: policy,
                ..loom_config(&cfg, &stream)
            };
            let mut p = LoomPartitioner::new(&loom_cfg, &workload, stream.num_labels());
            partition_stream(&mut p, &stream);
            let a = Box::new(p).into_assignment();
            let m = PartitionMetrics::measure(&graph, &a);
            let r = count_ipt(&graph, &a, &workload, cfg.limit_per_query);
            row.push(format!(
                "ipt {:.0} / imb {}",
                r.weighted_ipt,
                pct(m.imbalance * 100.0)
            ));
        }
        body.push(row);
    }
    out.push_str(&markdown_table(
        &["dataset", "equal opportunism", "naive greedy"],
        &body,
    ));
    out.push('\n');

    // (b) Signature representation ablation: factor multisets vs raw
    // products (the §2.3 argument that multisets kill a collision class).
    writeln!(
        out,
        "## Ablation B — factor-multiset vs product signatures (§2.3)\n"
    )
    .unwrap();
    let mut body = Vec::new();
    for &p in &[7u64, 31, 251] {
        let stats = collision::measure_collisions(2_000, 8, 4, p, 11);
        // Product collisions: re-measure equality on products.
        let product_fp = measure_product_collisions(2_000, 8, 4, p, 11);
        body.push(vec![
            format!("p={p}"),
            format!("{}", stats.false_positives),
            format!("{product_fp}"),
        ]);
    }
    out.push_str(&markdown_table(
        &["prime", "multiset false+", "product false+"],
        &body,
    ));
    out.push('\n');

    // (c) §6 integrations: Loom alone vs Loom + TAPER-style refinement
    // vs Loom + a restream pass.
    writeln!(
        out,
        "## Ablation C — Loom vs Loom+TAPER refinement vs Loom+restream (§6)\n"
    )
    .unwrap();
    let mut body = Vec::new();
    for dataset in DatasetKind::IPT_EVALUATED {
        let cfg = cfg_for(opts, dataset, StreamOrder::BreadthFirst);
        let graph = datasets::generate(dataset, opts.scale, opts.seed);
        let workload = workload_for(dataset);
        let stream = GraphStream::from_graph(&graph, cfg.order, cfg.seed);
        let (loom_a, _) = loom_core::partition_timed(System::Loom, &cfg, &stream, &workload);
        let base = count_ipt(&graph, &loom_a, &workload, cfg.limit_per_query).weighted_ipt;
        let weights = loom_core::partition::TraversalWeights::from_workload(&workload);
        let refined = loom_core::partition::taper_refine(&graph, &loom_a, &weights, 8, 1.1);
        let tapered =
            count_ipt(&graph, &refined.assignment, &workload, cfg.limit_per_query).weighted_ipt;
        let restreamed = loom_core::partition::restream_pass(&stream, &loom_a, 1.1);
        let re = count_ipt(&graph, &restreamed, &workload, cfg.limit_per_query).weighted_ipt;
        body.push(vec![
            dataset.name().to_string(),
            format!("{base:.0}"),
            format!("{tapered:.0} ({} moves)", refined.moves),
            format!("{re:.0}"),
        ]);
    }
    out.push_str(&markdown_table(
        &["dataset", "Loom ipt", "+TAPER refine", "+restream pass"],
        &body,
    ));
    out.push('\n');

    // (d) Matcher cap sweep: the DESIGN.md §5 bounded-work deviation
    // (MAX_MATCHES_PER_ENDPOINT), justified by data rather than the
    // old cost model — quality (weighted ipt) barely moves across two
    // orders of magnitude of cap while the unbounded matcher pays for
    // hub scans with throughput.
    writeln!(
        out,
        "## Ablation D — MAX_MATCHES_PER_ENDPOINT sweep (§5 deviation)\n"
    )
    .unwrap();
    let caps: [usize; 4] = [16, 48, 128, usize::MAX];
    let mut body = Vec::new();
    for dataset in DatasetKind::IPT_EVALUATED {
        let cfg = cfg_for(opts, dataset, StreamOrder::BreadthFirst);
        let graph = datasets::generate(dataset, opts.scale, opts.seed);
        let workload = workload_for(dataset);
        let stream = GraphStream::from_graph(&graph, cfg.order, cfg.seed);
        let mut row = vec![dataset.name().to_string()];
        for &cap in &caps {
            let loom_cfg = loom_config(&cfg, &stream);
            let mut p = LoomPartitioner::new(&loom_cfg, &workload, stream.num_labels());
            p.set_match_cap(cap);
            let start = std::time::Instant::now();
            partition_stream(&mut p, &stream);
            let took = start.elapsed();
            let ms = took.as_secs_f64() * 1e3 * 10_000.0 / stream.len().max(1) as f64;
            let a = Box::new(p).into_assignment();
            let r = count_ipt(&graph, &a, &workload, cfg.limit_per_query);
            row.push(format!("ipt {:.0} / {ms:.2} ms", r.weighted_ipt));
        }
        body.push(row);
    }
    out.push_str(&markdown_table(
        &[
            "dataset",
            "cap 16",
            "cap 48 (default)",
            "cap 128",
            "unbounded",
        ],
        &body,
    ));
    out.push_str("\n(cells: weighted ipt / ms per 10k edges, k = 8, breadth-first)\n");
    out
}

/// Count false positives when signatures are compared as wrapped
/// products (the Song-et-al-style representation) instead of factor
/// multisets.
fn measure_product_collisions(
    pairs: usize,
    num_edges: usize,
    num_labels: usize,
    p: u64,
    seed: u64,
) -> usize {
    use loom_core::motif::{pattern_signature, LabelRandomizer};
    use rand::SeedableRng;
    let rand = LabelRandomizer::new(num_labels, p, seed ^ 0x5eed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut fp = 0usize;
    for i in 0..pairs {
        let a = collision::random_connected_pattern(&mut rng, num_edges, num_labels, i);
        let b = collision::random_connected_pattern(&mut rng, num_edges, num_labels, i);
        let pa = pattern_signature(&a, &rand).product_u128();
        let pb = pattern_signature(&b, &rand).product_u128();
        if pa == pb && !loom_core::motif::isomorphism::are_isomorphic(&a, &b) {
            fp += 1;
        }
    }
    fp
}

/// Online-vs-prescient suite (new with the engine refactor): the same
/// systems over the same streams, once with the paper's prescient
/// capacities (`C = ν·n/k` fixed from the known extent) and once fully
/// online ([`CapacityModel::Adaptive`] — unknown `|V|`, `C` tracks the
/// running count). Measures what prescience is actually worth.
pub fn online(opts: &SuiteOptions) -> String {
    use loom_core::engine::{EngineConfig, OnlineEngine};
    use loom_core::pipeline::make_partitioner_with_capacity;

    let mut out = String::new();
    writeln!(
        out,
        "## Online vs prescient — ipt (weighted) and imbalance, k = 8, breadth-first\n"
    )
    .unwrap();
    let mut body = Vec::new();
    for dataset in DatasetKind::IPT_EVALUATED {
        let cfg = cfg_for(opts, dataset, StreamOrder::BreadthFirst);
        let graph = datasets::generate(dataset, opts.scale, opts.seed);
        let workload = workload_for(dataset);
        let stream = GraphStream::from_graph(&graph, cfg.order, cfg.seed);
        let mut row = vec![dataset.name().to_string()];
        for sys in [System::Ldg, System::Fennel, System::Loom] {
            for capacity in [
                loom_core::partition::CapacityModel::for_stream(&stream),
                loom_core::partition::CapacityModel::Adaptive,
            ] {
                let p = make_partitioner_with_capacity(
                    sys,
                    &cfg,
                    capacity,
                    stream.num_labels(),
                    &workload,
                );
                let mut engine = OnlineEngine::new(
                    p,
                    EngineConfig {
                        snapshot_every: 0,
                        track_cuts: false,
                        ..EngineConfig::default()
                    },
                );
                engine
                    .run(&mut stream.source(), None, |_| {})
                    .expect("materialised-stream ingest cannot fail");
                engine.finish();
                let a = engine.into_assignment();
                let m = PartitionMetrics::measure(&graph, &a);
                let r = count_ipt(&graph, &a, &workload, cfg.limit_per_query);
                row.push(format!(
                    "{:.0} / {}",
                    r.weighted_ipt,
                    pct(m.imbalance * 100.0)
                ));
            }
        }
        body.push(row);
    }
    out.push_str(&markdown_table(
        &[
            "dataset",
            "LDG prescient",
            "LDG online",
            "Fennel prescient",
            "Fennel online",
            "Loom prescient",
            "Loom online",
        ],
        &body,
    ));
    out.push_str("\n(cells: weighted ipt / vertex imbalance)\n");
    out
}

/// Machine-readable rows of a set of experiment results, as JSON lines.
pub fn jsonl(results: &[loom_core::ExperimentResult]) -> String {
    let mut out = String::new();
    for r in results {
        for row in rows(r) {
            out.push_str(&row.to_json());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SuiteOptions {
        SuiteOptions {
            scale: Scale::Tiny,
            seed: 42,
        }
    }

    #[test]
    fn fig4_renders() {
        let s = fig4();
        assert!(s.contains("p=251"));
        assert!(s.contains("tolerance 5%"));
        assert!(s.contains("false- (must be 0)"));
    }

    #[test]
    fn table1_covers_all_datasets() {
        let s = table1(&tiny());
        for kind in DatasetKind::ALL {
            assert!(s.contains(kind.name()), "{} missing", kind.name());
        }
    }

    #[test]
    fn table2_renders_all_systems() {
        let s = table2(&tiny());
        assert!(s.contains("LUBM-4000"));
        assert!(s.contains("| dataset | LDG | Fennel | Loom | Hash |"));
    }

    #[test]
    fn jsonl_emits_rows() {
        let mut cfg = ExperimentConfig::evaluation_defaults(
            DatasetKind::ProvGen,
            Scale::Tiny,
            StreamOrder::BreadthFirst,
        );
        cfg.k = 2;
        cfg.limit_per_query = 5_000;
        let r = loom_core::run_experiment(&cfg);
        let out = jsonl(&[r]);
        assert_eq!(out.lines().count(), 4);
        assert!(out.contains("\"system\":\"Loom\""));
    }
}
