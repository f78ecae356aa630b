//! The end-to-end experiment pipeline of §5.1: generate → stream in
//! order → partition with each system → execute the workload → count
//! ipt. Every figure and table regenerates through this module.
//!
//! The `loom` commands share two of its pieces: [`build_partitioner`],
//! the one place a [`System`] becomes a partitioner, and [`drive`],
//! which runs one over a materialised stream through
//! [`crate::engine::OnlineEngine`] — the path a live deployment uses,
//! bit-identical to an edge-at-a-time pass.

use crate::config::{ExperimentConfig, System};
use crate::engine::{EngineConfig, OnlineEngine};
use loom_graph::{datasets, GraphStream, LabeledGraph, Workload};
use loom_partition::{
    Assignment, CapacityModel, FennelParams, FennelPartitioner, HashPartitioner, LdgPartitioner,
    LoomConfig, LoomPartitioner, PartitionMetrics, StreamPartitioner,
};
use loom_query::{count_ipt, workload_for, IptReport};
use std::time::{Duration, Instant};

/// Outcome of running one system on one experiment cell.
#[derive(Clone, Debug)]
pub struct SystemResult {
    /// Which system ran.
    pub system: System,
    /// Frequency-weighted ipt of the workload execution.
    pub weighted_ipt: f64,
    /// Unweighted total ipt.
    pub total_ipt: usize,
    /// Matches enumerated during ipt counting.
    pub matches: usize,
    /// Structural metrics of the final partitioning.
    pub metrics: PartitionMetrics,
    /// Wall time spent partitioning the stream.
    pub partition_time: Duration,
    /// Edges partitioned (for per-10k-edge normalisation, Table 2).
    pub edges: usize,
}

impl SystemResult {
    /// Milliseconds to partition 10k edges — Table 2's unit.
    pub fn ms_per_10k_edges(&self) -> f64 {
        if self.edges == 0 {
            return 0.0;
        }
        self.partition_time.as_secs_f64() * 1e3 * 10_000.0 / self.edges as f64
    }
}

/// Results of one experiment cell across systems.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// The configuration that produced this.
    pub config: ExperimentConfig,
    /// |V| of the generated graph.
    pub num_vertices: usize,
    /// |E| of the generated graph.
    pub num_edges: usize,
    /// Per-system outcomes, in [`System::ALL`] order where run.
    pub systems: Vec<SystemResult>,
}

impl ExperimentResult {
    /// Result row of one system, if it was run.
    pub fn system(&self, s: System) -> Option<&SystemResult> {
        self.systems.iter().find(|r| r.system == s)
    }

    /// The figures' y-axis: a system's weighted ipt as a percentage of
    /// Hash's (lower is better; Hash itself is 100).
    pub fn ipt_vs_hash(&self, s: System) -> Option<f64> {
        let hash = self.system(System::Hash)?.weighted_ipt;
        let sys = self.system(s)?.weighted_ipt;
        if hash == 0.0 {
            return Some(if sys == 0.0 { 100.0 } else { f64::INFINITY });
        }
        Some(sys / hash * 100.0)
    }
}

/// The factory of the four systems. Hash reads `k` and `seed` of
/// `config`, LDG and Fennel `k` and `capacity`, Loom all of it plus the
/// workload and the label alphabet. `None` exactly when `system` is
/// Loom and `workload` is `None`.
pub fn build_partitioner(
    system: System,
    config: &LoomConfig,
    workload: Option<&Workload>,
    num_labels: usize,
) -> Option<Box<dyn StreamPartitioner>> {
    Some(match system {
        System::Hash => Box::new(HashPartitioner::new(config.k, config.seed)),
        System::Ldg => Box::new(LdgPartitioner::new(config.k, config.capacity)),
        System::Fennel => Box::new(FennelPartitioner::new(
            config.k,
            config.capacity,
            FennelParams::default(),
        )),
        System::Loom => Box::new(LoomPartitioner::new(config, workload?, num_labels)),
    })
}

/// [`build_partitioner`] for an experiment cell under an explicit
/// capacity model ([`CapacityModel::Adaptive`] for unbounded ingest),
/// with the cell's worker count applied.
pub fn make_partitioner_with_capacity(
    system: System,
    config: &ExperimentConfig,
    capacity: CapacityModel,
    num_labels: usize,
    workload: &Workload,
) -> Box<dyn StreamPartitioner> {
    let mut p = build_partitioner(
        system,
        &config.loom_config(capacity),
        Some(workload),
        num_labels,
    )
    .expect("a workload is given");
    p.set_threads(config.threads.max(1));
    p
}

/// Construct one of the four partitioners for a materialised stream —
/// the prescient setting of the paper's evaluation.
pub fn make_partitioner(
    system: System,
    config: &ExperimentConfig,
    stream: &GraphStream,
    workload: &Workload,
) -> Box<dyn StreamPartitioner> {
    make_partitioner_with_capacity(
        system,
        config,
        CapacityModel::for_stream(stream),
        stream.num_labels(),
        workload,
    )
}

/// Run `p` over all of `stream` through the [`OnlineEngine`], as a live
/// ingest would, with no snapshots and no cut accounting: the wall time
/// returned (ingest plus the final flush) is the partitioner's.
pub fn drive(p: Box<dyn StreamPartitioner>, stream: &GraphStream) -> (Assignment, Duration) {
    let mut engine = OnlineEngine::new(
        p,
        EngineConfig {
            snapshot_every: 0,
            track_cuts: false,
            ..EngineConfig::default()
        },
    );
    let start = Instant::now();
    engine
        .run(&mut stream.source(), None, |_| {})
        .expect("materialised-stream ingest cannot fail");
    engine.finish();
    let elapsed = start.elapsed();
    (engine.into_assignment(), elapsed)
}

/// Partition `stream` with `system`, timed: [`make_partitioner`] then
/// [`drive`]. Table 2 and `BENCH_results.json` track these numbers.
pub fn partition_timed(
    system: System,
    config: &ExperimentConfig,
    stream: &GraphStream,
    workload: &Workload,
) -> (Assignment, Duration) {
    drive(make_partitioner(system, config, stream, workload), stream)
}

/// Run one full experiment cell over the given systems.
pub fn run_experiment_with(config: &ExperimentConfig, systems: &[System]) -> ExperimentResult {
    let graph = datasets::generate(config.dataset, config.scale, config.seed);
    let workload = workload_for(config.dataset);
    let stream = GraphStream::from_graph(&graph, config.order, config.seed);
    let mut results = Vec::with_capacity(systems.len());
    for &system in systems {
        let (assignment, took) = partition_timed(system, config, &stream, &workload);
        let report = count_ipt(&graph, &assignment, &workload, config.limit_per_query);
        results.push(make_result(system, &graph, &assignment, report, took));
    }
    ExperimentResult {
        config: config.clone(),
        num_vertices: graph.num_vertices(),
        num_edges: graph.num_edges(),
        systems: results,
    }
}

/// Run one full experiment cell over all four systems.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentResult {
    run_experiment_with(config, &System::ALL)
}

fn make_result(
    system: System,
    graph: &LabeledGraph,
    assignment: &Assignment,
    report: IptReport,
    partition_time: Duration,
) -> SystemResult {
    SystemResult {
        system,
        weighted_ipt: report.weighted_ipt,
        total_ipt: report.total_ipt(),
        matches: report.total_matches(),
        metrics: PartitionMetrics::measure(graph, assignment),
        partition_time,
        edges: graph.num_edges(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::{DatasetKind, Scale, StreamOrder};

    fn tiny_config(dataset: DatasetKind) -> ExperimentConfig {
        let mut c =
            ExperimentConfig::evaluation_defaults(dataset, Scale::Tiny, StreamOrder::BreadthFirst);
        c.k = 4;
        c.limit_per_query = 20_000;
        c
    }

    #[test]
    fn full_pipeline_runs_on_provgen() {
        let r = run_experiment(&tiny_config(DatasetKind::ProvGen));
        assert_eq!(r.systems.len(), 4);
        for s in &r.systems {
            assert!(s.matches > 0, "{}: no matches", s.system.name());
            assert!(s.edges == r.num_edges);
        }
        // Hash normalisation: Hash itself is 100%.
        assert!((r.ipt_vs_hash(System::Hash).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn informed_partitioners_beat_hash_on_provgen() {
        let r = run_experiment(&tiny_config(DatasetKind::ProvGen));
        let ldg = r.ipt_vs_hash(System::Ldg).unwrap();
        let fennel = r.ipt_vs_hash(System::Fennel).unwrap();
        let loom = r.ipt_vs_hash(System::Loom).unwrap();
        assert!(ldg < 100.0, "LDG {ldg} >= Hash");
        assert!(fennel < 100.0, "Fennel {fennel} >= Hash");
        assert!(loom < 100.0, "Loom {loom} >= Hash");
    }

    #[test]
    fn loom_beats_or_matches_fennel_on_chained_provgen() {
        // The headline claim at miniature scale. Tiny graphs are noisy,
        // so allow a small tolerance rather than demand the paper's
        // 20-25% margin here; the Medium-scale benches check the margin.
        let r = run_experiment(&tiny_config(DatasetKind::ProvGen));
        let fennel = r.ipt_vs_hash(System::Fennel).unwrap();
        let loom = r.ipt_vs_hash(System::Loom).unwrap();
        assert!(
            loom <= fennel * 1.15,
            "Loom {loom:.1}% should not trail Fennel {fennel:.1}% by >15%"
        );
    }

    #[test]
    fn balance_within_evaluation_bounds() {
        let r = run_experiment(&tiny_config(DatasetKind::ProvGen));
        for s in &r.systems {
            assert!(
                s.metrics.imbalance < 0.35,
                "{} imbalance {}",
                s.system.name(),
                s.metrics.imbalance
            );
        }
    }

    #[test]
    fn throughput_is_positive_and_loom_is_slower() {
        let r = run_experiment(&tiny_config(DatasetKind::ProvGen));
        let hash = r.system(System::Hash).unwrap().ms_per_10k_edges();
        let loom = r.system(System::Loom).unwrap().ms_per_10k_edges();
        assert!(hash > 0.0 && loom > 0.0);
        // Loom does strictly more work than Hash per edge.
        assert!(loom > hash, "loom {loom} <= hash {hash}");
    }

    #[test]
    fn subset_of_systems_runs() {
        let r = run_experiment_with(
            &tiny_config(DatasetKind::ProvGen),
            &[System::Hash, System::Loom],
        );
        assert_eq!(r.systems.len(), 2);
        assert!(r.system(System::Fennel).is_none());
    }
}
