//! Online-mode determinism: the sibling of `tests/determinism.rs` for
//! the adaptive-capacity engine path. The batch suite pins prescient
//! runs (stream extent known upfront); this one pins truly online runs
//! — unknown `|V|`, adaptive capacities, edges pulled from an
//! unbounded source — which must be just as much a pure function of
//! the seed.

#[path = "../crates/loom-core/tests/common/mod.rs"]
mod common;

use common::assert_snaps_eq;
use loom_core::engine::{EngineConfig, OnlineEngine, Snapshot};
use loom_core::graph::{DatasetKind, SyntheticEdgeSource, VertexId};
use loom_core::pipeline::make_partitioner_with_capacity;
use loom_core::prelude::*;
use loom_core::System;

/// One online run: `system` over `max_edges` edges of the synthetic
/// unbounded source, adaptive capacity, snapshots every 2_000 edges.
fn online_run(system: System, seed: u64, max_edges: u64) -> (Vec<Snapshot>, Assignment) {
    online_run_at(system, seed, max_edges, 1)
}

/// [`online_run`] at an explicit ingest worker count.
fn online_run_at(
    system: System,
    seed: u64,
    max_edges: u64,
    threads: usize,
) -> (Vec<Snapshot>, Assignment) {
    let mut cfg = ExperimentConfig::evaluation_defaults(
        DatasetKind::ProvGen, // dataset irrelevant: source is synthetic
        Scale::Tiny,
        StreamOrder::AsGenerated,
    );
    cfg.k = 4;
    cfg.seed = seed;
    cfg.window_size = 256;
    cfg.threads = threads;
    let workload = workload_for(DatasetKind::ProvGen);
    let num_labels = 3;
    let p = make_partitioner_with_capacity(
        system,
        &cfg,
        CapacityModel::Adaptive,
        num_labels,
        &workload,
    );
    let mut engine = OnlineEngine::new(
        p,
        EngineConfig {
            snapshot_every: 2_000,
            ..EngineConfig::default()
        },
    );
    let mut source = SyntheticEdgeSource::new(seed, num_labels);
    let mut snaps = Vec::new();
    engine
        .run(&mut source, Some(max_edges), |s| snaps.push(s.clone()))
        .unwrap();
    snaps.push(engine.finish());
    (snaps, engine.into_assignment())
}

/// Two online runs with the same seed agree bit-for-bit on every
/// snapshot observable and on the final per-vertex assignment, for
/// every system.
#[test]
fn online_runs_are_bit_identical_across_runs() {
    for system in System::ALL {
        let (snaps_a, a) = online_run(system, 0x5eed, 8_000);
        let (snaps_b, b) = online_run(system, 0x5eed, 8_000);
        assert_snaps_eq(&snaps_a, &snaps_b, system.name());
        assert_eq!(a.k(), b.k());
        let pairs_a: Vec<_> = a.iter().collect();
        let pairs_b: Vec<_> = b.iter().collect();
        assert_eq!(
            pairs_a,
            pairs_b,
            "{}: assignments diverged between identical online runs",
            system.name()
        );
    }
}

/// Online runs are bit-identical across ingest worker counts too:
/// every snapshot observable and the final assignment agree at threads
/// {1, 4}, for every system (DESIGN.md §13).
#[test]
fn online_runs_are_bit_identical_across_worker_counts() {
    for system in System::ALL {
        let name = system.name();
        let (snaps_ref, a) = online_run_at(system, 0x5eed, 8_000, 1);
        let (snaps, b) = online_run_at(system, 0x5eed, 8_000, 4);
        assert_snaps_eq(&snaps_ref, &snaps, &format!("{name}@t4"));
        let pairs_a: Vec<_> = a.iter().collect();
        let pairs_b: Vec<_> = b.iter().collect();
        assert_eq!(
            pairs_a, pairs_b,
            "{name}: assignments diverged between threads 1 and threads 4"
        );
    }
}

/// The seed must matter online too: a different seed changes both the
/// synthetic stream and at least some outcome.
#[test]
fn online_seed_is_not_ignored() {
    let (snaps_a, _) = online_run(System::Ldg, 1, 6_000);
    let (snaps_b, _) = online_run(System::Ldg, 2, 6_000);
    let diverged = snaps_a
        .iter()
        .zip(&snaps_b)
        .any(|(x, y)| x.sizes != y.sizes || x.cut_edges != y.cut_edges);
    assert!(diverged, "changing the seed changed nothing online");
}

/// Online runs really are online: capacity grows, vertices keep
/// appearing, and no snapshot ever reports the full final extent
/// before the stream ends.
#[test]
fn online_runs_never_know_the_extent() {
    // 9_000 is deliberately not a cadence multiple, so the stream
    // keeps growing after the last mid-stream snapshot.
    let (snaps, assignment) = online_run(System::Fennel, 9, 9_000);
    assert!(snaps.len() >= 3, "need >= 2 mid-stream snapshots + final");
    let mid = &snaps[..snaps.len() - 1];
    for w in mid.windows(2) {
        assert!(
            w[1].capacity >= w[0].capacity,
            "adaptive capacity must be monotone"
        );
        assert!(w[1].vertices >= w[0].vertices);
    }
    let last_mid = &mid[mid.len() - 1];
    let fin = &snaps[snaps.len() - 1];
    assert!(
        last_mid.vertices < fin.vertices,
        "the stream kept growing after the last mid-stream snapshot"
    );
    // Every vertex the final state knows is permanently assigned.
    for (v, _) in assignment.iter() {
        assert!(assignment.partition_of(v).is_some());
    }
    assert!(assignment.partition_of(VertexId(u32::MAX - 1)).is_none());
}
