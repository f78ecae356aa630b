//! Parallel-equivalence oracle: multi-worker ingest is **bit-identical**
//! to sequential ingest, for any worker count and any batch size
//! (DESIGN.md §13).
//!
//! The parallel pipeline fans out only the pure per-edge work (the
//! single-edge classification and the read-only matcher probe) and
//! commits strictly in arrival order, recomputing any probe that an
//! earlier commit invalidated. These tests pin the contract against a
//! sequential twin:
//!
//! * the partitioner layer — `try_on_batch` at worker counts {1, 2, 4,
//!   8} × batch sizes {1, 64, 256, 1024} vs a twin driven through
//!   `on_edge`, compared on final assignments, every `LoomStats`
//!   counter, window occupancy, and the arena/adjacency occupancy
//!   structs;
//! * the engine layer — the complete periodic snapshot sequence
//!   (every field, floats by bit pattern) plus the final drained
//!   snapshot and assignment;
//! * the failure path — an injected worker panic surfaces as a clean
//!   `EngineError` naming the batch and the stream-global edge, after
//!   every edge *before* it has committed, instead of hanging.
//!
//! Streams are the same adversarial shape as the batch-equivalence
//! suite: hub-heavy shuffled motif soups with a small window and a
//! biting adjacency horizon, so commits invalidate in-flight probes
//! constantly (the interesting case — a stream of independent edges
//! would validate every probe and prove nothing).

mod common;

use common::*;
use loom_core::engine::{EngineConfig, OnlineEngine};
use loom_core::graph::{EdgeId, PatternGraph, StreamEdge, VertexId, Workload};
use loom_core::partition::{HashPartitioner, StreamPartitioner};
use proptest::prelude::*;

/// The acceptance cross: worker counts {1, 2, 4, 8} × batch sizes
/// {1, 64, 256, 1024} on a stream long enough that arena and adjacency
/// compaction fire mid-batch, every cell bit-identical to the
/// sequential twin.
#[test]
fn worker_count_and_batch_size_cross_matches_sequential_twin() {
    let (edges, workload) = hub_stream(2_400, 0x517e);
    let (k, window, horizon) = (4, 16, 96);
    let seq = run_sequential(loom(k, window, horizon, &workload), &edges);
    // The stream must actually exercise reclaim under parallel ingest,
    // or the generation-stamp half of probe validation goes untested.
    assert!(
        seq.arena().expect("Loom has an arena").generation >= 1,
        "stream too short: arena never compacted"
    );
    for threads in [1usize, 2, 4, 8] {
        for batch in [1usize, 64, 256, 1024] {
            let par = run_chunked(
                loom(k, window, horizon, &workload),
                &edges,
                threads,
                &[batch],
            );
            assert_partitioners_identical(
                &seq,
                &par,
                &format!("threads {threads}, batch {batch}"),
                &edges,
            );
        }
    }
}

/// The degenerate universe of one vertex with self-loops only: Loom
/// at any worker count and batch size equals its sequential twin, and
/// Hash through the batch entry places exactly that one vertex.
#[test]
fn single_vertex_universe_survives_any_worker_count() {
    let edges: Vec<StreamEdge> = (0..40u32)
        .map(|id| StreamEdge {
            id: EdgeId(id),
            src: VertexId(0),
            dst: VertexId(0),
            src_label: C,
            dst_label: C,
        })
        .collect();
    let workload = Workload::new(vec![(PatternGraph::path("q", vec![A, B, C]), 1.0)]);
    let seq = run_sequential(loom(2, 4, 16, &workload), &edges);
    assert!(
        seq.state().partition_of(VertexId(0)).is_some(),
        "the lone vertex must be assigned"
    );
    for threads in [1usize, 2, 4, 8] {
        for batch in [1usize, 8, 64] {
            let ctx = format!("single vertex, threads {threads}, batch {batch}");
            let par = run_chunked(loom(2, 4, 16, &workload), &edges, threads, &[batch]);
            assert_partitioners_identical(&seq, &par, &ctx, &edges);
            let h = run_chunked(HashPartitioner::new(4, 1), &edges, threads, &[batch]);
            assert_eq!(h.state().assigned_count(), 1, "{ctx}: one vertex");
        }
    }
}

/// Hash keeps no parallel path: through the batch entry at any worker
/// count it is bit-identical to sequential Hash ingest (first-seen
/// endpoint assignment stays in arrival order).
#[test]
fn hash_sharded_ingest_matches_sequential_twin() {
    let (edges, _) = hub_stream(400, 0xba5e);
    let seq = run_sequential(HashPartitioner::new(8, 3), &edges);
    for threads in [2usize, 4, 8] {
        for batch in [3usize, 256, 1024] {
            let par = run_chunked(HashPartitioner::new(8, 3), &edges, threads, &[batch]);
            let ctx = format!("threads {threads}, batch {batch}");
            assert_same_placements(&seq, &par, &ctx, &edges);
        }
    }
}

/// Engine layer: the complete periodic snapshot sequence and the final
/// assignment are identical across worker counts, with the cadence
/// deliberately splitting batches mid-flight.
#[test]
fn engine_snapshots_identical_across_worker_counts() {
    let (edges, workload) = hub_stream(200, 0xcade);
    let run = |threads: usize| {
        let mut p = Box::new(loom(3, 10, 48, &workload));
        p.set_threads(threads);
        let config = EngineConfig {
            snapshot_every: 97,
            track_cuts: true,
            batch_size: 256,
        };
        engine_run(p, config, &edges)
    };
    let (seq_snaps, seq_fin, seq_parts) = run(1);
    assert!(seq_snaps.len() > 3, "cadence must fire mid-stream");
    for threads in [2usize, 4] {
        let (snaps, fin, parts) = run(threads);
        assert_snaps_eq(&snaps, &seq_snaps, &format!("threads {threads}"));
        assert_snap_eq(&fin, &seq_fin, &format!("threads {threads}, final"));
        assert_eq!(parts, seq_parts, "threads {threads}: final assignment");
    }
}

/// An injected worker panic propagates as a clean `EngineError` naming
/// the batch and the stream-global edge — the pool never hangs, and
/// every edge before the failure has committed.
#[test]
fn worker_panic_surfaces_batch_and_edge_not_a_hang() {
    let (edges, workload) = hub_stream(60, 0xdead);
    let mut p = loom(3, 8, 40, &workload);
    p.set_threads(4);
    // hub_stream ids enumerate the shuffled stream, so EdgeId(137) is
    // the edge at stream position 137.
    p.inject_probe_panic_at(EdgeId(137));
    let boxed: Box<dyn StreamPartitioner> = Box::new(p);
    let mut engine = OnlineEngine::new(
        boxed,
        EngineConfig {
            snapshot_every: 0,
            track_cuts: false,
            batch_size: 50,
        },
    );
    let err = engine
        .run(&mut VecSource::new(&edges), None, |_| {})
        .expect_err("injected panic must propagate");
    // Edge 137 sits in the third 50-edge batch, at offset 37.
    assert_eq!(err.batch, 3, "failing batch ordinal");
    assert_eq!(err.edge_index, 137, "stream-global edge index");
    assert!(
        err.message.contains("injected"),
        "panic message preserved: {}",
        err.message
    );
    assert!(
        err.to_string().contains("batch 3") && err.to_string().contains("edge 137"),
        "display names batch and edge: {err}"
    );
    // The engine stopped at the failing batch — edges of earlier
    // batches were ingested, later ones never pulled.
    assert_eq!(engine.edges_ingested(), 100, "two clean batches committed");
}

/// The same injection on a single-threaded run is inert: the hook only
/// arms the parallel probe path, so threads=1 ingest cannot fail.
#[test]
fn panic_injection_is_inert_when_sequential() {
    let (edges, workload) = hub_stream(60, 0xdead);
    let mut p = loom(3, 8, 40, &workload);
    p.inject_probe_panic_at(EdgeId(137));
    for chunk in edges.chunks(50) {
        p.try_on_batch(chunk)
            .expect("sequential ingest cannot fail");
    }
    p.finish();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomised twin: worker counts {2, 4, 8} × batch sizes {2, 64,
    /// 1024} over random hub streams, windows and horizons — the same
    /// adversarial distribution as the batch-equivalence suite.
    #[test]
    fn parallel_ingest_matches_sequential_twin(
        k in 2usize..5,
        window in 2usize..16,
        n_chains in 4usize..28,
        seed in any::<u64>(),
    ) {
        let (edges, workload) = hub_stream(n_chains, seed);
        let horizon = 1 + (seed % 32);
        let seq = run_sequential(loom(k, window, horizon, &workload), &edges);
        for threads in [2usize, 4, 8] {
            for batch in [2usize, 64, 1024] {
                let par = run_chunked(loom(k, window, horizon, &workload), &edges, threads, &[batch]);
                assert_partitioners_identical(
                    &seq,
                    &par,
                    &format!("threads {threads}, batch {batch}"),
                    &edges,
                );
            }
        }
    }
}
