//! Batch-equivalence oracle: batched ingest is **bit-identical** to
//! edge-at-a-time ingest, for every batch partitioning of the same
//! stream (DESIGN.md §12).
//!
//! Two layers are pinned against a sequential twin:
//!
//! * the partitioner layer — `StreamPartitioner::on_batch` vs a twin
//!   driven through `on_edge`, compared on final assignments, every
//!   `LoomStats` counter, window occupancy, and the arena/adjacency
//!   occupancy structs (so eviction auctions, `on_edge_expired`
//!   debits and reclaim generations that fire *inside* a batch are
//!   all observed); Hash rides along on final assignments;
//! * the engine layer — `OnlineEngine::run` pulling batches vs pulling
//!   one edge at a time, compared on the *complete* periodic snapshot
//!   sequence (every field, floats by bit pattern) plus the final
//!   drained snapshot and assignment; the one-edge twin's placements
//!   are in turn pinned to the `on_edge` driver.
//!
//! The streams are hub-heavy shuffled motif soups: a–b–c chains (each
//! a path-motif match), a high-degree hub that keeps re-entering the
//! matcher, and non-motif bypass edges — with a small window and a
//! biting adjacency horizon so evictions and expiry debits straddle
//! batch boundaries constantly.

mod common;

use common::*;
use loom_core::engine::{EngineConfig, OnlineEngine};
use loom_core::graph::{EdgeId, PatternGraph, StreamEdge, VertexId, Workload};
use loom_core::partition::{HashPartitioner, StreamPartitioner};
use proptest::prelude::*;

/// The engine config of every run here: cut tracking on, snapshots
/// every `cadence` edges, pulls of `batch_size` edges.
fn config(cadence: usize, batch_size: usize) -> EngineConfig {
    EngineConfig {
        snapshot_every: cadence,
        track_cuts: true,
        batch_size,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine layer: `run` at batch sizes {2, 64, 1024} reproduces the
    /// one-edge-pull twin's complete snapshot sequence (every field,
    /// floats bit-for-bit), final snapshot and final assignment, with a
    /// cadence chosen to land mid-batch. The twin itself places every
    /// vertex where the `on_edge` driver does.
    #[test]
    fn engine_batch_sizes_match_sequential_twin(
        k in 2usize..5,
        window in 2usize..20,
        n_chains in 4usize..32,
        cadence in 1usize..9,
        seed in any::<u64>(),
    ) {
        let (edges, workload) = hub_stream(n_chains, seed);
        let horizon = 1 + (seed % 48);
        let run = |batch| {
            let p = Box::new(loom(k, window, horizon, &workload));
            engine_run(p, config(cadence, batch), &edges)
        };
        let (seq_snaps, seq_fin, seq_parts) = run(1);
        let on_edge = run_sequential(loom(k, window, horizon, &workload), &edges);
        for (v, part) in seq_parts.iter().enumerate() {
            let v = VertexId(v as u32);
            prop_assert_eq!(*part, on_edge.state().partition_of(v), "on_edge driver: {:?}", v);
        }
        for batch in [2usize, 64, 1024] {
            let (snaps, fin, parts) = run(batch);
            assert_snaps_eq(&snaps, &seq_snaps, &format!("batch {batch}"));
            assert_snap_eq(&fin, &seq_fin, &format!("batch {batch}, final"));
            prop_assert_eq!(&parts, &seq_parts, "batch {}: final assignment", batch);
        }
    }

    /// Partitioner layer: `on_batch` over uniform chunks of {1, 2, 64,
    /// 1024} and over ragged mixed chunks is bit-identical to the
    /// `on_edge` twin — for Loom, assignments, all five `LoomStats`
    /// counters, window occupancy, arena and adjacency occupancy; for
    /// Hash, assignments (first-seen endpoints stay in arrival order).
    #[test]
    fn on_batch_matches_on_edge_twin(
        k in 2usize..5,
        window in 2usize..16,
        n_chains in 4usize..28,
        seed in any::<u64>(),
    ) {
        let (edges, workload) = hub_stream(n_chains, seed);
        let horizon = 1 + (seed % 32);
        let seq = run_sequential(loom(k, window, horizon, &workload), &edges);
        let hash_seq = run_sequential(HashPartitioner::new(k, seed), &edges);
        for sizes in [&[1usize][..], &[2], &[64], &[1024], &[1, 2, 64, 3, 1024, 5]] {
            let bat = run_chunked(loom(k, window, horizon, &workload), &edges, sizes);
            assert_partitioners_identical(&seq, &bat, &format!("chunks {sizes:?}"), &edges);
            let hash = run_chunked(HashPartitioner::new(k, seed), &edges, sizes);
            assert_same_placements(&hash_seq, &hash, &format!("Hash, chunks {sizes:?}"), &edges);
        }
    }
}

/// Reclaim-crossing pin: a stream long enough that the match arena's
/// generational compaction (dead > live, ≥ 4096 dead) and the
/// adjacency store's horizon compaction both fire — repeatedly — in
/// the middle of batches, and the batched run still reproduces the
/// sequential twin to the last occupancy digit. Guards the exact case
/// the batch refactor could most plausibly break: reclaim generations
/// straddling a batch boundary.
#[test]
fn reclaim_generations_straddle_batch_boundaries() {
    let (edges, workload) = hub_stream(2_400, 0x10ad);
    let (k, window, horizon) = (4, 16, 96);
    let seq = run_sequential(loom(k, window, horizon, &workload), &edges);
    // The scenario must actually exercise reclaim, or this test pins
    // nothing: both stores must have compacted at least once.
    let arena = seq.arena().expect("Loom has an arena");
    assert!(
        arena.generation >= 1,
        "stream too short: arena never compacted (generation {})",
        arena.generation
    );
    assert!(
        seq.adjacency_occupancy().generation >= 1,
        "stream too short: adjacency never compacted"
    );

    for sizes in [&[64usize][..], &[256], &[1024], &[1, 1021, 2, 64]] {
        let bat = run_chunked(loom(k, window, horizon, &workload), &edges, sizes);
        assert_partitioners_identical(&seq, &bat, &format!("chunks {sizes:?}"), &edges);
    }
}

/// The degenerate universe of one vertex with self-loops only: Loom
/// at any batch size equals its `on_edge` twin, and Hash through the
/// batch entry places exactly that one vertex.
#[test]
fn single_vertex_universe_survives_any_batch_size() {
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
    for batch in [1usize, 8, 64] {
        let ctx = format!("single vertex, batch {batch}");
        let bat = run_chunked(loom(2, 4, 16, &workload), &edges, &[batch]);
        assert_partitioners_identical(&seq, &bat, &ctx, &edges);
        let h = run_chunked(HashPartitioner::new(4, 1), &edges, &[batch]);
        assert_eq!(h.state().assigned_count(), 1, "{ctx}: one vertex");
    }
}

/// The engine's batched `run` splits batches at the snapshot cadence,
/// so a cadence *smaller* than the batch still fires every snapshot at
/// exactly the right edge count — including when `max_edges` truncates
/// the stream mid-batch.
#[test]
fn snapshots_fire_inside_batches_and_respect_max_edges() {
    let (edges, workload) = hub_stream(64, 9);
    let run = |batch_size: usize| {
        let mut engine =
            OnlineEngine::new(Box::new(loom(3, 8, 40, &workload)), config(10, batch_size));
        let mut snaps = Vec::new();
        engine
            .run(&mut VecSource::new(&edges), Some(105), |s| {
                snaps.push(s.clone())
            })
            .unwrap();
        assert_eq!(engine.edges_ingested(), 105, "batch {batch_size}");
        (snaps, engine.finish())
    };
    let (seq_snaps, seq_fin) = run(1);
    assert_eq!(seq_snaps.len(), 10);
    for (i, s) in seq_snaps.iter().enumerate() {
        assert_eq!(s.edges, 10 * (i as u64 + 1));
    }
    for batch in [2usize, 64, 512] {
        let (snaps, fin) = run(batch);
        assert_snaps_eq(&snaps, &seq_snaps, &format!("batch {batch}"));
        assert_snap_eq(&fin, &seq_fin, &format!("batch {batch}, final"));
    }
}
