//! Shard-equivalence oracle: the shard-owned state layout is
//! **bit-identical** to the flat layout, for any (shard count, worker
//! count, batch size) combination (DESIGN.md §14).
//!
//! Sharding re-keys every per-vertex store — assignment columns,
//! counter rows, adjacency rows — into `vertex_id mod N` shard-owned
//! columns. Shard-local commit effects (Hash's first-sight placements)
//! may then run on the owning worker; order-sensitive effects (Loom's
//! credits, auctions, expiries) still drain through the sequential
//! arrival-order merge. Either way the observable state must be
//! indistinguishable from the unsharded sequential twin: assignments,
//! every `LoomStats` counter, arena/adjacency occupancy, and the
//! engine's complete snapshot sequence.
//!
//! Degenerate layouts get their own regressions: more shards than
//! vertices, and a single-vertex universe (self-loops only), where
//! every shard but one owns nothing.

mod common;

use common::*;
use loom_core::engine::EngineConfig;
use loom_core::graph::{EdgeId, PatternGraph, StreamEdge, VertexId, Workload};
use loom_core::partition::{HashPartitioner, StreamPartitioner};
use proptest::prelude::*;

/// The acceptance cross for Loom: shard counts {1, 2, 4, 5} (5 takes
/// the non-power-of-two div/mod path) × threads {1, 4} × batch sizes
/// {1, 64, 256}, every cell bit-identical to the unsharded sequential
/// twin, on a stream long enough that arena compaction and adjacency
/// aging fire mid-run.
#[test]
fn loom_shard_cross_matches_unsharded_sequential_twin() {
    let (edges, workload) = hub_stream(2_400, 0x5ead);
    let (k, window, horizon) = (4, 16, 96);
    let seq = run_sequential(loom(k, window, horizon, &workload), &edges);
    assert!(
        seq.arena().expect("Loom has an arena").generation >= 1,
        "stream too short: arena never compacted"
    );
    for shards in [1usize, 2, 4, 5] {
        for threads in [1usize, 4] {
            for batch in [1usize, 64, 256] {
                let p = loom(k, window, horizon, &workload);
                let par = run_chunked(p, &edges, shards, threads, &[batch]);
                assert_partitioners_identical(
                    &seq,
                    &par,
                    &format!("shards {shards}, threads {threads}, batch {batch}"),
                    &edges,
                );
            }
        }
    }
}

/// Hash's commit runs truly shard-parallel (each shard task claims its
/// owned endpoints off the worker pool); it must still equal the
/// unsharded sequential walk bit for bit.
#[test]
fn hash_shard_parallel_commit_matches_sequential_twin() {
    let (edges, _) = hub_stream(400, 0x5a5d);
    let seq = run_sequential(HashPartitioner::new(8, 3), &edges);
    for shards in [1usize, 2, 4, 5, 8] {
        for threads in [1usize, 2, 4] {
            for batch in [3usize, 256, 1024] {
                let par = run_chunked(
                    HashPartitioner::new(8, 3),
                    &edges,
                    shards,
                    threads,
                    &[batch],
                );
                let ctx = format!("shards {shards}, threads {threads}, batch {batch}");
                assert_eq!(
                    seq.state().assigned_count(),
                    par.state().assigned_count(),
                    "{ctx}: assigned_count"
                );
                assert_eq!(seq.state().sizes(), par.state().sizes(), "{ctx}: sizes");
                assert_same_placements(&seq, &par, &ctx, &edges);
            }
        }
    }
}

/// Engine layer: the complete periodic snapshot sequence and the final
/// assignment are identical across shard counts, with the snapshot
/// cadence deliberately splitting batches mid-flight.
#[test]
fn engine_snapshots_identical_across_shard_counts() {
    let (edges, workload) = hub_stream(200, 0xcade);
    let run = |shards: usize, threads: usize| {
        let mut p = Box::new(loom(3, 10, 48, &workload));
        p.set_shards(shards);
        p.set_threads(threads);
        let config = EngineConfig {
            snapshot_every: 97,
            track_cuts: true,
            batch_size: 256,
        };
        engine_run(p, config, &edges)
    };
    let (seq_snaps, seq_fin, seq_parts) = run(1, 1);
    assert!(seq_snaps.len() > 3, "cadence must fire mid-stream");
    for (shards, threads) in [(2usize, 1usize), (4, 1), (4, 4), (5, 4)] {
        let ctx = format!("shards {shards}, threads {threads}");
        let (snaps, fin, parts) = run(shards, threads);
        assert_snaps_eq(&snaps, &seq_snaps, &ctx);
        assert_snap_eq(&fin, &seq_fin, &format!("{ctx}, final"));
        assert_eq!(parts, seq_parts, "{ctx}: final assignment");
    }
}

/// Degenerate layout: far more shards than vertices. Most shard
/// columns stay empty forever; the populated ones must behave exactly
/// like the flat layout.
#[test]
fn more_shards_than_vertices_is_bit_identical() {
    let (edges, workload) = hub_stream(3, 0xface); // ~10 vertices
    let max_v = edges.iter().flat_map(|e| [e.src.0, e.dst.0]).max().unwrap();
    assert!(
        max_v < 64,
        "universe must stay smaller than the shard count"
    );
    let seq = run_sequential(loom(3, 4, 24, &workload), &edges);
    for threads in [1usize, 4] {
        let par = run_chunked(loom(3, 4, 24, &workload), &edges, 64, threads, &[2]);
        assert_partitioners_identical(&seq, &par, &format!("64 shards, threads {threads}"), &edges);
    }
    // Hash under the same degenerate layout, with its parallel commit.
    let hseq = run_sequential(HashPartitioner::new(4, 9), &edges);
    let hpar = run_chunked(HashPartitioner::new(4, 9), &edges, 64, 4, &[5]);
    assert_same_placements(&hseq, &hpar, "hash 64 shards", &edges);
}

/// Degenerate universe: one vertex, self-loops only — every shard but
/// the owner of vertex 0 owns nothing, at any shard count.
#[test]
fn single_vertex_universe_survives_any_shard_count() {
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
    let p0 = seq.state().partition_of(VertexId(0));
    assert!(p0.is_some(), "the lone vertex must be assigned");
    for shards in [1usize, 3, 7, 16] {
        for threads in [1usize, 4] {
            let par = run_chunked(loom(2, 4, 16, &workload), &edges, shards, threads, &[8]);
            assert_partitioners_identical(
                &seq,
                &par,
                &format!("single vertex, shards {shards}, threads {threads}"),
                &edges,
            );
            let h = run_chunked(HashPartitioner::new(4, 1), &edges, shards, threads, &[8]);
            assert_eq!(h.state().assigned_count(), 1, "shards {shards}: one vertex");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomised twin: shard counts {2, 4, 5} × threads {1, 4} over
    /// random hub streams, windows and horizons.
    #[test]
    fn sharded_ingest_matches_unsharded_twin(
        k in 2usize..5,
        window in 2usize..16,
        n_chains in 4usize..24,
        seed in any::<u64>(),
    ) {
        let (edges, workload) = hub_stream(n_chains, seed);
        let horizon = 1 + (seed % 32);
        let seq = run_sequential(loom(k, window, horizon, &workload), &edges);
        for shards in [2usize, 4, 5] {
            for threads in [1usize, 4] {
                let p = loom(k, window, horizon, &workload);
                let par = run_chunked(p, &edges, shards, threads, &[64]);
                assert_partitioners_identical(
                    &seq,
                    &par,
                    &format!("shards {shards}, threads {threads}"),
                    &edges,
                );
            }
        }
    }
}
