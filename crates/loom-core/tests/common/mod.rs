//! The twin harness: the one fixture set and the one comparator every
//! bit-identity suite shares (DESIGN.md §6). The loom-core suites take
//! it with `mod common;`, `tests/online_determinism.rs` by `#[path]`,
//! so it is written only against `loom_core::` paths.
//!
//! "Bit-identical" is defined here once: [`assert_snap_eq`] for engine
//! snapshots, [`assert_partitioners_identical`] for two Loom
//! partitioners. A suite that needs a laxer notion does not get one.

#![allow(dead_code)]

use loom_core::engine::{EngineConfig, OnlineEngine, Snapshot};
use loom_core::graph::{
    EdgeId, EdgeSource, Label, PartitionId, PatternGraph, StreamEdge, VertexId, Workload,
};
use loom_core::partition::{
    AdjacencyHorizon, CapacityModel, LoomConfig, LoomPartitioner, StreamPartitioner,
};
use rand::{Rng, SeedableRng};

pub const A: Label = Label(0);
pub const B: Label = Label(1);
pub const C: Label = Label(2);

/// A hub-heavy labelled motif stream and its path workload: a–b–c
/// chains (path-motif matches), hub→b edges that pile matches onto one
/// high-degree vertex, and non-motif c–c edges (bypass traffic),
/// shuffled into a seed-determined arrival order. With a small window
/// and a biting adjacency horizon, evictions and expiry debits (and, on
/// long streams, arena compactions) straddle every batch boundary.
pub fn hub_stream(n_chains: usize, seed: u64) -> (Vec<StreamEdge>, Workload) {
    let hub = 0u32; // label A, endpoint of many motif edges
    let mut edges = Vec::new();
    for i in 0..n_chains as u32 {
        let (a, b, c) = (3 * i + 1, 3 * i + 2, 3 * i + 3);
        edges.push((a, A, b, B));
        edges.push((b, B, c, C));
        // Hub edge: matches the (A, B) single-edge motif and joins
        // with this chain's (b, c) edge, so the hub accumulates
        // matches and adjacency far faster than any chain vertex.
        edges.push((hub, A, b, B));
        if i > 0 {
            // Cross-chain c–c edge: matches nothing, bypasses the window.
            edges.push((c, C, c - 3, C));
        }
    }
    // Seeded Fisher–Yates (the rand shim has no shuffle helper).
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

/// The Loom fixture under the adversarial ingest setting: adaptive
/// capacity (so `on_edge_expired` debits actually fire), a biting
/// adjacency horizon, seed 7, the evaluation defaults otherwise, over
/// the three-label alphabet of [`hub_stream`].
pub fn loom(k: usize, window: usize, horizon: u64, workload: &Workload) -> LoomPartitioner {
    let config = LoomConfig {
        k,
        window_size: window,
        seed: 7,
        capacity: CapacityModel::Adaptive,
        adjacency_horizon: AdjacencyHorizon::Edges(horizon),
        ..LoomConfig::evaluation_defaults(k)
    };
    LoomPartitioner::new(&config, workload, 3)
}

/// The sequential reference: `p` driven edge at a time, then finished.
pub fn run_sequential<P: StreamPartitioner>(mut p: P, edges: &[StreamEdge]) -> P {
    for e in edges {
        p.on_edge(e);
    }
    p.finish();
    p
}

/// The chunked twin: `p` fed through `on_batch` in chunks of `sizes`
/// (cycled), then finished. `sizes = [1]` degenerates to the
/// sequential shape but still goes through the batch entry.
pub fn run_chunked<P: StreamPartitioner>(mut p: P, edges: &[StreamEdge], sizes: &[usize]) -> P {
    let mut rest = edges;
    for &size in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(size.min(rest.len()));
        p.on_batch(chunk);
        rest = tail;
    }
    p.finish();
    p
}

/// Replay source over a materialised edge vector, deliberately using
/// the trait's *default* `next_batch_into` so the engine's batch path
/// is fed through the same loop shape any online source would use.
pub struct VecSource {
    edges: Vec<StreamEdge>,
    pos: usize,
}

impl VecSource {
    pub fn new(edges: &[StreamEdge]) -> Self {
        VecSource {
            edges: edges.to_vec(),
            pos: 0,
        }
    }
}

impl EdgeSource for VecSource {
    fn next_edge(&mut self) -> Option<StreamEdge> {
        let e = self.edges.get(self.pos).copied();
        self.pos += e.is_some() as usize;
        e
    }
}

/// One engine run over `edges`: the periodic snapshots, the final
/// drained snapshot, and the final partition of every vertex id up to
/// the largest the stream names.
pub fn engine_run(
    p: Box<dyn StreamPartitioner>,
    config: EngineConfig,
    edges: &[StreamEdge],
) -> (Vec<Snapshot>, Snapshot, Vec<Option<PartitionId>>) {
    let mut engine = OnlineEngine::new(p, config);
    let mut snaps = Vec::new();
    engine
        .run(&mut VecSource::new(edges), None, |s| snaps.push(s.clone()))
        .unwrap();
    let fin = engine.finish();
    let max_v = edges.iter().flat_map(|e| [e.src.0, e.dst.0]).max();
    let assignment = engine.into_assignment();
    let parts = (0..=max_v.unwrap_or(0))
        .map(|v| assignment.partition_of(VertexId(v)))
        .collect();
    (snaps, fin, parts)
}

/// Every-field snapshot equality, floats by bit pattern — "bit-
/// identical" means exactly that. Not compared: `recovery` (WAL
/// bookkeeping) and `serving` (query counters) — observation, not
/// state, and each is present on one side of its twin only.
pub fn assert_snap_eq(a: &Snapshot, b: &Snapshot, ctx: &str) {
    assert_eq!(a.seq, b.seq, "{ctx}: seq");
    assert_eq!(a.edges, b.edges, "{ctx}: edges");
    assert_eq!(a.vertices, b.vertices, "{ctx}: vertices");
    assert_eq!(a.sizes, b.sizes, "{ctx}: sizes");
    for (field, x, y) in [
        ("capacity", a.capacity, b.capacity),
        ("imbalance", a.imbalance, b.imbalance),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: {field} {x:?} vs {y:?}");
    }
    assert_eq!(a.cut_edges, b.cut_edges, "{ctx}: cut_edges");
    assert_eq!(a.resolved_edges, b.resolved_edges, "{ctx}: resolved_edges");
    assert_eq!(a.arena, b.arena, "{ctx}: arena occupancy");
    assert_eq!(a.adjacency, b.adjacency, "{ctx}: adjacency occupancy");
}

/// Two snapshot sequences of the same length, pairwise
/// [`assert_snap_eq`].
pub fn assert_snaps_eq(a: &[Snapshot], b: &[Snapshot], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: snapshot count");
    for (x, y) in a.iter().zip(b) {
        assert_snap_eq(x, y, &format!("{ctx}, snapshot {}", x.seq));
    }
}

/// Two Loom partitioners in the same state: all five `LoomStats`
/// counters, window occupancy, arena and adjacency occupancy, and the
/// placement of every endpoint in `edges`.
pub fn assert_partitioners_identical(
    seq: &LoomPartitioner,
    twin: &LoomPartitioner,
    ctx: &str,
    edges: &[StreamEdge],
) {
    let (a, b) = (seq.stats(), twin.stats());
    assert_eq!(a.bypassed, b.bypassed, "{ctx}: bypassed");
    assert_eq!(a.buffered, b.buffered, "{ctx}: buffered");
    assert_eq!(a.auctions, b.auctions, "{ctx}: auctions");
    assert_eq!(
        a.matches_assigned, b.matches_assigned,
        "{ctx}: matches_assigned"
    );
    assert_eq!(
        a.fallback_auctions, b.fallback_auctions,
        "{ctx}: fallback_auctions"
    );
    assert_eq!(seq.window_len(), twin.window_len(), "{ctx}: window_len");
    assert_eq!(seq.arena(), twin.arena(), "{ctx}: arena occupancy");
    assert_eq!(
        seq.adjacency_occupancy(),
        twin.adjacency_occupancy(),
        "{ctx}: adjacency occupancy"
    );
    assert_same_placements(seq, twin, ctx, edges);
}

/// Every endpoint of `edges` sits in the same partition under both.
pub fn assert_same_placements<P: StreamPartitioner>(a: &P, b: &P, ctx: &str, edges: &[StreamEdge]) {
    for v in edges.iter().flat_map(|e| [e.src, e.dst]) {
        assert_eq!(
            a.state().partition_of(v),
            b.state().partition_of(v),
            "{ctx}: assignment diverged at {v:?}"
        );
    }
}
