//! Engine-side epoch publication for `loom serve` (DESIGN.md §16).
//!
//! The engine owns a [`ServeState`]: a ring of the most recent stream
//! edges, the [`ViewGraph`] over the last *serve horizon* of them, a
//! [`FrozenAssignment`], and the `EpochCell` it publishes
//! [`ReadView`]s into. The graph and the assignment are persistent
//! (pages behind `Arc`, copied on write only while a published view
//! shares them), so a publication is a clone of two page tables after
//! bringing them up to date with what committed since the last one:
//! its cost follows what changed, not the vertex count or the horizon.
//! Between publications an edge costs a ring slot and two queue
//! entries.
//!
//! The newest view is always held by the cell, so on its own
//! copy-on-write would copy every page an epoch touches — on a stream
//! that scatters its endpoints, most of the graph, every epoch. The
//! graph is therefore kept twice and the copies take turns: each
//! publication replays the ring onto the copy whose view the cell let
//! go of one publication ago, publishes it, and leaves it alone while
//! the other takes the next turn. The replay writes in place; a page
//! is copied only while a *reader* still holds a view older than the
//! newest.
//!
//! Observation is engine-level — the state is fed from the same chunks
//! the partitioner commits, *after* they commit — so it works
//! identically for every partitioner and, crucially, cannot perturb
//! ingest: nothing in here touches the partitioner, the cut counters,
//! the pending deque or the RNGs. Serving off means none of this code
//! runs, which is the whole serving-off byte-identity argument.
//!
//! Publication cadence: a view is published whenever at least
//! [`ServeOptions::publish_every`] edges have been ingested since the
//! last publication, checked only at batch-boundary commit points (the
//! same boundaries snapshots and checkpoints use), plus once more at
//! `finish`. It happens on the ingest thread; readers pay only an
//! `Arc` clone.

use loom_graph::{StreamEdge, VertexId};
use loom_matcher::ArenaOccupancy;
use loom_partition::{AdjacencyOccupancy, PartitionState};
use loom_query::{FrozenAssignment, ReadView, ViewGraph};
use loom_runtime::{EpochCell, ServeMetrics};
use std::collections::VecDeque;
use std::sync::Arc;

/// Serving knobs for [`crate::OnlineEngine::enable_serving`].
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Retained adjacency: how many of the most recent edges a
    /// published view's graph holds. Bounds view memory.
    pub horizon_edges: usize,
    /// Publish a fresh view once at least this many edges have been
    /// ingested since the last publication (checked at batch
    /// boundaries, so the actual gap rounds up to the chunking).
    pub publish_every: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            horizon_edges: 65_536,
            publish_every: 1_024,
        }
    }
}

/// What `enable_serving` hands the caller: the cell readers load views
/// from, and the shared metrics reader threads record into (and
/// snapshots report from).
#[derive(Clone, Debug)]
pub struct ServeHandle {
    /// The publication cell — `view.load()` is the reader entry point.
    pub view: Arc<EpochCell<ReadView>>,
    /// Served/refused counters + latency histogram.
    pub metrics: Arc<ServeMetrics>,
}

/// Pending endpoints are settled early once this many have queued, so
/// the queue stays small however rarely views are published.
const SETTLE_AT_LEAST: usize = 4_096;

/// One of the two copies of the horizon graph: `graph` holds the last
/// horizon of the first `upto` edges observed.
#[derive(Debug, Default)]
struct Turn {
    graph: ViewGraph,
    upto: u64,
}

/// The engine's serving side-state (one per engine, present only when
/// serving was enabled).
#[derive(Debug)]
pub(crate) struct ServeState {
    opts: ServeOptions,
    /// The most recent observed edges, oldest first — up to two
    /// horizons of them: what the staler graph copy has yet to take in,
    /// and what that pushes out of its horizon.
    ring: VecDeque<StreamEdge>,
    /// Edges observed so far (the ring's newest is number `seen - 1`).
    seen: u64,
    /// The graph copy the next publication brings up to date and
    /// publishes.
    next: Turn,
    /// The copy the newest view shares its pages with.
    resting: Turn,
    /// Widest label alphabet declared or observed over the whole
    /// stream (not just the ring), so label validation outlives
    /// horizon turnover.
    labels_seen: usize,
    /// The assignment column: every placement of an observed endpoint
    /// that `settle` has seen.
    assignment: FrozenAssignment,
    /// Endpoints of observed edges not yet known to be placed.
    /// Assignment is write-once and every assigned vertex is an
    /// endpoint of an observed edge, so probing these is all it takes
    /// to keep `assignment` exact — no copy of the whole column.
    pending: Vec<VertexId>,
    /// `pending` length that triggers the next early settle: twice
    /// what the last one left behind, so probing stays amortised O(1)
    /// per endpoint even when many stay unplaced.
    settle_at: usize,
    pub(crate) cell: Arc<EpochCell<ReadView>>,
    pub(crate) metrics: Arc<ServeMetrics>,
    /// Edge count at the last publication (0 = none yet).
    last_published: u64,
    /// Views published so far (becomes the next view's epoch).
    epochs: u64,
}

impl ServeState {
    /// Serving state for an engine whose partitioner is at `state`.
    /// Enabled `mid_stream` (edges already ingested), this takes the
    /// one full pass over the vertex range serving ever makes: placed
    /// vertices are copied, and unplaced ids are queued — one of them
    /// may sit in the partitioner's window and never be an endpoint
    /// again.
    pub(crate) fn new(opts: ServeOptions, state: &PartitionState, mid_stream: bool) -> ServeState {
        let mut assignment = FrozenAssignment::default();
        let mut pending = Vec::new();
        let placed_range = if mid_stream { state.num_vertices() } else { 0 };
        for v in (0..placed_range as u32).map(VertexId) {
            match state.partition_of(v) {
                Some(p) => assignment.assign(v, p),
                None => pending.push(v),
            }
        }
        ServeState {
            opts,
            ring: VecDeque::new(),
            seen: 0,
            next: Turn::default(),
            resting: Turn::default(),
            labels_seen: 1,
            assignment,
            settle_at: SETTLE_AT_LEAST.max(2 * pending.len()),
            pending,
            cell: Arc::new(EpochCell::new()),
            metrics: Arc::new(ServeMetrics::new()),
            last_published: 0,
            epochs: 0,
        }
    }

    pub(crate) fn handle(&self) -> ServeHandle {
        ServeHandle {
            view: Arc::clone(&self.cell),
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// The stream's label alphabet has at least `num_labels` labels.
    pub(crate) fn declare_labels(&mut self, num_labels: usize) {
        self.labels_seen = self.labels_seen.max(num_labels);
    }

    /// Record a committed chunk: into the ring, and its endpoints into
    /// the queue for the assignment column.
    pub(crate) fn observe(&mut self, chunk: &[StreamEdge], state: &PartitionState) {
        let keep = 2 * self.opts.horizon_edges;
        for e in chunk {
            self.declare_labels(e.src_label.index().max(e.dst_label.index()) + 1);
            self.pending.extend([e.src, e.dst]);
            if self.ring.len() == keep {
                self.ring.pop_front();
            }
            if keep > 0 {
                self.ring.push_back(*e);
            }
        }
        self.seen += chunk.len() as u64;
        if self.pending.len() >= self.settle_at {
            self.settle(state);
        }
    }

    /// Move every pending endpoint the partitioner has placed by now
    /// into the assignment column.
    fn settle(&mut self, state: &PartitionState) {
        let assignment = &mut self.assignment;
        self.pending.retain(|&v| match state.partition_of(v) {
            Some(p) => {
                assignment.assign(v, p);
                false
            }
            None => true,
        });
        self.settle_at = SETTLE_AT_LEAST.max(2 * self.pending.len());
    }

    /// Slide `next`'s horizon over the edges observed since its last
    /// turn: each arriving edge is appended to its endpoints' rows and
    /// pushes the edge one horizon older off the head of its own.
    fn catch_up(&mut self) {
        let horizon = self.opts.horizon_edges as u64;
        let Turn { graph, upto } = &mut self.next;
        if self.seen - *upto >= horizon {
            // Everything the copy retains has left the horizon, and so
            // will everything it missed but the last horizon: start
            // over from there.
            *graph = ViewGraph::default();
            *upto = self.seen - horizon;
        }
        let oldest = self.seen - self.ring.len() as u64;
        let ring = &self.ring;
        let edge = |number: u64| &ring[(number - oldest) as usize];
        for number in *upto..self.seen {
            if graph.num_edges() as u64 == horizon {
                graph.expire(edge(number - horizon));
            }
            graph.insert(edge(number));
        }
        *upto = self.seen;
    }

    /// Is a publication due at the `edges` boundary?
    pub(crate) fn due(&self, edges: u64) -> bool {
        edges.saturating_sub(self.last_published) >= self.opts.publish_every.max(1)
    }

    /// Publish the engine's current state as the next view: what
    /// committed since the last turn is applied, the two page tables
    /// are cloned, everything else is a handful of scalars.
    pub(crate) fn publish(
        &mut self,
        edges: u64,
        cut_edges: u64,
        resolved_edges: u64,
        state: &PartitionState,
        arena: Option<ArenaOccupancy>,
        adjacency: Option<AdjacencyOccupancy>,
    ) {
        self.settle(state);
        self.catch_up();
        self.epochs += 1;
        self.last_published = edges;
        let assigned = state.assigned_count();
        let mean = assigned as f64 / state.k() as f64;
        let imbalance = if assigned == 0 {
            0.0
        } else {
            state.max_size() as f64 / mean - 1.0
        };
        let mut graph = self.next.graph.clone();
        graph.widen_labels(self.labels_seen);
        self.cell.publish(ReadView {
            epoch: self.epochs,
            edges,
            vertices: assigned,
            k: state.k(),
            sizes: state.sizes().to_vec(),
            capacity: state.capacity(),
            imbalance,
            cut_edges,
            resolved_edges,
            assignment: self.assignment.clone(),
            graph,
            horizon: self.opts.horizon_edges,
            arena,
            adjacency,
        });
        // The cell has just let go of the view that shared `resting`'s
        // pages: it takes the next turn, and the copy just published
        // rests until the one after.
        std::mem::swap(&mut self.next, &mut self.resting);
    }
}
