//! Engine-side epoch publication for `loom serve` (DESIGN.md §16).
//!
//! Serving is split over two threads. The ingest thread owns a
//! `ServeState`: the edges observed since the last publication, a
//! [`FrozenAssignment`] column, and the publication cadence. A
//! *builder* thread, one per serving engine, owns the ring of the most
//! recent stream edges and the [`ViewGraph`] over the last *serve
//! horizon* of them, and publishes [`ReadView`]s into the `EpochCell`.
//! The graph and the assignment are persistent (pages behind `Arc`,
//! copied on write only while a published view shares them), so a
//! publication is a clone of two page tables after bringing them up to
//! date with what committed since the last one: its cost follows what
//! changed, not the vertex count or the horizon. Between publications
//! an edge costs the ingest thread a buffer slot and two queue entries.
//!
//! At a due boundary the ingest thread settles the assignment column,
//! fills in every field of the view but the graph, and sends that, the
//! new edges and the clone of the column's page table to the builder
//! over a channel `CHANNEL_DEPTH` deep. It does not wait. The builder
//! slides the graph over the new edges, clones its page table into the
//! view and publishes it: every view carries the epoch number and the
//! contents it would have had if the ingest thread had built it, and
//! only the moment it becomes visible moves. Publications land in the
//! order they were sent. After a send returns, at most
//! `CHANNEL_DEPTH + 1` sent views have yet to land — `CHANNEL_DEPTH`
//! queued and one in the builder's hands — so the newest view lags the
//! ingest thread by at most that many publications plus the one it is
//! accumulating; a send past that waits for the builder. A barrier
//! (`ServeState::wait`) waits until every view sent has landed; a
//! forced publication and the one at `finish` take it, so they return
//! with their view in the cell.
//!
//! `settle`, which fills the assignment column, stays on the ingest
//! thread because it reads the partitioner's live `PartitionState`:
//! moving it would mean handing the builder a copy of the state or
//! locking it. It costs the ingest thread a probe per queued endpoint —
//! on the synthetic feed 0.19 s a million edges, against 1.3 s for the
//! graph's upkeep.
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
//! runs and no builder thread exists, which is the whole serving-off
//! byte-identity argument.
//!
//! Publication cadence: a view is published whenever at least
//! [`ServeOptions::publish_every`] edges have been ingested since the
//! last publication, checked only at batch-boundary commit points (the
//! same boundaries snapshots and checkpoints use), plus once more at
//! `finish`. Readers pay only an `Arc` clone.
//!
//! A builder that panics is not waited on: the channel and the
//! acknowledgements both disconnect when its thread unwinds, and every
//! later send or barrier returns the panic's message.

use loom_graph::{StreamEdge, VertexId};
use loom_matcher::ArenaOccupancy;
use loom_partition::{AdjacencyOccupancy, PartitionState};
use loom_query::{FrozenAssignment, ReadView, ViewGraph};
use loom_runtime::{EpochCell, ServeMetrics};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

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

/// Publications the ingest thread may queue for the builder beyond the
/// one it is building; a due boundary past that waits for it.
const CHANNEL_DEPTH: usize = 2;

/// One publication on its way to the builder.
struct Publication {
    /// Every field final except `graph`, which the builder fills in.
    view: ReadView,
    /// Widest label alphabet declared or observed so far.
    labels: usize,
    /// Edges observed since the previous publication — the newest
    /// horizon of them, when there were more.
    edges: VecDeque<StreamEdge>,
    /// Edges observed in all, `edges` included.
    seen: u64,
}

/// One of the two copies of the horizon graph: `graph` holds the last
/// horizon of the first `upto` edges observed.
#[derive(Debug, Default)]
struct Turn {
    graph: ViewGraph,
    upto: u64,
}

/// The builder thread's state: the two graph copies and the ring they
/// are brought up to date from.
struct HorizonGraphs {
    horizon: usize,
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
    cell: Arc<EpochCell<ReadView>>,
}

impl HorizonGraphs {
    /// Publish every publication sent, acknowledging each once it is in
    /// the cell, until the ingest side hangs up.
    fn run(mut self, jobs: Receiver<Publication>, acks: Sender<()>) {
        for job in jobs {
            self.publish(job);
            // The ingest side drops its receiver only after hanging up.
            let _ = acks.send(());
        }
    }

    /// Append the edges observed since the last publication to the
    /// ring. Edges the ingest side left out (more than a horizon came
    /// in between) leave every copy a horizon behind, so what the ring
    /// held before them is of no further use.
    fn take_in(&mut self, edges: VecDeque<StreamEdge>, seen: u64) {
        if seen - self.seen > edges.len() as u64 {
            self.ring.clear();
        }
        let keep = 2 * self.horizon;
        for e in edges {
            if self.ring.len() == keep {
                self.ring.pop_front();
            }
            self.ring.push_back(e);
        }
        self.seen = seen;
    }

    /// Slide `next`'s horizon over the edges observed since its last
    /// turn: each arriving edge is appended to its endpoints' rows and
    /// pushes the edge one horizon older off the head of its own.
    fn catch_up(&mut self) {
        let horizon = self.horizon as u64;
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

    /// Publish `job`'s view.
    fn publish(&mut self, job: Publication) {
        let Publication {
            mut view,
            labels,
            edges,
            seen,
        } = job;
        self.take_in(edges, seen);
        self.catch_up();
        view.graph = self.next.graph.clone();
        view.graph.widen_labels(labels);
        self.cell.publish(view);
        // The cell has just let go of the view that shared `resting`'s
        // pages: it takes the next turn, and the copy just published
        // rests until the one after.
        std::mem::swap(&mut self.next, &mut self.resting);
    }
}

/// The ingest thread's end of the builder thread.
struct Builder {
    /// `None` only while dropping: hanging up ends the builder's loop.
    jobs: Option<SyncSender<Publication>>,
    acks: Receiver<()>,
    thread: Option<JoinHandle<()>>,
    /// Publications sent and not yet acknowledged.
    in_flight: usize,
    /// The builder's panic message, once it has died.
    died: Option<String>,
}

impl Builder {
    fn spawn(body: impl FnOnce(Receiver<Publication>, Sender<()>) + Send + 'static) -> Builder {
        let (jobs, job_rx) = sync_channel(CHANNEL_DEPTH);
        let (ack_tx, acks) = channel();
        let thread = std::thread::Builder::new()
            .name("loom-view-builder".to_string())
            .spawn(move || body(job_rx, ack_tx))
            .expect("spawn the view builder thread");
        Builder {
            jobs: Some(jobs),
            acks,
            thread: Some(thread),
            in_flight: 0,
            died: None,
        }
    }

    /// Queue `job`, waiting only while the channel is full.
    fn send(&mut self, job: Publication) -> Result<(), String> {
        if let Some(message) = &self.died {
            return Err(message.clone());
        }
        // Count in what has landed, so acknowledgements do not pile up
        // on a stream that never waits.
        while self.acks.try_recv().is_ok() {
            self.in_flight -= 1;
        }
        let jobs = self.jobs.as_ref().expect("open until dropped");
        if jobs.send(job).is_err() {
            return Err(self.death());
        }
        self.in_flight += 1;
        Ok(())
    }

    /// Wait until every publication sent is in the cell.
    fn wait(&mut self) -> Result<(), String> {
        if let Some(message) = &self.died {
            return Err(message.clone());
        }
        while self.in_flight > 0 {
            match self.acks.recv() {
                Ok(()) => self.in_flight -= 1,
                Err(_) => return Err(self.death()),
            }
        }
        Ok(())
    }

    /// The channel disconnected: the builder is gone. Join it and keep
    /// its panic message for every later call.
    fn death(&mut self) -> String {
        let panic = match self.thread.take().map(JoinHandle::join) {
            Some(Err(payload)) => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "a panic without a message".to_string()),
            _ => "it exited".to_string(),
        };
        let message = format!("the view builder panicked: {panic}");
        self.died = Some(message.clone());
        message
    }
}

impl Drop for Builder {
    /// Hang up and join: the builder finishes what is queued (at most
    /// [`CHANNEL_DEPTH`] publications) and exits.
    fn drop(&mut self) {
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The engine's serving side-state (one per engine, present only when
/// serving was enabled).
pub(crate) struct ServeState {
    opts: ServeOptions,
    /// Edges observed since the last publication, oldest first — the
    /// newest horizon of them at most.
    fresh: VecDeque<StreamEdge>,
    /// Edges observed so far.
    seen: u64,
    /// Widest label alphabet declared or observed over the whole
    /// stream (not just the horizon), so label validation outlives
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
    cell: Arc<EpochCell<ReadView>>,
    pub(crate) metrics: Arc<ServeMetrics>,
    /// Edge count at the last publication (0 = none yet).
    last_published: u64,
    /// Views published so far (becomes the next view's epoch).
    epochs: u64,
    builder: Builder,
}

impl ServeState {
    /// Serving state for an engine whose partitioner is at `state`, and
    /// its builder thread.
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
        let cell = Arc::new(EpochCell::new());
        let graphs = HorizonGraphs {
            horizon: opts.horizon_edges,
            ring: VecDeque::new(),
            seen: 0,
            next: Turn::default(),
            resting: Turn::default(),
            cell: Arc::clone(&cell),
        };
        ServeState {
            opts,
            fresh: VecDeque::new(),
            seen: 0,
            labels_seen: 1,
            assignment,
            settle_at: SETTLE_AT_LEAST.max(2 * pending.len()),
            pending,
            cell,
            metrics: Arc::new(ServeMetrics::new()),
            last_published: 0,
            epochs: 0,
            builder: Builder::spawn(move |jobs, acks| graphs.run(jobs, acks)),
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

    /// Record a committed chunk: into the buffer for the builder, and
    /// its endpoints into the queue for the assignment column.
    pub(crate) fn observe(&mut self, chunk: &[StreamEdge], state: &PartitionState) {
        let keep = self.opts.horizon_edges;
        for e in chunk {
            self.declare_labels(e.src_label.index().max(e.dst_label.index()) + 1);
            self.pending.extend([e.src, e.dst]);
            if self.fresh.len() == keep {
                self.fresh.pop_front();
            }
            if keep > 0 {
                self.fresh.push_back(*e);
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

    /// Is a publication due at the `edges` boundary?
    pub(crate) fn due(&self, edges: u64) -> bool {
        edges.saturating_sub(self.last_published) >= self.opts.publish_every.max(1)
    }

    /// Send the engine's current state to the builder as the next
    /// view: the assignment column is brought up to date and its page
    /// table cloned, everything else but the graph is a handful of
    /// scalars. Returns once the view is queued, not published — see
    /// [`ServeState::wait`]. `Err` is the builder's panic message.
    pub(crate) fn publish(
        &mut self,
        edges: u64,
        cut_edges: u64,
        resolved_edges: u64,
        state: &PartitionState,
        arena: Option<ArenaOccupancy>,
        adjacency: Option<AdjacencyOccupancy>,
    ) -> Result<(), String> {
        self.settle(state);
        self.epochs += 1;
        self.last_published = edges;
        let assigned = state.assigned_count();
        let mean = assigned as f64 / state.k() as f64;
        let imbalance = if assigned == 0 {
            0.0
        } else {
            state.max_size() as f64 / mean - 1.0
        };
        let view = ReadView {
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
            graph: ViewGraph::default(),
            horizon: self.opts.horizon_edges,
            arena,
            adjacency,
        };
        self.builder.send(Publication {
            view,
            labels: self.labels_seen,
            edges: std::mem::take(&mut self.fresh),
            seen: self.seen,
        })
    }

    /// The barrier: return once every view sent so far is in the cell.
    /// `Err` is the builder's panic message.
    pub(crate) fn wait(&mut self) -> Result<(), String> {
        self.builder.wait()
    }

    /// Replace the builder with one that panics with `message` at its
    /// first publication.
    #[cfg(test)]
    pub(crate) fn doom_builder(&mut self, message: &'static str) {
        self.builder = Builder::spawn(move |jobs, _acks| {
            let _ = jobs.recv();
            panic!("{message}");
        });
    }
}
