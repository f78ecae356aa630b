//! The event-driven online engine — the piece the paper assumes but
//! never ships.
//!
//! §1.3 defines the input as "a sequence of edge insertions of
//! unknown, possibly unbounded, extent", yet the evaluation (and this
//! reproduction, until now) always drove partitioners with a one-shot
//! batch pass over a materialised stream. [`OnlineEngine`] closes the
//! gap: it wraps any [`StreamPartitioner`], pulls edges in batches
//! from any [`EdgeSource`], and emits [`Snapshot`]s of partition
//! quality at a configurable edge cadence — so a long-running service
//! can watch balance, cut rate and store occupancy evolve mid-stream
//! instead of learning them post mortem.
//!
//! The engine adds *observation only*: it forwards every edge to the
//! wrapped partitioner unchanged, so driving the paper pipeline
//! through it in prescient mode reproduces every figure bit for bit
//! (see `tests/determinism.rs` and the pipeline tests).

use crate::persist::{read_journal, RecoveryStats, Segment, WalState};
use crate::serve::{ServeHandle, ServeOptions, ServeState};
use loom_graph::{EdgeSource, StreamEdge};
use loom_matcher::ArenaOccupancy;
use loom_partition::{AdjacencyOccupancy, Assignment, PartitionState, StreamPartitioner};
use loom_runtime::ServeStats;
use loom_wal::{
    list_checkpoints, list_segments, read_checkpoint, segment_name, ByteReader, ByteWriter,
    Checkpoint, StorageBackend, WalError,
};
use std::collections::VecDeque;

/// A fatal ingest failure: a WAL write failed, or the serving view
/// builder died. The engine names the batch and the stream-global edge
/// so the failure is reproducible; the run is abandoned (the
/// partitioner's state after an error is unspecified).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineError {
    /// 1-based ordinal of the failing batch (as handed to the
    /// partitioner — cadence splitting counts).
    pub batch: u64,
    /// 0-based stream-global index of the failing edge.
    pub edge_index: u64,
    /// What failed: the WAL error, or the view builder's panic
    /// message.
    pub message: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ingest failed in batch {} at edge {}: {}",
            self.batch, self.edge_index, self.message
        )
    }
}

impl std::error::Error for EngineError {}

/// Engine knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Emit a snapshot every this many ingested edges (0 — the
    /// default — disables periodic snapshots; a final one is always
    /// available from [`OnlineEngine::finish`]).
    pub snapshot_every: usize,
    /// Track the running cut rate (per-edge pending bookkeeping;
    /// default true). Turn off when nobody reads snapshot cut stats —
    /// e.g. the timed paper pipeline — so the wrapped partitioner's
    /// cost is measured unpolluted; snapshots then report 0/0.
    pub track_cuts: bool,
    /// Pull size for [`OnlineEngine::run`]: edges are pulled from the
    /// source and handed to [`OnlineEngine::ingest_batch`] in groups of
    /// up to this many (0 counts as 1; the default is
    /// [`DEFAULT_BATCH`]). A pure throughput knob — every size is
    /// **bit-identical** to edge-at-a-time ingest: same assignments,
    /// stats and snapshots (batches split at the snapshot cadence, so
    /// every snapshot still observes exactly the same edge count) —
    /// enforced by `tests/batch_equivalence.rs`.
    pub batch_size: usize,
}

/// The default [`EngineConfig::batch_size`]: measured as the knee of
/// the bench's batch-size sweep — large enough to amortise per-edge
/// source/dispatch overhead and keep the matcher's gate tables hot
/// across a batch, small enough to stay resident in L1 and to keep
/// ingest latency bounded.
pub const DEFAULT_BATCH: usize = 256;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            snapshot_every: 0,
            track_cuts: true,
            batch_size: DEFAULT_BATCH,
        }
    }
}

/// Point-in-time view of a run, emitted mid-stream.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// 1-based snapshot sequence number (the final snapshot from
    /// [`OnlineEngine::finish`] also increments it).
    pub seq: usize,
    /// Edges ingested so far.
    pub edges: u64,
    /// Vertices permanently assigned so far.
    pub vertices: usize,
    /// Per-partition assigned-vertex counts.
    pub sizes: Vec<usize>,
    /// The capacity constraint `C` at snapshot time (moving in
    /// adaptive mode, fixed in prescient mode).
    pub capacity: f64,
    /// `max_size / mean_size - 1` over assigned vertices (0 = perfect).
    pub imbalance: f64,
    /// Ingested edges whose endpoints are both assigned, to different
    /// partitions. Together with [`Snapshot::resolved_edges`] this is
    /// the running cut rate — the structural ipt proxy.
    pub cut_edges: u64,
    /// Ingested edges whose endpoints are both assigned.
    pub resolved_edges: u64,
    /// Match-arena occupancy (live/dead matches and cells, compaction
    /// generation) for partitioners that keep one — Loom. `None` for
    /// the memoryless baselines. Lets a long-running ingest *observe*
    /// that arena reclamation holds resident memory flat instead of
    /// trusting that it does.
    pub arena: Option<ArenaOccupancy>,
    /// Streaming-adjacency occupancy (retained/resident entries and
    /// compaction generation) for partitioners that keep one — Loom.
    /// `None` for the adjacency-free baselines. The companion of
    /// [`Snapshot::arena`] for the other stream-length-proportional
    /// store retention bounds (DESIGN.md §11).
    pub adjacency: Option<AdjacencyOccupancy>,
    /// WAL bookkeeping (checkpoints written, edges replayed, journal
    /// bytes) when crash recovery is attached; `None` otherwise, so
    /// WAL-off output carries no trace of the recovery machinery.
    /// Observation only — never compared in bit-identity checks.
    pub recovery: Option<RecoveryStats>,
    /// Serving counters (queries served/refused, p50/p99 latency) when
    /// epoch-snapshot serving is enabled; `None` otherwise, so
    /// serving-off output carries no trace of the serving machinery
    /// (DESIGN.md §16). Observation only — never compared in
    /// bit-identity checks.
    pub serving: Option<ServeStats>,
}

impl Snapshot {
    /// Running cut fraction over resolved edges (0 when none yet).
    pub fn cut_fraction(&self) -> f64 {
        if self.resolved_edges == 0 {
            0.0
        } else {
            self.cut_edges as f64 / self.resolved_edges as f64
        }
    }
}

/// An event-driven wrapper around any streaming partitioner.
pub struct OnlineEngine {
    partitioner: Box<dyn StreamPartitioner>,
    config: EngineConfig,
    edges: u64,
    /// Batches handed to the partitioner so far (cadence splitting
    /// counts) — names the failing batch in [`EngineError`].
    batches: u64,
    seq: usize,
    /// Ingested edges whose endpoints are not both assigned yet
    /// (bounded by the partitioner's buffering — Loom's window).
    pending: VecDeque<StreamEdge>,
    cut_edges: u64,
    resolved_edges: u64,
    /// Crash recovery, when attached: the edge journal + checkpoint
    /// hooks of [`OnlineEngine::attach_wal`] /
    /// [`OnlineEngine::resume_from_wal`]. Boxed, so an engine without
    /// a WAL carries one pointer, not the WAL's state and buffers.
    wal: Option<Box<WalState>>,
    /// Epoch-snapshot serving, when enabled: the live view state and
    /// the publication cell of [`OnlineEngine::enable_serving`].
    serve: Option<ServeState>,
}

impl OnlineEngine {
    /// Wrap `partitioner`. The partitioner's own capacity model
    /// decides prescient vs adaptive behaviour; the engine works with
    /// either.
    pub fn new(partitioner: Box<dyn StreamPartitioner>, config: EngineConfig) -> Self {
        OnlineEngine {
            partitioner,
            config,
            edges: 0,
            batches: 0,
            seq: 0,
            pending: VecDeque::new(),
            cut_edges: 0,
            resolved_edges: 0,
            wal: None,
            serve: None,
        }
    }

    /// Enable epoch-snapshot serving (DESIGN.md §16): the engine keeps
    /// a live graph over the most recent
    /// [`ServeOptions::horizon_edges`] edges and publishes an immutable
    /// [`loom_query::ReadView`] sharing its unchanged pages into the
    /// returned handle's cell at batch-boundary commit points, every
    /// [`ServeOptions::publish_every`] ingested edges (plus once at
    /// [`OnlineEngine::finish`]). The graph is kept up to date and the
    /// views are published by a builder thread this call spawns; the
    /// ingest thread hands it each due view and goes on (see
    /// [`OnlineEngine::await_views`]). Readers load views via
    /// `handle.view.load()` — an `Arc` clone, never a lock the ingest
    /// path contends on.
    ///
    /// Serving is pure observation: enabling it changes no assignment,
    /// counter, snapshot field (beyond [`Snapshot::serving`] becoming
    /// `Some`), or RNG draw — enforced by the serving-equivalence
    /// suite. Enabling mid-stream is allowed (it copies the assignment
    /// so far, once); the horizon then starts from the current edge.
    pub fn enable_serving(&mut self, opts: ServeOptions) -> ServeHandle {
        let state = ServeState::new(opts, self.partitioner.state(), self.edges > 0);
        let handle = state.handle();
        self.serve = Some(state);
        handle
    }

    /// Tell serving the stream's label alphabet (an
    /// [`EdgeSource::num_labels`], a `--labels` flag), so that views
    /// published before every label has been seen — the start-up view
    /// above all — answer `MATCH` on a declared label with 0 matches
    /// and not with a range error. No-op when serving is off.
    pub fn declare_labels(&mut self, num_labels: usize) {
        if let Some(srv) = &mut self.serve {
            srv.declare_labels(num_labels);
        }
    }

    /// Publish a read view right now, regardless of the publication
    /// cadence, and return once it is in the cell (every view sent
    /// before it is then in too). No-op when serving is off. Called at
    /// `finish`; exposed so a server can force an initial view before
    /// the first cadence.
    ///
    /// Panics with the builder's panic message if the view builder
    /// thread has died.
    pub fn publish_view_now(&mut self) {
        if let Err(message) = self.publish_view(true) {
            panic!("{message}");
        }
    }

    /// Wait until every view this engine has sent to its builder is in
    /// the cell: after it, `handle.view.load()` is the view of the last
    /// due boundary. Cadence publications do not wait: a view becomes
    /// visible once the builder has taken in the edges before it, up to
    /// three publications later (two queued, one being built). No-op
    /// when serving is off.
    ///
    /// `Err` names the builder's panic if its thread has died.
    pub fn await_views(&mut self) -> Result<(), EngineError> {
        let Some(srv) = &mut self.serve else {
            return Ok(());
        };
        srv.wait().map_err(|message| self.error_here(message))
    }

    /// Send the current state to the view builder, and with `wait`
    /// return only once it is published. `Err` is the builder's panic
    /// message.
    fn publish_view(&mut self, wait: bool) -> Result<(), String> {
        let Some(srv) = &mut self.serve else {
            return Ok(());
        };
        srv.publish(
            self.edges,
            self.cut_edges,
            self.resolved_edges,
            self.partitioner.state(),
            self.partitioner.arena(),
            self.partitioner.adjacency(),
        )?;
        if wait {
            srv.wait()?;
        }
        Ok(())
    }

    /// Serving hook at a commit point: hand the committed chunk to the
    /// serving state and send a view when the cadence is due.
    fn serve_commit(&mut self, chunk: &[StreamEdge]) -> Result<(), EngineError> {
        let Some(srv) = &mut self.serve else {
            return Ok(());
        };
        srv.observe(chunk, self.partitioner.state());
        if srv.due(self.edges) {
            self.publish_view(false)
                .map_err(|message| self.error_here(message))?;
        }
        Ok(())
    }

    /// An [`EngineError`] at the current batch and edge.
    fn error_here(&self, message: String) -> EngineError {
        EngineError {
            batch: self.batches,
            edge_index: self.edges,
            message,
        }
    }

    /// Name of the wrapped partitioner.
    pub fn partitioner_name(&self) -> &'static str {
        self.partitioner.name()
    }

    /// Edges ingested so far.
    pub fn edges_ingested(&self) -> u64 {
        self.edges
    }

    /// The wrapped partitioner's live state.
    pub fn state(&self) -> &PartitionState {
        self.partitioner.state()
    }

    /// Feed a batch of edges, in order, calling `on_snapshot` at each
    /// cadence firing. Every edge reaches the partitioner through this
    /// call, and any batching of a stream is bit-identical to feeding
    /// it one edge per call: the batch is split at the snapshot
    /// cadence, so every periodic snapshot still observes exactly the
    /// edge counts it would have edge-at-a-time, and cut tracking
    /// settles fully at every snapshot (between snapshots the eager
    /// prefix drain runs once per batch instead of once per edge — the
    /// counters it feeds are only ever *read* through a snapshot's
    /// `settle`, which drains everything resolved either way).
    ///
    /// `Err` means a WAL write failed, or a due view found the serving
    /// view builder dead (the message is its panic's): the error names
    /// the batch and the stream-global edge, and the run must be
    /// abandoned.
    pub fn ingest_batch(
        &mut self,
        edges: &[StreamEdge],
        mut on_snapshot: impl FnMut(&Snapshot),
    ) -> Result<(), EngineError> {
        // WAL hook, FIRST: the whole incoming batch is journaled and
        // flushed before any edge reaches the partitioner, so the
        // journal never trails it. A failure later in the batch (a
        // checkpoint write at a cadence split, or a due view finding
        // the builder dead) therefore leaves every edge the
        // partitioner has seen durable, and a post-mortem `--resume`
        // replays the stream at least to the failure point.
        // Already-journaled edges (replay) are skipped by the
        // stream-index guard inside.
        if self.wal.is_some() {
            self.journal_edges(edges)
                .map_err(|e| self.wal_engine_error(e))?;
        }
        let mut rest = edges;
        while !rest.is_empty() {
            // Split at the snapshot AND checkpoint cadences, so each
            // fires having observed exactly the edge count it would
            // have edge-at-a-time (chunking is quality-invisible by
            // the batch-equivalence contract).
            let mut until_cadence = rest.len();
            if self.config.snapshot_every > 0 {
                let every = self.config.snapshot_every as u64;
                until_cadence = until_cadence.min((every - self.edges % every) as usize);
            }
            if let Some(every) = self.wal.as_ref().map(|w| w.checkpoint_every) {
                if every > 0 {
                    until_cadence = until_cadence.min((every - self.edges % every) as usize);
                }
            }
            let (chunk, tail) = rest.split_at(until_cadence.min(rest.len()));
            rest = tail;
            self.batches += 1;
            self.partitioner.on_batch(chunk);
            self.edges += chunk.len() as u64;
            if self.config.track_cuts {
                self.pending.extend(chunk.iter().copied());
                let state = self.partitioner.state();
                while let Some(front) = self.pending.front() {
                    match (state.partition_of(front.src), state.partition_of(front.dst)) {
                        (Some(a), Some(b)) => {
                            self.resolved_edges += 1;
                            self.cut_edges += (a != b) as u64;
                            self.pending.pop_front();
                        }
                        _ => break,
                    }
                }
            }
            self.serve_commit(chunk)?;
            if self.config.snapshot_every > 0
                && self.edges.is_multiple_of(self.config.snapshot_every as u64)
            {
                on_snapshot(&self.snapshot());
            }
            // Checkpoint AFTER the snapshot at the same boundary, so
            // the persisted `seq` includes it and replayed snapshots
            // continue the sequence without a gap or repeat.
            if self.checkpoint_due() {
                self.write_checkpoint_now()
                    .map_err(|e| self.wal_engine_error(e))?;
            }
        }
        Ok(())
    }

    /// Drain `source` into the engine, calling `on_snapshot` at each
    /// cadence firing, until the source ends or `max_edges` edges have
    /// been ingested (`None` = until the source ends — do not pass
    /// `None` for infinite sources). Pulls up to
    /// [`EngineConfig::batch_size`] edges at a time and hands each pull
    /// to [`OnlineEngine::ingest_batch`].
    ///
    /// `Err` is the first [`OnlineEngine::ingest_batch`] error: a WAL
    /// write failure or a dead view builder.
    pub fn run<S: EdgeSource + ?Sized>(
        &mut self,
        source: &mut S,
        max_edges: Option<u64>,
        mut on_snapshot: impl FnMut(&Snapshot),
    ) -> Result<(), EngineError> {
        let batch = self.config.batch_size.max(1);
        let mut buf: Vec<StreamEdge> = Vec::with_capacity(batch);
        loop {
            let want = match max_edges {
                Some(m) if self.edges >= m => break,
                Some(m) => ((m - self.edges).min(batch as u64)) as usize,
                None => batch,
            };
            buf.clear();
            if source.next_batch_into(&mut buf, want) == 0 {
                break;
            }
            self.ingest_batch(&buf, &mut on_snapshot)?;
        }
        Ok(())
    }

    /// Fold newly-resolved pending edges into the running cut counters.
    fn settle(&mut self) {
        let state = self.partitioner.state();
        let (resolved, cut) = (&mut self.resolved_edges, &mut self.cut_edges);
        self.pending.retain(|e| {
            let (Some(a), Some(b)) = (state.partition_of(e.src), state.partition_of(e.dst)) else {
                return true;
            };
            *resolved += 1;
            *cut += (a != b) as u64;
            false
        });
    }

    /// Take a snapshot now, regardless of cadence.
    pub fn snapshot(&mut self) -> Snapshot {
        self.settle();
        self.seq += 1;
        let state = self.partitioner.state();
        Snapshot {
            seq: self.seq,
            edges: self.edges,
            vertices: state.assigned_count(),
            sizes: state.sizes().to_vec(),
            capacity: state.capacity(),
            imbalance: state.imbalance(),
            cut_edges: self.cut_edges,
            resolved_edges: self.resolved_edges,
            arena: self.partitioner.arena(),
            adjacency: self.partitioner.adjacency(),
            recovery: self.wal.as_ref().map(|w| w.stats()),
            serving: self.serve.as_ref().map(|s| s.metrics.stats()),
        }
    }

    // ------------------------------------------------ crash recovery

    /// Attach a fresh write-ahead log: every ingested edge is appended
    /// to `backend`'s journal (flushed at batch boundaries, before the
    /// partitioner sees the edges), and a full engine checkpoint is
    /// written every `checkpoint_every` edges (0 = journal only). The
    /// journal is a run of segments, a new one from each checkpoint's
    /// edge on, and a checkpoint deletes the segments that only the
    /// checkpoints it pruned could replay.
    /// `fingerprint` names the run configuration; it is stamped into
    /// every checkpoint and [`OnlineEngine::resume_from_wal`] refuses
    /// on any mismatch.
    ///
    /// Refused over a backend that already holds a journal or
    /// checkpoints (resume instead — a fresh WAL would shadow durable
    /// state), or after ingest has started (the journal would miss the
    /// prefix).
    pub fn attach_wal(
        &mut self,
        backend: Box<dyn StorageBackend>,
        checkpoint_every: u64,
        fingerprint: &str,
    ) -> Result<(), WalError> {
        self.wal_preconditions()?;
        for (_, name) in list_segments(&*backend)? {
            if !backend.read(&name)?.is_empty() {
                return Err(WalError::Refused(
                    "the WAL directory already holds a journal; resume to continue it, \
                     or point the WAL at an empty directory"
                        .to_string(),
                ));
            }
        }
        if !list_checkpoints(&*backend)?.is_empty() {
            return Err(WalError::Refused(
                "the WAL directory already holds checkpoints; resume to continue them, \
                 or point the WAL at an empty directory"
                    .to_string(),
            ));
        }
        if checkpoint_every > 0 {
            // Fail fast if the partitioner cannot checkpoint, instead
            // of erroring thousands of edges in at the first boundary.
            self.partitioner.save_state(&mut ByteWriter::new())?;
        }
        // A directory cleared by hand to start over can still hold a
        // killed run's checkpoint temp file, which the checks above
        // cannot see.
        loom_wal::sweep_checkpoint_temps(&*backend)?;
        let first = Segment {
            first: 0,
            name: segment_name(0),
            bytes: 0,
        };
        self.wal = Some(Box::new(WalState::new(
            backend,
            checkpoint_every,
            fingerprint,
            VecDeque::new(),
            first,
        )?));
        Ok(())
    }

    /// Recover from a WAL left by a crashed (or stopped) run and keep
    /// logging to it. The engine must be freshly constructed with the
    /// same configuration — partitioner, cadences — as the one that
    /// wrote the WAL; `fingerprint` encodes that
    /// configuration and is checked against the checkpoint before any
    /// state is touched.
    ///
    /// Recovery: pick the newest readable checkpoint at or after the
    /// journal's first edge (a corrupt or missing newest falls back to
    /// the one before it; none at all means full replay from edge 0 —
    /// possible only while the journal still starts there, before the
    /// first rotation; a checkpoint in another format version is passed
    /// over likewise, and is the error, [`WalError::FormatVersion`],
    /// when it leaves nothing to replay from), load its engine +
    /// partitioner state, read the journal's segments in order —
    /// truncating a torn tail after the
    /// last checksummed record of the last segment — and replay the
    /// durable edges past the checkpoint through the normal ingest
    /// path, re-firing cadence snapshots into `on_snapshot` as they are
    /// crossed. A checkpoint holds live content only, so each store
    /// comes back compacted; placements read live content alone, so
    /// the resumed engine places, counts and digests bit-identically
    /// to one that never stopped. Only its resident totals and
    /// compaction generations follow the resume.
    ///
    /// Returns the number of durable edges recovered; the caller skips
    /// that many edges of its source before continuing the stream.
    pub fn resume_from_wal(
        &mut self,
        backend: Box<dyn StorageBackend>,
        checkpoint_every: u64,
        fingerprint: &str,
        mut on_snapshot: impl FnMut(&Snapshot),
    ) -> Result<u64, WalError> {
        self.wal_preconditions()?;
        let segments = list_segments(&*backend)?;
        let Some(&(journal_first, _)) = segments.first() else {
            if !list_checkpoints(&*backend)?.is_empty() {
                return Err(WalError::Corrupt(
                    "checkpoints exist but the journal is missing".to_string(),
                ));
            }
            return Err(WalError::Refused(
                "nothing to resume: the WAL directory holds no journal".to_string(),
            ));
        };
        // Newest readable checkpoint the journal still reaches wins;
        // Io/Corrupt fall back to the previous one (atomic writes mean
        // at most the newest is torn, but degraded media can lose any
        // of them). A checkpoint in another format version is passed
        // over the same way, and remembered: it, not rotation, is why
        // nothing may be left to resume from.
        let mut ckpt: Option<Checkpoint> = None;
        let mut other_format = None;
        for (_, name) in list_checkpoints(&*backend)?.iter().rev() {
            match read_checkpoint(&*backend, name) {
                Ok(c) if c.edges >= journal_first => {
                    ckpt = Some(c);
                    break;
                }
                // Older ones start further before the journal.
                Ok(_) => break,
                Err(WalError::Io(_)) | Err(WalError::Corrupt(_)) => continue,
                Err(e @ WalError::FormatVersion { .. }) => {
                    other_format.get_or_insert(e);
                }
                Err(e) => return Err(e),
            }
        }
        match &ckpt {
            None if journal_first > 0 => {
                if let Some(e) = other_format {
                    return Err(e);
                }
                return Err(WalError::Corrupt(format!(
                    "no readable checkpoint at or after stream edge {journal_first}, where \
                     the journal starts (rotation deleted the segments before it): \
                     there is nothing to replay from"
                )));
            }
            None => {}
            Some(c) if c.fingerprint != fingerprint => {
                return Err(WalError::ConfigMismatch {
                    expected: fingerprint.to_string(),
                    found: c.fingerprint.clone(),
                });
            }
            // Pruning finds a checkpoint's edge from its seq: the
            // cadence is part of the WAL.
            Some(c) if c.seq.checked_mul(checkpoint_every) != Some(c.edges) => {
                return Err(WalError::ConfigMismatch {
                    expected: format!("checkpoint-every={checkpoint_every}"),
                    found: format!(
                        "checkpoint-every={} (checkpoint {} at stream edge {})",
                        c.edges / c.seq.max(1),
                        c.seq,
                        c.edges
                    ),
                });
            }
            Some(_) => {}
        }
        // Every record's header is checked; only the records reaching
        // past the checkpoint are decoded.
        let start = ckpt.as_ref().map_or(0, |c| c.edges);
        let journal = read_journal(&*backend, &segments, start)?;
        // A kill between a checkpoint's write and its rename leaves the
        // temp file behind, where no listing or pruning ever sees it.
        loom_wal::sweep_checkpoint_temps(&*backend)?;
        let durable = journal.tail.durable;
        if durable < start {
            return Err(WalError::Corrupt(format!(
                "checkpoint claims {start} edges but the journal holds only {durable}: \
                 the journal lost durable records the checkpoint depends on"
            )));
        }
        if let Some(c) = &ckpt {
            self.load_checkpoint_payload(&c.state)?;
            self.edges = c.edges;
        }
        // Install the WAL *before* replay: `journaled_edges = durable`
        // suppresses re-appending what is already on disk while the
        // replayed edges flow through the normal ingest path.
        let mut wal = WalState::new(
            backend,
            checkpoint_every,
            fingerprint,
            journal.closed,
            journal.open,
        )?;
        wal.journaled_edges = durable;
        wal.checkpoint_seq = ckpt.as_ref().map_or(0, |c| c.seq);
        wal.replayed_edges = durable - start;
        self.wal = Some(Box::new(wal));
        self.ingest_batch(&journal.tail.edges, &mut on_snapshot)
            .map_err(|e| WalError::Corrupt(format!("journal replay failed: {e}")))?;
        Ok(durable)
    }

    /// Checks shared by attach and resume: both bind a WAL to a fresh
    /// engine.
    fn wal_preconditions(&self) -> Result<(), WalError> {
        if self.wal.is_some() {
            return Err(WalError::Refused("a WAL is already attached".to_string()));
        }
        if self.edges > 0 {
            return Err(WalError::Refused(format!(
                "cannot attach a WAL mid-stream: {} edges already ingested \
                 would be missing from the journal",
                self.edges
            )));
        }
        Ok(())
    }

    /// Force the journal to its durable point now (normally it is
    /// flushed at every batch boundary). Call before a clean exit.
    pub fn flush_wal(&mut self) -> Result<(), WalError> {
        if let Some(wal) = &mut self.wal {
            wal.flush()?;
        }
        Ok(())
    }

    /// Recovery observability, when a WAL is attached.
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.wal.as_ref().map(|w| w.stats())
    }

    /// Journal `edges`, a slice whose first element is stream edge
    /// `self.edges` ([`WalState::append_edges`]).
    fn journal_edges(&mut self, edges: &[StreamEdge]) -> Result<(), WalError> {
        let wal = self.wal.as_mut().expect("caller checked wal.is_some()");
        wal.append_edges(self.edges, edges)
    }

    fn checkpoint_due(&self) -> bool {
        self.wal.as_ref().is_some_and(|w| {
            w.checkpoint_every > 0
                && self.edges > 0
                && self.edges.is_multiple_of(w.checkpoint_every)
        })
    }

    /// Write a checkpoint at the current edge boundary, then prune the
    /// checkpoints and journal segments it makes unneeded
    /// ([`WalState::checkpoint`]).
    fn write_checkpoint_now(&mut self) -> Result<(), WalError> {
        // The WAL steps out of the engine while the engine encodes
        // itself into the WAL's checkpoint buffer.
        let mut wal = self.wal.take().expect("checkpoint_due checked wal");
        let written = wal.checkpoint(self.edges, |w| self.encode_state(w, self.batches));
        self.wal = Some(wal);
        written
    }

    /// The engine's recoverable state, as checkpoints and
    /// [`OnlineEngine::state_digest`] lay it out: its own counters, the
    /// pending cut-tracking deque, and the wrapped partitioner's full
    /// dump. The second field is `count`: a checkpoint stores the batch
    /// counter there, a digest the edge count.
    fn encode_state(&self, w: &mut ByteWriter, count: u64) -> Result<(), WalError> {
        w.u64(self.seq as u64);
        w.u64(count);
        w.u64(self.cut_edges);
        w.u64(self.resolved_edges);
        w.u64(self.pending.len() as u64);
        for e in &self.pending {
            e.wal_encode(w);
        }
        w.str(self.partitioner.name());
        self.partitioner.save_state(w)
    }

    /// Inverse of a checkpoint's [`OnlineEngine::encode_state`], into a
    /// freshly constructed engine. The stored partitioner name must
    /// match the one this engine wraps — a Loom checkpoint loaded into
    /// an LDG run is a config mismatch, not a decode attempt.
    fn load_checkpoint_payload(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let mut r = ByteReader::new(bytes);
        self.seq = r.u64()? as usize;
        self.batches = r.u64()?;
        self.cut_edges = r.u64()?;
        self.resolved_edges = r.u64()?;
        let np = r.len_prefix(crate::persist::EDGE_WIRE_BYTES)?;
        self.pending.clear();
        for _ in 0..np {
            self.pending.push_back(StreamEdge::wal_decode(&mut r)?);
        }
        let name = r.str()?;
        if name != self.partitioner.name() {
            return Err(WalError::ConfigMismatch {
                expected: self.partitioner.name().to_string(),
                found: name,
            });
        }
        self.partitioner.load_state(&mut r)?;
        r.expect_end()
    }

    /// Content digest of the recoverable state: the engine's
    /// counters, pending cut-tracking deque, and the partitioner's
    /// `save_state` dump of its live content, as one byte string. Two
    /// engines whose digests are equal place every later edge the same
    /// whatever their stores' compaction layout — the oracle the
    /// kill/resume suite and the bench's recovery drill compare. Excludes the batch counter (a chunking
    /// detail that legitimately differs across replay) and the WAL
    /// bookkeeping itself (observability, not state). Works with or
    /// without a WAL attached.
    pub fn state_digest(&self) -> Result<Vec<u8>, WalError> {
        let mut w = ByteWriter::new();
        self.encode_state(&mut w, self.edges)?;
        Ok(w.into_bytes())
    }

    fn wal_engine_error(&self, e: WalError) -> EngineError {
        self.error_here(format!("wal: {e}"))
    }

    /// End of stream: flush the partitioner's buffers (Loom drains its
    /// window) and return the final snapshot. With serving enabled the
    /// drained end state is published as one last view, so readers
    /// catch up with the final assignments; it is in the cell when this
    /// returns, and a dead view builder panics here as in
    /// [`OnlineEngine::publish_view_now`].
    pub fn finish(&mut self) -> Snapshot {
        self.partitioner.finish();
        if self.serve.is_some() {
            self.publish_view_now();
        }
        self.snapshot()
    }

    /// Consume the engine, returning the final assignment. Call
    /// [`OnlineEngine::finish`] first for a flushed partitioner.
    pub fn into_assignment(self) -> Assignment {
        self.partitioner.into_assignment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::{DatasetKind, GraphStream, Scale, StreamOrder, SyntheticEdgeSource, VertexId};
    use loom_partition::{CapacityModel, HashPartitioner, LdgPartitioner};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    /// The config of the tests that `run` a source: pulls of one edge,
    /// so every hook runs after every edge.
    fn one_edge_pulls(cadence: usize) -> EngineConfig {
        EngineConfig {
            snapshot_every: cadence,
            batch_size: 1,
            ..EngineConfig::default()
        }
    }

    fn ldg_engine(cadence: usize) -> OnlineEngine {
        OnlineEngine::new(
            Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive)),
            one_edge_pulls(cadence),
        )
    }

    #[test]
    fn snapshots_fire_at_cadence_over_unbounded_source() {
        let mut engine = ldg_engine(1_000);
        let mut source = SyntheticEdgeSource::new(11, 4);
        let mut snaps = Vec::new();
        engine
            .run(&mut source, Some(5_000), |s| snaps.push(s.clone()))
            .unwrap();
        assert_eq!(snaps.len(), 5);
        assert_eq!(snaps[0].edges, 1_000);
        assert_eq!(snaps[4].edges, 5_000);
        for s in &snaps {
            assert_eq!(s.sizes.iter().sum::<usize>(), s.vertices);
            assert!(s.resolved_edges <= s.edges);
            assert!((0.0..=1.0).contains(&s.cut_fraction()));
        }
        // Adaptive capacity grows with the stream.
        assert!(snaps[4].capacity > snaps[0].capacity);
        let fin = engine.finish();
        assert_eq!(fin.seq, 6);
        assert_eq!(fin.resolved_edges, fin.edges, "LDG resolves on arrival");
    }

    #[test]
    fn engine_forwards_edges_unchanged() {
        // Same partitioner, driven directly vs through the engine,
        // over the same stream: identical assignments.
        let graph = loom_graph::datasets::generate(DatasetKind::ProvGen, Scale::Tiny, 3);
        let stream = GraphStream::from_graph(&graph, StreamOrder::Random, 3);

        let mut direct = LdgPartitioner::new(4, CapacityModel::for_stream(&stream));
        loom_partition::partition_stream(&mut direct, &stream);
        let direct_a = Box::new(direct).into_assignment();

        let boxed: Box<dyn StreamPartitioner> =
            Box::new(LdgPartitioner::new(4, CapacityModel::for_stream(&stream)));
        let mut engine = OnlineEngine::new(boxed, one_edge_pulls(64));
        engine.run(&mut stream.source(), None, |_| {}).unwrap();
        engine.finish();
        let engine_a = engine.into_assignment();

        for v in graph.vertices() {
            assert_eq!(direct_a.partition_of(v), engine_a.partition_of(v));
        }
    }

    #[test]
    fn arena_occupancy_flows_into_snapshots() {
        // Loom snapshots carry the match-arena occupancy; memoryless
        // baselines report None.
        let graph = loom_graph::datasets::generate(DatasetKind::ProvGen, Scale::Tiny, 3);
        let stream = GraphStream::from_graph(&graph, StreamOrder::BreadthFirst, 3);
        let workload = loom_query::workload_for(DatasetKind::ProvGen);
        let cfg = crate::ExperimentConfig::evaluation_defaults(
            DatasetKind::ProvGen,
            Scale::Tiny,
            StreamOrder::BreadthFirst,
        );
        let loom = crate::pipeline::make_partitioner_with_capacity(
            crate::System::Loom,
            &cfg,
            loom_partition::CapacityModel::for_stream(&stream),
            stream.num_labels(),
            &workload,
        );
        let mut engine = OnlineEngine::new(loom, one_edge_pulls(0));
        engine.run(&mut stream.source(), None, |_| {}).unwrap();
        let snap = engine.snapshot();
        let arena = snap.arena.expect("Loom snapshots carry arena occupancy");
        assert!(arena.live_matches <= arena.total_matches);
        assert!(arena.live_cells <= arena.total_cells);
        let adjacency = snap
            .adjacency
            .expect("Loom snapshots carry adjacency occupancy");
        assert!(adjacency.live_entries <= adjacency.resident_entries);
        assert_eq!(
            adjacency.entries_ever,
            2 * snap.edges,
            "two directed entries per ingested edge"
        );
        let fin = engine.finish();
        let drained = fin.arena.expect("arena occupancy after drain");
        assert_eq!(
            drained.live_matches, 0,
            "drained window leaves no live match"
        );

        let mut ldg_engine = ldg_engine(0);
        let mut source = SyntheticEdgeSource::new(5, 3);
        ldg_engine.run(&mut source, Some(500), |_| {}).unwrap();
        let baseline_snap = ldg_engine.snapshot();
        assert!(baseline_snap.arena.is_none(), "baselines have no arena");
        assert!(
            baseline_snap.adjacency.is_none(),
            "edge-stream baselines keep no adjacency"
        );
    }

    /// A Hash engine serving a view every 64 edges, whose view builder
    /// panics with "boom" at the first view it is sent.
    fn doomed_serving_engine() -> OnlineEngine {
        let mut engine = OnlineEngine::new(
            Box::new(HashPartitioner::new(4, 1)),
            EngineConfig::default(),
        );
        engine.enable_serving(ServeOptions {
            horizon_edges: 256,
            publish_every: 64,
        });
        engine.serve.as_mut().expect("serving").doom_builder("boom");
        engine
    }

    /// Run `body` on a thread of its own and fail if it is still
    /// running after 30 s: nothing may wait on a dead builder.
    fn within_cap(body: impl FnOnce() + Send + 'static) {
        let (done_tx, done) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        if done.recv_timeout(Duration::from_secs(30)) == Err(RecvTimeoutError::Timeout) {
            panic!("still blocked after 30 s");
        }
        if let Err(payload) = worker.join() {
            resume_unwind(payload);
        }
    }

    #[test]
    fn a_dead_view_builder_fails_a_due_view_by_name() {
        within_cap(|| {
            let mut engine = doomed_serving_engine();
            let mut source = SyntheticEdgeSource::new(3, 2);
            let mut buf = Vec::new();
            // The builder takes one view and dies; the channel holds
            // two more, so the fourth due view finds it gone at the
            // latest.
            let mut failure = None;
            for _ in 0..4 {
                buf.clear();
                source.next_batch_into(&mut buf, 64);
                if let Err(e) = engine.ingest_batch(&buf, |_| {}) {
                    failure = Some(e);
                    break;
                }
            }
            let e = failure.expect("a due view found the builder dead");
            assert_eq!(e.message, "the view builder panicked: boom");
            assert_eq!(e.edge_index, engine.edges_ingested());
            // Every later call says the same.
            assert_eq!(engine.await_views(), Err(e.clone()));
            buf.clear();
            source.next_batch_into(&mut buf, 64);
            assert_eq!(
                engine.ingest_batch(&buf, |_| {}).map_err(|e| e.message),
                Err("the view builder panicked: boom".to_string())
            );
        });
    }

    #[test]
    fn a_dead_view_builder_panics_a_forced_view_and_finish_by_name() {
        for finish in [false, true] {
            within_cap(move || {
                let mut engine = doomed_serving_engine();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if finish {
                        engine.finish();
                    } else {
                        engine.publish_view_now();
                    }
                }));
                let payload = outcome.expect_err("a dead builder panics the call");
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some("the view builder panicked: boom"),
                    "finish: {finish}"
                );
            });
        }
    }

    #[test]
    fn pending_edges_stay_pending_until_assigned() {
        // Hash assigns on arrival, so pending always settles fully.
        let mut engine =
            OnlineEngine::new(Box::new(HashPartitioner::new(2, 9)), one_edge_pulls(10));
        let mut source = SyntheticEdgeSource::new(2, 2);
        engine
            .run(&mut source, Some(100), |s| {
                assert_eq!(s.resolved_edges, s.edges);
            })
            .unwrap();
        let s = engine.snapshot();
        assert!(s.vertices > 0);
        assert!(engine.state().is_assigned(VertexId(0)));
    }
}
