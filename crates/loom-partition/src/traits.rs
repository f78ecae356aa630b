//! The common interface of all streaming partitioners in the
//! evaluation (Hash, LDG, Fennel, Loom — §5.1).

use crate::state::{AdjacencyOccupancy, Assignment, PartitionState};
use loom_graph::{GraphStream, StreamEdge};
use loom_matcher::ArenaOccupancy;

/// The error type of [`StreamPartitioner::try_on_batch`]. No
/// partitioner returns it: every ingest path is sequential and cannot
/// fail. Kept only because the repository benchmark's per-layer
/// probes name `try_on_batch` until they are retired (ROADMAP 1(f)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestError {
    /// Offset of the failing edge *within the batch*.
    pub edge_offset: usize,
    /// What failed.
    pub message: String,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch ingest failed at offset {}: {}",
            self.edge_offset, self.message
        )
    }
}

impl std::error::Error for IngestError {}

/// A single-pass edge-stream partitioner.
///
/// Implementations see each edge exactly once, in arrival order, and
/// must have permanently placed both endpoints of every seen edge by
/// the time [`StreamPartitioner::finish`] returns (Loom buffers a
/// window, hence the explicit flush).
pub trait StreamPartitioner {
    /// Short name used in the paper-style report tables.
    fn name(&self) -> &'static str;

    /// Process one arriving edge.
    fn on_edge(&mut self, e: &StreamEdge);

    /// Process a batch of arriving edges, in arrival order.
    ///
    /// Semantically this IS `batch.iter().for_each(|e| on_edge(e))` —
    /// the default does exactly that — and every override must stay
    /// **bit-identical** to it: same assignments, stats, and internal
    /// occupancy for any batch partitioning of the same stream. An
    /// override may only amortise work that provably cannot observe
    /// or affect per-edge state ordering (e.g. Loom pre-resolves each
    /// edge's single-edge motif gate, a pure function of immutable
    /// tables, for the whole batch up front). The batch-equivalence
    /// suite (`loom-core/tests/batch_equivalence.rs`) enforces the
    /// contract; see DESIGN.md §12 for why eviction/expiry work must
    /// NOT be deferred to batch boundaries.
    fn on_batch(&mut self, batch: &[StreamEdge]) {
        for e in batch {
            self.on_edge(e);
        }
    }

    /// A no-op, kept only because the repository benchmark's per-layer
    /// probe (`loom_t2_speedup`) calls it until that probe is retired
    /// (ROADMAP 1(f)). No partitioner overrides it: every ingest path
    /// is one sequential pass.
    fn set_threads(&mut self, _threads: usize) {}

    /// A no-op, kept only because the repository benchmark's per-layer
    /// probe (`loom_s2_slowdown`) calls it until that probe is retired
    /// (ROADMAP 1(f)). No partitioner overrides it: the vertex state
    /// has one flat layout.
    fn set_shards(&mut self, _shards: usize) {}

    /// [`StreamPartitioner::on_batch`], returning `Ok`. Kept only
    /// because the repository benchmark's per-layer replay calls it
    /// until that probe is retired (ROADMAP 1(f)). No partitioner
    /// overrides it, so it cannot fail.
    fn try_on_batch(&mut self, batch: &[StreamEdge]) -> Result<(), IngestError> {
        self.on_batch(batch);
        Ok(())
    }

    /// End of stream: flush internal buffers (no-op for the
    /// memoryless baselines).
    fn finish(&mut self);

    /// The live partition state.
    fn state(&self) -> &PartitionState;

    /// Occupancy of the partitioner's match arena, if it has one
    /// (Loom does; the memoryless baselines return `None`). Surfaced
    /// in engine snapshots so arena reclamation is observable.
    fn arena(&self) -> Option<ArenaOccupancy> {
        None
    }

    /// Occupancy of the partitioner's streaming adjacency, if it
    /// keeps one (Loom does; the edge-stream baselines keep none
    /// since the incremental-scoring rework). Surfaced in engine
    /// snapshots so adjacency retention is observable on unbounded
    /// ingests.
    fn adjacency(&self) -> Option<AdjacencyOccupancy> {
        None
    }

    /// Serialize the partitioner's full recoverable state into `w`
    /// for a crash-recovery checkpoint (DESIGN.md §15). Everything a
    /// fresh instance needs to continue bit-identically must be
    /// written; config-derived structures (motif tables, score LUTs)
    /// are NOT written — the resuming process rebuilds
    /// them from its own config, which the checkpoint fingerprint
    /// guarantees matches. The default refuses: a partitioner without
    /// checkpoint support cannot silently resume as an empty one.
    fn save_state(&self, _w: &mut loom_wal::ByteWriter) -> Result<(), loom_wal::WalError> {
        Err(loom_wal::WalError::Unsupported(format!(
            "partitioner {} does not support checkpointing",
            self.name()
        )))
    }

    /// Inverse of [`StreamPartitioner::save_state`]: overwrite this
    /// instance's mutable state with the checkpointed bytes. Must be
    /// called on a freshly-constructed instance (same config) before
    /// any edge is ingested.
    fn load_state(&mut self, _r: &mut loom_wal::ByteReader) -> Result<(), loom_wal::WalError> {
        Err(loom_wal::WalError::Unsupported(format!(
            "partitioner {} does not support checkpointing",
            self.name()
        )))
    }

    /// Consume the partitioner, returning the final assignment.
    fn into_assignment(self: Box<Self>) -> Assignment;
}

/// Drive a partitioner over a whole materialised stream.
pub fn partition_stream<P: StreamPartitioner + ?Sized>(p: &mut P, stream: &GraphStream) {
    for e in stream.iter() {
        p.on_edge(e);
    }
    p.finish();
}
