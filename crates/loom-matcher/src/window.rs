//! The sliding window `Ptemp` over the graph stream (§3).
//!
//! Loom buffers the most recent `t` edges; sub-graphs forming inside
//! the window are matched against motifs, and edges leaving the window
//! are permanently assigned. The window doubles as a temporary
//! partition so queries can reach not-yet-assigned data (§3) — the
//! partition state in `loom-partition` models that by treating
//! unassigned vertices with window presence as residents of `Ptemp`.

use loom_graph::{EdgeId, StreamEdge, VertexId};
use rustc_hash::FxHashSet;
use std::collections::VecDeque;

/// A fixed-capacity FIFO of stream edges with O(1) membership checks.
///
/// Per-vertex degrees are computed on demand by scanning the live
/// edges: nothing on the per-edge hot path reads them, and the
/// incremental map the window used to carry cost four hash-map
/// updates per buffered edge transit for observability-only data.
#[derive(Clone, Debug)]
pub struct SlidingWindow {
    capacity: usize,
    edges: VecDeque<StreamEdge>,
    present: FxHashSet<EdgeId>,
}

impl SlidingWindow {
    /// A window holding at most `capacity` edges (the paper's default
    /// for evaluation is 10k, §5.1).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            capacity,
            edges: VecDeque::with_capacity(capacity + 1),
            present: FxHashSet::with_capacity_and_hasher(capacity + 1, Default::default()),
        }
    }

    /// The configured capacity `t`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live edges currently buffered (tombstones excluded).
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// True when no live edges are buffered.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// True when the window is at capacity (the next push evicts).
    pub fn is_full(&self) -> bool {
        self.present.len() >= self.capacity
    }

    /// True if the edge is currently in the window.
    pub fn contains(&self, e: EdgeId) -> bool {
        self.present.contains(&e)
    }

    /// Degree of `v` counting only window edges (0 if absent). O(live
    /// edges) — an observability read, not a hot-path one.
    pub fn degree(&self, v: VertexId) -> usize {
        self.iter().filter(|e| e.touches(v)).count()
    }

    /// True if any window edge touches `v` — i.e. `v` is visible in the
    /// temporary partition. O(live edges), like [`SlidingWindow::degree`].
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.iter().any(|e| e.touches(v))
    }

    /// Buffer a new edge. If the window was full, the oldest edge is
    /// evicted and returned — the caller must then assign it (§4).
    pub fn push(&mut self, e: StreamEdge) -> Option<StreamEdge> {
        debug_assert!(!self.present.contains(&e.id), "duplicate edge {:?}", e.id);
        self.edges.push_back(e);
        self.present.insert(e.id);
        if self.present.len() > self.capacity {
            self.pop_oldest()
        } else {
            None
        }
    }

    /// Remove and return the oldest edge still present.
    pub fn pop_oldest(&mut self) -> Option<StreamEdge> {
        while let Some(e) = self.edges.pop_front() {
            if self.present.remove(&e.id) {
                return Some(e);
            }
            // Edge was removed out-of-band (assigned as part of a motif
            // match); skip the tombstone.
        }
        None
    }

    /// Remove an edge out of FIFO order (when a motif match containing
    /// it wins an allocation). The queue keeps a tombstone that
    /// [`SlidingWindow::pop_oldest`] skips.
    ///
    /// Returns true if the edge was present.
    pub fn remove(&mut self, e: &StreamEdge) -> bool {
        self.present.remove(&e.id)
    }

    /// Drain every remaining edge in arrival order (end-of-stream flush).
    pub fn drain(&mut self) -> Vec<StreamEdge> {
        let mut out = Vec::with_capacity(self.present.len());
        while let Some(e) = self.pop_oldest() {
            out.push(e);
        }
        out
    }

    /// Iterate over live edges in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &StreamEdge> {
        self.edges.iter().filter(|e| self.present.contains(&e.id))
    }

    /// Serialize the window's live edges, in arrival order, for a
    /// crash-recovery checkpoint (DESIGN.md §15). Tombstones are
    /// layout: eviction fires on the live count and pops skip them, so
    /// a window without them behaves the same. Capacity is config.
    pub fn wal_save(&self, w: &mut loom_wal::ByteWriter) {
        w.u64(self.present.len() as u64);
        for e in self.iter() {
            e.wal_encode(w);
        }
    }

    /// Inverse of [`SlidingWindow::wal_save`], applied to a freshly
    /// constructed window of the same capacity; `present` is rebuilt
    /// from the edges, and an edge written twice is refused.
    pub fn wal_load(&mut self, r: &mut loom_wal::ByteReader) -> Result<(), loom_wal::WalError> {
        let n = r.len_prefix(16)?;
        for _ in 0..n {
            let e = StreamEdge::wal_decode(r)?;
            if !self.present.insert(e.id) {
                return Err(loom_wal::WalError::Corrupt(format!(
                    "sliding window: edge {} written twice",
                    e.id.0
                )));
            }
            self.edges.push_back(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::Label;

    fn se(id: u32, src: u32, dst: u32) -> StreamEdge {
        StreamEdge {
            id: EdgeId(id),
            src: VertexId(src),
            dst: VertexId(dst),
            src_label: Label(0),
            dst_label: Label(1),
        }
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut w = SlidingWindow::new(2);
        assert!(w.push(se(0, 0, 1)).is_none());
        assert!(w.push(se(1, 1, 2)).is_none());
        assert!(w.is_full());
        let evicted = w.push(se(2, 2, 3)).expect("oldest evicted");
        assert_eq!(evicted.id, EdgeId(0));
        assert_eq!(w.len(), 2);
        assert!(!w.contains(EdgeId(0)));
        assert!(w.contains(EdgeId(2)));
    }

    #[test]
    fn degrees_track_window_content() {
        let mut w = SlidingWindow::new(10);
        w.push(se(0, 0, 1));
        w.push(se(1, 1, 2));
        assert_eq!(w.degree(VertexId(1)), 2);
        assert_eq!(w.degree(VertexId(0)), 1);
        assert_eq!(w.degree(VertexId(9)), 0);
        assert!(w.contains_vertex(VertexId(2)));
        assert!(!w.contains_vertex(VertexId(9)));
    }

    #[test]
    fn out_of_band_removal_leaves_tombstone() {
        let mut w = SlidingWindow::new(3);
        let e0 = se(0, 0, 1);
        let e1 = se(1, 1, 2);
        w.push(e0);
        w.push(e1);
        assert!(w.remove(&e0));
        assert!(!w.remove(&e0), "double remove is a no-op");
        assert_eq!(w.len(), 1);
        assert_eq!(w.degree(VertexId(1)), 1);
        // pop skips the tombstone and yields e1.
        assert_eq!(w.pop_oldest().unwrap().id, EdgeId(1));
        assert!(w.is_empty());
    }

    #[test]
    fn drain_returns_arrival_order() {
        let mut w = SlidingWindow::new(5);
        for i in 0..4 {
            w.push(se(i, i, i + 1));
        }
        let e2 = se(2, 2, 3);
        w.remove(&e2);
        let drained: Vec<u32> = w.drain().iter().map(|e| e.id.0).collect();
        assert_eq!(drained, vec![0, 1, 3]);
        assert!(w.is_empty());
        assert_eq!(w.degree(VertexId(1)), 0);
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut w = SlidingWindow::new(5);
        for i in 0..3 {
            w.push(se(i, i, i + 1));
        }
        w.remove(&se(1, 1, 2));
        let ids: Vec<u32> = w.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        SlidingWindow::new(0);
    }

    #[test]
    fn len_excludes_tombstones() {
        let mut w = SlidingWindow::new(4);
        for i in 0..4 {
            w.push(se(i, 0, i + 1));
        }
        w.remove(&se(0, 0, 1));
        w.remove(&se(1, 0, 2));
        assert_eq!(w.len(), 2);
        // Pushing two more should not evict (two tombstones absorb it)...
        // capacity counts live edges only.
        assert!(w.push(se(4, 0, 5)).is_none());
        assert!(w.push(se(5, 0, 6)).is_none());
        assert!(w.push(se(6, 0, 7)).is_some());
    }
}
