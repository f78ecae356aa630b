//! Persistent (copy-on-write) storage behind published read views
//! (DESIGN.md §16).
//!
//! A published [`ReadView`](crate::ReadView) must stay immutable for
//! as long as a reader holds it, while the engine keeps ingesting.
//! Rebuilding the view from scratch at every publication costs
//! O(vertices + horizon); the two structures here make it O(what
//! changed) instead. Both keep their data in small fixed-size pages
//! behind `Arc`: cloning one clones the page table (a refcount bump per
//! page), and a write goes through `Arc::make_mut`, which copies the
//! page first only while some clone still shares it. The engine
//! keeps its own [`ViewGraph`] and [`FrozenAssignment`] up to date with
//! what commits and publishes clones; a page is therefore copied at
//! most once per publication, only if it was touched, and only while a
//! published view still holds it.

use crate::executor::GraphAccess;
use loom_graph::{EdgeId, Label, PartitionId, StreamEdge, VertexId};
use std::sync::Arc;

/// Vertices per adjacency page. A page touched while a view shares it
/// is copied whole (row table and entry arena), and every page costs a
/// refcount bump per publication, so the size trades copy volume
/// against page-table length; DESIGN.md §16 has the measurements
/// behind 128.
const ROWS: usize = 128;

type Entry = (VertexId, EdgeId);

/// Slab size for a row about to hold more than `len` entries: the
/// next power of two above `len`, so a growing row is moved
/// O(log degree) times and never holds more than twice its entries.
fn slab(len: u32) -> u32 {
    (len + 1).next_power_of_two()
}

/// One vertex inside its page: its label, and its adjacency as a
/// slab of the page's arena. The live entries are
/// `arena[start..start + len]`, oldest first, and the row may grow in
/// place up to `end`. A vertex with no retained edge is all zeroes,
/// label included.
#[derive(Clone, Copy, Debug)]
struct Row {
    start: u32,
    len: u32,
    end: u32,
    label: Label,
}

const NO_ROW: Row = Row {
    start: 0,
    len: 0,
    end: 0,
    label: Label(0),
};

/// `ROWS` consecutive vertices, their adjacency packed into one arena
/// so that copying a page is two `memcpy`s, however many vertices have
/// edges. An update touches three cache lines — the head of the page
/// (`Arc` counts, arena pointer), the vertex's row, the arena slot —
/// which is what ingest pays per endpoint, so the layout is pinned.
#[derive(Clone, Debug)]
#[repr(C)]
struct Page {
    arena: Vec<Entry>,
    /// Arena slots outside every row's `start..end`: expired entries
    /// and the slabs rows moved out of.
    dead: u32,
    rows: [Row; ROWS],
}

impl Page {
    fn empty() -> Page {
        Page {
            arena: Vec::new(),
            dead: 0,
            rows: [NO_ROW; ROWS],
        }
    }

    fn neighbors(&self, i: usize) -> &[Entry] {
        let r = self.rows[i];
        &self.arena[r.start as usize..(r.start + r.len) as usize]
    }

    /// Append `entry` as the newest of row `i`, whose vertex carries
    /// `label`.
    fn push(&mut self, i: usize, label: Label, entry: Entry) {
        let r = self.rows[i];
        if r.start + r.len == r.end {
            // No room left in the slab (an empty row has none): move
            // the row to a larger one at the arena's tail.
            let start = self.arena.len();
            let end = start + slab(r.len) as usize;
            assert!(end <= u32::MAX as usize, "adjacency page arena overflow");
            self.arena
                .extend_from_within(r.start as usize..r.end as usize);
            self.arena.resize(end, (VertexId(0), EdgeId(0)));
            self.dead += r.len;
            self.rows[i].start = start as u32;
            self.rows[i].end = end as u32;
            self.compact_if_mostly_dead();
        }
        let r = &mut self.rows[i];
        self.arena[(r.start + r.len) as usize] = entry;
        r.len += 1;
        r.label = label;
    }

    /// Drop the oldest entry of row `i`, which must be `oldest`: a
    /// head bump.
    fn pop_front(&mut self, i: usize, oldest: Entry) {
        let r = &mut self.rows[i];
        debug_assert_eq!(
            self.arena[r.start as usize], oldest,
            "expiry out of arrival order"
        );
        r.start += 1;
        r.len -= 1;
        self.dead += 1;
        if r.len == 0 {
            self.dead += r.end - r.start;
            *r = NO_ROW;
        }
        self.compact_if_mostly_dead();
    }

    /// Repack the arena once more than half of it is dead, so a page
    /// never holds more than ~4 slots per live entry and a page whose
    /// rows have all expired holds none. Each repack is paid for by
    /// the pushes and pops that made the dead slots: amortised O(1).
    fn compact_if_mostly_dead(&mut self) {
        if self.dead as usize * 2 <= self.arena.len() {
            return;
        }
        let live = self.rows.iter().filter(|r| r.len > 0);
        let mut arena = Vec::with_capacity(live.map(|r| slab(r.len) as usize).sum());
        for r in self.rows.iter_mut().filter(|r| r.len > 0) {
            let start = arena.len();
            arena.extend_from_slice(&self.arena[r.start as usize..(r.start + r.len) as usize]);
            let end = start + slab(r.len) as usize;
            arena.resize(end, (VertexId(0), EdgeId(0)));
            r.start = start as u32;
            r.end = end as u32;
        }
        self.arena = arena;
        self.dead = 0;
    }
}

/// A query-ready graph over the most recent *horizon* edges of the
/// stream: per-vertex labels and adjacency rows in arrival order, which
/// the generic [`QueryExecutor`](crate::QueryExecutor) runs over
/// through [`GraphAccess`]. Parallel edges are kept (the executor
/// dedups matches by edge set, and k-hop traversal is id-based), and
/// a vertex with no retained edge has degree 0, which every query
/// treats as "not retained".
///
/// The graph is *persistent*: [`Clone`] shares every page, and
/// [`ViewGraph::insert`] / [`ViewGraph::expire`] copy only the pages
/// they touch while a clone still holds them. A clone is a snapshot —
/// nothing done to the original afterwards is visible through it.
#[derive(Clone, Debug)]
pub struct ViewGraph {
    pages: Vec<Arc<Page>>,
    /// Stands in for every page none of whose vertices has a retained
    /// edge, so id ranges the horizon has left (or never reached) cost
    /// a pointer each.
    blank: Arc<Page>,
    num_vertices: usize,
    num_labels: usize,
    num_edges: usize,
}

/// No edges, over an alphabet of one label.
impl Default for ViewGraph {
    fn default() -> Self {
        ViewGraph {
            pages: Vec::new(),
            blank: Arc::new(Page::empty()),
            num_vertices: 0,
            num_labels: 1,
            num_edges: 0,
        }
    }
}

impl ViewGraph {
    /// Build from retained edges, oldest first. `min_labels` widens
    /// the label alphabet beyond what the edges mention (the engine
    /// passes every label it has ever seen, so a `MATCH` on a label
    /// momentarily absent from the horizon is "0 matches", not an
    /// out-of-range error).
    pub fn from_edges(edges: &[StreamEdge], min_labels: usize) -> ViewGraph {
        let mut g = ViewGraph::default();
        g.widen_labels(min_labels);
        for e in edges {
            g.insert(e);
        }
        g
    }

    /// Widen the label alphabet to at least `num_labels`.
    pub fn widen_labels(&mut self, num_labels: usize) {
        self.num_labels = self.num_labels.max(num_labels);
    }

    /// Add `e` as the newest retained edge: one entry at the tail of
    /// each endpoint's row.
    pub fn insert(&mut self, e: &StreamEdge) {
        self.widen_labels(e.src_label.index().max(e.dst_label.index()) + 1);
        self.num_vertices = self.num_vertices.max(e.src.index().max(e.dst.index()) + 1);
        let pages = self.num_vertices.div_ceil(ROWS);
        if self.pages.len() < pages {
            self.pages.resize(pages, Arc::clone(&self.blank));
        }
        for (v, label, w) in [(e.src, e.src_label, e.dst), (e.dst, e.dst_label, e.src)] {
            Arc::make_mut(&mut self.pages[v.index() / ROWS]).push(
                v.index() % ROWS,
                label,
                (w, e.id),
            );
        }
        self.num_edges += 1;
    }

    /// Remove `e`, which must be the oldest retained edge. Edges enter
    /// every row in arrival order and leave in the same order, so `e`'s
    /// two entries are the oldest live ones of its endpoints' rows:
    /// removal is a head bump on each (DESIGN.md §11's argument).
    pub fn expire(&mut self, e: &StreamEdge) {
        for (v, w) in [(e.src, e.dst), (e.dst, e.src)] {
            let slot = &mut self.pages[v.index() / ROWS];
            let page = Arc::make_mut(slot);
            page.pop_front(v.index() % ROWS, (w, e.id));
            if page.arena.is_empty() {
                *slot = Arc::clone(&self.blank);
            }
        }
        self.num_edges -= 1;
    }

    /// Retained edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adjacency slots resident across all pages — live entries plus
    /// slab slack plus not-yet-repacked dead ones. Bounded by a
    /// constant times the retained edges, whatever the stream length.
    pub fn resident_entries(&self) -> usize {
        self.pages.iter().map(|p| p.arena.len()).sum()
    }

    /// Pages in the page table.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// How many pages `self` and `other` hold in common (the same
    /// allocation at the same table index).
    pub fn pages_shared_with(&self, other: &ViewGraph) -> usize {
        let shared = |(a, b): &(&Arc<Page>, &Arc<Page>)| Arc::ptr_eq(a, b);
        self.pages.iter().zip(&other.pages).filter(shared).count()
    }
}

impl GraphAccess for ViewGraph {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }
    fn num_labels(&self) -> usize {
        self.num_labels
    }
    fn label(&self, v: VertexId) -> Label {
        self.pages[v.index() / ROWS].rows[v.index() % ROWS].label
    }
    fn degree(&self, v: VertexId) -> usize {
        self.pages[v.index() / ROWS].rows[v.index() % ROWS].len as usize
    }
    fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        self.pages[v.index() / ROWS].neighbors(v.index() % ROWS)
    }
}

/// Vertices per [`FrozenAssignment`] page: 1 KiB of partition ids.
/// Newly placed vertices scatter over the id space, so most pages a
/// publication copies are copied for a single write: small pages.
const CELLS: usize = 256;

const UNASSIGNED: u32 = u32::MAX;

/// The vertex → partition column of a published view: the same paged
/// copy-on-write scheme as [`ViewGraph`]. Streaming assignment is
/// write-once, so the engine fills this in as vertices are placed and
/// a published clone is exact and stays exact.
#[derive(Clone, Debug)]
pub struct FrozenAssignment {
    pages: Vec<Arc<[u32; CELLS]>>,
    /// Stands in for every page with no vertex assigned yet.
    blank: Arc<[u32; CELLS]>,
}

impl Default for FrozenAssignment {
    fn default() -> Self {
        FrozenAssignment {
            pages: Vec::new(),
            blank: Arc::new([UNASSIGNED; CELLS]),
        }
    }
}

impl FrozenAssignment {
    /// Partition of `v`, if it was assigned when this copy was taken.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> Option<PartitionId> {
        match self.pages.get(v.index() / CELLS)?[v.index() % CELLS] {
            UNASSIGNED => None,
            p => Some(PartitionId(p)),
        }
    }

    /// Record `v → p`. Re-recording the same placement touches nothing
    /// (no page is copied for it).
    pub fn assign(&mut self, v: VertexId, p: PartitionId) {
        let page = v.index() / CELLS;
        if self.pages.len() <= page {
            self.pages.resize(page + 1, Arc::clone(&self.blank));
        }
        if self.pages[page][v.index() % CELLS] != p.0 {
            Arc::make_mut(&mut self.pages[page])[v.index() % CELLS] = p.0;
        }
    }

    /// Pages in the page table.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// How many pages `self` and `other` hold in common.
    pub fn pages_shared_with(&self, other: &FrozenAssignment) -> usize {
        let shared = |(a, b): &(&Arc<[u32; CELLS]>, &Arc<[u32; CELLS]>)| Arc::ptr_eq(a, b);
        self.pages.iter().zip(&other.pages).filter(shared).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(id: u32, src: u32, dst: u32) -> StreamEdge {
        StreamEdge {
            id: EdgeId(id),
            src: VertexId(src),
            dst: VertexId(dst),
            src_label: Label((src % 3) as u16),
            dst_label: Label((dst % 3) as u16),
        }
    }

    fn rows(g: &ViewGraph) -> Vec<Vec<Entry>> {
        (0..g.num_vertices())
            .map(|v| g.neighbors(VertexId(v as u32)).to_vec())
            .collect()
    }

    #[test]
    fn rows_keep_arrival_order_with_parallel_edges_and_self_loops() {
        let edges = [edge(0, 0, 1), edge(1, 1, 0), edge(2, 2, 2), edge(3, 0, 1)];
        let g = ViewGraph::from_edges(&edges, 5);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_labels(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(
            g.neighbors(VertexId(0)),
            &[
                (VertexId(1), EdgeId(0)),
                (VertexId(1), EdgeId(1)),
                (VertexId(1), EdgeId(3))
            ]
        );
        assert_eq!(
            g.neighbors(VertexId(2)),
            &[(VertexId(2), EdgeId(2)), (VertexId(2), EdgeId(2))]
        );
        assert_eq!(g.degree(VertexId(1)), 3);
        assert_eq!(g.label(VertexId(2)), Label(2));
    }

    #[test]
    fn sliding_the_horizon_equals_rebuilding_it() {
        // One hub, many spokes across several pages, horizon 50.
        let edges: Vec<StreamEdge> = (0..2_000u32)
            .map(|i| edge(i, (i * 7) % 5, 5 + (i * 13) % 300))
            .collect();
        let mut live = ViewGraph::default();
        for (i, e) in edges.iter().enumerate() {
            live.insert(e);
            if i >= 50 {
                live.expire(&edges[i - 50]);
            }
            if i % 97 == 0 {
                let from = (i + 1).saturating_sub(50);
                let rebuilt = ViewGraph::from_edges(&edges[from..=i], 1);
                assert_eq!(live.num_edges(), rebuilt.num_edges());
                let (a, b) = (rows(&live), rows(&rebuilt));
                assert_eq!(a[..b.len()], b[..], "rows diverged at edge {i}");
                assert!(a[b.len()..].iter().all(|r| r.is_empty()));
            }
        }
        // 20 entries per live one would mean dead slots pile up.
        assert!(
            live.resident_entries() <= 8 * 50,
            "{}",
            live.resident_entries()
        );
    }

    #[test]
    fn a_clone_is_a_snapshot_and_shares_untouched_pages() {
        let mut live = ViewGraph::default();
        for i in 0..64u32 {
            live.insert(&edge(i, i * ROWS as u32, i * ROWS as u32 + 1));
        }
        let snap = live.clone();
        let before = rows(&snap);
        assert_eq!(snap.pages_shared_with(&live), live.num_pages());
        live.insert(&edge(64, 0, 1));
        live.expire(&edge(0, 0, 1));
        assert_eq!(rows(&snap), before, "the snapshot moved");
        assert_eq!(snap.pages_shared_with(&live), live.num_pages() - 1);
    }

    #[test]
    fn pages_whose_rows_all_expired_are_given_back() {
        let mut g = ViewGraph::default();
        let far = 10 * ROWS as u32;
        g.insert(&edge(0, far, far + 1));
        g.insert(&edge(1, 0, 1));
        assert!(g.resident_entries() > 0);
        g.expire(&edge(0, far, far + 1));
        g.expire(&edge(1, 0, 1));
        assert_eq!(g.resident_entries(), 0);
        assert_eq!(g.num_vertices(), far as usize + 2, "the id range stays");
        assert_eq!(g.degree(VertexId(far)), 0);
    }

    #[test]
    fn frozen_assignment_is_copy_on_write() {
        let mut live = FrozenAssignment::default();
        assert_eq!(live.partition_of(VertexId(7)), None);
        live.assign(VertexId(7), PartitionId(2));
        live.assign(VertexId(3 * CELLS as u32), PartitionId(1));
        let snap = live.clone();
        live.assign(VertexId(7), PartitionId(2)); // same placement: no copy
        assert_eq!(snap.pages_shared_with(&live), live.num_pages());
        live.assign(VertexId(8), PartitionId(3));
        assert_eq!(snap.partition_of(VertexId(8)), None);
        assert_eq!(live.partition_of(VertexId(8)), Some(PartitionId(3)));
        assert_eq!(snap.partition_of(VertexId(7)), Some(PartitionId(2)));
        assert_eq!(snap.pages_shared_with(&live), live.num_pages() - 1);
        assert_eq!(live.partition_of(VertexId(u32::MAX)), None);
    }
}
