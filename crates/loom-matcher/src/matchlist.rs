//! The `matchList` map of §3: vertices → motif-matching sub-graphs.
//!
//! Entries take the paper's form `v → {⟨E_i, m_i⟩, ⟨E_j, m_j⟩, ...}`
//! where `E_i` is a set of window edges forming a sub-graph with the
//! same signature as motif `m_i`. New matches never replace old ones
//! (§3); matches die only when one of their edges leaves the window.
//!
//! Storage is a **cell arena**: every match is a cons list of
//! `(parent cell, appended edge)` cells, so extending a k-edge match
//! by one edge allocates exactly one cell — the k existing edges are
//! *shared* with the parent match, never cloned. A join that absorbs
//! `j` edges from a partner pushes `j` cells chained onto the base
//! match's cells. Matches are capped at the largest motif's edge
//! count (single digits, §2.3), so walking a chain is a handful of
//! pointer-free index hops through a dense `Vec`; full edge lists are
//! materialised only when the allocation step consumes a match.
//!
//! `matchList(v)` itself is `by_vertex`, a dense vertex → slot column
//! over a slab of rows that holds only the vertices with an entry (see
//! `VertexRows`). The edge index and the dedup set (`by_edge`,
//! `dedup`) are hashed with FxHash — the fixed-key deterministic hasher
//! from the `rustc-hash` shim — because the matcher probes them several
//! times per arriving edge and SipHash was a measurable share of
//! `on_edge`.

use loom_graph::{EdgeId, StreamEdge, VertexId};
use loom_motif::MotifId;
use rustc_hash::{FxHashMap, FxHashSet};

/// Identifier of a match in the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatchId(pub u32);

impl MatchId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel for "no parent cell" (the chain root).
const NO_CELL: u32 = u32::MAX;

/// One arena cell: an edge appended to a (possibly empty) parent chain.
#[derive(Clone, Copy, Debug)]
struct Cell {
    parent: u32,
    edge: StreamEdge,
}

/// Per-match metadata. The edges live in the cell chain starting at
/// `cell`; `edge_fp` is the commutative XOR fingerprint of the edge
/// set, maintained incrementally so dedup never materialises a key.
/// Liveness is *not* here: it lives in the dense parallel
/// `MatchList::live_info` array, because liveness checks run on every
/// index walk and a 4-byte dense read stays in cache where a 32-byte
/// `Meta` load would not.
#[derive(Clone, Copy, Debug)]
struct Meta {
    cell: u32,
    motif: MotifId,
    len: u16,
    edge_fp: u128,
}

/// Mix one edge id into the 128-bit fingerprint domain. XOR-combining
/// per-edge mixes is order-independent, which is exactly what a
/// set-valued fingerprint needs (matches never hold duplicate edges).
#[inline]
fn mix_edge(e: EdgeId) -> u128 {
    let mut x = (e.0 as u128) + 0x9e37_79b9_7f4a_7c15;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9_94d0_49bb_1331_11eb);
    x ^= x >> 67;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d_8a5c_d789_635d_2dff)
}

/// Pack a live match's `(motif, edge count)` into one dense word for
/// `MatchList::live_info`: motif in the high 24 bits, length in the
/// low 8. Lengths are capped by the largest motif's edge count
/// (single digits, §2.3) and motif ids by the trie population, so
/// neither bound is ever approached in practice.
#[inline]
fn pack_info(motif: MotifId, len: u16) -> u32 {
    debug_assert!(
        len > 0 && len <= MAX_MATCH_LEN,
        "match length {len} out of range"
    );
    debug_assert!(motif.0 < (1 << 24), "motif id {} out of range", motif.0);
    (motif.0 << 8) | len as u32
}

/// Fold the motif id into an edge-set fingerprint: the dedup key is a
/// function of the *(motif, edge set)* pair. Collisions would silently
/// drop a legitimate match; at ~2^-100 for any realistic window
/// population that is far below the signature scheme's own (accepted)
/// false-positive rate.
#[inline]
fn dedup_key(motif: MotifId, edge_fp: u128) -> u128 {
    edge_fp ^ (0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834u128).wrapping_mul(motif.0 as u128 + 1)
}

/// A borrowed view of one match `⟨E_k, m_k⟩` — resolves the cell chain
/// on demand instead of owning an edge vector.
#[derive(Clone, Copy)]
pub struct MatchRef<'a> {
    list: &'a MatchList,
    meta: &'a Meta,
    id: MatchId,
}

impl<'a> MatchRef<'a> {
    /// The motif this sub-graph's signature matched.
    #[inline]
    pub fn motif(&self) -> MotifId {
        self.meta.motif
    }

    /// False once any constituent edge left the window.
    #[inline]
    pub fn alive(&self) -> bool {
        self.list.live_info[self.id.index()] != 0
    }

    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.meta.len as usize
    }

    /// Always false — matches have at least one edge.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.meta.len == 0
    }

    /// Iterate the match's edges (newest appended first).
    pub fn edges(&self) -> impl Iterator<Item = StreamEdge> + 'a {
        let cells = &self.list.cells;
        let mut cur = self.meta.cell;
        std::iter::from_fn(move || {
            if cur == NO_CELL {
                return None;
            }
            let c = &cells[cur as usize];
            cur = c.parent;
            Some(c.edge)
        })
    }

    /// True if the match contains the edge. Chain walk — bounded by
    /// the largest motif's edge count.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges().any(|x| x.id == e)
    }

    /// Distinct vertices of the match, sorted.
    pub fn vertices(&self) -> Vec<VertexId> {
        let mut vs = Vec::new();
        self.vertices_into(&mut vs);
        vs
    }

    /// Write the distinct vertices of the match (sorted) into `out`,
    /// replacing its contents — the allocation-free variant hot
    /// callers use with a reused buffer.
    pub fn vertices_into(&self, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend(self.edges().flat_map(|e| [e.src, e.dst]));
        out.sort_unstable();
        out.dedup();
    }

    /// Degrees of two vertices within the match sub-graph, in one
    /// chain walk (the extension step needs both endpoints).
    pub fn degrees(&self, u: VertexId, v: VertexId) -> (usize, usize) {
        let mut du = 0;
        let mut dv = 0;
        for e in self.edges() {
            if e.touches(u) {
                du += 1;
            }
            if e.touches(v) {
                dv += 1;
            }
        }
        (du, dv)
    }

    /// Degree of `v` within the match sub-graph.
    pub fn degree(&self, v: VertexId) -> usize {
        self.edges().filter(|e| e.touches(v)).count()
    }

    /// Fused extension probe: the degrees of `u` and `v` within the
    /// match, or `None` if the match already contains edge `skip` —
    /// the checks [`MatchRef::contains_edge`] + [`MatchRef::degrees`]
    /// would make, in a single chain walk (the extension step runs
    /// this once per connected match per arriving edge).
    pub fn degrees_unless_contains(
        &self,
        u: VertexId,
        v: VertexId,
        skip: EdgeId,
    ) -> Option<(usize, usize)> {
        let mut du = 0;
        let mut dv = 0;
        for e in self.edges() {
            if e.id == skip {
                return None;
            }
            if e.touches(u) {
                du += 1;
            }
            if e.touches(v) {
                dv += 1;
            }
        }
        Some((du, dv))
    }
}

/// Point-in-time occupancy of the match arena, for observability (the
/// engine surfaces this in `loom stream` snapshots so reclamation is
/// visible, not assumed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaOccupancy {
    /// Matches currently alive (all edges still in the window).
    pub live_matches: usize,
    /// Match slots in the arena, dead ones included.
    pub total_matches: usize,
    /// Cells reachable from a live match (shared tails counted once).
    pub live_cells: usize,
    /// Cells in the arena, unreachable garbage included.
    pub total_cells: usize,
    /// How many generational compactions have run (the epoch).
    pub generation: u64,
}

/// The most edges a match can hold: `MatchList::live_info` packs the
/// length into 8 bits.
const MAX_MATCH_LEN: u16 = 0xff;

/// Minimum arena population before a generational compaction is worth
/// the copy (below this the arena is too small to matter).
const RECLAIM_MIN_MATCHES: usize = 4_096;

/// Sentinel for "this vertex has no row" in [`VertexRows::slot`].
const NO_ROW: u32 = u32::MAX;

/// One vertex's `matchList` row: `(match, the vertex's degree within
/// it)`, ascending by id.
type Row = Vec<(MatchId, u8)>;

/// The per-vertex match index, sized by the vertices that hold an
/// entry rather than by every vertex ever seen.
///
/// A dense `slot` column maps a vertex id to its row in the `rows`
/// slab (4 B per id seen, [`NO_ROW`] for none); only vertices with at
/// least one entry own a slab row, and `owner` maps a row back to its
/// vertex. A row that [`MatchList::reclaim`] empties goes to the `free`
/// list with its capacity kept, and the next vertex that needs a row
/// takes it. An owned row is never empty: pushes prune before they
/// append, so only a reclaim can empty a row, and it frees the row at
/// once. Free rows are therefore exactly the empty ones.
#[derive(Clone, Debug, Default)]
struct VertexRows {
    slot: Vec<u32>,
    rows: Vec<Row>,
    owner: Vec<VertexId>,
    free: Vec<u32>,
}

impl VertexRows {
    /// `v`'s row (empty when `v` holds no entry).
    #[inline]
    fn get(&self, v: VertexId) -> &[(MatchId, u8)] {
        match self.slot.get(v.index()) {
            Some(&s) if s != NO_ROW => &self.rows[s as usize],
            _ => &[],
        }
    }

    /// `v`'s row for a push, growing the slot column to cover `v` and
    /// taking a slab row (a free one first) when `v` has none.
    #[inline]
    fn row_mut(&mut self, v: VertexId) -> &mut Row {
        if self.slot.len() <= v.index() {
            self.slot.resize(v.index() + 1, NO_ROW);
        }
        let mut s = self.slot[v.index()];
        if s == NO_ROW {
            s = match self.free.pop() {
                Some(f) => {
                    self.owner[f as usize] = v;
                    f
                }
                None => {
                    self.rows.push(Row::new());
                    self.owner.push(v);
                    (self.rows.len() - 1) as u32
                }
            };
            self.slot[v.index()] = s;
        }
        &mut self.rows[s as usize]
    }

    /// Remap every owned row's ids through `match_remap` (`NO_CELL` = the
    /// match is gone, drop the entry), freeing the rows left empty.
    fn remap(&mut self, match_remap: &[u32]) {
        for (s, row) in self.rows.iter_mut().enumerate() {
            if row.is_empty() {
                continue;
            }
            row.retain_mut(|entry| {
                let n = match_remap[entry.0.index()];
                entry.0 = MatchId(n);
                n != NO_CELL
            });
            if row.is_empty() {
                self.slot[self.owner[s].index()] = NO_ROW;
                self.free.push(s as u32);
            }
        }
    }
}

/// Cell arena + indices for all live matches in the window.
///
/// Dead matches keep their (small, fixed-size) `Meta` and cells until
/// the next **generational compaction** ([`MatchList::reclaim`]):
/// ids are arena-ordered and the matcher's recency cap *is* id order,
/// so slots are never reused in place — instead, when the dead
/// outnumber the living (checked on the matcher's deterministic
/// compaction cadence), the live matches are copied into a fresh
/// arena *in id order* and every index entry is remapped through a
/// dense old→new table. The remap is monotone, so relative id order —
/// the only thing any consumer depends on — survives; resident memory
/// is thereby bounded by the live (window-resident) match population,
/// not by matches-ever-seen, which is what lets `loom stream` run on
/// unbounded sources (DESIGN.md §10).
#[derive(Clone, Debug, Default)]
pub struct MatchList {
    cells: Vec<Cell>,
    matches: Vec<Meta>,
    /// Per-vertex match lists (ascending id order), each entry
    /// carrying the vertex's degree *within* that match — matches are
    /// immutable, so the degree recorded at registration stays true
    /// for the match's whole life, and the extension step reads it
    /// straight off the row instead of walking the cell chain. Vertex
    /// ids index a dense slot column (the map hashing this replaced
    /// was a measurable share of the per-edge index upkeep); the rows
    /// behind it exist only for vertices with entries. Edge ids stay
    /// hashed (`by_edge`): only window-resident edges have entries,
    /// so a dense edge table would grow with the stream.
    by_vertex: VertexRows,
    by_edge: FxHashMap<EdgeId, Vec<MatchId>>,
    dedup: FxHashSet<u128>,
    /// Dense per-match liveness, packed `(motif << 8) | edge count`
    /// while alive, 0 once dead. Kept out of `Meta` for cache density
    /// — the backward index walks check liveness far more often than
    /// they read anything else about a match, and the extension loop's
    /// per-candidate motif read rides along in the same 4-byte load
    /// instead of costing a `Meta` cache line.
    live_info: Vec<u32>,
    live: usize,
    /// Completed generational compactions (the arena epoch).
    generation: u64,
    /// Scratch for vertex registration (reused across inserts).
    scratch_vertices: Vec<VertexId>,
    /// Recycled `by_edge` list vecs: every buffered edge creates one
    /// entry and its eviction frees it, so without a pool the steady
    /// state pays a malloc/free pair per edge transit.
    list_pool: Vec<Vec<MatchId>>,
}

impl MatchList {
    /// An empty match list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live matches.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no match is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of dead match slots awaiting compaction.
    pub fn dead(&self) -> usize {
        self.matches.len() - self.live
    }

    /// Edge count of a *live* match, 0 if dead — a dense 4-byte read,
    /// the cheap pre-filter the extension/join loops use before
    /// touching a match's `Meta` or cells.
    #[inline]
    pub fn live_len_of(&self, id: MatchId) -> usize {
        (self.live_info[id.index()] & 0xff) as usize
    }

    /// Motif of a *live* match, off the same dense word
    /// [`MatchList::live_len_of`] reads — undefined (returns motif 0)
    /// for dead matches, so callers must check liveness first.
    #[inline]
    pub fn live_motif_of(&self, id: MatchId) -> MotifId {
        debug_assert!(
            self.live_info[id.index()] != 0,
            "motif read on a dead match"
        );
        MotifId(self.live_info[id.index()] >> 8)
    }

    /// Register a new match whose chain head is `cell`, indexing it
    /// under its vertices and edges. The caller has already passed
    /// dedup and pushed the cells.
    fn register(&mut self, cell: u32, motif: MotifId, len: u16, edge_fp: u128) -> MatchId {
        let id = MatchId(self.matches.len() as u32);
        // Collect distinct vertices and register edges in one walk.
        let mut scratch = std::mem::take(&mut self.scratch_vertices);
        scratch.clear();
        let mut cur = cell;
        while cur != NO_CELL {
            let c = self.cells[cur as usize];
            // One entry per (edge, touched vertex): a self-loop
            // touches its vertex once, matching `MatchRef::degrees`.
            scratch.push(c.edge.src);
            if c.edge.dst != c.edge.src {
                scratch.push(c.edge.dst);
            }
            match self.by_edge.entry(c.edge.id) {
                std::collections::hash_map::Entry::Occupied(mut o) => o.get_mut().push(id),
                std::collections::hash_map::Entry::Vacant(slot) => {
                    let mut ids = self.list_pool.pop().unwrap_or_default();
                    ids.push(id);
                    slot.insert(ids);
                }
            }
            cur = c.parent;
        }
        // Sorted multiplicities = per-vertex degrees within the match.
        scratch.sort_unstable();
        let live_info = &self.live_info;
        let mut i = 0;
        while i < scratch.len() {
            let v = scratch[i];
            // Run length = this vertex's degree within the match.
            let mut run = i + 1;
            while run < scratch.len() && scratch[run] == v {
                run += 1;
            }
            let deg = (run - i) as u8;
            i = run;
            // Opportunistic row pruning via push_row, amortized O(1)
            // per push. Keeps the dead-entry skip cost of hub-row
            // backward walks bounded by ~2× the live population (this
            // is also what bounds the rows now that compact() never
            // sweeps them). `live_info` predates `id`, and so does
            // every entry already in the row.
            Self::push_row(self.by_vertex.row_mut(v), live_info, id, deg);
        }
        self.scratch_vertices = scratch;
        self.matches.push(Meta {
            cell,
            motif,
            len,
            edge_fp,
        });
        self.live_info.push(pack_info(motif, len));
        self.live += 1;
        id
    }

    /// Amortized per-row index pruning, shared by [`MatchList::register`]
    /// and the single-edge fast path: when a row hits a power-of-two
    /// length ≥ 64, drop its dead entries in place (order-preserving,
    /// so walks see the same live sequence) before appending.
    #[inline]
    fn push_row(row: &mut Vec<(MatchId, u8)>, live_info: &[u32], id: MatchId, deg: u8) {
        if row.len() >= 64 && row.len().is_power_of_two() {
            row.retain(|m| live_info[m.0.index()] != 0);
        }
        row.push((id, deg));
    }

    /// Insert the single-edge match `⟨{e}, motif⟩`. The caller
    /// guarantees `e`'s id is not currently in any live match — stream
    /// edge ids are unique while resident, so a single-edge match
    /// cannot duplicate a live one and singles skip the dedup set
    /// entirely (two hash operations per buffered edge the steady
    /// state never needs). Multi-edge inserts still dedup: the same
    /// union really is reachable through several extension/join
    /// orders.
    ///
    /// Specialized past `MatchList::register`: a one-edge chain needs
    /// no walk, no vertex sort and no run-length pass — the index
    /// updates are written out directly (same rows, same order, same
    /// pruning cadence as the generic path would produce). This runs
    /// once per buffered edge, the highest-frequency insert by far.
    pub fn insert_single(&mut self, e: StreamEdge, motif: MotifId) -> MatchId {
        let edge_fp = mix_edge(e.id);
        let id = MatchId(self.matches.len() as u32);
        let cell = self.cells.len() as u32;
        self.cells.push(Cell {
            parent: NO_CELL,
            edge: e,
        });
        match self.by_edge.entry(e.id) {
            std::collections::hash_map::Entry::Occupied(mut o) => o.get_mut().push(id),
            std::collections::hash_map::Entry::Vacant(slot) => {
                let mut ids = self.list_pool.pop().unwrap_or_default();
                ids.push(id);
                slot.insert(ids);
            }
        }
        // Rows in ascending vertex order, exactly as register()'s
        // sorted walk would visit them; a self-loop touches its vertex
        // once (matching `MatchRef::degrees`).
        let (lo, hi) = if e.src <= e.dst {
            (e.src, e.dst)
        } else {
            (e.dst, e.src)
        };
        Self::push_row(self.by_vertex.row_mut(lo), &self.live_info, id, 1);
        if lo != hi {
            Self::push_row(self.by_vertex.row_mut(hi), &self.live_info, id, 1);
        }
        self.matches.push(Meta {
            cell,
            motif,
            len: 1,
            edge_fp,
        });
        self.live_info.push(pack_info(motif, 1));
        self.live += 1;
        id
    }

    /// Insert the extension of `parent` by edge `e` as a new match for
    /// `motif` — one arena cell, the parent's edges are shared. The
    /// caller guarantees `e` is not already in `parent`.
    pub fn insert_extension(
        &mut self,
        parent: MatchId,
        e: StreamEdge,
        motif: MotifId,
    ) -> Option<MatchId> {
        let pm = &self.matches[parent.index()];
        debug_assert!(
            !self.get(parent).contains_edge(e.id),
            "extension edge already in parent"
        );
        let edge_fp = pm.edge_fp ^ mix_edge(e.id);
        let (pcell, plen) = (pm.cell, pm.len);
        if !self.dedup.insert(dedup_key(motif, edge_fp)) {
            return None;
        }
        let cell = self.cells.len() as u32;
        self.cells.push(Cell {
            parent: pcell,
            edge: e,
        });
        Some(self.register(cell, motif, plen + 1, edge_fp))
    }

    /// Insert the join of `base` with `absorbed` edges (in absorption
    /// order) as a new match for `motif` — `absorbed.len()` cells
    /// chained onto the base match's shared chain. The caller
    /// guarantees `absorbed` is disjoint from `base`.
    pub fn insert_join(
        &mut self,
        base: MatchId,
        absorbed: &[StreamEdge],
        motif: MotifId,
    ) -> Option<MatchId> {
        debug_assert!(!absorbed.is_empty(), "a join absorbs at least one edge");
        let bm = &self.matches[base.index()];
        let edge_fp = absorbed
            .iter()
            .fold(bm.edge_fp, |acc, e| acc ^ mix_edge(e.id));
        let (mut cell, blen) = (bm.cell, bm.len);
        if !self.dedup.insert(dedup_key(motif, edge_fp)) {
            return None;
        }
        for &e in absorbed {
            let next = self.cells.len() as u32;
            self.cells.push(Cell {
                parent: cell,
                edge: e,
            });
            cell = next;
        }
        Some(self.register(cell, motif, blen + absorbed.len() as u16, edge_fp))
    }

    /// Access a match (dead or alive).
    pub fn get(&self, id: MatchId) -> MatchRef<'_> {
        MatchRef {
            list: self,
            meta: &self.matches[id.index()],
            id,
        }
    }

    /// Live matches containing vertex `v` — `matchList(v)` in Alg. 2.
    pub fn matches_at_vertex(&self, v: VertexId) -> Vec<MatchId> {
        self.by_vertex
            .get(v)
            .iter()
            .map(|&(id, _)| id)
            .filter(|&id| self.live_info[id.index()] != 0)
            .collect()
    }

    /// Append the newest (at most) `cap` live matches at `v` to `out`,
    /// in ascending id order — the capped `matchList(v)` read of the
    /// matcher's hot path.
    ///
    /// The index list is append-ordered (ids only grow), so this walks
    /// it *backwards* and stops as soon as `cap` live entries are
    /// found: at a hub vertex the cost is O(cap + recently-dead), not
    /// O(every match ever recorded at the hub) — the difference
    /// between linear and quadratic total work in hub degree. Dead
    /// entries are left for the row's push-cadence pruning and the
    /// next [`MatchList::reclaim`].
    pub fn recent_matches_at_vertex_into(&self, v: VertexId, cap: usize, out: &mut Vec<MatchId>) {
        let start = out.len();
        for &(id, _) in self.by_vertex.get(v).iter().rev() {
            if self.live_info[id.index()] != 0 {
                out.push(id);
                if out.len() - start >= cap {
                    break;
                }
            }
        }
        out[start..].reverse();
    }

    /// [`MatchList::recent_matches_at_vertex_into`] carrying each
    /// entry's in-match degree of `v` — the matcher's extension step
    /// reads degrees off the row instead of walking cell chains.
    ///
    /// Returns `true` if the read stopped at `cap` (so live matches at
    /// `v` may exist that are *not* in `out` — the caller must not
    /// conclude "absent ⇒ degree 0" for this vertex).
    pub fn recent_matches_with_degrees_into(
        &self,
        v: VertexId,
        cap: usize,
        out: &mut Vec<(MatchId, u8)>,
    ) -> bool {
        let start = out.len();
        let mut truncated = false;
        for &(id, deg) in self.by_vertex.get(v).iter().rev() {
            if self.live_info[id.index()] != 0 {
                out.push((id, deg));
                if out.len() - start >= cap {
                    truncated = true;
                    break;
                }
            }
        }
        out[start..].reverse();
        truncated
    }

    /// Live matches containing edge `e` — the `M_e` of §4.
    pub fn matches_at_edge(&self, e: EdgeId) -> Vec<MatchId> {
        let mut out = Vec::new();
        self.matches_at_edge_into(e, &mut out);
        out
    }

    /// Write the live matches containing edge `e` into `out`,
    /// replacing its contents — the allocation-free `M_e` lookup the
    /// allocation step uses with a reused buffer.
    pub fn matches_at_edge_into(&self, e: EdgeId, out: &mut Vec<MatchId>) {
        out.clear();
        if let Some(ids) = self.by_edge.get(&e) {
            out.extend(
                ids.iter()
                    .copied()
                    .filter(|&id| self.live_info[id.index()] != 0),
            );
        }
    }

    /// Kill every match containing edge `e` (the edge left the window).
    /// Returns the number of matches killed.
    pub fn drop_edge(&mut self, e: EdgeId) -> usize {
        let Some(mut ids) = self.by_edge.remove(&e) else {
            return 0;
        };
        let mut killed = 0;
        for &id in &ids {
            let info = self.live_info[id.index()];
            if info != 0 {
                self.live_info[id.index()] = 0;
                self.live -= 1;
                killed += 1;
                if info & 0xff > 1 {
                    let m = &self.matches[id.index()];
                    self.dedup.remove(&dedup_key(m.motif, m.edge_fp));
                }
            }
        }
        ids.clear();
        self.list_pool.push(ids);
        killed
    }

    /// Kill a single match by id (equal opportunism drops losing
    /// matches from the map, §4). No-op if already dead.
    pub fn kill(&mut self, id: MatchId) {
        let info = self.live_info[id.index()];
        if info != 0 {
            self.live_info[id.index()] = 0;
            self.live -= 1;
            if info & 0xff > 1 {
                let m = &self.matches[id.index()];
                self.dedup.remove(&dedup_key(m.motif, m.edge_fp));
            }
        }
    }

    /// Periodic maintenance, called by the matcher on a deterministic
    /// edge-count cadence: run a full generational
    /// [`MatchList::reclaim`] when the dead dominate the arena (and
    /// the arena is big enough to matter). Correctness never depends
    /// on it (lookups filter on liveness), only memory usage does.
    ///
    /// No index sweep happens here: dead index entries are already
    /// bounded without one. `by_vertex` rows prune themselves on the
    /// power-of-two push cadence (see `MatchList::register`), so a
    /// row carries at most ~2× its live population; `by_edge` rows
    /// exist only for window-resident edges and vanish whole in
    /// [`MatchList::drop_edge`] when the edge leaves. The global
    /// sweeps this method used to run on every cadence firing were
    /// O(all index entries) of pure overhead on top of those bounds —
    /// and removing them is unobservable, because every read path
    /// filters dead entries out anyway.
    ///
    /// Like [`MatchList::reclaim`], this may invalidate previously
    /// returned [`MatchId`]s — callers must not hold ids across it.
    pub fn compact(&mut self) {
        let dead = self.matches.len() - self.live;
        if self.matches.len() >= RECLAIM_MIN_MATCHES && dead > self.live {
            self.reclaim();
        }
    }

    /// Generational compaction: rebuild the arena from the live
    /// matches only, freeing every dead `Meta` and every unreachable
    /// cell, and remap all index entries through a dense old→new id
    /// table. Live matches are copied in ascending id order
    /// (`walk_live`), so the remap is **monotone**: relative id order
    /// — which the recency cap and every index walk depend on — is
    /// preserved exactly, and shared cell tails stay shared. O(arena
    /// matches + arena cells + index entries): the vertex index is
    /// walked by its slab, the vertices holding an entry, never by
    /// every vertex id seen.
    ///
    /// All previously returned [`MatchId`]s are invalidated.
    pub fn reclaim(&mut self) {
        let mut cells = Vec::new();
        let mut matches = Vec::with_capacity(self.live);
        let mut live_info = Vec::with_capacity(self.live);
        let mut match_remap = vec![NO_CELL; self.matches.len()];
        self.walk_live(
            |parent, edge| cells.push(Cell { parent, edge }),
            |old_id, cell| {
                match_remap[old_id] = matches.len() as u32;
                matches.push(Meta {
                    cell,
                    ..self.matches[old_id]
                });
                live_info.push(self.live_info[old_id]);
            },
        );
        debug_assert_eq!(matches.len(), self.live);
        self.cells = cells;
        self.matches = matches;
        self.live_info = live_info;
        // Remap the indices in place; dead ids drop out. The per-list
        // order is preserved and the remap is monotone, so every list
        // stays ascending-by-id (append order).
        self.by_vertex.remap(&match_remap);
        self.by_edge.retain(|_, ids| {
            ids.retain_mut(|id| {
                let n = match_remap[id.index()];
                *id = MatchId(n);
                n != NO_CELL
            });
            !ids.is_empty()
        });
        // The dedup set keys on (motif, edge-set) fingerprints — id
        // free — and already holds live entries only.
        self.generation += 1;
    }

    /// The live arena in compaction order, the one walk
    /// [`MatchList::reclaim`] and [`MatchList::wal_save`] share: the
    /// live matches in ascending id order, each preceded by the cells
    /// of its chain that no earlier live match reached, bottom-up, so
    /// a shared tail comes once and every parent before its child.
    /// `cell` receives each such cell as its parent's position in this
    /// order (`NO_CELL` at a chain root) and its edge; `matched` each
    /// live match's id and its head cell's position.
    fn walk_live(
        &self,
        mut cell: impl FnMut(u32, StreamEdge),
        mut matched: impl FnMut(usize, u32),
    ) {
        // NO_CELL doubles as the "not copied yet" sentinel: cell ids
        // are always < cells.len() < u32::MAX, so no collision.
        let mut cell_remap = vec![NO_CELL; self.cells.len()];
        let mut copied = 0u32;
        let mut stack: Vec<u32> = Vec::new();
        for (id, meta) in self.matches.iter().enumerate() {
            if self.live_info[id] == 0 {
                continue;
            }
            // Climb to the first already-copied cell, then copy down.
            stack.clear();
            let mut cur = meta.cell;
            while cur != NO_CELL && cell_remap[cur as usize] == NO_CELL {
                stack.push(cur);
                cur = self.cells[cur as usize].parent;
            }
            let mut parent = if cur == NO_CELL {
                NO_CELL
            } else {
                cell_remap[cur as usize]
            };
            for &c in stack.iter().rev() {
                cell(parent, self.cells[c as usize].edge);
                cell_remap[c as usize] = copied;
                parent = copied;
                copied += 1;
            }
            matched(id, parent);
        }
    }

    /// Serialize the live arena for a crash-recovery checkpoint
    /// (DESIGN.md §15): the cells [`MatchList::walk_live`] reaches, in
    /// its order, as (parent, edge), then each live match as its head
    /// cell and motif. Dead matches and cells, the indices, the dedup
    /// set, the liveness words and the generation are not written:
    /// [`MatchList::wal_load`] rebuilds them through the registration
    /// path, and every read filters on liveness and keeps relative id
    /// order, so a compacted reload answers every read the same.
    pub(crate) fn wal_save(&self, w: &mut loom_wal::ByteWriter) {
        let (mut cells, mut heads) = (Vec::new(), Vec::with_capacity(self.live));
        self.walk_live(
            |parent, edge| cells.push(Cell { parent, edge }),
            |id, head| heads.push((head, self.matches[id].motif)),
        );
        w.u64(cells.len() as u64);
        for c in &cells {
            w.u32(c.parent);
            c.edge.wal_encode(w);
        }
        w.u64(heads.len() as u64);
        for (head, motif) in heads {
            w.u32(head);
            w.u32(motif.0);
        }
    }

    /// Inverse of [`MatchList::wal_save`], applied to a fresh list over
    /// `motifs` motifs: the cells as written, then each match
    /// registered as an insert registers it, its length and
    /// fingerprint from its chain. A cell whose parent does not
    /// precede it, a head past the cells, a motif past `motifs`, a
    /// chain past [`MAX_MATCH_LEN`] edges and a multi-edge match that
    /// repeats a live one are refused.
    pub(crate) fn wal_load(
        &mut self,
        r: &mut loom_wal::ByteReader,
        motifs: usize,
    ) -> Result<(), loom_wal::WalError> {
        use loom_wal::WalError;
        let ncells = r.len_prefix(20)?;
        for i in 0..ncells {
            let parent = r.u32()?;
            if parent != NO_CELL && parent as usize >= i {
                return Err(WalError::Corrupt(format!(
                    "match arena: cell {i} points forward to parent {parent}"
                )));
            }
            let edge = StreamEdge::wal_decode(r)?;
            self.cells.push(Cell { parent, edge });
        }
        let nmatches = r.len_prefix(8)?;
        for i in 0..nmatches {
            let (head, motif) = (r.u32()?, r.u32()?);
            let corrupt =
                |what: String| WalError::Corrupt(format!("match arena: match {i} {what}"));
            if head as usize >= ncells {
                return Err(corrupt(format!(
                    "roots at cell {head}, only {ncells} cells"
                )));
            }
            if motif as usize >= motifs {
                return Err(corrupt(format!("is motif {motif}, only {motifs} motifs")));
            }
            let (mut len, mut edge_fp, mut cur) = (0u16, 0u128, head);
            while cur != NO_CELL {
                if len == MAX_MATCH_LEN {
                    return Err(corrupt(format!("runs past {MAX_MATCH_LEN} edges")));
                }
                let c = self.cells[cur as usize];
                len += 1;
                edge_fp ^= mix_edge(c.edge.id);
                cur = c.parent;
            }
            let motif = MotifId(motif);
            if len > 1 && !self.dedup.insert(dedup_key(motif, edge_fp)) {
                return Err(corrupt("repeats a live match".to_string()));
            }
            self.register(head, motif, len, edge_fp);
        }
        Ok(())
    }

    /// Current arena occupancy (live-cell counting walks the live
    /// chains with a visited bitmap — O(total cells) bits + O(live
    /// cells) work, intended for snapshot cadence, not per edge).
    pub fn occupancy(&self) -> ArenaOccupancy {
        let mut visited = vec![false; self.cells.len()];
        let mut live_cells = 0usize;
        for (i, meta) in self.matches.iter().enumerate() {
            if self.live_info[i] == 0 {
                continue;
            }
            let mut cur = meta.cell;
            while cur != NO_CELL && !visited[cur as usize] {
                visited[cur as usize] = true;
                live_cells += 1;
                cur = self.cells[cur as usize].parent;
            }
        }
        ArenaOccupancy {
            live_matches: self.live,
            total_matches: self.matches.len(),
            live_cells,
            total_cells: self.cells.len(),
            generation: self.generation,
        }
    }

    /// Test-only visibility: `(vertex ids the slot column covers, rows
    /// in the slab)` of the per-vertex index, free rows included.
    #[doc(hidden)]
    pub fn vertex_row_counts(&self) -> (usize, usize) {
        (self.by_vertex.slot.len(), self.by_vertex.rows.len())
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
    fn insert_and_lookup_by_vertex_and_edge() {
        let mut ml = MatchList::new();
        let id = ml.insert_single(se(0, 1, 2), MotifId(0));
        assert_eq!(ml.matches_at_vertex(VertexId(1)), vec![id]);
        assert_eq!(ml.matches_at_vertex(VertexId(2)), vec![id]);
        assert_eq!(ml.matches_at_edge(EdgeId(0)), vec![id]);
        assert!(ml.matches_at_vertex(VertexId(3)).is_empty());
        assert_eq!(ml.len(), 1);
    }

    #[test]
    fn extension_shares_parent_edges() {
        let mut ml = MatchList::new();
        let a = ml.insert_single(se(0, 1, 2), MotifId(0));
        let b = ml.insert_extension(a, se(1, 2, 3), MotifId(1)).unwrap();
        assert_eq!(ml.get(b).len(), 2);
        assert!(ml.get(b).contains_edge(EdgeId(0)));
        assert!(ml.get(b).contains_edge(EdgeId(1)));
        assert!(!ml.get(a).contains_edge(EdgeId(1)));
        // One cell per insert: 2 matches, 2 cells total (shared tail).
        assert_eq!(ml.cells.len(), 2);
        // Both matches are indexed under the shared edge.
        assert_eq!(ml.matches_at_edge(EdgeId(0)), vec![a, b]);
        assert_eq!(
            ml.get(b).vertices(),
            vec![VertexId(1), VertexId(2), VertexId(3)]
        );
    }

    #[test]
    fn join_chains_absorbed_edges() {
        let mut ml = MatchList::new();
        let base = ml.insert_single(se(0, 1, 2), MotifId(0));
        let j = ml
            .insert_join(base, &[se(1, 2, 3), se(2, 3, 4)], MotifId(2))
            .unwrap();
        assert_eq!(ml.get(j).len(), 3);
        for e in 0..3u32 {
            assert!(ml.get(j).contains_edge(EdgeId(e)));
        }
        // Base untouched; three cells total for base + 2 absorbed.
        assert_eq!(ml.get(base).len(), 1);
        assert_eq!(ml.cells.len(), 3);
    }

    #[test]
    fn duplicate_matches_rejected() {
        let mut ml = MatchList::new();
        let a = ml.insert_single(se(0, 1, 2), MotifId(1));
        let b = ml.insert_single(se(1, 2, 3), MotifId(1));
        assert!(ml.insert_extension(a, se(1, 2, 3), MotifId(1)).is_some());
        // Same edge set {0, 1} reached through the other parent: dup.
        assert!(ml.insert_extension(b, se(0, 1, 2), MotifId(1)).is_none());
        // Same edge set, different motif: distinct entry (Alg. 2 can
        // map one sub-graph to several motifs only via collisions, but
        // the structure must not conflate them).
        assert!(ml.insert_extension(a, se(1, 2, 3), MotifId(2)).is_some());
        assert_eq!(ml.len(), 4);
    }

    #[test]
    fn drop_edge_kills_all_containing_matches() {
        let mut ml = MatchList::new();
        let a = ml.insert_single(se(0, 1, 2), MotifId(0));
        let b = ml.insert_extension(a, se(1, 2, 3), MotifId(1)).unwrap();
        let c = ml.insert_single(se(1, 2, 3), MotifId(0));
        assert_eq!(ml.drop_edge(EdgeId(0)), 2);
        assert!(!ml.get(a).alive());
        assert!(!ml.get(b).alive());
        assert!(ml.get(c).alive());
        assert_eq!(ml.matches_at_vertex(VertexId(2)), vec![c]);
        assert_eq!(ml.len(), 1);
    }

    #[test]
    fn kill_then_reinsert_is_allowed() {
        let mut ml = MatchList::new();
        let a = ml.insert_single(se(0, 1, 2), MotifId(0));
        ml.kill(a);
        assert_eq!(ml.len(), 0);
        // The same sub-graph may legitimately reform later in the stream.
        ml.insert_single(se(0, 1, 2), MotifId(0));
        assert_eq!(ml.len(), 1);
    }

    #[test]
    fn match_ref_degree_helpers() {
        let mut ml = MatchList::new();
        let a = ml.insert_single(se(0, 1, 2), MotifId(0));
        let b = ml.insert_extension(a, se(1, 2, 3), MotifId(0)).unwrap();
        let m = ml.get(b);
        assert_eq!(m.vertices(), vec![VertexId(1), VertexId(2), VertexId(3)]);
        assert_eq!(m.degree(VertexId(2)), 2);
        assert_eq!(m.degree(VertexId(1)), 1);
        assert_eq!(m.degree(VertexId(9)), 0);
        assert_eq!(m.degrees(VertexId(1), VertexId(2)), (1, 2));
        assert!(m.contains_edge(EdgeId(1)));
        assert!(!m.contains_edge(EdgeId(9)));
    }

    #[test]
    fn recent_lookup_caps_skips_dead_and_appends() {
        let mut ml = MatchList::new();
        let ids: Vec<MatchId> = (0..6)
            .map(|i| ml.insert_single(se(i, 1, 10 + i), MotifId(0)))
            .collect();
        ml.kill(ids[5]);
        ml.kill(ids[2]);
        // Newest 3 live at the shared vertex, ascending: 1, 3, 4.
        let mut out = Vec::new();
        ml.recent_matches_at_vertex_into(VertexId(1), 3, &mut out);
        assert_eq!(out, vec![ids[1], ids[3], ids[4]]);
        // Uncapped: all live, ascending.
        out.clear();
        ml.recent_matches_at_vertex_into(VertexId(1), usize::MAX, &mut out);
        assert_eq!(out, vec![ids[0], ids[1], ids[3], ids[4]]);
        // Appending preserves what the caller already collected.
        ml.recent_matches_at_vertex_into(VertexId(11), 8, &mut out);
        assert_eq!(out, vec![ids[0], ids[1], ids[3], ids[4], ids[1]]);
        // Unknown vertex: no-op.
        ml.recent_matches_at_vertex_into(VertexId(99), 8, &mut out);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn compact_leaves_queries_clean_without_a_sweep() {
        // compact() no longer sweeps the indices below the reclaim
        // threshold — every read path must still filter dead entries
        // on its own.
        let mut ml = MatchList::new();
        let a = ml.insert_single(se(0, 1, 2), MotifId(0));
        ml.insert_single(se(1, 2, 3), MotifId(0));
        ml.kill(a);
        ml.compact();
        assert_eq!(ml.generation, 0, "tiny arena: no reclaim");
        assert!(ml.matches_at_vertex(VertexId(1)).is_empty());
        assert_eq!(ml.matches_at_vertex(VertexId(2)).len(), 1);
        let mut out = Vec::new();
        ml.matches_at_edge_into(EdgeId(0), &mut out);
        assert!(out.is_empty(), "dead match filtered from by_edge reads");
    }

    #[test]
    fn register_prunes_hub_rows_on_the_push_cadence() {
        // The per-row amortized pruning is what bounds by_vertex rows
        // now that compact() never sweeps them: kill everything at a
        // hub, keep inserting, and the row must stay ~2× live instead
        // of growing with matches-ever.
        let mut ml = MatchList::new();
        for i in 0..4_000u32 {
            let id = ml.insert_single(se(i, 1, 10 + i), MotifId(0));
            ml.kill(id);
        }
        assert_eq!(ml.len(), 0);
        let row_len = ml.by_vertex.get(VertexId(1)).len();
        assert!(
            row_len <= 2_048,
            "hub row grew unboundedly: {row_len} entries for 0 live matches"
        );
    }

    fn saved(ml: &MatchList) -> Vec<u8> {
        let mut w = loom_wal::ByteWriter::new();
        ml.wal_save(&mut w);
        w.into_bytes()
    }

    fn loaded(bytes: &[u8], motifs: usize) -> Result<MatchList, loom_wal::WalError> {
        let mut ml = MatchList::new();
        ml.wal_load(&mut loom_wal::ByteReader::new(bytes), motifs)?;
        Ok(ml)
    }

    #[test]
    fn wal_load_equals_a_reclaimed_list() {
        // Shared tails (an extension and a join on one base), a dead
        // single under a live extension, and dead matches in between.
        let mut ml = MatchList::new();
        let a = ml.insert_single(se(0, 1, 2), MotifId(0));
        let b = ml.insert_extension(a, se(1, 2, 3), MotifId(1)).unwrap();
        let c = ml.insert_single(se(2, 3, 4), MotifId(0));
        ml.insert_join(b, &[se(2, 3, 4), se(3, 4, 5)], MotifId(2));
        ml.insert_extension(c, se(4, 4, 6), MotifId(1)).unwrap();
        ml.kill(a);
        ml.kill(c);
        let bytes = saved(&ml);
        let back = loaded(&bytes, 3).unwrap();
        assert_eq!(saved(&back), bytes, "save -> load -> save");
        ml.reclaim();
        assert_eq!(saved(&ml), bytes, "reclaim leaves the content as it was");
        assert_eq!(back.cells.len(), ml.cells.len());
        assert_eq!(back.len(), 3);
        for v in 1..=6 {
            let v = VertexId(v);
            assert_eq!(back.matches_at_vertex(v), ml.matches_at_vertex(v), "{v:?}");
        }
        for e in 0..5 {
            let e = EdgeId(e);
            assert_eq!(back.matches_at_edge(e), ml.matches_at_edge(e), "{e:?}");
        }
        // The dedup set came back: neither the live join nor the live
        // extension of the dead single c can be inserted again.
        let mut back = back;
        let b = back.matches_at_edge(EdgeId(1))[0];
        assert!(back
            .insert_join(b, &[se(2, 3, 4), se(3, 4, 5)], MotifId(2))
            .is_none());
        let c = back.insert_single(se(2, 3, 4), MotifId(0));
        assert!(back.insert_extension(c, se(4, 4, 6), MotifId(1)).is_none());
    }

    #[test]
    fn wal_load_rejects_index_ids_outside_the_arena() {
        // One match over edge 0: the cell count and one cell (parent
        // u32 + a 16-byte edge), the match count, then the match's
        // head cell and motif.
        let mut ml = MatchList::new();
        ml.insert_single(se(0, 1, 2), MotifId(0));
        let good = saved(&ml);
        let head_at = 8 + 20 + 8;
        assert_eq!(good.len(), head_at + 8);
        assert!(loaded(&good, 1).is_ok());
        for (what, at, want) in [
            ("head cell", head_at, "roots at cell 1"),
            ("motif", head_at + 4, "is motif 1"),
        ] {
            let mut bad = good.clone();
            bad[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
            match loaded(&bad, 1) {
                Err(loom_wal::WalError::Corrupt(m)) => assert!(m.contains(want), "{what}: {m}"),
                other => panic!(
                    "{what} past the arena loaded as {:?}",
                    other.map(|l| l.len())
                ),
            }
        }
    }

    #[test]
    fn wal_load_refuses_matches_the_live_list_cannot_hold() {
        // Hand-built arenas: one chain of `cells` cells, then `heads`
        // matches (motif 0) at the given cells.
        let arena = |cells: u32, heads: &[u32]| {
            let mut w = loom_wal::ByteWriter::new();
            w.u64(cells as u64);
            for i in 0..cells {
                w.u32(if i == 0 { NO_CELL } else { i - 1 });
                se(i, i, i + 1).wal_encode(&mut w);
            }
            w.u64(heads.len() as u64);
            for &head in heads {
                w.u32(head);
                w.u32(0);
            }
            w.into_bytes()
        };
        assert!(loaded(&arena(255, &[1, 254]), 1).is_ok());
        for (what, bytes, want) in [
            (
                "a repeated match",
                arena(2, &[1, 1]),
                "match 1 repeats a live match",
            ),
            (
                "a 256-edge chain",
                arena(256, &[255]),
                "match 0 runs past 255 edges",
            ),
        ] {
            match loaded(&bytes, 1) {
                Err(loom_wal::WalError::Corrupt(m)) => assert!(m.contains(want), "{what}: {m}"),
                other => panic!("{what} loaded as {:?}", other.map(|l| l.len())),
            }
        }
    }

    #[test]
    fn reclaim_frees_emptied_vertex_rows_for_reuse() {
        let mut ml = MatchList::new();
        let a = ml.insert_single(se(0, 1, 2), MotifId(0));
        ml.insert_single(se(1, 3, 4), MotifId(0));
        assert_eq!(ml.vertex_row_counts(), (5, 4));
        ml.kill(a);
        ml.reclaim();
        // Vertices 1 and 2 lost their only entry: their rows are free.
        assert!(ml.matches_at_vertex(VertexId(1)).is_empty());
        assert_eq!(ml.by_vertex.free.len(), 2);
        assert_eq!(ml.by_vertex.slot[1], NO_ROW);
        // New vertices take the freed rows instead of growing the slab.
        let c = ml.insert_single(se(2, 5, 6), MotifId(0));
        assert_eq!(ml.vertex_row_counts(), (7, 4));
        assert_eq!(ml.matches_at_vertex(VertexId(6)), vec![c]);
        assert_eq!(ml.matches_at_vertex(VertexId(3)).len(), 1);
    }
}
