//! Vertex-centric k-way partition state (§1.3, §4).
//!
//! A partitioning is a disjoint family of vertex sets. All partitioners
//! in this crate share this state type: dense vertex→partition
//! assignment, per-partition sizes, the capacity constraint `C` used by
//! LDG's and equal opportunism's residual term, and the streaming
//! adjacency view (neighbours seen so far) the heuristics score with.
//!
//! Since the engine refactor (DESIGN.md §8) the state is *growable*:
//! the paper's streams are "of unknown, possibly unbounded, extent"
//! (§1.3), so vertices auto-register on first sight and the capacity
//! `C` comes from a [`CapacityModel`] — either fixed upfront from a
//! known stream extent ([`CapacityModel::Prescient`], reproducing the
//! classic `slack·n/k`) or recomputed from the running vertex count
//! ([`CapacityModel::Adaptive`]) so the residual/rationing terms stay
//! meaningful when nobody knows `n`.

use loom_graph::{PartitionId, StreamEdge, VertexId};
use loom_wal::{ByteReader, ByteWriter, WalError};
use std::collections::VecDeque;

/// Sentinel for "not yet assigned".
const UNASSIGNED: u32 = u32::MAX;

/// Where the capacity constraint `C` of §4 comes from.
///
/// Every capacity-aware heuristic in the paper (LDG's residual,
/// Fennel's α and hard cap, equal opportunism's bids) is written in
/// terms of the stream's total vertex count `n` — which an online
/// system does not know. This enum makes the assumption explicit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CapacityModel {
    /// The stream extent is known upfront (the paper's evaluation
    /// setting: streams are replayed from stored graphs, §5.1).
    /// `C = slack · num_vertices / k`, fixed for the whole run.
    Prescient {
        /// Total vertices the stream will touch.
        num_vertices: usize,
        /// Total edges the stream will carry (only Fennel's α needs
        /// it; other consumers ignore it).
        num_edges: usize,
    },
    /// Unknown extent: `C = slack · (vertices assigned so far) / k`,
    /// recomputed on every read. Monotone non-decreasing, so a
    /// partition that was under capacity never retroactively becomes
    /// over-full by a capacity *drop*.
    Adaptive,
}

impl CapacityModel {
    /// Prescient model for a stream whose totals are known.
    pub fn prescient(num_vertices: usize, num_edges: usize) -> Self {
        CapacityModel::Prescient {
            num_vertices,
            num_edges,
        }
    }

    /// Prescient model matching a materialised stream's extent — the
    /// paper's evaluation setting, where streams replay stored graphs.
    pub fn for_stream(stream: &loom_graph::GraphStream) -> Self {
        CapacityModel::Prescient {
            num_vertices: stream.num_vertices(),
            num_edges: stream.len(),
        }
    }

    /// True if this model fixes `C` upfront.
    pub fn is_prescient(&self) -> bool {
        matches!(self, CapacityModel::Prescient { .. })
    }
}

/// Assignment of vertices to `k` partitions, with sizes and capacity.
#[derive(Clone, Debug)]
pub struct PartitionState {
    k: usize,
    slack: f64,
    /// `Some(C)` in prescient mode; `None` recomputes from the count.
    fixed_capacity: Option<f64>,
    /// Flat vertex→partition column.
    assignment: Vec<u32>,
    /// Assigned vertices per partition.
    sizes: Vec<usize>,
    /// Assigned vertices in total.
    assigned: usize,
}

impl PartitionState {
    /// State for `k` partitions under the given capacity model, with
    /// capacity slack `slack` (the evaluation uses `slack = 1.1`,
    /// matching Fennel's ν). The state is growable: assigning a vertex
    /// beyond the current range registers it.
    ///
    /// # Panics
    /// Panics if `k == 0` or `slack <= 0`.
    pub fn new(k: usize, model: CapacityModel, slack: f64) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(slack > 0.0, "slack must be positive");
        let (fixed_capacity, reserve) = match model {
            CapacityModel::Prescient { num_vertices, .. } => (
                Some((slack * num_vertices as f64 / k as f64).max(1.0)),
                num_vertices,
            ),
            CapacityModel::Adaptive => (None, 0),
        };
        PartitionState {
            k,
            slack,
            fixed_capacity,
            assignment: vec![UNASSIGNED; reserve],
            sizes: vec![0; k],
            assigned: 0,
        }
    }

    /// Convenience: the pre-refactor constructor — `k` partitions over
    /// a stream known to touch `num_vertices` vertices, with
    /// `C = slack · n / k` fixed.
    pub fn prescient(k: usize, num_vertices: usize, slack: f64) -> Self {
        Self::new(k, CapacityModel::prescient(num_vertices, 0), slack)
    }

    /// Number of partitions.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The capacity constraint `C` — fixed in prescient mode, derived
    /// from the running assigned-vertex count in adaptive mode.
    #[inline]
    pub fn capacity(&self) -> f64 {
        match self.fixed_capacity {
            Some(c) => c,
            None => (self.slack * self.assigned as f64 / self.k as f64).max(1.0),
        }
    }

    /// The capacity slack in use.
    #[inline]
    pub fn slack(&self) -> f64 {
        self.slack
    }

    /// True if `C` was fixed upfront from a known stream extent.
    #[inline]
    pub fn is_prescient(&self) -> bool {
        self.fixed_capacity.is_some()
    }

    /// Vertices this state has ever been told about (the registered id
    /// range; prescient states pre-register the full range).
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// Partition of `v`, if assigned. Vertices beyond the registered
    /// range are simply unassigned, never an error.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> Option<PartitionId> {
        match self.assignment.get(v.0 as usize) {
            Some(&UNASSIGNED) | None => None,
            Some(&p) => Some(PartitionId(p)),
        }
    }

    /// True if `v` has been permanently placed.
    #[inline]
    pub fn is_assigned(&self, v: VertexId) -> bool {
        self.partition_of(v).is_some()
    }

    /// Permanently assign `v` to `p`, registering `v` on first sight.
    /// Idempotent for the same target; re-assignment to a *different*
    /// partition is a bug (streaming partitioners never refine, §1.2)
    /// and panics.
    pub fn assign(&mut self, v: VertexId, p: PartitionId) {
        let idx = v.0 as usize;
        if self.assignment.len() <= idx {
            self.assignment.resize(idx + 1, UNASSIGNED);
        }
        let cell = &mut self.assignment[idx];
        if *cell == p.0 {
            return;
        }
        assert_eq!(
            *cell, UNASSIGNED,
            "streaming re-assignment of {v:?}: {} -> {}",
            *cell, p.0
        );
        *cell = p.0;
        self.sizes[p.index()] += 1;
        self.assigned += 1;
    }

    /// Vertices currently in partition `p`.
    #[inline]
    pub fn size(&self, p: PartitionId) -> usize {
        self.sizes[p.index()]
    }

    /// All partition sizes, indexed by partition.
    #[inline]
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Size of the smallest partition (`S_min` of Eq. 2).
    pub fn min_size(&self) -> usize {
        *self.sizes.iter().min().expect("k >= 1")
    }

    /// Size of the largest partition.
    pub fn max_size(&self) -> usize {
        *self.sizes.iter().max().expect("k >= 1")
    }

    /// LDG's residual-capacity weight `1 - |V(S_i)| / C` (§4).
    #[inline]
    pub fn residual(&self, p: PartitionId) -> f64 {
        1.0 - self.sizes[p.index()] as f64 / self.capacity()
    }

    /// The least-loaded partition (ties to the lowest id) — the shared
    /// fallback when heuristics score everything zero.
    pub fn least_loaded(&self) -> PartitionId {
        let mut best = 0usize;
        for i in 1..self.k {
            if self.sizes[i] < self.sizes[best] {
                best = i;
            }
        }
        PartitionId(best as u32)
    }

    /// Iterator over partition ids.
    pub fn partitions(&self) -> impl Iterator<Item = PartitionId> {
        (0..self.k as u32).map(PartitionId)
    }

    /// Number of assigned vertices.
    pub fn assigned_count(&self) -> usize {
        self.assigned
    }

    /// `max_size / mean_size - 1` over the assigned vertices (0 when
    /// none are assigned): the imbalance every engine snapshot and
    /// every served view reports.
    pub fn imbalance(&self) -> f64 {
        if self.assigned == 0 {
            return 0.0;
        }
        let mean = self.assigned as f64 / self.k as f64;
        self.max_size() as f64 / mean - 1.0
    }

    /// A point-in-time [`Assignment`] copy (the engine's mid-stream
    /// snapshots use this; unassigned vertices stay unassigned).
    pub fn to_assignment(&self) -> Assignment {
        Assignment {
            k: self.k,
            assignment: self.assignment.clone(),
        }
    }

    /// Freeze into an [`Assignment`].
    pub fn into_assignment(self) -> Assignment {
        Assignment {
            k: self.k,
            assignment: self.assignment,
        }
    }

    /// Serialize the mutable state for a crash-recovery checkpoint
    /// (DESIGN.md §15). Config (`k`, `slack`, capacity model) is NOT
    /// written — the resuming process reconstructs it and the
    /// checkpoint fingerprint guarantees it matches. The aggregates
    /// are written alongside the column they derive from, so
    /// [`PartitionState::wal_load`] can check one against the other.
    pub fn wal_save(&self, w: &mut ByteWriter) {
        w.u64(self.assignment.len() as u64);
        for &cell in &self.assignment {
            w.u32(cell);
        }
        w.u64(self.assigned as u64);
        for &s in &self.sizes {
            w.u64(s as u64);
        }
    }

    /// Inverse of [`PartitionState::wal_save`], applied to a freshly
    /// constructed state with the same config. The sizes and the
    /// assigned count are derived from the column; stored aggregates
    /// that disagree with it are [`WalError::Corrupt`].
    pub fn wal_load(&mut self, r: &mut ByteReader) -> Result<(), WalError> {
        let n = r.len_prefix(4)?;
        let mut assignment = Vec::with_capacity(n);
        let mut sizes = vec![0usize; self.k];
        for i in 0..n {
            let cell = r.u32()?;
            if cell != UNASSIGNED {
                let Some(size) = sizes.get_mut(cell as usize) else {
                    return Err(WalError::Corrupt(format!(
                        "partition state: assignment cell {i} holds partition {cell}, k = {}",
                        self.k
                    )));
                };
                *size += 1;
            }
            assignment.push(cell);
        }
        let assigned: usize = sizes.iter().sum();
        let stored = r.u64()?;
        if stored != assigned as u64 {
            return Err(WalError::Corrupt(format!(
                "partition state: {stored} assigned vertices stored, the column holds {assigned}"
            )));
        }
        for (p, &size) in sizes.iter().enumerate() {
            let stored = r.u64()?;
            if stored != size as u64 {
                return Err(WalError::Corrupt(format!(
                    "partition state: partition {p} stored with {stored} vertices, \
                     the column holds {size}"
                )));
            }
        }
        self.assignment = assignment;
        self.sizes = sizes;
        self.assigned = assigned;
        Ok(())
    }
}

/// A finished vertex→partition mapping, consumed by the query engine's
/// ipt accounting and the quality metrics.
#[derive(Clone, Debug)]
pub struct Assignment {
    k: usize,
    assignment: Vec<u32>,
}

impl Assignment {
    /// An all-unassigned mapping over `n` vertices — the starting
    /// point for building an assignment outside a partitioner (the
    /// serving layer's frozen views, tests).
    pub fn unassigned(k: usize, n: usize) -> Assignment {
        Assignment {
            k,
            assignment: vec![UNASSIGNED; n],
        }
    }

    /// Record `v → p`, growing the mapping if `v` is beyond its end.
    pub fn assign(&mut self, v: VertexId, p: PartitionId) {
        if v.index() >= self.assignment.len() {
            self.assignment.resize(v.index() + 1, UNASSIGNED);
        }
        self.assignment[v.index()] = p.0;
    }

    /// Number of partitions.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Partition of `v`, if it was ever assigned.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> Option<PartitionId> {
        match self.assignment.get(v.index()) {
            Some(&UNASSIGNED) | None => None,
            Some(&p) => Some(PartitionId(p)),
        }
    }

    /// True if the endpoints of an edge land in different partitions
    /// (an inter-partition edge; traversing it is an ipt).
    pub fn is_cut(&self, u: VertexId, v: VertexId) -> bool {
        match (self.partition_of(u), self.partition_of(v)) {
            (Some(a), Some(b)) => a != b,
            // An unassigned endpoint lives in no permanent partition;
            // treat as cut (it would be a remote access in practice).
            _ => true,
        }
    }

    /// Iterate over all assigned `(vertex, partition)` pairs in vertex
    /// id order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, PartitionId)> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| match p {
                UNASSIGNED => None,
                p => Some((VertexId(i as u32), PartitionId(p))),
            })
    }

    /// Partition sizes (assigned vertices only).
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &p in &self.assignment {
            if p != UNASSIGNED {
                sizes[p as usize] += 1;
            }
        }
        sizes
    }
}

/// Retention policy for the streaming adjacency: how far back in the
/// stream a vertex's recorded neighbourhood reaches (DESIGN.md §11).
///
/// The paper's heuristics are written against "the local neighbourhood
/// of each new element *at the time it arrives*" (§1.2), and on a
/// stream "of unknown, possibly unbounded, extent" (§1.3) keeping that
/// neighbourhood forever is the last stream-length-proportional state
/// in the partitioners. Loom's scoring only ever needs the
/// query-relevant recent neighbourhood — the window-bounded motif
/// matches — so the default ties retention to the sliding window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdjacencyHorizon {
    /// Keep every edge ever seen (the paper's implicit setting, and
    /// the right choice for materialised replays).
    Unbounded,
    /// Retain only the neighbourhood contributed by the most recent
    /// `n` edges of the stream.
    Edges(u64),
    /// Retain the last `m × window_size` edges, resolved when the
    /// partitioner is built. Under a prescient capacity model the
    /// stream extent is known and finite, so the window-tied default
    /// resolves to [`AdjacencyHorizon::Unbounded`] — the horizon never
    /// bites a paper-pipeline replay. Adaptive (truly online) runs get
    /// the bounded store.
    Windows(u64),
}

impl AdjacencyHorizon {
    /// The default retention, in sliding windows: edges fall out of
    /// the adjacency 64 windows after they arrived. Far beyond any
    /// motif-match lifetime (matches die with their window residency)
    /// yet a fixed multiple of the one knob the operator already
    /// tunes.
    pub const DEFAULT_WINDOW_MULTIPLE: u64 = 64;

    /// Resolve to a concrete retention: `None` = unbounded, `Some(n)`
    /// = keep the last `n` edges.
    pub fn resolve(self, window_size: usize, capacity: &CapacityModel) -> Option<u64> {
        match self {
            AdjacencyHorizon::Unbounded => None,
            AdjacencyHorizon::Edges(n) => Some(n.max(1)),
            AdjacencyHorizon::Windows(m) => match capacity {
                // Extent known upfront: the window-tied default must
                // never perturb a replayed evaluation run, so it
                // resolves to unbounded (zero retention bookkeeping on
                // the paper path). Force aging in prescient runs with
                // an explicit `Edges(n)`.
                CapacityModel::Prescient { .. } => None,
                CapacityModel::Adaptive => Some(m.max(1).saturating_mul(window_size.max(1) as u64)),
            },
        }
    }
}

impl Default for AdjacencyHorizon {
    fn default() -> Self {
        AdjacencyHorizon::Windows(Self::DEFAULT_WINDOW_MULTIPLE)
    }
}

/// Occupancy of an [`OnlineAdjacency`], mirroring the match arena's
/// occupancy stat ([`loom_matcher::ArenaOccupancy`]): how many neighbourhood
/// entries are retained (live), how many are resident (live + aged-out
/// entries awaiting compaction), how many were ever recorded, and how
/// many generational compactions have run. Surfaced through engine
/// snapshots so a long-running ingest can *observe* that retention
/// holds resident memory flat instead of trusting that it does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdjacencyOccupancy {
    /// Entries within the retention horizon (2 per retained edge).
    pub live_entries: usize,
    /// Entries physically resident, aged-out ones included.
    pub resident_entries: usize,
    /// Directed entries ever recorded (2 per edge seen).
    pub entries_ever: u64,
    /// Completed generational compactions.
    pub generation: u64,
}

/// Minimum resident population before a compaction is worth the copy
/// (mirrors the match arena's floor; below this the store is too small
/// to matter).
const ADJACENCY_RECLAIM_MIN_ENTRIES: usize = 4_096;

/// Inline slots per adjacency row. Most rows of the evaluation streams
/// hold at most three entries (`provgen-bfs`: 99% of 645k rows), so
/// they live entirely in the row array; a row with a fourth entry moves
/// to the spill slab.
const INLINE_ROW: usize = 3;

/// [`AdjacencyRow::meta`] bits 0–1: the entry count while inline.
const LEN_MASK: u32 = 0b11;
/// Bits 2–3: the head while inline.
const HEAD_SHIFT: u32 = 2;
const HEAD_MASK: u32 = 0b11 << HEAD_SHIFT;
/// Bit 4: the entries live in the spill slab at index `slots[0]`.
const SPILLED: u32 = 1 << 4;

/// One vertex's neighbour list. Entries are appended in arrival order
/// and age out in the same order, so the retained neighbourhood is
/// always the suffix starting at the head; the dead prefix stays
/// resident until the next generational compaction.
///
/// Storage is inline-first: up to [`INLINE_ROW`] entries and the head
/// live in the row itself. A row that outgrows them moves its entries
/// and head to a [`Spill`] in the store's slab and keeps only the slab
/// index. The entry sequence a reader observes is identical either
/// way; the representation is pure layout.
#[derive(Clone, Copy, Debug)]
struct AdjacencyRow {
    /// The entries while inline; `slots[0]` is the slab index once
    /// spilled.
    slots: [VertexId; INLINE_ROW],
    /// Inline length, inline head and [`SPILLED`].
    meta: u32,
}

const _: () = assert!(std::mem::size_of::<AdjacencyRow>() == 16);

impl AdjacencyRow {
    const EMPTY: AdjacencyRow = AdjacencyRow {
        slots: [VertexId(0); INLINE_ROW],
        meta: 0,
    };

    #[inline]
    fn spill(self) -> Option<usize> {
        (self.meta & SPILLED != 0).then_some(self.slots[0].0 as usize)
    }

    #[inline]
    fn inline_len(self) -> usize {
        (self.meta & LEN_MASK) as usize
    }

    #[inline]
    fn inline_head(self) -> usize {
        ((self.meta & HEAD_MASK) >> HEAD_SHIFT) as usize
    }
}

/// The entries and head of a row that outgrew its inline slots.
#[derive(Clone, Debug)]
struct Spill {
    /// Index of the first retained entry of `nbrs`.
    head: u32,
    nbrs: Vec<VertexId>,
}

/// Streaming adjacency: the neighbourhood each vertex has accumulated
/// *within the retention horizon*. Loom scores its bypass placements
/// and its LDG fallback against this view — "the local neighbourhood
/// of each new element *at the time it arrives*" (§1.2) — and the
/// restream pass scores against an unbounded one. The edge-stream LDG
/// and Fennel keep none: a vertex they place is seen for the first
/// time, so its neighbourhood is the other endpoint of the current
/// edge. Growable: vertices register on the first edge that touches
/// them.
///
/// With a bounded horizon the store is generational (DESIGN.md §11):
/// edges older than the horizon age out of both endpoints' rows in
/// O(1) (rows consume strictly in arrival order, so aging is a head
/// bump, never a scan), and when the dead prefixes outnumber the live
/// entries a deterministic compaction copies the retained suffixes
/// down and frees fully-dead rows — resident memory is bounded by a
/// small multiple of the horizon, not by the stream length. Unbounded
/// mode keeps the original grow-forever behaviour bit for bit.
#[derive(Clone, Debug)]
pub struct OnlineAdjacency {
    rows: Vec<AdjacencyRow>,
    /// Storage of the rows that outgrew their inline slots, indexed by
    /// a spilled row's `slots[0]`.
    spills: Vec<Spill>,
    /// Slab slots whose row cooled back inline or emptied, reused
    /// before the slab grows.
    free_spills: Vec<u32>,
    /// `None` = unbounded.
    horizon: Option<u64>,
    /// Arrival-ordered ring of the retained edges (bounded mode only):
    /// the expiry queue. Never longer than the horizon.
    recent: VecDeque<(VertexId, VertexId)>,
    /// Rows with a non-empty dead prefix (`head > 0`), each recorded
    /// exactly once: compaction visits only these, so its cost scales
    /// with the aged rows, not with every vertex ever seen.
    aged_rows: Vec<u32>,
    /// Entries within the horizon.
    live: usize,
    /// Entries resident but aged out (awaiting compaction).
    dead: usize,
    /// Directed entries ever recorded.
    ever: u64,
    /// Completed compactions.
    generation: u64,
}

impl Default for OnlineAdjacency {
    fn default() -> Self {
        Self::with_retention(None, 0)
    }
}

impl OnlineAdjacency {
    /// An empty unbounded adjacency; vertices register as edges arrive.
    pub fn new() -> Self {
        OnlineAdjacency::default()
    }

    /// An empty unbounded adjacency pre-sized for `num_vertices`
    /// vertices (a capacity hint for prescient runs; behaviour is
    /// identical).
    pub fn with_capacity(num_vertices: usize) -> Self {
        Self::with_retention(None, num_vertices)
    }

    /// An empty adjacency that retains only the last `horizon` edges.
    ///
    /// # Panics
    /// Panics if `horizon == 0`.
    pub fn bounded(horizon: u64) -> Self {
        assert!(horizon > 0, "retention horizon must be positive");
        Self::with_retention(Some(horizon), 0)
    }

    /// General constructor: `None` = unbounded, `Some(n)` = retain the
    /// last `n` edges; `num_vertices` is a row-capacity hint.
    pub fn with_retention(horizon: Option<u64>, num_vertices: usize) -> Self {
        if let Some(h) = horizon {
            assert!(h > 0, "retention horizon must be positive");
        }
        OnlineAdjacency {
            rows: vec![AdjacencyRow::EMPTY; num_vertices],
            spills: Vec::new(),
            free_spills: Vec::new(),
            horizon,
            recent: VecDeque::new(),
            aged_rows: Vec::new(),
            live: 0,
            dead: 0,
            ever: 0,
            generation: 0,
        }
    }

    /// The retention horizon in edges (`None` = unbounded).
    #[inline]
    pub fn horizon(&self) -> Option<u64> {
        self.horizon
    }

    /// Every resident entry of `row`, dead prefix included, in arrival
    /// order, and the index of its first retained entry.
    #[inline]
    fn resident<'a>(&'a self, row: &'a AdjacencyRow) -> (&'a [VertexId], usize) {
        match row.spill() {
            Some(at) => {
                let spill = &self.spills[at];
                (&spill.nbrs, spill.head as usize)
            }
            None => (&row.slots[..row.inline_len()], row.inline_head()),
        }
    }

    /// Append `to` to the row of `from`, growing the vertex range as
    /// needed.
    #[inline]
    fn push(&mut self, from: VertexId, to: VertexId) {
        let idx = from.index();
        if self.rows.len() <= idx {
            self.rows.resize(idx + 1, AdjacencyRow::EMPTY);
        }
        let row = &mut self.rows[idx];
        if let Some(at) = row.spill() {
            self.spills[at].nbrs.push(to);
            return;
        }
        let len = row.inline_len();
        if len < INLINE_ROW {
            row.slots[len] = to;
            row.meta += 1;
            return;
        }
        // Outgrew the inline slots: move entries and head to the slab.
        let mut nbrs = Vec::with_capacity(2 * (INLINE_ROW + 1));
        nbrs.extend_from_slice(&row.slots);
        nbrs.push(to);
        let spill = Spill {
            head: row.inline_head() as u32,
            nbrs,
        };
        let at = match self.free_spills.pop() {
            Some(at) => {
                self.spills[at as usize] = spill;
                at
            }
            None => {
                self.spills.push(spill);
                (self.spills.len() - 1) as u32
            }
        };
        row.slots[0] = VertexId(at);
        row.meta = SPILLED;
    }

    /// Record an arrived edge (both directions), growing the vertex
    /// range as needed. In bounded mode the edge that falls off the
    /// horizon, if any, ages out and is returned.
    pub fn add(&mut self, e: &StreamEdge) -> Option<(VertexId, VertexId)> {
        self.insert(e);
        let expired = self.expire_oldest();
        if expired.is_some() {
            self.maybe_compact();
        }
        expired
    }

    fn insert(&mut self, e: &StreamEdge) {
        self.push(e.src, e.dst);
        self.push(e.dst, e.src);
        self.live += 2;
        self.ever += 2;
        if self.horizon.is_some() {
            self.recent.push_back((e.src, e.dst));
        }
    }

    /// Age out the oldest retained edge if the ring has outgrown the
    /// horizon. Rows fill and drain in the same global arrival order,
    /// so the expiring entry is always each endpoint row's current
    /// head — an O(1) bump, asserted in debug builds.
    fn expire_oldest(&mut self) -> Option<(VertexId, VertexId)> {
        let h = self.horizon? as usize;
        if self.recent.len() <= h {
            return None;
        }
        let (u, v) = self.recent.pop_front().expect("ring longer than horizon");
        for (from, to) in [(u, v), (v, u)] {
            let row = self.rows[from.index()];
            let (entries, head) = self.resident(&row);
            debug_assert_eq!(
                entries.get(head),
                Some(&to),
                "adjacency aged out of arrival order at {from:?}"
            );
            if head == 0 {
                // First dead entry since the last compaction: remember
                // the row (head > 0 ⇔ recorded once in `aged_rows`).
                self.aged_rows.push(from.0);
            }
            match row.spill() {
                Some(at) => self.spills[at].head += 1,
                None => self.rows[from.index()].meta += 1 << HEAD_SHIFT,
            }
        }
        self.live -= 2;
        self.dead += 2;
        Some((u, v))
    }

    /// Deterministic generational compaction, mirroring the match
    /// arena's trigger: when the dead prefixes outnumber the live
    /// entries (and the store is big enough to matter), copy each aged
    /// row's retained suffix to its front and free fully-dead rows.
    /// Amortized O(1) per add — each compaction visits only the rows
    /// that aged since the last one (never the full, unboundedly
    /// growing vertex range), does work proportional to their resident
    /// entries, and reclaims at least half of the store.
    fn maybe_compact(&mut self) {
        if self.dead <= self.live || self.live + self.dead < ADJACENCY_RECLAIM_MIN_ENTRIES {
            return;
        }
        for idx in std::mem::take(&mut self.aged_rows) {
            let row = &mut self.rows[idx as usize];
            let Some(at) = row.spill() else {
                // Inline row: slide the retained suffix to the front.
                let (len, head) = (row.inline_len(), row.inline_head());
                debug_assert!(head > 0, "aged row recorded without a dead prefix");
                row.slots.copy_within(head..len, 0);
                row.meta = (len - head) as u32;
                continue;
            };
            let spill = &mut self.spills[at];
            debug_assert!(spill.head > 0, "aged row recorded without a dead prefix");
            spill.nbrs.drain(..spill.head as usize);
            spill.head = 0;
            let len = spill.nbrs.len();
            if len <= INLINE_ROW {
                // Cooled back to the inline slots (or emptied by an
                // idle vertex whose whole neighbourhood aged out): move
                // the survivors home and free the slab slot.
                row.slots[..len].copy_from_slice(&spill.nbrs);
                row.meta = len as u32;
                spill.nbrs = Vec::new();
                self.free_spills.push(at as u32);
                continue;
            }
            // A once-hot row keeps its peak capacity forever otherwise;
            // give back the overhang.
            let want = 2 * len;
            if spill.nbrs.capacity() > want * 2 {
                spill.nbrs.shrink_to(want);
            }
        }
        self.dead = 0;
        self.generation += 1;
    }

    /// Test-only visibility: rows currently carrying a dead prefix.
    #[doc(hidden)]
    pub fn aged_row_count(&self) -> usize {
        self.aged_rows.len()
    }

    /// Neighbours of `v` within the retention horizon (empty for
    /// unseen vertices; every neighbour ever seen in unbounded mode).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self.rows.get(v.index()) {
            Some(row) => {
                let (entries, head) = self.resident(row);
                &entries[head..]
            }
            None => &[],
        }
    }

    /// Add `v`'s retained neighbours to `acc` by partition: `acc[p]`
    /// gains `|N(v) ∩ S_p|`, counted with multiplicity, unassigned
    /// neighbours skipped. LDG's affinity row, the one scan every
    /// scorer over this store shares. `acc` holds `state.k()` cells.
    #[inline]
    pub fn partition_counts_into(&self, v: VertexId, state: &PartitionState, acc: &mut [u32]) {
        for &w in self.neighbors(v) {
            if let Some(p) = state.partition_of(w) {
                acc[p.index()] += 1;
            }
        }
    }

    /// Degree of `v` within the retention horizon.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Point-in-time occupancy (retained / resident / ever /
    /// generation).
    pub fn occupancy(&self) -> AdjacencyOccupancy {
        AdjacencyOccupancy {
            live_entries: self.live,
            resident_entries: self.live + self.dead,
            entries_ever: self.ever,
            generation: self.generation,
        }
    }

    /// Serialize the adjacency's live content for a crash-recovery
    /// checkpoint (DESIGN.md §15): each non-empty row as its vertex and
    /// retained neighbours, ascending by vertex, then the expiry ring
    /// and the entries-ever count. Dead prefixes, the aged-row
    /// worklist, inline or spilled, and the generation are layout:
    /// placements read only the retained neighbourhoods, and load
    /// rebuilds a compacted store. The horizon is config.
    pub fn wal_save(&self, w: &mut ByteWriter) {
        let rowed = || {
            (0..self.rows.len() as u32)
                .map(|v| (v, self.neighbors(VertexId(v))))
                .filter(|(_, nbrs)| !nbrs.is_empty())
        };
        w.u64(rowed().count() as u64);
        for (v, nbrs) in rowed() {
            w.u32(v);
            w.u32(nbrs.len() as u32);
            for &u in nbrs {
                w.u32(u.0);
            }
        }
        w.u64(self.recent.len() as u64);
        for &(u, v) in &self.recent {
            w.u32(u.0);
            w.u32(v.0);
        }
        w.u64(self.ever);
    }

    /// Inverse of [`OnlineAdjacency::wal_save`], applied to a freshly
    /// constructed adjacency with the same config: a compacted store,
    /// a row of more than `INLINE_ROW` entries in the slab, in vertex
    /// order with no free slots. Rows must ascend by vertex, be
    /// non-empty and fit the payload, and a bounded store's rows must
    /// hold exactly its ring's entries; a refusal names the row.
    pub fn wal_load(&mut self, r: &mut ByteReader) -> Result<(), WalError> {
        let nrows = r.len_prefix(4 + 4 + 4)?;
        let (mut rows, mut spills, mut live) = (Vec::new(), Vec::new(), 0);
        for i in 0..nrows {
            let v = r.u32()?;
            let corrupt =
                |what: String| WalError::Corrupt(format!("adjacency row {i} (vertex {v}) {what}"));
            if rows.len() > v as usize {
                return Err(corrupt(format!(
                    "does not ascend past vertex {}",
                    rows.len() - 1
                )));
            }
            let len = r.u32()? as usize;
            if len == 0 {
                return Err(corrupt("is empty".to_string()));
            }
            if len > r.remaining() / 4 {
                return Err(corrupt(format!(
                    "claims {len} entries, past the {} remaining bytes",
                    r.remaining()
                )));
            }
            let nbrs = (0..len)
                .map(|_| r.u32().map(VertexId))
                .collect::<Result<Vec<_>, _>>()?;
            let mut row = AdjacencyRow::EMPTY;
            if len <= INLINE_ROW {
                row.slots[..len].copy_from_slice(&nbrs);
                row.meta = len as u32;
            } else {
                row.slots[0] = VertexId(spills.len() as u32);
                row.meta = SPILLED;
                spills.push(Spill { head: 0, nbrs });
            }
            rows.resize(v as usize, AdjacencyRow::EMPTY);
            rows.push(row);
            live += len;
        }
        let nrecent = r.len_prefix(8)?;
        let recent: VecDeque<_> = (0..nrecent)
            .map(|_| Ok::<_, WalError>((VertexId(r.u32()?), VertexId(r.u32()?))))
            .collect::<Result<_, _>>()?;
        if self.horizon.is_some() && live != 2 * recent.len() {
            return Err(WalError::Corrupt(format!(
                "adjacency: the rows hold {live} entries, the ring's {} edges hold {}",
                recent.len(),
                2 * recent.len()
            )));
        }
        *self = OnlineAdjacency {
            rows,
            spills,
            recent,
            live,
            ever: r.u64()?,
            ..OnlineAdjacency::with_retention(self.horizon, 0)
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_and_sizes() {
        let mut s = PartitionState::prescient(3, 10, 1.1);
        s.assign(VertexId(0), PartitionId(1));
        s.assign(VertexId(5), PartitionId(1));
        s.assign(VertexId(2), PartitionId(0));
        assert_eq!(s.size(PartitionId(1)), 2);
        assert_eq!(s.size(PartitionId(0)), 1);
        assert_eq!(s.size(PartitionId(2)), 0);
        assert_eq!(s.min_size(), 0);
        assert_eq!(s.max_size(), 2);
        assert_eq!(s.assigned_count(), 3);
        assert_eq!(s.partition_of(VertexId(5)), Some(PartitionId(1)));
        assert_eq!(s.partition_of(VertexId(9)), None);
    }

    #[test]
    fn idempotent_assignment_ok() {
        let mut s = PartitionState::prescient(2, 4, 1.0);
        s.assign(VertexId(1), PartitionId(0));
        s.assign(VertexId(1), PartitionId(0));
        assert_eq!(s.size(PartitionId(0)), 1, "no double count");
    }

    #[test]
    #[should_panic(expected = "re-assignment")]
    fn reassignment_panics() {
        let mut s = PartitionState::prescient(2, 4, 1.0);
        s.assign(VertexId(1), PartitionId(0));
        s.assign(VertexId(1), PartitionId(1));
    }

    #[test]
    fn residual_falls_with_load() {
        let mut s = PartitionState::prescient(2, 10, 1.0);
        // C = 5.
        assert!((s.residual(PartitionId(0)) - 1.0).abs() < 1e-12);
        for i in 0..3 {
            s.assign(VertexId(i), PartitionId(0));
        }
        assert!((s.residual(PartitionId(0)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn least_loaded_breaks_ties_low() {
        let mut s = PartitionState::prescient(3, 9, 1.0);
        assert_eq!(s.least_loaded(), PartitionId(0));
        s.assign(VertexId(0), PartitionId(0));
        assert_eq!(s.least_loaded(), PartitionId(1));
    }

    #[test]
    fn assignment_cut_detection() {
        let mut s = PartitionState::prescient(2, 4, 1.0);
        s.assign(VertexId(0), PartitionId(0));
        s.assign(VertexId(1), PartitionId(1));
        s.assign(VertexId(2), PartitionId(0));
        let a = s.into_assignment();
        assert!(a.is_cut(VertexId(0), VertexId(1)));
        assert!(!a.is_cut(VertexId(0), VertexId(2)));
        assert!(
            a.is_cut(VertexId(0), VertexId(3)),
            "unassigned endpoint counts as cut"
        );
        assert_eq!(a.sizes(), vec![2, 1]);
    }

    #[test]
    fn online_adjacency_accumulates() {
        use loom_graph::{EdgeId, Label};
        let mut adj = OnlineAdjacency::new();
        let e = StreamEdge {
            id: EdgeId(0),
            src: VertexId(0),
            dst: VertexId(1),
            src_label: Label(0),
            dst_label: Label(0),
        };
        adj.add(&e);
        assert_eq!(adj.neighbors(VertexId(0)), &[VertexId(1)]);
        assert_eq!(adj.degree(VertexId(1)), 1);
        assert_eq!(adj.degree(VertexId(2)), 0, "unseen vertex: degree 0");
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        PartitionState::prescient(0, 10, 1.0);
    }

    fn edge(id: u32, src: u32, dst: u32) -> StreamEdge {
        use loom_graph::{EdgeId, Label};
        StreamEdge {
            id: EdgeId(id),
            src: VertexId(src),
            dst: VertexId(dst),
            src_label: Label(0),
            dst_label: Label(0),
        }
    }

    #[test]
    fn bounded_adjacency_ages_out_old_edges() {
        let mut adj = OnlineAdjacency::bounded(2);
        adj.add(&edge(0, 0, 1));
        adj.add(&edge(1, 0, 2));
        assert_eq!(adj.neighbors(VertexId(0)), &[VertexId(1), VertexId(2)]);
        // Edge 0 falls off the 2-edge horizon.
        adj.add(&edge(2, 0, 3));
        assert_eq!(adj.neighbors(VertexId(0)), &[VertexId(2), VertexId(3)]);
        assert_eq!(adj.neighbors(VertexId(1)), &[] as &[VertexId]);
        assert_eq!(adj.degree(VertexId(1)), 0);
        let occ = adj.occupancy();
        assert_eq!(occ.live_entries, 4);
        assert_eq!(occ.entries_ever, 6);
        assert!(occ.resident_entries >= occ.live_entries);
    }

    #[test]
    fn bounded_adjacency_reports_expired_edges() {
        let mut adj = OnlineAdjacency::bounded(1);
        assert_eq!(
            adj.add(&edge(0, 3, 4)),
            None,
            "nothing beyond the horizon yet"
        );
        assert_eq!(adj.add(&edge(1, 4, 5)), Some((VertexId(3), VertexId(4))));
    }

    #[test]
    fn unbounded_adjacency_never_expires() {
        let mut adj = OnlineAdjacency::new();
        for i in 0..100u32 {
            assert_eq!(adj.add(&edge(i, 0, i + 1)), None);
        }
        assert_eq!(adj.degree(VertexId(0)), 100);
        let occ = adj.occupancy();
        assert_eq!(occ.live_entries, 200);
        assert_eq!(occ.resident_entries, 200);
        assert_eq!(occ.generation, 0);
        assert_eq!(adj.horizon(), None);
    }

    #[test]
    fn bounded_adjacency_handles_self_loops_and_duplicates() {
        let mut adj = OnlineAdjacency::bounded(2);
        adj.add(&edge(0, 7, 7)); // self-loop: two entries in one row
        adj.add(&edge(1, 7, 8));
        assert_eq!(
            adj.neighbors(VertexId(7)),
            &[VertexId(7), VertexId(7), VertexId(8)]
        );
        adj.add(&edge(2, 7, 8)); // duplicate pair; self-loop ages out
        assert_eq!(adj.neighbors(VertexId(7)), &[VertexId(8), VertexId(8)]);
        assert_eq!(adj.neighbors(VertexId(8)), &[VertexId(7), VertexId(7)]);
    }

    #[test]
    fn bounded_adjacency_compacts_and_bounds_residency() {
        // Horizon far below the minimum-compaction floor would never
        // compact; use one big enough that dead > live crosses it.
        let horizon = 4_096u64;
        let mut adj = OnlineAdjacency::bounded(horizon);
        for i in 0..40_000u32 {
            // A hub plus rotating partners: row 0 churns hard.
            adj.add(&edge(i, 0, 1 + (i % 1_000)));
        }
        let occ = adj.occupancy();
        assert_eq!(occ.live_entries, 2 * horizon as usize);
        assert!(occ.generation >= 1, "compaction never ran");
        assert!(
            occ.resident_entries <= 4 * horizon as usize + 2,
            "residency {} not bounded by the horizon",
            occ.resident_entries
        );
        assert_eq!(occ.entries_ever, 80_000);
        // The hub's retained degree equals the horizon (every retained
        // edge touches it).
        assert_eq!(adj.degree(VertexId(0)), horizon as usize);
        // Compaction work scales with the rows that aged since the
        // last generation, never the whole vertex range: the tracked
        // set is a subset of the 1001 touched vertices and resets each
        // generation.
        assert!(adj.aged_row_count() <= 1_001);
    }

    #[test]
    fn compaction_visits_only_aged_rows() {
        let mut adj = OnlineAdjacency::bounded(2_048);
        // One-shot vertices with ever-growing ids: every row ages to
        // fully-dead, the unbounded-service worst case.
        for i in 0..20_000u32 {
            adj.add(&edge(i, 2 * i, 2 * i + 1));
        }
        let occ = adj.occupancy();
        assert!(occ.generation >= 1);
        assert_eq!(occ.live_entries, 2 * 2_048);
        // Aged-but-uncompacted rows are bounded by the dead entries
        // (each aged row holds at least one), not by the 40k-vertex id
        // space.
        assert!(adj.aged_row_count() <= occ.resident_entries - occ.live_entries);
        // Content survives: the most recent edge's endpoints see each
        // other, fully-aged early rows are empty.
        assert_eq!(adj.neighbors(VertexId(39_999)), &[VertexId(39_998)]);
        assert_eq!(adj.degree(VertexId(0)), 0);
    }

    #[test]
    fn horizon_resolution_rules() {
        let prescient = CapacityModel::prescient(1_000, 5_000);
        let adaptive = CapacityModel::Adaptive;
        assert_eq!(AdjacencyHorizon::Unbounded.resolve(10, &adaptive), None);
        assert_eq!(
            AdjacencyHorizon::Edges(7).resolve(10, &adaptive),
            Some(7),
            "explicit horizons are respected as-is"
        );
        assert_eq!(
            AdjacencyHorizon::Edges(7).resolve(10, &prescient),
            Some(7),
            "explicit horizons bite even in prescient mode"
        );
        assert_eq!(
            AdjacencyHorizon::Windows(64).resolve(1_024, &adaptive),
            Some(65_536)
        );
        assert_eq!(
            AdjacencyHorizon::Windows(64).resolve(1_024, &prescient),
            None,
            "window-tied default never bites a replay of known extent"
        );
        assert_eq!(
            AdjacencyHorizon::default(),
            AdjacencyHorizon::Windows(AdjacencyHorizon::DEFAULT_WINDOW_MULTIPLE)
        );
    }

    #[test]
    fn growable_state_registers_on_first_sight() {
        let mut s = PartitionState::new(2, CapacityModel::Adaptive, 1.1);
        assert_eq!(s.num_vertices(), 0);
        s.assign(VertexId(1000), PartitionId(1));
        assert_eq!(s.partition_of(VertexId(1000)), Some(PartitionId(1)));
        assert_eq!(s.partition_of(VertexId(5)), None, "gap stays unassigned");
        assert_eq!(s.assigned_count(), 1);
        assert!(s.num_vertices() >= 1001);
    }

    #[test]
    fn adaptive_capacity_tracks_running_count() {
        let mut s = PartitionState::new(2, CapacityModel::Adaptive, 1.0);
        assert!((s.capacity() - 1.0).abs() < 1e-12, "floor at 1.0");
        for i in 0..10u32 {
            s.assign(VertexId(i), PartitionId(i % 2));
        }
        // C = 1.0 * 10 / 2 = 5.
        assert!((s.capacity() - 5.0).abs() < 1e-12);
        assert!((s.residual(PartitionId(0)) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn prescient_capacity_is_fixed() {
        let mut s = PartitionState::prescient(2, 10, 1.0);
        let c0 = s.capacity();
        for i in 0..6u32 {
            s.assign(VertexId(i), PartitionId(0));
        }
        assert_eq!(s.capacity().to_bits(), c0.to_bits());
        assert!(s.is_prescient());
        assert!(!PartitionState::new(2, CapacityModel::Adaptive, 1.0).is_prescient());
    }

    #[test]
    fn wal_load_rejects_aggregates_the_column_does_not_hold() {
        let fresh = || PartitionState::new(3, CapacityModel::Adaptive, 1.1);
        let mut s = fresh();
        for v in 0..10u32 {
            s.assign(VertexId(v), PartitionId(v % 3));
        }
        let mut w = ByteWriter::new();
        s.wal_save(&mut w);
        let bytes = w.into_bytes();
        let mut t = fresh();
        t.wal_load(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(t.sizes(), s.sizes());
        assert_eq!(t.assigned_count(), 10);
        // Layout: column length, 10 cells, assigned, 3 sizes.
        let assigned_at = 8 + 4 * 10;
        let size1_at = assigned_at + 8 + 8;
        assert_eq!(bytes.len(), assigned_at + 8 + 8 * 3);
        for (what, at) in [("assigned", assigned_at), ("size of partition 1", size1_at)] {
            let mut doctored = bytes.clone();
            doctored[at] ^= 1;
            let err = fresh().wal_load(&mut ByteReader::new(&doctored));
            assert!(
                matches!(err, Err(WalError::Corrupt(_))),
                "{what} flipped: {err:?}"
            );
        }
    }

    #[test]
    fn adjacency_wal_load_rejects_rows_the_ring_does_not_hold() {
        let mut adj = OnlineAdjacency::bounded(2);
        for i in 0..3 {
            adj.add(&edge(i, i, i + 1));
        }
        let mut w = ByteWriter::new();
        adj.wal_save(&mut w);
        let bytes = w.into_bytes();
        // Rows 1, 2 and 3, one or two entries each, then the ring's
        // length: 2 edges, 4 entries.
        let ring_at = 8 + (8 + 4) + (8 + 8) + (8 + 4);
        assert_eq!(bytes[ring_at..ring_at + 8], 2u64.to_le_bytes());
        let mut back = OnlineAdjacency::bounded(2);
        back.wal_load(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.neighbors(VertexId(2)), adj.neighbors(VertexId(2)));
        let mut doctored = bytes.clone();
        doctored[ring_at] = 1;
        match OnlineAdjacency::bounded(2).wal_load(&mut ByteReader::new(&doctored)) {
            Err(WalError::Corrupt(m)) => assert!(m.contains("the rows hold 4 entries"), "{m}"),
            other => panic!("a short ring loaded: {other:?}"),
        }
    }

    #[test]
    fn mid_stream_assignment_copy() {
        let mut s = PartitionState::new(3, CapacityModel::Adaptive, 1.1);
        s.assign(VertexId(2), PartitionId(1));
        let snap = s.to_assignment();
        s.assign(VertexId(3), PartitionId(2));
        assert_eq!(snap.partition_of(VertexId(2)), Some(PartitionId(1)));
        assert_eq!(snap.partition_of(VertexId(3)), None, "copy is frozen");
        assert_eq!(s.partition_of(VertexId(3)), Some(PartitionId(2)));
    }
}
