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

use crate::shard::{ShardMap, ShardOccupancy};
use loom_graph::{PartitionId, StreamEdge, VertexId};
use loom_runtime::{ChunkPanic, WorkerPool};
use loom_wal::{ByteReader, ByteWriter, WalError};
use std::collections::VecDeque;

/// Sentinel for "not yet assigned".
const UNASSIGNED: u32 = u32::MAX;

/// Warm-up slack for per-shard extent estimation (DESIGN.md §14): a
/// shard that owns fewer registered slots than this projects this many
/// instead — so the early stream, where per-shard extents are all
/// noise, never reports a collapsed estimate. Purely an observability
/// constant: it never feeds a placement decision, so it cannot perturb
/// results.
const SHARD_WARMUP_SLOTS: usize = 64;

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

/// One shard's size/assigned accumulators. The assignment column
/// itself stays ONE flat vertex-indexed vector (so the `shards = 1`
/// hot path pays zero extra indirection over the pre-shard layout) in
/// which shard `s` *owns* the striped indices `{s, s + N, ...}` — see
/// [`ShardMap`]. The global aggregates are always the exact integer
/// sums of these accumulators — that is the whole per-shard capacity
/// story (DESIGN.md §14): integer addition is associative and
/// order-free, so the aggregated `C` is bit-identical for any shard
/// count.
#[derive(Clone, Debug)]
struct ShardAccum {
    /// Per-partition assigned counts for the vertices this shard owns.
    sizes: Vec<usize>,
    /// Vertices this shard has permanently assigned.
    assigned: usize,
}

impl ShardAccum {
    fn empty(k: usize) -> Self {
        ShardAccum {
            sizes: vec![0; k],
            assigned: 0,
        }
    }
}

/// Assignment of vertices to `k` partitions, with sizes and capacity.
///
/// The assignment column is one flat vertex-indexed vector in which
/// shard `s` *owns* the striped indices `{s, s + N, ...}` (default: 1
/// shard, everything) — see [`ShardMap`] and DESIGN.md §14. In sharded
/// mode the global `sizes`/`assigned` aggregates are maintained
/// alongside per-shard accumulators on the sequential path and
/// resynced by exact integer summation after a parallel shard commit,
/// so every capacity read is bit-identical for any shard count.
#[derive(Clone, Debug)]
pub struct PartitionState {
    k: usize,
    slack: f64,
    /// `Some(C)` in prescient mode; `None` recomputes from the count.
    fixed_capacity: Option<f64>,
    map: ShardMap,
    /// Flat vertex→partition column (the pre-shard layout): shard `s`
    /// owns the striped indices `{s, s + N, ...}`. Layout-independent,
    /// so `set_shards` never re-keys it.
    assignment: Vec<u32>,
    /// Per-shard accumulators, indexed by shard.
    accums: Vec<ShardAccum>,
    /// Exact aggregate of the shard-local `sizes`.
    sizes: Vec<usize>,
    /// Exact aggregate of the shard-local `assigned`.
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
            map: ShardMap::new(1),
            assignment: vec![UNASSIGNED; reserve],
            accums: vec![ShardAccum::empty(k)],
            sizes: vec![0; k],
            assigned: 0,
        }
    }

    /// Re-key the state into `shards` shard ownership stripes (clamped
    /// to at least 1). A pure layout knob — results are bit-identical
    /// for any value — so it must be called before any vertex is
    /// assigned. The flat assignment column itself is stripe-owned in
    /// place, so only the accumulators rebuild.
    ///
    /// # Panics
    /// Panics if any vertex has already been assigned.
    pub fn set_shards(&mut self, shards: usize) {
        let shards = shards.max(1);
        if shards == self.map.shards() {
            return;
        }
        assert_eq!(
            self.assigned, 0,
            "set_shards must run before ingest (got {} assigned vertices)",
            self.assigned
        );
        self.map = ShardMap::new(shards);
        self.accums = (0..shards).map(|_| ShardAccum::empty(self.k)).collect();
    }

    /// Number of shard-owned state columns (1 = the flat layout).
    #[inline]
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// The vertex→shard ownership map in use.
    #[inline]
    pub fn shard_map(&self) -> ShardMap {
        self.map
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
        // In sharded mode the owning shard's accumulators ride along.
        // The flat default skips them entirely (they would mirror the
        // globals cell for cell) so it pays nothing over the pre-shard
        // layout; `shard_occupancy` answers from the globals instead.
        if self.map.shards() > 1 {
            let acc = &mut self.accums[self.map.shard_of(v)];
            acc.sizes[p.index()] += 1;
            acc.assigned += 1;
        }
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

    /// A point-in-time [`Assignment`] copy (the engine's mid-stream
    /// snapshots use this; unassigned vertices stay unassigned). The
    /// column is already flat and vertex-indexed, so the result is
    /// layout-independent by construction.
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

    /// Per-shard occupancy (registered slots, assigned vertices,
    /// projected extent) — the observability face of the per-shard
    /// capacity model. Placement never reads these (DESIGN.md §14).
    pub fn shard_occupancy(&self) -> Vec<ShardOccupancy> {
        if self.map.shards() == 1 {
            // Flat mode keeps no per-shard accumulators (the globals
            // ARE shard 0's accumulators).
            return vec![ShardOccupancy {
                shard: 0,
                registered: self.assignment.len(),
                assigned: self.assigned,
                extent_estimate: self.assignment.len().max(SHARD_WARMUP_SLOTS),
            }];
        }
        self.accums
            .iter()
            .enumerate()
            .map(|(s, acc)| {
                let registered = self.map.slots_for(s, self.assignment.len());
                ShardOccupancy {
                    shard: s,
                    registered,
                    assigned: acc.assigned,
                    extent_estimate: registered.max(SHARD_WARMUP_SLOTS) * self.map.shards(),
                }
            })
            .collect()
    }

    /// Recompute the global aggregates as exact integer sums of the
    /// shard-local accumulators — the sequence-free half of the merge
    /// after a parallel shard commit. Addition over `usize` is
    /// associative and order-free, so the result is bit-identical to
    /// having maintained the aggregates edge at a time.
    fn resync_aggregates(&mut self) {
        self.assigned = self.accums.iter().map(|a| a.assigned).sum();
        for p in 0..self.k {
            self.sizes[p] = self.accums.iter().map(|a| a.sizes[p]).sum();
        }
    }

    /// Run one commit task per shard across `pool`, each with exclusive
    /// mutable access to its own index stripe of the flat assignment
    /// column, then resync the global aggregates. This is the
    /// shard-parallel commit path for placements that are pure
    /// per-vertex functions (Hash): each task must only touch vertices
    /// it [`ShardCommit::owns`] (enforced — every accessor checks
    /// ownership and panics otherwise, so stripes are disjoint by
    /// construction), and determinism follows because every vertex's
    /// sightings are processed by exactly one task in arrival order.
    ///
    /// `registered_extent` must be at least one past the largest vertex
    /// id the closure will touch: the column is grown (sequentially,
    /// before the fan-out) to exactly that length, matching the length
    /// the sequential walk would have left behind, because tasks cannot
    /// grow the shared column concurrently.
    ///
    /// On a panic inside a task, all remaining shards still execute and
    /// the lowest-indexed shard's panic is returned (the pool's
    /// deterministic-panic discipline); the state is left with
    /// consistent aggregates but unspecified assignments, exactly like
    /// any other failed parallel batch.
    pub fn commit_shards_parallel(
        &mut self,
        pool: &WorkerPool,
        registered_extent: usize,
        f: &(dyn Fn(&mut ShardCommit<'_>) + Sync),
    ) -> Result<(), ChunkPanic> {
        // The flat default maintains no per-shard accumulators (see
        // `assign`), so the post-join resync would zero the globals.
        // There is nothing to parallelise over one stripe anyway.
        assert!(
            self.map.shards() > 1,
            "commit_shards_parallel requires a sharded state (set_shards > 1)"
        );
        if self.assignment.len() < registered_extent {
            self.assignment.resize(registered_extent, UNASSIGNED);
        }
        /// Raw cursor into the flat assignment column. Task `s` only
        /// touches indices `i` with `i mod N == s` (ownership-checked
        /// in every [`ShardCommit`] accessor), tasks tile `0..N`
        /// without overlap, and the pool joins the job before `run`
        /// returns — every cell has exactly one accessor within the
        /// borrow's lifetime.
        #[derive(Clone, Copy)]
        struct CellsPtr(*mut u32);
        unsafe impl Send for CellsPtr {}
        unsafe impl Sync for CellsPtr {}
        /// Same discipline for the per-shard accumulator array: task
        /// `s` dereferences only index `s`.
        #[derive(Clone, Copy)]
        struct AccumsPtr(*mut ShardAccum);
        unsafe impl Send for AccumsPtr {}
        unsafe impl Sync for AccumsPtr {}

        let cells = CellsPtr(self.assignment.as_mut_ptr());
        let len = self.assignment.len();
        let accums = AccumsPtr(self.accums.as_mut_ptr());
        let map = self.map;
        let result = pool.run(self.accums.len(), &|s| {
            // Rebind so the closure captures the `Sync` wrappers, not
            // the raw pointer fields (edition-2021 disjoint capture).
            #[allow(clippy::redundant_locals)]
            let cells = cells;
            #[allow(clippy::redundant_locals)]
            let accums = accums;
            // SAFETY: task `s` is the sole accessor of accumulator `s`
            // and of stripe `s` of the cells; see the wrapper docs.
            let accum = unsafe { &mut *accums.0.add(s) };
            f(&mut ShardCommit {
                cells: cells.0,
                len,
                accum,
                map,
                index: s,
            });
        });
        self.resync_aggregates();
        result
    }

    /// Serialize the mutable state for a crash-recovery checkpoint
    /// (DESIGN.md §15). Config (`k`, `slack`, capacity model, shard
    /// map) is NOT written — the resuming process reconstructs it and
    /// the checkpoint fingerprint guarantees it matches. The aggregates
    /// are written alongside the column they derive from, so the saved
    /// bytes double as a deep-equality digest in the recovery tests.
    pub fn wal_save(&self, w: &mut ByteWriter) {
        w.u64(self.assignment.len() as u64);
        for &cell in &self.assignment {
            w.u32(cell);
        }
        w.u64(self.assigned as u64);
        for &s in &self.sizes {
            w.u64(s as u64);
        }
        w.u64(self.accums.len() as u64);
        for acc in &self.accums {
            w.u64(acc.assigned as u64);
            for &s in &acc.sizes {
                w.u64(s as u64);
            }
        }
    }

    /// Inverse of [`PartitionState::wal_save`], applied to a freshly
    /// constructed state with the same config and `set_shards` already
    /// applied.
    pub fn wal_load(&mut self, r: &mut ByteReader) -> Result<(), WalError> {
        let n = r.len_prefix(4)?;
        let mut assignment = Vec::with_capacity(n);
        for i in 0..n {
            let cell = r.u32()?;
            if cell != UNASSIGNED && cell as usize >= self.k {
                return Err(WalError::Corrupt(format!(
                    "partition state: assignment cell {i} holds partition {cell}, k = {}",
                    self.k
                )));
            }
            assignment.push(cell);
        }
        self.assignment = assignment;
        self.assigned = r.u64()? as usize;
        for p in 0..self.k {
            self.sizes[p] = r.u64()? as usize;
        }
        let accums = r.len_prefix(8)?;
        if accums != self.accums.len() {
            return Err(WalError::Corrupt(format!(
                "partition state: checkpoint has {accums} shard accumulators, this config has {}",
                self.accums.len()
            )));
        }
        for acc in &mut self.accums {
            acc.assigned = r.u64()? as usize;
            for s in acc.sizes.iter_mut() {
                *s = r.u64()? as usize;
            }
        }
        Ok(())
    }
}

/// Exclusive commit view of one ownership stripe of the partition
/// state, handed to each task of
/// [`PartitionState::commit_shards_parallel`]. Every accessor checks
/// that the vertex is owned by this shard and panics otherwise — that
/// check is what makes the concurrent stripes disjoint, so it is
/// enforced in release builds too.
pub struct ShardCommit<'a> {
    cells: *mut u32,
    len: usize,
    accum: &'a mut ShardAccum,
    map: ShardMap,
    index: usize,
}

impl ShardCommit<'_> {
    /// Index of the shard this view commits into.
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// True if this shard owns `v`.
    #[inline]
    pub fn owns(&self, v: VertexId) -> bool {
        self.map.shard_of(v) == self.index
    }

    #[inline]
    fn owned_index(&self, v: VertexId) -> usize {
        assert!(self.owns(v), "shard {} does not own {v:?}", self.index);
        v.0 as usize
    }

    /// True if `v` (which must be owned) is already assigned.
    #[inline]
    pub fn is_assigned(&self, v: VertexId) -> bool {
        let idx = self.owned_index(v);
        // SAFETY: `idx` is in this task's exclusive stripe (checked
        // above); cells beyond the pre-grown length are unregistered.
        idx < self.len && unsafe { *self.cells.add(idx) } != UNASSIGNED
    }

    /// Stripe-local [`PartitionState::assign`]: same idempotence and
    /// re-assignment panic semantics, updating the shard-local
    /// accumulators (the global aggregates resync after the join).
    /// The column must have been pre-grown past `v` (the
    /// `registered_extent` contract); panics otherwise.
    #[inline]
    pub fn assign(&mut self, v: VertexId, p: PartitionId) {
        let idx = self.owned_index(v);
        assert!(
            idx < self.len,
            "{v:?} is beyond the pre-grown extent {}",
            self.len
        );
        // SAFETY: `idx` is in this task's exclusive stripe.
        let cell = unsafe { &mut *self.cells.add(idx) };
        if *cell == p.0 {
            return;
        }
        assert_eq!(
            *cell, UNASSIGNED,
            "streaming re-assignment of {v:?}: {} -> {}",
            *cell, p.0
        );
        *cell = p.0;
        self.accum.sizes[p.index()] += 1;
        self.accum.assigned += 1;
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

/// Inline slots per adjacency row: with the two u32 counters and the
/// spill Vec this makes the row exactly 64 bytes — one cache line —
/// so recording an edge at a low-degree vertex touches the row array
/// and nothing else. The evaluation graphs' mean degree is ~3.4, so
/// the overwhelming majority of rows never leave the inline regime;
/// only hubs pay for a heap spill.
const INLINE_ROW: usize = 8;

/// Sentinel in `inline_len` marking a row whose entries live in the
/// spill Vec.
const ROW_SPILLED: u32 = u32::MAX;

/// One vertex's neighbour list. Entries are appended in arrival order
/// and age out in the same order, so the retained neighbourhood is
/// always the suffix starting at `head`; the dead prefix stays
/// resident until the next generational compaction.
///
/// Storage is inline-first: the first [`INLINE_ROW`] entries live in
/// the row struct itself, and the row *spills* — copies everything
/// into `nbrs` and appends there from then on — only when it outgrows
/// them. The entry sequence a reader observes is identical either
/// way; the representation is pure layout.
#[derive(Clone, Debug)]
struct AdjacencyRow {
    inline: [VertexId; INLINE_ROW],
    /// Entry count while inline; [`ROW_SPILLED`] once spilled.
    inline_len: u32,
    /// Index of the first retained entry (into [`AdjacencyRow::entries`]).
    head: u32,
    /// Spill storage; empty until the row outgrows the inline slots.
    nbrs: Vec<VertexId>,
}

impl Default for AdjacencyRow {
    fn default() -> Self {
        AdjacencyRow {
            inline: [VertexId(0); INLINE_ROW],
            inline_len: 0,
            head: 0,
            nbrs: Vec::new(),
        }
    }
}

impl AdjacencyRow {
    /// Every resident entry, dead prefix included, in arrival order.
    #[inline]
    fn entries(&self) -> &[VertexId] {
        if self.inline_len == ROW_SPILLED {
            &self.nbrs
        } else {
            &self.inline[..self.inline_len as usize]
        }
    }

    #[inline]
    fn retained(&self) -> &[VertexId] {
        &self.entries()[self.head as usize..]
    }

    #[inline]
    fn push(&mut self, to: VertexId) {
        let len = self.inline_len;
        if (len as usize) < INLINE_ROW {
            self.inline[len as usize] = to;
            self.inline_len = len + 1;
        } else if len == ROW_SPILLED {
            self.nbrs.push(to);
        } else {
            // Outgrew the inline slots: spill everything to the heap.
            self.nbrs.reserve(2 * INLINE_ROW);
            self.nbrs.extend_from_slice(&self.inline);
            self.nbrs.push(to);
            self.inline_len = ROW_SPILLED;
        }
    }
}

/// Streaming adjacency: the neighbourhood each vertex has accumulated
/// *within the retention horizon*. LDG, Fennel and Loom's fallback all
/// score against this view — "the local neighbourhood of each new
/// element *at the time it arrives*" (§1.2). Growable: vertices
/// register on the first edge that touches them.
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
    /// Vertex→shard ownership map (DESIGN.md §14). Rows stay in ONE
    /// flat vertex-indexed vector — shard `s` owns the striped indices
    /// `{s, s + N, ...}` — so the flat default pays zero indirection.
    map: ShardMap,
    rows: Vec<AdjacencyRow>,
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
            map: ShardMap::new(1),
            rows: (0..num_vertices).map(|_| AdjacencyRow::default()).collect(),
            horizon,
            recent: VecDeque::new(),
            aged_rows: Vec::new(),
            live: 0,
            dead: 0,
            ever: 0,
            generation: 0,
        }
    }

    /// Re-key the rows into `shards` ownership stripes (clamped to at
    /// least 1). A pure layout knob — the rows are vertex-indexed
    /// either way and the entry sequences every reader observes are
    /// identical — so it must run before any edge is recorded.
    ///
    /// # Panics
    /// Panics if any entry has already been recorded.
    pub fn set_shards(&mut self, shards: usize) {
        let shards = shards.max(1);
        if shards == self.map.shards() {
            return;
        }
        assert_eq!(
            self.ever, 0,
            "set_shards must run before ingest (got {} recorded entries)",
            self.ever
        );
        self.map = ShardMap::new(shards);
    }

    /// Number of row ownership stripes (1 = the flat layout).
    #[inline]
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// The retention horizon in edges (`None` = unbounded).
    #[inline]
    pub fn horizon(&self) -> Option<u64> {
        self.horizon
    }

    #[inline]
    fn row(&self, v: VertexId) -> Option<&AdjacencyRow> {
        self.rows.get(v.0 as usize)
    }

    /// The row of `v`, growing the vertex range as needed.
    #[inline]
    fn row_mut_grow(&mut self, v: VertexId) -> &mut AdjacencyRow {
        let idx = v.0 as usize;
        if self.rows.len() <= idx {
            self.rows.resize_with(idx + 1, AdjacencyRow::default);
        }
        &mut self.rows[idx]
    }

    /// The row of `v`, which must already be registered.
    #[inline]
    fn row_mut(&mut self, v: VertexId) -> &mut AdjacencyRow {
        &mut self.rows[v.0 as usize]
    }

    /// Record an arrived edge (both directions), growing the vertex
    /// range as needed. In bounded mode the edge that falls off the
    /// horizon (if any) is aged out silently; callers that maintain
    /// derived state from the adjacency (see [`NeighborCounts`]) must
    /// use [`OnlineAdjacency::add_expiring_into`] instead, so they can
    /// observe the expiry.
    pub fn add(&mut self, e: &StreamEdge) {
        self.insert(e);
        if self.expire_oldest().is_some() {
            self.maybe_compact();
        }
    }

    /// [`OnlineAdjacency::add`], pushing the edge (if any) that aged
    /// out of the horizon onto `expired` — the hook point for keeping
    /// [`NeighborCounts`] rows equal to the *retained* scan.
    pub fn add_expiring_into(&mut self, e: &StreamEdge, expired: &mut Vec<(VertexId, VertexId)>) {
        self.insert(e);
        if let Some(old) = self.expire_oldest() {
            expired.push(old);
            self.maybe_compact();
        }
    }

    fn insert(&mut self, e: &StreamEdge) {
        self.row_mut_grow(e.src).push(e.dst);
        self.row_mut_grow(e.dst).push(e.src);
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
            let row = &mut self.rows[from.0 as usize];
            debug_assert_eq!(
                row.entries().get(row.head as usize),
                Some(&to),
                "adjacency aged out of arrival order at {from:?}"
            );
            if row.head == 0 {
                // First dead entry since the last compaction: remember
                // the row (head > 0 ⇔ recorded once in `aged_rows`).
                self.aged_rows.push(from.0);
            }
            row.head += 1;
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
            let row = self.row_mut(VertexId(idx));
            debug_assert!(row.head > 0, "aged row recorded without a dead prefix");
            let head = row.head as usize;
            if row.inline_len != ROW_SPILLED {
                // Inline row: slide the retained suffix to the front.
                let len = row.inline_len as usize;
                row.inline.copy_within(head..len, 0);
                row.inline_len = (len - head) as u32;
            } else if head == row.nbrs.len() {
                // An idle vertex whose whole neighbourhood aged out:
                // release the allocation entirely and return to the
                // inline regime.
                row.nbrs = Vec::new();
                row.inline_len = 0;
            } else {
                row.nbrs.drain(..head);
                if row.nbrs.len() <= INLINE_ROW {
                    // Cooled back below the inline threshold: move the
                    // survivors home and free the spill.
                    row.inline[..row.nbrs.len()].copy_from_slice(&row.nbrs);
                    row.inline_len = row.nbrs.len() as u32;
                    row.nbrs = Vec::new();
                } else {
                    // A once-hot row keeps its peak capacity forever
                    // otherwise; give back the overhang.
                    let want = row.nbrs.len().max(4) * 2;
                    if row.nbrs.capacity() > want * 2 {
                        row.nbrs.shrink_to(want);
                    }
                }
            }
            row.head = 0;
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
        self.row(v).map_or(&[], AdjacencyRow::retained)
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

    /// Serialize the adjacency for a crash-recovery checkpoint
    /// (DESIGN.md §15). Rows are written *exactly* as resident —
    /// dead prefixes, spill state and the aged-row worklist included —
    /// because compaction triggers off resident populations: a
    /// "cleaned" reload would compact at different edges than the
    /// uninterrupted run and break bit-identity of the generation
    /// counter. Config (shard map, horizon) is not written.
    pub fn wal_save(&self, w: &mut ByteWriter) {
        w.u64(self.rows.len() as u64);
        for row in &self.rows {
            w.u32(row.inline_len);
            w.u32(row.head);
            if row.inline_len == ROW_SPILLED {
                w.u64(row.nbrs.len() as u64);
                for &v in &row.nbrs {
                    w.u32(v.0);
                }
            } else {
                for &v in &row.inline[..row.inline_len as usize] {
                    w.u32(v.0);
                }
            }
        }
        w.u64(self.recent.len() as u64);
        for &(u, v) in &self.recent {
            w.u32(u.0);
            w.u32(v.0);
        }
        w.u64(self.aged_rows.len() as u64);
        for &i in &self.aged_rows {
            w.u32(i);
        }
        w.u64(self.live as u64);
        w.u64(self.dead as u64);
        w.u64(self.ever);
        w.u64(self.generation);
    }

    /// Inverse of [`OnlineAdjacency::wal_save`], applied to a freshly
    /// constructed adjacency with the same config.
    pub fn wal_load(&mut self, r: &mut ByteReader) -> Result<(), WalError> {
        let nrows = r.len_prefix(8)?;
        let mut rows = Vec::with_capacity(nrows);
        for i in 0..nrows {
            let inline_len = r.u32()?;
            let head = r.u32()?;
            let mut row = AdjacencyRow {
                inline_len,
                head,
                ..AdjacencyRow::default()
            };
            if inline_len == ROW_SPILLED {
                let n = r.len_prefix(4)?;
                row.nbrs = (0..n)
                    .map(|_| r.u32().map(VertexId))
                    .collect::<Result<_, _>>()?;
            } else if inline_len as usize > INLINE_ROW {
                return Err(WalError::Corrupt(format!(
                    "adjacency row {i}: inline length {inline_len} exceeds {INLINE_ROW}"
                )));
            } else {
                for slot in 0..inline_len as usize {
                    row.inline[slot] = VertexId(r.u32()?);
                }
            }
            if head as usize > row.entries().len() {
                return Err(WalError::Corrupt(format!(
                    "adjacency row {i}: head {head} past its {} entries",
                    row.entries().len()
                )));
            }
            rows.push(row);
        }
        self.rows = rows;
        let nrecent = r.len_prefix(8)?;
        self.recent = (0..nrecent)
            .map(|_| Ok::<_, WalError>((VertexId(r.u32()?), VertexId(r.u32()?))))
            .collect::<Result<_, _>>()?;
        let naged = r.len_prefix(4)?;
        self.aged_rows = (0..naged).map(|_| r.u32()).collect::<Result<_, _>>()?;
        self.live = r.u64()? as usize;
        self.dead = r.u64()? as usize;
        self.ever = r.u64()?;
        self.generation = r.u64()?;
        Ok(())
    }
}

/// Incrementally maintained per-vertex partition-neighbour counters —
/// the O(k)-per-decision replacement for the O(deg) adjacency scans
/// (DESIGN.md §10).
///
/// Invariant (restated against retention, DESIGN.md §11): `counts(v)[p]`
/// equals the number of entries `w` in the companion
/// [`OnlineAdjacency`]'s **retained** `neighbors(v)` with `w` assigned
/// to partition `p` (counted with multiplicity, exactly as a scan of
/// the retained row would). In unbounded mode "retained" is "ever
/// seen" and this is the original invariant. It is maintained by three
/// O(1)/O(deg) hooks:
///
/// - [`NeighborCounts::on_edge_arrival`], called right after the edge
///   is added to the adjacency: each endpoint whose *other* endpoint
///   is already assigned gains one count — the scan would now see that
///   neighbour too;
/// - [`NeighborCounts::on_assign`], called when a vertex is
///   permanently placed: one walk over the assignee's current
///   *retained* adjacency credits the new placement to every
///   neighbour's row;
/// - [`NeighborCounts::on_edge_expired`], called for each edge the
///   bounded adjacency ages out: each endpoint whose other endpoint is
///   assigned *now* loses one count — the retained scan no longer sees
///   that neighbour.
///
/// Every (adjacency entry, assignment) pair is thus counted exactly
/// once while both are in effect — credited at whichever of the two
/// events happens second, debited when the entry ages out. The debit
/// mirrors the credit exactly: expiry processing is eager (it runs
/// inside every add, before any decision reads a row), so an entry
/// that aged out before its endpoint was assigned was never credited
/// and is never debited. Reads are therefore bit-identical to the
/// verbatim retained scan (property-tested in `tests/properties.rs`
/// against reference implementations, including under
/// arrival/assignment/expiry interleavings).
#[derive(Clone, Debug)]
pub struct NeighborCounts {
    k: usize,
    /// Vertex→shard ownership map; counter rows live in shard-owned
    /// one flat vertex-indexed `[vertex][partition]` table in which
    /// shard `s` owns the striped rows `{s, s + N, ...}` (DESIGN.md
    /// §14) — flat so the default layout pays zero indirection.
    map: ShardMap,
    counts: Vec<u32>,
    /// All-zero row returned for vertices never seen (keeps reads
    /// allocation-free without forcing registration on read).
    zeros: Vec<u32>,
}

impl NeighborCounts {
    /// Empty counter table for `k` partitions.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        NeighborCounts {
            k,
            map: ShardMap::new(1),
            counts: Vec::new(),
            zeros: vec![0; k],
        }
    }

    /// Counter table pre-sized for `num_vertices` vertices (a capacity
    /// hint for prescient runs; behaviour is identical).
    pub fn with_capacity(k: usize, num_vertices: usize) -> Self {
        let mut c = Self::new(k);
        c.counts = vec![0; num_vertices * k];
        c
    }

    /// Re-key the counter rows into `shards` ownership stripes
    /// (clamped to at least 1). A pure layout knob — the table is
    /// vertex-indexed either way; must run before any counter is
    /// touched.
    ///
    /// # Panics
    /// Panics if any counter row has already been registered.
    pub fn set_shards(&mut self, shards: usize) {
        let shards = shards.max(1);
        if shards == self.map.shards() {
            return;
        }
        assert!(
            self.counts.iter().all(|&n| n == 0),
            "set_shards must run before ingest (live counter rows exist)"
        );
        self.map = ShardMap::new(shards);
    }

    /// Number of counter-row ownership stripes (1 = the flat layout).
    #[inline]
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    #[inline]
    fn ensure(&mut self, v: VertexId) {
        let need = (v.0 as usize + 1) * self.k;
        if self.counts.len() < need {
            self.counts.resize(need, 0);
        }
    }

    /// Mutable counter cell for `(v, p)`, registering `v` as needed.
    #[inline]
    fn cell_mut(&mut self, v: VertexId, p: PartitionId) -> &mut u32 {
        self.ensure(v);
        &mut self.counts[v.0 as usize * self.k + p.index()]
    }

    /// The per-partition assigned-neighbour counts of `v` — the
    /// `|N(v) ∩ S_i|` row, read in O(k).
    #[inline]
    pub fn counts(&self, v: VertexId) -> &[u32] {
        let start = v.0 as usize * self.k;
        match self.counts.get(start..start + self.k) {
            Some(row) => row,
            None => &self.zeros,
        }
    }

    /// Record an arrived edge *after* it was added to the adjacency:
    /// if an endpoint is already assigned, the other endpoint's row
    /// gains that placement (the scan would now see the new entry).
    #[inline]
    pub fn on_edge_arrival(&mut self, e: &StreamEdge, state: &PartitionState) {
        if let Some(p) = state.partition_of(e.dst) {
            *self.cell_mut(e.src, p) += 1;
        }
        if let Some(p) = state.partition_of(e.src) {
            *self.cell_mut(e.dst, p) += 1;
        }
    }

    /// Record the permanent placement of `v` on `p`: every currently
    /// *retained* neighbour's row gains the placement, with
    /// multiplicity. One O(deg(v)) walk per *assignment* (each vertex
    /// is assigned once), in exchange for O(k) *decisions* forever
    /// after. Adjacency entries of `v` that already aged out are
    /// correctly skipped: their reverse entries aged out at the same
    /// instant, so the retained scan of a neighbour's row must not see
    /// the placement either.
    pub fn on_assign(&mut self, v: VertexId, p: PartitionId, adjacency: &OnlineAdjacency) {
        for &w in adjacency.neighbors(v) {
            *self.cell_mut(w, p) += 1;
        }
    }

    /// Record that the edge `(u, v)` aged out of the bounded
    /// adjacency: each endpoint whose other endpoint is currently
    /// assigned loses that placement from its row — the retained scan
    /// no longer sees the entry. Exact mirror of
    /// [`NeighborCounts::on_edge_arrival`]; call it with every pair
    /// drained by [`OnlineAdjacency::add_expiring_into`].
    #[inline]
    pub fn on_edge_expired(&mut self, u: VertexId, v: VertexId, state: &PartitionState) {
        if let Some(p) = state.partition_of(v) {
            let cell = self.cell_mut(u, p);
            debug_assert!(*cell > 0, "expiry debit without a matching credit");
            *cell -= 1;
        }
        if let Some(p) = state.partition_of(u) {
            let cell = self.cell_mut(v, p);
            debug_assert!(*cell > 0, "expiry debit without a matching credit");
            *cell -= 1;
        }
    }

    /// Move a previously credited placement of `v` from partition
    /// `from` to `to` in every neighbour's row — the restream pass uses
    /// this when the current pass overrides a prior-pass placement.
    pub fn on_reassign(
        &mut self,
        v: VertexId,
        from: Option<PartitionId>,
        to: PartitionId,
        adjacency: &OnlineAdjacency,
    ) {
        for &w in adjacency.neighbors(v) {
            if let Some(q) = from {
                *self.cell_mut(w, q) -= 1;
            }
            *self.cell_mut(w, to) += 1;
        }
    }

    /// Credit `v`'s row directly (the vertex-stream variants maintain
    /// rows from each arrival's own neighbour list instead of a shared
    /// adjacency).
    #[inline]
    pub fn credit(&mut self, v: VertexId, p: PartitionId) {
        *self.cell_mut(v, p) += 1;
    }

    /// Serialize the counter table for a crash-recovery checkpoint
    /// (DESIGN.md §15): the flat `[vertex][partition]` cells, verbatim
    /// — registration extent included, since `counts.len()` is itself
    /// observable state (which vertices have registered rows).
    pub fn wal_save(&self, w: &mut ByteWriter) {
        w.u64(self.counts.len() as u64);
        for &c in &self.counts {
            w.u32(c);
        }
    }

    /// Inverse of [`NeighborCounts::wal_save`], applied to a freshly
    /// constructed table for the same `k`.
    pub fn wal_load(&mut self, r: &mut ByteReader) -> Result<(), WalError> {
        let n = r.len_prefix(4)?;
        if n % self.k != 0 {
            return Err(WalError::Corrupt(format!(
                "neighbor counts: {n} cells is not a whole number of k = {} rows",
                self.k
            )));
        }
        self.counts = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
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
        let mut expired = Vec::new();
        adj.add_expiring_into(&edge(0, 3, 4), &mut expired);
        assert!(expired.is_empty(), "nothing beyond the horizon yet");
        adj.add_expiring_into(&edge(1, 4, 5), &mut expired);
        assert_eq!(expired, vec![(VertexId(3), VertexId(4))]);
    }

    #[test]
    fn unbounded_adjacency_never_expires() {
        let mut adj = OnlineAdjacency::new();
        let mut expired = Vec::new();
        for i in 0..100u32 {
            adj.add_expiring_into(&edge(i, 0, i + 1), &mut expired);
        }
        assert!(expired.is_empty());
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
    fn expiry_hook_keeps_counts_equal_to_retained_scan() {
        let k = 3;
        let mut state = PartitionState::new(k, CapacityModel::Adaptive, 1.1);
        let mut adj = OnlineAdjacency::bounded(3);
        let mut counts = NeighborCounts::new(k);
        let mut expired = Vec::new();
        state.assign(VertexId(1), PartitionId(0));
        state.assign(VertexId(2), PartitionId(1));
        for (i, (u, v)) in [(0, 1), (0, 2), (0, 1), (0, 2), (0, 1)].iter().enumerate() {
            let e = edge(i as u32, *u, *v);
            expired.clear();
            adj.add_expiring_into(&e, &mut expired);
            counts.on_edge_arrival(&e, &state);
            for &(a, b) in &expired {
                counts.on_edge_expired(a, b, &state);
            }
            // Row 0 must equal a scan of the retained adjacency.
            let mut scan = vec![0u32; k];
            for &w in adj.neighbors(VertexId(0)) {
                if let Some(p) = state.partition_of(w) {
                    scan[p.index()] += 1;
                }
            }
            assert_eq!(counts.counts(VertexId(0)), scan.as_slice(), "edge {i}");
        }
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
