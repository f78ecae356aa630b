//! The Loom partitioner (§1.4): window + matcher + equal opportunism.
//!
//! Per arriving edge:
//! 1. the matcher checks it against the single-edge motifs; a
//!    non-matching edge is placed immediately with LDG and never enters
//!    the window (§3);
//! 2. a matching edge is buffered; if the window was full, the oldest
//!    edge is evicted and auctioned: its motif matches `M_e` are
//!    support-ordered, partitions bid under their rations, and every
//!    edge of the winner's matches is assigned to the winning partition
//!    and removed from the window (§4);
//! 3. at end of stream the window drains through the same auction.

use crate::equal_opportunism::{auction_with_scratch, AuctionMatch, EoParams};
use crate::ldg::choose_weighted;
use crate::state::{AdjacencyHorizon, Assignment, CapacityModel, OnlineAdjacency, PartitionState};
use crate::traits::StreamPartitioner;
use loom_graph::{StreamEdge, Workload};
use loom_matcher::MatchId;
use loom_matcher::{EdgeFate, MotifMatcher, SlidingWindow};
use loom_motif::{LabelRandomizer, TpsTrie};

/// How evicted matches are assigned to partitions (§4 describes both:
/// the naive strawman and the equal-opportunism heuristic Loom uses).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AllocationPolicy {
    /// Equal opportunism: support-ordered bids under rationing (Eqs. 1-3).
    #[default]
    EqualOpportunism,
    /// §4's naive approach: assign the whole match cluster to the
    /// partition sharing the most vertices, ignoring balance and
    /// support. Kept as an ablation — the paper predicts it produces
    /// "highly unbalanced partition sizes".
    NaiveGreedy,
}

/// Configuration of a Loom run. Defaults reproduce the evaluation
/// setup of §5.1: 10k-edge window, 40% support threshold, `p = 251`,
/// `α = 2/3`, `b = 1.1`.
#[derive(Clone, Debug)]
pub struct LoomConfig {
    /// Number of partitions `k`.
    pub k: usize,
    /// Sliding-window capacity `t`.
    pub window_size: usize,
    /// Motif support threshold `T` (relative, in `[0, 1]`).
    pub support_threshold: f64,
    /// The finite-field prime for signatures.
    pub prime: u64,
    /// Equal-opportunism parameters.
    pub eo: EoParams,
    /// Capacity slack for `C` (matches Fennel's ν).
    pub capacity_slack: f64,
    /// Where the capacity constraint comes from: prescient (stream
    /// extent known, the paper's evaluation setting) or adaptive
    /// (unbounded stream, `C` tracks the running vertex count).
    pub capacity: CapacityModel,
    /// Seed for the label randomizer.
    pub seed: u64,
    /// Allocation policy (equal opportunism unless running the
    /// naive-greedy ablation).
    pub allocation: AllocationPolicy,
    /// How long arrived edges stay in the streaming adjacency the
    /// scoring heuristics read (DESIGN.md §11). The default ties the
    /// retention horizon to the sliding window
    /// ([`AdjacencyHorizon::Windows`]), which resolves to unbounded
    /// under a prescient capacity model — replayed evaluation runs are
    /// bit-identical to the grow-forever behaviour — and to
    /// `64 × window_size` edges on adaptive (unbounded) streams, which
    /// caps resident adjacency memory.
    pub adjacency_horizon: AdjacencyHorizon,
}

impl LoomConfig {
    /// The evaluation defaults for `k` partitions. The capacity model
    /// defaults to adaptive (no stream extent assumed); prescient runs
    /// set [`LoomConfig::capacity`] from the materialised stream.
    pub fn evaluation_defaults(k: usize) -> Self {
        LoomConfig {
            k,
            window_size: 10_000,
            support_threshold: 0.4,
            prime: loom_motif::DEFAULT_PRIME,
            eo: EoParams::default(),
            capacity_slack: 1.1,
            capacity: CapacityModel::Adaptive,
            seed: 0x100a,
            allocation: AllocationPolicy::EqualOpportunism,
            adjacency_horizon: AdjacencyHorizon::default(),
        }
    }
}

/// The Loom streaming partitioner.
///
/// The LDG bypass placements and the zero-bid auction fallback score
/// by `|N(v) ∩ S_i|` rows scanned from the retained adjacency when
/// they decide ([`OnlineAdjacency::partition_counts_into`]); no
/// per-vertex counter table is kept. The bypass scores only unassigned
/// vertices, whose retained edges are all still in the window, so its
/// scans stay short.
pub struct LoomPartitioner {
    state: PartitionState,
    adjacency: OnlineAdjacency,
    window: SlidingWindow,
    matcher: MotifMatcher,
    eo: EoParams,
    allocation: AllocationPolicy,
    stats: LoomStats,
    /// `Some` only when phase profiling is enabled.
    profile: Option<Box<PhaseBreakdown>>,
    // Scratch reused across allocate() calls: one eviction auctions
    // every match of the departing edge, and doing that with fresh
    // allocations per auction was a measurable slice of the hot path.
    scratch_ids: Vec<MatchId>,
    scratch_keys: Vec<(f64, usize, usize)>,
    scratch_counts: Vec<u32>,
    scratch_edges: Vec<StreamEdge>,
    view_pool: Vec<AuctionMatch>,
}

/// Counters the evaluation and the ablation benches read back.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoomStats {
    /// Edges that bypassed the window (no single-edge motif).
    pub bypassed: u64,
    /// Edges buffered in the window.
    pub buffered: u64,
    /// Auctions run (window evictions + final drain).
    pub auctions: u64,
    /// Matches assigned by winning bids.
    pub matches_assigned: u64,
    /// Auctions decided by the zero-bid fallback.
    pub fallback_auctions: u64,
}

/// Where a Loom run's wall time went, by pipeline phase. Filled only
/// when profiling is enabled ([`LoomPartitioner::enable_phase_profile`])
/// — the timed evaluation runs leave it off so Table 2 measures the
/// partitioner, not the stopwatch.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseBreakdown {
    /// Motif matching: `MotifMatcher::on_edge` (extension + join +
    /// index upkeep).
    pub matcher_ns: u64,
    /// Partitioning decisions: LDG bypass placements and eviction
    /// auctions (support ordering, bids, assignment, match kills).
    pub partitioner_ns: u64,
    /// Window and adjacency upkeep: buffer push/evict bookkeeping,
    /// adjacency growth and expiry.
    pub window_ns: u64,
}

impl LoomPartitioner {
    /// Build a Loom partitioner for a stream over a `num_labels`-label
    /// alphabet, mining motifs from `workload`. The stream extent is
    /// *not* required: it enters only through
    /// [`LoomConfig::capacity`], and only if prescient.
    pub fn new(config: &LoomConfig, workload: &Workload, num_labels: usize) -> Self {
        let rand = LabelRandomizer::new(num_labels, config.prime, config.seed);
        let trie = TpsTrie::build(workload, &rand);
        let motifs = trie.motifs(config.support_threshold);
        let horizon = config
            .adjacency_horizon
            .resolve(config.window_size, &config.capacity);
        let num_vertices = match config.capacity {
            CapacityModel::Prescient { num_vertices, .. } => num_vertices,
            CapacityModel::Adaptive => 0,
        };
        LoomPartitioner {
            state: PartitionState::new(config.k, config.capacity, config.capacity_slack),
            adjacency: OnlineAdjacency::with_retention(horizon, num_vertices),
            window: SlidingWindow::new(config.window_size),
            matcher: MotifMatcher::new(motifs, rand),
            eo: config.eo,
            allocation: config.allocation,
            stats: LoomStats::default(),
            profile: None,
            scratch_ids: Vec::new(),
            scratch_keys: Vec::new(),
            scratch_counts: Vec::new(),
            scratch_edges: Vec::new(),
            view_pool: Vec::new(),
        }
    }

    /// Occupancy of the streaming adjacency (retained / resident /
    /// ever / compaction generation).
    pub fn adjacency_occupancy(&self) -> crate::state::AdjacencyOccupancy {
        self.adjacency.occupancy()
    }

    /// Run counters.
    pub fn stats(&self) -> LoomStats {
        self.stats
    }

    /// Turn on per-phase wall-time accounting (matcher / partitioner /
    /// window upkeep). Costs a few `Instant::now` calls per edge, so
    /// the timed evaluation runs keep it off; `repro`'s Table 2 prints
    /// the breakdown from a separate profiled run.
    pub fn enable_phase_profile(&mut self) {
        self.profile = Some(Box::default());
    }

    /// The phase breakdown accumulated so far (zeros unless
    /// [`LoomPartitioner::enable_phase_profile`] was called).
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        self.profile.as_deref().copied().unwrap_or_default()
    }

    #[inline]
    fn clock(&self) -> Option<std::time::Instant> {
        self.profile.as_ref().map(|_| std::time::Instant::now())
    }

    #[inline]
    fn lap(
        &mut self,
        since: Option<std::time::Instant>,
        phase: fn(&mut PhaseBreakdown) -> &mut u64,
    ) {
        if let (Some(t), Some(p)) = (since, self.profile.as_deref_mut()) {
            *phase(p) += t.elapsed().as_nanos() as u64;
        }
    }

    /// Override the matcher's per-endpoint match cap (`usize::MAX` =
    /// unbounded). Used by the cap sweep of `repro`'s ablations; the
    /// default ([`loom_matcher::MAX_MATCHES_PER_ENDPOINT`]) is part of
    /// the determinism contract and only benches should change it.
    pub fn set_match_cap(&mut self, cap: usize) {
        self.matcher.set_match_cap(cap);
    }

    /// Number of motifs the matcher is hunting.
    pub fn num_motifs(&self) -> usize {
        self.matcher.motifs().len()
    }

    /// Live window occupancy.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    fn ldg_assign_edge(&mut self, e: &StreamEdge) {
        for v in [e.src, e.dst] {
            if !self.state.is_assigned(v) {
                let row = &mut self.scratch_counts;
                row.clear();
                row.resize(self.state.k(), 0);
                self.adjacency.partition_counts_into(v, &self.state, row);
                let p = choose_weighted(&self.state, row);
                self.state.assign(v, p);
            }
        }
    }

    /// Auction the evicted edge's matches and place the winners (§4).
    fn allocate(&mut self, e: StreamEdge) {
        self.stats.auctions += 1;
        let mut match_ids = std::mem::take(&mut self.scratch_ids);
        self.matcher.matches_for_edge_into(e.id, &mut match_ids);
        if match_ids.is_empty() {
            // Defensive: a buffered edge always has its single-edge
            // match, but fall back rather than lose the edge.
            self.ldg_assign_edge(&e);
            self.matcher.on_edge_assigned(e.id);
            self.scratch_ids = match_ids;
            return;
        }

        // Determine the §4 support ordering on (support, size) keys
        // alone — cheap reads off the arena — before materialising any
        // vertex list. The explicit M_e-index tiebreaker reproduces
        // the stable sort the previous revision used.
        let mut keys = std::mem::take(&mut self.scratch_keys);
        keys.clear();
        keys.extend(match_ids.iter().enumerate().map(|(i, &id)| {
            let (support, len) = self.matcher.support_and_len(id);
            (support, len, i)
        }));
        keys.sort_unstable_by(|a, b| {
            crate::equal_opportunism::support_order((a.0, a.1), (b.0, b.1)).then(a.2.cmp(&b.2))
        });

        // Residency pre-scan, straight off the arena chains: does any
        // partition hold any vertex of the cluster? If not, the auction
        // is information-free under *both* policies — every bid/count
        // is zero, `total_bid` comes back 0.0, and the LDG fallback
        // below overrides both `winner` and `take` — so materialising
        // any view beyond the top match (which the fallback scores) is
        // pure waste. The scan reads the same cells `vertices_into`
        // would walk, minus the sort/dedup, and early-exits on the
        // first assigned endpoint, so the resident case pays at most a
        // prefix of one extra chain walk.
        // O(1) short-circuit first: the evictee is an edge of *every*
        // match in `M_e`, so an assigned evictee endpoint already
        // proves residency without touching a single chain.
        let any_resident = self.state.is_assigned(e.src)
            || self.state.is_assigned(e.dst)
            || match_ids.iter().any(|&id| {
                self.matcher.get(id).edges().any(|edge| {
                    self.state.is_assigned(edge.src) || self.state.is_assigned(edge.dst)
                })
            });

        // Materialise the auction view in sorted order, borrowing match
        // data from the arena into pooled `AuctionMatch` slots whose
        // vertex buffers are reused across auctions — no per-auction
        // view clones or rebuilds. An information-free auction needs
        // only the top match.
        let n = if any_resident { keys.len() } else { 1 };
        while self.view_pool.len() < n {
            self.view_pool.push(AuctionMatch {
                vertices: Vec::new(),
                support: 0.0,
                num_edges: 0,
            });
        }
        for (j, &(support, num_edges, orig)) in keys.iter().take(n).enumerate() {
            let slot = &mut self.view_pool[j];
            self.matcher
                .get(match_ids[orig])
                .vertices_into(&mut slot.vertices);
            slot.support = support;
            slot.num_edges = num_edges;
        }
        let view = &self.view_pool[..n];

        let mut outcome = if !any_resident {
            // Zero-information auction: both policies would return
            // `total_bid == 0.0` (equal-opportunism via its all-zero
            // fast path, naive greedy with every count zero), and the
            // fallback below unconditionally overrides `winner` and
            // `take` on that signal — so the placeholder winner is
            // never observed.
            crate::equal_opportunism::AuctionOutcome {
                winner: loom_graph::PartitionId(0),
                take: 1,
                total_bid: 0.0,
            }
        } else {
            match self.allocation {
                AllocationPolicy::EqualOpportunism => {
                    auction_with_scratch(&self.state, &self.eo, view, &mut self.scratch_counts)
                }
                AllocationPolicy::NaiveGreedy => naive_greedy(&self.state, view),
            }
        };
        if outcome.total_bid == 0.0 {
            // No partition holds any of the cluster's vertices: the
            // auction is information-free. Fall back to LDG's scoring —
            // the same heuristic Loom already uses for non-motif edges
            // (§4) — over the *top match's* whole neighbourhood, which
            // can still see assigned neighbours outside the match (e.g.
            // hub vertices placed via the bypass path). The top match
            // is then co-located there as a unit, so cold-start motifs
            // stay whole instead of being placed edge-by-edge.
            self.stats.fallback_auctions += 1;
            // Sum the scanned rows of the top match's vertices.
            // (`scratch_counts` is free again: the auction that filled
            // it has already produced `outcome`.)
            let counts = &mut self.scratch_counts;
            counts.clear();
            counts.resize(self.state.k(), 0);
            for &v in &view[0].vertices {
                self.adjacency.partition_counts_into(v, &self.state, counts);
            }
            outcome.winner = choose_weighted(&self.state, counts);
            outcome.take = 1;
        }

        // Assign every edge of the winning prefix of matches.
        let mut edges = std::mem::take(&mut self.scratch_edges);
        edges.clear();
        for &(_, _, orig) in keys.iter().take(outcome.take) {
            let m = self.matcher.get(match_ids[orig]);
            for edge in m.edges() {
                if !edges.iter().any(|x| x.id == edge.id) {
                    edges.push(edge);
                }
            }
            self.stats.matches_assigned += 1;
        }
        debug_assert!(
            edges.iter().any(|x| x.id == e.id),
            "auction must place the evictee"
        );

        for edge in edges.drain(..) {
            for v in [edge.src, edge.dst] {
                if !self.state.is_assigned(v) {
                    self.state.assign(v, outcome.winner);
                }
            }
            if edge.id != e.id {
                self.window.remove(&edge);
            }
            // Dropping the edge kills every match containing it —
            // including the losing matches of this auction, which all
            // share `e` (§4: they are dropped from the matchList).
            self.matcher.on_edge_assigned(edge.id);
        }

        self.scratch_edges = edges;
        keys.clear();
        self.scratch_keys = keys;
        match_ids.clear();
        self.scratch_ids = match_ids;
    }
}

/// §4's naive strawman: the whole cluster goes to the partition sharing
/// the most vertices, no balance or support weighting, take everything.
fn naive_greedy(
    state: &PartitionState,
    matches: &[AuctionMatch],
) -> crate::equal_opportunism::AuctionOutcome {
    let mut counts = vec![0usize; state.k()];
    for m in matches {
        for &v in &m.vertices {
            if let Some(p) = state.partition_of(v) {
                counts[p.index()] += 1;
            }
        }
    }
    let (winner, &count) = counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| *c)
        .expect("k >= 1");
    crate::equal_opportunism::AuctionOutcome {
        winner: loom_graph::PartitionId(winner as u32),
        take: matches.len(),
        total_bid: count as f64,
    }
}

impl StreamPartitioner for LoomPartitioner {
    fn name(&self) -> &'static str {
        "Loom"
    }

    fn on_edge(&mut self, e: &StreamEdge) {
        let t = self.clock();
        self.adjacency.add(e);
        self.lap(t, |p| &mut p.window_ns);
        let t = self.clock();
        let fate = self.matcher.on_edge(*e);
        self.lap(t, |p| &mut p.matcher_ns);
        match fate {
            EdgeFate::Bypass => {
                self.stats.bypassed += 1;
                // §3: assigned immediately, never displaces window edges.
                let t = self.clock();
                self.ldg_assign_edge(e);
                self.lap(t, |p| &mut p.partitioner_ns);
            }
            EdgeFate::Buffered => {
                self.stats.buffered += 1;
                let t = self.clock();
                let evicted = self.window.push(*e);
                self.lap(t, |p| &mut p.window_ns);
                if let Some(old) = evicted {
                    let t = self.clock();
                    self.allocate(old);
                    self.lap(t, |p| &mut p.partitioner_ns);
                }
            }
        }
    }

    fn finish(&mut self) {
        loop {
            let t = self.clock();
            let next = self.window.pop_oldest();
            self.lap(t, |p| &mut p.window_ns);
            let Some(e) = next else { break };
            let t = self.clock();
            self.allocate(e);
            self.lap(t, |p| &mut p.partitioner_ns);
        }
    }

    fn state(&self) -> &PartitionState {
        &self.state
    }

    fn arena(&self) -> Option<loom_matcher::ArenaOccupancy> {
        Some(self.matcher.arena_occupancy())
    }

    fn adjacency(&self) -> Option<crate::state::AdjacencyOccupancy> {
        Some(self.adjacency.occupancy())
    }

    /// Checkpoint everything a resumed Loom needs to place as the
    /// uninterrupted run would: partition columns, the retained
    /// adjacency, the window's live edges, the live matches, and the
    /// stats the evaluation reads back — live content only; each store
    /// rebuilds its compaction layout on load. No `|N(v) ∩ S_i|` row
    /// is written: each is the scan of the adjacency and the columns.
    /// Motif tables, the LUT and
    /// eo/allocation parameters are config — the checkpoint fingerprint
    /// guarantees they match on resume.
    fn save_state(&self, w: &mut loom_wal::ByteWriter) -> Result<(), loom_wal::WalError> {
        self.state.wal_save(w);
        self.adjacency.wal_save(w);
        self.window.wal_save(w);
        self.matcher.wal_save(w);
        w.u64(self.stats.bypassed);
        w.u64(self.stats.buffered);
        w.u64(self.stats.auctions);
        w.u64(self.stats.matches_assigned);
        w.u64(self.stats.fallback_auctions);
        Ok(())
    }

    fn load_state(&mut self, r: &mut loom_wal::ByteReader) -> Result<(), loom_wal::WalError> {
        self.state.wal_load(r)?;
        self.adjacency.wal_load(r)?;
        self.window.wal_load(r)?;
        self.matcher.wal_load(r)?;
        self.stats = LoomStats {
            bypassed: r.u64()?,
            buffered: r.u64()?,
            auctions: r.u64()?,
            matches_assigned: r.u64()?,
            fallback_auctions: r.u64()?,
        };
        Ok(())
    }

    fn into_assignment(self: Box<Self>) -> Assignment {
        self.state.into_assignment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::partition_stream;
    use loom_graph::{GraphStream, Label, LabeledGraph, PatternGraph, StreamOrder, VertexId};

    const A: Label = Label(0);
    const B: Label = Label(1);
    const C: Label = Label(2);

    fn small_config(k: usize, window: usize, num_vertices: usize) -> LoomConfig {
        LoomConfig {
            k,
            window_size: window,
            support_threshold: 0.4,
            prime: 251,
            eo: EoParams::default(),
            capacity_slack: 1.1,
            capacity: CapacityModel::prescient(num_vertices, 0),
            seed: 7,
            allocation: AllocationPolicy::EqualOpportunism,
            adjacency_horizon: AdjacencyHorizon::default(),
        }
    }

    /// A graph of a-b-c paths: chains that q2-style workloads traverse.
    fn path_soup(n_chains: usize) -> LabeledGraph {
        let mut g = LabeledGraph::with_anonymous_labels(4);
        for _ in 0..n_chains {
            let a = g.add_vertex(A);
            let b = g.add_vertex(B);
            let c = g.add_vertex(C);
            g.add_edge(a, b);
            g.add_edge(b, c);
        }
        g
    }

    fn abc_workload() -> Workload {
        Workload::new(vec![(PatternGraph::path("q", vec![A, B, C]), 1.0)])
    }

    #[test]
    fn every_vertex_assigned_after_finish() {
        let g = path_soup(40);
        let stream = GraphStream::from_graph(&g, StreamOrder::AsGenerated, 1);
        let mut loom = LoomPartitioner::new(
            &small_config(4, 8, g.num_vertices()),
            &abc_workload(),
            g.num_labels(),
        );
        partition_stream(&mut loom, &stream);
        for v in g.vertices() {
            assert!(loom.state().is_assigned(v), "{v:?} unassigned");
        }
        assert_eq!(loom.window_len(), 0);
    }

    #[test]
    fn motif_paths_stay_whole() {
        // Every a-b-c chain is a motif match; Loom should cut almost
        // none of them (each chain is assigned as one match cluster).
        let g = path_soup(60);
        let stream = GraphStream::from_graph(&g, StreamOrder::AsGenerated, 1);
        let mut loom = LoomPartitioner::new(
            &small_config(2, 10, g.num_vertices()),
            &abc_workload(),
            g.num_labels(),
        );
        partition_stream(&mut loom, &stream);
        let assignment = Box::new(loom).into_assignment();
        let cut = g
            .edges()
            .filter(|&(_, u, v)| assignment.is_cut(u, v))
            .count();
        assert!(
            cut * 10 <= g.num_edges(),
            "motif-aware placement should cut <10% of chain edges, cut {cut}/{}",
            g.num_edges()
        );
    }

    #[test]
    fn balance_respected() {
        let g = path_soup(100);
        let stream = GraphStream::from_graph(&g, StreamOrder::AsGenerated, 3);
        let mut loom = LoomPartitioner::new(
            &small_config(4, 16, g.num_vertices()),
            &abc_workload(),
            g.num_labels(),
        );
        partition_stream(&mut loom, &stream);
        let max = loom.state().max_size() as f64;
        let mean = g.num_vertices() as f64 / 4.0;
        assert!(max <= mean * 1.35, "max {max} vs mean {mean}");
    }

    #[test]
    fn non_motif_edges_bypass() {
        // Workload only knows a-b; c-c edges bypass the window.
        let mut g = LabeledGraph::with_anonymous_labels(3);
        let mut last = None;
        for _ in 0..10 {
            let c1 = g.add_vertex(C);
            let c2 = g.add_vertex(C);
            g.add_edge(c1, c2);
            if let Some(p) = last {
                g.add_edge(p, c1);
            }
            last = Some(c2);
        }
        let workload = Workload::new(vec![(PatternGraph::path("q", vec![A, B]), 1.0)]);
        let stream = GraphStream::from_graph(&g, StreamOrder::AsGenerated, 1);
        let mut loom = LoomPartitioner::new(
            &small_config(2, 8, g.num_vertices()),
            &workload,
            g.num_labels(),
        );
        partition_stream(&mut loom, &stream);
        let stats = loom.stats();
        assert_eq!(stats.buffered, 0);
        assert_eq!(stats.bypassed as usize, g.num_edges());
        for v in g.vertices() {
            assert!(loom.state().is_assigned(v));
        }
    }

    #[test]
    fn stats_count_auctions() {
        let g = path_soup(30);
        let stream = GraphStream::from_graph(&g, StreamOrder::AsGenerated, 1);
        let mut loom = LoomPartitioner::new(
            &small_config(2, 6, g.num_vertices()),
            &abc_workload(),
            g.num_labels(),
        );
        partition_stream(&mut loom, &stream);
        let stats = loom.stats();
        assert!(stats.auctions > 0);
        assert!(stats.matches_assigned >= stats.auctions);
        assert_eq!(stats.buffered as usize, g.num_edges());
    }

    #[test]
    fn window_never_exceeds_capacity() {
        let g = path_soup(50);
        let stream = GraphStream::from_graph(&g, StreamOrder::Random, 5);
        let mut loom = LoomPartitioner::new(
            &small_config(2, 12, g.num_vertices()),
            &abc_workload(),
            g.num_labels(),
        );
        for e in stream.iter() {
            loom.on_edge(e);
            assert!(loom.window_len() <= 12);
        }
        loom.finish();
        assert_eq!(loom.window_len(), 0);
    }

    #[test]
    fn larger_window_cuts_fewer_chain_edges() {
        // Fig. 9's direction at miniature scale: window 2 vs 30 on a
        // random-order stream.
        let g = path_soup(80);
        let stream = GraphStream::from_graph(&g, StreamOrder::Random, 11);
        let cut_with = |w: usize| {
            let mut loom = LoomPartitioner::new(
                &small_config(2, w, g.num_vertices()),
                &abc_workload(),
                g.num_labels(),
            );
            partition_stream(&mut loom, &stream);
            let a = Box::new(loom).into_assignment();
            g.edges().filter(|&(_, u, v)| a.is_cut(u, v)).count()
        };
        let small = cut_with(2);
        let large = cut_with(40);
        assert!(
            large <= small,
            "window 40 cut {large} > window 2 cut {small}"
        );
    }

    #[test]
    fn vertex_helper_used() {
        // Silence-the-linter style sanity: VertexId range respected.
        let g = path_soup(2);
        assert!(g.num_vertices() == 6 && g.label(VertexId(0)) == A);
    }
}
