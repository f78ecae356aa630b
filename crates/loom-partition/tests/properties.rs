//! Property-based tests of partition state and the heuristics'
//! universal guarantees.

use loom_graph::{EdgeId, Label, PartitionId, StreamEdge, VertexId};
use loom_partition::{
    auction, fennel_choose, ldg_choose, ration, AdjacencyHorizon, AuctionMatch, CapacityModel,
    EoParams, FennelParams, FennelPartitioner, HashPartitioner, LdgPartitioner, OnlineAdjacency,
    PartitionState, StreamPartitioner,
};
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;

fn random_edges(n_vertices: usize, n_edges: usize, seed: u64) -> Vec<StreamEdge> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n_edges)
        .map(|i| {
            let u = rng.gen_range(0..n_vertices) as u32;
            let mut v = rng.gen_range(0..n_vertices) as u32;
            if v == u {
                v = (v + 1) % n_vertices as u32;
            }
            StreamEdge {
                id: EdgeId(i as u32),
                src: VertexId(u),
                dst: VertexId(v),
                src_label: Label(0),
                dst_label: Label(0),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sizes always sum to the number of assigned vertices, for any
    /// assignment sequence.
    #[test]
    fn sizes_sum_to_assigned(
        k in 1usize..8, n in 1usize..64, seed in any::<u64>()
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s = PartitionState::prescient(k, n, 1.1);
        let mut assigned = 0;
        for v in 0..n {
            if rng.gen_bool(0.7) {
                s.assign(VertexId(v as u32), PartitionId(rng.gen_range(0..k) as u32));
                assigned += 1;
            }
        }
        prop_assert_eq!(s.assigned_count(), assigned);
        prop_assert_eq!(s.sizes().iter().sum::<usize>(), assigned);
        prop_assert!(s.min_size() <= s.max_size());
    }

    /// Every baseline partitioner assigns both endpoints of every edge
    /// it sees, keeps all sizes within the hard capacity, and never
    /// moves a vertex.
    #[test]
    fn baselines_assign_and_respect_capacity(
        k in 2usize..6, n_edges in 1usize..128, seed in any::<u64>()
    ) {
        let n = 64usize;
        let edges = random_edges(n, n_edges, seed);
        let partitioners: Vec<Box<dyn StreamPartitioner>> = vec![
            Box::new(HashPartitioner::new(k, seed)),
            Box::new(LdgPartitioner::new(k, CapacityModel::prescient(n, 0))),
            Box::new(FennelPartitioner::new(
                k,
                CapacityModel::prescient(n, n_edges),
                FennelParams::default(),
            )),
        ];
        for mut p in partitioners {
            let mut first_seen: std::collections::HashMap<VertexId, PartitionId> =
                Default::default();
            for e in &edges {
                p.on_edge(e);
                for v in [e.src, e.dst] {
                    let now = p.state().partition_of(v).expect("assigned on arrival");
                    let prev = first_seen.entry(v).or_insert(now);
                    prop_assert_eq!(*prev, now, "streaming: no re-assignment");
                }
            }
            p.finish();
            // Hash places by pure hashing and is capacity-oblivious
            // (it balances only in expectation); the informed
            // heuristics must respect the hard capacity.
            if p.name() != "Hash" {
                let cap = p.state().capacity();
                for part in p.state().partitions() {
                    prop_assert!(
                        (p.state().size(part) as f64) <= cap + 1.0,
                        "{}: partition over capacity",
                        p.name()
                    );
                }
            }
        }
    }

    /// LDG's choice is always a valid partition, and with no placed
    /// neighbours it is the least-loaded one.
    #[test]
    fn ldg_choice_valid(k in 1usize..8, seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 32;
        let mut s = PartitionState::prescient(k, n, 1.1);
        let adj = OnlineAdjacency::new();
        for v in 0..16u32 {
            if rng.gen_bool(0.5) {
                s.assign(VertexId(v), PartitionId(rng.gen_range(0..k) as u32));
            }
        }
        let fresh = VertexId(31);
        let choice = ldg_choose(&s, &adj, fresh);
        prop_assert!(choice.index() < k);
        prop_assert_eq!(choice, s.least_loaded(), "no neighbours -> least loaded");
    }

    /// The auction always returns a valid winner with 1 <= take <=
    /// |matches|, and the ration is in [0, 1].
    #[test]
    fn auction_outcome_valid(
        k in 2usize..6,
        n_matches in 1usize..6,
        placed in 0usize..20,
        seed in any::<u64>()
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s = PartitionState::prescient(k, 64, 1.1);
        for v in 0..placed {
            s.assign(VertexId(v as u32), PartitionId(rng.gen_range(0..k) as u32));
        }
        let params = EoParams::default();
        for p in s.partitions() {
            let l = ration(&s, p, &params);
            prop_assert!((0.0..=1.0).contains(&l), "ration {l} out of range");
        }
        let matches: Vec<AuctionMatch> = (0..n_matches)
            .map(|i| AuctionMatch {
                vertices: (0..3)
                    .map(|_| VertexId(rng.gen_range(0..30) as u32))
                    .collect(),
                support: 1.0 - i as f64 * 0.1,
                num_edges: i + 1,
            })
            .collect();
        let outcome = auction(&s, &params, &matches);
        prop_assert!(outcome.winner.index() < k);
        prop_assert!(outcome.take >= 1 && outcome.take <= matches.len());
        prop_assert!(outcome.total_bid >= 0.0);
    }
}

/// The pre-refactor fixed-size state, re-implemented verbatim as the
/// oracle for the prescient-equivalence property: capacity computed
/// once as `(slack * n / k).max(1.0)`, a fixed assignment vector, and
/// the same residual/least-loaded rules.
struct FixedSizeReference {
    capacity: f64,
    assignment: Vec<u32>,
    sizes: Vec<usize>,
}

const REF_UNASSIGNED: u32 = u32::MAX;

impl FixedSizeReference {
    fn new(k: usize, n: usize, slack: f64) -> Self {
        FixedSizeReference {
            capacity: (slack * n as f64 / k as f64).max(1.0),
            assignment: vec![REF_UNASSIGNED; n],
            sizes: vec![0; k],
        }
    }

    fn assign(&mut self, v: VertexId, p: PartitionId) {
        if self.assignment[v.index()] == REF_UNASSIGNED {
            self.assignment[v.index()] = p.0;
            self.sizes[p.index()] += 1;
        }
    }

    fn residual(&self, p: PartitionId) -> f64 {
        1.0 - self.sizes[p.index()] as f64 / self.capacity
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Growable adaptive state: sizes always sum to the assigned-vertex
    /// count, for arbitrary (gappy, unordered) vertex-id sequences.
    #[test]
    fn growable_sizes_sum_to_assigned(
        k in 1usize..8, ops in 1usize..96, seed in any::<u64>()
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s = PartitionState::new(k, CapacityModel::Adaptive, 1.1);
        let mut expected = std::collections::HashMap::new();
        for _ in 0..ops {
            // Sparse ids with gaps of up to ~1000.
            let v = VertexId(rng.gen_range(0..1000) as u32);
            let p = PartitionId(rng.gen_range(0..k) as u32);
            if let std::collections::hash_map::Entry::Vacant(slot) = expected.entry(v) {
                s.assign(v, p);
                slot.insert(p);
            }
        }
        prop_assert_eq!(s.assigned_count(), expected.len());
        prop_assert_eq!(s.sizes().iter().sum::<usize>(), expected.len());
    }

    /// Assignments are permanent: whatever partition a vertex got
    /// first, it still reports after any number of later assignments.
    #[test]
    fn growable_assignments_are_permanent(
        k in 1usize..8, ops in 1usize..96, seed in any::<u64>()
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s = PartitionState::new(k, CapacityModel::Adaptive, 1.1);
        let mut expected: std::collections::HashMap<VertexId, PartitionId> = Default::default();
        for _ in 0..ops {
            let v = VertexId(rng.gen_range(0..500) as u32);
            let p = PartitionId(rng.gen_range(0..k) as u32);
            // Re-assigning to the recorded target is the idempotent
            // path; fresh vertices take the new target.
            let target = *expected.entry(v).or_insert(p);
            s.assign(v, target);
            for (&w, &q) in &expected {
                prop_assert_eq!(s.partition_of(w), Some(q), "{:?} moved", w);
            }
        }
    }

    /// Adaptive capacity is monotone non-decreasing in the assignment
    /// sequence (a partition under capacity never becomes over-full by
    /// a capacity drop).
    #[test]
    fn adaptive_capacity_is_monotone(
        k in 1usize..8, ops in 1usize..128, seed in any::<u64>()
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s = PartitionState::new(k, CapacityModel::Adaptive, 1.1);
        let mut last = s.capacity();
        for i in 0..ops {
            if rng.gen_bool(0.8) {
                s.assign(
                    VertexId(i as u32),
                    PartitionId(rng.gen_range(0..k) as u32),
                );
            }
            let now = s.capacity();
            prop_assert!(now >= last, "capacity fell: {last} -> {now}");
            last = now;
        }
    }

    /// Prescient mode is bit-identical to the pre-refactor fixed-size
    /// state: same capacity, sizes, per-vertex assignment and residual
    /// for any in-range assignment sequence.
    #[test]
    fn prescient_matches_fixed_size_reference(
        k in 1usize..8, n in 1usize..64, ops in 0usize..96,
        slack in 1.0f64..2.0, seed in any::<u64>()
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s = PartitionState::prescient(k, n, slack);
        let mut r = FixedSizeReference::new(k, n, slack);
        prop_assert_eq!(s.capacity().to_bits(), r.capacity.to_bits());
        for _ in 0..ops {
            let v = VertexId(rng.gen_range(0..n) as u32);
            let p = PartitionId(rng.gen_range(0..k) as u32);
            // Mirror the old "idempotent or fresh" contract.
            let target = match s.partition_of(v) {
                Some(existing) => existing,
                None => p,
            };
            s.assign(v, target);
            r.assign(v, target);
        }
        prop_assert_eq!(s.capacity().to_bits(), r.capacity.to_bits());
        prop_assert_eq!(s.sizes(), r.sizes.as_slice());
        prop_assert_eq!(s.num_vertices(), n, "prescient range is fixed");
        for v in 0..n as u32 {
            let expect = match r.assignment[v as usize] {
                REF_UNASSIGNED => None,
                p => Some(PartitionId(p)),
            };
            prop_assert_eq!(s.partition_of(VertexId(v)), expect);
        }
        for p in s.partitions() {
            prop_assert_eq!(s.residual(p).to_bits(), r.residual(p).to_bits());
        }
    }
}

/// Verbatim scan-based reference partitioners, kept as behavioural
/// oracles: the edge-stream baselines score through one-hot
/// first-sight rows, and these re-derive every score by scanning
/// `OnlineAdjacency::neighbors` at decision time.
/// `one_hot_scoring_equals_scan_reference` below asserts bit-equality
/// of the resulting assignments on random streams under both capacity
/// models.
mod scan_reference {
    use super::*;

    pub struct ScanLdg {
        pub state: PartitionState,
        pub adjacency: OnlineAdjacency,
    }

    impl ScanLdg {
        pub fn new(k: usize, capacity: CapacityModel) -> Self {
            ScanLdg {
                state: PartitionState::new(k, capacity, 1.1),
                adjacency: OnlineAdjacency::new(),
            }
        }

        pub fn on_edge(&mut self, e: &StreamEdge) {
            self.adjacency.add(e);
            for v in [e.src, e.dst] {
                if !self.state.is_assigned(v) {
                    let p = ldg_choose(&self.state, &self.adjacency, v);
                    self.state.assign(v, p);
                }
            }
        }
    }

    pub struct ScanFennel {
        pub state: PartitionState,
        pub adjacency: OnlineAdjacency,
        gamma: f64,
        nu: f64,
        fixed: Option<(f64, f64)>,
        edges_seen: usize,
    }

    impl ScanFennel {
        pub fn new(k: usize, capacity: CapacityModel, params: FennelParams) -> Self {
            let kf = k as f64;
            let fixed = match capacity {
                CapacityModel::Prescient {
                    num_vertices,
                    num_edges,
                } => {
                    let n = num_vertices.max(1) as f64;
                    let m = num_edges.max(1) as f64;
                    Some((
                        m * kf.powf(params.gamma - 1.0) / n.powf(params.gamma),
                        params.nu * n / kf,
                    ))
                }
                CapacityModel::Adaptive => None,
            };
            ScanFennel {
                state: PartitionState::new(k, capacity, params.nu),
                adjacency: OnlineAdjacency::new(),
                gamma: params.gamma,
                nu: params.nu,
                fixed,
                edges_seen: 0,
            }
        }

        fn alpha_and_cap(&self) -> (f64, f64) {
            match self.fixed {
                Some(pair) => pair,
                None => {
                    let kf = self.state.k() as f64;
                    let n = self.state.assigned_count().max(1) as f64;
                    let m = self.edges_seen.max(1) as f64;
                    (
                        m * kf.powf(self.gamma - 1.0) / n.powf(self.gamma),
                        self.nu * n / kf,
                    )
                }
            }
        }

        pub fn on_edge(&mut self, e: &StreamEdge) {
            self.edges_seen += 1;
            self.adjacency.add(e);
            for v in [e.src, e.dst] {
                if !self.state.is_assigned(v) {
                    let (alpha, cap) = self.alpha_and_cap();
                    let mut counts = vec![0u32; self.state.k()];
                    for &w in self.adjacency.neighbors(v) {
                        if let Some(p) = self.state.partition_of(w) {
                            counts[p.index()] += 1;
                        }
                    }
                    let p = fennel_choose(&self.state, &counts, alpha, self.gamma, cap);
                    self.state.assign(v, p);
                }
            }
        }
    }
}

/// A stream with deliberate hubs and occasional duplicate pairs, so the
/// counter maintenance is exercised with multiplicity > 1 entries.
fn hubby_edges(n_vertices: usize, n_edges: usize, seed: u64) -> Vec<StreamEdge> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n_edges)
        .map(|i| {
            let u = if rng.gen_bool(0.3) {
                0 // hub
            } else {
                rng.gen_range(0..n_vertices) as u32
            };
            let mut v = rng.gen_range(0..n_vertices) as u32;
            if v == u {
                v = (v + 1) % n_vertices as u32;
            }
            StreamEdge {
                id: EdgeId(i as u32),
                src: VertexId(u),
                dst: VertexId(v),
                src_label: Label(0),
                dst_label: Label(0),
            }
        })
        .collect()
}

/// A labelled stream for Loom runs: a-b-c chains (each one a motif
/// match for the path workload) interleaved with non-motif c-c edges
/// (bypass traffic), in a seed-shuffled arrival order.
fn chain_stream(n_chains: usize, seed: u64) -> (Vec<StreamEdge>, usize, loom_graph::Workload) {
    use loom_graph::{PatternGraph, Workload};
    const A: Label = Label(0);
    const B: Label = Label(1);
    const C: Label = Label(2);
    let mut edges = Vec::new();
    for i in 0..n_chains as u32 {
        let (a, b, c) = (3 * i, 3 * i + 1, 3 * i + 2);
        edges.push((a, A, b, B));
        edges.push((b, B, c, C));
        if i > 0 {
            // Cross-chain c-c edge: matches nothing, bypasses the window.
            edges.push((c, C, c - 3, C));
        }
    }
    // Seeded Fisher-Yates (the rand shim has no shuffle helper).
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..=i));
    }
    let stream = edges
        .into_iter()
        .enumerate()
        .map(|(id, (src, sl, dst, dl))| StreamEdge {
            id: EdgeId(id as u32),
            src: VertexId(src),
            dst: VertexId(dst),
            src_label: sl,
            dst_label: dl,
        })
        .collect();
    let workload = Workload::new(vec![(PatternGraph::path("q", vec![A, B, C]), 1.0)]);
    (stream, 3, workload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LDG and Fennel keep no counters and no adjacency: they score an
    /// unassigned endpoint at first sight by a one-hot row of the other
    /// endpoint's partition. That is bit-identical to the verbatim
    /// adjacency-scan references, edge by edge, on random hub-heavy
    /// streams (with repeated pairs) under both capacity models.
    #[test]
    fn one_hot_scoring_equals_scan_reference(
        k in 2usize..8,
        n_edges in 1usize..160,
        prescient in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = 48usize;
        let edges = hubby_edges(n, n_edges, seed);
        let capacity = if prescient {
            CapacityModel::prescient(n, n_edges)
        } else {
            CapacityModel::Adaptive
        };

        let mut ldg = LdgPartitioner::new(k, capacity);
        let mut ldg_ref = scan_reference::ScanLdg::new(k, capacity);
        let mut fennel = FennelPartitioner::new(k, capacity, FennelParams::default());
        let mut fennel_ref =
            scan_reference::ScanFennel::new(k, capacity, FennelParams::default());

        for e in &edges {
            ldg.on_edge(e);
            ldg_ref.on_edge(e);
            fennel.on_edge(e);
            fennel_ref.on_edge(e);
            for v in [e.src, e.dst] {
                prop_assert_eq!(
                    ldg.state().partition_of(v),
                    ldg_ref.state.partition_of(v),
                    "LDG diverged from scan reference at {:?} (edge {:?})", v, e.id
                );
                prop_assert_eq!(
                    fennel.state().partition_of(v),
                    fennel_ref.state.partition_of(v),
                    "Fennel diverged from scan reference at {:?} (edge {:?})", v, e.id
                );
            }
        }
    }

    /// Tentpole contract of the bounded adjacency: a Loom run whose
    /// retention horizon covers the whole stream extent is bit-equal —
    /// per-vertex assignments and every run counter — to an unbounded
    /// twin; nothing ever ages out, so the aged store must be a
    /// perfect impostor. A third twin with a biting horizon must keep
    /// its resident entries within the compaction bound regardless of
    /// stream length.
    #[test]
    fn aged_adjacency_matches_unbounded_twin(
        k in 2usize..5,
        window in 2usize..24,
        n_chains in 4usize..60,
        seed in any::<u64>(),
    ) {
        let (edges, num_labels, workload) = chain_stream(n_chains, seed);
        let extent = edges.len() as u64;
        let run = |horizon: AdjacencyHorizon| {
            let config = loom_partition::LoomConfig {
                k,
                window_size: window,
                support_threshold: 0.4,
                prime: 251,
                eo: EoParams::default(),
                capacity_slack: 1.1,
                capacity: CapacityModel::Adaptive,
                seed: 7,
                allocation: Default::default(),
                adjacency_horizon: horizon,
            };
            let mut p = loom_partition::LoomPartitioner::new(&config, &workload, num_labels);
            for e in &edges {
                p.on_edge(e);
            }
            p.finish();
            p
        };
        let unbounded = run(AdjacencyHorizon::Unbounded);
        let covering = run(AdjacencyHorizon::Edges(extent));
        let stats_a = unbounded.stats();
        let stats_b = covering.stats();
        prop_assert_eq!(stats_a.bypassed, stats_b.bypassed);
        prop_assert_eq!(stats_a.buffered, stats_b.buffered);
        prop_assert_eq!(stats_a.auctions, stats_b.auctions);
        prop_assert_eq!(stats_a.matches_assigned, stats_b.matches_assigned);
        prop_assert_eq!(stats_a.fallback_auctions, stats_b.fallback_auctions);
        for e in &edges {
            for v in [e.src, e.dst] {
                prop_assert_eq!(
                    covering.state().partition_of(v),
                    unbounded.state().partition_of(v),
                    "covering horizon diverged from unbounded twin at {:?}", v
                );
            }
        }
        let occ = covering.adjacency_occupancy();
        prop_assert_eq!(occ.live_entries, 2 * edges.len(), "nothing may age out");
        prop_assert_eq!(occ.generation, 0, "no compaction without expiry");

        // A biting horizon: outputs may differ, residency must not grow
        // past the compaction bound (dead can outnumber live only below
        // the minimum-population floor).
        let horizon = 1 + (seed % 64);
        let bitten = run(AdjacencyHorizon::Edges(horizon));
        let occ = bitten.adjacency_occupancy();
        prop_assert!(occ.live_entries <= 2 * horizon as usize);
        let bound = (4 * horizon as usize + 4).max(4_096 + 4);
        prop_assert!(
            occ.resident_entries <= bound,
            "resident {} exceeds the compaction bound {}",
            occ.resident_entries,
            bound
        );
        prop_assert_eq!(occ.entries_ever, 2 * extent);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The adjacency's differential oracle: the inline-first rows and
    /// their spill slab against a plain per-vertex deque of retained
    /// neighbours. Hub-skewed ids carry rows across the 3 inline slots
    /// and the checkpoint encoding's 8-entry threshold, the horizon
    /// bites, and every sequence runs past the first compaction
    /// (2 048 edges fill the 4 096-entry floor). At every step
    /// `neighbors(v)`, the expired edge and `occupancy()` equal the
    /// model's, and the checkpoint bytes survive save → load → save.
    #[test]
    fn adjacency_equals_deque_model(
        horizon in 1u64..25,
        edges in 2_048usize..4_400,
        hubs in 1u32..4,
        seed in any::<u64>(),
    ) {
        use loom_partition::AdjacencyOccupancy;
        use loom_wal::{ByteReader, ByteWriter};
        use std::collections::VecDeque;
        let n = 40u32;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut adjacency = OnlineAdjacency::bounded(horizon);
        // The model: each vertex's retained neighbours, oldest first,
        // the ring of retained edges, and the store's compaction rule
        // (dead entries outnumber live ones, 4 096 resident at least).
        let mut model: Vec<VecDeque<VertexId>> = vec![VecDeque::new(); n as usize];
        let mut ring: VecDeque<(VertexId, VertexId)> = VecDeque::new();
        let (mut dead, mut generation) = (0usize, 0u64);
        let save = |adjacency: &OnlineAdjacency| {
            let mut w = ByteWriter::new();
            adjacency.wal_save(&mut w);
            w.into_bytes()
        };
        for i in 0..edges {
            let mut endpoint = || {
                VertexId(if rng.gen_bool(0.4) {
                    rng.gen_range(0..hubs)
                } else {
                    rng.gen_range(0..n)
                })
            };
            let (src, dst) = (endpoint(), endpoint());
            let e = StreamEdge {
                id: EdgeId(i as u32),
                src,
                dst,
                src_label: Label(0),
                dst_label: Label(0),
            };
            let expired = adjacency.add(&e);
            model[src.index()].push_back(dst);
            model[dst.index()].push_back(src);
            ring.push_back((src, dst));
            let mut want_expired = None;
            if ring.len() as u64 > horizon {
                let (u, v) = ring.pop_front().unwrap();
                for (from, to) in [(u, v), (v, u)] {
                    prop_assert_eq!(model[from.index()].pop_front(), Some(to));
                }
                want_expired = Some((u, v));
                dead += 2;
                let live = 2 * ring.len();
                if dead > live && live + dead >= 4_096 {
                    dead = 0;
                    generation += 1;
                }
            }
            prop_assert_eq!(expired, want_expired, "expired edge at {}", i);
            for v in 0..n {
                let v = VertexId(v);
                prop_assert!(
                    adjacency.neighbors(v).iter().eq(model[v.index()].iter()),
                    "neighbors({:?}) diverged at edge {}", v, i
                );
            }
            let live = 2 * ring.len();
            prop_assert_eq!(
                adjacency.occupancy(),
                AdjacencyOccupancy {
                    live_entries: live,
                    resident_entries: live + dead,
                    entries_ever: 2 * (i as u64 + 1),
                    generation,
                },
                "occupancy at edge {}", i
            );
            let bytes = save(&adjacency);
            let mut back = OnlineAdjacency::bounded(horizon);
            back.wal_load(&mut ByteReader::new(&bytes)).unwrap();
            prop_assert!(save(&back) == bytes, "save -> load -> save differs at edge {}", i);
        }
        prop_assert!(generation >= 1);
    }
}
