//! Property-based tests of the sliding window and the matcher's
//! structural invariants under random streams — plus the arena
//! refactor's equivalence suite: the zero-clone matcher must produce
//! *exactly* the same match sets as a verbatim copy of the
//! pre-refactor matcher, across window sizes and support thresholds.

use loom_graph::{EdgeId, Label, PatternGraph, StreamEdge, VertexId, Workload};
use loom_matcher::{EdgeFate, MotifMatcher, SlidingWindow};
use loom_motif::{LabelRandomizer, TpsTrie, DEFAULT_PRIME};
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;

fn random_stream(n_vertices: usize, n_edges: usize, labels: usize, seed: u64) -> Vec<StreamEdge> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let vertex_labels: Vec<Label> = (0..n_vertices)
        .map(|_| Label(rng.gen_range(0..labels) as u16))
        .collect();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    let mut id = 0u32;
    while out.len() < n_edges && seen.len() < n_vertices * (n_vertices - 1) / 2 {
        let u = rng.gen_range(0..n_vertices);
        let v = rng.gen_range(0..n_vertices);
        if u == v || !seen.insert((u.min(v), u.max(v))) {
            continue;
        }
        out.push(StreamEdge {
            id: EdgeId(id),
            src: VertexId(u as u32),
            dst: VertexId(v as u32),
            src_label: vertex_labels[u],
            dst_label: vertex_labels[v],
        });
        id += 1;
    }
    out
}

/// A hub plus triangles through its neighbours, for the triangle
/// workload: each round adds a spoke from the hub to a fresh vertex
/// `y`, a rim edge from `y` to a fresh vertex `x`, one to three more
/// spokes, and the edge from `x` back to the hub. The extra spokes push
/// the match {spoke, rim} — which holds both endpoints of the closing
/// edge — behind a small per-endpoint cap in the hub's row, so the
/// closing edge needs the matcher's truncated-row degree walk. The
/// hub is the closing edge's destination in even rounds and its source
/// in odd ones, so each of the two walks (truncated `dst` row,
/// truncated `src` row) gets its case; the other edges point either
/// way at random. The hub has label `a`, and every rim joins a `b` to
/// a `c`. No vertex pair repeats.
fn hub_cycle_stream(n_edges: usize, seed: u64) -> Vec<StreamEdge> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut labels = vec![Label(0)];
    let mut fresh = |label: u16| {
        labels.push(Label(label));
        labels.len() as u32 - 1
    };
    // (src, dst) pairs; `either` lets the edge point either way.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let either = |rng: &mut rand::rngs::StdRng, u: u32, v: u32| {
        if rng.gen_bool(0.5) {
            (u, v)
        } else {
            (v, u)
        }
    };
    for round in 0.. {
        if edges.len() >= n_edges {
            break;
        }
        let side = rng.gen_range(1..3u16);
        let y = fresh(side);
        let x = fresh(3 - side);
        edges.push(either(&mut rng, 0, y));
        edges.push(either(&mut rng, y, x));
        for _ in 0..rng.gen_range(1..4) {
            let z = fresh(rng.gen_range(1..3));
            edges.push(either(&mut rng, 0, z));
        }
        edges.push(if round % 2 == 0 { (x, 0) } else { (0, x) });
    }
    edges.truncate(n_edges);
    edges
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst))| StreamEdge {
            id: EdgeId(i as u32),
            src: VertexId(src),
            dst: VertexId(dst),
            src_label: labels[src as usize],
            dst_label: labels[dst as usize],
        })
        .collect()
}

/// A verbatim copy of the pre-refactor matcher (owned edge vectors,
/// SipHash maps, per-candidate `Delta` computation, clone-based join)
/// kept as the behavioural oracle for the arena refactor. Apart from
/// module-path adjustments and the per-endpoint cap taken as an input,
/// this is the code as committed before the interned/arena
/// representation landed.
mod reference {
    use loom_graph::{EdgeId, StreamEdge, VertexId};
    use loom_motif::{edge_delta, single_edge_delta, Delta, LabelRandomizer, MotifId, MotifIndex};
    use std::collections::{HashMap, HashSet};

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct MatchId(pub u32);

    impl MatchId {
        fn index(self) -> usize {
            self.0 as usize
        }
    }

    #[derive(Clone, Debug)]
    pub struct MotifMatch {
        pub edges: Vec<StreamEdge>,
        pub motif: MotifId,
        pub alive: bool,
    }

    impl MotifMatch {
        pub fn vertices(&self) -> Vec<VertexId> {
            let mut vs: Vec<VertexId> = self.edges.iter().flat_map(|e| [e.src, e.dst]).collect();
            vs.sort_unstable();
            vs.dedup();
            vs
        }

        pub fn contains_edge(&self, e: EdgeId) -> bool {
            self.edges.binary_search_by_key(&e, |x| x.id).is_ok()
        }

        pub fn len(&self) -> usize {
            self.edges.len()
        }
    }

    fn fingerprint(motif: MotifId, edges: &[StreamEdge]) -> u128 {
        let mut h: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834;
        h ^= motif.0 as u128;
        for e in edges {
            let mut x = (e.id.0 as u128) + 0x9e37_79b9_7f4a_7c15;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9_94d0_49bb_1331_11eb);
            x ^= x >> 67;
            h = h.rotate_left(13) ^ x.wrapping_mul(0x2545_f491_4f6c_dd1d_8a5c_d789_635d_2dff);
        }
        h
    }

    #[derive(Clone, Debug, Default)]
    pub struct MatchList {
        arena: Vec<MotifMatch>,
        by_vertex: HashMap<VertexId, Vec<MatchId>>,
        by_edge: HashMap<EdgeId, Vec<MatchId>>,
        dedup: HashSet<u128>,
        live: usize,
    }

    impl MatchList {
        pub fn new() -> Self {
            Self::default()
        }

        pub fn insert(&mut self, mut edges: Vec<StreamEdge>, motif: MotifId) -> Option<MatchId> {
            debug_assert!(!edges.is_empty());
            edges.sort_unstable_by_key(|e| e.id);
            edges.dedup_by_key(|e| e.id);
            if !self.dedup.insert(fingerprint(motif, &edges)) {
                return None;
            }
            let id = MatchId(self.arena.len() as u32);
            let m = MotifMatch {
                edges,
                motif,
                alive: true,
            };
            for v in m.vertices() {
                self.by_vertex.entry(v).or_default().push(id);
            }
            for e in &m.edges {
                self.by_edge.entry(e.id).or_default().push(id);
            }
            self.arena.push(m);
            self.live += 1;
            Some(id)
        }

        pub fn get(&self, id: MatchId) -> &MotifMatch {
            &self.arena[id.index()]
        }

        pub fn matches_at_vertex_pruned(&mut self, v: VertexId) -> Vec<MatchId> {
            let arena = &self.arena;
            let Some(ids) = self.by_vertex.get_mut(&v) else {
                return Vec::new();
            };
            ids.retain(|id| arena[id.index()].alive);
            if ids.is_empty() {
                self.by_vertex.remove(&v);
                return Vec::new();
            }
            ids.clone()
        }

        pub fn matches_at_edge(&self, e: EdgeId) -> Vec<MatchId> {
            self.by_edge
                .get(&e)
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&id| self.arena[id.index()].alive)
                        .collect()
                })
                .unwrap_or_default()
        }

        pub fn drop_edge(&mut self, e: EdgeId) -> usize {
            let Some(ids) = self.by_edge.remove(&e) else {
                return 0;
            };
            let mut killed = 0;
            for id in ids {
                let m = &mut self.arena[id.index()];
                if m.alive {
                    m.alive = false;
                    self.live -= 1;
                    killed += 1;
                    let fp = fingerprint(m.motif, &m.edges);
                    self.dedup.remove(&fp);
                }
            }
            killed
        }

        pub fn compact(&mut self) {
            let arena = &self.arena;
            self.by_vertex.retain(|_, ids| {
                ids.retain(|id| arena[id.index()].alive);
                !ids.is_empty()
            });
            self.by_edge.retain(|_, ids| {
                ids.retain(|id| arena[id.index()].alive);
                !ids.is_empty()
            });
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum EdgeFate {
        Bypass,
        Buffered,
    }

    #[derive(Clone, Debug)]
    pub struct MotifMatcher {
        motifs: MotifIndex,
        rand: LabelRandomizer,
        matches: MatchList,
        ops_since_compact: usize,
        /// The per-endpoint match cap (the original's
        /// `MAX_MATCHES_PER_ENDPOINT` constant, here an input so the
        /// suite can reach the truncated-row paths).
        cap: usize,
    }

    impl MotifMatcher {
        pub fn new(motifs: MotifIndex, rand: LabelRandomizer, cap: usize) -> Self {
            MotifMatcher {
                motifs,
                rand,
                matches: MatchList::new(),
                ops_since_compact: 0,
                cap,
            }
        }

        pub fn on_edge(&mut self, e: StreamEdge) -> EdgeFate {
            let single = single_edge_delta(&self.rand, e.src_label, e.dst_label);
            let Some(m0) = self.motifs.single_edge_motif(single) else {
                return EdgeFate::Bypass;
            };

            let mut connected = recent(self.matches.matches_at_vertex_pruned(e.src), self.cap);
            for id in recent(self.matches.matches_at_vertex_pruned(e.dst), self.cap) {
                if !connected.contains(&id) {
                    connected.push(id);
                }
            }

            let mut fresh: Vec<MatchId> = Vec::new();
            if let Some(id) = self.matches.insert(vec![e], m0) {
                fresh.push(id);
            }

            let max_edges = self.motifs.max_motif_edges();
            for &id in &connected {
                let m = self.matches.get(id);
                if m.contains_edge(e.id) || m.len() >= max_edges {
                    continue;
                }
                let Some(delta) = extension_delta(&self.rand, &m.edges, &e) else {
                    continue;
                };
                if let Some(child) = self.motifs.child_with_delta(m.motif, delta) {
                    let mut edges = m.edges.clone();
                    edges.push(e);
                    if let Some(nid) = self.matches.insert(edges, child) {
                        fresh.push(nid);
                    }
                }
            }

            let mut partners = recent(self.matches.matches_at_vertex_pruned(e.src), self.cap);
            for id in recent(self.matches.matches_at_vertex_pruned(e.dst), self.cap) {
                if !partners.contains(&id) {
                    partners.push(id);
                }
            }
            let mut produced: Vec<(Vec<StreamEdge>, MotifId)> = Vec::new();
            for &a in &fresh {
                for &b in &partners {
                    if a == b {
                        continue;
                    }
                    let ma = self.matches.get(a);
                    let mb = self.matches.get(b);
                    if ma.len() + mb.len() > max_edges {
                        continue;
                    }
                    let (base, other) = if ma.len() >= mb.len() {
                        (ma, mb)
                    } else {
                        (mb, ma)
                    };
                    if other.edges.iter().any(|x| base.contains_edge(x.id)) {
                        continue;
                    }
                    let mut edges = base.edges.clone();
                    let mut remaining = other.edges.clone();
                    if let Some(motif) = try_join(
                        &self.motifs,
                        &self.rand,
                        &mut edges,
                        base.motif,
                        &mut remaining,
                    ) {
                        produced.push((edges, motif));
                    }
                }
            }
            for (edges, motif) in produced {
                self.matches.insert(edges, motif);
            }

            self.ops_since_compact += 1;
            if self.ops_since_compact >= 1024 {
                self.ops_since_compact = 0;
                self.matches.compact();
            }
            EdgeFate::Buffered
        }

        pub fn matches_for_edge(&self, e: EdgeId) -> Vec<MatchId> {
            self.matches.matches_at_edge(e)
        }

        pub fn get(&self, id: MatchId) -> &MotifMatch {
            self.matches.get(id)
        }

        pub fn on_edge_assigned(&mut self, e: EdgeId) {
            self.matches.drop_edge(e);
        }
    }

    fn recent(mut ids: Vec<MatchId>, cap: usize) -> Vec<MatchId> {
        if ids.len() > cap {
            ids.sort_unstable();
            ids.drain(..ids.len() - cap);
        }
        ids
    }

    fn extension_delta(
        rand: &LabelRandomizer,
        edges: &[StreamEdge],
        e: &StreamEdge,
    ) -> Option<Delta> {
        let du = edges.iter().filter(|x| x.touches(e.src)).count();
        let dv = edges.iter().filter(|x| x.touches(e.dst)).count();
        if !edges.is_empty() && du == 0 && dv == 0 {
            return None;
        }
        Some(edge_delta(rand, e.src_label, du + 1, e.dst_label, dv + 1))
    }

    fn try_join(
        motifs: &MotifIndex,
        rand: &LabelRandomizer,
        edges: &mut Vec<StreamEdge>,
        motif: MotifId,
        remaining: &mut Vec<StreamEdge>,
    ) -> Option<MotifId> {
        if remaining.is_empty() {
            return Some(motif);
        }
        for i in 0..remaining.len() {
            let e2 = remaining[i];
            let Some(delta) = extension_delta(rand, edges, &e2) else {
                continue;
            };
            let Some(child) = motifs.child_with_delta(motif, delta) else {
                continue;
            };
            remaining.remove(i);
            edges.push(e2);
            if let Some(m) = try_join(motifs, rand, edges, child, remaining) {
                return Some(m);
            }
            edges.pop();
            remaining.insert(i, e2);
        }
        None
    }
}

/// One live match, canonically keyed: motif id + sorted edge ids.
type MatchKey = (u32, Vec<u32>);

/// The full live match set of the arena matcher, via the union of
/// per-edge lookups over the live window (every live match has all its
/// edges in the window, so the union is exhaustive).
fn arena_match_set(matcher: &MotifMatcher, window: &SlidingWindow) -> Vec<MatchKey> {
    let mut keys: Vec<MatchKey> = Vec::new();
    for e in window.iter() {
        for id in matcher.matches_for_edge(e.id) {
            let m = matcher.get(id);
            let mut edges: Vec<u32> = m.edges().map(|x| x.id.0).collect();
            edges.sort_unstable();
            keys.push((m.motif().0, edges));
        }
    }
    keys.sort();
    keys.dedup();
    keys
}

/// Same, for the reference matcher.
fn reference_match_set(matcher: &reference::MotifMatcher, window: &SlidingWindow) -> Vec<MatchKey> {
    let mut keys: Vec<MatchKey> = Vec::new();
    for e in window.iter() {
        for id in matcher.matches_for_edge(e.id) {
            let m = matcher.get(id);
            let mut edges: Vec<u32> = m.edges.iter().map(|x| x.id.0).collect();
            edges.sort_unstable();
            keys.push((m.motif.0, edges));
        }
    }
    keys.sort();
    keys.dedup();
    keys
}

/// Workloads with qualitatively different motif shapes for the
/// equivalence sweep: paths (extension-heavy), the 4-path over two
/// labels (join-heavy), a star (hub-heavy), and a triangle (picks 3+)
/// — the one shape whose closing edge extends a match holding both its
/// endpoints, which is what sends a cap-truncated row read to a chain
/// walk for the other endpoint's degree.
fn sweep_workload(which: usize) -> (Workload, usize) {
    let a = Label(0);
    let b = Label(1);
    let c = Label(2);
    match which {
        0 => (
            Workload::new(vec![
                (PatternGraph::path("p4", vec![a, b, a, b]), 60.0),
                (PatternGraph::path("abc", vec![a, b, c]), 40.0),
            ]),
            3,
        ),
        1 => (
            Workload::new(vec![(PatternGraph::path("q", vec![a, b, a, b]), 1.0)]),
            2,
        ),
        2 => (
            Workload::new(vec![
                (PatternGraph::star("s", a, vec![b, b, b]), 70.0),
                (PatternGraph::path("ab", vec![a, b]), 30.0),
            ]),
            2,
        ),
        _ => (
            Workload::new(vec![
                (PatternGraph::cycle("tri", vec![a, b, c]), 60.0),
                (PatternGraph::path("abc", vec![a, b, c]), 40.0),
            ]),
            3,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Window: len never exceeds capacity; every evicted edge was the
    /// oldest live edge; degrees stay consistent with content.
    #[test]
    fn window_respects_capacity(
        cap in 1usize..16, n_edges in 1usize..64, seed in any::<u64>()
    ) {
        let edges = random_stream(20, n_edges, 2, seed);
        let mut w = SlidingWindow::new(cap);
        let mut last_evicted: Option<EdgeId> = None;
        for e in &edges {
            if let Some(old) = w.push(*e) {
                if let Some(prev) = last_evicted {
                    prop_assert!(old.id > prev, "evictions in FIFO order");
                }
                last_evicted = Some(old.id);
            }
            prop_assert!(w.len() <= cap);
            // Degree bookkeeping agrees with an independent recount.
            let mut recount: std::collections::HashMap<VertexId, usize> = Default::default();
            for live in w.iter() {
                *recount.entry(live.src).or_default() += 1;
                *recount.entry(live.dst).or_default() += 1;
            }
            for (&v, &d) in &recount {
                prop_assert_eq!(w.degree(v), d);
            }
        }
    }

    /// Matcher: every recorded match's edge multiset is connected, has
    /// no duplicate edges, and its size never exceeds the largest
    /// motif.
    #[test]
    fn matches_are_connected_and_bounded(
        n_edges in 1usize..48, seed in any::<u64>()
    ) {
        let rand = LabelRandomizer::new(3, DEFAULT_PRIME, 3);
        // Workload whose motifs go up to 3 edges: a-b-a-b path + a-b-c.
        let workload = Workload::new(vec![
            (PatternGraph::path("p4", vec![Label(0), Label(1), Label(0), Label(1)]), 60.0),
            (PatternGraph::path("abc", vec![Label(0), Label(1), Label(2)]), 40.0),
        ]);
        let trie = TpsTrie::build(&workload, &rand);
        let motifs = trie.motifs(0.4);
        let max_edges = motifs.max_motif_edges();
        let mut matcher = MotifMatcher::new(motifs, rand);

        let edges = random_stream(12, n_edges, 3, seed);
        let mut buffered: Vec<StreamEdge> = Vec::new();
        for e in &edges {
            if matcher.on_edge(*e) == EdgeFate::Buffered {
                buffered.push(*e);
            }
        }
        for e in &buffered {
            for id in matcher.matches_for_edge(e.id) {
                let m = matcher.get(id);
                prop_assert!(m.len() <= max_edges, "match larger than any motif");
                // No duplicate edges.
                let mut ids: Vec<_> = m.edges().map(|x| x.id).collect();
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), m.len());
                // Connectivity of the match sub-graph.
                let vs = m.vertices();
                let mut reached = vec![false; vs.len()];
                reached[0] = true;
                let mut changed = true;
                while changed {
                    changed = false;
                    for me in m.edges() {
                        let i = vs.iter().position(|&v| v == me.src).unwrap();
                        let j = vs.iter().position(|&v| v == me.dst).unwrap();
                        if reached[i] != reached[j] {
                            reached[i] = true;
                            reached[j] = true;
                            changed = true;
                        }
                    }
                }
                prop_assert!(reached.iter().all(|&r| r), "disconnected match");
            }
        }
    }

    /// Dropping an edge removes every match containing it and nothing
    /// else.
    #[test]
    fn drop_edge_is_exact(n_edges in 2usize..32, seed in any::<u64>()) {
        let rand = LabelRandomizer::new(2, DEFAULT_PRIME, 5);
        let workload = Workload::new(vec![
            (PatternGraph::path("p", vec![Label(0), Label(1), Label(0)]), 1.0),
        ]);
        let trie = TpsTrie::build(&workload, &rand);
        let mut matcher = MotifMatcher::new(trie.motifs(0.4), rand);
        let edges = random_stream(10, n_edges, 2, seed);
        let mut buffered = Vec::new();
        for e in &edges {
            if matcher.on_edge(*e) == EdgeFate::Buffered {
                buffered.push(*e);
            }
        }
        if let Some(victim) = buffered.first() {
            let before: Vec<_> = buffered
                .iter()
                .flat_map(|e| matcher.matches_for_edge(e.id))
                .collect();
            matcher.on_edge_assigned(victim.id);
            for id in before {
                let m = matcher.get(id);
                let contains = m.contains_edge(victim.id);
                prop_assert_eq!(!m.alive(), contains,
                    "liveness must flip exactly for matches containing the victim");
            }
        }
    }

    /// Generational reclamation is behaviour-free: a matcher whose
    /// arena is forcibly compacted on an arbitrary cadence (remapping
    /// every id) produces exactly the same per-edge fates, live match
    /// sets, and recency-capped per-vertex lists as one that never
    /// reclaims — under random streams and window-driven eviction
    /// schedules. This is the contract that lets the id remap run
    /// mid-stream without touching the determinism suite.
    #[test]
    fn arena_reclamation_preserves_matches_and_recency(
        n_edges in 8usize..72,
        window_cap in 2usize..12,
        reclaim_every in 1usize..9,
        workload_pick in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (workload, labels) = sweep_workload(workload_pick);
        let rand = LabelRandomizer::new(labels, DEFAULT_PRIME, 17);
        let trie = TpsTrie::build(&workload, &rand);
        let motifs = trie.motifs(0.4);

        let mut plain = MotifMatcher::new(motifs.clone(), rand.clone());
        let mut reclaiming = MotifMatcher::new(motifs, rand);
        let mut plain_window = SlidingWindow::new(window_cap);
        let mut reclaiming_window = SlidingWindow::new(window_cap);

        let edges = random_stream(14, n_edges, labels, seed);
        for (i, e) in edges.iter().enumerate() {
            let fa = plain.on_edge(*e);
            let fb = reclaiming.on_edge(*e);
            prop_assert_eq!(fa, fb, "edge fate diverged at {:?}", e.id);
            if fa != EdgeFate::Buffered {
                continue;
            }
            if let Some(old) = plain_window.push(*e) {
                plain.on_edge_assigned(old.id);
            }
            if let Some(old) = reclaiming_window.push(*e) {
                reclaiming.on_edge_assigned(old.id);
            }
            if i % reclaim_every == 0 {
                let before = reclaiming.arena_occupancy();
                reclaiming.reclaim_arena();
                let after = reclaiming.arena_occupancy();
                // Reclamation frees every dead slot and bumps the epoch.
                prop_assert_eq!(after.total_matches, after.live_matches);
                prop_assert_eq!(after.live_matches, before.live_matches);
                prop_assert_eq!(after.total_cells, after.live_cells);
                prop_assert_eq!(after.generation, before.generation + 1);
            }
            // Same live match sets...
            prop_assert_eq!(
                arena_match_set(&plain, &plain_window),
                arena_match_set(&reclaiming, &reclaiming_window),
                "live match sets diverged after {:?}", e.id
            );
            // ...and the same recency-capped per-vertex reads (the id
            // values differ after a remap, so compare the *matches*
            // behind them, in order).
            for v in 0..14u32 {
                for cap in [1usize, 3, usize::MAX] {
                    let mut a_ids = Vec::new();
                    let mut b_ids = Vec::new();
                    plain
                        .match_list()
                        .recent_matches_at_vertex_into(VertexId(v), cap, &mut a_ids);
                    reclaiming
                        .match_list()
                        .recent_matches_at_vertex_into(VertexId(v), cap, &mut b_ids);
                    let key = |m: &MotifMatcher, ids: &[loom_matcher::MatchId]| -> Vec<MatchKey> {
                        ids.iter()
                            .map(|&id| {
                                let r = m.get(id);
                                let mut es: Vec<u32> = r.edges().map(|x| x.id.0).collect();
                                es.sort_unstable();
                                (r.motif().0, es)
                            })
                            .collect()
                    };
                    prop_assert_eq!(
                        key(&plain, &a_ids),
                        key(&reclaiming, &b_ids),
                        "recency order diverged at vertex {} cap {}", v, cap
                    );
                }
            }
        }
    }

    /// The arena refactor's behavioural contract: on seeded random
    /// streams with window-driven evictions, the arena-backed matcher
    /// yields exactly the same live match set (edge-id sets + motif
    /// ids) and the same per-edge fates as the verbatim pre-refactor
    /// reference matcher — across window sizes, support thresholds,
    /// motif shapes and per-endpoint caps. The small caps truncate the
    /// endpoint rows on most buffered edges, so the capped reads and
    /// the partner-list reconstruction run under the oracle too; 48 is
    /// the default cap. Workload picks 4 and 5 (a third of the cases)
    /// feed the triangle workload [`hub_cycle_stream`] instead of a
    /// random stream, so closing edges meet the hub's truncated row and
    /// the degree walks run.
    #[test]
    fn arena_matcher_equals_reference(
        n_edges in 4usize..64,
        window_cap in 2usize..12,
        threshold_pick in 0usize..4,
        workload_pick in 0usize..6,
        cap_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let threshold = [0.3, 0.4, 0.5, 1.0][threshold_pick];
        let cap = [1usize, 2, 3, 48][cap_pick];
        let (workload, labels) = sweep_workload(workload_pick);
        let rand = LabelRandomizer::new(labels, DEFAULT_PRIME, 11);
        let trie = TpsTrie::build(&workload, &rand);
        let motifs = trie.motifs(threshold);

        let mut arena = MotifMatcher::new(motifs.clone(), rand.clone());
        arena.set_match_cap(cap);
        let mut oracle = reference::MotifMatcher::new(motifs, rand, cap);
        let mut arena_window = SlidingWindow::new(window_cap);
        let mut oracle_window = SlidingWindow::new(window_cap);

        let edges = if workload_pick >= 4 {
            hub_cycle_stream(n_edges, seed)
        } else {
            random_stream(14, n_edges, labels, seed)
        };
        for e in &edges {
            let fa = arena.on_edge(*e);
            let fo = oracle.on_edge(*e);
            prop_assert_eq!(
                fa == EdgeFate::Buffered,
                fo == reference::EdgeFate::Buffered,
                "edge fate diverged at {:?}", e.id
            );
            if fa != EdgeFate::Buffered {
                continue;
            }
            // Same eviction protocol on both sides (the Loom data
            // path: buffer, evict oldest, assign, kill its matches).
            if let Some(old) = arena_window.push(*e) {
                arena.on_edge_assigned(old.id);
            }
            if let Some(old) = oracle_window.push(*e) {
                oracle.on_edge_assigned(old.id);
            }
            prop_assert_eq!(
                arena_match_set(&arena, &arena_window),
                reference_match_set(&oracle, &oracle_window),
                "live match sets diverged after {:?}", e.id
            );
        }
    }
}
