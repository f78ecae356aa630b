//! Streaming motif matching — Alg. 2 of §3.
//!
//! Every arriving edge is first checked against the single-edge motifs
//! at the TPSTry++ root; an edge matching none can never participate in
//! a motif match (support anti-monotonicity) and bypasses the window
//! entirely. A matching edge is buffered and the match list is grown
//! two ways, exactly as Alg. 2 does:
//!
//! 1. **extension** — each existing match connected to the new edge is
//!    extended by it when the motif node has a child whose delta
//!    factors equal the factors the edge would add;
//! 2. **join** — each *new* match (the single edge, or an extension
//!    produced in step 1) is recursively merged with existing matches
//!    at the edge's endpoints, absorbing the smaller match's edges one
//!    at a time down the trie (the paper's `corecurse`).
//!
//! Signatures are never recomputed — and since the interning refactor,
//! neither are [`loom_motif::Delta`]s: every candidate edge addition
//! resolves through the [`DeltaLut`] to a dense [`loom_motif::DeltaId`]
//! and one flat-table child lookup. The steady-state `on_edge` path
//! performs no edge-vector clone: extension and join push O(1) arena
//! cells (see [`crate::matchlist`]), and all per-edge working sets live
//! in scratch buffers reused across calls.

use crate::matchlist::{MatchId, MatchList, MatchRef};
use loom_graph::{EdgeId, StreamEdge, VertexId};
use loom_motif::{DeltaLut, LabelRandomizer, MotifId, MotifIndex};

/// What happened to an edge handed to [`MotifMatcher::on_edge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeFate {
    /// The edge matches no single-edge motif: assign it immediately and
    /// do not buffer it (§3 — it "behaves as if the edge was never
    /// added to the window").
    Bypass,
    /// The edge matched at least a single-edge motif and was recorded
    /// in the match list; buffer it in the window.
    Buffered,
}

/// Default cap on how many existing matches the extension and join
/// steps consider per endpoint of a new edge. Hub vertices (a paper
/// with hundreds of authors, a genre with thousands of artists) can
/// accumulate enormous `matchList` entries; scanning them all per
/// arriving edge makes the matcher quadratic in hub degree for no
/// quality gain — the matches skipped are the *oldest* at the hub,
/// which are about to leave the window anyway. The paper does not
/// discuss this case; the cap is our bounded-work deviation (see
/// DESIGN.md §5, with the sweep data justifying the value) and keeps
/// Loom's slowdown factor in Table 2's 1.5-7x band. Override per
/// matcher with [`MotifMatcher::set_match_cap`].
pub const MAX_MATCHES_PER_ENDPOINT: usize = 48;

/// Where a planned join's base match comes from (see [`EdgeProbe`]).
#[derive(Clone, Copy, Debug)]
enum BaseRef {
    /// An existing (pre-edge) match, by id.
    Old(MatchId),
    /// The `i`-th match the probed edge is predicted to create — an
    /// index into the apply stage's fresh list (0 is the single-edge
    /// match, then accepted extensions in candidate order), resolved to
    /// the real id only once apply has inserted it.
    Fresh(u32),
}

/// One planned join: absorb `len` edges of the probe's pool starting
/// at `start` into `base`, yielding `motif`.
#[derive(Clone, Copy, Debug)]
struct JoinPlan {
    base: BaseRef,
    start: u32,
    len: u16,
    motif: MotifId,
}

/// The read-only half of one edge's matcher work: everything
/// [`MotifMatcher::on_edge_classified`] decides *before* its first
/// state mutation, captured as a plan that `apply_probe` executes
/// verbatim right after `probe_classified` wrote it. A plan is only
/// meaningful against the matcher state it was computed from, so it
/// never outlives the one `on_edge_classified` call.
#[derive(Clone, Debug)]
struct EdgeProbe {
    /// The single-edge motif the probed edge classified to.
    m0: MotifId,
    /// All extension candidates that passed the LUT/child checks, in
    /// connected-match order: `(parent, child motif)`. Dedup is NOT
    /// pre-resolved here — apply calls the real `insert_extension`,
    /// whose dedup check is its first action, so a rejected candidate
    /// has zero state effect either way.
    extensions: Vec<(MatchId, MotifId)>,
    /// Planned joins, in discovery order.
    joins: Vec<JoinPlan>,
    /// Absorbed-edge storage for `joins` (in absorption order).
    join_pool: Vec<StreamEdge>,
    // Probe-internal working sets, kept to reuse their allocations
    // across edges (the matcher keeps one boxed EdgeProbe as scratch).
    src_list: Vec<(MatchId, u8)>,
    dst_list: Vec<(MatchId, u8)>,
    connected: Vec<(MatchId, u8, u8)>,
    partners: Vec<MatchId>,
    /// Predicted fresh ids (absolute, valid only at probe time — used
    /// for partner-list ordering, never stored into plans).
    fresh_ids: Vec<MatchId>,
    /// Per predicted fresh match: `(edge count, motif, extension
    /// parent)` — `None` parent is the single-edge match.
    fresh_meta: Vec<(u16, MotifId, Option<MatchId>)>,
    /// Dedup keys this edge's earlier predicted inserts claimed —
    /// simulates within-edge dedup exactly (the global set is only
    /// consulted, never written, by a probe).
    predicted_keys: Vec<u128>,
    a_edges: Vec<StreamEdge>,
    join_edges: Vec<StreamEdge>,
    join_remaining: Vec<StreamEdge>,
}

impl Default for EdgeProbe {
    fn default() -> Self {
        EdgeProbe {
            m0: MotifId(0),
            extensions: Vec::new(),
            joins: Vec::new(),
            join_pool: Vec::new(),
            src_list: Vec::new(),
            dst_list: Vec::new(),
            connected: Vec::new(),
            partners: Vec::new(),
            fresh_ids: Vec::new(),
            fresh_meta: Vec::new(),
            predicted_keys: Vec::new(),
            a_edges: Vec::new(),
            join_edges: Vec::new(),
            join_remaining: Vec::new(),
        }
    }
}

/// `MatchRef::degrees_unless_contains` over a *predicted* (not yet
/// inserted) match's edge list.
fn virtual_degrees_unless_contains(
    edges: &[StreamEdge],
    u: VertexId,
    v: VertexId,
    skip: EdgeId,
) -> Option<(usize, usize)> {
    let mut du = 0;
    let mut dv = 0;
    for e in edges {
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

/// The streaming motif matcher: match list plus the motif index and the
/// delta lookup tables the whole run shares.
#[derive(Clone, Debug)]
pub struct MotifMatcher {
    motifs: MotifIndex,
    lut: DeltaLut,
    matches: MatchList,
    // Dense motif-id → support table: the allocation step reads one
    // support per candidate match, and an 8-byte indexed load beats
    // chasing into the trie's `Motif` structs.
    supports: Vec<f64>,
    match_cap: usize,
    dead_at_last_compact: usize,
    // Scratch reused across calls so the steady state allocates
    // nothing beyond arena cells and index growth: the probe plan the
    // sequential path reuses (boxed, so taking it out and putting it
    // back per edge moves a pointer, not the plan), and the apply
    // stage's fresh-id list.
    probe_scratch: Option<Box<EdgeProbe>>,
    scratch_fresh: Vec<MatchId>,
}

impl MotifMatcher {
    /// Build a matcher over a motif index, precomputing the dense
    /// label/degree → delta tables from the run's randomizer.
    pub fn new(motifs: MotifIndex, rand: LabelRandomizer) -> Self {
        let lut = DeltaLut::build(&motifs, &rand);
        let supports = (0..motifs.len())
            .map(|i| motifs.get(MotifId(i as u32)).support)
            .collect();
        MotifMatcher {
            motifs,
            lut,
            matches: MatchList::new(),
            supports,
            match_cap: MAX_MATCHES_PER_ENDPOINT,
            dead_at_last_compact: 0,
            probe_scratch: None,
            scratch_fresh: Vec::new(),
        }
    }

    /// The motif index this matcher hunts for.
    pub fn motifs(&self) -> &MotifIndex {
        &self.motifs
    }

    /// Read access to the match list (allocation consumes it).
    pub fn match_list(&self) -> &MatchList {
        &self.matches
    }

    /// The per-endpoint match cap currently in force.
    pub fn match_cap(&self) -> usize {
        self.match_cap
    }

    /// Override the per-endpoint match cap (`usize::MAX` = unbounded).
    /// Default is [`MAX_MATCHES_PER_ENDPOINT`]; the cap sweep of
    /// `repro`'s ablations suite uses this to quantify the deviation.
    pub fn set_match_cap(&mut self, cap: usize) {
        assert!(cap > 0, "a zero cap would disable matching entirely");
        self.match_cap = cap;
    }

    /// The newest `cap` entries of `old ++ fresh` appended to `out`,
    /// skipping entries already present in `out[..dedup_prefix]` — the
    /// join step's partner-list reconstruction (see `on_edge`). Pass
    /// `dedup_prefix = 0` for the first endpoint (nothing to dedup
    /// against). Both the appended sequence and `out[..dedup_prefix]`
    /// are ascending by id, so the dedup is a two-pointer merge, not a
    /// quadratic scan.
    fn append_capped_tail(
        out: &mut Vec<MatchId>,
        old: &[(MatchId, u8)],
        fresh: &[MatchId],
        cap: usize,
        dedup_prefix: usize,
    ) {
        let skip = (old.len() + fresh.len()).saturating_sub(cap);
        let (old_part, fresh_part) = if skip <= old.len() {
            (&old[skip..], fresh)
        } else {
            (&[][..], &fresh[skip - old.len()..])
        };
        let mut pi = 0;
        for id in old_part
            .iter()
            .map(|&(id, _)| id)
            .chain(fresh_part.iter().copied())
        {
            while pi < dedup_prefix && out[pi] < id {
                pi += 1;
            }
            if pi < dedup_prefix && out[pi] == id {
                continue;
            }
            out.push(id);
        }
    }

    /// Classify an edge against the single-edge motif gate: the motif
    /// its buffered processing starts from, or `None` for a bypass.
    /// This is a *pure* function of the immutable LUT/motif tables —
    /// no matcher state — which is what lets the batched ingest path
    /// pre-classify a whole batch up front (the probes share the hot
    /// LUT rows) and stay bit-identical to edge-at-a-time processing.
    #[inline]
    pub fn classify(&self, e: &StreamEdge) -> Option<MotifId> {
        let single = self.lut.delta_id(e.src_label, 1, e.dst_label, 1)?;
        self.motifs.single_edge_motif_by_id(single)
    }

    /// Process a new stream edge (Alg. 2's outer loop body).
    pub fn on_edge(&mut self, e: StreamEdge) -> EdgeFate {
        match self.classify(&e) {
            None => EdgeFate::Bypass,
            Some(m0) => self.on_edge_classified(e, m0),
        }
    }

    /// [`MotifMatcher::on_edge`] with the single-edge gate already
    /// resolved by [`MotifMatcher::classify`]. Callers must pass the
    /// `m0` classify returned for *this* edge.
    ///
    /// Implemented as probe-then-apply: `probe_classified` plans every
    /// insert against the pre-edge state, then `apply_probe` performs
    /// them.
    pub fn on_edge_classified(&mut self, e: StreamEdge, m0: MotifId) -> EdgeFate {
        let mut probe = self.probe_scratch.take().unwrap_or_default();
        self.probe_classified(&e, m0, &mut probe);
        let fate = self.apply_probe(e, &probe);
        self.probe_scratch = Some(probe);
        fate
    }

    /// The read-only half of [`MotifMatcher::on_edge_classified`]:
    /// everything the matcher decides about `e` *before* its first
    /// state mutation, written into `probe` as a plan for
    /// `apply_probe`. Callers must pass the `m0`
    /// [`MotifMatcher::classify`] returned for *this* edge.
    fn probe_classified(&self, e: &StreamEdge, m0: MotifId, probe: &mut EdgeProbe) {
        debug_assert_eq!(self.classify(e), Some(m0));
        probe.m0 = m0;
        probe.extensions.clear();
        probe.joins.clear();
        probe.join_pool.clear();

        // The capped per-endpoint match lists, read once per edge —
        // Alg. 2 line 4's matchList(v1) and matchList(v2), newest-first
        // under the per-endpoint cap: recent matches are the ones whose
        // edges will share window residency with `e`. Each entry
        // carries the vertex's degree within the match, recorded at
        // registration (matches are immutable).
        probe.src_list.clear();
        let src_trunc = self.matches.recent_matches_with_degrees_into(
            e.src,
            self.match_cap,
            &mut probe.src_list,
        );
        probe.dst_list.clear();
        let dst_trunc = self.matches.recent_matches_with_degrees_into(
            e.dst,
            self.match_cap,
            &mut probe.dst_list,
        );

        // Their union (src's then dst's minus duplicates): the existing
        // matches connected to e, before e's own entry exists — as
        // (id, deg of e.src in match, deg of e.dst in match) triples.
        // An entry absent from a row has degree 0 at that endpoint...
        // unless the row read was cap-truncated, in which case the
        // match may sit behind the cap and the degree must come from a
        // chain walk (rare: it needs a hub-length row on the *other*
        // endpoint).
        probe.connected.clear();
        for &(id, du) in &probe.src_list {
            probe.connected.push((id, du, 0));
        }
        // Both lists are ascending by id, so the duplicate detection is
        // a two-pointer merge (`connected[..src_list.len()]` mirrors
        // `src_list` position for position) — O(|src| + |dst|), where
        // a per-entry scan went quadratic at hubs.
        let mut si = 0;
        for &(id, ddeg) in &probe.dst_list {
            while si < probe.src_list.len() && probe.src_list[si].0 < id {
                si += 1;
            }
            if si < probe.src_list.len() && probe.src_list[si].0 == id {
                probe.connected[si].2 = ddeg;
            } else {
                probe.connected.push((id, 0, ddeg));
            }
        }
        if dst_trunc {
            for t in probe.connected.iter_mut() {
                if t.2 == 0 {
                    t.2 = self.matches.get(t.0).degree(e.dst) as u8;
                }
            }
        }
        if src_trunc {
            for t in probe.connected.iter_mut() {
                if t.1 == 0 {
                    t.1 = self.matches.get(t.0).degree(e.src) as u8;
                }
            }
        }

        // Predict the fresh matches apply will create, with the ids
        // they would get *right now* (ids are arena-ordered): the
        // single ⟨e, m0⟩ always lands (singles skip dedup and e's id is
        // new), then each extension candidate that passes the LUT/child
        // checks AND the predicted dedup verdict. The global dedup set
        // is consulted read-only — a hit for a key involving e is
        // impossible short of a 128-bit fingerprint collision, since no
        // existing match can contain the unprocessed e — and
        // within-edge collisions (the same union reachable through two
        // parents) are simulated exactly via `predicted_keys`.
        probe.fresh_ids.clear();
        probe.fresh_meta.clear();
        probe.predicted_keys.clear();
        let next_id = self.matches.next_id();
        probe.fresh_ids.push(next_id);
        probe.fresh_meta.push((1, m0, None));

        // Extension step (Alg. 2 lines 5-8): grow each connected match
        // by e. The candidate list (everything passing LUT + child) is
        // the plan; dedup stays apply's job, because a dedup-rejected
        // `insert_extension` has zero state effect.
        let max_edges = self.motifs.max_motif_edges();
        for &(id, du, dv) in &probe.connected {
            // Dense pre-filter before touching the match's Meta.
            let plen = self.matches.live_len_of(id);
            if plen >= max_edges {
                continue;
            }
            let Some(delta) =
                self.lut
                    .delta_id(e.src_label, du as usize + 1, e.dst_label, dv as usize + 1)
            else {
                continue;
            };
            // Same dense word as the pre-filter — the Meta cache line
            // never loads on this path.
            let motif = self.matches.live_motif_of(id);
            let Some(child) = self.motifs.child_with_delta_by_id(motif, delta) else {
                continue;
            };
            probe.extensions.push((id, child));
            let key = self.matches.extension_key(id, e.id, child);
            if self.matches.dedup_contains(key) || probe.predicted_keys.contains(&key) {
                continue; // predicted dedup rejection: creates no match
            }
            probe.predicted_keys.push(key);
            probe
                .fresh_ids
                .push(MatchId(next_id.0 + probe.fresh_ids.len() as u32));
            probe.fresh_meta.push((plen as u16 + 1, child, Some(id)));
        }

        // Join step (lines 9-18): pair every match that gains edge e
        // with the other matches at its endpoints and recursively
        // absorb the partner's edges. Pairs not involving e were
        // already evaluated when their own last edge arrived, so
        // restricting one side to fresh matches loses nothing. The
        // partner lists are the post-insert per-endpoint reads,
        // reconstructed as the newest-`cap` tail of `pre-insert list ++
        // fresh` (no match dies between the reads and the inserts, and
        // every fresh match contains e, hence sits at both endpoints in
        // insertion order). The predicted fresh ids are only compared
        // against old ids (all strictly smaller) and each other here.
        probe.partners.clear();
        Self::append_capped_tail(
            &mut probe.partners,
            &probe.src_list,
            &probe.fresh_ids,
            self.match_cap,
            0,
        );
        let prefix = probe.partners.len();
        Self::append_capped_tail(
            &mut probe.partners,
            &probe.dst_list,
            &probe.fresh_ids,
            self.match_cap,
            prefix,
        );
        if probe.partners.is_empty() {
            return;
        }
        // Every fresh match contains `e`, so a fresh *partner* can
        // never join with a fresh base (their overlap is at least
        // {e}); ids are arena-ordered, so "fresh" is one integer
        // compare against this round's first fresh id.
        let first_fresh = probe.fresh_ids[0];
        for ai in 0..probe.fresh_ids.len() {
            let (la, a_motif, a_parent) = probe.fresh_meta[ai];
            let la = la as usize;
            // The predicted fresh match's edges, newest-first — exactly
            // the cell-chain order the real match will have (e at the
            // head, then the parent's chain).
            probe.a_edges.clear();
            probe.a_edges.push(*e);
            if let Some(p) = a_parent {
                probe.a_edges.extend(self.matches.get(p).edges());
            }
            for &b in &probe.partners {
                if b >= first_fresh {
                    continue; // fresh partner: shares e, overlap guaranteed
                }
                // Dense 2-byte length pre-filter: at a hub most pairs
                // die right here, without ever loading a Meta or
                // walking a cell chain.
                let lb = self.matches.live_len_of(b);
                if la + lb > max_edges {
                    continue;
                }
                let mb = self.matches.get(b);
                // Absorb the smaller into the larger (§3: "we consider
                // each edge from the smaller motif match").
                let base_is_fresh = la >= lb;
                let base_motif = if base_is_fresh { a_motif } else { mb.motif() };
                let base_ref = if base_is_fresh {
                    BaseRef::Fresh(ai as u32)
                } else {
                    BaseRef::Old(b)
                };
                let other_len = if base_is_fresh { lb } else { la };
                if other_len == 1 {
                    // The dominant shape (the smaller side is a single
                    // edge) needs no buffers, no recursion and no
                    // separate overlap pass: one fused walk over the
                    // base chain gives the endpoint degrees (bailing
                    // if the edge is already in the base), then the
                    // same LUT + child step `try_join` would take —
                    // absorbing one edge IS the whole join.
                    let x = if base_is_fresh {
                        mb.edges().next().expect("len 1")
                    } else {
                        *e // a fresh match of length 1 is the single {e}
                    };
                    let degs = if base_is_fresh {
                        virtual_degrees_unless_contains(&probe.a_edges, x.src, x.dst, x.id)
                    } else {
                        mb.degrees_unless_contains(x.src, x.dst, x.id)
                    };
                    let Some((du, dv)) = degs else {
                        continue; // overlapping matches are not joinable
                    };
                    if du == 0 && dv == 0 {
                        continue; // not incident to the base sub-graph
                    }
                    let Some(delta) = self.lut.delta_id(x.src_label, du + 1, x.dst_label, dv + 1)
                    else {
                        continue;
                    };
                    let Some(motif) = self.motifs.child_with_delta_by_id(base_motif, delta) else {
                        continue;
                    };
                    let start = probe.join_pool.len() as u32;
                    probe.join_pool.push(x);
                    probe.joins.push(JoinPlan {
                        base: base_ref,
                        start,
                        len: 1,
                        motif,
                    });
                    continue;
                }
                let overlap = if base_is_fresh {
                    mb.edges()
                        .any(|x| probe.a_edges.iter().any(|ae| ae.id == x.id))
                } else {
                    probe.a_edges.iter().any(|ae| mb.contains_edge(ae.id))
                };
                if overlap {
                    continue; // overlapping matches are not joinable
                }
                probe.join_edges.clear();
                probe.join_remaining.clear();
                if base_is_fresh {
                    probe.join_edges.extend_from_slice(&probe.a_edges);
                    probe.join_remaining.extend(mb.edges());
                } else {
                    probe.join_edges.extend(mb.edges());
                    probe.join_remaining.extend_from_slice(&probe.a_edges);
                }
                let base_len = probe.join_edges.len();
                if let Some(motif) = try_join(
                    &self.motifs,
                    &self.lut,
                    &mut probe.join_edges,
                    base_motif,
                    &mut probe.join_remaining,
                ) {
                    // Record (base, absorbed edges in absorption order)
                    // in the pooled buffer; applied after all planning
                    // so this round's joins don't feed themselves.
                    let start = probe.join_pool.len() as u32;
                    probe
                        .join_pool
                        .extend_from_slice(&probe.join_edges[base_len..]);
                    let len = (probe.join_edges.len() - base_len) as u16;
                    probe.joins.push(JoinPlan {
                        base: base_ref,
                        start,
                        len,
                        motif,
                    });
                }
            }
        }
    }

    /// The stateful half of [`MotifMatcher::on_edge_classified`]:
    /// execute a probe's plan — the single-edge insert, the extension
    /// candidates (real dedup decides), and the planned joins — with
    /// exactly the mutation sequence the monolithic path performed.
    /// The probe was computed for `e` against the current state.
    fn apply_probe(&mut self, e: StreamEdge, probe: &EdgeProbe) -> EdgeFate {
        let mut fresh = std::mem::take(&mut self.scratch_fresh);
        fresh.clear();
        if let Some(id) = self.matches.insert_single(e, probe.m0) {
            fresh.push(id);
        }
        for &(parent, motif) in &probe.extensions {
            if let Some(nid) = self.matches.insert_extension(parent, e, motif) {
                fresh.push(nid);
            }
        }
        for plan in &probe.joins {
            let base = match plan.base {
                BaseRef::Old(id) => id,
                // Fresh bases resolve through the REAL fresh list — the
                // predicted acceptance pattern is exact (see
                // probe_classified), so the indices align; the guard
                // only fires at fingerprint-collision odds.
                BaseRef::Fresh(j) => match fresh.get(j as usize) {
                    Some(&id) => id,
                    None => continue,
                },
            };
            let absorbed =
                &probe.join_pool[plan.start as usize..plan.start as usize + plan.len as usize];
            self.matches.insert_join(base, absorbed, plan.motif);
        }
        fresh.clear();
        self.scratch_fresh = fresh;

        // Index maintenance is driven by *kill volume*, not an edge
        // cadence: sweeps are pointless while nothing has died (the
        // bypass-heavy regime), and correctness never depends on them
        // — walks filter on liveness — so the trigger only affects
        // cost, never behaviour. This is also the only safe point to
        // compact: no MatchIds are held across on_edge calls.
        if self.matches.dead() >= self.dead_at_last_compact + 2048 {
            self.matches.compact();
            self.dead_at_last_compact = self.matches.dead();
        }
        EdgeFate::Buffered
    }

    /// The matches `M_e` containing an edge about to be assigned (§4).
    pub fn matches_for_edge(&self, e: EdgeId) -> Vec<MatchId> {
        self.matches.matches_at_edge(e)
    }

    /// [`MotifMatcher::matches_for_edge`] into a reused buffer
    /// (replaces its contents).
    pub fn matches_for_edge_into(&self, e: EdgeId, out: &mut Vec<MatchId>) {
        self.matches.matches_at_edge_into(e, out);
    }

    /// Look up a match.
    pub fn get(&self, id: MatchId) -> MatchRef<'_> {
        self.matches.get(id)
    }

    /// Normalised support of the motif behind a match (Eq. 1's
    /// `supp(m_k)`).
    pub fn support(&self, id: MatchId) -> f64 {
        self.motifs.get(self.matches.get(id).motif()).support
    }

    /// `(supp(m_k), |E_k|)` of a *live* match, off the dense tables —
    /// the allocation step sorts candidates by exactly this pair, and
    /// reading it here costs two indexed loads instead of a `Meta`
    /// cache line plus a trie node per candidate.
    #[inline]
    pub fn support_and_len(&self, id: MatchId) -> (f64, usize) {
        let motif = self.matches.live_motif_of(id);
        (
            self.supports[motif.0 as usize],
            self.matches.live_len_of(id),
        )
    }

    /// Notify the matcher that an edge left the window (assigned):
    /// every match containing it dies (§4 — their entries are dropped
    /// from the map).
    pub fn on_edge_assigned(&mut self, e: EdgeId) {
        self.matches.drop_edge(e);
    }

    /// Kill one match without touching its edges (losing bids, §4).
    pub fn kill_match(&mut self, id: MatchId) {
        self.matches.kill(id);
    }

    /// Current arena occupancy (live/dead matches and cells, plus the
    /// compaction generation) — the observability hook `loom stream`
    /// snapshots surface.
    pub fn arena_occupancy(&self) -> crate::matchlist::ArenaOccupancy {
        self.matches.occupancy()
    }

    /// Force a generational arena compaction right now, regardless of
    /// the dead-match trigger. Safe whenever the caller holds no
    /// [`MatchId`]s (they are remapped); behaviour is unchanged by
    /// construction — the property suite drives a reclaiming matcher
    /// against a never-reclaiming one to prove it.
    pub fn reclaim_arena(&mut self) {
        self.matches.reclaim();
        self.dead_at_last_compact = self.matches.dead();
    }

    /// Serialize the matcher's mutable state for a crash-recovery
    /// checkpoint (DESIGN.md §15): the match arena plus the compaction
    /// watermark (which gates the deterministic compaction cadence).
    /// The motif index, LUT, supports and cap are config; probe
    /// scratch is capacity.
    pub fn wal_save(&self, w: &mut loom_wal::ByteWriter) {
        self.matches.wal_save(w);
        w.u64(self.dead_at_last_compact as u64);
    }

    /// Inverse of [`MotifMatcher::wal_save`], applied to a freshly
    /// constructed matcher over the same motif index.
    pub fn wal_load(&mut self, r: &mut loom_wal::ByteReader) -> Result<(), loom_wal::WalError> {
        self.matches.wal_load(r)?;
        self.dead_at_last_compact = r.u64()? as usize;
        Ok(())
    }
}

/// The paper's `corecurse` (Alg. 2 lines 13-18): absorb every edge of
/// `remaining` into `edges` by single-edge trie steps, backtracking over
/// absorption orders. On success returns the motif of the union;
/// `edges`/`remaining` are restored on failure. The union's motif is
/// independent of the absorption order (signatures are multisets), so
/// first-success is canonical.
fn try_join(
    motifs: &MotifIndex,
    lut: &DeltaLut,
    edges: &mut Vec<StreamEdge>,
    motif: MotifId,
    remaining: &mut Vec<StreamEdge>,
) -> Option<MotifId> {
    if remaining.is_empty() {
        return Some(motif);
    }
    for i in 0..remaining.len() {
        let e2 = remaining[i];
        let du = edges.iter().filter(|x| x.touches(e2.src)).count();
        let dv = edges.iter().filter(|x| x.touches(e2.dst)).count();
        if du == 0 && dv == 0 {
            continue; // e2 not incident to the grown sub-graph (yet)
        }
        let Some(delta) = lut.delta_id(e2.src_label, du + 1, e2.dst_label, dv + 1) else {
            continue;
        };
        let Some(child) = motifs.child_with_delta_by_id(motif, delta) else {
            continue;
        };
        remaining.remove(i);
        edges.push(e2);
        if let Some(m) = try_join(motifs, lut, edges, child, remaining) {
            return Some(m);
        }
        edges.pop();
        remaining.insert(i, e2);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::{Label, PatternGraph, VertexId, Workload};
    use loom_motif::{TpsTrie, DEFAULT_PRIME};

    const A: Label = Label(0);
    const B: Label = Label(1);
    const C: Label = Label(2);
    const D: Label = Label(3);

    fn se(id: u32, src: u32, sl: Label, dst: u32, dl: Label) -> StreamEdge {
        StreamEdge {
            id: EdgeId(id),
            src: VertexId(src),
            dst: VertexId(dst),
            src_label: sl,
            dst_label: dl,
        }
    }

    /// Matcher for the Fig. 1 workload at T = 40%: motifs are a-b, b-c
    /// and the a-b-c path.
    fn fig1_matcher() -> MotifMatcher {
        let rand = LabelRandomizer::new(4, DEFAULT_PRIME, 42);
        let trie = TpsTrie::build(&Workload::figure1_example(), &rand);
        MotifMatcher::new(trie.motifs(0.4), rand)
    }

    /// Matcher whose only query is the 3-edge path a-b-a-b at 100%, so
    /// every sub-graph of it is a motif (exercises the join step).
    fn path4_matcher() -> MotifMatcher {
        let rand = LabelRandomizer::new(2, DEFAULT_PRIME, 42);
        let workload = Workload::new(vec![(PatternGraph::path("q", vec![A, B, A, B]), 1.0)]);
        let trie = TpsTrie::build(&workload, &rand);
        MotifMatcher::new(trie.motifs(0.5), rand)
    }

    #[test]
    fn non_motif_edge_bypasses() {
        let mut m = fig1_matcher();
        // c-d is only in q3 (10% < 40%): bypass.
        assert_eq!(m.on_edge(se(0, 10, C, 11, D)), EdgeFate::Bypass);
        assert!(m.match_list().is_empty());
    }

    #[test]
    fn single_edge_motif_is_recorded() {
        let mut m = fig1_matcher();
        assert_eq!(m.on_edge(se(0, 1, A, 2, B)), EdgeFate::Buffered);
        assert_eq!(m.match_list().len(), 1);
        assert_eq!(m.matches_for_edge(EdgeId(0)).len(), 1);
    }

    #[test]
    fn extension_builds_abc_path_match() {
        // e1 = a-b at (1,2); e2 = b-c at (2,3): forms the a-b-c motif.
        let mut m = fig1_matcher();
        m.on_edge(se(0, 1, A, 2, B));
        m.on_edge(se(1, 2, B, 3, C));
        // Matches: ⟨e0, ab⟩, ⟨e1, bc⟩, ⟨{e0,e1}, abc⟩.
        assert_eq!(m.match_list().len(), 3);
        let at_e0 = m.matches_for_edge(EdgeId(0));
        assert_eq!(at_e0.len(), 2, "e0 is in the single and the path match");
        let sizes: Vec<usize> = at_e0.iter().map(|&id| m.get(id).len()).collect();
        assert!(sizes.contains(&1) && sizes.contains(&2));
    }

    #[test]
    fn disconnected_edges_do_not_combine() {
        let mut m = fig1_matcher();
        m.on_edge(se(0, 1, A, 2, B));
        m.on_edge(se(1, 5, B, 6, C)); // no shared vertex
        assert_eq!(m.match_list().len(), 2, "two singles, no path");
    }

    #[test]
    fn extension_stops_at_non_motif() {
        let mut m = fig1_matcher();
        m.on_edge(se(0, 1, A, 2, B));
        m.on_edge(se(1, 2, B, 3, C));
        let before = m.match_list().len();
        // Another a-b arrives at vertex 2. Growth: the new single
        // ⟨e2, ab⟩ and the second a-b-c path a4-b2-c3 = ⟨{e1,e2}, abc⟩.
        // Crucially NOT the a-b-a path a1-b2-a4 (a q1 sub-graph at
        // 30% < 40%, not a motif) and not any 3-edge shape (no 3-edge
        // motif exists at this threshold).
        m.on_edge(se(2, 4, A, 2, B));
        assert_eq!(m.match_list().len(), before + 2);
        let deepest = (0..3u32)
            .flat_map(|e| m.matches_for_edge(EdgeId(e)))
            .map(|id| m.get(id).len())
            .max()
            .unwrap();
        assert_eq!(deepest, 2);
    }

    #[test]
    fn join_combines_two_multi_edge_matches() {
        // Stream: e0 = a1-b2, e1 = a3-b4 (disjoint), e2 = b2-a3 (bridge).
        // After e2: extensions give b2-a3 singles + two 2-edge paths;
        // the join must produce the full 3-edge path a1-b2-a3-b4.
        let mut m = path4_matcher();
        m.on_edge(se(0, 1, A, 2, B));
        m.on_edge(se(1, 3, A, 4, B));
        m.on_edge(se(2, 2, B, 3, A));
        let at_bridge = m.matches_for_edge(EdgeId(2));
        let max = at_bridge.iter().map(|&id| m.get(id).len()).max().unwrap();
        assert_eq!(max, 3, "full 3-edge path found via join");
        // And the 3-edge match contains all three edges.
        let big = at_bridge
            .iter()
            .find(|&&id| m.get(id).len() == 3)
            .copied()
            .unwrap();
        for e in 0..3u32 {
            assert!(m.get(big).contains_edge(EdgeId(e)));
        }
    }

    #[test]
    fn assigned_edge_kills_matches() {
        let mut m = fig1_matcher();
        m.on_edge(se(0, 1, A, 2, B));
        m.on_edge(se(1, 2, B, 3, C));
        m.on_edge_assigned(EdgeId(0));
        // Only ⟨e1, bc⟩ survives.
        assert_eq!(m.match_list().len(), 1);
        assert!(m.matches_for_edge(EdgeId(0)).is_empty());
        assert_eq!(m.matches_for_edge(EdgeId(1)).len(), 1);
    }

    #[test]
    fn support_reflects_motif_frequency() {
        let mut m = fig1_matcher();
        m.on_edge(se(0, 1, A, 2, B));
        let id = m.matches_for_edge(EdgeId(0))[0];
        // a-b occurs in all queries: support 100%.
        assert!((m.support(id) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_arrival_patterns_do_not_duplicate_matches() {
        // The same a-b-c path reachable through two discovery orders
        // must yield one path match (dedup by edge set + motif).
        let mut m = fig1_matcher();
        m.on_edge(se(0, 1, A, 2, B));
        m.on_edge(se(1, 2, B, 3, C));
        let n = m.match_list().len();
        // Re-processing an already-known combination cannot happen in a
        // real stream (edge ids are unique), but the join step may find
        // the same union via several pair orders — already covered by n
        // being exactly 3.
        assert_eq!(n, 3);
    }

    #[test]
    fn window_cycle_match_via_join_and_extension() {
        // 4-cycle a-b-a-b arriving as its four edges; the cycle itself
        // is a motif in path4? No — the cycle is NOT a sub-graph of the
        // 3-edge path, so the deepest match must stay 3 edges.
        let mut m = path4_matcher();
        m.on_edge(se(0, 1, A, 2, B));
        m.on_edge(se(1, 2, B, 3, A));
        m.on_edge(se(2, 3, A, 4, B));
        m.on_edge(se(3, 4, B, 1, A));
        let deepest = (0..4u32)
            .flat_map(|e| m.matches_for_edge(EdgeId(e)))
            .map(|id| m.get(id).len())
            .max()
            .unwrap();
        assert_eq!(deepest, 3, "cycle itself is not a motif of the path query");
    }

    #[test]
    fn match_cap_is_configurable() {
        let mut m = fig1_matcher();
        assert_eq!(m.match_cap(), MAX_MATCHES_PER_ENDPOINT);
        m.set_match_cap(usize::MAX);
        assert_eq!(m.match_cap(), usize::MAX);
        // A tiny cap still records the single-edge match per edge.
        let mut tight = fig1_matcher();
        tight.set_match_cap(1);
        tight.on_edge(se(0, 1, A, 2, B));
        tight.on_edge(se(1, 2, B, 3, C));
        assert!(tight.match_list().len() >= 2);
    }

    #[test]
    #[should_panic(expected = "zero cap")]
    fn zero_match_cap_rejected() {
        fig1_matcher().set_match_cap(0);
    }
}
