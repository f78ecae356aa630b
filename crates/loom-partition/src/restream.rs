//! Restreaming repartitioning — the paper's §6 future-work direction
//! ("consider some form of restreaming approach \[11\]", citing the
//! Leopard/restreaming line of work \[22\]).
//!
//! A restream pass replays the same edge stream through an LDG-style
//! heuristic that can additionally see the *previous pass's* placement
//! of vertices that have not yet been (re)placed in the current pass.
//! This recovers much of what one-pass streaming loses to arrival
//! order: a vertex whose neighbours all arrived later is blind on pass
//! one but fully informed on pass two.

use crate::ldg::choose_weighted;
use crate::state::{Assignment, OnlineAdjacency, PartitionState};
use loom_graph::GraphStream;

/// One restream pass: replay `stream`, assigning each vertex on first
/// sight by LDG scoring against (current-pass placements) ∪ (prior
/// placements of not-yet-replaced vertices), under the evaluation's
/// capacity slack (1.1, as [`crate::LdgPartitioner::new`] fixes it).
///
/// Unlike the first pass, the *full* adjacency is already known (the
/// stream was seen once), so every vertex is scored with its complete
/// neighbourhood — that completeness is exactly what a restream pass
/// buys over one-pass streaming \[22\]. The pass therefore builds its
/// adjacency unbounded: a restream replays a *materialised* stream of
/// known extent, which is precisely the setting where the retention
/// horizon must not bite (the same rule the window-tied default
/// applies to prescient runs, DESIGN.md §11). Each vertex is scored
/// once, by a scan of its adjacency row into one reused k-row, so a
/// pass costs O(|E|) (DESIGN.md §10).
pub fn restream_pass(stream: &GraphStream, prior: &Assignment) -> Assignment {
    let k = prior.k();
    let mut state = PartitionState::prescient(k, stream.num_vertices(), 1.1);
    let mut adjacency = OnlineAdjacency::with_capacity(stream.num_vertices());
    for e in stream.iter() {
        adjacency.add(e);
    }
    let mut counts = vec![0u32; k];
    for e in stream.iter() {
        for v in [e.src, e.dst] {
            if !state.is_assigned(v) {
                counts.fill(0);
                for &w in adjacency.neighbors(v) {
                    // Current pass wins; fall back to where the previous
                    // pass put the neighbour (it will land nearby unless
                    // the restream has found something better).
                    if let Some(p) = state.partition_of(w).or(prior.partition_of(w)) {
                        counts[p.index()] += 1;
                    }
                }
                let p = choose_weighted(&state, &counts);
                state.assign(v, p);
            }
        }
    }
    state.into_assignment()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::CapacityModel;
    use crate::traits::StreamPartitioner;
    use loom_graph::{Label, LabeledGraph, StreamOrder};

    /// An initial LDG pass followed by `passes` restream passes.
    fn restreamed_ldg(stream: &GraphStream, k: usize, passes: usize) -> Assignment {
        let mut first = crate::ldg::LdgPartitioner::new(k, CapacityModel::for_stream(stream));
        crate::traits::partition_stream(&mut first, stream);
        let mut assignment = Box::new(first).into_assignment();
        for _ in 0..passes {
            assignment = restream_pass(stream, &assignment);
        }
        assignment
    }

    /// A ring of cliques: communities that random-order streaming
    /// scatters but restreaming can re-gather.
    fn ring_of_cliques(cliques: usize, size: usize) -> LabeledGraph {
        let mut g = LabeledGraph::with_anonymous_labels(1);
        let mut all = Vec::new();
        for _ in 0..cliques {
            let members: Vec<_> = (0..size).map(|_| g.add_vertex(Label(0))).collect();
            for i in 0..size {
                for j in (i + 1)..size {
                    g.add_edge(members[i], members[j]);
                }
            }
            all.push(members);
        }
        for c in 0..cliques {
            let next = (c + 1) % cliques;
            g.add_edge(all[c][0], all[next][0]);
        }
        g
    }

    fn edge_cut(g: &LabeledGraph, a: &Assignment) -> usize {
        g.edges().filter(|&(_, u, v)| a.is_cut(u, v)).count()
    }

    #[test]
    fn restreaming_improves_random_order_ldg() {
        let g = ring_of_cliques(16, 6);
        let stream = loom_graph::GraphStream::from_graph(&g, StreamOrder::Random, 9);
        let one_pass = restreamed_ldg(&stream, 4, 0);
        let three_pass = restreamed_ldg(&stream, 4, 2);
        let cut1 = edge_cut(&g, &one_pass);
        let cut3 = edge_cut(&g, &three_pass);
        assert!(
            cut3 <= cut1,
            "restreaming should not worsen the cut: {cut3} > {cut1}"
        );
        // On this community structure it should help decisively.
        assert!(
            cut3 * 2 <= cut1.max(1) * 2 && cut3 < cut1,
            "expected improvement: pass1 {cut1}, pass3 {cut3}"
        );
    }

    #[test]
    fn every_vertex_assigned_after_restream() {
        let g = ring_of_cliques(5, 4);
        let stream = loom_graph::GraphStream::from_graph(&g, StreamOrder::Random, 2);
        let a = restreamed_ldg(&stream, 3, 2);
        for v in g.vertices() {
            assert!(a.partition_of(v).is_some(), "{v:?} unassigned");
        }
    }

    #[test]
    fn restream_respects_capacity() {
        let g = ring_of_cliques(10, 5);
        let stream = loom_graph::GraphStream::from_graph(&g, StreamOrder::BreadthFirst, 3);
        let a = restreamed_ldg(&stream, 5, 3);
        let sizes = a.sizes();
        let cap = 1.1 * g.num_vertices() as f64 / 5.0;
        for &s in &sizes {
            assert!((s as f64) <= cap + 1.0, "{sizes:?} vs cap {cap}");
        }
    }

    #[test]
    fn zero_passes_is_plain_ldg() {
        let g = ring_of_cliques(4, 4);
        let stream = loom_graph::GraphStream::from_graph(&g, StreamOrder::BreadthFirst, 7);
        let via_restream = restreamed_ldg(&stream, 2, 0);
        let mut ldg = crate::ldg::LdgPartitioner::new(2, CapacityModel::for_stream(&stream));
        crate::traits::partition_stream(&mut ldg, &stream);
        let direct = Box::new(ldg).into_assignment();
        for v in g.vertices() {
            assert_eq!(via_restream.partition_of(v), direct.partition_of(v));
        }
    }
}
