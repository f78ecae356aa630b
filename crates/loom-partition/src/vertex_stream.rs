//! Vertex-stream variants of LDG and Fennel.
//!
//! \[30\] and \[31\] originally define their heuristics over *vertex*
//! streams: each element is a vertex arriving together with its full
//! adjacency list, and it is placed exactly once with complete local
//! information. The paper's footnote 7 notes LDG "may partition either
//! vertex or edge streams"; the edge-stream adaptations used by the
//! main evaluation live in [`crate::ldg`] / [`crate::fennel`].
//!
//! These variants matter for fidelity: §5.2's imbalance note (LDG at
//! 1-3%) describes the vertex-stream LDG, which barely needs its
//! residual term because every placement is fully informed — our
//! edge-stream LDG runs at its cap instead (see EXPERIMENTS.md).

use crate::fennel::fennel_choose;
use crate::state::{Assignment, PartitionState};
use loom_graph::{GraphStream, LabeledGraph, StreamOrder, VertexId};

/// One element of a vertex stream: a vertex and its neighbours.
#[derive(Clone, Debug)]
pub struct VertexArrival {
    /// The arriving vertex.
    pub vertex: VertexId,
    /// Its full neighbourhood in the graph.
    pub neighbors: Vec<VertexId>,
}

/// Materialise a vertex stream from a graph: vertices in the order
/// they are first touched by the given edge order (BFS/DFS/random over
/// edges induces the natural vertex order the paper's streams imply).
pub fn vertex_stream(g: &LabeledGraph, order: StreamOrder, seed: u64) -> Vec<VertexArrival> {
    let edge_stream = GraphStream::from_graph(g, order, seed);
    let mut seen = vec![false; g.num_vertices()];
    let mut out = Vec::with_capacity(g.num_vertices());
    for e in edge_stream.iter() {
        for v in [e.src, e.dst] {
            if !seen[v.index()] {
                seen[v.index()] = true;
                out.push(VertexArrival {
                    vertex: v,
                    neighbors: g.neighbors(v).iter().map(|&(w, _)| w).collect(),
                });
            }
        }
    }
    // Isolated vertices arrive last (they are in no edge).
    for v in g.vertices() {
        if !seen[v.index()] {
            out.push(VertexArrival {
                vertex: v,
                neighbors: Vec::new(),
            });
        }
    }
    out
}

/// Vertex-stream LDG \[30\]: place each arriving vertex at
/// `argmax |N(v) ∩ S_i| · (1 - |S_i|/C)` over its *full* neighbourhood
/// (only already-placed neighbours count, as in the original).
///
/// Each arrival is scored by a scan of its own neighbour list into one
/// reused k-row: the arrival carries its full neighbourhood, so the
/// scan sees every neighbour already placed.
pub fn ldg_vertex_stream(stream: &[VertexArrival], k: usize, num_vertices: usize) -> Assignment {
    let mut state = PartitionState::prescient(k, num_vertices, 1.0);
    let mut counts = vec![0u32; k];
    for arrival in stream {
        placed_neighbour_counts(&state, &arrival.neighbors, &mut counts);
        let p = crate::ldg::choose_weighted(&state, &counts);
        state.assign(arrival.vertex, p);
    }
    state.into_assignment()
}

/// Vertex-stream Fennel \[31\] with γ = 1.5, ν = 1.1. Scores by the
/// same neighbour-list scan as [`ldg_vertex_stream`] and the same
/// [`fennel_choose`] arithmetic as the edge-stream partitioner.
pub fn fennel_vertex_stream(
    stream: &[VertexArrival],
    k: usize,
    num_vertices: usize,
    num_edges: usize,
) -> Assignment {
    let gamma = 1.5f64;
    let nu = 1.1f64;
    let n = num_vertices.max(1) as f64;
    let m = num_edges.max(1) as f64;
    let alpha = m * (k as f64).powf(gamma - 1.0) / n.powf(gamma);
    let cap = nu * n / k as f64;
    let mut state = PartitionState::prescient(k, num_vertices, nu);
    let mut counts = vec![0u32; k];
    for arrival in stream {
        placed_neighbour_counts(&state, &arrival.neighbors, &mut counts);
        let p = fennel_choose(&state, &counts, alpha, gamma, cap);
        state.assign(arrival.vertex, p);
    }
    state.into_assignment()
}

/// Fill `counts` with `|N(v) ∩ S_i|` for an arrival's neighbour list.
fn placed_neighbour_counts(state: &PartitionState, neighbors: &[VertexId], counts: &mut [u32]) {
    counts.fill(0);
    for &w in neighbors {
        if let Some(p) = state.partition_of(w) {
            counts[p.index()] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::Label;

    fn chain_graph(n: usize) -> LabeledGraph {
        let mut g = LabeledGraph::with_anonymous_labels(1);
        let vs: Vec<_> = (0..n).map(|_| g.add_vertex(Label(0))).collect();
        for i in 0..n - 1 {
            g.add_edge(vs[i], vs[i + 1]);
        }
        g
    }

    fn edge_cut(g: &LabeledGraph, a: &Assignment) -> usize {
        g.edges().filter(|&(_, u, v)| a.is_cut(u, v)).count()
    }

    #[test]
    fn vertex_stream_covers_all_vertices_once() {
        let mut g = chain_graph(20);
        g.add_vertex(Label(0)); // isolated
        let stream = vertex_stream(&g, StreamOrder::Random, 5);
        assert_eq!(stream.len(), g.num_vertices());
        let mut seen = std::collections::HashSet::new();
        for a in &stream {
            assert!(seen.insert(a.vertex), "duplicate arrival");
        }
        // Isolated vertex arrives with no neighbours.
        assert!(stream.last().unwrap().neighbors.is_empty());
    }

    #[test]
    fn arrivals_carry_full_neighborhoods() {
        let g = chain_graph(10);
        for a in vertex_stream(&g, StreamOrder::BreadthFirst, 1) {
            assert_eq!(a.neighbors.len(), g.degree(a.vertex));
        }
    }

    #[test]
    fn vertex_ldg_is_tightly_balanced_on_bfs() {
        // The paper's 1-3% imbalance claim: a fully-informed LDG pass
        // over an ordered stream balances almost perfectly.
        let g = chain_graph(400);
        let stream = vertex_stream(&g, StreamOrder::BreadthFirst, 1);
        let a = ldg_vertex_stream(&stream, 4, g.num_vertices());
        let sizes = a.sizes();
        let mean = g.num_vertices() as f64 / 4.0;
        let max = *sizes.iter().max().unwrap() as f64;
        assert!(
            max / mean - 1.0 < 0.05,
            "imbalance {:.3} too high: {sizes:?}",
            max / mean - 1.0
        );
    }

    #[test]
    fn vertex_ldg_cuts_chain_sparingly() {
        let g = chain_graph(400);
        let stream = vertex_stream(&g, StreamOrder::BreadthFirst, 1);
        let a = ldg_vertex_stream(&stream, 4, g.num_vertices());
        // A chain can be 4-way partitioned with 3 cuts; allow slack for
        // the capacity-driven splits.
        let cut = edge_cut(&g, &a);
        assert!(cut <= 16, "cut {cut}");
    }

    #[test]
    fn vertex_fennel_respects_cap_and_assigns_all() {
        let g = chain_graph(200);
        let stream = vertex_stream(&g, StreamOrder::Random, 7);
        let a = fennel_vertex_stream(&stream, 4, g.num_vertices(), g.num_edges());
        let cap = 1.1 * g.num_vertices() as f64 / 4.0;
        for &s in &a.sizes() {
            assert!((s as f64) <= cap + 1.0);
        }
        for v in g.vertices() {
            assert!(a.partition_of(v).is_some());
        }
    }

    #[test]
    fn vertex_fennel_beats_random_on_communities() {
        // Two cliques; Fennel with full neighbourhoods should cut only
        // the bridge.
        let mut g = LabeledGraph::with_anonymous_labels(1);
        let mut cliques = Vec::new();
        for _ in 0..2 {
            let vs: Vec<_> = (0..8).map(|_| g.add_vertex(Label(0))).collect();
            for i in 0..8 {
                for j in (i + 1)..8 {
                    g.add_edge(vs[i], vs[j]);
                }
            }
            cliques.push(vs);
        }
        g.add_edge(cliques[0][0], cliques[1][0]);
        let stream = vertex_stream(&g, StreamOrder::BreadthFirst, 1);
        let a = fennel_vertex_stream(&stream, 2, g.num_vertices(), g.num_edges());
        // Fennel's cold-start penalty can peel one early vertex off per
        // clique at this toy scale (alpha ~ 1 when n = 16), so demand
        // "communities essentially intact", not a perfect bridge cut:
        // random 2-way placement would cut ~28 of 57 edges.
        let cut = edge_cut(&g, &a);
        assert!(cut <= 9, "cut {cut} of {}", g.num_edges());
    }
}
