//! Sub-graph pattern-matching query execution (§1.3).
//!
//! Answers a pattern query `q` over the data graph `G`: every sub-graph
//! of `G` for which a label-preserving bijection onto `q` exists
//! (standard, non-induced sub-graph isomorphism). The evaluation never
//! needs materialised results — it streams each match's edge list into
//! the ipt counter — so the executor is callback-based with an optional
//! match cap.
//!
//! The search is classic backtracking with the usual GDBMS prunings:
//! candidate lists come from a label index, pattern vertices are
//! matched in a connectivity-aware order, and data vertices must have
//! at least the pattern degree. Automorphic duplicates (the same data
//! sub-graph found through different pattern mappings) are deduplicated
//! by edge set, matching the paper's definition of the result set `R`
//! as a set of sub-graphs of `G`.

use loom_graph::{EdgeId, Label, LabeledGraph, PatternGraph, VertexId};
use std::collections::HashSet;

/// The read surface the executor needs from a data graph: labels,
/// degrees and adjacency. Implemented by the materialised
/// [`LabeledGraph`] and by the serving layer's immutable
/// [`ViewGraph`](crate::paged::ViewGraph), so the same backtracking
/// search answers post-hoc experiment queries and live `loom serve`
/// requests (DESIGN.md §16).
pub trait GraphAccess {
    /// Number of vertices; ids `0..num_vertices()` are valid.
    fn num_vertices(&self) -> usize;
    /// Size of the label alphabet.
    fn num_labels(&self) -> usize;
    /// Label of `v`.
    fn label(&self, v: VertexId) -> Label;
    /// Degree of `v` (parallel edges counted).
    fn degree(&self, v: VertexId) -> usize;
    /// Adjacency row of `v`: `(neighbor, connecting edge)` pairs.
    fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)];
}

impl GraphAccess for LabeledGraph {
    fn num_vertices(&self) -> usize {
        LabeledGraph::num_vertices(self)
    }
    fn num_labels(&self) -> usize {
        LabeledGraph::num_labels(self)
    }
    fn label(&self, v: VertexId) -> Label {
        LabeledGraph::label(self, v)
    }
    fn degree(&self, v: VertexId) -> usize {
        LabeledGraph::degree(self, v)
    }
    fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        LabeledGraph::neighbors(self, v)
    }
}

/// A reusable executor over one data graph (owns the label index).
pub struct QueryExecutor<'g, G: GraphAccess = LabeledGraph> {
    graph: &'g G,
    by_label: Vec<Vec<VertexId>>,
}

impl<'g, G: GraphAccess> QueryExecutor<'g, G> {
    /// Build the executor and its label index.
    pub fn new(graph: &'g G) -> Self {
        let mut by_label = vec![Vec::new(); graph.num_labels()];
        for i in 0..graph.num_vertices() {
            let v = VertexId(i as u32);
            by_label[graph.label(v).index()].push(v);
        }
        QueryExecutor { graph, by_label }
    }

    /// Vertices carrying `l` (the index the matcher starts from); none
    /// for a label outside the graph's alphabet.
    pub fn candidates(&self, l: loom_graph::Label) -> &[VertexId] {
        self.by_label.get(l.index()).map_or(&[], Vec::as_slice)
    }

    /// Invoke `f` once per distinct match of `q`, passing the matched
    /// data edges (one per pattern edge, in pattern-edge order). Stops
    /// after `limit` matches. Returns the number of matches delivered.
    pub fn for_each_match<F: FnMut(&[EdgeId])>(
        &self,
        q: &PatternGraph,
        limit: usize,
        mut f: F,
    ) -> usize {
        if q.num_vertices() == 0 || limit == 0 {
            return 0;
        }
        let order = match_order(q, &self.by_label);
        let mut mapping = vec![VertexId(u32::MAX); q.num_vertices()];
        let mut used: HashSet<VertexId> = HashSet::new();
        let mut seen: HashSet<Vec<EdgeId>> = HashSet::new();
        let mut delivered = 0usize;
        self.backtrack(
            q,
            &order,
            0,
            &mut mapping,
            &mut used,
            &mut seen,
            limit,
            &mut delivered,
            &mut f,
        );
        delivered
    }

    /// Count distinct matches of `q`, up to `limit`.
    pub fn count_matches(&self, q: &PatternGraph, limit: usize) -> usize {
        self.for_each_match(q, limit, |_| {})
    }

    #[allow(clippy::too_many_arguments)]
    fn backtrack<F: FnMut(&[EdgeId])>(
        &self,
        q: &PatternGraph,
        order: &[usize],
        depth: usize,
        mapping: &mut [VertexId],
        used: &mut HashSet<VertexId>,
        seen: &mut HashSet<Vec<EdgeId>>,
        limit: usize,
        delivered: &mut usize,
        f: &mut F,
    ) -> bool {
        if *delivered >= limit {
            return false; // saturated: unwind
        }
        if depth == order.len() {
            // Collect matched data edges per pattern edge.
            let mut edges = Vec::with_capacity(q.num_edges());
            for &(pu, pv) in q.edge_list() {
                let du = mapping[pu];
                let dv = mapping[pv];
                let e = self
                    .graph
                    .neighbors(du)
                    .iter()
                    .find(|&&(w, _)| w == dv)
                    .map(|&(_, e)| e)
                    .expect("checked during search");
                edges.push(e);
            }
            let mut key = edges.clone();
            key.sort_unstable();
            if seen.insert(key) {
                *delivered += 1;
                f(&edges);
            }
            return true;
        }
        let pv = order[depth];
        // Candidates: through a mapped neighbour when one exists,
        // otherwise the label index.
        let anchored = q
            .neighbors(pv)
            .iter()
            .find(|&&(w, _)| mapping[w] != VertexId(u32::MAX))
            .map(|&(w, _)| mapping[w]);
        let try_candidate = |cand: VertexId,
                             this: &Self,
                             mapping: &mut [VertexId],
                             used: &mut HashSet<VertexId>,
                             seen: &mut HashSet<Vec<EdgeId>>,
                             delivered: &mut usize,
                             f: &mut F|
         -> bool {
            if used.contains(&cand)
                || this.graph.label(cand) != q.label(pv)
                || this.graph.degree(cand) < q.degree(pv)
            {
                return true;
            }
            // Every already-mapped pattern neighbour must be a data
            // neighbour of the candidate.
            for &(w, _) in q.neighbors(pv) {
                let dw = mapping[w];
                if dw != VertexId(u32::MAX)
                    && !this.graph.neighbors(cand).iter().any(|&(x, _)| x == dw)
                {
                    return true;
                }
            }
            mapping[pv] = cand;
            used.insert(cand);
            let keep_going = this.backtrack(
                q,
                order,
                depth + 1,
                mapping,
                used,
                seen,
                limit,
                delivered,
                f,
            );
            mapping[pv] = VertexId(u32::MAX);
            used.remove(&cand);
            keep_going
        };

        if let Some(anchor) = anchored {
            // Iterate the anchor's data neighbours (usually tiny).
            for &(cand, _) in self.graph.neighbors(anchor) {
                if !try_candidate(cand, self, mapping, used, seen, delivered, f) {
                    return false;
                }
            }
        } else {
            for &cand in self.candidates(q.label(pv)) {
                if !try_candidate(cand, self, mapping, used, seen, delivered, f) {
                    return false;
                }
            }
        }
        true
    }
}

/// Pattern-vertex matching order: start from the vertex whose label is
/// rarest in the data (fewest candidates), then expand by connectivity
/// (BFS), so every later vertex is anchored to a mapped neighbour.
fn match_order(q: &PatternGraph, by_label: &[Vec<VertexId>]) -> Vec<usize> {
    let n = q.num_vertices();
    let start = (0..n)
        .min_by_key(|&v| {
            (
                by_label
                    .get(q.label(v).index())
                    .map(|c| c.len())
                    .unwrap_or(0),
                std::cmp::Reverse(q.degree(v)),
            )
        })
        .unwrap_or(0);
    order_from(q, start)
}

/// BFS order over pattern vertices from a fixed start.
fn order_from(q: &PatternGraph, start: usize) -> Vec<usize> {
    let n = q.num_vertices();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for root in std::iter::once(start).chain(0..n) {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &(w, _) in q.neighbors(v) {
                if !seen[w] {
                    seen[w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::Label;

    const A: Label = Label(0);
    const B: Label = Label(1);
    const C: Label = Label(2);

    /// The running-example graph G of Fig. 1: labels a,b,c,d over
    /// vertices 1..8, partitioned {1,2,5,6 | 3,4,7,8} in the figure.
    fn figure1_graph() -> LabeledGraph {
        let mut g = LabeledGraph::with_anonymous_labels(4);
        // Vertices 1-4 top row (a b c d), 5-8 bottom row (b a d c).
        let v1 = g.add_vertex(Label(0)); // a
        let v2 = g.add_vertex(Label(1)); // b
        let v3 = g.add_vertex(Label(2)); // c
        let v4 = g.add_vertex(Label(3)); // d
        let v5 = g.add_vertex(Label(1)); // b
        let v6 = g.add_vertex(Label(0)); // a
        let v7 = g.add_vertex(Label(3)); // d
        let v8 = g.add_vertex(Label(2)); // c
        g.add_edge(v1, v2);
        g.add_edge(v2, v3);
        g.add_edge(v3, v4);
        g.add_edge(v1, v5);
        g.add_edge(v2, v6);
        g.add_edge(v5, v6);
        g.add_edge(v3, v7);
        g.add_edge(v4, v8);
        g.add_edge(v7, v8);
        g
    }

    #[test]
    fn q2_matches_figure1() {
        // §1: "q2 matches the subgraphs {(1,2),(2,3)} and {(6,2),(2,3)}".
        let g = figure1_graph();
        let ex = QueryExecutor::new(&g);
        let q2 = PatternGraph::path("q2", vec![A, B, C]);
        let mut found = Vec::new();
        ex.for_each_match(&q2, usize::MAX, |edges| found.push(edges.to_vec()));
        assert_eq!(found.len(), 2, "exactly the two paths through vertex 2");
    }

    #[test]
    fn single_edge_counts() {
        let g = figure1_graph();
        let ex = QueryExecutor::new(&g);
        let ab = PatternGraph::path("ab", vec![A, B]);
        // a-b edges: (1,2), (1,5), (2,6), (5,6) = 4.
        assert_eq!(ex.count_matches(&ab, usize::MAX), 4);
    }

    #[test]
    fn cycle_match_dedups_automorphisms() {
        // q1 = a-b-a-b 4-cycle matches the square 1-2-6-5 exactly once
        // despite its 8 automorphisms.
        let g = figure1_graph();
        let ex = QueryExecutor::new(&g);
        let q1 = PatternGraph::cycle("q1", vec![A, B, A, B]);
        assert_eq!(ex.count_matches(&q1, usize::MAX), 1);
    }

    #[test]
    fn limit_caps_enumeration() {
        let g = figure1_graph();
        let ex = QueryExecutor::new(&g);
        let ab = PatternGraph::path("ab", vec![A, B]);
        assert_eq!(ex.count_matches(&ab, 2), 2);
        assert_eq!(ex.count_matches(&ab, 0), 0);
    }

    #[test]
    fn no_match_for_absent_labels_combination() {
        let g = figure1_graph();
        let ex = QueryExecutor::new(&g);
        // a-a edges do not exist in G.
        let aa = PatternGraph::path("aa", vec![A, A]);
        assert_eq!(ex.count_matches(&aa, usize::MAX), 0);
    }

    #[test]
    fn pattern_label_outside_the_alphabet_matches_nothing() {
        // Figure 1 has labels 0..4; a workload may name more.
        let g = figure1_graph();
        let ex = QueryExecutor::new(&g);
        assert!(ex.candidates(Label(7)).is_empty());
        for q in [
            PatternGraph::path("a?", vec![A, Label(7)]),
            PatternGraph::path("??", vec![Label(7), Label(9)]),
        ] {
            assert_eq!(ex.count_matches(&q, usize::MAX), 0, "{}", q.name());
        }
    }

    #[test]
    fn matched_edges_align_with_pattern_edges() {
        let g = figure1_graph();
        let ex = QueryExecutor::new(&g);
        let q2 = PatternGraph::path("q2", vec![A, B, C]);
        ex.for_each_match(&q2, usize::MAX, |edges| {
            assert_eq!(edges.len(), 2);
            // First pattern edge is a-b, second is b-c: check labels.
            let (u0, v0) = g.endpoints(edges[0]);
            let mut l0 = [g.label(u0), g.label(v0)];
            l0.sort_unstable();
            assert_eq!(l0, [A, B]);
            let (u1, v1) = g.endpoints(edges[1]);
            let mut l1 = [g.label(u1), g.label(v1)];
            l1.sort_unstable();
            assert_eq!(l1, [B, C]);
        });
    }

    #[test]
    fn triangle_pattern_in_triangle_graph() {
        let mut g = LabeledGraph::with_anonymous_labels(3);
        let a = g.add_vertex(A);
        let b = g.add_vertex(B);
        let c = g.add_vertex(C);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, a);
        let ex = QueryExecutor::new(&g);
        let tri = PatternGraph::cycle("tri", vec![A, B, C]);
        assert_eq!(ex.count_matches(&tri, usize::MAX), 1);
        // Non-induced semantics: the a-b-c *path* also matches even
        // though the closing edge exists.
        let path = PatternGraph::path("p", vec![A, B, C]);
        assert_eq!(ex.count_matches(&path, usize::MAX), 1);
    }
}
