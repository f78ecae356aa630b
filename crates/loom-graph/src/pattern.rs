//! Pattern (query) graphs `q = (V_q, E_q)` from §1.3.
//!
//! Patterns are the small labelled graphs whose matches a workload asks
//! for. They are kept distinct from [`crate::LabeledGraph`] because they
//! are tiny (the paper: "of the order of 10 edges"), always connected,
//! and need a handful of convenience operations (sub-graph enumeration,
//! degree sequences) the big data graph never does.

use crate::types::Label;

/// A small connected labelled pattern graph.
///
/// Vertices are indexed `0..n` locally; each carries a [`Label`] from the
/// data graph's alphabet. Edges are unordered pairs of local indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternGraph {
    labels: Vec<Label>,
    edges: Vec<(usize, usize)>,
    adj: Vec<Vec<(usize, usize)>>,
    name: String,
}

impl PatternGraph {
    /// Build a pattern from vertex labels and an edge list.
    ///
    /// # Panics
    /// Panics where [`PatternGraph::try_new`] refuses: an edge endpoint
    /// out of range, a self-loop, or a pattern that has an edge but is
    /// not connected (disconnected patterns are not valid traversal
    /// patterns).
    pub fn new(name: impl Into<String>, labels: Vec<Label>, edges: Vec<(usize, usize)>) -> Self {
        Self::try_new(name, labels, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PatternGraph::new`], with the reason for a refusal as an error
    /// instead of a panic — for patterns read from untrusted input.
    pub fn try_new(
        name: impl Into<String>,
        labels: Vec<Label>,
        edges: Vec<(usize, usize)>,
    ) -> Result<Self, String> {
        let n = labels.len();
        let mut adj = vec![Vec::new(); n];
        for (i, &(u, v)) in edges.iter().enumerate() {
            if u >= n || v >= n {
                return Err(format!("edge ({u},{v}) out of range for {n} vertices"));
            }
            if u == v {
                return Err(format!("self-loop ({u},{u}) not allowed in a pattern"));
            }
            adj[u].push((v, i));
            adj[v].push((u, i));
        }
        let p = PatternGraph {
            labels,
            edges,
            adj,
            name: name.into(),
        };
        if !p.edges.is_empty() && !p.is_connected() {
            return Err(format!("pattern {} is disconnected", p.name));
        }
        Ok(p)
    }

    /// Convenience constructor for a path pattern `l0 - l1 - ... - lk`.
    pub fn path(name: impl Into<String>, labels: Vec<Label>) -> Self {
        let edges = (0..labels.len().saturating_sub(1))
            .map(|i| (i, i + 1))
            .collect();
        Self::new(name, labels, edges)
    }

    /// Convenience constructor for a star: `center` linked to each leaf.
    pub fn star(name: impl Into<String>, center: Label, leaves: Vec<Label>) -> Self {
        let mut labels = vec![center];
        labels.extend(leaves);
        let edges = (1..labels.len()).map(|i| (0, i)).collect();
        Self::new(name, labels, edges)
    }

    /// Convenience constructor for a cycle over the given labels.
    pub fn cycle(name: impl Into<String>, labels: Vec<Label>) -> Self {
        let n = labels.len();
        assert!(n >= 3, "cycle needs at least 3 vertices");
        let edges = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Self::new(name, labels, edges)
    }

    /// Name used in reports and workload tables.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of vertices `|V_q|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges `|E_q|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Label of a local vertex.
    #[inline]
    pub fn label(&self, v: usize) -> Label {
        self.labels[v]
    }

    /// All labels, indexed by local vertex.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The edge list as unordered local-index pairs.
    #[inline]
    pub fn edge_list(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Neighbours of a local vertex, with the incident edge index.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[(usize, usize)] {
        &self.adj[v]
    }

    /// Degree of a local vertex.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// True if every vertex is reachable from vertex 0.
    pub fn is_connected(&self) -> bool {
        if self.labels.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.labels.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(w, _) in &self.adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.labels.len()
    }

    /// Multiset of `(label, degree)` pairs, sorted — a cheap invariant
    /// used by tests and by the exact isomorphism checker for pruning.
    pub fn label_degree_sequence(&self) -> Vec<(Label, usize)> {
        let mut s: Vec<_> = (0..self.num_vertices())
            .map(|v| (self.label(v), self.degree(v)))
            .collect();
        s.sort_unstable();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_constructor() {
        // q2 from Fig. 1: a-b-c path.
        let q2 = PatternGraph::path("q2", vec![Label(0), Label(1), Label(2)]);
        assert_eq!(q2.num_vertices(), 3);
        assert_eq!(q2.num_edges(), 2);
        assert_eq!(q2.edge_list(), &[(0, 1), (1, 2)]);
        assert!(q2.is_connected());
    }

    #[test]
    fn cycle_constructor() {
        // q1 from Fig. 1: a-b-a-b 4-cycle.
        let q1 = PatternGraph::cycle("q1", vec![Label(0), Label(1), Label(0), Label(1)]);
        assert_eq!(q1.num_edges(), 4);
        for v in 0..4 {
            assert_eq!(q1.degree(v), 2);
        }
    }

    #[test]
    fn star_constructor() {
        let s = PatternGraph::star("s", Label(0), vec![Label(1), Label(2), Label(3)]);
        assert_eq!(s.degree(0), 3);
        assert_eq!(s.num_edges(), 3);
        assert_eq!(s.label(0), Label(0));
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_pattern_panics() {
        PatternGraph::new(
            "bad",
            vec![Label(0), Label(1), Label(2), Label(3)],
            vec![(0, 1), (2, 3)],
        );
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        PatternGraph::new("bad", vec![Label(0)], vec![(0, 0)]);
    }

    #[test]
    fn label_degree_sequence_is_sorted_multiset() {
        let q = PatternGraph::path("q", vec![Label(1), Label(0), Label(1)]);
        assert_eq!(
            q.label_degree_sequence(),
            vec![(Label(0), 2), (Label(1), 1), (Label(1), 1)]
        );
    }

    #[test]
    fn single_vertex_pattern_is_connected() {
        let p = PatternGraph::new("v", vec![Label(0)], vec![]);
        assert!(p.is_connected());
        assert_eq!(p.num_edges(), 0);
    }
}
