//! The vertex-row bound, by count: a stream of disjoint edges over
//! ever-new vertices must hold the matcher's per-vertex rows flat in
//! the stream length.
//!
//! Every edge brings two vertices never seen before, so the ids seen
//! grow with the stream while the window holds a fixed number of
//! matches. The slot column that maps a vertex id to its row grows
//! with the ids (4 B each); the rows themselves must follow the live
//! matches, so after a compaction the slab has the same size however
//! many edges went by. An index with one row per vertex ever seen
//! would grow the slab count below with the stream.

use loom_graph::{EdgeId, Label, PatternGraph, StreamEdge, VertexId, Workload};
use loom_matcher::{EdgeFate, MotifMatcher, SlidingWindow};
use loom_motif::{LabelRandomizer, TpsTrie, DEFAULT_PRIME};

const A: Label = Label(0);
const B: Label = Label(1);

/// Slab rows after a compaction, pinned from a run of this workload:
/// the peak of vertices holding an entry between compactions, two per
/// match — 1025 live (the window plus the arriving edge) and 4096 dead
/// at the edge whose check fires the reclaim. Identical at every
/// stream length from 50k edges up.
const SLAB_PLATEAU: usize = 10_242;

/// `edges` disjoint edges `2i-a -> 2i+1-b` through a matcher over a
/// one-edge workload and a 1024-edge window, buffered edges entering
/// the window and evicted ones leaving the matcher.
fn disjoint_after(edges: u32) -> MotifMatcher {
    let rand = LabelRandomizer::new(2, DEFAULT_PRIME, 7);
    let workload = Workload::new(vec![(PatternGraph::path("ab", vec![A, B]), 1.0)]);
    let trie = TpsTrie::build(&workload, &rand);
    let mut matcher = MotifMatcher::new(trie.motifs(0.3), rand);
    let mut window = SlidingWindow::new(1024);
    for i in 0..edges {
        let edge = StreamEdge {
            id: EdgeId(i),
            src: VertexId(2 * i),
            dst: VertexId(2 * i + 1),
            src_label: A,
            dst_label: B,
        };
        assert_eq!(matcher.on_edge(edge), EdgeFate::Buffered, "edge {i}");
        if let Some(old) = window.push(edge) {
            matcher.on_edge_assigned(old.id);
        }
    }
    matcher
}

#[test]
fn vertex_rows_follow_live_matches() {
    for edges in [50_000u32, 100_000, 200_000] {
        let mut matcher = disjoint_after(edges);
        matcher.reclaim_arena();
        let (ids, slab) = matcher.match_list().vertex_row_counts();
        assert_eq!(ids, 2 * edges as usize, "{edges} edges: slot column");
        assert_eq!(
            slab, SLAB_PLATEAU,
            "{edges} edges: the vertex-row slab grew with the stream"
        );
        assert_eq!(
            matcher.match_list().len(),
            1024,
            "{edges} edges: live matches"
        );
    }
}
