//! The hub bound, by count: a star stream where every edge lands on one
//! hub vertex must hold the matcher's state flat in the hub degree.
//!
//! Each arrival at the hub probes `matchList(hub)`; the per-endpoint
//! match cap and the window's evictions keep that list — and the arena
//! behind it — at a fixed size however many edges the hub has seen, so
//! the total work is linear in the degree. A matcher that kept every
//! match ever made at the hub would grow all three counts below with
//! the degree. The per-edge time of the same path is measured by
//! `benchmark/` (`loom-matcher.on_edge_ns_per_edge`).

use loom_graph::{EdgeId, Label, PatternGraph, StreamEdge, VertexId, Workload};
use loom_matcher::{EdgeFate, MotifMatcher, SlidingWindow};
use loom_motif::{LabelRandomizer, TpsTrie, DEFAULT_PRIME};

const A: Label = Label(0);
const B: Label = Label(1);

/// Live matches (= arena cells after a compaction) once the window is
/// full, pinned from a run of this workload: 14 289 at every degree
/// from 2k up (1k, before the window first fills, has 13 963).
const HUB_PLATEAU: usize = 14_289;

/// The hub's `degree` edges `0-a -> i-b` through a matcher over the
/// star workload (hub label `a`, leaves `b`) and a 1024-edge window,
/// buffered edges entering the window and evicted ones leaving the
/// matcher, as the partitioner drives it.
fn hub_after(degree: u32) -> MotifMatcher {
    let rand = LabelRandomizer::new(2, DEFAULT_PRIME, 7);
    let workload = Workload::new(vec![
        (PatternGraph::star("s3", A, vec![B, B, B]), 70.0),
        (PatternGraph::path("ab", vec![A, B]), 30.0),
    ]);
    let trie = TpsTrie::build(&workload, &rand);
    let mut matcher = MotifMatcher::new(trie.motifs(0.3), rand);
    let mut window = SlidingWindow::new(1024);
    for i in 0..degree {
        let edge = StreamEdge {
            id: EdgeId(i),
            src: VertexId(0),
            dst: VertexId(i + 1),
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
fn hub_state_is_flat_in_the_degree() {
    for degree in [2_000u32, 4_000, 8_000] {
        let mut matcher = hub_after(degree);
        matcher.reclaim_arena();
        let arena = matcher.arena_occupancy();
        let counts = (
            arena.live_matches,
            arena.total_cells,
            matcher.match_list().len(),
        );
        assert_eq!(
            counts,
            (HUB_PLATEAU, HUB_PLATEAU, HUB_PLATEAU),
            "degree {degree}: (live matches, arena cells, match list) grew with the hub"
        );
    }
}
