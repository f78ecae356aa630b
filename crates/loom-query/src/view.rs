//! Immutable read views and the `loom serve` request protocol
//! (DESIGN.md §16 + appendix B).
//!
//! A [`ReadView`] is what the online engine publishes at a batch
//! boundary: the partition assignment as of that boundary, the retained
//! adjacency over the last *horizon* edges (as a [`ViewGraph`] the
//! generic [`QueryExecutor`] runs over unchanged), and the window /
//! occupancy statistics of the moment. The two big members are
//! persistent structures ([`crate::paged`]) sharing every page the
//! engine has not written since, so a view costs what changed, not what
//! exists. Reader threads receive it
//! behind an `Arc` swapped through `loom_runtime::EpochCell`, so every
//! query in this module takes `&ReadView` and performs **zero
//! synchronisation**: by the time a request handler runs, the view is
//! plain immutable data.
//!
//! [`handle_request`] is the complete protocol interpreter — one
//! request line in, one reply line out — shared verbatim by the TCP
//! server, the CLI and the equivalence tests, so the grammar cannot
//! drift between them.

use crate::executor::{GraphAccess, QueryExecutor};
use crate::paged::{FrozenAssignment, ViewGraph};
use loom_graph::{Label, PatternGraph, VertexId};
use loom_matcher::ArenaOccupancy;
use loom_partition::AdjacencyOccupancy;
use std::collections::HashSet;

/// Default cap on vertices a `KHOP` traversal may visit.
pub const DEFAULT_KHOP_LIMIT: usize = 100_000;
/// Default cap on matches a `MATCH` probe may enumerate.
pub const DEFAULT_MATCH_LIMIT: usize = 1_000;
/// Hard ceiling on any client-supplied limit (keeps one hostile
/// request from turning into an unbounded enumeration).
pub const MAX_REQUEST_LIMIT: usize = 1_000_000;

/// One published epoch of engine state: everything a reader needs to
/// answer stats, partition-lookup, k-hop and pattern-match queries
/// without touching the live engine. Immutable by construction —
/// publication hands out `Arc<ReadView>` and never mutates one.
/// `Clone` is shallow: the assignment and the graph share their pages.
#[derive(Clone, Debug)]
pub struct ReadView {
    /// Publication sequence number (1-based; monotone per engine).
    pub epoch: u64,
    /// Edges ingested when this view was published.
    pub edges: u64,
    /// Vertices permanently assigned.
    pub vertices: usize,
    /// Partition count.
    pub k: usize,
    /// Per-partition assigned-vertex counts.
    pub sizes: Vec<usize>,
    /// Capacity constraint at publication time.
    pub capacity: f64,
    /// `max_size / mean_size - 1` over assigned vertices.
    pub imbalance: f64,
    /// Running cut counter at publication (resolved edges crossing
    /// partitions). Publication reads the counters as-is — it never
    /// settles pending edges, that is snapshot business.
    pub cut_edges: u64,
    /// Running resolved-edge counter at publication.
    pub resolved_edges: u64,
    /// The partition assignment as of publication.
    pub assignment: FrozenAssignment,
    /// Retained adjacency over the serve horizon.
    pub graph: ViewGraph,
    /// The horizon the ring was configured with (edges).
    pub horizon: usize,
    /// Match-arena occupancy at publication (Loom only).
    pub arena: Option<ArenaOccupancy>,
    /// Streaming-adjacency occupancy at publication (Loom only).
    pub adjacency: Option<AdjacencyOccupancy>,
}

/// Result of a k-hop traversal over a [`ReadView`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KhopResult {
    /// Vertices reached within `depth` hops, the start included.
    pub visited: usize,
    /// Visited vertices assigned to a different partition than the
    /// start vertex (0 when the start is unassigned) — the per-query
    /// flavour of the paper's inter-partition traversal count.
    pub remote: usize,
    /// True when the traversal stopped at the visit limit.
    pub capped: bool,
}

/// Breadth-first k-hop traversal from `start` over the retained
/// adjacency, visiting at most `limit` vertices.
pub fn khop(view: &ReadView, start: VertexId, depth: usize, limit: usize) -> KhopResult {
    let g = &view.graph;
    let limit = limit.max(1);
    if start.index() >= g.num_vertices() {
        // In range for the stream but outside the retained horizon:
        // reachable set is just the start itself.
        return KhopResult {
            visited: 1,
            remote: 0,
            capped: false,
        };
    }
    let home = view.assignment.partition_of(start);
    // Sized by what the traversal reaches (at most `limit`), not by the
    // graph: a dense bitmap would cost O(vertices) per request.
    let mut seen = HashSet::from([start]);
    let mut frontier = vec![start];
    let mut visited = 1usize;
    let mut remote = 0usize;
    let mut capped = false;
    'hops: for _ in 0..depth {
        let mut next = Vec::new();
        for &v in &frontier {
            for &(w, _) in g.neighbors(v) {
                if !seen.insert(w) {
                    continue;
                }
                if visited >= limit {
                    capped = true;
                    break 'hops;
                }
                visited += 1;
                if let (Some(h), Some(p)) = (home, view.assignment.partition_of(w)) {
                    if h != p {
                        remote += 1;
                    }
                }
                next.push(w);
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    KhopResult {
        visited,
        remote,
        capped,
    }
}

/// Count matches of the label path `labels` over the retained
/// adjacency, up to `limit`. Returns `(count, capped)`; like
/// [`khop`]'s, `capped` means a match past the limit exists, so the
/// search looks for one more than it reports.
pub fn match_path(view: &ReadView, labels: &[Label], limit: usize) -> (usize, bool) {
    let q = PatternGraph::path("serve-match", labels.to_vec());
    let ex = QueryExecutor::new(&view.graph);
    let count = ex.count_matches(&q, limit.saturating_add(1));
    (count.min(limit), count > limit)
}

fn parse_num<T: std::str::FromStr>(token: &str, what: &str) -> Result<T, String> {
    token
        .parse::<T>()
        .map_err(|_| format!("ERR bad {what} '{token}'"))
}

fn parse_limit(token: Option<&str>, default: usize) -> Result<usize, String> {
    match token {
        None => Ok(default),
        Some(t) => {
            let n: usize = parse_num(t, "limit")?;
            if n == 0 {
                return Err("ERR limit must be positive".to_string());
            }
            Ok(n.min(MAX_REQUEST_LIMIT))
        }
    }
}

/// The one-line reply to `HELP` (also embedded in usage errors).
const COMMANDS: &str = "OK commands STATS EPOCH PART <v> KHOP <v> <depth> [limit] \
                        MATCH <l0-l1-..> [limit] HELP QUIT";

/// Interpret one protocol request line against the newest published
/// view. Always returns exactly one reply line starting `OK ` or
/// `ERR ` — never panics on malformed input (appendix B is the
/// authoritative grammar; the serving test suite holds this function
/// to it). `view` is `None` before the first publication, when every
/// data-dependent request answers `ERR not ready`.
pub fn handle_request(view: Option<&ReadView>, line: &str) -> String {
    match try_handle(view, line) {
        Ok(reply) => reply,
        Err(err) => err,
    }
}

fn try_handle(view: Option<&ReadView>, line: &str) -> Result<String, String> {
    let mut tokens = line.split_whitespace();
    let cmd = tokens.next().ok_or("ERR empty request")?;
    let args: Vec<&str> = tokens.collect();
    // HELP works even before the first publication.
    if cmd == "HELP" {
        return Ok(COMMANDS.to_string());
    }
    let known = ["STATS", "EPOCH", "PART", "KHOP", "MATCH", "QUIT"];
    if !known.contains(&cmd) {
        return Err(format!("ERR unknown command '{cmd}' (try HELP)"));
    }
    let Some(view) = view else {
        return Err("ERR not ready: no view published yet".to_string());
    };
    match cmd {
        "STATS" => {
            if !args.is_empty() {
                return Err("ERR usage: STATS".to_string());
            }
            let sizes = view
                .sizes
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",");
            Ok(format!(
                "OK stats epoch={} edges={} vertices={} k={} sizes={} capacity={:.2} \
                 imbalance={:.5} cut={} resolved={} retained={}",
                view.epoch,
                view.edges,
                view.vertices,
                view.k,
                sizes,
                view.capacity,
                view.imbalance,
                view.cut_edges,
                view.resolved_edges,
                view.graph.num_edges(),
            ))
        }
        "EPOCH" => {
            if !args.is_empty() {
                return Err("ERR usage: EPOCH".to_string());
            }
            Ok(format!("OK epoch={} edges={}", view.epoch, view.edges))
        }
        "PART" => {
            let [v] = args[..] else {
                return Err("ERR usage: PART <vertex>".to_string());
            };
            let v: u32 = parse_num(v, "vertex")?;
            match view.assignment.partition_of(VertexId(v)) {
                Some(p) => Ok(format!("OK part v={v} p={}", p.0)),
                None => Ok(format!("OK part v={v} p=none")),
            }
        }
        "KHOP" => {
            let (v, depth, limit) = match args[..] {
                [v, d] => (v, d, None),
                [v, d, l] => (v, d, Some(l)),
                _ => return Err("ERR usage: KHOP <vertex> <depth> [limit]".to_string()),
            };
            let v: u32 = parse_num(v, "vertex")?;
            let depth: usize = parse_num(depth, "depth")?;
            if depth > 64 {
                return Err("ERR depth must be at most 64".to_string());
            }
            let limit = parse_limit(limit, DEFAULT_KHOP_LIMIT)?;
            let r = khop(view, VertexId(v), depth, limit);
            Ok(format!(
                "OK khop v={v} depth={depth} visited={} remote={} capped={}",
                r.visited, r.remote, r.capped as u8
            ))
        }
        "MATCH" => {
            let (pattern, limit) = match args[..] {
                [p] => (p, None),
                [p, l] => (p, Some(l)),
                _ => return Err("ERR usage: MATCH <l0-l1-..> [limit]".to_string()),
            };
            let mut labels = Vec::new();
            for part in pattern.split('-') {
                let l: usize = parse_num(part, "label")?;
                if l >= view.graph.num_labels() {
                    return Err(format!(
                        "ERR label {l} out of range (labels {})",
                        view.graph.num_labels()
                    ));
                }
                labels.push(Label(l as u16));
            }
            if labels.len() < 2 {
                return Err("ERR pattern needs at least 2 labels".to_string());
            }
            if labels.len() > 8 {
                return Err("ERR pattern length is capped at 8 labels".to_string());
            }
            let limit = parse_limit(limit, DEFAULT_MATCH_LIMIT)?;
            let (count, capped) = match_path(view, &labels, limit);
            Ok(format!(
                "OK match pattern={pattern} count={count} capped={}",
                capped as u8
            ))
        }
        // The TCP server intercepts QUIT before the handler; answering
        // it here keeps in-process callers (tests) in the same
        // grammar.
        "QUIT" => Ok("OK bye".to_string()),
        _ => unreachable!("known commands matched above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::{EdgeId, PartitionId, StreamEdge};

    fn edge(id: u32, src: u32, sl: u16, dst: u32, dl: u16) -> StreamEdge {
        StreamEdge {
            id: EdgeId(id),
            src: VertexId(src),
            dst: VertexId(dst),
            src_label: Label(sl),
            dst_label: Label(dl),
        }
    }

    /// A small path 0a-1b-2c-3a plus a spur 1b-4a, split over 2
    /// partitions: {0,1,4 | 2,3}.
    fn sample_view() -> ReadView {
        let edges = vec![
            edge(0, 0, 0, 1, 1),
            edge(1, 1, 1, 2, 2),
            edge(2, 2, 2, 3, 0),
            edge(3, 1, 1, 4, 0),
        ];
        let graph = ViewGraph::from_edges(&edges, 3);
        let mut assignment = FrozenAssignment::default();
        for (v, p) in [(0u32, 0u32), (1, 0), (4, 0), (2, 1), (3, 1)] {
            assignment.assign(VertexId(v), PartitionId(p));
        }
        ReadView {
            epoch: 7,
            edges: 4,
            vertices: 5,
            k: 2,
            sizes: vec![3, 2],
            capacity: 3.0,
            imbalance: 0.2,
            cut_edges: 1,
            resolved_edges: 4,
            assignment,
            graph,
            horizon: 1024,
            arena: None,
            adjacency: None,
        }
    }

    #[test]
    fn view_graph_exposes_labels_and_adjacency() {
        let v = sample_view();
        assert_eq!(v.graph.num_vertices(), 5);
        assert_eq!(v.graph.num_labels(), 3);
        assert_eq!(v.graph.num_edges(), 4);
        assert_eq!(v.graph.label(VertexId(1)), Label(1));
        assert_eq!(v.graph.degree(VertexId(1)), 3);
        assert_eq!(v.graph.degree(VertexId(4)), 1);
    }

    #[test]
    fn khop_counts_visited_and_remote() {
        let v = sample_view();
        // 1 hop from vertex 1: reaches 0, 2, 4; vertex 2 is remote.
        let r = khop(&v, VertexId(1), 1, 1000);
        assert_eq!(
            r,
            KhopResult {
                visited: 4,
                remote: 1,
                capped: false
            }
        );
        // 2 hops reach everything; 2 and 3 are remote.
        let r = khop(&v, VertexId(1), 2, 1000);
        assert_eq!(r.visited, 5);
        assert_eq!(r.remote, 2);
        // Depth 0 is just the start.
        assert_eq!(khop(&v, VertexId(1), 0, 1000).visited, 1);
        // Limit caps the frontier.
        let r = khop(&v, VertexId(1), 2, 2);
        assert_eq!(r.visited, 2);
        assert!(r.capped);
    }

    #[test]
    fn match_path_counts_label_paths() {
        let v = sample_view();
        // a-b edges: (0,1) and (1,4).
        let (n, capped) = match_path(&v, &[Label(0), Label(1)], 1000);
        assert_eq!((n, capped), (2, false));
        // a-b-c paths: 0-1-2 and 4-1-2.
        let (n, _) = match_path(&v, &[Label(0), Label(1), Label(2)], 1000);
        assert_eq!(n, 2);
        // The limit caps and reports it.
        let (n, capped) = match_path(&v, &[Label(0), Label(1)], 1);
        assert_eq!((n, capped), (1, true));
    }

    #[test]
    fn protocol_answers_every_command() {
        let v = sample_view();
        let view = Some(&v);
        assert_eq!(
            handle_request(view, "STATS"),
            "OK stats epoch=7 edges=4 vertices=5 k=2 sizes=3,2 capacity=3.00 \
             imbalance=0.20000 cut=1 resolved=4 retained=4"
        );
        assert_eq!(handle_request(view, "EPOCH"), "OK epoch=7 edges=4");
        assert_eq!(handle_request(view, "PART 2"), "OK part v=2 p=1");
        assert_eq!(handle_request(view, "PART 9999"), "OK part v=9999 p=none");
        assert_eq!(
            handle_request(view, "KHOP 1 1"),
            "OK khop v=1 depth=1 visited=4 remote=1 capped=0"
        );
        assert_eq!(
            handle_request(view, "MATCH 0-1"),
            "OK match pattern=0-1 count=2 capped=0"
        );
        assert_eq!(
            handle_request(view, "MATCH 0-1 1"),
            "OK match pattern=0-1 count=1 capped=1"
        );
        assert_eq!(
            handle_request(view, "MATCH 0-1 2"),
            "OK match pattern=0-1 count=2 capped=0"
        );
        assert!(handle_request(view, "HELP").starts_with("OK commands"));
        assert_eq!(handle_request(view, "QUIT"), "OK bye");
    }

    #[test]
    fn protocol_rejects_malformed_requests_without_panicking() {
        let v = sample_view();
        let view = Some(&v);
        for (req, want) in [
            ("", "ERR empty request"),
            ("NOPE", "ERR unknown command 'NOPE' (try HELP)"),
            ("stats", "ERR unknown command 'stats' (try HELP)"),
            ("STATS extra", "ERR usage: STATS"),
            ("PART", "ERR usage: PART <vertex>"),
            ("PART x", "ERR bad vertex 'x'"),
            ("PART -1", "ERR bad vertex '-1'"),
            ("KHOP 1", "ERR usage: KHOP <vertex> <depth> [limit]"),
            ("KHOP 1 two", "ERR bad depth 'two'"),
            ("KHOP 1 99", "ERR depth must be at most 64"),
            ("KHOP 1 2 0", "ERR limit must be positive"),
            ("MATCH", "ERR usage: MATCH <l0-l1-..> [limit]"),
            ("MATCH 0", "ERR pattern needs at least 2 labels"),
            ("MATCH 0-9", "ERR label 9 out of range (labels 3)"),
            ("MATCH 0-x", "ERR bad label 'x'"),
            (
                "MATCH 0-1-0-1-0-1-0-1-0",
                "ERR pattern length is capped at 8 labels",
            ),
        ] {
            assert_eq!(handle_request(view, req), want, "request {req:?}");
        }
    }

    #[test]
    fn before_first_publication_everything_is_not_ready() {
        assert_eq!(
            handle_request(None, "STATS"),
            "ERR not ready: no view published yet"
        );
        assert_eq!(
            handle_request(None, "KHOP 0 1"),
            "ERR not ready: no view published yet"
        );
        assert!(handle_request(None, "HELP").starts_with("OK commands"));
        assert_eq!(
            handle_request(None, "NOPE"),
            "ERR unknown command 'NOPE' (try HELP)"
        );
    }

    #[test]
    fn khop_outside_retained_horizon_is_lonely_but_valid() {
        let v = sample_view();
        let r = khop(&v, VertexId(1_000), 3, 100);
        assert_eq!(
            r,
            KhopResult {
                visited: 1,
                remote: 0,
                capped: false
            }
        );
    }
}
