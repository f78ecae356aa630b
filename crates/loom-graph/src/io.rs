//! Plain-text serialisation of graphs, workloads and assignments.
//!
//! The formats are deliberately simple line protocols so that graphs
//! can be produced by anything that can print (a DB export job, a
//! Python script) and partitionings can be consumed the same way.
//!
//! ## Graph format (`.lg`)
//! ```text
//! # comments and blank lines ignored
//! labels Paper Author Conference
//! v 0            # one line per vertex, in id order: its label index
//! v 1
//! e 0 1          # one line per edge: endpoint vertex ids
//! ```
//!
//! ## Workload format (`.lw`)
//! ```text
//! labels Paper Author Conference
//! query coauthors 45      # name, relative frequency
//! ql 1 0 1                # pattern vertex labels, local ids 0..n
//! qe 0 1                  # pattern edges over local ids
//! qe 1 2
//! end
//! ```
//! Frequencies are positive and finite, and so is their sum; a
//! pattern has no self-loop and, if it has an edge, is connected.
//! [`read_workload`] refuses anything else as a `line N:` error.
//!
//! ## Assignment format (`.tsv`)
//! One `vertex<TAB>partition` row per assigned vertex.

use crate::labeled::LabeledGraph;
use crate::pattern::PatternGraph;
use crate::types::{Label, VertexId};
use crate::workload::Workload;
use std::fmt;
use std::io::{BufRead, Write};

/// Errors from parsing the text formats.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Either an I/O failure or a format violation.
#[derive(Debug)]
pub enum IoError {
    /// Underlying reader/writer failure.
    Io(std::io::Error),
    /// Format violation.
    Parse(ParseError),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse(e) => write!(f, "parse error: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn perr(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse(ParseError {
        line,
        message: message.into(),
    })
}

/// Write a graph in the `.lg` format.
pub fn write_graph<W: Write>(g: &LabeledGraph, mut w: W) -> Result<(), IoError> {
    writeln!(
        w,
        "# loom labelled graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    writeln!(w, "labels {}", g.label_names().join(" "))?;
    for v in g.vertices() {
        writeln!(w, "v {}", g.label(v).0)?;
    }
    for (_, u, v) in g.edges() {
        writeln!(w, "e {} {}", u.0, v.0)?;
    }
    Ok(())
}

/// Read a graph in the `.lg` format.
pub fn read_graph<R: BufRead>(r: R) -> Result<LabeledGraph, IoError> {
    let mut graph: Option<LabeledGraph> = None;
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("labels") => {
                if graph.is_some() {
                    return Err(perr(lineno, "duplicate labels line"));
                }
                let names: Vec<String> = parts.map(|s| s.to_string()).collect();
                if names.is_empty() {
                    return Err(perr(lineno, "labels line needs at least one name"));
                }
                graph = Some(LabeledGraph::new(names));
            }
            Some("v") => {
                let g = graph
                    .as_mut()
                    .ok_or_else(|| perr(lineno, "v before labels"))?;
                let l: u16 = parts
                    .next()
                    .ok_or_else(|| perr(lineno, "v needs a label index"))?
                    .parse()
                    .map_err(|e| perr(lineno, format!("bad label index: {e}")))?;
                if (l as usize) >= g.num_labels() {
                    return Err(perr(lineno, format!("label index {l} out of range")));
                }
                g.add_vertex(Label(l));
            }
            Some("e") => {
                let g = graph
                    .as_mut()
                    .ok_or_else(|| perr(lineno, "e before labels"))?;
                let u: u32 = parts
                    .next()
                    .ok_or_else(|| perr(lineno, "e needs two endpoints"))?
                    .parse()
                    .map_err(|e| perr(lineno, format!("bad endpoint: {e}")))?;
                let v: u32 = parts
                    .next()
                    .ok_or_else(|| perr(lineno, "e needs two endpoints"))?
                    .parse()
                    .map_err(|e| perr(lineno, format!("bad endpoint: {e}")))?;
                let n = g.num_vertices() as u32;
                if u >= n || v >= n {
                    return Err(perr(
                        lineno,
                        format!("edge ({u},{v}) references unknown vertex"),
                    ));
                }
                g.add_edge(VertexId(u), VertexId(v));
            }
            Some(other) => return Err(perr(lineno, format!("unknown record '{other}'"))),
            None => unreachable!("empty lines filtered"),
        }
    }
    graph.ok_or_else(|| perr(0, "no labels line found"))
}

/// Write a workload in the `.lw` format. `label_names` provides the
/// header so readers can sanity-check against their graph.
pub fn write_workload<W: Write>(
    workload: &Workload,
    label_names: &[String],
    mut w: W,
) -> Result<(), IoError> {
    writeln!(w, "# loom workload: {} queries", workload.len())?;
    writeln!(w, "labels {}", label_names.join(" "))?;
    for (q, f) in workload.queries() {
        writeln!(w, "query {} {}", q.name().replace(' ', "_"), f)?;
        let labels: Vec<String> = q.labels().iter().map(|l| l.0.to_string()).collect();
        writeln!(w, "ql {}", labels.join(" "))?;
        for &(u, v) in q.edge_list() {
            writeln!(w, "qe {u} {v}")?;
        }
        writeln!(w, "end")?;
    }
    Ok(())
}

/// Read a workload in the `.lw` format. Returns the workload and the
/// label names from the header.
pub fn read_workload<R: BufRead>(r: R) -> Result<(Workload, Vec<String>), IoError> {
    /// A query being accumulated between `query` and `end` lines.
    struct PendingQuery {
        /// The line of its `query` record.
        line: usize,
        name: String,
        freq: f64,
        labels: Vec<Label>,
        edges: Vec<(usize, usize)>,
    }
    let mut label_names: Option<Vec<String>> = None;
    let mut queries: Vec<(PatternGraph, f64)> = Vec::new();
    let mut current: Option<PendingQuery> = None;
    // The running sum of frequencies, as `Workload` totals them: it
    // must stay finite, or every normalised weight reads as zero.
    let mut total_freq = 0.0f64;

    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("labels") => {
                label_names = Some(parts.map(|s| s.to_string()).collect());
            }
            Some("query") => {
                if current.is_some() {
                    return Err(perr(lineno, "query before previous 'end'"));
                }
                let name = parts
                    .next()
                    .ok_or_else(|| perr(lineno, "query needs a name"))?
                    .to_string();
                let freq: f64 = parts
                    .next()
                    .ok_or_else(|| perr(lineno, "query needs a frequency"))?
                    .parse()
                    .map_err(|e| perr(lineno, format!("bad frequency: {e}")))?;
                if !(freq.is_finite() && freq > 0.0) {
                    return Err(perr(
                        lineno,
                        format!("query {name}: frequency must be positive and finite, got {freq}"),
                    ));
                }
                total_freq += freq;
                if !total_freq.is_finite() {
                    return Err(perr(
                        lineno,
                        format!("query {name}: frequency {freq} overflows the workload's total"),
                    ));
                }
                current = Some(PendingQuery {
                    line: lineno,
                    name,
                    freq,
                    labels: Vec::new(),
                    edges: Vec::new(),
                });
            }
            Some("ql") => {
                let cur = current
                    .as_mut()
                    .ok_or_else(|| perr(lineno, "ql outside a query"))?;
                for tok in parts {
                    let l: u16 = tok
                        .parse()
                        .map_err(|e| perr(lineno, format!("bad label: {e}")))?;
                    cur.labels.push(Label(l));
                }
            }
            Some("qe") => {
                let cur = current
                    .as_mut()
                    .ok_or_else(|| perr(lineno, "qe outside a query"))?;
                let u: usize = parts
                    .next()
                    .ok_or_else(|| perr(lineno, "qe needs two endpoints"))?
                    .parse()
                    .map_err(|e| perr(lineno, format!("bad endpoint: {e}")))?;
                let v: usize = parts
                    .next()
                    .ok_or_else(|| perr(lineno, "qe needs two endpoints"))?
                    .parse()
                    .map_err(|e| perr(lineno, format!("bad endpoint: {e}")))?;
                if u == v {
                    return Err(perr(lineno, format!("qe {u} {v} is a self-loop")));
                }
                cur.edges.push((u, v));
            }
            Some("end") => {
                let PendingQuery {
                    name,
                    freq,
                    labels,
                    edges,
                    ..
                } = current
                    .take()
                    .ok_or_else(|| perr(lineno, "end outside a query"))?;
                if labels.is_empty() {
                    return Err(perr(lineno, format!("query {name} has no vertices")));
                }
                let pattern = PatternGraph::try_new(name.clone(), labels, edges)
                    .map_err(|e| perr(lineno, format!("query {name}: {e}")))?;
                queries.push((pattern, freq));
            }
            Some(other) => return Err(perr(lineno, format!("unknown record '{other}'"))),
            None => unreachable!(),
        }
    }
    if let Some(q) = current {
        return Err(perr(
            q.line,
            format!("unterminated query {} (missing 'end')", q.name),
        ));
    }
    if queries.is_empty() {
        return Err(perr(0, "workload has no queries"));
    }
    Ok((Workload::new(queries), label_names.unwrap_or_default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> LabeledGraph {
        let mut g = LabeledGraph::new(vec!["a".into(), "b".into()]);
        let v0 = g.add_vertex(Label(0));
        let v1 = g.add_vertex(Label(1));
        let v2 = g.add_vertex(Label(0));
        g.add_edge(v0, v1);
        g.add_edge(v1, v2);
        g
    }

    #[test]
    fn graph_roundtrip() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.label_names(), g.label_names());
        for v in g.vertices() {
            assert_eq!(g2.label(v), g.label(v));
        }
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn workload_roundtrip() {
        let w = Workload::figure1_example();
        let names = vec!["a".into(), "b".into(), "c".into(), "d".into()];
        let mut buf = Vec::new();
        write_workload(&w, &names, &mut buf).unwrap();
        let (w2, names2) = read_workload(&buf[..]).unwrap();
        assert_eq!(names2, names);
        assert_eq!(w2.len(), w.len());
        for ((q1, f1), (q2, f2)) in w.queries().iter().zip(w2.queries()) {
            assert_eq!(q1.name(), q2.name());
            assert_eq!(f1, f2);
            assert_eq!(q1.labels(), q2.labels());
            assert_eq!(q1.edge_list(), q2.edge_list());
        }
    }

    #[test]
    fn graph_rejects_garbage() {
        assert!(read_graph("bogus 1 2\n".as_bytes()).is_err());
        assert!(read_graph("v 0\n".as_bytes()).is_err(), "v before labels");
        assert!(
            read_graph("labels a\nv 3\n".as_bytes()).is_err(),
            "label range"
        );
        assert!(
            read_graph("labels a\nv 0\ne 0 5\n".as_bytes()).is_err(),
            "edge to unknown vertex"
        );
        assert!(read_graph("# only comments\n".as_bytes()).is_err());
    }

    #[test]
    fn workload_rejects_garbage() {
        assert!(
            read_workload("labels a\n".as_bytes()).is_err(),
            "no queries"
        );
        assert!(
            read_workload("labels a\nquery q 1\nql 0\n".as_bytes()).is_err(),
            "unterminated"
        );
        assert!(
            read_workload("labels a\nql 0\n".as_bytes()).is_err(),
            "ql outside query"
        );
        assert!(
            read_workload("labels a\nquery q 1\nql 0 0\nqe 0 9\nend\n".as_bytes()).is_err(),
            "edge out of range"
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = read_graph("labels a\nv 0\nv nope\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse(p) => assert_eq!(p.line, 3),
            other => panic!("expected parse error, got {other}"),
        }
    }

    /// The line and message of a workload the parser refuses.
    fn workload_error(text: &str) -> (usize, String) {
        match read_workload(text.as_bytes()) {
            Err(IoError::Parse(p)) => (p.line, p.message),
            Err(other) => panic!("expected a parse error, got {other}"),
            Ok(_) => panic!("accepted {text:?}"),
        }
    }

    const PATH: &str = "ql 0 0\nqe 0 1\nend\n";

    #[test]
    fn workload_refuses_a_frequency_that_is_not_positive_and_finite() {
        for freq in ["NaN", "-1", "inf", "0"] {
            let text = format!("labels a\nquery q {freq}\n{PATH}");
            let (line, message) = workload_error(&text);
            assert_eq!(line, 2, "{freq}: {message}");
            assert!(message.contains("positive and finite"), "{freq}: {message}");
        }
    }

    #[test]
    fn workload_refuses_a_self_loop_on_its_qe_line() {
        let (line, message) = workload_error("labels a\nquery q 1\nql 0 0\nqe 0 0\nend\n");
        assert_eq!((line, message.as_str()), (4, "qe 0 0 is a self-loop"));
    }

    #[test]
    fn workload_refuses_a_disconnected_pattern_on_its_end_line() {
        let text = "labels a\nquery q 1\nql 0 0 0 0\nqe 0 1\nqe 2 3\nend\n";
        let (line, message) = workload_error(text);
        assert_eq!(line, 6, "{message}");
        assert!(message.contains("disconnected"), "{message}");
    }

    #[test]
    fn workload_refuses_the_query_whose_frequency_overflows_the_total() {
        let text = format!("labels a\nquery p 1e308\n{PATH}query q 1e308\n{PATH}");
        let (line, message) = workload_error(&text);
        assert_eq!(line, 6, "{message}");
        assert!(message.contains("overflows"), "{message}");
    }

    #[test]
    fn unterminated_query_is_reported_at_its_query_line() {
        let text = format!("labels a\nquery p 1\n{PATH}query q 1\nql 0\n");
        let (line, message) = workload_error(&text);
        assert_eq!(line, 6, "{message}");
        assert!(message.contains("unterminated query q"), "{message}");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\nlabels a b\n# mid\nv 0\nv 1\n\ne 0 1\n";
        let g = read_graph(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
    }
}
