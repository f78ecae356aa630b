//! The `loom` subcommands.

use loom_cli::{parse_scale, Args, Stdout};
use loom_core::graph::io;
use loom_core::graph::{datasets, DatasetKind, GraphStream, LabeledGraph, Scale, StreamOrder};
use loom_core::partition::{Assignment, CapacityModel, LoomConfig, PartitionMetrics};
use loom_core::pipeline::{build_partitioner, drive};
use loom_core::prelude::*;
use std::error::Error;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Bounds on the sizes the engine allocates or loops over in full, so a
/// hostile value is a named error rather than a multi-gigabyte abort or
/// an endless run. `--k`: per-partition state and per-edge scoring are
/// O(k). `--window`: the match window reserves its capacity up front.
/// `--labels` (or a workload's alphabet): Loom's motif lookup table is
/// O(labels² × motif degree²), and synthetic labels are 16-bit.
const MAX_K: usize = 1 << 16;
const MAX_WINDOW: usize = 1 << 24;
const MAX_LABELS: usize = 1 << 12;

/// The factory's one refusal: Loom partitions for a workload.
const LOOM_NEEDS_WORKLOAD: &str =
    "--system loom needs --workload (the query patterns to optimise for)";

/// Dispatch a parsed command line.
pub fn run(args: &Args) -> Result<()> {
    if args.help || args.command.name == "help" {
        print!("{}", crate::args::usage());
        return Ok(());
    }
    match args.command.name {
        "generate" => generate(args),
        "workload" => workload_cmd(args),
        "motifs" => motifs(args),
        "partition" => partition(args),
        "evaluate" => evaluate(args),
        "stream" => stream_cmd(args),
        "serve" => serve_cmd(args),
        "query" => query_cmd(args),
        other => unreachable!("`{other}` is in the flag table but has no handler"),
    }
}

fn parse_dataset(name: &str) -> Result<DatasetKind> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "dblp" => DatasetKind::Dblp,
        "provgen" => DatasetKind::ProvGen,
        "musicbrainz" => DatasetKind::MusicBrainz,
        "lubm100" | "lubm-100" => DatasetKind::Lubm100,
        "lubm4000" | "lubm-4000" => DatasetKind::Lubm4000,
        other => return Err(format!("unknown dataset '{other}'").into()),
    })
}

fn parse_order(name: &str) -> Result<StreamOrder> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "generated" | "as-generated" => StreamOrder::AsGenerated,
        "random" => StreamOrder::Random,
        "bfs" | "breadth-first" => StreamOrder::BreadthFirst,
        "dfs" | "depth-first" => StreamOrder::DepthFirst,
        other => return Err(format!("unknown order '{other}'").into()),
    })
}

/// A `--system` name, by [`System::parse`].
fn parse_system(name: &str) -> Result<System> {
    System::parse(name)
        .ok_or_else(|| format!("unknown system '{}'", name.to_ascii_lowercase()).into())
}

/// `--threshold`: a relative motif support, so in [0, 1]. NaN fails the
/// range check too; the motif index asserts the same range.
fn parse_threshold(args: &Args) -> Result<f64> {
    let threshold = args.parsed_or("threshold", 0.4f64)?;
    if !(0.0..=1.0).contains(&threshold) {
        return Err(
            format!("--threshold must be in [0, 1] (a relative support), got {threshold}").into(),
        );
    }
    Ok(threshold)
}

/// `--k`: required, and within [`MAX_K`].
fn parse_k(args: &Args) -> Result<usize> {
    match args.parsed_in("k", 0, ..=MAX_K)? {
        0 => Err("--k is required and must be positive".into()),
        k => Ok(k),
    }
}

fn out_writer(path: Option<String>) -> Result<Box<dyn Write>> {
    Ok(match path {
        Some(p) => Box::new(BufWriter::new(File::create(p)?)),
        None => Box::new(std::io::stdout().lock()),
    })
}

fn read_graph_file(path: &str) -> Result<LabeledGraph> {
    Ok(io::read_graph(BufReader::new(File::open(path)?))?)
}

fn read_workload_file(path: &str) -> Result<(Workload, Vec<String>)> {
    Ok(io::read_workload(BufReader::new(File::open(path)?))?)
}

fn generate(args: &Args) -> Result<()> {
    let dataset = parse_dataset(&args.required("dataset")?)?;
    let scale = parse_scale(&args.optional("scale")?.unwrap_or_else(|| "small".into()))?;
    let seed = args.parsed_or("seed", 42u64)?;
    let out = args.optional("out")?;
    let g = datasets::generate(dataset, scale, seed);
    io::write_graph(&g, out_writer(out)?)?;
    eprintln!(
        "generated {}: {} vertices, {} edges, {} labels",
        dataset.name(),
        g.num_vertices(),
        g.num_edges(),
        g.num_labels()
    );
    Ok(())
}

fn workload_cmd(args: &Args) -> Result<()> {
    let dataset = parse_dataset(&args.required("dataset")?)?;
    let out = args.optional("out")?;
    let w = workload_for(dataset);
    // The generators' label names give the header.
    let g = datasets::generate(dataset, Scale::Tiny, 0);
    io::write_workload(&w, g.label_names(), out_writer(out)?)?;
    eprintln!(
        "wrote the {} workload ({} queries)",
        dataset.name(),
        w.len()
    );
    Ok(())
}

fn motifs(args: &Args) -> Result<()> {
    let (workload, names) = read_workload_file(&args.required("workload")?)?;
    let threshold = parse_threshold(args)?;
    // The signature arithmetic is 32-bit: a larger modulus would be
    // truncated, silently, in every factor.
    let prime = args.parsed_in(
        "prime",
        loom_core::motif::DEFAULT_PRIME,
        2..=u64::from(u32::MAX),
    )?;
    let seed = args.parsed_or("seed", 42u64)?;

    let num_labels = workload_max_label(&workload).max(names.len());
    let rand = LabelRandomizer::new(num_labels, prime, seed);
    let trie = TpsTrie::build(&workload, &rand);
    let index = trie.motifs(threshold);
    let mut out = Stdout::default();
    out.line(format_args!(
        "TPSTry++: {} nodes; {} motifs at threshold {:.0}%",
        trie.len(),
        index.len(),
        threshold * 100.0
    ));
    for (_, m) in index.iter() {
        let shape = m
            .example
            .as_ref()
            .map(|p| {
                p.labels()
                    .iter()
                    .map(|l| {
                        names
                            .get(l.index())
                            .cloned()
                            .unwrap_or_else(|| format!("l{}", l.0))
                    })
                    .collect::<Vec<_>>()
                    .join("-")
            })
            .unwrap_or_default();
        out.line(format_args!(
            "  {} edges  supp {:5.1}%  {}",
            m.num_edges,
            m.support * 100.0,
            shape
        ));
    }
    Ok(out.finish()?)
}

fn partition(args: &Args) -> Result<()> {
    let graph = read_graph_file(&args.required("graph")?)?;
    let k = parse_k(args)?;
    let name = args.optional("system")?.unwrap_or_else(|| "loom".into());
    let order = parse_order(
        &args
            .optional("order")?
            .unwrap_or_else(|| "generated".into()),
    )?;
    let seed = args.parsed_or("seed", 42u64)?;
    let window = args.parsed_in(
        "window",
        (graph.num_edges() / 50).clamp(64, 10_000),
        1..=MAX_WINDOW,
    )?;
    let threshold = parse_threshold(args)?;
    let restream = args.parsed_or("restream", 0usize)?;
    let refine = args.parsed_or("refine", 0usize)?;
    let workload_path = args.optional("workload")?;
    let out = args.optional("out")?;
    let system = parse_system(&name)?;
    let workload = match &workload_path {
        Some(path) => Some(read_workload_file(path)?.0),
        None => None,
    };

    let stream = GraphStream::from_graph(&graph, order, seed);
    let config = LoomConfig {
        window_size: window,
        support_threshold: threshold,
        capacity: CapacityModel::for_stream(&stream),
        seed,
        ..LoomConfig::evaluation_defaults(k)
    };
    // Size the alphabet as `stream` does, so a query label the graph
    // lacks matches nothing instead of indexing past it.
    let num_labels = graph
        .num_labels()
        .max(workload.as_ref().map_or(0, workload_max_label));
    // Only Loom sizes a table by it, and only with a workload is it built.
    if system == System::Loom && workload.is_some() {
        check_label_count(num_labels)?;
    }
    let p = build_partitioner(system, &config, workload.as_ref(), num_labels)
        .ok_or(LOOM_NEEDS_WORKLOAD)?;
    let (mut assignment, _) = drive(p, &stream);
    for _ in 0..restream {
        assignment = loom_core::partition::restream_pass(&stream, &assignment);
    }
    if refine > 0 {
        let workload = workload
            .as_ref()
            .ok_or("--refine needs --workload (it optimises for the query patterns)")?;
        let weights = loom_core::partition::TraversalWeights::from_workload(workload);
        let result = loom_core::partition::taper_refine(&graph, &assignment, &weights, refine, 1.1);
        eprintln!(
            "taper refine: {} moves over {} rounds",
            result.moves, result.rounds
        );
        assignment = result.assignment;
    }

    let metrics = PartitionMetrics::measure(&graph, &assignment);
    eprintln!(
        "{name} over {} edges ({} order): cut {:.1}%, imbalance {:.1}%, sizes {:?}",
        graph.num_edges(),
        order.name(),
        metrics.cut_fraction * 100.0,
        metrics.imbalance * 100.0,
        metrics.sizes
    );
    write_assignment_rows(&assignment, &mut out_writer(out)?)
}

/// Read an assignment back (the `evaluate` input). A vertex given
/// twice or a partition id ≥ |V| is a `line N:` error, so the state
/// is never sized past |V|.
fn read_assignment<R: BufRead>(r: R, num_vertices: usize) -> Result<Assignment> {
    use loom_core::graph::{PartitionId, VertexId};
    let mut rows: Vec<(u32, u32)> = Vec::new();
    let mut first_line: Vec<usize> = vec![0; num_vertices];
    let mut max_p = 0u32;
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let v: u32 = parts
            .next()
            .ok_or_else(|| format!("line {}: empty row", i + 1))?
            .parse()
            .map_err(|e| format!("line {}: bad vertex: {e}", i + 1))?;
        let p: u32 = parts
            .next()
            .ok_or_else(|| format!("line {}: missing partition", i + 1))?
            .parse()
            .map_err(|e| format!("line {}: bad partition: {e}", i + 1))?;
        if (v as usize) >= num_vertices {
            return Err(format!("line {}: vertex {v} outside graph", i + 1).into());
        }
        if (p as usize) >= num_vertices {
            return Err(format!(
                "line {}: partition {p} not below the graph's {num_vertices} vertices",
                i + 1
            )
            .into());
        }
        let first = &mut first_line[v as usize];
        if *first != 0 {
            return Err(format!(
                "line {}: vertex {v} already assigned on line {first}",
                i + 1
            )
            .into());
        }
        *first = i + 1;
        max_p = max_p.max(p);
        rows.push((v, p));
    }
    let mut state = loom_core::partition::PartitionState::prescient(
        (max_p + 1).max(1) as usize,
        num_vertices,
        2.0,
    );
    for (v, p) in rows {
        state.assign(VertexId(v), PartitionId(p));
    }
    Ok(state.into_assignment())
}

/// `loom stream` — the truly online path: ingest a never-materialised
/// edge feed (stdin/file text records, or the unbounded synthetic
/// generator) through the `OnlineEngine` with adaptive capacity,
/// printing a snapshot line every `--snapshot-every` edges.
fn stream_cmd(args: &Args) -> Result<()> {
    execute_stream_run(build_stream_run(args)?)
}

/// The engine/source/run-loop state `stream` and `serve` share. Both
/// commands build it identically ([`build_stream_run`]) and drive it
/// identically ([`execute_stream_run`]); `serve` additionally enables
/// the epoch-publication read path in between — which is exactly why
/// its ingest output is byte-identical to `stream`'s.
struct StreamRun {
    engine: loom_core::engine::OnlineEngine,
    source: Box<dyn loom_core::graph::EdgeSource>,
    /// The stream's declared label alphabet (`--labels`, the workload
    /// header): a text feed only learns its own line by line.
    num_labels: usize,
    budget: Option<u64>,
    stop_after: u64,
    out: Option<String>,
    /// Where the snapshot lines go.
    stdout: Stdout,
    /// Snapshot data already printed during a WAL resume replay, so
    /// the run loop never prints the same line twice.
    last_printed: Option<(u64, usize, u64, u64)>,
}

/// Parse the `stream` flag set and build the engine wired to its
/// source, with any WAL attached or resumed.
fn build_stream_run(args: &Args) -> Result<StreamRun> {
    use loom_core::engine::{EngineConfig, OnlineEngine};
    use loom_core::graph::{EdgeSource, SyntheticEdgeSource, TextEdgeSource};

    let k = parse_k(args)?;
    let name = args.optional("system")?.unwrap_or_else(|| "ldg".into());
    let system = parse_system(&name)?;
    let source_kind = args.optional("source")?.unwrap_or_else(|| "text".into());
    let input = args.optional("input")?;
    let snapshot_every = args.parsed_or("snapshot-every", 5_000usize)?;
    // 0 keeps the engine's documented meaning: no periodic snapshots
    // (the final one still prints).
    let max_edges = args.parsed_or("max-edges", 0u64)?;
    let seed = args.parsed_or("seed", 42u64)?;
    let window = args.parsed_in("window", 1_024, 1..=MAX_WINDOW)?;
    let threshold = parse_threshold(args)?;
    // Adjacency retention: how many recent edges stay in the scored
    // neighbourhood. Defaults to 64 sliding windows, the bounded-
    // memory setting an unbounded ingest wants; "unbounded" restores
    // the grow-forever store.
    let adjacency_horizon_flag = args.optional("adjacency-horizon")?;
    // The baselines keep no adjacency at all (DESIGN.md §10), so a
    // retention horizon on them would be a silent no-op — reject it
    // rather than let an operator believe they bounded anything.
    if adjacency_horizon_flag.is_some() && system != System::Loom {
        return Err(format!(
            "--adjacency-horizon only applies to --system loom ({name} keeps no adjacency)"
        )
        .into());
    }
    let adjacency_horizon = match adjacency_horizon_flag.as_deref() {
        None => loom_core::partition::AdjacencyHorizon::default(),
        Some("unbounded") => loom_core::partition::AdjacencyHorizon::Unbounded,
        Some(_) => match args.parsed_or("adjacency-horizon", 0u64)? {
            0 => {
                return Err(
                    "--adjacency-horizon 0 would score against an empty neighbourhood; \
                     pass 'unbounded' to disable retention"
                        .into(),
                )
            }
            n => loom_core::partition::AdjacencyHorizon::Edges(n),
        },
    };
    let labels_flag = args.parsed_in("labels", 0, ..=MAX_LABELS)?;
    let workload_path = args.optional("workload")?;
    let out = args.optional("out")?;
    // Crash recovery (DESIGN.md §15). --wal DIR attaches an edge
    // journal plus periodic checkpoints; --resume recovers from them.
    // All of it is quality-invisible: snapshots and assignments are
    // bit-identical to a WAL-off run
    // (loom-core/tests/recovery_equivalence.rs).
    let wal_dir = args.optional("wal")?;
    let checkpoint_every = args.parsed::<u64>("checkpoint-every")?;
    let resume = args.boolean("resume")?;
    let stop_after = args.parsed_or("stop-after", 0u64)?;

    if wal_dir.is_none() && (checkpoint_every.is_some() || resume.is_some() || stop_after > 0) {
        return Err(
            "--checkpoint-every, --resume and --stop-after configure the write-ahead log; \
             give --wal DIR"
                .into(),
        );
    }
    let checkpoint_every = checkpoint_every.unwrap_or(100_000);
    let resume = resume.unwrap_or(false);

    // Workload (needed for --system loom). The header names carry the
    // full label alphabet — a text feed declares labels lazily, so
    // Loom's randomizer cannot wait for the source. `--labels`
    // overrides for feeds whose alphabet outgrows the workload header.
    let workload_and_names = match &workload_path {
        Some(path) => Some(read_workload_file(path)?),
        None => None,
    };
    let num_labels = labels_flag
        .max(
            workload_and_names
                .as_ref()
                .map(|(w, names)| workload_max_label(w).max(names.len()))
                .unwrap_or(0),
        )
        .max(4);
    check_label_count(num_labels)?;
    let workload = workload_and_names.map(|(w, _)| w);

    // The source: a line-oriented text feed (never materialised) or
    // the infinite generator. Boxed so the engine loop is shared.
    let mut source: Box<dyn EdgeSource> = match source_kind.as_str() {
        "text" => match input.as_deref() {
            None | Some("-") => Box::new(TextEdgeSource::new(BufReader::new(std::io::stdin()))),
            Some(path) => Box::new(TextEdgeSource::new(BufReader::new(File::open(path)?))),
        },
        "synthetic" => {
            // The generator reads no feed; a silently ignored --input
            // would let an operator believe they partitioned their file.
            if input.is_some() {
                return Err(
                    "--input only applies to --source text (synthetic generates its own edges)"
                        .into(),
                );
            }
            if max_edges == 0 && stop_after == 0 {
                return Err("--source synthetic is infinite; give --max-edges".into());
            }
            Box::new(SyntheticEdgeSource::new(seed, num_labels))
        }
        other => return Err(format!("unknown source '{other}'").into()),
    };
    // Loom's signature randomizer is sized to `num_labels` upfront; a
    // feed whose labels outgrow the declared alphabet must degrade
    // (clamp to label 0), not crash a long-running ingest.
    if system == System::Loom {
        source = Box::new(ClampLabels {
            inner: source,
            alphabet: num_labels,
        });
    }

    // The defaults' capacity is adaptive: a feed's extent is unknown.
    let config = LoomConfig {
        window_size: window,
        support_threshold: threshold,
        seed,
        adjacency_horizon,
        ..LoomConfig::evaluation_defaults(k)
    };
    let partitioner = build_partitioner(system, &config, workload.as_ref(), num_labels)
        .ok_or(LOOM_NEEDS_WORKLOAD)?;

    let mut engine = OnlineEngine::new(
        partitioner,
        EngineConfig {
            snapshot_every,
            ..EngineConfig::default()
        },
    );

    let mut stdout = Stdout::default();
    let mut last_printed: Option<(u64, usize, u64, u64)> = None;
    // Attach or resume the WAL before the first edge flows. The
    // fingerprint covers every quality-affecting knob, so a resume
    // under a different stream definition refuses loudly. Its text must
    // not change: a WAL written by an earlier build has to keep
    // resuming.
    let mut resumed_edges = 0u64;
    if let Some(dir) = &wal_dir {
        let backend = loom_core::wal::FileBackend::new(dir)?;
        let fingerprint = format!(
            "loom-stream v1 system={} k={k} seed={seed} window={window} threshold={threshold} \
             adjacency={} labels={num_labels} snapshot-every={snapshot_every} \
             checkpoint-every={checkpoint_every} source={source_kind}",
            system.name().to_ascii_lowercase(),
            match adjacency_horizon_flag.as_deref() {
                None => "default".to_string(),
                Some(v) => v.to_string(),
            },
        );
        if resume {
            let durable =
                engine.resume_from_wal(Box::new(backend), checkpoint_every, &fingerprint, |s| {
                    last_printed = Some((s.edges, s.vertices, s.cut_edges, s.resolved_edges));
                    print_snapshot(&mut stdout, s);
                })?;
            // Replay rebuilt state up to the durable boundary; place
            // the live source one past it so ingest continues exactly
            // where the crashed run stopped.
            let skipped = source.skip_edges(durable);
            if skipped < durable {
                return Err(format!(
                    "resume needs the same feed: the WAL holds {durable} durable edges \
                     but the source ended after {skipped}"
                )
                .into());
            }
            resumed_edges = durable;
            let stats = engine.recovery_stats().expect("wal attached by resume");
            eprintln!(
                "resumed from {dir}: {durable} edges durable, {} replayed from the journal \
                 past checkpoint {}",
                stats.replayed_edges, stats.checkpoint_seq,
            );
        } else {
            engine.attach_wal(Box::new(backend), checkpoint_every, &fingerprint)?;
        }
    }

    // --max-edges and --stop-after both count TOTAL stream edges;
    // run() compares the cap against the engine's stream-global edge
    // count, which already includes the resumed prefix, so a resumed
    // run ingests exactly the remainder and matches an uninterrupted
    // run edge for edge.
    let budget = match (max_edges, stop_after) {
        (0, 0) => None,
        (m, 0) => Some(m),
        (0, s) => Some(s),
        (m, s) => Some(m.min(s)),
    };
    if let Some(cap) = budget {
        if cap < resumed_edges {
            return Err(format!(
                "the WAL already holds {resumed_edges} durable edges, past the requested \
                 cap of {cap}; raise --max-edges/--stop-after or start a fresh WAL"
            )
            .into());
        }
    }
    Ok(StreamRun {
        engine,
        source,
        num_labels,
        budget,
        stop_after,
        out,
        stdout,
        last_printed,
    })
}

/// Drive a built [`StreamRun`] to completion: the ingest loop, the
/// final snapshot and summary lines, and the `--out` assignment dump.
fn execute_stream_run(run: StreamRun) -> Result<()> {
    let StreamRun {
        mut engine,
        mut source,
        num_labels: _,
        budget,
        stop_after,
        out,
        mut stdout,
        mut last_printed,
    } = run;
    // A WAL write failure surfaces as an engine error naming the batch
    // and the stream-global edge; the run stops there, so bail before
    // finish() rather than drain the window past it. `--resume true`
    // continues from whatever the WAL made durable.
    engine.run(source.as_mut(), budget, |s| {
        last_printed = Some((s.edges, s.vertices, s.cut_edges, s.resolved_edges));
        print_snapshot(&mut stdout, s);
    })?;
    // A feed that stopped on a fatal ingest error (malformed line,
    // read failure) is not a feed that ended: report what was
    // partitioned, then exit non-zero so pipelines notice.
    let ingest_error = source.error().map(String::from);
    let fin = if stop_after > 0 {
        // Clean stop: flush the journal and leave the match window
        // undrained. finish() would commit the window's pending edges
        // — placements a resumed run re-derives itself — so the final
        // line here reports the stopped state, not the drained one.
        // Serving (if on) gets one last view of the stopped state;
        // a no-op otherwise.
        engine.publish_view_now();
        engine.flush_wal()?;
        engine.snapshot()
    } else {
        engine.finish()
    };
    // When ingest ends exactly on the cadence, the final snapshot can
    // repeat the just-printed data point (unless the flush changed it,
    // e.g. Loom draining its window) — don't print the same line
    // twice.
    if last_printed != Some((fin.edges, fin.vertices, fin.cut_edges, fin.resolved_edges)) {
        print_snapshot(&mut stdout, &fin);
    }
    if stop_after > 0 {
        eprintln!(
            "{} stopped cleanly after {} edges (resumable with --resume true): \
             {} vertices, cut {:.1}%, imbalance {:.1}%",
            engine.partitioner_name(),
            fin.edges,
            fin.vertices,
            fin.cut_fraction() * 100.0,
            fin.imbalance * 100.0,
        );
    } else {
        eprintln!(
            "{} over {} edges (online, adaptive capacity): {} vertices, cut {:.1}%, imbalance {:.1}%",
            engine.partitioner_name(),
            fin.edges,
            fin.vertices,
            fin.cut_fraction() * 100.0,
            fin.imbalance * 100.0,
        );
    }

    if let Some(path) = out {
        let assignment = engine.into_assignment();
        let mut w = out_writer(Some(path))?;
        write_assignment_rows(&assignment, &mut w)?;
    }
    if let Some(e) = ingest_error {
        return Err(format!("ingest stopped after {} edges: {e}", fin.edges).into());
    }
    Ok(stdout.finish()?)
}

/// `loom serve` — `stream` plus the query port (DESIGN.md §16): the
/// engine publishes an immutable read view at batch boundaries and a
/// [`loom_core::runtime::LineServer`] answers the newline-delimited
/// protocol from it. Readers only ever clone an `Arc` to a published
/// view — the ingest thread is never blocked, and ingest output is
/// byte-identical to `loom stream` apart from the `queries` snapshot
/// segment.
fn serve_cmd(args: &Args) -> Result<()> {
    use loom_core::runtime::{LineHandler, LineServer, LineServerConfig};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    let server_defaults = LineServerConfig::default();
    let serve_defaults = loom_core::ServeOptions::default();
    let listen = args
        .optional("listen")?
        .unwrap_or_else(|| "127.0.0.1:0".into());
    let readers = args.parsed_in("readers", server_defaults.max_connections, 1..)?;
    let publish_every = args.parsed_in("publish-every", serve_defaults.publish_every, 1..)?;
    // A view with no retained edges answers every KHOP and MATCH with
    // nothing, and says OK.
    let serve_horizon = args.parsed_in("serve-horizon", serve_defaults.horizon_edges, 1..)?;
    let query_log = args.optional("query-log")?;
    let linger_ms = args.parsed_or("linger-ms", 0u64)?;
    let pace_ms = args.parsed_or("pace-ms", 0u64)?;

    let mut run = build_stream_run(args)?;
    if pace_ms > 0 {
        run.source = Box::new(PacedSource {
            inner: run.source,
            every: 1_024,
            pause: Duration::from_millis(pace_ms),
            seen: 0,
        });
    }

    let handle = run.engine.enable_serving(loom_core::ServeOptions {
        horizon_edges: serve_horizon,
        publish_every,
    });
    // Publish an initial (possibly empty) view so readers that connect
    // before the first cadence get real replies, not `ERR not ready` —
    // and, knowing the alphabet, not `ERR label out of range` either.
    run.engine.declare_labels(run.num_labels);
    run.engine.publish_view_now();

    let cell = Arc::clone(&handle.view);
    let base: LineHandler = Arc::new(move |line: &str| {
        let view = cell.load();
        loom_core::query::handle_request(view.as_deref(), line)
    });
    let handler: LineHandler = match &query_log {
        None => base,
        Some(path) => {
            let log = Mutex::new(BufWriter::new(File::create(path)?));
            let inner = Arc::clone(&base);
            Arc::new(move |line: &str| {
                let t = Instant::now();
                let reply = inner(line);
                let us = t.elapsed().as_micros();
                if let Ok(mut w) = log.lock() {
                    // Single-line requests and replies by protocol, so
                    // one TSV row per served request.
                    let _ = writeln!(w, "{us}\t{line}\t{reply}");
                    let _ = w.flush();
                }
                reply
            })
        }
    };

    let mut server = LineServer::start(
        listen.as_str(),
        LineServerConfig {
            max_connections: readers,
            ..server_defaults
        },
        handler,
        Arc::clone(&handle.metrics),
    )?;
    // Parseable: scripts bind to port 0 and scrape the real address.
    eprintln!("serve: listening on {}", server.local_addr());

    let result = execute_stream_run(run);

    if result.is_ok() && linger_ms > 0 {
        eprintln!("serve: ingest done, serving up to another {linger_ms}ms");
        // Linger is a cap, not a fixed sleep: once at least one client
        // has connected and every connection has drained, exit early so
        // a generous cap costs nothing when clients finish fast.
        let deadline = Instant::now() + Duration::from_millis(linger_ms);
        while Instant::now() < deadline {
            if server.connections_accepted() > 0 && server.active_connections() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    let stats = handle.metrics.stats();
    server.shutdown();
    eprintln!(
        "serve: {} served, {} refused, {} connections accepted, {} refused, p50 {}µs p99 {}µs",
        stats.served,
        stats.refused,
        server.connections_accepted(),
        server.connections_refused(),
        stats.p50_us,
        stats.p99_us,
    );
    result
}

/// How long `loom query` waits for one reply line before giving up.
const QUERY_REPLY_TIMEOUT_S: u64 = 10;

/// `loom query` — a tiny line-protocol client for `loom serve`:
/// connect, send the request list `--count` times, print each reply to
/// stdout, summarise ok/err on stderr. Tolerates the server closing
/// the connection mid-run (shutdown, `ERR busy` refusal) — whatever
/// was answered still counts. A server that keeps the connection open
/// and does not answer within [`QUERY_REPLY_TIMEOUT_S`] is an error.
fn query_cmd(args: &Args) -> Result<()> {
    use std::io::ErrorKind;
    use std::net::TcpStream;

    let connect = args.required("connect")?;
    let request = args.optional("request")?.unwrap_or_else(|| "STATS".into());
    let count = args.parsed_in("count", 1usize, 1..)?;

    let requests: Vec<&str> = request
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if requests.is_empty() {
        return Err("--request holds no request lines".into());
    }

    let stream = TcpStream::connect(&connect)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(QUERY_REPLY_TIMEOUT_S)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // Locked stdout with explicit error handling: a downstream
    // `| head` closing the pipe must end the run quietly, not panic.
    let mut out = std::io::stdout().lock();
    let (mut ok, mut err) = (0u64, 0u64);
    let mut closed = false;
    'outer: for _ in 0..count {
        for req in &requests {
            if writer.write_all(format!("{req}\n").as_bytes()).is_err() {
                closed = true;
                break 'outer;
            }
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(format!(
                        "query: no reply within {QUERY_REPLY_TIMEOUT_S}s to '{req}'"
                    )
                    .into());
                }
                Ok(0) | Err(_) => {
                    closed = true;
                    break 'outer;
                }
                Ok(_) => {
                    let line = line.trim_end();
                    if writeln!(out, "{line}").is_err() {
                        break 'outer;
                    }
                    if line.starts_with("OK") {
                        ok += 1;
                    } else {
                        err += 1;
                    }
                }
            }
        }
    }
    // Politeness; the server may already be gone.
    let _ = writer.write_all(b"QUIT\n");
    eprintln!(
        "query: {ok} ok, {err} err{}",
        if closed {
            " (connection closed by server)"
        } else {
            ""
        }
    );
    if ok == 0 && err == 0 {
        return Err("no replies received".into());
    }
    Ok(())
}

/// Source adapter for `loom serve --pace-ms`: sleep a fixed pause
/// every `every` edges, so a feed that would otherwise finish in
/// milliseconds (synthetic, local file) stays live long enough for
/// readers to overlap ingest. Pure timing — the edge sequence is
/// untouched, so output stays bit-identical to the unpaced run.
struct PacedSource {
    inner: Box<dyn loom_core::graph::EdgeSource>,
    every: u64,
    pause: std::time::Duration,
    seen: u64,
}

impl loom_core::graph::EdgeSource for PacedSource {
    fn next_edge(&mut self) -> Option<loom_core::graph::StreamEdge> {
        let e = self.inner.next_edge()?;
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            std::thread::sleep(self.pause);
        }
        Some(e)
    }

    fn extent(&self) -> loom_core::graph::SourceExtent {
        self.inner.extent()
    }

    fn error(&self) -> Option<&str> {
        self.inner.error()
    }

    fn num_labels(&self) -> usize {
        self.inner.num_labels()
    }
}

/// One human-and-awk-friendly snapshot line on stdout.
fn print_snapshot(out: &mut Stdout, s: &loom_core::engine::Snapshot) {
    // Arena occupancy, for partitioners that keep a match arena: live
    // vs resident cells and the compaction generation, so an operator
    // (or ci.sh) can watch reclamation keep residency flat on
    // unbounded feeds.
    let arena = match &s.arena {
        Some(a) => format!(
            "  arena {}/{} cells {}/{} matches gen {}",
            a.live_cells, a.total_cells, a.live_matches, a.total_matches, a.generation
        ),
        None => String::new(),
    };
    // Adjacency retention, same shape: retained vs resident entries
    // and the compaction generation, so the other stream-length-
    // proportional store is observable too.
    let adjacency = match &s.adjacency {
        Some(a) => format!(
            "  adjacency {}/{} entries gen {}",
            a.live_entries, a.resident_entries, a.generation
        ),
        None => String::new(),
    };
    // Recovery bookkeeping, present exactly when a WAL is attached —
    // WAL-off output stays byte-identical, and ci.sh verifies a WAL-on
    // run matches after stripping this one segment.
    let wal = match &s.recovery {
        Some(r) => format!(
            "  wal ckpt {} replayed {} journal {:.1}MB",
            r.checkpoint_seq,
            r.replayed_edges,
            r.journal_bytes as f64 / 1e6
        ),
        None => String::new(),
    };
    // Query-serving counters, present exactly when `loom serve`
    // enabled the read path — `loom stream` output stays byte-
    // identical, and ci.sh verifies a serve run matches a stream twin
    // after stripping this one segment (its numbers depend on reader
    // timing; nothing else on the line does).
    let serving = match &s.serving {
        Some(q) => format!(
            "  queries {} p50 {}µs p99 {}µs",
            q.served, q.p50_us, q.p99_us
        ),
        None => String::new(),
    };
    out.line(format_args!(
        "snapshot {:>4}  edges {:>10}  vertices {:>9}  capacity {:>12.1}  imbalance {:>5.1}%  cut {:>5.1}% ({}/{}){}{}{}{}",
        s.seq,
        s.edges,
        s.vertices,
        s.capacity,
        s.imbalance * 100.0,
        s.cut_fraction() * 100.0,
        s.cut_edges,
        s.resolved_edges,
        arena,
        adjacency,
        wal,
        serving,
    ));
}

/// Source adapter clamping out-of-alphabet labels to label 0 (see
/// `stream_cmd`: Loom's randomizer is sized upfront).
struct ClampLabels {
    inner: Box<dyn loom_core::graph::EdgeSource>,
    alphabet: usize,
}

impl loom_core::graph::EdgeSource for ClampLabels {
    fn next_edge(&mut self) -> Option<loom_core::graph::StreamEdge> {
        let mut e = self.inner.next_edge()?;
        if e.src_label.index() >= self.alphabet {
            e.src_label = loom_core::graph::Label(0);
        }
        if e.dst_label.index() >= self.alphabet {
            e.dst_label = loom_core::graph::Label(0);
        }
        Some(e)
    }

    fn extent(&self) -> loom_core::graph::SourceExtent {
        self.inner.extent()
    }

    fn error(&self) -> Option<&str> {
        // Not forwarding this would silently swallow a text feed's
        // fatal ingest error on every `--system loom` run.
        self.inner.error()
    }

    fn num_labels(&self) -> usize {
        self.alphabet
    }
}

/// Refuse an alphabet larger than [`MAX_LABELS`], naming the workload
/// that declared it.
fn check_label_count(num_labels: usize) -> Result<()> {
    if num_labels > MAX_LABELS {
        return Err(format!(
            "--workload declares {num_labels} labels; at most {MAX_LABELS} are supported"
        )
        .into());
    }
    Ok(())
}

/// Smallest alphabet size covering every label a workload mentions.
fn workload_max_label(w: &Workload) -> usize {
    w.queries()
        .iter()
        .flat_map(|(q, _)| q.labels().iter().map(|l| l.index() + 1))
        .max()
        .unwrap_or(1)
}

/// Write `vertex<TAB>partition` rows, one per assigned vertex, in id
/// order (the `partition` and `stream --out` format).
fn write_assignment_rows<W: Write>(a: &Assignment, w: &mut W) -> Result<()> {
    for (v, p) in a.iter() {
        writeln!(w, "{v}\t{p}")?;
    }
    Ok(())
}

fn evaluate(args: &Args) -> Result<()> {
    let graph = read_graph_file(&args.required("graph")?)?;
    let (workload, _) = read_workload_file(&args.required("workload")?)?;
    let assignment_path = args.required("assignment")?;
    // A cap of 0 enumerates nothing and would report a perfect 0.0.
    let limit = args.parsed_in("limit", 500_000usize, 1..)?;

    let assignment = read_assignment(
        BufReader::new(File::open(assignment_path)?),
        graph.num_vertices(),
    )?;
    let metrics = PartitionMetrics::measure(&graph, &assignment);
    let report = count_ipt(&graph, &assignment, &workload, limit);
    let mut out = Stdout::default();
    out.line(format_args!(
        "weighted ipt {:.1} over {} matches; cut {:.1}%, imbalance {:.1}%",
        report.weighted_ipt,
        report.total_matches(),
        metrics.cut_fraction * 100.0,
        metrics.imbalance * 100.0
    ));
    for q in &report.per_query {
        out.line(format_args!(
            "  {:<20} freq {:4.0}%  matches {:>8}  ipt {:>8}  traversals {:>9}",
            q.name,
            q.frequency * 100.0,
            q.matches,
            q.ipt,
            q.traversals
        ));
    }
    Ok(out.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_and_scale_parsing() {
        assert_eq!(parse_dataset("DBLP").unwrap(), DatasetKind::Dblp);
        assert_eq!(parse_dataset("lubm-4000").unwrap(), DatasetKind::Lubm4000);
        assert!(parse_dataset("nope").is_err());
        assert_eq!(parse_scale("tiny").unwrap(), Scale::Tiny);
        assert!(parse_scale("huge").is_err());
        assert_eq!(parse_order("bfs").unwrap(), StreamOrder::BreadthFirst);
        assert!(parse_order("sideways").is_err());
    }

    #[test]
    fn assignment_roundtrip() {
        use loom_core::graph::{Label, PartitionId, VertexId};
        let mut g = LabeledGraph::with_anonymous_labels(1);
        for _ in 0..4 {
            g.add_vertex(Label(0));
        }
        let mut s = loom_core::partition::PartitionState::prescient(2, 4, 2.0);
        s.assign(VertexId(0), PartitionId(0));
        s.assign(VertexId(1), PartitionId(1));
        s.assign(VertexId(3), PartitionId(1));
        let a = s.into_assignment();
        let mut buf = Vec::new();
        write_assignment_rows(&a, &mut buf).unwrap();
        let back = read_assignment(&buf[..], 4).unwrap();
        for v in g.vertices() {
            assert_eq!(back.partition_of(v), a.partition_of(v));
        }
    }

    #[test]
    fn assignment_rejects_bad_rows() {
        assert!(read_assignment("abc\t0\n".as_bytes(), 4).is_err());
        assert!(
            read_assignment("9\t0\n".as_bytes(), 4).is_err(),
            "vertex range"
        );
        assert!(
            read_assignment("1\n".as_bytes(), 4).is_err(),
            "missing partition"
        );
        // Hostile rows: each once panicked, aborted on a 32 GB
        // allocation, or wrapped onto the unassigned sentinel.
        for (rows, want) in [
            (
                "0\t0\n0\t1\n",
                "line 2: vertex 0 already assigned on line 1",
            ),
            ("0\t4294967295\n", "line 1: partition 4294967295"),
            ("0\t4000000000\n", "line 1: partition 4000000000"),
            ("0\t4\n", "line 1: partition 4"),
        ] {
            let err = read_assignment(rows.as_bytes(), 4).unwrap_err().to_string();
            assert!(err.contains(want), "{rows:?}: {err}");
        }
        assert!(read_assignment("0\t3\n1\t0\n".as_bytes(), 4).is_ok());
    }
}
