//! The five workloads: their inputs (made from `--seed`), their engine
//! wiring (as `loom stream` / `loom serve` wire it), and one ingest
//! pass of each drive — plain, WAL with a stop and a resume, serving
//! with live clients.

use crate::serve::{live_clients, Mix, ReadOut, CLIENTS};
use crate::trace::{Tracer, NO_PARENT};
use loom_core::graph::generators::provgen::{self, ProvGenConfig};
use loom_core::graph::{
    DatasetKind, EdgeSource, GraphStream, Label, LabeledGraph, StreamCursor, StreamEdge,
    StreamOrder, SyntheticEdgeSource, TextEdgeSource, Workload,
};
use loom_core::partition::{
    CapacityModel, FennelParams, FennelPartitioner, HashPartitioner, LdgPartitioner, LoomConfig,
    LoomPartitioner, StreamPartitioner,
};
use loom_core::wal::FileBackend;
use loom_core::{
    EngineConfig, OnlineEngine, RecoveryStats, ServeHandle, ServeOptions, Snapshot, System,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `loom stream`'s defaults: `--batch`, `--snapshot-every`, `--seed`
/// (the partitioner's own seed — configuration, not input, so it does
/// not follow the benchmark's `--seed`), `--checkpoint-every`.
pub const BATCH: usize = 256;
pub const SNAPSHOT_EVERY: usize = 5_000;
pub const SYSTEM_SEED: u64 = 42;
pub const CHECKPOINT_EVERY: u64 = 100_000;
/// `count_ipt`'s per-query match cap (the evaluation's).
pub const IPT_LIMIT: usize = 200_000;
const WAL_FINGERPRINT: &str = "loom-benchmark v1 synth-wal";
/// Restarts timed per WAL pass: one is ~0.15 s of a ~1 s pass, and one
/// sample per pass is too few in a run for a steady median.
pub const RESUMES: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// ProvGen at the target size, breadth-first, replayed from memory.
    ProvGenBfs,
    /// `SyntheticEdgeSource` rendered to an `.lg`-shaped text feed.
    SynthText,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    /// `loom stream`.
    Plain,
    /// `loom stream --wal`: ingest to the stop edge, flush, drop the
    /// engine, resume in a fresh one, ingest the rest.
    Wal,
    /// `loom serve` at the default cadence with clients on the port for
    /// the whole ingest.
    ServeLive,
    /// Set-up ingests behind `--publish-every 65536`; the timed section
    /// is reads against the final view.
    ServeThenRead,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub dataset: Dataset,
    pub drive: Drive,
    pub k: usize,
    pub window: usize,
    /// Fewest timed passes whatever `--seconds` says.
    pub min_passes: usize,
    pub params: &'static str,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "provgen-bfs",
        dataset: Dataset::ProvGenBfs,
        drive: Drive::Plain,
        k: 8,
        window: 10_000,
        min_passes: 3,
        params: "ProvGen ~1M target edges, BFS order, provgen workload, k 8, window 10000, \
                 threshold 0.4, StreamCursor",
    },
    Spec {
        name: "synth-text",
        dataset: Dataset::SynthText,
        drive: Drive::Plain,
        k: 4,
        window: 1_024,
        min_passes: 3,
        params: "SyntheticEdgeSource(seed, 4 labels) x 1M edges as a text feed, dblp workload, \
                 k 4, window 1024, TextEdgeSource<BufReader<File>>",
    },
    Spec {
        name: "synth-wal",
        dataset: Dataset::SynthText,
        drive: Drive::Wal,
        k: 4,
        window: 1_024,
        min_passes: 3,
        params: "synth-text + attach_wal(FileBackend, checkpoint every 100000), stop at edge \
                 950000, resume_from_wal, finish",
    },
    Spec {
        name: "synth-serve",
        dataset: Dataset::SynthText,
        drive: Drive::ServeLive,
        k: 4,
        window: 1_024,
        min_passes: 2,
        params: "synth-text + enable_serving(publish every 1024, horizon 65536) behind a \
                 loopback LineServer, 2 closed-loop clients for the whole ingest",
    },
    Spec {
        name: "serve-read",
        dataset: Dataset::SynthText,
        drive: Drive::ServeThenRead,
        k: 4,
        window: 1_024,
        min_passes: 1,
        params: "set-up ingests synth-text with publish every 65536 and finishes; 2 closed-loop \
                 clients then read the final view, no ingest",
    },
];

pub fn spec_named(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// How big a run is. `--smoke` shrinks everything so that the whole
/// suite finishes in seconds and only the plumbing is exercised.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub edges: usize,
    pub setup_reps: usize,
    /// Length of the short read section of the workloads whose timed
    /// section is ingest.
    pub read_probe_s: f64,
    pub warm_prefix: u64,
    pub rtt_samples: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        edges: 1_000_000,
        setup_reps: 5,
        read_probe_s: 5.0,
        warm_prefix: 200_000,
        rtt_samples: 40,
    };
    pub const SMOKE: Sizes = Sizes {
        edges: 20_000,
        setup_reps: 1,
        read_probe_s: 0.15,
        warm_prefix: 5_000,
        rtt_samples: 3,
    };
}

/// One workload's generated input.
pub struct Input {
    /// Edges in the stream.
    pub n: u64,
    /// The edge a stop/restart happens at: 95% of the stream, rounded
    /// down to the snapshot cadence so an untraced pass can see it from
    /// the snapshot callback.
    pub stop: u64,
    /// Vertex ids run `0..num_vertices`.
    pub num_vertices: usize,
    /// Alphabet Loom's randomizer is sized to (`loom stream` takes it
    /// from the workload file's header, at least 4).
    pub num_labels: usize,
    pub workload: Workload,
    stream: Option<GraphStream>,
    synth_edges: Vec<StreamEdge>,
    pub feed: Option<PathBuf>,
    graph: Option<LabeledGraph>,
    pub generate_s: f64,
    pub stream_order_s: f64,
}

impl Input {
    pub fn build(dataset: Dataset, seed: u64, edges: usize, dir: &Path) -> Input {
        match dataset {
            Dataset::ProvGenBfs => {
                let t = Instant::now();
                let graph = provgen::generate(&ProvGenConfig::with_target_edges(edges), seed);
                let generate_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let stream = GraphStream::from_graph(&graph, StreamOrder::BreadthFirst, seed);
                let stream_order_s = t.elapsed().as_secs_f64();
                let n = stream.len() as u64;
                Input {
                    n,
                    stop: stop_edge(n),
                    num_vertices: graph.num_vertices(),
                    num_labels: stream.num_labels().max(4),
                    workload: loom_core::query::workload_for(DatasetKind::ProvGen),
                    stream: Some(stream),
                    synth_edges: Vec::new(),
                    feed: None,
                    graph: Some(graph),
                    generate_s,
                    stream_order_s,
                }
            }
            Dataset::SynthText => {
                let t = Instant::now();
                let mut synth_edges = Vec::with_capacity(edges);
                SyntheticEdgeSource::new(seed, 4).next_batch_into(&mut synth_edges, edges);
                let generate_s = t.elapsed().as_secs_f64();
                let num_vertices = synth_edges
                    .iter()
                    .map(|e| e.src.index().max(e.dst.index()) + 1)
                    .max()
                    .unwrap_or(0);
                let feed = dir.join("feed.lg");
                render_feed(&feed, &synth_edges, num_vertices).expect("write the text feed");
                let n = synth_edges.len() as u64;
                Input {
                    n,
                    stop: stop_edge(n),
                    num_vertices,
                    num_labels: DatasetKind::Dblp.num_labels(),
                    workload: loom_core::query::workload_for(DatasetKind::Dblp),
                    stream: None,
                    synth_edges,
                    feed: Some(feed),
                    graph: None,
                    generate_s,
                    stream_order_s: 0.0,
                }
            }
        }
    }

    pub fn edges(&self) -> &[StreamEdge] {
        match &self.stream {
            Some(s) => s.edges(),
            None => &self.synth_edges,
        }
    }

    pub fn stream(&self) -> Option<&GraphStream> {
        self.stream.as_ref()
    }

    pub fn source(&self) -> Source<'_> {
        match (&self.stream, &self.feed) {
            (Some(s), _) => Source::Cursor(s.source()),
            (None, Some(path)) => Source::Text(TextEdgeSource::new(BufReader::new(
                File::open(path).expect("open the text feed"),
            ))),
            (None, None) => unreachable!("an input has a stream or a feed"),
        }
    }

    /// The whole graph, for `count_ipt`. ProvGen's comes from the
    /// generator; the synthetic one is built from the edges on first
    /// use — after peak memory has been read, so it does not count
    /// against the ingest.
    pub fn graph(&mut self) -> &LabeledGraph {
        if self.graph.is_none() {
            let mut g = LabeledGraph::with_anonymous_labels(self.num_labels);
            g.reserve(self.num_vertices, self.synth_edges.len());
            for _ in 0..self.num_vertices {
                g.add_vertex(Label(0));
            }
            for e in &self.synth_edges {
                g.set_label(e.src, e.src_label);
                g.set_label(e.dst, e.dst_label);
                g.add_edge_checked(e.src, e.dst);
            }
            self.graph = Some(g);
        }
        self.graph.as_ref().expect("built above")
    }

    pub fn mix(&self, seed: u64) -> Mix {
        Mix {
            seed,
            num_vertices: self.num_vertices as u32,
        }
    }
}

fn stop_edge(n: u64) -> u64 {
    let cadence = SNAPSHOT_EVERY as u64;
    (n * 95 / 100 / cadence * cadence).max(cadence.min(n))
}

/// The feed `loom generate` would write: a `labels` line, every `v`
/// record, then the `e` records.
pub fn render_feed(path: &Path, edges: &[StreamEdge], num_vertices: usize) -> std::io::Result<()> {
    let mut labels = vec![0u16; num_vertices];
    for e in edges {
        labels[e.src.index()] = e.src_label.0;
        labels[e.dst.index()] = e.dst_label.0;
    }
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "labels l0 l1 l2 l3")?;
    for l in &labels {
        writeln!(w, "v {l}")?;
    }
    for e in edges {
        writeln!(w, "e {} {}", e.src.0, e.dst.0)?;
    }
    w.flush()
}

pub enum Source<'a> {
    Cursor(StreamCursor<'a>),
    Text(TextEdgeSource<BufReader<File>>),
}

impl Source<'_> {
    pub fn as_dyn(&mut self) -> &mut dyn EdgeSource {
        match self {
            Source::Cursor(c) => c,
            Source::Text(t) => t,
        }
    }

    /// Lines the feed dropped, plus edges missing from `expect`.
    pub fn rejected(&self, expect: u64) -> u64 {
        match self {
            Source::Cursor(_) => 0,
            Source::Text(t) => {
                t.skipped() as u64
                    + expect.abs_diff(t.emitted() as u64)
                    + t.error().is_some() as u64
            }
        }
    }
}

pub fn loom_partitioner(spec: &Spec, input: &Input) -> LoomPartitioner {
    let config = LoomConfig {
        window_size: spec.window,
        seed: SYSTEM_SEED,
        capacity: CapacityModel::Adaptive,
        ..LoomConfig::evaluation_defaults(spec.k)
    };
    LoomPartitioner::new(&config, &input.workload, input.num_labels)
}

pub fn partitioner(system: System, spec: &Spec, input: &Input) -> Box<dyn StreamPartitioner> {
    match system {
        System::Hash => Box::new(HashPartitioner::new(spec.k, SYSTEM_SEED)),
        System::Ldg => Box::new(LdgPartitioner::new(spec.k, CapacityModel::Adaptive)),
        System::Fennel => Box::new(FennelPartitioner::new(
            spec.k,
            CapacityModel::Adaptive,
            FennelParams::default(),
        )),
        System::Loom => Box::new(loom_partitioner(spec, input)),
    }
}

pub fn engine(p: Box<dyn StreamPartitioner>) -> OnlineEngine {
    OnlineEngine::new(
        p,
        EngineConfig {
            snapshot_every: SNAPSHOT_EVERY,
            batch_size: BATCH,
            ..EngineConfig::default()
        },
    )
}

/// How one pass drives the engine.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    Plain,
    Wal,
    /// Serving on; `clients` puts the loopback server and two clients
    /// beside the ingest.
    Serve {
        publish_every: u64,
        clients: bool,
    },
}

impl Mode {
    /// The mode of a workload's own passes.
    pub fn of(drive: Drive) -> Mode {
        let d = ServeOptions::default();
        match drive {
            Drive::Plain => Mode::Plain,
            Drive::Wal => Mode::Wal,
            Drive::ServeLive => Mode::Serve {
                publish_every: d.publish_every,
                clients: true,
            },
            Drive::ServeThenRead => Mode::Serve {
                publish_every: d.horizon_edges as u64,
                clients: false,
            },
        }
    }
}

pub struct WalOut {
    pub dir_bytes: u64,
    pub checkpoint_bytes_last: u64,
    /// The first leg's bookkeeping (checkpoints written while
    /// ingesting) and the resumed engine's (edges replayed).
    pub first_leg: RecoveryStats,
    pub resumed: RecoveryStats,
}

pub struct Pass {
    /// First edge pulled → `finish()` returns. On a WAL pass the two
    /// legs plus the recovery between them.
    pub total_s: f64,
    /// First edge pulled → the engine holds the stop edge (on a WAL
    /// pass, with the journal flushed).
    pub stop_s: f64,
    /// What a restart at the stop edge costs, one sample per restart:
    /// `resume_from_wal` on a WAL pass ([`RESUMES`] fresh engines, the
    /// last of which goes on), re-ingesting from edge 0 (`stop_s`)
    /// without a WAL.
    pub recover_s: Vec<f64>,
    pub fin: Snapshot,
    pub engine: OnlineEngine,
    /// Feed lines dropped or edges missing.
    pub rejected: u64,
    pub wal: Option<WalOut>,
    pub handle: Option<ServeHandle>,
    pub reads: Option<ReadOut>,
}

/// What the traced pass records beside its spans.
pub struct PassTrace<'t> {
    pub tracer: &'t mut Tracer,
    pub pass: u32,
    /// The pass span, opened at the first layer call so that it covers
    /// what an untraced pass times and not the engine's construction.
    root: Option<u32>,
    /// The engine's edge count after every `ingest_batch` call (the
    /// calls' durations are their spans).
    pub batch_end_edge: Vec<u64>,
    /// Edges pulled minus the newest view's `edges`, at every pull.
    pub view_lag: Vec<u64>,
}

impl<'t> PassTrace<'t> {
    pub fn new(tracer: &'t mut Tracer, pass: u32) -> PassTrace<'t> {
        PassTrace {
            tracer,
            pass,
            root: None,
            batch_end_edge: Vec::new(),
            view_lag: Vec::new(),
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let root = match self.root {
            Some(root) => root,
            None => *self
                .root
                .insert(self.tracer.begin("pass", NO_PARENT, self.pass)),
        };
        let id = self.tracer.begin(name, root, self.pass);
        let out = f();
        self.tracer.end(id);
        out
    }

    /// Close the pass span; its duration in seconds.
    pub fn close(&mut self) -> f64 {
        self.root
            .map_or(0.0, |root| self.tracer.end(root) as f64 / 1e9)
    }
}

/// Pull `src` into `eng` until `until` edges (or the end). Untraced
/// this is `OnlineEngine::run`, exactly what `loom stream` calls;
/// traced it is the same loop unrolled — `next_batch_into` then
/// `ingest_batch` per batch — with a span around each call.
fn pull(
    eng: &mut OnlineEngine,
    src: &mut dyn EdgeSource,
    until: Option<u64>,
    stop: u64,
    stop_at: &mut Option<Instant>,
    lag_of: Option<&ServeHandle>,
    trace: Option<&mut PassTrace>,
) {
    let mut on_snapshot = |s: &Snapshot| {
        if s.edges == stop {
            *stop_at = Some(Instant::now());
        }
    };
    let Some(tr) = trace else {
        eng.run(src, until, on_snapshot).expect("ingest failed");
        return;
    };
    let mut buf: Vec<StreamEdge> = Vec::with_capacity(BATCH);
    loop {
        let have = eng.edges_ingested();
        let want = match until {
            Some(m) if have >= m => break,
            Some(m) => (m - have).min(BATCH as u64) as usize,
            None => BATCH,
        };
        buf.clear();
        let n = tr.span("loom-graph.next_batch_into", || {
            src.next_batch_into(&mut buf, want)
        });
        if n == 0 {
            break;
        }
        if let Some(view) = lag_of.and_then(|h| h.view.load()) {
            tr.view_lag
                .push((have + n as u64).saturating_sub(view.edges));
        }
        tr.span("loom-core.ingest_batch", || {
            eng.ingest_batch(&buf, &mut on_snapshot)
                .expect("ingest failed")
        });
        tr.batch_end_edge.push(eng.edges_ingested());
    }
}

fn finish(eng: &mut OnlineEngine, trace: Option<&mut PassTrace>) -> Snapshot {
    match trace {
        Some(tr) => tr.span("loom-core.finish", || eng.finish()),
        None => eng.finish(),
    }
}

/// What every pass of a run shares: the workload, its input, the
/// scratch directory (a WAL pass keeps its directory there and removes
/// it before returning) and the clients' request mix.
#[derive(Clone, Copy)]
pub struct Bench<'a> {
    pub spec: &'a Spec,
    pub input: &'a Input,
    pub dir: &'a Path,
    pub mix: Mix,
}

impl Bench<'_> {
    /// One pass of `system` over the first `limit` edges (all of them
    /// when `None`) on a fresh engine.
    pub fn pass(
        &self,
        system: System,
        mode: Mode,
        limit: Option<u64>,
        mut trace: Option<&mut PassTrace>,
    ) -> Pass {
        let Bench {
            spec,
            input,
            dir,
            mix,
        } = *self;
        let n = limit.map_or(input.n, |l| l.min(input.n));
        let stop = input.stop.min(n);
        let mut src = input.source();
        let mut eng = engine(partitioner(system, spec, input));
        let mut stop_at = None;
        match mode {
            Mode::Plain => {
                let t0 = Instant::now();
                pull(
                    &mut eng,
                    src.as_dyn(),
                    limit,
                    stop,
                    &mut stop_at,
                    None,
                    trace.as_deref_mut(),
                );
                let fin = finish(&mut eng, trace);
                let total_s = t0.elapsed().as_secs_f64();
                let stop_s = stop_at.map_or(total_s, |t| (t - t0).as_secs_f64());
                Pass {
                    total_s,
                    stop_s,
                    recover_s: vec![stop_s],
                    fin,
                    rejected: src.rejected(n),
                    engine: eng,
                    wal: None,
                    handle: None,
                    reads: None,
                }
            }
            Mode::Wal => {
                let wal_dir = dir.join("wal");
                let _ = std::fs::remove_dir_all(&wal_dir);
                let backend = || Box::new(FileBackend::new(&wal_dir).expect("create the WAL dir"));
                eng.attach_wal(backend(), CHECKPOINT_EVERY, WAL_FINGERPRINT)
                    .expect("attach_wal");
                let t0 = Instant::now();
                pull(
                    &mut eng,
                    src.as_dyn(),
                    Some(stop),
                    stop,
                    &mut stop_at,
                    None,
                    trace.as_deref_mut(),
                );
                match trace.as_deref_mut() {
                    Some(tr) => tr.span("loom-core.flush_wal", || eng.flush_wal()),
                    None => eng.flush_wal(),
                }
                .expect("flush_wal");
                let stop_s = t0.elapsed().as_secs_f64();
                let first_leg = eng.recovery_stats().expect("a WAL is attached");
                // A stop, not an end of stream: no finish(), the window
                // stays undrained and the resumed engine re-derives it.
                drop(eng);

                // The restart, RESUMES times over on a fresh engine each:
                // a resume from a clean stop appends nothing, so every one
                // reads the same directory. The last engine goes on.
                let resume = |eng: &mut OnlineEngine| {
                    eng.resume_from_wal(backend(), CHECKPOINT_EVERY, WAL_FINGERPRINT, |_| {})
                        .expect("resume_from_wal")
                };
                let mut recover_s = Vec::with_capacity(RESUMES);
                let (mut eng, durable) = loop {
                    let mut eng = engine(partitioner(system, spec, input));
                    let t1 = Instant::now();
                    let durable = match trace.as_deref_mut() {
                        Some(tr) => tr.span("loom-core.resume_from_wal", || resume(&mut eng)),
                        None => resume(&mut eng),
                    };
                    recover_s.push(t1.elapsed().as_secs_f64());
                    if recover_s.len() == RESUMES || trace.is_some() {
                        break (eng, durable);
                    }
                };
                let resumed = eng.recovery_stats().expect("a WAL is attached");

                // A restarted process reopens the feed and skips what the
                // WAL already holds.
                let mut src = input.source();
                let t2 = Instant::now();
                let skipped = match trace.as_deref_mut() {
                    Some(tr) => {
                        tr.span("loom-graph.skip_edges", || src.as_dyn().skip_edges(durable))
                    }
                    None => src.as_dyn().skip_edges(durable),
                };
                pull(
                    &mut eng,
                    src.as_dyn(),
                    limit,
                    stop,
                    &mut stop_at,
                    None,
                    trace.as_deref_mut(),
                );
                let fin = finish(&mut eng, trace);
                let total_s = stop_s + recover_s[recover_s.len() - 1] + t2.elapsed().as_secs_f64();
                let (dir_bytes, checkpoint_bytes_last) = wal_dir_bytes(&wal_dir);
                let _ = std::fs::remove_dir_all(&wal_dir);
                Pass {
                    total_s,
                    stop_s,
                    recover_s,
                    fin,
                    rejected: src.rejected(n) + durable.abs_diff(stop) + skipped.abs_diff(durable),
                    engine: eng,
                    wal: Some(WalOut {
                        dir_bytes,
                        checkpoint_bytes_last,
                        first_leg,
                        resumed,
                    }),
                    handle: None,
                    reads: None,
                }
            }
            Mode::Serve {
                publish_every,
                clients,
            } => {
                let handle = eng.enable_serving(ServeOptions {
                    publish_every,
                    ..ServeOptions::default()
                });
                // As `loom serve` does: readers that connect before the
                // first cadence get real replies, not `ERR not ready`.
                eng.publish_view_now();
                let sinks = trace.as_deref().filter(|_| clients).map(|tr| {
                    (1..=CLIENTS as u32)
                        .map(|i| tr.tracer.for_thread(i))
                        .collect::<Vec<_>>()
                });
                let (t0, fin, total_s, mut reads) = {
                    let mut ingest = || {
                        let t0 = Instant::now();
                        pull(
                            &mut eng,
                            src.as_dyn(),
                            limit,
                            stop,
                            &mut stop_at,
                            Some(&handle),
                            trace.as_deref_mut(),
                        );
                        let fin = finish(&mut eng, trace.as_deref_mut());
                        (t0, fin, t0.elapsed().as_secs_f64())
                    };
                    if clients {
                        let ((t0, fin, total_s), reads) = live_clients(&handle, mix, sinks, ingest);
                        (t0, fin, total_s, Some(reads))
                    } else {
                        let (t0, fin, total_s) = ingest();
                        (t0, fin, total_s, None)
                    }
                };
                if let (Some(tr), Some(reads)) = (trace, reads.as_mut()) {
                    for sink in reads.client_spans.drain(..) {
                        tr.tracer.merge(sink);
                    }
                }
                let stop_s = stop_at.map_or(total_s, |t| (t - t0).as_secs_f64());
                Pass {
                    total_s,
                    stop_s,
                    recover_s: vec![stop_s],
                    fin,
                    rejected: src.rejected(n),
                    engine: eng,
                    wal: None,
                    handle: Some(handle),
                    reads,
                }
            }
        }
    }
}

/// Bytes in the WAL directory, and in its newest checkpoint.
fn wal_dir_bytes(dir: &Path) -> (u64, u64) {
    let mut total = 0;
    let mut newest: Option<(String, u64)> = None;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let len = entry.metadata().map_or(0, |m| m.len());
        total += len;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("ckpt-") && newest.as_ref().is_none_or(|(n, _)| name > *n) {
            newest = Some((name, len));
        }
    }
    (total, newest.map_or(0, |(_, len)| len))
}

/// 64-bit FNV-1a of the engine's `state_digest()`, with its length:
/// what two passes must share to count as bit-identical.
pub fn digest(eng: &OnlineEngine) -> (usize, u64) {
    let bytes = eng.state_digest().expect("state_digest");
    let mut h = 0xcbf29ce484222325u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(0x100000001b3);
    }
    (bytes.len(), h)
}
