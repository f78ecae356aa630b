//! The traced run: one pass of the workload with a span around every
//! call into a layer, plus standalone replays of each crate's public
//! API on the workload's own input — everything timed from outside,
//! nothing inside the program is touched.
//!
//! Layers are the workspace crates. `loom-cli` is a thin binary over
//! them and is not covered: no process is spawned, no stdout formatted.

use crate::metrics::Metrics;
use crate::run::{Checks, Outcome, Reference, WorkDir};
use crate::serve::{line_rtt_us, read_section, Kind, Mix, CLIENTS};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{
    digest, engine, loom_partitioner, partitioner, render_feed, Bench, Drive, Input, Mode,
    PassTrace, Sizes, Spec, WalOut, BATCH, CHECKPOINT_EVERY, IPT_LIMIT,
};
use loom_core::graph::{
    EdgeSource, GraphStream, StreamEdge, StreamOrder, SyntheticEdgeSource, TextEdgeSource,
};
use loom_core::matcher::{EdgeFate, MotifMatcher, SlidingWindow};
use loom_core::motif::{LabelRandomizer, TpsTrie, DEFAULT_PRIME};
use loom_core::partition::{Assignment, LoomConfig, StreamPartitioner};
use loom_core::query::{count_ipt, handle_request, ViewGraph};
use loom_core::runtime::{EpochCell, WorkerPool};
use loom_core::wal::{
    scan_journal, write_checkpoint, ByteWriter, Checkpoint, FileBackend, JournalWriter,
    JOURNAL_FILE,
};
use loom_core::{ServeHandle, ServeOptions, Snapshot, System};
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

const PLAIN_PASSES: usize = 3;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median seconds of `reps` calls.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t)
        })
        .collect();
    median(&samples)
}

/// Drive a partitioner alone — no engine — over `edges` in batches of
/// 256, as the engine would hand them over. `before_finish` sees the
/// partitioner with its window still full.
fn replay<P: StreamPartitioner + ?Sized>(
    p: &mut P,
    edges: &[StreamEdge],
    before_finish: impl FnOnce(&P),
) -> f64 {
    let t = Instant::now();
    for chunk in edges.chunks(BATCH) {
        p.try_on_batch(chunk).expect("partitioner replay failed");
    }
    before_finish(p);
    p.finish();
    secs(t)
}

/// What one traced pass leaves behind, its engine already dropped.
struct Traced {
    total_s: f64,
    stop_s: f64,
    wall_s: f64,
    fin: Snapshot,
    wal: Option<WalOut>,
    views_published: u64,
    assignment: Assignment,
    batch_ns: Vec<u64>,
    batch_end_edge: Vec<u64>,
    view_lag: Vec<u64>,
}

fn traced_pass(
    bench: &Bench,
    mode: Mode,
    pass: u32,
    tracer: &mut Tracer,
    checks: &mut Checks,
    reference: &Reference,
) -> Traced {
    let n = bench.input.n;
    let mut pt = PassTrace::new(tracer, pass);
    let p = bench.pass(System::Loom, mode, None, Some(&mut pt));
    let wall_s = pt.close();
    let PassTrace {
        batch_end_edge,
        view_lag,
        ..
    } = pt;
    let batch_ns = tracer
        .spans
        .iter()
        .filter(|s| s.pass == pass && s.name == "loom-core.ingest_batch")
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    checks.pass("traced pass", &p, n, reference);
    if let Some(reads) = &p.reads {
        checks.reads("clients beside the traced ingest", reads, n);
    }
    Traced {
        total_s: p.total_s,
        stop_s: p.stop_s,
        wall_s,
        fin: p.fin,
        wal: p.wal,
        views_published: p
            .handle
            .as_ref()
            .and_then(|h| h.view.load())
            .map_or(0, |v| v.epoch),
        // Keep the assignment, free the engine: a second resident
        // engine would make every later pass fault fresh pages in.
        assignment: p.engine.into_assignment(),
        batch_ns,
        batch_end_edge,
        view_lag,
    }
}

pub fn run_traced(spec: &Spec, seed: u64, sizes: &Sizes) -> Outcome {
    let work = WorkDir::create(spec.name);
    let dir = work.0.as_path();
    let own_mode = Mode::of(spec.drive);
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let mut input = Input::build(spec.dataset, seed, sizes.edges, dir);
    let (n, stop_edge, mix) = (input.n, input.stop, input.mix(seed));
    let bench = Bench {
        spec,
        input: &input,
        dir,
        mix,
    };

    // Plain untraced passes first: the reference every other pass must
    // be bit-identical to, and the base of the WAL and serve taxes.
    let mut plain_stop_s = Vec::new();
    let mut reference = None;
    for _ in 0..PLAIN_PASSES {
        let p = bench.pass(System::Loom, Mode::Plain, None, None);
        let r = reference.get_or_insert_with(|| Reference::of(&p));
        checks.pass("plain pass", &p, n, r);
        plain_stop_s.push(p.stop_s);
    }
    let reference = reference.expect("a plain pass ran");

    // The workload's own pass, untraced then traced, in pairs: the
    // tracing overhead is the median over the pairs, and the last
    // traced pass is the one the ledger reads. The WAL and serving
    // layers are then traced on this input too where the workload's own
    // pass does not run them, so that every layer has its numbers on
    // every input.
    let mut tracer = Tracer::new();
    let mut traced = |mode: Mode, pass: u32, checks: &mut Checks| {
        traced_pass(&bench, mode, pass, &mut tracer, checks, &reference)
    };
    let pairs = if spec.drive == Drive::ServeLive { 1 } else { 3 };
    let mut overhead = Vec::new();
    let mut own = None;
    for pass in 1..=pairs {
        drop(own.take());
        let untraced = bench.pass(System::Loom, own_mode, None, None);
        checks.pass("untraced pass", &untraced, n, &reference);
        let untraced_s = untraced.total_s;
        drop(untraced);
        let t = traced(own_mode, pass, &mut checks);
        overhead.push((t.total_s / untraced_s - 1.0) * 100.0);
        own = Some(t);
    }
    let own = own.expect("a traced pass ran");
    let wal_probe = (spec.drive != Drive::Wal).then(|| traced(Mode::Wal, pairs + 1, &mut checks));
    let serve_probe = matches!(spec.drive, Drive::Plain | Drive::Wal)
        .then(|| traced(Mode::of(Drive::ServeThenRead), pairs + 2, &mut checks));
    let wal_pass = wal_probe.as_ref().unwrap_or(&own);
    let serve_pass = serve_probe.as_ref().unwrap_or(&own);
    m.set("trace_overhead_pct", median(&overhead));

    // Self times: every span sits under the pass span, so they add up
    // to the pass's wall time; anything else means spans overlap.
    let self_times = tracer.self_times(pairs);
    let self_sum_s = self_times.values().map(|v| v.2).sum::<u64>() as f64 / 1e9;
    checks.check((self_sum_s / own.wall_s - 1.0).abs() < 0.10, || {
        format!(
            "self times sum to {self_sum_s:.3}s of a {:.3}s pass",
            own.wall_s
        )
    });
    eprintln!("# trace {}: {:.3}s traced pass", spec.name, own.wall_s);
    for (name, (calls, total, own)) in &self_times {
        eprintln!(
            "#   {name:<32} calls {calls:>6}  total {:>9.3} ms  self {:>9.3} ms",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }

    // loom-core, from the workload's traced pass: what one ingest_batch
    // call costs its caller, stalls included.
    let batch_total_ns: u64 = own.batch_ns.iter().sum();
    let mut batch_ns = own.batch_ns.clone();
    batch_ns.sort_unstable();
    m.set(
        "loom-core.ingest_batch_p50_us",
        percentile(&batch_ns, 50.0) as f64 / 1e3,
    );
    m.set(
        "loom-core.ingest_batch_p99_us",
        percentile(&batch_ns, 99.0) as f64 / 1e3,
    );
    m.set(
        "loom-core.ingest_batch_max_ms",
        batch_ns.last().copied().unwrap_or(0) as f64 / 1e6,
    );
    m.set("loom-partition.imbalance_pct", own.fin.imbalance * 100.0);

    // From the WAL pass. Seen from outside, a checkpoint is the extra
    // time of the batch that crosses its cadence.
    let typical_ns = {
        let mut sorted = wal_pass.batch_ns.clone();
        sorted.sort_unstable();
        percentile(&sorted, 50.0)
    };
    let mut prev = 0;
    let mut checkpoint_ms = Vec::new();
    for (ns, &end) in wal_pass.batch_ns.iter().zip(&wal_pass.batch_end_edge) {
        if end / CHECKPOINT_EVERY > prev / CHECKPOINT_EVERY {
            checkpoint_ms.push(ns.saturating_sub(typical_ns) as f64 / 1e6);
        }
        prev = end;
    }
    m.set("loom-core.checkpoint_ms_p50", median(&checkpoint_ms));
    m.set(
        "loom-core.checkpoint_ms_max",
        checkpoint_ms.iter().copied().fold(0.0, f64::max),
    );
    let wal = wal_pass.wal.as_ref().expect("the WAL pass kept a WAL");
    m.set(
        "loom-core.checkpoints_written",
        (wal.first_leg.checkpoints_written + wal.resumed.checkpoints_written) as f64,
    );
    m.set(
        "loom-core.checkpoint_bytes_last",
        wal.checkpoint_bytes_last as f64,
    );
    m.set(
        "loom-core.replayed_edges",
        wal.resumed.replayed_edges as f64,
    );
    m.set(
        "loom-wal.wal_bytes_per_edge",
        wal.dir_bytes as f64 / n as f64,
    );
    // The taxes: the pass minus the plain pass, per edge up to the stop
    // edge (where the WAL pass's first leg ends).
    let tax = |pass: &Traced| (pass.stop_s - median(&plain_stop_s)) * 1e9 / stop_edge as f64;
    m.set("loom-core.wal_tax_ns_per_edge", tax(wal_pass));

    // From the serving pass.
    m.set("loom-core.serve_tax_ns_per_edge", tax(serve_pass));
    m.set(
        "loom-core.views_published",
        serve_pass.views_published as f64,
    );
    let mut view_lag = serve_pass.view_lag.clone();
    view_lag.sort_unstable();
    m.set(
        "loom-core.view_lag_p99_edges",
        percentile(&view_lag, 99.0) as f64,
    );
    drop((wal_probe, serve_probe));

    // Standalone replays, layer by layer, on the same input.
    motif_layer(&mut m, spec, &input);
    matcher_layer(&mut m, spec, &input);
    let (loom_alone_s, state_bytes) =
        partition_layer(&mut m, spec, &input, &mut checks, &reference);
    m.set(
        "loom-core.engine_overhead_ns_per_edge",
        (batch_total_ns as f64 - loom_alone_s * 1e9) / n as f64,
    );
    wal_layer(&mut m, &input, dir, state_bytes);
    let handle = publish_probe(&mut m, spec, &input, &mut checks, &reference);
    runtime_layer(&mut m, &handle, mix, sizes, &mut tracer, &mut checks, n);
    query_layer(&mut m, spec, &mut input, &handle, mix, &own.assignment);
    drop(handle);
    graph_layer(&mut m, &mut input, seed, dir, &mut checks);

    let trace_path = WorkDir::root().join(format!("trace-{}.jsonl", spec.name));
    tracer
        .write_jsonl(&trace_path)
        .expect("write the span file");
    eprintln!(
        "# trace {}: {} spans in {}",
        spec.name,
        tracer.spans.len(),
        trace_path.display()
    );

    Outcome {
        metrics: m,
        detail: Vec::new(),
        checks,
    }
}

/// loom-graph: each source alone, pulled in batches with nobody
/// consuming the edges; the generators and the BFS ordering alone.
/// Whatever the workload reads from, all three sources are timed over
/// its edges: the text feed is rendered for a ProvGen input, and the
/// cursor and the ordering run over the synthetic graph.
fn graph_layer(m: &mut Metrics, input: &mut Input, seed: u64, dir: &Path, checks: &mut Checks) {
    let n = input.n;
    let drain = |src: &mut dyn EdgeSource| {
        let mut buf = Vec::with_capacity(BATCH);
        let t = Instant::now();
        let mut got = 0u64;
        loop {
            buf.clear();
            let k = src.next_batch_into(&mut buf, BATCH);
            if k == 0 {
                break;
            }
            got += k as u64;
            black_box(&buf);
        }
        (secs(t) * 1e9 / got.max(1) as f64, got)
    };

    let feed = input.feed.clone().unwrap_or_else(|| {
        let path = dir.join("feed.lg");
        render_feed(&path, input.edges(), input.num_vertices).expect("write the text feed");
        path
    });
    let mut text = TextEdgeSource::new(BufReader::new(
        File::open(&feed).expect("open the text feed"),
    ));
    let (text_ns, got) = drain(&mut text);
    let rejected = text.skipped() as u64 + got.abs_diff(n) + text.error().is_some() as u64;
    checks.ops(n, rejected, || {
        "text source alone: edges missing or lines rejected".to_string()
    });
    m.set("loom-graph.text_parse_ns_per_edge", text_ns);
    m.set("loom-graph.text_skipped_lines", text.skipped() as f64);

    let mut buf = Vec::with_capacity(n as usize);
    let t = Instant::now();
    SyntheticEdgeSource::new(seed, 4).next_batch_into(&mut buf, n as usize);
    black_box(&buf);
    m.set("loom-graph.synthetic_ns_per_edge", secs(t) * 1e9 / n as f64);
    drop(buf);

    m.set("loom-graph.generate_s", input.generate_s);
    let (order_s, cursor_ns) = match input.stream() {
        Some(stream) => (input.stream_order_s, drain(&mut stream.source()).0),
        None => {
            let t = Instant::now();
            let stream = GraphStream::from_graph(input.graph(), StreamOrder::BreadthFirst, seed);
            (secs(t), drain(&mut stream.source()).0)
        }
    };
    m.set("loom-graph.stream_order_s", order_s);
    m.set("loom-graph.cursor_ns_per_edge", cursor_ns);
}

fn randomizer(input: &Input) -> LabelRandomizer {
    LabelRandomizer::new(
        input.num_labels,
        DEFAULT_PRIME,
        crate::workload::SYSTEM_SEED,
    )
}

/// loom-motif: building the TPSTry++ and mining its motifs — set-up
/// work only.
fn motif_layer(m: &mut Metrics, spec: &Spec, input: &Input) {
    let threshold = LoomConfig::evaluation_defaults(spec.k).support_threshold;
    let build_s = timed(20, || {
        let rand = randomizer(input);
        black_box(TpsTrie::build(&input.workload, &rand).motifs(threshold));
    });
    let trie = TpsTrie::build(&input.workload, &randomizer(input));
    m.set("loom-motif.trie_build_us", build_s * 1e6);
    m.set("loom-motif.trie_nodes", trie.len() as f64);
    m.set(
        "loom-motif.motif_count",
        trie.motifs(threshold).len() as f64,
    );
}

/// loom-matcher: `MotifMatcher::on_edge` and a `SlidingWindow` alone,
/// evicted edges dropped instead of auctioned (as
/// `benches/matcher_micro.rs` replays it).
fn matcher_layer(m: &mut Metrics, spec: &Spec, input: &Input) {
    let threshold = LoomConfig::evaluation_defaults(spec.k).support_threshold;
    let rand = randomizer(input);
    let motifs = TpsTrie::build(&input.workload, &rand).motifs(threshold);
    let edges = input.edges();
    let mut matcher = MotifMatcher::new(motifs.clone(), rand.clone());
    let mut window = SlidingWindow::new(spec.window);
    let t = Instant::now();
    for e in edges {
        if matcher.on_edge(*e) == EdgeFate::Buffered {
            if let Some(old) = window.push(*e) {
                matcher.on_edge_assigned(old.id);
            }
        }
    }
    m.set(
        "loom-matcher.on_edge_ns_per_edge",
        secs(t) * 1e9 / edges.len() as f64,
    );
    let matcher = MotifMatcher::new(motifs, rand);
    let t = Instant::now();
    let mut hits = 0usize;
    for e in edges {
        hits += matcher.classify(e).is_some() as usize;
    }
    black_box(hits);
    m.set(
        "loom-matcher.classify_ns_per_edge",
        secs(t) * 1e9 / edges.len() as f64,
    );
}

/// loom-partition: each partitioner alone; Loom again under the phase
/// stopwatch, at 2 threads and at 2 shards; its state serialised.
/// Returns Loom's partitioner-alone seconds and its state's bytes.
fn partition_layer(
    m: &mut Metrics,
    spec: &Spec,
    input: &Input,
    checks: &mut Checks,
    reference: &Reference,
) -> (f64, usize) {
    let edges = input.edges();
    let n = edges.len() as f64;
    for (system, name) in [
        (System::Fennel, "loom-partition.fennel_on_batch_ns_per_edge"),
        (System::Ldg, "loom-partition.ldg_on_batch_ns_per_edge"),
        (System::Hash, "loom-partition.hash_on_batch_ns_per_edge"),
    ] {
        let mut p = partitioner(system, spec, input);
        m.set(name, replay(p.as_mut(), edges, |_| {}) * 1e9 / n);
    }

    let mut loom = loom_partitioner(spec, input);
    let (mut arena, mut adjacency) = (None, None);
    let alone_s = replay(&mut loom, edges, |p| {
        arena = p.arena();
        adjacency = p.adjacency();
    });
    m.set(
        "loom-partition.loom_on_batch_ns_per_edge",
        alone_s * 1e9 / n,
    );
    let stats = loom.stats();
    m.set("loom-matcher.buffered_share", stats.buffered as f64 / n);
    m.set("loom-partition.bypassed_share", stats.bypassed as f64 / n);
    m.set("loom-partition.auctions", stats.auctions as f64);
    m.set(
        "loom-partition.fallback_auction_share",
        stats.fallback_auctions as f64 / (stats.auctions.max(1)) as f64,
    );
    let arena = arena.expect("Loom keeps a match arena");
    let adjacency = adjacency.expect("Loom keeps a streaming adjacency");
    m.set("loom-matcher.arena_live_cells", arena.live_cells as f64);
    m.set(
        "loom-matcher.arena_dead_cells",
        (arena.total_cells - arena.live_cells) as f64,
    );
    m.set("loom-matcher.arena_generations", arena.generation as f64);
    m.set(
        "loom-partition.adjacency_resident_entries",
        adjacency.resident_entries as f64,
    );
    m.set(
        "loom-partition.adjacency_generations",
        adjacency.generation as f64,
    );
    checks.check(loom.state().sizes() == reference.sizes.as_slice(), || {
        "partitioner alone ends with other sizes than the engine's".to_string()
    });

    let mut state = ByteWriter::new();
    let save_s = timed(3, || {
        state = ByteWriter::new();
        loom.save_state(&mut state).expect("Loom checkpoints");
    });
    m.set("loom-partition.save_state_ms", save_s * 1e3);
    let state_bytes = state.len();
    m.set("loom-partition.save_state_bytes", state_bytes as f64);
    drop(state);
    let assign_s = timed(5, || {
        black_box(loom.state().to_assignment());
    });
    m.set("loom-partition.to_assignment_ms", assign_s * 1e3);
    drop(loom);

    // The stopwatch roughly doubles the pass, so it gets a pass of its
    // own and reports shares, not times.
    let mut profiled = loom_partitioner(spec, input);
    profiled.enable_phase_profile();
    replay(&mut profiled, edges, |_| {});
    let ph = profiled.phase_breakdown();
    let phases = (ph.matcher_ns + ph.partitioner_ns + ph.window_ns).max(1) as f64;
    m.set(
        "loom-partition.phase_matcher_share",
        ph.matcher_ns as f64 / phases,
    );
    m.set(
        "loom-partition.phase_alloc_share",
        ph.partitioner_ns as f64 / phases,
    );
    m.set(
        "loom-partition.phase_window_share",
        ph.window_ns as f64 / phases,
    );
    drop(profiled);

    let mut threaded = loom_partitioner(spec, input);
    threaded.set_threads(2);
    m.set(
        "loom-partition.loom_t2_speedup",
        alone_s / replay(&mut threaded, edges, |_| {}),
    );
    checks.check(
        threaded.state().sizes() == reference.sizes.as_slice(),
        || "threads=2 ends with other sizes".to_string(),
    );
    drop(threaded);
    let mut sharded = loom_partitioner(spec, input);
    sharded.set_shards(2);
    m.set(
        "loom-partition.loom_s2_slowdown",
        replay(&mut sharded, edges, |_| {}) / alone_s,
    );
    checks.check(
        sharded.state().sizes() == reference.sizes.as_slice(),
        || "shards=2 ends with other sizes".to_string(),
    );
    (alone_s, state_bytes)
}

/// loom-wal: the journal and a checkpoint alone on a `FileBackend`,
/// with the run's record size (one 256-edge batch) and a payload the
/// size of Loom's state. Flush is the code's own: a `BufWriter` flush,
/// no fsync.
fn wal_layer(m: &mut Metrics, input: &Input, dir: &Path, state_bytes: usize) {
    let wal_dir = dir.join("wal-alone");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let backend = FileBackend::new(&wal_dir).expect("create the WAL dir");
    let edges = input.edges();
    let record = |first: u64, chunk: &[StreamEdge]| {
        let mut w = ByteWriter::new();
        w.u64(first);
        w.u32(chunk.len() as u32);
        for e in chunk {
            e.wal_encode(&mut w);
        }
        w.into_bytes()
    };
    let records: Vec<Vec<u8>> = edges
        .chunks(BATCH)
        .enumerate()
        .map(|(i, c)| record((i * BATCH) as u64, c))
        .collect();
    let mut journal = JournalWriter::open(&backend, 0).expect("open the journal");
    let t = Instant::now();
    for r in &records {
        journal.append_record(r).expect("append");
        journal.flush().expect("flush");
    }
    let append_s = secs(t);
    let n = edges.len() as f64;
    m.set("loom-wal.journal_append_ns_per_edge", append_s * 1e9 / n);
    m.set(
        "loom-wal.journal_bytes_per_edge",
        journal.bytes_appended() as f64 / n,
    );
    m.set("loom-wal.journal_flushes", records.len() as f64);
    drop(journal);

    let bytes = std::fs::read(wal_dir.join(JOURNAL_FILE)).expect("read the journal back");
    let t = Instant::now();
    let scan = scan_journal(&bytes);
    m.set("loom-wal.scan_journal_ms", secs(t) * 1e3);
    assert!(
        scan.torn.is_none() && scan.records.len() == records.len(),
        "the journal written here must scan back whole"
    );
    drop((scan, bytes));

    let checkpoint = Checkpoint {
        seq: 1,
        fingerprint: "loom-benchmark standalone".to_string(),
        edges: edges.len() as u64,
        state: vec![0x5a; state_bytes],
    };
    let write_s = timed(3, || {
        write_checkpoint(&backend, &checkpoint).expect("write_checkpoint");
    });
    m.set("loom-wal.checkpoint_write_ms", write_s * 1e3);
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// loom-core's view publication at growing prefixes — the O(V) growth
/// — on an engine that otherwise never publishes. Leaves the final view
/// in the returned handle for the query and runtime layers.
fn publish_probe(
    m: &mut Metrics,
    spec: &Spec,
    input: &Input,
    checks: &mut Checks,
    reference: &Reference,
) -> ServeHandle {
    let mut eng = engine(partitioner(System::Loom, spec, input));
    let handle = eng.enable_serving(ServeOptions {
        publish_every: u64::MAX,
        ..ServeOptions::default()
    });
    let edges = input.edges();
    let mut fed = 0usize;
    for (at, name) in [
        (250_000, "loom-core.publish_view_ms_at_250k"),
        (500_000, "loom-core.publish_view_ms_at_500k"),
        (1_000_000, "loom-core.publish_view_ms_at_1m"),
    ] {
        // A stream shorter than the mark is measured at its end.
        let upto = at.min(edges.len());
        for chunk in edges[fed..upto].chunks(BATCH) {
            eng.ingest_batch(chunk, |_| {}).expect("ingest failed");
        }
        fed = upto;
        let t = Instant::now();
        eng.publish_view_now();
        m.set(name, secs(t) * 1e3);
    }
    for chunk in edges[fed..].chunks(BATCH) {
        eng.ingest_batch(chunk, |_| {}).expect("ingest failed");
    }
    eng.finish();
    checks.check(digest(&eng) == reference.digest, || {
        "publishing on demand changed the engine's state".to_string()
    });
    handle
}

/// loom-query: view construction and each request kind in process, no
/// socket; `count_ipt` over the whole graph for Loom and for Hash.
fn query_layer(
    m: &mut Metrics,
    spec: &Spec,
    input: &mut Input,
    handle: &ServeHandle,
    mix: Mix,
    loom_assignment: &Assignment,
) {
    let horizon = ServeOptions::default().horizon_edges;
    let tail = &input.edges()[input.edges().len().saturating_sub(horizon)..];
    let build_s = timed(5, || {
        black_box(ViewGraph::from_edges(tail, input.num_labels));
    });
    m.set("loom-query.view_from_edges_ms", build_s * 1e3);

    let view = handle.view.load().expect("the final view is published");
    let mut rng = mix.rng(99);
    let mut line = String::new();
    for (kind, name, reps, scale) in [
        (Kind::Part, "loom-query.part_ns", 100_000, 1e9),
        (Kind::Stats, "loom-query.stats_ns", 10_000, 1e9),
        (Kind::Khop, "loom-query.khop_us", 2_000, 1e6),
        (Kind::Match, "loom-query.match_us", 200, 1e6),
    ] {
        let reps = reps.min(input.n as usize);
        let t = Instant::now();
        for _ in 0..reps {
            mix.request_of(kind, &mut rng, &mut line);
            black_box(handle_request(Some(&view), &line));
        }
        m.set(name, secs(t) * scale / reps as f64);
    }
    drop(view);

    let mut hash = partitioner(System::Hash, spec, input);
    replay(hash.as_mut(), input.edges(), |_| {});
    let hash_assignment = hash.into_assignment();
    let workload = input.workload.clone();
    let graph = input.graph();
    let t = Instant::now();
    let loom_ipt = count_ipt(graph, loom_assignment, &workload, IPT_LIMIT).weighted_ipt;
    m.set("loom-query.count_ipt_s", secs(t));
    let hash_ipt = count_ipt(graph, &hash_assignment, &workload, IPT_LIMIT).weighted_ipt;
    m.set(
        "loom-query.loom_ipt_vs_hash_pct",
        if hash_ipt > 0.0 {
            loom_ipt / hash_ipt * 100.0
        } else {
            0.0
        },
    );
}

/// loom-runtime: the transport floor, the server's own view of the
/// latency its clients see, and the two primitives alone.
fn runtime_layer(
    m: &mut Metrics,
    handle: &ServeHandle,
    mix: Mix,
    sizes: &Sizes,
    tracer: &mut Tracer,
    checks: &mut Checks,
    n: u64,
) {
    m.set(
        "loom-runtime.line_rtt_us",
        line_rtt_us(handle, sizes.rtt_samples),
    );

    // A traced read section: every client request is a span. The
    // server's own histogram rounds down to powers of two, which reads
    // the same on every run; its mean over this section does not.
    let before = (handle.metrics.latency_us_sum(), handle.metrics.served());
    let sinks = (1..=CLIENTS as u32).map(|i| tracer.for_thread(i)).collect();
    let mut reads = read_section(handle, mix, sizes.read_probe_s, Some(sinks));
    checks.reads("traced read section", &reads, n);
    for sink in reads.client_spans.drain(..) {
        tracer.merge(sink);
    }
    let server = handle.metrics.stats();
    let served = (server.served - before.1).max(1);
    m.set(
        "loom-runtime.server_mean_us",
        (handle.metrics.latency_us_sum() - before.0) as f64 / served as f64,
    );
    m.set("loom-runtime.refused", server.refused as f64);
    let mut latency = reads.latency_ns;
    latency.sort_unstable();
    eprintln!(
        "#   client-seen p50 {:.1} us p99 {:.1} us over {} replies; server-seen p50 {} us p99 {} us",
        percentile(&latency, 50.0) as f64 / 1e3,
        percentile(&latency, 99.0) as f64 / 1e3,
        latency.len(),
        server.p50_us,
        server.p99_us
    );

    let cell = EpochCell::new();
    cell.publish(0u64);
    let loads = 1_000_000;
    let t = Instant::now();
    for _ in 0..loads {
        black_box(cell.load());
    }
    m.set("loom-runtime.epoch_load_ns", secs(t) * 1e9 / loads as f64);
    let publishes = 100_000u64;
    let t = Instant::now();
    for i in 0..publishes {
        black_box(cell.publish(i));
    }
    m.set(
        "loom-runtime.epoch_publish_ns",
        secs(t) * 1e9 / publishes as f64,
    );

    let pool = WorkerPool::new(2);
    let dispatches = 2_000;
    let t = Instant::now();
    for _ in 0..dispatches {
        pool.run(2, &|i| {
            black_box(i);
        })
        .expect("empty chunks cannot panic");
    }
    m.set(
        "loom-runtime.pool_dispatch_us",
        secs(t) * 1e6 / dispatches as f64,
    );
}
