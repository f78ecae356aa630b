//! One run of one workload, as the driver asks for it: set-up, a
//! warm-up, the timed section of `--seconds`, the correctness oracle,
//! and the end-to-end metrics (tracing off).
//!
//! Every workload reports every end-to-end metric, so every run has an
//! ingest section and a read section; the workload decides which one is
//! the long, timed one and which is a short probe of the same code.

use crate::metrics::Metrics;
use crate::serve::{read_section, ReadOut};
use crate::stats::{percentile, summarize, Summary};
use crate::workload::{digest, Bench, Drive, Input, Mode, Pass, Sizes, Spec, IPT_LIMIT};
use loom_core::{Snapshot, System};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The correctness oracle's tally: operations attempted (edges fed,
/// requests sent, checks made) and how many of them failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, !ok as u64, what);
    }

    pub fn ops(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 20 {
            self.failures
                .push(format!("{} ({failed} of {attempted})", what()));
        }
    }

    /// A pass ends where the reference pass ended: same state digest,
    /// same cut, same sizes, and the feed gave every edge.
    pub fn pass(&mut self, what: &str, pass: &Pass, n: u64, reference: &Reference) {
        self.ops(n, pass.rejected, || format!("{what}: feed lines rejected"));
        self.check(pass.fin.edges == n, || {
            format!("{what}: ingested {} of {n} edges", pass.fin.edges)
        });
        self.check(digest(&pass.engine) == reference.digest, || {
            format!("{what}: state_digest differs from the reference pass")
        });
        self.check(
            (pass.fin.cut_edges, pass.fin.resolved_edges) == reference.cut
                && pass.fin.sizes == reference.sizes,
            || format!("{what}: cut or sizes differ from the reference pass"),
        );
    }

    pub fn reads(&mut self, what: &str, reads: &ReadOut, n: u64) {
        self.ops(reads.sent, reads.failed, || {
            format!("{what}: replies not OK, refused or timed out")
        });
        self.check(reads.final_view_edges == n, || {
            format!(
                "{what}: final view holds {} of {n} edges",
                reads.final_view_edges
            )
        });
    }
}

/// What every pass of one system over one input must reproduce.
pub struct Reference {
    pub digest: (usize, u64),
    pub cut: (u64, u64),
    pub sizes: Vec<usize>,
}

impl Reference {
    pub fn of(pass: &Pass) -> Reference {
        Reference {
            digest: digest(&pass.engine),
            cut: (pass.fin.cut_edges, pass.fin.resolved_edges),
            sizes: pass.fin.sizes.clone(),
        }
    }
}

pub struct Outcome {
    pub metrics: Metrics,
    /// Median, quartiles and count behind each timing metric.
    pub detail: Vec<(&'static str, Summary)>,
    pub checks: Checks,
}

/// The run's scratch directory (text feed, WAL), inside the benchmark's
/// own directory; removed when the value drops.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
    }

    pub fn create(workload: &str) -> WorkDir {
        let dir = WorkDir::root().join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cut_pct(fin: &Snapshot) -> f64 {
    fin.cut_fraction() * 100.0
}

/// Largest partition as a percentage of the mean one: 100 + the
/// imbalance percentage. Reported in this form because the imbalance
/// itself sits so close to 0 that from seed to seed it moves by more
/// than its own size.
pub fn max_load_pct(fin: &Snapshot) -> f64 {
    100.0 + fin.imbalance * 100.0
}

/// A plain Fennel pass over the bench's input; its seconds.
fn fennel_pass(bench: &Bench, checks: &mut Checks, reference: &mut Option<Reference>) -> f64 {
    let p = bench.pass(System::Fennel, Mode::Plain, None, None);
    let r = reference.get_or_insert_with(|| Reference::of(&p));
    checks.pass("fennel pass", &p, bench.input.n, r);
    p.total_s
}

pub fn run_end_to_end(spec: &Spec, seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let work = WorkDir::create(spec.name);
    let dir = work.0.as_path();
    let mode = Mode::of(spec.drive);
    let mut checks = Checks::default();
    let mut detail = Vec::new();
    let mut m = Metrics::default();

    // Set-up, several times over so that its median is steady: make the
    // input from the seed; on serve-read also the ingest that leaves the
    // final view published.
    let mut setup_s = Vec::new();
    let mut built: Option<(Input, Option<Pass>)> = None;
    let mut setup_passes: Vec<(f64, f64)> = Vec::new();
    let mut setup_over_fennel = Vec::new();
    let mut fennel_ref = None;
    for _ in 0..sizes.setup_reps {
        drop(built.take()); // free the previous copy before building the next
        let t = Instant::now();
        let input = Input::build(spec.dataset, seed, sizes.edges, dir);
        let bench = Bench {
            spec,
            input: &input,
            dir,
            mix: input.mix(seed),
        };
        let served = (spec.drive == Drive::ServeThenRead)
            .then(|| bench.pass(System::Loom, mode, None, None));
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(p) = &served {
            setup_passes.push((p.total_s, p.stop_s));
            let fennel_s = fennel_pass(&bench, &mut checks, &mut fennel_ref);
            setup_over_fennel.push(p.total_s / fennel_s);
        }
        built = Some((input, served));
    }
    let (mut input, served) = built.expect("set-up ran at least once");
    let (n, stop_edge, mix) = (input.n, input.stop, input.mix(seed));
    let bench = Bench {
        spec,
        input: &input,
        dir,
        mix,
    };
    let setup = summarize(&setup_s);
    m.set("setup_s", setup.median);
    detail.push(("setup_s", setup));

    // The reference: one plain Loom pass. It warms the process up, and
    // it is what WAL-on and serving-on passes must be bit-identical to.
    let plain = bench.pass(System::Loom, Mode::Plain, None, None);
    let reference = Reference::of(&plain);
    checks.pass("reference pass", &plain, n, &reference);
    drop(plain);

    // The timed section. Every Loom ingest (the set-up ones above too)
    // is followed by a plain Fennel pass over the same input — the
    // paper's yardstick — so that the ratio of the pair is taken under
    // the same machine conditions; this box drifts by several percent
    // over minutes.
    let per_stream = |p: &Pass| match spec.drive {
        Drive::Wal => p.stop_s * n as f64 / stop_edge as f64,
        _ => p.total_s,
    };
    let (total, stop, recover, over_fennel, last, reads) = match spec.drive {
        Drive::ServeThenRead => {
            let served = served.expect("set-up ingested behind the server");
            checks.pass("set-up ingest", &served, n, &reference);
            let handle = served.handle.as_ref().expect("serving was on");
            let reads = read_section(handle, mix, seconds, None);
            checks.reads("read section", &reads, n);
            let (total, stop): (Vec<f64>, Vec<f64>) = setup_passes.into_iter().unzip();
            (total, stop.clone(), stop, setup_over_fennel, served, reads)
        }
        _ => {
            // Warm the workload's own path too: the WAL files, or the
            // server and its connections over a prefix of the feed.
            match spec.drive {
                Drive::Wal => drop(bench.pass(System::Loom, mode, None, None)),
                Drive::ServeLive => {
                    drop(bench.pass(System::Loom, mode, Some(sizes.warm_prefix), None))
                }
                _ => {}
            }
            let (mut total, mut stop, mut recover) = (Vec::new(), Vec::new(), Vec::new());
            let mut over_fennel = Vec::new();
            let mut reads = ReadOut::default();
            let mut last = None;
            let t_main = Instant::now();
            while total.len() < spec.min_passes || t_main.elapsed().as_secs_f64() < seconds {
                drop(last.take()); // one engine resident at a time
                let mut p = bench.pass(System::Loom, mode, None, None);
                checks.pass("timed pass", &p, n, &reference);
                total.push(p.total_s);
                stop.push(p.stop_s);
                recover.extend_from_slice(&p.recover_s);
                if let Some(r) = p.reads.take() {
                    checks.reads("clients beside the ingest", &r, n);
                    reads.absorb(r);
                }
                let fennel_s = fennel_pass(&bench, &mut checks, &mut fennel_ref);
                over_fennel.push(per_stream(&p) / fennel_s);
                last = Some(p);
            }
            let last = last.expect("at least one timed pass ran");
            (total, stop, recover, over_fennel, last, reads)
        }
    };
    m.set("peak_rss_mb", peak_rss_mb());
    eprintln!("# {} pass seconds: {total:.4?}", spec.name);

    // Ingest rate: first edge pulled → finish() returns; on the WAL
    // workload the first leg, up to the stop.
    let (rate_edges, rate_s) = match spec.drive {
        Drive::Wal => (stop_edge, summarize(&stop)),
        _ => (n, summarize(&total)),
    };
    m.set("ingest_edges_per_s", rate_edges as f64 / rate_s.median);
    detail.push(("ingest_edges_per_s", rate_s));
    let recover = summarize(&recover);
    m.set("recover_s", recover.median);
    detail.push(("recover_s", recover));
    m.set("cut_pct", cut_pct(&last.fin));
    m.set("max_load_pct", max_load_pct(&last.fin));
    let over_fennel = summarize(&over_fennel);
    m.set("loom_over_fennel_time", over_fennel.median);
    detail.push(("loom_over_fennel_time", over_fennel));

    // The read section of the workloads whose timed section was ingest:
    // the same set-up and clients as serve-read, for a short while.
    let reads = match spec.drive {
        Drive::Plain | Drive::Wal => {
            let served_mode = Mode::of(Drive::ServeThenRead);
            let p = bench.pass(System::Loom, served_mode, None, None);
            checks.pass("ingest behind the server", &p, n, &reference);
            let handle = p.handle.as_ref().expect("serving was on");
            let reads = read_section(handle, mix, sizes.read_probe_s, None);
            checks.reads("read section", &reads, n);
            reads
        }
        Drive::ServeLive | Drive::ServeThenRead => reads,
    };
    let mut latency = reads.latency_ns.clone();
    latency.sort_unstable();
    m.set("query_p50_us", percentile(&latency, 50.0) as f64 / 1e3);
    m.set("query_p99_us", percentile(&latency, 99.0) as f64 / 1e3);
    m.set("read_qps", reads.qps());
    let as_us: Vec<f64> = latency.iter().map(|&ns| ns as f64 / 1e3).collect();
    detail.push(("query_p50_us", summarize(&as_us)));

    // Workload-weighted ipt of Loom's final partitioning.
    let assignment = last.engine.into_assignment();
    let workload = input.workload.clone();
    let ipt = loom_core::query::count_ipt(input.graph(), &assignment, &workload, IPT_LIMIT);
    checks.check(ipt.total_matches() > 0, || {
        "count_ipt found no match of any workload query".to_string()
    });
    m.set("weighted_ipt", ipt.weighted_ipt);

    Outcome {
        metrics: m,
        detail,
        checks,
    }
}
