//! `all`: every workload in its own child process, the experimental
//! set-up header, the metric tables and the results file. `compare`:
//! two results files, one row per (workload, metric).

use crate::json::{num, quote, Json};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::run::WorkDir;
use crate::workload::WORKLOADS;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct AllOptions {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The experimental set-up, as (key, value) rows: what a reader needs
/// to judge the numbers without rerunning them.
fn setup_header(opts: &AllOptions) -> Vec<(String, String)> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let mut rows =
        vec![
        (
            "nproc".to_string(),
            loom_core::runtime::available_parallelism().to_string(),
        ),
        ("cpu".to_string(), cpu_model()),
        ("kernel".to_string(), kernel),
        (
            "git commit".to_string(),
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        ),
        ("rustc".to_string(), command_line("rustc", &["--version"])),
        (
            "profile".to_string(),
            if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
        ),
        ("seed".to_string(), opts.seed.to_string()),
        (
            "timed section".to_string(),
            format!(
                "{} s per workload{}",
                opts.seconds,
                if opts.smoke { " (--smoke: tiny inputs)" } else { "" }
            ),
        ),
        (
            "engine".to_string(),
            "adaptive capacity, batch 256, snapshot every 5000, threads 1, shards 1, track_cuts on"
                .to_string(),
        ),
        (
            "clients".to_string(),
            "closed loop, 2 connections, TCP_NODELAY on the client side; 60% PART, 25% KHOP v 2 \
             5000, 10% MATCH 0-1 500, 5% STATS"
                .to_string(),
        ),
        (
            "flush policy".to_string(),
            "the code's own: BufWriter flush per batch, no fsync".to_string(),
        ),
    ];
    for w in WORKLOADS {
        rows.push((format!("workload {}", w.name), w.params.to_string()));
    }
    rows
}

struct ChildRun {
    workload: &'static str,
    traced: bool,
    /// The result line, parsed.
    result: Json,
    /// The detail line's object, parsed.
    detail: Json,
}

fn run_child(workload: &'static str, traced: bool, opts: &AllOptions) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {traced}) exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().ok_or("no result line")?)?;
    let detail = lines
        .next()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|j| j.get("detail").cloned())
        .unwrap_or(Json::Obj(Vec::new()));
    Ok(ChildRun {
        workload,
        traced,
        result,
        detail,
    })
}

fn print_run(run: &ChildRun) {
    println!(
        "\n== {} — {} ==",
        run.workload,
        if run.traced {
            "per layer, from the traced run"
        } else {
            "end to end, tracing off"
        }
    );
    let empty = Json::Obj(Vec::new());
    let metrics = run.result.get("metrics").unwrap_or(&empty);
    for (name, m) in metrics.entries() {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let spread = run.detail.get(name).map_or(String::new(), |d| {
            let f = |k| d.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            format!(
                "   samples: median {:.6} q1 {:.6} q3 {:.6} n {}",
                f("median"),
                f("q1"),
                f("q3"),
                f("n")
            )
        });
        println!("{name:<46} {value:>16.4} {unit:<8}{spread}");
    }
    let f = |k| run.result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "{:<46} {:>16.4} {:<8}   {} failed of {} operations attempted",
        "failed_ops_ratio",
        f("failed") / f("attempted").max(1.0),
        "ratio",
        f("failed"),
        f("attempted")
    );
}

fn results_json(header: &[(String, String)], runs: &[ChildRun]) -> String {
    let header: Vec<String> = header
        .iter()
        .map(|(k, v)| format!("    {}: {}", quote(k), quote(v)))
        .collect();
    let runs: Vec<String> = runs
        .iter()
        .map(|r| {
            let field = |k: &str| r.result.get(k).map_or("null".to_string(), render);
            format!(
                "    {{\"workload\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
                 \"failed\": {}, \"metrics\": {}, \"detail\": {}}}",
                quote(r.workload),
                r.traced as u8,
                field("correct"),
                field("attempted"),
                field("failed"),
                field("metrics"),
                render(&r.detail)
            )
        })
        .collect();
    format!(
        "{{\n  \"header\": {{\n{}\n  }},\n  \"runs\": [\n{}\n  ]\n}}\n",
        header.join(",\n"),
        runs.join(",\n")
    )
}

fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => num(*n),
        Json::Str(s) => quote(s),
        Json::Arr(a) => format!("[{}]", a.iter().map(render).collect::<Vec<_>>().join(", ")),
        Json::Obj(kv) => format!(
            "{{{}}}",
            kv.iter()
                .map(|(k, v)| format!("{}: {}", quote(k), render(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

/// Run every workload, untraced then traced. `Ok(false)` when any
/// check failed.
pub fn run_all(opts: &AllOptions) -> Result<bool, String> {
    let header = setup_header(opts);
    println!("== experimental set-up ==");
    for (k, v) in &header {
        println!("{k:<24} {v}");
    }
    let mut runs = Vec::new();
    for w in WORKLOADS {
        for traced in [false, true] {
            let run = run_child(w.name, traced, opts)?;
            print_run(&run);
            runs.push(run);
        }
    }
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| WorkDir::root().join(format!("results-seed{}.json", opts.seed)));
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, results_json(&header, &runs)).map_err(|e| e.to_string())?;
    println!("\nresults written to {}", out.display());
    let failed: Vec<String> = runs
        .iter()
        .filter(|r| r.result.get("correct").and_then(Json::as_bool) != Some(true))
        .map(|r| format!("{} (trace {})", r.workload, r.traced as u8))
        .collect();
    if !failed.is_empty() {
        println!("CHECKS FAILED in: {}", failed.join(", "));
    }
    Ok(failed.is_empty())
}

/// (workload, trace) → (metric → value, metric → spread of its samples).
type Loaded = BTreeMap<(String, bool), (BTreeMap<String, f64>, BTreeMap<String, f64>)>;

fn load(path: &Path) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Loaded::new();
    for run in json.get("runs").map_or(&[][..], Json::as_arr) {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        let traced = run.get("trace").and_then(Json::as_f64) == Some(1.0);
        let values = run
            .get("metrics")
            .map(Json::metric_values)
            .unwrap_or_default();
        let spreads = run
            .get("detail")
            .map_or(&[][..], Json::entries)
            .iter()
            .filter_map(|(name, d)| {
                let f = |k| d.get(k).and_then(Json::as_f64);
                let (median, q1, q3) = (f("median")?, f("q1")?, f("q3")?);
                (median != 0.0).then(|| (name.clone(), (q3 - q1) / median))
            })
            .collect();
        out.insert((workload.to_string(), traced), (values, spreads));
    }
    Ok(out)
}

/// `b` against `a`: relative change in the direction that is worse
/// (positive = `b` is worse).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// One row per (workload, metric): both values, how much worse the
/// second is, the bound, and a verdict — `ok`, `regressed` (worse by
/// more than the bound; for an exact metric, any difference),
/// `unresolved` (the samples behind either value spread wider than the
/// bound, so the difference cannot be told from noise). Per-layer rows
/// carry no bound and no verdict. `Ok(false)` on any `regressed`.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut regressed = 0;
    println!(
        "{:<13} {:<44} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for w in WORKLOADS {
        let key = (w.name.to_string(), false);
        let (Some((va, sa)), Some((vb, sb))) = (a.get(&key), b.get(&key)) else {
            return Err(format!("{}: missing from a results file", w.name));
        };
        for m in END_TO_END {
            let (Some(&x), Some(&y)) = (va.get(m.name), vb.get(m.name)) else {
                return Err(format!(
                    "{} {}: missing from a results file",
                    w.name, m.name
                ));
            };
            let worse = worse_by(x, y, m.better);
            let spread = sa
                .get(m.name)
                .copied()
                .unwrap_or(0.0)
                .max(sb.get(m.name).copied().unwrap_or(0.0));
            let verdict = if m.exact {
                if x == y {
                    "ok"
                } else {
                    "regressed"
                }
            } else if spread > m.bound {
                "unresolved"
            } else if worse > m.bound {
                "regressed"
            } else {
                "ok"
            };
            regressed += (verdict == "regressed") as u32;
            let bound = if m.exact {
                "exact".to_string()
            } else {
                format!("{:.0}%", m.bound * 100.0)
            };
            println!(
                "{:<13} {:<44} {x:>16.4} {y:>16.4} {:>8.2}% {bound:>7}  {verdict}",
                w.name,
                m.name,
                worse * 100.0
            );
        }
        let key = (w.name.to_string(), true);
        if let (Some((va, _)), Some((vb, _))) = (a.get(&key), b.get(&key)) {
            for m in PER_LAYER {
                if let (Some(&x), Some(&y)) = (va.get(m.name), vb.get(m.name)) {
                    println!(
                        "{:<13} {:<44} {x:>16.4} {y:>16.4} {:>8.2}% {:>7}  -",
                        w.name,
                        m.name,
                        worse_by(x, y, m.better) * 100.0,
                        "-"
                    );
                }
            }
        }
    }
    println!("{regressed} regressed");
    Ok(regressed == 0)
}
