//! `loom-benchmark --workload W --seed N --seconds S --trace 0|1`
//!     one run of one workload; the last stdout line is the result.
//! `loom-benchmark all [--seed N] [--seconds S] [--smoke] [--out FILE]`
//!     every workload, untraced then traced, each in its own child
//!     process; prints the set-up header and every metric, writes the
//!     results file, exits non-zero if any check failed.
//! `loom-benchmark compare A.json B.json`
//!     two results files, one row per (workload, metric).

use loom_benchmark::metrics::{end_to_end_table, per_layer_table};
use loom_benchmark::workload::{spec_named, Drive, Sizes, WORKLOADS};
use loom_benchmark::{json, layers, report, run};
use std::process::ExitCode;

struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        }
    }
}

/// glibc raises its mmap threshold to the size of the largest buffer
/// freed so far, so whether a later pass gets its big buffers back from
/// the heap (already faulted in) or fresh from the kernel (20 000 page
/// faults per restart, +30% on `recover_s`) depends on what the process
/// happened to free before. `loom stream` and a restart after a crash
/// are processes that have just started and get everything fresh, so
/// the workloads that stand for them pin the threshold at glibc's
/// start-up value, which switches the adjustment off. `loom serve` lives
/// long enough for the threshold to have adapted after its first view;
/// its workloads keep glibc's own policy.
fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only stores a tunable, and no other thread
        // exists yet.
        unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => all(&Flags(args[1..].to_vec())),
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(a.as_ref(), b.as_ref()),
            _ => Err("usage: compare A.json B.json".to_string()),
        },
        _ => one_run(&Flags(args)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn all(flags: &Flags) -> Result<bool, String> {
    let smoke = flags.has("--smoke");
    report::run_all(&report::AllOptions {
        seed: flags.parsed("--seed", 42)?,
        seconds: flags.parsed("--seconds", if smoke { 0.3 } else { 10.0 })?,
        smoke,
        out: flags.value("--out").map(Into::into),
    })
}

fn one_run(flags: &Flags) -> Result<bool, String> {
    let name = flags
        .value("--workload")
        .ok_or("usage: --workload W --seed N --seconds S --trace 0|1 | all | compare A B")?;
    let spec = spec_named(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    if matches!(spec.drive, Drive::Plain | Drive::Wal) {
        pin_malloc_thresholds();
    }
    let seed: u64 = flags.parsed("--seed", 42)?;
    let smoke = flags.has("--smoke");
    let seconds: f64 = flags.parsed("--seconds", if smoke { 0.3 } else { 10.0 })?;
    let traced = flags.parsed("--trace", 0u8)? != 0;
    let sizes = if smoke { Sizes::SMOKE } else { Sizes::FULL };

    let (outcome, table) = if traced {
        (layers::run_traced(&spec, seed, &sizes), per_layer_table())
    } else {
        (
            run::run_end_to_end(&spec, seed, seconds, &sizes),
            end_to_end_table(),
        )
    };
    let metrics = outcome.metrics.to_json(&table)?;
    for f in &outcome.checks.failures {
        eprintln!("# FAILED {f}");
    }
    let detail: Vec<String> = outcome
        .detail
        .iter()
        .map(|(name, s)| {
            format!(
                "{}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                json::quote(name),
                json::num(s.median),
                json::num(s.q1),
                json::num(s.q3),
                s.n
            )
        })
        .collect();
    println!("{{\"detail\": {{{}}}}}", detail.join(", "));
    // A run that measured everything exits 0 even when a check failed:
    // the result line carries the verdict, and `all` turns it into an
    // exit code.
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.checks.failed == 0,
        outcome.checks.attempted.max(1),
        outcome.checks.failed
    );
    Ok(true)
}
