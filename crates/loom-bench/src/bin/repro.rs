//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--experiment all|fig4|table1|fig7|fig8|table2|fig9|ablations|online]
//!       [--scale tiny|small|medium|large] [--seed N] [--jsonl PATH]
//!       [--bench-json PATH|none] [--compare-bench PATH]
//! ```
//!
//! Prints paper-style markdown tables to stdout; with `--jsonl` also
//! writes machine-readable result rows for the ipt experiments. A run
//! that produced ipt cells (`all`, `fig7`, `fig8`) additionally writes
//! a `BENCH_results.json` summary (per-system weighted ipt, imbalance
//! and Table 2's ms/10k-edges, averaged over the cells) —
//! `--bench-json none` suppresses it.
//!
//! `--compare-bench PATH` turns the run into the CI quality gate: the
//! fresh summary is compared against the committed copy at PATH (run
//! shape and quality digits must match exactly; ms/10k-edges is shown,
//! never gated — throughput is measured by `benchmark/`), a
//! before/after table is printed to stderr, and the process exits
//! non-zero on any violation.
//!
//! Exit codes: `0` pass, `1` quality-gate violation, `2` bad invocation
//! (including an output path that cannot be written), `3` the committed
//! baseline at PATH is missing or unparsable (the gate could not run —
//! distinct from a violation so CI can report "refresh/commit the
//! baseline" instead of "investigate a quality drift").

use loom_bench::suites::{self, SuiteOptions};
use loom_bench::BenchSummary;
use loom_core::graph::Scale;

struct Args {
    experiment: String,
    options: SuiteOptions,
    jsonl: Option<String>,
    bench_json: Option<String>,
    compare_bench: Option<String>,
}

/// `--help` text. Tested against [`FLAGS`]: every long flag the
/// parser matches must appear here and vice versa, so `repro --help`
/// cannot drift from the implementation (the same guarantee the
/// `loom` binary's USAGE carries).
const HELP: &str =
    "repro [--experiment all|fig4|table1|fig7|fig8|table2|fig9|ablations|online]\n      \
[--scale tiny|small|medium|large] [--seed N] [--jsonl PATH]\n      \
[--bench-json PATH|none] [--compare-bench PATH] [--help]";

/// The experiment names `--experiment` accepts.
const EXPERIMENTS: [&str; 9] = [
    "all",
    "table1",
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "table2",
    "ablations",
    "online",
];

/// The experiments that produce ipt cells — the only runs with a
/// summary to write or gate.
const IPT_EXPERIMENTS: [&str; 3] = ["all", "fig7", "fig8"];

fn parse_args_from(argv: &[String]) -> Result<Args, String> {
    let mut experiment = "all".to_string();
    let mut options = SuiteOptions::default();
    let mut jsonl = None;
    let mut bench_json = Some("BENCH_results.json".to_string());
    let mut compare_bench = None;
    let mut i = 0;
    while i < argv.len() {
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--experiment" | "-e" => experiment = take_value(&mut i)?,
            "--scale" | "-s" => {
                options.scale = match take_value(&mut i)?.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    "large" => Scale::Large,
                    other => return Err(format!("unknown scale {other}")),
                }
            }
            "--seed" => {
                options.seed = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--jsonl" => jsonl = Some(take_value(&mut i)?),
            "--bench-json" => {
                let v = take_value(&mut i)?;
                bench_json = if v == "none" { None } else { Some(v) };
            }
            "--compare-bench" => compare_bench = Some(take_value(&mut i)?),
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    // A typo'd experiment would otherwise select no suites and exit 0
    // silently — reject it up front.
    if !EXPERIMENTS.contains(&experiment.as_str()) {
        return Err(format!(
            "unknown experiment '{experiment}'; expected one of {}",
            EXPERIMENTS.join("|")
        ));
    }
    // Likewise a gate over an experiment with no ipt cells would run
    // the suite and only then find nothing to compare.
    if compare_bench.is_some() && !IPT_EXPERIMENTS.contains(&experiment.as_str()) {
        return Err(format!(
            "--compare-bench gates ipt cells and experiment '{experiment}' produces none; \
             use --experiment {}",
            IPT_EXPERIMENTS.join("|")
        ));
    }
    Ok(Args {
        experiment,
        options,
        jsonl,
        bench_json,
        compare_bench,
    })
}

fn parse_args() -> Result<Args, String> {
    parse_args_from(&std::env::args().skip(1).collect::<Vec<_>>())
}

/// Runs one named suite and returns its markdown; ipt experiment rows
/// are appended to `all_results` for `--jsonl` and the summary.
fn run_suite(
    name: &str,
    opts: &SuiteOptions,
    all_results: &mut Vec<loom_core::ExperimentResult>,
) -> String {
    match name {
        "table1" => suites::table1(opts),
        "fig4" => suites::fig4(),
        "fig7" => {
            let (text, results) = suites::fig7(opts);
            all_results.extend(results);
            text
        }
        "fig8" => {
            let (text, results) = suites::fig8(opts);
            all_results.extend(results);
            text
        }
        "fig9" => suites::fig9(opts),
        "table2" => suites::table2(opts),
        "ablations" => suites::ablations(opts),
        "online" => suites::online(opts),
        other => unreachable!("'{other}' is in EXPERIMENTS but has no suite"),
    }
}

/// Write `text` to `path`, or exit 2 naming the path and the OS error.
fn write_or_exit(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let opts = args.options;

    // Read the committed baseline BEFORE the run and any write: with
    // the default --bench-json path, `--compare-bench
    // BENCH_results.json` names the same file the fresh summary is
    // about to land in, and a write-then-read would gate the fresh run
    // against itself. A missing or corrupt baseline is not a quality
    // violation: it exits with its own code (3).
    let baseline = args.compare_bench.as_ref().map(|path| {
        let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read committed baseline {path}: {e}");
            std::process::exit(3);
        });
        BenchSummary::parse(&committed).unwrap_or_else(|e| {
            eprintln!("error: committed baseline {path} unparsable: {e}");
            std::process::exit(3);
        })
    });

    println!(
        "# Loom reproduction — scale `{}`, seed {}\n",
        opts.scale.name(),
        opts.seed
    );
    let mut all_results = Vec::new();
    let mut suites_run: Vec<&str> = Vec::new();
    // Dispatch is driven by the same EXPERIMENTS table that validates
    // `--experiment`, so the two cannot drift apart silently: a name
    // added to the table without a match arm below panics the first
    // time it is selected, and a match arm without a table entry is
    // unreachable because validation rejects the name first.
    for name in EXPERIMENTS.iter().filter(|&&n| n != "all") {
        if args.experiment != "all" && args.experiment != *name {
            continue;
        }
        let text = run_suite(name, &opts, &mut all_results);
        suites_run.push(name);
        println!("{text}\n");
    }

    if let Some(path) = &args.jsonl {
        write_or_exit(path, &suites::jsonl(&all_results));
        eprintln!("wrote {} result rows to {path}", all_results.len() * 4);
    }
    if all_results.is_empty() {
        return; // no ipt cells: nothing to summarise or gate
    }
    let summary =
        BenchSummary::from_results(opts.scale.name(), opts.seed, &suites_run, &all_results);
    if let Some(path) = &args.bench_json {
        if args.compare_bench.as_deref() == Some(path.as_str()) {
            eprintln!(
                "note: --bench-json and --compare-bench both name {path}; \
                 gating against the previous contents, then refreshing the file"
            );
        }
        write_or_exit(path, &summary.to_json());
        eprintln!("wrote bench summary to {path}");
    }

    // The CI quality gate. The table goes to stderr so `repro ... >
    // /dev/null` (CI hides the suite markdown) still shows it.
    if let (Some(path), Some(baseline)) = (&args.compare_bench, &baseline) {
        let report = loom_bench::compare(baseline, &summary);
        eprintln!("## Quality gate: fresh run vs committed {path}\n");
        eprintln!("{}", report.table);
        if !report.passed() {
            for f in &report.failures {
                eprintln!("quality gate FAILURE: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("quality gate: ok (run shape and quality digits bit-stable)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Every long flag `parse_args_from` matches (short aliases
    /// aside) — the registry [`HELP`] is tested against.
    const FLAGS: [&str; 7] = [
        "experiment",
        "scale",
        "seed",
        "jsonl",
        "bench-json",
        "compare-bench",
        "help",
    ];

    #[test]
    fn unknown_experiment_is_rejected() {
        // Regression: `repro --experiment fig99` used to select zero
        // suites and exit 0 silently.
        let err = parse_args_from(&args(&["--experiment", "fig99"]))
            .err()
            .expect("fig99 must be rejected");
        assert!(
            err.contains("fig99"),
            "error should name the bad value: {err}"
        );
        assert!(err.contains("fig4"), "error should list valid names: {err}");
    }

    #[test]
    fn every_advertised_experiment_parses() {
        for e in EXPERIMENTS {
            assert!(
                parse_args_from(&args(&["--experiment", e])).is_ok(),
                "{e} should be accepted"
            );
        }
    }

    #[test]
    fn defaults_to_all() {
        let a = parse_args_from(&[]).unwrap();
        assert_eq!(a.experiment, "all");
    }

    /// Regression: `--experiment fig4 --compare-bench ...` ran the
    /// suite, then panicked finding no system rows to gate.
    #[test]
    fn compare_bench_needs_ipt_cells() {
        for e in EXPERIMENTS {
            let parsed = parse_args_from(&args(&[
                "--experiment",
                e,
                "--compare-bench",
                "BENCH_results.json",
            ]));
            if IPT_EXPERIMENTS.contains(&e) {
                assert!(parsed.is_ok(), "{e} has ipt cells to gate");
            } else {
                let err = parsed.err().expect("no ipt cells must be rejected");
                assert!(err.contains(e) && err.contains("fig7"), "{err}");
            }
        }
    }

    /// The `repro --help` drift guard: the flag registry and the help
    /// text must name exactly the same long flags.
    #[test]
    fn help_and_flag_registry_agree() {
        use std::collections::BTreeSet;
        let declared: BTreeSet<String> = FLAGS.iter().map(|s| s.to_string()).collect();
        let mut documented: BTreeSet<String> = BTreeSet::new();
        for (i, _) in HELP.match_indices("--") {
            let name: String = HELP[i + 2..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            if !name.is_empty() {
                documented.insert(name);
            }
        }
        assert_eq!(
            declared, documented,
            "repro --help and the FLAGS registry drifted apart"
        );
    }

    /// And the registry must match what the parser actually accepts:
    /// every declared flag (with a dummy value) parses, and a flag the
    /// parser would take but the registry omits cannot exist because
    /// unknown flags are rejected.
    #[test]
    fn every_declared_flag_parses() {
        for f in FLAGS {
            if f == "help" {
                continue; // exits the process by design
            }
            let value = match f {
                "experiment" => "fig4",
                "scale" => "tiny",
                "seed" => "1",
                _ => "/tmp/x",
            };
            assert!(
                parse_args_from(&args(&[&format!("--{f}"), value])).is_ok(),
                "--{f} should parse"
            );
        }
        assert!(parse_args_from(&args(&["--bogus", "x"])).is_err());
        assert!(parse_args_from(&args(&["--threads", "4"])).is_err());
    }
}
