//! `repro` — regenerate the paper's tables and figures. `repro --help`
//! lists the flags, rendered from [`REPRO`].
//!
//! Prints paper-style markdown tables to stdout; with `--jsonl` also
//! writes machine-readable result rows for the ipt experiments (and
//! refuses an experiment without them, as `--compare-bench` does). A run
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

use loom_cli::bench_compare::{self, BenchSummary};
use loom_cli::suites::{self, SuiteOptions};
use loom_cli::{parse_scale, ArgError, Args, Command};

/// `repro`'s command line; `--help` is rendered from it.
#[rustfmt::skip]
const REPRO: Command = Command {
    name: "repro",
    about: "print the paper's tables and figures; gate the ipt cells' quality digits",
    flags: &[&[
        ("experiment", "NAME", "all (default), table1, fig4, fig7, fig8, fig9, table2, ablations, online"),
        ("scale", "tiny|small|medium|large", "dataset size (default small)"),
        ("seed", "N", "master seed (default 42)"),
        ("jsonl", "PATH", "also write the ipt result rows as JSON lines"),
        ("bench-json", "PATH|none", "the ipt cells' summary (default BENCH_results.json)"),
        ("compare-bench", "PATH", "gate the summary against the committed one (exit 1 on drift)"),
    ]],
};

const SYNOPSIS: &str = "repro [--flag value]...  (--help / -h prints this text)";

/// A run, read off the parsed line.
struct Run {
    experiment: String,
    options: SuiteOptions,
    jsonl: Option<String>,
    bench_json: Option<String>,
    compare_bench: Option<String>,
}

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

fn run_of(args: &Args) -> Result<Run, ArgError> {
    let defaults = SuiteOptions::default();
    let experiment = args.optional("experiment")?.unwrap_or_else(|| "all".into());
    let options = SuiteOptions {
        scale: match args.optional("scale")? {
            Some(name) => parse_scale(&name)?,
            None => defaults.scale,
        },
        seed: args.parsed_or("seed", defaults.seed)?,
    };
    let bench_json = match args.optional("bench-json")? {
        Some(v) if v == "none" => None,
        Some(v) => Some(v),
        None => Some("BENCH_results.json".to_string()),
    };
    let compare_bench = args.optional("compare-bench")?;
    let jsonl = args.optional("jsonl")?;
    // A typo'd experiment would otherwise select no suites and exit 0
    // silently — reject it up front.
    if !EXPERIMENTS.contains(&experiment.as_str()) {
        return Err(ArgError::Refused(format!(
            "unknown experiment '{experiment}'; expected one of {}",
            EXPERIMENTS.join("|")
        )));
    }
    // Likewise a gate or a JSON-lines file over an experiment with no
    // ipt cells would run the suite and only then find nothing to
    // compare or write.
    let needs_ipt = [
        ("--compare-bench gates", compare_bench.is_some()),
        ("--jsonl writes", jsonl.is_some()),
    ];
    for (flag, given) in needs_ipt {
        if given && !IPT_EXPERIMENTS.contains(&experiment.as_str()) {
            return Err(ArgError::Refused(format!(
                "{flag} ipt cells and experiment '{experiment}' produces none; \
                 use --experiment {}",
                IPT_EXPERIMENTS.join("|")
            )));
        }
    }
    Ok(Run {
        experiment,
        options,
        jsonl,
        bench_json,
        compare_bench,
    })
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
    let parsed = Args::parse(&REPRO, std::env::args().skip(1));
    if parsed.as_ref().is_ok_and(|a| a.help) {
        print!("{}", loom_cli::usage(SYNOPSIS, &[REPRO]));
        return;
    }
    let run = match parsed.and_then(|a| run_of(&a)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let opts = run.options;

    // Read the committed baseline BEFORE the run and any write: with
    // the default --bench-json path, `--compare-bench
    // BENCH_results.json` names the same file the fresh summary is
    // about to land in, and a write-then-read would gate the fresh run
    // against itself. A missing or corrupt baseline is not a quality
    // violation: it exits with its own code (3).
    let baseline = run.compare_bench.as_ref().map(|path| {
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
        if run.experiment != "all" && run.experiment != *name {
            continue;
        }
        let text = run_suite(name, &opts, &mut all_results);
        suites_run.push(name);
        println!("{text}\n");
    }

    if let Some(path) = &run.jsonl {
        let rows = suites::jsonl(&all_results);
        write_or_exit(path, &rows);
        eprintln!("wrote {} result rows to {path}", rows.lines().count());
    }
    if all_results.is_empty() {
        return; // no ipt cells: nothing to summarise or gate
    }
    let summary =
        BenchSummary::from_results(opts.scale.name(), opts.seed, &suites_run, &all_results);
    if let Some(path) = &run.bench_json {
        if run.compare_bench.as_deref() == Some(path.as_str()) {
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
    if let (Some(path), Some(baseline)) = (&run.compare_bench, &baseline) {
        let report = bench_compare::compare(baseline, &summary);
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

    fn run(list: &[&str]) -> Result<Run, String> {
        Args::parse(&REPRO, list.iter().map(|s| s.to_string()))
            .and_then(|a| run_of(&a))
            .map_err(|e| e.to_string())
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        // Regression: `repro --experiment fig99` used to select zero
        // suites and exit 0 silently.
        let err = run(&["--experiment", "fig99"])
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
            assert!(run(&["--experiment", e]).is_ok(), "{e} should be accepted");
        }
    }

    #[test]
    fn defaults_to_all() {
        let r = run(&[]).unwrap();
        assert_eq!(r.experiment, "all");
        assert_eq!(r.bench_json.as_deref(), Some("BENCH_results.json"));
    }

    /// Regressions: `--experiment fig4 --compare-bench ...` ran the
    /// suite, then panicked finding no system rows to gate; `--experiment
    /// table1 --jsonl x.jsonl` ran the suite, then wrote an empty file
    /// and exited 0.
    #[test]
    fn compare_bench_needs_ipt_cells() {
        for (flag, value) in [
            ("--compare-bench", "BENCH_results.json"),
            ("--jsonl", "x.jsonl"),
        ] {
            for e in EXPERIMENTS {
                let parsed = run(&["--experiment", e, flag, value]);
                if IPT_EXPERIMENTS.contains(&e) {
                    assert!(parsed.is_ok(), "{e} {flag}: has ipt cells");
                } else {
                    let err = parsed.err().expect("no ipt cells must be rejected");
                    assert!(
                        err.contains(flag) && err.contains(e) && err.contains("fig7"),
                        "{err}"
                    );
                }
            }
        }
    }
}
