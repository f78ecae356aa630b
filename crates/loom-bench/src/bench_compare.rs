//! The CI quality gate: compare the summary of a fresh run against the
//! committed `BENCH_results.json`.
//!
//! Quality numbers (`weighted_ipt`, `imbalance`) are deterministic
//! functions of the seed, so the gate demands they match *exactly* —
//! any drift means a PR changed partitioning behaviour without saying
//! so. `ms_per_10k_edges` is Table 2's wall-clock column: it is written
//! and printed for information but never gated. Throughput is measured
//! from outside by `benchmark/` (`benchmark -- compare`).
//!
//! One struct, one writer ([`BenchSummary::to_json`]) and one reader
//! ([`BenchSummary::parse`], hand-rolled against that fixed shape — the
//! workspace is offline and carries no JSON dependency). A summary
//! built from results carries exactly the digits the file does, so the
//! gate compares the fresh value with the parsed committed file
//! directly.

use loom_core::{ExperimentResult, System, SystemResult};

/// One system's summary row.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemSummary {
    /// System name ("Hash", "LDG", "Fennel", "Loom").
    pub name: String,
    /// Mean wall milliseconds per 10k edges across ipt cells (ungated).
    pub ms_per_10k_edges: f64,
    /// Mean frequency-weighted workload ipt across ipt cells.
    pub weighted_ipt: f64,
    /// Mean imbalance across ipt cells.
    pub imbalance: f64,
    /// Number of ipt cells averaged.
    pub cells: u64,
}

/// A run summary: what `--bench-json` writes and `BENCH_results.json`
/// holds.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSummary {
    /// Dataset scale the run used.
    pub scale: String,
    /// Master seed.
    pub seed: u64,
    /// Suites that ran, in run order.
    pub suites: Vec<String>,
    /// Total ipt cells.
    pub cells: u64,
    /// Per-system rows, in `System::ALL` order.
    pub systems: Vec<SystemSummary>,
}

/// `x` as the `decimals`-place number the summary file carries.
fn written(x: f64, decimals: usize) -> f64 {
    format!("{x:.decimals$}")
        .parse()
        .expect("a formatted f64 parses")
}

/// The text following `"key":` in `text` (first match), leading
/// whitespace trimmed.
fn after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    Some(text[text.find(&needle)? + needle.len()..].trim_start())
}

/// Extract the number following `"key": ` in `text` (first match).
fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = after(text, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract the string following `"key": "` in `text` (first match).
fn string_after(text: &str, key: &str) -> Option<String> {
    let rest = after(text, key)?.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extract the string array following `"key": [` in `text`.
fn strings_after(text: &str, key: &str) -> Option<Vec<String>> {
    let rest = after(text, key)?.strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    body.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| Some(s.strip_prefix('"')?.strip_suffix('"')?.to_string()))
        .collect()
}

impl SystemSummary {
    fn from_rows(name: &str, rows: &[&SystemResult]) -> SystemSummary {
        let n = rows.len() as f64;
        let mean = |f: fn(&SystemResult) -> f64| rows.iter().map(|&s| f(s)).sum::<f64>() / n;
        SystemSummary {
            name: name.to_string(),
            ms_per_10k_edges: written(mean(|s| s.ms_per_10k_edges()), 3),
            weighted_ipt: written(mean(|s| s.weighted_ipt), 4),
            imbalance: written(mean(|s| s.metrics.imbalance), 5),
            cells: rows.len() as u64,
        }
    }
}

impl BenchSummary {
    /// Summarise a run: per-system means over every ipt cell in
    /// `results`, rounded to the digits the file carries.
    pub fn from_results(
        scale: &str,
        seed: u64,
        suites: &[&str],
        results: &[ExperimentResult],
    ) -> BenchSummary {
        let systems = System::ALL
            .into_iter()
            .filter_map(|sys| {
                let rows: Vec<&SystemResult> =
                    results.iter().filter_map(|r| r.system(sys)).collect();
                (!rows.is_empty()).then(|| SystemSummary::from_rows(sys.name(), &rows))
            })
            .collect();
        BenchSummary {
            scale: scale.to_string(),
            seed,
            suites: suites.iter().map(|s| s.to_string()).collect(),
            cells: results.len() as u64,
            systems,
        }
    }

    /// The `BENCH_results.json` text: one system row per line.
    pub fn to_json(&self) -> String {
        let suites: Vec<String> = self.suites.iter().map(|s| format!("\"{s}\"")).collect();
        let rows: Vec<String> = self
            .systems
            .iter()
            .map(|s| {
                format!(
                    "    \"{}\": {{\"ms_per_10k_edges\": {:.3}, \"weighted_ipt\": {:.4}, \"imbalance\": {:.5}, \"cells\": {}}}",
                    s.name, s.ms_per_10k_edges, s.weighted_ipt, s.imbalance, s.cells
                )
            })
            .collect();
        format!(
            "{{\n  \"scale\": \"{}\",\n  \"seed\": {},\n  \"suites\": [{}],\n  \"cells\": {},\n  \"systems\": {{\n{}\n  }}\n}}\n",
            self.scale,
            self.seed,
            suites.join(", "),
            self.cells,
            rows.join(",\n")
        )
    }

    /// Parse the format [`BenchSummary::to_json`] writes. Returns a
    /// message naming what is malformed otherwise.
    pub fn parse(text: &str) -> Result<BenchSummary, String> {
        let scale = string_after(text, "scale").ok_or("missing \"scale\"")?;
        let seed = number_after(text, "seed").ok_or("missing \"seed\"")? as u64;
        let suites = strings_after(text, "suites").ok_or("missing \"suites\"")?;
        let cells = number_after(text, "cells").ok_or("missing \"cells\"")? as u64;
        let systems_at = text
            .find("\"systems\"")
            .ok_or("missing \"systems\" object")?;
        let mut systems = Vec::new();
        for line in text[systems_at..].lines().skip(1) {
            let line = line.trim().trim_end_matches(',');
            if !line.contains("ms_per_10k_edges") {
                continue;
            }
            let name = line
                .strip_prefix('"')
                .and_then(|r| r.find('"').map(|i| r[..i].to_string()))
                .ok_or_else(|| format!("unparsable system row: {line}"))?;
            let get = |key: &str| {
                number_after(line, key).ok_or_else(|| format!("row '{name}' missing {key}"))
            };
            systems.push(SystemSummary {
                ms_per_10k_edges: get("ms_per_10k_edges")?,
                weighted_ipt: get("weighted_ipt")?,
                imbalance: get("imbalance")?,
                cells: get("cells")? as u64,
                name,
            });
        }
        if systems.is_empty() {
            return Err("no system rows found".into());
        }
        Ok(BenchSummary {
            scale,
            seed,
            suites,
            cells,
            systems,
        })
    }
}

/// Outcome of a gate run: the human-readable before/after table and
/// every failure, one message per violated rule (empty = gate passes).
#[derive(Clone, Debug)]
pub struct GateReport {
    /// Markdown before/after table.
    pub table: String,
    /// Violations; the gate passes iff this is empty.
    pub failures: Vec<String>,
}

impl GateReport {
    /// True when no rule was violated.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare a fresh run against the committed baseline.
///
/// Rules: the run shape (scale, seed, cells and the system set) must
/// match, and every system's `weighted_ipt`, `imbalance` and cell count
/// must be bit-equal. `ms_per_10k_edges` is shown, never gated.
pub fn compare(baseline: &BenchSummary, fresh: &BenchSummary) -> GateReport {
    let mut failures = Vec::new();
    if baseline.scale != fresh.scale || baseline.seed != fresh.seed {
        failures.push(format!(
            "run shape changed: baseline scale '{}' seed {} vs fresh scale '{}' seed {}",
            baseline.scale, baseline.seed, fresh.scale, fresh.seed
        ));
    }
    if baseline.cells != fresh.cells {
        failures.push(format!(
            "ipt cell count changed: {} -> {} (suite selection drifted)",
            baseline.cells, fresh.cells
        ));
    }

    let mut rows = Vec::new();
    for base in &baseline.systems {
        let Some(new) = fresh.systems.iter().find(|s| s.name == base.name) else {
            failures.push(format!("system '{}' missing from the fresh run", base.name));
            continue;
        };
        let mut status = "ok";
        for (field, was, now) in [
            ("weighted_ipt", base.weighted_ipt, new.weighted_ipt),
            ("imbalance", base.imbalance, new.imbalance),
        ] {
            if was.to_bits() != now.to_bits() {
                status = "FAIL";
                failures.push(format!(
                    "{}: {field} drifted {was} -> {now} (quality must be bit-stable)",
                    base.name
                ));
            }
        }
        if new.cells != base.cells {
            status = "FAIL";
            failures.push(format!(
                "{}: ipt cells changed {} -> {}",
                base.name, base.cells, new.cells
            ));
        }
        rows.push(format!(
            "| {} | {:.4} | {:.5} | {:.3} | {:.3} | {} |",
            base.name,
            new.weighted_ipt,
            new.imbalance,
            base.ms_per_10k_edges,
            new.ms_per_10k_edges,
            status
        ));
    }
    for new in &fresh.systems {
        if !baseline.systems.iter().any(|s| s.name == new.name) {
            failures.push(format!(
                "system '{}' appeared without a committed baseline",
                new.name
            ));
        }
    }

    let table = format!(
        "| system | weighted_ipt | imbalance | ms/10k committed | ms/10k fresh (ungated) | status |\n|---|---|---|---|---|---|\n{}\n",
        rows.join("\n")
    );
    GateReport { table, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchSummary {
        let row = |name: &str, ms, ipt, imbalance| SystemSummary {
            name: name.to_string(),
            ms_per_10k_edges: ms,
            weighted_ipt: ipt,
            imbalance,
            cells: 24,
        };
        BenchSummary {
            scale: "small".into(),
            seed: 42,
            suites: vec!["fig7".into(), "fig8".into()],
            cells: 24,
            systems: vec![
                row("Hash", 0.087, 38985.4146, 0.05314),
                row("Loom", 3.033, 19998.9554, 0.08989),
            ],
        }
    }

    fn next_ulp(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn parses_the_writer_format() {
        let s = sample();
        assert_eq!(BenchSummary::parse(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn summary_of_real_results_round_trips() {
        let mut cfg = loom_core::ExperimentConfig::evaluation_defaults(
            loom_core::graph::DatasetKind::ProvGen,
            loom_core::graph::Scale::Tiny,
            loom_core::graph::StreamOrder::BreadthFirst,
        );
        cfg.k = 2;
        cfg.limit_per_query = 5_000;
        let results = [loom_core::run_experiment(&cfg)];
        let s = BenchSummary::from_results("tiny", 42, &["fig8"], &results);
        assert_eq!(s.cells, 1);
        assert_eq!(s.systems.len(), System::ALL.len());
        assert_eq!(BenchSummary::parse(&s.to_json()).unwrap(), s);
        assert!(compare(&s, &s).passed());
    }

    #[test]
    fn parses_the_committed_baseline() {
        // The hand-edited committed file must parse, hold the quality
        // digits, and be exactly what the writer would produce.
        let text = include_str!("../../../BENCH_results.json");
        let s = BenchSummary::parse(text).expect("committed BENCH_results.json unparsable");
        assert_eq!((s.scale.as_str(), s.seed, s.cells), ("small", 42, 24));
        let names: Vec<&str> = s.systems.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["Hash", "LDG", "Fennel", "Loom"]);
        let loom = &s.systems[3];
        assert_eq!((loom.weighted_ipt, loom.imbalance), (19998.9554, 0.08989));
        assert_eq!(s.to_json(), text);
    }

    #[test]
    fn truncated_baseline_is_a_named_error_not_a_panic() {
        // A partially-written baseline (interrupted run, bad merge)
        // must surface as Err naming the first missing field — the
        // gate binary maps any such Err to its own exit code.
        let full = sample().to_json();
        assert!(BenchSummary::parse("").unwrap_err().contains("scale"));
        // Cut before the systems object: header parses, rows do not.
        let cut = &full[..full.find("\"systems\"").unwrap()];
        assert!(BenchSummary::parse(cut).unwrap_err().contains("systems"));
        // Cut mid-row: the row line that survives is complete (rows
        // are one line each), but the second system vanishes — still
        // a parse success, so the *gate* must flag the missing system.
        let cut = &full[..full.find("\"Loom\"").unwrap()];
        let partial = BenchSummary::parse(cut).expect("complete rows still parse");
        assert_eq!(partial.systems.len(), 1);
        assert!(
            !compare(&partial, &sample()).passed(),
            "a system missing from the baseline must fail the gate"
        );
    }

    #[test]
    fn corrupt_row_names_the_field() {
        let broken = sample()
            .to_json()
            .replace("\"weighted_ipt\": 19998.9554", "\"weighted_ipt\": oops");
        let err = BenchSummary::parse(&broken).unwrap_err();
        assert!(
            err.contains("Loom") && err.contains("weighted_ipt"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn identical_runs_pass() {
        let r = compare(&sample(), &sample());
        assert!(r.passed(), "failures: {:?}", r.failures);
        assert!(r.table.contains("| Loom |"));
    }

    #[test]
    fn faster_is_not_a_failure() {
        let mut fresh = sample();
        fresh.systems[1].ms_per_10k_edges = 1.0;
        assert!(compare(&sample(), &fresh).passed());
    }

    #[test]
    fn tenfold_ms_change_passes() {
        for factor in [10.0, 0.1] {
            let mut fresh = sample();
            for s in &mut fresh.systems {
                s.ms_per_10k_edges *= factor;
            }
            let r = compare(&sample(), &fresh);
            assert!(r.passed(), "x{factor}: {:?}", r.failures);
        }
    }

    #[test]
    fn quality_drift_fails_exactly() {
        let mut ipt = sample();
        ipt.systems[1].weighted_ipt = next_ulp(ipt.systems[1].weighted_ipt);
        let r = compare(&sample(), &ipt);
        assert!(!r.passed());
        assert!(r.failures[0].contains("weighted_ipt"), "{:?}", r.failures);
        assert!(r.table.contains("FAIL"));

        let mut imbalance = sample();
        imbalance.systems[0].imbalance = next_ulp(imbalance.systems[0].imbalance);
        let r = compare(&sample(), &imbalance);
        assert!(!r.passed());
        assert!(r.failures[0].contains("imbalance"), "{:?}", r.failures);
    }

    #[test]
    fn missing_system_fails() {
        let mut fresh = sample();
        fresh.systems.pop();
        let r = compare(&sample(), &fresh);
        assert!(!r.passed());
        assert!(r.failures[0].contains("missing"), "{:?}", r.failures);
    }

    #[test]
    fn extra_system_fails() {
        let mut fresh = sample();
        let mut extra = fresh.systems[1].clone();
        extra.name = "Loom@t4".into();
        fresh.systems.push(extra);
        let r = compare(&sample(), &fresh);
        assert!(!r.passed());
        assert!(r.failures[0].contains("Loom@t4"), "{:?}", r.failures);
    }

    #[test]
    fn run_shape_change_fails() {
        let changes: [fn(&mut BenchSummary); 3] = [
            |s| s.cells = 12,
            |s| s.scale = "tiny".into(),
            |s| s.seed = 7,
        ];
        for change in changes {
            let mut fresh = sample();
            change(&mut fresh);
            let r = compare(&sample(), &fresh);
            assert!(!r.passed(), "{fresh:?} passed the gate");
        }
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(BenchSummary::parse("{}").is_err());
        assert!(BenchSummary::parse("not json at all").is_err());
    }
}
