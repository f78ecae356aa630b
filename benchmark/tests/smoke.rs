//! Runs the whole suite in `--smoke` mode and holds it against
//! `BENCHMARK.json`: the (workload, metric) names emitted must equal the
//! names declared, in both directions, so the JSON and the harness
//! cannot drift.

use loom_benchmark::json::Json;
use loom_benchmark::metrics::{END_TO_END, PER_LAYER};
use loom_benchmark::workload::WORKLOADS;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn declared() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("parse it")
}

fn names(list: &Json) -> BTreeSet<String> {
    list.as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn tables_match_benchmark_json() {
    let json = declared();
    let e2e = json.get("end_to_end").expect("end_to_end");
    assert_eq!(e2e.as_arr().len(), END_TO_END.len());
    for (d, m) in e2e.as_arr().iter().zip(END_TO_END) {
        assert_eq!(d.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(
            d.get("unit").and_then(Json::as_str),
            Some(m.unit),
            "{}",
            m.name
        );
        assert_eq!(
            d.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
        assert_eq!(
            d.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
        assert!(m.bound <= 0.25);
    }
    let layers = json.get("per_layer").expect("per_layer");
    assert_eq!(layers.as_arr().len(), PER_LAYER.len());
    for (d, m) in layers.as_arr().iter().zip(PER_LAYER) {
        assert_eq!(d.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(
            d.get("unit").and_then(Json::as_str),
            Some(m.unit),
            "{}",
            m.name
        );
        assert_eq!(
            d.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
    }
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let declared: Vec<&str> = json
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("a name"))
        .collect();
    assert_eq!(declared, workloads);
}

#[test]
fn smoke_run_emits_exactly_the_declared_names() {
    let json = declared();
    let want = [
        names(json.get("end_to_end").expect("end_to_end")),
        names(json.get("per_layer").expect("per_layer")),
    ];
    for name in want.iter().flatten() {
        assert!(well_formed(name), "ill-formed metric name {name:?}");
    }

    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("smoke-test-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_loom-benchmark"))
        .args(["all", "--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("run the suite");
    assert!(status.success(), "the smoke suite failed a check");
    let results =
        Json::parse(&std::fs::read_to_string(&out).expect("read the results")).expect("parse them");
    let _ = std::fs::remove_file(&out);

    let mut seen = BTreeSet::new();
    for run in results.get("runs").expect("runs").as_arr() {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .expect("workload");
        let traced = run.get("trace").and_then(Json::as_f64).expect("trace") as usize;
        assert_eq!(run.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(run.get("failed").and_then(Json::as_f64), Some(0.0));
        let emitted: BTreeSet<String> = run
            .get("metrics")
            .expect("metrics")
            .entries()
            .iter()
            .map(|(name, _)| name.clone())
            .collect();
        assert_eq!(emitted, want[traced], "{workload} trace {traced}");
        seen.insert((workload.to_string(), traced));
    }
    let expect: BTreeSet<(String, usize)> = WORKLOADS
        .iter()
        .flat_map(|w| [(w.name.to_string(), 0), (w.name.to_string(), 1)])
        .collect();
    assert_eq!(seen, expect);
}
