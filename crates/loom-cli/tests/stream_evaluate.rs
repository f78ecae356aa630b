//! The offline route to a stream's final workload ipt: `loom stream
//! --out` writes the final assignment, and `loom evaluate` runs the
//! workload over it with `count_ipt`. The expected values are what the
//! engine printed at its final snapshot when it could still measure
//! ipt in-stream (ProvGen at tiny scale, seed 5, k 4, a 50 000-match
//! cap per query), so both measurements agree on the same assignment.

use std::process::Command;

fn loom(args: &[&str]) -> String {
    let o = Command::new(env!("CARGO_BIN_EXE_loom"))
        .args(args)
        .output()
        .expect("spawn loom");
    assert!(o.status.success(), "loom {args:?}: {o:?}");
    String::from_utf8(o.stdout).expect("utf-8 stdout")
}

#[test]
fn stream_out_then_evaluate_reports_the_final_ipt() {
    let dir = std::env::temp_dir().join(format!("loom-cli-stream-eval-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (g, wl, rows) = (path("g.lg"), path("w.lw"), path("rows.tsv"));
    loom(&[
        "generate",
        "--dataset",
        "provgen",
        "--scale",
        "tiny",
        "--seed",
        "5",
        "--out",
        &g,
    ]);
    loom(&["workload", "--dataset", "provgen", "--out", &wl]);

    for (system, want) in [("loom", "563.8"), ("hash", "1243.0")] {
        loom(&[
            "stream",
            "--input",
            &g,
            "--workload",
            &wl,
            "--k",
            "4",
            "--system",
            system,
            "--snapshot-every",
            "0",
            "--out",
            &rows,
        ]);
        let report = loom(&[
            "evaluate",
            "--graph",
            &g,
            "--workload",
            &wl,
            "--assignment",
            &rows,
            "--limit",
            "50000",
        ]);
        let first = report.lines().next().unwrap_or_default();
        assert!(
            first.starts_with(&format!("weighted ipt {want} over ")),
            "{system}: {first}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
