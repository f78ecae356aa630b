//! A workload may name a label its graph or feed never shows. Through
//! the real `loom` binary, such a query label matches nothing: every
//! command that partitions or measures under it exits 0 with ipt 0,
//! and an alphabet past the supported size is a named error — never a
//! panic (exit 101) from an index deep in a linked crate. A workload
//! the model cannot hold (a frequency that is not positive and finite,
//! a self-loop, a disconnected pattern) is a `line N:` error too.

use std::process::{Command, Output};

fn loom(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loom"))
        .args(args)
        .output()
        .expect("spawn loom")
}

/// A query over labels 0, 1 and `extra`, for a two-label graph.
fn workload(extra: u16) -> String {
    format!("labels a b\nquery q 1.0\nql 0 1 {extra}\nqe 0 1\nqe 1 2\nend\n")
}

#[test]
fn workload_labels_the_graph_lacks_match_nothing() {
    let dir = std::env::temp_dir().join(format!("loom-cli-labels-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (graph, wl, big, parts) = (
        path("g.lg"),
        path("q.lw"),
        path("big.lw"),
        path("parts.tsv"),
    );
    std::fs::write(&graph, "labels a b\nv 0\nv 1\nv 0\ne 0 1\ne 1 2\n").unwrap();
    std::fs::write(&wl, workload(7)).unwrap();
    std::fs::write(&big, workload(5000)).unwrap();

    let partition = |w: &str| {
        loom(&[
            "partition",
            "--graph",
            &graph,
            "--workload",
            w,
            "--k",
            "2",
            "--system",
            "loom",
            "--out",
            &parts,
        ])
    };
    let o = partition(&wl);
    assert!(o.status.success(), "partition: {o:?}");

    let o = loom(&[
        "evaluate",
        "--graph",
        &graph,
        "--workload",
        &wl,
        "--assignment",
        &parts,
    ]);
    assert!(o.status.success(), "evaluate: {o:?}");
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(
        stdout.starts_with("weighted ipt 0.0 over 0 matches;"),
        "evaluate: {stdout}"
    );

    let o = partition(&big);
    assert_eq!(o.status.code(), Some(1), "partition past MAX_LABELS: {o:?}");
    assert_eq!(
        String::from_utf8_lossy(&o.stderr),
        "error: --workload declares 5001 labels; at most 4096 are supported\n"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Workloads the parser must refuse, each with the line it names.
#[test]
fn hostile_workloads_are_refused_naming_the_line() {
    let dir = std::env::temp_dir().join(format!("loom-cli-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = "ql 0 0\nqe 0 1\nend\n";
    let mut files = Vec::new();
    for freq in ["NaN", "-1", "inf", "0"] {
        files.push((format!("labels a\nquery q {freq}\n{path}"), "line 2:"));
    }
    files.push((
        "labels a\nquery q 1\nql 0 0\nqe 0 0\nend\n".into(),
        "line 4:",
    ));
    files.push((
        "labels a\nquery q 1\nql 0 0 0 0\nqe 0 1\nqe 2 3\nend\n".into(),
        "line 6:",
    ));
    files.push((
        format!("labels a\nquery p 1e308\n{path}query q 1e308\n{path}"),
        "line 6:",
    ));
    files.push((format!("labels a\nquery q 1\n{path}query r 1\n"), "line 6:"));
    for (i, (text, want)) in files.iter().enumerate() {
        let wl = dir.join(format!("hostile{i}.lw"));
        std::fs::write(&wl, text).unwrap();
        let o = loom(&["motifs", "--workload", wl.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(1), "{text:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: parse error: {want}")),
            "{text:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
