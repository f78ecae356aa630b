//! Hostile and retired flag values through the real `loom` binary: each
//! must be refused with exit 1 and an `error:` line naming the flag —
//! never a panic (exit 101) from an assert deep in a linked crate, an
//! abort on a size nothing bounded, or a silent success that ignores
//! what the operator asked for.

use std::process::Command;

fn loom() -> Command {
    Command::new(env!("CARGO_BIN_EXE_loom"))
}

#[test]
fn hostile_and_retired_flags_are_named_errors() {
    let dir = std::env::temp_dir().join(format!("loom-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let workload = dir.join("q.lw");
    let graph = dir.join("g.lg");
    let parts = dir.join("parts.tsv");
    let absent = dir.join("absent.lg");
    let (wl, g, parts, absent) = (
        workload.to_str().unwrap(),
        graph.to_str().unwrap(),
        parts.to_str().unwrap(),
        absent.to_str().unwrap(),
    );
    for setup in [
        vec!["workload", "--dataset", "dblp", "--out", wl],
        vec![
            "generate",
            "--dataset",
            "dblp",
            "--scale",
            "tiny",
            "--out",
            g,
        ],
        vec![
            "partition",
            "--graph",
            g,
            "--k",
            "2",
            "--system",
            "hash",
            "--out",
            parts,
        ],
    ] {
        let o = loom().args(&setup).output().expect("spawn loom");
        assert!(o.status.success(), "setup {setup:?} failed: {o:?}");
    }

    // Every base line is valid on its own; only the appended flag is not.
    let online = |cmd| {
        vec![
            cmd,
            "--k",
            "2",
            "--source",
            "synthetic",
            "--max-edges",
            "1000",
            "--system",
            "loom",
            "--workload",
            wl,
        ]
    };
    let (stream, serve) = (online("stream"), online("serve"));
    let partition = vec![
        "partition",
        "--graph",
        g,
        "--k",
        "2",
        "--system",
        "loom",
        "--workload",
        wl,
    ];
    let motifs = vec!["motifs", "--workload", wl];
    let evaluate = vec![
        "evaluate",
        "--graph",
        g,
        "--workload",
        wl,
        "--assignment",
        parts,
    ];
    // The same lines with one flag left out, for the rows that set it.
    let unsized_lines = [&stream, &serve, &partition].map(|base| without(base, "--k"));
    let unlabeled = without(&stream, "--workload");
    let unsystemed = [&partition, &stream].map(|base| without(base, "--system"));
    let unqueried = unsystemed.clone().map(|base| without(&base, "--workload"));
    let query = vec!["query", "--connect", "127.0.0.1:9"];
    // A workload whose header declares 70 000 labels.
    let wide = dir.join("wide.lw");
    let header = (0..70_000).map(|i| format!(" l{i}")).collect::<String>();
    let text = std::fs::read_to_string(wl).unwrap();
    let text = text.replacen(
        text.lines().find(|l| l.starts_with("labels")).unwrap(),
        &format!("labels{header}"),
        1,
    );
    std::fs::write(&wide, text).unwrap();
    let wide = wide.to_str().unwrap();

    let mut cases: Vec<(&Vec<&str>, [&str; 2], String)> = Vec::new();
    for base in [&stream, &serve, &partition] {
        cases.push((base, ["--window", "0"], "error: --window".into()));
    }
    for base in [&stream, &serve, &partition, &motifs] {
        for bad in ["5", "-1", "NaN"] {
            cases.push((base, ["--threshold", bad], "error: --threshold".into()));
        }
    }
    for bad in ["0", "1"] {
        cases.push((&motifs, ["--prime", bad], "error: --prime".into()));
    }
    // Past 32 bits every signature factor was silently truncated.
    cases.push((
        &motifs,
        ["--prime", "4294967311"],
        "error: --prime must be <= 4294967295".into(),
    ));
    for base in [&stream, &serve] {
        cases.push((base, ["--input", absent], "error: --input".into()));
        for retired in [
            ["--threads", "2"],
            ["--shards", "2"],
            ["--batch", "1"],
            ["--probe-limit", "10"],
        ] {
            let want = format!("error: unknown flag {}", retired[0]);
            cases.push((base, retired, want));
        }
    }
    // The connection cap is the one admission limit.
    cases.push((
        &serve,
        ["--max-inflight", "4"],
        "error: unknown flag --max-inflight".into(),
    ));

    // Sizes that aborted on a 32-78 GB allocation (an abort, exit 134);
    // the error names the bound.
    let huge = "4000000000";
    for base in &unsized_lines {
        cases.push((base, ["--k", huge], "error: --k must be <= 65536".into()));
    }
    for base in [&stream, &serve, &partition] {
        cases.push((
            base,
            ["--window", huge],
            "error: --window must be <= 16777216".into(),
        ));
    }
    for base in [&stream, &serve] {
        cases.push((
            base,
            ["--labels", huge],
            "error: --labels must be <= 4096".into(),
        ));
    }
    cases.push((
        &unlabeled,
        ["--workload", wide],
        "error: --workload declares 70000 labels; at most 4096".into(),
    ));
    // Every view would retain nothing, and every KHOP/MATCH answer OK
    // with nothing.
    cases.push((
        &serve,
        ["--serve-horizon", "0"],
        "error: --serve-horizon must be >= 1".into(),
    ));

    // A match cap of 0 counted nothing and reported a perfect ipt 0.0.
    cases.push((
        &evaluate,
        ["--limit", "0"],
        "error: --limit must be >= 1".into(),
    ));

    // One map from names to systems, and one factory behind it.
    for base in &unsystemed {
        cases.push((
            base,
            ["--system", "bogus"],
            "error: unknown system 'bogus'".into(),
        ));
    }
    for base in &unqueried {
        cases.push((
            base,
            ["--system", "loom"],
            "error: --system loom needs --workload (the query patterns to optimise for)".into(),
        ));
    }
    // Refused before connecting: a count of 0 sent nothing, then
    // failed with `no replies received`.
    cases.push((
        &query,
        ["--count", "0"],
        "error: --count must be >= 1".into(),
    ));

    for (base, [flag, value], want) in &cases {
        let o = loom()
            .args(*base)
            .args([flag, value])
            .output()
            .expect("spawn loom");
        let stderr = String::from_utf8_lossy(&o.stderr);
        let what = format!("{} {flag} {value}", base[0]);
        assert_eq!(o.status.code(), Some(1), "{what}: exit code\n{stderr}");
        assert!(stderr.starts_with(want.as_str()), "{what}: {stderr:?}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    }
    // System names are case-insensitive.
    for base in &unsystemed {
        let o = loom()
            .args(base)
            .args(["--system", "LoOm"])
            .output()
            .expect("spawn loom");
        assert!(o.status.success(), "{} --system LoOm: {o:?}", base[0]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `base` without `flag` and its value.
fn without<'a>(base: &[&'a str], flag: &str) -> Vec<&'a str> {
    let i = base
        .iter()
        .position(|t| *t == flag)
        .expect("flag in the base line");
    [&base[..i], &base[i + 2..]].concat()
}
