//! Golden digests of `loom partition` rows: one FNV-1a digest per
//! system on a fixed input (ProvGen at tiny scale, seed 7, k 4,
//! breadth-first order), plus Loom on a random order, two restream
//! passes over a random-order LDG run, and three TAPER refinement
//! rounds over a breadth-first Loom run. A change to how a system is
//! built or driven, restreamed or refined that moves a single
//! placement moves its digest.

use std::process::Command;

fn loom(args: &[&str]) -> Vec<u8> {
    let o = Command::new(env!("CARGO_BIN_EXE_loom"))
        .args(args)
        .output()
        .expect("spawn loom");
    assert!(o.status.success(), "loom {args:?}: {o:?}");
    o.stdout
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn partition_rows_match_their_golden_digests() {
    let dir = std::env::temp_dir().join(format!("loom-cli-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.lg");
    let workload = dir.join("q.lw");
    let (g, wl) = (graph.to_str().unwrap(), workload.to_str().unwrap());
    loom(&[
        "generate",
        "--dataset",
        "provgen",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--out",
        g,
    ]);
    loom(&["workload", "--dataset", "provgen", "--out", wl]);

    for (system, order, extra, want) in [
        ("hash", "bfs", &[][..], 0xfa81_357b_2187_2db7u64),
        ("ldg", "bfs", &[], 0xe1d2_a386_16cc_8126),
        ("fennel", "bfs", &[], 0xe62a_5330_da32_94f6),
        ("loom", "bfs", &[], 0x0bcf_8699_4328_9d7a),
        ("loom", "random", &[], 0x3e89_eeb6_df64_095d),
        ("ldg", "random", &["--restream", "2"], 0xfa91_ec70_9a9a_3630),
        ("loom", "bfs", &["--refine", "3"], 0x20b1_d62c_1566_7e10),
    ] {
        let mut args = vec![
            "partition",
            "--graph",
            g,
            "--workload",
            wl,
            "--k",
            "4",
            "--seed",
            "7",
            "--order",
            order,
            "--system",
            system,
        ];
        args.extend_from_slice(extra);
        let rows = loom(&args);
        assert_eq!(rows.iter().filter(|&&b| b == b'\n').count(), 1238);
        let got = fnv1a(&rows);
        assert_eq!(
            got, want,
            "{system} over the {order} order {extra:?}: {got:#x}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
