//! `repro`'s command line through the real binary: `--help` lists every
//! flag and runs nothing; a line it cannot take exits 2 naming the
//! argument.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn help_names_every_flag_and_runs_nothing() {
    for help in ["--help", "-h"] {
        let o = repro(&[help]);
        assert_eq!(o.status.code(), Some(0), "{help}: {o:?}");
        let stdout = String::from_utf8_lossy(&o.stdout);
        for flag in [
            "experiment",
            "scale",
            "seed",
            "jsonl",
            "bench-json",
            "compare-bench",
        ] {
            assert!(
                stdout.contains(&format!("--{flag} ")),
                "{help}: no --{flag} in\n{stdout}"
            );
        }
        assert!(
            !stdout.contains("# Loom reproduction"),
            "{help} ran a suite"
        );
    }
}

#[test]
fn unknown_and_retired_arguments_exit_2_naming_them() {
    for (line, named) in [
        (&["--bogus", "x"][..], "--bogus"),
        (&["-e", "fig4"][..], "'-e'"),
        (&["-s", "tiny"][..], "'-s'"),
    ] {
        let o = repro(line);
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(2), "{line:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(named),
            "{line:?}: {stderr}"
        );
    }
}
