//! End-to-end crash-recovery checks through the real `loom` binary:
//! a run stopped with `--stop-after` and resumed with `--resume true`
//! must be indistinguishable from one uninterrupted run, and every
//! WAL misuse must be refused with a message that says why.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn loom() -> Command {
    Command::new(env!("CARGO_BIN_EXE_loom"))
}

/// A per-test scratch directory under the system temp dir, recreated
/// empty on every run and removed on drop (kept on panic, so a failed
/// test leaves its WAL behind for inspection).
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("loom-cli-{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// `loom stream` over the deterministic synthetic feed with the flags
/// every test shares, plus `extra`.
fn stream(extra: &[&str]) -> Output {
    let base = [
        "stream",
        "--k",
        "3",
        "--source",
        "synthetic",
        "--system",
        "ldg",
        "--seed",
        "7",
        "--snapshot-every",
        "2000",
    ];
    loom()
        .args(base)
        .args(extra)
        .output()
        .expect("failed to spawn the loom binary")
}

fn stdout(o: &Output) -> String {
    String::from_utf8(o.stdout.clone()).unwrap()
}

fn stderr(o: &Output) -> String {
    String::from_utf8(o.stderr.clone()).unwrap()
}

fn assert_ok(o: &Output, what: &str) {
    assert!(
        o.status.success(),
        "{what} failed:\n--- stdout\n{}\n--- stderr\n{}",
        stdout(o),
        stderr(o)
    );
}

/// Expect failure, with `needle` somewhere in stderr.
fn assert_refused(o: &Output, needle: &str, what: &str) {
    assert!(!o.status.success(), "{what} unexpectedly succeeded");
    let err = stderr(o);
    assert!(
        err.contains(needle),
        "{what}: stderr lacks '{needle}':\n{err}"
    );
}

/// Drop the `  wal ...` segment from every snapshot line — the one
/// addition a WAL makes to stdout.
fn strip_wal_segment(out: &str) -> String {
    out.lines()
        .map(|l| match l.find("  wal ") {
            Some(i) => &l[..i],
            None => l,
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

fn read(p: &Path) -> Vec<u8> {
    std::fs::read(p).unwrap_or_else(|e| panic!("reading {}: {e}", p.display()))
}

#[test]
fn stopped_then_resumed_equals_uninterrupted() {
    let s = Scratch::new("stop-resume");
    let wal = s.path("wal");
    let wal = wal.to_str().unwrap();

    let reference = stream(&[
        "--max-edges",
        "6000",
        "--out",
        s.path("ref.tsv").to_str().unwrap(),
    ]);
    assert_ok(&reference, "reference run");

    // Stop mid-stream, off every cadence (2500 is neither a snapshot
    // nor a checkpoint boundary), leaving a journal tail past the
    // newest checkpoint.
    let stopped = stream(&[
        "--max-edges",
        "6000",
        "--wal",
        wal,
        "--checkpoint-every",
        "1000",
        "--stop-after",
        "2500",
        "--out",
        s.path("stop.tsv").to_str().unwrap(),
    ]);
    assert_ok(&stopped, "stopped run");
    assert!(
        stderr(&stopped).contains("stopped cleanly after 2500 edges"),
        "stop banner missing:\n{}",
        stderr(&stopped)
    );

    let resumed = stream(&[
        "--max-edges",
        "6000",
        "--wal",
        wal,
        "--checkpoint-every",
        "1000",
        "--resume",
        "true",
        "--out",
        s.path("res.tsv").to_str().unwrap(),
    ]);
    assert_ok(&resumed, "resumed run");
    let banner = stderr(&resumed);
    assert!(
        banner.contains("2500 edges durable") && banner.contains("500 replayed"),
        "resume banner wrong:\n{banner}"
    );

    // The strong check: the resumed run's final assignment is
    // byte-identical to the uninterrupted one.
    assert_eq!(
        read(&s.path("res.tsv")),
        read(&s.path("ref.tsv")),
        "resumed assignment diverged from the uninterrupted run"
    );
    // And its snapshot lines — minus the wal segment — are exactly
    // the tail the first process had not yet printed.
    let stripped = strip_wal_segment(&stdout(&resumed));
    assert!(
        stdout(&reference).ends_with(&stripped),
        "resumed snapshots are not a suffix of the reference:\n\
         --- reference\n{}--- resumed (stripped)\n{stripped}",
        stdout(&reference)
    );
}

#[test]
fn wal_on_stdout_is_byte_identical_after_stripping() {
    let s = Scratch::new("wal-invisible");
    let plain = stream(&["--max-edges", "5000"]);
    assert_ok(&plain, "WAL-off run");
    let walled = stream(&[
        "--max-edges",
        "5000",
        "--wal",
        s.path("wal").to_str().unwrap(),
        "--checkpoint-every",
        "2000",
    ]);
    assert_ok(&walled, "WAL-on run");
    assert_eq!(
        strip_wal_segment(&stdout(&walled)),
        stdout(&plain),
        "a WAL must not change any quality figure"
    );
    // The closing banner carries only quality figures, so it needs no
    // stripping at all.
    assert_eq!(stderr(&walled), stderr(&plain));
}

#[test]
fn wal_misuse_is_refused_loudly() {
    let s = Scratch::new("refusals");
    let wal = s.path("wal");
    let wal = wal.to_str().unwrap();

    // WAL flags without a WAL directory.
    let o = stream(&["--max-edges", "100", "--checkpoint-every", "50"]);
    assert_refused(&o, "give --wal", "--checkpoint-every without --wal");

    // Resuming from nothing.
    let o = stream(&["--max-edges", "100", "--wal", wal, "--resume", "true"]);
    assert_refused(&o, "nothing to resume", "resume from an empty dir");

    // Seed a real WAL, then resume under a different configuration.
    let o = stream(&[
        "--wal",
        wal,
        "--checkpoint-every",
        "1000",
        "--stop-after",
        "1500",
    ]);
    assert_ok(&o, "seeding run");
    let o = loom()
        .args([
            "stream",
            "--k",
            "4",
            "--source",
            "synthetic",
            "--system",
            "ldg",
            "--seed",
            "7",
            "--snapshot-every",
            "2000",
            "--max-edges",
            "6000",
            "--wal",
            wal,
            "--checkpoint-every",
            "1000",
            "--resume",
            "true",
        ])
        .output()
        .unwrap();
    assert_refused(&o, "config mismatch", "resume with a different --k");

    // Attaching a fresh WAL over durable state.
    let o = stream(&[
        "--max-edges",
        "6000",
        "--wal",
        wal,
        "--checkpoint-every",
        "1000",
    ]);
    assert_refused(
        &o,
        "already holds a journal",
        "re-attach over an existing WAL",
    );

    // A cap below what is already durable.
    let o = stream(&[
        "--max-edges",
        "1000",
        "--wal",
        wal,
        "--checkpoint-every",
        "1000",
        "--resume",
        "true",
    ]);
    assert_refused(&o, "past the requested cap", "resume past --max-edges");

    // --resume is an explicit boolean, like every other loom flag.
    let o = stream(&["--max-edges", "100", "--wal", wal, "--resume", "yes"]);
    assert_refused(&o, "true or false", "--resume with a non-boolean");
}
