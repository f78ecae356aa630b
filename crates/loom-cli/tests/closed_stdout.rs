//! A reader that closes `loom stream`'s stdout early (`| head -1`)
//! ends the output quietly: no panic, no exit 101.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn stream_ends_quietly_when_its_reader_hangs_up() {
    // 2 000 snapshot lines, far more than a pipe buffers, so the run
    // is still writing when the reader leaves.
    let mut child = Command::new(env!("CARGO_BIN_EXE_loom"))
        .args([
            "stream",
            "--k",
            "4",
            "--source",
            "synthetic",
            "--max-edges",
            "200000",
            "--snapshot-every",
            "100",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn loom");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("snapshot"), "{first:?}");
    // The reader is dropped here: the pipe is closed.
    let o = child.wait_with_output().expect("wait for loom");
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert_ne!(o.status.code(), Some(101), "{stderr}");
    assert!(o.status.success(), "{:?}: {stderr}", o.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
