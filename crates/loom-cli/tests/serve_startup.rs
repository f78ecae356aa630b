//! The view `loom serve` publishes before its first edge already knows
//! the stream's declared label alphabet: a reader that connects early
//! gets `count=0` for a `MATCH` on a declared label, not
//! `ERR label 1 out of range`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

#[test]
fn start_up_view_answers_match_for_the_declared_alphabet() {
    // One publication cadence beyond the stream and a paced source:
    // until ingest ends, the start-up view is the only one there is.
    let mut child = Command::new(env!("CARGO_BIN_EXE_loom"))
        .args([
            "serve",
            "--k",
            "3",
            "--source",
            "synthetic",
            "--system",
            "ldg",
        ])
        .args(["--labels", "4", "--max-edges", "4000", "--pace-ms", "400"])
        .args(["--publish-every", "1000000"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn loom serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).expect("read stderr") > 0,
            "serve exited before listening"
        );
        if let Some(addr) = line.trim().strip_prefix("serve: listening on ") {
            break addr.to_string();
        }
    };
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    let mut ask = |request: &str| {
        (&stream)
            .write_all(format!("{request}\n").as_bytes())
            .expect("send");
        let mut line = String::new();
        replies.read_line(&mut line).expect("recv");
        line.trim_end().to_string()
    };
    assert_eq!(ask("EPOCH"), "OK epoch=1 edges=0", "not the start-up view");
    assert_eq!(ask("MATCH 0-1"), "OK match pattern=0-1 count=0 capped=0");
    assert_eq!(ask("MATCH 2-3 5"), "OK match pattern=2-3 count=0 capped=0");
    assert_eq!(ask("MATCH 0-4"), "ERR label 4 out of range (labels 4)");
    assert_eq!(ask("QUIT"), "OK bye");
    // Drain stderr so the child never blocks on the pipe, then reap it.
    for line in stderr.lines() {
        line.expect("read stderr");
    }
    assert!(child.wait().expect("serve exits").success());
}
