//! `loom query` against a server that accepts the connection and never
//! answers: it gives up after its reply timeout with a named error and
//! a non-zero exit, instead of waiting forever.

use std::io::Read;
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn query_gives_up_on_a_server_that_never_replies() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    // Accept and hold the connection open, reading nothing back.
    let silent = std::thread::spawn(move || listener.accept().map(|(conn, _)| conn));
    let mut child = Command::new(env!("CARGO_BIN_EXE_loom"))
        .args(["query", "--connect", &addr, "--request", "STATS"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn loom query");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll loom query") {
            break status;
        }
        if started.elapsed() > Duration::from_secs(40) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("loom query still waiting after 40 s on a server that never replies");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: query: no reply within 10s to 'STATS'"),
        "stderr: {stderr}"
    );
    drop(silent.join().expect("listener thread"));
}
