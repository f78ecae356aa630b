//! End-to-end `loom serve` checks through the real binary: a serve
//! run's ingest output must be byte-identical to a `loom stream` twin
//! (minus the `queries` snapshot segment), live TCP readers must get
//! protocol-correct replies while ingest runs, and `loom query` must
//! work as the client.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn loom() -> Command {
    Command::new(env!("CARGO_BIN_EXE_loom"))
}

/// The shared stream definition both twins run.
const COMMON: &[&str] = &[
    "--k",
    "3",
    "--source",
    "synthetic",
    "--system",
    "ldg",
    "--seed",
    "11",
    "--max-edges",
    "30000",
    "--snapshot-every",
    "5000",
];

/// Spawn `loom serve`, scrape the bound address off stderr, hand the
/// child and address back. Stderr is consumed line by line so the
/// child never blocks on a full pipe.
fn spawn_serve(extra: &[&str]) -> (Child, String, std::thread::JoinHandle<Vec<String>>) {
    let mut child = loom()
        .arg("serve")
        .args(COMMON)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn loom serve");
    let stderr = child.stderr.take().expect("stderr piped");
    let (tx, rx) = std::sync::mpsc::channel();
    let drain = std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(stderr).lines() {
            let line = line.unwrap_or_default();
            if let Some(addr) = line.strip_prefix("serve: listening on ") {
                let _ = tx.send(addr.to_string());
            }
            lines.push(line);
        }
        lines
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("serve never printed its listen address");
    (child, addr, drain)
}

fn wait_with_stdout(child: Child) -> (String, i32) {
    let out = child.wait_with_output().expect("serve exits");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        out.status.code().unwrap_or(-1),
    )
}

/// Strip the serving-only snapshot segment, leaving the byte-exact
/// `loom stream` line (the same transform ci.sh applies).
fn strip_queries(s: &str) -> String {
    s.lines()
        .map(|l| match l.find("  queries ") {
            Some(i) => &l[..i],
            None => l,
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// One raw TCP reader issuing the full mix against a live server;
/// returns its OK-reply count.
fn reader(addr: &str, rounds: usize) -> u64 {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;
    let mut ok = 0u64;
    for _ in 0..rounds {
        for req in ["STATS", "EPOCH", "KHOP 5 2 2000", "PART 9", "HELP"] {
            w.write_all(format!("{req}\n").as_bytes()).expect("send");
            let mut line = String::new();
            r.read_line(&mut line).expect("recv");
            assert!(line.starts_with("OK "), "{req} -> {line}");
            ok += 1;
        }
    }
    let _ = w.write_all(b"QUIT\n");
    ok
}

/// The tentpole acceptance at the binary level: four concurrent
/// readers over live ingest, every reply well-formed, and the ingest
/// output byte-identical to the `loom stream` twin — snapshots
/// (queries segment aside), summary shape, and exit code.
#[test]
fn serve_is_byte_identical_to_stream_with_live_readers() {
    let stream_out = loom()
        .arg("stream")
        .args(COMMON)
        .output()
        .expect("run loom stream");
    assert!(stream_out.status.success());
    let stream_stdout = String::from_utf8(stream_out.stdout).unwrap();
    assert!(
        stream_stdout.contains("snapshot"),
        "twin printed no snapshots: {stream_stdout}"
    );
    assert!(
        !stream_stdout.contains("queries"),
        "stream must not print a serving segment"
    );

    // Paced so the readers demonstrably overlap live ingest. The
    // linger is a cap, not a sleep: the server exits as soon as every
    // reader has sent QUIT, so a generous value only buys headroom for
    // slow contended runs (single-core CI), it never costs wall clock.
    let (child, addr, drain) = spawn_serve(&["--pace-ms", "10", "--linger-ms", "30000"]);
    let t0 = Instant::now();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || reader(&addr, 6))
        })
        .collect();
    let mut served = 0u64;
    for r in readers {
        served += r.join().expect("reader thread");
    }
    assert_eq!(served, 4 * 6 * 5, "every request must be answered OK");
    // 30000 edges / 1024 per pause * 10ms ≈ 290ms of pacing: readers
    // finishing before ingest+linger ends were genuinely concurrent.
    let (serve_stdout, code) = wait_with_stdout(child);
    assert_eq!(code, 0, "serve exit code");
    assert!(t0.elapsed() >= Duration::from_millis(250));

    let stderr_lines = drain.join().expect("stderr drain");
    let summary = stderr_lines
        .iter()
        .find(|l| l.starts_with("serve: ") && l.contains("served"))
        .expect("serve summary line");
    assert!(summary.contains("served"), "{summary}");

    assert!(
        serve_stdout.contains("  queries "),
        "serve snapshots must carry the queries segment: {serve_stdout}"
    );
    assert_eq!(
        strip_queries(&serve_stdout),
        stream_stdout,
        "serve ingest output diverged from the stream twin"
    );
}

/// `loom query` as the client: replies on stdout, summary on stderr,
/// zero exit.
#[test]
fn query_subcommand_talks_to_a_live_server() {
    let (child, addr, drain) = spawn_serve(&["--pace-ms", "5", "--linger-ms", "30000"]);
    let out = loom()
        .args([
            "query",
            "--connect",
            &addr,
            "--request",
            "STATS; EPOCH ;KHOP 0 2",
            "--count",
            "3",
        ])
        .output()
        .expect("run loom query");
    assert!(out.status.success(), "query exit: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 9, "3 requests × 3 rounds");
    for line in stdout.lines() {
        assert!(line.starts_with("OK "), "{line}");
    }
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("query: 9 ok, 0 err"), "{stderr}");
    let (_, code) = wait_with_stdout(child);
    assert_eq!(code, 0);
    drain.join().expect("stderr drain");
}

/// Malformed requests over the wire answer one `ERR` line each and
/// never kill the connection or the server.
#[test]
fn malformed_requests_get_err_lines_over_tcp() {
    let (child, addr, drain) = spawn_serve(&["--pace-ms", "5", "--linger-ms", "30000"]);
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;
    for req in ["BOGUS", "KHOP", "KHOP x 1", "MATCH 0", "PART abc", ""] {
        w.write_all(format!("{req}\n").as_bytes()).expect("send");
        let mut line = String::new();
        r.read_line(&mut line).expect("recv");
        assert!(line.starts_with("ERR "), "{req:?} -> {line:?}");
    }
    // The connection survived the garbage.
    w.write_all(b"STATS\n").expect("send");
    let mut line = String::new();
    r.read_line(&mut line).expect("recv");
    assert!(line.starts_with("OK stats"), "{line}");
    let _ = w.write_all(b"QUIT\n");
    let (_, code) = wait_with_stdout(child);
    assert_eq!(code, 0);
    drain.join().expect("stderr drain");
}

/// `--query-log` writes one `micros<TAB>request<TAB>reply` row per
/// request the handler answered, over whatever the file held before.
#[test]
fn query_log_has_one_row_per_request() {
    let log = std::env::temp_dir().join(format!("loom-query-log-{}.tsv", std::process::id()));
    std::fs::write(&log, "a stale row from an earlier run\n").unwrap();
    let (child, addr, drain) = spawn_serve(&[
        "--pace-ms",
        "5",
        "--linger-ms",
        "30000",
        "--query-log",
        log.to_str().unwrap(),
    ]);
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;
    let requests = ["STATS", "PART 9", "KHOP 5 2 2000", "BOGUS", "EPOCH"];
    let mut replies = Vec::new();
    for req in requests {
        w.write_all(format!("{req}\n").as_bytes()).expect("send");
        let mut line = String::new();
        r.read_line(&mut line).expect("recv");
        replies.push(line.trim_end().to_string());
    }
    let _ = w.write_all(b"QUIT\n");
    let (_, code) = wait_with_stdout(child);
    assert_eq!(code, 0);
    drain.join().expect("stderr drain");

    let text = std::fs::read_to_string(&log).unwrap();
    let _ = std::fs::remove_file(&log);
    let rows: Vec<&str> = text.lines().collect();
    assert_eq!(rows.len(), requests.len(), "one row per request:\n{text}");
    for ((row, req), reply) in rows.iter().zip(requests).zip(&replies) {
        let fields: Vec<&str> = row.splitn(3, '\t').collect();
        assert_eq!(fields.len(), 3, "{row:?}");
        assert!(fields[0].parse::<u64>().is_ok(), "micros: {row:?}");
        assert_eq!(fields[1], req, "{row:?}");
        assert_eq!(fields[2], reply, "{row:?}");
    }
}

/// `--help` prints usage and exits 0 for every command — the original
/// `loom stream --help` regression, end to end.
#[test]
fn help_flag_works_on_every_command() {
    for cmd in [
        "generate",
        "workload",
        "motifs",
        "partition",
        "evaluate",
        "stream",
        "serve",
        "query",
        "help",
    ] {
        let out = loom().args([cmd, "--help"]).output().expect("run");
        assert!(out.status.success(), "{cmd} --help exit");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.contains("loom <command>"),
            "{cmd} --help printed no usage"
        );
    }
}
