//! A std-only newline-delimited request/response TCP server for the
//! `loom serve` read path (DESIGN.md §16 + appendix B).
//!
//! Shape: one accept thread (nonblocking accept + shutdown flag) and
//! one thread per connection. The connection thread reads a request
//! line, runs the protocol handler inline and writes the reply itself,
//! under a socket write timeout — so a client that stops reading stalls
//! only its own connection (the write blocks, times out, and the
//! connection is torn down), never the ingest thread and never other
//! readers.
//!
//! The one admission limit is the connection cap: at
//! `max_connections`, a new connection is answered with a single
//! `ERR busy ...` line and closed, and counted into
//! [`ServeMetrics::refused`]. Each connection runs its requests one at
//! a time, so queries executing at once never exceed open connections.
//!
//! A request line longer than 4 KiB is answered `ERR request too long`
//! and the connection closed, so a client streaming bytes without a
//! newline cannot grow server memory.
//!
//! The server knows nothing about graphs: it owns framing, admission
//! and lifecycle, and delegates every request line to an opaque
//! `Fn(&str) -> String` handler (loom-query's protocol interpreter in
//! production, trivial closures in tests).

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::ServeMetrics;

/// Tunables for [`LineServer`]. `Default` matches the `loom serve`
/// CLI defaults.
#[derive(Clone, Debug)]
pub struct LineServerConfig {
    /// Maximum concurrent connections; further connects are refused
    /// with `ERR busy` and closed.
    pub max_connections: usize,
    /// Socket write timeout; a client that stops reading for this long
    /// has its connection torn down.
    pub write_timeout_ms: u64,
}

impl Default for LineServerConfig {
    fn default() -> Self {
        LineServerConfig {
            max_connections: 64,
            write_timeout_ms: 2_000,
        }
    }
}

/// The per-request protocol interpreter: request line in (no trailing
/// newline), single reply line out (newline appended by the server).
pub type LineHandler = Arc<dyn Fn(&str) -> String + Send + Sync>;

/// Poll granularity for the nonblocking accept loop and for connection
/// threads noticing shutdown.
const POLL: Duration = Duration::from_millis(25);

/// Longest request line accepted, newline included. The longest valid
/// request, an 8-label `MATCH` with a limit, is under 100 bytes.
const MAX_REQUEST_BYTES: usize = 4096;

struct ServerShared {
    config: LineServerConfig,
    handler: LineHandler,
    metrics: Arc<ServeMetrics>,
    shutdown: AtomicBool,
    active: AtomicUsize,
    accepted: AtomicU64,
    refused_connections: AtomicU64,
}

/// A running newline-delimited TCP server. Stops (and joins all
/// threads) on [`LineServer::shutdown`] or drop.
pub struct LineServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl LineServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting. Every request line is answered by `handler`;
    /// latencies and refusals are recorded into `metrics`.
    pub fn start(
        addr: impl ToSocketAddrs,
        config: LineServerConfig,
        handler: LineHandler,
        metrics: Arc<ServeMetrics>,
    ) -> std::io::Result<LineServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            config,
            handler,
            metrics,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            refused_connections: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(LineServer {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far (including ones since closed).
    pub fn connections_accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Connections refused at the `max_connections` cap.
    pub fn connections_refused(&self) -> u64 {
        self.shared.refused_connections.load(Ordering::Relaxed)
    }

    /// Currently open connections.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Stop accepting, wake every connection, and join all server
    /// threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for LineServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for LineServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineServer")
            .field("addr", &self.addr)
            .field("active", &self.active_connections())
            .finish_non_exhaustive()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nonblocking(false);
                if shared.active.load(Ordering::SeqCst) >= shared.config.max_connections {
                    refuse_connection(stream, &shared);
                    continue;
                }
                shared.active.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(&shared);
                conns.push(std::thread::spawn(move || {
                    connection_loop(stream, &conn_shared);
                    conn_shared.active.fetch_sub(1, Ordering::SeqCst);
                }));
                // Reap finished connections so a long-lived server does
                // not accumulate dead JoinHandles.
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Over the connection cap: one loud refusal line, then close.
fn refuse_connection(mut stream: TcpStream, shared: &ServerShared) {
    shared.refused_connections.fetch_add(1, Ordering::Relaxed);
    shared.metrics.record_refusal();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(shared.config.write_timeout_ms)));
    let _ = stream.write_all(
        format!(
            "ERR busy: connection limit {} reached\n",
            shared.config.max_connections
        )
        .as_bytes(),
    );
}

fn connection_loop(stream: TcpStream, shared: &ServerShared) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(shared.config.write_timeout_ms)));
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        // A timed-out read leaves its partial prefix in `line`
        // (read_until appends), so resuming is lossless; the budget
        // caps the whole line, prefix included.
        let budget = (MAX_REQUEST_BYTES - line.len()) as u64;
        match (&mut reader).take(budget).read_until(b'\n', &mut line) {
            Ok(0) => break, // EOF: client closed or dropped
            Ok(_) if line.len() == MAX_REQUEST_BYTES && !line.ends_with(b"\n") => {
                return reply_and_close(reader, "ERR request too long", shared);
            }
            Ok(_) => {
                let Ok(request) = std::str::from_utf8(&line) else {
                    return reply_and_close(reader, "ERR request is not valid utf-8", shared);
                };
                let request = request.trim();
                if request == "QUIT" {
                    let _ = write_reply(reader.get_mut(), "OK bye");
                    break;
                }
                let reply = answer(request, shared);
                line.clear();
                if write_reply(reader.get_mut(), &reply).is_err() {
                    break; // client gone or stalled past the write timeout
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => break,
        }
    }
}

/// Answer a request the connection cannot survive, then close it.
/// Closing with unread input resets the connection, which can destroy
/// the reply before the client reads it; so the reply is followed by a
/// FIN, and input is discarded until the client closes or the write
/// timeout passes.
fn reply_and_close(mut reader: BufReader<TcpStream>, reply: &str, shared: &ServerShared) {
    let stream = reader.get_mut();
    if write_reply(stream, reply).is_err() || stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + Duration::from_millis(shared.config.write_timeout_ms);
    let mut discard = [0u8; 4096];
    while Instant::now() < deadline && !shared.shutdown.load(Ordering::SeqCst) {
        match reader.read(&mut discard) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
}

/// Execute one request, recording its latency.
fn answer(request: &str, shared: &ServerShared) -> String {
    if request.is_empty() {
        return "ERR empty request".to_string();
    }
    let t0 = Instant::now();
    let reply = (shared.handler)(request);
    shared
        .metrics
        .record(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
    reply
}

/// One reply line on the wire: the reply, then the newline, in two
/// writes.
fn write_reply(stream: &mut TcpStream, reply: &str) -> std::io::Result<()> {
    stream.write_all(reply.as_bytes())?;
    stream.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server(config: LineServerConfig) -> (LineServer, Arc<ServeMetrics>) {
        let metrics = Arc::new(ServeMetrics::new());
        let handler: LineHandler = Arc::new(|req: &str| format!("OK echo {req}"));
        let server = LineServer::start("127.0.0.1:0", config, handler, Arc::clone(&metrics))
            .expect("bind loopback");
        (server, metrics)
    }

    fn client(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn roundtrip(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        request: &str,
    ) -> String {
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    #[test]
    fn echoes_lines_and_quits() {
        let (mut server, metrics) = echo_server(LineServerConfig::default());
        let (mut stream, mut reader) = client(server.local_addr());
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "hello"),
            "OK echo hello"
        );
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "again"),
            "OK echo again"
        );
        assert_eq!(roundtrip(&mut stream, &mut reader, "QUIT"), "OK bye");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "", "server closes after QUIT");
        assert_eq!(metrics.served(), 2, "QUIT is lifecycle, not a query");
        server.shutdown();
    }

    #[test]
    fn empty_and_whitespace_requests_get_err_not_a_hang() {
        let (mut server, _metrics) = echo_server(LineServerConfig::default());
        let (mut stream, mut reader) = client(server.local_addr());
        assert_eq!(roundtrip(&mut stream, &mut reader, ""), "ERR empty request");
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "   "),
            "ERR empty request"
        );
        assert_eq!(roundtrip(&mut stream, &mut reader, "x"), "OK echo x");
        server.shutdown();
    }

    #[test]
    fn non_utf8_request_is_refused_and_connection_closed() {
        let (mut server, _metrics) = echo_server(LineServerConfig::default());
        let (mut stream, mut reader) = client(server.local_addr());
        stream.write_all(&[0xff, 0xfe, b'\n']).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "ERR request is not valid utf-8");
        // The server dropped this connection but keeps serving others.
        let (mut s2, mut r2) = client(server.local_addr());
        assert_eq!(roundtrip(&mut s2, &mut r2, "still up"), "OK echo still up");
        server.shutdown();
    }

    #[test]
    fn connection_dropped_mid_line_does_not_wedge_the_server() {
        let (mut server, _metrics) = echo_server(LineServerConfig::default());
        {
            let (mut stream, _reader) = client(server.local_addr());
            // Half a request, no newline — then vanish.
            stream.write_all(b"KHOP 12").unwrap();
        }
        let (mut s2, mut r2) = client(server.local_addr());
        assert_eq!(roundtrip(&mut s2, &mut r2, "alive"), "OK echo alive");
        server.shutdown();
        assert_eq!(server.active_connections(), 0);
    }

    #[test]
    fn connection_cap_refuses_loudly() {
        let (mut server, metrics) = echo_server(LineServerConfig {
            max_connections: 1,
            ..LineServerConfig::default()
        });
        let (mut s1, mut r1) = client(server.local_addr());
        assert_eq!(roundtrip(&mut s1, &mut r1, "first"), "OK echo first");
        let (_s2, mut r2) = client(server.local_addr());
        let mut reply = String::new();
        r2.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "ERR busy: connection limit 1 reached");
        assert_eq!(server.connections_refused(), 1);
        assert_eq!(metrics.refused(), 1);
        // First connection is unaffected.
        assert_eq!(roundtrip(&mut s1, &mut r1, "still"), "OK echo still");
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_idle_connections() {
        let (mut server, _metrics) = echo_server(LineServerConfig::default());
        let (_stream, _reader) = client(server.local_addr());
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        server.shutdown(); // joins accept + connection threads
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "shutdown must not hang on an idle connection"
        );
    }

    #[test]
    fn overlong_request_is_refused_and_connection_closed() {
        let (mut server, _metrics) = echo_server(LineServerConfig::default());
        let (stream, mut reader) = client(server.local_addr());
        // 1 MiB with no newline: the server stops reading at the cap,
        // so this write may fail once the connection is gone.
        let mut hostile = stream.try_clone().unwrap();
        let flood = std::thread::spawn(move || {
            let _ = hostile.write_all(&vec![b'A'; 1 << 20]);
        });
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "ERR request too long");
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "then EOF");
        flood.join().unwrap();
        // The server dropped this connection but keeps serving others.
        let (mut s2, mut r2) = client(server.local_addr());
        assert_eq!(roundtrip(&mut s2, &mut r2, "still up"), "OK echo still up");
        server.shutdown();
    }

    #[test]
    fn a_client_that_never_reads_is_torn_down_and_stalls_no_one_else() {
        let write_timeout_ms = 100;
        let metrics = Arc::new(ServeMetrics::new());
        // 64 KiB replies fill both socket buffers in a few dozen requests.
        let handler: LineHandler = Arc::new(|req: &str| match req {
            "BIG" => "x".repeat(64 << 10),
            _ => format!("OK echo {req}"),
        });
        let mut server = LineServer::start(
            "127.0.0.1:0",
            LineServerConfig {
                write_timeout_ms,
                ..LineServerConfig::default()
            },
            handler,
            metrics,
        )
        .unwrap();

        // Pipeline requests and never read a reply.
        let mut stalled = TcpStream::connect(server.local_addr()).unwrap();
        stalled
            .set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let pipeliner = std::thread::spawn(move || {
            for _ in 0..4096 {
                if stalled.write_all(b"BIG\n").is_err() {
                    break; // the server tore the connection down
                }
            }
            stalled // keep it open, unread, until joined
        });

        // Every reply reaches a second client meanwhile, and the
        // stalled connection goes away on its own.
        let (mut s2, mut r2) = client(server.local_addr());
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut served = 0;
        while server.active_connections() > 1 || served < 20 {
            assert!(
                Instant::now() < deadline,
                "stalled connection still open after 10 s"
            );
            let request = format!("ping {served}");
            assert_eq!(
                roundtrip(&mut s2, &mut r2, &request),
                format!("OK echo {request}")
            );
            served += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.active_connections(), 1, "only the reading client");
        let _stalled = pipeliner.join().unwrap();

        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown must not hang"
        );
    }
}
