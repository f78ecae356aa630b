//! The read side: a loopback `LineServer` over the engine's published
//! views, as `loom serve` wires it, and closed-loop clients.
//!
//! Closed loop on purpose: `loom query` callers wait for each reply,
//! and while a request costs a fixed ~44 ms of transport a fixed-rate
//! ladder has nothing to show. Two connections, one thread each, sized
//! for the 2-core box next to one ingest thread. Latency is timed on
//! the client, request write to reply line read.

use crate::trace::{Tracer, NO_PARENT};
use loom_core::runtime::{LineHandler, LineServer, LineServerConfig};
use loom_core::ServeHandle;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;

/// SplitMix64: the benchmark's own generator, so that inputs depend on
/// `--seed` and nothing else.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded request mix of both serve workloads: 60% `PART v`, 25%
/// `KHOP v 2 5000`, 10% `MATCH 0-1 500`, 5% `STATS`. Vertices are drawn
/// skewed toward low ids — the hubs of both generators.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub seed: u64,
    pub num_vertices: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Part,
    Khop,
    Match,
    Stats,
}

impl Mix {
    pub fn rng(&self, stream: u64) -> Rng {
        Rng(self.seed ^ stream.wrapping_mul(0xd1342543de82ef95))
    }

    pub fn vertex(&self, rng: &mut Rng) -> u32 {
        let r = rng.next_f64();
        (r * r * self.num_vertices as f64) as u32
    }

    pub fn request_of(&self, kind: Kind, rng: &mut Rng, out: &mut String) {
        use std::fmt::Write as _;
        out.clear();
        let _ = match kind {
            Kind::Part => write!(out, "PART {}", self.vertex(rng)),
            Kind::Khop => write!(out, "KHOP {} 2 5000", self.vertex(rng)),
            Kind::Match => write!(out, "MATCH 0-1 500"),
            Kind::Stats => write!(out, "STATS"),
        };
    }

    pub fn next_request(&self, rng: &mut Rng, out: &mut String) {
        let kind = match rng.next_u64() % 100 {
            0..=59 => Kind::Part,
            60..=84 => Kind::Khop,
            85..=94 => Kind::Match,
            _ => Kind::Stats,
        };
        self.request_of(kind, rng, out);
    }
}

/// What the clients of one read section saw.
#[derive(Default)]
pub struct ReadOut {
    /// Client-seen latency of every reply, ns.
    pub latency_ns: Vec<u64>,
    pub sent: u64,
    /// Replies not starting `OK`, refusals, timeouts, dropped
    /// connections.
    pub failed: u64,
    /// Clients ready → clients joined.
    pub elapsed_s: f64,
    /// `edges` of the view the server holds when the section ends.
    pub final_view_edges: u64,
    pub client_spans: Vec<Tracer>,
}

impl ReadOut {
    pub fn absorb(&mut self, other: ReadOut) {
        self.latency_ns.extend(other.latency_ns);
        self.sent += other.sent;
        self.failed += other.failed;
        self.elapsed_s += other.elapsed_s;
        self.final_view_edges = other.final_view_edges;
        self.client_spans.extend(other.client_spans);
    }

    pub fn qps(&self) -> f64 {
        self.latency_ns.len() as f64 / self.elapsed_s
    }
}

/// The server `loom serve` starts: every request line is answered from
/// the newest published view.
pub fn start_server(handle: &ServeHandle) -> LineServer {
    let cell = Arc::clone(&handle.view);
    let handler: LineHandler = Arc::new(move |line: &str| {
        let view = cell.load();
        loom_core::query::handle_request(view.as_deref(), line)
    });
    LineServer::start(
        "127.0.0.1:0",
        LineServerConfig::default(),
        handler,
        Arc::clone(&handle.metrics),
    )
    .expect("bind a loopback port")
}

struct ClientOut {
    latency_ns: Vec<u64>,
    sent: u64,
    failed: u64,
    spans: Option<Tracer>,
}

/// One closed-loop connection: send, wait for the reply line, repeat
/// until `stop`. A first `EPOCH` round trip marks the client ready and
/// is not recorded; the mix starts once the server holds a view with
/// edges in it (the empty view `loom serve` publishes at start-up knows
/// one label, so it answers `MATCH 0-1` with `ERR label 1 out of range`).
fn client(
    addr: SocketAddr,
    handle: &ServeHandle,
    mix: Mix,
    index: usize,
    stop: &AtomicBool,
    ready: &AtomicUsize,
    mut spans: Option<Tracer>,
) -> ClientOut {
    let mut out = ClientOut {
        latency_ns: Vec::new(),
        sent: 0,
        failed: 0,
        spans: None,
    };
    let mut rng = mix.rng(index as u64 + 1);
    let mut request = String::new();
    let mut reply = String::new();
    let mut connected = None;
    if let Ok(stream) = TcpStream::connect(addr) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        if let Ok(clone) = stream.try_clone() {
            connected = Some((stream, BufReader::new(clone)));
        }
    }
    let Some((mut writer, mut reader)) = connected else {
        ready.fetch_add(1, Ordering::SeqCst);
        out.sent = 1;
        out.failed = 1;
        return out;
    };
    let greeted = writer.write_all(b"EPOCH\n").is_ok()
        && matches!(reader.read_line(&mut reply), Ok(n) if n > 0);
    ready.fetch_add(1, Ordering::SeqCst);
    if !greeted {
        out.sent = 1;
        out.failed = 1;
        return out;
    }
    while handle.view.load().is_none_or(|v| v.edges == 0) && !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_micros(50));
    }
    while !stop.load(Ordering::Relaxed) {
        mix.next_request(&mut rng, &mut request);
        request.push('\n');
        reply.clear();
        let span = spans
            .as_mut()
            .map(|t| t.begin("client.request", NO_PARENT, 0));
        let t0 = Instant::now();
        let ok = writer.write_all(request.as_bytes()).is_ok()
            && matches!(reader.read_line(&mut reply), Ok(n) if n > 0);
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some(t), Some(id)) = (spans.as_mut(), span) {
            t.end(id);
        }
        out.sent += 1;
        if !ok {
            // Timed out or dropped: a closed loop cannot go on.
            out.failed += 1;
            break;
        }
        out.latency_ns.push(ns);
        out.failed += !reply.starts_with("OK") as u64;
    }
    let _ = writer.write_all(b"QUIT\n");
    out.spans = spans;
    out
}

/// Run `work` on this thread while `CLIENTS` connections cycle the mix
/// against a server over `handle`; the clients stop when `work`
/// returns. With `sinks`, every request is a span.
pub fn live_clients<T>(
    handle: &ServeHandle,
    mix: Mix,
    sinks: Option<Vec<Tracer>>,
    work: impl FnOnce() -> T,
) -> (T, ReadOut) {
    let mut server = start_server(handle);
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    let ready = AtomicUsize::new(0);
    let mut sinks = sinks.map(|s| s.into_iter());
    let (value, outs, elapsed_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let sink = sinks.as_mut().and_then(|s| s.next());
                let (stop, ready) = (&stop, &ready);
                scope.spawn(move || client(addr, handle, mix, i, stop, ready, sink))
            })
            .collect();
        while ready.load(Ordering::SeqCst) < CLIENTS {
            std::thread::sleep(Duration::from_micros(200));
        }
        let t0 = Instant::now();
        let value = work();
        stop.store(true, Ordering::SeqCst);
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (value, outs, t0.elapsed().as_secs_f64())
    });
    server.shutdown();
    let mut reads = ReadOut {
        elapsed_s,
        final_view_edges: handle.view.load().map_or(0, |v| v.edges),
        ..ReadOut::default()
    };
    for o in outs {
        reads.latency_ns.extend(o.latency_ns);
        reads.sent += o.sent;
        reads.failed += o.failed;
        reads.client_spans.extend(o.spans);
    }
    (value, reads)
}

/// Reads only: the clients cycle the mix for `seconds` against the
/// view `handle` already holds.
pub fn read_section(
    handle: &ServeHandle,
    mix: Mix,
    seconds: f64,
    sinks: Option<Vec<Tracer>>,
) -> ReadOut {
    live_clients(handle, mix, sinks, || {
        std::thread::sleep(Duration::from_secs_f64(seconds))
    })
    .1
}

/// One connection's round trip of `EPOCH` — the cheapest request there
/// is, so what is left is the transport. Median of `samples`, in µs.
pub fn line_rtt_us(handle: &ServeHandle, samples: usize) -> f64 {
    let mut server = start_server(handle);
    let stream = TcpStream::connect(server.local_addr()).expect("connect to the loopback port");
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(stream.try_clone().expect("clone the socket"));
    let mut writer = stream;
    let mut reply = String::new();
    let mut rtt = Vec::with_capacity(samples);
    // Linux acknowledges the first segments of a connection at once;
    // the steady state starts after them, so they are sent unrecorded.
    let warm = samples.min(20);
    for i in 0..samples + warm {
        reply.clear();
        let t0 = Instant::now();
        let ok = writer.write_all(b"EPOCH\n").is_ok()
            && matches!(reader.read_line(&mut reply), Ok(n) if n > 0);
        if ok && i >= warm {
            rtt.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    let _ = writer.write_all(b"QUIT\n");
    server.shutdown();
    crate::stats::median(&rtt)
}
