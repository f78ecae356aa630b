//! Spans recorded from the benchmark's own files, around the calls
//! into each layer (choosing-metrics §4): kept in memory, written as
//! one JSON object per line when the run ends. A span names the layer
//! call it wraps, the span that caused it, and the pass it belongs to.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub pass: u32,
    /// 0 = the ingest thread; 1.. = client connections.
    pub thread: u32,
}

/// Span sink of one thread. Client threads each own one (sharing the
/// ingest thread's origin) and are merged at the end, so recording
/// never takes a lock.
pub struct Tracer {
    origin: Instant,
    thread: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            thread: 0,
            spans: Vec::with_capacity(1 << 14),
        }
    }

    /// A sink for client connection `thread` on the same clock.
    pub fn for_thread(&self, thread: u32) -> Tracer {
        Tracer {
            origin: self.origin,
            thread,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: u32, pass: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            pass,
            thread: self.thread,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) -> u64 {
        let end_ns = self.now();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        end_ns - s.start_ns
    }

    /// Fold another thread's spans in (their parents are `NO_PARENT`).
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Per span name on the ingest thread under `pass`: (calls, total
    /// ns, self ns), self being the span minus what its children cover.
    pub fn self_times(&self, pass: u32) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.pass != pass || s.thread != 0 {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"pass\": {}, \"thread\": {}}}",
                s.name, s.start_ns, s.end_ns, s.pass, s.thread
            )?;
        }
        w.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let pass = t.begin("pass", NO_PARENT, 7);
        let a = t.begin("child", pass, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.end(pass);
        let st = t.self_times(7);
        let (calls, total, own) = st["pass"];
        assert_eq!(calls, 1);
        assert_eq!(own, total - st["child"].1);
        let sum: u64 = st.values().map(|v| v.2).sum();
        assert_eq!(sum, total, "self times of a nested trace sum to the root");
    }
}
