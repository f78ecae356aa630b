//! Std-only runtime primitives: the serving layer's building blocks
//! and a small worker pool — `std::thread` only, no crates.io.
//!
//! No ingest path uses the pool: Loom's parallel probe was measured
//! at the noise floor on a 2-vCPU host and removed (DESIGN.md §13).
//! It stays only for the repository benchmark's `pool_dispatch_us`
//! probe until that probe is retired (ROADMAP 1(f)).
//!
//! The pool executes *indexed chunk jobs*: [`WorkerPool::run`] is handed
//! a chunk count and a `Fn(usize)` and guarantees every chunk index in
//! `0..chunks` is executed exactly once before it returns. Chunk
//! *claiming* is dynamic (an atomic counter, so fast workers steal work
//! from slow ones), but nothing about the claiming order may be
//! observable: callers must make chunks write only to disjoint,
//! pre-indexed slots — the pool provides throughput, the slot indexing
//! provides the deterministic merge.
//!
//! Panics inside a chunk never hang or poison the pool: every chunk
//! runs under `catch_unwind`, all remaining chunks still execute (so
//! the reported failure is deterministic, not a race between panicking
//! chunks), and the lowest-indexed panic is returned as a
//! [`ChunkPanic`]. Worker threads are spawned once and parked on a
//! condvar between jobs — `run` on an idle pool costs one lock and one
//! notify.
//!
//! The serving-layer primitives (DESIGN.md §16) are equally std-only
//! and graph-agnostic:
//! - [`epoch::EpochCell`] — the atomically-swapped `Arc` under which
//!   the engine publishes immutable read views;
//! - [`metrics::ServeMetrics`] — lock-free served/refused counters and
//!   a log-bucketed latency histogram (p50/p99);
//! - [`net::LineServer`] — the newline-delimited TCP server with one
//!   thread per connection and a connection cap refused with a loud
//!   `ERR busy` line.

#![warn(missing_docs)]

pub mod epoch;
pub mod metrics;
pub mod net;

pub use epoch::EpochCell;
pub use metrics::{ServeMetrics, ServeStats};
pub use net::{LineHandler, LineServer, LineServerConfig};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A panic captured from a chunk execution: the lowest chunk index that
/// panicked during the job, with the panic payload rendered to text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkPanic {
    /// Index of the panicking chunk (lowest, if several panicked).
    pub chunk: usize,
    /// The panic message (`Display` of a `String`/`&str` payload,
    /// a placeholder otherwise).
    pub message: String,
}

impl std::fmt::Display for ChunkPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chunk {} panicked: {}", self.chunk, self.message)
    }
}

impl std::error::Error for ChunkPanic {}

/// Render a panic payload the way the default hook would.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The task pointer shared with workers for one job. Lifetime-erased:
/// `run` blocks until every chunk has completed, so the pointee always
/// outlives every dereference; after `run` returns the pointer may
/// dangle inside still-held `Job` Arcs, but no code path dereferences
/// it again (the claim counter is exhausted).
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (per the trait bound) and outlives all
// dereferences (see TaskPtr docs), so sharing the pointer across the
// pool's threads is sound.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One published job: the erased task, the chunk-claim counter, and the
/// completion latch the caller waits on.
struct Job {
    task: TaskPtr,
    chunks: usize,
    next: AtomicUsize,
    progress: Mutex<Progress>,
    complete: Condvar,
}

#[derive(Default)]
struct Progress {
    completed: usize,
    panic: Option<ChunkPanic>,
}

impl Job {
    /// Claim and execute chunks until none remain. Called by workers
    /// and by the submitting thread alike.
    fn execute(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            // SAFETY: `run` has not returned (this chunk is not yet
            // counted complete), so the task pointee is alive.
            let task = unsafe { &*self.task.0 };
            let result = catch_unwind(AssertUnwindSafe(|| task(i)));
            let mut p = self.progress.lock().unwrap();
            if let Err(payload) = result {
                let lower = p.panic.as_ref().is_none_or(|prev| i < prev.chunk);
                if lower {
                    p.panic = Some(ChunkPanic {
                        chunk: i,
                        message: panic_message(payload),
                    });
                }
            }
            p.completed += 1;
            if p.completed == self.chunks {
                self.complete.notify_all();
            }
        }
    }
}

struct PoolState {
    epoch: u64,
    job: Option<Arc<Job>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work: Condvar,
}

/// A fixed-size pool of persistent worker threads executing indexed
/// chunk jobs (see the module docs for the determinism discipline).
///
/// `threads` counts the *total* parallelism including the submitting
/// thread: a pool of `n` spawns `n - 1` workers and the caller executes
/// chunks too, so `threads == 1` spawns nothing and runs jobs inline —
/// the sequential path and the parallel path are the same code.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Build a pool of `threads` total workers (minimum 1; the caller
    /// counts as one, so `threads - 1` OS threads are spawned).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
        }
    }

    /// Total worker count (including the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `f(i)` for every `i in 0..chunks`, in parallel across
    /// the pool, returning once all chunks have completed. Chunks that
    /// panic are caught; all remaining chunks still run, and the
    /// lowest-indexed panic is returned (deterministic regardless of
    /// worker scheduling). With one thread, chunks run inline in index
    /// order.
    pub fn run(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), ChunkPanic> {
        if chunks == 0 {
            return Ok(());
        }
        if self.threads <= 1 || chunks == 1 {
            let mut first: Option<ChunkPanic> = None;
            for i in 0..chunks {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                    if first.is_none() {
                        first = Some(ChunkPanic {
                            chunk: i,
                            message: panic_message(payload),
                        });
                    }
                }
            }
            return first.map_or(Ok(()), Err);
        }
        // Erase the borrow lifetime: sound because this function blocks
        // on the completion latch below, so no worker touches `f` after
        // we return (see `TaskPtr`).
        let task: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let job = Arc::new(Job {
            task: TaskPtr(task),
            chunks,
            next: AtomicUsize::new(0),
            progress: Mutex::new(Progress::default()),
            complete: Condvar::new(),
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            st.epoch += 1;
            st.job = Some(Arc::clone(&job));
            self.shared.work.notify_all();
        }
        // The submitting thread claims chunks too.
        job.execute();
        let mut p = job.progress.lock().unwrap();
        while p.completed < chunks {
            p = job.complete.wait(p).unwrap();
        }
        match p.panic.take() {
            None => Ok(()),
            Some(pc) => Err(pc),
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.job.clone();
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        if let Some(j) = job {
            j.execute();
        }
    }
}

/// The host's available parallelism (1 if it cannot be determined),
/// as the benchmark report's header prints it.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_chunk_exactly_once() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
            pool.run(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "chunk {i} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = WorkerPool::new(4);
        let sum = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(16, &|i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), 50 * (0..16u64).sum::<u64>());
    }

    #[test]
    fn zero_chunks_is_a_noop() {
        let pool = WorkerPool::new(2);
        pool.run(0, &|_| panic!("never called")).unwrap();
    }

    #[test]
    fn lowest_indexed_panic_wins_and_all_chunks_still_run() {
        for threads in [1, 3] {
            let pool = WorkerPool::new(threads);
            let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
            let err = pool
                .run(hits.len(), &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                    if i == 7 || i == 40 {
                        panic!("boom {i}");
                    }
                })
                .unwrap_err();
            assert_eq!(err.chunk, 7, "{threads} threads");
            assert_eq!(err.message, "boom 7");
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 1, "panic must not skip chunks");
            }
        }
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = WorkerPool::new(4);
        assert!(pool.run(8, &|_| panic!("down")).is_err());
        let sum = AtomicU64::new(0);
        pool.run(8, &|i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 36);
    }

    #[test]
    fn disjoint_slot_writes_merge_deterministically() {
        // The pipeline pattern: each chunk writes its own slot; the
        // merged result is independent of worker count and scheduling.
        let expected: Vec<u64> = (0..1000u64).map(|i| i * i).collect();
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let slots: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
            pool.run(slots.len(), &|i| {
                slots[i].store((i as u64) * (i as u64), Ordering::Relaxed);
            })
            .unwrap();
            let got: Vec<u64> = slots.iter().map(|s| s.load(Ordering::Relaxed)).collect();
            assert_eq!(got, expected);
        }
    }
}
