//! Serving-equivalence oracle (DESIGN.md §16): enabling the `loom
//! serve` read path is **pure observation**. A run with serving on —
//! views publishing at a real cadence, concurrent reader threads
//! loading them and executing the full request mix the whole time —
//! must be bit-identical to its serving-off twin in every recoverable
//! respect: the complete snapshot sequence (all fields except
//! `serving` itself), every vertex assignment, and the engine state
//! digest. Checked at one and at four ingest workers, because the
//! serve hook sits on the same commit boundary the parallel pipeline
//! synchronises on.
//!
//! Readers double as the monotonicity oracle: the epoch and edge
//! count of loaded views must never decrease, and every well-formed
//! request against any published view must answer `OK`.

mod common;

use common::*;
use loom_core::engine::{EngineConfig, OnlineEngine};
use loom_core::graph::{EdgeSource, Workload};
use loom_core::partition::StreamPartitioner;
use loom_core::query::{handle_request, ReadView};
use loom_core::runtime::EpochCell;
use loom_core::ServeOptions;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn engine(workload: &Workload, threads: usize) -> OnlineEngine {
    let mut p = Box::new(loom(4, 16, 96, workload));
    p.set_threads(threads);
    OnlineEngine::new(
        p,
        EngineConfig {
            snapshot_every: 512,
            batch_size: 64,
            ..EngineConfig::default()
        },
    )
}

/// A reader thread: spin on the publication cell for the run's whole
/// lifetime, assert monotonicity and well-formed replies, return how
/// many views it executed the request mix against.
fn spawn_reader(
    cell: Arc<EpochCell<ReadView>>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let (mut last_epoch, mut last_edges, mut rounds) = (0u64, 0u64, 0u64);
        loop {
            // Load BEFORE checking stop: the final view (published by
            // `finish`) is guaranteed to be observed at least once.
            let done = stop.load(Ordering::Acquire);
            if let Some(view) = cell.load() {
                assert!(
                    view.epoch >= last_epoch,
                    "epoch went backwards: {} after {last_epoch}",
                    view.epoch
                );
                assert!(
                    view.edges >= last_edges,
                    "edges went backwards: {} after {last_edges}",
                    view.edges
                );
                last_epoch = view.epoch;
                last_edges = view.edges;
                for req in ["STATS", "EPOCH", "KHOP 1 2 500", "PART 2", "HELP"] {
                    let reply = handle_request(Some(&view), req);
                    assert!(reply.starts_with("OK "), "{req} -> {reply}");
                }
                // MATCH needs all three labels observed; early views
                // may predate that, which must be a clean ERR.
                let reply = handle_request(Some(&view), "MATCH 0-1-2 100");
                assert!(
                    reply.starts_with("OK match") || reply.starts_with("ERR bad label"),
                    "MATCH -> {reply}"
                );
                rounds += 1;
            }
            if done {
                break;
            }
            std::thread::yield_now();
        }
        assert!(last_epoch > 0, "reader never observed a published view");
        rounds
    })
}

/// The acceptance check: at threads {1, 4}, each serving-on run (3
/// concurrent readers hammering published views the whole time)
/// bit-identical to its serving-off twin.
#[test]
fn serving_on_is_bit_identical_to_serving_off_across_threads() {
    let (edges, workload) = hub_stream(1_200, 0x5e12e);
    for threads in [1usize, 4] {
        let ctx = format!("threads={threads}");

        let mut off = engine(&workload, threads);
        let mut off_snaps = Vec::new();
        off.run(&mut VecSource::new(&edges), None, |s| {
            off_snaps.push(s.clone())
        })
        .expect("serving-off run");
        let off_fin = off.finish();

        let mut on = engine(&workload, threads);
        let handle = on.enable_serving(ServeOptions {
            horizon_edges: 4_096,
            publish_every: 256,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| spawn_reader(Arc::clone(&handle.view), Arc::clone(&stop)))
            .collect();
        let mut on_snaps = Vec::new();
        on.run(&mut VecSource::new(&edges), None, |s| {
            on_snaps.push(s.clone())
        })
        .expect("serving-on run");
        let on_fin = on.finish();
        stop.store(true, Ordering::Release);
        let mut rounds = 0u64;
        for r in readers {
            rounds += r.join().expect("reader thread");
        }
        assert!(rounds > 0, "{ctx}: no reader executed a single round");

        assert_snaps_eq(&off_snaps, &on_snaps, &ctx);
        for (a, b) in off_snaps.iter().zip(&on_snaps) {
            assert!(a.serving.is_none(), "{ctx}: serving-off twin has stats");
            assert!(b.serving.is_some(), "{ctx}: serving-on twin lacks stats");
        }
        assert_snap_eq(&off_fin, &on_fin, &format!("{ctx}: final"));

        assert_eq!(
            off.state_digest().expect("off digest"),
            on.state_digest().expect("on digest"),
            "{ctx}: state digest diverged"
        );
        let (a, b) = (off.into_assignment(), on.into_assignment());
        for e in &edges {
            for v in [e.src, e.dst] {
                assert_eq!(
                    a.partition_of(v),
                    b.partition_of(v),
                    "{ctx}: assignment diverged at {v:?}"
                );
            }
        }
    }
}

/// The final view `finish` publishes reflects the drained end state:
/// its edge count is the full stream and its assignment agrees with
/// the engine's final assignment, vertex for vertex.
#[test]
fn final_view_matches_final_assignment() {
    let (edges, workload) = hub_stream(400, 0xf17a1);
    let mut eng = engine(&workload, 1);
    let handle = eng.enable_serving(ServeOptions {
        horizon_edges: 2_048,
        publish_every: 512,
    });
    eng.run(&mut VecSource::new(&edges), None, |_| {})
        .expect("run");
    eng.finish();
    let view = handle.view.load().expect("final view published");
    assert_eq!(view.edges, edges.len() as u64);
    let assignment = eng.into_assignment();
    for e in &edges {
        for v in [e.src, e.dst] {
            assert_eq!(
                view.assignment.partition_of(v),
                assignment.partition_of(v),
                "view assignment diverged at {v:?}"
            );
        }
    }
    // The retained adjacency serves traversals over recent edges.
    let reply = handle_request(Some(&view), &format!("KHOP {} 2", edges[0].src.0));
    assert!(reply.starts_with("OK khop"), "{reply}");
}

/// Malformed requests against a live engine's published views answer
/// a single `ERR` line — and the stream of garbage leaves ingest
/// untouched: the engine still digests identically to a twin that
/// never served a request.
#[test]
fn malformed_requests_err_cleanly_and_never_perturb_ingest() {
    let (edges, workload) = hub_stream(300, 0xbad);
    let half = edges.len() / 2;

    let mut twin = engine(&workload, 1);
    twin.run(&mut VecSource::new(&edges), None, |_| {})
        .expect("twin");
    twin.finish();

    let mut eng = engine(&workload, 1);
    let handle = eng.enable_serving(ServeOptions {
        horizon_edges: 1_024,
        publish_every: 128,
    });
    eng.run(&mut VecSource::new(&edges), Some(half as u64), |_| {})
        .expect("first half");
    eng.await_views().expect("views land");
    let view = handle.view.load().expect("mid-stream view");
    for req in [
        "",
        "   ",
        "BOGUS",
        "stats",
        "KHOP",
        "KHOP x 2",
        "KHOP 1",
        "KHOP 1 99",
        "KHOP 1 2 0",
        "MATCH",
        "MATCH 0",
        "MATCH 0-x",
        "MATCH 0-1 nope",
        "PART",
        "PART abc",
        "EPOCH extra",
    ] {
        let reply = handle_request(Some(&view), req);
        assert!(reply.starts_with("ERR "), "{req:?} -> {reply:?}");
        assert!(!reply.contains('\n'), "{req:?}: multi-line reply");
    }
    // No view at all (server came up before the first publication).
    assert!(handle_request(None, "STATS").starts_with("ERR not ready"));

    let mut rest = VecSource::new(&edges);
    assert_eq!(rest.skip_edges(half as u64), half as u64);
    eng.run(&mut rest, None, |_| {}).expect("second half");
    eng.finish();
    assert_eq!(
        twin.state_digest().expect("twin digest"),
        eng.state_digest().expect("engine digest"),
        "garbage requests perturbed ingest"
    );
}
