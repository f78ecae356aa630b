//! Persistent-view oracle (DESIGN.md §16): the engine keeps its read
//! views up to date incrementally — edges slide through a live graph,
//! placements trickle into a live assignment column, and a publication
//! clones two page tables. This suite holds that machinery to the
//! definition it replaced:
//!
//! * **incremental == rebuilt.** At *every* publication the view
//!   answers a fixed request battery byte-for-byte like a twin built
//!   from scratch — `ViewGraph::from_edges` over the last horizon edges
//!   plus a full copy of the partitioner's assignment.
//! * **old views never change.** A held `Arc<ReadView>` answers the
//!   battery ten epochs later exactly as it did when published.
//! * **publication shares.** A view's pages are the pages of earlier
//!   views wherever the stream did not touch them.
//! * **memory is bounded.** Twenty horizons into the stream the graph
//!   holds a constant times the horizon, not the stream.

use loom_core::engine::{EngineConfig, OnlineEngine};
use loom_core::{ServeHandle, ServeOptions};
use loom_graph::{EdgeId, Label, PatternGraph, StreamEdge, VertexId, Workload};
use loom_partition::{
    AdjacencyHorizon, CapacityModel, EoParams, HashPartitioner, LoomConfig, LoomPartitioner,
    StreamPartitioner,
};
use loom_query::{handle_request, FrozenAssignment, GraphAccess, ReadView, ViewGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

/// Ordinary vertices carry labels 0..3 by id; the `RARE` label only
/// appears on the stream's first edges, so once the horizon has moved
/// on it is in the alphabet but absent from every view.
const RARE: Label = Label(3);
const HUBS: u32 = 4;

/// A hub-heavy stream with parallel edges: 40% of edges start at one
/// of four hubs, the other endpoints are skewed toward low ids, and
/// every seventh edge or so repeats its predecessor's endpoints.
fn hubby_stream(n: usize, universe: u32, seed: u64) -> Vec<StreamEdge> {
    let mut rng = StdRng::seed_from_u64(seed);
    let label = |v: u32| {
        if v >= universe {
            RARE
        } else {
            Label((v % 3) as u16)
        }
    };
    let skewed = |rng: &mut StdRng| {
        let r: f64 = rng.gen_range(0.0..1.0);
        (r * r * universe as f64) as u32
    };
    let mut pairs: Vec<(u32, u32)> = (0..3).map(|i| (universe + i, i)).collect();
    while pairs.len() < n {
        let (src, dst) = match pairs.last() {
            Some(&last) if rng.gen_bool(0.15) => last,
            _ => {
                let src = if rng.gen_bool(0.4) {
                    rng.gen_range(0..HUBS)
                } else {
                    skewed(&mut rng)
                };
                let dst = skewed(&mut rng);
                // The determinism suites assume loop-free streams.
                (
                    src,
                    if dst == src {
                        (src + 1) % universe
                    } else {
                        dst
                    },
                )
            }
        };
        pairs.push((src, dst));
    }
    pairs
        .into_iter()
        .enumerate()
        .map(|(id, (src, dst))| StreamEdge {
            id: EdgeId(id as u32),
            src: VertexId(src),
            dst: VertexId(dst),
            src_label: label(src),
            dst_label: label(dst),
        })
        .collect()
}

/// Loom with a small window, so that at most publications some
/// endpoints are still unplaced — the case the pending list exists for.
fn loom_engine() -> OnlineEngine {
    let workload = Workload::new(vec![(
        PatternGraph::path("q", vec![Label(0), Label(1), Label(2)]),
        1.0,
    )]);
    let config = LoomConfig {
        k: 4,
        window_size: 16,
        support_threshold: 0.4,
        prime: 251,
        eo: EoParams::default(),
        capacity_slack: 1.1,
        capacity: CapacityModel::Adaptive,
        seed: 7,
        allocation: Default::default(),
        adjacency_horizon: AdjacencyHorizon::Edges(96),
    };
    engine(Box::new(LoomPartitioner::new(&config, &workload, 4)))
}

fn engine(partitioner: Box<dyn StreamPartitioner>) -> OnlineEngine {
    // No snapshot cadence: every `ingest_batch` call is one commit
    // point, so a view published by a call reflects the state the call
    // returns in.
    OnlineEngine::new(partitioner, EngineConfig::default())
}

/// The fixed battery: every command, ids in and out of range, capped
/// and uncapped traversals, paths of 2–4 labels including the rare one.
fn battery(max_id: u32) -> Vec<String> {
    let mut requests = vec!["STATS".to_string(), "EPOCH".to_string()];
    for v in (0..=max_id + 2).chain([u32::MAX]) {
        requests.push(format!("PART {v}"));
    }
    for v in [0, 1, HUBS, max_id / 2, max_id, max_id + 7] {
        for depth in 0..=3 {
            requests.push(format!("KHOP {v} {depth}"));
            requests.push(format!("KHOP {v} {depth} 3"));
        }
    }
    for pattern in ["0-1", "1-2", "0-1-2", "2-0-1", "0-1-2-0", "3-0", "0-3-1"] {
        requests.push(format!("MATCH {pattern}"));
        requests.push(format!("MATCH {pattern} 2"));
    }
    requests
}

fn replies(view: &ReadView, battery: &[String]) -> Vec<String> {
    battery
        .iter()
        .map(|r| handle_request(Some(view), r))
        .collect()
}

/// The view as the pre-incremental engine built it: the graph from the
/// last `horizon` of the `seen` edges, the assignment copied whole.
fn rebuilt_twin(
    view: &ReadView,
    eng: &OnlineEngine,
    seen: &[StreamEdge],
    horizon: usize,
) -> ReadView {
    let state = eng.state();
    let labels = seen
        .iter()
        .map(|e| e.src_label.index().max(e.dst_label.index()) + 1)
        .max()
        .unwrap_or(1);
    let mut assignment = FrozenAssignment::default();
    for (v, p) in state.to_assignment().iter() {
        assignment.assign(v, p);
    }
    let assigned = state.assigned_count();
    ReadView {
        edges: seen.len() as u64,
        vertices: assigned,
        k: state.k(),
        sizes: state.sizes().to_vec(),
        capacity: state.capacity(),
        imbalance: if assigned == 0 {
            0.0
        } else {
            state.max_size() as f64 / (assigned as f64 / state.k() as f64) - 1.0
        },
        assignment,
        graph: ViewGraph::from_edges(&seen[seen.len().saturating_sub(horizon)..], labels),
        horizon,
        // The engine's own counters: not derived from the structures
        // under test, and not readable without settling them.
        ..view.clone()
    }
}

/// Drive `eng` over `edges` in `batch`-sized commits and hand every
/// newly published view to `on_view`, with the edges it covers. The
/// barrier after each commit lands the view it sent, if any, so every
/// view the builder publishes passes through `on_view`.
fn drive(
    eng: &mut OnlineEngine,
    handle: &ServeHandle,
    edges: &[StreamEdge],
    batch: usize,
    mut on_view: impl FnMut(&OnlineEngine, Arc<ReadView>, &[StreamEdge]),
) {
    let mut epoch = handle.view.load().map_or(0, |v| v.epoch);
    let mut fed = 0;
    for chunk in edges.chunks(batch) {
        eng.ingest_batch(chunk, |_| {}).expect("ingest");
        eng.await_views().expect("views land");
        fed += chunk.len();
        let Some(view) = handle.view.load() else {
            continue;
        };
        if view.epoch != epoch {
            assert_eq!(view.epoch, epoch + 1, "a commit publishes at most once");
            assert_eq!(view.edges, fed as u64);
            epoch = view.epoch;
            on_view(eng, view, &edges[..fed]);
        }
    }
}

const CADENCES: [u64; 5] = [1, 7, 256, 1_024, 1_500];
const BATCHES: [usize; 3] = [1, 5, 64];

/// Incremental == rebuilt at every publication, and held views still
/// answer as recorded ten epochs on — over ≥ 20 horizons of hub-heavy
/// stream. Returns what failed, if anything.
fn check_every_view(cadence: u64, batch: usize, seed: u64) -> Result<(), String> {
    // Frequent publications get a short horizon, so that every one of
    // them can afford the whole battery. 1 500 is beyond either.
    let (horizon, n) = if cadence < 256 {
        (32, 700)
    } else {
        (300, 8_000)
    };
    let universe = 150;
    let edges = hubby_stream(n, universe, seed);
    let battery = battery(universe + 3);

    let mut eng = loom_engine();
    let handle = eng.enable_serving(ServeOptions {
        horizon_edges: horizon,
        publish_every: cadence,
    });
    let mut held: VecDeque<(Arc<ReadView>, Vec<String>)> = VecDeque::new();
    let mut published = 0u64;
    let mut failure = None;
    drive(&mut eng, &handle, &edges, batch, |eng, view, seen| {
        published += 1;
        let got = replies(&view, &battery);
        let want = replies(&rebuilt_twin(&view, eng, seen, horizon), &battery);
        if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
            failure.get_or_insert(format!(
                "epoch {} at {} edges, {:?}: incremental {:?}, rebuilt {:?}",
                view.epoch, view.edges, battery[i], got[i], want[i]
            ));
        }
        held.push_back((view, got));
        if held.len() > 10 {
            let (old, recorded) = held.pop_front().expect("non-empty");
            if replies(&old, &battery) != recorded {
                failure.get_or_insert(format!("the view of epoch {} changed", old.epoch));
            }
        }
    });
    if let Some(failure) = failure {
        return Err(failure);
    }
    // The cadence is checked at commits, so the gap rounds up to them.
    let expected = n as u64 / (cadence.div_ceil(batch as u64) * batch as u64) - 1;
    if published < expected {
        return Err(format!("{published} views published, {expected} expected"));
    }
    // ≥ 20 horizons in, the graph holds a constant times the horizon
    // (2 entries an edge, ×2 slab slack, ×2 dead slots before a
    // repack).
    let last = handle.view.load().expect("last view");
    let resident = last.graph.resident_entries();
    if n < 20 * horizon || last.graph.num_edges() > horizon || resident > 8 * horizon {
        return Err(format!("{resident} entries resident at horizon {horizon}"));
    }
    Ok(())
}

#[test]
fn every_view_equals_its_rebuilt_twin_and_never_changes_at_each_cadence() {
    for (i, cadence) in CADENCES.into_iter().enumerate() {
        let batch = BATCHES[i % BATCHES.len()];
        if let Err(failure) = check_every_view(cadence, batch, 0xc0ffee + i as u64) {
            panic!("cadence {cadence}, batch {batch}: {failure}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_view_equals_its_rebuilt_twin_and_never_changes(
        cadence in 0usize..CADENCES.len(),
        batch in 0usize..BATCHES.len(),
        seed in any::<u64>(),
    ) {
        let outcome = check_every_view(CADENCES[cadence], BATCHES[batch], seed);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}

/// The view `loom serve` publishes before the first edge answers for
/// the declared alphabet: a `MATCH` on a label no edge has carried yet
/// is 0 matches, not a range error.
#[test]
fn start_up_view_knows_the_declared_alphabet() {
    let mut eng = loom_engine();
    let handle = eng.enable_serving(ServeOptions::default());
    eng.declare_labels(4);
    eng.publish_view_now();
    let view = handle.view.load().expect("start-up view");
    assert_eq!(
        handle_request(Some(&view), "MATCH 0-1"),
        "OK match pattern=0-1 count=0 capped=0"
    );
    assert_eq!(
        handle_request(Some(&view), "MATCH 0-4"),
        "ERR label 4 out of range (labels 4)"
    );
}

/// Serving enabled mid-stream still knows every placement: those made
/// before it was enabled, and those of vertices that sat unplaced in
/// the partitioner's window at that moment and are never an endpoint
/// again.
#[test]
fn enabling_mid_stream_misses_no_placement() {
    let edges = hubby_stream(2_000, 150, 0x51de);
    let battery = battery(153);
    let mut eng = loom_engine();
    for chunk in edges[..900].chunks(64) {
        eng.ingest_batch(chunk, |_| {}).expect("ingest");
    }
    let handle = eng.enable_serving(ServeOptions {
        horizon_edges: 128,
        publish_every: 64,
    });
    eng.publish_view_now();
    let mut views = 0;
    let mut fed = 900;
    for chunk in edges[900..].chunks(64) {
        eng.ingest_batch(chunk, |_| {}).expect("ingest");
        eng.await_views().expect("views land");
        fed += chunk.len();
        let view = handle.view.load().expect("published");
        // The horizon starts at the edge serving was enabled at.
        let twin = rebuilt_twin(&view, &eng, &edges[900..fed], 128);
        let part = |v: &ReadView| -> Vec<String> {
            battery
                .iter()
                .filter(|r| r.starts_with("PART"))
                .map(|r| handle_request(Some(v), r))
                .collect()
        };
        assert_eq!(part(&view), part(&twin), "at {fed} edges");
        views += 1;
    }
    assert!(views > 10);
}

/// What a publication shares. The graph is kept twice and the copies
/// alternate (the engine writes to one while the newest view pins the
/// other), so a view shares its graph pages with the view *before the
/// previous one*; the assignment column is single and shares with the
/// previous view directly. On a stream whose endpoints scatter over
/// many pages, a 1 024-edge epoch leaves ≥ 80% of both untouched.
#[test]
fn views_share_the_pages_an_epoch_did_not_touch() {
    let universe = 4_000_000;
    let edges = hubby_stream(40_000, universe, 0x5a4e);
    let mut eng = engine(Box::new(HashPartitioner::new(4, 42)));
    let handle = eng.enable_serving(ServeOptions {
        horizon_edges: 8_192,
        publish_every: 1_024,
    });
    let mut views: Vec<Arc<ReadView>> = Vec::new();
    drive(&mut eng, &handle, &edges, 256, |_, view, _| {
        views.push(view)
    });
    assert!(views.len() >= 30);
    // Skip the warm-up: until the horizon has filled once, an epoch
    // still grows the tables.
    for i in 12..views.len() {
        let (older, previous, view) = (&views[i - 2], &views[i - 1], &views[i]);
        let shared = view.graph.pages_shared_with(&older.graph);
        assert!(
            shared * 10 >= view.graph.num_pages() * 8,
            "epoch {}: {shared} of {} graph pages shared",
            view.epoch,
            view.graph.num_pages()
        );
        let shared = view.assignment.pages_shared_with(&previous.assignment);
        assert!(
            shared * 10 >= view.assignment.num_pages() * 8,
            "epoch {}: {shared} of {} assignment pages shared",
            view.epoch,
            view.assignment.num_pages()
        );
    }
}

/// A reader that never lets go of a view costs copies of the pages the
/// stream touches afterwards, not correctness and not a second graph:
/// with every view of a run pinned, each still answers as recorded and
/// the newest still equals its rebuilt twin.
#[test]
fn a_reader_pinning_every_view_changes_no_answer() {
    let edges = hubby_stream(3_000, 150, 0x9173);
    let battery = battery(153);
    let mut eng = loom_engine();
    let handle = eng.enable_serving(ServeOptions {
        horizon_edges: 64,
        publish_every: 16,
    });
    let mut pinned: Vec<(Arc<ReadView>, Vec<String>)> = Vec::new();
    drive(&mut eng, &handle, &edges, 16, |eng, view, seen| {
        let got = replies(&view, &battery);
        assert_eq!(
            got,
            replies(&rebuilt_twin(&view, eng, seen, 64), &battery),
            "epoch {}",
            view.epoch
        );
        pinned.push((view, got));
    });
    assert!(pinned.len() > 150);
    for (view, recorded) in &pinned {
        assert_eq!(&replies(view, &battery), recorded, "epoch {}", view.epoch);
    }
}

/// Rows that have left the horizon are given back: a stream that moves
/// from one id range to another leaves nothing resident for the first.
#[test]
fn expired_id_ranges_hold_no_entries() {
    let mut edges = hubby_stream(3_000, 2_000, 1);
    let moved = hubby_stream(3_000, 2_000, 2);
    edges.extend(moved.iter().map(|e| StreamEdge {
        id: EdgeId(e.id.0 + 3_000),
        src: VertexId(e.src.0 + 100_000),
        dst: VertexId(e.dst.0 + 100_000),
        ..*e
    }));
    let mut eng = engine(Box::new(HashPartitioner::new(4, 42)));
    let handle = eng.enable_serving(ServeOptions {
        horizon_edges: 512,
        publish_every: 256,
    });
    drive(&mut eng, &handle, &edges, 64, |_, _, _| {});
    let view = handle.view.load().expect("published");
    assert_eq!(view.graph.num_edges(), 512);
    assert!((0..2_003).all(|v| view.graph.degree(VertexId(v)) == 0));
    let rebuilt = ViewGraph::from_edges(&edges[edges.len() - 512..], 4);
    assert!(
        view.graph.resident_entries() <= 4 * rebuilt.resident_entries(),
        "{} resident against {} in a fresh build",
        view.graph.resident_entries(),
        rebuilt.resident_entries()
    );
}

/// A forced view and the one `finish` publishes are in the cell when
/// the call returns, however many cadence views were still on their
/// way to the builder — and every view sent has landed, in order.
#[test]
fn forced_and_final_views_are_in_the_cell_on_return() {
    let edges = hubby_stream(3_000, 150, 0xf1a5);
    let mut eng = loom_engine();
    let handle = eng.enable_serving(ServeOptions {
        horizon_edges: 256,
        publish_every: 8,
    });
    let mut sent = 0;
    for (i, chunk) in edges.chunks(100).enumerate() {
        // No snapshot cadence: one commit, one due view per call.
        eng.ingest_batch(chunk, |_| {}).expect("ingest");
        sent += 1;
        if i % 5 == 4 {
            eng.publish_view_now();
            sent += 1;
            let view = handle.view.load().expect("forced view");
            assert_eq!(view.edges, eng.edges_ingested());
            assert_eq!((view.epoch, handle.view.epoch()), (sent, sent));
        }
    }
    eng.finish();
    sent += 1;
    let view = handle.view.load().expect("final view");
    assert_eq!(view.edges, eng.edges_ingested());
    assert_eq!((view.epoch, handle.view.epoch()), (sent, sent));
}

/// Dropping an engine with views still on their way to the builder
/// joins the builder without hanging: fifty engines go through it well
/// inside the cap.
#[test]
fn dropping_an_engine_with_views_in_flight_finishes() {
    let edges = hubby_stream(4_000, 2_000, 0xd209);
    let (done_tx, done) = std::sync::mpsc::channel();
    let cycles = std::thread::spawn(move || {
        for _ in 0..50 {
            let mut eng = engine(Box::new(HashPartitioner::new(4, 42)));
            eng.enable_serving(ServeOptions {
                horizon_edges: 1_024,
                publish_every: 64,
            });
            for chunk in edges.chunks(64) {
                eng.ingest_batch(chunk, |_| {}).expect("ingest");
            }
            drop(eng);
        }
        let _ = done_tx.send(());
    });
    if done.recv_timeout(Duration::from_secs(60)) == Err(RecvTimeoutError::Timeout) {
        panic!("fifty engines not dropped within 60 s");
    }
    cycles.join().expect("the cycles thread");
}
