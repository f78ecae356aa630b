//! The checkpoint format on resume (DESIGN.md §15): a checkpoint of
//! another format version is named, never decoded, and a well-framed
//! checkpoint whose matcher vertex rows are malformed is refused.
//!
//! Format 2 writes the matcher's per-vertex index sparsely, as
//! `(vertex, row)` pairs in ascending vertex order, every row
//! non-empty. The frame's checksum cannot tell a hostile or miswritten
//! row list from a good one, so load checks each row and names the one
//! that breaks the layout.

mod common;

use common::*;
use loom_core::engine::{EngineConfig, OnlineEngine};
use loom_core::graph::{StreamEdge, Workload};
use loom_core::matcher::SlidingWindow;
use loom_core::partition::{CapacityModel, OnlineAdjacency, PartitionState};
use loom_core::wal::{
    list_checkpoints, list_segments, read_checkpoint, write_checkpoint, ByteReader, Checkpoint,
    MemBackend, StorageBackend, WalError,
};

const FP: &str = "system=Loom k=3 seed=7 window=12 test=checkpoint-format";
const K: usize = 3;
const WINDOW: usize = 12;

fn engine(workload: &Workload) -> OnlineEngine {
    OnlineEngine::new(
        Box::new(loom(K, WINDOW, 64, workload)),
        EngineConfig {
            batch_size: 64,
            ..EngineConfig::default()
        },
    )
}

/// A WAL run over the first `n` edges, checkpointing every
/// `checkpoint_every` edges (0: never, a journal from edge 0 that
/// never rotates), and the digest of the state it stopped in.
fn wal_run(
    edges: &[StreamEdge],
    workload: &Workload,
    checkpoint_every: u64,
    n: u64,
) -> (MemBackend, Vec<u8>) {
    let backend = MemBackend::new();
    let mut e = engine(workload);
    e.attach_wal(Box::new(backend.clone()), checkpoint_every, FP)
        .unwrap();
    e.run(&mut VecSource::new(edges), Some(n), |_| {}).unwrap();
    let digest = e.state_digest().unwrap();
    (backend, digest)
}

/// Every checkpoint of `from`, its header's version word set to 1,
/// written into `to`.
fn plant_format_1(from: &MemBackend, to: &MemBackend) -> Vec<String> {
    let mut names = Vec::new();
    for (_, name) in list_checkpoints(from).unwrap() {
        let mut bytes = from.contents(&name).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        to.set_contents(&name, bytes);
        names.push(name);
    }
    names
}

/// A format-1 directory whose journal still starts at edge 0 resumes
/// by full replay, digest-identical to the run that never stopped, and
/// the checkpoints the replay writes replace the format-1 ones.
#[test]
fn format_1_checkpoints_beside_a_journal_from_edge_0_resume_by_full_replay() {
    let (edges, workload) = hub_stream(300, 0xc0de);
    let (checkpointed, digest) = wal_run(&edges, &workload, 300, 1000);
    let (journal_only, journal_digest) = wal_run(&edges, &workload, 0, 1000);
    assert_eq!(journal_digest, digest, "the cadence is not state");
    assert_eq!(list_segments(&journal_only).unwrap()[0].0, 0);
    let planted = plant_format_1(&checkpointed, &journal_only);
    assert_eq!(planted.len(), 2, "pruning kept the newest two");

    let mut resumed = engine(&workload);
    let durable = resumed
        .resume_from_wal(Box::new(journal_only.clone()), 300, FP, |_| {})
        .unwrap();
    assert_eq!(durable, 1000);
    assert_eq!(resumed.recovery_stats().unwrap().replayed_edges, 1000);
    assert_eq!(
        resumed.state_digest().unwrap(),
        digest,
        "full-replay digest"
    );
    let kept = list_checkpoints(&journal_only).unwrap();
    assert_eq!(kept.len(), 2, "the replay's own checkpoints, pruned");
    for (_, name) in kept {
        read_checkpoint(&journal_only, &name).expect("the replay wrote format 2");
    }
}

/// Once rotation has deleted the journal's start, a format-1 directory
/// has nothing this build can resume from: resume refuses with the
/// error naming both versions, not a rotation story, and never panics.
#[test]
fn format_1_checkpoints_beside_a_rotated_journal_are_refused_by_name() {
    let (edges, workload) = hub_stream(300, 0xc0de);
    let (backend, _) = wal_run(&edges, &workload, 300, 1000);
    assert_eq!(list_segments(&backend).unwrap()[0].0, 600);
    let newest = plant_format_1(&backend, &backend).pop().unwrap();

    let err = engine(&workload)
        .resume_from_wal(Box::new(backend), 300, FP, |_| {})
        .expect_err("a format-1 directory resumed");
    let m = err.to_string();
    assert!(m.contains("format 1") && m.contains("format 2"), "{m}");
    match err {
        WalError::FormatVersion {
            checkpoint,
            found,
            reads,
        } => assert_eq!((checkpoint.as_str(), found, reads), (newest.as_str(), 1, 2)),
        other => panic!("expected FormatVersion, got {other:?}"),
    }
}

/// The matcher's vertex row list in the newest checkpoint, doctored
/// three ways with the frame re-checksummed: a vertex out of order, a
/// row length past the payload, an empty row. Each resume is `Corrupt`
/// and names the row.
#[test]
fn doctored_vertex_rows_refuse_resume() {
    let (edges, workload) = hub_stream(300, 0xc0de);
    let (backend, _) = wal_run(&edges, &workload, 300, 1000);
    let (_, newest) = list_checkpoints(&backend).unwrap().pop().unwrap();
    let clean = read_checkpoint(&backend, &newest).unwrap();

    // Walk to the row list: the engine's four counters and its pending
    // edges (16 bytes each), the partitioner's name, Loom's partition
    // state, adjacency and window, then the match arena's cells (20
    // bytes each) and matches (26 bytes each).
    let state = &clean.state;
    let mut r = ByteReader::new(state);
    for _ in 0..4 {
        r.u64().unwrap();
    }
    for _ in 0..2 * r.u64().unwrap() {
        r.u64().unwrap();
    }
    assert_eq!(r.str().unwrap(), "Loom");
    PartitionState::new(K, CapacityModel::Adaptive, 1.1)
        .wal_load(&mut r)
        .unwrap();
    OnlineAdjacency::new().wal_load(&mut r).unwrap();
    SlidingWindow::new(WINDOW).wal_load(&mut r).unwrap();
    for width in [20, 26] {
        for _ in 0..width * r.u64().unwrap() {
            r.u8().unwrap();
        }
    }
    let rows_at = state.len() - r.remaining();
    let nrows = r.u64().unwrap();
    assert!(nrows >= 2, "{nrows} vertex rows");
    let row0_vertex = r.u32().unwrap();
    let row0_len = r.u64().unwrap() as usize;
    // Row 1: its vertex, then its length.
    let row1_at = rows_at + 8 + 4 + 8 + 5 * row0_len;
    let row1_len_at = row1_at + 4;

    let doctor = |at: usize, bytes: &[u8]| {
        let mut state = clean.state.clone();
        state[at..at + bytes.len()].copy_from_slice(bytes);
        state
    };
    for (what, state, want) in [
        (
            "vertex out of order",
            doctor(row1_at, &row0_vertex.to_le_bytes()),
            "does not ascend",
        ),
        (
            "length past the payload",
            doctor(row1_len_at, &(u64::MAX / 2).to_le_bytes()),
            "past the",
        ),
        (
            "empty row",
            doctor(row1_len_at, &0u64.to_le_bytes()),
            "is empty",
        ),
    ] {
        let doctored = MemBackend::new();
        for name in backend.list().unwrap() {
            doctored.set_contents(&name, backend.contents(&name).unwrap());
        }
        let ckpt = Checkpoint {
            state,
            ..clean.clone()
        };
        write_checkpoint(&doctored, &ckpt).unwrap();
        match engine(&workload).resume_from_wal(Box::new(doctored), 300, FP, |_| {}) {
            Err(WalError::Corrupt(m)) => assert!(
                m.contains("vertex row 1 ") && m.contains(want),
                "{what}: {m}"
            ),
            other => panic!("{what}: resumed as {other:?}"),
        }
    }
}
