//! The checkpoint format on resume (DESIGN.md §15): a checkpoint of
//! another format version is named, never decoded, and a well-framed
//! checkpoint whose adjacency rows or match cells are malformed is
//! refused.
//!
//! Format 3 writes live content only: the adjacency's non-empty rows
//! as `(vertex, retained neighbours)` in ascending vertex order, and
//! the live match cells in compaction order, every parent before its
//! child. The frame's checksum cannot tell a hostile or miswritten
//! list from a good one, so load checks each row and cell and names
//! the one that breaks the layout.

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

/// The formats before this build's: what an upgrade finds on disk.
const OLDER_FORMATS: [u32; 2] = [1, 2];

/// Every checkpoint of `from`, its header's version word set to
/// `version`, written into `to`.
fn plant_format(from: &MemBackend, to: &MemBackend, version: u32) -> Vec<String> {
    let mut names = Vec::new();
    for (_, name) in list_checkpoints(from).unwrap() {
        let mut bytes = from.contents(&name).unwrap();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        to.set_contents(&name, bytes);
        names.push(name);
    }
    names
}

/// A format-1 or format-2 directory whose journal still starts at
/// edge 0 resumes by full replay, digest-identical to the run that
/// never stopped, and the checkpoints the replay writes replace the
/// older ones.
#[test]
fn format_1_checkpoints_beside_a_journal_from_edge_0_resume_by_full_replay() {
    let (edges, workload) = hub_stream(300, 0xc0de);
    for version in OLDER_FORMATS {
        let (checkpointed, digest) = wal_run(&edges, &workload, 300, 1000);
        let (journal_only, journal_digest) = wal_run(&edges, &workload, 0, 1000);
        assert_eq!(journal_digest, digest, "the cadence is not state");
        assert_eq!(list_segments(&journal_only).unwrap()[0].0, 0);
        let planted = plant_format(&checkpointed, &journal_only, version);
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
            "format {version}: full-replay digest"
        );
        let kept = list_checkpoints(&journal_only).unwrap();
        assert_eq!(kept.len(), 2, "the replay's own checkpoints, pruned");
        for (_, name) in kept {
            read_checkpoint(&journal_only, &name).expect("the replay wrote format 3");
        }
    }
}

/// Once rotation has deleted the journal's start, a format-1 or
/// format-2 directory has nothing this build can resume from: resume
/// refuses with the error naming both versions, not a rotation story,
/// and never panics.
#[test]
fn format_1_checkpoints_beside_a_rotated_journal_are_refused_by_name() {
    let (edges, workload) = hub_stream(300, 0xc0de);
    for version in OLDER_FORMATS {
        let (backend, _) = wal_run(&edges, &workload, 300, 1000);
        assert_eq!(list_segments(&backend).unwrap()[0].0, 600);
        let newest = plant_format(&backend, &backend, version).pop().unwrap();

        let err = engine(&workload)
            .resume_from_wal(Box::new(backend), 300, FP, |_| {})
            .expect_err("an older-format directory resumed");
        let m = err.to_string();
        assert!(
            m.contains(&format!("format {version}")) && m.contains("format 3"),
            "{m}"
        );
        match err {
            WalError::FormatVersion {
                checkpoint,
                found,
                reads,
            } => assert_eq!(
                (checkpoint.as_str(), found, reads),
                (newest.as_str(), version, 3)
            ),
            other => panic!("expected FormatVersion, got {other:?}"),
        }
    }
}

/// The newest checkpoint doctored with the frame re-checksummed: the
/// adjacency's vertex rows three ways (a vertex out of order, a row
/// length past the payload, an empty row) and the first match cell's
/// parent pointing at itself. Each resume is `Corrupt` and names the
/// row or the cell.
#[test]
fn doctored_vertex_rows_refuse_resume() {
    let (edges, workload) = hub_stream(300, 0xc0de);
    let (backend, _) = wal_run(&edges, &workload, 300, 1000);
    let (_, newest) = list_checkpoints(&backend).unwrap().pop().unwrap();
    let clean = read_checkpoint(&backend, &newest).unwrap();

    // Walk to the adjacency rows: the engine's four counters and its
    // pending edges (16 bytes each), the partitioner's name and Loom's
    // partition state. Then past the adjacency and the window to the
    // match cells.
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
    let rows_at = state.len() - r.remaining();
    let nrows = r.u64().unwrap();
    assert!(nrows >= 2, "{nrows} adjacency rows");
    let row0_vertex = r.u32().unwrap();
    let row0_len = r.u32().unwrap() as usize;
    // Row 1: its vertex, then its length.
    let row1_at = rows_at + 8 + 4 + 4 + 4 * row0_len;
    let row1_len_at = row1_at + 4;
    let mut r = ByteReader::new(&state[rows_at..]);
    OnlineAdjacency::bounded(64).wal_load(&mut r).unwrap();
    SlidingWindow::new(WINDOW).wal_load(&mut r).unwrap();
    let cells_at = state.len() - r.remaining();
    assert!(r.u64().unwrap() >= 1, "no live match cell");

    let doctor = |at: usize, bytes: &[u8]| {
        let mut state = clean.state.clone();
        state[at..at + bytes.len()].copy_from_slice(bytes);
        state
    };
    let row1 = "adjacency row 1 (vertex";
    for (what, state, whose, want) in [
        (
            "vertex out of order",
            doctor(row1_at, &row0_vertex.to_le_bytes()),
            row1,
            "does not ascend",
        ),
        (
            "length past the payload",
            doctor(row1_len_at, &u32::MAX.to_le_bytes()),
            row1,
            "past the",
        ),
        (
            "empty row",
            doctor(row1_len_at, &0u32.to_le_bytes()),
            row1,
            "is empty",
        ),
        (
            "a cell's parent pointing forward",
            doctor(cells_at + 8, &0u32.to_le_bytes()),
            "match arena: cell 0",
            "points forward to parent 0",
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
            Err(WalError::Corrupt(m)) => {
                assert!(m.contains(whose) && m.contains(want), "{what}: {m}")
            }
            other => panic!("{what}: resumed as {other:?}"),
        }
    }
}
