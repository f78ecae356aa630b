//! Loom's checkpoint carries a neighbour-count block beside the
//! partition state and the adjacency (DESIGN.md §15). Loom keeps no
//! counter table: save writes each row as the scan of the adjacency
//! against the placements, and load checks each row against that scan
//! of what it has just loaded. A block that disagrees is hostile or
//! damaged input, and resuming from it would steer later placements,
//! so resume refuses it.

mod common;

use common::*;
use loom_core::engine::{EngineConfig, OnlineEngine};
use loom_core::partition::{CapacityModel, OnlineAdjacency, PartitionState};
use loom_core::wal::{
    list_checkpoints, read_checkpoint, write_checkpoint, ByteReader, MemBackend, WalError,
};

const FP: &str = "system=Loom k=3 seed=7 window=12 test=checkpoint-counts";

fn engine(k: usize, workload: &loom_core::graph::Workload) -> OnlineEngine {
    OnlineEngine::new(
        Box::new(loom(k, 12, 64, workload)),
        EngineConfig {
            batch_size: 64,
            ..EngineConfig::default()
        },
    )
}

/// One count of one row moved to another partition, the frame
/// re-checksummed so that only the block is wrong: resume is `Corrupt`
/// and names the row.
#[test]
fn doctored_neighbor_count_row_refuses_resume() {
    let (edges, workload) = hub_stream(300, 0xc0de);
    let k = 3;
    let backend = MemBackend::new();
    let mut victim = engine(k, &workload);
    victim
        .attach_wal(Box::new(backend.clone()), 300, FP)
        .unwrap();
    victim
        .run(&mut VecSource::new(&edges), Some(1000), |_| {})
        .unwrap();
    drop(victim);

    let (_, newest) = list_checkpoints(&backend).unwrap().pop().unwrap();
    let mut ckpt = read_checkpoint(&backend, &newest).unwrap();
    // Walk to the block: the engine's four counters and its pending
    // edges (16 bytes each), the partitioner's name, then Loom's
    // partition state and adjacency.
    let mut r = ByteReader::new(&ckpt.state);
    for _ in 0..4 {
        r.u64().unwrap();
    }
    for _ in 0..2 * r.u64().unwrap() {
        r.u64().unwrap();
    }
    assert_eq!(r.str().unwrap(), "Loom");
    PartitionState::new(k, CapacityModel::Adaptive, 1.1)
        .wal_load(&mut r)
        .unwrap();
    OnlineAdjacency::new().wal_load(&mut r).unwrap();
    let cells = r.u64().unwrap() as usize;
    let block = ckpt.state.len() - r.remaining();
    let at = |i: usize| block + 4 * i;
    let cell =
        |state: &[u8], i: usize| u32::from_le_bytes(state[at(i)..at(i) + 4].try_into().unwrap());
    let i = (0..cells)
        .find(|&i| cell(&ckpt.state, i) > 0)
        .expect("some row holds a placed neighbour");
    let (row, to) = (i / k, i - i % k + (i + 1) % k);
    let (from_count, to_count) = (cell(&ckpt.state, i) - 1, cell(&ckpt.state, to) + 1);
    ckpt.state[at(i)..at(i) + 4].copy_from_slice(&from_count.to_le_bytes());
    ckpt.state[at(to)..at(to) + 4].copy_from_slice(&to_count.to_le_bytes());
    write_checkpoint(&backend, &ckpt).unwrap();

    let mut resumed = engine(k, &workload);
    match resumed.resume_from_wal(Box::new(backend), 300, FP, |_| {}) {
        Err(WalError::Corrupt(m)) => assert!(m.contains(&format!("row {row}:")), "{m}"),
        other => panic!("a doctored count row resumed: {other:?}"),
    }
}
