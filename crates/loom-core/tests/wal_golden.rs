//! Golden bytes of the WAL (DESIGN.md §15): a fixed seeded run must
//! leave exactly these bytes on disk. The lengths and FNV-1a hashes
//! below were recorded at the commit *before* the CRC kernel, the
//! checkpoint framing and the journal writer were rewritten to handle
//! each byte once — a change to how the bytes are produced must not
//! change a single one of them, and a deliberate format change has to
//! edit this file (and bump the checkpoint `VERSION`) to land.

use loom_core::engine::{EngineConfig, OnlineEngine};
use loom_core::graph::{DatasetKind, SyntheticEdgeSource};
use loom_core::partition::{CapacityModel, EoParams, LoomConfig, LoomPartitioner};
use loom_core::query::workload_for;
use loom_core::wal::{list_checkpoints, MemBackend, JOURNAL_FILE};

const FP: &str = "system=Loom k=4 seed=42 window=1024 test=wal-golden";

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn seeded_run_leaves_the_recorded_bytes() {
    let config = LoomConfig {
        k: 4,
        window_size: 1024,
        support_threshold: 0.4,
        prime: loom_core::motif::DEFAULT_PRIME,
        eo: EoParams::default(),
        capacity_slack: 1.1,
        capacity: CapacityModel::Adaptive,
        seed: 42,
        allocation: Default::default(),
        adjacency_horizon: Default::default(),
    };
    let partitioner = LoomPartitioner::new(
        &config,
        &workload_for(DatasetKind::Dblp),
        DatasetKind::Dblp.num_labels(),
    );
    let mut engine = OnlineEngine::new(
        Box::new(partitioner),
        EngineConfig {
            snapshot_every: 5_000,
            track_cuts: true,
            batch_size: 256,
        },
    );
    let backend = MemBackend::new();
    engine
        .attach_wal(Box::new(backend.clone()), 20_000, FP)
        .unwrap();
    engine
        .run(&mut SyntheticEdgeSource::new(13, 4), Some(60_000), |_| {})
        .unwrap();
    engine.flush_wal().unwrap();

    let want = [
        (JOURNAL_FILE, 964_700usize, 7_815_862_940_534_548_168u64),
        (
            "ckpt-00000000000000000002",
            1_398_885,
            11_389_851_490_312_875_181,
        ),
        (
            "ckpt-00000000000000000003",
            1_903_529,
            15_125_804_751_421_030_700,
        ),
    ];
    let kept: Vec<String> = list_checkpoints(&backend)
        .unwrap()
        .into_iter()
        .map(|(_, name)| name)
        .collect();
    assert_eq!(kept, [want[1].0, want[2].0], "surviving checkpoints");
    for (name, len, hash) in want {
        let bytes = backend.contents(name).unwrap();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (len, hash),
            "{name}: (length, FNV-1a) of the bytes on disk changed"
        );
    }
}
