//! Golden bytes of the WAL (DESIGN.md §15): a fixed seeded run must
//! leave exactly these bytes on disk. The journal's row is per
//! segment, recorded when the journal was split into segments; the
//! checkpoints' lengths and FNV-1a hashes were recorded when the
//! checkpoint format went to version 3, which writes live content
//! only. A
//! change to how the bytes are produced must not change a single one
//! of them, and a deliberate format change has to edit this file (and
//! bump the checkpoint `VERSION`) to land.

use loom_core::engine::{EngineConfig, OnlineEngine};
use loom_core::graph::io as graph_io;
use loom_core::graph::{datasets, DatasetKind, Scale, SyntheticEdgeSource, TextEdgeSource};
use loom_core::partition::{CapacityModel, EoParams, LoomConfig, LoomPartitioner};
use loom_core::query::workload_for;
use loom_core::wal::{
    checkpoint_name, list_checkpoints, list_segments, segment_name, MemBackend, StorageBackend,
    WalFile,
};
use std::io;
use std::sync::{Arc, Mutex};

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

    // Checkpoints 40 000 and 60 000 survive, so the journal does from
    // edge 40 000: 20 000 edges in 79 records, the first one cut at the
    // cadence edge out of the batch that straddles it.
    let journal = segment_name(40_000);
    let want = [
        (
            journal.as_str(),
            321_580usize,
            13_903_255_286_358_939_815u64,
        ),
        (
            "ckpt-00000000000000000002",
            804_403,
            7_676_261_981_078_450_891,
        ),
        (
            "ckpt-00000000000000000003",
            1_174_819,
            13_325_773_122_990_315_015,
        ),
    ];
    let kept: Vec<String> = list_checkpoints(&backend)
        .unwrap()
        .into_iter()
        .map(|(_, name)| name)
        .collect();
    assert_eq!(kept, [want[1].0, want[2].0], "surviving checkpoints");
    let segments: Vec<String> = list_segments(&backend)
        .unwrap()
        .into_iter()
        .map(|(_, name)| name)
        .collect();
    assert_eq!(segments, [want[0].0], "surviving journal segments");
    let got: Vec<(&str, usize, u64)> = want
        .iter()
        .map(|&(name, _, _)| {
            let bytes = backend.contents(name).unwrap();
            (name, bytes.len(), fnv1a(&bytes))
        })
        .collect();
    assert_eq!(
        got, want,
        "(name, length, FNV-1a) of the bytes on disk changed"
    );
}

/// Records the `(name, length, FNV-1a)` of every file written whole —
/// every checkpoint, including those pruning deletes later.
#[derive(Clone, Default)]
struct Recording {
    inner: MemBackend,
    written: Arc<Mutex<Vec<(String, usize, u64)>>>,
}

impl StorageBackend for Recording {
    fn open_append(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        self.inner.open_append(name)
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let entry = (name.to_string(), bytes.len(), fnv1a(bytes));
        self.written.lock().unwrap().push(entry);
        self.inner.write_atomic(name, bytes)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

/// The ProvGen-small feed as `loom generate --dataset provgen | loom
/// stream --system loom --k 8 --window 256 --checkpoint-every 3000`
/// ingests it: the `.lg` text through the text source, the CLI's
/// engine and Loom config, and the fingerprint that command stamps,
/// so these are the bytes it leaves in its `--wal` directory. The
/// feed registers vertex ids late and its stores hold rows for few of
/// them, which the first test's synthetic source (its whole id range
/// registered early) does not exercise. Every checkpoint the run
/// writes is pinned, including those pruning deletes later.
#[test]
fn provgen_checkpoints_keep_the_recorded_bytes() {
    let fp = "loom-stream v1 system=loom k=8 seed=42 window=256 threshold=0.4 \
              adjacency=default labels=4 snapshot-every=5000 checkpoint-every=3000 source=text";
    let graph = datasets::generate(DatasetKind::ProvGen, Scale::Small, 42);
    let mut text = Vec::new();
    graph_io::write_graph(&graph, &mut text).unwrap();
    let config = LoomConfig {
        window_size: 256,
        seed: 42,
        ..LoomConfig::evaluation_defaults(8)
    };
    let partitioner = LoomPartitioner::new(&config, &workload_for(DatasetKind::ProvGen), 4);
    let mut engine = OnlineEngine::new(
        Box::new(partitioner),
        EngineConfig {
            snapshot_every: 5_000,
            ..EngineConfig::default()
        },
    );
    let backend = Recording::default();
    engine
        .attach_wal(Box::new(backend.clone()), 3_000, fp)
        .unwrap();
    engine
        .run(&mut TextEdgeSource::new(&text[..]), None, |_| {})
        .unwrap();
    engine.flush_wal().unwrap();
    assert_eq!(engine.edges_ingested(), 12_450);

    // Checkpoints 1 to 4, at edges 3 000 to 12 000.
    let want = [
        (99_108, 1_586_090_202_415_409_651),
        (174_476, 8_486_519_632_365_095_581),
        (249_976, 18_244_198_224_353_157_807),
        (325_056, 18_183_287_511_284_061_798),
    ];
    let want: Vec<(String, usize, u64)> = (1..)
        .zip(want)
        .map(|(seq, (len, hash))| (checkpoint_name(seq), len, hash))
        .collect();
    assert_eq!(
        *backend.written.lock().unwrap(),
        want,
        "(name, length, FNV-1a) of each checkpoint as written changed"
    );
}
