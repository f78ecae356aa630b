//! Golden bytes of the bounded adjacency's checkpoint encoding
//! (DESIGN.md §11, §15) under a horizon that bites.
//!
//! `loom-core`'s `wal_golden.rs` runs under the default 65 536-edge
//! horizon, so no adjacency entry ever expires or compacts there. This
//! file drives a seeded, hub-heavy stream through a 1 000-edge horizon
//! instead: rows cross 3, 8 and 9 entries, age, spill, cool back below
//! the spill threshold and empty out, and compaction fires many times.
//! The `(length, FNV-1a)` pairs of `wal_save` at five points were
//! recorded when the checkpoint format went to version 3, which writes
//! only the non-empty rows' retained entries, whether a row is inline
//! or spilled and whatever dead prefix it carries; neither the row
//! layout nor the compaction state may change a single checkpoint
//! byte.

use loom_graph::{EdgeId, Label, StreamEdge, VertexId};
use loom_partition::OnlineAdjacency;
use loom_wal::{ByteReader, ByteWriter};

const HORIZON: u64 = 1_000;
const EDGES: u32 = 20_000;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: a self-contained generator, so the stream cannot move
/// with any RNG crate.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % n as u64) as u32
    }
}

/// One endpoint: a hub (ids 0..4) a quarter of the time, a warm
/// vertex (ids 4..304, a few retained entries each) half the time, a
/// cold one (ids 304..6304, mostly one or two entries) otherwise.
fn endpoint(rng: &mut SplitMix) -> u32 {
    match rng.below(4) {
        0 => rng.below(4),
        1 | 2 => 4 + rng.below(300),
        _ => 304 + rng.below(6_000),
    }
}

fn hub_heavy_stream(seed: u64) -> Vec<StreamEdge> {
    let mut rng = SplitMix(seed);
    (0..EDGES)
        .map(|i| {
            let src = endpoint(&mut rng);
            // One edge in 64 is a self-loop: two entries in one row.
            let dst = if rng.below(64) == 0 {
                src
            } else {
                endpoint(&mut rng)
            };
            StreamEdge {
                id: EdgeId(i),
                src: VertexId(src),
                dst: VertexId(dst),
                src_label: Label(0),
                dst_label: Label(0),
            }
        })
        .collect()
}

fn save(adj: &OnlineAdjacency) -> Vec<u8> {
    let mut w = ByteWriter::new();
    adj.wal_save(&mut w);
    w.into_bytes()
}

#[test]
fn bounded_adjacency_leaves_the_recorded_checkpoint_bytes() {
    let want: [(u32, usize, u64); 5] = [
        (4_000, 22_432, 14_888_462_524_548_660_545),
        (8_000, 22_152, 7_827_894_928_744_821_962),
        (12_000, 22_072, 12_555_871_096_619_126_944),
        (16_000, 22_400, 18_109_206_113_094_980_110),
        (20_000, 22_200, 9_643_644_579_740_929_448),
    ];
    let mut adj = OnlineAdjacency::bounded(HORIZON);
    // Highest retained degree each vertex reached: the stream must
    // carry rows past 3 (the 16-byte row's inline slots), and past 8
    // and at 9, where format 1 switched row encodings.
    let mut peak = vec![0usize; 6_304];
    let mut got = Vec::new();
    for (i, e) in hub_heavy_stream(42).iter().enumerate() {
        adj.add(e);
        for v in [e.src, e.dst] {
            peak[v.index()] = peak[v.index()].max(adj.degree(v));
        }
        let edges = i as u32 + 1;
        if want.iter().any(|&(at, _, _)| at == edges) {
            let bytes = save(&adj);
            // The bytes reload to an adjacency that saves them again.
            let mut back = OnlineAdjacency::bounded(HORIZON);
            back.wal_load(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(save(&back), bytes, "save -> load -> save at edge {edges}");
            got.push((edges, bytes.len(), fnv1a(&bytes)));
        }
    }
    let rows_past = |n: usize| peak.iter().filter(|&&d| d > n).count();
    assert!(rows_past(3) >= 100, "{} rows past 3 entries", rows_past(3));
    assert!(rows_past(8) >= 20, "{} rows past 8 entries", rows_past(8));
    assert!(peak.contains(&9), "no row peaked at exactly 9 entries");
    let occ = adj.occupancy();
    assert!(occ.generation >= 3, "{} compactions", occ.generation);
    assert_eq!(got, want, "checkpoint bytes (edges, len, fnv1a)");
}
