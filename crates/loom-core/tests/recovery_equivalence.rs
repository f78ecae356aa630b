//! Crash-recovery oracle: kill a WAL-attached run at an arbitrary
//! point, resume from the newest checkpoint plus journal replay, and
//! the resumed engine is **bit-identical** to one that never stopped
//! (DESIGN.md §15).
//!
//! The kill points are adversarial on purpose: exactly at a checkpoint
//! boundary, one edge past it, mid-batch, and deep into the stream
//! after checkpoint pruning and journal rotation have discarded the
//! early files. On top of the clean kills, the suite corrupts the WAL
//! itself — checkpoint bit-flips (fall back to the older checkpoint,
//! or to full replay while the journal still reaches edge 0),
//! exhaustive truncation and bit-flip sweeps over every journal
//! segment (checksummed-prefix recovery in the last segment, a loud
//! failure naming the segment and the record in any other, never a
//! silently wrong state), short writes from a failing device — one of
//! them between the two records of a batch the checkpoint cadence
//! cuts — and a checkpoint write that fails mid-batch, after the
//! journal flush has made the whole batch durable.
//!
//! Bit-identity is judged by [`OnlineEngine::state_digest`] — the
//! engine + partitioner state as a checkpoint writes it, live content
//! only — plus the replayed snapshot sequence (matched by `seq`
//! against the uninterrupted run, with the occupancy compared by
//! content: a resume rebuilds every store compacted) and the final
//! assignment of every vertex.

mod common;

use common::*;
use loom_core::engine::{EngineConfig, OnlineEngine, Snapshot};
use loom_core::graph::{EdgeSource, StreamEdge, VertexId, Workload};
use loom_core::partition::{
    CapacityModel, FennelParams, FennelPartitioner, HashPartitioner, LdgPartitioner,
    StreamPartitioner,
};
use loom_core::wal::{
    list_checkpoints, list_segments, scan_journal, segment_name, FaultPlan, FaultyBackend,
    FileBackend, JournalWriter, MemBackend, StorageBackend, WalError, WalFile, JOURNAL_FILE,
};

/// The config fingerprint every test stamps into its WAL.
const FP: &str = "system=Loom k=3 seed=7 window=16 test=recovery";

fn engine_with(p: Box<dyn StreamPartitioner>, batch: usize, cadence: usize) -> OnlineEngine {
    OnlineEngine::new(
        p,
        EngineConfig {
            snapshot_every: cadence,
            track_cuts: true,
            batch_size: batch,
        },
    )
}

/// Kill a WAL run after `kill` edges (drop without finish — the
/// crash), resume a fresh engine from the same backend, continue to
/// the end of the stream, and return what the comparisons need.
struct ResumedRun {
    durable: u64,
    snaps: Vec<Snapshot>,
    engine: OnlineEngine,
}

fn kill_and_resume(
    edges: &[StreamEdge],
    make: &dyn Fn() -> Box<dyn StreamPartitioner>,
    batch: usize,
    cadence: usize,
    checkpoint_every: u64,
    kill: u64,
) -> ResumedRun {
    let backend = MemBackend::new();
    let mut victim = engine_with(make(), batch, cadence);
    victim
        .attach_wal(Box::new(backend.clone()), checkpoint_every, FP)
        .unwrap();
    victim
        .run(&mut VecSource::new(edges), Some(kill), |_| {})
        .unwrap();
    drop(victim); // the crash: no finish, no further flush

    let mut resumed = engine_with(make(), batch, cadence);
    let mut snaps = Vec::new();
    let durable = resumed
        .resume_from_wal(Box::new(backend.clone()), checkpoint_every, FP, |s| {
            snaps.push(s.clone())
        })
        .unwrap();
    let mut source = VecSource::new(edges);
    assert_eq!(source.skip_edges(durable), durable, "source skips replay");
    resumed
        .run(&mut source, None, |s| snaps.push(s.clone()))
        .unwrap();
    ResumedRun {
        durable,
        snaps,
        engine: resumed,
    }
}

/// The headline matrix: Loom at batch {1, 256} on the hub stream and
/// on the hub-plus-cycle stream, each killed exactly at a checkpoint
/// boundary, one edge past every boundary, mid-batch, and after
/// pruning has dropped the early checkpoints. A resume rebuilds all
/// four stores compacted at the kill's checkpoint, an edge the
/// uninterrupted run compacts nowhere near, so this is also the
/// oracle that placements never read compaction layout: every resumed
/// run equals the uninterrupted twin in state digest (which encodes
/// the five `LoomStats` counters and the window's live edges in
/// order), snapshot sequence, and final assignment.
#[test]
fn loom_kill_resume_matrix_is_bit_identical() {
    let (ckpt_every, cadence) = (500u64, 150usize);
    for (input, (edges, workload)) in [
        ("hub", hub_stream(600, 0x0dd)),
        ("hub-plus-cycle", hub_cycle_stream(480, 0x0dd)),
    ] {
        let n = edges.len() as u64;
        let max_v = edges.iter().flat_map(|e| [e.src.0, e.dst.0]).max().unwrap();
        let mut kills = vec![ckpt_every, 777, 1950];
        kills.extend((ckpt_every..n).step_by(ckpt_every as usize).map(|b| b + 1));
        for batch in [1usize, 256] {
            let make = || -> Box<dyn StreamPartitioner> { Box::new(loom(3, 16, 96, &workload)) };
            // Uninterrupted reference, WAL attached so both runs
            // take the identical ingest path.
            let mut reference = engine_with(make(), batch, cadence);
            reference
                .attach_wal(Box::new(MemBackend::new()), ckpt_every, FP)
                .unwrap();
            let mut ref_snaps = Vec::new();
            reference
                .run(&mut VecSource::new(&edges), None, |s| {
                    ref_snaps.push(s.clone())
                })
                .unwrap();
            let ref_digest = reference.state_digest().unwrap();
            let ref_fin = reference.finish();
            let ref_assignment = reference.into_assignment();

            for &kill in &kills {
                assert!(kill < n, "kill point must interrupt the stream");
                let ctx = format!("{input}, batch {batch}, kill {kill}");
                let run = kill_and_resume(&edges, &make, batch, cadence, ckpt_every, kill);
                assert_eq!(run.durable, kill, "{ctx}: every fed edge was durable");

                // Recovery observability: replay spans newest
                // checkpoint -> durable.
                let newest_ckpt = kill / ckpt_every * ckpt_every;
                let stats = run.engine.recovery_stats().expect("wal attached");
                assert_eq!(stats.replayed_edges, kill - newest_ckpt, "{ctx}: replayed");
                assert!(stats.journal_bytes > 0, "{ctx}: journal bytes reported");

                // Bit-identity: full recoverable state...
                assert_eq!(
                    run.engine.state_digest().unwrap(),
                    ref_digest,
                    "{ctx}: state digest diverged"
                );
                // ...every re-fired and post-resume snapshot,
                // matched by seq against the uninterrupted run...
                assert_eq!(
                    run.snaps.last().map(|s| s.seq),
                    ref_snaps.last().map(|s| s.seq),
                    "{ctx}: snapshot sequence ends at the same seq"
                );
                for s in &run.snaps {
                    let twin = ref_snaps
                        .iter()
                        .find(|r| r.seq == s.seq)
                        .unwrap_or_else(|| panic!("{ctx}: no reference snapshot seq {}", s.seq));
                    assert_snap_content_eq(s, twin, &ctx);
                }
                // ...and the final assignment after the drain.
                let mut resumed = run.engine;
                let fin = resumed.finish();
                assert_snap_content_eq(&fin, &ref_fin, &format!("{ctx}, final"));
                let assignment = resumed.into_assignment();
                for v in 0..=max_v {
                    assert_eq!(
                        ref_assignment.partition_of(VertexId(v)),
                        assignment.partition_of(VertexId(v)),
                        "{ctx}: assignment diverged at vertex {v}"
                    );
                }
            }
        }
    }
}

/// A boxed partitioner factory, nameable so each spot-check below can
/// rebuild its system from scratch.
type MakePartitioner = Box<dyn Fn() -> Box<dyn StreamPartitioner>>;

/// The memoryless baselines checkpoint too: one kill/resume spot-check
/// per system, digest- and assignment-identical.
#[test]
fn baseline_partitioners_kill_resume_spot_checks() {
    let (edges, _) = hub_stream(300, 0xba5e);
    let systems: Vec<(&str, MakePartitioner)> = vec![
        (
            "Hash",
            Box::new(|| -> Box<dyn StreamPartitioner> { Box::new(HashPartitioner::new(4, 3)) }),
        ),
        (
            "LDG",
            Box::new(|| -> Box<dyn StreamPartitioner> {
                Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive))
            }),
        ),
        (
            "Fennel",
            Box::new(|| -> Box<dyn StreamPartitioner> {
                Box::new(FennelPartitioner::new(
                    4,
                    CapacityModel::Adaptive,
                    FennelParams::default(),
                ))
            }),
        ),
    ];
    for (name, make) in &systems {
        let mut reference = engine_with(make(), 64, 100);
        reference
            .attach_wal(Box::new(MemBackend::new()), 256, FP)
            .unwrap();
        reference
            .run(&mut VecSource::new(&edges), None, |_| {})
            .unwrap();
        let ref_digest = reference.state_digest().unwrap();
        for kill in [256u64, 257, 399] {
            let run = kill_and_resume(&edges, make, 64, 100, 256, kill);
            assert_eq!(run.durable, kill, "{name} kill {kill}");
            assert_eq!(
                run.engine.state_digest().unwrap(),
                ref_digest,
                "{name} kill {kill}: digest diverged"
            );
        }
    }
}

/// WAL-on changes nothing observable: the whole snapshot sequence and
/// the final state digest equal a WAL-off run to every digit.
#[test]
fn wal_is_quality_invisible() {
    let (edges, workload) = hub_stream(200, 0x11f);
    let make = || -> Box<dyn StreamPartitioner> { Box::new(loom(3, 12, 64, &workload)) };
    let run = |wal: bool| {
        let mut engine = engine_with(make(), 64, 97);
        if wal {
            engine
                .attach_wal(Box::new(MemBackend::new()), 300, FP)
                .unwrap();
        }
        let mut snaps = Vec::new();
        engine
            .run(&mut VecSource::new(&edges), None, |s| snaps.push(s.clone()))
            .unwrap();
        let digest = engine.state_digest().unwrap();
        (snaps, digest)
    };
    let (off_snaps, off_digest) = run(false);
    let (on_snaps, on_digest) = run(true);
    assert_snaps_eq(&off_snaps, &on_snaps, "WAL off vs on");
    for (a, b) in off_snaps.iter().zip(&on_snaps) {
        assert!(a.recovery.is_none(), "WAL-off snapshots carry no recovery");
        assert!(b.recovery.is_some(), "WAL-on snapshots report recovery");
    }
    assert_eq!(off_digest, on_digest, "state digest");
}

/// A corrupt newest checkpoint falls back to the one before it. All
/// checkpoints gone falls back to full replay from edge 0 while the
/// journal still starts there — a single-file journal written before
/// segments — and, once rotation has deleted the journal's start, is a
/// `Corrupt` error naming the edge the journal now starts at. Every
/// resume that succeeds is bit-identical.
#[test]
fn corrupt_or_missing_checkpoints_fall_back() {
    let (edges, workload) = hub_stream(300, 0xc0de);
    let make = || -> Box<dyn StreamPartitioner> { Box::new(loom(3, 12, 64, &workload)) };
    let mut reference = engine_with(make(), 64, 0);
    reference
        .attach_wal(Box::new(MemBackend::new()), 300, FP)
        .unwrap();
    reference
        .run(&mut VecSource::new(&edges), Some(1000), |_| {})
        .unwrap();
    let ref_digest = reference.state_digest().unwrap();

    let backend = MemBackend::new();
    let mut victim = engine_with(make(), 64, 0);
    victim
        .attach_wal(Box::new(backend.clone()), 300, FP)
        .unwrap();
    victim
        .run(&mut VecSource::new(&edges), Some(1000), |_| {})
        .unwrap();
    drop(victim);

    // Checkpoints at 300/600/900, pruned to the newest two; the journal
    // from the older of them on.
    let names: Vec<String> = list_checkpoints(&backend)
        .unwrap()
        .into_iter()
        .map(|(_, n)| n)
        .collect();
    assert_eq!(names.len(), 2, "pruning keeps the newest two");
    let segments: Vec<u64> = list_segments(&backend)
        .unwrap()
        .into_iter()
        .map(|(first, _)| first)
        .collect();
    assert_eq!(segments, [600, 900], "rotation keeps the journal from 600");

    // Flip a byte mid-payload of the newest: resume must fall back to
    // the older checkpoint and replay the longer suffix.
    let newest = names.last().unwrap();
    let clean = backend.contents(newest).unwrap();
    let mut bad = clean.clone();
    bad[clean.len() / 2] ^= 0x04;
    backend.set_contents(newest, bad);
    let mut resumed = engine_with(make(), 64, 0);
    let durable = resumed
        .resume_from_wal(Box::new(backend.clone()), 300, FP, |_| {})
        .unwrap();
    assert_eq!(durable, 1000);
    let stats = resumed.recovery_stats().unwrap();
    assert_eq!(stats.replayed_edges, 400, "fell back to the 600 checkpoint");
    assert_eq!(
        resumed.state_digest().unwrap(),
        ref_digest,
        "fallback digest"
    );

    // A single-file journal from edge 0 (the layout before segments)
    // beside the same checkpoints, then every checkpoint removed: full
    // replay from edge 0.
    let legacy = legacy_wal(&backend, &edges, make(), 64, 1000);
    for name in &names {
        legacy.remove(name).unwrap();
    }
    let mut replayed = engine_with(make(), 64, 0);
    let durable = replayed
        .resume_from_wal(Box::new(legacy), 300, FP, |_| {})
        .unwrap();
    assert_eq!(durable, 1000);
    assert_eq!(
        replayed.recovery_stats().unwrap().replayed_edges,
        1000,
        "full replay"
    );
    assert_eq!(
        replayed.state_digest().unwrap(),
        ref_digest,
        "full-replay digest"
    );

    // The rotated journal starts at 600: with every checkpoint removed
    // there is nothing to replay from, and resume says where it starts.
    // A readable checkpoint from before that edge (300, taken from a run
    // stopped at 500) changes nothing: the journal cannot continue it.
    for name in &names {
        backend.remove(name).unwrap();
    }
    let early = MemBackend::new();
    let mut e = engine_with(make(), 64, 0);
    e.attach_wal(Box::new(early.clone()), 300, FP).unwrap();
    e.run(&mut VecSource::new(&edges), Some(500), |_| {})
        .unwrap();
    let (_, ckpt_300) = list_checkpoints(&early).unwrap().remove(0);
    for planted in [false, true] {
        if planted {
            backend.set_contents(&ckpt_300, early.contents(&ckpt_300).unwrap());
        }
        let mut e = engine_with(make(), 64, 0);
        match e.resume_from_wal(Box::new(backend.clone()), 300, FP, |_| {}) {
            Err(WalError::Corrupt(m)) => assert!(
                m.contains("no readable checkpoint at or after stream edge 600"),
                "planted {planted}: {m}"
            ),
            other => panic!("planted {planted}: expected Corrupt, got {other:?}"),
        }
    }
}

/// A WAL directory in the layout before journal segments: `ckpts`'
/// checkpoints beside one `journal` file from edge 0, written with
/// `JournalWriter::open`, one record per batch of a `batch`-edge run of
/// `make` over the first `n` edges.
fn legacy_wal(
    ckpts: &MemBackend,
    edges: &[StreamEdge],
    make: Box<dyn StreamPartitioner>,
    batch: usize,
    n: u64,
) -> MemBackend {
    // A journal-only WAL never rotates: one segment from edge 0.
    let journal_only = MemBackend::new();
    let mut e = engine_with(make, batch, 0);
    e.attach_wal(Box::new(journal_only.clone()), 0, FP).unwrap();
    e.run(&mut VecSource::new(edges), Some(n), |_| {}).unwrap();
    let records = scan_journal(&journal_only.contents(&segment_name(0)).unwrap()).records;

    let legacy = MemBackend::new();
    for (_, name) in list_checkpoints(ckpts).unwrap() {
        legacy.set_contents(&name, ckpts.contents(&name).unwrap());
    }
    let mut w = JournalWriter::open(&legacy, 0).unwrap();
    for rec in &records {
        w.append_record(rec).unwrap();
    }
    w.flush().unwrap();
    legacy
}

/// Exhaustive torn-tail and bit-flip property over every journal
/// segment: cut each segment at EVERY byte offset (and flip a bit at
/// every offset). Damage in the last segment — the one a crash can
/// tear — recovers exactly a checksummed prefix, bit-identical to a
/// clean run over that many edges. Damage in an earlier segment is not
/// a crash artefact: resume fails with `Corrupt`, naming the segment
/// and the record. Never a silently wrong state.
#[test]
fn journal_truncation_and_bitflip_sweep() {
    let (edges, _) = hub_stream(50, 0x70a7); // 199 edges
    let n = edges.len() as u64;
    let make = || -> Box<dyn StreamPartitioner> {
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive))
    };
    // A cadence off the 16-edge batch grid: the batches over 72 and 144
    // are each journaled as two records, one per segment.
    let (batch, ckpt_every) = (16usize, 72u64);

    // Reference digests for every durable prefix.
    let prefix_digest: Vec<Vec<u8>> = (0..=n)
        .map(|at| {
            let mut r = engine_with(make(), batch, 0);
            r.run(&mut VecSource::new(&edges), Some(at), |_| {})
                .unwrap();
            r.state_digest().unwrap()
        })
        .collect();

    let pristine = MemBackend::new();
    let mut victim = engine_with(make(), batch, 0);
    victim
        .attach_wal(Box::new(pristine.clone()), ckpt_every, FP)
        .unwrap();
    victim
        .run(&mut VecSource::new(&edges), None, |_| {})
        .unwrap();
    drop(victim);
    let segments: Vec<(String, Vec<u8>)> = list_segments(&pristine)
        .unwrap()
        .into_iter()
        .map(|(_, name)| {
            let bytes = pristine.contents(&name).unwrap();
            (name, bytes)
        })
        .collect();
    let names: Vec<&str> = segments.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [segment_name(72), segment_name(144)],
        "checkpoints 72 and 144 keep the journal from 72"
    );
    // Where a damaged last segment may end: its start (the newest
    // checkpoint) and each record's end.
    let mut boundaries = vec![144u64];
    for rec in scan_journal(&segments[1].1).records {
        let first = u64::from_le_bytes(rec[..8].try_into().unwrap());
        let count = u32::from_le_bytes(rec[8..12].try_into().unwrap());
        boundaries.push(first + count as u64);
    }
    assert_eq!(boundaries, [144, 160, 176, 192, 199]);

    let check = |damaged: usize, bytes: Vec<u8>, what: &str| {
        let b = MemBackend::new();
        for (_, name) in list_checkpoints(&pristine).unwrap() {
            b.set_contents(&name, pristine.contents(&name).unwrap());
        }
        for (i, (name, clean)) in segments.iter().enumerate() {
            let kept = if i == damaged { &bytes } else { clean };
            b.set_contents(name, kept.clone());
        }
        let undamaged = bytes == segments[damaged].1;
        let mut engine = engine_with(make(), batch, 0);
        let got = engine.resume_from_wal(Box::new(b.clone()), ckpt_every, FP, |_| {});
        if damaged + 1 == segments.len() || undamaged {
            let durable = got.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(
                boundaries.contains(&durable),
                "{what}: recovered {durable} edges, not a record boundary"
            );
            assert_eq!(
                engine.state_digest().unwrap(),
                prefix_digest[durable as usize],
                "{what}: prefix of {durable} edges is not bit-identical"
            );
        } else {
            match got {
                Err(WalError::Corrupt(m)) => assert!(
                    m.contains(&segments[damaged].0) && m.contains("record"),
                    "{what}: failure does not name the segment and the record: {m}"
                ),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
            // Refused before touching anything: no segment truncated.
            assert_eq!(
                b.contents(&segments[damaged].0),
                Some(bytes),
                "{what}: a refused resume changed the damaged segment"
            );
        }
    };

    for (i, (name, clean)) in segments.iter().enumerate() {
        for cut in 0..=clean.len() {
            check(i, clean[..cut].to_vec(), &format!("{name} cut at {cut}"));
        }
        for pos in 0..clean.len() {
            let mut flipped = clean.clone();
            flipped[pos] ^= 0x20;
            check(i, flipped, &format!("{name} flip at {pos}"));
        }
    }
}

/// A kill exactly between the two records of a batch the checkpoint
/// cadence cuts: the first is flushed into the old segment, the second
/// never reaches the new one, which may or may not have been created.
/// Both resume digest-identical to the run that never stopped.
#[test]
fn kill_between_the_halves_of_a_straddling_batch() {
    let (edges, _) = hub_stream(50, 0x57ad);
    let make = || -> Box<dyn StreamPartitioner> {
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive))
    };
    let (batch, ckpt_every) = (16usize, 72u64);
    let mut reference = engine_with(make(), batch, 0);
    reference
        .run(&mut VecSource::new(&edges), None, |_| {})
        .unwrap();
    let ref_digest = reference.state_digest().unwrap();

    for new_segment_created in [false, true] {
        let what = format!("new segment created: {new_segment_created}");
        // Records [0,16) .. [48,64) and [64,72) go through; [72,80), the
        // second half of the batch over 72, is the first append to
        // journal-72 and writes nothing.
        let mem = MemBackend::new();
        let faulty = FaultyBackend::new(mem.clone(), FaultPlan::short_write(5, 0));
        let mut engine = engine_with(make(), batch, 0);
        engine.attach_wal(Box::new(faulty), ckpt_every, FP).unwrap();
        engine
            .run(&mut VecSource::new(&edges), None, |_| {})
            .expect_err("the device dies between the halves");
        assert_eq!(engine.edges_ingested(), 64, "{what}: the batch never ran");
        drop(engine);
        assert_eq!(list_segments(&mem).unwrap(), [(0, segment_name(0))]);
        if new_segment_created {
            mem.set_contents(&segment_name(72), Vec::new());
        }

        let mut resumed = engine_with(make(), batch, 0);
        let durable = resumed
            .resume_from_wal(Box::new(mem.clone()), ckpt_every, FP, |_| {})
            .unwrap();
        assert_eq!(durable, 72, "{what}: the first half is durable");
        let mut source = VecSource::new(&edges);
        source.skip_edges(durable);
        resumed.run(&mut source, None, |_| {}).unwrap();
        assert_eq!(resumed.state_digest().unwrap(), ref_digest, "{what}");
        assert_eq!(
            list_segments(&mem).unwrap(),
            [(72, segment_name(72)), (144, segment_name(144))],
            "{what}: rotation carried on from the resumed run"
        );
    }
}

/// A WAL directory from before journal segments — one `journal` file
/// from edge 0, written by `JournalWriter::open`, beside its two
/// checkpoints — resumes digest-identical. The single file is read as
/// the segment from edge 0, takes appends until the next cadence edge,
/// and is pruned like any other segment once no kept checkpoint
/// replays from it.
#[test]
fn single_file_journal_resumes_and_is_pruned_away() {
    let (edges, workload) = hub_stream(100, 0x1e9a);
    let (rotated, ref_digest) = loom_wal_after(&edges, &workload, 64, 200);
    let legacy = legacy_wal(
        &rotated,
        &edges,
        Box::new(loom(3, 16, 96, &workload)),
        16,
        200,
    );
    assert_eq!(
        legacy.list().unwrap(),
        [
            "ckpt-00000000000000000002",
            "ckpt-00000000000000000003",
            JOURNAL_FILE
        ]
    );

    let mut resumed = engine_with(Box::new(loom(3, 16, 96, &workload)), 16, 0);
    let durable = resumed
        .resume_from_wal(Box::new(legacy.clone()), 64, FP, |_| {})
        .unwrap();
    assert_eq!(durable, 200);
    let stats = resumed.recovery_stats().unwrap();
    assert_eq!(stats.replayed_edges, 200 - 192, "from checkpoint 192");
    assert_eq!(
        stats.journal_bytes,
        legacy.contents(JOURNAL_FILE).unwrap().len() as u64,
        "journal bytes are the bytes on disk"
    );

    // The single file now ends at 256, where the cadence opened a
    // segment. Checkpoint 256 keeps 192 and 256, so it stays; checkpoint
    // 320 keeps 256 and 320, so it goes.
    let mut source = VecSource::new(&edges);
    source.skip_edges(durable);
    resumed.run(&mut source, Some(300), |_| {}).unwrap();
    assert!(legacy.contents(JOURNAL_FILE).is_some(), "still needed");
    resumed.run(&mut source, None, |_| {}).unwrap();
    assert_eq!(resumed.state_digest().unwrap(), ref_digest, "digest");
    assert_eq!(
        legacy.list().unwrap(),
        [
            "ckpt-00000000000000000005".to_string(),
            "ckpt-00000000000000000006".to_string(),
            segment_name(320),
            segment_name(384),
        ],
        "the single file was pruned away"
    );
}

/// The journal on disk stays within the two checkpoint intervals the
/// kept checkpoints can replay (plus the batch in flight), however long
/// the stream, and `RecoveryStats::journal_bytes` is exactly its size.
#[test]
fn journal_on_disk_spans_at_most_two_checkpoint_intervals() {
    let (edges, workload) = hub_stream(300, 0xd15c);
    let (batch, ckpt_every) = (16u64, 100u64);
    let backend = MemBackend::new();
    let mut engine = engine_with(Box::new(loom(3, 16, 96, &workload)), batch as usize, 8);
    engine
        .attach_wal(Box::new(backend.clone()), ckpt_every, FP)
        .unwrap();
    let mut snapshots = 0;
    engine
        .run(&mut VecSource::new(&edges), None, |s| {
            snapshots += 1;
            let segments = list_segments(&backend).unwrap();
            let on_disk: usize = segments
                .iter()
                .map(|(_, name)| backend.contents(name).map_or(0, |b| b.len()))
                .sum();
            let stats = s.recovery.expect("wal attached");
            assert_eq!(stats.journal_bytes, on_disk as u64, "at edge {}", s.edges);
            let first = segments[0].0;
            assert!(
                first + 2 * ckpt_every >= s.edges / ckpt_every * ckpt_every,
                "at edge {}: the journal still starts at {first}",
                s.edges
            );
            assert!(segments.len() <= 3, "at edge {}: {segments:?}", s.edges);
        })
        .unwrap();
    assert_eq!(snapshots, edges.len() / 8);
    let first = list_segments(&backend).unwrap()[0].0;
    assert_eq!(first, (edges.len() as u64 / ckpt_every - 1) * ckpt_every);
}

/// A journal device that dies mid-record (short write) surfaces as an
/// ingest error — and the durable prefix it left behind resumes
/// cleanly from the unfaulted media.
#[test]
fn short_write_fails_loudly_then_recovers() {
    let (edges, _) = hub_stream(50, 0x5707);
    let make = || -> Box<dyn StreamPartitioner> {
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive))
    };
    let mem = MemBackend::new();
    let faulty = FaultyBackend::new(mem.clone(), FaultPlan::short_write(5, 11));
    let mut engine = engine_with(make(), 16, 0);
    engine.attach_wal(Box::new(faulty), 0, FP).unwrap();
    let err = engine
        .run(&mut VecSource::new(&edges), None, |_| {})
        .expect_err("the dying device must fail the run");
    assert!(
        err.message.contains("wal"),
        "names the wal: {}",
        err.message
    );
    assert_eq!(engine.edges_ingested(), 5 * 16, "stopped at the failure");
    drop(engine);

    // Five 16-edge records are durable, plus 11 torn bytes.
    let mut resumed = engine_with(make(), 16, 0);
    let durable = resumed
        .resume_from_wal(Box::new(mem), 0, FP, |_| {})
        .unwrap();
    assert_eq!(durable, 80, "the checksummed prefix survives the torn tail");

    let mut reference = engine_with(make(), 16, 0);
    reference
        .run(&mut VecSource::new(&edges), Some(80), |_| {})
        .unwrap();
    assert_eq!(
        resumed.state_digest().unwrap(),
        reference.state_digest().unwrap(),
        "recovered prefix is bit-identical"
    );
}

/// A [`MemBackend`] whose checkpoint writes fail (a full device) while
/// journal appends still go through — a WAL fault that strikes after
/// the journal flush, in the middle of a batch the checkpoint cadence
/// splits.
#[derive(Clone)]
struct CheckpointsFail(MemBackend);

impl StorageBackend for CheckpointsFail {
    fn open_append(&self, name: &str) -> std::io::Result<Box<dyn WalFile>> {
        self.0.open_append(name)
    }
    fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.0.read(name)
    }
    fn write_atomic(&self, _name: &str, _bytes: &[u8]) -> std::io::Result<()> {
        Err(std::io::Error::other("checkpoint device full (injected)"))
    }
    fn list(&self) -> std::io::Result<Vec<String>> {
        self.0.list()
    }
    fn truncate(&self, name: &str, len: u64) -> std::io::Result<()> {
        self.0.truncate(name, len)
    }
    fn remove(&self, name: &str) -> std::io::Result<()> {
        self.0.remove(name)
    }
}

/// The engine journals a batch *before* the partitioner sees any of
/// it: a checkpoint write failing mid-batch bails after the journal
/// flush, so post-error resume replays the stream past the failure
/// point, to the end of the failing batch — and completes
/// bit-identically to a run that never failed.
#[test]
fn error_path_flushes_journal_before_bailing() {
    let (edges, workload) = hub_stream(100, 0xe404);
    let make = || -> Box<dyn StreamPartitioner> { Box::new(loom(3, 12, 64, &workload)) };

    let mut reference = engine_with(make(), 50, 120);
    reference
        .attach_wal(Box::new(MemBackend::new()), 128, FP)
        .unwrap();
    reference
        .run(&mut VecSource::new(&edges), None, |_| {})
        .unwrap();
    let ref_digest = reference.state_digest().unwrap();

    // The third pull covers edges 100..150; the snapshot and
    // checkpoint cadences split it at 120 and 128, where the first
    // checkpoint write fails, at the end of the fourth chunk.
    let backend = MemBackend::new();
    let mut victim = engine_with(make(), 50, 120);
    victim
        .attach_wal(Box::new(CheckpointsFail(backend.clone())), 128, FP)
        .unwrap();
    let err = victim
        .run(&mut VecSource::new(&edges), None, |_| {})
        .expect_err("the failed checkpoint must propagate");
    assert!(err.message.contains("injected"), "{}", err.message);
    assert_eq!((err.batch, err.edge_index), (4, 128), "failure point");
    assert_eq!(victim.edges_ingested(), 128, "stopped at the failure");
    drop(victim); // crash after the error

    // The journal is ahead of the committed state: the whole failing
    // batch was flushed before its first edge reached the partitioner.
    let mut resumed = engine_with(make(), 50, 120);
    let durable = resumed
        .resume_from_wal(Box::new(backend.clone()), 128, FP, |_| {})
        .unwrap();
    assert_eq!(durable, 150, "the whole failing batch is durable");

    // With the fault gone, finish the stream: bit-identical.
    let mut source = VecSource::new(&edges);
    source.skip_edges(durable);
    resumed.run(&mut source, None, |_| {}).unwrap();
    assert_eq!(
        resumed.state_digest().unwrap(),
        ref_digest,
        "post-error resume"
    );
}

/// Refusal paths: mismatched fingerprints and partitioners, WAL over
/// existing state, mid-stream attach, empty resumes.
#[test]
fn refusals_are_loud_and_specific() {
    let (edges, _) = hub_stream(30, 0x9e7);
    let backend = MemBackend::new();
    let mut engine = engine_with(
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive)),
        16,
        0,
    );
    engine
        .attach_wal(Box::new(backend.clone()), 32, FP)
        .unwrap();
    engine
        .run(&mut VecSource::new(&edges), Some(64), |_| {})
        .unwrap();
    drop(engine);

    // Wrong fingerprint: ConfigMismatch naming both sides.
    let mut e = engine_with(
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive)),
        16,
        0,
    );
    match e.resume_from_wal(Box::new(backend.clone()), 32, "different config", |_| {}) {
        Err(WalError::ConfigMismatch { expected, found }) => {
            assert_eq!(expected, "different config");
            assert_eq!(found, FP);
        }
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }

    // Wrong partitioner behind the same fingerprint: ConfigMismatch.
    let mut e = engine_with(Box::new(HashPartitioner::new(4, 3)), 16, 0);
    assert!(matches!(
        e.resume_from_wal(Box::new(backend.clone()), 32, FP, |_| {}),
        Err(WalError::ConfigMismatch { .. })
    ));

    // A resume at another checkpoint cadence would prune the journal
    // by the wrong edges: ConfigMismatch naming both cadences.
    let mut e = engine_with(
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive)),
        16,
        0,
    );
    match e.resume_from_wal(Box::new(backend.clone()), 16, FP, |_| {}) {
        Err(WalError::ConfigMismatch { expected, found }) => {
            assert_eq!(expected, "checkpoint-every=16");
            assert_eq!(
                found,
                "checkpoint-every=32 (checkpoint 2 at stream edge 64)"
            );
        }
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }

    // Attach over existing state: refused, resume is the way in.
    let mut e = engine_with(
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive)),
        16,
        0,
    );
    assert!(matches!(
        e.attach_wal(Box::new(backend.clone()), 32, FP),
        Err(WalError::Refused(_))
    ));

    // Attach mid-stream: refused (the journal would miss the prefix).
    let mut e = engine_with(
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive)),
        16,
        0,
    );
    e.run(&mut VecSource::new(&edges), Some(8), |_| {}).unwrap();
    assert!(matches!(
        e.attach_wal(Box::new(MemBackend::new()), 32, FP),
        Err(WalError::Refused(_))
    ));

    // Resuming an empty directory: refused, nothing to resume.
    let mut e = engine_with(
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive)),
        16,
        0,
    );
    assert!(matches!(
        e.resume_from_wal(Box::new(MemBackend::new()), 32, FP, |_| {}),
        Err(WalError::Refused(_))
    ));
}

/// A WAL left by `kill` edges of a Loom run at batch 16, and the
/// digest of the uninterrupted run over the whole stream.
fn loom_wal_after(
    edges: &[StreamEdge],
    workload: &Workload,
    ckpt_every: u64,
    kill: u64,
) -> (MemBackend, Vec<u8>) {
    let mut reference = engine_with(Box::new(loom(3, 16, 96, workload)), 16, 0);
    reference
        .run(&mut VecSource::new(edges), None, |_| {})
        .unwrap();
    let backend = MemBackend::new();
    let mut victim = engine_with(Box::new(loom(3, 16, 96, workload)), 16, 0);
    victim
        .attach_wal(Box::new(backend.clone()), ckpt_every, FP)
        .unwrap();
    victim
        .run(&mut VecSource::new(edges), Some(kill), |_| {})
        .unwrap();
    drop(victim);
    (backend, reference.state_digest().unwrap())
}

/// Resume from `backend`, run the rest of the stream, and return the
/// engine with what resume reported.
fn resume_and_finish(
    backend: Box<dyn StorageBackend>,
    edges: &[StreamEdge],
    workload: &Workload,
    ckpt_every: u64,
) -> (OnlineEngine, u64) {
    let mut resumed = engine_with(Box::new(loom(3, 16, 96, workload)), 16, 0);
    let durable = resumed
        .resume_from_wal(backend, ckpt_every, FP, |_| {})
        .unwrap();
    let mut source = VecSource::new(edges);
    source.skip_edges(durable);
    resumed.run(&mut source, None, |_| {}).unwrap();
    (resumed, durable)
}

/// Resume decodes only the records that reach past the checkpoint, so
/// where the checkpoint falls against the record boundaries matters:
/// inside a record (a single-file journal from before segments, where
/// records run across checkpoints), where the cadence cut a batch in
/// two, exactly between two records, and at the journal's end (nothing
/// to replay). Each resumes digest-identical to the run that never
/// stopped, replaying exactly `kill - checkpoint` edges.
#[test]
fn checkpoint_mid_record_on_a_boundary_and_at_durable() {
    let (edges, workload) = hub_stream(100, 0x7a11);
    let kill = 40u64; // batches [0,16) [16,32) [32,40)
    let journal = |name: &str, firsts: &[u64]| (name.to_string(), firsts.to_vec());
    for (ckpt_every, single_file, layout, what) in [
        (
            24u64,
            true,
            vec![journal(JOURNAL_FILE, &[0, 16, 32])],
            "mid-record",
        ),
        (
            24,
            false,
            vec![journal(&segment_name(24), &[24, 32])],
            "where the cadence cut a batch",
        ),
        (
            32,
            false,
            vec![
                journal(&segment_name(0), &[0, 16]),
                journal(&segment_name(32), &[32]),
            ],
            "on a record boundary",
        ),
        (
            40,
            false,
            vec![journal(&segment_name(0), &[0, 16, 32])],
            "at durable",
        ),
    ] {
        let (mut backend, ref_digest) = loom_wal_after(&edges, &workload, ckpt_every, kill);
        if single_file {
            let make = Box::new(loom(3, 16, 96, &workload));
            backend = legacy_wal(&backend, &edges, make, 16, kill);
        }
        // The premise: where the newest checkpoint sits in the journal.
        let got: Vec<(String, Vec<u64>)> = list_segments(&backend)
            .unwrap()
            .into_iter()
            .map(|(_, name)| {
                let firsts = scan_journal(&backend.contents(&name).unwrap())
                    .records
                    .iter()
                    .map(|r| u64::from_le_bytes(r[..8].try_into().unwrap()))
                    .collect();
                (name, firsts)
            })
            .collect();
        assert_eq!(got, layout, "{what}: segments and record boundaries");
        let (seq, _) = *list_checkpoints(&backend).unwrap().last().unwrap();
        assert_eq!(seq * ckpt_every, ckpt_every, "{what}: one checkpoint");
        let on_boundary = layout.iter().any(|(_, f)| f.contains(&ckpt_every));
        assert_eq!(on_boundary || ckpt_every == kill, !single_file, "{what}");

        let (resumed, durable) =
            resume_and_finish(Box::new(backend), &edges, &workload, ckpt_every);
        assert_eq!(durable, kill, "{what}: durable");
        assert_eq!(
            resumed.recovery_stats().unwrap().replayed_edges,
            kill - ckpt_every,
            "{what}: replayed"
        );
        assert_eq!(
            resumed.state_digest().unwrap(),
            ref_digest,
            "{what}: digest"
        );
    }
}

/// Every record's header is still checked, decoded or not: a record
/// that lies wholly before the checkpoint and does not start where
/// the previous one ended, or whose count disagrees with its length,
/// fails resume with the message it always had, which now names the
/// segment that holds it.
#[test]
fn header_faults_before_the_checkpoint_still_fail_resume() {
    let (edges, workload) = hub_stream(100, 0xfa17);
    let (pristine, _) = loom_wal_after(&edges, &workload, 32, 100);
    // Checkpoints 64 and 96 keep the journal from 64 on.
    let segments: Vec<(String, Vec<Vec<u8>>)> = list_segments(&pristine)
        .unwrap()
        .into_iter()
        .map(|(_, name)| {
            let records = scan_journal(&pristine.contents(&name).unwrap()).records;
            (name, records)
        })
        .collect();
    assert_eq!(segments[0].0, segment_name(64));
    assert_eq!(segments[0].1.len(), 2, "records [64,80) and [80,96)");
    assert_eq!(
        segments.len(),
        2,
        "checkpoint 96 lies past the first segment"
    );

    // Re-frame the journal with record 1 of the first segment (edges
    // 80..96) altered, so the fault passes every CRC and only the
    // header check can catch it.
    let damaged = |alter: &dyn Fn(&mut Vec<u8>)| {
        let b = MemBackend::new();
        for (_, name) in list_checkpoints(&pristine).unwrap() {
            b.set_contents(&name, pristine.contents(&name).unwrap());
        }
        for (s, (name, records)) in segments.iter().enumerate() {
            let mut w = JournalWriter::open_named(&b, name, 0).unwrap();
            for (i, rec) in records.iter().enumerate() {
                let mut rec = rec.clone();
                if (s, i) == (0, 1) {
                    alter(&mut rec);
                }
                w.append_record(&rec).unwrap();
            }
            w.flush().unwrap();
        }
        b
    };
    let resume_err = |b: MemBackend| {
        let mut e = engine_with(Box::new(loom(3, 16, 96, &workload)), 16, 0);
        match e.resume_from_wal(Box::new(b), 32, FP, |_| {}) {
            Err(WalError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    };

    let gap = damaged(&|rec| rec[..8].copy_from_slice(&81u64.to_le_bytes()));
    assert_eq!(
        resume_err(gap),
        "journal segment journal-00000000000000000064 record 1 starts at stream edge 81, \
         but the journal before it ends at edge 80 — the journal is discontinuous"
    );
    let miscount = damaged(&|rec| rec[8..12].copy_from_slice(&15u32.to_le_bytes()));
    assert_eq!(
        resume_err(miscount),
        "journal segment journal-00000000000000000064 record 1 claims 15 edges (240 bytes) \
         but carries 256 payload bytes"
    );
}

/// A kill between a checkpoint's write and its rename leaves
/// `ckpt-<seq>.tmp`, as large as a checkpoint and invisible to listing
/// and pruning. Resume and attach sweep it, on both backends, and the
/// resumed state is unchanged.
#[test]
fn leaked_checkpoint_temp_files_are_swept() {
    let (edges, workload) = hub_stream(100, 0x7e3f);
    let (mem, ref_digest) = loom_wal_after(&edges, &workload, 64, 100);
    let leaked = "ckpt-00000000000000000002.tmp";

    // Plant the leak through `view`, resume through `backend` (both
    // open the same files), finish the stream.
    let check = |what: &str, backend: Box<dyn StorageBackend>, view: &dyn StorageBackend| {
        view.write_atomic(leaked, &[0xAB; 4096]).unwrap();
        assert!(
            view.list().unwrap().contains(&leaked.to_string()),
            "{what}: planted"
        );
        let (resumed, durable) = resume_and_finish(backend, &edges, &workload, 64);
        assert_eq!(durable, 100, "{what}: durable");
        assert_eq!(
            resumed.state_digest().unwrap(),
            ref_digest,
            "{what}: digest"
        );
        // Swept, and nothing but the checkpoints the finished run keeps
        // and the journal from the older of them on is left.
        assert_eq!(
            view.list().unwrap(),
            [
                "ckpt-00000000000000000005".to_string(),
                "ckpt-00000000000000000006".to_string(),
                segment_name(320),
                segment_name(384),
            ],
            "{what}: directory after resume"
        );
    };

    let dir = std::env::temp_dir().join(format!("loom-recovery-tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files = FileBackend::new(&dir).unwrap();
    for name in mem.list().unwrap() {
        std::fs::write(dir.join(&name), mem.contents(&name).unwrap()).unwrap();
    }
    check("file", Box::new(FileBackend::new(&dir).unwrap()), &files);
    let _ = std::fs::remove_dir_all(&dir);
    check("mem", Box::new(mem.clone()), &mem);

    // Attach: a directory holding nothing but the leak is accepted
    // (it always was) and now comes out clean.
    let fresh = MemBackend::new();
    fresh.set_contents(leaked, vec![0xAB; 4096]);
    let mut e = engine_with(Box::new(loom(3, 16, 96, &workload)), 16, 0);
    e.attach_wal(Box::new(fresh.clone()), 64, FP).unwrap();
    assert!(fresh.contents(leaked).is_none(), "attach sweeps the leak");
}
