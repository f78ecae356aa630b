//! Engine-side persistence glue (DESIGN.md §15).
//!
//! The storage primitives — record framing, checkpoint files, the
//! backends — live in `loom-wal` and know nothing about graphs. This
//! module owns what the *engine* persists on top of them: the edge
//! payload of a journal record (with its stream-continuity check) and
//! the running WAL bookkeeping that [`crate::Snapshot`]s report.

use loom_graph::StreamEdge;
use loom_wal::{ByteReader, ByteWriter, JournalWriter, StorageBackend, WalError};

/// Wire bytes of one encoded [`StreamEdge`] inside a journal record
/// (`u32` id/src/dst + `u16` labels, little-endian).
pub(crate) const EDGE_WIRE_BYTES: usize = 16;

/// Recovery observability, reported through
/// [`crate::Snapshot::recovery`] and
/// [`crate::OnlineEngine::recovery_stats`] whenever a WAL is attached.
/// Pure observation: none of these numbers feed back into placement,
/// so WAL-on and WAL-off runs stay bit-identical in every quality
/// figure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Sequence number of the newest checkpoint this engine wrote, or
    /// resumed from when it has not written one yet (0 before any
    /// checkpoint exists).
    pub checkpoint_seq: u64,
    /// Checkpoints written by this process. Re-reaching a checkpoint
    /// boundary during replay rewrites the (byte-identical) file and
    /// counts here — they are real writes.
    pub checkpoints_written: u64,
    /// Edges replayed from the journal during resume; 0 on a fresh
    /// run.
    pub replayed_edges: u64,
    /// Total journal bytes (pre-existing at open plus appended since).
    pub journal_bytes: u64,
}

/// The engine's attached WAL: the backend, the open journal handle,
/// and the bookkeeping the hooks in `OnlineEngine` maintain.
pub(crate) struct WalState {
    pub backend: Box<dyn StorageBackend>,
    pub journal: JournalWriter,
    /// Write a checkpoint every this many ingested edges (0 = journal
    /// only; recovery then replays from edge 0).
    pub checkpoint_every: u64,
    /// The writing config's fingerprint, stamped into every
    /// checkpoint; resume refuses on any mismatch.
    pub fingerprint: String,
    /// Checkpoints retained after pruning (the newest N survive).
    pub keep_checkpoints: usize,
    /// Stream index one past the last journaled edge — the suppression
    /// guard: re-ingesting already-durable edges (replay) must not
    /// re-append them.
    pub journaled_edges: u64,
    pub checkpoint_seq: u64,
    pub checkpoints_written: u64,
    pub replayed_edges: u64,
}

impl WalState {
    pub fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            checkpoint_seq: self.checkpoint_seq,
            checkpoints_written: self.checkpoints_written,
            replayed_edges: self.replayed_edges,
            journal_bytes: self.journal.bytes_appended(),
        }
    }
}

/// Encode one journal record: `[u64 first_index][u32 count][count ×
/// edge]`. `first_index` is the stream-global index of `edges[0]`, so
/// replay can verify each record continues the stream exactly where
/// the previous one ended — a reordered, duplicated or dropped record
/// fails loudly instead of silently permuting the stream.
pub(crate) fn encode_edges_record(first_index: u64, edges: &[StreamEdge]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(first_index);
    w.u32(edges.len() as u32);
    for e in edges {
        e.wal_encode(&mut w);
    }
    w.into_bytes()
}

/// Check one journal record's header — it starts exactly at
/// `expected_first` (the number of edges in the records before it) and
/// its `count` accounts for every payload byte — and return `count`
/// with a reader positioned at the first edge. The one place these
/// checks live; `record_no` names the record in errors.
fn edges_record_header(
    payload: &[u8],
    expected_first: u64,
    record_no: usize,
) -> Result<(usize, ByteReader<'_>), WalError> {
    let mut r = ByteReader::new(payload);
    let first = r.u64()?;
    if first != expected_first {
        return Err(WalError::Corrupt(format!(
            "journal record {record_no} starts at stream edge {first}, \
             but the records before it hold {expected_first} edges — \
             the journal is discontinuous"
        )));
    }
    let count = r.u32()? as usize;
    if r.remaining() != count * EDGE_WIRE_BYTES {
        return Err(WalError::Corrupt(format!(
            "journal record {record_no} claims {count} edges \
             ({} bytes) but carries {} payload bytes",
            count * EDGE_WIRE_BYTES,
            r.remaining()
        )));
    }
    Ok((count, r))
}

/// Decode one journal record into `out`, enforcing that it starts
/// exactly at `expected_first` (the number of edges decoded from the
/// records before it). `record_no` names the record in errors.
pub(crate) fn decode_edges_record(
    payload: &[u8],
    expected_first: u64,
    record_no: usize,
    out: &mut Vec<StreamEdge>,
) -> Result<(), WalError> {
    let (count, mut r) = edges_record_header(payload, expected_first, record_no)?;
    out.reserve(count);
    for _ in 0..count {
        out.push(StreamEdge::wal_decode(&mut r)?);
    }
    r.expect_end()
}

/// What recovery needs from a scanned journal: how many edges it
/// durably holds, and the ones past the checkpoint.
pub(crate) struct ReplayTail {
    /// Edges in the journal, from stream edge 0.
    pub durable: u64,
    /// Stream edges `[start, durable)`; empty when `durable <= start`.
    pub edges: Vec<StreamEdge>,
}

/// Walk every record of a scanned journal, checking each header for
/// continuity and length exactly as [`decode_edges_record`] does, but
/// decoding only the records that reach past stream edge `start` (the
/// checkpoint's edge count): restart cost follows the replay tail, not
/// the journal's length. A record wholly before `start` that fails its
/// header check still fails recovery, with the same message.
pub(crate) fn decode_replay_tail(records: &[Vec<u8>], start: u64) -> Result<ReplayTail, WalError> {
    let mut durable = 0u64;
    let mut edges = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        let (count, _) = edges_record_header(rec, durable, i)?;
        let end = durable + count as u64;
        if end > start {
            decode_edges_record(rec, durable, i, &mut edges)?;
            // The checkpoint can fall inside the first record decoded
            // (nothing is decoded before it): drop the edges it covers.
            edges.drain(..start.saturating_sub(durable) as usize);
        }
        durable = end;
    }
    Ok(ReplayTail { durable, edges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::{EdgeId, Label, VertexId};

    fn se(i: u32) -> StreamEdge {
        StreamEdge {
            id: EdgeId(i),
            src: VertexId(2 * i),
            dst: VertexId(2 * i + 1),
            src_label: Label((i % 7) as u16),
            dst_label: Label((i % 5) as u16),
        }
    }

    #[test]
    fn record_roundtrip() {
        let edges: Vec<StreamEdge> = (0..17).map(se).collect();
        let payload = encode_edges_record(40, &edges);
        let mut out = Vec::new();
        decode_edges_record(&payload, 40, 0, &mut out).unwrap();
        assert_eq!(out, edges);
    }

    #[test]
    fn discontinuity_is_loud() {
        let payload = encode_edges_record(40, &[se(0)]);
        let mut out = Vec::new();
        let err = decode_edges_record(&payload, 41, 3, &mut out).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("record 3"), "names the record: {msg}");
        assert!(msg.contains("discontinuous"), "names the failure: {msg}");
    }

    /// Records of the given sizes, back to back from stream edge 0.
    fn records(sizes: &[u32]) -> (Vec<Vec<u8>>, Vec<StreamEdge>) {
        let all: Vec<StreamEdge> = (0..sizes.iter().sum()).map(se).collect();
        let mut first = 0usize;
        let recs = sizes
            .iter()
            .map(|&n| {
                let rec = encode_edges_record(first as u64, &all[first..first + n as usize]);
                first += n as usize;
                rec
            })
            .collect();
        (recs, all)
    }

    #[test]
    fn replay_tail_is_exactly_the_edges_past_the_checkpoint() {
        // An empty record and uneven sizes; every possible checkpoint
        // position: before, mid-record, on each boundary, at durable,
        // and past it (the caller's "journal lost records" case).
        let (recs, all) = records(&[5, 1, 0, 7, 3]);
        for start in 0..=all.len() as u64 + 2 {
            let tail = decode_replay_tail(&recs, start).unwrap();
            assert_eq!(tail.durable, all.len() as u64, "start {start}");
            let want = all.get(start as usize..).unwrap_or(&[]);
            assert_eq!(tail.edges, want, "start {start}");
        }
        let none = decode_replay_tail(&[], 0).unwrap();
        assert_eq!((none.durable, none.edges.len()), (0, 0));
    }

    #[test]
    fn replay_tail_checks_records_it_does_not_decode() {
        // Both header faults, planted in a record wholly before the
        // checkpoint, fail with decode_edges_record's own message.
        let (recs, all) = records(&[4, 4, 4, 4]);
        let start = 12;

        let mut gap = recs.clone();
        gap[1] = encode_edges_record(5, &all[4..8]);
        let got = decode_replay_tail(&gap, start).err().unwrap().to_string();
        let want = decode_edges_record(&gap[1], 4, 1, &mut Vec::new())
            .unwrap_err()
            .to_string();
        assert_eq!(got, want);
        assert!(
            got.contains("record 1") && got.contains("discontinuous"),
            "{got}"
        );

        let mut long = recs.clone();
        long[0].extend_from_slice(&[0; EDGE_WIRE_BYTES]);
        let got = decode_replay_tail(&long, start).err().unwrap().to_string();
        let want = decode_edges_record(&long[0], 0, 0, &mut Vec::new())
            .unwrap_err()
            .to_string();
        assert_eq!(got, want);
        assert!(got.contains("claims 4 edges"), "{got}");
    }

    #[test]
    fn short_payload_is_corrupt_not_panic() {
        let payload = encode_edges_record(0, &[se(0), se(1)]);
        let mut out = Vec::new();
        for cut in 0..payload.len() {
            out.clear();
            assert!(
                decode_edges_record(&payload[..cut], 0, 0, &mut out).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }
}
