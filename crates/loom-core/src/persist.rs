//! Engine-side persistence glue (DESIGN.md §15).
//!
//! The storage primitives — record framing, checkpoint files, the
//! backends — live in `loom-wal` and know nothing about graphs. This
//! module owns what the *engine* persists on top of them: the edge
//! payload of a journal record (with its stream-continuity check), the
//! journal's segments (where one ends, which ones resume still needs,
//! how resume reads them back), and the running WAL bookkeeping that
//! [`crate::Snapshot`]s report.

use loom_graph::StreamEdge;
use loom_wal::{
    begin_checkpoint, finish_checkpoint, list_checkpoints, scan_journal, segment_name, ByteReader,
    ByteWriter, JournalWriter, StorageBackend, WalError,
};
use std::collections::VecDeque;

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
    /// Journal bytes on disk now: every segment rotation has not
    /// pruned yet, the open one included.
    pub journal_bytes: u64,
}

/// One journal segment file.
pub(crate) struct Segment {
    /// Stream index of its first edge: the number in its name, 0 for
    /// the single-file journal.
    pub first: u64,
    pub name: String,
    /// Bytes on disk (for the open segment: when it was opened).
    pub bytes: u64,
}

/// The engine's attached WAL: the backend, the open journal segment,
/// and the bookkeeping the hooks in `OnlineEngine` maintain.
pub(crate) struct WalState {
    backend: Box<dyn StorageBackend>,
    /// Appends to [`WalState::open`], always the last segment on disk.
    journal: JournalWriter,
    /// The journal record being encoded, kept from batch to batch.
    record: ByteWriter,
    /// The checkpoint being framed, kept from checkpoint to checkpoint:
    /// one checkpoint-sized buffer stays resident between them.
    frame: ByteWriter,
    open: Segment,
    /// The segments before the open one still on disk, oldest first.
    closed: VecDeque<Segment>,
    /// Write a checkpoint every this many ingested edges (0 = journal
    /// only; recovery then replays from edge 0). A new journal segment
    /// starts at each multiple.
    pub checkpoint_every: u64,
    /// The writing config's fingerprint, stamped into every
    /// checkpoint; resume refuses on any mismatch.
    fingerprint: String,
    /// Checkpoints retained after pruning (the newest N survive).
    pub keep_checkpoints: usize,
    /// Stream index one past the last journaled edge — the suppression
    /// guard: re-ingesting already-durable edges (replay) must not
    /// re-append them.
    pub journaled_edges: u64,
    pub checkpoint_seq: u64,
    checkpoints_written: u64,
    pub replayed_edges: u64,
}

impl WalState {
    /// A WAL appending to `open`, with `closed` before it on disk.
    pub fn new(
        backend: Box<dyn StorageBackend>,
        checkpoint_every: u64,
        fingerprint: &str,
        closed: VecDeque<Segment>,
        open: Segment,
    ) -> Result<Self, WalError> {
        let journal = JournalWriter::open_named(&*backend, &open.name, open.bytes)?;
        Ok(WalState {
            backend,
            journal,
            record: ByteWriter::new(),
            frame: ByteWriter::new(),
            open,
            closed,
            checkpoint_every,
            fingerprint: fingerprint.to_string(),
            keep_checkpoints: 2,
            journaled_edges: 0,
            checkpoint_seq: 0,
            checkpoints_written: 0,
            replayed_edges: 0,
        })
    }

    pub fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            checkpoint_seq: self.checkpoint_seq,
            checkpoints_written: self.checkpoints_written,
            replayed_edges: self.replayed_edges,
            journal_bytes: self.closed.iter().map(|s| s.bytes).sum::<u64>()
                + self.journal.bytes_appended(),
        }
    }

    /// The fsync-shaped durability point of the open segment.
    pub fn flush(&mut self) -> Result<(), WalError> {
        Ok(self.journal.flush()?)
    }

    /// Append the not-yet-journaled suffix of `edges` (a slice whose
    /// first element is stream edge `first`) and flush. Replayed
    /// prefixes are skipped via `journaled_edges`; a slice that spans
    /// the durable boundary appends exactly its fresh suffix. A slice
    /// that crosses a checkpoint-cadence edge is cut there: the edges
    /// before it close the open segment and the rest open
    /// `journal-<that edge>`, one record on each side, both flushed
    /// before this returns.
    pub fn append_edges(&mut self, first: u64, edges: &[StreamEdge]) -> Result<(), WalError> {
        let skip = self.journaled_edges.saturating_sub(first);
        if skip >= edges.len() as u64 {
            return Ok(());
        }
        let mut at = first + skip;
        let mut rest = &edges[skip as usize..];
        let every = self.checkpoint_every;
        while !rest.is_empty() {
            let mut n = rest.len();
            if every > 0 {
                if at.is_multiple_of(every) && at != self.open.first {
                    self.rotate(at)?;
                }
                n = n.min((every - at % every) as usize);
            }
            let (piece, tail) = rest.split_at(n);
            encode_edges_record(&mut self.record, at, piece);
            self.journal.append_record(self.record.as_bytes())?;
            at += n as u64;
            rest = tail;
        }
        self.journal.flush()?;
        self.journaled_edges = at;
        Ok(())
    }

    /// Flush and close the open segment; appends go to a new one whose
    /// first edge is `first`.
    fn rotate(&mut self, first: u64) -> Result<(), WalError> {
        self.journal.flush()?;
        let bytes = self.journal.bytes_appended();
        let name = segment_name(first);
        self.journal = JournalWriter::open_named(&*self.backend, &name, 0)?;
        let open = std::mem::replace(
            &mut self.open,
            Segment {
                first,
                name,
                bytes: 0,
            },
        );
        self.closed.push_back(Segment { bytes, ..open });
        Ok(())
    }

    /// Write the checkpoint at stream edge `edges`, a multiple of
    /// `checkpoint_every`, then prune what it makes unneeded. `encode`
    /// writes the state straight into the framed file, in the buffer
    /// this WAL keeps. The journal is flushed first, so a checkpoint
    /// never claims edges the journal does not durably hold.
    pub fn checkpoint(
        &mut self,
        edges: u64,
        encode: impl FnOnce(&mut ByteWriter) -> Result<(), WalError>,
    ) -> Result<(), WalError> {
        let seq = edges / self.checkpoint_every;
        begin_checkpoint(&mut self.frame, seq, &self.fingerprint, edges);
        encode(&mut self.frame)?;
        self.flush()?;
        finish_checkpoint(&*self.backend, seq, &mut self.frame)?;
        self.checkpoint_seq = seq;
        self.checkpoints_written += 1;
        self.prune()
    }

    /// After a checkpoint: keep the newest `keep_checkpoints`
    /// checkpoints, then delete every closed segment that ends at or
    /// before the oldest kept one's edge — no kept checkpoint replays
    /// from it. Checkpoint `seq` is taken at edge `seq ×
    /// checkpoint_every` (resume refuses a WAL where that fails).
    pub fn prune(&mut self) -> Result<(), WalError> {
        let list = list_checkpoints(&*self.backend)?;
        let cut = list.len().saturating_sub(self.keep_checkpoints);
        for (_, name) in &list[..cut] {
            self.backend.remove(name)?;
        }
        let oldest_kept = list.get(cut).map(|&(seq, _)| seq);
        let Some(upto) = oldest_kept.and_then(|seq| seq.checked_mul(self.checkpoint_every)) else {
            return Ok(());
        };
        while let Some(oldest) = self.closed.front() {
            let end = self.closed.get(1).map_or(self.open.first, |s| s.first);
            if end > upto {
                break;
            }
            self.backend.remove(&oldest.name)?;
            self.closed.pop_front();
        }
        Ok(())
    }
}

/// Encode one journal record into `w`, replacing what it held:
/// `[u64 first_index][u32 count][count × edge]`. `first_index` is the
/// stream-global index of `edges[0]`, so replay can verify each record
/// continues the stream exactly where the previous one ended — a
/// reordered, duplicated or dropped record fails loudly instead of
/// silently permuting the stream.
pub(crate) fn encode_edges_record(w: &mut ByteWriter, first_index: u64, edges: &[StreamEdge]) {
    w.clear();
    w.u64(first_index);
    w.u32(edges.len() as u32);
    for e in edges {
        e.wal_encode(w);
    }
}

/// Check one journal record's header — it starts exactly at
/// `expected_first` (where the records before it end) and its `count`
/// accounts for every payload byte — and return `count` with a reader
/// positioned at the first edge. The one place these checks live;
/// `segment` and `record_no` name the record in errors.
fn edges_record_header<'a>(
    payload: &'a [u8],
    expected_first: u64,
    segment: &str,
    record_no: usize,
) -> Result<(usize, ByteReader<'a>), WalError> {
    let mut r = ByteReader::new(payload);
    let first = r.u64()?;
    if first != expected_first {
        return Err(WalError::Corrupt(format!(
            "journal segment {segment} record {record_no} starts at stream edge {first}, \
             but the journal before it ends at edge {expected_first} — \
             the journal is discontinuous"
        )));
    }
    let count = r.u32()? as usize;
    if r.remaining() != count * EDGE_WIRE_BYTES {
        return Err(WalError::Corrupt(format!(
            "journal segment {segment} record {record_no} claims {count} edges \
             ({} bytes) but carries {} payload bytes",
            count * EDGE_WIRE_BYTES,
            r.remaining()
        )));
    }
    Ok((count, r))
}

/// Decode one journal record into `out`, enforcing that it starts
/// exactly at `expected_first` (where the records before it end).
/// `segment` and `record_no` name the record in errors.
pub(crate) fn decode_edges_record(
    payload: &[u8],
    expected_first: u64,
    segment: &str,
    record_no: usize,
    out: &mut Vec<StreamEdge>,
) -> Result<(), WalError> {
    let (count, mut r) = edges_record_header(payload, expected_first, segment, record_no)?;
    out.reserve(count);
    for _ in 0..count {
        out.push(StreamEdge::wal_decode(&mut r)?);
    }
    r.expect_end()
}

/// The journal as resume has walked it so far: how far it durably
/// reaches, and the edges past the checkpoint.
pub(crate) struct ReplayTail {
    /// One past the last edge of the records walked.
    pub durable: u64,
    /// Stream edges `[start, durable)`; empty when `durable <= start`.
    pub edges: Vec<StreamEdge>,
    start: u64,
}

impl ReplayTail {
    /// Before the first record of a journal that starts at stream edge
    /// `first`, replaying from stream edge `start` (the checkpoint's
    /// edge count, `>= first`).
    pub fn new(first: u64, start: u64) -> Self {
        ReplayTail {
            durable: first,
            edges: Vec::new(),
            start,
        }
    }

    /// Walk one segment's records, checking each header for continuity
    /// and length exactly as [`decode_edges_record`] does, but decoding
    /// only the records that reach past `start`: restart cost follows
    /// the replay tail, not the journal's length. A record wholly
    /// before `start` that fails its header check still fails
    /// recovery, with the same message.
    pub fn walk(&mut self, segment: &str, records: &[Vec<u8>]) -> Result<(), WalError> {
        for (i, rec) in records.iter().enumerate() {
            let (count, _) = edges_record_header(rec, self.durable, segment, i)?;
            let end = self.durable + count as u64;
            if end > self.start {
                decode_edges_record(rec, self.durable, segment, i, &mut self.edges)?;
                // The checkpoint can fall inside the first record
                // decoded (nothing is decoded before it): drop the
                // edges it covers.
                self.edges
                    .drain(..self.start.saturating_sub(self.durable) as usize);
            }
            self.durable = end;
        }
        Ok(())
    }
}

/// What resume read back from the journal's segments.
pub(crate) struct JournalRead {
    pub tail: ReplayTail,
    /// Every segment but the last, oldest first.
    pub closed: VecDeque<Segment>,
    /// The last segment, torn tail dropped: appends continue it.
    pub open: Segment,
}

/// Read the journal's `segments` (as `list_segments` returns them, at
/// least one) in order: checksum every frame, check that every segment
/// and every record continues the stream where the one before it
/// ended, and decode the edges past stream edge `start`. A torn tail
/// is truncated in the last segment only, the one appends went to; a
/// torn frame in an earlier one is damage, not an interrupted write,
/// and fails naming the segment and the record.
pub(crate) fn read_journal(
    backend: &dyn StorageBackend,
    segments: &[(u64, String)],
    start: u64,
) -> Result<JournalRead, WalError> {
    let mut tail = ReplayTail::new(segments[0].0, start);
    let mut closed = VecDeque::with_capacity(segments.len());
    let mut records_before = 0;
    for (i, (first, name)) in segments.iter().enumerate() {
        if i > 0 && *first != tail.durable {
            return Err(WalError::Corrupt(format!(
                "journal segment {} ends at stream edge {} after {records_before} records, \
                 but the segment after it, {name}, starts at edge {first} — the journal \
                 is discontinuous",
                segments[i - 1].1,
                tail.durable
            )));
        }
        let scan = scan_journal(&backend.read(name)?);
        records_before = scan.records.len();
        if let Some(torn) = &scan.torn {
            if i + 1 < segments.len() {
                return Err(WalError::Corrupt(format!(
                    "journal segment {name}: {torn}; only the last segment may end \
                     in an interrupted write"
                )));
            }
            // Drop the torn tail so this session's appends continue a
            // clean checksummed prefix.
            backend.truncate(name, scan.valid_len)?;
        }
        tail.walk(name, &scan.records)?;
        closed.push_back(Segment {
            first: *first,
            name: name.clone(),
            bytes: scan.valid_len,
        });
    }
    let open = closed.pop_back().expect("read_journal needs a segment");
    Ok(JournalRead { tail, closed, open })
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

    /// One record encoded into a writer of its own.
    fn fresh_record(first_index: u64, edges: &[StreamEdge]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_edges_record(&mut w, first_index, edges);
        w.into_bytes()
    }

    #[test]
    fn a_reused_record_buffer_encodes_what_a_fresh_one_does() {
        // A full batch first, so a stale tail would show in every
        // smaller record after it.
        let edges: Vec<StreamEdge> = (0..256).map(se).collect();
        let mut w = ByteWriter::new();
        for (first, n) in [(0, 256), (256, 1), (257, 0), (257, 256), (513, 1), (514, 0)] {
            let piece = &edges[..n];
            encode_edges_record(&mut w, first, piece);
            assert_eq!(
                w.as_bytes(),
                fresh_record(first, piece),
                "{n} edges at {first}"
            );
            let mut out = Vec::new();
            decode_edges_record(w.as_bytes(), first, "journal-x", 0, &mut out).unwrap();
            assert_eq!(out, piece, "{n} edges at {first}");
        }
    }

    #[test]
    fn record_roundtrip() {
        let edges: Vec<StreamEdge> = (0..17).map(se).collect();
        let payload = fresh_record(40, &edges);
        let mut out = Vec::new();
        decode_edges_record(&payload, 40, "journal-x", 0, &mut out).unwrap();
        assert_eq!(out, edges);
    }

    #[test]
    fn discontinuity_is_loud() {
        let payload = fresh_record(40, &[se(0)]);
        let mut out = Vec::new();
        let err = decode_edges_record(&payload, 41, "journal-x", 3, &mut out).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("segment journal-x record 3"),
            "names the record: {msg}"
        );
        assert!(msg.contains("discontinuous"), "names the failure: {msg}");
    }

    /// Records of the given sizes, back to back from stream edge 0.
    fn records(sizes: &[u32]) -> (Vec<Vec<u8>>, Vec<StreamEdge>) {
        let all: Vec<StreamEdge> = (0..sizes.iter().sum()).map(se).collect();
        let mut first = 0usize;
        let recs = sizes
            .iter()
            .map(|&n| {
                let rec = fresh_record(first as u64, &all[first..first + n as usize]);
                first += n as usize;
                rec
            })
            .collect();
        (recs, all)
    }

    /// Walk `recs` as two segments, `journal-a` holding the records
    /// before `cut` and `journal-b` the rest.
    fn walk_split(recs: &[Vec<u8>], cut: usize, start: u64) -> Result<ReplayTail, WalError> {
        let mut tail = ReplayTail::new(0, start);
        tail.walk("journal-a", &recs[..cut])?;
        tail.walk("journal-b", &recs[cut..])?;
        Ok(tail)
    }

    #[test]
    fn replay_tail_is_exactly_the_edges_past_the_checkpoint() {
        // An empty record and uneven sizes; every possible checkpoint
        // position: before, mid-record, on each boundary, at durable,
        // and past it (the caller's "journal lost records" case); every
        // cut of the records into two segments.
        let (recs, all) = records(&[5, 1, 0, 7, 3]);
        for cut in 0..=recs.len() {
            for start in 0..=all.len() as u64 + 2 {
                let tail = walk_split(&recs, cut, start).unwrap();
                let ctx = format!("cut {cut}, start {start}");
                assert_eq!(tail.durable, all.len() as u64, "{ctx}");
                let want = all.get(start as usize..).unwrap_or(&[]);
                assert_eq!(tail.edges, want, "{ctx}");
            }
        }
        let none = walk_split(&[], 0, 0).unwrap();
        assert_eq!((none.durable, none.edges.len()), (0, 0));

        // A journal whose segments before edge 6 were rotated away.
        let mut late = ReplayTail::new(6, 6);
        late.walk("journal-6", &recs[2..]).unwrap();
        assert_eq!((late.durable, late.edges.as_slice()), (16, &all[6..]));
        let mut wrong = ReplayTail::new(5, 6);
        let msg = wrong
            .walk("journal-5", &recs[2..])
            .err()
            .unwrap()
            .to_string();
        assert!(msg.contains("discontinuous"), "{msg}");
    }

    #[test]
    fn replay_tail_checks_records_it_does_not_decode() {
        // Both header faults, planted in a record wholly before the
        // checkpoint, fail with decode_edges_record's own message,
        // naming the segment that holds the record.
        let (recs, all) = records(&[4, 4, 4, 4]);
        let start = 12;

        let mut gap = recs.clone();
        gap[1] = fresh_record(5, &all[4..8]);
        let got = walk_split(&gap, 1, start).err().unwrap().to_string();
        let want = decode_edges_record(&gap[1], 4, "journal-b", 0, &mut Vec::new())
            .unwrap_err()
            .to_string();
        assert_eq!(got, want);
        assert!(
            got.contains("journal-b record 0") && got.contains("discontinuous"),
            "{got}"
        );

        let mut long = recs.clone();
        long[0].extend_from_slice(&[0; EDGE_WIRE_BYTES]);
        let got = walk_split(&long, 1, start).err().unwrap().to_string();
        let want = decode_edges_record(&long[0], 0, "journal-a", 0, &mut Vec::new())
            .unwrap_err()
            .to_string();
        assert_eq!(got, want);
        assert!(got.contains("claims 4 edges"), "{got}");
    }

    #[test]
    fn short_payload_is_corrupt_not_panic() {
        let payload = fresh_record(0, &[se(0), se(1)]);
        let mut out = Vec::new();
        for cut in 0..payload.len() {
            out.clear();
            assert!(
                decode_edges_record(&payload[..cut], 0, "journal-x", 0, &mut out).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }
}
