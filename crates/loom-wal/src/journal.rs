//! The append-only journal and its storage backends.
//!
//! Record framing: `[u32 payload_len][u32 crc32(payload)][payload]`,
//! appended back to back. The writer buffers nothing itself — appends
//! go straight to the backend's file handle, and `flush` marks the
//! fsync-shaped durability point at batch boundaries. On replay,
//! [`scan_journal`] walks the frames and stops at the first one that
//! fails framing or checksum: everything before is the recovered
//! checksummed prefix, everything after is a torn tail to be truncated
//! — a corrupt record is *detected*, never decoded.
//!
//! A journal is a run of segment files, `journal-<first edge>` with
//! the edge zero-padded so lexical order is stream order; the engine
//! decides where one ends and the next begins. A lone `journal` file,
//! the layout before segments, reads as the segment from edge 0.

use crate::bytes::{crc32, frame_len, WalError};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The single-file journal's name: what [`JournalWriter::open`] writes,
/// and what [`list_segments`] reads as the segment from edge 0.
pub const JOURNAL_FILE: &str = "journal";

/// File name of the journal segment whose first record starts at
/// stream edge `first_edge` (zero-padded for lexical order).
pub fn segment_name(first_edge: u64) -> String {
    format!("journal-{first_edge:020}")
}

/// Every journal segment in the backend, as `(first edge, name)`
/// ascending by first edge; [`JOURNAL_FILE`] counts as the segment from
/// edge 0. Other names are skipped (they are not segments).
pub fn list_segments(backend: &dyn StorageBackend) -> Result<Vec<(u64, String)>, WalError> {
    let mut found = Vec::new();
    for name in backend.list()? {
        let first = if name == JOURNAL_FILE {
            Some(0)
        } else {
            name.strip_prefix("journal-")
                .and_then(|s| s.parse::<u64>().ok())
        };
        if let Some(first) = first {
            found.push((first, name));
        }
    }
    found.sort();
    Ok(found)
}

/// One append-only file of a [`StorageBackend`].
pub trait WalFile: Send {
    /// Append bytes at the end. Durability is NOT implied — a crash
    /// before [`WalFile::flush`] may lose them.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Make every appended byte durable (the fsync-shaped point; plain
    /// buffered flush in this offline environment).
    fn flush(&mut self) -> io::Result<()>;
}

/// Minimal storage abstraction the recovery layer runs on: real
/// directories in production, a deterministic in-memory map in tests.
pub trait StorageBackend: Send {
    /// Open `name` for appending, creating it if absent.
    fn open_append(&self, name: &str) -> io::Result<Box<dyn WalFile>>;
    /// Read a whole file. `ErrorKind::NotFound` when absent.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Write a whole file atomically (tmp + rename): the file either
    /// has the old contents or the new, never a torn mix — what makes
    /// a half-written checkpoint impossible.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Every file name in the backend.
    fn list(&self) -> io::Result<Vec<String>>;
    /// Truncate `name` to `len` bytes (dropping a torn tail).
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;
    /// Delete a file (pruning old checkpoints). Absent is fine.
    fn remove(&self, name: &str) -> io::Result<()>;
}

// ---------------------------------------------------------------- files

/// Plain buffered files under one directory.
pub struct FileBackend {
    dir: PathBuf,
}

impl FileBackend {
    /// Use (and create) `dir` as the WAL directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileBackend { dir })
    }
}

struct FileWalFile {
    w: io::BufWriter<std::fs::File>,
}

impl WalFile for FileWalFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        use io::Write as _;
        self.w.write_all(bytes)
    }

    fn flush(&mut self) -> io::Result<()> {
        use io::Write as _;
        self.w.flush()
    }
}

impl StorageBackend for FileBackend {
    fn open_append(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(name))?;
        Ok(Box::new(FileWalFile {
            w: io::BufWriter::new(f),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.dir.join(name))
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.dir.join(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.dir.join(name))?;
        f.set_len(len)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.dir.join(name)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

// --------------------------------------------------------------- memory

type SharedFiles = Arc<Mutex<HashMap<String, Vec<u8>>>>;

/// Deterministic in-memory backend for kill/resume tests. Clones share
/// the same files. Appends buffer in the open handle and only reach
/// the shared map on `flush` — dropping an engine without flushing
/// models a crash that loses the unflushed tail, with no processes or
/// signals involved.
#[derive(Clone, Default)]
pub struct MemBackend {
    files: SharedFiles,
}

impl MemBackend {
    pub fn new() -> Self {
        MemBackend::default()
    }

    /// Test access: the current durable contents of a file.
    pub fn contents(&self, name: &str) -> Option<Vec<u8>> {
        self.files.lock().unwrap().get(name).cloned()
    }

    /// Test access: overwrite a file's durable contents directly (the
    /// corruption injection the fault tests use).
    pub fn set_contents(&self, name: &str, bytes: Vec<u8>) {
        self.files.lock().unwrap().insert(name.to_string(), bytes);
    }
}

struct MemWalFile {
    files: SharedFiles,
    name: String,
    pending: Vec<u8>,
}

impl WalFile for MemWalFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.pending.extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.pending.is_empty() {
            let mut files = self.files.lock().unwrap();
            files
                .entry(self.name.clone())
                .or_default()
                .extend_from_slice(&self.pending);
            self.pending.clear();
        }
        Ok(())
    }
}

impl StorageBackend for MemBackend {
    fn open_append(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(MemWalFile {
            files: Arc::clone(&self.files),
            name: name.to_string(),
            pending: Vec::new(),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.files
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no file '{name}'")))
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.set_contents(name, bytes.to_vec());
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = self.files.lock().unwrap().keys().cloned().collect();
        names.sort();
        Ok(names)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut files = self.files.lock().unwrap();
        match files.get_mut(name) {
            Some(f) => {
                f.truncate(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no file '{name}'"),
            )),
        }
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.files.lock().unwrap().remove(name);
        Ok(())
    }
}

// ---------------------------------------------------------------- faults

/// Degraded-media injection plan for [`FaultyBackend`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// After this many successful journal appends, the next append
    /// persists only its first [`FaultPlan::short_write_keep`] bytes
    /// (a crash mid-write: the torn tail lands on disk) and the handle
    /// goes dead — every later append/flush fails with `BrokenPipe`.
    pub fail_append_after: Option<u64>,
    /// Bytes of the failing append that still reach storage.
    pub short_write_keep: usize,
    appends: u64,
    dead: bool,
}

impl FaultPlan {
    /// A plan that lets `ok_appends` appends through, then persists
    /// only the first `keep_bytes` of the next one and kills the
    /// device.
    pub fn short_write(ok_appends: u64, keep_bytes: usize) -> Self {
        FaultPlan {
            fail_append_after: Some(ok_appends),
            short_write_keep: keep_bytes,
            ..FaultPlan::default()
        }
    }
}

/// A [`MemBackend`] wrapper injecting short writes per a [`FaultPlan`]
/// — the deterministic stand-in for a crash mid-write, so torn-tail
/// recovery is exercised on purpose.
#[derive(Clone)]
pub struct FaultyBackend {
    inner: MemBackend,
    plan: Arc<Mutex<FaultPlan>>,
}

impl FaultyBackend {
    pub fn new(inner: MemBackend, plan: FaultPlan) -> Self {
        FaultyBackend {
            inner,
            plan: Arc::new(Mutex::new(plan)),
        }
    }

    /// The unfaulted backend (for recovery after the "crash").
    pub fn inner(&self) -> MemBackend {
        self.inner.clone()
    }
}

struct FaultyWalFile {
    inner: Box<dyn WalFile>,
    plan: Arc<Mutex<FaultPlan>>,
}

impl WalFile for FaultyWalFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut plan = self.plan.lock().unwrap();
        if plan.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "journal device failed (injected)",
            ));
        }
        if let Some(limit) = plan.fail_append_after {
            if plan.appends >= limit {
                // The short write: a prefix of the record reaches
                // storage, then the device dies. Flush the torn bytes
                // through so they are durably present, like a partial
                // page that made it to disk.
                let keep = plan.short_write_keep.min(bytes.len());
                plan.dead = true;
                drop(plan);
                self.inner.append(&bytes[..keep])?;
                self.inner.flush()?;
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "short write: journal device failed mid-record (injected)",
                ));
            }
        }
        plan.appends += 1;
        drop(plan);
        self.inner.append(bytes)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.plan.lock().unwrap().dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "journal device failed (injected)",
            ));
        }
        self.inner.flush()
    }
}

impl StorageBackend for FaultyBackend {
    fn open_append(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(FaultyWalFile {
            inner: self.inner.open_append(name)?,
            plan: Arc::clone(&self.plan),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
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

// --------------------------------------------------------------- writer

/// Appends framed records to one journal file.
pub struct JournalWriter {
    file: Box<dyn WalFile>,
    appended: u64,
    /// The frame being appended, kept between records so a batch
    /// costs no allocation.
    frame: Vec<u8>,
}

impl JournalWriter {
    /// Open the backend's single-file journal, [`JOURNAL_FILE`], for
    /// appending (created if absent). `existing_bytes` is what it
    /// already durably holds, so [`JournalWriter::bytes_appended`]
    /// reports the whole file.
    pub fn open(backend: &dyn StorageBackend, existing_bytes: u64) -> io::Result<Self> {
        JournalWriter::open_named(backend, JOURNAL_FILE, existing_bytes)
    }

    /// [`JournalWriter::open`] on the file `name` — a segment from
    /// [`segment_name`].
    pub fn open_named(
        backend: &dyn StorageBackend,
        name: &str,
        existing_bytes: u64,
    ) -> io::Result<Self> {
        Ok(JournalWriter {
            file: backend.open_append(name)?,
            appended: existing_bytes,
            frame: Vec::new(),
        })
    }

    /// Frame and append one record. Not durable until
    /// [`JournalWriter::flush`]. A payload past the frame's `u32`
    /// length field is refused (`InvalidInput` carrying
    /// [`crate::WalError::TooLarge`]) with nothing appended.
    pub fn append_record(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = frame_len("journal record", payload.len())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        self.frame.clear();
        self.frame.extend_from_slice(&len.to_le_bytes());
        self.frame.extend_from_slice(&crc32(payload).to_le_bytes());
        self.frame.extend_from_slice(payload);
        self.file.append(&self.frame)?;
        self.appended += self.frame.len() as u64;
        Ok(())
    }

    /// The fsync-shaped durability point.
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    /// Total bytes of the file (existing + appended this session).
    pub fn bytes_appended(&self) -> u64 {
        self.appended
    }
}

// ----------------------------------------------------------------- scan

/// Result of walking a journal byte-for-byte on recovery.
#[derive(Debug)]
pub struct JournalScan {
    /// Payloads of the records in the checksummed prefix, in order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of that prefix — truncate the file here to drop a
    /// torn tail.
    pub valid_len: u64,
    /// Why the scan stopped early, when it did: names the failing
    /// record and byte offset. `None` means the whole file parsed.
    pub torn: Option<String>,
}

/// Walk the journal frames, stopping at the first framing or checksum
/// failure. A record that fails its CRC is never returned — corrupt
/// edges are structurally impossible to ingest from here.
pub fn scan_journal(bytes: &[u8]) -> JournalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let torn = loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break None;
        }
        if remaining < 8 {
            break Some(format!(
                "torn record header at byte {pos} (record {}): {remaining} trailing bytes",
                records.len()
            ));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if remaining - 8 < len {
            break Some(format!(
                "torn record at byte {pos} (record {}): header claims {len} payload bytes, {} available",
                records.len(),
                remaining - 8
            ));
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break Some(format!(
                "checksum mismatch at byte {pos} (record {}): payload of {len} bytes does not match its CRC",
                records.len()
            ));
        }
        records.push(payload.to_vec());
        pos += 8 + len;
    };
    JournalScan {
        records,
        valid_len: pos as u64,
        torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_with(payloads: &[&[u8]]) -> (MemBackend, Vec<u8>) {
        let backend = MemBackend::new();
        let mut w = JournalWriter::open(&backend, 0).unwrap();
        for p in payloads {
            w.append_record(p).unwrap();
        }
        w.flush().unwrap();
        let bytes = backend.contents(JOURNAL_FILE).unwrap();
        (backend, bytes)
    }

    #[test]
    fn roundtrip_records() {
        let (_b, bytes) = journal_with(&[b"first", b"", b"third record"]);
        let scan = scan_journal(&bytes);
        assert!(scan.torn.is_none());
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(
            scan.records,
            vec![b"first".to_vec(), vec![], b"third record".to_vec()]
        );
    }

    #[test]
    fn unflushed_appends_are_lost() {
        let backend = MemBackend::new();
        let mut w = JournalWriter::open(&backend, 0).unwrap();
        w.append_record(b"durable").unwrap();
        w.flush().unwrap();
        w.append_record(b"lost in the crash").unwrap();
        drop(w); // no flush: the crash
        let bytes = backend.contents(JOURNAL_FILE).unwrap();
        let scan = scan_journal(&bytes);
        assert!(scan.torn.is_none());
        assert_eq!(scan.records, vec![b"durable".to_vec()]);
    }

    #[test]
    fn truncation_at_every_byte_recovers_a_prefix() {
        // The exhaustive torn-tail sweep: cutting the journal at ANY
        // byte offset must recover exactly the records whose frames
        // fit entirely in the kept prefix — never a partial or
        // corrupted record.
        let payloads: Vec<Vec<u8>> = (0..6u8)
            .map(|i| (0..=i * 17).map(|j| j ^ i).collect())
            .collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let (_b, bytes) = journal_with(&refs);
        // Frame boundaries, to predict the expected record count.
        let mut boundaries = vec![0usize];
        for p in &payloads {
            boundaries.push(boundaries.last().unwrap() + 8 + p.len());
        }
        for cut in 0..=bytes.len() {
            let scan = scan_journal(&bytes[..cut]);
            let expect = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(
                scan.records.len(),
                expect,
                "cut at byte {cut}: wrong record count"
            );
            assert_eq!(scan.valid_len as usize, boundaries[expect]);
            assert_eq!(scan.torn.is_some(), cut != boundaries[expect]);
            for (i, r) in scan.records.iter().enumerate() {
                assert_eq!(r, &payloads[i], "cut at byte {cut}: record {i} corrupted");
            }
        }
    }

    #[test]
    fn bit_flip_at_every_byte_is_prefix_or_loud() {
        // Flipping any single bit must either leave a shorter
        // checksummed prefix (scan stops at the flipped record, torn
        // names it) or — for a flip inside an already-consumed
        // record's frame — be caught by that record's CRC. No flip may
        // ever surface an altered payload as valid.
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 24 + i as usize]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let (_b, bytes) = journal_with(&refs);
        for pos in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x40;
            let scan = scan_journal(&flipped);
            // Every recovered record must be byte-identical to an
            // original prefix record.
            assert!(
                scan.records.len() < payloads.len() || scan.torn.is_none(),
                "flip at {pos}: full record count with a torn tail?"
            );
            for (i, r) in scan.records.iter().enumerate() {
                assert_eq!(
                    r, &payloads[i],
                    "flip at byte {pos} surfaced a corrupt record {i}"
                );
            }
            // The flip must be detected somewhere: either fewer
            // records recovered (prefix) and torn set, or the flip
            // produced a frame that still checksums — impossible for
            // a single-bit flip with CRC32.
            assert!(
                scan.torn.is_some(),
                "flip at byte {pos} went undetected (records {})",
                scan.records.len()
            );
        }
    }

    #[test]
    fn faulty_backend_short_write_leaves_recoverable_prefix() {
        let mem = MemBackend::new();
        let faulty = FaultyBackend::new(
            mem.clone(),
            FaultPlan {
                fail_append_after: Some(2),
                short_write_keep: 5,
                ..FaultPlan::default()
            },
        );
        let mut w = JournalWriter::open(&faulty, 0).unwrap();
        w.append_record(b"record zero").unwrap();
        w.append_record(b"record one").unwrap();
        w.flush().unwrap();
        let err = w.append_record(b"doomed").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // The torn 5 bytes are durably present; recovery drops them.
        let bytes = mem.contents(JOURNAL_FILE).unwrap();
        let scan = scan_journal(&bytes);
        assert_eq!(
            scan.records,
            vec![b"record zero".to_vec(), b"record one".to_vec()]
        );
        assert!(scan.torn.is_some(), "short write must be reported");
        assert!(scan.valid_len < bytes.len() as u64);
    }

    #[test]
    fn segments_list_in_stream_order_with_the_single_file_at_zero() {
        let backend = MemBackend::new();
        for first in [250_000u64, 0, 1_000_000] {
            backend.set_contents(&segment_name(first), vec![]);
        }
        for other in [
            JOURNAL_FILE,
            "ckpt-00000000000000000001",
            "journal-x",
            "journal-7.tmp",
        ] {
            backend.set_contents(other, vec![]);
        }
        assert_eq!(segment_name(250_000), "journal-00000000000000250000");
        assert_eq!(
            list_segments(&backend).unwrap(),
            [
                (0, JOURNAL_FILE.to_string()),
                (0, segment_name(0)),
                (250_000, segment_name(250_000)),
                (1_000_000, segment_name(1_000_000)),
            ]
        );
    }

    #[test]
    fn file_backend_roundtrip_truncate_and_list() {
        let dir = std::env::temp_dir().join(format!("loom-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = FileBackend::new(&dir).unwrap();
        let mut w = JournalWriter::open(&backend, 0).unwrap();
        w.append_record(b"alpha").unwrap();
        w.append_record(b"beta").unwrap();
        w.flush().unwrap();
        backend.write_atomic("ckpt-1", b"checkpoint bytes").unwrap();
        let names = backend.list().unwrap();
        assert!(names.contains(&"journal".to_string()));
        assert!(names.contains(&"ckpt-1".to_string()));
        let bytes = backend.read(JOURNAL_FILE).unwrap();
        let scan = scan_journal(&bytes);
        assert_eq!(scan.records.len(), 2);
        // Truncate into the second record: one survives.
        backend.truncate(JOURNAL_FILE, scan.valid_len - 3).unwrap();
        let scan2 = scan_journal(&backend.read(JOURNAL_FILE).unwrap());
        assert_eq!(scan2.records.len(), 1);
        assert!(scan2.torn.is_some());
        backend.remove("ckpt-1").unwrap();
        assert!(backend.read("ckpt-1").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
