//! Checkpoint files: whole-state snapshots written atomically.
//!
//! Layout: `[u32 magic][u32 version][u32 crc32(payload)][u32 len]
//! [payload]` where payload = `[str fingerprint][u64 seq][u64 edges]
//! [state bytes]`. The state bytes are opaque here — the engine
//! encodes its own fields plus the partitioner's `save_state` output.
//! Files are named `ckpt-<seq>` with a zero-padded sequence so lexical
//! order is recovery order, written via the backend's `write_atomic`
//! so a crash mid-checkpoint leaves the previous checkpoint intact
//! rather than a torn file. A checkpoint is framed in place: the
//! writer encodes its state straight after a header whose checksum
//! and length are patched in once the state is there
//! ([`begin_checkpoint`], [`finish_checkpoint`]).

use crate::bytes::{crc32, frame_len, ByteReader, ByteWriter, WalError};
use crate::journal::StorageBackend;

const MAGIC: u32 = 0x4C4F_4F4D; // "LOOM"
/// The checkpoint format. Format 3 writes live content only: each
/// store's compaction layout, which format 2 wrote verbatim, is
/// rebuilt on load (DESIGN.md §15).
const VERSION: u32 = 3;
/// Magic, version, checksum and length: the bytes before the payload.
const HEADER_BYTES: usize = 16;

/// One decoded checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Monotonic sequence number (file name order == recovery order).
    pub seq: u64,
    /// The writing process's config fingerprint; resume refuses on any
    /// mismatch.
    pub fingerprint: String,
    /// Stream edges ingested when this checkpoint was taken — replay
    /// starts here.
    pub edges: u64,
    /// Opaque engine + partitioner state bytes.
    pub state: Vec<u8>,
}

/// File name for checkpoint `seq` (zero-padded for lexical order).
pub fn checkpoint_name(seq: u64) -> String {
    format!("ckpt-{seq:020}")
}

/// Write a checkpoint atomically: [`begin_checkpoint`], the state
/// bytes, [`finish_checkpoint`], in a buffer allocated at the file's
/// final size.
pub fn write_checkpoint(backend: &dyn StorageBackend, ckpt: &Checkpoint) -> Result<(), WalError> {
    let head = 4 + ckpt.fingerprint.len() + 16;
    let mut w = ByteWriter::with_capacity(HEADER_BYTES + head + ckpt.state.len());
    begin_checkpoint(&mut w, ckpt.seq, &ckpt.fingerprint, ckpt.edges);
    w.raw(&ckpt.state);
    finish_checkpoint(backend, ckpt.seq, &mut w)
}

/// Start checkpoint `seq` in place in `w`, which is cleared first:
/// the header, its checksum and length left blank, then the head of
/// the payload. The caller appends the state bytes to `w` and hands it
/// to [`finish_checkpoint`], so the state is encoded straight into the
/// file's final layout and never copied. A `w` kept from one
/// checkpoint to the next keeps its capacity, and with it its pages.
pub fn begin_checkpoint(w: &mut ByteWriter, seq: u64, fingerprint: &str, edges: u64) {
    w.clear();
    w.u32(MAGIC);
    w.u32(VERSION);
    w.u32(0); // crc32(payload), patched by finish_checkpoint
    w.u32(0); // payload length, likewise
    w.str(fingerprint);
    w.u64(seq);
    w.u64(edges);
}

/// Finish the checkpoint [`begin_checkpoint`] started in `w`: patch
/// the checksum and length of everything after the header, and write
/// the file `ckpt-<seq>` atomically. `seq` is the one `w` was begun
/// with. A payload past the `u32` length field is refused with
/// [`WalError::TooLarge`] and nothing is written.
pub fn finish_checkpoint(
    backend: &dyn StorageBackend,
    seq: u64,
    w: &mut ByteWriter,
) -> Result<(), WalError> {
    assert!(
        w.len() >= HEADER_BYTES,
        "finish_checkpoint on a buffer begin_checkpoint did not start"
    );
    let len = frame_len("checkpoint payload", w.len() - HEADER_BYTES)?;
    let crc = crc32(&w.as_bytes()[HEADER_BYTES..]);
    w.patch_u32(8, crc);
    w.patch_u32(12, len);
    backend.write_atomic(&checkpoint_name(seq), w.as_bytes())?;
    Ok(())
}

/// Read and validate one checkpoint file.
pub fn read_checkpoint(backend: &dyn StorageBackend, name: &str) -> Result<Checkpoint, WalError> {
    let mut bytes = backend.read(name)?;
    let mut r = ByteReader::new(&bytes);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(WalError::Corrupt(format!(
            "checkpoint {name}: bad magic {magic:#010x}"
        )));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(WalError::FormatVersion {
            checkpoint: name.to_string(),
            found: version,
            reads: VERSION,
        });
    }
    let crc = r.u32()?;
    let len = r.u32()? as usize;
    if r.remaining() != len {
        return Err(WalError::Corrupt(format!(
            "checkpoint {name}: header claims {len} payload bytes, {} present",
            r.remaining()
        )));
    }
    let payload = &bytes[bytes.len() - len..];
    if crc32(payload) != crc {
        return Err(WalError::Corrupt(format!(
            "checkpoint {name}: payload fails its CRC"
        )));
    }
    let mut pr = ByteReader::new(payload);
    let fingerprint = pr.str()?;
    let seq = pr.u64()?;
    let edges = pr.u64()?;
    // The state is the rest of the buffer already in hand: drop the
    // header in place rather than copying the state out.
    let state_at = bytes.len() - pr.remaining();
    bytes.drain(..state_at);
    Ok(Checkpoint {
        seq,
        fingerprint,
        edges,
        state: bytes,
    })
}

/// Every checkpoint file in the backend, as `(seq, name)` ascending by
/// sequence. Unparsable names are skipped (they are not checkpoints).
pub fn list_checkpoints(backend: &dyn StorageBackend) -> Result<Vec<(u64, String)>, WalError> {
    let mut found = Vec::new();
    for name in backend.list()? {
        if let Some(seq) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.parse::<u64>().ok())
        {
            found.push((seq, name));
        }
    }
    found.sort();
    Ok(found)
}

/// Remove what a kill between `write_atomic`'s write and its rename
/// leaves behind: `ckpt-*.tmp` files, each the size of a checkpoint,
/// which [`list_checkpoints`] — and so pruning — never sees. Returns
/// how many were removed. Only for a directory no other process is
/// checkpointing into, which attach and resume already require.
pub fn sweep_checkpoint_temps(backend: &dyn StorageBackend) -> Result<usize, WalError> {
    let mut swept = 0;
    for name in backend.list()? {
        if name.starts_with("ckpt-") && name.ends_with(".tmp") {
            backend.remove(&name)?;
            swept += 1;
        }
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::MemBackend;

    fn sample(seq: u64) -> Checkpoint {
        Checkpoint {
            seq,
            fingerprint: "system=test k=4".to_string(),
            edges: seq * 1000,
            state: (0..50u8).map(|i| i.wrapping_mul(7)).collect(),
        }
    }

    #[test]
    fn roundtrip() {
        let backend = MemBackend::new();
        let ckpt = sample(3);
        write_checkpoint(&backend, &ckpt).unwrap();
        let back = read_checkpoint(&backend, &checkpoint_name(3)).unwrap();
        assert_eq!(back.seq, 3);
        assert_eq!(back.fingerprint, ckpt.fingerprint);
        assert_eq!(back.edges, 3000);
        assert_eq!(back.state, ckpt.state);
    }

    #[test]
    fn framing_in_place_writes_what_write_checkpoint_writes() {
        // One buffer for every checkpoint, the largest first: a stale
        // tail or a stale head would show in each one after it.
        let large = Checkpoint {
            fingerprint: "system=test k=4 window=1024 threshold=0.4".to_string(),
            state: (0..4096u32).map(|i| (i * 31) as u8).collect(),
            ..sample(9)
        };
        let empty = Checkpoint {
            state: Vec::new(),
            ..sample(4)
        };
        let mut w = ByteWriter::new();
        for ckpt in [large, sample(3), empty, sample(12)] {
            let (fresh, reused) = (MemBackend::new(), MemBackend::new());
            write_checkpoint(&fresh, &ckpt).unwrap();
            begin_checkpoint(&mut w, ckpt.seq, &ckpt.fingerprint, ckpt.edges);
            // In pieces, the way an encoder writes field by field.
            for piece in ckpt.state.chunks(7) {
                w.raw(piece);
            }
            finish_checkpoint(&reused, ckpt.seq, &mut w).unwrap();
            let name = checkpoint_name(ckpt.seq);
            let written = reused.contents(&name).unwrap();
            assert_eq!(
                Some(&written),
                fresh.contents(&name).as_ref(),
                "seq {}",
                ckpt.seq
            );
            assert_eq!(
                written.len(),
                HEADER_BYTES + 4 + ckpt.fingerprint.len() + 16 + ckpt.state.len()
            );
            let back = read_checkpoint(&reused, &name).unwrap();
            assert_eq!(back.seq, ckpt.seq);
            assert_eq!(back.fingerprint, ckpt.fingerprint);
            assert_eq!(back.edges, ckpt.edges);
            assert_eq!(back.state, ckpt.state);
        }
    }

    #[test]
    fn another_format_version_is_named_not_corrupt() {
        let backend = MemBackend::new();
        write_checkpoint(&backend, &sample(5)).unwrap();
        let name = checkpoint_name(5);
        let mut bytes = backend.contents(&name).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        backend.set_contents(&name, bytes);
        match read_checkpoint(&backend, &name) {
            Err(WalError::FormatVersion {
                checkpoint,
                found: 1,
                reads: VERSION,
            }) => assert_eq!(checkpoint, name),
            other => panic!("a format-1 checkpoint read as {other:?}"),
        }
    }

    #[test]
    fn listing_sorts_by_sequence() {
        let backend = MemBackend::new();
        for seq in [7, 2, 11] {
            write_checkpoint(&backend, &sample(seq)).unwrap();
        }
        backend.set_contents("journal", vec![1, 2, 3]);
        backend.set_contents("ckpt-notanumber", vec![0]);
        let list = list_checkpoints(&backend).unwrap();
        let seqs: Vec<u64> = list.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![2, 7, 11]);
    }

    #[test]
    fn corruption_at_every_byte_is_detected() {
        let backend = MemBackend::new();
        write_checkpoint(&backend, &sample(1)).unwrap();
        let name = checkpoint_name(1);
        let clean = backend.contents(&name).unwrap();
        for pos in 0..clean.len() {
            let mut bad = clean.clone();
            bad[pos] ^= 0x10;
            backend.set_contents(&name, bad);
            assert!(
                read_checkpoint(&backend, &name).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
        // And truncation at every length.
        for cut in 0..clean.len() {
            backend.set_contents(&name, clean[..cut].to_vec());
            assert!(
                read_checkpoint(&backend, &name).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }
}
