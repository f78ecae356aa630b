//! Checkpoint files: whole-state snapshots written atomically.
//!
//! Layout: `[u32 magic][u32 version][u32 crc32(payload)][u32 len]
//! [payload]` where payload = `[str fingerprint][u64 seq][u64 edges]
//! [state bytes]`. The state bytes are opaque here — the engine
//! encodes its own fields plus the partitioner's `save_state` output.
//! Files are named `ckpt-<seq>` with a zero-padded sequence so lexical
//! order is recovery order, written via the backend's `write_atomic`
//! so a crash mid-checkpoint leaves the previous checkpoint intact
//! rather than a torn file.

use crate::bytes::{crc32, frame_len, ByteReader, ByteWriter, Crc32, WalError};
use crate::journal::StorageBackend;

const MAGIC: u32 = 0x4C4F_4F4D; // "LOOM"
const VERSION: u32 = 1;

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

/// Write a checkpoint atomically. The payload is checksummed where it
/// lies — the small head, then the caller's state bytes — and copied
/// once, into the framed file.
pub fn write_checkpoint(backend: &dyn StorageBackend, ckpt: &Checkpoint) -> Result<(), WalError> {
    let mut head = ByteWriter::new();
    head.str(&ckpt.fingerprint);
    head.u64(ckpt.seq);
    head.u64(ckpt.edges);
    let len = head.len() + ckpt.state.len();
    let len_field = frame_len("checkpoint payload", len)?;
    let mut crc = Crc32::new();
    crc.update(head.as_bytes());
    crc.update(&ckpt.state);
    let mut w = ByteWriter::with_capacity(16 + len);
    w.u32(MAGIC);
    w.u32(VERSION);
    w.u32(crc.finish());
    w.u32(len_field);
    w.raw(head.as_bytes());
    w.raw(&ckpt.state);
    backend.write_atomic(&checkpoint_name(ckpt.seq), w.as_bytes())?;
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
        return Err(WalError::Corrupt(format!(
            "checkpoint {name}: unsupported version {version} (this build reads {VERSION})"
        )));
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
