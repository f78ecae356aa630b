//! Crash-recovery storage: the append-only edge journal and periodic
//! engine checkpoints (DESIGN.md §15).
//!
//! This crate is deliberately ignorant of graph types: journal records
//! and checkpoint states are opaque byte payloads framed with
//! length-prefixed CRC32 checksums, and the crates that own the state
//! (loom-matcher, loom-partition, loom-core) encode and decode their
//! own structures with [`ByteWriter`]/[`ByteReader`]. That keeps the
//! dependency graph acyclic and the durability logic testable without
//! a single edge in sight.
//!
//! Storage goes through the [`StorageBackend`] trait: plain buffered
//! files ([`FileBackend`]) in this offline environment, a shared
//! in-memory map ([`MemBackend`]) for deterministic kill/resume tests
//! (unflushed appends are lost, exactly like a crash before fsync),
//! and a fault-injection wrapper ([`FaultyBackend`]) that produces
//! short writes so the torn-tail recovery path is exercised on
//! purpose rather than by luck.

mod bytes;
mod checkpoint;
mod journal;

pub use bytes::{crc32, ByteReader, ByteWriter, WalError};
pub use checkpoint::{
    begin_checkpoint, checkpoint_name, finish_checkpoint, list_checkpoints, read_checkpoint,
    sweep_checkpoint_temps, write_checkpoint, Checkpoint,
};
pub use journal::{
    list_segments, scan_journal, segment_name, FaultPlan, FaultyBackend, FileBackend, JournalScan,
    JournalWriter, MemBackend, StorageBackend, WalFile, JOURNAL_FILE,
};
