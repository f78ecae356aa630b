//! Little-endian byte serialization plus the CRC32 every frame uses.
//!
//! Hand-rolled rather than a serde shim: every persisted structure in
//! the workspace writes its fields explicitly, so the on-disk layout
//! is an auditable sequence of integers, not derive output — and the
//! decode side validates lengths against the constructing config
//! instead of trusting the bytes.

use std::fmt;

/// Failure anywhere in the persistence layer.
#[derive(Debug)]
pub enum WalError {
    /// The underlying storage failed.
    Io(std::io::Error),
    /// Stored bytes do not decode to a valid structure — a torn or
    /// bit-flipped record, a truncated checkpoint, a length that
    /// disagrees with the constructing config.
    Corrupt(String),
    /// The stored config fingerprint does not match the resuming
    /// process's configuration: resume refuses rather than silently
    /// producing a different partition.
    ConfigMismatch { expected: String, found: String },
    /// The operation is not supported by this component (e.g. a
    /// partitioner without checkpoint support).
    Unsupported(String),
    /// The operation was refused up front (e.g. attaching a fresh WAL
    /// over an existing journal, or resuming with an ipt probe).
    Refused(String),
    /// A payload too long for its frame's `u32` length field. Refused
    /// at write time: the wrapped length would be a header every later
    /// read rejects.
    TooLarge { what: &'static str, bytes: usize },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
            WalError::ConfigMismatch { expected, found } => write!(
                f,
                "wal config mismatch: this process is configured as\n  {expected}\nbut the checkpoint was written by\n  {found}"
            ),
            WalError::Unsupported(m) => write!(f, "wal unsupported: {m}"),
            WalError::Refused(m) => write!(f, "wal refused: {m}"),
            WalError::TooLarge { what, bytes } => write!(
                f,
                "wal frame too large: a {what} of {bytes} bytes does not fit the frame's \
                 u32 length field (limit {} bytes)",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// The length field of a frame (journal record or checkpoint) for a
/// payload of `bytes` bytes, or [`WalError::TooLarge`] when it does not
/// fit — `as u32` here would wrap silently past 4 GiB.
pub(crate) fn frame_len(what: &'static str, bytes: usize) -> Result<u32, WalError> {
    u32::try_from(bytes).map_err(|_| WalError::TooLarge { what, bytes })
}

/// Slicing-by-16 tables: `t[0]` is the classic byte-at-a-time table,
/// and `t[k][b]` is the CRC state contributed by byte `b` followed by
/// `k` zero bytes, so sixteen input bytes fold in with sixteen
/// independent lookups instead of a sixteen-step dependency chain.
const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

/// CRC-32 (IEEE 802.3 polynomial), the checksum of every journal
/// record and checkpoint payload.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let chunk: &[u8; 16] = chunk.try_into().expect("chunks_exact(16)");
        let word = |at: usize| {
            u32::from_le_bytes([chunk[at], chunk[at + 1], chunk[at + 2], chunk[at + 3]])
        };
        let (w1, w2, w3) = (word(4), word(8), word(12));
        // The twelve lookups that do not read the carried state
        // first, so they overlap the previous chunk's; then the four
        // that do, as a two-level tree — the state is two XORs deep
        // in the result, not at the head of a fifteen-XOR chain.
        let free = (t[11][(w1 & 0xFF) as usize] ^ t[10][((w1 >> 8) & 0xFF) as usize])
            ^ (t[9][((w1 >> 16) & 0xFF) as usize] ^ t[8][(w1 >> 24) as usize])
            ^ ((t[7][(w2 & 0xFF) as usize] ^ t[6][((w2 >> 8) & 0xFF) as usize])
                ^ (t[5][((w2 >> 16) & 0xFF) as usize] ^ t[4][(w2 >> 24) as usize]))
            ^ ((t[3][(w3 & 0xFF) as usize] ^ t[2][((w3 >> 8) & 0xFF) as usize])
                ^ (t[1][((w3 >> 16) & 0xFF) as usize] ^ t[0][(w3 >> 24) as usize]));
        let w0 = word(0) ^ c;
        c = free
            ^ ((t[15][(w0 & 0xFF) as usize] ^ t[14][((w0 >> 8) & 0xFF) as usize])
                ^ (t[13][((w0 >> 16) & 0xFF) as usize] ^ t[12][(w0 >> 24) as usize]));
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// A sink whose buffer already holds room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Empty the sink, keeping its buffer: a writer reused from one
    /// record or checkpoint to the next allocates, and faults its pages
    /// in, only when it has to grow.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Overwrite the `u32` already written at byte `at` (a frame's
    /// checksum or length, known only once its payload is in place).
    pub(crate) fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Raw bytes, no length prefix (the caller frames them).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.raw(s.as_bytes());
    }
}

/// Cursor over bytes written by [`ByteWriter`]; every read is
/// bounds-checked and returns [`WalError::Corrupt`] on underrun.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        if self.remaining() < n {
            return Err(WalError::Corrupt(format!(
                "short read at byte {}: wanted {n}, {} remaining",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, WalError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn u128(&mut self) -> Result<u128, WalError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, WalError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, WalError> {
        Ok(self.u8()? != 0)
    }

    /// A `u64` length prefix validated against what could possibly fit
    /// in the remaining bytes (`min_elem_bytes` per element), so a
    /// corrupt length fails here instead of as an OOM allocation.
    pub fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize, WalError> {
        let n = self.u64()? as usize;
        if min_elem_bytes > 0 && n > self.remaining() / min_elem_bytes {
            return Err(WalError::Corrupt(format!(
                "length prefix {n} at byte {} exceeds the {} remaining bytes",
                self.pos - 8,
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// The string written by [`ByteWriter::str`].
    pub fn str(&mut self) -> Result<String, WalError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WalError::Corrupt(format!("invalid utf-8 string: {e}")))
    }

    /// Error unless every byte has been consumed — decode must account
    /// for the whole payload, or the layout has drifted.
    pub fn expect_end(&self) -> Result<(), WalError> {
        if self.remaining() != 0 {
            return Err(WalError::Corrupt(format!(
                "{} undecoded trailing bytes at byte {}",
                self.remaining(),
                self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition, one bit at a time and no table: what the
    /// sliced kernel is compared against. Test-only on purpose.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    fn seeded_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_bitwise_at_every_offset_and_length() {
        // Every alignment of the 16-byte loop against the buffer, and
        // every split between whole chunks and the bytewise tail.
        let buf = seeded_bytes(16 + 200, 0x10_0d);
        for offset in 0..16 {
            for len in 0..=200 {
                let piece = &buf[offset..offset + len];
                assert_eq!(
                    crc32(piece),
                    crc32_bitwise(piece),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_bitwise_on_a_large_buffer() {
        let buf = seeded_bytes((1 << 20) + 7, 0xb16);
        assert_eq!(crc32(&buf), crc32_bitwise(&buf));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn frame_len_refuses_what_a_u32_cannot_hold() {
        assert_eq!(frame_len("record", 0).unwrap(), 0);
        assert_eq!(
            frame_len("record", u32::MAX as usize).unwrap(),
            u32::MAX,
            "the largest frame still fits"
        );
        for bytes in [u32::MAX as usize + 1, (u32::MAX as usize + 1) * 3 + 17] {
            match frame_len("checkpoint payload", bytes) {
                Err(WalError::TooLarge { what, bytes: b }) => {
                    assert_eq!((what, b), ("checkpoint payload", bytes));
                }
                other => panic!("{bytes} bytes must be refused, got {other:?}"),
            }
        }
        let msg = frame_len("journal record", 1 << 33)
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains("journal record") && msg.contains("8589934592"),
            "{msg}"
        );
    }

    #[test]
    fn roundtrip_all_types() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(65_000);
        w.u32(4_000_000_000);
        w.u64(u64::MAX - 3);
        w.u128(u128::MAX / 7);
        w.f64(-1234.5678);
        w.bool(true);
        w.str("hello wal");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65_000);
        assert_eq!(r.u32().unwrap(), 4_000_000_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), u128::MAX / 7);
        assert_eq!(r.f64().unwrap(), -1234.5678);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello wal");
        r.expect_end().unwrap();
    }

    #[test]
    fn short_read_is_corrupt_not_panic() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(matches!(r.u64(), Err(WalError::Corrupt(_))));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.len_prefix(4), Err(WalError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = ByteWriter::new();
        w.u32(1);
        w.u8(9);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.u32().unwrap();
        assert!(matches!(r.expect_end(), Err(WalError::Corrupt(_))));
    }
}
