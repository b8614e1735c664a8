//! A tiny length-checked binary codec for snapshot files.
//!
//! The snapshot/resume subsystem (DESIGN.md §13) serialises daemon
//! scheduler state and telemetry into versioned, checksummed blobs.
//! The workspace has no serde, so this module provides the one shared
//! primitive they encode through: a [`Writer`] appending fixed-width
//! little-endian scalars and length-prefixed byte strings to a
//! `Vec<u8>`, and a [`Reader`] consuming the same stream with typed
//! [truncation](BinError::Truncated) errors instead of panics — a
//! corrupt snapshot must degrade into a recoverable [`BinError`], never
//! tear down the process that tried to load it.
//!
//! The format is deliberately schema-free: field order is the schema,
//! and each consumer versions its own envelope (magic + format version
//! + checksum) on top. Everything is little-endian.

use std::fmt;

/// Why a binary stream failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinError {
    /// The stream ended before the requested field.
    Truncated {
        /// Bytes wanted by the read.
        wanted: usize,
        /// Bytes remaining in the stream.
        remaining: usize,
    },
    /// A length prefix or tag was outside its valid range.
    Corrupt(
        /// What was malformed.
        String,
    ),
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Truncated { wanted, remaining } => {
                write!(f, "truncated stream: wanted {wanted} bytes, {remaining} remain")
            }
            BinError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
        }
    }
}

impl std::error::Error for BinError {}

/// Appends little-endian fields to a growable byte buffer.
#[derive(Default, Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes encoding and returns the buffer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Consumes little-endian fields from a byte slice, with typed errors
/// on truncation.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the stream is fully consumed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if self.remaining() < n {
            return Err(BinError::Truncated { wanted: n, remaining: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, BinError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    /// Reads a `bool`; any byte other than 0 or 1 is corruption.
    pub fn bool(&mut self) -> Result<bool, BinError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(BinError::Corrupt(format!("bool byte {other:#x}"))),
        }
    }

    /// Reads a `usize`, rejecting values beyond the platform's range.
    pub fn usize(&mut self) -> Result<usize, BinError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| BinError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Reads a length-prefixed byte string. The length is validated
    /// against the remaining stream before any allocation, so a corrupt
    /// prefix cannot trigger a huge reservation.
    pub fn bytes(&mut self) -> Result<&'a [u8], BinError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, BinError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|e| BinError::Corrupt(format!("invalid UTF-8 string: {e}")))
    }
}

/// FNV-1a over a byte slice: the checksum the snapshot envelopes use.
/// Not cryptographic — it guards against torn writes and bit rot, not
/// adversaries (the snapshot directory is trusted local state).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.bool(true);
        w.usize(12345);
        w.bytes(&[1, 2, 3]);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert!(r.bool().unwrap());
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.is_done());
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_width() {
        let mut w = Writer::new();
        w.u64(7);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(matches!(r.u64(), Err(BinError::Truncated { .. })), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_length_prefixes_do_not_overallocate() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // an absurd length prefix
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        // On 64-bit targets the usize parses and the take() fails as a
        // truncation; either way it is an error, not an allocation.
        assert!(r.bytes().is_err());
    }

    #[test]
    fn bad_bool_bytes_are_corruption() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.bool(), Err(BinError::Corrupt(_))));
    }

    #[test]
    fn fnv1a_detects_single_bit_flips() {
        let data = b"snapshot payload bytes";
        let h = fnv1a(data);
        let mut flipped = data.to_vec();
        flipped[5] ^= 0x10;
        assert_ne!(h, fnv1a(&flipped));
        assert_eq!(h, fnv1a(data), "pure function");
    }
}
