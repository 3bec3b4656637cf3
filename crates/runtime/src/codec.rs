//! Byte-oriented encoding: a growable write buffer ([`BytesMut`]) and
//! a read cursor over `&[u8]` ([`Buf`]) whose every read is fallible.
//!
//! Multi-byte integers have explicit endianness at every call site:
//! `put_u128` is big-endian (the network order the ledger hashes over),
//! `put_u128_le` / `try_get_u128_le` are little-endian (the chain
//! export format). Nothing is implicit, so encoded bytes are identical
//! on every platform.
//!
//! [`Buf`] has no panicking read: bytes that arrive from a peer or a
//! file can only be read through the `try_*` family, which maps a
//! shortfall to [`DecodeError::Truncated`].

use std::fmt;
use std::ops::Deref;

/// A growable byte buffer with endian-explicit write methods — the
/// subset of `bytes::BytesMut` the ledger codec uses.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u64`, big-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u128`, big-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u128`, little-endian.
    pub fn put_u128_le(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i128`, big-endian.
    pub fn put_i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an `i128`, little-endian.
    pub fn put_i128_le(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u64` as an LEB128 varint (1–10 bytes, low groups
    /// first, high bit set on every byte but the last). Small counts
    /// and lengths — the overwhelming majority on the wire — take a
    /// single byte instead of eight.
    pub fn put_uvarint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a varint length prefix followed by the bytes themselves.
    pub fn put_varint_slice(&mut self, v: &[u8]) {
        self.put_uvarint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }

    /// Consumes the buffer, yielding its bytes without copying.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.buf.len())
    }
}

/// A read cursor over bytes — the subset of `bytes::Buf` the ledger
/// decoder uses, implemented for `&[u8]` so `&mut &[u8]` advances in
/// place. Every read is fallible: when fewer bytes remain than
/// requested it returns [`DecodeError::Truncated`] and leaves the
/// cursor where it was.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Reads the next `n` bytes as a slice without copying.
    fn try_take_slice(&mut self, n: usize) -> Result<&[u8], DecodeError>;

    /// Skips `n` bytes.
    fn try_advance(&mut self, n: usize) -> Result<(), DecodeError> {
        self.try_take_slice(n).map(|_| ())
    }

    /// Reads one byte.
    fn try_get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.try_take_slice(1)?[0])
    }

    /// Reads a little-endian `u128`.
    fn try_get_u128_le(&mut self) -> Result<u128, DecodeError> {
        // lint:allow(no-panic-in-lib): try_take_slice returned exactly the requested length
        Ok(u128::from_le_bytes(self.try_take_slice(16)?.try_into().expect("16 bytes")))
    }

    /// Reads a little-endian `i128`.
    fn try_get_i128_le(&mut self) -> Result<i128, DecodeError> {
        // lint:allow(no-panic-in-lib): try_take_slice returned exactly the requested length
        Ok(i128::from_le_bytes(self.try_take_slice(16)?.try_into().expect("16 bytes")))
    }

    /// Reads an LEB128 `u64`, the inverse of
    /// [`BytesMut::put_uvarint`]. Rejects truncated varints, encodings
    /// longer than ten bytes, and final-byte bits that would overflow
    /// `u64` — a byzantine peer cannot make the decoder run off the end
    /// or wrap a length around.
    fn try_get_uvarint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.try_get_u8()?;
            let group = u64::from(byte & 0x7f);
            // The tenth byte (shift 63) may only carry the top bit.
            if shift == 63 && group > 1 {
                return Err(DecodeError::LengthOverflow(u64::MAX));
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::LengthOverflow(u64::MAX))
    }

    /// Zero-copy read of a varint-length-prefixed slice, the inverse of
    /// [`BytesMut::put_varint_slice`]. The declared length is checked
    /// against both `max` and the bytes actually remaining before
    /// anything is sliced.
    fn try_get_varint_slice(&mut self, max: u64) -> Result<&[u8], DecodeError> {
        let n = self.try_get_uvarint()?;
        if n > max {
            return Err(DecodeError::LengthOverflow(n));
        }
        let n = usize::try_from(n).map_err(|_| DecodeError::LengthOverflow(n))?;
        self.try_take_slice(n)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn try_take_slice(&mut self, n: usize) -> Result<&[u8], DecodeError> {
        if n > self.len() {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.split_at(n);
        *self = tail;
        Ok(head)
    }
}

/// Why a [`Buf`] read failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes remained than the read needs.
    Truncated,
    /// A declared length exceeded the decoder's sanity bound (or a
    /// varint did not fit in a `u64`).
    LengthOverflow(u64),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::LengthOverflow(n) => write!(f, "declared length {n} too large"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytesmut_endianness_is_explicit() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u128(1);
        buf.put_u128_le(1);
        let mut be = [0u8; 16];
        be[15] = 1;
        let mut le = [0u8; 16];
        le[0] = 1;
        assert_eq!(&buf[..16], &be);
        assert_eq!(&buf[16..], &le);
    }

    #[test]
    fn buf_cursor_advances_in_place() {
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        let mut cur: &[u8] = &bytes;
        assert_eq!(cur.try_get_u8(), Ok(1));
        assert_eq!(cur.remaining(), 8);
        assert_eq!(cur.try_advance(3), Ok(()));
        assert_eq!(cur.try_take_slice(5), Ok(&[5u8, 6, 7, 8, 9][..]));
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn buf_roundtrips_every_width() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u128_le(u128::MAX - 3);
        buf.put_i128_le(-42);
        let mut cur: &[u8] = &buf;
        assert_eq!(cur.try_get_u8(), Ok(7));
        assert_eq!(cur.try_get_u128_le(), Ok(u128::MAX - 3));
        assert_eq!(cur.try_get_i128_le(), Ok(-42));
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn try_getters_error_on_shortfall_without_moving_the_cursor() {
        let bytes = [1u8, 2, 3];
        let mut cur: &[u8] = &bytes;
        assert_eq!(cur.try_get_u128_le(), Err(DecodeError::Truncated));
        assert_eq!(cur.try_get_i128_le(), Err(DecodeError::Truncated));
        assert_eq!(cur.try_advance(4), Err(DecodeError::Truncated));
        assert_eq!(cur.remaining(), 3, "failed reads must not consume bytes");
        assert_eq!(cur.try_get_u8(), Ok(1));
        assert_eq!(cur.try_take_slice(2), Ok(&[2u8, 3][..]));
        assert_eq!(cur.try_get_u8(), Err(DecodeError::Truncated));
    }
    #[test]
    fn uvarint_roundtrips_and_width_scales() {
        for (v, width) in [
            (0u64, 1usize),
            (1, 1),
            (127, 1),
            (128, 2),
            (16383, 2),
            (16384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ] {
            let mut buf = BytesMut::new();
            buf.put_uvarint(v);
            assert_eq!(buf.len(), width, "width of {v}");
            let mut cur: &[u8] = &buf;
            assert_eq!(cur.try_get_uvarint(), Ok(v));
            assert_eq!(cur.remaining(), 0);
        }
    }

    #[test]
    fn uvarint_rejects_truncation_and_overflow() {
        // Continuation bit set on the last available byte.
        let mut cur: &[u8] = &[0x80, 0x80];
        assert_eq!(cur.try_get_uvarint(), Err(DecodeError::Truncated));
        // Ten continuation bytes: no terminator within the u64 range.
        let eleven = [0x80u8; 11];
        let mut cur: &[u8] = &eleven;
        assert!(matches!(cur.try_get_uvarint(), Err(DecodeError::LengthOverflow(_))));
        // Tenth byte carries bits beyond 2^64.
        let mut wide = [0x80u8; 10];
        wide[9] = 0x02;
        let mut cur: &[u8] = &wide;
        assert!(matches!(cur.try_get_uvarint(), Err(DecodeError::LengthOverflow(_))));
    }

    #[test]
    fn varint_slice_is_zero_copy_and_bounded() {
        let mut buf = BytesMut::new();
        buf.put_varint_slice(b"settlement");
        let mut cur: &[u8] = &buf;
        let got = cur.try_get_varint_slice(1 << 20).unwrap();
        assert_eq!(got, b"settlement");
        // Zero-copy: the returned slice aliases the input buffer.
        assert_eq!(got.as_ptr(), buf[1..].as_ptr());
        assert_eq!(cur.remaining(), 0);
        // A declared length beyond `max` is rejected before slicing.
        let mut cur: &[u8] = &buf;
        assert!(matches!(
            cur.try_get_varint_slice(3),
            Err(DecodeError::LengthOverflow(10))
        ));
        // A declared length beyond the remaining bytes is truncation.
        let mut short: &[u8] = &buf[..4];
        assert_eq!(short.try_get_varint_slice(1 << 20), Err(DecodeError::Truncated));
    }
}
