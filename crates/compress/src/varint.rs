//! LEB128 variable-length integer encoding.
//!
//! Small values dominate every stream this crate produces (delta gaps,
//! match lengths, chunk-local ordinals), so the 1-byte fast path
//! matters; the decoder is branch-light for that case.

use crate::error::CodecError;

/// Maximum number of bytes a `u64` varint may occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `value` to `out` in LEB128 format.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push((value as u8 & 0x7f) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Appends a `u32` (same wire format as [`write_u64`]).
#[inline]
pub fn write_u32(out: &mut Vec<u8>, value: u32) {
    write_u64(out, u64::from(value));
}

/// Appends a signed value using zig-zag mapping.
#[inline]
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_u64(out, zigzag_encode(value));
}

/// Decodes a `u64` from the front of `input`.
///
/// Returns the value and the number of bytes consumed.
#[inline]
pub fn read_u64(input: &[u8]) -> Result<(u64, usize), CodecError> {
    // Fast path: single-byte varint.
    match input.first() {
        Some(&b) if b < 0x80 => return Ok((u64::from(b), 1)),
        None => return Err(CodecError::UnexpectedEof),
        _ => {}
    }
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(CodecError::VarintOverflow);
        }
        let low = u64::from(byte & 0x7f);
        // The 10th byte may only contribute a single bit.
        if shift == 63 && low > 1 {
            return Err(CodecError::VarintOverflow);
        }
        value |= low << shift;
        if byte < 0x80 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(CodecError::UnexpectedEof)
}

/// Decodes a `u32`, failing if the value does not fit.
#[inline]
pub fn read_u32(input: &[u8]) -> Result<(u32, usize), CodecError> {
    let (v, n) = read_u64(input)?;
    u32::try_from(v)
        .map(|v| (v, n))
        .map_err(|_| CodecError::VarintOverflow)
}

/// Decodes a zig-zag encoded signed value.
#[inline]
pub fn read_i64(input: &[u8]) -> Result<(i64, usize), CodecError> {
    let (v, n) = read_u64(input)?;
    Ok((zigzag_decode(v), n))
}

/// Maps signed values to unsigned so small magnitudes stay small.
#[inline]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// A cursor that reads successive varints from a slice.
#[derive(Debug, Clone)]
pub struct VarintReader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> VarintReader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Self { input, pos: 0 }
    }

    /// Current byte offset into the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> &'a [u8] {
        &self.input[self.pos..]
    }

    /// Reads the next `u64`.
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        let (v, n) = read_u64(&self.input[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// Reads the next `u32`.
    pub fn read_u32(&mut self) -> Result<u32, CodecError> {
        let (v, n) = read_u32(&self.input[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// Reads the next zig-zag `i64`.
    pub fn read_i64(&mut self) -> Result<i64, CodecError> {
        let (v, n) = read_i64(&self.input[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// Reads `len` raw bytes.
    pub fn read_bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if len > self.input.len() - self.pos {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.input[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small_values() {
        for v in 0u64..300 {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let (decoded, n) = read_u64(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn roundtrip_boundaries() {
        let cases = [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &cases {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(read_u64(&buf).unwrap(), (v, buf.len()));
        }
    }

    #[test]
    fn single_byte_values_take_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 0x7f);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn max_u64_takes_ten_bytes() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), MAX_VARINT_LEN);
    }

    #[test]
    fn empty_input_is_eof() {
        assert_eq!(read_u64(&[]), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn truncated_input_is_eof() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1u64 << 40);
        assert_eq!(
            read_u64(&buf[..buf.len() - 1]),
            Err(CodecError::UnexpectedEof)
        );
    }

    #[test]
    fn overlong_encoding_overflows() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0xffu8; 11];
        assert_eq!(read_u64(&buf), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn tenth_byte_overflow_detected() {
        // 9 continuation bytes then a byte contributing more than 1 bit.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        assert_eq!(read_u64(&buf), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn zigzag_maps_small_magnitudes_to_small_codes() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_encode(2), 4);
    }

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn signed_roundtrip() {
        for v in [-1000i64, -3, 0, 5, 123456789] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            assert_eq!(read_i64(&buf).unwrap().0, v);
        }
    }

    #[test]
    fn reader_walks_sequence() {
        let mut buf = Vec::new();
        for v in [3u64, 300, 70_000, 0] {
            write_u64(&mut buf, v);
        }
        let mut r = VarintReader::new(&buf);
        assert_eq!(r.read_u64().unwrap(), 3);
        assert_eq!(r.read_u64().unwrap(), 300);
        assert_eq!(r.read_u64().unwrap(), 70_000);
        assert_eq!(r.read_u64().unwrap(), 0);
        assert!(r.is_empty());
        assert_eq!(r.read_u64(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn reader_read_bytes_bounds_checked() {
        let mut r = VarintReader::new(&[1, 2, 3]);
        assert_eq!(r.read_bytes(2).unwrap(), &[1, 2]);
        assert_eq!(r.read_bytes(2), Err(CodecError::UnexpectedEof));
        assert_eq!(r.read_bytes(1).unwrap(), &[3]);
        assert!(r.is_empty());
    }

    #[test]
    fn u32_overflow_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::from(u32::MAX) + 1);
        assert_eq!(read_u32(&buf), Err(CodecError::VarintOverflow));
    }
}
