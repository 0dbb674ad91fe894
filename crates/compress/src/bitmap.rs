//! Word-aligned hybrid (WAH-style) compressed bitmaps.
//!
//! Chunk maps record, per chunk, which of the chunk's records belong to
//! each version. Over chunk-local record ordinals those sets are dense
//! runs with sparse holes — exactly the shape run-length bitmap codecs
//! exploit. The paper: "The adjacency list in each chunk map file is
//! then converted to a bitmap, compressed and stored in the KVS" (§3.1).
//!
//! The in-memory [`Bitmap`] is an uncompressed `Vec<u64>`; the
//! [`Bitmap::serialize`]/[`Bitmap::deserialize`] pair uses 32-bit WAH
//! words: a *fill* word encodes a run of all-zero or all-one 31-bit
//! groups, a *literal* word carries 31 raw bits.

use crate::error::CodecError;
use crate::varint;

/// An uncompressed bitset with WAH-compressed serialization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates an empty bitmap of logical length `len` bits.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a bitmap of length `len` with the given bits set.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut b = Self::new(len);
        for i in indices {
            b.set(i);
        }
        b
    }

    /// Logical length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Returns bit `i` (bits past `len` read as false).
    pub fn get(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| ones_of_word(wi, w))
    }

    /// Calls `f` with the index of every set bit, in increasing order:
    /// [`Bitmap::iter_ones`] as a plain loop over the words, for loops
    /// that visit every bit of many bitmaps.
    pub fn for_each_one(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(wi * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Iterates, in increasing order, over the indices set here and not
    /// in `other` — `self AND NOT other`, a word at a time. Bits past
    /// `other`'s length count as clear, as [`Bitmap::get`] reads them.
    pub fn iter_difference<'a>(&'a self, other: &'a Bitmap) -> impl Iterator<Item = usize> + 'a {
        let theirs = other.words.iter().chain(std::iter::repeat(&0));
        let words = self.words.iter().zip(theirs).map(|(&a, &b)| a & !b);
        words.enumerate().flat_map(|(wi, w)| ones_of_word(wi, w))
    }

    /// Serializes with 31-bit WAH compression.
    ///
    /// Layout: `varint(len_bits)`, `varint(n_wah_words)`, then each WAH
    /// word as `varint(u32)`:
    /// * literal: bit31 = 0, low 31 bits are raw payload,
    /// * fill: bit31 = 1, bit30 = fill bit, low 30 bits = group count.
    pub fn serialize(&self) -> Vec<u8> {
        let mut groups = GroupIter::new(&self.words, self.len);
        let mut wah: Vec<u32> = Vec::new();
        const G_ONES: u32 = (1 << 31) - 1;
        while let Some(g) = groups.next_group() {
            if g == 0 || g == G_ONES {
                let fill_bit = u32::from(g == G_ONES);
                match wah.last_mut() {
                    Some(last)
                        if *last >> 31 == 1
                            && (*last >> 30 & 1) == fill_bit
                            && (*last & ((1 << 30) - 1)) < (1 << 30) - 1 =>
                    {
                        *last += 1;
                    }
                    _ => wah.push(1 << 31 | fill_bit << 30 | 1),
                }
            } else {
                wah.push(g);
            }
        }
        let mut out = Vec::with_capacity(wah.len() * 2 + 8);
        varint::write_u64(&mut out, self.len as u64);
        varint::write_u64(&mut out, wah.len() as u64);
        for w in wah {
            varint::write_u32(&mut out, w);
        }
        out
    }

    /// Largest logical length [`Bitmap::deserialize`] will accept.
    ///
    /// Chunk maps are bounded by records-per-chunk (thousands of bits);
    /// the cap exists so corrupt headers cannot force huge allocations.
    pub const MAX_DECODE_BITS: usize = 1 << 28;

    /// Deserializes a buffer produced by [`Bitmap::serialize`].
    pub fn deserialize(input: &[u8]) -> Result<Self, CodecError> {
        let mut r = varint::VarintReader::new(input);
        let len = r.read_u64()? as usize;
        let n_words = r.read_u64()? as usize;
        if len > Self::MAX_DECODE_BITS || n_words > input.len() {
            // Each WAH word costs at least one input byte, so n_words
            // beyond the input size is corrupt; len is capped outright.
            return Err(CodecError::VarintOverflow);
        }
        let mut bitmap = Bitmap::new(len);
        let mut pos = 0usize; // bit cursor
        for _ in 0..n_words {
            let w = r.read_u32()?;
            if w >> 31 == 0 {
                // Literal of 31 bits.
                let mut payload = w;
                while payload != 0 {
                    let tz = payload.trailing_zeros() as usize;
                    payload &= payload - 1;
                    let bit = pos + tz;
                    if bit >= len {
                        return Err(CodecError::LengthMismatch {
                            expected: len,
                            actual: bit + 1,
                        });
                    }
                    bitmap.set(bit);
                }
                pos += 31;
            } else {
                let fill = w >> 30 & 1 == 1;
                let count = (w & ((1 << 30) - 1)) as usize;
                if fill {
                    for i in 0..count * 31 {
                        let bit = pos + i;
                        if bit >= len {
                            // Trailing pad bits of the final group.
                            if pos + count * 31 < len + 31 {
                                break;
                            }
                            return Err(CodecError::LengthMismatch {
                                expected: len,
                                actual: bit + 1,
                            });
                        }
                        bitmap.set(bit);
                    }
                }
                pos += count * 31;
            }
        }
        if pos < len {
            return Err(CodecError::LengthMismatch {
                expected: len,
                actual: pos,
            });
        }
        Ok(bitmap)
    }
}

/// The indices of the set bits of word `wi`, ascending.
fn ones_of_word(wi: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let tz = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(wi * 64 + tz)
    })
}

/// Yields successive 31-bit groups of a word array.
struct GroupIter<'a> {
    words: &'a [u64],
    len_bits: usize,
    pos: usize,
}

impl<'a> GroupIter<'a> {
    fn new(words: &'a [u64], len_bits: usize) -> Self {
        Self {
            words,
            len_bits,
            pos: 0,
        }
    }

    fn bit(&self, i: usize) -> u32 {
        if i >= self.len_bits {
            0
        } else {
            (self.words[i / 64] >> (i % 64) & 1) as u32
        }
    }

    fn next_group(&mut self) -> Option<u32> {
        if self.pos >= self.len_bits {
            return None;
        }
        let mut g = 0u32;
        for k in 0..31 {
            g |= self.bit(self.pos + k) << k;
        }
        self.pos += 31;
        Some(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(b: &Bitmap) {
        let s = b.serialize();
        let d = Bitmap::deserialize(&s).unwrap();
        assert_eq!(&d, b);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        roundtrip(&b);
    }

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(100);
        assert!(!b.get(7));
        b.set(7);
        assert!(b.get(7));
        b.clear(7);
        assert!(!b.get(7));
        assert!(!b.get(1000), "out of range reads as false");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        Bitmap::new(10).set(10);
    }

    #[test]
    fn iter_ones_in_order() {
        let b = Bitmap::from_indices(200, [0, 63, 64, 65, 128, 199]);
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, vec![0, 63, 64, 65, 128, 199]);
        assert_eq!(b.count_ones(), 6);
        let mut visited = Vec::new();
        b.for_each_one(|i| visited.push(i));
        assert_eq!(visited, got);
    }

    #[test]
    fn all_zeros_compress_to_one_fill() {
        let b = Bitmap::new(31 * 1000);
        let s = b.serialize();
        assert!(s.len() < 16, "all-zero bitmap took {} bytes", s.len());
        roundtrip(&b);
    }

    #[test]
    fn all_ones_compress_to_one_fill() {
        let n = 31 * 1000;
        let b = Bitmap::from_indices(n, 0..n);
        let s = b.serialize();
        assert!(s.len() < 16, "all-one bitmap took {} bytes", s.len());
        roundtrip(&b);
    }

    #[test]
    fn dense_run_with_holes() {
        let n = 10_000;
        let b = Bitmap::from_indices(n, (0..n).filter(|i| i % 997 != 0));
        roundtrip(&b);
        let s = b.serialize();
        assert!(
            s.len() < n / 8 / 4,
            "dense-run bitmap should beat raw bits: {} bytes",
            s.len()
        );
    }

    #[test]
    fn non_multiple_of_31_lengths() {
        for n in [1, 30, 31, 32, 61, 62, 63, 64, 65, 100, 310, 311] {
            let b = Bitmap::from_indices(n, (0..n).filter(|i| i % 3 == 0));
            roundtrip(&b);
        }
    }

    #[test]
    fn trailing_one_fill_with_padding() {
        // Length not a multiple of 31 where the tail is all ones.
        let n = 40;
        let b = Bitmap::from_indices(n, 0..n);
        roundtrip(&b);
    }

    #[test]
    fn sparse_bitmap_roundtrip() {
        let b = Bitmap::from_indices(100_000, [0, 5_000, 50_000, 99_999]);
        roundtrip(&b);
    }

    #[test]
    fn deserialize_rejects_truncated() {
        let b = Bitmap::from_indices(1000, (0..1000).step_by(7));
        let s = b.serialize();
        assert!(Bitmap::deserialize(&s[..s.len() / 2]).is_err());
    }

    #[test]
    fn deserialize_rejects_short_stream() {
        // Declares 100 bits but carries no words.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 100);
        varint::write_u64(&mut buf, 0);
        assert!(matches!(
            Bitmap::deserialize(&buf),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn long_fill_runs_split_correctly() {
        // A run long enough to need the fill counter (not realistic to
        // exceed 2^30 groups, but alternating long runs stress merging).
        let n = 31 * 5000;
        let b = Bitmap::from_indices(n, (0..n).filter(|i| (i / (31 * 100)) % 2 == 0));
        roundtrip(&b);
    }
}
