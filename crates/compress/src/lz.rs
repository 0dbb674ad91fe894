//! A general-purpose LZ77-family byte compressor.
//!
//! RStore compresses sub-chunks (groups of similar records) before
//! storing them in the backend key-value store (§2.2, §3.4). The paper
//! uses an off-the-shelf tool; this is a from-scratch equivalent: a
//! greedy LZ77 with a hash-chain match finder over a 64 KiB window and
//! a varint-coded token stream. The match finder's tables (384 KB) are
//! a per-thread scratch reused across calls — sub-chunks are a few
//! hundred bytes, so allocating and zeroing them per call used to
//! dominate — and the output is a function of the input alone.
//!
//! ## Format
//!
//! `varint(original_len)` followed by a sequence of tokens:
//!
//! * `tag 0x00, varint(len), len raw bytes` — a literal run,
//! * `tag 0x01, varint(distance), varint(len)` — copy `len` bytes from
//!   `distance` bytes back in the decoded output (overlapping copies
//!   allowed, so runs compress well).
//!
//! The format favours decode speed and simplicity over ratio; on the
//! JSON documents RStore stores it typically reaches 2-4x, and on
//! near-duplicate record groups (the sub-chunk case) far more.

use crate::error::CodecError;
use crate::varint;

const LITERAL_TAG: u8 = 0x00;
const MATCH_TAG: u8 = 0x01;

/// Minimum match length worth emitting; shorter matches cost more to
/// encode than the literals they replace.
const MIN_MATCH: usize = 4;
/// Longest match we will emit in a single token.
const MAX_MATCH: usize = 1 << 16;
/// Sliding-window size: how far back a match may reach.
const WINDOW: usize = 1 << 16;
/// Number of head slots in the hash table (power of two).
const HASH_SLOTS: usize = 1 << 15;
/// How many chain links to follow before giving up on a better match.
const MAX_CHAIN: usize = 32;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    // Multiplicative hash of the next four bytes.
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9e37_79b1) >> (32 - 15)) as usize & (HASH_SLOTS - 1)
}

/// The match finder's hash tables, kept per thread and reused by every
/// [`compress`] call on it.
///
/// Slots hold `base + position + 1`; `base` moves past each input once
/// it is compressed, so everything an earlier call stored compares
/// `<= base` and reads as empty. The tables are therefore never
/// cleared between calls — only when `base` would overflow `u32`.
struct Scratch {
    /// `head[h]`: most recent position with hash `h`.
    head: Vec<u32>,
    /// `prev[i % WINDOW]`: previous position with the same hash as `i`.
    prev: Vec<u32>,
    base: u32,
}

impl Scratch {
    fn new() -> Self {
        Self {
            head: vec![0; HASH_SLOTS],
            prev: vec![0; WINDOW],
            base: 0,
        }
    }

    /// Makes every slot read as empty for an input of `len` bytes and
    /// returns the base its positions are stored against.
    fn begin(&mut self, len: usize) -> u32 {
        if u64::from(self.base) + len as u64 >= u64::from(u32::MAX) {
            self.head.fill(0);
            self.prev.fill(0);
            self.base = 0;
        }
        let base = self.base;
        // An input past 4 GiB wraps its positions (as it always has);
        // saturating forces a reset before the tables are used again.
        self.base = u32::try_from(u64::from(base) + len as u64).unwrap_or(u32::MAX);
        base
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::new());
}

/// Compresses `input` into a fresh buffer.
///
/// Never fails; incompressible input grows by a few bytes of framing
/// per 64 KiB of literals. The output depends on `input` alone, not on
/// what the calling thread compressed before.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    varint::write_u64(&mut out, input.len() as u64);
    if input.is_empty() {
        return out;
    }
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let base = scratch.begin(input.len());
        compress_into(input, &mut scratch.head, &mut scratch.prev, base, &mut out);
    });
    out
}

/// The greedy hash-chain match loop. `head`/`prev` may hold stale
/// slots from earlier inputs as long as every one of them is `<= base`.
fn compress_into(input: &[u8], head: &mut [u32], prev: &mut [u32], base: u32, out: &mut Vec<u8>) {
    // A slot's position in this input (+1; 0 = empty or stale).
    let live = |slot: u32| slot.saturating_sub(base) as usize;
    let slot_of = |pos: usize| base.wrapping_add(pos as u32).wrapping_add(1);

    let mut literal_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, start: usize, end: usize| {
        if end > start {
            out.push(LITERAL_TAG);
            varint::write_u64(out, (end - start) as u64);
            out.extend_from_slice(&input[start..end]);
        }
    };

    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        // Walk the hash chain looking for the longest match.
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut candidate = live(head[h]);
        let mut chain = 0usize;
        while candidate != 0 && chain < MAX_CHAIN {
            let pos = candidate - 1;
            if i - pos > WINDOW {
                break;
            }
            let limit = (input.len() - i).min(MAX_MATCH);
            let mut len = 0usize;
            while len < limit && input[pos + len] == input[i + len] {
                len += 1;
            }
            if len > best_len {
                best_len = len;
                best_dist = i - pos;
                if len >= limit {
                    break;
                }
            }
            candidate = live(prev[pos % WINDOW]);
            chain += 1;
        }

        if best_len >= MIN_MATCH {
            flush_literals(out, literal_start, i);
            out.push(MATCH_TAG);
            varint::write_u64(out, best_dist as u64);
            varint::write_u64(out, best_len as u64);
            // Insert hash entries for the matched region (sparsely for
            // long matches: every position for short ones is overkill).
            let end = i + best_len;
            let step = if best_len > 64 { 4 } else { 1 };
            let mut j = i;
            while j + MIN_MATCH <= input.len() && j < end {
                let hj = hash4(&input[j..]);
                prev[j % WINDOW] = head[hj];
                head[hj] = slot_of(j);
                j += step;
            }
            i = end;
            literal_start = i;
        } else {
            prev[i % WINDOW] = head[h];
            head[h] = slot_of(i);
            i += 1;
        }
    }
    flush_literals(out, literal_start, input.len());
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    decompress_into(input, &mut out)?;
    Ok(out)
}

/// Decompresses a buffer produced by [`compress`] into `out`, which is
/// cleared first: a caller that reuses one buffer across calls pays no
/// allocation once it has grown to the largest output. On error `out`
/// holds an unspecified prefix.
pub fn decompress_into(input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    out.clear();
    let mut r = varint::VarintReader::new(input);
    let expected = r.read_u64()? as usize;
    // Never trust the header for pre-allocation; corrupt input could
    // declare an absurd size. Growth is bounded by `expected` below.
    out.reserve(expected.min(1 << 20));
    while !r.is_empty() {
        let tag = r.read_bytes(1)?[0];
        match tag {
            LITERAL_TAG => {
                let len = r.read_u64()? as usize;
                if out.len().checked_add(len).is_none_or(|e| e > expected) {
                    return Err(CodecError::LengthMismatch {
                        expected,
                        actual: out.len().saturating_add(len),
                    });
                }
                out.extend_from_slice(r.read_bytes(len)?);
            }
            MATCH_TAG => {
                let dist = r.read_u64()? as usize;
                let len = r.read_u64()? as usize;
                if out.len().checked_add(len).is_none_or(|e| e > expected) {
                    return Err(CodecError::LengthMismatch {
                        expected,
                        actual: out.len().saturating_add(len),
                    });
                }
                if dist == 0 || dist > out.len() {
                    return Err(CodecError::BadBackReference {
                        offset: dist,
                        decoded: out.len(),
                    });
                }
                // Overlapping copy: byte-at-a-time when ranges overlap.
                let start = out.len() - dist;
                if dist >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            }
            other => return Err(CodecError::BadTag(other)),
        }
    }
    if out.len() != expected {
        return Err(CodecError::LengthMismatch {
            expected,
            actual: out.len(),
        });
    }
    Ok(())
}

/// Convenience: compression ratio (`original / compressed`) of a buffer.
pub fn ratio(original_len: usize, compressed_len: usize) -> f64 {
    if compressed_len == 0 {
        return 1.0;
    }
    original_len as f64 / compressed_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-scratch `compress`, verbatim — tables allocated and
    /// zeroed per call, positions stored as `pos + 1`: the
    /// byte-identity oracle for [`compress`].
    fn compress_reference(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        varint::write_u64(&mut out, input.len() as u64);
        if input.is_empty() {
            return out;
        }
        let mut head = vec![0u32; HASH_SLOTS];
        let mut prev = vec![0u32; WINDOW];
        let mut literal_start = 0usize;
        let mut i = 0usize;
        let flush_literals = |out: &mut Vec<u8>, start: usize, end: usize| {
            if end > start {
                out.push(LITERAL_TAG);
                varint::write_u64(out, (end - start) as u64);
                out.extend_from_slice(&input[start..end]);
            }
        };
        while i + MIN_MATCH <= input.len() {
            let h = hash4(&input[i..]);
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            let mut candidate = head[h] as usize;
            let mut chain = 0usize;
            while candidate != 0 && chain < MAX_CHAIN {
                let pos = candidate - 1;
                if i - pos > WINDOW {
                    break;
                }
                let limit = (input.len() - i).min(MAX_MATCH);
                let mut len = 0usize;
                while len < limit && input[pos + len] == input[i + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = i - pos;
                    if len >= limit {
                        break;
                    }
                }
                candidate = prev[pos % WINDOW] as usize;
                chain += 1;
            }
            if best_len >= MIN_MATCH {
                flush_literals(&mut out, literal_start, i);
                out.push(MATCH_TAG);
                varint::write_u64(&mut out, best_dist as u64);
                varint::write_u64(&mut out, best_len as u64);
                let end = i + best_len;
                let step = if best_len > 64 { 4 } else { 1 };
                let mut j = i;
                while j + MIN_MATCH <= input.len() && j < end {
                    let hj = hash4(&input[j..]);
                    prev[j % WINDOW] = head[hj];
                    head[hj] = (j + 1) as u32;
                    j += step;
                }
                i = end;
                literal_start = i;
            } else {
                prev[i % WINDOW] = head[h];
                head[h] = (i + 1) as u32;
                i += 1;
            }
        }
        flush_literals(&mut out, literal_start, input.len());
        out
    }

    /// Test hook: puts this thread's scratch where a long history of
    /// calls would have left it — `base` advanced, every slot holding
    /// some stale value at or below it (the newest possible included).
    fn set_scratch_base(base: u32) {
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            s.base = base;
            let mut state = u64::from(base) | 1;
            for slot in s.head.iter_mut().chain(s.prev.iter_mut()) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *slot = match state >> 62 {
                    0 => base,
                    1 => 0,
                    _ => ((state >> 16) % (u64::from(base) + 1)) as u32,
                };
            }
        });
    }

    fn scratch_base() -> u32 {
        SCRATCH.with(|s| s.borrow().base)
    }

    /// Compressible-but-not-trivial bytes: a small alphabet with
    /// repeats, so hash chains are long and matches are frequent.
    fn patterned(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let run = 1 + (state >> 60) as usize;
            let byte = b'a' + ((state >> 33) % 7) as u8;
            out.extend(std::iter::repeat_n(byte, run.min(len - out.len())));
        }
        out
    }

    #[test]
    fn output_ignores_what_the_thread_compressed_before() {
        // One input longer than WINDOW so `prev` slots alias, then the
        // same short inputs before and after it.
        let long = patterned(7, WINDOW * 3 + 17);
        let short = patterned(9, 300);
        let fresh = std::thread::spawn({
            let (long, short) = (long.clone(), short.clone());
            move || (compress(&short), compress(&long))
        })
        .join()
        .unwrap();
        let first = compress(&short);
        let big = compress(&long);
        let again = compress(&short);
        assert_eq!(first, fresh.0);
        assert_eq!(big, fresh.1);
        assert_eq!(again, first);
        assert_eq!(first, compress_reference(&short));
        assert_eq!(big, compress_reference(&long));
    }

    #[test]
    fn base_overflow_resets_the_tables() {
        let a = patterned(1, 5000);
        let b = patterned(2, 5000);
        // Park the base (over tables full of stale slots) so the next
        // input cannot fit below u32::MAX: `begin` must clear and
        // restart from zero instead of wrapping stale slots live.
        set_scratch_base(u32::MAX - 100);
        assert_eq!(compress(&b), compress_reference(&b));
        assert_eq!(scratch_base(), b.len() as u32, "tables restarted at zero");
        // The input that exactly fills the range still resets (slots
        // are position + 1), the one just below it does not.
        set_scratch_base(u32::MAX - 5000);
        assert_eq!(compress(&a), compress_reference(&a));
        assert_eq!(scratch_base(), 5000);
        set_scratch_base(u32::MAX - 5001);
        assert_eq!(compress(&b), compress_reference(&b));
        assert_eq!(scratch_base(), u32::MAX - 1);
        assert_eq!(compress(&a), compress_reference(&a));
        assert_eq!(scratch_base(), 5000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any sequence of inputs (0 … 200 KB, so some exceed WINDOW)
        /// compresses on a shared scratch to exactly what the
        /// per-call-table reference produces for each input alone.
        #[test]
        fn scratch_reuse_matches_reference(
            inputs in prop::collection::vec((any::<u64>(), 0usize..200_000, any::<bool>()), 1..5),
            start_base in prop_oneof![Just(0u32), Just(u32::MAX - 150_000), any::<u32>()],
        ) {
            set_scratch_base(start_base);
            for (seed, len, random) in inputs {
                let data: Vec<u8> = if random {
                    let mut state = seed;
                    (0..len)
                        .map(|_| {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                            (state >> 33) as u8
                        })
                        .collect()
                } else {
                    patterned(seed, len)
                };
                let got = compress(&data);
                prop_assert_eq!(&got, &compress_reference(&data));
                prop_assert_eq!(decompress(&got).unwrap(), data);
            }
        }
    }

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn empty_roundtrip() {
        roundtrip(b"");
    }

    #[test]
    fn tiny_roundtrip() {
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repeated_bytes_compress_well() {
        let data = vec![b'x'; 10_000];
        let c = compress(&data);
        assert!(c.len() < 100, "run of 10k bytes took {} bytes", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn json_like_data_compresses() {
        let mut data = Vec::new();
        for i in 0..200 {
            data.extend_from_slice(
                format!(r#"{{"patient_id":{i},"age":52,"status":"stable"}}"#).as_bytes(),
            );
        }
        let c = compress(&data);
        assert!(
            c.len() * 2 < data.len(),
            "expected >2x ratio, got {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Pseudo-random bytes via an LCG (deterministic, no rand dep).
        let mut state = 0x1234_5678_u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_roundtrips() {
        // "abcabcabc..." forces dist < len copies.
        let data: Vec<u8> = b"abc".iter().cycle().take(1000).copied().collect();
        roundtrip(&data);
    }

    #[test]
    fn long_input_roundtrips() {
        let mut data = Vec::new();
        for i in 0u32..50_000 {
            data.extend_from_slice(&(i % 251).to_le_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn decompress_rejects_bad_tag() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 4);
        buf.push(0x77);
        assert_eq!(decompress(&buf), Err(CodecError::BadTag(0x77)));
    }

    #[test]
    fn decompress_rejects_bad_backreference() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 8);
        buf.push(MATCH_TAG);
        varint::write_u64(&mut buf, 5); // distance 5 with 0 decoded bytes
        varint::write_u64(&mut buf, 4);
        assert!(matches!(
            decompress(&buf),
            Err(CodecError::BadBackReference { .. })
        ));
    }

    #[test]
    fn decompress_rejects_length_mismatch() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 100); // declares 100 bytes
        buf.push(LITERAL_TAG);
        varint::write_u64(&mut buf, 3);
        buf.extend_from_slice(b"abc");
        assert_eq!(
            decompress(&buf),
            Err(CodecError::LengthMismatch {
                expected: 100,
                actual: 3
            })
        );
    }

    #[test]
    fn decompress_rejects_truncated_literals() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 10);
        buf.push(LITERAL_TAG);
        varint::write_u64(&mut buf, 10);
        buf.extend_from_slice(b"abc"); // only 3 of 10 bytes present
        assert_eq!(decompress(&buf), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn near_duplicate_records_reach_high_ratio() {
        // Simulates a sub-chunk: 20 versions of a 500-byte record with
        // small point mutations.
        let base: Vec<u8> = (0..500u32).map(|i| (i % 97) as u8).collect();
        let mut group = Vec::new();
        for v in 0..20u8 {
            let mut rec = base.clone();
            rec[10] = v;
            rec[400] = v.wrapping_mul(3);
            group.extend_from_slice(&rec);
        }
        let c = compress(&group);
        assert!(
            c.len() * 8 < group.len(),
            "expected >8x on near-duplicates, got {} -> {}",
            group.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), group);
    }
}
