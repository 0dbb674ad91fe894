//! Byte-level delta encoding between two records.
//!
//! Inside a sub-chunk RStore stores one full record and delta-encodes
//! the other versions of the same primary key against it ("all the
//! sibling records would be delta-ed against their common parent",
//! §3.4). The paper's generator mutates a bounded percentage `Pd` of a
//! record's bytes, so deltas are tiny relative to records.
//!
//! A delta starts with `varint(target_len)` and takes one of two forms:
//!
//! * **Patch** (`PATCH` tag, pairs of equal length only): the target is
//!   the base with some bytes overwritten in place. Each op is
//!   `varint(gap·2 | long) [varint(run) if long] bytes[run]`: keep `gap`
//!   base bytes, overwrite the next `run` (1 unless `long`). Each run is
//!   one maximal stretch of changed bytes. Decoding writes the runs
//!   over a copy of the base, or over the base itself.
//! * **Copy/insert**: a greedy block-copy diff. The encoder indexes the
//!   base by 8-byte anchors and emits a stream of
//!   `COPY{base_offset, len}` / `INSERT{bytes}` ops, each varint-framed.
//!   This is the only form for pairs of different lengths.
//!
//! [`diff`] picks the form from the two inputs alone: for an equal-length
//! pair it keeps the patch when it is at most half the target (in-place
//! edits, the generator's case), and otherwise also runs the greedy diff
//! and keeps the smaller, the greedy form on a tie (a shift or a
//! rewrite). A `PATCH` tag was an unknown tag before the patch form
//! existed, so every delta written without it decodes as it always did.
//!
//! Applying a patch is one kernel for both entry points:
//! [`apply_delta_into`] copies the base into its output and
//! [`apply_delta_in_place`] starts from the record it is handed, and
//! each then writes the runs over it. The kernel reads the one-byte
//! varints of an op's head and run inline and writes a one-byte run as
//! a single store. It checks, in this order, the base's length
//! (`LengthMismatch`), then per op its varints (`UnexpectedEof`,
//! `VarintOverflow`), its range (`BadPatchRun`: empty, or past the
//! end) and its bytes (`UnexpectedEof`). A copy/insert delta applied
//! in place is built in a spare buffer and swapped in, so a
//! sub-chunk's delta chain never copies a patched member.
//!
//! The greedy encoder's anchor table (64 KB) is a per-thread scratch
//! reused across calls — records are a few hundred bytes, so allocating
//! and filling it per call used to cost more than the diff — and the
//! output is a function of the inputs alone.

use crate::error::CodecError;
use crate::varint;
use std::cell::RefCell;

const COPY_TAG: u8 = 0x00;
const INSERT_TAG: u8 = 0x01;
const PATCH_TAG: u8 = 0x02;

/// Anchor width used to seed copy detection.
const ANCHOR: usize = 8;
/// Minimum copy worth emitting.
const MIN_COPY: usize = 8;
/// Hash-table slots (power of two).
const SLOTS: usize = 1 << 14;

/// The anchor table, kept per thread and reused by every greedy
/// [`diff`] on it — the same scheme as `lz`'s match-finder scratch.
///
/// Slots hold `base + position + 1`; `base` moves past each base
/// record once it is indexed, so everything an earlier call stored
/// compares `<= base` and reads as empty. The table is therefore never
/// cleared between calls — only when `base` would overflow `u32`.
struct Scratch {
    /// `table[h]`: first base position whose anchor hashes to `h`.
    table: Vec<u32>,
    base: u32,
}

impl Scratch {
    /// Makes every slot read as empty for a base record of `len`
    /// bytes and returns the base its positions are stored against.
    fn begin(&mut self, len: usize) -> u32 {
        if u64::from(self.base) + len as u64 >= u64::from(u32::MAX) {
            self.table.fill(0);
            self.base = 0;
        }
        let base = self.base;
        self.base = u32::try_from(u64::from(base) + len as u64).unwrap_or(u32::MAX);
        base
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        table: vec![0; SLOTS],
        base: 0,
    });
}

/// One operation of a decoded delta, exposed for tests and tooling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy `len` bytes starting at `offset` in the base.
    Copy {
        /// Byte offset into the base.
        offset: usize,
        /// Number of bytes to copy.
        len: usize,
    },
    /// Insert literal bytes.
    Insert(Vec<u8>),
    /// Overwrite the base's bytes at `offset` with `bytes` (a patch
    /// delta's op, its gap resolved to an absolute offset).
    Patch {
        /// Byte offset into the base (and the target).
        offset: usize,
        /// The run written there.
        bytes: Vec<u8>,
    },
}

#[inline]
fn hash8(bytes: &[u8]) -> usize {
    let v = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - 14)) as usize & (SLOTS - 1)
}

/// Computes a delta that transforms `base` into `target`.
///
/// The output always reproduces `target` exactly via [`apply_delta`].
/// An equal-length pair takes the patch form when that is at most half
/// the target or smaller than the copy/insert form (see the module
/// docs); when the inputs are unrelated the delta degrades to a single
/// INSERT of the whole target plus a few framing bytes.
pub fn diff(base: &[u8], target: &[u8]) -> Vec<u8> {
    if base.len() != target.len() {
        return greedy(base, target);
    }
    let patch = patch(base, target);
    if patch.len() * 2 <= target.len() {
        return patch;
    }
    let greedy = greedy(base, target);
    if patch.len() < greedy.len() {
        patch
    } else {
        greedy
    }
}

/// The patch form of an equal-length pair.
fn patch(base: &[u8], target: &[u8]) -> Vec<u8> {
    debug_assert_eq!(base.len(), target.len());
    let mut out = Vec::with_capacity(32);
    varint::write_u64(&mut out, target.len() as u64);
    out.push(PATCH_TAG);
    let mut pos = 0;
    while let Some(start) = next_change(base, target, pos) {
        let mut end = start + 1;
        while end < target.len() && base[end] != target[end] {
            end += 1;
        }
        let (gap, run) = ((start - pos) as u64, end - start);
        let long = run > 1;
        varint::write_u64(&mut out, gap << 1 | u64::from(long));
        if long {
            varint::write_u64(&mut out, run as u64);
        }
        out.extend_from_slice(&target[start..end]);
        pos = end;
    }
    out
}

/// The first position at or after `from` where the two equal-length
/// slices differ, compared a word at a time.
fn next_change(base: &[u8], target: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i + 8 <= target.len() {
        let word = |s: &[u8]| u64::from_le_bytes(s[i..i + 8].try_into().unwrap());
        let x = word(base) ^ word(target);
        if x != 0 {
            return Some(i + (x.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    (i..target.len()).find(|&i| base[i] != target[i])
}

/// The copy/insert form, the only one for pairs of different lengths.
fn greedy(base: &[u8], target: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    varint::write_u64(&mut out, target.len() as u64);

    if target.is_empty() {
        return out;
    }
    if base.len() < ANCHOR {
        push_insert(&mut out, target);
        return out;
    }

    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let offset = scratch.begin(base.len());
        let table = &mut scratch.table;
        // Index base positions by their 8-byte anchor. First writer
        // wins: on repetitive content the earliest occurrence admits
        // the longest forward extension. Collisions are verified
        // byte-for-byte below.
        let mut i = 0;
        while i + ANCHOR <= base.len() {
            let h = hash8(&base[i..]);
            if table[h] <= offset {
                table[h] = offset.wrapping_add(i as u32).wrapping_add(1);
            }
            i += 1;
        }
        push_ops(base, target, table, offset, &mut out);
    });
    out
}

/// The greedy match loop over an anchor table of `base` whose live
/// slots are those above `offset`.
fn push_ops(base: &[u8], target: &[u8], table: &[u32], offset: u32, out: &mut Vec<u8>) {
    let mut lit_start = 0usize;
    let mut t = 0usize;
    while t + ANCHOR <= target.len() {
        let slot = table[hash8(&target[t..])];
        if slot > offset {
            let b = (slot - offset - 1) as usize;
            // Extend the match forwards.
            let mut len = 0usize;
            let max = (base.len() - b).min(target.len() - t);
            while len < max && base[b + len] == target[t + len] {
                len += 1;
            }
            if len >= MIN_COPY {
                // Extend backwards into pending literals.
                let mut back = 0usize;
                while back < t - lit_start
                    && back < b
                    && base[b - back - 1] == target[t - back - 1]
                {
                    back += 1;
                }
                let (b, t2, len) = (b - back, t - back, len + back);
                push_insert(out, &target[lit_start..t2]);
                out.push(COPY_TAG);
                varint::write_u64(out, b as u64);
                varint::write_u64(out, len as u64);
                t = t2 + len;
                lit_start = t;
                continue;
            }
        }
        t += 1;
    }
    push_insert(out, &target[lit_start..]);
}

fn push_insert(out: &mut Vec<u8>, bytes: &[u8]) {
    if !bytes.is_empty() {
        out.push(INSERT_TAG);
        varint::write_u64(out, bytes.len() as u64);
        out.extend_from_slice(bytes);
    }
}

/// Applies a delta produced by [`diff`] to `base`, reproducing the
/// target.
pub fn apply_delta(base: &[u8], delta: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    apply_delta_into(base, delta, &mut out)?;
    Ok(out)
}

/// Applies a delta produced by [`diff`] to `base`, writing the target
/// into `out`, which is cleared first (see
/// [`lz::decompress_into`](crate::lz::decompress_into)). On error `out`
/// holds an unspecified prefix.
pub fn apply_delta_into(base: &[u8], delta: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    out.clear();
    let mut r = varint::VarintReader::new(delta);
    let expected = r.read_u64()? as usize;
    if r.remaining().first() == Some(&PATCH_TAG) {
        out.extend_from_slice(base);
        return apply_patch(out, expected, &r.remaining()[1..]);
    }
    // Cap the pre-allocation: the header is untrusted input.
    out.reserve(expected.min(1 << 20));
    while !r.is_empty() {
        let tag = r.read_bytes(1)?[0];
        match tag {
            COPY_TAG => {
                let offset = r.read_u64()? as usize;
                let len = r.read_u64()? as usize;
                if offset.checked_add(len).is_none_or(|end| end > base.len()) {
                    return Err(CodecError::BadCopyRange {
                        start: offset,
                        len,
                        base_len: base.len(),
                    });
                }
                if out.len() + len > expected {
                    return Err(CodecError::LengthMismatch {
                        expected,
                        actual: out.len() + len,
                    });
                }
                out.extend_from_slice(&base[offset..offset + len]);
            }
            INSERT_TAG => {
                let len = r.read_u64()? as usize;
                let bytes = r.read_bytes(len)?;
                if out.len() + len > expected {
                    return Err(CodecError::LengthMismatch {
                        expected,
                        actual: out.len() + len,
                    });
                }
                out.extend_from_slice(bytes);
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

/// Applies a delta produced by [`diff`] to the record in `cur`,
/// leaving the target there: a patch delta overwrites its runs in
/// place, a copy/insert delta is rebuilt in `spare` (see
/// [`apply_delta_into`]) and swapped into `cur`. Returns what
/// [`apply_delta_into`] returns for the same base and delta, and on
/// success `cur` holds the same bytes as its `out`; on error `cur` and
/// `spare` hold unspecified bytes.
pub fn apply_delta_in_place(
    cur: &mut Vec<u8>,
    delta: &[u8],
    spare: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let (expected, n) = varint::read_u64(delta)?;
    if delta.get(n) == Some(&PATCH_TAG) {
        return apply_patch(cur, expected as usize, &delta[n + 1..]);
    }
    apply_delta_into(cur, delta, spare)?;
    std::mem::swap(cur, spare);
    Ok(())
}

/// Writes a patch delta's runs (`ops`, the bytes after its tag) over
/// `buf`, which holds the base. Every run must be non-empty and end
/// inside the record, so nothing may follow the op that reaches its
/// end.
fn apply_patch(buf: &mut [u8], expected: usize, ops: &[u8]) -> Result<(), CodecError> {
    let len = buf.len();
    if expected != len {
        return Err(CodecError::LengthMismatch {
            expected,
            actual: len,
        });
    }
    let (mut at, mut pos) = (0usize, 0usize);
    while let Some(&b) = ops.get(at) {
        let head = if b < 0x80 {
            at += 1;
            u64::from(b)
        } else {
            read_varint(ops, &mut at)?
        };
        let run = if head & 1 == 0 {
            1
        } else {
            match ops.get(at) {
                Some(&b) if b < 0x80 => {
                    at += 1;
                    usize::from(b)
                }
                _ => usize::try_from(read_varint(ops, &mut at)?).unwrap_or(usize::MAX),
            }
        };
        // Saturating, so an absurd gap fails the range check.
        let start = pos.saturating_add(usize::try_from(head >> 1).unwrap_or(usize::MAX));
        if run == 0 || start.checked_add(run).is_none_or(|end| end > len) {
            return Err(CodecError::BadPatchRun { start, run, len });
        }
        if run == 1 {
            buf[start] = *ops.get(at).ok_or(CodecError::UnexpectedEof)?;
        } else {
            // `at + run` cannot overflow: `run <= len`.
            let bytes = ops.get(at..at + run).ok_or(CodecError::UnexpectedEof)?;
            buf[start..start + run].copy_from_slice(bytes);
        }
        at += run;
        pos = start + run;
    }
    Ok(())
}

/// The varint at `input[*at..]`, moving `at` past it.
fn read_varint(input: &[u8], at: &mut usize) -> Result<u64, CodecError> {
    let (value, n) = varint::read_u64(&input[*at..])?;
    *at += n;
    Ok(value)
}

/// Reads one patch op's header after position `pos`: the run's start
/// (saturating, so an absurd gap fails the range check) and length.
fn read_patch_op(
    r: &mut varint::VarintReader<'_>,
    pos: usize,
) -> Result<(usize, usize), CodecError> {
    let head = r.read_u64()?;
    let run = if head & 1 == 1 { r.read_u64()? } else { 1 };
    let start = pos.saturating_add(usize::try_from(head >> 1).unwrap_or(usize::MAX));
    Ok((start, usize::try_from(run).unwrap_or(usize::MAX)))
}

/// Parses a delta into its op list (diagnostics / tests).
pub fn parse_ops(delta: &[u8]) -> Result<Vec<DeltaOp>, CodecError> {
    let mut r = varint::VarintReader::new(delta);
    let _expected = r.read_u64()?;
    let mut ops = Vec::new();
    if r.remaining().first() == Some(&PATCH_TAG) {
        r.read_bytes(1)?;
        let mut pos = 0;
        while !r.is_empty() {
            let (offset, run) = read_patch_op(&mut r, pos)?;
            let bytes = r.read_bytes(run)?.to_vec();
            ops.push(DeltaOp::Patch { offset, bytes });
            pos = offset.saturating_add(run);
        }
        return Ok(ops);
    }
    while !r.is_empty() {
        let tag = r.read_bytes(1)?[0];
        match tag {
            COPY_TAG => {
                let offset = r.read_u64()? as usize;
                let len = r.read_u64()? as usize;
                ops.push(DeltaOp::Copy { offset, len });
            }
            INSERT_TAG => {
                let len = r.read_u64()? as usize;
                ops.push(DeltaOp::Insert(r.read_bytes(len)?.to_vec()));
            }
            other => return Err(CodecError::BadTag(other)),
        }
    }
    Ok(ops)
}

#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{diff_reference, patch_reference};
    use super::*;
    use proptest::prelude::*;

    /// Bytes from a small alphabet (`random` false: long anchor
    /// collisions and repeats) or a full one.
    fn bytes(seed: u64, len: usize, random: bool) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if random {
                    (state >> 33) as u8
                } else {
                    b'a' + ((state >> 33) % 5) as u8
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any sequence of copy/insert diffs on one thread's scratch —
        /// bases up to 40 KB, so some fill most of the table, and
        /// targets mutated from their base or unrelated — produces
        /// exactly what the per-call-table reference produces for each
        /// pair alone, and `diff` (which may take the patch) round-trips.
        #[test]
        fn scratch_reuse_matches_reference(
            pairs in prop::collection::vec(
                (any::<u64>(), 0usize..40_000, any::<bool>(), 0usize..64, any::<bool>()),
                1..6,
            ),
        ) {
            for (seed, len, random, edits, related) in pairs {
                let base = bytes(seed, len, random);
                let target = if related {
                    let mut t = base.clone();
                    for e in 0..edits.min(t.len()) {
                        let at = (seed as usize).wrapping_add(e * 7919) % t.len();
                        t[at] ^= 0x5a;
                    }
                    t.extend_from_slice(&bytes(seed ^ 1, edits, random));
                    t
                } else {
                    bytes(seed ^ 2, len / 2 + edits, random)
                };
                prop_assert_eq!(greedy(&base, &target), diff_reference(&base, &target));
                prop_assert_eq!(apply_delta(&base, &diff(&base, &target)).unwrap(), target);
            }
        }
    }

    #[test]
    fn output_ignores_what_the_thread_diffed_before() {
        let (big, small) = (bytes(3, 30_000, false), bytes(4, 600, true));
        let mut edited = small.clone();
        for at in (10..600).step_by(50) {
            edited[at] ^= 1;
        }
        // One byte longer, so the pair takes the copy/insert form and
        // its anchor scratch.
        edited.push(b'!');
        let fresh = std::thread::spawn({
            let (small, edited) = (small.clone(), edited.clone());
            move || diff(&small, &edited)
        })
        .join()
        .unwrap();
        let first = diff(&small, &edited);
        diff(&big, &small);
        assert_eq!(diff(&small, &edited), first);
        assert_eq!(first, fresh);
        assert_eq!(first, diff_reference(&small, &edited));
    }

    /// Test hook: puts this thread's scratch where a long history of
    /// diffs would have left it — `base` advanced, every slot holding
    /// some stale value at or below it (the newest possible included).
    fn set_scratch_base(base: u32) {
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            s.base = base;
            let mut state = u64::from(base) | 1;
            for slot in &mut s.table {
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

    #[test]
    fn base_overflow_resets_the_table() {
        let base = bytes(5, 5000, false);
        let mut target = base.clone();
        for at in (7..5000).step_by(97) {
            target[at] ^= 0x33;
        }
        target.push(0x33); // a longer target takes the copy/insert form
        let expected = diff_reference(&base, &target);
        // Stale slots that cannot all sit below the next base record:
        // `begin` must clear and restart from zero instead of wrapping
        // them live.
        set_scratch_base(u32::MAX - 100);
        assert_eq!(diff(&base, &target), expected);
        assert_eq!(scratch_base(), 5000, "table restarted at zero");
        // The record that exactly fills the range still resets (slots
        // are position + 1), the one just below it does not.
        set_scratch_base(u32::MAX - 5000);
        assert_eq!(diff(&base, &target), expected);
        assert_eq!(scratch_base(), 5000);
        set_scratch_base(u32::MAX - 5001);
        assert_eq!(diff(&base, &target), expected);
        assert_eq!(scratch_base(), u32::MAX - 1);
        assert_eq!(diff(&base, &target), expected);
        assert_eq!(scratch_base(), 5000);
    }

    fn roundtrip(base: &[u8], target: &[u8]) -> usize {
        let d = diff(base, target);
        assert_eq!(apply_delta(base, &d).unwrap(), target);
        d.len()
    }

    #[test]
    fn identical_inputs_yield_tiny_delta() {
        let data = vec![42u8; 4096];
        let n = roundtrip(&data, &data);
        assert!(n < 16, "identical 4k input produced {n}-byte delta");
    }

    #[test]
    fn empty_cases() {
        roundtrip(b"", b"");
        roundtrip(b"abcdefgh", b"");
        roundtrip(b"", b"abcdefgh");
    }

    #[test]
    fn point_mutation_produces_small_delta() {
        let base: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        let mut target = base.clone();
        target[1000] ^= 0xff;
        let n = roundtrip(&base, &target);
        assert!(n < 64, "1-byte mutation produced {n}-byte delta");
    }

    #[test]
    fn insertion_in_middle() {
        let base: Vec<u8> = (0..1000u32).map(|i| (i % 241) as u8).collect();
        let mut target = base[..500].to_vec();
        target.extend_from_slice(b"INSERTED PAYLOAD");
        target.extend_from_slice(&base[500..]);
        let n = roundtrip(&base, &target);
        assert!(n < 96, "16-byte insert produced {n}-byte delta");
    }

    #[test]
    fn deletion_in_middle() {
        let base: Vec<u8> = (0..1000u32).map(|i| (i % 239) as u8).collect();
        let mut target = base[..300].to_vec();
        target.extend_from_slice(&base[700..]);
        let n = roundtrip(&base, &target);
        assert!(n < 64, "deletion produced {n}-byte delta");
    }

    #[test]
    fn unrelated_inputs_degrade_to_insert() {
        let base = vec![0u8; 500];
        let target: Vec<u8> = (0..500u32).map(|i| (i * 7 % 256) as u8).collect();
        let d = diff(&base, &target);
        assert_eq!(apply_delta(&base, &d).unwrap(), target);
        assert!(d.len() <= target.len() + 16);
    }

    #[test]
    fn small_base_falls_back_to_insert() {
        roundtrip(b"abc", b"abcdefghij");
    }

    #[test]
    fn json_field_update() {
        let base = br#"{"id":17,"name":"ada lovelace","age":36,"notes":"analytical engine pioneer, first programmer","visits":[1,2,3,4,5]}"#;
        let target = br#"{"id":17,"name":"ada lovelace","age":37,"notes":"analytical engine pioneer, first programmer","visits":[1,2,3,4,5,6]}"#;
        let n = roundtrip(base, target);
        assert!(n < base.len() / 2, "field update delta {n} too large");
    }

    #[test]
    fn apply_rejects_bad_copy_range() {
        let mut d = Vec::new();
        varint::write_u64(&mut d, 10);
        d.push(COPY_TAG);
        varint::write_u64(&mut d, 5);
        varint::write_u64(&mut d, 10); // 5..15 of an 8-byte base
        assert!(matches!(
            apply_delta(b"12345678", &d),
            Err(CodecError::BadCopyRange { .. })
        ));
    }

    #[test]
    fn apply_rejects_overflowing_copy_range() {
        let mut d = Vec::new();
        varint::write_u64(&mut d, 10);
        d.push(COPY_TAG);
        varint::write_u64(&mut d, u64::MAX);
        varint::write_u64(&mut d, 2);
        assert!(matches!(
            apply_delta(b"12345678", &d),
            Err(CodecError::BadCopyRange { .. })
        ));
    }

    #[test]
    fn parse_ops_reports_structure() {
        let base: Vec<u8> = (0..100u8).collect();
        let mut target = base.clone();
        target[50] = 0xff;
        target[60..63].copy_from_slice(b"abc");
        target[64] = 0xfe;
        assert_eq!(
            parse_ops(&diff(&base, &target)).unwrap(),
            [
                DeltaOp::Patch {
                    offset: 50,
                    bytes: vec![0xff]
                },
                DeltaOp::Patch {
                    offset: 60,
                    bytes: b"abc".to_vec()
                },
                DeltaOp::Patch {
                    offset: 64,
                    bytes: vec![0xfe]
                },
            ]
        );
        target.insert(80, 0);
        let ops = parse_ops(&diff(&base, &target)).unwrap();
        assert!(ops.iter().any(|op| matches!(op, DeltaOp::Copy { .. })));
        assert!(ops.iter().any(|op| matches!(op, DeltaOp::Insert(_))));
    }

    #[test]
    fn a_patch_of_at_most_half_the_target_is_kept_over_a_smaller_copy() {
        // A third of the record overwritten with bytes from elsewhere in
        // it: the copy/insert form copies them, the patch carries them.
        let base = bytes(8, 300, true);
        let mut target = base.clone();
        target.copy_within(0..100, 150);
        let d = diff(&base, &target);
        assert_eq!(d, patch_reference(&base, &target));
        assert!(d.len() * 2 <= target.len(), "{}-byte patch", d.len());
        assert!(diff_reference(&base, &target).len() < d.len());
    }

    #[test]
    fn a_shifted_record_keeps_the_copy_insert_form() {
        // Every byte moved by one: a patch rewrites the record, a copy
        // covers it.
        let base = bytes(7, 300, true);
        let mut target = base[1..].to_vec();
        target.push(0);
        let d = diff(&base, &target);
        assert_eq!(d, diff_reference(&base, &target));
        assert_eq!(apply_delta(&base, &d).unwrap(), target);
    }

    /// A patch delta by hand: `len` then the ops' raw varints and bytes.
    fn patch_delta(len: u64, body: &[u64]) -> Vec<u8> {
        let mut d = Vec::new();
        varint::write_u64(&mut d, len);
        d.push(PATCH_TAG);
        for &v in body {
            varint::write_u64(&mut d, v);
        }
        d
    }

    #[test]
    fn apply_rejects_malformed_patches() {
        let base = b"0123456789";
        // gap 2, long, run 3, "abc": a well-formed patch.
        assert_eq!(
            apply_delta(base, &patch_delta(10, &[5, 3, 97, 98, 99])).unwrap(),
            b"01abc56789"
        );
        // A record of another length.
        assert!(matches!(
            apply_delta(base, &patch_delta(11, &[5, 3, 97, 98, 99])),
            Err(CodecError::LengthMismatch {
                expected: 11,
                actual: 10
            })
        ));
        // A run past the end, an empty run, an absurd gap.
        for body in [&[17, 3, 97, 98, 99][..], &[5, 0], &[u64::MAX - 1, 97]] {
            assert!(
                matches!(
                    apply_delta(base, &patch_delta(10, body)),
                    Err(CodecError::BadPatchRun { .. })
                ),
                "{body:?}"
            );
        }
        // An op after the run that reaches the end.
        assert!(matches!(
            apply_delta(base, &patch_delta(10, &[15, 3, 97, 98, 99, 0, 97])),
            Err(CodecError::BadPatchRun { .. })
        ));
        // A truncated run.
        assert!(matches!(
            apply_delta(base, &patch_delta(10, &[5, 3, 97])),
            Err(CodecError::UnexpectedEof)
        ));
        // The tag anywhere but first is still unknown.
        let mut d = diff(base, b"0123456789abcdef");
        d.push(PATCH_TAG);
        assert!(matches!(
            apply_delta(base, &d),
            Err(CodecError::BadTag(PATCH_TAG))
        ));
    }
}
