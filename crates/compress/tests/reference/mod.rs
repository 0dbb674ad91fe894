//! Reference delta codecs, written for clarity rather than speed: the
//! oracles that `delta.rs`'s unit tests and the codec proptests hold
//! the production codec to. Self-contained (its own varints), so the
//! production varint code is not its own oracle.
#![allow(dead_code)]

const COPY_TAG: u8 = 0x00;
const INSERT_TAG: u8 = 0x01;
const PATCH_TAG: u8 = 0x02;

const ANCHOR: usize = 8;
const MIN_COPY: usize = 8;
const SLOTS: usize = 1 << 14;

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// LEB128 at `*at`, at most ten bytes and the tenth holding one bit.
fn read_varint(input: &[u8], at: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *input.get(*at)?;
        *at += 1;
        let low = u64::from(byte & 0x7f);
        if shift == 63 && low > 1 {
            return None;
        }
        value |= low << shift;
        if byte < 0x80 {
            return Some(value);
        }
    }
    None
}

fn hash8(bytes: &[u8]) -> usize {
    let v = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - 14)) as usize & (SLOTS - 1)
}

fn push_insert(out: &mut Vec<u8>, bytes: &[u8]) {
    if !bytes.is_empty() {
        out.push(INSERT_TAG);
        write_varint(out, bytes.len() as u64);
        out.extend_from_slice(bytes);
    }
}

/// The copy/insert diff as it was before the per-thread scratch and the
/// patch form, verbatim (anchor table allocated and filled per call):
/// the form of every delta stored before the patch form existed.
pub fn diff_reference(base: &[u8], target: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    write_varint(&mut out, target.len() as u64);
    if target.is_empty() {
        return out;
    }
    if base.len() < ANCHOR {
        push_insert(&mut out, target);
        return out;
    }
    let mut table = vec![u32::MAX; SLOTS];
    let mut i = 0;
    while i + ANCHOR <= base.len() {
        let h = hash8(&base[i..]);
        if table[h] == u32::MAX {
            table[h] = i as u32;
        }
        i += 1;
    }
    let mut lit_start = 0usize;
    let mut t = 0usize;
    while t + ANCHOR <= target.len() {
        let slot = table[hash8(&target[t..])];
        if slot != u32::MAX {
            let b = slot as usize;
            let mut len = 0usize;
            let max = (base.len() - b).min(target.len() - t);
            while len < max && base[b + len] == target[t + len] {
                len += 1;
            }
            if len >= MIN_COPY {
                let mut back = 0usize;
                while back < t - lit_start && back < b && base[b - back - 1] == target[t - back - 1]
                {
                    back += 1;
                }
                let (b, t2, len) = (b - back, t - back, len + back);
                push_insert(&mut out, &target[lit_start..t2]);
                out.push(COPY_TAG);
                write_varint(&mut out, b as u64);
                write_varint(&mut out, len as u64);
                t = t2 + len;
                lit_start = t;
                continue;
            }
        }
        t += 1;
    }
    push_insert(&mut out, &target[lit_start..]);
    out
}

/// The patch form of an equal-length pair, a byte at a time: each run
/// is one maximal stretch of changed bytes.
pub fn patch_reference(base: &[u8], target: &[u8]) -> Vec<u8> {
    assert_eq!(
        base.len(),
        target.len(),
        "a patch needs a pair of equal length"
    );
    let changed = |i: usize| base[i] != target[i];
    let mut out = Vec::new();
    write_varint(&mut out, target.len() as u64);
    out.push(PATCH_TAG);
    let mut pos = 0;
    let mut i = 0;
    while i < target.len() {
        if !changed(i) {
            i += 1;
            continue;
        }
        let mut end = i;
        while end < target.len() && changed(end) {
            end += 1;
        }
        let (gap, run) = (i - pos, end - i);
        if run == 1 {
            write_varint(&mut out, (gap as u64) * 2);
        } else {
            write_varint(&mut out, (gap as u64) * 2 + 1);
            write_varint(&mut out, run as u64);
        }
        out.extend_from_slice(&target[i..end]);
        pos = end;
        i = end;
    }
    out
}

/// What [`diff`](rstore_compress::diff) must return for a pair: the
/// patch when it is at most half the target, else the smaller of the
/// patch and the copy/insert form (the latter on a tie); the
/// copy/insert form alone for a pair of different lengths.
pub fn expected_diff(base: &[u8], target: &[u8]) -> Vec<u8> {
    let greedy = diff_reference(base, target);
    if base.len() != target.len() {
        return greedy;
    }
    let patch = patch_reference(base, target);
    if patch.len() * 2 <= target.len() || patch.len() < greedy.len() {
        patch
    } else {
        greedy
    }
}

/// Applies either delta form a byte at a time; `None` wherever the
/// delta is malformed for `base` (a run or copy out of range, an empty
/// patch run, a truncated op, a length that does not add up).
pub fn apply_reference(base: &[u8], delta: &[u8]) -> Option<Vec<u8>> {
    let mut at = 0;
    let len = read_varint(delta, &mut at)?;
    let mut out = Vec::new();
    if delta.get(at) == Some(&PATCH_TAG) {
        at += 1;
        if len != base.len() as u64 {
            return None;
        }
        out.extend_from_slice(base);
        let mut pos = 0u64;
        while at < delta.len() {
            let head = read_varint(delta, &mut at)?;
            let run = if head % 2 == 1 {
                read_varint(delta, &mut at)?
            } else {
                1
            };
            let start = pos.checked_add(head / 2)?;
            if run == 0 || start.checked_add(run)? > len {
                return None;
            }
            for k in 0..run {
                out[(start + k) as usize] = *delta.get(at)?;
                at += 1;
            }
            pos = start + run;
        }
        return Some(out);
    }
    while at < delta.len() {
        let tag = delta[at];
        at += 1;
        match tag {
            COPY_TAG => {
                let offset = read_varint(delta, &mut at)?;
                let n = read_varint(delta, &mut at)?;
                if offset.checked_add(n)? > base.len() as u64 {
                    return None;
                }
                for k in 0..n {
                    out.push(base[(offset + k) as usize]);
                }
            }
            INSERT_TAG => {
                let n = read_varint(delta, &mut at)?;
                for _ in 0..n {
                    out.push(*delta.get(at)?);
                    at += 1;
                }
            }
            _ => return None,
        }
        if out.len() as u64 > len {
            return None;
        }
    }
    (out.len() as u64 == len).then_some(out)
}
