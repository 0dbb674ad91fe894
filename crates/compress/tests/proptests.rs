//! Property-based round-trip tests for every codec in rstore-compress.

mod reference;

use proptest::prelude::*;
use reference::{apply_reference, diff_reference, expected_diff, patch_reference};
use rstore_compress::{
    apply_delta, apply_delta_in_place, apply_delta_into, bitmap::Bitmap, diff, lz, postings::PostingsList,
    varint,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn varint_u64_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, v);
        let (decoded, n) = varint::read_u64(&buf).unwrap();
        prop_assert_eq!(decoded, v);
        prop_assert_eq!(n, buf.len());
    }

    #[test]
    fn varint_i64_roundtrip(v in any::<i64>()) {
        let mut buf = Vec::new();
        varint::write_i64(&mut buf, v);
        prop_assert_eq!(varint::read_i64(&buf).unwrap().0, v);
    }

    #[test]
    fn varint_sequences_roundtrip(vs in prop::collection::vec(any::<u64>(), 0..64)) {
        let mut buf = Vec::new();
        for &v in &vs {
            varint::write_u64(&mut buf, v);
        }
        let mut r = varint::VarintReader::new(&buf);
        for &v in &vs {
            prop_assert_eq!(r.read_u64().unwrap(), v);
        }
        prop_assert!(r.is_empty());
    }

    #[test]
    fn lz_roundtrip_arbitrary(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let c = lz::compress(&data);
        prop_assert_eq!(lz::decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz_roundtrip_low_entropy(data in prop::collection::vec(0u8..4, 0..8192)) {
        let c = lz::compress(&data);
        prop_assert_eq!(lz::decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz_decompress_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = lz::decompress(&data);
    }

    #[test]
    fn delta_roundtrip_arbitrary(
        base in prop::collection::vec(any::<u8>(), 0..2048),
        target in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let d = diff(&base, &target);
        prop_assert_eq!(apply_delta(&base, &d).unwrap(), target);
    }

    #[test]
    fn delta_roundtrip_mutations(
        base in prop::collection::vec(any::<u8>(), 64..2048),
        muts in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..16),
    ) {
        let mut target = base.clone();
        for (idx, byte) in muts {
            let i = idx.index(target.len());
            target[i] = byte;
        }
        let d = diff(&base, &target);
        prop_assert_eq!(apply_delta(&base, &d).unwrap(), &target[..]);
        // Small mutations must not balloon the delta to full size + framing.
        prop_assert!(d.len() <= target.len() + 16);
    }

    #[test]
    fn delta_apply_never_panics_on_garbage(
        base in prop::collection::vec(any::<u8>(), 0..256),
        delta in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = apply_delta(&base, &delta);
    }

    /// Same-length pairs with anywhere from none to all of the bytes
    /// changed round-trip, and `diff` is exactly the reference's pick:
    /// the reference patch when it takes the patch form, byte for byte
    /// the copy/insert reference when it does not.
    #[test]
    fn a_same_length_pair_round_trips_and_takes_the_reference_form(
        (base, target) in same_length_pair(2048),
    ) {
        let d = diff(&base, &target);
        prop_assert_eq!(apply_delta(&base, &d).unwrap(), &target[..]);
        if takes_the_patch_form(&d) {
            prop_assert_eq!(&d, &patch_reference(&base, &target));
        } else {
            prop_assert_eq!(&d, &diff_reference(&base, &target));
        }
        prop_assert_eq!(d, expected_diff(&base, &target));
    }

    /// A pair of different lengths never takes the patch form: its
    /// delta is byte for byte the copy/insert reference.
    #[test]
    fn a_pair_of_different_lengths_takes_the_copy_insert_form(
        base in prop::collection::vec(any::<u8>(), 0..1024),
        mut target in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        if base.len() == target.len() {
            target.push(0);
        }
        prop_assert_eq!(diff(&base, &target), diff_reference(&base, &target));
    }

    /// A same-length delta costs at most 4 bytes per changed byte plus
    /// 12 bytes of framing, for targets under 1 MiB.
    #[test]
    fn a_same_length_delta_costs_at_most_four_bytes_per_changed_byte(
        (base, target) in same_length_pair(4096),
    ) {
        let changed = base.iter().zip(&target).filter(|(a, b)| a != b).count();
        let d = diff(&base, &target);
        prop_assert!(d.len() <= 4 * changed + 12, "{} bytes for {} changed", d.len(), changed);
    }

    /// A copy/insert delta of a same-length pair — the form of every
    /// delta stored before the patch form existed — still applies to
    /// the same bytes.
    #[test]
    fn a_stored_copy_insert_delta_of_a_same_length_pair_still_applies(
        (base, target) in same_length_pair(2048),
    ) {
        prop_assert_eq!(apply_delta(&base, &diff_reference(&base, &target)).unwrap(), target);
    }

    #[test]
    fn bitmap_roundtrip(
        len in 0usize..5000,
        seed_bits in prop::collection::vec(any::<prop::sample::Index>(), 0..128),
    ) {
        let indices: Vec<usize> = if len == 0 {
            vec![]
        } else {
            seed_bits.iter().map(|ix| ix.index(len)).collect()
        };
        let b = Bitmap::from_indices(len, indices.iter().copied());
        let d = Bitmap::deserialize(&b.serialize()).unwrap();
        prop_assert_eq!(&d, &b);
        for &i in &indices {
            prop_assert!(d.get(i));
        }
    }

    #[test]
    fn bitmap_iter_matches_get(
        len in 1usize..2000,
        seed_bits in prop::collection::vec(any::<prop::sample::Index>(), 0..64),
    ) {
        let indices: Vec<usize> = seed_bits.iter().map(|ix| ix.index(len)).collect();
        let b = Bitmap::from_indices(len, indices.iter().copied());
        let ones: Vec<usize> = b.iter_ones().collect();
        let expect: Vec<usize> = (0..len).filter(|&i| b.get(i)).collect();
        prop_assert_eq!(ones, expect);
    }

    #[test]
    fn bitmap_difference_matches_filtered_ones(
        len in 0usize..400,
        other_len in 0usize..400,
        bits in prop::collection::vec(any::<prop::sample::Index>(), 0..96),
        other_bits in prop::collection::vec(any::<prop::sample::Index>(), 0..96),
    ) {
        // Lengths may differ: the other bitmap's missing tail reads clear.
        let build = |len: usize, seeds: &[prop::sample::Index]| {
            let indices = seeds.iter().filter(|_| len > 0).map(|ix| ix.index(len));
            Bitmap::from_indices(len, indices)
        };
        let (a, b) = (build(len, &bits), build(other_len, &other_bits));
        let got: Vec<usize> = a.iter_difference(&b).collect();
        let expect: Vec<usize> = a.iter_ones().filter(|i| !b.get(*i)).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn bitmap_deserialize_never_panics(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Bitmap::deserialize(&data);
    }

    /// Damaged *valid* encodings reach decoder states random bytes
    /// rarely do (plausible headers, long fills): flip, truncate or
    /// splice a real serialization — `Ok` or `Err`, never a panic,
    /// and never an answer longer than the header admits.
    #[test]
    fn bitmap_deserialize_never_panics_on_damaged_encoding(
        len in 0usize..3000,
        seed_bits in prop::collection::vec(any::<prop::sample::Index>(), 0..48),
        dense in any::<bool>(),
        damage in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..6),
        cut in any::<prop::sample::Index>(),
    ) {
        let indices: Vec<usize> = if len == 0 {
            Vec::new()
        } else if dense {
            (0..len).filter(|i| i % 97 != 3).collect()
        } else {
            seed_bits.iter().map(|ix| ix.index(len)).collect()
        };
        let mut bytes = Bitmap::from_indices(len, indices).serialize();
        for (at, byte) in &damage {
            let at = at.index(bytes.len());
            bytes[at] ^= byte | 1;
        }
        if let Ok(b) = Bitmap::deserialize(&bytes) {
            prop_assert!(b.iter_ones().all(|i| i < b.len()));
        }
        let _ = Bitmap::deserialize(&bytes[..cut.index(bytes.len() + 1)]);
    }

    #[test]
    fn postings_roundtrip(mut ids in prop::collection::btree_set(any::<u32>(), 0..256)) {
        let ids: Vec<u64> = std::mem::take(&mut ids).into_iter().map(u64::from).collect();
        let p = PostingsList::from_sorted(&ids);
        prop_assert_eq!(p.decode(), ids.clone());
        let d = PostingsList::deserialize(&p.serialize()).unwrap();
        prop_assert_eq!(d.decode(), ids);
    }

    #[test]
    fn postings_intersect_matches_sets(
        a in prop::collection::btree_set(0u64..500, 0..64),
        b in prop::collection::btree_set(0u64..500, 0..64),
    ) {
        let pa = PostingsList::from_sorted(&a.iter().copied().collect::<Vec<_>>());
        let pb = PostingsList::from_sorted(&b.iter().copied().collect::<Vec<_>>());
        let expect: Vec<u64> = a.intersection(&b).copied().collect();
        prop_assert_eq!(pa.intersect(&pb), expect);
    }

    /// `deserialize` walks and validates the whole payload, so the
    /// `expect`s in `decode` and the iterator are unreachable from
    /// stored bytes: whatever it accepts decodes cleanly.
    #[test]
    fn postings_deserialize_never_panics(data in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(p) = PostingsList::deserialize(&data) {
            prop_assert!(decodes_cleanly(&p));
        }
    }

    /// The same for damaged *valid* encodings — flipped, cut and
    /// extended serializations of a real list: `Err` or a clean
    /// decode, never a panic.
    #[test]
    fn postings_deserialize_never_panics_on_damaged_encoding(
        ids in prop::collection::btree_set(any::<u64>(), 0..128),
        damage in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..6),
        cut in any::<prop::sample::Index>(),
        tail in prop::collection::vec(any::<u8>(), 1..12),
    ) {
        let ids: Vec<u64> = ids.into_iter().collect();
        let good = PostingsList::from_sorted(&ids).serialize();
        let mut flipped = good.clone();
        for (at, byte) in &damage {
            let at = at.index(flipped.len());
            flipped[at] ^= byte | 1;
        }
        let mut extended = good.clone();
        extended.extend_from_slice(&tail);
        for bytes in [&flipped[..], &good[..cut.index(good.len() + 1)], &extended[..]] {
            if let Ok(p) = PostingsList::deserialize(bytes) {
                prop_assert!(decodes_cleanly(&p));
            }
        }
    }
}

/// Whether a delta is in the patch form: its tag follows the length.
fn takes_the_patch_form(delta: &[u8]) -> bool {
    let (_, n) = varint::read_u64(delta).unwrap();
    delta.get(n) == Some(&0x02)
}

/// A record and an in-place edit of it: each byte changes with a
/// share drawn from 0 to 100%, so the set runs from identical pairs to
/// pairs that differ everywhere.
fn same_length_pair(max_len: usize) -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (prop::collection::vec(any::<u8>(), 0..max_len), any::<u64>(), 0u64..101).prop_map(|(base, seed, share)| {
        let mut state = seed | 1;
        let target = base
            .iter()
            .map(|&b| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = state >> 33;
                if r % 100 < share {
                    b.wrapping_add(1 + (r / 100 % 255) as u8)
                } else {
                    b
                }
            })
            .collect();
        (base, target)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every truncation and every bit flip of a patch delta, and a
    /// patch tag followed by garbage, decodes to `Err` exactly where
    /// the byte-at-a-time reference fails, and to its output where it
    /// does not; nothing panics.
    #[test]
    fn a_damaged_patch_fails_or_decodes_like_the_reference(
        (base, target) in same_length_pair(160),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let good = patch_reference(&base, &target);
        let mut damaged: Vec<Vec<u8>> = (0..good.len()).map(|cut| good[..cut].to_vec()).collect();
        for bit in 0..good.len() * 8 {
            let mut d = good.clone();
            d[bit / 8] ^= 1 << (bit % 8);
            damaged.push(d);
        }
        let mut tagged = Vec::new();
        varint::write_u64(&mut tagged, base.len() as u64);
        tagged.push(0x02);
        tagged.extend_from_slice(&garbage);
        damaged.push(tagged);
        damaged.push(good);
        for d in &damaged {
            prop_assert_eq!(apply_delta(&base, d).ok(), apply_reference(&base, d), "delta {:?}", d);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The in-place step a sub-chunk decode takes equals the reference
    /// step, `apply_delta_into`: the same `Ok` or the same error, and
    /// the same bytes. Deltas in the patch and the copy/insert forms,
    /// every truncation and every bit flip of each, applied to the base
    /// and to bases one byte longer and shorter.
    #[test]
    fn the_in_place_step_equals_apply_delta_into(
        (base, target) in same_length_pair(120),
        other in prop::collection::vec(any::<u8>(), 0..120),
        dirt in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // `diff` takes the patch form for most same-length pairs; the
        // reference and a pair of different lengths take the other.
        let intact = [diff(&base, &target), diff_reference(&base, &target), diff(&base, &other)];
        let mut deltas = Vec::new();
        for good in &intact {
            deltas.extend((0..good.len()).map(|cut| good[..cut].to_vec()));
            for bit in 0..good.len() * 8 {
                let mut d = good.clone();
                d[bit / 8] ^= 1 << (bit % 8);
                deltas.push(d);
            }
            deltas.push(good.clone());
        }
        let mut longer = base.clone();
        longer.push(0x5a);
        let shorter = &base[..base.len().saturating_sub(1)];
        let (mut out, mut spare) = (dirt.clone(), dirt.clone());
        for base in [&base[..], &longer[..], shorter] {
            for d in &deltas {
                let want = apply_delta_into(base, d, &mut out);
                let mut cur = base.to_vec();
                let got = apply_delta_in_place(&mut cur, d, &mut spare);
                prop_assert_eq!(&got, &want, "delta {:?}", d);
                if got.is_ok() {
                    prop_assert_eq!(&cur, &out, "delta {:?}", d);
                }
            }
        }
    }
}

/// Runs every decoding entry point of an accepted list: the ids come
/// out strictly increasing, `len()` of them, the same from `decode`,
/// `iter` and a self-intersection.
fn decodes_cleanly(p: &PostingsList) -> bool {
    let ids = p.decode();
    ids.len() == p.len()
        && ids.windows(2).all(|w| w[0] < w[1])
        && p.iter().eq(ids.iter().copied())
        && p.intersect(p) == ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scratch decoders, handed a buffer that still holds an
    /// earlier output, produce exactly what the allocating ones do —
    /// on valid input and on garbage alike.
    #[test]
    fn decoding_into_a_dirty_buffer_equals_the_allocating_decoders(
        base in prop::collection::vec(any::<u8>(), 0..1024),
        target in prop::collection::vec(any::<u8>(), 0..1024),
        dirt in prop::collection::vec(any::<u8>(), 0..256),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let c = lz::compress(&target);
        let d = diff(&base, &target);
        for (input, delta) in [(&c, &d), (&garbage, &garbage)] {
            let mut out = dirt.clone();
            let got = lz::decompress_into(input, &mut out);
            match lz::decompress(input) {
                Ok(want) => {
                    prop_assert!(got.is_ok());
                    prop_assert_eq!(&out, &want);
                }
                Err(e) => prop_assert_eq!(got, Err(e)),
            }
            let mut out = dirt.clone();
            let got = apply_delta_into(&base, delta, &mut out);
            match apply_delta(&base, delta) {
                Ok(want) => {
                    prop_assert!(got.is_ok());
                    prop_assert_eq!(&out, &want);
                }
                Err(e) => prop_assert_eq!(got, Err(e)),
            }
        }
    }
}
