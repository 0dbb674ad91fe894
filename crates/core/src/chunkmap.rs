//! Chunk maps: the per-chunk slice of the 3-D mapping.
//!
//! The full mapping M |K|×|V|×|C| (paper Fig. 3a) records which record
//! is stored in which chunk and belongs to which versions. RStore
//! shards it by chunk: each chunk `Ci` carries `M_Ci`, mapping every
//! version that touches the chunk to the set of chunk-local records
//! belonging to it. "This allows us to extract the records that belong
//! to any specific version after the chunk has been retrieved" (§2.4).
//!
//! The per-version sets are stored as WAH-compressed bitmaps over the
//! chunk's local record ordinals ("The adjacency list in each chunk
//! map file is then converted to a bitmap, compressed and stored in
//! the KVS", §3.1).

use crate::error::CoreError;
use crate::model::VersionId;
use rstore_compress::{varint, Bitmap};
use std::sync::Arc;

/// One `(version, members)` entry; `members` is a bitmap over the
/// chunk's local record ordinals.
type Entry = (VersionId, Bitmap);

/// The `M_Ci` slice for one chunk.
///
/// The entries live in immutable, `Arc`-shared **segments** — one per
/// [`ChunkMap::deserialize`], per generation that appended to the map,
/// per [`ChunkMap::push_version`] — so a `ChunkMap` is a cheap handle:
/// cloning it copies a pointer per segment, and a clone that grows adds
/// a segment without touching the shared ones. That is what lets the
/// writer publish every chunk map with every generation — the
/// published [`StoreSnapshot`](crate::store::StoreSnapshot), the
/// writer's next copy and the decoded-chunk cache share all history,
/// and a flush costs its new entries only.
#[derive(Debug, Clone, Default)]
pub struct ChunkMap {
    /// `(first version, entries)` per segment: segments ascend, never
    /// empty, and so do the versions inside one. The first version
    /// sits beside the pointer so a lookup picks its segment without
    /// leaving this vector.
    segments: Vec<(VersionId, Arc<[Entry]>)>,
    /// Number of local records in the chunk (bitmap length).
    num_records: usize,
}

/// Maps are equal when they hold the same entries over the same record
/// count, however the entries are cut into segments.
impl PartialEq for ChunkMap {
    fn eq(&self, other: &Self) -> bool {
        self.num_records == other.num_records && self.iter().eq(other.iter())
    }
}

impl Eq for ChunkMap {}

impl ChunkMap {
    /// Creates an empty map for a chunk with `num_records` records.
    pub fn new(num_records: usize) -> Self {
        Self {
            segments: Vec::new(),
            num_records,
        }
    }

    /// Records that the chunk-local records `locals` belong to
    /// version `v`. Must be called with strictly increasing versions.
    ///
    /// # Panics
    /// Panics if `v` is not greater than the last inserted version or
    /// a local ordinal is out of range.
    pub fn push_version(&mut self, v: VersionId, locals: impl IntoIterator<Item = usize>) {
        self.push_bitmap(v, Bitmap::from_indices(self.num_records, locals));
    }

    /// [`ChunkMap::push_version`] with the membership already built.
    ///
    /// # Panics
    /// Panics if `v` is not greater than the last inserted version or
    /// the bitmap does not cover exactly this chunk's records.
    pub fn push_bitmap(&mut self, v: VersionId, members: Bitmap) {
        self.push_segment(vec![(v, members)]);
    }

    /// Appends `entries` as one segment — how the ingest path adds a
    /// generation's entries, each bitmap derived from the version's
    /// parent's instead of collected from ordinals.
    ///
    /// # Panics
    /// Panics unless the versions ascend strictly from past the last
    /// inserted one and every bitmap covers exactly this chunk's
    /// records.
    pub(crate) fn push_segment(&mut self, entries: Vec<Entry>) {
        let Some(&(first, _)) = entries.first() else {
            return;
        };
        let last = self.segments.last().map(|(_, s)| s[s.len() - 1].0);
        assert!(
            last.is_none_or(|last| first > last) && entries.windows(2).all(|w| w[0].0 < w[1].0),
            "versions must be inserted in increasing order"
        );
        assert!(
            entries.iter().all(|(_, members)| members.len() == self.num_records),
            "bitmap length mismatch"
        );
        self.segments.push((first, entries.into()));
    }

    /// Drops the entries of version `v` and every later one.
    pub(crate) fn truncate_versions(&mut self, v: VersionId) {
        while let Some((_, last)) = self.segments.pop() {
            let keep = last.partition_point(|&(ver, _)| ver < v);
            if keep > 0 {
                // A cut inside a segment re-cuts it (a restart's rare
                // leftover; whole segments just drop).
                let kept = if keep < last.len() { last[..keep].into() } else { last };
                self.segments.push((kept[0].0, kept));
                break;
            }
        }
    }

    /// Number of records the bitmaps cover.
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// Number of versions that touch this chunk.
    pub fn num_versions(&self) -> usize {
        self.segments.iter().map(|(_, s)| s.len()).sum()
    }

    /// Bytes this map keeps resident: one uncompressed bitmap over the
    /// chunk's records per version (the `resident_map_bytes` gauge).
    pub fn resident_bytes(&self) -> usize {
        let per_entry = std::mem::size_of::<Entry>() + self.num_records.div_ceil(64) * 8;
        self.num_versions() * per_entry
    }

    /// The membership bitmap of `v`, if the version touches this chunk.
    pub fn members_of(&self, v: VersionId) -> Option<&Bitmap> {
        // The one segment that can hold `v`: the last to start at or
        // before it.
        let at = self.segments.partition_point(|&(first, _)| first <= v).checked_sub(1)?;
        let segment = &self.segments[at].1;
        segment
            .binary_search_by_key(&v, |&(ver, _)| ver)
            .ok()
            .map(|i| &segment[i].1)
    }

    /// Iterates the chunk-local ordinals belonging to `v` in
    /// ascending order, if the version touches this chunk. This is
    /// the allocation-free path the query loops use; [`locals_of`]
    /// wraps it when a materialized vector is genuinely needed.
    ///
    /// [`locals_of`]: ChunkMap::locals_of
    pub fn iter_locals(&self, v: VersionId) -> Option<impl Iterator<Item = usize> + '_> {
        self.members_of(v).map(Bitmap::iter_ones)
    }

    /// The chunk-local ordinals belonging to `v`, collected into a
    /// vector (thin wrapper over [`ChunkMap::iter_locals`]).
    pub fn locals_of(&self, v: VersionId) -> Option<Vec<usize>> {
        self.iter_locals(v).map(Iterator::collect)
    }

    /// Iterates `(version, members)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VersionId, &Bitmap)> {
        self.segments.iter().flat_map(|(_, s)| s.iter()).map(|(v, b)| (*v, b))
    }

    /// Serializes: `varint(num_records) varint(n_entries)` then per
    /// entry `varint(version) varint(len) bitmap`.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_header(&mut out, self.num_records, self.num_versions());
        self.write_entry_region(&mut out);
        out
    }

    /// Appends the serialized entries, segment after segment.
    fn write_entry_region(&self, out: &mut Vec<u8>) {
        for (_, segment) in &self.segments {
            write_entries(out, segment);
        }
    }

    /// Deserializes a buffer produced by [`ChunkMap::serialize`].
    pub fn deserialize(input: &[u8]) -> Result<Self, CoreError> {
        let mut r = varint::VarintReader::new(input);
        let num_records = r.read_u64()? as usize;
        let n_entries = r.read_u64()? as usize;
        if n_entries > input.len() {
            return Err(CoreError::Codec("entry count exceeds input".into()));
        }
        let mut entries = Vec::with_capacity(n_entries);
        let mut last: Option<VersionId> = None;
        for _ in 0..n_entries {
            let v = VersionId(r.read_u32()?);
            if last.is_some_and(|l| v <= l) {
                return Err(CoreError::Codec("versions out of order".into()));
            }
            last = Some(v);
            let len = r.read_u64()? as usize;
            let bitmap = Bitmap::deserialize(r.read_bytes(len)?)?;
            if bitmap.len() != num_records {
                return Err(CoreError::Codec(format!(
                    "bitmap length {} != record count {num_records}",
                    bitmap.len()
                )));
            }
            entries.push((v, bitmap));
        }
        if !r.is_empty() {
            return Err(CoreError::Codec("trailing bytes in chunk map".into()));
        }
        let mut map = Self::new(num_records);
        if let Some(&(first, _)) = entries.first() {
            map.segments.push((first, entries.into()));
        }
        Ok(map)
    }
}

fn write_header(out: &mut Vec<u8>, num_records: usize, n_entries: usize) {
    varint::write_u64(out, num_records as u64);
    varint::write_u64(out, n_entries as u64);
}

/// Appends the serialized form of `entries` — the map format's entry
/// region is these bytes in push order, so it only ever grows.
fn write_entries(out: &mut Vec<u8>, entries: &[Entry]) {
    for (v, bitmap) in entries {
        varint::write_u32(out, v.as_u32());
        let bytes = bitmap.serialize();
        varint::write_u64(out, bytes.len() as u64);
        out.extend_from_slice(&bytes);
    }
}

/// Serializes `entries` as they would appear in a map's entry region.
pub(crate) fn encode_entries(entries: &[Entry]) -> Vec<u8> {
    let mut out = Vec::new();
    write_entries(&mut out, entries);
    out
}

/// The writer's handle on a chunk map: the decoded map — one `Arc`
/// shared with the published [`StoreSnapshot`](crate::store::StoreSnapshot),
/// which is what every read extracts with — beside the serialized bytes
/// of its entry region. A flush rewrites a dirty map as header + these
/// bytes + the new entries' bytes instead of re-encoding every
/// historical bitmap, and grows the decoded map copy-on-write: readers
/// pinned to an older generation keep the map they planned with.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResidentMap {
    map: Arc<ChunkMap>,
    /// Serialized entries of `map`, or `None` until first needed: a map
    /// adopted at reopen is encoded by its first rewrite, not by every
    /// reopen.
    entry_bytes: Option<Vec<u8>>,
}

impl ResidentMap {
    /// An empty map for a chunk with `num_records` records.
    pub(crate) fn new(num_records: usize) -> Self {
        Self {
            map: Arc::new(ChunkMap::new(num_records)),
            entry_bytes: Some(Vec::new()),
        }
    }

    /// Adopts a map decoded from the backend.
    pub(crate) fn adopt(map: ChunkMap) -> Self {
        Self {
            map: Arc::new(map),
            entry_bytes: None,
        }
    }

    /// The decoded map.
    pub(crate) fn map(&self) -> &Arc<ChunkMap> {
        &self.map
    }

    /// The bytes [`ChunkMap::serialize`] would produce once `n_new`
    /// more entries, serialized as `tail` ([`encode_entries`]), are
    /// appended. The map itself is unchanged: the caller ships these
    /// bytes and calls [`ResidentMap::append`] only when they are
    /// durable.
    pub(crate) fn serialize_with(&mut self, n_new: usize, tail: &[u8]) -> Vec<u8> {
        let map = &self.map;
        let resident = self.entry_bytes.get_or_insert_with(|| {
            let mut bytes = Vec::new();
            map.write_entry_region(&mut bytes);
            bytes
        });
        let mut out = Vec::with_capacity(12 + resident.len() + tail.len());
        write_header(&mut out, map.num_records, map.num_versions() + n_new);
        out.extend_from_slice(resident);
        out.extend_from_slice(tail);
        out
    }

    /// Appends `new` entries (ascending versions, all past the last
    /// resident one) whose serialized form is `tail`. A map the
    /// published snapshot still shares is not touched: the entries land
    /// in a new segment of a copy that shares every older one.
    pub(crate) fn append(&mut self, new: Vec<Entry>, tail: &[u8]) {
        if new.is_empty() {
            return;
        }
        Arc::make_mut(&mut self.map).push_segment(new);
        // Bytes not materialized yet stay that way: the next
        // `serialize_with` encodes the whole region once.
        if let Some(resident) = &mut self.entry_bytes {
            resident.extend_from_slice(tail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut m = ChunkMap::new(8);
        m.push_version(VersionId(0), [0, 1, 2]);
        m.push_version(VersionId(2), [1, 2, 3]);
        m.push_version(VersionId(5), [7]);
        assert_eq!(m.num_versions(), 3);
        assert_eq!(m.locals_of(VersionId(0)).unwrap(), vec![0, 1, 2]);
        assert_eq!(m.locals_of(VersionId(2)).unwrap(), vec![1, 2, 3]);
        assert_eq!(m.locals_of(VersionId(5)).unwrap(), vec![7]);
        assert_eq!(m.locals_of(VersionId(1)), None);
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn out_of_order_push_panics() {
        let mut m = ChunkMap::new(4);
        m.push_version(VersionId(3), [0]);
        m.push_version(VersionId(2), [1]);
    }

    #[test]
    fn iter_locals_matches_locals_of() {
        let mut m = ChunkMap::new(64);
        m.push_version(VersionId(1), (0..64).step_by(3));
        m.push_version(VersionId(4), [0, 63]);
        for v in [0u32, 1, 2, 4, 9] {
            let iterated: Option<Vec<usize>> =
                m.iter_locals(VersionId(v)).map(Iterator::collect);
            assert_eq!(iterated, m.locals_of(VersionId(v)));
        }
        // Ascending order without allocation.
        let ones: Vec<usize> = m.iter_locals(VersionId(1)).unwrap().collect();
        assert!(ones.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn serialize_roundtrip() {
        let mut m = ChunkMap::new(100);
        for v in (0..50).step_by(3) {
            m.push_version(VersionId(v), (0..100).filter(|i| (i + v as usize).is_multiple_of(7)));
        }
        let bytes = m.serialize();
        let d = ChunkMap::deserialize(&bytes).unwrap();
        assert_eq!(d, m);
    }

    #[test]
    fn empty_map_roundtrip() {
        let m = ChunkMap::new(0);
        assert_eq!(ChunkMap::deserialize(&m.serialize()).unwrap(), m);
    }

    #[test]
    fn dense_membership_compresses() {
        // A chunk whose records all belong to 200 consecutive versions
        // (the common case for well-partitioned chunks).
        let mut m = ChunkMap::new(1000);
        for v in 0..200 {
            m.push_version(VersionId(v), 0..1000);
        }
        let bytes = m.serialize();
        // Raw representation would be 200 * 1000 bits = 25 KB.
        assert!(
            bytes.len() < 4096,
            "dense chunk map took {} bytes",
            bytes.len()
        );
        assert_eq!(ChunkMap::deserialize(&bytes).unwrap(), m);
    }

    #[test]
    fn deserialize_rejects_corruption() {
        let mut m = ChunkMap::new(10);
        m.push_version(VersionId(1), [1, 2]);
        let bytes = m.serialize();
        assert!(ChunkMap::deserialize(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(7);
        assert!(ChunkMap::deserialize(&extra).is_err());
    }

    #[test]
    fn resident_map_appends_to_the_same_bytes_as_a_full_encode() {
        let entry = |v: u32, locals: &[usize]| {
            (VersionId(v), Bitmap::from_indices(70, locals.iter().copied()))
        };
        // One map grown flush by flush, one adopted mid-way (reopen).
        let mut grown = ResidentMap::new(70);
        let mut reference = ChunkMap::new(70);
        let mut adopted: Option<ResidentMap> = None;
        let batches: Vec<Vec<(VersionId, Bitmap)>> = vec![
            vec![entry(0, &[0, 1, 69]), entry(1, &[1])],
            vec![],
            vec![entry(4, &[2, 3, 4, 5, 64])],
            vec![entry(7, &(0..70).collect::<Vec<_>>()), entry(9, &[33])],
        ];
        for (round, batch) in batches.into_iter().enumerate() {
            if round == 2 {
                adopted = Some(ResidentMap::adopt(reference.clone()));
            }
            let tail = encode_entries(&batch);
            for (v, b) in &batch {
                reference.push_version(*v, b.iter_ones());
            }
            let staged = grown.serialize_with(batch.len(), &tail);
            assert_eq!(staged, reference.serialize(), "round {round}");
            // Staging leaves the map untouched until `append`.
            assert_eq!(grown.map().num_versions() + batch.len(), reference.num_versions());
            if let Some(a) = &mut adopted {
                assert_eq!(a.serialize_with(batch.len(), &tail), staged);
                a.append(batch.clone(), &tail);
            }
            grown.append(batch, &tail);
            assert_eq!(**grown.map(), reference);
            assert_eq!(grown.serialize_with(0, &[]), reference.serialize());
        }
        assert_eq!(**adopted.unwrap().map(), reference);
    }

    #[test]
    fn a_shared_map_grows_copy_on_write_and_shares_its_history() {
        let entry = |v: u32, locals: &[usize]| {
            (VersionId(v), Bitmap::from_indices(9, locals.iter().copied()))
        };
        let mut writer = ResidentMap::new(9);
        let tail = encode_entries(&[entry(1, &[0, 8]), entry(3, &[4])]);
        writer.append(vec![entry(1, &[0, 8]), entry(3, &[4])], &tail);
        // The snapshot's share of generation g.
        let published = Arc::clone(writer.map());
        let tail = encode_entries(&[entry(6, &[2])]);
        writer.append(vec![entry(6, &[2])], &tail);
        // The published map is untouched; the writer's copy holds its
        // entries by pointer, not by value.
        assert_eq!(published.num_versions(), 2);
        assert_eq!(published.members_of(VersionId(6)), None);
        assert!(Arc::ptr_eq(&published.segments[0].1, &writer.map().segments[0].1));
        assert_eq!(writer.map().segments.len(), 2);
        // Lookups cross segments; misses fall between and around them.
        let map = writer.map();
        assert_eq!(map.locals_of(VersionId(1)).unwrap(), vec![0, 8]);
        assert_eq!(map.locals_of(VersionId(3)).unwrap(), vec![4]);
        assert_eq!(map.locals_of(VersionId(6)).unwrap(), vec![2]);
        for absent in [0u32, 2, 4, 5, 7] {
            assert_eq!(map.members_of(VersionId(absent)), None, "V{absent}");
        }
        // Equality and the codec see entries, not segment cuts.
        let whole = ChunkMap::deserialize(&map.serialize()).unwrap();
        assert_eq!(whole.segments.len(), 1);
        assert_eq!(&whole, &**map);
        // Truncation cuts inside a segment, between segments and not
        // at all — and never reaches the map it was cloned from.
        for (cut_at, kept) in [(3u32, vec![1u32]), (6, vec![1, 3]), (4, vec![1, 3]), (9, vec![1, 3, 6])] {
            let mut cut = ChunkMap::clone(map);
            cut.truncate_versions(VersionId(cut_at));
            assert_eq!(cut.iter().map(|(v, _)| v.as_u32()).collect::<Vec<_>>(), kept);
        }
        assert_eq!(map.num_versions(), 3);
    }

    #[test]
    fn iter_yields_sorted_versions() {
        let mut m = ChunkMap::new(4);
        m.push_version(VersionId(1), [0]);
        m.push_version(VersionId(9), [3]);
        let versions: Vec<u32> = m.iter().map(|(v, _)| v.as_u32()).collect();
        assert_eq!(versions, vec![1, 9]);
    }
}
