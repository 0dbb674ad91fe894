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
        varint::write_u64(&mut out, self.num_records as u64);
        varint::write_u64(&mut out, self.num_versions() as u64);
        for (_, segment) in &self.segments {
            write_entries(&mut out, segment);
        }
        out
    }

    /// The entries past the first `skip`, counted and serialized as
    /// [`encode_entries`] would — what a checkpoint carries for a map
    /// that grew past the `skip` entries its stored base map holds.
    pub(crate) fn encode_from(&self, skip: usize) -> (usize, Vec<u8>) {
        let mut out = Vec::new();
        let mut seen = 0;
        for (_, segment) in &self.segments {
            let from = skip.saturating_sub(seen).min(segment.len());
            write_entries(&mut out, &segment[from..]);
            seen += segment.len();
        }
        (seen.saturating_sub(skip), out)
    }

    /// Appends `n` entries serialized as `bytes` ([`encode_entries`]) as
    /// one segment — how a restart replays the entries a commit record
    /// logged for this chunk. Unlike [`ChunkMap::push_segment`] the
    /// input is backend bytes: anything but `n` well-formed entries
    /// ascending from past the last resident version is an error.
    pub(crate) fn push_encoded(&mut self, n: usize, bytes: &[u8]) -> Result<(), CoreError> {
        if n > bytes.len() {
            return Err(CoreError::Codec("entry count exceeds input".into()));
        }
        let mut r = varint::VarintReader::new(bytes);
        let last = self.segments.last().map(|(_, s)| s[s.len() - 1].0);
        let entries = read_entries(&mut r, n, self.num_records, last)?;
        if !r.is_empty() {
            return Err(CoreError::Codec("trailing bytes after chunk-map entries".into()));
        }
        if let Some(&(first, _)) = entries.first() {
            self.segments.push((first, entries.into()));
        }
        Ok(())
    }

    /// Deserializes a buffer produced by [`ChunkMap::serialize`].
    pub fn deserialize(input: &[u8]) -> Result<Self, CoreError> {
        let mut r = varint::VarintReader::new(input);
        let num_records = r.read_u64()? as usize;
        let n_entries = r.read_u64()? as usize;
        if n_entries > input.len() {
            return Err(CoreError::Codec("entry count exceeds input".into()));
        }
        let entries = read_entries(&mut r, n_entries, num_records, None)?;
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

/// Transposes chunk maps: per version below `versions`, the position
/// in `maps` and the members of every map that holds the version,
/// ascending by position. A map naming a version at or past
/// `versions` is [`CoreError::Codec`].
pub(crate) fn by_version<'a>(
    maps: impl IntoIterator<Item = &'a ChunkMap>,
    versions: usize,
) -> Result<Vec<Vec<(usize, &'a Bitmap)>>, CoreError> {
    let mut out = vec![Vec::new(); versions];
    for (at, map) in maps.into_iter().enumerate() {
        for (v, members) in map.iter() {
            let Some(list) = out.get_mut(v.index()) else {
                return Err(CoreError::Codec(format!("a chunk map names {v}, past the {versions} versions logged")));
            };
            list.push((at, members));
        }
    }
    Ok(out)
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

/// Serializes `entries` as they would appear in a map's entry region:
/// the bytes a commit record logs for an existing chunk.
pub(crate) fn encode_entries(entries: &[Entry]) -> Vec<u8> {
    let mut out = Vec::new();
    write_entries(&mut out, entries);
    out
}

/// Reads `n` entries as [`write_entries`] wrote them: versions strictly
/// ascending from past `last`, every bitmap over `num_records` records.
/// The caller has bounded `n` by its input's length.
fn read_entries(
    r: &mut varint::VarintReader<'_>,
    n: usize,
    num_records: usize,
    mut last: Option<VersionId>,
) -> Result<Vec<Entry>, CoreError> {
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
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
    Ok(entries)
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
    fn logged_entries_replay_to_the_same_map_as_live_appends() {
        let entry = |v: u32, locals: &[usize]| {
            (VersionId(v), Bitmap::from_indices(70, locals.iter().copied()))
        };
        // One map grown generation by generation (the live writer), one
        // rebuilt from its stored base plus the logged bytes (a restart).
        let batches: Vec<Vec<(VersionId, Bitmap)>> = vec![
            vec![entry(0, &[0, 1, 69]), entry(1, &[1])],
            vec![],
            vec![entry(4, &[2, 3, 4, 5, 64])],
            vec![entry(7, &(0..70).collect::<Vec<_>>()), entry(9, &[33])],
        ];
        let mut live = ChunkMap::new(70);
        live.push_segment(batches[0].clone());
        let base = live.serialize();
        let mut replayed = ChunkMap::deserialize(&base).unwrap();
        for batch in &batches[1..] {
            live.push_segment(batch.clone());
            replayed.push_encoded(batch.len(), &encode_entries(batch)).unwrap();
            assert_eq!(replayed, live);
            assert_eq!(replayed.serialize(), live.serialize());
        }
        // A checkpoint carries what grew past the base, however the
        // entries are cut into segments.
        let (n, bytes) = live.encode_from(2);
        assert_eq!(n, 3);
        let mut from_checkpoint = ChunkMap::deserialize(&base).unwrap();
        from_checkpoint.push_encoded(n, &bytes).unwrap();
        assert_eq!(from_checkpoint, live);
        assert_eq!(live.encode_from(3).0, 2, "a cut inside a segment");
        assert_eq!(live.encode_from(5), (0, Vec::new()));
        // Backend bytes are checked, not trusted.
        let stale = encode_entries(&[entry(9, &[1])]);
        assert!(replayed.push_encoded(1, &stale).is_err(), "version not past the last");
        let next = encode_entries(&[entry(12, &[1])]);
        assert!(replayed.push_encoded(2, &next).is_err(), "count past the input");
        assert!(replayed.push_encoded(1, &next[..next.len() - 1]).is_err());
        let wide = encode_entries(&[(VersionId(12), Bitmap::from_indices(71, [1]))]);
        assert!(replayed.push_encoded(1, &wide).is_err(), "bitmap over another record count");
        assert_eq!(replayed, live, "a rejected append leaves the map alone");
    }

    #[test]
    fn a_shared_map_grows_copy_on_write_and_shares_its_history() {
        let entry = |v: u32, locals: &[usize]| {
            (VersionId(v), Bitmap::from_indices(9, locals.iter().copied()))
        };
        let mut writer = Arc::new(ChunkMap::new(9));
        Arc::make_mut(&mut writer).push_segment(vec![entry(1, &[0, 8]), entry(3, &[4])]);
        // The snapshot's share of generation g.
        let published = Arc::clone(&writer);
        Arc::make_mut(&mut writer).push_segment(vec![entry(6, &[2])]);
        // The published map is untouched; the writer's copy holds its
        // entries by pointer, not by value.
        assert_eq!(published.num_versions(), 2);
        assert_eq!(published.members_of(VersionId(6)), None);
        assert!(Arc::ptr_eq(&published.segments[0].1, &writer.segments[0].1));
        assert_eq!(writer.segments.len(), 2);
        // Lookups cross segments; misses fall between and around them.
        let map = &writer;
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
