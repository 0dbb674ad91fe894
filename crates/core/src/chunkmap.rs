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

/// The `M_Ci` slice for one chunk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkMap {
    /// `(version, members)` pairs sorted by version; `members` is a
    /// bitmap over the chunk's local record ordinals.
    entries: Vec<(VersionId, Bitmap)>,
    /// Number of local records in the chunk (bitmap length).
    num_records: usize,
}

impl ChunkMap {
    /// Creates an empty map for a chunk with `num_records` records.
    pub fn new(num_records: usize) -> Self {
        Self {
            entries: Vec::new(),
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
        if let Some(&(last, _)) = self.entries.last() {
            assert!(v > last, "versions must be inserted in increasing order");
        }
        self.push_bitmap(v, Bitmap::from_indices(self.num_records, locals));
    }

    /// [`ChunkMap::push_version`] with the membership already built —
    /// the ingest path derives a version's bitmap from its parent's
    /// instead of collecting ordinals.
    ///
    /// # Panics
    /// Panics if `v` is not greater than the last inserted version or
    /// the bitmap does not cover exactly this chunk's records.
    pub fn push_bitmap(&mut self, v: VersionId, members: Bitmap) {
        if let Some(&(last, _)) = self.entries.last() {
            assert!(v > last, "versions must be inserted in increasing order");
        }
        assert_eq!(members.len(), self.num_records, "bitmap length mismatch");
        self.entries.push((v, members));
    }

    /// Drops the entries of version `v` and every later one.
    pub(crate) fn truncate_versions(&mut self, v: VersionId) {
        let keep = self.entries.partition_point(|&(ver, _)| ver < v);
        self.entries.truncate(keep);
    }

    /// Number of records the bitmaps cover.
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// Number of versions that touch this chunk.
    pub fn num_versions(&self) -> usize {
        self.entries.len()
    }

    /// The membership bitmap of `v`, if the version touches this chunk.
    pub fn members_of(&self, v: VersionId) -> Option<&Bitmap> {
        self.entries
            .binary_search_by_key(&v, |&(ver, _)| ver)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Iterates the chunk-local ordinals belonging to `v` in
    /// ascending order, if the version touches this chunk. This is
    /// the allocation-free path the query loops use; [`locals_of`]
    /// wraps it when a materialized vector is genuinely needed.
    ///
    /// [`locals_of`]: ChunkMap::locals_of
    pub fn iter_locals(&self, v: VersionId) -> Option<impl Iterator<Item = usize> + '_> {
        self.entries
            .binary_search_by_key(&v, |&(ver, _)| ver)
            .ok()
            .map(|i| self.entries[i].1.iter_ones())
    }

    /// The chunk-local ordinals belonging to `v`, collected into a
    /// vector (thin wrapper over [`ChunkMap::iter_locals`]).
    pub fn locals_of(&self, v: VersionId) -> Option<Vec<usize>> {
        self.iter_locals(v).map(Iterator::collect)
    }

    /// Iterates `(version, members)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VersionId, &Bitmap)> {
        self.entries.iter().map(|(v, b)| (*v, b))
    }

    /// Serializes: `varint(num_records) varint(n_entries)` then per
    /// entry `varint(version) varint(len) bitmap`.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_header(&mut out, self.num_records, self.entries.len());
        write_entries(&mut out, &self.entries);
        out
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
        Ok(Self {
            entries,
            num_records,
        })
    }
}

fn write_header(out: &mut Vec<u8>, num_records: usize, n_entries: usize) {
    varint::write_u64(out, num_records as u64);
    varint::write_u64(out, n_entries as u64);
}

/// Appends the serialized form of `entries` — the map format's entry
/// region is these bytes in push order, so it only ever grows.
fn write_entries(out: &mut Vec<u8>, entries: &[(VersionId, Bitmap)]) {
    for (v, bitmap) in entries {
        varint::write_u32(out, v.as_u32());
        let bytes = bitmap.serialize();
        varint::write_u64(out, bytes.len() as u64);
        out.extend_from_slice(&bytes);
    }
}

/// Serializes `entries` as they would appear in a map's entry region.
pub(crate) fn encode_entries(entries: &[(VersionId, Bitmap)]) -> Vec<u8> {
    let mut out = Vec::new();
    write_entries(&mut out, entries);
    out
}

/// The writer's resident copy of a chunk map: the decoded map (the
/// ingest path derives each new version's bitmaps from its parent's)
/// beside the serialized bytes of its entry region. A flush rewrites a
/// dirty map as header + these bytes + the new entries' bytes, instead
/// of re-encoding every historical bitmap. Readers never see this type:
/// a cached [`DecodedChunk`](crate::cache::DecodedChunk) carries the
/// plain [`ChunkMap`] only.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResidentMap {
    map: ChunkMap,
    /// Serialized entries of `map`, or `None` until first needed: a map
    /// adopted from the recovery scan is encoded by its first rewrite,
    /// not by every reopen.
    entry_bytes: Option<Vec<u8>>,
}

impl ResidentMap {
    /// An empty map for a chunk with `num_records` records.
    pub(crate) fn new(num_records: usize) -> Self {
        Self {
            map: ChunkMap::new(num_records),
            entry_bytes: Some(Vec::new()),
        }
    }

    /// Adopts a map decoded from the backend.
    pub(crate) fn adopt(map: ChunkMap) -> Self {
        Self {
            map,
            entry_bytes: None,
        }
    }

    /// The decoded map.
    pub(crate) fn map(&self) -> &ChunkMap {
        &self.map
    }

    /// The bytes [`ChunkMap::serialize`] would produce once `n_new`
    /// more entries, serialized as `tail` ([`encode_entries`]), are
    /// appended. The map itself is unchanged: the caller ships these
    /// bytes and calls [`ResidentMap::append`] only when they are
    /// durable.
    pub(crate) fn serialize_with(&mut self, n_new: usize, tail: &[u8]) -> Vec<u8> {
        let map = &self.map;
        let resident = self
            .entry_bytes
            .get_or_insert_with(|| encode_entries(&map.entries));
        let mut out = Vec::with_capacity(12 + resident.len() + tail.len());
        write_header(&mut out, map.num_records, map.entries.len() + n_new);
        out.extend_from_slice(resident);
        out.extend_from_slice(tail);
        out
    }

    /// Appends `new` entries (ascending versions, all past the last
    /// resident one) whose serialized form is `tail`.
    pub(crate) fn append(&mut self, new: Vec<(VersionId, Bitmap)>, tail: &[u8]) {
        for (v, members) in new {
            self.map.push_bitmap(v, members);
        }
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
            assert_eq!(grown.map(), &reference);
            assert_eq!(grown.serialize_with(0, &[]), reference.serialize());
        }
        assert_eq!(adopted.unwrap().map(), &reference);
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
