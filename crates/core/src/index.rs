//! The two lossy projections used for query planning.
//!
//! "In order to be able to decide what chunks to retrieve for a given
//! query, we maintain two lossy projections of the matrix: (1) a
//! mapping between primary keys and chunks ... and (2) a mapping
//! between versions and chunks" (§2.4, Fig. 3b). Both live in
//! application-server memory (the paper sizes them at tens of MB for
//! multi-GB datasets). A generation persists only its *edits* to them
//! ([`ProjectionDelta`], inside the generation's commit record); the
//! whole-structure form ([`Projections::serialize`]) is what the index
//! oracles compare.
//!
//! Since the snapshot-isolation refactor the serving copy of these
//! projections is frozen inside each published
//! [`StoreSnapshot`](crate::store::StoreSnapshot) generation: the
//! writer copies-on-write before extending them, readers plan
//! against the `Arc` their pinned snapshot carries, and so a flush
//! adding versions mid-query can never make a planned span
//! inconsistent with the metadata it was derived from.

use crate::error::CoreError;
use crate::model::{ChunkId, PrimaryKey, VersionId};
use crate::plan::QuerySpec;
use rstore_compress::{varint, PostingsList};
use std::collections::BTreeMap;

/// Version→chunks and key→chunks projections.
#[derive(Debug, Clone, Default)]
pub struct Projections {
    /// `version_chunks[v]` = sorted chunk ids containing records of v.
    version_chunks: Vec<Vec<u32>>,
    /// Key → sorted chunk ids containing records with that key.
    /// A `BTreeMap` so range retrieval can walk a key range.
    key_chunks: BTreeMap<PrimaryKey, Vec<u32>>,
}

/// One generation's edits to the projections — what its commit record
/// persists instead of the projections themselves, and the only way
/// the writer grows them: chunk ids to add to version lists and
/// `(key, chunk)` postings to add. (Removal is not an edit of this
/// kind: compaction retires whole chunks, [`Projections::retain_chunks`].)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProjectionDelta {
    /// Per touched version, ascending: the sorted chunk ids to add to
    /// its list. A version with nothing to add still makes the version
    /// table cover it.
    pub version_chunks: Vec<(VersionId, Vec<u32>)>,
    /// `(pk, chunk)` postings to add, sorted and distinct.
    pub key_chunks: Vec<(PrimaryKey, u32)>,
}

/// Appends `ids` (strictly ascending) as a count and delta varints.
pub(crate) fn write_ascending(out: &mut Vec<u8>, ids: &[u32]) {
    varint::write_u64(out, ids.len() as u64);
    let mut prev = 0;
    for &id in ids {
        varint::write_u32(out, id - prev);
        prev = id;
    }
}

/// Reads a list [`write_ascending`] wrote; an id past `u32` or one
/// that does not ascend is an error (the lists are kept sorted and
/// distinct everywhere they land).
pub(crate) fn read_ascending(r: &mut varint::VarintReader<'_>) -> Result<Vec<u32>, CoreError> {
    let n = bounded_count(r)?;
    let mut ids = Vec::with_capacity(n);
    let mut prev = 0u64;
    for i in 0..n {
        prev = ascend(i, prev, r.read_u64()?, u32::MAX.into())?;
        ids.push(prev as u32);
    }
    Ok(ids)
}

/// The `i`-th id of a strictly ascending, delta-coded sequence of ids
/// up to `max`, given the one before it.
fn ascend(i: usize, prev: u64, delta: u64, max: u64) -> Result<u64, CoreError> {
    match prev.checked_add(delta) {
        Some(id) if id <= max && (i == 0 || delta > 0) => Ok(id),
        _ => Err(CoreError::Codec("ids do not ascend".into())),
    }
}

/// Reads an element count, bounded by the bytes left to hold that many
/// elements (each takes at least one) — before anything is allocated
/// for it.
pub(crate) fn bounded_count(r: &mut varint::VarintReader<'_>) -> Result<usize, CoreError> {
    let n = r.read_u64()?;
    if n > r.remaining().len() as u64 {
        return Err(CoreError::Codec("count exceeds input".into()));
    }
    Ok(n as usize)
}

impl ProjectionDelta {
    /// Appends the delta: the version lists (version ids as deltas,
    /// each list a count and delta varints), then the postings as runs
    /// of one key (key ids as deltas) with the run's chunks.
    pub fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.version_chunks.len() as u64);
        let mut prev = 0;
        for (v, chunks) in &self.version_chunks {
            varint::write_u32(out, v.as_u32() - prev);
            prev = v.as_u32();
            write_ascending(out, chunks);
        }
        let runs: Vec<&[(PrimaryKey, u32)]> =
            self.key_chunks.chunk_by(|a, b| a.0 == b.0).collect();
        varint::write_u64(out, runs.len() as u64);
        let mut prev = 0;
        for run in runs {
            varint::write_u64(out, run[0].0 - prev);
            prev = run[0].0;
            let chunks: Vec<u32> = run.iter().map(|&(_, c)| c).collect();
            write_ascending(out, &chunks);
        }
    }

    /// Reads a delta [`ProjectionDelta::encode`] wrote.
    pub fn decode(r: &mut varint::VarintReader<'_>) -> Result<Self, CoreError> {
        let n = bounded_count(r)?;
        let mut version_chunks = Vec::with_capacity(n);
        let mut prev = 0u64;
        for i in 0..n {
            prev = ascend(i, prev, r.read_u64()?, u32::MAX.into())?;
            version_chunks.push((VersionId(prev as u32), read_ascending(r)?));
        }
        let n = bounded_count(r)?;
        let mut key_chunks = Vec::with_capacity(n);
        let mut prev = 0u64;
        for i in 0..n {
            prev = ascend(i, prev, r.read_u64()?, u64::MAX)?;
            key_chunks.extend(read_ascending(r)?.into_iter().map(|c| (prev, c)));
        }
        Ok(Self {
            version_chunks,
            key_chunks,
        })
    }
}

impl Projections {
    /// Creates empty projections.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the version table covers `v`.
    pub fn ensure_version(&mut self, v: VersionId) {
        if self.version_chunks.len() <= v.index() {
            self.version_chunks.resize(v.index() + 1, Vec::new());
        }
    }

    /// Adds `chunk` to version `v`'s list (idempotent; keeps order).
    pub fn add_version_chunk(&mut self, v: VersionId, chunk: ChunkId) {
        self.ensure_version(v);
        let list = &mut self.version_chunks[v.index()];
        if let Err(pos) = list.binary_search(&chunk.0) {
            list.insert(pos, chunk.0);
        }
    }

    /// Adds `chunk` to `pk`'s list (idempotent; keeps order).
    pub fn add_key_chunk(&mut self, pk: PrimaryKey, chunk: ChunkId) {
        let list = self.key_chunks.entry(pk).or_default();
        if let Err(pos) = list.binary_search(&chunk.0) {
            list.insert(pos, chunk.0);
        }
    }

    /// Chunks containing records of version `v`.
    pub fn chunks_of_version(&self, v: VersionId) -> &[u32] {
        self.version_chunks
            .get(v.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Chunks containing records with primary key `pk`.
    pub fn chunks_of_key(&self, pk: PrimaryKey) -> &[u32] {
        self.key_chunks.get(&pk).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Index-ANDing for record retrieval (§2.4): chunks in both the
    /// key's and the version's lists.
    pub fn chunks_of_key_and_version(&self, pk: PrimaryKey, v: VersionId) -> Vec<u32> {
        intersect_sorted(self.chunks_of_key(pk), self.chunks_of_version(v))
    }

    /// Candidate chunks for a range query: the union of key lists for
    /// keys in `[lo, hi]`, intersected with the version's list.
    pub fn chunks_of_range(&self, lo: PrimaryKey, hi: PrimaryKey, v: VersionId) -> Vec<u32> {
        let vlist = self.chunks_of_version(v);
        let mut union: Vec<u32> = Vec::new();
        for (_, list) in self.key_chunks.range(lo..=hi) {
            union.extend(list.iter().copied());
        }
        union.sort_unstable();
        union.dedup();
        intersect_sorted(&union, vlist)
    }

    /// The single planner consultation: resolves a query's span —
    /// the sorted chunk ids it must touch — in one call. The
    /// projections do not know the store's chunk universe, so
    /// [`QuerySpec::Scan`] is resolved through `scan_chunks`, which
    /// the store supplies as its *live* id set (compaction-retired
    /// ids have no backend keys and must never be planned). The
    /// closure is only invoked for a scan.
    pub fn chunks_for(
        &self,
        spec: &QuerySpec,
        scan_chunks: impl FnOnce() -> Vec<u32>,
    ) -> Vec<u32> {
        match *spec {
            QuerySpec::Version(v) => self.chunks_of_version(v).to_vec(),
            QuerySpec::Record { pk, v } => self.chunks_of_key_and_version(pk, v),
            QuerySpec::Range { lo, hi, v } => self.chunks_of_range(lo, hi, v),
            QuerySpec::Evolution { pk } => self.chunks_of_key(pk).to_vec(),
            QuerySpec::Scan => scan_chunks(),
        }
    }

    /// Drops every chunk id for which `keep` returns `false` from
    /// both projections — the compaction swap's bulk edit: retired
    /// chunks vanish from every version and key list in one pass, and
    /// keys left with no chunks are removed entirely. Order within
    /// each list is preserved, so subsequent
    /// [`Projections::add_version_chunk`]/[`Projections::add_key_chunk`]
    /// insertions keep the sorted invariant.
    pub fn retain_chunks(&mut self, keep: impl Fn(u32) -> bool) {
        for list in &mut self.version_chunks {
            list.retain(|&c| keep(c));
        }
        self.key_chunks.retain(|_, list| {
            list.retain(|&c| keep(c));
            !list.is_empty()
        });
    }

    /// Applies one generation's edits.
    pub fn apply(&mut self, delta: &ProjectionDelta) {
        for (v, chunks) in &delta.version_chunks {
            self.ensure_version(*v);
            let list = &mut self.version_chunks[v.index()];
            if list.is_empty() {
                // A version's first generation: the list as a whole.
                list.clone_from(chunks);
            } else {
                for &c in chunks {
                    if let Err(pos) = list.binary_search(&c) {
                        list.insert(pos, c);
                    }
                }
            }
        }
        for run in delta.key_chunks.chunk_by(|a, b| a.0 == b.0) {
            let list = self.key_chunks.entry(run[0].0).or_default();
            for &(_, c) in run {
                if let Err(pos) = list.binary_search(&c) {
                    list.insert(pos, c);
                }
            }
        }
    }

    /// The whole projections as the one delta that builds them from
    /// nothing — a checkpoint's form of them.
    pub fn to_delta(&self) -> ProjectionDelta {
        ProjectionDelta {
            version_chunks: (0u32..)
                .map(VersionId)
                .zip(self.version_chunks.iter().cloned())
                .collect(),
            key_chunks: self
                .key_chunks
                .iter()
                .flat_map(|(&pk, list)| list.iter().map(move |&c| (pk, c)))
                .collect(),
        }
    }

    /// Number of versions tracked.
    pub fn num_versions(&self) -> usize {
        self.version_chunks.len()
    }

    /// Number of distinct primary keys tracked.
    pub fn num_keys(&self) -> usize {
        self.key_chunks.len()
    }

    /// The *span* of a version: how many chunks a full retrieval
    /// touches — the paper's central cost metric (§2.5).
    pub fn version_span(&self, v: VersionId) -> usize {
        self.chunks_of_version(v).len()
    }

    /// Total version span: Σ_v span(v), the Fig. 8 metric.
    pub fn total_version_span(&self) -> usize {
        self.version_chunks.iter().map(Vec::len).sum()
    }

    /// The *key span* of a primary key (Fig. 12 metric).
    pub fn key_span(&self, pk: PrimaryKey) -> usize {
        self.chunks_of_key(pk).len()
    }

    /// Serialized size of both projections (compressed postings),
    /// reproducing the paper's §2.4 index-size accounting.
    pub fn serialized_bytes(&self) -> (usize, usize) {
        let version_bytes: usize = self
            .version_chunks
            .iter()
            .map(|l| postings_of(l).serialize().len())
            .sum();
        let key_bytes: usize = self
            .key_chunks
            .values()
            .map(|l| postings_of(l).serialize().len() + 8)
            .sum();
        (version_bytes, key_bytes)
    }

    /// Persists both projections into one buffer (stored in the
    /// backend's index table so application servers can warm-start).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, self.version_chunks.len() as u64);
        for list in &self.version_chunks {
            let p = postings_of(list).serialize();
            varint::write_u64(&mut out, p.len() as u64);
            out.extend_from_slice(&p);
        }
        varint::write_u64(&mut out, self.key_chunks.len() as u64);
        for (pk, list) in &self.key_chunks {
            varint::write_u64(&mut out, *pk);
            let p = postings_of(list).serialize();
            varint::write_u64(&mut out, p.len() as u64);
            out.extend_from_slice(&p);
        }
        out
    }

    /// Restores projections from [`Projections::serialize`] output.
    pub fn deserialize(input: &[u8]) -> Result<Self, CoreError> {
        let mut r = varint::VarintReader::new(input);
        let n_versions = r.read_u64()? as usize;
        if n_versions > input.len() {
            return Err(CoreError::Codec("version count exceeds input".into()));
        }
        let mut version_chunks = Vec::with_capacity(n_versions);
        for _ in 0..n_versions {
            let len = r.read_u64()? as usize;
            let p = PostingsList::deserialize(r.read_bytes(len)?)
                .map_err(|e| CoreError::Codec(e.to_string()))?;
            version_chunks.push(p.iter().map(|x| x as u32).collect());
        }
        let n_keys = r.read_u64()? as usize;
        if n_keys > input.len() {
            return Err(CoreError::Codec("key count exceeds input".into()));
        }
        let mut key_chunks = BTreeMap::new();
        for _ in 0..n_keys {
            let pk = r.read_u64()?;
            let len = r.read_u64()? as usize;
            let p = PostingsList::deserialize(r.read_bytes(len)?)
                .map_err(|e| CoreError::Codec(e.to_string()))?;
            key_chunks.insert(pk, p.iter().map(|x| x as u32).collect());
        }
        if !r.is_empty() {
            return Err(CoreError::Codec("trailing bytes in projections".into()));
        }
        Ok(Self {
            version_chunks,
            key_chunks,
        })
    }
}

fn postings_of(sorted: &[u32]) -> PostingsList {
    let mut p = PostingsList::new();
    for &x in sorted {
        p.push(u64::from(x));
    }
    p
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Projections {
        let mut p = Projections::new();
        p.add_version_chunk(VersionId(0), ChunkId(0));
        p.add_version_chunk(VersionId(0), ChunkId(1));
        p.add_version_chunk(VersionId(1), ChunkId(0));
        p.add_version_chunk(VersionId(1), ChunkId(2));
        p.add_key_chunk(10, ChunkId(0));
        p.add_key_chunk(10, ChunkId(2));
        p.add_key_chunk(20, ChunkId(1));
        p
    }

    #[test]
    fn lookups() {
        let p = sample();
        assert_eq!(p.chunks_of_version(VersionId(0)), &[0, 1]);
        assert_eq!(p.chunks_of_version(VersionId(9)), &[] as &[u32]);
        assert_eq!(p.chunks_of_key(10), &[0, 2]);
        assert_eq!(p.chunks_of_key(99), &[] as &[u32]);
    }

    #[test]
    fn idempotent_insertion() {
        let mut p = sample();
        p.add_version_chunk(VersionId(0), ChunkId(1));
        p.add_key_chunk(10, ChunkId(0));
        assert_eq!(p.chunks_of_version(VersionId(0)), &[0, 1]);
        assert_eq!(p.chunks_of_key(10), &[0, 2]);
    }

    #[test]
    fn index_anding() {
        let p = sample();
        // Key 10 ∈ {C0, C2}; V1 ∈ {C0, C2} → both.
        assert_eq!(p.chunks_of_key_and_version(10, VersionId(1)), vec![0, 2]);
        // Key 20 ∈ {C1}; V1 ∈ {C0, C2} → empty.
        assert!(p.chunks_of_key_and_version(20, VersionId(1)).is_empty());
    }

    #[test]
    fn range_chunks() {
        let p = sample();
        // Keys 10..=20 cover {C0,C2} ∪ {C1}; V0 has {C0,C1}.
        assert_eq!(p.chunks_of_range(10, 20, VersionId(0)), vec![0, 1]);
        assert!(p.chunks_of_range(30, 40, VersionId(0)).is_empty());
    }

    #[test]
    fn spans() {
        let p = sample();
        assert_eq!(p.version_span(VersionId(0)), 2);
        assert_eq!(p.total_version_span(), 4);
        assert_eq!(p.key_span(10), 2);
        assert_eq!(p.num_keys(), 2);
        assert!(p.num_versions() >= 2);
    }

    #[test]
    fn serialize_roundtrip() {
        let p = sample();
        let d = Projections::deserialize(&p.serialize()).unwrap();
        assert_eq!(d.chunks_of_version(VersionId(0)), p.chunks_of_version(VersionId(0)));
        assert_eq!(d.chunks_of_key(10), p.chunks_of_key(10));
        assert_eq!(d.total_version_span(), p.total_version_span());
    }

    #[test]
    fn serialized_bytes_reported() {
        let (v, k) = sample().serialized_bytes();
        assert!(v > 0 && k > 0);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(Projections::deserialize(&[9, 9, 9]).is_err());
        let bytes = sample().serialize();
        assert!(Projections::deserialize(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn retain_chunks_drops_everywhere() {
        let mut p = sample();
        // Retire chunk 0: gone from both versions and key 10; key 10
        // keeps chunk 2, key 20 (chunk 1 only) is untouched.
        p.retain_chunks(|c| c != 0);
        assert_eq!(p.chunks_of_version(VersionId(0)), &[1]);
        assert_eq!(p.chunks_of_version(VersionId(1)), &[2]);
        assert_eq!(p.chunks_of_key(10), &[2]);
        assert_eq!(p.chunks_of_key(20), &[1]);
        // Retiring a key's last chunk removes the key entry.
        p.retain_chunks(|c| c != 2);
        assert_eq!(p.chunks_of_key(10), &[] as &[u32]);
        assert_eq!(p.num_keys(), 1);
        // Re-adding after retention keeps the sorted invariant.
        p.add_version_chunk(VersionId(0), ChunkId(0));
        assert_eq!(p.chunks_of_version(VersionId(0)), &[0, 1]);
    }

    #[test]
    fn deltas_build_the_same_projections_as_direct_edits() {
        let whole = sample();
        // From nothing, in one delta and through the codec.
        let mut bytes = Vec::new();
        whole.to_delta().encode(&mut bytes);
        let mut r = varint::VarintReader::new(&bytes);
        let decoded = ProjectionDelta::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(decoded, whole.to_delta());
        let mut rebuilt = Projections::new();
        rebuilt.apply(&decoded);
        assert_eq!(rebuilt.serialize(), whole.serialize());
        // On top of existing lists: merges, repeats and a version with
        // nothing to add.
        let edit = ProjectionDelta {
            version_chunks: vec![(VersionId(1), vec![1, 2, 7]), (VersionId(3), vec![])],
            key_chunks: vec![(10, 1), (10, 2), (30, 7)],
        };
        rebuilt.apply(&edit);
        assert_eq!(rebuilt.chunks_of_version(VersionId(1)), &[0, 1, 2, 7]);
        assert_eq!(rebuilt.num_versions(), 4);
        assert_eq!(rebuilt.chunks_of_key(10), &[0, 1, 2]);
        assert_eq!(rebuilt.chunks_of_key(30), &[7]);
        // Cut, extended and absurd encodings are errors.
        let decode = |b: &[u8]| ProjectionDelta::decode(&mut varint::VarintReader::new(b));
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode(&[0xff, 0xff, 0xff, 0xff, 0x0f]).is_err(), "count past the input");
        assert!(decode(&[2, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 1, 0, 0]).is_err(), "version id overflow");
    }

    #[test]
    fn intersect_sorted_works() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert!(intersect_sorted(&[], &[1]).is_empty());
    }
}
