//! The two lossy projections used for query planning.
//!
//! "In order to be able to decide what chunks to retrieve for a given
//! query, we maintain two lossy projections of the matrix: (1) a
//! mapping between primary keys and chunks ... and (2) a mapping
//! between versions and chunks" (§2.4, Fig. 3b). Both live in
//! application-server memory (the paper sizes them at tens of MB for
//! multi-GB datasets). Nothing persists them: they follow from the
//! chunk maps and from where each record was placed, and
//! `Projections::add_chunks` is the one derivation — a commit feeds it
//! its generation's chunks, a restart every live chunk.
//!
//! Since the snapshot-isolation refactor the serving copy of these
//! projections is frozen inside each published
//! [`StoreSnapshot`](crate::store::StoreSnapshot) generation: the
//! writer copies-on-write before extending them, readers plan
//! against the `Arc` their pinned snapshot carries, and so a flush
//! adding versions mid-query can never make a planned span
//! inconsistent with the metadata it was derived from.

use crate::model::{ChunkId, PrimaryKey, VersionId};
use crate::plan::QuerySpec;
use rstore_compress::{Bitmap, PostingsList};
use std::collections::BTreeMap;

/// Version→chunks and key→chunks projections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Projections {
    /// `version_chunks[v]` = sorted chunk ids containing records of v.
    version_chunks: Vec<Vec<u32>>,
    /// Key → sorted chunk ids containing records with that key.
    /// A `BTreeMap` so range retrieval can walk a key range.
    key_chunks: BTreeMap<PrimaryKey, Vec<u32>>,
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
    /// keys in `[lo, hi]`, intersected with the version's list. An
    /// inverted range (`lo > hi`) holds no key.
    pub fn chunks_of_range(&self, lo: PrimaryKey, hi: PrimaryKey, v: VersionId) -> Vec<u32> {
        if lo > hi {
            return Vec::new();
        }
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

    /// Adds the postings that chunks contribute — the one derivation
    /// of the projections, which a commit runs over its generation's
    /// chunk-map entries and placed records and a restart over every
    /// live chunk's: a version's chunks are those whose map holds a
    /// non-empty entry for it, a key's chunks those holding one of its
    /// records. `entries` are `(version, chunk, members)` and `records`
    /// `(pk, chunk)`, in any order; the version table then covers the
    /// first `versions` versions.
    pub(crate) fn add_chunks<'a>(
        &mut self,
        versions: usize,
        entries: impl IntoIterator<Item = (VersionId, u32, &'a Bitmap)>,
        records: impl IntoIterator<Item = (PrimaryKey, u32)>,
    ) {
        if self.version_chunks.len() < versions {
            self.version_chunks.resize(versions, Vec::new());
        }
        for (v, c, members) in entries {
            if members.count_ones() > 0 {
                self.add_version_chunk(v, ChunkId(c));
            }
        }
        for (pk, c) in records {
            self.add_key_chunk(pk, ChunkId(c));
        }
    }

    /// Number of versions tracked.
    pub fn num_versions(&self) -> usize {
        self.version_chunks.len()
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
        assert!(p.num_versions() >= 2);
    }

    #[test]
    fn serialized_bytes_reported() {
        let (v, k) = sample().serialized_bytes();
        assert!(v > 0 && k > 0);
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
        // Re-adding after retention keeps the sorted invariant.
        p.add_version_chunk(VersionId(0), ChunkId(0));
        assert_eq!(p.chunks_of_version(VersionId(0)), &[0, 1]);
    }

    #[test]
    fn chunks_add_their_non_empty_entries_and_their_keys() {
        let bits = |ones: &[usize]| Bitmap::from_indices(4, ones.iter().copied());
        let (some, none) = (bits(&[1]), bits(&[]));
        let mut p = sample();
        // Chunk 7 holds V1 and K10, K30; its empty V0 entry adds nothing,
        // chunk 1's V1 entry and K10 posting land between existing ones.
        let entries = [(VersionId(1), 7, &some), (VersionId(0), 7, &none), (VersionId(1), 1, &some)];
        p.add_chunks(4, entries, [(30, 7), (10, 7), (10, 1), (10, 7)]);
        assert_eq!(p.chunks_of_version(VersionId(0)), &[0, 1]);
        assert_eq!(p.chunks_of_version(VersionId(1)), &[0, 1, 2, 7]);
        assert_eq!(p.num_versions(), 4);
        assert_eq!(p.chunks_of_key(10), &[0, 1, 2, 7]);
        assert_eq!(p.chunks_of_key(30), &[7]);
    }

    #[test]
    fn intersect_sorted_works() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert!(intersect_sorted(&[], &[1]).is_empty());
    }
}
