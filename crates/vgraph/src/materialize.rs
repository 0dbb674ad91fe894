//! Record interning and the materialization oracle.
//!
//! [`RecordStore`] interns every distinct record (composite key →
//! dense `u32` ordinal) so the partitioners can run merge-based set
//! algebra over sorted ordinal vectors instead of hashing composite
//! keys on the hot path.
//!
//! [`MaterializedVersions`] reconstructs the *exact* record set of
//! every version by replaying deltas down the version tree. It serves
//! two roles: it is the ground-truth oracle that query results are
//! checked against in tests, and it feeds the partitioners the
//! version→records and record→versions relations they need (the
//! bipartite graph of paper §2.5).

use crate::delta::VersionDelta;
use crate::graph::VersionGraph;
use crate::ids::{CompositeKey, PrimaryKey, VersionId};
use bytes::Bytes;
use rustc_hash::FxHashMap;
use std::fmt;

/// Dense interning of distinct records and their payloads.
///
/// Payloads are shared [`Bytes`] buffers, so interning a record from
/// a delta bumps a reference count instead of copying the bytes.
#[derive(Debug, Clone, Default)]
pub struct RecordStore {
    keys: Vec<CompositeKey>,
    payloads: Vec<Bytes>,
    index: FxHashMap<CompositeKey, u32>,
}

impl RecordStore {
    /// Builds the store from the ∆⁺ sets of all deltas, assigning
    /// ordinals in version-id (topological/commit) order.
    pub fn from_deltas(deltas: &[VersionDelta]) -> Self {
        let total: usize = deltas.iter().map(|d| d.added.len()).sum();
        let mut store = Self {
            keys: Vec::with_capacity(total),
            payloads: Vec::with_capacity(total),
            index: FxHashMap::default(),
        };
        for delta in deltas {
            for rec in &delta.added {
                store.insert(rec.composite_key(), rec.payload.clone());
            }
        }
        store
    }

    /// Inserts a record, returning its ordinal. Re-inserting an
    /// existing composite key returns the original ordinal unchanged.
    pub fn insert(&mut self, ck: CompositeKey, payload: impl Into<Bytes>) -> u32 {
        if let Some(&ord) = self.index.get(&ck) {
            return ord;
        }
        let ord = self.keys.len() as u32;
        self.keys.push(ck);
        self.payloads.push(payload.into());
        self.index.insert(ck, ord);
        ord
    }

    /// Ordinal of a composite key, if present.
    pub fn ord(&self, ck: CompositeKey) -> Option<u32> {
        self.index.get(&ck).copied()
    }

    /// Composite key of an ordinal.
    ///
    /// # Panics
    /// Panics if `ord` is out of range.
    pub fn key(&self, ord: u32) -> CompositeKey {
        self.keys[ord as usize]
    }

    /// Payload of an ordinal.
    ///
    /// # Panics
    /// Panics if `ord` is out of range.
    pub fn payload(&self, ord: u32) -> &[u8] {
        &self.payloads[ord as usize]
    }

    /// Number of distinct records.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no records are interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Sum of payload sizes — the deduplicated dataset size of
    /// paper Table 2 ("Size of unique records").
    pub fn unique_bytes(&self) -> usize {
        self.payloads.iter().map(Bytes::len).sum()
    }

    /// All composite keys in ordinal order.
    pub fn keys(&self) -> &[CompositeKey] {
        &self.keys
    }
}

/// The full contents of every version, as sorted `(pk, ordinal)`
/// pairs.
#[derive(Debug, Clone, Default)]
pub struct MaterializedVersions {
    contents: Vec<Vec<(PrimaryKey, u32)>>,
}

impl MaterializedVersions {
    /// Replays `deltas` down the primary-parent tree of `graph`: each
    /// version is its primary parent's sorted contents minus the
    /// records its delta removes plus the ones it adds
    /// ([`apply_changes`], one pass over sorted runs).
    ///
    /// # Panics
    /// Panics if a delta removes a record that is not live in its
    /// parent, or adds a key that stays live (such a dataset is
    /// inconsistent).
    pub fn build(graph: &VersionGraph, deltas: &[VersionDelta], store: &RecordStore) -> Self {
        assert_eq!(graph.len(), deltas.len(), "one delta per version");
        let mut contents: Vec<Vec<(PrimaryKey, u32)>> = vec![Vec::new(); graph.len()];
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        // Ids are topological, so parents are always built first.
        for node in graph.nodes() {
            let v = node.id;
            let delta = &deltas[v.index()];
            removed.clear();
            removed.extend(
                (delta.removed.iter())
                    .map(|&ck| (ck.pk, store.ord(ck).expect("removed record was never added"))),
            );
            removed.sort_unstable();
            added.clear();
            added.extend(delta.added.iter().map(|rec| {
                (rec.pk, store.ord(rec.composite_key()).expect("record interned"))
            }));
            added.sort_unstable();
            let parent: &[(PrimaryKey, u32)] = match node.primary_parent() {
                Some(p) => &contents[p.index()],
                None => &[],
            };
            let list = apply_changes(parent, &removed, &added)
                .unwrap_or_else(|what| panic!("the delta for {v} {what}"));
            contents[v.index()] = list;
        }
        Self { contents }
    }

    /// Sorted `(pk, ordinal)` contents of a version.
    pub fn contents(&self, v: VersionId) -> &[(PrimaryKey, u32)] {
        &self.contents[v.index()]
    }

    /// Number of records in a version.
    pub fn record_count(&self, v: VersionId) -> usize {
        self.contents[v.index()].len()
    }

    /// Number of versions materialized.
    pub fn version_count(&self) -> usize {
        self.contents.len()
    }

    /// Ordinal of the record with primary key `pk` in version `v`.
    pub fn lookup(&self, v: VersionId, pk: PrimaryKey) -> Option<u32> {
        let list = &self.contents[v.index()];
        list.binary_search_by_key(&pk, |&(k, _)| k)
            .ok()
            .map(|i| list[i].1)
    }

    /// Records of `v` whose primary key lies in `[lo, hi]`.
    pub fn range(&self, v: VersionId, lo: PrimaryKey, hi: PrimaryKey) -> &[(PrimaryKey, u32)] {
        let list = &self.contents[v.index()];
        let start = list.partition_point(|&(k, _)| k < lo);
        let end = list.partition_point(|&(k, _)| k <= hi);
        &list[start..end]
    }

    /// Inverts the relation: for every record ordinal, the versions
    /// containing it, in increasing version order.
    pub fn record_versions(&self, num_records: usize) -> Vec<Vec<VersionId>> {
        let mut out = vec![Vec::new(); num_records];
        for (vi, list) in self.contents.iter().enumerate() {
            for &(_, ord) in list {
                out[ord as usize].push(VersionId(vi as u32));
            }
        }
        out
    }

    /// Sum over versions of records per version — the "Total size"
    /// driver of Table 2 and the total bipartite-edge count.
    pub fn total_entries(&self) -> usize {
        self.contents.iter().map(Vec::len).sum()
    }
}

/// A version's contents from its primary parent's:
/// `parent − removed + added`, every list sorted by key and holding a
/// key at most once. The unchanged runs between two changes are copied
/// whole. `Err` says what clashes: a removal the parent does not hold,
/// or an addition of a key the result already holds. The values are
/// whatever names a key's record: an ordinal here, an origin version
/// in the store's contents.
pub fn apply_changes<T: Copy + PartialEq + fmt::Display>(
    parent: &[(PrimaryKey, T)],
    removed: &[(PrimaryKey, T)],
    added: &[(PrimaryKey, T)],
) -> Result<Vec<(PrimaryKey, T)>, String> {
    let mut out = Vec::with_capacity((parent.len() + added.len()).saturating_sub(removed.len()));
    let (mut removed, mut added) = (removed.iter().peekable(), added.iter().peekable());
    let mut rest = parent;
    loop {
        let key = match (removed.peek(), added.peek()) {
            (None, None) => break,
            (r, a) => r.map_or(PrimaryKey::MAX, |e| e.0).min(a.map_or(PrimaryKey::MAX, |e| e.0)),
        };
        let run = rest.partition_point(|e| e.0 < key);
        out.extend_from_slice(&rest[..run]);
        rest = &rest[run..];
        if let Some(gone) = removed.next_if(|e| e.0 == key) {
            if rest.first() != Some(gone) {
                return Err(format!("drops K{key} of {}, which its parent does not hold", gone.1));
            }
            rest = &rest[1..];
        }
        if let Some(&new) = added.next_if(|e| e.0 == key) {
            if rest.first().is_some_and(|e| e.0 == key) || out.last().is_some_and(|e| e.0 == key) {
                return Err(format!("holds K{key} twice"));
            }
            out.push(new);
        }
    }
    out.extend_from_slice(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    /// Builds the exact Example 2 dataset of the paper (Fig. 1).
    ///
    /// V0 = {K0..K3}; V1 = V0 mod K3, add K4; V2 = V0 mod K3, add K5,
    /// del K2; V3 = V1 del K2; V4 = V2 mod K3.
    fn example2() -> (VersionGraph, Vec<VersionDelta>, RecordStore) {
        let mut g = VersionGraph::new();
        let v0 = g.add_root();
        let v1 = g.add_version(&[v0]);
        let v2 = g.add_version(&[v0]);
        let _v3 = g.add_version(&[v1]);
        let v4 = g.add_version(&[v2]);

        let rec = |pk: u64, v: VersionId| Record::new(pk, v, format!("K{pk}@{v}").into_bytes());
        let ck = CompositeKey::new;

        let deltas = vec![
            VersionDelta::from_parts((0..4).map(|k| rec(k, v0)).collect(), vec![]),
            VersionDelta::from_parts(vec![rec(3, v1), rec(4, v1)], vec![ck(3, v0)]),
            VersionDelta::from_parts(vec![rec(3, v2), rec(5, v2)], vec![ck(3, v0), ck(2, v0)]),
            VersionDelta::from_parts(vec![], vec![ck(2, v0)]),
            VersionDelta::from_parts(vec![rec(3, v4)], vec![ck(3, v2)]),
        ];
        let store = RecordStore::from_deltas(&deltas);
        (g, deltas, store)
    }

    #[test]
    fn store_interns_nine_distinct_records() {
        let (_, _, store) = example2();
        assert_eq!(store.len(), 9, "paper: nine distinct records");
        let ck = CompositeKey::new(3, VersionId(1));
        let ord = store.ord(ck).unwrap();
        assert_eq!(store.key(ord), ck);
        assert_eq!(store.payload(ord), b"K3@V1");
    }

    #[test]
    fn reinsert_returns_same_ordinal() {
        let mut s = RecordStore::default();
        let a = s.insert(CompositeKey::new(1, VersionId(0)), vec![1]);
        let b = s.insert(CompositeKey::new(1, VersionId(0)), vec![2]);
        assert_eq!(a, b);
        assert_eq!(s.len(), 1);
        assert_eq!(s.payload(a), &[1], "first payload wins");
    }

    #[test]
    fn version_contents_match_paper_example() {
        let (g, deltas, store) = example2();
        let m = MaterializedVersions::build(&g, &deltas, &store);
        let names = |v: u32| -> Vec<String> {
            m.contents(VersionId(v))
                .iter()
                .map(|&(_, ord)| String::from_utf8(store.payload(ord).to_vec()).unwrap())
                .collect()
        };
        assert_eq!(names(0), ["K0@V0", "K1@V0", "K2@V0", "K3@V0"]);
        // Paper: V1 = {⟨K0,V0⟩,⟨K1,V0⟩,⟨K2,V0⟩,⟨K3,V1⟩,⟨K4,V1⟩}.
        assert_eq!(names(1), ["K0@V0", "K1@V0", "K2@V0", "K3@V1", "K4@V1"]);
        assert_eq!(names(2), ["K0@V0", "K1@V0", "K3@V2", "K5@V2"]);
        assert_eq!(names(3), ["K0@V0", "K1@V0", "K3@V1", "K4@V1"]);
        assert_eq!(names(4), ["K0@V0", "K1@V0", "K3@V4", "K5@V2"]);
    }

    #[test]
    fn lookup_resolves_origin_indirection() {
        let (g, deltas, store) = example2();
        let m = MaterializedVersions::build(&g, &deltas, &store);
        // Paper Example 2: K3 in V3 resolves to ⟨K3, V1⟩.
        let ord = m.lookup(VersionId(3), 3).unwrap();
        assert_eq!(store.key(ord), CompositeKey::new(3, VersionId(1)));
        // K2 was deleted in V3.
        assert_eq!(m.lookup(VersionId(3), 2), None);
        assert_eq!(m.lookup(VersionId(0), 99), None);
    }

    #[test]
    fn range_is_inclusive_and_sorted() {
        let (g, deltas, store) = example2();
        let m = MaterializedVersions::build(&g, &deltas, &store);
        let r = m.range(VersionId(1), 1, 3);
        let pks: Vec<u64> = r.iter().map(|&(pk, _)| pk).collect();
        assert_eq!(pks, vec![1, 2, 3]);
        assert!(m.range(VersionId(1), 6, 10).is_empty());
    }

    #[test]
    fn record_versions_inverts_contents() {
        let (g, deltas, store) = example2();
        let m = MaterializedVersions::build(&g, &deltas, &store);
        let rv = m.record_versions(store.len());
        // ⟨K0,V0⟩ is in every version.
        let k0 = store.ord(CompositeKey::new(0, VersionId(0))).unwrap();
        assert_eq!(rv[k0 as usize].len(), 5);
        // ⟨K3,V1⟩ is in V1 and V3.
        let k3v1 = store.ord(CompositeKey::new(3, VersionId(1))).unwrap();
        assert_eq!(
            rv[k3v1 as usize],
            vec![VersionId(1), VersionId(3)]
        );
        // ⟨K2,V0⟩ is in V0 and V1 only (deleted in V2 and V3).
        let k2 = store.ord(CompositeKey::new(2, VersionId(0))).unwrap();
        assert_eq!(rv[k2 as usize], vec![VersionId(0), VersionId(1)]);
    }

    #[test]
    #[should_panic(expected = "never added")]
    fn inconsistent_removal_panics() {
        let mut g = VersionGraph::new();
        let v0 = g.add_root();
        let v1 = g.add_version(&[v0]);
        let deltas = vec![
            VersionDelta::from_parts(vec![Record::new(0, v0, vec![0])], vec![]),
            // Removes a key the parent does not hold.
            VersionDelta::from_parts(vec![], vec![CompositeKey::new(9, v0)]),
        ];
        let store = RecordStore::from_deltas(&deltas);
        let _ = v1;
        MaterializedVersions::build(&g, &deltas, &store);
    }

    #[test]
    fn total_entries_counts_bipartite_edges() {
        let (g, deltas, store) = example2();
        let m = MaterializedVersions::build(&g, &deltas, &store);
        assert_eq!(m.total_entries(), 4 + 5 + 4 + 4 + 4);
    }
}
