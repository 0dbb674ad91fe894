//! Sub-chunk construction for record-level compression (paper §3.4).
//!
//! When `k > 1`, records with the same primary key are grouped into
//! sub-chunks of at most `k` members before partitioning; the
//! partitioners then place sub-chunks instead of records (the
//! "transformed dataset" of §3.4). Grouping obeys the paper's
//! connectivity constraint: "the records that are grouped together
//! are 'connected' in the version tree" — e.g. ⟨K1,V3⟩ and ⟨K1,V5⟩
//! are never grouped without their common ancestor ⟨K1,V0⟩ — because
//! records are more similar to their parents than to their siblings.
//!
//! The per-key derivation forest comes straight from the deltas: an
//! update that adds ⟨K,Vc⟩ while removing ⟨K,Vp⟩ makes the removed
//! record the parent of the added one. Groups are grown top-down over
//! that forest: a record joins the group of its parent record while
//! the group has room, otherwise it starts a new group — yielding
//! connected subtrees of at most `k` records, each delta-encoded
//! against the group's root (its common ancestor).

use crate::chunk::SubChunk;
use crate::model::{CompositeKey, VersionId};
use rstore_vgraph::{Dataset, MaterializedVersions, RecordStore};
use rustc_hash::FxHashMap;

/// The grouping of records into sub-chunks.
#[derive(Debug, Clone, Default)]
pub struct SubchunkPlan {
    /// `groups[g]` = member record ordinals; the first member is the
    /// group root (representative for delta encoding).
    pub groups: Vec<Vec<u32>>,
    /// `group_of[record ordinal]` = group index.
    pub group_of: Vec<u32>,
    /// The `k` this plan was built with.
    pub k: usize,
}

impl SubchunkPlan {
    /// Builds the plan for `dataset` with sub-chunk size limit `k`.
    ///
    /// `k = 1` degenerates to one group per record (the
    /// no-record-level-compression case of §2.5).
    pub fn build(dataset: &Dataset, store: &RecordStore, k: usize) -> Self {
        let k = k.max(1);
        let n = store.len();
        if k == 1 {
            return Self {
                groups: (0..n as u32).map(|o| vec![o]).collect(),
                group_of: (0..n as u32).collect(),
                k,
            };
        }

        // Parent record of each record, from the deltas: within one
        // commit, an added record's parent is the removed record with
        // the same primary key (if any).
        let mut parent: Vec<Option<u32>> = vec![None; n];
        for delta in &dataset.deltas {
            if delta.added.is_empty() {
                continue;
            }
            let mut removed_by_pk: FxHashMap<u64, CompositeKey> = FxHashMap::default();
            for &ck in &delta.removed {
                removed_by_pk.insert(ck.pk, ck);
            }
            for rec in &delta.added {
                if let Some(old_ck) = removed_by_pk.get(&rec.pk) {
                    let child = store.ord(rec.composite_key()).expect("interned");
                    let par = store.ord(*old_ck).expect("interned");
                    parent[child as usize] = Some(par);
                }
            }
        }

        // Grow groups top-down. Ordinals are assigned in commit order,
        // so parents always precede children.
        let mut group_of = vec![u32::MAX; n];
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for ord in 0..n as u32 {
            let assigned = match parent[ord as usize] {
                Some(par) => {
                    let g = group_of[par as usize] as usize;
                    if groups[g].len() < k {
                        groups[g].push(ord);
                        Some(g as u32)
                    } else {
                        None
                    }
                }
                None => None,
            };
            group_of[ord as usize] = assigned.unwrap_or_else(|| {
                groups.push(vec![ord]);
                (groups.len() - 1) as u32
            });
        }
        Self { groups, group_of, k }
    }

    /// Number of sub-chunks.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Builds the compressed [`SubChunk`] for every group, in group
    /// order (the ingest pipeline's own encode fans out across cores).
    pub fn materialize(&self, store: &RecordStore) -> Vec<SubChunk> {
        let build = |members: &Vec<u32>| {
            let records: Vec<(CompositeKey, &[u8])> =
                members.iter().map(|&o| (store.key(o), store.payload(o))).collect();
            SubChunk::build(&records)
        };
        self.groups.iter().map(build).collect()
    }

    /// The transformed version→items relation: a group belongs to a
    /// version iff any member does. This is the §3.4 "transformed
    /// dataset" handed to the partitioners.
    ///
    /// Membership is deduplicated with an epoch-tagged mark per group
    /// (the version id is the epoch, so the marks never need
    /// clearing): each version only sorts its *distinct* groups,
    /// instead of sort + dedup over the full per-version record list —
    /// which for wide versions with large `k` repeated every group
    /// `k` times.
    pub fn group_version_items(&self, m: &MaterializedVersions) -> Vec<Vec<u32>> {
        let mut mark: Vec<u32> = vec![u32::MAX; self.groups.len()];
        (0..m.version_count())
            .map(|v| {
                let mut items: Vec<u32> = Vec::new();
                for &(_, ord) in m.contents(VersionId(v as u32)) {
                    let g = self.group_of[ord as usize];
                    if mark[g as usize] != v as u32 {
                        mark[g as usize] = v as u32;
                        items.push(g);
                    }
                }
                items.sort_unstable();
                items
            })
            .collect()
    }

    /// Compression statistics: (raw bytes, compressed bytes) over all
    /// sub-chunks.
    pub fn compression(&self, subchunks: &[SubChunk]) -> (usize, usize) {
        let raw = subchunks.iter().map(|s| s.raw_bytes).sum();
        let compressed = subchunks.iter().map(SubChunk::compressed_bytes).sum();
        (raw, compressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstore_vgraph::{DatasetSpec, SelectionKind};

    fn build(seed: u64, k: usize) -> (Dataset, RecordStore, SubchunkPlan) {
        let mut spec = DatasetSpec::tiny(seed);
        spec.pd = 0.05;
        spec.record_size = 200;
        let ds = spec.generate();
        let store = ds.record_store();
        let plan = SubchunkPlan::build(&ds, &store, k);
        (ds, store, plan)
    }

    #[test]
    fn k1_is_identity() {
        let (_, store, plan) = build(1, 1);
        assert_eq!(plan.num_groups(), store.len());
        for (g, members) in plan.groups.iter().enumerate() {
            assert_eq!(members, &[g as u32]);
        }
    }

    #[test]
    fn every_record_in_exactly_one_group() {
        for k in [2, 3, 5, 10] {
            let (_, store, plan) = build(2, k);
            let mut seen = vec![false; store.len()];
            for (g, members) in plan.groups.iter().enumerate() {
                for &m in members {
                    assert!(!seen[m as usize], "record {m} in two groups");
                    seen[m as usize] = true;
                    assert_eq!(plan.group_of[m as usize], g as u32);
                }
            }
            assert!(seen.iter().all(|&s| s), "records missing from groups");
        }
    }

    #[test]
    fn groups_respect_k_and_share_pk() {
        let (_, store, plan) = build(3, 4);
        for members in &plan.groups {
            assert!(members.len() <= 4);
            let pk = store.key(members[0]).pk;
            for &m in members {
                assert_eq!(store.key(m).pk, pk, "mixed keys in a sub-chunk");
            }
        }
        // With updates present, some groups must actually use k > 1.
        assert!(
            plan.groups.iter().any(|g| g.len() > 1),
            "no multi-record sub-chunks formed"
        );
    }

    #[test]
    fn groups_are_connected_via_parent_links() {
        // Rebuild the parent map and verify every member (except the
        // root) has its parent in the same group.
        let (ds, store, plan) = build(4, 3);
        let mut parent: FxHashMap<u32, u32> = FxHashMap::default();
        for delta in &ds.deltas {
            let mut removed_by_pk: FxHashMap<u64, CompositeKey> = FxHashMap::default();
            for &ck in &delta.removed {
                removed_by_pk.insert(ck.pk, ck);
            }
            for rec in &delta.added {
                if let Some(old) = removed_by_pk.get(&rec.pk) {
                    parent.insert(
                        store.ord(rec.composite_key()).unwrap(),
                        store.ord(*old).unwrap(),
                    );
                }
            }
        }
        for members in &plan.groups {
            for &m in &members[1..] {
                let p = parent[&m];
                assert!(
                    members.contains(&p),
                    "member {m}'s parent {p} not in its group {members:?}"
                );
            }
        }
    }

    #[test]
    fn materialized_subchunks_decode_to_original_payloads() {
        let (_, store, plan) = build(5, 5);
        let subchunks = plan.materialize(&store);
        for (members, sc) in plan.groups.iter().zip(&subchunks) {
            let decoded = sc.decode().unwrap();
            for (&m, payload) in members.iter().zip(decoded) {
                assert_eq!(&payload[..], store.payload(m));
            }
        }
    }

    #[test]
    fn larger_k_improves_compression() {
        // Low Pd ⇒ records of a key are near-identical ⇒ larger
        // sub-chunks compress better (the Fig. 10 driver).
        let mut spec = DatasetSpec::tiny_chain(6);
        spec.pd = 0.01;
        spec.record_size = 512;
        spec.update_frac = 0.4;
        spec.num_versions = 40;
        spec.selection = SelectionKind::Uniform;
        let ds = spec.generate();
        let store = ds.record_store();

        let mut sizes = Vec::new();
        for k in [1usize, 5, 25] {
            let plan = SubchunkPlan::build(&ds, &store, k);
            let subchunks = plan.materialize(&store);
            let (_, compressed) = plan.compression(&subchunks);
            sizes.push(compressed);
        }
        assert!(
            sizes[1] < sizes[0] && sizes[2] <= sizes[1],
            "compression did not improve with k: {sizes:?}"
        );
    }

    #[test]
    fn group_version_items_matches_membership() {
        let (ds, store, plan) = build(7, 3);
        let m = ds.materialize(&store);
        let gvi = plan.group_version_items(&m);
        assert_eq!(gvi.len(), ds.graph.len());
        for (v, items) in gvi.iter().enumerate() {
            // Sorted, deduplicated.
            assert!(items.windows(2).all(|w| w[0] < w[1]));
            // Exactly the groups of the version's records.
            let expect: std::collections::BTreeSet<u32> = m
                .contents(VersionId(v as u32))
                .iter()
                .map(|&(_, ord)| plan.group_of[ord as usize])
                .collect();
            assert_eq!(items.to_vec(), expect.into_iter().collect::<Vec<_>>());
        }
    }
}
