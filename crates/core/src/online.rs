//! Online ingest helpers and quality measurement (paper §4).
//!
//! The batched ingest mechanics live in [`crate::store::RStore`]
//! (`commit`/`flush_batch`); this module provides the replay
//! utilities behind the Fig. 13 experiment: feed a generated dataset
//! through the *online* path commit by commit, or cut it to a prefix
//! of its versions.

use crate::error::CoreError;
use crate::plan::QuerySpec;
use crate::store::{CommitRequest, RStore};
use rstore_vgraph::{Dataset, VersionId};
use rustc_hash::FxHashSet;

/// The commit that reproduces version `v` of `dataset` online: its
/// delta's records as puts, and a delete for every removed key that
/// is not re-added (a re-added key is an update, which the store
/// resolves itself).
pub fn commit_request(dataset: &Dataset, v: VersionId) -> CommitRequest {
    let node = dataset.graph.node(v);
    let delta = &dataset.deltas[v.index()];
    let puts = delta.added.iter().map(|r| (r.pk, r.payload.clone()));
    let req = match node.parents.as_slice() {
        [] => CommitRequest::root(puts.collect::<Vec<_>>()),
        [primary, others @ ..] => puts.fold(
            CommitRequest::merge_of(*primary, others.iter().copied()),
            |req, (pk, payload)| req.put(pk, payload),
        ),
    };
    let readded: FxHashSet<u64> = delta.added.iter().map(|r| r.pk).collect();
    delta
        .removed
        .iter()
        .filter(|ck| !readded.contains(&ck.pk))
        .fold(req, |req, ck| req.delete(ck.pk))
}

/// Replays a generated dataset through the online commit path. The
/// store must be empty; version ids assigned by the store will match
/// the dataset's (both are sequential).
pub fn replay_commits(store: &RStore, dataset: &Dataset) -> Result<(), CoreError> {
    for v in dataset.graph.ids() {
        let assigned = store.commit(commit_request(dataset, v))?;
        debug_assert_eq!(assigned, v);
    }
    store.seal()?;
    Ok(())
}

/// Restricts a dataset to its first `limit` versions. Version ids are
/// assigned in commit order, so the prefix is self-contained.
pub fn truncate_dataset(dataset: &Dataset, limit: usize) -> Dataset {
    let limit = limit.min(dataset.graph.len());
    let mut graph = rstore_vgraph::VersionGraph::new();
    for node in &dataset.graph.nodes()[..limit] {
        if node.parents.is_empty() {
            graph.add_root();
        } else {
            graph.add_version(&node.parents);
        }
    }
    Dataset {
        spec: dataset.spec.clone(),
        graph,
        deltas: dataset.deltas[..limit].to_vec(),
    }
}

/// Sanity helper for tests: the record sets visible through two
/// stores must be identical for every version. Both sides ride the
/// plan → fetch → extract pipeline; records are compared as sorted
/// sets because the two stores may have partitioned differently and
/// a stream yields records in chunk order.
pub fn stores_agree(a: &RStore, b: &RStore) -> Result<bool, CoreError> {
    if a.version_count() != b.version_count() {
        return Ok(false);
    }
    for v in 0..a.version_count() {
        let spec = QuerySpec::Version(VersionId(v as u32));
        let mut ra = a.stream_query(spec)?.drain()?;
        let mut rb = b.stream_query(spec)?.drain()?;
        if ra.len() != rb.len() {
            return Ok(false);
        }
        ra.sort_unstable_by_key(|r| r.pk);
        rb.sort_unstable_by_key(|r| r.pk);
        for (x, y) in ra.iter().zip(&rb) {
            if x.pk != y.pk || x.origin != y.origin || x.payload != y.payload {
                return Ok(false);
            }
        }
    }
    Ok(true)
}
