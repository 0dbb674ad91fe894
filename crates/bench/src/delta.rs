//! The DELTA comparator of paper §2.2, Figs. 8 and 11: git-style
//! delta chains, where reconstructing a version retrieves the deltas
//! of its entire root path.
//!
//! * [`DeltaLayout`] packs each version's serialized delta into
//!   fixed-size chunks in version order and counts the chunks a
//!   version's root path touches (the Fig. 8 DELTA series).
//! * [`DeltaEngine`] stores each delta under its own key of a
//!   [`Cluster`] and answers version and range queries by fetching
//!   and applying the root path (the Fig. 11 DELTA rows).

use rstore_compress::varint;
use rstore_core::{CompositeKey, CoreError};
use rstore_kvstore::{table_key, Cluster};
use rstore_vgraph::{Dataset, PrimaryKey, VersionId};
use std::collections::BTreeMap;
use std::time::Duration;

/// The DELTA chain layout: chunk ids holding each version's delta.
#[derive(Debug, Clone)]
pub struct DeltaLayout {
    delta_chunks: Vec<Vec<u32>>,
}

impl DeltaLayout {
    /// Packs each version's serialized delta into `capacity`-byte
    /// chunks, in version order (deltas stay contiguous).
    pub fn build(dataset: &Dataset, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut chunk = 0u32;
        let mut used = 0usize;
        let delta_chunks = dataset
            .deltas
            .iter()
            .map(|d| {
                // Serialized size: added payloads + 12 bytes per
                // composite key touched (∆⁺ and ∆⁻ entries carry keys).
                let mut remaining = (d.added_bytes() + 12 * d.change_count()).max(1);
                let mut chunks = Vec::new();
                while remaining > 0 {
                    if used >= capacity {
                        chunk += 1;
                        used = 0;
                    }
                    chunks.push(chunk);
                    let take = remaining.min(capacity - used);
                    used += take;
                    remaining -= take;
                }
                chunks
            })
            .collect();
        Self { delta_chunks }
    }

    /// Chunks retrieved to reconstruct `v`: the union of the delta
    /// chunks along its root path.
    pub fn version_span(&self, dataset: &Dataset, v: VersionId) -> usize {
        let mut chunks: Vec<u32> = dataset
            .graph
            .path_from_root(v)
            .into_iter()
            .flat_map(|a| self.delta_chunks[a.index()].iter().copied())
            .collect();
        chunks.sort_unstable();
        chunks.dedup();
        chunks.len()
    }

    /// Σ_v span(v): the Fig. 8 DELTA series.
    pub fn total_version_span(&self, dataset: &Dataset) -> usize {
        dataset
            .graph
            .ids()
            .map(|v| self.version_span(dataset, v))
            .sum()
    }
}

/// Backend table used by [`DeltaEngine`].
const DELTA_ENGINE_TABLE: &str = "delta-engine";

/// A DELTA storage engine over the key-value cluster: one key per
/// version delta, "retrieved one-by-one" (§2.3) along the root path.
pub struct DeltaEngine<'a> {
    dataset: &'a Dataset,
}

/// Result of a DELTA-engine retrieval.
#[derive(Debug)]
pub struct DeltaQueryResult {
    /// `(pk, payload)` pairs sorted by key.
    pub records: Vec<(PrimaryKey, Vec<u8>)>,
    /// Backend values fetched (the DELTA span).
    pub span: usize,
    /// Modeled network time of the slowest node batch — the same
    /// max-over-parallel-batches accounting `QueryStats` uses.
    pub modeled_network: Duration,
}

fn delta_key(v: VersionId) -> Vec<u8> {
    table_key(DELTA_ENGINE_TABLE, &v.as_u32().to_be_bytes())
}

fn read_key(r: &mut varint::VarintReader<'_>) -> Result<CompositeKey, CoreError> {
    let bytes: [u8; 12] = r.read_bytes(12)?.try_into().expect("12 bytes");
    Ok(CompositeKey::from_bytes(&bytes))
}

impl<'a> DeltaEngine<'a> {
    /// Serializes every delta of `dataset` into `cluster`.
    pub fn load(dataset: &'a Dataset, cluster: &Cluster) -> Result<Self, CoreError> {
        let writes = dataset
            .graph
            .ids()
            .map(|v| {
                let delta = &dataset.deltas[v.index()];
                let mut buf = Vec::new();
                varint::write_u64(&mut buf, delta.added.len() as u64);
                for rec in &delta.added {
                    buf.extend_from_slice(&rec.composite_key().to_bytes());
                    varint::write_u64(&mut buf, rec.payload.len() as u64);
                    buf.extend_from_slice(&rec.payload);
                }
                varint::write_u64(&mut buf, delta.removed.len() as u64);
                for ck in &delta.removed {
                    buf.extend_from_slice(&ck.to_bytes());
                }
                (delta_key(v), buf.into())
            })
            .collect();
        cluster.multi_put(writes)?;
        Ok(Self { dataset })
    }

    /// Reconstructs version `v` by fetching and applying the deltas
    /// of its root path.
    pub fn get_version(
        &self,
        cluster: &Cluster,
        v: VersionId,
    ) -> Result<DeltaQueryResult, CoreError> {
        let path = self.dataset.graph.path_from_root(v);
        let (values, modeled_network) =
            cluster.multi_get_scatter(path.iter().map(|&a| delta_key(a)).collect())?;
        let mut state: BTreeMap<PrimaryKey, Vec<u8>> = BTreeMap::new();
        for (value, a) in values.iter().zip(&path) {
            let mut r = varint::VarintReader::new(
                value.as_ref().ok_or(CoreError::MissingChunk(a.as_u32()))?,
            );
            let mut added = Vec::new();
            for _ in 0..r.read_u64()? {
                let ck = read_key(&mut r)?;
                let len = r.read_u64()? as usize;
                added.push((ck.pk, r.read_bytes(len)?.to_vec()));
            }
            for _ in 0..r.read_u64()? {
                state.remove(&read_key(&mut r)?.pk);
            }
            state.extend(added);
        }
        Ok(DeltaQueryResult {
            records: state.into_iter().collect(),
            span: path.len(),
            modeled_network,
        })
    }

    /// Range retrieval: reconstruct, then filter — a range cannot
    /// fetch less than the whole version under DELTA (§5.4).
    pub fn get_range(
        &self,
        cluster: &Cluster,
        lo: PrimaryKey,
        hi: PrimaryKey,
        v: VersionId,
    ) -> Result<DeltaQueryResult, CoreError> {
        let mut result = self.get_version(cluster, v)?;
        result.records.retain(|&(pk, _)| pk >= lo && pk <= hi);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstore_vgraph::DatasetSpec;

    #[test]
    fn delta_layout_span_grows_with_depth() {
        let ds = DatasetSpec::tiny_chain(12).generate();
        let layout = DeltaLayout::build(&ds, 4096);
        let first = layout.version_span(&ds, VersionId(1));
        let last = layout.version_span(&ds, VersionId((ds.graph.len() - 1) as u32));
        assert!(
            last >= first,
            "deeper versions must touch at least as many delta chunks"
        );
        assert!(layout.total_version_span(&ds) >= ds.graph.len());
    }

    #[test]
    fn delta_engine_reconstructs_versions_exactly() {
        let ds = DatasetSpec::tiny(14).generate();
        let cluster = Cluster::builder().nodes(2).build();
        let engine = DeltaEngine::load(&ds, &cluster).unwrap();
        let store = ds.record_store();
        let oracle = ds.materialize(&store);
        for v in ds.graph.ids() {
            let result = engine.get_version(&cluster, v).unwrap();
            let expect = oracle.contents(v);
            assert_eq!(result.records.len(), expect.len(), "version {v}");
            for ((pk, payload), &(epk, ord)) in result.records.iter().zip(expect) {
                assert_eq!(*pk, epk);
                assert_eq!(payload.as_slice(), store.payload(ord));
            }
            assert_eq!(result.span, ds.graph.path_from_root(v).len());
        }
    }

    #[test]
    fn delta_engine_range_filters_after_reconstruction() {
        let ds = DatasetSpec::tiny_chain(15).generate();
        let cluster = Cluster::builder().nodes(1).build();
        let engine = DeltaEngine::load(&ds, &cluster).unwrap();
        let v = VersionId((ds.graph.len() - 1) as u32);
        let full = engine.get_version(&cluster, v).unwrap();
        let ranged = engine.get_range(&cluster, 0, 5, v).unwrap();
        assert!(ranged.records.len() <= full.records.len());
        assert!(ranged.records.iter().all(|&(pk, _)| pk <= 5));
        assert_eq!(ranged.span, full.span);
    }
}
