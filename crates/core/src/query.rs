//! Query statistics and chunk-decoding helpers.

use crate::chunk::Chunk;
use crate::chunkmap::ChunkMap;
use crate::error::CoreError;
use crate::model::{Record, VersionId};
use std::time::Duration;

/// Per-query cost accounting, mirroring the paper's metrics: the span
/// (chunks retrieved), useful chunks (lossy projections may fetch
/// chunks with no matching records, §2.4), bytes moved, and time —
/// plus decoded-chunk-cache effectiveness. The one fetch account: the
/// executor fills everything but extraction's share (`chunks_useful`,
/// `records`) and the wall clock, which the caller adds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Generation of the [`StoreSnapshot`](crate::store::StoreSnapshot)
    /// the query was pinned to: the whole plan → fetch → extract
    /// pipeline observed exactly this generation's metadata, even if
    /// mutators published newer ones mid-query.
    pub generation: u64,
    /// Chunks the query planner touched — the query's *span*.
    pub chunks_fetched: usize,
    /// Chunks that actually contained requested records.
    pub chunks_useful: usize,
    /// Compressed bytes transferred from the backend (cache hits move
    /// no bytes).
    pub bytes_fetched: usize,
    /// Chunks served from the decoded-chunk cache.
    pub cache_hits: usize,
    /// Chunks that had to be fetched and decoded.
    pub cache_misses: usize,
    /// Distinct backend nodes the scatter-gather fetch contacted
    /// (0 when the whole span was cache-resident).
    pub nodes_contacted: usize,
    /// Keys in the largest per-node fetch batch — the critical-path
    /// batch of the scatter-gather.
    pub max_node_batch: usize,
    /// Node-batch fetch failures recovered mid-query by re-routing to
    /// the keys' next live replicas (0 on a healthy cluster).
    pub failovers: usize,
    /// Keys re-routed to another replica mid-query.
    pub rerouted_keys: usize,
    /// Transient backend refusals healed by in-place retries at the
    /// cluster layer (0 unless fault injection is active). Distinct
    /// from `failovers`: a retry stays on the same node.
    pub retries: usize,
    /// Backup node batches issued by the hedging layer after a
    /// round's straggler exceeded the service-EWMA threshold
    /// (0 unless [`StoreConfig::hedge`](crate::store::StoreConfig::hedge)
    /// is set). Each hedge is duplicate work, charged here so the
    /// tail-for-bytes trade stays visible.
    pub hedges: usize,
    /// Hedge batches that won: each decoded at least one chunk before
    /// the straggler it backed up delivered it.
    pub hedge_wins: usize,
    /// Records produced.
    pub records: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Time the query spent queued in admission control before the
    /// serving core granted it an in-flight slot (zero when a slot
    /// was free on arrival, and always zero for the serial executor,
    /// which bypasses admission).
    pub queue_wait: Duration,
    /// Modeled network time accrued at the backend: the **max over
    /// the parallel node batches** (a real scatter-gather overlaps
    /// them), not their sum. Meaningful when the cluster's network
    /// model is accounting-only.
    pub modeled_network: Duration,
}

/// Extracts the records of `v` from a fetched chunk using its chunk
/// map. Returns records in chunk-local order.
pub fn extract_version_records(
    chunk: &Chunk,
    map: &ChunkMap,
    v: VersionId,
) -> Result<Vec<Record>, CoreError> {
    let Some(members) = map.members_of(v) else {
        return Ok(Vec::new());
    };
    // The member count sizes the output exactly; a bitmap's iterator
    // does not know it.
    let mut out = Vec::with_capacity(members.count_ones());
    extract_into(chunk, members.iter_ones(), &mut out)?;
    Ok(out)
}

/// Iterator-driven core of record extraction: `locals` must yield
/// chunk-local ordinals in ascending order (chunk-map bitmaps and the
/// query planner both guarantee this). Payloads are shared out of the
/// sub-chunk's memoized decode — no per-record deep copy.
pub fn extract_from_iter(
    chunk: &Chunk,
    locals: impl IntoIterator<Item = usize>,
) -> Result<Vec<Record>, CoreError> {
    let locals = locals.into_iter();
    let mut out = Vec::with_capacity(locals.size_hint().0);
    extract_into(chunk, locals, &mut out)?;
    Ok(out)
}

/// [`extract_from_iter`] into a caller-sized vector.
fn extract_into(
    chunk: &Chunk,
    locals: impl Iterator<Item = usize>,
    out: &mut Vec<Record>,
) -> Result<(), CoreError> {
    let mut it = locals.peekable();
    let mut base = 0usize; // local ordinal of current sub-chunk start
    for sc in &chunk.subchunks {
        let end = base + sc.members.len();
        let Some(&next) = it.peek() else {
            break;
        };
        if next < end {
            // At least one requested member in this sub-chunk.
            let (payloads, members) = (sc.decode()?, &*sc.members);
            while let Some(&local) = it.peek() {
                if local >= end {
                    break;
                }
                let member = local - base;
                let ck = members[member];
                out.push(Record::new(ck.pk, ck.origin, payloads[member].clone()));
                it.next();
            }
        }
        base = end;
    }
    if let Some(&beyond) = it.peek() {
        return Err(CoreError::Codec(format!(
            "chunk map references local {beyond} beyond chunk size {base}"
        )));
    }
    Ok(())
}

/// Extracts every record in the chunk (used by evolution queries and
/// store recovery): decodes sub-chunks in placement order directly,
/// without materializing an index vector.
pub fn extract_all(chunk: &Chunk) -> Result<Vec<Record>, CoreError> {
    let mut out = Vec::with_capacity(chunk.record_count());
    for sc in &chunk.subchunks {
        let payloads = sc.decode()?;
        for (ck, payload) in sc.members.iter().zip(payloads) {
            out.push(Record::new(ck.pk, ck.origin, payload.clone()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::SubChunk;
    use crate::model::CompositeKey;

    fn sample_chunk() -> Chunk {
        let p = |tag: u8| vec![tag; 40];
        Chunk {
            subchunks: vec![
                SubChunk::build(&[
                    (CompositeKey::new(1, VersionId(0)), p(1).as_slice()),
                    (CompositeKey::new(1, VersionId(2)), p(2).as_slice()),
                ]),
                SubChunk::build(&[(CompositeKey::new(2, VersionId(0)), p(3).as_slice())]),
                SubChunk::build(&[
                    (CompositeKey::new(3, VersionId(1)), p(4).as_slice()),
                    (CompositeKey::new(3, VersionId(2)), p(5).as_slice()),
                ]),
            ],
        }
    }

    #[test]
    fn extract_from_iter_spans_subchunks() {
        let chunk = sample_chunk();
        // Locals: 0 = ⟨1,V0⟩, 1 = ⟨1,V2⟩, 2 = ⟨2,V0⟩, 3 = ⟨3,V1⟩, 4 = ⟨3,V2⟩.
        let recs = extract_from_iter(&chunk, [1, 2, 4]).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].composite_key(), CompositeKey::new(1, VersionId(2)));
        assert_eq!(recs[0].payload, vec![2u8; 40]);
        assert_eq!(recs[1].composite_key(), CompositeKey::new(2, VersionId(0)));
        assert_eq!(recs[2].payload, vec![5u8; 40]);
    }

    #[test]
    fn extract_with_chunk_map() {
        let chunk = sample_chunk();
        let mut map = ChunkMap::new(5);
        map.push_version(VersionId(0), [0, 2]);
        map.push_version(VersionId(2), [1, 2, 4]);
        let v0 = extract_version_records(&chunk, &map, VersionId(0)).unwrap();
        assert_eq!(v0.len(), 2);
        assert!(v0.iter().all(|r| r.origin == VersionId(0)));
        let v2 = extract_version_records(&chunk, &map, VersionId(2)).unwrap();
        assert_eq!(v2.len(), 3);
        // A version the chunk map does not know yields nothing.
        assert!(extract_version_records(&chunk, &map, VersionId(7))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn extract_all_returns_every_member() {
        let chunk = sample_chunk();
        let recs = extract_all(&chunk).unwrap();
        assert_eq!(recs.len(), 5);
        // Same order and contents as extracting every ordinal.
        let via_locals = extract_from_iter(&chunk, 0..5).unwrap();
        assert_eq!(recs, via_locals);
    }

    #[test]
    fn extract_from_iter_avoids_decoding_untouched_subchunks() {
        let chunk = sample_chunk();
        // Only sub-chunk 1 (local 2) is touched.
        let recs = extract_from_iter(&chunk, [2usize]).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].pk, 2);
    }

    #[test]
    fn repeated_extraction_shares_decoded_payloads() {
        let chunk = sample_chunk();
        let a = extract_from_iter(&chunk, [0]).unwrap();
        let b = extract_from_iter(&chunk, [0]).unwrap();
        // Memoized decode: both extractions see the same buffer.
        assert_eq!(a[0].payload.as_ptr(), b[0].payload.as_ptr());
    }

    #[test]
    fn a_damaged_sub_chunk_fails_only_the_reads_that_touch_it() {
        // Sub-chunk 1 (local 2) does not decode: its first LZ token
        // has a bad tag.
        let mut chunk = sample_chunk();
        chunk.subchunks[1].payload.to_mut()[1] = 0x77;
        // Locals 0, 1, 3 and 4 live in sub-chunks 0 and 2.
        let recs = extract_from_iter(&chunk, [0, 1, 3, 4]).unwrap();
        assert_eq!(recs.len(), 4);
        assert!(matches!(
            extract_from_iter(&chunk, [1, 2]),
            Err(CoreError::Codec(_))
        ));
        // The sub-chunks that did decode are memoized.
        let memo = chunk.subchunks[2].decode().unwrap();
        assert_eq!(recs[3].payload.as_ptr(), memo[1].as_ptr());
    }

    #[test]
    fn out_of_range_local_is_error() {
        let chunk = sample_chunk();
        assert!(extract_from_iter(&chunk, [99]).is_err());
    }

    #[test]
    fn empty_locals_cheap() {
        let chunk = sample_chunk();
        assert!(extract_from_iter(&chunk, []).unwrap().is_empty());
    }
}
