//! Baseline layouts from paper §2.2 and Table 1.
//!
//! * [`SubchunkBaseline`] — group **all** records with the same
//!   primary key into one chunk ("sub-chunk approach"). Best storage
//!   and record-evolution performance; version retrieval must touch
//!   essentially every chunk.
//! * [`SingleAddressBaseline`] — store every record separately under
//!   its composite key ("single address space"). Ideal ingest, no
//!   compression, and maximal query counts.
//!
//! The DELTA delta-chain comparator of Figs. 8 and 11 is not a
//! partitioner; it lives with the experiments in the bench crate.

use super::{PartitionInput, Partitioner, Partitioning};
use rustc_hash::FxHashMap;

/// The SUBCHUNK baseline: one chunk per primary key.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubchunkBaseline;

impl Partitioner for SubchunkBaseline {
    fn partition(&self, input: &PartitionInput<'_>) -> Partitioning {
        let mut chunk_of_pk: FxHashMap<u64, u32> = FxHashMap::default();
        let mut chunk_of = Vec::with_capacity(input.num_items());
        let mut next = 0u32;
        for &pk in input.item_pk {
            let c = *chunk_of_pk.entry(pk).or_insert_with(|| {
                let c = next;
                next += 1;
                c
            });
            chunk_of.push(c);
        }
        Partitioning {
            chunk_of,
            num_chunks: next as usize,
        }
    }

    fn name(&self) -> &'static str {
        "SUBCHUNK"
    }
}

/// The single-address-space baseline: one chunk per record.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleAddressBaseline;

impl Partitioner for SingleAddressBaseline {
    fn partition(&self, input: &PartitionInput<'_>) -> Partitioning {
        let n = input.num_items();
        Partitioning {
            chunk_of: (0..n as u32).collect(),
            num_chunks: n,
        }
    }

    fn name(&self) -> &'static str {
        "SINGLE-ADDRESS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::testutil;
    use rstore_vgraph::DatasetSpec;

    #[test]
    fn subchunk_groups_by_pk() {
        let bundle = testutil::from_spec(&DatasetSpec::tiny(9));
        let input = bundle.input();
        let p = SubchunkBaseline.partition(&input);
        // Same pk ⇒ same chunk; different pk ⇒ different chunk.
        for i in 0..input.num_items() {
            for j in (i + 1)..input.num_items() {
                let same_pk = input.item_pk[i] == input.item_pk[j];
                let same_chunk = p.chunk_of[i] == p.chunk_of[j];
                assert_eq!(same_pk, same_chunk, "items {i},{j}");
            }
        }
    }

    #[test]
    fn single_address_gives_one_chunk_per_record() {
        let bundle = testutil::from_spec(&DatasetSpec::tiny(10));
        let input = bundle.input();
        let p = SingleAddressBaseline.partition(&input);
        assert_eq!(p.num_chunks, input.num_items());
        let mut sorted = p.chunk_of.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), input.num_items());
    }

    #[test]
    fn subchunk_span_is_maximal() {
        // Version retrieval under SUBCHUNK touches one chunk per live
        // key — far more than a capacity-packed layout.
        let bundle = testutil::from_spec(&DatasetSpec::tiny(11));
        let input = bundle.input();
        let sub = SubchunkBaseline.partition(&input);
        let packed =
            crate::partition::traversal::TraversalPartitioner::depth_first(4096).partition(&input);
        let sub_span = testutil::total_span(&input, &sub);
        let packed_span = testutil::total_span(&input, &packed);
        assert!(
            sub_span > packed_span * 3,
            "subchunk span {sub_span} vs packed {packed_span}"
        );
    }

    #[test]
    fn names() {
        assert_eq!(SubchunkBaseline.name(), "SUBCHUNK");
        assert_eq!(SingleAddressBaseline.name(), "SINGLE-ADDRESS");
    }
}
