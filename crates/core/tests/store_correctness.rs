//! End-to-end correctness of the RStore layer: every query class is
//! checked against the materialization oracle, for every partitioning
//! algorithm, with and without record-level compression.

use rstore_core::model::VersionId;
use rstore_core::partition::PartitionerKind;
use rstore_core::store::RStore;
use rstore_core::QuerySpec;
use rstore_kvstore::Cluster;
use rstore_vgraph::{Dataset, DatasetSpec, MaterializedVersions, RecordStore};

fn build_store(kind: PartitionerKind, k: usize, capacity: usize) -> RStore {
    let cluster = Cluster::builder().nodes(3).replication(2).build();
    RStore::builder()
        .chunk_capacity(capacity)
        .max_subchunk(k)
        .partitioner(kind)
        .build(cluster)
}

fn oracle(ds: &Dataset) -> (RecordStore, MaterializedVersions) {
    let store = ds.record_store();
    let m = ds.materialize(&store);
    (store, m)
}

/// Checks all four query classes of §2.1 against the oracle.
fn check_all_queries(store: &RStore, ds: &Dataset) {
    let (rstore, m) = oracle(ds);
    let num_versions = ds.graph.len();

    // Q1: full version retrieval, every version.
    for vi in 0..num_versions {
        let v = VersionId(vi as u32);
        let got = store.get_version(v).unwrap();
        let expect = m.contents(v);
        assert_eq!(got.len(), expect.len(), "version {v} cardinality");
        for (rec, &(pk, ord)) in got.iter().zip(expect) {
            assert_eq!(rec.pk, pk, "version {v} key order");
            assert_eq!(rec.origin, rstore.key(ord).origin, "version {v} origin");
            assert_eq!(rec.payload, rstore.payload(ord), "version {v} payload");
        }
    }

    // Q2: range retrieval on a few versions and ranges.
    for vi in [0usize, num_versions / 2, num_versions - 1] {
        let v = VersionId(vi as u32);
        for (lo, hi) in [(0u64, 10u64), (5, 25), (0, u64::MAX), (1000, 2000)] {
            let got = store.get_range(lo, hi, v).unwrap();
            let expect = m.range(v, lo, hi);
            assert_eq!(got.len(), expect.len(), "range [{lo},{hi}] in {v}");
            for (rec, &(pk, ord)) in got.iter().zip(expect) {
                assert_eq!(rec.pk, pk);
                assert_eq!(rec.payload, rstore.payload(ord));
            }
        }
    }

    // Q3 + point queries: for a sample of keys.
    let max_pk = rstore.keys().iter().map(|ck| ck.pk).max().unwrap();
    for pk in (0..=max_pk).step_by((max_pk as usize / 7).max(1)) {
        // Record retrieval in a few versions.
        for vi in [0usize, num_versions / 3, num_versions - 1] {
            let v = VersionId(vi as u32);
            let got = store.get_record(pk, v).unwrap();
            match m.lookup(v, pk) {
                Some(ord) => {
                    let rec = got.unwrap_or_else(|| panic!("K{pk} missing from {v}"));
                    assert_eq!(rec.payload, rstore.payload(ord));
                    assert_eq!(rec.composite_key(), rstore.key(ord));
                }
                None => assert!(got.is_none(), "K{pk} must be absent from {v}"),
            }
        }
        // Evolution: all distinct records with this pk.
        let got = store.get_evolution(pk).unwrap();
        let expect: Vec<_> = rstore
            .keys()
            .iter()
            .enumerate()
            .filter(|(_, ck)| ck.pk == pk)
            .collect();
        assert_eq!(got.len(), expect.len(), "evolution of K{pk}");
        for (rec, (ord, ck)) in got.iter().zip(&expect) {
            assert_eq!(rec.composite_key(), **ck);
            assert_eq!(rec.payload, rstore.payload(*ord as u32));
        }
    }
}

fn spec_branched() -> DatasetSpec {
    let mut spec = DatasetSpec::tiny(42);
    spec.num_versions = 40;
    spec.root_records = 60;
    spec.record_size = 120;
    spec
}

#[test]
fn bottom_up_answers_all_queries() {
    let ds = spec_branched().generate();
    let store = build_store(PartitionerKind::BottomUp { beta: usize::MAX }, 1, 2048);
    store.load_dataset(&ds).unwrap();
    check_all_queries(&store, &ds);
}

#[test]
fn bottom_up_with_beta_answers_all_queries() {
    let ds = spec_branched().generate();
    let store = build_store(PartitionerKind::BottomUp { beta: 4 }, 1, 2048);
    store.load_dataset(&ds).unwrap();
    check_all_queries(&store, &ds);
}

#[test]
fn shingle_answers_all_queries() {
    let ds = spec_branched().generate();
    let store = build_store(PartitionerKind::Shingle { num_hashes: 4 }, 1, 2048);
    store.load_dataset(&ds).unwrap();
    check_all_queries(&store, &ds);
}

#[test]
fn depth_first_answers_all_queries() {
    let ds = spec_branched().generate();
    let store = build_store(PartitionerKind::DepthFirst, 1, 2048);
    store.load_dataset(&ds).unwrap();
    check_all_queries(&store, &ds);
}

#[test]
fn breadth_first_answers_all_queries() {
    let ds = spec_branched().generate();
    let store = build_store(PartitionerKind::BreadthFirst, 1, 2048);
    store.load_dataset(&ds).unwrap();
    check_all_queries(&store, &ds);
}

#[test]
fn subchunk_baseline_answers_all_queries() {
    let ds = spec_branched().generate();
    let store = build_store(PartitionerKind::SubchunkBaseline, 1, 2048);
    store.load_dataset(&ds).unwrap();
    check_all_queries(&store, &ds);
}

#[test]
fn single_address_answers_all_queries() {
    let mut spec = spec_branched();
    spec.num_versions = 20;
    spec.root_records = 30;
    let ds = spec.generate();
    let store = build_store(PartitionerKind::SingleAddress, 1, 2048);
    store.load_dataset(&ds).unwrap();
    check_all_queries(&store, &ds);
}

#[test]
fn compression_k5_answers_all_queries() {
    let mut spec = spec_branched();
    spec.pd = 0.05;
    let ds = spec.generate();
    let store = build_store(PartitionerKind::BottomUp { beta: usize::MAX }, 5, 2048);
    let report = store.load_dataset(&ds).unwrap();
    assert!(report.compression_ratio() > 1.0);
    check_all_queries(&store, &ds);
}

#[test]
fn compression_k25_on_chain_answers_all_queries() {
    let mut spec = DatasetSpec::tiny_chain(43);
    spec.num_versions = 50;
    spec.root_records = 40;
    spec.pd = 0.02;
    spec.record_size = 256;
    spec.update_frac = 0.3;
    let ds = spec.generate();
    let store = build_store(PartitionerKind::BottomUp { beta: usize::MAX }, 25, 4096);
    let report = store.load_dataset(&ds).unwrap();
    assert!(
        report.compression_ratio() > 2.0,
        "expected real compression on low-Pd chain, got {:.2}",
        report.compression_ratio()
    );
    check_all_queries(&store, &ds);
}

#[test]
fn load_report_is_consistent() {
    let ds = spec_branched().generate();
    let store = build_store(PartitionerKind::BottomUp { beta: usize::MAX }, 1, 2048);
    let report = store.load_dataset(&ds).unwrap();
    assert_eq!(report.num_chunks, store.chunk_count());
    assert_eq!(report.total_version_span, store.total_version_span());
    assert_eq!(report.num_records, ds.record_store().len());
    assert!(report.raw_bytes >= report.compressed_bytes / 4);
    assert!(store.storage_bytes() > 0);
    let (vbytes, kbytes) = store.index_bytes();
    assert!(vbytes > 0 && kbytes > 0);
}

#[test]
fn loading_twice_fails() {
    let ds = spec_branched().generate();
    let store = build_store(PartitionerKind::DepthFirst, 1, 2048);
    store.load_dataset(&ds).unwrap();
    assert!(store.load_dataset(&ds).is_err());
}

#[test]
fn unknown_version_is_an_error() {
    let ds = spec_branched().generate();
    let store = build_store(PartitionerKind::DepthFirst, 1, 2048);
    store.load_dataset(&ds).unwrap();
    assert!(store.get_version(VersionId(9999)).is_err());
    assert!(store.get_record(0, VersionId(9999)).is_err());
}

#[test]
fn stats_reflect_span_and_usefulness() {
    let ds = spec_branched().generate();
    let store = build_store(PartitionerKind::BottomUp { beta: usize::MAX }, 1, 2048);
    store.load_dataset(&ds).unwrap();
    let v = VersionId(10);
    let (records, stats) = store.query_with_stats(QuerySpec::Version(v)).unwrap();
    assert_eq!(stats.records, records.len());
    assert_eq!(stats.chunks_fetched, store.version_span(v));
    assert!(stats.chunks_useful <= stats.chunks_fetched);
    assert!(stats.chunks_useful > 0);
    assert!(stats.bytes_fetched > 0);
}

#[test]
fn evolution_returns_versions_in_order() {
    let ds = spec_branched().generate();
    let store = build_store(PartitionerKind::BottomUp { beta: usize::MAX }, 1, 2048);
    store.load_dataset(&ds).unwrap();
    let evo = store.get_evolution(0).unwrap();
    assert!(!evo.is_empty());
    for w in evo.windows(2) {
        assert!(w[0].origin < w[1].origin, "evolution must be ordered");
    }
}
