//! Integration tests for the decoded-chunk cache: query results must
//! be identical at every budget (disabled, tiny with evictions,
//! unbounded), cached entries must be invalidated when online ingest
//! rewrites a chunk map, and concurrent readers must share `&RStore`
//! safely.

use rstore_core::model::VersionId;
use rstore_core::partition::PartitionerKind;
use rstore_core::store::{CommitRequest, RStore};
use rstore_core::QuerySpec;
use rstore_kvstore::Cluster;
use rstore_vgraph::{Dataset, DatasetSpec};

fn test_dataset(seed: u64) -> Dataset {
    let mut spec = DatasetSpec::tiny(seed);
    spec.num_versions = 40;
    spec.root_records = 80;
    spec.record_size = 96;
    spec.generate()
}

fn loaded_store(dataset: &Dataset, cache_budget: usize) -> RStore {
    let cluster = Cluster::builder().nodes(2).build();
    let store = RStore::builder()
        .chunk_capacity(2048)
        .partitioner(PartitionerKind::BottomUp { beta: usize::MAX })
        .cache_budget(cache_budget)
        .build(cluster);
    store.load_dataset(dataset).unwrap();
    store
}

/// Snapshot of every query class over every version.
fn full_query_surface(store: &RStore) -> Vec<(u64, VersionId, Vec<u8>)> {
    let mut out = Vec::new();
    for v in 0..store.version_count() {
        let v = VersionId(v as u32);
        for rec in store.get_version(v).unwrap() {
            out.push((rec.pk, rec.origin, rec.payload.to_vec()));
        }
        for rec in store.get_range(5, 40, v).unwrap() {
            out.push((rec.pk, rec.origin, rec.payload.to_vec()));
        }
    }
    for pk in 0..20u64 {
        for rec in store.get_evolution(pk).unwrap() {
            out.push((rec.pk, rec.origin, rec.payload.to_vec()));
        }
        if let Some(rec) = store.get_record(pk, VersionId(0)).unwrap() {
            out.push((rec.pk, rec.origin, rec.payload.to_vec()));
        }
    }
    out
}

#[test]
fn results_identical_across_budgets() {
    let dataset = test_dataset(101);
    // Budget 0 (off), tiny (evicts constantly), unbounded.
    let disabled = loaded_store(&dataset, 0);
    let tiny = loaded_store(&dataset, 16 * 1024);
    let unbounded = loaded_store(&dataset, usize::MAX / 2);

    let baseline = full_query_surface(&disabled);
    assert_eq!(baseline, full_query_surface(&tiny));
    assert_eq!(baseline, full_query_surface(&unbounded));

    // The disabled cache never counts; the others saw traffic.
    let off = disabled.cache_stats();
    assert_eq!((off.hits, off.misses, off.resident_chunks), (0, 0, 0));
    let tiny_stats = tiny.cache_stats();
    assert!(tiny_stats.misses > 0);
    assert!(
        tiny_stats.evictions > 0,
        "a 16KB budget must evict on this workload (resident {} bytes)",
        tiny_stats.resident_bytes
    );
    let unbounded_stats = unbounded.cache_stats();
    assert!(unbounded_stats.hits > 0, "repeated queries must hit");
    assert_eq!(unbounded_stats.evictions, 0);
}

#[test]
fn query_stats_report_hits_and_misses() {
    let dataset = test_dataset(31);
    let store = loaded_store(&dataset, usize::MAX / 2);
    let v = VersionId(10);
    let (_, cold) = store.query_with_stats(QuerySpec::Version(v)).unwrap();
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_misses, cold.chunks_fetched);
    assert!(cold.bytes_fetched > 0);

    let (_, warm) = store.query_with_stats(QuerySpec::Version(v)).unwrap();
    assert_eq!(warm.cache_hits, warm.chunks_fetched);
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(warm.bytes_fetched, 0, "hits must not move bytes");
}

#[test]
fn flush_batch_invalidates_rewritten_chunks() {
    let cluster = Cluster::builder().nodes(2).build();
    let store = RStore::builder()
        .chunk_capacity(4096)
        .batch_size(1) // flush every commit
        .cache_budget(usize::MAX / 2)
        .build(cluster);

    let root = store
        .commit(CommitRequest::root(
            (0u64..30).map(|pk| (pk, vec![pk as u8; 64])),
        ))
        .unwrap();
    // Warm the cache on the root version.
    let before = store.get_version(root).unwrap();
    assert_eq!(before.len(), 30);
    assert!(store.cache_stats().resident_chunks > 0);

    // A child commit updates a key; flush rewrites the touched chunk
    // maps, and the first probe past the publish must drop the stale
    // cached pairs.
    let child = store
        .commit(CommitRequest::child_of(root).update(3, vec![0xAB; 64]))
        .unwrap();

    // The child version is visible through the (re-fetched) chunks...
    let after = store.get_version(child).unwrap();
    assert!(
        store.cache_stats().invalidations > 0,
        "rewritten chunk maps must invalidate cached entries"
    );
    let rec = after.iter().find(|r| r.pk == 3).unwrap();
    assert_eq!(rec.payload, vec![0xAB; 64]);
    assert_eq!(rec.origin, child);
    // ...and the parent still reads its original value.
    let parent = store.get_version(root).unwrap();
    let rec = parent.iter().find(|r| r.pk == 3).unwrap();
    assert_eq!(rec.payload, vec![3u8; 64]);
}

#[test]
fn concurrent_readers_get_consistent_results() {
    let dataset = test_dataset(77);
    let store = loaded_store(&dataset, 256 * 1024);
    let expected = {
        let uncached = loaded_store(&dataset, 0);
        (0..uncached.version_count())
            .map(|v| uncached.get_version(VersionId(v as u32)).unwrap())
            .collect::<Vec<_>>()
    };

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let store = &store;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..30 {
                    let v = (t * 13 + round * 7) % store.version_count();
                    let got = store.get_version(VersionId(v as u32)).unwrap();
                    let want = &expected[v];
                    assert_eq!(got.len(), want.len(), "version {v} length");
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(g.pk, w.pk);
                        assert_eq!(g.origin, w.origin);
                        assert_eq!(g.payload, w.payload);
                    }
                }
            });
        }
    });
    let stats = store.cache_stats();
    assert!(stats.hits > 0, "concurrent reads should share the cache");
}

#[test]
fn reopen_with_cache_preserves_contents() {
    let dir = std::env::temp_dir().join(format!("rstore-cache-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dataset = test_dataset(55);
    let config = {
        let cluster = Cluster::builder()
            .nodes(2)
            .engine(rstore_kvstore::EngineKind::Log { dir: dir.clone() })
            .build();
        let store = RStore::builder()
            .chunk_capacity(2048)
            .cache_budget(1 << 20)
            .build(cluster);
        store.load_dataset(&dataset).unwrap();
        *store.config()
    };
    // Restart over the same directory; reopen warms the cache.
    let cluster = Cluster::builder()
        .nodes(2)
        .engine(rstore_kvstore::EngineKind::Log { dir: dir.clone() })
        .build();
    let store = RStore::reopen(config, cluster).unwrap();
    assert!(store.cache_stats().resident_chunks > 0);
    let uncached = loaded_store(&dataset, 0);
    for v in 0..store.version_count() {
        let v = VersionId(v as u32);
        assert_eq!(store.get_version(v).unwrap(), uncached.get_version(v).unwrap());
    }
    let _ = std::fs::remove_dir_all(dir);
}
