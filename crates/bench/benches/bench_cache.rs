//! Decoded-chunk cache benchmark: a skewed repeated-version workload
//! (most queries hit the few newest versions, as real multi-user
//! traffic does) against the same loaded store with the cache
//! disabled vs. enabled.
//!
//! Run with `cargo bench --bench bench_cache`. The final summary
//! prints the measured speedup and the cache hit/miss counters from
//! `QueryStats`; the expectation is a >= 2x lower mean latency with
//! the cache on.

use criterion::{criterion_group, criterion_main, Criterion};
use rstore_bench::{make_cached_store, make_store, Xorshift, CHUNK_CAPACITY};
use rstore_core::model::VersionId;
use rstore_core::partition::PartitionerKind;
use rstore_core::store::RStore;
use rstore_core::QuerySpec;
use rstore_kvstore::NetworkModel;
use rstore_vgraph::{Dataset, DatasetSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cache budget used for the "enabled" store.
const CACHE_BUDGET: usize = 64 * 1024 * 1024;

fn skewed_dataset() -> Dataset {
    let mut spec = DatasetSpec::tiny(9090);
    spec.num_versions = 150;
    spec.root_records = 400;
    spec.branch_prob = 0.05;
    spec.update_frac = 0.1;
    spec.record_size = 192;
    spec.generate()
}

fn build_store(dataset: &Dataset, cache_budget: usize) -> RStore {
    let kind = PartitionerKind::BottomUp { beta: usize::MAX };
    let store = if cache_budget > 0 {
        make_cached_store(
            4,
            kind,
            1,
            CHUNK_CAPACITY,
            NetworkModel::lan_virtual(),
            cache_budget,
        )
    } else {
        make_store(4, kind, 1, CHUNK_CAPACITY, NetworkModel::lan_virtual())
    };
    store.load_dataset(dataset).unwrap();
    store
}

/// Zipf-ish version pick: 80% of queries hit the newest 10% of
/// versions (the "recent versions are popular" skew), the rest are
/// uniform over the whole history.
fn skewed_version(rng: &mut Xorshift, n: usize) -> VersionId {
    let hot = (n / 10).max(1);
    if rng.below(10) < 8 {
        VersionId((n - 1 - rng.below(hot)) as u32)
    } else {
        VersionId(rng.below(n) as u32)
    }
}

fn bench_skewed_versions(c: &mut Criterion) {
    let dataset = skewed_dataset();
    let off = build_store(&dataset, 0);
    let on = build_store(&dataset, CACHE_BUDGET);
    let n = dataset.graph.len();

    let mut g = c.benchmark_group("skewed_version_retrieval_150v");
    g.bench_function("cache_off", |b| {
        let mut rng = Xorshift::new(7);
        b.iter(|| {
            let v = skewed_version(&mut rng, n);
            black_box(off.get_version(v).unwrap())
        })
    });
    g.bench_function("cache_on_64m", |b| {
        let mut rng = Xorshift::new(7);
        b.iter(|| {
            let v = skewed_version(&mut rng, n);
            black_box(on.get_version(v).unwrap())
        })
    });
    g.finish();
}

fn bench_hot_key_point_gets(c: &mut Criterion) {
    let dataset = skewed_dataset();
    let off = build_store(&dataset, 0);
    let on = build_store(&dataset, CACHE_BUDGET);
    let n = dataset.graph.len();

    let mut g = c.benchmark_group("hot_key_point_get");
    g.bench_function("cache_off", |b| {
        let mut rng = Xorshift::new(11);
        b.iter(|| {
            let v = skewed_version(&mut rng, n);
            black_box(off.get_record(rng.below(32) as u64, v).unwrap())
        })
    });
    g.bench_function("cache_on_64m", |b| {
        let mut rng = Xorshift::new(11);
        b.iter(|| {
            let v = skewed_version(&mut rng, n);
            black_box(on.get_record(rng.below(32) as u64, v).unwrap())
        })
    });
    g.finish();
}

/// Direct acceptance measurement: mean latency over a fixed skewed
/// query sequence, cache off vs. on, with the hit/miss evidence.
fn acceptance_summary(_c: &mut Criterion) {
    const QUERIES: usize = 400;
    let dataset = skewed_dataset();
    let n = dataset.graph.len();

    let run = |store: &RStore| -> (Duration, usize, usize) {
        let mut rng = Xorshift::new(4242);
        let mut hits = 0usize;
        let mut misses = 0usize;
        // Warm-up pass so both configurations start from steady state.
        for _ in 0..QUERIES / 4 {
            let v = skewed_version(&mut rng, n);
            black_box(store.get_version(v).unwrap());
        }
        let t0 = Instant::now();
        for _ in 0..QUERIES {
            let v = skewed_version(&mut rng, n);
            let (recs, stats) = store.query_with_stats(QuerySpec::Version(v)).unwrap();
            black_box(recs);
            hits += stats.cache_hits;
            misses += stats.cache_misses;
        }
        (t0.elapsed() / QUERIES as u32, hits, misses)
    };

    let off = build_store(&dataset, 0);
    let on = build_store(&dataset, CACHE_BUDGET);
    let (mean_off, _, _) = run(&off);
    let (mean_on, hits, misses) = run(&on);
    let speedup = mean_off.as_secs_f64() / mean_on.as_secs_f64().max(f64::MIN_POSITIVE);
    let cache = on.cache_stats();
    println!(
        "\n## cache acceptance (skewed repeated-version workload, {QUERIES} queries)\n\
         mean latency cache-off: {mean_off:?}\n\
         mean latency cache-on : {mean_on:?}\n\
         speedup               : {speedup:.2}x (target >= 2x)\n\
         QueryStats cache hits/misses: {hits}/{misses}\n\
         cache totals: {} hits, {} misses, {} evictions, {} resident chunks",
        cache.hits, cache.misses, cache.evictions, cache.resident_chunks
    );
    assert!(
        hits > 0,
        "QueryStats must report cache hits on the warm store"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(12);
    targets = bench_skewed_versions, bench_hot_key_point_gets, acceptance_summary
}
criterion_main!(benches);
