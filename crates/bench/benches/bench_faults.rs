//! Self-healing-writes benchmark: flush + query latency under the
//! canned flaky plan ([`FaultPlan::flaky`]) with client retries on
//! vs. off, against a fault-free baseline.
//!
//! Run with `cargo bench -p rstore-bench --bench bench_faults`.
//! The flaky plan refuses ~10% of requests transiently and serves
//! another ~10% with 1 ms of extra latency on every node of a 3-node
//! replication-2 virtual-LAN cluster. With retries enabled the
//! cluster absorbs every transient fault in place — the acceptance
//! summary asserts **zero failed operations** end to end and that the
//! modeled-time inflation versus the fault-free twin stays bounded
//! (< 3x). With retries disabled the same plan surfaces errors; their
//! count is reported (and emitted to `BENCH_faults.json`) but not
//! asserted, since reads may still heal by failing over to the
//! second replica.

use criterion::{criterion_group, criterion_main, Criterion};
use rstore_bench::{fmt_duration, json_ms, report, LatencyHist};
use rstore_core::model::VersionId;
use rstore_core::partition::PartitionerKind;
use rstore_core::store::RStore;
use rstore_core::QuerySpec;
use rstore_kvstore::{Cluster, FaultPlan, NetworkModel, RetryPolicy};
use rstore_vgraph::{Dataset, DatasetSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nodes in the simulated cluster.
const NODES: usize = 3;
/// Copies per key: gives reads a failover target when a replica is
/// refusing requests.
const REPLICATION: usize = 2;
/// Small chunks so flushes and queries scatter across many requests.
const CHUNK_CAPACITY: usize = 2048;
/// Seed for the flaky plan (and its per-node RNG streams).
const FAULT_SEED: u64 = 0xFA17;
/// Full passes over every version in the acceptance query sweep:
/// enough requests that the 10% flaky plan reliably fires.
const SWEEPS: usize = 3;

/// How the cluster under measurement is configured.
#[derive(Clone, Copy, PartialEq)]
enum Setup {
    /// No faults, default retries: the baseline.
    Calm,
    /// Flaky plan + generous retries: must fully self-heal.
    FlakyRetry,
    /// Flaky plan, retries disabled: errors surface to the caller.
    FlakyNoRetry,
}

fn dataset() -> Dataset {
    let mut spec = DatasetSpec::tiny(0xFA17);
    spec.num_versions = 24;
    spec.root_records = 220;
    spec.update_frac = 0.2;
    spec.record_size = 128;
    spec.generate()
}

fn build_cluster(setup: Setup) -> Cluster {
    let mut b = Cluster::builder()
        .nodes(NODES)
        .replication(REPLICATION)
        .network(NetworkModel::lan_virtual());
    match setup {
        Setup::Calm => {}
        Setup::FlakyRetry => {
            // Deeper retry budget than the default: at fault
            // probability 0.1 per request, eight tries push the
            // residual failure odds per op to ~1e-8, so the
            // zero-failed-ops assertion is robust to scheduling
            // nondeterminism in which request draws which fault.
            b = b.faults(FaultPlan::flaky(FAULT_SEED)).retry(RetryPolicy {
                max_attempts: 8,
                per_op_timeout: Duration::from_millis(200),
                ..RetryPolicy::default()
            });
        }
        Setup::FlakyNoRetry => {
            b = b.faults(FaultPlan::flaky(FAULT_SEED)).retry(RetryPolicy::none());
        }
    }
    b.build()
}

fn build_store(setup: Setup) -> RStore {
    RStore::builder()
        .chunk_capacity(CHUNK_CAPACITY)
        .partitioner(PartitionerKind::BottomUp { beta: usize::MAX })
        .cache_budget(0)
        .build(build_cluster(setup))
}

/// Everything one configuration's end-to-end run produces.
struct FaultSample {
    ingest_wall: Duration,
    ingest_failed: bool,
    query_wall: Duration,
    queries_failed: usize,
    queries_total: usize,
    records: usize,
    query_retries: usize,
    query_failovers: usize,
    modeled_time: Duration,
    faults_injected: u64,
    cluster_retries: u64,
    /// Per-query wall-latency distribution (buckets ride in the JSON).
    latencies: LatencyHist,
}

/// Loads the dataset and sweeps every version once, tallying failures
/// instead of unwrapping: the no-retry configuration is *expected* to
/// surface errors.
fn sample(setup: Setup, ds: &Dataset) -> FaultSample {
    let store = build_store(setup);
    let t0 = Instant::now();
    let ingest_failed = store.load_dataset(ds).is_err();
    let ingest_wall = t0.elapsed();

    let n = store.version_count();
    let mut queries_failed = 0usize;
    let mut records = 0usize;
    let mut query_retries = 0usize;
    let mut query_failovers = 0usize;
    let latencies = LatencyHist::new();
    let t1 = Instant::now();
    for _ in 0..SWEEPS {
        for v in 0..n as u32 {
            let q0 = Instant::now();
            match store.query_with_stats(QuerySpec::Version(VersionId(v))) {
                Ok((recs, stats)) => {
                    records += recs.len();
                    query_retries += stats.retries;
                    query_failovers += stats.failovers;
                }
                Err(_) => queries_failed += 1,
            }
            latencies.record(q0.elapsed());
        }
    }
    let query_wall = t1.elapsed();
    let snap = store.cluster().stats();
    FaultSample {
        ingest_wall,
        ingest_failed,
        query_wall,
        queries_failed,
        queries_total: n * SWEEPS,
        records,
        query_retries,
        query_failovers,
        modeled_time: snap.modeled_time,
        faults_injected: snap.faults_injected,
        cluster_retries: snap.retries,
        latencies,
    }
}

fn bench_fault_modes(c: &mut Criterion) {
    let ds = dataset();
    let calm = {
        let s = build_store(Setup::Calm);
        s.load_dataset(&ds).unwrap();
        s
    };
    let flaky = {
        let s = build_store(Setup::FlakyRetry);
        s.load_dataset(&ds).unwrap();
        s
    };
    let last = VersionId(calm.version_count() as u32 - 1);

    let mut g = c.benchmark_group(format!("faults_{NODES}node_r{REPLICATION}_virtual"));
    g.bench_function("flush_calm", |b| {
        b.iter(|| {
            let s = build_store(Setup::Calm);
            black_box(s.load_dataset(&ds).unwrap());
        })
    });
    g.bench_function("flush_flaky_retry", |b| {
        b.iter(|| {
            let s = build_store(Setup::FlakyRetry);
            black_box(s.load_dataset(&ds).unwrap());
        })
    });
    g.bench_function("query_calm", |b| {
        b.iter(|| black_box(calm.get_version(last).unwrap().len()))
    });
    g.bench_function("query_flaky_retry", |b| {
        b.iter(|| black_box(flaky.get_version(last).unwrap().len()))
    });
    g.finish();
}

/// Direct acceptance measurement + machine-readable emission.
fn acceptance_summary(_c: &mut Criterion) {
    let ds = dataset();
    let calm = sample(Setup::Calm, &ds);
    let retry = sample(Setup::FlakyRetry, &ds);
    let raw = sample(Setup::FlakyNoRetry, &ds);

    let inflation = retry.modeled_time.as_secs_f64()
        / calm.modeled_time.as_secs_f64().max(f64::MIN_POSITIVE);
    let raw_failed = raw.queries_failed + usize::from(raw.ingest_failed);

    println!(
        "\n## fault-injection acceptance ({NODES}-node cluster, replication {REPLICATION}, \
         virtual LAN, flaky plan seed {FAULT_SEED:#x})\n\
         calm          : ingest {} (failed: {}), {} queries in {} ({} records), modeled {}\n\
         flaky+retries : ingest {} (failed: {}), {} queries in {} ({} records), modeled {}\n\
         flaky, no retry: ingest failed: {}, {}/{} queries failed, {} failovers\n\
         retries under flaky plan    : {} cluster-level ({} seen by queries), {} faults injected\n\
         modeled-time inflation      : {inflation:.2}x (target < 3x)",
        fmt_duration(calm.ingest_wall),
        calm.ingest_failed,
        calm.queries_total,
        fmt_duration(calm.query_wall),
        calm.records,
        fmt_duration(calm.modeled_time),
        fmt_duration(retry.ingest_wall),
        retry.ingest_failed,
        retry.queries_total,
        fmt_duration(retry.query_wall),
        retry.records,
        fmt_duration(retry.modeled_time),
        raw.ingest_failed,
        raw.queries_failed,
        raw.queries_total,
        raw.query_failovers,
        retry.cluster_retries,
        retry.query_retries,
        retry.faults_injected,
    );

    report(
        "faults",
        &[
            ("nodes", NODES.to_string()),
            ("replication", REPLICATION.to_string()),
            ("fault_seed", FAULT_SEED.to_string()),
            ("calm_modeled_ms", json_ms(calm.modeled_time)),
            ("flaky_retry_modeled_ms", json_ms(retry.modeled_time)),
            ("modeled_inflation", format!("{inflation:.3}")),
            ("flaky_retry_failed_ops", (retry.queries_failed + usize::from(retry.ingest_failed)).to_string()),
            ("flaky_retry_cluster_retries", retry.cluster_retries.to_string()),
            ("flaky_retry_faults_injected", retry.faults_injected.to_string()),
            ("flaky_no_retry_failed_ops", raw_failed.to_string()),
            ("flaky_no_retry_failovers", raw.query_failovers.to_string()),
            ("ingest_calm_ms", json_ms(calm.ingest_wall)),
            ("ingest_flaky_retry_ms", json_ms(retry.ingest_wall)),
            ("query_sweep_calm_ms", json_ms(calm.query_wall)),
            ("query_sweep_flaky_retry_ms", json_ms(retry.query_wall)),
            ("calm_buckets_us", calm.latencies.buckets_json()),
            ("flaky_retry_buckets_us", retry.latencies.buckets_json()),
        ],
    );

    // Acceptance: retries must fully absorb the flaky plan...
    assert!(
        !retry.ingest_failed && retry.queries_failed == 0,
        "retries enabled: no operation may fail under the flaky plan \
         (ingest failed: {}, queries failed: {})",
        retry.ingest_failed,
        retry.queries_failed
    );
    assert_eq!(
        retry.records, calm.records,
        "flaky cluster with retries must return the same records as the calm one"
    );
    assert!(
        retry.faults_injected > 0 && retry.cluster_retries > 0,
        "the plan must actually fire (injected {}, retries {})",
        retry.faults_injected,
        retry.cluster_retries
    );
    // ...at a bounded modeled-time cost (backoff charges + injected
    // latency, never wall-clock sleeps).
    assert!(
        inflation < 3.0,
        "modeled-time inflation under the flaky plan must stay < 3x, got {inflation:.2}x"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_millis(400));
    targets = bench_fault_modes, acceptance_summary
}
criterion_main!(benches);
