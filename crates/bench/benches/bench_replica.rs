//! Replica-aware read-routing benchmark: what the planner's
//! least-loaded-replica assignment buys at replication 3 over the
//! first-live assignment, on a skewed hot-span workload over a 6-node
//! sleeping-LAN cluster.
//!
//! Run with `cargo bench -p rstore-bench --bench bench_replica`.
//! The baseline is the same store on a replication-1 cluster: with one
//! copy per key every key of a hot span lands on its first ring
//! replica — exactly the first-live choice at replication 3 — so the
//! tallest node batch, the scatter-gather critical path which
//! `QueryStats::modeled_network` takes the max over, stays as skewed as
//! the hash happens to fall. At replication 3 the planner assigns each
//! key to the least-loaded live member of its replica set, flattening
//! the batches across the copies. The acceptance summary asserts that
//! the critical-path modeled network shrinks by at least 1.2x and the
//! max node batch drops, and emits `BENCH_replica.json` at the
//! workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use rstore_bench::{fmt_duration, json_ms, report, LatencyHist, Xorshift};
use rstore_core::model::VersionId;
use rstore_core::partition::PartitionerKind;
use rstore_core::plan::QuerySpec;
use rstore_core::store::RStore;
use rstore_kvstore::{Cluster, NetworkModel};
use rstore_vgraph::{Dataset, DatasetSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nodes in the simulated cluster.
const NODES: usize = 6;
/// Copies per key: the headroom the planner spreads across.
const REPLICATION: usize = 3;
/// Small chunks so a version spans enough chunks to fan out.
const CHUNK_CAPACITY: usize = 2048;
/// Queries in the acceptance workload.
const QUERIES: usize = 24;
/// Fraction of queries (out of 8) hitting the hot version.
const HOT_IN_8: usize = 6;

fn dataset() -> Dataset {
    let mut spec = DatasetSpec::tiny(0xBEEF);
    spec.num_versions = 50;
    spec.root_records = 260;
    spec.update_frac = 0.15;
    spec.record_size = 128;
    spec.generate()
}

/// A loaded store over a sleeping-LAN cluster holding `replication`
/// copies per key, with the cache disabled so every query pays the
/// full routed fetch path.
fn build_store(dataset: &Dataset, replication: usize) -> RStore {
    let cluster = Cluster::builder()
        .nodes(NODES)
        .replication(replication)
        .network(NetworkModel::lan())
        .build();
    let store = RStore::builder()
        .chunk_capacity(CHUNK_CAPACITY)
        .partitioner(PartitionerKind::BottomUp { beta: usize::MAX })
        .cache_budget(0)
        .build(cluster);
    store.load_dataset(dataset).unwrap();
    store
}

/// The version with the widest span — the workload's hot spot.
fn hot_version(store: &RStore) -> VersionId {
    (0..store.version_count() as u32)
        .map(VersionId)
        .max_by_key(|&v| store.version_span(v))
        .expect("non-empty store")
}

/// The skewed workload: mostly the hot version, a uniform trickle of
/// the rest.
fn workload_version(rng: &mut Xorshift, hot: VersionId, n: usize) -> VersionId {
    if rng.below(8) < HOT_IN_8 {
        hot
    } else {
        VersionId(rng.below(n) as u32)
    }
}

fn run_query(store: &RStore, v: VersionId) -> usize {
    let plan = store.plan_query(QuerySpec::Version(v)).unwrap();
    let executed = store.execute(plan).unwrap();
    executed.into_stream().drain().unwrap().len()
}

fn bench_routing_modes(c: &mut Criterion) {
    let ds = dataset();
    let first_live = build_store(&ds, 1);
    let balanced = build_store(&ds, REPLICATION);
    let hot = hot_version(&first_live);

    let mut g = c.benchmark_group(format!(
        "hot_span_{NODES}node_r{REPLICATION}_lan"
    ));
    g.bench_function("first_live", |b| {
        b.iter(|| black_box(run_query(&first_live, hot)))
    });
    g.bench_function("balanced", |b| {
        b.iter(|| black_box(run_query(&balanced, hot)))
    });
    g.finish();
}

/// Per-store acceptance sample over the same skewed query sequence.
/// `sum_max_node_batch` / `sum_nodes_contacted` are summed over the
/// workload's queries (per-query values would drown in ties).
struct RoutingSample {
    mean_latency: Duration,
    modeled_network: Duration,
    sum_max_node_batch: usize,
    sum_nodes_contacted: usize,
    /// Per-query wall-latency distribution (buckets ride in the JSON).
    latencies: LatencyHist,
}

fn sample(store: &RStore, hot: VersionId) -> RoutingSample {
    let n = store.version_count();
    let mut rng = Xorshift::new(17);
    let mut modeled = Duration::ZERO;
    let mut max_batch = 0usize;
    let mut nodes = 0usize;
    let latencies = LatencyHist::new();
    let t0 = Instant::now();
    for _ in 0..QUERIES {
        let v = workload_version(&mut rng, hot, n);
        let q0 = Instant::now();
        let plan = store.plan_query(QuerySpec::Version(v)).unwrap();
        max_batch += plan.max_node_batch();
        let executed = store.execute(plan).unwrap();
        modeled += executed.metrics.modeled_network;
        nodes += executed.metrics.nodes_contacted;
        black_box(executed.into_stream().drain().unwrap().len());
        latencies.record(q0.elapsed());
    }
    RoutingSample {
        mean_latency: t0.elapsed() / QUERIES as u32,
        modeled_network: modeled,
        sum_max_node_batch: max_batch,
        sum_nodes_contacted: nodes,
        latencies,
    }
}

/// Direct acceptance measurement + machine-readable emission.
fn acceptance_summary(_c: &mut Criterion) {
    let ds = dataset();
    let first_live = build_store(&ds, 1);
    let balanced = build_store(&ds, REPLICATION);
    let hot = hot_version(&first_live);

    let fl = sample(&first_live, hot);
    let bal = sample(&balanced, hot);
    let modeled_ratio = fl.modeled_network.as_secs_f64()
        / bal.modeled_network.as_secs_f64().max(f64::MIN_POSITIVE);
    let latency_ratio = fl.mean_latency.as_secs_f64()
        / bal.mean_latency.as_secs_f64().max(f64::MIN_POSITIVE);

    println!(
        "\n## replica routing acceptance ({NODES}-node cluster, replication 1 (first-live) vs \
         {REPLICATION} (balanced), sleeping LAN, {QUERIES} skewed queries)\n\
         hot version                 : {hot} (span {} chunks)\n\
         first-live: mean latency {}, modeled network {}, summed max node batch {} keys, summed nodes {}\n\
         balanced  : mean latency {}, modeled network {}, summed max node batch {} keys, summed nodes {}\n\
         modeled network ratio       : {modeled_ratio:.2}x (target >= 1.2x)\n\
         wall-clock latency ratio    : {latency_ratio:.2}x",
        first_live.version_span(hot),
        fmt_duration(fl.mean_latency),
        fmt_duration(fl.modeled_network),
        fl.sum_max_node_batch,
        fl.sum_nodes_contacted,
        fmt_duration(bal.mean_latency),
        fmt_duration(bal.modeled_network),
        bal.sum_max_node_batch,
        bal.sum_nodes_contacted,
    );

    report(
        "replica",
        &[
            ("nodes", NODES.to_string()),
            ("replication", REPLICATION.to_string()),
            ("queries", QUERIES.to_string()),
            ("hot_span_chunks", first_live.version_span(hot).to_string()),
            ("modeled_network_first_live_ms", json_ms(fl.modeled_network)),
            ("modeled_network_balanced_ms", json_ms(bal.modeled_network)),
            ("modeled_ratio", format!("{modeled_ratio:.3}")),
            ("sum_max_node_batch_first_live", fl.sum_max_node_batch.to_string()),
            ("sum_max_node_batch_balanced", bal.sum_max_node_batch.to_string()),
            ("mean_latency_first_live_ms", json_ms(fl.mean_latency)),
            ("mean_latency_balanced_ms", json_ms(bal.mean_latency)),
            ("latency_ratio", format!("{latency_ratio:.3}")),
            ("first_live_buckets_us", fl.latencies.buckets_json()),
            ("balanced_buckets_us", bal.latencies.buckets_json()),
        ],
    );

    // Acceptance: spreading over the copies must flatten the critical path.
    // (Wall-clock latency follows the modeled max but carries
    // scheduler noise, so it is reported rather than asserted.)
    assert!(
        bal.sum_max_node_batch < fl.sum_max_node_batch,
        "balanced routing must shrink the summed max node batch: \
         {} -> {}",
        fl.sum_max_node_batch,
        bal.sum_max_node_batch
    );
    assert!(
        modeled_ratio >= 1.2,
        "balanced routing must cut critical-path modeled network by >= 1.2x, \
         got {modeled_ratio:.2}x"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_millis(400));
    targets = bench_routing_modes, acceptance_summary
}
criterion_main!(benches);
