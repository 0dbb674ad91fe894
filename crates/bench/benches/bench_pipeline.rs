//! Scatter-gather fetch benchmark: serial vs. node-parallel execution
//! of the same query plans on a multi-node cluster with a *sleeping*
//! LAN network model (250 µs per request + per-byte time, actually
//! slept by the serving node thread).
//!
//! Run with `cargo bench -p rstore-bench --bench bench_pipeline`.
//! The serial baseline walks the plan's node batches one after
//! another (`RStore::execute_serial`); the parallel executor runs one
//! scoped thread per node (`RStore::execute`). The final summary
//! measures the mean-latency speedup — the acceptance target is at
//! least 2x on a cluster of 4+ nodes — and shows the max-over-nodes
//! vs. sum-over-nodes modeled network accounting.

use criterion::{criterion_group, criterion_main, Criterion};
use rstore_bench::{fmt_duration, make_store, Xorshift};
use rstore_core::model::VersionId;
use rstore_core::partition::PartitionerKind;
use rstore_core::plan::QuerySpec;
use rstore_core::store::RStore;
use rstore_kvstore::NetworkModel;
use rstore_vgraph::{Dataset, DatasetSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nodes in the simulated cluster (acceptance: >= 4).
const NODES: usize = 6;
/// Small chunks so a version spans enough chunks to fan out.
const CHUNK_CAPACITY: usize = 2048;

fn dataset() -> Dataset {
    let mut spec = DatasetSpec::tiny(31337);
    spec.num_versions = 60;
    spec.root_records = 200;
    spec.update_frac = 0.15;
    spec.record_size = 128;
    spec.generate()
}

/// A loaded store over a sleeping-LAN cluster with the cache
/// disabled, so every query pays the full fetch path.
fn build_store(dataset: &Dataset) -> RStore {
    let store = make_store(
        NODES,
        PartitionerKind::BottomUp { beta: usize::MAX },
        1,
        CHUNK_CAPACITY,
        NetworkModel::lan(),
    );
    store.load_dataset(dataset).unwrap();
    store
}

fn run_query(store: &RStore, v: VersionId, parallel: bool) -> usize {
    let plan = store.plan_query(QuerySpec::Version(v)).unwrap();
    let executed = if parallel {
        store.execute(plan).unwrap()
    } else {
        store.execute_serial(plan).unwrap()
    };
    executed.into_stream().drain().unwrap().len()
}

fn bench_fetch_modes(c: &mut Criterion) {
    let ds = dataset();
    let store = build_store(&ds);
    let n = ds.graph.len();

    let mut g = c.benchmark_group(format!("version_retrieval_{NODES}node_lan"));
    g.bench_function("serial_fetch", |b| {
        let mut rng = Xorshift::new(5);
        b.iter(|| {
            let v = VersionId(rng.below(n) as u32);
            black_box(run_query(&store, v, false))
        })
    });
    g.bench_function("parallel_fetch", |b| {
        let mut rng = Xorshift::new(5);
        b.iter(|| {
            let v = VersionId(rng.below(n) as u32);
            black_box(run_query(&store, v, true))
        })
    });
    g.finish();
}

/// Direct acceptance measurement over a fixed query sequence.
fn acceptance_summary(_c: &mut Criterion) {
    const QUERIES: usize = 24;
    let ds = dataset();
    let store = build_store(&ds);
    let n = ds.graph.len();

    let mean_of = |parallel: bool| -> Duration {
        let mut rng = Xorshift::new(99);
        let t0 = Instant::now();
        for _ in 0..QUERIES {
            let v = VersionId(rng.below(n) as u32);
            black_box(run_query(&store, v, parallel));
        }
        t0.elapsed() / QUERIES as u32
    };

    let mean_serial = mean_of(false);
    let mean_parallel = mean_of(true);
    let speedup = mean_serial.as_secs_f64() / mean_parallel.as_secs_f64().max(f64::MIN_POSITIVE);

    // Fan-out evidence from one representative query, and its backend
    // bill: one key per cold chunk (Table 1), so a regression to
    // fetching chunk maps beside the blobs fails here too.
    let v = VersionId((n - 1) as u32);
    let plan = store.plan_query(QuerySpec::Version(v)).unwrap();
    let span = plan.span() as u64;
    let gets_before = store.cluster().stats().gets;
    let parallel = store.execute(plan).unwrap().metrics;
    let keys_fetched = store.cluster().stats().gets - gets_before;
    let serial = store
        .execute_serial(store.plan_query(QuerySpec::Version(v)).unwrap())
        .unwrap()
        .metrics;
    println!(
        "\n## pipeline acceptance ({NODES}-node cluster, sleeping LAN model, {QUERIES} queries)\n\
         mean latency serial fetch  : {}\n\
         mean latency parallel fetch: {}\n\
         speedup                    : {speedup:.2}x (target >= 2x)\n\
         nodes contacted            : {} (max node batch {} keys)\n\
         backend keys fetched       : {keys_fetched} for a span of {span} chunks\n\
         modeled network max-over-nodes: {} (parallel) vs sum {} (serial)",
        fmt_duration(mean_serial),
        fmt_duration(mean_parallel),
        parallel.nodes_contacted,
        parallel.max_node_batch,
        fmt_duration(parallel.modeled_network),
        fmt_duration(serial.modeled_network),
    );
    assert!(
        parallel.nodes_contacted >= 2,
        "fan-out too small to measure a scatter-gather win"
    );
    assert_eq!(
        keys_fetched, span,
        "a cold query must fetch one backend key per chunk it spans"
    );
    assert!(
        speedup >= 2.0,
        "parallel fetch must be >= 2x over serial on {NODES} nodes, got {speedup:.2}x"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_millis(400));
    targets = bench_fetch_modes, acceptance_summary
}
criterion_main!(benches);
