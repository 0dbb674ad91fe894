//! Compaction benchmark: query latency and fan-out on a long online
//! trace, before vs. after one [`RStore::compact`] run, on a
//! multi-node cluster with a *sleeping* network model so the fan-out
//! reduction is visible as real wall-clock time.
//!
//! Run with `cargo bench -p rstore-bench --bench bench_compact`.
//! The trace replays ~25 small batch flushes through the online path
//! (the §4 batching trick), which fragments the layout: many
//! under-filled chunks and growing per-version span. One compaction
//! then repartitions with the offline BOTTOM-UP algorithm. The
//! acceptance summary asserts that the measured query span and the
//! critical-path node batches *shrink*, prints the before/after
//! fragmentation and the `CompactionReport` stage breakdown, and
//! emits `BENCH_compact.json` at the workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use rstore_bench::{fmt_duration, fmt_fragmentation, LatencyHist};
use rstore_core::compact::CompactionConfig;
use rstore_core::model::VersionId;
use rstore_core::online::replay_commits;
use rstore_core::partition::PartitionerKind;
use rstore_core::store::RStore;
use rstore_core::QuerySpec;
use rstore_kvstore::{Cluster, NetworkModel};
use rstore_vgraph::{Dataset, DatasetSpec, SelectionKind};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nodes in the simulated cluster.
const NODES: usize = 6;
/// Small chunks + small batches: a realistically fragmented layout
/// after the replay (~25 flushes).
const CHUNK_CAPACITY: usize = 8 * 1024;
const BATCH_SIZE: usize = 3;

/// A sleeping fast-LAN model: every backend key fetched costs real
/// wall-clock time, so span and fan-out translate into latency.
fn network() -> NetworkModel {
    NetworkModel {
        latency: Duration::from_micros(100),
        per_byte: Duration::from_nanos(4),
        real_sleep: true,
    }
}

/// The online trace: enough commits for > 20 batch flushes.
fn dataset() -> Dataset {
    DatasetSpec {
        name: "compact-bench".into(),
        num_versions: 75,
        root_records: 120,
        branch_prob: 0.1,
        update_frac: 0.25,
        insert_frac: 0.02,
        delete_frac: 0.01,
        selection: SelectionKind::Uniform,
        record_size: 256,
        pd: 0.15,
        seed: 0xC0DE,
    }
    .generate()
}

/// Replays the trace online into a fresh store over a sleeping-LAN
/// cluster. The cache stays disabled so every query pays its real
/// span at the backend.
fn fragmented_store(ds: &Dataset) -> RStore {
    let cluster = Cluster::builder()
        .nodes(NODES)
        .network(network())
        .build();
    let store = RStore::builder()
        .chunk_capacity(CHUNK_CAPACITY)
        .partitioner(PartitionerKind::BottomUp { beta: usize::MAX })
        .batch_size(BATCH_SIZE)
        .cache_budget(0)
        .compaction(CompactionConfig {
            // Treat every not-overfull chunk as a victim: the rebuild
            // escalates to a full repartition and reproduces the
            // offline layout quality.
            min_fill: 1.1,
            ..CompactionConfig::default()
        })
        .build(cluster);
    replay_commits(&store, ds).expect("replay");
    store
}

/// Sampled full-version retrievals: mean latency plus summed span,
/// node count and critical-path batch size.
struct QuerySample {
    mean_latency: Duration,
    chunks: usize,
    nodes: usize,
    max_batches: usize,
    /// Per-query wall-latency distribution (buckets ride in the JSON).
    latencies: LatencyHist,
}

fn sample_queries(store: &RStore) -> QuerySample {
    let mut total = Duration::ZERO;
    let mut chunks = 0;
    let mut nodes = 0;
    let mut max_batches = 0;
    let mut count = 0u32;
    let latencies = LatencyHist::new();
    for v in (0..store.version_count()).step_by(5) {
        let t = Instant::now();
        let (_, stats) = store
            .query_with_stats(QuerySpec::Version(VersionId(v as u32)))
            .expect("query");
        let elapsed = t.elapsed();
        latencies.record(elapsed);
        total += elapsed;
        chunks += stats.chunks_fetched;
        nodes += stats.nodes_contacted;
        max_batches += stats.max_node_batch;
        count += 1;
    }
    QuerySample {
        mean_latency: total / count.max(1),
        chunks,
        nodes,
        max_batches,
        latencies,
    }
}

fn bench_query_modes(c: &mut Criterion) {
    let ds = dataset();
    let fragmented = fragmented_store(&ds);
    let compacted = fragmented_store(&ds);
    compacted.compact().expect("compact").expect("victims");
    let mid = VersionId((fragmented.version_count() / 2) as u32);
    let mut g = c.benchmark_group(format!("version_query_{NODES}node_sleeping_net"));
    g.bench_function("fragmented", |b| {
        b.iter(|| black_box(fragmented.get_version(mid).unwrap().len()))
    });
    g.bench_function("compacted", |b| {
        b.iter(|| black_box(compacted.get_version(mid).unwrap().len()))
    });
    g.finish();
}

/// Direct acceptance measurement + machine-readable emission.
fn acceptance_summary(_c: &mut Criterion) {
    let ds = dataset();
    let store = fragmented_store(&ds);
    let flushes = ds.graph.len() / BATCH_SIZE;
    assert!(flushes >= 20, "trace too short to fragment: {flushes} flushes");

    let before_frag = store.fragmentation_stats();
    let before = sample_queries(&store);
    let report = store
        .compact()
        .expect("compact")
        .expect("fragmented store must select victims");
    let after_frag = store.fragmentation_stats();
    let after = sample_queries(&store);

    let latency_ratio =
        before.mean_latency.as_secs_f64() / after.mean_latency.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "\n## compaction acceptance ({NODES}-node cluster, sleeping network, {flushes} flushes)\n\
         before : {}\n\
         after  : {}\n\
         queries: span {} -> {}, nodes {} -> {}, max-node-batch {} -> {}\n\
         latency: {} -> {} ({latency_ratio:.2}x)\n\
         report : {} victims -> {} chunks, {} records moved, {} rewritten B, \
         {} reclaimed B, {} keys deleted\n\
         stages : measure {} | extract {} | partition {} | rebuild {} | index {} | \
         write-blocked {} | delete {} ({} worker(s))",
        fmt_fragmentation(&before_frag),
        fmt_fragmentation(&after_frag),
        before.chunks,
        after.chunks,
        before.nodes,
        after.nodes,
        before.max_batches,
        after.max_batches,
        fmt_duration(before.mean_latency),
        fmt_duration(after.mean_latency),
        report.victims,
        report.new_chunks,
        report.records_moved,
        report.bytes_rewritten,
        report.bytes_reclaimed,
        report.keys_deleted,
        fmt_duration(report.stages.measure),
        fmt_duration(report.stages.extract),
        fmt_duration(report.stages.partition),
        fmt_duration(report.stages.rebuild),
        fmt_duration(report.stages.index),
        fmt_duration(report.stages.write),
        fmt_duration(report.stages.delete),
        report.stages.workers,
    );

    // Machine-readable trajectory record at the workspace root.
    let json = format!(
        "{{\n  \"bench\": \"bench_compact\",\n  \"nodes\": {NODES},\n  \"flushes\": {flushes},\n  \
         \"victims\": {},\n  \"new_chunks\": {},\n  \"records_moved\": {},\n  \
         \"span_before\": {},\n  \"span_after\": {},\n  \
         \"query_chunks_before\": {},\n  \"query_chunks_after\": {},\n  \
         \"max_node_batch_before\": {},\n  \"max_node_batch_after\": {},\n  \
         \"mean_latency_before_ms\": {:.3},\n  \"mean_latency_after_ms\": {:.3},\n  \
         \"latency_ratio\": {latency_ratio:.3},\n  \
         \"bytes_rewritten\": {},\n  \"bytes_reclaimed\": {},\n  \"keys_deleted\": {},\n  \
         \"before_buckets_us\": {},\n  \"after_buckets_us\": {}\n}}\n",
        report.victims,
        report.new_chunks,
        report.records_moved,
        before_frag.total_version_span,
        after_frag.total_version_span,
        before.chunks,
        after.chunks,
        before.max_batches,
        after.max_batches,
        before.mean_latency.as_secs_f64() * 1e3,
        after.mean_latency.as_secs_f64() * 1e3,
        report.bytes_rewritten,
        report.bytes_reclaimed,
        report.keys_deleted,
        before.latencies.buckets_json(),
        after.latencies.buckets_json(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compact.json");
    std::fs::write(path, json).expect("write BENCH_compact.json");
    println!("results written to {path}");

    // The acceptance assertions: fan-out must shrink. (Latency on a
    // sleeping network follows the fan-out but carries scheduler
    // noise, so it is reported rather than asserted.)
    assert!(
        after_frag.mean_version_span < before_frag.mean_version_span,
        "mean version span must shrink: {:.2} -> {:.2}",
        before_frag.mean_version_span,
        after_frag.mean_version_span
    );
    assert!(
        after.chunks < before.chunks,
        "measured query span must shrink: {} -> {}",
        before.chunks,
        after.chunks
    );
    assert!(
        after.max_batches < before.max_batches,
        "critical-path node batches must shrink: {} -> {}",
        before.max_batches,
        after.max_batches
    );
    assert!(report.keys_deleted > 0, "old generation must be reclaimed");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(2).measurement_time(Duration::from_millis(200));
    targets = bench_query_modes, acceptance_summary
}
criterion_main!(benches);
