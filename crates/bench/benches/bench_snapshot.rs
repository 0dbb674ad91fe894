//! Snapshot-isolation benchmark: reader tail latency while a
//! background compaction runs, on a sleeping-network cluster.
//!
//! Run with `cargo bench -p rstore-bench --bench bench_snapshot`.
//! Two scenarios over identically fragmented stores:
//!
//! * **snapshot-isolated** — readers call `get_version` on `&RStore`
//!   while another thread runs `compact()` on the same shared
//!   reference; every query pins the generation it was admitted at
//!   and never waits for the rebuild.
//! * **blocking baseline** — the pre-snapshot serving model, emulated
//!   with an `RwLock` around the store: queries hold a read lock,
//!   the compaction holds the write lock for its whole run (the old
//!   `&mut self` maintenance API made exactly this exclusion).
//!
//! The acceptance assertion (hosts with 3+ cores; report-only below):
//! the snapshot-isolated reader p99 during compaction stays within a
//! small multiple of the idle p99 instead of growing to the
//! compaction's wall time the way the blocking baseline does. Emits
//! `BENCH_snapshot.json` at the workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use rstore_bench::{fmt_duration, json_ms, percentile, report};
use rstore_core::compact::CompactionConfig;
use rstore_core::model::VersionId;
use rstore_core::online::replay_commits;
use rstore_core::partition::PartitionerKind;
use rstore_core::store::RStore;
use rstore_kvstore::{Cluster, NetworkModel};
use rstore_vgraph::{Dataset, DatasetSpec, SelectionKind};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

const NODES: usize = 6;
const CHUNK_CAPACITY: usize = 8 * 1024;
const BATCH_SIZE: usize = 3;
const READERS: usize = 2;

/// A sleeping fast-LAN model: fetches cost real wall-clock time, so a
/// blocked reader is really blocked.
fn network() -> NetworkModel {
    NetworkModel {
        latency: Duration::from_micros(100),
        per_byte: Duration::from_nanos(4),
        real_sleep: true,
    }
}

/// The same long online trace the compaction benchmark replays —
/// enough batch flushes to leave a layout worth compacting.
fn dataset() -> Dataset {
    DatasetSpec {
        name: "snapshot-bench".into(),
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
            min_fill: 1.1,
            ..CompactionConfig::default()
        })
        .build(cluster);
    replay_commits(&store, ds).expect("replay");
    store
}

struct Scenario {
    p50: Duration,
    p99: Duration,
    max: Duration,
    samples: usize,
    compact_wall: Duration,
}

/// Readers hammer sampled version retrievals while one compaction
/// runs. With `blocking` the old exclusive-maintenance model is
/// emulated: readers take a read lock per query, the compaction holds
/// the write lock for its whole run.
fn run_scenario(store: &RStore, blocking: bool) -> Scenario {
    let lock = RwLock::new(());
    let done = AtomicBool::new(false);
    let started = AtomicBool::new(false);
    let latencies: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
    let versions = store.version_count();
    let mut compact_wall = Duration::ZERO;
    std::thread::scope(|s| {
        for t in 0..READERS {
            let lock = &lock;
            let done = &done;
            let started = &started;
            let latencies = &latencies;
            s.spawn(move || {
                let mut mine = Vec::new();
                let mut i = t;
                while !done.load(Ordering::Acquire) {
                    let v = VersionId(((i * 7 + t) % versions) as u32);
                    i += 1;
                    let t0 = Instant::now();
                    let guard = blocking.then(|| lock.read().unwrap());
                    black_box(store.get_version(v).expect("query").len());
                    drop(guard);
                    // Queue-wait only counts once the compaction is
                    // really running (reader warm-up is excluded).
                    if started.load(Ordering::Acquire) {
                        mine.push(t0.elapsed());
                    }
                }
                latencies.lock().unwrap().extend(mine);
            });
        }
        // Let the readers spin up, then compact once.
        std::thread::sleep(Duration::from_millis(20));
        started.store(true, Ordering::Release);
        let t0 = Instant::now();
        let guard = blocking.then(|| lock.write().unwrap());
        store.compact().expect("compact").expect("victims");
        drop(guard);
        compact_wall = t0.elapsed();
        // Keep sampling briefly so post-publish queries land too.
        std::thread::sleep(Duration::from_millis(10));
        done.store(true, Ordering::Release);
    });
    let mut all = latencies.into_inner().unwrap();
    all.sort_unstable();
    Scenario {
        p50: percentile(&all, 50.0),
        p99: percentile(&all, 99.0),
        max: all.last().copied().unwrap_or_default(),
        samples: all.len(),
        compact_wall,
    }
}

/// Idle reader percentiles on the fragmented layout — the yardstick
/// the under-compaction p99 is held against.
fn idle_baseline(store: &RStore) -> (Duration, Duration) {
    let mut lat = Vec::new();
    for i in 0..60 {
        let v = VersionId(((i * 7) % store.version_count()) as u32);
        let t0 = Instant::now();
        black_box(store.get_version(v).expect("query").len());
        lat.push(t0.elapsed());
    }
    lat.sort_unstable();
    (percentile(&lat, 50.0), percentile(&lat, 99.0))
}

fn bench_reader_latency(c: &mut Criterion) {
    let ds = dataset();
    let store = fragmented_store(&ds);
    let mid = VersionId((store.version_count() / 2) as u32);
    let mut g = c.benchmark_group(format!("snapshot_reader_{NODES}node_sleeping_net"));
    g.bench_function("version_query_idle", |b| {
        b.iter(|| black_box(store.get_version(mid).unwrap().len()))
    });
    g.finish();
}

/// Direct acceptance measurement + machine-readable emission.
fn acceptance_summary(_c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ds = dataset();

    let idle_store = fragmented_store(&ds);
    let (idle_p50, idle_p99) = idle_baseline(&idle_store);

    let snap_store = fragmented_store(&ds);
    let snapshot = run_scenario(&snap_store, false);
    let block_store = fragmented_store(&ds);
    let blocking = run_scenario(&block_store, true);

    println!(
        "\n## snapshot-isolation acceptance ({NODES}-node cluster, sleeping network, {cores} core(s))\n\
         idle      : p50 {} / p99 {}\n\
         snapshot  : p50 {} / p99 {} / max {} over {} queries (compaction ran {})\n\
         blocking  : p50 {} / p99 {} / max {} over {} queries (compaction ran {})",
        fmt_duration(idle_p50),
        fmt_duration(idle_p99),
        fmt_duration(snapshot.p50),
        fmt_duration(snapshot.p99),
        fmt_duration(snapshot.max),
        snapshot.samples,
        fmt_duration(snapshot.compact_wall),
        fmt_duration(blocking.p50),
        fmt_duration(blocking.p99),
        fmt_duration(blocking.max),
        blocking.samples,
        fmt_duration(blocking.compact_wall),
    );

    // Readers racing the compaction must not stall anywhere near the
    // compaction's own wall time; a generous multiple of the idle p99
    // (plus scheduler slack) is the bound. The blocking baseline's
    // worst read sits at the compaction wall time by construction.
    let bound = idle_p99 * 6 + Duration::from_millis(25);
    let stalled = snapshot.p99 > bound;
    println!(
        "bound     : p99 under compaction {} vs {} allowed -> {}",
        fmt_duration(snapshot.p99),
        fmt_duration(bound),
        if stalled { "STALLED" } else { "ok" }
    );

    report(
        "snapshot",
        &[
            ("nodes", NODES.to_string()),
            ("cores", cores.to_string()),
            ("readers", READERS.to_string()),
            ("idle_p50_ms", json_ms(idle_p50)),
            ("idle_p99_ms", json_ms(idle_p99)),
            ("snapshot_p50_ms", json_ms(snapshot.p50)),
            ("snapshot_p99_ms", json_ms(snapshot.p99)),
            ("snapshot_max_ms", json_ms(snapshot.max)),
            ("snapshot_samples", snapshot.samples.to_string()),
            ("snapshot_compact_ms", json_ms(snapshot.compact_wall)),
            ("blocking_p50_ms", json_ms(blocking.p50)),
            ("blocking_p99_ms", json_ms(blocking.p99)),
            ("blocking_max_ms", json_ms(blocking.max)),
            ("blocking_samples", blocking.samples.to_string()),
            ("blocking_compact_ms", json_ms(blocking.compact_wall)),
            ("bound_ms", json_ms(bound)),
            ("asserted", (cores >= 3).to_string()),
        ],
    );

    // Enough parallelism for readers + compactor to really overlap;
    // below that the numbers are reported but not enforced.
    if cores >= 3 {
        assert!(
            !stalled,
            "snapshot-isolated reader p99 {} exceeded the stall bound {}",
            fmt_duration(snapshot.p99),
            fmt_duration(bound)
        );
        assert!(
            snapshot.samples > 0 && blocking.samples > 0,
            "scenarios produced no overlapping queries"
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(2).measurement_time(Duration::from_millis(200));
    targets = bench_reader_latency, acceptance_summary
}
criterion_main!(benches);
