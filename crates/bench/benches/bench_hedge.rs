//! Hedged-read tail-latency acceptance: one spiky replica on a
//! 6-node sleeping LAN, hedged vs unhedged point-read p99.
//!
//! Run with `cargo bench -p rstore-bench --bench bench_hedge`.
//!
//! Node 0 is scripted to sleep an extra [`SPIKE`] on a deterministic
//! fraction of its requests — the classic tail-at-scale adversary: a
//! replica that is usually fine and occasionally awful, which per-node
//! routing cannot dodge (its average looks healthy) and which sets
//! the p99 of every query whose keys it owns. With replication 3
//! every key has two clean replicas standing by:
//!
//! * **unhedged** — the PR 7 executor: a spiked batch holds its whole
//!   round hostage; the query's p99 converges on `SPIKE`.
//! * **hedged** — [`StoreConfig::hedge`]: when a round's straggler
//!   exceeds `factor ×` the node's per-key service EWMA (floored
//!   at `min`), the unserved keys are re-issued to an untried replica
//!   as a backup pool job and the first answer wins. The spike is
//!   cut to roughly the hedge delay plus one clean round trip.
//!
//! Both modes answer the identical deterministic workload with zero
//! failed queries, and the digest of both answer sets must match —
//! the tail win cannot come from dropping or changing data. The gate
//! asserts hedged point-read p99 is at least [`P99_TARGET`]x better
//! on hosts with 3+ cores (report-only below, where a starved fetch
//! pool can't overlap the backup with the straggler). Results go to
//! the gitignored `BENCH_hedge.json`, with the query-layer
//! hedge/hedge-win counters and the slow node's service EWMA
//! proving the win came from the new layer.

use criterion::{criterion_group, criterion_main, Criterion};
use rstore_bench::{fmt_duration, json_us, percentile, report, LatencyHist};
use rstore_core::model::VersionId;
use rstore_core::plan::HedgeConfig;
use rstore_core::store::RStore;
use rstore_core::QuerySpec;
use rstore_kvstore::{Cluster, FaultPlan, FaultRule, NetworkModel};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Nodes in the simulated cluster.
const NODES: usize = 6;
/// Replicas per key: two clean fallbacks behind the spiky node.
const REPLICATION: usize = 3;
/// Closed-loop client threads. Enough for a meaningful p99 sample
/// (CLIENTS x QUERIES_PER_CLIENT x ROUNDS per mode) without drowning
/// the spike signal in queueing noise.
const CLIENTS: usize = 6;
/// Point reads each client issues per measured round.
const QUERIES_PER_CLIENT: usize = 48;
/// Interleaved measurement rounds per mode (alternating order, same
/// drift defense as `bench_throughput`).
const ROUNDS: usize = 3;
/// Extra sleep injected on the slow node's spiked requests.
const SPIKE: Duration = Duration::from_millis(6);
/// Fraction of the slow node's requests that spike. Low enough that
/// its EWMA stays near the healthy service time (so the hedge
/// threshold stays tight), high enough that the p99 feels it.
const SPIKE_PROB: f64 = 0.10;
/// Required hedged-over-unhedged point p99 improvement on 3+ cores.
const P99_TARGET: f64 = 1.3;
/// Small chunks so point reads stay single-chunk (span 1).
const CHUNK_CAPACITY: usize = 2048;

fn dataset() -> rstore_vgraph::Dataset {
    let mut spec = rstore_vgraph::DatasetSpec::tiny(0x4ED6E);
    spec.num_versions = 20;
    spec.root_records = 300;
    spec.update_frac = 0.25;
    spec.record_size = 128;
    spec.generate()
}

fn build_store(hedged: bool) -> RStore {
    let cluster = Cluster::builder()
        .nodes(NODES)
        .replication(REPLICATION)
        // The sleeping LAN: base service time is really slept, so the
        // injected spikes — also slept — are real wall-clock events a
        // backup batch genuinely races.
        .network(NetworkModel::lan())
        // The adversary: a deterministic seeded spike plan on node 0
        // only. Latency-only — nothing can fail, so zero failed
        // queries is a hard assertion, not luck.
        .faults(
            FaultPlan::new(0xBEEF)
                .rule(FaultRule::latency(SPIKE).on_node(0).with_probability(SPIKE_PROB)),
        )
        .build();
    let mut builder = RStore::builder()
        .chunk_capacity(CHUNK_CAPACITY)
        // Cache disabled: every read pays its fetch, keeping the
        // executor's backend behaviour the thing under test.
        .cache_budget(0)
        .max_concurrent_queries(NODES + 2);
    if hedged {
        builder = builder.hedge(HedgeConfig {
            factor: 2.0,
            min: Duration::from_micros(1500),
        });
    }
    let store = builder.build(cluster);
    store.load_dataset(&dataset()).unwrap();
    store
}

/// One client's deterministic point-read sequence — identical across
/// modes so both stores answer the exact same workload.
fn client_ops(client: usize, versions: u32) -> Vec<(u64, VersionId)> {
    (0..QUERIES_PER_CLIENT)
        .map(|q| {
            let v = VersionId(((client * 29 + q * 11 + 5) as u32) % versions);
            let pk = ((client * 19 + q * 7) % 280) as u64;
            (pk, v)
        })
        .collect()
}

#[derive(Default)]
struct ModeSample {
    latencies: Vec<Duration>,
    hedges: usize,
    hedge_wins: usize,
    records: usize,
    /// Order-independent digest of every answered byte: both modes
    /// must produce the same value.
    digest: u64,
    failed: usize,
}

impl ModeSample {
    fn merge(&mut self, other: ModeSample) {
        self.latencies.extend(other.latencies);
        self.hedges += other.hedges;
        self.hedge_wins += other.hedge_wins;
        self.records += other.records;
        self.digest = self.digest.wrapping_add(other.digest);
        self.failed += other.failed;
    }
}

fn record_digest(pk: u64, origin: u32, payload: &[u8]) -> u64 {
    // FNV-1a over the record, folded in order-independently (sum), so
    // concurrent clients and hedge-reordered rounds digest equally.
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    };
    pk.to_le_bytes().into_iter().for_each(&mut eat);
    origin.to_le_bytes().into_iter().for_each(&mut eat);
    payload.iter().copied().for_each(&mut eat);
    h
}

fn run_mode(store: &Arc<RStore>) -> ModeSample {
    let versions = store.version_count() as u32;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let store = Arc::clone(store);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut sample = ModeSample::default();
                barrier.wait();
                for (pk, v) in client_ops(c, versions) {
                    let t = Instant::now();
                    match store.query_with_stats(QuerySpec::Record { pk, v }) {
                        Ok((records, stats)) => {
                            sample.latencies.push(t.elapsed());
                            sample.hedges += stats.hedges;
                            sample.hedge_wins += stats.hedge_wins;
                            sample.records += records.len();
                            for r in &records {
                                sample.digest = sample.digest.wrapping_add(record_digest(
                                    r.pk,
                                    r.origin.0,
                                    &r.payload,
                                ));
                            }
                        }
                        Err(_) => sample.failed += 1,
                    }
                }
                sample
            })
        })
        .collect();
    let mut merged = ModeSample::default();
    for client in clients {
        merged.merge(client.join().unwrap());
    }
    merged
}

fn acceptance_summary(_c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plain = Arc::new(build_store(false));
    let hedged = Arc::new(build_store(true));

    // Warm both stores (starts the fetch pools, seeds node 0's EWMA
    // so the hedge threshold reflects observed service time).
    drop(run_mode(&plain));
    drop(run_mode(&hedged));

    let mut base = ModeSample::default();
    let mut hedge = ModeSample::default();
    for round in 0..ROUNDS {
        let hedged_first = round % 2 == 1;
        if hedged_first {
            hedge.merge(run_mode(&hedged));
            base.merge(run_mode(&plain));
        } else {
            base.merge(run_mode(&plain));
            hedge.merge(run_mode(&hedged));
        }
    }
    base.latencies.sort_unstable();
    hedge.latencies.sort_unstable();

    // Hard acceptance on any host: nothing failed, nothing diverged.
    assert_eq!(base.failed, 0, "unhedged queries failed under latency-only faults");
    assert_eq!(hedge.failed, 0, "hedged queries failed under latency-only faults");
    assert_eq!(
        base.records, hedge.records,
        "hedging changed the answered record count"
    );
    assert_eq!(
        base.digest, hedge.digest,
        "hedging changed answer bytes — first-answer-wins leaked a duplicate or a torn read"
    );
    assert!(hedge.hedges > 0, "the spiky node never triggered a hedge");
    assert!(hedge.hedge_wins > 0, "no backup batch beat its straggler");
    assert_eq!(base.hedges, 0, "the unhedged store must report zero hedges");

    let (base_p50, base_p99) = (
        percentile(&base.latencies, 0.50),
        percentile(&base.latencies, 0.99),
    );
    let (hedge_p50, hedge_p99) = (
        percentile(&hedge.latencies, 0.50),
        percentile(&hedge.latencies, 0.99),
    );
    let p99_speedup = base_p99.as_secs_f64() / hedge_p99.as_secs_f64().max(f64::MIN_POSITIVE);
    let slow_node = &hedged.cluster().node_stats()[0];

    println!(
        "\n## hedged-read acceptance ({NODES}-node sleeping LAN, replication {REPLICATION}, \
         node 0 spikes +{} at p={SPIKE_PROB}, {CLIENTS} clients x {QUERIES_PER_CLIENT} reads x \
         {ROUNDS} rounds, {cores} core(s))\n\
         unhedged : point p50 {} / p99 {}\n\
         hedged   : point p50 {} / p99 {} ({} hedges, {} wins)\n\
         p99 gain : {p99_speedup:.2}x (target >= {P99_TARGET}x on 3+ cores)\n\
         slow node: EWMA {} over {} scored batches, error rate {:.3}",
        fmt_duration(SPIKE),
        fmt_duration(base_p50),
        fmt_duration(base_p99),
        fmt_duration(hedge_p50),
        fmt_duration(hedge_p99),
        hedge.hedges,
        hedge.hedge_wins,
        fmt_duration(slow_node.ewma_service),
        slow_node.batches,
        slow_node.error_rate,
    );

    let asserted = cores >= 3;
    let buckets = |latencies: &[Duration]| {
        let h = LatencyHist::new();
        h.record_all(latencies);
        h.buckets_json()
    };
    report(
        "hedge",
        &[
            ("nodes", NODES.to_string()),
            ("replication", REPLICATION.to_string()),
            ("clients", CLIENTS.to_string()),
            ("queries_per_client", QUERIES_PER_CLIENT.to_string()),
            ("rounds", ROUNDS.to_string()),
            ("cores", cores.to_string()),
            ("spike_ms", format!("{:.1}", SPIKE.as_secs_f64() * 1e3)),
            ("spike_prob", SPIKE_PROB.to_string()),
            ("unhedged_p50_us", json_us(base_p50)),
            ("unhedged_p99_us", json_us(base_p99)),
            ("hedged_p50_us", json_us(hedge_p50)),
            ("hedged_p99_us", json_us(hedge_p99)),
            ("p99_speedup", format!("{p99_speedup:.3}")),
            ("p99_target", P99_TARGET.to_string()),
            ("asserted", asserted.to_string()),
            ("hedges", hedge.hedges.to_string()),
            ("hedge_wins", hedge.hedge_wins.to_string()),
            ("records_per_mode", hedge.records.to_string()),
            ("failed_queries", (base.failed + hedge.failed).to_string()),
            ("slow_node_ewma_us", json_us(slow_node.ewma_service)),
            ("slow_node_batches", slow_node.batches.to_string()),
            ("unhedged_buckets_us", buckets(&base.latencies)),
            ("hedged_buckets_us", buckets(&hedge.latencies)),
        ],
    );

    if asserted {
        assert!(
            p99_speedup >= P99_TARGET,
            "hedged point-read p99 must be >= {P99_TARGET}x better than unhedged \
             against the spiky replica on {cores} cores, got {p99_speedup:.2}x"
        );
    } else {
        println!("(report-only: {cores} core(s) < 3, p99 assertion skipped)");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_millis(400));
    targets = acceptance_summary
}
criterion_main!(benches);
