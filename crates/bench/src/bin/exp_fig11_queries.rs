//! Fig. 11: query-processing performance on datasets A0 and C0.
//!
//! Q1 (full version), Q2 (range) and Q3 (record evolution) against a
//! random workload, for BOTTOM-UP / DFS / SHINGLE with max sub-chunk
//! size k ∈ {1, 2, 5, 12, 25} and the DELTA engine at k = 1 (intra-
//! record compression is impossible for DELTA, §5.4). SUBCHUNK is
//! reported separately as in the paper's captions.
//!
//! Shapes to reproduce: BOTTOM-UP fastest on Q1/Q2; DELTA's Q2 ≥ its
//! Q1 (reconstruct then filter); Q3 improves with k (fewer chunks per
//! key history) and SUBCHUNK wins Q3 outright.

use rstore_bench::{
    fmt_duration, fmt_ingest_stages, make_cached_store, make_store, print_table, scaled,
    LatencyHist, Xorshift, CHUNK_CAPACITY,
};
use rstore_core::model::VersionId;
use rstore_core::{HistSummary, QuerySpec};
use rstore_core::partition::baselines::DeltaEngine;
use rstore_core::partition::PartitionerKind;
use rstore_core::store::RStore;
use rstore_kvstore::{Cluster, NetworkModel};
use rstore_vgraph::gen::presets;
use rstore_vgraph::Dataset;
use std::time::Instant;

const NODES: usize = 4;
const Q1_SAMPLES: usize = 12;
const Q2_SAMPLES: usize = 30;
const Q3_SAMPLES: usize = 30;

struct QueryTimes {
    q1: HistSummary,
    q2: HistSummary,
    q3: HistSummary,
}

/// Renders one query class as `mean (p50 / p99)` — the per-sample
/// distribution comes from the shared PR 9 latency histogram.
fn fmt_class(s: &HistSummary) -> String {
    format!(
        "{} (p50 {} / p99 {})",
        fmt_duration(s.mean),
        fmt_duration(s.p50),
        fmt_duration(s.p99)
    )
}

/// Runs the three query workloads against a loaded store with the
/// given version/key selectors; returns (wall + modeled network) per
/// query class, averaged. `QueryStats::modeled_network` is already
/// the max over the parallel node batches (the scatter-gather
/// executor's critical path), so it adds in directly — no ad-hoc
/// division by the node count.
fn run_workload_with(
    store: &RStore,
    max_pk: u64,
    seed: u64,
    mut pick_version: impl FnMut(&mut Xorshift) -> VersionId,
    mut pick_q3_pk: impl FnMut(&mut Xorshift) -> u64,
) -> QueryTimes {
    let mut rng = Xorshift::new(seed);

    let q1 = LatencyHist::new();
    for _ in 0..Q1_SAMPLES {
        let v = pick_version(&mut rng);
        let (_, stats) = store.query_with_stats(QuerySpec::Version(v)).unwrap();
        q1.record(stats.elapsed + stats.modeled_network);
    }

    let q2 = LatencyHist::new();
    for _ in 0..Q2_SAMPLES {
        let v = pick_version(&mut rng);
        let lo = rng.below(max_pk as usize) as u64;
        let hi = lo + max_pk / 10;
        let (_, stats) = store.query_with_stats(QuerySpec::Range { lo, hi, v }).unwrap();
        q2.record(stats.elapsed + stats.modeled_network);
    }

    let q3 = LatencyHist::new();
    for _ in 0..Q3_SAMPLES {
        let pk = pick_q3_pk(&mut rng);
        let (_, stats) = store.query_with_stats(QuerySpec::Evolution { pk }).unwrap();
        q3.record(stats.elapsed + stats.modeled_network);
    }

    QueryTimes {
        q1: q1.summary(),
        q2: q2.summary(),
        q3: q3.summary(),
    }
}

/// The paper's uniform-random Fig-11 workload.
fn run_workload(store: &RStore, dataset: &Dataset, max_pk: u64) -> QueryTimes {
    let n = dataset.graph.len();
    run_workload_with(
        store,
        max_pk,
        4242,
        move |rng| VersionId(rng.below(n) as u32),
        move |rng| rng.below(max_pk as usize) as u64,
    )
}

/// The Fig-11 workload with a skewed version-access pattern: 80% of
/// queries hit the newest 10% of versions, and Q3 targets a hot key
/// subset.
fn run_skewed_workload(store: &RStore, dataset: &Dataset, max_pk: u64) -> QueryTimes {
    let n = dataset.graph.len();
    let hot = (n / 10).max(1);
    run_workload_with(
        store,
        max_pk,
        2424,
        move |rng| {
            if rng.below(10) < 8 {
                VersionId((n - 1 - rng.below(hot)) as u32)
            } else {
                VersionId(rng.below(n) as u32)
            }
        },
        move |rng| rng.below((max_pk as usize) / 4) as u64,
    )
}

fn main() {
    println!("# Experiment: Fig. 11 query processing (Q1/Q2/Q3)");
    let kinds = [
        PartitionerKind::BottomUp { beta: usize::MAX },
        PartitionerKind::DepthFirst,
        PartitionerKind::Shingle { num_hashes: 4 },
    ];
    let ks = [1usize, 2, 5, 12, 25];

    for base in [presets::a0(), presets::c0()] {
        let mut spec = scaled(base);
        spec.record_size = 256;
        spec.pd = 0.05;
        let dataset = spec.generate();
        let max_pk = dataset
            .record_store()
            .keys()
            .iter()
            .map(|ck| ck.pk)
            .max()
            .unwrap_or(1);
        println!(
            "\n=== dataset {} ({} versions, {} unique records) ===",
            spec.name,
            dataset.graph.len(),
            dataset.record_store().len()
        );

        let mut rows = Vec::new();
        let mut ingest_rows = Vec::new();
        for kind in kinds {
            for &k in &ks {
                let store =
                    make_store(NODES, kind, k, CHUNK_CAPACITY, NetworkModel::lan_virtual());
                let report = store.load_dataset(&dataset).unwrap();
                let times = run_workload(&store, &dataset, max_pk);
                rows.push(vec![
                    kind.name().to_string(),
                    k.to_string(),
                    fmt_class(&times.q1),
                    fmt_class(&times.q2),
                    fmt_class(&times.q3),
                    format!("{:.2}x", report.compression_ratio()),
                ]);
                // Bulk-load observability at the largest k: where the
                // write-path time went, per pipeline stage.
                if k == *ks.last().unwrap() {
                    ingest_rows.push(format!(
                        "  {:<10} load {} — {}",
                        kind.name(),
                        fmt_duration(report.total_time),
                        fmt_ingest_stages(&report.stages)
                    ));
                }
            }
        }

        // DELTA at k = 1 only (no intra-record compression possible).
        {
            let cluster = Cluster::builder()
                .nodes(NODES)
                .network(NetworkModel::lan_virtual())
                .build();
            let engine = DeltaEngine::load(&dataset, &cluster).unwrap();
            let n = dataset.graph.len();
            let mut rng = Xorshift::new(4242);
            // DELTA reports the same max-over-parallel-node-batches
            // modeled time as the RStore rows (`DeltaQueryResult`),
            // keeping the table apples-to-apples.
            let q1 = LatencyHist::new();
            for _ in 0..Q1_SAMPLES {
                let v = VersionId(rng.below(n) as u32);
                let t0 = Instant::now();
                let modeled = engine.get_version(&cluster, v).unwrap().modeled_network;
                q1.record(t0.elapsed() + modeled);
            }
            let q2 = LatencyHist::new();
            for _ in 0..Q2_SAMPLES {
                let v = VersionId(rng.below(n) as u32);
                let lo = rng.below(max_pk as usize) as u64;
                let t0 = Instant::now();
                let modeled = engine
                    .get_range(&cluster, lo, lo + max_pk / 10, v)
                    .unwrap()
                    .modeled_network;
                q2.record(t0.elapsed() + modeled);
            }
            rows.push(vec![
                "DELTA".into(),
                "1".into(),
                fmt_class(&q1.summary()),
                fmt_class(&q2.summary()),
                "impractical".into(),
                "-".into(),
            ]);
        }

        // SUBCHUNK caption numbers.
        {
            let store = make_store(
                NODES,
                PartitionerKind::SubchunkBaseline,
                usize::MAX,
                CHUNK_CAPACITY,
                NetworkModel::lan_virtual(),
            );
            store.load_dataset(&dataset).unwrap();
            let times = run_workload(&store, &dataset, max_pk);
            rows.push(vec![
                "SUBCHUNK".into(),
                "all".into(),
                fmt_class(&times.q1),
                fmt_class(&times.q2),
                fmt_class(&times.q3),
                "-".into(),
            ]);
        }

        print_table(
            &format!(
                "Fig. 11 ({}): query time mean (p50 / p99), wall + modeled network",
                spec.name
            ),
            &["algorithm", "k", "Q1 full version", "Q2 range", "Q3 evolution", "compression"],
            &rows,
        );
        println!("\nbulk-load ingest pipeline at k = {}:", ks.last().unwrap());
        for line in &ingest_rows {
            println!("{line}");
        }

        // Cache-aware variant: the same Q1/Q2/Q3 workload but with a
        // *skewed* version-access pattern (80% of queries target the
        // newest 10% of versions — the serving-layer hot set) against
        // the decoded-chunk cache disabled vs. enabled.
        let mut cache_rows = Vec::new();
        for (label, budget) in [("cache off", 0usize), ("cache 64MB", 64 << 20)] {
            let store = make_cached_store(
                NODES,
                PartitionerKind::BottomUp { beta: usize::MAX },
                1,
                CHUNK_CAPACITY,
                NetworkModel::lan_virtual(),
                budget,
            );
            store.load_dataset(&dataset).unwrap();
            let times = run_skewed_workload(&store, &dataset, max_pk);
            let cache = store.cache_stats();
            cache_rows.push(vec![
                label.to_string(),
                fmt_class(&times.q1),
                fmt_class(&times.q2),
                fmt_class(&times.q3),
                format!("{:.0}%", cache.hit_rate() * 100.0),
                format!("{}/{}", cache.hits, cache.misses),
            ]);
        }
        print_table(
            &format!(
                "Fig. 11 ({}) + decoded-chunk cache: skewed version access, BOTTOM-UP k=1",
                spec.name
            ),
            &["config", "Q1 full version", "Q2 range", "Q3 evolution", "hit rate", "hits/misses"],
            &cache_rows,
        );
    }
    println!(
        "\nShape check (paper): BOTTOM-UP lowest Q1/Q2; DELTA Q2 ≥ DELTA Q1; \
         Q3 falls as k grows; SUBCHUNK worst Q1/Q2 and best Q3."
    );
}
