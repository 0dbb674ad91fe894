//! The serving core's bounded-threads contract, measured as the
//! process's OS thread count. That count is process-wide, so this file
//! holds the one test that reads it: any sibling test running in the
//! same process would move it (see `serve.rs` for the rest of the
//! serving-core suite).

use rstore_core::model::VersionId;
use rstore_core::store::RStore;
use rstore_kvstore::{Cluster, NetworkModel};
use rstore_vgraph::{Dataset, DatasetSpec};
use std::sync::{Arc, Barrier};

fn dataset(seed: u64, versions: usize, roots: usize) -> Dataset {
    let mut spec = DatasetSpec::tiny(seed);
    spec.num_versions = versions;
    spec.root_records = roots;
    spec.update_frac = 0.25;
    spec.record_size = 96;
    spec.generate()
}

/// Counts this process's OS threads (Linux: /proc/self/status).
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// 64 concurrent clients, explicit 4-worker pool: total fetch
/// threads stay bounded by the pool size — the process never grows
/// beyond clients + pool + cluster threads, where the old executor
/// would have spawned up to `clients × nodes` extra.
#[test]
fn fetch_threads_bounded_under_64_concurrent_queries() {
    const CLIENTS: usize = 64;
    let ds = dataset(99, 16, 100);
    let cluster = Cluster::builder()
        .nodes(6)
        .network(NetworkModel::lan_virtual())
        .build();
    let store = RStore::builder()
        .chunk_capacity(1024)
        .cache_budget(0)
        .fetch_threads(4)
        .build(cluster);
    store.load_dataset(&ds).unwrap();
    let versions = ds.graph.len() as u32;

    // Warm query: starts the pool so the baseline thread count
    // includes it.
    store.get_version(VersionId(0)).unwrap();
    assert_eq!(store.serve_stats().pool_size, 4, "explicit fetch_threads honoured");

    let store = Arc::new(store);
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for q in 0..4u32 {
                    let v = VersionId((c as u32 + q * 7) % versions);
                    let records = store.get_version(v).unwrap();
                    assert!(!records.is_empty() || v.0 == 0);
                }
            })
        })
        .collect();
    barrier.wait();
    let baseline = os_threads();
    let mut peak = 0usize;
    while clients.iter().any(|c| !c.is_finished()) {
        if let Some(n) = os_threads() {
            peak = peak.max(n);
        }
        std::thread::yield_now();
    }
    for c in clients {
        c.join().unwrap();
    }

    if let (Some(baseline), true) = (baseline, peak > 0) {
        // Small slack: the OS may briefly account a exiting client
        // twice; the old executor's per-query spawns would exceed
        // this by hundreds.
        assert!(
            peak <= baseline + 8,
            "thread count grew from {baseline} to {peak} under {CLIENTS} clients: \
             fetch work is not bounded by the pool"
        );
    }

    let stats = store.serve_stats();
    assert_eq!(stats.pool_size, 4);
    assert!(stats.jobs_run > 0, "no batch jobs reached the pool");
    assert!(stats.peak_in_flight >= 2, "clients never overlapped");
    assert!(stats.peak_in_flight <= CLIENTS + 1);
    assert_eq!(stats.shed, 0, "generous defaults must not shed");
}
