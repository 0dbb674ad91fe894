//! Serving-core suite: the shared fetch pool and admission control.
//!
//! Three contracts are pinned here:
//!
//! 1. **Oracle equivalence** — the pooled executor answers every
//!    query byte-for-byte like the serial reference walk, including
//!    under replica failover (nodes down between planning and
//!    execution) and seeded fault plans (transient refusals healed by
//!    in-place retries composing with failover rounds).
//! 2. **Bounded threads** — fetch work runs on at most `pool_size`
//!    threads: the per-query thread spawn is gone. (The process-wide
//!    thread count under 64 clients is measured in `serve_threads.rs`,
//!    alone in its process.)
//! 3. **Admission** — the in-flight budget queues FIFO with
//!    small-span priority, measures queue wait into `QueryStats`,
//!    and sheds with `CoreError::Overloaded` when the queue is full
//!    — never a deadlock, never a lost slot.

use proptest::prelude::*;
use rstore_core::model::{Record, VersionId};
use rstore_core::plan::QuerySpec;
use rstore_core::store::RStore;
use rstore_core::{Admission, CoreError, FetchPool};
use rstore_kvstore::{Cluster, FaultPlan, FaultRule, NetworkModel, RetryPolicy};
use rstore_vgraph::{Dataset, DatasetSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

fn dataset(seed: u64, versions: usize, roots: usize) -> Dataset {
    let mut spec = DatasetSpec::tiny(seed);
    spec.num_versions = versions;
    spec.root_records = roots;
    spec.update_frac = 0.25;
    spec.record_size = 96;
    spec.generate()
}

fn loaded_store(ds: &Dataset, cluster: Cluster) -> RStore {
    let store = RStore::builder()
        .chunk_capacity(1024)
        // Cache disabled: every query must fetch, so the pool and the
        // failover machinery are exercised on each execution.
        .cache_budget(0)
        .build(cluster);
    store.load_dataset(ds).unwrap();
    store
}

fn assert_identical(a: &[Record], b: &[Record]) {
    assert_eq!(a.len(), b.len(), "record count differs");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.pk, y.pk);
        assert_eq!(x.origin, y.origin);
        assert_eq!(&x.payload[..], &y.payload[..], "payload bytes differ");
    }
}

fn sorted_records(executed: rstore_core::ExecutedQuery) -> Vec<Record> {
    let mut records = executed.into_stream().drain().unwrap();
    records.sort_unstable_by_key(|r| (r.pk, r.origin));
    records
}

// ---------------------------------------------------------------
// 1. Oracle equivalence
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pooled executor vs the serial oracle over random stores,
    /// replication 2–3, an optional node downed *after* planning
    /// (forcing mid-query failover rounds), and an optional seeded
    /// fault plan (transient refusals + latency spikes, healed by
    /// the cluster's retry policy). Both executors must succeed and
    /// agree byte for byte on every version.
    #[test]
    fn pooled_executor_matches_serial_oracle(
        data_seed in 1u64..500,
        fault_seed in 0u64..4,
        replication in 2usize..4,
        down in 0usize..5,
        versions in 8usize..14,
        roots in 60usize..140,
    ) {
        let ds = dataset(data_seed, versions, roots);
        let build_cluster = || {
            let mut b = Cluster::builder().nodes(4).replication(replication);
            if fault_seed > 0 {
                // Probabilistic faults draw differently on the two
                // executions, so the contract is not "same faults"
                // but "faults always absorbed": a deep retry budget
                // plus replication means both executors must heal to
                // the same bytes.
                b = b
                    .faults(
                        FaultPlan::new(fault_seed)
                            .rule(FaultRule::transient().with_probability(0.08))
                            .rule(
                                FaultRule::latency(Duration::from_micros(50))
                                    .with_probability(0.05),
                            ),
                    )
                    .retry(RetryPolicy {
                        max_attempts: 8,
                        per_op_timeout: Duration::from_millis(200),
                        ..RetryPolicy::default()
                    });
            }
            b.build()
        };
        let store = loaded_store(&ds, build_cluster());

        // Plan every version while healthy, then (maybe) kill one
        // node: with replication >= 2 every key keeps a live replica,
        // so both executors must fail over rather than fail.
        let pooled_plans: Vec<_> = (0..ds.graph.len())
            .map(|v| store.plan_query(QuerySpec::Version(VersionId(v as u32))).unwrap())
            .collect();
        let serial_plans: Vec<_> = (0..ds.graph.len())
            .map(|v| store.plan_query(QuerySpec::Version(VersionId(v as u32))).unwrap())
            .collect();
        if down > 0 {
            store.cluster().set_node_down(down - 1, true);
        }

        for (pooled_plan, serial_plan) in pooled_plans.into_iter().zip(serial_plans) {
            let pooled = sorted_records(store.execute(pooled_plan).unwrap());
            let serial = sorted_records(store.execute_serial(serial_plan).unwrap());
            assert_identical(&pooled, &serial);
        }
    }
}

/// Satellite bugfix pin: a node serving both a primary batch and a
/// later failover batch in the same query must count once in
/// `nodes_contacted` — admission's picture of per-query load would
/// otherwise inflate with every retry round.
#[test]
fn failover_does_not_double_count_contacted_nodes() {
    let ds = dataset(77, 20, 120);
    let cluster = Cluster::builder().nodes(3).replication(2).build();
    let store = RStore::builder()
        .chunk_capacity(1024)
        .cache_budget(0)
        .build(cluster);
    store.load_dataset(&ds).unwrap();

    // Plan while healthy so node 0 serves primary batches, then down
    // it: its keys fail over to nodes 1 and 2, which already served
    // primary batches of the same query.
    let plans: Vec<_> = (0..ds.graph.len())
        .map(|v| store.plan_query(QuerySpec::Version(VersionId(v as u32))).unwrap())
        .collect();
    store.cluster().set_node_down(0, true);

    let mut pinned = 0usize;
    for plan in plans {
        let planned_nodes = plan.nodes_contacted();
        let executed = store.execute(plan).unwrap();
        let m = &executed.metrics;
        assert!(
            m.nodes_contacted <= 3,
            "contacted {} nodes on a 3-node cluster",
            m.nodes_contacted
        );
        if planned_nodes == 3 && m.rerouted_keys > 0 {
            // All three nodes were primaries and failover re-routed
            // onto two of them: a per-round count would report > 3.
            assert_eq!(m.nodes_contacted, 3);
            pinned += 1;
        }
    }
    assert!(pinned > 0, "no query exercised failover onto already-contacted nodes");
}

// ---------------------------------------------------------------
// 2. Bounded fetch threads
// ---------------------------------------------------------------

/// The pool itself: every job runs on the fixed worker set, never on
/// extra threads, and dropping the pool drains the queue before the
/// workers exit.
#[test]
fn pool_runs_all_jobs_on_at_most_pool_size_threads() {
    let pool = FetchPool::new(4);
    assert_eq!(pool.size(), 4);
    let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..256 {
        let seen = Arc::clone(&seen);
        let ran = Arc::clone(&ran);
        pool.submit(move || {
            seen.lock().unwrap().insert(std::thread::current().id());
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    // Drop closes the run queue and joins the workers, which finish
    // every queued job first.
    drop(pool);
    assert_eq!(ran.load(Ordering::SeqCst), 256);
    let distinct = seen.lock().unwrap().len();
    assert!(
        distinct <= 4,
        "256 jobs ran on {distinct} threads, pool size is 4"
    );
}

// ---------------------------------------------------------------
// 3. Admission control
// ---------------------------------------------------------------

/// Slot accounting, shedding and FIFO + small-priority hand-over,
/// deterministically against the gate itself.
#[test]
fn admission_sheds_queues_and_prioritizes_small_spans() {
    // No queue: the second query is shed while the first holds the
    // only slot, and the slot is reusable after release.
    let adm = Admission::new(1, 0);
    let g = adm.admit(1).unwrap();
    assert!(matches!(adm.admit(1), Err(CoreError::Overloaded)));
    drop(g);
    drop(adm.admit(64).unwrap());

    // With a queue: a large span queues first, a small span arrives
    // later — the freed slot goes to the small one (priority), then
    // to the large one (no lost slots, no deadlock).
    let adm = Arc::new(Admission::new(1, 4));
    let order = Arc::new(Mutex::new(Vec::new()));
    let g = adm.admit(1).unwrap();
    let large = {
        let (adm, order) = (Arc::clone(&adm), Arc::clone(&order));
        std::thread::spawn(move || {
            let guard = adm.admit(100).unwrap();
            order.lock().unwrap().push("large");
            assert!(guard.waited() > Duration::ZERO);
        })
    };
    while adm.queued() < 1 {
        std::thread::yield_now();
    }
    let small = {
        let (adm, order) = (Arc::clone(&adm), Arc::clone(&order));
        std::thread::spawn(move || {
            let guard = adm.admit(2).unwrap();
            order.lock().unwrap().push("small");
            assert!(guard.waited() > Duration::ZERO);
        })
    };
    while adm.queued() < 2 {
        std::thread::yield_now();
    }
    drop(g);
    large.join().unwrap();
    small.join().unwrap();
    assert_eq!(
        *order.lock().unwrap(),
        vec!["small", "large"],
        "small-span class must overtake the earlier large-span arrival"
    );
}

/// Through the store: with an in-flight budget of 1 and a sleeping
/// network, concurrent clients queue (measured queue wait lands in
/// `QueryStats::queue_wait`), and with no queue room they shed with
/// a clean `Overloaded` error.
#[test]
fn store_admission_accounts_queue_wait_and_sheds() {
    let ds = dataset(123, 10, 80);
    let cluster = Cluster::builder()
        .nodes(3)
        .network(NetworkModel::lan())
        .build();
    let store = RStore::builder()
        .chunk_capacity(1024)
        .cache_budget(0)
        .max_concurrent_queries(1)
        .max_queued(8)
        .build(cluster);
    store.load_dataset(&ds).unwrap();
    let versions = ds.graph.len() as u32;
    let store = Arc::new(store);

    // Two clients started simultaneously: one holds the only slot,
    // the other must wait a measurable (real-sleep LAN) time.
    let barrier = Arc::new(Barrier::new(2));
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut max_wait = Duration::ZERO;
                for q in 0..4u32 {
                    let v = VersionId((c + q * 3) % versions);
                    let (_, stats) = store.query_with_stats(QuerySpec::Version(v)).unwrap();
                    max_wait = max_wait.max(stats.queue_wait);
                }
                max_wait
            })
        })
        .collect();
    let max_wait = clients
        .into_iter()
        .map(|c| c.join().unwrap())
        .max()
        .unwrap();
    assert!(
        max_wait > Duration::ZERO,
        "two clients over a 1-slot budget never queued"
    );
    let stats = store.serve_stats();
    assert!(stats.peak_queued >= 1);
    assert!(stats.total_queue_wait >= max_wait);
    assert_eq!(stats.shed, 0);

    // Saturate with zero queue room: concurrent attempts must shed
    // with `Overloaded`, and successful queries stay correct.
    let store2 = {
        let cluster = Cluster::builder()
            .nodes(3)
            .network(NetworkModel::lan())
            .build();
        let s = RStore::builder()
            .chunk_capacity(1024)
            .cache_budget(0)
            .max_concurrent_queries(1)
            .max_queued(0)
            .build(cluster);
        s.load_dataset(&ds).unwrap();
        Arc::new(s)
    };
    let barrier = Arc::new(Barrier::new(4));
    let shed = Arc::new(AtomicUsize::new(0));
    let ok = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let store = Arc::clone(&store2);
            let barrier = Arc::clone(&barrier);
            let (shed, ok) = (Arc::clone(&shed), Arc::clone(&ok));
            std::thread::spawn(move || {
                barrier.wait();
                for q in 0..6u32 {
                    match store.get_version(VersionId((c + q) % versions)) {
                        Ok(_) => {
                            ok.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(CoreError::Overloaded) => {
                            shed.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => panic!("only Overloaded may surface, got {e}"),
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    assert!(ok.load(Ordering::SeqCst) >= 1, "someone must get through");
    assert!(
        shed.load(Ordering::SeqCst) >= 1,
        "4 clients over a 1-slot, 0-queue budget never shed"
    );
    assert_eq!(store2.serve_stats().shed as usize, shed.load(Ordering::SeqCst));
}
