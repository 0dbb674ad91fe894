//! Replica-aware read routing: least-loaded-replica planning must
//! agree with the serial oracle byte for byte, never plan a taller
//! critical-path batch than sending every key to its first live
//! replica would, and the executor must survive a node dying *between*
//! planning and execution whenever the keys have a live replica left.

use proptest::prelude::*;
use rstore_core::model::{ChunkId, Record, VersionId};
use rstore_core::plan::{QueryPlan, QuerySpec};
use rstore_core::store::{RStore, CHUNK_TABLE};
use rstore_core::CoreError;
use rstore_kvstore::{table_key, Cluster, KvError};
use rstore_vgraph::{Dataset, DatasetSpec, SelectionKind};
use std::collections::HashMap;

fn loaded_store(ds: &Dataset, nodes: usize, replication: usize) -> RStore {
    let cluster = Cluster::builder()
        .nodes(nodes)
        .replication(replication)
        .build();
    let store = RStore::builder()
        .chunk_capacity(1024)
        // Cache disabled: every plan must fetch, so routing and
        // failover are exercised on each query.
        .cache_budget(0)
        .build(cluster);
    store.load_dataset(ds).unwrap();
    store
}

/// The tallest node batch `plan` would have if every chunk went to the
/// first live replica of its backend key (cache off: every planned
/// chunk is fetched).
fn first_live_max_batch(cluster: &Cluster, plan: &QueryPlan) -> usize {
    let mut per_node: HashMap<usize, usize> = HashMap::new();
    for &id in plan.chunk_ids() {
        let key = table_key(CHUNK_TABLE, &ChunkId(id).to_key());
        *per_node.entry(cluster.replicas_of(&key).unwrap()[0]).or_insert(0) += 1;
    }
    per_node.into_values().max().unwrap_or(0)
}

fn assert_identical(a: &[Record], b: &[Record]) {
    assert_eq!(a.len(), b.len(), "record count differs");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.pk, y.pk);
        assert_eq!(x.origin, y.origin);
        assert_eq!(&x.payload[..], &y.payload[..], "payload bytes differ");
    }
}

/// The foregrounded bugfix: a node dying after `plan_query` but
/// before `execute` used to fail the whole query even though live
/// replicas held every key. With `replication >= 2` the executor now
/// re-routes the dead node's batch and the query answers correctly,
/// reporting the failover in its metrics.
#[test]
fn node_failure_mid_execute_fails_over_with_replication() {
    let mut spec = DatasetSpec::tiny(2025);
    spec.num_versions = 24;
    spec.root_records = 60;
    let ds = spec.generate();

    let store = loaded_store(&ds, 4, 2);

    // Healthy baseline for every version.
    let baseline: Vec<Vec<Record>> = (0..ds.graph.len())
        .map(|v| store.get_version(VersionId(v as u32)).unwrap())
        .collect();

    // Plan everything while healthy, then kill a node before any
    // fetch happens.
    let plans: Vec<_> = (0..ds.graph.len())
        .map(|v| {
            store
                .plan_query(QuerySpec::Version(VersionId(v as u32)))
                .unwrap()
        })
        .collect();
    let serial_plans: Vec<_> = (0..ds.graph.len())
        .map(|v| {
            store
                .plan_query(QuerySpec::Version(VersionId(v as u32)))
                .unwrap()
        })
        .collect();
    store.cluster().set_node_down(0, true);

    let mut failovers = 0usize;
    let mut rerouted = 0usize;
    for (plan, expected) in plans.into_iter().zip(&baseline) {
        let span = plan.span();
        let executed = store.execute(plan).expect("replicated query must survive");
        failovers += executed.metrics.failovers;
        rerouted += executed.metrics.rerouted_keys;
        // One key per chunk, one dead node: a chunk is re-routed
        // at most once.
        assert!(executed.metrics.rerouted_keys <= span);
        let mut records = executed.into_stream().drain().unwrap();
        records.sort_unstable_by_key(|r| (r.pk, r.origin));
        assert_identical(&records, expected);
    }
    assert!(
        failovers > 0 && rerouted > 0,
        "no plan routed to the downed node \
         (failovers {failovers}, rerouted {rerouted})"
    );

    // The serial reference path fails over identically.
    for (plan, expected) in serial_plans.into_iter().zip(&baseline) {
        let executed = store
            .execute_serial(plan)
            .expect("serial executor must fail over too");
        let mut records = executed.into_stream().drain().unwrap();
        records.sort_unstable_by_key(|r| (r.pk, r.origin));
        assert_identical(&records, expected);
    }

    // A healthy re-query reports no failover.
    store.cluster().set_node_down(0, false);
    let (_, stats) = store.query_with_stats(QuerySpec::Version(VersionId(0))).unwrap();
    assert_eq!((stats.failovers, stats.rerouted_keys), (0, 0));
}

/// Without replication there is no replica to fail over to: the same
/// mid-execute failure must surface as a clean `NodeDown` error, never
/// a panic or a wrong answer.
#[test]
fn node_failure_mid_execute_errors_cleanly_without_replication() {
    let mut spec = DatasetSpec::tiny(2026);
    spec.num_versions = 24;
    spec.root_records = 60;
    let ds = spec.generate();
    let store = loaded_store(&ds, 4, 1);

    let plans: Vec<_> = (0..ds.graph.len())
        .map(|v| {
            store
                .plan_query(QuerySpec::Version(VersionId(v as u32)))
                .unwrap()
        })
        .collect();
    store.cluster().set_node_down(0, true);
    let mut failures = 0usize;
    for plan in plans {
        match store.execute(plan) {
            Ok(_) => {}
            Err(CoreError::Kv(KvError::NodeDown(0))) => failures += 1,
            Err(e) => panic!("expected NodeDown, got {e}"),
        }
    }
    assert!(failures > 0, "no plan touched the downed node");
    store.cluster().set_node_down(0, false);
}

/// Losing `replication - 1` nodes mid-execute still leaves one live
/// replica per key: the executor must walk past *several* dead
/// replicas, not just the first.
#[test]
fn multi_node_failure_mid_execute_walks_the_whole_replica_set() {
    let mut spec = DatasetSpec::tiny(2027);
    spec.num_versions = 20;
    spec.root_records = 50;
    let ds = spec.generate();
    let store = loaded_store(&ds, 5, 3);

    let baseline: Vec<Vec<Record>> = (0..ds.graph.len())
        .map(|v| store.get_version(VersionId(v as u32)).unwrap())
        .collect();
    let plans: Vec<_> = (0..ds.graph.len())
        .map(|v| {
            store
                .plan_query(QuerySpec::Version(VersionId(v as u32)))
                .unwrap()
        })
        .collect();
    store.cluster().set_node_down(0, true);
    store.cluster().set_node_down(1, true);
    let mut walked_two = false;
    for (plan, expected) in plans.into_iter().zip(&baseline) {
        let span = plan.span();
        let executed = store
            .execute(plan)
            .expect("two of three replicas down is survivable");
        // One key per chunk: a chunk walks past each dead node at most
        // once, and some chunk's replica set starts with both.
        let rerouted = executed.metrics.rerouted_keys;
        assert!(rerouted <= 2 * span, "{rerouted} re-routes for {span} chunks");
        walked_two |= executed.metrics.failovers == 2;
        let mut records = executed.into_stream().drain().unwrap();
        records.sort_unstable_by_key(|r| (r.pk, r.origin));
        assert_identical(&records, expected);
    }
    assert!(walked_two, "no query had to walk past both dead replicas");
    store.cluster().set_node_down(0, false);
    store.cluster().set_node_down(1, false);
}

fn spec_strategy() -> impl Strategy<Value = DatasetSpec> {
    (
        1u64..1000,   // seed
        8usize..18,   // versions
        10usize..40,  // root records
        0.0f64..0.4,  // branch probability
        0.05f64..0.4, // update fraction
        32usize..96,  // record size
    )
        .prop_map(|(seed, nv, rr, bp, uf, rs)| DatasetSpec {
            name: format!("replica-{seed}"),
            num_versions: nv,
            root_records: rr,
            branch_prob: bp,
            update_frac: uf,
            insert_frac: 0.05,
            delete_frac: 0.05,
            selection: SelectionKind::Uniform,
            record_size: rs,
            pd: 0.1,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pooled execution returns byte-identical results to the serial
    /// oracle over random stores, replication 2–3 and random
    /// down-sets — and the planner never plans a taller critical-path
    /// node batch than first-live assignment would.
    #[test]
    fn least_loaded_routing_agrees_with_serial_oracle(
        spec in spec_strategy(),
        replication in 2usize..4,
        down_pick in 0usize..20,
    ) {
        const NODES: usize = 5;
        let ds = spec.generate();
        let store = loaded_store(&ds, NODES, replication);

        // A random down-set smaller than the replication factor, so
        // every key keeps at least one live replica. Applied after the
        // (healthy) load.
        let down_count = down_pick % replication; // 0..=replication-1
        let down: Vec<usize> = (0..down_count)
            .map(|i| (down_pick + i * 3) % NODES)
            .collect();
        for &n in &down {
            store.cluster().set_node_down(n, true);
        }

        let max_pk = spec.root_records as u64 + 8;
        let mid = VersionId((ds.graph.len() / 2) as u32);
        let mut specs: Vec<QuerySpec> = (0..ds.graph.len())
            .map(|v| QuerySpec::Version(VersionId(v as u32)))
            .collect();
        specs.push(QuerySpec::Range { lo: 2, hi: max_pk / 2, v: mid });
        specs.push(QuerySpec::Record { pk: 3, v: mid });
        specs.push(QuerySpec::Evolution { pk: 1 });

        for &qspec in &specs {
            // Balance property: the plan's critical-path batch never
            // exceeds the first-live assignment's.
            let plan = store.plan_query(qspec).unwrap();
            let first_live = first_live_max_batch(store.cluster(), &plan);
            prop_assert!(first_live <= plan.span(), "more keys than chunks");
            prop_assert!(
                plan.max_node_batch() <= first_live,
                "planned max batch {} > first-live {first_live} for {qspec:?} (down {down:?})",
                plan.max_node_batch(),
            );

            // Agreement: pooled execution == the serial oracle, byte
            // for byte and in the same order.
            let got = store.execute(plan).unwrap().into_stream().drain().unwrap();
            let oracle = store
                .execute_serial(store.plan_query(qspec).unwrap())
                .unwrap()
                .into_stream()
                .drain()
                .unwrap();
            assert_identical(&got, &oracle);
        }
    }
}
