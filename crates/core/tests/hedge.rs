//! Tail-latency defense suite: hedged reads and query deadlines.
//!
//! The contract under test: both knobs default *off* and the
//! defenses never change answer bytes — a hedged query returns
//! exactly what the serial single-lane oracle returns, and a blown
//! deadline fails with partial cost accounting instead of a wrong or
//! truncated answer. (A read whose every replica is down fails with
//! the planning error `crates/core/tests/pipeline.rs` pins.)

use proptest::prelude::*;
use rstore_core::model::{Record, VersionId};
use rstore_core::plan::{HedgeConfig, QuerySpec};
use rstore_core::store::RStore;
use rstore_core::CoreError;
use rstore_kvstore::{Cluster, FaultPlan, FaultRule, NetworkModel};
use rstore_vgraph::{Dataset, DatasetSpec, SelectionKind};
use std::time::Duration;

/// Hedge policy that backs up a straggler immediately: zero delay, so
/// every pooled round that is not already complete on first wait
/// issues backups. The most race-prone configuration — exactly the
/// one that must stay byte-identical to the serial oracle.
fn eager_hedge() -> HedgeConfig {
    HedgeConfig {
        factor: 0.0,
        min: Duration::ZERO,
    }
}

fn small_dataset(seed: u64) -> Dataset {
    let mut spec = DatasetSpec::tiny(seed);
    spec.num_versions = 20;
    spec.root_records = 50;
    spec.generate()
}

fn assert_identical(a: &[Record], b: &[Record]) {
    assert_eq!(a.len(), b.len(), "record count differs");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.pk, y.pk);
        assert_eq!(x.origin, y.origin);
        assert_eq!(&x.payload[..], &y.payload[..], "payload bytes differ");
    }
}

/// Hedging fires against a scripted slow node and wins: node 0 sleeps
/// a real 3 ms per request, the backup replica does not, so the eager
/// hedge beats the straggler — with answers byte-identical to the
/// fault-free twin and the duplicate work charged to the stats.
#[test]
fn hedges_fire_and_win_against_a_scripted_slow_node() {
    let ds = small_dataset(8801);

    let calm = {
        let cluster = Cluster::builder().nodes(4).replication(2).build();
        let s = RStore::builder()
            .chunk_capacity(1024)
            .cache_budget(0)
            .build(cluster);
        s.load_dataset(&ds).unwrap();
        s
    };

    // Only the injected per-request penalty sleeps for real; the
    // base network charge stays zero so the test's wall clock is
    // bounded by node 0's batches alone.
    let slow = NetworkModel {
        real_sleep: true,
        ..NetworkModel::zero()
    };
    let cluster = Cluster::builder()
        .nodes(4)
        .replication(2)
        .network(slow)
        .faults(FaultPlan::new(7).rule(FaultRule::latency(Duration::from_millis(3)).on_node(0)))
        .build();
    let hedged = RStore::builder()
        .chunk_capacity(1024)
        .cache_budget(0)
        .hedge(eager_hedge())
        .build(cluster);
    hedged.load_dataset(&ds).unwrap();

    let mut hedges = 0usize;
    let mut wins = 0usize;
    let mut span = 0u64;
    let gets_before = hedged.cluster().stats().gets;
    for v in 0..ds.graph.len() {
        let v = VersionId(v as u32);
        let expected = calm.get_version(v).unwrap();
        let (got, stats) = hedged.query_with_stats(QuerySpec::Version(v)).unwrap();
        assert_identical(&got, &expected);
        hedges += stats.hedges;
        wins += stats.hedge_wins;
        span += stats.chunks_fetched as u64;
    }
    assert!(hedges > 0, "a 3 ms straggler must trigger eager hedges");
    assert!(wins > 0, "backups against a sleeping node must win");
    // Hedging gates per chunk: one key per chunk from its first
    // replica, at most one more from the backup's.
    let gets = hedged.cluster().stats().gets - gets_before;
    assert!(gets <= 2 * span, "{gets} backend gets for {span} chunks");

    // Satellite regression: the injected latency is visible in the
    // per-node load report — node 0's cumulative modeled service time
    // dominates the fast replicas it was hedged away from.
    let per_node = hedged.cluster().node_stats();
    let slow_modeled = per_node[0].modeled;
    assert!(
        slow_modeled > Duration::ZERO,
        "injected latency must show in per-node modeled time"
    );
    for load in &per_node[1..] {
        assert!(
            load.modeled < slow_modeled,
            "only node 0 had latency injected"
        );
    }

    // And the scoring saw it too: node 0's service EWMA stands out
    // the same way.
    let ewma0 = hedged.cluster().node_service_ewma(0);
    assert!(ewma0 > Duration::ZERO, "the service EWMA missed the slow node");

    // The hedge deadline is fixed at round start: three batches that
    // report at 10, 20 and 30 ms must not push a 40 ms hedge against
    // the 120 ms straggler back (re-arming the full delay after each
    // of them would issue the wave at 70 ms).
    let ms = Duration::from_millis;
    let staggered = [120, 10, 20, 30]
        .iter()
        .enumerate()
        .fold(FaultPlan::new(7), |plan, (node, &t)| plan.rule(FaultRule::latency(ms(t)).on_node(node)));
    let cluster = Cluster::builder()
        .nodes(4)
        .replication(2)
        .network(slow)
        .faults(staggered)
        .build();
    let timed = RStore::builder()
        .chunk_capacity(1024)
        .cache_budget(0)
        .trace_sample(1.0)
        .hedge(HedgeConfig { factor: 0.0, min: ms(40) })
        .build(cluster);
    timed.load_dataset(&ds).unwrap();
    let head = VersionId(ds.graph.len() as u32 - 1);
    let plan = timed.plan_query(QuerySpec::Version(head)).unwrap();
    assert_eq!(plan.nodes_contacted(), 4, "the round needs all four nodes");
    let (got, stats) = timed.query_with_stats(QuerySpec::Version(head)).unwrap();
    assert_identical(&got, &calm.get_version(head).unwrap());
    assert!(stats.hedge_wins > 0, "the backup must beat the 120 ms straggler");
    let trace = timed.last_trace().unwrap();
    let wait = trace.spans.iter().find(|s| s.name == "hedge wait").expect("no hedge wave").dur;
    assert!(wait >= ms(40) && wait < ms(60), "40 ms hedge issued after {wait:?}");
}

/// A query that blows its modeled-time budget fails with
/// `DeadlineExceeded` carrying the partial cost of the rounds that
/// did run — and the same query under a generous budget (or none)
/// succeeds untouched.
#[test]
fn deadline_exceeded_carries_partial_stats() {
    let ds = small_dataset(8802);
    let cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        // Virtual LAN: every request accrues modeled time without
        // sleeping, so a nanosecond budget always trips.
        .network(NetworkModel::lan_virtual())
        .build();
    let store = RStore::builder()
        .chunk_capacity(1024)
        .cache_budget(0)
        .build(cluster);
    store.load_dataset(&ds).unwrap();

    let plan = store.plan_query(QuerySpec::Version(VersionId(0))).unwrap();
    let span = plan.span();
    let budget = Duration::from_nanos(1);
    match store.execute_with_deadline(plan, Some(budget)) {
        Err(CoreError::DeadlineExceeded {
            budget: b,
            spent,
            partial,
        }) => {
            assert_eq!(b, budget);
            assert!(spent > budget, "spent {spent:?} must exceed the budget");
            assert!(
                partial.bytes_fetched > 0,
                "the first round ran before the budget tripped"
            );
            assert_eq!(partial.chunks_fetched, span);
            assert_eq!(partial.records, 0, "no records were extracted");
            assert!(partial.modeled_network > Duration::ZERO);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // A generous explicit budget and no budget both succeed with the
    // exact same answer.
    let plan = store.plan_query(QuerySpec::Version(VersionId(0))).unwrap();
    let relaxed = store
        .execute_with_deadline(plan, Some(Duration::from_secs(3600)))
        .unwrap()
        .into_stream()
        .drain()
        .unwrap();
    let unbounded = store.get_version(VersionId(0)).unwrap();
    let mut relaxed = relaxed;
    relaxed.sort_unstable_by_key(|r| (r.pk, r.origin));
    assert_identical(&relaxed, &unbounded);
}

/// `StoreConfig::default_deadline` applies to every plain `execute`,
/// and an explicit `None` on `execute_with_deadline` overrides it
/// back off.
#[test]
fn default_deadline_applies_and_explicit_none_overrides() {
    let ds = small_dataset(8803);
    let cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        .network(NetworkModel::lan_virtual())
        .build();
    let store = RStore::builder()
        .chunk_capacity(1024)
        .cache_budget(0)
        .default_deadline(Duration::from_nanos(1))
        .build(cluster);
    store.load_dataset(&ds).unwrap();

    let plan = store.plan_query(QuerySpec::Version(VersionId(0))).unwrap();
    assert!(
        matches!(
            store.execute(plan),
            Err(CoreError::DeadlineExceeded { .. })
        ),
        "the store-wide default budget must apply to execute()"
    );

    let plan = store.plan_query(QuerySpec::Version(VersionId(0))).unwrap();
    store
        .execute_with_deadline(plan, None)
        .expect("an explicit None must remove the default deadline");
}

fn spec_strategy() -> impl Strategy<Value = DatasetSpec> {
    (
        1u64..1000,   // seed
        8usize..16,   // versions
        10usize..36,  // root records
        0.0f64..0.35, // branch probability
        0.05f64..0.4, // update fraction
        32usize..96,  // record size
    )
        .prop_map(|(seed, nv, rr, bp, uf, rs)| DatasetSpec {
            name: format!("hedge-{seed}"),
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
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The core byte-agreement oracle: eager hedging over random
    /// stores with a seeded slow node (latency-only faults, virtual
    /// time — nothing can fail, everything can race) answers every
    /// query byte-for-byte like the fault-free serial single-lane
    /// oracle, at replication 2–3.
    #[test]
    fn hedged_executor_agrees_with_serial_oracle(
        spec in spec_strategy(),
        fault_seed in 1u64..500,
        replication in 2usize..4,
        slow_node in 0usize..5,
    ) {
        const NODES: usize = 5;
        let ds = spec.generate();

        let oracle = {
            let cluster = Cluster::builder().nodes(NODES).replication(replication).build();
            let s = RStore::builder()
                .chunk_capacity(1024)
                .cache_budget(0)
                .build(cluster);
            s.load_dataset(&ds).unwrap();
            s
        };

        // Slow-node-only chaos: modeled latency spikes, no refusals,
        // so hedges race real stragglers but no query may fail.
        let faults = FaultPlan::new(fault_seed)
            .rule(FaultRule::latency(Duration::from_micros(800)).on_node(slow_node))
            .rule(FaultRule::latency(Duration::from_micros(50)).with_probability(0.2));
        let cluster = Cluster::builder()
            .nodes(NODES)
            .replication(replication)
            .network(NetworkModel::lan_virtual())
            .faults(faults)
            .build();
        let hedged = RStore::builder()
            .chunk_capacity(1024)
            .cache_budget(0)
            .hedge(eager_hedge())
            .build(cluster);
        hedged.load_dataset(&ds).unwrap();

        let mid = VersionId((ds.graph.len() / 2) as u32);
        let max_pk = spec.root_records as u64 + 8;
        let mut specs: Vec<QuerySpec> = (0..ds.graph.len())
            .map(|v| QuerySpec::Version(VersionId(v as u32)))
            .collect();
        specs.push(QuerySpec::Range { lo: 2, hi: max_pk / 2, v: mid });
        specs.push(QuerySpec::Record { pk: 3, v: mid });
        specs.push(QuerySpec::Evolution { pk: 1 });

        for &qspec in &specs {
            let plan = hedged.plan_query(qspec).unwrap();
            let mut got = hedged
                .execute(plan)
                .expect("latency-only chaos must never fail a query")
                .into_stream()
                .drain()
                .unwrap();
            got.sort_unstable_by_key(|r| (r.pk, r.origin));
            let mut want = oracle
                .execute_serial(oracle.plan_query(qspec).unwrap())
                .unwrap()
                .into_stream()
                .drain()
                .unwrap();
            want.sort_unstable_by_key(|r| (r.pk, r.origin));
            assert_identical(&got, &want);
        }
    }
}
