//! Integration and property tests for the observability layer:
//!
//! * the log-bucketed histogram keeps its documented guarantees on
//!   random inputs — quantile relative error ≤ `REL_ERROR`, merges
//!   are order-independent, quantiles are monotone in `q`;
//! * the slow-query ring buffer stays bounded and retains the newest
//!   entries, and the store-level threshold is respected end to end;
//! * tracing at sample 1.0 yields a span tree covering admission,
//!   planning, every fetch round and extraction, and exports valid
//!   Chrome trace-event JSON;
//! * the default configuration (metrics on, tracing off) changes
//!   neither the answers nor the main-thread allocation count versus
//!   a store built with `obs_enabled(false)`;
//! * the metric table is an inventory: every row is named to scheme
//!   and documented, and every counter and histogram in it moves under
//!   one scripted history.

use proptest::prelude::*;
use rstore_core::model::VersionId;
use rstore_core::obs::{MetricKind, SlowLog, SlowQuery, SlowReason, StoreStats, METRICS};
use rstore_core::partition::PartitionerKind;
use rstore_core::query::QueryStats;
use rstore_core::store::{CommitRequest, RStore};
use rstore_core::{CoreError, HedgeConfig, QuerySpec};
use rstore_kvstore::hist::REL_ERROR;
use rstore_kvstore::{Cluster, FaultPlan, FaultRule, HistSnapshot, Histogram, NetworkModel};
use rstore_vgraph::{Dataset, DatasetSpec};
use std::time::Duration;

// ── A counting allocator for the zero-overhead regression ──────────
//
// Wraps the system allocator and counts allocations made by the
// *current thread* (fetch-pool workers allocate on their own threads
// and are identical across both configurations anyway). The cell is
// const-initialized so the counter itself never allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by this thread while running `f`.
fn thread_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

// ── Histogram properties ────────────────────────────────────────────

/// Values that stay below the top octave (2^46 ns ≈ 19.5 h), where
/// the relative-error guarantee holds; larger values clamp.
fn value_strategy() -> impl Strategy<Value = u64> {
    1u64..(1 << 46)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_relative_error_bounded(values in prop::collection::vec(value_strategy(), 1..64)) {
        for &v in &values {
            let h = Histogram::new();
            h.record(v);
            let q = h.snapshot().quantile(1.0).as_nanos() as u64;
            prop_assert!(q >= v, "bucket bound {q} below recorded {v}");
            prop_assert!(
                (q - v) as f64 <= REL_ERROR * q as f64 + 1.0,
                "relative error blown: recorded {v}, bound {q}"
            );
        }
    }

    #[test]
    fn histogram_merge_is_order_independent(
        xs in prop::collection::vec(value_strategy(), 0..128),
        ys in prop::collection::vec(value_strategy(), 0..128),
    ) {
        let hx = Histogram::new();
        for &v in &xs { hx.record(v); }
        let hy = Histogram::new();
        for &v in &ys { hy.record(v); }
        let all = Histogram::new();
        for &v in xs.iter().chain(&ys) { all.record(v); }

        let mut xy = hx.snapshot();
        xy.merge(&hy.snapshot());
        let mut yx = hy.snapshot();
        yx.merge(&hx.snapshot());
        prop_assert_eq!(&xy, &yx, "merge must commute");
        prop_assert_eq!(&xy, &all.snapshot(), "merge must equal combined recording");

        let mut with_empty = hx.snapshot();
        with_empty.merge(&HistSnapshot::empty());
        prop_assert_eq!(&with_empty, &hx.snapshot(), "empty snapshot must be identity");
    }

    #[test]
    fn histogram_quantiles_monotone(
        values in prop::collection::vec(value_strategy(), 1..256),
        qs in prop::collection::vec(0.0f64..1.0, 2..16),
    ) {
        let h = Histogram::new();
        for &v in &values { h.record(v); }
        let s = h.snapshot();
        let mut qs = qs;
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = Duration::ZERO;
        for &q in &qs {
            let val = s.quantile(q);
            prop_assert!(val >= last, "quantile({q}) regressed: {val:?} < {last:?}");
            last = val;
        }
        // Extremes bracket the recorded range.
        let max = *values.iter().max().unwrap();
        prop_assert!(s.quantile(1.0).as_nanos() as u64 >= max);
        prop_assert!(s.quantile(0.0) > Duration::ZERO);
    }
}

// ── Slow-log ring properties ────────────────────────────────────────

fn entry(seq: u64) -> SlowQuery {
    SlowQuery {
        seq,
        spec: format!("Version({seq})"),
        reason: SlowReason::Threshold,
        stats: QueryStats::default(),
        trace: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slow_log_is_bounded_and_keeps_newest(
        capacity in 1usize..32,
        pushes in 0usize..100,
    ) {
        let log = SlowLog::new(capacity);
        for seq in 0..pushes as u64 {
            log.push(entry(seq));
            prop_assert!(log.len() <= capacity, "ring overflowed its capacity");
        }
        let snap = log.snapshot();
        prop_assert_eq!(snap.len(), pushes.min(capacity));
        // Oldest-first snapshot of exactly the newest `capacity` seqs.
        let expect_first = pushes.saturating_sub(capacity) as u64;
        for (i, e) in snap.iter().enumerate() {
            prop_assert_eq!(e.seq, expect_first + i as u64, "wrong entry retained");
        }
    }
}

// ── Store-level behaviour ───────────────────────────────────────────

fn dataset() -> Dataset {
    let mut spec = DatasetSpec::tiny(0x0B57);
    spec.num_versions = 16;
    spec.root_records = 60;
    spec.update_frac = 0.25;
    spec.record_size = 96;
    spec.generate()
}

/// A loaded two-node store; `cache_budget(0)` keeps every query on
/// the real fetch path, so traces contain actual fetch rounds.
fn build_store(ds: &Dataset, configure: impl FnOnce(rstore_core::store::RStoreBuilder) -> rstore_core::store::RStoreBuilder) -> RStore {
    build_store_on(Cluster::builder().nodes(2).build(), ds, configure)
}

/// [`build_store`] over a cluster of the caller's making.
fn build_store_on(cluster: Cluster, ds: &Dataset, configure: impl FnOnce(rstore_core::store::RStoreBuilder) -> rstore_core::store::RStoreBuilder) -> RStore {
    let builder = RStore::builder()
        .chunk_capacity(2048)
        .partitioner(PartitionerKind::BottomUp { beta: usize::MAX })
        .cache_budget(0);
    let store = configure(builder).build(cluster);
    store.load_dataset(ds).unwrap();
    store
}

/// Minimal structural JSON validation: object/array nesting balances
/// outside strings, strings close, and no trailing garbage. Enough to
/// catch broken escaping or truncation in the hand-rolled exporter.
fn assert_valid_json(s: &str) {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' | '{' => depth += 1,
            ']' | '}' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced JSON nesting in {s:?}");
            }
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string in trace JSON");
    assert_eq!(depth, 0, "unbalanced JSON nesting in trace JSON");
}

#[test]
fn trace_at_full_sample_covers_the_query_lifecycle() {
    let ds = dataset();
    let store = build_store(&ds, |b| b.trace_sample(1.0));
    let v = VersionId((store.version_count() / 2) as u32);
    let records = store.get_version(v).unwrap();
    assert!(!records.is_empty());

    let trace = store.last_trace().expect("sample 1.0 must trace every query");
    for phase in ["admission", "plan", "round", "extract"] {
        assert!(
            trace.has_span(phase),
            "trace missing {phase:?} span; got {:?}",
            trace.spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
        );
    }

    let json = trace.to_chrome_json();
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    assert!(json.contains("\"ph\":\"X\""), "spans must be complete events");
    assert_valid_json(&json);
}

#[test]
fn slow_query_threshold_is_respected_end_to_end() {
    let ds = dataset();

    // An unreachable threshold captures nothing.
    let calm = build_store(&ds, |b| b.slow_query_threshold(Duration::from_secs(3600)));
    for v in 0..calm.version_count() as u32 {
        calm.get_version(VersionId(v)).unwrap();
    }
    assert!(calm.slow_log().is_empty(), "nothing should cross a 1h threshold");

    // A zero threshold captures everything, bounded by the ring.
    let strict = build_store(&ds, |b| b.slow_query_threshold(Duration::ZERO));
    let n = strict.version_count();
    for v in 0..n as u32 {
        strict.get_version(VersionId(v)).unwrap();
    }
    let log = strict.slow_log();
    let capacity = strict.obs().slow().capacity();
    assert_eq!(log.len(), n.min(capacity));
    assert!(log.iter().all(|e| e.reason == SlowReason::Threshold));
}

#[test]
fn default_obs_changes_neither_answers_nor_main_thread_allocations() {
    let ds = dataset();
    // Both stores sit behind nodes that take a real 500 µs a request,
    // so a round's wait for its pool jobs always finds them still
    // working and parks, as it does in production. That matters below:
    // the round's channel registers this thread's waiter (one
    // allocation) the first time a receive parks, and not at all when
    // the first outcome is already there.
    let cluster = || {
        let network = NetworkModel { latency: Duration::from_micros(500), real_sleep: true, ..NetworkModel::zero() };
        Cluster::builder().nodes(2).network(network).build()
    };
    // Default: metrics on, tracing off. Versus: observability off.
    let on = build_store_on(cluster(), &ds, |b| b);
    let off = build_store_on(cluster(), &ds, |b| b.obs_enabled(false));
    let n = on.version_count();

    // Oracle identity across every version.
    for v in 0..n as u32 {
        let a = on.get_version(VersionId(v)).unwrap();
        let b = off.get_version(VersionId(v)).unwrap();
        assert_eq!(a.len(), b.len(), "version {v} cardinality diverged");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pk, y.pk, "version {v} key order diverged");
            assert_eq!(x.payload, y.payload, "version {v} payload diverged");
        }
    }

    // With the cache disabled, repeating a query repeats its exact
    // allocation sequence; the warm-up above has already paid every
    // lazy one-time cost. The always-on metrics path is atomics only,
    // so both configurations must allocate identically. The median
    // of five repeats per side shrugs off the rare run in which this
    // thread lost the CPU for those 500 µs and never parked.
    let v = VersionId((n / 2) as u32);
    let typical_allocs = |store: &RStore| {
        let mut counts = [0u64; 5].map(|_| {
            thread_allocs(|| {
                store.get_version(v).unwrap();
            })
        });
        counts.sort_unstable();
        counts[2]
    };
    let allocs_off = typical_allocs(&off);
    let allocs_on = typical_allocs(&on);
    assert_eq!(
        allocs_on, allocs_off,
        "metrics-on (tracing off) must not allocate beyond the obs-off baseline"
    );

    // The registry really did count the workload on the obs-on store.
    let registry = on.stats_snapshot().registry;
    let queries = registry.queries.get();
    assert!(queries as usize > n, "registry missed queries: {queries}");
    assert_eq!(registry.query_wall.snapshot().count(), queries, "histogram/counter drift");
}

#[test]
fn metrics_text_is_stable_and_monotone_across_scrapes() {
    let ds = dataset();
    let store = build_store(&ds, |b| b);
    for v in 0..store.version_count() as u32 {
        store.get_version(VersionId(v)).unwrap();
    }
    let first = store.metrics_text();
    store.get_version(VersionId(0)).unwrap();
    let second = store.metrics_text();
    rstore_core::obs::validate_scrapes(&first, &second)
        .expect("scrapes must parse, stay unique and move monotonically");
}

// ── The metric inventory ────────────────────────────────────────────

#[test]
fn every_metric_is_named_to_scheme_and_documented() {
    let word = |w: &str| !w.is_empty() && w.chars().all(|c| c.is_ascii_lowercase() || c == '_');
    let mut names = std::collections::HashSet::new();
    let mut paths = std::collections::HashSet::new();
    for m in METRICS {
        assert!(names.insert(m.name), "series {} described twice", m.name);
        assert!(paths.insert(m.json), "JSON path {} used twice", m.json);
        let scheme = m
            .name
            .strip_prefix("rstore_")
            .and_then(|rest| rest.split_once('_'))
            .is_some_and(|(subsystem, name)| word(subsystem) && word(name));
        assert!(scheme, "{} is not rstore_<subsystem>_<name>", m.name);
        let suffix_ok = match m.kind {
            MetricKind::Counter => m.name.ends_with("_total"),
            MetricKind::Histogram => m.name.ends_with("_seconds") || m.name.ends_with("_bytes"),
            MetricKind::Gauge => !m.name.ends_with("_total"),
        };
        assert!(suffix_ok, "{} carries the wrong suffix for a {:?}", m.name, m.kind);
        assert!(!m.help.is_empty() && !m.json.is_empty(), "{} is undocumented", m.name);
    }
}

/// The counter and histogram rows whose reading differs between two
/// samples of one store.
fn moved(from: &StoreStats, to: &StoreStats) -> Vec<&'static str> {
    METRICS
        .iter()
        .filter(|m| m.kind != MetricKind::Gauge && m.show(from) != m.show(to))
        .map(|m| m.name)
        .collect()
}

/// One history that leaves no counter or histogram of the table
/// unmoved: a row nothing here can move should be deleted, not
/// excused.
#[test]
fn every_counter_and_histogram_moves_under_one_scripted_history() {
    let ds = dataset();
    let tiny = Duration::from_nanos(1);

    // Leg one — a cached, traced, online store on a modeled LAN: load,
    // a deadline trip, commits, flush, compact, reclaim, queries.
    let online = RStore::builder()
        .chunk_capacity(2048)
        .cache_budget(24 * 1024)
        .batch_size(4)
        .trace_sample(1.0)
        .slow_query_threshold(Duration::ZERO)
        .build(Cluster::builder().nodes(2).network(NetworkModel::lan_virtual()).build());
    let fresh = online.stats_snapshot();
    online.load_dataset(&ds).unwrap();
    let head = VersionId(online.version_count() as u32 - 1);
    // Nothing is cached yet, so the fetch accrues modeled time.
    let tripped = online.execute_with_deadline(online.plan_query(QuerySpec::Version(head)).unwrap(), Some(tiny));
    assert!(matches!(tripped, Err(CoreError::DeadlineExceeded { .. })));
    online.get_version(head).unwrap();
    let mut parent = head;
    for round in 0..8u64 {
        let mut commit = CommitRequest::child_of(parent);
        for pk in 0..6 {
            commit = commit.put(pk * 7 + round, vec![round as u8; 96]);
        }
        parent = online.commit(commit).unwrap();
    }
    online.flush_batch().unwrap();
    assert!(online.compact().unwrap().is_some(), "small online chunks must compact");
    online.reclaim().unwrap();
    for pass in 0..2 {
        for v in 0..online.version_count() as u32 {
            online.get_version(VersionId(v)).unwrap();
            online.get_record(u64::from(v + pass), VersionId(v)).unwrap();
        }
    }
    let mut seen = moved(&fresh, &online.stats_snapshot());

    // Leg two — replication 2 under faults: a node down while loading
    // (hints), a flaky cluster (retries), node 0 a real 3 ms straggler
    // (hedges), node 2 refusing a batch through all its retries, and a
    // node lost between plan and fetch (failover).
    let faults = FaultPlan::new(7)
        .rule(FaultRule::latency(Duration::from_millis(3)).on_node(0))
        .rule(FaultRule::transient().with_probability(0.1))
        .rule(FaultRule::transient().on_node(2).after(60).until(66));
    let network = NetworkModel { real_sleep: true, ..NetworkModel::zero() };
    let faulty = RStore::builder()
        .chunk_capacity(2048)
        .cache_budget(0)
        .hedge(HedgeConfig { factor: 0.0, min: Duration::ZERO })
        .build(Cluster::builder().nodes(4).replication(2).network(network).faults(faults).build());
    let fresh = faulty.stats_snapshot();
    faulty.cluster().set_node_down(3, true);
    faulty.load_dataset(&ds).unwrap();
    faulty.cluster().set_node_down(3, false);
    let mut v = 0;
    while v < faulty.version_count() as u32 || faulty.cluster().node_stats()[2].failures == 0 {
        faulty.get_version(VersionId(v % faulty.version_count() as u32)).unwrap();
        v += 1;
    }
    for node in 0..4 {
        let plan = faulty.plan_query(QuerySpec::Version(head)).unwrap();
        faulty.cluster().set_node_down(node, true);
        faulty.execute(plan).unwrap();
        faulty.cluster().set_node_down(node, false);
    }
    seen.extend(moved(&fresh, &faulty.stats_snapshot()));

    // Leg three — a one-slot, no-queue gate in front of a node 20 ms
    // away: while one query holds the slot, the next is shed.
    let far = NetworkModel { latency: Duration::from_millis(20), real_sleep: true, ..NetworkModel::zero() };
    let gated = RStore::builder()
        .cache_budget(0)
        .max_concurrent_queries(1)
        .max_queued(0)
        .build(Cluster::builder().nodes(1).network(far).build());
    gated.commit(CommitRequest::root([(1, vec![1u8; 8])])).unwrap();
    gated.seal().unwrap();
    let fresh = gated.stats_snapshot();
    let mut shed = false;
    while !shed {
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| gated.get_version(VersionId(0)).unwrap());
            while gated.serve_stats().in_flight == 0 && !holder.is_finished() {
                std::thread::yield_now();
            }
            shed = matches!(gated.get_version(VersionId(0)), Err(CoreError::Overloaded));
        });
    }
    seen.extend(moved(&fresh, &gated.stats_snapshot()));

    let still: Vec<_> = METRICS
        .iter()
        .filter(|m| m.kind != MetricKind::Gauge && !seen.contains(&m.name))
        .map(|m| m.name)
        .collect();
    assert!(still.is_empty(), "nothing moved {still:?}");

    // And under `obs_enabled(false)` counters count while every
    // histogram stays empty.
    let off = build_store(&ds, |b| b.obs_enabled(false));
    let fresh = off.stats_snapshot();
    off.get_version(head).unwrap();
    let counted = moved(&fresh, &off.stats_snapshot());
    assert!(counted.contains(&"rstore_query_total"));
    // (The per-node service-time histogram is the cluster's own — the
    // hedge threshold reads it — not the store's to switch off.)
    let recorded = |name: &&str| name.ends_with("_seconds") && !name.starts_with("rstore_node_");
    assert!(!counted.iter().any(recorded), "a histogram recorded: {counted:?}");
}
