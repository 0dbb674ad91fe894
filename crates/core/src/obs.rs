//! The unified observability spine: metrics registry, latency
//! histograms, per-query trace spans, slow-query log and
//! Prometheus-style exposition (PR 9).
//!
//! Before this module the repro had six disjoint snapshot surfaces —
//! [`QueryStats`],
//! `ClusterStats`/`StatsSnapshot`, [`ServeStats`](crate::serve::ServeStats),
//! [`CacheStats`](crate::cache::CacheStats),
//! [`FragmentationStats`](crate::compact::FragmentationStats) and the
//! `HealthBoard` — with no histograms, no time dimension and no way to
//! see *where inside one slow query* the time went. Everything now
//! reports into one [`MetricsRegistry`] owned by the store, and three
//! read-side surfaces hang off it:
//!
//! * **Histograms + counters** ([`MetricsRegistry`]) — recorded with
//!   relaxed atomics only (see [`Histogram`]); cheap enough to stay
//!   always-on. Both *wall* and *modeled* time are recorded, because
//!   the network model is accounting-only: wall time is what the host
//!   spent, modeled time is what the simulated cluster would have.
//! * **Trace spans** ([`TraceSink`] / [`QueryTrace`]) — a per-query
//!   span tree (admission → plan → round N → per-node batch → hedge →
//!   decode → extract) built only when the deterministic sampler
//!   selects the query, retrievable via `RStore::last_trace()` and
//!   exportable as Chrome-trace-event JSON (load it in
//!   `chrome://tracing` or Perfetto).
//! * **Slow-query log** ([`SlowLog`]) — a bounded ring buffer of
//!   [`SlowQuery`] entries: any query whose wall time crosses
//!   `ObsConfig::slow_threshold`, was shed by admission control, or
//!   tripped its deadline, captured with its full `QueryStats` and
//!   span tree (when sampled).
//!
//! # Metric naming convention
//!
//! Every metric is named `rstore_<subsystem>_<name>` with a unit
//! suffix:
//!
//! * `_seconds` — latency histograms and duration counters, rendered
//!   as float seconds;
//! * `_bytes` — sizes;
//! * `_total` — monotone event counters;
//! * bare names are gauges (point-in-time values pulled from the
//!   existing snapshot surfaces at render time).
//!
//! Subsystems in use: `query` (end-to-end), `fetch` (scatter-gather
//! rounds), `hedge`, `cache`, `ingest`, `compact`, `node` (per-node,
//! labeled `{node="i"}`), `serve` (admission), `store` / `cluster`
//! (layout and backend gauges).
//!
//! # Determinism
//!
//! Nothing in this module consults a wall clock or RNG for
//! *decisions*: trace sampling is `seq % period == 0` on an atomic
//! query counter, breakers and chaos replays are untouched, and with
//! tracing disabled the query path allocates nothing extra (regression
//! -tested in `crates/core/tests/obs.rs`), so the replica/chaos/serve/
//! hedge proptest oracles stay bit-identical.

use crate::query::QueryStats;
use rstore_kvstore::hist::{HistSnapshot, Histogram};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Trace-sampling configuration. `Copy` (lives inside the `Copy`
/// `StoreConfig`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Fraction of queries to trace in `[0.0, 1.0]`. `0.0` disables
    /// tracing (the default); `1.0` traces every query. Sampling is
    /// deterministic: with period `p = round(1/sample)`, every `p`-th
    /// query (by arrival sequence number) is traced.
    pub sample: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { sample: 0.0 }
    }
}

/// Observability configuration, embedded in
/// [`StoreConfig`](crate::store::StoreConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsConfig {
    /// Master switch. When false, no histogram/counter recording, no
    /// tracing and no slow-query log — used by the overhead bench to
    /// measure the (sub-5%) cost of the always-on default.
    pub enabled: bool,
    /// Trace sampling.
    pub trace: TraceConfig,
    /// Wall-time threshold above which a completed query is captured
    /// in the slow-query log. `None` (default) logs only shed and
    /// deadline-tripped queries.
    pub slow_threshold: Option<Duration>,
    /// Ring-buffer capacity of the slow-query log; the newest entries
    /// win when it overflows.
    pub slow_log_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            trace: TraceConfig::default(),
            slow_threshold: None,
            slow_log_capacity: 64,
        }
    }
}

/// A monotone event counter. Relaxed atomics: exposition reads are
/// point-in-time snapshots, not synchronization points.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Stage labels of the ingest pipeline, in pipeline order. The
/// `modeled_write` pseudo-stage carries the network model's charge for
/// the chunk upload.
pub const INGEST_STAGES: &[&str] = &[
    "subchunk",
    "partition",
    "assemble",
    "index",
    "write",
    "modeled_write",
];

/// Stage labels of the compaction pipeline, in pipeline order.
pub const COMPACT_STAGES: &[&str] = &[
    "measure",
    "extract",
    "partition",
    "rebuild",
    "index",
    "write",
    "modeled_write",
    "delete",
    "modeled_delete",
];

/// A family of per-stage latency histograms sharing one metric name,
/// labeled `{stage="..."}` in the exposition.
#[derive(Debug)]
pub struct StageHists {
    names: &'static [&'static str],
    hists: Vec<Histogram>,
}

impl StageHists {
    fn new(names: &'static [&'static str]) -> Self {
        StageHists {
            names,
            hists: names.iter().map(|_| Histogram::new()).collect(),
        }
    }

    /// Records a duration for the named stage. Unknown names are
    /// ignored (stage sets are fixed at compile time; a typo shows up
    /// as a missing series, not a panic in the ingest path).
    pub fn record(&self, stage: &str, d: Duration) {
        if let Some(i) = self.names.iter().position(|n| *n == stage) {
            self.hists[i].record_duration(d);
        }
    }

    /// Snapshot of one stage's histogram by name.
    pub fn snapshot(&self, stage: &str) -> Option<HistSnapshot> {
        let i = self.names.iter().position(|n| *n == stage)?;
        Some(self.hists[i].snapshot())
    }

    /// `(stage, snapshot)` pairs in pipeline order.
    pub fn snapshots(&self) -> Vec<(&'static str, HistSnapshot)> {
        self.names
            .iter()
            .zip(&self.hists)
            .map(|(n, h)| (*n, h.snapshot()))
            .collect()
    }
}

/// The one registry every subsystem reports into. All fields are
/// recorded with relaxed atomics — no locks, no allocation — so the
/// registry is shared behind an `Arc` across the fetch pool, the
/// cache and the ingest path and stays always-on.
#[derive(Debug)]
pub struct MetricsRegistry {
    // ── query end-to-end ────────────────────────────────────────────
    /// `rstore_query_wall_seconds`
    pub query_wall: Histogram,
    /// `rstore_query_modeled_seconds` (modeled network time: max over
    /// parallel node batches per round, summed over rounds)
    pub query_modeled: Histogram,
    /// `rstore_query_queue_wait_seconds` (admission queue)
    pub queue_wait: Histogram,
    /// `rstore_query_total`
    pub queries: Counter,
    /// `rstore_query_shed_total`
    pub shed: Counter,
    /// `rstore_query_deadline_exceeded_total`
    pub deadline_exceeded: Counter,
    /// `rstore_query_slow_total` (entries pushed to the slow log)
    pub slow_queries: Counter,
    /// `rstore_query_traced_total` (queries selected by the sampler)
    pub traces_sampled: Counter,
    // ── scatter-gather fetch ────────────────────────────────────────
    /// `rstore_fetch_round_wall_seconds`
    pub round_wall: Histogram,
    /// `rstore_fetch_round_modeled_seconds` (per-round straggler =
    /// max modeled batch time in the round)
    pub round_modeled: Histogram,
    /// `rstore_fetch_rounds_total`
    pub rounds: Counter,
    /// `rstore_fetch_bytes_total` (compressed bytes off the backend)
    pub fetch_bytes: Counter,
    /// `rstore_fetch_retries_total` (in-place transient retries)
    pub retries: Counter,
    /// `rstore_fetch_failovers_total` (node batches re-planned onto
    /// another replica)
    pub failovers: Counter,
    /// `rstore_fetch_rerouted_keys_total`
    pub rerouted_keys: Counter,
    // ── hedging ─────────────────────────────────────────────────────
    /// `rstore_hedge_wait_seconds` (delay waited before a hedge wave
    /// fired)
    pub hedge_wait: Histogram,
    /// `rstore_hedge_issued_total`
    pub hedges: Counter,
    /// `rstore_hedge_wins_total`
    pub hedge_wins: Counter,
    // ── decoded-chunk cache ─────────────────────────────────────────
    /// `rstore_cache_hits_total`
    pub cache_hits: Counter,
    /// `rstore_cache_misses_total`
    pub cache_misses: Counter,
    /// `rstore_cache_evictions_total`
    pub cache_evictions: Counter,
    /// `rstore_cache_invalidations_total`
    pub cache_invalidations: Counter,
    // ── ingest ──────────────────────────────────────────────────────
    /// `rstore_ingest_flush_seconds` (end-to-end per flushed batch)
    pub ingest_flush: Histogram,
    /// `rstore_ingest_stage_seconds{stage=...}`
    pub ingest_stages: StageHists,
    /// `rstore_ingest_flushes_total`
    pub flushes: Counter,
    // ── compaction ──────────────────────────────────────────────────
    /// `rstore_compact_total_seconds` (end-to-end per compaction run)
    pub compact_total: Histogram,
    /// `rstore_compact_stage_seconds{stage=...}`
    pub compact_stages: StageHists,
    /// `rstore_compact_runs_total`
    pub compactions: Counter,
    // ── snapshot isolation (PR 10) ──────────────────────────────────
    /// `rstore_generation_swaps_total` (snapshot publishes)
    pub generation_swaps_total: Counter,
    /// `rstore_snapshot_pin_seconds` (how long readers hold a
    /// generation pinned, plan through extract)
    pub snapshot_pin_seconds: Histogram,
    /// `rstore_reclaimed_chunk_slots_total` (retired tombstone slots
    /// moved to the free list or truncated by reclamation)
    pub reclaimed_chunk_slots_total: Counter,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry {
            query_wall: Histogram::new(),
            query_modeled: Histogram::new(),
            queue_wait: Histogram::new(),
            queries: Counter::default(),
            shed: Counter::default(),
            deadline_exceeded: Counter::default(),
            slow_queries: Counter::default(),
            traces_sampled: Counter::default(),
            round_wall: Histogram::new(),
            round_modeled: Histogram::new(),
            rounds: Counter::default(),
            fetch_bytes: Counter::default(),
            retries: Counter::default(),
            failovers: Counter::default(),
            rerouted_keys: Counter::default(),
            hedge_wait: Histogram::new(),
            hedges: Counter::default(),
            hedge_wins: Counter::default(),
            cache_hits: Counter::default(),
            cache_misses: Counter::default(),
            cache_evictions: Counter::default(),
            cache_invalidations: Counter::default(),
            ingest_flush: Histogram::new(),
            ingest_stages: StageHists::new(INGEST_STAGES),
            flushes: Counter::default(),
            compact_total: Histogram::new(),
            compact_stages: StageHists::new(COMPACT_STAGES),
            compactions: Counter::default(),
            generation_swaps_total: Counter::default(),
            snapshot_pin_seconds: Histogram::new(),
            reclaimed_chunk_slots_total: Counter::default(),
        }
    }

    /// Renders every registry metric in Prometheus text format into
    /// `out`. The store layer appends its pull-based gauges after
    /// this.
    pub fn render(&self, out: &mut String) {
        render_hist(out, "rstore_query_wall_seconds", "End-to-end query wall time", "", &self.query_wall.snapshot());
        render_hist(out, "rstore_query_modeled_seconds", "End-to-end modeled network time", "", &self.query_modeled.snapshot());
        render_hist(out, "rstore_query_queue_wait_seconds", "Admission-control queue wait", "", &self.queue_wait.snapshot());
        render_counter(out, "rstore_query_total", "Queries executed", self.queries.get());
        render_counter(out, "rstore_query_shed_total", "Queries shed by admission control", self.shed.get());
        render_counter(out, "rstore_query_deadline_exceeded_total", "Queries that tripped their deadline", self.deadline_exceeded.get());
        render_counter(out, "rstore_query_slow_total", "Queries captured in the slow-query log", self.slow_queries.get());
        render_counter(out, "rstore_query_traced_total", "Queries selected by the trace sampler", self.traces_sampled.get());
        render_hist(out, "rstore_fetch_round_wall_seconds", "Per-fetch-round wall time", "", &self.round_wall.snapshot());
        render_hist(out, "rstore_fetch_round_modeled_seconds", "Per-fetch-round modeled straggler time", "", &self.round_modeled.snapshot());
        render_counter(out, "rstore_fetch_rounds_total", "Scatter-gather fetch rounds", self.rounds.get());
        render_counter(out, "rstore_fetch_bytes_total", "Compressed bytes fetched from the backend", self.fetch_bytes.get());
        render_counter(out, "rstore_fetch_retries_total", "In-place transient retries", self.retries.get());
        render_counter(out, "rstore_fetch_failovers_total", "Node batches failed over to another replica", self.failovers.get());
        render_counter(out, "rstore_fetch_rerouted_keys_total", "Keys re-routed to another replica", self.rerouted_keys.get());
        render_hist(out, "rstore_hedge_wait_seconds", "Delay waited before a hedge wave fired", "", &self.hedge_wait.snapshot());
        render_counter(out, "rstore_hedge_issued_total", "Hedge batches issued", self.hedges.get());
        render_counter(out, "rstore_hedge_wins_total", "Hedge batches that beat the straggler", self.hedge_wins.get());
        render_counter(out, "rstore_cache_hits_total", "Decoded-chunk cache hits", self.cache_hits.get());
        render_counter(out, "rstore_cache_misses_total", "Decoded-chunk cache misses", self.cache_misses.get());
        render_counter(out, "rstore_cache_evictions_total", "Decoded-chunk cache evictions", self.cache_evictions.get());
        render_counter(out, "rstore_cache_invalidations_total", "Decoded-chunk cache invalidations", self.cache_invalidations.get());
        render_hist(out, "rstore_ingest_flush_seconds", "End-to-end per-flush ingest time", "", &self.ingest_flush.snapshot());
        render_stage_hists(out, "rstore_ingest_stage_seconds", "Per-stage ingest time", &self.ingest_stages);
        render_counter(out, "rstore_ingest_flushes_total", "Ingest batches flushed", self.flushes.get());
        render_hist(out, "rstore_compact_total_seconds", "End-to-end per-compaction time", "", &self.compact_total.snapshot());
        render_stage_hists(out, "rstore_compact_stage_seconds", "Per-stage compaction time", &self.compact_stages);
        render_counter(out, "rstore_compact_runs_total", "Compaction runs", self.compactions.get());
        render_counter(out, "rstore_generation_swaps_total", "Snapshot generations published", self.generation_swaps_total.get());
        render_hist(out, "rstore_snapshot_pin_seconds", "Reader snapshot pin hold time", "", &self.snapshot_pin_seconds.snapshot());
        render_counter(out, "rstore_reclaimed_chunk_slots_total", "Retired chunk slots reclaimed", self.reclaimed_chunk_slots_total.get());
    }
}

// ── Prometheus text rendering ───────────────────────────────────────

fn seconds(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// Renders a `# HELP`/`# TYPE` header plus one sample line.
pub fn render_counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

/// Renders a gauge with optional `{labels}` (pass `""` for none).
pub fn render_gauge(out: &mut String, name: &str, help: &str, labels: &str, value: f64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name}{labels} {value}\n"
    ));
}

fn render_hist_series(out: &mut String, name: &str, labels: &str, snap: &HistSnapshot) {
    // Prometheus histograms are cumulative; emit only the occupied
    // buckets (plus +Inf) to keep scrapes compact — cumulative counts
    // are unaffected by omitted empty buckets.
    let mut cumulative = 0u64;
    let sep = if labels.is_empty() { "" } else { "," };
    let open = "{";
    let inner = labels.trim_start_matches('{').trim_end_matches('}');
    for (bound, count) in snap.nonzero_buckets() {
        cumulative += count;
        out.push_str(&format!(
            "{name}_bucket{open}{inner}{sep}le=\"{}\"}} {cumulative}\n",
            seconds(bound)
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{open}{inner}{sep}le=\"+Inf\"}} {}\n",
        snap.count()
    ));
    out.push_str(&format!("{name}_sum{labels} {}\n", seconds(snap.sum_nanos())));
    out.push_str(&format!("{name}_count{labels} {}\n", snap.count()));
}

/// Renders one histogram (header + cumulative buckets + sum + count).
/// `labels` is either empty or a full `{k="v"}` group.
pub fn render_hist(out: &mut String, name: &str, help: &str, labels: &str, snap: &HistSnapshot) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    render_hist_series(out, name, labels, snap);
}

/// Renders a labeled histogram family: one header, one series per
/// `(labels, snapshot)` pair.
pub fn render_hist_family(
    out: &mut String,
    name: &str,
    help: &str,
    series: &[(String, HistSnapshot)],
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    for (labels, snap) in series {
        render_hist_series(out, name, labels, snap);
    }
}

fn render_stage_hists(out: &mut String, name: &str, help: &str, stages: &StageHists) {
    let series: Vec<(String, HistSnapshot)> = stages
        .snapshots()
        .into_iter()
        .map(|(stage, snap)| (format!("{{stage=\"{stage}\"}}"), snap))
        .collect();
    render_hist_family(out, name, help, &series);
}

// ── Trace spans ─────────────────────────────────────────────────────

/// Virtual-thread lane of the query-level spans (admission, plan,
/// rounds, extract). Per-node batch spans use `TID_NODE_BASE + node`.
pub const TID_QUERY: u32 = 0;
/// Base lane for per-node batch/decode spans.
pub const TID_NODE_BASE: u32 = 1;

/// One completed span, start/duration relative to the trace origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Human-readable name, e.g. `round 0` or `batch node 2 (5 keys)`.
    pub name: String,
    /// Lane (Chrome trace `tid`): [`TID_QUERY`] or a node lane.
    pub tid: u32,
    /// Offset from the trace origin.
    pub start: Duration,
    /// Span duration.
    pub dur: Duration,
}

/// A live trace under construction, shared across the fetch pool's
/// worker threads. Only allocated for sampled queries, so its mutex
/// and string allocations never touch the unsampled query path.
#[derive(Debug)]
pub struct TraceSink {
    t0: Instant,
    spans: Mutex<Vec<TraceSpan>>,
}

impl TraceSink {
    pub fn new() -> Arc<Self> {
        Arc::new(TraceSink {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// The trace origin: span starts are measured from here.
    pub fn origin(&self) -> Instant {
        self.t0
    }

    /// Records a completed span from `started` until now.
    pub fn add(&self, name: String, tid: u32, started: Instant) {
        self.add_between(name, tid, started, Instant::now());
    }

    /// Records a completed span with explicit endpoints.
    pub fn add_between(&self, name: String, tid: u32, start: Instant, end: Instant) {
        let span = TraceSpan {
            name,
            tid,
            start: start.saturating_duration_since(self.t0),
            dur: end.saturating_duration_since(start),
        };
        self.spans.lock().expect("trace sink poisoned").push(span);
    }

    /// Records a span as an explicit (offset, duration) pair — used
    /// for phases whose wall endpoints were measured elsewhere, e.g.
    /// the admission wait that completed before the sink existed.
    pub fn add_offset(&self, name: String, tid: u32, start: Duration, dur: Duration) {
        self.spans
            .lock()
            .expect("trace sink poisoned")
            .push(TraceSpan { name, tid, start, dur });
    }

    /// Freezes the sink into a [`QueryTrace`], sorted by start time.
    pub fn finish(&self, seq: u64) -> QueryTrace {
        let mut spans = self.spans.lock().expect("trace sink poisoned").clone();
        spans.sort_by_key(|s| (s.start, s.tid));
        QueryTrace { seq, spans }
    }
}

/// RAII span: records `[creation, drop]` on `sink` as a completed
/// span. Created through [`span_opt`], which skips the name
/// allocation entirely when the query is unsampled.
pub struct SpanGuard {
    sink: Arc<TraceSink>,
    name: String,
    tid: u32,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.sink
            .add(std::mem::take(&mut self.name), self.tid, self.start);
    }
}

/// Starts a span on `sink` if the query is sampled; `name` is only
/// invoked (and only allocates) when it is.
pub fn span_opt(
    sink: &Option<Arc<TraceSink>>,
    tid: u32,
    name: impl FnOnce() -> String,
) -> Option<SpanGuard> {
    sink.as_ref().map(|s| SpanGuard {
        sink: Arc::clone(s),
        name: name(),
        tid,
        start: Instant::now(),
    })
}

/// A completed per-query span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// The query's arrival sequence number (the sampler's input).
    pub seq: u64,
    /// Completed spans sorted by start offset.
    pub spans: Vec<TraceSpan>,
}

impl QueryTrace {
    /// True if some span's name starts with `prefix` — how tests
    /// assert the tree contains admission/plan/round/extract phases.
    pub fn has_span(&self, prefix: &str) -> bool {
        self.spans.iter().any(|s| s.name.starts_with(prefix))
    }

    /// Exports the trace as a Chrome trace-event JSON array of
    /// complete (`"ph":"X"`) events — loadable in `chrome://tracing`
    /// and Perfetto. Timestamps are microseconds from the trace
    /// origin; lanes map to `tid`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                json_escape(&s.name),
                s.start.as_nanos() as f64 / 1e3,
                s.dur.as_nanos() as f64 / 1e3,
                s.tid,
            ));
        }
        out.push(']');
        out
    }
}

/// Escapes a string as a JSON string literal (quotes included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ── Slow-query log ──────────────────────────────────────────────────

/// Why a query entered the slow-query log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowReason {
    /// Completed, but wall time crossed `ObsConfig::slow_threshold`.
    Threshold,
    /// Shed by admission control (never executed).
    Shed,
    /// Tripped its deadline mid-execution.
    DeadlineExceeded,
}

impl SlowReason {
    pub fn as_str(&self) -> &'static str {
        match self {
            SlowReason::Threshold => "threshold",
            SlowReason::Shed => "shed",
            SlowReason::DeadlineExceeded => "deadline",
        }
    }
}

/// One slow-query log entry.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Arrival sequence number.
    pub seq: u64,
    /// Human-readable query spec (`QuerySpec` debug form).
    pub spec: String,
    /// Why it was captured.
    pub reason: SlowReason,
    /// Full per-query cost accounting (default-zero for shed queries,
    /// which never executed).
    pub stats: QueryStats,
    /// The span tree, when the query was also trace-sampled.
    pub trace: Option<QueryTrace>,
}

/// Bounded ring buffer of [`SlowQuery`] entries: pushes are O(1), the
/// newest `capacity` entries are retained.
#[derive(Debug)]
pub struct SlowLog {
    capacity: usize,
    entries: Mutex<VecDeque<SlowQuery>>,
}

impl SlowLog {
    pub fn new(capacity: usize) -> Self {
        SlowLog {
            capacity: capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an entry, evicting the oldest when full.
    pub fn push(&self, entry: SlowQuery) {
        let mut q = self.entries.lock().expect("slow log poisoned");
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(entry);
    }

    /// Oldest-first snapshot of the retained entries.
    pub fn snapshot(&self) -> Vec<SlowQuery> {
        self.entries
            .lock()
            .expect("slow log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    pub fn len(&self) -> usize {
        self.entries.lock().expect("slow log poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ── The per-store observability hub ─────────────────────────────────

/// How a query's execution ended, for [`Obs::finish_query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    Ok,
    Shed,
    DeadlineExceeded,
}

/// The store's observability hub: the registry plus the trace
/// sampler, last-trace slot and slow-query log. One per `RStore`,
/// shared behind an `Arc` with the execution layer.
#[derive(Debug)]
pub struct Obs {
    config: ObsConfig,
    registry: Arc<MetricsRegistry>,
    /// Arrival sequence counter — the deterministic sampler's clock.
    query_seq: AtomicU64,
    /// Trace every `trace_period`-th query; 0 disables tracing.
    trace_period: u64,
    last_trace: Mutex<Option<QueryTrace>>,
    slow: SlowLog,
}

impl Obs {
    pub fn new(config: ObsConfig) -> Arc<Self> {
        let trace_period = if config.enabled && config.trace.sample > 0.0 {
            (1.0 / config.trace.sample.min(1.0)).round().max(1.0) as u64
        } else {
            0
        };
        Arc::new(Obs {
            config,
            registry: Arc::new(MetricsRegistry::new()),
            query_seq: AtomicU64::new(0),
            trace_period,
            last_trace: Mutex::new(None),
            slow: SlowLog::new(config.slow_log_capacity),
        })
    }

    pub fn config(&self) -> ObsConfig {
        self.config
    }

    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The shared registry (for the execution layer and exposition).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Starts a query: assigns its arrival sequence number and
    /// decides — deterministically — whether to trace it. The
    /// unsampled path allocates nothing.
    pub fn begin_query(&self) -> (u64, Option<Arc<TraceSink>>) {
        let seq = self.query_seq.fetch_add(1, Ordering::Relaxed);
        let trace = if self.trace_period != 0 && seq.is_multiple_of(self.trace_period) {
            self.registry.traces_sampled.inc();
            Some(TraceSink::new())
        } else {
            None
        };
        (seq, trace)
    }

    /// Finishes a query: records the end-to-end histograms and
    /// outcome counters, finalizes the trace (if sampled) into the
    /// last-trace slot, and captures slow/shed/deadline queries in
    /// the slow log. `spec` is only rendered for captured queries.
    pub fn finish_query(
        &self,
        seq: u64,
        spec: &dyn std::fmt::Debug,
        stats: &QueryStats,
        trace: Option<&Arc<TraceSink>>,
        outcome: QueryOutcome,
    ) {
        if !self.config.enabled {
            return;
        }
        let r = &self.registry;
        r.queries.inc();
        match outcome {
            QueryOutcome::Ok => {}
            QueryOutcome::Shed => r.shed.inc(),
            QueryOutcome::DeadlineExceeded => r.deadline_exceeded.inc(),
        }
        if outcome != QueryOutcome::Shed {
            r.query_wall.record_duration(stats.elapsed);
            r.query_modeled.record_duration(stats.modeled_network);
            r.retries.add(stats.retries as u64);
            r.failovers.add(stats.failovers as u64);
            r.rerouted_keys.add(stats.rerouted_keys as u64);
            r.fetch_bytes.add(stats.bytes_fetched as u64);
            r.hedges.add(stats.hedges as u64);
            r.hedge_wins.add(stats.hedge_wins as u64);
        }
        let finished = trace.map(|t| t.finish(seq));
        if let Some(qt) = &finished {
            *self.last_trace.lock().expect("last trace poisoned") = Some(qt.clone());
        }
        let reason = match outcome {
            QueryOutcome::Shed => Some(SlowReason::Shed),
            QueryOutcome::DeadlineExceeded => Some(SlowReason::DeadlineExceeded),
            QueryOutcome::Ok => self
                .config
                .slow_threshold
                .filter(|t| stats.elapsed >= *t)
                .map(|_| SlowReason::Threshold),
        };
        if let Some(reason) = reason {
            r.slow_queries.inc();
            self.slow.push(SlowQuery {
                seq,
                spec: format!("{spec:?}"),
                reason,
                stats: *stats,
                trace: finished,
            });
        }
    }

    /// The most recent sampled trace, if any query has been traced.
    pub fn last_trace(&self) -> Option<QueryTrace> {
        self.last_trace.lock().expect("last trace poisoned").clone()
    }

    /// Oldest-first snapshot of the slow-query log.
    pub fn slow_log(&self) -> Vec<SlowQuery> {
        self.slow.snapshot()
    }

    /// Direct access to the slow log (tests).
    pub fn slow(&self) -> &SlowLog {
        &self.slow
    }
}

// ── Unified JSON snapshot ───────────────────────────────────────────

/// Condensed view of one latency histogram for JSON snapshots:
/// count, mean and the two quantiles every experiment reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistSummary {
    /// Values recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median.
    pub p50: Duration,
    /// 99th percentile.
    pub p99: Duration,
}

impl HistSummary {
    /// Summarizes a snapshot.
    pub fn of(snap: &HistSnapshot) -> Self {
        HistSummary {
            count: snap.count(),
            mean: snap.mean(),
            p50: snap.quantile(0.5),
            p99: snap.quantile(0.99),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean_s\":{},\"p50_s\":{},\"p99_s\":{}}}",
            self.count,
            fnum(self.mean.as_secs_f64()),
            fnum(self.p50.as_secs_f64()),
            fnum(self.p99.as_secs_f64())
        )
    }
}

/// Formats a float for JSON: non-finite values (never expected, but a
/// ratio over an empty store could produce one) render as 0.
fn fnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// One unified point-in-time snapshot across every store subsystem —
/// versioning layout, fragmentation, cache, serving core, backend
/// cluster and the observability registry's query/ingest counters.
/// Built by [`RStore::stats_snapshot`](crate::store::RStore::stats_snapshot);
/// `rstore-cli stats --json` prints [`StoreStats::to_json`].
///
/// (Named `StoreStats` rather than `StatsSnapshot` because the
/// backend kvstore already exports a `StatsSnapshot` of its own,
/// embedded here as [`StoreStats::backend`].)
#[derive(Debug, Clone)]
pub struct StoreStats {
    /// Versions in the graph.
    pub versions: usize,
    /// Sum of compressed chunk bytes.
    pub storage_bytes: usize,
    /// Layout-decay measurement.
    pub fragmentation: crate::compact::FragmentationStats,
    /// Decoded-chunk cache counters + residency.
    pub cache: crate::cache::CacheStats,
    /// Admission gate + fetch pool counters.
    pub serve: crate::serve::ServeStats,
    /// Backend cluster counters.
    pub backend: rstore_kvstore::StatsSnapshot,
    /// End-to-end query wall time.
    pub query_wall: HistSummary,
    /// End-to-end modeled network time.
    pub query_modeled: HistSummary,
    /// Admission queue wait.
    pub queue_wait: HistSummary,
    /// Per-fetch-round wall time.
    pub round_wall: HistSummary,
    /// Queries executed / shed / deadline-tripped / slow-logged.
    pub queries: u64,
    /// Queries shed by admission control.
    pub shed: u64,
    /// Queries that tripped their deadline.
    pub deadline_exceeded: u64,
    /// Entries pushed to the slow-query log.
    pub slow_queries: u64,
    /// Hedge batches issued / won.
    pub hedges: u64,
    /// Hedge batches that beat the straggler.
    pub hedge_wins: u64,
    /// In-place transient retries.
    pub retries: u64,
    /// Node batches failed over to another replica.
    pub failovers: u64,
    /// Ingest batches flushed.
    pub flushes: u64,
    /// Compaction runs.
    pub compactions: u64,
    /// Current snapshot generation (monotonic across publishes).
    pub generation: u64,
    /// Readers currently holding snapshot pins.
    pub pinned_readers: usize,
    /// Deferred-reclamation batches waiting for old pins to drain.
    pub reclaim_backlog: usize,
    /// Bytes the live chunk maps keep resident — every read extracts
    /// with them, none is fetched.
    pub resident_map_bytes: usize,
}

impl StoreStats {
    /// Hand-rolled JSON encoding (the crate deliberately has no serde
    /// dependency). Keys are stable; all durations are seconds.
    pub fn to_json(&self) -> String {
        let f = &self.fragmentation;
        let c = &self.cache;
        let s = &self.serve;
        let b = &self.backend;
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str(&format!("\"versions\":{},", self.versions));
        out.push_str(&format!("\"storage_bytes\":{},", self.storage_bytes));
        out.push_str(&format!(
            "\"fragmentation\":{{\"live_chunks\":{},\"retired_chunks\":{},\"reclaimed_chunks\":{},\"mean_fill\":{},\"under_filled\":{},\"total_version_span\":{},\"mean_version_span\":{},\"max_version_span\":{},\"est_read_amplification\":{}}},",
            f.live_chunks,
            f.retired_chunks,
            f.reclaimed_chunks,
            fnum(f.mean_fill),
            f.under_filled,
            f.total_version_span,
            fnum(f.mean_version_span),
            f.max_version_span,
            fnum(f.est_read_amplification)
        ));
        out.push_str(&format!(
            "\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"invalidations\":{},\"resident_bytes\":{},\"resident_chunks\":{},\"hit_rate\":{}}},",
            c.hits,
            c.misses,
            c.evictions,
            c.invalidations,
            c.resident_bytes,
            c.resident_chunks,
            fnum(c.hit_rate())
        ));
        out.push_str(&format!(
            "\"serve\":{{\"pool_workers\":{},\"jobs\":{},\"admitted\":{},\"shed\":{},\"in_flight\":{},\"peak_in_flight\":{},\"peak_queued\":{},\"total_queue_wait_s\":{}}},",
            s.pool_size,
            s.jobs_run,
            s.admitted,
            s.shed,
            s.in_flight,
            s.peak_in_flight,
            s.peak_queued,
            fnum(s.total_queue_wait.as_secs_f64())
        ));
        out.push_str(&format!(
            "\"backend\":{{\"requests\":{},\"gets\":{},\"puts\":{},\"deletes\":{},\"batch_gets\":{},\"bytes_read\":{},\"bytes_written\":{},\"modeled_time_s\":{},\"retries\":{},\"faults_injected\":{},\"hints_recorded\":{},\"hints_replayed\":{},\"under_replicated\":{}}},",
            b.requests,
            b.gets,
            b.puts,
            b.deletes,
            b.batch_gets,
            b.bytes_read,
            b.bytes_written,
            fnum(b.modeled_time.as_secs_f64()),
            b.retries,
            b.faults_injected,
            b.hints_recorded,
            b.hints_replayed,
            b.under_replicated
        ));
        out.push_str(&format!("\"query_wall\":{},", self.query_wall.json()));
        out.push_str(&format!("\"query_modeled\":{},", self.query_modeled.json()));
        out.push_str(&format!("\"queue_wait\":{},", self.queue_wait.json()));
        out.push_str(&format!("\"round_wall\":{},", self.round_wall.json()));
        out.push_str(&format!(
            "\"queries\":{},\"shed\":{},\"deadline_exceeded\":{},\"slow_queries\":{},\"hedges\":{},\"hedge_wins\":{},\"retries\":{},\"failovers\":{},\"flushes\":{},\"compactions\":{},\"generation\":{},\"pinned_readers\":{},\"reclaim_backlog\":{},\"resident_map_bytes\":{}",
            self.queries,
            self.shed,
            self.deadline_exceeded,
            self.slow_queries,
            self.hedges,
            self.hedge_wins,
            self.retries,
            self.failovers,
            self.flushes,
            self.compactions,
            self.generation,
            self.pinned_readers,
            self.reclaim_backlog,
            self.resident_map_bytes
        ));
        out.push('}');
        out
    }
}

// ── Scrape validation ───────────────────────────────────────────────

/// Validates one Prometheus text scrape, returning the `series →
/// value` map: every line must be a well-formed comment or sample,
/// and no series may repeat.
fn parse_scrape(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut series = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if !rest.starts_with("HELP ") && !rest.starts_with("TYPE ") {
                return Err(format!("line {}: unknown comment {line:?}", lineno + 1));
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {}: malformed comment {line:?}", lineno + 1));
        }
        let Some((name_part, value_part)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: no sample value in {line:?}", lineno + 1));
        };
        if value_part.parse::<f64>().is_err() {
            return Err(format!(
                "line {}: unparseable value {value_part:?}",
                lineno + 1
            ));
        }
        let bare = name_part.split('{').next().unwrap_or(name_part);
        if bare.is_empty()
            || !bare
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name {bare:?}", lineno + 1));
        }
        if series.iter().any(|(s, _)| s == name_part) {
            return Err(format!("line {}: duplicate series {name_part:?}", lineno + 1));
        }
        series.push((name_part.to_string(), value_part.parse::<f64>().unwrap()));
    }
    if series.is_empty() {
        return Err("scrape contains no samples".into());
    }
    Ok(series)
}

/// Validates a pair of consecutive scrapes from the same process:
/// both must parse with unique series, and every counter-like series
/// (`_total`, `_count`, `_sum`, `_bucket`) present in both must be
/// monotone non-decreasing. Used by the CLI `smoke` command and CI.
pub fn validate_scrapes(first: &str, second: &str) -> Result<(), String> {
    let a = parse_scrape(first).map_err(|e| format!("first scrape: {e}"))?;
    let b = parse_scrape(second).map_err(|e| format!("second scrape: {e}"))?;
    for (name, va) in &a {
        let bare = name.split('{').next().unwrap_or(name);
        let counter_like = bare.ends_with("_total")
            || bare.ends_with("_count")
            || bare.ends_with("_sum")
            || bare.ends_with("_bucket");
        if !counter_like {
            continue;
        }
        if let Some((_, vb)) = b.iter().find(|(n, _)| n == name) {
            if vb < va {
                return Err(format!(
                    "counter {name} regressed across scrapes: {va} -> {vb}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_period_from_fraction() {
        assert_eq!(Obs::new(ObsConfig::default()).trace_period, 0);
        let every = Obs::new(ObsConfig {
            trace: TraceConfig { sample: 1.0 },
            ..ObsConfig::default()
        });
        assert_eq!(every.trace_period, 1);
        let tenth = Obs::new(ObsConfig {
            trace: TraceConfig { sample: 0.1 },
            ..ObsConfig::default()
        });
        assert_eq!(tenth.trace_period, 10);
        let mut sampled = 0;
        for _ in 0..100 {
            if tenth.begin_query().1.is_some() {
                sampled += 1;
            }
        }
        assert_eq!(sampled, 10, "deterministic 1-in-10 sampling");
    }

    #[test]
    fn disabled_obs_never_traces() {
        let obs = Obs::new(ObsConfig {
            enabled: false,
            trace: TraceConfig { sample: 1.0 },
            ..ObsConfig::default()
        });
        assert!(obs.begin_query().1.is_none());
    }

    #[test]
    fn chrome_json_is_wellformed() {
        let sink = TraceSink::new();
        sink.add_offset("plan".into(), TID_QUERY, Duration::ZERO, Duration::from_micros(5));
        sink.add_offset(
            "batch node 0 (3 keys)".into(),
            TID_NODE_BASE,
            Duration::from_micros(5),
            Duration::from_micros(20),
        );
        let json = sink.finish(7).to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"plan\""));
        assert!(json.contains("\"tid\":1"));
    }

    #[test]
    fn slow_log_is_bounded_and_newest_retained() {
        let log = SlowLog::new(3);
        for seq in 0..10u64 {
            log.push(SlowQuery {
                seq,
                spec: String::new(),
                reason: SlowReason::Threshold,
                stats: QueryStats::default(),
                trace: None,
            });
        }
        let entries = log.snapshot();
        assert_eq!(entries.len(), 3);
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
    }

    #[test]
    fn registry_renders_and_validates() {
        let r = MetricsRegistry::new();
        r.queries.inc();
        r.query_wall.record(1_500_000);
        r.ingest_stages.record("write", Duration::from_micros(10));
        let mut first = String::new();
        r.render(&mut first);
        r.queries.inc();
        r.query_wall.record(2_500_000);
        let mut second = String::new();
        r.render(&mut second);
        validate_scrapes(&first, &second).expect("scrapes validate");
    }

    #[test]
    fn validator_rejects_regressing_counter() {
        let first = "# HELP x_total t\n# TYPE x_total counter\nx_total 5\n";
        let second = "# HELP x_total t\n# TYPE x_total counter\nx_total 3\n";
        assert!(validate_scrapes(first, second).is_err());
        assert!(validate_scrapes(first, first).is_ok());
    }

    #[test]
    fn validator_rejects_duplicate_series() {
        let bad = "x_total 1\nx_total 2\n";
        assert!(parse_scrape(bad).is_err());
        let labeled_ok = "x{node=\"0\"} 1\nx{node=\"1\"} 2\n";
        assert!(parse_scrape(labeled_ok).is_ok());
    }
}
