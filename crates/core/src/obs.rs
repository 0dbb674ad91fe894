//! The stats spine: one registry of atomics, one point-in-time sample,
//! one descriptor table, and the per-query trace spans and slow-query
//! log that hang off the same hub.
//!
//! # One table
//!
//! Every fact the store reports is a row of [`METRICS`]: its series
//! name, kind, help text, JSON path and how to read it from a
//! [`StoreStats`] sample. [`RStore::stats_snapshot`] takes that sample
//! in one place — the [`MetricsRegistry`] frozen, plus the cache's
//! residency, the admission gate, the layout measurement, the snapshot
//! and pin state, the backend cluster's counters and its per-node
//! stats (one [`NodeStats`] per node, from one `Cluster::node_stats`
//! call) — and the three expositions are walks over the table and the
//! sample, so they cannot disagree:
//! [`StoreStats::to_prometheus`] (`RStore::metrics_text`),
//! [`StoreStats::to_json`] (`rstore-cli stats --json`) and the
//! `rstore-cli stats` listing. Adding a metric is one row (and, for a
//! fact the store counts itself, one registry cell for the row to
//! read).
//!
//! # One atomic per fact
//!
//! The registry is built with the store and shared by plain `Arc` with
//! the cache, the executor and the snapshot pins; a fact is counted
//! where it happens, in its registry cell and nowhere else
//! ([`CacheStats`](crate::cache::CacheStats) and
//! [`ServeStats`](crate::serve::ServeStats) are views over it).
//! Counters always count. Latency histograms go through
//! [`MetricsRegistry::observe`], which `obs_enabled(false)` turns into
//! a no-op — with tracing and the slow-query log off as well, that is
//! the configuration the bench crate's acceptance test
//! `always_on_metrics_cost_under_five_percent` holds the always-on
//! default within 5% of. Both *wall* and *modeled* time are recorded,
//! because the network model is accounting-only: wall time is what the
//! host spent, modeled time is what the simulated cluster would have.
//!
//! # Naming scheme
//!
//! A series is `rstore_<subsystem>_<name>` with the suffix its kind
//! requires — the metric-inventory test in `tests/obs.rs` holds every
//! row to it:
//!
//! * counters end in `_total` (durations: `_seconds_total`);
//! * histograms end in `_seconds` and render as float seconds;
//! * gauges are bare, or carry their unit (`_bytes`, `_seconds`).
//!
//! # Traces and the slow-query log
//!
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
//! # Determinism
//!
//! Nothing in this module consults a wall clock or RNG for
//! *decisions*: trace sampling is `seq % period == 0` on an atomic
//! query counter, chaos replays are untouched, and with tracing
//! disabled the query path allocates nothing extra (regression-tested
//! in `crates/core/tests/obs.rs`), so the replica/chaos/serve/hedge
//! proptest oracles stay bit-identical.
//!
//! [`RStore::stats_snapshot`]: crate::store::RStore::stats_snapshot

use crate::query::QueryStats;
use rstore_kvstore::hist::{HistSnapshot, Histogram};
use rstore_kvstore::NodeStats;
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
    /// Master switch. When false, no latency histograms, no tracing
    /// and no slow-query log (counters still count) — used by the
    /// overhead bench to measure the (sub-5%) cost of the always-on
    /// default.
    pub enabled: bool,
    /// Trace sampling.
    pub trace: TraceConfig,
    /// Wall-time threshold above which a completed query is captured
    /// in the slow-query log. `None` (default) logs only shed and
    /// deadline-tripped queries.
    pub slow_threshold: Option<Duration>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            trace: TraceConfig::default(),
            slow_threshold: None,
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

/// A clone is a point-in-time copy, like [`Histogram`]'s.
impl Clone for Counter {
    fn clone(&self) -> Self {
        Counter(AtomicU64::new(self.get()))
    }
}

/// Stage labels of the ingest pipeline, in pipeline order. The
/// `modeled_write` pseudo-stage carries the network model's charge for
/// the chunk upload.
const INGEST_STAGES: [&str; 6] = [
    "subchunk",
    "partition",
    "assemble",
    "index",
    "write",
    "modeled_write",
];

/// Stage labels of the compaction pipeline, in pipeline order.
const COMPACT_STAGES: [&str; 9] = [
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

/// The one registry every subsystem counts into: one cell per fact
/// the store counts itself, each described by the [`METRICS`] row that
/// reads it. All cells are relaxed atomics — no locks, no allocation —
/// so the registry is shared behind an `Arc` across the fetch pool,
/// the cache, the snapshot pins and the ingest path. A clone is a
/// point-in-time copy: how [`StoreStats`] freezes it.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    /// False under `obs_enabled(false)`: latency samples are dropped.
    timing: bool,
    // ── query end-to-end ────────────────────────────────────────────
    pub query_wall: Histogram,
    pub query_modeled: Histogram,
    pub queue_wait: Histogram,
    pub queries: Counter,
    pub admitted: Counter,
    pub shed: Counter,
    pub deadline_exceeded: Counter,
    pub slow_queries: Counter,
    pub traces_sampled: Counter,
    // ── scatter-gather fetch ────────────────────────────────────────
    pub round_wall: Histogram,
    pub round_modeled: Histogram,
    pub rounds: Counter,
    pub fetch_bytes: Counter,
    pub retries: Counter,
    pub failovers: Counter,
    pub rerouted_keys: Counter,
    // ── hedging ─────────────────────────────────────────────────────
    pub hedge_wait: Histogram,
    pub hedges: Counter,
    pub hedge_wins: Counter,
    // ── decoded-chunk cache ─────────────────────────────────────────
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub cache_evictions: Counter,
    pub cache_invalidations: Counter,
    // ── ingest ──────────────────────────────────────────────────────
    pub ingest_flush: Histogram,
    pub ingest_stages: [Histogram; INGEST_STAGES.len()],
    pub flushes: Counter,
    // ── commit log ──────────────────────────────────────────────────
    pub commit_record_bytes: Histogram,
    pub checkpoints: Counter,
    // ── compaction ──────────────────────────────────────────────────
    pub compact_total: Histogram,
    pub compact_stages: [Histogram; COMPACT_STAGES.len()],
    pub compactions: Counter,
    // ── snapshot isolation ──────────────────────────────────────────
    pub generation_swaps: Counter,
    pub snapshot_pin: Histogram,
    pub reclaimed_chunk_slots: Counter,
}

impl MetricsRegistry {
    /// A zeroed registry; `timing: false` makes
    /// [`MetricsRegistry::observe`] a no-op (`obs_enabled(false)`).
    pub fn new(timing: bool) -> Self {
        MetricsRegistry {
            timing,
            ..Self::default()
        }
    }

    /// Records one latency sample into `hist` — a cell of this
    /// registry — unless timing is off.
    #[inline]
    pub fn observe(&self, hist: &Histogram, d: Duration) {
        if self.timing {
            hist.record_duration(d);
        }
    }

    /// Records one size sample, in bytes, into `hist`, under the same
    /// switch as the latency samples.
    #[inline]
    pub fn observe_bytes(&self, hist: &Histogram, bytes: usize) {
        if self.timing {
            hist.record(bytes as u64);
        }
    }

    /// [`MetricsRegistry::observe`] over a staged family, one sample
    /// per stage in the family's label order.
    pub fn observe_stages<const N: usize>(&self, stages: &[Histogram; N], d: [Duration; N]) {
        for (hist, d) in stages.iter().zip(d) {
            self.observe(hist, d);
        }
    }
}

// ── The point-in-time sample ────────────────────────────────────────

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
}

/// One point-in-time sample across every store subsystem — what every
/// [`METRICS`] row reads and every exposition renders. Built by
/// [`RStore::stats_snapshot`](crate::store::RStore::stats_snapshot).
/// The public fields are read-views of the same sample for callers
/// that want a number rather than an exposition.
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
    /// Current snapshot generation (monotonic across publishes).
    pub generation: u64,
    /// Readers currently holding snapshot pins.
    pub pinned_readers: usize,
    /// Retired chunks whose backend keys wait for a drain.
    pub reclaim_backlog: usize,
    /// Bytes the live chunk maps keep resident — every read extracts
    /// with them, none is fetched.
    pub resident_map_bytes: usize,
    /// Generation records committed since the last checkpoint — what a
    /// restart would replay on top of it.
    pub records_since_checkpoint: u64,
    /// Serialized bytes of the version→chunks and key→chunks
    /// projections.
    pub(crate) index_bytes: (usize, usize),
    /// The registry, frozen at the sample moment: every fact the store
    /// counts itself (queries, sheds, hedges, flushes, latency
    /// histograms, …) is read here.
    pub registry: MetricsRegistry,
    /// The backend nodes, in node-id order.
    pub nodes: Vec<NodeStats>,
}

// ── The descriptor table ────────────────────────────────────────────

/// What a [`Metric`] is to Prometheus (its `# TYPE`), and the suffix
/// its series name must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone; name ends in `_total`.
    Counter,
    /// Point-in-time value; name does not end in `_total`.
    Gauge,
    /// Distribution: of a latency in seconds (name ends in
    /// `_seconds`) or of a size in bytes (`_bytes`).
    Histogram,
}

/// How a row reads its value(s) out of a sample: plain, one series per
/// pipeline stage (`{stage="…"}`), or one per backend node
/// (`{node="…"}`).
enum Read {
    Num(fn(&StoreStats) -> f64),
    Hist(fn(&MetricsRegistry) -> &Histogram),
    /// A histogram whose samples are byte counts, not nanoseconds.
    Sizes(fn(&MetricsRegistry) -> &Histogram),
    Stages(&'static [&'static str], fn(&MetricsRegistry) -> &[Histogram]),
    NodeNum(fn(&NodeStats) -> f64),
    NodeHist(fn(&NodeStats) -> &HistSnapshot),
}

/// One value of a row at a sample.
enum Reading {
    Num(f64),
    Hist(HistSnapshot),
    Sizes(HistSnapshot),
}

/// One row of [`METRICS`]: a fact, described once.
pub struct Metric {
    /// Prometheus series name.
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
    /// Dotted path of the fact in [`StoreStats::to_json`] (at most one
    /// level of nesting); also its label in the `rstore-cli stats`
    /// listing.
    pub json: &'static str,
    read: Read,
}

const fn row(
    name: &'static str,
    kind: MetricKind,
    json: &'static str,
    help: &'static str,
    read: Read,
) -> Metric {
    Metric { name, kind, help, json, read }
}

// Short names for the table's columns.
use MetricKind::{Counter as C, Gauge as G, Histogram as H};
use Read::{Hist, NodeHist, NodeNum, Num, Sizes, Stages};

/// Every metric the store exposes. Rows sharing a JSON object are
/// adjacent only by convention; the writers do not depend on order.
#[rustfmt::skip]
pub static METRICS: &[Metric] = &[
    // ── query end-to-end (counted in `RStore::execute`'s funnel) ────
    row("rstore_query_wall_seconds", H, "query_wall", "End-to-end query wall time, plan through extract", Hist(|r| &r.query_wall)),
    row("rstore_query_modeled_seconds", H, "query_modeled", "Modeled network time per executed plan (max over parallel node batches per round, summed over rounds)", Hist(|r| &r.query_modeled)),
    row("rstore_query_queue_wait_seconds", H, "queue_wait", "Admission-control queue wait per admitted plan", Hist(|r| &r.queue_wait)),
    row("rstore_query_total", C, "queries", "Plans executed, shed and deadline-tripped ones included", Num(|s| s.registry.queries.get() as f64)),
    row("rstore_query_deadline_exceeded_total", C, "deadline_exceeded", "Queries that tripped their deadline, queued or fetching", Num(|s| s.registry.deadline_exceeded.get() as f64)),
    row("rstore_query_slow_total", C, "slow_queries", "Queries captured in the slow-query log", Num(|s| s.registry.slow_queries.get() as f64)),
    row("rstore_query_traced_total", C, "traced_queries", "Queries selected by the trace sampler", Num(|s| s.registry.traces_sampled.get() as f64)),
    // ── scatter-gather fetch ────────────────────────────────────────
    row("rstore_fetch_round_wall_seconds", H, "round_wall", "Per-fetch-round wall time", Hist(|r| &r.round_wall)),
    row("rstore_fetch_round_modeled_seconds", H, "round_modeled", "Per-fetch-round modeled straggler time", Hist(|r| &r.round_modeled)),
    row("rstore_fetch_rounds_total", C, "fetch_rounds", "Scatter-gather fetch rounds", Num(|s| s.registry.rounds.get() as f64)),
    row("rstore_fetch_bytes_total", C, "fetch_bytes", "Compressed chunk bytes fetched from the backend", Num(|s| s.registry.fetch_bytes.get() as f64)),
    row("rstore_fetch_retries_total", C, "retries", "In-place transient retries of chunk fetches", Num(|s| s.registry.retries.get() as f64)),
    row("rstore_fetch_failovers_total", C, "failovers", "Node batches failed over to another replica", Num(|s| s.registry.failovers.get() as f64)),
    row("rstore_fetch_rerouted_keys_total", C, "rerouted_keys", "Keys re-routed to another replica", Num(|s| s.registry.rerouted_keys.get() as f64)),
    // ── hedging ─────────────────────────────────────────────────────
    row("rstore_hedge_wait_seconds", H, "hedge_wait", "Delay waited before a hedge wave fired", Hist(|r| &r.hedge_wait)),
    row("rstore_hedge_issued_total", C, "hedges", "Hedge batches issued", Num(|s| s.registry.hedges.get() as f64)),
    row("rstore_hedge_wins_total", C, "hedge_wins", "Hedge batches that beat the straggler", Num(|s| s.registry.hedge_wins.get() as f64)),
    // ── decoded-chunk cache ─────────────────────────────────────────
    row("rstore_cache_hits_total", C, "cache.hits", "Decoded-chunk cache hits", Num(|s| s.cache.hits as f64)),
    row("rstore_cache_misses_total", C, "cache.misses", "Decoded-chunk cache misses", Num(|s| s.cache.misses as f64)),
    row("rstore_cache_evictions_total", C, "cache.evictions", "Decoded-chunk cache evictions", Num(|s| s.cache.evictions as f64)),
    row("rstore_cache_invalidations_total", C, "cache.invalidations", "Decoded-chunk cache invalidations", Num(|s| s.cache.invalidations as f64)),
    row("rstore_cache_resident_bytes", G, "cache.resident_bytes", "Decoded-chunk cache resident bytes", Num(|s| s.cache.resident_bytes as f64)),
    row("rstore_cache_resident_chunks", G, "cache.resident_chunks", "Decoded-chunk cache resident chunks", Num(|s| s.cache.resident_chunks as f64)),
    row("rstore_cache_hit_ratio", G, "cache.hit_rate", "Decoded-chunk cache hits over lookups", Num(|s| s.cache.hit_rate())),
    // ── ingest ──────────────────────────────────────────────────────
    row("rstore_ingest_flush_seconds", H, "ingest_flush", "End-to-end per-flush ingest time", Hist(|r| &r.ingest_flush)),
    row("rstore_ingest_stage_seconds", H, "ingest_stages", "Per-stage ingest time (bulk load and flush)", Stages(&INGEST_STAGES, |r| &r.ingest_stages)),
    row("rstore_ingest_flushes_total", C, "flushes", "Ingest batches flushed", Num(|s| s.registry.flushes.get() as f64)),
    // ── commit log ──────────────────────────────────────────────────
    row("rstore_commit_record_bytes", H, "commit_record_bytes", "Bytes per generation commit record (flush, bulk load, compaction slice, reclaim)", Sizes(|r| &r.commit_record_bytes)),
    row("rstore_commit_checkpoints_total", C, "checkpoints", "Commit-log checkpoints written", Num(|s| s.registry.checkpoints.get() as f64)),
    row("rstore_commit_records_since_checkpoint", G, "records_since_checkpoint", "Generation records a restart would replay on top of the checkpoint", Num(|s| s.records_since_checkpoint as f64)),
    // ── compaction ──────────────────────────────────────────────────
    row("rstore_compact_total_seconds", H, "compact_total", "End-to-end per-compaction time", Hist(|r| &r.compact_total)),
    row("rstore_compact_stage_seconds", H, "compact_stages", "Per-stage compaction time", Stages(&COMPACT_STAGES, |r| &r.compact_stages)),
    row("rstore_compact_runs_total", C, "compactions", "Compaction runs", Num(|s| s.registry.compactions.get() as f64)),
    // ── snapshot isolation ──────────────────────────────────────────
    row("rstore_generation_swaps_total", C, "generation_swaps", "Snapshot generations published", Num(|s| s.registry.generation_swaps.get() as f64)),
    row("rstore_snapshot_pin_seconds", H, "snapshot_pin", "Reader snapshot pin hold time", Hist(|r| &r.snapshot_pin)),
    row("rstore_reclaimed_chunk_slots_total", C, "reclaimed_chunk_slots", "Retired chunk slots reclaimed", Num(|s| s.registry.reclaimed_chunk_slots.get() as f64)),
    // ── backend cluster ─────────────────────────────────────────────
    row("rstore_cluster_requests_total", C, "backend.requests", "Backend requests", Num(|s| s.backend.requests as f64)),
    row("rstore_cluster_gets_total", C, "backend.gets", "Backend keys read", Num(|s| s.backend.gets as f64)),
    row("rstore_cluster_puts_total", C, "backend.puts", "Backend pairs written", Num(|s| s.backend.puts as f64)),
    row("rstore_cluster_deletes_total", C, "backend.deletes", "Backend keys deleted", Num(|s| s.backend.deletes as f64)),
    row("rstore_cluster_batch_gets_total", C, "backend.batch_gets", "Backend read round trips", Num(|s| s.backend.batch_gets as f64)),
    row("rstore_cluster_bytes_read_total", C, "backend.bytes_read", "Backend bytes read", Num(|s| s.backend.bytes_read as f64)),
    row("rstore_cluster_bytes_written_total", C, "backend.bytes_written", "Backend bytes written", Num(|s| s.backend.bytes_written as f64)),
    row("rstore_cluster_modeled_seconds_total", C, "backend.modeled_time_s", "Modeled network time across all backend requests", Num(|s| s.backend.modeled_time.as_secs_f64())),
    row("rstore_cluster_retries_total", C, "backend.retries", "Cluster-layer in-place retries", Num(|s| s.backend.retries as f64)),
    row("rstore_cluster_faults_injected_total", C, "backend.faults_injected", "Injected faults", Num(|s| s.backend.faults_injected as f64)),
    row("rstore_cluster_hints_recorded_total", C, "backend.hints_recorded", "Handoff hints recorded", Num(|s| s.backend.hints_recorded as f64)),
    row("rstore_cluster_hints_replayed_total", C, "backend.hints_replayed", "Handoff hints replayed", Num(|s| s.backend.hints_replayed as f64)),
    row("rstore_cluster_under_replicated_keys", G, "backend.under_replicated", "Keys currently under-replicated", Num(|s| s.backend.under_replicated as f64)),
    // ── serving core ────────────────────────────────────────────────
    row("rstore_serve_pool_workers", G, "serve.pool_workers", "Fetch-pool workers started", Num(|s| s.serve.pool_size as f64)),
    row("rstore_serve_jobs_total", C, "serve.jobs", "Fetch-pool jobs run", Num(|s| s.serve.jobs_run as f64)),
    row("rstore_serve_admitted_total", C, "serve.admitted", "Queries admitted", Num(|s| s.serve.admitted as f64)),
    row("rstore_serve_shed_total", C, "serve.shed", "Queries shed at admission", Num(|s| s.serve.shed as f64)),
    row("rstore_serve_in_flight", G, "serve.in_flight", "Queries executing now", Num(|s| s.serve.in_flight as f64)),
    row("rstore_serve_peak_in_flight", G, "serve.peak_in_flight", "Peak concurrent queries", Num(|s| s.serve.peak_in_flight as f64)),
    row("rstore_serve_peak_queued", G, "serve.peak_queued", "Peak admission queue depth", Num(|s| s.serve.peak_queued as f64)),
    // ── store layout ────────────────────────────────────────────────
    row("rstore_store_versions", G, "versions", "Versions in the graph", Num(|s| s.versions as f64)),
    row("rstore_store_generation", G, "generation", "Published snapshot generation", Num(|s| s.generation as f64)),
    row("rstore_store_pinned_readers", G, "pinned_readers", "Readers holding snapshot pins", Num(|s| s.pinned_readers as f64)),
    row("rstore_store_reclaim_backlog", G, "reclaim_backlog", "Retired chunks whose backend keys await a drain", Num(|s| s.reclaim_backlog as f64)),
    row("rstore_store_storage_bytes", G, "storage_bytes", "Stored compressed chunk bytes", Num(|s| s.storage_bytes as f64)),
    row("rstore_store_chunk_map_resident_bytes", G, "resident_map_bytes", "Bytes the live chunk maps keep resident", Num(|s| s.resident_map_bytes as f64)),
    row("rstore_store_version_index_bytes", G, "version_index_bytes", "Serialized version->chunks projection bytes", Num(|s| s.index_bytes.0 as f64)),
    row("rstore_store_key_index_bytes", G, "key_index_bytes", "Serialized key->chunks projection bytes", Num(|s| s.index_bytes.1 as f64)),
    row("rstore_store_live_chunks", G, "fragmentation.live_chunks", "Live chunks", Num(|s| s.fragmentation.live_chunks as f64)),
    row("rstore_store_retired_chunks", G, "fragmentation.retired_chunks", "Chunks retired by compaction, not yet reclaimed", Num(|s| s.fragmentation.retired_chunks as f64)),
    row("rstore_store_reclaimed_chunks", G, "fragmentation.reclaimed_chunks", "Retired chunk slots on the reusable free list", Num(|s| s.fragmentation.reclaimed_chunks as f64)),
    row("rstore_store_mean_chunk_fill", G, "fragmentation.mean_fill", "Mean live-chunk fill fraction", Num(|s| s.fragmentation.mean_fill)),
    row("rstore_store_under_filled_chunks", G, "fragmentation.under_filled", "Live chunks below the compaction fill threshold", Num(|s| s.fragmentation.under_filled as f64)),
    row("rstore_store_total_version_span", G, "fragmentation.total_version_span", "Sum over versions of chunks spanned", Num(|s| s.fragmentation.total_version_span as f64)),
    row("rstore_store_mean_version_span", G, "fragmentation.mean_version_span", "Mean per-version chunk span", Num(|s| s.fragmentation.mean_version_span)),
    row("rstore_store_max_version_span", G, "fragmentation.max_version_span", "Widest version's chunk span", Num(|s| s.fragmentation.max_version_span as f64)),
    row("rstore_store_read_amplification", G, "fragmentation.est_read_amplification", "Estimated read amplification over an ideally chunked layout", Num(|s| s.fragmentation.est_read_amplification)),
    // ── per backend node ────────────────────────────────────────────
    row("rstore_node_batch_reads_total", C, "nodes.batch_reads", "Read round trips served per node", NodeNum(|n| n.batch_gets as f64)),
    row("rstore_node_keys_served_total", C, "nodes.keys_served", "Keys served per node", NodeNum(|n| n.keys_served as f64)),
    row("rstore_node_modeled_seconds_total", C, "nodes.modeled_s", "Modeled service time spent per node, injected latency included", NodeNum(|n| n.modeled.as_secs_f64())),
    row("rstore_node_batches_total", C, "nodes.batches", "Scored successful batches per node", NodeNum(|n| n.batches as f64)),
    row("rstore_node_failures_total", C, "nodes.failures", "Scored batch failures per node", NodeNum(|n| n.failures as f64)),
    row("rstore_node_service_ewma_seconds", G, "nodes.service_ewma_s", "Per-key modeled service-time EWMA", NodeNum(|n| n.ewma_service.as_secs_f64())),
    row("rstore_node_error_rate", G, "nodes.error_rate", "Batch-failure EWMA per node", NodeNum(|n| n.error_rate)),
    row("rstore_node_service_seconds", H, "nodes.service", "Modeled batch service time per node", NodeHist(|n| &n.service)),
];

impl Metric {
    /// The row's series at `s` as `(label, reading)` pairs: one
    /// unlabeled pair for a plain metric, one per stage or node for a
    /// family.
    fn series(&self, s: &StoreStats) -> Vec<(Option<(&'static str, String)>, Reading)> {
        let per_node = |read: &dyn Fn(&NodeStats) -> Reading| {
            s.nodes
                .iter()
                .map(|n| (Some(("node", n.node.to_string())), read(n)))
                .collect()
        };
        match self.read {
            Read::Num(read) => vec![(None, Reading::Num(read(s)))],
            Read::Hist(read) => vec![(None, Reading::Hist(read(&s.registry).snapshot()))],
            Read::Sizes(read) => vec![(None, Reading::Sizes(read(&s.registry).snapshot()))],
            Read::Stages(labels, read) => labels
                .iter()
                .zip(read(&s.registry))
                .map(|(stage, h)| (Some(("stage", stage.to_string())), Reading::Hist(h.snapshot())))
                .collect(),
            Read::NodeNum(read) => per_node(&|n| Reading::Num(read(n))),
            Read::NodeHist(read) => per_node(&|n| Reading::Hist(read(n).clone())),
        }
    }

    /// The row's value at `s` as text, for listings: a number, a
    /// histogram's count and quantiles, or one of either per label.
    pub fn show(&self, s: &StoreStats) -> String {
        let show_one = |reading: &Reading| match reading {
            Reading::Num(v) => fnum(*v),
            Reading::Hist(h) => {
                let h = HistSummary::of(h);
                format!("{} sample(s), mean {:?}, p50 {:?}, p99 {:?}", h.count, h.mean, h.p50, h.p99)
            }
            Reading::Sizes(h) => {
                let h = HistSummary::of(h);
                let [mean, p50, p99] = [h.mean, h.p50, h.p99].map(|d| d.as_nanos());
                format!("{} sample(s), mean {mean} B, p50 {p50} B, p99 {p99} B", h.count)
            }
        };
        let parts: Vec<String> = self
            .series(s)
            .iter()
            .map(|(label, reading)| match label {
                None => show_one(reading),
                Some((dim, value)) => format!("{dim} {value}: {}", show_one(reading)),
            })
            .collect();
        parts.join(" | ")
    }
}

// ── The expositions ─────────────────────────────────────────────────

fn seconds(nanos: u64) -> f64 {
    nanos as f64 / 1e9
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

/// One histogram series in Prometheus text: cumulative buckets, sum,
/// count. `labels` is either empty or a full `{k="v"}` group; `unit`
/// turns a stored sample into the series' unit ([`seconds`] for
/// latencies, the identity for sizes).
fn render_hist_series(
    out: &mut String,
    name: &str,
    labels: &str,
    snap: &HistSnapshot,
    unit: fn(u64) -> f64,
) {
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
            unit(bound)
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{open}{inner}{sep}le=\"+Inf\"}} {}\n",
        snap.count()
    ));
    out.push_str(&format!("{name}_sum{labels} {}\n", unit(snap.sum_nanos())));
    out.push_str(&format!("{name}_count{labels} {}\n", snap.count()));
}

impl StoreStats {
    /// The sample in Prometheus text exposition format: one
    /// `# HELP`/`# TYPE` header per [`METRICS`] row, then its series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        for m in METRICS {
            let kind = match m.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            out.push_str(&format!("# HELP {0} {1}\n# TYPE {0} {kind}\n", m.name, m.help));
            for (label, reading) in m.series(self) {
                let labels = label.map_or(String::new(), |(dim, v)| format!("{{{dim}=\"{v}\"}}"));
                match reading {
                    Reading::Num(v) => out.push_str(&format!("{}{labels} {v}\n", m.name)),
                    Reading::Hist(snap) => render_hist_series(&mut out, m.name, &labels, &snap, seconds),
                    Reading::Sizes(snap) => render_hist_series(&mut out, m.name, &labels, &snap, |b| b as f64),
                }
            }
        }
        out
    }

    /// The sample as JSON (hand-rolled: the crate deliberately has no
    /// serde dependency): every [`METRICS`] row at its `json` path, a
    /// dotted path nesting one object deep. Histograms are
    /// `{count, mean_s, p50_s, p99_s}` (`…_bytes` for a size
    /// distribution), families objects keyed by stage or node id; all
    /// durations are seconds.
    pub fn to_json(&self) -> String {
        let json_one = |reading: &Reading| match reading {
            Reading::Num(v) => fnum(*v),
            Reading::Hist(h) => {
                let h = HistSummary::of(h);
                format!(
                    "{{\"count\":{},\"mean_s\":{},\"p50_s\":{},\"p99_s\":{}}}",
                    h.count,
                    fnum(h.mean.as_secs_f64()),
                    fnum(h.p50.as_secs_f64()),
                    fnum(h.p99.as_secs_f64())
                )
            }
            Reading::Sizes(h) => {
                let h = HistSummary::of(h);
                let [mean, p50, p99] = [h.mean, h.p50, h.p99].map(|d| d.as_nanos());
                format!(
                    "{{\"count\":{},\"mean_bytes\":{mean},\"p50_bytes\":{p50},\"p99_bytes\":{p99}}}",
                    h.count
                )
            }
        };
        // Members per object, in first-appearance order; "" is the top
        // level.
        let mut objects: Vec<(&str, Vec<String>)> = vec![("", Vec::new())];
        for m in METRICS {
            let (object, key) = m.json.split_once('.').unwrap_or(("", m.json));
            let series = m.series(self);
            let value = match series.as_slice() {
                [(None, reading)] => json_one(reading),
                family => {
                    let members: Vec<String> = family
                        .iter()
                        .map(|(label, reading)| {
                            let key = label.as_ref().map_or("", |(_, v)| v.as_str());
                            format!("{}:{}", json_escape(key), json_one(reading))
                        })
                        .collect();
                    format!("{{{}}}", members.join(","))
                }
            };
            let member = format!("{}:{value}", json_escape(key));
            match objects.iter_mut().find(|(name, _)| *name == object) {
                Some((_, members)) => members.push(member),
                None => objects.push((object, vec![member])),
            }
        }
        let members: Vec<String> = objects
            .into_iter()
            .flat_map(|(name, members)| match name {
                "" => members,
                _ => vec![format!("{}:{{{}}}", json_escape(name), members.join(","))],
            })
            .collect();
        format!("{{{}}}", members.join(","))
    }
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

/// Entries the slow-query log retains (the newest win).
const SLOW_LOG_CAPACITY: usize = 64;

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
            registry: Arc::new(MetricsRegistry::new(config.enabled)),
            query_seq: AtomicU64::new(0),
            trace_period,
            last_trace: Mutex::new(None),
            slow: SlowLog::new(SLOW_LOG_CAPACITY),
        })
    }

    pub fn config(&self) -> ObsConfig {
        self.config
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

    /// Finishes a query with what only the extract stage knows: its
    /// end-to-end wall time, the finalized trace (if sampled) for the
    /// last-trace slot, and a slow-log entry for a slow, shed or
    /// deadline-tripped query. Everything the fetch stage knows was
    /// counted when the plan executed. `spec` is only rendered for
    /// captured queries.
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
        if outcome != QueryOutcome::Shed {
            r.observe(&r.query_wall, stats.elapsed);
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
    fn disabled_obs_never_traces_or_times() {
        let obs = Obs::new(ObsConfig {
            enabled: false,
            trace: TraceConfig { sample: 1.0 },
            ..ObsConfig::default()
        });
        assert!(obs.begin_query().1.is_none());
        let r = obs.registry();
        r.observe(&r.query_wall, Duration::from_micros(5));
        r.queries.inc();
        assert_eq!((r.query_wall.count(), r.queries.get()), (0, 1));
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
