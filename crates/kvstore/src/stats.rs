//! Request and byte accounting.
//!
//! The paper's cost analysis (Table 1) is expressed in number of
//! queries and amount of data retrieved; these counters make both
//! observable for every experiment, alongside the modeled network
//! time (useful when [`crate::NetworkModel::real_sleep`] is off).

use crate::hist::{HistSnapshot, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// EWMA smoothing factor for both the service-time and error-rate
/// scores: each new batch carries 20% of the estimate.
const EWMA_ALPHA: f64 = 0.2;

/// One node's slot. The node thread counts the read batches it
/// serves and the modeled time it spends; the client scores every
/// [`Cluster::fetch_from`](crate::Cluster::fetch_from) batch into the
/// service histogram and the EWMAs. The batch counts are the
/// routing-skew signal (a hot span piles its keys onto one replica
/// unless routing spreads them); the per-key service EWMA is what the
/// executor's hedge threshold is derived from.
#[derive(Debug, Default)]
struct NodeCounters {
    batch_gets: AtomicU64,
    keys_served: AtomicU64,
    modeled_nanos: AtomicU64,
    /// Modeled *batch* service time of every scored success — the
    /// full distribution behind the per-key EWMA, recorded lock-free.
    service: Histogram,
    /// The EWMAs and scored counts, under a mutex: batches are coarse
    /// (a full node round trip each), so one short hold per batch is
    /// negligible next to the work it measures.
    score: Mutex<Score>,
}

/// A node's scored batches.
#[derive(Debug, Default)]
struct Score {
    ewma_service_nanos: f64,
    error_rate: f64,
    batches: u64,
    failures: u64,
}

/// A point-in-time view of one node: the read batches it served and
/// the score of the batches fetched from it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStats {
    /// The node id.
    pub node: usize,
    /// `MultiGet` batch round trips this node served.
    pub batch_gets: u64,
    /// Keys requested across those batches.
    pub keys_served: u64,
    /// Cumulative modeled service time this node spent, including
    /// chaos-injected latency — the straggler signal.
    pub modeled: Duration,
    /// EWMA of the node's modeled service time *per key* across its
    /// scored batches (zero until the first one).
    pub ewma_service: Duration,
    /// EWMA of the batch failure indicator: ~0.0 for a healthy node,
    /// climbing toward 1.0 while every batch fails.
    pub error_rate: f64,
    /// Successful batch replies scored.
    pub batches: u64,
    /// Post-retry batch failures scored.
    pub failures: u64,
    /// Modeled batch service times of the scored successes.
    pub service: HistSnapshot,
}

/// Shared counters for one cluster: lock-free totals, and one slot per
/// node.
#[derive(Debug, Default)]
pub struct ClusterStats {
    requests: AtomicU64,
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    misses: AtomicU64,
    batch_gets: AtomicU64,
    batch_puts: AtomicU64,
    batch_deletes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    modeled_nanos: AtomicU64,
    retries: AtomicU64,
    faults_injected: AtomicU64,
    hints_recorded: AtomicU64,
    hints_replayed: AtomicU64,
    /// Gauge (not a counter): keys currently known to be
    /// under-replicated, i.e. pending hints. Excluded from
    /// [`reset`](Self::reset) — it reflects live cluster state, not
    /// accumulated traffic.
    under_replicated: AtomicU64,
    /// Per-node slots, indexed by node id.
    per_node: Vec<NodeCounters>,
}

impl ClusterStats {
    /// Creates zeroed counters behind an `Arc`, with a slot for each
    /// of `nodes` nodes.
    pub fn new_shared(nodes: usize) -> Arc<Self> {
        Arc::new(Self {
            per_node: (0..nodes).map(|_| NodeCounters::default()).collect(),
            ..Self::default()
        })
    }

    pub(crate) fn record_get(&self, hit_bytes: Option<usize>) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.gets.fetch_add(1, Ordering::Relaxed);
        match hit_bytes {
            Some(n) => {
                self.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn record_batch_get(&self, node: usize, keys: usize) {
        self.batch_gets.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.per_node.get(node) {
            c.batch_gets.fetch_add(1, Ordering::Relaxed);
            c.keys_served.fetch_add(keys as u64, Ordering::Relaxed);
        }
    }

    /// Every node's view, in node-id order.
    pub fn nodes(&self) -> Vec<NodeStats> {
        self.per_node
            .iter()
            .enumerate()
            .map(|(node, c)| {
                let service = c.service.snapshot();
                let s = c.score.lock().expect("node score poisoned");
                NodeStats {
                    node,
                    batch_gets: c.batch_gets.load(Ordering::Relaxed),
                    keys_served: c.keys_served.load(Ordering::Relaxed),
                    modeled: Duration::from_nanos(c.modeled_nanos.load(Ordering::Relaxed)),
                    ewma_service: Duration::from_nanos(s.ewma_service_nanos as u64),
                    error_rate: s.error_rate,
                    batches: s.batches,
                    failures: s.failures,
                    service,
                }
            })
            .collect()
    }

    /// Scores a successful batch reply from `node`: `modeled` over
    /// `keys` keys.
    pub(crate) fn record_scored_success(&self, node: usize, modeled: Duration, keys: usize) {
        let Some(c) = self.per_node.get(node) else {
            return;
        };
        c.service.record_duration(modeled);
        let per_key = modeled.as_nanos() as f64 / keys.max(1) as f64;
        let mut s = c.score.lock().expect("node score poisoned");
        s.ewma_service_nanos = if s.batches == 0 {
            per_key
        } else {
            s.ewma_service_nanos * (1.0 - EWMA_ALPHA) + per_key * EWMA_ALPHA
        };
        s.error_rate *= 1.0 - EWMA_ALPHA;
        s.batches += 1;
    }

    /// Scores a batch from `node` that failed after its retries.
    pub(crate) fn record_scored_failure(&self, node: usize) {
        let Some(c) = self.per_node.get(node) else {
            return;
        };
        let mut s = c.score.lock().expect("node score poisoned");
        s.error_rate = s.error_rate * (1.0 - EWMA_ALPHA) + EWMA_ALPHA;
        s.failures += 1;
    }

    /// EWMA of `node`'s modeled service time per key (zero until its
    /// first scored batch).
    pub(crate) fn service_ewma(&self, node: usize) -> Duration {
        self.per_node.get(node).map_or(Duration::ZERO, |c| {
            let s = c.score.lock().expect("node score poisoned");
            Duration::from_nanos(s.ewma_service_nanos as u64)
        })
    }

    /// Records modeled service time spent *on* `node` — both in the
    /// global `modeled_time` total and in the node's own slot, so
    /// chaos-injected latency shows up in [`nodes`](Self::nodes).
    pub(crate) fn record_node_modeled(&self, node: usize, d: Duration) {
        self.record_modeled(d);
        if let Some(c) = self.per_node.get(node) {
            c.modeled_nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_batch_put(&self) {
        self.batch_puts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_batch_delete(&self) {
        self.batch_deletes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_put(&self, bytes: usize) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_delete(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.deletes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_modeled(&self, d: Duration) {
        self.modeled_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_hints(&self, n: usize) {
        self.hints_recorded.fetch_add(n as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_hints_replayed(&self, n: usize) {
        self.hints_replayed.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Sets the under-replicated gauge to the authoritative pending
    /// hint count (the hint queue owner recomputes it per mutation).
    pub(crate) fn set_under_replicated(&self, n: u64) {
        self.under_replicated.store(n, Ordering::Relaxed);
    }

    /// Current value of the under-replicated gauge — a lock-free read
    /// used as the fast path for stale-hint invalidation (zero means
    /// no hint queue needs checking).
    pub(crate) fn under_replicated_now(&self) -> u64 {
        self.under_replicated.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            batch_gets: self.batch_gets.load(Ordering::Relaxed),
            batch_puts: self.batch_puts.load(Ordering::Relaxed),
            batch_deletes: self.batch_deletes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            modeled_time: Duration::from_nanos(self.modeled_nanos.load(Ordering::Relaxed)),
            retries: self.retries.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            hints_recorded: self.hints_recorded.load(Ordering::Relaxed),
            hints_replayed: self.hints_replayed.load(Ordering::Relaxed),
            under_replicated: self.under_replicated.load(Ordering::Relaxed),
        }
    }

    /// Resets every traffic counter to zero, the per-node batch
    /// counts and modeled time included. The `under_replicated` gauge
    /// is deliberately left alone: it mirrors the pending hint queue,
    /// which a stats reset does not drain. So are the nodes' scores
    /// and service histograms: the hedge threshold reads the EWMA.
    pub fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.gets.store(0, Ordering::Relaxed);
        self.puts.store(0, Ordering::Relaxed);
        self.deletes.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.batch_gets.store(0, Ordering::Relaxed);
        self.batch_puts.store(0, Ordering::Relaxed);
        self.batch_deletes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.modeled_nanos.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.faults_injected.store(0, Ordering::Relaxed);
        self.hints_recorded.store(0, Ordering::Relaxed);
        self.hints_replayed.store(0, Ordering::Relaxed);
        for c in &self.per_node {
            c.batch_gets.store(0, Ordering::Relaxed);
            c.keys_served.store(0, Ordering::Relaxed);
            c.modeled_nanos.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time view of [`ClusterStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total requests served.
    pub requests: u64,
    /// GET requests.
    pub gets: u64,
    /// PUT requests.
    pub puts: u64,
    /// DELETE requests.
    pub deletes: u64,
    /// GETs that found no value.
    pub misses: u64,
    /// Read round trips (one per `MultiGet` message) — the
    /// scatter-gather fan-out, as opposed to per-key `gets`. Every
    /// read travels as a batch, so a lone `Cluster::get` counts as
    /// one 1-key round trip here (and in the per-node
    /// [`NodeStats`] counters).
    pub batch_gets: u64,
    /// Write round trips (one per `MultiPut` message), as opposed to
    /// per-pair `puts`; a lone `Cluster::put` is one 1-pair round
    /// trip per replica.
    pub batch_puts: u64,
    /// Delete round trips (one per `MultiDelete` message), as opposed
    /// to per-key `deletes`; a lone `Cluster::delete` is one 1-key
    /// round trip per replica.
    pub batch_deletes: u64,
    /// Payload bytes returned by GETs.
    pub bytes_read: u64,
    /// Payload bytes accepted by PUTs.
    pub bytes_written: u64,
    /// Total modeled network time across all requests.
    pub modeled_time: Duration,
    /// Client-side retries spent on transient faults.
    pub retries: u64,
    /// Faults the chaos layer injected (transient errors only; added
    /// latency and crashes show up in `modeled_time` and `NodeDown`
    /// traffic instead).
    pub faults_injected: u64,
    /// Hinted-handoff hints recorded for unreachable replicas.
    pub hints_recorded: u64,
    /// Hints successfully re-replicated by `replay_hints`.
    pub hints_replayed: u64,
    /// Gauge: keys currently under-replicated (pending hints). Not
    /// cleared by `reset` — it mirrors live cluster state.
    pub under_replicated: u64,
}

impl StatsSnapshot {
    /// Difference of two snapshots (self - earlier).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests - earlier.requests,
            gets: self.gets - earlier.gets,
            puts: self.puts - earlier.puts,
            deletes: self.deletes - earlier.deletes,
            misses: self.misses - earlier.misses,
            batch_gets: self.batch_gets - earlier.batch_gets,
            batch_puts: self.batch_puts - earlier.batch_puts,
            batch_deletes: self.batch_deletes - earlier.batch_deletes,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            modeled_time: self.modeled_time.saturating_sub(earlier.modeled_time),
            retries: self.retries - earlier.retries,
            faults_injected: self.faults_injected - earlier.faults_injected,
            hints_recorded: self.hints_recorded - earlier.hints_recorded,
            hints_replayed: self.hints_replayed - earlier.hints_replayed,
            // A gauge, not a counter: the later reading stands on its
            // own (saturating keeps an interval view well-defined).
            under_replicated: self.under_replicated.saturating_sub(earlier.under_replicated),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = ClusterStats::new_shared(2);
        s.record_get(Some(100));
        s.record_get(None);
        s.record_put(50);
        s.record_delete();
        s.record_modeled(Duration::from_micros(3));
        let snap = s.snapshot();
        assert_eq!(snap.requests, 4);
        assert_eq!(snap.gets, 2);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.bytes_read, 100);
        assert_eq!(snap.bytes_written, 50);
        assert_eq!(snap.modeled_time, Duration::from_micros(3));
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn per_node_batch_load_accumulates_and_resets() {
        let s = ClusterStats::new_shared(3);
        s.record_batch_get(0, 5);
        s.record_batch_get(0, 7);
        s.record_batch_get(2, 1);
        let per_node = s.nodes();
        assert_eq!(per_node.len(), 3);
        assert_eq!(per_node[0].batch_gets, 2);
        assert_eq!(per_node[0].keys_served, 12);
        assert_eq!(per_node[1], NodeStats { node: 1, ..NodeStats::default() });
        assert_eq!(per_node[2].keys_served, 1);
        assert_eq!(s.snapshot().batch_gets, 3, "totals stay consistent");
        // An out-of-range node id (defensive) is a no-op, not a panic.
        s.record_batch_get(9, 4);
        assert_eq!(s.snapshot().batch_gets, 4);
        s.reset();
        assert!(s.nodes().iter().all(|n| n.batch_gets == 0 && n.keys_served == 0));
    }

    #[test]
    fn node_modeled_time_feeds_both_totals() {
        let s = ClusterStats::new_shared(2);
        s.record_node_modeled(1, Duration::from_micros(40));
        s.record_node_modeled(1, Duration::from_micros(2));
        s.record_node_modeled(0, Duration::from_micros(8));
        let per_node = s.nodes();
        assert_eq!(per_node[0].modeled, Duration::from_micros(8));
        assert_eq!(per_node[1].modeled, Duration::from_micros(42));
        assert_eq!(s.snapshot().modeled_time, Duration::from_micros(50));
        // Out-of-range node still reaches the global total.
        s.record_node_modeled(7, Duration::from_micros(1));
        assert_eq!(s.snapshot().modeled_time, Duration::from_micros(51));
        s.reset();
        assert!(s.nodes().iter().all(|n| n.modeled == Duration::ZERO));
    }

    #[test]
    fn ewma_tracks_service_time() {
        let s = ClusterStats::new_shared(2);
        s.record_scored_success(0, Duration::from_micros(100), 10); // 10 µs/key
        assert_eq!(s.service_ewma(0), Duration::from_micros(10));
        // A slower batch pulls the estimate up by the EWMA step.
        s.record_scored_success(0, Duration::from_micros(1000), 10); // 100 µs/key
        let e = s.service_ewma(0);
        assert!(e > Duration::from_micros(10) && e < Duration::from_micros(100));
        assert_eq!(s.service_ewma(1), Duration::ZERO, "unscored node stays zero");
        assert_eq!(s.nodes()[0].service.count(), 2, "each success lands in the histogram");
    }

    #[test]
    fn failures_raise_the_error_rate_and_outlive_a_reset() {
        let s = ClusterStats::new_shared(1);
        for _ in 0..100 {
            s.record_scored_failure(0);
        }
        s.record_scored_success(0, Duration::from_micros(5), 1);
        s.reset();
        let node = &s.nodes()[0];
        assert_eq!((node.batches, node.failures), (1, 100));
        assert!(node.error_rate > 0.7, "one success after 100 failures");
        assert_eq!(node.ewma_service, Duration::from_micros(5));
        assert_eq!(node.service.count(), 1);
    }

    #[test]
    fn since_subtracts() {
        let s = ClusterStats::new_shared(1);
        s.record_put(10);
        let a = s.snapshot();
        s.record_put(20);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.puts, 1);
        assert_eq!(d.bytes_written, 20);
    }
}
