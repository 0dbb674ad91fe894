//! Request and byte accounting.
//!
//! The paper's cost analysis (Table 1) is expressed in number of
//! queries and amount of data retrieved; these counters make both
//! observable for every experiment, alongside the modeled network
//! time (useful when [`crate::NetworkModel::real_sleep`] is off).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-node read-batch counters: how many `MultiGet` round trips a
/// node served and how many keys rode them. This is the routing-skew
/// signal — under first-live routing a hot span piles its keys onto
/// each key's first replica, while balanced routing flattens these
/// counts across the replica set.
#[derive(Debug, Default)]
struct NodeCounters {
    batch_gets: AtomicU64,
    keys_served: AtomicU64,
    modeled_nanos: AtomicU64,
}

/// A point-in-time view of one node's read-batch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLoad {
    /// The node id.
    pub node: usize,
    /// `MultiGet` batch round trips this node served.
    pub batch_gets: u64,
    /// Keys requested across those batches.
    pub keys_served: u64,
    /// Cumulative modeled service time this node spent, including
    /// chaos-injected latency — the straggler signal. (Before PR 8
    /// injected latency only reached the global `modeled_time`
    /// counter, so a scripted slow node was invisible per-node.)
    pub modeled: Duration,
}

/// Shared, lock-free counters for one cluster.
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
    /// Per-node read-batch load, indexed by node id.
    per_node: Vec<NodeCounters>,
}

impl ClusterStats {
    /// Creates zeroed counters behind an `Arc`, with per-node
    /// read-batch slots for `nodes` nodes.
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

    /// Per-node read-batch load, in node-id order.
    pub fn per_node(&self) -> Vec<NodeLoad> {
        self.per_node
            .iter()
            .enumerate()
            .map(|(node, c)| NodeLoad {
                node,
                batch_gets: c.batch_gets.load(Ordering::Relaxed),
                keys_served: c.keys_served.load(Ordering::Relaxed),
                modeled: Duration::from_nanos(c.modeled_nanos.load(Ordering::Relaxed)),
            })
            .collect()
    }

    /// Records modeled service time spent *on* `node` — both in the
    /// global `modeled_time` total and in the node's own slot, so
    /// chaos-injected latency shows up in `per_node()`.
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

    /// Resets every traffic counter to zero. The `under_replicated`
    /// gauge is deliberately left alone: it mirrors the pending hint
    /// queue, which a stats reset does not drain.
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
    /// [`NodeLoad`] counters).
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
        let per_node = s.per_node();
        assert_eq!(per_node.len(), 3);
        assert_eq!(per_node[0].batch_gets, 2);
        assert_eq!(per_node[0].keys_served, 12);
        assert_eq!(per_node[1], NodeLoad { node: 1, ..NodeLoad::default() });
        assert_eq!(per_node[2].keys_served, 1);
        assert_eq!(s.snapshot().batch_gets, 3, "totals stay consistent");
        // An out-of-range node id (defensive) is a no-op, not a panic.
        s.record_batch_get(9, 4);
        assert_eq!(s.snapshot().batch_gets, 4);
        s.reset();
        assert!(s.per_node().iter().all(|n| n.batch_gets == 0 && n.keys_served == 0));
    }

    #[test]
    fn node_modeled_time_feeds_both_totals() {
        let s = ClusterStats::new_shared(2);
        s.record_node_modeled(1, Duration::from_micros(40));
        s.record_node_modeled(1, Duration::from_micros(2));
        s.record_node_modeled(0, Duration::from_micros(8));
        let per_node = s.per_node();
        assert_eq!(per_node[0].modeled, Duration::from_micros(8));
        assert_eq!(per_node[1].modeled, Duration::from_micros(42));
        assert_eq!(s.snapshot().modeled_time, Duration::from_micros(50));
        // Out-of-range node still reaches the global total.
        s.record_node_modeled(7, Duration::from_micros(1));
        assert_eq!(s.snapshot().modeled_time, Duration::from_micros(51));
        s.reset();
        assert!(s.per_node().iter().all(|n| n.modeled == Duration::ZERO));
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
