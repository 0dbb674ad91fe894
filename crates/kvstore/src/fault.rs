//! Deterministic, scripted fault injection for the simulated cluster.
//!
//! The paper's prototype runs against a Cassandra tier that absorbs
//! node flaps, slow replicas and partial writes; our in-process
//! cluster modeled only the happy path plus administrative
//! `NodeDown`. This module supplies the missing adversary: a
//! [`FaultPlan`] attached via `Cluster::builder().faults(...)` that
//! injects — per node, per op-count window and/or probability —
//! transient errors, extra latency, node crash/restart and
//! torn/corrupted log tails. Everything is derived from a single seed
//! (one [`rand::rngs::StdRng`] stream per node, seeded `seed ^
//! node_id`), so a chaos schedule replays identically run after run:
//! a failing test case *is* its seed.
//!
//! # What each action does
//!
//! * [`FaultAction::Transient`] — the node answers the whole request
//!   with [`KvError::Transient`](crate::KvError::Transient) without
//!   touching its engine. Clients retry these in place under a
//!   [`RetryPolicy`]; an exhausted budget surfaces the error, which
//!   the query executor then treats as grounds for failover (not for
//!   permanent node exclusion).
//! * [`FaultAction::Latency`] — the node serves the request normally
//!   but accrues the extra duration as modeled network time (and
//!   really sleeps when the cluster's network model does).
//! * [`FaultAction::Crash`] — the node's engine crash-restarts (kill
//!   -9 semantics): the on-disk tail is optionally damaged per
//!   [`TailDamage`], the log is re-replayed, and the node answers
//!   [`KvError::NodeDown`](crate::KvError::NodeDown) for the next
//!   `outage_ops` requests before serving again. The outage is
//!   *invisible* to the client-side down flags, so reads exercise
//!   mid-query failover and writes exercise the hinted-handoff path
//!   rather than the administrative skip.
//!
//! # The self-healing contract
//!
//! The layer only provokes what the system is expected to survive:
//! transient faults are retried with exponential backoff (charged as
//! modeled time), writes that miss a replica are recorded as hints
//! and re-replicated by `Cluster::replay_hints`, and crash-damaged
//! log tails are truncated back to the last durable prefix on
//! replay. The chaos property test (`crates/core/tests/chaos.rs`)
//! pins the whole contract: under any seeded plan that leaves one
//! live replica per key, every flush and query must agree
//! byte-for-byte with a fault-free twin store.

use rand::prelude::*;
use std::time::Duration;

/// How a crash mangles the node's on-disk log tail, modeling where a
/// kill -9 can land relative to the filesystem's progress through a
/// partially-written entry. The log engine flushes every write before
/// acknowledging it, so the crash loses no buffered write; the damage
/// is all it does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TailDamage {
    /// The log survives exactly as last written.
    #[default]
    None,
    /// This many junk bytes land after the last entry — a torn write
    /// the CRC scan must truncate.
    TornBytes(usize),
    /// The last byte already on disk is flipped — a corrupt final
    /// entry the CRC scan must drop.
    CorruptLastEntry,
}

/// What a triggered fault does to the current request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the request with a retryable
    /// [`KvError::Transient`](crate::KvError::Transient); the engine
    /// is untouched.
    Transient,
    /// Serve normally but charge this much extra modeled time.
    Latency(Duration),
    /// Crash-restart the engine (applying the tail damage), then
    /// answer `NodeDown` for `outage_ops` further requests before
    /// recovering.
    Crash {
        /// Requests refused while the node restarts.
        outage_ops: usize,
        /// Damage applied to the log tail by the crash.
        damage: TailDamage,
    },
}

/// One scripted fault: where it applies, when it fires, what it does.
///
/// A rule is evaluated once per request (a batch message counts as
/// one op) against the node's private op counter: it must be inside
/// the `[after_op, until_op)` window, and then fires either on the
/// periodic `every` schedule or with `probability` per op (whichever
/// is configured; both zero/unset means the window alone decides and
/// the rule fires on every op in it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Node this rule applies to (`None` = every node).
    pub node: Option<usize>,
    /// First op index (per node, 0-based) the rule is active at.
    pub after_op: u64,
    /// Op index the rule deactivates at (exclusive).
    pub until_op: u64,
    /// Fire on every Nth op inside the window (0 = not periodic).
    pub every: u64,
    /// Independent per-op firing probability (0.0 = not random).
    pub probability: f64,
    /// The injected behaviour.
    pub action: FaultAction,
}

impl FaultRule {
    /// A rule with the given action, applying to all nodes on every
    /// op until narrowed by the builder methods.
    pub fn new(action: FaultAction) -> Self {
        Self {
            node: None,
            after_op: 0,
            until_op: u64::MAX,
            every: 0,
            probability: 0.0,
            action,
        }
    }

    /// A transient-error rule (narrow with the builder methods).
    pub fn transient() -> Self {
        Self::new(FaultAction::Transient)
    }

    /// An added-latency rule.
    pub fn latency(extra: Duration) -> Self {
        Self::new(FaultAction::Latency(extra))
    }

    /// A crash/restart rule.
    pub fn crash(outage_ops: usize, damage: TailDamage) -> Self {
        Self::new(FaultAction::Crash { outage_ops, damage })
    }

    /// Restricts the rule to one node.
    pub fn on_node(mut self, node: usize) -> Self {
        self.node = Some(node);
        self
    }

    /// Activates the rule starting at this per-node op index.
    pub fn after(mut self, op: u64) -> Self {
        self.after_op = op;
        self
    }

    /// Deactivates the rule at this op index (exclusive).
    pub fn until(mut self, op: u64) -> Self {
        self.until_op = op;
        self
    }

    /// Fires on every Nth op inside the window.
    pub fn every(mut self, n: u64) -> Self {
        self.every = n;
        self
    }

    /// Fires with this probability per op inside the window.
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Whether the rule fires for `node` at op `op`, drawing from
    /// `rng` only when the rule is probabilistic.
    fn fires(&self, node: usize, op: u64, rng: &mut StdRng) -> bool {
        if self.node.is_some_and(|n| n != node) {
            return false;
        }
        if op < self.after_op || op >= self.until_op {
            return false;
        }
        if self.every > 0 {
            return (op - self.after_op).is_multiple_of(self.every);
        }
        if self.probability > 0.0 {
            // Always consume exactly one draw so later rules see the
            // same stream regardless of this rule's outcome.
            return rng.random_bool(self.probability);
        }
        true
    }
}

/// A complete seeded chaos schedule for a cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed the per-node RNG streams derive from.
    pub seed: u64,
    /// Rules, evaluated in order; the first that fires wins the op.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// A canned flaky-cluster plan for demos and benchmarks: every
    /// node fails ~10% of requests transiently and serves another
    /// ~10% with 1 ms of extra latency. Survivable by retries alone —
    /// no crashes, no outages.
    pub fn flaky(seed: u64) -> Self {
        Self::new(seed)
            .rule(FaultRule::transient().with_probability(0.10))
            .rule(FaultRule::latency(Duration::from_millis(1)).with_probability(0.10))
    }

    /// True when the plan can never fire.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The per-node evaluator for `node`.
    pub(crate) fn for_node(&self, node: usize) -> NodeFaults {
        NodeFaults {
            rules: self
                .rules
                .iter()
                .filter(|r| r.node.is_none_or(|n| n == node))
                .copied()
                .collect(),
            node,
            // Decorrelate the per-node streams: adjacent node ids must
            // not see near-identical draw sequences.
            rng: StdRng::seed_from_u64(
                self.seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            op: 0,
            outage_remaining: 0,
        }
    }
}

/// One node's private view of the plan: its applicable rules, its RNG
/// stream and its op counter. Lives inside the node thread; fully
/// deterministic given the node's request order.
#[derive(Debug)]
pub(crate) struct NodeFaults {
    rules: Vec<FaultRule>,
    node: usize,
    rng: StdRng,
    op: u64,
    /// Requests still to refuse while crash-restarting.
    outage_remaining: usize,
}

/// What the node loop should do with the current request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Injected {
    /// Serve normally.
    None,
    /// Serve normally but charge this much extra modeled time.
    SlowBy(Duration),
    /// Refuse with `KvError::Transient`.
    Transient,
    /// Crash-restart the engine with this damage, then refuse this
    /// and the next `outage_ops` requests with `NodeDown`.
    Crash {
        /// Requests to refuse after the restart.
        outage_ops: usize,
        /// Tail damage to apply.
        damage: TailDamage,
    },
    /// Still inside a crash outage: refuse with `NodeDown`.
    Outage,
}

impl NodeFaults {
    /// Evaluates the plan for the next request and advances the op
    /// counter. At most one rule fires per op (first match wins), but
    /// every probabilistic rule still consumes its RNG draw so the
    /// stream stays aligned across runs.
    pub(crate) fn on_op(&mut self) -> Injected {
        let op = self.op;
        self.op += 1;
        if self.outage_remaining > 0 {
            self.outage_remaining -= 1;
            return Injected::Outage;
        }
        let mut fired: Option<FaultAction> = None;
        for rule in &self.rules {
            let fires = rule.fires(self.node, op, &mut self.rng);
            if fires && fired.is_none() {
                fired = Some(rule.action);
            }
        }
        match fired {
            None => Injected::None,
            Some(FaultAction::Transient) => Injected::Transient,
            Some(FaultAction::Latency(d)) => Injected::SlowBy(d),
            Some(FaultAction::Crash { outage_ops, damage }) => {
                self.outage_remaining = outage_ops;
                Injected::Crash { outage_ops, damage }
            }
        }
    }
}

/// Client-side retry/backoff policy for transient faults.
///
/// Applied in exactly one place: the cluster client's settle step,
/// which every verb — single-key or batched, read, write, delete or
/// hint replay — waits for its per-node batch through. A batch
/// refused with [`KvError::Transient`](crate::KvError::Transient) is
/// re-shipped to the same node up to `max_attempts` total tries,
/// waiting an exponentially growing backoff (with deterministic
/// jitter) between tries. Backoff is charged as **modeled time** — it
/// shows up in [`StatsSnapshot::modeled_time`](crate::StatsSnapshot)
/// and in the batch's own modeled time, but never really sleeps — and
/// cumulative backoff per batch is capped by `per_op_timeout`, after
/// which the transient error surfaces to the caller: reads fail over
/// to the next replica, a lone `put` hints the replica, the
/// scatter-gather and streaming calls return it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries per request (1 = no retries).
    pub max_attempts: usize,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff step.
    pub max_backoff: Duration,
    /// Ceiling on the *cumulative* backoff charged to one request;
    /// once exceeded no further retry is attempted.
    pub per_op_timeout: Duration,
}

impl Default for RetryPolicy {
    /// Four tries, 1 ms initial backoff doubling to at most 8 ms,
    /// 50 ms total budget per op.
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            per_op_timeout: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Retries disabled: every transient fault surfaces immediately.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            per_op_timeout: Duration::ZERO,
        }
    }

    /// True when this policy never retries.
    pub fn disabled(&self) -> bool {
        self.max_attempts <= 1
    }

    /// The backoff to charge before retry number `retry` (1-based),
    /// with deterministic jitter so replays stay bit-identical.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (retry - 1).min(16))
            .min(self.max_backoff);
        // +-25% jitter from a splitmix of the retry number: breaks
        // lockstep between concurrent retriers without a clock or a
        // shared RNG.
        let mut z = (retry as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        let cap = exp.as_nanos() as u64 / 4;
        let jitter = if cap == 0 { 0 } else { z % (cap + 1) };
        exp + Duration::from_nanos(jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::new(42)
            .rule(FaultRule::transient().with_probability(0.3))
            .rule(FaultRule::latency(Duration::from_micros(10)).with_probability(0.2));
        let mut a = plan.for_node(1);
        let mut b = plan.for_node(1);
        let mut c = plan.for_node(2);
        let mut node_streams_differ = false;
        for _ in 0..200 {
            let from_a = a.on_op();
            assert_eq!(from_a, b.on_op(), "same node + seed must replay");
            node_streams_differ |= from_a != c.on_op();
        }
        assert!(node_streams_differ, "node streams must decorrelate");
    }

    #[test]
    fn windows_and_periodicity() {
        let plan =
            FaultPlan::new(7).rule(FaultRule::transient().after(10).until(20).every(5));
        let mut f = plan.for_node(0);
        let fired: Vec<u64> =
            (0..40u64).filter(|_| f.on_op() == Injected::Transient).collect();
        // Fires at ops 10 and 15 only (window [10, 20), every 5th).
        assert_eq!(fired, vec![10, 15]);
    }

    #[test]
    fn crash_starts_an_outage() {
        let plan = FaultPlan::new(1).rule(
            FaultRule::crash(3, TailDamage::None)
                .on_node(0)
                .after(2)
                .every(u64::MAX),
        );
        let mut f = plan.for_node(0);
        assert_eq!(f.on_op(), Injected::None);
        assert_eq!(f.on_op(), Injected::None);
        assert!(matches!(f.on_op(), Injected::Crash { outage_ops: 3, .. }));
        assert_eq!(f.on_op(), Injected::Outage);
        assert_eq!(f.on_op(), Injected::Outage);
        assert_eq!(f.on_op(), Injected::Outage);
        assert_eq!(f.on_op(), Injected::None, "outage ends after 3 ops");
    }

    #[test]
    fn node_scoped_rules_skip_other_nodes() {
        let plan = FaultPlan::new(9).rule(FaultRule::transient().on_node(3));
        let mut other = plan.for_node(1);
        for _ in 0..50 {
            assert_eq!(other.on_op(), Injected::None);
        }
        let mut target = plan.for_node(3);
        assert_eq!(target.on_op(), Injected::Transient);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy::default();
        let b1 = p.backoff(1);
        let b2 = p.backoff(2);
        let b5 = p.backoff(5);
        assert!(b1 >= p.base_backoff);
        assert!(b2 > b1, "backoff must grow");
        // Cap plus at most 25% jitter.
        assert!(b5 <= p.max_backoff + p.max_backoff / 4);
        // Deterministic: same retry number, same backoff.
        assert_eq!(p.backoff(3), p.backoff(3));
    }

    #[test]
    fn disabled_policy_never_retries() {
        assert!(RetryPolicy::none().disabled());
        assert!(!RetryPolicy::default().disabled());
    }
}
