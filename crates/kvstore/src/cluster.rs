//! The cluster: node threads, routing client, failure injection.
//!
//! [`Cluster`] owns one OS thread per simulated storage node and a
//! consistent-hash ring that routes keys to nodes, with writes
//! replicated to `replication` successive nodes and reads served by
//! the first live replica that holds the key. RStore needs only basic
//! get/put/delete "issued in parallel to the backend store" (§2.4,
//! §2.6), so the hop speaks exactly one batched message per verb
//! (`MultiGet`, `MultiPut`, `MultiDelete`; a single-key operation is a
//! one-element batch) and is written once on each side:
//!
//! * **node side** — every data request passes one admit step (the
//!   administrative down flag, then the scripted chaos plan) before
//!   its verb's handler touches the engine;
//! * **client side** — one private primitive pair ships a batch to a
//!   node (`Cluster::send`) and later waits for its reply
//!   (`Cluster::settle`), retrying transient refusals under the
//!   [`RetryPolicy`] with the backoff charged as modeled time. A copy
//!   of the batch is kept only when a retry or re-route can need it
//!   (a chaos plan is attached, or a write or a replica walk's read
//!   has another replica to fall back to), so the healthy
//!   unreplicated path never clones.
//!
//! Every public verb is a thin composition over that pair: the
//! scatter-gather calls group keys per node, send all batches, then
//! settle them (nodes serve their batches concurrently);
//! [`Cluster::fetch_from`] scores its node in the per-node stats;
//! [`Cluster::multi_get_scatter`] (and [`Cluster::get`], its one-key
//! case) walks each key's replica set in ring order past misses and
//! refusals;
//! [`Cluster::put`] hints the replicas it missed; [`ClusterWriter`]
//! streams batches while the caller keeps encoding.
//!
//! Failure handling comes in three layers:
//!
//! * administrative down flags ([`Cluster::set_node_down`]) — the
//!   coarse, client-visible outage used by failover tests;
//! * a scripted chaos layer ([`ClusterBuilder::faults`]) injecting
//!   transient errors, latency and crash/restarts *inside* the node
//!   threads, invisible to the client until a reply comes back;
//! * self-healing on the client side: transient faults are retried in
//!   the settle loop, and writes that miss a replica are recorded as
//!   hints (always carrying the value) and re-replicated by
//!   [`Cluster::replay_hints`] (hinted handoff).

use crate::engine::{LogEngine, MemEngine, StorageEngine};
use crate::error::KvError;
use crate::fault::{FaultPlan, Injected, NodeFaults, RetryPolicy};
use crate::msg::{BatchDelete, BatchGet, BatchPut, NodeInfo, Request};
use crate::netmodel::NetworkModel;
use crate::ring::Ring;
use crate::stats::{ClusterStats, NodeStats, StatsSnapshot};
use crate::types::{Key, Value};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use rustc_hash::FxHashMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Virtual nodes per physical node on the hash ring.
const VNODES: usize = 64;

/// Which storage engine each node runs.
#[derive(Debug, Clone, Default)]
pub enum EngineKind {
    /// In-memory hash map (default; experiments focus on the network).
    #[default]
    Mem,
    /// Append-only log-structured engine, one log file per node in
    /// the given directory.
    Log {
        /// Directory for per-node log files.
        dir: PathBuf,
    },
}

/// Builder for [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    nodes: usize,
    replication: usize,
    engine: EngineKind,
    network: NetworkModel,
    faults: Option<FaultPlan>,
    retry: RetryPolicy,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self {
            nodes: 1,
            replication: 1,
            engine: EngineKind::Mem,
            network: NetworkModel::zero(),
            faults: None,
            retry: RetryPolicy::default(),
        }
    }
}

impl ClusterBuilder {
    /// Number of nodes (default 1).
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Replication factor (default 1; clamped to the node count).
    pub fn replication(mut self, r: usize) -> Self {
        self.replication = r;
        self
    }

    /// Storage engine (default in-memory).
    pub fn engine(mut self, e: EngineKind) -> Self {
        self.engine = e;
        self
    }

    /// Network cost model (default [`NetworkModel::zero`]).
    pub fn network(mut self, m: NetworkModel) -> Self {
        self.network = m;
        self
    }

    /// Attaches a scripted chaos schedule (default none). Each node
    /// thread evaluates the plan deterministically per request; see
    /// [`crate::fault`] for the action vocabulary.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Client-side retry policy for transient faults (default
    /// [`RetryPolicy::default`]; use [`RetryPolicy::none`] to surface
    /// every transient error immediately).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Starts the node threads and returns the cluster handle once every
    /// node's engine is open. Each node thread opens its own engine — a
    /// log engine reads and CRC-checks its whole log to rebuild its key
    /// directory — so a restarted cluster replays its node logs in
    /// parallel, and `build` costs the slowest log, not their sum.
    ///
    /// # Panics
    /// Panics if `nodes` is zero, or with "open node log" if a log
    /// engine fails to open.
    pub fn build(self) -> Cluster {
        assert!(self.nodes > 0, "cluster needs at least one node");
        let stats = ClusterStats::new_shared(self.nodes);
        let mut senders = Vec::with_capacity(self.nodes);
        let mut handles = Vec::with_capacity(self.nodes);
        let mut opened = Vec::with_capacity(self.nodes);
        for id in 0..self.nodes {
            let (tx, rx) = unbounded::<Request>();
            let (ready, opened_rx) = bounded::<Result<(), KvError>>(1);
            let log = match &self.engine {
                EngineKind::Mem => None,
                EngineKind::Log { dir } => Some(dir.join(format!("node-{id}.log"))),
            };
            let network = self.network;
            let stats = Arc::clone(&stats);
            let faults = self.faults.as_ref().map(|p| p.for_node(id));
            let handle = std::thread::Builder::new()
                .name(format!("kv-node-{id}"))
                .spawn(move || {
                    let engine: Box<dyn StorageEngine> = match log.map(LogEngine::open) {
                        None => Box::new(MemEngine::new()),
                        Some(Ok(engine)) => Box::new(engine),
                        Some(Err(e)) => {
                            let _ = ready.send(Err(e));
                            return;
                        }
                    };
                    let _ = ready.send(Ok(()));
                    let node = Node { id, engine, stats, network, faults, down: false };
                    node.run(rx)
                })
                .expect("spawn node thread");
            senders.push(tx);
            handles.push(handle);
            opened.push(opened_rx);
        }
        for rx in opened {
            if let Err(e) = rx.recv().expect("node thread exited while opening its engine") {
                // Closing the request channels stops every other node
                // once its own open is done.
                drop(senders);
                for handle in handles {
                    let _ = handle.join();
                }
                panic!("open node log: {e:?}");
            }
        }
        Cluster {
            senders,
            handles,
            ring: Ring::new(self.nodes, VNODES),
            stats,
            replication: self.replication.clamp(1, self.nodes),
            down: (0..self.nodes).map(|_| AtomicBool::new(false)).collect(),
            retry: self.retry,
            chaos: self.faults.as_ref().is_some_and(|p| !p.is_empty()),
            hints: Mutex::new((0..self.nodes).map(|_| FxHashMap::default()).collect()),
        }
    }
}

/// One simulated node: its engine, its chaos script and its
/// administrative down flag, driven by [`Node::run`] on the node's
/// own thread.
struct Node {
    id: usize,
    engine: Box<dyn StorageEngine>,
    stats: Arc<ClusterStats>,
    network: NetworkModel,
    faults: Option<NodeFaults>,
    down: bool,
}

impl Node {
    /// The node's event loop.
    fn run(mut self, rx: Receiver<Request>) {
        while let Ok(req) = rx.recv() {
            match req {
                Request::MultiGet { keys, reply } => {
                    let _ = reply.send(self.multi_get(&keys));
                }
                Request::MultiPut { pairs, reply } => {
                    let _ = reply.send(self.multi_put(pairs));
                }
                Request::MultiDelete { keys, reply } => {
                    let _ = reply.send(self.multi_delete(&keys));
                }
                Request::SetDown(flag) => self.down = flag,
                Request::Info { reply } => {
                    let _ = reply.send(NodeInfo {
                        keys: self.engine.len(),
                        live_bytes: self.engine.live_bytes(),
                    });
                }
                Request::Shutdown => break,
            }
        }
    }

    /// Accrues `d` of modeled service time on this node, sleeping it
    /// when the network model sleeps for real.
    fn spend(&self, d: Duration) -> Duration {
        self.stats.record_node_modeled(self.id, d);
        if self.network.real_sleep && !d.is_zero() {
            std::thread::sleep(d);
        }
        d
    }

    /// Charges one query carrying `bytes` of payload.
    fn charge(&self, bytes: usize) -> Duration {
        self.spend(self.network.charge(bytes))
    }

    /// The one admit step in front of every data request: the
    /// administrative down flag, then the chaos plan. `Err` refuses
    /// the whole request; `Ok(extra)` lets it serve after `extra`
    /// injected latency — already charged to the node's modeled-time
    /// counters, and returned so the handlers fold it into the
    /// reply's `modeled` field: the client-visible straggler signal
    /// the per-node service EWMA and the hedging threshold feed on.
    /// Crash actions restart the engine in place before refusing.
    fn admit(&mut self) -> Result<Duration, KvError> {
        if self.down {
            return Err(KvError::NodeDown(self.id));
        }
        let Some(faults) = self.faults.as_mut() else {
            return Ok(Duration::ZERO);
        };
        match faults.on_op() {
            Injected::None => Ok(Duration::ZERO),
            Injected::SlowBy(d) => Ok(self.spend(d)),
            Injected::Transient => {
                self.stats.record_fault_injected();
                Err(KvError::Transient(self.id))
            }
            Injected::Crash { damage, .. } => {
                self.stats.record_fault_injected();
                self.engine.crash_restart(damage)?;
                Err(KvError::NodeDown(self.id))
            }
            Injected::Outage => Err(KvError::NodeDown(self.id)),
        }
    }

    fn multi_get(&mut self, keys: &[Key]) -> Result<BatchGet, KvError> {
        let mut modeled = self.admit()?;
        self.stats.record_batch_get(self.id, keys.len());
        let mut values = Vec::with_capacity(keys.len());
        for key in keys {
            let value = self.engine.get(key)?;
            let n = value.as_ref().map(Value::len);
            self.stats.record_get(n);
            modeled += self.charge(n.unwrap_or(0));
            values.push(value);
        }
        Ok(BatchGet { values, modeled, retries: 0 })
    }

    fn multi_put(&mut self, pairs: Vec<(Key, Value)>) -> Result<BatchPut, KvError> {
        let mut batch = BatchPut { stored: 0, modeled: self.admit()? };
        self.stats.record_batch_put();
        // One engine call per message (a log engine flushes its buffer
        // once for it); each pair is still counted and charged as its
        // own query.
        let sizes: Vec<usize> = pairs.iter().map(|(k, v)| k.len() + v.len()).collect();
        self.engine.put_batch(pairs)?;
        for n in sizes {
            self.stats.record_put(n);
            batch.modeled += self.charge(n);
            batch.stored += 1;
        }
        Ok(batch)
    }

    fn multi_delete(&mut self, keys: &[Key]) -> Result<BatchDelete, KvError> {
        let mut batch = BatchDelete { removed: 0, modeled: self.admit()? };
        self.stats.record_batch_delete();
        // A key this replica never stored (e.g. written while the
        // node was down) is not a removal.
        batch.removed = self.engine.delete_batch(keys)?;
        for _ in keys {
            self.stats.record_delete();
            batch.modeled += self.charge(0);
        }
        Ok(batch)
    }
}

/// One backend verb as the client primitive sees it: the batch it
/// ships, the reply it waits for, and the one place its wire message
/// is built.
trait Verb {
    type Batch: Clone;
    type Reply;
    /// Whether a refused batch can be re-routed to another replica —
    /// a reason to keep a copy of it besides transient retries.
    const REROUTES: bool = false;
    fn request(batch: Self::Batch, reply: Sender<Result<Self::Reply, KvError>>) -> Request;
}

struct Get;
struct Put;
struct Delete;

impl Verb for Get {
    type Batch = Vec<Key>;
    type Reply = BatchGet;
    fn request(keys: Vec<Key>, reply: Sender<Result<BatchGet, KvError>>) -> Request {
        Request::MultiGet { keys, reply }
    }
}

/// A read batch of [`Cluster::multi_get_scatter`]'s replica walk: the
/// same `MultiGet`, but its keys can move on to their next replica,
/// so a copy is kept at replication > 1.
struct WalkGet;

impl Verb for WalkGet {
    type Batch = Vec<Key>;
    type Reply = BatchGet;
    const REROUTES: bool = true;
    fn request(keys: Vec<Key>, reply: Sender<Result<BatchGet, KvError>>) -> Request {
        Request::MultiGet { keys, reply }
    }
}

/// Where one key of a replica walk stands.
struct Walk {
    /// The key's position in the caller's list.
    slot: usize,
    /// A replica answered without the key.
    answered: bool,
    /// The last refusal of a replica the walk tried.
    refused: Option<KvError>,
}

impl Verb for Put {
    type Batch = Vec<(Key, Value)>;
    type Reply = BatchPut;
    const REROUTES: bool = true;
    fn request(pairs: Self::Batch, reply: Sender<Result<BatchPut, KvError>>) -> Request {
        Request::MultiPut { pairs, reply }
    }
}

impl Verb for Delete {
    type Batch = Vec<Key>;
    type Reply = BatchDelete;
    fn request(keys: Vec<Key>, reply: Sender<Result<BatchDelete, KvError>>) -> Request {
        Request::MultiDelete { keys, reply }
    }
}

/// One shipped-but-unsettled batch (see [`Cluster::send`]).
struct InFlight<V: Verb> {
    node: usize,
    rx: Receiver<Result<V::Reply, KvError>>,
    /// The shipped batch, kept only when it might be needed again.
    /// Value clones are refcounted `Bytes`; keys are real copies.
    copy: Option<V::Batch>,
}

/// What [`Cluster::settle`] reports about one batch.
struct Settled<V: Verb> {
    /// The node's final answer, after any retries.
    reply: Result<V::Reply, KvError>,
    /// Backoff charged as modeled time while retrying. Callers add it
    /// to the reply's modeled time, so retried batches honestly look
    /// slower.
    backoff: Duration,
    /// Transient refusals retried.
    retries: usize,
    /// The batch copy [`InFlight`] carried, handed back for hinting
    /// or re-routing.
    copy: Option<V::Batch>,
}

/// A running multi-node key-value cluster.
pub struct Cluster {
    senders: Vec<Sender<Request>>,
    handles: Vec<JoinHandle<()>>,
    ring: Ring,
    stats: Arc<ClusterStats>,
    replication: usize,
    down: Vec<AtomicBool>,
    retry: RetryPolicy,
    /// True when a non-empty fault plan is attached; gates the batch
    /// copies retries need (the healthy path never clones).
    chaos: bool,
    /// Per-node pending hints: key -> value to re-replicate. Latest
    /// write wins per key. Only touched through [`Cluster::with_hints`].
    hints: Mutex<Vec<FxHashMap<Key, Value>>>,
}

impl Cluster {
    /// Starts building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.senders.len()
    }

    /// Replication factor in effect.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Shared request/byte counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Every node's view, in node-id order: the read batches it
    /// served (`MultiGet` round trips, keys, modeled time — the
    /// routing-skew and straggler signals) and the score of the
    /// batches [`Cluster::fetch_from`] sent it (service EWMA, error
    /// rate, service-time histogram).
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.stats.nodes()
    }

    /// EWMA of `node`'s modeled service time *per key* (zero until
    /// its first scored batch) — the input the executor's hedge
    /// threshold is derived from.
    pub fn node_service_ewma(&self, node: usize) -> Duration {
        self.stats.service_ewma(node)
    }

    /// Resets the traffic counters (see [`ClusterStats::reset`]).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Marks a node down (true) or back up (false). Reads fail over
    /// to the next replica; writes to a down node are recorded as
    /// hints and skipped. Reviving a node replays its pending hints,
    /// restoring full replication.
    pub fn set_node_down(&self, node: usize, down: bool) {
        self.down[node].store(down, Ordering::Relaxed);
        let _ = self.senders[node].send(Request::SetDown(down));
        if !down {
            let _ = self.replay_hints();
        }
    }

    fn is_down(&self, node: usize) -> bool {
        self.down[node].load(Ordering::Relaxed)
    }

    /// Ships one batch to `node` without waiting for the answer. A
    /// copy of the batch rides along only when [`Cluster::settle`] or
    /// its caller can need it again: to retry a transient refusal
    /// (only a chaos plan injects those) or to re-route a refused
    /// write to another replica. A node whose thread is gone surfaces
    /// as `NodeGone` at settle time.
    fn send<V: Verb>(&self, node: usize, batch: V::Batch) -> InFlight<V> {
        let keep = self.chaos || (V::REROUTES && self.replication > 1);
        let copy = keep.then(|| batch.clone());
        InFlight { node, rx: self.ship::<V>(node, batch), copy }
    }

    fn ship<V: Verb>(&self, node: usize, batch: V::Batch) -> Receiver<Result<V::Reply, KvError>> {
        let (tx, rx) = bounded(1);
        // A failed send drops the reply sender with the request, so
        // the receiver reports the disconnect.
        let _ = self.senders[node].send(V::request(batch, tx));
        rx
    }

    /// Waits for one shipped batch, re-shipping it on `Transient`
    /// refusals while the [`RetryPolicy`] allows: at most
    /// `max_attempts` tries, each retry preceded by a backoff that is
    /// charged as modeled time and capped in total by
    /// `per_op_timeout`. This is the only retry loop on the hop.
    fn settle<V: Verb>(&self, flight: InFlight<V>) -> Settled<V> {
        let InFlight { node, mut rx, copy } = flight;
        let mut backoff = Duration::ZERO;
        let mut retries = 0usize;
        let reply = loop {
            let reply = rx.recv().unwrap_or(Err(KvError::NodeGone(node)));
            match (&reply, &copy) {
                (Err(KvError::Transient(_)), Some(batch))
                    if self.charge_backoff(retries + 1, &mut backoff) =>
                {
                    retries += 1;
                    rx = self.ship::<V>(node, batch.clone());
                }
                _ => break reply,
            }
        };
        Settled { reply, backoff, retries, copy }
    }

    /// Charges the backoff before the retry that follows try number
    /// `tries` as modeled time; false when the retry budget — policy
    /// attempts or per-op timeout — is exhausted.
    fn charge_backoff(&self, tries: usize, spent: &mut Duration) -> bool {
        if tries >= self.retry.max_attempts {
            return false;
        }
        let backoff = self.retry.backoff(tries as u32);
        if *spent + backoff > self.retry.per_op_timeout {
            return false;
        }
        *spent += backoff;
        self.stats.record_modeled(backoff);
        self.stats.record_retry();
        true
    }

    /// Runs `edit` on the hint queue and re-syncs the
    /// under-replicated gauge to the pending hint count — the one
    /// place either changes.
    fn with_hints<T>(&self, edit: impl FnOnce(&mut [FxHashMap<Key, Value>]) -> T) -> T {
        let mut hints = self.hints.lock().expect("hint queue poisoned");
        let out = edit(&mut hints);
        let total: usize = hints.iter().map(FxHashMap::len).sum();
        self.stats.set_under_replicated(total as u64);
        out
    }

    /// Records that `node` missed the write of `key` (it was down or
    /// unreachable while another replica accepted it), keeping the
    /// value for replay.
    fn record_hint(&self, node: usize, key: Key, value: Value) {
        self.with_hints(|hints| hints[node].insert(key, value));
        self.stats.record_hints(1);
    }

    /// Drops pending hints for `keys` on `nodes`: everywhere for
    /// deleted keys (a later replay must not resurrect them), on one
    /// node after a *direct* write to it succeeded (the queued value
    /// predates the write that just landed). Gauge-gated — the
    /// healthy path (no hints anywhere) pays one relaxed atomic load
    /// and no lock.
    fn drop_hints<'a>(&self, nodes: Range<usize>, keys: impl IntoIterator<Item = &'a Key>) {
        if self.stats.under_replicated_now() == 0 {
            return;
        }
        self.with_hints(|hints| {
            for key in keys {
                for per_node in &mut hints[nodes.clone()] {
                    per_node.remove(key);
                }
            }
        });
    }

    /// Keys currently known to be under-replicated (pending hints).
    pub fn pending_hints(&self) -> usize {
        self.stats.under_replicated_now() as usize
    }

    /// Re-replicates pending hints to every live target node,
    /// returning how many keys were restored to full replication.
    /// Called automatically when a node is revived via
    /// [`Cluster::set_node_down`] and by the store layer from
    /// `seal()` and `compact()`; hints whose target is still down or
    /// refuses the batch stay queued.
    pub fn replay_hints(&self) -> Result<usize, KvError> {
        // Take the live nodes' hints out of the queue and ship them,
        // then settle the batches without holding the lock.
        let flights: Vec<(usize, InFlight<Put>)> = self.with_hints(|hints| {
            hints
                .iter_mut()
                .enumerate()
                .filter(|(node, queued)| !self.is_down(*node) && !queued.is_empty())
                .map(|(node, queued)| (queued.len(), self.send(node, queued.drain().collect())))
                .collect()
        });
        let mut replayed = 0usize;
        for (count, flight) in flights {
            let node = flight.node;
            let settled = self.settle(flight);
            match settled.reply {
                Ok(_) => replayed += count,
                // The target refused mid-replay: requeue from the
                // kept copy (hints only exist with replication > 1),
                // without clobbering a newer hint recorded meanwhile.
                Err(_) => self.with_hints(|hints| {
                    for (key, value) in settled.copy.into_iter().flatten() {
                        hints[node].entry(key).or_insert(value);
                    }
                }),
            }
        }
        if replayed > 0 {
            self.stats.record_hints_replayed(replayed);
        }
        Ok(replayed)
    }

    /// Waits for a shipped write batch; once stored, it invalidates
    /// any older hint queued for its keys on that node — replaying
    /// one would resurrect overwritten data.
    fn settle_put(&self, flight: InFlight<Put>) -> Settled<Put> {
        let node = flight.node;
        let settled = self.settle(flight);
        // Hints only exist with replication > 1, which keeps the copy.
        if let (Ok(_), Some(pairs)) = (&settled.reply, &settled.copy) {
            self.drop_hints(node..node + 1, pairs.iter().map(|(k, _)| k));
        }
        settled
    }

    /// Stores `value` under `key` on every live replica, retrying
    /// transient faults per replica. A replica that was down or
    /// refused the write gets a hint for later replay.
    ///
    /// Fails only if *no* replica accepted the write.
    pub fn put(&self, key: Key, value: Value) -> Result<(), KvError> {
        let replicas = self.ring.replicas(&key, self.replication);
        let mut missed: Vec<usize> = Vec::new();
        for &node in &replicas {
            let stored = !self.is_down(node) && {
                let pair = vec![(key.clone(), value.clone())];
                self.settle_put(self.send(node, pair)).reply.is_ok()
            };
            if !stored {
                missed.push(node);
            }
        }
        if missed.len() == replicas.len() {
            return Err(KvError::AllReplicasDown { tried: replicas });
        }
        for node in missed {
            self.record_hint(node, key.clone(), value.clone());
        }
        Ok(())
    }

    /// Fetches `key`: a one-key [`Cluster::multi_get_scatter`], with
    /// its replica walk and error contract.
    pub fn get(&self, key: &[u8]) -> Result<Option<Value>, KvError> {
        let (mut values, _) = self.multi_get_scatter(vec![key.to_vec()])?;
        Ok(values.pop().flatten())
    }

    /// Removes `key` from every live replica — a one-key
    /// [`Cluster::multi_delete_scatter`], with the same error
    /// contract.
    pub fn delete(&self, key: &[u8]) -> Result<(), KvError> {
        self.multi_delete_scatter(vec![key.to_vec()]).map(|_| ())
    }

    /// Removes many keys, batched per replica node, and returns the
    /// modeled network time of the *slowest* node batch together with
    /// the number of replica copies actually removed (copies a
    /// replica never held do not count) — the scatter-gather
    /// reclamation path of store compaction, symmetric with
    /// [`Cluster::multi_put_scatter`]. Pending hints for the keys are
    /// dropped, so a later replay cannot resurrect them. Each key is
    /// deleted from every *live* replica; down replicas are skipped
    /// rather than treated as failures (a copy lingering on a dead
    /// node is an orphan, not data loss), and a node answering
    /// `NodeDown` mid-flight is likewise ignored. Any other refusal —
    /// an engine error, or a transient fault that outlasted the retry
    /// budget — is returned: those keys are still stored.
    pub fn multi_delete_scatter(&self, keys: Vec<Key>) -> Result<(Duration, usize), KvError> {
        self.drop_hints(0..self.node_count(), &keys);
        let mut per_node: Vec<Vec<Key>> = (0..self.node_count()).map(|_| Vec::new()).collect();
        for key in keys {
            let replicas = self.ring.replicas(&key, self.replication);
            let mut live = replicas.iter().copied().filter(|&n| !self.is_down(n));
            let Some(mut prev) = live.next() else {
                continue;
            };
            // Move the key into its last live replica's batch; only
            // the extra replicas (replication > 1) clone.
            for node in live {
                per_node[prev].push(key.clone());
                prev = node;
            }
            per_node[prev].push(key);
        }
        let flights: Vec<InFlight<Delete>> = per_node
            .into_iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(node, batch)| self.send(node, batch))
            .collect();
        let mut slowest = Duration::ZERO;
        let mut removed = 0usize;
        for flight in flights {
            let settled = self.settle(flight);
            match settled.reply {
                Ok(batch) => {
                    slowest = slowest.max(batch.modeled + settled.backoff);
                    removed += batch.removed;
                }
                // Raced with failure injection: the skipped copies
                // are orphans on a dead node.
                Err(KvError::NodeDown(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok((slowest, removed))
    }

    /// The node that serves reads for `key`: its first live replica
    /// on the hash ring. This is the placement API query planners use
    /// to group keys into per-node batches *before* fetching.
    pub fn owner_of(&self, key: &[u8]) -> Result<usize, KvError> {
        self.ring
            .first_replica_where(key, self.replication, |n| !self.is_down(n))
            .ok_or_else(|| KvError::AllReplicasDown {
                tried: self.ring.replicas(key, self.replication),
            })
    }

    /// Every node that can serve reads for `key` right now: the live
    /// members of its replica set, in ring (failover) order — the
    /// full-placement companion of [`Cluster::owner_of`]. Replica-
    /// aware routing picks the least-loaded member to flatten hot
    /// spans, and the executor walks the tail when an earlier member
    /// fails mid-query. Errors when no replica is live, with the full
    /// set that was considered.
    pub fn replicas_of(&self, key: &[u8]) -> Result<Vec<usize>, KvError> {
        let live = self
            .ring
            .replicas_where(key, self.replication, |n| !self.is_down(n));
        if live.is_empty() {
            Err(KvError::AllReplicasDown {
                tried: self.ring.replicas(key, self.replication),
            })
        } else {
            Ok(live)
        }
    }

    /// Sends one owned batch of keys to `node` and waits for the
    /// values plus the batch's modeled network time — the per-node
    /// half of a scatter-gather read, and the call that scores the
    /// node in its per-node stats. Callers route each key to its
    /// serving node via [`Cluster::owner_of`] first; a key the node
    /// does not hold simply comes back `None`.
    pub fn fetch_from(&self, node: usize, keys: Vec<Key>) -> Result<BatchGet, KvError> {
        if keys.is_empty() {
            return Ok(BatchGet {
                values: Vec::new(),
                modeled: Duration::ZERO,
                retries: 0,
            });
        }
        if self.is_down(node) {
            return Err(KvError::NodeDown(node));
        }
        let n_keys = keys.len();
        let settled = self.settle(self.send::<Get>(node, keys));
        match settled.reply {
            Ok(mut got) => {
                got.modeled += settled.backoff;
                got.retries = settled.retries;
                self.stats.record_scored_success(node, got.modeled, n_keys);
                Ok(got)
            }
            Err(e) => {
                self.stats.record_scored_failure(node);
                Err(e)
            }
        }
    }

    /// Fetches many keys, in parallel across nodes: each round sends
    /// every node one batch, node threads serve their batches
    /// concurrently. The first round sends each key to its first live
    /// replica. A key that comes back `None`, or whose batch was
    /// refused after the in-place retries (`Transient`, `NodeDown`,
    /// `NodeGone`), goes to its next live replica in the next round: a
    /// replica that missed a write while it was down (its hint may
    /// have died with an earlier process) does not hide the copy
    /// another replica holds. A key is `None` only when every live
    /// replica answered without it; when every live replica refused,
    /// the call fails with [`KvError::AllReplicasDown`], and when some
    /// answered without it and another refused, with that refusal.
    /// Results are in input order, together with the modeled network
    /// time: per round the *slowest* node batch (the scatter-gather
    /// critical path), summed over the rounds. At replication 1 there
    /// is one round. Taking the keys by value lets them move straight
    /// into the per-node batches — no clone per key at replication 1.
    pub fn multi_get_scatter(
        &self,
        keys: Vec<Key>,
    ) -> Result<(Vec<Option<Value>>, Duration), KvError> {
        let mut out: Vec<Option<Value>> = vec![None; keys.len()];
        let mut per_node: Vec<(Vec<Walk>, Vec<Key>)> = (0..self.node_count())
            .map(|_| (Vec::new(), Vec::new()))
            .collect();
        for (slot, key) in keys.into_iter().enumerate() {
            let node = self.owner_of(&key)?;
            per_node[node].0.push(Walk { slot, answered: false, refused: None });
            per_node[node].1.push(key);
        }
        let mut modeled = Duration::ZERO;
        loop {
            // Send all of the round's batches first (parallel
            // service), then collect.
            let flights: Vec<(Vec<Walk>, InFlight<WalkGet>)> = per_node
                .iter_mut()
                .enumerate()
                .filter(|(_, (_, batch))| !batch.is_empty())
                .map(|(node, (walks, batch))| {
                    (std::mem::take(walks), self.send(node, std::mem::take(batch)))
                })
                .collect();
            if flights.is_empty() {
                return Ok((out, modeled));
            }
            let mut slowest = Duration::ZERO;
            for (walks, flight) in flights {
                let node = flight.node;
                let settled = self.settle(flight);
                // The kept copy (replication > 1, or a chaos plan) is
                // what lets a key move on.
                let mut keys = settled.copy.map(Vec::into_iter);
                match settled.reply {
                    Ok(batch) => {
                        slowest = slowest.max(batch.modeled + settled.backoff);
                        for (walk, value) in walks.into_iter().zip(batch.values) {
                            let key = keys.as_mut().and_then(Iterator::next);
                            match (value, key) {
                                (Some(value), _) => out[walk.slot] = Some(value),
                                (None, Some(key)) => {
                                    let walk = Walk { answered: true, ..walk };
                                    self.walk_on(key, walk, node, &mut per_node)?;
                                }
                                // Replication 1: the only replica
                                // answered without it.
                                (None, None) => {}
                            }
                        }
                    }
                    Err(e @ (KvError::Transient(_) | KvError::NodeDown(_) | KvError::NodeGone(_))) => {
                        slowest = slowest.max(settled.backoff);
                        // No copy: replication 1, so `node` was the
                        // keys' only replica.
                        let Some(keys) = keys else {
                            return Err(KvError::AllReplicasDown { tried: vec![node] });
                        };
                        for (walk, key) in walks.into_iter().zip(keys) {
                            let walk = Walk { refused: Some(e.clone()), ..walk };
                            self.walk_on(key, walk, node, &mut per_node)?;
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
            modeled += slowest;
        }
    }

    /// Queues `key` for the next round on its next live replica after
    /// `tried`, or settles it when its walk is out of replicas: `None`
    /// (its `out` slot as it stands) if every replica answered, an
    /// error if one refused.
    fn walk_on(
        &self,
        key: Key,
        walk: Walk,
        tried: usize,
        next: &mut [(Vec<Walk>, Vec<Key>)],
    ) -> Result<(), KvError> {
        let mut past = false;
        let node = self.ring.first_replica_where(&key, self.replication, |n| {
            let after = past;
            past |= n == tried;
            after && !self.is_down(n)
        });
        let Some(node) = node else {
            return match walk.refused {
                None => Ok(()),
                Some(refusal) if walk.answered => Err(refusal),
                Some(_) => Err(KvError::AllReplicasDown {
                    tried: self.ring.replicas(&key, self.replication),
                }),
            };
        };
        next[node].0.push(walk);
        next[node].1.push(key);
        Ok(())
    }

    /// [`Cluster::multi_get_scatter`] without the timing.
    pub fn multi_get_owned(&self, keys: Vec<Key>) -> Result<Vec<Option<Value>>, KvError> {
        self.multi_get_scatter(keys).map(|(values, _)| values)
    }

    /// Borrowed-key variant of [`Cluster::multi_get_owned`], kept for
    /// call sites that reuse their key list.
    pub fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<Value>>, KvError> {
        self.multi_get_owned(keys.to_vec())
    }

    /// Stores many pairs, batched per replica node, and returns the
    /// modeled network time of the *slowest* node batch — the
    /// scatter-gather write critical path, symmetric with
    /// [`Cluster::multi_get_scatter`] (each node stores its batch
    /// serially, the nodes overlap). Fails with
    /// [`KvError::AllReplicasDown`] if any pair has no live replica.
    pub fn multi_put_scatter(&self, pairs: Vec<(Key, Value)>) -> Result<Duration, KvError> {
        let mut writer = self.writer();
        for (key, value) in pairs {
            writer.push(key, value)?;
        }
        writer.finish().map(|summary| summary.modeled)
    }

    /// [`Cluster::multi_put_scatter`] without the timing.
    pub fn multi_put(&self, pairs: Vec<(Key, Value)>) -> Result<(), KvError> {
        self.multi_put_scatter(pairs).map(|_| ())
    }

    /// Opens a streaming writer over this cluster's per-node senders:
    /// pairs pushed into it accumulate in per-node buffers and are
    /// shipped as `MultiPut` batches *while the caller keeps encoding*
    /// — the node threads store earlier batches concurrently with the
    /// production of later ones. [`ClusterWriter::finish`] drains the
    /// buffers and waits for every outstanding batch.
    pub fn writer(&self) -> ClusterWriter<'_> {
        ClusterWriter {
            cluster: self,
            buffers: (0..self.node_count()).map(|_| Vec::new()).collect(),
            buffered_bytes: vec![0; self.node_count()],
            pending: Vec::new(),
            summary: WriteSummary::default(),
        }
    }

    /// Waits for one batch a [`ClusterWriter`] shipped and heals what
    /// it can: transient refusals retry in place, a dead node's batch
    /// re-replicates to surviving replicas (with hints for the dead
    /// node). Returns the modeled time the batch contributed.
    fn settle_write(&self, flight: InFlight<Put>) -> Result<Duration, KvError> {
        let node = flight.node;
        let settled = self.settle_put(flight);
        match (settled.reply, settled.copy) {
            (Ok(stored), _) => Ok(stored.modeled + settled.backoff),
            // The node died (administratively or by injected crash)
            // with the batch unstored: push every pair to another
            // live replica so at least one live copy exists, and hint
            // the dead node.
            (Err(KvError::NodeDown(_)), Some(pairs)) if self.replication > 1 => {
                let mut rerouted: Vec<Vec<(Key, Value)>> =
                    (0..self.node_count()).map(|_| Vec::new()).collect();
                for (key, value) in pairs {
                    let target = self
                        .ring
                        .replicas(&key, self.replication)
                        .into_iter()
                        .find(|&n| n != node && !self.is_down(n))
                        .ok_or(KvError::NodeDown(node))?;
                    self.record_hint(node, key.clone(), value.clone());
                    rerouted[target].push((key, value));
                }
                let mut modeled = settled.backoff;
                for (target, batch) in rerouted.into_iter().enumerate() {
                    if !batch.is_empty() {
                        let healed = self.settle_put(self.send(target, batch));
                        modeled += healed.reply?.modeled + healed.backoff;
                    }
                }
                Ok(modeled)
            }
            (Err(e), _) => Err(e),
        }
    }

    /// Aggregated engine statistics across live nodes.
    pub fn info(&self) -> NodeInfo {
        let mut total = NodeInfo::default();
        let mut pending = Vec::new();
        for sender in &self.senders {
            let (tx, rx) = bounded(1);
            if sender.send(Request::Info { reply: tx }).is_ok() {
                pending.push(rx);
            }
        }
        for rx in pending {
            if let Ok(info) = rx.recv() {
                total.keys += info.keys;
                total.live_bytes += info.live_bytes;
            }
        }
        total
    }
}

/// Default per-node flush threshold for [`Cluster::writer`]: big
/// enough to amortize the batch round trip, small enough that chunk
/// encoding and backend storage genuinely overlap during bulk loads.
pub const DEFAULT_WRITE_BATCH_BYTES: usize = 64 * 1024;

/// A node buffer also flushes after this many pairs regardless of
/// size, so streams of small values (chunk maps, metadata) still ship
/// mid-encode instead of all piling up in [`ClusterWriter::finish`].
pub const DEFAULT_WRITE_BATCH_PAIRS: usize = 32;

/// Accounting for one [`ClusterWriter`] session.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteSummary {
    /// Pairs pushed (before replication).
    pub pairs: usize,
    /// Payload bytes pushed (key + value, before replication).
    pub bytes: usize,
    /// `MultiPut` batch messages shipped.
    pub batches: usize,
    /// Modeled network time: the max over nodes of each node's summed
    /// batch times (nodes store their batches in parallel; one node
    /// stores its own batches serially).
    pub modeled: Duration,
}

/// A streaming, per-node-batched write session (see
/// [`Cluster::writer`]). Dropping a writer without calling
/// [`ClusterWriter::finish`] abandons buffered pairs and ignores
/// outstanding batch results — always finish on the success path.
pub struct ClusterWriter<'a> {
    cluster: &'a Cluster,
    /// Per-node buffered pairs awaiting a flush.
    buffers: Vec<Vec<(Key, Value)>>,
    /// Payload bytes buffered per node.
    buffered_bytes: Vec<usize>,
    /// Shipped batches whose replies [`ClusterWriter::finish`] has
    /// yet to collect.
    pending: Vec<InFlight<Put>>,
    summary: WriteSummary,
}

impl ClusterWriter<'_> {
    /// Buffers one pair for every live replica of `key`, shipping any
    /// node buffer that crossed the flush threshold. Does not wait for
    /// the shipped batches — their results are collected by
    /// [`ClusterWriter::finish`]. Replicas that are down get a hint
    /// so the copy they missed can be replayed later.
    ///
    /// Unlike a lone [`Cluster::put`] (which succeeds if *any*
    /// replica took the write), a bulk writer refuses to silently drop
    /// data: a key whose replicas are all down is an error.
    pub fn push(&mut self, key: Key, value: Value) -> Result<(), KvError> {
        let replicas = self.cluster.ring.replicas(&key, self.cluster.replication);
        let mut live = replicas
            .iter()
            .copied()
            .filter(|&n| !self.cluster.is_down(n))
            .peekable();
        if live.peek().is_none() {
            return Err(KvError::AllReplicasDown { tried: replicas });
        }
        for &node in replicas.iter().filter(|&&n| self.cluster.is_down(n)) {
            self.cluster.record_hint(node, key.clone(), value.clone());
        }
        self.summary.pairs += 1;
        self.summary.bytes += key.len() + value.len();
        // Move the pair into its last live replica's buffer; only the
        // extra replicas (replication > 1) clone.
        let mut prev = live.next().expect("peeked non-empty");
        for node in live {
            self.buffer(prev, key.clone(), value.clone());
            prev = node;
        }
        self.buffer(prev, key, value);
        Ok(())
    }

    fn buffer(&mut self, node: usize, key: Key, value: Value) {
        self.buffered_bytes[node] += key.len() + value.len();
        self.buffers[node].push((key, value));
        if self.buffered_bytes[node] >= DEFAULT_WRITE_BATCH_BYTES
            || self.buffers[node].len() >= DEFAULT_WRITE_BATCH_PAIRS
        {
            self.flush_node(node);
        }
    }

    /// Ships `node`'s buffer as one `MultiPut` batch.
    fn flush_node(&mut self, node: usize) {
        if self.buffers[node].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.buffers[node]);
        self.buffered_bytes[node] = 0;
        self.summary.batches += 1;
        self.pending.push(self.cluster.send(node, batch));
    }

    /// Flushes every buffer and waits for all outstanding batches,
    /// returning the session summary or the first unhealable batch
    /// error. Transient refusals are retried under the cluster's
    /// [`RetryPolicy`]; a batch refused with `NodeDown` is
    /// re-replicated pair-by-pair to surviving replicas (recording a
    /// hint for the dead node) and only surfaces as an error when a
    /// pair has no live replica left.
    pub fn finish(mut self) -> Result<WriteSummary, KvError> {
        for node in 0..self.buffers.len() {
            self.flush_node(node);
        }
        let mut per_node = vec![Duration::ZERO; self.buffers.len()];
        let mut first_err = None;
        for flight in std::mem::take(&mut self.pending) {
            let node = flight.node;
            match self.cluster.settle_write(flight) {
                Ok(modeled) => per_node[node] += modeled,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        self.summary.modeled = per_node.into_iter().max().unwrap_or(Duration::ZERO);
        Ok(self.summary)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for sender in &self.senders {
            let _ = sender.send(Request::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultRule, TailDamage};
    use bytes::Bytes;

    fn small_cluster(nodes: usize, replication: usize) -> Cluster {
        Cluster::builder()
            .nodes(nodes)
            .replication(replication)
            .build()
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let c = small_cluster(4, 1);
        c.put(b"k1".to_vec(), Bytes::from_static(b"v1")).unwrap();
        assert_eq!(c.get(b"k1").unwrap(), Some(Bytes::from_static(b"v1")));
        c.delete(b"k1").unwrap();
        assert_eq!(c.get(b"k1").unwrap(), None);
    }

    #[test]
    fn data_spreads_across_nodes() {
        let c = small_cluster(4, 1);
        for i in 0..200u32 {
            c.put(i.to_be_bytes().to_vec(), Bytes::from_static(b"x"))
                .unwrap();
        }
        let info = c.info();
        assert_eq!(info.keys, 200);
    }

    #[test]
    fn replication_stores_copies() {
        let c = small_cluster(4, 3);
        for i in 0..100u32 {
            c.put(i.to_be_bytes().to_vec(), Bytes::from_static(b"x"))
                .unwrap();
        }
        // 3 replicas per key.
        assert_eq!(c.info().keys, 300);
    }

    #[test]
    fn multi_get_preserves_order_and_misses() {
        let c = small_cluster(4, 1);
        for i in 0..50u32 {
            c.put(
                i.to_be_bytes().to_vec(),
                Bytes::from(i.to_le_bytes().to_vec()),
            )
            .unwrap();
        }
        let keys: Vec<Key> = (0..60u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let values = c.multi_get(&keys).unwrap();
        assert_eq!(values.len(), 60);
        for (i, v) in values.iter().enumerate() {
            if i < 50 {
                let got = u32::from_le_bytes(v.as_ref().unwrap()[..4].try_into().unwrap());
                assert_eq!(got, i as u32);
            } else {
                assert!(v.is_none(), "key {i} should miss");
            }
        }
    }

    #[test]
    fn multi_put_then_multi_get() {
        let c = small_cluster(3, 2);
        let pairs: Vec<(Key, Value)> = (0..100u32)
            .map(|i| (i.to_be_bytes().to_vec(), Bytes::from(vec![i as u8; 8])))
            .collect();
        c.multi_put(pairs).unwrap();
        let keys: Vec<Key> = (0..100u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let values = c.multi_get(&keys).unwrap();
        assert!(values.iter().all(Option::is_some));
    }

    #[test]
    fn failover_reads_from_replica() {
        let c = small_cluster(3, 2);
        for i in 0..60u32 {
            c.put(i.to_be_bytes().to_vec(), Bytes::from_static(b"v"))
                .unwrap();
        }
        c.set_node_down(0, true);
        // Every key must still be readable through its second replica.
        for i in 0..60u32 {
            assert_eq!(
                c.get(&i.to_be_bytes()).unwrap(),
                Some(Bytes::from_static(b"v")),
                "key {i} lost after node 0 went down"
            );
        }
        c.set_node_down(0, false);
    }

    #[test]
    fn unreplicated_cluster_loses_access_when_node_down() {
        let c = small_cluster(2, 1);
        for i in 0..20u32 {
            c.put(i.to_be_bytes().to_vec(), Bytes::from_static(b"v"))
                .unwrap();
        }
        c.set_node_down(0, true);
        let lost = (0..20u32)
            .filter(|i| c.get(&i.to_be_bytes()).is_err())
            .count();
        assert!(lost > 0, "some keys must be unreachable");
        c.set_node_down(0, false);
        for i in 0..20u32 {
            assert!(c.get(&i.to_be_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn stats_count_requests_and_bytes() {
        let c = small_cluster(2, 1);
        c.reset_stats();
        c.put(b"a".to_vec(), Bytes::from(vec![0u8; 100])).unwrap();
        let _ = c.get(b"a").unwrap();
        let _ = c.get(b"missing").unwrap();
        let s = c.stats();
        assert_eq!(s.puts, 1);
        assert_eq!(s.gets, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.bytes_written, 101);
        assert_eq!(s.bytes_read, 100);
    }

    #[test]
    fn modeled_time_accumulates_without_sleeping() {
        let c = Cluster::builder()
            .nodes(2)
            .network(NetworkModel::lan_virtual())
            .build();
        c.put(b"a".to_vec(), Bytes::from(vec![0u8; 1000])).unwrap();
        let _ = c.get(b"a").unwrap();
        let s = c.stats();
        assert!(s.modeled_time >= std::time::Duration::from_micros(500));
    }

    #[test]
    fn log_engine_cluster_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rstore-cluster-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let c = Cluster::builder()
                .nodes(2)
                .engine(EngineKind::Log { dir: dir.clone() })
                .build();
            for i in 0..50u32 {
                c.put(i.to_be_bytes().to_vec(), Bytes::from(vec![1u8; 16]))
                    .unwrap();
            }
        }
        // Restart on the same directory: data must survive.
        let c = Cluster::builder()
            .nodes(2)
            .engine(EngineKind::Log { dir: dir.clone() })
            .build();
        for i in 0..50u32 {
            assert!(c.get(&i.to_be_bytes()).unwrap().is_some(), "key {i} lost");
        }
        drop(c);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn reads_walk_past_a_replica_whose_hints_died() {
        let dir = std::env::temp_dir().join(format!("rstore-cluster-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log_cluster = |replication: usize| {
            Cluster::builder()
                .nodes(3)
                .replication(replication)
                .engine(EngineKind::Log { dir: dir.clone() })
                .build()
        };
        let keys: Vec<Key> = (0..60u32).map(|i| i.to_be_bytes().to_vec()).collect();
        {
            let c = log_cluster(2);
            c.set_node_down(0, true);
            for key in &keys {
                c.put(key.clone(), Bytes::from(key.clone())).unwrap();
            }
            assert!(c.pending_hints() > 0);
        }
        // Rebuilt over the same logs: the hints died with the old
        // cluster, so node 0 lacks every key it should hold a copy of.
        let c = log_cluster(2);
        assert_eq!(c.pending_hints(), 0);
        for key in &keys {
            assert_eq!(c.get(key).unwrap().as_deref(), Some(&key[..]), "get of {key:?}");
        }
        let values = c.multi_get(&keys).unwrap();
        for (key, value) in keys.iter().zip(&values) {
            assert_eq!(value.as_deref(), Some(&key[..]), "multi_get of {key:?}");
        }
        drop(c);
        // At replication 1 a key has no next replica: one round, one
        // batch per node the keys route to, though node 0's keys miss.
        let c = log_cluster(1);
        let contacted: std::collections::BTreeSet<usize> =
            keys.iter().map(|key| c.owner_of(key).unwrap()).collect();
        c.reset_stats();
        let values = c.multi_get(&keys).unwrap();
        assert!(values.iter().any(Option::is_none), "node 0 served none of its keys");
        assert_eq!(c.stats().batch_gets, contacted.len() as u64);
        drop(c);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_node_log_that_cannot_open_fails_the_build() {
        // Node 1's log path is a directory, so its thread fails to open
        // the log while the other nodes open theirs: `build` waits for
        // all of them and panics as a serial open did.
        let dir = std::env::temp_dir().join(format!("rstore-cluster-unopenable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("node-1.log")).unwrap();
        let builder = Cluster::builder().nodes(3).engine(EngineKind::Log { dir: dir.clone() });
        let panic = std::panic::catch_unwind(move || builder.build()).err().expect("build must panic");
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.starts_with("open node log"), "panicked with {message:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn empty_multi_get() {
        let c = small_cluster(2, 1);
        assert!(c.multi_get(&[]).unwrap().is_empty());
        assert!(c.multi_get_owned(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn owner_of_matches_routing_and_fails_over() {
        let c = small_cluster(3, 2);
        for i in 0..40u32 {
            let key = i.to_be_bytes().to_vec();
            c.put(key.clone(), Bytes::from_static(b"v")).unwrap();
            let owner = c.owner_of(&key).unwrap();
            // The owner actually holds the key: a direct batch fetch
            // from it returns the value.
            let got = c.fetch_from(owner, vec![key.clone()]).unwrap();
            assert_eq!(got.values, vec![Some(Bytes::from_static(b"v"))]);
        }
        // Downing a node moves ownership to the surviving replica.
        c.set_node_down(0, true);
        for i in 0..40u32 {
            let key = i.to_be_bytes().to_vec();
            let owner = c.owner_of(&key).unwrap();
            assert_ne!(owner, 0, "down node must not own reads");
            let got = c.fetch_from(owner, vec![key]).unwrap();
            assert!(got.values[0].is_some(), "key {i} lost on failover");
        }
        c.set_node_down(0, false);
    }

    #[test]
    fn replicas_of_lists_live_replica_set_in_failover_order() {
        let c = small_cluster(4, 3);
        for i in 0..40u32 {
            let key = i.to_be_bytes().to_vec();
            let reps = c.replicas_of(&key).unwrap();
            assert_eq!(reps.len(), 3, "full replica set while healthy");
            // The head of the set is exactly the first-live owner.
            assert_eq!(reps[0], c.owner_of(&key).unwrap());
        }
        // Downing the owner drops it from the set; the tail survives
        // in order, and the new head is the new owner.
        let key = 7u32.to_be_bytes();
        let healthy = c.replicas_of(&key).unwrap();
        c.set_node_down(healthy[0], true);
        let degraded = c.replicas_of(&key).unwrap();
        assert_eq!(degraded, healthy[1..]);
        assert_eq!(degraded[0], c.owner_of(&key).unwrap());
        // All replicas down: a clean error carrying the tried set.
        for &n in &healthy[1..] {
            c.set_node_down(n, true);
        }
        match c.replicas_of(&key) {
            Err(KvError::AllReplicasDown { tried }) => assert_eq!(tried, healthy),
            other => panic!("expected AllReplicasDown, got {other:?}"),
        }
        for &n in &healthy {
            c.set_node_down(n, false);
        }
    }

    #[test]
    fn node_stats_track_batch_load() {
        let c = small_cluster(3, 1);
        for i in 0..60u32 {
            c.put(i.to_be_bytes().to_vec(), Bytes::from_static(b"x"))
                .unwrap();
        }
        c.reset_stats();
        let keys: Vec<Key> = (0..60u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let _ = c.multi_get_owned(keys).unwrap();
        let per_node = c.node_stats();
        assert_eq!(per_node.len(), 3);
        let total_batches: u64 = per_node.iter().map(|n| n.batch_gets).sum();
        let total_keys: u64 = per_node.iter().map(|n| n.keys_served).sum();
        assert_eq!(total_batches, c.stats().batch_gets);
        assert_eq!(total_keys, 60, "every key is served by exactly one node");
        assert!(
            per_node.iter().all(|n| n.batch_gets >= 1),
            "a 60-key scatter should touch all 3 nodes: {per_node:?}"
        );
        c.reset_stats();
        assert!(c.node_stats().iter().all(|n| n.keys_served == 0));
    }

    #[test]
    fn fetch_from_down_node_is_clean_error() {
        let c = small_cluster(2, 1);
        c.set_node_down(1, true);
        match c.fetch_from(1, vec![b"k".to_vec()]) {
            Err(KvError::NodeDown(1)) => {}
            other => panic!("expected NodeDown, got {other:?}"),
        }
        c.set_node_down(1, false);
    }

    #[test]
    fn fetch_from_reports_batch_modeled_time() {
        let c = Cluster::builder()
            .nodes(1)
            .network(NetworkModel::lan_virtual())
            .build();
        for i in 0..8u32 {
            c.put(i.to_be_bytes().to_vec(), Bytes::from(vec![0u8; 100]))
                .unwrap();
        }
        let keys: Vec<Key> = (0..8u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let got = c.fetch_from(0, keys).unwrap();
        // Eight keys at >= 250 µs latency each, summed over the batch.
        assert!(
            got.modeled >= std::time::Duration::from_micros(8 * 250),
            "batch modeled time too small: {:?}",
            got.modeled
        );
    }

    #[test]
    fn batch_gets_counts_node_round_trips() {
        let c = small_cluster(4, 1);
        for i in 0..64u32 {
            c.put(i.to_be_bytes().to_vec(), Bytes::from_static(b"x"))
                .unwrap();
        }
        c.reset_stats();
        let keys: Vec<Key> = (0..64u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let _ = c.multi_get_owned(keys).unwrap();
        let s = c.stats();
        assert_eq!(s.gets, 64, "every key is still charged as one query");
        assert!(
            s.batch_gets >= 1 && s.batch_gets <= 4,
            "one batch round trip per contacted node, got {}",
            s.batch_gets
        );
    }

    #[test]
    fn multi_put_scatter_reports_slowest_node_batch() {
        let c = Cluster::builder()
            .nodes(2)
            .network(NetworkModel::lan_virtual())
            .build();
        let pairs: Vec<(Key, Value)> = (0..16u32)
            .map(|i| (i.to_be_bytes().to_vec(), Bytes::from(vec![0u8; 100])))
            .collect();
        let modeled = c.multi_put_scatter(pairs).unwrap();
        // Max over two nodes serving ~8 pairs each at >= 250 µs per
        // pair; strictly less than the 16-pair serial sum.
        assert!(modeled >= std::time::Duration::from_micros(4 * 250));
        assert!(modeled < std::time::Duration::from_micros(16 * 300));
        assert!(c.get(&0u32.to_be_bytes()).unwrap().is_some());
    }

    #[test]
    fn streaming_writer_batches_and_stores_everything() {
        let c = small_cluster(3, 2);
        c.reset_stats();
        // The pair cap forces many mid-stream batches.
        let mut w = c.writer();
        for i in 0..200u32 {
            w.push(i.to_be_bytes().to_vec(), Bytes::from(vec![i as u8; 32]))
                .unwrap();
        }
        let summary = w.finish().unwrap();
        assert_eq!(summary.pairs, 200);
        assert!(summary.batches > 3, "threshold never triggered a flush");
        let s = c.stats();
        assert_eq!(s.puts, 400, "2 replicas per pair");
        assert_eq!(s.batch_puts as usize, summary.batches);
        for i in 0..200u32 {
            assert_eq!(
                c.get(&i.to_be_bytes()).unwrap(),
                Some(Bytes::from(vec![i as u8; 32]))
            );
        }
    }

    #[test]
    fn writer_to_fully_down_replica_set_is_clean_error() {
        let c = small_cluster(2, 1);
        c.set_node_down(0, true);
        c.set_node_down(1, true);
        let mut w = c.writer();
        match w.push(b"k".to_vec(), Bytes::from_static(b"v")) {
            Err(KvError::AllReplicasDown { .. }) => {}
            other => panic!("expected AllReplicasDown, got {other:?}"),
        }
        c.set_node_down(0, false);
        c.set_node_down(1, false);
    }

    #[test]
    fn writer_surfaces_node_going_down_mid_stream() {
        let c = small_cluster(2, 1);
        let mut w = c.writer();
        // Fewer pairs than one batch holds: every node buffers all of
        // its pairs until `finish`.
        for i in 0..DEFAULT_WRITE_BATCH_PAIRS as u32 - 1 {
            w.push(i.to_be_bytes().to_vec(), Bytes::from_static(b"v"))
                .unwrap();
        }
        // The node goes down after buffering but before the flush:
        // finish must surface the failure, not drop the batch.
        c.set_node_down(0, true);
        match w.finish() {
            Err(KvError::NodeDown(0)) => {}
            other => panic!("expected NodeDown(0), got {other:?}"),
        }
        c.set_node_down(0, false);
    }

    #[test]
    fn multi_delete_removes_all_replicas_and_counts_batches() {
        let c = small_cluster(3, 2);
        for i in 0..80u32 {
            c.put(i.to_be_bytes().to_vec(), Bytes::from_static(b"v"))
                .unwrap();
        }
        assert_eq!(c.info().keys, 160, "2 replicas per key");
        c.reset_stats();
        let keys: Vec<Key> = (0..80u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let (modeled, removed) = c.multi_delete_scatter(keys).unwrap();
        assert_eq!(removed, 160, "every replica copy removed");
        let _ = modeled;
        let s = c.stats();
        assert_eq!(s.deletes, 160);
        assert!(
            s.batch_deletes >= 1 && s.batch_deletes <= 3,
            "one batch round trip per contacted node, got {}",
            s.batch_deletes
        );
        assert_eq!(c.info().keys, 0);
        for i in 0..80u32 {
            assert_eq!(c.get(&i.to_be_bytes()).unwrap(), None);
        }
    }

    #[test]
    fn multi_delete_scatter_reports_slowest_node_batch() {
        let c = Cluster::builder()
            .nodes(2)
            .network(NetworkModel::lan_virtual())
            .build();
        for i in 0..16u32 {
            c.put(i.to_be_bytes().to_vec(), Bytes::from_static(b"v"))
                .unwrap();
        }
        let keys: Vec<Key> = (0..16u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let (modeled, removed) = c.multi_delete_scatter(keys).unwrap();
        assert_eq!(removed, 16);
        // Max over two nodes serving ~8 keys each at >= 250 µs per
        // key; strictly less than the 16-key serial sum.
        assert!(modeled >= std::time::Duration::from_micros(4 * 250));
        assert!(modeled < std::time::Duration::from_micros(16 * 300));
    }

    #[test]
    fn multi_delete_skips_down_replicas_like_delete() {
        let c = small_cluster(2, 1);
        for i in 0..40u32 {
            c.put(i.to_be_bytes().to_vec(), Bytes::from_static(b"v"))
                .unwrap();
        }
        c.set_node_down(0, true);
        // Keys owned by the down node are skipped (orphans), keys on
        // the live node are removed; no error either way.
        let keys: Vec<Key> = (0..40u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let (_, removed) = c.multi_delete_scatter(keys).unwrap();
        assert!(removed > 0 && removed < 40, "only the live node's keys go");
        c.set_node_down(0, false);
        let survivors = (0..40u32)
            .filter(|i| c.get(&i.to_be_bytes()).unwrap().is_some())
            .count();
        assert_eq!(survivors, 40 - removed, "down node kept its copies");
    }

    #[test]
    fn empty_multi_delete() {
        let c = small_cluster(2, 1);
        let (modeled, removed) = c.multi_delete_scatter(Vec::new()).unwrap();
        assert_eq!((modeled, removed), (Duration::ZERO, 0));
    }

    #[test]
    fn overwrite_returns_latest() {
        let c = small_cluster(3, 2);
        c.put(b"k".to_vec(), Bytes::from_static(b"old")).unwrap();
        c.put(b"k".to_vec(), Bytes::from_static(b"new")).unwrap();
        assert_eq!(c.get(b"k").unwrap(), Some(Bytes::from_static(b"new")));
    }

    #[test]
    fn transient_faults_are_healed_by_retries() {
        // Every 5th request on every node is refused once; the retry
        // lands on the next op number, which the periodic rule skips.
        let plan = FaultPlan::new(7).rule(FaultRule::transient().every(5));
        let c = Cluster::builder()
            .nodes(2)
            .replication(1)
            .faults(plan)
            .build();
        for i in 0..50u32 {
            c.put(i.to_be_bytes().to_vec(), Bytes::from(vec![i as u8; 8]))
                .unwrap();
        }
        for i in 0..50u32 {
            assert_eq!(
                c.get(&i.to_be_bytes()).unwrap(),
                Some(Bytes::from(vec![i as u8; 8])),
                "key {i} lost under transient faults"
            );
        }
        let keys: Vec<Key> = (0..50u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let values = c.multi_get(&keys).unwrap();
        assert!(values.iter().all(Option::is_some));
        let s = c.stats();
        assert!(s.faults_injected > 0, "the plan never fired");
        assert!(s.retries > 0, "faults fired but nothing retried");
    }

    #[test]
    fn disabled_retries_surface_transient_errors() {
        let plan = FaultPlan::new(7).rule(FaultRule::transient().every(5));
        let c = Cluster::builder()
            .nodes(2)
            .replication(1)
            .faults(plan)
            .retry(RetryPolicy::none())
            .build();
        let failed = (0..50u32)
            .filter(|i| {
                c.put(i.to_be_bytes().to_vec(), Bytes::from_static(b"v"))
                    .is_err()
            })
            .count();
        assert!(failed > 0, "without retries the faults must be visible");
        assert_eq!(c.stats().retries, 0);
    }

    #[test]
    fn scatter_paths_retry_transient_faults() {
        let plan = FaultPlan::new(3).rule(FaultRule::transient().every(4));
        let c = Cluster::builder()
            .nodes(3)
            .replication(2)
            .faults(plan)
            .build();
        let pairs: Vec<(Key, Value)> = (0..80u32)
            .map(|i| (i.to_be_bytes().to_vec(), Bytes::from(vec![i as u8; 8])))
            .collect();
        c.multi_put_scatter(pairs).unwrap();
        let keys: Vec<Key> = (0..80u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let values = c.multi_get_owned(keys.clone()).unwrap();
        assert!(values.iter().all(Option::is_some));
        let (_, removed) = c.multi_delete_scatter(keys).unwrap();
        assert_eq!(removed, 160, "both replicas of all 80 keys removed");
        assert!(c.stats().retries > 0);
    }

    #[test]
    fn hinted_handoff_restores_replication_after_outage() {
        let c = small_cluster(3, 2);
        // Capture the keys replicated on node 0 while it is healthy.
        let on0: Vec<Key> = (0..120u32)
            .map(|i| i.to_be_bytes().to_vec())
            .filter(|k| c.replicas_of(k).unwrap().contains(&0))
            .collect();
        assert!(on0.len() > 10, "hash spread should put many keys on node 0");
        c.set_node_down(0, true);
        for key in &on0 {
            c.put(key.clone(), Bytes::from_static(b"hinted")).unwrap();
        }
        assert_eq!(c.pending_hints(), on0.len());
        assert_eq!(c.stats().under_replicated, on0.len() as u64);
        // Recovery triggers replay; the key must now live on node 0
        // itself, proven by fetching from it directly.
        c.set_node_down(0, false);
        assert_eq!(c.pending_hints(), 0);
        let got = c.fetch_from(0, on0.clone()).unwrap();
        assert!(
            got.values
                .iter()
                .all(|v| v == &Some(Bytes::from_static(b"hinted"))),
            "replayed keys must be served by the recovered replica"
        );
        let s = c.stats();
        assert!(s.hints_recorded >= on0.len() as u64);
        assert!(s.hints_replayed >= on0.len() as u64);
        assert_eq!(s.under_replicated, 0);
    }

    #[test]
    fn delete_surfaces_a_refusal_instead_of_reporting_success() {
        // Every node refuses exactly its second request: the key's
        // owner serves the put (op 0), refuses the delete (op 1) and
        // serves the get; with retries off the refusal is final.
        let plan = FaultPlan::new(1).rule(FaultRule::transient().after(1).until(2));
        let c = Cluster::builder()
            .nodes(2)
            .replication(1)
            .faults(plan)
            .retry(RetryPolicy::none())
            .build();
        c.put(b"k".to_vec(), Bytes::from_static(b"v")).unwrap();
        match c.delete(b"k") {
            Err(KvError::Transient(_)) => {}
            other => panic!("expected Transient, got {other:?}"),
        }
        assert_eq!(
            c.get(b"k").unwrap(),
            Some(Bytes::from_static(b"v")),
            "a failed delete must leave the value readable"
        );
    }

    #[test]
    fn deletes_purge_stale_hints() {
        let c = small_cluster(3, 2);
        let key = 9u32.to_be_bytes().to_vec();
        let victim = c.replicas_of(&key).unwrap()[0];
        c.set_node_down(victim, true);
        c.put(key.clone(), Bytes::from_static(b"v")).unwrap();
        assert_eq!(c.pending_hints(), 1);
        // Deleting the key must also drop the hint, or replay would
        // resurrect the value on the recovered node.
        c.delete(&key).unwrap();
        assert_eq!(c.pending_hints(), 0);
        c.set_node_down(victim, false);
        assert_eq!(c.get(&key).unwrap(), None);
        let got = c.fetch_from(victim, vec![key]).unwrap();
        assert_eq!(got.values, vec![None]);
    }

    #[test]
    fn injected_crash_outage_heals_via_hints() {
        // Node 0 crashes on its 4th request and refuses the next 4;
        // replication 2 keeps every write alive on the sibling.
        let plan = FaultPlan::new(11).rule(
            FaultRule::crash(4, TailDamage::None)
                .on_node(0)
                .after(3)
                .until(4),
        );
        let c = Cluster::builder()
            .nodes(3)
            .replication(2)
            .faults(plan)
            .build();
        for i in 0..60u32 {
            c.put(i.to_be_bytes().to_vec(), Bytes::from(vec![i as u8; 8]))
                .unwrap();
        }
        let s = c.stats();
        assert!(s.faults_injected >= 1, "the crash never fired");
        assert!(c.pending_hints() > 0, "outage writes should leave hints");
        // The outage has expired by now; replay restores replication.
        let replayed = c.replay_hints().unwrap();
        assert!(replayed > 0);
        assert_eq!(c.pending_hints(), 0);
        for i in 0..60u32 {
            assert_eq!(
                c.get(&i.to_be_bytes()).unwrap(),
                Some(Bytes::from(vec![i as u8; 8])),
                "key {i} lost across the injected crash"
            );
        }
    }

    #[test]
    fn writer_heals_replica_outage_mid_stream() {
        let c = small_cluster(3, 2);
        // Fewer keys than one batch holds: every node buffers all of
        // its pairs until `finish`.
        let keys: Vec<Key> = (0..DEFAULT_WRITE_BATCH_PAIRS as u32 - 1)
            .map(|i| i.to_be_bytes().to_vec())
            .collect();
        let on0: Vec<Key> = keys
            .iter()
            .filter(|k| c.replicas_of(k).unwrap().contains(&0))
            .cloned()
            .collect();
        assert!(!on0.is_empty());
        let mut w = c.writer();
        for key in &keys {
            w.push(key.clone(), Bytes::from_static(b"v")).unwrap();
        }
        // Node 0 dies after buffering but before the flush. With a
        // second replica available, finish re-replicates instead of
        // failing, and leaves hints for the dead node.
        c.set_node_down(0, true);
        let summary = w.finish().unwrap();
        assert_eq!(summary.pairs, keys.len());
        assert_eq!(c.pending_hints(), on0.len());
        for key in &keys {
            assert!(c.get(key).unwrap().is_some());
        }
        c.set_node_down(0, false);
        assert_eq!(c.pending_hints(), 0);
        let got = c.fetch_from(0, on0).unwrap();
        assert!(got.values.iter().all(Option::is_some));
    }

    #[test]
    fn direct_write_invalidates_stale_hint() {
        // The race: a hint is queued for a node (it missed a write
        // during an outage the client never saw, e.g. an injected
        // crash), the node comes back, and a *newer* write lands on
        // it directly before any replay runs. Replaying the old hint
        // afterwards must not resurrect the overwritten value.
        let c = small_cluster(3, 2);
        let key = 5u32.to_be_bytes().to_vec();
        let node = c.replicas_of(&key).unwrap()[0];
        c.record_hint(node, key.clone(), Bytes::from_static(b"stale"));
        assert_eq!(c.pending_hints(), 1);
        c.put(key.clone(), Bytes::from_static(b"new")).unwrap();
        assert_eq!(c.pending_hints(), 0, "direct write must clear the hint");
        let _ = c.replay_hints().unwrap();
        let got = c.fetch_from(node, vec![key]).unwrap();
        assert_eq!(
            got.values,
            vec![Some(Bytes::from_static(b"new"))],
            "replay resurrected an overwritten value"
        );
    }

    #[test]
    fn latency_faults_inflate_modeled_time_only() {
        let plan = FaultPlan::new(5).rule(
            FaultRule::latency(Duration::from_millis(2)).every(3),
        );
        let c = Cluster::builder()
            .nodes(2)
            .replication(1)
            .faults(plan)
            .build();
        c.reset_stats();
        for i in 0..30u32 {
            c.put(i.to_be_bytes().to_vec(), Bytes::from_static(b"v"))
                .unwrap();
        }
        let s = c.stats();
        // Ten of the thirty puts hit the 2 ms latency rule.
        assert!(s.modeled_time >= Duration::from_millis(20));
        assert_eq!(s.faults_injected, 0, "latency is a delay, not a failure");
    }
}
