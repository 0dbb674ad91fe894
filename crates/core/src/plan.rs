//! Query planning and scatter-gather execution: the explicit
//! **plan → fetch → extract** pipeline behind every read.
//!
//! The monolithic read path (resolve, fetch, decode, materialize in
//! one pass) is split into three stages, mirroring how the paper's
//! query server "issues queries in parallel to the backend store"
//! (§2.4) while leaving each stage independently testable:
//!
//! 1. **Plan** — [`RStore::plan_query`](crate::store::RStore::plan_query)
//!    pins the current [`StoreSnapshot`](crate::store::StoreSnapshot),
//!    consults its two lossy projections *once* to resolve the
//!    query's span, probes the decoded-chunk cache, and groups the
//!    missed chunks by the node owning their blob (via
//!    `Cluster::owner_of`, the hash-ring placement API) — **one
//!    backend key per missed chunk**, the bill of the paper's Table 1
//!    ([`cost`](crate::cost)). The result is a [`QueryPlan`]: an
//!    inspectable description of exactly what will be fetched from
//!    where.
//! 2. **Fetch** — [`RStore::execute`](crate::store::RStore::execute)
//!    runs the plan's node batches concurrently on the store's shared
//!    fetch pool ([`serve`](crate::serve)): each batch is one pool
//!    job, so fetch threads are bounded by the pool size no matter
//!    how many queries are in flight. The executor slot a blob arrives
//!    on decodes it — decode overlaps with the other batches'
//!    transfers — pairs it with the chunk's map **from the pinned
//!    snapshot** (chunk maps are never fetched: every generation
//!    publishes them decoded, and a reader pinned at generation `g`
//!    extracts with `g`'s maps even after a compaction retired the
//!    chunk) and admits the pair to the cache. Modeled
//!    network time is taken as the **max over node batches**
//!    (parallel scatter-gather), not their sum. A node that fails
//!    mid-query does not fail the query: its batch's keys are
//!    re-planned against each key's next live replica (see
//!    [`ReadRouting`]) and only a key with no live replica left
//!    surfaces the error.
//! 3. **Extract** — [`RecordStream`] yields records chunk by chunk,
//!    decompressing each chunk's sub-chunks only when the consumer
//!    reaches it, so callers that stop early (point lookups, limits)
//!    never pay for the tail.
//!
//! [`RStore::execute_serial`](crate::store::RStore::execute_serial)
//! keeps the one-node-at-a-time reference path: it is the oracle the
//! property tests compare against.

use crate::cache::{ChunkCache, DecodedChunk};
use crate::chunk::Chunk;
use crate::chunkmap::ChunkMap;
use crate::error::CoreError;
use crate::model::{ChunkId, PrimaryKey, Record, VersionId};
use crate::obs::{MetricsRegistry, TraceSink, TID_NODE_BASE, TID_QUERY};
use crate::query::{self, QueryStats};
use crate::serve::{FetchPool, RoundTicket, WaitGroup};
use crate::store::{PinnedSnapshot, CHUNK_TABLE};
use rstore_kvstore::{table_key, Cluster, Key, KvError};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How the planner spreads a query's backend keys across each key's
/// replica set. With `replication = 1` the policies coincide; beyond
/// that they trade the reference behaviour for read throughput.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReadRouting {
    /// Route every key to its first live replica in ring order — the
    /// original behaviour and the reference path: deterministic, and
    /// the one the cost-model experiments assume.
    #[default]
    FirstLive,
    /// Route each key to the least-loaded live member of its replica
    /// set (load = keys already planned onto that node for this
    /// query), falling back to first-live assignment when the greedy
    /// pass does not flatten the critical path. A hot span's node
    /// batches spread across `replication` copies instead of piling
    /// onto the first, so the max-over-nodes modeled time shrinks.
    Balanced,
}

/// What a read wants: the four query classes of §2.1 plus the full
/// scan used by store recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySpec {
    /// Full version retrieval: every record of `v`.
    Version(VersionId),
    /// Record retrieval: the value of `pk` in version `v`.
    Record {
        /// Primary key to look up.
        pk: PrimaryKey,
        /// Version to look it up in.
        v: VersionId,
    },
    /// Range retrieval: records of `v` with `lo <= pk <= hi`.
    Range {
        /// Inclusive lower bound.
        lo: PrimaryKey,
        /// Inclusive upper bound.
        hi: PrimaryKey,
        /// Version to restrict to.
        v: VersionId,
    },
    /// Evolution retrieval: every distinct value `pk` ever had.
    Evolution {
        /// Primary key whose history is wanted.
        pk: PrimaryKey,
    },
    /// Every record of every planned chunk (recovery scan).
    Scan,
}

impl QuerySpec {
    /// Extracts this query's records from one decoded chunk, in
    /// chunk-local order. Sub-chunks without requested members stay
    /// compressed.
    pub(crate) fn extract(&self, dc: &DecodedChunk) -> Result<Vec<Record>, CoreError> {
        match *self {
            QuerySpec::Version(v) => query::extract_version_records(&dc.chunk, &dc.map, v),
            QuerySpec::Record { pk, v } => {
                let Some(locals) = dc.map.iter_locals(v) else {
                    return Ok(Vec::new());
                };
                let keys = dc.local_keys();
                query::extract_from_iter(&dc.chunk, locals.filter(|&l| keys[l].pk == pk))
            }
            QuerySpec::Range { lo, hi, v } => {
                let Some(locals) = dc.map.iter_locals(v) else {
                    return Ok(Vec::new());
                };
                let keys = dc.local_keys();
                query::extract_from_iter(
                    &dc.chunk,
                    locals.filter(|&l| {
                        let k = keys[l].pk;
                        k >= lo && k <= hi
                    }),
                )
            }
            QuerySpec::Evolution { pk } => {
                let keys = dc.local_keys();
                query::extract_from_iter(&dc.chunk, (0..keys.len()).filter(|&l| keys[l].pk == pk))
            }
            QuerySpec::Scan => query::extract_all(&dc.chunk),
        }
    }
}

/// Tunables for hedged node batches: when a fetch round's straggler
/// outlives `factor ×` the health scoreboard's expected time for the
/// round's slowest batch (per-key service EWMA × batch length,
/// floored at `min` so a cold scoreboard still hedges eventually),
/// the unserved keys are re-issued to untried live replicas as backup
/// pool jobs and the first answer wins. Off by default
/// ([`StoreConfig::hedge`](crate::store::StoreConfig::hedge) is
/// `None`); hedging never changes answer bytes, only who serves them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Multiple of the expected batch time a straggler must exceed
    /// before backups are issued.
    pub factor: f64,
    /// Floor for the hedge delay, guarding against a cold scoreboard
    /// (EWMA zero would otherwise hedge instantly).
    pub min: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        Self {
            factor: 2.0,
            min: Duration::from_millis(1),
        }
    }
}

/// Per-execution tail-defense policy. Both knobs default to off, so
/// an unconfigured execution is bit-identical to the pre-hedging
/// executor; hedging additionally requires the pooled mode (the
/// serial oracle has no backup lane to run a hedge on, and its
/// answers must stay byte-identical regardless).
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecPolicy {
    /// Hedge straggler node batches (pooled executor only).
    pub(crate) hedge: Option<HedgeConfig>,
    /// Time budget: accrued modeled fetch time (max over each round's
    /// parallel node batches, identically in every mode) plus any
    /// queue wait already charged by the caller.
    pub(crate) deadline: Option<Duration>,
    /// This query's trace sink, present only when the deterministic
    /// sampler selected it. Span names allocate, so an unsampled
    /// query must never see `Some` here.
    pub(crate) trace: Option<Arc<TraceSink>>,
}

/// One node's share of a scatter-gather fetch: the blob keys of the
/// missed chunks it serves, tagged with each chunk's miss ordinal.
#[derive(Debug)]
pub struct NodeBatch {
    /// The serving node.
    node: usize,
    /// Backend keys to fetch from this node, one per chunk.
    keys: Vec<Key>,
    /// Parallel to `keys`: the chunk's miss ordinal.
    misses: Vec<usize>,
}

impl NodeBatch {
    /// Adds miss `m`'s key to `node`'s batch in `by_node`.
    fn route(by_node: &mut FxHashMap<usize, NodeBatch>, node: usize, m: usize, key: Key) {
        let batch = by_node.entry(node).or_insert_with(|| NodeBatch {
            node,
            keys: Vec::new(),
            misses: Vec::new(),
        });
        batch.keys.push(key);
        batch.misses.push(m);
    }

    /// The batches of `by_node` in node order.
    fn sorted(by_node: FxHashMap<usize, NodeBatch>) -> Vec<NodeBatch> {
        let mut batches: Vec<NodeBatch> = by_node.into_values().collect();
        batches.sort_unstable_by_key(NodeBatch::node);
        batches
    }

    /// The node this batch is routed to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Keys in this batch.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the batch carries no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// The planner's output: span, cache residency, and per-node fetch
/// batches — everything the executor needs, precomputed, with no
/// backend round trip taken yet.
#[derive(Debug)]
pub struct QueryPlan {
    spec: QuerySpec,
    /// The routing policy the plan was built under; mid-query
    /// failover re-routes with the same policy.
    routing: ReadRouting,
    /// The query's span in planning order (slot i holds chunk_ids[i]).
    chunk_ids: Vec<u32>,
    /// Slot-aligned cache hits (`None` = must be fetched).
    resident: Vec<Option<Arc<DecodedChunk>>>,
    /// `(slot, chunk id)` of every chunk that must come from the
    /// backend, in planning order.
    misses: Vec<(usize, u32)>,
    /// The missed chunks' backend keys grouped by owning node, sorted
    /// by node.
    batches: Vec<NodeBatch>,
    /// Cache accounting (zeros when the cache is disabled).
    cache_hits: usize,
    cache_misses: usize,
    /// The snapshot pin taken at admission. It rides inside the plan
    /// so the whole plan → fetch → extract pipeline observes one
    /// generation, and so reclamation knows a reader may still need
    /// this generation's backend keys until the plan is dropped.
    pin: PinnedSnapshot,
}

impl QueryPlan {
    /// The query this plan answers.
    pub fn spec(&self) -> QuerySpec {
        self.spec
    }

    /// The planned chunk ids — the query's *span*, straight from one
    /// consultation of the projections.
    pub fn chunk_ids(&self) -> &[u32] {
        &self.chunk_ids
    }

    /// Number of chunks the plan touches.
    pub fn span(&self) -> usize {
        self.chunk_ids.len()
    }

    /// Distinct backend nodes the executor will contact.
    pub fn nodes_contacted(&self) -> usize {
        self.batches.len()
    }

    /// Largest per-node key batch.
    pub fn max_node_batch(&self) -> usize {
        self.batches.iter().map(NodeBatch::len).max().unwrap_or(0)
    }

    /// Chunks already resident in the decoded-chunk cache.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Chunks the executor must fetch.
    pub fn cache_misses(&self) -> usize {
        self.cache_misses
    }

    /// True when no backend round trip is needed.
    pub fn fully_cached(&self) -> bool {
        self.misses.is_empty()
    }

    /// The generation of the snapshot this plan is pinned to.
    pub fn generation(&self) -> u64 {
        self.pin.generation()
    }
}

/// The least-loaded of `candidates` under `load` (unknown nodes count
/// as 0). Strictly-less comparison keeps the *earliest* minimum, so
/// ties break toward ring order — the shared selection rule of the
/// planner's greedy pass and the executor's failover re-plan.
fn least_loaded(
    candidates: impl IntoIterator<Item = usize>,
    load: &FxHashMap<usize, usize>,
) -> Option<usize> {
    let cost = |n: usize| load.get(&n).copied().unwrap_or(0);
    let mut candidates = candidates.into_iter();
    let first = candidates.next()?;
    Some(candidates.fold(first, |pick, n| if cost(n) < cost(pick) { n } else { pick }))
}

/// Picks a serving node for every missing key under the configured
/// routing policy.
///
/// `FirstLive` sends each key to the head of its live replica set.
/// `Balanced` assigns greedily to the least-loaded live replica (ties
/// break toward ring order, so replication 1 degenerates to first-
/// live); because greedy assignment is order-sensitive it can — in
/// contrived replica-set overlaps — end up with a *taller* critical
/// path than first-live, so the result is compared against the
/// first-live assignment and the flatter of the two wins. Balanced
/// routing is therefore never worse than the reference policy on
/// `max_node_batch`.
fn route_keys(
    cluster: &Cluster,
    routing: ReadRouting,
    keys: &[Key],
) -> Result<Vec<usize>, CoreError> {
    if routing == ReadRouting::FirstLive {
        return keys
            .iter()
            .map(|key| cluster.owner_of(key).map_err(CoreError::from))
            .collect();
    }
    let candidates: Vec<Vec<usize>> = keys
        .iter()
        .map(|key| cluster.replicas_of(key).map_err(CoreError::from))
        .collect::<Result<_, _>>()?;
    let mut load: FxHashMap<usize, usize> = FxHashMap::default();
    let mut greedy = Vec::with_capacity(keys.len());
    for cands in &candidates {
        let pick = least_loaded(cands.iter().copied(), &load).expect("non-empty candidates");
        *load.entry(pick).or_insert(0) += 1;
        greedy.push(pick);
    }
    let greedy_max = load.values().copied().max().unwrap_or(0);
    let mut first_live_load: FxHashMap<usize, usize> = FxHashMap::default();
    for cands in &candidates {
        *first_live_load.entry(cands[0]).or_insert(0) += 1;
    }
    let first_live_max = first_live_load.values().copied().max().unwrap_or(0);
    if greedy_max > first_live_max {
        return Ok(candidates.into_iter().map(|c| c[0]).collect());
    }
    Ok(greedy)
}

/// Builds a [`QueryPlan`]: probe the cache per chunk, then group the
/// missed chunks' backend keys — one per chunk — by serving node under
/// the store's [`ReadRouting`] policy.
pub(crate) fn build_plan(
    cluster: &Cluster,
    cache: &ChunkCache,
    routing: ReadRouting,
    spec: QuerySpec,
    chunk_ids: Vec<u32>,
    pin: PinnedSnapshot,
) -> Result<QueryPlan, CoreError> {
    let mut resident = Vec::with_capacity(chunk_ids.len());
    let mut misses = Vec::new();
    for (slot, &c) in chunk_ids.iter().enumerate() {
        // The probe floor is the generation whose publish last
        // rewrote this chunk's map: an older cached entry is paired
        // with a map that may predate the pinned snapshot's.
        let cached = cache.get(c, pin.floor(c));
        if cached.is_none() {
            misses.push((slot, c));
        }
        resident.push(cached);
    }
    // With the cache disabled every chunk "misses", but reporting that
    // would be indistinguishable from a cold enabled cache; a disabled
    // cache reports zeros, matching `RStore::cache_stats()`.
    let (cache_hits, cache_misses) = if cache.enabled() {
        (chunk_ids.len() - misses.len(), misses.len())
    } else {
        (0, 0)
    };

    let keys: Vec<Key> = misses.iter().map(|&(_, c)| backend_key(c)).collect();
    let nodes = route_keys(cluster, routing, &keys)?;
    let mut by_node: FxHashMap<usize, NodeBatch> = FxHashMap::default();
    for ((m, key), node) in keys.into_iter().enumerate().zip(nodes) {
        NodeBatch::route(&mut by_node, node, m, key);
    }

    Ok(QueryPlan {
        spec,
        routing,
        chunk_ids,
        resident,
        misses,
        batches: NodeBatch::sorted(by_node),
        cache_hits,
        cache_misses,
        pin,
    })
}

/// Per-execution fetch accounting, carried into
/// [`QueryStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchMetrics {
    /// Compressed bytes transferred from the backend (misses only).
    pub bytes_fetched: usize,
    /// Chunks served from the decoded-chunk cache.
    pub cache_hits: usize,
    /// Chunks fetched from the backend.
    pub cache_misses: usize,
    /// Distinct nodes contacted by the scatter-gather fetch,
    /// including replicas contacted only by mid-query failover.
    pub nodes_contacted: usize,
    /// Keys in the largest per-node batch.
    pub max_node_batch: usize,
    /// Node-batch fetch failures the executor recovered from by
    /// re-routing the batch's keys to their next live replica.
    pub failovers: usize,
    /// In-place retries of transient backend refusals, healed by the
    /// cluster's retry policy *without* re-routing. Counted separately
    /// from `failovers`: a flaky node is retried where it is, a dead
    /// one is failed over.
    pub retries: usize,
    /// Keys re-routed to another replica mid-query — after their
    /// serving node failed, or after a replica turned out never to
    /// have stored them (it was down during the write).
    pub rerouted_keys: usize,
    /// Backup node batches issued by the hedging layer after a
    /// round's straggler exceeded the scoreboard-derived threshold.
    pub hedges: usize,
    /// Hedge batches that finished while a straggler they covered for
    /// was still unfinished — the duplicate work that paid off.
    pub hedge_wins: usize,
    /// Modeled network time: the max over parallel node batches
    /// (their sum under
    /// [`RStore::execute_serial`](crate::store::RStore::execute_serial));
    /// failover retry rounds serialize after the round that exposed
    /// the failure, so their max adds on top.
    pub modeled_network: Duration,
    /// Time spent queued in admission control before execution began
    /// (pooled executor only; the serial executor bypasses admission
    /// and reports zero).
    pub queue_wait: Duration,
}

/// The fetch stage's share of a query's stats; the caller fills in
/// what it alone knows (span, extraction, wall clock, generation).
impl From<FetchMetrics> for QueryStats {
    fn from(m: FetchMetrics) -> Self {
        QueryStats {
            bytes_fetched: m.bytes_fetched,
            cache_hits: m.cache_hits,
            cache_misses: m.cache_misses,
            nodes_contacted: m.nodes_contacted,
            max_node_batch: m.max_node_batch,
            failovers: m.failovers,
            rerouted_keys: m.rerouted_keys,
            retries: m.retries,
            hedges: m.hedges,
            hedge_wins: m.hedge_wins,
            queue_wait: m.queue_wait,
            modeled_network: m.modeled_network,
            ..QueryStats::default()
        }
    }
}

/// A missed chunk mid-flight: its blob is on its way from a node, its
/// map is already here.
struct PendingChunk {
    slot: usize,
    id: u32,
    /// The chunk's map in the plan's pinned snapshot — what the blob is
    /// paired with, whatever the writer has published since.
    map: Arc<ChunkMap>,
    /// First-delivery gate. With hedging a blob can arrive twice — once
    /// from the original batch and once from the backup; only the first
    /// delivery decodes, the loser's duplicate is dropped. Without
    /// hedging each chunk has a single server per round and the gate
    /// never contends.
    delivered: AtomicBool,
    decoded: OnceLock<Arc<DecodedChunk>>,
}

/// A chunk the current fetch round could not serve, queued for its next
/// live replica. `from` is the node that just failed (or answered
/// without the key); `cause` is the error to surface if the chunk runs
/// out of replicas. The backend key itself is not stored: it is a pure
/// function of the chunk id, rebuilt by [`backend_key`], so the happy
/// path never clones its key batches for the retry machinery's sake.
struct RetryKey {
    m: usize,
    from: usize,
    cause: CoreError,
}

/// The backend key of a chunk's blob (shared by the planner and the
/// retry and hedge re-plans).
fn backend_key(id: u32) -> Key {
    table_key(CHUNK_TABLE, &ChunkId(id).to_key())
}

fn record_err(first_err: &Mutex<Option<CoreError>>, e: CoreError) {
    let mut slot = first_err.lock().unwrap();
    if slot.is_none() {
        *slot = Some(e);
    }
}

/// Round bookkeeping for the *hedged* pooled executor (the unhedged
/// paths keep their plain [`WaitGroup`] barrier): counts the round's
/// outstanding jobs — originals plus any backups — and its
/// undelivered chunks. The executor waits for either to reach
/// zero: all jobs done is the ordinary barrier, while all chunks
/// delivered means the round is semantically complete even though a
/// hedged-away straggler still blocks on its slow node. The first
/// wait is timed, and its expiry is the hedge trigger.
struct RoundProgress {
    /// `(jobs_left, chunks_left)`.
    state: Mutex<(usize, usize)>,
    changed: Condvar,
}

/// Why a [`RoundProgress::wait`] returned.
enum RoundWait {
    /// Every job (original and backup) finished; the retry queue is
    /// settled and the next failover round can be planned.
    JobsDrained,
    /// Every chunk was delivered and decoded. Straggler jobs may
    /// still be in flight but nothing more is owed to this query.
    ChunksDelivered,
    /// The hedge delay elapsed with the round still unfinished.
    TimedOut,
}

impl RoundProgress {
    fn new(jobs: usize, chunks: usize) -> Self {
        Self {
            state: Mutex::new((jobs, chunks)),
            changed: Condvar::new(),
        }
    }

    /// Registers `n` backup jobs before they are submitted, so the
    /// round cannot drain between submission and first decrement.
    fn add_jobs(&self, n: usize) {
        self.state.lock().unwrap().0 += n;
    }

    fn job_done(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 -= 1;
        if s.0 == 0 {
            self.changed.notify_all();
        }
    }

    /// Records one chunk delivered *and* decoded — called by
    /// [`run_batch`] only after the decode, so `chunks_left == 0`
    /// implies every chunk of the round is ready.
    fn chunk_done(&self) {
        let mut s = self.state.lock().unwrap();
        s.1 -= 1;
        if s.1 == 0 {
            self.changed.notify_all();
        }
    }

    /// Blocks until the round drains or completes; with a timeout the
    /// first expiry reports [`RoundWait::TimedOut`] (the caller then
    /// hedges and re-waits without one).
    fn wait(&self, timeout: Option<Duration>) -> RoundWait {
        let mut s = self.state.lock().unwrap();
        loop {
            if s.1 == 0 {
                return RoundWait::ChunksDelivered;
            }
            if s.0 == 0 {
                return RoundWait::JobsDrained;
            }
            match timeout {
                None => s = self.changed.wait(s).unwrap(),
                Some(t) => {
                    let (guard, res) = self.changed.wait_timeout(s, t).unwrap();
                    s = guard;
                    if res.timed_out() && s.0 > 0 && s.1 > 0 {
                        return RoundWait::TimedOut;
                    }
                }
            }
        }
    }
}

/// Decrements its round's job count when dropped — even if the batch
/// job panicked mid-decode — mirroring [`RoundTicket`] for the hedged
/// round's progress tracker.
struct ProgressTicket(Arc<RoundProgress>);

impl Drop for ProgressTicket {
    fn drop(&mut self) {
        self.0.job_done();
    }
}

/// Resolves a requested thread count for a parallel stage: `0` means
/// "use every core" (the machine's available parallelism). Shared by
/// the read executor's decode fan-out and the ingest pipeline's
/// encode fan-out so both sides size themselves the same way.
pub(crate) fn worker_count(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Maps owned `items` to an output vector in input order, spreading
/// the work across `workers` scoped threads in contiguous shards. The
/// shared fan-out primitive behind parallel sub-chunk compression and
/// the ingest pipeline's independent chunk-map builds.
pub(crate) fn parallel_map_owned<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    // Below ~2 items per worker the spawn overhead wins.
    let workers = workers.max(1).min((n / 2).max(1));
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    let shard = n.div_ceil(workers);
    let mut shards: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut items = items.into_iter();
    for _ in 0..workers {
        shards.push(items.by_ref().take(shard).collect());
    }
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                let f = &f;
                scope.spawn(move || shard.into_iter().map(f).collect::<Vec<U>>())
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("parallel_map worker panicked"));
        }
    });
    out
}

/// Borrowed-item wrapper over [`parallel_map_owned`].
pub(crate) fn parallel_map<'a, T, U, F>(items: &'a [T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&'a T) -> U + Sync,
{
    parallel_map_owned(items.iter().collect(), workers, f)
}

/// Splits oversized node batches into sub-batches so spare executor
/// slots can decode concurrently when few nodes hold a large span
/// (the extreme: a single-node cluster would otherwise deserialize
/// every chunk on one executor thread). A node thread still serves
/// its sub-batches serially — per-node modeled time is summed across
/// them — but each reply's decode work lands on its own executor
/// slot, overlapping the node's remaining I/O.
///
/// `workers` is the parallelism actually available to this query:
/// the fetch pool's *currently free* slots — a wide query arriving
/// while the pool is busy serving other queries does not fan out as
/// if it owned every core, so it cannot starve concurrent queries'
/// decode parallelism.
fn split_for_decode(batches: Vec<NodeBatch>, workers: usize) -> Vec<NodeBatch> {
    /// Don't bother splitting below this many chunks per sub-batch:
    /// the extra round-trip bookkeeping would cost more than it buys.
    const MIN_SPLIT_CHUNKS: usize = 8;
    if batches.len() >= workers {
        return batches;
    }
    let total_keys: usize = batches.iter().map(NodeBatch::len).sum();
    let target = total_keys.div_ceil(workers).max(MIN_SPLIT_CHUNKS);
    let mut out = Vec::with_capacity(workers);
    for batch in batches {
        if batch.len() <= target {
            out.push(batch);
            continue;
        }
        // Balance the split so no sub-batch ends up as a tiny
        // remainder (which would pay the spawn without the win).
        let pieces = batch.len().div_ceil(target);
        let piece = batch.len().div_ceil(pieces);
        let NodeBatch {
            node,
            mut keys,
            mut misses,
        } = batch;
        while keys.len() > piece {
            out.push(NodeBatch {
                node,
                keys: keys.split_off(keys.len() - piece),
                misses: misses.split_off(misses.len() - piece),
            });
        }
        out.push(NodeBatch { node, keys, misses });
    }
    out
}

/// How a plan's fetch stage runs its node batches.
#[derive(Clone, Copy)]
pub(crate) enum ExecMode<'a> {
    /// One node batch after another on the calling thread, modeled
    /// network time summed over nodes: the reference walk the
    /// property tests oracle against.
    Serial,
    /// Batches submitted as jobs to the store's shared [`FetchPool`]
    /// and awaited behind a round barrier: fetch threads are bounded
    /// by the pool size no matter how many queries run concurrently.
    Pool(&'a FetchPool),
}

impl ExecMode<'_> {
    /// Whether modeled network time takes the parallel max over nodes
    /// or the serial sum.
    fn parallel(&self) -> bool {
        !matches!(self, ExecMode::Serial)
    }
}

/// Shared state of one fetch execution, behind an `Arc` so pooled
/// batch jobs (which outlive no borrow) and the serial walk run the
/// identical [`run_batch`] code. The per-round fields are
/// drained with `mem::take` at each round barrier — every job of the
/// round has finished by then, so the round loop reads settled
/// values.
struct FetchCtx {
    cluster: Arc<Cluster>,
    cache: Arc<ChunkCache>,
    /// Generation the plan's pin admitted — stamps every cache insert
    /// so later readers know how fresh the decoded chunk is.
    gen: u64,
    pending: Vec<PendingChunk>,
    bytes: AtomicUsize,
    retried: AtomicUsize,
    first_err: Mutex<Option<CoreError>>,
    /// Per-round modeled nanos per node (a node serves its
    /// sub-batches serially, so they sum within the node).
    node_modeled: Mutex<FxHashMap<usize, u64>>,
    /// Per-round keys stranded by a failed or short reply.
    retries: Mutex<Vec<RetryKey>>,
    /// Per-round nodes whose whole batch failed (down or gone).
    failed_nodes: Mutex<FxHashSet<usize>>,
    /// Hedge batches that finished while a straggler they covered for
    /// was still unfinished (always 0 with hedging off).
    hedge_wins: AtomicUsize,
    /// The store's metrics registry.
    obs: Arc<MetricsRegistry>,
    /// Trace sink for sampled queries; batch jobs add their spans on
    /// per-node lanes from whichever worker thread runs them.
    trace: Option<Arc<TraceSink>>,
}

/// Ships one node (sub-)batch, files stranded chunks for the failover
/// re-plan, and decodes every blob the reply delivered, pairing it with
/// the chunk's map from the pinned snapshot. Runs on the caller's
/// thread (serial) or a pool worker (pooled) — the failover semantics
/// live entirely in the data it records, not in who runs it.
/// `progress` is the hedged round's delivery tracker (`None` on the
/// unhedged paths): each first-delivered chunk is counted after its
/// decode, so the tracker hitting zero means the round's chunks are
/// all in hand.
fn run_batch(ctx: &FetchCtx, batch: NodeBatch, progress: Option<&RoundProgress>) {
    let NodeBatch { node, keys, misses } = batch;
    // Span bookkeeping only for sampled queries: the guard (and its
    // name allocation) exists only when a sink does, so the unsampled
    // path is untouched.
    let n_keys = keys.len();
    let _batch_span = crate::obs::span_opt(&ctx.trace, TID_NODE_BASE + node as u32, || {
        format!("batch node {node} ({n_keys} keys)")
    });
    let reply = match ctx.cluster.fetch_from(node, keys) {
        Ok(reply) => reply,
        // Down or gone: the node died between planning and fetch (or
        // mid-query). Transient: the cluster layer already retried in
        // place and gave up. Either way every chunk of the batch goes
        // to its next live replica instead of failing the whole query;
        // only a dead node is also excluded from later rounds — a flaky
        // one may be another chunk's only live replica, and each
        // chunk's tried-history keeps it from looping back.
        Err(e @ (KvError::NodeDown(_) | KvError::NodeGone(_) | KvError::Transient(_))) => {
            if !matches!(e, KvError::Transient(_)) {
                ctx.failed_nodes.lock().unwrap().insert(node);
            }
            ctx.retries.lock().unwrap().extend(misses.into_iter().map(|m| RetryKey {
                m,
                from: node,
                cause: CoreError::Kv(e.clone()),
            }));
            return;
        }
        Err(e) => {
            record_err(&ctx.first_err, e.into());
            return;
        }
    };
    ctx.retried.fetch_add(reply.retries, Ordering::Relaxed);
    let batch_bytes: usize = reply
        .values
        .iter()
        .map(|v| v.as_ref().map_or(0, |b| b.len()))
        .sum();
    ctx.bytes.fetch_add(batch_bytes, Ordering::Relaxed);
    *ctx.node_modeled.lock().unwrap().entry(node).or_insert(0) +=
        reply.modeled.as_nanos() as u64;
    for (m, blob) in misses.into_iter().zip(reply.values) {
        let p = &ctx.pending[m];
        let Some(blob) = blob else {
            // This replica never stored the key (e.g. it was down
            // during the write): try the next one before declaring
            // the chunk missing. If the *other* lane of a hedged pair
            // already delivered it, nothing is owed (the re-plan
            // re-checks the gate, so this early skip is only an
            // optimization, not the correctness guard).
            if !p.delivered.load(Ordering::Acquire) {
                ctx.retries.lock().unwrap().push(RetryKey {
                    m,
                    from: node,
                    cause: CoreError::MissingChunk(p.id),
                });
            }
            continue;
        };
        if p.delivered.swap(true, Ordering::AcqRel) {
            // Lost the first-answer-wins race (hedge vs original):
            // the chunk is already in hand, drop the duplicate.
            continue;
        }
        // Decode here, inside this batch's executor slot, overlapping
        // the other batches' I/O.
        {
            let _decode_span = crate::obs::span_opt(&ctx.trace, TID_NODE_BASE + node as u32, || {
                format!("decode C{}", p.id)
            });
            match Chunk::deserialize(&blob) {
                Ok(chunk) => {
                    let dc = Arc::new(DecodedChunk::new(chunk, ChunkMap::clone(&p.map)));
                    ctx.cache.insert(p.id, Arc::clone(&dc), ctx.gen);
                    let _ = p.decoded.set(dc);
                }
                Err(e) => record_err(&ctx.first_err, e),
            }
        }
        // Count the chunk only now — after its decode — so a zero
        // chunks-left reading implies every chunk of the round is
        // decoded, not merely delivered.
        if let Some(progress) = progress {
            progress.chunk_done();
        }
    }
}

/// One original batch of a hedged round, tracked so a hedge timeout
/// can target its undelivered chunks and a finished backup can tell
/// whether it beat the straggler.
struct InflightBatch {
    node: usize,
    misses: Vec<usize>,
    done: Arc<AtomicBool>,
}

/// Runs one pooled fetch round with hedging enabled: submits the
/// round's batches, waits up to the scoreboard-derived hedge delay,
/// issues at most one wave of backup batches for the stragglers'
/// unserved chunks (grouped by untried replica exactly like the
/// failover re-plan), and waits the round out. Returns `true` when
/// every chunk was delivered before the last job finished — the
/// round is semantically complete and the caller may stop fetching
/// while hedged-away stragglers are still blocked on their slow
/// nodes.
#[allow(clippy::too_many_arguments)]
fn run_round_hedged(
    pool: &FetchPool,
    ctx: &Arc<FetchCtx>,
    batches: Vec<NodeBatch>,
    cfg: HedgeConfig,
    excluded: &FxHashSet<usize>,
    tried: &FxHashMap<usize, Vec<usize>>,
    contacted: &mut FxHashSet<usize>,
    metrics: &mut FetchMetrics,
) -> bool {
    let chunks: usize = batches.iter().map(NodeBatch::len).sum();
    let progress = Arc::new(RoundProgress::new(batches.len(), chunks));
    // Hedge delay: `factor ×` the expected time of the round's
    // slowest batch under the scoreboard's per-key service EWMAs,
    // floored at `min` (a cold scoreboard has EWMA zero and hedges at
    // the floor).
    let mut expected = Duration::ZERO;
    for b in &batches {
        let per_key = ctx.cluster.node_service_ewma(b.node);
        expected = expected.max(per_key.saturating_mul(b.len() as u32));
    }
    let delay = expected.mul_f64(cfg.factor.max(0.0)).max(cfg.min);
    let round_entry = Instant::now();

    let mut inflight = Vec::with_capacity(batches.len());
    for batch in batches {
        let done = Arc::new(AtomicBool::new(false));
        inflight.push(InflightBatch {
            node: batch.node,
            misses: batch.misses.clone(),
            done: Arc::clone(&done),
        });
        let ctx = Arc::clone(ctx);
        let progress = Arc::clone(&progress);
        pool.submit(move || {
            let _ticket = ProgressTicket(Arc::clone(&progress));
            run_batch(&ctx, batch, Some(&progress));
            done.store(true, Ordering::Release);
        });
    }

    let mut timeout = Some(delay);
    loop {
        match progress.wait(timeout) {
            RoundWait::JobsDrained => return false,
            RoundWait::ChunksDelivered => return true,
            RoundWait::TimedOut => {
                // One hedge wave per round: subsequent waits are
                // untimed and simply see the round out.
                timeout = None;
                // The straggler outlived the hedge delay: the wait is
                // the tail time this round would have eaten unhedged.
                ctx.obs.observe(&ctx.obs.hedge_wait, delay);
                if let Some(t) = &ctx.trace {
                    t.add("hedge wait".into(), TID_QUERY, round_entry);
                }
                // Re-issue each unfinished batch's undelivered chunks
                // to the first untried live replica, grouped by
                // backup node. The replica filter mirrors the
                // failover re-plan (excluded nodes and each chunk's
                // tried-history are off the table), so a hedge never
                // lands where a retry would refuse to go; the
                // original's own node is skipped by construction.
                let mut by_node: FxHashMap<usize, NodeBatch> = FxHashMap::default();
                // Per backup node: the originals its batch covers for.
                let mut covers: FxHashMap<usize, Vec<Arc<AtomicBool>>> = FxHashMap::default();
                for orig in &inflight {
                    if orig.done.load(Ordering::Acquire) {
                        continue;
                    }
                    for &m in &orig.misses {
                        let p = &ctx.pending[m];
                        if p.delivered.load(Ordering::Acquire) {
                            continue;
                        }
                        let key = backend_key(p.id);
                        let hist = tried.get(&m);
                        let backup = ctx.cluster.replicas_of(&key).ok().and_then(|cands| {
                            cands.into_iter().find(|n| {
                                *n != orig.node
                                    && !excluded.contains(n)
                                    && hist.is_none_or(|h| !h.contains(n))
                            })
                        });
                        // No untried replica: nothing to hedge to,
                        // wait the straggler out.
                        let Some(node) = backup else {
                            continue;
                        };
                        NodeBatch::route(&mut by_node, node, m, key);
                        covers.entry(node).or_default().push(Arc::clone(&orig.done));
                    }
                }
                if by_node.is_empty() {
                    continue;
                }
                let hedges = NodeBatch::sorted(by_node);
                progress.add_jobs(hedges.len());
                metrics.hedges += hedges.len();
                if let Some(t) = &ctx.trace {
                    t.add(format!("hedge wave ({} batches)", hedges.len()), TID_QUERY, round_entry);
                }
                for hedge in hedges {
                    contacted.insert(hedge.node);
                    let origs = covers.remove(&hedge.node).unwrap_or_default();
                    let ctx = Arc::clone(ctx);
                    let progress = Arc::clone(&progress);
                    pool.submit(move || {
                        let _ticket = ProgressTicket(Arc::clone(&progress));
                        run_batch(&ctx, hedge, Some(&progress));
                        // A win: some straggler this backup covered
                        // for is still unfinished — the duplicate
                        // work actually cut the critical path.
                        if origs.iter().any(|d| !d.load(Ordering::Acquire)) {
                            ctx.hedge_wins.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            }
        }
    }
}

/// Runs a plan's fetch stage under the chosen [`ExecMode`] and
/// tail-defense [`ExecPolicy`] (hedging, pooled mode only, and a
/// fetch-stage deadline; the default policy has everything off). Both
/// executors share [`run_batch`] and the round loop below, so the
/// failover/retry semantics are mode-independent by construction: a
/// round's batches run to completion (serially, or behind the pool's
/// round barrier), then failed nodes are excluded and stranded keys
/// re-planned onto untried live replicas. The deadline accrues each
/// round's **max-over-nodes** modeled time in every mode — including
/// serial, whose *reported* modeled time stays the honest sum — so
/// the trip point is mode-independent.
pub(crate) fn execute_plan(
    cluster: &Arc<Cluster>,
    cache: &Arc<ChunkCache>,
    registry: &Arc<MetricsRegistry>,
    plan: QueryPlan,
    mode: ExecMode<'_>,
    policy: ExecPolicy,
) -> Result<ExecutedQuery, CoreError> {
    let QueryPlan {
        spec,
        routing,
        chunk_ids,
        mut resident,
        misses,
        batches,
        cache_hits,
        cache_misses,
        pin,
    } = plan;
    // `pin` stays bound to the end of this function: the snapshot
    // generation the plan was built against remains pinned (and its
    // backend keys un-reclaimed) until every fetch round is done.

    // `max_node_batch` is folded in per fetch round (a failover
    // retry can merge batches onto one surviving replica).
    let mut metrics = FetchMetrics {
        cache_hits,
        cache_misses,
        nodes_contacted: batches.len(),
        ..FetchMetrics::default()
    };

    if !misses.is_empty() {
        // A planned id the pinned generation has no slot for (only an
        // explicit `plan_chunks` can name one) is a missing chunk.
        let pending = misses
            .iter()
            .map(|&(slot, id)| {
                Ok(PendingChunk {
                    slot,
                    id,
                    map: Arc::clone(pin.chunk_map(id).ok_or(CoreError::MissingChunk(id))?),
                    delivered: AtomicBool::new(false),
                    decoded: OnceLock::new(),
                })
            })
            .collect::<Result<Vec<PendingChunk>, CoreError>>()?;
        let ctx = Arc::new(FetchCtx {
            cluster: Arc::clone(cluster),
            cache: Arc::clone(cache),
            gen: pin.generation(),
            pending,
            bytes: AtomicUsize::new(0),
            retried: AtomicUsize::new(0),
            first_err: Mutex::new(None),
            node_modeled: Mutex::new(FxHashMap::default()),
            retries: Mutex::new(Vec::new()),
            failed_nodes: Mutex::new(FxHashSet::default()),
            hedge_wins: AtomicUsize::new(0),
            obs: Arc::clone(registry),
            trace: policy.trace.clone(),
        });
        // Failover bookkeeping across retry rounds: nodes whose whole
        // batch failed are excluded from re-routing, and each chunk
        // remembers the replicas it already tried so a retry never
        // loops back. Both only grow, so the round loop terminates.
        let mut excluded: FxHashSet<usize> = FxHashSet::default();
        let mut tried: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        // Distinct nodes this query talked to, across *all* rounds:
        // a node serving both a primary batch and a later failover
        // batch counts once, so admission's load picture stays
        // honest.
        let mut contacted: FxHashSet<usize> = batches.iter().map(NodeBatch::node).collect();
        let mut modeled_nanos: u64 = 0;
        // The deadline's own accumulator: max-over-nodes per round in
        // *every* mode (serial included), so the budget trips at the
        // same point regardless of executor.
        let mut deadline_nanos: u64 = 0;
        let mut round_batches = batches;
        let mut round_idx = 0usize;

        while !round_batches.is_empty() {
            let round_t = Instant::now();
            // Round batches are grouped one-per-node, so a retry
            // round that merges several failed batches onto one
            // surviving replica raises the critical-path batch — keep
            // the reported max honest across rounds.
            metrics.max_node_batch = metrics
                .max_node_batch
                .max(round_batches.iter().map(NodeBatch::len).max().unwrap_or(0));
            // With spare executor slots and few nodes, split batches
            // so decode fans out beyond the node count. The pooled
            // executor sizes by the slots *currently free* — the pool
            // is shared, and this query is only entitled to what the
            // others left idle.
            let exec_batches = match mode {
                ExecMode::Serial => round_batches,
                ExecMode::Pool(pool) => split_for_decode(round_batches, pool.free_slots().max(1)),
            };

            // Scatter-gather accounting: a node serves its
            // (sub-)batches serially, so its modeled time is the sum
            // over them; nodes overlap, so the parallel query's
            // network bill is the slowest node, while the serial walk
            // pays all nodes in turn.
            let mut round_served_early = false;
            match mode {
                // Hedging claims the pooled path outright — even a
                // single-batch round goes through the pool, because
                // the query thread must stay free to time the
                // straggler and submit its backup.
                ExecMode::Pool(pool) if policy.hedge.is_some() => {
                    round_served_early = run_round_hedged(
                        pool,
                        &ctx,
                        exec_batches,
                        policy.hedge.unwrap_or_default(),
                        &excluded,
                        &tried,
                        &mut contacted,
                        &mut metrics,
                    );
                }
                ExecMode::Pool(pool) if exec_batches.len() > 1 => {
                    let barrier = Arc::new(WaitGroup::new(exec_batches.len()));
                    for batch in exec_batches {
                        let ctx = Arc::clone(&ctx);
                        let ticket = RoundTicket(Arc::clone(&barrier));
                        pool.submit(move || {
                            let _ticket = ticket;
                            run_batch(&ctx, batch, None);
                        });
                    }
                    barrier.wait();
                }
                // A single batch runs inline on the query's own
                // thread in every mode: no pool round trip.
                _ => {
                    for batch in exec_batches {
                        run_batch(&ctx, batch, None);
                    }
                }
            }

            // A retry round starts only after some batch of this round
            // came back failed, so rounds serialize: the round's
            // max-over-nodes (or serial sum) adds onto the total.
            // On an early (hedged) exit a straggler may still append
            // its contribution after this drain; that is correct to
            // drop — a hedged-away batch is off the critical path.
            let per_node = std::mem::take(&mut *ctx.node_modeled.lock().unwrap());
            let round_max = per_node.values().copied().max().unwrap_or(0);
            modeled_nanos += if mode.parallel() {
                round_max
            } else {
                per_node.values().copied().sum()
            };
            deadline_nanos += round_max;

            // Per-round observability: wall time of the round barrier,
            // the round's modeled straggler, and (when sampled) a
            // query-lane span bracketing the whole round.
            let r = &ctx.obs;
            r.rounds.inc();
            r.observe(&r.round_wall, round_t.elapsed());
            r.observe(&r.round_modeled, Duration::from_nanos(round_max));
            if let Some(t) = &ctx.trace {
                t.add(format!("round {round_idx}"), TID_QUERY, round_t);
            }
            round_idx += 1;

            let newly_failed = std::mem::take(&mut *ctx.failed_nodes.lock().unwrap());
            metrics.failovers += newly_failed.len();
            excluded.extend(newly_failed);

            if ctx.first_err.lock().unwrap().is_some() {
                break;
            }

            if let Some(budget) = policy.deadline {
                let spent = Duration::from_nanos(deadline_nanos);
                if spent > budget {
                    metrics.bytes_fetched = ctx.bytes.load(Ordering::Relaxed);
                    metrics.retries = ctx.retried.load(Ordering::Relaxed);
                    metrics.modeled_network = Duration::from_nanos(modeled_nanos);
                    metrics.nodes_contacted = contacted.len();
                    metrics.hedge_wins = ctx.hedge_wins.load(Ordering::Relaxed);
                    return Err(CoreError::DeadlineExceeded {
                        budget,
                        spent,
                        // The work done so far, so a timed-out
                        // query's cost is still accountable; the
                        // caller patches wall clock, queue wait and
                        // generation.
                        partial: Box::new(QueryStats {
                            chunks_fetched: chunk_ids.len(),
                            ..metrics.into()
                        }),
                    });
                }
            }

            // Every chunk of a hedged round delivered: stragglers
            // still in flight owe nothing and any retries they filed
            // are for chunks already in hand — stop fetching.
            if round_served_early {
                break;
            }

            // Re-plan every queued key against its untried live
            // replicas — under `FirstLive` the next one in ring
            // order, under `Balanced` the least-loaded of them, so a
            // dead node's hot-span keys spread over the survivors
            // instead of piling onto one. A key with no replica left
            // fails the query with the error that stranded it.
            let round_retries = std::mem::take(&mut *ctx.retries.lock().unwrap());
            let mut by_node: FxHashMap<usize, NodeBatch> = FxHashMap::default();
            let mut retry_load: FxHashMap<usize, usize> = FxHashMap::default();
            let mut replanned: FxHashSet<usize> = FxHashSet::default();
            for rk in round_retries {
                let hist = tried.entry(rk.m).or_default();
                hist.push(rk.from);
                // A hedged round can strand the same chunk from both
                // lanes, or strand one lane while the other
                // delivered: re-plan each chunk at most once, and only
                // while it is still undelivered. Both guards are
                // no-ops without hedging (one lane per chunk).
                if ctx.pending[rk.m].delivered.load(Ordering::Acquire) || !replanned.insert(rk.m) {
                    continue;
                }
                let key = backend_key(ctx.pending[rk.m].id);
                let next = ctx.cluster.replicas_of(&key).ok().and_then(|cands| {
                    let mut usable = cands
                        .into_iter()
                        .filter(|n| !excluded.contains(n) && !hist.contains(n));
                    match routing {
                        ReadRouting::FirstLive => usable.next(),
                        ReadRouting::Balanced => least_loaded(usable, &retry_load),
                    }
                });
                let Some(node) = next else {
                    record_err(&ctx.first_err, rk.cause);
                    continue;
                };
                *retry_load.entry(node).or_insert(0) += 1;
                metrics.rerouted_keys += 1;
                contacted.insert(node);
                NodeBatch::route(&mut by_node, node, rk.m, key);
            }
            if ctx.first_err.lock().unwrap().is_some() {
                break;
            }
            round_batches = NodeBatch::sorted(by_node);
        }

        if let Some(e) = ctx.first_err.lock().unwrap().take() {
            return Err(e);
        }
        metrics.bytes_fetched = ctx.bytes.load(Ordering::Relaxed);
        metrics.retries = ctx.retried.load(Ordering::Relaxed);
        metrics.modeled_network = Duration::from_nanos(modeled_nanos);
        metrics.nodes_contacted = contacted.len();
        metrics.hedge_wins = ctx.hedge_wins.load(Ordering::Relaxed);
        for p in &ctx.pending {
            // Cloning out of the `OnceLock` (instead of consuming the
            // context) keeps this correct even if a finished pool job
            // still holds its `Arc<FetchCtx>` clone for a moment.
            let Some(dc) = p.decoded.get().cloned() else {
                // Unreachable with a well-behaved backend (a short or
                // failed batch records an error above), but a logic
                // error must not panic the query path.
                return Err(CoreError::Codec(format!(
                    "chunk C{} incomplete after scatter-gather",
                    p.id
                )));
            };
            resident[p.slot] = Some(dc);
        }
    }

    let chunks = resident
        .into_iter()
        .map(|slot| slot.expect("planner covers every slot: hit or miss"))
        .collect();
    Ok(ExecutedQuery {
        spec,
        chunk_ids,
        chunks,
        metrics,
    })
}

/// A plan after its fetch stage: every spanned chunk decoded and in
/// planning order, plus the fetch accounting. Extraction has not
/// happened yet — iterate via [`ExecutedQuery::into_stream`].
#[derive(Debug)]
pub struct ExecutedQuery {
    spec: QuerySpec,
    chunk_ids: Vec<u32>,
    chunks: Vec<Arc<DecodedChunk>>,
    /// Fetch accounting for this execution.
    pub metrics: FetchMetrics,
}

impl ExecutedQuery {
    /// The decoded chunks, in planning order.
    pub fn chunks(&self) -> &[Arc<DecodedChunk>] {
        &self.chunks
    }

    /// The planned chunk ids, in planning order.
    pub fn chunk_ids(&self) -> &[u32] {
        &self.chunk_ids
    }

    /// Consumes the execution into the decoded chunks (recovery scan).
    pub fn into_chunks(self) -> Vec<Arc<DecodedChunk>> {
        self.chunks
    }

    /// Streams the query's records chunk by chunk.
    pub fn into_stream(self) -> RecordStream {
        RecordStream {
            spec: self.spec,
            metrics: self.metrics,
            chunks: self.chunks.into_iter(),
            buffer: Vec::new().into_iter(),
            chunks_useful: 0,
            records_yielded: 0,
            failed: false,
        }
    }
}

/// Streaming record extraction: each chunk's sub-chunks are
/// decompressed only when the consumer reaches that chunk, so early
/// termination never pays for the tail of the span. Records come out
/// grouped by chunk, in chunk-local order within each chunk.
#[derive(Debug)]
pub struct RecordStream {
    spec: QuerySpec,
    metrics: FetchMetrics,
    chunks: std::vec::IntoIter<Arc<DecodedChunk>>,
    buffer: std::vec::IntoIter<Record>,
    chunks_useful: usize,
    records_yielded: usize,
    failed: bool,
}

impl RecordStream {
    /// The fetch accounting of the execution behind this stream.
    pub fn metrics(&self) -> FetchMetrics {
        self.metrics
    }

    /// Chunks that contributed at least one record *so far*.
    pub fn chunks_useful(&self) -> usize {
        self.chunks_useful
    }

    /// Records yielded so far.
    pub fn records_yielded(&self) -> usize {
        self.records_yielded
    }

    /// Drains the remaining records into a vector (the materializing
    /// entry points), stopping at the first extraction error.
    pub fn drain(&mut self) -> Result<Vec<Record>, CoreError> {
        let mut out = Vec::new();
        for record in &mut *self {
            out.push(record?);
        }
        Ok(out)
    }
}

impl Iterator for RecordStream {
    type Item = Result<Record, CoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(record) = self.buffer.next() {
                self.records_yielded += 1;
                return Some(Ok(record));
            }
            let dc = self.chunks.next()?;
            match self.spec.extract(&dc) {
                Ok(records) => {
                    if !records.is_empty() {
                        self.chunks_useful += 1;
                        self.buffer = records.into_iter();
                    }
                }
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}
