//! Query planning and scatter-gather execution: the explicit
//! **plan → fetch → extract** pipeline behind every read, mirroring
//! how the paper's query server "issues queries in parallel to the
//! backend store" (§2.4) and assembles what comes back.
//!
//! 1. **Plan** — [`RStore::plan_query`](crate::store::RStore::plan_query)
//!    pins the current [`StoreSnapshot`](crate::store::StoreSnapshot),
//!    consults its two lossy projections *once* to resolve the
//!    query's span, probes the decoded-chunk cache, and groups the
//!    missed chunks by serving node — **one backend key per missed
//!    chunk**, the bill of the paper's Table 1 ([`cost`](crate::cost)).
//!    Each key goes to the least-loaded live member of its replica set
//!    (`route_keys`; at replication 1 that is `Cluster::owner_of`).
//!    The result is a [`QueryPlan`]: an inspectable description of
//!    exactly what will be fetched from where.
//! 2. **Fetch and extract** — [`RStore::execute`](crate::store::RStore::execute)
//!    runs the plan in *rounds*, and there is one round loop
//!    (`execute_plan`). A round's node batches each run `run_batch`
//!    — ship the keys, decode every blob the reply delivered, pair it
//!    with the chunk's map **from the pinned snapshot** (chunk maps are
//!    never fetched: every generation publishes them decoded, and a
//!    reader pinned at generation `g` extracts with `g`'s maps even
//!    after a compaction retired the chunk), build the query's records
//!    from it with `QuerySpec::extract` (a sub-chunk that does not
//!    decode fails the query, and its chunk is never cached), admit the
//!    pair to the cache — and *return* one `BatchOutcome`: the node,
//!    its modeled nanos, bytes, in-place retries, the chunks it served
//!    with their records, the keys the node left stranded, whether the
//!    node failed, the first hard error. A chunk fetch
//!    ([`RStore::plan_chunks`](crate::store::RStore::plan_chunks): the
//!    recovery scan, compaction's extraction) builds no records.
//!    A pooled round submits exactly its node batches, one job each,
//!    to the store's shared fetch pool ([`serve`](crate::serve)); they
//!    send their outcome over an `mpsc` channel. A lone batch runs on
//!    the query thread and hands its outcome over directly. The query
//!    thread is the only mutator of round state: it folds outcomes
//!    into the [`QueryStats`], the failover bookkeeping and the
//!    stranded-key queue, then hands the stranded keys to `replan` —
//!    the one re-plan, onto untried live replicas — as the next round.
//!    While a round's jobs run on the pool, it extracts the query's
//!    records from the plan's cache hits — except in a hedged round,
//!    where it must stay free to time the straggler; the hits no round
//!    reached are extracted after the rounds. A hit that does not
//!    decode (a chunk fetch, which decodes no sub-chunk, can have
//!    cached it) fails the query and is evicted.
//!
//!    **The channel is the barrier.** The query thread drops its
//!    `Sender` once nothing more will be submitted, so the receive
//!    ends when the last job has reported — or *disconnects* when a
//!    job panicked and dropped its clone unsent, which ends the round
//!    one outcome short (a clean "incomplete" error) instead of
//!    hanging it. **Hedging is a timed receive** on that same loop:
//!    the hedge deadline is computed once per round, and at its expiry
//!    the undelivered chunks of every unreported batch are stranded
//!    from their node and re-planned like a failover — one wave of
//!    backup batches, just more senders. A backup *wins* when it
//!    serves a chunk first, and the round is served as soon as the
//!    served-chunk count reaches the round's total, stragglers or
//!    not. **The serial oracle**
//!    ([`RStore::execute_serial`](crate::store::RStore::execute_serial),
//!    what the property tests compare against) is the same loop with
//!    no pool: every batch runs on the query thread, one node after
//!    another.
//!
//!    The only cell two threads share is each pending chunk's
//!    `delivered` gate: with hedging, a backup and its straggler can
//!    race to deliver one chunk, the first decodes it and the loser
//!    drops its duplicate. The served chunk travels in the winner's
//!    outcome.
//!
//!    Modeled network time is the **max over a round's nodes**
//!    (their sum with no pool); rounds serialize, so they add. A node
//!    that fails mid-query does not fail the query: only a key with no
//!    live replica left surfaces the error that stranded it.
//! 3. **Stream** — [`RecordStream`] hands out the records `execute`
//!    built, chunk by chunk in planning order. Every error has
//!    surfaced by then, so the stream never yields one.

use crate::cache::{ChunkCache, DecodedChunk};
use crate::chunk::Chunk;
use crate::chunkmap::ChunkMap;
use crate::error::CoreError;
use crate::model::{ChunkId, PrimaryKey, Record, VersionId};
use crate::obs::{MetricsRegistry, TraceSink, TID_NODE_BASE, TID_QUERY};
use crate::query::{self, QueryStats};
use crate::serve::FetchPool;
use crate::store::{PinnedSnapshot, CHUNK_TABLE};
use rstore_kvstore::{table_key, Cluster, Key, KvError};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// The one extraction rule: this query's records in one decoded
    /// chunk, in chunk-local order. Only the sub-chunks holding them
    /// are decompressed.
    pub(crate) fn extract(&self, dc: &DecodedChunk) -> Result<Vec<Record>, CoreError> {
        // A version the chunk map does not know selects nothing.
        let members = |v| dc.map.iter_locals(v).into_iter().flatten();
        let (chunk, keys) = (&dc.chunk, dc.local_keys());
        match *self {
            QuerySpec::Version(v) => query::extract_version_records(chunk, &dc.map, v),
            QuerySpec::Record { pk, v } => {
                query::extract_from_iter(chunk, members(v).filter(|&l| keys[l].pk == pk))
            }
            QuerySpec::Range { lo, hi, v } => query::extract_from_iter(
                chunk,
                members(v).filter(|&l| (lo..=hi).contains(&keys[l].pk)),
            ),
            QuerySpec::Evolution { pk } => {
                query::extract_from_iter(chunk, (0..keys.len()).filter(|&l| keys[l].pk == pk))
            }
            QuerySpec::Scan => query::extract_all(chunk),
        }
    }
}

/// Tunables for hedged node batches: when a fetch round's straggler
/// outlives `factor ×` the expected time of the round's slowest batch
/// (the node's per-key service EWMA × batch length, floored at `min`
/// so an unscored node still hedges eventually),
/// the unserved keys are re-issued to untried live replicas as backup
/// pool jobs and the first answer wins. Off by default
/// ([`StoreConfig::hedge`](crate::store::StoreConfig::hedge) is
/// `None`); hedging never changes answer bytes, only who serves them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Multiple of the expected batch time a straggler must exceed
    /// before backups are issued.
    pub factor: f64,
    /// Floor for the hedge delay, guarding against an unscored node
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

/// Per-execution tail-defense policy. Both knobs default to off;
/// hedging additionally requires a pool (the serial oracle has no
/// backup lane to run a hedge on, and its answers must stay
/// byte-identical regardless).
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecPolicy {
    /// Hedge straggler node batches (ignored without a pool).
    pub(crate) hedge: Option<HedgeConfig>,
    /// Time budget: accrued modeled fetch time (max over each round's
    /// node batches, with or without a pool) plus any
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
    /// A chunk fetch ([`RStore::plan_chunks`](crate::store::RStore::plan_chunks)):
    /// the chunks are decoded and cached, and no record is built.
    fetch_only: bool,
    /// The query's span in planning order (slot i holds chunk_ids[i]).
    chunk_ids: Vec<u32>,
    /// Slot-aligned cache hits (`None` = must be fetched).
    resident: Vec<Option<Arc<DecodedChunk>>>,
    /// `(slot, chunk id)` of every chunk that must come from the
    /// backend, in planning order.
    misses: Vec<(usize, u32)>,
    /// The missed chunks' backend keys grouped by serving node,
    /// sorted by node.
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

/// Picks a serving node for every missing key: the least-loaded live
/// member of its replica set (load = keys already planned onto that
/// node for this query; ties break toward ring order), so a hot
/// span's node batches spread across `replication` copies instead of
/// piling onto the first and the max-over-nodes modeled time shrinks.
///
/// Greedy assignment is order-sensitive and can — in contrived
/// replica-set overlaps — end up with a *taller* critical path than
/// sending every key to its first live replica, so the result is
/// compared against that assignment and the flatter of the two wins.
fn route_keys(cluster: &Cluster, keys: &[Key]) -> Result<Vec<usize>, CoreError> {
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
/// missed chunks' backend keys — one per chunk — by serving node.
pub(crate) fn build_plan(
    cluster: &Cluster,
    cache: &ChunkCache,
    spec: QuerySpec,
    fetch_only: bool,
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
    let nodes = route_keys(cluster, &keys)?;
    let mut by_node: FxHashMap<usize, NodeBatch> = FxHashMap::default();
    for ((m, key), node) in keys.into_iter().enumerate().zip(nodes) {
        NodeBatch::route(&mut by_node, node, m, key);
    }

    Ok(QueryPlan {
        spec,
        fetch_only,
        chunk_ids,
        resident,
        misses,
        batches: NodeBatch::sorted(by_node),
        cache_hits,
        cache_misses,
        pin,
    })
}

/// A missed chunk mid-flight: its blob is on its way from a node, its
/// map is already here.
struct PendingChunk {
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
}

/// A chunk the fetch stage is done with: decoded, paired with its map,
/// and the query's records built from it (none for a chunk fetch).
type Served = (Arc<DecodedChunk>, Vec<Record>);

/// A chunk the current fetch round could not serve, queued for its next
/// live replica. `from` is the node that just failed (or answered
/// without the key, or outlived the hedge deadline); `cause` is the
/// error to surface if a failover finds the chunk out of replicas. The backend key itself is not stored: it is a pure
/// function of the chunk id, rebuilt by [`backend_key`], so the happy
/// path never clones its key batches for the retry machinery's sake.
struct RetryKey {
    m: usize,
    from: usize,
    cause: CoreError,
}

/// The backend key of a chunk's blob (shared by the planner, the
/// retry and hedge re-plans, and the generation writer).
pub(crate) fn backend_key(id: u32) -> Key {
    table_key(CHUNK_TABLE, &ChunkId(id).to_key())
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
pub(crate) fn parallel_map<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
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

/// What every batch of one fetch execution reads, behind an `Arc` so
/// pool jobs (which outlive no borrow) and batches run on the query
/// thread share the one [`run_batch`]. Nothing here is written after
/// construction except each chunk's `delivered` gate; whatever else a
/// batch has to say travels in its [`BatchOutcome`].
struct FetchCtx {
    cluster: Arc<Cluster>,
    cache: Arc<ChunkCache>,
    /// The query whose records a batch builds as its blobs land;
    /// `None` for a chunk fetch.
    extract: Option<QuerySpec>,
    /// Generation the plan's pin admitted — stamps every cache insert
    /// so later readers know how fresh the decoded chunk is.
    gen: u64,
    pending: Vec<PendingChunk>,
    /// Trace sink for sampled queries; batches add their spans on
    /// per-node lanes from whichever thread runs them.
    trace: Option<Arc<TraceSink>>,
}

/// What one node batch reports to the query thread — by return
/// value when it ran there, over the round's channel when a pool
/// worker ran it.
#[derive(Default)]
struct BatchOutcome {
    /// Submission ordinal within the round: the originals in batch
    /// order, then the hedge wave's backups.
    seq: usize,
    node: usize,
    /// Modeled network nanos of the reply (0 when the node refused).
    modeled: u64,
    /// Compressed bytes the reply carried.
    bytes: usize,
    /// Transient refusals the cluster healed in place.
    retries: usize,
    /// The chunks this batch was first to deliver, served, each with
    /// its miss ordinal.
    served: Vec<(usize, Served)>,
    /// Chunks the node did not serve, for the failover re-plan.
    stranded: Vec<RetryKey>,
    /// The whole batch failed on a node that is down or gone.
    node_failed: bool,
    /// First error no other replica can heal: a blob that does not
    /// decode, a backend error other than an unavailable node.
    err: Option<CoreError>,
}

/// Ships one node batch and decodes every blob the reply
/// delivered, pairing it with the chunk's map from the pinned
/// snapshot, and builds the query's records from it. Runs on the
/// query thread or a pool worker — the failover
/// semantics live entirely in the outcome it returns, not in who runs
/// it.
fn run_batch(ctx: &FetchCtx, seq: usize, batch: NodeBatch) -> BatchOutcome {
    let NodeBatch { node, keys, misses } = batch;
    let mut out = BatchOutcome {
        seq,
        node,
        ..BatchOutcome::default()
    };
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
            out.node_failed = !matches!(e, KvError::Transient(_));
            out.stranded = misses
                .into_iter()
                .map(|m| RetryKey {
                    m,
                    from: node,
                    cause: CoreError::Kv(e.clone()),
                })
                .collect();
            return out;
        }
        Err(e) => {
            out.err = Some(e.into());
            return out;
        }
    };
    out.retries = reply.retries;
    out.modeled = reply.modeled.as_nanos() as u64;
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
                out.stranded.push(RetryKey {
                    m,
                    from: node,
                    cause: CoreError::MissingChunk(p.id),
                });
            }
            continue;
        };
        out.bytes += blob.len();
        if p.delivered.swap(true, Ordering::AcqRel) {
            // Lost the first-answer-wins race (hedge vs original):
            // the chunk is already in hand, drop the duplicate.
            continue;
        }
        // Decode and extract here, on whichever thread the blob
        // arrived on, overlapping the other batches' I/O. A chunk that
        // fails either step is never cached.
        let _decode_span = crate::obs::span_opt(&ctx.trace, TID_NODE_BASE + node as u32, || {
            format!("decode C{}", p.id)
        });
        let served = Chunk::from_blob(&blob).and_then(|chunk| {
            let dc = Arc::new(DecodedChunk::new(chunk, ChunkMap::clone(&p.map)));
            let records = ctx.extract.map(|spec| spec.extract(&dc)).transpose()?;
            Ok((dc, records.unwrap_or_default()))
        });
        match served {
            Ok((dc, records)) => {
                ctx.cache.insert(p.id, Arc::clone(&dc), ctx.gen);
                out.served.push((m, (dc, records)));
            }
            Err(e) => {
                out.err.get_or_insert(e);
            }
        }
    }
    out
}

/// The one re-plan, shared by failover and hedging. Every stranded key
/// first records the node it came `from` in its chunk's tried-history;
/// then each chunk still undelivered — once, however many lanes
/// stranded it — goes to the least-loaded of its live replicas that is
/// neither excluded nor tried, so a dead node's hot-span keys spread
/// over the survivors instead of piling onto one. Returns the new
/// batches in node order and the keys no replica is left for; what
/// those mean is the caller's to say (failover fails the query, a
/// hedge waits its straggler out).
fn replan(
    ctx: &FetchCtx,
    stranded: Vec<RetryKey>,
    excluded: &FxHashSet<usize>,
    tried: &mut FxHashMap<usize, Vec<usize>>,
) -> (Vec<NodeBatch>, Vec<RetryKey>) {
    for rk in &stranded {
        tried.entry(rk.m).or_default().push(rk.from);
    }
    let mut by_node: FxHashMap<usize, NodeBatch> = FxHashMap::default();
    let mut load: FxHashMap<usize, usize> = FxHashMap::default();
    let mut replanned: FxHashSet<usize> = FxHashSet::default();
    let mut orphans = Vec::new();
    for rk in stranded {
        // A hedged round can strand the same chunk from both lanes, or
        // strand one lane while the other delivered. Both guards are
        // no-ops for a failover without hedging (one lane per chunk).
        let p = &ctx.pending[rk.m];
        if p.delivered.load(Ordering::Acquire) || !replanned.insert(rk.m) {
            continue;
        }
        let key = backend_key(p.id);
        let hist = &tried[&rk.m];
        let next = ctx.cluster.replicas_of(&key).ok().and_then(|cands| {
            let usable = cands
                .into_iter()
                .filter(|n| !excluded.contains(n) && !hist.contains(n));
            least_loaded(usable, &load)
        });
        match next {
            Some(node) => {
                *load.entry(node).or_insert(0) += 1;
                NodeBatch::route(&mut by_node, node, rk.m, key);
            }
            None => orphans.push(rk),
        }
    }
    (NodeBatch::sorted(by_node), orphans)
}

/// Why a round's wait came back without an outcome.
enum Idle {
    /// The hedge deadline passed with batches still unreported.
    HedgeDue,
    /// Nothing more will report: every inline batch has run, or the
    /// last job dropped its sender.
    Drained,
}

/// The soonest a hedge wave follows the submission of its round's
/// originals, whatever the configured delay. A timed receive whose
/// deadline has already passed returns without parking, so under a
/// zero delay a batch that fails at once (its node is down) could
/// never report before the wave and would be hedged like a straggler
/// instead of failed over; one real park lets it.
const HEDGE_PARK: Duration = Duration::from_micros(50);

/// Runs a plan's fetch stage: with a pool, a round's node batches are
/// its jobs, one each (fetch threads stay bounded by the pool size
/// however many queries run), and modeled network time is the max over
/// nodes; with none — the serial oracle — they run one after another on
/// this thread and modeled time sums. Either way this is the only loop:
/// batches report [`BatchOutcome`]s, this thread folds them into one
/// [`QueryStats`], failed nodes are excluded and stranded keys
/// re-planned onto untried live replicas as the next round. `policy`
/// adds hedging (needs the pool) and a fetch-stage deadline, which
/// accrues each round's **max-over-nodes** modeled time with or without
/// a pool — the serial walk's *reported* time stays the honest sum — so
/// it trips at the same point either way.
pub(crate) fn execute_plan(
    cluster: &Arc<Cluster>,
    cache: &Arc<ChunkCache>,
    registry: &MetricsRegistry,
    plan: QueryPlan,
    pool: Option<&FetchPool>,
    policy: ExecPolicy,
) -> Result<ExecutedQuery, CoreError> {
    let QueryPlan {
        spec,
        fetch_only,
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

    let mut metrics = QueryStats {
        generation: pin.generation(),
        chunks_fetched: chunk_ids.len(),
        cache_hits,
        cache_misses,
        ..QueryStats::default()
    };
    let extract = (!fetch_only).then_some(spec);
    // Slot-aligned: each chunk's records. A cache hit's are built on
    // this thread, a miss's where its blob landed (`served`, by miss
    // ordinal).
    let mut records: Vec<Vec<Record>> = chunk_ids.iter().map(|_| Vec::new()).collect();
    let mut served: Vec<Option<Served>> = misses.iter().map(|_| None).collect();
    let mut hits = chunk_ids
        .iter()
        .zip(&resident)
        .enumerate()
        .filter_map(|(slot, (&id, hit))| Some((slot, id, hit.as_ref()?)));

    if !misses.is_empty() {
        // A planned id the pinned generation has no slot for (only an
        // explicit `plan_chunks` can name one) is a missing chunk.
        let pending = misses
            .iter()
            .map(|&(_, id)| {
                Ok(PendingChunk {
                    id,
                    map: Arc::clone(pin.chunk_map(id).ok_or(CoreError::MissingChunk(id))?),
                    delivered: AtomicBool::new(false),
                })
            })
            .collect::<Result<Vec<PendingChunk>, CoreError>>()?;
        let ctx = Arc::new(FetchCtx {
            cluster: Arc::clone(cluster),
            cache: Arc::clone(cache),
            extract,
            gen: pin.generation(),
            pending,
            trace: policy.trace.clone(),
        });
        let hedge = pool.and(policy.hedge);
        // Failover bookkeeping across rounds: nodes whose whole batch
        // failed are excluded from re-routing, and each chunk
        // remembers the replicas it already tried so a retry never
        // loops back. Both only grow, so the round loop terminates.
        let mut excluded: FxHashSet<usize> = FxHashSet::default();
        let mut tried: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        // Distinct nodes this query talked to, across *all* rounds:
        // a node serving both a primary batch and a later failover
        // batch counts once, so admission's load picture stays
        // honest.
        let mut contacted: FxHashSet<usize> = batches.iter().map(NodeBatch::node).collect();
        // The deadline's own accumulator: max-over-nodes per round
        // with or without a pool, so the budget trips at the same
        // point.
        let mut deadline_nanos: u64 = 0;
        let mut tripped = None;
        let mut first_err: Option<CoreError> = None;
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
            let round_chunks: usize = round_batches.iter().map(NodeBatch::len).sum();
            // The hedge deadline, fixed once per round: `factor ×` the
            // expected time of the round's slowest batch under the
            // nodes' per-key service EWMAs, floored at `min` (an
            // unscored node has EWMA zero and hedges at the floor).
            let hedge_at = hedge.map(|cfg| {
                let expected = round_batches
                    .iter()
                    .map(|b| cluster.node_service_ewma(b.node).saturating_mul(b.len() as u32))
                    .max()
                    .unwrap_or_default();
                round_t + expected.mul_f64(cfg.factor.max(0.0)).max(cfg.min)
            });
            // What a hedge wave backs up: each original batch's node
            // and chunks, by `seq`, until it reports (empty unhedged:
            // nothing reads it). Outcomes past the originals are
            // backups.
            let mut unreported: Vec<Option<(usize, Vec<usize>)>> = Vec::new();
            if hedge.is_some() {
                unreported.extend(
                    round_batches
                        .iter()
                        .map(|b| Some((b.node, b.misses.clone()))),
                );
            }
            let originals = round_batches.len();

            // A single unhedged batch runs on this thread even with a
            // pool (no round trip through the run queue); a hedged one
            // never does, because this thread must stay free to time
            // the straggler and submit its backup.
            let mut submitted = originals;
            let (inline, rx, mut backup) = match pool.filter(|_| hedge.is_some() || submitted > 1) {
                None => (round_batches, None, None),
                Some(pool) => {
                    let (tx, rx) = mpsc::channel();
                    for (seq, batch) in round_batches.into_iter().enumerate() {
                        let (ctx, tx) = (Arc::clone(&ctx), tx.clone());
                        pool.submit(move || {
                            let _ = tx.send(run_batch(&ctx, seq, batch));
                        });
                    }
                    // This thread's sender survives only while a hedge
                    // wave may still be submitted — it lives and dies
                    // with the hedge deadline; after that the receive
                    // disconnects once the last job is gone, reported
                    // or panicked.
                    let backup = hedge_at.map(|at| (at.max(Instant::now() + HEDGE_PARK), tx));
                    (Vec::new(), Some(rx), backup)
                }
            };
            // While the pool fetches, this thread extracts the plan's
            // cache hits (the first pooled round drains `hits`). A
            // hedged round leaves them for after the rounds: this
            // thread must stay free to time the straggler.
            if rx.is_some() && hedge.is_none() {
                if let Err(e) = extract_hits(extract, &mut hits, cache, &mut records, &ctx.trace) {
                    first_err.get_or_insert(e);
                }
            }
            let mut inline = inline.into_iter().enumerate();
            // The round's next outcome from whichever source it has:
            // the next inline batch, run now, or the channel — waited
            // on until the hedge deadline while a wave is still owed.
            let mut next_outcome = |hedge_due: Option<Instant>| match (&rx, hedge_due) {
                (None, _) => inline
                    .next()
                    .map(|(seq, batch)| run_batch(&ctx, seq, batch))
                    .ok_or(Idle::Drained),
                (Some(rx), None) => rx.recv().map_err(|_| Idle::Drained),
                (Some(rx), Some(at)) => {
                    let wait = at.saturating_duration_since(Instant::now());
                    rx.recv_timeout(wait).map_err(|e| match e {
                        RecvTimeoutError::Timeout => Idle::HedgeDue,
                        RecvTimeoutError::Disconnected => Idle::Drained,
                    })
                }
            };

            // Scatter-gather accounting: a node's batches add up (a
            // hedged round can send one node an original and a
            // backup), and nodes overlap, so a pooled round's network
            // bill is the slowest node, while the serial walk pays all
            // nodes in turn. A straggler hedged away never reports and
            // is never billed — it is off the critical path.
            let mut per_node: FxHashMap<usize, u64> = FxHashMap::default();
            let mut stranded: Vec<RetryKey> = Vec::new();
            let mut failed: Vec<usize> = Vec::new();
            let (mut reported, mut done) = (0usize, 0usize);
            // A round ends when every batch has reported, or sooner
            // when every chunk is served: stragglers still in flight
            // owe this query nothing.
            while reported < submitted && done < round_chunks {
                let o = match next_outcome(backup.as_ref().map(|(at, _)| *at)) {
                    Ok(outcome) => outcome,
                    Err(Idle::Drained) => break,
                    // The stragglers outlived the hedge deadline: one
                    // wave of backups per round, just more jobs
                    // reporting on the same channel. Every unreported
                    // original's chunks are stranded from its node and
                    // re-planned like a failover; a chunk with no
                    // replica left waits for its straggler.
                    Err(Idle::HedgeDue) => {
                        let (Some((at, tx)), Some(pool)) = (backup.take(), pool) else {
                            continue;
                        };
                        let late = unreported.iter().flatten().flat_map(|(node, misses)| {
                            misses.iter().map(|&m| RetryKey {
                                m,
                                from: *node,
                                cause: CoreError::MissingChunk(ctx.pending[m].id),
                            })
                        });
                        let (wave, _) = replan(&ctx, late.collect(), &excluded, &mut tried);
                        // The wait is the tail time this round would
                        // have eaten unhedged.
                        registry.observe(&registry.hedge_wait, at - round_t);
                        if let Some(t) = &ctx.trace {
                            t.add("hedge wait".into(), TID_QUERY, round_t);
                            if !wave.is_empty() {
                                t.add(format!("hedge wave ({} batches)", wave.len()), TID_QUERY, round_t);
                            }
                        }
                        metrics.hedges += wave.len();
                        for batch in wave {
                            contacted.insert(batch.node);
                            let (ctx, tx, seq) = (Arc::clone(&ctx), tx.clone(), submitted);
                            submitted += 1;
                            pool.submit(move || {
                                let _ = tx.send(run_batch(&ctx, seq, batch));
                            });
                        }
                        continue;
                    }
                };
                reported += 1;
                done += o.served.len();
                // A backup wins when it served a chunk before its
                // straggler delivered it: the duplicate work cut the
                // critical path.
                metrics.hedge_wins += usize::from(o.seq >= originals && !o.served.is_empty());
                for (m, chunk) in o.served {
                    served[m] = Some(chunk);
                }
                *per_node.entry(o.node).or_insert(0) += o.modeled;
                metrics.bytes_fetched += o.bytes;
                metrics.retries += o.retries;
                stranded.extend(o.stranded);
                if o.node_failed {
                    failed.push(o.node);
                }
                if let Some(e) = o.err {
                    first_err.get_or_insert(e);
                }
                if let Some(lane) = unreported.get_mut(o.seq) {
                    *lane = None;
                }
            }
            // Nodes whose whole batch failed are out from the next
            // round on (the hedge wave above still saw the round-start
            // set), each counted once.
            for node in failed {
                if excluded.insert(node) {
                    metrics.failovers += 1;
                }
            }

            // A retry round starts only after some batch of this round
            // came back short, so rounds serialize: the round's
            // max-over-nodes (or serial sum) adds onto the total.
            let round_max = per_node.values().copied().max().unwrap_or(0);
            let round_bill = if pool.is_some() {
                round_max
            } else {
                per_node.values().sum()
            };
            metrics.modeled_network += Duration::from_nanos(round_bill);
            deadline_nanos += round_max;

            // Per-round observability: wall time of the round, its
            // modeled straggler, and (when sampled) a query-lane span
            // bracketing the whole round.
            registry.rounds.inc();
            registry.observe(&registry.round_wall, round_t.elapsed());
            registry.observe(&registry.round_modeled, Duration::from_nanos(round_max));
            if let Some(t) = &ctx.trace {
                t.add(format!("round {round_idx}"), TID_QUERY, round_t);
            }
            round_idx += 1;

            if first_err.is_some() {
                break;
            }
            if let Some(budget) = policy.deadline {
                let spent = Duration::from_nanos(deadline_nanos);
                if spent > budget {
                    tripped = Some((budget, spent));
                    break;
                }
            }
            if done == round_chunks {
                break;
            }

            // Failover: a stranded key with no replica left fails the
            // query with the error that stranded it.
            let (batches, orphans) = replan(&ctx, stranded, &excluded, &mut tried);
            if let Some(rk) = orphans.into_iter().next() {
                first_err = Some(rk.cause);
                break;
            }
            metrics.rerouted_keys += batches.iter().map(NodeBatch::len).sum::<usize>();
            contacted.extend(batches.iter().map(NodeBatch::node));
            round_batches = batches;
        }

        metrics.nodes_contacted = contacted.len();
        if let Some(e) = first_err {
            return Err(e);
        }
        if let Some((budget, spent)) = tripped {
            return Err(CoreError::DeadlineExceeded {
                budget,
                spent,
                // The work done so far, so a timed-out query's cost is
                // still accountable; the caller patches wall clock and
                // queue wait.
                partial: Box::new(metrics),
            });
        }
    }
    // The hits no pooled round reached: all of them in a hedged or
    // inline-only execution, or one with nothing to fetch.
    extract_hits(extract, &mut hits, cache, &mut records, &policy.trace)?;
    for (&(slot, id), chunk) in misses.iter().zip(served) {
        // A batch that never reported (its job panicked) — a logic
        // error must not panic the query path.
        let Some((dc, chunk_records)) = chunk else {
            return Err(CoreError::Codec(format!(
                "chunk C{id} incomplete after scatter-gather"
            )));
        };
        resident[slot] = Some(dc);
        records[slot] = chunk_records;
    }

    let chunks = resident
        .into_iter()
        .map(|slot| slot.expect("planner covers every slot: hit or miss"))
        .collect();
    Ok(ExecutedQuery {
        chunks,
        records,
        metrics,
    })
}

/// Builds the query's records from `hits` (slot, id, chunk) into their
/// slots of `records`, stopping at the first hit that does not decode:
/// it is evicted — the next query refetches it — and fails the query.
/// A chunk fetch (`extract` is `None`) builds nothing.
fn extract_hits<'a>(
    extract: Option<QuerySpec>,
    hits: &mut impl Iterator<Item = (usize, u32, &'a Arc<DecodedChunk>)>,
    cache: &ChunkCache,
    records: &mut [Vec<Record>],
    trace: &Option<Arc<TraceSink>>,
) -> Result<(), CoreError> {
    let Some(spec) = extract else {
        return Ok(());
    };
    let _span = crate::obs::span_opt(trace, TID_QUERY, || "extract hits".into());
    for (slot, id, dc) in hits {
        records[slot] = spec.extract(dc).inspect_err(|_| cache.invalidate(id))?;
    }
    Ok(())
}

/// A plan after its fetch stage: every spanned chunk decoded, with the
/// query's records built from it, in planning order, plus the fetch
/// accounting. Iterate the records via [`ExecutedQuery::into_stream`].
#[derive(Debug)]
pub struct ExecutedQuery {
    chunks: Vec<Arc<DecodedChunk>>,
    /// Parallel to `chunks`: each chunk's records, in chunk-local
    /// order (none for a chunk fetch).
    records: Vec<Vec<Record>>,
    /// Fetch accounting for this execution: everything but
    /// `chunks_useful`, `records` and the wall clock.
    pub metrics: QueryStats,
}

impl ExecutedQuery {
    /// Consumes the execution into the decoded chunks (recovery scan).
    pub fn into_chunks(self) -> Vec<Arc<DecodedChunk>> {
        self.chunks
    }

    /// Streams the query's records chunk by chunk.
    pub fn into_stream(self) -> RecordStream {
        RecordStream {
            metrics: self.metrics,
            chunks: self.records.into_iter(),
            buffer: Vec::new().into_iter(),
            chunks_useful: 0,
            records_yielded: 0,
        }
    }
}

/// The records `execute` built, grouped by chunk in planning order and
/// in chunk-local order within each chunk. Every error surfaced in
/// `execute`, so the stream never yields one.
#[derive(Debug)]
pub struct RecordStream {
    metrics: QueryStats,
    /// The records of the chunks not yet reached, one vector each.
    chunks: std::vec::IntoIter<Vec<Record>>,
    buffer: std::vec::IntoIter<Record>,
    chunks_useful: usize,
    records_yielded: usize,
}

impl RecordStream {
    /// The fetch accounting of the execution behind this stream.
    pub fn metrics(&self) -> QueryStats {
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
    /// entry points), sized once and filled a chunk at a time.
    pub fn drain(&mut self) -> Result<Vec<Record>, CoreError> {
        let left: usize = self.chunks.as_slice().iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(self.buffer.len() + left);
        out.extend(&mut self.buffer);
        for records in &mut self.chunks {
            self.chunks_useful += usize::from(!records.is_empty());
            out.extend(records);
        }
        self.records_yielded += out.len();
        Ok(out)
    }
}

impl Iterator for RecordStream {
    type Item = Result<Record, CoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(record) = self.buffer.next() {
                self.records_yielded += 1;
                return Some(Ok(record));
            }
            let records = self.chunks.next()?;
            self.chunks_useful += usize::from(!records.is_empty());
            self.buffer = records.into_iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::RStore;
    use rstore_vgraph::DatasetSpec;

    /// A pool job that panics mid-round drops its sender unsent, so the
    /// round ends one outcome short — a clean error, never a hang — and
    /// the worker that caught the panic serves the next query.
    #[test]
    fn a_panicking_batch_job_ends_its_round_and_spares_the_pool() {
        let mut spec = DatasetSpec::tiny(2401);
        spec.num_versions = 12;
        spec.root_records = 60;
        let ds = spec.generate();
        let store = RStore::builder()
            .chunk_capacity(1024)
            .cache_budget(0)
            .build(Cluster::builder().nodes(3).build());
        store.load_dataset(&ds).unwrap();
        let store = Arc::new(store);
        let v = VersionId(ds.graph.len() as u32 - 1);

        // Poison one batch: a miss ordinal past the plan's misses makes
        // `run_batch` index out of bounds after its fetch, on a worker.
        // Every chunk of that batch is lost with its outcome, and the
        // error names the first.
        let mut plan = store.plan_query(QuerySpec::Version(v)).unwrap();
        assert!(plan.batches.len() > 1, "a single batch would run on this thread");
        let poisoned = &mut plan.batches.last_mut().unwrap().misses;
        let lost = plan.misses[poisoned[0]].1;
        *poisoned.last_mut().unwrap() = usize::MAX;

        // On a thread of its own, so a hang fails the test instead of
        // wedging the suite.
        let (tx, rx) = mpsc::channel();
        let query = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || tx.send(store.execute(plan)).is_ok())
        };
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the round hung on the outcome its job never sent");
        assert!(query.join().unwrap());
        match outcome {
            Err(CoreError::Codec(msg)) => {
                assert_eq!(msg, format!("chunk C{lost} incomplete after scatter-gather"));
            }
            other => panic!("expected the incomplete-chunk error, got {other:?}"),
        }

        let after = store.plan_query(QuerySpec::Version(v)).unwrap();
        assert!(after.batches.len() > 1, "the next query must need the pool too");
        let records = store.execute(after).unwrap().into_stream().drain().unwrap();
        assert!(!records.is_empty());
    }

    /// A chunk fetch builds no record, so it can cache a chunk whose
    /// sub-chunks do not decode. A pooled round's query thread meets
    /// that hit while the pool fetches the misses: the query fails and
    /// the hit is evicted.
    #[test]
    fn a_hit_that_does_not_decode_fails_the_round_and_is_evicted() {
        let mut spec = DatasetSpec::tiny(2402);
        spec.num_versions = 12;
        spec.root_records = 60;
        let ds = spec.generate();
        let store = RStore::builder()
            .chunk_capacity(1024)
            .build(Cluster::builder().nodes(3).build());
        store.load_dataset(&ds).unwrap();

        // Every sub-chunk of one chunk gets a bad first LZ token tag.
        let id = store.live_chunk_ids()[0];
        let blob = store.cluster().get(&backend_key(id)).unwrap().unwrap();
        let mut chunk = Chunk::deserialize(&blob).unwrap();
        for sc in &mut chunk.subchunks {
            let (_, header) = rstore_compress::varint::read_u64(&sc.payload).unwrap();
            sc.payload.to_mut()[header] = 0x77;
        }
        store.cluster().put(backend_key(id), chunk.serialize().into()).unwrap();
        let scan = store.plan_chunks(vec![id]).unwrap();
        store.execute(scan).unwrap();
        assert_eq!(store.plan_chunks(vec![id]).unwrap().cache_hits(), 1);

        let v = chunk.subchunks[0].members[0].origin;
        let plan = store.plan_query(QuerySpec::Version(v)).unwrap();
        assert!(plan.resident[plan.chunk_ids.iter().position(|&c| c == id).unwrap()].is_some());
        assert!(plan.batches.len() > 1, "the misses must go to the pool");
        match store.execute(plan) {
            Err(CoreError::Codec(_)) => {}
            other => panic!("expected a decode error, got {:?}", other.map(|_| ())),
        }
        assert_eq!(store.plan_chunks(vec![id]).unwrap().cache_misses(), 1);
    }
}
