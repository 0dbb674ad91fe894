//! The RStore application layer: bulk load, online commits, queries.
//!
//! [`RStore`] is the paper's application server (§2.4) minus the
//! network front-end: it owns the version graph, the in-memory
//! projections and chunk maps, and a handle to the backend cluster.
//! Chunks live in the backend's `chunks` table, each chunk's base map
//! in `cmaps`, acknowledged but unflushed commits in `deltas`, and the
//! commit log — one record per generation plus a periodic checkpoint —
//! in `meta` — "the chunks and associated indexes are stored in the KVS
//! separately, in two distinct tables". `cmaps` and `meta` are written
//! for restart only: a running store answers every query with the
//! resident maps its snapshots publish, so a read costs one backend
//! key per chunk — the paper's Table 1 bill.
//!
//! Two ingestion paths exist, as in the paper:
//!
//! * [`RStore::load_dataset`] — offline: materialize every version,
//!   build sub-chunks (`k > 1`), run the configured partitioner over
//!   the whole version tree, and bulk-write chunks + indexes.
//! * [`RStore::commit`] — online (§4): deltas accumulate in a write
//!   buffer (the *delta store*) and are partitioned in batches; placed
//!   records are never re-partitioned, and each touched chunk map's new
//!   entries are logged once per batch in the batch's commit record.
//!
//! Both paths — and a compaction slice — are thin callers of the one
//! generation writer in the `ingest` module: each derives its inputs
//! (the records to place, their sub-chunk grouping, the per-version
//! item lists, the index pass) and the writer runs stage → write →
//! commit, applying a generation to the writer state only once every
//! backend write and its commit record have landed. [`IngestStages`] makes
//! each stage observable the way `QueryStats` made reads observable.
//!
//! Reads are **snapshot-isolated** from both paths: every query entry
//! point takes `&RStore` and pins an immutable, generation-stamped
//! [`StoreSnapshot`] at admission, while mutators build the next
//! generation inside a writer-only lock and publish it with one swap
//! once their commit record is durable. A pinned reader therefore sees one
//! whole generation for its entire plan → fetch → extract pipeline —
//! flushes and compactions running concurrently never tear or block
//! it — and epoch-based reclamation (see [`StoreSnapshot`] and
//! [`RStore::reclaim`]) defers cache invalidation and backend deletes
//! for retired chunks until no reader pins an older generation.

use crate::cache::{CacheStats, ChunkCache};
use crate::chunk::SubChunk;
use crate::chunkmap::ChunkMap;
use crate::compact::CompactionConfig;
use crate::error::CoreError;
use crate::index::Projections;
use crate::ingest::{self, GenerationRecord, LogPosition};
use crate::model::{ChunkId, CompositeKey, PrimaryKey, Record, VersionId};
use crate::obs::{
    self, MetricsRegistry, Obs, ObsConfig, QueryOutcome, QueryTrace, SlowQuery, StoreStats,
    TraceSink, TID_QUERY,
};
use crate::partition::PartitionerKind;
use crate::plan::{
    self, ExecPolicy, ExecutedQuery, HedgeConfig, QueryPlan, QuerySpec, RecordStream,
};
use crate::query::QueryStats;
use crate::serve::{ServeCore, ServeStats};
use crate::subchunk::SubchunkPlan;
use bytes::Bytes;
use rstore_compress::Bitmap;
use rstore_kvstore::{table_key, Cluster};
use rstore_vgraph::{Dataset, VersionDelta, VersionGraph};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Backend table holding serialized chunks.
pub const CHUNK_TABLE: &str = "chunks";
/// Backend table holding each chunk's base map: the chunk map as its
/// chunk was created, written once (entries later generations add are
/// in the commit log).
pub const CMAP_TABLE: &str = "cmaps";
/// Backend table holding the durable delta store: one key per commit
/// acknowledged and not yet flushed.
pub const DELTA_TABLE: &str = "deltas";
/// Backend table holding the commit log: `gen/<seq>` per generation
/// record, `checkpoint` for the checkpoint.
pub const META_TABLE: &str = "meta";

/// Default decoded-chunk cache budget. Non-zero since the pipeline
/// refactor: serving workloads want the cache, and the cost-model
/// experiments — which must observe every fetch hitting the backend —
/// opt out explicitly with `.cache_budget(0)` and can tell residual
/// caching from `QueryStats::cache_hits`/`cache_misses` either way.
pub const DEFAULT_CACHE_BUDGET: usize = 32 * 1024 * 1024;

/// Independent shards (locks) the store's decoded-chunk cache splits
/// its budget across.
const CACHE_SHARDS: usize = 8;

/// Store configuration knobs (the paper's tuning parameters).
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Target chunk size `C` in bytes (paper default: 1 MB; ours is
    /// smaller because datasets are scaled down).
    pub chunk_capacity: usize,
    /// Max records per sub-chunk `k` (1 = no record-level
    /// compression).
    pub max_subchunk: usize,
    /// Partitioning algorithm.
    pub partitioner: PartitionerKind,
    /// Online ingest batch size (§4): deltas buffered before a
    /// partitioning pass.
    pub batch_size: usize,
    /// Decoded-chunk cache budget in bytes
    /// ([`DEFAULT_CACHE_BUDGET`] by default). `0` disables the cache,
    /// preserving the uncached retrieval behaviour the cost-model
    /// experiments measure — set it explicitly via
    /// [`RStoreBuilder::cache_budget`].
    pub cache_budget: usize,
    /// Worker threads for the parallel ingest pipeline (sub-chunk
    /// compression, chunk serialization, chunk-map builds). `0` (the
    /// default) uses every available core; `1` is the fully serial
    /// reference path — no scoped threads: chunks encode in order on
    /// the calling thread, each streamed to the backend as it is done.
    pub ingest_threads: usize,
    /// Workers in the shared fetch pool that executes every query's
    /// node batches ([`serve`](crate::serve)). `0` (the default)
    /// sizes by the core count but floors at twice the cluster's node
    /// count — fetch jobs are I/O-bound (blocked on a node round
    /// trip), so the pool oversubscribes cores to keep every node's
    /// request queue fed; an explicit value is honoured exactly.
    pub fetch_threads: usize,
    /// Queries allowed to execute concurrently before admission
    /// control starts queueing arrivals (small spans ahead of large
    /// ones). The default is generous — backpressure, not a
    /// throttle.
    pub max_concurrent_queries: usize,
    /// Queries allowed to wait in the admission queue once the
    /// in-flight budget is full; beyond this, queries are shed with
    /// [`CoreError::Overloaded`].
    pub max_queued: usize,
    /// Compaction policy (see [`CompactionConfig`]): the victim
    /// threshold and the slice budget of an [`RStore::compact`] call.
    /// The store never compacts on its own.
    pub compaction: CompactionConfig,
    /// Hedged-read policy for the pooled executor: when set, a fetch
    /// round whose straggler batch exceeds `factor ×` the node's
    /// per-key service EWMA (floored at `min`) re-issues the unserved
    /// keys to untried live replicas as backup batches — first answer
    /// wins, duplicates are charged to
    /// [`QueryStats::hedges`](crate::query::QueryStats::hedges).
    /// `None` (the default) keeps every round single-lane.
    pub hedge: Option<HedgeConfig>,
    /// Default modeled-time budget applied to every
    /// [`RStore::execute`]: queries still queued or fetching past it
    /// fail with [`CoreError::DeadlineExceeded`], carrying partial
    /// stats. `None` (the default) means no deadline;
    /// [`RStore::execute_with_deadline`] overrides per query.
    pub default_deadline: Option<Duration>,
    /// Observability configuration: latency histograms, the
    /// deterministic trace sampler and the slow-query log. Defaults
    /// keep recording on (atomics only), tracing off and the slow
    /// threshold unset.
    pub obs: ObsConfig,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            chunk_capacity: 64 * 1024,
            max_subchunk: 1,
            partitioner: PartitionerKind::BottomUp { beta: usize::MAX },
            batch_size: 64,
            cache_budget: DEFAULT_CACHE_BUDGET,
            ingest_threads: 0,
            fetch_threads: 0,
            max_concurrent_queries: 256,
            max_queued: 1024,
            compaction: CompactionConfig::default(),
            hedge: None,
            default_deadline: None,
            obs: ObsConfig::default(),
        }
    }
}

/// Builder for [`RStore`].
#[derive(Debug, Clone, Default)]
pub struct RStoreBuilder {
    config: StoreConfig,
}

impl RStoreBuilder {
    /// Sets the chunk capacity in bytes.
    pub fn chunk_capacity(mut self, bytes: usize) -> Self {
        self.config.chunk_capacity = bytes.max(1);
        self
    }

    /// Sets the sub-chunk size limit `k`.
    pub fn max_subchunk(mut self, k: usize) -> Self {
        self.config.max_subchunk = k.max(1);
        self
    }

    /// Sets the partitioning algorithm.
    pub fn partitioner(mut self, kind: PartitionerKind) -> Self {
        self.config.partitioner = kind;
        self
    }

    /// Sets the online ingest batch size.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.config.batch_size = n.max(1);
        self
    }

    /// Sets the decoded-chunk cache budget in bytes (0 = disabled;
    /// the cost-model experiments rely on that to keep every fetch
    /// observable at the backend).
    pub fn cache_budget(mut self, bytes: usize) -> Self {
        self.config.cache_budget = bytes;
        self
    }

    /// Sets the ingest worker-thread count (0 = every available core,
    /// 1 = the serial reference path).
    pub fn ingest_threads(mut self, threads: usize) -> Self {
        self.config.ingest_threads = threads;
        self
    }

    /// Sets the shared fetch-pool worker count (0 = size by cores,
    /// floored at twice the cluster's node count).
    pub fn fetch_threads(mut self, threads: usize) -> Self {
        self.config.fetch_threads = threads;
        self
    }

    /// Sets the admission in-flight budget (clamped to ≥ 1).
    pub fn max_concurrent_queries(mut self, n: usize) -> Self {
        self.config.max_concurrent_queries = n.max(1);
        self
    }

    /// Sets the admission queue depth (0 = shed as soon as the
    /// in-flight budget is full).
    pub fn max_queued(mut self, n: usize) -> Self {
        self.config.max_queued = n;
        self
    }

    /// Sets the compaction policy (victim threshold + slice budget).
    pub fn compaction(mut self, config: CompactionConfig) -> Self {
        self.config.compaction = config;
        self
    }

    /// Enables hedged reads on the pooled executor (off by default).
    pub fn hedge(mut self, config: HedgeConfig) -> Self {
        self.config.hedge = Some(config);
        self
    }

    /// Sets the default per-query modeled-time budget (no deadline by
    /// default).
    pub fn default_deadline(mut self, budget: Duration) -> Self {
        self.config.default_deadline = Some(budget);
        self
    }

    /// Master observability switch (on by default). Off disables
    /// latency histograms, tracing and the slow-query log (counters
    /// still count) — the configuration the overhead bench compares
    /// the always-on default against.
    pub fn obs_enabled(mut self, enabled: bool) -> Self {
        self.config.obs.enabled = enabled;
        self
    }

    /// Sets the trace-sampling fraction in `[0.0, 1.0]` (0 = off, the
    /// default; 1.0 = trace every query). Sampling is deterministic
    /// by arrival sequence number.
    pub fn trace_sample(mut self, sample: f64) -> Self {
        self.config.obs.trace.sample = sample.clamp(0.0, 1.0);
        self
    }

    /// Queries slower than this (wall time) are captured in the
    /// slow-query log (unset by default; shed and deadline-tripped
    /// queries are captured regardless).
    pub fn slow_query_threshold(mut self, threshold: Duration) -> Self {
        self.config.obs.slow_threshold = Some(threshold);
        self
    }

    /// Finishes the builder against a backend cluster.
    pub fn build(self, cluster: Cluster) -> RStore {
        RStore::assemble(self.config, cluster, StoreMut::empty())
    }
}

/// Per-stage wall-clock breakdown of an ingest (offline bulk load or
/// online batch flush) — the write-side counterpart of
/// [`QueryStats`]. Stages overlap by
/// design: serialized chunks and chunk maps stream to the backend
/// while later ones are still being encoded, so the fields need not
/// sum to the end-to-end time.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStages {
    /// Sub-chunk grouping and compression (the hottest ingest loop;
    /// fanned out across `workers` cores).
    pub subchunk: Duration,
    /// Time inside the partitioning algorithm.
    pub partition: Duration,
    /// Chunk assembly + serialization (overlaps `write`).
    pub assemble: Duration,
    /// Deriving the batch's chunk-map entries from its deltas,
    /// encoding the touched maps and streaming them out (overlaps
    /// `write`).
    pub index: Duration,
    /// Time actually blocked on backend writes: shipping per-node
    /// batches plus waiting for outstanding ones — the part the
    /// pipeline could not hide behind encoding.
    pub write: Duration,
    /// Modeled network time of all writes (max over parallel nodes,
    /// summed across the sequential write stages).
    pub modeled_write: Duration,
    /// Worker threads the parallel stages ran on (1 = the serial
    /// reference path).
    pub workers: usize,
}

/// Report from an offline bulk load.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadReport {
    /// Chunks created.
    pub num_chunks: usize,
    /// Distinct records stored.
    pub num_records: usize,
    /// Sub-chunks created.
    pub num_subchunks: usize,
    /// Total version span after load (Fig. 8 metric).
    pub total_version_span: usize,
    /// Uncompressed record bytes.
    pub raw_bytes: usize,
    /// Compressed bytes written as chunks.
    pub compressed_bytes: usize,
    /// End-to-end load time.
    pub total_time: Duration,
    /// Per-stage timing breakdown of the ingest pipeline.
    pub stages: IngestStages,
}

impl LoadReport {
    /// Compression ratio (raw / compressed).
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.compressed_bytes as f64
    }
}

/// Report from an online batch flush.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlushReport {
    /// Versions in the flushed batch.
    pub versions: usize,
    /// New records placed.
    pub new_records: usize,
    /// New chunks created.
    pub new_chunks: usize,
    /// Existing chunk maps the batch added entries to (the entries are
    /// logged in the flush's commit record; no stored map is touched).
    pub maps_appended: usize,
    /// Bytes of the flush's commit record.
    pub record_bytes: usize,
    /// Per-stage timing breakdown of the flush pipeline.
    pub stages: IngestStages,
}

/// Outcome of commit resolution: the assigned version id, the
/// validated delta, and the new version's sorted contents.
type ResolvedCommit = (VersionId, VersionDelta, Vec<(PrimaryKey, VersionId)>);

/// A commit: a new version described relative to its parent.
#[derive(Debug, Clone, Default)]
pub struct CommitRequest {
    parents: Vec<VersionId>,
    is_root: bool,
    puts: Vec<(PrimaryKey, Bytes)>,
    deletes: Vec<PrimaryKey>,
}

impl CommitRequest {
    /// A root commit carrying the initial records.
    pub fn root<P: Into<Bytes>>(records: impl IntoIterator<Item = (PrimaryKey, P)>) -> Self {
        Self {
            is_root: true,
            puts: records
                .into_iter()
                .map(|(pk, payload)| (pk, payload.into()))
                .collect(),
            ..Self::default()
        }
    }

    /// A commit derived from `parent`.
    pub fn child_of(parent: VersionId) -> Self {
        Self {
            parents: vec![parent],
            ..Self::default()
        }
    }

    /// A merge commit; the delta is interpreted relative to `primary`
    /// (paper Fig. 4: partitioning uses the primary-parent tree).
    pub fn merge_of(primary: VersionId, others: impl IntoIterator<Item = VersionId>) -> Self {
        let mut parents = vec![primary];
        parents.extend(others);
        Self {
            parents,
            ..Self::default()
        }
    }

    /// Adds or replaces the record for `pk`.
    pub fn put(mut self, pk: PrimaryKey, payload: impl Into<Bytes>) -> Self {
        self.puts.push((pk, payload.into()));
        self
    }

    /// Alias of [`CommitRequest::put`] for inserts.
    pub fn insert(self, pk: PrimaryKey, payload: impl Into<Bytes>) -> Self {
        self.put(pk, payload)
    }

    /// Alias of [`CommitRequest::put`] for updates.
    pub fn update(self, pk: PrimaryKey, payload: impl Into<Bytes>) -> Self {
        self.put(pk, payload)
    }

    /// Deletes `pk`.
    pub fn delete(mut self, pk: PrimaryKey) -> Self {
        self.deletes.push(pk);
        self
    }
}

// ------------------------------------------------------------------
// Snapshot isolation
// ------------------------------------------------------------------

/// Where a chunk id stands in its lifecycle: live → retired (by a
/// compaction slice) → free (by a reclamation pass) → live again (by
/// the next generation that creates a chunk).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// Holds a chunk the projections reference.
    Live,
    /// Compacted away by the publish of generation `at`. While
    /// `keys_pending`, its blob and base map may still be at the
    /// backend, and a reader pinned before `at` may still fetch them.
    Retired { at: u64, keys_pending: bool },
    /// Reusable: the next generation's chunks take free slots first.
    #[default]
    Free,
}

/// One chunk id's slot: the chunk's map and size, the cache-probe
/// floor, and where the id stands in its lifecycle.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slot {
    /// The chunk map (an empty tombstone unless live).
    pub(crate) map: Arc<ChunkMap>,
    /// Compressed bytes of the chunk's blob (0 unless live).
    pub(crate) bytes: usize,
    /// Generation whose publish last rewrote the map.
    pub(crate) map_gen: u64,
    /// How many of the map's entries its stored base map
    /// (`cmaps/<id>`) holds — the rest were logged by later
    /// generations, and a checkpoint carries exactly those.
    pub(crate) base_entries: usize,
    pub(crate) state: SlotState,
}

/// The live ids of a slot table, ascending.
fn live_ids(slots: &[Slot]) -> Vec<u32> {
    (0..slots.len() as u32)
        .filter(|&c| slots[c as usize].state == SlotState::Live)
        .collect()
}

/// One immutable generation of the query-visible metadata — the unit
/// readers pin and mutators atomically swap.
///
/// # Invariants
///
/// * `generation` is strictly monotonic across publishes. A reader
///   pinning generation `g` observes exactly the metadata published
///   at `g` — never a torn mix of two generations — because every
///   field was frozen together at the publish point.
/// * Every field is behind an [`Arc`] shared with the writer-side
///   state: publishing is O(1) pointer clones, and the writer
///   copies-on-write ([`Arc::make_mut`]) before its next mutation, so
///   a published snapshot is physically immutable.
/// * The snapshot carries **the chunk maps of its generation**,
///   decoded, one shared `Arc<ChunkMap>` per chunk slot: the read path
///   fetches a missed chunk's blob — one backend key — and extracts
///   with the pinned snapshot's map, so no query fetches or decodes a
///   map. The writer grows a dirty map copy-on-write (a new segment on
///   a copy that shares every older one, see [`ChunkMap`]), so a
///   reader pinned at generation `g` keeps extracting with `g`'s maps
///   while flushes append to them and a compaction slice retires their
///   chunks. Chunk maps only *grow* across flushes (placed records are
///   never re-partitioned) and compaction never rewrites a live id's
///   map, so a newer map is always a superset of an older one.
/// * Everything a chunk id carries is one slot of one table: its map,
///   its compressed size, its cache-probe floor and its lifecycle
///   state (live, retired, free), so the three cannot disagree. A
///   slot's `map_gen` is the generation whose publish last rewrote its
///   map — a cached entry stamped below it shares a map that predates
///   the rewrite and is dropped on probe (see [`ChunkCache::get`]); the
///   miss refetches the blob only.
/// * Only live slots have a size and a non-empty map, and the
///   projections name live ids only. A retired slot (compacted away)
///   keeps its id until a reclamation pass frees it — and not before
///   its backend keys are drained, which waits for every reader pinned
///   before the retirement — and a free slot is reused by the next
///   generation that creates a chunk.
pub struct StoreSnapshot {
    generation: u64,
    graph: Arc<VersionGraph>,
    projections: Arc<Projections>,
    /// The slot table, indexed by chunk id.
    slots: Arc<Vec<Slot>>,
    /// Records per version (the snapshot's view of the per-version
    /// contents widths; the full contents lists stay writer-only).
    record_counts: Arc<Vec<usize>>,
    /// Placed records (locator width) at publish time.
    placed_records: usize,
    /// Bytes the live chunk maps keep resident at publish time.
    resident_map_bytes: usize,
}

impl StoreSnapshot {
    /// The generation this snapshot was published at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The version graph frozen at this generation.
    pub fn graph(&self) -> &Arc<VersionGraph> {
        &self.graph
    }

    /// The projections frozen at this generation.
    pub(crate) fn projections(&self) -> &Projections {
        &self.projections
    }

    /// The slot table, indexed by chunk id.
    pub(crate) fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Records per version at publish time.
    pub(crate) fn record_counts(&self) -> &[usize] {
        &self.record_counts
    }

    /// Placed records (locator width) at publish time.
    pub(crate) fn placed_records(&self) -> usize {
        self.placed_records
    }

    /// Live chunks.
    pub fn chunk_count(&self) -> usize {
        self.slots.iter().filter(|s| s.state == SlotState::Live).count()
    }

    /// Live chunk ids in ascending order.
    pub fn live_chunk_ids(&self) -> Vec<u32> {
        live_ids(&self.slots)
    }

    /// The cache-probe floor for chunk `c` (see the type docs).
    pub(crate) fn floor(&self, c: u32) -> u64 {
        self.slots.get(c as usize).map_or(0, |s| s.map_gen)
    }

    /// Chunk `c`'s map as of this generation, or `None` for an id past
    /// the generation's slot table.
    pub fn chunk_map(&self, c: u32) -> Option<&Arc<ChunkMap>> {
        self.slots.get(c as usize).map(|s| &s.map)
    }

    /// Bytes the live chunk maps keep resident.
    pub(crate) fn resident_map_bytes(&self) -> usize {
        self.resident_map_bytes
    }
}

/// Refcounts of reader-pinned generations — a tiny epoch table. The
/// writer consults the oldest pinned generation to decide whether a
/// retired chunk's cache entries and backend keys can be reclaimed
/// immediately or must be deferred until the old pins drain.
#[derive(Debug, Default)]
pub(crate) struct PinBoard {
    pins: Mutex<BTreeMap<u64, usize>>,
}

impl PinBoard {
    fn pin(&self, generation: u64) {
        *self.pins.lock().unwrap().entry(generation).or_insert(0) += 1;
    }

    fn unpin(&self, generation: u64) {
        let mut pins = self.pins.lock().unwrap();
        if let Some(n) = pins.get_mut(&generation) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&generation);
            }
        }
    }

    /// The oldest generation any reader still pins.
    pub(crate) fn oldest(&self) -> Option<u64> {
        self.pins.lock().unwrap().keys().next().copied()
    }

    /// Total readers currently holding pins.
    pub(crate) fn count(&self) -> usize {
        self.pins.lock().unwrap().values().sum()
    }
}

/// A reader's lease on one [`StoreSnapshot`] generation: planning and
/// execution resolve all metadata through this handle, and the pin it
/// holds blocks reclamation of the generation's chunks until dropped.
/// Dropping is cheap — one refcount update plus a histogram sample,
/// never backend I/O.
pub struct PinnedSnapshot {
    snap: Arc<StoreSnapshot>,
    board: Arc<PinBoard>,
    obs: Arc<MetricsRegistry>,
    start: Instant,
}

impl std::ops::Deref for PinnedSnapshot {
    type Target = StoreSnapshot;
    fn deref(&self) -> &StoreSnapshot {
        &self.snap
    }
}

impl std::fmt::Debug for PinnedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedSnapshot")
            .field("generation", &self.snap.generation)
            .finish_non_exhaustive()
    }
}

impl Drop for PinnedSnapshot {
    fn drop(&mut self) {
        self.board.unpin(self.snap.generation);
        self.obs.observe(&self.obs.snapshot_pin, self.start.elapsed());
    }
}

/// What one [`RStore::drain_retired`] pass deleted.
#[derive(Debug, Default)]
pub(crate) struct Drained {
    /// Retired chunks whose keys were deleted.
    pub(crate) chunks: usize,
    /// Backend replica copies removed (0 when the delete failed).
    pub(crate) removed: usize,
    /// Modeled network time of the delete (max over nodes).
    pub(crate) modeled: Duration,
    /// The delete failed: the keys linger as unreferenced orphans.
    pub(crate) failed: bool,
}

/// Outcome of one [`RStore::reclaim`] pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReclaimReport {
    /// Retired chunks whose deferred key deletes this pass drained.
    pub deferred_drained: usize,
    /// Backend replica copies removed draining them.
    pub keys_deleted: usize,
    /// Retired tombstone slots moved to the reusable free list.
    pub slots_reclaimed: usize,
    /// Trailing free slots truncated outright (id space shrunk).
    pub slots_truncated: usize,
}

/// The writer-side state: the `Arc`'d fields shared with the
/// published snapshot (copied-on-write before each mutation) plus
/// writer-only state no reader consults (the locator, the delta store,
/// the position in the commit log). Guarded by
/// `RStore::state`, so exactly one mutator runs at a time while readers
/// proceed against pinned snapshots.
pub(crate) struct StoreMut {
    /// Generation of the most recently published snapshot.
    pub(crate) generation: u64,
    pub(crate) graph: Arc<VersionGraph>,
    pub(crate) projections: Arc<Projections>,
    /// The slot table (authoritative), indexed by chunk id and shared
    /// with the published snapshot.
    pub(crate) slots: Arc<Vec<Slot>>,
    /// Records per version (snapshot view of the contents widths).
    pub(crate) record_counts: Arc<Vec<usize>>,
    /// Per version: sorted `(pk, origin)` pairs (writer-only).
    pub(crate) contents: Vec<Vec<(PrimaryKey, VersionId)>>,
    /// Composite key → (chunk, chunk-local ordinal) (writer-only).
    pub(crate) locator: FxHashMap<CompositeKey, (u32, u32)>,
    /// Bytes the live chunk maps keep resident.
    pub(crate) resident_map_bytes: usize,
    /// The delta store: commits awaiting a partitioning pass, the
    /// newest `pending.len()` versions of the graph.
    pub(crate) pending: Vec<(VersionId, VersionDelta)>,
    /// Versions flushed: those below are in the commit log (their
    /// graph nodes) and the chunks (their records), those from here on
    /// are `pending`.
    pub(crate) flushed_versions: usize,
    /// Where the commit log stands.
    pub(crate) log: LogPosition,
}

impl StoreMut {
    pub(crate) fn empty() -> Self {
        Self {
            generation: 1,
            graph: Arc::new(VersionGraph::new()),
            projections: Arc::new(Projections::new()),
            slots: Arc::new(Vec::new()),
            record_counts: Arc::new(Vec::new()),
            contents: Vec::new(),
            locator: FxHashMap::default(),
            resident_map_bytes: 0,
            pending: Vec::new(),
            flushed_versions: 0,
            log: LogPosition::default(),
        }
    }

    fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            generation: self.generation,
            graph: Arc::clone(&self.graph),
            projections: Arc::clone(&self.projections),
            slots: Arc::clone(&self.slots),
            record_counts: Arc::clone(&self.record_counts),
            placed_records: self.locator.len(),
            resident_map_bytes: self.resident_map_bytes,
        }
    }

    /// Replaces slot `c` whole, keeping the resident-bytes gauge.
    pub(crate) fn set_slot(&mut self, c: u32, slot: Slot) {
        let old = std::mem::replace(&mut Arc::make_mut(&mut self.slots)[c as usize], slot);
        self.resident_map_bytes -= old.map.resident_bytes();
        self.resident_map_bytes += self.slots[c as usize].map.resident_bytes();
    }

    /// Installs `map` as live slot `c`'s chunk map, `base_entries` of
    /// whose entries its stored base map holds, stamped `map_gen`.
    pub(crate) fn set_chunk_map(
        &mut self,
        c: u32,
        map: Arc<ChunkMap>,
        base_entries: usize,
        map_gen: u64,
    ) {
        let slot = &mut Arc::make_mut(&mut self.slots)[c as usize];
        self.resident_map_bytes -= slot.map.resident_bytes();
        self.resident_map_bytes += map.resident_bytes();
        (slot.map, slot.base_entries, slot.map_gen) = (map, base_entries, map_gen);
    }

    /// Appends a generation's entries to slot `c`'s map, stamped
    /// `map_gen`. The map grows copy-on-write — a new segment on a copy
    /// that shares every older one — so the snapshots published so far
    /// keep the map they have.
    pub(crate) fn append_chunk_map(
        &mut self,
        c: u32,
        entries: Vec<(VersionId, Bitmap)>,
        map_gen: u64,
    ) {
        let slot = &mut Arc::make_mut(&mut self.slots)[c as usize];
        let before = slot.map.resident_bytes();
        Arc::make_mut(&mut slot.map).push_segment(entries);
        slot.map_gen = map_gen;
        self.resident_map_bytes += slot.map.resident_bytes() - before;
    }

    /// Live chunk ids, ascending.
    pub(crate) fn live_chunk_ids(&self) -> Vec<u32> {
        live_ids(&self.slots)
    }
}

/// Counts what one execution's fetch stage did — finished, or cut
/// short by its deadline — into the registry.
fn count_fetch(r: &MetricsRegistry, fetch: QueryStats) {
    r.observe(&r.query_modeled, fetch.modeled_network);
    for (counter, n) in [
        (&r.fetch_bytes, fetch.bytes_fetched),
        (&r.retries, fetch.retries),
        (&r.failovers, fetch.failovers),
        (&r.rerouted_keys, fetch.rerouted_keys),
        (&r.hedges, fetch.hedges),
        (&r.hedge_wins, fetch.hedge_wins),
    ] {
        if n > 0 {
            counter.add(n as u64);
        }
    }
}

/// The RStore instance (application-server state + backend handle).
pub struct RStore {
    /// Behind `Arc` so pooled fetch jobs — which cannot borrow from
    /// the query's stack — share the backend handle with `&self`
    /// query entry points.
    pub(crate) cluster: Arc<Cluster>,
    /// Decoded-chunk cache; interior mutability keeps queries `&self`
    /// (`Arc` for the same reason as `cluster`).
    pub(crate) cache: Arc<ChunkCache>,
    /// The serving core: shared fetch pool (lazily started) plus
    /// admission control.
    pub(crate) serve: ServeCore,
    /// The observability hub: metrics registry, trace sampler
    /// and slow-query log. Behind `Arc` so the execution layer shares
    /// it without borrowing.
    pub(crate) obs: Arc<Obs>,
    pub(crate) config: StoreConfig,
    /// The writer-side state: one mutator at a time holds this lock
    /// while readers keep serving off pinned snapshots.
    pub(crate) state: Mutex<StoreMut>,
    /// The published snapshot mutators swap at their commit points.
    /// A plain mutex stands in for an atomic Arc swap: the critical
    /// section is one pointer clone either side.
    pub(crate) current: Mutex<Arc<StoreSnapshot>>,
    /// Refcounts of reader-pinned generations (epoch table for
    /// deferred reclamation).
    pub(crate) pins: Arc<PinBoard>,
}

impl RStore {
    /// Starts a builder.
    pub fn builder() -> RStoreBuilder {
        RStoreBuilder::default()
    }

    /// Wires a store over `cluster` around the writer state `state`
    /// (empty for a new store, the persisted metadata on a reopen),
    /// publishing it as the initial snapshot.
    fn assemble(config: StoreConfig, cluster: Cluster, state: StoreMut) -> Self {
        let obs = Obs::new(config.obs);
        let serve = ServeCore::new(
            config.fetch_threads,
            cluster.node_count(),
            config.max_concurrent_queries,
            config.max_queued,
        );
        let cache = Arc::new(ChunkCache::with_registry(
            config.cache_budget,
            CACHE_SHARDS,
            Arc::clone(obs.registry()),
        ));
        let current = Mutex::new(Arc::new(state.snapshot()));
        RStore {
            serve,
            cluster: Arc::new(cluster),
            cache,
            obs,
            config,
            state: Mutex::new(state),
            current,
            pins: Arc::new(PinBoard::default()),
        }
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The current published snapshot, unpinned — for cheap
    /// point-in-time metadata reads. Query paths use [`RStore::pin`]
    /// so reclamation respects them.
    pub(crate) fn snapshot(&self) -> Arc<StoreSnapshot> {
        Arc::clone(&self.current.lock().unwrap())
    }

    /// Pins the current snapshot: the returned handle keeps observing
    /// this generation while mutators publish newer ones, and
    /// reclamation of its chunks is blocked until the pin drops.
    pub fn pin(&self) -> PinnedSnapshot {
        // The pin is registered before `publish` can swap the snapshot
        // out: a reader is never between "has the old generation" and
        // "is visible to reclamation" when a mutator looks.
        let current = self.current.lock().unwrap();
        let snap = Arc::clone(&current);
        self.pins.pin(snap.generation);
        drop(current);
        PinnedSnapshot {
            snap,
            board: Arc::clone(&self.pins),
            obs: Arc::clone(self.obs.registry()),
            start: Instant::now(),
        }
    }

    /// Publishes the next generation: bumps the counter and swaps the
    /// current snapshot — O(1) `Arc` clones. This is the single
    /// commit point every mutator funnels through after its meta
    /// write lands.
    pub(crate) fn publish(&self, st: &mut StoreMut) {
        st.generation += 1;
        let snap = Arc::new(st.snapshot());
        *self.current.lock().unwrap() = snap;
        self.obs.registry().generation_swaps.inc();
    }

    /// The version graph (the published snapshot's view; an `Arc`, so
    /// holding it never blocks mutators).
    pub fn graph(&self) -> Arc<VersionGraph> {
        Arc::clone(&self.snapshot().graph)
    }

    /// Backend cluster handle.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Decoded-chunk cache counters (all zero when the cache is
    /// disabled via a zero [`StoreConfig::cache_budget`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of live chunks in the backend (retired compaction
    /// victims and reclaimed free slots excluded).
    pub fn chunk_count(&self) -> usize {
        self.snapshot().chunk_count()
    }

    /// Total chunk id slots, live or not — the quantity the
    /// bounded-memory reclamation test watches.
    pub fn chunk_slot_count(&self) -> usize {
        self.snapshot().slots.len()
    }

    /// Live chunk ids in ascending order. After a compaction the live
    /// set has holes where retired ids sit as tombstones until a
    /// [`RStore::reclaim`] pass frees them for reuse.
    pub fn live_chunk_ids(&self) -> Vec<u32> {
        self.snapshot().live_chunk_ids()
    }

    /// Chunk ids retired by past compactions, not yet reclaimed.
    pub fn retired_chunk_count(&self) -> usize {
        let snap = self.snapshot();
        snap.slots.iter().filter(|s| matches!(s.state, SlotState::Retired { .. })).count()
    }

    /// The published snapshot generation (bumped by every mutator
    /// publish).
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// Readers currently holding snapshot pins.
    pub fn pinned_readers(&self) -> usize {
        self.pins.count()
    }

    /// Retired chunks whose backend keys still wait for a drain (behind
    /// old pins, or reopened since their retirement).
    pub fn reclaim_backlog(&self) -> usize {
        let st = self.state.lock().unwrap();
        let pending = |s: &&Slot| matches!(s.state, SlotState::Retired { keys_pending: true, .. });
        st.slots.iter().filter(pending).count()
    }

    /// Number of versions committed or loaded.
    pub fn version_count(&self) -> usize {
        self.snapshot().graph.len()
    }

    /// Records in version `v`.
    pub fn version_record_count(&self, v: VersionId) -> Result<usize, CoreError> {
        let snap = self.snapshot();
        if !snap.graph.contains(v) {
            return Err(CoreError::UnknownVersion(v.as_u32()));
        }
        Ok(snap.record_counts[v.index()])
    }

    /// The span of version `v` (chunks a full retrieval touches).
    pub fn version_span(&self, v: VersionId) -> usize {
        self.snapshot().projections.version_span(v)
    }

    /// Σ_v span(v) — the Fig. 8 metric.
    pub fn total_version_span(&self) -> usize {
        self.snapshot().projections.total_version_span()
    }

    /// The key span of `pk` (Fig. 12 metric).
    pub fn key_span(&self, pk: PrimaryKey) -> usize {
        self.snapshot().projections.key_span(pk)
    }

    /// Serialized sizes of the two projections (§2.4 accounting).
    pub fn index_bytes(&self) -> (usize, usize) {
        self.snapshot().projections.serialized_bytes()
    }

    /// Total compressed chunk bytes (storage-cost proxy, §2.5).
    pub fn storage_bytes(&self) -> usize {
        self.snapshot().slots.iter().map(|s| s.bytes).sum()
    }

    /// Bytes the live chunk maps keep resident (one uncompressed
    /// bitmap per version a chunk's records belong to). The maps are
    /// load-bearing for every read — no query fetches one — so this is
    /// memory the store holds whatever the cache budget.
    pub fn resident_map_bytes(&self) -> usize {
        self.snapshot().resident_map_bytes()
    }

    /// Worker threads the ingest pipeline runs on (resolves the
    /// `0 = auto` configuration against the machine).
    pub(crate) fn ingest_workers(&self) -> usize {
        plan::worker_count(self.config.ingest_threads)
    }

    /// Records one ingest pass's stage breakdown into the metrics
    /// registry (shared by bulk load and online flush).
    fn record_ingest_stages(&self, s: &IngestStages) {
        let r = self.obs.registry();
        let stages = [s.subchunk, s.partition, s.assemble, s.index, s.write, s.modeled_write];
        r.observe_stages(&r.ingest_stages, stages);
    }

    // ------------------------------------------------------------------
    // Offline bulk load
    // ------------------------------------------------------------------

    /// Bulk-loads a generated dataset: derives the §3.4 sub-chunk
    /// grouping and the per-version group lists — both by record
    /// ordinal, hashing nothing — then hands them to the generation
    /// writer with every version as one delta-indexed batch (see the
    /// `ingest` module docs).
    ///
    /// The store must be empty, and so must the backend (see
    /// [`RStore::commit`]); a failed load leaves it empty.
    pub fn load_dataset(&self, dataset: &Dataset) -> Result<LoadReport, CoreError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        if !st.graph.is_empty() {
            return Err(CoreError::BadCommit("store is not empty".into()));
        }
        ingest::refuse_existing_store(&self.cluster)?;
        let t0 = Instant::now();
        let record_store = dataset.record_store();
        let materialized = dataset.materialize(&record_store);

        // Grouping is serial (k = 1 ⇒ one record per sub-chunk).
        let t = Instant::now();
        let plan = SubchunkPlan::build(dataset, &record_store, self.config.max_subchunk);
        let grouping = t.elapsed();
        let version_items = plan.group_version_items(&materialized);
        let records: Vec<(CompositeKey, &[u8])> = (0..record_store.len() as u32)
            .map(|ord| (record_store.key(ord), record_store.payload(ord)))
            .collect();

        // The writer partitions over, and indexes down, the store's
        // own version tree: adopt the graph and contents up front,
        // and hand them back if the load fails.
        st.graph = Arc::new(dataset.graph.clone());
        st.contents = (0..st.graph.len())
            .map(|v| {
                materialized
                    .contents(VersionId(v as u32))
                    .iter()
                    .map(|&(pk, ord)| (pk, record_store.key(ord).origin))
                    .collect()
            })
            .collect();
        st.record_counts = Arc::new(st.contents.iter().map(|c| c.len()).collect());

        let record = |ord: u32| records[ord as usize];
        let groups = plan.groups;
        let staged = self.stage_generation(st, record, groups, |_| None, Vec::new(), &version_items);
        let num_subchunks = staged.subchunks.len();
        let subchunks = || staged.subchunks.iter().map(|e| e.subchunk(&staged.sources));
        let raw_bytes = subchunks().map(|s| s.raw_bytes).sum();
        let compressed_bytes = subchunks().map(SubChunk::compressed_bytes).sum();
        let batch: Vec<(VersionId, &VersionDelta)> = st.graph.ids().zip(&dataset.deltas).collect();
        let versions = st.graph.len();
        let committed = self.commit_generation(st, staged, versions, &[], |st, chunks| {
            ingest::stage_index(st, &batch, chunks, |ck| record_store.ord(*ck))
        });
        let mut stages = match committed {
            Ok(committed) => committed.stages,
            Err(e) => {
                st.graph = Arc::new(VersionGraph::new());
                st.contents = Vec::new();
                st.record_counts = Arc::new(Vec::new());
                return Err(e);
            }
        };
        stages.subchunk += grouping;
        self.record_ingest_stages(&stages);

        Ok(LoadReport {
            num_chunks: st.slots.len(),
            num_records: record_store.len(),
            num_subchunks,
            total_version_span: st.projections.total_version_span(),
            raw_bytes,
            compressed_bytes,
            total_time: t0.elapsed(),
            stages,
        })
    }

    /// Reopens a store over a cluster that already holds RStore data
    /// (e.g. a restarted log-engine cluster): loads the commit log —
    /// checkpoint, then the records after it — and the live chunks'
    /// maps (`ingest::load_persisted`), scans the live chunks' blobs
    /// once for their keys, and derives from keys and maps the
    /// locator, each version's contents (from its primary parent's and
    /// the chunk-map differences between the two) and the projections
    /// (`ingest::derive_from_blobs`); then it re-admits the commits
    /// that were acknowledged but not yet flushed from the delta store,
    /// as pending. A live chunk whose stored map or blob is missing or
    /// damaged, a damaged log, or maps that give a version one key
    /// twice fail the reopen with [`CoreError::MissingChunk`] /
    /// [`CoreError::Codec`].
    pub fn reopen(config: StoreConfig, cluster: Cluster) -> Result<Self, CoreError> {
        let st = ingest::load_persisted(&cluster, plan::worker_count(config.ingest_threads))?;
        let live = st.live_chunk_ids();
        let store = Self::assemble(config, cluster, st);

        // One scan over the live chunks' blobs — a recovery plan
        // executed through the scatter-gather pipeline (which also
        // warms the cache when one is configured) — yields their keys;
        // the locator, the contents and the projections follow from
        // those and the maps the initial snapshot publishes.
        let scan = store.plan_chunks(live.clone())?;
        let fetched = store.execute(scan)?.into_chunks();
        let mut guard = store.state.lock().unwrap();
        let st = &mut *guard;
        let blobs: Vec<_> = (live.iter().zip(&fetched))
            .map(|(&c, dc)| (c, dc.chunk.compressed_bytes(), dc.local_keys()))
            .collect();
        ingest::derive_from_blobs(st, &blobs)?;
        store.readmit_deltas(st)?;
        if st.graph.is_empty() {
            return Err(CoreError::Codec(
                "no persisted generation: neither a commit log nor a delta store".into(),
            ));
        }
        store.publish(st);
        drop(guard);
        Ok(store)
    }

    /// Re-admits the delta store's survivors — commits acknowledged
    /// after the last flush — as pending: the keys past the flushed
    /// versions, in version order up to the first gap. Without a key
    /// listing the walk asks for doubling windows of consecutive
    /// version ids, so a sealed store pays one absent key. Whatever
    /// sits past a gap was never acknowledged in order; later commits
    /// overwrite it.
    fn readmit_deltas(&self, st: &mut StoreMut) -> Result<(), CoreError> {
        let mut window = 1u32;
        loop {
            let first = st.graph.len() as u32;
            let keys = (first..first.saturating_add(window)).map(|v| ingest::delta_key(VersionId(v)));
            let fetched = self.cluster.multi_get_owned(keys.collect())?;
            let asked = fetched.len();
            let mut admitted = 0;
            for bytes in fetched.into_iter().map_while(|b| b) {
                let v = VersionId(st.graph.len() as u32);
                let (parents, delta) = ingest::decode_delta(v, &bytes)?;
                let bad = |what: &str| CoreError::Codec(format!("the delta of {v} {what}"));
                if parents.iter().any(|p| p.index() >= v.index()) || parents.is_empty() != (v.index() == 0) {
                    return Err(bad("names parents that are not older versions"));
                }
                let parent = parents.first().map_or(&[][..], |p| &st.contents[p.index()]);
                let contents =
                    ingest::commit_contents(parent, v, &delta).map_err(|what| bad(&what))?;
                let graph = Arc::make_mut(&mut st.graph);
                if parents.is_empty() {
                    graph.add_root();
                } else {
                    graph.add_version(&parents);
                }
                Arc::make_mut(&mut st.record_counts).push(contents.len());
                st.contents.push(contents);
                st.pending.push((v, delta));
                admitted += 1;
            }
            if admitted < asked {
                return Ok(());
            }
            window = window.saturating_mul(2);
        }
    }

    // ------------------------------------------------------------------
    // Online commits (§4)
    // ------------------------------------------------------------------

    /// Commits a new version; returns its id. The delta goes to the
    /// write buffer (delta store) and is partitioned when the batch
    /// fills ([`StoreConfig::batch_size`]) or on [`RStore::seal`].
    ///
    /// A root commit creates the store, so it refuses with
    /// [`CoreError::BadCommit`], writing nothing, when the backend
    /// already holds one: that store is [`RStore::reopen`]'s to open.
    pub fn commit(&self, req: CommitRequest) -> Result<VersionId, CoreError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        // Resolve the request into a validated VersionDelta.
        let (v, delta, new_contents) = Self::resolve_commit(st, &req)?;
        if req.is_root {
            ingest::refuse_existing_store(&self.cluster)?;
        }
        // Durable delta store write (the paper's "separate storage
        // area" for received deltas): what a restart re-admits the
        // commit from if it comes before the flush. The version enters
        // the graph only once this put has landed — a commit that
        // fails here leaves the store as it found it.
        let stored = Bytes::from(ingest::encode_delta(&req.parents, &delta));
        self.cluster.put(ingest::delta_key(v), stored)?;
        let graph = Arc::make_mut(&mut st.graph);
        let assigned = if req.is_root {
            graph.add_root()
        } else {
            graph.add_version(&req.parents)
        };
        debug_assert_eq!(assigned, v);

        Arc::make_mut(&mut st.record_counts).push(new_contents.len());
        st.contents.push(new_contents);
        st.pending.push((v, delta));
        if st.pending.len() >= self.config.batch_size {
            // The flush publishes at its own tail. If it fails the
            // batch — this commit included — stays in the delta store
            // for the next flush to retry; publish anyway so readers
            // see the version exists.
            let flushed = self.flush_locked(st);
            if flushed.is_err() {
                self.publish(st);
            }
            flushed?;
        } else {
            self.publish(st);
        }
        Ok(v)
    }

    fn resolve_commit(st: &StoreMut, req: &CommitRequest) -> Result<ResolvedCommit, CoreError> {
        if req.is_root {
            if !st.graph.is_empty() {
                return Err(CoreError::BadCommit(
                    "root commit on a non-empty store".into(),
                ));
            }
        } else {
            if req.parents.is_empty() {
                return Err(CoreError::BadCommit("commit without parent".into()));
            }
            for &p in &req.parents {
                if !st.graph.contains(p) {
                    return Err(CoreError::UnknownVersion(p.as_u32()));
                }
            }
        }
        let v = VersionId(st.graph.len() as u32);

        let parent_contents: &[(PrimaryKey, VersionId)] = if req.is_root {
            &[]
        } else {
            &st.contents[req.parents[0].index()]
        };
        let lookup = |pk: PrimaryKey| -> Option<VersionId> {
            parent_contents
                .binary_search_by_key(&pk, |&(k, _)| k)
                .ok()
                .map(|i| parent_contents[i].1)
        };

        let mut added = Vec::with_capacity(req.puts.len());
        let mut removed = Vec::with_capacity(req.puts.len() + req.deletes.len());
        let mut seen: FxHashMap<PrimaryKey, ()> = FxHashMap::default();
        for (pk, payload) in &req.puts {
            if seen.insert(*pk, ()).is_some() {
                return Err(CoreError::BadCommit(format!("K{pk} written twice")));
            }
            if let Some(origin) = lookup(*pk) {
                removed.push(CompositeKey::new(*pk, origin));
            }
            added.push(Record::new(*pk, v, payload.clone()));
        }
        for pk in &req.deletes {
            if seen.insert(*pk, ()).is_some() {
                return Err(CoreError::BadCommit(format!("K{pk} written and deleted")));
            }
            match lookup(*pk) {
                Some(origin) => removed.push(CompositeKey::new(*pk, origin)),
                None => {
                    return Err(CoreError::BadCommit(format!(
                        "K{pk} deleted but absent from parent"
                    )))
                }
            }
        }
        let delta = VersionDelta::from_parts(added, removed);
        delta
            .validate(v)
            .map_err(|e| CoreError::BadCommit(e.to_string()))?;

        let contents =
            ingest::commit_contents(parent_contents, v, &delta).map_err(CoreError::BadCommit)?;
        Ok((v, delta, contents))
    }

    /// Number of commits waiting in the delta store.
    pub fn pending_commits(&self) -> usize {
        self.state.lock().unwrap().pending.len()
    }

    /// Flushes the delta store: partitions the batch's new records
    /// into fresh chunks (never re-partitioning placed records, §4),
    /// updates chunk maps and projections, and persists everything —
    /// through the same parallel, pipelined stages as
    /// [`RStore::load_dataset`].
    pub fn flush_batch(&self) -> Result<FlushReport, CoreError> {
        let mut guard = self.state.lock().unwrap();
        self.flush_locked(&mut guard)
    }

    /// [`RStore::flush_batch`] body, on an already-held state lock
    /// (so `commit` → flush never re-enters the mutex). Readers keep
    /// serving the pre-flush snapshot until the publish at the tail.
    fn flush_locked(&self, st: &mut StoreMut) -> Result<FlushReport, CoreError> {
        if st.pending.is_empty() {
            return Ok(FlushReport::default());
        }
        let flush_t0 = Instant::now();
        // The batch leaves the delta store only when it is durable: a
        // flush that fails changed nothing in the writer state (see
        // the `ingest` module docs), so its commits go back, to be
        // retried by the next flush.
        let batch = std::mem::take(&mut st.pending);
        let report = match self.flush_pending(st, &batch) {
            Ok(report) => report,
            Err(e) => {
                st.pending = batch;
                return Err(e);
            }
        };
        // The batch's commit record is durable: its delta-store keys
        // are garbage. Best-effort — a key a failed delete leaves
        // behind sits below the flushed versions, where no restart
        // looks.
        let flushed = batch.iter().map(|&(v, _)| ingest::delta_key(v)).collect();
        let _ = self.cluster.multi_delete_scatter(flushed);
        // Piggyback any retired keys whose old pins drained.
        self.drain_retired(st);
        self.record_ingest_stages(&report.stages);
        let r = self.obs.registry();
        r.flushes.inc();
        r.observe(&r.ingest_flush, flush_t0.elapsed());
        Ok(report)
    }

    /// Derives a flush's inputs — the batch's new records as singleton
    /// sub-chunk groups (online compression applies within the record
    /// itself; cross-record grouping happens on compaction) and the
    /// groups each batch version holds — and hands them to the
    /// generation writer with the batch's deltas as the index pass.
    fn flush_pending(
        &self,
        st: &mut StoreMut,
        batch: &[(VersionId, VersionDelta)],
    ) -> Result<FlushReport, CoreError> {
        // Gather the batch's new records and give them batch-local
        // ordinals.
        let mut batch_ord: FxHashMap<CompositeKey, u32> = FxHashMap::default();
        let mut records: Vec<(CompositeKey, &[u8])> = Vec::new();
        for (_, delta) in batch {
            for rec in &delta.added {
                batch_ord.insert(rec.composite_key(), records.len() as u32);
                records.push((rec.composite_key(), rec.payload.as_ref()));
            }
        }
        let groups: Vec<Vec<u32>> = (0..records.len() as u32).map(|ord| vec![ord]).collect();

        // version_items over the full tree: new records appear only
        // in batch versions.
        let mut version_items: Vec<Vec<u32>> = vec![Vec::new(); st.graph.len()];
        if !records.is_empty() {
            for &(v, _) in batch {
                let mut items: Vec<u32> = st.contents[v.index()]
                    .iter()
                    .filter_map(|&(pk, origin)| {
                        batch_ord.get(&CompositeKey::new(pk, origin)).copied()
                    })
                    .collect();
                items.sort_unstable();
                version_items[v.index()] = items;
            }
        }

        let record = |ord: u32| records[ord as usize];
        let staged = self.stage_generation(st, record, groups, |_| None, Vec::new(), &version_items);
        let deltas: Vec<(VersionId, &VersionDelta)> = batch.iter().map(|(v, d)| (*v, d)).collect();
        let versions = st.graph.len();
        let committed = self.commit_generation(st, staged, versions, &[], |st, chunks| {
            ingest::stage_index(st, &deltas, chunks, |ck| batch_ord.get(ck).copied())
        })?;
        Ok(FlushReport {
            versions: batch.len(),
            new_records: records.len(),
            new_chunks: committed.new_chunks,
            maps_appended: committed.maps_appended,
            record_bytes: committed.record_bytes,
            stages: committed.stages,
        })
    }

    /// Flushes any pending commits (call before querying fresh data)
    /// and returns the final batch's [`FlushReport`], so callers can
    /// see the last ingest's stage breakdown instead of losing it.
    ///
    /// Sealing also replays any hinted writes that missed a replica
    /// during an outage, so the sealed data is fully replicated again.
    /// It adds no durability of its own: every backend write is durable
    /// when the node acknowledges it.
    pub fn seal(&self) -> Result<FlushReport, CoreError> {
        let report = self.flush_batch()?;
        self.cluster.replay_hints()?;
        Ok(report)
    }

    /// The one path retired chunks' backend keys leave by: one batched
    /// delete of the blob and base map of every retired slot whose keys
    /// are pending and whose retiring generation no pin predates, plus
    /// a drop of their cache entries — off a mutator's (or explicit
    /// reclaim pass's) thread, never a reader's. A compaction slice
    /// calls it right after its commit; the flush tail and
    /// [`RStore::reclaim`] call it for what old pins held back.
    /// Best-effort and once per process: a failed delete leaves orphan
    /// keys no metadata references — harmless, like a crash between a
    /// commit point and its cleanup — and the slot stops waiting on
    /// them.
    pub(crate) fn drain_retired(&self, st: &mut StoreMut) -> Drained {
        let oldest = self.pins.oldest();
        let due: Vec<u32> = (0..st.slots.len() as u32)
            .filter(|&c| match st.slots[c as usize].state {
                SlotState::Retired { at, keys_pending: true } => oldest.is_none_or(|o| o >= at),
                _ => false,
            })
            .collect();
        if due.is_empty() {
            return Drained::default();
        }
        let slots = Arc::make_mut(&mut st.slots);
        let mut keys = Vec::with_capacity(2 * due.len());
        for &c in &due {
            if let SlotState::Retired { keys_pending, .. } = &mut slots[c as usize].state {
                *keys_pending = false;
            }
            self.cache.invalidate(c);
            let id = ChunkId(c).to_key();
            keys.extend([table_key(CHUNK_TABLE, &id), table_key(CMAP_TABLE, &id)]);
        }
        let (modeled, removed, failed) = match self.cluster.multi_delete_scatter(keys) {
            Ok((modeled, removed)) => (modeled, removed, false),
            Err(_) => (Duration::ZERO, 0, true),
        };
        Drained {
            chunks: due.len(),
            removed,
            modeled,
            failed,
        }
    }

    /// Explicit reclamation pass — Phase B of the retire protocol.
    /// Drains what old pins held back, moves drained retired slots to
    /// the reusable free list, and truncates trailing free slots
    /// outright, so tombstones do not accumulate without bound across
    /// thousands of compactions. The slot edits are one generation: a
    /// commit record, then the same edits applied and published — a
    /// pass that fails leaves the slots as they were.
    pub fn reclaim(&self) -> Result<ReclaimReport, CoreError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        let drained = self.drain_retired(st);
        // A retired slot whose keys are still pending keeps its
        // tombstone: freeing it for reuse before its old keys are
        // deleted could let a pinned reader fetch a mix of old and
        // new blobs under one id.
        let drained_retired =
            |s: &Slot| matches!(s.state, SlotState::Retired { keys_pending: false, .. });
        let freed: Vec<u32> = (0..st.slots.len() as u32)
            .filter(|&c| drained_retired(&st.slots[c as usize]))
            .collect();
        // Trailing freed slots shrink the id space outright instead
        // of waiting as reusable tombstones.
        let chunk_slots = st
            .slots
            .iter()
            .rposition(|s| s.state != SlotState::Free && !drained_retired(s))
            .map_or(0, |last| last + 1);
        let slots_reclaimed = freed.len();
        let slots_truncated = st.slots.len() - chunk_slots;
        if slots_reclaimed > 0 || slots_truncated > 0 {
            let record = GenerationRecord {
                seq: st.log.seq + 1,
                first_version: st.flushed_versions as u32,
                chunk_slots,
                freed,
                ..GenerationRecord::default()
            };
            let record_bytes = self.put_record(&record, &mut IngestStages::default())?;
            st.apply_edits(&record);
            self.publish(st);
            self.record_committed(st, record_bytes);
        }
        let reclaimed = (slots_reclaimed + slots_truncated) as u64;
        self.obs.registry().reclaimed_chunk_slots.add(reclaimed);
        Ok(ReclaimReport {
            deferred_drained: drained.chunks,
            keys_deleted: drained.removed,
            slots_reclaimed,
            slots_truncated,
        })
    }

    // ------------------------------------------------------------------
    // Queries (§2.1 / §2.4): plan → fetch → extract
    // ------------------------------------------------------------------

    /// Validates the spec's version reference against the pinned
    /// snapshot before planning.
    fn check_spec(snap: &StoreSnapshot, spec: &QuerySpec) -> Result<(), CoreError> {
        match *spec {
            QuerySpec::Version(v)
            | QuerySpec::Record { v, .. }
            | QuerySpec::Range { v, .. } => {
                if snap.graph.contains(v) {
                    Ok(())
                } else {
                    Err(CoreError::UnknownVersion(v.as_u32()))
                }
            }
            QuerySpec::Evolution { .. } | QuerySpec::Scan => Ok(()),
        }
    }

    /// Stage 1 — **plan**: pin the current snapshot, consult its
    /// projections once for the query's span (index-ANDing for record
    /// retrieval, §2.4), probe the decoded-chunk cache, and group the
    /// missed chunks' backend keys — one per chunk — by owning node.
    /// No backend round trip
    /// happens here. The pin rides inside the returned plan, so the
    /// whole plan → fetch → extract pipeline observes exactly one
    /// generation even while mutators publish newer ones.
    pub fn plan_query(&self, spec: QuerySpec) -> Result<QueryPlan, CoreError> {
        let pin = self.pin();
        Self::check_spec(&pin, &spec)?;
        // A full scan plans over the *live* ids (compaction-retired
        // ids have no backend keys); the projections never reference
        // retired chunks, so every other spec is safe already.
        let chunk_ids = pin
            .projections
            .chunks_for(&spec, || pin.live_chunk_ids());
        plan::build_plan(&self.cluster, &self.cache, spec, false, chunk_ids, pin)
    }

    /// Plans a fetch of explicit chunk ids — the recovery scan and a
    /// compaction slice's extraction, which name chunks rather than
    /// versions or keys. Its execution decodes and caches the chunks
    /// ([`ExecutedQuery::into_chunks`]) and builds no record.
    pub fn plan_chunks(&self, chunk_ids: Vec<u32>) -> Result<QueryPlan, CoreError> {
        let pin = self.pin();
        plan::build_plan(&self.cluster, &self.cache, QuerySpec::Scan, true, chunk_ids, pin)
    }

    /// Stage 2 — **fetch and extract**: scatter-gather through the
    /// serving core. The query first passes admission control (waiting
    /// in the FIFO queue when the in-flight budget is full, shed with
    /// [`CoreError::Overloaded`] once the queue is full too), then
    /// its node batches run as jobs on the store's shared fetch pool:
    /// a chunk is decoded by the pool worker its blob arrives on,
    /// paired with its map from the plan's pinned snapshot, and the
    /// query's records are built from it there, overlapping the other
    /// batches' transfers, before it is admitted to the cache. The
    /// query thread builds the records of the plan's cache hits. A
    /// sub-chunk that does not decode fails the query here with
    /// [`CoreError::Codec`], and its chunk is not cached (or, when a
    /// chunk fetch cached it, is evicted). Time queued is reported in
    /// [`QueryStats::queue_wait`](crate::query::QueryStats::queue_wait).
    pub fn execute(&self, plan: QueryPlan) -> Result<ExecutedQuery, CoreError> {
        self.execute_with_deadline(plan, self.config.default_deadline)
    }

    /// [`RStore::execute`] with an explicit per-query time budget
    /// (overriding [`StoreConfig::default_deadline`]; `None` removes
    /// it). The budget covers admission queueing plus the accrued
    /// modeled fetch time — max-over-nodes per round in *every*
    /// executor mode, so the trip point is mode-independent — and a
    /// query that runs out fails with
    /// [`CoreError::DeadlineExceeded`] carrying the stats of the work
    /// it did complete.
    pub fn execute_with_deadline(
        &self,
        plan: QueryPlan,
        deadline: Option<Duration>,
    ) -> Result<ExecutedQuery, CoreError> {
        self.execute_traced(plan, deadline, None)
    }

    /// The pooled execution path — admission, then the scatter-gather
    /// rounds under the store's tail-defense policy — and the one place
    /// an execution is counted, whichever entry point it came through:
    /// the plan itself, its outcome, its queue wait and what its fetch
    /// stage did. [`RStore::query_with_stats`] passes the sink of
    /// sampled queries; every other caller passes `None`.
    fn execute_traced(
        &self,
        plan: QueryPlan,
        deadline: Option<Duration>,
        trace: Option<&Arc<TraceSink>>,
    ) -> Result<ExecutedQuery, CoreError> {
        let r = self.obs.registry();
        r.queries.inc();
        let admit_t = Instant::now();
        let guard = self
            .serve
            .admit_within(plan.span(), deadline)
            .inspect_err(|e| match e {
                CoreError::Overloaded => r.shed.inc(),
                // Timed out still queued.
                _ => r.deadline_exceeded.inc(),
            })?;
        let waited = guard.waited();
        r.admitted.inc();
        r.observe(&r.queue_wait, waited);
        if let Some(t) = trace {
            t.add("admission".into(), TID_QUERY, admit_t);
        }
        let policy = ExecPolicy {
            hedge: self.config.hedge,
            // The fetch rounds get whatever the queue left over.
            deadline: deadline.map(|d| d.saturating_sub(waited)),
            trace: trace.cloned(),
        };
        let pool = Some(self.serve.pool());
        match plan::execute_plan(&self.cluster, &self.cache, r, plan, pool, policy) {
            Ok(mut executed) => {
                executed.metrics.queue_wait = waited;
                count_fetch(r, executed.metrics);
                Ok(executed)
            }
            // Re-frame the executor's leftover-budget error in terms
            // of the caller's full deadline, and fold the queue wait
            // back into both the spent total and the partial stats.
            Err(CoreError::DeadlineExceeded {
                spent, mut partial, ..
            }) => {
                r.deadline_exceeded.inc();
                partial.queue_wait = waited;
                count_fetch(r, *partial);
                Err(CoreError::DeadlineExceeded {
                    budget: deadline.unwrap_or(spent),
                    spent: spent + waited,
                    partial,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// The serial reference executor: identical results to
    /// [`RStore::execute`], but node batches run one after another
    /// and modeled network time sums instead of taking the parallel
    /// max. This is the oracle the property tests compare against; it
    /// bypasses admission and is not counted as a served query.
    pub fn execute_serial(&self, plan: QueryPlan) -> Result<ExecutedQuery, CoreError> {
        plan::execute_plan(
            &self.cluster,
            &self.cache,
            self.obs.registry(),
            plan,
            None,
            ExecPolicy::default(),
        )
    }

    /// Serving-core counters: fetch-pool size and jobs run, queries
    /// admitted/shed, peak in-flight and queue depths, and the total
    /// admission queue wait.
    pub fn serve_stats(&self) -> ServeStats {
        self.serve.stats(self.obs.registry())
    }

    /// The observability hub: registry, trace sampler, slow log.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The most recent sampled query trace (None until a query is
    /// sampled; sample every query with
    /// [`RStoreBuilder::trace_sample`]`(1.0)`).
    pub fn last_trace(&self) -> Option<QueryTrace> {
        self.obs.last_trace()
    }

    /// Oldest-first snapshot of the slow-query log: queries over the
    /// [`RStoreBuilder::slow_query_threshold`], shed by admission
    /// control, or deadline-tripped.
    pub fn slow_log(&self) -> Vec<SlowQuery> {
        self.obs.slow_log()
    }

    /// Every metric in Prometheus text exposition format:
    /// [`RStore::stats_snapshot`] rendered by
    /// [`StoreStats::to_prometheus`].
    pub fn metrics_text(&self) -> String {
        self.stats_snapshot().to_prometheus()
    }

    /// The one place a stats sample is taken: the registry frozen,
    /// plus every pulled surface — cache residency, admission,
    /// fragmentation, snapshot and pins, the cluster's counters and
    /// its per-node stats. Every exposition renders this struct (see
    /// [`obs::METRICS`]).
    pub fn stats_snapshot(&self) -> StoreStats {
        let registry = MetricsRegistry::clone(self.obs.registry());
        StoreStats {
            versions: self.version_count(),
            storage_bytes: self.storage_bytes(),
            generation: self.generation(),
            pinned_readers: self.pinned_readers(),
            reclaim_backlog: self.reclaim_backlog(),
            resident_map_bytes: self.resident_map_bytes(),
            records_since_checkpoint: self.state.lock().unwrap().log.records_since_checkpoint(),
            index_bytes: self.index_bytes(),
            fragmentation: self.fragmentation_stats(),
            cache: self.cache_stats(),
            serve: self.serve.stats(&registry),
            backend: self.cluster.stats(),
            nodes: self.cluster.node_stats(),
            registry,
        }
    }

    /// The full pipeline, returning a [`RecordStream`] over the
    /// records `execute` built, chunk by chunk. The stream is not
    /// lazy: every record is built, and every error has surfaced, by
    /// the time this returns.
    pub fn stream_query(&self, spec: QuerySpec) -> Result<RecordStream, CoreError> {
        Ok(self.execute(self.plan_query(spec)?)?.into_stream())
    }

    /// Runs a query through the full pipeline and materializes it
    /// with cost accounting. Evolution results are ordered by origin
    /// version, everything else by primary key.
    pub fn query_with_stats(
        &self,
        spec: QuerySpec,
    ) -> Result<(Vec<Record>, QueryStats), CoreError> {
        let t0 = Instant::now();
        // Sequence number + (for sampled queries only) a trace sink.
        // The unsampled path pays one relaxed counter increment here.
        let (seq, trace) = self.obs.begin_query();
        let plan_span = obs::span_opt(&trace, TID_QUERY, || "plan".into());
        let plan = self.plan_query(spec)?;
        drop(plan_span);
        let chunks_fetched = plan.span();
        let generation = plan.generation();
        let mut stream = match self.execute_traced(plan, self.config.default_deadline, trace.as_ref())
        {
            Ok(executed) => executed.into_stream(),
            Err(e) => {
                // Shed and deadline-tripped queries still report in
                // with a slow-log entry each.
                let (outcome, mut stats) = match &e {
                    CoreError::Overloaded => (QueryOutcome::Shed, QueryStats::default()),
                    CoreError::DeadlineExceeded { partial, .. } => {
                        (QueryOutcome::DeadlineExceeded, **partial)
                    }
                    _ => return Err(e),
                };
                stats.chunks_fetched = chunks_fetched;
                stats.elapsed = t0.elapsed();
                stats.generation = generation;
                self.obs
                    .finish_query(seq, &spec, &stats, trace.as_ref(), outcome);
                return Err(e);
            }
        };
        let extract_span = obs::span_opt(&trace, TID_QUERY, || "extract".into());
        let mut records = stream.drain()?;
        match spec {
            QuerySpec::Evolution { .. } => records.sort_unstable_by_key(|r| r.origin),
            _ => records.sort_unstable_by_key(|r| r.pk),
        }
        drop(extract_span);
        let stats = QueryStats {
            chunks_useful: stream.chunks_useful(),
            records: records.len(),
            elapsed: t0.elapsed(),
            ..stream.metrics()
        };
        self.obs
            .finish_query(seq, &spec, &stats, trace.as_ref(), QueryOutcome::Ok);
        Ok((records, stats))
    }

    /// Runs a query through the full pipeline, discarding the stats.
    pub fn query(&self, spec: QuerySpec) -> Result<Vec<Record>, CoreError> {
        self.query_with_stats(spec).map(|(r, _)| r)
    }

    /// Full version retrieval.
    pub fn get_version(&self, v: VersionId) -> Result<Vec<Record>, CoreError> {
        self.query(QuerySpec::Version(v))
    }

    /// Record retrieval: the value of `pk` in version `v`.
    pub fn get_record(&self, pk: PrimaryKey, v: VersionId) -> Result<Option<Record>, CoreError> {
        self.query(QuerySpec::Record { pk, v }).map(|mut r| r.pop())
    }

    /// Range retrieval: records of `v` with `lo ≤ pk ≤ hi`.
    pub fn get_range(
        &self,
        lo: PrimaryKey,
        hi: PrimaryKey,
        v: VersionId,
    ) -> Result<Vec<Record>, CoreError> {
        self.query(QuerySpec::Range { lo, hi, v })
    }

    /// Record evolution: every distinct value `pk` ever had, ordered
    /// by origin version.
    pub fn get_evolution(&self, pk: PrimaryKey) -> Result<Vec<Record>, CoreError> {
        self.query(QuerySpec::Evolution { pk })
    }
}
