//! The generation writer: the one path that turns records into
//! persistent output — chunks, their chunk maps and the two lossy
//! projections — and commits it, and the commit log a restart reads
//! back.
//!
//! The offline bulk load ([`RStore::load_dataset`]), the online batch
//! flush ([`RStore::flush_batch`]) and a compaction slice
//! ([`RStore::compact`]) differ only in the inputs they derive: which
//! records to place, how they group into sub-chunks, which groups each
//! version holds, how the new chunk-map entries follow from that
//! (delta-driven for load and flush, from the victims' maps for the
//! records a compaction moves) and which chunks retire. Everything
//! after that is this module, in one order:
//!
//! 1. **stage** ([`RStore::stage_generation`]) — sub-chunk delta-encode
//!    and LZ (the hottest ingest loop) fans out across
//!    [`StoreConfig::ingest_threads`](crate::store::StoreConfig::ingest_threads)
//!    scoped threads, then the configured partitioner runs over the
//!    groups. A compaction's group that is one victim sub-chunk is not
//!    encoded: its bytes are carried whole ([`Encoded::Carried`]).
//!    Nothing is written; a caller may still walk away (the
//!    compaction cutover guard does).
//! 2. **write** ([`RStore::commit_generation`]) — chunks assemble
//!    against *peeked* ids, serialize on their own cores and stream to
//!    the backend in per-node batches ([`Cluster::writer`]) while later
//!    chunks are still being encoded; the caller's index pass derives
//!    the new chunk-map entries, and every **new** chunk's map — its
//!    *base map*, `cmaps/<id>`, written once and never again — rides
//!    the same streaming writer. `ingest_threads = 1` keeps the fully
//!    serial reference path (encode in order on the calling thread,
//!    streaming each write as it is done) that the equivalence
//!    proptests compare against.
//! 3. **commit** — one appended key, `meta/gen/<seq>`, holding a
//!    [`GenerationRecord`]: only what the generation changed — the
//!    flushed versions' graph nodes, the chunk-table edits and, for
//!    every already-existing chunk the index pass touched, its new
//!    chunk-map entries. That single put is the commit point. Only
//!    then is the same record applied to the writer state — each dirty
//!    map grows by its new entries, copy-on-write, so generations
//!    readers still pin keep theirs — the projections take the
//!    postings the generation's entries and placed records imply
//!    ([`Projections::add_chunks`]; no record logs them), and the
//!    whole is published, chunk maps included: reads extract with the
//!    published maps, and the stored ones are read back only by a
//!    restart.
//!
//! Any error up to and including the record put therefore leaves the
//! writer state untouched: a failed flush keeps its commits in the
//! delta store, a failed compaction slice leaves its victims live for
//! the next call to select again, and the retry ends byte-identical to
//! an undisturbed twin. Blobs or base
//! maps a failed attempt left behind are overwritten by the retry or
//! stay unreferenced — a dead attempt wrote nothing any record names.
//!
//! ## The commit log
//!
//! [`RStore::reclaim`] commits through the same record (its freed and
//! truncated slots), so every change to the persistent metadata is one
//! record, and a record costs what its generation changed — not what
//! the store holds. What bounds the log is the **checkpoint**: the
//! whole state written as the one record that builds it from nothing
//! ([`StoreMut::checkpoint_record`]), under `meta/checkpoint`, after
//! which the records it covers are deleted. It runs when the records
//! since the last one outweigh it [`CHECKPOINT_FACTOR`]-fold, so the
//! bytes checkpoints add stay a fixed fraction of the bytes the records
//! themselves took, however long the history. A checkpoint is an
//! optimization of the restart, not a commit point: if its put fails,
//! the records are still the log.
//!
//! A restart ([`load_persisted`]) reads the checkpoint, then the records
//! after it in sequence, then the live chunks' base maps, and appends
//! to each map the entries the checkpoint and the records logged for
//! it; the locator, the contents and the projections it derives from
//! those maps and the live chunks' keys ([`derive_from_blobs`]).
//! Commits acknowledged but not yet flushed are in none of these:
//! they wait in the delta store (`deltas/<version>`, written by
//! [`RStore::commit`], deleted by the flush that placed them) and a
//! restart re-admits them as pending.

use crate::cache::DecodedChunk;
use crate::chunk::{Chunk, SubChunk};
use crate::chunkmap::{self, encode_entries, ChunkMap};
use crate::error::CoreError;
use crate::index::Projections;
use crate::model::{ChunkId, CompositeKey, PrimaryKey, Record, VersionId};
use crate::partition::{PartitionInput, Partitioning};
use crate::plan;
use crate::store::{
    IngestStages, RStore, Slot, SlotState, StoreMut, CMAP_TABLE, DELTA_TABLE, META_TABLE,
};
use bytes::Bytes;
use crossbeam::channel::bounded;
use rstore_compress::{varint, Bitmap};
use rstore_kvstore::{table_key, Cluster, Key, KvError, WriteSummary};
use rstore_vgraph::{apply_changes, VersionDelta, VersionGraph};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Outcome of one streamed write stage: the writer's accounting plus
/// how long the stage was genuinely blocked on backend writes (batch
/// shipping + waiting for outstanding replies — channel idle time,
/// which is hidden behind encoding, is excluded).
struct StreamOutcome {
    summary: WriteSummary,
    write_wait: Duration,
}

impl StreamOutcome {
    fn fold_into(&self, stages: &mut IngestStages) {
        stages.write += self.write_wait;
        stages.modeled_write += self.summary.modeled;
    }
}

/// Streams pairs through a [`Cluster::writer`] as `writes` yields
/// them: per-node batches ship while later pairs are still being
/// produced. Only pushing and the final wait count as write time, not
/// producing the pairs.
fn stream_writes(
    cluster: &Cluster,
    writes: impl IntoIterator<Item = (Key, Bytes)>,
) -> Result<StreamOutcome, CoreError> {
    let mut writer = cluster.writer();
    let mut write_wait = Duration::ZERO;
    for (key, value) in writes {
        let t = Instant::now();
        writer.push(key, value)?;
        write_wait += t.elapsed();
    }
    let t = Instant::now();
    let summary = writer.finish()?;
    write_wait += t.elapsed();
    Ok(StreamOutcome { summary, write_wait })
}

/// The pipelined encode → write stage for chunk blobs: serializes
/// `jobs` on `workers` scoped threads and streams each blob into a
/// [`Cluster::writer`] the moment it is ready, so the node threads
/// store earlier batches while later chunks are still being encoded.
/// Chunk serialization lives in exactly this place.
///
/// With one worker the chunks encode in order on the calling thread,
/// each streamed as it is done. Either way the final backend state is
/// identical — chunks serialize deterministically and write order is
/// irrelevant under distinct keys.
fn stream_chunk_blobs(
    cluster: &Cluster,
    workers: usize,
    jobs: Vec<(u32, Vec<&SubChunk>)>,
) -> Result<StreamOutcome, CoreError> {
    let encode = |(id, parts): (u32, Vec<&SubChunk>)| {
        let blob = Chunk::serialize_parts(parts.iter().copied());
        (plan::backend_key(id), Bytes::from(blob))
    };
    let workers = workers.min(jobs.len()).max(1);
    if workers == 1 {
        return stream_writes(cluster, jobs.into_iter().map(encode));
    }

    let queue = Mutex::new(jobs.into_iter());
    std::thread::scope(|scope| {
        let (tx, rx) = bounded::<(Key, Bytes)>(workers * 4);
        // The writer returns on its first error, dropping `rx`: the
        // encoders' next send fails and they stop.
        let writer =
            scope.spawn(move || stream_writes(cluster, std::iter::from_fn(|| rx.recv().ok())));
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let encode = &encode;
            scope.spawn(move || loop {
                let job = queue.lock().unwrap().next();
                let Some(job) = job else { break };
                if tx.send(encode(job)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        writer.join().expect("writer stage panicked")
    })
}

// ------------------------------------------------------------------
// The commit log: what a commit point persists and a restart reads
// ------------------------------------------------------------------

/// A checkpoint is written once the records since the last one hold
/// this many times its bytes (and there are at least two of them: one
/// record is no slower to replay than the checkpoint folding it).
/// Between checkpoints `k` and `k + 1` the log grows by `FACTOR × S_k`
/// and the state by at most that, so checkpoint sizes grow
/// geometrically and all of them together stay under
/// `(1 + 1/FACTOR) ×` the last one — while a restart replays at most
/// `FACTOR ×` the checkpoint it starts from.
const CHECKPOINT_FACTOR: usize = 4;

/// First byte of an encoded [`GenerationRecord`]: the format's tag.
/// (`0xC7` tagged the layout that also logged projection edits.)
const RECORD_TAG: u8 = 0xC8;

/// Records a restart asks for per round trip while it walks the log
/// past the checkpoint (the window doubles as the walk goes on).
const RECORD_WINDOW: u64 = 4;

/// Appends `ids` (strictly ascending) as a count and delta varints.
fn write_ascending(out: &mut Vec<u8>, ids: &[u32]) {
    varint::write_u64(out, ids.len() as u64);
    let mut prev = 0;
    for &id in ids {
        varint::write_u32(out, id - prev);
        prev = id;
    }
}

/// Reads a list [`write_ascending`] wrote; an id past `u32` or one
/// that does not ascend is an error (the lists are kept sorted and
/// distinct everywhere they land).
fn read_ascending(r: &mut varint::VarintReader<'_>) -> Result<Vec<u32>, CoreError> {
    let n = bounded_count(r)?;
    let mut ids: Vec<u32> = Vec::with_capacity(n);
    for i in 0..n {
        let delta = r.read_u64()?;
        let id = delta.saturating_add(ids.last().map_or(0, |&c| c.into()));
        if (i > 0 && delta == 0) || id > u32::MAX.into() {
            return Err(CoreError::Codec("ids do not ascend".into()));
        }
        ids.push(id as u32);
    }
    Ok(ids)
}

/// Reads an element count, bounded by the bytes left to hold that many
/// elements (each takes at least one) — before anything is allocated
/// for it.
fn bounded_count(r: &mut varint::VarintReader<'_>) -> Result<usize, CoreError> {
    let n = r.read_u64()?;
    if n > r.remaining().len() as u64 {
        return Err(CoreError::Codec("count exceeds input".into()));
    }
    Ok(n as usize)
}

/// The backend key of chunk `c`'s base map.
fn chunk_map_key(c: u32) -> Key {
    table_key(CMAP_TABLE, &ChunkId(c).to_key())
}

/// The backend key of generation record `seq`.
fn record_key(seq: u64) -> Key {
    let mut name = b"gen/".to_vec();
    name.extend_from_slice(&seq.to_be_bytes());
    table_key(META_TABLE, &name)
}

/// The backend key of the checkpoint.
fn checkpoint_key() -> Key {
    table_key(META_TABLE, b"checkpoint")
}

/// The backend key of version `v`'s entry in the delta store.
pub(crate) fn delta_key(v: VersionId) -> Key {
    table_key(DELTA_TABLE, &v.as_u32().to_be_bytes())
}

/// Refuses to create a store over a backend that holds one: any of
/// the keys `reopen` reads first — the checkpoint, the first
/// generation record or the first delta — is there. A new root
/// written over them would leave the old commit log pointing at
/// overwritten chunks, and every version would be lost. The three
/// keys are read through the ring, so a key with no live replica
/// fails the create, and then from every live node, because a cluster
/// of another node count places them elsewhere than the store did.
pub(crate) fn refuse_existing_store(cluster: &Cluster) -> Result<(), CoreError> {
    let keys = || vec![checkpoint_key(), record_key(1), delta_key(VersionId(0))];
    let held = |values: &[Option<_>]| values.iter().any(Option::is_some);
    let refused = || {
        Err(CoreError::BadCommit(
            "the backend already holds a store; reopen it instead".into(),
        ))
    };
    if held(&cluster.multi_get_owned(keys())?) {
        return refused();
    }
    for node in 0..cluster.node_count() {
        match cluster.fetch_from(node, keys()) {
            Ok(reply) if held(&reply.values) => return refused(),
            Ok(_) | Err(KvError::NodeDown(_) | KvError::NodeGone(_)) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Where the writer stands in the commit log.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LogPosition {
    /// Sequence number of the last committed record (0 = none yet).
    pub(crate) seq: u64,
    /// Sequence number the checkpoint covers (0 = no checkpoint).
    pub(crate) checkpoint_seq: u64,
    /// Bytes of that checkpoint.
    checkpoint_bytes: usize,
    /// Bytes of the records after it.
    log_bytes: usize,
}

impl LogPosition {
    /// Records committed since the checkpoint.
    pub(crate) fn records_since_checkpoint(&self) -> u64 {
        self.seq - self.checkpoint_seq
    }

    fn checkpoint_due(&self) -> bool {
        self.records_since_checkpoint() >= 2
            && self.log_bytes >= CHECKPOINT_FACTOR * self.checkpoint_bytes
    }
}

/// A chunk a generation creates, as its record lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewChunk {
    /// The slot the chunk takes.
    pub id: u32,
    /// Compressed bytes of its blob.
    pub bytes: usize,
    /// Records it holds (its map's bitmap length).
    pub records: usize,
}

/// The chunk-map entries a generation adds to one chunk that existed
/// before it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapAppend {
    /// The chunk.
    pub chunk: u32,
    /// How many entries.
    pub entries: usize,
    /// The entries as they appear in a serialized map's entry region.
    pub bytes: Vec<u8>,
}

/// What one generation changed — the value of its commit record.
/// Applying the records in sequence to an empty store rebuilds the
/// persistent metadata; a checkpoint is the record that does it in one
/// step.
#[doc(hidden)]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenerationRecord {
    /// Position in the commit log, from 1.
    pub seq: u64,
    /// The first version whose graph node this generation persists;
    /// `parents` lists the parents of that version and the ones after
    /// it (first parent = primary; none = the root). Only *flushed*
    /// versions are in the log — a commit still waiting in the delta
    /// store is in neither.
    pub first_version: u32,
    pub parents: Vec<Vec<VersionId>>,
    /// Chunk id slots after the generation.
    pub chunk_slots: usize,
    /// Chunks created (a listed id leaves the free set).
    pub new_chunks: Vec<NewChunk>,
    /// Chunk ids retired, ascending: they vanish from the projections
    /// and keep a tombstone slot.
    pub retired: Vec<u32>,
    /// Retired ids moved to the free set, ascending (one at or past
    /// `chunk_slots` is truncated with its slot instead).
    pub freed: Vec<u32>,
    /// New chunk-map entries of chunks that existed before, ascending
    /// by chunk (a created chunk's entries are in its base map).
    pub map_entries: Vec<MapAppend>,
}

impl GenerationRecord {
    /// Serializes the record (varints throughout).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![RECORD_TAG];
        varint::write_u64(&mut out, self.seq);
        varint::write_u32(&mut out, self.first_version);
        varint::write_u64(&mut out, self.parents.len() as u64);
        for parents in &self.parents {
            varint::write_u64(&mut out, parents.len() as u64);
            for p in parents {
                varint::write_u32(&mut out, p.as_u32());
            }
        }
        varint::write_u64(&mut out, self.chunk_slots as u64);
        varint::write_u64(&mut out, self.new_chunks.len() as u64);
        for c in &self.new_chunks {
            varint::write_u32(&mut out, c.id);
            varint::write_u64(&mut out, c.bytes as u64);
            varint::write_u64(&mut out, c.records as u64);
        }
        write_ascending(&mut out, &self.retired);
        write_ascending(&mut out, &self.freed);
        varint::write_u64(&mut out, self.map_entries.len() as u64);
        for m in &self.map_entries {
            varint::write_u32(&mut out, m.chunk);
            varint::write_u64(&mut out, m.entries as u64);
            varint::write_u64(&mut out, m.bytes.len() as u64);
            out.extend_from_slice(&m.bytes);
        }
        out
    }

    /// Reads a record [`GenerationRecord::encode`] wrote. Any other
    /// input is an error: counts are bounded by the bytes left before
    /// anything is allocated for them.
    pub fn decode(input: &[u8]) -> Result<Self, CoreError> {
        let Some((&RECORD_TAG, body)) = input.split_first() else {
            return Err(CoreError::Codec("not a generation record".into()));
        };
        let mut r = varint::VarintReader::new(body);
        let seq = r.read_u64()?;
        let first_version = r.read_u32()?;
        let n = bounded_count(&mut r)?;
        let mut parents = Vec::with_capacity(n);
        for _ in 0..n {
            let arity = bounded_count(&mut r)?;
            let mut list = Vec::with_capacity(arity);
            for _ in 0..arity {
                list.push(VersionId(r.read_u32()?));
            }
            parents.push(list);
        }
        let chunk_slots = r.read_u64()? as usize;
        let n = bounded_count(&mut r)?;
        let mut new_chunks = Vec::with_capacity(n);
        for _ in 0..n {
            new_chunks.push(NewChunk {
                id: r.read_u32()?,
                bytes: r.read_u64()? as usize,
                records: r.read_u64()? as usize,
            });
        }
        let retired = read_ascending(&mut r)?;
        let freed = read_ascending(&mut r)?;
        let n = bounded_count(&mut r)?;
        let mut map_entries = Vec::with_capacity(n);
        for _ in 0..n {
            let chunk = r.read_u32()?;
            let entries = r.read_u64()? as usize;
            let len = r.read_u64()? as usize;
            let bytes = r.read_bytes(len)?.to_vec();
            map_entries.push(MapAppend { chunk, entries, bytes });
        }
        if !r.is_empty() {
            return Err(CoreError::Codec("trailing bytes in generation record".into()));
        }
        Ok(Self {
            seq,
            first_version,
            parents,
            chunk_slots,
            new_chunks,
            retired,
            freed,
            map_entries,
        })
    }
}

impl StoreMut {
    /// Applies a record's slot edits — the part a live commit and a
    /// restart's replay share. A created chunk's slot gets an empty map
    /// as wide as its records; the entries are the caller's: a commit
    /// holds them decoded, a replay collects their bytes until it knows
    /// which chunks live.
    pub(crate) fn apply_edits(&mut self, rec: &GenerationRecord) {
        if rec.chunk_slots > self.slots.len() {
            Arc::make_mut(&mut self.slots).resize_with(rec.chunk_slots, Slot::default);
        }
        for c in &rec.new_chunks {
            let map = Arc::new(ChunkMap::new(c.records));
            let slot = Slot { map, bytes: c.bytes, state: SlotState::Live, ..Slot::default() };
            self.set_slot(c.id, slot);
        }
        // A retired id keeps an empty tombstone slot until a
        // reclamation pass frees or truncates it; its keys wait for
        // the drain, which defers them past any older pin.
        let state = SlotState::Retired {
            at: self.generation + 1,
            keys_pending: true,
        };
        for &c in &rec.retired {
            self.set_slot(c, Slot { state, ..Slot::default() });
        }
        for &c in &rec.freed {
            Arc::make_mut(&mut self.slots)[c as usize].state = SlotState::Free;
        }
        if rec.chunk_slots < self.slots.len() {
            // Trailing freed slots shrink the id space outright.
            Arc::make_mut(&mut self.slots).truncate(rec.chunk_slots);
        }
        self.flushed_versions = self
            .flushed_versions
            .max(rec.first_version as usize + rec.parents.len());
    }

    /// The whole persistent state as the one record that builds it from
    /// nothing — a checkpoint's value. Map entries are carried only
    /// past each chunk's base map, which stays where it is.
    fn checkpoint_record(&self) -> GenerationRecord {
        let mut rec = GenerationRecord {
            seq: self.log.seq,
            parents: self.graph.nodes()[..self.flushed_versions]
                .iter()
                .map(|n| n.parents.clone())
                .collect(),
            chunk_slots: self.slots.len(),
            ..GenerationRecord::default()
        };
        for (c, slot) in (0u32..).zip(self.slots.iter()) {
            match slot.state {
                SlotState::Live => {
                    let records = slot.map.num_records();
                    rec.new_chunks.push(NewChunk { id: c, bytes: slot.bytes, records });
                    let (entries, bytes) = slot.map.encode_from(slot.base_entries);
                    if entries > 0 {
                        rec.map_entries.push(MapAppend { chunk: c, entries, bytes });
                    }
                }
                SlotState::Retired { .. } => rec.retired.push(c),
                SlotState::Free => rec.freed.push(c),
            }
        }
        rec
    }
}

/// A restart's replay of the commit log: the state the records have
/// built so far, plus what only the end of the log settles — which
/// chunks live, and so whose logged map entries are worth decoding.
struct LogReplay {
    st: StoreMut,
    /// Map entries logged per chunk, in log order, parked until the
    /// live set is known; a chunk that retires takes its own with it.
    appends: FxHashMap<u32, Vec<MapAppend>>,
}

impl LogReplay {
    /// One step: checks `rec` against the state the log has built so
    /// far — it arrives from the backend — then applies it.
    fn apply(&mut self, rec: GenerationRecord) -> Result<(), CoreError> {
        let st = &mut self.st;
        let bad = |what: &str| CoreError::Codec(format!("generation record {}: {what}", rec.seq));
        if rec.first_version as usize != st.graph.len() && !rec.parents.is_empty() {
            return Err(bad("its versions do not follow the graph"));
        }
        let graph = Arc::make_mut(&mut st.graph);
        for parents in &rec.parents {
            let v = graph.len();
            if parents.iter().any(|p| p.index() >= v) || parents.is_empty() != (v == 0) {
                return Err(bad("a version's parents are not older versions"));
            }
            if v == 0 {
                graph.add_root();
            } else {
                graph.add_version(parents);
            }
        }
        // Slots grow only by the chunks a record names.
        let before = st.slots.len();
        let named = rec.new_chunks.len() + rec.retired.len() + rec.freed.len();
        if rec.chunk_slots > before + named {
            return Err(bad("more chunk slots than it has chunks for"));
        }
        let slots = before.max(rec.chunk_slots);
        let known = |c: u32| (c as usize) < slots;
        if !rec.new_chunks.iter().all(|c| (c.id as usize) < rec.chunk_slots)
            || !rec.retired.iter().chain(&rec.freed).all(|&c| known(c))
            || !rec.map_entries.iter().all(|m| known(m.chunk))
        {
            return Err(bad("an id is out of range"));
        }
        // A record may retire a live chunk, but never create one over
        // it, free it or truncate its slot. (A checkpoint starts from
        // no slots, so every id it names is fresh.)
        let live = |c: u32| st.slots.get(c as usize).is_some_and(|s| s.state == SlotState::Live);
        if rec.new_chunks.iter().any(|c| live(c.id))
            || rec.freed.iter().any(|&c| live(c))
            || (rec.chunk_slots as u32..before as u32).any(live)
        {
            return Err(bad("it overwrites or frees a live chunk"));
        }
        st.apply_edits(&rec);
        // A retired chunk takes its logged entries with it, and a
        // created one starts over.
        for c in rec.retired.iter().chain(rec.new_chunks.iter().map(|c| &c.id)) {
            self.appends.remove(c);
        }
        for m in rec.map_entries {
            self.appends.entry(m.chunk).or_default().push(m);
        }
        Ok(())
    }
}

/// Loads the persistent state: the checkpoint, the records after it in
/// sequence, then the live chunks' base maps with every logged entry
/// appended — the one reader of the `meta` and `cmaps` tables (a
/// running store serves its maps from memory). The returned state has
/// no locator, contents, projections or pending commits yet:
/// [`derive_from_blobs`] derives the first three from the live chunks'
/// blobs, and [`RStore::reopen`] re-admits the last from the delta
/// store.
///
/// The log is walked without a key listing: windows of consecutive
/// sequence numbers, one scatter-gather get each, until one comes back
/// with a hole. A record missing *before* a present one is damage, not
/// the end of the log — [`CoreError::Codec`], never a skip. (No
/// checkpoint and no first record is the empty state: a store that
/// has not flushed yet.) A live chunk whose base map is missing is
/// [`CoreError::MissingChunk`].
pub(crate) fn load_persisted(cluster: &Cluster, workers: usize) -> Result<StoreMut, CoreError> {
    let mut replay = LogReplay {
        st: StoreMut::empty(),
        appends: FxHashMap::default(),
    };
    // The checkpoint is the one key the log writes over in place, so
    // a replica that was down for the last checkpoint (its hint died
    // with the process) holds an older one: every live replica is
    // asked, and the newest copy is the checkpoint.
    let mut newest: Option<(GenerationRecord, usize)> = None;
    for node in cluster.replicas_of(&checkpoint_key())? {
        let copy = cluster.fetch_from(node, vec![checkpoint_key()])?.values;
        for bytes in copy.into_iter().flatten() {
            let record = GenerationRecord::decode(&bytes)?;
            if newest.as_ref().is_none_or(|(n, _)| record.seq > n.seq) {
                newest = Some((record, bytes.len()));
            }
        }
    }
    if let Some((checkpoint, bytes)) = newest {
        replay.st.log = LogPosition {
            seq: checkpoint.seq,
            checkpoint_seq: checkpoint.seq,
            checkpoint_bytes: bytes,
            log_bytes: 0,
        };
        replay.apply(checkpoint)?;
    }
    let mut window = RECORD_WINDOW;
    loop {
        let first = replay.st.log.seq + 1;
        let fetched = cluster.multi_get_owned((first..first + window).map(record_key).collect())?;
        let present = fetched.iter().take_while(|r| r.is_some()).count();
        if fetched[present..].iter().any(Option::is_some) {
            return Err(CoreError::Codec(format!(
                "generation record {} is missing before a later one",
                first + present as u64
            )));
        }
        for bytes in fetched.into_iter().flatten() {
            let rec = GenerationRecord::decode(&bytes)?;
            if rec.seq != replay.st.log.seq + 1 {
                return Err(CoreError::Codec(format!(
                    "generation record {} is stored as record {}",
                    rec.seq,
                    replay.st.log.seq + 1
                )));
            }
            replay.apply(rec)?;
            replay.st.log.seq += 1;
            replay.st.log.log_bytes += bytes.len();
        }
        // Stop at a hole with at least one absent key looked at past
        // it; a window that ended on its hole looks once more.
        if present as u64 + 1 < window {
            break;
        }
        window *= 2;
    }
    // The maps: one scatter-gather get of the live chunks' base maps,
    // then each decodes and takes its logged entries on `workers`
    // threads. Retired ids keep empty tombstone slots so ids never
    // shift, with their keys pending: whether an earlier process
    // deleted them is not logged, so this one's first drain does.
    let LogReplay { mut st, mut appends } = replay;
    let live = st.live_chunk_ids();
    let stored = cluster.multi_get_owned(live.iter().map(|&c| chunk_map_key(c)).collect())?;
    let jobs: Vec<_> = live
        .iter()
        .zip(stored)
        .map(|(&c, base)| {
            let records = st.slots[c as usize].map.num_records();
            (c, base, records, appends.remove(&c).unwrap_or_default())
        })
        .collect();
    let maps = plan::parallel_map(jobs, workers, |(c, base, records, logged)| {
        let mut map = ChunkMap::deserialize(&base.ok_or(CoreError::MissingChunk(c))?)?;
        if map.num_records() != records {
            return Err(CoreError::Codec(format!(
                "chunk {c}'s base map covers {} records, its generation record says {records}",
                map.num_records()
            )));
        }
        let base_entries = map.num_versions();
        for m in logged {
            map.push_encoded(m.entries, &m.bytes)?;
        }
        Ok((map, base_entries))
    });
    // The probe floor is not persisted: after a restart the cache is
    // empty, so generation 1 (the initial publish) is a sound floor.
    for (&c, map) in live.iter().zip(maps) {
        let (map, base_entries) = map?;
        st.set_chunk_map(c, Arc::new(map), base_entries, 1);
    }
    Ok(st)
}

/// What a restart derives rather than reads — the locator, every
/// version's contents and the projections — from the state
/// [`load_persisted`] returned and the live chunks' blobs: `blobs`
/// pairs each live chunk, ascending, with its blob's compressed bytes
/// and its records' keys in local order. The maps are transposed once
/// ([`chunkmap::by_version`]) for both the contents and the version
/// projection. A blob of another size than its record logged (another
/// generation's, left under a reused id) or with another record count
/// than its map is [`CoreError::Codec`], as is what
/// [`contents_from_maps`] rejects.
pub(crate) fn derive_from_blobs(
    st: &mut StoreMut,
    blobs: &[(u32, usize, &[CompositeKey])],
) -> Result<(), CoreError> {
    st.locator.reserve(blobs.iter().map(|b| b.2.len()).sum());
    let mut maps = Vec::with_capacity(blobs.len());
    for &(c, stored, keys) in blobs {
        let slot = &st.slots[c as usize];
        let bad = |what: String| Err(CoreError::Codec(format!("chunk {c} {what}")));
        if stored != slot.bytes {
            return bad(format!("is {stored} bytes, its generation record says {}", slot.bytes));
        }
        if keys.len() != slot.map.num_records() {
            return bad(format!("holds {} records, its map covers {}", keys.len(), slot.map.num_records()));
        }
        maps.push(Arc::clone(&slot.map));
        for (local, ck) in keys.iter().enumerate() {
            st.locator.insert(*ck, (c, local as u32));
        }
    }
    let versions = st.graph.len();
    let touched = chunkmap::by_version(maps.iter().map(|m| &**m), versions)?;
    let keys: Vec<&[CompositeKey]> = blobs.iter().map(|b| b.2).collect();
    st.contents = contents_from_maps(&st.graph, &keys, &touched)?;
    st.record_counts = Arc::new(st.contents.iter().map(Vec::len).collect());
    let entries = (0u32..).zip(&touched).flat_map(|(v, list)| {
        list.iter().map(move |&(at, members)| (VersionId(v), blobs[at].0, members))
    });
    let records = blobs.iter().flat_map(|&(c, _, keys)| keys.iter().map(move |ck| (ck.pk, c)));
    let mut projections = Projections::new();
    projections.add_chunks(versions, entries, records);
    st.projections = Arc::new(projections);
    Ok(())
}

/// Every version's contents — sorted `(pk, origin)` pairs — rebuilt
/// from the live chunks' local keys (`keys`) and their maps transposed
/// to per-version lists (`touched`, [`chunkmap::by_version`]), each
/// version from its primary parent's: `contents[p] − removed + added`,
/// the shape [`stage_index`] writes the maps in. For every chunk a
/// version or its parent touches, the records set for the version and
/// not the parent are added and those set for the parent and not the
/// version removed, a word at a time ([`Bitmap::iter_difference`]). A
/// root's contents are collected and sorted once. The cost is the
/// history's chunk-map entries plus a copy of each version's list — no
/// record is hashed.
///
/// A version that would hold one key twice is [`CoreError::Codec`].
pub(crate) fn contents_from_maps(
    graph: &VersionGraph,
    keys: &[&[CompositeKey]],
    touched: &[Vec<(usize, &Bitmap)>],
) -> Result<Vec<Vec<(PrimaryKey, VersionId)>>, CoreError> {
    let record = |at: usize, local: usize| {
        let ck = keys[at][local];
        (ck.pk, ck.origin)
    };
    let none = Bitmap::default();
    let mut contents: Vec<Vec<(PrimaryKey, VersionId)>> = Vec::with_capacity(graph.len());
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    for v in graph.ids() {
        let mine = &touched[v.index()];
        let Some(p) = graph.node(v).primary_parent() else {
            let mut list: Vec<_> = mine
                .iter()
                .flat_map(|&(at, members)| members.iter_ones().map(move |local| record(at, local)))
                .collect();
            list.sort_unstable();
            if let Some(w) = list.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(CoreError::Codec(format!("by its chunk maps, {v} holds K{} twice", w[0].0)));
            }
            contents.push(list);
            continue;
        };
        // Merge-join the two chunk lists; a chunk on one side only
        // differs from an empty bitmap on the other.
        let theirs = &touched[p.index()];
        let (mut i, mut j) = (0, 0);
        added.clear();
        removed.clear();
        while i < mine.len() || j < theirs.len() {
            let a = mine.get(i).map_or(usize::MAX, |e| e.0);
            let b = theirs.get(j).map_or(usize::MAX, |e| e.0);
            let at = a.min(b);
            let m = if a == at {
                i += 1;
                mine[i - 1].1
            } else {
                &none
            };
            let t = if b == at {
                j += 1;
                theirs[j - 1].1
            } else {
                &none
            };
            added.extend(m.iter_difference(t).map(|local| record(at, local)));
            removed.extend(t.iter_difference(m).map(|local| record(at, local)));
        }
        added.sort_unstable();
        removed.sort_unstable();
        let list = apply_changes(&contents[p.index()], &removed, &added)
            .map_err(|what| CoreError::Codec(format!("by its chunk maps, {v} {what}")))?;
        contents.push(list);
    }
    Ok(contents)
}

/// Commit `v`'s contents from its primary parent's and its delta:
/// `parent − removed + added`, every added record originating at `v`.
/// One derivation for a live commit and a re-admitted one.
pub(crate) fn commit_contents(
    parent: &[(PrimaryKey, VersionId)],
    v: VersionId,
    delta: &VersionDelta,
) -> Result<Vec<(PrimaryKey, VersionId)>, String> {
    let mut removed: Vec<_> = delta.removed.iter().map(|ck| (ck.pk, ck.origin)).collect();
    let mut added: Vec<_> = delta.added.iter().map(|rec| (rec.pk, v)).collect();
    removed.sort_unstable();
    added.sort_unstable();
    apply_changes(parent, &removed, &added)
}

/// Serializes one delta-store entry: the commit's parents, the records
/// it adds (their origin is the version itself) and the composite keys
/// it removes — everything a restart needs to re-admit the commit.
pub(crate) fn encode_delta(parents: &[VersionId], delta: &VersionDelta) -> Vec<u8> {
    let payload: usize = delta.added.iter().map(|r| r.payload.len() + 12).sum();
    let mut out = Vec::with_capacity(16 + payload + delta.removed.len() * 8);
    varint::write_u64(&mut out, parents.len() as u64);
    for p in parents {
        varint::write_u32(&mut out, p.as_u32());
    }
    varint::write_u64(&mut out, delta.added.len() as u64);
    for rec in &delta.added {
        varint::write_u64(&mut out, rec.pk);
        varint::write_u64(&mut out, rec.payload.len() as u64);
        out.extend_from_slice(&rec.payload);
    }
    varint::write_u64(&mut out, delta.removed.len() as u64);
    for ck in &delta.removed {
        varint::write_u64(&mut out, ck.pk);
        varint::write_u32(&mut out, ck.origin.as_u32());
    }
    out
}

/// Reads the delta-store entry of version `v` ([`encode_delta`]).
pub(crate) fn decode_delta(
    v: VersionId,
    input: &[u8],
) -> Result<(Vec<VersionId>, VersionDelta), CoreError> {
    let mut r = varint::VarintReader::new(input);
    let n = bounded_count(&mut r)?;
    let mut parents = Vec::with_capacity(n);
    for _ in 0..n {
        parents.push(VersionId(r.read_u32()?));
    }
    let n = bounded_count(&mut r)?;
    let mut added = Vec::with_capacity(n);
    for _ in 0..n {
        let pk = r.read_u64()?;
        let len = r.read_u64()? as usize;
        added.push(Record::new(pk, v, Bytes::copy_from_slice(r.read_bytes(len)?)));
    }
    let n = bounded_count(&mut r)?;
    let mut removed = Vec::with_capacity(n);
    for _ in 0..n {
        removed.push(CompositeKey::new(r.read_u64()?, VersionId(r.read_u32()?)));
    }
    if !r.is_empty() {
        return Err(CoreError::Codec(format!("trailing bytes in the delta of {v}")));
    }
    Ok((parents, VersionDelta::from_parts(added, removed)))
}

// ------------------------------------------------------------------
// Staging: what a generation will write, not yet applied
// ------------------------------------------------------------------

/// The `n` chunk id slots a generation will occupy — reclaimed free
/// slots first (ascending; the bounded-id-space guarantee), then fresh
/// ids past the tail — **without mutating** the writer state: backend
/// writes are addressed with the peeked ids and the slots are taken
/// only once those writes and the commit record are durable (the state
/// lock is held throughout, so nothing allocates in between).
fn peek_chunk_ids(st: &StoreMut, n: usize) -> Vec<u32> {
    let free = (0u32..).zip(st.slots.iter()).filter(|(_, s)| s.state == SlotState::Free);
    free.map(|(c, _)| c).chain(st.slots.len() as u32..).take(n).collect()
}

/// The chunks a generation creates, staged against peeked ids: nothing
/// here is in the writer state yet.
pub(crate) struct StagedChunks {
    /// Chunk id per new chunk.
    pub(crate) ids: Vec<u32>,
    /// Compressed bytes per new chunk.
    sizes: Vec<usize>,
    /// Records per new chunk (its map's bitmap length).
    pub(crate) counts: Vec<usize>,
    /// `(new-chunk ordinal, chunk-local ordinal)` of every placed
    /// record, by the caller's record ordinal: the chunk's id is
    /// `ids[ordinal]` and its record count `counts[ordinal]`.
    pub(crate) slots: Vec<(u32, u32)>,
    /// The same placement by composite key and chunk id, in chunk
    /// order.
    placed: Vec<(CompositeKey, (u32, u32))>,
}

/// The `(version, members)` entries a generation adds to one chunk's
/// map, ascending by version.
pub(crate) type MapEntries = Vec<(VersionId, Bitmap)>;

/// The index as the oracles compare it: the serialized map of every
/// live chunk (ascending ids) and the projections.
#[doc(hidden)]
pub type SerializedIndex = (Vec<(u32, Vec<u8>)>, Projections);

/// A generation's chunk-map entries per dirty chunk, derived by the
/// caller's index pass and not yet applied.
pub(crate) type StagedIndex = FxHashMap<u32, MapEntries>;

/// Derives the chunk-map entries of `batch` (ascending versions, each
/// with the delta from its primary parent) without touching the writer
/// state — the index pass of the bulk load and the flush.
///
/// `contents[v] = contents[parent(v)] − removed + added` holds for
/// every version, so a version's membership in a chunk is its parent's
/// bitmap there with the removed records' bits cleared and the added
/// records' bits set: the cost is the parent's span plus the delta,
/// not the version's width. The parent's bitmaps come from the
/// resident maps, or from this same staging when the parent is part of
/// the batch. `ord_of` resolves a record this generation places to the ordinal
/// the caller gave it; everything else is in the locator.
pub(crate) fn stage_index(
    st: &StoreMut,
    batch: &[(VersionId, &VersionDelta)],
    chunks: &StagedChunks,
    ord_of: impl Fn(&CompositeKey) -> Option<u32>,
) -> StagedIndex {
    let locate = |ck: &CompositeKey| -> (u32, u32) {
        ord_of(ck)
            .map(|ord| chunks.slots[ord as usize])
            .map(|(n, local)| (chunks.ids[n as usize], local))
            .or_else(|| st.locator.get(ck).copied())
            .unwrap_or_else(|| panic!("record {ck} not placed"))
    };
    let mut staged = StagedIndex::default();
    // Per batch version, ascending: the chunks its entries went to.
    let mut spans: Vec<(VersionId, Vec<u32>)> = Vec::with_capacity(batch.len());
    for &(v, delta) in batch {
        let mut members: Vec<(u32, Bitmap)> = match st.graph.node(v).primary_parent() {
            None => Vec::new(),
            Some(p) => match spans.binary_search_by_key(&p, |e| e.0) {
                Ok(i) => spans[i]
                    .1
                    .iter()
                    .map(|&c| {
                        let entries = &staged[&c];
                        let at = entries
                            .binary_search_by_key(&p, |e| e.0)
                            .expect("staged parent entry");
                        (c, entries[at].1.clone())
                    })
                    .collect(),
                Err(_) => st
                    .projections
                    .chunks_of_version(p)
                    .iter()
                    .map(|&c| {
                        let parent = st.slots[c as usize].map.members_of(p);
                        (c, parent.expect("parent indexed in its span").clone())
                    })
                    .collect(),
            },
        };
        for ck in &delta.removed {
            let (chunk, local) = locate(ck);
            let at = members
                .binary_search_by_key(&chunk, |m| m.0)
                .unwrap_or_else(|_| panic!("removed record {ck} not in the parent's span"));
            members[at].1.clear(local as usize);
        }
        for rec in &delta.added {
            // Added records land in this generation's chunks.
            let ck = rec.composite_key();
            let ord = ord_of(&ck).unwrap_or_else(|| panic!("added record {ck} not placed"));
            let (n, local) = chunks.slots[ord as usize];
            let chunk = chunks.ids[n as usize];
            let at = match members.binary_search_by_key(&chunk, |m| m.0) {
                Ok(at) => at,
                Err(at) => {
                    members.insert(at, (chunk, Bitmap::new(chunks.counts[n as usize])));
                    at
                }
            };
            members[at].1.set(local as usize);
        }
        let mut span = Vec::with_capacity(members.len());
        for (chunk, bitmap) in members {
            if bitmap.count_ones() > 0 {
                span.push(chunk);
                staged.entry(chunk).or_default().push((v, bitmap));
            }
        }
        spans.push((v, span));
    }
    staged
}

/// A staged group's encoded sub-chunk.
pub(crate) enum Encoded {
    /// Encoded by this generation.
    Built(SubChunk),
    /// `Carried(c, at)`: sub-chunk `at` of the generation's source
    /// chunk `c`, whose members are the group's, in order: its bytes
    /// are what encoding the group would produce, so they are carried
    /// whole.
    Carried(u32, u32),
}

impl Encoded {
    /// The sub-chunk, wherever it lives: carried ones in `sources`.
    pub(crate) fn subchunk<'a>(&'a self, sources: &'a [Arc<DecodedChunk>]) -> &'a SubChunk {
        match *self {
            Encoded::Built(ref sc) => sc,
            Encoded::Carried(c, at) => &sources[c as usize].chunk.subchunks[at as usize],
        }
    }
}

/// A generation past its stage step: sub-chunks encoded, partitioner
/// run, nothing written. The caller reads what its report (or its
/// cutover guard) needs and hands it to [`RStore::commit_generation`],
/// or drops it.
pub(crate) struct StagedGeneration {
    /// Sub-chunk groups of the caller's record ordinals.
    pub(crate) groups: Vec<Vec<u32>>,
    /// The encoded sub-chunks, aligned with `groups`.
    pub(crate) subchunks: Vec<Encoded>,
    /// The fetched chunks the carried sub-chunks live in.
    pub(crate) sources: Vec<Arc<DecodedChunk>>,
    /// Which candidate chunk each group landed in.
    pub(crate) partitioning: Partitioning,
    /// `subchunk`, `partition` and `workers` are filled in so far.
    stages: IngestStages,
}

/// What [`RStore::commit_generation`] did.
pub(crate) struct CommittedGeneration {
    /// Chunks the generation created.
    pub(crate) new_chunks: usize,
    /// Older chunk maps the index pass appended to (their entries are
    /// in the commit record; no stored map is rewritten).
    pub(crate) maps_appended: usize,
    /// Key + value bytes of the chunk blobs and base maps written
    /// (before replication).
    pub(crate) bytes_written: usize,
    /// Bytes of the generation's commit record.
    pub(crate) record_bytes: usize,
    /// The full stage breakdown.
    pub(crate) stages: IngestStages,
}

impl RStore {
    /// Step 1 of the generation writer: encodes one sub-chunk per
    /// group of record ordinals (`record` gives an ordinal's key and
    /// payload; a group's first member is its delta-encoding root) and
    /// partitions the groups over the version tree. A group for which
    /// `carry` names an already encoded sub-chunk of `sources` with the
    /// same members is not encoded again, and its payloads are never
    /// asked for. `version_items[v]` lists the sorted group ordinals
    /// version `v` holds. Touches neither the backend nor the writer
    /// state.
    pub(crate) fn stage_generation<'a>(
        &self,
        st: &StoreMut,
        record: impl Fn(u32) -> (CompositeKey, &'a [u8]) + Sync,
        groups: Vec<Vec<u32>>,
        carry: impl Fn(&[u32]) -> Option<Encoded> + Sync,
        sources: Vec<Arc<DecodedChunk>>,
        version_items: &[Vec<u32>],
    ) -> StagedGeneration {
        let workers = self.ingest_workers();
        let mut stages = IngestStages {
            workers,
            ..IngestStages::default()
        };
        let t = Instant::now();
        let subchunks: Vec<Encoded> = plan::parallel_map(groups.iter().collect(), workers, |members| {
            carry(members).unwrap_or_else(|| {
                let members: Vec<(CompositeKey, &[u8])> = members.iter().map(|&o| record(o)).collect();
                Encoded::Built(SubChunk::build(&members))
            })
        });
        stages.subchunk = t.elapsed();

        // A generation that places nothing (a delete-only flush) has
        // nothing to partition.
        let mut partitioning = Partitioning::default();
        if !groups.is_empty() {
            let parts = || subchunks.iter().map(|s| s.subchunk(&sources));
            let item_sizes: Vec<u32> = parts().map(|sc| sc.compressed_bytes() as u32).collect();
            let item_pk: Vec<u64> = parts().map(|sc| sc.members[0].pk).collect();
            let tree = st.graph.to_tree();
            let input = PartitionInput {
                tree: &tree,
                version_items,
                item_sizes: &item_sizes,
                item_pk: &item_pk,
            };
            let partitioner = self.config.partitioner.build(self.config.chunk_capacity);
            let t = Instant::now();
            partitioning = partitioner.partition(&input);
            stages.partition = t.elapsed();
        }
        StagedGeneration {
            groups,
            subchunks,
            sources,
            partitioning,
            stages,
        }
    }

    /// Steps 2 and 3 of the generation writer (see the module docs):
    /// writes `staged`'s chunks and their base maps, commits the
    /// generation's record — which also flushes the versions up to
    /// `flushed_versions` and retires the chunks in `retire` — and only
    /// then applies the generation to the writer state and publishes
    /// it. Any error returns with the writer state untouched, so the
    /// caller can retry the same input.
    pub(crate) fn commit_generation(
        &self,
        st: &mut StoreMut,
        staged: StagedGeneration,
        flushed_versions: usize,
        retire: &[u32],
        index: impl FnOnce(&StoreMut, &StagedChunks) -> StagedIndex,
    ) -> Result<CommittedGeneration, CoreError> {
        let StagedGeneration {
            groups,
            subchunks,
            sources,
            partitioning,
            mut stages,
        } = staged;
        let workers = stages.workers;

        // Assemble: list each chunk's sub-chunks and record the
        // placement (serial, cheap) against the id slots the commit
        // will take, then serialize each chunk on its own core,
        // streaming blobs out while later chunks are still encoding.
        let t = Instant::now();
        let chunk_items = partitioning.chunk_items();
        let records: usize = groups.iter().map(Vec::len).sum();
        let mut chunks = StagedChunks {
            ids: peek_chunk_ids(st, chunk_items.len()),
            sizes: Vec::with_capacity(chunk_items.len()),
            counts: Vec::with_capacity(chunk_items.len()),
            slots: vec![(0, 0); records],
            placed: Vec::with_capacity(records),
        };
        let mut jobs: Vec<(u32, Vec<&SubChunk>)> = Vec::with_capacity(chunk_items.len());
        for (n, (items, &chunk_id)) in chunk_items.iter().zip(&chunks.ids).enumerate() {
            let parts: Vec<&SubChunk> = items
                .iter()
                .map(|&g| subchunks[g as usize].subchunk(&sources))
                .collect();
            let mut local = 0u32;
            for (&g, sc) in items.iter().zip(&parts) {
                for (&ord, &ck) in groups[g as usize].iter().zip(sc.members.iter()) {
                    chunks.slots[ord as usize] = (n as u32, local);
                    chunks.placed.push((ck, (chunk_id, local)));
                    local += 1;
                }
            }
            chunks
                .sizes
                .push(parts.iter().map(|sc| sc.compressed_bytes()).sum());
            chunks.counts.push(local as usize);
            jobs.push((chunk_id, parts));
        }
        let outcome = stream_chunk_blobs(&self.cluster, workers, jobs)?;
        stages.assemble = t.elapsed();
        outcome.fold_into(&mut stages);
        let mut bytes_written = outcome.summary.bytes;

        // Index: the caller's pass derives the entries; then
        // independent per-chunk encodes. A new chunk's entries make its
        // base map, whole — every new chunk gets one even if no version
        // holds its records, so a restart never finds a blob without
        // its other half. An older chunk's entries are encoded as the
        // bytes its map's entry region would grow by, for the record.
        let t = Instant::now();
        let mut index = index(st, &chunks);
        // The new chunks claim their entries first, so a reused free
        // slot's tombstone map finds none and stays out of the record.
        let jobs: Vec<(u32, usize, MapEntries)> = (chunks.ids.iter())
            .zip(&chunks.counts)
            .map(|(&c, &n)| (c, n, index.remove(&c).unwrap_or_default()))
            .collect();
        let fresh = plan::parallel_map(jobs, workers, |(c, records, entries)| {
            let mut map = ChunkMap::new(records);
            map.push_segment(entries);
            (c, Bytes::from(map.serialize()), map)
        });
        let mut older: Vec<(u32, MapEntries)> = index.drain().collect();
        older.sort_unstable_by_key(|job| job.0);
        debug_assert!(
            older.iter().all(|job| (job.0 as usize) < st.slots.len()),
            "entries for unknown chunks"
        );
        let (map_entries, appends): (Vec<MapAppend>, Vec<(u32, MapEntries)>) =
            plan::parallel_map(older, workers, |(chunk, entries)| {
                let logged = MapAppend {
                    chunk,
                    entries: entries.len(),
                    bytes: encode_entries(&entries),
                };
                (logged, (chunk, entries))
            })
            .into_iter()
            .unzip();
        // The base maps ride the same streaming writer stage as the
        // chunk blobs (per-node batches ship while later pushes queue).
        let writes = fresh
            .iter()
            .map(|(c, bytes, _)| (chunk_map_key(*c), bytes.clone()));
        let outcome = stream_writes(&self.cluster, writes)?;
        stages.index = t.elapsed();
        outcome.fold_into(&mut stages);
        bytes_written += outcome.summary.bytes;

        // The commit point: the generation's record.
        let mut retired = retire.to_vec();
        retired.sort_unstable();
        let record = GenerationRecord {
            seq: st.log.seq + 1,
            first_version: st.flushed_versions as u32,
            parents: st.graph.nodes()[st.flushed_versions..flushed_versions]
                .iter()
                .map(|n| n.parents.clone())
                .collect(),
            chunk_slots: chunks
                .ids
                .iter()
                .fold(st.slots.len(), |slots, &c| slots.max(c as usize + 1)),
            new_chunks: (chunks.ids.iter().zip(&chunks.sizes).zip(&chunks.counts))
                .map(|((&id, &bytes), &records)| NewChunk { id, bytes, records })
                .collect(),
            retired,
            freed: Vec::new(),
            map_entries,
        };
        let record_bytes = self.put_record(&record, &mut stages)?;

        // Everything is durable: apply the generation and publish it.
        // Retired chunks vanish from every version and key list before
        // the records they held are re-added under their new chunks.
        st.apply_edits(&record);
        if !retire.is_empty() {
            let live = |c: u32| st.slots.get(c as usize).is_some_and(|s| s.state == SlotState::Live);
            Arc::make_mut(&mut st.projections).retain_chunks(live);
        }
        let entries = (fresh.iter().flat_map(|(c, _, map)| map.iter().map(move |(v, m)| (v, *c, m))))
            .chain(appends.iter().flat_map(|(c, entries)| entries.iter().map(move |(v, m)| (*v, *c, m))));
        let records = chunks.placed.iter().map(|&(ck, (c, _))| (ck.pk, c));
        Arc::make_mut(&mut st.projections).add_chunks(flushed_versions, entries, records);
        st.locator.extend(chunks.placed);
        // Install the new maps and grow the dirty ones — copy-on-write,
        // the published generations keep theirs — and stamp each with
        // the generation about to publish: cached chunks paired with an
        // older map (or, under a reused slot id, with an older chunk)
        // fail the probe floor and drop lazily, with no synchronous
        // invalidation loop in this critical section.
        let publishing = st.generation + 1;
        let maps_appended = appends.len();
        for (c, _, map) in fresh {
            let base_entries = map.num_versions();
            st.set_chunk_map(c, Arc::new(map), base_entries, publishing);
        }
        for (c, entries) in appends {
            st.append_chunk_map(c, entries, publishing);
        }
        self.publish(st);
        self.record_committed(st, record_bytes);
        Ok(CommittedGeneration {
            new_chunks: chunks.ids.len(),
            maps_appended,
            bytes_written,
            record_bytes,
            stages,
        })
    }

    /// Puts `record` under its sequence number — one key, the *commit
    /// point* of its generation: until it lands, the log names only
    /// what was there before, which is still fully present. Returns the
    /// record's size; the put's modeled and blocked time go to `stages`
    /// (encoding happens before the clock starts, so only backend time
    /// counts as write-blocked).
    pub(crate) fn put_record(
        &self,
        record: &GenerationRecord,
        stages: &mut IngestStages,
    ) -> Result<usize, CoreError> {
        let bytes = record.encode();
        let len = bytes.len();
        let t = Instant::now();
        let pair = (record_key(record.seq), Bytes::from(bytes));
        stages.modeled_write += self.cluster.multi_put_scatter(vec![pair])?;
        stages.write += t.elapsed();
        Ok(len)
    }

    /// Advances the log position past a record of `record_bytes` the
    /// writer state now reflects, and checkpoints when the records
    /// since the last checkpoint outweigh it (see the module docs).
    /// The checkpoint is best-effort: the generation is committed and
    /// applied whatever happens here, and if the put fails the records
    /// stay the log and the next generation tries again.
    pub(crate) fn record_committed(&self, st: &mut StoreMut, record_bytes: usize) {
        let r = self.obs.registry();
        r.observe_bytes(&r.commit_record_bytes, record_bytes);
        st.log.seq += 1;
        st.log.log_bytes += record_bytes;
        if !st.log.checkpoint_due() {
            return;
        }
        let bytes = st.checkpoint_record().encode();
        let len = bytes.len();
        if self.cluster.put(checkpoint_key(), Bytes::from(bytes)).is_err() {
            return;
        }
        // The records the checkpoint folded are garbage now; one a
        // failed delete leaves behind is never read again.
        let folded = (st.log.checkpoint_seq + 1..=st.log.seq).map(record_key).collect();
        let _ = self.cluster.multi_delete_scatter(folded);
        st.log = LogPosition {
            seq: st.log.seq,
            checkpoint_seq: st.log.seq,
            checkpoint_bytes: len,
            log_bytes: 0,
        };
        r.checkpoints.inc();
    }

    /// The durable view of the index: the persistent state loaded
    /// exactly as [`RStore::reopen`] loads it — checkpoint, records,
    /// base maps, then the projections derived with the live chunks'
    /// keys — as the serialized map of every live chunk (ascending ids)
    /// and the projections. Tests hold it equal to
    /// [`RStore::index_from_contents`].
    #[doc(hidden)]
    pub fn persisted_index(&self) -> Result<SerializedIndex, CoreError> {
        let mut st = load_persisted(&self.cluster, self.ingest_workers())?;
        let live = st.live_chunk_ids();
        let stored = self.cluster.multi_get_owned(live.iter().map(|&c| plan::backend_key(c)).collect())?;
        let mut chunks = Vec::with_capacity(live.len());
        for (&c, blob) in live.iter().zip(stored) {
            let chunk = Chunk::from_blob(&blob.ok_or(CoreError::MissingChunk(c))?)?;
            chunks.push((c, chunk.compressed_bytes(), chunk.local_keys()));
        }
        let blobs: Vec<_> = chunks.iter().map(|(c, bytes, keys)| (*c, *bytes, &keys[..])).collect();
        derive_from_blobs(&mut st, &blobs)?;
        let maps = live.iter().map(|&c| (c, st.slots[c as usize].map.serialize())).collect();
        Ok((maps, Arc::unwrap_or_clone(st.projections)))
    }

    /// The backend keys of the commit log as it stands — the checkpoint
    /// (if one was written) and the records after it — and the key the
    /// next generation's record will take. Twin tests compare the
    /// values across stores and aim outages at the next commit point.
    #[doc(hidden)]
    pub fn commit_log_keys(&self) -> (Vec<Key>, Key) {
        let log = self.state.lock().unwrap().log;
        let checkpoint = (log.checkpoint_seq > 0).then(checkpoint_key);
        let records = (log.checkpoint_seq + 1..=log.seq).map(record_key);
        (checkpoint.into_iter().chain(records).collect(), record_key(log.seq + 1))
    }

    /// Test oracle for the index passes: the index as a from-contents
    /// pass builds it — every record of every version resolved through
    /// the locator, grouped per chunk, each map encoded whole. Returns
    /// the serialized map of every live chunk (ascending ids) and the
    /// projections; the ingest proptests hold
    /// [`RStore::persisted_index`] to these values. Only flushed versions
    /// are indexed: a commit waiting in the delta store is in neither.
    #[doc(hidden)]
    pub fn index_from_contents(&self) -> SerializedIndex {
        let st = self.state.lock().unwrap();
        let mut records: FxHashMap<u32, usize> = FxHashMap::default();
        for &(chunk, _) in st.locator.values() {
            *records.entry(chunk).or_default() += 1;
        }
        let mut maps: BTreeMap<u32, ChunkMap> = st
            .live_chunk_ids()
            .into_iter()
            .map(|c| (c, ChunkMap::new(records.get(&c).copied().unwrap_or(0))))
            .collect();
        let mut projections = Projections::new();
        for (v, contents) in st.contents[..st.flushed_versions].iter().enumerate() {
            let v = VersionId(v as u32);
            let mut touched: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for &(pk, origin) in contents {
                let ck = CompositeKey::new(pk, origin);
                let &(chunk, local) = st
                    .locator
                    .get(&ck)
                    .unwrap_or_else(|| panic!("record {ck} not placed"));
                touched.entry(chunk).or_default().push(local as usize);
                projections.add_key_chunk(pk, ChunkId(chunk));
            }
            projections.ensure_version(v);
            for (chunk, mut locals) in touched {
                locals.sort_unstable();
                projections.add_version_chunk(v, ChunkId(chunk));
                maps.get_mut(&chunk)
                    .expect("placed in a live chunk")
                    .push_version(v, locals);
            }
        }
        let maps = maps.into_iter().map(|(c, m)| (c, m.serialize())).collect();
        (maps, projections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(pairs: &[(PrimaryKey, u32)]) -> Vec<(PrimaryKey, VersionId)> {
        pairs.iter().map(|&(pk, origin)| (pk, VersionId(origin))).collect()
    }

    #[test]
    fn apply_changes_merges_into_the_parent_and_rejects_clashes() {
        let parent = list(&[(1, 0), (2, 0), (3, 0), (5, 0), (8, 0)]);
        // K3 updated, K4 and K9 inserted, K8 deleted.
        let got = apply_changes(&parent, &list(&[(3, 0), (8, 0)]), &list(&[(3, 1), (4, 1), (9, 1)]));
        assert_eq!(got.unwrap(), list(&[(1, 0), (2, 0), (3, 1), (4, 1), (5, 0), (9, 1)]));
        assert_eq!(apply_changes(&parent, &[], &[]).unwrap(), parent);
        let clash = |removed: &[(PrimaryKey, u32)], added: &[(PrimaryKey, u32)]| {
            apply_changes(&parent, &list(removed), &list(added)).unwrap_err()
        };
        assert_eq!(clash(&[], &[(2, 1)]), "holds K2 twice", "kept and added");
        assert_eq!(clash(&[], &[(4, 1), (4, 2)]), "holds K4 twice", "added twice");
        assert!(clash(&[(5, 1)], &[]).starts_with("drops K5"), "another origin");
        assert!(clash(&[(6, 0)], &[]).starts_with("drops K6"), "a key not held");
    }

    #[test]
    fn contents_follow_the_map_differences_down_the_tree() {
        // V0 holds K1–K3; V1 (child of V0) updates K2 and deletes K3;
        // V2 (child of V0) adds K4 in the other chunk.
        let mut graph = VersionGraph::new();
        graph.add_root();
        graph.add_version(&[VersionId(0)]);
        graph.add_version(&[VersionId(0)]);
        let ck = |pk, origin| CompositeKey::new(pk, VersionId(origin));
        let a_keys = [ck(1, 0), ck(2, 0), ck(2, 1)];
        let b_keys = [ck(3, 0), ck(4, 2)];
        let map = |records: usize, entries: &[(u32, &[usize])]| {
            let mut m = ChunkMap::new(records);
            for &(v, locals) in entries {
                m.push_version(VersionId(v), locals.iter().copied());
            }
            m
        };
        let contents = |a: &ChunkMap, b: &ChunkMap| {
            let touched = chunkmap::by_version([a, b], graph.len())?;
            contents_from_maps(&graph, &[&a_keys, &b_keys], &touched)
        };
        let a = map(3, &[(0, &[0, 1]), (1, &[0, 2]), (2, &[0, 1])]);
        let b = map(2, &[(0, &[0]), (2, &[0, 1])]);
        let got = contents(&a, &b).unwrap();
        assert_eq!(got[0], list(&[(1, 0), (2, 0), (3, 0)]));
        assert_eq!(got[1], list(&[(1, 0), (2, 1)]));
        assert_eq!(got[2], list(&[(1, 0), (2, 0), (3, 0), (4, 2)]));

        // V1 keeping V0's copy of K2 beside its own, or a map naming a
        // version the graph does not hold, is a codec error.
        let twice = map(3, &[(0, &[0, 1]), (1, &[0, 1, 2]), (2, &[0, 1])]);
        let err = contents(&twice, &b).unwrap_err();
        assert!(matches!(&err, CoreError::Codec(m) if m.contains("V1 holds K2 twice")), "{err}");
        let ahead = map(2, &[(0, &[0]), (3, &[0])]);
        assert!(matches!(contents(&a, &ahead), Err(CoreError::Codec(_))));
    }

    #[test]
    fn a_record_of_the_layout_that_logged_projections_is_refused() {
        let record = GenerationRecord { seq: 3, chunk_slots: 1, ..GenerationRecord::default() };
        let bytes = record.encode();
        assert_eq!(GenerationRecord::decode(&bytes), Ok(record));
        // The same record as the old layout wrote it: tag 0xC7, and two
        // empty projection-edit lists before the (empty) map entries.
        let mut old = bytes.clone();
        old[0] = 0xC7;
        old.splice(old.len() - 1.., [0, 0, 0]);
        assert!(matches!(GenerationRecord::decode(&old), Err(CoreError::Codec(_))));
    }
}
