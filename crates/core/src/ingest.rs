//! The generation writer: the one path that turns records into
//! persistent output — chunks, their chunk maps and the two lossy
//! projections — and commits it.
//!
//! The offline bulk load ([`RStore::load_dataset`]), the online batch
//! flush ([`RStore::flush_batch`]) and a compaction slice
//! ([`RStore::compact`]) differ only in the inputs they derive: which
//! records to place, how they group into sub-chunks, which groups each
//! version holds, how the new chunk-map entries follow from that
//! (delta-driven for load and flush, from the contents for the records
//! a compaction moves) and which chunks retire. Everything after that
//! is this module, in one order:
//!
//! 1. **stage** ([`RStore::stage_generation`]) — sub-chunk delta-encode
//!    and LZ (the hottest ingest loop) fans out across
//!    [`StoreConfig::ingest_threads`](crate::store::StoreConfig::ingest_threads)
//!    scoped threads, then the configured partitioner runs over the
//!    groups. Nothing is written; a caller may still walk away (the
//!    compaction cutover guard does).
//! 2. **write** ([`RStore::commit_generation`]) — chunks assemble
//!    against *peeked* ids, serialize on their own cores and stream to
//!    the backend in per-node batches ([`Cluster::writer`]) while later
//!    chunks are still being encoded; the caller's index pass derives
//!    the new chunk-map entries, every dirty map is rewritten once as
//!    header + resident bytes + the new entries' bytes
//!    ([`ResidentMap`]) and rides the same streaming writer.
//!    `ingest_threads = 1` keeps the fully serial reference path
//!    (encode everything, then one scatter-gather put) that the
//!    equivalence proptests compare against.
//! 3. **commit** — the next projections, retired and free sets are
//!    staged off to the side and persisted ([`RStore::persist_meta`],
//!    the commit point); only then is the generation applied to the
//!    writer state — each written map grows by its new entries,
//!    copy-on-write, so generations readers still pin keep theirs — and
//!    published, chunk maps included: reads extract with the published
//!    maps, and the stored ones are read back only by a restart
//!    ([`load_chunk_maps`]).
//!
//! Any error before the meta put therefore leaves the writer state
//! untouched: a failed flush keeps its commits in the delta store, a
//! failed compaction slice keeps its victims queued, and the retry ends
//! byte-identical to an undisturbed twin. Blobs or maps a failed
//! attempt left behind are overwritten by the retry or stay
//! unreferenced.

use crate::chunk::{Chunk, SubChunk};
use crate::chunkmap::{encode_entries, ChunkMap, ResidentMap};
use crate::error::CoreError;
use crate::index::Projections;
use crate::model::{ChunkId, CompositeKey, PrimaryKey, VersionId};
use crate::partition::{PartitionInput, Partitioning};
use crate::plan;
use crate::store::{IngestStages, RStore, StoreMut, CHUNK_TABLE, CMAP_TABLE, META_TABLE};
use bytes::Bytes;
use crossbeam::channel::bounded;
use rstore_compress::{varint, Bitmap};
use rstore_kvstore::{table_key, Cluster, Key, KvError, WriteSummary};
use rstore_vgraph::{VersionDelta, VersionGraph};
use rustc_hash::{FxHashMap, FxHashSet};
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

/// Ships pre-encoded pairs through a [`Cluster::writer`]: streaming
/// per-node batches when the pipeline is parallel (`workers > 1`),
/// one deferred scatter-gather put on the serial reference path.
fn stream_writes(
    cluster: &Cluster,
    workers: usize,
    writes: Vec<(Key, Bytes)>,
) -> Result<StreamOutcome, CoreError> {
    let mut writer = if workers > 1 {
        cluster.writer()
    } else {
        cluster.writer_with_batch(usize::MAX)
    };
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
/// The chunk key layout and serialization live in exactly this place.
///
/// With `workers == 1` this is the serial reference path: chunks
/// encode in order on the calling thread and every write is deferred
/// to one scatter-gather put at the end. Either way the final backend
/// state is identical — chunks serialize deterministically and write
/// order is irrelevant under distinct keys.
fn stream_chunk_blobs(
    cluster: &Cluster,
    workers: usize,
    jobs: Vec<(u32, Chunk)>,
) -> Result<StreamOutcome, CoreError> {
    let encode = |(id, chunk): (u32, Chunk)| {
        (
            table_key(CHUNK_TABLE, &ChunkId(id).to_key()),
            Bytes::from(chunk.serialize()),
        )
    };
    let workers = workers.min(jobs.len()).max(1);
    if workers == 1 {
        return stream_writes(cluster, 1, jobs.into_iter().map(encode).collect());
    }

    let queue = Mutex::new(jobs.into_iter());
    let mut result: Result<StreamOutcome, KvError> = Ok(StreamOutcome {
        summary: WriteSummary::default(),
        write_wait: Duration::ZERO,
    });
    std::thread::scope(|scope| {
        let (tx, rx) = bounded::<(Key, Bytes)>(workers * 4);
        let writer_handle = scope.spawn(move || -> Result<StreamOutcome, KvError> {
            let mut writer = cluster.writer();
            let mut write_wait = Duration::ZERO;
            while let Ok((key, value)) = rx.recv() {
                let t = Instant::now();
                writer.push(key, value)?;
                write_wait += t.elapsed();
            }
            let t = Instant::now();
            let summary = writer.finish()?;
            write_wait += t.elapsed();
            Ok(StreamOutcome { summary, write_wait })
        });
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let encode = &encode;
            scope.spawn(move || loop {
                let job = queue.lock().unwrap().next();
                let Some(job) = job else { break };
                // A send failure means the writer bailed on an error;
                // stop encoding — the error surfaces from its handle.
                if tx.send(encode(job)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        result = writer_handle.join().expect("writer stage panicked");
    });
    result.map_err(CoreError::from)
}

// ------------------------------------------------------------------
// The META keys: what a commit point persists and a restart reads
// ------------------------------------------------------------------

/// What one meta commit persists. [`StoreMut::meta`] views the writer
/// state; the generation writer substitutes the parts it has staged,
/// so the commit point is written before the writer state changes.
pub(crate) struct MetaView<'a> {
    pub(crate) graph: &'a VersionGraph,
    pub(crate) projections: &'a Projections,
    pub(crate) chunk_slots: usize,
    pub(crate) retired: &'a FxHashSet<u32>,
    pub(crate) free: &'a FxHashSet<u32>,
}

/// The META keys as a restart finds them — the owned counterpart of
/// [`MetaView`].
pub(crate) struct PersistedMeta {
    pub(crate) graph: VersionGraph,
    pub(crate) projections: Projections,
    pub(crate) chunk_slots: usize,
    pub(crate) retired: FxHashSet<u32>,
    pub(crate) free: FxHashSet<u32>,
}

fn encode_ids(ids: &FxHashSet<u32>) -> Vec<u8> {
    let mut sorted: Vec<u32> = ids.iter().copied().collect();
    sorted.sort_unstable();
    let mut bytes = Vec::with_capacity(4 + sorted.len() * 2);
    varint::write_u64(&mut bytes, sorted.len() as u64);
    for c in sorted {
        varint::write_u32(&mut bytes, c);
    }
    bytes
}

/// Reads an id list [`encode_ids`] wrote. An absent key is the empty
/// list: stores persisted before compaction (`retired`) or snapshot
/// reclamation (`free`) existed never wrote one.
fn load_ids(cluster: &Cluster, name: &str) -> Result<FxHashSet<u32>, CoreError> {
    let mut ids = FxHashSet::default();
    if let Some(bytes) = cluster.get(&table_key(META_TABLE, name.as_bytes()))? {
        let mut r = varint::VarintReader::new(&bytes);
        let n = r.read_u64()? as usize;
        if n > bytes.len() {
            return Err(CoreError::Codec(format!("{name} count exceeds input")));
        }
        for _ in 0..n {
            ids.insert(r.read_u32()?);
        }
        if !r.is_empty() {
            return Err(CoreError::Codec(format!("trailing bytes in {name} list")));
        }
    }
    Ok(ids)
}

impl PersistedMeta {
    /// Reads the META keys [`RStore::persist_meta`] wrote.
    pub(crate) fn load(cluster: &Cluster) -> Result<Self, CoreError> {
        let required = |name: &str| {
            cluster
                .get(&table_key(META_TABLE, name.as_bytes()))?
                .ok_or_else(|| CoreError::Codec(format!("no persisted {name}")))
        };
        let graph = VersionGraph::from_bytes(&required("graph")?).map_err(CoreError::Codec)?;
        let projections = Projections::deserialize(&required("projections")?)?;
        let chunk_slots = u64::from_be_bytes(
            required("chunk_count")?
                .as_ref()
                .try_into()
                .map_err(|_| CoreError::Codec("bad chunk count".into()))?,
        ) as usize;
        Ok(Self {
            graph,
            projections,
            chunk_slots,
            retired: load_ids(cluster, "retired")?,
            free: load_ids(cluster, "free")?,
        })
    }
}

/// The backend key of chunk `c`'s stored map.
fn chunk_map_key(c: u32) -> Key {
    table_key(CMAP_TABLE, &ChunkId(c).to_key())
}

/// Reads and decodes the stored chunk maps of the `live` chunk ids, in
/// order — the read half of the generation writer's chunk-map write,
/// and the only reader of the `cmaps` table: a running store serves its
/// maps from memory. One scatter-gather get, then the maps decode on
/// `workers` threads. A live chunk without a stored map is
/// [`CoreError::MissingChunk`].
pub(crate) fn load_chunk_maps(
    cluster: &Cluster,
    live: &[u32],
    workers: usize,
) -> Result<Vec<ChunkMap>, CoreError> {
    let stored = cluster.multi_get_owned(live.iter().map(|&c| chunk_map_key(c)).collect())?;
    let stored: Vec<(u32, Option<Bytes>)> = live.iter().copied().zip(stored).collect();
    plan::parallel_map_owned(stored, workers, |(c, bytes)| {
        ChunkMap::deserialize(&bytes.ok_or(CoreError::MissingChunk(c))?)
    })
    .into_iter()
    .collect()
}

// ------------------------------------------------------------------
// Staging: what a generation will write, not yet applied
// ------------------------------------------------------------------

/// One dirty chunk's share of an index pass: the chunk id, the
/// exclusive handle on its resident map (one of the writer state's, or
/// a fresh one for a chunk the generation created), and the `(version,
/// members)` entries to append.
type MapBuildJob<'a> = (u32, &'a mut ResidentMap, Vec<(VersionId, Bitmap)>);

/// The `n` chunk id slots a generation will occupy — reclaimed free
/// slots first (ascending; the bounded-id-space guarantee), then fresh
/// ids past the tail — **without mutating** the writer state: backend
/// writes are addressed with the peeked ids and the slots are taken
/// only once those writes and the meta put are durable (the state lock
/// is held throughout, so nothing allocates in between).
fn peek_chunk_ids(st: &StoreMut, n: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = st.free.iter().copied().collect();
    ids.sort_unstable();
    ids.truncate(n);
    let mut next = st.chunk_maps.len() as u32;
    while ids.len() < n {
        ids.push(next);
        next += 1;
    }
    ids
}

/// The chunks a generation creates, staged against peeked ids: nothing
/// here is in the writer state yet.
pub(crate) struct StagedChunks {
    /// Chunk id per new chunk.
    pub(crate) ids: Vec<u32>,
    /// Compressed bytes per new chunk.
    sizes: Vec<usize>,
    /// Records per new chunk (its map's bitmap length).
    counts: Vec<usize>,
    /// `(chunk, chunk-local ordinal)` of every placed record, by the
    /// caller's record ordinal.
    pub(crate) slots: Vec<(u32, u32)>,
    /// The same placement by composite key, in chunk order.
    placed: Vec<(CompositeKey, (u32, u32))>,
}

impl StagedChunks {
    /// Records per new chunk, by chunk id.
    pub(crate) fn counts_by_id(&self) -> FxHashMap<u32, usize> {
        self.ids.iter().copied().zip(self.counts.iter().copied()).collect()
    }
}

/// A generation's index edits, derived by the caller's index pass and
/// not yet applied.
#[derive(Default)]
pub(crate) struct StagedIndex {
    /// Per indexed version, ascending: the sorted chunk ids holding
    /// the records the generation placed or re-derived for it.
    pub(crate) version_chunks: Vec<(VersionId, Vec<u32>)>,
    /// `(pk, chunk)` of every record the generation placed.
    pub(crate) key_chunks: Vec<(PrimaryKey, u32)>,
    /// Per dirty chunk: the generation's entries, ascending by version.
    pub(crate) per_chunk: FxHashMap<u32, Vec<(VersionId, Bitmap)>>,
}

/// Derives the chunk-map entries and projection edits of `batch`
/// (ascending versions, each with the delta from its primary parent)
/// without touching the writer state — the index pass of the bulk load
/// and the flush.
///
/// `contents[v] = contents[parent(v)] − removed + added` holds for
/// every version, so a version's membership in a chunk is its parent's
/// bitmap there with the removed records' bits cleared and the added
/// records' bits set: the cost is the parent's span plus the delta,
/// not the version's width. The parent's bitmaps come from the
/// resident maps, or from this same staging when the parent is part of
/// the batch. Only added records touch the key projection — every
/// other record's entry dates from the generation that placed it.
/// `ord_of` resolves a record this generation places to the ordinal
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
            .or_else(|| st.locator.get(ck).copied())
            .unwrap_or_else(|| panic!("record {ck} not placed"))
    };
    let new_counts = chunks.counts_by_id();
    let mut staged = StagedIndex::default();
    for &(v, delta) in batch {
        let mut members: Vec<(u32, Bitmap)> = match st.graph.node(v).primary_parent() {
            None => Vec::new(),
            Some(p) => match staged.version_chunks.binary_search_by_key(&p, |e| e.0) {
                Ok(i) => staged.version_chunks[i]
                    .1
                    .iter()
                    .map(|&c| {
                        let entries = &staged.per_chunk[&c];
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
                        let parent = st.chunk_maps[c as usize].map().members_of(p);
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
            let (chunk, local) = locate(&rec.composite_key());
            let at = match members.binary_search_by_key(&chunk, |m| m.0) {
                Ok(at) => at,
                Err(at) => {
                    // Added records land in this generation's chunks.
                    members.insert(at, (chunk, Bitmap::new(new_counts[&chunk])));
                    at
                }
            };
            members[at].1.set(local as usize);
            staged.key_chunks.push((rec.pk, chunk));
        }
        let mut span = Vec::with_capacity(members.len());
        for (chunk, bitmap) in members {
            if bitmap.count_ones() > 0 {
                span.push(chunk);
                staged.per_chunk.entry(chunk).or_default().push((v, bitmap));
            }
        }
        staged.version_chunks.push((v, span));
    }
    staged
}

/// A generation past its stage step: sub-chunks encoded, partitioner
/// run, nothing written. The caller reads what its report (or its
/// cutover guard) needs and hands it to [`RStore::commit_generation`],
/// or drops it.
pub(crate) struct StagedGeneration {
    /// Sub-chunk groups of the caller's record ordinals.
    groups: Vec<Vec<u32>>,
    /// The encoded sub-chunks, aligned with `groups`.
    pub(crate) subchunks: Vec<SubChunk>,
    /// Which candidate chunk each group landed in.
    pub(crate) partitioning: Partitioning,
    /// `subchunk`, `partition` and `workers` are filled in so far.
    stages: IngestStages,
}

/// What [`RStore::commit_generation`] did.
pub(crate) struct CommittedGeneration {
    /// Chunks the generation created.
    pub(crate) new_chunks: usize,
    /// Chunk maps written (the new chunks' and every older map the
    /// index pass appended to).
    pub(crate) maps_written: usize,
    /// Key + value bytes of the chunk blobs and chunk maps written
    /// (before replication).
    pub(crate) bytes_written: usize,
    /// The full stage breakdown.
    pub(crate) stages: IngestStages,
}

impl RStore {
    /// Step 1 of the generation writer: encodes one sub-chunk per
    /// group of `records` (`(key, payload)` by record ordinal; a
    /// group's first member is its delta-encoding root) and partitions
    /// the groups over the version tree. `version_items[v]` lists the
    /// sorted group ordinals version `v` holds. Touches neither the
    /// backend nor the writer state.
    pub(crate) fn stage_generation(
        &self,
        st: &StoreMut,
        records: &[(CompositeKey, &[u8])],
        groups: Vec<Vec<u32>>,
        version_items: &[Vec<u32>],
    ) -> StagedGeneration {
        let workers = self.ingest_workers();
        let mut stages = IngestStages {
            workers,
            ..IngestStages::default()
        };
        let t = Instant::now();
        let subchunks: Vec<SubChunk> = plan::parallel_map(&groups, workers, |members| {
            let members: Vec<(CompositeKey, &[u8])> =
                members.iter().map(|&ord| records[ord as usize]).collect();
            SubChunk::build(&members)
        });
        stages.subchunk = t.elapsed();

        // A generation that places nothing (a delete-only flush) has
        // nothing to partition.
        let mut partitioning = Partitioning::default();
        if !groups.is_empty() {
            let item_sizes: Vec<u32> = subchunks
                .iter()
                .map(|s| s.compressed_bytes() as u32)
                .collect();
            let item_pk: Vec<u64> = groups.iter().map(|g| records[g[0] as usize].0.pk).collect();
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
            partitioning,
            stages,
        }
    }

    /// Steps 2 and 3 of the generation writer (see the module docs):
    /// writes `staged`'s chunks and the chunk maps `index` derives for
    /// them, persists the metadata with the chunks in `retire` retired,
    /// and only then applies the generation to the writer state and
    /// publishes it. Any error returns with the writer state untouched,
    /// so the caller can retry the same input.
    pub(crate) fn commit_generation(
        &self,
        st: &mut StoreMut,
        staged: StagedGeneration,
        retire: &[u32],
        index: impl FnOnce(&StoreMut, &StagedChunks) -> StagedIndex,
    ) -> Result<CommittedGeneration, CoreError> {
        let StagedGeneration {
            groups,
            subchunks,
            partitioning,
            mut stages,
        } = staged;
        let workers = stages.workers;

        // Assemble: move sub-chunks into their chunks and record the
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
        let mut subchunk_slots: Vec<Option<SubChunk>> = subchunks.into_iter().map(Some).collect();
        let mut jobs: Vec<(u32, Chunk)> = Vec::with_capacity(chunk_items.len());
        for (items, &chunk_id) in chunk_items.iter().zip(&chunks.ids) {
            let mut chunk = Chunk::new();
            let mut local = 0u32;
            for &g in items {
                let sc = subchunk_slots[g as usize].take().expect("group in one chunk");
                for (&ord, &ck) in groups[g as usize].iter().zip(&sc.members) {
                    chunks.slots[ord as usize] = (chunk_id, local);
                    chunks.placed.push((ck, (chunk_id, local)));
                    local += 1;
                }
                chunk.subchunks.push(sc);
            }
            chunks.sizes.push(chunk.compressed_bytes());
            chunks.counts.push(local as usize);
            jobs.push((chunk_id, chunk));
        }
        let outcome = stream_chunk_blobs(&self.cluster, workers, jobs)?;
        stages.assemble = t.elapsed();
        outcome.fold_into(&mut stages);
        let mut bytes_written = outcome.summary.bytes;

        // Index: the caller's pass derives the entries; then
        // independent chunk-map builds — each dirty map (a disjoint
        // `&mut`, for the lazily materialized resident bytes) encodes
        // its new entries and assembles its serialized form. Every
        // new chunk gets a map even if no version holds its records,
        // so the recovery scan never finds a blob without its other
        // half.
        let t = Instant::now();
        let mut index = index(st, &chunks);
        let mut fresh: Vec<ResidentMap> =
            chunks.counts.iter().map(|&n| ResidentMap::new(n)).collect();
        // The new chunks claim their entries first, so a reused free
        // slot's tombstone map finds none and stays out of the jobs.
        let mut jobs: Vec<MapBuildJob<'_>> = chunks
            .ids
            .iter()
            .zip(fresh.iter_mut())
            .map(|(&c, map)| (c, map, index.per_chunk.remove(&c).unwrap_or_default()))
            .collect();
        jobs.extend(st.chunk_maps.iter_mut().enumerate().filter_map(|(c, map)| {
            let c = c as u32;
            index.per_chunk.remove(&c).map(|work| (c, map, work))
        }));
        jobs.sort_unstable_by_key(|job| job.0);
        debug_assert!(index.per_chunk.is_empty(), "entries for unknown chunks");
        let built = plan::parallel_map_owned(jobs, workers, |(c, map, work)| {
            let tail = encode_entries(&work);
            let bytes = Bytes::from(map.serialize_with(work.len(), &tail));
            (c, bytes, work, tail)
        });
        // The serialized maps ride the same streaming writer stage as
        // the chunk blobs (per-node batches ship while later pushes
        // queue; one deferred scatter put on the serial path).
        let mut writes: Vec<(Key, Bytes)> = Vec::with_capacity(built.len());
        let mut appends = Vec::with_capacity(built.len());
        for (c, bytes, work, tail) in built {
            writes.push((chunk_map_key(c), bytes));
            appends.push((c, work, tail));
        }
        let outcome = stream_writes(&self.cluster, workers, writes)?;
        stages.index = t.elapsed();
        outcome.fold_into(&mut stages);
        bytes_written += outcome.summary.bytes;

        // The next generation's metadata, still off to the side.
        let mut projections = Arc::clone(&st.projections);
        let next = Arc::make_mut(&mut projections);
        let mut retired = Arc::clone(&st.retired);
        if !retire.is_empty() {
            // Retired chunks vanish from every version and key list
            // before the records they held are re-added under their
            // new chunks.
            let leaving: FxHashSet<u32> = retire.iter().copied().collect();
            next.retain_chunks(|c| !leaving.contains(&c));
            Arc::make_mut(&mut retired).extend(leaving);
        }
        for (v, span) in index.version_chunks {
            next.ensure_version(v);
            for c in span {
                next.add_version_chunk(v, ChunkId(c));
            }
        }
        for (pk, c) in index.key_chunks {
            next.add_key_chunk(pk, ChunkId(c));
        }
        let mut free = Arc::clone(&st.free);
        let mut chunk_slots = st.chunk_maps.len();
        for &c in &chunks.ids {
            if free.contains(&c) {
                Arc::make_mut(&mut free).remove(&c);
            }
            chunk_slots = chunk_slots.max(c as usize + 1);
        }
        let (meta_modeled, meta_wait) = self.persist_meta(MetaView {
            graph: &st.graph,
            projections: next,
            chunk_slots,
            retired: &retired,
            free: &free,
        })?;
        stages.modeled_write += meta_modeled;
        stages.write += meta_wait;

        // Everything is durable: apply the generation and publish it.
        st.resize_chunk_slots(chunk_slots);
        for ((&c, &size), map) in chunks.ids.iter().zip(&chunks.sizes).zip(fresh) {
            Arc::make_mut(&mut st.chunk_sizes)[c as usize] = size;
            st.set_chunk_map(c, map);
        }
        // A retired id keeps an empty tombstone slot until a
        // reclamation pass frees or truncates it.
        for &c in retire {
            Arc::make_mut(&mut st.chunk_sizes)[c as usize] = 0;
            st.set_chunk_map(c, ResidentMap::default());
        }
        st.locator.extend(chunks.placed);
        st.projections = projections;
        st.retired = retired;
        st.free = free;
        // Grow the written maps — copy-on-write, the published
        // generations keep theirs — and stamp them with the generation
        // about to publish: cached chunks paired with an older map fail
        // the probe floor and drop lazily, with no synchronous
        // invalidation loop in this critical section.
        let publishing = st.generation + 1;
        let mut written = Vec::with_capacity(appends.len());
        for (c, work, tail) in appends {
            st.append_chunk_map(c, work, &tail);
            Arc::make_mut(&mut st.map_gen)[c as usize] = publishing;
            written.push(c);
        }
        self.publish(st);
        // Sweep resident cache entries of the rewritten maps *after*
        // the publish: entries stamped below the new generation are
        // stale (their map predates the rewrite) and safe to drop
        // unconditionally — a reader still pinning the old generation
        // refetches the blob and extracts identical answers with its
        // own pinned map.
        for &c in &written {
            self.cache.invalidate_below(c, st.generation);
        }
        Ok(CommittedGeneration {
            new_chunks: chunks.ids.len(),
            maps_written: written.len(),
            bytes_written,
            stages,
        })
    }

    /// Persists the projections, version graph, chunk count and the
    /// retired and free id lists — one batched scatter-gather put
    /// instead of serial round trips. This put is the *commit point*
    /// of a generation: until it lands, the persisted metadata
    /// references only what was there before, which is still fully
    /// present. Returns `(modeled write time, wall time blocked on the
    /// put)` for the stage accounting; serialization happens before
    /// the clock starts so only backend time counts as write-blocked.
    pub(crate) fn persist_meta(
        &self,
        meta: MetaView<'_>,
    ) -> Result<(Duration, Duration), CoreError> {
        let pairs = vec![
            (
                table_key(META_TABLE, b"projections"),
                Bytes::from(meta.projections.serialize()),
            ),
            (
                table_key(META_TABLE, b"graph"),
                Bytes::from(meta.graph.to_bytes()),
            ),
            (
                table_key(META_TABLE, b"chunk_count"),
                Bytes::from((meta.chunk_slots as u64).to_be_bytes().to_vec()),
            ),
            (
                table_key(META_TABLE, b"retired"),
                Bytes::from(encode_ids(meta.retired)),
            ),
            (
                table_key(META_TABLE, b"free"),
                Bytes::from(encode_ids(meta.free)),
            ),
        ];
        let t = Instant::now();
        let modeled = self.cluster.multi_put_scatter(pairs)?;
        Ok((modeled, t.elapsed()))
    }

    /// Test oracle for the index passes: the index as a from-contents
    /// pass builds it — every record of every version resolved through
    /// the locator, grouped per chunk, each map encoded whole. Returns
    /// the serialized map of every live chunk (ascending ids) and the
    /// serialized projections; the ingest proptests hold the backend's
    /// `cmaps` values and `meta/projections` to these bytes. The delta
    /// store must be empty (unflushed versions are in neither).
    #[doc(hidden)]
    pub fn index_from_contents(&self) -> (Vec<(u32, Vec<u8>)>, Vec<u8>) {
        let st = self.state.lock().unwrap();
        assert!(st.pending.is_empty(), "flush before consulting the oracle");
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
        for (v, contents) in st.contents.iter().enumerate() {
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
        (maps, projections.serialize())
    }
}
