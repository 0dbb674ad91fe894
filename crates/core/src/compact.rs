//! Compaction & repartitioning: winning offline layout
//! quality back from a long-running online store.
//!
//! The paper's online path (§4) trades layout quality for ingest
//! latency: every batch flush appends a fresh chunk set and placed
//! records are never re-partitioned, so a long-running store
//! fragments — many under-filled chunks, versions spanning ever more
//! chunks, growing query fan-out. The offline partitioners that the
//! evaluation shows matter most run only at load time; the paper
//! leaves periodic repartitioning as future work. This module is that
//! subsystem: [`RStore::compact`] measures fragmentation
//! ([`RStore::fragmentation_stats`]), selects a victim chunk set
//! under a [`CompactionConfig`] policy, fetches the victims through
//! the existing plan → fetch pipeline, re-runs the configured
//! partitioner over the merged items (re-grouping same-key records
//! into §3.4 sub-chunks), hands the result to the generation writer
//! (the `ingest` module) with the victims to retire, and drains the
//! obsolete backend keys through the store's one delete path — all
//! without taking the store offline.
//!
//! A slice is a thin caller of the writer, exactly like the bulk load
//! and the flush. What it derives itself, touching each moved record
//! once per step by its extraction ordinal: the extraction — the
//! victims' keys, plus a decode of every victim sub-chunk across the
//! ingest workers, the one check on their bytes, which fails the slice
//! before anything is written and fills no decode memo — the
//! `(pk, origin)` grouping, the cutover guard (evaluated on the staged
//! partitioning, before any backend write) and the index pass: each of
//! the victims' map bits maps through the placement table (extraction
//! ordinal → new chunk ordinal, new local) to a bit of the new maps.
//!
//! A group that is exactly one victim sub-chunk's members, in order,
//! is carried whole: the new chunk takes that sub-chunk's encoded
//! bytes, named by its place among the fetched victims, because
//! encoding the group again would produce the same bytes. Only the
//! groups encoded anew have their payloads kept; at `max_subchunk = 1`
//! every group is carried, so the staging is mostly the partitioner.
//!
//! ## Crash-safety ordering
//!
//! Compaction never overwrites a live key: the rebuilt generation
//! takes chunk ids no live chunk holds (reclaimed free slots first,
//! then fresh ids past the tail), and the victims become retired
//! tombstones. The backend sees three strictly ordered effects:
//!
//! 1. **Write the new generation** — chunk blobs and their base maps,
//!    streamed through the writer's per-node batches. Until step 2
//!    lands, the commit log still names only the old generation, which
//!    is fully intact — a crash here leaves harmless orphaned new keys.
//! 2. **Commit the slice's record** — one appended key holding what the
//!    slice changed: the victims retired, the new chunks' slots, and
//!    the projection edits that move every version and key from the
//!    old ids to the new. This is the commit point: a store reopened
//!    before it serves the old generation, after it the new.
//! 3. **Drain the victims' keys** — the commit left each victim a
//!    retired slot with its keys pending, and the store's one drain
//!    (`RStore::drain_retired`) batch-deletes the old generation's
//!    chunk and base-map keys, one `MultiDelete` per owning node —
//!    right away, unless a reader still pins an older generation, in
//!    which case a later drain (flush tail, [`RStore::reclaim`]) does.
//!    A crash between 2 and 3 leaves old keys behind that no live id
//!    names — the recovery scan never touches them — and the reopened
//!    store's slots still hold them pending, so its first drain
//!    deletes them. (Entries earlier records logged for a victim's map
//!    need no delete: a restart drops them when it replays the
//!    retirement, and the next checkpoint folds the records away.)
//!
//! In-memory state (locator, projections, chunk maps) swaps only
//! after step 2, inside the writer. A slice that fails anywhere up to
//! and including step 2 has therefore changed nothing: the call
//! returns its error, slices that landed before it stay landed, and
//! the next [`RStore::compact`] selects its victims afresh — exactly
//! what a reopened store would select. A retry of a failed first slice
//! ends byte-identical to an undisturbed twin (blobs or maps the failed
//! attempt wrote are overwritten under the same ids).
//!
//! Commits still buffered in the delta store are untouched: their
//! records are not yet placed, their graph nodes are not in the log
//! (a slice's record carries none), and their version ids are excluded
//! from the rebuilt chunk maps so the next flush indexes them
//! normally (chunk maps require strictly increasing version pushes).

use crate::chunkmap::{self, ChunkMap};
use crate::cost::CostModel;
use crate::error::CoreError;
use crate::ingest::{Encoded, MapEntries, StagedChunks, StagedGeneration, StagedIndex};
use crate::model::{CompositeKey, VersionId};
use crate::plan;
use crate::store::{RStore, SlotState, StoreMut};
use bytes::Bytes;
use rstore_compress::Bitmap;
use std::time::{Duration, Instant};

/// Compaction policy: which chunks an [`RStore::compact`] call takes
/// as fragmentation victims, and how many it rebuilds per cutover.
/// The store never compacts on its own; a call is the only trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionConfig {
    /// Fill threshold: a live chunk whose compressed bytes are below
    /// `min_fill × chunk_capacity` is a victim. Online flushes of
    /// small batches leave many such chunks behind.
    pub min_fill: f64,
    /// Budget for incremental compaction: when non-zero, one
    /// [`RStore::compact`] call rebuilds its victim set in slices of
    /// at most this many chunks, each slice cutting over (persist +
    /// publish) independently, so no single publish covers an
    /// unbounded rebuild and a failure loses only the unfinished
    /// slices — the next call selects its victims again. `0` (the
    /// default) keeps the single-slice path, including its
    /// escalate-to-full-repartition fallback.
    pub max_chunks_per_slice: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        Self {
            min_fill: 0.6,
            max_chunks_per_slice: 0,
        }
    }
}

/// Fewest victims worth acting on: with fewer candidates
/// [`RStore::compact`] is a no-op (merging one chunk into itself
/// reclaims nothing).
const MIN_VICTIMS: usize = 2;

/// A point-in-time measurement of layout decay, computable without
/// running a compaction ([`RStore::fragmentation_stats`]): how full
/// the chunks are, how many chunks a version retrieval touches, and
/// how that compares with an ideally chunked layout.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FragmentationStats {
    /// Live chunks (compaction-retired and reclaimed ids excluded).
    pub live_chunks: usize,
    /// Chunk ids retired by past compactions and still tombstoned
    /// (their reclamation may be deferred behind old snapshot pins).
    pub retired_chunks: usize,
    /// Retired slots a reclamation pass has already moved to the
    /// reusable free list. Kept separate from `retired_chunks` so the
    /// fill statistics below — which average over *live* chunks only —
    /// stay honest after reclamation shrinks the tombstone count.
    pub reclaimed_chunks: usize,
    /// Mean compressed fill fraction of live chunks (compressed bytes
    /// over `chunk_capacity`; slack can push a chunk past 1.0).
    pub mean_fill: f64,
    /// Live chunks below the policy's `min_fill` threshold.
    pub under_filled: usize,
    /// Σ_v span(v) — the Fig. 8 metric.
    pub total_version_span: usize,
    /// Mean chunks per version retrieval.
    pub mean_version_span: f64,
    /// Worst version's span.
    pub max_version_span: usize,
    /// Estimated read amplification of a full version retrieval:
    /// `mean_version_span` over the per-version query count an
    /// ideally chunked layout would need (the "Independent
    /// w/chunking" row of the paper's Table 1 cost model,
    /// instantiated with this store's observed mean version width and
    /// mean stored record size). ≈ 1 right after an offline load,
    /// grows as the online path fragments the layout.
    pub est_read_amplification: f64,
}

/// Per-stage wall-clock breakdown of one compaction — the
/// counterpart of `IngestStages` for the maintenance path. The
/// rebuild stages overlap their backend writes exactly as ingest
/// does, so fields need not sum to the end-to-end time.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactionStages {
    /// Fragmentation measurement + victim selection.
    pub measure: Duration,
    /// Fetching the victim chunks through the plan → fetch pipeline,
    /// reading their keys and decoding every sub-chunk (the check).
    pub extract: Duration,
    /// Sub-chunk re-grouping, the per-version group lists, encoding
    /// the groups not carried whole, and the partitioning algorithm —
    /// mostly the partitioner, since carried groups cost no encode.
    pub partition: Duration,
    /// Chunk assembly + serialization of the new generation
    /// (overlaps the streaming writes).
    pub rebuild: Duration,
    /// Chunk-map builds for the new generation (overlaps writes).
    pub index: Duration,
    /// Wall time genuinely blocked on backend writes.
    pub write: Duration,
    /// Modeled network time of the new generation's writes (max over
    /// parallel nodes, summed across sequential stages).
    pub modeled_write: Duration,
    /// Wall time spent reclaiming the old generation's keys.
    pub delete: Duration,
    /// Modeled network time of the batched deletes (max over nodes).
    pub modeled_delete: Duration,
    /// Worker threads the parallel stages ran on.
    pub workers: usize,
}

impl CompactionStages {
    /// Folds one slice's stage times into the run-wide totals.
    fn absorb(&mut self, o: &CompactionStages) {
        self.measure += o.measure;
        self.extract += o.extract;
        self.partition += o.partition;
        self.rebuild += o.rebuild;
        self.index += o.index;
        self.write += o.write;
        self.modeled_write += o.modeled_write;
        self.delete += o.delete;
        self.modeled_delete += o.modeled_delete;
    }
}

/// Report from one [`RStore::compact`] run: what moved, what it cost,
/// and the before/after fragmentation measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactionReport {
    /// Chunks retired (the victim set).
    pub victims: usize,
    /// Chunks the rebuilt generation produced.
    pub new_chunks: usize,
    /// Records extracted and re-placed.
    pub records_moved: usize,
    /// Sub-chunks encoded anew (same-key groups of up to
    /// `max_subchunk`). A group that is exactly one victim sub-chunk's
    /// members, in order, is carried whole and not counted, so at
    /// `max_subchunk = 1` this is 0.
    pub subchunks_built: usize,
    /// Key + value bytes written for the new generation (chunk blobs,
    /// base maps; before replication).
    pub bytes_rewritten: usize,
    /// Bytes of the slices' commit records.
    pub record_bytes: usize,
    /// Compressed chunk bytes the retired generation occupied (chunk
    /// maps excluded — their serialized size is not tracked).
    pub bytes_reclaimed: usize,
    /// Backend replica copies removed by the batched deletes.
    pub keys_deleted: usize,
    /// True when the batched delete failed *after* the commit point:
    /// the compaction itself is durable and serving, but the retired
    /// generation's keys linger as unreferenced orphans.
    pub reclamation_failed: bool,
    /// Fragmentation before the compaction.
    pub before: FragmentationStats,
    /// Fragmentation after the compaction.
    pub after: FragmentationStats,
    /// Incremental slices that cut over (1 on the single-slice path).
    pub slices: usize,
    /// Per-stage timing breakdown (summed across slices).
    pub stages: CompactionStages,
    /// End-to-end wall time.
    pub total_time: Duration,
}

impl RStore {
    /// Measures layout decay: per-chunk fill, per-version chunk span
    /// and estimated read amplification, from the in-memory
    /// projections and size tables — no backend round trip. Operators
    /// (and the experiment binaries) use this to watch a long-running
    /// online store fragment without paying for a compaction.
    pub fn fragmentation_stats(&self) -> FragmentationStats {
        let snap = self.snapshot();
        let cfg = &self.config.compaction;
        let capacity = self.config.chunk_capacity.max(1) as f64;
        let (mut live, mut retired, mut reclaimed) = (0usize, 0usize, 0usize);
        let mut fill_sum = 0.0f64;
        let mut under = 0usize;
        for slot in snap.slots() {
            match slot.state {
                SlotState::Live => {
                    let fill = slot.bytes as f64 / capacity;
                    live += 1;
                    fill_sum += fill;
                    if fill < cfg.min_fill {
                        under += 1;
                    }
                }
                SlotState::Retired { .. } => retired += 1,
                SlotState::Free => reclaimed += 1,
            }
        }
        let versions = snap.graph().len();
        let mut total_span = 0usize;
        let mut max_span = 0usize;
        for v in 0..versions {
            let span = snap.projections().version_span(VersionId(v as u32));
            total_span += span;
            max_span = max_span.max(span);
        }
        let mean_span = if versions == 0 {
            0.0
        } else {
            total_span as f64 / versions as f64
        };

        // Ideal per-version query count from the Table 1 cost model's
        // "Independent w/chunking" row, fed the store's observed
        // parameters (mean version width, mean stored record size).
        // Only that row is consulted, so the delta/compression
        // parameters are irrelevant here.
        let placed = snap.placed_records();
        let est = if placed == 0 || versions == 0 || live == 0 {
            1.0
        } else {
            let m_v = snap
                .record_counts()
                .iter()
                .sum::<usize>() as f64
                / versions as f64;
            let storage: usize = snap.slots().iter().map(|s| s.bytes).sum();
            let s = storage as f64 / placed as f64;
            let model = CostModel {
                n: versions as f64,
                m_v,
                d: 0.0,
                c: 1.0,
                s,
                s_c: capacity,
            };
            let ideal_queries = model.independent_chunked().version_queries;
            mean_span / ideal_queries.max(1.0)
        };

        FragmentationStats {
            live_chunks: live,
            retired_chunks: retired,
            reclaimed_chunks: reclaimed,
            mean_fill: if live == 0 { 0.0 } else { fill_sum / live as f64 },
            under_filled: under,
            total_version_span: total_span,
            mean_version_span: mean_span,
            max_version_span: max_span,
            est_read_amplification: est,
        }
    }

    /// The victim set under the configured policy: the under-filled
    /// live chunks, in ascending id order.
    fn select_victims(&self, st: &StoreMut) -> Vec<u32> {
        let min_fill = self.config.compaction.min_fill;
        let capacity = self.config.chunk_capacity.max(1) as f64;
        let mut victims = st.live_chunk_ids();
        victims.retain(|&c| st.slots[c as usize].bytes as f64 / capacity < min_fill);
        victims
    }

    /// Compacts the store in place: retires the policy's victim
    /// chunks, re-partitions their records with the configured
    /// partitioner, writes the rebuilt generation under fresh chunk
    /// ids, and reclaims the old keys with batched deletes. Returns
    /// `Ok(None)` when fewer than `MIN_VICTIMS` victims exist or no
    /// candidate layout improves on the current one (nothing is
    /// written in either case). See the module docs for the
    /// crash-safety ordering.
    ///
    /// Repartitioning a *sparse* subset of records over the whole
    /// version tree can mix records with very different lifetimes
    /// into one chunk and widen version spans, so the cutover is
    /// guarded: the candidate layout's span contribution is compared
    /// against the victims' current contribution *before any backend
    /// write*, and if the partial rebuild would regress, compaction
    /// escalates once to a full repartition of every live chunk —
    /// which reproduces the offline load's layout quality. If even
    /// that does not improve, the store is already well-laid-out and
    /// the call is a no-op.
    ///
    /// Pending (unflushed) commits are untouched and flush normally
    /// afterwards.
    pub fn compact(&self) -> Result<Option<CompactionReport>, CoreError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        let t0 = Instant::now();
        let slice_cap = self.config.compaction.max_chunks_per_slice;

        // -- measure: fragmentation + victim selection ----------------
        let t = Instant::now();
        let before = self.fragmentation_stats();
        let victims = self.select_victims(st);
        if victims.len() < MIN_VICTIMS {
            return Ok(None);
        }
        let mut stages = CompactionStages {
            workers: self.ingest_workers(),
            measure: t.elapsed(),
            ..CompactionStages::default()
        };

        // -- rebuild the victims in slices, each cutting over on its
        // own (single slice when no budget is configured) -------------
        let mut report = CompactionReport {
            before,
            ..CompactionReport::default()
        };
        let take = if slice_cap == 0 { victims.len() } else { slice_cap };
        for slice in victims.chunks(take) {
            // A slice that fails has changed nothing (see the module
            // docs); one the cutover guard rejects is skipped.
            let Some(out) = self.compact_slice(st, slice.to_vec(), slice_cap == 0)? else {
                continue;
            };
            report.victims += out.victims;
            report.new_chunks += out.new_chunks;
            report.records_moved += out.records_moved;
            report.subchunks_built += out.subchunks_built;
            report.bytes_rewritten += out.bytes_rewritten;
            report.record_bytes += out.record_bytes;
            report.bytes_reclaimed += out.bytes_reclaimed;
            report.keys_deleted += out.keys_deleted;
            report.reclamation_failed |= out.reclamation_failed;
            report.slices += 1;
            stages.absorb(&out.stages);
        }
        if report.slices == 0 {
            return Ok(None);
        }

        // Compaction is a natural self-healing point: the deletes just
        // purged any hints for retired keys, so replaying what remains
        // re-replicates only live data onto recovered nodes. Best
        // effort — a node still down keeps its hints queued.
        let _ = self.cluster.replay_hints();

        report.after = self.fragmentation_stats();
        report.stages = stages;
        report.total_time = t0.elapsed();
        let r = self.obs.registry();
        r.compactions.inc();
        r.observe(&r.compact_total, report.total_time);
        let s = &stages;
        r.observe_stages(
            &r.compact_stages,
            [
                s.measure,
                s.extract,
                s.partition,
                s.rebuild,
                s.index,
                s.write,
                s.modeled_write,
                s.delete,
                s.modeled_delete,
            ],
        );
        Ok(Some(report))
    }

    /// Rebuilds one victim slice end to end: stage, guard, commit
    /// through the generation writer, reclaim. Returns `Ok(None)` when
    /// the cutover guard rejects the slice. An error means nothing
    /// changed — the writer applies a generation only after its commit
    /// record.
    fn compact_slice(
        &self,
        st: &mut StoreMut,
        victims: Vec<u32>,
        allow_escalate: bool,
    ) -> Result<Option<SliceOutcome>, CoreError> {
        let mut stages = CompactionStages {
            workers: self.ingest_workers(),
            ..CompactionStages::default()
        };

        // -- extract + partition, staged: nothing is written yet ------
        let mut rebuild = self.stage_rebuild(st, victims)?;
        stages.extract += rebuild.extract;
        stages.partition += rebuild.partition;
        if !rebuild.improves() {
            if !allow_escalate {
                return Ok(None);
            }
            // The sparse rebuild would regress; escalate to a full
            // repartition, which merges the kept chunks' records back
            // in and reproduces offline layout quality. The victims
            // are fetched a second time here — a deliberate simplicity
            // trade: with a configured cache they are resident from
            // the first pass, and escalation is the rare path.
            let all: Vec<u32> = st.live_chunk_ids();
            if rebuild.victims.len() < all.len() && all.len() >= MIN_VICTIMS {
                rebuild = self.stage_rebuild(st, all)?;
                stages.extract += rebuild.extract;
                stages.partition += rebuild.partition;
            }
            if !rebuild.improves() {
                return Ok(None);
            }
        }
        let StagedRebuild {
            victims,
            moved,
            maps,
            bases,
            staged,
            bytes_reclaimed,
            ..
        } = rebuild;
        let subchunks_built = staged
            .subchunks
            .iter()
            .filter(|s| matches!(s, Encoded::Built(_)))
            .count();

        // -- write + commit: the new generation, with the victims
        // retired. The index pass is from the victims' maps: each bit
        // maps through the moved record's new placement ---------------
        let flushed = st.flushed_versions;
        let touched = chunkmap::by_version(&maps, flushed)?;
        let committed = self.commit_generation(st, staged, flushed, &victims, |_, chunks| {
            index_moved(&touched, &bases, chunks)
        })?;
        stages.rebuild = committed.stages.assemble;
        stages.index = committed.stages.index;
        stages.write = committed.stages.write;
        stages.modeled_write = committed.stages.modeled_write;

        // -- reclaim (phase A): drain the retired generation's keys and
        // cache entries — now when no reader pins an older generation;
        // otherwise they wait in their slots for a later drain, so an
        // in-flight pinned query can still fetch the old keys it
        // planned against. Past the commit point the compaction *is*
        // durable: a failed delete is contained in the report ---------
        let t = Instant::now();
        let drained = self.drain_retired(st);
        stages.delete = t.elapsed();
        stages.modeled_delete = drained.modeled;

        Ok(Some(SliceOutcome {
            victims: victims.len(),
            new_chunks: committed.new_chunks,
            records_moved: moved,
            subchunks_built,
            bytes_rewritten: committed.bytes_written,
            record_bytes: committed.record_bytes,
            bytes_reclaimed,
            keys_deleted: drained.removed,
            reclamation_failed: drained.failed,
            stages,
        }))
    }

    /// Plans a rebuild of `victims` without writing anything: fetches
    /// them through the read pipeline and checks that every sub-chunk
    /// decodes, re-groups the moved records by key into sub-chunks,
    /// stages the generation (carry or encode, then the configured
    /// partitioner), and evaluates the candidate layout's span
    /// contribution against the victims' current one.
    fn stage_rebuild(&self, st: &StoreMut, victims: Vec<u32>) -> Result<StagedRebuild, CoreError> {
        // -- extract: fetch victims through plan → fetch --------------
        let t = Instant::now();
        let fetched = self.execute(self.plan_chunks(victims.clone())?)?.into_chunks();
        // Each chunk's keys in local order: a record's extraction
        // ordinal is its chunk's base plus its local index. Its source
        // is the victim sub-chunk it sits in, as `(chunk, at,
        // extraction ordinal of the sub-chunk's first member)`.
        let mut keys: Vec<CompositeKey> = Vec::new();
        let mut bases: Vec<u32> = Vec::with_capacity(fetched.len());
        let mut source: Vec<(u32, u32, u32)> = Vec::new();
        for (c, dc) in fetched.iter().enumerate() {
            bases.push(keys.len() as u32);
            for (at, sc) in dc.chunk.subchunks.iter().enumerate() {
                let first = keys.len() as u32;
                keys.extend_from_slice(&sc.members);
                source.extend(std::iter::repeat_n((c as u32, at as u32, first), sc.len()));
            }
        }
        let mut extract = t.elapsed();

        let t = Instant::now();
        // Order same-key records by origin so each key's history is
        // contiguous, then cut groups of up to `k`: the compaction
        // counterpart of the §3.4 grouping (origin order approximates
        // version-tree connectivity — parents precede children).
        let k = self.config.max_subchunk.max(1);
        let mut order: Vec<(u64, VersionId, u32)> =
            (keys.iter().zip(0u32..)).map(|(ck, i)| (ck.pk, ck.origin, i)).collect();
        order.sort_unstable();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for (pk, _, i) in order {
            match groups.last_mut() {
                Some(g) if g.len() < k && keys[g[0] as usize].pk == pk => g.push(i),
                _ => groups.push(vec![i]),
            }
        }
        // A group that is one victim sub-chunk's members, in order, is
        // carried whole: encoding it again would yield the same bytes.
        // The sub-chunk is marked by its first member's ordinal.
        let mut is_carried = Bitmap::new(keys.len());
        let mut group_of: Vec<u32> = vec![0; keys.len()];
        for (g, members) in (0u32..).zip(&groups) {
            let (c, at, first) = source[members[0] as usize];
            let sc = &fetched[c as usize].chunk.subchunks[at as usize];
            if sc.len() == members.len() && (first..).zip(members).all(|(o, &m)| o == m) {
                is_carried.set(first as usize);
            }
            members.iter().for_each(|&m| group_of[m as usize] = g);
        }
        let mut partition = t.elapsed();

        // The check: every victim sub-chunk, carried ones included, is
        // decoded across the ingest workers before anything is written
        // — the one check on the victims' bytes. It fills no memo; a
        // carried sub-chunk is only checked, through the thread's
        // scratch, and only the sub-chunks no group carries yield their
        // payloads, for the encode. The scan cached the victims
        // undecoded, so one that fails here is evicted, as a query's
        // failed read evicts it.
        let t = Instant::now();
        let checked = plan::parallel_map((0..fetched.len()).collect(), self.ingest_workers(), |c| {
            let mut first = bases[c] as usize;
            (fetched[c].chunk.subchunks.iter())
                .map(|sc| {
                    let at = first;
                    first += sc.len();
                    if is_carried.get(at) {
                        sc.check().map(|()| Vec::new())
                    } else {
                        sc.decode_uncached()
                    }
                })
                .collect::<Result<Vec<Vec<Bytes>>, CoreError>>()
                .inspect_err(|_| self.cache.invalidate(victims[c]))
        });
        let payloads = checked.into_iter().collect::<Result<Vec<_>, _>>()?;
        extract += t.elapsed();

        // The partitioner's input: the groups each version holds, from
        // the victims' map bits. The versions past the flushed ones
        // still wait in the delta store: no map holds them yet, and the
        // rebuilt maps must not claim them — the next flush pushes them
        // in order.
        let t = Instant::now();
        let maps: Vec<ChunkMap> = fetched.iter().map(|dc| dc.map.clone()).collect();
        let touched = chunkmap::by_version(&maps, st.flushed_versions)?;
        let mut version_items = moved_version_items(&touched, &bases, &group_of, groups.len());
        version_items.resize(st.graph.len(), Vec::new());
        let record = |ord: u32| {
            let (c, at, first) = source[ord as usize];
            let payload = &payloads[c as usize][at as usize][(ord - first) as usize];
            (keys[ord as usize], &payload[..])
        };
        let carry = |members: &[u32]| {
            let (c, at, first) = source[members[0] as usize];
            is_carried.get(first as usize).then_some(Encoded::Carried(c, at))
        };
        let staged = self.stage_generation(st, record, groups, carry, fetched, &version_items);
        partition += t.elapsed();

        // Span bookkeeping for the cutover guard: what the victims
        // contribute today — a version's span holds exactly the chunks
        // whose map gives it a member — vs. what the candidate layout
        // would.
        let old_span = touched.iter().flatten().filter(|(_, bits)| bits.count_ones() > 0).count();
        let mut new_span = 0usize;
        let mut chunk_mark: Vec<u32> = vec![u32::MAX; staged.partitioning.num_chunks];
        for (v, items) in version_items.iter().enumerate() {
            for &g in items {
                let c = staged.partitioning.chunk_of[g as usize] as usize;
                if chunk_mark[c] != v as u32 {
                    chunk_mark[c] = v as u32;
                    new_span += 1;
                }
            }
        }
        let bytes_reclaimed = victims.iter().map(|&c| st.slots[c as usize].bytes).sum();

        Ok(StagedRebuild {
            victims,
            moved: keys.len(),
            maps,
            bases,
            staged,
            old_span,
            new_span,
            bytes_reclaimed,
            extract,
            partition,
        })
    }
}

/// The members pass: per flushed version, the groups holding its
/// moved records — the partitioner's `version_items`. `touched[v]`
/// lists each victim map's members of `v` by victim `at`, whose records
/// start at extraction ordinal `bases[at]`; `group_of` maps an ordinal
/// to its group. A version's groups collect in one reused bit set over
/// the `groups`, which yields them ascending and distinct and is left
/// clear for the next version.
fn moved_version_items(
    touched: &[Vec<(usize, &Bitmap)>],
    bases: &[u32],
    group_of: &[u32],
    groups: usize,
) -> Vec<Vec<u32>> {
    let mut seen: Vec<u64> = vec![0; groups.div_ceil(64)];
    (touched.iter())
        .map(|entries| {
            for &(at, bits) in entries {
                let group_of = &group_of[bases[at] as usize..];
                bits.for_each_one(|local| {
                    let g = group_of[local];
                    seen[g as usize / 64] |= 1 << (g % 64);
                });
            }
            let mut items = Vec::new();
            for (w, word) in (0u32..).zip(&mut seen) {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    items.push(w * 64 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            items
        })
        .collect()
}

/// The index pass: each victim bit of a flushed version (as for
/// [`moved_version_items`]) maps through the placement table to a bit
/// of the version's bitmap in its new chunk. A new chunk's bitmap for
/// the current version is open while it is non-empty (every new chunk
/// holds a record); the `opened` list closes the open ones when the
/// version ends, so each chunk's entries ascend by version.
fn index_moved(
    touched: &[Vec<(usize, &Bitmap)>],
    bases: &[u32],
    chunks: &StagedChunks,
) -> StagedIndex {
    let mut entries: Vec<MapEntries> = vec![Vec::new(); chunks.ids.len()];
    let mut open: Vec<Bitmap> = vec![Bitmap::default(); chunks.ids.len()];
    let mut opened: Vec<usize> = Vec::new();
    for (v, list) in (0u32..).zip(touched) {
        for &(at, bits) in list {
            let slots = &chunks.slots[bases[at] as usize..];
            bits.for_each_one(|local| {
                let (n, new_local) = slots[local];
                let bitmap = &mut open[n as usize];
                if bitmap.is_empty() {
                    *bitmap = Bitmap::new(chunks.counts[n as usize]);
                    opened.push(n as usize);
                }
                bitmap.set(new_local as usize);
            });
        }
        for n in opened.drain(..) {
            entries[n].push((VersionId(v), std::mem::take(&mut open[n])));
        }
    }
    chunks.ids.iter().copied().zip(entries).collect()
}

/// What one cut-over slice moved and cost — folded into the run-wide
/// [`CompactionReport`] by the slice loop.
struct SliceOutcome {
    victims: usize,
    new_chunks: usize,
    records_moved: usize,
    subchunks_built: usize,
    bytes_rewritten: usize,
    record_bytes: usize,
    bytes_reclaimed: usize,
    keys_deleted: usize,
    reclamation_failed: bool,
    stages: CompactionStages,
}

/// A fully planned rebuild that has not touched the backend: where
/// the moved records came from, the staged generation (their
/// re-grouping, carried or encoded, and partitioned), and the span
/// comparison that decides whether it cuts over.
struct StagedRebuild {
    /// Victim chunk ids, ascending.
    victims: Vec<u32>,
    /// Records moved, numbered by extraction ordinal: victim by victim,
    /// each in local order.
    moved: usize,
    /// Per victim, its chunk map and its first record's ordinal.
    maps: Vec<ChunkMap>,
    bases: Vec<u32>,
    /// The generation that would replace the victims; it holds them.
    staged: StagedGeneration,
    /// Span the victims contribute under the current layout.
    old_span: usize,
    /// Span the candidate chunks would contribute.
    new_span: usize,
    /// Compressed chunk bytes the victims occupy.
    bytes_reclaimed: usize,
    /// Wall time of the extract stage.
    extract: Duration,
    /// Wall time of the grouping, carry/encode + partitioning stage.
    partition: Duration,
}

impl StagedRebuild {
    /// True when cutting over helps: the span contribution shrinks,
    /// or stays equal while the chunk count drops (better fill, same
    /// fan-out).
    fn improves(&self) -> bool {
        self.new_span < self.old_span
            || (self.new_span == self.old_span
                && self.staged.partitioning.num_chunks < self.victims.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::SubChunk;
    use crate::store::CommitRequest;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rstore_kvstore::Cluster;
    use rstore_vgraph::{Dataset, DatasetSpec};
    use rustc_hash::FxHashMap;

    /// With sub-chunks of up to four records, the compaction's
    /// `(pk, origin)` grouping can cut a key's history where the flush
    /// did not: such a group is encoded anew, a group that is one
    /// victim sub-chunk is carried, and either way each staged
    /// sub-chunk is what encoding its group produces.
    #[test]
    fn staged_sub_chunks_are_their_groups_encoded() {
        let mut spec = DatasetSpec::tiny(3801);
        spec.num_versions = 40;
        spec.root_records = 50;
        spec.update_frac = 0.3;
        let dataset = spec.generate();
        let store = RStore::builder()
            .chunk_capacity(1024)
            .max_subchunk(4)
            .batch_size(3)
            .compaction(CompactionConfig {
                min_fill: 1.1,
                ..CompactionConfig::default()
            })
            .build(Cluster::builder().nodes(3).build());
        crate::online::replay_commits(&store, &dataset).unwrap();

        let st = store.state.lock().unwrap();
        let victims = store.select_victims(&st);
        let rebuild = store.stage_rebuild(&st, victims).unwrap();
        let staged = &rebuild.staged;
        // Every moved record by extraction ordinal, its payload decoded
        // from the victim sub-chunk it was fetched in.
        let records: Vec<(CompositeKey, Bytes)> = (staged.sources.iter())
            .flat_map(|dc| &dc.chunk.subchunks)
            .flat_map(|sc| sc.members.iter().copied().zip(sc.decode_uncached().unwrap()))
            .collect();
        assert_eq!(records.len(), rebuild.moved);
        let mut built = 0;
        for (members, encoded) in staged.groups.iter().zip(&staged.subchunks) {
            let group: Vec<(CompositeKey, &[u8])> = members
                .iter()
                .map(|&i| {
                    let (ck, payload) = &records[i as usize];
                    (*ck, &payload[..])
                })
                .collect();
            assert_eq!(
                encoded.subchunk(&staged.sources),
                &SubChunk::build(&group),
                "group {members:?}"
            );
            built += usize::from(matches!(encoded, Encoded::Built(_)));
        }
        assert!(built > 0, "no group was encoded anew");
        assert!(built < staged.groups.len(), "no group was carried");
    }

    /// The members pass as it was: per flushed version, the moved
    /// records' extraction ordinals and the distinct groups they fall
    /// in, both collected from the victims' map bits — the identity
    /// oracle for [`moved_version_items`], and the input of
    /// [`index_reference`].
    fn members_reference(
        touched: &[Vec<(usize, &Bitmap)>],
        bases: &[u32],
        groups: &[Vec<u32>],
        records: usize,
    ) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let mut group_of_rec: Vec<u32> = vec![0; records];
        for (g, members) in groups.iter().enumerate() {
            for &i in members {
                group_of_rec[i as usize] = g as u32;
            }
        }
        let mut version_members: Vec<Vec<u32>> = vec![Vec::new(); touched.len()];
        let mut version_items: Vec<Vec<u32>> = vec![Vec::new(); touched.len()];
        let mut seen = Bitmap::new(groups.len());
        for (v, entries) in touched.iter().enumerate() {
            let members = &mut version_members[v];
            for &(at, bits) in entries {
                for local in bits.iter_ones() {
                    let i = bases[at] + local as u32;
                    members.push(i);
                    seen.set(group_of_rec[i as usize] as usize);
                }
            }
            let items: Vec<u32> = seen.iter_ones().map(|g| g as u32).collect();
            for &g in &items {
                seen.clear(g as usize);
            }
            version_items[v] = items;
        }
        (version_members, version_items)
    }

    /// The index closure as it was: per version, the moved records'
    /// new locals collected per new chunk id in a hash map, each
    /// chunk's list one `Bitmap::from_indices` — the identity oracle
    /// for [`index_moved`].
    fn index_reference(version_members: &[Vec<u32>], chunks: &StagedChunks) -> StagedIndex {
        let count_of: FxHashMap<u32, usize> =
            chunks.ids.iter().copied().zip(chunks.counts.iter().copied()).collect();
        let mut index = StagedIndex::default();
        let mut touched: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
        for (v, members) in version_members.iter().enumerate() {
            for &i in members {
                let (n, local) = chunks.slots[i as usize];
                touched.entry(chunks.ids[n as usize]).or_default().push(local as usize);
            }
            for (chunk, locals) in touched.drain() {
                let members = Bitmap::from_indices(count_of[&chunk], locals);
                index.entry(chunk).or_default().push((VersionId(v as u32), members));
            }
        }
        index
    }

    /// The commit that reproduces version `v` of `dataset`, as
    /// [`crate::online::commit_request`] makes it, except that one
    /// time in four a version with an older non-parent version becomes
    /// a merge of its parent and that version.
    fn merging_request(dataset: &Dataset, v: VersionId, rng: &mut StdRng) -> CommitRequest {
        let delta = &dataset.deltas[v.index()];
        let mut req = match dataset.graph.node(v).parents.first() {
            None => CommitRequest::root(Vec::<(u64, Vec<u8>)>::new()),
            Some(&p) => {
                let other = VersionId(rng.random_range(0..v.as_u32()));
                if other != p && rng.random_bool(0.25) {
                    CommitRequest::merge_of(p, [other])
                } else {
                    CommitRequest::child_of(p)
                }
            }
        };
        for r in &delta.added {
            req = req.put(r.pk, r.payload.clone());
        }
        for ck in &delta.removed {
            if !delta.added.iter().any(|r| r.pk == ck.pk) {
                req = req.delete(ck.pk);
            }
        }
        req
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On random tiny histories with merges, flushed in small
        /// batches with the last commits still pending, the members
        /// pass and the dense index pass derive exactly what the
        /// reference derivation does from the same victims and the
        /// same placement, at one record per sub-chunk and at three.
        #[test]
        fn the_dense_index_pass_matches_the_reference(
            seed in any::<u64>(),
            batches in 2usize..8,
            batch in 2usize..6,
            pending in 1usize..6,
            k in prop_oneof![Just(1usize), Just(3)],
        ) {
            let pending = pending.min(batch - 1);
            let mut spec = DatasetSpec::tiny(seed);
            spec.num_versions = batches * batch + pending;
            let dataset = spec.generate();
            let store = RStore::builder()
                .chunk_capacity(512)
                .max_subchunk(k)
                .batch_size(batch)
                .compaction(CompactionConfig {
                    min_fill: 1.1,
                    ..CompactionConfig::default()
                })
                .build(Cluster::builder().nodes(2).build());
            let mut rng = StdRng::seed_from_u64(seed);
            for v in dataset.graph.ids() {
                store.commit(merging_request(&dataset, v, &mut rng)).unwrap();
            }
            prop_assert_eq!(store.pending_commits(), pending);

            let mut guard = store.state.lock().unwrap();
            let st = &mut *guard;
            let victims = store.select_victims(st);
            prop_assert!(victims.len() >= MIN_VICTIMS);
            let rebuild = store.stage_rebuild(st, victims).unwrap();
            let flushed = st.flushed_versions;
            let touched = chunkmap::by_version(&rebuild.maps, flushed).unwrap();
            let groups = &rebuild.staged.groups;
            let (members, items) = members_reference(&touched, &rebuild.bases, groups, rebuild.moved);
            let mut group_of = vec![0; rebuild.moved];
            for (g, members) in (0u32..).zip(groups) {
                members.iter().for_each(|&m| group_of[m as usize] = g);
            }
            let got = moved_version_items(&touched, &rebuild.bases, &group_of, groups.len());
            prop_assert_eq!(got, items);

            let mut indexes = None;
            store
                .commit_generation(st, rebuild.staged, flushed, &rebuild.victims, |_, chunks| {
                    let index = index_moved(&touched, &rebuild.bases, chunks);
                    // A new chunk no version holds gets no entries
                    // either way; the writer reads both alike.
                    let mut got = index.clone();
                    got.retain(|_, entries| !entries.is_empty());
                    indexes = Some((got, index_reference(&members, chunks)));
                    index
                })
                .unwrap();
            let (got, want) = indexes.unwrap();
            prop_assert_eq!(got, want);
        }
    }
}
