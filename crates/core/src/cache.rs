//! The decoded-chunk cache: a sharded, byte-budgeted LRU over decoded
//! chunks, each paired with its chunk map.
//!
//! The paper's serving layer caches chunk maps at the query server
//! (§3.2: "the chunk maps ... are cached at the query server") — here
//! every map is resident, published with each
//! [`StoreSnapshot`](crate::store::StoreSnapshot), and a cache entry
//! merely shares its admitting generation's. Skewed real workloads
//! (recent versions, popular keys) make the same hot chunks back
//! consecutive queries, so RStore also keeps fully *decoded* chunks
//! resident: the fetched blob is parsed once, in place (an entry pins
//! its blob and one key table, see [`crate::chunk`]), and
//! sub-chunk decompression is memoized inside the resident [`Chunk`]
//! (see [`SubChunk::decode`](crate::chunk::SubChunk::decode)) so a
//! chunk is decompressed at most once while cached.
//!
//! Design:
//!
//! * **Sharded** — `shards` independent LRU maps behind their own
//!   locks, selected by chunk id, so concurrent readers on a shared
//!   `&RStore` rarely contend.
//! * **Byte-budgeted** — every entry is charged its compressed bytes
//!   plus decompressed bytes plus key-table overhead; each shard
//!   evicts from its LRU tail until back under `budget / shards`.
//! * **Interior mutability** — the read-only query API keeps `&self`;
//!   all mutation happens under the shard locks and relaxed atomic
//!   counters.
//! * **Invalidation** — rewriting a chunk map (online ingest batches,
//!   [`RStore::flush_batch`](crate::store::RStore::flush_batch))
//!   invalidates the chunk id; the next query re-fetches the blob and
//!   caches it with the fresh map.
//!
//! A zero budget disables the cache entirely, preserving the
//! uncached behaviour the cost-model experiments rely on.

use crate::chunk::Chunk;
use crate::chunkmap::ChunkMap;
use crate::model::CompositeKey;
use crate::obs::MetricsRegistry;
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A decoded chunk paired with its map, shared between queries.
#[derive(Debug)]
pub struct DecodedChunk {
    /// The decoded chunk (sub-chunk decompression memoized inside).
    pub chunk: Chunk,
    /// The chunk's slice of the 3-D mapping: the map of the snapshot
    /// generation that admitted the chunk. Not fetched or decoded per
    /// query — a [`ChunkMap`] is a handle on shared segments, and this
    /// one shares them with that snapshot's.
    pub map: ChunkMap,
    /// The chunk-local composite keys (`keys[local ordinal]`): a
    /// fetched chunk's own key table, shared, not a copy.
    keys: Arc<[CompositeKey]>,
    /// Bytes charged against the cache budget.
    cost: usize,
}

impl DecodedChunk {
    /// Pairs a fetched chunk with its map, computing the budget
    /// charge.
    pub fn new(chunk: Chunk, map: ChunkMap) -> Self {
        // Charge compressed payloads + eventual decompressed payloads
        // (the memoized sub-chunk decode) + key table; a conservative
        // upper bound is fine, the budget is a soft resource limit
        // rather than an allocator. The map is not charged: its
        // segments stay resident with the store's snapshots whether or
        // not this entry is cached (`StoreStats::resident_map_bytes`).
        // Saturating: a fetched chunk's raw sizes are unchecked header
        // fields until its sub-chunks decode, and a charge past the
        // budget only keeps the entry out of the cache.
        let cost = chunk
            .compressed_bytes()
            .saturating_add(chunk.raw_bytes())
            .saturating_add(chunk.record_count() * std::mem::size_of::<CompositeKey>())
            .saturating_add(128);
        Self {
            keys: chunk.local_keys(),
            chunk,
            map,
            cost,
        }
    }

    /// The chunk-local composite keys (ordinal → key): the fetched
    /// chunk's key table, which its sub-chunks' member lists are
    /// ranges of.
    pub fn local_keys(&self) -> &[CompositeKey] {
        &self.keys
    }

    /// Bytes this entry is charged against the budget.
    pub fn byte_cost(&self) -> usize {
        self.cost
    }
}

struct Entry {
    value: Arc<DecodedChunk>,
    stamp: u64,
    /// Snapshot generation of the reader that admitted the entry
    /// (PR 10): probes pass a per-chunk floor — the generation whose
    /// publish last rewrote the chunk's backend map — and entries
    /// stamped below it are dropped lazily on probe instead of
    /// eagerly inside the mutator's critical section.
    gen: u64,
}

#[derive(Default)]
struct Shard {
    map: FxHashMap<u32, Entry>,
    /// Recency index: stamp → chunk id, oldest first.
    lru: BTreeMap<u64, u32>,
    next_stamp: u64,
    bytes: usize,
}

impl Shard {
    fn touch(&mut self, id: u32) {
        let Some(entry) = self.map.get_mut(&id) else {
            return;
        };
        self.lru.remove(&entry.stamp);
        entry.stamp = self.next_stamp;
        self.lru.insert(self.next_stamp, id);
        self.next_stamp += 1;
    }

    fn remove(&mut self, id: u32) -> bool {
        if let Some(entry) = self.map.remove(&id) {
            self.lru.remove(&entry.stamp);
            self.bytes -= entry.value.cost;
            true
        } else {
            false
        }
    }
}

/// Point-in-time cache counters: a view of the registry's cache cells
/// plus the shards' current residency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to go to the backend.
    pub misses: u64,
    /// Entries evicted to stay within budget.
    pub evictions: u64,
    /// Entries dropped because their chunk was rewritten.
    pub invalidations: u64,
    /// Bytes currently charged across all shards.
    pub resident_bytes: usize,
    /// Chunks currently resident.
    pub resident_chunks: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded byte-budgeted LRU cache.
///
/// Constructed once per [`RStore`](crate::store::RStore); all methods
/// take `&self`.
pub struct ChunkCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    /// Where hits, misses, evictions and invalidations are counted:
    /// the owning store's registry, or a private one for a cache built
    /// on its own.
    registry: Arc<MetricsRegistry>,
}

/// Minimum per-shard budget: with fewer bytes than this per shard,
/// typical decoded chunks would never fit, so the shard count is
/// reduced instead of silently producing a cache that can hold
/// nothing.
const MIN_SHARD_BUDGET: usize = 64 * 1024;

impl ChunkCache {
    /// Creates a cache with a total byte budget split across
    /// `shards` locks. A zero budget disables the cache: lookups
    /// always miss (without counting) and inserts are dropped. A
    /// non-zero budget is never rounded away: the shard count is
    /// clamped so each shard keeps at least `MIN_SHARD_BUDGET`
    /// bytes (or the whole budget when it is smaller than that).
    pub fn new(budget_bytes: usize, shards: usize) -> Self {
        Self::with_registry(budget_bytes, shards, Arc::new(MetricsRegistry::new(false)))
    }

    /// [`ChunkCache::new`], counting into `registry`.
    pub(crate) fn with_registry(
        budget_bytes: usize,
        shards: usize,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        let shards = if budget_bytes == 0 {
            1
        } else {
            shards.clamp(1, (budget_bytes / MIN_SHARD_BUDGET).clamp(1, 1024))
        };
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: budget_bytes / shards,
            registry,
        }
    }

    /// True when a non-zero budget was configured.
    pub fn enabled(&self) -> bool {
        self.shard_budget > 0
    }

    fn shard_of(&self, id: u32) -> &Mutex<Shard> {
        &self.shards[id as usize % self.shards.len()]
    }

    /// Looks up a chunk, refreshing its recency on hit. `min_gen` is
    /// the probing snapshot's floor for this chunk (the generation
    /// whose publish last rewrote its backend map): an entry stamped
    /// below it may hold the pre-rewrite decoded pair, so it is
    /// dropped here — lazy, on the reader's probe — and the lookup
    /// reports a miss. Entries stamped *at or above* the floor are
    /// valid for every snapshot whose map is unchanged (backend maps
    /// only grow; see [`StoreSnapshot`](crate::store::StoreSnapshot)).
    pub fn get(&self, id: u32, min_gen: u64) -> Option<Arc<DecodedChunk>> {
        if !self.enabled() {
            return None;
        }
        let mut shard = self.shard_of(id).lock().unwrap();
        let mut stale = false;
        if let Some(entry) = shard.map.get(&id) {
            if entry.gen >= min_gen {
                let value = Arc::clone(&entry.value);
                shard.touch(id);
                drop(shard);
                self.registry.cache_hits.inc();
                return Some(value);
            }
            shard.remove(id);
            stale = true;
        }
        drop(shard);
        if stale {
            self.registry.cache_invalidations.inc();
        }
        self.registry.cache_misses.inc();
        None
    }

    /// Inserts (or replaces) a decoded chunk stamped with the
    /// admitting snapshot's generation, evicting least-recently used
    /// entries until the shard is back under budget. Entries larger
    /// than a whole shard's budget are not cached. An existing entry
    /// with a *newer* stamp wins: a reader pinned to an old snapshot
    /// must not clobber the fresher pair a newer reader admitted.
    pub fn insert(&self, id: u32, value: Arc<DecodedChunk>, gen: u64) {
        if !self.enabled() || value.cost > self.shard_budget {
            return;
        }
        let mut shard = self.shard_of(id).lock().unwrap();
        if shard.map.get(&id).is_some_and(|e| e.gen > gen) {
            return;
        }
        shard.remove(id);
        let stamp = shard.next_stamp;
        shard.next_stamp += 1;
        shard.bytes += value.cost;
        shard.map.insert(id, Entry { value, stamp, gen });
        shard.lru.insert(stamp, id);
        let mut evicted = 0u64;
        while shard.bytes > self.shard_budget {
            // The newest entry is never the eviction victim unless it
            // is alone, and an entry alone always fits (checked above).
            let Some((_, &victim)) = shard.lru.iter().next() else {
                break;
            };
            shard.remove(victim);
            evicted += 1;
        }
        drop(shard);
        if evicted > 0 {
            self.registry.cache_evictions.add(evicted);
        }
    }

    /// Drops one chunk (after its map was rewritten in the backend).
    pub fn invalidate(&self, id: u32) {
        if !self.enabled() {
            return;
        }
        let removed = self.shard_of(id).lock().unwrap().remove(id);
        if removed {
            self.registry.cache_invalidations.inc();
        }
    }

    /// Counter snapshot plus current residency.
    pub fn stats(&self) -> CacheStats {
        let mut resident_bytes = 0usize;
        let mut resident_chunks = 0usize;
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            resident_bytes += shard.bytes;
            resident_chunks += shard.map.len();
        }
        let r = &self.registry;
        CacheStats {
            hits: r.cache_hits.get(),
            misses: r.cache_misses.get(),
            evictions: r.cache_evictions.get(),
            invalidations: r.cache_invalidations.get(),
            resident_bytes,
            resident_chunks,
        }
    }
}

impl std::fmt::Debug for ChunkCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkCache")
            .field("shards", &self.shards.len())
            .field("shard_budget", &self.shard_budget)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::SubChunk;
    use crate::model::VersionId;

    fn decoded(tag: u8, payload_len: usize) -> Arc<DecodedChunk> {
        let payload = vec![tag; payload_len];
        let chunk = Chunk {
            subchunks: vec![SubChunk::build(&[(
                CompositeKey::new(u64::from(tag), VersionId(0)),
                payload.as_slice(),
            )])],
        };
        let mut map = ChunkMap::new(1);
        map.push_version(VersionId(0), [0]);
        Arc::new(DecodedChunk::new(chunk, map))
    }

    #[test]
    fn zero_budget_disables() {
        let cache = ChunkCache::new(0, 4);
        assert!(!cache.enabled());
        cache.insert(1, decoded(1, 64), 1);
        assert!(cache.get(1, 0).is_none());
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 0);
        assert_eq!(s.resident_chunks, 0);
    }

    #[test]
    fn small_budgets_stay_enabled() {
        // A tiny nonzero budget must not be rounded down to "off" by
        // the shard split; shard count collapses instead.
        let cache = ChunkCache::new(4, 8);
        assert!(cache.enabled());
        assert!(cache.get(1, 0).is_none());
        assert_eq!(cache.stats().misses, 1, "enabled cache counts lookups");
        // A 1 MB budget across absurdly many shards still leaves
        // shards big enough to hold a typical chunk.
        let cache = ChunkCache::new(1 << 20, 1024);
        let entry = decoded(1, 8 * 1024);
        cache.insert(1, Arc::clone(&entry), 1);
        assert!(cache.get(1, 0).is_some(), "typical chunk must fit a shard");
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let cache = ChunkCache::new(1 << 20, 4);
        assert!(cache.get(7, 0).is_none());
        cache.insert(7, decoded(7, 64), 1);
        let got = cache.get(7, 1).expect("cached");
        assert_eq!(got.local_keys()[0].pk, 7);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.resident_chunks, 1);
        assert!(s.resident_bytes > 0);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_oldest_within_budget() {
        // One shard; entries cost ~3KB each (1KB compressed-ish + 1KB
        // raw + overhead); budget fits roughly two.
        let one = decoded(1, 1024);
        let budget = one.byte_cost() * 2 + one.byte_cost() / 2;
        let cache = ChunkCache::new(budget, 1);
        cache.insert(1, one, 1);
        cache.insert(2, decoded(2, 1024), 1);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1, 0).is_some());
        cache.insert(3, decoded(3, 1024), 1);
        assert!(cache.get(1, 0).is_some(), "recently used entry must survive");
        assert!(cache.get(2, 0).is_none(), "LRU entry must be evicted");
        assert!(cache.get(3, 0).is_some());
        assert!(cache.stats().evictions >= 1);
        assert!(cache.stats().resident_bytes <= budget);
    }

    #[test]
    fn oversized_entry_is_not_cached() {
        let entry = decoded(1, 4096);
        let cache = ChunkCache::new(entry.byte_cost() / 2, 1);
        cache.insert(1, entry, 1);
        assert_eq!(cache.stats().resident_chunks, 0);
    }

    #[test]
    fn invalidate_drops_entry() {
        let cache = ChunkCache::new(1 << 20, 2);
        cache.insert(1, decoded(1, 64), 1);
        cache.insert(2, decoded(2, 64), 1);
        cache.invalidate(1);
        assert!(cache.get(1, 0).is_none());
        assert!(cache.get(2, 0).is_some());
        assert_eq!(cache.stats().invalidations, 1);
        // Invalidating an absent entry drops nothing and counts nothing.
        cache.invalidate(1);
        assert_eq!(cache.stats().invalidations, 1);
        cache.invalidate(2);
        assert_eq!(cache.stats().resident_chunks, 0);
        assert!(cache.get(2, 0).is_none());
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn replacing_same_id_keeps_accounting_consistent() {
        let cache = ChunkCache::new(1 << 20, 1);
        cache.insert(5, decoded(5, 64), 1);
        let before = cache.stats().resident_bytes;
        cache.insert(5, decoded(5, 64), 1);
        assert_eq!(cache.stats().resident_bytes, before);
        assert_eq!(cache.stats().resident_chunks, 1);
    }

    #[test]
    fn generation_gating() {
        let cache = ChunkCache::new(1 << 20, 1);
        cache.insert(1, decoded(1, 64), 3);
        // At or above the probe floor: still a hit.
        assert!(cache.get(1, 3).is_some());
        // An older reader must not clobber a newer entry.
        cache.insert(1, decoded(9, 64), 2);
        assert_eq!(cache.get(1, 0).unwrap().local_keys()[0].pk, 1);
        // A newer reader may replace it.
        cache.insert(1, decoded(9, 64), 4);
        assert_eq!(cache.get(1, 0).unwrap().local_keys()[0].pk, 9);
        // Below the floor: dropped lazily on probe, counted as an
        // invalidation plus a miss.
        let inv = cache.stats().invalidations;
        assert!(cache.get(1, 5).is_none());
        assert_eq!(cache.stats().invalidations, inv + 1);
        assert_eq!(cache.stats().resident_chunks, 0);
    }

    #[test]
    fn concurrent_readers_share_entries() {
        let cache = Arc::new(ChunkCache::new(1 << 20, 8));
        for id in 0..32u32 {
            cache.insert(id, decoded(id as u8, 128), 1);
        }
        let mut handles = Vec::new();
        for t in 0..4 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for round in 0..200u32 {
                    let id = (round * 7 + t) % 32;
                    let entry = cache.get(id, 1).expect("resident");
                    assert_eq!(entry.local_keys()[0].pk, u64::from(id as u8));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().hits, 4 * 200);
    }
}
