//! The layer probe of a traced run: direct, single-threaded calls
//! into each layer's public functions over the workload's own data —
//! the stored chunk and chunk-map bytes of the store under test, and
//! `D1`'s records — timed from outside.

use crate::metrics::{Values, CLASSES};
use crate::oracle::Oracle;
use crate::reads::QueryStream;
use crate::workload::{Scratch, CHUNK_CAPACITY, NODES};
use bytes::Bytes;
use rstore_compress::{apply_delta, diff, lz, varint, Bitmap, PostingsList};
use rstore_core::cache::{ChunkCache, DecodedChunk};
use rstore_core::chunk::{Chunk, SubChunk};
use rstore_core::chunkmap::ChunkMap;
use rstore_core::index::Projections;
use rstore_core::partition::PartitionInput;
use rstore_core::store::{RStore, CHUNK_TABLE, CMAP_TABLE};
use rstore_core::subchunk::SubchunkPlan;
use rstore_core::{ChunkId, CoreError, PartitionerKind, VersionId};
use rstore_kvstore::engine::{LogEngine, MemEngine, StorageEngine};
use rstore_kvstore::{table_key, Cluster, Key};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stored chunks sampled per probe.
pub const SAMPLE_CHUNKS: usize = 128;
/// Records, groups and pairs sampled for the codec loops.
const SAMPLE_RECORDS: usize = 2000;

/// One stored chunk: its backend keys and bytes.
pub struct StoredChunk {
    pub id: u32,
    pub blob: Bytes,
    pub map: Bytes,
}

/// Fetches up to [`SAMPLE_CHUNKS`] live chunks of `store`, evenly
/// spread over its live ids, straight from the backend.
pub fn capture(store: &RStore) -> Result<Vec<StoredChunk>, CoreError> {
    let live = store.live_chunk_ids();
    let step = live.len().div_ceil(SAMPLE_CHUNKS).max(1);
    let ids: Vec<u32> = live.into_iter().step_by(step).collect();
    let key = |table: &str, id: u32| table_key(table, &ChunkId(id).to_key());
    let blobs = store
        .cluster()
        .multi_get_owned(ids.iter().map(|&id| key(CHUNK_TABLE, id)).collect())?;
    let maps = store
        .cluster()
        .multi_get_owned(ids.iter().map(|&id| key(CMAP_TABLE, id)).collect())?;
    ids.into_iter()
        .zip(blobs.into_iter().zip(maps))
        .map(|(id, pair)| match pair {
            (Some(blob), Some(map)) => Ok(StoredChunk { id, blob, map }),
            _ => Err(CoreError::Codec(format!(
                "live chunk {id} has no stored bytes"
            ))),
        })
        .collect()
}

fn ns_per(total: Duration, ops: usize) -> f64 {
    total.as_nanos() as f64 / ops.max(1) as f64
}

fn mb_per_s(bytes: usize, total: Duration) -> f64 {
    bytes as f64 / 1e6 / total.as_secs_f64().max(1e-9)
}

/// Times `f` once over its whole input.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed())
}

/// Runs every direct-call measurement. Errors mean stored bytes did
/// not decode — a wrong answer, not a timing problem.
pub fn run(
    stored: &[StoredChunk],
    oracle: &Oracle,
    scratch: &Scratch,
    seed: u64,
) -> Result<Values, String> {
    let mut out = Values::default();
    chunk_layer(stored, oracle, &mut out).map_err(|e| format!("probe: {e}"))?;
    partition_and_index(oracle, seed, &mut out);
    codecs(stored, oracle, &mut out).map_err(|e| format!("probe: {e}"))?;
    kvstore(stored, scratch, &mut out).map_err(|e| format!("probe: {e}"))?;
    Ok(out)
}

/// chunk / sub-chunk / chunk-map (de)serialization and the cache.
fn chunk_layer(stored: &[StoredChunk], oracle: &Oracle, out: &mut Values) -> Result<(), CoreError> {
    let n = stored.len();
    let (chunks, t) = timed(|| {
        stored
            .iter()
            .map(|s| Chunk::deserialize(&s.blob))
            .collect::<Result<Vec<_>, _>>()
    });
    let chunks = chunks?;
    out.set("core.chunk.deserialize_us_per_chunk", ns_per(t, n) / 1e3);
    let (bytes, t) = timed(|| {
        chunks
            .iter()
            .map(|c| black_box(c.serialize()).len())
            .sum::<usize>()
    });
    out.set("core.chunk.serialize_mb_s", mb_per_s(bytes, t));

    let groups: usize = chunks.iter().map(|c| c.subchunks.len()).sum();
    let (decoded, t) = timed(|| {
        chunks
            .iter()
            .flat_map(|c| &c.subchunks)
            .try_fold(0usize, |acc, sc| {
                sc.decode_uncached()
                    .map(|members| acc + black_box(members).len())
            })
    });
    decoded?;
    out.set("core.subchunk.decode_us_per_group", ns_per(t, groups) / 1e3);

    // Encode side: the same-key groups the bulk load would build.
    let plan = SubchunkPlan::build(
        &oracle.dataset,
        &oracle.records,
        crate::workload::BULK_SUBCHUNK,
    );
    let sample: Vec<Vec<_>> = plan
        .groups
        .iter()
        .take(SAMPLE_RECORDS)
        .map(|g| {
            g.iter()
                .map(|&ord| (oracle.records.key(ord), oracle.records.payload(ord)))
                .collect()
        })
        .collect();
    let (_, t) = timed(|| {
        sample
            .iter()
            .for_each(|members| drop(black_box(SubChunk::build(members))))
    });
    out.set(
        "core.subchunk.build_us_per_group",
        ns_per(t, sample.len()) / 1e3,
    );

    let (maps, t) = timed(|| {
        stored
            .iter()
            .map(|s| ChunkMap::deserialize(&s.map))
            .collect::<Result<Vec<_>, _>>()
    });
    let maps = maps?;
    out.set("core.chunkmap.deserialize_us_per_map", ns_per(t, n) / 1e3);
    let (bytes, t) = timed(|| {
        maps.iter()
            .map(|m| black_box(m.serialize()).len())
            .sum::<usize>()
    });
    out.set("core.chunkmap.serialize_us_per_map", ns_per(t, n) / 1e3);
    out.set(
        "core.chunkmap.bytes_per_map_mean",
        bytes as f64 / n.max(1) as f64,
    );
    let (records, t) = timed(|| {
        maps.iter()
            .flat_map(|m| m.iter().map(move |(v, _)| (m, v)))
            .map(|(m, v)| {
                m.iter_locals(v)
                    .map_or(0, |locals| black_box(locals.count()))
            })
            .sum::<usize>()
    });
    out.set(
        "core.chunkmap.iter_locals_ns_per_record",
        ns_per(t, records),
    );
    // Per map: its record count and every version's local ordinals.
    type MapEntries = (usize, Vec<(VersionId, Vec<usize>)>);
    let entries: Vec<MapEntries> = maps
        .iter()
        .map(|m| {
            (
                m.num_records(),
                m.iter()
                    .map(|(v, bits)| (v, bits.iter_ones().collect()))
                    .collect(),
            )
        })
        .collect();
    let pushes: usize = entries.iter().map(|(_, e)| e.len()).sum();
    let (_, t) = timed(|| {
        for (records, versions) in &entries {
            let mut map = ChunkMap::new(*records);
            for (v, locals) in versions {
                map.push_version(*v, locals.iter().copied());
            }
            black_box(map);
        }
    });
    out.set("core.chunkmap.push_version_us", ns_per(t, pushes) / 1e3);

    // A cache big enough that the probe measures admission and hits,
    // not eviction.
    let cache = ChunkCache::new(1 << 30, 8);
    let decoded: Vec<(u32, Arc<DecodedChunk>)> = stored
        .iter()
        .zip(chunks.into_iter().zip(maps))
        .map(|(s, (chunk, map))| (s.id, Arc::new(DecodedChunk::new(chunk, map))))
        .collect();
    let (_, t) = timed(|| {
        decoded
            .iter()
            .for_each(|(id, dc)| cache.insert(*id, Arc::clone(dc), 1))
    });
    out.set("core.cache.insert_ns", ns_per(t, n));
    const ROUNDS: usize = 50;
    let (hits, t) = timed(|| {
        (0..ROUNDS)
            .flat_map(|_| decoded.iter())
            .filter(|(id, _)| black_box(cache.get(*id, 1)).is_some())
            .count()
    });
    if hits != n * ROUNDS {
        return Err(CoreError::Codec("probe cache lost an entry".into()));
    }
    out.set("core.cache.get_ns", ns_per(t, hits));
    Ok(())
}

/// BOTTOM-UP over `D1` at record granularity, and the projections the
/// resulting layout would index.
fn partition_and_index(oracle: &Oracle, seed: u64, out: &mut Values) {
    let versions = oracle.dataset.graph.len();
    let version_items: Vec<Vec<u32>> = (0..versions)
        .map(|v| {
            let mut items: Vec<u32> = oracle
                .versions
                .contents(VersionId(v as u32))
                .iter()
                .map(|&(_, ord)| ord)
                .collect();
            items.sort_unstable();
            items
        })
        .collect();
    let item_sizes: Vec<u32> = (0..oracle.records.len() as u32)
        .map(|o| oracle.records.payload(o).len() as u32)
        .collect();
    let item_pk: Vec<u64> = oracle.records.keys().iter().map(|ck| ck.pk).collect();
    let tree = oracle.dataset.graph.to_tree();
    let input = PartitionInput {
        tree: &tree,
        version_items: &version_items,
        item_sizes: &item_sizes,
        item_pk: &item_pk,
    };
    let partitioner = PartitionerKind::BottomUp { beta: usize::MAX }.build(CHUNK_CAPACITY);
    let (partitioning, t) = timed(|| partitioner.partition(&input));
    out.set(
        "core.partition.bottom_up_items_per_s",
        item_sizes.len() as f64 / t.as_secs_f64().max(1e-9),
    );

    let mut projections = Projections::new();
    for (v, items) in version_items.iter().enumerate() {
        for &item in items {
            projections.add_version_chunk(
                VersionId(v as u32),
                ChunkId(partitioning.chunk_of[item as usize]),
            );
        }
    }
    for (item, &pk) in item_pk.iter().enumerate() {
        projections.add_key_chunk(pk, ChunkId(partitioning.chunk_of[item]));
    }
    out.set(
        "core.partition.bottom_up_total_span",
        projections.total_version_span() as f64,
    );
    let (version_bytes, key_bytes) = projections.serialized_bytes();
    out.set(
        "core.index.projection_bytes",
        (version_bytes + key_bytes) as f64,
    );

    let mut stream = QueryStream::new(oracle, seed, 900, versions);
    let mut specs: [Vec<_>; 4] = Default::default();
    for _ in 0..20 * SAMPLE_RECORDS {
        let (class, spec) = stream.next_query();
        if specs[class].len() < SAMPLE_RECORDS {
            specs[class].push(spec);
        }
    }
    for (class, specs) in specs.iter().enumerate() {
        let (_, t) = timed(|| {
            specs
                .iter()
                .for_each(|s| drop(black_box(projections.chunks_for(s, Vec::new))))
        });
        out.set(
            format!("core.index.chunks_for_ns.{}", CLASSES[class]),
            ns_per(t, specs.len()),
        );
    }

    // Postings over the version → chunks lists the index persists.
    let lists: Vec<Vec<u64>> = (0..versions)
        .map(|v| {
            projections
                .chunks_of_version(VersionId(v as u32))
                .iter()
                .map(|&c| u64::from(c))
                .collect()
        })
        .collect();
    let ids: usize = lists.iter().map(Vec::len).sum();
    let (encoded, t) = timed(|| {
        lists
            .iter()
            .map(|l| PostingsList::from_sorted(l))
            .collect::<Vec<_>>()
    });
    out.set("compress.postings.encode_ns_per_id", ns_per(t, ids));
    let (_, t) = timed(|| encoded.iter().for_each(|p| drop(black_box(p.decode()))));
    out.set("compress.postings.decode_ns_per_id", ns_per(t, ids));
}

/// LZ, delta, bitmap and varint loops on `D1` payloads and the stored
/// chunk maps' membership bitmaps.
fn codecs(stored: &[StoredChunk], oracle: &Oracle, out: &mut Values) -> Result<(), CoreError> {
    let payloads: Vec<&[u8]> = (0..oracle.records.len().min(SAMPLE_RECORDS) as u32)
        .map(|o| oracle.records.payload(o))
        .collect();
    let raw: usize = payloads.iter().map(|p| p.len()).sum();
    let (packed, t) = timed(|| payloads.iter().map(|p| lz::compress(p)).collect::<Vec<_>>());
    out.set("compress.lz.compress_mb_s", mb_per_s(raw, t));
    let (unpacked, t) = timed(|| {
        packed
            .iter()
            .map(|p| lz::decompress(p).map(|v| black_box(v).len()))
            .sum::<Result<usize, _>>()
    });
    if unpacked.map_err(|e| CoreError::Codec(e.to_string()))? != raw {
        return Err(CoreError::Codec(
            "LZ round trip changed the payload size".into(),
        ));
    }
    out.set("compress.lz.decompress_mb_s", mb_per_s(raw, t));

    // Successive values of one key: an update's record and the record
    // it replaced.
    let pairs: Vec<(&[u8], &[u8])> = oracle
        .dataset
        .deltas
        .iter()
        .flat_map(|d| {
            d.added.iter().filter_map(|new| {
                let old = d.removed.iter().find(|ck| ck.pk == new.pk)?;
                Some((
                    oracle.records.payload(oracle.records.ord(*old)?),
                    new.payload.as_ref(),
                ))
            })
        })
        .take(SAMPLE_RECORDS)
        .collect();
    let target: usize = pairs.iter().map(|(_, new)| new.len()).sum();
    let (deltas, t) = timed(|| {
        pairs
            .iter()
            .map(|(old, new)| diff(old, new))
            .collect::<Vec<_>>()
    });
    out.set("compress.delta.diff_mb_s", mb_per_s(target, t));
    let (applied, t) = timed(|| {
        pairs
            .iter()
            .zip(&deltas)
            .map(|((old, _), delta)| apply_delta(old, delta).map(|v| black_box(v).len()))
            .sum::<Result<usize, _>>()
    });
    if applied.map_err(|e| CoreError::Codec(e.to_string()))? != target {
        return Err(CoreError::Codec(
            "delta round trip changed the payload size".into(),
        ));
    }
    out.set("compress.delta.apply_mb_s", mb_per_s(target, t));

    let maps = stored
        .iter()
        .map(|s| ChunkMap::deserialize(&s.map))
        .collect::<Result<Vec<_>, _>>()?;
    let bitmaps: Vec<&Bitmap> = maps
        .iter()
        .flat_map(|m| m.iter().map(|(_, bits)| bits))
        .collect();
    let (wire, t) = timed(|| bitmaps.iter().map(|b| b.serialize()).collect::<Vec<_>>());
    out.set("compress.bitmap.serialize_ns", ns_per(t, bitmaps.len()));
    let (back, t) = timed(|| {
        wire.iter()
            .map(|w| Bitmap::deserialize(w).map(|b| black_box(b).len()))
            .sum::<Result<usize, _>>()
    });
    back.map_err(|e| CoreError::Codec(e.to_string()))?;
    out.set("compress.bitmap.deserialize_ns", ns_per(t, bitmaps.len()));

    // Magnitudes from one to nine varint bytes.
    const INTS: usize = 100_000;
    let (sum, t) = timed(|| {
        let mut buf = Vec::with_capacity(INTS * 5);
        for i in 0..INTS as u64 {
            varint::write_u64(&mut buf, i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 57));
        }
        let mut reader = varint::VarintReader::new(&buf);
        let mut sum = 0u64;
        while let Ok(v) = reader.read_u64() {
            sum = sum.wrapping_add(v);
        }
        sum
    });
    black_box(sum);
    out.set("compress.varint.roundtrip_ns_per_int", ns_per(t, INTS));
    Ok(())
}

/// Cluster hop, ring and both storage engines on the stored bytes.
fn kvstore(stored: &[StoredChunk], scratch: &Scratch, out: &mut Values) -> Result<(), String> {
    let pairs: Vec<(Key, Bytes)> = stored
        .iter()
        .flat_map(|s| {
            [
                (
                    table_key(CHUNK_TABLE, &ChunkId(s.id).to_key()),
                    s.blob.clone(),
                ),
                (
                    table_key(CMAP_TABLE, &ChunkId(s.id).to_key()),
                    s.map.clone(),
                ),
            ]
        })
        .collect();
    let keys: Vec<Key> = pairs.iter().map(|(k, _)| k.clone()).collect();
    let n = pairs.len();
    let err = |e: rstore_kvstore::KvError| e.to_string();

    let cluster = Cluster::builder().nodes(NODES).build();
    let (put, t) = timed(|| cluster.multi_put(pairs.clone()));
    put.map_err(err)?;
    out.set("kvstore.cluster.multi_put_us_per_pair", ns_per(t, n) / 1e3);
    let (got, t) = timed(|| {
        keys.iter()
            .map(|k| cluster.get(k).map(|v| v.is_some()))
            .collect::<Result<Vec<_>, _>>()
    });
    if got.map_err(err)?.contains(&false) {
        return Err("probe cluster lost a key".into());
    }
    out.set("kvstore.cluster.get_us", ns_per(t, n) / 1e3);
    const ROUNDS: usize = 10;
    let (got, t) = timed(|| {
        (0..ROUNDS)
            .map(|_| cluster.multi_get(&keys).map(|v| v.len()))
            .sum::<Result<usize, _>>()
    });
    got.map_err(err)?;
    out.set(
        "kvstore.cluster.multi_get_us_per_key",
        ns_per(t, n * ROUNDS) / 1e3,
    );
    let (owners, t) = timed(|| {
        (0..ROUNDS)
            .flat_map(|_| keys.iter())
            .map(|k| cluster.owner_of(k))
            .collect::<Result<Vec<_>, _>>()
    });
    black_box(owners.map_err(err)?);
    out.set("kvstore.ring.owner_of_ns", ns_per(t, n * ROUNDS));
    drop(cluster);

    let mut mem = MemEngine::new();
    let (put, t) = timed(|| {
        pairs
            .iter()
            .try_for_each(|(k, v)| mem.put(k.clone(), v.clone()))
    });
    put.map_err(err)?;
    out.set("kvstore.engine.mem.put_ns", ns_per(t, n));
    let (got, t) = timed(|| {
        (0..ROUNDS)
            .flat_map(|_| keys.iter())
            .try_for_each(|k| mem.get(k).map(|v| drop(black_box(v))))
    });
    got.map_err(err)?;
    out.set("kvstore.engine.mem.get_ns", ns_per(t, n * ROUNDS));

    let dir = scratch.fresh_dir().map_err(|e| e.to_string())?;
    let path = dir.join("probe.log");
    let mut log = LogEngine::open(&path).map_err(err)?;
    let (put, t) = timed(|| {
        pairs
            .iter()
            .try_for_each(|(k, v)| log.put(k.clone(), v.clone()))
    });
    put.map_err(err)?;
    out.set("kvstore.engine.log.put_us", ns_per(t, n) / 1e3);
    let (got, t) = timed(|| {
        keys.iter()
            .try_for_each(|k| log.get(k).map(|v| drop(black_box(v))))
    });
    got.map_err(err)?;
    out.set("kvstore.engine.log.get_us", ns_per(t, n) / 1e3);
    drop(log);
    let (reopened, t) = timed(|| LogEngine::open(&path));
    if reopened.map_err(err)?.len() != n {
        return Err("probe log replay lost a key".into());
    }
    out.set("kvstore.engine.log.replay_ms", t.as_secs_f64() * 1e3);
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
}
