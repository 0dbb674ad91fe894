//! Property-based tests for the RStore core invariants:
//!
//! * every partitioner produces a *valid* partitioning (each item in
//!   exactly one chunk; chunk sizes within the 25% slack) on random
//!   version graphs,
//! * chunk / chunk-map / projection serialization round-trips,
//! * no decoder of backend bytes panics — chunks, chunk maps,
//!   projections, and the commit log's records and checkpoint, pure
//!   and through a restart's replay,
//! * query results over a fully loaded store match the
//!   materialization oracle for random datasets and partitioners,
//! * random commit sequences keep the store consistent,
//! * a blob read in place equals the copied parse, and damaged blobs
//!   decode exactly as the allocating reference decoder does.

use bytes::Bytes;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rstore_compress::delta::parse_ops;
use rstore_compress::DeltaOp;
use rstore_core::chunk::{Chunk, SubChunk};
use rstore_core::CoreError;
use rstore_core::chunkmap::ChunkMap;
use rstore_core::model::{CompositeKey, VersionId};
use rstore_core::partition::PartitionerKind;
use rstore_core::online::replay_commits;
use rstore_core::store::{CommitRequest, RStore};
use rstore_core::{CompactionConfig, GenerationRecord};
use rstore_kvstore::Cluster;
use rstore_vgraph::{DatasetSpec, SelectionKind};

/// A strategy over dataset specs small enough to load per test case.
fn spec_strategy() -> impl Strategy<Value = DatasetSpec> {
    (
        1u64..1000,         // seed
        8usize..24,         // versions
        10usize..40,        // root records
        0.0f64..0.4,        // branch probability
        0.05f64..0.4,       // update fraction
        prop::bool::ANY,    // zipf?
        32usize..128,       // record size
    )
        .prop_map(|(seed, nv, rr, bp, uf, zipf, rs)| DatasetSpec {
            name: format!("prop-{seed}"),
            num_versions: nv,
            root_records: rr,
            branch_prob: bp,
            update_frac: uf,
            insert_frac: 0.05,
            delete_frac: 0.05,
            selection: if zipf {
                SelectionKind::Zipf { theta: 1.0 }
            } else {
                SelectionKind::Uniform
            },
            record_size: rs,
            pd: 0.1,
            seed,
        })
}

fn all_kinds() -> Vec<PartitionerKind> {
    vec![
        PartitionerKind::BottomUp { beta: usize::MAX },
        PartitionerKind::BottomUp { beta: 3 },
        PartitionerKind::Shingle { num_hashes: 3 },
        PartitionerKind::DepthFirst,
        PartitionerKind::BreadthFirst,
        PartitionerKind::SubchunkBaseline,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn partitioners_produce_valid_partitionings(spec in spec_strategy()) {
        let ds = spec.generate();
        let store = ds.record_store();
        let m = ds.materialize(&store);
        let version_items: Vec<Vec<u32>> = (0..ds.graph.len())
            .map(|v| {
                let mut items: Vec<u32> = m
                    .contents(VersionId(v as u32))
                    .iter()
                    .map(|&(_, ord)| ord)
                    .collect();
                items.sort_unstable();
                items
            })
            .collect();
        let item_sizes: Vec<u32> = (0..store.len() as u32)
            .map(|o| store.payload(o).len() as u32)
            .collect();
        let item_pk: Vec<u64> = store.keys().iter().map(|ck| ck.pk).collect();
        let input = rstore_core::partition::PartitionInput {
            tree: &ds.graph,
            version_items: &version_items,
            item_sizes: &item_sizes,
            item_pk: &item_pk,
        };
        for kind in all_kinds() {
            let p = kind.build(512).partition(&input);
            // Baselines ignore capacity, so only capacity-aware kinds
            // must satisfy the size bound.
            match kind {
                PartitionerKind::SubchunkBaseline | PartitionerKind::SingleAddress => {
                    // Still: every item assigned exactly once.
                    prop_assert_eq!(p.chunk_of.len(), store.len());
                }
                _ => p
                    .validate(&item_sizes, 512, 0.25)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?,
            }
        }
    }

    #[test]
    fn loaded_store_answers_random_queries_correctly(
        spec in spec_strategy(),
        kind_idx in 0usize..5,
        k in prop::sample::select(vec![1usize, 3, 8]),
    ) {
        let ds = spec.generate();
        let kind = all_kinds()[kind_idx];
        let cluster = Cluster::builder().nodes(2).build();
        let store = RStore::builder()
            .chunk_capacity(1024)
            .max_subchunk(k)
            .partitioner(kind)
            .build(cluster);
        store.load_dataset(&ds).unwrap();

        let rstore = ds.record_store();
        let oracle = ds.materialize(&rstore);
        // Spot-check a version, a range, a record and an evolution.
        let v = VersionId((ds.graph.len() / 2) as u32);
        let got = store.get_version(v).unwrap();
        let expect = oracle.contents(v);
        prop_assert_eq!(got.len(), expect.len());
        for (rec, &(pk, ord)) in got.iter().zip(expect) {
            prop_assert_eq!(rec.pk, pk);
            prop_assert_eq!(&rec.payload[..], rstore.payload(ord));
        }

        let lo = 2u64;
        let hi = 15u64;
        let got = store.get_range(lo, hi, v).unwrap();
        prop_assert_eq!(got.len(), oracle.range(v, lo, hi).len());

        let pk = expect.first().map(|&(pk, _)| pk).unwrap_or(0);
        let rec = store.get_record(pk, v).unwrap();
        match oracle.lookup(v, pk) {
            Some(ord) => {
                prop_assert_eq!(&rec.unwrap().payload[..], rstore.payload(ord));
            }
            None => prop_assert!(rec.is_none()),
        }

        let evo = store.get_evolution(pk).unwrap();
        let expect_count = rstore.keys().iter().filter(|ck| ck.pk == pk).count();
        prop_assert_eq!(evo.len(), expect_count);
    }

    #[test]
    fn chunk_roundtrip_random_payloads(
        payload_groups in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(any::<u8>(), 1..100), 1..5),
            1..8,
        )
    ) {
        let mut chunk = Chunk::new();
        for (g, payloads) in payload_groups.iter().enumerate() {
            let records: Vec<(CompositeKey, &[u8])> = payloads
                .iter()
                .enumerate()
                .map(|(i, p)| (CompositeKey::new(g as u64, VersionId(i as u32)), p.as_slice()))
                .collect();
            chunk.subchunks.push(SubChunk::build(&records));
        }
        let decoded = Chunk::deserialize(&chunk.serialize()).unwrap();
        prop_assert_eq!(&decoded, &chunk);
        // Every member decodes to its original payload.
        for (sc, payloads) in decoded.subchunks.iter().zip(&payload_groups) {
            let members = sc.decode().unwrap();
            prop_assert_eq!(&members, payloads);
        }
    }

    #[test]
    fn chunk_deserialize_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Chunk::deserialize(&bytes);
        let _ = ChunkMap::deserialize(&bytes);
        // A commit record: random bytes are an error, short of
        // spelling a record — and then they decode to one value.
        if let Ok(record) = GenerationRecord::decode(&bytes) {
            prop_assert_eq!(GenerationRecord::decode(&record.encode()), Ok(record));
        }
        let mut tagged = bytes;
        tagged.insert(0, 0xC8);
        if let Ok(record) = GenerationRecord::decode(&tagged) {
            prop_assert_eq!(GenerationRecord::decode(&record.encode()), Ok(record));
        }
    }

    /// The commit log of a real store — a checkpoint and the records
    /// after it, from flushes (graph nodes, chunk-table edits, logged
    /// map entries) and a compaction (retirements) — with one key's
    /// value flipped, cut short or extended behind the store's back:
    /// the pure decoder and the restart's whole load path (decode,
    /// check against the state so far, apply, append to the maps)
    /// answer `Ok` or `Err`, never panic; undamaged, they round-trip.
    #[test]
    fn damaged_commit_log_never_panics_a_restart(
        seed in 1u64..200,
        which in any::<prop::sample::Index>(),
        damage in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..6),
        cut in any::<prop::sample::Index>(),
        extra in prop::collection::vec(any::<u8>(), 1..4),
    ) {
        let mut spec = DatasetSpec::tiny(seed);
        spec.num_versions = 14;
        spec.root_records = 24;
        let store = RStore::builder()
            .chunk_capacity(512)
            .batch_size(3)
            .compaction(CompactionConfig { min_fill: 1.1, max_chunks_per_slice: 6 })
            .build(Cluster::builder().nodes(2).build());
        replay_commits(&store, &spec.generate()).unwrap();
        store.compact().unwrap();
        let (log, _) = store.commit_log_keys();
        prop_assert!(log.len() >= 2, "a checkpoint and a record at least");
        let intact = store.persisted_index().unwrap();
        prop_assert_eq!(&intact, &store.index_from_contents());

        let key = &log[which.index(log.len())];
        let stored = store.cluster().get(key).unwrap().expect("a log key").to_vec();
        let record = GenerationRecord::decode(&stored).unwrap();
        prop_assert_eq!(&record.encode(), &stored);

        let mut flipped = stored.clone();
        for (at, byte) in &damage {
            let at = at.index(flipped.len());
            flipped[at] ^= byte | 1;
        }
        let mut extended = stored.clone();
        extended.extend_from_slice(&extra);
        let cut = stored[..cut.index(stored.len())].to_vec();
        prop_assert!(GenerationRecord::decode(&cut).is_err());
        prop_assert!(GenerationRecord::decode(&extended).is_err());
        for bytes in [flipped, cut, extended] {
            let _ = GenerationRecord::decode(&bytes);
            store.cluster().put(key.clone(), bytes.into()).unwrap();
            let _ = store.persisted_index();
        }
        store.cluster().put(key.clone(), stored.into()).unwrap();
        prop_assert_eq!(store.persisted_index().unwrap(), intact);
    }

    /// A real chunk map with bytes flipped, cut short or extended: the
    /// decoder answers `Ok` or `Err`, never panics, and whatever it
    /// accepts is internally consistent (every bitmap as long as the
    /// record count, versions ascending).
    #[test]
    fn chunkmap_deserialize_never_panics_on_damaged_encoding(
        num_records in 0usize..300,
        versions in prop::collection::vec(
            prop::collection::vec(any::<prop::sample::Index>(), 0..12),
            0..12,
        ),
        damage in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..6),
        cut in any::<prop::sample::Index>(),
        extra in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        let mut map = ChunkMap::new(num_records);
        for (vi, indices) in versions.iter().enumerate() {
            let locals: std::collections::BTreeSet<usize> = indices
                .iter()
                .filter(|_| num_records > 0)
                .map(|ix| ix.index(num_records))
                .collect();
            map.push_version(VersionId(3 * vi as u32), locals);
        }
        let mut bytes = map.serialize();
        for (at, byte) in &damage {
            let at = at.index(bytes.len());
            bytes[at] ^= byte | 1;
        }
        if let Ok(decoded) = ChunkMap::deserialize(&bytes) {
            let mut last = None;
            for (v, members) in decoded.iter() {
                prop_assert_eq!(members.len(), decoded.num_records());
                prop_assert!(last < Some(v));
                last = Some(v);
            }
        }
        let _ = ChunkMap::deserialize(&bytes[..cut.index(bytes.len() + 1)]);
        bytes.extend_from_slice(&extra);
        let _ = ChunkMap::deserialize(&bytes);
    }

    /// A delta-store entry — an acknowledged, unflushed commit —
    /// flipped or cut short while the store is down: the restart
    /// re-admits what still reads as a commit on its parent and flushes
    /// it, or fails cleanly; a cut entry always fails.
    #[test]
    fn damaged_delta_store_never_panics_a_restart(
        seed in 1u64..200,
        which in 1u32..4,
        damage in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..4),
        cut in any::<prop::sample::Index>(),
    ) {
        use rstore_kvstore::{table_key, EngineKind};
        let dir = std::env::temp_dir().join(format!("rstore-prop-deltas-{}-{seed}-{which}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = || Cluster::builder().nodes(2).engine(EngineKind::Log { dir: dir.clone() }).build();
        let config = {
            let store = RStore::builder().chunk_capacity(512).batch_size(64).build(log());
            let root: Vec<(u64, Vec<u8>)> = (0..12u64).map(|pk| (pk, vec![seed as u8; 24])).collect();
            let mut head = store.commit(CommitRequest::root(root)).unwrap();
            store.seal().unwrap();
            for round in 0..3u64 {
                let req = CommitRequest::child_of(head)
                    .put(round, vec![round as u8; 24])
                    .put(20 + round, vec![1; 8])
                    .delete(5 + round);
                head = store.commit(req).unwrap();
            }
            *store.config()
        };
        let key = table_key(rstore_core::store::DELTA_TABLE, &which.to_be_bytes());
        let stored = log().get(&key).unwrap().expect("a pending commit's delta").to_vec();
        let mut flipped = stored.clone();
        for (at, byte) in &damage {
            let at = at.index(flipped.len());
            flipped[at] ^= byte | 1;
        }
        let cut = stored[..cut.index(stored.len())].to_vec();
        for (bytes, must_fail) in [(flipped, false), (cut, true)] {
            log().put(key.clone(), bytes.into()).unwrap();
            match RStore::reopen(config, log()) {
                Ok(store) => {
                    prop_assert!(!must_fail, "a cut delta was re-admitted");
                    prop_assert_eq!(store.version_count(), 4);
                    store.seal().unwrap();
                    for v in 0..4 {
                        store.get_version(VersionId(v)).unwrap();
                    }
                    // (The flush emptied the delta store; this case is over.)
                    break;
                }
                Err(e) => prop_assert!(matches!(e, rstore_core::CoreError::Codec(_)), "{e}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunkmap_roundtrip_random(
        num_records in 1usize..200,
        version_sets in prop::collection::vec(
            prop::collection::vec(any::<prop::sample::Index>(), 1..20),
            0..20,
        ),
    ) {
        let mut map = ChunkMap::new(num_records);
        for (vi, indices) in version_sets.iter().enumerate() {
            let locals: std::collections::BTreeSet<usize> =
                indices.iter().map(|ix| ix.index(num_records)).collect();
            map.push_version(VersionId(vi as u32), locals);
        }
        let decoded = ChunkMap::deserialize(&map.serialize()).unwrap();
        prop_assert_eq!(&decoded, &map);
    }

    #[test]
    fn random_commit_sequences_stay_consistent(
        seed in 1u64..500,
        steps in 2usize..12,
        batch in 1usize..6,
    ) {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = Cluster::builder().nodes(2).build();
        let store = RStore::builder()
            .chunk_capacity(512)
            .batch_size(batch)
            .build(cluster);

        // Shadow model: contents per version.
        let mut model: Vec<std::collections::BTreeMap<u64, Vec<u8>>> = Vec::new();
        let root_recs: Vec<(u64, Vec<u8>)> = (0u64..10)
            .map(|pk| (pk, vec![rng.random::<u8>(); 20]))
            .collect();
        store.commit(CommitRequest::root(root_recs.clone())).unwrap();
        model.push(root_recs.into_iter().collect());

        for _ in 0..steps {
            let parent = rng.random_range(0..model.len());
            let parent_model = model[parent].clone();
            let mut req = CommitRequest::child_of(VersionId(parent as u32));
            let mut next = parent_model.clone();
            // A few random puts (distinct keys within one commit).
            let mut touched = std::collections::BTreeSet::new();
            for _ in 0..rng.random_range(1..4) {
                let pk = rng.random_range(0..20u64);
                if !touched.insert(pk) {
                    continue;
                }
                let payload = vec![rng.random::<u8>(); 20];
                req = req.put(pk, payload.clone());
                next.insert(pk, payload);
            }
            // Maybe a delete of an existing key not already touched.
            let deletable: Vec<u64> = parent_model
                .keys()
                .copied()
                .filter(|pk| !touched.contains(pk))
                .collect();
            if !deletable.is_empty() && rng.random_bool(0.5) {
                let pk = deletable[rng.random_range(0..deletable.len())];
                req = req.delete(pk);
                next.remove(&pk);
            }
            store.commit(req).unwrap();
            model.push(next);
        }
        store.seal().unwrap();

        for (vi, expect) in model.iter().enumerate() {
            let got = store.get_version(VersionId(vi as u32)).unwrap();
            prop_assert_eq!(got.len(), expect.len(), "version {}", vi);
            for rec in got {
                prop_assert_eq!(&rec.payload, expect.get(&rec.pk).unwrap());
            }
        }
    }
}

/// A chunk of same-key groups of at most `k` members, each member a
/// few byte edits of the one before (so the deltas carry copies).
fn chunk_strategy(k: usize) -> impl Strategy<Value = (Chunk, Vec<Vec<Vec<u8>>>)> {
    let group = (
        prop::collection::vec(any::<u8>(), 1..160),
        prop::collection::vec(prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..4), 0..k),
    );
    prop::collection::vec(group, 0..12).prop_map(|groups| {
        let payloads: Vec<Vec<Vec<u8>>> = groups
            .into_iter()
            .map(|(mut payload, edits)| {
                let mut members = vec![payload.clone()];
                for edit in edits {
                    for (at, byte) in edit {
                        let i = at.index(payload.len());
                        payload[i] = byte;
                    }
                    members.push(payload.clone());
                }
                members
            })
            .collect();
        let subchunks = (payloads.iter().zip(0u64..))
            .map(|(members, pk)| {
                let records: Vec<(CompositeKey, &[u8])> = (members.iter().zip(0u32..))
                    .map(|(p, v)| (CompositeKey::new(pk, VersionId(v)), p.as_slice()))
                    .collect();
                SubChunk::build(&records)
            })
            .collect();
        (Chunk { subchunks }, payloads)
    })
}

/// The ops of every delta in a sub-chunk's payload.
fn delta_ops(sc: &SubChunk) -> Vec<DeltaOp> {
    let inner = rstore_compress::lz::decompress(&sc.payload).unwrap();
    let mut r = rstore_compress::varint::VarintReader::new(&inner);
    let rep_len = r.read_u64().unwrap() as usize;
    r.read_bytes(rep_len).unwrap();
    let mut ops = Vec::new();
    while !r.is_empty() {
        let delta_len = r.read_u64().unwrap() as usize;
        ops.extend(parse_ops(r.read_bytes(delta_len).unwrap()).unwrap());
    }
    ops
}

/// `chunk_strategy` edits members in place, so the damage proptests
/// below decode patch deltas, and its one-byte members (whose patch
/// is no smaller than an insert) keep the copy/insert form in them too.
#[test]
fn chunk_strategy_reaches_both_delta_forms() {
    let mut rng = TestRng::from_name("chunk_strategy_reaches_both_delta_forms");
    let (mut patches, mut copy_inserts) = (0, 0);
    for _ in 0..96 {
        let (chunk, _) = chunk_strategy(4).generate(&mut rng);
        for op in chunk.subchunks.iter().flat_map(delta_ops) {
            match op {
                DeltaOp::Patch { .. } => patches += 1,
                DeltaOp::Copy { .. } | DeltaOp::Insert(_) => copy_inserts += 1,
            }
        }
    }
    assert!(patches > 100 && copy_inserts > 0, "{patches} patch ops, {copy_inserts} copy/insert ops");
}

/// The allocating decoder the scratch decode replaced: LZ into a fresh
/// buffer, then each member delta-applied into a fresh buffer. The
/// members' lengths must add up to the sub-chunk's `raw_bytes`.
fn reference_decode(sc: &SubChunk) -> Result<Vec<Vec<u8>>, CoreError> {
    let inner = rstore_compress::lz::decompress(&sc.payload)?;
    let mut r = rstore_compress::varint::VarintReader::new(&inner);
    let rep_len = r.read_u64()? as usize;
    let mut out = vec![r.read_bytes(rep_len)?.to_vec()];
    for i in 1..sc.len() {
        let delta_len = r.read_u64()? as usize;
        let delta = r.read_bytes(delta_len)?;
        out.push(rstore_compress::apply_delta(&out[i - 1], delta)?);
    }
    if !r.is_empty() {
        return Err(CoreError::Codec("trailing bytes in sub-chunk".into()));
    }
    if out.iter().map(Vec::len).sum::<usize>() != sc.raw_bytes {
        return Err(CoreError::Codec("member lengths do not add up to raw_bytes".into()));
    }
    Ok(out)
}

/// Every sub-chunk of `chunk` decodes (or fails) exactly as the
/// reference does, and `check` agrees with the decode.
fn decodes_like_the_reference(chunk: &Chunk) -> Result<(), TestCaseError> {
    for sc in &chunk.subchunks {
        let got = sc.decode_uncached();
        match reference_decode(sc) {
            Ok(want) => {
                let got = got.map_err(|e| TestCaseError::fail(format!("reference decodes, scratch fails: {e}")))?;
                prop_assert_eq!(got.iter().map(|b| b.to_vec()).collect::<Vec<_>>(), want);
                prop_assert!(sc.check().is_ok());
            }
            Err(_) => {
                prop_assert!(got.is_err(), "the reference fails, the scratch decode does not");
                prop_assert!(sc.check().is_err());
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// At k = 1 and k = 4, a blob read in place equals the copied
    /// parse, shares one key table, and every sub-chunk decodes to its
    /// members' payloads.
    #[test]
    fn a_blob_read_in_place_equals_the_copied_parse(
        (one, payloads_one) in chunk_strategy(1),
        (four, payloads_four) in chunk_strategy(4),
    ) {
        for (chunk, payloads) in [(one, payloads_one), (four, payloads_four)] {
            let bytes = chunk.serialize();
            let read = Chunk::from_blob(&Bytes::from(bytes.clone())).unwrap();
            prop_assert_eq!(&read, &Chunk::deserialize(&bytes).unwrap());
            prop_assert_eq!(&read, &chunk);
            prop_assert_eq!(&read.local_keys()[..], &chunk.local_keys()[..]);
            for (sc, members) in read.subchunks.iter().zip(&payloads) {
                let decoded = sc.decode_uncached().unwrap();
                prop_assert_eq!(decoded.iter().map(|b| b.to_vec()).collect::<Vec<_>>(), members.clone());
                prop_assert!(sc.check().is_ok());
            }
        }
    }

    /// A bit flip anywhere in a valid blob, or a truncation of it,
    /// never panics: `from_blob` fails, or every sub-chunk it yields
    /// decodes (or fails) exactly as the allocating reference does. A
    /// flip outside a sub-chunk's payload and size leaves that
    /// sub-chunk's bytes right, and a proper prefix never parses.
    #[test]
    fn a_damaged_blob_fails_or_decodes_like_the_reference(
        (chunk, payloads) in chunk_strategy(4),
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
        cut in any::<prop::sample::Index>(),
    ) {
        let intact = chunk.serialize();
        let mut flipped = intact.clone();
        let at = flip.index(flipped.len());
        flipped[at] ^= 1 << bit;
        if let Ok(damaged) = Chunk::from_blob(&Bytes::from(flipped)) {
            decodes_like_the_reference(&damaged)?;
            if damaged.subchunks.len() == chunk.subchunks.len() {
                for ((sc, was), members) in damaged.subchunks.iter().zip(&chunk.subchunks).zip(&payloads) {
                    if sc.payload == was.payload && sc.len() == was.len() && sc.raw_bytes == was.raw_bytes {
                        let decoded = sc.decode_uncached().unwrap();
                        prop_assert_eq!(decoded.iter().map(|b| b.to_vec()).collect::<Vec<_>>(), members.clone());
                    }
                }
            }
        }
        let prefix = &intact[..cut.index(intact.len())];
        prop_assert!(Chunk::from_blob(&Bytes::copy_from_slice(prefix)).is_err());
    }

    /// Sub-chunks whose payload bytes are damaged directly (the blob
    /// framing intact) decode exactly as the reference does.
    #[test]
    fn a_damaged_payload_decodes_like_the_reference(
        (chunk, _) in chunk_strategy(4),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0u8..8), 1..4),
    ) {
        let mut read = Chunk::from_blob(&Bytes::from(chunk.serialize())).unwrap();
        let n = read.subchunks.len();
        for (sc, at, bit) in flips.into_iter().filter(|_| n > 0) {
            let payload = read.subchunks[sc.index(n)].payload.to_mut();
            let i = at.index(payload.len());
            payload[i] ^= 1 << bit;
        }
        decodes_like_the_reference(&read)?;
    }
}
