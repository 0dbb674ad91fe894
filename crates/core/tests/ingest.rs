//! The parallel pipelined ingest must be **byte-for-byte equivalent**
//! to the serial reference load (`ingest_threads = 1`): same chunk
//! bytes, same base maps, same commit log, same answers to every query
//! — across the offline bulk load and the online commit path — and a
//! node going down during a load must surface as a clean error, never
//! a panic or silent data loss. The durable index — what a restart
//! would load — is held to the from-contents oracle throughout, and a
//! store restarted anywhere in a random history to its never-restarted
//! twin.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rstore_core::compact::CompactionConfig;
use rstore_core::index::Projections;
use rstore_core::model::VersionId;
use rstore_core::online::{commit_request, replay_commits, stores_agree};
use rstore_core::store::{CommitRequest, RStore, CHUNK_TABLE, CMAP_TABLE};
use rstore_core::CoreError;
use rstore_kvstore::{table_key, Cluster, EngineKind, KvError, NetworkModel};
use rstore_vgraph::{Dataset, DatasetSpec, SelectionKind};
use std::collections::BTreeMap;

fn spec_strategy() -> impl Strategy<Value = DatasetSpec> {
    (
        1u64..1000,   // seed
        8usize..24,   // versions
        10usize..40,  // root records
        0.0f64..0.4,  // branch probability
        0.05f64..0.4, // update fraction
        32usize..160, // record size
    )
        .prop_map(|(seed, nv, rr, bp, uf, rs)| DatasetSpec {
            name: format!("ingest-{seed}"),
            num_versions: nv,
            root_records: rr,
            branch_prob: bp,
            update_frac: uf,
            insert_frac: 0.05,
            delete_frac: 0.05,
            selection: SelectionKind::Uniform,
            record_size: rs,
            pd: 0.1,
            seed,
        })
}

fn store_with(nodes: usize, threads: usize, k: usize, batch: usize) -> RStore {
    let cluster = Cluster::builder().nodes(nodes).build();
    RStore::builder()
        .chunk_capacity(1024)
        .cache_budget(0)
        .max_subchunk(k)
        .batch_size(batch)
        .ingest_threads(threads)
        .build(cluster)
}

/// Every backend artifact the ingest produced must be identical:
/// chunk blobs, base maps, and the commit log (the checkpoint and every
/// record after it). Byte equality of the per-chunk tables implies
/// identical placement (locator) and identical WAH bitmap encodes.
fn assert_backend_identical(a: &RStore, b: &RStore) {
    assert_eq!(a.chunk_count(), b.chunk_count(), "chunk count differs");
    assert_eq!(a.storage_bytes(), b.storage_bytes());
    assert_eq!(a.total_version_span(), b.total_version_span());
    for c in 0..a.chunk_count() as u32 {
        for table in [CHUNK_TABLE, CMAP_TABLE] {
            let key = table_key(table, &c.to_be_bytes());
            let va = a
                .cluster()
                .get(&key)
                .unwrap()
                .unwrap_or_else(|| panic!("{table}/{c} missing from reference"));
            let vb = b
                .cluster()
                .get(&key)
                .unwrap()
                .unwrap_or_else(|| panic!("{table}/{c} missing from parallel store"));
            assert_eq!(va, vb, "{table}/{c} bytes differ");
        }
    }
    let log = a.commit_log_keys();
    assert_eq!(log, b.commit_log_keys(), "the commit logs cover different generations");
    for key in log.0 {
        let va = a.cluster().get(&key).unwrap().expect("log key present");
        let vb = b.cluster().get(&key).unwrap().expect("log key present");
        assert_eq!(va, vb, "{} differs", String::from_utf8_lossy(&key));
    }
}

/// The delta-driven index pass must leave exactly the bytes the
/// from-contents reference pass computes ([`RStore::index_from_contents`]):
/// one chunk map per live chunk — durable for restart (base map plus
/// logged entries, [`RStore::persisted_index`]), and resident in the
/// published snapshot, which is the copy every read extracts with —
/// and the same projections, derived as a restart derives them.
fn assert_backend_matches_index(store: &RStore, maps: &[(u32, Vec<u8>)], projections: &Projections) {
    let ids: Vec<u32> = maps.iter().map(|&(c, _)| c).collect();
    assert_eq!(ids, store.live_chunk_ids(), "oracle covers the live chunks");
    let (stored_maps, stored_projections) = store.persisted_index().unwrap();
    assert_eq!(stored_maps.len(), maps.len());
    let snapshot = store.pin();
    let mut resident_bytes = 0;
    for ((c, want), (stored, got)) in maps.iter().zip(&stored_maps) {
        assert_eq!(c, stored);
        assert_eq!(got, want, "durable chunk map {c} differs from the oracle");
        let resident = snapshot
            .chunk_map(*c)
            .unwrap_or_else(|| panic!("snapshot has no map for chunk {c}"));
        assert_eq!(&resident.serialize(), want, "snapshot's chunk map {c} differs from the oracle");
        resident_bytes += resident.resident_bytes();
    }
    assert_eq!(store.resident_map_bytes(), resident_bytes, "resident map gauge drifted");
    assert_eq!(&stored_projections, projections, "durable projections differ from the oracle");
}

/// Checks the index against the oracle once a generation has committed
/// (both cover the flushed versions only).
fn check_index(store: &RStore) {
    if store.version_count() > store.pending_commits() {
        let (maps, projections) = store.index_from_contents();
        assert_backend_matches_index(store, &maps, &projections);
    }
}

/// Spot checks through the read path on top of the byte comparison.
fn assert_queries_agree(a: &RStore, b: &RStore, max_pk: u64) {
    assert!(stores_agree(a, b).unwrap(), "version retrievals disagree");
    let mid = VersionId((a.version_count() / 2) as u32);
    for pk in 0..max_pk.min(8) {
        let ra = a.get_record(pk, mid).unwrap();
        let rb = b.get_record(pk, mid).unwrap();
        assert_eq!(ra.is_some(), rb.is_some());
        if let (Some(x), Some(y)) = (ra, rb) {
            assert_eq!(x.payload, y.payload);
        }
        let ea = a.get_evolution(pk).unwrap();
        let eb = b.get_evolution(pk).unwrap();
        assert_eq!(ea.len(), eb.len(), "evolution of K{pk} differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Offline bulk load: parallel pipeline (4 workers) == serial
    /// reference (1 worker, encoding in order on the calling thread),
    /// byte for byte, with sub-chunk grouping active (k = 3).
    #[test]
    fn parallel_bulk_load_matches_serial_reference(spec in spec_strategy()) {
        let ds = spec.generate();
        let serial = store_with(4, 1, 3, 64);
        let parallel = store_with(4, 4, 3, 64);
        let rs = serial.load_dataset(&ds).unwrap();
        let rp = parallel.load_dataset(&ds).unwrap();
        prop_assert_eq!(rp.num_chunks, rs.num_chunks);
        prop_assert_eq!(rp.num_subchunks, rs.num_subchunks);
        prop_assert_eq!(rp.compressed_bytes, rs.compressed_bytes);
        prop_assert_eq!(rp.total_version_span, rs.total_version_span);
        prop_assert_eq!(rp.stages.workers, 4);
        prop_assert_eq!(rs.stages.workers, 1);
        assert_backend_identical(&serial, &parallel);
        assert_queries_agree(&serial, &parallel, spec.root_records as u64);
    }

    /// Online commit path: the batch flush pipeline (parallel
    /// sub-chunk builds, streaming chunk + base-map writes, parallel
    /// chunk-map entry encodes) produces an identical backend too.
    #[test]
    fn parallel_flush_matches_serial_reference(spec in spec_strategy()) {
        let ds = spec.generate();
        // Small batches force several flushes, so existing chunk maps
        // take new entries (the §4 batching trick) repeatedly.
        let serial = store_with(3, 1, 1, 4);
        let parallel = store_with(3, 4, 1, 4);
        replay_commits(&serial, &ds).unwrap();
        replay_commits(&parallel, &ds).unwrap();
        assert_backend_identical(&serial, &parallel);
        assert_queries_agree(&serial, &parallel, spec.root_records as u64);
    }
}

#[test]
fn load_reports_per_stage_breakdown() {
    let mut spec = DatasetSpec::tiny(2024);
    spec.num_versions = 30;
    spec.root_records = 80;
    spec.record_size = 256;
    let ds = spec.generate();
    let cluster = Cluster::builder()
        .nodes(4)
        .network(NetworkModel::lan_virtual())
        .build();
    let store = RStore::builder()
        .chunk_capacity(2048)
        .ingest_threads(2)
        .build(cluster);
    let report = store.load_dataset(&ds).unwrap();
    let s = report.stages;
    assert_eq!(s.workers, 2);
    assert!(s.subchunk > std::time::Duration::ZERO, "subchunk stage untimed");
    assert!(s.partition > std::time::Duration::ZERO, "partition stage untimed");
    assert!(s.assemble > std::time::Duration::ZERO, "assemble stage untimed");
    assert!(s.index > std::time::Duration::ZERO, "index stage untimed");
    // lan_virtual charges every write 250 µs of modeled time.
    assert!(
        s.modeled_write >= std::time::Duration::from_micros(250),
        "modeled write time missing: {:?}",
        s.modeled_write
    );

    // The flush path reports the same breakdown.
    let online = RStore::builder()
        .chunk_capacity(2048)
        .ingest_threads(2)
        .batch_size(usize::MAX)
        .build(
            Cluster::builder()
                .nodes(2)
                .network(NetworkModel::lan_virtual())
                .build(),
        );
    let v0 = online
        .commit(CommitRequest::root(vec![
            (1u64, vec![7u8; 64]),
            (2u64, vec![8u8; 64]),
        ]))
        .unwrap();
    online
        .commit(CommitRequest::child_of(v0).put(1u64, vec![9u8; 64]))
        .unwrap();
    let flush = online.flush_batch().unwrap();
    assert_eq!(flush.versions, 2);
    assert_eq!(flush.stages.workers, 2);
    assert!(
        flush.stages.modeled_write >= std::time::Duration::from_micros(250),
        "flush modeled write time missing: {:?}",
        flush.stages.modeled_write
    );
    // Re-sealing with nothing pending is a no-op default report.
    let empty = online.flush_batch().unwrap();
    assert_eq!(empty.versions, 0);
}

#[test]
fn down_node_during_bulk_load_is_clean_error() {
    let mut spec = DatasetSpec::tiny(7777);
    spec.num_versions = 24;
    spec.root_records = 60;
    let ds = spec.generate();
    // Replication 1: a down node makes part of the key space
    // unwritable instead of failing over.
    let cluster = Cluster::builder().nodes(3).replication(1).build();
    cluster.set_node_down(1, true);
    let store = RStore::builder()
        .chunk_capacity(1024)
        .ingest_threads(4)
        .build(cluster);
    match store.load_dataset(&ds) {
        Err(CoreError::Kv(
            KvError::AllReplicasDown { .. } | KvError::NodeDown(_) | KvError::NodeGone(_),
        )) => {}
        Err(e) => panic!("expected a clean KV error, got {e}"),
        Ok(_) => panic!("bulk load through a downed unreplicated node must fail"),
    }
}

/// Commits that wait in the delta store after `ds`'s first half was
/// flushed; returns how many.
type Tail = fn(&RStore, &Dataset) -> usize;

/// The second half of `ds`: new records, so the flush's first backend
/// writes are chunk blobs.
fn second_half(store: &RStore, ds: &Dataset) -> usize {
    let half = ds.graph.len() / 2;
    commit_versions(store, ds, half..ds.graph.len());
    ds.graph.len() - half
}

/// A chain of delete-only commits: no new records, chunks or base
/// maps, so the flush's one backend write is its commit record.
fn deletes_only(store: &RStore, ds: &Dataset) -> usize {
    let mut head = VersionId((ds.graph.len() / 2 - 1) as u32);
    let doomed: Vec<u64> = store.get_version(head).unwrap().iter().map(|r| r.pk).collect();
    for pk in doomed.into_iter().step_by(5).take(4) {
        head = store.commit(CommitRequest::child_of(head).delete(pk)).unwrap();
    }
    4
}

/// An online store over `cluster` with the first half of `ds` flushed
/// and `tail`'s commits waiting in the delta store.
fn half_flushed(cluster: Cluster, ds: &Dataset, tail: Tail) -> RStore {
    let store = RStore::builder()
        .chunk_capacity(1024)
        .ingest_threads(4)
        .batch_size(usize::MAX)
        .build(cluster);
    commit_versions(&store, ds, 0..ds.graph.len() / 2);
    store.seal().unwrap();
    let pending = tail(&store, ds);
    assert_eq!(store.pending_commits(), pending);
    store
}

/// Tries to flush while `node` is dead. Replication 1 makes part of
/// the key space unwritable then, so a flush that writes a key the
/// node owns must fail cleanly and change nothing: the acknowledged
/// commits keep waiting, and the writer state a retry starts from is
/// the one the failure found. Returns whether the flush met the outage
/// (`false`: the node owns none of its keys, nothing was attempted).
fn flush_fails_while_down(store: &RStore, node: usize) -> bool {
    let (pending, persisted) = (store.pending_commits(), store.chunk_count());
    store.cluster().set_node_down(node, true);
    let met = match store.seal() {
        Err(CoreError::Kv(
            KvError::AllReplicasDown { .. } | KvError::NodeDown(_) | KvError::NodeGone(_),
        )) => true,
        Err(e) => panic!("expected a clean KV error, got {e}"),
        // One key — the commit record — is all a flush without new
        // records writes, and this node is not its owner.
        Ok(report) => {
            assert_eq!(report.new_chunks, 0, "a flush placing records missed node {node}");
            false
        }
    };
    if met {
        assert_eq!(store.pending_commits(), pending, "failed flush dropped its batch");
        assert_eq!(store.chunk_count(), persisted, "failed flush claimed chunk ids");
    }
    store.cluster().set_node_down(node, false);
    met
}

#[test]
fn down_node_during_flush_is_clean_error_and_retryable() {
    let mut spec = DatasetSpec::tiny(4321);
    spec.num_versions = 16;
    spec.root_records = 40;
    let ds = spec.generate();
    let half = ds.graph.len() / 2;
    let mem = || Cluster::builder().nodes(3).replication(1).build();
    let dir = std::env::temp_dir().join(format!("rstore-failed-flush-{}", std::process::id()));

    for tail in [second_half as Tail, deletes_only] {
        let undisturbed = half_flushed(mem(), &ds, tail);
        let pending = undisturbed.pending_commits();
        assert_eq!(undisturbed.seal().unwrap().versions, pending);

        // Whichever node dies — so whichever of the chunk, base-map
        // and commit-record writes fails first — the retried flush
        // leaves exactly the backend an undisturbed twin has, and
        // serves every version's records (keys, origins, payloads)
        // alike. (A node that owns none of the flush's keys does not
        // fail it: the delete-only tail writes one key.)
        for node in 0..3 {
            let store = half_flushed(mem(), &ds, tail);
            if !flush_fails_while_down(&store, node) {
                continue;
            }
            // What was persisted before the failure still answers.
            for v in (0..half).map(|v| VersionId(v as u32)) {
                let want = undisturbed.get_version(v).unwrap();
                assert_eq!(store.get_version(v).unwrap(), want, "{v} after the failed flush");
            }
            let report = store.seal().unwrap();
            assert_eq!(report.versions, pending, "retry flushes the whole batch");
            assert_eq!(store.pending_commits(), 0);
            assert_backend_identical(&undisturbed, &store);
            assert!(stores_agree(&undisturbed, &store).unwrap(), "node {node}");
            check_index(&store);
        }

        // The same outage on a log-engine twin, then a restart.
        // Reopen rebuilds from the backend alone: after the retry it
        // must find every live chunk id with its blob and map and
        // agree on every version. *Before* the retry the batch is
        // still in the delta store: the restart re-admits it as
        // pending, what the dead flush half-wrote does not poison
        // recovery, and flushing it lands where the twin did.
        for (node, retry_before_restart) in [(2, true), (0, false), (1, false), (2, false)] {
            let _ = std::fs::remove_dir_all(&dir);
            let log = || {
                Cluster::builder()
                    .nodes(3)
                    .replication(1)
                    .engine(EngineKind::Log { dir: dir.clone() })
                    .build()
            };
            let (config, failed) = {
                let store = half_flushed(log(), &ds, tail);
                let failed = flush_fails_while_down(&store, node);
                if failed && retry_before_restart {
                    store.seal().unwrap();
                    assert_backend_identical(&undisturbed, &store);
                }
                (*store.config(), failed)
            };
            let reopened = RStore::reopen(config, log()).unwrap();
            assert_eq!(reopened.version_count(), half + pending, "an acknowledged commit was lost");
            if failed && !retry_before_restart {
                assert_eq!(reopened.pending_commits(), pending);
                assert_eq!(reopened.seal().unwrap().versions, pending);
            }
            assert_eq!(reopened.pending_commits(), 0);
            // (A flush the outage missed may still have lost its
            // checkpoint to it — a checkpoint is best-effort, the
            // records stay the log — so only a retried flush is held
            // to the twin's bytes.)
            if failed {
                assert_backend_identical(&undisturbed, &reopened);
            }
            assert_eq!(reopened.chunk_count(), undisturbed.chunk_count());
            assert!(stores_agree(&undisturbed, &reopened).unwrap());
            check_index(&reopened);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Commits versions `range` of `ds` one by one without sealing, so
/// they sit in the delta store (or flush when the batch fills).
fn commit_versions(store: &RStore, ds: &Dataset, range: std::ops::Range<usize>) {
    for v in range.map(|v| VersionId(v as u32)) {
        assert_eq!(store.commit(commit_request(ds, v)).unwrap(), v);
    }
}

/// What every version should contain: `pk → (origin, payload)`.
type Model = Vec<BTreeMap<u64, (VersionId, Vec<u8>)>>;

/// Every query class against the model, for every version and key.
fn assert_answers_match_model(store: &RStore, model: &Model, keys: u64) {
    for (v, want) in model.iter().enumerate() {
        let v = VersionId(v as u32);
        let got = store.get_version(v).unwrap();
        let got: Vec<_> = got.iter().map(|r| (r.pk, r.origin, r.payload.to_vec())).collect();
        let want_all: Vec<_> = want.iter().map(|(pk, (o, p))| (*pk, *o, p.clone())).collect();
        assert_eq!(got, want_all, "{v}");
        let (lo, hi) = (keys / 4, keys / 2);
        let got = store.get_range(lo, hi, v).unwrap();
        let got: Vec<_> = got.iter().map(|r| (r.pk, r.origin, r.payload.to_vec())).collect();
        let want_range: Vec<_> = want_all.iter().filter(|r| lo <= r.0 && r.0 <= hi).cloned().collect();
        assert_eq!(got, want_range, "range of {v}");
        for pk in 0..keys {
            let got = store.get_record(pk, v).unwrap().map(|r| (r.origin, r.payload.to_vec()));
            assert_eq!(got, want.get(&pk).cloned(), "K{pk} in {v}");
        }
    }
    for pk in 0..keys {
        let got = store.get_evolution(pk).unwrap();
        let got: Vec<_> = got.iter().map(|r| (r.origin, r.payload.to_vec())).collect();
        let want: BTreeMap<VersionId, Vec<u8>> = model
            .iter()
            .filter_map(|m| m.get(&pk).cloned())
            .collect();
        assert_eq!(got, want.into_iter().collect::<Vec<_>>(), "evolution of K{pk}");
    }
}

/// One random online history: branches, merges, deletes, re-inserts
/// of deleted keys, children flushed with or after their parents,
/// siblings in one batch, compaction and slot reclamation between
/// commits and their flush, restarts with commits still unflushed —
/// with the durable index held to the from-contents oracle after every
/// step, and the store, on a log-engine cluster and restarted at
/// random, to a twin on a memory cluster that never restarts.
fn run_history(seed: u64, steps: usize, batch: usize, k: usize, slice: usize) {
    const KEYS: u64 = 24;
    let mut rng = StdRng::seed_from_u64(seed);
    let dir = std::env::temp_dir().join(format!(
        "rstore-index-oracle-{}-{seed}-{steps}-{batch}-{k}-{slice}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = || {
        Cluster::builder()
            .nodes(2)
            .engine(EngineKind::Log { dir: dir.clone() })
            .build()
    };
    let builder = RStore::builder()
        .chunk_capacity(256)
        .max_subchunk(k)
        .batch_size(batch)
        .ingest_threads(if seed.is_multiple_of(2) { 1 } else { 3 })
        .compaction(CompactionConfig {
            max_chunks_per_slice: slice,
            ..CompactionConfig::default()
        });
    let mut store = builder.clone().build(cluster());
    let twin = builder.build(Cluster::builder().nodes(2).build());
    let mut model: Model = Vec::new();
    let payload = |rng: &mut StdRng| -> Vec<u8> {
        let len = rng.random_range(8usize..72);
        let byte = rng.random::<u8>();
        (0..len).map(|i| byte.wrapping_add((i % 5) as u8)).collect()
    };

    for _ in 0..steps {
        let op = if model.is_empty() { 0 } else { rng.random_range(0u32..100) };
        match op {
            0..70 => {
                let v = VersionId(model.len() as u32);
                let (mut req, mut contents) = if model.is_empty() {
                    (CommitRequest::root(Vec::<(u64, Vec<u8>)>::new()), BTreeMap::new())
                } else {
                    // Mostly extend the newest version (a child lands
                    // in its parent's batch), otherwise branch.
                    let n = model.len() as u32;
                    let pick = |rng: &mut StdRng| VersionId(rng.random_range(0..n));
                    let parent = if rng.random_bool(0.5) { VersionId(n - 1) } else { pick(&mut rng) };
                    let req = if rng.random_bool(0.15) {
                        CommitRequest::merge_of(parent, [pick(&mut rng)])
                    } else {
                        CommitRequest::child_of(parent)
                    };
                    (req, model[parent.index()].clone())
                };
                for pk in 0..KEYS {
                    let present = contents.contains_key(&pk);
                    let roll = rng.random_range(0u32..100);
                    if present && roll < 12 {
                        req = req.delete(pk);
                        contents.remove(&pk);
                    } else if roll < if present { 30 } else { 22 } {
                        // An update, a fresh insert, or the re-insert
                        // of a key some ancestor deleted.
                        let bytes = payload(&mut rng);
                        req = req.put(pk, bytes.clone());
                        contents.insert(pk, (v, bytes));
                    }
                }
                assert_eq!(twin.commit(req.clone()).unwrap(), v);
                assert_eq!(store.commit(req).unwrap(), v);
                model.push(contents);
            }
            70..80 => {
                twin.flush_batch().unwrap();
                store.flush_batch().unwrap();
            }
            80..88 => {
                let did = twin.compact().unwrap().map(|r| (r.victims, r.new_chunks, r.slices));
                assert_eq!(store.compact().unwrap().map(|r| (r.victims, r.new_chunks, r.slices)), did);
            }
            88..92 => {
                // No pin blocks it: every retired slot drains and frees.
                for s in [&twin, &store] {
                    s.reclaim().unwrap();
                    assert_eq!((s.reclaim_backlog(), s.retired_chunk_count()), (0, 0));
                }
            }
            _ => {
                // Restart, unflushed commits and all: the delta store
                // hands them back as pending.
                let config = *store.config();
                drop(store);
                store = RStore::reopen(config, cluster()).unwrap();
                assert_eq!(store.pending_commits(), twin.pending_commits());
                assert_eq!(store.version_count(), twin.version_count());
                assert_eq!(store.live_chunk_ids(), twin.live_chunk_ids());
                assert_eq!(store.chunk_slot_count(), twin.chunk_slot_count());
                assert_eq!(store.retired_chunk_count(), twin.retired_chunk_count());
                assert_eq!(store.storage_bytes(), twin.storage_bytes());
                assert_eq!(store.total_version_span(), twin.total_version_span());
                assert!(stores_agree(&twin, &store).unwrap(), "a restarted store answers differently");
                for v in 0..model.len() {
                    let v = VersionId(v as u32);
                    assert_eq!(store.version_record_count(v).unwrap(), model[v.index()].len());
                }
            }
        }
        check_index(&store);
        for s in [&twin, &store] {
            // Every slot is live, retired or free — exactly one.
            let (live, retired) = (s.chunk_count(), s.retired_chunk_count());
            let free = s.fragmentation_stats().reclaimed_chunks;
            assert_eq!(live + retired + free, s.chunk_slot_count());
        }
        if !model.is_empty() {
            assert_eq!(store.persisted_index().ok(), twin.persisted_index().ok());
            assert_eq!(store.commit_log_keys(), twin.commit_log_keys());
        }
    }
    store.seal().unwrap();
    twin.seal().unwrap();
    check_index(&store);
    assert_eq!(store.persisted_index().unwrap(), twin.persisted_index().unwrap());
    assert_answers_match_model(&store, &model, KEYS);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The delta-driven index pass and the commit log against the
    /// from-contents oracle over random online histories of commits,
    /// flushes, sliced compactions, reclaims and restarts, each
    /// restarted store against its never-restarted twin (see
    /// `run_history`).
    #[test]
    fn online_histories_match_the_oracle_and_restart_like_their_twin(
        seed in any::<u64>(),
        steps in 6usize..48,
        batch in 1usize..7,
        k in prop::sample::select(vec![1usize, 4]),
        slice in prop::sample::select(vec![0usize, 3]),
    ) {
        run_history(seed, steps, batch, k, slice);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bulk load (every version in one batch, sub-chunk grouping on
    /// and off) and online replay of generated datasets, then commits
    /// on top of the bulk-loaded store and a compaction: the index
    /// equals the oracle's at each point.
    #[test]
    fn delta_index_matches_contents_oracle_bulk_and_replay(
        spec in spec_strategy(),
        k in prop::sample::select(vec![1usize, 4]),
        batch in 1usize..9,
    ) {
        let ds = spec.generate();
        let loaded = store_with(3, 2, k, batch);
        loaded.load_dataset(&ds).unwrap();
        check_index(&loaded);
        let replayed = store_with(3, 2, k, batch);
        replay_commits(&replayed, &ds).unwrap();
        check_index(&replayed);
        prop_assert!(stores_agree(&loaded, &replayed).unwrap());

        // Online commits over bulk-loaded chunk maps.
        let head = VersionId((ds.graph.len() - 1) as u32);
        let a = loaded.commit(CommitRequest::child_of(head).put(1u64 << 40, vec![1u8; 40])).unwrap();
        let b = loaded.commit(CommitRequest::child_of(VersionId(0)).put(1u64 << 40, vec![2u8; 40])).unwrap();
        loaded.commit(CommitRequest::merge_of(a, [b]).delete(1u64 << 40)).unwrap();
        loaded.seal().unwrap();
        check_index(&loaded);
        loaded.compact().unwrap();
        check_index(&loaded);
    }
}
