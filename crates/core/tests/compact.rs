//! Compaction correctness: a compacted store must answer every query
//! exactly as its uncompacted twin, repeated compaction must
//! converge, a compacted store must survive a restart, and a node
//! going down mid-compaction must leave the old generation fully
//! serving behind a clean error.

use proptest::prelude::*;
use rstore_core::compact::CompactionConfig;
use rstore_core::model::VersionId;
use rstore_core::online::{replay_commits, stores_agree};
use rstore_core::store::{RStore, StoreConfig, CHUNK_TABLE, CMAP_TABLE};
use rstore_core::{CoreError, QuerySpec};
use rstore_kvstore::{table_key, Cluster, EngineKind, KvError};
use rstore_vgraph::{Dataset, DatasetSpec, SelectionKind};

/// A compaction policy that treats every not-overfull chunk as a
/// victim — guarantees selection on small test datasets.
fn eager() -> CompactionConfig {
    CompactionConfig {
        min_fill: 1.1,
        ..CompactionConfig::default()
    }
}

fn store_on(cluster: Cluster, batch: usize, compaction: CompactionConfig) -> RStore {
    RStore::builder()
        .chunk_capacity(2048)
        .cache_budget(0)
        .batch_size(batch)
        .compaction(compaction)
        .build(cluster)
}

fn store_with(nodes: usize, batch: usize, compaction: CompactionConfig) -> RStore {
    store_on(Cluster::builder().nodes(nodes).build(), batch, compaction)
}

/// A long online trace: small batches fragment the layout.
fn fragmenting_dataset(seed: u64, versions: usize) -> Dataset {
    fragmenting_dataset_of(seed, versions, 50)
}

/// [`fragmenting_dataset`] with `root_records` records in the root
/// version (versions stay about that wide).
fn fragmenting_dataset_of(seed: u64, versions: usize, root_records: usize) -> Dataset {
    DatasetSpec {
        name: format!("compact-{seed}"),
        num_versions: versions,
        root_records,
        branch_prob: 0.15,
        update_frac: 0.3,
        insert_frac: 0.05,
        delete_frac: 0.03,
        selection: SelectionKind::Uniform,
        record_size: 100,
        pd: 0.1,
        seed,
    }
    .generate()
}

/// Record + evolution spot checks on top of the full version sweep.
fn assert_queries_agree(a: &RStore, b: &RStore, max_pk: u64) {
    assert!(stores_agree(a, b).unwrap(), "version retrievals disagree");
    let mid = VersionId((a.version_count() / 2) as u32);
    let last = VersionId((a.version_count() - 1) as u32);
    for pk in 0..max_pk.min(10) {
        for v in [mid, last] {
            let ra = a.get_record(pk, v).unwrap();
            let rb = b.get_record(pk, v).unwrap();
            assert_eq!(
                ra.as_ref().map(|r| (r.origin, r.payload.clone())),
                rb.as_ref().map(|r| (r.origin, r.payload.clone())),
                "record K{pk}@{v:?} differs"
            );
        }
        let ea = a.get_evolution(pk).unwrap();
        let eb = b.get_evolution(pk).unwrap();
        assert_eq!(ea.len(), eb.len(), "evolution of K{pk} differs");
        for (x, y) in ea.iter().zip(&eb) {
            assert_eq!((x.origin, &x.payload), (y.origin, &y.payload));
        }
    }
}

fn spec_strategy() -> impl Strategy<Value = DatasetSpec> {
    (
        1u64..1000,    // seed
        10usize..28,   // versions
        12usize..40,   // root records
        0.0f64..0.35,  // branch probability
        0.1f64..0.4,   // update fraction
        48usize..160,  // record size
        1usize..4,     // max_subchunk k
    )
        .prop_map(|(seed, nv, rr, bp, uf, rs, k)| DatasetSpec {
            name: format!("compact-prop-{seed}-{k}"),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A compacted store agrees with its uncompacted twin on every
    /// version, record and evolution query — across cluster sizes and
    /// sub-chunk settings — and the retired generation's backend keys
    /// are really gone.
    #[test]
    fn compacted_store_agrees_with_uncompacted_twin(spec in spec_strategy()) {
        let ds = spec.generate();
        let k = 1 + (spec.seed % 3) as usize;
        let build = |nodes: usize| {
            RStore::builder()
                .chunk_capacity(1024)
                .cache_budget(0)
                .max_subchunk(k)
                .batch_size(3)
                .compaction(eager())
                .build(Cluster::builder().nodes(nodes).build())
        };
        let plain = build(3);
        let compacted = build(3);
        replay_commits(&plain, &ds).unwrap();
        replay_commits(&compacted, &ds).unwrap();

        let live_before: Vec<u32> = compacted.live_chunk_ids();
        match compacted.compact().unwrap() {
            Some(report) => {
                prop_assert!(report.victims >= 2);
                prop_assert!(report.records_moved > 0);
                prop_assert_eq!(report.after.retired_chunks, report.victims);
                // The cutover guard means a compaction that went
                // through never worsened the layout.
                prop_assert!(
                    report.after.total_version_span <= report.before.total_version_span
                );
            }
            // Already optimal (the guard refused a regressing
            // rebuild): nothing may have changed.
            None => prop_assert_eq!(compacted.retired_chunk_count(), 0),
        }
        assert_queries_agree(&plain, &compacted, spec.root_records as u64);

        // Retired ids answer nothing at the backend any more.
        for c in live_before {
            if compacted.live_chunk_ids().contains(&c) {
                continue;
            }
            for table in [CHUNK_TABLE, CMAP_TABLE] {
                let key = table_key(table, &c.to_be_bytes());
                prop_assert!(
                    compacted.cluster().get(&key).unwrap().is_none(),
                    "retired {table}/{c} still present"
                );
            }
        }
    }
}

/// The acceptance scenario: a fragmenting online replay (>= 20
/// flushes), then one compaction must shrink the mean per-version
/// span and the measured query fan-out, while agreeing with the
/// uncompacted twin and reclaiming backend keys via batched deletes.
#[test]
fn compaction_after_fragmenting_replay_shrinks_span_and_fanout() {
    // Versions ~200 records wide span 20-40 chunks: a query fetches one
    // key per chunk, and with fewer chunks than that per query the
    // largest of four node batches follows the ring's luck with a
    // handful of hot chunks rather than the span.
    let ds = fragmenting_dataset_of(99, 70, 200);
    let plain = store_with(4, 3, eager());
    let compacted = store_with(4, 3, eager());
    replay_commits(&plain, &ds).unwrap();
    replay_commits(&compacted, &ds).unwrap();
    // 70 commits at batch size 3: well over 20 flushes.
    assert!(ds.graph.len() / 3 >= 20);

    let fanout = |store: &RStore| -> (usize, usize, usize) {
        let mut chunks = 0;
        let mut nodes = 0;
        let mut batch = 0;
        for v in (0..store.version_count()).step_by(7) {
            let (_, stats) = store
                .query_with_stats(QuerySpec::Version(VersionId(v as u32)))
                .unwrap();
            chunks += stats.chunks_fetched;
            nodes += stats.nodes_contacted;
            batch += stats.max_node_batch;
        }
        (chunks, nodes, batch)
    };
    let before_frag = compacted.fragmentation_stats();
    let (before_chunks, before_nodes, before_batch) = fanout(&compacted);
    let deletes_before = compacted.cluster().stats().deletes;

    let report = compacted
        .compact()
        .unwrap()
        .expect("fragmented store must compact");

    let after_frag = compacted.fragmentation_stats();
    let (after_chunks, after_nodes, after_batch) = fanout(&compacted);
    assert!(
        after_frag.mean_version_span < before_frag.mean_version_span,
        "mean span did not shrink: {} -> {}",
        before_frag.mean_version_span,
        after_frag.mean_version_span
    );
    assert!(
        after_chunks < before_chunks,
        "query span did not shrink: {before_chunks} -> {after_chunks}"
    );
    // The critical-path fan-out (summed max per-node batch) must
    // shrink with the span; the distinct-node count merely must not
    // blow up — fewer keys can still land on one more node through
    // hash placement, so a ±1-per-query jitter is allowed.
    assert!(
        after_batch < before_batch,
        "critical-path node batches did not shrink: {before_batch} -> {after_batch}"
    );
    assert!(
        after_nodes <= before_nodes + 2,
        "nodes contacted blew up: {before_nodes} -> {after_nodes}"
    );
    assert!(
        after_frag.est_read_amplification <= before_frag.est_read_amplification
    );

    // Reclamation went through the batched path: per-key deletes and
    // batch round trips both counted, and bytes were reclaimed.
    let stats = compacted.cluster().stats();
    assert!(stats.deletes > deletes_before, "no backend keys reclaimed");
    assert!(stats.batch_deletes > 0, "deletes were not batched");
    assert_eq!(report.keys_deleted as u64, stats.deletes - deletes_before);
    assert!(!report.reclamation_failed);
    assert!(report.bytes_reclaimed > 0);
    assert!(report.bytes_rewritten > 0);

    assert_queries_agree(&plain, &compacted, 50);
}

/// Repeated compaction converges: under the default fill policy a
/// freshly compacted layout stops producing victims within a few
/// rounds, and every intermediate state keeps answering correctly.
#[test]
fn repeated_compaction_converges_and_stays_correct() {
    let ds = fragmenting_dataset(7, 48);
    let plain = store_with(2, 4, CompactionConfig::default());
    let compacted = store_with(2, 4, CompactionConfig::default());
    replay_commits(&plain, &ds).unwrap();
    replay_commits(&compacted, &ds).unwrap();

    let mut converged = false;
    for round in 0..5 {
        match compacted.compact().unwrap() {
            Some(report) => {
                assert!(
                    report.after.total_version_span <= report.before.total_version_span,
                    "round {round} worsened the layout"
                );
                assert_queries_agree(&plain, &compacted, 20);
            }
            None => {
                converged = true;
                break;
            }
        }
    }
    assert!(converged, "compaction kept finding victims after 5 rounds");
    assert_queries_agree(&plain, &compacted, 50);
}

/// A compacted store survives a restart: the persisted retired-id
/// list keeps the recovery scan off the deleted keys, and the
/// reopened store keeps accepting commits and compactions.
#[test]
fn reopen_after_compaction_recovers() {
    let dir = std::env::temp_dir().join(format!("rstore-compact-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = fragmenting_dataset(21, 40);
    let plain = store_with(2, 3, eager());
    replay_commits(&plain, &ds).unwrap();

    let config = StoreConfig {
        chunk_capacity: 2048,
        cache_budget: 0,
        batch_size: 3,
        compaction: eager(),
        ..StoreConfig::default()
    };
    let (live_after, retired_after) = {
        let cluster = Cluster::builder()
            .nodes(2)
            .engine(EngineKind::Log { dir: dir.clone() })
            .build();
        let store = store_on(cluster, 3, eager());
        replay_commits(&store, &ds).unwrap();
        store.compact().unwrap().expect("must compact");
        assert_queries_agree(&plain, &store, 30);
        (store.chunk_count(), store.retired_chunk_count())
    };
    assert!(retired_after > 0);

    // Restart over the same logs.
    let cluster = Cluster::builder()
        .nodes(2)
        .engine(EngineKind::Log { dir: dir.clone() })
        .build();
    let store = RStore::reopen(config, cluster).unwrap();
    assert_eq!(store.chunk_count(), live_after);
    assert_eq!(store.retired_chunk_count(), retired_after);
    assert_queries_agree(&plain, &store, 30);

    // Still a live store: new commits flush and compact again.
    let head = VersionId((store.version_count() - 1) as u32);
    let mut req = rstore_core::store::CommitRequest::child_of(head);
    for pk in 0..6u64 {
        req = req.put(pk, vec![0xCD; 100]);
    }
    store.commit(req).unwrap();
    let flush = store.seal().unwrap();
    assert_eq!(flush.versions, 1);
    let again = store.compact().unwrap();
    assert!(again.is_some(), "eager policy still selects after reopen");
    let v = VersionId(store.version_count() as u32 - 1);
    let rec = store.get_record(0, v).unwrap().expect("fresh record");
    assert_eq!(rec.payload.as_ref(), &[0xCD; 100][..]);

    let _ = std::fs::remove_dir_all(dir);
}

/// Asserts that a compaction attempt failed with a clean KV error.
fn assert_clean_kv_error(attempt: Result<Option<rstore_core::CompactionReport>, CoreError>) {
    match attempt {
        Err(CoreError::Kv(
            KvError::AllReplicasDown { .. } | KvError::NodeDown(_) | KvError::NodeGone(_),
        )) => {}
        Err(e) => panic!("expected a clean KV error, got {e}"),
        Ok(_) => panic!("compaction through a downed unreplicated node must fail"),
    }
}

/// The durable index — commit log plus stored maps, loaded as a
/// restart loads them — must be exactly what the from-contents oracle
/// computes from the writer state.
fn assert_index_matches_oracle(store: &RStore) {
    let (maps, projections) = store.index_from_contents();
    let ids: Vec<u32> = maps.iter().map(|&(c, _)| c).collect();
    assert_eq!(ids, store.live_chunk_ids(), "oracle covers the live chunks");
    let (stored_maps, stored_projections) = store.persisted_index().unwrap();
    assert_eq!(stored_maps, maps, "chunk maps differ from the oracle");
    assert_eq!(stored_projections, projections, "projections differ from the oracle");
}

/// A node dying mid-compaction surfaces as a clean KV error and the
/// old generation keeps serving — nothing is lost, and once the node
/// returns the compaction goes through. Whichever of the slice's
/// writes fails first — a chunk blob, a base map, or the commit record
/// alone — the failed slice changed nothing, and the retry ends
/// exactly where an undisturbed twin does.
#[test]
fn down_node_mid_compaction_leaves_old_generation_serving() {
    let ds = fragmenting_dataset(13, 40);
    let plain = store_with(3, 3, eager());
    // Replication 1: a down node makes part of the key space
    // unreachable instead of failing over.
    let cluster = Cluster::builder().nodes(3).replication(1).build();
    let store = store_on(cluster, 3, eager());
    replay_commits(&plain, &ds).unwrap();
    replay_commits(&store, &ds).unwrap();

    store.cluster().set_node_down(1, true);
    assert_clean_kv_error(store.compact());
    assert_eq!(store.retired_chunk_count(), 0, "no chunk may retire on failure");

    // Old generation fully serves once the node is back.
    store.cluster().set_node_down(1, false);
    assert_queries_agree(&plain, &store, 30);

    // And the retried compaction succeeds.
    store.compact().unwrap().expect("healthy cluster compacts");
    assert_queries_agree(&plain, &store, 30);

    // A wide cluster, so each of the slice's writes has an owner that
    // owns none of the writes before it (301 nodes: the width at which
    // that also holds for the one commit-record key); every version
    // read once, so the extraction is served from the cache and the
    // outage is met by a write.
    let build = || {
        let store = RStore::builder()
            .chunk_capacity(2048)
            .batch_size(3)
            .compaction(eager())
            .build(Cluster::builder().nodes(301).replication(1).build());
        replay_commits(&store, &ds).unwrap();
        for v in 0..store.version_count() {
            store.get_version(VersionId(v as u32)).unwrap();
        }
        store
    };
    let twin = build();
    let slots = twin.chunk_slot_count();
    let span = twin.total_version_span();
    let want = twin.compact().unwrap().expect("fragmented store must compact");
    const COMMIT_RECORD: &str = "commit record";

    for first_failure in [CHUNK_TABLE, CMAP_TABLE, COMMIT_RECORD] {
        let store = build();
        assert_eq!(store.chunk_slot_count(), slots);
        // The rebuilt generation takes fresh ids past the tail, at
        // most one per victim.
        let owner = |table: &str, name: &[u8]| store.cluster().owner_of(&table_key(table, name)).unwrap();
        let owners = |table: &str| -> Vec<usize> {
            (slots..2 * slots).map(|c| owner(table, &(c as u32).to_be_bytes())).collect()
        };
        let (blobs, maps) = (owners(CHUNK_TABLE), owners(CMAP_TABLE));
        let written = want.new_chunks;
        let node = match first_failure {
            CHUNK_TABLE => Some(blobs[0]),
            CMAP_TABLE => maps[..written].iter().copied().find(|n| !blobs.contains(n)),
            _ => Some(store.cluster().owner_of(&store.commit_log_keys().1).unwrap())
                .filter(|n| !blobs[..written].contains(n) && !maps[..written].contains(n)),
        }
        .unwrap_or_else(|| panic!("no node owns a {first_failure} key and no earlier write"));

        store.cluster().set_node_down(node, true);
        assert_clean_kv_error(store.compact());
        assert_eq!(store.retired_chunk_count(), 0, "{first_failure}: a chunk retired on failure");
        assert_eq!(store.chunk_slot_count(), slots, "{first_failure}: chunk ids claimed on failure");
        assert_eq!(store.total_version_span(), span);
        store.cluster().set_node_down(node, false);
        assert_queries_agree(&plain, &store, 30);

        let got = store.compact().unwrap().expect("healthy cluster compacts");
        assert_eq!((got.victims, got.new_chunks), (want.victims, want.new_chunks), "{first_failure}");
        assert_eq!(store.chunk_slot_count(), twin.chunk_slot_count(), "{first_failure}");
        assert_eq!(store.retired_chunk_count(), twin.retired_chunk_count());
        assert_eq!(store.total_version_span(), twin.total_version_span());
        assert_eq!(store.live_chunk_ids(), twin.live_chunk_ids());
        // Every backend value, and which keys exist at all: a blob or
        // map left under a non-live id would be an orphan nothing ever
        // deletes.
        let same = |table: &str, name: &[u8]| {
            let key = table_key(table, name);
            let (got, want) = (store.cluster().get(&key).unwrap(), twin.cluster().get(&key).unwrap());
            let name = String::from_utf8_lossy(name);
            assert_eq!(got, want, "{first_failure}: {table}/{name:?} differs from the twin's");
        };
        for c in 0..2 * slots as u32 {
            same(CHUNK_TABLE, &c.to_be_bytes());
            same(CMAP_TABLE, &c.to_be_bytes());
        }
        let log = store.commit_log_keys();
        assert_eq!(log, twin.commit_log_keys(), "{first_failure}: the logs cover different generations");
        for key in log.0 {
            assert_eq!(store.cluster().get(&key).unwrap(), twin.cluster().get(&key).unwrap());
        }
        assert_index_matches_oracle(&store);
        assert_queries_agree(&plain, &store, 30);
    }
}

/// `seal` hands back the final flush's report instead of discarding
/// it, and an empty seal is the default report.
#[test]
fn seal_returns_final_flush_report() {
    let store = store_with(2, usize::MAX, CompactionConfig::default());
    let mut req = rstore_core::store::CommitRequest::root(
        (0..8u64).map(|pk| (pk, vec![7u8; 64])).collect::<Vec<_>>(),
    );
    let _ = &mut req;
    store.commit(req).unwrap();
    let report = store.seal().unwrap();
    assert_eq!(report.versions, 1);
    assert_eq!(report.new_records, 8);
    assert!(report.new_chunks > 0);
    let empty = store.seal().unwrap();
    assert_eq!(empty.versions, 0);
}

/// Fragmentation is observable without compacting: an online replay
/// with tiny batches decays the layout relative to an offline load of
/// the same data, and the stats say so.
#[test]
fn fragmentation_stats_expose_layout_decay() {
    let ds = fragmenting_dataset(31, 40);
    let offline = store_with(2, usize::MAX, CompactionConfig::default());
    offline.load_dataset(&ds).unwrap();
    let online = store_with(2, 3, CompactionConfig::default());
    replay_commits(&online, &ds).unwrap();

    let off = offline.fragmentation_stats();
    let on = online.fragmentation_stats();
    assert_eq!(off.live_chunks, offline.chunk_count());
    assert!(on.live_chunks > off.live_chunks, "online must fragment");
    assert!(on.mean_fill < off.mean_fill);
    assert!(on.under_filled > off.under_filled);
    assert!(on.mean_version_span > off.mean_version_span);
    assert!(on.est_read_amplification > off.est_read_amplification);
    assert!(on.max_version_span >= on.mean_version_span.ceil() as usize);
    // Scan queries still work over a store with retired ids.
    online.compact().unwrap();
    let scanned = online.query(QuerySpec::Scan).unwrap();
    assert!(!scanned.is_empty());
}
