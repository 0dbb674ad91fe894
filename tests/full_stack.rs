//! Full-stack integration tests: generator → partitioner → multi-node
//! cluster → queries, verified against the materialization oracle.

use rstore::core::QuerySpec;
use rstore::prelude::*;
use rstore::vgraph::VersionId;

fn check_against_oracle(store: &RStore, dataset: &rstore::vgraph::Dataset) {
    let rstore = dataset.record_store();
    let oracle = dataset.materialize(&rstore);
    for vi in 0..dataset.graph.len() {
        let v = VersionId(vi as u32);
        let got = store.get_version(v).unwrap();
        let expect = oracle.contents(v);
        assert_eq!(got.len(), expect.len(), "version {v}");
        for (rec, &(pk, ord)) in got.iter().zip(expect) {
            assert_eq!(rec.pk, pk);
            assert_eq!(rec.payload, rstore.payload(ord));
        }
    }
}

#[test]
fn sixteen_node_cluster_serves_all_versions() {
    let mut spec = DatasetSpec::tiny(9001);
    spec.num_versions = 50;
    spec.root_records = 80;
    let dataset = spec.generate();

    let cluster = Cluster::builder().nodes(16).replication(3).build();
    let store = RStore::builder()
        .chunk_capacity(4096)
        .partitioner(PartitionerKind::BottomUp { beta: usize::MAX })
        .build(cluster);
    store.load_dataset(&dataset).unwrap();
    check_against_oracle(&store, &dataset);
}

#[test]
fn queries_survive_node_failure_with_replication() {
    let mut spec = DatasetSpec::tiny(9002);
    spec.num_versions = 30;
    spec.root_records = 50;
    let dataset = spec.generate();

    // The second case runs the same outage on a flaky backend (every
    // node refuses ~10% of requests), so the default test suite also
    // drives the client's retry loop and hinted handoff.
    for faults in [None, Some(rstore::kvstore::FaultPlan::flaky(7))] {
        let flaky = faults.is_some();
        let mut cluster = Cluster::builder().nodes(4).replication(2);
        if let Some(plan) = faults {
            cluster = cluster.faults(plan);
        }
        let store = RStore::builder()
            .chunk_capacity(4096)
            .partitioner(PartitionerKind::DepthFirst)
            .build(cluster.build());
        // Load with a node down: the writes it misses become hints,
        // replayed when it comes back.
        store.cluster().set_node_down(3, true);
        store.load_dataset(&dataset).unwrap();
        assert!(store.cluster().pending_hints() > 0);
        store.cluster().set_node_down(3, false);
        assert_eq!(store.cluster().pending_hints(), 0);

        // Take one node down: every chunk still has a live replica —
        // for chunks shared with node 3, only thanks to the replay.
        store.cluster().set_node_down(2, true);
        check_against_oracle(&store, &dataset);
        store.cluster().set_node_down(2, false);
        assert_eq!(store.cluster().stats().retries > 0, flaky);
    }
}

/// One dataset behind a scripted slow replica, read through all three
/// shapes of the one fetch loop — no pool (`execute_serial`), pooled,
/// pooled with hedging — every answer checked against the dataset
/// oracle: only the hedged store may hedge, and its backups must win.
#[test]
fn serial_pooled_and_hedged_reads_agree_behind_a_slow_replica() {
    use rstore::core::HedgeConfig;
    use rstore::kvstore::{FaultPlan, FaultRule};
    use std::time::Duration;

    let mut spec = DatasetSpec::tiny(9024);
    spec.num_versions = 20;
    spec.root_records = 50;
    let dataset = spec.generate();
    let rstore = dataset.record_store();
    let oracle = dataset.materialize(&rstore);

    // Node 0 sleeps a real 3 ms per request; nothing else costs time.
    let build = |hedge: Option<HedgeConfig>| {
        let network = NetworkModel { real_sleep: true, ..NetworkModel::zero() };
        let slow = FaultRule::latency(Duration::from_millis(3)).on_node(0);
        let cluster = Cluster::builder()
            .nodes(4)
            .replication(2)
            .network(network)
            .faults(FaultPlan::new(7).rule(slow))
            .build();
        let mut builder = RStore::builder().chunk_capacity(1024).cache_budget(0);
        if let Some(cfg) = hedge {
            builder = builder.hedge(cfg);
        }
        let store = builder.build(cluster);
        store.load_dataset(&dataset).unwrap();
        store
    };
    let plain = build(None);
    let hedged = build(Some(HedgeConfig { factor: 0.0, min: Duration::from_millis(1) }));

    let mut hedge_wins = 0;
    for vi in 0..dataset.graph.len() {
        let v = VersionId(vi as u32);
        let plan = |store: &RStore| store.plan_query(QuerySpec::Version(v)).unwrap();
        let shapes = [
            ("serial", plain.execute_serial(plan(&plain))),
            ("pooled", plain.execute(plan(&plain))),
            ("hedged", hedged.execute(plan(&hedged))),
        ];
        for (shape, executed) in shapes {
            let executed = executed.unwrap_or_else(|e| panic!("{shape} read of {v}: {e}"));
            if shape == "hedged" {
                hedge_wins += executed.metrics.hedge_wins;
            } else {
                assert_eq!(executed.metrics.hedges, 0, "{shape} read of {v} hedged");
            }
            let mut got = executed.into_stream().drain().unwrap();
            got.sort_unstable_by_key(|r| r.pk);
            let expect = oracle.contents(v);
            assert_eq!(got.len(), expect.len(), "{shape} read of {v}");
            for (rec, &(pk, ord)) in got.iter().zip(expect) {
                assert_eq!(rec.pk, pk, "{shape} read of {v}");
                assert_eq!(rec.payload, rstore.payload(ord), "{shape} read of {v}");
            }
        }
    }
    assert!(hedge_wins > 0, "backups against a sleeping replica must win");
}

#[test]
fn log_engine_store_survives_reload_of_cluster() {
    let dir = std::env::temp_dir().join(format!("rstore-fullstack-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut spec = DatasetSpec::tiny(9003);
    spec.num_versions = 20;
    spec.root_records = 40;
    let dataset = spec.generate();

    // Load into a log-engine cluster, then drop everything.
    let config = {
        let cluster = Cluster::builder()
            .nodes(2)
            .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
            .build();
        let store = RStore::builder()
            .chunk_capacity(4096)
            .build(cluster);
        store.load_dataset(&dataset).unwrap();
        check_against_oracle(&store, &dataset);
        *store.config()
    };

    // Restart the cluster on the same directory: the index must still
    // be there (verified through the durable view: the commit log and
    // the stored maps, loaded as a restart loads them).
    let cluster = Cluster::builder()
        .nodes(2)
        .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
        .build();
    let store = RStore::reopen(config, cluster).unwrap();
    let (maps, projections) = store.persisted_index().expect("persisted index lost after restart");
    assert_eq!(maps.len(), store.chunk_count());
    assert_eq!(projections.num_versions(), dataset.graph.len());
    assert!(projections.total_version_span() > 0);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn network_model_accounts_modeled_time() {
    let mut spec = DatasetSpec::tiny(9004);
    spec.num_versions = 15;
    let dataset = spec.generate();

    let cluster = Cluster::builder()
        .nodes(4)
        .network(NetworkModel::lan_virtual())
        .build();
    let store = RStore::builder().chunk_capacity(4096).build(cluster);
    store.load_dataset(&dataset).unwrap();
    store.cluster().reset_stats();

    let (_, stats) = store.query_with_stats(QuerySpec::Version(VersionId(10))).unwrap();
    assert!(
        stats.modeled_network >= std::time::Duration::from_micros(250),
        "modeled network time missing: {:?}",
        stats.modeled_network
    );
}

#[test]
fn online_and_offline_stores_agree_end_to_end() {
    let mut spec = DatasetSpec::tiny(9005);
    spec.num_versions = 25;
    spec.root_records = 30;
    let dataset = spec.generate();

    let make = |batch: usize| {
        let cluster = Cluster::builder().nodes(3).build();
        RStore::builder()
            .chunk_capacity(2048)
            .batch_size(batch)
            .build(cluster)
    };
    let online = make(7);
    rstore::core::online::replay_commits(&online, &dataset).unwrap();
    let offline = make(64);
    offline.load_dataset(&dataset).unwrap();
    assert!(rstore::core::online::stores_agree(&online, &offline).unwrap());
    check_against_oracle(&online, &dataset);
}

#[test]
fn merge_dag_loads_via_tree_conversion() {
    // Build a DAG with a 3-parent merge through the commit API, then
    // verify queries on every version (Fig. 4 semantics: partitioning
    // uses the primary-parent tree; queries see the full DAG).
    let cluster = Cluster::builder().nodes(2).build();
    let store = RStore::builder()
        .chunk_capacity(1024)
        .batch_size(3)
        .build(cluster);

    let v0 = store
        .commit(CommitRequest::root((0u64..10).map(|pk| (pk, vec![pk as u8; 50]))))
        .unwrap();
    let v1 = store
        .commit(CommitRequest::child_of(v0).put(0, vec![0xAA; 50]))
        .unwrap();
    let v2 = store
        .commit(CommitRequest::child_of(v0).put(1, vec![0xBB; 50]))
        .unwrap();
    let v3 = store
        .commit(CommitRequest::child_of(v0).put(2, vec![0xCC; 50]))
        .unwrap();
    // Merge of all three branches, expressed relative to v1.
    let v4 = store
        .commit(
            CommitRequest::merge_of(v1, [v2, v3])
                .put(1, vec![0xBB; 50])
                .put(2, vec![0xCC; 50]),
        )
        .unwrap();
    store.seal().unwrap();

    assert_eq!(store.graph().node(v4).parents, vec![v1, v2, v3]);
    assert!(store.graph().has_merges());

    let merged = store.get_version(v4).unwrap();
    assert_eq!(merged.len(), 10);
    assert_eq!(merged[0].payload, vec![0xAA; 50]);
    assert_eq!(merged[1].payload, vec![0xBB; 50]);
    assert_eq!(merged[2].payload, vec![0xCC; 50]);
    // Records re-keyed at the merge have origin v4 (paper: "renamed to
    // make them appear as newly inserted records").
    assert_eq!(merged[1].origin, v4);
    // The record inherited from the primary parent keeps its origin.
    assert_eq!(merged[0].origin, v1);
}

#[test]
fn reopen_restores_full_query_capability() {
    let dir = std::env::temp_dir().join(format!("rstore-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut spec = DatasetSpec::tiny(9007);
    spec.num_versions = 20;
    spec.root_records = 40;
    let dataset = spec.generate();
    let make_cluster = || {
        Cluster::builder()
            .nodes(2)
            .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
            .build()
    };

    let (span, chunks) = {
        let store = RStore::builder().chunk_capacity(2048).build(make_cluster());
        store.load_dataset(&dataset).unwrap();
        (store.total_version_span(), store.chunk_count())
    };

    // Restart: reopen against a fresh cluster over the same logs.
    let store = RStore::reopen(
        rstore::core::store::StoreConfig::default(),
        make_cluster(),
    )
    .unwrap();
    assert_eq!(store.version_count(), dataset.graph.len());
    assert_eq!(store.chunk_count(), chunks);
    assert_eq!(store.total_version_span(), span);
    check_against_oracle(&store, &dataset);

    // The reopened store accepts new commits.
    let store = store;
    let head = VersionId((dataset.graph.len() - 1) as u32);
    let v = store
        .commit(CommitRequest::child_of(head).put(99999, b"fresh".to_vec()))
        .unwrap();
    store.seal().unwrap();
    let rec = store.get_record(99999, v).unwrap().unwrap();
    assert_eq!(rec.payload, b"fresh");
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn compression_stack_spans_all_crates() {
    // k=10 sub-chunks exercise delta + lz codecs through the full
    // query path on a replicated cluster.
    let mut spec = DatasetSpec::tiny_chain(9006);
    spec.num_versions = 30;
    spec.root_records = 40;
    spec.record_size = 400;
    spec.pd = 0.03;
    spec.update_frac = 0.3;
    let dataset = spec.generate();

    let cluster = Cluster::builder().nodes(3).replication(2).build();
    let store = RStore::builder()
        .chunk_capacity(8192)
        .max_subchunk(10)
        .build(cluster);
    let report = store.load_dataset(&dataset).unwrap();
    assert!(report.compression_ratio() > 1.5);
    check_against_oracle(&store, &dataset);
}

#[test]
fn failed_flush_keeps_its_batch_and_retries_after_the_outage() {
    // Compact copy of `crates/core/tests/ingest.rs`'s failed-flush
    // scenario, so the default `cargo test` crosses the path: half
    // the history flushed, the rest acknowledged into the delta store,
    // an unreplicated node dead for the flush, then back.
    use rstore::core::online::{commit_request, replay_commits, truncate_dataset};
    let dir = std::env::temp_dir().join(format!("rstore-fullstack-failed-flush-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut spec = DatasetSpec::tiny(9008);
    spec.num_versions = 16;
    spec.root_records = 40;
    let dataset = spec.generate();
    let half = dataset.graph.len() / 2;
    let make_cluster = || {
        Cluster::builder()
            .nodes(3)
            .replication(1)
            .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
            .build()
    };

    let config = {
        let store = RStore::builder()
            .chunk_capacity(1024)
            .batch_size(usize::MAX)
            .build(make_cluster());
        replay_commits(&store, &truncate_dataset(&dataset, half)).unwrap();
        for v in (half..dataset.graph.len()).map(|v| VersionId(v as u32)) {
            store.commit(commit_request(&dataset, v)).unwrap();
        }
        assert_eq!(store.pending_commits(), dataset.graph.len() - half);

        store.cluster().set_node_down(2, true);
        assert!(store.seal().is_err(), "flush through a dead unreplicated node");
        assert_eq!(
            store.pending_commits(),
            dataset.graph.len() - half,
            "a failed flush must not drop acknowledged commits"
        );
        store.cluster().set_node_down(2, false);

        let report = store.seal().unwrap();
        assert_eq!(report.versions, dataset.graph.len() - half);
        check_against_oracle(&store, &dataset);
        *store.config()
    };

    // And the retried flush is what a restart finds.
    let store = RStore::reopen(config, make_cluster()).unwrap();
    check_against_oracle(&store, &dataset);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_cold_query_costs_one_backend_key_per_chunk() {
    // Table 1 (`cost.rs`) bills a retrieval one backend query per
    // chunk it spans. The chunk maps ride the pinned snapshot, so that
    // is what the cluster must count — and once a store is open it
    // never reads the `cmaps` table again: here the table is emptied
    // behind the reopened store's back and nothing notices.
    use rstore::core::store::CMAP_TABLE;
    use rstore::kvstore::table_key;
    let dir = std::env::temp_dir().join(format!("rstore-fullstack-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut spec = DatasetSpec::tiny(9010);
    spec.num_versions = 24;
    spec.root_records = 60;
    let dataset = spec.generate();
    let make_cluster = || {
        Cluster::builder()
            .nodes(3)
            .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
            .build()
    };
    let config = {
        let store = RStore::builder()
            .chunk_capacity(1024)
            .cache_budget(0)
            .build(make_cluster());
        store.load_dataset(&dataset).unwrap();
        *store.config()
    };

    let store = RStore::reopen(config, make_cluster()).unwrap();
    let stored_maps: Vec<_> = store
        .live_chunk_ids()
        .iter()
        .map(|c| table_key(CMAP_TABLE, &c.to_be_bytes()))
        .collect();
    let (_, deleted) = store.cluster().multi_delete_scatter(stored_maps).unwrap();
    assert_eq!(deleted, store.chunk_count());

    let head = VersionId((dataset.graph.len() - 1) as u32);
    let pk = store.get_version(head).unwrap()[0].pk;
    for spec in [QuerySpec::Version(head), QuerySpec::Record { pk, v: head }] {
        let plan = store.plan_query(spec).unwrap();
        let span = plan.span() as u64;
        assert!(span > 0);
        let before = store.cluster().stats();
        let records = store.execute(plan).unwrap().into_stream().drain().unwrap();
        let spent = store.cluster().stats().since(&before);
        assert!(!records.is_empty());
        assert_eq!(spent.gets, span, "{spec:?}: backend keys read != chunks spanned");
        assert_eq!(spent.misses, 0, "{spec:?}: a fetched key was absent");
    }
    check_against_oracle(&store, &dataset);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

/// A pooled round submits exactly its node batches: a cold version
/// read on four nodes, each node's batch well past eight keys, runs
/// one pool job per node contacted, however many workers sit idle.
#[test]
fn a_pooled_round_runs_one_job_per_node_batch() {
    use rstore::core::store::CHUNK_TABLE;
    use rstore::core::ChunkId;
    use rstore::kvstore::table_key;

    let mut spec = DatasetSpec::tiny(9031);
    spec.num_versions = 8;
    spec.root_records = 400;
    let dataset = spec.generate();
    let store = RStore::builder()
        .chunk_capacity(256)
        .cache_budget(0)
        .build(Cluster::builder().nodes(4).build());
    store.load_dataset(&dataset).unwrap();

    let head = VersionId((dataset.graph.len() - 1) as u32);
    let plan = store.plan_query(QuerySpec::Version(head)).unwrap();
    assert!(plan.span() >= 80, "span {} too narrow", plan.span());
    assert_eq!(plan.nodes_contacted(), 4);
    // At replication 1 a chunk's batch is its blob key's owner.
    let mut batch = [0usize; 4];
    for &c in plan.chunk_ids() {
        let key = table_key(CHUNK_TABLE, &ChunkId(c).to_key());
        batch[store.cluster().owner_of(&key).unwrap()] += 1;
    }
    assert!(batch.iter().all(|&keys| keys > 8), "node batches {batch:?}");

    let before = store.serve_stats().jobs_run;
    let expected = plan.nodes_contacted() as u64;
    store.execute(plan).unwrap();
    let jobs = store.serve_stats().jobs_run - before;
    assert_eq!(jobs, expected, "pool jobs for one cold read");
}

#[test]
fn a_damaged_sub_chunk_fails_its_reads_and_stays_out_of_the_cache() {
    // The fetch stage builds, where each blob lands, the query's
    // records. One stored blob's first sub-chunk gets a bad LZ token
    // tag, the chunk framing intact: a query that reads that sub-chunk
    // fails at `execute` under both executors and never admits the
    // chunk to the cache, while a query reading only another sub-chunk
    // of the same chunk is answered. After a restart the recovery
    // scan, a chunk fetch that decodes no sub-chunk, has cached the
    // chunk: a scan query or a read of the damaged sub-chunk fails at
    // `execute` on that hit and evicts it, a chunk fetch caches it
    // again, and later reads fail at `execute` again.
    use rstore::compress::varint;
    use rstore::core::chunk::Chunk;
    use rstore::core::store::CHUNK_TABLE;
    use rstore::core::CoreError;
    use rstore::kvstore::table_key;
    let dir = std::env::temp_dir().join(format!("rstore-fullstack-damaged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut spec = DatasetSpec::tiny(9027);
    spec.num_versions = 24;
    spec.root_records = 60;
    let dataset = spec.generate();
    let make_cluster = || {
        Cluster::builder()
            .nodes(3)
            .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
            .build()
    };
    let store = RStore::builder().chunk_capacity(2048).build(make_cluster());
    store.load_dataset(&dataset).unwrap();
    let blob_key = |c: u32| table_key(CHUNK_TABLE, &c.to_be_bytes());

    // The first chunk whose sub-chunks hold more than one key.
    let (id, chunk) = store
        .live_chunk_ids()
        .into_iter()
        .find_map(|c| {
            let chunk = Chunk::deserialize(&store.cluster().get(&blob_key(c)).unwrap()?).unwrap();
            let first = chunk.subchunks[0].members[0].pk;
            let mixed = chunk.subchunks.iter().any(|sc| sc.members[0].pk != first);
            mixed.then_some((c, chunk))
        })
        .expect("some chunk holds two keys");
    let damaged = chunk.subchunks[0].members[0];
    let intact = chunk
        .subchunks
        .iter()
        .map(|sc| sc.members[0])
        .find(|ck| ck.pk != damaged.pk)
        .unwrap();
    let mut broken = chunk.clone();
    let payload = broken.subchunks[0].payload.to_mut();
    let (_, header) = varint::read_u64(payload).unwrap();
    payload[header] = 0x77;
    let blob = broken.serialize();
    assert_eq!(blob.len(), chunk.serialize().len());
    store.cluster().put(blob_key(id), blob.into()).unwrap();

    // A record is in the version that wrote it.
    let v = damaged.origin;
    let plan = |store: &RStore| {
        let plan = store.plan_query(QuerySpec::Version(v)).unwrap();
        assert!(plan.chunk_ids().contains(&id));
        plan
    };
    let is_cached = |store: &RStore| store.plan_chunks(vec![id]).unwrap().cache_hits() == 1;
    let fails_in_execute = |store: &RStore| {
        for (shape, executed) in [
            ("pooled", store.execute(plan(store))),
            ("serial", store.execute_serial(plan(store))),
        ] {
            match executed {
                Err(CoreError::Codec(_)) => {}
                other => panic!(
                    "{shape} read of {v}: expected a decode error, got {:?}",
                    other.map(|_| ())
                ),
            }
            assert!(!is_cached(store), "{shape}: the damaged chunk was cached");
        }
    };
    let rstore = dataset.record_store();
    let oracle = dataset.materialize(&rstore);
    let intact_is_answered = |store: &RStore| {
        let (pk, v) = (intact.pk, intact.origin);
        let spec = QuerySpec::Record { pk, v };
        assert!(store.plan_query(spec).unwrap().chunk_ids().contains(&id));
        let got = store.query(spec).unwrap();
        let &(_, ord) = oracle.contents(v).iter().find(|&&(k, _)| k == pk).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, rstore.payload(ord));
        // Read for its undamaged sub-chunks, the chunk is cached.
        assert!(is_cached(store));
    };
    fails_in_execute(&store);
    intact_is_answered(&store);
    let config = *store.config();
    drop(store);

    let store = RStore::reopen(config, make_cluster()).unwrap();
    assert!(is_cached(&store), "the recovery scan warms the cache");
    let scan = store.plan_query(QuerySpec::Scan).unwrap();
    match store.execute(scan) {
        Err(CoreError::Codec(_)) => {}
        other => panic!(
            "scan of the cached chunk: expected a decode error, got {:?}",
            other.map(|_| ())
        ),
    }
    assert!(!is_cached(&store), "the hit the scan failed on stayed cached");
    store.execute(store.plan_chunks(vec![id]).unwrap()).unwrap();
    assert!(is_cached(&store), "a chunk fetch builds no record and caches the chunk");
    match store.execute(plan(&store)) {
        Err(CoreError::Codec(_)) => {}
        other => panic!(
            "read of {v} from the cached chunk: expected a decode error, got {:?}",
            other.map(|_| ())
        ),
    }
    assert!(!is_cached(&store), "the failed hit stayed cached");
    fails_in_execute(&store);
    intact_is_answered(&store);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_chunk_whose_declared_sizes_overflow_fails_its_reads_and_stays_out_of_the_cache() {
    // One stored blob's first two sub-chunks each declare `usize::MAX`
    // uncompressed bytes, their payloads and the chunk framing intact.
    // The cache charge sums those sizes: it saturates instead of
    // overflowing, so the chunk is never admitted. A read of the first
    // sub-chunk fails at `execute` with a decode error under both
    // executors (its members do not add up to the declared size), a
    // chunk fetch that decodes no sub-chunk succeeds, and a read of
    // another sub-chunk of the chunk is answered.
    use rstore::core::chunk::Chunk;
    use rstore::core::store::CHUNK_TABLE;
    use rstore::core::CoreError;
    use rstore::kvstore::table_key;
    let mut spec = DatasetSpec::tiny(9031);
    spec.num_versions = 24;
    spec.root_records = 60;
    let dataset = spec.generate();
    let store = RStore::builder().chunk_capacity(2048).build(Cluster::builder().nodes(2).build());
    store.load_dataset(&dataset).unwrap();
    let blob_key = |c: u32| table_key(CHUNK_TABLE, &c.to_be_bytes());

    // The first chunk with a sub-chunk past the second whose key the
    // first two do not hold.
    let (id, chunk, intact) = store
        .live_chunk_ids()
        .into_iter()
        .find_map(|c| {
            let chunk = Chunk::deserialize(&store.cluster().get(&blob_key(c)).unwrap()?).unwrap();
            let damaged: Vec<u64> = chunk.subchunks.iter().take(2).map(|sc| sc.members[0].pk).collect();
            let intact = chunk
                .subchunks
                .iter()
                .skip(2)
                .map(|sc| sc.members[0])
                .find(|ck| !damaged.contains(&ck.pk))?;
            Some((c, chunk, intact))
        })
        .expect("some chunk holds three keys");
    let damaged = chunk.subchunks[0].members[0];
    let mut broken = chunk.clone();
    for sc in &mut broken.subchunks[..2] {
        sc.raw_bytes = usize::MAX;
    }
    let blob = broken.serialize();
    assert_eq!(Chunk::deserialize(&blob).unwrap().raw_bytes(), usize::MAX);
    store.cluster().put(blob_key(id), blob.into()).unwrap();

    let is_cached = |store: &RStore| store.plan_chunks(vec![id]).unwrap().cache_hits() == 1;
    let v = damaged.origin;
    for (shape, executed) in [
        ("pooled", store.execute(store.plan_query(QuerySpec::Version(v)).unwrap())),
        ("serial", store.execute_serial(store.plan_query(QuerySpec::Version(v)).unwrap())),
    ] {
        match executed {
            Err(CoreError::Codec(_)) => {}
            other => panic!("{shape} read of {v}: expected a decode error, got {:?}", other.map(|_| ())),
        }
        assert!(!is_cached(&store), "{shape}: the damaged chunk was cached");
    }
    store.execute(store.plan_chunks(vec![id]).unwrap()).unwrap();
    assert!(!is_cached(&store), "a chunk charged past the budget was cached");

    let rstore = dataset.record_store();
    let oracle = dataset.materialize(&rstore);
    let (pk, v) = (intact.pk, intact.origin);
    let spec = QuerySpec::Record { pk, v };
    assert!(store.plan_query(spec).unwrap().chunk_ids().contains(&id));
    let got = store.query(spec).unwrap();
    let &(_, ord) = oracle.contents(v).iter().find(|&&(k, _)| k == pk).unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].payload, rstore.payload(ord));
    assert!(!is_cached(&store), "a chunk charged past the budget was cached");
}

#[test]
fn one_history_reaches_the_generation_writer_from_every_entry_point() {
    // Bulk load, flush and compaction all commit through the one
    // generation writer; this history crosses it from each of them on
    // a log-engine cluster, then reclaims and restarts. After every
    // step the answers are the dataset oracle's and the durable index
    // — commit log plus stored maps, loaded as a restart loads them —
    // is the one the from-contents pass computes.
    use rstore::core::compact::CompactionConfig;
    use rstore::core::online::{commit_request, truncate_dataset};
    let dir = std::env::temp_dir().join(format!("rstore-fullstack-writer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut spec = DatasetSpec::tiny(9009);
    spec.num_versions = 36;
    spec.root_records = 40;
    let dataset = spec.generate();
    let half = dataset.graph.len() / 2;
    let make_cluster = || {
        Cluster::builder()
            .nodes(3)
            .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
            .build()
    };
    let check = |store: &RStore, dataset: &rstore::vgraph::Dataset, step: &str| {
        check_against_oracle(store, dataset);
        let (maps, projections) = store.index_from_contents();
        let ids: Vec<u32> = maps.iter().map(|&(c, _)| c).collect();
        assert_eq!(ids, store.live_chunk_ids(), "{step}: oracle covers the live chunks");
        let (stored_maps, stored_projections) = store.persisted_index().unwrap();
        assert_eq!(stored_maps, maps, "{step}: chunk maps");
        assert_eq!(stored_projections, projections, "{step}: projections");
    };

    let config = {
        let store = RStore::builder()
            .chunk_capacity(1024)
            .max_subchunk(3)
            .batch_size(4)
            .compaction(CompactionConfig { min_fill: 1.1, max_chunks_per_slice: 4 })
            .build(make_cluster());

        let loaded = truncate_dataset(&dataset, half);
        store.load_dataset(&loaded).unwrap();
        check(&store, &loaded, "bulk load");

        // Online commits on top: the batch size flushes every fourth,
        // the seal flushes the rest.
        for v in (half..dataset.graph.len()).map(|v| VersionId(v as u32)) {
            assert_eq!(store.commit(commit_request(&dataset, v)).unwrap(), v);
        }
        assert!(store.pending_commits() > 0, "the seal has a batch left to flush");
        assert!(store.seal().unwrap().versions > 0);
        check(&store, &dataset, "flush");

        let report = store.compact().unwrap().expect("small batches fragment the layout");
        assert!(report.slices > 1, "the slice budget splits the victim set");
        assert_eq!(store.retired_chunk_count(), report.victims);
        check(&store, &dataset, "compaction");

        let reclaimed = store.reclaim().unwrap();
        assert_eq!(reclaimed.slots_reclaimed, report.victims);
        assert_eq!(store.retired_chunk_count(), 0);
        check(&store, &dataset, "reclaim");
        *store.config()
    };

    let store = RStore::reopen(config, make_cluster()).unwrap();
    assert_eq!(store.version_count(), dataset.graph.len());
    check(&store, &dataset, "reopen");
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn compaction_carries_the_sub_chunks_it_does_not_regroup() {
    // At one record per sub-chunk every group a compaction forms is
    // exactly one victim sub-chunk, so none is encoded again: the
    // report counts no sub-chunk built, and every blob of the new
    // generation is still byte for byte what encoding its records
    // afresh writes.
    use rstore::core::chunk::{Chunk, SubChunk};
    use rstore::core::compact::CompactionConfig;
    use rstore::core::online::replay_commits;
    use rstore::core::store::CHUNK_TABLE;
    use rstore::kvstore::table_key;

    let mut spec = DatasetSpec::tiny(9040);
    spec.num_versions = 40;
    spec.root_records = 50;
    spec.update_frac = 0.3;
    spec.record_size = 100;
    let dataset = spec.generate();
    let store = RStore::builder()
        .chunk_capacity(2048)
        .max_subchunk(1)
        .batch_size(3)
        .compaction(CompactionConfig {
            min_fill: 1.1,
            ..CompactionConfig::default()
        })
        .build(Cluster::builder().nodes(3).build());
    replay_commits(&store, &dataset).unwrap();
    let before = store.live_chunk_ids();
    let report = store
        .compact()
        .unwrap()
        .expect("small batches fragment the layout");
    assert!(report.records_moved > 0);
    assert_eq!(
        report.subchunks_built, 0,
        "a k = 1 compaction encoded a sub-chunk again"
    );

    let new_chunks: Vec<u32> = store
        .live_chunk_ids()
        .into_iter()
        .filter(|c| !before.contains(c))
        .collect();
    assert_eq!(new_chunks.len(), report.new_chunks);
    for c in new_chunks {
        let blob = store
            .cluster()
            .get(&table_key(CHUNK_TABLE, &c.to_be_bytes()))
            .unwrap()
            .unwrap();
        let chunk = Chunk::deserialize(&blob).unwrap();
        let subchunks = chunk
            .subchunks
            .iter()
            .map(|sc| {
                let payloads = sc.decode().unwrap();
                let records: Vec<_> = sc
                    .members
                    .iter()
                    .copied()
                    .zip(payloads.iter().map(|p| &p[..]))
                    .collect();
                SubChunk::build(&records)
            })
            .collect();
        assert_eq!(&blob[..], &Chunk { subchunks }.serialize()[..], "chunk {c}");
    }
    check_against_oracle(&store, &dataset);
}

#[test]
fn a_damaged_victim_sub_chunk_fails_the_compaction() {
    // A compaction decodes every victim sub-chunk before it writes
    // anything, the ones it carries whole included: that decode is its
    // one check on the victims' bytes. One victim blob's first
    // sub-chunk gets a bad LZ token tag, the chunk framing intact. The
    // compaction fails with a decode error and retires nothing; with
    // the blob restored, every version answers like the oracle,
    // before a restart and after it, and the compaction then goes
    // through. With the cache on, the failed compaction must not leave
    // the damaged copy its scan fetched cached: the first read after
    // the repair would fail on it.
    use rstore::compress::varint;
    use rstore::core::chunk::Chunk;
    use rstore::core::compact::CompactionConfig;
    use rstore::core::online::replay_commits;
    use rstore::core::store::CHUNK_TABLE;
    use rstore::core::CoreError;
    use rstore::kvstore::table_key;
    let mut spec = DatasetSpec::tiny(9043);
    spec.num_versions = 30;
    spec.root_records = 50;
    let dataset = spec.generate();
    for cache_budget in [0, 64 << 20] {
        let dir = std::env::temp_dir().join(format!(
            "rstore-fullstack-victim-{cache_budget}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let make_cluster = || {
            Cluster::builder()
                .nodes(3)
                .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
                .build()
        };
        let store = RStore::builder()
            .chunk_capacity(2048)
            .max_subchunk(1)
            .batch_size(3)
            .cache_budget(cache_budget)
            .compaction(CompactionConfig {
                min_fill: 1.1,
                ..CompactionConfig::default()
            })
            .build(make_cluster());
        replay_commits(&store, &dataset).unwrap();
        let live = store.live_chunk_ids();
        let key = table_key(CHUNK_TABLE, &live[live.len() / 2].to_be_bytes());
        let intact = store.cluster().get(&key).unwrap().unwrap();
        let mut broken = Chunk::deserialize(&intact).unwrap();
        let payload = broken.subchunks[0].payload.to_mut();
        let (_, header) = varint::read_u64(payload).unwrap();
        payload[header] = 0x77;
        let blob = broken.serialize();
        assert_eq!(blob.len(), intact.len());
        store.cluster().put(key.clone(), blob.into()).unwrap();

        match store.compact() {
            Err(CoreError::Codec(_)) => {}
            other => panic!(
                "cache {cache_budget}: expected a decode error, got {:?}",
                other.map(|r| r.map(|r| r.victims))
            ),
        }
        assert_eq!(store.retired_chunk_count(), 0);
        assert_eq!(
            store.live_chunk_ids(),
            live,
            "cache {cache_budget}: the failed compaction changed the chunk table"
        );

        store.cluster().put(key, intact).unwrap();
        check_against_oracle(&store, &dataset);
        let config = *store.config();
        drop(store);
        let store = RStore::reopen(config, make_cluster()).unwrap();
        assert_eq!(store.live_chunk_ids(), live);
        check_against_oracle(&store, &dataset);
        let report = store
            .compact()
            .unwrap()
            .expect("small batches fragment the layout");
        assert!(report.victims > 0);
        check_against_oracle(&store, &dataset);
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_restart_does_not_change_what_the_next_compaction_does() {
    // A budgeted compaction fails after some slices landed: the last
    // victim's blob does not decode, so its slice fails before writing.
    // With the blob restored, the store retries in process and a copy
    // of its files retries after a restart. No compaction state
    // outlives a call, so both select the same victims — the landed
    // slices' new chunks among them — and end with the same chunk
    // table, the same persisted index and the same answers.
    use rstore::compress::varint;
    use rstore::core::chunk::Chunk;
    use rstore::core::compact::CompactionConfig;
    use rstore::core::online::replay_commits;
    use rstore::core::store::CHUNK_TABLE;
    use rstore::core::CoreError;
    use rstore::kvstore::table_key;
    use std::path::Path;
    let mut spec = DatasetSpec::tiny(9047);
    spec.num_versions = 30;
    spec.root_records = 50;
    let dataset = spec.generate();
    let base = std::env::temp_dir().join(format!("rstore-fullstack-retry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (live_dir, copy) = (base.join("live"), base.join("copy"));
    let make_cluster = |dir: &Path| {
        Cluster::builder()
            .nodes(3)
            .engine(rstore::kvstore::EngineKind::Log { dir: dir.to_path_buf() })
            .build()
    };
    let store = RStore::builder()
        .chunk_capacity(2048)
        .max_subchunk(1)
        .batch_size(3)
        .compaction(CompactionConfig { min_fill: 1.1, max_chunks_per_slice: 4 })
        .build(make_cluster(&live_dir));
    replay_commits(&store, &dataset).unwrap();
    let live = store.live_chunk_ids();
    assert!(live.len() > 8, "several slices of four");
    let key = table_key(CHUNK_TABLE, &live.last().unwrap().to_be_bytes());
    let intact = store.cluster().get(&key).unwrap().unwrap();
    let mut broken = Chunk::deserialize(&intact).unwrap();
    let payload = broken.subchunks[0].payload.to_mut();
    let (_, header) = varint::read_u64(payload).unwrap();
    payload[header] = 0x77;
    store.cluster().put(key.clone(), broken.serialize().into()).unwrap();
    match store.compact() {
        Err(CoreError::Codec(_)) => {}
        other => panic!("expected a decode error, got {:?}", other.map(|r| r.map(|r| r.victims))),
    }
    assert!(store.retired_chunk_count() > 0, "a slice landed before the failure");
    store.cluster().put(key, intact).unwrap();
    // The node logs are flat files, each entry written through before
    // its put returns: a copy of the directory is a restart.
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(&live_dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
    }
    let restarted = RStore::reopen(*store.config(), make_cluster(&copy)).unwrap();
    assert_eq!(restarted.live_chunk_ids(), store.live_chunk_ids());

    let retry = |store: &RStore| {
        let before = store.live_chunk_ids();
        let report = store.compact().unwrap().expect("the retry compacts");
        let after = store.live_chunk_ids();
        let victims: Vec<u32> = before.into_iter().filter(|c| !after.contains(c)).collect();
        assert_eq!(victims.len(), report.victims);
        (victims, report.new_chunks, report.records_moved, report.slices)
    };
    let (in_process, after_restart) = (retry(&store), retry(&restarted));
    assert_eq!(in_process, after_restart, "victims, new chunks, records moved, slices");
    assert_eq!(store.live_chunk_ids(), restarted.live_chunk_ids());
    assert_eq!(store.persisted_index().unwrap(), restarted.persisted_index().unwrap());
    check_against_oracle(&store, &dataset);
    check_against_oracle(&restarted, &dataset);
    for v in dataset.graph.ids() {
        assert_eq!(store.get_version(v).unwrap(), restarted.get_version(v).unwrap(), "{v}");
    }
    drop((store, restarted));
    let _ = std::fs::remove_dir_all(base);
}

#[test]
fn a_restart_before_the_deferred_drain_leaks_no_retired_keys() {
    // A compaction under a pinned reader defers its victims' deletes.
    // The process then goes — plan dropped, no flush, no reclaim — so
    // nothing drained them. The reopened store still owes those
    // deletes: its reclaim pass must remove every victim's blob and
    // base map from every node before it frees the slots.
    use rstore::core::compact::CompactionConfig;
    use rstore::core::online::replay_commits;
    use rstore::core::store::{CHUNK_TABLE, CMAP_TABLE};
    use rstore::kvstore::table_key;
    let dir = std::env::temp_dir().join(format!("rstore-fullstack-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut spec = DatasetSpec::tiny(9031);
    spec.num_versions = 40;
    spec.root_records = 50;
    spec.update_frac = 0.3;
    spec.record_size = 100;
    let dataset = spec.generate();
    const NODES: usize = 3;
    let make_cluster = || {
        Cluster::builder()
            .nodes(NODES)
            .replication(2)
            .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
            .build()
    };

    let (config, victims) = {
        let store = RStore::builder()
            .chunk_capacity(2048)
            .batch_size(3)
            .compaction(CompactionConfig {
                min_fill: 1.1,
                ..CompactionConfig::default()
            })
            .build(make_cluster());
        replay_commits(&store, &dataset).unwrap();
        let live_before = store.live_chunk_ids();
        let plan = store.plan_query(QuerySpec::Version(VersionId(0))).unwrap();
        let report = store.compact().unwrap().expect("small batches fragment the layout");
        assert_eq!(report.keys_deleted, 0, "the pin must defer the deletes");
        assert!(store.reclaim_backlog() > 0);
        let live = store.live_chunk_ids();
        let victims: Vec<u32> = live_before.into_iter().filter(|c| !live.contains(c)).collect();
        assert_eq!(victims.len(), report.victims);
        drop(plan);
        (*store.config(), victims)
    };

    let store = RStore::reopen(config, make_cluster()).unwrap();
    assert_eq!(store.retired_chunk_count(), victims.len());
    let reclaimed = store.reclaim().unwrap();
    for node in 0..NODES {
        for &c in &victims {
            let keys = [CHUNK_TABLE, CMAP_TABLE].map(|table| table_key(table, &c.to_be_bytes()));
            let held = store.cluster().fetch_from(node, keys.to_vec()).unwrap().values;
            assert_eq!(held, [None, None], "node {node} still holds retired chunk {c}'s keys");
        }
    }
    assert_eq!(reclaimed.deferred_drained, victims.len());
    assert_eq!((store.reclaim_backlog(), store.retired_chunk_count()), (0, 0));
    check_against_oracle(&store, &dataset);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn acknowledged_commits_survive_a_restart_without_a_flush() {
    // The delta store is what makes a commit durable before its flush:
    // three commits, no flush, the process gone — the reopened store
    // holds all three as pending, answers like a twin that never
    // restarted, and the flush that places them empties the table.
    use rstore::core::online::commit_request;
    use rstore::core::store::DELTA_TABLE;
    use rstore::kvstore::table_key;
    let dir = std::env::temp_dir().join(format!("rstore-fullstack-deltas-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut spec = DatasetSpec::tiny(9023);
    spec.num_versions = 3;
    spec.root_records = 30;
    let dataset = spec.generate();
    let make_cluster = || {
        Cluster::builder()
            .nodes(3)
            .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
            .build()
    };
    let builder = RStore::builder().chunk_capacity(1024).batch_size(64);
    let twin = builder.clone().build(Cluster::builder().nodes(3).build());
    let config = {
        let store = builder.build(make_cluster());
        for v in dataset.graph.ids() {
            assert_eq!(twin.commit(commit_request(&dataset, v)).unwrap(), v);
            assert_eq!(store.commit(commit_request(&dataset, v)).unwrap(), v);
        }
        assert_eq!(store.pending_commits(), 3);
        *store.config()
    };

    let store = RStore::reopen(config, make_cluster()).unwrap();
    assert_eq!(store.version_count(), 3);
    assert_eq!(store.pending_commits(), 3);
    let oracle = dataset.materialize(&dataset.record_store());
    for v in dataset.graph.ids() {
        assert_eq!(store.version_record_count(v).unwrap(), oracle.contents(v).len());
        assert_eq!(store.get_version(v).unwrap(), twin.get_version(v).unwrap(), "{v} before the seal");
    }
    assert_eq!(store.seal().unwrap().versions, 3);
    twin.seal().unwrap();
    check_against_oracle(&store, &dataset);
    for v in dataset.graph.ids() {
        assert_eq!(store.get_version(v).unwrap(), twin.get_version(v).unwrap(), "{v} after the seal");
        let key = table_key(DELTA_TABLE, &v.as_u32().to_be_bytes());
        assert_eq!(store.cluster().get(&key).unwrap(), None, "the delta of {v} outlived its flush");
    }
    // And the flushed store restarts to the same answers, nothing pending.
    drop(store);
    let store = RStore::reopen(config, make_cluster()).unwrap();
    assert_eq!((store.version_count(), store.pending_commits()), (3, 0));
    check_against_oracle(&store, &dataset);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_chunk_map_that_gives_a_version_one_key_twice_fails_the_restart() {
    // A restart builds each version's contents from its parent's and
    // the chunk-map differences between the two. V1 updates K0; then
    // V1's entry in the base map of the chunk holding V0's copy of K0
    // is rewritten to keep that copy too, so by its maps V1 holds K0
    // twice. The restart must refuse the store, not keep either copy.
    use rstore::core::chunk::Chunk;
    use rstore::core::chunkmap::ChunkMap;
    use rstore::core::store::{CHUNK_TABLE, CMAP_TABLE};
    use rstore::core::CoreError;
    use rstore::kvstore::table_key;
    let dir = std::env::temp_dir().join(format!("rstore-fullstack-twice-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let make_cluster = || {
        Cluster::builder()
            .nodes(2)
            .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
            .build()
    };
    let (v0, v1) = (VersionId(0), VersionId(1));
    let key = |table: &str, c: u32| table_key(table, &c.to_be_bytes());

    let config = {
        let store = RStore::builder().chunk_capacity(4096).build(make_cluster());
        store.commit(CommitRequest::root((0u64..20).map(|pk| (pk, vec![pk as u8; 40])))).unwrap();
        store.commit(CommitRequest::child_of(v0).put(0, vec![0xAA; 40])).unwrap();
        store.seal().unwrap();
        let (c, local) = store
            .live_chunk_ids()
            .into_iter()
            .find_map(|c| {
                let chunk = Chunk::deserialize(&store.cluster().get(&key(CHUNK_TABLE, c)).unwrap()?).unwrap();
                let local = chunk.local_keys().iter().position(|ck| (ck.pk, ck.origin) == (0, v0))?;
                Some((c, local))
            })
            .expect("V0's copy of K0 is stored");
        let stored = store.cluster().get(&key(CMAP_TABLE, c)).unwrap().expect("a base map");
        let stored = ChunkMap::deserialize(&stored).unwrap();
        assert!(stored.members_of(v1).is_some(), "V1 keeps V0's other records in the chunk");
        let mut twice = ChunkMap::new(stored.num_records());
        for (v, members) in stored.iter() {
            let mut members = members.clone();
            if v == v1 {
                assert!(!members.get(local));
                members.set(local);
            }
            twice.push_bitmap(v, members);
        }
        store.cluster().put(key(CMAP_TABLE, c), twice.serialize().into()).unwrap();
        *store.config()
    };

    match RStore::reopen(config, make_cluster()) {
        Err(CoreError::Codec(msg)) => assert!(msg.contains("V1 holds K0 twice"), "{msg}"),
        Err(e) => panic!("expected a codec error, got {e}"),
        Ok(_) => panic!("the restart served V1 holding K0 twice"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_record_that_frees_a_live_chunk_fails_the_restart() {
    // A record may retire a live chunk; only a later reclamation frees
    // it, and only a free or fresh slot takes a new chunk. One record
    // appended past a bulk load breaks that: it frees a live chunk,
    // creates a chunk over one, or truncates a live slot. The restart
    // must refuse each, not serve the versions with records missing.
    use rstore::core::{CoreError, GenerationRecord};
    let dir = std::env::temp_dir().join(format!("rstore-fullstack-freed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let make_cluster = || {
        Cluster::builder()
            .nodes(2)
            .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
            .build()
    };
    let dataset = DatasetSpec::tiny(9031).generate();
    let (config, loaded, next) = {
        let store = RStore::builder().chunk_capacity(1024).build(make_cluster());
        store.load_dataset(&dataset).unwrap();
        let (log, next) = store.commit_log_keys();
        let last = store.cluster().get(log.last().expect("the load's record")).unwrap().unwrap();
        (*store.config(), GenerationRecord::decode(&last).unwrap(), next)
    };
    let live = loaded.new_chunks[0];
    let slots = loaded.chunk_slots;
    assert!(slots > 1);
    let edit = GenerationRecord { seq: loaded.seq + 1, chunk_slots: slots, ..GenerationRecord::default() };
    let bad = [
        ("frees", GenerationRecord { freed: vec![live.id], ..edit.clone() }),
        ("creates over", GenerationRecord { new_chunks: vec![live], ..edit.clone() }),
        ("truncates", GenerationRecord { chunk_slots: slots - 1, ..edit }),
    ];
    for (what, record) in bad {
        make_cluster().put(next.clone(), record.encode().into()).unwrap();
        match RStore::reopen(config, make_cluster()) {
            Err(CoreError::Codec(msg)) => assert!(msg.contains("a live chunk"), "{what}: {msg}"),
            Err(e) => panic!("{what}: expected a codec error, got {e}"),
            Ok(store) => panic!(
                "a record that {what} a live chunk replayed; V0 serves {} records",
                store.get_version(VersionId(0)).unwrap().len()
            ),
        }
    }
    make_cluster().delete(&next).unwrap();
    check_against_oracle(&RStore::reopen(config, make_cluster()).unwrap(), &dataset);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_restart_plans_like_the_store_it_replaced() {
    // No record logs the projections: a commit derives them from its
    // generation's map entries and placed records, a restart from every
    // live chunk's map and keys. Across flushes, a compaction, a
    // reclamation and flushes after them — a log that holds a
    // checkpoint and records past it — the two derivations must plan
    // every version and every key's evolution onto the same chunks.
    use rstore::core::compact::CompactionConfig;
    use rstore::core::online::commit_request;
    let dir = std::env::temp_dir().join(format!("rstore-fullstack-plans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let make_cluster = || {
        Cluster::builder()
            .nodes(3)
            .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
            .build()
    };
    let mut spec = DatasetSpec::tiny(9041);
    spec.num_versions = 40;
    spec.root_records = 40;
    let dataset = spec.generate();
    let mut keys: Vec<u64> = dataset.record_store().keys().iter().map(|ck| ck.pk).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.push(keys.iter().max().unwrap() + 1);
    let plans = |store: &RStore| {
        let chunks = |spec| store.plan_query(spec).unwrap().chunk_ids().to_vec();
        let versions: Vec<_> = dataset.graph.ids().map(|v| chunks(QuerySpec::Version(v))).collect();
        let keys: Vec<_> = keys.iter().map(|&pk| chunks(QuerySpec::Evolution { pk })).collect();
        (versions, keys, store.index_bytes())
    };

    let (config, before) = {
        let store = RStore::builder()
            .chunk_capacity(1024)
            .batch_size(4)
            .compaction(CompactionConfig { min_fill: 1.1, ..CompactionConfig::default() })
            .build(make_cluster());
        let half = dataset.graph.len() / 2;
        for v in dataset.graph.ids() {
            if v.index() == half {
                store.seal().unwrap();
                store.compact().unwrap().expect("small batches fragment the layout");
                assert!(store.reclaim().unwrap().slots_reclaimed > 0);
            }
            store.commit(commit_request(&dataset, v)).unwrap();
        }
        store.seal().unwrap();
        let (log, _) = store.commit_log_keys();
        assert!(String::from_utf8_lossy(&log[0]).ends_with("checkpoint"), "a checkpoint");
        assert!(log.len() > 1, "records past the checkpoint");
        check_against_oracle(&store, &dataset);
        (*store.config(), plans(&store))
    };
    let store = RStore::reopen(config, make_cluster()).unwrap();
    check_against_oracle(&store, &dataset);
    let after = plans(&store);
    assert_eq!(after.0, before.0, "version plans");
    assert_eq!(after.1, before.1, "evolution plans");
    assert_eq!(after.2, before.2, "index bytes");
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_flush_costs_its_delta_however_long_the_history() {
    // The ledger has no scale axis yet, so this stands in for it: a
    // 320-version chain replayed with a flush every 8 commits. Each
    // version rewrites a sliding 8 of 256 keys, so a version's span —
    // the chunk maps a flush appends to — is in steady state after four
    // flushes, and what a flush writes besides its chunk blobs (base
    // maps, its commit record, the checkpoints falling in the window)
    // and the pairs it puts must not grow with the 40 flushes of
    // history behind it. At the parent commit every flush rewrote every
    // dirty map and the whole index: ~linear growth, this fails there.
    const VERSIONS: u64 = 320;
    const FLUSH_EVERY: u64 = 8;
    use rstore::core::store::CHUNK_TABLE;
    use rstore::kvstore::table_key;
    let store = RStore::builder()
        .chunk_capacity(1024)
        .cache_budget(0)
        .batch_size(usize::MAX)
        .build(Cluster::builder().nodes(3).replication(1).build());
    let payload = |v: u64, pk: u64| -> Vec<u8> {
        (0..64u64).map(|i| ((v * 31 + pk) * 0x9E37_79B9 + i * i * 7).to_le_bytes()[1]).collect()
    };
    // Per flush: bytes written that are not chunk blobs, pairs put.
    let mut per_flush: Vec<(f64, f64)> = Vec::new();
    let mut head = None;
    for v in 0..VERSIONS {
        let mut req = match head {
            None => CommitRequest::root((0..256u64).map(|pk| (pk, payload(0, pk))).collect::<Vec<_>>()),
            Some(parent) => CommitRequest::child_of(parent),
        };
        if head.is_some() {
            for i in 0..8 {
                let pk = (v * 8 + i) % 256;
                req = req.put(pk, payload(v, pk));
            }
        }
        head = Some(store.commit(req).unwrap());
        if (v + 1) % FLUSH_EVERY == 0 {
            let slots = store.chunk_slot_count() as u32;
            let before = store.cluster().stats();
            let report = store.flush_batch().unwrap();
            let spent = store.cluster().stats().since(&before);
            assert_eq!(report.versions as u64, FLUSH_EVERY);
            assert!(report.record_bytes > 0);
            // No compaction runs, so the flush's chunks are the new slots.
            let blobs: u64 = (slots..store.chunk_slot_count() as u32)
                .map(|c| {
                    let key = table_key(CHUNK_TABLE, &c.to_be_bytes());
                    let blob = store.cluster().get(&key).unwrap().expect("a flushed chunk");
                    (key.len() + blob.len()) as u64
                })
                .sum();
            per_flush.push(((spent.bytes_written - blobs) as f64, spent.puts as f64));
        }
    }
    let quarter = per_flush.len() / 4;
    assert_eq!(quarter, 10);
    let mean = |window: &[(f64, f64)]| {
        let n = window.len() as f64;
        let (bytes, pairs) = window.iter().fold((0.0, 0.0), |(b, p), w| (b + w.0, p + w.1));
        (bytes / n, pairs / n)
    };
    let (first, last) = (mean(&per_flush[..quarter]), mean(&per_flush[per_flush.len() - quarter..]));
    assert!(
        last.0 <= 1.5 * first.0 && last.1 <= 1.5 * first.1,
        "a flush's overhead grew with history: {first:?} (bytes, pairs) per flush over the first \
         quarter, {last:?} over the last; per flush {per_flush:?}"
    );
    // Checkpoints did run — their bytes and pairs are in the windows.
    let stats = store.stats_snapshot();
    assert!(stats.records_since_checkpoint < per_flush.len() as u64, "no checkpoint ever ran");
}

/// A Prometheus text scrape as `series (labels included) → value`.
fn prom_values(text: &str) -> std::collections::HashMap<String, f64> {
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.is_empty())
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            (series.to_string(), value.parse().expect("sample value"))
        })
        .collect()
}

/// `StoreStats::to_json` output — nested objects of numbers — as
/// `dotted.path → value`.
fn json_values(text: &str) -> std::collections::HashMap<String, f64> {
    fn object(
        s: &mut std::iter::Peekable<std::str::Chars>,
        path: &str,
        out: &mut std::collections::HashMap<String, f64>,
    ) {
        assert_eq!(s.next(), Some('{'));
        while s.peek() != Some(&'}') {
            assert_eq!(s.next(), Some('"'));
            let key: String = s.by_ref().take_while(|&c| c != '"').collect();
            assert_eq!(s.next(), Some(':'));
            let path = if path.is_empty() { key } else { format!("{path}.{key}") };
            if s.peek() == Some(&'{') {
                object(s, &path, out);
            } else {
                let mut number = String::new();
                while let Some(c) = s.next_if(|&c| c != ',' && c != '}') {
                    number.push(c);
                }
                out.insert(path, number.parse().expect("JSON number"));
            }
            s.next_if_eq(&',');
        }
        s.next();
    }
    let mut out = std::collections::HashMap::new();
    object(&mut text.chars().peekable(), "", &mut out);
    out
}

#[test]
fn every_entry_point_is_counted_once_and_the_expositions_agree() {
    use rstore::core::obs::{MetricKind, METRICS};
    use std::time::Duration;

    let mut spec = DatasetSpec::tiny(9022);
    spec.num_versions = 20;
    spec.root_records = 60;
    let dataset = spec.generate();
    // Cache off, replication 1: every chunk a query spans is read from
    // the backend exactly once, so the store's and the cluster's byte
    // counters must move together.
    let store = RStore::builder()
        .chunk_capacity(1024)
        .cache_budget(0)
        .build(Cluster::builder().nodes(3).build());
    store.load_dataset(&dataset).unwrap();

    // The same version read through each way into the executor — the
    // materializing call, the three-stage pipeline the benchmark and
    // compaction drive, the streaming call and the deadline variant.
    let before = prom_values(&store.metrics_text());
    let mut queries = 0.0;
    for v in (0..dataset.graph.len() as u32).step_by(4).map(VersionId) {
        let spec = QuerySpec::Version(v);
        let expect = store.get_version(v).unwrap().len();
        let staged = store.execute(store.plan_query(spec).unwrap()).unwrap();
        assert_eq!(staged.into_stream().drain().unwrap().len(), expect);
        assert_eq!(store.stream_query(spec).unwrap().count(), expect);
        let bounded = store
            .execute_with_deadline(store.plan_query(spec).unwrap(), Some(Duration::from_secs(3600)))
            .unwrap();
        assert_eq!(bounded.into_stream().drain().unwrap().len(), expect);
        queries += 4.0;
    }
    let after = prom_values(&store.metrics_text());
    let rise = |series: &str| after[series] - before[series];
    assert_eq!(rise("rstore_query_total"), queries);
    assert_eq!(rise("rstore_query_modeled_seconds_count"), queries);
    assert_eq!(rise("rstore_serve_admitted_total"), queries);
    assert!(rise("rstore_fetch_bytes_total") > 0.0);
    assert_eq!(rise("rstore_fetch_bytes_total"), rise("rstore_cluster_bytes_read_total"));
    // Only the materializing call reaches the extract stage's timer.
    assert_eq!(rise("rstore_query_wall_seconds_count"), queries / 4.0);

    // One sample, rendered twice while queries keep running: every
    // fact carries the same value in both expositions.
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                store.get_version(VersionId(0)).unwrap();
            }
        });
        let sample = store.stats_snapshot();
        let (prom, json) = (prom_values(&sample.to_prometheus()), json_values(&sample.to_json()));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let (mut compared, mut histograms) = (0, 0);
        for m in METRICS {
            // A histogram's shared fact is its sample count.
            let (suffix, leaf) = match m.kind {
                MetricKind::Histogram => ("_count", ".count"),
                _ => ("", ""),
            };
            let series = format!("{}{suffix}", m.name);
            for (name, value) in &prom {
                // `name` or `name{dim="label"}`; a family's JSON object
                // is keyed by the label.
                let label = match name.strip_prefix(series.as_str()) {
                    Some("") => String::new(),
                    Some(labels) if labels.starts_with('{') => {
                        format!(".{}", labels.split('"').nth(1).unwrap())
                    }
                    _ => continue,
                };
                let path = format!("{}{label}{leaf}", m.json);
                assert_eq!(json.get(&path), Some(value), "{name} vs {path}");
                compared += 1;
                histograms += usize::from(m.kind == MetricKind::Histogram);
            }
        }
        assert!(compared >= METRICS.len(), "only {compared} facts compared");
        // Nothing is in the JSON alone: beside the shared count, only
        // each histogram's mean and two quantiles.
        assert_eq!(json.len(), compared + 3 * histograms);
    });

    // Quiet again: every `{node="…"}` row renders one series per node,
    // each equal to that node's field in the one per-node cluster call.
    let sample = store.stats_snapshot();
    let nodes = store.cluster().node_stats();
    assert_eq!(sample.nodes, nodes);
    assert!(nodes.iter().map(|n| n.batches).sum::<u64>() > 0, "no batch was scored");
    let prom = prom_values(&sample.to_prometheus());
    type Field = fn(&rstore::kvstore::NodeStats) -> f64;
    let fields: [(&str, Field); 8] = [
        ("rstore_node_batch_reads_total", |n| n.batch_gets as f64),
        ("rstore_node_keys_served_total", |n| n.keys_served as f64),
        ("rstore_node_modeled_seconds_total", |n| n.modeled.as_secs_f64()),
        ("rstore_node_batches_total", |n| n.batches as f64),
        ("rstore_node_failures_total", |n| n.failures as f64),
        ("rstore_node_service_ewma_seconds", |n| n.ewma_service.as_secs_f64()),
        ("rstore_node_error_rate", |n| n.error_rate),
        ("rstore_node_service_seconds_count", |n| n.service.count() as f64),
    ];
    let node_rows = METRICS.iter().filter(|m| m.name.starts_with("rstore_node_")).count();
    assert_eq!(node_rows, fields.len(), "a per-node row this test does not check");
    for (series, field) in fields {
        let rendered = prom.keys().filter(|k| k.starts_with(&format!("{series}{{"))).count();
        assert_eq!(rendered, nodes.len(), "{series}");
        for n in &nodes {
            let value = prom[&format!("{series}{{node=\"{}\"}}", n.node)];
            assert_eq!(value, field(n), "{series} of node {}", n.node);
        }
    }
}

#[test]
fn a_new_store_refuses_a_backend_that_holds_one() {
    use rstore::core::CoreError;

    let dir = std::env::temp_dir()
        .join(format!("rstore-fullstack-recreate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = |nodes: usize| {
        Cluster::builder()
            .nodes(nodes)
            .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
            .build()
    };
    let config = {
        let store = RStore::builder().build(cluster(2));
        let root = CommitRequest::root([(0u64, b"alpha".to_vec()), (1, b"beta".to_vec())]);
        let v0 = store.commit(root).unwrap();
        store.commit(CommitRequest::child_of(v0).put(1, b"gamma".to_vec())).unwrap();
        store.seal().unwrap();
        *store.config()
    };
    let logs = || -> Vec<u64> {
        (0..2)
            .map(|i| std::fs::metadata(dir.join(format!("node-{i}.log"))).unwrap().len())
            .collect()
    };
    let before = logs();

    // A new store over it refuses both ways of creating a root, and
    // writes nothing — also on a cluster of another node count, whose
    // ring places the store's keys elsewhere than the store did.
    for nodes in [2, 1, 3, 4, 5] {
        let store = RStore::builder().build(cluster(nodes));
        let root = store.commit(CommitRequest::root([(0u64, b"omega".to_vec())]));
        assert!(matches!(root, Err(CoreError::BadCommit(_))), "{nodes} nodes: {root:?}");
        let mut spec = DatasetSpec::tiny(9031);
        spec.num_versions = 4;
        let load = store.load_dataset(&spec.generate());
        assert!(matches!(load, Err(CoreError::BadCommit(_))), "{nodes} nodes: {load:?}");
        assert_eq!(store.version_count(), 0);
        drop(store);
        assert_eq!(logs(), before, "{nodes} nodes: a refused create wrote to the node logs");
    }

    // The store it refused is whole.
    let store = RStore::reopen(config, cluster(2)).unwrap();
    assert_eq!(store.version_count(), 2);
    let payloads = |v: u32| -> Vec<Vec<u8>> {
        store.get_version(VersionId(v)).unwrap().iter().map(|r| r.payload.to_vec()).collect()
    };
    assert_eq!(payloads(0), [b"alpha".to_vec(), b"beta".to_vec()]);
    assert_eq!(payloads(1), [b"alpha".to_vec(), b"gamma".to_vec()]);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_replicated_store_reopens_after_an_outage_whose_hints_died() {
    // Two nodes at replication 2; one of them is down for the second
    // half of the history, so every write of that half reached one
    // replica and left a hint for the other. The process dies with the
    // hints in memory: the lagging replica never gets them, and the
    // restart must read past its misses to the copy that has them, and
    // past its older checkpoint to the newest.
    use rstore::core::online::commit_request;
    for down in 0..2 {
        for seed in 1..=12 {
            let dir = std::env::temp_dir()
                .join(format!("rstore-fullstack-outage-{}-{down}-{seed}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let make_cluster = || {
                Cluster::builder()
                    .nodes(2)
                    .replication(2)
                    .engine(rstore::kvstore::EngineKind::Log { dir: dir.clone() })
                    .build()
            };
            let mut spec = DatasetSpec::tiny(seed);
            spec.num_versions = 24;
            spec.root_records = 40;
            let dataset = spec.generate();
            let config = {
                let store = RStore::builder().chunk_capacity(1024).batch_size(4).build(make_cluster());
                for v in dataset.graph.ids() {
                    if v.index() == 12 {
                        store.seal().unwrap();
                        store.cluster().set_node_down(down, true);
                    }
                    store.commit(commit_request(&dataset, v)).unwrap();
                }
                store.seal().unwrap();
                assert!(store.cluster().pending_hints() > 0, "node {down} missed no write");
                *store.config()
            };
            let store = RStore::reopen(config, make_cluster())
                .unwrap_or_else(|e| panic!("seed {seed}, node {down} down: {e}"));
            assert_eq!(store.version_count(), 24, "seed {seed}, node {down} down");
            check_against_oracle(&store, &dataset);
            drop(store);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
