//! Online ingest (§4) and application-server behaviour.

use rstore_core::model::VersionId;
use rstore_core::online;
use rstore_core::partition::PartitionerKind;
use rstore_core::server::{ApplicationServer, Changes, MASTER};
use rstore_core::store::{CommitRequest, RStore};
use rstore_kvstore::Cluster;
use rstore_vgraph::DatasetSpec;

fn fresh_store(batch_size: usize) -> RStore {
    let cluster = Cluster::builder().nodes(2).build();
    RStore::builder()
        .chunk_capacity(2048)
        .partitioner(PartitionerKind::BottomUp { beta: usize::MAX })
        .batch_size(batch_size)
        .build(cluster)
}

#[test]
fn manual_commits_roundtrip() {
    let store = fresh_store(2);
    let v0 = store
        .commit(CommitRequest::root([
            (0u64, b"alpha".to_vec()),
            (1u64, b"beta".to_vec()),
        ]))
        .unwrap();
    let v1 = store
        .commit(
            CommitRequest::child_of(v0)
                .update(1, b"beta-2".to_vec())
                .insert(2, b"gamma".to_vec()),
        )
        .unwrap();
    let v2 = store
        .commit(CommitRequest::child_of(v1).delete(0))
        .unwrap();
    store.seal().unwrap();

    let r0 = store.get_version(v0).unwrap();
    assert_eq!(r0.len(), 2);
    assert_eq!(r0[1].payload, b"beta");

    let r1 = store.get_version(v1).unwrap();
    assert_eq!(r1.len(), 3);
    assert_eq!(r1[1].payload, b"beta-2");
    assert_eq!(r1[1].origin, v1);
    assert_eq!(r1[0].origin, v0, "unchanged record keeps its origin");

    let r2 = store.get_version(v2).unwrap();
    assert_eq!(r2.len(), 2);
    assert!(r2.iter().all(|r| r.pk != 0));

    // Point query resolves the origin indirection (paper Example 2).
    let rec = store.get_record(1, v2).unwrap().unwrap();
    assert_eq!(rec.origin, v1);
    assert_eq!(rec.payload, b"beta-2");

    // Evolution of key 1: two distinct records.
    let evo = store.get_evolution(1).unwrap();
    assert_eq!(evo.len(), 2);
}

#[test]
fn bad_commits_are_rejected_and_leave_store_intact() {
    let store = fresh_store(10);
    let v0 = store
        .commit(CommitRequest::root([(0u64, b"x".to_vec())]))
        .unwrap();
    let before = store.version_count();

    // Duplicate put.
    assert!(store
        .commit(
            CommitRequest::child_of(v0)
                .put(1, b"a".to_vec())
                .put(1, b"b".to_vec())
        )
        .is_err());
    // Delete of a missing key.
    assert!(store.commit(CommitRequest::child_of(v0).delete(77)).is_err());
    // Unknown parent.
    assert!(store
        .commit(CommitRequest::child_of(VersionId(123)).put(5, b"x".to_vec()))
        .is_err());
    // Second root.
    assert!(store.commit(CommitRequest::root([(9u64, b"y".to_vec())])).is_err());

    assert_eq!(store.version_count(), before, "failed commits must not add versions");
    // The store still works.
    let v1 = store
        .commit(CommitRequest::child_of(v0).put(1, b"ok".to_vec()))
        .unwrap();
    store.seal().unwrap();
    assert_eq!(store.get_version(v1).unwrap().len(), 2);
}

#[test]
fn online_replay_matches_offline_load() {
    let mut spec = DatasetSpec::tiny(77);
    spec.num_versions = 30;
    spec.root_records = 40;
    let ds = spec.generate();

    let online_store = fresh_store(5);
    online::replay_commits(&online_store, &ds).unwrap();

    let offline_store = fresh_store(64);
    offline_store.load_dataset(&ds).unwrap();

    assert!(online::stores_agree(&online_store, &offline_store).unwrap());
}

#[test]
fn online_replay_with_batch_one() {
    let mut spec = DatasetSpec::tiny_chain(78);
    spec.num_versions = 12;
    spec.root_records = 20;
    let ds = spec.generate();
    let store = fresh_store(1);
    online::replay_commits(&store, &ds).unwrap();
    assert_eq!(store.version_count(), 12);
    let last = store.get_version(VersionId(11)).unwrap();
    assert!(!last.is_empty());
}

#[test]
fn truncate_dataset_prefix_is_consistent() {
    let ds = DatasetSpec::tiny(80).generate();
    let prefix = online::truncate_dataset(&ds, 10);
    assert_eq!(prefix.graph.len(), 10);
    assert_eq!(prefix.deltas.len(), 10);
    // Materializes without panicking = parents all inside the prefix.
    let store = prefix.record_store();
    prefix.materialize(&store);
}

#[test]
fn server_init_commit_pull_cycle() {
    let server_store = fresh_store(2);
    let mut server = ApplicationServer::init(
        server_store,
        [(0u64, b"{\"name\":\"ada\"}".to_vec()), (1u64, b"{\"name\":\"grace\"}".to_vec())],
    )
    .unwrap();

    assert_eq!(server.branches(), vec![MASTER]);
    let head0 = server.head(MASTER).unwrap();

    let v1 = server
        .commit(MASTER, Changes::new().put(2, b"{\"name\":\"edsger\"}".to_vec()))
        .unwrap();
    assert_eq!(server.head(MASTER).unwrap(), v1);

    let records = server.pull(MASTER).unwrap();
    assert_eq!(records.len(), 3);

    let old = server.pull_version(head0).unwrap();
    assert_eq!(old.len(), 2);

    let log = server.log(MASTER).unwrap();
    assert_eq!(log, vec![head0, v1]);
}

#[test]
fn server_branching_and_merge() {
    let mut server = ApplicationServer::init(
        fresh_store(2),
        (0u64..6).map(|pk| (pk, format!("rec-{pk}").into_bytes())),
    )
    .unwrap();
    let root = server.head(MASTER).unwrap();

    server.create_branch("experiment", root).unwrap();
    let e1 = server
        .commit("experiment", Changes::new().put(0, b"exp-change".to_vec()))
        .unwrap();
    let m1 = server
        .commit(MASTER, Changes::new().put(1, b"master-change".to_vec()))
        .unwrap();

    // The branches diverge.
    let exp = server.pull("experiment").unwrap();
    assert_eq!(exp.iter().find(|r| r.pk == 0).unwrap().payload, b"exp-change");
    assert_eq!(exp.iter().find(|r| r.pk == 1).unwrap().payload, b"rec-1");
    let mas = server.pull(MASTER).unwrap();
    assert_eq!(mas.iter().find(|r| r.pk == 0).unwrap().payload, b"rec-0");

    // Merge experiment into master, carrying its change.
    let merged = server
        .merge(MASTER, "experiment", Changes::new().put(0, b"exp-change".to_vec()))
        .unwrap();
    assert_eq!(server.head(MASTER).unwrap(), merged);
    let after = server.pull(MASTER).unwrap();
    assert_eq!(after.iter().find(|r| r.pk == 0).unwrap().payload, b"exp-change");
    assert_eq!(
        after.iter().find(|r| r.pk == 1).unwrap().payload,
        b"master-change"
    );
    // The merge node records both parents in the version graph.
    let graph = server.store().graph();
    let node = graph.node(merged);
    assert_eq!(node.parents, vec![m1, e1]);
}

#[test]
fn server_partial_pull_and_point_get() {
    let server = ApplicationServer::init(
        fresh_store(4),
        (0u64..20).map(|pk| (pk, format!("v{pk}").into_bytes())),
    )
    .unwrap();
    let range = server.pull_range(MASTER, 5, 9).unwrap();
    assert_eq!(range.len(), 5);
    assert!(range.iter().all(|r| (5..=9).contains(&r.pk)));

    let rec = server.get(MASTER, 7).unwrap().unwrap();
    assert_eq!(rec.payload, b"v7");
    assert!(server.get(MASTER, 99).unwrap().is_none());
}

#[test]
fn server_evolution_across_branches() {
    let mut server =
        ApplicationServer::init(fresh_store(2), [(0u64, b"base".to_vec())]).unwrap();
    let root = server.head(MASTER).unwrap();
    server.create_branch("b1", root).unwrap();
    server
        .commit(MASTER, Changes::new().put(0, b"on-master".to_vec()))
        .unwrap();
    server
        .commit("b1", Changes::new().put(0, b"on-b1".to_vec()))
        .unwrap();
    let evo = server.evolution(0).unwrap();
    // Three distinct records across both branches.
    assert_eq!(evo.len(), 3);
}

#[test]
fn server_errors() {
    let mut server =
        ApplicationServer::init(fresh_store(2), [(0u64, b"x".to_vec())]).unwrap();
    assert!(server.head("nope").is_err());
    assert!(server.pull("nope").is_err());
    assert!(server.create_branch(MASTER, VersionId(0)).is_err());
    assert!(server.create_branch("b", VersionId(99)).is_err());
}

#[test]
fn server_attach_to_loaded_store() {
    let mut spec = DatasetSpec::tiny(81);
    spec.num_versions = 15;
    let ds = spec.generate();
    let store = fresh_store(8);
    store.load_dataset(&ds).unwrap();
    let leaves = ds.graph.leaves();
    let server = ApplicationServer::attach(store);
    assert!(server.branches().len() >= leaves.len());
    let head = server.head(MASTER).unwrap();
    assert_eq!(head, VersionId(14));
    assert!(!server.pull(MASTER).unwrap().is_empty());
}
