//! Failure-injection tests: missing chunks, corrupted backend values,
//! and unreplicated node loss must surface as clean errors, never
//! panics or wrong answers.

use bytes::Bytes;
use rstore_core::model::VersionId;
use rstore_core::store::{RStore, StoreConfig, CHUNK_TABLE, CMAP_TABLE};
use rstore_core::CoreError;
use rstore_kvstore::{table_key, Cluster, EngineKind};
use rstore_vgraph::DatasetSpec;

fn loaded_store() -> (RStore, rstore_vgraph::Dataset) {
    let mut spec = DatasetSpec::tiny(555);
    spec.num_versions = 20;
    spec.root_records = 30;
    let ds = spec.generate();
    let cluster = Cluster::builder().nodes(2).build();
    let store = RStore::builder().chunk_capacity(1024).build(cluster);
    store.load_dataset(&ds).unwrap();
    (store, ds)
}

#[test]
fn deleted_chunk_surfaces_missing_chunk_error() {
    let (store, _) = loaded_store();
    // Remove chunk 0 behind the store's back.
    store
        .cluster()
        .delete(&table_key(CHUNK_TABLE, &0u32.to_be_bytes()))
        .unwrap();
    // Some version references chunk 0; its retrieval must error.
    let mut saw_missing = false;
    for v in 0..store.version_count() {
        match store.get_version(VersionId(v as u32)) {
            Ok(_) => {}
            Err(CoreError::MissingChunk(0)) => saw_missing = true,
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }
    assert!(saw_missing, "no query touched the deleted chunk");
}

#[test]
fn corrupt_chunk_bytes_surface_codec_error() {
    let (store, _) = loaded_store();
    store
        .cluster()
        .put(
            table_key(CHUNK_TABLE, &0u32.to_be_bytes()),
            Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef]),
        )
        .unwrap();
    let mut saw_codec = false;
    for v in 0..store.version_count() {
        match store.get_version(VersionId(v as u32)) {
            Ok(_) => {}
            Err(CoreError::Codec(_)) => saw_codec = true,
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }
    assert!(saw_codec, "corruption went unnoticed");
}

/// The stored chunk maps are read once, at reopen: a running store
/// answers from the maps its snapshots publish, so damage to a stored
/// map is invisible to it — and must fail the restart that would
/// otherwise trust it, cleanly.
#[test]
fn corrupt_chunk_map_surfaces_codec_error() {
    let dir = std::env::temp_dir().join(format!("rstore-corrupt-cmap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let make_cluster = || {
        Cluster::builder()
            .nodes(2)
            .engine(EngineKind::Log { dir: dir.clone() })
            .build()
    };
    let mut spec = DatasetSpec::tiny(555);
    spec.num_versions = 20;
    spec.root_records = 30;
    let ds = spec.generate();
    let map_key = table_key(CMAP_TABLE, &1u32.to_be_bytes());
    let reopen = || RStore::reopen(StoreConfig::default(), make_cluster());

    {
        let store = RStore::builder().chunk_capacity(1024).build(make_cluster());
        store.load_dataset(&ds).unwrap();
        let before: Vec<_> = (0..store.version_count())
            .map(|v| store.get_version(VersionId(v as u32)).unwrap())
            .collect();
        store
            .cluster()
            .put(map_key.clone(), Bytes::from_static(b"garbage"))
            .unwrap();
        for (v, records) in before.iter().enumerate() {
            assert_eq!(&store.get_version(VersionId(v as u32)).unwrap(), records);
        }
    }
    match reopen() {
        Err(CoreError::Codec(_)) => {}
        Err(other) => panic!("expected a codec error, got {other:?}"),
        Ok(_) => panic!("reopen trusted a damaged chunk map"),
    }

    // A live chunk whose stored map is gone is a missing chunk.
    make_cluster().delete(&map_key).unwrap();
    match reopen() {
        Err(CoreError::MissingChunk(1)) => {}
        Err(other) => panic!("expected MissingChunk(1), got {other:?}"),
        Ok(_) => panic!("reopen invented a chunk map"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn unreplicated_node_loss_is_an_error_not_a_wrong_answer() {
    let mut spec = DatasetSpec::tiny(556);
    spec.num_versions = 15;
    spec.root_records = 30;
    let ds = spec.generate();
    let cluster = Cluster::builder().nodes(3).replication(1).build();
    let store = RStore::builder().chunk_capacity(1024).build(cluster);
    store.load_dataset(&ds).unwrap();

    store.cluster().set_node_down(1, true);
    let record_store = ds.record_store();
    let oracle = ds.materialize(&record_store);
    let mut errors = 0usize;
    for v in 0..store.version_count() {
        let v = VersionId(v as u32);
        match store.get_version(v) {
            // Whatever succeeds must still be exactly right.
            Ok(records) => assert_eq!(records.len(), oracle.contents(v).len()),
            Err(CoreError::Kv(_)) => errors += 1,
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }
    assert!(errors > 0, "losing a third of an unreplicated cluster must hurt");

    // Recovery: bring the node back, everything works again.
    store.cluster().set_node_down(1, false);
    for v in 0..store.version_count() {
        let v = VersionId(v as u32);
        assert_eq!(
            store.get_version(v).unwrap().len(),
            oracle.contents(v).len()
        );
    }
}

#[test]
fn reopen_on_empty_cluster_is_a_clean_error() {
    let cluster = Cluster::builder().nodes(1).build();
    match RStore::reopen(StoreConfig::default(), cluster) {
        Err(CoreError::Codec(msg)) => assert!(msg.contains("no persisted generation"), "{msg}"),
        Err(other) => panic!("expected codec error, got {other:?}"),
        Ok(_) => panic!("reopen on an empty cluster must fail"),
    }
}
