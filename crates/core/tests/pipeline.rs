//! The plan → fetch → extract pipeline: the parallel scatter-gather
//! executor must be byte-identical to the serial reference path and
//! to a hand-rolled single-threaded fetch, surface node failures as
//! clean errors, and report scatter-gather fan-out in `QueryStats`.

use proptest::prelude::*;
use rstore_core::chunk::Chunk;
use rstore_core::chunkmap::ChunkMap;
use rstore_core::model::{Record, VersionId};
use rstore_core::plan::QuerySpec;
use rstore_core::query;
use rstore_core::store::{RStore, CHUNK_TABLE, CMAP_TABLE};
use rstore_core::CoreError;
use rstore_kvstore::{table_key, Cluster, KvError, NetworkModel};
use rstore_vgraph::{DatasetSpec, SelectionKind};

fn spec_strategy() -> impl Strategy<Value = DatasetSpec> {
    (
        1u64..1000,      // seed
        8usize..20,      // versions
        10usize..40,     // root records
        0.0f64..0.4,     // branch probability
        0.05f64..0.4,    // update fraction
        32usize..128,    // record size
    )
        .prop_map(|(seed, nv, rr, bp, uf, rs)| DatasetSpec {
            name: format!("pipeline-{seed}"),
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

fn loaded_store(ds: &rstore_vgraph::Dataset, nodes: usize, cache_budget: usize) -> RStore {
    let cluster = Cluster::builder().nodes(nodes).build();
    let store = RStore::builder()
        .chunk_capacity(1024)
        .cache_budget(cache_budget)
        .build(cluster);
    store.load_dataset(ds).unwrap();
    store
}

/// The hand-rolled single-threaded reference: fetch each planned
/// chunk's two halves with individual `get`s, decode inline, extract
/// with the same per-chunk extraction the stream uses. No planner, no
/// cache, no scatter-gather.
fn reference_records(
    store: &RStore,
    chunk_ids: &[u32],
    extract: impl Fn(&Chunk, &ChunkMap) -> Result<Vec<Record>, CoreError>,
) -> (Vec<Record>, usize) {
    let mut records = Vec::new();
    let mut useful = 0usize;
    for &c in chunk_ids {
        let blob = store
            .cluster()
            .get(&table_key(CHUNK_TABLE, &c.to_be_bytes()))
            .unwrap()
            .expect("chunk blob present");
        let map = store
            .cluster()
            .get(&table_key(CMAP_TABLE, &c.to_be_bytes()))
            .unwrap()
            .expect("chunk map present");
        let chunk = Chunk::deserialize(&blob).unwrap();
        let map = ChunkMap::deserialize(&map).unwrap();
        let recs = extract(&chunk, &map).unwrap();
        if !recs.is_empty() {
            useful += 1;
        }
        records.extend(recs);
    }
    (records, useful)
}

fn assert_identical(a: &[Record], b: &[Record]) {
    assert_eq!(a.len(), b.len(), "record count differs");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.pk, y.pk);
        assert_eq!(x.origin, y.origin);
        assert_eq!(&x.payload[..], &y.payload[..], "payload bytes differ");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel execution == serial reference == hand-rolled
    /// single-threaded path, byte for byte, with identical
    /// `chunks_useful`, across random datasets, version DAGs, and
    /// all three planned query classes — cold cache, warm cache, and
    /// cache disabled.
    #[test]
    fn parallel_executor_matches_single_threaded_reference(spec in spec_strategy()) {
        let ds = spec.generate();
        let cached = loaded_store(&ds, 4, 1 << 20);
        let uncached = loaded_store(&ds, 4, 0);

        let max_pk = spec.root_records as u64 + 8;
        let mut specs: Vec<QuerySpec> = (0..ds.graph.len())
            .map(|v| QuerySpec::Version(VersionId(v as u32)))
            .collect();
        let mid = VersionId((ds.graph.len() / 2) as u32);
        specs.push(QuerySpec::Range { lo: 2, hi: max_pk / 2, v: mid });
        specs.push(QuerySpec::Record { pk: 3, v: mid });
        specs.push(QuerySpec::Evolution { pk: 1 });

        for store in [&uncached, &cached] {
            for &qspec in &specs {
                // Parallel scatter-gather (cold on first pass).
                let mut stream = store
                    .execute(store.plan_query(qspec).unwrap())
                    .unwrap()
                    .into_stream();
                let parallel = stream.drain().unwrap();
                let parallel_useful = stream.chunks_useful();

                // Serial executor over a fresh plan (warm on the
                // cached store: exercises the hit path too).
                let mut serial_stream = store
                    .execute_serial(store.plan_query(qspec).unwrap())
                    .unwrap()
                    .into_stream();
                let serial = serial_stream.drain().unwrap();
                prop_assert_eq!(serial_stream.chunks_useful(), parallel_useful);
                assert_identical(&parallel, &serial);

                // Hand-rolled single-threaded oracle.
                let plan = store.plan_query(qspec).unwrap();
                let (reference, ref_useful) =
                    reference_records(store, plan.chunk_ids(), |chunk, map| {
                        // Reuse the extraction primitives directly so the
                        // oracle shares no pipeline code.
                        match qspec {
                            QuerySpec::Version(v) => {
                                query::extract_version_records(chunk, map, v)
                            }
                            QuerySpec::Record { pk, v } => {
                                let keys = chunk.local_keys();
                                match map.iter_locals(v) {
                                    None => Ok(Vec::new()),
                                    Some(locals) => query::extract_from_iter(
                                        chunk,
                                        locals.filter(|&l| keys[l].pk == pk),
                                    ),
                                }
                            }
                            QuerySpec::Range { lo, hi, v } => {
                                let keys = chunk.local_keys();
                                match map.iter_locals(v) {
                                    None => Ok(Vec::new()),
                                    Some(locals) => query::extract_from_iter(
                                        chunk,
                                        locals.filter(|&l| {
                                            keys[l].pk >= lo && keys[l].pk <= hi
                                        }),
                                    ),
                                }
                            }
                            QuerySpec::Evolution { pk } => {
                                let keys = chunk.local_keys();
                                query::extract_from_iter(
                                    chunk,
                                    (0..keys.len()).filter(|&l| keys[l].pk == pk),
                                )
                            }
                            QuerySpec::Scan => query::extract_all(chunk),
                        }
                    });
                prop_assert_eq!(parallel_useful, ref_useful);
                assert_identical(&parallel, &reference);
            }
        }
    }
}

#[test]
fn down_node_surfaces_clean_error_from_parallel_executor() {
    let mut spec = DatasetSpec::tiny(4242);
    spec.num_versions = 24;
    spec.root_records = 60;
    let ds = spec.generate();
    // Replication 1: a down node makes part of the key space
    // unreachable instead of failing over.
    let store = loaded_store(&ds, 4, 0);

    // Plan every version while the cluster is healthy, then take a
    // node down *between* planning and execution: the scatter-gather
    // threads must surface the failure as an error, never a panic.
    let plans: Vec<_> = (0..ds.graph.len())
        .map(|v| store.plan_query(QuerySpec::Version(VersionId(v as u32))).unwrap())
        .collect();
    store.cluster().set_node_down(0, true);
    let mut failures = 0usize;
    for plan in plans {
        match store.execute(plan) {
            Ok(_) => {}
            Err(CoreError::Kv(KvError::NodeDown(0))) => failures += 1,
            Err(e) => panic!("expected NodeDown, got {e}"),
        }
    }
    assert!(failures > 0, "no plan touched the downed node");

    // Planning itself also fails cleanly once the owner is gone.
    let mut plan_failures = 0usize;
    for v in 0..ds.graph.len() {
        match store.plan_query(QuerySpec::Version(VersionId(v as u32))) {
            Ok(_) => {}
            Err(CoreError::Kv(KvError::AllReplicasDown { .. })) => plan_failures += 1,
            Err(e) => panic!("expected AllReplicasDown, got {e}"),
        }
    }
    assert!(plan_failures > 0, "planner never routed to the downed node");

    // Back up: everything is readable again.
    store.cluster().set_node_down(0, false);
    for v in 0..ds.graph.len() {
        store.get_version(VersionId(v as u32)).unwrap();
    }
}

#[test]
fn query_stats_report_scatter_gather_fanout() {
    let mut spec = DatasetSpec::tiny(777);
    spec.num_versions = 30;
    spec.root_records = 80;
    spec.record_size = 128;
    let ds = spec.generate();
    let cluster = Cluster::builder()
        .nodes(4)
        .network(NetworkModel::lan_virtual())
        .build();
    let store = RStore::builder()
        .chunk_capacity(1024)
        .cache_budget(0)
        .build(cluster);
    store.load_dataset(&ds).unwrap();

    let v = VersionId((ds.graph.len() - 1) as u32);
    let (_, stats) = store.query_with_stats(QuerySpec::Version(v)).unwrap();
    assert!(stats.nodes_contacted >= 1 && stats.nodes_contacted <= 4);
    assert!(stats.max_node_batch >= 1);
    assert!(
        stats.max_node_batch <= stats.chunks_fetched,
        "one key per chunk: a node cannot serve more keys than the span"
    );

    // Max-over-nodes accounting: the serial walk of the same plan
    // pays the batches one after another, so its modeled time is at
    // least the parallel number — and strictly more once several
    // nodes are involved.
    let parallel = store
        .execute(store.plan_query(QuerySpec::Version(v)).unwrap())
        .unwrap()
        .metrics;
    let serial = store
        .execute_serial(store.plan_query(QuerySpec::Version(v)).unwrap())
        .unwrap()
        .metrics;
    assert!(parallel.modeled_network > std::time::Duration::ZERO);
    assert!(serial.modeled_network >= parallel.modeled_network);
    if parallel.nodes_contacted > 1 {
        assert!(
            serial.modeled_network > parallel.modeled_network,
            "sum over {} nodes must exceed their max",
            parallel.nodes_contacted
        );
    }
}

#[test]
fn record_stream_is_lazy_and_resumable() {
    let mut spec = DatasetSpec::tiny(99);
    spec.num_versions = 16;
    spec.root_records = 50;
    let ds = spec.generate();
    let store = loaded_store(&ds, 2, 1 << 20);

    let v = VersionId(8);
    let full = store.get_version(v).unwrap();
    assert!(!full.is_empty());

    // Take one record and drop the stream. `execute` built every
    // chunk's records; the stream counts only the chunks it has
    // reached.
    let mut stream = store.stream_query(QuerySpec::Version(v)).unwrap();
    let first = stream.next().unwrap().unwrap();
    assert!(full.iter().any(|r| {
        r.pk == first.pk && r.origin == first.origin && r.payload == first.payload
    }));
    assert_eq!(
        stream.chunks_useful(),
        1,
        "only the chunk that produced the first record was reached"
    );
    drop(stream);

    // Draining after partial consumption yields exactly the rest.
    let mut stream = store.stream_query(QuerySpec::Version(v)).unwrap();
    let _ = stream.next().unwrap().unwrap();
    let rest = stream.drain().unwrap();
    assert_eq!(rest.len() + 1, full.len());
    assert_eq!(stream.records_yielded(), full.len());

    // A warm plan is fully cached and contacts no node.
    let plan = store.plan_query(QuerySpec::Version(v)).unwrap();
    assert!(plan.fully_cached());
    assert_eq!(plan.nodes_contacted(), 0);
    let metrics = store.execute(plan).unwrap().metrics;
    assert_eq!(metrics.bytes_fetched, 0);
    assert_eq!(metrics.modeled_network, std::time::Duration::ZERO);
}
