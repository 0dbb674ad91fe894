//! Snapshot isolation (PR 10): readers pinned to a generation must
//! observe *whole* generations only — a query racing a flush or a
//! compaction answers exactly like a quiesced twin, never a torn mix
//! of two layouts. Also pinned here: epoch-based reclamation (backend
//! deletes wait for pinned readers), crash-orphan tolerance on
//! reopen, incremental-slice resumability after a failed slice, and
//! bounded tombstone-slot growth over many compaction cycles.

use proptest::prelude::*;
use rstore_core::compact::CompactionConfig;
use rstore_core::model::{Record, VersionId};
use rstore_core::online::{replay_commits, stores_agree, truncate_dataset};
use rstore_core::store::{CommitRequest, RStore, StoreConfig, CHUNK_TABLE, CMAP_TABLE};
use rstore_core::{CoreError, QuerySpec};
use rstore_kvstore::{table_key, Cluster, EngineKind};
use rstore_vgraph::{Dataset, DatasetSpec, SelectionKind};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Every not-overfull chunk is a victim — guarantees compaction work
/// on small test datasets — with an optional per-slice budget.
fn eager(slice: usize) -> CompactionConfig {
    CompactionConfig { min_fill: 1.1, max_chunks_per_slice: slice }
}

fn store_on(cluster: Cluster, batch: usize, cache: usize, compaction: CompactionConfig) -> RStore {
    RStore::builder()
        .chunk_capacity(2048)
        .cache_budget(cache)
        .batch_size(batch)
        .compaction(compaction)
        .build(cluster)
}

fn store_with(nodes: usize, batch: usize, cache: usize, compaction: CompactionConfig) -> RStore {
    store_on(Cluster::builder().nodes(nodes).build(), batch, cache, compaction)
}

fn fragmenting_dataset(seed: u64, versions: usize) -> Dataset {
    DatasetSpec {
        name: format!("snapshot-{seed}"),
        num_versions: versions,
        root_records: 50,
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

/// A layout-independent answer fingerprint: the record set sorted by
/// composite key, payload bytes included.
fn fingerprint(records: &[Record]) -> Vec<(u64, u32, Vec<u8>)> {
    let mut out: Vec<(u64, u32, Vec<u8>)> = records
        .iter()
        .map(|r| (r.pk, r.origin.as_u32(), r.payload.as_ref().to_vec()))
        .collect();
    out.sort_unstable();
    out
}

/// Replays versions `[from, to)` of a dataset onto a store that
/// already holds the prefix `[0, from)` (the same delta → commit
/// translation `replay_commits` applies from scratch).
fn replay_suffix(store: &RStore, ds: &Dataset, from: usize, to: usize) {
    for node in &ds.graph.nodes()[from..to] {
        let delta = &ds.deltas[node.id.index()];
        let readded: HashSet<u64> = delta.added.iter().map(|r| r.pk).collect();
        let mut req = if node.parents.len() == 1 {
            CommitRequest::child_of(node.parents[0])
        } else {
            CommitRequest::merge_of(node.parents[0], node.parents[1..].iter().copied())
        };
        for r in &delta.added {
            req = req.put(r.pk, r.payload.as_ref().to_vec());
        }
        for ck in &delta.removed {
            if !readded.contains(&ck.pk) {
                req = req.delete(ck.pk);
            }
        }
        store.commit(req).unwrap();
    }
}

fn spec_strategy() -> impl Strategy<Value = DatasetSpec> {
    (
        1u64..1000,   // seed
        12usize..22,  // versions
        16usize..36,  // root records
        0.1f64..0.35, // update fraction
        64usize..128, // record size
    )
        .prop_map(|(seed, nv, rr, uf, rs)| DatasetSpec {
            name: format!("snapshot-prop-{seed}"),
            num_versions: nv,
            root_records: rr,
            // Linear history: a suffix replayed concurrently with
            // readers must not depend on branch heads that are still
            // buffered in the delta store.
            branch_prob: 0.0,
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
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Readers racing `flush_batch` and `compact` answer byte-identically
    /// to a quiesced twin for every already-published version, see new
    /// versions only as whole generations (`UnknownVersion` before the
    /// publish, the complete answer after — never a partial one), and
    /// observe a monotonically non-decreasing generation.
    #[test]
    fn concurrent_readers_see_whole_generations(
        spec in spec_strategy(),
        slice in 0usize..3,
    ) {
        let ds = spec.generate();
        let total = ds.graph.len();
        let pre = (total * 2 / 3).max(1);

        // The quiesced twin: whole-version answers are identical no
        // matter how the store under test interleaves its publishes.
        let twin = store_with(3, 3, 0, CompactionConfig::default());
        replay_commits(&twin, &ds).unwrap();
        let expect: Vec<_> = (0..total)
            .map(|v| fingerprint(&twin.get_version(VersionId(v as u32)).unwrap()))
            .collect();

        // The store under test keeps a cache so generation-gated
        // invalidation is exercised too.
        let store = store_with(3, 3, 256 * 1024, eager(slice));
        replay_commits(&store, &truncate_dataset(&ds, pre)).unwrap();

        let done = AtomicBool::new(false);
        let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let store = &store;
            let done = &done;
            let violations = &violations;
            let expect = &expect;
            for t in 0..2usize {
                s.spawn(move || {
                    let mut last_gen = 0u64;
                    let mut i = t;
                    while !done.load(Ordering::Acquire) {
                        // Only versions flushed before the race have a
                        // stable full answer; versions buffered in the
                        // delta store answer partially until `seal`
                        // (pre-existing semantics, not tearing).
                        let v = (i * 13 + t) % pre;
                        i += 1;
                        match store.query_with_stats(QuerySpec::Version(VersionId(v as u32))) {
                            Ok((recs, stats)) => {
                                if stats.generation < last_gen {
                                    violations.lock().unwrap().push(format!(
                                        "generation went backwards: {} after {}",
                                        stats.generation, last_gen
                                    ));
                                }
                                last_gen = last_gen.max(stats.generation);
                                if fingerprint(&recs) != expect[v] {
                                    violations.lock().unwrap().push(format!(
                                        "torn read of version {v} at generation {}",
                                        stats.generation
                                    ));
                                }
                            }
                            Err(e) => violations
                                .lock()
                                .unwrap()
                                .push(format!("reader error on version {v}: {e}")),
                        }
                    }
                });
            }
            // The mutators run on this thread against the same
            // `&RStore` the readers hold — the tentpole API contract.
            let wrote = (|| -> Result<(), CoreError> {
                replay_suffix(store, &ds, pre, total);
                store.seal()?;
                store.compact()?;
                store.reclaim()?;
                Ok(())
            })();
            done.store(true, Ordering::Release);
            wrote.unwrap();
        });
        let violations = violations.into_inner().unwrap();
        prop_assert!(violations.is_empty(), "{}", violations.join("\n"));

        // Quiesced: every version now matches the twin exactly.
        for (v, want) in expect.iter().enumerate() {
            let got = fingerprint(&store.get_version(VersionId(v as u32)).unwrap());
            prop_assert_eq!(&got, want, "version {} differs after quiesce", v);
        }
        prop_assert!(stores_agree(&twin, &store).unwrap());
        prop_assert_eq!(store.pinned_readers(), 0);
    }
}

/// A pinned reader blocks backend reclamation: compacting under a
/// live pin defers every retired key, the deferred backlog is
/// visible, and an explicit `reclaim` after the pin drops deletes the
/// keys and compacts the tombstone slots.
#[test]
fn pinned_reader_defers_backend_reclamation() {
    let ds = fragmenting_dataset(41, 40);
    let twin = store_with(2, 3, 0, CompactionConfig::default());
    let store = store_with(2, 3, 0, eager(0));
    replay_commits(&twin, &ds).unwrap();
    replay_commits(&store, &ds).unwrap();

    let live_before = store.live_chunk_ids();
    let pin_gen = {
        // An unexecuted plan holds its snapshot pinned until dropped.
        let plan = store.plan_query(QuerySpec::Version(VersionId(0))).unwrap();
        assert_eq!(store.pinned_readers(), 1);
        let report = store.compact().unwrap().expect("eager policy must compact");
        assert!(report.victims >= 2);
        assert_eq!(
            report.keys_deleted, 0,
            "deletes must defer while a reader pins the old generation"
        );
        assert!(!report.reclamation_failed);
        assert!(store.reclaim_backlog() > 0);
        // The retired generation's keys are still at the backend.
        let retired: Vec<u32> = live_before
            .iter()
            .copied()
            .filter(|c| !store.live_chunk_ids().contains(c))
            .collect();
        assert!(!retired.is_empty());
        for &c in &retired {
            let key = table_key(CHUNK_TABLE, &c.to_be_bytes());
            assert!(
                store.cluster().get(&key).unwrap().is_some(),
                "chunk {c} reclaimed under a live pin"
            );
        }
        // The pinned plan still executes against its old generation.
        let recs = store.execute(plan).unwrap().into_stream().drain().unwrap();
        assert_eq!(
            fingerprint(&recs),
            fingerprint(&twin.get_version(VersionId(0)).unwrap())
        );
        retired
    };
    assert_eq!(store.pinned_readers(), 0);

    let rep = store.reclaim().unwrap();
    assert!(rep.deferred_drained > 0);
    assert!(rep.keys_deleted > 0);
    assert!(rep.slots_reclaimed + rep.slots_truncated > 0);
    assert_eq!(store.reclaim_backlog(), 0);
    for &c in &pin_gen {
        for table in [CHUNK_TABLE, CMAP_TABLE] {
            let key = table_key(table, &c.to_be_bytes());
            assert!(
                store.cluster().get(&key).unwrap().is_none(),
                "retired {table}/{c} survived reclaim"
            );
        }
    }
    assert!(stores_agree(&twin, &store).unwrap());
}

/// A reader extracts with the chunk maps of the generation it pinned:
/// plans taken at generation `g` — then overtaken by flushes that grow
/// those chunks' maps and by compaction slices that retire the chunks
/// outright — answer byte-identically to what `g` answered, with no
/// stored map left to fall back on.
#[test]
fn pinned_reader_answers_from_its_generations_maps() {
    let ds = fragmenting_dataset(17, 45);
    let pre = 30;
    let store = store_with(3, 3, 0, eager(4));
    replay_commits(&store, &truncate_dataset(&ds, pre)).unwrap();

    let head = VersionId(pre as u32 - 1);
    let pk = store.get_version(head).unwrap()[0].pk;
    let specs = [
        QuerySpec::Version(VersionId(2)),
        QuerySpec::Version(head),
        QuerySpec::Range { lo: 0, hi: 25, v: head },
        QuerySpec::Record { pk, v: head },
        QuerySpec::Evolution { pk },
    ];
    let at_g: Vec<_> = specs
        .iter()
        .map(|&spec| fingerprint(&store.query(spec).unwrap()))
        .collect();
    let plans: Vec<_> = specs
        .iter()
        .map(|&spec| store.plan_query(spec).unwrap())
        .collect();
    let pinned = store.pin();
    let g = pinned.generation();
    let planned: HashSet<u32> = plans.iter().flat_map(|p| p.chunk_ids()).copied().collect();

    // Flushes append the new versions to the planned chunks' maps…
    replay_suffix(&store, &ds, pre, ds.graph.len());
    store.seal().unwrap();
    let versions_in = |snap: &rstore_core::store::StoreSnapshot, c: u32| {
        snap.chunk_map(c).map_or(0, |m| m.num_versions())
    };
    let newest = store.pin();
    assert!(
        planned.iter().any(|&c| versions_in(&newest, c) > versions_in(&pinned, c)),
        "no planned chunk's map grew: the flushes prove nothing"
    );
    drop(newest);
    // …and the compaction slices retire the chunks (their blobs wait
    // for the pins; their stored maps are dropped here by hand).
    let report = store.compact().unwrap().expect("eager policy must compact");
    assert!(report.slices > 1);
    let live = store.live_chunk_ids();
    let retired: Vec<u32> = planned.iter().copied().filter(|c| !live.contains(c)).collect();
    assert!(!retired.is_empty(), "compaction retired none of the planned chunks");
    let newest = store.pin();
    for &c in &retired {
        assert_eq!(versions_in(&newest, c), 0, "retired chunk {c} keeps a tombstone map");
        assert!(versions_in(&pinned, c) > 0, "generation {g} lost chunk {c}'s map");
    }
    drop(newest);
    let stored_maps = retired
        .iter()
        .map(|c| table_key(CMAP_TABLE, &c.to_be_bytes()))
        .collect();
    store.cluster().multi_delete_scatter(stored_maps).unwrap();
    assert!(store.generation() > g);

    for ((plan, spec), want) in plans.into_iter().zip(specs).zip(&at_g) {
        assert_eq!(plan.generation(), g);
        let got = store.execute(plan).unwrap().into_stream().drain().unwrap();
        assert_eq!(&fingerprint(&got), want, "{spec:?} pinned at generation {g}");
    }
    // Unpinned again, the store serves the newest generation.
    drop(pinned);
    assert_eq!(store.pinned_readers(), 0);
    let twin = store_with(3, 3, 0, CompactionConfig::default());
    replay_commits(&twin, &ds).unwrap();
    assert!(stores_agree(&twin, &store).unwrap());
}

/// A budgeted compaction cuts over slice by slice and answers exactly
/// like a single-slice compaction of the same store.
#[test]
fn sliced_compaction_matches_single_slice() {
    let ds = fragmenting_dataset(23, 50);
    let single = store_with(2, 3, 0, eager(0));
    let sliced = store_with(2, 3, 0, eager(2));
    replay_commits(&single, &ds).unwrap();
    replay_commits(&sliced, &ds).unwrap();

    let gen_before = sliced.generation();
    single.compact().unwrap().expect("fragmented store must compact");
    let report = sliced.compact().unwrap().expect("fragmented store must compact");
    assert!(report.slices >= 2, "slice budget 2 must take several slices");
    assert!(report.victims >= report.slices);
    // Each slice is its own publish.
    assert!(sliced.generation() >= gen_before + report.slices as u64);
    assert!(stores_agree(&single, &sliced).unwrap());
}

/// A slice failing against a downed node fails the call: the store
/// keeps serving the last published generation, and the next
/// `compact` call selects its victims again and completes.
#[test]
fn sliced_compaction_resumes_after_down_node() {
    let ds = fragmenting_dataset(13, 50);
    let twin = store_with(3, 3, 0, CompactionConfig::default());
    // Replication 1: a downed node makes part of the key space
    // unreachable instead of failing over.
    let cluster = Cluster::builder().nodes(3).replication(1).build();
    let store = store_on(cluster, 3, 0, eager(2));
    replay_commits(&twin, &ds).unwrap();
    replay_commits(&store, &ds).unwrap();

    store.cluster().set_node_down(1, true);
    store
        .compact()
        .expect_err("compaction through a downed unreplicated node must fail");
    store.cluster().set_node_down(1, false);

    // Whatever slices landed before the failure are published and the
    // rest changed nothing — the store serves consistently either way.
    assert!(stores_agree(&twin, &store).unwrap());

    let report = store.compact().unwrap().expect("the retry must select victims again");
    assert!(report.slices >= 1);
    assert!(stores_agree(&twin, &store).unwrap());
    // Converges like the single-slice path.
    for _ in 0..6 {
        if store.compact().unwrap().is_none() {
            break;
        }
    }
    assert!(stores_agree(&twin, &store).unwrap());
}

/// Crash-mid-publish on reopen: a crash after a compaction slice's
/// backend writes but before its meta publish leaves orphan
/// new-generation keys with old-generation meta. Reopen must ignore
/// the orphans and serve the old generation whole.
#[test]
fn reopen_ignores_orphan_chunks_from_crashed_publish() {
    let dir = std::env::temp_dir().join(format!("rstore-snapshot-orphan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = fragmenting_dataset(21, 40);
    let twin = store_with(2, 3, 0, CompactionConfig::default());
    replay_commits(&twin, &ds).unwrap();

    let config = StoreConfig {
        chunk_capacity: 2048,
        cache_budget: 0,
        batch_size: 3,
        compaction: eager(0),
        ..StoreConfig::default()
    };
    let slots = {
        let cluster = Cluster::builder()
            .nodes(2)
            .engine(EngineKind::Log { dir: dir.clone() })
            .build();
        let store = store_on(cluster, 3, 0, eager(0));
        replay_commits(&store, &ds).unwrap();
        store.chunk_slot_count() as u32
    };

    // Simulate the crash: the next generation's chunk blobs and maps
    // reached the backend, the meta commit point did not.
    {
        let cluster = Cluster::builder()
            .nodes(2)
            .engine(EngineKind::Log { dir: dir.clone() })
            .build();
        for orphan in slots..slots + 3 {
            for table in [CHUNK_TABLE, CMAP_TABLE] {
                let key = table_key(table, &orphan.to_be_bytes());
                cluster
                    .put(key, b"partial publish, never referenced".to_vec().into())
                    .unwrap();
            }
        }
    }

    let cluster = Cluster::builder()
        .nodes(2)
        .engine(EngineKind::Log { dir: dir.clone() })
        .build();
    let store = RStore::reopen(config, cluster).unwrap();
    assert_eq!(store.chunk_slot_count() as u32, slots, "orphans must stay invisible");
    assert!(stores_agree(&twin, &store).unwrap());

    // Still a live store: the interrupted maintenance simply reruns.
    store.compact().unwrap().expect("eager policy compacts after reopen");
    assert!(stores_agree(&twin, &store).unwrap());

    let _ = std::fs::remove_dir_all(dir);
}

/// Tombstone slots do not leak: across 100 commit → flush → compact →
/// reclaim cycles the slot table stays within a constant factor of
/// the live chunk count instead of growing with the cycle count.
#[test]
fn repeated_compaction_cycles_keep_slot_table_bounded() {
    let store = store_with(2, 1, 0, eager(0));
    let root: Vec<(u64, Vec<u8>)> = (0..24u64).map(|pk| (pk, vec![0xA5; 120])).collect();
    store.commit(CommitRequest::root(root)).unwrap();
    store.seal().unwrap();

    let mut max_overhead = 0usize;
    let mut reclaimed = 0usize;
    for cycle in 0..100u64 {
        let head = VersionId((store.version_count() - 1) as u32);
        let mut req = CommitRequest::child_of(head);
        for pk in 0..8u64 {
            req = req.put((cycle + pk) % 24, vec![cycle as u8; 120]);
        }
        store.commit(req).unwrap();
        store.seal().unwrap();
        store.compact().unwrap();
        let rep = store.reclaim().unwrap();
        reclaimed += rep.slots_reclaimed + rep.slots_truncated;
        max_overhead = max_overhead.max(store.chunk_slot_count() - store.chunk_count());
    }
    assert!(reclaimed > 0, "reclamation never freed a slot");
    // With no pinned readers every cycle's tombstones are reclaimed
    // and reused; the overhead is bounded by one generation's churn,
    // not by the number of cycles.
    let live = store.chunk_count();
    assert!(
        max_overhead <= live.max(8) * 2,
        "slot overhead {max_overhead} outgrew live set {live}"
    );
    assert!(store.chunk_slot_count() <= live * 2 + 8);
}
