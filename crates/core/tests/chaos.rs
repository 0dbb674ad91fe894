//! Chaos suite: deterministic fault injection against full stores.
//!
//! Every test here drives the store through the scripted fault layer
//! (`rstore_kvstore::fault`) and asserts the *self-healing contract*:
//! under transient faults, latency spikes, injected node crashes and
//! torn log tails, queries and flushes either succeed with answers
//! byte-identical to a fault-free twin, or fail with a clean error —
//! never a wrong answer, never a panic. Crash-recovery tests pin the
//! log engine's durability contract (no acknowledged write is lost)
//! through the public API and prove that a reopened store recovers to
//! the last durable prefix with the metadata commit point respected.

use proptest::prelude::*;
use rstore_core::model::{ChunkId, VersionId};
use rstore_core::online::{replay_commits, stores_agree};
use rstore_core::store::{RStore, StoreConfig, CHUNK_TABLE, CMAP_TABLE};
use rstore_core::QuerySpec;
use rstore_kvstore::engine::{LogEngine, StorageEngine};
use rstore_kvstore::{
    table_key, Cluster, EngineKind, FaultPlan, FaultRule, Key, RetryPolicy, TailDamage,
};
use rstore_vgraph::{Dataset, DatasetSpec, SelectionKind};
use std::time::Duration;

fn chaos_dataset(seed: u64, versions: usize, roots: usize) -> Dataset {
    DatasetSpec {
        name: format!("chaos-{seed}"),
        num_versions: versions,
        root_records: roots,
        branch_prob: 0.15,
        update_frac: 0.3,
        insert_frac: 0.05,
        delete_frac: 0.03,
        selection: SelectionKind::Uniform,
        record_size: 96,
        pd: 0.1,
        seed,
    }
    .generate()
}

/// The canned chaos mix: one scripted crash on node 0 (the outage is
/// survivable because replication >= 2 keeps a live sibling for every
/// key), plus probabilistic transient refusals and latency spikes on
/// every node. Rules are evaluated in order, so the crash is listed
/// first and cannot be shadowed by a probabilistic rule's draw.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .rule(
            FaultRule::crash(6, TailDamage::None)
                .on_node(0)
                .after(25)
                .until(26),
        )
        .rule(FaultRule::transient().with_probability(0.05))
        .rule(FaultRule::latency(Duration::from_micros(200)).with_probability(0.05))
}

fn store_on(cluster: Cluster) -> RStore {
    RStore::builder()
        .chunk_capacity(1024)
        .cache_budget(0)
        .batch_size(3)
        .build(cluster)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random stores under seeded fault plans answer every query
    /// byte-for-byte like their fault-free twins. Replication 2 with
    /// chaos confined to crash only one node keeps at least one live
    /// replica per key, so nothing is ever *allowed* to fail.
    #[test]
    fn chaos_store_matches_fault_free_twin(
        data_seed in 1u64..500,
        fault_seed in 1u64..500,
        versions in 10usize..22,
        roots in 16usize..48,
    ) {
        let ds = chaos_dataset(data_seed, versions, roots);

        let calm = {
            let cluster = Cluster::builder().nodes(3).replication(2).build();
            let s = store_on(cluster);
            replay_commits(&s, &ds).unwrap();
            s
        };
        let chaotic = {
            let cluster = Cluster::builder()
                .nodes(3)
                .replication(2)
                .faults(chaos_plan(fault_seed))
                .build();
            let s = store_on(cluster);
            replay_commits(&s, &ds).unwrap();
            // Seal: flush + hint replay. A node still
            // refusing requests (mid-outage) keeps its hints queued,
            // so drive replay until the outage expires and the queue
            // drains — the bounded loop stands in for the periodic
            // anti-entropy pass a real deployment would run.
            s.seal().unwrap();
            for _ in 0..12 {
                if s.cluster().pending_hints() == 0 {
                    break;
                }
                let _ = s.cluster().replay_hints();
            }
            s
        };

        prop_assert!(stores_agree(&calm, &chaotic).unwrap(),
            "chaos twin diverged from the fault-free store");
        // The crash rule fires deterministically at op 25 on node 0.
        let stats = chaotic.cluster().stats();
        prop_assert!(stats.faults_injected > 0, "the plan never fired");
        prop_assert_eq!(stats.under_replicated, 0,
            "replay must drain every hint once the outage ends");
    }
}

/// The log engine's durability contract, pinned through the public
/// API: a crash loses no acknowledged write, and a torn or corrupted
/// tail entry never resurrects, truncating recovery to the last
/// durable prefix.
#[test]
fn log_engine_crash_matrix_loses_no_acknowledged_write() {
    let base = std::env::temp_dir().join(format!("rstore-chaos-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let min_survivors = 10;
    for damage in [TailDamage::TornBytes(7), TailDamage::CorruptLastEntry] {
        let path = base.join(format!("{damage:?}.log"));
        let mut e = LogEngine::open(&path).unwrap();
        for i in 0..10u32 {
            e.put(
                i.to_be_bytes().to_vec(),
                bytes::Bytes::from(vec![i as u8; 32]),
            )
            .unwrap();
        }
        e.crash_restart(damage).unwrap();
        let survivors = (0..10u32)
            .filter(|i| e.get(&i.to_be_bytes()).unwrap().is_some())
            .count();
        // CorruptLastEntry can also claim the last *durable*
        // entry — that is the point: a bad CRC never serves.
        let floor = match damage {
            TailDamage::CorruptLastEntry => min_survivors - 1,
            _ => min_survivors,
        };
        assert!(
            survivors >= floor,
            "{damage:?}: {survivors} survivors, durable floor {floor}"
        );
        // What survived is a *prefix*: no holes.
        let mut seen_missing = false;
        for i in 0..10u32 {
            let present = e.get(&i.to_be_bytes()).unwrap().is_some();
            if !present {
                seen_missing = true;
            } else {
                assert!(!seen_missing, "{damage:?}: hole before key {i}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(base);
}

/// A node crash *during ingest*: the injected crash tears the log
/// tail mid-write, yet the store stays correct — writes the outage
/// refused were re-replicated to the sibling and hinted, reads heal
/// around the recovering replica — and after `seal` (flush plus hint
/// replay) a full restart over the same logs recovers every record.
/// This is the mid-write crash + reopen harness of the flush path:
/// the metadata commit point is written through the same cluster, so
/// a sealed store that reopens consistent proves the ordering held.
/// The engine keeps every *acknowledged* write durable, pinned on
/// its own by `log_engine_crash_matrix_loses_no_acknowledged_write`.
#[test]
fn injected_crash_during_ingest_seals_durable_and_reopens() {
    let dir = std::env::temp_dir().join(format!("rstore-chaos-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = chaos_dataset(77, 24, 40);

    let calm = {
        let cluster = Cluster::builder().nodes(3).replication(2).build();
        let s = store_on(cluster);
        replay_commits(&s, &ds).unwrap();
        s
    };

    let plan = FaultPlan::new(9).rule(
        FaultRule::crash(5, TailDamage::TornBytes(11))
            .on_node(0)
            .after(30)
            .until(31),
    );
    {
        let cluster = Cluster::builder()
            .nodes(3)
            .replication(2)
            .engine(EngineKind::Log { dir: dir.clone() })
            .faults(plan)
            .build();
        let store = store_on(cluster);
        replay_commits(&store, &ds).unwrap();
        assert!(
            store.cluster().stats().faults_injected > 0,
            "the scripted crash never fired"
        );
        // Mid-flight the store must already be right (reads heal
        // around the crashed replica)...
        assert!(stores_agree(&calm, &store).unwrap());
        // ...and seal + replay makes it fully replicated again (the
        // drain loop covers an outage still pending at seal time).
        store.seal().unwrap();
        for _ in 0..12 {
            if store.cluster().pending_hints() == 0 {
                break;
            }
            let _ = store.cluster().replay_hints();
        }
        assert_eq!(store.cluster().pending_hints(), 0);
    }

    // Restart over the crashed-and-recovered logs: every record is
    // there, byte for byte.
    let cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        .engine(EngineKind::Log { dir: dir.clone() })
        .build();
    let config = StoreConfig {
        chunk_capacity: 1024,
        cache_budget: 0,
        batch_size: 3,
        ..StoreConfig::default()
    };
    let reopened = RStore::reopen(config, cluster).unwrap();
    assert!(
        stores_agree(&calm, &reopened).unwrap(),
        "reopened store diverged from the fault-free twin"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Torn tails across the *compaction cutover*: compaction rewrites
/// the layout, commits the new metadata, deletes the old generation,
/// and the store seals. Junk bytes appended to every node's log after
/// shutdown (a torn in-flight write at kill time) must be truncated
/// on reopen, recovering exactly the sealed post-compaction state —
/// the metadata commit point never references data that did not
/// survive.
#[test]
fn torn_tail_after_compaction_recovers_to_commit_point() {
    let dir = std::env::temp_dir().join(format!("rstore-chaos-cutover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = chaos_dataset(31, 30, 40);

    let calm = {
        let cluster = Cluster::builder().nodes(2).build();
        let s = RStore::builder()
            .chunk_capacity(2048)
            .cache_budget(0)
            .batch_size(3)
            .build(cluster);
        replay_commits(&s, &ds).unwrap();
        s
    };

    let eager = rstore_core::compact::CompactionConfig {
        min_fill: 1.1,
        ..rstore_core::compact::CompactionConfig::default()
    };
    let (live, retired) = {
        let cluster = Cluster::builder()
            .nodes(2)
            .engine(EngineKind::Log { dir: dir.clone() })
            .build();
        let store = RStore::builder()
            .chunk_capacity(2048)
            .cache_budget(0)
            .batch_size(3)
            .compaction(eager)
            .build(cluster);
        replay_commits(&store, &ds).unwrap();
        store.compact().unwrap().expect("eager policy must compact");
        store.seal().unwrap();
        (store.chunk_count(), store.retired_chunk_count())
    };
    assert!(retired > 0);

    // Tear the tail of every node's log: a write was in flight when
    // the process died.
    for node in 0..2 {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(format!("node-{node}.log")))
            .unwrap();
        f.write_all(&[0xAB; 13]).unwrap();
    }

    let cluster = Cluster::builder()
        .nodes(2)
        .engine(EngineKind::Log { dir: dir.clone() })
        .build();
    let config = StoreConfig {
        chunk_capacity: 2048,
        cache_budget: 0,
        batch_size: 3,
        compaction: eager,
        ..StoreConfig::default()
    };
    let reopened = RStore::reopen(config, cluster).unwrap();
    assert_eq!(reopened.chunk_count(), live);
    assert_eq!(reopened.retired_chunk_count(), retired);
    assert!(
        stores_agree(&calm, &reopened).unwrap(),
        "post-compaction state lost to the torn tail"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Hinted handoff at store level, verified *on the recovered replica
/// itself*: a whole dataset ingested while one node is down leaves
/// that node's share as hints; recovery replays them; and every
/// backend key whose replica set includes the node is then readable
/// from that node directly — full replication restored, not just
/// query-level liveness.
#[test]
fn hint_replay_restores_replication_on_recovered_node() {
    let ds = chaos_dataset(41, 16, 30);
    let cluster = Cluster::builder().nodes(3).replication(2).build();
    let store = store_on(cluster);

    store.cluster().set_node_down(0, true);
    replay_commits(&store, &ds).unwrap();
    assert!(
        store.cluster().pending_hints() > 0,
        "writes during the outage must leave hints"
    );
    assert!(store.cluster().stats().under_replicated > 0);

    // Recovery replays the hints.
    store.cluster().set_node_down(0, false);
    assert_eq!(store.cluster().pending_hints(), 0);
    assert_eq!(store.cluster().stats().under_replicated, 0);

    // Every live chunk key whose replica set includes node 0 must be
    // served by node 0 itself.
    let plan = store.plan_query(QuerySpec::Scan).unwrap();
    let keys_on_0: Vec<Key> = plan
        .chunk_ids()
        .iter()
        .flat_map(|&c| {
            [
                table_key(CHUNK_TABLE, &ChunkId(c).to_key()),
                table_key(CMAP_TABLE, &ChunkId(c).to_key()),
            ]
        })
        .filter(|k| store.cluster().replicas_of(k).unwrap().contains(&0))
        .collect();
    assert!(!keys_on_0.is_empty(), "no chunk key routes to node 0");
    let got = store.cluster().fetch_from(0, keys_on_0).unwrap();
    assert!(
        got.values.iter().all(Option::is_some),
        "recovered replica is missing replayed keys"
    );

    // And the store still answers exactly right.
    let record_store = ds.record_store();
    let oracle = ds.materialize(&record_store);
    for v in 0..store.version_count() {
        let v = VersionId(v as u32);
        assert_eq!(store.get_version(v).unwrap().len(), oracle.contents(v).len());
    }
}

/// Retry accounting is visible end to end: a query against a flaky
/// cluster reports the in-place retries that healed it, separate from
/// failovers, and disabled retries make the same faults surface.
#[test]
fn query_stats_report_retries_under_faults() {
    let ds = chaos_dataset(53, 14, 30);
    // Periodic transient faults: deterministic, frequent, retryable.
    let plan = FaultPlan::new(13).rule(FaultRule::transient().every(7));
    let cluster = Cluster::builder()
        .nodes(2)
        .replication(1)
        .faults(plan)
        .build();
    let store = store_on(cluster);
    replay_commits(&store, &ds).unwrap();

    let mut retries = 0usize;
    let mut failovers = 0usize;
    for v in 0..store.version_count() {
        let (_, stats) = store
            .query_with_stats(QuerySpec::Version(VersionId(v as u32)))
            .expect("retries must heal periodic transient faults");
        retries += stats.retries;
        failovers += stats.failovers;
    }
    assert!(retries > 0, "every 7th backend op faults; retries must show");
    assert_eq!(failovers, 0, "transient faults are healed in place, not failed over");
    assert!(store.cluster().stats().retries > 0);

    // Same faults, no retry budget: the store cannot hide them.
    let plan = FaultPlan::new(13).rule(FaultRule::transient().every(7));
    let cluster = Cluster::builder()
        .nodes(2)
        .replication(1)
        .faults(plan)
        .retry(RetryPolicy::none())
        .build();
    let bare = store_on(cluster);
    let failed = replay_commits(&bare, &ds).is_err()
        || (0..bare.version_count())
            .any(|v| bare.get_version(VersionId(v as u32)).is_err());
    assert!(failed, "without retries the faults must surface");
}

/// The commit point under a scripted crash: the node that owns the next
/// generation's commit record crashes at its `k`-th request and stays
/// out. Sweeping `k` across a flush walks the crash through every one
/// of the flush's writes on that node; the schedules where it lands on
/// the record put *alone* — every blob and base map of the generation
/// stored, the record not — are the crash-ordering case: a restart
/// serves the previous generation whole, does not see the orphans, has
/// the batch back as pending from the delta store, and the flush it
/// reruns overwrites the orphans to end byte-identical to a twin that
/// never crashed.
#[test]
fn crash_on_the_commit_record_put_leaves_the_previous_generation() {
    let dir = std::env::temp_dir().join(format!("rstore-chaos-record-{}", std::process::id()));
    let ds = chaos_dataset(91, 12, 30);
    let first: Vec<VersionId> = ds.graph.ids().take(6).collect();
    let second: Vec<VersionId> = ds.graph.ids().skip(6).collect();
    let commit_all = |store: &RStore, versions: &[VersionId]| -> bool {
        versions
            .iter()
            .all(|&v| store.commit(rstore_core::online::commit_request(&ds, v)).is_ok())
    };
    let build = |cluster: Cluster| {
        RStore::builder()
            .chunk_capacity(1024)
            .cache_budget(0)
            .batch_size(usize::MAX)
            .build(cluster)
    };
    let key = |table: &str, c: u32| table_key(table, &ChunkId(c).to_key());

    // The twin: the same history, no faults.
    let twin = build(Cluster::builder().nodes(3).replication(1).build());
    assert!(commit_all(&twin, &first));
    twin.seal().unwrap();
    let before = twin.index_from_contents();
    let slots = twin.chunk_slot_count() as u32;
    assert!(commit_all(&twin, &second));
    let (_, record_key) = twin.commit_log_keys();
    let owner = twin.cluster().owner_of(&record_key).unwrap();
    let report = twin.seal().unwrap();
    let new_ids = slots..slots + report.new_chunks as u32;
    assert!(report.new_chunks > 0 && report.maps_appended > 0);

    let mut landed_on_the_record = 0;
    for k in 0..120 {
        let _ = std::fs::remove_dir_all(&dir);
        let log = || Cluster::builder().nodes(3).replication(1).engine(EngineKind::Log { dir: dir.clone() });
        let plan = FaultPlan::new(1).rule(
            FaultRule::crash(usize::MAX, TailDamage::None).on_node(owner).after(k).until(k + 1),
        );
        let config = {
            let store = build(log().faults(plan).retry(RetryPolicy::none()).build());
            // A crash before the second batch is acknowledged is
            // another test's case.
            if !commit_all(&store, &first) || store.seal().is_err() || !commit_all(&store, &second) {
                continue;
            }
            if store.seal().is_ok() {
                // The crash came after the flush: every later schedule
                // does too.
                break;
            }
            assert_eq!(store.pending_commits(), second.len(), "a failed flush keeps its batch");
            *store.config()
        };
        // What the dead attempt left behind, seen by a healthy cluster.
        let raw = log().build();
        assert_eq!(raw.get(&record_key).unwrap(), None, "k = {k}: the flush failed past its commit point");
        let stored = |table: &str| new_ids.clone().all(|c| raw.get(&key(table, c)).unwrap().is_some());
        let orphans = stored(CHUNK_TABLE) && stored(CMAP_TABLE);
        drop(raw);

        let store = RStore::reopen(config, log().build()).unwrap();
        assert_eq!(store.chunk_slot_count() as u32, slots, "k = {k}: orphans became chunks");
        assert_eq!(store.version_count(), ds.graph.len());
        assert_eq!(store.pending_commits(), second.len());
        assert_eq!(store.persisted_index().unwrap(), before, "k = {k}: not the previous generation");
        for &v in &first {
            assert_eq!(store.get_version(v).unwrap(), twin.get_version(v).unwrap(), "k = {k}: {v}");
        }
        if !orphans {
            continue;
        }
        landed_on_the_record += 1;
        // The rerun takes the same ids and overwrites the orphans.
        assert_eq!(store.seal().unwrap().new_chunks, report.new_chunks);
        for c in 0..new_ids.end {
            for table in [CHUNK_TABLE, CMAP_TABLE] {
                let (got, want) = (store.cluster().get(&key(table, c)), twin.cluster().get(&key(table, c)));
                assert_eq!(got.unwrap(), want.unwrap(), "k = {k}: {table}/{c}");
            }
        }
        assert_eq!(store.commit_log_keys(), twin.commit_log_keys());
        for log_key in store.commit_log_keys().0 {
            assert_eq!(store.cluster().get(&log_key).unwrap(), twin.cluster().get(&log_key).unwrap());
        }
        assert!(stores_agree(&twin, &store).unwrap(), "k = {k}");
    }
    assert!(landed_on_the_record > 0, "no schedule put the crash on the record put alone");
    let _ = std::fs::remove_dir_all(dir);
}

/// A hole in the commit log is damage, not its end: with records 3, 4
/// and 5 past the checkpoint, losing 4 fails the restart cleanly — it
/// must not serve generation 3 as if 4 and 5 never happened, nor skip
/// to 5 — while losing 5, the tail, is indistinguishable from a crash
/// before its commit point and serves generation 4.
#[test]
fn a_hole_in_the_commit_log_fails_the_restart() {
    let dir = std::env::temp_dir().join(format!("rstore-chaos-hole-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = chaos_dataset(92, 15, 30);
    let log = || Cluster::builder().nodes(2).engine(EngineKind::Log { dir: dir.clone() }).build();
    let (config, records, at_four) = {
        let store = store_on(log());
        let mut at_four = None;
        for v in ds.graph.ids() {
            store.commit(rstore_core::online::commit_request(&ds, v)).unwrap();
            if v.index() + 1 == 12 {
                at_four = Some(store.index_from_contents());
            }
        }
        // Batches of three: five flushes, a checkpoint after the second.
        let (keys, _) = store.commit_log_keys();
        assert_eq!(keys.len(), 4, "the checkpoint and records 3 to 5");
        (*store.config(), keys[1..].to_vec(), at_four.unwrap())
    };
    let reopen = || RStore::reopen(config, log());
    assert_eq!(reopen().unwrap().version_count(), 15);

    let lost = log().get(&records[1]).unwrap().expect("record 4");
    log().delete(&records[1]).unwrap();
    match reopen() {
        Err(rstore_core::CoreError::Codec(msg)) => assert!(msg.contains("missing before a later one"), "{msg}"),
        Err(other) => panic!("expected a codec error, got {other:?}"),
        Ok(store) => panic!("a restart skipped a lost record and serves {} versions", store.version_count()),
    }
    log().put(records[1].clone(), lost).unwrap();
    log().delete(&records[2]).unwrap();
    let store = reopen().unwrap();
    assert_eq!(store.version_count(), 12, "the last generation is the one before the lost tail");
    assert_eq!(store.persisted_index().unwrap(), at_four);
    assert_eq!(store.index_from_contents(), at_four);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}
