//! Property-based tests for the key-value cluster: linearizable-ish
//! single-client behaviour against a HashMap model, replication
//! invariants, and log-engine recovery under random operation mixes.

use bytes::Bytes;
use proptest::prelude::*;
use rstore_kvstore::engine::{LogEngine, StorageEngine};
use rstore_kvstore::{Cluster, FaultPlan};
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, Vec<u8>),
    Delete(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| Op::Put(k % 64, v)),
        any::<u16>().prop_map(|k| Op::Delete(k % 64)),
    ]
}

/// One client call against the cluster: a same-verb batch of 1..6
/// ops, sent either one key at a time (`put`/`get`/`delete`) or as
/// one batched call (`multi_put`/`multi_get`/`multi_delete_scatter`).
#[derive(Debug, Clone)]
enum Call {
    Put(Vec<(u16, Vec<u8>)>),
    Get(Vec<u16>),
    Delete(Vec<u16>),
}

fn call_strategy() -> impl Strategy<Value = (Call, bool)> {
    let keys = || prop::collection::vec(any::<u16>().prop_map(|k| k % 64), 1..6);
    let pair = (any::<u16>(), prop::collection::vec(any::<u8>(), 0..64))
        .prop_map(|(k, v)| (k % 64, v));
    let call = prop_oneof![
        prop::collection::vec(pair, 1..6).prop_map(Call::Put),
        keys().prop_map(Call::Get),
        keys().prop_map(Call::Delete),
    ];
    (call, any::<bool>())
}

fn wire_keys(keys: &[u16]) -> Vec<Vec<u8>> {
    keys.iter().map(|k| k.to_be_bytes().to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cluster_matches_hashmap_model(
        calls in prop::collection::vec(call_strategy(), 1..40),
        nodes in 1usize..5,
        replication in 1usize..4,
        flaky in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
    ) {
        // Either fault-free at the drawn shape, or a flaky backend
        // (every node refuses ~10% of requests) with a second replica
        // to fall back on and the default retry policy.
        let cluster = match flaky {
            None => Cluster::builder().nodes(nodes).replication(replication).build(),
            Some(seed) => Cluster::builder()
                .nodes(nodes.max(2))
                .replication(2)
                .faults(FaultPlan::flaky(seed))
                .build(),
        };
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        // Per-key totals of everything sent, singly or in a batch.
        let (mut puts, mut gets, mut deletes, mut bytes_written) = (0u64, 0u64, 0u64, 0u64);
        for (call, batched) in &calls {
            match call {
                Call::Put(pairs) => {
                    let wire = pairs
                        .iter()
                        .map(|(k, v)| (k.to_be_bytes().to_vec(), Bytes::from(v.clone())));
                    if *batched {
                        cluster.multi_put(wire.collect()).unwrap();
                    } else {
                        for (k, v) in wire {
                            cluster.put(k, v).unwrap();
                        }
                    }
                    puts += pairs.len() as u64;
                    bytes_written += pairs.iter().map(|(_, v)| 2 + v.len() as u64).sum::<u64>();
                    model.extend(pairs.iter().cloned());
                }
                Call::Get(keys) => {
                    let wire = wire_keys(keys);
                    let got = if *batched {
                        cluster.multi_get(&wire).unwrap()
                    } else {
                        wire.iter().map(|k| cluster.get(k).unwrap()).collect()
                    };
                    // A key every replica holds is read on one; a
                    // missing key walks every replica.
                    let r = cluster.replication() as u64;
                    gets += keys.iter().map(|k| if model.contains_key(k) { 1 } else { r }).sum::<u64>();
                    for (k, v) in keys.iter().zip(got) {
                        prop_assert_eq!(
                            v.as_ref().map(|b| b.as_ref()),
                            model.get(k).map(|x| x.as_slice())
                        );
                    }
                }
                Call::Delete(keys) => {
                    let wire = wire_keys(keys);
                    if *batched {
                        cluster.multi_delete_scatter(wire).unwrap();
                    } else {
                        for k in &wire {
                            cluster.delete(k).unwrap();
                        }
                    }
                    deletes += keys.len() as u64;
                    for k in keys {
                        model.remove(k);
                    }
                }
            }
        }
        // Replay restores full replication and the gauge follows.
        cluster.replay_hints().unwrap();
        prop_assert_eq!(cluster.pending_hints(), 0);
        let stats = cluster.stats();
        prop_assert_eq!(stats.under_replicated, 0);
        if flaky.is_none() {
            // Per-key accounting is the same whether an op arrived
            // singly or in a batch: every write and delete lands once
            // per replica, every read of a stored key on one replica.
            let r = cluster.replication() as u64;
            prop_assert_eq!(stats.puts, r * puts);
            prop_assert_eq!(stats.bytes_written, r * bytes_written);
            prop_assert_eq!(stats.deletes, r * deletes);
            prop_assert_eq!(stats.gets, gets);
        }
        // Final multi-get over the whole key space agrees with the model.
        let values = cluster.multi_get(&wire_keys(&(0u16..64).collect::<Vec<_>>())).unwrap();
        for (k, v) in (0u16..64).zip(values) {
            prop_assert_eq!(
                v.as_ref().map(|b| b.as_ref()),
                model.get(&k).map(|x| x.as_slice())
            );
        }
    }

    #[test]
    fn reads_survive_any_single_node_failure_with_r2(
        ops in prop::collection::vec(op_strategy(), 1..40),
        down in 0usize..3,
    ) {
        let cluster = Cluster::builder().nodes(3).replication(2).build();
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        for op in &ops {
            if let Op::Put(k, v) = op {
                cluster.put(k.to_be_bytes().to_vec(), Bytes::from(v.clone())).unwrap();
                model.insert(*k, v.clone());
            }
        }
        cluster.set_node_down(down, true);
        for (k, v) in &model {
            let got = cluster.get(&k.to_be_bytes()).unwrap();
            prop_assert_eq!(got.as_ref().map(|b| b.as_ref()), Some(v.as_slice()));
        }
    }

    #[test]
    fn log_engine_recovery_matches_model(
        ops in prop::collection::vec(op_strategy(), 1..60),
        torn_bytes in prop::collection::vec(any::<u8>(), 0..7),
    ) {
        let path = std::env::temp_dir().join(format!(
            "rstore-prop-log-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        {
            let mut engine = LogEngine::open(&path).unwrap();
            for op in &ops {
                match op {
                    Op::Put(k, v) => {
                        engine.put(k.to_be_bytes().to_vec(), Bytes::from(v.clone())).unwrap();
                        model.insert(*k, v.clone());
                    }
                    Op::Delete(k) => {
                        engine.delete(&k.to_be_bytes()).unwrap();
                        model.remove(k);
                    }
                }
            }
        }
        // Simulate a torn tail write, then recover.
        if !torn_bytes.is_empty() {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&torn_bytes).unwrap();
        }
        let mut engine = LogEngine::open(&path).unwrap();
        prop_assert_eq!(engine.len(), model.len());
        for (k, v) in &model {
            let got = engine.get(&k.to_be_bytes()).unwrap();
            prop_assert_eq!(got.as_ref().map(|b| b.as_ref()), Some(v.as_slice()));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ring_routing_is_stable_under_any_key(key in prop::collection::vec(any::<u8>(), 0..64)) {
        use rstore_kvstore::ring::Ring;
        let ring = Ring::new(8, 64);
        let a = ring.replicas(&key, 3);
        let b = ring.replicas(&key, 3);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), 3);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), 3);
        prop_assert_eq!(a[0], ring.primary(&key));
    }
}
