//! Property-based tests for version graphs, deltas and the dataset
//! generator: delta consistency, materialization invariants, and
//! graph-traversal laws on randomly generated datasets.

use proptest::prelude::*;
use rstore_vgraph::{
    DatasetSpec, MaterializedVersions, PrimaryKey, RecordStore, SelectionKind, VersionDelta,
    VersionGraph, VersionId,
};
use rustc_hash::FxHashMap;

fn spec_strategy() -> impl Strategy<Value = DatasetSpec> {
    (
        1u64..10_000,
        2usize..40,
        5usize..60,
        0.0f64..0.5,
        0.0f64..0.5,
        0.0f64..0.1,
        0.0f64..0.1,
        prop::bool::ANY,
        24usize..200,
        0.01f64..0.5,
    )
        .prop_map(
            |(seed, nv, rr, bp, uf, inf, df, zipf, rs, pd)| DatasetSpec {
                name: format!("prop-{seed}"),
                num_versions: nv,
                root_records: rr,
                branch_prob: bp,
                update_frac: uf,
                insert_frac: inf,
                delete_frac: df,
                selection: if zipf {
                    SelectionKind::Zipf { theta: 1.2 }
                } else {
                    SelectionKind::Uniform
                },
                record_size: rs,
                pd,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_deltas_validate_and_materialize(spec in spec_strategy()) {
        let ds = spec.generate();
        prop_assert_eq!(ds.graph.len(), spec.num_versions);
        prop_assert_eq!(ds.deltas.len(), spec.num_versions);
        for (i, d) in ds.deltas.iter().enumerate() {
            d.validate(VersionId(i as u32))
                .map_err(|e| TestCaseError::fail(format!("delta {i}: {e}")))?;
        }
        // Materialization must not panic and must be internally
        // consistent: version sizes respect the update/insert/delete
        // arithmetic.
        let store = ds.record_store();
        let m = ds.materialize(&store);
        for node in ds.graph.nodes() {
            let d = &ds.deltas[node.id.index()];
            match node.primary_parent() {
                None => {
                    prop_assert_eq!(m.record_count(node.id), d.added.len());
                }
                Some(p) => {
                    let expect =
                        m.record_count(p) + d.added.len() - d.removed.len();
                    prop_assert_eq!(m.record_count(node.id), expect);
                }
            }
        }
    }

    #[test]
    fn record_versions_is_exact_inverse(spec in spec_strategy()) {
        let ds = spec.generate();
        let store = ds.record_store();
        let m = ds.materialize(&store);
        let rv = m.record_versions(store.len());
        // Sum of inverse lists equals total bipartite edges.
        let total: usize = rv.iter().map(Vec::len).sum();
        prop_assert_eq!(total, m.total_entries());
        // Every record's version list contains its origin version.
        for (ord, versions) in rv.iter().enumerate() {
            if versions.is_empty() {
                continue; // record overwritten in the same commit cannot happen
            }
            let ck = store.key(ord as u32);
            prop_assert_eq!(versions[0], ck.origin, "record {} first version", ord);
            // Lists are strictly increasing.
            prop_assert!(versions.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn traversals_visit_every_version_once(spec in spec_strategy()) {
        let ds = spec.generate();
        let n = ds.graph.len();
        for order in [ds.graph.dfs_order(), ds.graph.bfs_order(), ds.graph.post_order()] {
            prop_assert_eq!(order.len(), n);
            let mut seen = vec![false; n];
            for v in &order {
                prop_assert!(!seen[v.index()], "duplicate visit");
                seen[v.index()] = true;
            }
        }
        // Post-order: children precede parents.
        let post = ds.graph.post_order();
        let mut position = vec![0usize; n];
        for (i, v) in post.iter().enumerate() {
            position[v.index()] = i;
        }
        for node in ds.graph.nodes() {
            for &c in &node.children {
                prop_assert!(position[c.index()] < position[node.id.index()]);
            }
        }
    }

    #[test]
    fn depths_and_paths_agree(spec in spec_strategy()) {
        let ds = spec.generate();
        for node in ds.graph.nodes() {
            let path = ds.graph.path_from_root(node.id);
            prop_assert_eq!(path.len() as u32, node.depth + 1);
            prop_assert_eq!(path[0], VersionId::ROOT);
            prop_assert_eq!(*path.last().unwrap(), node.id);
        }
    }

    #[test]
    fn contents_respect_key_uniqueness(spec in spec_strategy()) {
        let ds = spec.generate();
        let store = ds.record_store();
        let m = ds.materialize(&store);
        for v in ds.graph.ids() {
            let contents = m.contents(v);
            // Sorted by pk with no duplicates: a version holds at most
            // one record per primary key.
            prop_assert!(contents.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn tree_conversion_preserves_nodes_and_primary_edges(spec in spec_strategy()) {
        let ds = spec.generate();
        let tree = ds.graph.to_tree();
        prop_assert_eq!(tree.len(), ds.graph.len());
        prop_assert!(!tree.has_merges());
        for (a, b) in ds.graph.nodes().iter().zip(tree.nodes()) {
            prop_assert_eq!(a.primary_parent(), b.primary_parent());
            prop_assert_eq!(a.depth, b.depth);
        }
    }
}

/// The per-version hash-map replay `MaterializedVersions::build` ran
/// before it merged sorted runs: the reference it must agree with.
fn hashed_contents(
    graph: &VersionGraph,
    deltas: &[VersionDelta],
    store: &RecordStore,
) -> Vec<Vec<(PrimaryKey, u32)>> {
    let mut contents: Vec<Vec<(PrimaryKey, u32)>> = vec![Vec::new(); graph.len()];
    for node in graph.nodes() {
        let mut map: FxHashMap<PrimaryKey, u32> = match node.primary_parent() {
            Some(p) => contents[p.index()].iter().copied().collect(),
            None => FxHashMap::default(),
        };
        let delta = &deltas[node.id.index()];
        for &ck in &delta.removed {
            assert_eq!(map.remove(&ck.pk), store.ord(ck));
        }
        for rec in &delta.added {
            assert!(map.insert(rec.pk, store.ord(rec.composite_key()).unwrap()).is_none());
        }
        let mut list: Vec<_> = map.into_iter().collect();
        list.sort_unstable();
        contents[node.id.index()] = list;
    }
    contents
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every version's contents equal the hash-map replay's, on tiny
    /// datasets whose graphs also get merge edges: a version may take
    /// any earlier version as a second parent, which materialization
    /// ignores (it replays along primary parents only).
    #[test]
    fn merged_materialization_matches_the_hash_map_replay(
        seed in 1u64..10_000,
        merges in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..8),
    ) {
        let ds = DatasetSpec::tiny(seed).generate();
        let mut extra: Vec<Option<VersionId>> = vec![None; ds.graph.len()];
        for (child, other) in merges {
            let child = 1 + child.index(ds.graph.len() - 1);
            extra[child] = Some(VersionId(other.index(child) as u32));
        }
        let mut graph = VersionGraph::new();
        let mut merged = false;
        for node in ds.graph.nodes() {
            let Some(p) = node.primary_parent() else {
                graph.add_root();
                continue;
            };
            let second = extra[node.id.index()].filter(|&o| o != p);
            merged |= second.is_some();
            graph.add_version(&std::iter::once(p).chain(second).collect::<Vec<_>>());
        }
        prop_assert_eq!(graph.has_merges(), merged);
        let store = ds.record_store();
        let reference = hashed_contents(&graph, &ds.deltas, &store);
        let m = MaterializedVersions::build(&graph, &ds.deltas, &store);
        for v in graph.ids() {
            prop_assert_eq!(m.contents(v), &reference[v.index()][..], "version {}", v);
        }
    }
}
