//! BOTTOM-UP partitioning — paper §3.2, Algorithm 3.
//!
//! Process the version tree in post-order (leaves first). Every
//! version `v` hands its parent a collection π_v of item sets grouped
//! by *survival run*: how many consecutive descendant versions
//! (starting at `v`) the item appears in. When the parent `p` is
//! processed, items from a child's π that are **absent from `p`** have
//! "died" — they appear in no version above — so they can be chunked
//! immediately (the ψ sets of the paper). Groups are emitted deepest
//! run first: "records in α^p must be chunked first, followed by
//! α^{p-1}", keeping records common to many consecutive versions
//! together and out of chunks holding short-lived records.
//!
//! For versions with multiple children the run scores of items present
//! in several children are summed, per the paper's general-tree rule
//! ("assign a count based on the number of consecutive versions it
//! belongs to. The count is added for records that appear in multiple
//! sets"). Items dead below `p` are necessarily exclusive to a single
//! child branch, so dead groups never overlap (the Lemma 1 property).
//!
//! The subtree limit β (§3.2.1) caps how many run-groups a version
//! may hand to its parent; the smallest groups are merged into their
//! neighbours first, trading partitioning quality for processing
//! cost — exactly the Fig. 9 trade-off.
//!
//! Folding a child's groups into `p` asks, per group member, whether
//! it is in `p`. A membership mark answers that: before the fold,
//! every item of `s_p` is tagged with `p` in one array that is never
//! cleared (the version id is the tag), so the whole run costs one
//! pass over each `s_v` plus one probe per group member — linear in
//! the memberships, where re-walking `s_p` per child group cost
//! `groups × |s_p|`.

use super::{ChunkPacker, PartitionInput, Partitioner, Partitioning};
use rustc_hash::FxHashMap;

/// One run-group inside a π collection.
#[derive(Debug, Clone)]
struct Group {
    /// Survival-run score (≥ 1).
    run: u64,
    /// Sorted item ordinals.
    items: Vec<u32>,
}

/// The BOTTOM-UP partitioner.
#[derive(Debug, Clone)]
pub struct BottomUpPartitioner {
    beta: usize,
    capacity: usize,
}

impl BottomUpPartitioner {
    /// Creates the partitioner with subtree limit `beta` (use
    /// `usize::MAX` for the unbounded variant) and chunk `capacity`
    /// in bytes.
    pub fn new(beta: usize, capacity: usize) -> Self {
        Self {
            beta: beta.max(1),
            capacity,
        }
    }
}

impl Partitioner for BottomUpPartitioner {
    fn partition(&self, input: &PartitionInput<'_>) -> Partitioning {
        let n = input.num_items();
        // π_v for processed-but-unconsumed versions.
        let mut pi: Vec<Option<Vec<Group>>> = vec![None; input.tree.len()];
        // Scratch, tagged with the version being folded so nothing is
        // cleared between versions: `in_v[item] == v` marks `item ∈
        // s_v`, and `score[item]` is then its run score accumulated
        // from v's children.
        let mut score = vec![0u64; n];
        let mut in_v = vec![u32::MAX; n];
        let mut emissions = Emissions::new(n);

        for v in input.tree.post_order() {
            let vi = v.index();
            let s_v = &input.version_items[vi];
            let this_epoch = vi as u32;
            for &item in s_v {
                in_v[item as usize] = this_epoch;
                score[item as usize] = 0;
            }

            // Fold children's π collections into live scores and dead
            // emissions: one mark probe per group member.
            let mut dead_groups: Vec<Group> = Vec::new();
            for &child in &input.tree.node(v).children {
                let child_groups = pi[child.index()].take().expect("post-order");
                for g in child_groups {
                    let mut dead: Vec<u32> = Vec::new();
                    for &item in &g.items {
                        let iu = item as usize;
                        if in_v[iu] == this_epoch {
                            score[iu] += g.run;
                        } else {
                            dead.push(item);
                        }
                    }
                    if !dead.is_empty() {
                        dead_groups.push(Group {
                            run: g.run,
                            items: dead,
                        });
                    }
                }
            }

            // ψ_v: emit dead items, deepest survival runs first.
            dead_groups.sort_by_key(|g| std::cmp::Reverse(g.run));
            for g in &dead_groups {
                emissions.emit(g.run, &g.items);
            }

            // π_v: group v's items by 1 + accumulated child score.
            let mut by_run: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
            for &item in s_v {
                by_run
                    .entry(1 + score[item as usize])
                    .or_default()
                    .push(item);
            }
            let mut groups: Vec<Group> = by_run
                .into_iter()
                .map(|(run, items)| Group { run, items })
                .collect();
            groups.sort_by_key(|g| g.run);
            merge_to_beta(&mut groups, self.beta);
            pi[vi] = Some(groups);
        }

        emissions.emit_root(&mut pi);
        emissions.pack(input.item_sizes, self.capacity)
    }

    fn name(&self) -> &'static str {
        "BOTTOM-UP"
    }
}

/// The ψ emissions of one run, in traversal order, and the items they
/// have placed so far: an item is emitted once, by its first group.
struct Emissions {
    /// `(run, order, items)` per emitted group.
    groups: Vec<(u64, u32, Vec<u32>)>,
    placed: Vec<bool>,
}

impl Emissions {
    fn new(n: usize) -> Self {
        Self {
            groups: Vec::new(),
            placed: vec![false; n],
        }
    }

    /// Emits the items of `items` not placed yet as one group.
    fn emit(&mut self, run: u64, items: &[u32]) {
        let fresh: Vec<u32> = items
            .iter()
            .copied()
            .filter(|&i| !self.placed[i as usize])
            .collect();
        if fresh.is_empty() {
            return;
        }
        for &i in &fresh {
            self.placed[i as usize] = true;
        }
        let order = self.groups.len() as u32;
        self.groups.push((run, order, fresh));
    }

    /// The root's π never meets a parent: everything still alive at
    /// the root is emitted now, deepest runs first.
    fn emit_root(&mut self, pi: &mut [Option<Vec<Group>>]) {
        if let Some(mut root_groups) = pi
            .get_mut(rstore_vgraph::VersionId::ROOT.index())
            .and_then(Option::take)
        {
            root_groups.sort_by_key(|g| std::cmp::Reverse(g.run));
            for g in &root_groups {
                self.emit(g.run, &g.items);
            }
        }
    }

    /// Final packing — the paper's "partial chunks ... are merged at
    /// the end": groups with equal survival runs are chunked together
    /// across versions (per §3.2's general-tree rule), so long-lived
    /// records from different parts of the tree share chunks instead
    /// of each dragging a per-version partial chunk. Within a run,
    /// traversal order keeps temporal neighbours adjacent.
    fn pack(mut self, item_sizes: &[u32], capacity: usize) -> Partitioning {
        let bucket = |run: u64| 63 - run.max(1).leading_zeros();
        self.groups
            .sort_by(|a, b| bucket(b.0).cmp(&bucket(a.0)).then(a.1.cmp(&b.1)));
        let mut packer = ChunkPacker::new(self.placed.len(), capacity);
        for (_, _, items) in &self.groups {
            packer.add_group(items, item_sizes);
        }
        // Safety net for items in no version at all.
        for (item, was_placed) in self.placed.iter().enumerate() {
            if !was_placed {
                packer.add_item(item as u32, item_sizes[item]);
            }
        }
        packer.finish()
    }
}

/// Reduces a π collection to at most `beta` groups by repeatedly
/// merging the smallest group into its neighbour with the next-smaller
/// run (§3.2.1). Groups stay sorted by run ascending.
fn merge_to_beta(groups: &mut Vec<Group>, beta: usize) {
    while groups.len() > beta {
        // Find the smallest group by item count.
        let (idx, _) = groups
            .iter()
            .enumerate()
            .min_by_key(|(_, g)| g.items.len())
            .expect("non-empty");
        let g = groups.remove(idx);
        // Merge into the neighbour below (next-smaller run); the first
        // group merges upward instead.
        let target = if idx > 0 { idx - 1 } else { 0 };
        let t = &mut groups[target];
        let mut merged = Vec::with_capacity(t.items.len() + g.items.len());
        let (mut i, mut j) = (0, 0);
        while i < t.items.len() || j < g.items.len() {
            match (t.items.get(i), g.items.get(j)) {
                (Some(&a), Some(&b)) if a <= b => {
                    merged.push(a);
                    i += 1;
                }
                (Some(_), Some(&b)) => {
                    merged.push(b);
                    j += 1;
                }
                (Some(&a), None) => {
                    merged.push(a);
                    i += 1;
                }
                (None, Some(&b)) => {
                    merged.push(b);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        t.items = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::testutil;
    use crate::partition::traversal::TraversalPartitioner;
    use proptest::prelude::*;
    use rstore_vgraph::{DatasetSpec, VersionGraph};

    /// The merge-walk fold, verbatim — `s_v` re-walked from its start
    /// for every child group, a score reset by epoch on first touch:
    /// the identity oracle for [`BottomUpPartitioner::partition`].
    fn partition_reference(
        beta: usize,
        capacity: usize,
        input: &PartitionInput<'_>,
    ) -> Partitioning {
        let n = input.num_items();
        let mut pi: Vec<Option<Vec<Group>>> = vec![None; input.tree.len()];
        let mut score = vec![0u64; n];
        let mut epoch = vec![u32::MAX; n];
        let mut emissions = Emissions::new(n);
        for v in input.tree.post_order() {
            let vi = v.index();
            let s_v = &input.version_items[vi];
            let this_epoch = vi as u32;
            let mut dead_groups: Vec<Group> = Vec::new();
            for &child in &input.tree.node(v).children {
                for g in pi[child.index()].take().expect("post-order") {
                    let mut dead: Vec<u32> = Vec::new();
                    let mut k = 0usize;
                    for &item in &g.items {
                        while k < s_v.len() && s_v[k] < item {
                            k += 1;
                        }
                        if k < s_v.len() && s_v[k] == item {
                            let iu = item as usize;
                            if epoch[iu] != this_epoch {
                                epoch[iu] = this_epoch;
                                score[iu] = 0;
                            }
                            score[iu] += g.run;
                        } else {
                            dead.push(item);
                        }
                    }
                    if !dead.is_empty() {
                        dead_groups.push(Group {
                            run: g.run,
                            items: dead,
                        });
                    }
                }
            }
            dead_groups.sort_by_key(|g| std::cmp::Reverse(g.run));
            for g in &dead_groups {
                emissions.emit(g.run, &g.items);
            }
            let mut by_run: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
            for &item in s_v {
                let iu = item as usize;
                let child_score = if epoch[iu] == this_epoch {
                    score[iu]
                } else {
                    0
                };
                by_run.entry(1 + child_score).or_default().push(item);
            }
            let mut groups: Vec<Group> = by_run
                .into_iter()
                .map(|(run, items)| Group { run, items })
                .collect();
            groups.sort_by_key(|g| g.run);
            merge_to_beta(&mut groups, beta.max(1));
            pi[vi] = Some(groups);
        }
        emissions.emit_root(&mut pi);
        emissions.pack(input.item_sizes, capacity)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On random tiny histories, branched or not, the mark fold
        /// partitions exactly as the merge-walk fold does, unbounded
        /// and under a subtree limit.
        #[test]
        fn bottom_up_matches_the_merge_walk_reference(
            seed in any::<u64>(),
            num_versions in 2usize..60,
            branch_prob in 0.0f64..0.5,
            capacity in prop_oneof![Just(256usize), Just(512), Just(2048)],
        ) {
            let mut spec = DatasetSpec::tiny(seed);
            spec.num_versions = num_versions;
            spec.branch_prob = branch_prob;
            let bundle = testutil::from_spec(&spec);
            let input = bundle.input();
            for beta in [usize::MAX, 3] {
                let got = BottomUpPartitioner::new(beta, capacity).partition(&input);
                prop_assert_eq!(got, partition_reference(beta, capacity, &input), "beta {}", beta);
            }
        }
    }

    #[test]
    fn valid_on_random_datasets() {
        for seed in [1, 2, 3] {
            let bundle = testutil::from_spec(&DatasetSpec::tiny(seed));
            let out = BottomUpPartitioner::new(usize::MAX, 512).partition(&bundle.input());
            out.validate(&bundle.item_sizes, 512, 0.25).unwrap();
        }
    }

    #[test]
    fn valid_on_chains() {
        let bundle = testutil::from_spec(&DatasetSpec::tiny_chain(4));
        let out = BottomUpPartitioner::new(usize::MAX, 512).partition(&bundle.input());
        out.validate(&bundle.item_sizes, 512, 0.25).unwrap();
    }

    #[test]
    fn groups_long_runs_together_on_chain() {
        // Chain V0→V1→V2→V3. Item 0 lives in all versions; items 1..3
        // die quickly. The long-run item must not share a chunk with
        // the one-version items when capacity forces a split.
        let mut tree = VersionGraph::new();
        let v0 = tree.add_root();
        let v1 = tree.add_version(&[v0]);
        let v2 = tree.add_version(&[v1]);
        let _v3 = tree.add_version(&[v2]);
        let version_items: Vec<Vec<u32>> = vec![
            vec![0, 1],       // V0: long-runner + V0-only item
            vec![0, 2],       // V1
            vec![0, 3],       // V2
            vec![0],          // V3
        ];
        let sizes = vec![10u32; 4];
        let pks = vec![0u64; 4];
        let input = PartitionInput {
            tree: &tree,
            version_items: &version_items,
            item_sizes: &sizes,
            item_pk: &pks,
        };
        let out = BottomUpPartitioner::new(usize::MAX, 20).partition(&input);
        out.validate(&sizes, 20, 0.25).unwrap();
        // Item 0 survives to the root with run 4; items 1,2,3 die along
        // the way. Short-lived items share chunks among themselves.
        let short_chunks: Vec<u32> = [1u32, 2, 3].iter().map(|&i| out.chunk_of[i as usize]).collect();
        assert!(
            short_chunks.iter().filter(|&&c| c == out.chunk_of[0]).count() <= 1,
            "long-run item shares its chunk with short-lived ones: {out:?}"
        );
    }

    #[test]
    fn beats_or_matches_traversals_on_branched_data() {
        let mut bu_total = 0usize;
        let mut dfs_total = 0usize;
        for seed in 0..6 {
            let mut spec = DatasetSpec::tiny(300 + seed);
            spec.num_versions = 80;
            spec.branch_prob = 0.25;
            let bundle = testutil::from_spec(&spec);
            let input = bundle.input();
            let bu = BottomUpPartitioner::new(usize::MAX, 1024).partition(&input);
            let dfs = TraversalPartitioner::depth_first(1024).partition(&input);
            bu_total += testutil::total_span(&input, &bu);
            dfs_total += testutil::total_span(&input, &dfs);
        }
        // The paper's headline: BOTTOM-UP performs uniformly well.
        // Allow a small tolerance, but it must not lose badly.
        assert!(
            bu_total as f64 <= dfs_total as f64 * 1.1,
            "BOTTOM-UP span {bu_total} much worse than DFS {dfs_total}"
        );
    }

    #[test]
    fn beta_one_still_valid() {
        let bundle = testutil::from_spec(&DatasetSpec::tiny(5));
        let out = BottomUpPartitioner::new(1, 512).partition(&bundle.input());
        out.validate(&bundle.item_sizes, 512, 0.25).unwrap();
    }

    #[test]
    fn smaller_beta_does_not_improve_span_on_average() {
        // β=1 collapses all run-length ordering information. On any
        // single tiny dataset it may win by luck; aggregated over
        // several seeds the unbounded variant must be at least as
        // good (the Fig. 9 trend).
        let mut full_total = 0usize;
        let mut tiny_total = 0usize;
        for seed in 0..8 {
            let mut spec = DatasetSpec::tiny(600 + seed);
            spec.num_versions = 60;
            spec.branch_prob = 0.15;
            let bundle = testutil::from_spec(&spec);
            let input = bundle.input();
            full_total += testutil::total_span(
                &input,
                &BottomUpPartitioner::new(usize::MAX, 512).partition(&input),
            );
            tiny_total += testutil::total_span(
                &input,
                &BottomUpPartitioner::new(1, 512).partition(&input),
            );
        }
        assert!(
            tiny_total as f64 >= full_total as f64 * 0.95,
            "β=1 aggregate span {tiny_total} unexpectedly better than unbounded {full_total}"
        );
    }

    #[test]
    fn deterministic() {
        let bundle = testutil::from_spec(&DatasetSpec::tiny(7));
        let a = BottomUpPartitioner::new(8, 256).partition(&bundle.input());
        let b = BottomUpPartitioner::new(8, 256).partition(&bundle.input());
        assert_eq!(a, b);
    }

    #[test]
    fn merge_to_beta_respects_limit_and_items() {
        let mut groups = vec![
            Group { run: 1, items: vec![1, 5] },
            Group { run: 2, items: vec![2] },
            Group { run: 3, items: vec![3, 4, 6] },
        ];
        merge_to_beta(&mut groups, 2);
        assert_eq!(groups.len(), 2);
        let total: usize = groups.iter().map(|g| g.items.len()).sum();
        assert_eq!(total, 6, "merging must not lose items");
        for g in &groups {
            assert!(g.items.windows(2).all(|w| w[0] < w[1]), "sorted");
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(BottomUpPartitioner::new(1, 1).name(), "BOTTOM-UP");
    }
}
