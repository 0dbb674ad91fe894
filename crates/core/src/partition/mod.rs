//! Partitioning records into chunks (paper §2.5, §3).
//!
//! The computational core of RStore: given the version tree and the
//! version→items relation, assign items (records, or sub-chunks when
//! compression is on) to approximately fixed-size chunks so that
//! reconstructing versions touches few chunks. The general problem is
//! NP-hard (maximal-biclique enumeration + bin packing, §2.5); the
//! algorithms here are the paper's heuristics:
//!
//! * [`shingle::ShinglePartitioner`] — min-hash similarity ordering,
//! * [`bottom_up::BottomUpPartitioner`] — the version-tree-aware
//!   algorithm of §3.2 (the paper's best performer),
//! * [`traversal::TraversalPartitioner`] — greedy DFS/BFS of §3.3,
//! * [`baselines`] — the SUBCHUNK and single-address-space layouts
//!   used as comparison points throughout §5.

use rstore_vgraph::VersionGraph;

pub mod baselines;
pub mod bottom_up;
pub mod shingle;
pub mod traversal;

/// Everything a partitioner may look at.
///
/// `items` are the placement units: individual records when
/// record-level compression is off (`k = 1`), sub-chunks otherwise.
#[derive(Debug, Clone, Copy)]
pub struct PartitionInput<'a> {
    /// The version tree (no merges; convert DAGs first with
    /// [`VersionGraph::to_tree`]).
    pub tree: &'a VersionGraph,
    /// `version_items[v]` = sorted item ordinals present in version v.
    pub version_items: &'a [Vec<u32>],
    /// `item_sizes[i]` = stored (compressed) size of item i in bytes.
    pub item_sizes: &'a [u32],
    /// `item_pk[i]` = primary key of item i (used by the SUBCHUNK
    /// baseline; version-tree algorithms ignore it).
    pub item_pk: &'a [u64],
}

impl PartitionInput<'_> {
    /// Number of items to place.
    pub fn num_items(&self) -> usize {
        self.item_sizes.len()
    }
}

/// The result: which chunk each item landed in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Partitioning {
    /// `chunk_of[item]` = chunk index.
    pub chunk_of: Vec<u32>,
    /// Number of chunks produced.
    pub num_chunks: usize,
}

impl Partitioning {
    /// Items of each chunk, in item order.
    pub fn chunk_items(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.num_chunks];
        for (item, &c) in self.chunk_of.iter().enumerate() {
            out[c as usize].push(item as u32);
        }
        out
    }

    /// Checks the fixed-chunk-size invariant (§2.5): every item is
    /// assigned, and every chunk holds at most `capacity × (1+slack)`
    /// bytes unless it contains a single oversized item.
    pub fn validate(&self, sizes: &[u32], capacity: usize, slack: f64) -> Result<(), String> {
        if self.chunk_of.len() != sizes.len() {
            return Err(format!(
                "{} assignments for {} items",
                self.chunk_of.len(),
                sizes.len()
            ));
        }
        let limit = (capacity as f64 * (1.0 + slack)) as usize;
        let mut chunk_bytes = vec![0usize; self.num_chunks];
        let mut chunk_count = vec![0usize; self.num_chunks];
        for (item, &c) in self.chunk_of.iter().enumerate() {
            let c = c as usize;
            if c >= self.num_chunks {
                return Err(format!("item {item} assigned to unknown chunk {c}"));
            }
            chunk_bytes[c] += sizes[item] as usize;
            chunk_count[c] += 1;
        }
        for (c, (&bytes, &count)) in chunk_bytes.iter().zip(&chunk_count).enumerate() {
            if count == 0 {
                return Err(format!("chunk {c} is empty"));
            }
            if bytes > limit && count > 1 {
                return Err(format!(
                    "chunk {c} holds {bytes} bytes > limit {limit} with {count} items"
                ));
            }
        }
        Ok(())
    }
}

/// A partitioning algorithm.
pub trait Partitioner {
    /// Assigns every item to a chunk.
    fn partition(&self, input: &PartitionInput<'_>) -> Partitioning;

    /// Short name for reports ("BOTTOM-UP", "SHINGLE", ...).
    fn name(&self) -> &'static str;
}

/// Selects and configures a partitioning algorithm; the chunk
/// capacity comes from the store configuration at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionerKind {
    /// Min-hash shingle ordering (§3.1).
    Shingle {
        /// Number of hash functions `l`.
        num_hashes: usize,
    },
    /// Bottom-up version-tree traversal (§3.2).
    BottomUp {
        /// Subtree size limit β (`usize::MAX` = unbounded).
        beta: usize,
    },
    /// Greedy depth-first traversal (§3.3).
    DepthFirst,
    /// Greedy breadth-first traversal (§3.3).
    BreadthFirst,
    /// SUBCHUNK baseline: group all items of a primary key (§2.2).
    SubchunkBaseline,
    /// Single-address-space baseline: one item per chunk (§2.2).
    SingleAddress,
}

impl PartitionerKind {
    /// Instantiates the partitioner packing chunks of `capacity`
    /// bytes (baselines ignore the capacity).
    pub fn build(&self, capacity: usize) -> Box<dyn Partitioner + Send + Sync> {
        match *self {
            PartitionerKind::Shingle { num_hashes } => {
                Box::new(shingle::ShinglePartitioner::new(num_hashes, capacity))
            }
            PartitionerKind::BottomUp { beta } => {
                Box::new(bottom_up::BottomUpPartitioner::new(beta, capacity))
            }
            PartitionerKind::DepthFirst => {
                Box::new(traversal::TraversalPartitioner::depth_first(capacity))
            }
            PartitionerKind::BreadthFirst => {
                Box::new(traversal::TraversalPartitioner::breadth_first(capacity))
            }
            PartitionerKind::SubchunkBaseline => Box::new(baselines::SubchunkBaseline),
            PartitionerKind::SingleAddress => Box::new(baselines::SingleAddressBaseline),
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match *self {
            PartitionerKind::Shingle { .. } => "SHINGLE",
            PartitionerKind::BottomUp { .. } => "BOTTOM-UP",
            PartitionerKind::DepthFirst => "DEPTHFIRST",
            PartitionerKind::BreadthFirst => "BREADTHFIRST",
            PartitionerKind::SubchunkBaseline => "SUBCHUNK",
            PartitionerKind::SingleAddress => "SINGLE-ADDRESS",
        }
    }
}

/// Shared greedy packer enforcing the fixed-chunk-size assumption:
/// chunks target `capacity` bytes with up to `slack` (default 25%)
/// overflow allowed to keep groups of highly-common items together.
#[derive(Debug)]
pub struct ChunkPacker {
    capacity: usize,
    limit: usize,
    chunk_of: Vec<u32>,
    num_chunks: u32,
    cur_bytes: usize,
    cur_items: usize,
}

impl ChunkPacker {
    /// Default allowed overflow fraction (paper §2.5).
    pub const DEFAULT_SLACK: f64 = 0.25;

    /// Creates a packer for `num_items` items.
    pub fn new(num_items: usize, capacity: usize) -> Self {
        Self::with_slack(num_items, capacity, Self::DEFAULT_SLACK)
    }

    /// Creates a packer with a custom slack fraction.
    pub fn with_slack(num_items: usize, capacity: usize, slack: f64) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            limit: ((capacity as f64) * (1.0 + slack)) as usize,
            chunk_of: vec![u32::MAX; num_items],
            num_chunks: 0,
            cur_bytes: 0,
            cur_items: 0,
        }
    }

    fn open_chunk(&mut self) {
        self.num_chunks += 1;
        self.cur_bytes = 0;
        self.cur_items = 0;
    }

    /// Places one item, closing the current chunk at the capacity
    /// boundary.
    pub fn add_item(&mut self, item: u32, size: u32) {
        if self.num_chunks == 0 || (self.cur_bytes + size as usize > self.capacity && self.cur_items > 0)
        {
            self.open_chunk();
        }
        self.chunk_of[item as usize] = self.num_chunks - 1;
        self.cur_bytes += size as usize;
        self.cur_items += 1;
    }

    /// Places a group of items that should stay together: the whole
    /// group goes into the current chunk if it fits within the slack
    /// limit, otherwise into a fresh chunk. Groups larger than a whole
    /// chunk spill over chunk boundaries item by item.
    pub fn add_group(&mut self, items: &[u32], sizes: &[u32]) {
        let group_bytes: usize = items.iter().map(|&i| sizes[i as usize] as usize).sum();
        if group_bytes > self.limit {
            for &i in items {
                self.add_item(i, sizes[i as usize]);
            }
            return;
        }
        let overflows = self.cur_bytes + group_bytes > self.limit && self.cur_items > 0;
        if self.num_chunks == 0 || overflows {
            self.open_chunk();
        }
        for &i in items {
            self.chunk_of[i as usize] = self.num_chunks - 1;
        }
        self.cur_bytes += group_bytes;
        self.cur_items += items.len();
    }

    /// Finishes packing.
    ///
    /// # Panics
    /// Panics if any item was never added.
    pub fn finish(self) -> Partitioning {
        assert!(
            self.chunk_of.iter().all(|&c| c != u32::MAX),
            "packer finished with unassigned items"
        );
        Partitioning {
            chunk_of: self.chunk_of,
            num_chunks: self.num_chunks as usize,
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Helpers shared by partitioner tests.

    use super::*;
    use rstore_vgraph::{DatasetSpec, MaterializedVersions, RecordStore, VersionId};

    /// Builds a [`PartitionInput`]-backing bundle from a tiny dataset.
    pub(crate) struct InputBundle {
        pub tree: VersionGraph,
        pub version_items: Vec<Vec<u32>>,
        pub item_sizes: Vec<u32>,
        pub item_pk: Vec<u64>,
    }

    impl InputBundle {
        pub(crate) fn input(&self) -> PartitionInput<'_> {
            PartitionInput {
                tree: &self.tree,
                version_items: &self.version_items,
                item_sizes: &self.item_sizes,
                item_pk: &self.item_pk,
            }
        }
    }

    pub(crate) fn from_spec(spec: &DatasetSpec) -> InputBundle {
        let ds = spec.generate();
        let store = RecordStore::from_deltas(&ds.deltas);
        let m = MaterializedVersions::build(&ds.graph, &ds.deltas, &store);
        let version_items: Vec<Vec<u32>> = (0..ds.graph.len())
            .map(|v| {
                let mut items: Vec<u32> = m
                    .contents(VersionId(v as u32))
                    .iter()
                    .map(|&(_, ord)| ord)
                    .collect();
                items.sort_unstable();
                items
            })
            .collect();
        let item_sizes: Vec<u32> = (0..store.len() as u32)
            .map(|o| store.payload(o).len() as u32)
            .collect();
        let item_pk: Vec<u64> = store.keys().iter().map(|ck| ck.pk).collect();
        InputBundle {
            tree: ds.graph.clone(),
            version_items,
            item_sizes,
            item_pk,
        }
    }

    /// Total version span of a partitioning: Σ_v |{chunks of v}|.
    pub(crate) fn total_span(input: &PartitionInput<'_>, p: &Partitioning) -> usize {
        let mut span = 0;
        let mut seen = vec![u32::MAX; p.num_chunks];
        for (v, items) in input.version_items.iter().enumerate() {
            for &i in items {
                let c = p.chunk_of[i as usize] as usize;
                if seen[c] != v as u32 {
                    seen[c] = v as u32;
                    span += 1;
                }
            }
        }
        span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packer_respects_capacity() {
        let mut p = ChunkPacker::new(10, 100);
        for i in 0..10 {
            p.add_item(i, 30);
        }
        let out = p.finish();
        // 3 items of 30 fit under 100; 10 items → 4 chunks.
        assert_eq!(out.num_chunks, 4);
        out.validate(&[30; 10], 100, 0.25).unwrap();
    }

    #[test]
    fn packer_keeps_groups_together_within_slack() {
        let sizes = [90u32, 10, 10, 10, 10, 10];
        let mut p = ChunkPacker::new(6, 100);
        p.add_item(0, 90);
        // Group of 3 × 10 = 30: 90+30 = 120 ≤ 125 limit → joins via slack.
        p.add_group(&[1, 2, 3], &sizes);
        // Group of 2 × 10 = 20: 120+20 = 140 > 125 → fresh chunk.
        p.add_group(&[4, 5], &sizes);
        let out = p.finish();
        assert_eq!(out.chunk_of[0], out.chunk_of[1]);
        assert_eq!(out.chunk_of[1], out.chunk_of[2]);
        assert_eq!(out.chunk_of[2], out.chunk_of[3]);
        assert_ne!(out.chunk_of[4], out.chunk_of[0], "second group opens new chunk");
        assert_eq!(out.chunk_of[4], out.chunk_of[5]);
        assert_eq!(out.num_chunks, 2);
    }

    #[test]
    fn packer_uses_slack_to_finish_group() {
        let mut p = ChunkPacker::new(3, 100);
        p.add_item(0, 80);
        // 40-byte group: 80+40 = 120 ≤ 125 → stays in the same chunk.
        p.add_group(&[1, 2], &[80, 20, 20]);
        let out = p.finish();
        assert_eq!(out.num_chunks, 1);
    }

    #[test]
    fn oversized_item_gets_own_chunk() {
        let mut p = ChunkPacker::new(3, 100);
        p.add_item(0, 10);
        p.add_item(1, 500);
        p.add_item(2, 10);
        let out = p.finish();
        out.validate(&[10, 500, 10], 100, 0.25).unwrap();
        assert_eq!(out.num_chunks, 3);
    }

    #[test]
    fn oversized_group_spills() {
        let mut p = ChunkPacker::new(5, 100);
        p.add_group(&[0, 1, 2, 3, 4], &[60; 5]);
        let out = p.finish();
        assert!(out.num_chunks >= 3);
        out.validate(&[60; 5], 100, 0.25).unwrap();
    }

    #[test]
    #[should_panic(expected = "unassigned items")]
    fn unassigned_items_panic() {
        let p = ChunkPacker::new(2, 100);
        let _ = p.finish();
    }

    #[test]
    fn validate_catches_empty_and_oversize() {
        let bad = Partitioning {
            chunk_of: vec![0, 0],
            num_chunks: 3,
        };
        assert!(bad.validate(&[1, 1], 10, 0.25).is_err());
        let oversize = Partitioning {
            chunk_of: vec![0, 0],
            num_chunks: 1,
        };
        assert!(oversize.validate(&[100, 100], 10, 0.25).is_err());
    }
}
