//! The four named workloads: one pipeline — bulk load, online replay,
//! compaction, restart, the four query classes — under four regimes
//! that each put the measured seconds on different layers.

use rstore_core::compact::CompactionConfig;
use rstore_core::store::{RStore, RStoreBuilder, DEFAULT_CACHE_BUDGET};
use rstore_core::PartitionerKind;
use rstore_kvstore::{Cluster, EngineKind, NetworkModel};
use std::path::{Path, PathBuf};

/// Nodes in every cluster the benchmark builds (replication 1).
pub const NODES: usize = 4;
/// Chunk capacity of every store.
pub const CHUNK_CAPACITY: usize = 16 * 1024;
/// Sub-chunk limit of bulk-loaded stores.
pub const BULK_SUBCHUNK: usize = 4;
/// The online replay flushes after every this many commits.
pub const FLUSH_EVERY: usize = 8;

/// Where a workload spends its measured seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Focus {
    /// A closed query loop on the bulk-loaded store; the write side is
    /// sampled on a prefix of the history.
    Reads,
    /// Whole ingest cycles on the full history; the read side is
    /// sampled on each restarted store.
    Ingest,
}

/// One workload: its regime and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub focus: Focus,
    /// Sleeping LAN model instead of the zero-cost network.
    pub lan: bool,
    /// Decoded-chunk cache budget of every store of the run.
    pub cache_budget: usize,
    /// Untimed query blocks before the measured phase.
    pub warmup_blocks: usize,
    /// Make every chunk resident and decoded before the warm-up.
    pub resident_pass: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_cold",
        why: "cache holds 5% of the decoded data, zero network: CPU truth for fetch, deserialize, decode, extract",
        focus: Focus::Reads,
        lan: false,
        cache_budget: 2 * 1024 * 1024,
        warmup_blocks: 4,
        resident_pass: false,
    },
    Workload {
        name: "read_hot",
        why: "cache holds everything decoded: only plan, cache probe and extract work; codec and cluster changes must not move it",
        focus: Focus::Reads,
        lan: false,
        cache_budget: 256 * 1024 * 1024,
        warmup_blocks: 4,
        resident_pass: true,
    },
    Workload {
        name: "read_lan",
        why: "sleeping LAN model, cache off: round trips, span and per-node batching dominate, codec speed barely shows",
        focus: Focus::Reads,
        lan: true,
        cache_budget: 0,
        warmup_blocks: 1,
        resident_pass: false,
    },
    Workload {
        name: "ingest_online",
        why: "log engine, full history: bulk load, commit replay, compaction and restart, where read-side gains that cost writes show",
        focus: Focus::Ingest,
        lan: false,
        cache_budget: DEFAULT_CACHE_BUDGET,
        warmup_blocks: 0,
        resident_pass: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    fn network(&self) -> NetworkModel {
        if self.lan {
            NetworkModel::lan()
        } else {
            NetworkModel::zero()
        }
    }

    /// A fresh in-memory cluster under this workload's network.
    pub fn mem_cluster(&self) -> Cluster {
        Cluster::builder()
            .nodes(NODES)
            .network(self.network())
            .build()
    }

    /// A log-engine cluster over `dir` under this workload's network;
    /// an existing directory is reopened, not cleared.
    pub fn log_cluster(&self, dir: &Path) -> Cluster {
        Cluster::builder()
            .nodes(NODES)
            .network(self.network())
            .engine(EngineKind::Log {
                dir: dir.to_path_buf(),
            })
            .build()
    }

    fn builder(&self) -> RStoreBuilder {
        RStore::builder()
            .chunk_capacity(CHUNK_CAPACITY)
            .partitioner(PartitionerKind::BottomUp { beta: usize::MAX })
            .cache_budget(self.cache_budget)
    }

    /// The bulk-loaded store (`A`).
    pub fn bulk_store(&self, cluster: Cluster) -> RStore {
        self.builder().max_subchunk(BULK_SUBCHUNK).build(cluster)
    }

    /// The online store (`B`): `k = 1`, flushes driven by the
    /// benchmark, every not-overfull chunk a compaction victim.
    pub fn online_store(&self, cluster: Cluster) -> RStore {
        self.builder()
            .max_subchunk(1)
            .batch_size(usize::MAX)
            .compaction(CompactionConfig {
                min_fill: 1.1,
                ..CompactionConfig::default()
            })
            .build(cluster)
    }
}

/// Scratch space for log-engine stores and trace files, inside the
/// directory the benchmark runs from. The per-process directory is
/// removed when the value drops.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<usize>,
}

/// Kept across runs (and ignored by git): per-process directories
/// live under it, trace files directly in it.
pub const SCRATCH_DIR: &str = ".bench_tmp";

impl Scratch {
    pub fn new() -> std::io::Result<Self> {
        let root = Path::new(SCRATCH_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A new empty directory.
    pub fn fresh_dir(&self) -> std::io::Result<PathBuf> {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("store-{n}"));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing to report to: a leftover directory is ignored by git
        // and reclaimed by the next cleanup of the scratch root.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
