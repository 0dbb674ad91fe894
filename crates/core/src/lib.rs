//! RStore core: chunking, partitioning algorithms, indexes and query
//! processing.
//!
//! This crate implements the primary contribution of *"RStore: A
//! Distributed Multi-version Document Store"* (Bhattacherjee &
//! Deshpande, ICDE 2018): a versioning layer over a distributed
//! key-value store that
//!
//! * stores each distinct record exactly once, grouped into
//!   approximately fixed-size **chunks** ([`chunk`]),
//! * keeps per-chunk **chunk maps** recording which records belong to
//!   which versions ([`chunkmap`]), plus two lossy in-memory
//!   projections — version→chunks and key→chunks ([`index`]) — that
//!   drive query planning,
//! * decides record placement with the paper's **partitioning
//!   algorithms** ([`partition`]): SHINGLE, BOTTOM-UP, DEPTH-FIRST and
//!   BREADTH-FIRST, next to the SUBCHUNK / single-address baselines,
//! * exploits intra-key similarity through **sub-chunks** of up to `k`
//!   same-key records, delta-encoded and compressed ([`subchunk`]),
//! * ingests new versions through a batched **online** path
//!   ([`online`]) that never re-partitions placed records,
//! * wins the offline layout quality back on long-running online
//!   stores through a crash-safe, explicitly called
//!   **compaction/repartitioning** subsystem ([`compact`]),
//! * answers the four query classes of §2.1 — record, version, range
//!   and evolution retrieval — through an explicit
//!   **plan → fetch → extract** pipeline ([`plan`], [`store`],
//!   [`query`]): one index consultation, a node-aware parallel
//!   scatter-gather fetch, and streaming per-chunk extraction,
//! * and exposes VCS-style branch/commit/checkout commands
//!   ([`server`]).
//!
//! The analytical cost model of paper Table 1 lives in [`cost`].

pub mod cache;
pub mod chunk;
pub mod chunkmap;
pub mod compact;
pub mod cost;
pub mod error;
pub mod index;
mod ingest;
pub mod model;
pub mod obs;
pub mod online;
pub mod partition;
pub mod plan;
pub mod query;
pub mod serve;
pub mod server;
pub mod store;
pub mod subchunk;

pub use cache::{CacheStats, ChunkCache, DecodedChunk};
pub use compact::{CompactionConfig, CompactionReport, CompactionStages, FragmentationStats};
pub use error::CoreError;
#[doc(hidden)]
pub use ingest::{GenerationRecord, MapAppend, NewChunk, SerializedIndex};
pub use model::{ChunkId, CompositeKey, PrimaryKey, Record, VersionId};
pub use obs::{
    HistSummary, MetricsRegistry, ObsConfig, QueryTrace, SlowQuery, SlowReason, StoreStats,
    TraceConfig, TraceSpan,
};
pub use partition::{Partitioner, PartitionerKind};
pub use plan::{ExecutedQuery, HedgeConfig, QueryPlan, QuerySpec, RecordStream};
pub use serve::{Admission, AdmitGuard, FetchPool, ServeStats, SMALL_SPAN_MAX};
pub use store::{
    CommitRequest, PinnedSnapshot, RStore, RStoreBuilder, ReclaimReport, StoreConfig,
    StoreSnapshot,
};
