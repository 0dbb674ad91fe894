//! A from-scratch multi-node key-value store.
//!
//! RStore is "intended to act as a layer on top of a distributed
//! key-value store that houses the raw data as well as any indexes";
//! the paper's prototype runs on Apache Cassandra and assumes only
//! basic `get`/`put` functionality (§2.4). This crate is that
//! substrate, built from scratch:
//!
//! * every node runs on its own OS thread with an independent
//!   [`engine::StorageEngine`] (in-memory, or an append-only
//!   log-structured engine with crash recovery),
//! * a consistent-hash [`ring::Ring`] with virtual nodes routes keys,
//!   exactly as a Cassandra driver would,
//! * writes go to `replication` successive ring nodes; reads are
//!   served by the first live replica,
//! * a configurable [`NetworkModel`] charges every request a network
//!   round trip plus per-byte transfer time, so retrieval costs have
//!   the same *shape* as a networked cluster — this is the substitution
//!   for the paper's 16-node testbed, and it preserves the paper's
//!   central performance driver, the too-many-queries problem (§2.3),
//! * [`stats::ClusterStats`] counts requests and bytes, the quantities
//!   the paper's cost analysis (Table 1) is expressed in, and keeps
//!   one slot per node: its read batches, and the service-time EWMA
//!   the query executor's hedging reads.
//!
//! The store is deliberately unaware of versions, chunks or indexes —
//! those live in `rstore-core`, preserving the paper's layering.

pub mod cluster;
pub mod engine;
pub mod error;
pub mod fault;
pub mod hist;
pub mod msg;
pub mod netmodel;
pub mod ring;
pub mod stats;
pub mod types;

pub use cluster::{Cluster, ClusterBuilder, ClusterWriter, EngineKind, WriteSummary};
pub use error::KvError;
pub use fault::{FaultAction, FaultPlan, FaultRule, RetryPolicy, TailDamage};
pub use hist::{HistSnapshot, Histogram};
pub use msg::{BatchDelete, BatchGet, BatchPut};
pub use netmodel::NetworkModel;
pub use stats::{NodeStats, StatsSnapshot};
pub use types::{table_key, Key, Value};
