//! # RStore — a distributed multi-version document store
//!
//! This crate is the public façade of the RStore workspace, a
//! reproduction of *"RStore: A Distributed Multi-version Document
//! Store"* (Bhattacherjee & Deshpande, ICDE 2018).
//!
//! RStore stores a large number of versions (snapshots) of a collection
//! of keyed records on top of a distributed key-value store, and answers
//! four classes of retrieval queries efficiently:
//!
//! * **Record retrieval** — one record from one version,
//! * **Version retrieval** — all records of a version,
//! * **Range retrieval** — a primary-key range within a version,
//! * **Record evolution** — every value a primary key ever had.
//!
//! The key mechanism is *chunking*: distinct records are grouped into
//! approximately fixed-size chunks so that reconstructing a version
//! touches as few chunks as possible (the *version span*). Partitioning
//! algorithms that exploit the version graph decide the grouping.
//!
//! ## Quick start
//!
//! ```
//! use rstore::prelude::*;
//!
//! // An in-process 4-node cluster standing in for e.g. Cassandra.
//! let cluster = Cluster::builder().nodes(4).build();
//!
//! // Configure RStore on top of it.
//! let mut store = RStore::builder()
//!     .chunk_capacity(64 * 1024)
//!     .partitioner(PartitionerKind::BottomUp { beta: usize::MAX })
//!     .build(cluster);
//!
//! // Commit a root version and a child version.
//! let v0 = store
//!     .commit(CommitRequest::root([
//!         (0u64, br#"{"name":"ada"}"#.to_vec()),
//!         (1u64, br#"{"name":"grace"}"#.to_vec()),
//!     ]))
//!     .unwrap();
//! let _v1 = store
//!     .commit(
//!         CommitRequest::child_of(v0)
//!             .update(1u64, br#"{"name":"grace hopper"}"#.to_vec())
//!             .insert(2u64, br#"{"name":"barbara"}"#.to_vec()),
//!     )
//!     .unwrap();
//! store.seal().unwrap();
//!
//! // Retrieve the full root version.
//! let recs = store.get_version(v0).unwrap();
//! assert_eq!(recs.len(), 2);
//! ```
//!
//! See the `examples/` directory for realistic end-to-end scenarios and
//! `docs/PAPER_RESULTS.md` for every table and figure of the paper as
//! this reproduction measures it.

pub use rstore_compress as compress;
pub use rstore_core as core;
pub use rstore_kvstore as kvstore;
pub use rstore_vgraph as vgraph;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use rstore_core::{
        cost::{CostModel, StrategyCosts},
        model::{CompositeKey, PrimaryKey, Record, VersionId},
        partition::{Partitioner, PartitionerKind},
        query::QueryStats,
        server::{ApplicationServer, BranchName},
        store::{CommitRequest, RStore, RStoreBuilder, StoreConfig},
    };
    pub use rstore_kvstore::{Cluster, ClusterBuilder, NetworkModel};
    pub use rstore_vgraph::{
        gen::{DatasetSpec, SelectionKind},
        graph::VersionGraph,
    };
}
