//! Version graphs, deltas and synthetic dataset generation for RStore.
//!
//! This crate provides the data-model substrate of the RStore paper
//! (§2.1): immutable keyed records identified by *composite keys*
//! ⟨primary key, origin version⟩, version-to-version deltas (∆⁺/∆⁻),
//! and the directed version graph that encodes how versions derive
//! from one another. It also implements:
//!
//! * DAG → tree conversion for partitioning (paper Fig. 4),
//! * a materialization oracle that reconstructs the exact record set
//!   of every version (used for query-correctness testing),
//! * the synthetic dataset generator used throughout the paper's
//!   evaluation (§5.1), with the same five control factors: branching,
//!   average depth, update percentage and skew, records per version,
//!   and number of versions — plus the bounded intra-record change
//!   percentage `Pd` of §5.3.

pub mod delta;
pub mod gen;
pub mod graph;
pub mod ids;
pub mod materialize;
pub mod record;

pub use delta::VersionDelta;
pub use gen::{Dataset, DatasetSpec, SelectionKind};
pub use graph::{VersionGraph, VersionNode};
pub use ids::{CompositeKey, PrimaryKey, VersionId};
pub use materialize::{apply_changes, MaterializedVersions, RecordStore};
pub use record::Record;
