//! Request/response messages between the client and node threads.

use crate::error::KvError;
use crate::types::{Key, Value};
use crossbeam::channel::Sender;
use std::time::Duration;

/// Reply to a [`Request::MultiGet`]: the fetched values plus the
/// modeled network time the node accrued serving the whole batch.
/// A node serves its batch serially, so the per-key charges add up
/// here; a scatter-gather client takes the *max* of these sums across
/// the nodes it contacted in parallel.
#[derive(Debug)]
pub struct BatchGet {
    /// Fetched values, in batch key order (`None` = key absent).
    pub values: Vec<Option<Value>>,
    /// Modeled network time for the batch (latency + transfer per
    /// key, summed over the batch).
    pub modeled: Duration,
    /// Transient-fault retries the client spent obtaining this reply
    /// (0 when the first attempt succeeded; filled in client-side).
    pub retries: usize,
}

/// Reply to a [`Request::MultiPut`]: the modeled network time the
/// node accrued storing the whole batch. As with [`BatchGet`], a node
/// serves its batch serially (per-pair charges add up) while nodes
/// overlap, so a scatter-gather writer takes the *max* of these sums
/// across the nodes it contacted in parallel.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchPut {
    /// Pairs stored by this batch.
    pub stored: usize,
    /// Modeled network time for the batch (latency + transfer per
    /// pair, summed over the batch).
    pub modeled: Duration,
}

/// Reply to a [`Request::MultiDelete`]: how many keys the node
/// removed and the modeled network time it accrued doing so. As with
/// [`BatchGet`]/[`BatchPut`], a node serves its batch serially while
/// nodes overlap, so a scatter-gather client takes the *max* of these
/// sums across the nodes it contacted in parallel.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchDelete {
    /// Keys this batch actually removed (keys the engine never held —
    /// e.g. written while this replica was down — do not count).
    pub removed: usize,
    /// Modeled network time for the batch (one round-trip latency per
    /// key, summed over the batch).
    pub modeled: Duration,
}

/// Summary a node reports about its engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeInfo {
    /// Live keys on this node.
    pub keys: usize,
    /// Approximate live bytes on this node.
    pub live_bytes: usize,
}

/// A request sent to a node thread. Every data verb travels as one
/// per-node batch — a single-key operation is a one-element batch —
/// and each key in it is charged as its own query (the backend has no
/// large-IN support, exactly as the paper assumes of Cassandra in
/// §2.6).
#[derive(Debug)]
pub enum Request {
    /// Fetch values.
    MultiGet {
        /// Keys to fetch.
        keys: Vec<Key>,
        /// Results in key order, with the batch's modeled time.
        reply: Sender<Result<BatchGet, KvError>>,
    },
    /// Store values.
    MultiPut {
        /// Key/value pairs to store.
        pairs: Vec<(Key, Value)>,
        /// Completion signal with the batch's modeled time.
        reply: Sender<Result<BatchPut, KvError>>,
    },
    /// Remove keys.
    MultiDelete {
        /// Keys to remove.
        keys: Vec<Key>,
        /// Completion signal with the batch's modeled time.
        reply: Sender<Result<BatchDelete, KvError>>,
    },
    /// Failure injection: mark the node down/up.
    SetDown(bool),
    /// Report engine statistics.
    Info {
        /// Where to send the info.
        reply: Sender<NodeInfo>,
    },
    /// Stop the node thread.
    Shutdown,
}
