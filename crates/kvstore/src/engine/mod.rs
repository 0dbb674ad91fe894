//! Pluggable per-node storage engines.

use crate::error::KvError;
use crate::fault::TailDamage;
use crate::types::{Key, Value};

pub mod log;
pub mod mem;

pub use log::LogEngine;
pub use mem::MemEngine;

/// The storage interface a node requires — deliberately just the
/// `get`/`put` surface the paper assumes of the backend (§2.4), plus
/// the crash hook ([`crash_restart`](StorageEngine::crash_restart))
/// the fault layer needs. Every write is durable when its call
/// returns.
pub trait StorageEngine: Send {
    /// Fetches the value for `key`, if present. Takes `&mut self` so a
    /// file-backed engine can seek its reader.
    fn get(&mut self, key: &[u8]) -> Result<Option<Value>, KvError>;

    /// Stores `value` under `key`, replacing any existing value.
    fn put(&mut self, key: Key, value: Value) -> Result<(), KvError>;

    /// Removes `key`, reporting whether it was present (absent keys
    /// succeed silently with `false`).
    fn delete(&mut self, key: &[u8]) -> Result<bool, KvError>;

    /// Stores the pairs of one batched message, in order. The
    /// durability point of a batch is its return — the reply to the
    /// message — so an engine may make the whole batch durable at once
    /// instead of pair by pair.
    fn put_batch(&mut self, pairs: Vec<(Key, Value)>) -> Result<(), KvError> {
        pairs.into_iter().try_for_each(|(key, value)| self.put(key, value))
    }

    /// Removes the keys of one batched message, reporting how many
    /// were present; durable as a whole, like [`StorageEngine::put_batch`].
    fn delete_batch(&mut self, keys: &[Key]) -> Result<usize, KvError> {
        let mut removed = 0;
        for key in keys {
            removed += usize::from(self.delete(key)?);
        }
        Ok(removed)
    }

    /// Number of live keys.
    fn len(&self) -> usize;

    /// True when no live keys exist.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes of live data (keys + values).
    fn live_bytes(&self) -> usize;

    /// Simulates a kill -9 + restart: the persistent tail takes
    /// `damage`, and the engine recovers from what survived. Engines
    /// without persistence keep their state.
    fn crash_restart(&mut self, damage: TailDamage) -> Result<(), KvError> {
        let _ = damage;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared engine conformance checks, run against both engines.

    use super::*;
    use bytes::Bytes;

    pub(crate) fn basic_ops(engine: &mut dyn StorageEngine) {
        assert!(engine.is_empty());
        assert_eq!(engine.get(b"missing").unwrap(), None);

        engine.put(b"a".to_vec(), Bytes::from_static(b"1")).unwrap();
        engine.put(b"b".to_vec(), Bytes::from_static(b"2")).unwrap();
        assert_eq!(engine.len(), 2);
        assert_eq!(engine.get(b"a").unwrap(), Some(Bytes::from_static(b"1")));

        // Overwrite.
        engine.put(b"a".to_vec(), Bytes::from_static(b"10")).unwrap();
        assert_eq!(engine.get(b"a").unwrap(), Some(Bytes::from_static(b"10")));
        assert_eq!(engine.len(), 2);

        // Delete present and absent keys.
        assert!(engine.delete(b"a").unwrap(), "present key reports removal");
        assert_eq!(engine.get(b"a").unwrap(), None);
        assert!(!engine.delete(b"never-there").unwrap(), "absent key is a no-op");
        assert_eq!(engine.len(), 1);
        assert!(engine.live_bytes() >= 2);
    }

    pub(crate) fn large_values(engine: &mut dyn StorageEngine) {
        let big = vec![7u8; 1 << 20];
        engine.put(b"big".to_vec(), Bytes::from(big.clone())).unwrap();
        assert_eq!(engine.get(b"big").unwrap().unwrap().as_ref(), &big[..]);
    }

    pub(crate) fn empty_key_and_value(engine: &mut dyn StorageEngine) {
        engine.put(Vec::new(), Bytes::new()).unwrap();
        assert_eq!(engine.get(b"").unwrap(), Some(Bytes::new()));
        assert_eq!(engine.len(), 1);
    }
}
