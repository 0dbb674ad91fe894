//! An append-only log-structured storage engine (bitcask-style).
//!
//! Every put/delete is appended to a log file; an in-memory directory
//! maps live keys to their latest log offset. On startup the log is
//! replayed to rebuild the directory, so a crash loses at most the
//! writes that were not yet durable under the configured
//! [`SyncPolicy`], plus a partially-written tail entry (detected by
//! CRC and truncated). [`LogEngine::compact`] rewrites live entries
//! into a fresh log, dropping garbage from overwrites and deletes.
//!
//! # Durability contract
//!
//! "Durable" here means *flushed out of the engine's write buffer*:
//! the simulated crash ([`StorageEngine::crash_restart`]) is a
//! process-level kill that loses exactly the buffered bytes, the same
//! way a kill -9 loses a real `BufWriter`'s buffer. What each policy
//! can lose on such a crash:
//!
//! * [`SyncPolicy::Always`] — nothing: every entry is flushed before
//!   its `put`/`delete` returns, and every batch
//!   ([`StorageEngine::put_batch`]/[`StorageEngine::delete_batch`]:
//!   one message, one reply) with one flush before *it* returns. At
//!   most a torn tail from a crash that lands mid-write at the
//!   filesystem level, which replay truncates back to the last whole
//!   entry.
//! * [`SyncPolicy::EveryN`]`(n)` — at most the last `n - 1` accepted
//!   writes (the group-commit window).
//! * [`SyncPolicy::OnSeal`] — everything since the last explicit
//!   [`sync`](StorageEngine::sync) barrier; the store layer issues
//!   that barrier from `seal()`, so a sealed batch is always durable.
//!
//! Under every policy, recovery replays the log and stops at the
//! first torn or CRC-corrupt entry: the engine reopens with exactly
//! the longest durable prefix, never a partial entry. Reads are
//! unaffected by buffering — `get` flushes on demand when it needs a
//! not-yet-flushed entry, preserving read-your-writes.
//!
//! Entry layout (little-endian):
//!
//! ```text
//! crc32(u32) | flags(u8) | key_len(u32) | val_len(u32) | key | value
//! ```
//!
//! `flags` bit 0 set marks a tombstone (value empty).

use crate::engine::StorageEngine;
use crate::error::KvError;
use crate::fault::TailDamage;
use crate::types::{Key, Value};
use bytes::Bytes;
use rustc_hash::FxHashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const HEADER_LEN: usize = 4 + 1 + 4 + 4;
const TOMBSTONE: u8 = 0x01;

/// When the engine flushes accepted writes out of its buffer (the
/// group-commit knob). See the module docs for exactly what each
/// setting can lose on a crash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Flush every entry before its write returns (loses nothing).
    #[default]
    Always,
    /// Flush after every N accepted writes (loses < N writes).
    EveryN(usize),
    /// Flush only at explicit [`StorageEngine::sync`] barriers —
    /// the store layer issues one per sealed batch.
    OnSeal,
}

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let c = t[k - 1][i];
            t[k][i] = t[0][(c & 0xff) as usize] ^ (c >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// One byte-at-a-time CRC step — the tail loop of [`crc32`].
#[inline]
fn crc32_step(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8)
}

/// CRC-32 (IEEE 802.3), table-driven, built from scratch: eight bytes
/// per step (slice-by-8), then bytewise over the tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = crc32_step(c, b);
    }
    c ^ 0xffff_ffff
}

/// Location of a live value inside the log.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Offset of the value bytes (not the entry header).
    value_offset: u64,
    value_len: u32,
    key_len: u32,
}

/// The log-structured engine.
#[derive(Debug)]
pub struct LogEngine {
    path: PathBuf,
    writer: BufWriter<File>,
    reader: File,
    directory: FxHashMap<Key, Slot>,
    /// Next append offset.
    tail: u64,
    /// Bytes occupied by dead (overwritten/deleted) entries.
    garbage_bytes: u64,
    /// Group-commit policy.
    sync: SyncPolicy,
    /// Log length known to be flushed out of the write buffer (what a
    /// crash cannot lose).
    flushed: u64,
    /// Accepted writes since the last flush (drives `EveryN`).
    unflushed_writes: usize,
}

impl LogEngine {
    /// Opens (or creates) the log at `path` with [`SyncPolicy::Always`],
    /// replaying it to rebuild the key directory. A corrupt or torn
    /// tail entry truncates the log at the last valid entry.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, KvError> {
        Self::open_with(path, SyncPolicy::Always)
    }

    /// Opens (or creates) the log at `path` under the given
    /// group-commit policy.
    pub fn open_with(path: impl AsRef<Path>, sync: SyncPolicy) -> Result<Self, KvError> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let (directory, valid_len, garbage) = Self::replay(&mut file)?;
        let file_len = file.metadata()?.len();
        if valid_len < file_len {
            // Torn tail from a crash: truncate it away.
            file.set_len(valid_len)?;
        }
        let reader = File::open(&path)?;
        Ok(Self {
            path,
            writer: BufWriter::new(file),
            reader,
            directory,
            tail: valid_len,
            garbage_bytes: garbage,
            sync,
            flushed: valid_len,
            unflushed_writes: 0,
        })
    }

    /// Scans the log, returning the directory, the length of the valid
    /// prefix, and the bytes of dead entries.
    fn replay(file: &mut File) -> Result<(FxHashMap<Key, Slot>, u64, u64), KvError> {
        file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut directory: FxHashMap<Key, Slot> = FxHashMap::default();
        let mut garbage = 0u64;
        let mut pos = 0usize;
        let entry_len = |key_len: usize, val_len: usize| HEADER_LEN + key_len + val_len;
        while pos + HEADER_LEN <= buf.len() {
            let crc = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
            let flags = buf[pos + 4];
            let key_len = u32::from_le_bytes(buf[pos + 5..pos + 9].try_into().unwrap()) as usize;
            let val_len = u32::from_le_bytes(buf[pos + 9..pos + 13].try_into().unwrap()) as usize;
            let total = entry_len(key_len, val_len);
            if pos + total > buf.len() {
                break; // torn tail
            }
            let body = &buf[pos + 4..pos + total];
            if crc32(body) != crc {
                break; // corrupt tail
            }
            let key = buf[pos + HEADER_LEN..pos + HEADER_LEN + key_len].to_vec();
            let old = if flags & TOMBSTONE != 0 {
                directory.remove(&key).map(|s| (s, true))
            } else {
                let slot = Slot {
                    value_offset: (pos + HEADER_LEN + key_len) as u64,
                    value_len: val_len as u32,
                    key_len: key_len as u32,
                };
                directory.insert(key, slot).map(|s| (s, false))
            };
            if let Some((old_slot, _)) = old {
                garbage +=
                    entry_len(old_slot.key_len as usize, old_slot.value_len as usize) as u64;
            }
            if flags & TOMBSTONE != 0 {
                // The tombstone itself is immediately garbage.
                garbage += total as u64;
            }
            pos += total;
        }
        Ok((directory, pos as u64, garbage))
    }

    fn append(&mut self, flags: u8, key: &[u8], value: &[u8]) -> Result<u64, KvError> {
        let mut body = Vec::with_capacity(HEADER_LEN - 4 + key.len() + value.len());
        body.push(flags);
        body.extend_from_slice(&(key.len() as u32).to_le_bytes());
        body.extend_from_slice(&(value.len() as u32).to_le_bytes());
        body.extend_from_slice(key);
        body.extend_from_slice(value);
        let crc = crc32(&body);
        self.writer.write_all(&crc.to_le_bytes())?;
        self.writer.write_all(&body)?;
        let entry_start = self.tail;
        self.tail += (4 + body.len()) as u64;
        self.unflushed_writes += 1;
        Ok(entry_start)
    }

    /// Applies the group-commit policy to the entries appended since
    /// the last flush — once per write, or once per batch of them.
    fn flush_if_due(&mut self) -> Result<(), KvError> {
        let due = match self.sync {
            SyncPolicy::Always => self.unflushed_writes > 0,
            SyncPolicy::EveryN(n) => self.unflushed_writes >= n.max(1),
            SyncPolicy::OnSeal => false,
        };
        if due {
            self.flush_writes()?;
        }
        Ok(())
    }

    /// Appends a value entry and points the directory at it.
    fn append_put(&mut self, key: Key, value: &[u8]) -> Result<(), KvError> {
        let entry_start = self.append(0, &key, value)?;
        let slot = Slot {
            value_offset: entry_start + (HEADER_LEN + key.len()) as u64,
            value_len: value.len() as u32,
            key_len: key.len() as u32,
        };
        if let Some(old) = self.directory.insert(key, slot) {
            self.garbage_bytes +=
                (HEADER_LEN + old.key_len as usize + old.value_len as usize) as u64;
        }
        Ok(())
    }

    /// Appends a tombstone if `key` is live, reporting whether it was.
    fn append_delete(&mut self, key: &[u8]) -> Result<bool, KvError> {
        let Some(old) = self.directory.remove(key) else {
            return Ok(false);
        };
        self.append(TOMBSTONE, key, &[])?;
        self.garbage_bytes += (HEADER_LEN + old.key_len as usize + old.value_len as usize) as u64;
        self.garbage_bytes += (HEADER_LEN + key.len()) as u64;
        Ok(true)
    }

    /// Flushes the write buffer, advancing the durable frontier.
    fn flush_writes(&mut self) -> Result<(), KvError> {
        self.writer.flush()?;
        self.flushed = self.tail;
        self.unflushed_writes = 0;
        Ok(())
    }

    /// Fraction of the log occupied by dead entries.
    pub fn garbage_ratio(&self) -> f64 {
        if self.tail == 0 {
            return 0.0;
        }
        self.garbage_bytes as f64 / self.tail as f64
    }

    /// Rewrites live entries into a fresh log, reclaiming garbage.
    pub fn compact(&mut self) -> Result<(), KvError> {
        // Buffered entries must hit the file before we stream slots
        // out of it.
        self.flush_writes()?;
        let tmp_path = self.path.with_extension("compact");
        {
            let tmp = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp_path)?;
            let mut w = BufWriter::new(tmp);
            // Stable iteration: copy the directory, then stream values.
            let entries: Vec<(Key, Slot)> = self
                .directory
                .iter()
                .map(|(k, s)| (k.clone(), *s))
                .collect();
            for (key, slot) in entries {
                let value = self.read_slot(&slot)?;
                let mut body =
                    Vec::with_capacity(HEADER_LEN - 4 + key.len() + value.len());
                body.push(0u8);
                body.extend_from_slice(&(key.len() as u32).to_le_bytes());
                body.extend_from_slice(&(value.len() as u32).to_le_bytes());
                body.extend_from_slice(&key);
                body.extend_from_slice(&value);
                w.write_all(&crc32(&body).to_le_bytes())?;
                w.write_all(&body)?;
            }
            w.flush()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        // Reopen handles against the compacted log.
        let mut file = OpenOptions::new().read(true).append(true).open(&self.path)?;
        let (directory, valid_len, garbage) = Self::replay(&mut file)?;
        self.reader = File::open(&self.path)?;
        self.writer = BufWriter::new(file);
        self.directory = directory;
        self.tail = valid_len;
        self.garbage_bytes = garbage;
        self.flushed = valid_len;
        self.unflushed_writes = 0;
        Ok(())
    }

    fn read_slot(&mut self, slot: &Slot) -> Result<Vec<u8>, KvError> {
        let mut buf = vec![0u8; slot.value_len as usize];
        self.reader.seek(SeekFrom::Start(slot.value_offset))?;
        self.reader.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// Total log size on disk.
    pub fn log_bytes(&self) -> u64 {
        self.tail
    }
}

impl StorageEngine for LogEngine {
    fn get(&mut self, key: &[u8]) -> Result<Option<Value>, KvError> {
        let Some(slot) = self.directory.get(key).copied() else {
            return Ok(None);
        };
        // Read-your-writes under relaxed sync: flush if the slot is
        // beyond the durable frontier.
        if slot.value_offset + u64::from(slot.value_len) > self.flushed {
            self.flush_writes()?;
        }
        let mut buf = vec![0u8; slot.value_len as usize];
        self.reader.seek(SeekFrom::Start(slot.value_offset))?;
        self.reader.read_exact(&mut buf)?;
        Ok(Some(Bytes::from(buf)))
    }

    fn put(&mut self, key: Key, value: Value) -> Result<(), KvError> {
        self.append_put(key, &value)?;
        self.flush_if_due()
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool, KvError> {
        let present = self.append_delete(key)?;
        self.flush_if_due()?;
        Ok(present)
    }

    fn put_batch(&mut self, pairs: Vec<(Key, Value)>) -> Result<(), KvError> {
        for (key, value) in pairs {
            self.append_put(key, &value)?;
        }
        self.flush_if_due()
    }

    fn delete_batch(&mut self, keys: &[Key]) -> Result<usize, KvError> {
        let mut removed = 0;
        for key in keys {
            removed += usize::from(self.append_delete(key)?);
        }
        self.flush_if_due()?;
        Ok(removed)
    }

    fn len(&self) -> usize {
        self.directory.len()
    }

    fn live_bytes(&self) -> usize {
        self.directory
            .iter()
            .map(|(k, s)| k.len() + s.value_len as usize)
            .sum()
    }

    fn sync(&mut self) -> Result<(), KvError> {
        self.flush_writes()
    }

    fn crash_restart(&mut self, damage: TailDamage) -> Result<(), KvError> {
        // Steal the writer WITHOUT flushing: its buffer is exactly
        // what a kill -9 loses. The placeholder writer wraps a clone
        // of the read-only handle and is never written to.
        let placeholder = BufWriter::new(self.reader.try_clone()?);
        let stolen = std::mem::replace(&mut self.writer, placeholder);
        let (file, lost) = stolen.into_parts();
        let lost = lost.unwrap_or_default();
        drop(file);
        // Apply the scripted damage to the on-disk tail.
        match damage {
            TailDamage::None => {}
            TailDamage::TornBytes(n) if n > 0 => {
                // A prefix of the in-flight entry reaches the disk; if
                // nothing was buffered, junk lands after the tail (a
                // filesystem-level torn write of the last entry).
                let torn: Vec<u8> = if lost.is_empty() {
                    vec![0xAA; n]
                } else {
                    lost[..n.min(lost.len())].to_vec()
                };
                let mut f = OpenOptions::new().append(true).open(&self.path)?;
                f.write_all(&torn)?;
            }
            TailDamage::TornBytes(_) => {}
            TailDamage::CorruptLastEntry => {
                let mut f =
                    OpenOptions::new().read(true).write(true).open(&self.path)?;
                let len = f.metadata()?.len();
                if len > 0 {
                    let mut b = [0u8; 1];
                    f.seek(SeekFrom::Start(len - 1))?;
                    f.read_exact(&mut b)?;
                    f.seek(SeekFrom::Start(len - 1))?;
                    f.write_all(&[b[0] ^ 0xFF])?;
                }
            }
        }
        // Recover: replay whatever survived.
        *self = LogEngine::open_with(self.path.clone(), self.sync)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::conformance;

    fn temp_log(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "rstore-log-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_a686);
    }

    #[test]
    fn crc32_matches_bytewise_at_every_length_and_offset() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let buf: Vec<u8> = (0..128)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[offset..offset + len];
                // Bit-at-a-time reference: no table shared with `crc32`.
                let bitwise = !bytes.iter().fold(!0u32, |c, &b| {
                    (0..8).fold(c ^ u32::from(b), |c, _| {
                        if c & 1 == 1 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 }
                    })
                });
                assert_eq!(crc32(bytes), bitwise, "offset {offset} len {len}");
                let bytewise = !bytes.iter().fold(!0u32, |c, &b| crc32_step(c, b));
                assert_eq!(bytewise, bitwise, "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn conformance_basic() {
        let p = temp_log("basic");
        conformance::basic_ops(&mut LogEngine::open(&p).unwrap());
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn conformance_large() {
        let p = temp_log("large");
        conformance::large_values(&mut LogEngine::open(&p).unwrap());
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn conformance_empty() {
        let p = temp_log("empty");
        conformance::empty_key_and_value(&mut LogEngine::open(&p).unwrap());
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn reopen_recovers_state() {
        let p = temp_log("recover");
        {
            let mut e = LogEngine::open(&p).unwrap();
            e.put(b"a".to_vec(), Bytes::from_static(b"1")).unwrap();
            e.put(b"b".to_vec(), Bytes::from_static(b"2")).unwrap();
            e.put(b"a".to_vec(), Bytes::from_static(b"updated")).unwrap();
            e.delete(b"b").unwrap();
        }
        let mut e = LogEngine::open(&p).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e.get(b"a").unwrap(), Some(Bytes::from_static(b"updated")));
        assert_eq!(e.get(b"b").unwrap(), None);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let p = temp_log("torn");
        {
            let mut e = LogEngine::open(&p).unwrap();
            e.put(b"good".to_vec(), Bytes::from_static(b"value")).unwrap();
        }
        // Append half an entry (simulating a crash mid-write).
        {
            let mut f = OpenOptions::new().append(true).open(&p).unwrap();
            f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        }
        let mut e = LogEngine::open(&p).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e.get(b"good").unwrap(), Some(Bytes::from_static(b"value")));
        // The torn bytes are gone; appending still works.
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn corrupt_tail_crc_is_truncated() {
        let p = temp_log("corrupt");
        {
            let mut e = LogEngine::open(&p).unwrap();
            e.put(b"k1".to_vec(), Bytes::from_static(b"v1")).unwrap();
            e.put(b"k2".to_vec(), Bytes::from_static(b"v2")).unwrap();
        }
        // Flip a byte in the last entry's value.
        {
            let mut f = OpenOptions::new().read(true).write(true).open(&p).unwrap();
            let len = f.metadata().unwrap().len();
            f.seek(SeekFrom::Start(len - 1)).unwrap();
            f.write_all(&[0xff]).unwrap();
        }
        let mut e = LogEngine::open(&p).unwrap();
        assert_eq!(e.len(), 1, "corrupt entry must be dropped");
        assert_eq!(e.get(b"k1").unwrap(), Some(Bytes::from_static(b"v1")));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn writes_after_torn_tail_recovery_survive() {
        let p = temp_log("torn-write");
        {
            let mut e = LogEngine::open(&p).unwrap();
            e.put(b"a".to_vec(), Bytes::from_static(b"1")).unwrap();
        }
        {
            let mut f = OpenOptions::new().append(true).open(&p).unwrap();
            f.write_all(&[1, 2, 3, 4, 5]).unwrap();
        }
        {
            let mut e = LogEngine::open(&p).unwrap();
            e.put(b"b".to_vec(), Bytes::from_static(b"2")).unwrap();
        }
        let mut e = LogEngine::open(&p).unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e.get(b"b").unwrap(), Some(Bytes::from_static(b"2")));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn compaction_reclaims_garbage_and_preserves_data() {
        let p = temp_log("compact");
        let mut e = LogEngine::open(&p).unwrap();
        for i in 0..100u32 {
            e.put(b"hot".to_vec(), Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
        }
        e.put(b"cold".to_vec(), Bytes::from_static(b"stays")).unwrap();
        e.delete(b"hot").unwrap();
        assert!(e.garbage_ratio() > 0.9);
        let before = e.log_bytes();
        e.compact().unwrap();
        assert!(e.log_bytes() < before / 10);
        assert_eq!(e.garbage_ratio(), 0.0);
        assert_eq!(e.get(b"cold").unwrap(), Some(Bytes::from_static(b"stays")));
        assert_eq!(e.get(b"hot").unwrap(), None);
        // Still usable after compaction.
        e.put(b"new".to_vec(), Bytes::from_static(b"x")).unwrap();
        assert_eq!(e.get(b"new").unwrap(), Some(Bytes::from_static(b"x")));
        drop(e);
        // And recovery still works on the compacted log.
        let e = LogEngine::open(&p).unwrap();
        assert_eq!(e.len(), 2);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn relaxed_sync_keeps_read_your_writes() {
        let p = temp_log("ryw");
        let mut e = LogEngine::open_with(&p, SyncPolicy::OnSeal).unwrap();
        e.put(b"k".to_vec(), Bytes::from_static(b"buffered")).unwrap();
        // The entry may still be in the write buffer; get must see it.
        assert_eq!(e.get(b"k").unwrap(), Some(Bytes::from_static(b"buffered")));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn crash_under_always_loses_nothing() {
        let p = temp_log("crash-always");
        let mut e = LogEngine::open(&p).unwrap();
        e.put(b"a".to_vec(), Bytes::from_static(b"1")).unwrap();
        e.put(b"b".to_vec(), Bytes::from_static(b"2")).unwrap();
        e.crash_restart(TailDamage::None).unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e.get(b"a").unwrap(), Some(Bytes::from_static(b"1")));
        assert_eq!(e.get(b"b").unwrap(), Some(Bytes::from_static(b"2")));

        // A batched message is durable, whole, when it returns: its
        // entries share one flush, and nothing stays in the buffer.
        let batch: Vec<(Key, Value)> = (0..300u32)
            .map(|i| (i.to_be_bytes().to_vec(), Bytes::from(vec![i as u8; 24])))
            .collect();
        e.put_batch(batch).unwrap();
        assert_eq!((e.unflushed_writes, e.flushed), (0, e.tail));
        e.crash_restart(TailDamage::None).unwrap();
        assert_eq!(e.len(), 302);
        assert_eq!(e.get(&7u32.to_be_bytes()).unwrap(), Some(Bytes::from(vec![7u8; 24])));
        let doomed: Vec<Key> = (0..100u32).map(|i| i.to_be_bytes().to_vec()).collect();
        assert_eq!(e.delete_batch(&doomed).unwrap(), 100);
        assert_eq!(e.delete_batch(&doomed).unwrap(), 0, "absent keys are not removals");
        assert_eq!((e.unflushed_writes, e.flushed), (0, e.tail));
        e.crash_restart(TailDamage::None).unwrap();
        assert_eq!(e.len(), 202);
        assert_eq!(e.get(&7u32.to_be_bytes()).unwrap(), None);
        assert_eq!(e.get(b"a").unwrap(), Some(Bytes::from_static(b"1")));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn crash_under_every_n_loses_at_most_the_window() {
        let p = temp_log("crash-everyn");
        let mut e = LogEngine::open_with(&p, SyncPolicy::EveryN(4)).unwrap();
        for i in 0..10u32 {
            e.put(vec![i as u8], Bytes::from(vec![i as u8; 8])).unwrap();
        }
        // 10 writes, flushes after 4 and 8: the crash can lose only
        // writes 8 and 9.
        e.crash_restart(TailDamage::None).unwrap();
        assert_eq!(e.len(), 8);
        for i in 0..8u8 {
            assert!(e.get(&[i]).unwrap().is_some(), "write {i} was durable");
        }
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn crash_under_on_seal_recovers_to_last_sync() {
        let p = temp_log("crash-seal");
        let mut e = LogEngine::open_with(&p, SyncPolicy::OnSeal).unwrap();
        e.put(b"sealed".to_vec(), Bytes::from_static(b"yes")).unwrap();
        e.sync().unwrap();
        e.put(b"loose".to_vec(), Bytes::from_static(b"gone")).unwrap();
        e.crash_restart(TailDamage::None).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e.get(b"sealed").unwrap(), Some(Bytes::from_static(b"yes")));
        assert_eq!(e.get(b"loose").unwrap(), None);
        // The engine keeps working after recovery.
        e.put(b"after".to_vec(), Bytes::from_static(b"ok")).unwrap();
        e.sync().unwrap();
        assert_eq!(e.get(b"after").unwrap(), Some(Bytes::from_static(b"ok")));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn crash_with_torn_bytes_truncates_to_durable_prefix() {
        let p = temp_log("crash-torn");
        let mut e = LogEngine::open_with(&p, SyncPolicy::OnSeal).unwrap();
        e.put(b"durable".to_vec(), Bytes::from_static(b"v")).unwrap();
        e.sync().unwrap();
        e.put(b"inflight".to_vec(), Bytes::from_static(b"partial")).unwrap();
        // Crash lands mid-entry: 7 bytes of the buffered entry reach
        // the disk; replay must truncate them away.
        e.crash_restart(TailDamage::TornBytes(7)).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e.get(b"durable").unwrap(), Some(Bytes::from_static(b"v")));
        assert_eq!(e.get(b"inflight").unwrap(), None);
        // Appends after recovery land on a clean tail.
        e.put(b"next".to_vec(), Bytes::from_static(b"w")).unwrap();
        e.sync().unwrap();
        e.crash_restart(TailDamage::None).unwrap();
        assert_eq!(e.get(b"next").unwrap(), Some(Bytes::from_static(b"w")));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn crash_corrupting_last_entry_drops_it() {
        let p = temp_log("crash-corrupt");
        let mut e = LogEngine::open(&p).unwrap();
        e.put(b"first".to_vec(), Bytes::from_static(b"1")).unwrap();
        e.put(b"last".to_vec(), Bytes::from_static(b"2")).unwrap();
        e.crash_restart(TailDamage::CorruptLastEntry).unwrap();
        assert_eq!(e.len(), 1, "bit-flipped entry fails its CRC");
        assert_eq!(e.get(b"first").unwrap(), Some(Bytes::from_static(b"1")));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn many_keys_survive_reopen() {
        let p = temp_log("many");
        {
            let mut e = LogEngine::open(&p).unwrap();
            for i in 0..500u32 {
                e.put(
                    i.to_le_bytes().to_vec(),
                    Bytes::from(vec![i as u8; (i % 64) as usize]),
                )
                .unwrap();
            }
        }
        let mut e = LogEngine::open(&p).unwrap();
        assert_eq!(e.len(), 500);
        for i in (0..500u32).step_by(37) {
            let v = e.get(&i.to_le_bytes()).unwrap().unwrap();
            assert_eq!(v.len(), (i % 64) as usize);
        }
        let _ = std::fs::remove_file(p);
    }
}
