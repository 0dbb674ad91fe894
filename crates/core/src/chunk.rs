//! Chunks and sub-chunks: the unit of storage in the backend KVS.
//!
//! "The basic unit of storage in the key-value store is a chunk of
//! records ... Each chunk is divided into sub-chunks, each of which
//! corresponds to records with the same primary key and are stored in
//! a compressed fashion; sub-chunks often may contain only one
//! record" (§2.4).
//!
//! A [`SubChunk`] holds up to `k` records with the same primary key:
//! the representative record is stored whole and every other member is
//! delta-encoded against it (§3.4: "all the sibling records would be
//! delta-ed against their common parent"), then the whole group is
//! LZ-compressed. A [`Chunk`] is an ordered list of sub-chunks; its
//! flattened record list (sub-chunk members in order) defines the
//! local ordinals the chunk map's bitmaps refer to.
//!
//! ## Memory model
//!
//! A chunk read from the backend ([`Chunk::from_blob`]) holds its blob
//! and one key table: every sub-chunk's [`Payload`] is a range of the
//! blob, and every sub-chunk's [`Members`] a range of the table. One
//! walk over the sub-chunk headers checks the layout and notes where
//! each part sits; the table and the sub-chunk list are built from
//! those notes, so a fetch costs three allocations however many
//! sub-chunks the chunk has, and [`Chunk::local_keys`] hands out the
//! table itself. A built sub-chunk ([`SubChunk::build`]) owns its
//! payload and keys.
//!
//! Decoding runs the LZ and the delta chain through per-thread scratch
//! buffers. The root is copied into the scratch once, and each delta
//! turns the member there into the next one: a patch delta in place,
//! a copy/insert delta through a spare buffer. A decoded member owns
//! its bytes (one copy out of the scratch), so a record handed to a
//! caller never pins a blob. A sub-chunk whose members do not add up
//! to its `raw_bytes` fails to decode; until its sub-chunks decode, a
//! read chunk's sizes are unchecked header fields, so
//! [`Chunk::raw_bytes`] saturates.
//!
//! ## Wire format
//!
//! ```text
//! chunk   := varint(n_subchunks) subchunk*
//! subchunk:= varint(n_members) member_ck{n_members} varint(len) payload varint(raw_bytes)
//! member_ck := 12-byte CompositeKey
//! payload := lz( varint(rep_len) rep_bytes (varint(delta_len) delta)* )
//! delta   := varint(len) (COPY|INSERT)* | varint(len) PATCH patch*
//! patch   := varint(gap·2 | long) [varint(run) if long] bytes[run]
//! ```
//!
//! A delta's form is [`rstore_compress::diff`]'s choice per pair: the
//! patch (overwrite runs of an equal-length parent in place) or the
//! copy/insert stream; see `rstore_compress::delta`.

use crate::error::CoreError;
use crate::model::CompositeKey;
use bytes::Bytes;
use rstore_compress::{apply_delta_in_place, diff, lz, varint};
use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A sub-chunk's member keys: a range of a key table. Every sub-chunk
/// of a chunk read from a blob shares one table; a built sub-chunk
/// owns a table of its own. Derefs to the keys.
#[derive(Clone)]
pub struct Members {
    table: Arc<[CompositeKey]>,
    /// `table[start..end]`; `u32` keeps a sub-chunk small, and
    /// [`Chunk::from_blob`] refuses a blob whose offsets would not fit.
    start: u32,
    end: u32,
}

impl Members {
    /// Number of members, without slicing the table.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True when there are no members.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl Deref for Members {
    type Target = [CompositeKey];

    fn deref(&self) -> &[CompositeKey] {
        &self.table[self.start as usize..self.end as usize]
    }
}

impl fmt::Debug for Members {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Members {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Members {}

/// A sub-chunk's compressed bytes: a range of the blob a read chunk
/// came from, or an owned buffer for a built one. Derefs to the bytes.
#[derive(Clone)]
pub struct Payload(Repr);

#[derive(Clone)]
enum Repr {
    Owned(Vec<u8>),
    /// `blob[start..end]`.
    Blob(Bytes, u32, u32),
}

impl Payload {
    /// The payload as an owned buffer, copied out of its blob first if
    /// it is a range of one (copy-on-write; the blob is not touched).
    pub fn to_mut(&mut self) -> &mut Vec<u8> {
        if let Repr::Blob(..) = self.0 {
            self.0 = Repr::Owned(self.to_vec());
        }
        match &mut self.0 {
            Repr::Owned(bytes) => bytes,
            Repr::Blob(..) => unreachable!("converted to owned above"),
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Owned(bytes) => bytes,
            Repr::Blob(blob, start, end) => &blob[*start as usize..*end as usize],
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

/// Per-thread decode buffers: the LZ output, the member the delta
/// chain is at (each patch delta rewrites it in place), and the spare a
/// copy/insert delta is rebuilt in before it is swapped in.
#[derive(Default)]
struct Scratch {
    inner: Vec<u8>,
    cur: Vec<u8>,
    spare: Vec<u8>,
}

/// A scratch buffer that grew past this (a huge sub-chunk, or a damaged
/// one that declared a huge size) is released after the decode instead
/// of staying with its thread.
const SCRATCH_KEEP: usize = 1 << 20;

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// A compressed group of same-key records.
///
/// Decompression is memoized: the first [`SubChunk::decode`] call
/// stores the member payloads (as shared [`Bytes`]) in a `OnceLock`,
/// so a sub-chunk resident in the decoded-chunk cache decompresses at
/// most once no matter how many queries extract from it.
#[derive(Debug, Clone)]
pub struct SubChunk {
    /// Composite keys of the members; the first is the representative.
    pub members: Members,
    /// LZ-compressed payload (representative + deltas).
    pub payload: Payload,
    /// Uncompressed size of all member records, for accounting.
    pub raw_bytes: usize,
    /// Memoized decompressed member payloads (not part of identity).
    decoded: OnceLock<Vec<Bytes>>,
}

impl PartialEq for SubChunk {
    fn eq(&self, other: &Self) -> bool {
        // The decode memo is derived state and excluded from identity.
        self.members == other.members
            && self.payload == other.payload
            && self.raw_bytes == other.raw_bytes
    }
}

impl Eq for SubChunk {}

impl SubChunk {
    /// Builds a sub-chunk from member records. `records[0]` (the
    /// group root) is stored whole; every other record is
    /// delta-encoded against its predecessor — its parent in the
    /// version tree for the path-shaped groups the sub-chunk planner
    /// produces (§3.4: records are "delta-ed against their common
    /// parent"). Chaining keeps deltas small even when mutations
    /// accumulate across a long group.
    ///
    /// # Panics
    /// Panics if `records` is empty.
    pub fn build(records: &[(CompositeKey, &[u8])]) -> Self {
        assert!(!records.is_empty(), "sub-chunk needs at least one record");
        let rep = records[0].1;
        let mut inner = Vec::with_capacity(rep.len() + 16);
        varint::write_u64(&mut inner, rep.len() as u64);
        inner.extend_from_slice(rep);
        let mut raw_bytes = rep.len();
        for pair in records.windows(2) {
            let (prev, cur) = (pair[0].1, pair[1].1);
            let delta = diff(prev, cur);
            varint::write_u64(&mut inner, delta.len() as u64);
            inner.extend_from_slice(&delta);
            raw_bytes += cur.len();
        }
        SubChunk {
            members: Members {
                table: records.iter().map(|&(ck, _)| ck).collect(),
                start: 0,
                end: records.len() as u32,
            },
            payload: Payload(Repr::Owned(lz::compress(&inner))),
            raw_bytes,
            decoded: OnceLock::new(),
        }
    }

    /// Number of member records.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the sub-chunk has no members (never produced by
    /// [`SubChunk::build`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Compressed size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Decompresses all member payloads, in member order. The result
    /// is memoized inside the sub-chunk, so repeated calls (and all
    /// queries hitting a cached chunk) pay the LZ + delta-chain cost
    /// once; payloads come back as cheaply cloneable [`Bytes`].
    pub fn decode(&self) -> Result<&[Bytes], CoreError> {
        if let Some(decoded) = self.decoded.get() {
            return Ok(decoded);
        }
        let fresh = self.decode_uncached()?;
        // A concurrent decoder may have won the race; either value is
        // identical, so `get_or_init` keeps exactly one.
        Ok(self.decoded.get_or_init(|| fresh))
    }

    /// Decompresses all member payloads without touching the memo
    /// (used by the memoizing path and by one-shot consumers). Each
    /// member is one allocation, copied out of the per-thread scratch.
    pub fn decode_uncached(&self) -> Result<Vec<Bytes>, CoreError> {
        let mut out: Vec<Bytes> = Vec::with_capacity(self.members.len());
        self.walk(|member| out.push(Bytes::copy_from_slice(member)))?;
        Ok(out)
    }

    /// Runs the decode of [`SubChunk::decode_uncached`] and keeps
    /// nothing: `Ok` exactly when that decode succeeds. Allocates
    /// nothing once the thread's scratch has grown to the sub-chunk.
    pub fn check(&self) -> Result<(), CoreError> {
        self.walk(|_| ())
    }

    /// The one decoder: LZ-decompresses the payload and replays the
    /// delta chain through the thread's scratch, handing each member's
    /// bytes to `emit` in member order. The root is copied into the
    /// scratch once and each delta turns it into the next member in
    /// place. The members' lengths must add up to `raw_bytes`, as
    /// [`SubChunk::build`] writes it.
    fn walk(&self, mut emit: impl FnMut(&[u8])) -> Result<(), CoreError> {
        SCRATCH.with_borrow_mut(|scratch| {
            let Scratch { inner, cur, spare } = scratch;
            let walked = (|| {
                lz::decompress_into(&self.payload, inner)?;
                let mut r = varint::VarintReader::new(&inner[..]);
                let rep_len = r.read_u64()? as usize;
                let rep = r.read_bytes(rep_len)?;
                emit(rep);
                let mut total = rep.len();
                if self.members.len() > 1 {
                    cur.clear();
                    cur.extend_from_slice(rep);
                    for _ in 1..self.members.len() {
                        let delta_len = r.read_u64()? as usize;
                        apply_delta_in_place(cur, r.read_bytes(delta_len)?, spare)?;
                        emit(cur);
                        total = total.saturating_add(cur.len());
                    }
                }
                if !r.is_empty() {
                    return Err(CoreError::Codec("trailing bytes in sub-chunk".into()));
                }
                if total != self.raw_bytes {
                    return Err(CoreError::Codec(format!(
                        "sub-chunk members hold {total} bytes, its header says {}",
                        self.raw_bytes
                    )));
                }
                Ok(())
            })();
            for buf in [inner, cur, spare] {
                if buf.capacity() > SCRATCH_KEEP {
                    *buf = Vec::new();
                }
            }
            walked
        })
    }
}

/// One sub-chunk's header as it sits in a chunk blob, as offsets into
/// the blob.
struct Header {
    /// Where the members' 12-byte keys start, back to back.
    keys: u32,
    /// How many members (and keys) the sub-chunk has.
    members: u32,
    /// Where the payload sits.
    payload: (u32, u32),
    raw_bytes: usize,
}

/// A chunk: an ordered list of sub-chunks stored under one backend key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Chunk {
    /// The sub-chunks, in placement order.
    pub subchunks: Vec<SubChunk>,
}

impl Chunk {
    /// Creates an empty chunk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total compressed bytes across sub-chunks.
    pub fn compressed_bytes(&self) -> usize {
        self.subchunks.iter().map(SubChunk::compressed_bytes).sum()
    }

    /// Total uncompressed bytes across sub-chunks, saturating: a read
    /// chunk's sizes are unchecked header fields until its sub-chunks
    /// decode.
    pub fn raw_bytes(&self) -> usize {
        self.subchunks.iter().fold(0, |sum, s| sum.saturating_add(s.raw_bytes))
    }

    /// Number of records (sub-chunk members) in the chunk.
    pub fn record_count(&self) -> usize {
        self.subchunks.iter().map(SubChunk::len).sum()
    }

    /// The composite keys in chunk-local order (`keys[local ordinal]`).
    /// For a chunk read from a blob this is its key table, shared;
    /// otherwise the sub-chunks' keys are flattened into a new one.
    pub fn local_keys(&self) -> Arc<[CompositeKey]> {
        if let Some(first) = self.subchunks.first() {
            let table = &first.members.table;
            let mut at = 0;
            let shared = self.subchunks.iter().all(|sc| {
                let next = Arc::ptr_eq(&sc.members.table, table) && sc.members.start == at;
                at = sc.members.end;
                next
            });
            if shared && at as usize == table.len() {
                return Arc::clone(table);
            }
        }
        self.subchunks
            .iter()
            .flat_map(|s| s.members.iter().copied())
            .collect()
    }

    /// Serializes for the backend store.
    pub fn serialize(&self) -> Vec<u8> {
        Self::serialize_parts(self.subchunks.iter())
    }

    /// Serializes `subchunks`, in order, as the chunk that holds them
    /// — without assembling that chunk.
    pub(crate) fn serialize_parts<'a, I>(subchunks: I) -> Vec<u8>
    where
        I: ExactSizeIterator<Item = &'a SubChunk> + Clone,
    {
        let bytes: usize = subchunks.clone().map(SubChunk::compressed_bytes).sum();
        let mut out = Vec::with_capacity(bytes + 64);
        varint::write_u64(&mut out, subchunks.len() as u64);
        for sc in subchunks {
            varint::write_u64(&mut out, sc.members.len() as u64);
            for ck in sc.members.iter() {
                out.extend_from_slice(&ck.to_bytes());
            }
            varint::write_u64(&mut out, sc.payload.len() as u64);
            out.extend_from_slice(&sc.payload);
            varint::write_u64(&mut out, sc.raw_bytes as u64);
        }
        out
    }

    /// Deserializes a buffer produced by [`Chunk::serialize`], copying
    /// it once and then reading it in place ([`Chunk::from_blob`]).
    pub fn deserialize(input: &[u8]) -> Result<Self, CoreError> {
        Self::from_blob(&Bytes::copy_from_slice(input))
    }

    /// Reads a blob produced by [`Chunk::serialize`] in place: every
    /// sub-chunk's payload is a range of `blob` and its members a range
    /// of one key table. One walk over the sub-chunk headers checks the
    /// layout and notes where each part sits; the key table and the
    /// sub-chunk list are built from those notes. Three allocations
    /// (the notes, the table and the sub-chunk list) whatever the
    /// sub-chunk count.
    pub fn from_blob(blob: &Bytes) -> Result<Self, CoreError> {
        // Every offset below is at most the blob's length, so each fits
        // the `u32` ranges.
        if u32::try_from(blob.len()).is_err() {
            return Err(CoreError::Codec("chunk blob exceeds 4 GiB".into()));
        }
        let headers = Self::headers(blob)?;
        let n_keys = headers.iter().map(|h| h.members as usize).sum();
        // Collected from an exact-length iterator: one allocation.
        let mut keys = headers
            .iter()
            .flat_map(|h| blob[h.keys as usize..][..h.members as usize * 12].chunks_exact(12));
        let table: Arc<[CompositeKey]> = (0..n_keys)
            .map(|_| {
                let key = keys.next().expect("the headers hold n_keys keys");
                CompositeKey::from_bytes(key.try_into().expect("chunks_exact yields 12 bytes"))
            })
            .collect();
        let mut at = 0;
        let subchunks = headers
            .iter()
            .map(|h| {
                let start = at;
                at += h.members;
                SubChunk {
                    members: Members { table: Arc::clone(&table), start, end: at },
                    payload: Payload(Repr::Blob(blob.clone(), h.payload.0, h.payload.1)),
                    raw_bytes: h.raw_bytes,
                    decoded: OnceLock::new(),
                }
            })
            .collect();
        Ok(Chunk { subchunks })
    }

    /// Walks the sub-chunk headers of a serialized chunk once, checking
    /// the whole layout, and returns where each sub-chunk's parts sit.
    fn headers(input: &[u8]) -> Result<Vec<Header>, CoreError> {
        let mut r = varint::VarintReader::new(input);
        let n_sub = r.read_u64()? as usize;
        // A sub-chunk header takes at least three bytes (its three
        // varints), which bounds the list allocated for it.
        if n_sub > input.len() / 3 {
            return Err(CoreError::Codec("sub-chunk count exceeds input".into()));
        }
        let mut headers = Vec::with_capacity(n_sub);
        for _ in 0..n_sub {
            let n_members = r.read_u64()? as usize;
            if n_members > input.len() {
                return Err(CoreError::Codec("member count exceeds input".into()));
            }
            let keys = r.position();
            r.read_bytes(n_members * 12)?;
            let payload_len = r.read_u64()? as usize;
            let start = r.position();
            r.read_bytes(payload_len)?;
            headers.push(Header {
                keys: keys as u32,
                members: n_members as u32,
                payload: (start as u32, (start + payload_len) as u32),
                raw_bytes: r.read_u64()? as usize,
            });
        }
        if !r.is_empty() {
            return Err(CoreError::Codec("trailing bytes in chunk".into()));
        }
        Ok(headers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VersionId;

    fn ck(pk: u64, v: u32) -> CompositeKey {
        CompositeKey::new(pk, VersionId(v))
    }

    fn similar_payloads(n: usize, size: usize) -> Vec<Vec<u8>> {
        let base: Vec<u8> = (0..size).map(|i| (i % 89) as u8 + 32).collect();
        (0..n)
            .map(|i| {
                let mut p = base.clone();
                p[size / 2] = i as u8;
                p
            })
            .collect()
    }

    #[test]
    fn single_record_subchunk_roundtrip() {
        let payload = b"{\"pk\":1,\"data\":\"hello world\"}".to_vec();
        let sc = SubChunk::build(&[(ck(1, 0), &payload)]);
        assert_eq!(sc.len(), 1);
        assert_eq!(sc.decode().unwrap(), vec![payload.clone()]);
        assert_eq!(sc.decode_uncached().unwrap(), vec![payload.clone()]);
        assert_eq!(sc.raw_bytes, payload.len());
    }

    #[test]
    fn multi_record_subchunk_roundtrip() {
        let payloads = similar_payloads(5, 400);
        let records: Vec<(CompositeKey, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (ck(7, i as u32), p.as_slice()))
            .collect();
        let sc = SubChunk::build(&records);
        assert_eq!(sc.decode().unwrap(), payloads);
        // The memo holds what a fresh decode produces.
        assert_eq!(sc.decode_uncached().unwrap(), sc.decode().unwrap());
    }

    #[test]
    fn similar_records_compress_well() {
        let payloads = similar_payloads(10, 500);
        let records: Vec<(CompositeKey, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (ck(7, i as u32), p.as_slice()))
            .collect();
        let sc = SubChunk::build(&records);
        assert_eq!(sc.raw_bytes, 5000);
        assert!(
            sc.compressed_bytes() < 1000,
            "10 near-identical 500B records took {} bytes",
            sc.compressed_bytes()
        );
    }

    #[test]
    fn decode_rejects_a_damaged_payload() {
        let payloads = similar_payloads(3, 100);
        let records: Vec<(CompositeKey, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (ck(1, i as u32), p.as_slice()))
            .collect();
        // A bad tag on the first LZ token, right after the length.
        let mut sc = SubChunk::build(&records);
        let (_, header) = varint::read_u64(&sc.payload).unwrap();
        sc.payload.to_mut()[header] = 0x77;
        assert!(matches!(sc.decode(), Err(CoreError::Codec(_))));
        // One member fewer than the payload holds: trailing bytes.
        let mut sc = SubChunk::build(&records);
        sc.members.end -= 1;
        assert!(matches!(sc.decode(), Err(CoreError::Codec(_))));
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_subchunk_panics() {
        SubChunk::build(&[]);
    }

    #[test]
    fn chunk_roundtrip() {
        let p1 = similar_payloads(3, 100);
        let p2 = similar_payloads(2, 50);
        let chunk = Chunk {
            subchunks: vec![
                SubChunk::build(
                    &p1.iter()
                        .enumerate()
                        .map(|(i, p)| (ck(1, i as u32), p.as_slice()))
                        .collect::<Vec<_>>(),
                ),
                SubChunk::build(
                    &p2.iter()
                        .enumerate()
                        .map(|(i, p)| (ck(2, i as u32), p.as_slice()))
                        .collect::<Vec<_>>(),
                ),
            ],
        };
        let bytes = chunk.serialize();
        let decoded = Chunk::deserialize(&bytes).unwrap();
        assert_eq!(decoded, chunk);
        assert_eq!(decoded.record_count(), 5);
        assert_eq!(
            &decoded.local_keys()[..],
            [ck(1, 0), ck(1, 1), ck(1, 2), ck(2, 0), ck(2, 1)]
        );
        assert_eq!(decoded.raw_bytes(), 3 * 100 + 2 * 50);
    }

    #[test]
    fn empty_chunk_roundtrip() {
        let chunk = Chunk::new();
        assert_eq!(Chunk::deserialize(&chunk.serialize()).unwrap(), chunk);
        assert_eq!(chunk.record_count(), 0);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(Chunk::deserialize(&[0xff, 0xff, 0xff]).is_err());
        let chunk = Chunk {
            subchunks: vec![SubChunk::build(&[(ck(1, 0), b"data")])],
        };
        let mut bytes = chunk.serialize();
        bytes.truncate(bytes.len() - 2);
        assert!(Chunk::deserialize(&bytes).is_err());
        let mut bytes2 = chunk.serialize();
        bytes2.push(0);
        assert!(Chunk::deserialize(&bytes2).is_err());
    }

    #[test]
    fn from_blob_rejects_every_truncation_and_a_trailing_byte() {
        let groups: Vec<Vec<Vec<u8>>> = (1..=3).map(|k| similar_payloads(k, 40 * k)).collect();
        let chunk = Chunk {
            subchunks: (groups.iter().zip(0u64..))
                .map(|(payloads, pk)| {
                    let records: Vec<(CompositeKey, &[u8])> = (payloads.iter().zip(0u32..))
                        .map(|(p, v)| (ck(pk, v), p.as_slice()))
                        .collect();
                    SubChunk::build(&records)
                })
                .collect(),
        };
        let blob = chunk.serialize();
        assert_eq!(Chunk::from_blob(&Bytes::from(blob.clone())).unwrap(), chunk);
        for cut in 0..blob.len() {
            assert!(Chunk::from_blob(&Bytes::copy_from_slice(&blob[..cut])).is_err(), "prefix of {cut} bytes");
        }
        let mut longer = blob;
        longer.push(0);
        assert!(Chunk::from_blob(&Bytes::from(longer)).is_err());
    }

    #[test]
    fn decode_rejects_members_that_do_not_add_up_to_raw_bytes() {
        let payloads = similar_payloads(3, 100);
        let records: Vec<(CompositeKey, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (ck(1, i as u32), p.as_slice()))
            .collect();
        for raw_bytes in [299, 301, usize::MAX] {
            let mut sc = SubChunk::build(&records);
            sc.raw_bytes = raw_bytes;
            assert!(matches!(sc.decode(), Err(CoreError::Codec(_))), "{raw_bytes}");
            assert!(sc.check().is_err(), "{raw_bytes}");
        }
        // Two sub-chunks that each declare the largest size: the
        // chunk's total saturates.
        let mut sc = SubChunk::build(&records);
        sc.raw_bytes = usize::MAX;
        let chunk = Chunk { subchunks: vec![sc.clone(), sc] };
        assert_eq!(Chunk::deserialize(&chunk.serialize()).unwrap().raw_bytes(), usize::MAX);
    }
}
