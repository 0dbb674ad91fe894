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
//! ## Wire format
//!
//! ```text
//! chunk   := varint(n_subchunks) subchunk*
//! subchunk:= varint(n_members) member_ck{n_members} varint(len) payload
//! member_ck := 12-byte CompositeKey
//! payload := lz( varint(rep_len) rep_bytes (varint(delta_len) delta)* )
//! ```

use crate::error::CoreError;
use crate::model::CompositeKey;
use bytes::Bytes;
use rstore_compress::{apply_delta, diff, lz, varint};
use std::sync::OnceLock;

/// A compressed group of same-key records.
///
/// Decompression is memoized: the first [`SubChunk::decode`] call
/// stores the member payloads (as shared [`Bytes`]) in a `OnceLock`,
/// so a sub-chunk resident in the decoded-chunk cache decompresses at
/// most once no matter how many queries extract from it.
#[derive(Debug, Clone)]
pub struct SubChunk {
    /// Composite keys of the members; the first is the representative.
    pub members: Vec<CompositeKey>,
    /// LZ-compressed payload (representative + deltas).
    pub payload: Vec<u8>,
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
            members: records.iter().map(|&(ck, _)| ck).collect(),
            payload: lz::compress(&inner),
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
    /// (used by the memoizing path and by one-shot consumers).
    pub fn decode_uncached(&self) -> Result<Vec<Bytes>, CoreError> {
        let inner = lz::decompress(&self.payload)?;
        let mut r = varint::VarintReader::new(&inner);
        let rep_len = r.read_u64()? as usize;
        let mut out: Vec<Bytes> = Vec::with_capacity(self.members.len());
        out.push(Bytes::from(r.read_bytes(rep_len)?.to_vec()));
        for i in 1..self.members.len() {
            let delta_len = r.read_u64()? as usize;
            let delta = r.read_bytes(delta_len)?;
            let next = apply_delta(&out[i - 1], delta)?;
            out.push(Bytes::from(next));
        }
        if !r.is_empty() {
            return Err(CoreError::Codec("trailing bytes in sub-chunk".into()));
        }
        Ok(out)
    }
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

    /// Total uncompressed bytes across sub-chunks.
    pub fn raw_bytes(&self) -> usize {
        self.subchunks.iter().map(|s| s.raw_bytes).sum()
    }

    /// Number of records (sub-chunk members) in the chunk.
    pub fn record_count(&self) -> usize {
        self.subchunks.iter().map(SubChunk::len).sum()
    }

    /// The flattened composite-key list defining chunk-local ordinals.
    pub fn local_keys(&self) -> Vec<CompositeKey> {
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
            for ck in &sc.members {
                out.extend_from_slice(&ck.to_bytes());
            }
            varint::write_u64(&mut out, sc.payload.len() as u64);
            out.extend_from_slice(&sc.payload);
            varint::write_u64(&mut out, sc.raw_bytes as u64);
        }
        out
    }

    /// Deserializes a buffer produced by [`Chunk::serialize`].
    pub fn deserialize(input: &[u8]) -> Result<Self, CoreError> {
        let mut r = varint::VarintReader::new(input);
        let n_sub = r.read_u64()? as usize;
        if n_sub > input.len() {
            return Err(CoreError::Codec("sub-chunk count exceeds input".into()));
        }
        let mut subchunks = Vec::with_capacity(n_sub);
        for _ in 0..n_sub {
            let n_members = r.read_u64()? as usize;
            if n_members > input.len() {
                return Err(CoreError::Codec("member count exceeds input".into()));
            }
            let mut members = Vec::with_capacity(n_members);
            for _ in 0..n_members {
                let bytes: [u8; 12] = r
                    .read_bytes(12)?
                    .try_into()
                    .expect("read_bytes returned 12 bytes");
                members.push(CompositeKey::from_bytes(&bytes));
            }
            let payload_len = r.read_u64()? as usize;
            let payload = r.read_bytes(payload_len)?.to_vec();
            let raw_bytes = r.read_u64()? as usize;
            subchunks.push(SubChunk {
                members,
                payload,
                raw_bytes,
                decoded: OnceLock::new(),
            });
        }
        if !r.is_empty() {
            return Err(CoreError::Codec("trailing bytes in chunk".into()));
        }
        Ok(Chunk { subchunks })
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
        sc.payload[header] = 0x77;
        assert!(matches!(sc.decode(), Err(CoreError::Codec(_))));
        // One member fewer than the payload holds: trailing bytes.
        let mut sc = SubChunk::build(&records);
        sc.members.pop();
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
            decoded.local_keys(),
            vec![ck(1, 0), ck(1, 1), ck(1, 2), ck(2, 0), ck(2, 1)]
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
}
