//! Allocation counts of the chunk read path: reading a fetched blob
//! costs a constant number of allocations whatever its sub-chunk
//! count, and decoding a sub-chunk costs one allocation per member.
//!
//! Its own test binary because it installs a counting global
//! allocator. The counter is per thread, so tests running in parallel
//! do not see each other's allocations.

use bytes::Bytes;
use rstore_core::chunk::{Chunk, SubChunk};
use rstore_core::model::{CompositeKey, VersionId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by this thread while running `f`, and its result.
fn thread_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// `n` records of key `pk`, each a small edit of the one before.
fn history(pk: u64, n: usize) -> Vec<(CompositeKey, Vec<u8>)> {
    let mut payload: Vec<u8> = (0..120u32).map(|i| (i * 7 + pk as u32) as u8).collect();
    (0..n)
        .map(|v| {
            payload[(v * 13) % 120] ^= 0x5A;
            (CompositeKey::new(pk, VersionId(v as u32)), payload.clone())
        })
        .collect()
}

/// A serialized chunk of `subchunks` sub-chunks of `k` members each.
fn blob(subchunks: usize, k: usize) -> Bytes {
    let chunk = Chunk {
        subchunks: (0..subchunks as u64)
            .map(|pk| {
                let records = history(pk, k);
                let refs: Vec<(CompositeKey, &[u8])> =
                    records.iter().map(|(ck, p)| (*ck, p.as_slice())).collect();
                SubChunk::build(&refs)
            })
            .collect(),
    };
    Bytes::from(chunk.serialize())
}

#[test]
fn reading_a_blob_costs_the_same_allocations_at_any_sub_chunk_count() {
    let (four, sixty_four) = (blob(4, 1), blob(64, 1));
    let (small, _) = thread_allocs(|| Chunk::from_blob(&four).unwrap());
    let (allocs, chunk) = thread_allocs(|| Chunk::from_blob(&sixty_four).unwrap());
    assert_eq!(chunk.subchunks.len(), 64);
    assert!(allocs <= 4, "from_blob on 64 sub-chunks made {allocs} allocations");
    assert_eq!(allocs, small, "the count must not grow with the sub-chunk count");
    // The key table is handed out, not flattened into a copy.
    let (allocs, keys) = thread_allocs(|| chunk.local_keys());
    assert_eq!((allocs, keys.len()), (0, 64));
}

#[test]
fn decoding_a_sub_chunk_costs_one_allocation_per_member() {
    for k in [1, 4, 9] {
        let chunk = Chunk::from_blob(&blob(2, k)).unwrap();
        let sc = &chunk.subchunks[1];
        // The first decode on a thread grows its scratch buffers.
        sc.decode_uncached().unwrap();
        let (allocs, members) = thread_allocs(|| sc.decode_uncached().unwrap());
        assert_eq!(members.len(), k);
        assert!(allocs <= k as u64 + 2, "a {k}-member decode made {allocs} allocations");
        let (allocs, checked) = thread_allocs(|| sc.check());
        assert!(checked.is_ok());
        assert_eq!(allocs, 0, "a {k}-member check allocated");
    }
}

#[test]
fn a_shared_payload_stays_sixteen_bytes() {
    assert_eq!(std::mem::size_of::<Bytes>(), 16);
}
