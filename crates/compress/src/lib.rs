//! Compression substrates for RStore.
//!
//! The RStore paper relies on several compression primitives that it
//! treats as off-the-shelf; this crate implements all of them from
//! scratch:
//!
//! * [`varint`] — LEB128 variable-length integers and zig-zag signed
//!   encoding, the wire format used by every other codec here.
//! * [`lz`] — an LZ77-family general-purpose byte compressor with a
//!   hash-chain match finder. Used to compress sub-chunks ("one may ...
//!   use an off-the-shelf compression tool", §2.2).
//! * [`delta`] — a byte-level delta codec used to delta-encode sibling
//!   records against their sub-chunk parent ("all the sibling records
//!   would be delta-ed against their common parent", §3.4): in-place
//!   PATCH runs for a pair of equal length when they are the smaller
//!   form, COPY/INSERT op streams otherwise.
//! * [`bitmap`] — a word-aligned hybrid (WAH-style) compressed bitmap;
//!   chunk maps are "converted to a bitmap, compressed and stored in
//!   the KVS" (§3.1).
//! * [`postings`] — delta+varint compressed sorted integer lists, the
//!   inverted-index representation the paper points at for the
//!   version→chunk and key→chunk projections (§2.5).
//!
//! All codecs are pure functions over byte slices with exhaustive
//! round-trip tests (unit and property-based).

pub mod bitmap;
pub mod delta;
pub mod error;
pub mod lz;
pub mod postings;
pub mod varint;

pub use bitmap::Bitmap;
pub use delta::{apply_delta, apply_delta_in_place, apply_delta_into, diff, DeltaOp};
pub use error::CodecError;
pub use lz::{compress, decompress, decompress_into};
pub use postings::PostingsList;
