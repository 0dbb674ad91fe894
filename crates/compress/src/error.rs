//! Error type shared by all codecs in this crate.

use std::fmt;

/// An error produced while decoding a compressed byte stream.
///
/// Encoding never fails; decoding fails only on corrupt or truncated
/// input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the decoder finished.
    UnexpectedEof,
    /// A varint ran past the maximum encodable width.
    VarintOverflow,
    /// A back-reference pointed outside the already-decoded output.
    BadBackReference {
        /// Offset the reference asked for.
        offset: usize,
        /// Bytes decoded so far.
        decoded: usize,
    },
    /// A COPY op in a delta referenced a range outside the base.
    BadCopyRange {
        /// Start of the requested range.
        start: usize,
        /// Length of the requested range.
        len: usize,
        /// Length of the base input.
        base_len: usize,
    },
    /// A patch op's run was empty or ran past the end of the record.
    BadPatchRun {
        /// Where the run starts.
        start: usize,
        /// Length of the run.
        run: usize,
        /// Length of the record (the base's, and the target's).
        len: usize,
    },
    /// The stream declared an output size that was not produced.
    LengthMismatch {
        /// Declared size.
        expected: usize,
        /// Produced size.
        actual: usize,
    },
    /// An unknown tag byte was encountered.
    BadTag(u8),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            CodecError::BadBackReference { offset, decoded } => write!(
                f,
                "back-reference offset {offset} exceeds {decoded} decoded bytes"
            ),
            CodecError::BadCopyRange {
                start,
                len,
                base_len,
            } => write!(
                f,
                "copy range {start}..{} exceeds base length {base_len}",
                start.saturating_add(*len)
            ),
            CodecError::BadPatchRun { start, run, len } => write!(
                f,
                "patch run {start}..{} is empty or ends past a {len}-byte record",
                start.saturating_add(*run)
            ),
            CodecError::LengthMismatch { expected, actual } => {
                write!(f, "declared length {expected} but produced {actual}")
            }
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#x}"),
        }
    }
}

impl std::error::Error for CodecError {}
