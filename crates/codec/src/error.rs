//! Typed error surface of the recording codec.
//!
//! Recordings are untrusted input the moment they touch a disk: the
//! decoder must map every malformed byte sequence — truncation,
//! bit rot, a future format version, plain garbage — to a typed error,
//! never a panic (the analyzer holds `nplus-codec` to the same
//! panic-free profile as the serving surface). Offsets are byte
//! positions into the input, so a corrupt recording can be inspected
//! with nothing fancier than a hex dump.

use std::fmt;

/// Why a byte sequence is not a decodable recording.
#[derive(Debug, Clone, PartialEq, Eq)]
// nplus:allow(VIS001): the error type of the public `Recording::decode`
pub enum DecodeError {
    /// The input does not start with the recording magic — not a
    /// recording at all (or an empty/too-short file).
    BadMagic,
    /// The header names a format version this decoder does not speak.
    /// Recordings are forward-opaque: a v2 writer may change frame
    /// layouts, so a v1 reader must refuse rather than misread.
    UnsupportedVersion(u16),
    /// The input ended in the middle of the named field.
    Truncated {
        /// Byte offset where the read began.
        offset: usize,
        /// The field being read.
        what: &'static str,
    },
    /// The named field decoded to an impossible value (bad tag, bad
    /// UTF-8, an overlong varint, an out-of-range enum byte…).
    Corrupt {
        /// Byte offset where the read began.
        offset: usize,
        /// The field being read.
        what: &'static str,
    },
    /// The input ended cleanly on a frame boundary but without the end
    /// frame — a recording cut short by a crash or a partial copy.
    MissingEnd,
    /// The end frame's declared event counts disagree with the frames
    /// actually present.
    CountMismatch {
        /// Which counter disagreed (`"contention"`, `"join"`,
        /// `"round"`).
        what: &'static str,
        /// Count the end frame declared.
        declared: u64,
        /// Frames actually decoded.
        actual: u64,
    },
    /// Bytes follow the end frame.
    TrailingBytes {
        /// Offset of the first trailing byte.
        offset: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a recording (bad magic)"),
            DecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported recording version {v}")
            }
            DecodeError::Truncated { offset, what } => {
                write!(f, "truncated while reading {what} at byte {offset}")
            }
            DecodeError::Corrupt { offset, what } => {
                write!(f, "corrupt {what} at byte {offset}")
            }
            DecodeError::MissingEnd => write!(f, "recording has no end frame (cut short?)"),
            DecodeError::CountMismatch {
                what,
                declared,
                actual,
            } => write!(
                f,
                "end frame declares {declared} {what} frames but {actual} are present"
            ),
            DecodeError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after the end frame at byte {offset}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why an in-memory [`Recording`](crate::Recording) cannot be encoded.
///
/// The engine can never produce these (its round indices are monotone
/// and its `flow_bits` slices are sized by the scenario), but
/// `Recording` is a plain public struct, so hand-built values must fail
/// typed rather than panic or write undecodable bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
// nplus:allow(VIS001): the error type of the public `Recording::encode`
pub enum EncodeError {
    /// An event's round index is smaller than its predecessor's — the
    /// delta encoding requires monotone rounds.
    NonMonotoneRound {
        /// Index of the offending event.
        index: usize,
        /// Its round.
        round: usize,
        /// The preceding event's (larger) round.
        prev: usize,
    },
    /// A round event carries a `flow_bits` vector whose length differs
    /// from the header's flow count.
    FlowCountMismatch {
        /// Index of the offending event.
        index: usize,
        /// The header's flow count.
        expected: usize,
        /// The event's `flow_bits` length.
        found: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::NonMonotoneRound { index, round, prev } => write!(
                f,
                "event {index} has round {round} after round {prev}: rounds must be monotone"
            ),
            EncodeError::FlowCountMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "event {index} carries {found} flow_bits but the header declares {expected} flows"
            ),
        }
    }
}

impl std::error::Error for EncodeError {}
