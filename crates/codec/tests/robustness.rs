//! Hostile-input suite: recordings are untrusted bytes, and `decode`
//! must return a typed [`DecodeError`] — never panic, never
//! over-allocate from attacker-declared counts — for every truncation,
//! corruption, wrong-magic and future-version input.

mod common;

use common::record_sweep;
use nplus_codec::{DecodeError, Event, Recording};

/// The wire format's magic and version, spelled out so that changing
/// either is a deliberate edit here too.
const MAGIC: [u8; 8] = *b"NPLUSREC";
const VERSION: u16 = 1;
use proptest::prelude::*;

/// One small, real recording to mutate (nplus on pairs:2 exercises
/// every frame kind: contentions, joins, rounds).
fn valid_bytes() -> Vec<u8> {
    let r = record_sweep("pairs:2", "sigcomm11", &["nplus"], 1, 4);
    r.bytes.into_iter().next().expect("one recording")
}

/// Every strict prefix fails with a typed error — a recording cut off
/// at any byte is detected (the end frame makes clean-looking cuts at
/// frame boundaries detectable too).
#[test]
fn every_truncation_is_detected() {
    let bytes = valid_bytes();
    assert!(Recording::decode(&bytes).is_ok());
    for len in 0..bytes.len() {
        let err = Recording::decode(&bytes[..len]).expect_err("strict prefix must not decode");
        match err {
            DecodeError::BadMagic
            | DecodeError::Truncated { .. }
            | DecodeError::MissingEnd
            | DecodeError::Corrupt { .. } => {}
            other => panic!("prefix of {len} bytes gave unexpected error {other:?}"),
        }
    }
}

/// Flipping any single byte never panics; it either still decodes (a
/// value changed in place) or reports a typed error.
#[test]
fn single_byte_flips_never_panic() {
    let bytes = valid_bytes();
    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0xFF;
        let _ = Recording::decode(&mutated);
    }
}

/// Wrong magic is the first check — even on otherwise valid bytes.
#[test]
fn bad_magic_is_rejected() {
    let mut bytes = valid_bytes();
    bytes[0] ^= 0x20;
    assert_eq!(Recording::decode(&bytes), Err(DecodeError::BadMagic));
    assert_eq!(Recording::decode(b""), Err(DecodeError::BadMagic));
    assert_eq!(Recording::decode(b"NPLUSRE"), Err(DecodeError::BadMagic));
}

/// A future format version is refused up front with the version it
/// saw, not mis-parsed as v1.
#[test]
fn future_version_is_refused() {
    let mut bytes = valid_bytes();
    let v2 = (VERSION + 1).to_le_bytes();
    bytes[MAGIC.len()..MAGIC.len() + 2].copy_from_slice(&v2);
    assert_eq!(
        Recording::decode(&bytes),
        Err(DecodeError::UnsupportedVersion(VERSION + 1))
    );
}

/// Bytes after the end frame are an error, not silently ignored.
#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = valid_bytes();
    let offset = bytes.len();
    bytes.push(0);
    assert_eq!(
        Recording::decode(&bytes),
        Err(DecodeError::TrailingBytes { offset })
    );
}

/// The end frame's declared tallies must match the frames actually
/// decoded — a spliced or doctored stream is caught.
#[test]
fn end_count_mismatch_is_detected() {
    let bytes = valid_bytes();
    // The file ends with the end frame's three count varints; the
    // recording is small, so each count fits one varint byte and the
    // last byte is the round count.
    let mut mutated = bytes.clone();
    let last = mutated.len() - 1;
    assert!(mutated[last] < 0x7F, "round count fits one varint byte");
    mutated[last] += 1;
    match Recording::decode(&mutated) {
        Err(DecodeError::CountMismatch {
            what: "round",
            declared,
            actual,
        }) => assert_eq!(declared, actual + 1),
        other => panic!("expected round-count mismatch, got {other:?}"),
    }
}

/// A stream that simply stops before the end frame (a crashed writer)
/// reports `MissingEnd`, distinct from a mid-frame cut.
#[test]
fn missing_end_frame_is_detected() {
    let rec = Recording::decode(&valid_bytes()).expect("valid bytes decode");
    let headless = Recording {
        header: rec.header,
        events: Vec::new(),
    };
    let encoded = headless.encode().expect("empty recording encodes");
    // The end frame of an empty recording is exactly 4 bytes: the tag
    // and three zero counts.
    let cut = &encoded[..encoded.len() - 4];
    assert_eq!(Recording::decode(cut), Err(DecodeError::MissingEnd));
}

/// Errors carry absolute byte offsets into the input.
#[test]
fn truncation_errors_report_absolute_offsets() {
    let bytes = valid_bytes();
    let err = Recording::decode(&bytes[..bytes.len() / 2]).expect_err("prefix must not decode");
    if let DecodeError::Truncated { offset, .. } = err {
        assert!(offset <= bytes.len() / 2, "offset {offset} inside input");
        assert!(offset > MAGIC.len(), "offset {offset} past the magic");
    }
}

/// Hostile headers cannot force large allocations: a declared
/// `n_flows` is only believed once the bytes for every flow's bits
/// are actually present.
#[test]
fn declared_counts_do_not_allocate_ahead_of_bytes() {
    let rec = Recording::decode(&valid_bytes()).expect("valid bytes decode");
    let mut huge = Recording {
        header: rec.header,
        events: Vec::new(),
    };
    huge.header.n_flows = usize::MAX / 16;
    let mut bytes = huge.encode().expect("header-only recording encodes");
    // Swap the end frame for a hand-built round frame (tag, then zero
    // varints for delta, body_symbols and duration_samples) so the
    // decoder has to face the declared flow count.
    bytes.truncate(bytes.len() - 4);
    bytes.extend_from_slice(&[0x03, 0x00, 0x00, 0x00]);
    // Decoding must fail fast on the first missing flow-bits bytes
    // rather than trying to reserve n_flows slots up front.
    match Recording::decode(&bytes) {
        Err(DecodeError::Truncated { .. }) => {}
        other => panic!("expected truncation, got {other:?}"),
    }
}

/// Encoding rejects a non-monotone event stream instead of producing
/// bytes that cannot round-trip.
#[test]
fn encode_rejects_non_monotone_rounds() {
    let rec = Recording::decode(&valid_bytes()).expect("valid bytes decode");
    let rounds: Vec<Event> = rec
        .events
        .iter()
        .filter(|e| matches!(e, Event::Round(_)))
        .cloned()
        .collect();
    assert!(rounds.len() >= 2, "enough rounds to reverse");
    let mut reversed = rec.clone();
    reversed.events = rounds.into_iter().rev().collect();
    assert!(matches!(
        reversed.encode(),
        Err(nplus_codec::EncodeError::NonMonotoneRound { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Recording::decode(&bytes);
    }

    /// Arbitrary bytes behind a valid magic+version prefix never panic
    /// the header and frame decoders either.
    #[test]
    fn arbitrary_frames_never_panic(tail in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut bytes = Vec::from(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&tail);
        let _ = Recording::decode(&bytes);
    }
}
