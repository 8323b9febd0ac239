//! The recording format: a versioned header plus delta-encoded,
//! varint-packed event frames (DESIGN.md §12).
//!
//! ```text
//! recording := magic version header frame* end
//! magic     := "NPLUSREC"                     (8 bytes)
//! version   := u16 LE                         (this crate speaks 1)
//! header    := policy environment scenario traffic mobility
//!              key? seed seed_index n_seeds policy_index n_policies
//!              rounds n_flows bandwidth_bits
//! frame     := 0x01 contention | 0x02 join | 0x03 round
//! end       := 0xFF n_contentions n_joins n_rounds
//! ```
//!
//! Round indices are monotone across the whole stream, so every frame
//! stores the *delta* from the previous frame's round; most frames pay
//! one varint byte for it. `flow_bits` are the only floats in the
//! stream and travel as raw little-endian IEEE-754 bits — decode is
//! bitwise-exact by construction, which is what lets replay reproduce
//! `RunResult`s bit-for-bit. The end frame carries the event counts so
//! a recording truncated on a frame boundary is still detected.

use crate::error::DecodeError;
use crate::wire::{put_f64_bits, put_str, put_varint, Reader};
use nplus::{ContentionKind, ContentionRecord, JoinRecord, StreamRecord};

/// The 8-byte magic every recording starts with.
pub(crate) const MAGIC: [u8; 8] = *b"NPLUSREC";

/// The format version this crate writes (and the only one it reads).
pub(crate) const VERSION: u16 = 1;

const TAG_CONTENTION: u8 = 0x01;
const TAG_JOIN: u8 = 0x02;
const TAG_ROUND: u8 = 0x03;
const TAG_END: u8 = 0xFF;

/// Everything a recording knows about the run it captured — the
/// decoded header. String fields mirror the sweep spec labels
/// (`traffic`/`mobility` hold the models' canonical `spec_string`
/// forms); `canonical_key` is the sweep's `CanonicalSpec` v3 content
/// key when the spec canonicalizes, so recordings are addressable by
/// the same key as the server's result cache.
#[derive(Debug, Clone, PartialEq)]
// nplus:allow(VIS001): the type of the public field `Recording::header`
pub struct RunHeader {
    /// Registry name of the policy this run simulated.
    pub policy: String,
    /// Registry name of the propagation environment (empty when the
    /// recording was taken outside a sweep and no identity was given).
    pub environment: String,
    /// The scenario spec label (e.g. `"random:7"`, `"city:256"`).
    pub scenario: String,
    /// The traffic model's canonical spec string (e.g. `"saturated"`).
    pub traffic: String,
    /// The mobility model's canonical spec string (e.g. `"static"`).
    pub mobility: String,
    /// The sweep's `CanonicalSpec` v3 key, when known.
    pub canonical_key: Option<u128>,
    /// The job's topology/run seed.
    pub seed: u64,
    /// Position of this seed in the sweep's seed list.
    pub seed_index: usize,
    /// How many seeds the sweep ran.
    pub n_seeds: usize,
    /// Position of this policy in the sweep's policy list.
    pub policy_index: usize,
    /// How many policies the sweep compared.
    pub n_policies: usize,
    /// Rounds the run simulated.
    pub rounds: usize,
    /// Flows in the scenario (the length of every round frame's
    /// `flow_bits`).
    pub n_flows: usize,
    /// Sample clock in Hz, bit-exact (stored as raw f64 bits).
    pub bandwidth_hz: f64,
}

/// One end-of-round settlement, owned (the decoded form of the
/// engine's borrowed `RoundRecord`).
#[derive(Debug, Clone, PartialEq)]
// nplus:allow(VIS001): the payload of the public `Event::Round` and the item of `Recording::round_events`
pub struct RoundEvent {
    /// Round index.
    pub round: usize,
    /// Data-body length in OFDM symbols.
    pub body_symbols: usize,
    /// Total airtime the round consumed, in samples.
    pub duration_samples: u64,
    /// Delivered bits per flow, post-settlement (bitwise-exact).
    pub flow_bits: Vec<f64>,
    /// Final per-stream ledger, in planning order.
    pub streams: Vec<StreamRecord>,
}

/// One decoded event frame, in stream order.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A medium acquisition.
    Contention(ContentionRecord),
    /// A secondary-contention join attempt.
    Join(JoinRecord),
    /// An end-of-round settlement.
    Round(RoundEvent),
}

impl Event {
    /// The round index this event belongs to.
    pub(crate) fn round(&self) -> usize {
        match self {
            Event::Contention(ev) => ev.round,
            Event::Join(ev) => ev.round,
            Event::Round(ev) => ev.round,
        }
    }
}

/// A decoded recording: header plus the full event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// The run's identity and dimensions.
    pub header: RunHeader,
    /// Every event, in the order the engine narrated it.
    pub events: Vec<Event>,
}

impl Recording {
    /// Decodes one recording from `bytes`.
    ///
    /// # Errors
    /// A typed [`DecodeError`] for anything that is not a complete,
    /// well-formed v1 recording — wrong magic, a future version,
    /// truncation (including a missing end frame), or corrupt fields.
    /// Never panics, whatever the input.
    pub fn decode(bytes: &[u8]) -> Result<Recording, DecodeError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        // The reader runs over the full input so every error offset is
        // an absolute byte position.
        let mut r = Reader::new(bytes);
        r.bytes(MAGIC.len(), "magic")?;
        let version_bytes = r.bytes(2, "version")?;
        let version = u16::from_le_bytes([version_bytes[0], version_bytes[1]]);
        if version != VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let header = decode_header(&mut r)?;
        let mut events = Vec::new();
        let mut counts = FrameCounts::default();
        let mut last_round: u64 = 0;
        loop {
            if r.is_empty() {
                return Err(DecodeError::MissingEnd);
            }
            let tag_offset = r.pos();
            let tag = r.byte("frame tag")?;
            match tag {
                TAG_CONTENTION => {
                    let round = read_round(&mut r, &mut last_round)?;
                    let kind_offset = r.pos();
                    let kind = match r.byte("contention kind")? {
                        0 => ContentionKind::Primary,
                        1 => ContentionKind::Join,
                        2 => ContentionKind::Scheduled,
                        _ => {
                            return Err(DecodeError::Corrupt {
                                offset: kind_offset,
                                what: "contention kind",
                            })
                        }
                    };
                    let n_contenders = r.varint_usize("n_contenders")?;
                    let winner = r.varint_usize("winner")?;
                    let slots = r.varint("slots")?;
                    counts.contentions += 1;
                    events.push(Event::Contention(ContentionRecord {
                        round,
                        kind,
                        n_contenders,
                        winner,
                        slots,
                    }));
                }
                TAG_JOIN => {
                    let round = read_round(&mut r, &mut last_round)?;
                    let tx = r.varint_usize("join tx")?;
                    let n_streams = r.varint_usize("join n_streams")?;
                    let accepted_offset = r.pos();
                    let accepted = match r.byte("join accepted")? {
                        0 => false,
                        1 => true,
                        _ => {
                            return Err(DecodeError::Corrupt {
                                offset: accepted_offset,
                                what: "join accepted",
                            })
                        }
                    };
                    counts.joins += 1;
                    events.push(Event::Join(JoinRecord {
                        round,
                        tx,
                        n_streams,
                        accepted,
                    }));
                }
                TAG_ROUND => {
                    let round = read_round(&mut r, &mut last_round)?;
                    let body_symbols = r.varint_usize("body_symbols")?;
                    let duration_samples = r.varint("duration_samples")?;
                    let mut flow_bits = Vec::new();
                    for _ in 0..header.n_flows {
                        flow_bits.push(r.f64_bits("flow_bits")?);
                    }
                    let n_streams = r.varint_usize("stream count")?;
                    let mut streams = Vec::new();
                    for _ in 0..n_streams {
                        streams.push(StreamRecord {
                            flow: r.varint_usize("stream flow")?,
                            tx: r.varint_usize("stream tx")?,
                            rate: r.varint_usize("stream rate")?,
                            active_symbols: r.varint_usize("stream active_symbols")?,
                        });
                    }
                    counts.rounds += 1;
                    events.push(Event::Round(RoundEvent {
                        round,
                        body_symbols,
                        duration_samples,
                        flow_bits,
                        streams,
                    }));
                }
                TAG_END => {
                    for (what, declared, actual) in [
                        (
                            "contention",
                            r.varint("end contention count")?,
                            counts.contentions,
                        ),
                        ("join", r.varint("end join count")?, counts.joins),
                        ("round", r.varint("end round count")?, counts.rounds),
                    ] {
                        if declared != actual {
                            return Err(DecodeError::CountMismatch {
                                what,
                                declared,
                                actual,
                            });
                        }
                    }
                    if !r.is_empty() {
                        return Err(DecodeError::TrailingBytes { offset: r.pos() });
                    }
                    return Ok(Recording { header, events });
                }
                _ => {
                    return Err(DecodeError::Corrupt {
                        offset: tag_offset,
                        what: "frame tag",
                    })
                }
            }
        }
    }

    /// The round settlements alone, in order — what replay folds.
    pub fn round_events(&self) -> impl Iterator<Item = &RoundEvent> {
        self.events.iter().filter_map(|e| match e {
            Event::Round(ev) => Some(ev),
            _ => None,
        })
    }
}

/// Running frame tally — written into (and checked against) the end
/// frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FrameCounts {
    pub(crate) contentions: u64,
    pub(crate) joins: u64,
    pub(crate) rounds: u64,
}

fn read_round(r: &mut Reader<'_>, last_round: &mut u64) -> Result<usize, DecodeError> {
    let offset = r.pos();
    let delta = r.varint("round delta")?;
    let round = last_round.checked_add(delta).ok_or(DecodeError::Corrupt {
        offset,
        what: "round delta",
    })?;
    *last_round = round;
    usize::try_from(round).map_err(|_| DecodeError::Corrupt {
        offset,
        what: "round delta",
    })
}

fn decode_header(r: &mut Reader<'_>) -> Result<RunHeader, DecodeError> {
    let policy = r.string("policy")?;
    let environment = r.string("environment")?;
    let scenario = r.string("scenario")?;
    let traffic = r.string("traffic")?;
    let mobility = r.string("mobility")?;
    let key_flag_offset = r.pos();
    let canonical_key = match r.byte("canonical key flag")? {
        0 => None,
        1 => Some(r.u128_le("canonical key")?),
        _ => {
            return Err(DecodeError::Corrupt {
                offset: key_flag_offset,
                what: "canonical key flag",
            })
        }
    };
    let seed = r.varint("seed")?;
    let seed_index = r.varint_usize("seed_index")?;
    let n_seeds = r.varint_usize("n_seeds")?;
    let policy_index = r.varint_usize("policy_index")?;
    let n_policies = r.varint_usize("n_policies")?;
    let rounds = r.varint_usize("rounds")?;
    let n_flows = r.varint_usize("n_flows")?;
    let bandwidth_hz = r.f64_bits("bandwidth_hz")?;
    Ok(RunHeader {
        policy,
        environment,
        scenario,
        traffic,
        mobility,
        canonical_key,
        seed,
        seed_index,
        n_seeds,
        policy_index,
        n_policies,
        rounds,
        n_flows,
        bandwidth_hz,
    })
}

pub(crate) fn encode_header(out: &mut Vec<u8>, h: &RunHeader) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    put_str(out, &h.policy);
    put_str(out, &h.environment);
    put_str(out, &h.scenario);
    put_str(out, &h.traffic);
    put_str(out, &h.mobility);
    match h.canonical_key {
        None => out.push(0),
        Some(key) => {
            out.push(1);
            out.extend_from_slice(&key.to_le_bytes());
        }
    }
    put_varint(out, h.seed);
    put_varint(out, h.seed_index as u64);
    put_varint(out, h.n_seeds as u64);
    put_varint(out, h.policy_index as u64);
    put_varint(out, h.n_policies as u64);
    put_varint(out, h.rounds as u64);
    put_varint(out, h.n_flows as u64);
    put_f64_bits(out, h.bandwidth_hz);
}

pub(crate) fn encode_contention(
    out: &mut Vec<u8>,
    delta: u64,
    ev: &ContentionRecord,
    counts: &mut FrameCounts,
) {
    out.push(TAG_CONTENTION);
    put_varint(out, delta);
    out.push(match ev.kind {
        ContentionKind::Primary => 0,
        ContentionKind::Join => 1,
        ContentionKind::Scheduled => 2,
    });
    put_varint(out, ev.n_contenders as u64);
    put_varint(out, ev.winner as u64);
    put_varint(out, ev.slots);
    counts.contentions += 1;
}

pub(crate) fn encode_join(
    out: &mut Vec<u8>,
    delta: u64,
    ev: &JoinRecord,
    counts: &mut FrameCounts,
) {
    out.push(TAG_JOIN);
    put_varint(out, delta);
    put_varint(out, ev.tx as u64);
    put_varint(out, ev.n_streams as u64);
    out.push(u8::from(ev.accepted));
    counts.joins += 1;
}

/// Encodes a round frame from the borrowed pieces the observer sees
/// (so the hot path never materializes an owned [`RoundEvent`]).
pub(crate) fn encode_round_parts(
    out: &mut Vec<u8>,
    delta: u64,
    body_symbols: usize,
    duration_samples: u64,
    flow_bits: &[f64],
    streams: &[StreamRecord],
    counts: &mut FrameCounts,
) {
    out.push(TAG_ROUND);
    put_varint(out, delta);
    put_varint(out, body_symbols as u64);
    put_varint(out, duration_samples);
    for &b in flow_bits {
        put_f64_bits(out, b);
    }
    put_varint(out, streams.len() as u64);
    for s in streams {
        put_varint(out, s.flow as u64);
        put_varint(out, s.tx as u64);
        put_varint(out, s.rate as u64);
        put_varint(out, s.active_symbols as u64);
    }
    counts.rounds += 1;
}

pub(crate) fn encode_end(out: &mut Vec<u8>, counts: &FrameCounts) {
    out.push(TAG_END);
    put_varint(out, counts.contentions);
    put_varint(out, counts.joins);
    put_varint(out, counts.rounds);
}
