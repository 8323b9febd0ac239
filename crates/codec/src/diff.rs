//! First-divergence diff between two recordings.
//!
//! The bit-identity suites can say *that* two runs diverged; this
//! module says *where*: the first event (by stream position) and the
//! first field within it where the recordings disagree. Floats are
//! compared by raw bits — the recording's own equality — and rendered
//! with their bit patterns so a one-ulp drift is visible even when the
//! decimal forms print identically.

use crate::recording::{Event, Recording, RoundEvent};
use nplus::{ContentionKind, ContentionRecord, JoinRecord};

/// The first point where two recordings disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
// nplus:allow(VIS001): the return type of the public `diff_recordings`
pub struct Divergence {
    /// Where the disagreement sits: `"header"` or `"event N"` (stream
    /// position, 0-based).
    pub location: String,
    /// The round the diverging event belongs to (`None` for header
    /// fields).
    pub round: Option<usize>,
    /// The disagreeing field (e.g. `"flow_bits[2]"`, `"winner"`).
    pub field: String,
    /// The first recording's value, rendered.
    pub a: String,
    /// The second recording's value, rendered.
    pub b: String,
}

/// Finds the first divergence between two recordings: header fields
/// first (in wire order), then events in stream order, each compared
/// field by field. `None` means the recordings are bitwise-equivalent
/// (same header, same events, floats equal by bits).
pub fn diff_recordings(a: &Recording, b: &Recording) -> Option<Divergence> {
    if let Some(d) = diff_headers(a, b) {
        return Some(d);
    }
    for (index, (ea, eb)) in a.events.iter().zip(b.events.iter()).enumerate() {
        if let Some(d) = diff_events(index, ea, eb) {
            return Some(d);
        }
    }
    if a.events.len() != b.events.len() {
        let index = a.events.len().min(b.events.len());
        let longer = if a.events.len() > b.events.len() {
            &a.events
        } else {
            &b.events
        };
        return Some(Divergence {
            location: format!("event {index}"),
            round: longer.get(index).map(Event::round),
            field: "event count".to_string(),
            a: a.events.len().to_string(),
            b: b.events.len().to_string(),
        });
    }
    None
}

fn diff_headers(a: &Recording, b: &Recording) -> Option<Divergence> {
    let ha = &a.header;
    let hb = &b.header;
    let fields: [(&str, String, String); 14] = [
        ("policy", ha.policy.clone(), hb.policy.clone()),
        (
            "environment",
            ha.environment.clone(),
            hb.environment.clone(),
        ),
        ("scenario", ha.scenario.clone(), hb.scenario.clone()),
        ("traffic", ha.traffic.clone(), hb.traffic.clone()),
        ("mobility", ha.mobility.clone(), hb.mobility.clone()),
        (
            "canonical_key",
            render_key(ha.canonical_key),
            render_key(hb.canonical_key),
        ),
        ("seed", ha.seed.to_string(), hb.seed.to_string()),
        (
            "seed_index",
            ha.seed_index.to_string(),
            hb.seed_index.to_string(),
        ),
        ("n_seeds", ha.n_seeds.to_string(), hb.n_seeds.to_string()),
        (
            "policy_index",
            ha.policy_index.to_string(),
            hb.policy_index.to_string(),
        ),
        (
            "n_policies",
            ha.n_policies.to_string(),
            hb.n_policies.to_string(),
        ),
        ("rounds", ha.rounds.to_string(), hb.rounds.to_string()),
        ("n_flows", ha.n_flows.to_string(), hb.n_flows.to_string()),
        (
            "bandwidth_hz",
            render_f64(ha.bandwidth_hz),
            render_f64(hb.bandwidth_hz),
        ),
    ];
    for (field, va, vb) in fields {
        if va != vb {
            return Some(Divergence {
                location: "header".to_string(),
                round: None,
                field: field.to_string(),
                a: va,
                b: vb,
            });
        }
    }
    None
}

fn diff_events(index: usize, a: &Event, b: &Event) -> Option<Divergence> {
    let at = |round: usize, field: String, va: String, vb: String| {
        Some(Divergence {
            location: format!("event {index}"),
            round: Some(round),
            field,
            a: va,
            b: vb,
        })
    };
    match (a, b) {
        (Event::Contention(ca), Event::Contention(cb)) => diff_contention(index, ca, cb),
        (Event::Join(ja), Event::Join(jb)) => diff_join(index, ja, jb),
        (Event::Round(ra), Event::Round(rb)) => diff_round(index, ra, rb),
        _ => at(
            a.round(),
            "frame kind".to_string(),
            kind_name(a).to_string(),
            kind_name(b).to_string(),
        ),
    }
}

fn kind_name(e: &Event) -> &'static str {
    match e {
        Event::Contention(_) => "contention",
        Event::Join(_) => "join",
        Event::Round(_) => "round",
    }
}

fn contention_kind_name(k: ContentionKind) -> &'static str {
    match k {
        ContentionKind::Primary => "primary",
        ContentionKind::Join => "join",
        ContentionKind::Scheduled => "scheduled",
    }
}

fn diff_contention(index: usize, a: &ContentionRecord, b: &ContentionRecord) -> Option<Divergence> {
    let fields: [(&str, String, String); 5] = [
        ("round", a.round.to_string(), b.round.to_string()),
        (
            "kind",
            contention_kind_name(a.kind).to_string(),
            contention_kind_name(b.kind).to_string(),
        ),
        (
            "n_contenders",
            a.n_contenders.to_string(),
            b.n_contenders.to_string(),
        ),
        ("winner", a.winner.to_string(), b.winner.to_string()),
        ("slots", a.slots.to_string(), b.slots.to_string()),
    ];
    emit(index, a.round, fields.into_iter())
}

fn diff_join(index: usize, a: &JoinRecord, b: &JoinRecord) -> Option<Divergence> {
    let fields: [(&str, String, String); 4] = [
        ("round", a.round.to_string(), b.round.to_string()),
        ("tx", a.tx.to_string(), b.tx.to_string()),
        (
            "n_streams",
            a.n_streams.to_string(),
            b.n_streams.to_string(),
        ),
        ("accepted", a.accepted.to_string(), b.accepted.to_string()),
    ];
    emit(index, a.round, fields.into_iter())
}

fn diff_round(index: usize, a: &RoundEvent, b: &RoundEvent) -> Option<Divergence> {
    let scalar: [(&str, String, String); 3] = [
        ("round", a.round.to_string(), b.round.to_string()),
        (
            "body_symbols",
            a.body_symbols.to_string(),
            b.body_symbols.to_string(),
        ),
        (
            "duration_samples",
            a.duration_samples.to_string(),
            b.duration_samples.to_string(),
        ),
    ];
    if let Some(d) = emit(index, a.round, scalar.into_iter()) {
        return Some(d);
    }
    for (f, (va, vb)) in a.flow_bits.iter().zip(b.flow_bits.iter()).enumerate() {
        if va.to_bits() != vb.to_bits() {
            return divergence(
                index,
                a.round,
                format!("flow_bits[{f}]"),
                render_f64(*va),
                render_f64(*vb),
            );
        }
    }
    if a.flow_bits.len() != b.flow_bits.len() {
        return divergence(
            index,
            a.round,
            "flow_bits length".to_string(),
            a.flow_bits.len().to_string(),
            b.flow_bits.len().to_string(),
        );
    }
    for (s, (sa, sb)) in a.streams.iter().zip(b.streams.iter()).enumerate() {
        let fields: [(String, String, String); 4] = [
            (
                format!("streams[{s}].flow"),
                sa.flow.to_string(),
                sb.flow.to_string(),
            ),
            (
                format!("streams[{s}].tx"),
                sa.tx.to_string(),
                sb.tx.to_string(),
            ),
            (
                format!("streams[{s}].rate"),
                sa.rate.to_string(),
                sb.rate.to_string(),
            ),
            (
                format!("streams[{s}].active_symbols"),
                sa.active_symbols.to_string(),
                sb.active_symbols.to_string(),
            ),
        ];
        for (field, va, vb) in fields {
            if va != vb {
                return divergence(index, a.round, field, va, vb);
            }
        }
    }
    if a.streams.len() != b.streams.len() {
        return divergence(
            index,
            a.round,
            "stream count".to_string(),
            a.streams.len().to_string(),
            b.streams.len().to_string(),
        );
    }
    None
}

fn emit<'a>(
    index: usize,
    round: usize,
    fields: impl Iterator<Item = (&'a str, String, String)>,
) -> Option<Divergence> {
    for (field, va, vb) in fields {
        if va != vb {
            return divergence(index, round, field.to_string(), va, vb);
        }
    }
    None
}

fn divergence(
    index: usize,
    round: usize,
    field: String,
    a: String,
    b: String,
) -> Option<Divergence> {
    Some(Divergence {
        location: format!("event {index}"),
        round: Some(round),
        field,
        a,
        b,
    })
}

fn render_key(key: Option<u128>) -> String {
    match key {
        Some(k) => format!("{k:032x}"),
        None => "none".to_string(),
    }
}

/// Renders a float with its exact bit pattern alongside the decimal
/// form, so bit-level drift survives the print.
fn render_f64(v: f64) -> String {
    format!("{v} (bits 0x{:016x})", v.to_bits())
}
