//! Version-compat suite: checked-in v1 recordings must decode, byte
//! for byte, forever.
//!
//! The `testdata/` files were produced by `regenerate_golden_files`
//! (run it with `--ignored` after an intentional engine change; it
//! prints the new pin constants). The pinned tests below decode the
//! checked-in bytes and assert exact header fields, frame tallies and
//! replayed float bit patterns — if a future codec change breaks any
//! of them, it broke compatibility with every recording in the wild.

mod common;

use common::{record_sweep, reencode};
use nplus_codec::{replay_run, Recording};

/// Golden recording A: the paper's Fig. 3 scenario, indoor, n+.
const GOLDEN_A: &str = "three_pairs-nplus-v1.rec";
/// Golden recording B: generated pairs under Poisson traffic, outdoor,
/// greedy join.
const GOLDEN_B: &str = "poisson-pairs2-greedy_join-v1.rec";

/// What each golden file records: (file, scenario spec, environment,
/// policy), one seed of four rounds.
const GOLDENS: [(&str, &str, &str, &str); 2] = [
    (GOLDEN_A, "three_pairs", "sigcomm11", "nplus"),
    (
        GOLDEN_B,
        "load:poisson:0.5/pairs:2",
        "outdoor",
        "greedy_join",
    ),
];

fn testdata(name: &str) -> String {
    format!("{}/tests/testdata/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn load(name: &str) -> (Vec<u8>, Recording) {
    let bytes = std::fs::read(testdata(name)).expect("golden file checked in");
    let rec = Recording::decode(&bytes).expect("golden v1 bytes decode");
    (bytes, rec)
}

fn tally(rec: &Recording) -> (usize, usize, usize) {
    let mut c = (0, 0, 0);
    for ev in &rec.events {
        match ev {
            nplus_codec::Event::Contention(_) => c.0 += 1,
            nplus_codec::Event::Join(_) => c.1 += 1,
            nplus_codec::Event::Round(_) => c.2 += 1,
        }
    }
    c
}

/// Regenerates the golden files and prints the pin constants. Run
/// explicitly after an intentional format or engine change:
///
/// ```text
/// cargo test -p nplus-codec --test golden -- --ignored --nocapture
/// ```
#[test]
#[ignore = "rewrites testdata; run explicitly after intentional changes"]
fn regenerate_golden_files() {
    std::fs::create_dir_all(testdata("")).expect("testdata dir");
    for (name, spec, env, policy) in GOLDENS {
        let r = record_sweep(spec, env, &[policy], 1, 4);
        let bytes = &r.bytes[0];
        std::fs::write(testdata(name), bytes).expect("write golden");
        let rec = Recording::decode(bytes).expect("fresh recording decodes");
        let (contentions, joins, rounds) = tally(&rec);
        let first_bits = rec
            .round_events()
            .next()
            .map(|ev| ev.flow_bits[0].to_bits())
            .expect("at least one round");
        let replayed = replay_run(&rec);
        println!("{name}: len={}", bytes.len());
        println!(
            "  seed={} key={:?}",
            rec.header.seed, rec.header.canonical_key
        );
        println!("  contentions={contentions} joins={joins} rounds={rounds}");
        println!("  first flow_bits[0] bits=0x{first_bits:016x}");
        println!(
            "  bandwidth_hz bits=0x{:016x}",
            rec.header.bandwidth_hz.to_bits()
        );
        println!(
            "  replayed total_mbps bits=0x{:016x}",
            replayed.total_mbps.to_bits()
        );
        println!(
            "  replayed mean_dof bits=0x{:016x}",
            replayed.mean_dof.to_bits()
        );
    }
}

/// The engine and the recording path still produce the golden bytes:
/// a fresh recording of each golden's spec equals the checked-in file.
#[test]
fn golden_files_regenerate_byte_for_byte() {
    for (name, spec, env, policy) in GOLDENS {
        let r = record_sweep(spec, env, &[policy], 1, 4);
        let (bytes, _) = load(name);
        assert_eq!(r.bytes, [bytes], "{name}");
    }
}

/// Golden A decodes bitwise-stable: exact header, exact tallies, exact
/// float bit patterns, and re-encoding reproduces the file bytes.
#[test]
fn golden_three_pairs_nplus_decodes_forever() {
    let (bytes, rec) = load(GOLDEN_A);
    assert_eq!(bytes.len(), PIN_A.len);
    let h = &rec.header;
    assert_eq!(h.policy, "nplus");
    assert_eq!(h.environment, "sigcomm11");
    assert_eq!(h.scenario, "three_pairs");
    assert_eq!(h.traffic, "saturated");
    assert_eq!(h.mobility, "static");
    assert_eq!(h.canonical_key, Some(PIN_A.key));
    assert_eq!(h.seed, 0);
    assert_eq!((h.seed_index, h.n_seeds), (0, 1));
    assert_eq!((h.policy_index, h.n_policies), (0, 1));
    assert_eq!(h.rounds, 4);
    assert_eq!(h.n_flows, 3);
    assert_eq!(h.bandwidth_hz.to_bits(), PIN_A.bandwidth_bits);
    assert_eq!(tally(&rec), PIN_A.tally);
    assert_eq!(
        rec.round_events().next().expect("rounds present").flow_bits[0].to_bits(),
        PIN_A.first_flow_bits
    );
    let replayed = replay_run(&rec);
    assert_eq!(replayed.total_mbps.to_bits(), PIN_A.total_bits);
    assert_eq!(replayed.mean_dof.to_bits(), PIN_A.dof_bits);
    assert_eq!(reencode(&rec).expect("golden re-encodes"), bytes);
}

/// Golden B: a generated family under non-saturated traffic in a
/// second environment pins the traffic/mobility spec strings too.
#[test]
fn golden_poisson_pairs_greedy_join_decodes_forever() {
    let (bytes, rec) = load(GOLDEN_B);
    assert_eq!(bytes.len(), PIN_B.len);
    let h = &rec.header;
    assert_eq!(h.policy, "greedy_join");
    assert_eq!(h.environment, "outdoor");
    assert_eq!(h.scenario, "load:poisson:0.5/pairs:2");
    assert_eq!(h.traffic, "poisson:0.5");
    assert_eq!(h.mobility, "static");
    assert_eq!(h.canonical_key, Some(PIN_B.key));
    assert_eq!(h.rounds, 4);
    assert_eq!(h.n_flows, 2);
    assert_eq!(h.bandwidth_hz.to_bits(), PIN_B.bandwidth_bits);
    assert_eq!(tally(&rec), PIN_B.tally);
    assert_eq!(
        rec.round_events().next().expect("rounds present").flow_bits[0].to_bits(),
        PIN_B.first_flow_bits
    );
    let replayed = replay_run(&rec);
    assert_eq!(replayed.total_mbps.to_bits(), PIN_B.total_bits);
    assert_eq!(replayed.mean_dof.to_bits(), PIN_B.dof_bits);
    assert_eq!(reencode(&rec).expect("golden re-encodes"), bytes);
}

/// The exact values `regenerate_golden_files` printed when the files
/// were committed — the compatibility contract.
struct Pin {
    len: usize,
    key: u128,
    tally: (usize, usize, usize),
    first_flow_bits: u64,
    bandwidth_bits: u64,
    total_bits: u64,
    dof_bits: u64,
}

const PIN_A: Pin = Pin {
    len: 254,
    key: 303207695431258923014817671699035725350,
    tally: (5, 1, 4),
    first_flow_bits: 0x0000000000000000,
    bandwidth_bits: 0x416312d000000000,
    total_bits: 0x402a2e8ba2e8ba2e,
    dof_bits: 0x4000000000000000,
};

const PIN_B: Pin = Pin {
    len: 291,
    key: 72734148893089274575782315734519982835,
    tally: (7, 3, 4),
    first_flow_bits: 0x40a2c99cde41bbf3,
    bandwidth_bits: 0x416312d000000000,
    total_bits: 0x4023b0bdce187156,
    dof_bits: 0x4000208208208208,
};
