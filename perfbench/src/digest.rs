//! Bitwise digests of sweep statistics — the output-correctness gate.
//!
//! Every float is hashed by its IEEE-754 bit pattern, so two digests are
//! equal exactly when the statistics are bit-for-bit equal.

use nplus::SweepStats;

/// 64-bit FNV-1a over the statistics' exact bits, in order.
pub fn stats_digest(stats: &[SweepStats]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in stats {
        eat(&(s.policy.len() as u64).to_le_bytes());
        eat(s.policy.as_bytes());
        eat(&(s.n_runs as u64).to_le_bytes());
        eat(&s.mean_total_mbps.to_bits().to_le_bytes());
        eat(&s.ci95_total_mbps.to_bits().to_le_bytes());
        eat(&(s.mean_per_flow_mbps.len() as u64).to_le_bytes());
        for v in &s.mean_per_flow_mbps {
            eat(&v.to_bits().to_le_bytes());
        }
        eat(&s.mean_dof.to_bits().to_le_bytes());
        eat(&s.mean_fairness.to_bits().to_le_bytes());
    }
    h
}
