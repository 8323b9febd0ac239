//! Monte-Carlo sweeps over seeded topologies.
//!
//! [`SweepSpec`] is the one engine entry point: it draws one topology per
//! seed, shares one channel-cached engine per topology across all
//! requested policies, and aggregates mean/CI statistics — serially or
//! on the scoped-thread executor with **bit-for-bit identical** results
//! at every thread count.
//!
//! [`CanonicalSpec`] is the spec's content-addressable identity: a
//! read-only record that only [`SweepSpec::canonical`] produces, holding
//! the normalized (scenario, environment, policies, seeds, rounds,
//! models) fields whose [`key`](CanonicalSpec::key) the `sweep-server`'s
//! result cache is addressed by. One private validator guards every
//! entry point — [`SweepSpec::try_run`], [`SweepSpec::try_run_observed`],
//! [`SweepSpec::try_run_seed_observed`] and [`SweepSpec::canonical`] —
//! and [`SweepError`] is the typed error surface it funnels malformed
//! input through: no reachable panic from a bad spec.

use super::{MobilityModel, RunResult, Scenario, SimEngine, SinrGrid, TrafficModel};
use crate::observer::{NullObserver, RoundObserver, RunIdentity};
use crate::policy::{Beamforming, Dot11n, NPlus, Policy};
use nplus_channel::environment::{
    environment_from_name, Environment, EnvironmentError, SIGCOMM11_INDOOR,
};
use nplus_channel::placement::Testbed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Aggregated statistics of one policy across a seed sweep.
#[derive(Debug, Clone)]
pub struct SweepStats {
    /// Name of the policy these statistics describe (see
    /// [`Policy::name`]; the paper's protocols report `"nplus"`,
    /// `"dot11n"`, `"beamforming"`).
    pub policy: String,
    /// Number of seeded topologies simulated.
    pub n_runs: usize,
    /// Mean total network goodput, Mb/s.
    pub mean_total_mbps: f64,
    /// Half-width of the 95% confidence interval on the mean total
    /// goodput (Student-t critical value below 30 runs, a continuous
    /// expansion converging to z = 1.96 above; 0 for fewer than two
    /// runs).
    pub ci95_total_mbps: f64,
    /// Mean goodput per flow, Mb/s.
    pub mean_per_flow_mbps: Vec<f64>,
    /// Mean degrees of freedom in use during data transfer.
    pub mean_dof: f64,
    /// Mean Jain's fairness index over the runs where fairness is
    /// defined (see `RunResult::jain_fairness`: empty flow lists and
    /// all-zero goodput are excluded as undefined); `NaN` when no run
    /// had defined fairness.
    pub mean_fairness: f64,
}

/// The typed error surface of the sweep entry points.
///
/// Every way a built spec can be malformed — a structurally invalid
/// scenario or model, a degenerate seed list or round count, a scenario
/// that outsizes its environment's maps, a spec that cannot be
/// content-addressed — is one of these variants, and so is a wrong
/// observer count. (Unknown registry names never reach a spec: the
/// by-name builder calls hand them back.) Nothing on the
/// [`SweepSpec::try_run`] / [`SweepSpec::try_run_observed`] /
/// [`SweepSpec::try_run_seed_observed`] / [`SweepSpec::canonical`] path
/// panics on bad input: front-ends map this type to a one-line exit-2
/// (CLI) or an error response (`sweep-server`).
#[derive(Debug, Clone, PartialEq)]
// nplus:allow(VIS001): the error type of the public `SweepSpec::canonical` and `SweepSpec::try_run`
pub enum SweepError {
    /// The scenario needs more placement slots than the environment's
    /// maps offer.
    Environment(EnvironmentError),
    /// A structurally invalid spec: bad flow indices, zero antennas,
    /// an empty seed list, zero rounds — see `Scenario::validate`.
    InvalidSpec(String),
    /// The spec cannot be canonicalized for content-addressing (custom
    /// non-registry parts, or a threshold `L` or run seed XOR off its
    /// default) — see [`SweepSpec::canonical`].
    NotCanonical(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Environment(e) => e.fmt(f),
            SweepError::InvalidSpec(msg) => write!(f, "invalid spec: {msg}"),
            SweepError::NotCanonical(msg) => write!(f, "spec is not canonicalizable: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Environment(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EnvironmentError> for SweepError {
    fn from(e: EnvironmentError) -> Self {
        SweepError::Environment(e)
    }
}

/// The canonical, content-addressable form of a sweep: the exact fields
/// that determine a sweep's results, normalized so that equivalent
/// specs — however their builders were called, whatever thread count
/// they run at — encode to identical bytes and hash to the same
/// [`key`](CanonicalSpec::key). It is a record, not a second spec type:
/// the only way to get one is [`SweepSpec::canonical`], which validates
/// the spec first, so every record names a runnable sweep.
///
/// This is the cache contract of the `sweep-server`: a result computed
/// once for a key may be returned for every later request with that key,
/// because
///
/// * the sweep engine is a pure function of (scenario, environment,
///   policies, seeds, rounds) — proven bit-for-bit across thread counts
///   by the [`SweepSpec::threads`] suites — and
/// * two specs with equal canonical bytes run exactly that function on
///   exactly those inputs.
///
/// **What is canonical:** the scenario's antenna/flow lists, the
/// environment's registry name, the policy names in comparison order
/// (order matters: it is the order of the returned [`SweepStats`]), the
/// seed list in order (seeds are positional jobs), the round count, and
/// the traffic/mobility models (both result-determining: they change
/// what the run RNG feeds). An empty policy list normalizes to the
/// default comparison trio, so "no policies named" and "the default
/// trio named explicitly" share a key.
///
/// **What is deliberately not:** the thread count (results are
/// bit-identical at every value).
/// The rest — the §4 threshold
/// [`join_power_l_db`](SweepSpec::join_power_l_db) and the
/// [`run_seed_xor`](SweepSpec::run_seed_xor) — must sit at the
/// environment's and the default value: [`SweepSpec::canonical`]
/// refuses otherwise rather than hash fields it does not encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalSpec {
    /// Antenna count per node.
    pub antennas: Vec<usize>,
    /// Flow endpoints `(tx, rx)` as node indices.
    pub flows: Vec<(usize, usize)>,
    /// Registry name of the propagation environment.
    pub environment: String,
    /// Registry names of the policies, in comparison order (never
    /// empty: defaults are normalized in).
    pub policies: Vec<String>,
    /// Seed list, in job order.
    pub seeds: Vec<u64>,
    /// Rounds per run.
    pub rounds: usize,
    /// Per-flow offered load.
    pub traffic: TrafficModel,
    /// Node mobility.
    pub mobility: MobilityModel,
    /// SINR evaluation tier. A
    /// decimated tier is a different approximation, so it is part of
    /// the spec's identity — the result cache must never serve a
    /// decimated run for a full-grid request or vice versa.
    pub sinr_grid: SinrGrid,
}

/// Domain-separation prefix of the canonical byte encoding; bump the
/// version on any change to the encoding so old cache keys can never
/// alias new semantics. v2 added the traffic/mobility tags; v3 adds the
/// SINR-grid tier tag — every v2 key (implicitly full-grid) is
/// deliberately invalidated rather than aliased.
const CANONICAL_MAGIC: &[u8] = b"nplus-canonical-spec-v3\0";

/// 128-bit FNV-1a over `bytes` — dependency-free, stable across
/// platforms and releases (unlike `DefaultHasher`), and wide enough
/// that cache-key collisions are not a practical concern.
fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl CanonicalSpec {
    /// The unambiguous byte encoding the [`key`](CanonicalSpec::key) is
    /// hashed over: a version magic, then every field tagged and
    /// length-prefixed (all integers little-endian u64), so no two
    /// distinct specs can encode to the same bytes.
    pub(crate) fn canonical_bytes(&self) -> Vec<u8> {
        fn put_u64(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn put_str(out: &mut Vec<u8>, s: &str) {
            put_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(CANONICAL_MAGIC);
        out.push(0x01);
        put_u64(&mut out, self.antennas.len() as u64);
        for &a in &self.antennas {
            put_u64(&mut out, a as u64);
        }
        out.push(0x02);
        put_u64(&mut out, self.flows.len() as u64);
        for &(tx, rx) in &self.flows {
            put_u64(&mut out, tx as u64);
            put_u64(&mut out, rx as u64);
        }
        out.push(0x03);
        put_str(&mut out, &self.environment);
        out.push(0x04);
        put_u64(&mut out, self.policies.len() as u64);
        for p in &self.policies {
            put_str(&mut out, p);
        }
        out.push(0x05);
        put_u64(&mut out, self.seeds.len() as u64);
        for &s in &self.seeds {
            put_u64(&mut out, s);
        }
        out.push(0x06);
        put_u64(&mut out, self.rounds as u64);
        // Model parameters are hashed as IEEE-754 bit patterns: the
        // validated domain excludes NaN/inf, so bit equality is exactly
        // value equality and keys stay platform-stable.
        out.push(0x07);
        match self.traffic {
            TrafficModel::Saturated => put_u64(&mut out, 0),
            TrafficModel::Poisson { mean_per_round } => {
                put_u64(&mut out, 1);
                put_u64(&mut out, mean_per_round.to_bits());
            }
            TrafficModel::Bursty {
                mean_on_rounds,
                mean_off_rounds,
            } => {
                put_u64(&mut out, 2);
                put_u64(&mut out, mean_on_rounds.to_bits());
                put_u64(&mut out, mean_off_rounds.to_bits());
            }
        }
        out.push(0x08);
        match self.mobility {
            MobilityModel::Static => put_u64(&mut out, 0),
            MobilityModel::Waypoint {
                step_m,
                epoch_rounds,
            } => {
                put_u64(&mut out, 1);
                put_u64(&mut out, step_m.to_bits());
                put_u64(&mut out, epoch_rounds as u64);
            }
        }
        out.push(0x09);
        match self.sinr_grid {
            SinrGrid::Full => put_u64(&mut out, 0),
            SinrGrid::Decimated(k) => {
                put_u64(&mut out, 1);
                put_u64(&mut out, k as u64);
            }
        }
        out
    }

    /// The 128-bit content key: FNV-1a over
    /// `canonical_bytes`. Equal specs
    /// — including across builder-call orders and thread counts — get
    /// equal keys; any change to scenario, environment, policy set,
    /// seeds or rounds changes the key.
    pub fn key(&self) -> u128 {
        fnv1a_128(&self.canonical_bytes())
    }

    /// The key as 32 lower-case hex characters — what the wire protocol
    /// and logs print.
    pub fn key_hex(&self) -> String {
        format!("{:032x}", self.key())
    }
}

/// Two-sided 95% Student-t critical values indexed by `df - 1` for
/// `df = 1..=28` (sample sizes 2..=29). Larger sample sizes use the
/// first-order expansion `z + (z³ + z)/(4·df)`, which is within 0.2%
/// of the exact t value at df = 29 and converges to z = 1.96 — no
/// discontinuous CI narrowing at the table boundary.
const T_CRIT_95: [f64; 28] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048,
];

/// Half-width of the 95% confidence interval on the mean of `samples`.
///
/// Small seed counts are the common case in quick sweeps, where the
/// normal approximation's z = 1.96 understates the interval badly (the
/// correct critical value at n = 5 is 2.776, at n = 2 it is 12.706);
/// this uses the Student-t value for n < 30 and z above.
fn ci95_half_width(samples: &[f64], mean: f64) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let crit = if n < 30 {
        T_CRIT_95[n - 2]
    } else {
        // Cornish-Fisher first-order tail expansion of t around z.
        let z = 1.96f64;
        let df = (n - 1) as f64;
        z + (z.powi(3) + z) / (4.0 * df)
    };
    crit * (var / n as f64).sqrt()
}

/// The raw per-seed output of a sweep: one [`RunResult`] per requested
/// policy, in policy order.
#[derive(Debug, Clone)]
pub struct SeedResults {
    /// The seed that produced these results.
    pub seed: u64,
    /// One result per policy, in [`SweepSpec::policy_names`] order.
    pub per_policy: Vec<RunResult>,
}

// A threaded sweep shares the spec/testbed/policies across
// scoped worker threads and sends per-seed results back; all of it must
// be thread-safe by construction (policies are plain `Copy` values, and
// the medium-side types carry their own assertions next to their
// definitions).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Scenario>();
    assert_send_sync::<SweepSpec>();
    assert_send_sync::<RunResult>();
    assert_send_sync::<SeedResults>();
};

/// Folds per-seed results (already in seed order) into per-policy
/// statistics — the exact aggregation [`SweepSpec::try_run`] applies,
/// public so offline consumers (the recording replay path above all)
/// can reproduce [`SweepStats`] bit-for-bit from per-run results alone.
///
/// The accumulation order is fixed — seed-major, policy within seed —
/// so the aggregate is a pure function of the ordered result list,
/// independent of how the jobs were scheduled. `n_flows` sizes the
/// per-flow means, `policy_names` must be in job policy order, and
/// every `results` entry must carry one result per policy.
pub fn aggregate_results(
    n_flows: usize,
    policy_names: &[String],
    results: &[SeedResults],
) -> Vec<SweepStats> {
    let mut totals: Vec<Vec<f64>> = vec![Vec::with_capacity(results.len()); policy_names.len()];
    let mut per_flow: Vec<Vec<f64>> = vec![vec![0.0; n_flows]; policy_names.len()];
    let mut dofs: Vec<f64> = vec![0.0; policy_names.len()];
    let mut fairness_sum: Vec<f64> = vec![0.0; policy_names.len()];
    let mut fairness_n: Vec<usize> = vec![0; policy_names.len()];

    for seed_results in results {
        for (p, r) in seed_results.per_policy.iter().enumerate() {
            totals[p].push(r.total_mbps);
            for (f, v) in r.per_flow_mbps.iter().enumerate() {
                per_flow[p][f] += v;
            }
            dofs[p] += r.mean_dof;
            let j = r.jain_fairness();
            if j.is_finite() {
                fairness_sum[p] += j;
                fairness_n[p] += 1;
            }
        }
    }

    let n = results.len().max(1) as f64;
    policy_names
        .iter()
        .enumerate()
        .map(|(p, policy)| {
            let mean = totals[p].iter().sum::<f64>() / n;
            SweepStats {
                policy: policy.clone(),
                n_runs: totals[p].len(),
                mean_total_mbps: mean,
                ci95_total_mbps: ci95_half_width(&totals[p], mean),
                mean_per_flow_mbps: per_flow[p].iter().map(|v| v / n).collect(),
                mean_dof: dofs[p] / n,
                mean_fairness: if fairness_n[p] > 0 {
                    fairness_sum[p] / fairness_n[p] as f64
                } else {
                    f64::NAN
                },
            }
        })
        .collect()
}

/// Builder facade over the whole simulation surface: scenario in,
/// statistics out. It is the one sweep API — a single seed *is* a
/// sweep of one — and the only place policies, seeds, testbed, engine
/// settings and thread count meet.
///
/// ```
/// use nplus::prelude::*;
///
/// let stats = SweepSpec::new(Scenario::three_pairs())
///     .rounds(4)
///     .seed_count(3)
///     .policy(Dot11n)
///     .policy(NPlus)
///     .policy(Oracle)
///     .threads(2)
///     .run();
/// assert_eq!(stats.len(), 3);
/// assert_eq!(stats[2].policy, "oracle");
/// ```
///
/// Defaults: the environment is the paper's indoor world
/// ([`SIGCOMM11_INDOOR`] — other worlds via
/// [`environment`](SweepSpec::environment) /
/// [`environment_named`](SweepSpec::environment_named)), the testbed
/// map is the environment's smallest fitting map, the §4 threshold `L`
/// is the environment's, runs last 40 rounds of saturated, static
/// traffic on the full SINR grid, seeds are `0..20`, each run's RNG is seeded by its seed
/// `^ 0x5EED_CAFE`, policies are the paper's comparison set (802.11n,
/// beamforming, n+), and execution is serial.
pub struct SweepSpec {
    pub(super) scenario: Scenario,
    /// The propagation world, whose hardware profile the engine reads.
    pub(super) environment: Environment,
    /// Rounds per run.
    pub(super) rounds: usize,
    /// The §4 join-power threshold `L` in dB, when set apart from
    /// [`Environment::join_power_l_db`] — see [`SweepSpec::l_db`].
    l_db: Option<f64>,
    /// Per-flow offered load ([`TrafficModel::Saturated`] by default:
    /// the paper's always-backlogged assumption, zero RNG).
    pub(super) traffic: TrafficModel,
    /// Node mobility ([`MobilityModel::Static`] by default: zero RNG).
    pub(super) mobility: MobilityModel,
    /// SINR evaluation grid ([`SinrGrid::Full`] by default: the exact
    /// every-bin path).
    pub(super) sinr_grid: SinrGrid,
    policies: Vec<Policy>,
    seeds: Vec<u64>,
    run_seed_xor: u64,
    threads: usize,
}

/// The default [`SweepSpec::run_seed_xor`]: what a placement seed is
/// XORed with to seed its runs' RNG.
const DEFAULT_RUN_SEED_XOR: u64 = 0x5EED_CAFE;

/// The default comparison set (the paper's head-to-head trio), applied
/// when a spec names no policies. Front-ends that want the same default
/// should leave the spec empty rather than re-listing these.
const DEFAULT_POLICIES: [Policy; 3] = [Dot11n, Beamforming, NPlus];

impl SweepSpec {
    /// Starts a spec for `scenario` with the documented defaults.
    pub fn new(scenario: Scenario) -> Self {
        SweepSpec {
            scenario,
            environment: SIGCOMM11_INDOOR,
            rounds: 40,
            l_db: None,
            traffic: TrafficModel::Saturated,
            mobility: MobilityModel::Static,
            sinr_grid: SinrGrid::Full,
            policies: Vec::new(),
            seeds: (0..20).collect(),
            run_seed_xor: DEFAULT_RUN_SEED_XOR,
            threads: 1,
        }
    }

    /// Runs the sweep in `environment` instead of the paper's indoor
    /// world: the placement map, loss law, delay profiles, oscillator
    /// draws and the radios' [`HardwareProfile`](
    /// nplus_channel::impairments::HardwareProfile) all come from it,
    /// and so does the §4 threshold `L` unless
    /// [`join_power_l_db`](SweepSpec::join_power_l_db) sets it, before
    /// or after this call. A world that differs from the registry entry
    /// of its name runs, but is not [`canonical`](SweepSpec::canonical).
    pub fn environment(mut self, environment: Environment) -> Self {
        self.environment = environment;
        self
    }

    /// Selects a built-in environment by name, resolved through the one
    /// registry ([`environment_from_name`]; see
    /// [`BUILTIN_ENVIRONMENT_NAMES`](
    /// nplus_channel::environment::BUILTIN_ENVIRONMENT_NAMES)), then
    /// [`environment`](SweepSpec::environment).
    ///
    /// # Errors
    /// Returns the unknown name back.
    pub fn environment_named(self, name: &str) -> Result<Self, String> {
        match environment_from_name(name) {
            Some(env) => Ok(self.environment(*env)),
            None => Err(name.to_string()),
        }
    }

    /// Sets the round count per run.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the §4 join-power threshold `L` in dB, in place of the
    /// environment's [`join_power_l_db`](Environment::join_power_l_db)
    /// whatever the order of the builder calls. A value other than the
    /// environment's is not [`canonical`](SweepSpec::canonical), and a
    /// non-finite one is an invalid spec.
    pub fn join_power_l_db(mut self, l_db: f64) -> Self {
        self.l_db = Some(l_db);
        self
    }

    /// Seeds each run's RNG with its placement seed `^ k` (default
    /// `0x5EED_CAFE`), which keeps the run stream apart from the
    /// placement stream. A non-default `k` is not
    /// [`canonical`](SweepSpec::canonical).
    pub fn run_seed_xor(mut self, k: u64) -> Self {
        self.run_seed_xor = k;
        self
    }

    /// Sets the per-flow offered-load model. Like
    /// [`rounds`](SweepSpec::rounds) this is a canonical field: a
    /// non-default model changes the sweep's content key rather than
    /// making the spec uncacheable.
    pub fn traffic(mut self, traffic: TrafficModel) -> Self {
        self.traffic = traffic;
        self
    }

    /// Sets the node mobility model (canonical, like
    /// [`traffic`](SweepSpec::traffic)).
    pub fn mobility(mut self, mobility: MobilityModel) -> Self {
        self.mobility = mobility;
        self
    }

    /// Sets the SINR evaluation tier (canonical, like
    /// [`traffic`](SweepSpec::traffic)): [`SinrGrid::Decimated`] trades
    /// a bounded goodput error for a large planning speed-up, and keys
    /// differently in the result cache than the exact full grid.
    pub fn sinr_grid(mut self, sinr_grid: SinrGrid) -> Self {
        self.sinr_grid = sinr_grid;
        self
    }

    /// Adds one policy to the comparison, in call order.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policies.push(policy);
        self
    }

    /// Adds a built-in policy by name, resolved through the one
    /// registry (see
    /// [`BUILTIN_POLICY_NAMES`](crate::policy::BUILTIN_POLICY_NAMES)).
    ///
    /// # Errors
    /// Returns the unknown name back.
    pub fn policy_named(self, name: &str) -> Result<Self, String> {
        match crate::policy::policy_from_name(name) {
            Some(p) => Ok(self.policy(p)),
            None => Err(name.to_string()),
        }
    }

    /// Replaces the seed list.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Uses seeds `0..n` (the common case).
    pub fn seed_count(self, n: u64) -> Self {
        self.seeds(0..n)
    }

    /// Worker threads: `1` = serial (default), `0` = all cores. Results
    /// are bit-for-bit identical for every value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs the sweep and aggregates statistics per policy:
    /// [`try_run_observed`](SweepSpec::try_run_observed) with a
    /// do-nothing observer per run, folded by [`aggregate_results`].
    ///
    /// # Errors
    /// [`SweepError::InvalidSpec`] for a structurally invalid scenario
    /// (`Scenario::validate`) or model, an empty seed list or zero
    /// rounds; [`SweepError::Environment`] when the scenario needs more
    /// placement slots than the environment's largest map offers — all
    /// detected before any job runs, so a malformed spec can never panic
    /// inside the engine.
    pub fn try_run(&self) -> Result<Vec<SweepStats>, SweepError> {
        let results: Vec<SeedResults> = self
            .try_run_observed(|_, _| NullObserver)?
            .into_iter()
            .map(|(results, _)| results)
            .collect();
        Ok(aggregate_results(
            self.scenario.flows.len(),
            &self.policy_names(),
            &results,
        ))
    }

    /// The one executor loop: runs every seed as an indexed job on up to
    /// [`threads`](SweepSpec::threads) workers, with the observer
    /// `make(seed_index, policy_index)` listening to each run, and
    /// returns every seed's raw results together with its observers (in
    /// [`policy_names`](SweepSpec::policy_names) order), merged in seed
    /// order. Runs are labeled with their [`RunIdentity`], as in
    /// [`try_run_seed_observed`](SweepSpec::try_run_seed_observed).
    /// Observers only listen: the results are bit-for-bit the ones
    /// [`try_run`](SweepSpec::try_run) folds, at every thread count.
    ///
    /// # Errors
    /// As [`try_run`](SweepSpec::try_run).
    pub fn try_run_observed<O, F>(&self, make: F) -> Result<Vec<(SeedResults, Vec<O>)>, SweepError>
    where
        O: RoundObserver + Send,
        F: Fn(usize, usize) -> O + Sync,
    {
        let (testbed, policies) = self.prepare()?;
        let canonical_key = self.canonical().ok().map(|c| c.key());
        crate::executor::run_indexed(self.seeds.len(), self.threads, |i| {
            let mut observers: Vec<O> = (0..policies.len()).map(|p| make(i, p)).collect();
            let results = {
                let mut taps: Vec<&mut dyn RoundObserver> = observers
                    .iter_mut()
                    .map(|o| o as &mut dyn RoundObserver)
                    .collect();
                self.run_one_seed(&testbed, policies, self.seeds[i], canonical_key, &mut taps)?
            };
            Ok((results, observers))
        })
        .into_iter()
        .collect()
    }

    /// Panicking convenience over [`try_run`](SweepSpec::try_run) for
    /// specs that statically fit their environment.
    pub fn run(&self) -> Vec<SweepStats> {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs a single seed and returns its raw per-policy results, with
    /// one caller observer per resolved policy (see
    /// [`policy_names`](SweepSpec::policy_names) for the order):
    /// `observers[i]` receives policy `i`'s full event stream, labeled
    /// with the job's [`RunIdentity`] — seed, environment registry
    /// name, and the spec's canonical key when
    /// [`canonical`](SweepSpec::canonical) succeeds (`None` for ad-hoc
    /// specs). Observers only listen: the results are bit-for-bit the
    /// ones [`try_run`](SweepSpec::try_run) folds for that seed.
    ///
    /// # Errors
    /// As [`try_run`](SweepSpec::try_run) (the whole spec is validated,
    /// so an empty seed list is refused even though `seed` is given),
    /// plus [`SweepError::InvalidSpec`] when `observers.len()` differs
    /// from the resolved policy count.
    pub fn try_run_seed_observed(
        &self,
        seed: u64,
        observers: &mut [&mut dyn RoundObserver],
    ) -> Result<SeedResults, SweepError> {
        let (testbed, policies) = self.prepare()?;
        if observers.len() != policies.len() {
            return Err(SweepError::InvalidSpec(format!(
                "{} observers for {} policies (want one per policy)",
                observers.len(),
                policies.len()
            )));
        }
        let canonical_key = self.canonical().ok().map(|c| c.key());
        self.run_one_seed(&testbed, policies, seed, canonical_key, observers)
    }

    /// The resolved policy names, in job order — the paper's default
    /// trio when the spec names none. This is the order
    /// [`SeedResults::per_policy`] and the sweep statistics follow, and
    /// what labels per-policy recordings.
    pub fn policy_names(&self) -> Vec<String> {
        self.resolved_policies()
            .iter()
            .map(|p| p.name().to_string())
            .collect()
    }

    /// The spec's seed list, in the order [`try_run`](SweepSpec::try_run)
    /// iterates it.
    pub fn seed_list(&self) -> &[u64] {
        &self.seeds
    }

    /// The spec's canonical, content-addressable form — see
    /// [`CanonicalSpec`] for exactly what it encodes.
    ///
    /// Canonicalization requires the spec to be reconstructible from its
    /// canonical form alone: the environment must equal, by value, the
    /// registry entry of its name (a custom world keyed by a built-in's
    /// name would alias that world's cache entries), a
    /// [`join_power_l_db`](SweepSpec::join_power_l_db) override must
    /// equal the environment's own `L`, and the
    /// [`run_seed_xor`](SweepSpec::run_seed_xor) must be the default.
    ///
    /// # Errors
    /// [`SweepError::InvalidSpec`] for any spec the runs would refuse
    /// (checked first); [`SweepError::NotCanonical`] describing the
    /// offending part.
    pub fn canonical(&self) -> Result<CanonicalSpec, SweepError> {
        // Validate first: a NaN `L` or model parameter would otherwise
        // trip an equality check (NaN != NaN) and misreport an invalid
        // spec as merely non-canonical.
        self.validate()?;
        let env = &self.environment;
        if environment_from_name(env.name) != Some(env) {
            return Err(SweepError::NotCanonical(format!(
                "environment {:?} is not the registry world of that name",
                env.name
            )));
        }
        // The canonical bytes name the environment, not `L`: an `L` of
        // its own would leave them short of determining the results.
        if self.l_db() != env.join_power_l_db() {
            return Err(SweepError::NotCanonical(format!(
                "config deviates from the environment defaults: join-power L {} dB is not \
                 the environment's {} dB",
                self.l_db(),
                env.join_power_l_db()
            )));
        }
        if self.run_seed_xor != DEFAULT_RUN_SEED_XOR {
            return Err(SweepError::NotCanonical(format!(
                "run seed xor {:#x} is not the default {DEFAULT_RUN_SEED_XOR:#x}",
                self.run_seed_xor
            )));
        }
        // An empty policy list resolves to the default trio here, so
        // "no policies named" and the trio named explicitly share a key.
        let policies = self.policy_names();
        Ok(CanonicalSpec {
            antennas: self.scenario.antennas.clone(),
            flows: self.scenario.flows.iter().map(|f| (f.tx, f.rx)).collect(),
            environment: env.name.to_string(),
            policies,
            seeds: self.seeds.clone(),
            rounds: self.rounds,
            traffic: self.traffic,
            mobility: self.mobility,
            sinr_grid: self.sinr_grid,
        })
    }

    /// The one spec validator every entry point runs before anything
    /// else: a structurally sound scenario, a non-empty seed list, at
    /// least one round, no policy named twice, a finite `L`, and valid
    /// traffic/mobility/SINR-grid parameters (a NaN Poisson mean would
    /// hang the arrival sampler, a NaN `L` would hand the precoder a
    /// zero vector; better a typed error than an engine misbehaving).
    fn validate(&self) -> Result<(), SweepError> {
        let check = || {
            self.scenario.validate()?;
            if self.seeds.is_empty() {
                return Err("empty seed list".to_string());
            }
            if self.rounds == 0 {
                return Err("zero rounds".to_string());
            }
            // A repeated policy would run twice under one name: its
            // per-policy recordings and result rows would collide.
            let policies = self.resolved_policies();
            for (i, p) in policies.iter().enumerate() {
                if policies[..i].contains(p) {
                    return Err(format!("duplicate policy {:?}", p.name()));
                }
            }
            if !self.l_db().is_finite() {
                return Err(format!("join-power L {} dB is not finite", self.l_db()));
            }
            self.traffic.validate()?;
            self.mobility.validate()?;
            self.sinr_grid.validate()
        };
        check().map_err(SweepError::InvalidSpec)
    }

    /// The validator, then what a job needs: the environment's smallest
    /// map that fits the scenario, resolved once for every seed, and the
    /// policies in job order.
    fn prepare(&self) -> Result<(Testbed, &[Policy]), SweepError> {
        self.validate()?;
        let testbed = self.environment.testbed(self.scenario.antennas.len())?;
        Ok((testbed, self.resolved_policies()))
    }

    /// One seed-indexed unit of sweep work: draw the topology for
    /// `seed`, build one channel-cached [`SimEngine`], and run every
    /// policy against it, narrating policy `i`'s run to `observers[i]`.
    ///
    /// The RNG derivations are the sweep's determinism contract: the
    /// placement is [`place`](crate::scenario::place)'s, seeded by the
    /// seed itself, and each policy's run stream is seeded by
    /// `seed ^` [`run_seed_xor`](SweepSpec::run_seed_xor) — both fixed
    /// functions of the seed alone,
    /// never of execution order. That is what lets
    /// [`try_run_observed`](SweepSpec::try_run_observed) run seeds on
    /// any number of threads and still merge results bit-for-bit
    /// identical to the serial run.
    fn run_one_seed(
        &self,
        testbed: &Testbed,
        policies: &[Policy],
        seed: u64,
        canonical_key: Option<u128>,
        observers: &mut [&mut dyn RoundObserver],
    ) -> Result<SeedResults, SweepError> {
        let topo =
            crate::scenario::place(&self.environment, testbed, &self.scenario.antennas, seed)?;
        let engine = SimEngine::new(&topo, self);
        let per_policy = policies
            .iter()
            .zip(observers.iter_mut())
            .map(|(&policy, observer)| {
                let mut run_rng = StdRng::seed_from_u64(seed ^ self.run_seed_xor);
                let identity = RunIdentity {
                    seed,
                    environment: self.environment.name.to_string(),
                    canonical_key,
                };
                engine.run(policy, &mut run_rng, &mut **observer, Some(identity))
            })
            .collect();
        Ok(SeedResults { seed, per_policy })
    }

    /// The §4 threshold `L` the runs use: the
    /// [`join_power_l_db`](SweepSpec::join_power_l_db) override, else the
    /// environment's.
    pub(super) fn l_db(&self) -> f64 {
        self.l_db
            .unwrap_or_else(|| self.environment.join_power_l_db())
    }

    fn resolved_policies(&self) -> &[Policy] {
        if self.policies.is_empty() {
            &DEFAULT_POLICIES
        } else {
            &self.policies
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Beamforming, Dot11n, NPlus, Oracle};
    use nplus_channel::environment::BUILTIN_ENVIRONMENT_NAMES;

    /// Regression: `ci95_total_mbps` used the z = 1.96 normal
    /// approximation at every sample size; at n = 5 the correct
    /// Student-t critical value is 2.776, widening the half-width by
    /// ~42%. Pins the n = 5 half-width exactly.
    #[test]
    fn ci95_uses_student_t_below_30_runs() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mean = 3.0;
        // Sample variance 2.5, standard error sqrt(2.5/5).
        let expected = 2.776 * (2.5f64 / 5.0).sqrt();
        let hw = ci95_half_width(&samples, mean);
        assert!((hw - expected).abs() < 1e-12, "n=5 half-width {hw}");
        // The old normal approximation was strictly narrower.
        assert!(hw > 1.96 * (2.5f64 / 5.0).sqrt() * 1.4);

        // n = 2 hits the fattest tail in the table.
        let hw2 = ci95_half_width(&[0.0, 1.0], 0.5);
        assert!((hw2 - 12.706 * (0.5f64 / 2.0).sqrt()).abs() < 1e-12);
        // Degenerate cases stay zero.
        assert_eq!(ci95_half_width(&[], 0.0), 0.0);
        assert_eq!(ci95_half_width(&[7.0], 7.0), 0.0);
        // At n >= 30 the expanded critical value takes over, continuous
        // with the table (t_29 ≈ 2.045; the expansion gives ≈ 2.042 —
        // no 4% jump down to 1.96 at the boundary).
        let big: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let m = big.iter().sum::<f64>() / 30.0;
        let var = big.iter().map(|x| (x - m).powi(2)).sum::<f64>() / 29.0;
        let crit30 = 1.96 + (1.96f64.powi(3) + 1.96) / (4.0 * 29.0);
        assert!((crit30 - 2.045).abs() < 5e-3, "crit at n=30: {crit30}");
        assert!((ci95_half_width(&big, m) - crit30 * (var / 30.0).sqrt()).abs() < 1e-12);
        // And it converges to the normal approximation for large n.
        let huge: Vec<f64> = (0..1000).map(|i| (i % 7) as f64).collect();
        let hm = huge.iter().sum::<f64>() / 1000.0;
        let hvar = huge.iter().map(|x| (x - hm).powi(2)).sum::<f64>() / 999.0;
        let hw_huge = ci95_half_width(&huge, hm);
        assert!((hw_huge / (1.96 * (hvar / 1000.0).sqrt()) - 1.0).abs() < 2e-3);
    }

    /// The tentpole contract: a threaded sweep is bit-for-bit identical
    /// to the serial one for every thread count.
    #[test]
    fn sweep_threads_match_serial_bitwise() {
        let spec = |threads: usize| {
            SweepSpec::new(Scenario::ap_downlink())
                .rounds(5)
                .policy(NPlus)
                .policy(Dot11n)
                .policy(Beamforming)
                .seed_count(5)
                .threads(threads)
                .run()
        };
        // `{:?}` prints every float round-trip exactly: equal text is
        // equal bits, over every field.
        let serial = format!("{:?}", spec(1));
        for threads in [2usize, 4, 0] {
            assert_eq!(serial, format!("{:?}", spec(threads)), "{threads} threads");
        }
    }

    /// Raw per-seed results with a do-nothing observer per policy.
    fn seed_results(spec: &SweepSpec, seed: u64) -> Result<SeedResults, SweepError> {
        let mut nulls = vec![NullObserver; spec.policy_names().len()];
        let mut observers: Vec<&mut dyn RoundObserver> = nulls
            .iter_mut()
            .map(|o| o as &mut dyn RoundObserver)
            .collect();
        spec.try_run_seed_observed(seed, &mut observers)
    }

    /// A seed's job is a pure function of its seed: running it twice
    /// reproduces the result exactly.
    #[test]
    fn sweep_job_is_pure_in_its_seed() {
        let spec = SweepSpec::new(Scenario::three_pairs())
            .rounds(4)
            .policy(NPlus);
        let a = seed_results(&spec, 7).unwrap();
        let b = seed_results(&spec, 7).unwrap();
        assert_eq!(a.seed, 7);
        assert_eq!(a.per_policy[0].per_flow_mbps, b.per_policy[0].per_flow_mbps);
        assert_eq!(a.per_policy[0].total_mbps, b.per_policy[0].total_mbps);
    }

    /// Regression: `settle_round` used to collect a state's streams by
    /// receiver *node*, so two transmitters concurrently serving the
    /// same receiver — the hidden-terminal star, where a joiner's flow
    /// targets a node another transmission already serves — left empty
    /// per-stream SINR vectors and panicked in `effective_snr`. This is
    /// the exact generated configuration that crashed the sweep binary.
    #[test]
    fn hidden_terminal_concurrent_service_settles() {
        let scenario = crate::scenario::ScenarioGenerator::new(42).hidden_terminal(3);
        let stats = SweepSpec::new(scenario)
            .rounds(8)
            .policy(NPlus)
            .policy(Dot11n)
            .seed_count(4)
            .run();
        for s in &stats {
            assert!(
                s.mean_total_mbps.is_finite() && s.mean_total_mbps > 0.0,
                "{} produced no goodput on the shared-receiver star",
                s.policy
            );
        }
    }

    #[test]
    fn sweep_aggregates_all_protocols() {
        let scenario = Scenario::three_pairs();
        let stats = SweepSpec::new(scenario)
            .rounds(6)
            .policy(NPlus)
            .policy(Dot11n)
            .seeds([1, 2, 3])
            .run();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].policy, "nplus");
        assert_eq!(stats[1].policy, "dot11n");
        for s in &stats {
            assert_eq!(s.n_runs, 3);
            assert!(s.mean_total_mbps.is_finite() && s.mean_total_mbps > 0.0);
            assert!(s.ci95_total_mbps.is_finite() && s.ci95_total_mbps >= 0.0);
            assert_eq!(s.mean_per_flow_mbps.len(), 3);
            assert!(s.mean_dof > 0.0);
            assert!(
                s.mean_fairness > 0.0 && s.mean_fairness <= 1.0 + 1e-12,
                "{} mean fairness {}",
                s.policy,
                s.mean_fairness
            );
        }
    }

    /// The builder facade is a pure re-packaging: a threaded `SweepSpec`
    /// run must equal the raw per-seed results folded by
    /// `aggregate_results` bit-for-bit.
    #[test]
    fn sweep_spec_matches_the_raw_entry_points() {
        let spec = SweepSpec::new(Scenario::ap_downlink())
            .rounds(4)
            .policy(Dot11n)
            .policy(NPlus)
            .seed_count(3);
        let jobs: Vec<SeedResults> = (0..3)
            .map(|seed| seed_results(&spec, seed).unwrap())
            .collect();
        let raw = aggregate_results(3, &spec.policy_names(), &jobs);
        let swept = spec.threads(2).run();
        assert_eq!(raw.len(), swept.len());
        for (r, s) in raw.iter().zip(&swept) {
            assert_eq!(r.policy, s.policy);
            assert_eq!(r.mean_total_mbps, s.mean_total_mbps);
            assert_eq!(r.ci95_total_mbps, s.ci95_total_mbps);
            assert_eq!(r.mean_per_flow_mbps, s.mean_per_flow_mbps);
            assert_eq!(r.mean_dof, s.mean_dof);
            assert_eq!(r.mean_fairness.to_bits(), s.mean_fairness.to_bits());
        }
    }

    /// `try_run_observed` hands back, in seed order, the observer built
    /// for each (seed index, policy index), having heard that run
    /// labeled with the spec's canonical key.
    #[test]
    fn try_run_observed_returns_each_runs_observer() {
        struct Tap((usize, usize), Option<u128>);
        impl RoundObserver for Tap {
            fn on_run_start(&mut self, meta: &crate::observer::RunMeta) {
                self.1 = meta.identity.as_ref().and_then(|id| id.canonical_key);
            }
        }
        let spec = SweepSpec::new(Scenario::three_pairs())
            .rounds(3)
            .seeds([5u64, 2, 9])
            .policy(NPlus)
            .policy(Dot11n)
            .threads(2);
        let key = Some(spec.canonical().unwrap().key());
        let runs = spec.try_run_observed(|i, p| Tap((i, p), None)).unwrap();
        let seeds: Vec<u64> = runs.iter().map(|(r, _)| r.seed).collect();
        assert_eq!(seeds, [5, 2, 9]);
        for (i, (_, taps)) in runs.iter().enumerate() {
            let heard: Vec<_> = taps.iter().map(|t| (t.0, t.1)).collect();
            assert_eq!(heard, [((i, 0), key), ((i, 1), key)]);
        }
    }

    /// The spec's default policy set is the paper's comparison trio, and
    /// `try_run_seed_observed` exposes raw per-run results in policy
    /// order.
    #[test]
    fn sweep_spec_defaults_and_run_seed() {
        let spec = SweepSpec::new(Scenario::three_pairs())
            .rounds(3)
            .seed_count(2);
        let stats = spec.run();
        let names: Vec<&str> = stats.iter().map(|s| s.policy.as_str()).collect();
        assert_eq!(names, ["dot11n", "beamforming", "nplus"]);
        let seed_results = seed_results(&spec, 0).unwrap();
        assert_eq!(seed_results.seed, 0);
        assert_eq!(seed_results.per_policy.len(), 3);
        // Seed 0 alone is exactly the sweep's first job.
        let one = SweepSpec::new(Scenario::three_pairs())
            .rounds(3)
            .seeds([0u64])
            .run();
        assert_eq!(
            one[2].mean_total_mbps,
            seed_results.per_policy[2].total_mbps
        );
    }

    /// Selecting the default environment explicitly is a no-op: stats
    /// are bit-for-bit the defaults', by value and by name.
    #[test]
    fn default_environment_is_a_bitwise_noop() {
        let base = SweepSpec::new(Scenario::three_pairs())
            .rounds(3)
            .seed_count(2)
            .policy(NPlus)
            .run();
        let by_value = SweepSpec::new(Scenario::three_pairs())
            .rounds(3)
            .seed_count(2)
            .policy(NPlus)
            .environment(SIGCOMM11_INDOOR)
            .run();
        let by_name = SweepSpec::new(Scenario::three_pairs())
            .rounds(3)
            .seed_count(2)
            .policy(NPlus)
            .environment_named("sigcomm11")
            .expect("registry name")
            .run();
        for other in [&by_value, &by_name] {
            assert_eq!(base[0].mean_total_mbps, other[0].mean_total_mbps);
            assert_eq!(base[0].mean_per_flow_mbps, other[0].mean_per_flow_mbps);
            assert_eq!(base[0].mean_dof, other[0].mean_dof);
        }
    }

    /// Every non-default environment draws a genuinely different world:
    /// same seeds, different statistics.
    #[test]
    fn environments_change_sweep_results() {
        // Enough rounds/seeds that joins actually happen: hardware (and
        // the §4 threshold) only enters through join planning, so a
        // join-free sample would make `degraded_hardware` a no-op.
        let run_in = |name: &str| {
            SweepSpec::new(Scenario::three_pairs())
                .rounds(8)
                .seed_count(3)
                .policy(NPlus)
                .environment_named(name)
                .expect("registry name")
                .run()
        };
        let base = run_in("sigcomm11");
        for name in ["outdoor", "rich_scatter", "degraded_hardware"] {
            let stats = run_in(name);
            assert!(
                stats[0].mean_total_mbps.is_finite() && stats[0].mean_total_mbps > 0.0,
                "{name} produced no goodput"
            );
            assert_ne!(
                stats[0].mean_total_mbps, base[0].mean_total_mbps,
                "{name} statistics identical to the indoor world"
            );
        }
        assert!(SweepSpec::new(Scenario::three_pairs())
            .environment_named("vacuum")
            .is_err());
    }

    /// A scenario too large for the environment's maps is a clean
    /// `Err`, not a panic.
    #[test]
    fn oversized_scenarios_error_cleanly() {
        let scenario = Scenario {
            antennas: vec![1usize; 41],
            flows: vec![super::super::Flow { tx: 0, rx: 1 }],
        };
        let spec = SweepSpec::new(scenario);
        let err = spec.try_run().unwrap_err();
        assert_eq!(
            err,
            SweepError::Environment(nplus_channel::environment::EnvironmentError::TooManyNodes {
                requested: 41,
                capacity: 40
            })
        );
        assert_eq!(err.to_string(), "cannot place 41 nodes on 40 locations");
        assert_eq!(seed_results(&spec, 0).unwrap_err(), err);
    }

    /// A structurally invalid scenario — out-of-range flow endpoints,
    /// self-flows, zero-antenna nodes — is a typed `InvalidSpec` error
    /// from every served entry point, never a panic inside the engine.
    #[test]
    fn malformed_scenarios_error_instead_of_panicking() {
        let cases: [(Scenario, &str); 4] = [
            (
                Scenario {
                    antennas: vec![2, 2],
                    flows: vec![super::super::Flow { tx: 0, rx: 7 }],
                },
                "outside the 2-node scenario",
            ),
            (
                Scenario {
                    antennas: vec![2, 2],
                    flows: vec![super::super::Flow { tx: 1, rx: 1 }],
                },
                "transmits to itself",
            ),
            (
                Scenario {
                    antennas: vec![2, 0],
                    flows: vec![super::super::Flow { tx: 0, rx: 1 }],
                },
                "antenna count 0",
            ),
            (
                Scenario {
                    antennas: vec![2, 2],
                    flows: vec![],
                },
                "no flows",
            ),
        ];
        for (scenario, needle) in cases {
            let spec = SweepSpec::new(scenario.clone());
            for err in [
                spec.try_run().unwrap_err(),
                seed_results(&spec, 0).unwrap_err(),
            ] {
                match &err {
                    SweepError::InvalidSpec(msg) => {
                        assert!(msg.contains(needle), "{msg:?} missing {needle:?}")
                    }
                    other => panic!("expected InvalidSpec, got {other:?}"),
                }
            }
        }
        // A well-formed spec handed the wrong number of observers (the
        // default trio wants three) is the same typed error.
        let spec = SweepSpec::new(Scenario::three_pairs()).rounds(2);
        let mut nulls = [NullObserver; 4];
        for n in [0, 4] {
            let mut observers: Vec<&mut dyn RoundObserver> = nulls[..n]
                .iter_mut()
                .map(|o| o as &mut dyn RoundObserver)
                .collect();
            match spec.try_run_seed_observed(0, &mut observers) {
                Err(SweepError::InvalidSpec(msg)) => {
                    assert!(msg.contains("observers"), "{n} observers: {msg:?}")
                }
                other => panic!("{n} observers: expected InvalidSpec, got {other:?}"),
            }
        }
    }

    /// Regression: zero rounds and an empty seed list ran to `NaN` /
    /// `-0.00` statistics through `try_run` while the canonical form
    /// rejected them, and a repeated policy ran twice under one name
    /// (its recordings overwrote each other), a non-finite `L`
    /// panicked inside the engine (`cannot normalize a zero vector` in
    /// the precoder's QR), and a Poisson mean above ~745 drew ~745
    /// arrivals whatever the mean. The one validator now refuses all of
    /// them on every entry point, with the wire protocol's error text.
    #[test]
    fn degenerate_specs_are_invalid_everywhere() {
        let non_finite_l = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(|l_db| {
            (
                SweepSpec::new(Scenario::three_pairs())
                    .rounds(8)
                    .seed_count(4)
                    .policy(NPlus)
                    .join_power_l_db(l_db),
                format!("invalid spec: join-power L {l_db} dB is not finite"),
            )
        });
        let cases = [
            (
                SweepSpec::new(Scenario::three_pairs())
                    .rounds(0)
                    .seed_count(3),
                "invalid spec: zero rounds".to_string(),
            ),
            (
                SweepSpec::new(Scenario::three_pairs())
                    .rounds(5)
                    .seed_count(0),
                "invalid spec: empty seed list".to_string(),
            ),
            (
                SweepSpec::new(Scenario::three_pairs())
                    .rounds(5)
                    .seed_count(3)
                    .policy(NPlus)
                    .policy(Dot11n)
                    .policy(NPlus),
                "invalid spec: duplicate policy \"nplus\"".to_string(),
            ),
            (
                SweepSpec::new(Scenario::three_pairs())
                    .rounds(5)
                    .seed_count(3)
                    .traffic(TrafficModel::Poisson {
                        mean_per_round: 1e6,
                    }),
                "invalid spec: poisson mean 1000000 above 700".to_string(),
            ),
        ];
        for (spec, want) in cases.into_iter().chain(non_finite_l) {
            let errs = [
                spec.try_run().unwrap_err(),
                seed_results(&spec, 0).unwrap_err(),
                spec.canonical().unwrap_err(),
            ];
            for err in errs {
                assert!(matches!(err, SweepError::InvalidSpec(_)), "{err:?}");
                assert_eq!(err.to_string(), want);
            }
        }
    }

    /// The canonical key is a pure function of the spec's identity:
    /// builder-call order and the thread count don't move it, while any
    /// change to scenario/environment/policies/seeds/rounds does.
    #[test]
    fn canonical_key_identity_and_sensitivity() {
        let base = SweepSpec::new(Scenario::three_pairs())
            .rounds(7)
            .seed_count(4)
            .policy(Dot11n)
            .policy(NPlus);
        let key = base.canonical().expect("canonicalizable").key();

        // Same spec, different builder-call orders and thread counts.
        let reordered = SweepSpec::new(Scenario::three_pairs())
            .policy(Dot11n)
            .policy(NPlus)
            .seed_count(4)
            .threads(2)
            .rounds(7);
        assert_eq!(reordered.canonical().unwrap().key(), key);
        let by_name = SweepSpec::new(Scenario::three_pairs())
            .environment_named("sigcomm11")
            .unwrap()
            .policy_named("dot11n")
            .unwrap()
            .policy_named("nplus")
            .unwrap()
            .rounds(7)
            .seeds([0u64, 1, 2, 3]);
        assert_eq!(by_name.canonical().unwrap().key(), key);
        // The default run seed XOR and `L`, spelled out: same bytes.
        let spelled = reordered
            .run_seed_xor(0x5EED_CAFE)
            .join_power_l_db(crate::power_control::DEFAULT_L_DB)
            .canonical()
            .unwrap();
        let base_bytes = base.canonical().unwrap().canonical_bytes();
        assert_eq!(spelled.canonical_bytes(), base_bytes);
        assert_eq!(spelled.key(), key);

        // An empty policy list normalizes to the explicit default trio.
        let implicit = SweepSpec::new(Scenario::three_pairs())
            .rounds(7)
            .seed_count(4);
        let explicit = SweepSpec::new(Scenario::three_pairs())
            .rounds(7)
            .seed_count(4)
            .policy(Dot11n)
            .policy(Beamforming)
            .policy(NPlus);
        assert_eq!(
            implicit.canonical().unwrap().key(),
            explicit.canonical().unwrap().key()
        );

        // Each identity field moves the key.
        let variants = [
            SweepSpec::new(Scenario::ap_downlink())
                .rounds(7)
                .seed_count(4)
                .policy(Dot11n)
                .policy(NPlus),
            SweepSpec::new(Scenario::three_pairs())
                .rounds(8)
                .seed_count(4)
                .policy(Dot11n)
                .policy(NPlus),
            SweepSpec::new(Scenario::three_pairs())
                .rounds(7)
                .seed_count(5)
                .policy(Dot11n)
                .policy(NPlus),
            SweepSpec::new(Scenario::three_pairs())
                .rounds(7)
                .seeds([1u64, 0, 2, 3])
                .policy(Dot11n)
                .policy(NPlus),
            SweepSpec::new(Scenario::three_pairs())
                .rounds(7)
                .seed_count(4)
                .policy(NPlus)
                .policy(Dot11n),
            SweepSpec::new(Scenario::three_pairs())
                .rounds(7)
                .seed_count(4)
                .policy(Dot11n)
                .policy(NPlus)
                .environment_named("outdoor")
                .unwrap(),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(v.canonical().unwrap().key(), key, "variant {i} collided");
        }
    }

    /// A spec rebuilt from nothing but its canonical record's fields
    /// (different builder order, 1 and 2 threads) canonicalizes back to
    /// the same record and runs to bit-identical statistics (`f64`'s
    /// `Debug` form round-trips exactly) — the cache-correctness
    /// contract end to end.
    #[test]
    fn canonical_roundtrip_reproduces_results_bitwise() {
        let spec = SweepSpec::new(Scenario::ap_downlink())
            .rounds(4)
            .seed_count(3)
            .policy(NPlus)
            .policy(Dot11n)
            .environment_named("rich_scatter")
            .unwrap();
        let canon = spec.canonical().expect("canonicalizable");
        let direct = format!("{:?}", spec.try_run().expect("runs"));
        let flows = canon
            .flows
            .iter()
            .map(|&(tx, rx)| crate::sim::Flow { tx, rx });
        for threads in [1usize, 2] {
            let scenario = Scenario {
                antennas: canon.antennas.clone(),
                flows: flows.clone().collect(),
            };
            let rebuilt = (canon.policies.iter())
                .fold(SweepSpec::new(scenario), |s, p| s.policy_named(p).unwrap())
                .environment_named(&canon.environment)
                .unwrap()
                .seeds(canon.seeds.clone())
                .traffic(canon.traffic)
                .mobility(canon.mobility)
                .sinr_grid(canon.sinr_grid)
                .threads(threads)
                .rounds(canon.rounds);
            assert_eq!(rebuilt.canonical().unwrap(), canon, "{threads} threads");
            let stats = format!("{:?}", rebuilt.try_run().expect("runs"));
            assert_eq!(direct, stats, "{threads} threads");
        }
    }

    /// Traffic and mobility are canonical (key-moving) fields, not
    /// canonicalization failures: non-default models encode into the
    /// key and parameter changes move it.
    #[test]
    fn traffic_and_mobility_are_canonical_fields() {
        let fresh = || {
            SweepSpec::new(Scenario::three_pairs())
                .rounds(5)
                .seed_count(2)
                .policy(NPlus)
        };
        let key = fresh().canonical().unwrap().key();
        let poisson = TrafficModel::Poisson {
            mean_per_round: 0.5,
        };
        let waypoint = MobilityModel::Waypoint {
            step_m: 2.0,
            epoch_rounds: 4,
        };

        let p_spec = fresh().traffic(poisson);
        let p_canon = p_spec
            .canonical()
            .expect("non-default traffic is canonical");
        assert_eq!(p_canon.traffic, poisson);
        assert_ne!(p_canon.key(), key, "traffic model must move the key");

        let m_canon = fresh().mobility(waypoint).canonical().unwrap();
        assert_eq!(m_canon.mobility, waypoint);
        assert_ne!(m_canon.key(), key, "mobility model must move the key");
        assert_ne!(m_canon.key(), p_canon.key());

        // Parameters are part of the identity, not just the variant.
        let p2 = fresh()
            .traffic(TrafficModel::Poisson {
                mean_per_round: 0.7,
            })
            .canonical()
            .unwrap();
        assert_ne!(p2.key(), p_canon.key(), "poisson mean must move the key");

        // Invalid model parameters are typed errors everywhere.
        let bad = TrafficModel::Poisson {
            mean_per_round: f64::NAN,
        };
        assert!(matches!(
            fresh().traffic(bad).try_run(),
            Err(SweepError::InvalidSpec(_))
        ));
        assert!(matches!(
            fresh().traffic(bad).canonical(),
            Err(SweepError::InvalidSpec(_))
        ));
    }

    /// The SINR grid tier is a canonical (key-moving) field: a decimated
    /// run can never be served from a full-grid cache entry, and the k
    /// parameter is part of the identity.
    #[test]
    fn sinr_grid_is_a_canonical_field() {
        let fresh = || {
            SweepSpec::new(Scenario::three_pairs())
                .rounds(5)
                .seed_count(2)
                .policy(NPlus)
        };
        let full_key = fresh().canonical().unwrap().key();
        let dec = fresh().sinr_grid(SinrGrid::Decimated(4));
        let dec_canon = dec.canonical().expect("decimated tier is canonical");
        assert_eq!(dec_canon.sinr_grid, SinrGrid::Decimated(4));
        assert_ne!(dec_canon.key(), full_key, "tier must move the key");
        let dec8 = fresh()
            .sinr_grid(SinrGrid::Decimated(8))
            .canonical()
            .unwrap();
        assert_ne!(dec8.key(), dec_canon.key(), "k must move the key");

        // Invalid tiers are typed errors everywhere.
        assert!(matches!(
            fresh().sinr_grid(SinrGrid::Decimated(1)).try_run(),
            Err(SweepError::InvalidSpec(_))
        ));
        assert!(matches!(
            fresh().sinr_grid(SinrGrid::Decimated(0)).canonical(),
            Err(SweepError::InvalidSpec(_))
        ));
    }

    /// Specs that cannot be reconstructed from names alone refuse
    /// canonicalization with a description of the offending part.
    #[test]
    fn non_registry_specs_are_not_canonical() {
        let not_canonical = |spec: &SweepSpec, needle: &str| match spec.canonical() {
            Err(SweepError::NotCanonical(msg)) => {
                assert!(msg.contains(needle), "{msg:?} missing {needle:?}")
            }
            other => panic!("expected NotCanonical({needle}), got {other:?}"),
        };
        let fresh = || SweepSpec::new(Scenario::three_pairs());
        not_canonical(&fresh().join_power_l_db(21.0), "config deviates");
        not_canonical(&fresh().run_seed_xor(0xC0FFEE), "run seed xor");
        let renamed = Environment {
            name: "anechoic_chamber",
            ..SIGCOMM11_INDOOR
        };
        not_canonical(
            &SweepSpec::new(Scenario::three_pairs()).environment(renamed),
            "registry",
        );
    }

    /// Every float bit of a sweep's statistics, in field order.
    fn stats_bits(stats: &[SweepStats]) -> Vec<u64> {
        stats
            .iter()
            .flat_map(|s| {
                let scalars = [s.mean_total_mbps, s.ci95_total_mbps, s.mean_dof];
                scalars
                    .into_iter()
                    .chain(s.mean_per_flow_mbps.iter().copied())
                    .chain([s.mean_fairness])
                    .map(f64::to_bits)
            })
            .collect()
    }

    /// Regression: `environment`/`environment_named` used to overwrite
    /// the threshold `L`, so `.join_power_l_db(21.0)` set before
    /// `.environment_named("sigcomm11")` silently ran at 27 dB and
    /// canonicalized as the default spec. `L` is now an override read
    /// when the engine is built, so the builder order cannot matter.
    #[test]
    fn join_power_l_db_is_independent_of_builder_order() {
        let base = || {
            SweepSpec::new(Scenario::three_pairs())
                .rounds(8)
                .seed_count(4)
                .policy(NPlus)
        };
        let l_first = base()
            .join_power_l_db(21.0)
            .environment_named("sigcomm11")
            .unwrap();
        let env_first = base()
            .environment_named("sigcomm11")
            .unwrap()
            .join_power_l_db(21.0);
        let (a, b) = (l_first.run(), env_first.run());
        assert_eq!(stats_bits(&a), stats_bits(&b));
        assert_ne!(
            stats_bits(&a),
            stats_bits(&base().run()),
            "L = 21 dB ran like the default 27 dB"
        );
        for spec in [&l_first, &env_first] {
            match spec.canonical() {
                Err(SweepError::NotCanonical(msg)) => assert!(msg.contains("config deviates")),
                other => panic!("expected NotCanonical, got {other:?}"),
            }
        }

        // The environment's own `L`, spelled out in either order, is the
        // default spec.
        let key = base().canonical().unwrap().key();
        let default_l = crate::power_control::DEFAULT_L_DB;
        let spelled = [
            base()
                .join_power_l_db(default_l)
                .environment_named("sigcomm11")
                .unwrap(),
            base()
                .environment_named("sigcomm11")
                .unwrap()
                .join_power_l_db(default_l),
        ];
        for spec in spelled {
            assert_eq!(spec.canonical().unwrap().key(), key);
        }
    }

    /// Oracle plugs into sweeps like any other policy and reports under
    /// its own name; `policy_named` resolves the full registry.
    #[test]
    fn sweep_spec_accepts_custom_policies() {
        let stats = SweepSpec::new(Scenario::three_pairs())
            .rounds(2)
            .seed_count(2)
            .policy(Oracle)
            .policy_named("greedy_join")
            .expect("registry name")
            .run();
        assert_eq!(stats[0].policy, "oracle");
        assert_eq!(stats[1].policy, "greedy_join");
        assert!(stats[0].mean_total_mbps > 0.0);
        assert!(SweepSpec::new(Scenario::three_pairs())
            .policy_named("aloha")
            .is_err());
    }

    /// The v3 canonical encoding is a cache contract: these keys were
    /// captured from the encoding as shipped, and every later build must
    /// reproduce them exactly — the default trio, a non-saturated traffic
    /// model (what a `load:poisson:0.5/` scenario prefix resolves to),
    /// waypoint mobility, a decimated SINR grid, and a non-default
    /// environment with explicit policies and an unsorted seed list.
    #[test]
    fn canonical_keys_are_pinned() {
        let base = || {
            SweepSpec::new(Scenario::three_pairs())
                .rounds(5)
                .seed_count(4)
        };
        let cases = [
            (base(), "ee28e223ab46e181e298eee9e68031ab"),
            (
                base().traffic(TrafficModel::Poisson {
                    mean_per_round: 0.5,
                }),
                "1b27d5f6aebefd61d747b5755a9730df",
            ),
            (
                base().mobility(MobilityModel::Waypoint {
                    step_m: 2.0,
                    epoch_rounds: 3,
                }),
                "ee2827f11a838dce2729e724b04cb021",
            ),
            (
                base().sinr_grid(SinrGrid::Decimated(4)),
                "83e8d737c4b3b491d86e1ec4b8c6dc0e",
            ),
            (
                SweepSpec::new(Scenario::ap_downlink())
                    .rounds(5)
                    .seeds([3u64, 1])
                    .policy(NPlus)
                    .policy(Oracle)
                    .environment_named("outdoor")
                    .unwrap(),
                "7db1540c9222e3d2177f28b0bdaf4e06",
            ),
        ];
        for (i, (spec, want)) in cases.iter().enumerate() {
            assert_eq!(spec.canonical().unwrap().key_hex(), *want, "case {i}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Property form of the canonical-key contract: for arbitrary
        /// (seeds, rounds, policy subset, environment), two specs built
        /// with their builder calls in opposite orders — one of them at
        /// a different thread count — hash identically, while flipping
        /// any single identity field moves the key.
        #[test]
        fn canonical_key_is_order_invariant_and_field_sensitive(
            seed_lo in 0u64..50,
            n_seeds in 1u64..6,
            rounds in 1usize..10,
            policy_pick in 0usize..3,
            env_pick in 0usize..BUILTIN_ENVIRONMENT_NAMES.len(),
        ) {
            let policies: &[&str] = match policy_pick {
                0 => &["nplus"],
                1 => &["dot11n", "nplus"],
                _ => &["beamforming"],
            };
            let with_policies = |mut spec: SweepSpec| {
                for name in policies {
                    spec = spec.policy_named(name).unwrap();
                }
                spec
            };
            let env = BUILTIN_ENVIRONMENT_NAMES[env_pick];
            let forward = with_policies(
                SweepSpec::new(Scenario::three_pairs())
                    .environment_named(env).unwrap()
                    .rounds(rounds)
                    .seeds(seed_lo..seed_lo + n_seeds)
            );
            let backward = with_policies(SweepSpec::new(Scenario::three_pairs()))
                .seeds(seed_lo..seed_lo + n_seeds)
                .threads(4)
                .rounds(rounds)
                .environment_named(env).unwrap();
            let key = forward.canonical().unwrap().key();
            proptest::prop_assert_eq!(backward.canonical().unwrap().key(), key);

            // Single-field flips all move the key.
            let more_rounds = with_policies(
                SweepSpec::new(Scenario::three_pairs())
                    .environment_named(env).unwrap()
                    .rounds(rounds + 1)
                    .seeds(seed_lo..seed_lo + n_seeds)
            );
            proptest::prop_assert_ne!(more_rounds.canonical().unwrap().key(), key);
            let shifted_seeds = with_policies(
                SweepSpec::new(Scenario::three_pairs())
                    .environment_named(env).unwrap()
                    .rounds(rounds)
                    .seeds(seed_lo + 1..seed_lo + n_seeds + 1)
            );
            proptest::prop_assert_ne!(shifted_seeds.canonical().unwrap().key(), key);
            let extra_policy = with_policies(
                SweepSpec::new(Scenario::three_pairs())
                    .environment_named(env).unwrap()
                    .rounds(rounds)
                    .seeds(seed_lo..seed_lo + n_seeds)
            )
            .policy(Oracle);
            proptest::prop_assert_ne!(extra_policy.canonical().unwrap().key(), key);
            let other_env =
                BUILTIN_ENVIRONMENT_NAMES[(env_pick + 1) % BUILTIN_ENVIRONMENT_NAMES.len()];
            let moved_env = with_policies(
                SweepSpec::new(Scenario::three_pairs())
                    .environment_named(other_env).unwrap()
                    .rounds(rounds)
                    .seeds(seed_lo..seed_lo + n_seeds)
            );
            proptest::prop_assert_ne!(moved_env.canonical().unwrap().key(), key);
        }
    }
}
