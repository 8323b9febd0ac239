//! Spans around the calls into the set-up, engine, sweep and codec
//! layers, taken from outside the program through public functions only.
//!
//! The engine is observed through a benchmark-side [`EngineTap`]: a
//! `RoundObserver` that timestamps the hooks and counts events. Like
//! every observer it only listens, so traced sweeps must reproduce the
//! untraced statistics bit for bit — the callers check that.

use crate::report::Report;
use nplus::{
    aggregate_results, ContentionKind, ContentionRecord, JoinRecord, NullObserver, RoundObserver,
    RoundRecord, RunMeta, SeedResults, SweepSpec, SweepStats,
};
use nplus_channel::environment::environment_from_name;
use nplus_codec::{replay_sweep, Recording, RecordingContext, RecordingObserver};
use nplus_medium::{build_environment_topology, ChannelCache};
use nplus_phy::params::{occupied_subcarrier_indices, OfdmConfig};
use nplus_testkit::parse_spec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::spec::SpecText;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What one build of a set of worlds cost, per layer.
#[derive(Debug, Default)]
pub struct WorldBuild {
    /// Wall seconds of the whole build.
    pub wall_s: f64,
    /// `build_environment_topology` time per world, ms.
    pub topology_ms: Vec<f64>,
    /// `ChannelCache::build` time per world, ms.
    pub cache_ms: Vec<f64>,
    /// Directed links wired, summed over the worlds.
    pub links: usize,
    /// Bytes of cached frequency responses (computed from table shapes:
    /// 16 bytes per complex entry per bin), summed over the worlds.
    pub cache_bytes: usize,
}

/// Builds the world of every seed of every spec — topology draw and
/// channel-cache build, the set-up each sweep job pays before its first
/// round — with the same seeds, maps and sample clock a sweep uses.
///
/// # Errors
/// A description of a spec the registries or the environment reject.
pub fn build_worlds(specs: &[SpecText]) -> Result<WorldBuild, String> {
    let ofdm = OfdmConfig::usrp2();
    let bins = occupied_subcarrier_indices();
    let mut out = WorldBuild::default();
    let started = Instant::now();
    for s in specs {
        let env = environment_from_name(&s.environment)
            .ok_or_else(|| format!("unknown environment {:?}", s.environment))?;
        let antennas = parse_spec(&s.scenario, env.capacity())?.scenario.antennas;
        let testbed = env.testbed(antennas.len()).map_err(|e| e.to_string())?;
        for &seed in &s.seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = Instant::now();
            let topo = build_environment_topology(
                env,
                &testbed,
                &antennas,
                ofdm.bandwidth_hz,
                seed,
                &mut rng,
            )
            .map_err(|e| e.to_string())?;
            out.topology_ms.push(secs(t) * 1e3);
            let t = Instant::now();
            let cache = ChannelCache::build(&topo, &bins, ofdm.fft_len);
            out.cache_ms.push(secs(t) * 1e3);
            out.links += cache.n_links();
            out.cache_bytes += cache
                .links()
                .filter_map(|(from, to)| cache.table(from, to))
                .map(|table| {
                    let (r, c) = table.matrix(0).shape();
                    r * c * table.n_bins() * 16
                })
                .sum::<usize>();
        }
    }
    out.wall_s = secs(started);
    Ok(out)
}

/// Exact event counts of observed runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    primary: u64,
    join: u64,
    scheduled: u64,
    join_attempts: u64,
    joins_accepted: u64,
    rounds: u64,
    streams: u64,
    idle_rounds: u64,
    backoff_slots: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.primary += o.primary;
        self.join += o.join;
        self.scheduled += o.scheduled;
        self.join_attempts += o.join_attempts;
        self.joins_accepted += o.joins_accepted;
        self.rounds += o.rounds;
        self.streams += o.streams;
        self.idle_rounds += o.idle_rounds;
        self.backoff_slots += o.backoff_slots;
    }
}

/// Timestamps and counts of one observed run.
#[derive(Debug, Default)]
pub struct EngineTap {
    policy: String,
    start: Option<Instant>,
    first_event: Option<Instant>,
    last_round_end: Option<Instant>,
    round_us: Vec<f64>,
    counts: Counts,
}

impl EngineTap {
    fn first_event(&mut self, now: Instant) {
        if self.first_event.is_none() {
            self.first_event = Some(now);
        }
    }
}

impl RoundObserver for EngineTap {
    fn on_run_start(&mut self, meta: &RunMeta) {
        self.policy = meta.policy.to_string();
        self.round_us.reserve(meta.rounds);
        self.start = Some(Instant::now());
    }

    fn on_contention(&mut self, ev: &ContentionRecord) {
        self.first_event(Instant::now());
        match ev.kind {
            ContentionKind::Primary => self.counts.primary += 1,
            ContentionKind::Join => self.counts.join += 1,
            ContentionKind::Scheduled => self.counts.scheduled += 1,
        }
        self.counts.backoff_slots += ev.slots;
    }

    fn on_join(&mut self, ev: &JoinRecord) {
        self.first_event(Instant::now());
        self.counts.join_attempts += 1;
        self.counts.joins_accepted += u64::from(ev.accepted);
    }

    fn on_round_end(&mut self, ev: &RoundRecord) {
        let now = Instant::now();
        self.first_event(now);
        let since = self.last_round_end.or(self.first_event).unwrap_or(now);
        self.round_us.push((now - since).as_secs_f64() * 1e6);
        self.last_round_end = Some(now);
        self.counts.rounds += 1;
        self.counts.streams += ev.streams.len() as u64;
        self.counts.idle_rounds += u64::from(ev.streams.is_empty());
    }
}

/// Engine-layer samples folded over many observed runs.
#[derive(Debug, Default)]
pub struct EngineStats {
    round_us: BTreeMap<String, Vec<f64>>,
    run_ms: BTreeMap<String, Vec<f64>>,
    run_setup_ms: Vec<f64>,
    counts: Counts,
}

impl EngineStats {
    fn absorb(&mut self, tap: EngineTap, count: bool) {
        if let (Some(start), Some(first)) = (tap.start, tap.first_event) {
            self.run_setup_ms.push((first - start).as_secs_f64() * 1e3);
        }
        if let (Some(start), Some(end)) = (tap.start, tap.last_round_end) {
            self.run_ms
                .entry(tap.policy.clone())
                .or_default()
                .push((end - start).as_secs_f64() * 1e3);
        }
        if count {
            self.counts.add(&tap.counts);
        }
        self.round_us
            .entry(tap.policy)
            .or_default()
            .extend(tap.round_us);
    }

    /// Reports the engine rows: per-policy round and run times, run
    /// set-up time and the exact event counts of the counted passes.
    pub fn report(&self, r: &mut Report) {
        r.median("core.engine.run_setup_ms", &self.run_setup_ms, "ms");
        for (policy, samples) in &self.round_us {
            r.percentile(
                &format!("core.engine.round_us.{policy}.p50"),
                samples,
                50.0,
                "us",
            );
            r.percentile(
                &format!("core.engine.round_us.{policy}.p90"),
                samples,
                90.0,
                "us",
            );
        }
        for (policy, samples) in &self.run_ms {
            r.median(&format!("core.engine.run_ms.{policy}"), samples, "ms");
        }
        let c = &self.counts;
        let rounds = c.rounds.max(1) as f64;
        r.value("core.engine.contentions.primary", c.primary as f64, "count");
        r.value("core.engine.contentions.join", c.join as f64, "count");
        r.value(
            "core.engine.contentions.scheduled",
            c.scheduled as f64,
            "count",
        );
        r.value("core.engine.join_attempts", c.join_attempts as f64, "count");
        r.value(
            "core.engine.join_accept_ratio",
            c.joins_accepted as f64 / c.join_attempts.max(1) as f64,
            "ratio",
        );
        r.value(
            "core.engine.streams_per_round",
            c.streams as f64 / rounds,
            "streams",
        );
        r.value(
            "core.engine.idle_round_share",
            c.idle_rounds as f64 / rounds,
            "ratio",
        );
        r.value(
            "mac.backoff_slots_per_round",
            c.backoff_slots as f64 / rounds,
            "slots",
        );
    }
}

/// A runnable sweep with the text it was built from (recordings are
/// labelled with the text's scenario spec).
pub type Job = (SweepSpec, SpecText);

/// Statistics of one pass over a list of specs.
pub struct Pass {
    /// Per-spec statistics, in spec order.
    pub stats: Vec<Vec<SweepStats>>,
    /// Wall seconds of the pass.
    pub wall_s: f64,
}

/// One untraced pass: `SweepSpec::try_run` per spec.
///
/// # Errors
/// The sweep error's message.
pub fn untraced_pass(jobs: &[Job]) -> Result<Pass, String> {
    let t = Instant::now();
    let stats = jobs
        .iter()
        .map(|(s, _)| s.try_run().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Pass {
        stats,
        wall_s: secs(t),
    })
}

/// Sweep-layer samples of traced passes.
#[derive(Debug, Default)]
pub struct SweepLayer {
    /// `try_run_seed_observed` time per seed, ms.
    pub seed_ms: Vec<f64>,
    /// `aggregate_results` time per spec, µs.
    pub aggregate_us: Vec<f64>,
}

/// Runs `job(spec, seed, observers)` for every seed of `spec` with one
/// fresh observer per policy, then aggregates exactly as `try_run` does.
fn observed_sweep<O: RoundObserver>(
    spec: &SweepSpec,
    mut make: impl FnMut(usize, usize) -> O,
    mut done: impl FnMut(Vec<O>),
    sweep: &mut SweepLayer,
) -> Result<Vec<SweepStats>, String> {
    let names = spec.policy_names();
    let mut results: Vec<SeedResults> = Vec::with_capacity(spec.seed_list().len());
    for (seed_index, &seed) in spec.seed_list().iter().enumerate() {
        let mut taps: Vec<O> = (0..names.len()).map(|p| make(seed_index, p)).collect();
        let t = Instant::now();
        let res = {
            let mut refs: Vec<&mut dyn RoundObserver> = taps
                .iter_mut()
                .map(|o| o as &mut dyn RoundObserver)
                .collect();
            spec.try_run_seed_observed(seed, &mut refs)
                .map_err(|e| e.to_string())?
        };
        sweep.seed_ms.push(secs(t) * 1e3);
        results.push(res);
        done(taps);
    }
    let t = Instant::now();
    let stats = aggregate(&names, &results);
    sweep.aggregate_us.push(secs(t) * 1e6);
    Ok(stats)
}

/// `aggregate_results` over per-seed results, exactly as `try_run`
/// folds them (the flow count is read off the results). Traced passes
/// need it because they time each seed; callers check the folded
/// statistics against `try_run`'s bit for bit.
fn aggregate(names: &[String], results: &[SeedResults]) -> Vec<SweepStats> {
    let n_flows = results
        .first()
        .and_then(|r| r.per_policy.first())
        .map_or(0, |r| r.per_flow_mbps.len());
    aggregate_results(n_flows, names, results)
}

/// One traced pass: every seed through `try_run_seed_observed` with an
/// [`EngineTap`] per policy, aggregated with `aggregate_results`.
/// Counts are folded into `engine` only when `count` is set, so they
/// stay exact per pass.
///
/// # Errors
/// The sweep error's message.
pub fn traced_pass(
    jobs: &[Job],
    engine: &mut EngineStats,
    sweep: &mut SweepLayer,
    count: bool,
) -> Result<Pass, String> {
    let t = Instant::now();
    let mut stats = Vec::with_capacity(jobs.len());
    for (spec, _) in jobs {
        stats.push(observed_sweep(
            spec,
            |_, _| EngineTap::default(),
            |taps| taps.into_iter().for_each(|tap| engine.absorb(tap, count)),
            sweep,
        )?);
    }
    Ok(Pass {
        stats,
        wall_s: secs(t),
    })
}

/// One pass with a do-nothing observer per run — the baseline the
/// recording overhead is measured against.
///
/// # Errors
/// The sweep error's message.
pub fn null_pass(jobs: &[Job]) -> Result<f64, String> {
    let t = Instant::now();
    let mut sink = SweepLayer::default();
    for (spec, _) in jobs {
        observed_sweep(spec, |_, _| NullObserver, |_| {}, &mut sink)?;
    }
    Ok(secs(t))
}

/// Every run's recording bytes, grouped per spec.
pub type Recordings = Vec<Vec<Vec<u8>>>;

/// One pass with a `RecordingObserver` per run, returning the wall
/// seconds and the recordings.
///
/// # Errors
/// The sweep error's message, or a recorder I/O error.
pub fn recording_pass(jobs: &[Job], capacity: usize) -> Result<(f64, Recordings), String> {
    let t = Instant::now();
    let mut sink = SweepLayer::default();
    let mut all = Vec::with_capacity(jobs.len());
    for (spec, text) in jobs {
        let canon = spec.canonical().map_err(|e| e.to_string())?;
        let (n_seeds, n_policies) = (spec.seed_list().len(), spec.policy_names().len());
        let mut bytes: Vec<Vec<u8>> = Vec::new();
        let mut error = None;
        observed_sweep(
            spec,
            |seed_index, policy_index| {
                RecordingObserver::new(
                    Vec::with_capacity(capacity),
                    RecordingContext {
                        scenario: text.scenario.clone(),
                        traffic: canon.traffic.spec_string(),
                        mobility: canon.mobility.spec_string(),
                        seed_index,
                        n_seeds,
                        policy_index,
                        n_policies,
                    },
                )
            },
            |recorders| {
                for rec in recorders {
                    match rec.finish() {
                        Ok(b) => bytes.push(b),
                        Err(e) => error = Some(e.to_string()),
                    }
                }
            },
            &mut sink,
        )?;
        if let Some(e) = error {
            return Err(e);
        }
        all.push(bytes);
    }
    Ok((secs(t), all))
}

/// What decoding and replaying a set of recordings produced.
pub struct Replayed {
    /// Replayed statistics per spec.
    pub stats: Vec<Vec<SweepStats>>,
    /// Seconds spent in `Recording::decode`.
    pub decode_s: f64,
    /// Seconds spent in `replay_sweep`.
    pub replay_s: f64,
    /// Policy-rounds decoded.
    pub rounds: usize,
}

/// Decodes every recording and replays each spec's grid.
///
/// # Errors
/// A decode or replay error's message.
pub fn decode_and_replay(recordings: &[Vec<Vec<u8>>]) -> Result<Replayed, String> {
    let t = Instant::now();
    let decoded: Vec<Vec<Recording>> = recordings
        .iter()
        .map(|runs| {
            runs.iter()
                .map(|b| Recording::decode(b).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;
    let decode_s = secs(t);
    let rounds = decoded
        .iter()
        .flatten()
        .map(|r| r.round_events().count())
        .sum();
    let t = Instant::now();
    let stats = decoded
        .iter()
        .map(|recs| {
            replay_sweep(recs)
                .map(|r| r.stats)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Replayed {
        stats,
        decode_s,
        replay_s: secs(t),
        rounds,
    })
}
