//! [`RecordingObserver`]: the `RoundObserver` that streams frames to
//! any `io::Write` as the engine narrates them. It is the codec's one
//! encoder: every recording, the test suites' re-encodings included,
//! is written by it.
//!
//! The observer is passive by contract — it only listens — so wiring
//! it into a sweep cannot change results; what it writes is exactly
//! the stream [`Recording::decode`](crate::Recording::decode) reads
//! back. Frames are serialized into a reused scratch buffer and handed
//! to the sink in one `write_all` per event, so a pre-sized `Vec<u8>`
//! sink stays allocation-quiet after the first few rounds (perfbench's
//! `codec.record_overhead_pct` measures the overhead).

use crate::recording::{
    encode_contention, encode_end, encode_header, encode_join, encode_round_parts, FrameCounts,
    RunHeader,
};
use nplus::{ContentionRecord, JoinRecord, RoundObserver, RoundRecord, RunMeta};
use std::io;

/// The sweep-level context a recording needs but `RunMeta` cannot
/// know: the spec labels and where in the (policy × seed) grid this
/// run sits. The per-run fields (policy name, seed, environment,
/// canonical key, dimensions) arrive with `on_run_start` instead.
#[derive(Debug, Clone, Default)]
pub struct RecordingContext {
    /// The scenario spec label (e.g. `"random:7"`, `"city:256"`).
    pub scenario: String,
    /// The traffic model's canonical spec string.
    pub traffic: String,
    /// The mobility model's canonical spec string.
    pub mobility: String,
    /// Position of this run's seed in the sweep's seed list.
    pub seed_index: usize,
    /// How many seeds the sweep runs.
    pub n_seeds: usize,
    /// Position of this run's policy in the sweep's policy list.
    pub policy_index: usize,
    /// How many policies the sweep compares.
    pub n_policies: usize,
}

/// A `RoundObserver` that encodes the event stream to `sink` as v1
/// recording bytes: header at `on_run_start`, one frame per event,
/// end frame at [`finish`](RecordingObserver::finish).
///
/// One observer records one run. I/O errors (and misuse, like a second
/// `on_run_start`) are stashed rather than panicked — the observer
/// goes quiet and `finish` surfaces the first error, keeping the
/// engine's hot loop free of fallible paths.
#[derive(Debug)]
pub struct RecordingObserver<W: io::Write> {
    sink: W,
    context: RecordingContext,
    scratch: Vec<u8>,
    counts: FrameCounts,
    last_round: u64,
    started: bool,
    error: Option<io::Error>,
}

impl<W: io::Write> RecordingObserver<W> {
    /// A recorder writing to `sink`, labeled with `context`.
    pub fn new(sink: W, context: RecordingContext) -> Self {
        RecordingObserver {
            sink,
            context,
            scratch: Vec::new(),
            counts: FrameCounts::default(),
            last_round: 0,
            started: false,
            error: None,
        }
    }

    /// Writes the end frame and returns the sink.
    ///
    /// # Errors
    /// The first I/O error the sink raised (frames after it were
    /// dropped), or `InvalidData` when the observer was misused
    /// (reused across runs, or fed a regressing round index).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(err) = self.error {
            return Err(err);
        }
        self.scratch.clear();
        encode_end(&mut self.scratch, &self.counts);
        self.sink.write_all(&self.scratch)?;
        Ok(self.sink)
    }

    /// Computes the round delta, enforcing monotonicity.
    fn delta(&mut self, round: usize) -> Option<u64> {
        let round = round as u64;
        if round < self.last_round {
            self.error = Some(io::Error::new(
                io::ErrorKind::InvalidData,
                "round index regressed: recordings require monotone rounds",
            ));
            return None;
        }
        let delta = round - self.last_round;
        self.last_round = round;
        Some(delta)
    }

    /// Hands the scratch buffer to the sink, stashing the first error.
    fn flush_scratch(&mut self) {
        if let Err(err) = self.sink.write_all(&self.scratch) {
            self.error = Some(err);
        }
    }
}

impl<W: io::Write> RoundObserver for RecordingObserver<W> {
    fn on_run_start(&mut self, meta: &RunMeta) {
        if self.error.is_some() {
            return;
        }
        if self.started {
            self.error = Some(io::Error::new(
                io::ErrorKind::InvalidData,
                "RecordingObserver records one run; use a fresh observer per run",
            ));
            return;
        }
        self.started = true;
        let (seed, environment, canonical_key) = match &meta.identity {
            Some(id) => (id.seed, id.environment.clone(), id.canonical_key),
            None => (0, String::new(), None),
        };
        let header = RunHeader {
            policy: meta.policy.to_string(),
            environment,
            scenario: self.context.scenario.clone(),
            traffic: self.context.traffic.clone(),
            mobility: self.context.mobility.clone(),
            canonical_key,
            seed,
            seed_index: self.context.seed_index,
            n_seeds: self.context.n_seeds,
            policy_index: self.context.policy_index,
            n_policies: self.context.n_policies,
            rounds: meta.rounds,
            n_flows: meta.n_flows,
            bandwidth_hz: meta.bandwidth_hz,
        };
        self.scratch.clear();
        encode_header(&mut self.scratch, &header);
        self.flush_scratch();
    }

    fn on_contention(&mut self, ev: &ContentionRecord) {
        if self.error.is_some() {
            return;
        }
        let Some(delta) = self.delta(ev.round) else {
            return;
        };
        self.scratch.clear();
        encode_contention(&mut self.scratch, delta, ev, &mut self.counts);
        self.flush_scratch();
    }

    fn on_join(&mut self, ev: &JoinRecord) {
        if self.error.is_some() {
            return;
        }
        let Some(delta) = self.delta(ev.round) else {
            return;
        };
        self.scratch.clear();
        encode_join(&mut self.scratch, delta, ev, &mut self.counts);
        self.flush_scratch();
    }

    fn on_round_end(&mut self, ev: &RoundRecord) {
        if self.error.is_some() {
            return;
        }
        let Some(delta) = self.delta(ev.round) else {
            return;
        };
        self.scratch.clear();
        encode_round_parts(
            &mut self.scratch,
            delta,
            ev.body_symbols,
            ev.duration_samples,
            ev.flow_bits,
            ev.streams,
            &mut self.counts,
        );
        self.flush_scratch();
    }
}
