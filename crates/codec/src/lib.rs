//! # nplus-codec — the round-event recording layer
//!
//! The `observer_contract` suite proves a run is exactly
//! reconstructible from its [`RoundObserver`](nplus::RoundObserver)
//! event stream; this crate makes that stream a first-class artifact.
//! A recording is a compact, versioned binary file (DESIGN.md §12):
//! a header carrying the run's identity — policy, environment,
//! scenario spec, seeds, rounds, bandwidth, and the `CanonicalSpec` v3
//! key — followed by delta-encoded, varint-packed event frames whose
//! only floats (`flow_bits`) travel as raw IEEE-754 bits, so decode is
//! **bitwise-exact**.
//!
//! On top of the codec:
//!
//! * [`RecordingObserver`] implements `RoundObserver` and streams
//!   frames to any `io::Write`; it is the one encoder. Wire it into a
//!   sweep with `SweepSpec::try_run_observed` (the `sweep` bin's
//!   `--record <dir>` does exactly that, one file per (policy, seed)).
//! * [`replay_run`] / [`replay_sweep`] fold recordings back through
//!   `GoodputAccumulator` and `aggregate_results`, reproducing
//!   `RunResult` / `SweepStats` **bit-for-bit** without re-simulating
//!   (the `replay` bin).
//! * [`diff_recordings`] reports the first frame, round and field
//!   where two recordings diverge — the determinism-debugging view the
//!   bit-identity suites lack (`replay diff a.rec b.rec`).
//! * [`export`] renders Prometheus-style metrics and per-run
//!   time-series JSON, and owns the sweep JSON report the `sweep` and
//!   `replay` bins share (and its statistics serializer, shared with
//!   `nplus-server`).
//!
//! Recordings are untrusted input: every decode path returns a typed
//! [`DecodeError`] — truncation, corruption, bad magic, a future
//! version — and never panics (the analyzer enforces the same
//! deterministic, panic-free profile on this crate as on the core and
//! the serving surface). The [`json`] module is the workspace's one
//! dependency-free JSON implementation, re-exported by `nplus-server`
//! for its wire protocol.

#![forbid(unsafe_code)]

pub mod diff;
pub mod error;
pub mod export;
pub mod json;
pub mod observer;
pub mod recording;
pub mod replay;
mod wire;

pub use diff::{diff_recordings, Divergence};
pub use error::DecodeError;
pub use observer::{RecordingContext, RecordingObserver};
pub use recording::{Event, Recording, RoundEvent, RunHeader};
pub use replay::{replay_run, replay_sweep, ReplayError, ReplayedSweep};
