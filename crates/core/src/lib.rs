//! # nplus — 802.11n+: random access heterogeneous MIMO networks
//!
//! A from-scratch reproduction of *"Random Access Heterogeneous MIMO
//! Networks"* (Lin, Gollakota, Katabi — ACM SIGCOMM 2011).
//!
//! 802.11n+ ("n+") lets nodes with different antenna counts contend not
//! just for **time** but for the **degrees of freedom** multiple antennas
//! provide: when the medium is already carrying transmissions, a node
//! with more antennas than the used degrees of freedom can carrier-sense
//! in the space orthogonal to them, win a secondary contention, and
//! transmit concurrently — without harming the ongoing exchanges.
//!
//! ## Crate map
//!
//! | module | paper section | what it implements |
//! |---|---|---|
//! | [`precoder`] | §3.3, Claims 3.1–3.5 | nulling + alignment pre-coding vectors |
//! | [`carrier_sense`] | §3.2 | multi-dimensional carrier sense by projection |
//! | [`handshake`] | §3.5 | differential alignment-space compression |
//! | [`link`] | §3.4 | zero-forcing SINRs and per-packet rate selection |
//! | [`power_control`] | §4 | the join-power threshold `L` |
//! | [`policy`] | §6 | the closed set of MAC policies: n+, 802.11n, beamforming, oracle, greedy-join |
//! | [`observer`] | §6 | round-level event tap over simulation runs |
//! | [`scenario`] | §6 | the spec grammar, seeded scenario families and world placement |
//! | [`sim`] | §6 | the round engine, sweeps and the [`sim::SweepSpec`] facade |
//!
//! The PHY, channel, medium, and MAC substrates live in their own crates
//! (`nplus-phy`, `nplus-channel`, `nplus-medium`, `nplus-mac`); the paper's
//! USRP2 testbed is replaced by a sample-level simulated medium — see
//! `DESIGN.md` for the substitution map.
//!
//! ## Quickstart
//!
//! ```
//! use nplus::precoder::{compute_precoders, OwnReceiver, ProtectedReceiver};
//! use nplus_linalg::{c64, CMatrix, Subspace};
//!
//! // A 2-antenna transmitter joins while a single-antenna pair is on the
//! // air (the paper's Fig. 2): null at rx1, deliver one stream to rx2.
//! let h_rx1 = CMatrix::from_vec(1, 2, vec![c64(0.9, 0.2), c64(-0.4, 0.6)]);
//! let h_rx2 = CMatrix::from_vec(2, 2, vec![
//!     c64(0.5, -0.1), c64(0.3, 0.8),
//!     c64(-0.2, 0.4), c64(0.7, 0.0),
//! ]);
//! let p = compute_precoders(
//!     2,
//!     &[ProtectedReceiver::nulling(h_rx1.clone())],
//!     &[OwnReceiver { channel: h_rx2, n_streams: 1, unwanted: Subspace::zero(2) }],
//! ).unwrap();
//! // The chosen vector creates a (numerically) perfect null at rx1.
//! assert!(h_rx1.mul_vec(&p.vectors[0]).norm() < 1e-10);
//! ```

#![forbid(unsafe_code)]

pub mod carrier_sense;
mod executor;
mod generator;
pub mod handshake;
pub mod link;
pub mod node;
pub mod observer;
pub mod policy;
pub mod power_control;
pub mod precoder;
pub mod scenario;
pub mod sim;
mod spec;

pub use carrier_sense::MultiDimCarrierSense;
pub use handshake::{decode_alignment_space, encode_alignment_space};
pub use link::{select_stream_rate, zf_sinr, SubcarrierObservation};
pub use node::{learn_forward_channel, plan_join, JoinError, JoinPlan, LearnedReceiver};
pub use observer::{
    ContentionKind, ContentionRecord, GoodputAccumulator, JoinRecord, NullObserver, RoundObserver,
    RoundRecord, RunIdentity, RunMeta, StreamRecord,
};
pub use policy::{Beamforming, Dot11n, GreedyJoin, NPlus, Oracle, Policy, BUILTIN_POLICY_NAMES};
pub use power_control::{JoinPowerDecision, DEFAULT_L_DB};
pub use precoder::{
    compute_precoders, residual_interference, OwnReceiver, PrecoderError, Precoding,
    ProtectedReceiver,
};
pub use sim::{
    aggregate_results, CanonicalSpec, Flow, MobilityModel, RunResult, Scenario, SeedResults,
    SweepError, SweepSpec, SweepStats, TrafficModel,
};

/// One-import surface for simulation users: the builder facade, the
/// scenario types, every built-in policy and propagation environment,
/// and the observer API.
///
/// ```
/// use nplus::prelude::*;
///
/// let stats = SweepSpec::new(Scenario::three_pairs())
///     .rounds(3)
///     .seed_count(2)
///     .policy(Dot11n)
///     .policy(NPlus)
///     .run();
/// assert!(stats[1].mean_total_mbps > 0.0);
/// ```
pub mod prelude {
    pub use crate::observer::{
        ContentionKind, ContentionRecord, GoodputAccumulator, JoinRecord, NullObserver,
        RoundObserver, RoundRecord, RunIdentity, RunMeta, StreamRecord,
    };
    pub use crate::policy::{
        Beamforming, Dot11n, GreedyJoin, NPlus, Oracle, Policy, BUILTIN_POLICY_NAMES,
    };
    pub use crate::sim::{
        aggregate_results, CanonicalSpec, Flow, MobilityModel, RunResult, Scenario, SeedResults,
        SweepError, SweepSpec, SweepStats, TrafficModel,
    };
    pub use nplus_channel::environment::{
        environment_from_name, Environment, EnvironmentError, OscillatorDraw,
        BUILTIN_ENVIRONMENT_NAMES, SIGCOMM11_INDOOR,
    };
}
