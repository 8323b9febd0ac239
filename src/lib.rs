//! Workspace facade for the 802.11n+ reproduction.
//!
//! The real API lives in the member crates; this crate exists so the
//! workspace-level integration tests (`tests/`) and examples
//! (`examples/`) have a package to hang off, and re-exports the members
//! for consumers that want a single dependency.
//!
//! Simulation users want [`prelude`]:
//!
//! ```
//! use nplus_sim::prelude::*;
//!
//! let stats = SweepSpec::new(Scenario::three_pairs())
//!     .rounds(3)
//!     .seed_count(2)
//!     .policy(Dot11n)
//!     .policy(NPlus)
//!     .policy(Oracle) // the omniscient upper bound
//!     .run();
//! assert_eq!(stats.last().unwrap().policy, "oracle");
//! ```

#![forbid(unsafe_code)]

pub use nplus as core;
pub use nplus_channel as channel;
pub use nplus_linalg as linalg;
pub use nplus_mac as mac;
pub use nplus_medium as medium;
pub use nplus_phy as phy;

/// The simulation prelude: `SweepSpec`, scenarios, every
/// [`Policy`](crate::core::policy::Policy), the observer API, and
/// the testbed map — one import for the whole public simulation
/// surface.
pub mod prelude {
    pub use nplus::prelude::*;
    pub use nplus_channel::placement::Testbed;
}
