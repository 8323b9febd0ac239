//! VIS001 fixture: a sibling crate.

#![forbid(unsafe_code)]

pub use alpha::live_only_via_reexport;

fn caller() {
    let _ = alpha::live_cross_crate();
}
