//! DEAD001 fixture: one library crate whose items cover every caller kind.

#![forbid(unsafe_code)]

/// Reported: nothing names it.
pub fn dead_item() {}

/// Reported: only `tests/` calls it.
pub fn live_only_in_tests() {}

/// Reported: only a `pub use` names it.
pub fn live_only_via_reexport() {}

/// Reported: only its own `impl` blocks name it.
pub struct OwnImplOnly;

impl Default for OwnImplOnly {
    fn default() -> Self {
        OwnImplOnly
    }
}

/// Not reported: the sibling crate calls it.
pub fn live_cross_crate() -> Signature {
    Signature
}

/// Not reported: a live sibling's signature names it.
pub struct Signature;

/// Not reported: the benchmark harness calls it.
pub fn live_via_perfbench() {}

/// Not reported: suppressed with a reason.
// nplus:allow(DEAD001): the fixture's suppression case
pub fn suppressed() {}

/// Reported twice: a reason-less allow suppresses nothing.
// nplus:allow(DEAD001)
pub fn reasonless() {}

/// Not a candidate: test-only.
#[cfg(test)]
pub fn test_helper() {
    dead_item();
}
