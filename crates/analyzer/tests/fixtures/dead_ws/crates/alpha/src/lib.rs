//! VIS001 fixture: one library crate whose items cover every caller kind.

#![forbid(unsafe_code)]

mod inner;

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

/// Reported: only a signature in its own crate names it.
pub struct Signature;

/// Reported: only another file of its own crate calls it.
pub fn used_only_in_crate() {}

/// Not reported: the package's own binary calls it.
pub fn live_via_own_bin() {}

/// Not reported: the package's example calls it.
pub fn live_via_example() {}

/// Not reported: the benchmark harness calls it.
pub fn live_via_perfbench() {}

/// Not reported: narrowed to the crate, where rustc's `dead_code` judges it.
pub(crate) fn crate_private() {}

/// Not reported: suppressed with a reason.
// nplus:allow(VIS001): the fixture's suppression case
pub fn suppressed() {}

/// Reported twice: a reason-less allow suppresses nothing.
// nplus:allow(VIS001)
pub fn reasonless() {}

/// Reported twice: `DEAD001` is retired, so its allow names no rule.
// nplus:allow(DEAD001): the retired rule's annotation
pub fn retired_allow() {}

/// Not a candidate: test-only.
#[cfg(test)]
pub fn test_helper() {
    dead_item();
}
