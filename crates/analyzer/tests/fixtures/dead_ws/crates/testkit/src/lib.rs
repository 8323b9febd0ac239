//! VIS001 fixture: testkit defines no candidates and calls nothing.

#![forbid(unsafe_code)]

/// Not reported: testkit items are not candidates.
pub fn helper() {
    alpha::dead_item();
}
