//! Integration tests are not callers.

#[test]
fn calls() {
    alpha::live_only_in_tests();
}
