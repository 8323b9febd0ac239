//! VIS001 fixture: a caller inside the item's own crate does not count.

fn caller() {
    crate::used_only_in_crate();
    crate::crate_private();
}
