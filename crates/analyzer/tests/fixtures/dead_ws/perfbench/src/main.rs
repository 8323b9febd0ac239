//! VIS001 fixture: the benchmark harness is read as a caller only.

fn main() {
    alpha::live_via_perfbench();
}
