//! VIS001 fixture: the package's examples are outside its library.

fn main() {
    alpha::live_via_example();
}
