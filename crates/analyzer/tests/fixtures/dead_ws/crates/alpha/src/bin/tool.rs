//! VIS001 fixture: the package's own binary is outside its library.

fn main() {
    alpha::live_via_own_bin();
}
