//! # nplus-analyzer — the workspace's determinism and panic-free linter
//!
//! The load-bearing guarantees of this reproduction — bit-for-bit
//! determinism across thread counts, caches, SoA storage and sparse
//! worlds, and a panic-free serving surface — are proven at runtime by
//! the determinism suites. This crate machine-checks the *source-level*
//! conventions those proofs rest on, so a violation is caught at lint
//! time instead of as a flaky figure three PRs later:
//!
//! * **Deterministic core** (`nplus-linalg`, `nplus-phy`,
//!   `nplus-channel`, `nplus-medium`, `nplus-mac`, `nplus`): no
//!   wall-clock reads, no entropy-seeded RNG, no unordered
//!   `HashMap`/`HashSet` iteration feeding results.
//! * **Serving surface** (`nplus-server` non-test library code): no
//!   `unwrap`/`expect`/`panic!`-family macros/`process::exit` — every
//!   client byte must map to a typed error, never a panic.
//! * **Workspace hygiene** (every first-party crate): the canonical
//!   `#![forbid(unsafe_code)]` crate-root header, `unsafe` nowhere but
//!   the single whitelisted counting-allocator test, and no
//!   `dbg!`/`println!` in library code.
//! * **Each library exposes only what other crates call** (library
//!   `src/` of `crates/*`, testkit excepted): every bare `pub` item is
//!   named by some non-test code outside its own library crate. This one
//!   rule (`VIS001`) is cross-file, so the `dead` module runs it as a
//!   second pass over the whole walk; `use` declarations, `tests/`,
//!   testkit and `#[cfg(test)]` code are not callers, and the package's
//!   own bins, `benches/` and `examples/`, the root `src/` and
//!   `perfbench/src` are. Inside a crate, rustc's `dead_code` lint
//!   judges the `pub(crate)` items.
//!
//! The engine is a small hand-rolled lexer ([`lexer`]) — comment-,
//! string-, raw-string- and `#[cfg(test)]`-aware, never panicking on
//! arbitrary input — plus a token-pattern rule engine (`engine`), the
//! reachability pass (`dead`) and per-crate profiles ([`workspace`]).
//! It is deliberately a *heuristic* source checker, not a type checker:
//! the patterns are written for this workspace's house style, and every
//! rule documents exactly what it matches (the `rules` module).
//!
//! Findings are suppressible only by an inline annotation that names
//! the rule **and carries a reason**:
//!
//! ```text
//! let t = Instant::now(); // nplus:allow(DET001): operator-facing latency report only
//! ```
//!
//! A reason-less or unknown-rule annotation is itself a finding. The
//! `analyze` binary walks the workspace and exits non-zero on any
//! unsuppressed finding; CI runs it with `--json` and uploads the
//! report, and `cargo test -p nplus-analyzer` re-runs the same gate
//! in-process (`tests/workspace_clean.rs`) so plain `cargo test`
//! already enforces the contracts.

#![forbid(unsafe_code)]

mod dead;
mod engine;
pub mod lexer;
mod report;
mod rules;
pub mod workspace;

pub use engine::{analyze_source, FileKind};
pub use report::{render_human, render_json, Diagnostic};
pub use rules::{RuleId, RuleSet};
pub use workspace::{analyze_workspace, WorkspaceReport};
