//! The rule vocabulary: stable IDs, what each rule matches, and the
//! per-profile rule sets.
//!
//! | ID | profile | matches |
//! |---|---|---|
//! | `DET001` | all library code | `Instant::now`, any `SystemTime` use |
//! | `DET002` | all library code | `thread_rng`, `from_entropy`, `OsRng` |
//! | `DET003` | deterministic core | iteration over a `HashMap`/`HashSet`-typed binding (`.iter()`, `.keys()`, `.values()`, `.into_iter()`, `.drain()`, `for … in &map`) |
//! | `SRV001` | serving surface | `.unwrap(` / `.expect(` |
//! | `SRV002` | serving surface | `panic!`, `unreachable!`, `todo!`, `unimplemented!` |
//! | `SRV003` | serving surface | `process::exit` outside binaries |
//! | `HYG001` | crate roots | missing `#![forbid(unsafe_code)]` header |
//! | `HYG002` | everywhere | the `unsafe` keyword outside the whitelist |
//! | `HYG003` | library code | `println!`, `print!` or `dbg!` in a library |
//! | `VIS001` | library `src/` of `crates/*` (testkit excepted) | a bare `pub` `fn`/`struct`/`enum`/`union`/`trait`/`type`/`const`/`static` whose name no caller outside its own library crate mentions. Callers are the non-test identifiers of every file outside that crate's library: other crates' `src/`, its own package's `src/bin`, `benches/` and `examples/`, the root `src/`, and `perfbench/src` (read as callers only). Not callers: `use` declarations (a `pub use` re-export alone reaches nothing; the original behind a `use … as` alias does count), definitions, `#[cfg(test)]` regions, `tests/` directories and testkit. Matching is by bare name: a same-named item outside the crate hides an unreached one, so the rule can only over-count reach. Inside the crate, rustc's `dead_code` lint judges a `pub(crate)` item exactly |
//! | `ALW001` | everywhere | a `nplus:allow` annotation without a reason |
//! | `ALW002` | everywhere | a `nplus:allow` naming an unknown rule ID |
//!
//! "Library code" means non-test code in `src/` outside `src/bin/`;
//! `#[cfg(test)]` items and `tests/`/`benches/`/`examples/` targets are
//! exempt from everything except the `unsafe` whitelist (`HYG002`),
//! which has no test exemption — determinism is a library contract,
//! but memory safety is a workspace-wide one.
//!
//! `ALW001`/`ALW002` police the suppression mechanism itself and are
//! deliberately **not** suppressible.
//!
//! `VIS001` is the one cross-file rule: the per-file engine cannot
//! see callers in other files, so [`dead`](crate::dead) runs it as a
//! second pass over the whole workspace, always on. It replaced
//! `DEAD001`, which counted callers inside the item's own crate too;
//! that ID is retired and never reused, so a leftover
//! `nplus:allow(DEAD001)` is an `ALW002` finding.

/// A stable rule identifier. The numbering is append-only: IDs are
/// written in `nplus:allow(…)` annotations across the tree, so a
/// renumbering would silently void existing suppressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
// nplus:allow(VIS001): the type of the public field `Diagnostic::rule`
pub enum RuleId {
    /// Wall-clock read (`Instant::now` / `SystemTime`).
    Det001,
    /// Entropy-seeded randomness (`thread_rng`/`from_entropy`/`OsRng`).
    Det002,
    /// Unordered `HashMap`/`HashSet` iteration.
    Det003,
    /// `.unwrap()` / `.expect()` on the serving surface.
    Srv001,
    /// Panicking macro on the serving surface.
    Srv002,
    /// `process::exit` in serving library code.
    Srv003,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    Hyg001,
    /// `unsafe` outside the whitelist.
    Hyg002,
    /// `println!`/`print!`/`dbg!` in library code.
    Hyg003,
    /// Malformed `nplus:allow` (missing `: reason`).
    Alw001,
    /// `nplus:allow` naming an unknown rule.
    Alw002,
    /// A library `pub` item that no non-test code outside its crate
    /// names.
    Vis001,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 12] = [
        RuleId::Det001,
        RuleId::Det002,
        RuleId::Det003,
        RuleId::Srv001,
        RuleId::Srv002,
        RuleId::Srv003,
        RuleId::Hyg001,
        RuleId::Hyg002,
        RuleId::Hyg003,
        RuleId::Alw001,
        RuleId::Alw002,
        RuleId::Vis001,
    ];

    /// The stable textual ID (`"DET001"`, …) used in reports and
    /// `nplus:allow` annotations.
    pub(crate) fn code(self) -> &'static str {
        match self {
            RuleId::Det001 => "DET001",
            RuleId::Det002 => "DET002",
            RuleId::Det003 => "DET003",
            RuleId::Srv001 => "SRV001",
            RuleId::Srv002 => "SRV002",
            RuleId::Srv003 => "SRV003",
            RuleId::Hyg001 => "HYG001",
            RuleId::Hyg002 => "HYG002",
            RuleId::Hyg003 => "HYG003",
            RuleId::Alw001 => "ALW001",
            RuleId::Alw002 => "ALW002",
            RuleId::Vis001 => "VIS001",
        }
    }

    /// Parses a textual ID; `None` for anything unknown.
    pub(crate) fn from_code(code: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.code() == code)
    }

    /// One-line description of the contract behind the rule.
    pub fn contract(self) -> &'static str {
        match self {
            RuleId::Det001 => "deterministic code must not read the wall clock",
            RuleId::Det002 => "deterministic code must not draw entropy-seeded randomness",
            RuleId::Det003 => "results must not depend on HashMap/HashSet iteration order",
            RuleId::Srv001 => "the serving path must not unwrap/expect",
            RuleId::Srv002 => "the serving path must not panic",
            RuleId::Srv003 => "the serving library must not exit the process",
            RuleId::Hyg001 => "every crate root carries #![forbid(unsafe_code)]",
            RuleId::Hyg002 => "unsafe only in the whitelisted counting allocator",
            RuleId::Hyg003 => "library code must not print to stdout or dbg!",
            RuleId::Alw001 => "every nplus:allow must carry a reason",
            RuleId::Alw002 => "nplus:allow must name a real rule",
            RuleId::Vis001 => "a library pub item is named outside its crate",
        }
    }

    /// Whether a `nplus:allow(THIS)` annotation may suppress it. The
    /// meta rules policing the annotations themselves cannot be
    /// annotated away.
    pub(crate) fn suppressible(self) -> bool {
        !matches!(self, RuleId::Alw001 | RuleId::Alw002)
    }
}

/// The set of rules active for one file, derived from the crate's
/// profile and the file's kind by [`workspace`](crate::workspace) (or
/// assembled directly in tests).
#[derive(Debug, Clone, Copy, Default)]
// nplus:allow(VIS001): a parameter type of the public `analyze_source`, and what `rules_for` returns
pub struct RuleSet {
    /// `DET001`/`DET002`: wall-clock and entropy randomness.
    pub wall_clock_and_entropy: bool,
    /// `DET003`: unordered map iteration (deterministic core only).
    pub map_iteration: bool,
    /// `SRV001`–`SRV003`: the panic-free serving surface.
    pub serving_surface: bool,
    /// `HYG001`: this file is a crate root and must carry the header.
    pub crate_root_header: bool,
    /// `HYG002`: `unsafe` is forbidden in this file.
    pub no_unsafe: bool,
    /// `HYG003`: stdout/dbg printing is forbidden in this file.
    pub no_print: bool,
}

impl RuleSet {
    /// Everything on — the strictest profile, used by fixtures.
    #[cfg(test)]
    pub fn strict() -> RuleSet {
        RuleSet {
            wall_clock_and_entropy: true,
            map_iteration: true,
            serving_surface: true,
            crate_root_header: false,
            no_unsafe: true,
            no_print: true,
        }
    }
}
