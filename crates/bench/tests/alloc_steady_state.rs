//! Allocation contracts of an engine run, verified with a counting
//! global allocator and round observers that snapshot the allocation
//! counter at run start and at every round boundary:
//!
//! * the per-run arena: after the warm-up rounds have grown the
//!   `Scratch` pools and the round buffers to their high-water marks, a
//!   steady-state round performs **zero** heap allocations — under n+,
//!   under 802.11n and beamforming (whose rounds settle from the
//!   receivers' stored zero-forcing filters), and in the oracle's
//!   memoized schedules;
//! * one buffer per channel table: building a city's channel cache
//!   allocates a small constant per cached link, not one matrix per
//!   occupied subcarrier;
//! * copy-on-write channel tables: a waypoint-mobility run's set-up
//!   shares the engine's tables instead of copying them, so it
//!   allocates per *moved* link, not per link.
//!
//! The counter is per thread and each run stays on its test's thread,
//! so tests running concurrently cannot pollute each other's counts.
//!
//! This is the **only** file in the workspace allowed to use `unsafe`
//! (a `GlobalAlloc` impl cannot be written without it): the workspace
//! deny-set and the `nplus-analyzer` unsafe whitelist both name it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nplus::observer::{RoundObserver, RoundRecord, RunMeta};
use nplus::policy::{Beamforming, Dot11n, NPlus, Oracle};
use nplus::scenario::{parse_spec, ParsedSpec, ScenarioGenerator};
use nplus::sim::{MobilityModel, RunResult, SweepSpec};
use nplus_channel::environment::{environment_from_name, Environment};
use nplus_medium::topology::{build_environment_topology, Topology};
use nplus_medium::ChannelCache;
use nplus_phy::params::{occupied_subcarrier_indices, OfdmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn multi_cell() -> &'static Environment {
    environment_from_name("multi_cell").expect("built-in world")
}

/// Counts every `alloc`/`realloc` call of the calling thread
/// (deallocations are free to remain — the contracts are about
/// *acquiring* memory).
struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free, so touching it never allocates.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

/// Allocation calls made so far by the current thread.
fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees carry over; counting touches only a
// thread-local integer and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Snapshots the allocation counter at run start and at every round
/// end, into storage preallocated before the run (so the ledger itself
/// never allocates mid-run).
struct AllocLedger {
    start: u64,
    counts: Vec<u64>,
}

impl AllocLedger {
    fn with_rounds(rounds: usize) -> Self {
        AllocLedger {
            start: 0,
            counts: Vec::with_capacity(rounds + 1),
        }
    }
}

impl RoundObserver for AllocLedger {
    fn on_run_start(&mut self, _meta: &RunMeta) {
        self.start = alloc_calls();
    }
    fn on_round_end(&mut self, _ev: &RoundRecord) {
        self.counts.push(alloc_calls());
    }
}

/// Runs `spec`'s one seed on this thread, one ledger per policy, and
/// returns each policy's result with its ledger.
fn run_with_ledgers(spec: &SweepSpec, rounds: usize) -> Vec<(RunResult, AllocLedger)> {
    let seed = spec.seed_list()[0];
    let mut ledgers: Vec<AllocLedger> = spec
        .policy_names()
        .iter()
        .map(|_| AllocLedger::with_rounds(rounds))
        .collect();
    let mut taps: Vec<&mut dyn RoundObserver> = ledgers
        .iter_mut()
        .map(|l| l as &mut dyn RoundObserver)
        .collect();
    let results = spec
        .try_run_seed_observed(seed, &mut taps)
        .unwrap_or_else(|e| panic!("{e}"));
    results.per_policy.into_iter().zip(ledgers).collect()
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    const ROUNDS: usize = 400;
    const WARMUP: usize = 300;

    // A 32-node dense scenario: 16 contending pairs keep every pool in
    // the engine (streams, receiver states, believed-channel arrays,
    // join bookkeeping) exercised each round. Warm-up must outlast the
    // opening-plan memo's fill — every transmitter has to win primary
    // contention at least once (coupon collector over 16 contenders)
    // before the last first-win stops populating it. 802.11n and
    // beamforming rounds plan and settle through the same pools, with
    // every receiver's zero-forcing filters in one flat buffer per
    // receiver state.
    // Placement seed 3, run seed 11.
    let spec = SweepSpec::new(ScenarioGenerator::new(7).dense(32))
        .rounds(ROUNDS)
        .seeds([3])
        .run_seed_xor(3 ^ 11)
        .policy(NPlus)
        .policy(Dot11n)
        .policy(Beamforming);

    for (name, (result, ledger)) in spec
        .policy_names()
        .iter()
        .zip(run_with_ledgers(&spec, ROUNDS))
    {
        assert!(result.total_mbps.is_finite(), "{name}");
        assert_eq!(ledger.counts.len(), ROUNDS, "{name}");

        // Every round after warm-up must leave the counter untouched.
        let steady = ledger.counts[WARMUP - 1];
        for (round, &count) in ledger.counts.iter().enumerate().skip(WARMUP) {
            assert_eq!(
                count,
                steady,
                "{name} round {round} allocated {} time(s) after warm-up (round {} -> {})",
                count - steady,
                WARMUP - 1,
                round,
            );
        }
    }
}

/// The oracle plans each distinct schedule state once per run; a round
/// whose state it has met before replays the stored schedule, building
/// its key in place and cloning nothing. Two 3-client downlink cells
/// rotate their fair allocation with `round % 3`, so the schedule
/// states repeat with period 3: once the warm-up has seen every phase,
/// every round is a memo hit and must leave the counter untouched (a
/// miss plans candidate rounds and allocates).
#[test]
fn oracle_memo_hit_rounds_allocate_nothing() {
    const ROUNDS: usize = 40;
    const WARMUP: usize = 10;

    // Placement seed 3, run seed 11.
    let spec = SweepSpec::new(ScenarioGenerator::new(42).multi_ap(2, 3))
        .rounds(ROUNDS)
        .seeds([3])
        .run_seed_xor(3 ^ 11)
        .policy(Oracle);
    let (result, ledger) = run_with_ledgers(&spec, ROUNDS).remove(0);
    assert!(result.total_mbps > 0.0);
    assert_eq!(ledger.counts.len(), ROUNDS);

    let steady = ledger.counts[WARMUP - 1];
    for (round, &count) in ledger.counts.iter().enumerate().skip(WARMUP) {
        assert_eq!(
            count,
            steady,
            "oracle round {round} allocated {} time(s) after warm-up",
            count - steady,
        );
    }
}

/// The loaded 256-node `multi_cell` city at placement seed 1: its
/// parsed spec and topology.
fn city_256() -> (ParsedSpec, Topology) {
    const NODES: usize = 256;
    let parsed = parse_spec(
        &format!("load:poisson:1.5/city:{NODES}"),
        multi_cell().capacity(),
    )
    .expect("city spec parses");
    let testbed = multi_cell().testbed(NODES).expect("city fits the map");
    let mut rng = StdRng::seed_from_u64(1);
    let topo = build_environment_topology(
        multi_cell(),
        &testbed,
        &parsed.scenario.antennas,
        OfdmConfig::usrp2().bandwidth_hz,
        1,
        &mut rng,
    )
    .expect("city topology builds");
    (parsed, topo)
}

/// Each channel table keeps its 52 bins in one split-storage buffer,
/// so building the city's cache allocates a few times per cached link
/// (the buffer's two halves and the table's `Arc`), plus a constant for
/// the link walk, the twiddles and the maps. One matrix per bin would
/// cost over a hundred per link.
#[test]
fn channel_cache_build_allocates_a_few_times_per_link() {
    let (_, topo) = city_256();
    let ofdm = OfdmConfig::usrp2();
    let bins = occupied_subcarrier_indices();
    let before = alloc_calls();
    let cache = ChannelCache::build(&topo, &bins, ofdm.fft_len);
    let allocs = alloc_calls() - before;
    let n_links = cache.n_links();
    assert!(n_links >= 1000, "city world too sparse: {n_links} links");
    assert!(
        allocs <= 4 * n_links as u64,
        "building {n_links} tables allocated {allocs} times"
    );
}

/// A waypoint-mobility run starts from a copy-on-write clone of the
/// engine's channel cache, so its set-up allocates per moved link, not
/// per link (a deep copy of the tables costs about 3 allocations per
/// link: each table's two buffer halves and its `Arc`). No node moves
/// in round 0 and the walk draws nothing there, so up to the first
/// round end a mobility run does exactly the work of the same run
/// without mobility, plus the mobility set-up. Round 0 itself allocates
/// while the pools grow, so the bound applies to the mobility run's
/// excess over the static run: below a quarter of an allocation per
/// cached link.
#[test]
fn mobility_setup_allocates_per_moved_link_not_per_link() {
    let (parsed, topo) = city_256();
    let ofdm = OfdmConfig::usrp2();
    let n_links =
        ChannelCache::build(&topo, &occupied_subcarrier_indices(), ofdm.fft_len).n_links();
    assert!(n_links >= 1000, "city world too sparse: {n_links} links");

    // Placement seed 1, run seed 11.
    let still = SweepSpec::new(parsed.scenario)
        .environment(*multi_cell())
        .rounds(4)
        .traffic(parsed.traffic.expect("load prefix carries a traffic model"))
        .seeds([1])
        .run_seed_xor(1 ^ 11)
        .policy(NPlus);
    // Allocations from run start to the first round end.
    let first_round = |spec: &SweepSpec| {
        let (result, ledger) = run_with_ledgers(spec, 4).remove(0);
        assert!(result.total_mbps.is_finite());
        ledger.counts[0] - ledger.start
    };
    let static_allocs = first_round(&still);
    let moving = still.mobility(MobilityModel::Waypoint {
        step_m: 2.0,
        epoch_rounds: 3,
    });
    let mobility_allocs = first_round(&moving);
    let setup = mobility_allocs.saturating_sub(static_allocs);
    assert!(
        setup < (n_links / 4) as u64,
        "mobility set-up allocated {setup} times for {n_links} cached links \
         ({mobility_allocs} vs {static_allocs} without mobility)"
    );
}
