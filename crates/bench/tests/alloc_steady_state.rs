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
use nplus::scenario::{parse_spec, ScenarioGenerator};
use nplus::sim::{MobilityModel, SimConfig, SimEngine};
use nplus_channel::environment::{MULTI_CELL, SIGCOMM11_INDOOR};
use nplus_medium::topology::build_environment_topology;
use nplus_medium::ChannelCache;
use nplus_phy::params::occupied_subcarrier_indices;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    let scenario = ScenarioGenerator::new(7).dense(32);
    let testbed = SIGCOMM11_INDOOR
        .testbed(scenario.antennas.len())
        .unwrap_or_else(|e| panic!("{e}"));
    let cfg = SimConfig {
        rounds: ROUNDS,
        ..SimConfig::default()
    };
    let mut placement_rng = StdRng::seed_from_u64(3);
    let topo = build_environment_topology(
        &SIGCOMM11_INDOOR,
        &testbed,
        &scenario.antennas,
        cfg.ofdm.bandwidth_hz,
        3,
        &mut placement_rng,
    )
    .expect("fits the paper map");
    let engine = SimEngine::new(&topo, &scenario, &cfg);

    for policy in [NPlus, Dot11n, Beamforming] {
        let name = policy.name();
        let mut ledger = AllocLedger::with_rounds(ROUNDS);
        let mut rng = StdRng::seed_from_u64(11);
        let result = engine.run(policy, &mut rng, &mut ledger, None);
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

    let scenario = ScenarioGenerator::new(42).multi_ap(2, 3);
    let testbed = SIGCOMM11_INDOOR
        .testbed(scenario.antennas.len())
        .unwrap_or_else(|e| panic!("{e}"));
    let cfg = SimConfig {
        rounds: ROUNDS,
        ..SimConfig::default()
    };
    let mut placement_rng = StdRng::seed_from_u64(3);
    let topo = build_environment_topology(
        &SIGCOMM11_INDOOR,
        &testbed,
        &scenario.antennas,
        cfg.ofdm.bandwidth_hz,
        3,
        &mut placement_rng,
    )
    .expect("fits the paper map");
    let engine = SimEngine::new(&topo, &scenario, &cfg);

    let mut ledger = AllocLedger::with_rounds(ROUNDS);
    let mut rng = StdRng::seed_from_u64(11);
    let result = engine.run(Oracle, &mut rng, &mut ledger, None);
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

/// A waypoint-mobility run starts from a copy-on-write clone of the
/// engine's channel cache, so its set-up allocates per moved link, not
/// per link (a deep copy of the tables costs ~100 allocations per
/// link). No node moves in round 0 and the walk draws nothing there, so
/// up to the first round end a mobility run does exactly the work of
/// the same run without mobility, plus the mobility set-up. Round 0
/// itself allocates while the pools grow, so the bound applies to the
/// mobility run's excess over the static run: below a quarter of an
/// allocation per cached link.
#[test]
fn mobility_setup_allocates_per_moved_link_not_per_link() {
    const NODES: usize = 256;
    let parsed = parse_spec(
        &format!("load:poisson:1.5/city:{NODES}"),
        MULTI_CELL.capacity(),
    )
    .expect("city spec parses");
    let scenario = parsed.scenario;
    let still = SimConfig {
        rounds: 4,
        traffic: parsed.traffic.expect("load prefix carries a traffic model"),
        ..SimConfig::default()
    };
    let moving = SimConfig {
        mobility: MobilityModel::Waypoint {
            step_m: 2.0,
            epoch_rounds: 3,
        },
        ..still.clone()
    };
    let testbed = MULTI_CELL.testbed(NODES).expect("city fits the map");
    let mut rng = StdRng::seed_from_u64(1);
    let topo = build_environment_topology(
        &MULTI_CELL,
        &testbed,
        &scenario.antennas,
        still.ofdm.bandwidth_hz,
        1,
        &mut rng,
    )
    .expect("city topology builds");
    let n_links =
        ChannelCache::build(&topo, &occupied_subcarrier_indices(), still.ofdm.fft_len).n_links();
    assert!(n_links >= 1000, "city world too sparse: {n_links} links");

    // Allocations from run start to the first round end.
    let first_round = |cfg: &SimConfig| {
        let engine = SimEngine::new(&topo, &scenario, cfg);
        let mut ledger = AllocLedger::with_rounds(cfg.rounds);
        let mut rng = StdRng::seed_from_u64(11);
        let result = engine.run(NPlus, &mut rng, &mut ledger, None);
        assert!(result.total_mbps.is_finite());
        ledger.counts[0] - ledger.start
    };
    let (static_allocs, mobility_allocs) = (first_round(&still), first_round(&moving));
    let setup = mobility_allocs.saturating_sub(static_allocs);
    assert!(
        setup < (n_links / 4) as u64,
        "mobility set-up allocated {setup} times for {n_links} cached links \
         ({mobility_allocs} vs {static_allocs} without mobility)"
    );
}
