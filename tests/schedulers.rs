//! Scheduler-subsystem properties: FSYNC pinning, reproducibility, and
//! observer passivity under SSYNC.
//!
//! Three contracts are pinned here:
//!
//! 1. **FSYNC is byte-identical to the pre-scheduler engine.** The
//!    activation mask is a refactor of the hot loop, so the default
//!    (FSYNC) path must reproduce the exact fingerprints the engine
//!    produced before the `Scheduler` trait existed — the golden values
//!    below were recorded against that engine.
//! 2. **Schedules are pure functions of their seed.** The same seed
//!    yields the identical activation sequence, and `run_batch_with`
//!    fingerprints cannot depend on worker-thread count.
//! 3. **Observers stay passive under SSYNC.** An instrumented SSYNC run —
//!    including one in which the strategy breaks the chain, the common
//!    SSYNC fate of FSYNC-designed algorithms — is identical to the
//!    headless run of the same spec.

use baselines::CompassSe;
use bench::scenario::{run_batch_with, BatchOptions, ScenarioSpec, StrategyKind};
use chain_sim::observe::Invariants;
use chain_sim::scheduler::Scheduler;
use chain_sim::{Observer, Recorder, RoundCtx, SchedulerKind, Sim, Strategy};
use gathering_core::ClosedChainGathering;
use workloads::Family;

/// Golden FSYNC fingerprints `(n, rounds, merges, longest_gap)` recorded
/// against the engine *before* the scheduler refactor. The default
/// engine path and the explicit FSYNC scheduler must both reproduce them
/// exactly.
fn golden_fsync() -> Vec<(ScenarioSpec, (usize, u64, usize, u64))> {
    vec![
        (
            ScenarioSpec::paper(Family::Rectangle, 48, 0),
            (48, 7, 44, 0),
        ),
        (
            ScenarioSpec::paper(Family::Rectangle, 96, 3),
            (96, 176, 92, 18),
        ),
        (ScenarioSpec::paper(Family::Skyline, 64, 1), (84, 12, 80, 0)),
        (
            ScenarioSpec::paper(Family::RandomLoop, 80, 2),
            (80, 6, 79, 0),
        ),
        (
            ScenarioSpec::paper(Family::StaircaseDiamond, 72, 5),
            (72, 27, 71, 18),
        ),
        (
            ScenarioSpec::strategy(Family::Rectangle, 64, 0, StrategyKind::GlobalVision),
            (64, 10, 63, 0),
        ),
        (
            ScenarioSpec::strategy(Family::Skyline, 64, 7, StrategyKind::CompassSe),
            (72, 20, 68, 1),
        ),
        (
            ScenarioSpec::strategy(Family::RandomLoop, 48, 4, StrategyKind::NaiveLocal),
            (48, 10, 46, 1),
        ),
        (ScenarioSpec::audited(Family::Comb, 56, 9), (52, 5, 48, 0)),
    ]
}

#[test]
fn fsync_via_scheduler_is_byte_identical_to_the_pre_scheduler_engine() {
    let (specs, expected): (Vec<_>, Vec<_>) = golden_fsync().into_iter().unzip();
    // Implicit FSYNC (the default spec)...
    let results = run_batch_with(&specs, BatchOptions::threads(2));
    for (r, want) in results.iter().zip(&expected) {
        assert_eq!(
            r.fingerprint(),
            *want,
            "default path diverged: {:?}",
            r.spec
        );
    }
    // ...and the *explicit* FSYNC scheduler: same grid cell semantics
    // apart from the spec-hash (FSYNC is encoded either way).
    let explicit: Vec<ScenarioSpec> = specs
        .iter()
        .map(|s| s.with_scheduler(SchedulerKind::Fsync))
        .collect();
    for (r, want) in run_batch_with(&explicit, BatchOptions::threads(2))
        .iter()
        .zip(&expected)
    {
        assert_eq!(
            r.fingerprint(),
            *want,
            "explicit fsync diverged: {:?}",
            r.spec
        );
    }
}

/// Records every activation mask the engine hands to observers.
struct MaskTape(Vec<Vec<bool>>);

impl<S: Strategy> Observer<S> for MaskTape {
    fn on_round(&mut self, ctx: &RoundCtx<'_>, _strategy: &mut S) {
        self.0.push(ctx.active.to_vec());
    }
}

/// Same seed ⇒ identical activation sequence, for every SSYNC kind;
/// different seed ⇒ a different sequence for the seeded kinds.
#[test]
fn same_seed_means_identical_activation_sequence() {
    let tape = |kind: SchedulerKind, seed: u64| -> Vec<Vec<bool>> {
        let chain = Family::Skyline.generate(72, 3);
        let mut sim = Sim::new(chain, CompassSe::new())
            .with_scheduler(kind.build(seed))
            .observe(MaskTape(Vec::new()));
        for _ in 0..24 {
            sim.step().unwrap();
        }
        sim.observer_mut::<MaskTape>().unwrap().0.clone()
    };
    for kind in SchedulerKind::SWEEP {
        assert_eq!(tape(kind, 11), tape(kind, 11), "{}", kind.name());
    }
    for kind in [SchedulerKind::Random(50), SchedulerKind::KFair(4)] {
        assert_ne!(tape(kind, 11), tape(kind, 12), "{}", kind.name());
    }
}

/// SSYNC fingerprints are a pure function of the spec: thread count and
/// repetition cannot change them.
#[test]
fn ssync_fingerprints_are_thread_count_invariant() {
    let mut specs = Vec::new();
    for &sched in &SchedulerKind::SWEEP {
        for (family, kind) in [
            (Family::Rectangle, StrategyKind::paper()),
            (Family::Skyline, StrategyKind::CompassSe),
            (Family::RandomLoop, StrategyKind::NaiveLocal),
        ] {
            specs.push(ScenarioSpec::strategy(family, 64, 5, kind).with_scheduler(sched));
        }
    }
    let serial = run_batch_with(&specs, BatchOptions::threads(1));
    for threads in [2, 4] {
        let parallel = run_batch_with(&specs, BatchOptions::threads(threads));
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "threads={threads}: {:?} {:?}",
                a.spec.strategy.name(),
                a.spec.scheduler.name()
            );
        }
    }
}

/// Observer passivity under every SSYNC scheduler: instrumented ≡
/// headless, for a strategy that survives (compass-se) and one that
/// breaks the chain (the paper's FSYNC-designed algorithm).
#[test]
fn instrumented_ssync_runs_match_headless() {
    for &sched in &SchedulerKind::SWEEP {
        let tag = sched.name();
        let (n, seed) = (96usize, 1u64);

        // compass-se: gathers under every schedule.
        let chain = Family::Rectangle.generate(n, seed);
        let limits = ScenarioSpec::strategy(Family::Rectangle, n, seed, StrategyKind::CompassSe)
            .with_scheduler(sched)
            .resolve_limits(&chain);
        let mut headless = Sim::new(chain, CompassSe::new()).with_scheduler(sched.build(seed));
        let out_headless = headless.run(limits);
        let mut observed = Sim::new(Family::Rectangle.generate(n, seed), CompassSe::new())
            .with_scheduler(sched.build(seed))
            .observe(Recorder::new())
            .observe(Invariants::new());
        let out_observed = observed.run(limits);
        assert_eq!(out_headless, out_observed, "{tag}");
        assert_eq!(headless.progress(), observed.progress(), "{tag}");
        assert_eq!(
            headless.chain().positions(),
            observed.chain().positions(),
            "{tag}"
        );
        assert!(
            observed.observer::<Invariants>().unwrap().is_clean(),
            "{tag}"
        );
        assert!(out_headless.is_gathered(), "compass-se survives {tag}");

        // The paper's algorithm: breaks the chain under SSYNC, and the
        // instrumented run must break identically.
        if sched.is_fsync() {
            continue;
        }
        let chain = Family::Rectangle.generate(n, seed);
        let limits = ScenarioSpec::paper(Family::Rectangle, n, seed)
            .with_scheduler(sched)
            .resolve_limits(&chain);
        let mut headless =
            Sim::new(chain, ClosedChainGathering::paper()).with_scheduler(sched.build(seed));
        let out_headless = headless.run(limits);
        let mut observed = Sim::new(
            Family::Rectangle.generate(n, seed),
            ClosedChainGathering::paper(),
        )
        .with_scheduler(sched.build(seed))
        .observe(Recorder::new())
        .observe(Invariants::new());
        let out_observed = observed.run(limits);
        assert_eq!(out_headless, out_observed, "{tag}");
        assert_eq!(headless.progress(), observed.progress(), "{tag}");
        assert!(
            matches!(out_headless, chain_sim::Outcome::ChainBroken { .. }),
            "the FSYNC-designed paper algorithm relies on synchronized \
             neighbor motion; under {tag} it must break the chain, got {out_headless:?}"
        );
    }
}

/// The quiescence fix at scenario level: the stand control's stalled
/// cells shrink from O(stall_window) to O(QUIESCENCE_WINDOW) rounds —
/// ≥ 100× below the rounds BENCH_scaling.json recorded (12 800 at n=64,
/// 176 128 at n=256).
#[test]
fn stand_campaign_cells_terminate_in_o_window_rounds() {
    for (n, old_rounds) in [(64usize, 12_800u64), (256, 176_128)] {
        let spec = ScenarioSpec::strategy(Family::Rectangle, n, 0, StrategyKind::Stand);
        let r = bench::scenario::run_scenario(&spec);
        let rounds = r.outcome.rounds();
        assert!(
            matches!(r.outcome, chain_sim::Outcome::Stalled { .. }),
            "{:?}",
            r.outcome
        );
        assert!(
            rounds * 100 <= old_rounds,
            "n={n}: stand now stalls at {rounds} rounds, expected ≥100× under {old_rounds}"
        );
    }
}

/// Counts the longest streak of rounds with no movement and no merge —
/// the quantity the engine's quiescence cutoff judges.
struct GapMeter {
    current: u64,
    longest: u64,
}

impl<S: Strategy> Observer<S> for GapMeter {
    fn on_round(&mut self, ctx: &RoundCtx<'_>, _strategy: &mut S) {
        if ctx.summary.moved == 0 && ctx.summary.removed == 0 {
            self.current += 1;
            self.longest = self.longest.max(self.current);
        } else {
            self.current = 0;
        }
    }
}

/// Regression: large-`k` KFair schedules have a duty cycle of `1/k`, so
/// legitimate runs sit motionless for far longer than the unscaled
/// [`QUIESCENCE_WINDOW`] — the engine must scale the cutoff by
/// [`SchedulerKind::slowdown`] or it declares a live run falsely
/// quiescent. The `GapMeter` proves the test bites: the gathered run
/// really does contain a no-move gap past the unscaled window.
#[test]
fn large_k_kfair_runs_are_not_declared_falsely_quiescent() {
    use chain_sim::QUIESCENCE_WINDOW;
    use gathering_core::SsyncGathering;

    let k = 1000u32;
    let chain = Family::Rectangle.generate(16, 0);
    let len = chain.len() as u64;
    let d = chain.bounding().diameter() as u64;
    let mut sim = Sim::new(chain, SsyncGathering::paper())
        .with_scheduler(SchedulerKind::KFair(k).build(0))
        .observe(GapMeter {
            current: 0,
            longest: 0,
        });
    let outcome = sim.run(chain_sim::RunLimits {
        max_rounds: (8 * len * d + 4096).saturating_mul(k.into()),
        stall_window: (4 * len * d + 1024).saturating_mul(k.into()),
    });
    assert!(
        outcome.is_gathered(),
        "KFair({k}) must gather, not stall: {outcome:?}"
    );
    let longest = sim.observer::<GapMeter>().unwrap().longest;
    assert!(
        longest > QUIESCENCE_WINDOW,
        "test lost its teeth: longest no-move gap {longest} never exceeded \
         the unscaled window {QUIESCENCE_WINDOW}"
    );
}

/// Custom schedulers compose with the engine like observers do: the
/// trait is open (here: a schedule that freezes the second half of the
/// chain) beside the activation rules that implement it.
#[test]
fn custom_scheduler_plugs_in() {
    struct FreezeUpperHalf;
    impl Scheduler for FreezeUpperHalf {
        fn activate(&mut self, _round: u64, mask: &mut [bool]) {
            let half = mask.len() / 2;
            for slot in &mut mask[half..] {
                *slot = false;
            }
        }
    }
    let chain = Family::Rectangle.generate(32, 0);
    let mut sim = Sim::new(chain, CompassSe::new())
        .with_scheduler(Box::new(FreezeUpperHalf))
        .observe(MaskTape(Vec::new()));
    sim.step().unwrap();
    let mask = &sim.observer::<MaskTape>().unwrap().0[0];
    assert!(mask[..mask.len() / 2].iter().all(|&a| a));
    assert!(mask[mask.len() / 2..].iter().all(|&a| !a));
}
