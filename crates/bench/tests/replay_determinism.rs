//! Replay determinism, pinned at the pipeline level.
//!
//! For seeded family × strategy × scheduler draws, a run recorded by
//! [`ReplayWriter`] and reconstructed by [`ReplayReader`] must visit the
//! same chain, round for round, as the engine's own [`Recorder`]
//! snapshots — byte-identical positions, matching counters, matching
//! trailer outcome. Telemetry taps must also be *passive*: a run with a
//! replay sink, frame ring, and progress slot attached produces exactly
//! the result an untapped run produces. And a mutilated replay — any
//! truncation, any bit flip — must fail with a positioned error, never a
//! panic.

use std::sync::Arc;

use bench::scenario::{
    run_scenario, run_scenario_tapped, LimitPolicy, ReplayTap, RunTaps, ScenarioResult,
    ScenarioSpec, StrategyKind,
};
use chain_sim::{
    FrameRing, LiveFrame, ProgressSlot, Recorder, ReplayOutcome, ReplayReader, ReplaySink,
    ReplayWriter, RunLimits, SchedulerKind, Sim,
};
use obs::PhaseTimer;
use workloads::Family;

/// The draw grid: every closed-chain strategy kind crossed with the
/// scheduler sweep over a few families/seeds. Includes combinations that
/// break the chain (`paper` under SSYNC) and ones that stall (`stand`) —
/// every trailer variant is exercised.
fn draws() -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    let strategies = [
        StrategyKind::paper(),
        StrategyKind::paper_ssync(),
        StrategyKind::GlobalVision,
        StrategyKind::CompassSe,
        StrategyKind::NaiveLocal,
        StrategyKind::Stand,
    ];
    let families = [Family::Rectangle, Family::Skyline, Family::Comb];
    for (i, strategy) in strategies.iter().enumerate() {
        for (j, scheduler) in SchedulerKind::SWEEP.iter().enumerate() {
            let family = families[(i + j) % families.len()];
            let n = 16 + 8 * ((i + 2 * j) % 4);
            specs.push(
                ScenarioSpec::strategy(family, n, (i + 3 * j) as u64, *strategy)
                    .with_scheduler(*scheduler),
            );
        }
    }
    // A round-limited draw pins the RoundLimit trailer.
    let mut capped = ScenarioSpec::strategy(Family::Rectangle, 32, 0, StrategyKind::paper());
    capped.limits = LimitPolicy::Fixed(RunLimits {
        max_rounds: 5,
        stall_window: 100,
    });
    specs.push(capped);
    specs
}

/// Round-stamped position snapshots from a `Recorder`.
type Snapshots = Vec<(u64, Vec<grid_geom::Point>)>;

/// Record a spec on the boxed engine with both a `Recorder` (snapshot
/// every round) and a `ReplayWriter` attached, returning the replay blob,
/// the per-round position snapshots, and the outcome.
fn record(spec: &ScenarioSpec) -> (Vec<u8>, Snapshots, chain_sim::Outcome) {
    let chain = spec.generate();
    let limits = spec.resolve_limits(&chain);
    let strategy = spec.strategy.build().expect("closed-chain kinds build");
    let sink = ReplaySink::new();
    let mut sim = Sim::new(chain, strategy)
        .with_scheduler(spec.scheduler.build(spec.seed))
        .observe(Recorder::snapshots(1, usize::MAX))
        .observe(ReplayWriter::new(sink.clone()));
    let outcome = sim.run(limits);
    let snapshots = sim
        .observer_mut::<Recorder>()
        .unwrap()
        .take_trace()
        .snapshots;
    (sink.take(), snapshots, outcome)
}

#[test]
fn reader_chains_match_recorder_snapshots_across_draws() {
    for spec in draws() {
        let initial = spec.generate();
        let (blob, snapshots, outcome) = record(&spec);
        assert!(!blob.is_empty(), "{spec:?}: no replay flushed");

        let mut reader =
            ReplayReader::new(&blob).unwrap_or_else(|e| panic!("{spec:?}: header rejected: {e}"));
        assert_eq!(
            reader.chain().positions(),
            initial.positions(),
            "{spec:?}: initial chain differs"
        );
        let mut replayed = 0usize;
        loop {
            match reader.next_round() {
                Ok(Some(round)) => {
                    let (r, expected) = &snapshots[replayed];
                    assert_eq!(round.summary.round, *r, "{spec:?}");
                    assert_eq!(
                        reader.chain().positions(),
                        expected.as_slice(),
                        "{spec:?}: round {r} chain differs"
                    );
                    replayed += 1;
                }
                Ok(None) => break,
                Err(e) => panic!("{spec:?}: replay failed mid-stream: {e}"),
            }
        }
        assert_eq!(replayed as u64, outcome.rounds(), "{spec:?}");
        assert_eq!(replayed, snapshots.len(), "{spec:?}");
        assert_eq!(
            reader.outcome().unwrap(),
            &ReplayOutcome::from_outcome(&outcome),
            "{spec:?}: trailer outcome differs"
        );
    }
}

/// Taps are passive, whatever path they force: every spec of the draw
/// grid plus the audited, Euclidean and open-chain kinds runs untapped,
/// with a probe, with a phase timer, and (closed kinds only) with probe +
/// replay + ring, and every [`ScenarioResult`] field except `wall` agrees.
/// The one pinned difference is `max_travel` on the kernel-eligible
/// kinds: the kernel path tracks no travel (`None`), and a replay forces
/// the boxed engine, which does (`Some`). The replay's round count equals
/// the reported rounds, and the ring and the slot close on the same final
/// state. (The service-level pin — byte-identical `CampaignRow`s across
/// watched/unwatched processes — lives in `gatherd`'s tests; this is the
/// engine-level root of that guarantee.)
#[test]
fn tapped_runs_are_byte_identical_to_untapped() {
    let mut specs = draws();
    specs.push(ScenarioSpec::audited(Family::Rectangle, 32, 1));
    specs.push(ScenarioSpec::euclid(Family::Skyline, 32, 2));
    specs.push(ScenarioSpec::strategy(
        Family::Comb,
        32,
        3,
        StrategyKind::OpenZip,
    ));
    specs.push(ScenarioSpec::strategy(
        Family::Rectangle,
        32,
        4,
        StrategyKind::Hopper,
    ));
    for spec in specs {
        let kernel_kind = matches!(
            spec.strategy,
            StrategyKind::GlobalVision
                | StrategyKind::CompassSe
                | StrategyKind::NaiveLocal
                | StrategyKind::Stand
        );
        let recordable = !spec.strategy.is_open_chain() && !spec.strategy.is_euclid();
        let plain = run_scenario(&spec);
        let same = |tapped: &ScenarioResult, taps: &str, travel: bool| {
            assert_eq!(tapped.spec, plain.spec, "{spec:?} [{taps}]");
            assert_eq!(tapped.n, plain.n, "{spec:?} [{taps}]");
            assert_eq!(tapped.outcome, plain.outcome, "{spec:?} [{taps}]");
            assert_eq!(tapped.merges_total, plain.merges_total, "{spec:?} [{taps}]");
            assert_eq!(tapped.longest_gap, plain.longest_gap, "{spec:?} [{taps}]");
            assert_eq!(tapped.stats, plain.stats, "{spec:?} [{taps}]");
            assert_eq!(
                format!("{:?}", tapped.audit),
                format!("{:?}", plain.audit),
                "{spec:?} [{taps}]"
            );
            assert_eq!(tapped.open, plain.open, "{spec:?} [{taps}]");
            assert_eq!(tapped.makespan, plain.makespan, "{spec:?} [{taps}]");
            if travel {
                assert_eq!(tapped.max_travel, plain.max_travel, "{spec:?} [{taps}]");
            }
        };

        let slot = ProgressSlot::new();
        let probed = run_scenario_tapped(
            &spec,
            RunTaps {
                probe: Some(slot.clone()),
                ..RunTaps::default()
            },
        );
        same(&probed, "probe", true);
        let snap = slot.snapshot();
        assert!(snap.finished, "{spec:?} [probe]");
        assert_eq!(snap.removed, probed.merges_total, "{spec:?} [probe]");

        let timed = run_scenario_tapped(
            &spec,
            RunTaps {
                phases: Some(Arc::new(PhaseTimer::new(1))),
                ..RunTaps::default()
            },
        );
        same(&timed, "phases", true);

        if !recordable {
            continue;
        }
        let sink = ReplaySink::new();
        let ring = FrameRing::new(64);
        let slot = ProgressSlot::new();
        let tapped = run_scenario_tapped(
            &spec,
            RunTaps {
                probe: Some(slot.clone()),
                replay: Some(ReplayTap {
                    sink: sink.clone(),
                    ring: Some(ring.clone()),
                }),
                phases: None,
            },
        );
        // A replay forces the boxed engine: the only field that may
        // differ is the travel the kernel path does not track.
        same(&tapped, "probe+replay+ring", !kernel_kind);
        if kernel_kind {
            assert_eq!(plain.max_travel, None, "{spec:?}: kernel path");
            assert!(tapped.max_travel.is_some(), "{spec:?}: boxed path");
        }

        let blob = sink.take();
        let mut reader = ReplayReader::new(&blob).unwrap();
        let mut rounds = 0u64;
        while reader.next_round().unwrap().is_some() {
            rounds += 1;
        }
        assert_eq!(rounds, tapped.outcome.rounds(), "{spec:?}");

        // The ring closed with a finished final frame agreeing with the
        // progress slot.
        assert!(ring.is_closed(), "{spec:?}");
        let mut cursor = 0u64;
        let mut last = None;
        while let Some(bytes) = ring.next(&mut cursor) {
            last = Some(LiveFrame::decode(&bytes).unwrap());
        }
        let last = last.expect("ring carries frames");
        assert!(last.finished, "{spec:?}");
        assert_eq!(last.round, tapped.outcome.rounds(), "{spec:?}");
        let snap = slot.snapshot();
        assert!(snap.finished, "{spec:?}");
        assert_eq!(last.removed_total, snap.removed as u64, "{spec:?}");
        assert_eq!(last.guard_cancels, snap.guard_cancels, "{spec:?}");
    }
}

/// The guard counter flows end to end: a paper-ssync run under an
/// adversarial schedule reports its guard cancels through both the
/// progress slot and the replay (summed per-round detail).
#[test]
fn guard_cancels_surface_in_slot_and_replay() {
    let spec = ScenarioSpec::strategy(Family::Rectangle, 32, 0, StrategyKind::paper_ssync())
        .with_scheduler(SchedulerKind::Random(50));
    let sink = ReplaySink::new();
    let slot = ProgressSlot::new();
    let result = run_scenario_tapped(
        &spec,
        RunTaps {
            probe: Some(slot.clone()),
            replay: Some(ReplayTap {
                sink: sink.clone(),
                ring: None,
            }),
            phases: None,
        },
    );
    assert!(result.outcome.is_gathered(), "{:?}", result.outcome);
    let blob = sink.take();
    let mut reader = ReplayReader::new(&blob).unwrap();
    let mut guard_total = 0u64;
    while let Some(round) = reader.next_round().unwrap() {
        guard_total += round.guard_cancels;
    }
    assert_eq!(slot.snapshot().guard_cancels, guard_total);
}

#[test]
fn truncations_and_bit_flips_fail_positioned_never_panic() {
    // One representative draw with SSYNC masks and guard activity — the
    // densest record layout.
    let spec = ScenarioSpec::strategy(Family::Skyline, 24, 5, StrategyKind::paper_ssync())
        .with_scheduler(SchedulerKind::KFair(4));
    let (blob, _, _) = record(&spec);

    let drive = |bytes: &[u8]| -> Result<u64, chain_sim::ReplayError> {
        let mut reader = ReplayReader::new(bytes)?;
        let mut rounds = 0u64;
        while reader.next_round()?.is_some() {
            rounds += 1;
        }
        Ok(rounds)
    };

    let full = drive(&blob).expect("pristine blob replays");

    for cut in 0..blob.len() {
        let err = drive(&blob[..cut]).expect_err("every strict prefix must fail");
        assert!(
            err.offset <= cut,
            "cut {cut}: offset {} past end",
            err.offset
        );
    }
    // Sampled single-bit flips: either a positioned error or (rarely) a
    // benign flip that still verifies — but never a panic, and never a
    // replay that silently gains or loses rounds.
    for byte in 0..blob.len() {
        let mut corrupt = blob.clone();
        corrupt[byte] ^= 1 << (byte % 8);
        match drive(&corrupt) {
            Err(e) => assert!(e.offset <= blob.len(), "byte {byte}: bad offset"),
            Ok(rounds) => assert_eq!(rounds, full, "byte {byte}: round count drifted"),
        }
    }
}
