//! Integration tests for the run machinery's observable behavior
//! (Sections 3.2–3.4 / 4.1–4.3 of the paper), asserted through the
//! strategy's statistics and events on structured inputs.

use chain_sim::{RunLimits, Sim};
use gathering_core::{ClosedChainGathering, GatherConfig, RunEvent, StopReason};
use workloads::Family;

fn run_stats(fam: Family, n: usize, seed: u64) -> gathering_core::RunStats {
    let chain = fam.generate(n, seed);
    let len = chain.len();
    let mut sim = Sim::new(chain, ClosedChainGathering::paper());
    let outcome = sim.run(RunLimits::for_chain_len(len));
    assert!(outcome.is_gathered(), "{} n={len}: {outcome:?}", fam.name());
    sim.strategy().stats().clone()
}

#[test]
fn runs_do_real_reshapement_work() {
    // On large mergeless-at-start structures, folds must happen.
    for fam in [Family::Rectangle, Family::Spiral, Family::Serpentine] {
        let stats = run_stats(fam, 400, 1);
        assert!(stats.folds > 0, "{}: no folds", fam.name());
        assert!(stats.started_total() > 0, "{}: no runs", fam.name());
    }
}

#[test]
fn termination_conditions_all_exercised() {
    // Across a mixed suite, every paper termination condition fires
    // somewhere (Table 1): endpoint visibility, merge participation,
    // robot removal.
    let mut total = gathering_core::RunStats::default();
    for fam in Family::ALL {
        for seed in 0..3 {
            let s = run_stats(fam, 250, seed);
            total.stopped_sequent += s.stopped_sequent;
            total.stopped_endpoint += s.stopped_endpoint;
            total.stopped_merged += s.stopped_merged;
            total.stopped_robot_removed += s.stopped_robot_removed;
            total.stopped_target_removed += s.stopped_target_removed;
            total.passings_started += s.passings_started;
        }
    }
    assert!(total.stopped_endpoint > 0, "condition 2 never fired");
    assert!(
        total.stopped_merged + total.stopped_robot_removed > 0,
        "condition 3 never fired"
    );
    assert!(total.passings_started > 0, "run passing never happened");
}

#[test]
fn pipelining_cadence_is_l_rounds() {
    // Run starts only occur at rounds ≡ 0 (mod 13).
    let chain = Family::Rectangle.generate(300, 0);
    let len = chain.len();
    let mut sim = Sim::new(chain, ClosedChainGathering::paper().with_event_recording());
    for _ in 0..80 {
        if sim.is_gathered() {
            break;
        }
        sim.step().unwrap();
    }
    let events = sim.strategy_mut().take_events();
    for e in &events {
        if let RunEvent::Started { round, .. } = e {
            assert_eq!(round % 13, 0, "start at round {round}");
        }
    }
    let _ = len;
}

#[test]
fn custom_l_period_respected() {
    let cfg = GatherConfig {
        l_period: 7,
        ..GatherConfig::paper()
    };
    let chain = Family::Rectangle.generate(200, 0);
    let mut sim = Sim::new(chain, ClosedChainGathering::new(cfg).with_event_recording());
    for _ in 0..40 {
        if sim.is_gathered() {
            break;
        }
        sim.step().unwrap();
    }
    let events = sim.strategy_mut().take_events();
    let mut starts = 0;
    for e in &events {
        if let RunEvent::Started { round, .. } = e {
            assert_eq!(round % 7, 0, "start at round {round}");
            starts += 1;
        }
    }
    assert!(starts > 0);
}

#[test]
fn stop_reasons_accounted_consistently() {
    // started == stopped + live-at-end for a completed gathering (all
    // runs eventually die since the final 2×2 has no quasi lines).
    let chain = Family::Skyline.generate(300, 4);
    let len = chain.len();
    let mut sim = Sim::new(chain, ClosedChainGathering::paper());
    let outcome = sim.run(RunLimits::for_chain_len(len));
    assert!(outcome.is_gathered());
    let stats = sim.strategy().stats();
    let live = sim.strategy().runs().len() as u64;
    assert_eq!(
        stats.started_total(),
        stats.stopped_total() + live,
        "run lifecycle accounting: {stats:?}"
    );
}

#[test]
fn event_stream_is_consistent() {
    // Every Stopped/Folded event refers to a previously started run.
    let chain = Family::StaircaseDiamond.generate(200, 0);
    let len = chain.len();
    let mut sim = Sim::new(chain, ClosedChainGathering::paper().with_event_recording());
    let _ = sim.run(RunLimits::for_chain_len(len));
    let events = sim.strategy_mut().take_events();
    let mut started = std::collections::HashSet::new();
    for e in &events {
        match e {
            RunEvent::Started { run_id, .. } => {
                assert!(started.insert(*run_id), "run {run_id} started twice");
            }
            RunEvent::Stopped { run_id, reason, .. } => {
                assert!(
                    started.contains(run_id),
                    "run {run_id} stopped ({reason:?}) before starting"
                );
            }
            RunEvent::Folded { run_id, .. } | RunEvent::PassingStarted { run_id, .. } => {
                assert!(started.contains(run_id), "unknown run {run_id}");
            }
        }
    }
    assert!(!started.is_empty());
}

#[test]
fn no_slot_collisions_in_practice() {
    // Slot collisions indicate pipelining hygiene failures; they must not
    // occur on the standard suite.
    for fam in Family::ALL {
        let s = run_stats(fam, 200, 2);
        assert_eq!(
            s.stopped_slot_collision,
            0,
            "{}: slot collisions",
            fam.name()
        );
    }
}

#[test]
fn passing_preserves_both_runs_momentarily() {
    // Build a run passing situation and check both runs survive the cross
    // (they die later of ordinary causes, not at the crossing).
    let chain = Family::Serpentine.generate(400, 0);
    let len = chain.len();
    let mut sim = Sim::new(chain, ClosedChainGathering::paper().with_event_recording());
    let outcome = sim.run(RunLimits::for_chain_len(len));
    assert!(outcome.is_gathered());
    let events = sim.strategy_mut().take_events();
    let mut passing_runs = std::collections::HashSet::new();
    let mut died_to_target: u64 = 0;
    for e in &events {
        match e {
            RunEvent::PassingStarted { run_id, .. } => {
                passing_runs.insert(*run_id);
            }
            RunEvent::Stopped {
                reason: StopReason::TargetRemoved,
                ..
            } => died_to_target += 1,
            _ => {}
        }
    }
    // If passings happened, target-removal deaths are allowed but bounded
    // by the number of passing runs.
    assert!(died_to_target <= passing_runs.len() as u64 * 2 + 2);
}
