//! Hard assertions for the paper-figure scenarios (the executable versions
//! live in `examples/figures.rs`; these tests pin their outcomes).

use chain_sim::{ClosedChain, Outcome, RunLimits, Sim};
use gathering_core::{ClosedChainGathering, GatherConfig, MergeScan, RunEvent, StartShape};
use grid_geom::{Offset, Point};

fn chain(coords: &[(i64, i64)]) -> ClosedChain {
    ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
}

fn rectangle(w: i64, h: i64) -> ClosedChain {
    let mut pts = vec![Point::new(0, 0)];
    pts.extend((1..w).map(|x| Point::new(x, 0)));
    pts.extend((1..h).map(|y| Point::new(w - 1, y)));
    pts.extend((1..w).map(|x| Point::new(w - 1 - x, h - 1)));
    pts.extend((1..h - 1).map(|y| Point::new(0, h - 1 - y)));
    ClosedChain::new(pts).unwrap()
}

/// Figure 1: the 2×3 ring merges and is gathered after one round.
#[test]
fn figure1_merge() {
    let c = chain(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]);
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    let report = sim.step().unwrap();
    assert!(report.removed >= 2, "Figure 1 must shorten the chain");
    assert!(sim.is_gathered());
}

/// Figure 2 (k = 1): hairpin tips merge onto their coinciding neighbors.
#[test]
fn figure2_k1() {
    let c = chain(&[(0, 0), (1, 0), (2, 0), (1, 0)]);
    let mut scan = MergeScan::default();
    scan.scan(&c, &GatherConfig::paper());
    // Both fold tips are k=1 patterns.
    assert_eq!(scan.patterns().iter().filter(|p| p.k == 1).count(), 2);
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    sim.step().unwrap();
    assert!(sim.is_gathered());
}

/// Figure 2 (k > 1): a length-4 black segment with same-side whites fires.
#[test]
fn figure2_k4() {
    let c = chain(&[
        (0, 0),
        (0, 1),
        (1, 1),
        (2, 1),
        (3, 1),
        (3, 0),
        (2, 0),
        (1, 0),
    ]);
    let mut scan = MergeScan::default();
    scan.scan(&c, &GatherConfig::paper());
    assert!(scan.patterns().iter().any(|p| p.k == 4));
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    let report = sim.step().unwrap();
    assert!(report.removed >= 2);
}

/// Figure 3b: corner robots black in two patterns hop diagonally.
#[test]
fn figure3b_diagonal_hops() {
    let c = rectangle(4, 2);
    let mut scan = MergeScan::default();
    scan.scan(&c, &GatherConfig::paper());
    let diagonals = (0..c.len())
        .filter(|&i| scan.merge_hop(i).is_diagonal())
        .count();
    assert_eq!(diagonals, 4, "all four corners combine two black roles");
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    let outcome = sim.run_default();
    assert!(outcome.is_gathered());
}

/// Figure 5(ii): rectangle corners start two runs each.
#[test]
fn figure5_corner_starts() {
    let c = rectangle(20, 12);
    let mut sim = Sim::new(c, ClosedChainGathering::paper().with_event_recording());
    sim.step().unwrap();
    let events = sim.strategy_mut().take_events();
    let corner_starts = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                RunEvent::Started {
                    shape: StartShape::CornerEnd,
                    ..
                }
            )
        })
        .count();
    assert_eq!(corner_starts, 8, "4 corners × 2 runs");
}

/// Figures 6/7: a good pair folds a long edge inward — folds happen and
/// the pair's merges arrive.
#[test]
fn figure7_good_pair_folds_and_merges() {
    let c = rectangle(20, 12);
    let len = c.len();
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    let outcome = sim.run(RunLimits::for_chain_len(len));
    assert!(outcome.is_gathered());
    let stats = sim.strategy().stats();
    assert!(stats.folds > 0, "reshapement hops must happen");
    assert!(
        stats.started_total() > 8,
        "pipelining starts several generations"
    );
}

/// Figure 8: a non-good pair passes; passing is observed on combs where
/// corridor walls carry opposite-fold-side runs.
#[test]
fn figure8_passing_happens_somewhere() {
    let mut total_passings = 0;
    for (fam, n, seed) in [
        (workloads::Family::Rectangle, 400usize, 0u64),
        (workloads::Family::StaircaseDiamond, 400, 0),
        (workloads::Family::Skyline, 400, 5),
    ] {
        let c = fam.generate(n, seed);
        let len = c.len();
        let mut sim = Sim::new(c, ClosedChainGathering::paper());
        let _ = sim.run(RunLimits::for_chain_len(len));
        total_passings += sim.strategy().stats().passings_started;
    }
    assert!(
        total_passings > 0,
        "run passing must occur on mixed structures"
    );
}

/// Figure 9: pipelining — multiple run generations alive at once.
#[test]
fn figure9_pipelining_parallelism() {
    let c = rectangle(40, 20);
    let len = c.len();
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    let _ = sim.run(RunLimits::for_chain_len(len));
    assert!(
        sim.strategy().stats().max_live_runs >= 8,
        "got {}",
        sim.strategy().stats().max_live_runs
    );
}

/// Figure 16: long stairways host no merge patterns in their interior.
#[test]
fn figure16_stairways_merge_free() {
    let c = workloads::staircase_diamond(10);
    let mut scan = MergeScan::default();
    scan.scan(&c, &GatherConfig::paper());
    // Only tip patterns, all short.
    for p in scan.patterns() {
        assert!(p.k <= 2, "{p:?}");
    }
    assert!(scan.patterns().len() <= 8);
}

/// The 2×2 square is the target: the algorithm stops there and does not
/// try to break its symmetry (the paper's justification for the 2×2 goal).
#[test]
fn two_by_two_is_terminal() {
    let c = chain(&[(0, 0), (0, 1), (1, 1), (1, 0)]);
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    let outcome = sim.run(RunLimits {
        max_rounds: 100,
        stall_window: 50,
    });
    assert_eq!(outcome, Outcome::Gathered { rounds: 0 });
}

/// Mergeless-chain structure: in a chain where no merge fires, run starts
/// appear at quasi-line endpoints (Lemma 1's structural claim).
#[test]
fn mergeless_chain_starts_runs() {
    // A 30×14 rectangle has no initial merge patterns (k = 29/13 > 10).
    let c = rectangle(30, 14);
    let mut scan = MergeScan::default();
    scan.scan(&c, &GatherConfig::paper());
    assert!(scan.patterns().is_empty(), "mergeless by construction");
    let mut sim = Sim::new(c, ClosedChainGathering::paper().with_event_recording());
    sim.step().unwrap();
    let starts = sim
        .strategy_mut()
        .take_events()
        .iter()
        .filter(|e| matches!(e, RunEvent::Started { .. }))
        .count();
    assert_eq!(starts, 8);
}

/// Offset sanity for the diagonal reshapement hop (Fig. 6): folds move a
/// runner diagonally, one step along the line and one toward the fold side.
#[test]
fn fold_hops_are_diagonal() {
    let c = rectangle(20, 12);
    let len = c.len();
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    // Round 0 starts runs; by round 1 the corner robots fold diagonally.
    sim.step().unwrap();
    let before: Vec<Point> = sim.chain().positions().to_vec();
    sim.step().unwrap();
    let after: Vec<Point> = sim.chain().positions().to_vec();
    let mut diagonal_moves = 0;
    if before.len() == after.len() {
        for (a, b) in before.iter().zip(after.iter()) {
            let d: Offset = *b - *a;
            if d.is_diagonal() {
                diagonal_moves += 1;
            }
        }
    }
    assert!(diagonal_moves > 0, "corner folds must be diagonal hops");
    let _ = len;
}
