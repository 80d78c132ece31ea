//! Property-based tests over random closed chains (seeded-loop form; the
//! offline build has no proptest, so cases are enumerated from a seeded
//! deterministic generator — failures print the seed for replay).
//!
//! The generator below produces arbitrary *balanced step multisets* in
//! random order — every instance is a legal closed chain, including
//! self-crossing and zero-area degenerate loops. The properties assert the
//! model-level invariants the paper's correctness rests on.

use chain_sim::{ClosedChain, RunLimits, Sim};
use gathering_core::{ClosedChainGathering, GatherConfig};
use grid_geom::{Offset, Point};
use workloads::SplitMix64;

/// A shuffled balanced step multiset → closed chain. `a` pairs of ±x steps
/// and `b` pairs of ±y steps always close into a valid chain.
fn arb_closed_chain(rng: &mut SplitMix64, max_half: usize) -> ClosedChain {
    let a = rng.range_usize(1, max_half + 1);
    let b = rng.range_usize(1, max_half + 1);
    let mut steps: Vec<Offset> = Vec::with_capacity(2 * (a + b));
    steps.extend(std::iter::repeat_n(Offset::RIGHT, a));
    steps.extend(std::iter::repeat_n(Offset::LEFT, a));
    steps.extend(std::iter::repeat_n(Offset::UP, b));
    steps.extend(std::iter::repeat_n(Offset::DOWN, b));
    rng.shuffle(&mut steps);
    let mut pts = Vec::with_capacity(steps.len());
    let mut p = Point::new(0, 0);
    for s in &steps[..steps.len() - 1] {
        pts.push(p);
        p += *s;
    }
    pts.push(p);
    ClosedChain::new(pts).expect("balanced steps form a valid closed chain")
}

/// The central safety property: the strategy never breaks the chain, and
/// always gathers within the engine's generous linear limits.
#[test]
fn gathers_any_closed_chain() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xA11CE ^ case);
        let chain = arb_closed_chain(&mut rng, 40);
        let len = chain.len();
        let mut sim = Sim::new(chain, ClosedChainGathering::paper());
        let outcome = sim.run(RunLimits::for_chain_len(len));
        assert!(outcome.is_gathered(), "case={case} n={len}: {outcome:?}");
    }
}

/// Merges only ever remove robots; the chain length is monotone.
#[test]
fn chain_length_monotone() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xB0B ^ (case << 8));
        let chain = arb_closed_chain(&mut rng, 24);
        let len = chain.len();
        let mut sim = Sim::new(chain, ClosedChainGathering::paper());
        let mut prev = len;
        for _ in 0..(8 * len) {
            if sim.is_gathered() {
                break;
            }
            let rep = sim.step().unwrap();
            assert!(rep.len_after <= prev, "case={case}");
            prev = rep.len_after;
        }
    }
}

/// Equivariance: translated inputs behave identically.
#[test]
fn translation_equivariance() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0xC0FFEE ^ case);
        let chain = arb_closed_chain(&mut rng, 16);
        let dx = rng.range_i64_inclusive(-50, 49);
        let dy = rng.range_i64_inclusive(-50, 49);
        let len = chain.len();
        let mut moved = chain.clone();
        moved.translate(Offset::new(dx, dy));
        let mut a = Sim::new(chain, ClosedChainGathering::paper());
        let mut b = Sim::new(moved, ClosedChainGathering::paper());
        let oa = a.run(RunLimits::for_chain_len(len));
        let ob = b.run(RunLimits::for_chain_len(len));
        assert_eq!(oa.rounds(), ob.rounds(), "case={case} dx={dx} dy={dy}");
    }
}

/// The conservative merge bound (k = 3) still gathers everything — the run
/// machinery carries the load (Lemma 1/2 in action).
#[test]
fn k3_gathers() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x3 ^ (case << 16));
        let chain = arb_closed_chain(&mut rng, 20);
        let len = chain.len();
        let cfg = GatherConfig {
            max_merge_k: 3,
            ..GatherConfig::paper()
        };
        let mut sim = Sim::new(chain, ClosedChainGathering::new(cfg));
        let outcome = sim.run(RunLimits::for_chain_len(len));
        assert!(outcome.is_gathered(), "case={case} n={len}: {outcome:?}");
    }
}

/// The engine's merge pass plus strategy hops keep the taut-chain invariant
/// at every round boundary (validated inside step()); this property
/// additionally checks the bounding box never grows.
#[test]
fn bounding_box_never_grows() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xB0CC5 ^ (case << 4));
        let chain = arb_closed_chain(&mut rng, 24);
        let len = chain.len();
        let mut sim = Sim::new(chain, ClosedChainGathering::paper());
        let mut prev = sim.chain().bounding();
        for _ in 0..(8 * len) {
            if sim.is_gathered() {
                break;
            }
            sim.step().unwrap();
            let now = sim.chain().bounding();
            assert!(
                now.min.x >= prev.min.x && now.min.y >= prev.min.y,
                "case={case}"
            );
            assert!(
                now.max.x <= prev.max.x && now.max.y <= prev.max.y,
                "case={case}"
            );
            prev = now;
        }
    }
}
