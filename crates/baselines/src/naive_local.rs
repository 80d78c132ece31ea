//! The naive smoothing baseline.
//!
//! "Move toward the midpoint of your two chain neighbors" is the obvious
//! local rule; with merges it acts like a discrete curve-shortening flow
//! and empirically gathers the structured families in Θ(diameter) rounds.
//!
//! It is **not admissible in the paper's model**, though: simultaneous
//! midpoint hops can break the chain (two neighbors jumping in opposite
//! directions), and the only general fix — the global cancel-iteration of
//! `cancel_breaking_hops` — makes a robot's decision depend on
//! unboundedly long cancellation cascades, i.e. on *global* coordination.
//! The paper's algorithm needs no such oracle: every hop it performs is
//! chain-safe from purely local evidence. This baseline is measured for
//! reference (table T7) and documented as model-inadmissible.

use crate::{cancel_breaking_hops, midpoint_hop};
use chain_sim::{ClosedChain, Strategy};
use grid_geom::Offset;

#[derive(Debug, Default, Clone)]
pub struct NaiveLocal;

impl NaiveLocal {
    pub fn new() -> Self {
        NaiveLocal
    }
}

impl Strategy for NaiveLocal {
    fn name(&self) -> &'static str {
        "naive-local"
    }

    fn init(&mut self, _chain: &ClosedChain) {}

    fn compute(&mut self, chain: &ClosedChain, _round: u64, hops: &mut [Offset]) {
        let pos = chain.positions();
        for (i, hop) in hops.iter_mut().enumerate() {
            let (p, a, b) = (pos[i], pos[chain.nb(i, -1)], pos[chain.nb(i, 1)]);
            *hop = midpoint_hop(p, a, b);
        }
        // Global safety oracle — inadmissible in the paper's local model;
        // see the module docs.
        cancel_breaking_hops(chain, hops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_sim::{Outcome, RunLimits, Sim};
    use grid_geom::Point;

    fn ring_3x3() -> ClosedChain {
        ClosedChain::new(vec![
            Point::new(0, 0),
            Point::new(1, 0),
            Point::new(2, 0),
            Point::new(2, 1),
            Point::new(2, 2),
            Point::new(1, 2),
            Point::new(0, 2),
            Point::new(0, 1),
        ])
        .unwrap()
    }

    #[test]
    fn smoothing_contracts_rings() {
        // Corner robots fold inward (curve shortening); the ring gathers.
        let mut sim = Sim::new(ring_3x3(), NaiveLocal::new());
        let outcome = sim.run(RunLimits {
            max_rounds: 1000,
            stall_window: 200,
        });
        assert!(matches!(outcome, Outcome::Gathered { .. }), "{outcome:?}");
    }

    #[test]
    fn straight_run_interior_robots_stand() {
        let chain = ClosedChain::new(vec![
            Point::new(0, 0),
            Point::new(1, 0),
            Point::new(2, 0),
            Point::new(3, 0),
            Point::new(3, 1),
            Point::new(2, 1),
            Point::new(1, 1),
            Point::new(0, 1),
        ])
        .unwrap();
        let mut s = NaiveLocal::new();
        s.init(&chain);
        let mut hops = vec![Offset::ZERO; chain.len()];
        s.compute(&chain, 0, &mut hops);
        // Robots strictly inside the straight rows have their midpoint at
        // their own position: they stand (before cancellation).
        for (i, hop) in hops.iter().enumerate() {
            let p = chain.pos(i);
            if p.x == 1 || p.x == 2 {
                assert_eq!(*hop, Offset::ZERO, "robot {i} at {p}");
            }
        }
    }

    #[test]
    fn surviving_hops_are_applicable() {
        let chain = ring_3x3();
        let mut s = NaiveLocal::new();
        s.init(&chain);
        let mut hops = vec![Offset::ZERO; chain.len()];
        s.compute(&chain, 0, &mut hops);
        let mut c = chain.clone();
        c.apply_hops(&hops).unwrap();
    }
}
