//! The global-vision baseline.
//!
//! Section 1 of the paper: with global vision "the robots could compute the
//! center of the globally smallest enclosing square and just move to this
//! point". Every robot hops one step (per axis) toward the center of the
//! bounding box; hops that would break the chain are cancelled by the
//! deterministic fixpoint iteration (legitimate under global vision: every
//! robot can simulate all others).
//!
//! Expected behavior (table T7): gathers in Θ(diameter) rounds — much
//! faster than any local strategy on thin configurations, which is exactly
//! the paper's point about what locality costs.

use crate::{cancel_breaking_hops, center_hop, enclosing_center};
use chain_sim::{ClosedChain, Strategy};
use grid_geom::Offset;

#[derive(Debug, Default, Clone)]
pub struct GlobalVision;

impl GlobalVision {
    pub fn new() -> Self {
        GlobalVision
    }
}

impl Strategy for GlobalVision {
    fn name(&self) -> &'static str {
        "global-vision"
    }

    fn init(&mut self, _chain: &ClosedChain) {}

    fn compute(&mut self, chain: &ClosedChain, _round: u64, hops: &mut [Offset]) {
        // Center of the smallest enclosing square (ties toward min — every
        // robot computes the same point from the same global view).
        let center = enclosing_center(chain.bounding());
        for (hop, &p) in hops.iter_mut().zip(chain.positions()) {
            *hop = center_hop(p, center);
        }
        cancel_breaking_hops(chain, hops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_sim::{Outcome, RunLimits, Sim};
    use grid_geom::Point;

    fn rectangle(w: i64, h: i64) -> ClosedChain {
        let mut pts = vec![Point::new(0, 0)];
        pts.extend((1..w).map(|x| Point::new(x, 0)));
        pts.extend((1..h).map(|y| Point::new(w - 1, y)));
        pts.extend((1..w).map(|x| Point::new(w - 1 - x, h - 1)));
        pts.extend((1..h - 1).map(|y| Point::new(0, h - 1 - y)));
        ClosedChain::new(pts).unwrap()
    }

    #[test]
    fn gathers_rectangles_in_diameter_rounds() {
        for (w, h) in [(6i64, 4i64), (12, 8), (30, 20), (40, 3)] {
            let chain = rectangle(w, h);
            let diameter = w.max(h) as u64;
            let mut sim = Sim::new(chain, GlobalVision::new());
            let outcome = sim.run(RunLimits {
                max_rounds: 4 * diameter + 64,
                stall_window: 2 * diameter + 32,
            });
            match outcome {
                Outcome::Gathered { rounds } => {
                    assert!(
                        rounds <= diameter + 2,
                        "{w}x{h}: {rounds} rounds > diameter {diameter}"
                    );
                }
                other => panic!("{w}x{h}: {other:?}"),
            }
        }
    }

    #[test]
    fn center_robots_do_not_move() {
        let chain = rectangle(5, 5);
        let mut strat = GlobalVision::new();
        strat.init(&chain);
        let mut hops = vec![Offset::ZERO; chain.len()];
        strat.compute(&chain, 0, &mut hops);
        // The bounding box is [0,4]²; center (2,2). Robots on row/column 2
        // only move along the other axis.
        for (i, hop) in hops.iter().enumerate() {
            let p = chain.pos(i);
            if p.x == 2 {
                assert_eq!(hop.dx, 0);
            }
            if p.y == 2 {
                assert_eq!(hop.dy, 0);
            }
        }
    }
}
