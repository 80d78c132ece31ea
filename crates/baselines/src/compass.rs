//! The global-compass baseline.
//!
//! Section 1: with a shared compass, "all robots without any local
//! neighbors in front of them could simply move for example to the
//! south-eastern direction and would finally meet". For a *chain* the
//! naive reading (translate everything south-east) makes no progress, so
//! the chain-respecting adaptation drains the chain from its north-west
//! side:
//!
//! Order positions by the SE key `x − y` (larger = further south-east; the
//! key changes by exactly ±1 along every chain edge). A robot that is a
//! **strict local minimum** of the key — both neighbors strictly more SE —
//! hops toward the midpoint of its two neighbors. Both neighbors then sit
//! at key +1, i.e. at `p+(1,0)` and/or `p+(0,−1)`:
//!
//! * neighbors on the two different key+1 points → the hop is the diagonal
//!   fold `(1,−1)`, landing adjacent to both (chain-safe by construction);
//! * neighbors on the same point → the hop lands *on* them and the merge
//!   pass shortens the chain.
//!
//! Movers are never adjacent (a mover's neighbors have a less-SE
//! neighbor), so no coordination is needed. Every round strictly increases
//! the bounded key sum, giving an `O(n · diameter)` gathering bound — easy
//! with a compass, as the paper says, but a factor `diameter` worse than
//! the paper's compass-free `O(n)` algorithm (table T7).

use crate::{compass_is_mover, midpoint_hop};
use chain_sim::{ClosedChain, Strategy};
use grid_geom::Offset;

#[derive(Debug, Default, Clone)]
pub struct CompassSe;

impl CompassSe {
    pub fn new() -> Self {
        CompassSe
    }
}

impl Strategy for CompassSe {
    fn name(&self) -> &'static str {
        "compass-se"
    }

    fn init(&mut self, _chain: &ClosedChain) {}

    fn compute(&mut self, chain: &ClosedChain, _round: u64, hops: &mut [Offset]) {
        let pos = chain.positions();
        for (i, hop) in hops.iter_mut().enumerate() {
            let (p, a, b) = (pos[i], pos[chain.nb(i, -1)], pos[chain.nb(i, 1)]);
            if compass_is_mover(p, a, b) {
                // Both neighbors at key+1: hop to their midpoint (diagonal
                // fold or merge hop; adjacency is guaranteed).
                *hop = midpoint_hop(p, a, b);
                debug_assert!(*hop != Offset::ZERO);
            }
        }
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
    fn se_extreme_robot_stands() {
        let chain = rectangle(4, 4);
        let mut s = CompassSe::new();
        s.init(&chain);
        let mut hops = vec![Offset::ZERO; chain.len()];
        s.compute(&chain, 0, &mut hops);
        // The SE-most robot (3,0) has maximal key; it must stand still.
        let idx = (0..chain.len())
            .find(|&i| chain.pos(i) == Point::new(3, 0))
            .unwrap();
        assert_eq!(hops[idx], Offset::ZERO);
        // The NW corner (0,3) is the strict minimum; it must fold SE.
        let nw = (0..chain.len())
            .find(|&i| chain.pos(i) == Point::new(0, 3))
            .unwrap();
        assert_eq!(hops[nw], Offset::new(1, -1));
    }

    #[test]
    fn movers_are_never_adjacent() {
        let chain = rectangle(7, 5);
        let mut s = CompassSe::new();
        s.init(&chain);
        let mut hops = vec![Offset::ZERO; chain.len()];
        s.compute(&chain, 0, &mut hops);
        for i in 0..chain.len() {
            if hops[i] != Offset::ZERO {
                assert_eq!(hops[chain.nb(i, 1)], Offset::ZERO);
                assert_eq!(hops[chain.nb(i, -1)], Offset::ZERO);
            }
        }
    }

    #[test]
    fn gathers_rectangles() {
        for (w, h) in [(4i64, 3i64), (6, 4), (9, 6), (16, 16)] {
            let chain = rectangle(w, h);
            let n = chain.len() as u64;
            let d = (w.max(h)) as u64;
            let mut sim = Sim::new(chain, CompassSe::new());
            let outcome = sim.run(RunLimits {
                max_rounds: 8 * n * d + 1024,
                stall_window: 4 * n * d + 512,
            });
            assert!(
                matches!(outcome, Outcome::Gathered { .. }),
                "{w}x{h}: {outcome:?}"
            );
        }
    }
}
