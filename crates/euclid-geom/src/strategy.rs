//! Euclidean chain strategies: the fold/reflect rule behind the
//! `euclid-chain` strategy kind.

use geom_core::ChainGeometry;

use crate::chain::EuclidChain;
use crate::vec2::{EuclidSpace, Vec2};

/// A strategy for Euclidean closed chains, driven by
/// [`EuclidSim`](crate::EuclidSim). `compute` receives the round's
/// configuration and a
/// `targets` slice pre-filled with every robot's current position; a
/// robot moves by overwriting its entry (targets, not displacements — see
/// [`EuclidChain::apply_moves`]).
pub trait EuclidStrategy {
    /// Stable strategy name (the scenario registry key).
    fn name(&self) -> &'static str;

    /// Compute the round's moves from the common snapshot.
    fn compute(&mut self, chain: &EuclidChain, round: u64, targets: &mut [Vec2]);
}

/// The `euclid-chain` gathering strategy, modeled on the linear-time
/// Euclidean closed-chain algorithm (arXiv 2010.04424): full-speed
/// global contraction interleaved with the paper's local chain moves.
/// Rounds alternate between two phases:
///
/// * **Contract rounds** (even): every robot steps distance
///   `min(1, ·)` straight toward the chain's current bounding-box
///   center, robots within unit distance landing *exactly* on it (a
///   bit-for-bit coordinate copy, so arrivals coincide and merge).
///   Radial retraction toward a common point is nonexpansive — no
///   pairwise distance ever grows — so every chain edge survives with
///   all robots moving simultaneously at full speed. This is what makes
///   the strategy linear-time: movement per round is Θ(1) regardless of
///   local curvature, and the whole chain reaches the center within a
///   diameter's worth of contract rounds. (Local-only rules — midpoint
///   averaging, chord reflections — move smooth regions only
///   O(curvature) per round and measure quadratic.)
/// * **Local rounds** (odd): one parity class of the chain acts
///   (alternating classes, so every mover's neighbors are static). An
///   active robot **folds** onto its key-smaller neighbor when its two
///   neighbors are within unit distance of each other — an exact
///   coordinate copy, merging next round — the continuous form of the
///   paper's merge patterns; otherwise it **reflects** across the chord
///   through its neighbors (the continuous hop, preserving both
///   incident edge lengths exactly), falling back to the chord
///   **midpoint** whenever reflection would not bring it closer to the
///   bounding-box center, and unconditionally on every fourth
///   activation of its class (the deterministic symmetry breaker: pure
///   reflections can 2-cycle on symmetric configurations such as
///   rhombi).
///
/// Every local-round target stays within unit distance of both static
/// neighbors and every contract round is nonexpansive, so the chain
/// never breaks under FSYNC; movement per round is bounded by the chord
/// diameter 2 (the same budget as the grid hop's mirrored corner step).
#[derive(Clone, Copy, Debug, Default)]
pub struct FoldReflect;

impl FoldReflect {
    /// How often an active class is forced onto chord midpoints: every
    /// `MIDPOINT_BEAT`-th activation of the class.
    const MIDPOINT_BEAT: u64 = 4;

    /// The current bounding-box center — the common contraction target.
    fn center(chain: &EuclidChain) -> Vec2 {
        let (w, h) = chain.extent();
        let first = chain.pos(0);
        let (mut min_x, mut min_y) = (first.x, first.y);
        for p in chain.positions() {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
        }
        Vec2::new(min_x + w * 0.5, min_y + h * 0.5)
    }

    /// Contract round: everyone retracts radially toward `center` at
    /// unit speed, clamping exactly onto it.
    fn contract(chain: &EuclidChain, targets: &mut [Vec2]) {
        let center = Self::center(chain);
        for (i, t) in targets.iter_mut().enumerate() {
            let p = chain.pos(i);
            let d = p.dist(center);
            *t = if d <= 1.0 {
                center
            } else {
                p + (center - p) * (1.0 / d)
            };
        }
    }

    /// Local round: parity-class folds, reflections, midpoints.
    fn local_moves(chain: &EuclidChain, beat: u64, targets: &mut [Vec2]) {
        let n = chain.len();
        let parity = (beat % 2) as usize;
        // Every MIDPOINT_BEAT-th activation of a class is a forced
        // midpoint round.
        let force_midpoint = (beat / 2) % Self::MIDPOINT_BEAT == Self::MIDPOINT_BEAT - 1;
        let center = Self::center(chain);
        let mut i = parity;
        while i < n {
            // On odd n the last even index wraps adjacent to index 0 —
            // both would be active; leave the wrap robot static.
            if !(parity == 0 && n % 2 == 1 && i == n - 1) {
                let p = chain.pos(i);
                let l = chain.pos(chain.prev(i));
                let r = chain.pos(chain.next(i));
                targets[i] = if EuclidSpace::edge_viable(l, r) {
                    // Fold: land exactly on the key-smaller neighbor; the
                    // other edge becomes the ≤-1 chord between them.
                    if l.key() <= r.key() {
                        l
                    } else {
                        r
                    }
                } else {
                    let mid = (l + r) * 0.5;
                    if force_midpoint {
                        mid
                    } else {
                        let refl = p.reflect_across(l, r);
                        if (refl - center).norm_le(mid - center) {
                            refl
                        } else {
                            mid
                        }
                    }
                };
            }
            i += 2;
        }
    }
}

impl EuclidStrategy for FoldReflect {
    fn name(&self) -> &'static str {
        "euclid-chain"
    }

    fn compute(&mut self, chain: &EuclidChain, round: u64, targets: &mut [Vec2]) {
        let n = chain.len();
        if n < 3 {
            // n = 2 is already gathered (edge ≤ 1 bounds the box); the
            // engine terminates before asking for moves.
            return;
        }
        if round.is_multiple_of(2) {
            Self::contract(chain, targets);
        } else {
            Self::local_moves(chain, round / 2, targets);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::EDGE_EPS;

    fn targets_for(chain: &EuclidChain, round: u64) -> Vec<Vec2> {
        let mut targets = chain.positions().to_vec();
        FoldReflect.compute(chain, round, &mut targets);
        targets
    }

    /// Safety invariant of every computed move: each mover's neighbors are
    /// static this round, and the mover stays within unit distance of both
    /// while respecting the hop budget.
    fn assert_moves_safe(chain: &EuclidChain, targets: &[Vec2]) {
        let n = chain.len();
        for i in 0..n {
            let t = targets[i];
            if t == chain.pos(i) {
                continue; // static this round
            }
            let (lp, rn) = (chain.prev(i), chain.next(i));
            assert_eq!(targets[lp], chain.pos(lp), "mover {i}'s neighbor moved");
            assert_eq!(targets[rn], chain.pos(rn), "mover {i}'s neighbor moved");
            assert!(
                t.dist(chain.pos(lp)) <= 1.0 + 2.0 * EDGE_EPS,
                "mover {i} strays from predecessor"
            );
            assert!(
                t.dist(chain.pos(rn)) <= 1.0 + 2.0 * EDGE_EPS,
                "mover {i} strays from successor"
            );
            assert!(
                (t - chain.pos(i)).length() <= 2.0 + EDGE_EPS,
                "mover {i} exceeds the hop budget"
            );
        }
    }

    /// Contract rounds (even) are nonexpansive: every robot steps toward
    /// the bounding-box center, edges never grow, and robots within unit
    /// distance land exactly on the common target.
    #[test]
    fn contract_round_is_nonexpansive() {
        let pts: Vec<Vec2> = (0..12)
            .map(|k| {
                let a = std::f64::consts::TAU / 12.0 * k as f64;
                Vec2::new(4.0 * a.cos(), 4.0 * a.sin())
            })
            .collect();
        let chain = EuclidChain::new(
            // Scale back so edges are ≤ 1: a 12-gon of radius ~1.93.
            pts.iter()
                .map(|p| *p * (0.5 / (std::f64::consts::PI / 12.0).sin() / 4.0))
                .collect(),
        )
        .unwrap();
        let targets = targets_for(&chain, 0);
        let n = chain.len();
        for i in 0..n {
            let j = chain.next(i);
            assert!(
                targets[i].dist(targets[j]) <= chain.pos(i).dist(chain.pos(j)) + EDGE_EPS,
                "edge ({i},{j}) expanded under contraction"
            );
            assert!(
                (targets[i] - chain.pos(i)).length() <= 1.0 + EDGE_EPS,
                "contract step exceeds unit speed"
            );
        }
        // The 12-gon has radius < 2, so after one contract round every
        // robot is within unit distance of the center; a second contract
        // round clamps them all onto it exactly.
        let mut sim_chain = chain;
        sim_chain.apply_moves(&targets).unwrap();
        let targets2 = targets_for(&sim_chain, 2);
        assert!(
            targets2.windows(2).all(|w| w[0] == w[1]),
            "clamped robots must coincide bit-for-bit"
        );
    }

    /// A hexagon ring with unit edges: nobody is foldable at first, so on
    /// a local round the active class reflects inward (toward the center).
    #[test]
    fn hexagon_reflects_inward() {
        let pts: Vec<Vec2> = (0..6)
            .map(|k| {
                let a = std::f64::consts::FRAC_PI_3 * k as f64;
                Vec2::new(a.cos(), a.sin())
            })
            .collect();
        let chain = EuclidChain::new(pts).unwrap();
        let targets = targets_for(&chain, 1);
        assert_moves_safe(&chain, &targets);
        let center = Vec2::ZERO;
        for i in (0..6).step_by(2) {
            assert!(
                targets[i].dist(center) < chain.pos(i).dist(center) - 1e-9,
                "active robot {i} did not contract"
            );
        }
        // Inactive parity stays put.
        for i in (1..6).step_by(2) {
            assert_eq!(targets[i], chain.pos(i));
        }
    }

    /// A folded-flat chain: the tip robot's neighbors coincide, so it
    /// folds exactly onto them.
    #[test]
    fn flat_tip_folds_exactly() {
        let chain = EuclidChain::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(2.0, 0.0), // tip: neighbors both at (1, 0)... after wrap
            Vec2::new(1.0, 0.0),
        ])
        .unwrap();
        // Robot 2's neighbors are 1 and 3, both exactly at (1, 0).
        let targets = targets_for(&chain, 1);
        assert_eq!(targets[2], Vec2::new(1.0, 0.0));
        // Exactness: bitwise equality, not closeness.
        assert!(targets[2] == chain.pos(1));
    }

    /// The wrap guard: with odd n, the last even index stays static on
    /// even-parity rounds (it is cyclically adjacent to active robot 0).
    #[test]
    fn odd_length_wrap_robot_is_static() {
        // Unit-edge pentagon: radius 1 / (2 sin(π/5)).
        let r = 0.5 / (std::f64::consts::PI / 5.0).sin();
        let pts: Vec<Vec2> = (0..5)
            .map(|k| {
                let a = std::f64::consts::TAU / 5.0 * k as f64;
                Vec2::new(r * a.cos(), r * a.sin())
            })
            .collect();
        let chain = EuclidChain::new(pts).unwrap();
        let targets = targets_for(&chain, 1);
        assert_eq!(targets[4], chain.pos(4), "wrap robot must not move");
        assert_moves_safe(&chain, &targets);
    }
}
