//! # baselines
//!
//! The comparison strategies the paper positions its contribution against
//! (Section 1):
//!
//! * [`GlobalVision`] — "a given global vision … would make the gathering
//!   problem easier, because the robots could compute the center of the
//!   globally smallest enclosing square and just move to this point".
//!   Gathers in Θ(diameter) rounds; quantifies what locality costs.
//! * [`CompassSe`] — "the knowledge of a global compass … all robots …
//!   could simply move … to the south-eastern direction and would finally
//!   meet". Adapted to respect chain connectivity.
//! * [`open_chain_zip`] — the open-chain case the paper generalizes
//!   (\[KM09\]-style): "the endpoints are always locally distinguishable and
//!   would simply sequentially hop onto their inner neighbors". Linear
//!   time, trivially — the closed chain's whole difficulty is the absence
//!   of distinguishable endpoints.
//! * [`manhattan_hopper`] — the fixed-endpoint Manhattan Hopper setting of
//!   \[KM09\]: an open chain contracts to a Manhattan-shortest path.
//! * [`NaiveLocal`] — the obvious local rule (move toward the midpoint of
//!   your two chain neighbors). It empirically gathers like a discrete
//!   curve-shortening flow, but its safety needs a *global* cancellation
//!   oracle, which the paper's model forbids — see its module docs.
//!
//! All closed-chain baselines implement [`chain_sim::Strategy`] and run on
//! the same FSYNC engine as the paper's algorithm, including the same
//! connectivity checks; moves that would break the chain are cancelled by
//! a deterministic fixpoint iteration (possible for [`GlobalVision`]
//! because every robot can simulate every other robot's decision, and
//! inadmissible-but-measured for [`NaiveLocal`]).

pub mod compass;
pub mod global_vision;
pub mod hopper;
pub mod kernel;
pub mod naive_local;
pub mod open_zip;

pub use compass::CompassSe;
pub use global_vision::GlobalVision;
pub use hopper::{manhattan_hopper, HopperOutcome};
pub use kernel::{CompassSeKernel, GlobalVisionKernel, NaiveLocalKernel};
pub use naive_local::NaiveLocal;
pub use open_zip::{open_chain_zip, ZipOutcome};

use chain_sim::ClosedChain;
use grid_geom::{Offset, Point, Rect};

/// The south-east key: larger is more south-east. Changes by exactly ±1
/// along every chain edge.
#[inline]
pub const fn se_key(p: Point) -> i64 {
    p.x - p.y
}

/// The compass-se mover rule: is `p` a strict SE-key minimum between its
/// chain neighbors `a` and `b`?
#[inline]
pub fn compass_is_mover(p: Point, a: Point, b: Point) -> bool {
    se_key(a) > se_key(p) && se_key(b) > se_key(p)
}

/// One axis-wise step from `p` toward the midpoint of `a` and `b`
/// (midpoint taken in doubled coordinates to stay in integers) — the
/// shared hop rule of [`CompassSe`] and [`NaiveLocal`].
#[inline]
pub fn midpoint_hop(p: Point, a: Point, b: Point) -> Offset {
    Offset::new(
        (a.x + b.x - 2 * p.x).signum(),
        (a.y + b.y - 2 * p.y).signum(),
    )
}

/// Center of the smallest enclosing square of `bbox` (ties toward min) —
/// the [`GlobalVision`] rendezvous point.
#[inline]
pub fn enclosing_center(bbox: Rect) -> Point {
    Point::new(
        (bbox.min.x + bbox.max.x).div_euclid(2),
        (bbox.min.y + bbox.max.y).div_euclid(2),
    )
}

/// One axis-wise step from `p` toward `center` — the [`GlobalVision`]
/// hop rule.
#[inline]
pub fn center_hop(p: Point, center: Point) -> Offset {
    let d = center - p;
    Offset::new(d.dx.signum(), d.dy.signum())
}

/// Cancel-iteration: given intended hops, repeatedly cancel any hop whose
/// application (against the current surviving set) would break chain
/// adjacency with either neighbor, until a fixpoint. Deterministic, at most
/// `n` sweeps. The all-zero assignment is always safe, so the fixpoint
/// exists.
///
/// This is the engine's chain-safety guard
/// ([`chain_sim::safety::enforce_chain_safety`]); the alias keeps the
/// baselines' call sites on the one canonical fixpoint, which the kernels
/// run on hop codes ([`chain_sim::safety::cancel_breaking_hops`]).
pub(crate) fn cancel_breaking_hops(chain: &ClosedChain, hops: &mut [Offset]) {
    chain_sim::safety::enforce_chain_safety(chain, hops);
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_geom::Point;

    #[test]
    fn cancel_iteration_reaches_safe_fixpoint() {
        let chain = ClosedChain::new(vec![
            Point::new(0, 0),
            Point::new(1, 0),
            Point::new(2, 0),
            Point::new(2, 1),
            Point::new(1, 1),
            Point::new(0, 1),
        ])
        .unwrap();
        // Everyone tries to move right — neighbors moving in lockstep stay
        // adjacent, so all hops survive.
        let mut hops = vec![Offset::RIGHT; 6];
        cancel_breaking_hops(&chain, &mut hops);
        assert!(hops.iter().all(|h| *h == Offset::RIGHT));

        // One robot tries to run away; its hop gets cancelled.
        let mut hops = vec![Offset::ZERO; 6];
        hops[0] = Offset::new(-1, -1);
        cancel_breaking_hops(&chain, &mut hops);
        assert_eq!(hops[0], Offset::ZERO);
    }

    #[test]
    fn cancel_iteration_cascades() {
        // A line of robots all moving up except the last: the wave of
        // cancellations must propagate.
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
        let mut hops = vec![Offset::ZERO; 8];
        // Robots 0..4 try to move left; robot 0's left move is fine only if
        // robot 7 follows, which it doesn't — check the system settles.
        for h in hops.iter_mut().take(4) {
            *h = Offset::new(-1, 0);
        }
        cancel_breaking_hops(&chain, &mut hops);
        // Whatever survived must be applicable without breaking the chain.
        let mut c2 = chain.clone();
        c2.apply_hops(&hops).unwrap();
    }
}
