//! Local views of the chain.
//!
//! Robots see only the subchain of their next `V` neighbors in both chain
//! directions ("viewing path length", `V = 11` in the paper), as *relative
//! positions*. [`Ring`] is a cyclic accessor centered on an observing
//! robot, bounded to the viewing range, over the chain's positions (decoded
//! once after each mutation). The paper strategy reads the same
//! neighborhood as edge codes, without positions; the observers, the local
//! pattern detector and the tests that check it read through `Ring`.

use crate::chain::ClosedChain;
use grid_geom::{Offset, Point};

/// Cyclic, relative accessor to the chain, centered at robot `center`.
///
/// `at(d)` returns the position of the chain neighbor `d` steps away
/// (positive = successor direction, negative = predecessor direction)
/// relative to the observer's own position — the only geometry the paper's
/// robots can perceive.
#[derive(Clone, Copy)]
pub struct Ring<'a> {
    chain: &'a ClosedChain,
    center: usize,
    /// Maximum |d| this view may access (viewing path length). Accesses
    /// beyond the horizon panic in debug builds: locality violations are
    /// bugs, not policies.
    horizon: isize,
}

impl<'a> Ring<'a> {
    /// A view with limited horizon (the algorithm's constant-size view).
    pub fn with_horizon(chain: &'a ClosedChain, center: usize, horizon: usize) -> Self {
        Ring {
            chain,
            center,
            horizon: horizon as isize,
        }
    }

    /// An unbounded view (engine-side instrumentation only).
    pub fn unbounded(chain: &'a ClosedChain, center: usize) -> Self {
        Ring {
            chain,
            center,
            horizon: isize::MAX,
        }
    }

    /// The observing robot's chain index (engine-side bookkeeping).
    #[inline]
    pub fn center(&self) -> usize {
        self.center
    }

    /// Number of robots on the whole chain. The paper's robots do not know
    /// `n`; the strategy uses this only to clamp scans on tiny chains where
    /// the viewing range wraps around the whole chain (`n ≤ 2V`), which is
    /// information a robot *can* derive from its view (it sees the same
    /// robot in both directions).
    #[inline]
    pub fn chain_len(&self) -> usize {
        self.chain.len()
    }

    /// Chain index of the robot `d` steps away (engine-side bookkeeping).
    #[inline]
    pub fn index(&self, d: isize) -> usize {
        debug_assert!(
            d.abs() <= self.horizon,
            "view horizon exceeded: |{d}| > {}",
            self.horizon
        );
        self.chain.nb(self.center, d)
    }

    /// Position of the robot `d` steps away, relative to the observer.
    #[inline]
    pub fn rel(&self, d: isize) -> Offset {
        self.abs(d) - self.abs(0)
    }

    /// Absolute position of the robot `d` steps away. The *observer* has no
    /// global coordinates; strategies must only use differences of these
    /// (equivariance under translation is enforced by symmetry tests).
    #[inline]
    pub fn abs(&self, d: isize) -> Point {
        self.chain.pos(self.index(d))
    }

    /// The chain step from neighbor `d` to neighbor `d+1`.
    #[inline]
    pub fn step(&self, d: isize) -> Offset {
        self.abs(d + 1) - self.abs(d)
    }

    /// The chain step from neighbor `d` to neighbor `d + dir` for
    /// `dir = ±1`: the "forward step" in a chain direction.
    #[inline]
    pub fn step_dir(&self, d: isize, dir: isize) -> Offset {
        debug_assert!(dir == 1 || dir == -1);
        self.abs(d + dir) - self.abs(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_geom::Point;

    fn chain(coords: &[(i64, i64)]) -> ClosedChain {
        ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn relative_positions() {
        let c = chain(&[(0, 0), (1, 0), (1, 1), (0, 1)]);
        let v = Ring::with_horizon(&c, 0, 3);
        assert_eq!(v.rel(0), Offset::ZERO);
        assert_eq!(v.rel(1), Offset::new(1, 0));
        assert_eq!(v.rel(2), Offset::new(1, 1));
        assert_eq!(v.rel(-1), Offset::new(0, 1));
        assert_eq!(v.step(0), Offset::new(1, 0));
        assert_eq!(v.step_dir(0, -1), Offset::new(0, 1));
    }

    #[test]
    fn wrapping() {
        let c = chain(&[(0, 0), (1, 0), (1, 1), (0, 1)]);
        let v = Ring::with_horizon(&c, 3, 4);
        assert_eq!(v.index(1), 0);
        assert_eq!(v.index(-4), 3);
        assert_eq!(v.rel(4), Offset::ZERO); // all the way around
    }

    #[test]
    #[should_panic(expected = "view horizon exceeded")]
    #[cfg(debug_assertions)]
    fn horizon_is_enforced() {
        let c = chain(&[(0, 0), (1, 0), (1, 1), (0, 1)]);
        let v = Ring::with_horizon(&c, 0, 2);
        let _ = v.rel(3);
    }
}
