//! # grid-geom
//!
//! Integer grid geometry substrate for the closed-chain gathering system.
//!
//! The paper ("Gathering a Closed Chain of Robots on a Grid", Abshoff et al.,
//! IPDPS 2016) places point-shaped robots on the two-dimensional integer grid
//! Z². Every local rule of the algorithm — merge patterns, quasi lines, run
//! operations — is ultimately a predicate over small sets of grid points and
//! the unit steps between them. This crate provides those primitives:
//!
//! * [`Point`] — a position on Z².
//! * [`Offset`] — a displacement between positions (also used for hops).
//! * [`Axis`] — the two grid axes (which axis a unit step lies on).
//! * [`Rect`] — axis-aligned bounding boxes (used for the 2×2 gathering
//!   criterion).
//! * [`GridSpace`] — the grid as a `geom_core::ChainGeometry` backend:
//!   zero-cost inline delegation to the primitives above, making Z² one
//!   value of the system's geometry axis (the other is `euclid-geom`).
//!
//! Everything here is `no_std`-shaped plain data whose only dependency is
//! the `geom-core` trait crate (itself dependency-free).

pub mod dir;
pub mod point;
pub mod rect;
pub mod space;

pub use dir::Axis;
pub use point::{Offset, Point};
pub use rect::Rect;
pub use space::GridSpace;

/// The Chebyshev (L∞) distance between two points; a robot hop moves at most
/// one in each coordinate, i.e. Chebyshev distance ≤ 1.
#[inline]
pub fn chebyshev(a: Point, b: Point) -> i64 {
    (a.x - b.x).abs().max((a.y - b.y).abs())
}

/// The Manhattan (L1) distance between two points; chain neighbors must stay
/// at Manhattan distance ≤ 1 (same or 4-adjacent grid point).
#[inline]
pub fn manhattan(a: Point, b: Point) -> i64 {
    (a.x - b.x).abs() + (a.y - b.y).abs()
}

/// `true` if `a` and `b` occupy the same or 4-adjacent grid points — the
/// chain-connectivity relation of the paper's model.
#[inline]
pub fn chain_adjacent(a: Point, b: Point) -> bool {
    manhattan(a, b) <= 1
}

/// Shared deterministic mini-RNG for this crate's seeded property tests
/// (the crate is dependency-free, so each test module would otherwise
/// hand-roll its own copy).
#[cfg(test)]
pub(crate) struct TestRng(u64);

#[cfg(test)]
impl TestRng {
    pub(crate) fn new(seed: u64) -> Self {
        TestRng(seed | 1)
    }

    /// xorshift64: plenty for test-case shuffling.
    pub(crate) fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chebyshev_and_manhattan_basics() {
        let o = Point::new(0, 0);
        assert_eq!(chebyshev(o, Point::new(3, -4)), 4);
        assert_eq!(manhattan(o, Point::new(3, -4)), 7);
        assert_eq!(chebyshev(o, o), 0);
        assert_eq!(manhattan(o, o), 0);
    }

    #[test]
    fn chain_adjacency_is_same_or_4_adjacent() {
        let p = Point::new(5, 5);
        assert!(chain_adjacent(p, p));
        assert!(chain_adjacent(p, Point::new(6, 5)));
        assert!(chain_adjacent(p, Point::new(4, 5)));
        assert!(chain_adjacent(p, Point::new(5, 6)));
        assert!(chain_adjacent(p, Point::new(5, 4)));
        // Diagonal neighbors are NOT chain adjacent in this model.
        assert!(!chain_adjacent(p, Point::new(6, 6)));
        assert!(!chain_adjacent(p, Point::new(4, 4)));
        assert!(!chain_adjacent(p, Point::new(7, 5)));
    }
}
