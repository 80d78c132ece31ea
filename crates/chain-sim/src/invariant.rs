//! Global invariant checks used by tests and auditors.
//!
//! These checks have global knowledge (they are instrumentation, not part
//! of the robot model): tautness and the chain's total turning.

use crate::chain::ClosedChain;

/// All chain edges are unit steps (taut chain between rounds).
pub fn is_taut(chain: &ClosedChain) -> bool {
    (0..chain.len()).all(|i| chain.step(i).is_unit_step())
}

/// Total absolute turning of the closed chain in quarter-turns. For any
/// closed chain on the grid the *signed* turning is ±4 for simple
/// counterclockwise/clockwise loops and any even value for self-crossing
/// loops; it is always even. Used by workload validators.
pub fn signed_turning_quarters(chain: &ClosedChain) -> i64 {
    let n = chain.len();
    let mut total = 0i64;
    for i in 0..n {
        let a = chain.step(i);
        let b = chain.step(chain.nb(i, 1));
        // cross product z-component of the two unit steps:
        // +1 = left turn, -1 = right turn, 0 = straight; u-turns (a == -b)
        // count 0 here and are legal for self-touching chains.
        total += a.dx * b.dy - a.dy * b.dx;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_geom::Point;

    fn chain(coords: &[(i64, i64)]) -> ClosedChain {
        ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn tautness() {
        let c = chain(&[(0, 0), (1, 0), (1, 1), (0, 1)]);
        assert!(is_taut(&c));
    }

    #[test]
    fn turning_of_simple_loop_is_pm4() {
        let ccw = chain(&[(0, 0), (1, 0), (1, 1), (0, 1)]);
        assert_eq!(signed_turning_quarters(&ccw).abs(), 4);
        let rect = chain(&[(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]);
        assert_eq!(signed_turning_quarters(&rect).abs(), 4);
    }
}
