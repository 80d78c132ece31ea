//! Additional structured families: spirals, serpentines and crosses.
//!
//! All three are boundaries of *cell regions* — cell `(x, y)` is the unit
//! square `[x, x+1] × [y, y+1]` — walked counterclockwise (region on the
//! left) from the region's lowest-leftmost corner: the chain
//! [`crate::polyomino::CellRegion::boundary_chain`] traces, which the tests
//! check, written here straight as step codes.
//!
//! * [`spiral`] — the boundary of a square spiral corridor: a rectangular
//!   double spiral whose chain length vastly exceeds its bounding box,
//!   with long nested quasi lines — heavy pipelining and run-passing
//!   stress (and the classic adversarial case for diameter intuitions).
//! * [`serpentine`] — a boustrophedon band: long horizontal corridors
//!   connected alternately left/right; adjacent corridor walls carry runs
//!   with opposite fold sides (run-passing exercise).
//! * [`cross`] — a plus-shaped polygon: four arms, eight convex and four
//!   concave corners of mixed orientation.

use crate::walk::{opposite, Walk, E, N, S, W};
use chain_sim::ClosedChain;
use grid_geom::Point;

/// Rectangular double spiral: boundary of a width-1 spiral corridor with
/// `turns` inward laps (coils separated by one empty cell).
///
/// The corridor starts at cell (0, 0) and turns left (east, north, west,
/// south, …) after legs of L, L, L−2, L−2, …, 3, 3 cells, where
/// L = 4·turns + 1 keeps the coils one cell apart; consecutive legs share
/// their corner cell. The boundary runs along the outside of every leg,
/// around the inner end, and back along the inside.
pub fn spiral(turns: usize) -> ClosedChain {
    assert!(turns >= 1);
    let legs = 4 * turns;
    let leg = |k: usize| (4 * turns + 1 - 2 * (k / 2)) as i64;
    let dir = |k: usize| [E, N, W, S][k % 4];
    let outside: i64 = (0..legs).map(leg).sum();
    let mut walk = Walk::new(Point::new(0, 0), 2 * outside as usize);
    for k in 0..legs {
        walk.run(dir(k), leg(k));
    }
    // Around the last cell of the last (southward) leg, then back. Inside
    // a turn two legs share a corner cell, so each inner side but the two
    // ends is two cells shorter than its leg.
    walk.run(E, 1);
    for k in (0..legs).rev() {
        let ends = usize::from(k == 0) + usize::from(k == legs - 1);
        walk.run(opposite(dir(k)), leg(k) - 2 + ends as i64);
    }
    walk.run(S, 1);
    walk.close("spiral")
}

/// Boustrophedon band: `rows` horizontal corridors of `len` cells,
/// connected alternately at the right and left ends (corridors separated
/// by one empty row).
///
/// Row `r` lies at y = 2r; the connector above an even row is its last
/// cell, above an odd row its first. The boundary climbs the right-hand
/// side of the band to the top row and comes down the left-hand side.
pub fn serpentine(rows: usize, len: i64) -> ClosedChain {
    assert!(rows >= 1 && len >= 2);
    let top = rows - 1;
    let mut walk = Walk::new(Point::new(0, 0), 2 * rows * (len as usize + 1));
    // Up the right-hand side: each pass starts at the bottom-right
    // corner of even row r.
    walk.run(E, len);
    let mut r = 0;
    loop {
        if r == top {
            walk.run(N, 1).run(W, len);
            break;
        }
        // Up the right end past the connector to the top-right corner of
        // odd row r + 1.
        walk.run(N, 3);
        if r + 1 == top {
            walk.run(W, len);
            break;
        }
        // Over row r + 1, up its connector, along the bottom of row r + 2.
        walk.run(W, len - 1).run(N, 1).run(E, len - 1);
        r += 2;
    }
    // Down the left-hand side: each pass starts at the top-left corner
    // of row r.
    let mut r = top;
    while r > 0 {
        if r % 2 == 1 {
            // The connector below is at the right end.
            walk.run(S, 1);
            r -= 1;
        } else {
            // Down the left end past the connector to odd row r − 1,
            // whose connector below is at the right end.
            walk.run(S, 3);
            r -= 2;
        }
        walk.run(E, len - 1).run(S, 1).run(W, len - 1);
    }
    walk.run(S, 1);
    walk.close("serpentine")
}

/// Plus/cross-shaped polygon with arm length `arm` and arm width `w`: a
/// horizontal bar of `2·arm + w × w` cells from (−arm, 0) and a vertical
/// one of `w × 2·arm + w` cells from (0, −arm).
pub fn cross(arm: i64, w: i64) -> ClosedChain {
    assert!(arm >= 1 && w >= 1);
    let mut walk = Walk::new(Point::new(-arm, 0), (8 * arm + 4 * w) as usize);
    // Each quarter: along an arm, out along the next arm's flank (a
    // clockwise turn), across that arm's end.
    for (along, out) in [(E, S), (N, E), (W, N), (S, W)] {
        walk.run(along, arm).run(out, arm).run(along, w);
    }
    walk.close("cross")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polyomino::CellRegion;
    use chain_sim::invariant;

    /// The cell-region definition of each family, traced by
    /// [`CellRegion::boundary_chain`]: the walks above must equal it.
    fn spiral_region(turns: usize) -> CellRegion {
        let mut region = CellRegion::new();
        let (mut x, mut y) = (0i64, 0i64);
        region.insert(x, y);
        let dirs = [(1i64, 0i64), (0, 1), (-1, 0), (0, -1)];
        let mut side = 4 * turns as i64 + 1;
        let mut d = 0usize;
        while side > 0 {
            for _ in 0..side - 1 {
                x += dirs[d % 4].0;
                y += dirs[d % 4].1;
                region.insert(x, y);
            }
            d += 1;
            if d.is_multiple_of(2) {
                side -= 2;
            }
        }
        region
    }

    fn serpentine_region(rows: usize, len: i64) -> CellRegion {
        let mut region = CellRegion::new();
        for r in 0..rows as i64 {
            region.insert_rect(0, 2 * r, len, 1);
            if r + 1 < rows as i64 {
                region.insert(if r % 2 == 0 { len - 1 } else { 0 }, 2 * r + 1);
            }
        }
        region
    }

    fn cross_region(arm: i64, w: i64) -> CellRegion {
        let mut region = CellRegion::new();
        region.insert_rect(-arm, 0, 2 * arm + w, w);
        region.insert_rect(0, -arm, w, 2 * arm + w);
        region
    }

    #[test]
    fn walks_equal_traced_cell_regions() {
        for turns in 1..=12 {
            assert!(
                spiral(turns) == spiral_region(turns).boundary_chain(),
                "turns={turns}"
            );
        }
        for rows in 1..=9 {
            for len in 2..=7 {
                assert!(
                    serpentine(rows, len) == serpentine_region(rows, len).boundary_chain(),
                    "rows={rows} len={len}"
                );
            }
        }
        for arm in 1..=6 {
            for w in 1..=5 {
                assert!(
                    cross(arm, w) == cross_region(arm, w).boundary_chain(),
                    "arm={arm} w={w}"
                );
            }
        }
    }

    #[test]
    fn spiral_is_valid_and_long() {
        for turns in [1usize, 2, 3, 5] {
            let c = spiral(turns);
            assert!(invariant::is_taut(&c), "turns={turns}");
            // Chain length grows quadratically with turns while the box
            // stays ~8·turns: length ≫ box for larger turns.
            assert!(
                c.len() as i64 > 12 * turns as i64,
                "turns={turns}: {}",
                c.len()
            );
        }
    }

    #[test]
    fn spiral_is_simple_polygon() {
        let c = spiral(3);
        assert_eq!(invariant::signed_turning_quarters(&c).abs(), 4);
        let mut pos: Vec<_> = c.positions().to_vec();
        pos.sort_unstable();
        pos.dedup();
        assert_eq!(pos.len(), c.len(), "simple polygon: no repeated vertices");
    }

    #[test]
    fn spiral_length_exceeds_diameter() {
        let c = spiral(5);
        let diam = c.bounding().diameter();
        assert!(c.len() as i64 > 3 * diam, "len {} vs diam {diam}", c.len());
    }

    #[test]
    fn serpentine_is_valid() {
        for (rows, len) in [(1usize, 6i64), (2, 8), (3, 10), (6, 20)] {
            let c = serpentine(rows, len);
            assert!(invariant::is_taut(&c), "rows={rows} len={len}");
            assert_eq!(invariant::signed_turning_quarters(&c).abs(), 4);
        }
    }

    #[test]
    fn cross_is_valid() {
        for (arm, w) in [(1i64, 1i64), (2, 2), (5, 2), (6, 4), (10, 3)] {
            let c = cross(arm, w);
            assert!(invariant::is_taut(&c), "arm={arm} w={w}");
            assert_eq!(invariant::signed_turning_quarters(&c).abs(), 4);
        }
    }

    #[test]
    fn cross_perimeter_formula() {
        // Cross with arm a, width w: perimeter = 4w + 8a vertices.
        for (a, w) in [(2i64, 2i64), (3, 1), (4, 3)] {
            let c = cross(a, w);
            assert_eq!(c.len() as i64, 4 * w + 8 * a, "arm={a} w={w}");
        }
    }
}
