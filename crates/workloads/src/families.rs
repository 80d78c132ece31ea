//! Deterministic structured families.
//!
//! Each generator writes its chain as runs of step codes from robot 0 —
//! the edge codes [`ClosedChain`] stores — and closes it through
//! [`ClosedChain::from_codes`]; a construction bug is a panic here, never
//! a silently-broken experiment.

use crate::walk::{opposite, Walk, E, N, S, W};
use chain_sim::ClosedChain;
use grid_geom::Point;

/// Axis-aligned rectangle ring of `w × h` grid points (`w, h ≥ 2`);
/// `n = 2(w + h) - 4`. Four quasi lines joined at Fig. 5(ii) corners.
pub fn rectangle(w: i64, h: i64) -> ClosedChain {
    assert!(w >= 2 && h >= 2, "rectangle needs w, h ≥ 2");
    let (w, h) = (w - 1, h - 1);
    let mut walk = Walk::new(Point::new(0, 0), 2 * (w + h) as usize);
    walk.run(E, w).run(N, h).run(W, w).run(S, h);
    walk.close("rectangle")
}

/// Castle-wall band: `teeth` battlements on top and bottom of a band of
/// height `h`. Maximal merge-pattern overlap (the Fig. 3 cases fire
/// constantly).
///
/// Top profile per tooth: right, up, right, down. The band's vertical sides
/// are plain columns.
pub fn crenellated_band(teeth: usize, h: i64) -> ClosedChain {
    assert!(teeth >= 1 && h >= 2);
    let mut walk = Walk::new(Point::new(0, 0), 8 * teeth + 2 * h as usize);
    // The top walks right with its teeth pointing up, the right column
    // goes down, the bottom walks left with its teeth pointing down and
    // the left column climbs back.
    for _ in 0..teeth {
        walk.steps(&[E, N, E, S]);
    }
    walk.run(S, h);
    for _ in 0..teeth {
        walk.steps(&[W, S, W, N]);
    }
    walk.run(N, h);
    walk.close("crenellated band")
}

/// Staircase diamond of radius `r`: four stairways joined at four tips.
/// Almost everywhere merge-free (stairways, Fig. 16); all progress must be
/// seeded at the tips.
pub fn staircase_diamond(r: i64) -> ClosedChain {
    assert!(r >= 1);
    let mut walk = Walk::new(Point::new(0, 0), 8 * r as usize);
    // NE: R U ×r ; NW: L U ×r ; SW: L D ×r ; SE: R D ×r.
    for stair in [[E, N], [W, N], [W, S], [E, S]] {
        for _ in 0..r {
            walk.steps(&stair);
        }
    }
    walk.close("staircase diamond")
}

/// Comb polygon: `teeth` upward teeth of height `tooth_len` on a flat
/// spine. Long parallel corridors — nested quasi lines stress pipelining
/// and run passing.
pub fn comb(teeth: usize, tooth_len: i64) -> ClosedChain {
    assert!(teeth >= 1 && tooth_len >= 2);
    let l = tooth_len;
    let mut walk = Walk::new(Point::new(0, 0), 2 * teeth * (l as usize + 1) + 2);
    // The first tooth rises from the spine (y = 0), the later ones from
    // the corridor floor (y = 1), where the previous gap landed.
    walk.run(N, 1);
    for _ in 0..teeth {
        // Up the left flank, across the top, down the right flank to the
        // corridor floor, across the gap (or to the final descent).
        walk.run(N, l - 1).run(E, 1).run(S, l - 1).run(E, 1);
    }
    // Down to the spine and back along it to the start.
    walk.run(S, 1).run(W, 2 * teeth as i64);
    walk.close("comb")
}

/// Skyline polygon over `heights` (all ≥ 1): bottom edge, right wall, then
/// the stepped profile back to the left wall. Deterministic core of the
/// random skyline family.
pub fn skyline(heights: &[i64]) -> ClosedChain {
    assert!(!heights.is_empty());
    assert!(heights.iter().all(|&h| h >= 1), "heights must be ≥ 1");
    let w = heights.len() as i64;
    let (first, last) = (heights[0], heights[heights.len() - 1]);
    let climbs: i64 = heights.windows(2).map(|p| (p[1] - p[0]).abs()).sum();
    let mut walk = Walk::new(Point::new(0, 0), (2 * w + last + climbs + first) as usize);
    // Bottom, then the right wall up to the last column's roof.
    walk.run(E, w).run(N, last);
    // Profile, right to left: across the roof of column i (cells
    // [i, i + 1]), then up or down to the roof of column i − 1; the left
    // wall is the last descent, to the ground.
    for i in (0..heights.len()).rev() {
        let next = if i == 0 { 0 } else { heights[i - 1] };
        let rise = next - heights[i];
        walk.run(W, 1).run(if rise > 0 { N } else { S }, rise.abs());
    }
    walk.close("skyline")
}

/// Hairpin flower: four zero-area arms of length `arm` radiating from one
/// point. Every arm tip is a k = 1 merge pattern (Fig. 2 bottom); the chain
/// overlaps itself everywhere — the adversarial degenerate case.
pub fn hairpin_flower(arm: i64) -> ClosedChain {
    assert!(arm >= 1);
    let mut walk = Walk::new(Point::new(0, 0), 8 * arm as usize);
    for out in [E, N, W, S] {
        walk.run(out, arm).run(opposite(out), arm);
    }
    walk.close("hairpin flower")
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_sim::invariant;

    #[test]
    fn rectangle_counts() {
        for (w, h) in [(2i64, 2i64), (3, 2), (5, 4), (10, 7)] {
            let c = rectangle(w, h);
            assert_eq!(c.len() as i64, 2 * (w + h) - 4, "{w}x{h}");
            assert!(invariant::is_taut(&c));
            assert_eq!(invariant::signed_turning_quarters(&c).abs(), 4);
        }
    }

    #[test]
    fn crenellated_band_is_valid_and_wavy() {
        for teeth in [1usize, 2, 5, 9] {
            let c = crenellated_band(teeth, 3);
            assert!(invariant::is_taut(&c));
            // Teeth contribute 4 robots each on two sides.
            assert!(c.len() >= 8 * teeth);
        }
    }

    #[test]
    fn staircase_diamond_is_valid() {
        for r in [1i64, 2, 5, 11] {
            let c = staircase_diamond(r);
            assert_eq!(c.len() as i64, 8 * r);
            assert!(invariant::is_taut(&c));
        }
    }

    #[test]
    fn comb_is_valid() {
        for teeth in [1usize, 2, 4, 8] {
            for l in [2i64, 5, 9] {
                let c = comb(teeth, l);
                assert!(invariant::is_taut(&c), "teeth={teeth} l={l}");
            }
        }
    }

    #[test]
    fn skyline_flat_is_rectangle() {
        let c = skyline(&[3, 3, 3, 3]);
        let r = rectangle(5, 4);
        assert_eq!(c.len(), r.len());
    }

    #[test]
    fn skyline_steps() {
        let c = skyline(&[1, 3, 2]);
        assert!(invariant::is_taut(&c));
        // Contains the tallest roof point.
        assert!(c.positions().iter().any(|p| p.y == 3));
    }

    #[test]
    fn hairpin_flower_overlaps_itself() {
        let c = hairpin_flower(3);
        assert_eq!(c.len(), 24);
        assert!(invariant::is_taut(&c));
        // The center appears four times.
        let center_count = c
            .positions()
            .iter()
            .filter(|p| **p == Point::new(0, 0))
            .count();
        assert_eq!(center_count, 4);
    }
}
