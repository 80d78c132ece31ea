//! Quasi lines (Definition 1) and local structure scans.
//!
//! A *horizontal quasi line* is a subchain whose maximal horizontal runs
//! have ≥ 3 robots, whose maximal vertical runs have ≤ 2 robots, and whose
//! first/last three robots are horizontally aligned (the vertical case is
//! symmetric). Runs (the moving states of Section 3.2/4.1) live on quasi
//! lines; new runs start at quasi-line *endpoints* (Fig. 5), and a run
//! terminates when it sees the endpoint of its quasi line ahead (Table 1.2).
//!
//! This module implements the two local predicates, both strictly bounded
//! by the observer's viewing range:
//!
//! * [`run_start`] — the Figure 5 shapes (i)/(ii): is this robot a
//!   quasi-line endpoint that must start a run in a given chain direction?
//! * [`quasi_break_ahead`] — does the quasi line structurally end within
//!   view ahead of a runner?
//!
//! Both read the chain steps around the robot from the chain's edge codes
//! (`chain_sim::packed`): two steps are equal when their codes are,
//! opposite when the codes differ in bit 1 only (`a == b ^ 2`), and
//! perpendicular when they differ in bit 0 (`(a ^ b) & 1 == 1`).
//!
//! All predicates use the *monotone* run notion (equal consecutive unit
//! steps); see DESIGN.md §3.2 for why fold-backs count as breaks.

use crate::signature::{window_key, WINDOWS};
use chain_sim::packed::edge_offset;
use grid_geom::Offset;

/// Which Figure 5 shape triggered a run start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartShape {
    /// Fig. 5(i): quasi-line endpoint bordered by a stairway (or fold) —
    /// one run starts, moving into the line.
    StairwayEnd,
    /// Fig. 5(ii): simultaneous endpoint of a horizontal and a vertical
    /// line — evaluated per direction; the robot starts two runs overall.
    CornerEnd,
}

/// The code of the chain step from neighbour `j·dir` to neighbour
/// `(j + 1)·dir` of robot `i` (`dir = ±1`), on a chain with edge codes
/// `codes`: edge `i + j` going forward, edge `i − j − 1` turned around
/// going backward.
#[inline]
pub(crate) fn step_code(codes: &[u8], i: usize, j: isize, dir: isize) -> u8 {
    let n = codes.len() as isize;
    let at = |k: isize| {
        if (0..n).contains(&k) {
            k as usize
        } else {
            k.rem_euclid(n) as usize
        }
    };
    if dir > 0 {
        codes[at(i as isize + j)]
    } else {
        codes[at(i as isize - j - 1)] ^ 0b10
    }
}

/// Decide whether robot `i` of a chain with edge codes `codes` starts a
/// run in chain direction `dir` (±1), per the Figure 5 shapes. Returns the
/// shape and the run's *fold side*: the perpendicular unit offset towards
/// the robot's outer neighbor, which is the side the run will reshape
/// towards and the side whose agreement defines good pairs (Fig. 12).
///
/// The decision reads 3 robots ahead and 3 behind — comfortably within the
/// viewing path length: the six edges of the robot's signature window
/// (`signature::window_key`), so it is one lookup in a table the compiler
/// builds with `window_start`.
pub fn run_start(codes: &[u8], i: usize, dir: isize) -> Option<(StartShape, Offset)> {
    if codes.len() < 8 {
        // Tiny chains are handled entirely by merge patterns; the shape
        // windows would wrap onto themselves.
        return None;
    }
    window_run_start(window_key(codes, i), dir)
}

/// [`run_start`] for the robot whose window key (`signature::window_key`)
/// is `key`, on a chain of eight or more robots.
#[inline]
pub(crate) fn window_run_start(key: usize, dir: isize) -> Option<(StartShape, Offset)> {
    let entry = WINDOW_STARTS[key] >> if dir > 0 { 0 } else { 4 };
    if entry & START != 0 {
        let shape = if entry & CORNER != 0 {
            StartShape::CornerEnd
        } else {
            StartShape::StairwayEnd
        };
        Some((shape, edge_offset(entry & 3)))
    } else {
        None
    }
}

/// `true` if the robot with window key `key` starts a run in either
/// direction (on a chain of eight or more robots).
#[inline]
pub(crate) fn starts_any(key: usize) -> bool {
    WINDOW_STARTS[key] != 0
}

/// [`WINDOW_STARTS`] entry bits (one nibble per direction): a start, of
/// the Fig. 5(ii) shape, with its fold side's code in the low two bits.
const START: u8 = 0b1000;
const CORNER: u8 = 0b0100;

/// The starts of every window: the low nibble for direction +1, the high
/// one for −1.
static WINDOW_STARTS: [u8; WINDOWS] = {
    let mut t = [0u8; WINDOWS];
    let mut key = 0;
    while key < WINDOWS {
        t[key] = window_start(key, 1) | window_start(key, -1) << 4;
        key += 1;
    }
    t
};

/// The Figure 5 shapes on a window key (bits `2j, 2j+1`: the code of edge
/// `j − 3` of the robot), in direction `dir`, as a [`WINDOW_STARTS`]
/// nibble.
const fn window_start(key: usize, dir: isize) -> u8 {
    /// The code of the step from neighbour `j·d` to `(j + 1)·d`.
    const fn step(key: usize, j: isize, d: isize) -> u8 {
        let e = if d > 0 { j } else { -j - 1 };
        let code = ((key >> (2 * (e + 3))) & 3) as u8;
        if d > 0 {
            code
        } else {
            code ^ 0b10
        }
    }
    // Ahead: the robot and its next two neighbors must be monotone aligned
    // ("at least its first ... three robots are horizontally aligned").
    let f1 = step(key, 0, dir);
    if step(key, 1, dir) != f1 {
        return 0;
    }
    // Behind: the outer neighbor must sit perpendicular to the line.
    let e1 = step(key, 0, -dir);
    if (e1 ^ f1) & 1 == 0 {
        return 0;
    }
    let e2 = step(key, 1, -dir);
    if e2 == e1 {
        // Straight perpendicular continuation: r is also the endpoint of a
        // perpendicular 3-aligned subchain — Fig. 5(ii).
        return START | CORNER | e1;
    }
    if e2 == e1 ^ 0b10 {
        // Perpendicular fold-back: the line cannot continue behind.
        return START | e1;
    }
    // e2 is parallel to the line axis. The quasi line continues behind
    // exactly if the parallel run behind has ≥ 2 steps (an interior jog);
    // otherwise a stairway begins (Fig. 5(i) / Fig. 16).
    if step(key, 2, -dir) == e2 {
        0
    } else {
        START | e1
    }
}

/// Result of [`quasi_break_ahead`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuasiBreak {
    /// Chain distance (in robots ahead, ≥ 1) of the first robot at which
    /// the quasi-line structure is confirmed broken.
    pub distance: isize,
}

/// Scan forward from runner `i` (chain edge codes `codes`) in direction
/// `dir` for a structural end of its quasi line.
///
/// `fold_side` identifies the line's perpendicular axis (the run folds
/// toward `fold_side`; the line axis is the other one). The scan walks up
/// to `max_steps` chain steps ahead, grouping maximal equal steps, and
/// reports a break when it sees
///
/// * a perpendicular group of ≥ 2 steps (a vertical line begins — the
///   quasi-line definition allows at most 2 perpendicular robots), or
/// * two consecutive groups on the same axis (a fold-back), or
/// * an *interior* parallel group of exactly 1 step (runs of 2 robots —
///   a stairway, Fig. 16).
///
/// Groups truncated by the horizon are treated as continuing (no break):
/// robots must not act on structure they cannot see.
pub fn quasi_break_ahead(
    codes: &[u8],
    i: usize,
    dir: isize,
    fold_side: Offset,
    max_steps: isize,
) -> Option<QuasiBreak> {
    debug_assert!(fold_side.is_unit_step());
    // Read the steps straight from the codes when the scan does not wrap
    // around the chain's index 0.
    let reach = max_steps.max(0) as usize;
    if dir > 0 && i + reach <= codes.len() {
        break_ahead(|j| codes[i + j as usize], fold_side, max_steps)
    } else if dir < 0 && reach <= i {
        break_ahead(|j| codes[i - 1 - j as usize] ^ 0b10, fold_side, max_steps)
    } else {
        break_ahead(|j| step_code(codes, i, j, dir), fold_side, max_steps)
    }
}

/// [`quasi_break_ahead`] over the step codes `step(0), step(1), …` ahead.
#[inline]
fn break_ahead(
    step: impl Fn(isize) -> u8,
    fold_side: Offset,
    max_steps: isize,
) -> Option<QuasiBreak> {
    // Bit 0 of a code is its axis (1: vertical); a perpendicular step
    // shares the fold side's axis.
    let perp_axis = u8::from(fold_side.dx == 0);
    let mut j: isize = 0;
    let mut prev_axis_perp: Option<bool> = None;
    let mut group_index = 0usize;
    while j < max_steps {
        let code = step(j);
        let perp = code & 1 == perp_axis;
        // Group of equal steps starting at j.
        let mut g: isize = 1;
        while j + g < max_steps && step(j + g) == code {
            g += 1;
        }
        let truncated = j + g >= max_steps;
        if let Some(prev_perp) = prev_axis_perp {
            if prev_perp == perp {
                // Same axis, different step (fold-back): break at junction.
                return Some(QuasiBreak { distance: j });
            }
        }
        if perp {
            if g >= 2 {
                // Perpendicular run of ≥ 3 robots: the line ends here
                // (a perpendicular quasi line or worse begins).
                return Some(QuasiBreak { distance: j + 1 });
            }
        } else {
            // Parallel group: interior groups need ≥ 2 steps (3 robots).
            let interior = group_index > 0 && !truncated;
            if interior && g == 1 {
                return Some(QuasiBreak { distance: j + 1 });
            }
        }
        prev_axis_perp = Some(perp);
        group_index += 1;
        j += g;
    }
    None
}

/// Definition 1, verbatim, over an explicit subchain of positions: is
/// `pts` a quasi line along `axis`?
///
/// 1. the first and last three robots are aligned on `axis`,
/// 2. every maximal `axis` run has ≥ 3 robots,
/// 3. every maximal perpendicular run has ≤ 2 robots.
///
/// Used by the Lemma 3.2 audit ("after the first three rounds after its
/// start, a run is always located on a quasi line") and by tests.
pub fn is_quasi_line(pts: &[grid_geom::Point], axis: grid_geom::Axis) -> bool {
    if pts.len() < 3 {
        return false;
    }
    let steps: Vec<Offset> = pts.windows(2).map(|w| w[1] - w[0]).collect();
    if steps.iter().any(|s| !s.is_unit_step()) {
        return false;
    }
    let on_axis = |s: Offset| grid_geom::Axis::of_step(s) == axis;
    // Condition 1: first and last three robots aligned on `axis`
    // (monotone).
    let first_ok = steps[0] == steps[1] && on_axis(steps[0]);
    let last_ok =
        steps[steps.len() - 1] == steps[steps.len() - 2] && on_axis(steps[steps.len() - 1]);
    if !first_ok || !last_ok {
        return false;
    }
    // Conditions 2/3 over maximal monotone runs.
    let mut i = 0;
    while i < steps.len() {
        let s = steps[i];
        let mut j = i + 1;
        while j < steps.len() && steps[j] == s {
            j += 1;
        }
        let robots = j - i + 1;
        if on_axis(s) {
            if robots < 3 {
                return false;
            }
        } else if robots > 2 {
            return false;
        }
        // Fold-backs (adjacent runs on the same axis) break the line.
        if j < steps.len() && grid_geom::Axis::of_step(steps[j]) == grid_geom::Axis::of_step(s) {
            return false;
        }
        i = j;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shuffled_loop;
    use chain_sim::rng::SplitMix64;
    use chain_sim::{ClosedChain, Ring};
    use grid_geom::{Axis, Point};

    /// The predicates as they read positions through a [`Ring`] view
    /// before they read edge codes: the oracle of the code versions.
    mod oracle {
        use super::*;

        pub fn ring_run_start(v: &Ring<'_>, dir: isize) -> Option<(StartShape, Offset)> {
            if v.chain_len() < 8 {
                return None;
            }
            let f1 = v.abs(dir) - v.abs(0);
            let f2 = v.abs(2 * dir) - v.abs(dir);
            if f1 != f2 {
                return None;
            }
            let e1 = v.abs(-dir) - v.abs(0);
            if !e1.perpendicular_to(f1) {
                return None;
            }
            let e2 = v.abs(-2 * dir) - v.abs(-dir);
            if e2 == e1 {
                return Some((StartShape::CornerEnd, e1));
            }
            if e2 == -e1 {
                return Some((StartShape::StairwayEnd, e1));
            }
            let e3 = v.abs(-3 * dir) - v.abs(-2 * dir);
            if e3 == e2 {
                None
            } else {
                Some((StartShape::StairwayEnd, e1))
            }
        }

        pub fn ring_quasi_break_ahead(
            v: &Ring<'_>,
            dir: isize,
            fold_side: Offset,
            max_steps: isize,
        ) -> Option<QuasiBreak> {
            let is_perp = |s: Offset| (s.dx == 0) == (fold_side.dx == 0);
            let mut j: isize = 0;
            let mut prev_axis_perp: Option<bool> = None;
            let mut group_index = 0usize;
            while j < max_steps {
                let step = v.abs((j + 1) * dir) - v.abs(j * dir);
                let perp = is_perp(step);
                let mut g: isize = 1;
                while j + g < max_steps && (v.abs((j + g + 1) * dir) - v.abs((j + g) * dir)) == step
                {
                    g += 1;
                }
                let truncated = j + g >= max_steps;
                if let Some(prev_perp) = prev_axis_perp {
                    if prev_perp == perp {
                        return Some(QuasiBreak { distance: j });
                    }
                }
                if perp {
                    if g >= 2 {
                        return Some(QuasiBreak { distance: j + 1 });
                    }
                } else {
                    let interior = group_index > 0 && !truncated;
                    if interior && g == 1 {
                        return Some(QuasiBreak { distance: j + 1 });
                    }
                }
                prev_axis_perp = Some(perp);
                group_index += 1;
                j += g;
            }
            None
        }
    }

    /// Every robot, both directions, every fold side and every horizon up
    /// to the viewing range (clamped to `n − 1`, as the runs clamp it):
    /// the code predicates answer as the ring oracle does.
    fn assert_predicates_match(c: &ClosedChain) {
        let n = c.len();
        let horizon = 11.min(n - 1) as isize;
        for i in 0..n {
            let v = Ring::unbounded(c, i);
            for d in [1, -1] {
                assert_eq!(
                    run_start(c.codes(), i, d),
                    oracle::ring_run_start(&v, d),
                    "run_start: robot {i} of {n}, dir {d}"
                );
                for side in [Offset::RIGHT, Offset::UP, Offset::LEFT, Offset::DOWN] {
                    for m in 0..=horizon {
                        assert_eq!(
                            quasi_break_ahead(c.codes(), i, d, side, m),
                            oracle::ring_quasi_break_ahead(&v, d, side, m),
                            "break ahead: robot {i} of {n}, dir {d}, side {side:?}, {m} steps"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn code_predicates_match_ring_oracle_on_random_loops() {
        for seed in 0..12u64 {
            assert_predicates_match(&workloads::random_loop(60 + 4 * seed as usize, seed));
        }
    }

    #[test]
    fn code_predicates_match_ring_oracle_on_every_family() {
        for fam in workloads::Family::ALL {
            for seed in 0..2 {
                assert_predicates_match(&fam.generate(96, seed));
            }
        }
    }

    /// Chains of 4 to 12 robots, where the horizon wraps the chain.
    #[test]
    fn code_predicates_match_ring_oracle_on_tiny_chains() {
        let mut rng = SplitMix64::new(0x71e5);
        for m in 2..=6 {
            for _ in 0..60 {
                assert_predicates_match(&shuffled_loop(&mut rng, m));
            }
        }
    }

    fn chain(coords: &[(i64, i64)]) -> ClosedChain {
        ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    /// A long rectangle: every corner is a Fig. 5(ii) shape.
    fn rectangle(w: i64, h: i64) -> ClosedChain {
        let mut pts = Vec::new();
        for x in 0..w {
            pts.push(Point::new(x, 0));
        }
        for y in 0..h {
            pts.push(Point::new(w - 1, y));
        }
        let mut pts2 = vec![Point::new(0, 0)];
        pts2.extend((1..w).map(|x| Point::new(x, 0)));
        pts2.extend((1..h).map(|y| Point::new(w - 1, y)));
        pts2.extend((1..w).map(|x| Point::new(w - 1 - x, h - 1)));
        pts2.extend((1..h - 1).map(|y| Point::new(0, h - 1 - y)));
        ClosedChain::new(pts2).unwrap()
    }

    #[test]
    fn rectangle_corners_are_corner_ends() {
        let c = rectangle(8, 6);
        // Robot 0 = (0,0): ahead (+1) is the bottom row, behind (-1) is the
        // left column going up: Fig. 5(ii).
        let got = run_start(c.codes(), 0, 1);
        assert_eq!(got, Some((StartShape::CornerEnd, Offset::UP)));
        // Same robot, other direction: endpoint of the vertical line with
        // the horizontal line behind.
        let got = run_start(c.codes(), 0, -1);
        assert_eq!(got, Some((StartShape::CornerEnd, Offset::RIGHT)));
    }

    #[test]
    fn rectangle_interior_is_not_a_start() {
        let c = rectangle(8, 6);
        for i in 1..6 {
            assert_eq!(run_start(c.codes(), i, 1), None, "interior robot {i}");
            assert_eq!(run_start(c.codes(), i, -1), None, "interior robot {i}");
        }
    }

    #[test]
    fn stairway_end_shape() {
        // Horizontal line ending in a stairway going down-left:
        //   ... (3,0)(2,0)(1,0) | (1,-1)(0,-1)(0,-2)(-1,-2) ...
        // The endpoint robot is (1,0) looking in +x direction; behind it the
        // stairway alternates.
        // Build a closed loop containing the shape; use a generous outline.
        // Stairway down-left from (1,0):
        let pts = vec![
            Point::new(1, 0),
            Point::new(2, 0),
            Point::new(3, 0),
            Point::new(4, 0),
            Point::new(5, 0),
            Point::new(5, 1),
            Point::new(4, 1),
            Point::new(3, 1),
            Point::new(2, 1),
            Point::new(1, 1),
            Point::new(0, 1),
            Point::new(0, 0),
        ];
        // Closing edge from (0,0) to (1,0): chain closed.
        let c = ClosedChain::new(pts).unwrap();
        // Robot 0 = (1,0): ahead +1: (2,0),(3,0) aligned ✓; behind: (0,0)
        // — horizontal! Not a perpendicular outer neighbor → no start.
        assert_eq!(run_start(c.codes(), 0, 1), None);
        // Robot 9 = (1,1): direction -1 looks toward (2,1),(3,1): aligned;
        // behind (-(-1)) = robot 10 = (0,1): horizontal too → None.
        assert_eq!(run_start(c.codes(), 9, -1), None);
    }

    #[test]
    fn stairway_shape_i_detected() {
        // Construct an explicit Fig. 5(i): endpoint with stairway behind.
        // Chain (closed, 16 robots): a quasi line at y=0 whose left end
        // turns into a stairway going up-left.
        let pts = [
            (2, 0),
            (3, 0),
            (4, 0),
            (5, 0),
            (6, 0),
            (6, 1),
            (6, 2),
            (5, 2),
            (4, 2),
            (3, 2),
            (2, 2),
            (1, 2),
            (1, 1),
            (2, 1), // stairway: from (1,1) step right to (2,1) then down to (2,0)=r0
        ];
        let c = chain(&pts);
        // Robot 0 = (2,0): ahead +1: (3,0),(4,0) aligned. Behind: r13=(2,1)
        // perpendicular (UP); r12=(1,1) parallel (LEFT); r11=(1,2)
        // perpendicular → e3 ≠ e2 → StairwayEnd with fold side UP.
        assert_eq!(
            run_start(c.codes(), 0, 1),
            Some((StartShape::StairwayEnd, Offset::UP))
        );
    }

    #[test]
    fn interior_jog_is_not_an_endpoint() {
        // Quasi line with a jog: ... (0,0)(1,0)(2,0)(2,1)(3,1)(4,1)(5,1) ...
        // The robot at (2,1) must NOT start a run in +x direction: behind it
        // the line continues (jog of height 1, then ≥ 3 horizontal robots).
        let pts = [
            (0, 0),
            (1, 0),
            (2, 0),
            (2, 1),
            (3, 1),
            (4, 1),
            (5, 1),
            (5, 2),
            (4, 2),
            (3, 2),
            (2, 2),
            (1, 2),
            (0, 2),
            (0, 1),
        ];
        let c = chain(&pts);
        // Robot 3 = (2,1): ahead (+1) (3,1),(4,1) aligned; behind r2=(2,0)
        // perpendicular; r1=(1,0) parallel; r0=(0,0) parallel → continues →
        // None.
        assert_eq!(run_start(c.codes(), 3, 1), None);
    }

    #[test]
    fn break_ahead_vertical_line() {
        let c = rectangle(10, 6);
        // Robot 1 = (1,0) looking +1 along the bottom row (fold side UP):
        // the row runs to (9,0) then turns up the right column (≥ 2 perp
        // steps) — a break within view.
        let b = quasi_break_ahead(c.codes(), 1, 1, Offset::UP, 11);
        assert!(b.is_some());
        let d = b.unwrap().distance;
        // The corner (9,0) is 8 ahead; the break is confirmed at the first
        // robot of the vertical run.
        assert!((8..=10).contains(&d), "distance {d}");
    }

    #[test]
    fn no_break_on_long_straight_line() {
        let c = rectangle(30, 8);
        // 11 steps ahead stay on the bottom row: no break.
        assert_eq!(quasi_break_ahead(c.codes(), 2, 1, Offset::UP, 11), None);
    }

    #[test]
    fn jog_is_not_a_break_but_stairway_is() {
        // Quasi line with a single jog — no break; stairway — break.
        let pts = [
            (0, 0),
            (1, 0),
            (2, 0),
            (2, 1),
            (3, 1),
            (4, 1),
            (5, 1),
            (5, 2),
            (4, 2),
            (3, 2),
            (2, 2),
            (1, 2),
            (0, 2),
            (0, 1),
        ];
        let c = chain(&pts);
        // From robot 0 looking +1: steps: R R U R R R U ... The jog at
        // (2,0)→(2,1) is a single perpendicular step between parallel runs
        // of ≥ 2 steps — fine. The next perpendicular step at (5,1)→(5,2)
        // is again single; then the top row runs left ≥ 2 — fine. No break
        // within 10 steps.
        assert_eq!(quasi_break_ahead(c.codes(), 0, 1, Offset::UP, 10), None);

        // A stairway ahead: R U R U R U...
        let stair = [
            (0, 0),
            (1, 0),
            (2, 0),
            (3, 0),
            (3, 1),
            (4, 1),
            (4, 2),
            (5, 2),
            (5, 3),
            (4, 3),
            (3, 3),
            (2, 3),
            (1, 3),
            (0, 3),
            (0, 2),
            (0, 1),
        ];
        let c = chain(&stair);
        let b = quasi_break_ahead(c.codes(), 0, 1, Offset::UP, 11);
        assert!(b.is_some(), "stairway must be a break");
        // Break confirmed at the single-step parallel group (3,1)→(4,1).
        assert!(b.unwrap().distance <= 6);
    }

    #[test]
    fn truncated_groups_do_not_break() {
        // A parallel group cut off by the horizon must not be classified.
        let c = rectangle(30, 8);
        // Look only 3 steps ahead from the corner: R R R — truncated, fine.
        assert_eq!(quasi_break_ahead(c.codes(), 0, 1, Offset::UP, 3), None);
    }

    #[test]
    fn tiny_chain_starts_nothing() {
        let c = chain(&[(0, 0), (1, 0), (1, 1), (0, 1)]);
        assert_eq!(run_start(c.codes(), 0, 1), None);
        assert_eq!(run_start(c.codes(), 0, -1), None);
    }

    fn pts(coords: &[(i64, i64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn definition1_accepts_straight_lines_and_jogs() {
        // Straight line of 5.
        assert!(is_quasi_line(
            &pts(&[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]),
            Axis::X
        ));
        // Jogged quasi line: HHH U HHH.
        assert!(is_quasi_line(
            &pts(&[(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (5, 1)]),
            Axis::X
        ));
        // U-bend: HHH U HHH backwards — still a quasi line by Def. 1.
        assert!(is_quasi_line(
            &pts(&[
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (3, 1),
                (2, 1),
                (1, 1),
                (0, 1)
            ]),
            Axis::X
        ));
    }

    #[test]
    fn definition1_rejects_violations() {
        // Too short.
        assert!(!is_quasi_line(&pts(&[(0, 0), (1, 0)]), Axis::X));
        // Wrong axis at the ends.
        assert!(!is_quasi_line(
            &pts(&[(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (3, 2)]),
            Axis::X
        ));
        // Interior horizontal run of 2 (stairway-like).
        assert!(!is_quasi_line(
            &pts(&[
                (0, 0),
                (1, 0),
                (2, 0),
                (2, 1),
                (3, 1),
                (3, 2),
                (4, 2),
                (5, 2),
                (6, 2)
            ]),
            Axis::X
        ));
        // Vertical run of 3 in a horizontal quasi line.
        assert!(!is_quasi_line(
            &pts(&[
                (0, 0),
                (1, 0),
                (2, 0),
                (2, 1),
                (2, 2),
                (3, 2),
                (4, 2),
                (5, 2)
            ]),
            Axis::X
        ));
        // Fold-back within a row.
        assert!(!is_quasi_line(
            &pts(&[(0, 0), (1, 0), (2, 0), (1, 0), (0, 0), (-1, 0)]),
            Axis::X
        ));
    }

    #[test]
    fn definition1_vertical() {
        assert!(is_quasi_line(
            &pts(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (1, 5)]),
            Axis::Y
        ));
        assert!(!is_quasi_line(
            &pts(&[
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 2),
                (2, 3),
                (2, 4),
                (2, 5)
            ]),
            Axis::Y
        ));
    }
}
