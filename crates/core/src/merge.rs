//! Merge patterns (Section 3.1, Figures 1–3 of the paper).
//!
//! A merge pattern is a subchain `w₁, b₁ … b_k, w₂`: a maximal monotone
//! segment of `k` "black" robots flanked by two "white" chain neighbors on
//! the *same* side (`w₁ = b₁ + v`, `w₂ = b_k + v` for an axis unit `v`).
//! When a pattern fires, the blacks hop by `v`; the outermost blacks land on
//! the whites, the merge pass splices the coincidences, and the chain
//! shortens — the paper's progress measure.
//!
//! For `k = 1` the two whites coincide (Fig. 2 bottom); this also covers
//! hairpin tips of self-overlapping chains.
//!
//! ## Overlapping patterns (Fig. 3)
//!
//! Patterns may overlap. Per DESIGN.md §2.3, roles combine as:
//!
//! * a robot black in two patterns (always one horizontal + one vertical,
//!   Fig. 3b's robot `r`) hops by the *sum* of the two directions — the
//!   diagonal hop of the paper;
//! * a black role beats a white role (Fig. 3a: "the chain cannot be
//!   shortened there", but the outermost merges still succeed);
//! * a pure white stands still.
//!
//! The scan below is a global O(n) pass; every pattern it reports fits
//! entirely inside each participant's viewing range (`k + 1 ≤ V`), so it is
//! observationally equivalent to the per-robot local detection the paper
//! describes — a property checked by `tests::local_equivalence`.

use crate::config::GatherConfig;
use chain_sim::packed::{edge_offset, opposite};
use chain_sim::ClosedChain;
use grid_geom::Offset;

/// A detected merge pattern (indices are current chain indices).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergePattern {
    /// Chain index of the first black robot.
    pub first_black: usize,
    /// Number of black robots (`k ≥ 1`).
    pub k: usize,
    /// Hop direction `v` (towards the whites).
    pub dir: Offset,
}

impl MergePattern {
    /// Chain index of the white before the first black.
    pub fn w1(&self, chain: &ClosedChain) -> usize {
        chain.nb(self.first_black, -1)
    }

    /// Chain index of the white after the last black.
    pub fn w2(&self, chain: &ClosedChain) -> usize {
        chain.nb(self.first_black, self.k as isize)
    }

    /// Iterate the black indices.
    pub fn blacks<'a>(&'a self, chain: &'a ClosedChain) -> impl Iterator<Item = usize> + 'a {
        (0..self.k).map(move |j| chain.nb(self.first_black, j as isize))
    }
}

/// Per-round merge scan result (reusable buffers).
#[derive(Clone, Debug, Default)]
pub struct MergeScan {
    /// Detected patterns.
    pub patterns: Vec<MergePattern>,
    /// Accumulated merge hop per robot (`ZERO` = not a black).
    pub hop: Vec<Offset>,
    /// Robot is a black of some pattern.
    pub black: Vec<bool>,
    /// Robot is a white of some pattern.
    pub white: Vec<bool>,
    /// Largest `k` over all *detected* patterns (including suppressed
    /// ones) in which the robot is a black; 0 if none. Drives the
    /// staggered expiry of oscillation suppression (strategy.rs).
    pub inherent_k: Vec<u8>,
}

/// `i + 1` on a cycle of `n` (`i < n`).
#[inline]
fn succ(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

/// `i − 1` on a cycle of `n` (`i < n`).
#[inline]
fn pred(i: usize, n: usize) -> usize {
    if i == 0 {
        n - 1
    } else {
        i - 1
    }
}

impl MergeScan {
    fn reset(&mut self, n: usize) {
        // Only the last scan's fired patterns set hops and roles: clear
        // those, on the last scan's chain, instead of the whole arrays.
        let last_n = self.hop.len();
        for p in &self.patterns {
            let mut b = p.first_black;
            self.white[pred(b, last_n)] = false;
            for _ in 0..p.k {
                self.hop[b] = Offset::ZERO;
                self.black[b] = false;
                b = succ(b, last_n);
            }
            self.white[b] = false;
        }
        self.patterns.clear();
        // At most one pattern per maximal monotone run plus one per fold
        // tip: reserving 2n once keeps later (shorter) rounds from
        // allocating.
        self.patterns.reserve(2 * n);
        self.hop.resize(n, Offset::ZERO);
        self.black.resize(n, false);
        self.white.resize(n, false);
        self.inherent_k.clear();
        self.inherent_k.resize(n, 0);
    }

    /// `true` if robot `i` participates in any fired pattern.
    #[inline]
    pub fn participates(&self, i: usize) -> bool {
        self.black[i] || self.white[i]
    }

    /// Run the scan on the current (taut) chain.
    ///
    /// Detects all maximal monotone segments whose two flanking steps are
    /// opposite perpendicular steps, with `k` bounded by the config's
    /// effective maximum, and accumulates hop roles.
    pub fn scan(&mut self, chain: &ClosedChain, cfg: &GatherConfig) {
        self.scan_suppressed(chain, cfg, &[]);
    }

    /// [`MergeScan::scan`] with per-robot oscillation suppression: a
    /// pattern fires only if none of its robots is currently suppressed
    /// (see `strategy.rs` — robots that detect a period-2 oscillation of
    /// their local view hold their merge hops for 2L rounds so the runner
    /// machinery can break the symmetry). `suppressed` may be empty (no
    /// suppression) or one flag per robot.
    pub fn scan_suppressed(
        &mut self,
        chain: &ClosedChain,
        cfg: &GatherConfig,
        suppressed: &[bool],
    ) {
        self.scan_codes(chain.len(), chain.codes(), cfg, suppressed);
    }

    /// [`MergeScan::scan_suppressed`] on a chain of `n` robots given as its
    /// edge codes ([`ClosedChain::codes`]: byte `i` is the step from robot
    /// `i` to robot `i + 1`).
    pub(crate) fn scan_codes(
        &mut self,
        n: usize,
        codes: &[u8],
        cfg: &GatherConfig,
        suppressed: &[bool],
    ) {
        self.reset(n);
        if n < 4 {
            // n = 2 is always gathered; n = 3 cannot be a closed grid chain
            // (odd step parity); nothing to do.
            return;
        }
        debug_assert_eq!(codes.len(), n);
        debug_assert!(suppressed.is_empty() || suppressed.len() == n);
        let max_k = cfg.effective_max_k();

        // Decompose the cyclic step sequence into maximal monotone runs.
        // Anchor at a run boundary so no run wraps.
        let mut anchor = 0;
        while codes[pred(anchor, n)] == codes[anchor] {
            anchor += 1;
            if anchor == n {
                // All steps equal — impossible for a closed chain (the step
                // sum must vanish); defensive: nothing to merge.
                debug_assert!(false, "closed chain with uniform steps");
                return;
            }
        }

        // Walk the runs from the anchor. A run of `len` equal steps `u`
        // covers robots first ..= first + len: k = len + 1 black
        // candidates. Its flanks are the previous run's step (into
        // `first`) and the next run's first step (out of the last robot).
        // Opposite codes differ in bit 1 only; perpendicular ones differ
        // in bit 0 (the axis).
        let mut i = anchor;
        let mut flank_in = codes[pred(anchor, n)];
        let mut remaining = n;
        while remaining > 0 {
            let first = i;
            let u = codes[i];
            let mut len = 1;
            i = succ(i, n);
            while len < remaining && codes[i] == u {
                len += 1;
                i = succ(i, n);
            }
            // `i` is the next run's first edge (the anchor after the last
            // run).
            let flank_out = codes[i];
            let k = len + 1;
            if k <= max_k && flank_in == opposite(flank_out) && (flank_out ^ u) & 1 == 1 {
                self.try_push(
                    n,
                    MergePattern {
                        first_black: first,
                        k,
                        dir: edge_offset(flank_out),
                    },
                    suppressed,
                );
            }
            flank_in = u;
            remaining -= len;
        }

        // k = 1 patterns: a robot whose two incident steps are exact
        // opposites (fold/hairpin tip, Fig. 2 bottom). These robots sit
        // *between* two monotone runs and are not covered above.
        let mut s_in = codes[n - 1];
        for (i, &s_out) in codes.iter().enumerate() {
            if s_in == opposite(s_out) {
                self.try_push(
                    n,
                    MergePattern {
                        first_black: i,
                        k: 1,
                        dir: edge_offset(s_out),
                    },
                    suppressed,
                );
            }
            s_in = s_out;
        }
    }

    fn try_push(&mut self, n: usize, p: MergePattern, suppressed: &[bool]) {
        // Inherent blackness is recorded for every *detected* pattern,
        // fired or not — it drives the staggered expiry of oscillation
        // suppression.
        let k8 = p.k.min(255) as u8;
        let mut b = p.first_black;
        let mut any_suppressed = false;
        for _ in 0..p.k {
            self.inherent_k[b] = self.inherent_k[b].max(k8);
            // Oscillation suppression is pattern-wide over the *blacks*: a
            // pattern with any suppressed black does not fire (partial
            // firing would break the rigid-translation safety of the black
            // segment). Suppressed whites are fine — they stand still,
            // which is exactly what a merge target must do.
            any_suppressed |= !suppressed.is_empty() && suppressed[b];
            b = succ(b, n);
        }
        if !any_suppressed {
            self.push_pattern(n, p);
        }
    }

    fn push_pattern(&mut self, n: usize, p: MergePattern) {
        // Accumulate roles. Two black roles on one robot are always
        // orthogonal (a horizontal and a vertical pattern meeting at a
        // corner, Fig. 3b) — the sum is the paper's diagonal hop.
        let mut b = p.first_black;
        for _ in 0..p.k {
            debug_assert!(
                (self.hop[b] + p.dir).is_hop(),
                "conflicting black roles at {b}: {:?} + {:?}",
                self.hop[b],
                p.dir
            );
            self.hop[b] += p.dir;
            self.black[b] = true;
            b = succ(b, n);
        }
        // The whites: the robots before the first and after the last black
        // (`b` is now the latter).
        self.white[pred(p.first_black, n)] = true;
        self.white[b] = true;
        self.patterns.push(p);
    }

    /// The hop robot `i` performs due to merge roles: blacks hop their
    /// accumulated direction, whites stand still, black beats white.
    #[inline]
    pub fn merge_hop(&self, i: usize) -> Offset {
        if self.black[i] {
            self.hop[i]
        } else {
            Offset::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_sim::ClosedChain;
    use grid_geom::Point;

    fn chain(coords: &[(i64, i64)]) -> ClosedChain {
        ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    fn scan(chain: &ClosedChain) -> MergeScan {
        let mut s = MergeScan::default();
        s.scan(chain, &GatherConfig::paper());
        s
    }

    #[test]
    fn fig1_rectangle_patterns() {
        // Figure 1: 2×3 rectangle ring. The paper's picture highlights the
        // top segment {r2,r3} hopping down (whites r1, r4); symmetrically
        // the bottom {r5,r0}, left column {r0,r1,r2} and right column
        // {r3,r4,r5} are patterns too (all four fire; the corner robots
        // combine two black roles into diagonal hops, and the ring gathers
        // in a single round).
        let c = chain(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]);
        let s = scan(&c);
        assert_eq!(s.patterns.len(), 4);
        // Corner robots: two orthogonal black roles → diagonal hops.
        assert_eq!(s.merge_hop(2), Offset::DOWN + Offset::RIGHT);
        assert_eq!(s.merge_hop(3), Offset::DOWN + Offset::LEFT);
        assert_eq!(s.merge_hop(0), Offset::UP + Offset::RIGHT);
        assert_eq!(s.merge_hop(5), Offset::UP + Offset::LEFT);
        // Middle robots of the columns: single horizontal role.
        assert_eq!(s.merge_hop(1), Offset::RIGHT);
        assert_eq!(s.merge_hop(4), Offset::LEFT);
        // Everyone is black in some pattern and white in another.
        for i in 0..6 {
            assert!(s.black[i] && s.white[i]);
        }
    }

    #[test]
    fn fig2_k1_hairpin_tip() {
        // A bump of height 1 and width 0: w(0,0) b(0,1) w(0,0) — embedded
        // in a small ring so the chain is valid.
        // Ring: (0,0) (1,0) (1,1) (1,2) (0,2) (0,1) — and a spike:
        // simpler: square with a hairpin is hard to keep taut; test the
        // k=1 rule on a flattened 4-loop instead.
        let c = chain(&[(0, 0), (1, 0), (2, 0), (1, 0)]);
        let s = scan(&c);
        // Robot 2 folds (steps +x then -x): k=1 pattern hopping LEFT onto
        // its two coinciding neighbors; robot 0 symmetric hopping RIGHT.
        assert_eq!(s.merge_hop(2), Offset::LEFT);
        assert_eq!(s.merge_hop(0), Offset::RIGHT);
        assert!(s.black[0] && s.black[2]);
        assert!(s.white[1] && s.white[3]);
    }

    #[test]
    fn fig3b_corner_black_in_two_patterns() {
        // J-hook: horizontal segment at y=1 ending in a corner that turns
        // down and back left; the corner robot r is black in the horizontal
        // pattern (hop down) and in the vertical pattern (hop left),
        // hopping diagonally down-left.
        //
        //   w1 b b r        y=1
        //   w0 .  z a       y=0   (chain: w0 w1 b b r a z ... closed)
        //
        // Build a closed ring realizing this locally:
        //   (0,0) (0,1) (1,1) (2,1) (3,1) (3,0) (2,0) (1,0)
        // chain steps: up, right×3, down, left×2, left(!)... all unit. This
        // is a plain 4×2 rectangle; the J-hook appears in its corner roles.
        let c = chain(&[
            (0, 0),
            (0, 1),
            (1, 1),
            (2, 1),
            (3, 1),
            (3, 0),
            (2, 0),
            (1, 0),
        ]);
        let s = scan(&c);
        // Top run robots 1..=4 (k=4) hop down; bottom run robots 5..=0
        // (k=4) hop up; corner robots are black in vertical k=... here the
        // vertical runs have length 1 step (2 robots) flanked by opposite
        // horizontal steps → vertical patterns {4,5} hop left and {0,1}
        // hop right.
        assert_eq!(s.merge_hop(4), Offset::DOWN + Offset::LEFT);
        assert_eq!(s.merge_hop(5), Offset::UP + Offset::LEFT);
        assert_eq!(s.merge_hop(0), Offset::UP + Offset::RIGHT);
        assert_eq!(s.merge_hop(1), Offset::DOWN + Offset::RIGHT);
        assert_eq!(s.merge_hop(2), Offset::DOWN);
        assert_eq!(s.merge_hop(6), Offset::UP);
    }

    #[test]
    fn staircase_diamond_patterns_only_at_tips() {
        // Stairways are merge-free (Section 5.1): alternating single turns
        // put the flanking whites on opposite sides. A *closed* staircase
        // diamond must turn at its tips, and exactly those tip corners form
        // k=2 patterns — the Lemma 1 proof's structural point.
        let c = chain(&[
            (0, 0),
            (1, 0),
            (1, 1),
            (2, 1),
            (2, 2),
            (1, 2),
            (1, 1),
            (0, 1),
        ]);
        let s = scan(&c);
        assert!(
            !s.patterns.is_empty(),
            "closed chains always develop patterns at turns"
        );
        for p in &s.patterns {
            assert!(p.k <= 2, "unexpected long pattern {p:?}");
        }
    }

    #[test]
    fn open_stairway_interior_is_merge_free() {
        // A long stairway closed far away by a wide loop: no pattern may
        // have blacks strictly inside the stairway section.
        // Stairway: (0,0) R U R U R U ... (alternating +x/+y).
        let mut pts = vec![Point::new(0, 0)];
        for i in 0..6 {
            let last = *pts.last().unwrap();
            pts.push(Point::new(last.x + 1, last.y));
            pts.push(Point::new(last.x + 1, last.y + 1));
            let _ = i;
        }
        // Return path: up, then straight left above the staircase, then
        // down to close.
        let top = pts.last().unwrap().y;
        let right = pts.last().unwrap().x;
        for y in top + 1..=top + 2 {
            pts.push(Point::new(right, y));
        }
        for x in (0..right).rev() {
            pts.push(Point::new(x, top + 2));
        }
        for y in (1..top + 2).rev() {
            pts.push(Point::new(0, y));
        }
        let c = ClosedChain::new(pts).unwrap();
        let s = scan(&c);
        // Stairway interior robots: indices 1..11 (the R/U alternation).
        for p in &s.patterns {
            for b in p.blacks(&c) {
                assert!(
                    !(2..11).contains(&b),
                    "pattern {p:?} claims stairway interior robot {b}"
                );
            }
        }
    }

    #[test]
    fn long_segments_respect_view_bound() {
        // A 14-wide rectangle: top/bottom runs are longer than the viewing
        // bound (k = 15 > 10) — no horizontal pattern may fire.
        let w = 14;
        let mut pts = Vec::new();
        for x in 0..=w {
            pts.push(Point::new(x, 0));
        }
        for x in (0..=w).rev() {
            pts.push(Point::new(x, 1));
        }
        let c = ClosedChain::new(pts).unwrap();
        let s = scan(&c);
        for p in &s.patterns {
            // Only the two vertical end patterns (k = 2) fire.
            assert_eq!(p.k, 2, "pattern {p:?}");
            assert_eq!(p.dir.dy, 0);
        }
        assert_eq!(s.patterns.len(), 2);
    }

    #[test]
    fn proof_mode_restricts_k() {
        // 2×4 rectangle: horizontal runs of k=4 fire in paper mode but not
        // in proof mode (k ≤ 2).
        let c = chain(&[
            (0, 0),
            (0, 1),
            (1, 1),
            (2, 1),
            (3, 1),
            (3, 0),
            (2, 0),
            (1, 0),
        ]);
        let mut s = MergeScan::default();
        s.scan(&c, &GatherConfig::proof_mode());
        for p in &s.patterns {
            assert!(p.k <= 2);
        }
    }

    #[test]
    fn pattern_indices_helpers() {
        let c = chain(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]);
        let s = scan(&c);
        let top = s
            .patterns
            .iter()
            .find(|p| p.dir == Offset::DOWN)
            .expect("top pattern");
        assert_eq!(top.k, 2);
        assert_eq!(top.w1(&c), c.nb(top.first_black, -1));
        assert_eq!(top.w2(&c), c.nb(top.first_black, 2));
        let blacks: Vec<usize> = top.blacks(&c).collect();
        assert_eq!(blacks.len(), 2);
    }

    /// Local-equivalence: every reported pattern fits inside the viewing
    /// range of each of its participants (chain distance from any
    /// participant to any other ≤ V), so the global scan equals per-robot
    /// local detection.
    #[test]
    fn local_equivalence() {
        let cfg = GatherConfig::paper();
        let c = chain(&[
            (0, 0),
            (0, 1),
            (1, 1),
            (2, 1),
            (3, 1),
            (3, 0),
            (2, 0),
            (1, 0),
        ]);
        let s = scan(&c);
        for p in &s.patterns {
            // Pattern spans k + 2 robots; max pairwise chain distance k+1.
            assert!(p.k < cfg.view);
        }
    }
}
