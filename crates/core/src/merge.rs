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
//!
//! ## The boundary walk and the role byte
//!
//! A robot sits on a *run boundary* when its in-edge and out-edge codes
//! differ. The scan marks the boundaries eight robots per word (one XOR of
//! the codes with themselves shifted by one robot) and visits each with
//! `trailing_zeros`, so a straight stretch costs one word per eight robots.
//! At a boundary the run that ends there is complete: its length is the
//! distance to the previous boundary, its flanks are the previous
//! boundary's in-code and this one's out-code. A fold tip (`k = 1`) is a
//! boundary whose two codes are opposite, tested at the same visit.
//!
//! The roles of a robot are one byte: bit `c` (`c` an edge code) is set
//! when the robot is a black hopping along code `c`, and bit 4 when
//! it is a white. Two black roles are always orthogonal (Fig. 3b), so
//! their bits never repeat a direction and the hop is a 16-entry table
//! over the low nibble.

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

/// Role-byte bit of a white.
const WHITE: u8 = 0b1_0000;

/// Role-byte bits of the black roles, one per hop direction's edge code.
const BLACKS: u8 = 0b1111;

/// The hop of each set of black directions (bit `c`: edge code `c`).
const HOP: [Offset; 16] = {
    let mut t = [Offset::ZERO; 16];
    let mut m = 0;
    while m < 16 {
        let mut c = 0;
        while c < 4 {
            if m & (1 << c) != 0 {
                let d = edge_offset(c);
                t[m] = Offset::new(t[m].dx + d.dx, t[m].dy + d.dy);
            }
            c += 1;
        }
        m += 1;
    }
    t
};

/// Bit 0 of every byte of a word.
const BYTE_LOW: u64 = 0x0101_0101_0101_0101;

/// Per-round merge scan result (reusable buffers).
#[derive(Clone, Debug, Default)]
pub struct MergeScan {
    /// Fired patterns, in no particular order.
    patterns: Vec<MergePattern>,
    /// One role byte per robot: black directions and [`WHITE`].
    role: Vec<u8>,
    /// Largest `k` over all *detected* patterns (including suppressed
    /// ones) in which the robot is a black; 0 if none.
    inherent_k: Vec<u8>,
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

/// The merge pattern of a run of `len` equal steps `u`, if it is one: the
/// run covers `len + 1` robots, the black candidates, and is a pattern
/// with `k = len + 1 ≤ max_k` when its flanks — `flank_in` into its first
/// robot, `flank_out` out of its last — are opposite and perpendicular to
/// `u`. Opposite codes differ in bit 1 only; perpendicular ones differ in
/// bit 0 (the axis).
#[inline]
fn run_k(len: usize, flank_in: u8, u: u8, flank_out: u8, max_k: usize) -> Option<usize> {
    let k = len + 1;
    (k <= max_k && flank_in == opposite(flank_out) && (flank_out ^ u) & 1 == 1).then_some(k)
}

/// The eight codes from `base` on as one little-endian word; lanes past
/// the last code are 0.
#[inline]
fn load_word(codes: &[u8], base: usize) -> u64 {
    match codes.get(base..base + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("8 codes")),
        None => {
            let mut word = [0; 8];
            let tail = &codes[base..];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(word)
        }
    }
}

impl MergeScan {
    fn reset(&mut self, n: usize) {
        self.patterns.clear();
        // At most one pattern per maximal monotone run plus one per fold
        // tip: reserving 2n once keeps later (shorter) rounds from
        // allocating.
        self.patterns.reserve(2 * n);
        self.role.clear();
        self.role.resize(n, 0);
        self.inherent_k.clear();
        self.inherent_k.resize(n, 0);
    }

    /// The fired patterns of the last scan, in no particular order.
    pub fn patterns(&self) -> &[MergePattern] {
        &self.patterns
    }

    /// `true` if robot `i` participates in any fired pattern.
    #[inline]
    pub fn participates(&self, i: usize) -> bool {
        self.role[i] != 0
    }

    /// `true` if robot `i` is a black of some fired pattern.
    #[cfg(test)]
    pub(crate) fn is_black(&self, i: usize) -> bool {
        self.role[i] & BLACKS != 0
    }

    /// `true` if robot `i` is a white of some fired pattern.
    #[cfg(test)]
    pub(crate) fn is_white(&self, i: usize) -> bool {
        self.role[i] & WHITE != 0
    }

    /// Per robot, the largest `k` over all *detected* patterns (including
    /// suppressed ones) in which it is a black; 0 if none. Drives the
    /// staggered expiry of oscillation suppression (strategy.rs).
    pub(crate) fn inherent_k(&self) -> &[u8] {
        &self.inherent_k
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
    /// their local view hold their merge hops for `2L + 2 − min(k, L)`
    /// rounds so the runner machinery can break the symmetry).
    /// `suppressed` may be empty (no suppression) or one flag per robot.
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

        // The run that ends at a boundary started at the previous one,
        // `last`, whose in-code `last_in` is that run's in-flank. The
        // first boundary's run is closed after the walk, around index 0.
        let mut first: Option<(usize, u8)> = None;
        let (mut last, mut last_in) = (0, 0);
        for base in (0..n).step_by(8) {
            // Lane j: robot base + j, its out-edge in `cur`, its in-edge
            // in `prev`.
            let cur = load_word(codes, base);
            let prev = if base == 0 {
                (cur << 8) | u64::from(codes[n - 1])
            } else {
                load_word(codes, base - 1)
            };
            let diff = prev ^ cur;
            let lanes = n - base;
            let live = if lanes >= 8 {
                u64::MAX
            } else {
                (1 << (8 * lanes)) - 1
            };
            let mut marks = (diff | diff >> 1) & BYTE_LOW & live;
            while marks != 0 {
                let lane = marks.trailing_zeros() as usize / 8;
                marks &= marks - 1;
                let b = base + lane;
                let (s_in, s_out) = ((prev >> (8 * lane)) as u8, (cur >> (8 * lane)) as u8);
                if first.is_none() {
                    first = Some((b, s_in));
                } else if let Some(k) = run_k(b - last, last_in, s_in, s_out, max_k) {
                    self.try_push(n, last, k, s_out, suppressed);
                }
                if s_in == opposite(s_out) {
                    // k = 1: a fold/hairpin tip (Fig. 2 bottom), between
                    // two monotone runs and in neither.
                    self.try_push(n, b, 1, s_out, suppressed);
                }
                (last, last_in) = (b, s_in);
            }
        }
        let Some((b, s_in)) = first else {
            // All steps equal — impossible for a closed chain (the step
            // sum must vanish); defensive: nothing to merge.
            debug_assert!(false, "closed chain with uniform steps");
            return;
        };
        if let Some(k) = run_k(n - last + b, last_in, s_in, codes[b], max_k) {
            self.try_push(n, last, k, codes[b], suppressed);
        }
    }

    /// Record the detected pattern of `k` blacks from `first_black` on,
    /// hopping along code `code`, and fire it unless a black is
    /// suppressed.
    fn try_push(&mut self, n: usize, first_black: usize, k: usize, code: u8, suppressed: &[bool]) {
        // Inherent blackness is recorded for every *detected* pattern,
        // fired or not — it drives the staggered expiry of oscillation
        // suppression.
        let k8 = k.min(255) as u8;
        let mut b = first_black;
        let mut any_suppressed = false;
        for _ in 0..k {
            self.inherent_k[b] = self.inherent_k[b].max(k8);
            // Oscillation suppression is pattern-wide over the *blacks*: a
            // pattern with any suppressed black does not fire (partial
            // firing would break the rigid-translation safety of the black
            // segment). Suppressed whites are fine — they stand still,
            // which is exactly what a merge target must do.
            any_suppressed |= !suppressed.is_empty() && suppressed[b];
            b = succ(b, n);
        }
        if any_suppressed {
            return;
        }
        // Accumulate roles. Two black roles on one robot are always
        // orthogonal (a horizontal and a vertical pattern meeting at a
        // corner, Fig. 3b): the directions' bits never repeat, and the
        // hop of the nibble is the paper's diagonal hop.
        let bit = 1 << code;
        let mut b = first_black;
        for _ in 0..k {
            debug_assert!(
                self.role[b] & bit == 0,
                "conflicting black roles at {b}: {:?} + {:?}",
                HOP[usize::from(self.role[b] & BLACKS)],
                edge_offset(code)
            );
            self.role[b] |= bit;
            b = succ(b, n);
        }
        // The whites: the robots before the first and after the last black
        // (`b` is now the latter).
        self.role[pred(first_black, n)] |= WHITE;
        self.role[b] |= WHITE;
        self.patterns.push(MergePattern {
            first_black,
            k,
            dir: edge_offset(code),
        });
    }

    /// The hop robot `i` performs due to merge roles: blacks hop their
    /// accumulated direction, whites stand still, black beats white.
    #[inline]
    pub fn merge_hop(&self, i: usize) -> Offset {
        HOP[usize::from(self.role[i] & BLACKS)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_sim::rng::SplitMix64;
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
        assert_eq!(s.patterns().len(), 4);
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
            assert!(s.is_black(i) && s.is_white(i));
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
        assert!(s.is_black(0) && s.is_black(2));
        assert!(s.is_white(1) && s.is_white(3));
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
            !s.patterns().is_empty(),
            "closed chains always develop patterns at turns"
        );
        for p in s.patterns() {
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
        for p in s.patterns() {
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
        for p in s.patterns() {
            // Only the two vertical end patterns (k = 2) fire.
            assert_eq!(p.k, 2, "pattern {p:?}");
            assert_eq!(p.dir.dy, 0);
        }
        assert_eq!(s.patterns().len(), 2);
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
        for p in s.patterns() {
            assert!(p.k <= 2);
        }
    }

    #[test]
    fn pattern_indices_helpers() {
        let c = chain(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]);
        let s = scan(&c);
        let top = s
            .patterns()
            .iter()
            .find(|p| p.dir == Offset::DOWN)
            .expect("top pattern");
        assert_eq!(top.k, 2);
        assert_eq!(top.w1(&c), c.nb(top.first_black, -1));
        assert_eq!(top.w2(&c), c.nb(top.first_black, 2));
        let blacks: Vec<usize> = top.blacks(&c).collect();
        assert_eq!(blacks.len(), 2);
    }

    /// The boundary walk against the per-edge scan
    /// ([`crate::oracle::per_edge_scan`]) on the codes `codes` under every
    /// suppression density: the same fired patterns as sets, and the same
    /// hop, black, white and inherent `k` of every robot.
    fn assert_matches_per_edge(
        scan: &mut MergeScan,
        codes: &[u8],
        rng: &mut SplitMix64,
        what: &str,
    ) {
        let n = codes.len();
        let configs = [
            GatherConfig::paper(),
            GatherConfig::proof_mode(),
            GatherConfig {
                view: 64,
                max_merge_k: 64,
                ..GatherConfig::paper()
            },
        ];
        for cfg in &configs {
            for density in [0, 8, 3, 1] {
                let mask: Vec<bool> = match density {
                    0 => Vec::new(),
                    d => (0..n).map(|_| rng.chance(1, d)).collect(),
                };
                scan.scan_codes(n, codes, cfg, &mask);
                let want = crate::oracle::per_edge_scan(n, codes, cfg, &mask);
                let key = |p: &MergePattern| (p.first_black, p.k, p.dir.dx, p.dir.dy);
                let mut got = scan.patterns().to_vec();
                let mut fired = want.patterns.clone();
                got.sort_by_key(key);
                fired.sort_by_key(key);
                let ctx = format!(
                    "{what}, n = {n}, k ≤ {}, 1/{density}",
                    cfg.effective_max_k()
                );
                assert_eq!(got, fired, "patterns, {ctx}");
                let hop: Vec<Offset> = (0..n).map(|i| scan.merge_hop(i)).collect();
                let black: Vec<bool> = (0..n).map(|i| scan.is_black(i)).collect();
                let white: Vec<bool> = (0..n).map(|i| scan.is_white(i)).collect();
                assert_eq!(hop, want.hop, "hops, {ctx}");
                assert_eq!(black, want.black, "blacks, {ctx}");
                assert_eq!(white, want.white, "whites, {ctx}");
                assert_eq!(scan.inherent_k(), &want.inherent_k[..], "inherent k, {ctx}");
            }
        }
    }

    /// Random codes, not all equal (a closed chain never has one run).
    fn random_codes(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
        loop {
            let codes: Vec<u8> = (0..n).map(|_| rng.below(4) as u8).collect();
            if codes.iter().any(|&c| c != codes[0]) {
                return codes;
            }
        }
    }

    #[test]
    fn boundary_walk_matches_per_edge_scan_on_random_codes() {
        let mut rng = SplitMix64::new(0xb0d1);
        let mut scan = MergeScan::default();
        for n in (4..=40).chain(995..=1004) {
            for _ in 0..if n < 100 { 20 } else { 2 } {
                let codes = random_codes(&mut rng, n);
                assert_matches_per_edge(&mut scan, &codes, &mut rng, "random codes");
            }
        }
    }

    /// Runs of random lengths and codes, rotated so that runs cross word
    /// edges and wrap around index 0, and a boundary falls in every lane.
    #[test]
    fn boundary_walk_matches_per_edge_scan_on_long_runs() {
        let mut rng = SplitMix64::new(0x12a5);
        let mut scan = MergeScan::default();
        for max_run in [2, 5, 12, 30] {
            for _ in 0..60 {
                let target = rng.range_usize(4, 300);
                let mut codes = Vec::new();
                while codes.len() < target {
                    let c = rng.below(4) as u8;
                    let len = rng.range_usize(1, max_run + 1);
                    codes.extend(std::iter::repeat_n(c, len));
                }
                if codes.iter().all(|&c| c == codes[0]) {
                    continue;
                }
                let turn = rng.range_usize(0, codes.len());
                codes.rotate_left(turn);
                assert_matches_per_edge(&mut scan, &codes, &mut rng, "long runs");
            }
        }
        // A lone boundary pair in each lane of each of the first two words.
        for lane in 0..16 {
            for n in [lane + 4, 24, 64] {
                let mut codes = vec![0u8; n.max(lane + 4)];
                codes[lane] = 1;
                codes[lane + 1] = 2;
                assert_matches_per_edge(&mut scan, &codes, &mut rng, "one lane");
            }
        }
    }

    /// Chains of exactly two runs (out-and-back lines and bent pairs), at
    /// every rotation.
    #[test]
    fn boundary_walk_matches_per_edge_scan_on_two_runs() {
        let mut rng = SplitMix64::new(0x2u64);
        let mut scan = MergeScan::default();
        for (a, b) in [(0u8, 2u8), (1, 3), (0, 1), (3, 2)] {
            for (l1, l2) in [(1, 3), (2, 2), (5, 5), (9, 9), (11, 11), (7, 20)] {
                let mut codes = vec![a; l1];
                codes.extend(std::iter::repeat_n(b, l2));
                for _ in 0..codes.len() {
                    assert_matches_per_edge(&mut scan, &codes, &mut rng, "two runs");
                    codes.rotate_left(1);
                }
            }
        }
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
        for p in s.patterns() {
            // Pattern spans k + 2 robots; max pairwise chain distance k+1.
            assert!(p.k < cfg.view);
        }
    }
}
