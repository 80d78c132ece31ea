//! The chain-safety guard: SSYNC-safe hop commitment.
//!
//! Under FSYNC every computed hop applies, and an FSYNC-correct strategy
//! keeps the chain taut by construction. Under SSYNC a scheduler masks an
//! arbitrary subset of robots per round, and a hop set that is safe in
//! full can break the chain when only part of it applies: the paper's
//! paired merge hops (Fig. 1: two adjacent blacks dropping onto their
//! whites together) leave a diagonal, non-adjacent edge behind when one
//! endpoint sleeps — exactly the `ChainBroken` failures
//! `BENCH_robustness.json` records for the unguarded paper strategy.
//!
//! [`enforce_chain_safety`] is the repair. It runs on the hops that will
//! actually apply this round — the post-mask intents, i.e. one lookahead
//! over the activation mask (sleepers already hold zero) — and cancels
//! every hop whose robot would end the round non-adjacent to a chain
//! neighbor's end-of-round position. Cancellation iterates to a fixpoint,
//! because zeroing one hop can strand a neighbor that counted on the
//! cancelled motion; another sweep runs only when it did strand a robot
//! judged earlier in the sweep.
//!
//! Why the fixpoint is safe, for *every* activation subset:
//!
//! * **Termination.** Hops are only ever zeroed, never created; a sweep
//!   is followed by another only if it zeroed at least one of the ≤ n
//!   non-zero hops, so there are at most n sweeps. Most rounds need one:
//!   a cancellation can only invalidate the judgments of its two
//!   neighbours, of which just the previous robot (and, at the wrap,
//!   robot 0) was judged before it in the sweep, and a sweep whose
//!   cancellations invalidated neither is already the fixpoint — so the
//!   confirming sweep that would cancel nothing is never run.
//! * **Safety at the fixpoint.** Suppose edge `(i, j)` were non-adjacent
//!   after applying the surviving hops. At least one endpoint still moves
//!   (a round starts taut, so two standing robots are adjacent), and that
//!   endpoint's final sweep saw exactly the surviving intents — it would
//!   have cancelled itself. Contradiction, so every edge ends adjacent.
//! * **Subset quantification.** The adversary's choice is the mask, and
//!   the mask is applied *before* the guard. Whatever subset the scheduler
//!   activates, the guard sees that subset's intents and the argument
//!   above applies — `tests/ssync_safety.rs` checks this by enumerating
//!   every activation subset of every round at small `n`.
//!
//! The same fixpoint guards the `global-vision` and `naive-local`
//! baselines (`baselines::cancel_breaking_hops` delegates here, and
//! their kernels call [`cancel_breaking_hops`] on hop codes), and
//! the engine: a [`Strategy`](crate::Strategy) that opts in via
//! [`Strategy::wants_chain_guard`](crate::Strategy::wants_chain_guard)
//! gets it applied by [`Sim::step`](crate::Sim::step) after the
//! activation mask, which is what makes `gathering-core`'s `paper-ssync`
//! wrapper survive every scheduler.
//!
//! There is one implementation, [`cancel_breaking_hops`]: it reads the
//! chain's edge codes and judges each edge from the hops of its two
//! robots, in either hop alphabet of [`GuardHop`].

use crate::chain::ClosedChain;
use crate::kernel::{hop_offset, HOP_ZERO};
use crate::packed::{edge_offset, BYTE_LOW, EDGE_ZERO};
use grid_geom::Offset;

/// Edge-survival table: `EDGE_OK[e][hl][hr]` is `true` iff the edge of
/// code `e` stays chain-adjacent (manhattan ≤ 1) when its tail robot
/// hops `hl` and its head robot hops `hr` (hop codes of
/// [`crate::kernel`]). One table serves both neighbor checks of a robot:
/// the head-side test of an edge is the tail-side test of the same edge
/// with the offset negated, and manhattan length is symmetric under
/// negation.
pub static EDGE_OK: [[[bool; 9]; 9]; 4] = build_edge_ok();

const fn build_edge_ok() -> [[[bool; 9]; 9]; 4] {
    let mut t = [[[false; 9]; 9]; 4];
    let mut e = 0;
    while e < 4 {
        let eo = edge_offset(e as u8);
        let mut hl = 0;
        while hl < 9 {
            let lo = hop_offset(hl as u8);
            let mut hr = 0;
            while hr < 9 {
                let ro = hop_offset(hr as u8);
                let dx = eo.dx + ro.dx - lo.dx;
                let dy = eo.dy + ro.dy - lo.dy;
                t[e][hl][hr] = dx.abs() + dy.abs() <= 1;
                hr += 1;
            }
            hl += 1;
        }
        e += 1;
    }
    t
}

/// The guard byte of every hop-code triple: `GUARD[e·81 + h·9 + h']`
/// for a robot with next-side edge code `e`, hop `h` and next robot's hop
/// `h'` (see [`GuardHop::guard_byte`]). Bit 0 alone is the edge test of
/// [`EDGE_OK`].
static GUARD: [u8; 324] = build_guard();

const fn build_guard() -> [u8; 324] {
    let stay = HOP_ZERO as usize;
    let mut t = [0u8; 324];
    let mut e = 0;
    while e < 4 {
        let ok = &EDGE_OK[e];
        let mut h = 0;
        while h < 9 {
            let mut next = 0;
            while next < 9 {
                t[e * 81 + h * 9 + next] = ok[h][next] as u8
                    | (ok[stay][next] as u8) << 1
                    | ((h == stay) as u8) << 2
                    | (ok[h][stay] as u8) << 3;
                next += 1;
            }
            h += 1;
        }
        e += 1;
    }
    t
}

/// A hop alphabet the edge rules read: the hop codes of [`crate::kernel`]
/// (the kernels) or [`Offset`]s (the boxed engine, where a strategy may
/// hand in any offset). The guard judges edges in it, and the edge
/// rewrite of [`crate::packed`] moves them by it.
pub trait GuardHop: Copy + PartialEq {
    /// The zero hop, which is never cancelled.
    const STAY: Self;

    /// The [`crate::kernel`] hop code that indexes the edge tables, and
    /// whether the hop is legal; an illegal hop is clamped into the tables.
    fn code(self) -> (usize, bool);

    /// The offset the hop moves by.
    fn offset(self) -> Offset;

    /// `true` iff the edge of code `e` stays chain adjacent (length ≤ 1)
    /// when its tail robot hops `tail` and its head robot hops `head`.
    fn edge_ok(e: u8, tail: Self, head: Self) -> bool;

    /// The four edge facts the guard's sweep reads for a robot whose
    /// next-side edge has code `e`, whose hop is `h` and whose next
    /// robot hops `next`: bit 0 `edge_ok(e, h, next)`, bit 1
    /// `edge_ok(e, STAY, next)`, bit 2 `h == STAY`, bit 3
    /// `edge_ok(e, h, STAY)`.
    #[inline]
    fn guard_byte(e: u8, h: Self, next: Self) -> u8 {
        Self::edge_ok(e, h, next) as u8
            | (Self::edge_ok(e, Self::STAY, next) as u8) << 1
            | ((h == Self::STAY) as u8) << 2
            | (Self::edge_ok(e, h, Self::STAY) as u8) << 3
    }

    /// The guard bytes of robots `i..i + 8`, byte `k` for robot `i + k`
    /// (reads `hops[i..i + 9]`).
    #[inline]
    fn guard_word(edges: &[u8], hops: &[Self], i: usize) -> u64 {
        let mut bytes = [0; 8];
        for (k, b) in bytes.iter_mut().enumerate() {
            *b = Self::guard_byte(edges[i + k], hops[i + k], hops[i + k + 1]);
        }
        u64::from_le_bytes(bytes)
    }

    /// Set to [`GuardHop::STAY`] the hops of robots `i..i + 8` whose byte
    /// of `mask` is `0xff` (the other bytes are zero).
    #[inline]
    fn cancel_group(hops: &mut [Self], i: usize, mask: u64) {
        let mut m = mask & BYTE_LOW;
        while m != 0 {
            hops[i + m.trailing_zeros() as usize / 8] = Self::STAY;
            m &= m - 1;
        }
    }

    /// `true` iff the nine hops from index `i` on are equal, so that the
    /// eight edges between them translate rigidly.
    #[inline]
    fn nine_equal(hops: &[Self], i: usize) -> bool {
        hops[i..i + 8] == hops[i + 1..i + 9]
    }

    /// `true` only if the nine hops from index `i` on are equal: the test
    /// by which the edge rewrite of [`crate::packed`] copies the eight
    /// edges between them. A `false` for equal hops costs speed, not
    /// correctness.
    #[inline]
    fn nine_copied(hops: &[Self], i: usize) -> bool {
        Self::nine_equal(hops, i)
    }
}

impl GuardHop for u8 {
    const STAY: u8 = HOP_ZERO;

    #[inline]
    fn code(self) -> (usize, bool) {
        debug_assert!(self < 9, "hop code {self}");
        (usize::from(self), true)
    }

    #[inline]
    fn offset(self) -> Offset {
        hop_offset(self)
    }

    #[inline]
    fn edge_ok(e: u8, tail: u8, head: u8) -> bool {
        Self::guard_byte(e, tail, head) & 1 != 0
    }

    #[inline]
    fn guard_byte(e: u8, h: u8, next: u8) -> u8 {
        GUARD[usize::from(e) * 81 + usize::from(h) * 9 + usize::from(next)]
    }

    /// One blend of the eight hop bytes.
    #[inline]
    fn cancel_group(hops: &mut [u8], i: usize, mask: u64) {
        let group: &mut [u8; 8] = (&mut hops[i..i + 8]).try_into().expect("8 hops");
        let w = u64::from_le_bytes(*group);
        *group = (w & !mask | (u64::from(HOP_ZERO) * BYTE_LOW) & mask).to_le_bytes();
    }

    #[inline]
    fn nine_equal(hops: &[u8], i: usize) -> bool {
        let h0 = u64::from_le_bytes(hops[i..i + 8].try_into().expect("8 hops"));
        let h1 = u64::from_le_bytes(hops[i + 1..i + 9].try_into().expect("8 hops"));
        h0 == h1
    }
}

impl GuardHop for Offset {
    const STAY: Offset = Offset::ZERO;

    #[inline]
    fn code(self) -> (usize, bool) {
        let (x, y) = (
            (self.dx as u64).wrapping_add(1),
            (self.dy as u64).wrapping_add(1),
        );
        ((x.min(2) * 3 + y.min(2)) as usize, (x < 3) & (y < 3))
    }

    #[inline]
    fn offset(self) -> Offset {
        self
    }

    /// Nine standing robots, the common case of the paper rule, in one
    /// branch-free fold.
    #[inline]
    fn nine_copied(hops: &[Offset], i: usize) -> bool {
        hops[i..i + 9].iter().fold(0, |a, h| a | h.dx | h.dy) == 0
    }

    #[inline]
    fn edge_ok(e: u8, tail: Offset, head: Offset) -> bool {
        let edge = if e == EDGE_ZERO {
            Offset::ZERO
        } else {
            edge_offset(e)
        };
        (edge + head - tail).manhattan() <= 1
    }

    /// The hop-code table when the nine hops are legal and the eight
    /// edges unit steps; three edge tests per robot otherwise.
    #[inline]
    fn guard_word(edges: &[u8], hops: &[Offset], i: usize) -> u64 {
        let hops = &hops[i..i + 9];
        let mut codes = [0; 9];
        let mut legal = true;
        for (c, h) in codes.iter_mut().zip(hops) {
            let (code, ok) = h.code();
            *c = code;
            legal &= ok;
        }
        let edges: [u8; 8] = edges[i..i + 8].try_into().expect("8 edges");
        let mut bytes = [0; 8];
        if legal && u64::from_le_bytes(edges) & !(3 * BYTE_LOW) == 0 {
            for (k, b) in bytes.iter_mut().enumerate() {
                *b = GUARD[usize::from(edges[k]) * 81 + codes[k] * 9 + codes[k + 1]];
            }
        } else {
            for (k, b) in bytes.iter_mut().enumerate() {
                *b = Self::guard_byte(edges[k], hops[k], hops[k + 1]);
            }
        }
        u64::from_le_bytes(bytes)
    }
}

/// The cancel-to-fixpoint over a chain's edge codes (`edges[i]` is the
/// edge from robot `i` to robot `i + 1`, cyclic): zero every hop whose
/// robot would end the round non-adjacent to a neighbor's end-of-round
/// position, sweeping in ascending index order — a cancellation is seen
/// by the tests after it in the same sweep — until a sweep would cancel
/// nothing. Returns the number of hops cancelled.
///
/// A sweep carries one bit from robot to robot, `ok_left`: whether robot
/// `i`'s prev-side edge holds. Robot `i` keeps its hop iff it stands
/// (`s`) or `ok_left` and its next-side edge holds against the next
/// robot's hop (`r`), and passes on `r` if it keeps its hop and, if not,
/// whether that edge holds with robot `i` standing (`z`). A standing
/// robot has `r = z`, so every robot maps `ok_left` either to the
/// constant `z` or, when `r & !z`, to itself: the sweep is an adder's
/// carry chain with generate `z` and propagate `r & !z`, and the
/// `ok_left` of eight robots at once are the carries of
/// `(r | z) + z + ok_left` over their lanes. The sweep settles eight
/// robots per step that way ([`GuardHop::guard_word`] supplies the four
/// bits of each, [`GuardHop::cancel_group`] writes the cancellations),
/// and nine equal hops entered with `ok_left` true (a rigidly translated
/// stretch) skip eight robots at once. The robots short of a group of
/// eight, and robot `n − 1`, whose next robot is robot 0 as this sweep
/// left it, are judged one by one.
///
/// A sweep that cancelled something is followed by another only if a
/// cancellation invalidated a judgment already made: robot `i`'s new
/// [`GuardHop::STAY`] can only strand robot `i − 1` (judged against the
/// old hop on its next side: it kept its hop and its edge fails against a
/// standing robot `i`, bit 3 of its guard byte) and, for `i = n − 1`,
/// robot 0 (judged first, against the old hop on its prev side). Every
/// later robot is judged against the new value. When both rechecks pass,
/// every surviving hop passes both of its edge tests, so the state is the
/// fixpoint the confirming sweep would find, and that sweep is skipped.
pub fn cancel_breaking_hops<H: GuardHop>(edges: &[u8], hops: &mut [H]) -> usize {
    let n = hops.len();
    if n < 2 {
        return 0;
    }
    debug_assert_eq!(edges.len(), n);
    let mut cancelled = 0;
    loop {
        // A cancellation stranded a robot judged earlier in this sweep.
        let mut changed = false;
        // ok_left for robot 0: the wrap edge, with hops[n−1] still at its
        // start-of-sweep value (index 0 is checked first).
        let mut ok_left = H::edge_ok(edges[n - 1], hops[n - 1], hops[0]);
        // Robot i − 1 kept a hop that a cancellation of robot i strands;
        // after a skip it is read off robot i − 1 when a group needs it.
        let (mut strandable, mut skipped) = (0u64, false);
        let mut i = 0;
        while i + 8 < n {
            // Nine identical consecutive hops keep every edge between
            // them, so each robot's next-side check passes and ok_left
            // carries through unchanged — provided it was already true.
            if ok_left && H::nine_equal(hops, i) {
                skipped = true;
                i += 8;
                continue;
            }
            if std::mem::take(&mut skipped) {
                strandable = u64::from(!H::edge_ok(edges[i - 1], hops[i - 1], H::STAY));
            }
            let t = H::guard_word(edges, hops, i);
            let r = t & BYTE_LOW;
            let z = t >> 1 & BYTE_LOW;
            let s = t >> 2 & BYTE_LOW;
            let q = t >> 3 & BYTE_LOW;
            // Generate-or-propagate fills its lane with ones, generate
            // adds one at the lane's bottom bit: each lane's carry-in is
            // its ok_left, the carry out of the word the next group's.
            let a = (r | z) * 0xff;
            let sum = u128::from(a) + u128::from(z) + u128::from(ok_left);
            let ok = (sum as u64 ^ a ^ z) & BYTE_LOW;
            ok_left = sum >> 64 != 0;
            let keep = s | ok & r;
            let cut = !keep & BYTE_LOW;
            let stranding = keep & !q & BYTE_LOW;
            changed |= cut & (stranding << 8 | strandable) != 0;
            strandable = stranding >> 56;
            if cut != 0 {
                H::cancel_group(hops, i, cut * 0xff);
                cancelled += cut.count_ones() as usize;
            }
            i += 8;
        }
        while i < n {
            let h = hops[i];
            let next = if i + 1 == n { 0 } else { i + 1 };
            let ok_right = H::edge_ok(edges[i], h, hops[next]);
            if h == H::STAY || (ok_left && ok_right) {
                ok_left = ok_right;
            } else {
                hops[i] = H::STAY;
                cancelled += 1;
                changed |= i > 0 && !H::edge_ok(edges[i - 1], hops[i - 1], H::STAY);
                changed |= i + 1 == n && !H::edge_ok(edges[i], H::STAY, hops[0]);
                ok_left = H::edge_ok(edges[i], H::STAY, hops[next]);
            }
            i += 1;
        }
        if !changed {
            return cancelled;
        }
    }
}

/// `true` if robot `i`'s intended hop would end the round non-adjacent to
/// one of its chain neighbors' intended end-of-round positions — the
/// per-robot commit test of the guard, against the *current* intents in
/// `hops`.
///
/// A zero hop never breaks: the round starts taut, and a standing robot
/// cannot leave a neighbor (only be left, which is the moving neighbor's
/// violation to detect).
pub fn hop_breaks_chain(chain: &ClosedChain, hops: &[Offset], i: usize) -> bool {
    if hops[i] == Offset::ZERO || chain.len() < 2 {
        return false;
    }
    let codes = chain.codes();
    let (prev, next) = (chain.nb(i, -1), chain.nb(i, 1));
    !Offset::edge_ok(codes[prev], hops[prev], hops[i])
        || !Offset::edge_ok(codes[i], hops[i], hops[next])
}

/// Cancel-to-fixpoint on a chain: [`cancel_breaking_hops`] over its edge
/// codes, so that no hop fails [`hop_breaks_chain`] against the surviving
/// intents. Returns the number of hops cancelled.
///
/// `hops` must already reflect the activation mask (inactive robots at
/// [`Offset::ZERO`]); the engine calls this immediately after masking.
/// At the fixpoint, applying `hops` keeps every chain edge adjacent — see
/// the module docs for the argument, and `tests/ssync_safety.rs` for the
/// exhaustive activation-subset check.
pub fn enforce_chain_safety(chain: &ClosedChain, hops: &mut [Offset]) -> usize {
    debug_assert_eq!(hops.len(), chain.len());
    cancel_breaking_hops(chain.codes(), hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{hop_code, HOP_ZERO};
    use crate::oracle::{cancel_by_sweeps, random_walk};
    use crate::packed::{EDGE_E, EDGE_N, EDGE_S, EDGE_W};
    use crate::rng::SplitMix64;
    use grid_geom::Point;

    fn chain(pts: &[(i64, i64)]) -> ClosedChain {
        ClosedChain::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    /// The edge codes of the `w × h` rectangle ring, counter-clockwise
    /// from its south-west corner (robot 0): east along the bottom, north,
    /// west along the top, south back to the corner.
    fn ring_codes(w: usize, h: usize) -> Vec<u8> {
        let mut codes = vec![EDGE_E; w - 1];
        codes.extend(std::iter::repeat_n(EDGE_N, h - 1));
        codes.extend(std::iter::repeat_n(EDGE_W, w - 1));
        codes.extend(std::iter::repeat_n(EDGE_S, h - 1));
        codes
    }

    /// A staircase ring: `steps` east–north steps up the diagonal, then
    /// south and west back.
    fn staircase_codes(steps: usize) -> Vec<u8> {
        let mut codes: Vec<u8> = (0..2 * steps).map(|k| [EDGE_E, EDGE_N][k % 2]).collect();
        codes.extend(std::iter::repeat_n(EDGE_S, steps));
        codes.extend(std::iter::repeat_n(EDGE_W, steps));
        codes
    }

    /// Run the one-sweep guard and the repeated-sweep reference on copies
    /// of `hops` and assert that they cancel the same hops. Returns `true`
    /// when the one-sweep guard needed a second sweep (the reference ran
    /// three or more, the last confirming).
    fn agrees<H: GuardHop + std::fmt::Debug>(edges: &[u8], hops: &[H], what: &str) -> bool {
        let (mut fast, mut slow) = (hops.to_vec(), hops.to_vec());
        let got = cancel_breaking_hops(edges, &mut fast);
        let (want, sweeps) = cancel_by_sweeps(edges, &mut slow);
        assert_eq!(
            (got, &fast),
            (want, &slow),
            "{what}: edges {edges:?}, hops {hops:?}"
        );
        sweeps >= 3
    }

    /// [`agrees`] in both alphabets: the hop codes, and their offsets.
    fn agrees_both(edges: &[u8], hops: &[u8], what: &str) -> bool {
        let offsets: Vec<Offset> = hops.iter().map(|&h| hop_offset(h)).collect();
        let second = agrees(edges, hops, what);
        assert_eq!(agrees(edges, &offsets, what), second, "{what}: sweeps");
        second
    }

    /// The guard that skips the confirming sweep cancels exactly what the
    /// sweep-until-nothing-changes loop cancels, in both hop alphabets, on
    /// rings, staircases and random closed walks (n = 2..=64, and a few
    /// near 1,000), with random hops (dense, sparse, in lockstep blocks,
    /// and offsets that are no hop at all). Backward cascades — a block
    /// hopping in lockstep whose last robot is cancelled, which strands
    /// each robot before it in turn — are built on purpose at every
    /// rotation, so cancellations land at robot 0 and at robot n − 1.
    /// Lone and paired cancellations at every lane of a group of eight,
    /// and forward cascades across group boundaries, some entering nine
    /// equal hops with `ok_left` false, pin the eight-robot step.
    #[test]
    fn one_sweep_guard_matches_repeated_sweeps() {
        let mut rng = SplitMix64::new(0x5ee9);
        let mut shapes: Vec<Vec<u8>> = vec![ring_codes(2, 1), ring_codes(1, 2)];
        for (w, h) in [(2, 2), (3, 2), (5, 4), (9, 3), (16, 2), (12, 12), (30, 3)] {
            shapes.push(ring_codes(w, h));
        }
        shapes.extend([1, 2, 5, 8, 16].map(staircase_codes));
        for m in 1..=28 {
            for _ in 0..3 {
                let walk = random_walk(&mut rng, m);
                shapes.push(ClosedChain::new(walk).unwrap().codes().to_vec());
            }
        }
        for _ in 0..4 {
            let walk = random_walk(&mut rng, 500);
            shapes.push(ClosedChain::new(walk).unwrap().codes().to_vec());
        }
        let (mut cases, mut second) = (0, 0);
        for (s, edges) in shapes.iter().enumerate() {
            let n = edges.len();
            for trial in 0..24 {
                let what = format!("shape {s} (n = {n}), trial {trial}");
                let mut hops = vec![HOP_ZERO; n];
                match trial % 4 {
                    // Random hop codes, dense to sparse.
                    0 | 1 => {
                        let den = [1, 2, 8][trial / 4 % 3];
                        for h in hops.iter_mut() {
                            if rng.chance(1, den) {
                                *h = rng.below(9) as u8;
                            }
                        }
                    }
                    // Blocks of equal hops, some of them wrapping.
                    2 => {
                        for _ in 0..rng.range_usize(1, 4) {
                            let (start, len) = (rng.range_usize(0, n), rng.range_usize(1, 21));
                            let h = rng.below(9) as u8;
                            for k in start..start + len.min(n) {
                                hops[k % n] = h;
                            }
                        }
                    }
                    // Offsets, a third of them longer than a hop.
                    _ => {
                        let offsets: Vec<Offset> = (0..n)
                            .map(|_| {
                                let reach = if rng.chance(1, 3) { 2 } else { 1 };
                                Offset::new(
                                    rng.range_i64_inclusive(-reach, reach),
                                    rng.range_i64_inclusive(-reach, reach),
                                )
                            })
                            .collect();
                        cases += 1;
                        second += usize::from(agrees(edges, &offsets, &what));
                        continue;
                    }
                }
                cases += 1;
                second += usize::from(agrees_both(edges, &hops, &what));
            }
        }
        // Backward cascades: robots 0..=len of a ring hop north in
        // lockstep from its south-west corner (safe there: robot 0 lands
        // on robot n − 1), robot len + 1 stands, and every hop goes, one
        // sweep each, last first.
        let up = hop_code(Offset::new(0, 1));
        let mut cascades = 0;
        for (w, h) in [(3, 2), (6, 3), (11, 2), (20, 5)] {
            let edges = ring_codes(w, h);
            let n = edges.len();
            for len in 1..w - 1 {
                let mut hops = vec![HOP_ZERO; n];
                hops[..=len].fill(up);
                let mut once = hops.clone();
                assert_eq!(cancel_breaking_hops(&edges, &mut once), len + 1);
                assert!(once.iter().all(|&h| h == HOP_ZERO));
                for k in 0..n {
                    let (mut e, mut hk) = (edges.clone(), hops.clone());
                    e.rotate_left(k);
                    hk.rotate_left(k);
                    let what = format!("{w}x{h} cascade of {} rotated by {k}", len + 1);
                    cascades += usize::from(agrees_both(&e, &hk, &what));
                }
            }
        }
        // Group lanes: on the bottom row of a 40 × 3 ring a lone north
        // hop breaks both of its edges, and so does a lockstep pair, which
        // goes robot by robot in one sweep — at every lane of a group of
        // eight, the pair also split by a group boundary.
        let edges = ring_codes(40, 3);
        for i in 1..=24 {
            for len in [1, 2] {
                let mut hops = vec![HOP_ZERO; edges.len()];
                hops[i..i + len].fill(up);
                let what = format!("{len} north hops from lane {} of a group", i % 8);
                cases += 1;
                second += usize::from(agrees_both(&edges, &hops, &what));
                assert_eq!(cancel_breaking_hops(&edges, &mut hops), len, "{what}");
            }
        }
        // Forward cascades: a lockstep block of the bottom row next to a
        // standing robot goes robot by robot in one sweep, carried across
        // group boundaries. From robots 8 and 16 the block starts a group
        // with nine equal hops and `ok_left` false: no skip.
        for start in [1, 5, 8, 13, 16] {
            for len in [9, 12, 20] {
                let mut hops = vec![HOP_ZERO; edges.len()];
                hops[start..start + len].fill(up);
                let what = format!("forward cascade of {len} from robot {start}");
                assert!(!agrees_both(&edges, &hops, &what), "{what}: one sweep");
                assert_eq!(cancel_breaking_hops(&edges, &mut hops), len, "{what}");
                cases += 1;
            }
        }
        let random = second;
        second += cascades;
        cases += cascades;
        assert!(
            random >= 600,
            "only {random} random cases needed a second sweep"
        );
        assert!(
            cascades >= 1000,
            "only {cascades} cascades needed a second sweep"
        );
        assert!(cases >= 3000, "{cases} cases, {second} with a second sweep");
    }

    /// The guard where it cancels most: every robot hops every round. A
    /// [`KernelChain`](crate::KernelChain) is stepped under the midpoint
    /// rule (naive-local's) and under one step toward a fixed point (as
    /// global-vision steps toward its center), on rings, staircases and
    /// random walks of n = 2..=20, 62..=66, 200 and 1,000 robots (a closed
    /// grid walk has even length; a random walk's folds add up to 8),
    /// under full activation and under random masks applied before the
    /// guard, the engine's order. Every round the guard cancels exactly
    /// what the plain repeated sweep cancels, in both hop alphabets.
    #[test]
    fn dense_rounds_match_repeated_sweeps() {
        use crate::kernel::KernelChain;
        use crate::PackedChain;
        let mut rng = SplitMix64::new(0xde45e);
        let mut shapes: Vec<Vec<u8>> = vec![ring_codes(2, 1)];
        for n in (4..=20).step_by(2).chain([62, 64, 66, 200, 1000]) {
            shapes.push(ring_codes(n / 2, 2));
            if n % 4 == 0 {
                shapes.push(ring_codes(n / 4 + 1, n / 4 + 1));
                shapes.push(staircase_codes(n / 4));
            }
            let walk = random_walk(&mut rng, n / 2);
            shapes.push(ClosedChain::new(walk).unwrap().codes().to_vec());
        }
        let (mut rounds, mut moving, mut cancels) = (0, 0, 0);
        for (s, codes) in shapes.iter().enumerate() {
            for (rule, masked) in [(0, false), (0, true), (1, false), (1, true)] {
                let start = ClosedChain::from_codes(Point::new(0, 0), codes.clone()).unwrap();
                let target = Point::new(codes.len() as i64 / 8, 1);
                let mut chain = KernelChain::new(PackedChain::from_chain(&start).unwrap());
                for round in 0..300 {
                    let edges = chain.packed().codes();
                    let n = edges.len();
                    if n < 2 || chain.is_gathered() {
                        break;
                    }
                    let mut hops: Vec<u8> = if rule == 0 {
                        (0..n)
                            .map(|i| {
                                let p = edge_offset(edges[(i + n - 1) % n]);
                                let q = edge_offset(edges[i]);
                                hop_code(Offset::new(
                                    (q.dx - p.dx).signum(),
                                    (q.dy - p.dy).signum(),
                                ))
                            })
                            .collect()
                    } else {
                        let toward = |p: Point| {
                            Offset::new((target.x - p.x).signum(), (target.y - p.y).signum())
                        };
                        chain
                            .positions()
                            .into_iter()
                            .map(|p| hop_code(toward(p)))
                            .collect()
                    };
                    if masked {
                        hops.iter_mut()
                            .filter(|_| rng.chance(1, 2))
                            .for_each(|h| *h = HOP_ZERO);
                    }
                    let what =
                        format!("shape {s} (n = {n}), rule {rule}, masked {masked}, round {round}");
                    agrees_both(edges, &hops, &what);
                    rounds += 1;
                    moving += hops.iter().filter(|&&h| h != HOP_ZERO).count();
                    cancels += cancel_breaking_hops(edges, &mut hops);
                    if hops.iter().all(|&h| h == HOP_ZERO) {
                        break;
                    }
                    chain.apply_dense(&hops).unwrap();
                    chain.merge();
                }
            }
        }
        // 16,409 rounds, 42% of 1.18 M moving hops cancelled.
        assert!(rounds >= 10_000, "{rounds} rounds");
        assert!(
            5 * cancels >= 2 * moving,
            "{cancels} of {moving} hops cancelled"
        );
    }

    /// Fig. 1 halfway: two adjacent blacks hop down together. Full
    /// activation is safe; masking one endpoint breaks the edge, and the
    /// guard must cancel the survivor.
    #[test]
    fn lone_half_of_a_paired_merge_hop_is_cancelled() {
        let c = chain(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]);
        let down = Offset::new(0, -1);
        // Both blacks (indices 2 and 3) hop: safe, nothing cancelled.
        let mut both = vec![Offset::ZERO; 6];
        both[2] = down;
        both[3] = down;
        assert_eq!(enforce_chain_safety(&c, &mut both), 0);
        assert_eq!(both[2], down);
        // Only robot 2 active: its lone hop would leave edge (2,3)
        // diagonal — cancelled.
        let mut lone = vec![Offset::ZERO; 6];
        lone[2] = down;
        assert_eq!(enforce_chain_safety(&c, &mut lone), 1);
        assert_eq!(lone, vec![Offset::ZERO; 6]);
    }

    /// A diagonal fold next to standing neighbors is individually safe:
    /// the guard must let it through under any mask.
    #[test]
    fn individually_safe_fold_survives() {
        let c = chain(&[(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]);
        // Corner robot 2 folds onto the diagonal: adjacent to both
        // standing neighbors afterwards.
        let mut hops = vec![Offset::ZERO; 6];
        hops[2] = Offset::new(-1, 1);
        assert_eq!(enforce_chain_safety(&c, &mut hops), 0);
        assert_eq!(hops[2], Offset::new(-1, 1));
    }

    /// Cancellation cascades: robot 1 is only safe because robot 2 moves,
    /// robot 2 is unsafe outright — cancelling 2 must also cancel 1.
    #[test]
    fn cancellation_cascades_to_a_fixpoint() {
        let c = chain(&[(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]);
        let right = Offset::new(1, 0);
        let mut hops = vec![Offset::ZERO; 6];
        // 1 and 2 march right in lockstep; 2 alone would leave edge (2,3)
        // at manhattan 2, and once 2 is cancelled, 1's hop crowds onto 2
        // — legal (coincidence merges) — but 1 moving right while 0
        // stands keeps adjacency, so only the genuinely unsafe hops go.
        hops[1] = right;
        hops[2] = right;
        let cancelled = enforce_chain_safety(&c, &mut hops);
        // Applying the fixpoint must keep the chain connected.
        let mut applied = c.clone();
        applied.apply_hops(&hops).unwrap();
        assert!(cancelled > 0);
        for i in 0..6 {
            assert!(!hop_breaks_chain(&c, &hops, i));
        }
    }

    /// Brute-force soundness at the fixpoint: on a folded chain with a
    /// mix of safe and unsafe intents, every activation subset of the
    /// guarded hops applies cleanly.
    #[test]
    fn fixpoint_is_safe_under_every_subsequent_mask() {
        let c = chain(&[(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]);
        let intents = [
            Offset::new(0, 1),
            Offset::new(1, 0),
            Offset::new(-1, 1),
            Offset::new(0, -1),
            Offset::new(1, -1),
            Offset::ZERO,
        ];
        for mask in 0u32..64 {
            let mut hops: Vec<Offset> = (0..6)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        intents[i]
                    } else {
                        Offset::ZERO
                    }
                })
                .collect();
            enforce_chain_safety(&c, &mut hops);
            let mut applied = c.clone();
            applied.apply_hops(&hops).unwrap_or_else(|e| {
                panic!("guard admitted a breaking hop set under mask {mask:06b}: {e:?}")
            });
        }
    }
}
