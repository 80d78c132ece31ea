//! Baseline strategy kernels over packed edge codes.
//!
//! Each kernel is the data-oriented twin of one boxed baseline: the same
//! decision rule (shared via this crate's pure decision functions, or
//! pinned to them by LUT tests), computed from the chain's byte edge
//! codes ([`chain_sim::PackedChain::codes`], read in place) instead of
//! materialized positions, and plugged into [`chain_sim::KernelSim`] via
//! [`RoundKernel`]. Byte-identity with the boxed strategies is enforced
//! by the unit tests below and the workspace-level differential suite
//! (`tests/kernel_diff.rs`).
//!
//! * [`CompassSeKernel`] — movers are the strict SE-key minima, found
//!   word-parallel ([`chain_sim::PackedChain::strict_se_minima_into`]); each hops
//!   to the neighbor midpoint via [`MIDPOINT_HOP`]. Movers are never
//!   chain-adjacent and their hops keep both incident edges adjacent,
//!   so the sparse (edge-local) apply path needs no safety scan.
//! * [`NaiveLocalKernel`] — the midpoint rule for *every* robot, eight
//!   robots per word by byte-wise integer arithmetic, then the engine's
//!   cancel fixpoint on hop codes ([`cancel_breaking_hops`]), then a
//!   dense apply.
//! * [`GlobalVisionKernel`] — one step toward the enclosing-square
//!   center of the exact bounding box, eight robots per word where the
//!   center is far, then the cancel fixpoint and a dense apply.
//!
//! The dense kernels can still break the chain under SSYNC activation
//! (masking robots *after* the cancel fixpoint invalidates its safety
//! argument — exactly as in the boxed engine), and report byte-identical
//! [`ChainError`]s when they do.

use crate::enclosing_center;
use chain_sim::chain::ChainError;
use chain_sim::kernel::{mask_hops, ActivationRule, KernelChain, RoundKernel, HOP_ZERO};
use chain_sim::packed::{edge_offset, word_offset};
use chain_sim::safety::cancel_breaking_hops;
use grid_geom::Point;

/// Midpoint-hop table: `MIDPOINT_HOP[ep][en]` is the hop code of the
/// midpoint rule for a robot whose incoming edge (from its predecessor)
/// has code `ep` and outgoing edge code `en` — with `a = p − off(ep)`
/// and `b = p + off(en)`, the hop `signum(a + b − 2p)` collapses to
/// `signum(off(en) − off(ep))`, a pure function of the two codes.
pub static MIDPOINT_HOP: [[u8; 4]; 4] = build_midpoint_hop();

const fn sgn(v: i64) -> i64 {
    if v > 0 {
        1
    } else if v < 0 {
        -1
    } else {
        0
    }
}

const fn build_midpoint_hop() -> [[u8; 4]; 4] {
    let mut t = [[0u8; 4]; 4];
    let mut ep = 0;
    while ep < 4 {
        let po = edge_offset(ep as u8);
        let mut en = 0;
        while en < 4 {
            let no = edge_offset(en as u8);
            let dx = sgn(no.dx - po.dx);
            let dy = sgn(no.dy - po.dy);
            t[ep][en] = ((dx + 1) * 3 + (dy + 1)) as u8;
            en += 1;
        }
        ep += 1;
    }
    t
}

/// Bit 0 of every byte of a word.
const BYTE_LOW: u64 = 0x0101_0101_0101_0101;

/// `sgn(a − b) + 1` in every byte, for bytes `a, b ∈ {0, 1, 2}`: the
/// biased difference `d = a + 2 − b ∈ 0..=4` borrows from no byte, and
/// `d ≥ 2`, `d ≥ 3` are the high bits of `d + 126`, `d + 125`.
#[inline]
fn sgn1(a: u64, b: u64) -> u64 {
    let d = a + 2 * BYTE_LOW - b;
    ((d + 0x7e * BYTE_LOW) >> 7 & BYTE_LOW) + ((d + 0x7d * BYTE_LOW) >> 7 & BYTE_LOW)
}

/// [`MIDPOINT_HOP`] in all eight bytes of a word: byte `k` is the hop
/// code of the robot whose in-edge is byte `k` of `prev` and whose
/// out-edge is byte `k` of `next` (direction codes). Per byte, with
/// `X = dx + 1` and `Y = dy + 1` of each edge's offset, the hop is
/// `3·sgn1(Xn, Xp) + sgn1(Yn, Yp)`.
#[inline]
fn midpoint_word(prev: u64, next: u64) -> u64 {
    // Bit 0 of a code is the axis (vertical), bit 1 the sign: E = 0
    // has X = 2, W = 2 has X = 0, S and N have X = 1; S = 1 has Y = 0,
    // N = 3 has Y = 2, E and W have Y = 1.
    let x = |c: u64| {
        let (axis, sign) = (c & BYTE_LOW, c >> 1 & BYTE_LOW);
        axis | (!(axis | sign) & BYTE_LOW) << 1
    };
    let y = |c: u64| {
        let (axis, sign) = (c & BYTE_LOW, c >> 1 & BYTE_LOW);
        (axis ^ BYTE_LOW) | (axis & sign) << 1
    };
    let sx = sgn1(x(next), x(prev));
    (sx << 1) + sx + sgn1(y(next), y(prev))
}

/// The midpoint hop code of every robot of the chain with edges `codes`
/// (at least two), into `hops`: eight robots per word
/// ([`midpoint_word`]), robot 0 and the last robots short of a word by
/// [`MIDPOINT_HOP`].
fn midpoint_hops(codes: &[u8], hops: &mut Vec<u8>) {
    let n = codes.len();
    let word = |i: usize| u64::from_le_bytes(codes[i..i + 8].try_into().expect("8 codes"));
    hops.resize(n, HOP_ZERO);
    hops[0] = MIDPOINT_HOP[usize::from(codes[n - 1])][usize::from(codes[0])];
    let mut blocks = hops[1..].chunks_exact_mut(8);
    for (k, out) in blocks.by_ref().enumerate() {
        let i = 1 + 8 * k;
        out.copy_from_slice(&midpoint_word(word(i - 1), word(i)).to_le_bytes());
    }
    let tail = blocks.into_remainder();
    let start = n - tail.len();
    for (h, i) in tail.iter_mut().zip(start..) {
        *h = MIDPOINT_HOP[usize::from(codes[i - 1])][usize::from(codes[i])];
    }
}

/// Kernel twin of [`CompassSe`](crate::CompassSe): word-parallel strict
/// SE-minima scan, midpoint hops via LUT, sparse apply.
#[derive(Debug, Default)]
pub struct CompassSeKernel {
    minima: Vec<u64>,
    movers: Vec<(usize, u8)>,
}

impl CompassSeKernel {
    /// A fresh kernel (scratch buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoundKernel for CompassSeKernel {
    fn round<A: ActivationRule>(
        &mut self,
        chain: &mut KernelChain,
        rule: &A,
        round: u64,
    ) -> Result<usize, ChainError> {
        let n = chain.len();
        if n < 2 {
            return Ok(0);
        }
        let packed = chain.packed();
        let codes = packed.codes();
        packed.strict_se_minima_into(&mut self.minima);
        // Every minimum's hop is written to the next free slot; the
        // activation bit decides whether the slot is taken, so there is
        // no branch on the coin. Strict minima are never adjacent, so a
        // word of eight robots holds at most four; `movers` only grows,
        // and its first `moved` entries are this round's.
        let turn = rule.turn(round);
        let mut moved = 0;
        for (w, &word) in self.minima.iter().enumerate() {
            let mut m = word;
            if m != 0 && self.movers.len() < moved + 4 {
                self.movers.resize(moved + 4, (0, HOP_ZERO));
            }
            while m != 0 {
                let i = w * 8 + (m.trailing_zeros() as usize) / 8;
                m &= m - 1;
                let ep = codes[if i == 0 { n - 1 } else { i - 1 }];
                let en = codes[i];
                self.movers[moved] = (i, MIDPOINT_HOP[ep as usize][en as usize]);
                moved += usize::from(A::ALWAYS_ON || rule.active_in(turn, i));
            }
        }
        // Any subset of the strict minima is pairwise non-adjacent, and a
        // minimum's midpoint hop keeps both incident edges adjacent (its
        // neighbors never move), so the sparse apply cannot break the
        // chain — compass-se is SSYNC-safe.
        chain.apply_sparse(&self.movers[..moved]);
        Ok(moved)
    }
}

/// Kernel twin of [`NaiveLocal`](crate::NaiveLocal): midpoint hops for
/// everyone, cancel fixpoint, dense apply.
#[derive(Debug, Default)]
pub struct NaiveLocalKernel {
    hops: Vec<u8>,
}

impl NaiveLocalKernel {
    /// A fresh kernel (scratch buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoundKernel for NaiveLocalKernel {
    fn round<A: ActivationRule>(
        &mut self,
        chain: &mut KernelChain,
        rule: &A,
        round: u64,
    ) -> Result<usize, ChainError> {
        let n = chain.len();
        if n < 2 {
            return Ok(0);
        }
        {
            let edges = chain.packed().codes();
            midpoint_hops(edges, &mut self.hops);
            // The cancel fixpoint runs on the *full* hop vector, then the
            // activation mask zeroes inactive robots — the boxed engine's
            // order. Under SSYNC the masking can reintroduce breaking
            // pairs, and the dense apply reports them identically.
            cancel_breaking_hops(edges, &mut self.hops);
        }
        let moved = mask_hops(rule, round, &mut self.hops);
        if moved == 0 {
            return Ok(0);
        }
        chain.apply_dense(&self.hops)?;
        Ok(moved)
    }
}

/// The hop code of one step toward `(dx, dy)`: signum per axis,
/// re-encoded as `(sx+1)·3+(sy+1)`, branch-free.
#[inline]
fn toward(dx: i64, dy: i64) -> u8 {
    let sx = (dx > 0) as i64 - (dx < 0) as i64;
    let sy = (dy > 0) as i64 - (dy < 0) as i64;
    ((sx + 1) * 3 + (sy + 1)) as u8
}

/// One hop code per robot of the chain with robot 0 at `origin` and
/// edges `codes`: one step toward `center`
/// ([`center_hop`](crate::center_hop)), written into `hops`.
///
/// Eight robots at a time where the center is far: the robots of one
/// word of codes drift at most 7 cells from its first, so when that one
/// is more than 7 cells off both center axes, all eight share its hop,
/// and the walk advances by the word's net step, counted per direction
/// ([`word_offset`]).
fn center_hops(codes: &[u8], origin: Point, center: Point, hops: &mut Vec<u8>) {
    let (cx, cy) = (center.x, center.y);
    let (mut x, mut y) = (origin.x, origin.y);
    hops.clear();
    hops.resize(codes.len(), HOP_ZERO);
    for (chunk, word) in hops.chunks_mut(8).zip(codes.chunks(8)) {
        if let Ok(word) = <[u8; 8]>::try_from(word) {
            if (cx - x).abs() > 7 && (cy - y).abs() > 7 {
                chunk.fill(toward(cx - x, cy - y));
                let step = word_offset(u64::from_le_bytes(word));
                x += step.dx;
                y += step.dy;
                continue;
            }
        }
        for (h, &e) in chunk.iter_mut().zip(word) {
            *h = toward(cx - x, cy - y);
            // The position walk decodes the edge delta with pure
            // register arithmetic (`t` = ±1 magnitude, `m` = axis mask)
            // — no table load on the serial x/y dependency chain.
            let e = i64::from(e);
            let t = 1 - (e & 2);
            let m = (e & 1) - 1;
            x += t & m;
            y += -t & !m;
        }
    }
}

/// Kernel twin of [`GlobalVision`](crate::GlobalVision): one step toward
/// the enclosing-square center, cancel fixpoint, dense apply.
#[derive(Debug, Default)]
pub struct GlobalVisionKernel {
    hops: Vec<u8>,
}

impl GlobalVisionKernel {
    /// A fresh kernel (scratch buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoundKernel for GlobalVisionKernel {
    fn round<A: ActivationRule>(
        &mut self,
        chain: &mut KernelChain,
        rule: &A,
        round: u64,
    ) -> Result<usize, ChainError> {
        let n = chain.len();
        if n < 2 {
            return Ok(0);
        }
        {
            let packed = chain.packed();
            let edges = packed.codes();
            let center = enclosing_center(packed.bounding());
            center_hops(edges, packed.origin(), center, &mut self.hops);
            cancel_breaking_hops(edges, &mut self.hops);
        }
        let moved = mask_hops(rule, round, &mut self.hops);
        if moved == 0 {
            return Ok(0);
        }
        chain.apply_dense(&self.hops)?;
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{center_hop, midpoint_hop, CompassSe, GlobalVision, NaiveLocal};
    use chain_sim::kernel::{hop_code, hop_offset, FsyncRule, KernelSim, RoundRobinRule};
    use chain_sim::rng::SplitMix64;
    use chain_sim::safety::{enforce_chain_safety, EDGE_OK};
    use chain_sim::{ClosedChain, Outcome, RunLimits, Sim, Strategy};
    use grid_geom::{chain_adjacent, Offset, Point};

    fn ring(w: i64, h: i64) -> ClosedChain {
        let mut pts = Vec::new();
        for x in 0..w {
            pts.push(Point::new(x, 0));
        }
        for y in 1..h {
            pts.push(Point::new(w - 1, y));
        }
        for x in (0..w - 1).rev() {
            pts.push(Point::new(x, h - 1));
        }
        for y in (1..h - 1).rev() {
            pts.push(Point::new(0, y));
        }
        ClosedChain::new(pts).unwrap()
    }

    fn kernel_chain(chain: &ClosedChain) -> KernelChain {
        KernelChain::new(chain_sim::PackedChain::from_chain(chain).unwrap())
    }

    #[test]
    fn midpoint_table_matches_pure_fn() {
        for ep in 0..4u8 {
            for en in 0..4u8 {
                let p = Point::new(0, 0);
                let a = p - edge_offset(ep); // predecessor: p = a + off(ep)
                let b = p + edge_offset(en);
                let want = midpoint_hop(p, a, b);
                let got = hop_offset(MIDPOINT_HOP[ep as usize][en as usize]);
                assert_eq!(got, want, "ep={ep} en={en}");
            }
        }
    }

    /// The word-wide midpoint fill equals [`MIDPOINT_HOP`]: every
    /// `(ep, en)` pair in every lane of a word (the other lanes random),
    /// and every robot of random code sequences of n = 2..=64, short
    /// tails included, with the hop buffer reused as n grows and shrinks.
    #[test]
    fn midpoint_words_match_table() {
        let mut rng = SplitMix64::new(0x3d1d);
        let mut random_word = || -> [u8; 8] { std::array::from_fn(|_| rng.below(4) as u8) };
        for lane in 0..8 {
            for ep in 0..4u8 {
                for en in 0..4u8 {
                    let (mut prev, mut next) = (random_word(), random_word());
                    prev[lane] = ep;
                    next[lane] = en;
                    let got = midpoint_word(u64::from_le_bytes(prev), u64::from_le_bytes(next));
                    for (k, hop) in got.to_le_bytes().into_iter().enumerate() {
                        let want = MIDPOINT_HOP[usize::from(prev[k])][usize::from(next[k])];
                        assert_eq!(hop, want, "lane {k}: {prev:?} → {next:?}");
                    }
                }
            }
        }
        let mut hops = Vec::new();
        for n in (2..=64).chain((2..=64).rev()) {
            for _ in 0..10 {
                let codes: Vec<u8> = (0..n).map(|_| rng.below(4) as u8).collect();
                midpoint_hops(&codes, &mut hops);
                let want: Vec<u8> = (0..n)
                    .map(|i| {
                        MIDPOINT_HOP[usize::from(codes[(i + n - 1) % n])][usize::from(codes[i])]
                    })
                    .collect();
                assert_eq!(hops, want, "{codes:?}");
            }
        }
    }

    #[test]
    fn edge_ok_table_matches_chain_adjacent() {
        for e in 0..4u8 {
            for hl in 0..9u8 {
                for hr in 0..9u8 {
                    let tail = Point::new(0, 0) + hop_offset(hl);
                    let head = Point::new(0, 0) + edge_offset(e) + hop_offset(hr);
                    assert_eq!(
                        EDGE_OK[e as usize][hl as usize][hr as usize],
                        chain_adjacent(tail, head),
                        "e={e} hl={hl} hr={hr}"
                    );
                }
            }
        }
    }

    /// The global-vision walk decodes edge deltas with register
    /// arithmetic; pin it to [`edge_offset`] for all four codes.
    #[test]
    fn register_walk_deltas_match_edge_offset() {
        for e in 0..4u64 {
            let t = 1i64 - (e & 2) as i64;
            let m = (e & 1) as i64 - 1;
            let o = edge_offset(e as u8);
            assert_eq!((t & m, -t & !m), (o.dx, o.dy), "e={e}");
        }
    }

    /// The 8-lane fast path of [`center_hops`] equals the per-robot
    /// [`center_hop`] of every robot, on random closed walks far from the
    /// center (every word takes the fast path), near it (none does), and
    /// with the center at the 7-cell threshold on either side of the walk
    /// (the path switches word by word).
    #[test]
    fn center_hops_match_per_robot_walk() {
        let mut rng = SplitMix64::new(0x6c0b);
        let dirs = [Offset::RIGHT, Offset::UP, Offset::LEFT, Offset::DOWN];
        let mut hops = Vec::new();
        for case in 0..300 {
            // A random closed walk: steps and their opposites, shuffled.
            let m = rng.range_usize(1, 60);
            let mut steps: Vec<Offset> = (0..m).map(|_| *rng.choose(&dirs)).collect();
            steps.extend(steps.clone().into_iter().map(|s| -s));
            rng.shuffle(&mut steps);
            let mut p = Point::new(0, 0);
            let pos: Vec<Point> = steps
                .iter()
                .map(|&s| {
                    let q = p;
                    p += s;
                    q
                })
                .collect();
            let Ok(chain) = ClosedChain::new(pos.clone()) else {
                continue;
            };
            let bbox = chain.bounding();
            // Far away, inside, and just past the threshold off a corner.
            let reach = [40, 0, 7, 8, 9][case % 5];
            let center = match case % 4 {
                0 => Point::new(bbox.max.x + reach, bbox.max.y + reach),
                1 => Point::new(bbox.min.x - reach, bbox.max.y + reach),
                2 => Point::new(bbox.min.x - reach, bbox.min.y - reach),
                _ => Point::new(bbox.max.x + reach, bbox.min.y - reach),
            };
            center_hops(chain.codes(), chain.origin(), center, &mut hops);
            let want: Vec<u8> = pos
                .iter()
                .map(|&p| hop_code(center_hop(p, center)))
                .collect();
            assert_eq!(hops, want, "case {case}, center {center:?}");
        }
    }

    /// The code-space cancel sweep reaches the same fixpoint as the
    /// position-space original, on hop vectors that actually need
    /// cascaded cancellation.
    #[test]
    fn cancel_codes_matches_boxed_cancel() {
        let chain = ring(7, 4);
        let n = chain.len();
        // A hostile vector: everyone pulls toward the origin, which is
        // full of breaking pairs on the far sides.
        let mut boxed: Vec<Offset> = (0..n)
            .map(|i| {
                let p = chain.pos(i);
                Offset::new(-p.x.signum(), -p.y.signum())
            })
            .collect();
        let mut codes: Vec<u8> = boxed.iter().map(|&o| hop_code(o)).collect();
        enforce_chain_safety(&chain, &mut boxed);
        cancel_breaking_hops(chain.codes(), &mut codes);
        let want: Vec<u8> = boxed.iter().map(|&o| hop_code(o)).collect();
        assert_eq!(codes, want);
    }

    /// FSYNC and SSYNC smoke equivalence for all three kernels: same
    /// outcome, progress, and final positions as the boxed strategies.
    /// (The 500-draw sweep lives in `tests/kernel_diff.rs`.)
    #[test]
    fn kernels_match_boxed_strategies() {
        fn check<S: Strategy, K: RoundKernel>(strategy: S, kernel: K, gathers: bool) {
            let chain = ring(9, 6);
            let limits = RunLimits::for_chain_len(chain.len());
            let mut boxed = Sim::new(chain.clone(), strategy);
            let out_boxed = boxed.run(limits);
            let mut fast = KernelSim::new(kernel_chain(&chain), kernel, FsyncRule);
            let out_fast = fast.run(limits);
            assert_eq!(out_boxed, out_fast);
            assert_eq!(&boxed.progress(), fast.progress());
            assert_eq!(boxed.chain().positions(), fast.chain().positions());
            assert_eq!(matches!(out_fast, Outcome::Gathered { .. }), gathers);
        }
        check(CompassSe::new(), CompassSeKernel::new(), true);
        check(NaiveLocal::new(), NaiveLocalKernel::new(), true);
        check(GlobalVision::new(), GlobalVisionKernel::new(), true);

        // SSYNC round-robin: the activation mask threads through
        // identically (compass-se gathers under any schedule).
        let chain = ring(8, 5);
        let limits = RunLimits::for_chain_len(chain.len());
        let mut boxed = Sim::new(chain.clone(), CompassSe::new())
            .with_scheduler(chain_sim::SchedulerKind::RoundRobin(2).build(0));
        let out_boxed = boxed.run(limits);
        let mut fast = KernelSim::new(
            kernel_chain(&chain),
            CompassSeKernel::new(),
            RoundRobinRule::new(2),
        );
        let out_fast = fast.run(limits);
        assert_eq!(out_boxed, out_fast);
        assert_eq!(&boxed.progress(), fast.progress());
        assert_eq!(boxed.chain().positions(), fast.chain().positions());
    }
}
