//! Packed structure-of-arrays chain state: edge-direction codes, 32 per
//! `u64` word.
//!
//! A taut closed chain — every edge a unit step, the engine's post-merge
//! invariant — is fully determined by one anchor position and the cyclic
//! sequence of its edge directions. That is the representation the
//! paper's L ≤ 27n argument reasons over, and it is 16× denser than a
//! `Vec<Point>`: [`PackedChain`] stores the position of robot 0
//! (`origin`) plus one 2-bit direction code per edge, packed 32 to a
//! `u64`. Positions are derived on demand by prefix-summing edge
//! offsets, and the hot predicates of the round loop — south-east minima
//! for compass movers, turn/run detection, bounding boxes — become
//! word-parallel shift/mask/popcount pipelines over the code words
//! instead of per-robot point arithmetic.
//!
//! The 2-bit code layout makes the two hot classifications single-bit
//! tests:
//!
//! | code | dir | offset     | bit 1 (SE key Δ)  | bit 0 (axis)    |
//! |------|-----|------------|-------------------|-----------------|
//! | `00` | E   | `(+1,  0)` | 0: key +1         | 0: horizontal   |
//! | `01` | S   | `( 0, -1)` | 0: key +1         | 1: vertical     |
//! | `10` | W   | `(-1,  0)` | 1: key −1         | 0: horizontal   |
//! | `11` | N   | `( 0, +1)` | 1: key −1         | 1: vertical     |
//!
//! Bit 1 is the sign of the south-east key delta `Δ(x − y)` along the
//! edge, so the strict-SE-minima scan is a shifted AND-NOT of the bit-1
//! planes; bit 0 is the edge's axis, so turn detection is a shifted XOR;
//! and `code ^ 0b10` is the opposite direction.
//!
//! Lane `i` of the packed words holds the edge from robot `i` to robot
//! `i + 1` (cyclic). A single-robot chain has no edges and an empty code
//! vector. Lanes past `len` in the last word are kept zero.

use grid_geom::{Offset, Point, Rect};

use crate::chain::{ChainError, ClosedChain};

/// Edge code for a `(+1, 0)` (east) unit step.
pub const EDGE_E: u8 = 0b00;
/// Edge code for a `(0, -1)` (south) unit step.
pub const EDGE_S: u8 = 0b01;
/// Edge code for a `(-1, 0)` (west) unit step.
pub const EDGE_W: u8 = 0b10;
/// Edge code for a `(0, +1)` (north) unit step.
pub const EDGE_N: u8 = 0b11;
/// Byte code of an edge of length 0: two chain neighbours on one point,
/// between a move and the merge pass that splices one of them out. Only
/// byte-per-edge code arrays hold it ([`ClosedChain::codes`]); it is the
/// collapse marker of [`crate::kernel::APPLY_EDGE`].
pub const EDGE_ZERO: u8 = 4;

/// 2-bit lanes per packed word.
pub const LANES_PER_WORD: usize = 32;

/// Mask of all even bit positions (bit 0 of every lane).
const LO_PLANE: u64 = 0x5555_5555_5555_5555;

/// The unit-step offset a code denotes.
#[inline]
pub const fn edge_offset(code: u8) -> Offset {
    match code & 3 {
        EDGE_E => Offset::new(1, 0),
        EDGE_S => Offset::new(0, -1),
        EDGE_W => Offset::new(-1, 0),
        _ => Offset::new(0, 1),
    }
}

/// The code of a unit-step offset; `None` for anything else.
#[inline]
pub fn edge_code(d: Offset) -> Option<u8> {
    match (d.dx, d.dy) {
        (1, 0) => Some(EDGE_E),
        (0, -1) => Some(EDGE_S),
        (-1, 0) => Some(EDGE_W),
        (0, 1) => Some(EDGE_N),
        _ => None,
    }
}

/// The code of an offset known to be a unit step, without a branch: bit 0
/// is the axis (`dx == 0`) and bit 1 the sign of `dx − dy`, as in the
/// table above. Agrees with [`edge_code`] on the four unit steps; debug
/// builds assert that `d` is one.
#[inline]
fn unit_edge_code(d: Offset) -> u8 {
    debug_assert!(d.is_unit_step(), "{d:?} is not a unit step");
    u8::from(d.dx == 0) | (u8::from(d.dx - d.dy < 0) << 1)
}

/// One code per edge of a taut cyclic position sequence, in the byte
/// layout of [`PackedChain::decode_into`] (byte `i` = edge `i → i+1`),
/// read straight from the positions. `out` is cleared; a chain of fewer
/// than two robots has no edges and leaves it empty. Reuses `out`'s
/// capacity, so a caller that keeps the buffer across rounds of a
/// shrinking chain allocates once.
pub fn edge_codes_into(pos: &[Point], out: &mut Vec<u8>) {
    out.clear();
    let n = pos.len();
    if n < 2 {
        return;
    }
    out.reserve(n);
    out.extend(pos.windows(2).map(|w| unit_edge_code(w[1] - w[0])));
    out.push(unit_edge_code(pos[0] - pos[n - 1]));
}

/// The opposite direction's code.
#[inline]
pub const fn opposite(code: u8) -> u8 {
    code ^ 0b10
}

/// Mask covering the low `lanes` 2-bit lanes of a word.
#[inline]
const fn lane_mask(lanes: usize) -> u64 {
    if lanes >= LANES_PER_WORD {
        u64::MAX
    } else {
        (1u64 << (2 * lanes)) - 1
    }
}

/// Per-byte walk tables: a byte is 4 consecutive edge lanes; the tables
/// give the net displacement after the 4 steps and the min/max of the
/// 1..=4 step prefix sums (all in `[-4, 4]`, so `i8`).
struct ByteWalk {
    net_dx: [i8; 256],
    net_dy: [i8; 256],
    min_dx: [i8; 256],
    max_dx: [i8; 256],
    min_dy: [i8; 256],
    max_dy: [i8; 256],
}

const fn build_byte_walk() -> ByteWalk {
    let mut t = ByteWalk {
        net_dx: [0; 256],
        net_dy: [0; 256],
        min_dx: [0; 256],
        max_dx: [0; 256],
        min_dy: [0; 256],
        max_dy: [0; 256],
    };
    let mut b = 0usize;
    while b < 256 {
        let (mut x, mut y) = (0i8, 0i8);
        let (mut min_x, mut max_x, mut min_y, mut max_y) = (0i8, 0i8, 0i8, 0i8);
        let mut lane = 0usize;
        while lane < 4 {
            let code = ((b >> (2 * lane)) & 3) as u8;
            let o = edge_offset(code);
            x += o.dx as i8;
            y += o.dy as i8;
            if x < min_x {
                min_x = x;
            }
            if x > max_x {
                max_x = x;
            }
            if y < min_y {
                min_y = y;
            }
            if y > max_y {
                max_y = y;
            }
            lane += 1;
        }
        t.net_dx[b] = x;
        t.net_dy[b] = y;
        t.min_dx[b] = min_x;
        t.max_dx[b] = max_x;
        t.min_dy[b] = min_y;
        t.max_dy[b] = max_y;
        b += 1;
    }
    t
}

static BYTE_WALK: ByteWalk = build_byte_walk();

/// A taut closed chain as origin + packed edge codes (see the
/// [module docs](self)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedChain {
    pub(crate) origin: Point,
    pub(crate) len: usize,
    pub(crate) codes: Vec<u64>,
}

impl PackedChain {
    /// Pack a [`ClosedChain`] from its edge codes. Requires a *taut*
    /// chain — the engine's between-rounds invariant: an edge left
    /// collapsed by a move is reported by [`ClosedChain::validate`].
    pub fn from_chain(chain: &ClosedChain) -> Result<PackedChain, ChainError> {
        chain.validate()?;
        let mut codes = vec![0u64; chain.codes().len().div_ceil(LANES_PER_WORD)];
        for (i, &code) in chain.codes().iter().enumerate() {
            codes[i / LANES_PER_WORD] |= u64::from(code) << ((i % LANES_PER_WORD) * 2);
        }
        Ok(PackedChain {
            origin: chain.origin(),
            len: chain.len(),
            codes,
        })
    }

    /// Pack a taut cyclic position sequence (see
    /// [`PackedChain::from_chain`]).
    pub fn from_positions(pos: &[Point]) -> Result<PackedChain, ChainError> {
        let n = pos.len();
        if n == 0 {
            return Err(ChainError::TooShort { len: 0 });
        }
        let origin = pos[0];
        if n == 1 {
            return Ok(PackedChain {
                origin,
                len: 1,
                codes: Vec::new(),
            });
        }
        let mut codes = vec![0u64; n.div_ceil(LANES_PER_WORD)];
        for (i, &p) in pos.iter().enumerate() {
            let next = pos[(i + 1) % n];
            let code = edge_code(next - p).ok_or(if next == p {
                ChainError::CoincidentNeighbors { index: i, at: p }
            } else {
                ChainError::Disconnected {
                    index: i,
                    a: p,
                    b: next,
                }
            })?;
            codes[i / LANES_PER_WORD] |= u64::from(code) << ((i % LANES_PER_WORD) * 2);
        }
        Ok(PackedChain {
            origin,
            len: n,
            codes,
        })
    }

    /// Robots in the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the chain has no robots (never for a packed chain
    /// built through the public constructors).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position of robot 0.
    #[inline]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// The packed code words (lane `i` = edge `i → i+1`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.codes
    }

    /// The code of edge `i` (from robot `i` to robot `i + 1`, cyclic).
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        debug_assert!(i < self.len && self.len >= 2);
        ((self.codes[i / LANES_PER_WORD] >> ((i % LANES_PER_WORD) * 2)) & 3) as u8
    }

    /// Overwrite the code of edge `i`.
    #[inline]
    pub fn set(&mut self, i: usize, code: u8) {
        debug_assert!(i < self.len && self.len >= 2);
        let (w, s) = (i / LANES_PER_WORD, (i % LANES_PER_WORD) * 2);
        self.codes[w] = (self.codes[w] & !(3u64 << s)) | (u64::from(code & 3) << s);
    }

    /// Derive all robot positions (robot 0 first).
    pub fn positions(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.origin;
        out.push(cur);
        for i in 0..self.len.saturating_sub(1) {
            cur += edge_offset(self.get(i));
            out.push(cur);
        }
        out
    }

    /// Unpack every edge code into one byte per lane. `out` is resized
    /// to `len`. One load per 32 lanes — the round kernels decode once
    /// per round and then index the byte scratch instead of paying the
    /// word/shift arithmetic of [`PackedChain::get`] per access.
    pub fn decode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.resize(self.len, 0);
        for (chunk, &word) in out.chunks_mut(LANES_PER_WORD).zip(&self.codes) {
            let mut w = word;
            for lane in chunk {
                *lane = (w & 3) as u8;
                w >>= 2;
            }
        }
    }

    /// Bounding box of all robot positions, walking the packed codes a
    /// byte (4 edges) at a time through precomputed net/min/max prefix
    /// tables instead of materializing positions.
    pub fn bounding(&self) -> Rect {
        let (mut x, mut y) = (self.origin.x, self.origin.y);
        let (mut min_x, mut max_x, mut min_y, mut max_y) = (x, x, y, y);
        let mut edges = self.len.saturating_sub(1);
        let mut i = 0usize;
        while edges >= 4 {
            let b =
                ((self.codes[i / LANES_PER_WORD] >> ((i % LANES_PER_WORD) * 2)) & 0xFF) as usize;
            min_x = min_x.min(x + i64::from(BYTE_WALK.min_dx[b]));
            max_x = max_x.max(x + i64::from(BYTE_WALK.max_dx[b]));
            min_y = min_y.min(y + i64::from(BYTE_WALK.min_dy[b]));
            max_y = max_y.max(y + i64::from(BYTE_WALK.max_dy[b]));
            x += i64::from(BYTE_WALK.net_dx[b]);
            y += i64::from(BYTE_WALK.net_dy[b]);
            i += 4;
            edges -= 4;
        }
        while edges > 0 {
            let o = edge_offset(self.get(i));
            x += o.dx;
            y += o.dy;
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
            i += 1;
            edges -= 1;
        }
        Rect {
            min: Point::new(min_x, min_y),
            max: Point::new(max_x, max_y),
        }
    }

    /// Word-parallel strict south-east-minima scan: robot `i` is marked
    /// iff `se_key(i−1) > se_key(i) < se_key(i+1)` with `se_key = x − y`
    /// — the compass-se mover rule. `out` receives one word per 32
    /// robots with bit `2·lane` set for each marked robot. Requires
    /// `len ≥ 2`.
    pub fn strict_se_minima_into(&self, out: &mut Vec<u64>) {
        debug_assert!(self.len >= 2);
        let words = self.len.div_ceil(LANES_PER_WORD);
        out.clear();
        out.resize(words, 0);
        // Bit-1 plane: 1 ⇔ the edge *decreases* the key. Robot i is a
        // strict minimum iff edge i−1 decreases and edge i increases.
        let mut carry = u64::from(self.get(self.len - 1) >> 1); // hi bit of the wrap edge
        for (w, slot) in out.iter_mut().enumerate() {
            let hi = self.codes[w] & !LO_PLANE;
            let prev = (hi << 2) | (carry << 1);
            carry = self.codes[w] >> 63;
            let mut m = ((prev & !hi) >> 1) & LO_PLANE;
            if w == words - 1 {
                m &= lane_mask(self.len - w * LANES_PER_WORD);
            }
            *slot = m;
        }
    }

    /// Word-parallel turn count: the number of robots whose two incident
    /// edges lie on different axes (equivalently, the number of maximal
    /// straight runs of the cyclic direction sequence). Zero for
    /// `len < 2`.
    pub fn turn_count(&self) -> usize {
        if self.len < 2 {
            return 0;
        }
        let words = self.len.div_ceil(LANES_PER_WORD);
        let mut carry = u64::from(self.get(self.len - 1) & 1);
        let mut total = 0u32;
        for w in 0..words {
            let lo = self.codes[w] & LO_PLANE;
            let prev = (lo << 2) | carry;
            carry = (self.codes[w] >> 62) & 1;
            let mut m = lo ^ prev;
            if w == words - 1 {
                m &= lane_mask(self.len - w * LANES_PER_WORD);
            }
            total += m.count_ones();
        }
        total as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ClosedChain;

    /// Rectangle-perimeter ring, the canonical taut closed chain.
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

    /// A staircase ring: up-right steps along the diagonal, closed by a
    /// straight return path — exercises all four directions and word
    /// boundaries.
    fn staircase(steps: i64) -> ClosedChain {
        let mut pts = Vec::new();
        // Rising staircase: E, N, E, N, ...
        for k in 0..steps {
            pts.push(Point::new(k, k));
            pts.push(Point::new(k + 1, k));
        }
        // Down the east wall, then west along the bottom back to start.
        for y in (1..=steps).rev() {
            pts.push(Point::new(steps, y));
        }
        for x in (1..=steps).rev() {
            pts.push(Point::new(x, 0));
        }
        ClosedChain::new(pts).unwrap()
    }

    fn se_key(p: Point) -> i64 {
        p.x - p.y
    }

    #[test]
    fn round_trips_positions() {
        for chain in [ring(4, 3), ring(20, 2), ring(17, 9), staircase(40)] {
            let packed = PackedChain::from_chain(&chain).unwrap();
            assert_eq!(packed.len(), chain.len());
            assert_eq!(packed.positions(), chain.positions());
        }
    }

    #[test]
    fn rejects_non_taut_input() {
        let gap = PackedChain::from_positions(&[Point::new(0, 0), Point::new(2, 0)]);
        assert!(matches!(
            gap,
            Err(ChainError::Disconnected { index: 0, .. })
        ));
        let dup =
            PackedChain::from_positions(&[Point::new(0, 0), Point::new(0, 0), Point::new(1, 0)]);
        assert!(matches!(
            dup,
            Err(ChainError::CoincidentNeighbors { index: 0, .. })
        ));
    }

    #[test]
    fn singleton_has_no_edges() {
        let p = PackedChain::from_positions(&[Point::new(7, -3)]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.positions(), vec![Point::new(7, -3)]);
        assert_eq!(p.bounding(), Rect::point(Point::new(7, -3)));
        assert_eq!(p.turn_count(), 0);
    }

    #[test]
    fn code_algebra() {
        for code in 0..4u8 {
            let o = edge_offset(code);
            assert!(o.is_unit_step());
            assert_eq!(edge_code(o), Some(code));
            assert_eq!(edge_offset(opposite(code)), -o);
            // bit 1 is the SE-key delta sign, bit 0 the axis.
            let key_delta = o.dx - o.dy;
            assert_eq!(code >> 1 == 1, key_delta < 0);
            assert_eq!(code & 1 == 1, o.dx == 0);
        }
        for o in [Offset::RIGHT, Offset::DOWN, Offset::LEFT, Offset::UP] {
            assert_eq!(Some(unit_edge_code(o)), edge_code(o));
        }
        assert_eq!(edge_code(Offset::ZERO), None);
        assert_eq!(edge_code(Offset::new(1, 1)), None);
    }

    #[test]
    fn bounding_matches_bruteforce() {
        for chain in [ring(3, 2), ring(40, 2), ring(33, 31), ring(7, 66)] {
            let packed = PackedChain::from_chain(&chain).unwrap();
            let brute = Rect::bounding(chain.positions().iter().copied()).unwrap();
            assert_eq!(packed.bounding(), brute);
        }
    }

    #[test]
    fn minima_mask_matches_bruteforce() {
        for chain in [ring(3, 2), ring(5, 5), ring(40, 2), ring(19, 23)] {
            let packed = PackedChain::from_chain(&chain).unwrap();
            let pos = chain.positions();
            let n = pos.len();
            let mut mask = Vec::new();
            packed.strict_se_minima_into(&mut mask);
            for (i, &p) in pos.iter().enumerate() {
                let prev = pos[(i + n - 1) % n];
                let next = pos[(i + 1) % n];
                let want = se_key(prev) > se_key(p) && se_key(next) > se_key(p);
                let got = mask[i / LANES_PER_WORD] >> ((i % LANES_PER_WORD) * 2) & 1 == 1;
                assert_eq!(got, want, "robot {i} of {n}");
            }
            // No bits beyond the chain length.
            let bits: u32 = mask.iter().map(|w| w.count_ones()).sum();
            let brute = (0..n)
                .filter(|&i| {
                    se_key(pos[(i + n - 1) % n]) > se_key(pos[i])
                        && se_key(pos[(i + 1) % n]) > se_key(pos[i])
                })
                .count();
            assert_eq!(bits as usize, brute);
        }
    }

    #[test]
    fn turn_count_matches_bruteforce() {
        for chain in [ring(3, 2), ring(5, 5), ring(40, 2), ring(19, 23)] {
            let packed = PackedChain::from_chain(&chain).unwrap();
            let pos = chain.positions();
            let n = pos.len();
            let brute = (0..n)
                .filter(|&i| {
                    let a = pos[i] - pos[(i + n - 1) % n];
                    let b = pos[(i + 1) % n] - pos[i];
                    (a.dx == 0) != (b.dx == 0)
                })
                .count();
            assert_eq!(packed.turn_count(), brute, "n={n}");
        }
    }

    #[test]
    fn edge_codes_match_decoded_packing() {
        let mut bytes = Vec::new();
        let mut decoded = Vec::new();
        let pair = ClosedChain::new(vec![Point::new(0, 0), Point::new(0, 1)]).unwrap();
        for chain in [
            pair,
            ring(2, 2),
            ring(3, 2),
            ring(40, 2),
            ring(19, 23),
            staircase(40),
        ] {
            let packed = PackedChain::from_chain(&chain).unwrap();
            packed.decode_into(&mut decoded);
            edge_codes_into(chain.positions(), &mut bytes);
            assert_eq!(bytes, decoded, "n={}", chain.len());
        }
        edge_codes_into(&[Point::new(3, 3)], &mut bytes);
        assert!(bytes.is_empty());
    }

    #[test]
    fn set_rewrites_lanes() {
        let chain = ring(6, 4);
        let mut packed = PackedChain::from_chain(&chain).unwrap();
        let old = packed.get(5);
        packed.set(5, opposite(old));
        assert_eq!(packed.get(5), opposite(old));
        packed.set(5, old);
        assert_eq!(packed.positions(), chain.positions());
    }
}
