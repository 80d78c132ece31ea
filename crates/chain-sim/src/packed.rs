//! Chain state as edge-direction codes, one byte per edge, and the rule
//! by which a round rewrites and splices them.
//!
//! A taut closed chain — every edge a unit step, the engine's post-merge
//! invariant — is fully determined by one anchor position and the cyclic
//! sequence of its edge directions. That is the representation the
//! paper's L ≤ 27n argument reasons over, and the one both engines run
//! on: the boxed [`ClosedChain`] and the kernels' [`PackedChain`] store
//! the position of robot 0 (`origin`) plus one direction code per edge,
//! in a byte. Positions are derived on demand by prefix-summing edge
//! offsets, and the hot predicates of the round loop — south-east minima
//! for compass movers, turn/run detection, collapsed edges — become
//! SWAR shift/mask/popcount pipelines over eight codes per `u64` word
//! instead of per-robot point arithmetic.
//!
//! The code layout makes the two hot classifications single-bit tests:
//!
//! | code | dir | offset     | bit 1 (SE key Δ)  | bit 0 (axis)    |
//! |------|-----|------------|-------------------|-----------------|
//! | `0`  | E   | `(+1,  0)` | 0: key +1         | 0: horizontal   |
//! | `1`  | S   | `( 0, -1)` | 0: key +1         | 1: vertical     |
//! | `2`  | W   | `(-1,  0)` | 1: key −1         | 0: horizontal   |
//! | `3`  | N   | `( 0, +1)` | 1: key −1         | 1: vertical     |
//! | `4`  | —   | `( 0,  0)` | collapsed ([`EDGE_ZERO`]) |         |
//!
//! Bit 1 is the sign of the south-east key delta `Δ(x − y)` along the
//! edge, so the strict-SE-minima scan is a shifted AND-NOT of the bit-1
//! planes; bit 0 is the edge's axis, so turn detection is a shifted XOR;
//! and `code ^ 0b10` is the opposite direction.
//!
//! Byte `i` holds the edge from robot `i` to robot `i + 1` (cyclic). A
//! single-robot chain has no edges and an empty code vector.
//!
//! # The edge round
//!
//! Both chains move through the same two functions over
//! `(origin, codes, next)`:
//!
//! * `rewrite` rewrites every edge from the hops of its two robots
//!   ([`APPLY_EDGE`]) into the second buffer `next`, which replaces the
//!   codes only if no edge stretched. It is generic over the hop alphabet
//!   ([`GuardHop`]: [`Offset`]s for the boxed engine, hop codes for the
//!   kernels), so each caller gets its own monomorphized loop.
//! * `splice` removes the edges the rewrite collapsed to
//!   [`EDGE_ZERO`], eight codes per word from the first one on (a word
//!   without a collapsed edge is copied whole), and hands the origin over
//!   when robot 0 goes.
//!
//! [`ClosedChain`] adds robot ids and the merge log on top of these.

use grid_geom::{Offset, Point, Rect};

use crate::chain::{ChainError, ClosedChain};
use crate::kernel::{stretched_edge, APPLY_EDGE, EDGE_BROKEN, HOP_ZERO};
use crate::safety::GuardHop;

/// Edge code for a `(+1, 0)` (east) unit step.
pub const EDGE_E: u8 = 0b00;
/// Edge code for a `(0, -1)` (south) unit step.
pub const EDGE_S: u8 = 0b01;
/// Edge code for a `(-1, 0)` (west) unit step.
pub const EDGE_W: u8 = 0b10;
/// Edge code for a `(0, +1)` (north) unit step.
pub const EDGE_N: u8 = 0b11;
/// Code of an edge of length 0: two chain neighbours on one point,
/// between a move and the merge pass that splices one of them out. It is
/// the collapse marker of [`crate::kernel::APPLY_EDGE`].
pub const EDGE_ZERO: u8 = 4;

/// Bit 0 of every byte of a word.
const BYTE_LOW: u64 = 0x0101_0101_0101_0101;

/// Bits 0..=6 of every byte: the exact zero-byte test of [`byte_hits`].
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

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

/// One code per edge of a taut cyclic position sequence (byte `i` = edge
/// `i → i+1`), read straight from the positions. `out` is cleared; a
/// chain of fewer than two robots has no edges and leaves it empty.
/// Reuses `out`'s capacity, so a caller that keeps the buffer across
/// rounds of a shrinking chain allocates once.
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

/// The offset of each code, [`EDGE_ZERO`] last.
const STEPS: [Offset; 5] = [
    edge_offset(0),
    edge_offset(1),
    edge_offset(2),
    edge_offset(3),
    Offset::ZERO,
];

/// The offset a code denotes, [`EDGE_ZERO`] included.
#[inline]
pub(crate) fn step_offset(code: u8) -> Offset {
    STEPS[code as usize]
}

/// High bit of each byte of `word` that equals `code`.
#[inline]
fn byte_hits(word: u64, code: u8) -> u64 {
    let x = word ^ u64::from_ne_bytes([code; 8]);
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The net step of eight codes packed little-endian in `word`, counted
/// per direction ([`EDGE_ZERO`] bytes count for nothing).
#[inline]
pub fn word_offset(word: u64) -> Offset {
    let count = |code| i64::from(byte_hits(word, code).count_ones());
    Offset::new(count(EDGE_E) - count(EDGE_W), count(EDGE_N) - count(EDGE_S))
}

/// The eight codes from `base` on as one little-endian word; a short last
/// word is padded with [`EDGE_E`].
#[inline]
fn load_word(codes: &[u8], base: usize) -> u64 {
    match codes.get(base..base + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("8 codes")),
        None => {
            let mut word = [EDGE_E; 8];
            let tail = &codes[base.min(codes.len())..];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(word)
        }
    }
}

/// `f(prev, cur)` for each word of eight codes, robot by robot: `cur`
/// holds the out-edges of robots `8k..8k+8` and `prev` their in-edges
/// (cyclic), both loaded from the codes, so nothing carries from word to
/// word. The lanes of the last word past the last robot are cleared.
/// Requires at least one code.
fn neighbour_words<F>(codes: &[u8], f: F) -> impl Iterator<Item = u64> + '_
where
    F: Fn(u64, u64) -> u64 + Copy + 'static,
{
    let n = codes.len();
    let first = load_word(codes, 0);
    let head = f((first << 8) | u64::from(codes[n - 1]), first) & lanes_below(n);
    let words = |from: usize| {
        codes
            .get(from..)
            .unwrap_or_default()
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 codes")))
    };
    let body = words(7).zip(words(8)).map(move |(prev, cur)| f(prev, cur));
    let done = 8 + n.saturating_sub(8) / 8 * 8;
    let tail = (done < n)
        .then(|| f(load_word(codes, done - 1), load_word(codes, done)) & lanes_below(n - done));
    std::iter::once(head).chain(body).chain(tail)
}

/// Mask of the low `lanes` bytes of a word.
#[inline]
const fn lanes_below(lanes: usize) -> u64 {
    if lanes >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * lanes)) - 1
    }
}

/// `p` moved along the edges `codes` (collapsed ones included), summing
/// eight codes per word.
pub(crate) fn walk(p: Point, codes: &[u8]) -> Point {
    let words = codes.chunks_exact(8);
    let rest = words.remainder();
    let p = words.fold(p, |q, w| {
        q + word_offset(u64::from_le_bytes(w.try_into().expect("8 codes")))
    });
    rest.iter().fold(p, |q, &c| q + step_offset(c))
}

/// The positions of the robots of the chain with robot 0 at `origin` and
/// edges `codes`, robot 0 first.
pub(crate) fn decode(origin: Point, codes: &[u8]) -> Vec<Point> {
    let mut out = Vec::with_capacity(codes.len().max(1));
    let mut p = origin;
    out.push(p);
    // The closing edge leads back to robot 0.
    for &c in &codes[..codes.len().saturating_sub(1)] {
        p += step_offset(c);
        out.push(p);
    }
    out
}

/// The walk along four direction codes, relative to its start: the net
/// step and the extremes of the four positions it reaches.
#[derive(Clone, Copy)]
struct Quad {
    dx: i8,
    dy: i8,
    min_x: i8,
    max_x: i8,
    min_y: i8,
    max_y: i8,
}

/// `QUADS[q]` walks the four codes packed two bits each in `q`, the first
/// in bits 0..2.
static QUADS: [Quad; 256] = build_quads();

const fn build_quads() -> [Quad; 256] {
    let zero = Quad {
        dx: 0,
        dy: 0,
        min_x: i8::MAX,
        max_x: i8::MIN,
        min_y: i8::MAX,
        max_y: i8::MIN,
    };
    let mut t = [zero; 256];
    let mut q = 0;
    while q < 256 {
        let mut w = zero;
        let mut k = 0;
        while k < 4 {
            let step = edge_offset((q >> (2 * k)) as u8);
            w.dx += step.dx as i8;
            w.dy += step.dy as i8;
            w.min_x = if w.dx < w.min_x { w.dx } else { w.min_x };
            w.max_x = if w.dx > w.max_x { w.dx } else { w.max_x };
            w.min_y = if w.dy < w.min_y { w.dy } else { w.min_y };
            w.max_y = if w.dy > w.max_y { w.dy } else { w.max_y };
            k += 1;
        }
        t[q] = w;
        q += 1;
    }
    t
}

/// The eight direction codes of `word` (each below 4), two bits each,
/// the first in bits 0..2.
#[inline]
fn gather_codes(word: u64) -> u16 {
    let w = (word | (word >> 6)) & 0x000f_000f_000f_000f;
    let w = (w | (w >> 12)) & 0x0000_00ff_0000_00ff;
    (w | (w >> 24)) as u16
}

/// The bounding box of the chain with robot 0 at `origin` and edges
/// `codes`, walked from the edges: four codes per table lookup
/// ([`QUADS`]), code by code in a word that holds [`EDGE_ZERO`] and in
/// the short tail.
pub(crate) fn bounding(origin: Point, codes: &[u8]) -> Rect {
    let mut p = origin;
    let mut r = Rect::point(p);
    let mut words = codes[..codes.len().saturating_sub(1)].chunks_exact(8);
    for chunk in words.by_ref() {
        let word = u64::from_le_bytes(chunk.try_into().expect("8 codes"));
        if word & (u64::from(EDGE_ZERO) * BYTE_LOW) != 0 {
            for &c in chunk {
                p += step_offset(c);
                r.expand(p);
            }
            continue;
        }
        let quads = gather_codes(word);
        for q in [quads & 0xff, quads >> 8] {
            let q = QUADS[usize::from(q)];
            r.min.x = r.min.x.min(p.x + i64::from(q.min_x));
            r.max.x = r.max.x.max(p.x + i64::from(q.max_x));
            r.min.y = r.min.y.min(p.y + i64::from(q.min_y));
            r.max.y = r.max.y.max(p.y + i64::from(q.max_y));
            p += Offset::new(i64::from(q.dx), i64::from(q.dy));
        }
    }
    for &c in words.remainder() {
        p += step_offset(c);
        r.expand(p);
    }
    r
}

/// A cursor over the indices of the collapsed edges ([`EDGE_ZERO`]) of a
/// code array, ascending, found eight codes per word test. It keeps no
/// borrow of the codes, so a caller may compact them behind it: every
/// code at or past the last index reported is still unread or cached.
pub(crate) struct CollapsedEdges {
    /// Index of the first code of the current word.
    base: usize,
    /// High bit of each byte of the current word still to report.
    hits: u64,
}

impl CollapsedEdges {
    /// The collapsed edges of `codes` from index `from` on.
    pub(crate) fn starting_at(codes: &[u8], from: usize) -> Self {
        let base = from & !7;
        let hits = byte_hits(load_word(codes, base), EDGE_ZERO) & (u64::MAX << (8 * (from - base)));
        CollapsedEdges { base, hits }
    }

    /// The next collapsed edge of `codes`.
    #[inline]
    pub(crate) fn next(&mut self, codes: &[u8]) -> Option<usize> {
        while self.hits == 0 {
            self.base += 8;
            if self.base >= codes.len() {
                return None;
            }
            self.hits = byte_hits(load_word(codes, self.base), EDGE_ZERO);
        }
        let byte = self.hits.trailing_zeros() as usize / 8;
        self.hits &= self.hits - 1;
        Some(self.base + byte)
    }
}

/// The state of one [`rewrite`]'s pass over the edges.
struct Pass {
    /// Hop code of the robot at the tail of the next edge.
    tail: usize,
    /// Every new code or'ed together: bit 2 is set by a collapse
    /// ([`EDGE_ZERO`]) and bit 7 only by a stretch ([`EDGE_BROKEN`]).
    marks: u8,
    /// No hop seen was illegal.
    legal: bool,
    /// Robots seen moving (as edge tails).
    moved: usize,
}

impl Pass {
    /// Rewrite the edges `codes` into `next`; `heads[k]` is the hop of
    /// the robot at the head of edge `k`. Branch-free per edge.
    #[inline]
    fn edges<H: GuardHop>(&mut self, codes: &[u8], next: &mut [u8], heads: &[H]) {
        for ((&code, out), &h) in codes.iter().zip(next).zip(heads) {
            let (head, legal) = h.code();
            self.legal &= legal;
            // Between rounds every code is a direction (< 4).
            let new = APPLY_EDGE[usize::from(code & 3)][self.tail][head];
            *out = new;
            self.marks |= new;
            self.moved += usize::from(self.tail != usize::from(HOP_ZERO));
            self.tail = head;
        }
    }
}

/// What a [`rewrite`] did.
pub(crate) struct Rewritten {
    /// Robots with a nonzero hop.
    pub(crate) moved: usize,
    /// Some edge collapsed to [`EDGE_ZERO`]; [`splice`] must follow.
    pub(crate) collapsed: bool,
}

/// Move the chain with robot 0 at `origin` and taut edges `codes` by one
/// hop per robot, simultaneously.
///
/// Every edge is rewritten through [`APPLY_EDGE`] from the hops of its
/// two robots, in one pass into `next`, which is swapped with `codes`
/// only if the move is legal; a block of eight edges between nine equal
/// hops is copied as it is. An illegal hop is reported first, then the
/// first edge that would stretch, as [`ChainError::Disconnected`] with
/// the post-move positions of its two robots; `origin` and `codes` are
/// then left as they were. Edges that collapse hold [`EDGE_ZERO`].
pub(crate) fn rewrite<H: GuardHop>(
    origin: &mut Point,
    codes: &mut Vec<u8>,
    next: &mut Vec<u8>,
    hops: &[H],
) -> Result<Rewritten, ChainError> {
    let n = hops.len();
    let (first, legal) = hops[0].code();
    if codes.is_empty() {
        // One robot, no edges.
        if !legal {
            return Err(ChainError::IllegalHop {
                index: 0,
                hop: hops[0].offset(),
            });
        }
        *origin += hops[0].offset();
        return Ok(Rewritten {
            moved: usize::from(first != usize::from(HOP_ZERO)),
            collapsed: false,
        });
    }
    debug_assert_eq!(codes.len(), n);
    next.resize(n, 0);
    let mut pass = Pass {
        tail: first,
        marks: 0,
        legal: true,
        moved: 0,
    };
    // Blocks of eight edges; nine equal hops translate the eight edges
    // between them rigidly. The block's tails all hop like its first.
    let mut i = 0;
    while i + 9 <= n {
        if H::nine_copied(hops, i) {
            next[i..i + 8].copy_from_slice(&codes[i..i + 8]);
            pass.moved += 8 * usize::from(pass.tail != usize::from(HOP_ZERO));
        } else {
            pass.edges(&codes[i..i + 8], &mut next[i..i + 8], &hops[i + 1..i + 9]);
        }
        i += 8;
    }
    pass.edges(&codes[i..n - 1], &mut next[i..n - 1], &hops[i + 1..]);
    pass.edges(&codes[n - 1..], &mut next[n - 1..], &hops[..1]);
    if !pass.legal {
        // A copied block's hops equal its first, which is the head of
        // the edge before it (robot 0 heads the closing edge): every hop
        // was checked.
        let index = hops
            .iter()
            .position(|h| !h.code().1)
            .expect("an illegal hop was seen");
        return Err(ChainError::IllegalHop {
            index,
            hop: hops[index].offset(),
        });
    }
    if pass.marks & 0x80 != 0 {
        let j = next
            .iter()
            .position(|&c| c == EDGE_BROKEN)
            .expect("a stretched edge was seen");
        let head = if j + 1 == n { 0 } else { j + 1 };
        return Err(stretched_edge(
            j,
            walk(*origin, &codes[..j]),
            edge_offset(codes[j]),
            [hops[j].offset(), hops[head].offset()],
        ));
    }
    std::mem::swap(codes, next);
    *origin += hops[0].offset();
    Ok(Rewritten {
        moved: pass.moved,
        collapsed: pass.marks & EDGE_ZERO != 0,
    })
}

/// Splice the collapsed edges ([`EDGE_ZERO`]) out of the chain with robot
/// 0 at `origin`: robot `e + 1` goes when edge `e` collapsed, and the
/// survivors keep their cyclic order. Returns the number of robots
/// removed.
///
/// The codes are compacted from the first collapsed edge on, eight per
/// word: a word without [`EDGE_ZERO`] is copied whole, and a word with one
/// code by code, without a branch. When robot 0 goes (the closing edge
/// collapsed), the first survivor becomes robot 0: the origin moves along
/// the first edge that kept its length, and the codes rotate so that edge
/// comes last. When every edge collapsed, robot 0 is the one robot left.
pub(crate) fn splice(origin: &mut Point, codes: &mut Vec<u8>) -> usize {
    let n = codes.len();
    let Some(first) = CollapsedEdges::starting_at(codes, 0).next(codes) else {
        return 0;
    };
    let wraps = codes[n - 1] == EDGE_ZERO;
    // Every write lands at or below the code it copies, and a word is
    // read before any of it is overwritten.
    let (mut read, mut write) = (first, first);
    while read + 8 <= n {
        let word: [u8; 8] = codes[read..read + 8].try_into().expect("8 codes");
        if byte_hits(u64::from_le_bytes(word), EDGE_ZERO) == 0 {
            codes[write..write + 8].copy_from_slice(&word);
            write += 8;
        } else {
            write = compact(codes, write, word);
        }
        read += 8;
    }
    let mut tail = [EDGE_ZERO; 8];
    tail[..n - read].copy_from_slice(&codes[read..]);
    let write = compact(codes, write, tail);
    codes.truncate(write);
    if write == 0 {
        return n - 1;
    }
    if wraps {
        *origin += edge_offset(codes[0]);
        codes.rotate_left(1);
    }
    n - write
}

/// Write the codes of `word` that are not [`EDGE_ZERO`] to `codes` from
/// `write` on; returns the next write index. Each code is stored, and the
/// index advances past the ones kept. [`splice`] keeps `write` at or
/// below the index of the code it stores, and the padding of its short
/// last word below the chain's length, so every store is in bounds.
#[inline]
fn compact(codes: &mut [u8], mut write: usize, word: [u8; 8]) -> usize {
    for c in word {
        codes[write] = c;
        write += usize::from(c != EDGE_ZERO);
    }
    write
}

/// A taut closed chain as origin + one edge code per byte (see the
/// [module docs](self)): the state [`crate::KernelChain`] runs on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedChain {
    pub(crate) origin: Point,
    /// `codes[i]` is the edge from robot `i` to robot `i + 1` (cyclic);
    /// empty for a single robot.
    pub(crate) codes: Vec<u8>,
}

impl PackedChain {
    /// Copy the edge codes of a [`ClosedChain`]. Requires a *taut* chain —
    /// the engine's between-rounds invariant: an edge left collapsed by a
    /// move is reported by [`ClosedChain::validate`].
    pub fn from_chain(chain: &ClosedChain) -> Result<PackedChain, ChainError> {
        chain.validate()?;
        Ok(PackedChain {
            origin: chain.origin(),
            codes: chain.codes().to_vec(),
        })
    }

    /// Pack a taut cyclic position sequence (see
    /// [`PackedChain::from_chain`]).
    pub fn from_positions(pos: &[Point]) -> Result<PackedChain, ChainError> {
        let n = pos.len();
        let Some(&origin) = pos.first() else {
            return Err(ChainError::TooShort { len: 0 });
        };
        let mut codes = Vec::with_capacity(n);
        if n > 1 {
            for (i, &p) in pos.iter().enumerate() {
                let next = pos[(i + 1) % n];
                codes.push(edge_code(next - p).ok_or(if next == p {
                    ChainError::CoincidentNeighbors { index: i, at: p }
                } else {
                    ChainError::Disconnected {
                        index: i,
                        a: p,
                        b: next,
                    }
                })?);
            }
        }
        Ok(PackedChain { origin, codes })
    }

    /// Robots in the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len().max(1)
    }

    /// `false`: a packed chain holds at least robot 0.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Position of robot 0.
    #[inline]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// The edge codes, one byte per edge: byte `i` is the step from robot
    /// `i` to robot `i + 1` (cyclic). A single robot has none.
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Derive all robot positions (robot 0 first).
    pub fn positions(&self) -> Vec<Point> {
        decode(self.origin, &self.codes)
    }

    /// Bounding box of all robot positions, walked from the edges.
    pub fn bounding(&self) -> Rect {
        bounding(self.origin, &self.codes)
    }

    /// Word-parallel strict south-east-minima scan: robot `i` is marked
    /// iff `se_key(i−1) > se_key(i) < se_key(i+1)` with `se_key = x − y`
    /// — the compass-se mover rule. `out` receives one word per 8 robots
    /// with bit `8·lane` set for each marked robot. Requires `len ≥ 2`.
    pub fn strict_se_minima_into(&self, out: &mut Vec<u64>) {
        debug_assert!(self.codes.len() >= 2);
        out.clear();
        // Bit 1 of a code: 1 ⇔ the edge *decreases* the key. Robot i is a
        // strict minimum iff edge i−1 decreases and edge i increases.
        out.extend(neighbour_words(&self.codes, |prev, cur| {
            (prev >> 1) & !(cur >> 1) & BYTE_LOW
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

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

    /// The word-boundary sizes of the SWAR scans: one short word, one
    /// full word, and one lane on either side of eight full words.
    const SIZES: [usize; 8] = [2, 3, 7, 8, 9, 63, 64, 65];

    /// Random direction sequences of every size in [`SIZES`], a few
    /// each. They need not close, which is how the odd sizes arise; the
    /// scans only read the cyclic code sequence.
    fn random_codes() -> Vec<PackedChain> {
        let mut rng = SplitMix64::new(0xb17e);
        SIZES
            .iter()
            .flat_map(|&n| std::iter::repeat_n(n, 12))
            .map(|n| PackedChain {
                origin: Point::new(rng.range_i64_inclusive(-5, 5), 0),
                codes: (0..n).map(|_| rng.below(4) as u8).collect(),
            })
            .collect()
    }

    /// Closed rings of 6, 16, 80 and 80 robots.
    fn closed_rings() -> Vec<PackedChain> {
        [ring(3, 2), ring(5, 5), ring(40, 2), ring(19, 23)]
            .iter()
            .map(|c| PackedChain::from_chain(c).unwrap())
            .collect()
    }

    #[test]
    fn round_trips_positions() {
        for chain in [ring(4, 3), ring(20, 2), ring(17, 9), staircase(40)] {
            let packed = PackedChain::from_chain(&chain).unwrap();
            assert_eq!(packed.len(), chain.len());
            assert_eq!(packed.codes(), chain.codes());
            assert_eq!(packed.positions(), chain.positions());
            assert_eq!(
                PackedChain::from_positions(chain.positions()).unwrap(),
                packed
            );
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
        assert!(p.codes().is_empty());
        assert_eq!(p.positions(), vec![Point::new(7, -3)]);
        assert_eq!(p.bounding(), Rect::point(Point::new(7, -3)));
    }

    #[test]
    fn code_algebra() {
        for code in 0..4u8 {
            let o = edge_offset(code);
            assert!(o.is_unit_step());
            assert_eq!(edge_code(o), Some(code));
            assert_eq!(edge_offset(opposite(code)), -o);
            assert_eq!(step_offset(code), o);
            // bit 1 is the SE-key delta sign, bit 0 the axis.
            let key_delta = o.dx - o.dy;
            assert_eq!(code >> 1 == 1, key_delta < 0);
            assert_eq!(code & 1 == 1, o.dx == 0);
        }
        assert_eq!(step_offset(EDGE_ZERO), Offset::ZERO);
        for o in [Offset::RIGHT, Offset::DOWN, Offset::LEFT, Offset::UP] {
            assert_eq!(Some(unit_edge_code(o)), edge_code(o));
        }
        assert_eq!(edge_code(Offset::ZERO), None);
        assert_eq!(edge_code(Offset::new(1, 1)), None);
    }

    /// The per-word direction count and the walk built on it equal the
    /// per-edge sum, collapsed edges and short tails included.
    #[test]
    fn walk_matches_per_edge_sum() {
        let mut rng = SplitMix64::new(0x3a1c);
        for len in 0..40 {
            let codes: Vec<u8> = (0..len).map(|_| rng.below(5) as u8).collect();
            let p = Point::new(3, -2);
            let want = codes.iter().fold(p, |q, &c| q + step_offset(c));
            assert_eq!(walk(p, &codes), want, "{codes:?}");
        }
    }

    /// The per-code walk that [`bounding`] reads four codes at a time.
    fn bounding_by_codes(origin: Point, codes: &[u8]) -> Rect {
        let mut p = origin;
        let mut r = Rect::point(p);
        for &c in &codes[..codes.len().saturating_sub(1)] {
            p += step_offset(c);
            r.expand(p);
        }
        r
    }

    /// The word-wide box equals the positions' box on closed rings,
    /// staircases and random closed walks up to n ≈ 1,000, and the
    /// per-code walk on random codes of every length from 1 to 40 and of
    /// [`SIZES`], with a collapsed edge in each lane in turn.
    #[test]
    fn bounding_matches_bruteforce() {
        let mut rng = SplitMix64::new(0xb0c5);
        let mut chains = vec![ring(3, 2), ring(40, 2), ring(33, 31), ring(7, 66)];
        chains.push(staircase(40));
        for m in [1, 4, 9, 16, 31, 64, 250, 500] {
            chains.push(ClosedChain::new(crate::oracle::random_walk(&mut rng, m)).unwrap());
        }
        for chain in chains {
            let packed = PackedChain::from_chain(&chain).unwrap();
            let brute = Rect::bounding(chain.positions().iter().copied()).unwrap();
            assert_eq!(packed.bounding(), brute, "n={}", chain.len());
        }
        let lengths = (1..=40).flat_map(|len| std::iter::repeat_n(len, 20));
        let mut random: Vec<PackedChain> = lengths
            .map(|len| PackedChain {
                origin: Point::new(
                    rng.range_i64_inclusive(-50, 50),
                    rng.range_i64_inclusive(-50, 50),
                ),
                codes: (0..len).map(|_| rng.below(4) as u8).collect(),
            })
            .collect();
        random.extend(random_codes());
        for mut packed in random {
            let want = bounding_by_codes(packed.origin, &packed.codes);
            assert_eq!(packed.bounding(), want, "{:?}", packed.codes);
            for k in 0..packed.codes.len() {
                let keep = std::mem::replace(&mut packed.codes[k], EDGE_ZERO);
                let want = bounding_by_codes(packed.origin, &packed.codes);
                assert_eq!(packed.bounding(), want, "{:?}", packed.codes);
                packed.codes[k] = keep;
            }
        }
    }

    #[test]
    fn minima_mask_matches_bruteforce() {
        // The key delta of an edge, from its offset.
        let delta = |c: u8| edge_offset(c).dx - edge_offset(c).dy;
        for packed in closed_rings().into_iter().chain(random_codes()) {
            let codes = packed.codes();
            let n = codes.len();
            let mut mask = Vec::new();
            packed.strict_se_minima_into(&mut mask);
            assert_eq!(mask.len(), n.div_ceil(8));
            for i in 0..n {
                let want = delta(codes[(i + n - 1) % n]) < 0 && delta(codes[i]) > 0;
                let got = mask[i / 8] >> (8 * (i % 8)) & 1 == 1;
                assert_eq!(got, want, "robot {i} of {n}");
            }
            // No bits beyond the chain length or off the lane bit.
            let bits: u32 = mask.iter().map(|w| w.count_ones()).sum();
            let brute = (0..n)
                .filter(|&i| delta(codes[(i + n - 1) % n]) < 0 && delta(codes[i]) > 0)
                .count();
            assert_eq!(bits as usize, brute, "n={n}");
        }
        // On a closed chain the codes' rule is the positions' rule.
        let chain = staircase(33);
        let pos = chain.positions();
        let n = pos.len();
        let key = |p: Point| p.x - p.y;
        let mut mask = Vec::new();
        PackedChain::from_chain(&chain)
            .unwrap()
            .strict_se_minima_into(&mut mask);
        for i in 0..n {
            let want =
                key(pos[(i + n - 1) % n]) > key(pos[i]) && key(pos[(i + 1) % n]) > key(pos[i]);
            assert_eq!(mask[i / 8] >> (8 * (i % 8)) & 1 == 1, want, "robot {i}");
        }
    }

    #[test]
    fn edge_codes_match_chain_codes() {
        let mut bytes = Vec::new();
        let pair = ClosedChain::new(vec![Point::new(0, 0), Point::new(0, 1)]).unwrap();
        for chain in [pair, ring(2, 2), ring(40, 2), staircase(40)] {
            edge_codes_into(chain.positions(), &mut bytes);
            let packed = PackedChain::from_positions(chain.positions()).unwrap();
            assert_eq!(bytes, packed.codes(), "n={}", chain.len());
        }
        edge_codes_into(&[Point::new(3, 3)], &mut bytes);
        assert!(bytes.is_empty());
    }

    /// The word-wide splice equals the per-gap splice it replaced
    /// ([`crate::oracle::splice_by_gaps`]) in origin, codes and count, on
    /// random codes of every length from 1 to 40 and near 1,000: with
    /// [`EDGE_ZERO`] alone in each lane in turn, at random densities, in
    /// runs that cross word boundaries, on the closing edge (with and
    /// without a leading run), and everywhere.
    #[test]
    fn splice_matches_splice_by_gaps() {
        let mut rng = SplitMix64::new(0x5b1c);
        let mut cases: Vec<Vec<u8>> = Vec::new();
        for len in (1..=40).chain(995..=1004) {
            let base: Vec<u8> = (0..len).map(|_| rng.below(4) as u8).collect();
            let with = |zeros: &mut dyn FnMut(usize) -> bool| -> Vec<u8> {
                let mut codes = base.clone();
                for (i, c) in codes.iter_mut().enumerate() {
                    if zeros(i) {
                        *c = EDGE_ZERO;
                    }
                }
                codes
            };
            for k in (0..len).filter(|&k| k < 40 || k % 97 == 0 || k + 9 > len) {
                cases.push(with(&mut |i| i == k));
            }
            for (num, den) in [(1, 5), (1, 2), (9, 10)] {
                cases.push(with(&mut |_| rng.chance(num, den)));
            }
            for _ in 0..4 {
                let from = rng.range_usize(0, len);
                let to = (from + rng.range_usize(2, 20)).min(len);
                cases.push(with(&mut |i| (from..to).contains(&i)));
            }
            let lead = rng.range_usize(0, len.min(12));
            cases.push(with(&mut |i| i + 1 == len));
            cases.push(with(&mut |i| i + 1 == len || i < lead));
            cases.push(with(&mut |i| i + 3 >= len || i % 8 == 7));
            cases.push(with(&mut |_| true));
        }
        let mut everything = 0;
        for codes in cases {
            let origin = Point::new(rng.range_i64_inclusive(-9, 9), 4);
            let (mut want_origin, mut want) = (origin, codes.clone());
            let removed = crate::oracle::splice_by_gaps(&mut want_origin, &mut want);
            let (mut got_origin, mut got) = (origin, codes.clone());
            assert_eq!(splice(&mut got_origin, &mut got), removed, "{codes:?}");
            assert_eq!((got_origin, &got), (want_origin, &want), "{codes:?}");
            everything += usize::from(codes.len() > 1 && got.is_empty());
        }
        assert!(everything >= 49, "{everything} total collapses");
    }

    /// The cursor finds exactly the collapsed edges, from any start, at
    /// every length around the word size.
    #[test]
    fn collapsed_edges_match_filter() {
        let mut rng = SplitMix64::new(0xc011);
        for len in 1..30 {
            let codes: Vec<u8> = (0..len).map(|_| rng.below(5) as u8).collect();
            for from in 0..len {
                let mut zeros = CollapsedEdges::starting_at(&codes, from);
                let got: Vec<usize> = std::iter::from_fn(|| zeros.next(&codes)).collect();
                let want: Vec<usize> = (from..len).filter(|&i| codes[i] == EDGE_ZERO).collect();
                assert_eq!(got, want, "{codes:?} from {from}");
            }
        }
    }
}
