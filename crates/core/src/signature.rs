//! The local-view signature behind oscillation suppression (DESIGN.md §2.3).
//!
//! A robot's signature is an FNV-1a hash of the relative positions of its
//! ±3 chain neighbours ([`local_signature`], the definition). On a taut
//! chain those six offsets are prefix sums of the six edges `i−3 ..= i+2`
//! around robot `i`, so the signature is a function of the 12 bits of
//! their 2-bit edge codes (`chain_sim::packed`). The telescoping is exact
//! for every chain of two or more robots, including chains shorter than
//! the window, whose window wraps onto itself: the edges of a closed chain
//! sum to zero.
//!
//! [`Signatures`] therefore slides a 12-bit window over the round's edge
//! codes, one edge per robot, and looks each key up in a 4096-entry table
//! that the compiler builds from the same hash. The table is 32 KiB of
//! static data and reproduces every signature bit for bit.
//!
//! ## Collisions
//!
//! The hash is not injective on views: the 4096 possible windows map to
//! only 3646 distinct signatures. For example, the views
//! `[(-1,0),(0,0),(-1,0),(1,0),(2,0),(3,0)]` and
//! `[(-1,0),(0,0),(1,0),(-1,0),(-2,0),(-1,0)]` (neighbours −3, −2, −1, +1,
//! +2, +3) both hash to `0x8e0b_fb4f_2b66_22e5`. Oscillation detection
//! therefore compares hash classes, not views. A collision-free signature
//! would change trajectories, so the hash stays as it is.

use chain_sim::packed::edge_offset;
use chain_sim::ClosedChain;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The chain offsets a view covers, in hash order.
const NEIGHBOURS: [isize; 6] = [-3, -2, -1, 1, 2, 3];

/// Number of distinct windows: six edges of two bits each.
const WINDOWS: usize = 1 << 12;

/// A relative view: `(dx, dy)` of each neighbour in [`NEIGHBOURS`] order.
type View = [[i64; 2]; 6];

/// FNV-1a over the twelve coordinates of a view.
const fn view_hash(view: &View) -> u64 {
    let mut h = FNV_OFFSET;
    let mut k = 0;
    while k < 6 {
        let mut c = 0;
        while c < 2 {
            h ^= view[k][c] as u64;
            h = h.wrapping_mul(FNV_PRIME);
            c += 1;
        }
        k += 1;
    }
    h
}

/// Local-view signature of robot `i`: a hash of the relative positions of
/// its ±3 chain neighbours. Constant-size robot memory, used to witness the
/// period-2 "swap" livelock (DESIGN.md §2.3): a closed cycle of mutually
/// interfering merge patterns makes every participant hop back and forth
/// between exactly two local views without any merge.
///
/// This is the definition; the round reads the same values through
/// [`Signatures`].
pub(crate) fn local_signature(chain: &ClosedChain, i: usize) -> u64 {
    let p = chain.pos(i);
    let mut view = [[0; 2]; 6];
    for (slot, d) in view.iter_mut().zip(NEIGHBOURS) {
        let q = chain.pos(chain.nb(i, d));
        *slot = [q.x - p.x, q.y - p.y];
    }
    view_hash(&view)
}

/// The view a window encodes: bits `2j, 2j+1` of `key` hold the code of
/// edge `i − 3 + j`; behind neighbours subtract edges, ahead ones add them.
const fn window_view(key: usize) -> View {
    let mut e = [[0i64; 2]; 6];
    let mut j = 0;
    while j < 6 {
        let o = edge_offset(((key >> (2 * j)) & 3) as u8);
        e[j] = [o.dx, o.dy];
        j += 1;
    }
    let mut view = [[0i64; 2]; 6];
    let mut c = 0;
    while c < 2 {
        view[2][c] = -e[2][c];
        view[1][c] = view[2][c] - e[1][c];
        view[0][c] = view[1][c] - e[0][c];
        view[3][c] = e[3][c];
        view[4][c] = view[3][c] + e[4][c];
        view[5][c] = view[4][c] + e[5][c];
        c += 1;
    }
    view
}

const fn build_table() -> [u64; WINDOWS] {
    let mut t = [0u64; WINDOWS];
    let mut key = 0;
    while key < WINDOWS {
        t[key] = view_hash(&window_view(key));
        key += 1;
    }
    t
}

static WINDOW_SIGNATURES: [u64; WINDOWS] = build_table();

/// Signature of a one-robot chain: it has no edges, and all six
/// neighbours are the robot itself.
pub(crate) const COLLAPSED: u64 = view_hash(&[[0; 2]; 6]);

/// The signature a window key denotes (bits `2j, 2j+1` hold the code of
/// the robot's edge `j − 3`).
#[inline]
fn window_signature(key: usize) -> u64 {
    WINDOW_SIGNATURES[key & (WINDOWS - 1)]
}

/// Every robot's signature, in chain order, from the edge codes of a taut
/// chain (`chain_sim::packed::edge_codes_into`): one table lookup and one
/// shift per robot. Yields one signature per code, so nothing for a
/// one-robot chain (its signature is [`COLLAPSED`]).
pub(crate) struct Signatures<'a> {
    codes: &'a [u8],
    /// Window key of the next robot: the codes of its edges `−3 ..= +2`,
    /// lowest bits first.
    key: usize,
    /// Index of the edge that enters the window after this robot.
    next: usize,
    left: usize,
}

impl<'a> Signatures<'a> {
    pub(crate) fn new(codes: &'a [u8]) -> Self {
        let n = codes.len();
        let mut key = 0;
        if n > 0 {
            for (j, d) in (-3isize..=2).enumerate() {
                let e = d.rem_euclid(n as isize) as usize;
                key |= usize::from(codes[e] & 3) << (2 * j);
            }
        }
        Signatures {
            codes,
            key,
            next: if n > 0 { 3 % n } else { 0 },
            left: n,
        }
    }
}

impl Iterator for Signatures<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let sig = window_signature(self.key);
        self.key = (self.key >> 2) | (usize::from(self.codes[self.next] & 3) << 10);
        self.next += 1;
        if self.next == self.codes.len() {
            self.next = 0;
        }
        Some(sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shuffled_loop;
    use chain_sim::packed::edge_codes_into;
    use chain_sim::rng::SplitMix64;
    use grid_geom::Point;

    fn assert_table_matches(chain: &ClosedChain, codes: &mut Vec<u8>) {
        edge_codes_into(chain.positions(), codes);
        let n = chain.len();
        let sigs: Vec<u64> = Signatures::new(codes).collect();
        assert_eq!(sigs.len(), n);
        for (i, &sig) in sigs.iter().enumerate() {
            assert_eq!(sig, local_signature(chain, i), "robot {i} of {n}");
        }
    }

    #[test]
    fn table_matches_local_signature_on_random_loops() {
        let mut codes = Vec::new();
        for seed in 0..40u64 {
            assert_table_matches(
                &workloads::random_loop(60 + 2 * seed as usize, seed),
                &mut codes,
            );
        }
    }

    #[test]
    fn table_matches_local_signature_on_every_family() {
        let mut codes = Vec::new();
        for fam in workloads::Family::ALL {
            for (n, seed) in [(64, 0u64), (80, 3), (200, 11)] {
                assert_table_matches(&fam.generate(n, seed), &mut codes);
            }
        }
    }

    /// Chains no longer than the window wrap it onto themselves (n = 2
    /// sees each edge three times); the telescoped view must still equal
    /// the positions read through `nb`.
    #[test]
    fn table_matches_local_signature_on_tiny_chains() {
        let mut rng = SplitMix64::new(0x51_6e);
        let mut codes = Vec::new();
        for m in 1..=6 {
            for _ in 0..300 {
                assert_table_matches(&shuffled_loop(&mut rng, m), &mut codes);
            }
        }
    }

    #[test]
    fn collapsed_chain_signature() {
        let one = ClosedChain::new(vec![Point::new(4, -2)]).unwrap();
        assert_eq!(local_signature(&one, 0), COLLAPSED);
        assert_eq!(Signatures::new(&[]).next(), None);
    }

    /// The hash maps the 4096 windows to 3646 classes; pin the count and
    /// the documented example pair.
    #[test]
    fn signature_collisions_are_pinned() {
        let mut all: Vec<u64> = (0..WINDOWS).map(window_signature).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 3646);

        let a = [[-1, 0], [0, 0], [-1, 0], [1, 0], [2, 0], [3, 0]];
        let b = [[-1, 0], [0, 0], [1, 0], [-1, 0], [-2, 0], [-1, 0]];
        assert_ne!(a, b);
        assert_eq!(view_hash(&a), 0x8e0b_fb4f_2b66_22e5);
        assert_eq!(view_hash(&b), 0x8e0b_fb4f_2b66_22e5);
        // Both views are windows of real chains.
        let keys: Vec<usize> = (0..WINDOWS)
            .filter(|&k| window_view(k) == a || window_view(k) == b)
            .collect();
        assert_eq!(keys.len(), 2);
    }
}
