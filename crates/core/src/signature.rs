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
//! [`WindowKeys`] therefore slides a 12-bit window over the round's edge
//! codes, one edge per robot, and [`window_class`] looks each key up in a
//! 4096-entry table that the compiler builds from the same hash. The table is 32 KiB of
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The chain offsets a view covers, in hash order.
#[cfg(test)]
const NEIGHBOURS: [isize; 6] = [-3, -2, -1, 1, 2, 3];

/// Number of distinct windows: six edges of two bits each.
pub(crate) const WINDOWS: usize = 1 << 12;

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
/// [`WindowKeys`] and [`window_class`].
#[cfg(test)]
pub(crate) fn local_signature(chain: &chain_sim::ClosedChain, i: usize) -> u64 {
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

/// A signature as a class number: two views have equal signatures exactly
/// when their classes are equal. A window's class is the smallest window
/// key with the same hash; the one-robot view's is [`COLLAPSED`].
pub(crate) type Class = u16;

/// The class history of a robot with no view yet: two classes no view
/// has, and that differ.
pub(crate) const NO_VIEW: [Class; 2] = [Class::MAX, Class::MAX - 1];

/// The class of every window, and last that of the one-robot view: keys
/// are hashed in increasing order into an open-addressing table, and a key
/// whose hash is already there takes that key's class.
const CLASSES: [Class; WINDOWS + 1] = {
    const SLOTS: usize = 4 * WINDOWS;
    let mut slot_key = [Class::MAX; SLOTS];
    let mut slot_hash = [0u64; SLOTS];
    let mut classes = [0; WINDOWS + 1];
    let mut key = 0;
    while key <= WINDOWS {
        let hash = if key < WINDOWS {
            view_hash(&window_view(key))
        } else {
            view_hash(&[[0; 2]; 6])
        };
        let mut slot = hash as usize % SLOTS;
        while slot_key[slot] != Class::MAX && slot_hash[slot] != hash {
            slot = (slot + 1) % SLOTS;
        }
        if slot_key[slot] == Class::MAX {
            slot_key[slot] = key as Class;
            slot_hash[slot] = hash;
        }
        classes[key] = slot_key[slot];
        key += 1;
    }
    classes
};

static WINDOW_CLASSES: [Class; WINDOWS + 1] = CLASSES;

/// Signature class of a one-robot chain: it has no edges, and all six
/// neighbours are the robot itself.
pub(crate) const COLLAPSED: Class = CLASSES[WINDOWS];

/// The signature class a window key denotes (bits `2j, 2j+1` hold the
/// code of the robot's edge `j − 3`).
#[inline]
pub(crate) fn window_class(key: usize) -> Class {
    WINDOW_CLASSES[key & (WINDOWS - 1)]
}

/// The window key of robot `i` on a chain of two or more robots: bits
/// `2j, 2j+1` hold the code of its edge `j − 3` (edges `i − 3 ..= i + 2`).
#[inline]
pub(crate) fn window_key(codes: &[u8], i: usize) -> usize {
    let n = codes.len();
    if i >= 3 && i + 2 < n {
        codes[i - 3..i + 3]
            .iter()
            .enumerate()
            .fold(0, |key, (j, &c)| key | usize::from(c & 3) << (2 * j))
    } else {
        // Edge i + j − 3, wrapped onto the chain.
        (0..6).fold(0, |key, j| {
            key | usize::from(codes[(i + j + 3 * n - 3) % n] & 3) << (2 * j)
        })
    }
}

/// Every robot's window key ([`window_key`]), in chain order, from the
/// edge codes of a taut chain ([`ClosedChain::codes`]): one shift per
/// robot. Yields one key per code, so nothing for a one-robot chain (its
/// signature is [`COLLAPSED`]).
pub(crate) struct WindowKeys<'a> {
    codes: &'a [u8],
    /// Window key of the next robot: the codes of its edges `−3 ..= +2`,
    /// lowest bits first.
    key: usize,
    /// Index of the edge that enters the window after this robot.
    next: usize,
    left: usize,
}

impl<'a> WindowKeys<'a> {
    pub(crate) fn new(codes: &'a [u8]) -> Self {
        let n = codes.len();
        let mut key = 0;
        if n > 0 {
            for (j, d) in (-3isize..=2).enumerate() {
                let e = d.rem_euclid(n as isize) as usize;
                key |= usize::from(codes[e] & 3) << (2 * j);
            }
        }
        WindowKeys {
            codes,
            key,
            next: if n > 0 { 3 % n } else { 0 },
            left: n,
        }
    }
}

impl Iterator for WindowKeys<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let key = self.key;
        self.key = (self.key >> 2) | (usize::from(self.codes[self.next] & 3) << 10);
        self.next += 1;
        if self.next == self.codes.len() {
            self.next = 0;
        }
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssync::SsyncGathering;
    use crate::strategy::ClosedChainGathering;
    use crate::testutil::shuffled_loop;
    use chain_sim::rng::SplitMix64;
    use chain_sim::{ClosedChain, SchedulerKind, Sim, Strategy};
    use grid_geom::Point;
    use std::collections::HashMap;
    use std::sync::OnceLock;

    fn window_signature(key: usize) -> u64 {
        view_hash(&window_view(key))
    }

    /// The class of each signature hash.
    fn class_of() -> &'static HashMap<u64, Class> {
        static CLASS_OF: OnceLock<HashMap<u64, Class>> = OnceLock::new();
        CLASS_OF.get_or_init(|| {
            let mut classes = HashMap::new();
            classes.insert(view_hash(&[[0; 2]; 6]), COLLAPSED);
            for key in 0..WINDOWS {
                classes.insert(window_signature(key), window_class(key));
            }
            classes
        })
    }

    fn assert_table_matches(chain: &ClosedChain) {
        let n = chain.len();
        // As the round reads them: a one-robot chain has no windows.
        let mut windows = WindowKeys::new(chain.codes());
        let sigs: Vec<Class> = (0..n)
            .map(|_| windows.next().map_or(COLLAPSED, window_class))
            .collect();
        assert_eq!(windows.next(), None, "{n} robots");
        let class_of = class_of();
        for (i, &sig) in sigs.iter().enumerate() {
            assert_eq!(
                sig,
                class_of[&local_signature(chain, i)],
                "robot {i} of {n}"
            );
        }
    }

    /// Classes are equal exactly when signatures are: over every window
    /// and the one-robot view, each hash has one class and each class one
    /// hash. No view has a class of the empty history, and no signature is
    /// the hash the history used to start from (so the switch to classes
    /// keeps every comparison).
    #[test]
    fn classes_partition_signatures() {
        let collapsed = view_hash(&[[0; 2]; 6]);
        let views = (0..WINDOWS)
            .map(|k| (window_signature(k), window_class(k)))
            .chain([(collapsed, COLLAPSED)]);
        let (mut class_of, mut hash_of) = (HashMap::new(), HashMap::new());
        for (hash, class) in views {
            assert_eq!(*class_of.entry(hash).or_insert(class), class, "{hash:x}");
            assert_eq!(*hash_of.entry(class).or_insert(hash), hash, "{class}");
            assert!(!NO_VIEW.contains(&class));
            assert!(![u64::MAX, u64::MAX - 1].contains(&hash));
        }
        for a in 0..WINDOWS {
            assert_eq!(window_class(window_class(a) as usize), window_class(a));
        }
        assert!((0..WINDOWS).all(|k| window_signature(k) != collapsed));
        assert_eq!(COLLAPSED as usize, WINDOWS);
    }

    /// Run `sim` to gathering (at most `rounds` rounds), checking every
    /// robot's class against the definition before each round: the
    /// chains the strategy meets mid-run.
    fn follow<S: Strategy>(mut sim: Sim<S>, rounds: u64, what: &str) {
        while !sim.is_gathered() && sim.round() < rounds {
            assert_table_matches(sim.chain());
            let round = sim.round();
            sim.step()
                .unwrap_or_else(|e| panic!("{what}, round {round}: {e}"));
        }
        assert_table_matches(sim.chain());
    }

    /// The window table against `local_signature` on every robot of
    /// every round of `paper` (FSYNC) and `paper-ssync` (round-robin and
    /// 4-fair) runs over every family, random loops and tiny chains.
    #[test]
    fn table_matches_local_signature_along_runs() {
        let mut chains: Vec<(String, ClosedChain)> = Vec::new();
        for fam in workloads::Family::ALL {
            for (n, seed) in [(64, 1u64), (200, 5)] {
                chains.push((format!("{} n={n}", fam.name()), fam.generate(n, seed)));
            }
        }
        for seed in 0..4u64 {
            let n = 120 + 30 * seed as usize;
            chains.push((
                format!("random loop {seed}"),
                workloads::random_loop(n, seed),
            ));
        }
        let mut rng = SplitMix64::new(0x7a11);
        for m in 1..=6 {
            for k in 0..4 {
                chains.push((format!("tiny m={m} #{k}"), shuffled_loop(&mut rng, m)));
            }
        }
        for (what, chain) in chains {
            let rounds = 20 * chain.len() as u64 + 200;
            follow(
                Sim::new(chain.clone(), ClosedChainGathering::paper()),
                rounds,
                &format!("paper, {what}"),
            );
            for sched in [SchedulerKind::RoundRobin(2), SchedulerKind::KFair(4)] {
                let sim =
                    Sim::new(chain.clone(), SsyncGathering::paper()).with_scheduler(sched.build(3));
                follow(
                    sim,
                    rounds * sched.slowdown(),
                    &format!("paper-ssync {sched:?}, {what}"),
                );
            }
        }
    }

    #[test]
    fn table_matches_local_signature_on_random_loops() {
        for seed in 0..40u64 {
            assert_table_matches(&workloads::random_loop(60 + 2 * seed as usize, seed));
        }
    }

    #[test]
    fn table_matches_local_signature_on_every_family() {
        for fam in workloads::Family::ALL {
            for (n, seed) in [(64, 0u64), (80, 3), (200, 11)] {
                assert_table_matches(&fam.generate(n, seed));
            }
        }
    }

    /// Chains no longer than the window wrap it onto themselves (n = 2
    /// sees each edge three times); the telescoped view must still equal
    /// the positions read through `nb`.
    #[test]
    fn table_matches_local_signature_on_tiny_chains() {
        let mut rng = SplitMix64::new(0x51_6e);
        for m in 1..=6 {
            for _ in 0..300 {
                assert_table_matches(&shuffled_loop(&mut rng, m));
            }
        }
    }

    #[test]
    fn collapsed_chain_signature() {
        let one = ClosedChain::new(vec![Point::new(4, -2)]).unwrap();
        assert_eq!(class_of()[&local_signature(&one, 0)], COLLAPSED);
        assert_eq!(WindowKeys::new(&[]).next(), None);
    }

    /// The hash maps the 4096 windows to 3646 classes; pin the count and
    /// the documented example pair.
    #[test]
    fn signature_collisions_are_pinned() {
        let mut all: Vec<u64> = (0..WINDOWS).map(window_signature).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 3646);
        let mut classes: Vec<Class> = (0..WINDOWS).map(window_class).collect();
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(classes.len(), 3646);

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
