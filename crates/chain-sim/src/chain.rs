//! The closed chain data structure.
//!
//! A [`ClosedChain`] is the cyclic sequence `r_0, …, r_{n-1}` of the paper.
//! Between rounds it is *taut*: every chain edge is a unit step (coinciding
//! chain neighbors have been merged away). During a round, simultaneous
//! hops may make chain neighbors coincide; the [`ClosedChain::merge_pass`]
//! then splices the chain exactly as the paper's merge operation does
//! (Fig. 1): "their neighborhoods are merged and one of both is removed".
//!
//! Robots that coincide but are *not* chain neighbors are left alone
//! (explicitly so in the paper — the chain may cross itself).

use crate::robot::RobotId;
use grid_geom::{chain_adjacent, Offset, Point, Rect};

/// Errors detected by [`ClosedChain::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// Fewer than 2 robots cannot form a (meaningful) closed chain.
    TooShort {
        /// Offending chain length.
        len: usize,
    },
    /// Chain neighbors further than one grid step apart — the chain broke.
    Disconnected {
        /// Index of the first robot of the broken edge.
        index: usize,
        /// Position of the robot at `index`.
        a: Point,
        /// Position of its chain successor.
        b: Point,
    },
    /// Chain neighbors on the same point outside a merge pass (the chain
    /// must be taut between rounds).
    CoincidentNeighbors {
        /// Index of the first robot of the coinciding pair.
        index: usize,
        /// The shared position.
        at: Point,
    },
    /// A robot hop with a component outside `{-1, 0, 1}`.
    IllegalHop {
        /// Index of the robot with the illegal hop.
        index: usize,
        /// The rejected hop.
        hop: Offset,
    },
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::TooShort { len } => write!(f, "chain too short: {len} robots"),
            ChainError::Disconnected { index, a, b } => {
                write!(
                    f,
                    "chain disconnected between index {index} at {a} and its successor at {b}"
                )
            }
            ChainError::CoincidentNeighbors { index, at } => {
                write!(
                    f,
                    "chain neighbors {index} and successor coincide at {at} outside a merge pass"
                )
            }
            ChainError::IllegalHop { index, hop } => {
                write!(f, "illegal hop {hop} for robot at index {index}")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// One merge of the merge pass: `removed` robots were spliced out because
/// they coincided with chain neighbor `keeper`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeEvent {
    /// Id of the surviving robot of the coincidence group.
    pub keeper: RobotId,
    /// Ids of the removed robots (≥ 1).
    pub removed: Vec<RobotId>,
    /// Grid point where the merge happened.
    pub at: Point,
}

/// Result of a merge pass: which (pre-splice) indices were removed plus the
/// merge events. Strategies use this to keep their per-robot state arrays in
/// sync with the chain.
#[derive(Clone, Debug, Default)]
pub struct SpliceLog {
    /// Pre-splice indices removed, strictly ascending.
    pub removed_indices: Vec<usize>,
    /// Pre-splice index of the keeper for each removed index (parallel to
    /// `removed_indices`).
    pub keeper_indices: Vec<usize>,
    /// Merge events (one per coincidence group).
    pub events: Vec<MergeEvent>,
}

impl SpliceLog {
    /// Reset the log for the next merge pass (buffers keep their capacity).
    pub fn clear(&mut self) {
        self.removed_indices.clear();
        self.keeper_indices.clear();
        self.events.clear();
    }

    /// Number of robots removed.
    pub fn removed_count(&self) -> usize {
        self.removed_indices.len()
    }

    /// `true` if nothing merged.
    pub fn is_empty(&self) -> bool {
        self.removed_indices.is_empty()
    }

    /// Remove the logged indices from `v`, an array parallel to the
    /// pre-splice chain, keeping the order of the rest: the merge pass's
    /// own compaction, for per-robot state kept beside the chain. Moves
    /// only what lies past the first removed index, one block per gap.
    pub fn splice<T: Copy>(&self, v: &mut Vec<T>) {
        let removed = &self.removed_indices;
        let Some(&first) = removed.first() else {
            return;
        };
        let mut write = first;
        for (j, &r) in removed.iter().enumerate() {
            let end = removed.get(j + 1).copied().unwrap_or(v.len());
            v.copy_within(r + 1..end, write);
            write += end - r - 1;
        }
        v.truncate(write);
    }

    /// Map a pre-splice index to its post-splice index, or `None` if the
    /// robot at that index was removed.
    pub fn remap(&self, old: usize) -> Option<usize> {
        match self.removed_indices.binary_search(&old) {
            Ok(_) => None,
            Err(shift) => Some(old - shift),
        }
    }
}

/// What [`ClosedChain::apply_hops_swept`] saw of the moved chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoveSweep {
    /// Robots that performed a nonzero hop.
    pub moved: usize,
    /// Bounding box of the moved chain. The merge pass keeps it: every
    /// robot it removes coincides with its keeper.
    pub bounds: Rect,
    /// Some chain edge has length 0, so the merge pass has work. When it
    /// is `false` every edge has length exactly 1: the chain is taut.
    pub coincident: bool,
}

/// [`edge_class`] bit of a zero-length edge.
const EDGE_COINCIDENT: u32 = 1;
/// [`edge_class`] bit of an edge longer than one step.
const EDGE_LONG: u32 = 4;

/// One bit per edge length class: [`EDGE_COINCIDENT`] for 0, 2 for a
/// unit step, [`EDGE_LONG`] for anything longer. Branch-free: the squared
/// Euclidean length is 0, 1 or ≥ 2 exactly when the Manhattan length is.
#[inline]
fn edge_class(d: Offset) -> u32 {
    1 << (d.dx * d.dx + d.dy * d.dy).min(2)
}

/// The closed chain of robots (struct-of-arrays layout: positions and ids).
#[derive(Clone, Debug)]
pub struct ClosedChain {
    pos: Vec<Point>,
    id: Vec<RobotId>,
}

impl ClosedChain {
    /// Build a chain from positions; assigns fresh ids `r0, r1, …`.
    ///
    /// Returns an error unless the sequence is a valid taut closed chain:
    /// every cyclically-consecutive pair differs by exactly one axis step.
    pub fn new(positions: Vec<Point>) -> Result<Self, ChainError> {
        let n = positions.len();
        let chain = ClosedChain {
            id: (0..n as u64).map(RobotId).collect(),
            pos: positions,
        };
        chain.validate()?;
        Ok(chain)
    }

    /// Number of robots currently on the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// `true` if the chain holds no robots (never the case for a validated
    /// chain; provided for the `len`/`is_empty` API convention).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Cyclic index normalization: maps any signed offset from an index into
    /// `0..n`.
    ///
    /// Every neighbor read of the strategies goes through here, so the
    /// common case `-n ≤ i < 2n` (an index plus a view offset on a chain
    /// longer than the view) wraps with one compare and add; only tiny
    /// chains, where the view horizon exceeds `n`, pay for the division.
    #[inline]
    pub fn cyc(&self, i: isize) -> usize {
        let n = self.pos.len() as isize;
        if i >= 0 {
            if i < n {
                return i as usize;
            }
            if i < 2 * n {
                return (i - n) as usize;
            }
        } else if i >= -n {
            return (i + n) as usize;
        }
        i.rem_euclid(n) as usize
    }

    /// Neighbor `delta` steps away from `i` along the chain (cyclic).
    #[inline]
    pub fn nb(&self, i: usize, delta: isize) -> usize {
        self.cyc(i as isize + delta)
    }

    /// Position of robot `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> Point {
        self.pos[i]
    }

    /// Id of robot `i`.
    #[inline]
    pub fn id(&self, i: usize) -> RobotId {
        self.id[i]
    }

    /// All positions (chain order).
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.pos
    }

    /// All ids (chain order).
    #[inline]
    pub fn ids(&self) -> &[RobotId] {
        &self.id
    }

    /// Chain-order index of the robot with id `id`, by an O(n) linear scan.
    /// Tests, auditors and debug assertions use it; no per-round path does
    /// (the strategy keeps its per-robot state parallel to the chain).
    pub fn index_of(&self, id: RobotId) -> Option<usize> {
        self.id.iter().position(|&x| x == id)
    }

    /// The step from robot `i` to its successor (`pos[i+1] - pos[i]`).
    #[inline]
    pub fn step(&self, i: usize) -> Offset {
        let j = self.nb(i, 1);
        self.pos[j] - self.pos[i]
    }

    /// Bounding box of all robots.
    pub fn bounding(&self) -> Rect {
        Rect::bounding(self.pos.iter().copied()).expect("chain is non-empty")
    }

    /// The paper's gathering criterion: all robots within a 2×2 subgrid.
    pub fn is_gathered(&self) -> bool {
        self.bounding().is_gathered_2x2()
    }

    /// Validate the taut closed-chain invariant.
    pub fn validate(&self) -> Result<(), ChainError> {
        let n = self.pos.len();
        if n < 2 {
            // A chain of 1 robot is the fully merged terminal state; treat
            // length 0/1 as valid terminals except for construction.
            return if n == 1 {
                Ok(())
            } else {
                Err(ChainError::TooShort { len: n })
            };
        }
        for i in 0..n {
            let a = self.pos[i];
            let b = self.pos[self.nb(i, 1)];
            if a == b {
                return Err(ChainError::CoincidentNeighbors { index: i, at: a });
            }
            if !chain_adjacent(a, b) {
                return Err(ChainError::Disconnected { index: i, a, b });
            }
        }
        Ok(())
    }

    /// Check connectivity only (used mid-round, where coincidences are
    /// expected and legal until the merge pass runs).
    pub fn check_connected(&self) -> Result<(), ChainError> {
        let n = self.pos.len();
        for i in 0..n {
            let a = self.pos[i];
            let b = self.pos[self.nb(i, 1)];
            if !chain_adjacent(a, b) {
                return Err(ChainError::Disconnected { index: i, a, b });
            }
        }
        Ok(())
    }

    /// Apply one hop per robot simultaneously (the move step of FSYNC).
    ///
    /// Hops must have components in `{-1, 0, 1}`. Connectivity is checked
    /// after application; on failure the chain state is the (broken)
    /// post-move state, so callers can render diagnostics.
    pub fn apply_hops(&mut self, hops: &[Offset]) -> Result<(), ChainError> {
        assert_eq!(hops.len(), self.pos.len(), "one hop per robot");
        for (i, h) in hops.iter().enumerate() {
            if !h.is_hop() {
                return Err(ChainError::IllegalHop { index: i, hop: *h });
            }
        }
        for (p, h) in self.pos.iter_mut().zip(hops) {
            *p += *h;
        }
        self.check_connected()
    }

    /// [`ClosedChain::apply_hops`] in one sweep over the chain that also
    /// counts the movers, takes the bounding box and measures every edge
    /// (see [`MoveSweep`]) — what the engine needs after a move, without
    /// the separate connectivity, taut-chain and gathering passes.
    ///
    /// Errors are those of `apply_hops`, in the same state: an illegal hop
    /// is reported before anything moves; a broken edge after the move,
    /// by [`ClosedChain::check_connected`].
    pub fn apply_hops_swept(&mut self, hops: &[Offset]) -> Result<MoveSweep, ChainError> {
        assert_eq!(hops.len(), self.pos.len(), "one hop per robot");
        // Without short-circuit, so the common all-legal case is one
        // branch-free pass; the position is looked up only on failure.
        if hops.iter().fold(false, |bad, h| bad | !h.is_hop()) {
            let index = hops
                .iter()
                .position(|h| !h.is_hop())
                .expect("the fold saw an illegal hop");
            return Err(ChainError::IllegalHop {
                index,
                hop: hops[index],
            });
        }
        let first = self.pos[0] + hops[0];
        self.pos[0] = first;
        let mut moved = usize::from(hops[0] != Offset::ZERO);
        let (mut min, mut max) = (first, first);
        // The length classes of every edge seen (see `edge_class`).
        let mut lens = 0u32;
        let mut prev = first;
        for (p, &h) in self.pos[1..].iter_mut().zip(&hops[1..]) {
            let q = *p + h;
            *p = q;
            moved += usize::from(h != Offset::ZERO);
            min = Point::new(min.x.min(q.x), min.y.min(q.y));
            max = Point::new(max.x.max(q.x), max.y.max(q.y));
            lens |= edge_class(q - prev);
            prev = q;
        }
        // The closing edge (for n = 1, the robot to itself).
        lens |= edge_class(first - prev);
        if lens & EDGE_LONG != 0 {
            return Err(self
                .check_connected()
                .expect_err("an edge longer than 1 disconnects the chain"));
        }
        Ok(MoveSweep {
            moved,
            bounds: Rect { min, max },
            coincident: lens & EDGE_COINCIDENT != 0,
        })
    }

    /// The merge pass: splice out robots coinciding with chain neighbors.
    ///
    /// Maximal groups of cyclically-consecutive robots on one grid point are
    /// collapsed to their first member (first in chain order, with wrapping
    /// groups anchored at their true start). The neighborhoods merge exactly
    /// as in the paper: the keeper inherits the group's outside neighbors.
    ///
    /// Returns the number of robots removed; details land in `log`.
    pub fn merge_pass(&mut self, log: &mut SpliceLog) -> usize {
        log.clear();
        let n = self.pos.len();
        if n < 2 {
            return 0;
        }

        // Everyone on one point and n ≥ 2: collapse to a single robot.
        if self.pos.iter().all(|&p| p == self.pos[0]) {
            let keeper = self.id[0];
            let at = self.pos[0];
            let removed: Vec<RobotId> = self.id[1..].to_vec();
            log.removed_indices.extend(1..n);
            log.keeper_indices.extend(std::iter::repeat_n(0, n - 1));
            log.events.push(MergeEvent {
                keeper,
                removed,
                at,
            });
            self.pos.truncate(1);
            self.id.truncate(1);
            return n - 1;
        }

        // Find the start of a group boundary so groups never wrap: an index
        // whose predecessor sits on a different point.
        let mut anchor = 0;
        while self.pos[self.nb(anchor, -1)] == self.pos[anchor] {
            anchor += 1; // terminates: not all positions equal
        }

        // Walk the cycle from the anchor, grouping equal consecutive
        // positions.
        let wrap = |i: usize| if i >= n { i - n } else { i }; // i < 2n
        let mut k = 0;
        while k < n {
            let gi = wrap(anchor + k);
            let p = self.pos[gi];
            let mut glen = 1;
            while glen < n && self.pos[wrap(anchor + k + glen)] == p {
                glen += 1;
            }
            if glen > 1 {
                let keeper_idx = gi;
                let mut removed = Vec::with_capacity(glen - 1);
                for j in 1..glen {
                    let ri = wrap(anchor + k + j);
                    removed.push(self.id[ri]);
                    log.removed_indices.push(ri);
                    log.keeper_indices.push(keeper_idx);
                }
                log.events.push(MergeEvent {
                    keeper: self.id[keeper_idx],
                    removed,
                    at: p,
                });
            }
            k += glen;
        }

        if log.removed_indices.is_empty() {
            return 0;
        }

        // The walk visited anchor..n and then 0..anchor, so the log is
        // ascending with exactly one wrap; rotating the part before the wrap
        // to the back sorts both parallel arrays by removed index (for
        // remap()).
        let before_wrap = log
            .removed_indices
            .iter()
            .take_while(|&&r| r >= anchor)
            .count();
        log.removed_indices.rotate_left(before_wrap);
        log.keeper_indices.rotate_left(before_wrap);

        log.splice(&mut self.pos);
        log.splice(&mut self.id);
        log.removed_indices.len()
    }

    /// Sum of chain edge lengths (all 1 when taut) — the chain length in
    /// the paper's sense is simply `len()`, provided here for reports.
    pub fn edge_count(&self) -> usize {
        self.pos.len()
    }

    /// Test/workload helper: rotate the chain origin (`r_0`) by `k`
    /// positions. The configuration is unchanged; indistinguishability means
    /// strategies must behave identically (checked by symmetry tests).
    pub fn rotate_origin(&mut self, k: usize) {
        let n = self.pos.len();
        if n == 0 {
            return;
        }
        let k = k % n;
        self.pos.rotate_left(k);
        self.id.rotate_left(k);
    }

    /// Test/workload helper: reverse chain orientation. The paper's chains
    /// have a local orientation; the algorithm must be equivariant under
    /// reversing it (checked by symmetry tests).
    pub fn reverse_orientation(&mut self) {
        self.pos.reverse();
        self.id.reverse();
    }

    /// Translate all robots by `o` (symmetry tests: no global coordinates).
    pub fn translate(&mut self, o: Offset) {
        for p in &mut self.pos {
            *p += o;
        }
    }

    /// Apply a grid isometry to all positions: rotate by 90° `quarter`
    /// times counter-clockwise around the origin, then mirror x if asked.
    /// (Symmetry tests: no compass.)
    pub fn transform(&mut self, quarters: u8, mirror_x: bool) {
        for p in &mut self.pos {
            let mut q = *p;
            for _ in 0..(quarters % 4) {
                q = Point::new(-q.y, q.x);
            }
            if mirror_x {
                q = Point::new(-q.x, q.y);
            }
            *p = q;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(coords: &[(i64, i64)]) -> ClosedChain {
        ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    fn square4() -> ClosedChain {
        chain(&[(0, 0), (0, 1), (1, 1), (1, 0)])
    }

    #[test]
    fn construction_validates() {
        assert!(ClosedChain::new(vec![]).is_err());
        // Gap breaks the chain.
        assert!(ClosedChain::new(vec![Point::new(0, 0), Point::new(2, 0)]).is_err());
        // Diagonal neighbors are not chain-adjacent.
        assert!(ClosedChain::new(vec![Point::new(0, 0), Point::new(1, 1)]).is_err());
        // Coincident neighbors rejected at construction.
        assert!(ClosedChain::new(vec![Point::new(0, 0), Point::new(0, 0)]).is_err());
        // Minimal legal chain: two robots on adjacent points.
        let c = ClosedChain::new(vec![Point::new(0, 0), Point::new(1, 0)]).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cyclic_indexing() {
        let c = square4();
        assert_eq!(c.nb(0, 1), 1);
        assert_eq!(c.nb(0, -1), 3);
        assert_eq!(c.nb(3, 1), 0);
        assert_eq!(c.nb(1, 6), 3);
        assert_eq!(c.nb(1, -6), 3);
        assert_eq!(c.cyc(-1), 3);
        assert_eq!(c.cyc(4), 0);
    }

    /// `cyc`/`nb` agree with the Euclidean modulo for every chain length up
    /// to 40 and every offset within three laps, so both the compare-and-add
    /// wrap and the tiny-chain fallback are pinned.
    #[test]
    fn cyclic_indexing_matches_euclidean_modulo() {
        for n in 1..=40usize {
            let c = ClosedChain {
                pos: vec![Point::new(0, 0); n],
                id: (0..n as u64).map(RobotId).collect(),
            };
            let ni = n as isize;
            for delta in -3 * ni..=3 * ni {
                assert_eq!(
                    c.cyc(delta),
                    delta.rem_euclid(ni) as usize,
                    "cyc({delta}), n={n}"
                );
                for i in 0..n {
                    let want = (i as isize + delta).rem_euclid(ni) as usize;
                    assert_eq!(c.nb(i, delta), want, "nb({i}, {delta}), n={n}");
                }
            }
        }
    }

    /// The merge pass as it was before the log was sorted by one rotation:
    /// walk from the anchor, then sort the parallel arrays with
    /// `sort_unstable_by_key` — the reference for the randomized test.
    fn reference_merge(c: &ClosedChain) -> (Vec<usize>, Vec<usize>, Vec<MergeEvent>) {
        let (pos, id, n) = (&c.pos, &c.id, c.len());
        let (mut removed, mut keepers, mut events) = (Vec::new(), Vec::new(), Vec::new());
        if pos.iter().all(|&p| p == pos[0]) {
            let ev = MergeEvent {
                keeper: id[0],
                removed: id[1..].to_vec(),
                at: pos[0],
            };
            return ((1..n).collect(), vec![0; n - 1], vec![ev]);
        }
        let mut anchor = 0;
        while pos[(anchor + n - 1) % n] == pos[anchor] {
            anchor += 1;
        }
        let mut k = 0;
        while k < n {
            let gi = (anchor + k) % n;
            let mut glen = 1;
            while glen < n && pos[(anchor + k + glen) % n] == pos[gi] {
                glen += 1;
            }
            if glen > 1 {
                let ris: Vec<usize> = (1..glen).map(|j| (anchor + k + j) % n).collect();
                events.push(MergeEvent {
                    keeper: id[gi],
                    removed: ris.iter().map(|&r| id[r]).collect(),
                    at: pos[gi],
                });
                keepers.extend(std::iter::repeat_n(gi, ris.len()));
                removed.extend(ris);
            }
            k += glen;
        }
        let mut order: Vec<usize> = (0..removed.len()).collect();
        order.sort_unstable_by_key(|&i| removed[i]);
        let removed_sorted = order.iter().map(|&i| removed[i]).collect();
        let keepers_sorted = order.iter().map(|&i| keepers[i]).collect();
        (removed_sorted, keepers_sorted, events)
    }

    /// Randomized: the rotated splice log equals the sorted reference on
    /// closed walks with random stay-steps (coincidence groups of any
    /// length, wrapping index 0 after a random origin rotation), including
    /// the all-on-one-point collapse, with one log reused throughout.
    #[test]
    fn merge_pass_log_matches_sorted_reference() {
        use crate::rng::SplitMix64;
        let dirs = [Offset::RIGHT, Offset::UP, Offset::LEFT, Offset::DOWN];
        let mut rng = SplitMix64::new(0x5eed);
        let mut wrapped_groups = 0;
        let mut log = SpliceLog::default();
        for case in 0..2000 {
            // Out along a random walk, back along its reverse: closed and
            // connected, with a zero step (a coincidence) wherever a stay
            // was drawn; every 50th walk stays put throughout.
            let m = rng.range_usize(1, 24);
            let stay_odds = if case % 50 == 0 { 1 } else { 3 };
            let steps: Vec<Offset> = (0..m)
                .map(|_| {
                    if rng.below(stay_odds) == 0 {
                        Offset::ZERO
                    } else {
                        *rng.choose(&dirs)
                    }
                })
                .collect();
            let mut out = vec![Point::new(0, 0)];
            for &s in &steps {
                out.push(*out.last().unwrap() + s);
            }
            let pos: Vec<Point> = out.iter().chain(out[1..m].iter().rev()).copied().collect();
            let n = pos.len();
            let mut c = ClosedChain {
                id: (0..n as u64).map(RobotId).collect(),
                pos,
            };
            c.check_connected().expect("closed walk is connected");
            c.rotate_origin(rng.range_usize(0, n));
            if c.pos[0] == c.pos[n - 1] && c.pos.iter().any(|&p| p != c.pos[0]) {
                wrapped_groups += 1;
            }
            let (removed, keepers, events) = reference_merge(&c);
            let count = c.merge_pass(&mut log);
            assert_eq!(count, removed.len(), "case {case}");
            assert_eq!(log.removed_indices, removed, "case {case}");
            assert_eq!(log.keeper_indices, keepers, "case {case}");
            assert_eq!(log.events, events, "case {case}");
            assert!(log.removed_indices.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(
            wrapped_groups > 50,
            "only {wrapped_groups} wrapping groups drawn"
        );
    }

    /// `SpliceLog::splice` keeps exactly the entries whose index is not
    /// logged, in order, for every removal set of small arrays.
    #[test]
    fn splice_matches_filtering() {
        for n in 0..=9usize {
            for set in 0u32..(1 << n) {
                let removed: Vec<usize> = (0..n).filter(|i| set >> i & 1 == 1).collect();
                let log = SpliceLog {
                    keeper_indices: vec![0; removed.len()],
                    removed_indices: removed,
                    events: Vec::new(),
                };
                let mut v: Vec<usize> = (100..100 + n).collect();
                let want: Vec<usize> = v
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| set >> i & 1 == 0)
                    .map(|(_, &x)| x)
                    .collect();
                log.splice(&mut v);
                assert_eq!(v, want, "n={n} removed={:?}", log.removed_indices);
            }
        }
    }

    #[test]
    fn steps_are_unit_on_taut_chain() {
        let c = square4();
        for i in 0..c.len() {
            assert!(c.step(i).is_unit_step(), "step {i}");
        }
    }

    #[test]
    fn bounding_and_gathered() {
        let c = square4();
        assert!(c.is_gathered());
        let big = chain(&[(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]);
        assert!(!big.is_gathered());
        assert_eq!(big.bounding().width(), 3);
        assert_eq!(big.bounding().height(), 2);
    }

    #[test]
    fn apply_hops_moves_simultaneously() {
        let mut c = chain(&[(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]);
        let hops = vec![Offset::ZERO; 6];
        c.apply_hops(&hops).unwrap();
        assert_eq!(c.pos(0), Point::new(0, 0));
        // Illegal hop rejected.
        let mut bad = vec![Offset::ZERO; 6];
        bad[2] = Offset::new(2, 0);
        assert!(matches!(
            c.apply_hops(&bad),
            Err(ChainError::IllegalHop { index: 2, .. })
        ));
    }

    #[test]
    fn merge_pass_collapses_neighbor_coincidence() {
        // Figure 1 of the paper: r2 and r3 hop down onto r1 and r4.
        // Chain: r0(0,0) r1(0,1) r2(0,2) r3(1,2) r4(1,1) r5(1,0), closed.
        let mut c = chain(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]);
        let hops = vec![
            Offset::ZERO,
            Offset::ZERO,
            Offset::DOWN,
            Offset::DOWN,
            Offset::ZERO,
            Offset::ZERO,
        ];
        c.apply_hops(&hops).unwrap();
        let mut log = SpliceLog::default();
        let removed = c.merge_pass(&mut log);
        assert_eq!(removed, 2);
        assert_eq!(c.len(), 4);
        c.validate().unwrap();
        assert!(c.is_gathered());
        // Keeper of each pair is the first of the coincidence group in
        // chain order: r1 keeps (r2 removed), r3 keeps (r4 removed).
        assert_eq!(log.events.len(), 2);
    }

    #[test]
    fn merge_pass_handles_groups_of_three() {
        // Three consecutive robots on one point (Fig. 3b aftermath).
        let mut c = chain(&[(0, 0), (1, 0), (1, 1), (0, 1)]);
        let hops = vec![
            Offset::ZERO,
            Offset::new(-1, 0),
            Offset::new(-1, -1),
            Offset::new(0, -1),
        ];
        c.apply_hops(&hops).unwrap();
        // Now all four robots are at (0,0).
        let mut log = SpliceLog::default();
        let removed = c.merge_pass(&mut log);
        assert_eq!(removed, 3);
        assert_eq!(c.len(), 1);
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].removed.len(), 3);
    }

    #[test]
    fn merge_pass_wrapping_group() {
        // Fig. 1 configuration with the chain origin rotated so one
        // coincidence group wraps the index origin {r5, r0}.
        let mut c = chain(&[(0, 2), (1, 2), (1, 1), (1, 0), (0, 0), (0, 1)]);
        let hops = vec![
            Offset::DOWN,
            Offset::DOWN,
            Offset::ZERO,
            Offset::ZERO,
            Offset::ZERO,
            Offset::ZERO,
        ];
        c.apply_hops(&hops).unwrap();
        assert_eq!(c.pos(0), c.pos(5)); // wrapping coincidence
        assert_eq!(c.pos(1), c.pos(2));
        let mut log = SpliceLog::default();
        let removed = c.merge_pass(&mut log);
        assert_eq!(removed, 2);
        assert_eq!(c.len(), 4);
        c.validate().unwrap();
        assert_eq!(log.events.len(), 2);
        // Exactly one of {0, 5} was removed, and remap agrees.
        let wrap_gone = log.removed_indices.iter().any(|&i| i == 0 || i == 5);
        assert!(wrap_gone);
        for &gone in &log.removed_indices {
            assert_eq!(log.remap(gone), None);
        }
    }

    #[test]
    fn merge_pass_ignores_non_neighbor_coincidence() {
        // A chain crossing itself: two robots share a point but are not
        // chain neighbors — must NOT merge (explicit in the paper).
        // Figure-eight-ish: walk right, up, left, down through the middle.
        let mut c = chain(&[
            (0, 0),
            (1, 0),
            (1, 1),
            (0, 1),
            (0, 0),
            (-1, 0),
            (-1, -1),
            (0, -1),
        ]);
        assert_eq!(c.pos(0), c.pos(4));
        let mut log = SpliceLog::default();
        let removed = c.merge_pass(&mut log);
        assert_eq!(removed, 0);
        assert_eq!(c.len(), 8);
        c.validate().unwrap();
    }

    #[test]
    fn splice_log_remap() {
        let log = SpliceLog {
            removed_indices: vec![2, 5],
            keeper_indices: vec![1, 4],
            events: vec![],
        };
        assert_eq!(log.remap(0), Some(0));
        assert_eq!(log.remap(1), Some(1));
        assert_eq!(log.remap(2), None);
        assert_eq!(log.remap(3), Some(2));
        assert_eq!(log.remap(4), Some(3));
        assert_eq!(log.remap(5), None);
        assert_eq!(log.remap(6), Some(4));
    }

    #[test]
    fn symmetry_helpers() {
        let mut c = square4();
        let before = c.positions().to_vec();
        c.rotate_origin(2);
        assert_eq!(c.pos(0), before[2]);
        c.reverse_orientation();
        c.validate().unwrap();
        c.translate(Offset::new(10, -3));
        c.validate().unwrap();
        c.transform(1, false);
        c.validate().unwrap();
        c.transform(3, true);
        c.validate().unwrap();
    }

    #[test]
    fn total_collapse() {
        let mut c = chain(&[(0, 0), (1, 0)]);
        let hops = vec![Offset::ZERO, Offset::new(-1, 0)];
        c.apply_hops(&hops).unwrap();
        let mut log = SpliceLog::default();
        assert_eq!(c.merge_pass(&mut log), 1);
        assert_eq!(c.len(), 1);
        assert!(c.is_gathered());
    }
}
