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

use crate::packed::{
    self, edge_code, edge_codes_into, edge_offset, opposite, step_offset, walk, CollapsedEdges,
    EDGE_N, EDGE_ZERO,
};
use crate::robot::RobotId;
use grid_geom::{chain_adjacent, Offset, Point, Rect};
use std::ops::Range;
use std::sync::OnceLock;

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
    /// An edge code that is not a unit step: [`EDGE_ZERO`] or anything
    /// past it ([`ClosedChain::from_codes`]).
    NotUnitEdge {
        /// Index of the robot the edge leaves.
        index: usize,
        /// The rejected code.
        code: u8,
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
            ChainError::NotUnitEdge { index, code } => {
                write!(f, "edge {index} has code {code}, not a unit step")
            }
            ChainError::IllegalHop { index, hop } => {
                write!(f, "illegal hop {hop} for robot at index {index}")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// One merge of the merge pass: the robots whose ids `removed` spans in
/// the round's [`Merges::removed_ids`] were spliced out because they
/// coincided with chain neighbor `keeper`. Read the ids through
/// [`Merges::removed`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeEvent {
    /// Id of the surviving robot of the coincidence group.
    pub keeper: RobotId,
    /// Where the ids of the removed robots (≥ 1) lie in
    /// [`Merges::removed_ids`].
    pub removed: Range<usize>,
}

/// The merge events of one merge pass and the ids they removed, in one
/// buffer shared by all events: a round's merges cost no allocation once
/// the buffers have grown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Merges {
    events: Vec<MergeEvent>,
    removed_ids: Vec<RobotId>,
}

impl Merges {
    /// The events, one per coincidence group, in keeper order (the group
    /// that wraps index 0 last).
    pub fn events(&self) -> &[MergeEvent] {
        &self.events
    }

    /// The ids `event` removed, in chain order from its keeper on.
    pub fn removed(&self, event: &MergeEvent) -> &[RobotId] {
        &self.removed_ids[event.removed.clone()]
    }

    /// Every removed id, event by event.
    pub fn removed_ids(&self) -> &[RobotId] {
        &self.removed_ids
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing merged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Log an event: `keeper` removed `ids`, appended to the shared
    /// buffer.
    pub(crate) fn push(&mut self, keeper: RobotId, ids: impl IntoIterator<Item = RobotId>) {
        let from = self.removed_ids.len();
        self.removed_ids.extend(ids);
        self.events.push(MergeEvent {
            keeper,
            removed: from..self.removed_ids.len(),
        });
    }

    fn clear(&mut self) {
        self.events.clear();
        self.removed_ids.clear();
    }
}

/// [`SpliceLog::fates`] entry of a robot that kept its coincidence group.
pub const KEEPER: u8 = 1;
/// [`SpliceLog::fates`] entry of a robot spliced out.
pub const REMOVED: u8 = 2;

/// Result of a merge pass: which (pre-splice) indices were removed and
/// kept, the fate of every pre-splice index, and the merge events.
/// Strategies use this to keep their per-robot state arrays in sync with
/// the chain.
#[derive(Clone, Debug, Default)]
pub struct SpliceLog {
    /// Pre-splice indices removed, strictly ascending.
    pub(crate) removed_indices: Vec<usize>,
    /// Pre-splice index of the keeper for each removed index (parallel to
    /// `removed_indices`).
    pub(crate) keeper_indices: Vec<usize>,
    /// [`KEEPER`], [`REMOVED`] or 0 by pre-splice index; at least as long
    /// as the chain was, and 0 past it.
    fates: Vec<u8>,
    /// The merge events, one per coincidence group, with their ids.
    pub(crate) merges: Merges,
}

impl SpliceLog {
    /// A log with room for a merge pass over `n` robots, so that no merge
    /// pass of a chain of at most `n` robots allocates.
    pub fn with_capacity(n: usize) -> Self {
        let mut log = SpliceLog::default();
        log.removed_indices.reserve(n);
        log.keeper_indices.reserve(n);
        log.fates.resize(n, 0);
        log.merges.events.reserve(n / 2);
        log.merges.removed_ids.reserve(n);
        log
    }

    /// Reset the log for the next merge pass (buffers keep their
    /// capacity; only the fates the last pass set are cleared).
    pub fn clear(&mut self) {
        for &i in self.removed_indices.iter().chain(&self.keeper_indices) {
            self.fates[i] = 0;
        }
        self.removed_indices.clear();
        self.keeper_indices.clear();
        self.merges.clear();
    }

    /// Number of robots removed.
    pub fn removed_count(&self) -> usize {
        self.removed_indices.len()
    }

    /// `true` if nothing merged.
    pub fn is_empty(&self) -> bool {
        self.removed_indices.is_empty()
    }

    /// Pre-splice indices removed, strictly ascending.
    pub fn removed_indices(&self) -> &[usize] {
        &self.removed_indices
    }

    /// [`KEEPER`], [`REMOVED`] or 0 for every pre-splice index; the slice
    /// may run past the pre-splice chain, with 0 there.
    pub fn fates(&self) -> &[u8] {
        &self.fates
    }

    /// The merge events and their removed ids.
    pub fn merges(&self) -> &Merges {
        &self.merges
    }

    /// The first pre-splice index with a fate, if anything merged: every
    /// index below it keeps its place.
    pub fn first_touched(&self) -> Option<usize> {
        // A group's keeper directly precedes its first removed robot,
        // unless the group wraps index 0, whose removed robots come first.
        let &first = self.removed_indices.first()?;
        Some(first.min(self.keeper_indices[0]))
    }

    /// Log that the robots at `removed` merged into the one at `keeper`,
    /// indices ascending; `fates` must cover them.
    pub(crate) fn log_group(&mut self, keeper: usize, removed: Range<usize>) {
        self.fates[keeper] = KEEPER;
        self.fates[removed.clone()].fill(REMOVED);
        self.keeper_indices
            .extend(std::iter::repeat_n(keeper, removed.len()));
        self.removed_indices.extend(removed);
    }

    /// Make the fates cover a chain of `n` robots.
    pub(crate) fn cover(&mut self, n: usize) {
        if self.fates.len() < n {
            self.fates.resize(n, 0);
        }
    }

    /// Remove the logged indices from `v`, an array parallel to the
    /// pre-splice chain, keeping the order of the rest: the merge pass's
    /// own compaction, for per-robot state kept beside the chain. From the
    /// first removed index on, every entry is copied down without a
    /// branch, and the write index advances past survivors only.
    pub fn splice<T: Copy>(&self, v: &mut Vec<T>) {
        let Some(&first) = self.removed_indices.first() else {
            return;
        };
        let fates = &self.fates[..v.len()];
        let mut write = first;
        for read in first..fates.len() {
            v[write] = v[read];
            write += usize::from(fates[read] != REMOVED);
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

/// The closed chain of robots, stored as its edges: the position of robot
/// 0 (`origin`), one [`crate::packed`] direction code per edge, and the
/// robot ids. Positions are decoded from the edges only when asked for
/// ([`ClosedChain::positions`]) and cached until the next mutation.
///
/// A round moves the chain through [`ClosedChain::apply_hops`], which
/// rewrites every edge from the hops of its two robots
/// ([`crate::kernel::APPLY_EDGE`]): an edge that collapsed holds
/// [`EDGE_ZERO`] until [`ClosedChain::merge_pass`] splices it out, and a
/// hop set that would stretch an edge is refused with the chain left as
/// it was.
#[derive(Clone, Debug)]
pub struct ClosedChain {
    origin: Point,
    /// `codes[i]` is the edge from robot `i` to robot `i + 1` (cyclic);
    /// empty for a single robot.
    codes: Vec<u8>,
    id: Vec<RobotId>,
    /// The last apply collapsed an edge that no merge pass has spliced
    /// out yet.
    collapsed: bool,
    /// The codes an apply writes, swapped in when the move is legal.
    next: Vec<u8>,
    /// Decoded positions, dropped on every mutation.
    pos: OnceLock<Box<[Point]>>,
}

/// Two chains are equal when they hold the same robots on the same points:
/// origin, edge codes and ids (the positions cache and the apply buffer
/// are not part of the state).
impl PartialEq for ClosedChain {
    fn eq(&self, other: &Self) -> bool {
        self.origin == other.origin
            && self.codes == other.codes
            && self.id == other.id
            && self.collapsed == other.collapsed
    }
}

impl Eq for ClosedChain {}

impl ClosedChain {
    /// Build a chain from positions; assigns fresh ids `r0, r1, …`. The
    /// chain keeps the edges; the positions are decoded again when asked
    /// for.
    ///
    /// Returns an error unless the sequence is a valid taut closed chain:
    /// every cyclically-consecutive pair differs by exactly one axis step.
    pub fn new(positions: Vec<Point>) -> Result<Self, ChainError> {
        let n = positions.len();
        if n < 2 {
            if n == 0 {
                return Err(ChainError::TooShort { len: 0 });
            }
        } else {
            for (i, &a) in positions.iter().enumerate() {
                let b = positions[if i + 1 == n { 0 } else { i + 1 }];
                if a == b {
                    return Err(ChainError::CoincidentNeighbors { index: i, at: a });
                }
                if !chain_adjacent(a, b) {
                    return Err(ChainError::Disconnected { index: i, a, b });
                }
            }
        }
        let mut codes = Vec::new();
        edge_codes_into(&positions, &mut codes);
        Ok(ClosedChain {
            origin: positions[0],
            codes,
            id: (0..n as u64).map(RobotId).collect(),
            collapsed: false,
            next: Vec::new(),
            pos: OnceLock::new(),
        })
    }

    /// Build a chain from the position of robot 0 and one
    /// [`crate::packed`] code per edge (byte `i` is the step from robot `i`
    /// to robot `i + 1`, the last one closing the walk); assigns fresh ids
    /// `r0, r1, …`. This is [`ClosedChain::new`] for input that is already
    /// a walk, as the workload generators build it: nothing is decoded.
    ///
    /// Returns an error unless the codes form a taut closed chain:
    /// * fewer than two codes: [`ChainError::TooShort`];
    /// * a code outside `0..4` ([`EDGE_ZERO`] included):
    ///   [`ChainError::NotUnitEdge`] for the first one;
    /// * a last code that does not lead from robot `n − 1` back to
    ///   `origin`: [`ChainError::CoincidentNeighbors`] at index `n − 1` if
    ///   robot `n − 1` lands on `origin`, otherwise
    ///   [`ChainError::Disconnected`] between robot `n − 1` and `origin`
    ///   (also when the two are adjacent: the walk must close by its own
    ///   last step).
    pub fn from_codes(origin: Point, codes: Vec<u8>) -> Result<Self, ChainError> {
        let n = codes.len();
        if n < 2 {
            return Err(ChainError::TooShort { len: n });
        }
        // A code is a unit step iff it has no bit above bit 1.
        if codes.iter().fold(0, |bits, &c| bits | c) > EDGE_N {
            let index = codes
                .iter()
                .position(|&c| c > EDGE_N)
                .expect("a code past EDGE_N");
            return Err(ChainError::NotUnitEdge {
                index,
                code: codes[index],
            });
        }
        let last = walk(origin, &codes[..n - 1]);
        if last + edge_offset(codes[n - 1]) != origin {
            return Err(if last == origin {
                ChainError::CoincidentNeighbors {
                    index: n - 1,
                    at: last,
                }
            } else {
                ChainError::Disconnected {
                    index: n - 1,
                    a: last,
                    b: origin,
                }
            });
        }
        Ok(ClosedChain {
            origin,
            codes,
            id: (0..n as u64).map(RobotId).collect(),
            collapsed: false,
            next: Vec::new(),
            pos: OnceLock::new(),
        })
    }

    /// Number of robots currently on the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// `true` if the chain holds no robots (never the case for a validated
    /// chain; provided for the `len`/`is_empty` API convention).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
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
        let n = self.id.len() as isize;
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

    /// Position of robot `i` (decodes all positions on first use after a
    /// mutation).
    #[inline]
    pub fn pos(&self, i: usize) -> Point {
        self.positions()[i]
    }

    /// Id of robot `i`.
    #[inline]
    pub fn id(&self, i: usize) -> RobotId {
        self.id[i]
    }

    /// All positions (chain order), decoded from the edges on first use
    /// after a mutation and cached until the next one.
    pub fn positions(&self) -> &[Point] {
        self.pos
            .get_or_init(|| packed::decode(self.origin, &self.codes).into_boxed_slice())
    }

    /// Position of robot 0.
    #[inline]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// The edge codes in the [`crate::packed`] layout, one byte per edge:
    /// byte `i` is the step from robot `i` to robot `i + 1` (cyclic). A
    /// single robot has none. Between an apply and the merge pass a
    /// collapsed edge reads [`EDGE_ZERO`].
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
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
        self.codes.get(i).map_or(Offset::ZERO, |&c| step_offset(c))
    }

    /// Position of robot `k`, from the cache or by walking the edges.
    fn point_at(&self, k: usize) -> Point {
        match self.pos.get() {
            Some(pos) => pos[k],
            None => walk(self.origin, &self.codes[..k]),
        }
    }

    /// Bounding box of all robots, walked from the edges.
    pub fn bounding(&self) -> Rect {
        packed::bounding(self.origin, &self.codes)
    }

    /// The paper's gathering criterion: all robots within a 2×2 subgrid.
    pub fn is_gathered(&self) -> bool {
        self.bounding().is_gathered_2x2()
    }

    /// Validate the taut closed-chain invariant. An edge-backed chain
    /// cannot hold a stretched edge, so the only failure is an edge left
    /// collapsed by an apply that no merge pass followed.
    pub fn validate(&self) -> Result<(), ChainError> {
        if self.is_empty() {
            return Err(ChainError::TooShort { len: 0 });
        }
        match self.codes.iter().position(|&c| c == EDGE_ZERO) {
            Some(index) => Err(ChainError::CoincidentNeighbors {
                index,
                at: self.point_at(index),
            }),
            None => Ok(()),
        }
    }

    /// Apply one hop per robot simultaneously (the move step of FSYNC);
    /// returns the number of robots that performed a nonzero hop.
    ///
    /// Hops must have components in `{-1, 0, 1}`. Edges that collapse stay
    /// in the chain, at length 0, until [`ClosedChain::merge_pass`].
    ///
    /// This is the edge rewrite of [`crate::packed`], which the kernels
    /// share: every edge is rewritten through
    /// [`APPLY_EDGE`](crate::kernel::APPLY_EDGE) from the hops of its two
    /// robots, into a second code buffer that replaces the codes only if
    /// the move is legal. An illegal hop is reported first, then the first
    /// edge that would stretch, as [`ChainError::Disconnected`] with the
    /// post-move positions of its two robots; the chain is then left as it
    /// was.
    ///
    /// # Panics
    /// If `hops` is not one hop per robot, or if a previous apply left
    /// collapsed edges that no merge pass spliced out.
    pub fn apply_hops(&mut self, hops: &[Offset]) -> Result<usize, ChainError> {
        assert_eq!(hops.len(), self.len(), "one hop per robot");
        assert!(
            !self.collapsed,
            "a merge pass must follow an apply that collapsed edges"
        );
        let done = packed::rewrite(&mut self.origin, &mut self.codes, &mut self.next, hops)?;
        self.collapsed = done.collapsed;
        if done.moved > 0 {
            self.pos.take();
        }
        Ok(done.moved)
    }

    /// The merge pass: splice out robots coinciding with chain neighbors.
    ///
    /// Maximal groups of cyclically-consecutive robots on one point (runs
    /// of collapsed edges) are collapsed to their first member (first in
    /// chain order, with wrapping groups anchored at their true start).
    /// The neighborhoods merge exactly as in the paper: the keeper
    /// inherits the group's outside neighbors. Events are logged in keeper
    /// order (the group that wraps index 0 last), the removed indices
    /// ascending, and every index of a group gets its fate.
    ///
    /// The edges go through the splice of [`crate::packed`], which the
    /// kernels share; the ids follow the log's fates.
    ///
    /// Returns the number of robots removed; details land in `log`.
    pub fn merge_pass(&mut self, log: &mut SpliceLog) -> usize {
        log.clear();
        if !std::mem::take(&mut self.collapsed) {
            return 0;
        }
        self.pos.take();
        self.log_merges(log);
        log.splice(&mut self.id);
        let removed = packed::splice(&mut self.origin, &mut self.codes);
        debug_assert_eq!(removed, log.removed_count());
        removed
    }

    /// Log the merges the collapsed edges make (see
    /// [`ClosedChain::merge_pass`]): indices and fates group by group, and
    /// each group's event with its removed ids.
    fn log_merges(&self, log: &mut SpliceLog) {
        let (n, codes, ids) = (self.len(), &self.codes, &self.id);
        log.cover(n);
        let lead = codes.iter().take_while(|&&c| c == EDGE_ZERO).count();
        if lead == n {
            // Every edge collapsed: everyone on one point.
            log.log_group(0, 1..n);
            log.merges.push(ids[0], ids[1..].iter().copied());
            return;
        }
        // Robot 0 goes when the closing edge collapsed. Its group starts at
        // the last run of collapsed edges and takes in the leading run
        // (edges 0..lead) too; its robots 0 ..= lead are logged first, its
        // event last.
        let wraps = codes[n - 1] == EDGE_ZERO;
        let lead = if wraps { lead } else { 0 };
        if wraps {
            let mut start = n - 1;
            while codes[start - 1] == EDGE_ZERO {
                start -= 1;
            }
            log.log_group(start, 0..lead + 1);
        }
        // One run of collapsed edges per group.
        let mut zeros = CollapsedEdges::starting_at(codes, lead);
        let mut found = zeros.next(codes);
        while let Some(keeper) = found {
            let mut last = keeper;
            found = zeros.next(codes);
            while found == Some(last + 1) {
                last += 1;
                found = zeros.next(codes);
            }
            // One past the group's last robot: n + 1 for the group that
            // wraps, whose robots n and on are 0 ..= lead.
            let stop = (last + 2).min(n);
            log.log_group(keeper, keeper + 1..stop);
            let wrapped: &[RobotId] = if last + 2 > n { &ids[..=lead] } else { &[] };
            let removed = ids[keeper + 1..stop].iter().chain(wrapped);
            log.merges.push(ids[keeper], removed.copied());
        }
    }

    /// Sum of chain edge lengths (all 1 when taut) — the chain length in
    /// the paper's sense is simply `len()`, provided here for reports.
    pub fn edge_count(&self) -> usize {
        self.len()
    }

    /// The symmetry helpers below act on a taut chain.
    fn assert_taut(&self) {
        assert!(!self.collapsed, "chain has unmerged collapsed edges");
    }

    /// Test/workload helper: rotate the chain origin (`r_0`) by `k`
    /// positions. The configuration is unchanged; indistinguishability means
    /// strategies must behave identically (checked by symmetry tests).
    pub fn rotate_origin(&mut self, k: usize) {
        self.assert_taut();
        let n = self.len();
        if n == 0 {
            return;
        }
        let k = k % n;
        self.origin = self.point_at(k);
        self.codes.rotate_left(k);
        self.id.rotate_left(k);
        self.pos.take();
    }

    /// Test/workload helper: reverse chain orientation. The paper's chains
    /// have a local orientation; the algorithm must be equivariant under
    /// reversing it (checked by symmetry tests).
    pub fn reverse_orientation(&mut self) {
        self.assert_taut();
        let n = self.len();
        if n >= 2 {
            // Robot n−1 becomes robot 0; every edge turns around.
            self.origin -= edge_offset(self.codes[n - 1]);
            self.codes[..n - 1].reverse();
            for c in &mut self.codes {
                *c = opposite(*c);
            }
        }
        self.id.reverse();
        self.pos.take();
    }

    /// Translate all robots by `o` (symmetry tests: no global coordinates).
    pub fn translate(&mut self, o: Offset) {
        self.origin += o;
        self.pos.take();
    }

    /// Apply a grid isometry to all positions: rotate by 90° `quarter`
    /// times counter-clockwise around the origin, then mirror x if asked.
    /// (Symmetry tests: no compass.)
    pub fn transform(&mut self, quarters: u8, mirror_x: bool) {
        self.assert_taut();
        let map = |o: Offset| {
            let mut q = o;
            for _ in 0..(quarters % 4) {
                q = Offset::new(-q.dy, q.dx);
            }
            if mirror_x {
                q = Offset::new(-q.dx, q.dy);
            }
            q
        };
        self.origin = Point::ORIGIN + map(self.origin - Point::ORIGIN);
        for c in &mut self.codes {
            *c = edge_code(map(edge_offset(*c))).expect("an isometry keeps unit steps");
        }
        self.pos.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{
        collapse_tips, oracle_case, random_walk, OracleCase, PosChain, ORACLE_CASES, ORACLE_SEED,
    };
    use crate::rng::SplitMix64;

    fn chain(coords: &[(i64, i64)]) -> ClosedChain {
        ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    fn square4() -> ClosedChain {
        chain(&[(0, 0), (0, 1), (1, 1), (1, 0)])
    }

    /// `from_codes` accepts exactly the closed walks of unit steps, with
    /// the errors its docs name, and builds what `new` builds from the
    /// walk's positions.
    #[test]
    fn from_codes_contract() {
        use crate::packed::{EDGE_E, EDGE_S, EDGE_W};
        let o = Point::new(3, -2);
        let square = ClosedChain::from_codes(o, vec![EDGE_N, EDGE_E, EDGE_S, EDGE_W]).unwrap();
        let mut moved = square4();
        moved.translate(Offset::new(3, -2));
        assert!(square == moved);
        let pair = chain(&[(3, -2), (4, -2)]);
        assert!(ClosedChain::from_codes(o, vec![EDGE_E, EDGE_W]).unwrap() == pair);
        for codes in [vec![], vec![EDGE_E]] {
            assert_eq!(
                ClosedChain::from_codes(o, codes.clone()),
                Err(ChainError::TooShort { len: codes.len() })
            );
        }
        for bad in [EDGE_ZERO, 5, 0x80, u8::MAX] {
            assert_eq!(
                ClosedChain::from_codes(o, vec![EDGE_E, EDGE_N, bad, EDGE_W, EDGE_S]),
                Err(ChainError::NotUnitEdge {
                    index: 2,
                    code: bad
                })
            );
        }
        // Robot 3 of E N W lands next to the origin but the last step
        // leads away from it; robot 2 of E W lands on it; robot 4 of
        // E E N W is not next to it.
        assert_eq!(
            ClosedChain::from_codes(o, vec![EDGE_E, EDGE_N, EDGE_W, EDGE_N]),
            Err(ChainError::Disconnected {
                index: 3,
                a: Point::new(3, -1),
                b: o
            })
        );
        assert_eq!(
            ClosedChain::from_codes(o, vec![EDGE_E, EDGE_W, EDGE_N]),
            Err(ChainError::CoincidentNeighbors { index: 2, at: o })
        );
        assert_eq!(
            ClosedChain::from_codes(o, vec![EDGE_E, EDGE_E, EDGE_N, EDGE_W, EDGE_S]),
            Err(ChainError::Disconnected {
                index: 4,
                a: Point::new(4, -1),
                b: o
            })
        );
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
                origin: Point::new(0, 0),
                codes: Vec::new(),
                id: (0..n as u64).map(RobotId).collect(),
                collapsed: false,
                next: Vec::new(),
                pos: OnceLock::new(),
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

    /// What one round did, for comparison with the oracle.
    #[derive(Debug, PartialEq)]
    struct Round {
        moved: usize,
        removed: usize,
        removed_indices: Vec<usize>,
        keeper_indices: Vec<usize>,
        merges: Merges,
    }

    fn edge_round(c: &mut ClosedChain, hops: &[Offset]) -> Result<Round, ChainError> {
        let moved = c.apply_hops(hops)?;
        let mut log = SpliceLog::default();
        let removed = c.merge_pass(&mut log);
        Ok(Round {
            moved,
            removed,
            removed_indices: log.removed_indices,
            keeper_indices: log.keeper_indices,
            merges: log.merges,
        })
    }

    fn oracle_round(c: &mut PosChain, hops: &[Offset]) -> Result<Round, ChainError> {
        let moved = c.apply_hops(hops)?;
        let mut log = SpliceLog::default();
        let removed = c.merge_pass(&mut log);
        Ok(Round {
            moved,
            removed,
            removed_indices: log.removed_indices,
            keeper_indices: log.keeper_indices,
            merges: log.merges,
        })
    }

    /// The splice log the merge pass builds from runs of collapsed edges
    /// (events in keeper order, removed indices ascending with the group
    /// that wraps index 0 first) equals the oracle's, which walks the
    /// positions and sorts; fold-tip collapses on rotated random walks give
    /// groups of every odd length, many of them wrapping index 0.
    #[test]
    fn merge_pass_log_matches_sorted_reference() {
        let mut rng = SplitMix64::new(0x5eed);
        let mut wrapped_groups = 0;
        for case in 0..2000 {
            let m = rng.range_usize(1, 12);
            let pos = random_walk(&mut rng, m);
            let n = pos.len();
            let mut chain = ClosedChain::new(pos).unwrap();
            chain.rotate_origin(rng.range_usize(0, n));
            let mut hops = vec![Offset::ZERO; n];
            collapse_tips(&mut rng, chain.positions(), &mut hops);
            let mut oracle = PosChain::of(&chain);
            let want = oracle_round(&mut oracle, &hops).unwrap();
            let got = edge_round(&mut chain, &hops).unwrap();
            assert_eq!(got, want, "case {case}");
            wrapped_groups += usize::from(want.removed_indices.first() == Some(&0));
        }
        assert!(
            wrapped_groups > 100,
            "only {wrapped_groups} wrapping groups drawn"
        );
    }

    /// The edge-backed chain against the position-backed oracle, round for
    /// round, on the random rounds of [`oracle_case`]: closed walks with
    /// accordions after a random origin rotation, under an illegal hop,
    /// one random hop (mostly chain-breaking), fold-tip collapses, sparse
    /// random hops, or the total collapse of an accordion ring. Same error
    /// (variant, index, points) or same movers, splice log and merge events
    /// (keeper, removed ids, point); then the same positions, ids and
    /// gathering flag — on an error, the chain as it was before the round.
    #[test]
    fn edge_chain_matches_position_oracle() {
        let mut rng = SplitMix64::new(ORACLE_SEED);
        let (mut illegal, mut broken, mut merged, mut plain) = (0, 0, 0, 0);
        let (mut wrapped, mut big_groups, mut collapses) = (0, 0, 0);
        for case in 0..ORACLE_CASES {
            let OracleCase {
                mut chain,
                mut oracle,
                hops,
            } = oracle_case(&mut rng, case);
            if case % 2 == 0 {
                assert_eq!(chain.positions(), &oracle.pos[..], "case {case}: rotated");
            }
            let before = oracle.clone();
            let want = oracle_round(&mut oracle, &hops);
            let got = edge_round(&mut chain, &hops);
            match (&want, &got) {
                (Err(w), Err(g)) => {
                    assert_eq!(g, w, "case {case}");
                    match w {
                        ChainError::IllegalHop { .. } => illegal += 1,
                        _ => broken += 1,
                    }
                    oracle = before;
                }
                (Ok(w), Ok(g)) => {
                    assert_eq!(g, w, "case {case}");
                    if w.removed == 0 {
                        plain += 1;
                    } else {
                        merged += 1;
                    }
                    wrapped += usize::from(w.removed_indices.first() == Some(&0));
                    big_groups += w
                        .merges
                        .events()
                        .iter()
                        .filter(|e| e.removed.len() >= 2)
                        .count();
                    collapses += usize::from(oracle.pos.len() == 1);
                }
                _ => panic!("case {case}: oracle {want:?}, edge chain {got:?}"),
            }
            assert_eq!(chain.positions(), &oracle.pos[..], "case {case}");
            assert_eq!(chain.ids(), &oracle.id[..], "case {case}");
            assert_eq!(chain.is_gathered(), oracle.is_gathered(), "case {case}");
            assert_eq!(chain.validate(), oracle.validate(), "case {case}");
        }
        assert_eq!(illegal, 1000, "illegal-hop rounds");
        assert!(broken > 800, "{broken} chain-breaking rounds");
        assert!(merged > 2500, "{merged} merging rounds");
        assert!(plain > 150, "{plain} plain rounds");
        assert!(wrapped > 200, "{wrapped} groups wrapping index 0");
        assert!(big_groups > 500, "{big_groups} groups of three or more");
        assert!(collapses >= 1000, "{collapses} total collapses");
    }

    /// `SpliceLog::splice`, driven by the fates, keeps exactly the
    /// entries whose index is not logged as removed, in order, for every
    /// removal set of small arrays that leaves a robot to keep the others
    /// (each removed robot's keeper is the nearest survivor before it,
    /// cyclically, as in a merge pass). One log serves every set: `clear`
    /// leaves no fate behind.
    #[test]
    fn splice_matches_filtering() {
        let mut log = SpliceLog::default();
        for n in 1..=9usize {
            for set in 0u32..(1 << n) - 1 {
                let removed = |i: usize| set >> i & 1 == 1;
                log.clear();
                assert!(log.fates().iter().all(|&f| f == 0), "n={n} set={set:b}");
                log.cover(n);
                for r in (0..n).filter(|&r| removed(r)) {
                    let keeper = (1..n)
                        .map(|d| (r + n - d) % n)
                        .find(|&k| !removed(k))
                        .expect("a survivor");
                    log.log_group(keeper, r..r + 1);
                }
                let mut v: Vec<usize> = (100..100 + n).collect();
                let want: Vec<usize> = (0..n).filter(|&i| !removed(i)).map(|i| v[i]).collect();
                log.splice(&mut v);
                assert_eq!(v, want, "n={n} removed={:?}", log.removed_indices());
                let touched = (0..n).find(|&i| log.fates()[i] != 0);
                assert_eq!(log.first_touched(), touched, "n={n} set={set:b}");
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
        assert_eq!(log.merges().len(), 2);
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
        assert_eq!(log.merges().len(), 1);
        assert_eq!(log.merges().removed_ids().len(), 3);
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
        assert_eq!(log.merges().len(), 2);
        // Exactly one of {0, 5} was removed, and remap agrees.
        let wrap_gone = log.removed_indices().iter().any(|&i| i == 0 || i == 5);
        assert!(wrap_gone);
        for &gone in log.removed_indices() {
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
        let mut log = SpliceLog::default();
        log.cover(7);
        log.log_group(1, 2..3);
        log.log_group(4, 5..6);
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
