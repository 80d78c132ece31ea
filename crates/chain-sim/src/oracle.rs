//! The position-backed closed chain the engine ran on before the chain
//! stored its edges: one `Point` per robot, moved by adding each hop and
//! merged by comparing neighbouring points. It is kept for the tests as
//! the reference the edge-backed [`ClosedChain`] and the kernels'
//! [`KernelChain`](crate::KernelChain) are checked against, on the random
//! rounds of [`oracle_case`].
//!
//! Beside it live the chain guard as it is defined, one robot per step
//! until a sweep cancels nothing ([`cancel_by_sweeps`]), the reference of
//! [`cancel_breaking_hops`](crate::safety::cancel_breaking_hops), and the
//! code splice as it ran before it compacted eight codes per word
//! ([`splice_by_gaps`]), the reference of the packed splice.

use crate::chain::{ChainError, ClosedChain, SpliceLog};
use crate::packed::{edge_offset, CollapsedEdges, EDGE_ZERO};
use crate::rng::SplitMix64;
use crate::robot::RobotId;
use crate::safety::GuardHop;
use grid_geom::{chain_adjacent, Offset, Point, Rect};

/// A closed chain as positions and ids.
#[derive(Clone, Debug)]
pub(crate) struct PosChain {
    pub pos: Vec<Point>,
    pub id: Vec<RobotId>,
}

impl PosChain {
    /// The positions and ids of `chain`.
    pub fn of(chain: &ClosedChain) -> Self {
        PosChain {
            pos: chain.positions().to_vec(),
            id: chain.ids().to_vec(),
        }
    }

    fn next(&self, i: usize) -> usize {
        if i + 1 == self.pos.len() {
            0
        } else {
            i + 1
        }
    }

    /// The taut closed-chain invariant, first failing edge first.
    pub fn validate(&self) -> Result<(), ChainError> {
        let n = self.pos.len();
        if n < 2 {
            return if n == 1 {
                Ok(())
            } else {
                Err(ChainError::TooShort { len: n })
            };
        }
        for i in 0..n {
            let (a, b) = (self.pos[i], self.pos[self.next(i)]);
            if a == b {
                return Err(ChainError::CoincidentNeighbors { index: i, at: a });
            }
            if !chain_adjacent(a, b) {
                return Err(ChainError::Disconnected { index: i, a, b });
            }
        }
        Ok(())
    }

    /// Connectivity only: the first edge longer than one step.
    pub fn check_connected(&self) -> Result<(), ChainError> {
        for i in 0..self.pos.len() {
            let (a, b) = (self.pos[i], self.pos[self.next(i)]);
            if !chain_adjacent(a, b) {
                return Err(ChainError::Disconnected { index: i, a, b });
            }
        }
        Ok(())
    }

    /// Move every robot by its hop. An illegal hop is reported before
    /// anything moves; a broken edge after the move, in the moved state.
    /// Returns the number of movers.
    pub fn apply_hops(&mut self, hops: &[Offset]) -> Result<usize, ChainError> {
        assert_eq!(hops.len(), self.pos.len(), "one hop per robot");
        if let Some(index) = hops.iter().position(|h| !h.is_hop()) {
            return Err(ChainError::IllegalHop {
                index,
                hop: hops[index],
            });
        }
        for (p, h) in self.pos.iter_mut().zip(hops) {
            *p += *h;
        }
        self.check_connected()?;
        Ok(hops.iter().filter(|&&h| h != Offset::ZERO).count())
    }

    /// Splice out robots that coincide with their chain neighbours: each
    /// maximal group of consecutive robots on one point collapses to its
    /// first member in chain order (a group wrapping index 0 starts at its
    /// true start), and the log is sorted by removed index. The survivors
    /// are kept by a lookup of the sorted log, not by its fates.
    pub fn merge_pass(&mut self, log: &mut SpliceLog) -> usize {
        log.clear();
        let n = self.pos.len();
        if n < 2 {
            return 0;
        }
        log.cover(n);
        let (pos, id) = (&self.pos, &self.id);
        if pos.iter().all(|&p| p == pos[0]) {
            log.log_group(0, 1..n);
            log.merges.push(id[0], id[1..].iter().copied());
            self.pos.truncate(1);
            self.id.truncate(1);
            return n - 1;
        }
        let mut anchor = 0;
        while pos[(anchor + n - 1) % n] == pos[anchor] {
            anchor += 1;
        }
        let mut pairs = Vec::new();
        let mut k = 0;
        while k < n {
            let gi = (anchor + k) % n;
            let mut glen = 1;
            while glen < n && pos[(anchor + k + glen) % n] == pos[gi] {
                glen += 1;
            }
            if glen > 1 {
                let ris: Vec<usize> = (1..glen).map(|j| (anchor + k + j) % n).collect();
                log.merges.push(id[gi], ris.iter().map(|&r| id[r]));
                pairs.extend(ris.into_iter().map(|r| (r, gi)));
            }
            k += glen;
        }
        pairs.sort_unstable();
        for (r, keeper) in pairs {
            log.log_group(keeper, r..r + 1);
        }
        let kept = |i: &usize| log.remap(*i).is_some();
        self.pos = (0..n).filter(kept).map(|i| self.pos[i]).collect();
        self.id = (0..n).filter(kept).map(|i| self.id[i]).collect();
        log.removed_count()
    }

    /// The paper's gathering criterion on a fresh bounding box.
    pub fn is_gathered(&self) -> bool {
        Rect::bounding(self.pos.iter().copied())
            .expect("chain is non-empty")
            .is_gathered_2x2()
    }
}

/// The cancel-to-fixpoint of the chain guard by its definition: sweep in
/// ascending index order, one robot at a time, cancelling a moving robot
/// whose prev-side edge (as the sweep has left it) or next-side edge
/// fails, until a sweep cancels nothing. It takes no shortcut: no group
/// of eight, no skip over equal hops, no skipped confirming sweep.
/// Returns the hops cancelled and the sweeps run, the last of which
/// changed nothing.
pub(crate) fn cancel_by_sweeps<H: GuardHop>(edges: &[u8], hops: &mut [H]) -> (usize, usize) {
    let n = hops.len();
    if n < 2 {
        return (0, 0);
    }
    let (mut cancelled, mut sweeps) = (0, 0);
    loop {
        sweeps += 1;
        let mut changed = false;
        let mut ok_left = H::edge_ok(edges[n - 1], hops[n - 1], hops[0]);
        for i in 0..n {
            let h = hops[i];
            let next = if i + 1 == n { 0 } else { i + 1 };
            let ok_right = H::edge_ok(edges[i], h, hops[next]);
            if h == H::STAY || (ok_left && ok_right) {
                ok_left = ok_right;
            } else {
                hops[i] = H::STAY;
                cancelled += 1;
                changed = true;
                ok_left = H::edge_ok(edges[i], H::STAY, hops[next]);
            }
        }
        if !changed {
            return (cancelled, sweeps);
        }
    }
}

/// The splice of the collapsed edges with one `copy_within` per gap
/// between them: same contract as the packed splice (origin handed over
/// when robot 0 goes, one robot left when every edge collapsed), same
/// return value.
pub(crate) fn splice_by_gaps(origin: &mut Point, codes: &mut Vec<u8>) -> usize {
    let n = codes.len();
    let mut zeros = CollapsedEdges::starting_at(codes, 0);
    let Some(mut gap) = zeros.next(codes) else {
        return 0;
    };
    let wraps = codes[n - 1] == EDGE_ZERO;
    let mut write = gap;
    loop {
        let end = zeros.next(codes);
        let stop = end.unwrap_or(n);
        codes.copy_within(gap + 1..stop, write);
        write += stop - gap - 1;
        match end {
            Some(e) => gap = e,
            None => break,
        }
    }
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

/// Seed of the random oracle rounds.
pub(crate) const ORACLE_SEED: u64 = 0x0dd5;

/// Number of random oracle rounds; every sixth has an illegal hop.
pub(crate) const ORACLE_CASES: usize = 6000;

const DIRS: [Offset; 4] = [Offset::RIGHT, Offset::UP, Offset::LEFT, Offset::DOWN];

/// A random taut closed walk: `m` random unit steps and their
/// opposites, shuffled, with an accordion (a step and its opposite,
/// repeated) folded in at a random place — fold tips whose collapse
/// merges groups of any odd length.
pub(crate) fn random_walk(rng: &mut SplitMix64, m: usize) -> Vec<Point> {
    let mut steps: Vec<Offset> = (0..m).map(|_| *rng.choose(&DIRS)).collect();
    steps.extend(steps.clone().into_iter().map(|s| -s));
    rng.shuffle(&mut steps);
    let s = *rng.choose(&DIRS);
    let at = rng.range_usize(0, steps.len() + 1);
    for _ in 0..rng.range_usize(0, 5) {
        steps.splice(at..at, [s, -s]);
    }
    let mut p = Point::new(
        rng.range_i64_inclusive(-9, 9),
        rng.range_i64_inclusive(-9, 9),
    );
    steps
        .iter()
        .map(|&s| {
            let q = p;
            p += s;
            q
        })
        .collect()
}

/// Fold tips (both neighbours on one point) hop onto their neighbours,
/// no two consecutive tips together: each hop merges, and an accordion
/// collapses into one group.
pub(crate) fn collapse_tips(rng: &mut SplitMix64, pos: &[Point], hops: &mut [Offset]) {
    let n = pos.len();
    for i in 0..n {
        let (a, b) = (pos[(i + n - 1) % n], pos[(i + 1) % n]);
        let prev_hops = i > 0 && hops[i - 1] != Offset::ZERO;
        if a == b && !prev_hops && rng.chance(3, 4) {
            hops[i] = b - pos[i];
        }
    }
}

/// One random round for the oracle comparisons: a chain, the same robots
/// as positions, and one hop each.
pub(crate) struct OracleCase {
    /// The edge-backed chain, its origin rotated at random.
    pub chain: ClosedChain,
    /// The same robots (positions and ids) for the oracle.
    pub oracle: PosChain,
    /// The round's hops, by `case % 6`: an illegal hop among random ones,
    /// one random hop (mostly chain-breaking), fold-tip collapses (twice),
    /// sparse random hops, or the total collapse of an accordion ring.
    pub hops: Vec<Offset>,
}

/// The random round `case` (see [`OracleCase`]): closed walks with
/// accordions, or accordion rings, after a random origin rotation.
pub(crate) fn oracle_case(rng: &mut SplitMix64, case: usize) -> OracleCase {
    let legal: Vec<Offset> = (-1..=1)
        .flat_map(|dx| (-1..=1).map(move |dy| Offset::new(dx, dy)))
        .collect();
    let kind = case % 6;
    let mut pos = if kind == 5 {
        // An accordion ring: every other robot drops onto its
        // neighbours, and the chain collapses to one robot.
        let s = *rng.choose(&DIRS);
        let x = Point::new(rng.range_i64_inclusive(-9, 9), 0);
        (0..2 * rng.range_usize(1, 8))
            .map(|i| if i % 2 == 0 { x } else { x + s })
            .collect()
    } else {
        let m = rng.range_usize(1, 16);
        random_walk(rng, m)
    };
    let n = pos.len();
    let mut chain = ClosedChain::new(pos.clone()).expect("random walks are taut");
    let k = rng.range_usize(0, n);
    chain.rotate_origin(k);
    pos.rotate_left(k);
    let id = (0..n as u64)
        .map(|i| RobotId((i + k as u64) % n as u64))
        .collect();
    let mut hops = vec![Offset::ZERO; n];
    match kind {
        0 => {
            for h in hops.iter_mut() {
                if rng.chance(1, 4) {
                    *h = *rng.choose(&legal);
                }
            }
            hops[rng.range_usize(0, n)] = Offset::new(2 * rng.range_i64_inclusive(-1, 1), 2);
        }
        1 => hops[rng.range_usize(0, n)] = *rng.choose(&legal),
        2 | 3 => collapse_tips(rng, &pos, &mut hops),
        4 => {
            for h in hops.iter_mut() {
                if rng.chance(1, 3) {
                    *h = *rng.choose(&legal);
                }
            }
        }
        _ => {
            for i in (0..n).filter(|&i| pos[i] != pos[0]) {
                hops[i] = pos[0] - pos[i];
            }
        }
    }
    OracleCase {
        chain,
        oracle: PosChain { pos, id },
        hops,
    }
}
