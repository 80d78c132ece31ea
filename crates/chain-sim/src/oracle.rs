//! The position-backed closed chain the engine ran on before the chain
//! stored its edges: one `Point` per robot, moved by adding each hop and
//! merged by comparing neighbouring points. It is kept for the tests as
//! the reference the edge-backed [`ClosedChain`] is checked against.

use crate::chain::{ChainError, ClosedChain, MergeEvent, SpliceLog};
use crate::robot::RobotId;
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
    /// true start), and the log is sorted by removed index.
    pub fn merge_pass(&mut self, log: &mut SpliceLog) -> usize {
        log.clear();
        let n = self.pos.len();
        if n < 2 {
            return 0;
        }
        let (pos, id) = (&self.pos, &self.id);
        if pos.iter().all(|&p| p == pos[0]) {
            log.removed_indices.extend(1..n);
            log.keeper_indices.extend(std::iter::repeat_n(0, n - 1));
            log.events.push(MergeEvent {
                keeper: id[0],
                removed: id[1..].to_vec(),
                at: pos[0],
            });
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
                log.events.push(MergeEvent {
                    keeper: id[gi],
                    removed: ris.iter().map(|&r| id[r]).collect(),
                    at: pos[gi],
                });
                pairs.extend(ris.into_iter().map(|r| (r, gi)));
            }
            k += glen;
        }
        pairs.sort_unstable();
        log.removed_indices.extend(pairs.iter().map(|&(r, _)| r));
        log.keeper_indices.extend(pairs.iter().map(|&(_, k)| k));
        log.splice(&mut self.pos);
        log.splice(&mut self.id);
        log.removed_indices.len()
    }

    /// The paper's gathering criterion on a fresh bounding box.
    pub fn is_gathered(&self) -> bool {
        Rect::bounding(self.pos.iter().copied())
            .expect("chain is non-empty")
            .is_gathered_2x2()
    }
}
