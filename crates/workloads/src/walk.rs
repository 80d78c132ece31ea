//! The walk builder the family generators write their chains through.
//!
//! A taut closed chain is the position of robot 0 plus one direction code
//! per edge — the layout [`ClosedChain`] stores — so a generator appends
//! runs of unit steps and hands the codes over as they are
//! ([`ClosedChain::from_codes`] checks that they close). No position is
//! computed on the way.

use chain_sim::ClosedChain;
use grid_geom::Point;

pub(crate) use chain_sim::packed::{opposite, EDGE_E as E, EDGE_N as N, EDGE_S as S, EDGE_W as W};

/// A closed lattice walk under construction.
pub(crate) struct Walk {
    origin: Point,
    /// One edge code per step, in walk order.
    pub(crate) codes: Vec<u8>,
}

impl Walk {
    /// An empty walk from `origin`, with room for `steps` steps.
    pub(crate) fn new(origin: Point, steps: usize) -> Self {
        Walk {
            origin,
            codes: Vec::with_capacity(steps),
        }
    }

    /// Append `len` steps in direction `code`.
    pub(crate) fn run(&mut self, code: u8, len: i64) -> &mut Self {
        let len = usize::try_from(len).expect("run length ≥ 0");
        self.codes.resize(self.codes.len() + len, code);
        self
    }

    /// Append one step per code.
    pub(crate) fn steps(&mut self, codes: &[u8]) -> &mut Self {
        self.codes.extend_from_slice(codes);
        self
    }

    /// The chain of the finished walk; a walk that does not close is a
    /// construction bug, so it panics naming `what`.
    pub(crate) fn close(self, what: &str) -> ClosedChain {
        ClosedChain::from_codes(self.origin, self.codes)
            .unwrap_or_else(|e| panic!("invalid {what}: {e}"))
    }
}
