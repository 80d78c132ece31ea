//! # gathering-core
//!
//! The primary contribution of *"Gathering a Closed Chain of Robots on a
//! Grid"* (Abshoff, Cord-Landwehr, Fischer, Jung, Meyer auf der Heide;
//! IPDPS 2016): a strictly local, fully synchronous strategy that gathers a
//! closed chain of `n` indistinguishable robots on the grid into a 2×2
//! square in `O(n)` rounds.
//!
//! ## Module map
//!
//! | module | paper section | content |
//! |---|---|---|
//! | [`config`] | §3.3, §5.2 | the constants `V = 11`, `L = 13` and ablation knobs |
//! | [`merge`] | §3.1, Fig. 1–3 | merge patterns, overlap handling, the diagonal hop |
//! | [`quasi`] | §4, Def. 1, Fig. 5/10/16 | quasi lines, run-start shapes, endpoint scans |
//! | [`runs`] | §3.2/3.4/4.1–4.3 | run states, reshapement, passing, termination |
//! | [`strategy`] | Fig. 15 | the complete per-round algorithm |
//! | [`ssync`] | — (PAPERS.md) | `paper-ssync`: the rule wrapped in the chain-safety guard |
//! | [`audit`] | §5 | empirical checkers for Theorem 1 and Lemmas 1–3 |
//!
//! ## Quick start
//!
//! ```
//! use chain_sim::{ClosedChain, Sim};
//! use gathering_core::ClosedChainGathering;
//! use grid_geom::Point;
//!
//! // A 2×3 rectangle ring (Figure 1 of the paper).
//! let chain = ClosedChain::new(vec![
//!     Point::new(0, 0), Point::new(0, 1), Point::new(0, 2),
//!     Point::new(1, 2), Point::new(1, 1), Point::new(1, 0),
//! ]).unwrap();
//! let mut sim = Sim::new(chain, ClosedChainGathering::paper());
//! let outcome = sim.run_default();
//! assert!(outcome.is_gathered());
//! ```
//!
//! See `DESIGN.md` for the reconstruction decisions (the paper's figures
//! are re-derived from prose) and `EXPERIMENTS.md` for the measured
//! reproduction of every claim.

pub mod audit;
pub mod config;
pub mod local;
pub mod merge;
#[cfg(test)]
mod oracle;
pub mod quasi;
pub mod runs;
mod signature;
pub mod ssync;
pub mod strategy;
pub mod theory;

#[cfg(test)]
mod testutil;

pub use config::GatherConfig;
pub use local::{merge_role_at, LocalMergeRole};
pub use merge::{MergePattern, MergeScan};
pub use quasi::StartShape;
pub use runs::{PlacedRun, Run, RunMode, RunStats, StopReason};
pub use ssync::SsyncGathering;
pub use strategy::{ClosedChainGathering, RunEvent};
