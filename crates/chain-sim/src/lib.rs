//! # chain-sim
//!
//! The machine model of the paper, as an executable substrate:
//!
//! * A **closed chain** of `n` indistinguishable robots on Z²
//!   ([`ClosedChain`]): a cyclic sequence whose neighbors occupy the same or
//!   4-adjacent grid points. Between rounds every chain edge is a unit step
//!   (coinciding neighbors are merged away).
//! * The **synchronous round** time model: rounds of simultaneous
//!   look–compute–move ([`Sim`]). A [`Strategy`] computes one hop per robot
//!   from the current configuration; hops are applied simultaneously; then
//!   the **merge pass** splices out robots that coincide with a chain
//!   neighbor (the paper's progress measure, Fig. 1).
//! * The **activation schedule** as an explicit model axis ([`scheduler`]):
//!   a [`Scheduler`] decides per round which robots act. The default
//!   [`FsyncRule`] activates everyone (the paper's FSYNC model); SSYNC
//!   schedules (round-robin, seeded random, adversarial k-fair) activate
//!   a subset, and inactive robots keep zero hops. Each schedule is one
//!   [`ActivationRule`], which the kernels call directly and the boxed
//!   engine runs as a [`Scheduler`].
//! * The **chain-safety guard** ([`safety`]): an engine-side cancel
//!   fixpoint that commits a hop only if neighbor adjacency survives the
//!   round's activation subset — the repair that lets FSYNC-designed
//!   strategies run under SSYNC schedules. Strategies opt in via
//!   [`Strategy::wants_chain_guard`].
//! * **Composable instrumentation** ([`observe`]): there is one run loop;
//!   everything that watches a run — trace recording ([`Recorder`]),
//!   invariant checking ([`observe::Invariants`]), the Lemma auditors in
//!   `gathering-core`, frame capture in `chain-viz`, live progress
//!   publication for the service layer ([`ProgressProbe`]) — plugs into
//!   it as an [`Observer`] via [`Sim::observe`]. A simulation with no
//!   observers is the zero-retention benchmark hot path.
//! * **Stable robot identities** ([`RobotId`]) for instrumentation and for
//!   the run-state bookkeeping of the gathering strategy (target corners of
//!   the run passing operation, Fig. 8/14).
//! * **Invariant checking** ([`invariant`]): connectivity must never break;
//!   violations abort the simulation with a diagnosable error.
//! * **Tracing** ([`trace`]): always-on [`Progress`] aggregates plus the
//!   retained per-round reports the experiment harness aggregates into the
//!   paper's tables.
//! * An **open chain** variant ([`OpenChain`]) used by the \[KM09\]-style
//!   baseline the paper generalizes.
//! * **Record and replay** ([`replay`]): a versioned binary run log — a
//!   [`ReplayWriter`] observer records the initial chain plus per-round
//!   deltas on the 2-bit edge-code alphabet, a [`ReplayReader`]
//!   reconstructs every intermediate chain byte-identically, and a
//!   bounded [`FrameRing`] broadcasts live [`LiveFrame`] snapshots to
//!   streaming watchers without ever blocking the run.
//! * A **data-oriented core** for the observer-free path: chain state as
//!   one edge code per byte ([`packed::PackedChain`], the layout of
//!   [`ClosedChain::codes`]) and monomorphized round kernels ([`kernel`])
//!   that replicate [`Sim`] byte for byte at a fraction of the cost. Both
//!   engines move their chain through the one edge round of [`packed`]
//!   (rewrite and splice). The boxed engine remains the
//!   instrumented/reference path.
//!
//! The crate is deliberately strategy-agnostic: the paper's algorithm
//! (`gathering-core`) and all baselines implement [`Strategy`].

#![deny(missing_docs)]

pub mod chain;
pub mod engine;
pub mod invariant;
pub mod kernel;
pub mod observe;
pub mod open_chain;
#[cfg(test)]
mod oracle;
pub mod packed;
pub mod replay;
pub mod rng;
pub mod robot;
pub mod safety;
pub mod scheduler;
pub mod strategy;
pub mod trace;
pub mod view;

pub use chain::{ChainError, ClosedChain, MergeEvent, Merges, SpliceLog};
pub use engine::{Outcome, RoundSummary, RunLimits, Sim, QUIESCENCE_WINDOW};
pub use kernel::{
    ActivationRule, FsyncRule, KFairRule, KernelChain, KernelSim, RandomRule, RoundKernel,
    RoundRobinRule, StandKernel,
};
pub use observe::{Observer, ProgressProbe, ProgressSlot, ProgressSnapshot, Recorder, RoundCtx};
pub use open_chain::OpenChain;
pub use packed::PackedChain;
pub use replay::{
    FrameRing, LiveFrame, ReplayError, ReplayOutcome, ReplayReader, ReplayRound, ReplaySink,
    ReplayWriter,
};
pub use robot::RobotId;
pub use safety::{enforce_chain_safety, hop_breaks_chain};
pub use scheduler::{Scheduler, SchedulerKind};
pub use strategy::Strategy;
pub use trace::{Progress, RoundReport, Trace, TraceConfig};
pub use view::Ring;
