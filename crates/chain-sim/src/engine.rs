//! The round engine.
//!
//! [`Sim`] drives a [`Strategy`] over a [`ClosedChain`], one synchronous
//! round at a time, enforcing the model: simultaneous hops, connectivity
//! preservation, and the merge pass that implements the paper's
//! chain-shortening progress measure. *Which* robots act each round is the
//! [`Scheduler`]'s decision — the default [`FsyncRule`]
//! activates everyone (the paper's model); SSYNC schedulers
//! ([`Sim::with_scheduler`]) activate a per-round subset, whose complement
//! keeps zero hops.
//!
//! There is exactly **one run loop**. Instrumentation — trace recording,
//! Lemma audits, invariant checks, frame capture — attaches to it as
//! [`Observer`]s ([`Sim::observe`]) instead of owning a second loop.
//!
//! The round loop is the simulator's hot path. With no observers attached
//! it retains nothing and allocates nothing: the hop buffer and splice
//! log are reused across rounds (the merge events share one buffer of
//! removed ids) and only the [`Progress`] aggregates (a few counters) are
//! folded in-place.
//! The chain stores its edges ([`ClosedChain`]): the move rewrites each
//! edge from the hops of its two robots, the merge pass splices the ones
//! that collapsed, and the gathering flag is kept exact by a stale
//! bounding box that is recomputed only when it could fit the 2×2
//! criterion. Nothing on this path decodes positions.
//! Observers see each round through a borrowed [`RoundCtx`] and pay for
//! exactly what they retain.

use crate::chain::{ChainError, ClosedChain, Merges, SpliceLog};
use crate::kernel::{FsyncRule, GatherCheck};
use crate::observe::{AnyObserver, Observer, RoundCtx};
use crate::scheduler::Scheduler;
use crate::strategy::Strategy;
use crate::trace::Progress;
use grid_geom::Offset;
use obs::{Phase, PhaseTimer};
use std::f64::consts::SQRT_2;
use std::sync::Arc;

/// Rounds without a single robot movement (and without a merge) after
/// which [`Sim::run`] declares the run [`Outcome::Stalled`]. A
/// deterministic strategy that has moved nobody for this long is
/// quiescent for every practical strategy in the workspace — the window
/// comfortably covers the paper's L-periodic pauses (L = 13, and the
/// ablations up to L = 26) while cutting the `stand` control's stalled
/// cells from O(stall_window) rounds to O(window).
///
/// Under an SSYNC schedule the engine multiplies this by the scheduler's
/// [`Scheduler::slowdown`] (its inverse duty cycle), so a low-duty
/// adversary legitimately withholding activations for more than 64
/// rounds — e.g. `KFair(k)` with k > 64 — is not misread as quiescence.
pub const QUIESCENCE_WINDOW: u64 = 64;

/// Limits for [`Sim::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunLimits {
    /// Hard cap on rounds; exceeding it is reported as
    /// [`Outcome::RoundLimit`].
    pub max_rounds: u64,
    /// If no merge happens for this many consecutive rounds the simulation
    /// is declared stalled. Theorem 1 implies a merge at least every
    /// `(2L+1)·n` rounds for the paper's algorithm; the constructors derive
    /// generous bounds from the chain length at start.
    pub stall_window: u64,
}

impl RunLimits {
    /// Limits for the paper's algorithm with pipelining period `l_period`
    /// (the config's `L`). Theorem 1 bounds the gathering at `2Ln + n`
    /// rounds and the mergeless gap at `(2L+1)·n`; both limits add slack on
    /// top, so tripping one indicates a real defect, not a tight constant.
    ///
    /// Every limit derivation in the workspace routes through this one
    /// constructor (or [`RunLimits::generous`] for strategies without a
    /// linear bound).
    pub fn for_gathering(n: usize, l_period: u64) -> Self {
        let n = n as u64;
        let theorem1 = 2 * l_period * n + n;
        RunLimits {
            max_rounds: 2 * theorem1 + 4096,
            stall_window: theorem1 + n + 2048,
        }
    }

    /// Defaults derived from the chain length with the paper's `L = 13`:
    /// [`RunLimits::for_gathering`] with the canonical period.
    pub fn for_chain_len(n: usize) -> Self {
        Self::for_gathering(n, 13)
    }

    /// Generous limits for strategies whose round count scales with the
    /// configuration's diameter rather than linearly in `n` (the global
    /// and compass baselines).
    pub fn generous(n: usize, diameter: u64) -> Self {
        let n = n as u64;
        let d = diameter.max(4);
        RunLimits {
            max_rounds: 16 * n * d + 4096,
            stall_window: 8 * n * d + 2048,
        }
    }

    /// Limits for the open-chain procedures (\[KM09\] settings): both the
    /// zip and the Manhattan hopper finish well within `O(n)` rounds, so a
    /// generous linear cap suffices. The stall window equals the cap —
    /// open-chain progress is monotone, stalling is indistinguishable from
    /// the cap.
    pub fn for_open_chain(n: usize) -> Self {
        let n = n as u64;
        RunLimits {
            max_rounds: 64 * n,
            stall_window: 64 * n,
        }
    }

    /// Limits for the Euclidean closed-chain strategy (`euclid-chain`,
    /// arXiv 2010.04424 model): linear-time with alternating-parity
    /// activation, so a generous linear round cap suffices; the stall
    /// window covers a reflection wave crossing the whole chain (one
    /// robot per two rounds) between merges.
    pub fn for_euclid_chain(n: usize) -> Self {
        let n = n as u64;
        RunLimits {
            max_rounds: 64 * n + 4096,
            stall_window: 8 * n + 1024,
        }
    }
}

/// Why a simulation run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Gathered into a 2×2 subgrid after `rounds` rounds.
    Gathered {
        /// Rounds executed before the gathering criterion held.
        rounds: u64,
    },
    /// Round cap exceeded.
    RoundLimit {
        /// Rounds executed when the cap tripped.
        rounds: u64,
    },
    /// No merge for `stall_window` rounds.
    Stalled {
        /// Rounds executed when the stall was declared.
        rounds: u64,
        /// Consecutive mergeless rounds at that point.
        since_last_merge: u64,
    },
    /// The strategy broke the chain (always a bug; simulation aborted).
    ChainBroken {
        /// Rounds executed when the chain broke.
        rounds: u64,
        /// What broke.
        error: ChainError,
    },
}

impl Outcome {
    /// `true` if the run reached the gathered (2×2) configuration.
    pub fn is_gathered(&self) -> bool {
        matches!(self, Outcome::Gathered { .. })
    }

    /// Rounds executed, whatever the outcome.
    pub fn rounds(&self) -> u64 {
        match self {
            Outcome::Gathered { rounds }
            | Outcome::RoundLimit { rounds }
            | Outcome::Stalled { rounds, .. }
            | Outcome::ChainBroken { rounds, .. } => *rounds,
        }
    }
}

/// Lightweight, allocation-free summary of one round — what [`Sim::step`]
/// returns and what observers receive in their [`RoundCtx`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundSummary {
    /// Round index (0-based).
    pub round: u64,
    /// Number of robots that performed a nonzero hop.
    pub moved: usize,
    /// Robots removed by the merge pass this round.
    pub removed: usize,
    /// Chain length after the round.
    pub len_after: usize,
    /// `true` if the gathering criterion holds after the round.
    pub gathered: bool,
}

impl RoundSummary {
    /// `true` if the round made merge progress.
    pub fn made_progress(&self) -> bool {
        self.removed > 0
    }
}

/// The simulator: one strategy driving one closed chain under one
/// activation [`Scheduler`], plus an observer stack for composable
/// instrumentation.
pub struct Sim<S: Strategy> {
    chain: ClosedChain,
    strategy: S,
    scheduler: Box<dyn Scheduler + Send>,
    round: u64,
    hops: Vec<Offset>,
    active: Vec<bool>,
    splice: SpliceLog,
    progress: Progress,
    /// Per-robot cumulative Euclidean travel, parallel to the chain;
    /// spliced in lockstep with the merge pass (removed robots retire
    /// their totals into `retired_travel`).
    travel: Vec<f64>,
    /// Largest cumulative travel among robots merged away so far.
    retired_travel: f64,
    observers: Vec<Box<dyn AnyObserver<S>>>,
    rounds_since_merge: u64,
    rounds_since_move: u64,
    /// The gathering criterion on the current chain, kept exact round by
    /// round without an O(n) bounding box per round.
    gather: GatherCheck,
    /// Chain-safety guard switch (see [`crate::safety`]): seeded from
    /// [`Strategy::wants_chain_guard`].
    guard: bool,
    /// Total hops the guard cancelled over the run's lifetime.
    guard_cancels: u64,
    broken: Option<ChainError>,
    /// Optional sampling phase timer ([`obs::PhaseTimer`]): attributes
    /// per-round wall time to compute/guard/apply/merge. Passive — it
    /// only reads clocks, so timed and untimed runs are byte-identical —
    /// and `None` by default, which keeps the observer-free hot path
    /// untouched beyond one branch per round.
    phases: Option<Arc<PhaseTimer>>,
    /// The outcome last announced to the observers via `on_finish`. A
    /// repeated `run` call that decides the identical outcome (nothing
    /// advanced) does not re-announce; any *new* outcome — resumed runs
    /// included — does.
    last_finish: Option<Outcome>,
}

impl<S: Strategy> Sim<S> {
    /// A simulator with no observers: the zero-retention hot path. Nothing
    /// is kept per round — only the [`Progress`] aggregates and the
    /// [`RoundSummary`] each [`Sim::step`] returns — so campaign sweeps at
    /// 65k robots stay O(n) in memory regardless of round count. Attach
    /// instrumentation with [`Sim::observe`].
    pub fn new(chain: ClosedChain, mut strategy: S) -> Self {
        strategy.init(&chain);
        let n = chain.len();
        let guard = strategy.wants_chain_guard();
        let gather = GatherCheck::new(n, chain.bounding());
        // Room for the largest merge pass: no merge pass allocates.
        let splice = SpliceLog::with_capacity(n);
        Sim {
            chain,
            strategy,
            scheduler: Box::new(FsyncRule),
            round: 0,
            hops: vec![Offset::ZERO; n],
            active: vec![true; n],
            splice,
            progress: Progress::default(),
            travel: vec![0.0; n],
            retired_travel: 0.0,
            observers: Vec::new(),
            rounds_since_merge: 0,
            rounds_since_move: 0,
            gather,
            guard,
            guard_cancels: 0,
            broken: None,
            phases: None,
            last_finish: None,
        }
    }

    /// Attach a sampling phase timer (builder style). The timer is
    /// shared: keep a clone of the `Arc` to read the per-phase
    /// histograms or export a Chrome trace after the run.
    pub fn with_phase_timer(mut self, timer: Arc<PhaseTimer>) -> Self {
        self.phases = Some(timer);
        self
    }

    /// Attach (or replace) the sampling phase timer in place.
    pub fn set_phase_timer(&mut self, timer: Arc<PhaseTimer>) {
        self.phases = Some(timer);
    }

    /// `true` when the chain-safety guard runs on this simulation's hops.
    pub fn chain_guard_enabled(&self) -> bool {
        self.guard
    }

    /// Total hops the chain-safety guard has cancelled so far. Always 0
    /// when the guard is off — and, the FSYNC-passivity contract, also 0
    /// for a guarded FSYNC-safe strategy under full activation
    /// (`tests/ssync_safety.rs` pins this on the PR 4 golden workloads).
    pub fn guard_cancels(&self) -> u64 {
        self.guard_cancels
    }

    /// Replace the activation scheduler (builder style). The default is
    /// [`FsyncRule`]; attach an SSYNC scheduler before stepping — the schedule
    /// is indexed by round, so swapping mid-run would splice two schedules
    /// together.
    pub fn with_scheduler(mut self, scheduler: Box<dyn Scheduler + Send>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Attach an observer (builder style). Observers fire in attachment
    /// order; [`Observer::on_init`] fires immediately with the chain as it
    /// is at attachment time (normally the initial configuration).
    pub fn observe<O: Observer<S> + 'static>(mut self, observer: O) -> Self {
        self.add_observer(observer);
        self
    }

    /// Attach an observer to a simulator in place (non-builder form of
    /// [`Sim::observe`]).
    pub fn add_observer<O: Observer<S> + 'static>(&mut self, mut observer: O) {
        observer.on_init(&self.chain, &self.strategy);
        self.observers.push(Box::new(observer));
    }

    /// The first attached observer of concrete type `T`, if any.
    pub fn observer<T: Observer<S> + 'static>(&self) -> Option<&T> {
        self.observers
            .iter()
            .find_map(|o| o.as_any().downcast_ref::<T>())
    }

    /// Mutable access to the first attached observer of type `T`, if any
    /// (used to drain results, e.g. a recorded trace or an audit summary).
    pub fn observer_mut<T: Observer<S> + 'static>(&mut self) -> Option<&mut T> {
        self.observers
            .iter_mut()
            .find_map(|o| o.as_any_mut().downcast_mut::<T>())
    }

    /// The chain in its current state.
    pub fn chain(&self) -> &ClosedChain {
        &self.chain
    }

    /// The strategy being driven.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// Mutable access to the strategy.
    pub fn strategy_mut(&mut self) -> &mut S {
        &mut self.strategy
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The always-on aggregate statistics (merge totals, mergeless gaps,
    /// makespan). Maintained in-place every round, observers or not.
    pub fn progress(&self) -> Progress {
        self.progress
    }

    /// Maximum per-robot cumulative Euclidean travel so far (the min-max
    /// distance objective of arXiv 2410.11966): unit hops cost 1,
    /// diagonal hops √2, and robots merged away keep contributing their
    /// totals. Always-on, like [`Sim::progress`] — the kernel fast path
    /// does not track it, which is why the scenario layer reports it only
    /// for boxed-engine runs.
    pub fn max_travel(&self) -> f64 {
        self.travel
            .iter()
            .fold(self.retired_travel, |acc, &t| acc.max(t))
    }

    /// Merge events of the most recent round, with their removed ids
    /// (reused buffers; valid until the next [`Sim::step`]). Always
    /// reflects the latest round, regardless of which observers are
    /// attached.
    pub fn last_merges(&self) -> &Merges {
        self.splice.merges()
    }

    /// `true` if the gathering criterion (2×2 bounding box) holds.
    pub fn is_gathered(&self) -> bool {
        self.gather.is_gathered()
    }

    /// Execute one round: schedule (activation mask), look/compute
    /// (strategy), move (simultaneous hops of the *active* robots), merge
    /// pass, bookkeeping, observer dispatch.
    ///
    /// Returns the round summary, or the chain error if the strategy broke
    /// connectivity (in which case the simulation refuses further rounds).
    pub fn step(&mut self) -> Result<RoundSummary, ChainError> {
        if let Some(err) = &self.broken {
            return Err(err.clone());
        }
        // Phase timing (passive, sampled): `None` on unsampled rounds
        // and whenever no timer is attached, so the hot path pays one
        // branch. Marks below close each phase; dropping the clock —
        // on any exit path — records the round.
        let mut clock = self.phases.as_ref().and_then(|t| t.round_clock(self.round));
        let n = self.chain.len();
        self.hops.clear();
        self.hops.resize(n, Offset::ZERO);

        // Schedule: who acts this round. The mask arrives all-true (the
        // FSYNC default); SSYNC schedulers clear the sleepers.
        self.active.clear();
        self.active.resize(n, true);
        self.scheduler.activate(self.round, &mut self.active);

        // Look + compute from the common snapshot.
        self.strategy
            .compute(&self.chain, self.round, &mut self.hops);

        // Inactive robots were not scheduled: their computed hops are
        // discarded before anything observes them, exactly as if their
        // look–compute–move cycle had not run this round.
        for (hop, active) in self.hops.iter_mut().zip(&self.active) {
            if !active {
                *hop = Offset::ZERO;
            }
        }
        if let Some(c) = clock.as_mut() {
            c.mark(Phase::Compute);
        }

        // Chain-safety guard (opt-in): cancel, to a fixpoint, every hop
        // that would leave a chain edge non-adjacent under this round's
        // activation subset. Runs after the mask so the guard judges the
        // hops that would actually apply; observers see the post-guard
        // hops, i.e. exactly what moved.
        let guard_cancels = if self.guard {
            let cancelled = crate::safety::enforce_chain_safety(&self.chain, &mut self.hops);
            self.guard_cancels += cancelled as u64;
            cancelled
        } else {
            0
        };
        if let Some(c) = clock.as_mut() {
            c.mark(Phase::Guard);
        }

        // Move (simultaneous): every edge rewritten from the hops of its
        // two robots.
        let moved = match self.chain.apply_hops(&self.hops) {
            Ok(moved) => moved,
            Err(e) => return Err(self.break_chain(e)),
        };
        if moved > 0 {
            // Fold hop lengths into the per-robot travel totals (the
            // min-max objective): unit steps cost 1, diagonal hops √2.
            // Indexed by the number of nonzero components; travel totals
            // are never negative, so adding 0.0 leaves them bit for bit.
            const COST: [f64; 3] = [0.0, 1.0, SQRT_2];
            for (t, h) in self.travel.iter_mut().zip(&self.hops) {
                *t += COST[usize::from(h.dx != 0) + usize::from(h.dy != 0)];
            }
        }
        self.strategy.post_move(&self.chain, self.round);
        if let Some(c) = clock.as_mut() {
            c.mark(Phase::Apply);
        }

        // Merge pass (the paper's progress): splices the collapsed edges
        // and leaves the chain taut.
        let removed = self.chain.merge_pass(&mut self.splice);
        if removed > 0 {
            // Mirror the splice in the travel totals: removed robots
            // retire theirs into the running maximum, survivors compact
            // down as the chain did.
            for &r in self.splice.removed_indices() {
                self.retired_travel = self.retired_travel.max(self.travel[r]);
            }
            self.splice.splice(&mut self.travel);
        }
        self.strategy
            .post_merge(&self.chain, self.round, &self.splice);

        debug_assert_eq!(self.chain.validate(), Ok(()));
        // Merges keep the point set, so only moves age the box.
        let chain = &self.chain;
        self.gather.refresh(moved, chain.len(), || chain.bounding());
        if let Some(c) = clock.as_mut() {
            c.mark(Phase::Merge);
        }
        drop(clock); // record the sampled round before observer dispatch
        if removed > 0 {
            self.rounds_since_merge = 0;
        } else {
            self.rounds_since_merge += 1;
        }
        if moved > 0 || removed > 0 {
            self.rounds_since_move = 0;
        } else {
            self.rounds_since_move += 1;
        }

        let summary = RoundSummary {
            round: self.round,
            moved,
            removed,
            len_after: self.chain.len(),
            gathered: self.gather.is_gathered(),
        };
        self.progress.record_round(moved, removed);
        if !self.observers.is_empty() {
            let ctx = RoundCtx {
                summary,
                hops: &self.hops,
                active: &self.active,
                chain: &self.chain,
                splice: &self.splice,
                guard_cancels,
            };
            for obs in &mut self.observers {
                obs.on_round(&ctx, &mut self.strategy);
            }
        }
        self.round += 1;
        Ok(summary)
    }

    /// Latch a chain error: the simulation refuses further rounds. The
    /// refused move left the chain as the round found it.
    fn break_chain(&mut self, e: ChainError) -> ChainError {
        self.broken = Some(e.clone());
        e
    }

    /// Run until gathered or a limit trips. Fires [`Observer::on_finish`]
    /// before returning — once per decided outcome: calling `run` again
    /// and deciding the identical outcome (e.g. after `Gathered`) does
    /// not re-fire, while any *new* outcome — a resumed run under larger
    /// limits, or the same rounds re-judged under different limits —
    /// finishes again.
    pub fn run(&mut self, limits: RunLimits) -> Outcome {
        let outcome = loop {
            if self.gather.is_gathered() {
                break Outcome::Gathered { rounds: self.round };
            }
            if self.round >= limits.max_rounds {
                break Outcome::RoundLimit { rounds: self.round };
            }
            // Quiescence: a strategy that declares itself idle, or one
            // that has moved nobody (and merged nothing) for a full
            // [`QUIESCENCE_WINDOW`] (scaled by the scheduler's inverse
            // duty cycle), will never gather — declare the stall now
            // instead of burning the rest of the stall window.
            let quiescence = QUIESCENCE_WINDOW.saturating_mul(self.scheduler.slowdown());
            if self.rounds_since_merge >= limits.stall_window
                || self.strategy.is_idle()
                || self.rounds_since_move >= quiescence
            {
                break Outcome::Stalled {
                    rounds: self.round,
                    since_last_merge: self.rounds_since_merge,
                };
            }
            match self.step() {
                Ok(_) => {}
                Err(error) => {
                    break Outcome::ChainBroken {
                        rounds: self.round,
                        error,
                    }
                }
            }
        };
        if self.last_finish.as_ref() != Some(&outcome) {
            self.last_finish = Some(outcome.clone());
            for obs in &mut self.observers {
                obs.on_finish(&self.chain, &self.strategy, &outcome);
            }
        }
        outcome
    }

    /// Run with default limits derived from the initial chain length.
    pub fn run_default(&mut self) -> Outcome {
        let limits = RunLimits::for_chain_len(self.chain.len());
        self.run(limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::Recorder;
    use crate::oracle::PosChain;
    use crate::strategy::Stand;
    use grid_geom::Point;

    fn ring6() -> ClosedChain {
        ClosedChain::new(vec![
            Point::new(0, 0),
            Point::new(1, 0),
            Point::new(2, 0),
            Point::new(2, 1),
            Point::new(1, 1),
            Point::new(0, 1),
        ])
        .unwrap()
    }

    /// An inert strategy that does *not* declare itself idle — exercises
    /// the engine-side quiescence detection and the limit mechanics
    /// without the `is_idle` shortcut.
    struct Inert;

    impl Strategy for Inert {
        fn name(&self) -> &'static str {
            "inert"
        }
        fn init(&mut self, _chain: &ClosedChain) {}
        fn compute(&mut self, _chain: &ClosedChain, _round: u64, _hops: &mut [Offset]) {}
    }

    /// Regression (previously: `run` never consulted `Strategy::is_idle`,
    /// so the stand control burned the entire stall window — 176 128
    /// rounds at n = 256 in BENCH_scaling.json): an idle strategy stalls
    /// immediately, with the mergeless gap reported honestly.
    #[test]
    fn stand_stalls() {
        let mut sim = Sim::new(ring6(), Stand);
        let outcome = sim.run(RunLimits {
            max_rounds: 1_000_000,
            stall_window: 1_000_000,
        });
        assert_eq!(
            outcome,
            Outcome::Stalled {
                rounds: 0,
                since_last_merge: 0
            }
        );
        assert_eq!(sim.chain().len(), 6);
    }

    /// Regression (same bug, second form): a strategy that never moves but
    /// never claims idleness is caught by the engine's own quiescence
    /// window — O(QUIESCENCE_WINDOW) rounds, not O(stall_window).
    #[test]
    fn quiescence_window_catches_silent_non_movers() {
        let mut sim = Sim::new(ring6(), Inert);
        let outcome = sim.run(RunLimits {
            max_rounds: 1_000_000,
            stall_window: 1_000_000,
        });
        assert_eq!(
            outcome,
            Outcome::Stalled {
                rounds: QUIESCENCE_WINDOW,
                since_last_merge: QUIESCENCE_WINDOW
            }
        );
    }

    #[test]
    fn gathered_chain_finishes_immediately() {
        let square = ClosedChain::new(vec![
            Point::new(0, 0),
            Point::new(1, 0),
            Point::new(1, 1),
            Point::new(0, 1),
        ])
        .unwrap();
        let mut sim = Sim::new(square, Stand);
        let outcome = sim.run_default();
        assert_eq!(outcome, Outcome::Gathered { rounds: 0 });
    }

    #[test]
    fn limit_constructors_scale_with_l() {
        let a = RunLimits::for_gathering(100, 13);
        let b = RunLimits::for_gathering(100, 26);
        assert!(b.max_rounds > a.max_rounds);
        assert!(b.stall_window > a.stall_window);
        assert_eq!(RunLimits::for_chain_len(100), a);
        // Theorem 1's 2Ln + n bound fits well inside the limits.
        assert!(a.max_rounds > 27 * 100);
        assert!(a.stall_window > 27 * 100);
        // The open-chain cap is linear.
        assert_eq!(RunLimits::for_open_chain(100).max_rounds, 6400);
    }

    /// A test strategy: the two robots of a specific pattern hop downwards
    /// every round — exercises the engine's merge plumbing (Fig. 1).
    struct Fig1;

    impl Strategy for Fig1 {
        fn name(&self) -> &'static str {
            "fig1"
        }
        fn init(&mut self, _chain: &ClosedChain) {}
        fn compute(&mut self, chain: &ClosedChain, _round: u64, hops: &mut [Offset]) {
            // Hop the two robots on the top row (y = 2) down.
            for (i, hop) in hops.iter_mut().enumerate() {
                if chain.pos(i).y == 2 {
                    *hop = Offset::DOWN;
                }
            }
        }
    }

    fn fig1_chain() -> ClosedChain {
        // Fig. 1: 2x3 ring; top row hops down; merge; gathered 2x2.
        ClosedChain::new(vec![
            Point::new(0, 0),
            Point::new(0, 1),
            Point::new(0, 2),
            Point::new(1, 2),
            Point::new(1, 1),
            Point::new(1, 0),
        ])
        .unwrap()
    }

    #[test]
    fn engine_runs_fig1_merge() {
        let mut sim = Sim::new(fig1_chain(), Fig1).observe(Recorder::new());
        let summary = sim.step().unwrap();
        assert_eq!(summary.moved, 2);
        assert_eq!(summary.removed, 2);
        assert_eq!(summary.len_after, 4);
        assert!(summary.gathered);
        // The recorder retained the full report with the merge events...
        let report = sim.observer::<Recorder>().unwrap().trace().reports.last();
        assert_eq!(report.unwrap().merges.len(), 2);
        // ...and the engine's own splice buffer still shows them too.
        assert_eq!(sim.last_merges().len(), 2);
        let outcome = sim.run_default();
        assert_eq!(outcome, Outcome::Gathered { rounds: 1 });
    }

    /// Regression (previously: `last_merges` was silently empty whenever
    /// reports were retained, because the engine moved the events into the
    /// trace): `last_merges` reflects the most recent round no matter what
    /// observers are attached.
    #[test]
    fn last_merges_valid_in_every_mode() {
        for observed in [false, true] {
            let mut sim = Sim::new(fig1_chain(), Fig1);
            if observed {
                sim.add_observer(Recorder::new());
            }
            let summary = sim.step().unwrap();
            assert_eq!(summary.removed, 2);
            assert_eq!(
                sim.last_merges().len(),
                2,
                "observed={observed}: last_merges must always hold the last round's events"
            );
        }
    }

    /// A strategy that breaks the chain on purpose: engine must catch it.
    struct Breaker;

    impl Strategy for Breaker {
        fn name(&self) -> &'static str {
            "breaker"
        }
        fn init(&mut self, _chain: &ClosedChain) {}
        fn compute(&mut self, _chain: &ClosedChain, _round: u64, hops: &mut [Offset]) {
            hops[0] = Offset::new(1, 1);
        }
    }

    #[test]
    fn engine_detects_broken_chain() {
        let mut sim = Sim::new(ring6(), Breaker);
        let outcome = sim.run_default();
        assert!(matches!(outcome, Outcome::ChainBroken { .. }));
        // Further steps refuse to run.
        assert!(sim.step().is_err());
    }

    #[test]
    fn recorder_observer_records_reports_and_snapshots() {
        let mut sim =
            Sim::new(ring6(), Stand).observe(Recorder::with_config(crate::trace::TraceConfig {
                snapshot_every: 1,
                max_snapshots: 4,
                keep_reports: true,
            }));
        for _ in 0..6 {
            sim.step().unwrap();
        }
        let trace = sim.observer::<Recorder>().unwrap().trace();
        assert_eq!(trace.reports.len(), 6);
        assert_eq!(trace.snapshots.len(), 4); // capped
        assert_eq!(trace.total_removed(), 0);
        // The engine's own aggregates agree.
        assert_eq!(sim.progress().rounds(), 6);
        assert_eq!(sim.progress().total_removed(), 0);
    }

    #[test]
    fn observer_free_sim_keeps_aggregates_only() {
        // Same Fig. 1 merge, no observers: nothing retained, aggregates
        // correct, splice buffer still readable.
        let mut sim = Sim::new(fig1_chain(), Fig1);
        let summary = sim.step().unwrap();
        assert_eq!(summary.removed, 2);
        assert_eq!(sim.progress().total_removed(), 2);
        assert_eq!(sim.progress().rounds_with_merges(), 1);
        assert_eq!(sim.last_merges().len(), 2);
        assert!(sim.observer::<Recorder>().is_none());
    }

    #[test]
    fn observed_and_headless_runs_agree() {
        let mut a = Sim::new(ring6(), Stand);
        let mut b = Sim::new(ring6(), Stand).observe(Recorder::new());
        for _ in 0..4 {
            assert_eq!(a.step().unwrap(), b.step().unwrap());
        }
        assert_eq!(a.progress(), b.progress());
        assert_eq!(
            b.observer::<Recorder>().unwrap().trace().progress(),
            a.progress()
        );
    }

    /// `on_finish` fires exactly once, with the final outcome.
    struct FinishCounter {
        finishes: usize,
        last: Option<Outcome>,
    }
    impl<S: Strategy> Observer<S> for FinishCounter {
        fn on_finish(&mut self, _chain: &ClosedChain, _strategy: &S, outcome: &Outcome) {
            self.finishes += 1;
            self.last = Some(outcome.clone());
        }
    }

    #[test]
    fn on_finish_fires_once() {
        let mut sim = Sim::new(fig1_chain(), Fig1).observe(FinishCounter {
            finishes: 0,
            last: None,
        });
        let outcome = sim.run_default();
        let again = sim.run_default();
        assert_eq!(outcome, again);
        let fc = sim.observer::<FinishCounter>().unwrap();
        assert_eq!(fc.finishes, 1);
        assert_eq!(fc.last.as_ref(), Some(&outcome));
    }

    /// A re-judged run that decides a new outcome *without stepping*
    /// (tighter stall window at loop entry) still finishes with it.
    #[test]
    fn on_finish_refires_on_rejudged_outcome() {
        let mut sim = Sim::new(ring6(), Inert).observe(FinishCounter {
            finishes: 0,
            last: None,
        });
        let limit = sim.run(RunLimits {
            max_rounds: 10,
            stall_window: 100,
        });
        assert_eq!(limit, Outcome::RoundLimit { rounds: 10 });
        let stalled = sim.run(RunLimits {
            max_rounds: 1000,
            stall_window: 5,
        });
        assert!(matches!(stalled, Outcome::Stalled { .. }));
        let fc = sim.observer::<FinishCounter>().unwrap();
        assert_eq!(fc.finishes, 2);
        assert_eq!(fc.last.as_ref(), Some(&stalled));
    }

    /// A resumed run that immediately breaks the chain still finishes:
    /// the fresh `ChainBroken` outcome reaches the observers even though
    /// no round completed between the two finishes.
    #[test]
    fn on_finish_refires_when_resume_breaks() {
        let mut sim = Sim::new(ring6(), Breaker).observe(FinishCounter {
            finishes: 0,
            last: None,
        });
        let bounded = sim.run(RunLimits {
            max_rounds: 0,
            stall_window: 10,
        });
        assert_eq!(bounded, Outcome::RoundLimit { rounds: 0 });
        let broken = sim.run_default();
        assert!(matches!(broken, Outcome::ChainBroken { .. }));
        let fc = sim.observer::<FinishCounter>().unwrap();
        assert_eq!(fc.finishes, 2);
        assert_eq!(fc.last.as_ref(), Some(&broken));
    }

    /// A chain with a fold at (1,0): index 2 at (1,1) can legally hop down
    /// onto both its neighbors without anyone else moving.
    fn folded6() -> ClosedChain {
        ClosedChain::new(vec![
            Point::new(0, 0),
            Point::new(1, 0),
            Point::new(1, 1),
            Point::new(1, 0),
            Point::new(0, 0),
            Point::new(0, 1),
        ])
        .unwrap()
    }

    /// Strategy: the robot at (1,1) hops down every round.
    struct FoldDown;

    impl Strategy for FoldDown {
        fn name(&self) -> &'static str {
            "fold-down"
        }
        fn init(&mut self, _chain: &ClosedChain) {}
        fn compute(&mut self, chain: &ClosedChain, _round: u64, hops: &mut [Offset]) {
            for (i, hop) in hops.iter_mut().enumerate() {
                if chain.pos(i) == Point::new(1, 1) {
                    *hop = Offset::DOWN;
                }
            }
        }
    }

    /// A test scheduler: one fixed index never acts.
    struct Mute(usize);

    impl crate::scheduler::Scheduler for Mute {
        fn activate(&mut self, _round: u64, mask: &mut [bool]) {
            if let Some(slot) = mask.get_mut(self.0) {
                *slot = false;
            }
        }
    }

    /// The engine discards the hops of inactive robots: under a scheduler
    /// muting the only mover, nothing moves; under the FSYNC default the
    /// hop applies and the fold merges away.
    #[test]
    fn scheduler_masks_inactive_hops() {
        let mut fsync = Sim::new(folded6(), FoldDown);
        let s = fsync.step().unwrap();
        assert_eq!(s.moved, 1);
        assert!(s.removed > 0, "fold collapse merges");

        let mut muted = Sim::new(folded6(), FoldDown).with_scheduler(Box::new(Mute(2)));
        for _ in 0..4 {
            let s = muted.step().unwrap();
            assert_eq!(s.moved, 0, "the muted mover must keep a zero hop");
            assert_eq!(s.removed, 0);
        }
        assert_eq!(muted.chain().len(), 6);
    }

    /// Observers receive the activation mask (and the already-masked hops).
    struct MaskLog(Vec<Vec<bool>>);

    impl<S: Strategy> Observer<S> for MaskLog {
        fn on_round(&mut self, ctx: &RoundCtx<'_>, _strategy: &mut S) {
            for (hop, active) in ctx.hops.iter().zip(ctx.active) {
                if !active {
                    assert_eq!(hop, &Offset::ZERO);
                }
            }
            self.0.push(ctx.active.to_vec());
        }
    }

    #[test]
    fn observers_see_activation_masks() {
        use crate::kernel::RoundRobinRule;
        let mut sim = Sim::new(ring6(), Stand)
            .with_scheduler(Box::new(RoundRobinRule::new(2)))
            .observe(MaskLog(Vec::new()));
        sim.step().unwrap();
        sim.step().unwrap();
        let masks = &sim.observer::<MaskLog>().unwrap().0;
        assert_eq!(
            masks[0],
            vec![true, false, true, false, true, false],
            "round 0 activates the even class"
        );
        assert_eq!(masks[1], vec![false, true, false, true, false, true]);
    }

    /// Regression (review finding): a low-duty scheduler whose
    /// legitimate activation gaps exceed the base quiescence window must
    /// not be misdeclared stalled — the window scales with the
    /// scheduler's inverse duty cycle. `RoundRobinRule(100)` on a
    /// 6-robot chain activates nobody for 94 consecutive rounds of every
    /// period; the fold still collapses once index 2's turn comes.
    #[test]
    fn low_duty_scheduler_is_not_misread_as_quiescent() {
        use crate::kernel::RoundRobinRule;
        let mut sim =
            Sim::new(folded6(), FoldDown).with_scheduler(Box::new(RoundRobinRule::new(100)));
        let outcome = sim.run(RunLimits {
            max_rounds: 100_000,
            stall_window: 100_000,
        });
        // Index 2 activates at round 2 of each 100-round period; the fold
        // merges and the chain gathers — never a false Stalled.
        assert!(outcome.is_gathered(), "{outcome:?}");
    }

    /// The explicit FSYNC scheduler is the default: identical step
    /// sequences on the merge-exercising Fig. 1 workload.
    #[test]
    fn explicit_fsync_matches_default() {
        let mut a = Sim::new(fig1_chain(), Fig1);
        let mut b = Sim::new(fig1_chain(), Fig1).with_scheduler(Box::new(FsyncRule));
        for _ in 0..3 {
            assert_eq!(a.step().ok(), b.step().ok());
        }
        assert_eq!(a.chain().positions(), b.chain().positions());
    }

    /// Plays a fixed hop vector per round.
    struct Scripted(Vec<Vec<Offset>>);

    impl Strategy for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn init(&mut self, _chain: &ClosedChain) {}
        fn compute(&mut self, _chain: &ClosedChain, round: u64, hops: &mut [Offset]) {
            hops.copy_from_slice(&self.0[round as usize]);
        }
    }

    /// The round as the engine ran it on positions: the position-backed
    /// `apply_hops` → `merge_pass` → `validate` of the oracle, travel by
    /// `sqrt`, the gathering criterion from a fresh bounding box.
    struct Reference {
        chain: PosChain,
        splice: SpliceLog,
        travel: Vec<f64>,
        retired: f64,
    }

    impl Reference {
        fn step(&mut self, hops: &[Offset]) -> Result<(usize, usize, bool), ChainError> {
            let moved = self.chain.apply_hops(hops)?;
            for (t, h) in self.travel.iter_mut().zip(hops) {
                if *h != Offset::ZERO {
                    *t += ((h.dx * h.dx + h.dy * h.dy) as f64).sqrt();
                }
            }
            let removed = self.chain.merge_pass(&mut self.splice);
            let mut write = 0;
            for read in 0..self.travel.len() {
                if self.splice.removed_indices().contains(&read) {
                    self.retired = self.retired.max(self.travel[read]);
                } else {
                    self.travel[write] = self.travel[read];
                    write += 1;
                }
            }
            self.travel.truncate(write);
            if self.chain.pos.len() > 1 {
                self.chain.validate()?;
            }
            Ok((moved, removed, self.chain.is_gathered()))
        }

        fn max_travel(&self) -> f64 {
            self.travel.iter().fold(self.retired, |acc, &t| acc.max(t))
        }
    }

    /// A random taut closed chain of `2m` robots: `m` random unit steps
    /// and their opposites, shuffled.
    fn random_chain(rng: &mut crate::rng::SplitMix64, m: usize) -> ClosedChain {
        let dirs = [Offset::RIGHT, Offset::UP, Offset::LEFT, Offset::DOWN];
        let mut steps: Vec<Offset> = (0..m).map(|_| *rng.choose(&dirs)).collect();
        steps.extend(steps.clone().into_iter().map(|s| -s));
        rng.shuffle(&mut steps);
        let mut p = Point::new(0, 0);
        let pos = steps
            .iter()
            .map(|&s| {
                let q = p;
                p += s;
                q
            })
            .collect();
        ClosedChain::new(pos).unwrap()
    }

    #[test]
    fn diagonal_travel_constant_is_the_sqrt() {
        assert_eq!(std::f64::consts::SQRT_2, 2f64.sqrt());
    }

    /// The engine's round on the edge-backed chain is the round on
    /// positions, outcome for outcome: on random chains, after a legal
    /// translation round, a second round with one illegal hop, one
    /// single-robot hop (often chain-breaking), a fold tip collapsing onto
    /// its neighbours, or sparse random hops gives the same `ChainError`
    /// or summary, merges and `max_travel` as the reference sequence, and
    /// the same chain and gathering flag — on an error, the chain the
    /// round started from, which a refused move leaves as it was.
    #[test]
    fn fused_sweep_matches_the_unfused_round() {
        use crate::rng::SplitMix64;
        let mut rng = SplitMix64::new(0xf05e);
        let legal: Vec<Offset> = (-1..=1)
            .flat_map(|dx| (-1..=1).map(move |dy| Offset::new(dx, dy)))
            .collect();
        let (mut illegal, mut broken, mut merged, mut plain) = (0, 0, 0, 0);
        for case in 0..3000 {
            let m = rng.range_usize(1, 20);
            let chain = random_chain(&mut rng, m);
            let n = chain.len();
            let shift = *rng.choose(&legal);
            let mut hops = vec![Offset::ZERO; n];
            match case % 4 {
                0 => {
                    for h in hops.iter_mut() {
                        if rng.chance(1, 4) {
                            *h = *rng.choose(&legal);
                        }
                    }
                    let far = [-2, 2][rng.range_usize(0, 2)];
                    let bad = if rng.chance(1, 2) {
                        Offset::new(far, rng.range_i64_inclusive(-1, 1))
                    } else {
                        Offset::new(rng.range_i64_inclusive(-2, 2), far)
                    };
                    hops[rng.range_usize(0, n)] = bad;
                }
                1 => hops[rng.range_usize(0, n)] = *rng.choose(&legal),
                2 => {
                    // Collapse a fold tip onto its coinciding neighbours.
                    let tips: Vec<usize> = (0..n)
                        .filter(|&i| chain.pos(chain.nb(i, -1)) == chain.pos(chain.nb(i, 1)))
                        .collect();
                    if !tips.is_empty() {
                        let i = *rng.choose(&tips);
                        hops[i] = chain.pos(chain.nb(i, 1)) - chain.pos(i);
                    }
                }
                _ => {
                    for h in hops.iter_mut() {
                        if rng.chance(1, 3) {
                            *h = *rng.choose(&legal);
                        }
                    }
                }
            }
            let script = vec![vec![shift; n], hops.clone()];
            let mut sim = Sim::new(chain.clone(), Scripted(script));
            let mut reference = Reference {
                chain: PosChain::of(&chain),
                splice: SpliceLog::default(),
                travel: vec![0.0; n],
                retired: 0.0,
            };
            for round_hops in [vec![shift; n], hops] {
                let before = reference.chain.clone();
                let want = reference.step(&round_hops);
                let got = sim.step();
                match (&want, &got) {
                    (Err(e), Err(g)) => {
                        assert_eq!(g, e, "case {case}");
                        match e {
                            ChainError::IllegalHop { .. } => illegal += 1,
                            _ => broken += 1,
                        }
                        reference.chain = before;
                    }
                    (Ok((moved, removed, gathered)), Ok(s)) => {
                        assert_eq!(
                            (s.moved, s.removed, s.gathered),
                            (*moved, *removed, *gathered)
                        );
                        assert_eq!(s.len_after, reference.chain.pos.len(), "case {case}");
                        assert_eq!(sim.last_merges(), reference.splice.merges(), "case {case}");
                        if *removed > 0 {
                            merged += 1;
                        } else {
                            plain += 1;
                        }
                    }
                    _ => panic!("case {case}: reference {want:?}, engine {got:?}"),
                }
                assert_eq!(
                    sim.chain().positions(),
                    &reference.chain.pos[..],
                    "case {case}"
                );
                assert_eq!(sim.chain().ids(), &reference.chain.id[..], "case {case}");
                assert_eq!(
                    sim.max_travel().to_bits(),
                    reference.max_travel().to_bits(),
                    "case {case}"
                );
                assert_eq!(
                    sim.is_gathered(),
                    reference.chain.is_gathered(),
                    "case {case}"
                );
                if want.is_err() {
                    break;
                }
            }
        }
        assert_eq!(illegal, 750, "illegal-hop rounds");
        assert!(broken > 1000, "{broken} chain-breaking rounds");
        assert!(merged > 600, "{merged} merging rounds");
        assert!(plain > 3000, "{plain} plain rounds");
    }

    /// Resuming a limit-bounded run with larger limits finishes again:
    /// observers see one finish per decided outcome, never a stale one.
    #[test]
    fn on_finish_refires_after_resume() {
        let mut sim = Sim::new(fig1_chain(), Fig1).observe(FinishCounter {
            finishes: 0,
            last: None,
        });
        let bounded = sim.run(RunLimits {
            max_rounds: 0,
            stall_window: 100,
        });
        assert_eq!(bounded, Outcome::RoundLimit { rounds: 0 });
        let full = sim.run_default();
        assert_eq!(full, Outcome::Gathered { rounds: 1 });
        let fc = sim.observer::<FinishCounter>().unwrap();
        assert_eq!(fc.finishes, 2);
        assert_eq!(fc.last.as_ref(), Some(&full));
    }
}
