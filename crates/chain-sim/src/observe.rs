//! Composable run instrumentation: the [`Observer`] API.
//!
//! An [`Observer`] watches a [`Sim`](crate::Sim) from the outside — it has
//! global knowledge and is *not* part of the robot model. The engine runs
//! one loop; every kind of instrumentation (trace recording, Lemma audits,
//! invariant checking, frame capture) plugs into that loop through the
//! same three hooks instead of owning a copy of it:
//!
//! * [`Observer::on_init`] — once, when the observer is attached (the
//!   chain is the initial configuration).
//! * [`Observer::on_round`] — after every completed round, fed a
//!   [`RoundCtx`]: the round summary, the hops the strategy chose at
//!   round start, the post-round chain, and the round's [`SpliceLog`]
//!   (merge events).
//! * [`Observer::on_finish`] — once, when [`Sim::run`](crate::Sim::run)
//!   decides the [`Outcome`].
//!
//! Observers compose: `Sim::new(chain, strategy).observe(a).observe(b)`
//! runs both, in attachment order. A simulation with *no* observers pays
//! nothing — the engine skips the dispatch entirely and retains nothing
//! per round, which is the benchmark hot path.
//!
//! The hooks receive the strategy (`&mut S` in [`Observer::on_round`]) so
//! instrumentation that drains strategy-recorded events (the Lemma
//! auditor in `gathering-core`) needs no side channel. Observers over a
//! concrete strategy type can use its inherent API; strategy-agnostic
//! observers (like [`Recorder`]) implement `Observer<S>` for every `S`.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::chain::{ClosedChain, SpliceLog};
use crate::engine::{Outcome, RoundSummary};
use crate::invariant::signed_turning_quarters;
use crate::strategy::Strategy;
use crate::trace::{RoundReport, Trace, TraceConfig};
use grid_geom::Offset;

/// Everything an observer sees about one completed round. Borrows the
/// engine's working state — valid for the duration of the
/// [`Observer::on_round`] call.
#[derive(Clone, Copy, Debug)]
pub struct RoundCtx<'a> {
    /// The round's allocation-free summary (what [`Sim::step`](crate::Sim::step) returns).
    pub summary: RoundSummary,
    /// The hops the strategy chose at round start, indexed by the
    /// *pre-move* chain indices. Hops of inactive robots are already
    /// zeroed — what is observed here is what was applied.
    pub hops: &'a [Offset],
    /// The round's activation mask (same pre-move indexing as `hops`):
    /// which robots the [`Scheduler`](crate::Scheduler) let act. All-true
    /// under FSYNC.
    pub active: &'a [bool],
    /// The chain after the round (post-move, post-merge).
    pub chain: &'a ClosedChain,
    /// The round's splice log: merge events and index remapping.
    pub splice: &'a SpliceLog,
    /// Hops the chain-safety guard cancelled this round (0 when the
    /// strategy did not opt into the guard). The hops in
    /// [`RoundCtx::hops`] are post-guard — this counter is how an
    /// observer sees that the guard intervened at all.
    pub guard_cancels: usize,
}

/// Composable run instrumentation; see the [module docs](self).
///
/// Every hook has an empty default, so an observer implements only what it
/// watches.
pub trait Observer<S: Strategy> {
    /// Called once when the observer is attached to a simulation.
    fn on_init(&mut self, _chain: &ClosedChain, _strategy: &S) {}

    /// Called after every completed round.
    fn on_round(&mut self, _ctx: &RoundCtx<'_>, _strategy: &mut S) {}

    /// Called once when [`Sim::run`](crate::Sim::run) decides the outcome.
    fn on_finish(&mut self, _chain: &ClosedChain, _strategy: &S, _outcome: &Outcome) {}
}

/// Object-safe carrier for the observer stack: [`Observer`] plus `Any`
/// downcasting, so [`Sim::observer`](crate::Sim::observer) can hand a
/// concrete observer back out of the type-erased stack. Blanket-implemented
/// for every `'static` observer; not meant to be implemented by hand.
pub trait AnyObserver<S: Strategy>: Observer<S> {
    /// The observer as `&dyn Any` (for downcasting).
    fn as_any(&self) -> &dyn Any;
    /// The observer as `&mut dyn Any` (for downcasting).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<S: Strategy, T: Observer<S> + 'static> AnyObserver<S> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The trace-recording observer: retains [`RoundReport`]s and position
/// snapshots per [`TraceConfig`], producing the [`Trace`] that replays and
/// per-round analyses consume.
///
/// This replaces the engine-internal report retention: the engine itself
/// never keeps anything per round, so attach a `Recorder` exactly when a
/// trace is wanted. The recorded trace also folds the
/// [`Progress`](crate::Progress) aggregates, so a taken [`Trace`] is
/// self-contained.
#[derive(Debug, Default)]
pub struct Recorder {
    cfg: TraceConfig,
    trace: Trace,
}

impl Recorder {
    /// Record full per-round reports, no snapshots (the
    /// [`TraceConfig::default`] behavior).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record with an explicit configuration.
    pub fn with_config(cfg: TraceConfig) -> Self {
        Recorder {
            cfg,
            trace: Trace::default(),
        }
    }

    /// Snapshot-only recording: positions every `every` rounds, capped at
    /// `max` snapshots, no per-round reports (animation replays).
    pub fn snapshots(every: u64, max: usize) -> Self {
        Self::with_config(TraceConfig {
            snapshot_every: every,
            max_snapshots: max,
            keep_reports: false,
        })
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Take the recorded trace, leaving an empty one.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }
}

impl<S: Strategy> Observer<S> for Recorder {
    fn on_round(&mut self, ctx: &RoundCtx<'_>, _strategy: &mut S) {
        let s = ctx.summary;
        self.trace.record_round(s.moved, s.removed);
        if self.cfg.snapshot_every > 0
            && s.round.is_multiple_of(self.cfg.snapshot_every)
            && self.trace.snapshots.len() < self.cfg.max_snapshots
        {
            self.trace
                .snapshots
                .push((s.round, ctx.chain.positions().to_vec()));
        }
        if self.cfg.keep_reports {
            self.trace.reports.push(RoundReport {
                round: s.round,
                moved: s.moved,
                removed: s.removed,
                merges: ctx.splice.merges().clone(),
                len_after: s.len_after,
                bbox: ctx.chain.bounding(),
                gathered: s.gathered,
            });
        }
    }
}

/// One recorded invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Round after which the violation was observed.
    pub round: u64,
    /// What was violated.
    pub what: String,
}

/// The invariant-checking observer: audits every *successful* round for
/// global consistency properties, and collects violations instead of
/// aborting.
///
/// What this observer verifies is the engine's *accounting*, the
/// scheduler contract, and the model's conserved quantities:
///
/// * the round summary agrees with the chain (`len_after`, `gathered`),
/// * the splice log agrees with the summary (`removed` counts, and a
///   merge-free round leaves the length unchanged),
/// * the scheduler contract against [`RoundCtx::active`]: an inactive
///   robot never moves, every applied hop is a legal unit hop, and the
///   post-round chain is taut and connected — re-derived here from the
///   chain itself rather than trusted from the engine, so a run that
///   masks or guards hops (SSYNC schedules, the chain-safety guard)
///   cannot smuggle a broken configuration past a green round,
/// * the closed chain's signed turning stays even (any closed lattice
///   loop has even total turning; an odd value means the chain and its
///   cyclic structure have come apart).
#[derive(Debug, Default)]
pub struct Invariants {
    violations: Vec<InvariantViolation>,
    prev_len: Option<usize>,
}

impl Invariants {
    /// A fresh checker with no recorded violations.
    pub fn new() -> Self {
        Self::default()
    }

    /// All violations observed so far.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// `true` if no violation has been observed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl<S: Strategy> Observer<S> for Invariants {
    fn on_init(&mut self, chain: &ClosedChain, _strategy: &S) {
        self.prev_len = Some(chain.len());
    }

    fn on_round(&mut self, ctx: &RoundCtx<'_>, _strategy: &mut S) {
        let round = ctx.summary.round;
        let mut violate = |what: String| {
            self.violations.push(InvariantViolation { round, what });
        };
        // Summary ↔ chain agreement.
        if ctx.summary.len_after != ctx.chain.len() {
            violate(format!(
                "summary len_after {} != chain len {}",
                ctx.summary.len_after,
                ctx.chain.len()
            ));
        }
        if ctx.summary.gathered != ctx.chain.is_gathered() {
            violate("summary gathered flag disagrees with the chain".to_string());
        }
        // Summary ↔ splice-log agreement, and length conservation: robots
        // only ever leave the chain through the merge pass.
        if ctx.summary.removed != ctx.splice.removed_count() {
            violate(format!(
                "summary removed {} != splice log {}",
                ctx.summary.removed,
                ctx.splice.removed_count()
            ));
        }
        // Scheduler contract: an inactive robot never moves, and what the
        // active ones did must be legal unit hops.
        let masked_moves = ctx
            .hops
            .iter()
            .zip(ctx.active)
            .filter(|(h, active)| !**active && **h != Offset::ZERO)
            .count();
        if masked_moves > 0 {
            violate(format!("{masked_moves} inactive robots moved"));
        }
        if let Some(i) = ctx.hops.iter().position(|h| !h.is_hop()) {
            violate(format!(
                "robot {i} applied an illegal hop {:?}",
                ctx.hops[i]
            ));
        }
        // Taut/connectivity re-check, independent of the engine's own
        // validation: whatever subset of robots the schedule activated
        // (and whatever the chain-safety guard cancelled), the chain that
        // reaches the observers must still be a taut closed chain.
        if ctx.chain.len() > 1 {
            if let Err(e) = ctx.chain.validate() {
                violate(format!("post-round chain is not taut/connected: {e:?}"));
            }
        }
        if let Some(prev) = self.prev_len {
            if prev != ctx.chain.len() + ctx.summary.removed {
                violate(format!(
                    "length not conserved: {prev} robots -> {} + {} removed",
                    ctx.chain.len(),
                    ctx.summary.removed
                ));
            }
        }
        self.prev_len = Some(ctx.chain.len());
        // Conserved quantity of the model: a closed lattice loop's signed
        // turning is always even (the engine never checks this).
        if ctx.chain.len() > 2 && signed_turning_quarters(ctx.chain) % 2 != 0 {
            violate("signed turning of the closed chain is odd".to_string());
        }
    }
}

/// A point-in-time read of a [`ProgressSlot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Rounds completed so far.
    pub round: u64,
    /// Current chain length.
    pub len: usize,
    /// Total robots removed by merges so far.
    pub removed: usize,
    /// Total hops the chain-safety guard has cancelled so far (0 unless
    /// the strategy opted into the guard — paper-ssync under SSYNC
    /// schedules is the interesting case).
    pub guard_cancels: u64,
    /// Wall-clock microseconds elapsed since the run's first publish
    /// (the initial configuration): watchers divide `round` by it for a
    /// live rounds/s rate. Frozen at the final publish once `finished`.
    pub wall_us: u64,
    /// `true` once the run's outcome has been decided.
    pub finished: bool,
}

/// A shared, lock-free progress slot: the publication side of the
/// [`ProgressProbe`] observer.
///
/// A running simulation publishes its round/merge counters into the slot
/// every round; any other thread (a service's progress endpoint, a TUI)
/// reads a [`ProgressSnapshot`] at any time without blocking the run. All
/// accesses are `Relaxed` atomics — a reader may observe the fields of two
/// adjacent rounds mixed, which is fine for progress reporting: every
/// field is individually monotone (round up, length down, removals up)
/// and converges once `finished` is set.
#[derive(Debug, Default)]
pub struct ProgressSlot {
    round: AtomicU64,
    len: AtomicUsize,
    removed: AtomicUsize,
    guard_cancels: AtomicU64,
    /// Elapsed microseconds since the first publish; see
    /// [`ProgressSnapshot::wall_us`].
    wall_us: AtomicU64,
    /// The instant of the first publish — set once, lock-free reads
    /// afterwards, so `publish` stays wait-free on the hot path.
    epoch: OnceLock<Instant>,
    finished: AtomicBool,
}

impl ProgressSlot {
    /// A fresh shared slot (round 0, nothing removed, not finished).
    pub fn new() -> Arc<ProgressSlot> {
        Arc::new(ProgressSlot::default())
    }

    /// Publish the counters of a completed round (or the initial
    /// configuration, with `round = 0`). `guard_cancels` is the running
    /// total of guard-cancelled hops — 0 for strategies without the
    /// chain-safety guard.
    pub fn publish(&self, round: u64, len: usize, removed: usize, guard_cancels: u64) {
        self.round.store(round, Ordering::Relaxed);
        self.len.store(len, Ordering::Relaxed);
        self.removed.store(removed, Ordering::Relaxed);
        self.guard_cancels.store(guard_cancels, Ordering::Relaxed);
        let epoch = self.epoch.get_or_init(Instant::now);
        self.wall_us.store(
            epoch.elapsed().as_micros().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Mark the run finished (the outcome is decided; the counters are
    /// final).
    pub fn finish(&self) {
        self.finished.store(true, Ordering::Relaxed);
    }

    /// Read the slot's current state.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            round: self.round.load(Ordering::Relaxed),
            len: self.len.load(Ordering::Relaxed),
            removed: self.removed.load(Ordering::Relaxed),
            guard_cancels: self.guard_cancels.load(Ordering::Relaxed),
            wall_us: self.wall_us.load(Ordering::Relaxed),
            finished: self.finished.load(Ordering::Relaxed),
        }
    }
}

/// The progress-publishing observer: feeds a shared [`ProgressSlot`] from
/// the run loop so other threads can watch a simulation live.
///
/// Strategy-agnostic (like [`Recorder`]); retains nothing beyond three
/// counters. Attach with `Sim::observe(ProgressProbe::new(slot.clone()))`
/// and hand the other end of the `Arc` to whoever reports progress.
#[derive(Debug)]
pub struct ProgressProbe {
    slot: Arc<ProgressSlot>,
    removed_total: usize,
    guard_total: u64,
}

impl ProgressProbe {
    /// A probe publishing into `slot`.
    pub fn new(slot: Arc<ProgressSlot>) -> Self {
        ProgressProbe {
            slot,
            removed_total: 0,
            guard_total: 0,
        }
    }
}

impl<S: Strategy> Observer<S> for ProgressProbe {
    fn on_init(&mut self, chain: &ClosedChain, _strategy: &S) {
        self.slot.publish(0, chain.len(), 0, 0);
    }

    fn on_round(&mut self, ctx: &RoundCtx<'_>, _strategy: &mut S) {
        self.removed_total += ctx.summary.removed;
        self.guard_total += ctx.guard_cancels as u64;
        self.slot.publish(
            ctx.summary.round + 1,
            ctx.summary.len_after,
            self.removed_total,
            self.guard_total,
        );
    }

    fn on_finish(&mut self, chain: &ClosedChain, _strategy: &S, _outcome: &Outcome) {
        // The counters may be ahead of the last published round when the
        // outcome was decided without stepping; republish the final state.
        self.slot.publish(
            self.slot.snapshot().round,
            chain.len(),
            self.removed_total,
            self.guard_total,
        );
        self.slot.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;
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

    #[test]
    fn recorder_snapshot_cap() {
        let mut sim = Sim::new(ring6(), Stand).observe(Recorder::snapshots(1, 3));
        for _ in 0..6 {
            sim.step().unwrap();
        }
        let rec = sim.observer::<Recorder>().unwrap();
        assert_eq!(rec.trace().snapshots.len(), 3);
        assert!(rec.trace().reports.is_empty());
        assert_eq!(rec.trace().rounds(), 6);
    }

    #[test]
    fn invariants_stay_clean_on_stand() {
        let mut sim = Sim::new(ring6(), Stand).observe(Invariants::new());
        for _ in 0..4 {
            sim.step().unwrap();
        }
        let inv = sim.observer::<Invariants>().unwrap();
        assert!(inv.is_clean());
        assert!(inv.violations().is_empty());
    }

    /// The checks are not vacuous: a fabricated inconsistent round is
    /// flagged (summary claims a removal the splice log doesn't show, so
    /// both the agreement and the conservation checks fire).
    #[test]
    fn invariants_detect_inconsistent_rounds() {
        let chain = ring6();
        let splice = SpliceLog::default();
        let mut inv = Invariants::new();
        let mut stand = Stand;
        Observer::<Stand>::on_init(&mut inv, &chain, &stand);
        let ctx = RoundCtx {
            summary: crate::RoundSummary {
                round: 0,
                moved: 0,
                removed: 1,
                len_after: chain.len(),
                gathered: false,
            },
            hops: &[],
            active: &[],
            chain: &chain,
            splice: &splice,
            guard_cancels: 0,
        };
        Observer::<Stand>::on_round(&mut inv, &ctx, &mut stand);
        assert!(!inv.is_clean());
        assert_eq!(inv.violations().len(), 2);
        assert_eq!(inv.violations()[0].round, 0);
    }

    /// The probe publishes the initial configuration on attach, each
    /// round's counters as they complete, and the finished flag exactly
    /// when the outcome is decided — all readable from the shared slot.
    #[test]
    fn progress_probe_publishes_live_counters() {
        let slot = ProgressSlot::new();
        let mut sim = Sim::new(ring6(), Stand).observe(ProgressProbe::new(slot.clone()));
        let initial = slot.snapshot();
        assert_eq!(
            (initial.round, initial.len, initial.removed),
            (0, 6, 0),
            "attach publishes the initial configuration"
        );
        assert_eq!(initial.guard_cancels, 0);
        assert!(!initial.finished);
        sim.step().unwrap();
        sim.step().unwrap();
        let snap = slot.snapshot();
        assert_eq!(snap.round, 2);
        assert_eq!(snap.len, 6);
        assert!(snap.wall_us >= initial.wall_us, "wall clock is monotone");
        assert!(!snap.finished);
        sim.run(crate::RunLimits {
            max_rounds: 4,
            stall_window: 1_000,
        });
        assert!(slot.snapshot().finished);
    }

    /// Observer ordering: attachment order is call order.
    struct Tagger(u8, std::rc::Rc<std::cell::RefCell<Vec<u8>>>);
    impl<S: Strategy> Observer<S> for Tagger {
        fn on_round(&mut self, _ctx: &RoundCtx<'_>, _strategy: &mut S) {
            self.1.borrow_mut().push(self.0);
        }
    }

    #[test]
    fn observers_fire_in_attachment_order() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Sim::new(ring6(), Stand)
            .observe(Tagger(1, log.clone()))
            .observe(Tagger(2, log.clone()));
        sim.step().unwrap();
        sim.step().unwrap();
        assert_eq!(*log.borrow(), vec![1, 2, 1, 2]);
    }
}
