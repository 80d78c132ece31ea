//! Activation scheduling: the FSYNC / SSYNC model axis.
//!
//! The paper proves its 2Ln + n bound under the **fully synchronous**
//! (FSYNC) model: every robot is active in every round. The surrounding
//! literature (Castenow et al. 2020, Chakraborty et al. 2024) treats the
//! activation schedule as a first-class model axis — under
//! **semi-synchronous** (SSYNC) schedules an adversary activates only a
//! subset of the robots each round, and algorithm guarantees may or may
//! not survive.
//!
//! A [`Scheduler`] makes that axis explicit: per round it yields an
//! *activation mask* over the current chain indices. The engine
//! ([`Sim`](crate::Sim)) computes the strategy's hops from the common
//! round-start snapshot as always, then discards the hop of every
//! inactive robot — an inactive robot keeps a zero hop, exactly as if its
//! look–compute–move cycle had not been scheduled this round. Observers
//! see the mask through [`RoundCtx::active`](crate::RoundCtx::active).
//!
//! Each schedule is written once, as an [`ActivationRule`] in
//! [`crate::kernel`]; every rule is a [`Scheduler`] through one blanket
//! impl, so the boxed engine and the monomorphized kernels run the same
//! code. [`SchedulerKind`] names them:
//!
//! * `fsync` — all robots active every round. This is the paper's model
//!   and the engine default; the scheduler path is byte-identical to the
//!   pre-scheduler engine on seeded workloads (pinned in
//!   `tests/schedulers.rs`).
//! * `rr{groups}` — indices are dealt into `groups` residue classes; one
//!   class is active per round, cycling.
//! * `rand{percent}` — every robot is active independently with
//!   probability `percent`/100 each round (seeded, reproducible).
//! * `kfair{k}` — the adversarial minimum under k-fairness: each index is
//!   active exactly once every `k` rounds, at a seed-scrambled phase, so
//!   the adversary delays every activation as long as a k-fair schedule
//!   allows.
//!
//! All schedules are **deterministic**: a mask is a pure function of
//! `(seed, round, index, n)`, with randomness coming from the workspace's
//! [`SplitMix64`](crate::rng::SplitMix64) generator. Indices are *current
//! chain indices* — after a merge splices robots out, the schedule
//! applies to the positions that remain, which matches the adversary
//! abstraction (the scheduler picks which chain slots act, not robot
//! identities).

use crate::kernel::{ActivationRule, FsyncRule, KFairRule, RandomRule, RoundRobinRule};

/// Per-round activation decisions; see the [module docs](self).
///
/// `activate` receives the mask with every slot reset to `true` (the
/// FSYNC default) and flips off the robots that stay asleep this round.
/// Implementations must be deterministic in `(round, mask.len())` and
/// whatever seed they were built with — campaign reproducibility and the
/// run-batch determinism guarantees depend on it.
pub trait Scheduler {
    /// Decide round `round`: clear `mask[i]` for every robot `i` that is
    /// *not* activated. The mask arrives all-`true` and is indexed by
    /// current chain indices.
    fn activate(&mut self, round: u64, mask: &mut [bool]);

    /// The schedule's inverse duty cycle: the worst-case factor by which
    /// activation gaps stretch versus FSYNC (1 for FSYNC, `k` for a
    /// k-fair adversary). The engine multiplies its quiescence window by
    /// this, so a legitimate low-duty pause — e.g. a k > 64 adversary
    /// withholding activations — is not misdeclared a stall.
    fn slowdown(&self) -> u64 {
        1
    }
}

/// Every activation rule is a scheduler: the rule is prepared for the
/// mask's length (merges only shrink it, so per-index tables are built
/// once) and asked about every robot.
impl<A: ActivationRule> Scheduler for A {
    fn activate(&mut self, round: u64, mask: &mut [bool]) {
        if A::ALWAYS_ON {
            return;
        }
        self.prepare(mask.len());
        let turn = self.turn(round);
        for (i, slot) in mask.iter_mut().enumerate() {
            *slot = self.active_in(turn, i);
        }
    }
    fn slowdown(&self) -> u64 {
        ActivationRule::slowdown(self)
    }
}

/// The scheduler registry: every schedule the scenario pipeline, the
/// campaign grids, and the `spec_id` encoding can name. Mirrors
/// `bench`'s `StrategyKind` pattern but lives with the engine, because
/// the schedule is a property of the *model*, not of the harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// All robots active every round (the paper's model; the default).
    #[default]
    Fsync,
    /// [`RoundRobinRule`] with this many groups.
    RoundRobin(u32),
    /// [`RandomRule`] with this activation percentage.
    Random(u8),
    /// [`KFairRule`] with this period.
    KFair(u32),
}

impl SchedulerKind {
    /// The canonical SSYNC sweep the robustness experiments run: FSYNC
    /// (the control), alternating round-robin, a fair coin, and a 4-fair
    /// adversary.
    pub const SWEEP: [SchedulerKind; 4] = [
        SchedulerKind::Fsync,
        SchedulerKind::RoundRobin(2),
        SchedulerKind::Random(50),
        SchedulerKind::KFair(4),
    ];

    /// Every name form the registry accepts, for error inventories: the
    /// parameterized kinds are families of names, so the inventory lists
    /// the *forms* (`rr{groups}` …), not an enumeration.
    pub const NAME_FORMS: [&'static str; 4] = ["fsync", "rr{groups}", "rand{percent}", "kfair{k}"];

    /// Canonical registry name: `fsync`, `rr{groups}`, `rand{percent}`,
    /// `kfair{k}`. Stable — campaign `spec_id`s embed it.
    pub fn name(&self) -> String {
        match self {
            SchedulerKind::Fsync => "fsync".to_string(),
            SchedulerKind::RoundRobin(g) => format!("rr{g}"),
            SchedulerKind::Random(p) => format!("rand{p}"),
            SchedulerKind::KFair(k) => format!("kfair{k}"),
        }
    }

    /// Parse a registry name back (inverse of [`SchedulerKind::name`]).
    pub fn from_name(name: &str) -> Option<SchedulerKind> {
        if name == "fsync" {
            return Some(SchedulerKind::Fsync);
        }
        if let Some(g) = name.strip_prefix("rr") {
            return g.parse().ok().map(SchedulerKind::RoundRobin);
        }
        if let Some(p) = name.strip_prefix("rand") {
            return p.parse().ok().map(SchedulerKind::Random);
        }
        if let Some(k) = name.strip_prefix("kfair") {
            return k.parse().ok().map(SchedulerKind::KFair);
        }
        None
    }

    /// Build the scheduler. `seed` feeds the randomized kinds (the
    /// scenario pipeline passes the workload seed, so one scenario seed
    /// determines both the chain and the schedule).
    pub fn build(&self, seed: u64) -> Box<dyn Scheduler + Send> {
        match *self {
            SchedulerKind::Fsync => Box::new(FsyncRule),
            SchedulerKind::RoundRobin(g) => Box::new(RoundRobinRule::new(g)),
            SchedulerKind::Random(p) => Box::new(RandomRule::new(seed, p)),
            SchedulerKind::KFair(k) => Box::new(KFairRule::new(seed, k)),
        }
    }

    /// Worst-case round-count inflation versus FSYNC: the inverse duty
    /// cycle, as the kind's rule states it
    /// ([`ActivationRule::slowdown`]). Limit policies multiply their
    /// FSYNC-derived bounds by this factor, so an SSYNC run gets
    /// proportionally more rounds before the round cap or the stall window
    /// trips. The slowdown does not depend on the seed, and a rule builds
    /// its tables only when prepared, so this allocates nothing.
    pub fn slowdown(&self) -> u64 {
        match *self {
            SchedulerKind::Fsync => ActivationRule::slowdown(&FsyncRule),
            SchedulerKind::RoundRobin(g) => ActivationRule::slowdown(&RoundRobinRule::new(g)),
            SchedulerKind::Random(p) => ActivationRule::slowdown(&RandomRule::new(0, p)),
            SchedulerKind::KFair(k) => ActivationRule::slowdown(&KFairRule::new(0, k)),
        }
    }

    /// `true` for the fully synchronous kind.
    pub fn is_fsync(&self) -> bool {
        matches!(self, SchedulerKind::Fsync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_of(s: &mut Box<dyn Scheduler + Send>, round: u64, n: usize) -> Vec<bool> {
        let mut mask = vec![true; n];
        s.activate(round, &mut mask);
        mask
    }

    #[test]
    fn fsync_activates_everyone() {
        let mut f = SchedulerKind::Fsync.build(0);
        for round in 0..8 {
            assert!(mask_of(&mut f, round, 7).iter().all(|&a| a));
        }
    }

    #[test]
    fn round_robin_partitions_rounds() {
        let mut rr = SchedulerKind::RoundRobin(3).build(0);
        let n = 10;
        // Over any 3 consecutive rounds, every index is active exactly once.
        let mut counts = vec![0usize; n];
        for round in 0..3 {
            for (i, active) in mask_of(&mut rr, round, n).iter().enumerate() {
                if *active {
                    counts[i] += 1;
                }
            }
        }
        assert_eq!(counts, vec![1; n]);
        // groups=1 is FSYNC.
        let mut one = SchedulerKind::RoundRobin(1).build(0);
        assert!(mask_of(&mut one, 5, n).iter().all(|&a| a));
    }

    #[test]
    fn seeded_random_is_reproducible_and_seed_sensitive() {
        let mut a = SchedulerKind::Random(50).build(7);
        let mut b = SchedulerKind::Random(50).build(7);
        let mut c = SchedulerKind::Random(50).build(8);
        let masks_a: Vec<Vec<bool>> = (0..32).map(|r| mask_of(&mut a, r, 64)).collect();
        let masks_b: Vec<Vec<bool>> = (0..32).map(|r| mask_of(&mut b, r, 64)).collect();
        let masks_c: Vec<Vec<bool>> = (0..32).map(|r| mask_of(&mut c, r, 64)).collect();
        assert_eq!(masks_a, masks_b, "same seed, same schedule");
        assert_ne!(masks_a, masks_c, "different seed, different schedule");
        // p=100 never deactivates; activation rate is roughly p elsewhere.
        let mut full = SchedulerKind::Random(100).build(7);
        assert!(mask_of(&mut full, 0, 64).iter().all(|&x| x));
        let active: usize = masks_a.iter().flatten().filter(|&&x| x).count();
        let total = 32 * 64;
        assert!(
            (total * 4 / 10..=total * 6 / 10).contains(&active),
            "p=50 rate out of band: {active}/{total}"
        );
    }

    #[test]
    fn kfair_activates_each_index_exactly_once_per_period() {
        let (k, n) = (4u32, 23usize);
        let mut sched = SchedulerKind::KFair(k).build(99);
        for window in 0..3 {
            let mut counts = vec![0usize; n];
            for round in window * k as u64..(window + 1) * k as u64 {
                for (i, active) in mask_of(&mut sched, round, n).iter().enumerate() {
                    if *active {
                        counts[i] += 1;
                    }
                }
            }
            assert_eq!(counts, vec![1; n], "window {window}");
        }
        // Phases are seed-scrambled: a different seed shifts them.
        let mut other = SchedulerKind::KFair(k).build(100);
        let a: Vec<Vec<bool>> = (0..4).map(|r| mask_of(&mut sched, r, n)).collect();
        let b: Vec<Vec<bool>> = (0..4).map(|r| mask_of(&mut other, r, n)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            SchedulerKind::Fsync,
            SchedulerKind::RoundRobin(2),
            SchedulerKind::RoundRobin(16),
            SchedulerKind::Random(50),
            SchedulerKind::Random(5),
            SchedulerKind::KFair(4),
            SchedulerKind::KFair(32),
        ] {
            assert_eq!(SchedulerKind::from_name(&kind.name()), Some(kind));
        }
        assert_eq!(
            SchedulerKind::from_name("fsync"),
            Some(SchedulerKind::Fsync)
        );
        assert_eq!(SchedulerKind::from_name("nope"), None);
        assert_eq!(SchedulerKind::from_name("rrx"), None);
        assert_eq!(SchedulerKind::from_name("rand"), None);
        assert_eq!(SchedulerKind::default(), SchedulerKind::Fsync);
    }

    #[test]
    fn slowdown_is_the_inverse_duty_cycle() {
        assert_eq!(SchedulerKind::Fsync.slowdown(), 1);
        assert_eq!(SchedulerKind::RoundRobin(2).slowdown(), 2);
        assert_eq!(SchedulerKind::Random(50).slowdown(), 2);
        assert_eq!(SchedulerKind::Random(33).slowdown(), 4);
        assert_eq!(SchedulerKind::Random(100).slowdown(), 1);
        assert_eq!(SchedulerKind::KFair(4).slowdown(), 4);
        assert!(SchedulerKind::Fsync.is_fsync());
        assert!(!SchedulerKind::KFair(4).is_fsync());
    }

    /// The kind's slowdown is the one its built scheduler reports, for
    /// the sweep and the edge parameters of each rule, at any seed.
    #[test]
    fn slowdown_is_the_built_schedulers() {
        let edges = [
            SchedulerKind::Random(33),
            SchedulerKind::Random(100),
            SchedulerKind::RoundRobin(0),
            SchedulerKind::KFair(0),
        ];
        for kind in SchedulerKind::SWEEP.into_iter().chain(edges) {
            for seed in [0, 7, u64::MAX] {
                assert_eq!(
                    kind.slowdown(),
                    Scheduler::slowdown(&*kind.build(seed)),
                    "{} seed {seed}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn built_kinds_respect_their_shape() {
        let n = 12;
        // Fsync build leaves the mask alone.
        let mut f = SchedulerKind::Fsync.build(3);
        assert!(mask_of(&mut f, 9, n).iter().all(|&a| a));
        // KFair build with the same seed gives the same schedule.
        let mut k1 = SchedulerKind::KFair(3).build(5);
        let mut k2 = SchedulerKind::KFair(3).build(5);
        for round in 0..6 {
            assert_eq!(mask_of(&mut k1, round, n), mask_of(&mut k2, round, n));
        }
    }
}
