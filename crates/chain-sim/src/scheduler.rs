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
//! All schedulers are **deterministic**: a mask is a pure function of
//! `(seed, round, index, n)`, with randomness coming from the workspace's
//! [`SplitMix64`] generator. Indices are *current chain indices* — after a
//! merge splices robots out, the schedule applies to the positions that
//! remain, which matches the adversary abstraction (the scheduler picks
//! which chain slots act, not robot identities).
//!
//! Shipped schedulers:
//!
//! * [`Fsync`] — all robots active every round. This is the paper's model
//!   and the engine default; the scheduler path is byte-identical to the
//!   pre-scheduler engine on seeded workloads (pinned in
//!   `tests/schedulers.rs`).
//! * [`RoundRobinSsync`] — indices are dealt into `groups` residue
//!   classes; one class is active per round, cycling.
//! * [`SeededRandomSsync`] — every robot is active independently with
//!   probability `percent`/100 each round (seeded, reproducible).
//! * [`KFair`] — the adversarial minimum under k-fairness: each index is
//!   active exactly once every `k` rounds, at a seed-scrambled phase, so
//!   the adversary delays every activation as long as a k-fair schedule
//!   allows.

use crate::rng::SplitMix64;

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

/// Boxed schedulers forward to their contents, mirroring the blanket
/// `Strategy` impl, so `Box<dyn Scheduler + Send>` plugs into the same
/// engine as a concrete scheduler.
impl<T: Scheduler + ?Sized> Scheduler for Box<T> {
    fn activate(&mut self, round: u64, mask: &mut [bool]) {
        (**self).activate(round, mask)
    }
    fn slowdown(&self) -> u64 {
        (**self).slowdown()
    }
}

/// The fully synchronous schedule: every robot active every round (the
/// paper's model, and the engine default).
#[derive(Clone, Copy, Debug, Default)]
pub struct Fsync;

impl Scheduler for Fsync {
    fn activate(&mut self, _round: u64, _mask: &mut [bool]) {}
}

/// Round-robin SSYNC: indices are partitioned into `groups` residue
/// classes (`i % groups`), and class `round % groups` is active each
/// round. `groups = 1` degenerates to FSYNC; `groups = n` activates one
/// robot per round.
#[derive(Clone, Copy, Debug)]
pub struct RoundRobinSsync {
    groups: u64,
}

impl RoundRobinSsync {
    /// A round-robin schedule over `groups` classes (clamped to ≥ 1).
    pub fn new(groups: u32) -> Self {
        RoundRobinSsync {
            groups: u64::from(groups.max(1)),
        }
    }
}

impl Scheduler for RoundRobinSsync {
    fn activate(&mut self, round: u64, mask: &mut [bool]) {
        if self.groups <= 1 {
            return;
        }
        let turn = round % self.groups;
        for (i, slot) in mask.iter_mut().enumerate() {
            *slot = (i as u64) % self.groups == turn;
        }
    }
    fn slowdown(&self) -> u64 {
        // Also the worst activation gap: with more groups than robots,
        // the turns pointing at empty residue classes activate nobody.
        self.groups
    }
}

/// Mix a `(seed, round, index)` triple into one SplitMix64 draw — the
/// stateless core of the randomized schedulers. Being stateless makes the
/// schedule a pure function of the triple: merges can shrink the chain
/// between rounds without any index-remapping bookkeeping.
#[inline]
pub(crate) fn draw(seed: u64, round: u64, index: usize) -> u64 {
    // Distinct odd multipliers keep (round, index) pairs from colliding
    // in the seed expansion; SplitMix64 then scrambles the state.
    let state = seed
        ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (index as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    SplitMix64::new(state).next_u64()
}

/// Extend a k-fair phase table to `len` indices: index `i` is active in
/// the rounds `r` with `r % k == phases[i]`, its phase
/// `draw(seed, 0, i) % k` depending on seed and index only, never on the
/// round. Merges only shrink a chain, so a table grown once to the
/// initial length serves every later round. The one definition of the
/// k-fair phase, shared by [`KFair`] and the kernel's `KFairRule`.
pub(crate) fn extend_kfair_phases(seed: u64, k: u64, phases: &mut Vec<u32>, len: usize) {
    // k comes from a u32, so every phase fits one.
    phases.extend((phases.len()..len).map(|i| (draw(seed, 0, i) % k) as u32));
}

/// Independent-coin SSYNC: each robot is active with probability
/// `percent`/100 per round, independently, from a seeded stream.
#[derive(Clone, Copy, Debug)]
pub struct SeededRandomSsync {
    seed: u64,
    percent: u64,
}

impl SeededRandomSsync {
    /// Activation probability `percent`% (clamped to 1..=100) from `seed`.
    pub fn new(seed: u64, percent: u8) -> Self {
        SeededRandomSsync {
            seed,
            percent: u64::from(percent.clamp(1, 100)),
        }
    }
}

impl Scheduler for SeededRandomSsync {
    fn activate(&mut self, round: u64, mask: &mut [bool]) {
        if self.percent >= 100 {
            return;
        }
        for (i, slot) in mask.iter_mut().enumerate() {
            // Lemire reduction of one draw to [0, 100).
            let coin = ((u128::from(draw(self.seed, round, i)) * 100) >> 64) as u64;
            *slot = coin < self.percent;
        }
    }
    fn slowdown(&self) -> u64 {
        // The expected activation gap; the scaled quiescence window (64×
        // this) makes a false stall from coin-flip gaps astronomically
        // unlikely at any percentage the registry admits.
        100u64.div_ceil(self.percent.max(1))
    }
}

/// Adversarial k-fair SSYNC: every index is active exactly once every `k`
/// rounds — the *minimum* activation a k-fair adversary must grant — at a
/// per-index phase scrambled from the seed (so neighboring indices do not
/// wake in lockstep blocks).
#[derive(Clone, Debug)]
pub struct KFair {
    seed: u64,
    k: u64,
    /// Per-index phases, grown to the first mask's length.
    phases: Vec<u32>,
}

impl KFair {
    /// A k-fair adversary with period `k` (clamped to ≥ 1) and a seeded
    /// phase assignment.
    pub fn new(seed: u64, k: u32) -> Self {
        KFair {
            seed,
            k: u64::from(k.max(1)),
            phases: Vec::new(),
        }
    }
}

impl Scheduler for KFair {
    fn activate(&mut self, round: u64, mask: &mut [bool]) {
        if self.k <= 1 {
            return;
        }
        if self.phases.len() < mask.len() {
            extend_kfair_phases(self.seed, self.k, &mut self.phases, mask.len());
        }
        let turn = (round % self.k) as u32;
        for (slot, &phase) in mask.iter_mut().zip(&self.phases) {
            *slot = turn == phase;
        }
    }
    fn slowdown(&self) -> u64 {
        self.k
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
    /// [`RoundRobinSsync`] with this many groups.
    RoundRobin(u32),
    /// [`SeededRandomSsync`] with this activation percentage.
    Random(u8),
    /// [`KFair`] with this period.
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
            SchedulerKind::Fsync => Box::new(Fsync),
            SchedulerKind::RoundRobin(g) => Box::new(RoundRobinSsync::new(g)),
            SchedulerKind::Random(p) => Box::new(SeededRandomSsync::new(seed, p)),
            SchedulerKind::KFair(k) => Box::new(KFair::new(seed, k)),
        }
    }

    /// Worst-case round-count inflation versus FSYNC: the inverse duty
    /// cycle. Limit policies multiply their FSYNC-derived bounds by this
    /// factor, so an SSYNC run gets proportionally more rounds before the
    /// round cap or the stall window trips.
    pub fn slowdown(&self) -> u64 {
        match *self {
            SchedulerKind::Fsync => 1,
            SchedulerKind::RoundRobin(g) => u64::from(g.max(1)),
            SchedulerKind::Random(p) => 100u64.div_ceil(u64::from(p.clamp(1, 100))),
            SchedulerKind::KFair(k) => u64::from(k.max(1)),
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

    fn mask_of(s: &mut dyn Scheduler, round: u64, n: usize) -> Vec<bool> {
        let mut mask = vec![true; n];
        s.activate(round, &mut mask);
        mask
    }

    #[test]
    fn fsync_activates_everyone() {
        let mut f = Fsync;
        for round in 0..8 {
            assert!(mask_of(&mut f, round, 7).iter().all(|&a| a));
        }
    }

    #[test]
    fn round_robin_partitions_rounds() {
        let mut rr = RoundRobinSsync::new(3);
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
        let mut one = RoundRobinSsync::new(1);
        assert!(mask_of(&mut one, 5, n).iter().all(|&a| a));
    }

    #[test]
    fn seeded_random_is_reproducible_and_seed_sensitive() {
        let mut a = SeededRandomSsync::new(7, 50);
        let mut b = SeededRandomSsync::new(7, 50);
        let mut c = SeededRandomSsync::new(8, 50);
        let masks_a: Vec<Vec<bool>> = (0..32).map(|r| mask_of(&mut a, r, 64)).collect();
        let masks_b: Vec<Vec<bool>> = (0..32).map(|r| mask_of(&mut b, r, 64)).collect();
        let masks_c: Vec<Vec<bool>> = (0..32).map(|r| mask_of(&mut c, r, 64)).collect();
        assert_eq!(masks_a, masks_b, "same seed, same schedule");
        assert_ne!(masks_a, masks_c, "different seed, different schedule");
        // p=100 never deactivates; activation rate is roughly p elsewhere.
        let mut full = SeededRandomSsync::new(7, 100);
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
        let mut sched = KFair::new(99, k);
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
        let mut other = KFair::new(100, k);
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
