//! Specialized round kernels over [`PackedChain`] state: the
//! data-oriented fast path of the engine.
//!
//! The boxed engine ([`Sim`](crate::Sim)) pays for its composability —
//! `Box<dyn Strategy>` virtual dispatch and a 16-byte `Offset` hop per
//! robot that the strategy writes and the engine masks, guards and
//! applies. None of that is needed on the *observer-free* path, where
//! nothing inspects intermediate state: a round is then a pure function
//! of the edge codes, and every per-robot geometric predicate collapses
//! to a table lookup over byte edge codes and hop codes.
//!
//! This module provides the machinery shared by all kernels:
//!
//! * hop codes and the edge-update tables ([`HOP_ZERO`],
//!   [`APPLY_EDGE`]): a post-hop edge is `old + hop(right) − hop(left)`,
//!   precomputed for all `4 × 9 × 9` combinations;
//! * [`KernelChain`] — [`PackedChain`] state moved by the edge round of
//!   [`crate::packed`] that the boxed [`ClosedChain`](crate::ClosedChain)
//!   runs on too (the dense apply is its rewrite, the merge its splice),
//!   plus a sparse apply for never-adjacent mover sets and an amortized
//!   O(1) gathering check via bounding-box staleness bounds;
//! * [`ActivationRule`] — the one implementation of every activation
//!   schedule: the kernels call it monomorphically, and the boxed engine
//!   gets it as a [`Scheduler`](crate::Scheduler) through a blanket
//!   impl; plus [`mask_hops`], which consults a rule only for robots that
//!   would move;
//! * [`RoundKernel`] / [`KernelSim`] — the specialized round loop,
//!   replicating [`Sim::step`](crate::Sim::step) /
//!   [`Sim::run`](crate::Sim::run) byte-for-byte: identical
//!   [`RoundSummary`] streams, identical [`Outcome`]s, identical
//!   [`Progress`] accounting, identical [`ChainError`]s on breaks.
//!
//! Strategy-specific kernels (compass-se, naive-local, global-vision)
//! live with their decision rules in the `baselines` crate; the trivial
//! [`StandKernel`] lives here. The boxed engine remains the reference
//! implementation and the only path that supports observers; the
//! differential suite (`tests/kernel_diff.rs`) and the PR 4 golden
//! fingerprints pin the byte-identity.

use grid_geom::{Offset, Point, Rect};

use crate::chain::ChainError;
use crate::engine::{Outcome, RoundSummary, RunLimits, QUIESCENCE_WINDOW};
use crate::packed::{self, edge_offset, PackedChain, EDGE_ZERO};
use crate::rng::SplitMix64;
use crate::trace::Progress;

/// Hop code of the zero hop (stay). Hop codes encode a legal hop
/// `(dx, dy) ∈ {-1, 0, 1}²` as `(dx + 1) · 3 + (dy + 1)`, i.e. `0..9`.
pub const HOP_ZERO: u8 = 4;

/// The offset a hop code denotes.
#[inline]
pub const fn hop_offset(hop: u8) -> Offset {
    Offset::new((hop / 3) as i64 - 1, (hop % 3) as i64 - 1)
}

/// The hop code of a legal hop offset.
///
/// # Panics
/// In debug builds, if `o` is not a legal hop.
#[inline]
pub fn hop_code(o: Offset) -> u8 {
    debug_assert!(o.is_hop());
    ((o.dx + 1) * 3 + (o.dy + 1)) as u8
}

/// [`APPLY_EDGE`] marker: the edge collapsed to zero (the two robots
/// now coincide — a merge candidate). The byte code
/// [`crate::packed::EDGE_ZERO`].
pub const EDGE_COLLAPSED: u8 = crate::packed::EDGE_ZERO;
/// [`APPLY_EDGE`] marker: the edge left chain adjacency (the hops break
/// the chain).
pub const EDGE_BROKEN: u8 = u8::MAX;

/// Edge-update table: `APPLY_EDGE[e][hl][hr]` is the state of an edge
/// with code `e` after its left robot hops `hl` and its right robot
/// hops `hr` (new offset = `edge + hop(hr) − hop(hl)`): a direction
/// code `0..4`, [`EDGE_COLLAPSED`], or [`EDGE_BROKEN`].
pub static APPLY_EDGE: [[[u8; 9]; 9]; 4] = build_apply_edge();

const fn build_apply_edge() -> [[[u8; 9]; 9]; 4] {
    let mut t = [[[0u8; 9]; 9]; 4];
    let mut e = 0;
    while e < 4 {
        let eo = edge_offset(e as u8);
        let mut hl = 0;
        while hl < 9 {
            let lo = hop_offset(hl as u8);
            let mut hr = 0;
            while hr < 9 {
                let ro = hop_offset(hr as u8);
                let dx = eo.dx + ro.dx - lo.dx;
                let dy = eo.dy + ro.dy - lo.dy;
                t[e][hl][hr] = match (dx, dy) {
                    (0, 0) => EDGE_COLLAPSED,
                    (1, 0) => crate::packed::EDGE_E,
                    (0, -1) => crate::packed::EDGE_S,
                    (-1, 0) => crate::packed::EDGE_W,
                    (0, 1) => crate::packed::EDGE_N,
                    _ => EDGE_BROKEN,
                };
                hr += 1;
            }
            hl += 1;
        }
        e += 1;
    }
    t
}

/// The low seven bits of every byte of a word.
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
/// Eight [`HOP_ZERO`] hops in one word.
const ZEROS: u64 = u64::from_ne_bytes([HOP_ZERO; 8]);

/// The high bit of every byte of an 8-hop word that is not
/// [`HOP_ZERO`], all other bits clear (an exact nonzero-byte detector on
/// the word xor [`HOP_ZERO`]s).
#[inline]
fn hop_lanes(word: [u8; 8]) -> u64 {
    let x = u64::from_le_bytes(word) ^ ZEROS;
    (((x & LOW7) + LOW7) | x) & !LOW7
}

/// Count the robots with a nonzero hop, 8 hop bytes per machine word
/// (the engine's `moved` statistic, and the idle-scan predicate).
pub fn count_moved(hops: &[u8]) -> usize {
    let mut moved = 0;
    let mut chunks = hops.chunks_exact(8);
    for c in chunks.by_ref() {
        moved += hop_lanes(c.try_into().expect("8-byte chunk")).count_ones() as usize;
    }
    let tail = chunks.remainder().iter().filter(|&&h| h != HOP_ZERO);
    moved + tail.count()
}

/// Zero the hop of every robot that `rule` leaves asleep in `round`, and
/// return how many robots still move. A robot whose hop is already
/// [`HOP_ZERO`] stays whether or not it is active, so the rule is
/// consulted only for the others, found eight hops per word: the result
/// is the mask-everyone result, at the cost of the movers the cancel
/// fixpoint left.
pub fn mask_hops<A: ActivationRule>(rule: &A, round: u64, hops: &mut [u8]) -> usize {
    if A::ALWAYS_ON {
        return count_moved(hops);
    }
    let turn = rule.turn(round);
    let mut moved = 0;
    for (w, chunk) in hops.chunks_mut(8).enumerate() {
        let base = w * 8;
        if let Ok(word) = <[u8; 8]>::try_from(&*chunk) {
            let mut lanes = hop_lanes(word);
            while lanes != 0 {
                let j = lanes.trailing_zeros() as usize / 8;
                lanes &= lanes - 1;
                let on = rule.active_in(turn, base + j);
                moved += usize::from(on);
                chunk[j] = if on { chunk[j] } else { HOP_ZERO };
            }
            continue;
        }
        for (j, h) in chunk.iter_mut().enumerate() {
            if *h != HOP_ZERO {
                if rule.active_in(turn, base + j) {
                    moved += 1;
                } else {
                    *h = HOP_ZERO;
                }
            }
        }
    }
    moved
}

/// Monomorphic activation schedule. Activation is a pure function of
/// `(rule, round, index)`. Every rule is also a
/// [`Scheduler`](crate::Scheduler) (a blanket impl in
/// [`crate::scheduler`]), which is how the boxed engine runs the same
/// schedules; [`SchedulerKind`](crate::SchedulerKind) builds them.
///
/// A kernel asks about many robots per round, so the part of the
/// decision that depends on the round alone (a periodic rule's residue)
/// is split out as [`ActivationRule::turn`] and computed once per round.
pub trait ActivationRule: Send {
    /// `true` when the rule activates every robot every round; lets
    /// kernels skip per-robot activation tests entirely (FSYNC).
    const ALWAYS_ON: bool = false;

    /// Make the rule ready for a chain of `len` robots. [`KernelSim::new`]
    /// calls it once per chain; merges only shrink the index range after
    /// that, so per-index state built here serves every later round.
    fn prepare(&mut self, _len: usize) {}

    /// The round's share of the decision, passed to
    /// [`ActivationRule::active_in`] for every robot asked about.
    fn turn(&self, round: u64) -> u64 {
        round
    }

    /// Is robot `index` active in a round whose [`turn`] is `turn`? Only
    /// defined for indices below the length the rule was last prepared
    /// for.
    ///
    /// [`turn`]: ActivationRule::turn
    fn active_in(&self, turn: u64, index: usize) -> bool;

    /// Is robot `index` active in `round`?
    #[inline]
    fn active(&self, round: u64, index: usize) -> bool {
        self.active_in(self.turn(round), index)
    }

    /// Inverse duty cycle (see
    /// [`Scheduler::slowdown`](crate::Scheduler::slowdown)).
    fn slowdown(&self) -> u64 {
        1
    }
}

/// FSYNC: everyone, every round.
#[derive(Clone, Copy, Debug, Default)]
pub struct FsyncRule;

impl ActivationRule for FsyncRule {
    const ALWAYS_ON: bool = true;
    #[inline]
    fn active_in(&self, _turn: u64, _index: usize) -> bool {
        true
    }
}

/// Round-robin SSYNC: indices are partitioned into `groups` residue
/// classes (`i % groups`), and class `round % groups` is active each
/// round. `groups = 1` degenerates to FSYNC; `groups = n` activates one
/// robot per round. Each index's class is tabulated once per chain, in
/// [`ActivationRule::prepare`].
#[derive(Clone, Debug)]
pub struct RoundRobinRule {
    groups: u64,
    classes: Vec<u32>,
}

impl RoundRobinRule {
    /// A round-robin rule over `groups` classes (clamped to ≥ 1).
    pub fn new(groups: u32) -> Self {
        RoundRobinRule {
            groups: u64::from(groups.max(1)),
            classes: Vec::new(),
        }
    }
}

impl ActivationRule for RoundRobinRule {
    fn prepare(&mut self, len: usize) {
        let groups = self.groups;
        let known = self.classes.len();
        // groups comes from a u32, so every class fits one.
        self.classes
            .extend((known..len).map(|i| (i as u64 % groups) as u32));
    }
    #[inline]
    fn turn(&self, round: u64) -> u64 {
        round % self.groups
    }
    #[inline]
    fn active_in(&self, turn: u64, index: usize) -> bool {
        u64::from(self.classes[index]) == turn
    }
    fn slowdown(&self) -> u64 {
        // Also the worst activation gap: with more groups than robots,
        // the turns pointing at empty residue classes activate nobody.
        self.groups
    }
}

/// Mix a `(seed, round, index)` triple into one SplitMix64 draw — the
/// stateless core of the randomized rules. Being stateless makes the
/// schedule a pure function of the triple: merges can shrink the chain
/// between rounds without any index-remapping bookkeeping.
#[inline]
fn draw(seed: u64, round: u64, index: usize) -> u64 {
    // Distinct odd multipliers keep (round, index) pairs from colliding
    // in the seed expansion; SplitMix64 then scrambles the state.
    let state = seed
        ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (index as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    SplitMix64::new(state).next_u64()
}

/// Independent-coin SSYNC: each robot is active with probability
/// `percent`/100 per round, independently, from a seeded stream.
#[derive(Clone, Copy, Debug)]
pub struct RandomRule {
    seed: u64,
    percent: u64,
}

impl RandomRule {
    /// Activation probability `percent`% (clamped to 1..=100) from
    /// `seed`.
    pub fn new(seed: u64, percent: u8) -> Self {
        RandomRule {
            seed,
            percent: u64::from(percent.clamp(1, 100)),
        }
    }
}

impl ActivationRule for RandomRule {
    #[inline]
    fn active_in(&self, round: u64, index: usize) -> bool {
        if self.percent >= 100 {
            return true;
        }
        // Lemire reduction of one draw to [0, 100).
        let coin = ((u128::from(draw(self.seed, round, index)) * 100) >> 64) as u64;
        coin < self.percent
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
/// wake in lockstep blocks). Index `i`'s phase is `draw(seed, 0, i) % k`,
/// tabulated once per chain in [`ActivationRule::prepare`].
#[derive(Clone, Debug)]
pub struct KFairRule {
    seed: u64,
    k: u64,
    phases: Vec<u32>,
}

impl KFairRule {
    /// A k-fair adversary with period `k` (clamped to ≥ 1) and a seeded
    /// phase assignment.
    pub fn new(seed: u64, k: u32) -> Self {
        KFairRule {
            seed,
            k: u64::from(k.max(1)),
            phases: Vec::new(),
        }
    }
}

impl ActivationRule for KFairRule {
    fn prepare(&mut self, len: usize) {
        let (seed, k) = (self.seed, self.k);
        // k comes from a u32, so every phase fits one.
        self.phases
            .extend((self.phases.len()..len).map(|i| (draw(seed, 0, i) % k) as u32));
    }
    #[inline]
    fn turn(&self, round: u64) -> u64 {
        round % self.k
    }
    #[inline]
    fn active_in(&self, turn: u64, index: usize) -> bool {
        u64::from(self.phases[index]) == turn
    }
    fn slowdown(&self) -> u64 {
        self.k
    }
}

/// The exact 2×2 gathering flag of a chain, kept with amortized O(1)
/// work per round. Merges never change the occupied point set, and each
/// bounding-box side moves at most one step per moving round, so the
/// exact box is only recomputed once its staleness bound allows the 2×2
/// criterion at all. [`KernelChain`] and the boxed engine share it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GatherCheck {
    bbox: Rect,
    age: u64,
    gathered: bool,
}

impl GatherCheck {
    /// The flag of a chain of `len` robots with bounding box `bbox`.
    pub(crate) fn new(len: usize, bbox: Rect) -> Self {
        GatherCheck {
            bbox,
            age: 0,
            gathered: len == 1 || bbox.is_gathered_2x2(),
        }
    }

    #[inline]
    pub(crate) fn is_gathered(&self) -> bool {
        self.gathered
    }

    /// Re-establish the flag after a round in which `moved` robots hopped
    /// and that left `len` robots; `bounds` computes their exact box.
    pub(crate) fn refresh(&mut self, moved: usize, len: usize, bounds: impl FnOnce() -> Rect) {
        if len == 1 {
            *self = GatherCheck::new(1, bounds());
            return;
        }
        if moved == 0 {
            return;
        }
        self.age += 1;
        let shrink = 2i64.saturating_mul(self.age as i64);
        if self.bbox.width().saturating_sub(shrink) > 2
            || self.bbox.height().saturating_sub(shrink) > 2
        {
            self.gathered = false;
            return;
        }
        *self = GatherCheck::new(len, bounds());
    }
}

/// The [`ChainError::Disconnected`] of a move whose first stretched edge
/// is `j`: the post-move positions of its two robots, from robot `j`'s
/// pre-move position `p`, the edge's pre-move `step` and the two robots'
/// hops. The edge rewrite of [`crate::packed`] reports breaks through it.
#[cold]
pub(crate) fn stretched_edge(j: usize, p: Point, step: Offset, hops: [Offset; 2]) -> ChainError {
    ChainError::Disconnected {
        index: j,
        a: p + hops[0],
        b: p + step + hops[1],
    }
}

/// Packed chain state plus the kernel round machinery: hop application,
/// zero-edge merging, and an amortized-O(1) gathering check
/// (`GatherCheck`).
///
/// Between rounds the chain is taut (the engine invariant). During a
/// round, applying hops turns some edges to [`EDGE_ZERO`];
/// [`KernelChain::merge`] splices them out in the same round, restoring
/// tautness. The apply and the merge are the edge round of
/// [`crate::packed`], the one [`ClosedChain`](crate::ClosedChain) runs
/// on; the kernel chain carries no ids and no merge log, and allocates
/// nothing per round once its buffers have grown.
pub struct KernelChain {
    packed: PackedChain,
    /// The codes a dense apply writes, swapped in when the move is legal.
    next: Vec<u8>,
    /// The last apply collapsed an edge that no merge has spliced out yet.
    collapsed: bool,
    gather: GatherCheck,
}

impl KernelChain {
    /// Wrap packed state; computes the initial bounding box and
    /// gathering flag.
    pub fn new(packed: PackedChain) -> Self {
        let gather = GatherCheck::new(packed.len(), packed.bounding());
        KernelChain {
            packed,
            next: Vec::new(),
            collapsed: false,
            gather,
        }
    }

    /// Robots in the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// `true` when the chain has no robots (never happens through the
    /// public constructors).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// The packed representation.
    #[inline]
    pub fn packed(&self) -> &PackedChain {
        &self.packed
    }

    /// Derived robot positions (robot 0 first).
    pub fn positions(&self) -> Vec<Point> {
        self.packed.positions()
    }

    /// The exact 2×2 gathering predicate, maintained incrementally.
    #[inline]
    pub fn is_gathered(&self) -> bool {
        self.gather.is_gathered()
    }

    /// Apply hops of a sparse mover set whose members are pairwise
    /// non-adjacent along the chain (each edge is then touched by at
    /// most one mover) and whose hops keep both incident edges chain
    /// adjacent — the compass-se guarantee. Collapsed edges are left for
    /// [`KernelChain::merge`].
    ///
    /// Movers must be listed in ascending index order with legal,
    /// nonzero hop codes.
    pub fn apply_sparse(&mut self, movers: &[(usize, u8)]) {
        let codes = &mut self.packed.codes;
        let n = codes.len();
        for &(i, hop) in movers {
            let prev = if i == 0 { n - 1 } else { i - 1 };
            let new_in =
                APPLY_EDGE[usize::from(codes[prev])][usize::from(HOP_ZERO)][usize::from(hop)];
            let new_out =
                APPLY_EDGE[usize::from(codes[i])][usize::from(hop)][usize::from(HOP_ZERO)];
            debug_assert!(new_in != EDGE_BROKEN && new_out != EDGE_BROKEN);
            codes[prev] = new_in;
            codes[i] = new_out;
            self.collapsed |= (new_in | new_out) & EDGE_ZERO != 0;
            if i == 0 {
                self.packed.origin += hop_offset(hop);
            }
        }
    }

    /// Apply a whole-chain hop vector (one hop code per robot): the edge
    /// rewrite of [`crate::packed`]. Collapsed edges are left for
    /// [`KernelChain::merge`]; a hop set that breaks chain adjacency
    /// reports the first failing edge with the same
    /// [`ChainError::Disconnected`] payload as
    /// [`ClosedChain::apply_hops`](crate::ClosedChain::apply_hops), and
    /// leaves the chain state untouched.
    pub fn apply_dense(&mut self, hops: &[u8]) -> Result<(), ChainError> {
        debug_assert_eq!(hops.len(), self.len());
        let done = packed::rewrite(
            &mut self.packed.origin,
            &mut self.packed.codes,
            &mut self.next,
            hops,
        )?;
        self.collapsed = done.collapsed;
        Ok(())
    }

    /// Splice out the robots made coincident by the round's collapsed
    /// edges — the splice of [`crate::packed`], which the boxed
    /// `merge_pass` runs too: the robot whose *incoming* edge collapsed
    /// is removed, survivors keep their original cyclic order. Returns
    /// the number of robots removed.
    pub fn merge(&mut self) -> usize {
        if !std::mem::take(&mut self.collapsed) {
            return 0;
        }
        packed::splice(&mut self.packed.origin, &mut self.packed.codes)
    }

    /// Re-establish the exact gathering flag after a round in which
    /// `moved` robots hopped (see `GatherCheck`).
    pub fn refresh_gathered(&mut self, moved: usize) {
        let packed = &self.packed;
        self.gather
            .refresh(moved, packed.len(), || packed.bounding());
    }
}

/// One specialized round: compute the hops of the active robots and
/// apply them (including queuing collapsed edges), returning how many
/// robots moved. The surrounding [`KernelSim`] handles merging,
/// bookkeeping, and termination.
pub trait RoundKernel {
    /// Execute the strategy's look–compute–move for `round` under the
    /// activation `rule`.
    fn round<A: ActivationRule>(
        &mut self,
        chain: &mut KernelChain,
        rule: &A,
        round: u64,
    ) -> Result<usize, ChainError>;

    /// Mirrors [`Strategy::is_idle`](crate::Strategy::is_idle): `true`
    /// for kernels that never move anyone.
    fn is_idle(&self) -> bool {
        false
    }
}

/// The control kernel: nobody ever moves (mirrors
/// [`Stand`](crate::strategy::Stand), including its idle declaration).
#[derive(Clone, Copy, Debug, Default)]
pub struct StandKernel;

impl RoundKernel for StandKernel {
    fn round<A: ActivationRule>(
        &mut self,
        _chain: &mut KernelChain,
        _rule: &A,
        _round: u64,
    ) -> Result<usize, ChainError> {
        Ok(0)
    }
    fn is_idle(&self) -> bool {
        true
    }
}

/// The specialized engine loop: a monomorphized
/// (`RoundKernel`, `ActivationRule`) pair over [`KernelChain`] state,
/// replicating [`Sim`](crate::Sim) byte-for-byte on the observer-free
/// path — identical [`RoundSummary`] streams, [`Outcome`]s,
/// [`Progress`] accounting, and break errors.
pub struct KernelSim<K: RoundKernel, A: ActivationRule> {
    chain: KernelChain,
    kernel: K,
    rule: A,
    round: u64,
    rounds_since_merge: u64,
    rounds_since_move: u64,
    progress: Progress,
    broken: Option<ChainError>,
    /// Optional sampling phase timer, mirroring
    /// [`Sim::with_phase_timer`](crate::Sim::with_phase_timer). The
    /// kernel fuses compute and apply into one dense pass, so that pass
    /// is attributed to [`obs::Phase::Compute`] and the merge to
    /// [`obs::Phase::Merge`]. Passive: the timer only reads clocks, so
    /// the CI byte-identity gate against the boxed engine holds with or
    /// without it.
    phases: Option<std::sync::Arc<obs::PhaseTimer>>,
}

impl<K: RoundKernel, A: ActivationRule> KernelSim<K, A> {
    /// A fresh simulation at round 0; prepares `rule` for the chain.
    pub fn new(chain: KernelChain, kernel: K, mut rule: A) -> Self {
        rule.prepare(chain.len());
        KernelSim {
            chain,
            kernel,
            rule,
            round: 0,
            rounds_since_merge: 0,
            rounds_since_move: 0,
            progress: Progress::default(),
            broken: None,
            phases: None,
        }
    }

    /// Attach a sampling phase timer (builder style); see the field
    /// docs for the kernel's phase attribution.
    pub fn with_phase_timer(mut self, timer: std::sync::Arc<obs::PhaseTimer>) -> Self {
        self.phases = Some(timer);
        self
    }

    /// Attach (or replace) the sampling phase timer in place.
    pub fn set_phase_timer(&mut self, timer: std::sync::Arc<obs::PhaseTimer>) {
        self.phases = Some(timer);
    }

    /// The chain state.
    pub fn chain(&self) -> &KernelChain {
        &self.chain
    }

    /// Merge/gap accounting, identical to the boxed engine's.
    pub fn progress(&self) -> &Progress {
        &self.progress
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Execute one round; see [`Sim::step`](crate::Sim::step) for the
    /// replicated semantics.
    pub fn step(&mut self) -> Result<RoundSummary, ChainError> {
        if let Some(err) = &self.broken {
            return Err(err.clone());
        }
        let mut clock = self.phases.as_ref().and_then(|t| t.round_clock(self.round));
        let moved = match self.kernel.round(&mut self.chain, &self.rule, self.round) {
            Ok(moved) => moved,
            Err(e) => {
                self.broken = Some(e.clone());
                return Err(e);
            }
        };
        if let Some(c) = clock.as_mut() {
            c.mark(obs::Phase::Compute);
        }
        let removed = self.chain.merge();
        // The boxed engine revalidates the chain here; kernel applies
        // only commit unit-step-or-collapsed edges and the merge removes
        // every collapsed one, so tautness holds by construction.
        self.chain.refresh_gathered(moved);
        if let Some(c) = clock.as_mut() {
            c.mark(obs::Phase::Merge);
        }
        drop(clock);
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
            gathered: self.chain.is_gathered(),
        };
        self.progress.record_round(moved, removed);
        self.round += 1;
        Ok(summary)
    }

    /// Run until gathered or a limit trips, invoking `on_round` with
    /// every round summary; see [`Sim::run`](crate::Sim::run) for the
    /// replicated termination logic.
    pub fn run_with<F: FnMut(&RoundSummary)>(
        &mut self,
        limits: RunLimits,
        mut on_round: F,
    ) -> Outcome {
        loop {
            if self.chain.is_gathered() {
                return Outcome::Gathered { rounds: self.round };
            }
            if self.round >= limits.max_rounds {
                return Outcome::RoundLimit { rounds: self.round };
            }
            let quiescence = QUIESCENCE_WINDOW.saturating_mul(self.rule.slowdown());
            if self.rounds_since_merge >= limits.stall_window
                || self.kernel.is_idle()
                || self.rounds_since_move >= quiescence
            {
                return Outcome::Stalled {
                    rounds: self.round,
                    since_last_merge: self.rounds_since_merge,
                };
            }
            match self.step() {
                Ok(summary) => on_round(&summary),
                Err(error) => {
                    return Outcome::ChainBroken {
                        rounds: self.round,
                        error,
                    }
                }
            }
        }
    }

    /// Run until gathered or a limit trips.
    pub fn run(&mut self, limits: RunLimits) -> Outcome {
        self.run_with(limits, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ClosedChain;
    use crate::scheduler::Scheduler;
    use crate::strategy::Stand;
    use crate::Sim;

    fn ring(w: i64, h: i64) -> ClosedChain {
        let mut pts = Vec::new();
        for x in 0..w {
            pts.push(Point::new(x, 0));
        }
        for y in 1..h {
            pts.push(Point::new(w - 1, y));
        }
        for x in (0..w - 1).rev() {
            pts.push(Point::new(x, h - 1));
        }
        for y in (1..h - 1).rev() {
            pts.push(Point::new(0, y));
        }
        ClosedChain::new(pts).unwrap()
    }

    fn packed(chain: &ClosedChain) -> KernelChain {
        KernelChain::new(PackedChain::from_chain(chain).unwrap())
    }

    #[test]
    fn hop_code_round_trips() {
        for code in 0..9u8 {
            let o = hop_offset(code);
            assert!(o.is_hop());
            assert_eq!(hop_code(o), code);
        }
        assert_eq!(hop_offset(HOP_ZERO), Offset::ZERO);
    }

    #[test]
    fn apply_edge_table_matches_geometry() {
        for e in 0..4u8 {
            for hl in 0..9u8 {
                for hr in 0..9u8 {
                    let d = edge_offset(e) + hop_offset(hr) - hop_offset(hl);
                    let got = APPLY_EDGE[e as usize][hl as usize][hr as usize];
                    match d.manhattan() {
                        0 => assert_eq!(got, EDGE_COLLAPSED),
                        1 => assert_eq!(edge_offset(got), d),
                        _ => assert_eq!(got, EDGE_BROKEN),
                    }
                }
            }
        }
    }

    /// The edge rewrite copies a block of codes verbatim when nine hops
    /// are equal; that is only sound if an equal-hop edge is always
    /// preserved unchanged.
    #[test]
    fn equal_hops_preserve_every_edge() {
        for (e, table) in APPLY_EDGE.iter().enumerate() {
            for (h, row) in table.iter().enumerate() {
                assert_eq!(row[h], e as u8);
            }
        }
    }

    #[test]
    fn count_moved_matches_filter() {
        let mut hops = vec![HOP_ZERO; 133];
        assert_eq!(count_moved(&hops), 0);
        for (i, h) in hops.iter_mut().enumerate() {
            if i % 5 == 0 {
                *h = ((i * 7) % 9) as u8;
            }
        }
        let brute = hops.iter().filter(|&&h| h != HOP_ZERO).count();
        assert_eq!(count_moved(&hops), brute);
    }

    /// On random chains with the dense kernels' post-fixpoint hops,
    /// [`mask_hops`], which asks the rule only about robots with a nonzero
    /// hop, leaves exactly the hops and the mover count of the rule's own
    /// [`Scheduler`] mask applied to everyone — for every rule, at lengths
    /// shrinking below the one it was prepared for, early and late in the
    /// round range.
    #[test]
    fn mask_hops_matches_the_scheduler_mask() {
        use crate::oracle::random_walk;
        use crate::rng::SplitMix64;
        use crate::safety::cancel_breaking_hops;

        const N0: usize = 77;
        const SEED: u64 = 42;
        // Rounds around a 300-round period and at the end of the range.
        const LATE: [u64; 6] = [299, 300, 301, 600, u64::MAX - 1, u64::MAX];

        /// `rule`, prepared for `N0`, through [`mask_hops`] against its
        /// scheduler mask on every vector of `hops` (rounds 0..8 and
        /// `LATE`).
        fn check<A: ActivationRule + Clone>(mut rule: A, hops: &[Vec<u8>]) {
            rule.prepare(N0);
            let mut scheduler = rule.clone();
            let mut moved = 0;
            for (case, hops) in hops.iter().enumerate() {
                for round in (0..8).chain(LATE) {
                    let mut mask = vec![true; hops.len()];
                    Scheduler::activate(&mut scheduler, round, &mut mask);
                    let want: Vec<u8> = hops
                        .iter()
                        .zip(&mask)
                        .map(|(&h, &on)| if on { h } else { HOP_ZERO })
                        .collect();
                    let mut got = hops.clone();
                    let got_moved = mask_hops(&rule, round, &mut got);
                    assert_eq!(got, want, "case {case} round {round}");
                    assert_eq!(got_moved, count_moved(&want), "case {case} round {round}");
                    moved += got_moved;
                }
            }
            assert!(moved > 0, "no movers");
        }

        // Random taut chains of up to N0 robots, each with the cancel
        // fixpoint of random hops, about half of them zero.
        let mut rng = SplitMix64::new(0x5eed);
        let mut hops = Vec::new();
        while hops.len() < 60 {
            // At most 2 · 33 steps plus 8 of an accordion: ≤ N0 robots.
            let m = rng.range_usize(1, 34);
            let walk = random_walk(&mut rng, m);
            let Ok(chain) = ClosedChain::new(walk) else {
                continue;
            };
            let mut h: Vec<u8> = (0..chain.len())
                .map(|_| match rng.range_usize(0, 2) {
                    0 => HOP_ZERO,
                    _ => rng.range_usize(0, 9) as u8,
                })
                .collect();
            cancel_breaking_hops(chain.codes(), &mut h);
            hops.push(h);
        }

        check(FsyncRule, &hops);
        for k in [1, 2, 5, 300] {
            check(RoundRobinRule::new(k), &hops);
            check(KFairRule::new(SEED, k), &hops);
        }
        for p in [1, 37, 50, 100] {
            check(RandomRule::new(SEED, p), &hops);
        }
    }

    /// Dense apply + merge replicate `apply_hops` + `merge_pass` on
    /// handcrafted hop vectors, including wrap-around merges and the
    /// first-failure break report.
    #[test]
    fn dense_apply_and_merge_match_boxed() {
        // A "spike" fold: robots 1 and 3 coincide without being chain
        // neighbors, so the tip robot 2 can drop onto both of them.
        let spike = |pts: Vec<Point>| ClosedChain::new(pts).unwrap();
        let cases: Vec<(ClosedChain, Vec<Offset>)> = vec![
            // Fold one corner diagonally inwards: a plain move, no merge.
            (ring(4, 3), {
                let mut h = vec![Offset::ZERO; ring(4, 3).len()];
                h[3] = Offset::new(-1, 1);
                h
            }),
            // The spike tip drops onto both neighbors: a double merge.
            (
                spike(vec![
                    Point::new(0, 0),
                    Point::new(1, 0),
                    Point::new(1, 1),
                    Point::new(1, 0),
                ]),
                vec![Offset::ZERO, Offset::ZERO, Offset::new(0, -1), Offset::ZERO],
            ),
            // Same fold rotated so robot 0 itself is removed: wrap merge
            // with an origin handoff to the first survivor.
            (
                spike(vec![
                    Point::new(1, 1),
                    Point::new(1, 0),
                    Point::new(0, 0),
                    Point::new(1, 0),
                ]),
                vec![Offset::new(0, -1), Offset::ZERO, Offset::ZERO, Offset::ZERO],
            ),
        ];
        for (chain, hops) in cases {
            let mut kc = packed(&chain);
            let mut boxed = chain.clone();
            let mut splice = crate::chain::SpliceLog::default();
            boxed.apply_hops(&hops).unwrap();
            let removed_boxed = boxed.merge_pass(&mut splice);

            let codes: Vec<u8> = hops.iter().map(|&o| hop_code(o)).collect();
            kc.apply_dense(&codes).unwrap();
            let removed_kernel = kc.merge();

            assert_eq!(removed_kernel, removed_boxed);
            assert_eq!(kc.positions(), boxed.positions());
        }

        // Break: pull two neighbors apart; the error payload matches the
        // boxed first-failure scan.
        let chain = ring(6, 4);
        let mut hops = vec![Offset::ZERO; chain.len()];
        hops[2] = Offset::new(0, 1);
        hops[3] = Offset::new(0, -1);
        let mut boxed = chain.clone();
        let boxed_err = boxed.apply_hops(&hops).unwrap_err();
        let mut kc = packed(&chain);
        let codes: Vec<u8> = hops.iter().map(|&o| hop_code(o)).collect();
        let kernel_err = kc.apply_dense(&codes).unwrap_err();
        assert_eq!(kernel_err, boxed_err);
    }

    /// The kernel chain against the position oracle, on the random rounds
    /// the edge chain is checked on (`oracle_case`) except those with an
    /// illegal hop, which hop codes cannot express. Every round runs as
    /// `apply_dense` + `merge`; a round whose movers are pairwise
    /// non-adjacent and that breaks nothing also runs as `apply_sparse` +
    /// `merge`. Same error (variant, index, points) or same removed count;
    /// then the same positions, origin and gathering flag — on an error,
    /// the chain as it was before the round.
    #[test]
    fn kernel_chain_matches_position_oracle() {
        use crate::chain::SpliceLog;
        use crate::oracle::{oracle_case, OracleCase, ORACLE_CASES, ORACLE_SEED};
        use crate::rng::SplitMix64;

        fn same_state(kc: &KernelChain, oracle: &crate::oracle::PosChain, case: usize) {
            assert_eq!(kc.positions(), oracle.pos, "case {case}");
            assert_eq!(kc.packed().origin(), oracle.pos[0], "case {case}");
            assert_eq!(kc.is_gathered(), oracle.is_gathered(), "case {case}");
        }

        let mut rng = SplitMix64::new(ORACLE_SEED);
        let (mut broken, mut merged, mut plain) = (0, 0, 0);
        let (mut sparse, mut sparse_merged) = (0, 0);
        let (mut wrapped, mut big_groups, mut collapses) = (0, 0, 0);
        for case in 0..ORACLE_CASES {
            let OracleCase {
                chain,
                mut oracle,
                hops,
            } = oracle_case(&mut rng, case);
            if !hops.iter().all(|h| h.is_hop()) {
                continue;
            }
            let codes: Vec<u8> = hops.iter().map(|&h| hop_code(h)).collect();
            let moved = count_moved(&codes);
            let before = oracle.clone();
            let mut log = SpliceLog::default();
            let want = oracle
                .apply_hops(&hops)
                .map(|_| oracle.merge_pass(&mut log));
            let mut dense = packed(&chain);
            let got = dense.apply_dense(&codes).map(|()| {
                let removed = dense.merge();
                dense.refresh_gathered(moved);
                removed
            });
            match (&want, &got) {
                (Err(w), Err(g)) => {
                    assert_eq!(g, w, "case {case}");
                    broken += 1;
                    oracle = before;
                }
                (Ok(w), Ok(g)) => {
                    assert_eq!(g, w, "case {case}");
                    if *w == 0 {
                        plain += 1;
                    } else {
                        merged += 1;
                    }
                    wrapped += usize::from(log.removed_indices().first() == Some(&0));
                    big_groups += log
                        .merges()
                        .events()
                        .iter()
                        .filter(|e| e.removed.len() >= 2)
                        .count();
                    collapses += usize::from(oracle.pos.len() == 1);
                }
                _ => panic!("case {case}: oracle {want:?}, kernel chain {got:?}"),
            }
            same_state(&dense, &oracle, case);

            let n = chain.len();
            let movers: Vec<(usize, u8)> = (0..n)
                .filter(|&i| codes[i] != HOP_ZERO)
                .map(|i| (i, codes[i]))
                .collect();
            let apart = movers.windows(2).all(|w| w[1].0 > w[0].0 + 1)
                && !(movers.len() > 1 && movers[0].0 == 0 && movers[movers.len() - 1].0 == n - 1);
            if let (Ok(removed), true) = (want, apart) {
                let mut kc = packed(&chain);
                kc.apply_sparse(&movers);
                assert_eq!(kc.merge(), removed, "case {case}: sparse");
                kc.refresh_gathered(moved);
                same_state(&kc, &oracle, case);
                sparse += 1;
                sparse_merged += usize::from(removed > 0);
            }
        }
        assert!(broken > 800, "{broken} chain-breaking rounds");
        assert!(merged > 2500, "{merged} merging rounds");
        assert!(plain > 150, "{plain} plain rounds");
        assert!(sparse > 2000, "{sparse} sparse rounds");
        assert!(
            sparse_merged > 2000,
            "{sparse_merged} sparse merging rounds"
        );
        assert!(wrapped > 200, "{wrapped} groups wrapping index 0");
        assert!(big_groups > 500, "{big_groups} groups of three or more");
        assert!(collapses >= 1000, "{collapses} total collapses");
    }

    /// Sparse apply on a non-adjacent mover set matches the dense path.
    #[test]
    fn sparse_apply_matches_dense() {
        let chain = ring(8, 5);
        let n = chain.len();
        // Two far-apart corner robots hop diagonally inwards (legal for
        // their corner geometry); robot 0 also exercises the origin shift.
        let movers = [
            (0usize, hop_code(Offset::new(1, 1))),
            (7usize, hop_code(Offset::new(-1, 1))),
        ];
        let mut sparse = packed(&chain);
        sparse.apply_sparse(&movers);
        let removed_sparse = sparse.merge();

        let mut dense = packed(&chain);
        let mut codes = vec![HOP_ZERO; n];
        for &(i, h) in &movers {
            codes[i] = h;
        }
        dense.apply_dense(&codes).unwrap();
        let removed_dense = dense.merge();

        assert_eq!(removed_sparse, removed_dense);
        assert_eq!(sparse.positions(), dense.positions());
    }

    /// Total collapse: a 2-ring merging to one robot.
    #[test]
    fn total_collapse_keeps_robot_zero() {
        let chain = ClosedChain::new(vec![Point::new(0, 0), Point::new(1, 0)]).unwrap();
        let mut kc = packed(&chain);
        let codes = vec![hop_code(Offset::new(1, 0)), HOP_ZERO];
        kc.apply_dense(&codes).unwrap();
        assert_eq!(kc.merge(), 1);
        assert_eq!(kc.len(), 1);
        kc.refresh_gathered(1);
        assert!(kc.is_gathered());
        assert_eq!(kc.positions(), vec![Point::new(1, 0)]);
    }

    /// The stand kernel replicates the boxed `Stand` run byte-for-byte:
    /// immediate stall with identical outcome and progress.
    #[test]
    fn stand_kernel_matches_boxed_stand() {
        let chain = ring(9, 6);
        let limits = RunLimits::for_chain_len(chain.len());
        let mut boxed = Sim::new(chain.clone(), Stand);
        let out_boxed = boxed.run(limits);
        let mut kernel = KernelSim::new(packed(&chain), StandKernel, FsyncRule);
        let out_kernel = kernel.run(limits);
        assert_eq!(out_boxed, out_kernel);
        assert_eq!(&boxed.progress(), kernel.progress());
    }

    /// The staleness-bounded gathering flag stays exact through a
    /// scripted shrink of a long thin ring.
    #[test]
    fn gathered_flag_stays_exact_under_staleness() {
        let chain = ring(9, 2);
        let mut kc = packed(&chain);
        // March the right wall leftwards one column per round.
        loop {
            let n = kc.len();
            let pos = kc.positions();
            let bbox = Rect::bounding(pos.iter().copied()).unwrap();
            let mut hops = vec![HOP_ZERO; n];
            for (i, p) in pos.iter().enumerate() {
                if p.x == bbox.max.x {
                    hops[i] = hop_code(Offset::new(-1, 0));
                }
            }
            let moved = count_moved(&hops);
            kc.apply_dense(&hops).unwrap();
            kc.merge();
            kc.refresh_gathered(moved);
            let brute = Rect::bounding(kc.positions().iter().copied())
                .unwrap()
                .is_gathered_2x2()
                || kc.len() == 1;
            assert_eq!(kc.is_gathered(), brute);
            if kc.is_gathered() {
                break;
            }
        }
    }
}
