//! The complete gathering strategy (Fig. 15 of the paper).
//!
//! Every robot, every round (all from the common FSYNC snapshot):
//!
//! 1. **Merge**: if the robot is a black of a merge pattern it performs the
//!    pattern's hop (diagonal when black in two patterns, Fig. 3b); whites
//!    stand still.
//! 2. **Run operations**: every live run first checks the termination
//!    conditions of Table 1, then either continues run passing, starts run
//!    passing (opposing run within distance 3 on the other fold side),
//!    folds (Fig. 6/11a: behind-neighbor on the fold side and the next
//!    three robots ahead aligned), or walks (Fig. 11b/c). The run state
//!    then moves one robot further in its moving direction (Lemma 3.1).
//! 3. **Start new runs**: every `L`-th round, robots matching the Figure 5
//!    shapes start new runs, which act from the next round.
//!
//! After the simultaneous move the engine's merge pass splices coinciding
//! chain neighbors; runs on spliced robots terminate (Table 1.3).

use crate::config::GatherConfig;
use crate::merge::MergeScan;
use crate::quasi::{self, step_code, StartShape};
use crate::runs::{
    self, Ahead, PlacedRun, Run, RunAction, RunMode, RunSlots, RunStats, StopReason,
};
use crate::signature::{self, WindowKeys};
use chain_sim::chain::{KEEPER, REMOVED};
use chain_sim::packed::{edge_code, edge_offset};
use chain_sim::{ClosedChain, RobotId, SpliceLog, Strategy};
use grid_geom::Offset;

/// Instrumentation events (consumed by the audit module and tests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunEvent {
    Started {
        round: u64,
        run_id: u64,
        robot: RobotId,
        dir: i8,
        fold_side: Offset,
        shape: StartShape,
    },
    Stopped {
        round: u64,
        run_id: u64,
        robot: RobotId,
        reason: StopReason,
    },
    Folded {
        round: u64,
        run_id: u64,
        robot: RobotId,
    },
    PassingStarted {
        round: u64,
        run_id: u64,
        robot: RobotId,
        target: RobotId,
    },
}

/// The paper's algorithm as a [`Strategy`].
pub struct ClosedChainGathering {
    cfg: GatherConfig,
    scan: MergeScan,
    /// Live runs, sorted by `PlacedRun::order_key`: the order in which
    /// they decide, and in which their events are emitted.
    runs: Vec<PlacedRun>,
    /// Per-robot occupancy of `runs` (parallel to the chain): what the
    /// ahead-scans of `decide` read.
    slots: Vec<RunSlots>,
    /// The next round's table and occupancy while `compute` stages it.
    /// Between rounds `staged` is empty and every `staged_slots` entry is
    /// empty, so staging costs O(live runs), not O(n).
    staged: Vec<PlacedRun>,
    staged_slots: Vec<RunSlots>,
    /// Fold hops the runs agreed on this round, by ascending runner index.
    folds: Vec<(usize, Offset)>,
    /// Per-robot local-view signatures of the previous two rounds and the
    /// oscillation-suppression countdown (see `detect_oscillation`).
    sig_prev: Vec<signature::Class>,
    sig_prev2: Vec<signature::Class>,
    suppress: Vec<u16>,
    suppress_flags: Vec<bool>,
    /// On run-start rounds, one bit per robot (64 per word) whose window
    /// matches a Figure 5 shape, set by `detect_oscillation`.
    start_bits: Vec<u64>,
    /// Previous round's inherent pattern sizes, compacted through splices
    /// (drives staggered suppression expiry).
    prev_inherent_k: Vec<u8>,
    /// `post_merge` scratch: the sorted ids of every robot of a merge
    /// group.
    merged_ids: Vec<RobotId>,
    next_run_id: u64,
    stats: RunStats,
    events: Vec<RunEvent>,
    record_events: bool,
}

impl ClosedChainGathering {
    pub fn new(cfg: GatherConfig) -> Self {
        cfg.validate().expect("invalid gathering configuration");
        ClosedChainGathering {
            cfg,
            scan: MergeScan::default(),
            runs: Vec::new(),
            slots: Vec::new(),
            staged: Vec::new(),
            staged_slots: Vec::new(),
            folds: Vec::new(),
            sig_prev: Vec::new(),
            sig_prev2: Vec::new(),
            suppress: Vec::new(),
            suppress_flags: Vec::new(),
            start_bits: Vec::new(),
            prev_inherent_k: Vec::new(),
            merged_ids: Vec::new(),
            next_run_id: 0,
            stats: RunStats::default(),
            events: Vec::new(),
            record_events: false,
        }
    }

    /// Paper constants.
    pub fn paper() -> Self {
        Self::new(GatherConfig::paper())
    }

    /// Record instrumentation events (drained by auditors).
    pub fn with_event_recording(mut self) -> Self {
        self.record_events = true;
        self
    }

    pub fn config(&self) -> &GatherConfig {
        &self.cfg
    }

    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Live runs, sorted by chain index (forward run first) — for
    /// auditors/tests.
    pub fn runs(&self) -> &[PlacedRun] {
        &self.runs
    }

    /// Per-robot run occupancy (parallel to chain indices) — for the
    /// auditor.
    pub(crate) fn run_slots(&self) -> &[RunSlots] {
        &self.slots
    }

    /// Drain recorded events.
    pub fn take_events(&mut self) -> Vec<RunEvent> {
        std::mem::take(&mut self.events)
    }

    fn emit(&mut self, ev: RunEvent) {
        if self.record_events {
            self.events.push(ev);
        }
    }

    /// Update signature histories and the suppression countdowns; fill
    /// `suppress_flags` for this round's merge scan. Signatures
    /// (`signature::local_signature`) are read from the chain's edge
    /// codes: each robot's window key ([`WindowKeys`]) indexes the class
    /// table (`signature::window_class`).
    ///
    /// A robot that sees its local view alternate with period 2
    /// (`s_t == s_{t-2} ≠ s_{t-1}`) suppresses its merge participation:
    /// the oscillating region becomes mergeless, so Lemma 1's machinery
    /// (runs start on mergeless chains every L rounds) can act. The
    /// trigger also fires on healthy runs, where a view can repeat two
    /// rounds apart without a livelock: it costs rounds there, and some
    /// inputs stall without it (DESIGN.md §2.3).
    ///
    /// Expiry is **staggered by inherent pattern size**: a robot black in a
    /// detected pattern of length `k` suppresses for `2L + 2 − min(k, L)`
    /// rounds. Larger patterns resume first and fire onto still-suppressed
    /// (standing) whites, which breaks the symmetric ties that uniform
    /// suppression cannot (e.g. a k=3 segment whose whites are k=1 blacks).
    ///
    /// With `STARTS`, the same sweep fills `start_bits` from the window
    /// keys it slides: the robots whose window matches a Figure 5 shape.
    fn detect_oscillation<const STARTS: bool>(&mut self, chain: &ClosedChain) {
        let n = chain.len();
        debug_assert_eq!(self.sig_prev.len(), n);
        // Every flag is written below.
        self.suppress_flags.resize(n, false);
        self.start_bits.clear();
        if STARTS {
            self.start_bits.resize(n.div_ceil(64), 0);
        }
        let base = 2 * self.cfg.l_period + 2;
        // Inherent pattern sizes from the previous round's scan, compacted
        // through splices in post_merge so indices stay aligned.
        let prev_k = &self.prev_inherent_k;
        let (sig_prev, sig_prev2) = (&mut self.sig_prev[..n], &mut self.sig_prev2[..n]);
        let (suppress, flags) = (&mut self.suppress[..n], &mut self.suppress_flags[..n]);
        let mut keys = WindowKeys::new(chain.codes());
        for i in 0..n {
            // A one-robot chain has no edges, hence no windows.
            let key = keys.next();
            let sig = key.map_or(signature::COLLAPSED, signature::window_class);
            if STARTS {
                let key = key.expect("start rounds have eight or more robots");
                self.start_bits[i / 64] |= u64::from(quasi::starts_any(key)) << (i % 64);
            }
            suppress[i] = suppress[i].saturating_sub(1);
            if sig == sig_prev2[i] && sig != sig_prev[i] {
                let k = prev_k.get(i).copied().unwrap_or(0) as u64;
                suppress[i] = (base - k.min(self.cfg.l_period)) as u16;
                self.stats.suppressions += 1;
            }
            flags[i] = suppress[i] > 0;
            // The oldest view gives way to the newest; the swap below
            // makes it the previous round's.
            sig_prev2[i] = sig;
        }
        std::mem::swap(&mut self.sig_prev, &mut self.sig_prev2);
    }

    fn stop_run(&mut self, round: u64, run: &Run, robot: RobotId, reason: StopReason) {
        self.stats.record_stop(reason);
        self.emit(RunEvent::Stopped {
            round,
            run_id: run.id,
            robot,
            reason,
        });
    }

    /// Decide what one run does this round (pure w.r.t. `self` except for
    /// statistics/events, which are recorded by the caller).
    fn decide(&self, chain: &ClosedChain, i: usize, run: &Run) -> RunAction {
        let (n, codes) = (chain.len(), chain.codes());
        let d = run.dir();
        let horizon = self.cfg.view.min(n.saturating_sub(1));

        // --- Extent of the quasi line ahead (used by conditions 1 and 2):
        // a run only reasons about runs and endpoints *on its own line*.
        let brk = quasi::quasi_break_ahead(codes, i, d, run.fold_side, horizon as isize);
        let line_extent: isize = brk.map_or(horizon as isize, |b| b.distance);

        // --- Scan ahead: sequent runs (Table 1.1) and opposing runs. ---
        // "The next sequent run in front of it" is a same-direction run on
        // the same quasi line: same fold-side axis, not beyond the line's
        // visible end. (A run beyond a corner belongs to another line;
        // killing for it would mass-extinguish runs on square rings.)
        let opposing =
            match runs::look_ahead(&self.slots, i, d, run.fold_side, horizon, line_extent) {
                Ahead::Sequent => return RunAction::Die(StopReason::SequentAhead),
                Ahead::Clear(opposing) => opposing,
            };

        // --- Endpoint of the quasi line ahead (Table 1.2). ---
        if let Some(b) = brk {
            let suppressed =
                self.cfg.cond2_guard && matches!(opposing, Some((j, _)) if j <= b.distance);
            if !suppressed {
                return RunAction::Die(StopReason::EndpointAhead);
            }
        }

        let mut next = *run;

        // --- Run passing (Fig. 8 / Fig. 14). ---
        if let RunMode::Passing { target } = next.mode {
            if chain.id(i) == target {
                // Arrived at the target corner: return to normal operation.
                next.mode = RunMode::Normal;
            } else {
                // The target is still on the chain: `post_merge` stops every
                // passing run whose target was merged, keeper or removed
                // robot alike (Table 1.4/5), in the round of the merge.
                debug_assert!(chain.index_of(target).is_some(), "passing target gone");
                return RunAction::Advance { fold: None, next };
            }
        }

        if let Some((j, other_side)) = opposing {
            if j <= 3 && other_side != next.fold_side {
                // Non-good pair approaching: pass each other without
                // reshaping, targeting the robot the opposing run sits on.
                let target = chain.id(chain.nb(i, j * d));
                next.mode = RunMode::Passing { target };
                return RunAction::Advance { fold: None, next };
            }
        }

        // --- Reshapement (Fig. 6 / Fig. 11a), on the steps around the
        // runner: `behind` towards robot i − d, `f1` towards i + d. ---
        let may_fold = !self.scan.participates(i) && next.walk_budget == 0;
        if may_fold {
            let behind = step_code(codes, i, 0, -d);
            if Some(behind) == edge_code(next.fold_side) {
                let f1 = step_code(codes, i, 0, d);
                if (f1 ^ behind) & 1 == 1
                    && step_code(codes, i, 1, d) == f1
                    && step_code(codes, i, 2, d) == f1
                {
                    if next.op_c_pending {
                        // Op c (Fig. 11c): one diagonal hop, then walk.
                        next.op_c_pending = false;
                        next.walk_budget = 3;
                    }
                    return RunAction::Advance {
                        fold: Some(edge_offset(f1) + edge_offset(behind)),
                        next,
                    };
                }
            }
        }
        if next.walk_budget > 0 {
            next.walk_budget -= 1;
        }
        RunAction::Advance { fold: None, next }
    }

    /// Stage `run` on robot `at` for the next round; `false` if a run
    /// moving the same way is already staged there.
    fn stage(&mut self, at: usize, run: Run) -> bool {
        let slots = &mut self.staged_slots[at];
        if slots.fold_side(run.dir()).is_some() {
            return false;
        }
        slots.set(run.dir(), run.fold_side);
        self.staged.push(PlacedRun { at, run });
        true
    }

    /// Evaluate run starts (Fig. 5) at robot `i`, whose window key is
    /// `key`; stages fresh runs.
    fn try_starts(&mut self, chain: &ClosedChain, round: u64, i: usize, key: usize) {
        for d in [1isize, -1] {
            if let Some((shape, fold_side)) = quasi::window_run_start(key, d) {
                let run = Run {
                    id: self.next_run_id,
                    dir: d as i8,
                    fold_side,
                    born: round,
                    shape,
                    mode: RunMode::Normal,
                    walk_budget: 0,
                    op_c_pending: self.cfg.op_c_walk && shape == StartShape::CornerEnd,
                };
                if !self.stage(i, run) {
                    // Occupied (arriving run): skip the start.
                    continue;
                }
                self.next_run_id += 1;
                match shape {
                    StartShape::StairwayEnd => self.stats.started_stairway += 1,
                    StartShape::CornerEnd => self.stats.started_corner += 1,
                }
                self.emit(RunEvent::Started {
                    round,
                    run_id: run.id,
                    robot: chain.id(i),
                    dir: run.dir,
                    fold_side,
                    shape,
                });
            }
        }
    }
}

impl Strategy for ClosedChainGathering {
    fn name(&self) -> &'static str {
        "closed-chain-gathering"
    }

    fn init(&mut self, chain: &ClosedChain) {
        let n = chain.len();
        // Capacity for the largest state a round can need — two runs per
        // robot, a fold per robot, every robot merged — so that no later
        // round allocates (the chain only shrinks).
        self.runs.clear();
        self.runs.reserve(2 * n);
        self.staged.clear();
        self.staged.reserve(2 * n);
        self.slots.clear();
        self.slots.resize(n, RunSlots::EMPTY);
        self.staged_slots.clear();
        self.staged_slots.resize(n, RunSlots::EMPTY);
        self.folds.clear();
        self.folds.reserve(n);
        self.merged_ids.clear();
        self.merged_ids.reserve(n);
        let [none, none2] = signature::NO_VIEW;
        self.sig_prev.clear();
        self.sig_prev.resize(n, none);
        self.sig_prev2.clear();
        self.sig_prev2.resize(n, none2);
        self.suppress.clear();
        self.suppress.resize(n, 0);
        self.suppress_flags.clear();
        self.suppress_flags.resize(n, false);
        self.start_bits.clear();
        self.start_bits.reserve(n.div_ceil(64));
        self.prev_inherent_k.clear();
        self.prev_inherent_k.resize(n, 0);
    }

    fn compute(&mut self, chain: &ClosedChain, round: u64, hops: &mut [Offset]) {
        let n = chain.len();
        debug_assert_eq!(self.slots.len(), n, "run slots out of sync");

        // Step 0: oscillation detection (constant-memory symmetry breaker
        // for closed interference cycles of merge patterns), which on
        // run-start rounds also marks the robots whose window matches a
        // Figure 5 shape. Steps 0 and 1 read the chain's edge codes.
        let start_round = round.is_multiple_of(self.cfg.l_period) && n >= 8;
        if start_round {
            self.detect_oscillation::<true>(chain);
        } else {
            self.detect_oscillation::<false>(chain);
        }

        // Step 1: merge patterns (suppressed robots' patterns do not fire).
        self.scan
            .scan_codes(n, chain.codes(), &self.cfg, &self.suppress_flags);

        // Step 2: run operations. Decide all runs from the same snapshot
        // (`slots` is not touched until the round is staged); stage
        // arrivals.
        debug_assert!(self.staged.is_empty());
        self.folds.clear();
        let runs = std::mem::take(&mut self.runs);
        for &PlacedRun { at: i, run } in &runs {
            if run.born >= round {
                // Born this round boundary: acts from the next round, and
                // takes its slot over from any arrival.
                if !self.stage(i, run) {
                    let held = self
                        .staged
                        .iter_mut()
                        .find(|p| p.at == i && p.run.dir == run.dir)
                        .expect("an occupied slot has a staged run");
                    held.run = run;
                    self.staged_slots[i].clear(run.dir());
                    self.staged_slots[i].set(run.dir(), run.fold_side);
                }
                continue;
            }
            match self.decide(chain, i, &run) {
                RunAction::Die(reason) => {
                    self.stop_run(round, &run, chain.id(i), reason);
                }
                RunAction::Advance { fold, next } => {
                    if next.mode != run.mode {
                        if let RunMode::Passing { target } = next.mode {
                            self.stats.passings_started += 1;
                            self.emit(RunEvent::PassingStarted {
                                round,
                                run_id: run.id,
                                robot: chain.id(i),
                                target,
                            });
                        }
                    }
                    if let Some(h) = fold {
                        // A robot's runs decide consecutively, so an earlier
                        // fold on this robot is the last one recorded.
                        match self.folds.last() {
                            Some(&(j, existing)) if j == i => {
                                if existing != h {
                                    // Two runs demanding different folds on
                                    // one robot: both walk (safety).
                                    self.folds.pop();
                                }
                            }
                            _ => {
                                self.folds.push((i, h));
                                self.stats.folds += 1;
                                self.emit(RunEvent::Folded {
                                    round,
                                    run_id: run.id,
                                    robot: chain.id(i),
                                });
                            }
                        }
                    } else {
                        self.stats.walks += 1;
                    }
                    // Move the run state one robot further (Lemma 3.1).
                    let dest = chain.nb(i, next.dir());
                    if !self.stage(dest, next) {
                        // Arrival collision (only possible against a
                        // just-started run; see runs.rs).
                        self.stop_run(round, &next, chain.id(dest), StopReason::SlotCollision);
                    }
                }
            }
        }

        // Resolve hops: merge hop (blacks) > run fold > stand. Whites of
        // fired patterns stand still (their runs walked); `hops` arrives
        // zeroed, and only the blacks take the scan's hop.
        for p in self.scan.patterns() {
            let mut b = p.first_black;
            for _ in 0..p.k {
                hops[b] = self.scan.merge_hop(b);
                b = if b + 1 == n { 0 } else { b + 1 };
            }
        }
        for &(i, h) in &self.folds {
            if !self.scan.participates(i) {
                hops[i] = h;
            }
        }

        // Step 3: start new runs every L-th round, from the same snapshot,
        // at the standing robots step 0 marked, in ascending order. The
        // started runs are staged and act from round + 1.
        if start_round {
            for w in 0..self.start_bits.len() {
                let mut bits = self.start_bits[w];
                while bits != 0 {
                    let i = 64 * w + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if hops[i] == Offset::ZERO && !self.scan.participates(i) {
                        let key = signature::window_key(chain.codes(), i);
                        self.try_starts(chain, round, i, key);
                    }
                }
            }
        }

        // The staged table becomes the round's state: empty the old
        // occupancy run by run, then swap tables and occupancies.
        for p in &runs {
            self.slots[p.at] = RunSlots::EMPTY;
        }
        std::mem::swap(&mut self.slots, &mut self.staged_slots);
        self.runs = std::mem::replace(&mut self.staged, runs);
        self.staged.clear();
        self.runs.sort_unstable_by_key(PlacedRun::order_key);
        self.prev_inherent_k.clear();
        self.prev_inherent_k
            .extend_from_slice(self.scan.inherent_k());
        self.stats.max_live_runs = self.stats.max_live_runs.max(self.runs.len() as u64);
    }

    fn post_merge(&mut self, chain: &ClosedChain, round: u64, log: &SpliceLog) {
        if log.is_empty() {
            debug_assert_eq!(self.slots.len(), chain.len());
            return;
        }
        // The log's fates by pre-splice index.
        let old_n = self.slots.len();
        let removed = log.removed_indices();
        let fates = &log.fates()[..old_n];

        // Terminate runs on removed robots and on keepers (Table 1.3) and
        // move the others to their post-splice indices. Table and removed
        // indices are both ascending, so one merged sweep remaps them.
        let mut runs = std::mem::take(&mut self.runs);
        let mut shift = 0; // removed indices below the run's robot
        let mut kept = 0;
        for r in 0..runs.len() {
            let PlacedRun { at, run } = runs[r];
            while shift < removed.len() && removed[shift] < at {
                shift += 1;
            }
            if removed.get(shift) == Some(&at) {
                self.stats.record_stop(StopReason::RobotRemoved);
                self.emit(RunEvent::Stopped {
                    round,
                    run_id: run.id,
                    robot: RobotId(u64::MAX),
                    reason: StopReason::RobotRemoved,
                });
            } else if fates[at] == KEEPER {
                self.stop_run(round, &run, chain.id(at - shift), StopReason::Merged);
            } else {
                runs[kept] = PlacedRun {
                    at: at - shift,
                    run,
                };
                kept += 1;
            }
        }
        runs.truncate(kept);

        // Compact the per-robot state as the chain was compacted. Keepers'
        // runs are gone, and their signature histories and suppression
        // reset (their neighborhood was rewritten by the merge, and which
        // group member survives is an arbitrary labeling that must not
        // influence the dynamics); others carry their state over. Nothing
        // before the first keeper or removed robot moves; every robot from
        // there on is copied down without a branch, and the write index
        // advances past survivors only.
        let first = log.first_touched().expect("something merged");
        let mut write = first;
        let [none, none2] = signature::NO_VIEW;
        let slots = &mut self.slots[..old_n];
        let sig_prev = &mut self.sig_prev[..old_n];
        let sig_prev2 = &mut self.sig_prev2[..old_n];
        let suppress = &mut self.suppress[..old_n];
        let inherent_k = &mut self.prev_inherent_k[..old_n];
        for read in first..old_n {
            let fate = fates[read];
            let keeper = fate == KEEPER;
            slots[write] = if keeper { RunSlots::EMPTY } else { slots[read] };
            sig_prev[write] = if keeper { none } else { sig_prev[read] };
            sig_prev2[write] = if keeper { none2 } else { sig_prev2[read] };
            suppress[write] = if keeper { 0 } else { suppress[read] };
            inherent_k[write] = if keeper { 0 } else { inherent_k[read] };
            write += usize::from(fate != REMOVED);
        }
        self.slots.truncate(write);
        self.sig_prev.truncate(write);
        self.sig_prev2.truncate(write);
        self.suppress.truncate(write);
        self.prev_inherent_k.truncate(write);
        self.staged_slots.truncate(write);
        debug_assert_eq!(self.slots.len(), chain.len());

        // Table 1.4/5: a passing run terminates when its target corner was
        // "removed because of a merge operation". Both members of a spliced
        // coincidence group count as removed — which one keeps its id is an
        // arbitrary labeling the robots cannot observe.
        if !runs
            .iter()
            .any(|p| matches!(p.run.mode, RunMode::Passing { .. }))
        {
            self.runs = runs;
            return;
        }
        let merges = log.merges();
        self.merged_ids.clear();
        self.merged_ids
            .extend(merges.events().iter().map(|ev| ev.keeper));
        self.merged_ids.extend_from_slice(merges.removed_ids());
        self.merged_ids.sort_unstable();
        let mut kept = 0;
        for r in 0..runs.len() {
            let PlacedRun { at, run } = runs[r];
            if let RunMode::Passing { target } = run.mode {
                if self.merged_ids.binary_search(&target).is_ok() {
                    self.stop_run(round, &run, chain.id(at), StopReason::TargetRemoved);
                    self.slots[at].clear(run.dir());
                    continue;
                }
            }
            runs[kept] = runs[r];
            kept += 1;
        }
        runs.truncate(kept);
        self.runs = runs;
    }

    fn marker(&self, index: usize) -> Option<char> {
        let slots = self.slots.get(index)?;
        match (slots.fold_side(1).is_some(), slots.fold_side(-1).is_some()) {
            (true, true) => Some('X'),
            (true, false) => Some('>'),
            (false, true) => Some('<'),
            (false, false) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_sim::{Outcome, Sim};
    use grid_geom::Point;

    fn chain(coords: &[(i64, i64)]) -> ClosedChain {
        ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    fn rectangle(w: i64, h: i64) -> ClosedChain {
        let mut pts = vec![Point::new(0, 0)];
        pts.extend((1..w).map(|x| Point::new(x, 0)));
        pts.extend((1..h).map(|y| Point::new(w - 1, y)));
        pts.extend((1..w).map(|x| Point::new(w - 1 - x, h - 1)));
        pts.extend((1..h - 1).map(|y| Point::new(0, h - 1 - y)));
        ClosedChain::new(pts).unwrap()
    }

    #[test]
    fn fig1_gathers_in_one_round() {
        let c = chain(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]);
        let mut sim = Sim::new(c, ClosedChainGathering::paper());
        let outcome = sim.run_default();
        assert_eq!(outcome, Outcome::Gathered { rounds: 1 });
    }

    #[test]
    fn small_rectangles_gather() {
        for (w, h) in [(3, 2), (4, 2), (5, 3), (6, 4), (8, 2), (9, 5)] {
            let c = rectangle(w, h);
            let n = c.len();
            let mut sim = Sim::new(c, ClosedChainGathering::paper());
            let outcome = sim.run_default();
            assert!(
                outcome.is_gathered(),
                "rectangle {w}x{h} (n={n}): {outcome:?}"
            );
        }
    }

    #[test]
    fn large_rectangle_gathers_linearly() {
        let c = rectangle(24, 16);
        let n = c.len() as u64;
        let mut sim = Sim::new(c, ClosedChainGathering::paper());
        let outcome = sim.run_default();
        match outcome {
            Outcome::Gathered { rounds } => {
                assert!(
                    rounds <= 27 * n + 100,
                    "rounds {rounds} exceed the 2Ln+n bound for n={n}"
                );
            }
            other => panic!("did not gather: {other:?}"),
        }
    }

    #[test]
    fn flattened_loop_zips_up() {
        // Degenerate zero-area loop: out and back along a line.
        let c = chain(&[
            (0, 0),
            (1, 0),
            (2, 0),
            (3, 0),
            (4, 0),
            (3, 0),
            (2, 0),
            (1, 0),
        ]);
        let mut sim = Sim::new(c, ClosedChainGathering::paper());
        let outcome = sim.run_default();
        assert!(outcome.is_gathered(), "{outcome:?}");
    }

    #[test]
    fn runs_started_on_big_rectangle() {
        // On a 20×12 rectangle no merge is initially possible (runs of
        // k = 19/11 > 10): progress must come from runs.
        let c = rectangle(20, 12);
        let mut sim = Sim::new(c, ClosedChainGathering::paper().with_event_recording());
        for _ in 0..3 {
            sim.step().unwrap();
        }
        let strat = sim.strategy_mut();
        let events = strat.take_events();
        let starts = events
            .iter()
            .filter(|e| matches!(e, RunEvent::Started { .. }))
            .count();
        // Four Fig. 5(ii) corners, two runs each.
        assert_eq!(starts, 8, "events: {events:?}");
        assert_eq!(strat.stats().started_corner, 8);
        let outcome = sim.run_default();
        assert!(outcome.is_gathered(), "{outcome:?}");
    }

    #[test]
    fn gathering_is_translation_invariant() {
        let a = rectangle(9, 7);
        let mut b = rectangle(9, 7);
        b.translate(Offset::new(1000, -500));
        let mut sa = Sim::new(a, ClosedChainGathering::paper());
        let mut sb = Sim::new(b, ClosedChainGathering::paper());
        let ra = sa.run_default();
        let rb = sb.run_default();
        assert!(ra.is_gathered() && rb.is_gathered());
        assert_eq!(ra.rounds(), rb.rounds());
    }
}
