//! Empirical auditors for the paper's Section 5 claims.
//!
//! The paper's evaluation is its correctness/runtime analysis: Theorem 1
//! (gathering in O(n) rounds) resting on Lemma 1 (every L = 13 rounds a
//! merge happens or a new *progress pair* starts), Lemma 2 (progress pairs
//! enable pairwise-distinct merges within ≤ n rounds) and Lemma 3 (run
//! invariants). These auditors observe a running simulation with global
//! knowledge — they are measurement instruments, not part of the robot
//! model — and produce the violation counts and distributions reported in
//! EXPERIMENTS.md (tables T2–T4).

use crate::runs::{PlacedRun, RunMode, StopReason};
use crate::strategy::{ClosedChainGathering, RunEvent};
use chain_sim::observe::{Observer, RoundCtx};
use chain_sim::{ClosedChain, Merges, RobotId};
use grid_geom::Offset;
use std::collections::HashMap;

/// A pair of runs started in the same round at the two endpoints of one
/// subchain, classified per Fig. 12.
#[derive(Clone, Debug)]
pub struct PairRecord {
    pub round: u64,
    pub run_a: u64,
    pub run_b: u64,
    /// Equal fold sides (Fig. 12): the pair can enable a merge.
    pub good: bool,
    /// Good pair started while the chain was mergeless for the whole
    /// preceding L-window — the paper's *progress pair*.
    pub progress: bool,
    /// Round at which one of the pair's runs terminated with
    /// [`StopReason::Merged`], if any.
    pub merged_at: Option<u64>,
}

/// Outcome summary of an audited simulation.
#[derive(Clone, Debug, Default)]
pub struct AuditSummary {
    pub rounds: u64,
    pub initial_n: usize,
    pub final_n: usize,
    pub total_merged_robots: usize,
    pub longest_mergeless_gap: u64,
    pub pairs_started: usize,
    pub good_pairs: usize,
    pub progress_pairs: usize,
    pub progress_pairs_merged: usize,
    /// Max rounds from a progress pair's start to its merge credit.
    pub max_pair_latency: u64,
    /// Lemma 1: L-windows with neither a merge nor a new progress pair.
    pub lemma1_violations: Vec<u64>,
    /// Lemma 3.1: run-speed violations (run failed to move one robot).
    pub speed_violations: u64,
    /// Lemma 3.3: a sequent run visible in front of a live run.
    pub sequent_visibility_violations: u64,
    /// Runs alive at the end (not a violation; reported for context).
    pub live_runs_at_end: usize,
}

impl AuditSummary {
    /// `true` if the audited invariants all held.
    pub fn clean(&self) -> bool {
        self.lemma1_violations.is_empty()
            && self.speed_violations == 0
            && self.sequent_visibility_violations == 0
    }
}

/// Tracks one run's location by robot id between rounds (for Lemma 3.1).
#[derive(Clone, Copy, Debug)]
struct RunTrack {
    robot: RobotId,
    /// Robot id the run must sit on next round (its successor at decision
    /// time), unless the run terminates or the successor merges.
    expected_next: RobotId,
}

/// The auditor — an [`Observer`] over the engine's one run loop.
///
/// Attach it with `Sim::new(chain, strategy).observe(auditor)` (the
/// strategy must have `with_event_recording()` on; the auditor drains the
/// recorded events each round). After the run, extract the finalized
/// summary through `sim.observer_mut::<LemmaAuditor>()` +
/// [`LemmaAuditor::summary`], or drive the hooks manually via
/// [`LemmaAuditor::after_round`] / [`LemmaAuditor::finish`].
pub struct LemmaAuditor {
    l_period: u64,
    /// Scheduler inverse duty cycle: the Lemma 1 window is `L` rounds of
    /// *activity*, which under an SSYNC schedule stretches to `L ×
    /// slowdown` wall-clock rounds. 1 (FSYNC) unless
    /// [`LemmaAuditor::with_slowdown`] / [`LemmaAuditor::for_scheduler`]
    /// say otherwise.
    slowdown: u64,
    view: usize,
    pairs: Vec<PairRecord>,
    pair_of_run: HashMap<u64, usize>,
    tracks: HashMap<u64, RunTrack>,
    /// Rounds in which at least one merge happened (ascending).
    merge_rounds: Vec<u64>,
    /// Runs that saw a sequent run ahead last round (Lemma 3.3 is about
    /// *persistent* visibility: condition 1 must fire on the next
    /// decision, so only two consecutive sightings are a violation).
    saw_sequent: std::collections::HashSet<u64>,
    last_merge_round: Option<u64>,
    summary: AuditSummary,
    rounds_since_merge: u64,
    longest_gap: u64,
}

impl LemmaAuditor {
    pub fn new(strategy: &ClosedChainGathering) -> Self {
        LemmaAuditor {
            l_period: strategy.config().l_period,
            slowdown: 1,
            view: strategy.config().view,
            pairs: Vec::new(),
            pair_of_run: HashMap::new(),
            tracks: HashMap::new(),
            merge_rounds: Vec::new(),
            saw_sequent: std::collections::HashSet::new(),
            last_merge_round: None,
            summary: AuditSummary::default(),
            rounds_since_merge: 0,
            longest_gap: 0,
        }
    }

    /// Scheduler-aware audit windows: stretch the Lemma 1 window by the
    /// scheduler's inverse duty cycle (builder style). Under FSYNC
    /// (`slowdown = 1`) this is the paper's literal `L`-window; under an
    /// SSYNC schedule the lemma's "every `L` rounds" can only be expected
    /// per `L × slowdown` wall-clock rounds.
    pub fn with_slowdown(mut self, slowdown: u64) -> Self {
        self.slowdown = slowdown.max(1);
        self
    }

    /// [`LemmaAuditor::new`] pre-scaled for `scheduler` — the composition
    /// scheduler-aware drivers use.
    pub fn for_scheduler(
        strategy: &ClosedChainGathering,
        scheduler: chain_sim::SchedulerKind,
    ) -> Self {
        Self::new(strategy).with_slowdown(scheduler.slowdown())
    }

    /// The effective Lemma 1 window in wall-clock rounds.
    fn window(&self) -> u64 {
        self.l_period.saturating_mul(self.slowdown)
    }

    pub fn set_initial(&mut self, chain: &ClosedChain) {
        self.summary.initial_n = chain.len();
        // A run can finish without a single round (input already
        // gathered); final_n must not default to 0 in that case.
        self.summary.final_n = chain.len();
    }

    /// Feed one completed round. `chain` is post-round, `merges` are the
    /// round's merge events; the strategy's events are drained here
    /// (requires `with_event_recording()`). The [`Observer`] impl calls
    /// this with the pieces of its [`RoundCtx`].
    pub fn after_round(
        &mut self,
        chain: &ClosedChain,
        strategy: &mut ClosedChainGathering,
        round: u64,
        removed: usize,
        merges: &Merges,
    ) {
        let events = strategy.take_events();

        // --- Gap accounting (Theorem 1 context). ---
        let mergeless_window =
            self.rounds_since_merge >= self.window().saturating_sub(1) && removed == 0;
        if removed > 0 {
            self.last_merge_round = Some(round);
            self.merge_rounds.push(round);
            self.rounds_since_merge = 0;
        } else {
            self.rounds_since_merge += 1;
            self.longest_gap = self.longest_gap.max(self.rounds_since_merge);
        }

        // --- Pair formation from this round's starts. ---
        let starts: Vec<(u64, RobotId, i8, Offset)> = events
            .iter()
            .filter_map(|e| match e {
                RunEvent::Started {
                    run_id,
                    robot,
                    dir,
                    fold_side,
                    ..
                } => Some((*run_id, *robot, *dir, *fold_side)),
                _ => None,
            })
            .collect();
        if !starts.is_empty() {
            self.pair_starts(chain, round, &starts, mergeless_window);
        }

        // --- Merge credit for pairs (Lemma 2). ---
        // A run was "part of a merge operation" (Table 1.3) when it stopped
        // as a merge participant (`Merged`) or because its robot was
        // spliced away by the merge pass (`RobotRemoved` — the usual case:
        // the runner's black lands on the white and is removed).
        for e in &events {
            if let RunEvent::Stopped {
                run_id,
                reason: StopReason::Merged | StopReason::RobotRemoved,
                round: r,
                ..
            } = e
            {
                if let Some(&pi) = self.pair_of_run.get(run_id) {
                    let pair = &mut self.pairs[pi];
                    if pair.merged_at.is_none() {
                        pair.merged_at = Some(*r);
                    }
                }
            }
        }

        // --- Lemma 3.1 (speed) and 3.3 (no sequent run visible ahead). ---
        self.check_run_tracks(chain, strategy, merges);

        // --- Lemma 1 window check at every start round (the window is
        // scheduler-scaled; see `with_slowdown`). ---
        if round > 0 && round.is_multiple_of(self.window()) {
            let merged_in_window = match self.last_merge_round {
                Some(m) => round - m < self.window(),
                None => false,
            };
            let progress_started = self.pairs.iter().any(|p| p.round == round && p.progress);
            if !merged_in_window && !progress_started && chain.len() > 4 {
                self.summary.lemma1_violations.push(round);
            }
        }

        self.summary.rounds = round + 1;
        self.summary.final_n = chain.len();
    }

    fn pair_starts(
        &mut self,
        chain: &ClosedChain,
        round: u64,
        starts: &[(u64, RobotId, i8, Offset)],
        mergeless_window: bool,
    ) {
        // Pair each +1 run with the first fresh −1 run reachable by walking
        // forward along the chain without crossing another fresh +1 start:
        // the two runs then border one subchain (the candidate quasi line).
        let n = chain.len();
        let mut by_index: HashMap<usize, Vec<(u64, i8, Offset)>> = HashMap::new();
        for (run_id, robot, dir, side) in starts {
            if let Some(idx) = chain.index_of(*robot) {
                by_index
                    .entry(idx)
                    .or_default()
                    .push((*run_id, *dir, *side));
            }
        }
        for (run_id, robot, dir, side) in starts {
            if *dir != 1 {
                continue;
            }
            let Some(start_idx) = chain.index_of(*robot) else {
                continue;
            };
            let mut j = 1isize;
            while (j as usize) < n {
                let idx = chain.nb(start_idx, j);
                if let Some(list) = by_index.get(&idx) {
                    if let Some((bid, _, bside)) = list.iter().find(|(_, d, _)| *d == -1).copied() {
                        let good = bside == *side;
                        let progress = good && mergeless_window;
                        let pi = self.pairs.len();
                        self.pairs.push(PairRecord {
                            round,
                            run_a: *run_id,
                            run_b: bid,
                            good,
                            progress,
                            merged_at: None,
                        });
                        self.pair_of_run.insert(*run_id, pi);
                        self.pair_of_run.insert(bid, pi);
                        break;
                    }
                    if list.iter().any(|(_, d, _)| *d == 1) && idx != start_idx {
                        // Another +1 start before any −1: not a pair edge.
                        break;
                    }
                }
                j += 1;
            }
        }
    }

    fn check_run_tracks(
        &mut self,
        chain: &ClosedChain,
        strategy: &ClosedChainGathering,
        merges: &Merges,
    ) {
        // Map: removed robot -> keeper (for excusing merged successors).
        let mut keeper_of: HashMap<RobotId, RobotId> = HashMap::new();
        for ev in merges.events() {
            for &r in merges.removed(ev) {
                keeper_of.insert(r, ev.keeper);
            }
        }
        let mut now: HashMap<u64, RunTrack> = HashMap::new();
        let mut sees_now: Vec<u64> = Vec::new();
        let slots = strategy.run_slots();
        for &PlacedRun { at: i, run } in strategy.runs() {
            let robot = chain.id(i);
            let succ = chain.id(chain.nb(i, run.dir()));
            now.insert(
                run.id,
                RunTrack {
                    robot,
                    expected_next: succ,
                },
            );
            // Lemma 3.3: no sequent run visible in front *on the same
            // quasi line* (same direction, same line orientation,
            // within the line's visible extent) — mirrors the
            // strategy's own scoping of Table 1.1.
            if run.mode == RunMode::Normal {
                let horizon = self.view.min(chain.len().saturating_sub(1));
                let line_extent = crate::quasi::quasi_break_ahead(
                    chain.codes(),
                    i,
                    run.dir(),
                    run.fold_side,
                    horizon as isize,
                )
                .map_or(horizon as isize, |b| b.distance);
                for j in 1..=horizon as isize {
                    let other = slots[chain.nb(i, j * run.dir())];
                    if let Some(side) = other.fold_side(run.dir()) {
                        let same_axis = (side.dx == 0) == (run.fold_side.dx == 0);
                        if same_axis && j <= line_extent {
                            if self.saw_sequent.contains(&run.id) {
                                self.summary.sequent_visibility_violations += 1;
                            } else {
                                sees_now.push(run.id);
                            }
                        }
                        break;
                    }
                }
            }
        }
        self.saw_sequent = sees_now.into_iter().collect();
        // Speed: every surviving run must have advanced to its expected
        // robot (or that robot's keeper).
        for (run_id, track) in &now {
            if let Some(prev) = self.tracks.get(run_id) {
                let expected = prev.expected_next;
                let excused = keeper_of.get(&expected).copied();
                if track.robot != expected && Some(track.robot) != excused {
                    self.summary.speed_violations += 1;
                }
            }
        }
        self.tracks = now;
    }

    /// Finalize the summary.
    pub fn finish(mut self, strategy: &ClosedChainGathering) -> AuditSummary {
        self.finalize(strategy);
        self.summary
    }

    /// The finalized summary (for the observer flow:
    /// [`chain_sim::Sim::run`] fires `on_finish`, which finalizes; then
    /// the caller reads the summary via `sim.observer::<LemmaAuditor>()`).
    /// The auditor keeps its state, so a run resumed with larger limits
    /// re-finalizes correctly. Calling this before the run finished
    /// returns the in-progress summary.
    pub fn summary(&self) -> AuditSummary {
        self.summary.clone()
    }

    fn finalize(&mut self, strategy: &ClosedChainGathering) {
        self.summary.longest_mergeless_gap = self.longest_gap;
        self.summary.pairs_started = self.pairs.len();
        self.summary.good_pairs = self.pairs.iter().filter(|p| p.good).count();
        self.summary.progress_pairs = self.pairs.iter().filter(|p| p.progress).count();
        // Lemma 2 credit: a run of the pair participated in a merge, or —
        // the accounting Theorem 1 actually uses — a merge followed the
        // progress pair's start within n rounds (the pair's reshaping
        // enables it even when its runs terminate at the line ends first).
        for p in &mut self.pairs {
            if p.merged_at.is_none() {
                p.merged_at = self
                    .merge_rounds
                    .iter()
                    .copied()
                    .find(|&m| m > p.round && m - p.round <= self.summary.initial_n as u64);
            }
        }
        self.summary.progress_pairs_merged = self
            .pairs
            .iter()
            .filter(|p| p.progress && p.merged_at.is_some())
            .count();
        self.summary.max_pair_latency = self
            .pairs
            .iter()
            .filter(|p| p.progress)
            .filter_map(|p| p.merged_at.map(|m| m - p.round))
            .max()
            .unwrap_or(0);
        self.summary.total_merged_robots = self.summary.initial_n - self.summary.final_n;
        self.summary.live_runs_at_end = strategy.runs().len();
    }

    /// The pair records collected so far.
    pub fn pairs(&self) -> &[PairRecord] {
        &self.pairs
    }
}

impl Observer<ClosedChainGathering> for LemmaAuditor {
    fn on_init(&mut self, chain: &ClosedChain, _strategy: &ClosedChainGathering) {
        self.set_initial(chain);
    }

    fn on_round(&mut self, ctx: &RoundCtx<'_>, strategy: &mut ClosedChainGathering) {
        self.after_round(
            ctx.chain,
            strategy,
            ctx.summary.round,
            ctx.summary.removed,
            ctx.splice.merges(),
        );
    }

    fn on_finish(
        &mut self,
        _chain: &ClosedChain,
        strategy: &ClosedChainGathering,
        _outcome: &chain_sim::Outcome,
    ) {
        self.finalize(strategy);
    }
}

/// Convenience: run a full audited simulation — the engine's one run loop
/// plus the [`LemmaAuditor`] observer. This is pure composition; the audit
/// owns no loop of its own.
pub fn audited_run(
    chain: ClosedChain,
    cfg: crate::GatherConfig,
    max_rounds: u64,
) -> (chain_sim::Outcome, AuditSummary) {
    let strategy = ClosedChainGathering::new(cfg).with_event_recording();
    let auditor = LemmaAuditor::new(&strategy);
    let mut sim = chain_sim::Sim::new(chain, strategy).observe(auditor);
    let outcome = sim.run(chain_sim::RunLimits {
        max_rounds,
        stall_window: max_rounds,
    });
    let summary = sim
        .observer_mut::<LemmaAuditor>()
        .expect("the auditor was attached above")
        .summary();
    (outcome, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GatherConfig;
    use grid_geom::Point;

    fn rectangle(w: i64, h: i64) -> ClosedChain {
        let mut pts = vec![Point::new(0, 0)];
        pts.extend((1..w).map(|x| Point::new(x, 0)));
        pts.extend((1..h).map(|y| Point::new(w - 1, y)));
        pts.extend((1..w).map(|x| Point::new(w - 1 - x, h - 1)));
        pts.extend((1..h - 1).map(|y| Point::new(0, h - 1 - y)));
        ClosedChain::new(pts).unwrap()
    }

    #[test]
    fn audited_rectangle_is_clean() {
        let chain = rectangle(20, 12);
        let n = chain.len() as u64;
        let (outcome, summary) = audited_run(chain, GatherConfig::paper(), 64 * n + 4096);
        assert!(outcome.is_gathered(), "{outcome:?}");
        assert!(
            summary.clean(),
            "lemma violations: {:?} speed={} sequent={}",
            summary.lemma1_violations,
            summary.speed_violations,
            summary.sequent_visibility_violations
        );
        assert!(summary.pairs_started > 0);
        assert!(summary.good_pairs > 0);
    }

    /// The audit must produce byte-identical summaries to the pre-observer
    /// implementation (values pinned from the dedicated-loop `audited_run`
    /// before it became `Sim` + observer composition).
    #[test]
    fn audit_summary_pinned_on_seeded_workloads() {
        use workloads::Family;
        // (family, n, seed) -> (rounds, initial, final, merged, gap,
        //                       pairs, good, progress, progress_merged, latency)
        type Workload = (Family, usize, u64);
        type Pin = (u64, usize, usize, usize, u64, [usize; 4], u64);
        let pinned: [(Workload, Pin); 3] = [
            (
                (Family::Rectangle, 48, 0),
                (7, 48, 4, 44, 0, [0, 0, 0, 0], 0),
            ),
            (
                (Family::Skyline, 96, 3),
                (17, 94, 2, 92, 0, [1, 0, 0, 0], 0),
            ),
            (
                (Family::StaircaseDiamond, 96, 2),
                (66, 96, 1, 95, 25, [16, 16, 4, 4], 2),
            ),
        ];
        for ((fam, n, seed), (rounds, initial, final_n, merged, gap, pairs, latency)) in pinned {
            let chain = fam.generate(n, seed);
            let len = chain.len() as u64;
            let (outcome, s) = audited_run(chain, GatherConfig::paper(), 64 * len + 4096);
            let tag = format!("{} n={n} seed={seed}", fam.name());
            assert_eq!(outcome, chain_sim::Outcome::Gathered { rounds }, "{tag}");
            assert_eq!(
                (s.rounds, s.initial_n, s.final_n, s.total_merged_robots),
                (rounds, initial, final_n, merged),
                "{tag}"
            );
            assert_eq!(s.longest_mergeless_gap, gap, "{tag}");
            assert_eq!(
                [
                    s.pairs_started,
                    s.good_pairs,
                    s.progress_pairs,
                    s.progress_pairs_merged
                ],
                pairs,
                "{tag}"
            );
            assert_eq!(s.max_pair_latency, latency, "{tag}");
            assert!(s.clean(), "{tag}");
            assert_eq!(s.live_runs_at_end, 0, "{tag}");
        }
    }

    /// A zero-round audited run (input already gathered) reports no
    /// merges, not `initial_n` of them.
    #[test]
    fn zero_round_audited_run_reports_no_merges() {
        let chain = ClosedChain::new(vec![
            grid_geom::Point::new(0, 0),
            grid_geom::Point::new(1, 0),
            grid_geom::Point::new(1, 1),
            grid_geom::Point::new(0, 1),
        ])
        .unwrap();
        let (outcome, summary) = audited_run(chain, GatherConfig::paper(), 100);
        assert_eq!(outcome, chain_sim::Outcome::Gathered { rounds: 0 });
        assert_eq!(summary.initial_n, 4);
        assert_eq!(summary.final_n, 4);
        assert_eq!(summary.total_merged_robots, 0);
        assert!(summary.clean());
    }

    /// The Lemma 1 window is scheduler-aware: a merge cadence that
    /// violates the FSYNC `L`-window sits comfortably inside the
    /// `L × slowdown` window of an SSYNC auditor fed the identical
    /// round stream.
    #[test]
    fn slowdown_scales_the_lemma1_window() {
        let chain = rectangle(6, 4);
        let mut strategy = crate::ClosedChainGathering::paper().with_event_recording();
        let l = GatherConfig::paper().l_period;
        let mut fsync = LemmaAuditor::new(&strategy);
        fsync.set_initial(&chain);
        let mut rr2 =
            LemmaAuditor::for_scheduler(&strategy, chain_sim::SchedulerKind::RoundRobin(2));
        rr2.set_initial(&chain);
        // Merges land every 20 rounds: slower than L = 13 (an FSYNC
        // violation), faster than the rr2 window 2L = 26.
        for round in 0..=(2 * l) {
            let removed = usize::from(round.is_multiple_of(20));
            fsync.after_round(&chain, &mut strategy, round, removed, &Merges::default());
            rr2.after_round(&chain, &mut strategy, round, removed, &Merges::default());
        }
        assert!(
            !fsync.summary().lemma1_violations.is_empty(),
            "a 20-round merge cadence must violate the unscaled L-window"
        );
        assert!(
            rr2.summary().lemma1_violations.is_empty(),
            "the same cadence must satisfy the slowdown-scaled window"
        );
    }

    #[test]
    fn gap_is_bounded_on_rectangles() {
        let chain = rectangle(16, 10);
        let (outcome, summary) = audited_run(chain, GatherConfig::paper(), 1 << 16);
        assert!(outcome.is_gathered());
        // Theorem 1's accounting allows gaps up to ~L·n; empirically the
        // gap stays far below — assert the generous bound.
        let bound = 13 * summary.initial_n as u64 + 13;
        assert!(
            summary.longest_mergeless_gap <= bound,
            "gap {} > {}",
            summary.longest_mergeless_gap,
            bound
        );
    }
}
