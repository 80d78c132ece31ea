//! Round reports, traces, and the always-on progress aggregates.
//!
//! The experiment harness regenerates the paper's tables from aggregated
//! round statistics; examples replay [`Trace`]s as ASCII animations.
//!
//! Two layers with different costs:
//!
//! * [`Progress`] — incremental aggregates (merge totals, mergeless gaps).
//!   A handful of counters folded in-place; the engine maintains one for
//!   every run, with no per-round allocation. This is all the headless
//!   benchmark sweeps ever need.
//! * [`Trace`] — full retention: per-round [`RoundReport`]s and position
//!   snapshots. Produced by the [`Recorder`](crate::observe::Recorder)
//!   observer, never by the engine itself — attach the observer when you
//!   want a trace, and the observer-free engine stays on the zero-retention
//!   hot path.

use crate::chain::Merges;
use grid_geom::{Point, Rect};

/// What happened in one FSYNC round (full record, retained by the
/// [`Recorder`](crate::observe::Recorder) observer when
/// [`TraceConfig::keep_reports`] is set).
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: u64,
    /// Number of robots that performed a nonzero hop.
    pub moved: usize,
    /// Robots removed by the merge pass this round.
    pub removed: usize,
    /// Merge events of the round, with their removed ids: the one copy a
    /// recording run makes of the engine's merge log.
    pub merges: Merges,
    /// Chain length after the round.
    pub len_after: usize,
    /// Bounding box after the round.
    pub bbox: Rect,
    /// `true` if the gathering criterion holds after the round.
    pub gathered: bool,
}

impl RoundReport {
    /// `true` if the round made merge progress (the paper's progress
    /// measure is the shortening of the chain).
    pub fn made_progress(&self) -> bool {
        self.removed > 0
    }
}

/// Recording options for the [`Recorder`](crate::observe::Recorder)
/// observer.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Keep full position snapshots every `snapshot_every` rounds
    /// (0 = never).
    pub snapshot_every: u64,
    /// Hard cap on stored snapshots.
    pub max_snapshots: usize,
    /// Retain a full [`RoundReport`] (including its merge-event list) per
    /// round. Turn this off for snapshot-only recording (e.g. animation
    /// replays that never read per-round merge detail).
    pub keep_reports: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            snapshot_every: 0,
            max_snapshots: 512,
            keep_reports: true,
        }
    }
}

/// Incrementally-maintained aggregate statistics of a run: a handful of
/// counters, folded in-place every round. The engine keeps one per
/// simulation ([`Sim::progress`](crate::Sim::progress)) — always on,
/// allocation-free — so headless sweeps answer the harness's questions
/// (total merges, longest mergeless gap) without retaining anything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    rounds: u64,
    total_removed: usize,
    rounds_with_merges: usize,
    longest_gap: u64,
    current_gap: u64,
    makespan: u64,
}

impl Progress {
    /// Fold one round's activity into the aggregates: how many robots
    /// performed a nonzero hop and how many the merge pass removed.
    pub fn record_round(&mut self, moved: usize, removed: usize) {
        self.rounds += 1;
        if moved > 0 || removed > 0 {
            self.makespan = self.rounds;
        }
        if removed > 0 {
            self.total_removed += removed;
            self.rounds_with_merges += 1;
            self.longest_gap = self.longest_gap.max(self.current_gap);
            self.current_gap = 0;
        } else {
            self.current_gap += 1;
        }
    }

    /// Number of rounds folded in.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total robots removed over the run.
    pub fn total_removed(&self) -> usize {
        self.total_removed
    }

    /// Number of rounds in which at least one merge happened.
    pub fn rounds_with_merges(&self) -> usize {
        self.rounds_with_merges
    }

    /// Longest gap (in rounds) between two successive merge rounds
    /// (including the leading gap before the first merge and the trailing
    /// gap after the last). The Lemma 1 / Theorem 1 audits bound this gap.
    pub fn longest_mergeless_gap(&self) -> u64 {
        self.longest_gap.max(self.current_gap)
    }

    /// Makespan: the number of rounds up to and including the last round
    /// with any activity (a move or a merge) — the min-max time objective
    /// of arXiv 2410.11966. Trailing all-idle rounds (a stalled run
    /// burning its window, a round-limited idle tail) don't count; 0 if
    /// nothing ever happened.
    pub fn makespan(&self) -> u64 {
        self.makespan
    }
}

/// A recorded simulation trace: retained reports and snapshots plus the
/// same [`Progress`] aggregates the engine keeps, so a taken trace is
/// self-contained.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Per-round reports (empty when report retention is off).
    pub reports: Vec<RoundReport>,
    /// (round, positions) snapshots, per [`TraceConfig`].
    pub snapshots: Vec<(u64, Vec<Point>)>,
    progress: Progress,
}

impl Trace {
    /// Fold one round's activity into the aggregates.
    pub fn record_round(&mut self, moved: usize, removed: usize) {
        self.progress.record_round(moved, removed);
    }

    /// The trace's aggregate statistics.
    pub fn progress(&self) -> Progress {
        self.progress
    }

    /// Number of rounds folded into the trace.
    pub fn rounds(&self) -> u64 {
        self.progress.rounds()
    }

    /// Total robots removed over the trace.
    pub fn total_removed(&self) -> usize {
        self.progress.total_removed()
    }

    /// Number of rounds in which at least one merge happened.
    pub fn rounds_with_merges(&self) -> usize {
        self.progress.rounds_with_merges()
    }

    /// Longest mergeless gap; see [`Progress::longest_mergeless_gap`].
    pub fn longest_mergeless_gap(&self) -> u64 {
        self.progress.longest_mergeless_gap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(removed_per_round: &[usize]) -> Trace {
        let mut t = Trace::default();
        for &r in removed_per_round {
            t.record_round(0, r);
        }
        t
    }

    #[test]
    fn gap_accounting() {
        let t = trace_of(&[0, 0, 1, 0, 0, 0, 2]);
        assert_eq!(t.rounds(), 7);
        assert_eq!(t.total_removed(), 3);
        assert_eq!(t.rounds_with_merges(), 2);
        assert_eq!(t.longest_mergeless_gap(), 3);
    }

    #[test]
    fn trailing_gap_counts() {
        let t = trace_of(&[1, 0, 0]);
        assert_eq!(t.longest_mergeless_gap(), 2);
    }

    #[test]
    fn makespan_is_the_last_active_round() {
        let mut p = Progress::default();
        p.record_round(3, 0); // moves only: still active
        p.record_round(0, 0); // idle
        p.record_round(2, 1); // active (round 3)
        p.record_round(0, 0); // trailing idle tail
        p.record_round(0, 0);
        assert_eq!(p.rounds(), 5);
        assert_eq!(p.makespan(), 3);
        assert_eq!(Progress::default().makespan(), 0);
    }

    #[test]
    fn empty_trace_is_zeroed() {
        let t = Trace::default();
        assert_eq!(t.rounds(), 0);
        assert_eq!(t.total_removed(), 0);
        assert_eq!(t.longest_mergeless_gap(), 0);
        assert_eq!(t.progress(), Progress::default());
    }

    #[test]
    fn progress_flag() {
        let report = |removed: usize| RoundReport {
            round: 0,
            moved: 0,
            removed,
            merges: Merges::default(),
            len_after: 10,
            bbox: Rect::point(Point::ORIGIN),
            gathered: false,
        };
        assert!(report(1).made_progress());
        assert!(!report(0).made_progress());
    }
}
