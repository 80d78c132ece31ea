//! Run states and runner bookkeeping (Sections 3.2, 3.4, 4.1–4.3).
//!
//! A *run* is a constant-size state held by a robot (the *runner*) with a
//! fixed moving direction along the chain. Every round a live run moves one
//! robot further in its direction (Lemma 3.1). Its runner may perform a
//! diagonal *reshapement hop* ("fold", Fig. 6 / Fig. 11a) when the local
//! shape allows; otherwise the run just walks (Fig. 11b/c). Runs moving
//! toward each other that cannot enable a merge *pass* each other without
//! reshaping (Fig. 8/14).
//!
//! The gathering strategy keeps its runs in a compact table of
//! [`PlacedRun`]s, sorted by chain index, plus one `RunSlots` byte per
//! robot that the ahead-scans read. A robot holds at most one run per chain
//! direction. Two same-direction runs can never share a robot: termination
//! condition 1 of Table 1 removes the rear run before contact (pipelining
//! distance L = 13 > V = 11 keeps fresh runs apart).

use crate::quasi::StartShape;
use chain_sim::RobotId;
use grid_geom::Offset;

/// Why a run terminated — Table 1 of the paper, plus bookkeeping cases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// Table 1.1: a sequent (same-direction) run is visible ahead.
    SequentAhead,
    /// Table 1.2: the endpoint of the quasi line is visible ahead.
    EndpointAhead,
    /// Table 1.3: the runner was part of a merge operation.
    Merged,
    /// Table 1.4/5: the passing/walking target corner was removed.
    TargetRemoved,
    /// The robot carrying the run was spliced away by the merge pass.
    RobotRemoved,
    /// Engine hygiene: a same-direction run already occupies the arrival
    /// slot (can only happen against a freshly started run).
    SlotCollision,
}

/// Mode of a live run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Normal operation: fold when the local shape allows, else walk.
    Normal,
    /// Run passing (Fig. 8/14): walk without reshaping until the robot
    /// carrying the run *is* the target corner.
    Passing { target: RobotId },
}

/// A run state (constant-size robot memory).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// Unique run id (instrumentation only; robots never read it).
    pub id: u64,
    /// Moving direction along the chain: +1 or −1.
    pub dir: i8,
    /// The side of the quasi line the run reshapes toward (unit offset,
    /// perpendicular to the line). Fixed at start; good pairs are pairs
    /// with equal fold sides (Fig. 12).
    pub fold_side: Offset,
    /// Round the run was started (runs act from the following round).
    pub born: u64,
    /// The Figure 5 shape that started the run.
    pub shape: StartShape,
    /// Current mode.
    pub mode: RunMode,
    /// Remaining forced walk rounds (op c of Fig. 11: after the initial
    /// fold of a corner-started run, walk 3 rounds).
    pub walk_budget: u8,
    /// Op c pending: the next fold arms `walk_budget`.
    pub op_c_pending: bool,
}

impl Run {
    #[inline]
    pub fn dir(&self) -> isize {
        self.dir as isize
    }
}

/// A live run and the chain index of the robot carrying it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacedRun {
    /// Chain index of the runner.
    pub at: usize,
    /// The run state.
    pub run: Run,
}

impl PlacedRun {
    /// Table order: by chain index, the forward run before the backward one.
    #[inline]
    pub(crate) fn order_key(&self) -> usize {
        2 * self.at + usize::from(self.run.dir < 0)
    }
}

/// Which runs one robot carries, in one byte: per chain direction a
/// presence bit and the run's fold side as a 2-bit direction code. This is
/// all the sequent/opposing-run scans of a runner read about the robots
/// ahead of it ([`look_ahead`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RunSlots(u8);

impl RunSlots {
    pub const EMPTY: RunSlots = RunSlots(0);

    /// The fold sides a slot code can hold, indexed by their 2-bit code.
    const SIDES: [Offset; 4] = [Offset::RIGHT, Offset::UP, Offset::LEFT, Offset::DOWN];

    #[inline]
    fn shift(dir: isize) -> u32 {
        if dir > 0 {
            0
        } else {
            3
        }
    }

    /// Fold side of the run moving in direction `dir`, if the robot has one.
    #[inline]
    pub fn fold_side(self, dir: isize) -> Option<Offset> {
        let bits = self.0 >> Self::shift(dir);
        (bits & 0b100 != 0).then(|| Self::SIDES[usize::from(bits & 0b11)])
    }

    /// Record a run moving in direction `dir` with the given (unit) fold
    /// side.
    #[inline]
    pub fn set(&mut self, dir: isize, fold_side: Offset) {
        let code = Self::SIDES
            .iter()
            .position(|&s| s == fold_side)
            .expect("fold side is a unit step") as u8;
        self.0 |= (0b100 | code) << Self::shift(dir);
    }

    /// Forget the run moving in direction `dir`.
    #[inline]
    pub fn clear(&mut self, dir: isize) {
        self.0 &= !(0b111 << Self::shift(dir));
    }
}

/// What a runner sees of the runs ahead of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ahead {
    /// A sequent run — same direction, fold side on the same axis — lies
    /// on the runner's line (Table 1.1): the run dies.
    Sequent,
    /// No sequent run; the nearest opposing run, if any, with its chain
    /// distance and fold side.
    Clear(Option<(isize, Offset)>),
}

/// The widest look-ahead read as one word, one slot per byte.
const WORD_SLOTS: usize = 16;

/// Bit 0 of every byte of a look-ahead word.
const LANE_LOW: u128 = u128::MAX / 0xff;

/// Mask of the low `lanes` bytes of a look-ahead word.
#[inline]
fn lanes_below(lanes: usize) -> u128 {
    if lanes >= WORD_SLOTS {
        u128::MAX
    } else {
        (1 << (8 * lanes)) - 1
    }
}

/// The runs within `horizon` robots ahead of robot `i` in direction `dir`
/// on a chain with run occupancy `slots`, for a run with fold side
/// `fold_side` whose quasi line reaches `line_extent` robots ahead: a
/// same-direction run on the fold side's axis within
/// `min(line_extent, horizon)` is sequent; otherwise the first
/// opposite-direction run within `horizon` is the opposing one.
///
/// A window of at most [`WORD_SLOTS`] slots that does not wrap around
/// index 0 is read as one word, nearest slot first; others slot by slot.
pub(crate) fn look_ahead(
    slots: &[RunSlots],
    i: usize,
    dir: isize,
    fold_side: Offset,
    horizon: usize,
    line_extent: isize,
) -> Ahead {
    let n = slots.len();
    if horizon <= WORD_SLOTS {
        let bytes = |window: &[RunSlots]| -> [u8; WORD_SLOTS] {
            let mut b = [0; WORD_SLOTS];
            for (b, s) in b.iter_mut().zip(window) {
                *b = s.0;
            }
            b
        };
        let word = if dir > 0 && i + horizon < n {
            Some(match slots.get(i + 1..i + 1 + WORD_SLOTS) {
                Some(w) => u128::from_le_bytes(bytes(w)),
                None => u128::from_le_bytes(bytes(&slots[i + 1..])),
            })
        } else if dir < 0 && horizon <= i {
            Some(match i.checked_sub(WORD_SLOTS) {
                Some(from) => u128::from_be_bytes(bytes(&slots[from..i])),
                None => {
                    let mut b = bytes(&slots[..i]);
                    b[..i].reverse();
                    u128::from_le_bytes(b)
                }
            })
        } else {
            None
        };
        if let Some(word) = word {
            return read_ahead(word & lanes_below(horizon), dir, fold_side, line_extent);
        }
    }
    let same_axis = |a: Offset, b: Offset| (a.dx == 0) == (b.dx == 0);
    let mut opposing = None;
    for j in 1..=horizon as isize {
        if opposing.is_some() && j > line_extent {
            // Nothing further ahead can matter.
            break;
        }
        let s = slots[(i as isize + j * dir).rem_euclid(n as isize) as usize];
        if let Some(side) = s.fold_side(dir) {
            if same_axis(side, fold_side) && j <= line_extent {
                return Ahead::Sequent;
            }
        }
        if opposing.is_none() {
            opposing = s.fold_side(-dir).map(|side| (j, side));
        }
    }
    Ahead::Clear(opposing)
}

/// [`look_ahead`] on the slots ahead as one word: byte `j − 1` holds the
/// slot `j` robots ahead, and bytes past the horizon are empty.
#[inline]
fn read_ahead(word: u128, dir: isize, fold_side: Offset, line_extent: isize) -> Ahead {
    let (same, other) = (RunSlots::shift(dir), RunSlots::shift(-dir));
    // A slot code's bit 0 is its axis (1: vertical), as for `fold_side`.
    let axis = LANE_LOW * u128::from(fold_side.dx == 0);
    let sequent = (word >> (same + 2)) & !((word >> same) ^ axis) & LANE_LOW;
    let on_line = lanes_below(line_extent.max(0) as usize);
    if sequent & on_line != 0 {
        return Ahead::Sequent;
    }
    let opposing = (word >> (other + 2)) & LANE_LOW;
    Ahead::Clear((opposing != 0).then(|| {
        let lane = opposing.trailing_zeros() / 8;
        let code = (word >> (8 * lane + other)) as usize & 3;
        (lane as isize + 1, RunSlots::SIDES[code])
    }))
}

/// What a run decides to do this round (pure decision output; the strategy
/// applies it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunAction {
    /// Terminate with the given reason (run does not move).
    Die(StopReason),
    /// Move forward; `fold` carries the runner's diagonal hop if the run
    /// reshapes this round.
    Advance { fold: Option<Offset>, next: Run },
}

/// Counters for the audit tables (E2–E4) and reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    pub started_stairway: u64,
    pub started_corner: u64,
    pub folds: u64,
    pub walks: u64,
    pub passings_started: u64,
    pub stopped_sequent: u64,
    pub stopped_endpoint: u64,
    pub stopped_merged: u64,
    pub stopped_target_removed: u64,
    pub stopped_robot_removed: u64,
    pub stopped_slot_collision: u64,
    pub max_live_runs: u64,
    /// Oscillation-suppression triggers (robots entering suppression).
    pub suppressions: u64,
}

impl RunStats {
    pub fn started_total(&self) -> u64 {
        self.started_stairway + self.started_corner
    }

    pub fn stopped_total(&self) -> u64 {
        self.stopped_sequent
            + self.stopped_endpoint
            + self.stopped_merged
            + self.stopped_target_removed
            + self.stopped_robot_removed
            + self.stopped_slot_collision
    }

    pub fn record_stop(&mut self, reason: StopReason) {
        match reason {
            StopReason::SequentAhead => self.stopped_sequent += 1,
            StopReason::EndpointAhead => self.stopped_endpoint += 1,
            StopReason::Merged => self.stopped_merged += 1,
            StopReason::TargetRemoved => self.stopped_target_removed += 1,
            StopReason::RobotRemoved => self.stopped_robot_removed += 1,
            StopReason::SlotCollision => self.stopped_slot_collision += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(dir: i8) -> Run {
        Run {
            id: 1,
            dir,
            fold_side: Offset::DOWN,
            born: 0,
            shape: StartShape::StairwayEnd,
            mode: RunMode::Normal,
            walk_budget: 0,
            op_c_pending: false,
        }
    }

    #[test]
    fn cell_slots_by_direction() {
        for fwd in RunSlots::SIDES {
            for bwd in RunSlots::SIDES {
                let mut s = RunSlots::EMPTY;
                s.set(1, fwd);
                assert_eq!((s.fold_side(1), s.fold_side(-1)), (Some(fwd), None));
                s.set(-1, bwd);
                assert_eq!((s.fold_side(1), s.fold_side(-1)), (Some(fwd), Some(bwd)));
                s.clear(1);
                assert_eq!((s.fold_side(1), s.fold_side(-1)), (None, Some(bwd)));
                s.clear(-1);
                assert_eq!(s, RunSlots::EMPTY);
            }
        }
        let placed = |at, dir| PlacedRun { at, run: run(dir) };
        assert!(placed(3, 1).order_key() < placed(3, -1).order_key());
        assert!(placed(3, -1).order_key() < placed(4, 1).order_key());
    }

    /// The word-wide look-ahead against the per-slot loop
    /// ([`crate::oracle::per_slot_look_ahead`]) on random slot tables:
    /// both directions, every fold side, horizons 1..=24 (past 16 the
    /// per-slot path runs), every line extent up to the horizon, and every
    /// position, so windows that wrap around index 0 are covered too.
    #[test]
    fn look_ahead_matches_per_slot_loop() {
        let mut rng = chain_sim::rng::SplitMix64::new(0x100c);
        let mut slots = Vec::new();
        for n in (2..=40).chain([63, 64, 65, 200]) {
            for density in [1, 4, 16, 64] {
                slots.clear();
                slots.extend((0..n).map(|_| {
                    let mut s = RunSlots::EMPTY;
                    for dir in [1, -1] {
                        if rng.chance(1, density) {
                            s.set(dir, RunSlots::SIDES[rng.below(4) as usize]);
                        }
                    }
                    s
                }));
                for i in 0..n {
                    for horizon in 1..=24.min(n - 1) {
                        let line_extent = rng.below(horizon as u64 + 1) as isize;
                        for dir in [1, -1] {
                            for side in RunSlots::SIDES {
                                let got = look_ahead(&slots, i, dir, side, horizon, line_extent);
                                let want = crate::oracle::per_slot_look_ahead(
                                    &slots,
                                    i,
                                    dir,
                                    side,
                                    horizon,
                                    line_extent,
                                );
                                assert_eq!(
                                    got, want,
                                    "n {n}, i {i}, dir {dir}, side {side:?}, horizon {horizon}, \
                                     extent {line_extent}, slots {slots:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stats_bookkeeping() {
        let mut s = RunStats::default();
        s.record_stop(StopReason::SequentAhead);
        s.record_stop(StopReason::Merged);
        s.record_stop(StopReason::Merged);
        s.started_corner = 2;
        s.started_stairway = 1;
        assert_eq!(s.stopped_total(), 3);
        assert_eq!(s.started_total(), 3);
    }
}
