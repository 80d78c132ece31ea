//! The FSYNC engine for Euclidean closed chains.
//!
//! [`EuclidSim`] mirrors the grid engine's contract — simultaneous moves,
//! merge pass, tautness validation, the always-on
//! [`Progress`] aggregates, stall/quiescence windows,
//! and [`Outcome`]s — over [`EuclidChain`] state. It
//! is deliberately FSYNC-only (the strategy's safety argument assumes the
//! active parity class's neighbors are static each round); the scenario
//! layer rejects `euclid` × SSYNC combinations before an `EuclidSim` is
//! ever built.

use chain_sim::{Outcome, Progress, RoundSummary, RunLimits, QUIESCENCE_WINDOW};

use crate::chain::EuclidChain;
use crate::strategy::EuclidStrategy;
use crate::vec2::Vec2;

/// Robots move every other round (alternating parity classes), so the
/// engine widens the shared quiescence window by this inverse duty cycle
/// — the same scaling SSYNC schedulers apply on the grid.
const PARITY_SLOWDOWN: u64 = 2;

/// The simulator: one [`EuclidStrategy`] driving one [`EuclidChain`]
/// through synchronous rounds.
pub struct EuclidSim<S: EuclidStrategy> {
    chain: EuclidChain,
    strategy: S,
    round: u64,
    targets: Vec<Vec2>,
    removed_buf: Vec<usize>,
    progress: Progress,
    travel: Vec<f64>,
    retired_travel: f64,
    rounds_since_merge: u64,
    rounds_since_move: u64,
    /// The gathering criterion of the chain as it stands, computed once
    /// per round (the chain changes only in [`EuclidSim::step`]).
    gathered: bool,
}

impl<S: EuclidStrategy> EuclidSim<S> {
    /// A simulator over `chain`. Like the grid engines, nothing is
    /// retained per round — only the [`Progress`] aggregates and the
    /// per-robot travel totals.
    pub fn new(chain: EuclidChain, strategy: S) -> Self {
        let n = chain.len();
        let gathered = chain.is_gathered();
        EuclidSim {
            chain,
            strategy,
            round: 0,
            targets: Vec::with_capacity(n),
            removed_buf: Vec::new(),
            progress: Progress::default(),
            travel: vec![0.0; n],
            retired_travel: 0.0,
            rounds_since_merge: 0,
            rounds_since_move: 0,
            gathered,
        }
    }

    /// The chain in its current state.
    pub fn chain(&self) -> &EuclidChain {
        &self.chain
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The always-on aggregate statistics.
    pub fn progress(&self) -> Progress {
        self.progress
    }

    /// Maximum per-robot cumulative travel so far (robots merged away
    /// keep contributing their totals) — the min-max distance objective.
    pub fn max_travel(&self) -> f64 {
        self.travel
            .iter()
            .fold(self.retired_travel, |acc, &t| acc.max(t))
    }

    /// `true` if the gathering criterion (bounding extent ≤ 1 per axis)
    /// holds.
    pub fn is_gathered(&self) -> bool {
        self.gathered
    }

    /// Execute one round: look/compute (strategy), simultaneous moves,
    /// merge pass, tautness validation, bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if the strategy breaks the chain. [`crate::FoldReflect`]'s
    /// moves keep every mover within unit distance of its (static)
    /// neighbors, so for the shipped strategy this is unreachable — a
    /// panic here is a strategy bug, the Euclidean analogue of the grid
    /// engine's `ChainError` abort.
    pub fn step(&mut self) -> RoundSummary {
        let n = self.chain.len();
        self.targets.clear();
        self.targets.extend_from_slice(self.chain.positions());

        self.strategy
            .compute(&self.chain, self.round, &mut self.targets);

        let mut moved = 0;
        for (i, (&t, &p)) in self.targets.iter().zip(self.chain.positions()).enumerate() {
            if t != p {
                moved += 1;
                self.travel[i] += t.dist(p);
            }
        }
        if let Err(e) = self.chain.apply_moves(&self.targets) {
            panic!(
                "euclid chain broke in round {}: {e} (strategy {} violated its safety contract)",
                self.round,
                self.strategy.name()
            );
        }

        let removed = self.chain.merge_pass(&mut self.removed_buf);
        if removed > 0 {
            let mut rm = self.removed_buf.iter().peekable();
            let mut write = 0;
            for read in 0..self.travel.len() {
                if rm.peek() == Some(&&read) {
                    rm.next();
                    self.retired_travel = self.retired_travel.max(self.travel[read]);
                } else {
                    self.travel[write] = self.travel[read];
                    write += 1;
                }
            }
            self.travel.truncate(write);
        }

        if self.chain.len() > 1 {
            if let Err(e) = self.chain.validate() {
                panic!(
                    "euclid chain untaut after round {}: {e} (strategy {})",
                    self.round,
                    self.strategy.name()
                );
            }
        }

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

        self.gathered = self.chain.is_gathered();
        let summary = RoundSummary {
            round: self.round,
            moved,
            removed,
            len_after: self.chain.len(),
            gathered: self.gathered,
        };
        self.progress.record_round(moved, removed);
        self.round += 1;
        debug_assert_eq!(n - removed, self.chain.len());
        summary
    }

    /// Run until gathered or a limit trips, invoking `on_round` with every
    /// round summary (the hook the scenario layer publishes live progress
    /// through — mirrors `KernelSim::run_with`).
    pub fn run_with<F: FnMut(&RoundSummary)>(
        &mut self,
        limits: RunLimits,
        mut on_round: F,
    ) -> Outcome {
        loop {
            if self.gathered {
                return Outcome::Gathered { rounds: self.round };
            }
            if self.round >= limits.max_rounds {
                return Outcome::RoundLimit { rounds: self.round };
            }
            let quiescence = QUIESCENCE_WINDOW.saturating_mul(PARITY_SLOWDOWN);
            if self.rounds_since_merge >= limits.stall_window
                || self.rounds_since_move >= quiescence
            {
                return Outcome::Stalled {
                    rounds: self.round,
                    since_last_merge: self.rounds_since_merge,
                };
            }
            let summary = self.step();
            on_round(&summary);
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
    use crate::strategy::FoldReflect;

    fn ring(n: usize) -> EuclidChain {
        // A regular n-gon with unit edges: radius 1 / (2 sin(π/n)).
        let r = 0.5 / (std::f64::consts::PI / n as f64).sin();
        EuclidChain::new(
            (0..n)
                .map(|k| {
                    let a = std::f64::consts::TAU * k as f64 / n as f64;
                    Vec2::new(r * a.cos(), r * a.sin())
                })
                .collect(),
        )
        .unwrap()
    }

    fn rotated_rectangle(w: usize, h: usize, angle: f64) -> EuclidChain {
        let mut pts = Vec::new();
        for x in 0..w {
            pts.push((x as f64, 0.0));
        }
        for y in 0..h {
            pts.push((w as f64, y as f64));
        }
        for x in 0..w {
            pts.push(((w - x) as f64, h as f64));
        }
        for y in 0..h {
            pts.push((0.0, (h - y) as f64));
        }
        let (s, c) = angle.sin_cos();
        EuclidChain::new(
            pts.into_iter()
                .map(|(x, y)| Vec2::new(x * c - y * s, x * s + y * c))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn rings_gather() {
        for n in [6, 9, 16, 33, 64] {
            let chain = ring(n);
            let mut sim = EuclidSim::new(chain, FoldReflect);
            let outcome = sim.run(RunLimits::for_euclid_chain(n));
            assert!(outcome.is_gathered(), "ring n={n}: {outcome:?}");
        }
    }

    #[test]
    fn rotated_rectangles_gather() {
        for (w, h, angle) in [(8, 4, 0.3), (12, 6, 1.1), (5, 5, 0.0)] {
            let chain = rotated_rectangle(w, h, angle);
            let n = chain.len();
            let mut sim = EuclidSim::new(chain, FoldReflect);
            let outcome = sim.run(RunLimits::for_euclid_chain(n));
            assert!(outcome.is_gathered(), "rect {w}x{h}@{angle}: {outcome:?}");
        }
    }

    #[test]
    fn rhombus_symmetry_is_broken() {
        // Unit rhombus with 75° opening: no folds available, and pure
        // chord reflections 2-cycle (each diagonal is a symmetry axis).
        // The forced-midpoint beat must still gather it.
        let a = 75f64.to_radians();
        let chain = EuclidChain::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0 + a.cos(), a.sin()),
            Vec2::new(a.cos(), a.sin()),
        ])
        .unwrap();
        let mut sim = EuclidSim::new(chain, FoldReflect);
        let outcome = sim.run(RunLimits::for_euclid_chain(4));
        assert!(outcome.is_gathered(), "{outcome:?}");
    }

    #[test]
    fn progress_and_travel_are_maintained() {
        let n = 24;
        let mut sim = EuclidSim::new(ring(n), FoldReflect);
        let outcome = sim.run(RunLimits::for_euclid_chain(n));
        assert!(outcome.is_gathered());
        let p = sim.progress();
        assert_eq!(p.rounds(), outcome.rounds());
        assert!(p.makespan() <= p.rounds());
        assert!(p.makespan() > 0);
        // Gathering a ring of diameter ~n/π requires real travel, and no
        // robot can have traveled more than 2 per round it was active.
        assert!(sim.max_travel() > 1.0);
        assert!(sim.max_travel() <= 2.0 * outcome.rounds() as f64);
        // The chain shortened to within the gathering box.
        assert!(sim.chain().len() < n);
        assert!(p.total_removed() >= n - sim.chain().len());
    }

    #[test]
    fn run_with_reports_every_round() {
        let n = 12;
        let mut sim = EuclidSim::new(ring(n), FoldReflect);
        let mut rounds_seen = 0u64;
        let outcome = sim.run_with(RunLimits::for_euclid_chain(n), |s| {
            assert_eq!(s.round, rounds_seen);
            rounds_seen += 1;
        });
        assert_eq!(rounds_seen, outcome.rounds());
    }
}
