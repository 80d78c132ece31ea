//! Frame capture as an engine observer.
//!
//! [`FrameCapture`] plugs into the simulator's one run loop
//! ([`chain_sim::Sim::observe`]) and renders ASCII frames — with the
//! strategy's per-robot markers — as the run progresses, replacing the old
//! pattern of hand-rolled `step()` loops interleaved with rendering calls.

use chain_sim::observe::{Observer, RoundCtx};
use chain_sim::{ClosedChain, Strategy};

use crate::ascii::{render_with_markers, AsciiOptions};

/// One captured frame.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Rounds completed when the frame was captured (0 = initial
    /// configuration).
    pub rounds: u64,
    /// Robots on the chain at capture time.
    pub robots: usize,
    /// The rendered ASCII frame.
    pub art: String,
}

/// Observer that renders ASCII frames of the configuration every `every`
/// rounds (plus the initial and, via `on_finish`, the final
/// configuration), using the strategy's [`Strategy::marker`] overlays.
#[derive(Debug)]
pub struct FrameCapture {
    every: u64,
    max: usize,
    frames: Vec<Frame>,
}

impl FrameCapture {
    /// Capture a frame every `every` rounds, at most `max` frames
    /// (initial and final frames included in the budget).
    pub fn every(every: u64, max: usize) -> Self {
        FrameCapture {
            every: every.max(1),
            max,
            frames: Vec::new(),
        }
    }

    /// The frames captured so far.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    fn capture<S: Strategy>(&mut self, rounds: u64, chain: &ClosedChain, strategy: &S) {
        if self.frames.len() >= self.max {
            return;
        }
        self.frames.push(Frame {
            rounds,
            robots: chain.len(),
            art: render_with_markers(chain, |i| strategy.marker(i), AsciiOptions::default()),
        });
    }
}

impl<S: Strategy> Observer<S> for FrameCapture {
    fn on_init(&mut self, chain: &ClosedChain, strategy: &S) {
        self.capture(0, chain, strategy);
    }

    fn on_round(&mut self, ctx: &RoundCtx<'_>, strategy: &mut S) {
        let completed = ctx.summary.round + 1;
        if completed.is_multiple_of(self.every) {
            self.capture(completed, ctx.chain, strategy);
        }
    }

    fn on_finish(&mut self, chain: &ClosedChain, strategy: &S, outcome: &chain_sim::Outcome) {
        // Always capture the final configuration unless the last periodic
        // frame already is it.
        if self.frames.last().map(|f| f.rounds) != Some(outcome.rounds()) {
            self.capture(outcome.rounds(), chain, strategy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_sim::{RunLimits, Sim};
    use grid_geom::{Offset, Point};

    /// A do-nothing strategy that never claims idleness, so `run` reaches
    /// its round cap instead of stalling immediately (the engine stalls an
    /// idle strategy at round 0 — these tests want mid-run frames).
    struct Linger;

    impl Strategy for Linger {
        fn name(&self) -> &'static str {
            "linger"
        }
        fn init(&mut self, _chain: &ClosedChain) {}
        fn compute(&mut self, _chain: &ClosedChain, _round: u64, _hops: &mut [Offset]) {}
    }

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
    fn captures_initial_periodic_and_final_frames() {
        let mut sim = Sim::new(ring6(), Linger).observe(FrameCapture::every(2, 100));
        let outcome = sim.run(RunLimits {
            max_rounds: 5,
            stall_window: 100,
        });
        assert_eq!(outcome.rounds(), 5);
        let frames = sim.observer::<FrameCapture>().unwrap().frames();
        // Initial (0), rounds 2, 4, and the final configuration at 5.
        let rounds: Vec<u64> = frames.iter().map(|f| f.rounds).collect();
        assert_eq!(rounds, vec![0, 2, 4, 5]);
        assert!(frames.iter().all(|f| f.robots == 6));
        assert!(frames[0].art.contains('o'));
    }

    #[test]
    fn frame_budget_is_respected() {
        let mut sim = Sim::new(ring6(), Linger).observe(FrameCapture::every(1, 2));
        let _ = sim.run(RunLimits {
            max_rounds: 10,
            stall_window: 100,
        });
        assert_eq!(sim.observer::<FrameCapture>().unwrap().frames().len(), 2);
    }
}
