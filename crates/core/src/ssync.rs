//! `paper-ssync`: the paper's decision rule wrapped in the chain-safety
//! guard, with an adaptive local fallback — the SSYNC repair of the
//! ROADMAP's "repair the paper algorithm" item.
//!
//! The paper's algorithm is FSYNC-correct but FSYNC-*dependent*: its
//! merge patterns move adjacent blacks in lockstep, so an SSYNC scheduler
//! that wakes only one of them leaves a diagonal (broken) edge —
//! `BENCH_robustness.json` shows `ChainBroken` under every SSYNC schedule.
//! [`SsyncGathering`] repairs this in three layers:
//!
//! 1. **The chain-safety guard** (engine-side, opted into via
//!    [`Strategy::wants_chain_guard`]): every round, after the activation
//!    mask, hops that would leave a chain edge non-adjacent under the
//!    round's activation subset are cancelled to a fixpoint
//!    ([`chain_sim::safety`]). This alone makes the wrapped rule *safe*
//!    under any scheduler — no hop set that survives the guard can break
//!    the chain.
//! 2. **The paper's decision rule**, delegated verbatim to
//!    [`ClosedChainGathering`]: merge patterns, runs, folds, oscillation
//!    suppression. Under FSYNC the guard never fires (the rule is
//!    FSYNC-safe by construction), so `paper-ssync` under `Fsync` is
//!    round-for-round identical to `paper` — the FSYNC-passivity contract
//!    pinned in `tests/ssync_safety.rs`.
//! 3. **An adaptive compass fallback** for *liveness* under adversarial
//!    schedules. Merge hops whose partner sleeps are cancelled by the
//!    guard, and under e.g. round-robin parity two chain-adjacent robots
//!    are *never* co-activated, so paired merges alone cannot finish the
//!    job. Once the wrapper observes SSYNC (some computed hop did not
//!    apply — the one observation a robot can make without seeing the
//!    mask), robots the paper rule leaves idle and the merge scan leaves
//!    unrole'd apply the south-east drain rule of the `compass-se`
//!    baseline (strict local minimum of the `x − y` key hops toward its
//!    neighbors' midpoint). Each such hop is individually chain-safe, so
//!    the guard admits it under any mask, and the SE drain alone is
//!    known to gather — the paper machinery on top only accelerates it.
//!    Under FSYNC the trigger can never fire, preserving passivity.
//!
//! The wrapper stays within the paper's robot model: the fallback uses
//! the same 1-neighborhood view and the common compass the paper assumes
//! (Section 1 discusses exactly this SE-drain capability), and SSYNC
//! detection needs only a robot comparing its own intended hop with where
//! it actually ended up.

use crate::config::GatherConfig;
use crate::strategy::ClosedChainGathering;
use chain_sim::chain::{ClosedChain, SpliceLog};
use chain_sim::kernel::{hop_code, APPLY_EDGE, EDGE_BROKEN};
use chain_sim::packed::edge_offset;
use chain_sim::Strategy;
use grid_geom::{Offset, Point};

/// The paper's run-based decision rule wrapped for SSYNC safety: guard
/// opt-in + adaptive SE-drain fallback. Registry name `paper-ssync`.
pub struct SsyncGathering {
    inner: ClosedChainGathering,
    /// The chain this round leaves if all computed hops apply — its origin
    /// and edge codes, compared against reality in `post_move` to detect
    /// SSYNC.
    predicted_origin: Point,
    predicted: Vec<u8>,
    /// `predicted` refers to the current round's compute.
    prediction_live: bool,
    /// Latched the first time a computed hop failed to apply. Never
    /// unlatched: one masked round proves the scheduler is not FSYNC.
    ssync_observed: bool,
    /// Fallback SE-drain hops issued (diagnostic).
    fallback_hops: u64,
}

impl SsyncGathering {
    /// Wrap the paper rule with configuration `cfg`.
    pub fn new(cfg: GatherConfig) -> Self {
        SsyncGathering {
            inner: ClosedChainGathering::new(cfg),
            predicted_origin: Point::ORIGIN,
            predicted: Vec::new(),
            prediction_live: false,
            ssync_observed: false,
            fallback_hops: 0,
        }
    }

    /// Wrap the paper rule with the paper's canonical configuration.
    pub fn paper() -> Self {
        Self::new(GatherConfig::paper())
    }

    /// The wrapped paper strategy (run stats, cells, last scan).
    pub fn inner(&self) -> &ClosedChainGathering {
        &self.inner
    }

    /// `true` once the wrapper has observed a non-FSYNC round (a computed
    /// hop that did not apply) and the fallback layer is armed.
    pub fn ssync_observed(&self) -> bool {
        self.ssync_observed
    }

    /// SE-drain fallback hops issued so far. Always 0 under FSYNC.
    pub fn fallback_hops(&self) -> u64 {
        self.fallback_hops
    }
}

impl Strategy for SsyncGathering {
    fn name(&self) -> &'static str {
        "paper-ssync"
    }

    fn init(&mut self, chain: &ClosedChain) {
        self.inner.init(chain);
        self.predicted.clear();
        self.prediction_live = false;
        self.ssync_observed = false;
        self.fallback_hops = 0;
    }

    fn compute(&mut self, chain: &ClosedChain, round: u64, hops: &mut [Offset]) {
        self.inner.compute(chain, round, hops);

        if self.ssync_observed {
            // Liveness layer: every strict local minimum of the SE key
            // `x − y` hops toward the midpoint of its two neighbors,
            // *overriding* its paper hop. The paper's paired merge hops
            // need a co-activated partner an adversarial schedule may
            // never grant (round-robin parity never wakes chain
            // neighbors together), so the minima — which the paper rule
            // often casts as exactly those paired blacks/whites — would
            // otherwise be cancelled by the guard forever. The drain hop
            // is individually chain-safe (it lands adjacent to both
            // standing neighbors, or merges onto them when they
            // coincide), minima are never chain-adjacent, and the SE key
            // sum strictly increases with every drain hop, which is the
            // `compass-se` termination argument — so the mix still
            // gathers; where a drain hop and a neighbor's surviving merge
            // hop conflict, the guard arbitrates.
            //
            // On the edge codes: the key falls along the edge into robot
            // `i` (bit 1 set) and rises along the edge out of it (bit 1
            // clear); with neighbours `p − in` and `p + out`, the midpoint
            // hop is `signum(out − in)`.
            let codes = chain.codes();
            if let Some(&last) = codes.last() {
                let mut c_in = last;
                for (hop, &c_out) in hops.iter_mut().zip(codes) {
                    if c_in & 0b10 != 0 && c_out & 0b10 == 0 {
                        let d = edge_offset(c_out) - edge_offset(c_in);
                        *hop = Offset::new(d.dx.signum(), d.dy.signum());
                        self.fallback_hops += 1;
                    }
                    c_in = c_out;
                }
            }
        } else {
            // Detection: the chain after the move if every computed hop
            // applies, each edge rewritten from its robots' hops. An
            // illegal hop predicts a stretched edge, which no applied move
            // leaves.
            let codes = chain.codes();
            let n = codes.len();
            let code = |h: Offset| if h.is_hop() { Some(hop_code(h)) } else { None };
            self.predicted.clear();
            self.predicted
                .extend(codes.iter().enumerate().map(|(i, &e)| {
                    match (
                        code(hops[i]),
                        code(hops[if i + 1 == n { 0 } else { i + 1 }]),
                    ) {
                        (Some(hl), Some(hr)) => APPLY_EDGE[e as usize][hl as usize][hr as usize],
                        _ => EDGE_BROKEN,
                    }
                }));
            self.predicted_origin = chain.origin() + hops[0];
            self.prediction_live = true;
        }
    }

    fn post_move(&mut self, chain: &ClosedChain, round: u64) {
        if self.prediction_live {
            self.prediction_live = false;
            if chain.origin() != self.predicted_origin || chain.codes() != self.predicted {
                self.ssync_observed = true;
            }
        }
        self.inner.post_move(chain, round);
    }

    fn post_merge(&mut self, chain: &ClosedChain, round: u64, log: &SpliceLog) {
        self.inner.post_merge(chain, round, log);
    }

    fn marker(&self, index: usize) -> Option<char> {
        self.inner.marker(index)
    }

    fn is_idle(&self) -> bool {
        // The paper rule may go idle waiting for a lockstep partner that
        // an SSYNC schedule never grants; the fallback layer can still
        // make progress, so never self-declare idle once SSYNC is
        // observed. (The engine's scheduler-scaled quiescence window
        // still catches genuine stalls.)
        if self.ssync_observed {
            false
        } else {
            self.inner.is_idle()
        }
    }

    fn wants_chain_guard(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_sim::{Outcome, RunLimits, SchedulerKind, Sim};
    use workloads::Family;

    fn drive(family: Family, n: usize, seed: u64, sched: SchedulerKind) -> (Outcome, u64, u64) {
        let chain = family.generate(n, seed);
        let len = chain.len() as u64;
        let d = chain.bounding().diameter() as u64;
        let s = sched.slowdown();
        let mut sim = Sim::new(chain, SsyncGathering::paper()).with_scheduler(sched.build(seed));
        let outcome = sim.run(RunLimits {
            max_rounds: (8 * len * d + 4096).saturating_mul(s),
            stall_window: (4 * len * d + 1024).saturating_mul(s),
        });
        let fallbacks = {
            let strat = sim.strategy();
            strat.fallback_hops()
        };
        (outcome, sim.guard_cancels(), fallbacks)
    }

    #[test]
    fn gathers_under_every_builtin_scheduler() {
        for &sched in &SchedulerKind::SWEEP {
            let (outcome, _, _) = drive(Family::Rectangle, 48, 0, sched);
            assert!(
                outcome.is_gathered(),
                "paper-ssync under {}: {outcome:?}",
                sched.name()
            );
        }
    }

    #[test]
    fn fsync_run_is_guard_silent_and_fallback_free() {
        let (outcome, cancels, fallbacks) = drive(Family::Rectangle, 64, 1, SchedulerKind::Fsync);
        assert!(outcome.is_gathered(), "{outcome:?}");
        assert_eq!(cancels, 0, "guard must never fire under FSYNC");
        assert_eq!(fallbacks, 0, "fallback must never arm under FSYNC");
    }

    #[test]
    fn ssync_runs_lean_on_the_guard() {
        // Round-robin parity never co-activates chain neighbors, so the
        // paper's paired merge hops *must* get cancelled along the way.
        let (outcome, cancels, _) = drive(Family::Rectangle, 48, 0, SchedulerKind::RoundRobin(2));
        assert!(outcome.is_gathered(), "{outcome:?}");
        assert!(cancels > 0, "rr2 without guard activity is implausible");
    }
}
