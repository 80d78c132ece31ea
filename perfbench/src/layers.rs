//! The traced engine pass: every scenario is stepped directly on its
//! engine (`Sim`, `KernelSim` or `EuclidSim`) with the phase timer on and
//! a timing wrapper around the paper strategies, so each layer's cost is
//! measured from the benchmark's side of its public API.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use baselines::{CompassSeKernel, GlobalVisionKernel, NaiveLocalKernel};
use bench::campaign::json::Json;
use bench::campaign::{spec_hash, CampaignRow};
use bench::{wire, ScenarioSpec, SchedulerKind, StrategyKind};
use chain_sim::chain::SpliceLog;
use chain_sim::kernel::{
    ActivationRule, FsyncRule, KFairRule, KernelChain, KernelSim, RandomRule, RoundKernel,
    RoundRobinRule,
};
use chain_sim::{
    ClosedChain, Observer, Outcome, PackedChain, Progress, RoundCtx, RoundSummary, RunLimits, Sim,
    Strategy,
};
use euclid_geom::{EuclidChain, EuclidSim, FoldReflect, Vec2};
use gathering_core::{ClosedChainGathering, SsyncGathering};
use grid_geom::Offset;
use obs::{Phase, PhaseTimer, TraceEvents};

use crate::specs::Fingerprint;
use crate::stats::{median, ratio, Metrics};

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Times the strategy hooks the engine calls each round.
struct Timed<S> {
    inner: S,
    compute_ns: u64,
    post_move_ns: u64,
    post_merge_ns: u64,
}

impl<S: Strategy> Strategy for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn init(&mut self, chain: &ClosedChain) {
        self.inner.init(chain)
    }
    fn compute(&mut self, chain: &ClosedChain, round: u64, hops: &mut [Offset]) {
        let t = Instant::now();
        self.inner.compute(chain, round, hops);
        self.compute_ns += ns(t);
    }
    fn post_move(&mut self, chain: &ClosedChain, round: u64) {
        let t = Instant::now();
        self.inner.post_move(chain, round);
        self.post_move_ns += ns(t);
    }
    fn post_merge(&mut self, chain: &ClosedChain, round: u64, log: &SpliceLog) {
        let t = Instant::now();
        self.inner.post_merge(chain, round, log);
        self.post_merge_ns += ns(t);
    }
    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }
    fn wants_chain_guard(&self) -> bool {
        self.inner.wants_chain_guard()
    }
}

/// Live robots per round, applied hops and guard cancels.
#[derive(Default)]
struct Tally {
    robot_rounds: u64,
    moved: u64,
    cancels: u64,
}

impl Tally {
    fn add(&mut self, s: &RoundSummary) {
        self.robot_rounds += s.len_after as u64;
        self.moved += s.moved as u64;
    }
}

impl<S: Strategy> Observer<S> for Tally {
    fn on_round(&mut self, ctx: &RoundCtx<'_>, _strategy: &mut S) {
        self.add(&ctx.summary);
        self.cancels += ctx.guard_cancels as u64;
    }
}

/// Sums over a set of runs: wall time and live robots per round.
#[derive(Clone, Copy, Default)]
struct Cost {
    ns: u64,
    robot_rounds: u64,
}

impl Cost {
    fn add(&mut self, ns: u64, robot_rounds: u64) {
        self.ns += ns;
        self.robot_rounds += robot_rounds;
    }
    fn per_robot_round(&self) -> f64 {
        ratio(self.ns as f64, self.robot_rounds as f64)
    }
}

/// What the traced pass measured, layer by layer.
pub struct EngineLayers {
    gen_ns: u64,
    gen_robots: u64,
    merges: u64,
    boxed: Cost,
    boxed_by_stratum: BTreeMap<&'static str, Cost>,
    hooks: [u64; 3],
    boxed_rounds: u64,
    cancels: u64,
    guarded_moved: u64,
    kernel_by_kind: BTreeMap<&'static str, Cost>,
    euclid: Cost,
    boxed_phases: Arc<PhaseTimer>,
    kernel_phases: Arc<PhaseTimer>,
    /// Scenario fingerprints in pass order.
    pub fingerprints: Vec<Fingerprint>,
    /// Scenarios that did not gather.
    pub not_gathered: Vec<usize>,
}

impl Default for EngineLayers {
    fn default() -> Self {
        EngineLayers {
            gen_ns: 0,
            gen_robots: 0,
            merges: 0,
            boxed: Cost::default(),
            boxed_by_stratum: BTreeMap::new(),
            hooks: [0; 3],
            boxed_rounds: 0,
            cancels: 0,
            guarded_moved: 0,
            kernel_by_kind: BTreeMap::new(),
            euclid: Cost::default(),
            boxed_phases: Arc::new(PhaseTimer::new(1)),
            kernel_phases: Arc::new(PhaseTimer::new(1)),
            fingerprints: Vec::new(),
            not_gathered: Vec::new(),
        }
    }
}

impl EngineLayers {
    /// Run `spec` traced; `stratum` keys the boxed per-round cost
    /// (`n256`, `n4096` or `ssync`). `id` tags its trace spans.
    pub fn run(
        &mut self,
        spec: &ScenarioSpec,
        stratum: &'static str,
        id: u64,
        trace: &TraceEvents,
    ) {
        let tid = obs::trace_tid();
        let t = Instant::now();
        let chain = spec.generate();
        let gen = t.elapsed();
        trace.complete("generate", tid, t, gen, Some(("id", id)));
        self.gen_ns += gen.as_nanos() as u64;
        self.gen_robots += chain.len() as u64;

        let n = chain.len();
        let limits = spec.resolve_limits(&chain);
        let t = Instant::now();
        let (outcome, progress) = match spec.strategy {
            StrategyKind::Paper(cfg) => {
                self.boxed(chain, ClosedChainGathering::new(cfg), spec, stratum, limits)
            }
            StrategyKind::PaperSsync(cfg) => {
                self.boxed(chain, SsyncGathering::new(cfg), spec, stratum, limits)
            }
            StrategyKind::CompassSe => self.kernel(chain, CompassSeKernel::new(), spec, limits),
            StrategyKind::NaiveLocal => self.kernel(chain, NaiveLocalKernel::new(), spec, limits),
            StrategyKind::GlobalVision => {
                self.kernel(chain, GlobalVisionKernel::new(), spec, limits)
            }
            StrategyKind::EuclidChain => self.euclid(&chain, spec.seed, limits),
            other => panic!("no traced path for strategy {}", other.name()),
        };
        trace.complete("run", tid, t, t.elapsed(), Some(("id", id)));
        if !outcome.is_gathered() {
            self.not_gathered.push(self.fingerprints.len());
        }
        self.fingerprints.push((
            n,
            outcome.rounds(),
            progress.total_removed(),
            progress.longest_mergeless_gap(),
        ));
    }

    fn boxed<S: Strategy + 'static>(
        &mut self,
        chain: ClosedChain,
        strategy: S,
        spec: &ScenarioSpec,
        stratum: &'static str,
        limits: RunLimits,
    ) -> (Outcome, Progress) {
        let timed = Timed {
            inner: strategy,
            compute_ns: 0,
            post_move_ns: 0,
            post_merge_ns: 0,
        };
        let mut sim = Sim::new(chain, timed)
            .with_scheduler(spec.scheduler.build(spec.seed))
            .with_phase_timer(self.boxed_phases.clone())
            .observe(Tally::default());
        let t = Instant::now();
        let outcome = sim.run(limits);
        let run_ns = ns(t);
        let tally = sim.observer::<Tally>().expect("tally attached");
        let hooks = sim.strategy();
        self.boxed.add(run_ns, tally.robot_rounds);
        self.boxed_by_stratum
            .entry(stratum)
            .or_default()
            .add(run_ns, tally.robot_rounds);
        self.hooks[0] += hooks.compute_ns;
        self.hooks[1] += hooks.post_move_ns;
        self.hooks[2] += hooks.post_merge_ns;
        self.boxed_rounds += outcome.rounds();
        self.merges += sim.progress().total_removed() as u64;
        if sim.chain_guard_enabled() {
            self.cancels += tally.cancels;
            self.guarded_moved += tally.moved;
        }
        (outcome, sim.progress())
    }

    fn kernel<K: RoundKernel>(
        &mut self,
        chain: ClosedChain,
        kernel: K,
        spec: &ScenarioSpec,
        limits: RunLimits,
    ) -> (Outcome, Progress) {
        fn drive<K: RoundKernel, A: ActivationRule>(
            mut sim: KernelSim<K, A>,
            limits: RunLimits,
        ) -> (Outcome, Progress, u64, u64) {
            let mut tally = Tally::default();
            let t = Instant::now();
            let outcome = sim.run_with(limits, |s| tally.add(s));
            (outcome, *sim.progress(), ns(t), tally.robot_rounds)
        }
        let packed = PackedChain::from_chain(&chain).expect("family chains pack");
        let kc = KernelChain::new(packed);
        let timer = self.kernel_phases.clone();
        let seed = spec.seed;
        let (outcome, progress, run_ns, robot_rounds) = match spec.scheduler {
            SchedulerKind::Fsync => drive(
                KernelSim::new(kc, kernel, FsyncRule).with_phase_timer(timer),
                limits,
            ),
            SchedulerKind::RoundRobin(g) => drive(
                KernelSim::new(kc, kernel, RoundRobinRule::new(g)).with_phase_timer(timer),
                limits,
            ),
            SchedulerKind::Random(p) => drive(
                KernelSim::new(kc, kernel, RandomRule::new(seed, p)).with_phase_timer(timer),
                limits,
            ),
            SchedulerKind::KFair(k) => drive(
                KernelSim::new(kc, kernel, KFairRule::new(seed, k)).with_phase_timer(timer),
                limits,
            ),
        };
        let key = if spec.scheduler.is_fsync() {
            spec.strategy.name()
        } else {
            "ssync"
        };
        self.kernel_by_kind
            .entry(key)
            .or_default()
            .add(run_ns, robot_rounds);
        (outcome, progress)
    }

    fn euclid(&mut self, chain: &ClosedChain, seed: u64, limits: RunLimits) -> (Outcome, Progress) {
        let pts = workloads::euclid_points(chain, seed);
        let chain = EuclidChain::new(pts.into_iter().map(|(x, y)| Vec2::new(x, y)).collect())
            .expect("lifted family chains are viable");
        let mut sim = EuclidSim::new(chain, FoldReflect);
        let mut tally = Tally::default();
        let t = Instant::now();
        let outcome = sim.run_with(limits, |s| tally.add(s));
        self.euclid.add(ns(t), tally.robot_rounds);
        (outcome, sim.progress())
    }

    /// Fold the measurements into per-layer metrics.
    pub fn report(&self, m: &mut Metrics) {
        m.set(
            "workloads.gen_us_per_robot",
            ratio(self.gen_ns as f64 / 1e3, self.gen_robots as f64),
        );
        let boxed_rr = self.boxed.robot_rounds as f64;
        m.set("engine.rounds", self.boxed_rounds as f64);
        m.set("engine.robot_rounds", boxed_rr);
        m.set("engine.merges", self.merges as f64);
        for (stratum, name) in [
            ("n256", "engine.ns_per_robot_round.n256"),
            ("n4096", "engine.ns_per_robot_round.n4096"),
            ("ssync", "engine.ns_per_robot_round.ssync"),
        ] {
            let cost = self
                .boxed_by_stratum
                .get(stratum)
                .copied()
                .unwrap_or_default();
            m.set(name, cost.per_robot_round());
        }
        let hooks: u64 = self.hooks.iter().sum();
        m.set(
            "engine.own_ns_per_robot_round",
            ratio(self.boxed.ns.saturating_sub(hooks) as f64, boxed_rr),
        );
        let shares = |timer: &PhaseTimer| -> [f64; 4] {
            let total = timer.round_histogram().sum() as f64;
            Phase::ALL.map(|p| ratio(timer.histogram(p).sum() as f64, total))
        };
        let [compute, guard, apply, merge] = shares(&self.boxed_phases);
        m.set("phase.compute_share", compute);
        m.set("phase.guard_share", guard);
        m.set("phase.apply_share", apply);
        m.set("phase.merge_share", merge);
        m.set(
            "paper.compute_ns_per_robot_round",
            ratio(self.hooks[0] as f64, boxed_rr),
        );
        m.set(
            "paper.post_move_ns_per_round",
            ratio(self.hooks[1] as f64, self.boxed_rounds as f64),
        );
        m.set(
            "paper.post_merge_ns_per_round",
            ratio(self.hooks[2] as f64, self.boxed_rounds as f64),
        );
        m.set("guard.cancels", self.cancels as f64);
        m.set(
            "guard.cancel_ratio",
            ratio(
                self.cancels as f64,
                (self.cancels + self.guarded_moved) as f64,
            ),
        );
        for (kind, name) in [
            ("compass-se", "kernel.ns_per_robot_round.compass-se"),
            ("naive-local", "kernel.ns_per_robot_round.naive-local"),
            ("global-vision", "kernel.ns_per_robot_round.global-vision"),
            ("ssync", "kernel.ns_per_robot_round.ssync"),
        ] {
            let cost = self.kernel_by_kind.get(kind).copied().unwrap_or_default();
            m.set(name, cost.per_robot_round());
        }
        // The kernel fuses compute and apply into one pass and attributes
        // it to compute, so its apply share reads 0.
        let [compute, _, apply, merge] = shares(&self.kernel_phases);
        m.set("kernel.compute_share", compute);
        m.set("kernel.apply_share", apply);
        m.set("kernel.merge_share", merge);
        m.set("euclid.ns_per_robot_round", self.euclid.per_robot_round());
    }
}

/// The service's hit path, timed call by call in this process on the
/// same request bodies: decode (`Json::parse` + `wire::spec_from_json`),
/// hash (`spec_hash`) and encode (`CampaignRow::to_store_json`). Returns
/// `false` if a body does not decode back to its spec.
pub fn hit_path(specs: &[ScenarioSpec], rows: &[CampaignRow], m: &mut Metrics) -> bool {
    const REPS: usize = 16;
    let bodies: Vec<String> = specs
        .iter()
        .map(|s| wire::spec_to_json(s).to_compact())
        .collect();
    let (mut decode, mut hash, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    let mut ok = true;
    for _ in 0..REPS {
        for (body, spec) in bodies.iter().zip(specs) {
            let t = Instant::now();
            let decoded = Json::parse(body)
                .map_err(|e| e.to_string())
                .and_then(|v| wire::spec_from_json(&v));
            decode.push(t.elapsed().as_nanos() as f64 / 1e3);
            ok &= decoded.as_ref() == Ok(spec);
            let t = Instant::now();
            std::hint::black_box(spec_hash(spec));
            hash.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        for row in rows {
            let t = Instant::now();
            std::hint::black_box(row.to_store_json().to_compact());
            encode.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    m.set("hit_path.decode_us", median(&decode));
    m.set("hit_path.hash_us", median(&hash));
    m.set("hit_path.encode_us", median(&encode));
    ok
}
