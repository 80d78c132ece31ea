//! The unified scenario pipeline.
//!
//! Every experiment in the harness — every cell of every table T1–T13 — is
//! one [`ScenarioSpec`]: a workload family, a target size, a seed, a
//! strategy from the registry ([`StrategyKind`]), an activation schedule
//! ([`SchedulerKind`], FSYNC by default), and a limit policy. The
//! batch executor [`run_batch_with`] fans a spec list out over worker
//! threads (std's scoped threads with an atomic work queue —
//! self-balancing, no locks, order-preserving) and returns one
//! [`ScenarioResult`] per spec.
//!
//! The registry covers the paper's algorithm, the four closed-chain
//! baselines of Section 1 (behind one `Box<dyn Strategy>` factory), the
//! audited paper runs that feed the Lemma tables, the two open-chain
//! \[KM09\] settings (zip, Manhattan hopper) the paper generalizes, and
//! the Euclidean closed-chain strategy.
//!
//! Execution is **one pipeline**: [`run_scenario`] (or
//! [`run_scenario_tapped`], with telemetry taps) generates the chain,
//! resolves the spec's [`RunLimits`] and hands both to one private
//! dispatch, a single `match` on the kind. The audited kind is not a
//! separate engine path: it is the paper strategy on the same engine with
//! the `LemmaAuditor` observer attached (see `chain_sim::observe`). The
//! kernel-eligible baselines run monomorphized on `KernelSim`, and the
//! open-chain and Euclidean settings run their procedures under the same
//! limit policy and progress feed as everything else.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use baselines::{
    manhattan_hopper, open_chain_zip, CompassSe, CompassSeKernel, GlobalVision, GlobalVisionKernel,
    NaiveLocal, NaiveLocalKernel,
};
use chain_sim::kernel::{
    ActivationRule, FsyncRule, KFairRule, KernelChain, KernelSim, RandomRule, RoundKernel,
    RoundRobinRule, StandKernel,
};
use chain_sim::strategy::Stand;
use chain_sim::{
    ClosedChain, FrameRing, OpenChain, Outcome, PackedChain, Progress, ProgressProbe, ProgressSlot,
    ReplaySink, ReplayWriter, RunLimits, SchedulerKind, Sim, Strategy,
};
use euclid_geom::{EuclidChain, EuclidSim, FoldReflect, Vec2};
use gathering_core::audit::{AuditSummary, LemmaAuditor};
use gathering_core::{ClosedChainGathering, GatherConfig, RunStats, SsyncGathering};
use geom_core::GeometryKind;
use obs::PhaseTimer;
use workloads::Family;

/// The strategy registry: everything the pipeline can run on a scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StrategyKind {
    /// The paper's local gathering algorithm with the given configuration.
    Paper(GatherConfig),
    /// The paper's algorithm with the Lemma auditors attached (event
    /// recording on; [`ScenarioResult::audit`] is populated).
    PaperAudited(GatherConfig),
    /// The paper's rule wrapped for SSYNC safety: chain-safety guard +
    /// adaptive SE-drain fallback (`gathering_core::SsyncGathering`).
    /// Identical to [`StrategyKind::Paper`] under FSYNC; gathers under
    /// every scheduler in [`SchedulerKind::SWEEP`].
    PaperSsync(GatherConfig),
    /// Baseline: global smallest-enclosing-square vision.
    GlobalVision,
    /// Baseline: global compass, drain to the south-east.
    CompassSe,
    /// Baseline: midpoint pull with a global safety oracle (inadmissible;
    /// measured for reference).
    NaiveLocal,
    /// Baseline: nobody moves (degenerate control).
    Stand,
    /// \[KM09\] setting: the chain cut open, endpoints zip inward.
    OpenZip,
    /// \[KM09\] setting: fixed-endpoint Manhattan hopper.
    Hopper,
    /// The linear-time Euclidean closed-chain strategy (continuous
    /// geometry backend; requires [`GeometryKind::Euclid`], FSYNC-only).
    EuclidChain,
}

impl StrategyKind {
    /// Paper algorithm with the canonical configuration.
    pub fn paper() -> Self {
        StrategyKind::Paper(GatherConfig::paper())
    }

    /// SSYNC-safe paper wrapper with the canonical configuration.
    pub fn paper_ssync() -> Self {
        StrategyKind::PaperSsync(GatherConfig::paper())
    }

    /// Registry name (stable, used in table headers and trace labels).
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Paper(_) => "paper",
            StrategyKind::PaperAudited(_) => "paper-audited",
            StrategyKind::PaperSsync(_) => "paper-ssync",
            StrategyKind::GlobalVision => "global-vision",
            StrategyKind::CompassSe => "compass-se",
            StrategyKind::NaiveLocal => "naive-local",
            StrategyKind::Stand => "stand",
            StrategyKind::OpenZip => "open-zip",
            StrategyKind::Hopper => "hopper",
            StrategyKind::EuclidChain => "euclid-chain",
        }
    }

    /// Every registry name, in registry order (the order campaign grids
    /// and report columns use).
    pub const ALL_NAMES: [&'static str; 10] = [
        "paper",
        "paper-audited",
        "paper-ssync",
        "global-vision",
        "compass-se",
        "naive-local",
        "stand",
        "open-zip",
        "hopper",
        "euclid-chain",
    ];

    /// Parse a registry name back into a strategy (the inverse of
    /// [`StrategyKind::name`]). The paper kinds come back with the
    /// *canonical* configuration — ablated configs are not representable
    /// as bare names, which is exactly the property the campaign store
    /// relies on: a name in a result row denotes one canonical spec.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(StrategyKind::paper()),
            "paper-audited" => Some(StrategyKind::PaperAudited(GatherConfig::paper())),
            "paper-ssync" => Some(StrategyKind::paper_ssync()),
            "global-vision" => Some(StrategyKind::GlobalVision),
            "compass-se" => Some(StrategyKind::CompassSe),
            "naive-local" => Some(StrategyKind::NaiveLocal),
            "stand" => Some(StrategyKind::Stand),
            "open-zip" => Some(StrategyKind::OpenZip),
            "hopper" => Some(StrategyKind::Hopper),
            "euclid-chain" => Some(StrategyKind::EuclidChain),
            _ => None,
        }
    }

    /// The closed-chain strategy factory: the paper's algorithm and all
    /// four baselines behind one object-safe interface. The audited kind
    /// builds the same paper strategy with event recording on — the audit
    /// itself is an *observer* [`run_scenario`] attaches, not a different
    /// strategy. A recording strategy accumulates run events until
    /// something drains them, so run it with an auditor attached (or go
    /// through [`run_scenario`], which composes one); bare engine runs
    /// that want zero overhead should build [`StrategyKind::Paper`]
    /// instead. Returns `None` only for the open-chain and Euclidean
    /// settings, which have no grid closed-chain `Strategy`.
    pub fn build(&self) -> Option<Box<dyn Strategy + Send>> {
        match self {
            StrategyKind::Paper(cfg) => Some(Box::new(ClosedChainGathering::new(*cfg))),
            StrategyKind::PaperAudited(cfg) => Some(Box::new(
                ClosedChainGathering::new(*cfg).with_event_recording(),
            )),
            StrategyKind::PaperSsync(cfg) => Some(Box::new(SsyncGathering::new(*cfg))),
            StrategyKind::GlobalVision => Some(Box::new(GlobalVision::new())),
            StrategyKind::CompassSe => Some(Box::new(CompassSe::new())),
            StrategyKind::NaiveLocal => Some(Box::new(NaiveLocal::new())),
            StrategyKind::Stand => Some(Box::new(Stand)),
            StrategyKind::OpenZip | StrategyKind::Hopper | StrategyKind::EuclidChain => None,
        }
    }

    /// `true` for the open-chain \[KM09\] settings, which run outside the
    /// engine (and therefore outside the scheduler axis: they are
    /// FSYNC-only; campaign grids skip their SSYNC combinations).
    pub fn is_open_chain(&self) -> bool {
        matches!(self, StrategyKind::OpenZip | StrategyKind::Hopper)
    }

    /// `true` for the Euclidean geometry strategy, which runs on the
    /// continuous backend ([`GeometryKind::Euclid`] only, FSYNC-only).
    pub fn is_euclid(&self) -> bool {
        matches!(self, StrategyKind::EuclidChain)
    }

    /// The registry's limit policy: how [`LimitPolicy::Auto`] resolves for
    /// this kind on a *generated* chain. Paper kinds get the Theorem 1
    /// bound ([`RunLimits::for_gathering`] with the config's `L`),
    /// diameter-bound baselines get [`RunLimits::generous`], and the
    /// open-chain settings get the linear [`RunLimits::for_open_chain`].
    pub fn auto_limits(&self, chain: &ClosedChain) -> RunLimits {
        let n = chain.len();
        match self {
            StrategyKind::Paper(cfg) | StrategyKind::PaperAudited(cfg) => {
                RunLimits::for_gathering(n, cfg.l_period)
            }
            // The SSYNC wrapper's fallback layer is the diameter-bound SE
            // drain, so it gets the baselines' diameter-scaled budget
            // (times the scheduler slowdown, applied by `resolve_limits`).
            StrategyKind::PaperSsync(_)
            | StrategyKind::GlobalVision
            | StrategyKind::CompassSe
            | StrategyKind::NaiveLocal
            | StrategyKind::Stand => RunLimits::generous(n, chain.bounding().diameter() as u64),
            StrategyKind::OpenZip | StrategyKind::Hopper => RunLimits::for_open_chain(n),
            StrategyKind::EuclidChain => RunLimits::for_euclid_chain(n),
        }
    }
}

/// Telemetry taps for one scenario run: a live progress slot, replay
/// recording and a phase timer, in any combination. All taps are passive — the run's
/// [`ScenarioResult`] is byte-identical with or without them; what
/// changes is only the execution path (replay recording needs the
/// observer-capable boxed engine, which the kernel path replicates byte
/// for byte, travel aside: only the boxed engine tracks
/// [`ScenarioResult::max_travel`]).
#[derive(Clone, Debug, Default)]
pub struct RunTaps {
    /// Live progress counters (the gatherd `/progress` feed).
    pub probe: Option<Arc<ProgressSlot>>,
    /// Replay recording (the gatherd `?replay` / `/watch` feed).
    pub replay: Option<ReplayTap>,
    /// Sampling phase timer ([`obs::PhaseTimer`]): per-round
    /// compute/guard/apply/merge wall-time attribution on the engine and
    /// kernel paths (the open-chain and Euclidean procedures run outside
    /// the grid round loop and ignore it). Shared: one timer can
    /// aggregate a whole batch.
    pub phases: Option<Arc<PhaseTimer>>,
}

/// The replay half of [`RunTaps`]: where the finished replay blob goes,
/// plus an optional live frame ring for streaming watchers.
#[derive(Clone, Debug)]
pub struct ReplayTap {
    /// Receives the complete replay bytes when the run's outcome is
    /// decided.
    pub sink: ReplaySink,
    /// When present, one encoded [`chain_sim::LiveFrame`] per round is
    /// published here for streaming consumers.
    pub ring: Option<Arc<FrameRing>>,
}

/// How a scenario's run limits are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LimitPolicy {
    /// Derive from the strategy and the *generated* chain: the paper's
    /// algorithm gets [`RunLimits::for_gathering`] with its config's `L`,
    /// diameter-bound baselines get [`RunLimits::generous`].
    Auto,
    /// Use exactly these limits.
    Fixed(RunLimits),
}

/// One cell of the experiment grid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Workload family generating the input chain.
    pub family: Family,
    /// Target robot count (the family's `generate` treats it as a hint;
    /// the generated chain's `len()` is authoritative and lands in
    /// [`ScenarioResult::n`]).
    pub n: usize,
    /// Generator seed (pure: same spec, same chain).
    pub seed: u64,
    /// Registry strategy to run on the generated chain.
    pub strategy: StrategyKind,
    /// Activation schedule the engine runs under
    /// ([`SchedulerKind::Fsync`] — the paper's model — unless a
    /// robustness sweep says otherwise).
    pub scheduler: SchedulerKind,
    /// Geometry backend the scenario runs on
    /// ([`GeometryKind::Grid`] — the paper's model — everywhere except
    /// the Euclidean comparison runs).
    pub geometry: GeometryKind,
    /// How the run limits are derived.
    pub limits: LimitPolicy,
}

impl ScenarioSpec {
    /// Paper algorithm, canonical config, automatic limits.
    pub fn paper(family: Family, n: usize, seed: u64) -> Self {
        Self::with_config(family, n, seed, GatherConfig::paper())
    }

    /// Paper algorithm with a custom (e.g. ablated) configuration.
    pub fn with_config(family: Family, n: usize, seed: u64, cfg: GatherConfig) -> Self {
        ScenarioSpec {
            family,
            n,
            seed,
            strategy: StrategyKind::Paper(cfg),
            scheduler: SchedulerKind::Fsync,
            geometry: GeometryKind::Grid,
            limits: LimitPolicy::Auto,
        }
    }

    /// Audited paper run (Lemma instrumentation on).
    pub fn audited(family: Family, n: usize, seed: u64) -> Self {
        ScenarioSpec {
            family,
            n,
            seed,
            strategy: StrategyKind::PaperAudited(GatherConfig::paper()),
            scheduler: SchedulerKind::Fsync,
            geometry: GeometryKind::Grid,
            limits: LimitPolicy::Auto,
        }
    }

    /// Any registry strategy with automatic limits.
    pub fn strategy(family: Family, n: usize, seed: u64, strategy: StrategyKind) -> Self {
        ScenarioSpec {
            family,
            n,
            seed,
            strategy,
            scheduler: SchedulerKind::Fsync,
            geometry: if strategy.is_euclid() {
                GeometryKind::Euclid
            } else {
                GeometryKind::Grid
            },
            limits: LimitPolicy::Auto,
        }
    }

    /// The Euclidean comparison run: the family instance lifted off the
    /// lattice and gathered by `euclid-chain` on the continuous backend.
    pub fn euclid(family: Family, n: usize, seed: u64) -> Self {
        Self::strategy(family, n, seed, StrategyKind::EuclidChain)
    }

    /// Run under an SSYNC (or explicit FSYNC) activation schedule
    /// (builder style; the default everywhere else is FSYNC).
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Run on an explicit geometry backend (builder style; the default
    /// everywhere else follows the strategy: `euclid-chain` runs
    /// Euclidean, everything else grid).
    pub fn with_geometry(mut self, geometry: GeometryKind) -> Self {
        self.geometry = geometry;
        self
    }

    /// Geometry-axis compatibility: the continuous backend supports
    /// exactly the `euclid-chain` strategy under FSYNC, and `euclid-chain`
    /// cannot run on the grid. Returns the human-readable rejection, or
    /// `None` when the combination is runnable. Service layers surface
    /// this before running; [`run_scenario`] panics on it (a spec that
    /// bypassed validation is a caller bug).
    pub fn geometry_error(&self) -> Option<String> {
        match self.geometry {
            GeometryKind::Grid => self.strategy.is_euclid().then(|| {
                format!(
                    "strategy '{}' requires geometry 'euclid' (got 'grid')",
                    self.strategy.name()
                )
            }),
            GeometryKind::Euclid => {
                if !self.strategy.is_euclid() {
                    Some(format!(
                        "geometry 'euclid' supports only strategy 'euclid-chain' \
                         (got '{}')",
                        self.strategy.name()
                    ))
                } else if !self.scheduler.is_fsync() {
                    Some(format!(
                        "geometry 'euclid' is FSYNC-only (got scheduler '{}')",
                        self.scheduler.name()
                    ))
                } else {
                    None
                }
            }
        }
    }

    /// Generate this scenario's input chain (pure in `(family, n, seed)`).
    pub fn generate(&self) -> ClosedChain {
        self.family.generate(self.n, self.seed)
    }

    /// The limits this spec runs under, given its generated chain: the
    /// fixed override, or the registry's [`StrategyKind::auto_limits`]
    /// scaled by the scheduler's inverse duty cycle
    /// ([`SchedulerKind::slowdown`]) — an SSYNC run that activates 1/k of
    /// the robots per round gets k× the FSYNC round budget before a limit
    /// trips. Fixed limits are used verbatim.
    pub fn resolve_limits(&self, chain: &ClosedChain) -> RunLimits {
        match self.limits {
            LimitPolicy::Fixed(l) => l,
            LimitPolicy::Auto => {
                let base = self.strategy.auto_limits(chain);
                let s = self.scheduler.slowdown();
                RunLimits {
                    max_rounds: base.max_rounds.saturating_mul(s),
                    stall_window: base.stall_window.saturating_mul(s),
                }
            }
        }
    }
}

/// Extra outcome detail for the open-chain settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenChainOutcome {
    /// Rounds until the open-chain procedure stopped.
    pub rounds: u64,
    /// Chain length when it stopped.
    pub final_len: usize,
    /// The Manhattan optimum between the fixed endpoints (hopper only).
    pub optimal_len: Option<usize>,
}

/// What one scenario produced.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The spec that produced this result (specs are `Copy`; the echo
    /// makes batch results self-describing for grouping).
    pub spec: ScenarioSpec,
    /// Actual generated chain length.
    pub n: usize,
    /// How the run ended.
    pub outcome: Outcome,
    /// Total robots removed by merges over the run.
    pub merges_total: usize,
    /// Longest mergeless gap (rounds), the Theorem 1 progress measure.
    pub longest_gap: u64,
    /// Run statistics of the paper's strategy (Paper kinds only).
    pub stats: Option<RunStats>,
    /// Lemma audit summary (PaperAudited only).
    pub audit: Option<AuditSummary>,
    /// Open-chain detail (OpenZip / Hopper only).
    pub open: Option<OpenChainOutcome>,
    /// Last round with any movement or merge (min-max makespan objective;
    /// 0 on paths that do not track it).
    pub makespan: u64,
    /// Maximum per-robot cumulative travel distance (min-max travel
    /// objective; `None` on the kernel fast path and the open-chain
    /// procedures, which do not track travel).
    pub max_travel: Option<f64>,
    /// Wall-clock time of this scenario alone.
    pub wall: Duration,
}

impl ScenarioResult {
    /// `true` if the scenario reached the gathered (2×2) configuration.
    pub fn is_gathered(&self) -> bool {
        self.outcome.is_gathered()
    }

    /// Rounds to gather, if the scenario gathered.
    pub fn rounds(&self) -> Option<u64> {
        match self.outcome {
            Outcome::Gathered { rounds } => Some(rounds),
            _ => None,
        }
    }

    /// Fingerprint for determinism checks: everything that must be a pure
    /// function of the spec.
    pub fn fingerprint(&self) -> (usize, u64, usize, u64) {
        (
            self.n,
            self.outcome.rounds(),
            self.merges_total,
            self.longest_gap,
        )
    }
}

/// Run one scenario to completion: generate the chain, resolve the limits,
/// drive. One pipeline for every kind — the per-kind differences live
/// entirely in one dispatch `match`.
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioResult {
    run_scenario_tapped(spec, RunTaps::default())
}

/// [`run_scenario`] with telemetry taps: live progress into a
/// [`ProgressSlot`], replay recording into a [`ReplaySink`], live frame
/// streaming through a [`FrameRing`], and/or phase timing (see
/// [`RunTaps`]). Taps are passive — the result equals an untapped run of
/// the same spec, except that a replay of a kernel-eligible kind reports
/// the boxed engine's [`ScenarioResult::max_travel`].
///
/// # Panics
/// If the spec fails [`ScenarioSpec::geometry_error`], or if an
/// open-chain or Euclidean kind gets an SSYNC scheduler or a replay tap —
/// those procedures run outside the grid engine, so there is no schedule
/// to apply and no per-round hop record to write. Service layers reject
/// these combinations at request-validation time.
pub fn run_scenario_tapped(spec: &ScenarioSpec, taps: RunTaps) -> ScenarioResult {
    if let Some(err) = spec.geometry_error() {
        panic!("invalid scenario spec: {err} (service layers validate before running)");
    }
    let t0 = Instant::now();
    let chain = spec.generate();
    let limits = spec.resolve_limits(&chain);
    let mut result = drive(spec, chain, limits, taps);
    result.wall = t0.elapsed();
    result
}

/// Execute `spec` on its generated `chain`: one arm per execution path.
///
/// Kernel-eligible kinds ride the monomorphized kernel path
/// (byte-identical to the boxed engine; `tests/kernel_diff.rs`). A
/// progress slot is passive shared state the kernel path publishes into
/// natively, so probed runs — the gatherd cache misses — stay on it too.
/// Replay recording needs the observer stack, so a recorded run of those
/// kinds takes the boxed engine; the kernel's byte-identity with it is
/// what makes the detour safe.
fn drive(
    spec: &ScenarioSpec,
    chain: ClosedChain,
    limits: RunLimits,
    taps: RunTaps,
) -> ScenarioResult {
    let n = chain.len();
    let recorded = taps.replay.is_some();
    match spec.strategy {
        StrategyKind::Paper(cfg) => {
            let (sim, outcome) = engine(
                Sim::new(chain, ClosedChainGathering::new(cfg)),
                spec,
                limits,
                taps,
            );
            ScenarioResult {
                stats: Some(sim.strategy().stats().clone()),
                ..ran(spec, n, outcome, &sim.progress(), Some(sim.max_travel()))
            }
        }
        StrategyKind::PaperAudited(cfg) => {
            let strategy = ClosedChainGathering::new(cfg).with_event_recording();
            let auditor = LemmaAuditor::new(&strategy);
            let (sim, outcome) = engine(
                Sim::new(chain, strategy).observe(auditor),
                spec,
                limits,
                taps,
            );
            // Audited results carry the audit summary, whose gap/merge
            // accounting is authoritative for the Lemma tables.
            let audit = sim
                .observer::<LemmaAuditor>()
                .expect("the auditor is attached")
                .summary();
            ScenarioResult {
                merges_total: audit.total_merged_robots,
                longest_gap: audit.longest_mergeless_gap,
                audit: Some(audit),
                ..ran(spec, n, outcome, &sim.progress(), Some(sim.max_travel()))
            }
        }
        StrategyKind::GlobalVision if !recorded => {
            kernel(GlobalVisionKernel::new(), spec, chain, limits, taps)
        }
        StrategyKind::CompassSe if !recorded => {
            kernel(CompassSeKernel::new(), spec, chain, limits, taps)
        }
        StrategyKind::NaiveLocal if !recorded => {
            kernel(NaiveLocalKernel::new(), spec, chain, limits, taps)
        }
        StrategyKind::Stand if !recorded => kernel(StandKernel, spec, chain, limits, taps),
        StrategyKind::PaperSsync(_)
        | StrategyKind::GlobalVision
        | StrategyKind::CompassSe
        | StrategyKind::NaiveLocal
        | StrategyKind::Stand => boxed(spec, chain, limits, taps),
        StrategyKind::OpenZip | StrategyKind::Hopper => {
            assert!(
                spec.scheduler.is_fsync(),
                "open-chain kind {} has no SSYNC semantics (scheduler {})",
                spec.strategy.name(),
                spec.scheduler.name()
            );
            assert!(
                !recorded,
                "open-chain kind {} runs outside the engine; no replay recording",
                spec.strategy.name()
            );
            let hopper = matches!(spec.strategy, StrategyKind::Hopper);
            let (outcome, open) = with_progress(taps.probe, n, |hook| {
                // The generated closed chain, cut open.
                let cut = OpenChain::from_closed_positions(chain.positions())
                    .expect("family chains cut open cleanly");
                let (gathered, open) = if hopper {
                    let out = manhattan_hopper(cut, limits.max_rounds);
                    let open = OpenChainOutcome {
                        rounds: out.rounds,
                        final_len: out.final_len,
                        optimal_len: Some(out.optimal_len),
                    };
                    (out.is_optimal(), open)
                } else {
                    let zip = open_chain_zip(cut, limits.max_rounds);
                    let open = OpenChainOutcome {
                        rounds: zip.rounds,
                        final_len: zip.final_len,
                        optimal_len: None,
                    };
                    (zip.gathered, open)
                };
                // The procedures have no per-round feed: the whole run is
                // reported as one step.
                hook(open.rounds, open.final_len, n - open.final_len);
                let rounds = open.rounds;
                let outcome = if gathered {
                    Outcome::Gathered { rounds }
                } else {
                    Outcome::RoundLimit { rounds }
                };
                ((outcome, open), open.final_len)
            });
            ScenarioResult {
                spec: *spec,
                n,
                outcome,
                merges_total: n - open.final_len,
                longest_gap: 0,
                stats: None,
                audit: None,
                open: Some(open),
                // The [KM09] procedures run every robot every round until
                // they stop, so the last active round is the round count;
                // they track no per-robot travel.
                makespan: open.rounds,
                max_travel: None,
                wall: Duration::ZERO,
            }
        }
        StrategyKind::EuclidChain => {
            assert!(
                spec.scheduler.is_fsync(),
                "euclid-chain is FSYNC-only (scheduler {}); its safety argument \
                 needs the active parity class's neighbors static",
                spec.scheduler.name()
            );
            assert!(
                !recorded,
                "euclid-chain runs on the continuous backend; the replay format \
                 encodes grid hop codes and cannot record it"
            );
            // Lift the grid family instance into Euclidean general
            // position (seed-derived rotation, edges rescaled to unit
            // viability) — see `workloads::euclid_points`.
            let pts = workloads::euclid_points(&chain, spec.seed);
            let euclid = EuclidChain::new(pts.into_iter().map(|(x, y)| Vec2::new(x, y)).collect())
                .expect("lifted family chains are viable Euclidean chains");
            let mut sim = EuclidSim::new(euclid, FoldReflect);
            let outcome = with_progress(taps.probe, sim.chain().len(), |hook| {
                let outcome = sim.run_with(limits, |s| hook(s.round + 1, s.len_after, s.removed));
                (outcome, sim.chain().len())
            });
            ran(spec, n, outcome, &sim.progress(), Some(sim.max_travel()))
        }
    }
}

/// Run `sim` on the spec's schedule with the taps attached. Observers are
/// passive: the run's result is byte-identical with or without them.
fn engine<S: Strategy + 'static>(
    sim: Sim<S>,
    spec: &ScenarioSpec,
    limits: RunLimits,
    taps: RunTaps,
) -> (Sim<S>, Outcome) {
    let mut sim = sim.with_scheduler(spec.scheduler.build(spec.seed));
    if let Some(slot) = taps.probe {
        sim.add_observer(ProgressProbe::new(slot));
    }
    if let Some(tap) = taps.replay {
        let mut writer = ReplayWriter::new(tap.sink);
        if let Some(ring) = tap.ring {
            writer = writer.with_ring(ring);
        }
        sim.add_observer(writer);
    }
    if let Some(timer) = taps.phases {
        sim.set_phase_timer(timer);
    }
    let outcome = sim.run(limits);
    (sim, outcome)
}

/// A closed kind on the boxed engine, through its registry strategy.
/// `PaperSsync` builds `SsyncGathering`, whose `wants_chain_guard` turns
/// the engine's chain-safety guard on through the boxed forwarding.
fn boxed(
    spec: &ScenarioSpec,
    chain: ClosedChain,
    limits: RunLimits,
    taps: RunTaps,
) -> ScenarioResult {
    let n = chain.len();
    let strategy = spec
        .strategy
        .build()
        .expect("closed-chain kinds always build");
    let (sim, outcome) = engine(Sim::new(chain, strategy), spec, limits, taps);
    ran(spec, n, outcome, &sim.progress(), Some(sim.max_travel()))
}

/// A kernel-eligible kind on the kernel path: one monomorphized
/// `KernelSim<K, A>` run per (kernel, activation rule) pair. An input
/// chain the packed representation rejects (coinciding neighbors, which
/// only a hand-built chain can have) takes the boxed engine instead,
/// which merges them away on round one.
fn kernel<K: RoundKernel>(
    kernel: K,
    spec: &ScenarioSpec,
    chain: ClosedChain,
    limits: RunLimits,
    taps: RunTaps,
) -> ScenarioResult {
    fn run<K: RoundKernel, A: ActivationRule>(
        mut sim: KernelSim<K, A>,
        spec: &ScenarioSpec,
        n: usize,
        limits: RunLimits,
        taps: RunTaps,
    ) -> ScenarioResult {
        if let Some(timer) = taps.phases {
            sim.set_phase_timer(timer);
        }
        let outcome = with_progress(taps.probe, n, |hook| {
            let outcome = sim.run_with(limits, |s| hook(s.round + 1, s.len_after, s.removed));
            (outcome, sim.chain().len())
        });
        // The kernel path deliberately tracks no per-robot travel — it
        // would cost a float write per hop on the hot loop, and the
        // byte-identity gate compares Progress, not travel.
        ran(spec, n, outcome, sim.progress(), None)
    }

    let Ok(packed) = PackedChain::from_chain(&chain) else {
        return boxed(spec, chain, limits, taps);
    };
    let (n, kc) = (chain.len(), KernelChain::new(packed));
    let seed = spec.seed;
    match spec.scheduler {
        SchedulerKind::Fsync => run(KernelSim::new(kc, kernel, FsyncRule), spec, n, limits, taps),
        SchedulerKind::RoundRobin(groups) => run(
            KernelSim::new(kc, kernel, RoundRobinRule::new(groups)),
            spec,
            n,
            limits,
            taps,
        ),
        SchedulerKind::Random(percent) => run(
            KernelSim::new(kc, kernel, RandomRule::new(seed, percent)),
            spec,
            n,
            limits,
            taps,
        ),
        SchedulerKind::KFair(k) => run(
            KernelSim::new(kc, kernel, KFairRule::new(seed, k)),
            spec,
            n,
            limits,
            taps,
        ),
    }
}

/// Drive a run that has no observer stack (the kernel, the Euclidean
/// sim, the \[KM09\] procedures) while publishing into `probe` what a
/// [`ProgressProbe`] would: the initial state, every round the run
/// reports through its hook as `(rounds done, chain length, robots
/// removed)`, then the final state at the last reported round before the
/// feed closes. `run` returns its value and the final chain length.
fn with_progress<T>(
    probe: Option<Arc<ProgressSlot>>,
    len: usize,
    run: impl FnOnce(&mut dyn FnMut(u64, usize, usize)) -> (T, usize),
) -> T {
    let Some(slot) = probe else {
        return run(&mut |_, _, _| {}).0;
    };
    slot.publish(0, len, 0, 0);
    let mut removed_total = 0;
    // None of these runs has the chain guard, so its counter stays 0.
    let (value, final_len) = run(&mut |round, len, removed| {
        removed_total += removed;
        slot.publish(round, len, removed_total, 0);
    });
    slot.publish(slot.snapshot().round, final_len, removed_total, 0);
    slot.finish();
    value
}

/// The result of a run that `progress` accounts for, before the arms of
/// `drive` add their kind's detail (and [`run_scenario_tapped`] its wall
/// time).
fn ran(
    spec: &ScenarioSpec,
    n: usize,
    outcome: Outcome,
    progress: &Progress,
    max_travel: Option<f64>,
) -> ScenarioResult {
    ScenarioResult {
        spec: *spec,
        n,
        outcome,
        merges_total: progress.total_removed(),
        longest_gap: progress.longest_mergeless_gap(),
        stats: None,
        audit: None,
        open: None,
        makespan: progress.makespan(),
        max_travel,
        wall: Duration::ZERO,
    }
}

/// Process-wide default worker-thread count consulted whenever
/// [`BatchOptions::threads`] is `0` (see [`set_default_threads`]).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default worker-thread count for batch execution.
///
/// Every [`run_batch_with`] call whose options say `threads: 0` uses
/// this value instead of `available_parallelism` once it is nonzero — the `--threads` override
/// of the `experiments` and `campaign` binaries. `0` restores the
/// per-core default. Thread count never changes results (determinism is a
/// batch guarantee), only parallelism.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// Process-wide default phase timer consulted by the batch executor
/// whenever a batch carries no explicit timer (see
/// [`set_default_phase_timer`]) — the `--trace-out` hook of the
/// `experiments` binary, mirroring [`set_default_threads`].
static DEFAULT_PHASE_TIMER: std::sync::RwLock<Option<Arc<PhaseTimer>>> =
    std::sync::RwLock::new(None);

/// Install (or clear, with `None`) the process-wide default phase timer.
///
/// While set, every [`run_batch_with`] call attaches the timer to all of
/// its runs: every spec's run attributes its rounds into the one timer
/// (histograms are lock-free; trace spans carry per-thread lane ids), so
/// a binary can phase-profile code paths that call the batch executor
/// internally (the experiment tables) without threading a timer through
/// them. Passive: results are unchanged; only wall-time attribution is
/// collected.
pub fn set_default_phase_timer(timer: Option<Arc<PhaseTimer>>) {
    *DEFAULT_PHASE_TIMER.write().unwrap() = timer;
}

/// Executor knobs for [`run_batch_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchOptions {
    /// Worker threads; `0` means the process default
    /// ([`set_default_threads`]), falling back to one per available core.
    pub threads: usize,
}

impl BatchOptions {
    /// Options with an explicit worker-thread count (`0` = process
    /// default, then per core).
    pub fn threads(threads: usize) -> Self {
        BatchOptions { threads }
    }

    fn effective_threads(&self, jobs: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        let t = match (self.threads, DEFAULT_THREADS.load(Ordering::Relaxed)) {
            (0, 0) => hw,
            (0, d) => d,
            (t, _) => t,
        };
        t.min(jobs.max(1))
    }
}

/// Run every scenario of a batch, in parallel, preserving input order.
///
/// Work distribution is an atomic next-index queue over scoped threads:
/// self-balancing like a work-stealing pool for this shape of workload
/// (independent jobs, one queue), with no locks and no result reordering —
/// each worker returns its `(index, result)` pairs and the batch is
/// reassembled positionally.
pub fn run_batch_with(specs: &[ScenarioSpec], opts: BatchOptions) -> Vec<ScenarioResult> {
    if specs.is_empty() {
        return Vec::new();
    }
    // The process-wide phase timer, read once per batch, not per spec.
    let taps = RunTaps {
        phases: DEFAULT_PHASE_TIMER.read().unwrap().clone(),
        ..RunTaps::default()
    };
    let run = |spec: &ScenarioSpec| run_scenario_tapped(spec, taps.clone());
    let threads = opts.effective_threads(specs.len());
    if threads <= 1 {
        return specs.iter().map(run).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<ScenarioResult>> = specs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, ScenarioResult)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= specs.len() {
                            break;
                        }
                        local.push((i, run(&specs[i])));
                    }
                    local
                })
            })
            .collect();
        for worker in workers {
            for (i, result) in worker.join().expect("scenario worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_preserves_order_and_matches_serial() {
        let specs: Vec<ScenarioSpec> = (0..8)
            .map(|seed| ScenarioSpec::paper(Family::Rectangle, 32 + 4 * seed as usize, seed))
            .collect();
        let parallel = run_batch_with(&specs, BatchOptions::default());
        let serial = run_batch_with(&specs, BatchOptions::threads(1));
        assert_eq!(parallel.len(), specs.len());
        for ((p, s), spec) in parallel.iter().zip(&serial).zip(&specs) {
            assert_eq!(p.spec, *spec);
            assert_eq!(p.fingerprint(), s.fingerprint());
            assert!(p.is_gathered());
        }
    }

    #[test]
    fn registry_names_round_trip() {
        for name in StrategyKind::ALL_NAMES {
            let kind = StrategyKind::from_name(name).expect("every listed name parses");
            assert_eq!(kind.name(), name);
        }
        assert_eq!(StrategyKind::from_name("no-such-strategy"), None);
        // Ablated configs serialize to the same name but are not the
        // canonical kind — from_name intentionally returns the canonical.
        let ablated = StrategyKind::Paper(GatherConfig {
            l_period: 7,
            ..GatherConfig::paper()
        });
        assert_eq!(
            StrategyKind::from_name(ablated.name()),
            Some(StrategyKind::paper())
        );
    }

    #[test]
    fn registry_builds_paper_and_all_baselines() {
        let kinds = [
            StrategyKind::paper(),
            StrategyKind::PaperAudited(GatherConfig::paper()),
            StrategyKind::GlobalVision,
            StrategyKind::CompassSe,
            StrategyKind::NaiveLocal,
            StrategyKind::Stand,
        ];
        let chain = Family::Rectangle.generate(16, 0);
        for kind in kinds {
            let mut strategy = kind.build().expect("closed-chain strategy");
            strategy.init(&chain);
            assert!(!strategy.name().is_empty());
        }
        // Only the open-chain and Euclidean settings have no grid
        // closed-chain strategy; they still run like everything else.
        assert!(StrategyKind::OpenZip.build().is_none());
        assert!(StrategyKind::Hopper.build().is_none());
        assert!(StrategyKind::EuclidChain.build().is_none());
    }

    #[test]
    fn every_kind_runs() {
        for name in StrategyKind::ALL_NAMES {
            let kind = StrategyKind::from_name(name).unwrap();
            let report = run_scenario(&ScenarioSpec::strategy(Family::Rectangle, 16, 0, kind));
            // Stand stalls; every other kind finishes this tiny input.
            if name != "stand" {
                assert!(report.outcome.is_gathered(), "{name}: {:?}", report.outcome);
            }
            assert_eq!(report.audit.is_some(), name == "paper-audited", "{name}");
            assert_eq!(report.stats.is_some(), name == "paper", "{name}");
            assert_eq!(
                report.open.is_some(),
                name == "open-zip" || name == "hopper",
                "{name}"
            );
        }
    }

    #[test]
    fn boxed_paper_runs_on_the_engine() {
        let chain = Family::Rectangle.generate(24, 0);
        let n = chain.len();
        let strategy = StrategyKind::paper().build().unwrap();
        let mut sim = Sim::new(chain, strategy);
        let outcome = sim.run(RunLimits::for_chain_len(n));
        assert!(outcome.is_gathered());
    }

    /// Satellite: `from_closed_positions` round-trips under the unified
    /// pipeline — the open-chain kinds cut the *same* generated geometry open,
    /// and the reported final lengths are consistent with the cut chain.
    #[test]
    fn open_chain_round_trip_under_unified_driver() {
        let spec = ScenarioSpec::strategy(Family::Comb, 48, 2, StrategyKind::OpenZip);
        let chain = spec.generate();
        let cut = OpenChain::from_closed_positions(chain.positions()).unwrap();
        assert_eq!(cut.positions(), chain.positions());
        let r = run_scenario(&spec);
        let detail = r.open.expect("zip detail");
        assert_eq!(r.n, cut.len());
        assert_eq!(r.merges_total, cut.len() - detail.final_len);
        assert!(r.is_gathered());
        // The hopper on the same geometry reports the Manhattan optimum
        // between the cut's endpoints.
        let hop = run_scenario(&ScenarioSpec::strategy(
            Family::Comb,
            48,
            2,
            StrategyKind::Hopper,
        ));
        let a = cut.pos(0);
        let b = cut.pos(cut.len() - 1);
        assert_eq!(
            hop.open.unwrap().optimal_len,
            Some((a.x - b.x).unsigned_abs() as usize + (a.y - b.y).unsigned_abs() as usize + 1)
        );
    }

    #[test]
    fn audited_scenario_produces_summary() {
        let spec = ScenarioSpec::audited(Family::Rectangle, 48, 0);
        let r = run_scenario(&spec);
        assert!(r.is_gathered());
        let audit = r.audit.expect("audited runs carry a summary");
        assert!(audit.clean(), "rectangle audits must be clean");
        assert_eq!(r.merges_total, audit.total_merged_robots);
    }

    #[test]
    fn open_chain_scenarios_report_detail() {
        let zip = run_scenario(&ScenarioSpec::strategy(
            Family::Rectangle,
            32,
            0,
            StrategyKind::OpenZip,
        ));
        assert!(zip.open.is_some());
        assert!(zip.rounds().is_some());
        let hop = run_scenario(&ScenarioSpec::strategy(
            Family::Skyline,
            32,
            7,
            StrategyKind::Hopper,
        ));
        let detail = hop.open.expect("hopper detail");
        assert!(detail.optimal_len.is_some());
    }

    /// The probe is passive (identical fingerprints) and the shared slot
    /// ends finished with the run's final counters, for engine and
    /// open-chain kinds alike.
    #[test]
    fn probed_runs_match_and_publish_final_state() {
        let spec = ScenarioSpec::paper(Family::Rectangle, 32, 0);
        let slot = ProgressSlot::new();
        let probe = |slot: &Arc<ProgressSlot>| RunTaps {
            probe: Some(slot.clone()),
            ..RunTaps::default()
        };
        let probed = run_scenario_tapped(&spec, probe(&slot));
        assert_eq!(probed.fingerprint(), run_scenario(&spec).fingerprint());
        let snap = slot.snapshot();
        assert!(snap.finished);
        assert_eq!(snap.removed, probed.merges_total);
        assert_eq!(snap.len, probed.n - probed.merges_total);
        assert!(snap.round > 0);

        let zip = ScenarioSpec::strategy(Family::Rectangle, 32, 0, StrategyKind::OpenZip);
        let zslot = ProgressSlot::new();
        let z = run_scenario_tapped(&zip, probe(&zslot));
        let zs = zslot.snapshot();
        assert!(zs.finished);
        assert_eq!(zs.removed, z.merges_total);
    }

    #[test]
    fn determinism_same_spec_same_fingerprint() {
        let specs: Vec<ScenarioSpec> = Family::ALL
            .iter()
            .map(|&family| ScenarioSpec::paper(family, 40, 3))
            .collect();
        let a = run_batch_with(&specs, BatchOptions::default());
        let b = run_batch_with(&specs, BatchOptions::default());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fingerprint(), y.fingerprint(), "{:?}", x.spec);
        }
    }
}
