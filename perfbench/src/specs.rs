//! The three workloads as spec lists: a pure function of the workload
//! seed (every spec seed is drawn from it), plus the fingerprint tables
//! the outputs must match on the default seed.

use bench::{ScenarioSpec, SchedulerKind, StrategyKind};
use workloads::{Family, SplitMix64};

/// The seed whose outputs are pinned by the expected tables below.
pub const DEFAULT_SEED: u64 = 1;

/// What must be a pure function of a spec: `(n, rounds, merges_total,
/// longest_gap)`, as in `ScenarioResult::fingerprint`.
pub type Fingerprint = (usize, u64, usize, u64);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperEngine,
    KernelEuclid,
    ServiceMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperEngine,
        Workload::KernelEuclid,
        Workload::ServiceMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEngine => "paper-engine",
            Workload::KernelEuclid => "kernel-euclid",
            Workload::ServiceMix => "service-mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A labelled slice of an engine workload. Strata are sized so that each
/// takes a comparable share of a pass's wall time.
#[derive(Clone, Debug, PartialEq)]
pub struct Stratum {
    pub label: &'static str,
    pub specs: Vec<ScenarioSpec>,
}

/// `count` specs of one (family, strategy, scheduler) cell; `n` is drawn
/// uniformly from the inclusive range.
struct Cell {
    family: Family,
    n: (usize, usize),
    strategy: StrategyKind,
    scheduler: SchedulerKind,
    count: usize,
}

fn cell(
    family: Family,
    n: (usize, usize),
    strategy: StrategyKind,
    scheduler: SchedulerKind,
    count: usize,
) -> Cell {
    Cell {
        family,
        n,
        strategy,
        scheduler,
        count,
    }
}

/// A spec seed from the workload stream, kept below 2^52 so it survives
/// the wire's JSON numbers exactly.
fn spec_seed(rng: &mut SplitMix64) -> u64 {
    rng.next_u64() >> 12
}

fn draw(rng: &mut SplitMix64, cells: &[Cell]) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for c in cells {
        for _ in 0..c.count {
            let n = c.n.0 + rng.below((c.n.1 - c.n.0) as u64 + 1) as usize;
            specs.push(
                ScenarioSpec::strategy(c.family, n, spec_seed(rng), c.strategy)
                    .with_scheduler(c.scheduler),
            );
        }
    }
    specs
}

/// One independent stream per workload, so adding a stratum to one
/// workload never reshuffles another.
fn stream(seed: u64, workload: Workload) -> SplitMix64 {
    let salt = match workload {
        Workload::PaperEngine => 0x5041_5045_5200_0000,
        Workload::KernelEuclid => 0x4b45_524e_0000_0000,
        Workload::ServiceMix => 0x5345_5256_0000_0000,
    };
    SplitMix64::new(seed ^ salt)
}

/// The strata of an engine workload (empty for `service-mix`).
pub fn engine_strata(workload: Workload, seed: u64) -> Vec<Stratum> {
    use Family::{RandomLoop, Rectangle, Skyline};
    let fsync = SchedulerKind::Fsync;
    let rr2 = SchedulerKind::RoundRobin(2);
    let rand50 = SchedulerKind::Random(50);
    let kfair4 = SchedulerKind::KFair(4);
    let mut rng = stream(seed, workload);
    let mut stratum = |label, cells: Vec<Cell>| Stratum {
        label,
        specs: draw(&mut rng, &cells),
    };
    match workload {
        Workload::PaperEngine => {
            let paper = StrategyKind::paper();
            let ssync = StrategyKind::paper_ssync();
            // Each stratum takes about a third of a pass (~1 s). A
            // rectangle costs ~20x a skyline and ~50x a random loop of the
            // same size, so the counts differ by family; rectangles ignore
            // the seed, so their n is jittered instead. One rectangle at
            // n = 4096 takes 4 s, more than a whole pass, so the n4096
            // stratum runs skylines and random loops only.
            vec![
                stratum(
                    "n256",
                    vec![
                        cell(Rectangle, (248, 264), paper, fsync, 40),
                        cell(Skyline, (256, 256), paper, fsync, 250),
                        cell(RandomLoop, (256, 256), paper, fsync, 400),
                    ],
                ),
                stratum(
                    "n4096",
                    vec![
                        cell(Skyline, (4096, 4096), paper, fsync, 8),
                        cell(RandomLoop, (4096, 4096), paper, fsync, 30),
                    ],
                ),
                stratum(
                    "ssync",
                    vec![
                        cell(Rectangle, (1024, 1024), ssync, rr2, 2),
                        cell(Skyline, (1024, 1024), ssync, rr2, 10),
                        cell(RandomLoop, (1024, 1024), ssync, rr2, 20),
                        cell(Rectangle, (1024, 1024), ssync, kfair4, 1),
                        cell(Skyline, (1024, 1024), ssync, kfair4, 4),
                        cell(RandomLoop, (1024, 1024), ssync, kfair4, 10),
                    ],
                ),
            ]
        }
        Workload::KernelEuclid => {
            use StrategyKind::{CompassSe, EuclidChain, GlobalVision, NaiveLocal};
            // (rectangles, skylines, random loops) per cell, sized so
            // that every strategy x schedule cell takes a comparable share
            // (~0.45 s) of a pass. A rectangle's cost is fixed, a
            // skyline's moves a few percent with its seed and a random
            // loop's up to 2x, so each cell mixes families as its cost
            // allows. naive-local runs no 16384 rectangle (1.4 s, three
            // cells' worth), and under kfair4 a rectangle only: it
            // livelocks there on a few percent of skylines and random
            // loops. The cheap random loops are most of the scenarios, so
            // the latency p50 reads the compass-se SSYNC random loops.
            let cells = |n, cells: &[(StrategyKind, SchedulerKind, [usize; 3])]| -> Vec<Cell> {
                cells
                    .iter()
                    .flat_map(|&(k, s, counts)| {
                        [Rectangle, Skyline, RandomLoop]
                            .into_iter()
                            .zip(counts)
                            .filter(|&(_, count)| count > 0)
                            .map(move |(family, count)| cell(family, (n, n), k, s, count))
                    })
                    .collect()
            };
            vec![
                stratum(
                    "fsync16k",
                    cells(
                        16_384,
                        &[
                            (CompassSe, fsync, [0, 3, 60]),
                            (NaiveLocal, fsync, [0, 1, 4]),
                            // global-vision breaks the chain in round 0
                            // under every SSYNC schedule: FSYNC only.
                            (GlobalVision, fsync, [1, 2, 4]),
                        ],
                    ),
                ),
                stratum(
                    "ssync4k",
                    cells(
                        4096,
                        &[
                            (CompassSe, rr2, [4, 10, 300]),
                            (CompassSe, rand50, [3, 10, 100]),
                            (CompassSe, kfair4, [3, 8, 60]),
                            (NaiveLocal, rr2, [1, 4, 20]),
                            (NaiveLocal, rand50, [0, 2, 24]),
                            (NaiveLocal, kfair4, [1, 0, 0]),
                        ],
                    ),
                ),
                stratum("euclid4k", cells(4096, &[(EuclidChain, fsync, [1, 1, 10])])),
            ]
        }
        Workload::ServiceMix => Vec::new(),
    }
}

/// The `service-mix` inputs: a warm set of distinct specs loaded into the
/// cache during set-up (the hit targets), and the base seed of the miss
/// stream.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceInputs {
    pub warm: Vec<ScenarioSpec>,
    pub miss_seed_base: u64,
}

/// Warm-set size: hits spread over this many cached rows.
pub const WARM_SPECS: usize = 64;

pub fn service_inputs(seed: u64) -> ServiceInputs {
    let mut rng = stream(seed, Workload::ServiceMix);
    let families = [
        Family::Rectangle,
        Family::Skyline,
        Family::RandomLoop,
        Family::Comb,
    ];
    let kinds = [
        (StrategyKind::paper(), SchedulerKind::Fsync),
        (StrategyKind::paper_ssync(), SchedulerKind::RoundRobin(2)),
        (StrategyKind::CompassSe, SchedulerKind::Fsync),
        (StrategyKind::NaiveLocal, SchedulerKind::Random(50)),
        (StrategyKind::GlobalVision, SchedulerKind::Fsync),
        (StrategyKind::EuclidChain, SchedulerKind::Fsync),
    ];
    // Every slot has a fixed kind, family and size, so the set-up costs
    // about the same whatever the seed.
    let mut warm: Vec<ScenarioSpec> = Vec::with_capacity(WARM_SPECS);
    while warm.len() < WARM_SPECS {
        let slot = warm.len();
        let (strategy, scheduler) = kinds[slot % kinds.len()];
        let family = families[(slot / kinds.len()) % families.len()];
        let spec = ScenarioSpec::strategy(family, 64, spec_seed(&mut rng), strategy)
            .with_scheduler(scheduler);
        if !warm.contains(&spec) {
            warm.push(spec);
        }
    }
    ServiceInputs {
        warm,
        miss_seed_base: spec_seed(&mut rng),
    }
}

/// The `k`-th miss: a distinct-seed rectangle `n = 256` paper spec, so
/// every miss costs the same simulation.
pub fn miss_spec(base: u64, k: u64) -> ScenarioSpec {
    ScenarioSpec::paper(Family::Rectangle, 256, base + k)
}

/// FNV-1a over the rendered fingerprints: one number per stratum that
/// changes if any scenario in it changes.
pub fn digest(fps: &[Fingerprint]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (n, rounds, merges, gap) in fps {
        for byte in format!("{n},{rounds},{merges},{gap};").bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Expected `(label, scenario count, digest)` per stratum on
/// [`DEFAULT_SEED`]; regenerate with `--print-expected`.
pub fn expected(workload: Workload) -> &'static [(&'static str, usize, u64)] {
    match workload {
        Workload::PaperEngine => &[
            ("n256", 690, 0xe531_bca7_df54_0b53),
            ("n4096", 38, 0x646c_880d_9ee3_a50a),
            ("ssync", 47, 0x8af3_e2bc_0644_bff7),
        ],
        Workload::KernelEuclid => &[
            ("fsync16k", 75, 0x41f0_6368_ebf2_6921),
            ("ssync4k", 550, 0x5051_cfb4_7bc2_aac5),
            ("euclid4k", 12, 0xa7d6_750e_0b02_4757),
        ],
        Workload::ServiceMix => &[
            ("warm", 64, 0x68fe_ebe5_3297_b5e9),
            ("miss", 1, 0x8b1b_2b46_e450_f1d7),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_lists_are_a_pure_function_of_the_seed() {
        for w in [Workload::PaperEngine, Workload::KernelEuclid] {
            assert_eq!(engine_strata(w, 7), engine_strata(w, 7));
            assert_ne!(engine_strata(w, 7), engine_strata(w, 8));
        }
        assert_eq!(service_inputs(7), service_inputs(7));
        assert_ne!(service_inputs(7), service_inputs(8));
        assert_eq!(miss_spec(5, 2), miss_spec(5, 2));
    }

    #[test]
    fn every_spec_seed_derives_from_the_workload_seed() {
        let seeds = |seed| -> Vec<u64> {
            engine_strata(Workload::PaperEngine, seed)
                .iter()
                .flat_map(|s| s.specs.iter().map(|spec| spec.seed))
                .collect()
        };
        let (a, b) = (seeds(3), seeds(4));
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
        assert!(a.iter().all(|&s| s < 1 << 52));
    }

    #[test]
    fn warm_set_is_distinct_and_valid() {
        let inputs = service_inputs(DEFAULT_SEED);
        assert_eq!(inputs.warm.len(), WARM_SPECS);
        for (i, spec) in inputs.warm.iter().enumerate() {
            assert!(spec.geometry_error().is_none(), "{spec:?}");
            assert!(!inputs.warm[..i].contains(spec));
        }
    }
}
