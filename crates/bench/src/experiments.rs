//! The paper-reproduction experiments (tables T1–T12 of DESIGN.md §4).
//!
//! Every table corresponds to a claim or construction of the paper; the
//! table's note states the expected *shape* and the success criterion. The
//! harness never asserts — EXPERIMENTS.md records measured vs expected —
//! but `tests/` contains hard assertions for the load-bearing claims.
//!
//! Every table is produced the same way: enumerate one [`ScenarioSpec`]
//! per experiment cell, execute the whole grid with [`run_batch_with`] (one
//! parallel fan-out per table), then fold the ordered
//! [`ScenarioResult`]s into rows.

use crate::scenario::{run_batch_with, BatchOptions, ScenarioResult, ScenarioSpec, StrategyKind};
use crate::Table;
use chain_sim::SchedulerKind;
use gathering_core::GatherConfig;
use workloads::Family;

/// Which workload families an experiment run covers — the `experiments`
/// binary's `--family` flag. The default ([`FamilySelection::all`]) keeps
/// every table's built-in family list; a restricted selection intersects
/// with it (tables keep their own ordering, and a table none of whose
/// families are selected simply emits no rows).
#[derive(Clone, Debug, Default)]
pub struct FamilySelection(Option<Vec<Family>>);

impl FamilySelection {
    /// No restriction: every table uses its built-in families.
    pub fn all() -> Self {
        FamilySelection(None)
    }

    /// Restrict to exactly these families.
    pub fn only(families: Vec<Family>) -> Self {
        FamilySelection(Some(families))
    }

    /// Parse registry names ([`Family::name`]); returns the unknown names
    /// if any fail (callers print the inventory and bail). An empty name
    /// list means no restriction.
    pub fn parse(names: &[String]) -> Result<Self, Vec<String>> {
        if names.is_empty() {
            return Ok(Self::all());
        }
        let mut families = Vec::new();
        let mut unknown = Vec::new();
        for name in names {
            match Family::from_name(name) {
                Some(f) => families.push(f),
                None => unknown.push(name.clone()),
            }
        }
        if unknown.is_empty() {
            Ok(Self::only(families))
        } else {
            Err(unknown)
        }
    }

    /// Intersect a table's built-in family list with the selection,
    /// preserving the table's order.
    pub fn pick(&self, defaults: &[Family]) -> Vec<Family> {
        match &self.0 {
            None => defaults.to_vec(),
            Some(sel) => defaults
                .iter()
                .copied()
                .filter(|f| sel.contains(f))
                .collect(),
        }
    }
}

/// Experiment effort: quick for CI smoke, full for the real tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// CI smoke sizes: small ladder, few seeds.
    Quick,
    /// The real tables (what EXPERIMENTS.md records).
    Full,
}

impl Effort {
    fn sizes(&self) -> &'static [usize] {
        match self {
            Effort::Quick => &[64, 128, 256],
            Effort::Full => &[64, 128, 256, 512, 1024, 2048],
        }
    }

    fn seeds(&self) -> u64 {
        match self {
            Effort::Quick => 2,
            Effort::Full => 5,
        }
    }

    fn audit_n(&self) -> usize {
        match self {
            Effort::Quick => 128,
            Effort::Full => 384,
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn outcome_cell(r: &ScenarioResult) -> String {
    match r.rounds() {
        Some(rounds) => rounds.to_string(),
        None => "stall".to_string(),
    }
}

/// T1 — Theorem 1: gathering completes and the round count is linear in n.
pub fn t1_theorem1(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T1",
        "Theorem 1: rounds to gather vs n (paper bound 2Ln + n = 27n)",
        &[
            "family",
            "n",
            "runs",
            "rounds(avg)",
            "rounds/n",
            "bound?",
            "gap(max)",
        ],
    );
    let l = GatherConfig::paper().l_period;
    let seeds = e.seeds();
    let specs: Vec<ScenarioSpec> = sel
        .pick(&Family::ALL)
        .into_iter()
        .flat_map(|fam| {
            e.sizes().iter().flat_map(move |&size| {
                (0..seeds).map(move |seed| ScenarioSpec::paper(fam, size, seed))
            })
        })
        .collect();
    let results = run_batch_with(&specs, BatchOptions::default());
    for group in results.chunks(seeds as usize) {
        let fam = group[0].spec.family;
        let n_avg = mean(&group.iter().map(|r| r.n as f64).collect::<Vec<_>>());
        let ok: Vec<&ScenarioResult> = group.iter().filter(|r| r.is_gathered()).collect();
        let failed = group.len() - ok.len();
        let rounds = mean(
            &ok.iter()
                .filter_map(|r| r.rounds().map(|x| x as f64))
                .collect::<Vec<_>>(),
        );
        let ratio = rounds / n_avg;
        let bound_ok = failed == 0 && ratio <= (2 * l + 1) as f64;
        let gap = group.iter().map(|r| r.longest_gap).max().unwrap_or(0);
        t.row(vec![
            fam.name().to_string(),
            format!("{n_avg:.0}"),
            format!(
                "{}{}",
                group.len(),
                if failed > 0 {
                    format!(" ({failed} FAIL)")
                } else {
                    String::new()
                }
            ),
            format!("{rounds:.0}"),
            format!("{ratio:.2}"),
            if bound_ok { "yes".into() } else { "NO".into() },
            gap.to_string(),
        ]);
    }
    t.note(
        "Expected shape: rounds/n converges to a family constant far below 27; all runs gather.",
    );
    t
}

/// T2 — Lemma 1: every L = 13 rounds a merge happened or a new progress
/// pair started.
pub fn t2_lemma1(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T2",
        "Lemma 1: L-window accounting (merge or new progress pair)",
        &[
            "family",
            "n",
            "seed",
            "rounds",
            "windows",
            "violations",
            "longest gap",
        ],
    );
    let l = GatherConfig::paper().l_period;
    let specs: Vec<ScenarioSpec> = sel
        .pick(&Family::ALL)
        .into_iter()
        .flat_map(|fam| {
            (0..e.seeds().min(3)).map(move |seed| ScenarioSpec::audited(fam, e.audit_n(), seed))
        })
        .collect();
    for r in run_batch_with(&specs, BatchOptions::default()) {
        let s = r.audit.as_ref().expect("audited spec");
        t.row(vec![
            r.spec.family.name().to_string(),
            r.n.to_string(),
            r.spec.seed.to_string(),
            format!(
                "{}{}",
                r.outcome.rounds(),
                if r.is_gathered() { "" } else { " (FAIL)" }
            ),
            (s.rounds / l).to_string(),
            s.lemma1_violations.len().to_string(),
            s.longest_mergeless_gap.to_string(),
        ]);
    }
    t.note("Expected: zero violations — every 13-round window shows a merge or starts a progress pair.");
    t
}

/// T3 — Lemma 2: progress pairs enable merges within ≤ n rounds.
pub fn t3_lemma2(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T3",
        "Lemma 2: progress pairs enable (distinct) merges within n rounds",
        &[
            "family",
            "n",
            "pairs",
            "good",
            "progress",
            "merged",
            "max latency",
            "latency ≤ n?",
        ],
    );
    let specs: Vec<ScenarioSpec> = sel
        .pick(&Family::ALL)
        .into_iter()
        .map(|fam| ScenarioSpec::audited(fam, e.audit_n(), 1))
        .collect();
    for r in run_batch_with(&specs, BatchOptions::default()) {
        let s = r.audit.as_ref().expect("audited spec");
        t.row(vec![
            r.spec.family.name().to_string(),
            r.n.to_string(),
            s.pairs_started.to_string(),
            s.good_pairs.to_string(),
            s.progress_pairs.to_string(),
            s.progress_pairs_merged.to_string(),
            s.max_pair_latency.to_string(),
            if s.max_pair_latency <= r.n as u64 {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
    }
    t.note("Expected: progress pairs are credited with merges; latency stays ≤ n (pairs outstanding at gathering time are not counted).");
    t
}

/// T4 — Lemma 3: run invariants hold every round.
pub fn t4_lemma3(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T4",
        "Lemma 3: run invariants (speed 1; no sequent run visible ahead)",
        &[
            "family",
            "n",
            "rounds",
            "speed viol.",
            "sequent viol.",
            "clean?",
        ],
    );
    let specs: Vec<ScenarioSpec> = sel
        .pick(&Family::ALL)
        .into_iter()
        .map(|fam| ScenarioSpec::audited(fam, e.audit_n(), 2))
        .collect();
    for r in run_batch_with(&specs, BatchOptions::default()) {
        let s = r.audit.as_ref().expect("audited spec");
        t.row(vec![
            r.spec.family.name().to_string(),
            r.n.to_string(),
            r.outcome.rounds().to_string(),
            s.speed_violations.to_string(),
            s.sequent_visibility_violations.to_string(),
            if s.speed_violations == 0 && s.sequent_visibility_violations == 0 {
                "yes".to_string()
            } else {
                "NO".into()
            },
        ]);
    }
    t.note("Expected: zero violations of Lemma 3.1 (every run moves one robot per round) and 3.3 (no sequent run in view ahead).");
    t
}

/// T5 — Fig. 9: pipelining — many runs work in parallel.
pub fn t5_pipelining(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T5",
        "Pipelining (Fig. 9): parallel runs and their work profile",
        &[
            "family", "n", "starts", "max live", "folds", "walks", "passings",
        ],
    );
    let specs: Vec<ScenarioSpec> = sel
        .pick(&[
            Family::Rectangle,
            Family::Comb,
            Family::Spiral,
            Family::Serpentine,
            Family::StaircaseDiamond,
        ])
        .into_iter()
        .map(|fam| ScenarioSpec::paper(fam, e.audit_n(), 3))
        .collect();
    for r in run_batch_with(&specs, BatchOptions::default()) {
        let stats = r.stats.as_ref().expect("paper runs carry stats");
        t.row(vec![
            r.spec.family.name().to_string(),
            r.n.to_string(),
            stats.started_total().to_string(),
            stats.max_live_runs.to_string(),
            stats.folds.to_string(),
            stats.walks.to_string(),
            stats.passings_started.to_string(),
        ]);
    }
    t.note(
        "Expected: max live runs well above 2 (new generations every 13 rounds work concurrently).",
    );
    t
}

/// T6 — Section 5.1 / Fig. 16–18: mergeless chains always develop good
/// pairs (the structural heart of Lemma 1's proof).
pub fn t6_goodpairs(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T6",
        "Good pairs in mergeless phases (Fig. 17/18 argument)",
        &[
            "family",
            "n",
            "mergeless start-rounds",
            "with good pair",
            "without",
        ],
    );
    let specs: Vec<ScenarioSpec> = sel
        .pick(&[
            Family::StaircaseDiamond,
            Family::Crenellated,
            Family::Comb,
            Family::Skyline,
        ])
        .into_iter()
        .map(|fam| ScenarioSpec::audited(fam, e.audit_n(), 4))
        .collect();
    for r in run_batch_with(&specs, BatchOptions::default()) {
        let s = r.audit.as_ref().expect("audited spec");
        // Progress pairs are exactly good pairs started in mergeless
        // windows; lemma1_violations counts mergeless windows without one.
        let without = s.lemma1_violations.len();
        let with = s.progress_pairs;
        t.row(vec![
            r.spec.family.name().to_string(),
            r.n.to_string(),
            (with + without).to_string(),
            with.to_string(),
            without.to_string(),
        ]);
    }
    t.note("Expected: 'without' is zero — a mergeless chain cannot close without offering a good pair.");
    t
}

/// T7 — Section 1: what global information would buy (baseline race).
pub fn t7_baselines(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T7",
        "Baselines: rounds to gather (same inputs)",
        &[
            "family",
            "n",
            "paper (local)",
            "global-vision",
            "compass-se",
            "naive-local*",
        ],
    );
    const RACE: [StrategyKind; 3] = [
        StrategyKind::GlobalVision,
        StrategyKind::CompassSe,
        StrategyKind::NaiveLocal,
    ];
    let size = e.audit_n();
    let specs: Vec<ScenarioSpec> = sel
        .pick(&[
            Family::Rectangle,
            Family::Skyline,
            Family::RandomLoop,
            Family::HairpinFlower,
        ])
        .into_iter()
        .flat_map(|fam| {
            std::iter::once(ScenarioSpec::paper(fam, size, 5)).chain(
                RACE.iter()
                    .map(move |&kind| ScenarioSpec::strategy(fam, size, 5, kind)),
            )
        })
        .collect();
    let results = run_batch_with(&specs, BatchOptions::default());
    for group in results.chunks(1 + RACE.len()) {
        let mut row = vec![
            group[0].spec.family.name().to_string(),
            group[0].n.to_string(),
        ];
        row.extend(group.iter().map(outcome_cell));
        t.row(row);
    }
    t.note("Global vision gathers in Θ(diameter) — the information the local model lacks. *naive-local needs a global safety oracle (inadmissible); shown for reference.");
    t
}

/// T8 — the \[KM09\] relation: open chains are easy (zip), closed chains pay
/// a constant factor for indistinguishability.
pub fn t8_open_vs_closed(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T8",
        "Open-chain zip [KM09 setting] vs closed-chain algorithm (same geometry)",
        &[
            "family",
            "n",
            "open zip rounds",
            "closed rounds",
            "closed/open",
        ],
    );
    let specs: Vec<ScenarioSpec> = sel
        .pick(&[Family::Rectangle, Family::Skyline, Family::Comb])
        .into_iter()
        .flat_map(|fam| {
            e.sizes()[..e.sizes().len().min(4)]
                .iter()
                .flat_map(move |&size| {
                    [
                        ScenarioSpec::strategy(fam, size, 6, StrategyKind::OpenZip),
                        ScenarioSpec::paper(fam, size, 6),
                    ]
                })
        })
        .collect();
    let results = run_batch_with(&specs, BatchOptions::default());
    for pair in results.chunks(2) {
        let (zip, closed) = (&pair[0], &pair[1]);
        let zip_rounds = zip.open.expect("zip detail").rounds;
        let ratio = closed
            .rounds()
            .map(|r| format!("{:.1}", r as f64 / zip_rounds.max(1) as f64))
            .unwrap_or_else(|| "-".into());
        t.row(vec![
            closed.spec.family.name().to_string(),
            closed.n.to_string(),
            zip_rounds.to_string(),
            outcome_cell(closed),
            ratio,
        ]);
    }
    t.note("Both linear; the closed chain's factor is the price of indistinguishable robots (no endpoints).");
    t
}

/// T8b — the Manhattan Hopper \[KM09\]: fixed-endpoint open chains reach
/// the optimal (Manhattan-shortest) length.
pub fn t8b_hopper(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T8b",
        "Manhattan Hopper [KM09 setting]: open chain with fixed endpoints reaches optimal length",
        &[
            "family (cut open)",
            "n",
            "rounds",
            "final len",
            "optimal len",
            "optimal?",
        ],
    );
    let specs: Vec<ScenarioSpec> = sel
        .pick(&[Family::Skyline, Family::Comb, Family::StaircaseDiamond])
        .into_iter()
        .map(|fam| ScenarioSpec::strategy(fam, e.audit_n(), 7, StrategyKind::Hopper))
        .collect();
    for r in run_batch_with(&specs, BatchOptions::default()) {
        let out = r.open.expect("hopper detail");
        let optimal = out.optimal_len.expect("hopper reports the optimum");
        t.row(vec![
            r.spec.family.name().to_string(),
            r.n.to_string(),
            out.rounds.to_string(),
            out.final_len.to_string(),
            optimal.to_string(),
            if out.final_len == optimal {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
    }
    t.note("[KM09]'s grid result: the open chain contracts to a Manhattan-shortest path between its fixed endpoints.");
    t
}

/// T9 — ablation of the paper's constants (L = 13, V = 11, merge length).
pub fn t9_ablation(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T9",
        "Ablation: pipelining period L, viewing path length V, merge bound k",
        &["config", "gathered", "of", "worst rounds/n"],
    );
    let suite: Vec<(Family, usize, u64)> = {
        let mut v = Vec::new();
        for fam in sel.pick(&[
            Family::Rectangle,
            Family::Skyline,
            Family::RandomLoop,
            Family::StaircaseDiamond,
        ]) {
            for seed in 0..e.seeds().min(3) {
                v.push((fam, e.audit_n() / 2, seed));
            }
        }
        v
    };
    let configs: Vec<(String, GatherConfig)> = vec![
        ("paper (L=13,V=11,k=10)".into(), GatherConfig::paper()),
        (
            "L=7".into(),
            GatherConfig {
                l_period: 7,
                ..GatherConfig::paper()
            },
        ),
        (
            "L=26".into(),
            GatherConfig {
                l_period: 26,
                ..GatherConfig::paper()
            },
        ),
        (
            "V=7".into(),
            GatherConfig {
                view: 7,
                max_merge_k: 6,
                ..GatherConfig::paper()
            },
        ),
        (
            "V=15".into(),
            GatherConfig {
                view: 15,
                max_merge_k: 14,
                ..GatherConfig::paper()
            },
        ),
        ("k=2 (proof mode)".into(), GatherConfig::proof_mode()),
        (
            "k=3".into(),
            GatherConfig {
                max_merge_k: 3,
                ..GatherConfig::paper()
            },
        ),
        (
            "no op-c walk".into(),
            GatherConfig {
                op_c_walk: false,
                ..GatherConfig::paper()
            },
        ),
        (
            "no cond2 guard".into(),
            GatherConfig {
                cond2_guard: false,
                ..GatherConfig::paper()
            },
        ),
    ];
    if suite.is_empty() {
        // Family selection excluded every ablation input.
        return t;
    }
    let specs: Vec<ScenarioSpec> = configs
        .iter()
        .flat_map(|(_, cfg)| {
            suite
                .iter()
                .map(move |&(fam, n, seed)| ScenarioSpec::with_config(fam, n, seed, *cfg))
        })
        .collect();
    let results = run_batch_with(&specs, BatchOptions::default());
    for ((name, _), group) in configs.iter().zip(results.chunks(suite.len())) {
        let gathered = group.iter().filter(|r| r.is_gathered()).count();
        let worst = group
            .iter()
            .filter_map(|r| r.rounds().map(|x| x as f64 / r.n as f64))
            .fold(0.0f64, f64::max);
        t.row(vec![
            name.clone(),
            gathered.to_string(),
            group.len().to_string(),
            format!("{worst:.2}"),
        ]);
    }
    t.note("Expected: k=2 stalls (odd remnants are unmergeable and unfoldable — the Lemma 1 proof's k≤2 is analytical, not algorithmic); k≥3 and all L/V variants gather.");
    t
}

/// T10 — oscillation suppression (DESIGN.md §2.3): how often the symmetry
/// breaker fires per family, and whether every input still gathers.
pub fn t10_suppression(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T10",
        "Oscillation suppression activity (symmetry breaker for closed merge-interference cycles)",
        &["family", "n", "rounds", "suppression triggers", "gathered?"],
    );
    let specs: Vec<ScenarioSpec> = sel
        .pick(&Family::ALL)
        .into_iter()
        .map(|fam| ScenarioSpec::paper(fam, e.audit_n(), 2))
        .collect();
    for r in run_batch_with(&specs, BatchOptions::default()) {
        let stats = r.stats.as_ref().expect("paper runs carry stats");
        t.row(vec![
            r.spec.family.name().to_string(),
            r.n.to_string(),
            r.outcome.rounds().to_string(),
            stats.suppressions.to_string(),
            if r.is_gathered() {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
    }
    t.note("Suppression fires on period-2 swap states (closed interference cycles, common in late-stage dense blobs), and every input still gathers. It also fires on runs that would gather without it, and there it costs rounds: 13% more over 600 paper-mode runs that gather either way (DESIGN.md §2.3).");
    t
}

/// T11 — scheduler robustness: which strategies survive semi-synchrony
/// (SSYNC activation schedules), and at what round-count cost.
pub fn t11_schedulers(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T11",
        "Scheduler robustness: outcomes and round cost under SSYNC activation schedules",
        &[
            "family",
            "n",
            "strategy",
            "fsync",
            "rr2",
            "rand50",
            "kfair4",
            "worst/fsync",
        ],
    );
    let race = [
        StrategyKind::paper(),
        StrategyKind::GlobalVision,
        StrategyKind::CompassSe,
        StrategyKind::NaiveLocal,
    ];
    let size = e.audit_n() / 2;
    let specs: Vec<ScenarioSpec> = sel
        .pick(&[Family::Rectangle, Family::Skyline, Family::RandomLoop])
        .into_iter()
        .flat_map(|fam| {
            race.into_iter().flat_map(move |kind| {
                SchedulerKind::SWEEP.into_iter().map(move |sched| {
                    ScenarioSpec::strategy(fam, size, 8, kind).with_scheduler(sched)
                })
            })
        })
        .collect();
    let results = run_batch_with(&specs, BatchOptions::default());
    for group in results.chunks(SchedulerKind::SWEEP.len()) {
        let mut row = vec![
            group[0].spec.family.name().to_string(),
            group[0].n.to_string(),
            group[0].spec.strategy.name().to_string(),
        ];
        let cell = |r: &ScenarioResult| match r.rounds() {
            Some(rounds) => rounds.to_string(),
            None => match r.outcome {
                chain_sim::Outcome::Stalled { .. } => "stalled".to_string(),
                chain_sim::Outcome::RoundLimit { .. } => "round-limit".to_string(),
                chain_sim::Outcome::ChainBroken { .. } => "BROKEN".to_string(),
                chain_sim::Outcome::Gathered { .. } => unreachable!(),
            },
        };
        row.extend(group.iter().map(cell));
        // Worst gathered SSYNC cost relative to FSYNC; '-' once anything
        // failed (a broken chain has no meaningful round cost).
        let fsync_rounds = group[0].rounds();
        let worst = group[1..].iter().filter_map(ScenarioResult::rounds).max();
        row.push(
            match (fsync_rounds, worst, group.iter().all(|r| r.is_gathered())) {
                (Some(f), Some(w), true) => format!("{:.1}", w as f64 / f.max(1) as f64),
                _ => "-".to_string(),
            },
        );
        t.row(row);
    }
    t.note(
        "Expected: strategies whose per-robot moves preserve adjacency unilaterally \
         (compass-se, naive-local) gather under every schedule at ~slowdown-proportional \
         cost; strategies relying on synchronized neighbor motion (paper, global-vision) \
         break the chain under SSYNC — the paper's FSYNC assumption is load-bearing.",
    );
    t
}

/// T12 — the SSYNC repair: `paper-ssync` (the paper's rule inside the
/// chain-safety guard, with the adaptive SE-drain fallback) gathers under
/// every scheduler of [`SchedulerKind::SWEEP`]; the table quantifies the
/// FSYNC→SSYNC round-count slowdown. The `paper parity` column pins the
/// FSYNC-passivity contract at experiment level: under FSYNC the wrapper
/// must cost exactly what the unwrapped paper rule costs.
pub fn t12_ssync_repair(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T12",
        "SSYNC repair: paper-ssync outcome and FSYNC→SSYNC round-count slowdown",
        &[
            "family",
            "n",
            "fsync",
            "rr2",
            "rand50",
            "kfair4",
            "worst/fsync",
            "paper parity",
        ],
    );
    let size = e.audit_n() / 2;
    let families = sel.pick(&[Family::Rectangle, Family::Skyline, Family::RandomLoop]);
    let specs: Vec<ScenarioSpec> = families
        .iter()
        .flat_map(|&fam| {
            SchedulerKind::SWEEP.into_iter().map(move |sched| {
                ScenarioSpec::strategy(fam, size, 8, StrategyKind::paper_ssync())
                    .with_scheduler(sched)
            })
        })
        .collect();
    // FSYNC reference runs of the unwrapped paper rule, one per family.
    let reference: Vec<ScenarioSpec> = families
        .iter()
        .map(|&fam| ScenarioSpec::paper(fam, size, 8))
        .collect();
    let results = run_batch_with(&specs, BatchOptions::default());
    let reference = run_batch_with(&reference, BatchOptions::default());
    for (group, paper) in results.chunks(SchedulerKind::SWEEP.len()).zip(&reference) {
        let mut row = vec![
            group[0].spec.family.name().to_string(),
            group[0].n.to_string(),
        ];
        row.extend(group.iter().map(|r| match r.rounds() {
            Some(rounds) => rounds.to_string(),
            None => match r.outcome {
                chain_sim::Outcome::Stalled { .. } => "stalled".to_string(),
                chain_sim::Outcome::RoundLimit { .. } => "round-limit".to_string(),
                chain_sim::Outcome::ChainBroken { .. } => "BROKEN".to_string(),
                chain_sim::Outcome::Gathered { .. } => unreachable!(),
            },
        }));
        let fsync_rounds = group[0].rounds();
        let worst = group[1..].iter().filter_map(ScenarioResult::rounds).max();
        row.push(
            match (fsync_rounds, worst, group.iter().all(|r| r.is_gathered())) {
                (Some(f), Some(w), true) => format!("{:.1}", w as f64 / f.max(1) as f64),
                _ => "-".to_string(),
            },
        );
        row.push(if fsync_rounds == paper.rounds() {
            "exact".to_string()
        } else {
            format!("DIVERGED ({:?} vs {:?})", fsync_rounds, paper.rounds())
        });
        t.row(row);
    }
    t.note(
        "Expected: every cell gathers (the guard makes the paper rule safe, the fallback \
         keeps it live), the FSYNC column matches the unwrapped paper exactly (the guard \
         cancels nothing on FSYNC-safe hop sets), and SSYNC cost stays within a small \
         multiple of the scheduler's inverse duty cycle.",
    );
    t
}

/// T13 — geometry backends: the same workload families gathered on the
/// grid (paper rule) and lifted to the Euclidean plane (fold/reflect
/// chain strategy). The rounds/n columns are the point: both backends
/// gather in linear time, with the constant reported per family.
pub fn t13_geometry(e: Effort, sel: &FamilySelection) -> Table {
    let mut t = Table::new(
        "T13",
        "Geometry backends: grid (paper) vs Euclidean (euclid-chain) rounds to gather",
        &[
            "family",
            "n",
            "grid rounds",
            "euclid rounds",
            "grid r/n",
            "euclid r/n",
            "euclid max travel",
        ],
    );
    let families = sel.pick(&[Family::Rectangle, Family::Skyline, Family::RandomLoop]);
    for &fam in &families {
        for &n in e.sizes() {
            let grid = ScenarioSpec::paper(fam, n, 8);
            let euclid = ScenarioSpec::euclid(fam, n, 8);
            let results = run_batch_with(&[grid, euclid], BatchOptions::default());
            let (g, u) = (&results[0], &results[1]);
            let cell = |r: &ScenarioResult| match r.rounds() {
                Some(rounds) => rounds.to_string(),
                None => format!("{:?}", r.outcome),
            };
            let per_n = |r: &ScenarioResult| match r.rounds() {
                Some(rounds) => format!("{:.2}", rounds as f64 / r.n as f64),
                None => "-".to_string(),
            };
            t.row(vec![
                fam.name().to_string(),
                g.n.to_string(),
                cell(g),
                cell(u),
                per_n(g),
                per_n(u),
                match u.max_travel {
                    Some(d) => format!("{d:.1}"),
                    None => "-".to_string(),
                },
            ]);
        }
    }
    t.note(
        "Expected: both backends gather every cell with rounds/n flat across the ladder \
         (linear-time gathering on either geometry); the Euclidean constant sits well \
         below 1 (contraction rounds transport Θ(1) distance per round). Max travel is \
         the min-max objective: the farthest distance any single robot walked.",
    );
    t
}

/// The table inventory, in presentation order (the valid values of the
/// experiments binary's `--table` flag, matched case-insensitively).
pub const TABLE_IDS: [&str; 14] = [
    "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T8b", "T9", "T10", "T11", "T12", "T13",
];

/// Compute one table by its id (case-insensitive); `None` for ids outside
/// [`TABLE_IDS`]. Unlike filtering [`all_tables`], this runs only the
/// requested table's scenarios (restricted further by the family
/// selection).
pub fn table_by_id(id: &str, e: Effort, sel: &FamilySelection) -> Option<Table> {
    match id.to_uppercase().as_str() {
        "T1" => Some(t1_theorem1(e, sel)),
        "T2" => Some(t2_lemma1(e, sel)),
        "T3" => Some(t3_lemma2(e, sel)),
        "T4" => Some(t4_lemma3(e, sel)),
        "T5" => Some(t5_pipelining(e, sel)),
        "T6" => Some(t6_goodpairs(e, sel)),
        "T7" => Some(t7_baselines(e, sel)),
        "T8" => Some(t8_open_vs_closed(e, sel)),
        "T8B" => Some(t8b_hopper(e, sel)),
        "T9" => Some(t9_ablation(e, sel)),
        "T10" => Some(t10_suppression(e, sel)),
        "T11" => Some(t11_schedulers(e, sel)),
        "T12" => Some(t12_ssync_repair(e, sel)),
        "T13" => Some(t13_geometry(e, sel)),
        _ => None,
    }
}

/// All tables in order, unrestricted families.
pub fn all_tables(e: Effort) -> Vec<Table> {
    let sel = FamilySelection::all();
    TABLE_IDS
        .iter()
        .map(|id| table_by_id(id, e, &sel).expect("inventory ids all dispatch"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> FamilySelection {
        FamilySelection::all()
    }

    #[test]
    fn quick_t5_runs() {
        let t = t5_pipelining(Effort::Quick, &all());
        assert_eq!(t.rows.len(), 5);
    }

    #[test]
    fn quick_t7_has_all_columns() {
        let t = t7_baselines(Effort::Quick, &all());
        assert_eq!(t.header.len(), 6);
        assert!(!t.rows.is_empty());
    }

    #[test]
    fn quick_t1_groups_by_family_and_size() {
        let e = Effort::Quick;
        let t = t1_theorem1(e, &all());
        assert_eq!(t.rows.len(), Family::ALL.len() * e.sizes().len());
    }

    #[test]
    fn quick_t9_has_one_row_per_config() {
        let t = t9_ablation(Effort::Quick, &all());
        assert_eq!(t.rows.len(), 9);
    }

    #[test]
    fn quick_t11_covers_strategies_and_schedules() {
        let t = t11_schedulers(Effort::Quick, &all());
        // 3 families × 4 strategies, one column per scheduler.
        assert_eq!(t.rows.len(), 12);
        assert_eq!(t.header.len(), 3 + SchedulerKind::SWEEP.len() + 1);
        // The FSYNC column is the control: every strategy gathers there.
        for row in &t.rows {
            assert!(
                row[3].parse::<u64>().is_ok(),
                "fsync cell must be a round count: {row:?}"
            );
        }
        // SSYNC survivors exist, and so do casualties — the table is not
        // degenerate in either direction.
        let kfair: Vec<&str> = t.rows.iter().map(|r| r[6].as_str()).collect();
        assert!(kfair.iter().any(|c| c.parse::<u64>().is_ok()));
        assert!(kfair.contains(&"BROKEN"));
    }

    #[test]
    fn quick_t12_gathers_everywhere_with_fsync_parity() {
        let t = t12_ssync_repair(Effort::Quick, &all());
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.header.len(), 2 + SchedulerKind::SWEEP.len() + 2);
        for row in &t.rows {
            // Every scheduler cell is a round count — no BROKEN, no stall.
            for cell in &row[2..2 + SchedulerKind::SWEEP.len()] {
                assert!(
                    cell.parse::<u64>().is_ok(),
                    "paper-ssync failed a scheduler: {row:?}"
                );
            }
            assert_eq!(row[7], "exact", "FSYNC passivity broke: {row:?}");
        }
    }

    #[test]
    fn quick_t13_gathers_on_both_geometries() {
        let t = t13_geometry(
            Effort::Quick,
            &FamilySelection::only(vec![Family::Rectangle]),
        );
        assert_eq!(t.rows.len(), Effort::Quick.sizes().len());
        for row in &t.rows {
            assert!(row[2].parse::<u64>().is_ok(), "grid cell failed: {row:?}");
            assert!(row[3].parse::<u64>().is_ok(), "euclid cell failed: {row:?}");
            assert!(row[6].parse::<f64>().is_ok(), "travel missing: {row:?}");
        }
    }

    #[test]
    fn table_ids_dispatch_and_match() {
        for id in TABLE_IDS {
            let t = table_by_id(id, Effort::Quick, &all()).expect("inventory id dispatches");
            assert_eq!(t.id, id, "dispatch must return the table it names");
            // Case-insensitive lookup.
            assert!(table_by_id(&id.to_lowercase(), Effort::Quick, &all()).is_some());
        }
        assert!(table_by_id("T99", Effort::Quick, &all()).is_none());
        assert!(table_by_id("", Effort::Quick, &all()).is_none());
    }

    #[test]
    fn family_selection_parses_and_rejects() {
        assert!(FamilySelection::parse(&[]).is_ok());
        let sel = FamilySelection::parse(&["rectangle".into(), "comb".into()]).unwrap();
        assert_eq!(
            sel.pick(&Family::ALL),
            vec![Family::Rectangle, Family::Comb]
        );
        // Picks preserve the table's order, not the selection's.
        let sel = FamilySelection::parse(&["comb".into(), "rectangle".into()]).unwrap();
        assert_eq!(
            sel.pick(&Family::ALL),
            vec![Family::Rectangle, Family::Comb]
        );
        let err =
            FamilySelection::parse(&["rectangle".into(), "nope".into(), "zig".into()]).unwrap_err();
        assert_eq!(err, vec!["nope".to_string(), "zig".to_string()]);
    }

    #[test]
    fn family_selection_restricts_tables() {
        let e = Effort::Quick;
        let sel = FamilySelection::only(vec![Family::Rectangle]);
        let t1 = t1_theorem1(e, &sel);
        assert_eq!(t1.rows.len(), e.sizes().len());
        assert!(t1.rows.iter().all(|r| r[0] == "rectangle"));
        // A table whose family list misses the selection emits no rows
        // (T8b runs skyline/comb/staircase-diamond only) — and T9's
        // grouped fold stays well-defined.
        assert!(t8b_hopper(e, &sel).rows.is_empty());
        let sel_none = FamilySelection::only(vec![Family::Cross]);
        assert!(t9_ablation(e, &sel_none).rows.is_empty());
    }
}
