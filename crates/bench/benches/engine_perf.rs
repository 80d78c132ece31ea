//! Wall-clock performance benches for the simulator and the algorithm.
//!
//! These measure engine throughput (robot·rounds per second), the cost of
//! one FSYNC round at various chain sizes, merge-scan cost, full
//! gatherings, and — the pipeline's headline number — how `run_batch_with`
//! scales with the available cores.
//!
//! The offline build has no criterion, so this is a plain `harness = false`
//! binary: each section repeats its workload long enough for stable timing
//! and prints a throughput line.
//!
//! ```text
//! cargo bench -p bench --bench engine_perf
//! ```
//!
//! A full run (no section filter) writes `BENCH_engine.json`: the
//! `kernel_vs_boxed`, `full_gathering` and `merge_scan` rows, stamped with
//! the commit and the UTC date.

use baselines::{CompassSeKernel, GlobalVisionKernel, NaiveLocalKernel};
use bench::campaign::store::{git_commit, today_utc};
use bench::{run_batch_with, BatchOptions, ScenarioSpec, StrategyKind};
use chain_sim::kernel::{FsyncRule, KernelChain, KernelSim, RoundKernel};
use chain_sim::{ClosedChain, PackedChain, Recorder, RunLimits, Sim};
use gathering_core::{ClosedChainGathering, GatherConfig, MergeScan};
use std::hint::black_box;
use std::time::{Duration, Instant};
use workloads::Family;

/// Repeat `f` until at least ~200 ms elapse. `f` returns its per-iteration
/// work unit count; the warm-up call's work and time are both discarded, so
/// the returned `(iterations, work_sum, elapsed)` are consistent.
fn time_until_stable<F: FnMut() -> u64>(mut f: F) -> (u64, u128, Duration) {
    // Warm-up (excluded from every returned figure).
    f();
    let mut iters = 0u64;
    let mut work = 0u128;
    let t0 = Instant::now();
    loop {
        work += u128::from(f());
        iters += 1;
        if t0.elapsed() >= Duration::from_millis(200) && iters >= 5 {
            return (iters, work, t0.elapsed());
        }
    }
}

fn per_sec(count: u128, elapsed: Duration) -> f64 {
    count as f64 / elapsed.as_secs_f64()
}

fn bench_single_round() {
    println!("## single_round (one FSYNC step, fresh sim each iteration)");
    for n in [256usize, 1024, 4096] {
        let chain = Family::Rectangle.generate(n, 0);
        let len = chain.len();
        let (iters, _, elapsed) = time_until_stable(|| {
            let mut sim = Sim::new(chain.clone(), ClosedChainGathering::paper());
            sim.step().unwrap();
            black_box(sim.round());
            1
        });
        println!(
            "  n={len:>5}  {:>12.0} robot·rounds/s  ({iters} iters)",
            per_sec(iters as u128 * len as u128, elapsed)
        );
    }
}

/// Merge-scan throughput on three families at two sizes; returns the
/// `BENCH_engine.json` rows.
fn bench_merge_scan() -> String {
    println!("## merge_scan (pattern scan, seed 0, paper config)");
    let mut rows = Vec::new();
    for fam in [Family::Crenellated, Family::RandomLoop, Family::Rectangle] {
        for n in [256usize, 4096] {
            let chain = fam.generate(n, 0);
            let len = chain.len();
            let cfg = GatherConfig::paper();
            let mut scan = MergeScan::default();
            let (iters, _, elapsed) = time_until_stable(|| {
                scan.scan(&chain, &cfg);
                black_box(scan.patterns().len());
                1
            });
            let rate = per_sec(iters as u128 * len as u128, elapsed);
            println!(
                "  {:<14} n={len:>5}  {rate:>12.0} robots/s  ({iters} iters)",
                fam.name()
            );
            rows.push(format!(
                "      {{\"family\": \"{}\", \"n\": {len}, \"robots_per_s\": {rate:.0}}}",
                fam.name()
            ));
        }
    }
    rows.join(",\n")
}

/// Complete paper runs (FSYNC) per family, each at its own `(n, seed)`;
/// returns the `BENCH_engine.json` rows.
fn bench_full_gathering() -> String {
    println!("## full_gathering (complete run to the 2x2 square)");
    let mut rows = Vec::new();
    // Each row runs at least 100 rounds (rectangle 718, skyline 525,
    // random loop 124), so it times the round rather than `Sim::new` and
    // the chain clone.
    for (fam, n, seed) in [
        (Family::Rectangle, 256usize, 1u64),
        (Family::Skyline, 4096, 1),
        (Family::RandomLoop, 4096, 0),
    ] {
        let chain = fam.generate(n, seed);
        let len = chain.len();
        let (iters, rounds_total, elapsed) = time_until_stable(|| {
            let mut sim = Sim::new(chain.clone(), ClosedChainGathering::paper());
            let out = sim.run(RunLimits::for_chain_len(len));
            assert!(out.is_gathered());
            out.rounds()
        });
        assert!(rounds_total >= 100 * u128::from(iters), "{}", fam.name());
        let rate = per_sec(rounds_total * len as u128, elapsed);
        println!(
            "  {:<14} n={len:>4}  {rate:>12.0} robot·rounds/s  ({iters} runs)",
            fam.name(),
        );
        rows.push(format!(
            "      {{\"family\": \"{}\", \"n\": {len}, \"seed\": {seed}, \"rounds\": {}, \
             \"robot_rounds_per_s\": {rate:.0}}}",
            fam.name(),
            rounds_total / u128::from(iters)
        ));
    }
    rows.join(",\n")
}

/// What instrumentation costs: the same full gathering with no observers
/// (the hot path) vs with the trace-recording observer attached. The
/// observer-free figure is the one the acceptance gate tracks; the
/// recorded figure documents the price of full report retention.
fn bench_observer_overhead() {
    println!("## observer_overhead (full gathering at n=256, observer-free vs Recorder)");
    let chain = Family::Rectangle.generate(256, 1);
    let len = chain.len();
    let (_, rounds_free, elapsed_free) = time_until_stable(|| {
        let mut sim = Sim::new(chain.clone(), ClosedChainGathering::paper());
        let out = sim.run(RunLimits::for_chain_len(len));
        assert!(out.is_gathered());
        out.rounds()
    });
    let (_, rounds_rec, elapsed_rec) = time_until_stable(|| {
        let mut sim =
            Sim::new(chain.clone(), ClosedChainGathering::paper()).observe(Recorder::new());
        let out = sim.run(RunLimits::for_chain_len(len));
        assert!(out.is_gathered());
        out.rounds()
    });
    let free = per_sec(rounds_free * len as u128, elapsed_free);
    let rec = per_sec(rounds_rec * len as u128, elapsed_rec);
    println!("  observer-free   {free:>12.0} robot·rounds/s");
    println!(
        "  with Recorder   {rec:>12.0} robot·rounds/s  ({:.1}% of free)",
        100.0 * rec / free
    );
}

/// What phase timing costs: the same full gathering with no timer vs a
/// [`PhaseTimer`] at the default sampling rate (one round in 16). The
/// acceptance contract is < 2% overhead — sampled rounds pay four clock
/// reads and two histogram records; the other fifteen pay one branch.
fn bench_phase_overhead() {
    println!("## phase_overhead (full gathering at n=256, no timer vs default-rate PhaseTimer)");
    let chain = Family::Rectangle.generate(256, 1);
    let len = chain.len();
    let (_, rounds_free, elapsed_free) = time_until_stable(|| {
        let mut sim = Sim::new(chain.clone(), ClosedChainGathering::paper());
        let out = sim.run(RunLimits::for_chain_len(len));
        assert!(out.is_gathered());
        out.rounds()
    });
    let timer = std::sync::Arc::new(obs::PhaseTimer::default_rate());
    let (_, rounds_timed, elapsed_timed) = time_until_stable(|| {
        let mut sim =
            Sim::new(chain.clone(), ClosedChainGathering::paper()).with_phase_timer(timer.clone());
        let out = sim.run(RunLimits::for_chain_len(len));
        assert!(out.is_gathered());
        out.rounds()
    });
    let free = per_sec(rounds_free * len as u128, elapsed_free);
    let timed = per_sec(rounds_timed * len as u128, elapsed_timed);
    let overhead = 100.0 * (1.0 - timed / free);
    println!("  timer-free      {free:>12.0} robot·rounds/s");
    println!(
        "  with PhaseTimer {timed:>12.0} robot·rounds/s  ({overhead:+.1}% overhead, \
         {} rounds sampled)",
        timer.rounds_sampled()
    );
    if overhead > 2.0 {
        println!("  WARNING: above the 2% phase-timing overhead contract");
    }
}

fn bench_workload_generation() {
    println!("## workload_generation (chains/s at n=1024)");
    for fam in [Family::RandomLoop, Family::Skyline] {
        let mut seed = 0u64;
        let (iters, _, elapsed) = time_until_stable(|| {
            seed += 1;
            black_box(fam.generate(1024, seed).len());
            1
        });
        println!(
            "  {:<14} {:>10.1} chains/s  ({iters} iters)",
            fam.name(),
            per_sec(iters as u128, elapsed)
        );
    }
}

/// The acceptance check for the scenario pipeline: batch execution scales
/// with available cores. Runs the same spec grid serially and with one
/// worker per core, and prints the speedup.
fn bench_batch_scaling() {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!("## batch_scaling (run_batch_with over {cores} cores)");
    let specs: Vec<ScenarioSpec> = Family::ALL
        .iter()
        .flat_map(|&fam| (0..4u64).map(move |seed| ScenarioSpec::paper(fam, 192, seed)))
        .collect();

    let t0 = Instant::now();
    let serial = run_batch_with(&specs, BatchOptions::threads(1));
    let serial_t = t0.elapsed();

    let t1 = Instant::now();
    let parallel = run_batch_with(&specs, BatchOptions::default());
    let parallel_t = t1.elapsed();

    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "parallelism changed a result"
        );
    }
    let speedup = serial_t.as_secs_f64() / parallel_t.as_secs_f64().max(1e-9);
    println!(
        "  {} scenarios: serial {:>7.0} ms, parallel {:>7.0} ms, speedup {speedup:.2}x",
        specs.len(),
        serial_t.as_secs_f64() * 1e3,
        parallel_t.as_secs_f64() * 1e3,
    );
    if cores >= 2 && speedup < 1.2 {
        println!("  WARNING: expected >1.2x speedup on {cores} cores");
    }
}

/// Step the boxed (observer-free) engine for up to `cap` rounds and
/// return the robot·rounds executed — Σ of the live-robot count over the
/// rounds actually stepped, so merges are accounted honestly.
fn boxed_capped(kind: StrategyKind, chain: &ClosedChain, cap: u64) -> u64 {
    let mut sim = Sim::new(chain.clone(), kind.build().expect("closed-chain kind"));
    let mut work = 0u64;
    for _ in 0..cap {
        if sim.is_gathered() {
            break;
        }
        work += sim.chain().len() as u64;
        sim.step().expect("eligible strategies never break");
    }
    black_box(sim.chain().len());
    work
}

/// The same capped stepping on the packed kernel path.
fn kernel_capped<K: RoundKernel>(kernel: K, chain: &ClosedChain, cap: u64) -> u64 {
    let packed = PackedChain::from_chain(chain).expect("generated chains pack");
    let mut sim = KernelSim::new(KernelChain::new(packed), kernel, FsyncRule);
    let mut work = 0u64;
    for _ in 0..cap {
        if sim.chain().is_gathered() {
            break;
        }
        work += sim.chain().len() as u64;
        sim.step().expect("eligible strategies never break");
    }
    black_box(sim.chain().len());
    work
}

fn kernel_capped_kind(kind: StrategyKind, chain: &ClosedChain, cap: u64) -> u64 {
    match kind {
        StrategyKind::CompassSe => kernel_capped(CompassSeKernel::new(), chain, cap),
        StrategyKind::NaiveLocal => kernel_capped(NaiveLocalKernel::new(), chain, cap),
        StrategyKind::GlobalVision => kernel_capped(GlobalVisionKernel::new(), chain, cap),
        other => panic!("not a kernel kind: {other:?}"),
    }
}

/// The tentpole acceptance bench: observer-free throughput of the packed
/// kernel path vs the boxed engine, per strategy, at three sizes. Returns
/// the `BENCH_engine.json` rows; with `--gate`, asserts kernel ≥ 5× boxed
/// at n ≥ 16384 and exits non-zero otherwise (the CI smoke; the full
/// bench targets ≥ 10×).
fn bench_kernel_vs_boxed(gate: bool) -> String {
    println!("## kernel_vs_boxed (observer-free capped stepping, FSYNC)");
    let sizes: &[usize] = if gate {
        &[16384]
    } else {
        &[1024, 16384, 262144]
    };
    let kinds = [
        StrategyKind::GlobalVision,
        StrategyKind::CompassSe,
        StrategyKind::NaiveLocal,
    ];
    let mut rows = String::new();
    let mut gate_ok = true;
    for &n in sizes {
        let chain = Family::Rectangle.generate(n, 0);
        let len = chain.len();
        // Cap the stepped rounds so one iteration does ~2M robot·rounds
        // regardless of n (big chains step few rounds, small chains many).
        let cap = (2_000_000 / len as u64).clamp(4, 4096);
        for kind in kinds {
            let (_, bw, bt) = time_until_stable(|| boxed_capped(kind, &chain, cap));
            let (_, kw, kt) = time_until_stable(|| kernel_capped_kind(kind, &chain, cap));
            let boxed_rps = per_sec(bw, bt);
            let kernel_rps = per_sec(kw, kt);
            let speedup = kernel_rps / boxed_rps;
            println!(
                "  {:<14} n={len:>6}  boxed {boxed_rps:>12.0}  kernel {kernel_rps:>12.0}  robot·rounds/s  {speedup:>6.1}x",
                kind.name()
            );
            if len >= 16384 && speedup < 10.0 {
                println!("  WARNING: below the 10x full-bench target");
            }
            if gate && len >= 16384 && speedup < 5.0 {
                gate_ok = false;
            }
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "      {{\"strategy\": \"{}\", \"n\": {len}, \"rounds_per_iter\": {cap}, \
                 \"boxed_robot_rounds_per_s\": {boxed_rps:.0}, \
                 \"kernel_robot_rounds_per_s\": {kernel_rps:.0}, \"speedup\": {speedup:.2}}}",
                kind.name()
            ));
        }
    }
    if gate && gate_ok {
        println!("  GATE OK: kernel >= 5x boxed at n >= 16384");
    } else if gate {
        println!("  GATE FAILED: kernel < 5x boxed at n >= 16384");
        std::process::exit(1);
    }
    rows
}

/// Write `BENCH_engine.json`, stamped with the commit and the UTC date:
/// one object per section with its unit and rows.
fn write_artifact(kernel_vs_boxed: &str, full_gathering: &str, merge_scan: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let section = |unit: &str, rows: &str| {
        format!("{{\n    \"unit\": \"{unit}\",\n    \"rows\": [\n{rows}\n    ]\n  }}")
    };
    let body = format!(
        "{{\n  \"bench\": \"engine_perf\",\n  \
         \"commit\": \"{}\",\n  \"date\": \"{}\",\n  \"schedule\": \"fsync\",\n  \
         \"kernel_vs_boxed\": {},\n  \"full_gathering\": {},\n  \"merge_scan\": {}\n}}\n",
        git_commit(),
        today_utc(),
        section("robot_rounds_per_sec", kernel_vs_boxed),
        section("robot_rounds_per_sec", full_gathering),
        section("robots_per_sec", merge_scan),
    );
    std::fs::write(path, body).expect("write BENCH_engine.json");
    println!("wrote {path}");
}

fn main() {
    // `cargo bench` forwards its own flags (e.g. `--bench`); the first
    // non-flag argument, if any, filters the sections by substring.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_default();
    let gate = std::env::args().any(|a| a == "--gate");
    let want = |name: &str| filter.is_empty() || name.contains(&filter);
    let kernel_vs_boxed = want("kernel_vs_boxed").then(|| bench_kernel_vs_boxed(gate));
    if want("single_round") {
        bench_single_round();
    }
    let merge_scan = want("merge_scan").then(bench_merge_scan);
    let full_gathering = want("full_gathering").then(bench_full_gathering);
    // Only a full run (no filter, no gate) measures every section of the
    // artifact.
    if let (Some(k), Some(f), Some(m), false) =
        (&kernel_vs_boxed, &full_gathering, &merge_scan, gate)
    {
        write_artifact(k, f, m);
    }
    if want("observer_overhead") {
        bench_observer_overhead();
    }
    if want("phase_overhead") {
        bench_phase_overhead();
    }
    if want("workload_generation") {
        bench_workload_generation();
    }
    if want("batch_scaling") {
        bench_batch_scaling();
    }
}
