//! Property tests for the workload generators and the scenario pipeline
//! (seeded-loop form; the offline build has no proptest).
//!
//! Two contracts matter to every consumer of `workloads`:
//!
//! 1. **Validity and size** — `Family::generate(n, seed)` always returns a
//!    valid taut closed chain whose length tracks the request within the
//!    documented factor (`4 ≤ len ≤ 4n + 64`, and `len ≥ n/8` once
//!    `n ≥ 32` — families quantize to their structural period, so tiny
//!    requests round to the family minimum).
//! 2. **Determinism** — the same `(family, n, seed)` always produces the
//!    identical chain, and the same [`ScenarioSpec`] always produces the
//!    identical run, round for round, regardless of batch parallelism.

use bench::{run_batch_with, BatchOptions, ScenarioSpec};
use chain_sim::{Recorder, Sim};
use gathering_core::ClosedChainGathering;
use workloads::{Family, SplitMix64};

/// Sampled (n, seed) grid: deterministic but irregular, covering small,
/// medium, and large requests for every family.
fn sampled_cases() -> Vec<(usize, u64)> {
    let mut rng = SplitMix64::new(0x5eed_ca5e);
    let mut cases: Vec<(usize, u64)> = vec![(8, 0), (32, 1), (100, 2), (333, 3)];
    for _ in 0..12 {
        cases.push((rng.range_usize(8, 600), rng.next_u64() % 1000));
    }
    cases
}

#[test]
fn every_family_generates_valid_chains_within_size_factor() {
    for fam in Family::ALL {
        for &(n, seed) in &sampled_cases() {
            let c = fam.generate(n, seed);
            c.validate()
                .unwrap_or_else(|e| panic!("{} n={n} seed={seed}: {e}", fam.name()));
            let len = c.len();
            assert!(len >= 4, "{} n={n}: too small ({len})", fam.name());
            assert!(
                len <= 4 * n + 64,
                "{} n={n}: {len} exceeds the documented upper factor",
                fam.name()
            );
            if n >= 32 {
                assert!(
                    len >= n / 8,
                    "{} n={n}: {len} below the documented lower factor",
                    fam.name()
                );
            }
        }
    }
}

#[test]
fn generation_is_deterministic_in_family_n_seed() {
    for fam in Family::ALL {
        for &(n, seed) in &sampled_cases()[..6] {
            let a = fam.generate(n, seed);
            let b = fam.generate(n, seed);
            assert_eq!(
                a.positions(),
                b.positions(),
                "{} n={n} seed={seed}",
                fam.name()
            );
        }
    }
}

/// Same spec → identical run through `run_batch_with`, at every parallelism
/// level: the batch fingerprint (actual n, rounds, merges, gap) is a pure
/// function of the spec list.
#[test]
fn run_batch_is_deterministic_across_parallelism() {
    let specs: Vec<ScenarioSpec> = Family::ALL
        .iter()
        .flat_map(|&fam| (0..2u64).map(move |seed| ScenarioSpec::paper(fam, 64, seed)))
        .collect();
    let a = run_batch_with(&specs, BatchOptions::default());
    let b = run_batch_with(&specs, BatchOptions::default());
    let serial = run_batch_with(&specs, BatchOptions::threads(1));
    let two = run_batch_with(&specs, BatchOptions::threads(2));
    for (((ra, rb), rs), r2) in a.iter().zip(&b).zip(&serial).zip(&two) {
        assert_eq!(ra.spec, rb.spec);
        assert_eq!(ra.fingerprint(), rb.fingerprint(), "{:?}", ra.spec);
        assert_eq!(ra.fingerprint(), rs.fingerprint(), "{:?}", ra.spec);
        assert_eq!(ra.fingerprint(), r2.fingerprint(), "{:?}", ra.spec);
    }
}

/// Determinism down to the individual round: two full-trace replays of the
/// same spec agree on every round report.
#[test]
fn same_spec_identical_trace() {
    let spec = ScenarioSpec::paper(Family::Skyline, 96, 5);
    let run = |spec: &ScenarioSpec| {
        let mut sim =
            Sim::new(spec.generate(), ClosedChainGathering::paper()).observe(Recorder::new());
        let out = sim.run_default();
        assert!(out.is_gathered());
        sim.observer_mut::<Recorder>().unwrap().take_trace()
    };
    let ta = run(&spec);
    let tb = run(&spec);
    assert_eq!(ta.reports.len(), tb.reports.len());
    for (a, b) in ta.reports.iter().zip(&tb.reports) {
        assert_eq!(a.round, b.round);
        assert_eq!(a.moved, b.moved);
        assert_eq!(a.removed, b.removed);
        assert_eq!(a.len_after, b.len_after);
        assert_eq!(a.bbox, b.bbox);
        assert_eq!(a.merges, b.merges);
    }
}
