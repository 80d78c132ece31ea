//! The engine workloads (`paper-engine`, `kernel-euclid`): whole passes
//! over the spec list through `bench::run_scenario` on one thread (what
//! `run_batch_with` does with one worker), and with `--trace 1` one more
//! pass stepped layer by layer.

use std::time::Instant;

use bench::campaign::CampaignRow;
use bench::{run_scenario, ScenarioResult};
use obs::TraceEvents;

use crate::layers::{self, EngineLayers};
use crate::specs::{self, Fingerprint, Workload};
use crate::stats::{median, percentile};
use crate::RunOutput;

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace: &TraceEvents,
) -> RunOutput {
    // Set-up: draw the spec list and generate every input chain once
    // (their sizes are what each result's `n` must equal).
    let set_up = || {
        let t = Instant::now();
        let strata = specs::engine_strata(workload, seed);
        let sizes: Vec<usize> = strata
            .iter()
            .flat_map(|s| &s.specs)
            .map(|spec| spec.generate().len())
            .collect();
        (strata, sizes, t.elapsed().as_secs_f64())
    };
    let (strata, sizes, first_setup) = set_up();
    let mut setups = vec![first_setup];
    let specs: Vec<_> = strata
        .iter()
        .flat_map(|s| s.specs.iter().copied())
        .collect();
    let labels: Vec<&'static str> = strata
        .iter()
        .flat_map(|s| std::iter::repeat_n(s.label, s.specs.len()))
        .collect();

    let mut out = RunOutput::default();
    // Per-scenario wall times in seconds, one row per pass.
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut first: Vec<ScenarioResult> = Vec::new();
    let start = Instant::now();
    loop {
        let results: Vec<ScenarioResult> = specs.iter().map(run_scenario).collect();
        passes.push(results.iter().map(|r| r.wall.as_secs_f64()).collect());
        for (i, r) in results.iter().enumerate() {
            let reference = first
                .get(i)
                .map_or(r.fingerprint(), ScenarioResult::fingerprint);
            out.check.op(
                r.is_gathered() && r.n == sizes[i] && r.fingerprint() == reference,
                || {
                    format!(
                        "scenario {i} {:?}: {:?}, fingerprint {:?}",
                        r.spec,
                        r.outcome,
                        r.fingerprint()
                    )
                },
            );
        }
        if first.is_empty() {
            first = results;
        }
        if traced || start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        // Set up again between passes, so that `setup_s`, like the
        // passes, samples the whole run rather than its first moment.
        setups.push(set_up().2);
    }
    // Each scenario's fastest pass. Noise on a shared host only adds
    // time, in spells of a fraction of a second, so the fastest of the
    // run's interleaved passes is the steadiest reading of the work.
    let per_spec: Vec<f64> = (0..specs.len())
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect();
    let latencies: Vec<f64> = per_spec.iter().map(|s| s * 1e6).collect();

    let fingerprints: Vec<Fingerprint> = first.iter().map(ScenarioResult::fingerprint).collect();
    let mut offset = 0;
    for s in &strata {
        let fps = &fingerprints[offset..offset + s.specs.len()];
        out.digests.push((s.label, fps.len(), specs::digest(fps)));
        offset += s.specs.len();
    }
    out.check_expected(workload, seed);

    out.metrics.set("wall_s", per_spec.iter().sum());
    out.metrics.set("setup_s", median(&setups));
    for (name, p) in [("miss_p50_us", 50.0), ("miss_p90_us", 90.0)] {
        match percentile(&latencies, p) {
            Some(v) => out.metrics.set(name, v),
            None => out
                .check
                .op(false, || format!("{name}: too few scenarios for p{p}")),
        }
    }

    if traced {
        let mut layers = EngineLayers::default();
        let t = Instant::now();
        for (i, spec) in specs.iter().enumerate() {
            layers.run(spec, labels[i], i as u64, trace);
        }
        let traced_wall = t.elapsed().as_secs_f64();
        for (i, (traced_fp, fp)) in layers.fingerprints.iter().zip(&fingerprints).enumerate() {
            out.check.op(traced_fp == fp, || {
                format!("scenario {i}: traced fingerprint {traced_fp:?} != untraced {fp:?}")
            });
        }
        for &i in &layers.not_gathered {
            out.check
                .op(false, || format!("scenario {i}: traced run did not gather"));
        }
        layers.report(&mut out.metrics);
        let rows: Vec<CampaignRow> = first.iter().map(CampaignRow::from_result).collect();
        let decoded = layers::hit_path(&specs, &rows, &mut out.metrics);
        out.check.op(decoded, || {
            "a wire body did not decode to its spec".to_string()
        });
        let untraced_wall: f64 = passes[0].iter().sum();
        out.metrics
            .set("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
    }
    out
}
