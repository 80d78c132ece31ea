//! The repository benchmark: one command per workload that prints every
//! metric by name with its unit, checks that the outputs are correct, and
//! ends with one JSON result line.
//!
//! ```text
//! perfbench --workload paper-engine|kernel-euclid|service-mix
//!           --seed N --seconds S --trace 0|1 [--print-expected]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics and writes a Chrome trace. Every run also writes a
//! result file stamped with the commit, date, core count and seed under
//! `.bench_results/`. The exit code is non-zero if any output check
//! failed.

mod client;
mod engine;
mod layers;
mod service;
mod specs;
mod stats;

use std::path::{Path, PathBuf};

use bench::campaign::store::{git_commit, today_utc};
use obs::TraceEvents;

use specs::Workload;
use stats::{num, Metrics, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload paper-engine|kernel-euclid|service-mix \
                     --seed N --seconds S --trace 0|1 [--print-expected]";

/// Where result files, traces and the service's cache go.
const OUT_DIR: &str = ".bench_results";

/// Operations attempted and failed, with the first few failures.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Check {
    /// Count one checked operation; `what` describes a failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(what());
            }
        }
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct RunOutput {
    pub metrics: Metrics,
    pub check: Check,
    /// Fingerprint digests per stratum: `(label, scenarios, digest)`.
    pub digests: Vec<(&'static str, usize, u64)>,
    /// Service figures outside the end-to-end set: `(name, unit, value)`.
    pub extra: Vec<(&'static str, &'static str, f64)>,
}

impl RunOutput {
    /// On the default seed, every stratum must match the expected table.
    pub fn check_expected(&mut self, workload: Workload, seed: u64) {
        if seed != specs::DEFAULT_SEED {
            return;
        }
        let expected = specs::expected(workload);
        self.check.op(expected.len() == self.digests.len(), || {
            format!(
                "{} strata, expected table has {}",
                self.digests.len(),
                expected.len()
            )
        });
        for (got, want) in self.digests.iter().zip(expected) {
            self.check.op(got == want, || {
                format!("fingerprints {got:?} != expected {want:?}")
            });
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut print_expected = false;
    while let Some(flag) = args.next() {
        if flag == "--print-expected" {
            print_expected = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or(bad("workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(specs::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        print_expected,
    })
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    // Stamp with the checkout's own commit only: git must not look for a
    // repository above the working directory.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    let trace = TraceEvents::default();
    let w = args.workload;
    let mut out = match w {
        Workload::PaperEngine | Workload::KernelEuclid => {
            engine::run(w, args.seed, args.seconds, args.trace, &trace)
        }
        Workload::ServiceMix => {
            let dir = out_dir.join(format!("gatherd-cache-{}", std::process::id()));
            service::run(args.seed, args.seconds, args.trace, &trace, &dir)
        }
    };
    out.metrics.set("peak_rss_mb", peak_rss_mb());

    if args.print_expected {
        println!("expected table for {} (seed {}):", w.name(), args.seed);
        for (label, count, digest) in &out.digests {
            println!("    (\"{label}\", {count}, 0x{digest:016x}),");
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "perfbench {} seed {} trace {}: {} of {} checked operations failed",
        w.name(),
        args.seed,
        u8::from(args.trace),
        out.check.failed,
        out.check.attempted
    );
    for (name, unit) in names {
        println!(
            "  {name:<42} {:>14} {unit}",
            num(out.metrics.get(name).unwrap_or(0.0))
        );
    }
    if !args.trace {
        for (name, unit, value) in &out.extra {
            println!("  {name:<42} {:>14} {unit}", num(*value));
        }
    }
    for e in &out.check.errors {
        eprintln!("perfbench: check failed: {e}");
    }

    let correct = out.check.failed == 0;
    let metrics = out.metrics.render(names);
    let stamp = format!(
        "\"bench\":\"perfbench\",\"workload\":\"{}\",\"commit\":\"{}\",\"date\":\"{}\",\"nproc\":{},\"seed\":{},\"trace\":{}",
        w.name(),
        git_commit(),
        today_utc(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        args.seed,
        u8::from(args.trace),
    );
    let extra: Vec<String> = out
        .extra
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v)))
        .collect();
    let file = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let record = format!(
        "{{{stamp},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics},\"service\":{{{}}}}}\n",
        out.check.attempted,
        out.check.failed,
        extra.join(",")
    );
    if let Err(e) = std::fs::write(&file, record) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    if args.trace {
        // The Chrome trace: benchmark-side spans, plus the stamp and the
        // per-layer numbers as trace metadata.
        let spans = trace.to_chrome_json();
        let doc = format!(
            "{},\"otherData\":{{{stamp},\"metrics\":{metrics}}}}}",
            &spans[..spans.len() - 1]
        );
        let path = out_dir.join(format!("{}-seed{}.trace.json", w.name(), args.seed));
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        out.check.attempted.max(1),
        out.check.failed
    );
    std::process::exit(if correct { 0 } else { 1 });
}
