//! Regenerate the paper's evaluation tables (EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release -p bench --bin experiments            # full tables
//! cargo run --release -p bench --bin experiments -- --quick # smoke sizes
//! cargo run --release -p bench --bin experiments -- --table T1 --table T9
//! cargo run --release -p bench --bin experiments -- --family rectangle --family comb
//! cargo run --release -p bench --bin experiments -- --markdown
//! cargo run --release -p bench --bin experiments -- --threads 4
//! cargo run --release -p bench --bin experiments -- --quick --table T1 --trace-out run.trace.json
//! ```
//!
//! `--threads N` overrides the batch executor's worker count (default:
//! one per available core) for every table — results are identical at any
//! thread count (a `run_batch_with` guarantee); only wall-clock changes.
//!
//! `--trace-out FILE` attaches a sampling phase timer to every table run
//! and writes the sampled compute/guard/apply/merge spans as Chrome
//! trace-event JSON — load FILE in Perfetto or `chrome://tracing`. A
//! per-phase summary goes to stderr. Timing is passive (results are
//! unchanged) and sampled (one round in 16), so the tables cost the same.
//!
//! Unknown `--table` or `--family` names are an error: the binary prints
//! the respective inventory and exits with code 2 instead of silently
//! producing nothing.

use bench::experiments::{table_by_id, FamilySelection, TABLE_IDS};
use bench::{set_default_phase_timer, set_default_threads, Effort};
use obs::PhaseTimer;
use std::sync::Arc;
use workloads::Family;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let markdown = args.iter().any(|a| a == "--markdown");
    if let Some(last) = args.last() {
        if last == "--table" || last == "--family" || last == "--threads" || last == "--trace-out" {
            eprintln!("error: {last} needs a value");
            std::process::exit(2);
        }
    }
    let flag_values = |flag: &str| -> Vec<String> {
        args.windows(2)
            .filter(|w| w[0] == flag)
            .map(|w| w[1].clone())
            .collect()
    };
    let wanted = flag_values("--table");
    let families = flag_values("--family");
    let effort = if quick { Effort::Quick } else { Effort::Full };
    if let Some(threads) = flag_values("--threads").last() {
        match threads.parse::<usize>() {
            Ok(t) => set_default_threads(t),
            Err(_) => {
                eprintln!("error: --threads needs an integer (got '{threads}')");
                std::process::exit(2);
            }
        }
    }

    let trace_out = flag_values("--trace-out").last().cloned();
    let timer = trace_out.as_ref().map(|_| {
        let timer = Arc::new(PhaseTimer::default_rate());
        set_default_phase_timer(Some(timer.clone()));
        timer
    });

    let unknown: Vec<&String> = wanted
        .iter()
        .filter(|w| !TABLE_IDS.iter().any(|id| id.eq_ignore_ascii_case(w)))
        .collect();
    if !unknown.is_empty() {
        for w in &unknown {
            eprintln!("error: unknown table '{w}'");
        }
        eprintln!("valid tables: {}", TABLE_IDS.join(", "));
        std::process::exit(2);
    }

    let selection = FamilySelection::parse(&families).unwrap_or_else(|unknown| {
        for f in &unknown {
            eprintln!("error: unknown family '{f}'");
        }
        let names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
        eprintln!("valid families: {}", names.join(", "));
        std::process::exit(2);
    });

    let ids: Vec<&str> = if wanted.is_empty() {
        TABLE_IDS.to_vec()
    } else {
        // Preserve inventory order and deduplicate repeated requests.
        TABLE_IDS
            .iter()
            .filter(|id| wanted.iter().any(|w| id.eq_ignore_ascii_case(w)))
            .copied()
            .collect()
    };

    eprintln!(
        "running experiments ({}), this reproduces DESIGN.md §4 tables...",
        if quick { "quick" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    for id in ids {
        let table = table_by_id(id, effort, &selection).expect("ids are validated above");
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            println!("{table}");
        }
    }
    eprintln!("total experiment time: {:.1}s", t0.elapsed().as_secs_f64());

    if let (Some(path), Some(timer)) = (trace_out, timer) {
        if let Err(e) = std::fs::write(&path, timer.to_chrome_json()) {
            eprintln!("error: writing trace to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("{}", timer.report());
        eprintln!("chrome trace written to {path} (load in Perfetto)");
    }
}
