//! # bench
//!
//! The experiment harness regenerating the paper's evaluation (DESIGN.md
//! §4, tables T1–T10) plus wall-clock performance benches for the
//! simulator itself.
//!
//! The same experiment code backs three entry points:
//!
//! * `cargo run -p bench --bin experiments [--quick] [--table tN]` —
//!   prints the tables for EXPERIMENTS.md,
//! * `cargo bench -p bench --bench paper_experiments` — same tables under
//!   `cargo bench --workspace` so the paper artifacts regenerate with the
//!   benches,
//! * `cargo bench -p bench --bench engine_perf` — wall-clock micro/macro
//!   benches (rounds/sec, robot-rounds/sec, batch scaling across cores).
//!
//! Every experiment flows through the unified [`scenario`] pipeline: tables
//! enumerate [`ScenarioSpec`]s and consume [`ScenarioResult`]s from
//! [`run_batch_with`], which fans out over std's scoped threads. A single
//! run is [`run_scenario`] ([`scenario::run_scenario_tapped`] with
//! telemetry taps).
//!
//! ## Batch execution guarantees
//!
//! [`run_batch_with`] promises, for any spec list:
//!
//! * **Ordering** — the result vector is index-aligned with the input
//!   (`results[i].spec == specs[i]`), regardless of which worker ran
//!   which spec or in what order they finished.
//! * **Balancing** — work is claimed from a single atomic next-index
//!   queue, so workers self-balance: a worker that draws a cheap spec
//!   immediately claims another, and a heterogeneous batch (65k paper
//!   runs next to 64-robot controls) keeps every core busy until the
//!   queue drains.
//! * **Determinism** — every result is a pure function of its spec
//!   (modulo the measured [`ScenarioResult::wall`]); thread count and
//!   scheduling cannot change fingerprints.
//!
//! ## Campaigns
//!
//! On top of the batch executor, the [`campaign`] module scales sweeps to
//! campaign size: named scenario grids, sharded execution for CI fan-out,
//! a resumable JSON Lines result store keyed by stable spec hashes, and
//! the `BENCH_*.json` scaling artifacts (see docs/CAMPAIGNS.md).

#![deny(missing_docs)]

pub mod campaign;
pub mod experiments;
pub mod scenario;
pub mod table;
pub mod wire;

pub use campaign::{CampaignRow, CampaignSpec, RunOptions, StrategySweep};
pub use experiments::{all_tables, Effort, FamilySelection};
pub use scenario::{
    run_batch_with, run_scenario, set_default_phase_timer, set_default_threads, BatchOptions,
    LimitPolicy, OpenChainOutcome, ScenarioResult, ScenarioSpec, StrategyKind,
};
pub use table::Table;
// The scheduler registry is engine-level (`chain_sim::scheduler`) but is a
// grid axis here; re-exported so campaign construction needs one import.
pub use chain_sim::SchedulerKind;
// Same for the geometry registry (`geom_core::GeometryKind`): an
// engine-level axis that campaign grids and wire specs select by name.
pub use geom_core::GeometryKind;
