//! Dependency-free observability primitives for the gathering stack.
//!
//! Two layers, each usable on its own:
//!
//! - [`hist`] — lock-free log-bucketed [`Histogram`]s (power-of-two
//!   octaves with 32 linear sub-buckets, ~3% relative error) with
//!   `p50/p90/p99/max`, count/sum, and order-insensitive merge.
//! - [`phase`] + [`trace`] — a sampling [`PhaseTimer`] attributing
//!   per-round wall time to compute/guard/apply/merge spans, and a
//!   bounded Chrome trace-event buffer ([`TraceEvents`]) whose JSON
//!   loads directly in Perfetto / `chrome://tracing`.
//!
//! The crate holds the stack's passivity line: everything here only
//! *reads* clocks and counters. Attaching any of it to the engine, the
//! kernels, or the service must never change a simulation result.

#![deny(missing_docs)]

pub mod hist;
pub mod phase;
pub mod trace;

pub use hist::{Histogram, Summary};
pub use phase::{Phase, PhaseTimer, RoundClock};
pub use trace::{trace_tid, TraceEvents};
