//! A tiny deterministic PRNG for workload generation.
//!
//! The generator itself lives in `chain_sim::rng` so the engine's SSYNC
//! schedulers and the workload generators share one implementation (and
//! one stream definition); this module re-exports it under the historical
//! `workloads::rng` path. Determinism is load-bearing: the experiment
//! tables and the `run_batch_with` determinism tests rely on `(n, seed)`
//! fully determining every generated chain.

pub use chain_sim::rng::SplitMix64;

#[cfg(test)]
mod tests {
    use super::*;

    /// The re-export is the engine's generator: one stream definition
    /// across workloads and schedulers.
    #[test]
    fn reexport_matches_engine_stream() {
        let mut ours = SplitMix64::new(42);
        let mut engines = chain_sim::rng::SplitMix64::new(42);
        for _ in 0..16 {
            assert_eq!(ours.next_u64(), engines.next_u64());
        }
    }
}
