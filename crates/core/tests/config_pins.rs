//! The paper rule under non-default configurations, pinned: for every
//! view `V ∈ {5, 8, 11, 16, 17, 24}` and period `L ∈ {7, 13}`, and for
//! `GatherConfig::proof_mode()`, an FNV-1a digest of `(n, rounds,
//! merges_total, longest_gap)` over every `workloads::Family` at
//! n ∈ {64, 200} (seed 1). The benchmark's seed-1 digests cover only
//! `GatherConfig::paper()`; views above 16 take the per-slot run
//! look-ahead instead of the 16-slot word, so both paths are pinned here.

use chain_sim::{RunLimits, Sim};
use gathering_core::{ClosedChainGathering, GatherConfig};
use workloads::Family;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The digest of one configuration over every family and size, in that
/// order.
fn config_digest(cfg: GatherConfig) -> u64 {
    let mut h = Fnv::new();
    for family in Family::ALL {
        for n in [64, 200] {
            let chain = family.generate(n, 1);
            let len = chain.len();
            let mut sim = Sim::new(chain, ClosedChainGathering::new(cfg));
            let outcome = sim.run(RunLimits::for_gathering(len, cfg.l_period));
            let progress = sim.progress();
            h.u64(len as u64);
            h.u64(outcome.rounds());
            h.u64(progress.total_removed() as u64);
            h.u64(progress.longest_mergeless_gap());
        }
    }
    h.0
}

fn configs() -> Vec<(String, GatherConfig)> {
    let mut out = Vec::new();
    for view in [5, 8, 11, 16, 17, 24] {
        for l_period in [7, 13] {
            let cfg = GatherConfig {
                view,
                l_period,
                ..GatherConfig::paper()
            };
            out.push((format!("view {view}, L {l_period}"), cfg));
        }
    }
    out.push(("proof mode".into(), GatherConfig::proof_mode()));
    out
}

/// Taken before the word-wide merge scan and run look-ahead went in.
const EXPECTED: [u64; 13] = [
    0x2fb2e7e0f34874cc, // view 5, L 7
    0x0154d8f759583616, // view 5, L 13
    0x74976d501c4ffb58, // view 8, L 7
    0x9608c7d65ca0fc97, // view 8, L 13
    0x1d2b52dc4c2db540, // view 11, L 7
    0x0abcdc65fc59e2ae, // view 11, L 13
    0x99e472c3601dbd68, // view 16, L 7
    0xbe6e48ea5deb6a0d, // view 16, L 13
    0x99e472c3601dbd68, // view 17, L 7
    0xbe6e48ea5deb6a0d, // view 17, L 13
    0x6687d069e89302ca, // view 24, L 7
    0xbe6e48ea5deb6a0d, // view 24, L 13
    0xfe183984db05c0a0, // proof mode
];

#[test]
fn non_default_configs_keep_their_trajectories() {
    let got: Vec<u64> = configs()
        .into_iter()
        .map(|(_, cfg)| config_digest(cfg))
        .collect();
    for ((name, _), g) in configs().iter().zip(&got) {
        println!("{name}: {g:#018x}");
    }
    assert_eq!(got, EXPECTED, "digests in `configs()` order");
}
