//! Generator identity: every [`Family`] is pinned by an FNV-1a digest of
//! the chains it generates — origin, edge codes and ids — over a grid of
//! sizes and seeds. Every golden downstream (scheduler fingerprints,
//! `kernel_diff`, replay goldens, the benchmark digests) starts from these
//! chains, so a generator rewrite must leave this table unchanged.
//!
//! Each generated chain must also equal the chain its own positions
//! validate to through [`ClosedChain::new`], and the one its own origin and
//! codes rebuild through [`ClosedChain::from_codes`].

use chain_sim::ClosedChain;
use workloads::Family;

/// The requested sizes: every small size (where the families quantize),
/// both sides of the 64- and 256-robot word boundaries, and the large
/// chains of the benchmark.
fn sizes() -> impl Iterator<Item = usize> {
    (8..=40)
        .chain(63..=65)
        .chain(255..=260)
        .chain([1000, 4096, 16384])
}

const SEEDS: [u64; 3] = [1, 2, 0x5eed];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The digest of one family over every size and seed, in that order.
fn family_digest(family: Family) -> u64 {
    let mut h = Fnv::new();
    for n in sizes() {
        for seed in SEEDS {
            let c = family.generate(n, seed);
            let rebuilt = ClosedChain::from_codes(c.origin(), c.codes().to_vec());
            assert!(
                rebuilt.as_ref() == Ok(&c),
                "{} n={n} seed={seed}: differs from ClosedChain::from_codes of its codes",
                family.name()
            );
            let revalidated = ClosedChain::new(c.positions().to_vec());
            assert!(
                revalidated.as_ref() == Ok(&c),
                "{} n={n} seed={seed}: differs from ClosedChain::new of its positions",
                family.name()
            );
            h.u64(c.origin().x as u64);
            h.u64(c.origin().y as u64);
            h.u64(c.len() as u64);
            h.bytes(c.codes());
            for id in c.ids() {
                h.u64(id.0);
            }
        }
    }
    h.0
}

#[test]
fn generated_chains_match_pinned_digests() {
    let expected: [(Family, u64); 10] = [
        (Family::Rectangle, 0x52df_2196_d8ad_8d01),
        (Family::Crenellated, 0x2067_a04c_1356_0bf2),
        (Family::StaircaseDiamond, 0x21ed_d04a_dfd8_9ccf),
        (Family::Comb, 0x2cde_2571_52d5_13dc),
        (Family::Skyline, 0xa525_a696_8a32_c0c8),
        (Family::HairpinFlower, 0x24ac_3b99_62e8_444f),
        (Family::RandomLoop, 0x2695_86c4_561c_5b63),
        (Family::Spiral, 0xd7d5_a526_d58d_debd),
        (Family::Serpentine, 0xfdf8_168b_75a0_750c),
        (Family::Cross, 0xa0b0_8ff0_c69b_a3d7),
    ];
    let got: Vec<(Family, u64)> = Family::ALL.iter().map(|&f| (f, family_digest(f))).collect();
    assert_eq!(got, expected);
}
