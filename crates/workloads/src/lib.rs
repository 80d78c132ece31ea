//! # workloads
//!
//! Closed-chain workload generators for the gathering experiments.
//!
//! The paper evaluates an *arbitrary* closed chain; these families cover the
//! structural extremes its machinery must handle:
//!
//! * [`families::rectangle`] — four quasi lines joined at Fig. 5(ii)
//!   corners; the canonical "reshapement everywhere" input.
//! * [`families::crenellated_band`] — castle-wall rings: dense merge
//!   patterns with maximal overlap (Fig. 3 cases).
//! * [`families::staircase_diamond`] — almost everywhere stairway
//!   (merge-free, Fig. 16); progress must come from the diamond tips.
//! * [`families::comb`] — long parallel corridors (nested quasi lines,
//!   pipelining and run passing stress).
//! * [`families::skyline`] — random simple rectilinear polygons (mixed
//!   structure).
//! * [`families::hairpin_flower`] — zero-area arms: k = 1 merge patterns
//!   and self-overlapping chains.
//! * [`random_loop`] — arbitrary self-crossing closed lattice walks, the
//!   fully adversarial case.
//!
//! Every family is written as a walk of step codes from robot 0 — the
//! edge codes [`ClosedChain`] stores — and closed through
//! [`ClosedChain::from_codes`], which checks that the walk closes; no
//! position list is built. Position input (the [`mod@perturb`] operators,
//! [`CellRegion`] traces) goes through the validating
//! [`ClosedChain::new`].

pub mod euclid;
pub mod extra;
pub mod families;
pub mod perturb;
pub mod polyomino;
pub mod random;
pub mod rng;
mod walk;

pub use euclid::{euclid_points, ring};
pub use extra::{cross, serpentine, spiral};
pub use families::{comb, crenellated_band, hairpin_flower, rectangle, skyline, staircase_diamond};
pub use perturb::{insert_detour, insert_hairpin, perturb};
pub use polyomino::CellRegion;
pub use random::{random_loop, random_skyline};
pub use rng::SplitMix64;

use chain_sim::ClosedChain;

/// Rough robot count of `spiral(turns)` (used to size instances).
fn spiral_len_estimate(turns: usize) -> usize {
    // Each lap contributes about 4 sides of average length ~4t.
    16 * turns * turns + 24 * turns + 8
}

/// Enumeration of workload families used by the benchmark harness (one row
/// per family in the EXPERIMENTS.md tables).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Rectangle,
    Crenellated,
    StaircaseDiamond,
    Comb,
    Skyline,
    HairpinFlower,
    RandomLoop,
    Spiral,
    Serpentine,
    Cross,
}

impl Family {
    pub const ALL: [Family; 10] = [
        Family::Rectangle,
        Family::Crenellated,
        Family::StaircaseDiamond,
        Family::Comb,
        Family::Skyline,
        Family::HairpinFlower,
        Family::RandomLoop,
        Family::Spiral,
        Family::Serpentine,
        Family::Cross,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Family::Rectangle => "rectangle",
            Family::Crenellated => "crenellated",
            Family::StaircaseDiamond => "staircase-diamond",
            Family::Comb => "comb",
            Family::Skyline => "skyline",
            Family::HairpinFlower => "hairpin-flower",
            Family::RandomLoop => "random-loop",
            Family::Spiral => "spiral",
            Family::Serpentine => "serpentine",
            Family::Cross => "cross",
        }
    }

    /// Parse a family from its [`Family::name`] string (the inverse
    /// round-trip, used by the campaign store to deserialize specs).
    pub fn from_name(name: &str) -> Option<Family> {
        Family::ALL.iter().copied().find(|f| f.name() == name)
    }

    /// Generate an instance with roughly `n` robots (exact size depends on
    /// the family's parameterization; the returned chain's `len()` is
    /// authoritative). `seed` feeds the random families and is ignored by
    /// deterministic ones.
    ///
    /// Size contract (property-tested in `tests/workload_properties.rs`):
    /// every family returns a *valid* chain with
    /// `4 ≤ len ≤ 4·n + 64`, and `len ≥ n/8` once `n ≥ 32` (families
    /// quantize to their structural period, so tiny requests round up to
    /// the family minimum). Generation is a pure function of
    /// `(family, n, seed)`.
    pub fn generate(&self, n: usize, seed: u64) -> ClosedChain {
        let n = n.max(8);
        match self {
            Family::Rectangle => {
                // Perimeter 2(w+h) - 4 ≈ n with w ≈ 2h.
                let h = ((n + 4) as f64 / 6.0).ceil() as i64 + 1;
                let w = ((n as i64 + 4) - 2 * h) / 2;
                rectangle(w.max(2), h.max(2))
            }
            Family::Crenellated => {
                // Each tooth contributes 4 robots on top and bottom plus
                // side columns.
                let teeth = (n / 10).max(1);
                crenellated_band(teeth, 3)
            }
            Family::StaircaseDiamond => {
                let r = (n / 8).max(1) as i64;
                staircase_diamond(r)
            }
            Family::Comb => {
                // Long teeth: corridor walls become vertical quasi lines
                // longer than the viewing range, forcing run reshapement
                // and run passing (the Fig. 9 pipelining stress).
                let tooth_len = ((n / 12).max(4) as i64).min(24);
                let per_tooth = 2 * tooth_len as usize + 3;
                let teeth = (n / per_tooth).max(1);
                comb(teeth, tooth_len)
            }
            Family::Skyline => random_skyline(n, seed),
            Family::HairpinFlower => {
                let arm = (n / 8).max(1) as i64;
                hairpin_flower(arm)
            }
            Family::RandomLoop => random_loop(n, seed),
            Family::Spiral => {
                // Perimeter grows ~quadratically in turns; invert.
                let mut turns = 1;
                while spiral_len_estimate(turns + 1) <= n {
                    turns += 1;
                }
                spiral(turns)
            }
            Family::Serpentine => {
                let rows = ((n as f64 / 2.0).sqrt() / 1.6).ceil().max(1.0) as usize;
                let len = ((n / (2 * rows)).max(3)) as i64;
                serpentine(rows, len)
            }
            Family::Cross => {
                let arm = ((n as i64 - 8) / 8).max(2);
                cross(arm, 3)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_generate_valid_chains() {
        for fam in Family::ALL {
            for n in [8, 16, 40, 120, 400] {
                for seed in [1u64, 7, 42] {
                    let c = fam.generate(n, seed);
                    c.validate()
                        .unwrap_or_else(|e| panic!("{} n={n} seed={seed}: {e}", fam.name()));
                    assert!(c.len() >= 4, "{} too small", fam.name());
                    // Sizes track the request within a loose factor.
                    assert!(
                        c.len() <= 4 * n + 64,
                        "{} n={n}: got {}",
                        fam.name(),
                        c.len()
                    );
                }
            }
        }
    }

    #[test]
    fn family_names_unique() {
        let mut names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Family::ALL.len());
    }

    #[test]
    fn family_name_round_trips() {
        for fam in Family::ALL {
            assert_eq!(Family::from_name(fam.name()), Some(fam));
        }
        assert_eq!(Family::from_name("no-such-family"), None);
        assert_eq!(Family::from_name("Rectangle"), None); // names are exact
    }
}
