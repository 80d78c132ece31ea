//! Random workload families.
//!
//! Determinism matters for the experiment tables: both generators are pure
//! functions of `(n, seed)` via a seeded [`SplitMix64`].

use crate::families::skyline;
use crate::rng::SplitMix64;
use crate::walk::{Walk, E, N, S, W};
use chain_sim::ClosedChain;
use grid_geom::Point;

/// A uniformly shuffled *closed lattice walk* with `n` unit steps (`n`
/// rounded up to the next even value, at least 4): a balanced multiset of
/// +x/−x/+y/−y steps in random order, from the origin.
///
/// Consecutive robots always differ (every step is a unit step), so this is
/// a valid closed chain; it self-crosses and folds back on itself freely —
/// the fully adversarial input class for the gathering algorithm (the paper
/// only requires that chain *neighbors* start on distinct points).
pub fn random_loop(n: usize, seed: u64) -> ClosedChain {
    let n = n.max(4);
    let n = if n % 2 == 1 { n + 1 } else { n };
    let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    // a pairs of ±x and b pairs of ±y with 2(a + b) = n, a, b ≥ 1.
    let half = n / 2;
    let a = if half <= 2 {
        1
    } else {
        rng.range_usize(1, half)
    };
    let b = half - a;
    let (a, b) = if b == 0 { (a - 1, 1) } else { (a, b) };
    let (a, b) = (a as i64, b as i64);
    let mut walk = Walk::new(Point::new(0, 0), n);
    walk.run(E, a).run(W, a).run(N, b).run(S, b);
    rng.shuffle(&mut walk.codes);
    walk.close("random loop")
}

/// A random skyline polygon with roughly `n` robots: random column heights
/// over a width chosen so the perimeter comes out near `n`.
pub fn random_skyline(n: usize, seed: u64) -> ClosedChain {
    let n = n.max(8);
    let mut rng = SplitMix64::new(seed ^ 0x2545_f491_4f6c_dd1d);
    // Perimeter ≈ 2w + 2·E[h] + Σ|Δh| ≈ w·(2 + E|Δh|); with heights in
    // 1..=6, E|Δh| ≈ 1.9, so w ≈ n/4 lands near n.
    let w = (n / 4).max(2);
    let max_h = 6.min(1 + n as i64 / 8).max(2);
    let heights: Vec<i64> = (0..w).map(|_| rng.range_i64_inclusive(1, max_h)).collect();
    skyline(&heights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_sim::invariant;

    #[test]
    fn random_loop_is_valid_and_deterministic() {
        for n in [4usize, 8, 16, 100, 1001] {
            for seed in [0u64, 1, 99] {
                let a = random_loop(n, seed);
                let b = random_loop(n, seed);
                assert_eq!(a.positions(), b.positions(), "determinism n={n}");
                assert!(invariant::is_taut(&a), "n={n} seed={seed}");
                assert_eq!(a.len() % 2, 0);
            }
        }
    }

    #[test]
    fn random_loop_differs_across_seeds() {
        let a = random_loop(64, 1);
        let b = random_loop(64, 2);
        assert_ne!(a.positions(), b.positions());
    }

    #[test]
    fn random_skyline_is_valid() {
        for n in [8usize, 30, 100, 500] {
            for seed in [3u64, 17] {
                let c = random_skyline(n, seed);
                assert!(invariant::is_taut(&c), "n={n} seed={seed}");
                // Simple polygon: turning number ±4.
                assert_eq!(invariant::signed_turning_quarters(&c).abs(), 4);
            }
        }
    }

    #[test]
    fn random_loop_odd_n_rounds_up() {
        let c = random_loop(9, 5);
        assert_eq!(c.len(), 10);
    }
}
