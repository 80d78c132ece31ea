//! Strictly local merge-role detection (the per-robot view of §3.1).
//!
//! The engine computes merge patterns with a global O(n) scan
//! ([`crate::merge::MergeScan`]) because that is efficient; the *model*
//! demands that each robot can derive its own role from its bounded view
//! alone. This module implements exactly that: [`merge_role_at`] computes
//! a robot's black/white roles and hop from a [`Ring`] view, reading at
//! most `max_k + 2 ≤ V + 1` robots in each direction.
//!
//! `tests::oracle_equivalence` (and the workspace integration tests) check
//! that the local rule and the global scan agree on every robot of random
//! chains — the global scan is an optimization, not extra power.

use crate::config::GatherConfig;
use chain_sim::Ring;
use grid_geom::Offset;

/// A robot's merge roles as derived from its own view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalMergeRole {
    /// Accumulated black hop (sum of at most two orthogonal directions).
    pub hop: Offset,
    /// Black in some pattern.
    pub black: bool,
    /// White of some pattern.
    pub white: bool,
}

impl Default for LocalMergeRole {
    fn default() -> Self {
        LocalMergeRole {
            hop: Offset::ZERO,
            black: false,
            white: false,
        }
    }
}

/// Extent of the maximal monotone run through the edge `(origin+d·dir)`
/// direction, as (robots before center, robots after center) — helper for
/// the role derivation below.
fn run_reach(v: &Ring<'_>, dir: isize, step: Offset, max: isize) -> isize {
    // How many consecutive steps equal to `step` extend from the center in
    // chain direction `dir` (looking at edges center..center+dir, ...).
    let mut r = 0;
    while r < max {
        let s = if dir > 0 {
            v.abs(r + 1) - v.abs(r)
        } else {
            v.abs(-r) - v.abs(-r - 1)
        };
        if s != step {
            break;
        }
        r += 1;
    }
    r
}

/// Compute the center robot's merge roles from its local view only.
///
/// Reads at most `cfg.effective_max_k() + 2` robots per direction — within
/// the viewing path length for all legal configurations.
pub fn merge_role_at(v: &Ring<'_>, cfg: &GatherConfig) -> LocalMergeRole {
    let mut role = LocalMergeRole::default();
    let n = v.chain_len();
    if n < 4 {
        return role;
    }
    let max_k = cfg.effective_max_k() as isize;

    let s_in = v.abs(0) - v.abs(-1); // step arriving at center
    let s_out = v.abs(1) - v.abs(0); // step leaving center

    // --- k = 1 black: exact fold (Fig. 2 bottom). ---
    if s_in == -s_out {
        role.black = true;
        role.hop += s_out;
    }

    // --- k ≥ 2 black: the center lies on a maximal monotone segment whose
    // two flanks are opposite perpendicular steps. The segment runs along
    // `s_in` (if s_in == s_out the center is interior; ends otherwise).
    for axis_step in [s_in, s_out] {
        if s_in == -s_out {
            break; // the fold case was handled; no k ≥ 2 segment here
        }
        // Consider the segment of steps equal to `axis_step` through the
        // center (from the matching side).
        let back = run_reach(v, -1, axis_step, max_k + 1);
        let fwd = run_reach(v, 1, axis_step, max_k + 1);
        // The center belongs to this segment only if the adjacent edge on
        // that side actually matches.
        if back == 0 && fwd == 0 {
            continue;
        }
        let k = back + fwd + 1;
        if k < 2 || k > max_k {
            continue;
        }
        // Flanks: the step before the first black and after the last.
        let flank_in = v.abs(-back) - v.abs(-back - 1);
        let flank_out = v.abs(fwd + 1) - v.abs(fwd);
        if flank_in == -flank_out && flank_out.perpendicular_to(axis_step) {
            role.black = true;
            role.hop += flank_out;
        }
        if s_in == s_out {
            break; // interior: both axis_steps identical, avoid recount
        }
    }

    // --- White: the center is the outer neighbor of a pattern's end black
    // in either chain direction. ---
    for dir in [1isize, -1] {
        // Candidate pattern: blacks start at center+dir; the step from the
        // first black back to the center must be the hop direction v
        // (center = black + v ⟺ step(center→first black) = −v).
        let v_dir = v.abs(0) - v.abs(dir); // candidate hop direction
        if !v_dir.is_unit_step() {
            continue;
        }
        // k = 1 white: the black at center+dir folds onto us.
        let other_step = v.abs(2 * dir) - v.abs(dir);
        let to_black = -v_dir; // step from center to the black
        if other_step == -to_black && to_black == -v_dir {
            // black's two incident steps are (center→black) and
            // (black→next) = -(center→black): a fold whose hop is towards
            // us exactly when next == center position.
            if v.abs(2 * dir) == v.abs(0) {
                role.white = true;
            }
        }
        // k ≥ 2 white: blacks extend from center+dir along an axis ⊥ v.
        let seg_step = v.abs(2 * dir) - v.abs(dir);
        if !seg_step.is_unit_step() || !seg_step.perpendicular_to(v_dir) {
            continue;
        }
        // Walk the segment.
        let mut k = 1isize;
        while k <= max_k {
            let s = v.abs((k + 1) * dir) - v.abs(k * dir);
            if s != seg_step {
                break;
            }
            k += 1;
        }
        if k < 2 || k > max_k {
            continue;
        }
        // Far flank must mirror: step(last black → far white) == v_dir
        // ... in chain direction `dir` the far flank step is
        // abs((k+1)·dir) − abs(k·dir) viewed from the segment's own
        // orientation; the condition flank_in == −flank_out of the global
        // scan translates to the far step equaling v_dir when walking
        // outward (or −v_dir in index terms for dir = −1 — the Ring's
        // differences already absorb the orientation).
        let far = v.abs((k + 1) * dir) - v.abs(k * dir);
        if far == v_dir {
            role.white = true;
        }
    }

    role
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{MergePattern, MergeScan};
    use crate::testutil::shuffled_loop;
    use chain_sim::rng::SplitMix64;
    use chain_sim::ClosedChain;
    use grid_geom::Point;

    fn assert_equivalent(chain: &ClosedChain, cfg: &GatherConfig) {
        let mut scan = MergeScan::default();
        scan.scan(chain, cfg);
        for i in 0..chain.len() {
            let view = Ring::with_horizon(chain, i, cfg.view.max(3) + 2);
            let local = merge_role_at(&view, cfg);
            assert_eq!(
                local.black,
                scan.is_black(i),
                "black mismatch at {i} ({:?})",
                chain.pos(i)
            );
            assert_eq!(
                local.white,
                scan.is_white(i),
                "white mismatch at {i} ({:?})",
                chain.pos(i)
            );
            if scan.is_black(i) {
                assert_eq!(local.hop, scan.merge_hop(i), "hop mismatch at {i}");
            }
        }
    }

    /// Every robot's merge hop, black role and white role.
    fn roles(scan: &MergeScan, n: usize) -> (Vec<Offset>, Vec<bool>, Vec<bool>) {
        (
            (0..n).map(|i| scan.merge_hop(i)).collect(),
            (0..n).map(|i| scan.is_black(i)).collect(),
            (0..n).map(|i| scan.is_white(i)).collect(),
        )
    }

    fn chain(coords: &[(i64, i64)]) -> ClosedChain {
        ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn oracle_equivalence_structured() {
        let cfg = GatherConfig::paper();
        // Fig. 1 ring.
        assert_equivalent(
            &chain(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]),
            &cfg,
        );
        // Hairpin.
        assert_equivalent(&chain(&[(0, 0), (1, 0), (2, 0), (1, 0)]), &cfg);
        // 4×2 ring with corner double roles.
        assert_equivalent(
            &chain(&[
                (0, 0),
                (0, 1),
                (1, 1),
                (2, 1),
                (3, 1),
                (3, 0),
                (2, 0),
                (1, 0),
            ]),
            &cfg,
        );
    }

    #[test]
    fn oracle_equivalence_random_loops() {
        let cfg = GatherConfig::paper();
        for seed in 0..40u64 {
            let c = workloads::random_loop(60, seed);
            assert_equivalent(&c, &cfg);
        }
    }

    #[test]
    fn oracle_equivalence_families() {
        let cfg = GatherConfig::paper();
        for fam in workloads::Family::ALL {
            for seed in [0u64, 3] {
                let c = fam.generate(80, seed);
                assert_equivalent(&c, &cfg);
            }
        }
    }

    /// Every merge pattern by brute force over (first black, k), read
    /// straight from the positions: the definition the scan implements.
    fn brute_patterns(chain: &ClosedChain, cfg: &GatherConfig) -> Vec<MergePattern> {
        let n = chain.len();
        let mut out = Vec::new();
        if n < 4 {
            return out;
        }
        let step = |i: usize, d: isize| chain.step(chain.nb(i, d));
        for f in 0..n {
            let (s_in, u) = (step(f, -1), step(f, 0));
            if s_in == -u {
                out.push(MergePattern {
                    first_black: f,
                    k: 1,
                    dir: u,
                });
            }
            // k ≥ 2: the k − 1 steps from f on all equal `u` and the run
            // ends there; the flanks are opposite and perpendicular to it.
            for k in 2..=cfg.effective_max_k().min(n) {
                if step(f, k as isize - 2) != u {
                    break;
                }
                let s_out = step(f, k as isize - 1);
                if s_out == u {
                    continue;
                }
                if s_in == -s_out && s_out.perpendicular_to(u) {
                    out.push(MergePattern {
                        first_black: f,
                        k,
                        dir: s_out,
                    });
                }
                break;
            }
        }
        out
    }

    /// The scan under a suppression mask equals the brute-force patterns
    /// with every pattern holding a suppressed black dropped: fired
    /// patterns, hops, black and white roles, and the inherent `k` of
    /// every detected pattern.
    fn assert_suppressed_matches_brute(
        scan: &mut MergeScan,
        chain: &ClosedChain,
        cfg: &GatherConfig,
        mask: &[bool],
    ) {
        let n = chain.len();
        scan.scan_suppressed(chain, cfg, mask);
        let detected = brute_patterns(chain, cfg);
        let mut inherent_k = vec![0u8; n];
        let mut hop = vec![Offset::ZERO; n];
        let (mut black, mut white) = (vec![false; n], vec![false; n]);
        let mut fired = Vec::new();
        for p in &detected {
            for b in p.blacks(chain) {
                inherent_k[b] = inherent_k[b].max(p.k as u8);
            }
            if p.blacks(chain).any(|b| mask[b]) {
                continue;
            }
            for b in p.blacks(chain) {
                hop[b] += p.dir;
                black[b] = true;
            }
            white[p.w1(chain)] = true;
            white[p.w2(chain)] = true;
            fired.push(*p);
        }
        let key = |p: &MergePattern| (p.first_black, p.k, p.dir);
        let mut got = scan.patterns().to_vec();
        got.sort_by_key(key);
        fired.sort_by_key(key);
        assert_eq!(got, fired, "fired patterns, n = {n}, mask {mask:?}");
        assert_eq!(roles(scan, n), (hop, black, white), "roles, n = {n}");
        assert_eq!(scan.inherent_k(), inherent_k, "inherent k, n = {n}");
    }

    /// Chains of 4 to 8 robots, where patterns and the view wrap around
    /// the whole chain: the local rule still agrees with the scan, and the
    /// suppressed scan with the brute force under random masks.
    #[test]
    fn oracle_equivalence_tiny_chains_with_suppression() {
        let mut rng = SplitMix64::new(0x7e57);
        let mut scan = MergeScan::default();
        for cfg in [GatherConfig::paper(), GatherConfig::proof_mode()] {
            for m in 2..=4 {
                for _ in 0..400 {
                    let c = shuffled_loop(&mut rng, m);
                    assert_equivalent(&c, &cfg);
                    let mask: Vec<bool> = (0..c.len()).map(|_| rng.chance(1, 3)).collect();
                    assert_suppressed_matches_brute(&mut scan, &c, &cfg, &mask);
                }
            }
        }
    }

    #[test]
    fn suppressed_scan_matches_brute_force() {
        let mut rng = SplitMix64::new(0x5c4e);
        let mut scan = MergeScan::default();
        let cfg = GatherConfig::paper();
        let mut chains: Vec<ClosedChain> =
            (0..20u64).map(|s| workloads::random_loop(60, s)).collect();
        chains.extend(workloads::Family::ALL.iter().map(|f| f.generate(80, 5)));
        for c in &chains {
            assert_suppressed_matches_brute(&mut scan, c, &cfg, &vec![false; c.len()]);
            for density in [8, 3, 1] {
                let mask: Vec<bool> = (0..c.len()).map(|_| rng.chance(1, density)).collect();
                assert_suppressed_matches_brute(&mut scan, c, &cfg, &mask);
            }
        }
    }

    /// One scan reused on two different chains of the same length gives
    /// what a fresh scan gives on the second: nothing of the first chain's
    /// edge codes survives.
    #[test]
    fn reused_scan_has_no_stale_codes() {
        let cfg = GatherConfig::paper();
        let mut rng = SplitMix64::new(0x2e05);
        let mut reused = MergeScan::default();
        for seed in 0..30u64 {
            let a = workloads::random_loop(64, seed);
            let b = shuffled_loop(&mut rng, a.len() / 2);
            assert_eq!(a.len(), b.len());
            reused.scan(&a, &cfg);
            reused.scan(&b, &cfg);
            let mut fresh = MergeScan::default();
            fresh.scan(&b, &cfg);
            assert_eq!(reused.patterns(), fresh.patterns(), "seed {seed}");
            let n = b.len();
            assert_eq!(roles(&reused, n), roles(&fresh, n), "seed {seed}");
            assert_eq!(reused.inherent_k(), fresh.inherent_k(), "seed {seed}");
        }
    }

    #[test]
    fn oracle_equivalence_proof_mode() {
        let cfg = GatherConfig::proof_mode();
        for seed in 0..20u64 {
            let c = workloads::random_loop(40, seed);
            assert_equivalent(&c, &cfg);
        }
    }
}
