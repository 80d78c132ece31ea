//! Replay the paper's figures as executable scenarios.
//!
//! ```text
//! cargo run --release --example figures
//! ```
//!
//! Each section reconstructs the configuration of a figure of
//! *Gathering a Closed Chain of Robots on a Grid* from its prose
//! description, executes the algorithm on it, and prints before/after
//! states so the depicted behavior can be verified by eye (the same
//! scenarios are hard-asserted in `tests/figures.rs`).

use chain_sim::{ClosedChain, Sim, Strategy};
use chain_viz::ascii::{self, AsciiOptions};
use gathering_core::{ClosedChainGathering, GatherConfig, MergeScan};
use grid_geom::Point;

fn chain(coords: &[(i64, i64)]) -> ClosedChain {
    ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
}

fn rectangle(w: i64, h: i64) -> ClosedChain {
    let mut pts = vec![Point::new(0, 0)];
    pts.extend((1..w).map(|x| Point::new(x, 0)));
    pts.extend((1..h).map(|y| Point::new(w - 1, y)));
    pts.extend((1..w).map(|x| Point::new(w - 1 - x, h - 1)));
    pts.extend((1..h - 1).map(|y| Point::new(0, h - 1 - y)));
    ClosedChain::new(pts).unwrap()
}

fn show(title: &str, c: &ClosedChain) {
    println!("{title}");
    println!("{}", ascii::render(c));
}

fn show_marked(title: &str, sim: &Sim<ClosedChainGathering>) {
    println!("{title}");
    println!(
        "{}",
        ascii::render_with_markers(
            sim.chain(),
            |i| sim.strategy().marker(i),
            AsciiOptions::default()
        )
    );
}

fn main() {
    fig1();
    fig2();
    fig3b();
    fig4_7_good_pair();
    fig8_passing();
    fig9_pipelining();
    fig16_stairways();
}

/// Figure 1: the 2×3 ring where r2, r3 hop down and the chain shortens.
fn fig1() {
    println!("=== Figure 1: merge shortens the chain ===");
    let c = chain(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]);
    show("before (6 robots):", &c);
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    let report = sim.step().unwrap();
    println!(
        "one FSYNC round: {} robots hopped, {} merged away",
        report.moved, report.removed
    );
    show("after:", sim.chain());
    println!("gathered: {}\n", sim.is_gathered());
}

/// Figure 2: the merge patterns for k = 1 (hairpin tip) and k > 1.
fn fig2() {
    println!("=== Figure 2: merge patterns (k = 1 and k > 1) ===");
    // k = 1: a zero-area fold — both whites on the same point.
    let c = chain(&[(0, 0), (1, 0), (2, 0), (1, 0)]);
    show("k = 1 (hairpin; '2' marks two robots on one point):", &c);
    let mut scan = MergeScan::default();
    scan.scan(&c, &GatherConfig::paper());
    println!(
        "patterns found: {} (the two fold tips hop onto their coinciding neighbors)",
        scan.patterns().len()
    );
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    sim.step().unwrap();
    show("after one round:", sim.chain());

    // k = 5: the 2×5 band; top and bottom rows are 5-long black segments.
    let c = chain(&[
        (0, 0),
        (0, 1),
        (1, 1),
        (2, 1),
        (3, 1),
        (4, 1),
        (4, 0),
        (3, 0),
        (2, 0),
        (1, 0),
    ]);
    show("k = 5 (2×5 band):", &c);
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    let report = sim.step().unwrap();
    println!("one round: removed {}", report.removed);
    show("after:", sim.chain());
    println!();
}

/// Figure 3b: overlap by three robots — the corner robot is black in a
/// horizontal and a vertical pattern and hops diagonally.
fn fig3b() {
    println!("=== Figure 3b: overlapping patterns, diagonal hop ===");
    let c = rectangle(4, 2);
    show(
        "before (4×2 ring; every corner combines two black roles):",
        &c,
    );
    let mut scan = MergeScan::default();
    scan.scan(&c, &GatherConfig::paper());
    for i in 0..c.len() {
        let h = scan.merge_hop(i);
        if h.is_diagonal() {
            println!("robot at {} hops diagonally {}", c.pos(i), h);
        }
    }
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    let report = sim.step().unwrap();
    println!("one round: removed {}", report.removed);
    show("after:", sim.chain());
}

/// Figures 4–7: a good pair reshapes a long line from both ends.
fn fig4_7_good_pair() {
    println!("=== Figures 4-7: good pair reshapement on a 20×12 ring ===");
    let c = rectangle(20, 12);
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    show_marked("round 0 (runs start at the four Fig. 5(ii) corners):", &sim);
    for _ in 0..2 {
        sim.step().unwrap();
    }
    show_marked(
        "round 2 ('>' and '<' are run states moving along the chain):",
        &sim,
    );
    for _ in 0..4 {
        sim.step().unwrap();
    }
    show_marked("round 6 (corners folded; edges eroding inward):", &sim);
    let outcome = sim.run_default();
    println!("outcome: {outcome:?}\n");
}

/// Figure 8: runs of a non-good pair pass each other without reshaping.
fn fig8_passing() {
    println!("=== Figure 8/14: run passing ===");
    // An S-shaped band: the two quasi-line endpoint runs started on the
    // middle segment have opposite fold sides and must pass.
    let c = rectangle(26, 8);
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    let limit = 26 * 8 * 64;
    let mut passings = 0;
    for _ in 0..limit {
        if sim.is_gathered() {
            break;
        }
        sim.step().unwrap();
        passings = sim.strategy().stats().passings_started;
    }
    println!(
        "gathered: {} — run passings observed: {}\n",
        sim.is_gathered(),
        passings
    );
}

/// Figure 9: pipelining — new runs every L = 13 rounds work in parallel.
fn fig9_pipelining() {
    println!("=== Figure 9: pipelining ===");
    let c = rectangle(40, 20);
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    let mut max_live = 0usize;
    for _ in 0..200 {
        if sim.is_gathered() {
            break;
        }
        sim.step().unwrap();
        let live = sim.strategy().runs().len();
        max_live = max_live.max(live);
    }
    println!(
        "max simultaneously live runs in the first 200 rounds: {max_live} (> 2 pairs ⇒ pipelining)\n"
    );
}

/// Figure 16: stairways connect quasi lines without enabling merges.
fn fig16_stairways() {
    println!("=== Figure 16: stairways are merge-free ===");
    let c = workloads::staircase_diamond(8);
    show("staircase diamond (all runs of length 2):", &c);
    let mut scan = MergeScan::default();
    scan.scan(&c, &GatherConfig::paper());
    println!(
        "merge patterns on the diamond: {} (only at the 4 tips, k ≤ 2)",
        scan.patterns().len()
    );
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    let outcome = sim.run_default();
    println!("outcome: {outcome:?}");
}
