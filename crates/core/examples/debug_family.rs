//! Watch any workload family evolve under the paper strategy.
use chain_sim::{Sim, Strategy};
use gathering_core::ClosedChainGathering;
use std::collections::BTreeMap;
use workloads::Family;

fn render(sim: &Sim<ClosedChainGathering>) -> String {
    let chain = sim.chain();
    let bbox = chain.bounding();
    let mut grid: BTreeMap<(i64, i64), char> = BTreeMap::new();
    for i in 0..chain.len() {
        let p = chain.pos(i);
        let m = sim.strategy().marker(i);
        let e = grid.entry((p.x, p.y)).or_insert('o');
        if let Some(mk) = m {
            *e = mk;
        }
    }
    let mut s = String::new();
    for y in (bbox.min.y..=bbox.max.y).rev() {
        for x in bbox.min.x..=bbox.max.x {
            s.push(*grid.get(&(x, y)).unwrap_or(&'.'));
        }
        s.push('\n');
    }
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fam = match args.get(1).map(|s| s.as_str()) {
        Some("comb") => Family::Comb,
        Some("skyline") => Family::Skyline,
        Some("random") => Family::RandomLoop,
        Some("cren") => Family::Crenellated,
        Some("diamond") => Family::StaircaseDiamond,
        Some("hairpin") => Family::HairpinFlower,
        _ => Family::Rectangle,
    };
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(112);
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(3);
    let max: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(100);
    let every: u64 = args.get(5).and_then(|s| s.parse().ok()).unwrap_or(10);
    let chain = fam.generate(n, seed);
    println!("family {} n={} seed={}", fam.name(), chain.len(), seed);
    let mut sim = Sim::new(chain, ClosedChainGathering::paper());
    for r in 0..max {
        if sim.is_gathered() {
            println!("GATHERED at round {r}");
            return;
        }
        let rep = sim.step().unwrap();
        if r % every == 0 || rep.removed > 0 {
            println!(
                "--- round {} len {} removed {} runs {} ---",
                r,
                rep.len_after,
                rep.removed,
                sim.strategy().runs().len()
            );
            println!("{}", render(&sim));
        }
    }
    println!("NOT gathered; len {}", sim.chain().len());
    let c = sim.chain();
    for i in 0..c.len() {
        print!("{:?} ", c.pos(i));
    }
    println!();
}
