//! Ad-hoc debug harness: watch a big rectangle evolve.
use chain_sim::{ClosedChain, Sim};
use gathering_core::ClosedChainGathering;
use grid_geom::Point;
use std::collections::BTreeMap;

fn rectangle(w: i64, h: i64) -> ClosedChain {
    let mut pts = vec![Point::new(0, 0)];
    pts.extend((1..w).map(|x| Point::new(x, 0)));
    pts.extend((1..h).map(|y| Point::new(w - 1, y)));
    pts.extend((1..w).map(|x| Point::new(w - 1 - x, h - 1)));
    pts.extend((1..h - 1).map(|y| Point::new(0, h - 1 - y)));
    ClosedChain::new(pts).unwrap()
}

fn render(sim: &Sim<ClosedChainGathering>) -> String {
    let chain = sim.chain();
    let bbox = chain.bounding();
    let mut grid: BTreeMap<(i64, i64), char> = BTreeMap::new();
    use chain_sim::Strategy;
    for i in 0..chain.len() {
        let p = chain.pos(i);
        let m = sim.strategy().marker(i).unwrap_or('o');
        let e = grid.entry((p.x, p.y)).or_insert(m);
        if m != 'o' {
            *e = m;
        } else if *e == 'o' {
            *e = 'o';
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
    let w: i64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20);
    let h: i64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(12);
    let max: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(200);
    let c = rectangle(w, h);
    let mut sim = Sim::new(c, ClosedChainGathering::paper());
    let mut last_len = sim.chain().len();
    for r in 0..max {
        if sim.is_gathered() {
            println!("GATHERED at round {r}");
            return;
        }
        let rep = sim.step().unwrap();
        let print_it = r < 5 || rep.removed > 0 || r % 25 == 0;
        if print_it {
            println!(
                "--- round {} len {} removed {} (runs alive: {}) ---",
                r,
                rep.len_after,
                rep.removed,
                sim.strategy().runs().len()
            );
            println!("{}", render(&sim));
        }
        last_len = rep.len_after;
    }
    println!("NOT gathered after {max} rounds; len {last_len}");
}
