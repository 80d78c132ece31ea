//! Chain generators shared by the unit tests.

use chain_sim::rng::SplitMix64;
use chain_sim::ClosedChain;
use grid_geom::{Offset, Point};

/// A random taut closed chain of `2m` robots: `m` random unit steps and
/// their opposites, shuffled. Every closed grid chain of that length
/// arises this way, including the tiny ones that the ±3 view and the
/// merge-pattern flanks wrap around.
pub(crate) fn shuffled_loop(rng: &mut SplitMix64, m: usize) -> ClosedChain {
    let dirs = [Offset::RIGHT, Offset::UP, Offset::LEFT, Offset::DOWN];
    let mut steps: Vec<Offset> = (0..m).map(|_| *rng.choose(&dirs)).collect();
    steps.extend(steps.clone().into_iter().map(|s| -s));
    rng.shuffle(&mut steps);
    let mut pos = Vec::with_capacity(2 * m);
    let mut p = Point::new(rng.range_i64_inclusive(-50, 50), 7);
    for s in steps {
        pos.push(p);
        p += s;
    }
    ClosedChain::new(pos).expect("a shuffled step multiset closes")
}
