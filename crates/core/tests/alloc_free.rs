//! The paper round allocates nothing on the heap once it is warm:
//! `ClosedChainGathering::compute` from round 1 on (round 0 sizes the merge
//! scan's buffers; `init` reserves the run tables) and `post_merge` in
//! every round, counted by a global allocator on the calling thread.
//! The whole engine round (`Sim::step`) allocates nothing from round 1 on,
//! merge pass included: the merge events share one buffer of removed ids
//! that `Sim::new` sizes, and nothing on the hot path decodes the chain's
//! positions, which would allocate their cache. A
//! standalone `MergeScan` reused on a chain no longer than its first one
//! allocates nothing either: it reads the chain's edge codes in place.

use chain_sim::{ClosedChain, RunLimits, Sim, SpliceLog, Strategy};
use gathering_core::{ClosedChainGathering, GatherConfig, MergeScan};
use grid_geom::Offset;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The count only touches a
// const-initialized thread-local without a destructor, so it neither
// allocates nor fails during thread teardown (`try_with`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The paper strategy with the allocations of its hooks tallied.
struct Counted {
    inner: ClosedChainGathering,
    compute_allocs: u64,
    post_merge_allocs: u64,
    merging_rounds: u64,
}

impl Strategy for Counted {
    fn name(&self) -> &'static str {
        "counted-paper"
    }

    fn init(&mut self, chain: &ClosedChain) {
        self.inner.init(chain);
    }

    fn compute(&mut self, chain: &ClosedChain, round: u64, hops: &mut [Offset]) {
        let before = allocs();
        self.inner.compute(chain, round, hops);
        if round > 0 {
            self.compute_allocs += allocs() - before;
        }
    }

    fn post_merge(&mut self, chain: &ClosedChain, round: u64, log: &SpliceLog) {
        let before = allocs();
        self.inner.post_merge(chain, round, log);
        self.post_merge_allocs += allocs() - before;
        self.merging_rounds += u64::from(!log.is_empty());
    }
}

fn assert_allocation_free(chain: ClosedChain) {
    let n = chain.len();
    let counted = Counted {
        inner: ClosedChainGathering::paper(),
        compute_allocs: 0,
        post_merge_allocs: 0,
        merging_rounds: 0,
    };
    let mut sim = Sim::new(chain, counted);
    let outcome = sim.run(RunLimits::for_chain_len(n));
    assert!(outcome.is_gathered(), "n={n}: {outcome:?}");
    let s = sim.strategy();
    assert!(s.merging_rounds > 0, "n={n}: the workload never merged");
    assert!(s.inner.stats().started_total() > 0, "n={n}: no run started");
    assert_eq!(s.compute_allocs, 0, "n={n}: compute allocated");
    assert_eq!(s.post_merge_allocs, 0, "n={n}: post_merge allocated");
}

#[test]
fn merging_rectangle_round_is_allocation_free() {
    // 70 × 60 rectangle: n = 256, long sides beyond the merge bound, so
    // runs start at the corners and the chain shrinks by merges.
    assert_allocation_free(workloads::rectangle(70, 60));
}

#[test]
fn random_loop_round_is_allocation_free() {
    assert_allocation_free(workloads::random_loop(256, 7));
}

#[test]
fn skyline_round_is_allocation_free() {
    assert_allocation_free(workloads::Family::Skyline.generate(256, 3));
}

#[test]
fn reused_merge_scan_is_allocation_free() {
    let cfg = GatherConfig::paper();
    let mut scan = MergeScan::default();
    scan.scan(&workloads::random_loop(256, 1), &cfg);
    let chains: Vec<ClosedChain> = (2..12)
        .map(|s| workloads::random_loop(256 - 16 * s as usize, s))
        .collect();
    let mask = vec![false; 256];
    let before = allocs();
    for c in &chains {
        scan.scan(c, &cfg);
        scan.scan_suppressed(c, &cfg, &mask[..c.len()]);
    }
    assert_eq!(allocs() - before, 0, "a warm merge scan allocated");
}

/// Every engine round from round 1 on allocates nothing, merging or not.
/// Returns the number of rounds without a merge.
fn assert_step_allocates_nothing(chain: ClosedChain) -> u64 {
    let n = chain.len();
    let mut sim = Sim::new(chain, ClosedChainGathering::paper());
    sim.step().expect("round 0");
    let (mut plain, mut merging) = (0, 0);
    let limit = RunLimits::for_chain_len(n).max_rounds;
    while !sim.is_gathered() && sim.round() < limit {
        let before = allocs();
        sim.step().expect("the paper rule keeps the chain");
        let got = allocs() - before;
        assert_eq!(got, 0, "n={n}: round {}", sim.round() - 1);
        if sim.last_merges().is_empty() {
            plain += 1;
        } else {
            merging += 1;
        }
    }
    assert!(sim.is_gathered(), "n={n}: did not gather");
    assert!(merging > 0, "n={n}: the workload never merged");
    plain
}

#[test]
fn rectangle_step_allocates_nothing() {
    // Runs reshape the long sides between merges: most rounds merge
    // nothing.
    let plain = assert_step_allocates_nothing(workloads::rectangle(70, 60));
    assert!(plain > 100, "{plain} rounds without a merge");
}

#[test]
fn random_loop_step_allocates_nothing() {
    assert_step_allocates_nothing(workloads::random_loop(256, 7));
}

#[test]
fn skyline_step_allocates_nothing() {
    assert_step_allocates_nothing(workloads::Family::Skyline.generate(256, 3));
}
