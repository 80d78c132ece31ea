//! The dense kernel rounds allocate nothing on the heap once they are
//! warm: `KernelSim::step` over `NaiveLocalKernel` (FSYNC and round-robin
//! SSYNC) and `GlobalVisionKernel` (FSYNC), counted by a global allocator
//! on the calling thread. The first round that moves a
//! robot sizes the kernel's hop buffer and the chain's second code
//! buffer; merges only shrink the chain after that, so every later round
//! reuses them.

use baselines::{GlobalVisionKernel, NaiveLocalKernel};
use chain_sim::kernel::{
    ActivationRule, FsyncRule, KernelChain, KernelSim, RoundKernel, RoundRobinRule,
};
use chain_sim::{ClosedChain, PackedChain, RunLimits};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::Family;

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

/// Step `kernel` under `rule` on `chain` until it gathers, breaks or hits
/// the round limit, and assert that no round after the first moving one
/// allocates. Returns the rounds checked and the robots merged in them.
fn assert_warm_rounds_allocation_free<K: RoundKernel, A: ActivationRule>(
    chain: &ClosedChain,
    kernel: K,
    rule: A,
) -> (u64, usize) {
    let n = chain.len();
    let packed = PackedChain::from_chain(chain).expect("workload chains are taut");
    let mut sim = KernelSim::new(KernelChain::new(packed), kernel, rule);
    let limit = RunLimits::for_chain_len(n).max_rounds;
    while sim.step().expect("the first rounds keep the chain").moved == 0 {
        assert!(sim.round() < limit, "n={n}: nobody moved");
    }
    let (mut rounds, mut merged) = (0, 0);
    while !sim.chain().is_gathered() && sim.round() < limit {
        let before = allocs();
        let step = sim.step();
        assert_eq!(
            allocs() - before,
            0,
            "n={n}: round {} allocated",
            sim.round()
        );
        let Ok(summary) = step else { break };
        rounds += 1;
        merged += summary.removed;
    }
    (rounds, merged)
}

/// The dense kernels on a chain: naive-local under FSYNC and round-robin
/// 2, global-vision under FSYNC. Under every SSYNC schedule global-vision
/// breaks the chain in round 0, before any round is warm; that break is
/// asserted, so a change that lets it run also has its rounds checked
/// here.
fn assert_dense_kernels_allocation_free(chain: ClosedChain) {
    let n = chain.len();
    let runs = [
        assert_warm_rounds_allocation_free(&chain, NaiveLocalKernel::new(), FsyncRule),
        assert_warm_rounds_allocation_free(&chain, NaiveLocalKernel::new(), RoundRobinRule::new(2)),
        assert_warm_rounds_allocation_free(&chain, GlobalVisionKernel::new(), FsyncRule),
    ];
    for (k, (rounds, merged)) in runs.into_iter().enumerate() {
        assert!(rounds >= 5, "n={n}, run {k}: only {rounds} warm rounds");
        assert!(merged > 0, "n={n}, run {k}: the warm rounds never merged");
    }
    let packed = PackedChain::from_chain(&chain).expect("workload chains are taut");
    let mut sim = KernelSim::new(
        KernelChain::new(packed),
        GlobalVisionKernel::new(),
        RoundRobinRule::new(2),
    );
    assert!(
        sim.step().is_err(),
        "n={n}: global-vision kept the chain under rr2"
    );
}

#[test]
fn rectangle_rounds_are_allocation_free() {
    assert_dense_kernels_allocation_free(Family::Rectangle.generate(512, 1));
}

#[test]
fn skyline_rounds_are_allocation_free() {
    assert_dense_kernels_allocation_free(Family::Skyline.generate(512, 3));
}

#[test]
fn random_loop_rounds_are_allocation_free() {
    assert_dense_kernels_allocation_free(Family::RandomLoop.generate(512, 7));
}
