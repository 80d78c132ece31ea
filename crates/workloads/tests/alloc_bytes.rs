//! Generation allocates the chain and little else: `Family::generate`
//! writes the walk straight into the chain's edge codes, so the bytes a
//! random loop, a skyline or a rectangle of n = 4096 robots allocates
//! are its codes (n), its ids (8·n) and, for the skyline, its column
//! heights (≈ 2·n), within 12·n + 256 — no position or step list, which
//! alone would cost 16 bytes per robot. Counted by a global allocator on
//! the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::Family;

thread_local! {
    /// Bytes this thread asked the allocator for (a reallocation counts
    /// its whole new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(bytes: usize) {
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The count only touches a
// const-initialized thread-local without a destructor, so it neither
// allocates nor fails during thread teardown (`try_with`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

#[test]
fn generation_allocates_codes_ids_and_heights_only() {
    const N: usize = 4096;
    for family in [Family::RandomLoop, Family::Skyline, Family::Rectangle] {
        for seed in [1u64, 2, 3] {
            let before = bytes();
            let chain = family.generate(N, seed);
            let allocated = bytes() - before;
            assert!(
                allocated <= 12 * N as u64 + 256,
                "{} seed={seed}: {allocated} bytes for {} robots",
                family.name(),
                chain.len()
            );
        }
    }
}
