//! Proves the generator's sample path is allocation-free after setup — the
//! property the `hotpath` ns/op row depends on. Same counting-allocator
//! technique as `crates/core/tests/alloc_free.rs` (the workspace denies
//! `unsafe_code`; a `GlobalAlloc` impl is the sanctioned exception).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cashmere_workload::{KeyMap, Sampler, XorShift, Zipf};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per-thread, so a sibling test
    /// running concurrently in the same binary cannot bump the count under
    /// test. `const`-initialised with a drop-free type, so touching it from
    /// inside the allocator never allocates or re-enters.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn sample_path_is_allocation_free_after_setup() {
    let mut sampler = Sampler::new(4096, 0.99, KeyMap::Scatter, 0x5EED);
    let zipf = Zipf::new(4096, 0.99);
    let mut rng = XorShift::new(9);
    // Warm once (nothing to warm, but keep the shape symmetric with the
    // engine's alloc-free test).
    let mut sink = u64::from(sampler.sample_key());
    let before = allocs();
    for _ in 0..10_000 {
        sink = sink.wrapping_add(u64::from(sampler.sample_key()));
        sink = sink.wrapping_add(zipf.invert(rng.unit_f64()) as u64);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "sample path allocated");
    assert_ne!(sink, 0, "keep the loop observable");
}
