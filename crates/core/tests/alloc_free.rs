//! Proves the engine's data-access hot path performs zero heap
//! allocations — with observability off AND on. A counting global
//! allocator wraps the system one; after warming the faults out of a
//! working set, a burst of reads and writes must not allocate at all.
//!
//! The workspace denies `unsafe code`; this test is the one sanctioned
//! exception, because a `GlobalAlloc` impl cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cashmere_core::{Cluster, ClusterConfig, ProtocolKind, Topology};
use cashmere_sim::ProcId;

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

fn assert_hot_path_allocation_free(obs: bool) {
    let cfg = ClusterConfig::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
        .with_heap_pages(4)
        .with_obs(obs);
    let cluster = Cluster::new(cfg);
    let engine = cluster.engine();
    let mut ctx = engine.make_ctx(ProcId(0));
    // No bus-batch settling: `Resource` bookkeeping is not under test.
    ctx.bus_bytes = 0;
    // Warm the working set: fault every page in for write.
    for page in 0..4 {
        engine.write_word(&mut ctx, page * 512, 1);
    }
    let before = allocs();
    for round in 0..100u64 {
        for page in 0..4 {
            let addr = page * 512 + (round as usize % 64);
            let v = engine.read_word(&mut ctx, addr);
            engine.write_word(&mut ctx, addr, v + 1);
        }
    }
    let delta = allocs() - before;
    assert_eq!(delta, 0, "hot path allocated {delta} times with obs={obs}");
}

#[test]
fn hot_path_is_allocation_free_with_obs_off() {
    assert_hot_path_allocation_free(false);
}

#[test]
fn hot_path_is_allocation_free_with_obs_on() {
    assert_hot_path_allocation_free(true);
}
