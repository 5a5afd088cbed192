//! Proves the engine's data-access hot path performs zero heap
//! allocations — with observability off AND on. A counting global
//! allocator wraps the system one; after warming the faults out of a
//! working set, a burst of reads and writes must not allocate at all. The
//! same holds for the deterministic scheduler's windows, in-place ops and
//! delegated settles, on every processor thread of a det run.
//!
//! The workspace denies `unsafe code`; this test is the one sanctioned
//! exception, because a `GlobalAlloc` impl cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use cashmere_core::det::{DetScheduler, GateEnd, Op, OpExec, OpState, Settle, WaitKey};
use cashmere_core::engine::ProcCtx;
use cashmere_core::{Cluster, ClusterConfig, Proc, ProtocolKind, SyncSpec, Topology};
use cashmere_sim::ProcId;
use cashmere_sim::{Nanos, TimeCategory};
use parking_lot::Mutex;

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

/// A toy executor for the bare scheduler: one lock and one barrier over
/// `PROCS` procs (plain flags and counters, so nothing in it allocates), a
/// fault that charges its proc's clock, and settles that resume 40 ns later.
struct Exec {
    procs: usize,
    held: Mutex<bool>,
    /// Barrier `(arrivals so far, episode)`.
    barrier: Mutex<(usize, u64)>,
}

impl OpExec for Exec {
    fn run_gate(&self, ctx: &mut ProcCtx, op: &mut OpState) -> GateEnd {
        match (op.op, op.gate) {
            (Op::Lock { l }, 0) => {
                let mut held = self.held.lock();
                if *held {
                    return GateEnd::Blocked(WaitKey::Lock(l));
                }
                *held = true;
            }
            (Op::Unlock { l }, 1) => {
                *self.held.lock() = false;
                return GateEnd::Done(Some(WaitKey::Lock(l)));
            }
            (Op::Barrier { b }, 1) => {
                let mut bar = self.barrier.lock();
                match op.epoch {
                    Some(epoch) if epoch == bar.1 => return GateEnd::Blocked(WaitKey::Barrier(b)),
                    Some(_) => {}
                    None => {
                        bar.0 += 1;
                        if bar.0 < self.procs {
                            op.epoch = Some(bar.1);
                            return GateEnd::Blocked(WaitKey::Barrier(b));
                        }
                        *bar = (0, bar.1 + 1);
                        return GateEnd::Done(Some(WaitKey::Barrier(b)));
                    }
                }
            }
            _ => ctx.clock.charge(TimeCategory::Protocol, 10),
        }
        GateEnd::Done(None)
    }

    fn run_glue(&self, ctx: &mut ProcCtx, _: &mut OpState) {
        ctx.clock.charge(TimeCategory::User, 1);
    }

    fn run_settle(&self, _: Settle, vt: Nanos) -> Nanos {
        vt + 40
    }
}

#[test]
fn det_scheduler_windows_ops_and_settles_are_allocation_free() {
    // 8 procs on 2 workers through the bare scheduler: every step crosses
    // a 1 µs window, then runs an in-place fault, a contended lock and
    // unlock, a barrier and a delegated settle. Each thread counts only its
    // own allocations; the coordinator runs on whichever processor thread
    // parks last, so a zero on every thread covers the coordinator's window
    // building, in-place gates and glue, context lending and settles too.
    const PROCS: usize = 8;
    let sched = Arc::new(DetScheduler::new(PROCS, 2, 1_000));
    sched.set_exec(Arc::new(Exec {
        procs: PROCS,
        held: Mutex::new(false),
        barrier: Mutex::new((0, 0)),
    }));
    let cluster = Cluster::new(
        ClusterConfig::new(Topology::new(1, PROCS), ProtocolKind::TwoLevel).with_heap_pages(1),
    );
    let ctxs: Vec<ProcCtx> = (0..PROCS)
        .map(|p| cluster.engine().make_ctx(ProcId(p)))
        .collect();
    let deltas = Mutex::new(Vec::with_capacity(PROCS));
    std::thread::scope(|s| {
        for (p, mut ctx) in ctxs.into_iter().enumerate() {
            let h = sched.handle(p);
            let deltas = &deltas;
            s.spawn(move || {
                h.start();
                let mut before = 0;
                for step in 0..600 {
                    if step == 100 {
                        before = allocs();
                    }
                    ctx.clock.charge(TimeCategory::User, 1_000);
                    h.checkpoint(ctx.clock.now());
                    let fault = Op::Fault {
                        page: 0,
                        word: p,
                        write: true,
                    };
                    for op in [fault, Op::Lock { l: 0 }, Op::Unlock { l: 0 }] {
                        h.run_op(&mut ctx, op);
                    }
                    h.run_op(&mut ctx, Op::Barrier { b: 0 });
                    let req = Settle::Bus {
                        phys: 0,
                        busy_ns: 40,
                    };
                    let done = h.settle(ctx.clock.now(), req);
                    ctx.clock.wait_until(done);
                }
                let delta = allocs() - before;
                deltas.lock().push((p, delta));
                h.finish();
            });
        }
    });
    assert_det_threads_allocation_free(deltas.into_inner(), PROCS);
}

#[test]
fn det_run_windows_and_settles_are_allocation_free() {
    // A whole det run, 4 procs on 2 workers, each on its own page: after
    // the warm-up faults (and enough bus settles to grow the bus
    // `Resource`'s interval list to its cap), compute crosses a 50 µs
    // window every other step and every 64 accesses settle the bus
    // through the engine's executor. The final barrier's acquire
    // invalidates the pages, so one more unmeasured round re-faults them.
    let cfg = ClusterConfig::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
        .with_heap_pages(8)
        .with_sync(SyncSpec {
            locks: 0,
            barriers: 1,
            flags: 0,
        })
        .with_det_parallel(2);
    let mut cluster = Cluster::new(cfg);
    let base = cluster.alloc_page_aligned(4 * 512);
    let deltas = Mutex::new(Vec::with_capacity(4));
    cluster.run(|p| {
        let page = base + p.id() * 512;
        let round = |p: &mut Proc| {
            for i in 0..256 {
                let v = p.read_u64(page + i % 64);
                p.write_u64(page + i % 64, v + 1);
                p.compute(25_000);
            }
        };
        for _ in 0..24 {
            round(p);
        }
        p.barrier(0);
        round(p);
        let before = allocs();
        for _ in 0..4 {
            round(p);
        }
        let delta = allocs() - before;
        deltas.lock().push((p.id(), delta));
    });
    assert_det_threads_allocation_free(deltas.into_inner(), 4);
}

fn assert_det_threads_allocation_free(deltas: Vec<(usize, u64)>, procs: usize) {
    assert_eq!(deltas.len(), procs);
    for (id, delta) in deltas {
        assert_eq!(delta, 0, "proc {id}'s thread allocated {delta} times");
    }
}
