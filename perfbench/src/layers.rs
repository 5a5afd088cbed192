//! Layer microbenchmarks, timed from outside through each layer's public
//! functions and shaped to the workload (processor and node counts, the
//! workload's request-trace spec).
//!
//! Every row is the median of [`ROUNDS`] timing rounds, in host
//! nanoseconds per operation. Nothing here touches virtual time.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cashmere_core::det::DetScheduler;
use cashmere_core::directory::{DirWord, Directory, PermBits};
use cashmere_core::write_notice::NoticeBoard;
use cashmere_core::{DirectoryMode, Topology};
use cashmere_memchan::TransportConfig;
use cashmere_sim::HorizonClock;
use cashmere_transport::{build_transport, Transport};
use cashmere_vmpage::{
    apply_incoming_diff, diff_against_twin, Frame, PagePool, PAGE_BYTES, PAGE_WORDS,
};
use cashmere_workload::{Sampler, Trace, WorkloadSpec};

use crate::stats::median;

/// Timing rounds per row.
pub const ROUNDS: usize = 7;

/// Median ns/op over [`ROUNDS`] rounds of `iters` calls of `f`.
pub fn ns_per_op(iters: usize, mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&rounds)
}

/// Host ns per det-scheduler operation for `procs` simulated processors.
#[derive(Debug, Clone, Copy)]
pub struct DetCosts {
    /// `DetHandle::checkpoint`'s horizon check (the engine hot path).
    pub checkpoint_ns: f64,
    /// The coordinator's grant scan over `procs` pending gates.
    pub grant_scan_ns: f64,
    /// `HorizonClock::advance_past` plus the sleeper's `wait_past`.
    pub wakeup_ns: f64,
}

/// Times the det scheduler at the workload's processor count.
#[must_use]
pub fn det_costs(procs: usize, workers: usize) -> DetCosts {
    let sched = Arc::new(DetScheduler::new(procs, workers, 50_000));
    let mut vt = 0u64;
    let checkpoint_ns = ns_per_op(50_000, || {
        black_box(sched.bench_horizon_check(black_box(vt % 1_000)));
        vt = vt.wrapping_add(7);
    });
    for p in 0..procs {
        sched.bench_seed_gate(p, (p as u64 + 1) * 1_000, p as u64);
    }
    let grant_scan_ns = ns_per_op(20_000, || {
        black_box(sched.bench_grant_scan());
    });
    let clock = HorizonClock::new(50_000);
    let mut horizon = 0u64;
    let wakeup_ns = ns_per_op(50_000, || {
        let end = clock.advance_past(black_box(horizon));
        clock.wait_past(end - 1, |_| {
            unreachable!("the advance just opened the window")
        });
        horizon = end;
    });
    DetCosts {
        checkpoint_ns,
        grant_scan_ns,
        wakeup_ns,
    }
}

/// Host ns per page-kernel operation.
#[derive(Debug, Clone, Copy)]
pub struct PageCosts {
    /// `PagePool::twin_of` + `release` (snapshot copy included).
    pub twin_ns: f64,
    /// `diff_against_twin` on a page with every 16th word changed.
    pub diff_ns: f64,
    /// `apply_incoming_diff` of a page with every 16th word changed.
    pub apply_ns: f64,
}

/// Times the vmpage kernels the protocol runs per twin, flush and
/// incoming diff.
#[must_use]
pub fn page_costs() -> PageCosts {
    let pool = PagePool::new();
    let frame = Frame::new();
    let warm = pool.twin_of(&frame);
    pool.release(warm);
    let twin_ns = ns_per_op(2_000, || {
        let t = pool.twin_of(black_box(&frame));
        pool.release(black_box(t));
    });

    let twin = pool.twin_of(&frame);
    for i in (0..PAGE_WORDS).step_by(16) {
        frame.store(i, i as u64 + 1);
    }
    let diff_ns = ns_per_op(2_000, || {
        black_box(diff_against_twin(black_box(&frame), black_box(&twin)));
    });

    let mut incoming = [0u64; PAGE_WORDS];
    let mut local = pool.twin_of(&frame);
    let mut flip = 0u64;
    let apply_ns = ns_per_op(2_000, || {
        flip ^= 1;
        for w in incoming.iter_mut().step_by(16) {
            *w = flip;
        }
        black_box(apply_incoming_diff(
            black_box(&frame),
            &mut local,
            &incoming,
        ));
    });
    PageCosts {
        twin_ns,
        diff_ns,
        apply_ns,
    }
}

/// Host ns per directory, notice and transport operation.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolCosts {
    /// `Directory::read_word` through the replica cache.
    pub dir_read_ns: f64,
    /// `Directory::write_my_word` (the global directory update).
    pub dir_write_ns: f64,
    /// `Directory::sharers` scan over every node.
    pub dir_sharers_ns: f64,
    /// `NoticeBoard::post`.
    pub notice_post_ns: f64,
    /// 64 `NoticeBoard::post`s plus one `drain`.
    pub notice_drain64_ns: f64,
    /// One remote write through `Arc<dyn Transport>`.
    pub transport_write_ns: f64,
    /// One page's `Transport::fetch_data` through `Arc<dyn Transport>`.
    pub transport_fetch_ns: f64,
}

/// Times the directory, the first-level notice board and transport
/// dispatch on `topo`'s physical nodes.
#[must_use]
pub fn protocol_costs(topo: &Topology) -> ProtocolCosts {
    const PAGES: usize = 256;
    let nodes = topo.nodes();
    let mode = DirectoryMode::default_for(topo);
    let transport = || build_transport(TransportConfig::new((0..nodes).collect(), nodes));

    let dir = Directory::new(transport(), nodes, PAGES, mode);
    let word = DirWord {
        perm: PermBits::Read,
        exclusive: false,
        excl_proc: 0,
    };
    for p in 0..PAGES {
        dir.write_my_word(p, p % nodes, word, 0);
    }
    let mut i = 0usize;
    let dir_read_ns = ns_per_op(50_000, || {
        black_box(dir.read_word(black_box(i % PAGES), i % nodes, (i / 7) % nodes));
        i = i.wrapping_add(1);
    });
    let mut i = 0usize;
    let dir_write_ns = ns_per_op(20_000, || {
        black_box(dir.write_my_word(black_box(i % PAGES), i % nodes, word, 0));
        i = i.wrapping_add(1);
    });
    let mut i = 0usize;
    let dir_sharers_ns = ns_per_op(20_000, || {
        black_box(dir.sharers(black_box(i % PAGES), i % nodes, usize::MAX));
        i = i.wrapping_add(1);
    });

    let board = NoticeBoard::new(nodes, mode, 0);
    let mut n = 0usize;
    let notice_post_ns = ns_per_op(20_000, || {
        board.post(n % nodes, (n / 3) % nodes, black_box((n % 4096) as u32), 0);
        n = n.wrapping_add(1);
        if n.is_multiple_of(1024) {
            for to in 0..nodes {
                black_box(board.drain(to));
            }
        }
    });
    let notice_drain64_ns = ns_per_op(500, || {
        for p in 0..64u32 {
            board.post(0, p as usize % nodes, p, 0);
        }
        black_box(board.drain(0));
    });

    let chan: Arc<dyn Transport> = transport();
    let region = chan.create_region(8, false);
    chan.attach_rx(region, nodes - 1);
    let (mut now, mut w) = (0, 0u64);
    let transport_write_ns = ns_per_op(50_000, || {
        now = chan.write(black_box(region), 0, (w % 8) as usize, w, now);
        w = w.wrapping_add(1);
    });

    let (mut now, mut from) = (0, 0usize);
    let transport_fetch_ns = ns_per_op(50_000, || {
        now = chan.fetch_data(from % nodes, black_box(PAGE_BYTES as u64), now);
        from = from.wrapping_add(1);
    });

    ProtocolCosts {
        dir_read_ns,
        dir_write_ns,
        dir_sharers_ns,
        notice_post_ns,
        notice_drain64_ns,
        transport_write_ns,
        transport_fetch_ns,
    }
}

/// Host ms of one `Trace::generate(spec)`, median of [`ROUNDS`].
#[must_use]
pub fn trace_gen_ms(spec: &WorkloadSpec) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            black_box(Trace::generate(black_box(spec)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&rounds)
}

/// Host ns per `Sampler::sample_key` for `spec`'s keyspace and skew.
#[must_use]
pub fn sample_ns(spec: &WorkloadSpec) -> f64 {
    let mut sampler = Sampler::new(spec.keys, spec.theta, spec.key_map, spec.seed);
    ns_per_op(50_000, || {
        black_box(sampler.sample_key());
    })
}
