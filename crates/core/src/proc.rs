//! The public API: [`Cluster`] (build, allocate, seed, run) and [`Proc`]
//! (the per-processor handle applications program against).
//!
//! A `Cluster` owns the protocol [`Engine`] and the pools of application
//! synchronization objects. [`Cluster::run`] spawns one OS thread per
//! simulated processor, hands each a `Proc`, and collects a [`Report`]
//! (virtual execution time, Figure 6 time breakdown, Table 3 counters) when
//! all of them finish.
//!
//! ```
//! use cashmere_core::{Cluster, ClusterConfig, ProtocolKind, Topology};
//!
//! let cfg = ClusterConfig::new(Topology::new(2, 2), ProtocolKind::TwoLevel);
//! let mut cluster = Cluster::new(cfg);
//! let counters = cluster.alloc(4);
//! let report = cluster.run(|p| {
//!     p.barrier(0);
//!     p.write_u64(counters + p.id(), p.id() as u64 + 1);
//!     p.barrier(0);
//! });
//! assert_eq!(cluster.read_u64(counters + 3), 4);
//! assert!(report.exec_ns > 0);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, ScopedJoinHandle};

use cashmere_obs::{ObsReport, ProcObs, SpanKind};
use cashmere_sim::{Nanos, ProcClock, ProcId, TimeCategory};
use cashmere_vmpage::PAGE_WORDS;

use crate::config::ClusterConfig;
use crate::det::{DetScheduler, GateEnd, Op, OpExec, OpState, Settle, WaitKey};
use crate::engine::{Engine, ProcCtx};
use crate::report::Report;
use crate::sync::{BarrierArrival, CarrierBarrier, CarrierFlag, CarrierLock};
use crate::trace::{ProtocolEvent, TraceEvent};
use crate::Addr;

/// The synchronization-object pools shared by all processors, and the
/// engine their ops drive: the op bodies for both engines, and the det
/// scheduler's [`OpExec`].
struct SyncOps {
    engine: Arc<Engine>,
    locks: Vec<CarrierLock>,
    barriers: Vec<CarrierBarrier>,
    flags: Vec<CarrierFlag>,
}

/// A simulated cluster, ready to allocate shared memory and run programs.
pub struct Cluster {
    ops: Arc<SyncOps>,
    next_word: usize,
}

impl Cluster {
    /// Builds a cluster for `cfg`.
    pub fn new(cfg: ClusterConfig) -> Self {
        let ops = Arc::new(SyncOps {
            locks: (0..cfg.locks).map(|_| CarrierLock::new()).collect(),
            barriers: (0..cfg.barriers).map(|_| CarrierBarrier::new()).collect(),
            flags: (0..cfg.flags).map(|_| CarrierFlag::new()).collect(),
            engine: Engine::new(cfg),
        });
        Self { ops, next_word: 0 }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ClusterConfig {
        self.engine().config()
    }

    /// The protocol engine (exposed for tests that drive protocol
    /// operations deterministically).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.ops.engine
    }

    /// Allocates `words` contiguous 64-bit words of shared memory and
    /// returns the base address.
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted.
    pub fn alloc(&mut self, words: usize) -> Addr {
        let base = self.next_word;
        self.next_word += words;
        assert!(
            self.next_word <= self.config().heap_pages * PAGE_WORDS,
            "shared heap exhausted: need {} words, have {}",
            self.next_word,
            self.config().heap_pages * PAGE_WORDS
        );
        base
    }

    /// Allocates `words` of shared memory starting on a fresh page boundary
    /// (useful to give an array its own pages and control false sharing).
    pub fn alloc_page_aligned(&mut self, words: usize) -> Addr {
        if !self.next_word.is_multiple_of(PAGE_WORDS) {
            let pad = PAGE_WORDS - self.next_word % PAGE_WORDS;
            self.alloc(pad);
        }
        self.alloc(words)
    }

    /// Seeds initial data into the master copy of `addr` before the run —
    /// models pre-parallel-phase initialization without perturbing the
    /// first-touch home heuristic.
    pub fn seed_u64(&self, addr: Addr, val: u64) {
        self.engine().seed_word(addr, val);
    }

    /// Seeds an `f64` (stored via its bit pattern).
    pub fn seed_f64(&self, addr: Addr, val: f64) {
        self.engine().seed_word(addr, val.to_bits());
    }

    /// Reads back the authoritative post-run value at `addr`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        self.engine().read_back(addr)
    }

    /// Reads back a run of consecutive words (bulk [`Self::read_u64`]; one
    /// directory lookup per page instead of per word).
    pub fn read_back_run(&self, addr: Addr, out: &mut [u64]) {
        self.engine().read_back_run(addr, out);
    }

    /// Reads back an `f64`.
    pub fn read_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.engine().read_back(addr))
    }

    /// Takes the protocol event trace accumulated so far (empty unless the
    /// cluster was built with [`ClusterConfig::audit`] set). Feed it to
    /// `cashmere_check::audit` to verify the run's coherence invariants.
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.engine()
            .recorder()
            .map(|r| r.take())
            .unwrap_or_default()
    }

    /// Runs `f` on every simulated processor (one OS thread each) and
    /// returns the run's [`Report`]. Each processor gets an implicit final
    /// release so all its modifications reach the home copies.
    ///
    /// With [`ClusterConfig::with_det_parallel`] (or the
    /// `CASHMERE_PROC_WORKERS` environment opt-in), the processors advance
    /// under the deterministic parallel scheduler (DESIGN.md §15): at most
    /// that many host workers run concurrently, and the returned `Report`
    /// is byte-identical at every worker count.
    pub fn run<F>(&self, f: F) -> Report
    where
        F: Fn(&mut Proc) + Sync,
    {
        match self.config().det_workers.or_else(det_workers_from_env) {
            Some(workers) => self.run_det(&f, workers),
            None => self.run_seq(&f),
        }
    }

    fn run_seq<F>(&self, f: &F) -> Report
    where
        F: Fn(&mut Proc) + Sync,
    {
        let n = self.config().topology.total_procs();
        let results = thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|p| {
                    let ops = Arc::clone(&self.ops);
                    s.spawn(move || {
                        let mut proc = Proc::new(ops, ProcId(p));
                        f(&mut proc);
                        proc.finish()
                    })
                })
                .collect();
            join_procs(handles, || None)
        });
        self.collect_report(&results)
    }

    /// Deterministic parallel run (DESIGN.md §15): one OS thread per
    /// processor as in [`Self::run_seq`], but gated by a [`DetScheduler`]
    /// that bounds concurrency to `workers` and serializes every
    /// protocol/sync boundary in (virtual time, processor id) order.
    fn run_det<F>(&self, f: &F, workers: usize) -> Report
    where
        F: Fn(&mut Proc) + Sync,
    {
        let n = self.config().topology.total_procs();
        let sched = Arc::new(DetScheduler::new(n, workers, self.config().det_quantum_ns));
        sched.set_exec(Arc::clone(&self.ops) as Arc<dyn OpExec>);
        let results = thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|p| {
                    let ops = Arc::clone(&self.ops);
                    let h = sched.handle(p);
                    s.spawn(move || {
                        let mut proc = Proc::new(ops, ProcId(p));
                        proc.ctx.set_det(h.clone());
                        let body = catch_unwind(AssertUnwindSafe(|| {
                            // Start barrier: no processor computes until
                            // every context exists, so window 0 opens
                            // identically at any worker count.
                            h.start();
                            f(&mut proc);
                            proc.finish()
                        }));
                        match body {
                            Ok(out) => {
                                h.finish();
                                out
                            }
                            Err(payload) => {
                                // Wake every sleeping peer into the abort
                                // instead of leaving it parked forever.
                                h.abort();
                                resume_unwind(payload)
                            }
                        }
                    })
                })
                .collect();
            join_procs(handles, || sched.failed())
        });
        self.collect_report(&results)
    }

    fn collect_report(&self, results: &[(ProcClock, Option<Box<ProcObs>>)]) -> Report {
        let clocks: Vec<ProcClock> = results.iter().map(|(c, _)| c.clone()).collect();
        let mut report = Report::build(self.engine().config(), &self.engine().stats, &clocks)
            .with_recovery(self.engine().recovery_summary());
        if self.config().obs {
            let mut obs = ObsReport::new();
            for po in results.iter().filter_map(|(_, po)| po.as_deref()) {
                obs.merge_proc(po);
            }
            if let Some(lm) = self.engine().link_metrics() {
                obs.links = lm.snapshot();
            }
            report = report.with_obs(obs);
        }
        report
    }
}

/// Joins every processor thread. A panic is re-raised as `simulated
/// processor {p} panicked: {message}`, naming the processor `failed`
/// reports (the one whose panic aborted a det run: its peers then panicked
/// only because the run aborted), else the lowest-numbered one that
/// panicked.
fn join_procs<T>(
    handles: Vec<ScopedJoinHandle<'_, T>>,
    failed: impl FnOnce() -> Option<usize>,
) -> Vec<T> {
    let joined: Vec<thread::Result<T>> = handles.into_iter().map(|h| h.join()).collect();
    let Some(first) = joined.iter().position(Result::is_err) else {
        return joined.into_iter().flatten().collect();
    };
    let p = failed().filter(|&p| joined[p].is_err()).unwrap_or(first);
    let message = joined[p]
        .as_ref()
        .err()
        .map_or("", |e| panic_message(e.as_ref()));
    panic!("simulated processor {p} panicked: {message}");
}

/// A panic payload's message (`panic!` makes a `&str` or a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(a non-string panic payload)")
}

/// `CASHMERE_PROC_WORKERS` opt-in: a positive integer enables the
/// deterministic parallel engine at that worker count for clusters whose
/// config did not choose explicitly.
fn det_workers_from_env() -> Option<usize> {
    std::env::var("CASHMERE_PROC_WORKERS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&w| w >= 1)
}

/// A simulated processor's handle: shared-memory accesses, synchronization,
/// and compute-time accounting. One per processor, owned by its thread.
pub struct Proc {
    /// The same engine as `ops.engine`, one pointer closer to the
    /// read/write fast path.
    engine: Arc<Engine>,
    ops: Arc<SyncOps>,
    ctx: ProcCtx,
    /// Reusable bit-pattern buffer for the `f64` run accessors.
    scratch: Vec<u64>,
}

impl Proc {
    fn new(ops: Arc<SyncOps>, id: ProcId) -> Self {
        let engine = Arc::clone(&ops.engine);
        let ctx = engine.make_ctx(id);
        Self {
            engine,
            ops,
            ctx,
            scratch: Vec::new(),
        }
    }

    /// Cluster-wide processor id, `0..nprocs()`.
    pub fn id(&self) -> usize {
        self.ctx.id.0
    }

    /// Total processors in the run.
    pub fn nprocs(&self) -> usize {
        self.engine.config().topology.total_procs()
    }

    /// Physical node index of this processor.
    pub fn node(&self) -> usize {
        self.ctx.phys
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.ctx.clock.now()
    }

    // --- Shared-memory accesses -------------------------------------

    /// Reads the shared 64-bit word at `addr`.
    pub fn read_u64(&mut self, addr: Addr) -> u64 {
        self.engine.read_word(&mut self.ctx, addr)
    }

    /// Writes the shared 64-bit word at `addr`.
    pub fn write_u64(&mut self, addr: Addr, val: u64) {
        self.engine.write_word(&mut self.ctx, addr, val);
    }

    /// Reads the shared `f64` at `addr`.
    pub fn read_f64(&mut self, addr: Addr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes the shared `f64` at `addr`.
    pub fn write_f64(&mut self, addr: Addr, val: f64) {
        self.write_u64(addr, val.to_bits());
    }

    /// Reads `out.len()` consecutive shared words starting at `addr`.
    /// Virtual time and values are identical to the equivalent
    /// [`Self::read_u64`] loop; the wall cost is one fault check and one
    /// bulk charge per page touched.
    pub fn read_run_u64(&mut self, addr: Addr, out: &mut [u64]) {
        self.engine.read_run(&mut self.ctx, addr, out);
    }

    /// Writes `vals` to consecutive shared words starting at `addr`
    /// (run-granular [`Self::write_u64`]; virtual time identical).
    pub fn write_run_u64(&mut self, addr: Addr, vals: &[u64]) {
        self.engine.write_run(&mut self.ctx, addr, vals);
    }

    /// [`Self::read_run_u64`] for `f64` values.
    pub fn read_run_f64(&mut self, addr: Addr, out: &mut [f64]) {
        self.scratch.clear();
        self.scratch.resize(out.len(), 0);
        self.engine.read_run(&mut self.ctx, addr, &mut self.scratch);
        for (o, &w) in out.iter_mut().zip(&self.scratch) {
            *o = f64::from_bits(w);
        }
    }

    /// [`Self::write_run_u64`] for `f64` values.
    pub fn write_run_f64(&mut self, addr: Addr, vals: &[f64]) {
        self.scratch.clear();
        self.scratch.extend(vals.iter().map(|v| v.to_bits()));
        self.engine.write_run(&mut self.ctx, addr, &self.scratch);
    }

    /// Charges `ns` of application compute time (private computation that
    /// touches no shared words).
    pub fn compute(&mut self, ns: Nanos) {
        self.engine.compute(&mut self.ctx, ns);
    }

    // --- Synchronization ---------------------------------------------

    /// Runs `op`: through the deterministic scheduler when it is on
    /// (DESIGN.md §15.2), else straight through on this thread.
    fn sync(&mut self, op: Op) {
        if !self.ctx.det_op(op) {
            self.ops.run_free(&mut self.ctx, op);
        }
    }

    /// Acquires application lock `l`, then performs the protocol's acquire
    /// consistency actions (§2.4.2).
    pub fn lock(&mut self, l: usize) {
        self.ctx.obs_begin(SpanKind::Lock, l as i64);
        self.engine.stats.lock_acquires.inc();
        self.sync(Op::Lock { l });
        self.ctx.obs_end(SpanKind::Lock);
    }

    /// Performs the protocol's release consistency actions (§2.4.3), then
    /// releases application lock `l`.
    pub fn unlock(&mut self, l: usize) {
        self.sync(Op::Unlock { l });
    }

    /// Crosses application barrier `b` (all processors participate): a
    /// release on arrival, the two-level rendezvous, and an acquire on
    /// departure (§2.3, §2.4).
    pub fn barrier(&mut self, b: usize) {
        self.ctx.obs_begin(SpanKind::Barrier, b as i64);
        self.sync(Op::Barrier { b });
        self.ctx.obs_end(SpanKind::Barrier);
    }

    /// Sets application flag `fl` (release semantics).
    pub fn flag_set(&mut self, fl: usize) {
        self.sync(Op::FlagSet { fl });
    }

    /// Waits for application flag `fl` (acquire semantics).
    pub fn flag_wait(&mut self, fl: usize) {
        self.ctx.obs_begin(SpanKind::Flag, fl as i64);
        self.engine.stats.lock_acquires.inc();
        self.sync(Op::FlagWait { fl });
        self.ctx.obs_end(SpanKind::Flag);
    }

    /// Non-blocking flag check (no consistency actions). Under the
    /// deterministic scheduler this is a lookahead checkpoint: flag sets
    /// land at exclusive gates, so the value read here is a pure function
    /// of the caller's window — identical at every worker count. (Callers
    /// polling in a loop must charge time between polls, as any real
    /// program would; a zero-cost spin never reaches the horizon.)
    pub fn flag_is_set(&self, fl: usize) -> bool {
        self.ctx.det_checkpoint();
        self.ops.flags[fl].is_set()
    }

    // --- Accounting knobs ---------------------------------------------

    /// Records one request's sojourn (arrival-to-completion) latency into
    /// the observability histograms (`Report::obs`, `sojourn_ns`). Used by
    /// the trace-driven service applications (DESIGN.md §13); a no-op when
    /// observability is off — like every obs hook it never charges the
    /// clock, so recording cannot perturb virtual time.
    pub fn record_sojourn(&mut self, ns: Nanos) {
        if let Some(o) = &mut self.ctx.obs {
            o.metrics.sojourn_ns.record(ns);
        }
    }

    /// Overrides the polling-overhead fraction for this processor (the
    /// paper's per-application 0–36%).
    pub fn set_poll_fraction(&mut self, f: f64) {
        self.ctx.set_poll_fraction(f, self.engine.config());
    }

    /// Overrides the memory-bus bytes charged per shared access (models an
    /// application phase's cache-capacity traffic).
    pub fn set_bus_bytes_per_access(&mut self, b: u64) {
        self.ctx.bus_bytes = b;
    }

    /// Final release + accounting settlement; returns the processor's
    /// clock and (when observability is on) its finished observability
    /// state. Called automatically at the end of [`Cluster::run`].
    fn finish(mut self) -> (ProcClock, Option<Box<ProcObs>>) {
        self.engine.release_actions(&mut self.ctx);
        self.engine.settle(&mut self.ctx);
        if let Some(o) = &mut self.ctx.obs {
            o.finish(&self.ctx.clock);
        }
        (self.ctx.clock.clone(), self.ctx.obs.take())
    }
}

impl SyncOps {
    /// Runs `op` straight through on the calling thread (the sequential
    /// engine): the same gates and glue the det scheduler runs in place,
    /// with carriers that block in host time instead of returning
    /// [`GateEnd::Blocked`].
    fn run_free(&self, ctx: &mut ProcCtx, op: Op) {
        let mut st = OpState::new(op);
        loop {
            self.gate(ctx, &mut st, true);
            st.gate += 1;
            if st.gate == op.gates() {
                return;
            }
            self.glue(ctx, &mut st);
        }
    }

    /// Gate `st.gate` of `st.op`. `blocking` waits on an unavailable
    /// carrier in host time; otherwise the gate returns
    /// [`GateEnd::Blocked`] and is retried once a peer re-arms it.
    fn gate(&self, ctx: &mut ProcCtx, st: &mut OpState, blocking: bool) -> GateEnd {
        let e = &self.engine;
        let now = ctx.clock.now();
        match (st.op, st.gate) {
            (Op::Fault { page, word, write }, _) => e.fault_common_inner(ctx, page, word, write),
            (Op::Release, _) | (Op::Unlock { .. } | Op::Barrier { .. } | Op::FlagSet { .. }, 0) => {
                e.release_actions_inner(ctx);
            }
            (Op::Acquire, _)
            | (Op::Lock { .. } | Op::FlagWait { .. }, 1)
            | (Op::Barrier { .. }, 2) => e.acquire_actions_inner(ctx),
            (Op::Lock { l }, _) => {
                let lock = &self.locks[l];
                let cost = e.lock_cost();
                st.vt = if blocking {
                    lock.acquire_for(now, cost)
                } else {
                    match lock.try_acquire_for(now, cost) {
                        Some(vt) => vt,
                        None => return GateEnd::Blocked(WaitKey::Lock(l)),
                    }
                };
            }
            (Op::Unlock { l }, _) => {
                self.locks[l].release(now);
                return GateEnd::Done(Some(WaitKey::Lock(l)));
            }
            (Op::Barrier { b }, _) => {
                let barrier = &self.barriers[b];
                let n = e.config().topology.total_procs();
                let crossing = if blocking {
                    barrier.wait(n, now, self.barrier_cost())
                } else {
                    // A re-try polls the episode its arrival joined.
                    let polled = match st.epoch {
                        Some(epoch) => barrier.poll(epoch),
                        None => match barrier.arrive(n, now, self.barrier_cost()) {
                            BarrierArrival::Complete(c) => Some(c),
                            BarrierArrival::Waiting(epoch) => {
                                st.epoch = Some(epoch);
                                None
                            }
                        },
                    };
                    match polled {
                        Some(c) => c,
                        None => return GateEnd::Blocked(WaitKey::Barrier(b)),
                    }
                };
                st.vt = crossing.departure_vt;
                st.epoch = Some(crossing.epoch);
                st.last = crossing.was_last;
                if crossing.was_last {
                    return GateEnd::Done(Some(WaitKey::Barrier(b)));
                }
            }
            (Op::FlagSet { fl }, _) => {
                self.flags[fl].set(now);
                return GateEnd::Done(Some(WaitKey::Flag(fl)));
            }
            (Op::FlagWait { fl }, _) => {
                let flag = &self.flags[fl];
                st.vt = if blocking {
                    flag.wait(now)
                } else {
                    match flag.try_wait(now) {
                        Some(vt) => vt,
                        None => return GateEnd::Blocked(WaitKey::Flag(fl)),
                    }
                };
            }
        }
        GateEnd::Done(None)
    }

    /// The glue before gate `st.gate` of `st.op`: the local steps between
    /// two gates — clock waits, cost charges, audit events, counters.
    fn glue(&self, ctx: &mut ProcCtx, st: &mut OpState) {
        let e = &self.engine;
        let (proc, pnode) = (ctx.id.0, ctx.pnode);
        // Audit events: a consumer's after the carrier gate it waited on, a
        // producer's before the carrier gate that hands off, so each
        // hand-off's producer event precedes its consumers'.
        let trace = |ev: ProtocolEvent| {
            if let Some(r) = e.recorder() {
                r.emit(ev);
            }
        };
        match (st.op, st.gate) {
            (Op::Lock { l }, 1) => {
                ctx.clock.wait_until(st.vt);
                trace(ProtocolEvent::LockAcquire {
                    proc,
                    pnode,
                    lock: l,
                });
            }
            (Op::Unlock { l }, 1) => trace(ProtocolEvent::LockRelease {
                proc,
                pnode,
                lock: l,
            }),
            (Op::Barrier { b }, 1) => trace(ProtocolEvent::BarrierArrive {
                proc,
                pnode,
                barrier: b,
            }),
            (Op::Barrier { b }, 2) => {
                if st.last {
                    e.stats.barriers.inc();
                }
                // `epoch` lets the auditor pair every departure with its
                // episode's arrivals.
                trace(ProtocolEvent::BarrierDepart {
                    proc,
                    pnode,
                    barrier: b,
                    epoch: st.epoch.expect("a crossed barrier knows its episode"),
                });
                ctx.clock.wait_until(st.vt);
            }
            (Op::FlagSet { fl }, 1) => trace(ProtocolEvent::FlagSet {
                proc,
                pnode,
                flag: fl,
            }),
            (Op::FlagWait { fl }, 1) => {
                trace(ProtocolEvent::FlagWait {
                    proc,
                    pnode,
                    flag: fl,
                });
                ctx.clock.wait_until(st.vt);
                ctx.clock.charge(TimeCategory::CommWait, e.lock_cost());
            }
            (op, gate) => unreachable!("{op:?} has no glue before gate {gate}"),
        }
    }

    fn barrier_cost(&self) -> Nanos {
        let cfg = self.engine.config();
        if cfg.protocol.is_two_level() {
            cfg.cost.barrier_two_level(cfg.topology.nodes())
        } else {
            cfg.cost.barrier_one_level(cfg.topology.total_procs())
        }
    }
}

/// The det scheduler runs the same bodies in place (DESIGN.md §15.2), with
/// non-blocking carriers.
impl OpExec for SyncOps {
    fn run_gate(&self, ctx: &mut ProcCtx, op: &mut OpState) -> GateEnd {
        self.gate(ctx, op, false)
    }

    fn run_glue(&self, ctx: &mut ProcCtx, op: &mut OpState) {
        self.glue(ctx, op);
    }

    fn run_settle(&self, req: Settle, vt: Nanos) -> Nanos {
        self.engine.run_settle(req, vt)
    }
}
