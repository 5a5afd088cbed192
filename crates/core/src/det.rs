//! Deterministic parallel execution inside a run (DESIGN.md §15).
//!
//! A conservative virtual-time scheduler: simulated processors run
//! concurrently on up to `workers` host threads, but only through *local*
//! segments (compute, non-faulting mapped accesses), and only up to the
//! shared lookahead horizon ([`HorizonClock`]). Everything that touches
//! shared protocol state — page faults, release/acquire actions,
//! lock/barrier/flag carriers — is a **gate**, and gates run only when
//! every processor is parked, one at a time, in ascending `(virtual time,
//! proc id, per-proc seq)` order. A processor reaches gates through an
//! [`Op`]: a fault, a release or acquire, or a lock, unlock, barrier or
//! flag operation, each a fixed sequence of gates with a little **glue**
//! between them. It parks with the op, and the coordinator runs every gate
//! in place at its turn, and every glue segment where a window would have
//! released the processor, through the registered [`OpExec`]. A processor
//! that sleeps mid-op first lends the coordinator its `ProcCtx`, and takes
//! it back when it is released after the op's last gate. A bus or link
//! **settle** ([`Settle`]) is ordered like a gate and run in place the
//! same way.
//!
//! Determinism argument (the full version is DESIGN.md §15): every
//! scheduling decision — which gate or settle runs next, where the next
//! window ends, which processors it releases — is a pure function of the
//! multiset of parked states, never of host timing or the worker count.
//! Shared protocol state is mutated only inside gates and settles, and
//! those run only when no processor is free-running, so the frozen-state a
//! free-running segment reads is the same under any host interleaving. The
//! worker bound changes only *when* released processors run their (purely
//! local) segments, not what those segments compute. Hence the same
//! config and seed produce byte-identical [`Report`](crate::Report)s at any
//! worker count — gated by the `gate detpar` phase (`CHECK_DETPAR=1
//! scripts/check.sh`).
//!
//! The scheduler is a monitor with baton passing: one mutex for
//! parked-state bookkeeping, a per-proc wake slot (a `go` flag plus the
//! sleeper's thread for `park`/`unpark`, and the lent context), and the
//! lock-free [`HorizonClock`] fast path consulted at every operation entry
//! ([`DetHandle::checkpoint`]). Each transition to `Running` (a window
//! release or a release-queue admission) queues exactly the processor it
//! names, and only if that processor is asleep; the queued wakes are
//! delivered after the mutex is released, and a woken processor returns
//! without re-taking it. Nobody else wakes, and a processor inside an op
//! is never made `Running` before the op's last gate, so it wakes at most
//! once per op.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use cashmere_sim::{HorizonClock, Nanos};
use parking_lot::{Mutex, MutexGuard};

use crate::engine::ProcCtx;

/// What a blocked processor is waiting on, keyed by carrier pool index.
/// A gate ending in [`GateEnd::Done`] with the same key re-arms every
/// matching waiter as a pending gate at its original virtual time (with a
/// fresh seq, so re-tries order deterministically after first arrivals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKey {
    /// Waiting for `CarrierLock` *index* to be released.
    Lock(usize),
    /// Waiting for the current episode of `CarrierBarrier` *index*.
    Barrier(usize),
    /// Waiting for `CarrierFlag` *index* to be set.
    Flag(usize),
}

/// A processor's batched shared-resource charge, run by the coordinator
/// in place (see [`DetHandle::settle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settle {
    /// `busy_ns` of occupancy on physical node `phys`'s memory bus.
    Bus {
        /// Physical node index.
        phys: usize,
        /// Bus occupancy to reserve.
        busy_ns: Nanos,
    },
    /// `bytes` of posted write-doubling traffic through protocol node
    /// `pnode`'s MC link.
    Link {
        /// Protocol node index.
        pnode: usize,
        /// Bytes to charge against the link.
        bytes: u64,
    },
}

/// A synchronizing operation a processor hands the scheduler (see
/// [`DetHandle::run_op`]): a fixed sequence of [`gates`](Op::gates), with
/// glue between consecutive ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Page-fault service: one gate.
    Fault {
        /// The faulting page.
        page: usize,
        /// The faulting word within the page.
        word: usize,
        /// A write fault (else a read fault).
        write: bool,
    },
    /// Release consistency actions: one gate.
    Release,
    /// Acquire consistency actions: one gate.
    Acquire,
    /// Lock `l`: the carrier grant, then the acquire actions.
    Lock {
        /// Lock pool index.
        l: usize,
    },
    /// Unlock `l`: the release actions, then the carrier release.
    Unlock {
        /// Lock pool index.
        l: usize,
    },
    /// Barrier `b`: the release actions, the rendezvous, then the acquire
    /// actions.
    Barrier {
        /// Barrier pool index.
        b: usize,
    },
    /// Set flag `fl`: the release actions, then the carrier set.
    FlagSet {
        /// Flag pool index.
        fl: usize,
    },
    /// Wait for flag `fl`: the carrier wait, then the acquire actions.
    FlagWait {
        /// Flag pool index.
        fl: usize,
    },
}

impl Op {
    /// How many gates the op runs.
    pub(crate) fn gates(self) -> u8 {
        match self {
            Op::Fault { .. } | Op::Release | Op::Acquire => 1,
            Op::Barrier { .. } => 3,
            Op::Lock { .. } | Op::Unlock { .. } | Op::FlagSet { .. } | Op::FlagWait { .. } => 2,
        }
    }
}

/// An op in progress: which gate runs next, and what a carrier gate
/// leaves for the glue after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpState {
    /// The op.
    pub op: Op,
    /// Index of the gate that runs next (the glue before gate `i` runs
    /// once gate `i - 1` is done).
    pub gate: u8,
    /// A lock or flag grant time, or a barrier's departure time.
    pub vt: Nanos,
    /// The barrier episode: the one a waiting arrival polls, then the one
    /// it crossed. `None` until the arrival registers.
    pub epoch: Option<u64>,
    /// The barrier arrival completed its episode.
    pub last: bool,
}

impl OpState {
    /// `op` before its first gate.
    pub(crate) fn new(op: Op) -> Self {
        Self {
            op,
            gate: 0,
            vt: 0,
            epoch: None,
            last: false,
        }
    }
}

/// How a gate body ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateEnd {
    /// The gate ran; every processor blocked on the key (if any) re-arms.
    Done(Option<WaitKey>),
    /// The carrier is unavailable: the processor blocks on the key and the
    /// gate is retried once a peer's gate re-arms it.
    Blocked(WaitKey),
}

/// Runs ops and settles on a processor's behalf. `Cluster::run` registers
/// one ([`DetScheduler::set_exec`]); the coordinator calls it only while
/// no processor runs a segment, so a gate body may mutate order-sensitive
/// shared state.
pub trait OpExec: Send + Sync {
    /// Runs gate `op.gate` of `op.op` on `ctx`. The scheduler advances
    /// `op.gate` when the gate is done.
    fn run_gate(&self, ctx: &mut ProcCtx, op: &mut OpState) -> GateEnd;
    /// Runs the glue that precedes gate `op.gate` (never gate 0): the
    /// purely local steps between two gates of one op.
    fn run_glue(&self, ctx: &mut ProcCtx, op: &mut OpState);
    /// Charges `req` at virtual time `vt` and returns the virtual time the
    /// settling processor resumes at (never before `vt`).
    fn run_settle(&self, req: Settle, vt: Nanos) -> Nanos;
}

/// Per-processor scheduler state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    /// Released: free-running a local segment.
    Running,
    /// Parked at this virtual time with runnable local work pending: at
    /// an operation entry (horizon reached), or after a settle or an op's
    /// last gate.
    Parked(Nanos),
    /// Parked mid-op after a gate at this virtual time. A window covering
    /// it runs the glue to the next gate in place, instead of a release.
    Between(Nanos),
    /// Parked at an op's next gate: `(vt, seq)`; run in place at its turn.
    AtGate(Nanos, u64),
    /// Parked at a settle: `(vt, seq)`; the coordinator runs the request
    /// recorded in `DetState::settles` in place, then re-parks it.
    AtSettle(Nanos, u64),
    /// Blocked inside an op's gate on a carrier; re-armed by a peer's
    /// gate.
    Blocked(Nanos, WaitKey),
    /// Ran to completion.
    Finished,
}

/// End marker of the pending-wake list threaded through [`Slot::next`].
const NO_PROC: usize = usize::MAX;

#[derive(Debug)]
struct DetState {
    procs: Vec<PState>,
    /// Per-proc gate sequence numbers (third tie-break component).
    seq: Vec<u64>,
    /// Per-proc settle request, meaningful while the proc is `AtSettle`.
    settles: Vec<Settle>,
    /// Per-proc op in progress, meaningful while the proc is `AtGate`,
    /// `Blocked` or `Between`.
    ops: Vec<OpState>,
    /// Per-proc "asleep in its wake slot and not yet woken". Set by the
    /// sleeper before it releases the mutex, cleared by whoever queues its
    /// wake.
    waiting: Vec<bool>,
    /// Released processors that have not parked again. All scheduling
    /// decisions happen at `runners == 0`.
    runners: usize,
    /// Window-eligible processors awaiting a free worker slot, in
    /// deterministic `(vt, id)` order.
    release_queue: VecDeque<usize>,
    /// `coordinate`'s window-building buffer, kept so opening a window
    /// allocates nothing.
    parked: Vec<(Nanos, usize)>,
    /// Head and tail of the wakes queued by the current critical section,
    /// linked through the slots' `next` fields; delivered after unlock.
    wake_head: usize,
    wake_tail: usize,
    finished: usize,
    /// Host-side accounting (never part of a `Report`): slot wakes
    /// delivered to each proc, slot waits entered, gates and settles run
    /// in place, windows opened.
    wakes: Vec<u64>,
    slot_waits: u64,
    gates: u64,
    settled: u64,
    windows: u64,
}

/// One processor's wake slot: everything a waker touches after the state
/// mutex is released, and the context the processor lends while it sleeps
/// mid-op.
#[derive(Default)]
struct Slot {
    /// Set by the waker after unlock, consumed by the sleeper.
    go: AtomicBool,
    /// The next queued wake (`NO_PROC` ends the list). Written under the
    /// state mutex by the thread that queues this slot, read back by that
    /// same thread after unlock — before it sets `go`, so the slot cannot
    /// be re-queued in between.
    next: AtomicUsize,
    /// Resume time of this proc's last delegated settle; published to the
    /// proc by the mutex and the `go` hand-off.
    settled: AtomicU64,
    /// The sleeping thread, registered before its first sleep.
    thread: OnceLock<Thread>,
    /// The context lent for in-place gates and glue (see [`Lent`]).
    lent: Mutex<Lent>,
    /// The panic payload of this proc's op, caught on a coordinator's
    /// thread, for this proc to re-raise on its own.
    failure: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A processor's lent context. While it sleeps mid-op, `ctx` holds its
/// real context and the processor holds the placeholder; otherwise the
/// placeholder waits in `spare`. Lending and taking back are moves by
/// value: nothing is cloned, and nothing allocates.
#[derive(Default)]
struct Lent {
    ctx: Option<ProcCtx>,
    spare: Option<ProcCtx>,
}

/// The conservative virtual-time scheduler for one run.
pub struct DetScheduler {
    state: Mutex<DetState>,
    /// One wake slot per processor: proc `p` sleeps only on `slots[p]`,
    /// and only its own release wakes it.
    slots: Vec<Slot>,
    horizon: HorizonClock,
    nprocs: usize,
    workers: usize,
    /// Runs ops and settles in place; registered before the run starts.
    exec: OnceLock<Arc<dyn OpExec>>,
    /// Set when the run aborts (a deadlock, or a panic on some processor);
    /// every waiter converts its wait into a panic instead of hanging.
    aborted: AtomicBool,
    /// The processor whose panic aborted the run, if one did.
    failed: OnceLock<usize>,
}

impl DetScheduler {
    /// A scheduler for `nprocs` processors multiplexed onto at most
    /// `workers` concurrently running host threads, with windows of
    /// `quantum_ns` virtual nanoseconds.
    #[must_use]
    pub fn new(nprocs: usize, workers: usize, quantum_ns: Nanos) -> Self {
        Self {
            state: Mutex::new(DetState {
                procs: vec![PState::Running; nprocs],
                seq: vec![0; nprocs],
                settles: vec![
                    Settle::Bus {
                        phys: 0,
                        busy_ns: 0
                    };
                    nprocs
                ],
                ops: vec![OpState::new(Op::Release); nprocs],
                waiting: vec![false; nprocs],
                runners: nprocs,
                release_queue: VecDeque::with_capacity(nprocs),
                parked: Vec::with_capacity(nprocs),
                wake_head: NO_PROC,
                wake_tail: NO_PROC,
                finished: 0,
                wakes: vec![0; nprocs],
                slot_waits: 0,
                gates: 0,
                settled: 0,
                windows: 0,
            }),
            slots: (0..nprocs).map(|_| Slot::default()).collect(),
            horizon: HorizonClock::new(quantum_ns),
            nprocs,
            workers: workers.max(1),
            exec: OnceLock::new(),
            aborted: AtomicBool::new(false),
            failed: OnceLock::new(),
        }
    }

    /// Registers the executor the coordinator runs ops and settles
    /// through. Must precede the first op or settle; later calls are
    /// ignored.
    pub fn set_exec(&self, exec: Arc<dyn OpExec>) {
        let _ = self.exec.set(exec);
    }

    fn exec(&self) -> &dyn OpExec {
        self.exec
            .get()
            .expect("an op executor is registered before the run")
            .as_ref()
    }

    /// The worker bound.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The processor whose panic aborted the run, if one did.
    pub(crate) fn failed(&self) -> Option<usize> {
        self.failed.get().copied()
    }

    /// A per-processor handle for embedding in the engine's `ProcCtx`.
    #[must_use]
    pub fn handle(self: &Arc<Self>, id: usize) -> DetHandle {
        DetHandle {
            sched: Arc::clone(self),
            id,
        }
    }

    /// The per-op fast path: one atomic horizon load (see the hotpath rows).
    #[inline]
    fn must_park(&self, vt: Nanos) -> bool {
        self.horizon.past(vt)
    }

    /// Parks `me` at an operation entry and blocks until readmitted.
    fn park(&self, me: usize, vt: Nanos) {
        let mut st = self.state.lock();
        st.procs[me] = PState::Parked(vt);
        self.retire_runner(&mut st, me, None);
        self.unlock_and_wait(me, st, None);
    }

    /// Parks `me` with `op` at its first gate and blocks until the op's
    /// last gate is done and `me` is readmitted to a window. Gates and
    /// glue run in place — on this thread while it coordinates, else on a
    /// coordinator's thread with `ctx` lent.
    fn run_op(&self, me: usize, ctx: &mut ProcCtx, op: Op) {
        let mut st = self.state.lock();
        st.ops[me] = OpState::new(op);
        Self::arm(&mut st, me, ctx.clock.now());
        self.retire_runner(&mut st, me, Some(&mut *ctx));
        self.unlock_and_wait(me, st, Some(ctx));
    }

    /// Parks `me` with a settle request at `vt`, ordered like a gate; the
    /// coordinator runs it in place and re-parks `me` at the resume time.
    /// Blocks until readmitted to a window and returns that resume time.
    fn settle(&self, me: usize, vt: Nanos, req: Settle) -> Nanos {
        let mut st = self.state.lock();
        st.seq[me] += 1;
        st.procs[me] = PState::AtSettle(vt, st.seq[me]);
        st.settles[me] = req;
        self.retire_runner(&mut st, me, None);
        self.unlock_and_wait(me, st, None);
        self.slots[me].settled.load(Ordering::Acquire)
    }

    /// Makes `p`'s next gate pending at `vt`, with a fresh seq.
    fn arm(st: &mut DetState, p: usize, vt: Nanos) {
        st.seq[p] += 1;
        st.procs[p] = PState::AtGate(vt, st.seq[p]);
    }

    /// Re-arms every processor blocked on `key` as a pending gate at its
    /// original virtual time with a fresh seq.
    fn unblock_all(st: &mut DetState, key: WaitKey) {
        for p in 0..st.procs.len() {
            if let PState::Blocked(vt, k) = st.procs[p] {
                if k == key {
                    Self::arm(st, p, vt);
                }
            }
        }
    }

    /// Marks `me` finished and hands its slot on.
    fn finish(&self, me: usize) {
        let mut st = self.state.lock();
        st.procs[me] = PState::Finished;
        st.finished += 1;
        self.retire_runner(&mut st, me, None);
        let wakes = Self::take_wakes(&mut st);
        drop(st);
        self.deliver(wakes);
    }

    /// One released processor, `me`, has parked (in whatever state the
    /// caller just recorded): refill its worker slot from the release
    /// queue, and run the coordinator if it was the last runner. `own` is
    /// `me`'s context when `me` is inside an op.
    fn retire_runner(&self, st: &mut DetState, me: usize, own: Option<&mut ProcCtx>) {
        st.runners -= 1;
        while st.runners < self.workers {
            let Some(p) = st.release_queue.pop_front() else {
                break;
            };
            st.procs[p] = PState::Running;
            st.runners += 1;
            self.wake(st, p);
        }
        if st.runners == 0 {
            self.coordinate(st, me, own);
        }
    }

    /// The earliest pending gate or settle by `(vt, id, seq)`.
    fn next_pending(st: &DetState) -> Option<(Nanos, usize, u64)> {
        st.procs
            .iter()
            .enumerate()
            .filter_map(|(p, s)| match *s {
                PState::AtGate(vt, seq) | PState::AtSettle(vt, seq) => Some((vt, p, seq)),
                _ => None,
            })
            .min()
    }

    /// The scheduling decision point, reached only when every processor is
    /// parked, on the thread of `me`, the processor that parked last.
    /// Everything here is a pure function of the parked multiset.
    fn coordinate(&self, st: &mut DetState, me: usize, mut own: Option<&mut ProcCtx>) {
        debug_assert!(st.release_queue.is_empty());
        loop {
            debug_assert_eq!(st.runners, 0);
            // 1. Drain pending gates and settles, earliest (vt, id, seq)
            // first, each in place with every peer parked. Each leaves its
            // proc parked at the clock the body ended at, as its own thread
            // would have, so no later decision changes (DESIGN.md §15.3).
            while let Some((vt, p, _)) = Self::next_pending(st) {
                if let PState::AtSettle(..) = st.procs[p] {
                    let resume = self.exec().run_settle(st.settles[p], vt).max(vt);
                    self.slots[p].settled.store(resume, Ordering::Release);
                    st.procs[p] = PState::Parked(resume);
                    st.settled += 1;
                } else {
                    self.run_gate(st, p, me, own.as_deref_mut());
                }
            }

            // 2. No gates pending: open the next window over the parked set.
            let mut parked = std::mem::take(&mut st.parked);
            parked.clear();
            parked.extend((0..self.nprocs).filter_map(|p| match st.procs[p] {
                PState::Parked(vt) | PState::Between(vt) => Some((vt, p)),
                _ => None,
            }));
            if parked.is_empty() {
                st.parked = parked;
                if st.finished == self.nprocs {
                    return;
                }
                self.abort_deadlocked(st);
            }
            parked.sort_unstable();
            let min_vt = parked[0].0;
            if self.horizon.past(min_vt) {
                self.horizon.advance_past(min_vt);
            }
            st.windows += 1;
            let end = self.horizon.end();
            // The coordinator's own processor is admitted first: its thread
            // is awake, so it runs on instead of sleeping while a peer is
            // woken in its place. Release order changes only when segments
            // run, never what they compute (DESIGN.md §15.3).
            if let PState::Parked(vt) = st.procs[me] {
                if vt < end {
                    st.procs[me] = PState::Running;
                    st.runners += 1;
                }
            }
            for &(vt, p) in &parked {
                if vt >= end {
                    // Beyond the window: stays parked for a later one.
                    break;
                }
                match st.procs[p] {
                    // Mid-op: the glue runs here, where the window would
                    // have released the proc, and leaves it at its next
                    // gate without waking it.
                    PState::Between(_) => self.run_glue(st, p, me, own.as_deref_mut()),
                    PState::Parked(_) if st.runners < self.workers => {
                        st.procs[p] = PState::Running;
                        st.runners += 1;
                        self.wake(st, p);
                    }
                    PState::Parked(_) => st.release_queue.push_back(p),
                    // The coordinator, admitted above.
                    _ => {}
                }
            }
            st.parked = parked;
            if st.runners > 0 {
                return;
            }
            // The window held only glue: its gates are pending now.
        }
    }

    /// Runs `p`'s pending gate in place and records how it ended.
    fn run_gate(&self, st: &mut DetState, p: usize, me: usize, own: Option<&mut ProcCtx>) {
        let op = &mut st.ops[p];
        let (end, vt) = self.in_place(p, me, own, |exec, ctx| {
            (exec.run_gate(ctx, op), ctx.clock.now())
        });
        st.gates += 1;
        match end {
            GateEnd::Done(wake) => {
                if let Some(key) = wake {
                    Self::unblock_all(st, key);
                }
                let op = &mut st.ops[p];
                op.gate += 1;
                st.procs[p] = if op.gate < op.op.gates() {
                    PState::Between(vt)
                } else {
                    PState::Parked(vt)
                };
            }
            GateEnd::Blocked(key) => st.procs[p] = PState::Blocked(vt, key),
        }
    }

    /// Runs the glue before `p`'s next gate in place and arms that gate.
    fn run_glue(&self, st: &mut DetState, p: usize, me: usize, own: Option<&mut ProcCtx>) {
        let op = &mut st.ops[p];
        let vt = self.in_place(p, me, own, |exec, ctx| {
            exec.run_glue(ctx, op);
            ctx.clock.now()
        });
        Self::arm(st, p, vt);
    }

    /// Runs `f` on `p`'s context: the coordinator's own (`p == me`) or the
    /// one `p` lent before it slept. A panic in `f` aborts the run.
    fn in_place<R>(
        &self,
        p: usize,
        me: usize,
        own: Option<&mut ProcCtx>,
        f: impl FnOnce(&dyn OpExec, &mut ProcCtx) -> R,
    ) -> R {
        let exec = self.exec();
        let out = if p == me {
            let ctx = own.expect("a processor inside an op passes its context");
            catch_unwind(AssertUnwindSafe(|| f(exec, ctx)))
        } else {
            let mut lent = self.slots[p].lent.lock();
            let ctx = lent
                .ctx
                .as_mut()
                .expect("a processor sleeping inside an op lends its context");
            catch_unwind(AssertUnwindSafe(|| f(exec, ctx)))
        };
        out.unwrap_or_else(|payload| self.fail(p, me, payload))
    }

    /// A body run in place on `p`'s context panicked on `me`'s thread:
    /// keeps the payload for `p` to re-raise on its own thread and aborts
    /// the run the way a deadlock does, so every sleeper wakes into a
    /// panic instead of hanging.
    fn fail(&self, p: usize, me: usize, payload: Box<dyn Any + Send>) -> ! {
        if p == me {
            self.abort(Some(p));
            resume_unwind(payload);
        }
        *self.slots[p].failure.lock() = Some(payload);
        self.abort(Some(p));
        self.check_abort(me);
        unreachable!("the run was just aborted");
    }

    /// Passes the baton to `p` (just made `Running`): queues its wake if,
    /// and only if, `p` is asleep. Delivery waits for the unlock.
    fn wake(&self, st: &mut DetState, p: usize) {
        if !st.waiting[p] {
            return;
        }
        st.waiting[p] = false;
        st.wakes[p] += 1;
        self.slots[p].next.store(NO_PROC, Ordering::Release);
        if st.wake_tail == NO_PROC {
            st.wake_head = p;
        } else {
            self.slots[st.wake_tail].next.store(p, Ordering::Release);
        }
        st.wake_tail = p;
    }

    /// Detaches the queued wakes from the state, returning the list head.
    fn take_wakes(st: &mut DetState) -> usize {
        st.wake_tail = NO_PROC;
        std::mem::replace(&mut st.wake_head, NO_PROC)
    }

    /// Delivers a detached wake list (state mutex released): each sleeper's
    /// `go` flag, then its `unpark`. `next` is read before `go` is set,
    /// since a woken processor may park and be queued again at once.
    ///
    /// This and [`Self::sleep`] stay out of line: a 1-proc run never has a
    /// wake to deliver or a reason to sleep, and inlined into every
    /// scheduler entry they slowed its gate-heavy cells (`seq-1x1` median
    /// pass 7% over the parent on a 2-vCPU x86-64 VM; 4% out of line, with
    /// an equal best pass).
    #[inline(never)]
    fn deliver(&self, mut p: usize) {
        while p != NO_PROC {
            let slot = &self.slots[p];
            let next = slot.next.load(Ordering::Acquire);
            slot.go.store(true, Ordering::Release);
            slot.thread
                .get()
                .expect("a sleeper registers its thread before it sleeps")
                .unpark();
            p = next;
        }
    }

    /// Ends `me`'s critical section (its new state recorded, the
    /// coordinator run if it parked last): unless that already made `me`
    /// `Running`, marks it asleep — lending `ctx` first if its op still
    /// has gates to run; then releases the mutex, delivers the queued
    /// wakes, and sleeps until `me`'s own wake, taking the context back.
    /// A waker queues `me` only after making it `Running` (released past
    /// its op's last gate), so the woken sleeper returns without re-taking
    /// the mutex, and no coordinator still holds its context. The
    /// coordinator releases only processors below the new window end, so
    /// `Running` after a park implies the horizon has passed `me`'s vt.
    fn unlock_and_wait(
        &self,
        me: usize,
        mut st: MutexGuard<'_, DetState>,
        ctx: Option<&mut ProcCtx>,
    ) {
        let asleep = st.procs[me] != PState::Running;
        let mid_op = matches!(
            st.procs[me],
            PState::AtGate(..) | PState::Blocked(..) | PState::Between(_)
        );
        let lent = match ctx {
            Some(ctx) if mid_op => {
                self.lend(me, ctx);
                Some(ctx)
            }
            _ => None,
        };
        if asleep {
            self.slots[me].thread.get_or_init(std::thread::current);
            st.waiting[me] = true;
            st.slot_waits += 1;
        }
        let wakes = Self::take_wakes(&mut st);
        drop(st);
        self.deliver(wakes);
        if asleep {
            self.sleep(me);
        }
        if let Some(ctx) = lent {
            self.take_back(me, ctx);
        }
    }

    /// Moves `ctx` into `me`'s slot, leaving the placeholder in its place.
    fn lend(&self, me: usize, ctx: &mut ProcCtx) {
        let mut lent = self.slots[me].lent.lock();
        let spare = lent.spare.take().unwrap_or_else(|| ctx.placeholder());
        lent.ctx = Some(std::mem::replace(ctx, spare));
    }

    /// Moves `me`'s lent context back into `ctx`.
    fn take_back(&self, me: usize, ctx: &mut ProcCtx) {
        let mut lent = self.slots[me].lent.lock();
        let real = lent.ctx.take().expect("the lent context is still lent");
        lent.spare = Some(std::mem::replace(ctx, real));
    }

    /// Sleeps until `me`'s `go` flag is set (spurious unparks loop).
    #[inline(never)]
    fn sleep(&self, me: usize) {
        let slot = &self.slots[me];
        loop {
            self.check_abort(me);
            if slot.go.swap(false, Ordering::Acquire) {
                return;
            }
            std::thread::park();
        }
    }

    /// Turns an aborted run into a panic on `me`'s thread: the panic of
    /// `me`'s own op if a coordinator caught one, else a note naming the
    /// processor that failed, else the deadlock diagnosis.
    fn check_abort(&self, me: usize) {
        if !self.aborted.load(Ordering::SeqCst) {
            return;
        }
        if let Some(payload) = self.slots[me].failure.lock().take() {
            resume_unwind(payload);
        }
        match self.failed() {
            Some(p) => panic!("deterministic scheduler: run aborted: processor {p} panicked"),
            None => panic!("deterministic scheduler deadlock: run aborted by the coordinator"),
        }
    }

    /// Aborts the run, once: records `failed` (the processor whose panic
    /// caused it; `None` for a deadlock), then unparks every sleeper into
    /// [`Self::check_abort`].
    fn abort(&self, failed: Option<usize>) {
        if self.aborted.load(Ordering::SeqCst) {
            return;
        }
        if let Some(p) = failed {
            let _ = self.failed.set(p);
        }
        self.aborted.store(true, Ordering::SeqCst);
        for slot in &self.slots {
            if let Some(t) = slot.thread.get() {
                t.unpark();
            }
        }
    }

    /// No gate pending, nobody parked, not everyone finished: the remaining
    /// processors are blocked on carriers nobody will ever signal. Unpark
    /// every sleeper into a panic (instead of hanging the run) and report
    /// who waits on what. No wake is queued at this point: the refill and
    /// step 1 found nothing to release.
    fn abort_deadlocked(&self, st: &DetState) -> ! {
        self.abort(None);
        let waiters: Vec<String> = (0..self.nprocs)
            .filter_map(|p| match st.procs[p] {
                PState::Blocked(vt, key) => Some(format!("proc {p} blocked on {key:?} at vt {vt}")),
                _ => None,
            })
            .collect();
        panic!(
            "deterministic scheduler deadlock: no runnable processor \
             ({}/{} finished; {})",
            st.finished,
            self.nprocs,
            waiters.join(", ")
        );
    }

    // -- microbench probes (charge-free host machinery; see `hotpath`) ----

    /// The checkpoint fast path, exposed for the hotpath rows.
    #[doc(hidden)]
    #[must_use]
    pub fn bench_horizon_check(&self, vt: Nanos) -> bool {
        self.must_park(vt)
    }

    /// The coordinator's selection over the current pending gates and
    /// settles, exposed for the hotpath rows. Scans like `coordinate` step
    /// 1 but changes nothing.
    #[doc(hidden)]
    #[must_use]
    pub fn bench_grant_scan(&self) -> Option<usize> {
        Self::next_pending(&self.state.lock()).map(|(_, p, _)| p)
    }

    /// Host-side wakeup accounting so far: `(slot wakes delivered, slot
    /// waits entered)`. Baton passing wakes only a processor that is
    /// asleep, once per wait, so the first never exceeds the second (the
    /// abort's wake-everyone is not counted). Never part of a `Report`.
    #[doc(hidden)]
    #[must_use]
    pub fn bench_wake_counts(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.wakes.iter().sum(), st.slot_waits)
    }

    /// Slot wakes delivered to processor `p` so far.
    #[doc(hidden)]
    #[must_use]
    pub fn bench_proc_wakes(&self, p: usize) -> u64 {
        self.state.lock().wakes[p]
    }

    /// Host-side scheduling accounting so far: `(gates run in place,
    /// settles run in place, windows opened)`. Never part of a `Report`.
    #[doc(hidden)]
    #[must_use]
    pub fn bench_sched_counts(&self) -> (u64, u64, u64) {
        let st = self.state.lock();
        (st.gates, st.settled, st.windows)
    }

    /// Seeds proc `p` as a pending gate at `(vt, seq)` for
    /// [`bench_grant_scan`](Self::bench_grant_scan). Bench-only: bypasses
    /// the runner accounting.
    #[doc(hidden)]
    pub fn bench_seed_gate(&self, p: usize, vt: Nanos, seq: u64) {
        let mut st = self.state.lock();
        st.procs[p] = PState::AtGate(vt, seq);
    }

    /// Seeds proc `p` as a pending settle at `(vt, seq)`, like
    /// [`bench_seed_gate`](Self::bench_seed_gate).
    #[doc(hidden)]
    pub fn bench_seed_settle(&self, p: usize, vt: Nanos, seq: u64) {
        let mut st = self.state.lock();
        st.procs[p] = PState::AtSettle(vt, seq);
    }
}

/// A per-processor handle on the shared scheduler, embedded in the engine's
/// `ProcCtx` (absent in the default free-running mode, so the off path costs
/// one `Option` discriminant test per hook, like the obs layer).
#[derive(Clone)]
pub struct DetHandle {
    sched: Arc<DetScheduler>,
    id: usize,
}

impl DetHandle {
    /// Operation-entry checkpoint: park if the lookahead horizon has been
    /// reached. The common case is a single atomic load.
    #[inline]
    pub fn checkpoint(&self, vt: Nanos) {
        if self.sched.must_park(vt) {
            self.sched.park(self.id, vt);
        }
    }

    /// Start-of-run barrier: parks at vt 0 so the first window opens only
    /// once every processor has checked in, and no more than `workers`
    /// processors ever run concurrently.
    pub fn start(&self) {
        self.sched.park(self.id, 0);
    }

    /// Runs `op` on `ctx`, starting at `ctx`'s virtual time: every gate at
    /// its `(vt, id, seq)` turn and the glue between them, all in place
    /// through the registered [`OpExec`]. Returns once the last gate is
    /// done and this processor is readmitted to a window.
    pub fn run_op(&self, ctx: &mut ProcCtx, op: Op) {
        self.sched.run_op(self.id, ctx, op);
    }

    /// Settles `req` at `vt`: ordered exactly like a gate at `vt` and run
    /// in place by the coordinator. Blocks until readmitted to a window and
    /// returns the resume time the [`OpExec`] reported.
    pub fn settle(&self, vt: Nanos, req: Settle) -> Nanos {
        self.sched.settle(self.id, vt, req)
    }

    /// Marks this processor finished.
    pub fn finish(&self) {
        self.sched.finish(self.id);
    }

    /// This processor's thread is unwinding from a panic: aborts the run
    /// (unless it already is), naming this processor, so no peer sleeps
    /// forever.
    pub(crate) fn abort(&self) {
        self.sched.abort(Some(self.id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{BarrierArrival, CarrierBarrier, CarrierFlag, CarrierLock};
    use crate::{ClusterConfig, Engine, ProtocolKind, Topology};
    use cashmere_sim::{ProcId, TimeCategory};

    /// Who ran what, in execution order: `(vt, proc, event)`.
    type EventLog = Arc<Mutex<Vec<(Nanos, usize, &'static str)>>>;

    /// The logging executor's fixed charges: release and acquire actions,
    /// and the carrier lock's hand-off.
    const RELEASE_NS: Nanos = 10;
    const ACQUIRE_NS: Nanos = 20;
    const LOCK_NS: Nanos = 5;

    /// A logging op executor over real carriers (lock 0, barrier 0 across
    /// every proc, flag 0): release and acquire actions are fixed charges,
    /// a fault is free, a carrier result feeds the glue's clock wait, and a
    /// bus settle (whose `phys` names the proc) resumes `busy_ns` later.
    /// Each event is logged at its proc's virtual time; `fail` makes one
    /// proc's event panic instead.
    struct LogExec {
        log: EventLog,
        procs: usize,
        lock: CarrierLock,
        barrier: CarrierBarrier,
        flag: CarrierFlag,
        fail: Option<(usize, &'static str)>,
    }

    impl LogExec {
        fn new(procs: usize) -> Self {
            Self {
                log: EventLog::default(),
                procs,
                lock: CarrierLock::new(),
                barrier: CarrierBarrier::new(),
                flag: CarrierFlag::new(),
                fail: None,
            }
        }

        fn event(&self, vt: Nanos, p: usize, what: &'static str) {
            if self.fail == Some((p, what)) {
                panic!("injected failure in proc {p}'s {what}");
            }
            self.log.lock().push((vt, p, what));
        }
    }

    impl OpExec for LogExec {
        fn run_gate(&self, ctx: &mut ProcCtx, op: &mut OpState) -> GateEnd {
            let (now, p) = (ctx.clock.now(), ctx.id.0);
            match (op.op, op.gate) {
                (Op::Fault { .. }, _) => self.event(now, p, "fault"),
                (Op::Release, _)
                | (Op::Unlock { .. } | Op::Barrier { .. } | Op::FlagSet { .. }, 0) => {
                    self.event(now, p, "release");
                    ctx.clock.charge(TimeCategory::Protocol, RELEASE_NS);
                }
                (Op::Acquire, _)
                | (Op::Lock { .. } | Op::FlagWait { .. }, 1)
                | (Op::Barrier { .. }, 2) => {
                    self.event(now, p, "acquire");
                    ctx.clock.charge(TimeCategory::Protocol, ACQUIRE_NS);
                }
                (Op::Lock { .. }, _) => match self.lock.try_acquire_for(now, LOCK_NS) {
                    Some(vt) => {
                        self.event(now, p, "lock");
                        op.vt = vt;
                    }
                    None => return GateEnd::Blocked(WaitKey::Lock(0)),
                },
                (Op::Unlock { .. }, _) => {
                    self.lock.release(now);
                    self.event(now, p, "unlock");
                    return GateEnd::Done(Some(WaitKey::Lock(0)));
                }
                (Op::Barrier { .. }, _) => {
                    let crossing = match op.epoch {
                        Some(epoch) => self.barrier.poll(epoch),
                        None => match self.barrier.arrive(self.procs, now, 0) {
                            BarrierArrival::Complete(c) => Some(c),
                            BarrierArrival::Waiting(epoch) => {
                                op.epoch = Some(epoch);
                                None
                            }
                        },
                    };
                    let Some(c) = crossing else {
                        return GateEnd::Blocked(WaitKey::Barrier(0));
                    };
                    self.event(now, p, "cross");
                    op.vt = c.departure_vt;
                    if c.was_last {
                        return GateEnd::Done(Some(WaitKey::Barrier(0)));
                    }
                }
                (Op::FlagSet { .. }, _) => {
                    self.flag.set(now);
                    self.event(now, p, "set");
                    return GateEnd::Done(Some(WaitKey::Flag(0)));
                }
                (Op::FlagWait { .. }, _) => match self.flag.try_wait(now) {
                    Some(vt) => {
                        self.event(now, p, "wait");
                        op.vt = vt;
                    }
                    None => return GateEnd::Blocked(WaitKey::Flag(0)),
                },
            }
            GateEnd::Done(None)
        }

        fn run_glue(&self, ctx: &mut ProcCtx, op: &mut OpState) {
            ctx.clock.wait_until(op.vt);
        }

        fn run_settle(&self, req: Settle, vt: Nanos) -> Nanos {
            let Settle::Bus { phys, busy_ns } = req else {
                unreachable!("the tests settle only on the bus")
            };
            self.event(vt, phys, "settle");
            vt + busy_ns
        }
    }

    /// A scheduler for `procs` procs with a fresh [`LogExec`] registered.
    fn logged(procs: usize, workers: usize, quantum: Nanos) -> (Arc<DetScheduler>, EventLog) {
        logged_with(LogExec::new(procs), workers, quantum)
    }

    fn logged_with(exec: LogExec, workers: usize, quantum: Nanos) -> (Arc<DetScheduler>, EventLog) {
        let sched = Arc::new(DetScheduler::new(exec.procs, workers, quantum));
        let log = Arc::clone(&exec.log);
        sched.set_exec(Arc::new(exec));
        (sched, log)
    }

    /// One context per proc, on a 1-node engine of one page.
    fn contexts(procs: usize) -> Vec<ProcCtx> {
        let cfg =
            ClusterConfig::new(Topology::new(1, procs), ProtocolKind::TwoLevel).with_heap_pages(1);
        let engine = Engine::new(cfg);
        (0..procs).map(|p| engine.make_ctx(ProcId(p))).collect()
    }

    type ProcBody = Box<dyn FnOnce(&DetHandle, &mut ProcCtx) + Send>;

    /// Runs each body on its own thread between the start barrier and
    /// `finish`, and returns how each thread ended (`Err` carries its panic
    /// message).
    fn spawn_procs(sched: &Arc<DetScheduler>, bodies: Vec<ProcBody>) -> Vec<Result<(), String>> {
        let ctxs = contexts(bodies.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = bodies
                .into_iter()
                .zip(ctxs)
                .enumerate()
                .map(|(id, (body, mut ctx))| {
                    let h = sched.handle(id);
                    s.spawn(move || {
                        h.start();
                        body(&h, &mut ctx);
                        h.finish();
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|j| {
                    j.join().map_err(|e| {
                        e.downcast_ref::<String>()
                            .cloned()
                            .or_else(|| e.downcast_ref::<&str>().map(|m| (*m).to_owned()))
                            .unwrap_or_default()
                    })
                })
                .collect()
        })
    }

    fn run_procs(sched: &Arc<DetScheduler>, bodies: Vec<ProcBody>) {
        for (p, outcome) in spawn_procs(sched, bodies).into_iter().enumerate() {
            if let Err(msg) = outcome {
                panic!("proc {p} panicked: {msg}");
            }
        }
    }

    /// Moves `ctx`'s clock up to `vt` and passes the checkpoint there.
    fn advance(h: &DetHandle, ctx: &mut ProcCtx, vt: Nanos) {
        ctx.clock.wait_until(vt);
        h.checkpoint(ctx.clock.now());
    }

    #[test]
    fn windows_release_all_procs_regardless_of_worker_bound() {
        for workers in [1, 2, 8] {
            let (sched, _) = logged(4, workers, 100);
            let bodies: Vec<ProcBody> = (0..4)
                .map(|p| {
                    Box::new(move |h: &DetHandle, ctx: &mut ProcCtx| {
                        for _ in 0..10 {
                            let vt = ctx.clock.now() + 30 + p as u64;
                            advance(h, ctx, vt);
                        }
                    }) as ProcBody
                })
                .collect();
            run_procs(&sched, bodies);
        }
    }

    #[test]
    fn ops_run_in_vt_id_order() {
        let (sched, log) = logged(3, 8, 1_000);
        let bodies: Vec<ProcBody> = (0..3)
            .map(|p| {
                Box::new(move |h: &DetHandle, ctx: &mut ProcCtx| {
                    // Proc p faults at vt 30-p: higher ids carry earlier
                    // vts, so the run order must be exactly reversed.
                    ctx.clock.wait_until(30 - p as u64);
                    h.run_op(
                        ctx,
                        Op::Fault {
                            page: 0,
                            word: p,
                            write: false,
                        },
                    );
                }) as ProcBody
            })
            .collect();
        run_procs(&sched, bodies);
        let order: Vec<usize> = log.lock().iter().map(|&(_, p, _)| p).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn blocked_procs_reacquire_in_vt_order() {
        // Proc 0 takes the carrier lock at vt 0 and holds it to vt 50;
        // procs 2 and 1 block on it at vts 20 and 10. Proc 1 (earlier gate
        // vt) must win the re-try after proc 0's unlock, and proc 2
        // acquires only after proc 1 unlocks in turn.
        let (sched, log) = logged(3, 8, 1_000);
        let bodies: Vec<ProcBody> = (0..3)
            .map(|p| {
                Box::new(move |h: &DetHandle, ctx: &mut ProcCtx| {
                    ctx.clock.wait_until(10 * p as u64);
                    h.run_op(ctx, Op::Lock { l: 0 });
                    ctx.clock
                        .wait_until(if p == 0 { 50 } else { ctx.clock.now() + 5 });
                    h.run_op(ctx, Op::Unlock { l: 0 });
                }) as ProcBody
            })
            .collect();
        run_procs(&sched, bodies);
        let locks: Vec<(usize, &str)> = log
            .lock()
            .iter()
            .filter(|e| matches!(e.2, "lock" | "unlock"))
            .map(|&(_, p, what)| (p, what))
            .collect();
        assert_eq!(
            locks,
            vec![
                (0, "lock"),
                (0, "unlock"),
                (1, "lock"),
                (1, "unlock"),
                (2, "lock"),
                (2, "unlock")
            ]
        );
    }

    #[test]
    fn glue_arms_the_next_gate_where_it_ends() {
        // Proc 0's lock is granted at vt 0 and its glue waits to the grant
        // time, LOCK_NS later, before the acquire gate. Proc 1 faults at
        // vt 1 (drained with the lock) and then at vt 3, in the window
        // that runs proc 0's glue. The vt-3 fault must run before the
        // acquire at vt 5: glue run in place arms the next gate at the
        // time it leaves the proc at, as the proc's own thread would have.
        let (sched, log) = logged(2, 2, 1_000);
        let bodies: Vec<ProcBody> = (0..2)
            .map(|p| {
                Box::new(move |h: &DetHandle, ctx: &mut ProcCtx| {
                    if p == 0 {
                        h.run_op(ctx, Op::Lock { l: 0 });
                        h.run_op(ctx, Op::Unlock { l: 0 });
                        return;
                    }
                    for vt in [1, 3] {
                        advance(h, ctx, vt);
                        h.run_op(
                            ctx,
                            Op::Fault {
                                page: 0,
                                word: 0,
                                write: false,
                            },
                        );
                    }
                }) as ProcBody
            })
            .collect();
        run_procs(&sched, bodies);
        let acquire = LOCK_NS;
        let release = acquire + ACQUIRE_NS;
        assert_eq!(
            *log.lock(),
            vec![
                (0, 0, "lock"),
                (1, 1, "fault"),
                (3, 1, "fault"),
                (acquire, 0, "acquire"),
                (release, 0, "release"),
                (release + RELEASE_NS, 0, "unlock"),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "deterministic scheduler deadlock")]
    fn deadlock_panics_with_diagnostics() {
        // Single proc, no scope: waiting on a flag nobody will ever set
        // makes the coordinator's deadlock panic fire on this very thread.
        let (sched, _) = logged(1, 1, 100);
        let mut ctx = contexts(1).remove(0);
        let h = sched.handle(0);
        h.start();
        ctx.clock.wait_until(5);
        h.run_op(&mut ctx, Op::FlagWait { fl: 0 });
    }

    /// 4 procs on 2 workers, each interleaving settles and faults at
    /// strictly increasing vts (with cross-proc vt ties). With `delegated`
    /// each settle goes through `DetHandle::settle`; otherwise a release op
    /// of the same cost stands in for it. Returns the execution log with
    /// the stand-ins renamed `settle`, and each proc's slot wakes.
    fn run_interleaved(
        delegated: bool,
        quantum: Nanos,
    ) -> (Vec<(Nanos, usize, &'static str)>, Vec<u64>) {
        let (sched, log) = logged(4, 2, quantum);
        let bodies: Vec<ProcBody> = (0..4)
            .map(|p| {
                let log = Arc::clone(&log);
                Box::new(move |h: &DetHandle, ctx: &mut ProcCtx| {
                    for k in 0..40u64 {
                        // Steps of at least 17 ns, so a settle's 10 ns never
                        // overtakes the next event; procs 0/1 and 2/3 tie.
                        let vt = 20 * k + (k + p as u64 / 2) % 4;
                        advance(h, ctx, vt);
                        if (k + p as u64).is_multiple_of(3) {
                            h.run_op(
                                ctx,
                                Op::Fault {
                                    page: 0,
                                    word: 0,
                                    write: true,
                                },
                            );
                        } else if delegated {
                            let req = Settle::Bus {
                                phys: p,
                                busy_ns: RELEASE_NS,
                            };
                            // Logged, not asserted: a panicking proc would
                            // abort its peers' runs too.
                            let done = h.settle(vt, req);
                            if done != vt + RELEASE_NS {
                                log.lock().push((vt, p, "wrong resume time"));
                            }
                            ctx.clock.wait_until(done);
                        } else {
                            h.run_op(ctx, Op::Release);
                        }
                    }
                }) as ProcBody
            })
            .collect();
        run_procs(&sched, bodies);
        let (_, settled, _) = sched.bench_sched_counts();
        assert_eq!(settled > 0, delegated, "settles run in place iff delegated");
        let wakes = (0..4).map(|p| sched.bench_proc_wakes(p)).collect();
        let log = std::mem::take(&mut *log.lock())
            .into_iter()
            .map(|(vt, p, what)| (vt, p, if what == "release" { "settle" } else { what }))
            .collect();
        (log, wakes)
    }

    #[test]
    fn settles_and_ops_run_in_vt_id_order() {
        // A 1 ns quantum admits one vt per window, so every event is issued
        // before any later-vt one runs: the execution log must be exactly
        // the events sorted by (vt, id) — each proc has at most one entry
        // pending, so seq never has to break a tie here.
        let (log, _) = run_interleaved(true, 1);
        assert_eq!(log.len(), 4 * 40);
        let mut sorted = log.clone();
        sorted.sort_unstable_by_key(|&(vt, p, _)| (vt, p));
        assert_eq!(log, sorted);
        assert!(
            log.windows(2).any(|w| w[0].0 == w[1].0),
            "no cross-proc vt tie"
        );
        assert!(
            log.windows(2).any(|w| w[0].2 != w[1].2),
            "kinds never interleave"
        );
        // Delegation changes no decision: settles run as ops log the same.
        assert_eq!(run_interleaved(false, 1).0, log);
    }

    #[test]
    fn each_settle_or_op_wakes_its_proc_at_most_once() {
        // One wide window per 1,000 ns: a settle or a one-gate op runs in
        // place and its proc is woken, at most once, only by the window
        // that readmits it — plus once for the start barrier.
        let (settled_log, settled) = run_interleaved(true, 1_000);
        let (log, ops) = run_interleaved(false, 1_000);
        assert_eq!(log, settled_log, "same bodies, same order");
        for (p, (s, o)) in settled.iter().zip(&ops).enumerate() {
            assert!(
                *s <= 41 && *o <= 41,
                "proc {p}: {s} wakes with settles, {o} with ops, for 40 events"
            );
        }
    }

    /// Slot wakes the contended-lock bodies below took on the scheduler
    /// that handed each gate to its proc's own thread (`gate_enter`/
    /// `gate_exit` pairs, the lock gate retried after `gate_block`): the
    /// minimum of 30 runs on a 2-vCPU x86-64 VM (range 1,192–1,270).
    const HANDOFF_LOCK_WAKES: u64 = 1_192;

    #[test]
    fn contended_lock_wakes_each_proc_at_most_once_per_op() {
        // 4 procs contend for one lock for 40 rounds on 2 workers. Every
        // gate and glue segment of a lock or unlock runs in place, so a
        // proc sleeps at most once per op and is woken once when the op is
        // done (plus once for the start barrier).
        let (sched, log) = logged(4, 2, 1_000);
        let bodies: Vec<ProcBody> = (0..4)
            .map(|p| {
                Box::new(move |h: &DetHandle, ctx: &mut ProcCtx| {
                    for _ in 0..40 {
                        h.run_op(ctx, Op::Lock { l: 0 });
                        ctx.clock.charge(TimeCategory::User, 30);
                        h.run_op(ctx, Op::Unlock { l: 0 });
                        ctx.clock.charge(TimeCategory::User, 7 + p as u64);
                    }
                }) as ProcBody
            })
            .collect();
        run_procs(&sched, bodies);
        assert_eq!(log.lock().iter().filter(|e| e.2 == "lock").count(), 4 * 40);
        let mut total = 0;
        for p in 0..4 {
            let wakes = sched.bench_proc_wakes(p);
            assert!(wakes <= 2 * 40 + 1, "proc {p}: {wakes} wakes for 80 ops");
            total += wakes;
        }
        assert!(
            total < HANDOFF_LOCK_WAKES,
            "{total} wakes, not below the hand-off scheduler's {HANDOFF_LOCK_WAKES}"
        );
    }

    #[test]
    fn single_proc_run_issues_no_notifications() {
        // One proc is always the coordinator of its own windows, ops and
        // settles, so baton passing never has anyone asleep to notify, and
        // nothing is ever lent.
        let (sched, log) = logged(1, 1, 100);
        let bodies: Vec<ProcBody> = vec![Box::new(|h: &DetHandle, ctx: &mut ProcCtx| {
            for i in 0..2_000u64 {
                let vt = ctx.clock.now() + 37;
                advance(h, ctx, vt);
                if i.is_multiple_of(3) {
                    h.run_op(ctx, Op::Lock { l: 0 });
                    h.run_op(ctx, Op::Unlock { l: 0 });
                    h.run_op(ctx, Op::Barrier { b: 0 });
                } else if i.is_multiple_of(5) {
                    let req = Settle::Bus {
                        phys: 0,
                        busy_ns: 7,
                    };
                    let done = h.settle(ctx.clock.now(), req);
                    ctx.clock.wait_until(done);
                } else if i.is_multiple_of(7) {
                    h.run_op(ctx, Op::FlagSet { fl: 0 });
                    h.run_op(ctx, Op::FlagWait { fl: 0 });
                }
            }
        })];
        run_procs(&sched, bodies);
        assert_eq!(sched.bench_wake_counts(), (0, 0));
        let (gates, settled, _) = sched.bench_sched_counts();
        assert!(gates > 0 && settled > 0, "{gates} gates, {settled} settles");
        assert!(
            log.lock().iter().any(|e| e.2 == "cross"),
            "no barrier crossed"
        );
    }

    #[test]
    fn notifications_never_exceed_slot_waits() {
        // 8 procs through windows and a contended carrier lock: each wakeup
        // targets one sleeper, so notifications are bounded by the slot
        // waits entered. A broadcast wakeup would notify every slot per
        // transition and blow through the bound.
        for workers in [1, 2, 8] {
            let (sched, _) = logged(8, workers, 100);
            let bodies: Vec<ProcBody> = (0..8)
                .map(|p| {
                    Box::new(move |h: &DetHandle, ctx: &mut ProcCtx| {
                        for i in 0..100u64 {
                            let vt = ctx.clock.now() + 23 + p as u64;
                            advance(h, ctx, vt);
                            if !(i + p as u64).is_multiple_of(4) {
                                continue;
                            }
                            h.run_op(ctx, Op::Lock { l: 0 });
                            ctx.clock.charge(TimeCategory::User, 40);
                            h.run_op(ctx, Op::Unlock { l: 0 });
                        }
                    }) as ProcBody
                })
                .collect();
            run_procs(&sched, bodies);
            let (notifies, slot_waits) = sched.bench_wake_counts();
            assert!(notifies > 0, "workers={workers}: no proc ever slept");
            assert!(
                notifies <= slot_waits,
                "workers={workers}: {notifies} notifications for {slot_waits} slot waits"
            );
        }
    }

    #[test]
    fn deadlock_wakes_sleeping_peers_into_the_abort() {
        // Procs 0 and 1 wait on a flag nobody sets and sleep in their own
        // slots; proc 2 faults later, then finishes, and its finish is the
        // coordinator step that finds nothing runnable. Every thread must
        // panic with the deadlock diagnosis instead of hanging.
        let (sched, _) = logged(3, 2, 100);
        let bodies: Vec<ProcBody> = (0..3)
            .map(|p| {
                Box::new(move |h: &DetHandle, ctx: &mut ProcCtx| {
                    if p < 2 {
                        ctx.clock.wait_until(5 + p as u64);
                        h.run_op(ctx, Op::FlagWait { fl: 0 });
                    } else {
                        ctx.clock.wait_until(50);
                        h.run_op(
                            ctx,
                            Op::Fault {
                                page: 0,
                                word: 0,
                                write: false,
                            },
                        );
                    }
                }) as ProcBody
            })
            .collect();
        for (p, outcome) in spawn_procs(&sched, bodies).iter().enumerate() {
            let msg = outcome.as_ref().expect_err("proc should have panicked");
            assert!(
                msg.contains("deterministic scheduler deadlock"),
                "proc {p} panicked with {msg:?}"
            );
        }
        let (_, slot_waits) = sched.bench_wake_counts();
        assert!(slot_waits >= 2, "the blocked procs never slept");
        assert_eq!(sched.failed(), None);
    }

    #[test]
    fn a_panic_in_place_is_reraised_on_the_owning_proc() {
        // Procs 1 and 2 wait on flag 0 and sleep with their contexts lent;
        // proc 0 sets it at vt 50, and proc 1's retried wait — run in place
        // on whichever thread coordinates then, never proc 1's own —
        // panics. Proc 1 must re-raise that panic itself, and its peers
        // must abort instead of hanging.
        let mut exec = LogExec::new(3);
        exec.fail = Some((1, "wait"));
        let (sched, _) = logged_with(exec, 2, 1_000);
        let bodies: Vec<ProcBody> = (0..3)
            .map(|p| {
                Box::new(move |h: &DetHandle, ctx: &mut ProcCtx| {
                    if p == 0 {
                        ctx.clock.wait_until(50);
                        h.run_op(ctx, Op::FlagSet { fl: 0 });
                    } else {
                        ctx.clock.wait_until(5 * p as u64);
                        h.run_op(ctx, Op::FlagWait { fl: 0 });
                    }
                }) as ProcBody
            })
            .collect();
        let outcomes = spawn_procs(&sched, bodies);
        assert_eq!(
            outcomes[1],
            Err("injected failure in proc 1's wait".to_owned())
        );
        for p in [0, 2] {
            assert_eq!(
                outcomes[p],
                Err("deterministic scheduler: run aborted: processor 1 panicked".to_owned()),
                "proc {p}"
            );
        }
        assert_eq!(sched.failed(), Some(1));
    }

    #[test]
    fn a_panic_in_a_self_run_op_propagates_on_its_thread() {
        // A lone proc runs its own ops on its own thread: the op's panic
        // surfaces there, unchanged, and names the proc as the failure.
        let mut exec = LogExec::new(1);
        exec.fail = Some((0, "fault"));
        let (sched, _) = logged_with(exec, 1, 100);
        let mut ctx = contexts(1).remove(0);
        let h = sched.handle(0);
        h.start();
        let op = Op::Fault {
            page: 0,
            word: 0,
            write: true,
        };
        let err =
            catch_unwind(AssertUnwindSafe(|| h.run_op(&mut ctx, op))).expect_err("the op panics");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("injected failure in proc 0's fault")
        );
        assert_eq!(sched.failed(), Some(0));
    }
}
