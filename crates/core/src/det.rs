//! Deterministic parallel execution inside a run (DESIGN.md §15).
//!
//! A conservative virtual-time scheduler: simulated processors run
//! concurrently on up to `workers` host threads, but only through *local*
//! segments (compute, non-faulting mapped accesses), and only up to the
//! shared lookahead horizon ([`HorizonClock`]). Everything that touches
//! shared protocol state — page faults, release/acquire actions,
//! lock/barrier/flag carriers — is a **gate**: the processor parks and the
//! gate body executes only when every peer is parked, one gate at a time,
//! in ascending `(virtual time, proc id, per-proc seq)` order. A bus or link
//! **settle** is ordered the same way but never handed off: the processor
//! parks with its request ([`Settle`]) and the coordinator runs it in place
//! through the registered [`SettleExec`] when it becomes the earliest
//! pending entry.
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
//! sleeper's thread for `park`/`unpark`), and the lock-free
//! [`HorizonClock`] fast path consulted at every operation entry
//! ([`DetHandle::checkpoint`]). Each transition to `Running` (a window
//! release, a release-queue admission, a gate grant) queues exactly the
//! processor it names, and only if that processor is asleep; the queued
//! wakes are delivered after the mutex is released, and a woken processor
//! returns without re-taking it. Nobody else wakes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use cashmere_sim::{HorizonClock, Nanos};
use parking_lot::{Mutex, MutexGuard};

/// What a blocked processor is waiting on, keyed by carrier pool index.
/// `unblock_all` with the same key re-arms every matching waiter as a
/// pending gate at its original virtual time (with a fresh seq, so re-tries
/// order deterministically after first arrivals).
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
/// in place of a gate (see [`DetHandle::settle`]).
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

/// Runs delegated settles against the shared bus and link state. The
/// engine registers itself ([`DetScheduler::set_settle_exec`]); the
/// coordinator calls it only while every processor is parked, so it may
/// mutate order-sensitive shared state exactly as a gate body may.
pub trait SettleExec: Send + Sync {
    /// Charges `req` at virtual time `vt` and returns the virtual time the
    /// settling processor resumes at (never before `vt`).
    fn run_settle(&self, req: Settle, vt: Nanos) -> Nanos;
}

/// Per-processor scheduler state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    /// Released: free-running a local segment (or executing its gate, if
    /// `granted` names it).
    Running,
    /// Parked at an operation entry at this virtual time (horizon reached,
    /// or re-parked after a gate or settle) — runnable local work pending.
    Parked(Nanos),
    /// Parked at a gate entry: `(vt, seq)`; runs when granted.
    AtGate(Nanos, u64),
    /// Parked at a settle: `(vt, seq)`; the coordinator runs the request
    /// recorded in `DetState::settles` in place, then re-parks it.
    AtSettle(Nanos, u64),
    /// Blocked inside a gate on a carrier; re-armed by `unblock_all`.
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
    /// Per-proc "asleep in its wake slot and not yet woken". Set by the
    /// sleeper before it releases the mutex, cleared by whoever queues its
    /// wake.
    waiting: Vec<bool>,
    /// Released processors that have not parked again (includes the granted
    /// one). All scheduling decisions happen at `runners == 0`.
    runners: usize,
    /// The processor currently granted exclusive gate execution.
    granted: Option<usize>,
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
    /// delivered, slot waits entered, gates granted by hand-off, settles
    /// run in place, windows opened.
    notifies: u64,
    slot_waits: u64,
    grants: u64,
    delegated: u64,
    windows: u64,
}

/// One processor's wake slot: everything a waker touches after the state
/// mutex is released.
#[derive(Debug, Default)]
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
}

/// The conservative virtual-time scheduler for one run.
pub struct DetScheduler {
    state: Mutex<DetState>,
    /// One wake slot per processor: proc `p` sleeps only on `slots[p]`,
    /// and only its own release or grant wakes it.
    slots: Vec<Slot>,
    horizon: HorizonClock,
    nprocs: usize,
    workers: usize,
    /// Runs delegated settles; registered before the run starts.
    settle_exec: OnceLock<Arc<dyn SettleExec>>,
    /// Set when the coordinator detects a deadlock; every waiter converts
    /// its wait into a panic so the run aborts instead of hanging.
    aborted: AtomicBool,
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
                waiting: vec![false; nprocs],
                runners: nprocs,
                granted: None,
                release_queue: VecDeque::with_capacity(nprocs),
                parked: Vec::with_capacity(nprocs),
                wake_head: NO_PROC,
                wake_tail: NO_PROC,
                finished: 0,
                notifies: 0,
                slot_waits: 0,
                grants: 0,
                delegated: 0,
                windows: 0,
            }),
            slots: (0..nprocs).map(|_| Slot::default()).collect(),
            horizon: HorizonClock::new(quantum_ns),
            nprocs,
            workers: workers.max(1),
            settle_exec: OnceLock::new(),
            aborted: AtomicBool::new(false),
        }
    }

    /// Registers the executor the coordinator runs delegated settles
    /// through. Must precede the first settle; later calls are ignored.
    pub fn set_settle_exec(&self, exec: Arc<dyn SettleExec>) {
        let _ = self.settle_exec.set(exec);
    }

    /// The worker bound.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
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
        debug_assert_ne!(st.granted, Some(me), "park inside a gate body");
        st.procs[me] = PState::Parked(vt);
        self.retire_runner(&mut st);
        self.unlock_and_wait(me, st);
    }

    /// Parks `me` as a pending gate and blocks until the coordinator grants
    /// it exclusive execution.
    fn gate_enter(&self, me: usize, vt: Nanos) {
        let mut st = self.state.lock();
        debug_assert_ne!(st.granted, Some(me), "nested gate");
        st.seq[me] += 1;
        st.procs[me] = PState::AtGate(vt, st.seq[me]);
        self.retire_runner(&mut st);
        self.unlock_and_wait(me, st);
    }

    /// Ends `me`'s gate: re-parks at the (possibly advanced) virtual time
    /// and blocks until readmitted to a window.
    fn gate_exit(&self, me: usize, vt: Nanos) {
        let mut st = self.state.lock();
        debug_assert_eq!(st.granted, Some(me), "gate_exit outside a gate");
        st.granted = None;
        st.procs[me] = PState::Parked(vt);
        self.retire_runner(&mut st);
        self.unlock_and_wait(me, st);
    }

    /// Parks `me` with a settle request at `vt`, ordered like a gate; the
    /// coordinator runs it in place and re-parks `me` at the resume time.
    /// Blocks until readmitted to a window and returns that resume time.
    fn settle(&self, me: usize, vt: Nanos, req: Settle) -> Nanos {
        let mut st = self.state.lock();
        debug_assert_ne!(st.granted, Some(me), "settle inside a gate body");
        st.seq[me] += 1;
        st.procs[me] = PState::AtSettle(vt, st.seq[me]);
        st.settles[me] = req;
        self.retire_runner(&mut st);
        self.unlock_and_wait(me, st);
        self.slots[me].settled.load(Ordering::Acquire)
    }

    /// From inside `me`'s gate: gives up the grant, blocks on `key`, and
    /// returns once re-granted (after some peer's gate called
    /// [`unblock_all`](Self::unblock_all) and the coordinator re-selected
    /// `me`). The caller loops: re-check the carrier, block again if still
    /// unavailable.
    fn gate_block(&self, me: usize, vt: Nanos, key: WaitKey) {
        let mut st = self.state.lock();
        debug_assert_eq!(st.granted, Some(me), "gate_block outside a gate");
        st.granted = None;
        st.procs[me] = PState::Blocked(vt, key);
        self.retire_runner(&mut st);
        self.unlock_and_wait(me, st);
    }

    /// From inside a gate: re-arms every processor blocked on `key` as a
    /// pending gate at its original virtual time with a fresh seq. The
    /// grants happen later, one at a time, once the unblocker's gate ends.
    fn unblock_all(&self, key: WaitKey) {
        let mut st = self.state.lock();
        debug_assert!(st.granted.is_some(), "unblock_all outside a gate");
        for p in 0..self.nprocs {
            if let PState::Blocked(vt, k) = st.procs[p] {
                if k == key {
                    st.seq[p] += 1;
                    st.procs[p] = PState::AtGate(vt, st.seq[p]);
                }
            }
        }
    }

    /// Marks `me` finished and hands its slot on.
    fn finish(&self, me: usize) {
        let mut st = self.state.lock();
        debug_assert_ne!(st.granted, Some(me), "finish inside a gate body");
        st.procs[me] = PState::Finished;
        st.finished += 1;
        self.retire_runner(&mut st);
        let wakes = Self::take_wakes(&mut st);
        drop(st);
        self.deliver(wakes);
    }

    /// One released processor has parked (in whatever state the caller just
    /// recorded): refill its worker slot from the release queue, and run the
    /// coordinator if it was the last runner.
    fn retire_runner(&self, st: &mut DetState) {
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
            self.coordinate(st);
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
    /// parked. Everything here is a pure function of the parked multiset.
    fn coordinate(&self, st: &mut DetState) {
        debug_assert_eq!(st.runners, 0);
        debug_assert!(st.granted.is_none());
        debug_assert!(st.release_queue.is_empty());

        // 1. Drain pending gates and settles, earliest (vt, id, seq) first.
        // A settle runs right here, with every peer parked, and leaves its
        // proc re-parked at the resume time: the same state, at the same
        // point, as a gate granted at (vt, seq) whose body ran the settle
        // and exited at that time, so every later decision is unchanged.
        while let Some((vt, p, _)) = Self::next_pending(st) {
            if let PState::AtSettle(..) = st.procs[p] {
                let exec = self
                    .settle_exec
                    .get()
                    .expect("a settle executor is registered before the run");
                let resume = exec.run_settle(st.settles[p], vt).max(vt);
                self.slots[p].settled.store(resume, Ordering::Release);
                st.procs[p] = PState::Parked(resume);
                st.delegated += 1;
                continue;
            }
            st.granted = Some(p);
            st.procs[p] = PState::Running;
            st.runners = 1;
            st.grants += 1;
            self.wake(st, p);
            return;
        }

        // 2. No gates pending: open the next window over the parked set.
        let mut parked = std::mem::take(&mut st.parked);
        parked.clear();
        parked.extend((0..self.nprocs).filter_map(|p| match st.procs[p] {
            PState::Parked(vt) => Some((vt, p)),
            _ => None,
        }));
        if parked.is_empty() {
            if st.finished == self.nprocs {
                st.parked = parked;
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
        for &(vt, p) in &parked {
            if vt >= end {
                // Beyond the window: stays parked for a later one.
                continue;
            }
            if st.runners < self.workers {
                st.procs[p] = PState::Running;
                st.runners += 1;
                self.wake(st, p);
            } else {
                st.release_queue.push_back(p);
            }
        }
        debug_assert!(st.runners > 0, "window covers no parked processor");
        st.parked = parked;
    }

    /// Passes the baton to `p` (just made `Running` or granted): queues its
    /// wake if, and only if, `p` is asleep. Delivery waits for the unlock.
    fn wake(&self, st: &mut DetState, p: usize) {
        if !st.waiting[p] {
            return;
        }
        st.waiting[p] = false;
        st.notifies += 1;
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
    /// scheduler entry they slowed its gate-heavy cells (`seq-1x1` median pass 7% over the parent on a
    /// 2-vCPU x86-64 VM; 4% out of line, with an equal best pass).
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
    /// `Running`, marks it asleep; then releases the mutex, delivers the
    /// queued wakes, and sleeps until `me`'s own wake. A waker queues `me`
    /// only after making it `Running` (released, or granted its gate), so
    /// the woken sleeper returns without re-taking the mutex. The
    /// coordinator releases only processors below the new window end, so
    /// `Running` after a park implies the horizon has passed `me`'s vt.
    fn unlock_and_wait(&self, me: usize, mut st: MutexGuard<'_, DetState>) {
        let asleep = st.procs[me] != PState::Running;
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
    }

    /// Sleeps until `me`'s `go` flag is set (spurious unparks loop).
    #[inline(never)]
    fn sleep(&self, me: usize) {
        let slot = &self.slots[me];
        loop {
            self.check_abort();
            if slot.go.swap(false, Ordering::Acquire) {
                return;
            }
            std::thread::park();
        }
    }

    fn check_abort(&self) {
        assert!(
            !self.aborted.load(Ordering::SeqCst),
            "deterministic scheduler deadlock: run aborted by the coordinator"
        );
    }

    /// No gate pending, nobody parked, not everyone finished: the remaining
    /// processors are blocked on carriers nobody will ever signal. Unpark
    /// every sleeper into a panic (instead of hanging the run) and report
    /// who waits on what. No wake is queued at this point: the refill and
    /// step 1 found nothing to release.
    fn abort_deadlocked(&self, st: &DetState) -> ! {
        self.aborted.store(true, Ordering::SeqCst);
        for slot in &self.slots {
            if let Some(t) = slot.thread.get() {
                t.unpark();
            }
        }
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
    /// deadlock abort's wake-everyone is not counted). Never part of a
    /// `Report`.
    #[doc(hidden)]
    #[must_use]
    pub fn bench_wake_counts(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.notifies, st.slot_waits)
    }

    /// Host-side scheduling accounting so far: `(gates granted by
    /// hand-off, settles run in place by the coordinator, windows opened)`.
    /// Never part of a `Report`.
    #[doc(hidden)]
    #[must_use]
    pub fn bench_sched_counts(&self) -> (u64, u64, u64) {
        let st = self.state.lock();
        (st.grants, st.delegated, st.windows)
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

    /// Enters a gate at `vt`: blocks until every peer is parked and this
    /// processor's `(vt, id, seq)` is the earliest pending gate.
    pub fn gate_enter(&self, vt: Nanos) {
        self.sched.gate_enter(self.id, vt);
    }

    /// Leaves the current gate at `vt` (clock may have advanced inside) and
    /// blocks until readmitted to a window.
    pub fn gate_exit(&self, vt: Nanos) {
        self.sched.gate_exit(self.id, vt);
    }

    /// Settles `req` at `vt`: ordered exactly like a gate at `vt`, but run
    /// by the coordinator in place of a grant hand-off. Blocks until
    /// readmitted to a window and returns the resume time the
    /// [`SettleExec`] reported.
    pub fn settle(&self, vt: Nanos, req: Settle) -> Nanos {
        self.sched.settle(self.id, vt, req)
    }

    /// From inside a gate: block on `key` until re-granted after a peer's
    /// `unblock_all(key)`.
    pub fn gate_block(&self, vt: Nanos, key: WaitKey) {
        self.sched.gate_block(self.id, vt, key);
    }

    /// From inside a gate: re-arm every processor blocked on `key`.
    pub fn unblock_all(&self, key: WaitKey) {
        self.sched.unblock_all(key);
    }

    /// Marks this processor finished.
    pub fn finish(&self) {
        self.sched.finish(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type ProcBody = Box<dyn FnOnce(&DetHandle) + Send>;

    fn run_procs(sched: &Arc<DetScheduler>, bodies: Vec<ProcBody>) {
        std::thread::scope(|s| {
            for (id, body) in bodies.into_iter().enumerate() {
                let h = sched.handle(id);
                s.spawn(move || {
                    h.start();
                    body(&h);
                    h.finish();
                });
            }
        });
    }

    #[test]
    fn windows_release_all_procs_regardless_of_worker_bound() {
        for workers in [1, 2, 8] {
            let sched = Arc::new(DetScheduler::new(4, workers, 100));
            let bodies: Vec<ProcBody> = (0..4)
                .map(|p| {
                    Box::new(move |h: &DetHandle| {
                        let mut vt = 0;
                        for _ in 0..10 {
                            vt += 30 + p as u64;
                            h.checkpoint(vt);
                        }
                    }) as Box<dyn FnOnce(&DetHandle) + Send>
                })
                .collect();
            run_procs(&sched, bodies);
        }
    }

    #[test]
    fn gates_serialize_in_vt_id_order() {
        let sched = Arc::new(DetScheduler::new(3, 8, 1_000));
        let log = Arc::new(Mutex::new(Vec::new()));
        let bodies: Vec<ProcBody> = (0..3)
            .map(|p| {
                let log = Arc::clone(&log);
                Box::new(move |h: &DetHandle| {
                    // Proc p gates at vt 30-p: higher ids carry earlier vts,
                    // so the grant order must be exactly reversed.
                    let vt = 30 - p as u64;
                    h.gate_enter(vt);
                    log.lock().push(p);
                    h.gate_exit(vt);
                }) as Box<dyn FnOnce(&DetHandle) + Send>
            })
            .collect();
        run_procs(&sched, bodies);
        assert_eq!(*log.lock(), vec![2, 1, 0]);
    }

    #[test]
    fn blocked_procs_reacquire_in_vt_order() {
        // A 1-slot "carrier" lock: procs 1 and 2 block until proc 0's gate
        // releases it; proc 1 (earlier gate vt) must win the re-grant race,
        // and proc 2 acquires only after proc 1 releases in turn.
        let sched = Arc::new(DetScheduler::new(3, 8, 1_000));
        let held = Arc::new(Mutex::new(true));
        let log = Arc::new(Mutex::new(Vec::new()));
        let bodies: Vec<ProcBody> = (0..3)
            .map(|p| {
                let held = Arc::clone(&held);
                let log = Arc::clone(&log);
                Box::new(move |h: &DetHandle| {
                    if p == 0 {
                        // Initial holder: release inside a later gate.
                        h.gate_enter(50);
                        *held.lock() = false;
                        h.unblock_all(WaitKey::Lock(0));
                        h.gate_exit(50);
                        return;
                    }
                    let vt = 10 * p as u64; // proc 1 at 10, proc 2 at 20
                    h.gate_enter(vt);
                    loop {
                        let mut s = held.lock();
                        if !*s {
                            *s = true;
                            drop(s);
                            log.lock().push(p);
                            break;
                        }
                        drop(s);
                        h.gate_block(vt, WaitKey::Lock(0));
                    }
                    h.gate_exit(vt);
                    // Release in a second gate so the other waiter can run.
                    h.gate_enter(vt + 5);
                    *held.lock() = false;
                    h.unblock_all(WaitKey::Lock(0));
                    h.gate_exit(vt + 5);
                }) as Box<dyn FnOnce(&DetHandle) + Send>
            })
            .collect();
        run_procs(&sched, bodies);
        assert_eq!(*log.lock(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "deterministic scheduler deadlock")]
    fn deadlock_panics_with_diagnostics() {
        // Single proc, no scope: blocking on a flag nobody will ever set
        // makes the coordinator's deadlock panic fire on this very thread.
        let sched = Arc::new(DetScheduler::new(1, 1, 100));
        let h = sched.handle(0);
        h.start();
        h.gate_enter(5);
        h.gate_block(5, WaitKey::Flag(0));
    }

    /// Who ran what, in execution order: `(vt, proc, kind)`.
    type EventLog = Arc<Mutex<Vec<(Nanos, usize, &'static str)>>>;

    /// A settle executor that logs each request (its `phys` names the
    /// proc) and resumes the proc `busy_ns` later.
    struct LogExec(EventLog);

    impl SettleExec for LogExec {
        fn run_settle(&self, req: Settle, vt: Nanos) -> Nanos {
            let Settle::Bus { phys, busy_ns } = req else {
                unreachable!("the tests settle only on the bus")
            };
            self.0.lock().push((vt, phys, "settle"));
            vt + busy_ns
        }
    }

    const SETTLE_NS: Nanos = 3;

    /// 4 procs on 2 workers, each interleaving settles and gates at
    /// strictly increasing vts (with cross-proc vt ties). With `delegated`
    /// each settle goes through `DetHandle::settle`; otherwise the same
    /// body runs inside a `gate_enter`/`gate_exit` pair. Returns the
    /// execution log and the number of slot notifications issued.
    fn run_interleaved(
        delegated: bool,
        quantum: Nanos,
    ) -> (Vec<(Nanos, usize, &'static str)>, u64) {
        let sched = Arc::new(DetScheduler::new(4, 2, quantum));
        let log: EventLog = Arc::new(Mutex::new(Vec::new()));
        sched.set_settle_exec(Arc::new(LogExec(Arc::clone(&log))));
        let bodies: Vec<ProcBody> = (0..4)
            .map(|p| {
                let log = Arc::clone(&log);
                Box::new(move |h: &DetHandle| {
                    for k in 0..40u64 {
                        // Steps of at least 7 ns, so a settle's 3 ns never
                        // overtakes the next event; procs 0/1 and 2/3 tie.
                        let vt = 10 * k + (k + p as u64 / 2) % 4;
                        h.checkpoint(vt);
                        if !(k + p as u64).is_multiple_of(3) {
                            let req = Settle::Bus {
                                phys: p,
                                busy_ns: SETTLE_NS,
                            };
                            if delegated {
                                // Logged, not asserted: a panicking proc
                                // would leave its peers parked forever.
                                if h.settle(vt, req) != vt + SETTLE_NS {
                                    log.lock().push((vt, p, "wrong resume time"));
                                }
                            } else {
                                h.gate_enter(vt);
                                log.lock().push((vt, p, "settle"));
                                h.gate_exit(vt + SETTLE_NS);
                            }
                        } else {
                            h.gate_enter(vt);
                            log.lock().push((vt, p, "gate"));
                            h.gate_exit(vt);
                        }
                    }
                }) as ProcBody
            })
            .collect();
        run_procs(&sched, bodies);
        let (notifies, _) = sched.bench_wake_counts();
        let (_, settled, _) = sched.bench_sched_counts();
        assert_eq!(settled > 0, delegated, "settles run in place iff delegated");
        let log = std::mem::take(&mut *log.lock());
        (log, notifies)
    }

    #[test]
    fn settles_and_gates_run_in_vt_id_order() {
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
        // Delegation changes no decision: gate-wrapped settles log the same.
        assert_eq!(run_interleaved(false, 1).0, log);
    }

    #[test]
    fn delegated_settles_issue_fewer_notifications_than_gate_pairs() {
        // One wide window per 1,000 ns: every round of settles is drained in
        // one coordinator step when delegated, while gate pairs hand the
        // grant to each settling proc in turn.
        let (gated_log, gated) = run_interleaved(false, 1_000);
        let (log, delegated) = run_interleaved(true, 1_000);
        assert_eq!(log, gated_log, "same bodies, same order");
        assert!(
            delegated < gated,
            "{delegated} notifications delegated vs {gated} with gate pairs"
        );
    }

    #[test]
    fn single_proc_run_issues_no_notifications() {
        // One proc is always the coordinator of its own windows, grants and
        // settles, so baton passing never has anyone asleep to notify.
        let sched = Arc::new(DetScheduler::new(1, 1, 100));
        sched.set_settle_exec(Arc::new(LogExec(Arc::default())));
        let bodies: Vec<ProcBody> = vec![Box::new(|h: &DetHandle| {
            let mut vt = 0;
            for i in 0..2_000u64 {
                vt += 37;
                h.checkpoint(vt);
                if i.is_multiple_of(3) {
                    h.gate_enter(vt);
                    vt += 11;
                    h.gate_exit(vt);
                } else if i.is_multiple_of(5) {
                    let req = Settle::Bus {
                        phys: 0,
                        busy_ns: 7,
                    };
                    vt = h.settle(vt, req);
                }
            }
        })];
        run_procs(&sched, bodies);
        assert_eq!(sched.bench_wake_counts(), (0, 0));
        assert!(sched.bench_sched_counts().1 > 0, "no settle ran");
    }

    #[test]
    fn notifications_never_exceed_slot_waits() {
        // 8 procs through windows, gates and a contended carrier lock: each
        // wakeup targets one sleeper, so notifications are bounded by the
        // slot waits entered. A broadcast wakeup would notify every slot
        // per transition and blow through the bound.
        for workers in [1, 2, 8] {
            let sched = Arc::new(DetScheduler::new(8, workers, 100));
            let held = Arc::new(Mutex::new(false));
            let bodies: Vec<ProcBody> = (0..8)
                .map(|p| {
                    let held = Arc::clone(&held);
                    Box::new(move |h: &DetHandle| {
                        let mut vt = 0;
                        for i in 0..100u64 {
                            vt += 23 + p as u64;
                            h.checkpoint(vt);
                            if !(i + p as u64).is_multiple_of(4) {
                                continue;
                            }
                            h.gate_enter(vt);
                            loop {
                                let mut s = held.lock();
                                if !*s {
                                    *s = true;
                                    break;
                                }
                                drop(s);
                                h.gate_block(vt, WaitKey::Lock(0));
                            }
                            h.gate_exit(vt);
                            vt += 40;
                            h.gate_enter(vt);
                            *held.lock() = false;
                            h.unblock_all(WaitKey::Lock(0));
                            h.gate_exit(vt);
                        }
                    }) as Box<dyn FnOnce(&DetHandle) + Send>
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
        // Procs 0 and 1 block on a flag nobody sets and sleep in their own
        // slots; proc 2 gates later, then finishes, and its finish is the
        // coordinator step that finds nothing runnable. Every thread must
        // panic with the deadlock diagnosis instead of hanging.
        let sched = Arc::new(DetScheduler::new(3, 2, 100));
        let outcomes: Vec<Result<(), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|p| {
                    let h = sched.handle(p);
                    s.spawn(move || {
                        h.start();
                        if p < 2 {
                            let vt = 5 + p as u64;
                            h.gate_enter(vt);
                            h.gate_block(vt, WaitKey::Flag(0));
                            h.gate_exit(vt);
                        } else {
                            h.gate_enter(50);
                            h.gate_exit(50);
                        }
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
        });
        for (p, outcome) in outcomes.iter().enumerate() {
            let msg = outcome.as_ref().expect_err("proc should have panicked");
            assert!(
                msg.contains("deterministic scheduler deadlock"),
                "proc {p} panicked with {msg:?}"
            );
        }
        let (_, slot_waits) = sched.bench_wake_counts();
        assert!(slot_waits >= 2, "the blocked procs never slept");
    }
}
