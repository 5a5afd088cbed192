//! Lookahead horizon for the deterministic parallel engine (DESIGN.md §15).
//!
//! Lives next to [`ProcClock`](crate::ProcClock): where the clock answers
//! "how far has this processor advanced?", the [`HorizonClock`] answers "how
//! far may any processor advance before it must park?". The deterministic
//! scheduler (`cashmere-core`'s `det` module) opens execution windows by
//! advancing the horizon one quantum at a time; simulated processors consult
//! it lock-free on every operation entry and park once their virtual time
//! reaches the window end. The scheduler itself sleeps parked processors in
//! per-proc wake slots under its own lock; the sleep-epoch protocol below is
//! for waiters that hold no such lock, and stays model-checked.
//!
//! # The wakeup protocol
//!
//! A parked processor must not miss the horizon advance that releases it
//! (the classic lost-wakeup race: the sleeper checks the horizon, decides to
//! sleep, and the advance lands in between). The protocol is seqlock-style,
//! built from two atomics so the interleaving explorer can model it:
//!
//! * the **advancer** publishes the new horizon *first*, then bumps
//!   `sleep_epoch` (the wakeup broadcast) — [`advance_past`];
//! * the **sleeper** re-reads the horizon *after* capturing the epoch it
//!   will sleep on — [`wait_past`] — so either it observes the new horizon
//!   and returns, or its captured epoch predates the broadcast and the
//!   epoch bump wakes it.
//!
//! Swapping the advancer's two stores loses exactly one interleaving: the
//! sleeper can capture the *post-bump* epoch while still reading the
//! *pre-advance* horizon, then sleep on an epoch that will never change.
//! The `model_lookahead_*` scenarios prove the explorer catches that mutant
//! ([`advance_past_mutant_wake_first`]).
//!
//! Only one thread may advance at a time (in the scheduler that is whoever
//! runs the coordinator, always under the scheduler lock); any number of
//! threads may wait or read concurrently.
//!
//! [`advance_past`]: HorizonClock::advance_past
//! [`wait_past`]: HorizonClock::wait_past
//! [`advance_past_mutant_wake_first`]: HorizonClock::advance_past_mutant_wake_first

use std::sync::atomic::Ordering;

use cashmere_model::ModelAtomicU64;

use crate::time::Nanos;

/// The shared lookahead horizon: an execution-window end in virtual
/// nanoseconds plus the sleep epoch used to wake parked processors.
#[derive(Debug)]
pub struct HorizonClock {
    /// Exclusive end of the current window: a processor at virtual time
    /// `vt` may keep running iff `vt < end`.
    end: ModelAtomicU64,
    /// Bumped after every horizon advance; sleepers wait for it to change.
    sleep_epoch: ModelAtomicU64,
    /// Window granularity: horizons always land on multiples of this.
    quantum: Nanos,
}

impl HorizonClock {
    /// A horizon starting at 0 (everything parks immediately) with the
    /// given window quantum (clamped to at least 1 ns).
    #[must_use]
    pub fn new(quantum: Nanos) -> Self {
        Self {
            end: ModelAtomicU64::new(0),
            sleep_epoch: ModelAtomicU64::new(0),
            quantum: quantum.max(1),
        }
    }

    /// The window quantum.
    #[must_use]
    pub fn quantum(&self) -> Nanos {
        self.quantum
    }

    /// The current window end (exclusive).
    #[must_use]
    pub fn end(&self) -> Nanos {
        self.end.load(Ordering::Acquire)
    }

    /// Whether a processor at `vt` has reached the horizon and must park.
    /// This is the per-operation fast path: a single atomic load.
    #[must_use]
    pub fn past(&self, vt: Nanos) -> bool {
        vt >= self.end()
    }

    /// The current sleep epoch. Sleepers capture it via [`wait_past`]'s
    /// protocol; a change means "a horizon advance happened, re-check".
    #[must_use]
    pub fn sleep_epoch(&self) -> u64 {
        self.sleep_epoch.load(Ordering::Acquire)
    }

    /// Advances the horizon to the next quantum boundary strictly past
    /// `vt` (never retreating), then broadcasts the wakeup by bumping the
    /// sleep epoch. Returns the new window end.
    ///
    /// Single-advancer contract: callers must serialize advances (the
    /// deterministic scheduler's coordinator holds the scheduler lock).
    pub fn advance_past(&self, vt: Nanos) -> Nanos {
        let new_end = self.cover(vt);
        // Horizon first, broadcast second: a sleeper that captured the old
        // epoch re-checks the horizon before sleeping, so it either sees
        // this store or is woken by the bump below.
        self.end.store(new_end, Ordering::Release);
        self.sleep_epoch.fetch_add(1, Ordering::Release);
        new_end
    }

    /// The mutant of [`advance_past`] with the two stores swapped (wakeup
    /// broadcast before the horizon bump). Kept compiled so the
    /// `model_lookahead_*` tests can prove the explorer catches the lost
    /// wakeup this order admits.
    #[doc(hidden)]
    pub fn advance_past_mutant_wake_first(&self, vt: Nanos) -> Nanos {
        let new_end = self.cover(vt);
        self.sleep_epoch.fetch_add(1, Ordering::Release);
        self.end.store(new_end, Ordering::Release);
        new_end
    }

    /// Blocks until the horizon passes `vt`, using `sleep` to wait.
    ///
    /// `sleep(epoch)` must block until [`sleep_epoch`](Self::sleep_epoch)
    /// differs from `epoch` (spurious returns are fine — the loop
    /// re-checks), e.g. a condvar wait; the model scenario passes a
    /// yielding spin.
    pub fn wait_past(&self, vt: Nanos, mut sleep: impl FnMut(u64)) {
        loop {
            if !self.past(vt) {
                return;
            }
            let seen = self.sleep_epoch();
            // Re-check after capturing the epoch: an advance that completed
            // before this load already bumped the epoch, so sleeping on
            // `seen` would never wake for it.
            if !self.past(vt) {
                return;
            }
            sleep(seen);
        }
    }

    /// The smallest quantum multiple strictly past `vt`, floored at the
    /// current end so the horizon never retreats.
    fn cover(&self, vt: Nanos) -> Nanos {
        let target = (vt / self.quantum + 1).saturating_mul(self.quantum);
        self.end().max(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_closed_and_advances_on_quantum_boundaries() {
        let hc = HorizonClock::new(100);
        assert_eq!(hc.end(), 0);
        assert!(hc.past(0));
        assert_eq!(hc.advance_past(0), 100);
        assert!(!hc.past(99));
        assert!(hc.past(100));
        assert_eq!(hc.advance_past(100), 200);
        assert_eq!(hc.advance_past(250), 300);
        // Exact multiples still open a strictly later window.
        assert_eq!(hc.advance_past(300), 400);
    }

    #[test]
    fn never_retreats() {
        let hc = HorizonClock::new(10);
        assert_eq!(hc.advance_past(995), 1000);
        assert_eq!(hc.advance_past(5), 1000);
        assert_eq!(hc.end(), 1000);
    }

    #[test]
    fn quantum_clamped_to_one() {
        let hc = HorizonClock::new(0);
        assert_eq!(hc.quantum(), 1);
        assert_eq!(hc.advance_past(7), 8);
    }

    #[test]
    fn wait_past_returns_without_sleeping_when_open() {
        let hc = HorizonClock::new(100);
        hc.advance_past(50);
        let mut slept = 0;
        hc.wait_past(20, |_| slept += 1);
        assert_eq!(slept, 0);
    }

    #[test]
    fn wait_past_sleeps_until_epoch_change() {
        let hc = HorizonClock::new(100);
        let mut sleeps = Vec::new();
        hc.wait_past(150, |epoch| {
            sleeps.push(epoch);
            // Simulate the advancer landing while we sleep.
            hc.advance_past(150);
        });
        assert_eq!(sleeps, vec![0]);
        assert!(hc.end() > 150);
    }

    #[test]
    fn epoch_bumps_once_per_advance() {
        let hc = HorizonClock::new(100);
        assert_eq!(hc.sleep_epoch(), 0);
        hc.advance_past(0);
        hc.advance_past(100);
        assert_eq!(hc.sleep_epoch(), 2);
    }
}
