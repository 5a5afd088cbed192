//! The shared app × protocol × fault-plan sweep driver.
//!
//! Every `gate` phase that loops over applications, protocols and fault
//! plans (with best-of-`reps` timing) is a thin loop over [`run_sweep`].
//! A sweep is described by a [`SweepSpec`]; every completed cell is
//! delivered to the caller's callback as it finishes (for progress
//! printing) and returned in deterministic iteration order — apps
//! outermost, then protocols, then plans. Matrices that are not
//! app × protocol × plan (the scaling ladder) share the same bounded
//! worker pool through [`run_ordered`].
//!
//! Fault plans are *rebuilt from the seed for every repetition*
//! ([`SweepPlan::build`] is a constructor, not a shared plan): a
//! [`FaultPlan`] accumulates injection statistics, so sharing one across
//! cells would conflate their fault counts and perturb the per-cell
//! schedules.
//!
//! Cells fan out across a bounded worker pool sized by `CASHMERE_JOBS`
//! (default: available parallelism; `1` restores the serial loop). Each
//! cell's virtual-time result is deterministic regardless of host
//! interleaving — the golden gates prove it byte-for-byte — so only
//! wall-clock *measurement* needs serialization, which the wallclock phase
//! gets by pinning its timed sweep to one job via [`run_sweep_with_jobs`]. The
//! callback still fires in deterministic iteration order (apps outermost,
//! then protocols, then plans): finished cells are buffered and released
//! only when every earlier cell has been delivered.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use cashmere_apps::{AppOutcome, Benchmark};
use cashmere_core::{FaultPlan, ProtocolKind, TraceEvent};

use crate::{run_with, RunOpts};

/// One fault-plan flavor in a sweep. [`SweepPlan::NONE`] is the fault-free
/// pass every plain sweep runs.
#[derive(Clone, Copy)]
pub struct SweepPlan {
    /// Flavor label, echoed into [`Cell::plan`] (empty for [`Self::NONE`]).
    pub name: &'static str,
    /// Plan constructor, called with the sweep seed once per repetition;
    /// `None` runs fault-free.
    pub build: Option<fn(u64) -> FaultPlan>,
}

impl SweepPlan {
    /// The fault-free pass.
    pub const NONE: SweepPlan = SweepPlan {
        name: "",
        build: None,
    };
}

/// Everything that defines one sweep.
pub struct SweepSpec<'a> {
    /// Applications, outermost loop.
    pub apps: &'a [Box<dyn Benchmark>],
    /// Protocols per application.
    pub protocols: &'a [ProtocolKind],
    /// Total processors.
    pub total: usize,
    /// Processes per node.
    pub per_node: usize,
    /// Per-run options (directory/messaging/instrumentation/observability).
    pub opts: RunOpts,
    /// Repetitions per cell; the best (smallest wall-clock) one is kept.
    pub reps: usize,
    /// Record the protocol event trace for `cashmere_check::audit`.
    pub audit: bool,
    /// Fault-plan seed, passed to every [`SweepPlan::build`].
    pub seed: u64,
    /// Fault-plan flavors, innermost loop; empty means one fault-free pass
    /// per (app, protocol).
    pub plans: &'a [SweepPlan],
}

impl<'a> SweepSpec<'a> {
    /// A fault-free single-repetition sweep with default options.
    #[must_use]
    pub fn new(apps: &'a [Box<dyn Benchmark>], protocols: &'a [ProtocolKind]) -> Self {
        Self {
            apps,
            protocols,
            total: 4,
            per_node: 2,
            opts: RunOpts::default(),
            reps: 1,
            audit: false,
            seed: 0,
            plans: &[],
        }
    }
}

/// One completed sweep cell: the best-of-`reps` outcome plus its trace and
/// wall-clock time.
pub struct Cell {
    /// Application name.
    pub app: String,
    /// Protocol run.
    pub protocol: ProtocolKind,
    /// Fault-plan flavor (empty when fault-free).
    pub plan: &'static str,
    /// The winning repetition's outcome (checksum, report, `Report::obs`).
    pub outcome: AppOutcome,
    /// The winning repetition's protocol event trace (empty unless
    /// [`SweepSpec::audit`]).
    pub trace: Vec<TraceEvent>,
    /// The winning repetition's wall-clock seconds.
    pub wall_secs: f64,
}

/// Worker count from `CASHMERE_JOBS` (default: available parallelism).
pub fn jobs_from_env() -> usize {
    match std::env::var("CASHMERE_JOBS") {
        Ok(v) => v.trim().parse().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Runs one cell: best-of-`reps` over fresh per-repetition fault plans.
fn run_cell(
    spec: &SweepSpec<'_>,
    app: &dyn Benchmark,
    protocol: ProtocolKind,
    flavor: &SweepPlan,
) -> Cell {
    let mut best: Option<Cell> = None;
    for _ in 0..spec.reps.max(1) {
        let plan = flavor.build.map(|build| Arc::new(build(spec.seed)));
        let t = Instant::now();
        let (outcome, trace) = run_with(
            app,
            protocol,
            spec.total,
            spec.per_node,
            spec.opts,
            plan,
            spec.audit,
        );
        let wall_secs = t.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|b| wall_secs < b.wall_secs) {
            best = Some(Cell {
                app: app.name().to_string(),
                protocol,
                plan: flavor.name,
                outcome,
                trace,
                wall_secs,
            });
        }
    }
    best.expect("reps >= 1")
}

/// Runs the sweep, invoking `on_cell` as each cell completes, and returns
/// every cell in iteration order. Worker count comes from `CASHMERE_JOBS`
/// (see [`jobs_from_env`]); callbacks are delivered in iteration order
/// regardless of which worker finishes first.
pub fn run_sweep(spec: &SweepSpec<'_>, on_cell: impl FnMut(&Cell)) -> Vec<Cell> {
    run_sweep_with_jobs(spec, jobs_from_env(), on_cell)
}

/// [`run_sweep`] with an explicit worker count. `jobs <= 1` runs the exact
/// sequential loop (used by the wallclock phase's timed sweep so measured
/// numbers never share the host with a sibling cell).
pub fn run_sweep_with_jobs(
    spec: &SweepSpec<'_>,
    jobs: usize,
    on_cell: impl FnMut(&Cell),
) -> Vec<Cell> {
    let fault_free = [SweepPlan::NONE];
    let plans = if spec.plans.is_empty() {
        &fault_free[..]
    } else {
        spec.plans
    };
    // Flatten the triple loop into the deterministic iteration order the
    // callers (and the golden gates) rely on.
    let combos: Vec<(&dyn Benchmark, ProtocolKind, &SweepPlan)> = spec
        .apps
        .iter()
        .flat_map(|app| {
            spec.protocols.iter().flat_map(move |&protocol| {
                plans
                    .iter()
                    .map(move |flavor| (app.as_ref(), protocol, flavor))
            })
        })
        .collect();
    run_ordered(
        &combos,
        jobs,
        |&(app, protocol, flavor)| run_cell(spec, app, protocol, flavor),
        on_cell,
    )
}

/// Runs `work` on every item over up to `jobs` scoped host workers and
/// returns the results in item order. `on_done` fires in item order too:
/// finished results are buffered until every earlier one has been
/// delivered. `jobs <= 1` runs the plain sequential loop.
pub fn run_ordered<I: Sync, R: Send>(
    items: &[I],
    jobs: usize,
    work: impl Fn(&I) -> R + Sync,
    mut on_done: impl FnMut(&R),
) -> Vec<R> {
    if jobs <= 1 || items.len() <= 1 {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let r = work(item);
            on_done(&r);
            out.push(r);
        }
        return out;
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        for _ in 0..jobs.min(items.len()) {
            let tx = tx.clone();
            let (next, work) = (&next, &work);
            s.spawn(move || loop {
                // relaxed-ok: work-stealing index; claims only need to be
                // unique, which single-location RMW coherence guarantees,
                // and results travel through the channel's own ordering.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                if tx.send((i, work(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Release finished results strictly in item order: buffer
        // out-of-order completions until the prefix is contiguous.
        for (i, r) in rx {
            slots[i] = Some(r);
            while let Some(r) = slots.get_mut(out.len()).and_then(Option::take) {
                on_done(&r);
                out.push(r);
            }
        }
    });
    assert_eq!(out.len(), slots.len(), "every item must complete");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_apps::{suite, Scale};
    use cashmere_core::{FaultKind, FaultRule};

    #[test]
    fn sweep_covers_the_full_matrix_in_order() {
        let apps = suite(Scale::Test);
        let apps = &apps[..2];
        let protocols = [ProtocolKind::TwoLevel, ProtocolKind::OneLevelDiff];
        let mut seen = Vec::new();
        let cells = run_sweep(&SweepSpec::new(apps, &protocols), |c| {
            seen.push((c.app.clone(), c.protocol));
        });
        assert_eq!(cells.len(), 4);
        assert_eq!(
            seen,
            cells
                .iter()
                .map(|c| (c.app.clone(), c.protocol))
                .collect::<Vec<_>>()
        );
        assert_eq!(seen[0].0, apps[0].name());
        assert_eq!(seen[0].1, ProtocolKind::TwoLevel);
        assert_eq!(seen[1].1, ProtocolKind::OneLevelDiff);
        for c in &cells {
            assert_eq!(c.plan, "");
            assert!(c.outcome.report.exec_ns > 0);
            assert!(c.trace.is_empty(), "no audit requested");
        }
    }

    /// Forcing 4 workers must deliver callbacks in the same deterministic
    /// iteration order as the serial loop, with every cell computing the
    /// same answer — the parallel executor only changes host scheduling,
    /// never what a cell computes or the order it is reported. (Per-cell
    /// virtual time already varies with thread interleaving inside a single
    /// run, parallel or not; the *sequential* goldens are what the byte
    /// gates pin.)
    #[test]
    fn parallel_executor_matches_serial_order_and_results() {
        let apps = suite(Scale::Test);
        let apps = &apps[..3];
        let protocols = [ProtocolKind::TwoLevel, ProtocolKind::OneLevelDiff];
        let spec = SweepSpec::new(apps, &protocols);
        let mut serial_seen = Vec::new();
        let serial = run_sweep_with_jobs(&spec, 1, |c| {
            serial_seen.push((c.app.clone(), c.protocol));
        });
        let mut par_seen = Vec::new();
        let parallel = run_sweep_with_jobs(&spec, 4, |c| {
            par_seen.push((c.app.clone(), c.protocol));
        });
        assert_eq!(serial_seen, par_seen, "callback order must match serial");
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.app, p.app);
            assert_eq!(s.protocol, p.protocol);
            assert_eq!(s.outcome.checksum, p.outcome.checksum, "{}", s.app);
            assert!(p.outcome.report.exec_ns > 0);
        }
    }

    #[test]
    fn plans_are_rebuilt_per_cell_and_obs_threads_through() {
        let apps = suite(Scale::Test);
        let apps = &apps[..1];
        let protocols = [ProtocolKind::TwoLevel];
        let plans = [SweepPlan {
            name: "lossy",
            build: Some(|seed| {
                FaultPlan::new(seed).with_rule(FaultRule::new(FaultKind::DropWrite, 0.2))
            }),
        }];
        let mut spec = SweepSpec::new(apps, &protocols);
        spec.opts.obs = true;
        spec.audit = true;
        spec.seed = 7;
        spec.plans = &plans;
        let cells = run_sweep(&spec, |_| {});
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert_eq!(c.plan, "lossy");
        assert!(!c.trace.is_empty(), "audit recorded a trace");
        assert!(
            c.outcome.report.recovery.faults_total() > 0,
            "fresh per-cell plan injected faults"
        );
        let obs = c.outcome.report.obs.as_ref().expect("obs requested");
        assert_eq!(
            obs.fig7.total(),
            c.outcome.report.breakdown.total(),
            "Figure-7 identity holds under the sweep"
        );
    }
}
