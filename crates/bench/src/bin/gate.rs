//! The one gate binary (`CHECK_*` stages of `scripts/check.sh`).
//!
//! ```text
//! gate <wallclock|soak|obs|service|scaling|detpar|xbackend|all>... [--seed N] [SHAPE...]
//! ```
//!
//! Each phase is a plain function over a shared [`Ctx`]; phases run in the
//! order listed above whatever order they are named in, and the process
//! exits nonzero if any check of any phase failed. Each phase writes its
//! `BENCH_<phase>.json` through [`Ctx::write_bench`], which stamps
//! `experiment`, `seed`, `jobs` and `failures` around the phase's fields.
//!
//! **Goldens.** The deterministic virtual-time goldens
//! (`cashmere_bench::golden`) are regenerated at most three times per
//! process: one plain pass shared by every phase that preflights against
//! `results/vt_golden.jsonl` and the `table2` sequential rows, soak's
//! audited pass with an installed-but-empty fault plan, and obs's pass with
//! observability on (compared with the shared plain pass and the committed
//! file).
//!
//! **Phases.**
//! * `wallclock` — golden preflight; times the 32:4 suite (eight apps × the
//!   four paper protocols), best of `WALLCLOCK_REPS` (default 3), on one
//!   job; compares against `results/wallclock_baseline.jsonl`; fails if the
//!   geomean speedup drops below the committed `BENCH_wallclock.json`
//!   geomean × (1 − 0.25). `WALLCLOCK_BASELINE=1` captures instead: it
//!   rewrites the goldens and the wall-clock baseline.
//! * `soak` — empty-plan golden identity with clean audits, then the
//!   fixed-seed fault matrix (suite × {2L, 1LD} × three plans at 4:2).
//! * `obs` — charge-free golden identity, the Figure-7 identity sweep and
//!   span audit at 8:4 (`results/fig7_breakdown.{jsonl,txt}`), and the
//!   Chrome-trace lint (`results/trace_SOR_2L.json`).
//! * `service` — golden preflight, trace/VT determinism, KvService and
//!   BankOltp audited across the four protocols with the fault-heat skew
//!   gate, and a nonzero fault soak.
//! * `scaling` — golden preflight, then SOR and Gauss across the shape
//!   ladder (default `8x4 16x8`; any `SHAPE` arguments, e.g. `8x4 16x8
//!   32x8 64x16` or `128:8`, replace it) × four protocols × both directory
//!   layouts, with the sub-linearity gates.
//! * `detpar` — golden preflight, SOR × four protocols at det worker
//!   counts {1, 2, 8} with byte-identical reports, and the
//!   `CASHMERE_PROC_WORKERS` opt-in identity.
//! * `xbackend` — golden preflight, replay fingerprints per backend, and
//!   the paper + service suite × four protocols × mc/rdma/cxl on the det
//!   engine (two workers per run) with the round-trip reduction gates.
//!
//! `--seed N` (default 24301) seeds the fault plans and service traces and
//! is echoed into every BENCH file. `CASHMERE_JOBS` bounds cell-level
//! parallelism; `HOTPATH_ROUNDS` belongs to the `hotpath` binary.

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use cashmere_apps::{suite, AppOutcome, BankOltp, Benchmark, Gauss, KvService, Scale, Sor};
use cashmere_bench::golden::{self, build_goldens, check_table2, GoldenRun};
use cashmere_bench::sweep::{
    jobs_from_env, run_ordered, run_sweep, run_sweep_with_jobs, Cell, SweepPlan, SweepSpec,
};
use cashmere_bench::{obsout, run_with, sequential, sequential_with, JsonObj, RunOpts};
use cashmere_check::{audit, audit_spans};
use cashmere_core::directory::DirUsage;
use cashmere_core::{
    Backend, DirectoryMode, FaultKind, FaultPlan, FaultRule, ProtocolKind, RecoveryCounts, RunSpec,
    Topology,
};
use cashmere_obs::{json, Fig7Breakdown};

const USAGE: &str =
    "usage: gate <wallclock|soak|obs|service|scaling|detpar|xbackend|all>... [--seed N] [SHAPE...]";

/// A phase: its name and its checks, returning the failure count.
type Phase = (&'static str, fn(&Ctx) -> usize);

/// Every phase, in the order they run.
const PHASES: [Phase; 7] = [
    ("wallclock", wallclock),
    ("soak", soak),
    ("obs", obs),
    ("service", service),
    ("scaling", scaling),
    ("detpar", detpar),
    ("xbackend", xbackend),
];

/// The scaling ladder when no `SHAPE` argument is given.
const DEFAULT_SHAPES: [&str; 2] = ["8x4", "16x8"];

/// Shared state: arguments, the environment, and the golden passes.
struct Ctx {
    seed: u64,
    jobs: usize,
    shapes: Vec<Topology>,
    /// The paper suite at bench scale: the goldens' probe set.
    bench_apps: Vec<Box<dyn Benchmark>>,
    /// The plain golden pass, built on first use.
    plain: OnceCell<GoldenRun>,
    /// The plain pass's preflight failure count, computed on first use.
    preflight: OnceCell<usize>,
}

impl Ctx {
    /// The plain golden pass (no plan, no audit, no observability).
    fn plain(&self) -> &GoldenRun {
        self.plain.get_or_init(|| {
            println!("[golden pass: plain]");
            build_goldens(&self.bench_apps, None, false, false)
        })
    }

    /// The golden preflight: the plain pass must reproduce
    /// `results/vt_golden.jsonl` byte-for-byte and the sequential rows of
    /// `results/table2.jsonl`. Reported once; every phase that preflights
    /// counts the same result.
    fn preflight(&self) -> usize {
        *self.preflight.get_or_init(|| {
            let g = self.plain();
            golden::compare("vt_golden", golden::committed().as_deref(), &g.jsonl)
                + check_table2(&g.seq_secs)
        })
    }

    /// Writes `BENCH_<experiment>.json`: `experiment`, `seed` and `jobs`,
    /// then the phase's own fields, then `failures`.
    fn write_bench(
        &self,
        experiment: &str,
        failures: usize,
        fields: impl FnOnce(JsonObj) -> JsonObj,
    ) {
        let head = JsonObj::new()
            .str("experiment", experiment)
            .lit("seed", self.seed)
            .lit("jobs", self.jobs);
        let mut doc = fields(head).lit("failures", failures).finish();
        doc.push('\n');
        let path = format!("BENCH_{experiment}.json");
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("[wrote {path}]");
    }
}

/// Counts a failed check and explains it on stderr; returns `ok`.
fn check(failures: &mut usize, ok: bool, why: impl FnOnce() -> String) -> bool {
    if !ok {
        *failures += 1;
        eprintln!("{}", why());
    }
    ok
}

fn ok_bad(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "BAD"
    }
}

fn clean_dirty(clean: bool) -> &'static str {
    if clean {
        "clean"
    } else {
        "DIRTY"
    }
}

/// The two checks every audited sweep cell faces: its checksum equals the
/// `oracle`'s `want`, and its protocol trace audits clean. Returns
/// `(checksum_ok, audit_clean)`.
fn checksum_and_audit(
    failures: &mut usize,
    tag: &str,
    cell: &Cell,
    oracle: &str,
    want: u64,
) -> (bool, bool) {
    let got = cell.outcome.checksum;
    let checksum_ok = check(failures, got == want, || {
        format!("{tag}: CHECKSUM {got} != {oracle} {want}")
    });
    let report = audit(&cell.trace);
    let audit_clean = check(failures, report.is_clean(), || {
        format!("{tag}: AUDIT DIRTY\n{}", report.summary())
    });
    (checksum_ok, audit_clean)
}

fn parse_args() -> Result<(Vec<Phase>, u64, Vec<Topology>), String> {
    let mut phases = BTreeSet::new();
    let mut seed = 24301;
    let mut shapes = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "all" {
            phases.extend(0..PHASES.len());
        } else if let Some(i) = PHASES.iter().position(|&(name, _)| name == arg) {
            phases.insert(i);
        } else if arg == "--seed" {
            seed = args
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("--seed requires an integer")?;
        } else {
            shapes.push(
                arg.parse::<Topology>()
                    .map_err(|e| format!("{arg:?} is neither a phase nor a shape: {e}"))?,
            );
        }
    }
    if phases.is_empty() {
        return Err("no phase given".into());
    }
    Ok((
        phases.into_iter().map(|i| PHASES[i]).collect(),
        seed,
        shapes,
    ))
}

fn main() {
    let (phases, seed, mut shapes) = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    if shapes.is_empty() {
        shapes = DEFAULT_SHAPES
            .iter()
            .map(|s| s.parse().expect("default shape"))
            .collect();
    }
    let ctx = Ctx {
        seed,
        jobs: jobs_from_env(),
        shapes,
        bench_apps: suite(Scale::Bench),
        plain: OnceCell::new(),
        preflight: OnceCell::new(),
    };
    let mut verdicts = Vec::new();
    for (phase, run) in phases {
        println!("=== gate {phase}");
        let t = Instant::now();
        let failures = run(&ctx);
        verdicts.push((phase, failures, t.elapsed().as_secs_f64()));
    }
    let mut failed = false;
    for (phase, failures, secs) in verdicts {
        failed |= failures > 0;
        let verdict = if failures == 0 {
            "ok".to_string()
        } else {
            format!("FAIL ({failures} check(s))")
        };
        println!("gate {phase:9} {verdict} in {secs:.1}s");
    }
    if failed {
        std::process::exit(1);
    }
}

// --- wallclock ----------------------------------------------------------

/// The committed geomean may fall by at most this fraction (host jitter).
const WALLCLOCK_TOLERANCE: f64 = 0.25;
const WALLCLOCK_BENCH: &str = "BENCH_wallclock.json";
const WALLCLOCK_BASELINE: &str = "results/wallclock_baseline.jsonl";

fn wallclock(ctx: &Ctx) -> usize {
    let capture = std::env::var("WALLCLOCK_BASELINE").is_ok_and(|v| v == "1");
    let reps = std::env::var("WALLCLOCK_REPS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3);
    if capture {
        std::fs::write(golden::GOLDEN_PATH, &ctx.plain().jsonl).expect("write vt_golden.jsonl");
        eprintln!("[wrote {}]", golden::GOLDEN_PATH);
    }
    let mut failures = ctx.preflight();

    let spec = SweepSpec {
        total: 32,
        per_node: 4,
        reps,
        seed: ctx.seed,
        ..SweepSpec::new(&ctx.bench_apps, &ProtocolKind::PAPER_FOUR)
    };
    // Pinned to one job: a timing rep sharing the host with a sibling cell
    // would inflate its wall seconds.
    let cells = run_sweep_with_jobs(&spec, 1, |c| {
        let (pages_diffed, diff_bytes) = diff_traffic(c);
        println!(
            "{:8} {:4} wall={:7.3}s  exec={:8.3}s  pages_diffed={:6}  diff_bytes={}",
            c.app,
            c.protocol.label(),
            c.wall_secs,
            c.outcome.report.exec_secs(),
            pages_diffed,
            diff_bytes
        );
    });

    if capture {
        let rows: String = cells
            .iter()
            .map(|c| wallclock_cell("wallclock_baseline", c, None) + "\n")
            .collect();
        std::fs::write(WALLCLOCK_BASELINE, rows).expect("write wallclock_baseline.jsonl");
        eprintln!("[wrote {WALLCLOCK_BASELINE}]");
        return failures;
    }

    let baseline: Vec<json::Value> = std::fs::read_to_string(WALLCLOCK_BASELINE)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .collect();
    let mut speedups = Vec::new();
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let base = baseline
                .iter()
                .find(|r| {
                    r.get("app").and_then(json::Value::as_str) == Some(c.app.as_str())
                        && r.get("protocol").and_then(json::Value::as_str)
                            == Some(c.protocol.label())
                })
                .and_then(|r| r.get("wall_secs")?.as_f64());
            if let Some(bw) = base {
                speedups.push(bw / c.wall_secs);
            }
            wallclock_cell("wallclock", c, base)
        })
        .collect();
    let geomean = (!speedups.is_empty())
        .then(|| (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp());
    match geomean {
        Some(g) => println!(
            "geomean wall-clock speedup vs baseline: {g:.3}x ({} cells)",
            speedups.len()
        ),
        None => eprintln!("[no wall-clock baseline at {WALLCLOCK_BASELINE} — speedups omitted]"),
    }

    // The regression check reads the committed file before it is
    // overwritten below.
    let committed = std::fs::read_to_string(WALLCLOCK_BENCH)
        .ok()
        .and_then(|doc| json::parse(&doc).ok())
        .and_then(|v| v.get("geomean_speedup")?.as_f64());
    if let (Some(fresh), Some(committed)) = (geomean, committed) {
        let floor = committed * (1.0 - WALLCLOCK_TOLERANCE);
        println!(
            "wallclock regression gate: fresh={fresh:.3} committed={committed:.3} floor={floor:.3}"
        );
        check(&mut failures, fresh >= floor, || {
            "wallclock: geomean regressed past the tolerance".to_string()
        });
    }

    ctx.write_bench("wallclock", failures, |o| {
        let o = o
            .str("config", "32:4")
            .lit("reps", reps)
            .arr("cells", &rows);
        match geomean {
            Some(g) => o.f64("geomean_speedup", g),
            None => o,
        }
    });
    failures
}

/// Diff traffic summarized the way the baseline file records it.
fn diff_traffic(c: &Cell) -> (u64, u64) {
    let counters = c.outcome.report.counters;
    (
        counters.flush_updates + counters.incoming_diffs + counters.shootdowns,
        counters.data_bytes,
    )
}

/// One timed cell, optionally with its baseline wall time and speedup.
fn wallclock_cell(experiment: &str, c: &Cell, baseline_wall: Option<f64>) -> String {
    let (pages_diffed, diff_bytes) = diff_traffic(c);
    let o = JsonObj::new()
        .str("experiment", experiment)
        .str("app", &c.app)
        .str("protocol", c.protocol.label())
        .f64("wall_secs", c.wall_secs)
        .f64("exec_secs", c.outcome.report.exec_secs())
        .lit("pages_diffed", pages_diffed)
        .lit("diff_bytes", diff_bytes);
    match baseline_wall {
        Some(bw) => o
            .f64("baseline_wall_secs", bw)
            .f64("speedup", bw / c.wall_secs),
        None => o,
    }
    .finish()
}

// --- soak ---------------------------------------------------------------

/// The soak, service and xbackend topology: 4 processors on 2 nodes, so
/// every cell crosses a node boundary (remote fetches, twins/diffs,
/// exclusive breaks).
const SMALL_CONFIG: (usize, usize) = (4, 2);

/// The two protocols soaked: the paper's primary (2L) and the one-level
/// diff baseline, which share the recovery machinery but split protocol
/// traffic across node boundaries very differently.
const SOAK_PROTOCOLS: [ProtocolKind; 2] = [ProtocolKind::TwoLevel, ProtocolKind::OneLevelDiff];

/// The fault-plan flavors: ≥3 fault kinds at nonzero rates between them.
/// `lossy-link`'s drops/delays/outages are repaired at the (simulated) link
/// level, below the protocol, so its recovery counters legitimately stay
/// zero; the other two must engage the protocol's recovery paths.
const PLANS: [SweepPlan; 3] = [
    SweepPlan {
        name: "lost-requests",
        build: Some(|seed| {
            FaultPlan::new(seed)
                .with_rule(FaultRule::new(FaultKind::LoseFetch, 0.25))
                .with_rule(FaultRule::new(FaultKind::LoseBreak, 0.25))
        }),
    },
    SweepPlan {
        name: "duplicated-transfers",
        build: Some(|seed| {
            FaultPlan::new(seed).with_rule(FaultRule::new(FaultKind::DuplicateWrite, 0.25))
        }),
    },
    SweepPlan {
        name: "lossy-link",
        build: Some(|seed| {
            FaultPlan::new(seed)
                .with_rule(FaultRule::new(FaultKind::DropWrite, 0.10))
                .with_rule(FaultRule::new(FaultKind::DelayWrite, 0.10).with_param_ns(5_000))
                .with_rule(FaultRule::new(FaultKind::LinkOutage, 0.002).with_param_ns(50_000))
        }),
    },
];

fn soak(ctx: &Ctx) -> usize {
    let mut failures = soak_zero_fault(ctx);
    let records = soak_matrix(ctx.seed, &mut failures);
    ctx.write_bench("soak", failures, |o| {
        o.str("config", &format!("{}:{}", SMALL_CONFIG.0, SMALL_CONFIG.1))
            .arr("cells", &records)
    });
    failures
}

/// An installed-but-empty plan must not perturb a single byte of the
/// committed goldens, and every probe must audit clean.
fn soak_zero_fault(ctx: &Ctx) -> usize {
    let plan = Arc::new(FaultPlan::new(ctx.seed));
    assert!(plan.is_empty(), "a rule-less plan must be empty");
    println!("[golden pass: empty fault plan, audited]");
    let g = build_goldens(&ctx.bench_apps, Some(&plan), true, false);
    let mut failures = golden::compare("soak zero-fault", golden::committed().as_deref(), &g.jsonl);
    failures += check_table2(&g.seq_secs);
    for (label, trace) in &g.traces {
        let report = audit(trace);
        check(&mut failures, report.is_clean(), || {
            format!(
                "soak zero-fault: {label} audit dirty:\n{}",
                report.summary()
            )
        });
    }
    let injected = plan.stats().total();
    check(&mut failures, injected == 0, || {
        format!("soak zero-fault: empty plan injected {injected} fault(s)")
    });
    failures
}

/// The fixed-seed fault campaign over apps × protocols × plans. Returns
/// per-cell JSON records.
fn soak_matrix(seed: u64, failures: &mut usize) -> Vec<String> {
    let apps = suite(Scale::Test);
    // Reference checksums: a fault-free run at the *same* configuration
    // per app (Em3d's graph depends on the processor count).
    let baselines = run_sweep(
        &SweepSpec {
            total: SMALL_CONFIG.0,
            per_node: SMALL_CONFIG.1,
            ..SweepSpec::new(&apps, &[ProtocolKind::TwoLevel])
        },
        |_| {},
    );
    let spec = SweepSpec {
        total: SMALL_CONFIG.0,
        per_node: SMALL_CONFIG.1,
        audit: true,
        seed,
        plans: &PLANS,
        ..SweepSpec::new(&apps, &SOAK_PROTOCOLS)
    };

    let mut records = Vec::new();
    let mut faults_by_plan = [0u64; PLANS.len()];
    let mut recovery_by_plan = [RecoveryCounts::default(); PLANS.len()];
    run_sweep(&spec, |cell| {
        let want = baselines
            .iter()
            .find(|b| b.app == cell.app)
            .expect("baseline sweep covered every app")
            .outcome
            .checksum;
        let recovery = &cell.outcome.report.recovery;
        let tag = format!(
            "soak {:8} {:4} {}",
            cell.app,
            cell.protocol.label(),
            cell.plan
        );
        let (checksum_ok, audit_clean) =
            checksum_and_audit(failures, &tag, cell, "fault-free", want);
        let pi = PLANS
            .iter()
            .position(|p| p.name == cell.plan)
            .expect("cell plan is one of PLANS");
        faults_by_plan[pi] += recovery.faults_total();
        recovery_by_plan[pi].merge(&recovery.total());
        println!(
            "soak {:8} {:4} {:20} faults={:6} recovered={:6} checksum={} audit={}",
            cell.app,
            cell.protocol.label(),
            cell.plan,
            recovery.faults_total(),
            recovery.total().total(),
            ok_bad(checksum_ok),
            clean_dirty(audit_clean),
        );
        let t = recovery.total();
        let faults = recovery
            .faults_injected
            .iter()
            .fold(JsonObj::new(), |o, (k, v)| o.lit(k, v));
        records.push(
            JsonObj::new()
                .str("experiment", "soak")
                .lit("seed", seed)
                .str("app", &cell.app)
                .str("protocol", cell.protocol.label())
                .str("plan", cell.plan)
                .f64("exec_secs", cell.outcome.report.exec_secs())
                .lit("checksum_ok", checksum_ok)
                .lit("audit_clean", audit_clean)
                .obj(
                    "recovery",
                    JsonObj::new()
                        .lit("fetch_timeouts", t.fetch_timeouts)
                        .lit("fetch_retries", t.fetch_retries)
                        .lit("break_timeouts", t.break_timeouts)
                        .lit("break_retries", t.break_retries)
                        .lit("duplicates_dropped", t.duplicates_dropped),
                )
                .obj("faults", faults)
                .finish(),
        );
    });

    for (pi, plan) in PLANS.iter().enumerate() {
        check(failures, faults_by_plan[pi] > 0, || {
            format!(
                "soak plan {}: campaign injected zero faults — rates too low or \
                 interposition points dead",
                plan.name
            )
        });
        let expects_recovery = plan.name != "lossy-link";
        check(
            failures,
            !expects_recovery || !recovery_by_plan[pi].is_zero(),
            || {
                format!(
                    "soak plan {}: campaign shows zero recovery activity — \
                     timeouts/retries/duplicate suppression never engaged",
                    plan.name
                )
            },
        );
    }
    records
}

// --- obs ----------------------------------------------------------------

/// The Figure-7 sweep configuration: two protocol nodes of four, so every
/// category (including message and wait time on remote fetches) shows up.
const OBS_CONFIG: (usize, usize) = (8, 4);

fn obs(ctx: &Ctx) -> usize {
    // Charge-free identity: observability on must not move a byte, neither
    // against the plain pass nor against the committed file.
    println!("[golden pass: observability on]");
    let on = build_goldens(&ctx.bench_apps, None, false, true);
    let mut failures = golden::compare("obs-on vs obs-off", Some(&ctx.plain().jsonl), &on.jsonl);
    failures += golden::compare(
        "obs-on vs committed",
        golden::committed().as_deref(),
        &on.jsonl,
    );

    // The Figure-7 identity sweep and the span audit.
    let apps = suite(Scale::Test);
    let spec = SweepSpec {
        total: OBS_CONFIG.0,
        per_node: OBS_CONFIG.1,
        opts: RunOpts {
            obs: true,
            ..RunOpts::default()
        },
        ..SweepSpec::new(&apps, &ProtocolKind::PAPER_FOUR)
    };
    let cells = run_sweep(&spec, |cell| {
        let report = &cell.outcome.report;
        let obs = report.obs.as_ref().expect("sweep ran with obs on");
        let (fig7, vt) = (obs.fig7.total(), report.breakdown.total());
        let tag = format!("obs {:8} {:4}", cell.app, cell.protocol.label());
        let identity_ok = check(&mut failures, fig7 == vt, || {
            format!(
                "{tag}: FIG7 {fig7} != total VT {vt} (off by {})",
                vt.abs_diff(fig7)
            )
        });
        let span_report = audit_spans(obs);
        let spans_ok = check(&mut failures, span_report.is_clean(), || {
            format!("{tag}: SPAN AUDIT DIRTY\n{}", span_report.summary())
        });
        println!(
            "{tag} total_vt={vt:14} fig7={} spans={:6} ({})",
            if identity_ok { "exact" } else { "DRIFT" },
            span_report.events,
            if spans_ok { "nested" } else { "DIRTY" },
        );
    });

    let config = format!("{}:{}", OBS_CONFIG.0, OBS_CONFIG.1);
    match obsout::write_fig7(&cells, &config) {
        Ok((jsonl, txt, rows)) => {
            if check(&mut failures, rows == cells.len(), || {
                format!(
                    "obs: only {rows} of {} cells produced Figure-7 rows",
                    cells.len()
                )
            }) {
                eprintln!(
                    "[wrote {} and {} ({rows} rows)]",
                    jsonl.display(),
                    txt.display()
                );
            }
        }
        Err(e) => {
            check(&mut failures, false, || {
                format!("obs: writing fig7 outputs failed: {e}")
            });
        }
    }

    // The Chrome-trace schema lint.
    let trace_cell = cells
        .iter()
        .find(|c| c.app == "SOR" && c.protocol == ProtocolKind::TwoLevel)
        .unwrap_or(&cells[0]);
    match obsout::export_trace(trace_cell) {
        Ok((path, events)) => println!(
            "obs trace: {} lints clean ({events} duration events)",
            path.display()
        ),
        Err(e) => {
            check(&mut failures, false, || format!("obs trace: {e}"));
        }
    }
    failures
}

// --- service ------------------------------------------------------------

/// Hot pages reported per cell and used by the skew gate.
const HEAT_TOP_K: usize = 4;

/// The skewed KV heat concentration must beat the uniform control's by at
/// least this factor (empirically ~2× at θ = 0.99; see DESIGN.md §13).
const HEAT_SKEW_FACTOR: f64 = 1.2;

/// The two service apps at `scale`, traces re-seeded from `seed` (distinct
/// streams per app).
fn service_apps(scale: Scale, seed: u64) -> (KvService, BankOltp) {
    let mut kv = KvService::new(scale);
    kv.spec.seed = seed;
    let mut bank = BankOltp::new(scale);
    bank.spec.seed = seed ^ 0x0BA2_0172;
    (kv, bank)
}

/// Each service app's host-side checksum expectation, by app name.
type Expected = [(&'static str, u64); 2];

/// Both service apps boxed, with their checksum expectations.
fn service_suite(seed: u64) -> (Vec<Box<dyn Benchmark>>, Expected) {
    let (kv, bank) = service_apps(Scale::Test, seed);
    let expected = [
        (kv.name(), kv.expected_checksum()),
        (bank.name(), bank.expected_total()),
    ];
    (vec![Box::new(kv), Box::new(bank)], expected)
}

fn expected_checksum(expected: &[(&'static str, u64)], app: &str) -> u64 {
    expected
        .iter()
        .find(|(n, _)| *n == app)
        .map(|&(_, c)| c)
        .expect("expectation for every service app")
}

fn service(ctx: &Ctx) -> usize {
    let mut failures = ctx.preflight();
    let determinism = service_determinism(ctx.seed, &mut failures);
    let mut cells = service_sweep(ctx.seed, &mut failures);
    let heat = service_heat(ctx.seed, &mut failures);
    cells.extend(service_soak(ctx.seed, &mut failures));
    ctx.write_bench("service", failures, |o| {
        o.str("config", &format!("{}:{}", SMALL_CONFIG.0, SMALL_CONFIG.1))
            .arr("determinism", &determinism)
            .arr("cells", &cells)
            .obj("heat", heat)
    });
    failures
}

/// Same seed ⇒ byte-identical trace and identical sequential virtual time;
/// checksums equal to the host-side expectations.
fn service_determinism(seed: u64, failures: &mut usize) -> Vec<String> {
    let mut records = Vec::new();
    let (kv, bank) = service_apps(Scale::Test, seed);
    let (kv2, bank2) = service_apps(Scale::Test, seed);
    let cases: [(&dyn Benchmark, u64, _, _); 2] = [
        (&kv, kv.expected_checksum(), kv.trace(), kv2.trace()),
        (&bank, bank.expected_total(), bank.trace(), bank2.trace()),
    ];
    for (app, want, trace, again) in cases {
        let name = app.name();
        let trace_ok = check(failures, trace.to_bytes() == again.to_bytes(), || {
            format!("service determinism {name}: TRACE not byte-identical")
        });
        let (a, _) = sequential_with(app, None, false);
        let (b, _) = sequential_with(app, None, false);
        let same = a.report.exec_ns == b.report.exec_ns && a.checksum == b.checksum;
        let vt_ok = check(failures, same, || {
            format!(
                "service determinism {name}: sequential VT {} vs {} (checksums {} vs {})",
                a.report.exec_ns, b.report.exec_ns, a.checksum, b.checksum
            )
        });
        let checksum_ok = check(failures, a.checksum == want, || {
            format!(
                "service determinism {name}: checksum {} != host expectation {want}",
                a.checksum
            )
        });
        println!(
            "service determinism {name:4} trace={} vt={} ({} ns) checksum={}",
            ok_bad(trace_ok),
            ok_bad(vt_ok),
            a.report.exec_ns,
            ok_bad(checksum_ok),
        );
        records.push(
            JsonObj::new()
                .str("app", name)
                .str("trace_digest", &format!("{:016x}", trace.digest()))
                .lit("trace_ops", trace.ops.len())
                .lit("seq_exec_ns", a.report.exec_ns)
                .lit("trace_identical", trace_ok)
                .lit("vt_identical", vt_ok)
                .lit("checksum_ok", checksum_ok)
                .finish(),
        );
    }
    records
}

/// Both apps × the four protocols with audit and observability on: clean
/// audits, exact checksums, and a nonempty sojourn histogram per cell.
fn service_sweep(seed: u64, failures: &mut usize) -> Vec<String> {
    let (apps, expected) = service_suite(seed);
    let spec = SweepSpec {
        total: SMALL_CONFIG.0,
        per_node: SMALL_CONFIG.1,
        opts: RunOpts {
            obs: true,
            ..RunOpts::default()
        },
        audit: true,
        ..SweepSpec::new(&apps, &ProtocolKind::PAPER_FOUR)
    };
    let mut records = Vec::new();
    run_sweep(&spec, |cell| {
        let want = expected_checksum(&expected, &cell.app);
        let tag = format!("service sweep {:4} {:4}", cell.app, cell.protocol.label());
        let (checksum_ok, audit_clean) = checksum_and_audit(failures, &tag, cell, "expected", want);
        let obs = cell.outcome.report.obs.as_ref().expect("obs requested");
        let hot = obs.hot_pages(HEAT_TOP_K);
        // Every service request records its arrival-to-completion latency,
        // so an empty histogram means the hook fell off the request loop.
        let sj = &obs.metrics.sojourn_ns;
        let (p50, p95, p99) = (sj.quantile(0.50), sj.quantile(0.95), sj.quantile(0.99));
        check(failures, sj.count > 0, || {
            format!("{tag}: EMPTY sojourn histogram")
        });
        println!(
            "{tag} exec={:9.3}ms checksum={} audit={} \
             sojourn p50={p50} p95={p95} p99={p99} ns ({} reqs) hot={hot:?}",
            cell.outcome.report.exec_secs() * 1e3,
            ok_bad(checksum_ok),
            clean_dirty(audit_clean),
            sj.count,
        );
        records.push(
            JsonObj::new()
                .str("phase", "sweep")
                .str("app", &cell.app)
                .str("protocol", cell.protocol.label())
                .f64("exec_secs", cell.outcome.report.exec_secs())
                .lit("sojourn_count", sj.count)
                .lit("sojourn_p50_ns", p50)
                .lit("sojourn_p95_ns", p95)
                .lit("sojourn_p99_ns", p99)
                .lit("checksum_ok", checksum_ok)
                .lit("audit_clean", audit_clean)
                .arr("hot_pages", hot_pages_json(&hot))
                .finish(),
        );
    });
    records
}

fn hot_pages_json(hot: &[(usize, u64)]) -> Vec<String> {
    hot.iter()
        .map(|(page, heat)| format!("[{page},{heat}]"))
        .collect()
}

/// Top-`HEAT_TOP_K` share of total page heat for one KV run at 2L.
fn kv_heat_share(kv: &KvService) -> (f64, Vec<(usize, u64)>) {
    let (out, _) = run_with(
        kv,
        ProtocolKind::TwoLevel,
        SMALL_CONFIG.0,
        SMALL_CONFIG.1,
        RunOpts {
            obs: true,
            ..RunOpts::default()
        },
        None,
        false,
    );
    let obs = out.report.obs.expect("obs requested");
    let total: u64 = obs.page_heat.iter().sum();
    let hot = obs.hot_pages(HEAT_TOP_K);
    let top: u64 = hot.iter().map(|&(_, h)| h).sum();
    assert!(total > 0, "KV heat probe saw zero faults");
    (top as f64 / total as f64, hot)
}

/// The skew gate: at Bench scale the Zipf-skewed KV heat must concentrate
/// visibly harder than a uniform (θ = 0) control, and the hottest page
/// must sit in the head where [`cashmere_workload::KeyMap::Direct`] puts
/// the popular ranks.
fn service_heat(seed: u64, failures: &mut usize) -> JsonObj {
    let (skewed, _) = service_apps(Scale::Bench, seed);
    let mut uniform = skewed.clone();
    uniform.spec.theta = 0.0;

    let (skew_share, skew_hot) = kv_heat_share(&skewed);
    let (uniform_share, _) = kv_heat_share(&uniform);
    println!(
        "service heat: skewed top-{HEAT_TOP_K} share {skew_share:.3} vs uniform {uniform_share:.3} \
         (hot pages {skew_hot:?})"
    );
    check(
        failures,
        skew_share >= uniform_share * HEAT_SKEW_FACTOR,
        || {
            format!(
                "service heat: skewed share {skew_share:.3} not >= {HEAT_SKEW_FACTOR}x uniform \
                 {uniform_share:.3} — the configured skew is invisible in fault heat"
            )
        },
    );
    // The popular ranks sit at the start of *both* shared structures: the
    // value table (pages 0..table_pages) and the version array right after
    // it. The version head packs PAGE_WORDS keys per page, so it often
    // out-heats table page 0.
    let table_pages = (skewed.spec.keys * skewed.value_words) / cashmere_core::PAGE_WORDS;
    let head_pages = 2;
    let in_head = |page: usize| page < head_pages || page == table_pages;
    check(
        failures,
        skew_hot.first().is_some_and(|&(page, _)| in_head(page)),
        || {
            format!(
                "service heat: hottest page {:?} is outside the hot head (table pages \
                 0..{head_pages} or version page {table_pages})",
                skew_hot.first()
            )
        },
    );
    JsonObj::new()
        .lit("theta", skewed.spec.theta)
        .lit(
            &format!("skew_top{HEAT_TOP_K}_share"),
            format!("{skew_share:.4}"),
        )
        .lit(
            &format!("uniform_top{HEAT_TOP_K}_share"),
            format!("{uniform_share:.4}"),
        )
        .arr("skew_hot_pages", hot_pages_json(&skew_hot))
}

/// Nonzero fault plans across all four protocols: checksums and audits must
/// hold, and every plan must actually inject faults.
fn service_soak(seed: u64, failures: &mut usize) -> Vec<String> {
    let (apps, expected) = service_suite(seed);
    let plans = [PLANS[0], PLANS[2]];
    let spec = SweepSpec {
        total: SMALL_CONFIG.0,
        per_node: SMALL_CONFIG.1,
        audit: true,
        seed,
        plans: &plans,
        ..SweepSpec::new(&apps, &ProtocolKind::PAPER_FOUR)
    };
    let mut records = Vec::new();
    let mut faults_by_plan = [0u64; 2];
    run_sweep(&spec, |cell| {
        let want = expected_checksum(&expected, &cell.app);
        let tag = format!(
            "service soak {:4} {:4} {}",
            cell.app,
            cell.protocol.label(),
            cell.plan
        );
        let (checksum_ok, audit_clean) = checksum_and_audit(failures, &tag, cell, "expected", want);
        let faults = cell.outcome.report.recovery.faults_total();
        faults_by_plan[usize::from(cell.plan != plans[0].name)] += faults;
        println!(
            "service soak {:4} {:4} {:14} faults={faults:5} checksum={} audit={}",
            cell.app,
            cell.protocol.label(),
            cell.plan,
            ok_bad(checksum_ok),
            clean_dirty(audit_clean),
        );
        records.push(
            JsonObj::new()
                .str("phase", "soak")
                .str("app", &cell.app)
                .str("protocol", cell.protocol.label())
                .str("plan", cell.plan)
                .f64("exec_secs", cell.outcome.report.exec_secs())
                .lit("faults", faults)
                .lit("checksum_ok", checksum_ok)
                .lit("audit_clean", audit_clean)
                .finish(),
        );
    });
    for (plan, faults) in plans.iter().zip(faults_by_plan) {
        check(failures, faults > 0, || {
            format!(
                "service soak plan {}: campaign injected zero faults",
                plan.name
            )
        });
    }
    records
}

// --- scaling ------------------------------------------------------------

fn mode_label(mode: DirectoryMode) -> &'static str {
    match mode {
        DirectoryMode::Sparse => "sparse",
        _ => "replicated",
    }
}

/// One completed cell of the shape × protocol × directory-mode × app
/// matrix.
struct ScaleCell {
    app: &'static str,
    protocol: ProtocolKind,
    mode: DirectoryMode,
    topo: Topology,
    pnodes: usize,
    exec_ns: u64,
    speedup: f64,
    checksum_ok: bool,
    audit_clean: bool,
    usage: DirUsage,
}

impl ScaleCell {
    fn tag(&self) -> String {
        format!(
            "{} {} {} {}",
            self.topo,
            self.protocol.label(),
            mode_label(self.mode),
            self.app
        )
    }

    fn to_json(&self, seed: u64) -> String {
        let u = &self.usage;
        JsonObj::new()
            .str("experiment", "scaling")
            .lit("seed", seed)
            .str("app", self.app)
            .str("protocol", self.protocol.label())
            .str("directory", mode_label(self.mode))
            .str("shape", &self.topo.to_string())
            .str(
                "config",
                &format!("{}:{}", self.topo.total_procs(), self.topo.procs_per_node()),
            )
            .lit("pnodes", self.pnodes)
            .f64("exec_secs", self.exec_ns as f64 / 1e9)
            .f64("speedup", self.speedup)
            .lit("checksum_ok", self.checksum_ok)
            .lit("audit_clean", self.audit_clean)
            .lit("protocol_bytes", u.protocol_bytes())
            .lit("dir_updates", u.updates)
            .lit("dir_update_bytes", u.update_bytes)
            .lit("dir_probes", u.probes)
            .lit("dir_probe_bytes", u.probe_bytes)
            .lit("dir_misses", u.misses)
            .lit("dir_miss_bytes", u.miss_bytes)
            .lit("dir_mc_bytes", u.mc_bytes)
            .lit("dir_cache_bytes", u.cache_bytes)
            .finish()
    }
}

/// Runs one cell: build the cluster, execute the app, audit the trace, and
/// read the directory's traffic/memory accounting back off the engine.
fn scale_cell(
    app: &dyn Benchmark,
    protocol: ProtocolKind,
    mode: DirectoryMode,
    topo: Topology,
    seq: &BTreeMap<&'static str, (u64, u64)>,
) -> ScaleCell {
    let spec = RunSpec::new(topo, protocol)
        .with_directory(mode)
        .with_audit(true);
    let mut cluster = spec.build_cluster(|cfg| app.configure(cfg));
    let out = app.execute(&mut cluster);
    let trace = cluster.take_trace();
    let (seq_ns, seq_checksum) = seq[app.name()];
    ScaleCell {
        app: app.name(),
        protocol,
        mode,
        topo,
        pnodes: protocol.node_map().protocol_nodes(&topo),
        exec_ns: out.report.exec_ns,
        speedup: if out.report.exec_ns > 0 {
            seq_ns as f64 / out.report.exec_ns as f64
        } else {
            0.0
        },
        checksum_ok: out.checksum == seq_checksum,
        audit_clean: audit(&trace).is_clean(),
        usage: cluster.engine().directory().usage(),
    }
}

/// One shape's point on a sub-linearity curve.
struct Point {
    pnodes: usize,
    sparse_bytes: u64,
    ratio: f64,
    sparse_per_update: f64,
    repl_per_update: f64,
}

fn scaling(ctx: &Ctx) -> usize {
    let mut failures = ctx.preflight();
    let topos = &ctx.shapes;
    // One nearest-neighbor app (SOR) and one broadcast-heavy one (Gauss);
    // test-scale instances stay sub-second per cell even at 64×16.
    let apps: Vec<Box<dyn Benchmark>> = vec![
        Box::new(Sor::new(Scale::Test)),
        Box::new(Gauss::new(Scale::Test)),
    ];
    // Sequential baselines: the speedup denominator and checksum oracle.
    let seq: BTreeMap<&'static str, (u64, u64)> = apps
        .iter()
        .map(|a| {
            let out = sequential(a.as_ref());
            (a.name(), (out.report.exec_ns, out.checksum))
        })
        .collect();

    let modes = [DirectoryMode::LockFree, DirectoryMode::Sparse];
    let mut combos: Vec<(Topology, ProtocolKind, DirectoryMode, &dyn Benchmark)> = Vec::new();
    for &t in topos {
        for p in ProtocolKind::PAPER_FOUR {
            for m in modes {
                for a in &apps {
                    combos.push((t, p, m, a.as_ref()));
                }
            }
        }
    }
    println!(
        "scaling: {} cells ({} shapes × 4 protocols × 2 directory modes × {} apps), {} jobs",
        combos.len(),
        topos.len(),
        apps.len(),
        ctx.jobs
    );
    let cells = run_ordered(
        &combos,
        ctx.jobs,
        |&(topo, protocol, mode, app)| scale_cell(app, protocol, mode, topo, &seq),
        |cell| {
            println!(
                "{:7} {:4} {:10} {:6} pnodes={:4} exec={:9.4}s speedup={:6.2} \
                 proto_bytes={:10} dir_mem={:8}B audit={} checksum={}",
                cell.topo.to_string(),
                cell.protocol.label(),
                mode_label(cell.mode),
                cell.app,
                cell.pnodes,
                cell.exec_ns as f64 / 1e9,
                cell.speedup,
                cell.usage.protocol_bytes(),
                cell.usage.mc_bytes + cell.usage.cache_bytes,
                clean_dirty(cell.audit_clean),
                if cell.checksum_ok { "ok" } else { "DRIFT" },
            );
        },
    );

    for c in &cells {
        check(&mut failures, c.audit_clean, || {
            format!("FAIL: dirty audit — {}", c.tag())
        });
        check(&mut failures, c.checksum_ok, || {
            format!("FAIL: checksum drift — {}", c.tag())
        });
    }
    // The largest shape must complete at least two applications under 2L.
    let largest = *topos
        .iter()
        .max_by_key(|t| t.total_procs())
        .expect("at least one shape");
    let at_largest: BTreeSet<_> = cells
        .iter()
        .filter(|c| c.topo == largest && c.protocol == ProtocolKind::TwoLevel && c.audit_clean)
        .map(|c| c.app)
        .collect();
    check(&mut failures, at_largest.len() >= 2, || {
        format!(
            "FAIL: only {} app(s) completed cleanly under 2L at {largest}",
            at_largest.len()
        )
    });

    // Sub-linearity, per (app, protocol):
    // 1. Per-update fan-out bytes (deterministic by construction, immune to
    //    host jitter in *how many* updates an app sends): replicated
    //    delivery costs 8·(pnodes−1) bytes per update and must grow with
    //    the cluster; a sparse update is a single bounded home-shard
    //    message and must stay flat.
    // 2. End-to-end, the sparse/replicated *total* protocol-byte ratio must
    //    shrink from the smallest to the largest cluster. Totals are
    //    workload-noisy between adjacent shapes, so this is an endpoint
    //    check, and it needs a ≥ 8× node span to rise above that noise.
    let mut curves: Vec<String> = Vec::new();
    if topos.len() >= 2 {
        for p in ProtocolKind::PAPER_FOUR {
            for a in apps.iter().map(|a| a.name()) {
                let curve: Vec<Point> = topos
                    .iter()
                    .map(|&t| {
                        let usage = |m: DirectoryMode| {
                            cells
                                .iter()
                                .find(|c| {
                                    c.topo == t && c.protocol == p && c.mode == m && c.app == a
                                })
                                .map(|c| c.usage)
                                .expect("full matrix")
                        };
                        let (sparse, repl) =
                            (usage(DirectoryMode::Sparse), usage(DirectoryMode::LockFree));
                        Point {
                            pnodes: p.node_map().protocol_nodes(&t),
                            sparse_bytes: sparse.protocol_bytes(),
                            ratio: sparse.protocol_bytes() as f64
                                / repl.protocol_bytes().max(1) as f64,
                            sparse_per_update: sparse.update_bytes as f64
                                / sparse.updates.max(1) as f64,
                            repl_per_update: repl.update_bytes as f64 / repl.updates.max(1) as f64,
                        }
                    })
                    .collect();
                // A sparse update never exceeds one 12-byte shard message.
                let flat = curve.iter().all(|pt| pt.sparse_per_update <= 12.0);
                let growing = curve
                    .windows(2)
                    .all(|w| w[1].repl_per_update > w[0].repl_per_update);
                let (first, last) = (&curve[0], &curve[curve.len() - 1]);
                let ratio_checked = last.pnodes >= first.pnodes * 8;
                let shrinking = !ratio_checked || last.ratio < first.ratio;
                let mut row = format!("sublinear {:4} {a:6}", p.label());
                for pt in &curve {
                    row += &format!(
                        "  n={}:{:.1}B/upd vs {:.1} (ratio {:.4})",
                        pt.pnodes, pt.sparse_per_update, pt.repl_per_update, pt.ratio
                    );
                }
                println!(
                    "{row}  {}",
                    if flat && growing && shrinking {
                        "OK"
                    } else {
                        "FAIL"
                    }
                );
                check(&mut failures, flat, || {
                    format!(
                        "FAIL: sparse per-update bytes exceed one shard message for {} {a}",
                        p.label()
                    )
                });
                check(&mut failures, growing, || {
                    format!(
                        "FAIL: replicated per-update fan-out not growing with node count for {} {a}",
                        p.label()
                    )
                });
                check(&mut failures, shrinking, || {
                    format!(
                        "FAIL: sparse/replicated byte ratio did not shrink from {} to {} nodes \
                         for {} {a}",
                        first.pnodes,
                        last.pnodes,
                        p.label()
                    )
                });
                let points = curve.iter().map(|pt| {
                    JsonObj::new()
                        .lit("pnodes", pt.pnodes)
                        .lit("sparse_bytes", pt.sparse_bytes)
                        .f64("sparse_over_replicated", pt.ratio)
                        .f64("sparse_bytes_per_update", pt.sparse_per_update)
                        .f64("replicated_bytes_per_update", pt.repl_per_update)
                        .finish()
                });
                curves.push(
                    JsonObj::new()
                        .str("protocol", p.label())
                        .str("app", a)
                        .arr("curve", points)
                        .lit("sparse_per_update_flat", flat)
                        .lit("replicated_per_update_growing", growing)
                        .lit("ratio_checked", ratio_checked)
                        .lit("ratio_shrinking", shrinking)
                        .finish(),
                );
            }
        }
    }

    ctx.write_bench("scaling", failures, |o| {
        o.strs("shapes", topos.iter().map(Topology::to_string))
            .arr("node_counts", topos.iter().map(|t| t.nodes().to_string()))
            .strs("apps", apps.iter().map(|a| a.name()))
            .arr("sublinearity", &curves)
            .arr("cells", cells.iter().map(|c| c.to_json(ctx.seed)))
    });
    failures
}

// --- detpar -------------------------------------------------------------

/// The det matrix topology: 8 processors, 4 per node (every worker count
/// below the proc count forces real multiplexing).
const DETPAR_CONFIG: (usize, usize) = (8, 4);

/// Host worker counts exercised; the last is the widest, repeated and used
/// for the (informational) wall-clock ratio.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// One timed run of `app` at the given worker count (`None` = the engine
/// the environment selects).
fn timed_run(
    app: &dyn Benchmark,
    protocol: ProtocolKind,
    det_workers: Option<usize>,
) -> (AppOutcome, f64) {
    let t = Instant::now();
    let out = cashmere_bench::run(
        app,
        protocol,
        DETPAR_CONFIG.0,
        DETPAR_CONFIG.1,
        RunOpts {
            det_workers,
            ..RunOpts::default()
        },
    );
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn detpar(ctx: &Ctx) -> usize {
    let golden_failures = ctx.preflight();
    let mut failures = golden_failures;
    let app = Sor::new(Scale::Test);
    let widest = WORKER_COUNTS[WORKER_COUNTS.len() - 1];
    let mut cells = Vec::new();
    for protocol in ProtocolKind::PAPER_FOUR {
        let (base, base_wall) = timed_run(&app, protocol, Some(WORKER_COUNTS[0]));
        let base_json = base.report.to_json();
        let mut walls = vec![(WORKER_COUNTS[0], base_wall)];
        let mut identical = true;
        for &workers in &WORKER_COUNTS[1..] {
            let (out, wall) = timed_run(&app, protocol, Some(workers));
            walls.push((workers, wall));
            if out.report.to_json() != base_json || out.checksum != base.checksum {
                identical = false;
                eprintln!(
                    "detpar {:4}: report diverges at {workers} workers",
                    protocol.label()
                );
            }
        }
        let (again, _) = timed_run(&app, protocol, Some(widest));
        let repeat_identical = again.report.to_json() == base_json;
        if !repeat_identical {
            eprintln!(
                "detpar {:4}: repeat run at {widest} workers not byte-identical",
                protocol.label()
            );
        }
        check(&mut failures, identical && repeat_identical, || {
            format!(
                "detpar {:4}: worker-identity matrix failed",
                protocol.label()
            )
        });
        let (wall1, wallw) = (walls[0].1, walls[walls.len() - 1].1);
        let ratio = if wallw > 0.0 { wall1 / wallw } else { 0.0 };
        println!(
            "detpar {:4} identical={} repeat={} wall w1={wall1:7.1}ms w{widest}={wallw:7.1}ms \
             ratio={ratio:.2}",
            protocol.label(),
            ok_bad(identical),
            ok_bad(repeat_identical),
        );
        let wall_ms = walls
            .iter()
            .fold(JsonObj::new(), |o, (w, ms)| o.f64(&format!("w{w}"), *ms));
        cells.push(
            JsonObj::new()
                .str("protocol", protocol.label())
                .lit("identical", identical)
                .lit("repeat_identical", repeat_identical)
                .obj("wall_ms", wall_ms)
                .f64("par_ratio", ratio)
                .finish(),
        );
    }

    // The env opt-in must land on the same bytes as `with_det_parallel`. Set
    // and removed around a single run; nothing else runs meanwhile.
    let protocol = ProtocolKind::TwoLevel;
    let (explicit, _) = timed_run(&app, protocol, Some(2));
    std::env::set_var("CASHMERE_PROC_WORKERS", "2");
    let (via_env, _) = timed_run(&app, protocol, None);
    std::env::remove_var("CASHMERE_PROC_WORKERS");
    let env_ok = check(
        &mut failures,
        via_env.report.to_json() == explicit.report.to_json()
            && via_env.checksum == explicit.checksum,
        || "detpar: CASHMERE_PROC_WORKERS=2 diverges from with_det_parallel(2)".to_string(),
    );
    println!(
        "detpar env opt-in (CASHMERE_PROC_WORKERS=2): {}",
        ok_bad(env_ok)
    );

    ctx.write_bench("detpar", failures, |o| {
        o.str("app", app.name())
            .str(
                "config",
                &format!("{}:{}", DETPAR_CONFIG.0, DETPAR_CONFIG.1),
            )
            .arr("workers", WORKER_COUNTS.map(|w| w.to_string()))
            .str("golden", if golden_failures == 0 { "ok" } else { "drift" })
            .lit("env_optin_ok", env_ok)
            .arr("cells", &cells)
    });
    failures
}

// --- xbackend -----------------------------------------------------------

/// Det-engine workers per xbackend run: the free engine's multi-proc VT
/// (and with it the per-cell `remote_requests` the round-trip gate sums)
/// swings with host scheduling; the det engine makes every cell exact.
const XBACKEND_DET_WORKERS: usize = 2;

fn xbackend(ctx: &Ctx) -> usize {
    let mut failures = ctx.preflight();
    let replay = xbackend_replay(&mut failures);
    let (cells, totals) = xbackend_sweep(ctx, &mut failures);
    ctx.write_bench("xbackend", failures, |o| {
        o.str("config", &format!("{}:{}", SMALL_CONFIG.0, SMALL_CONFIG.1))
            .strs("backends", Backend::ALL.map(Backend::label))
            .arr("replay", &replay)
            .arr("cells", &cells)
            .arr("totals", &totals)
    });
    failures
}

/// Direct-read backends must make strictly fewer request/reply round trips
/// than the Memory Channel: a page fetch on a remote-read fabric is a pull.
/// `requests[protocol][backend]` is indexed like `Backend::ALL`.
fn round_trip_gate(what: &str, requests: &[[u64; 3]], failures: &mut usize) {
    for (pi, protocol) in ProtocolKind::PAPER_FOUR.into_iter().enumerate() {
        let [mc, rdma, cxl] = requests[pi];
        for (label, direct) in [("rdma", rdma), ("cxl", cxl)] {
            check(failures, direct < mc, || {
                format!(
                    "xbackend {what} {:4}: {label} remote_requests {direct} not < mc {mc}",
                    protocol.label()
                )
            });
        }
    }
}

/// Deterministic replay fingerprints per backend × protocol, twice each,
/// plus the round-trip gate on their `remote_requests`.
fn xbackend_replay(failures: &mut usize) -> Vec<String> {
    let mut records = Vec::new();
    let mut requests = vec![[0u64; 3]; ProtocolKind::PAPER_FOUR.len()];
    for (bi, backend) in Backend::ALL.into_iter().enumerate() {
        for (pi, protocol) in ProtocolKind::PAPER_FOUR.into_iter().enumerate() {
            let (clocks, counters, _) = golden::replay(backend, protocol, None, false, false);
            let (again, counters2, _) = golden::replay(backend, protocol, None, false, false);
            let tag = format!(
                "xbackend replay {:4} {:4}",
                backend.label(),
                protocol.label()
            );
            let deterministic = check(failures, clocks == again && counters == counters2, || {
                format!("{tag}: NONDETERMINISTIC — two passes disagree")
            });
            let total: u64 = clocks.iter().sum();
            let rr = counters
                .iter()
                .find(|(k, _)| *k == "remote_requests")
                .map_or(0, |&(_, v)| v);
            requests[pi][bi] = rr;
            println!(
                "{tag} total_ns={total:12} remote_requests={rr:5} ({})",
                if deterministic { "det" } else { "NONDET" },
            );
            records.push(
                JsonObj::new()
                    .str("backend", backend.label())
                    .str("protocol", protocol.label())
                    .lit("total_ns", total)
                    .lit("remote_requests", rr)
                    .lit("deterministic", deterministic)
                    .finish(),
            );
        }
    }
    round_trip_gate("replay", &requests, failures);
    records
}

/// The paper suite plus both service apps × the four protocols × all three
/// backends at 4:2 on the det engine, audit and observability on: clean
/// audits, mc-identical checksums, and the aggregate round-trip gate.
fn xbackend_sweep(ctx: &Ctx, failures: &mut usize) -> (Vec<String>, Vec<String>) {
    let mut apps = suite(Scale::Test);
    let (kv, bank) = service_apps(Scale::Test, ctx.seed);
    apps.push(Box::new(kv));
    apps.push(Box::new(bank));
    let mut cell_json = Vec::new();
    let mut total_json = Vec::new();
    // Fault-free mc checksums per app: answers are fabric-independent even
    // though virtual time is not.
    let mut mc_checksums: BTreeMap<String, u64> = BTreeMap::new();
    let mut requests = vec![[0u64; 3]; ProtocolKind::PAPER_FOUR.len()];

    for (bi, backend) in Backend::ALL.into_iter().enumerate() {
        let spec = SweepSpec {
            total: SMALL_CONFIG.0,
            per_node: SMALL_CONFIG.1,
            opts: RunOpts {
                obs: true,
                backend,
                det_workers: Some(XBACKEND_DET_WORKERS),
                ..RunOpts::default()
            },
            audit: true,
            ..SweepSpec::new(&apps, &ProtocolKind::PAPER_FOUR)
        };
        let mut vt = [0u64; ProtocolKind::PAPER_FOUR.len()];
        let mut fig7 = [Fig7Breakdown::default(); ProtocolKind::PAPER_FOUR.len()];
        for cell in run_sweep(&spec, |_| {}) {
            let report = &cell.outcome.report;
            let pi = ProtocolKind::PAPER_FOUR
                .iter()
                .position(|&p| p == cell.protocol)
                .expect("sweep protocol");
            if backend == Backend::MemoryChannel {
                mc_checksums
                    .entry(cell.app.clone())
                    .or_insert(cell.outcome.checksum);
            }
            let want = mc_checksums[&cell.app];
            let tag = format!(
                "xbackend sweep {:4} {:8} {:4}",
                backend.label(),
                cell.app,
                cell.protocol.label()
            );
            let (checksum_ok, audit_clean) =
                checksum_and_audit(failures, &tag, &cell, "mc baseline", want);
            let obs = report.obs.as_ref().expect("obs requested");
            vt[pi] += report.exec_ns;
            fig7[pi].merge(&obs.fig7);
            let c = report.counters;
            requests[pi][bi] += c.remote_requests;
            println!(
                "{tag} exec={:10.4}ms remote_requests={:6} checksum={} audit={}",
                report.exec_secs() * 1e3,
                c.remote_requests,
                ok_bad(checksum_ok),
                clean_dirty(audit_clean),
            );
            cell_json.push(
                JsonObj::new()
                    .str("backend", backend.label())
                    .str("app", &cell.app)
                    .str("protocol", cell.protocol.label())
                    .f64("exec_secs", report.exec_secs())
                    .lit("remote_requests", c.remote_requests)
                    .lit("page_transfers", c.page_transfers)
                    .lit("data_bytes", c.data_bytes)
                    .lit("checksum_ok", checksum_ok)
                    .lit("audit_clean", audit_clean)
                    .finish(),
            );
        }

        // Which protocol finishes the whole suite fastest on this fabric?
        let (best, best_ns) = ProtocolKind::PAPER_FOUR
            .into_iter()
            .zip(vt)
            .min_by_key(|&(_, ns)| ns)
            .expect("four protocols");
        println!(
            "xbackend {:4}: fastest protocol {} (suite total {:.4}ms; 2L total {:.4}ms)",
            backend.label(),
            best.label(),
            best_ns as f64 / 1e6,
            vt[0] as f64 / 1e6,
        );
        for (pi, protocol) in ProtocolKind::PAPER_FOUR.into_iter().enumerate() {
            total_json.push(
                JsonObj::new()
                    .str("backend", backend.label())
                    .str("protocol", protocol.label())
                    .lit("suite_total_ns", vt[pi])
                    .lit("remote_requests", requests[pi][bi])
                    .lit("fastest", protocol == best)
                    .obj("fig7", obsout::fig7_obj(&fig7[pi]))
                    .finish(),
            );
        }
    }
    round_trip_gate("sweep", &requests, failures);
    (cell_json, total_json)
}
