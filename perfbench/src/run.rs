//! One benchmark invocation: oracle, set-up, then either the timed passes
//! (end-to-end metrics) or the traced run (per-layer metrics).

use std::collections::BTreeMap;
use std::time::Instant;

use cashmere_apps::Scale;
use cashmere_core::report::Counters;
use cashmere_core::{ProtocolKind, Report};
use cashmere_obs::{Fig7Cat, VtHistogram};

use crate::cells::{
    run_cell, time_build, Cell, CellRun, Engine, Mode, Oracle, Shape, Workload, DET_WORKERS,
};
use crate::layers;
use crate::spans::Spans;
use crate::stats::{geomean, median, Metrics};

/// The paper's 2L speedups at 32:4: the "paper 2L" column of the Figure 7
/// table in EXPERIMENTS.md (read off Figure 7 of Stets et al., SOSP '97).
pub const PAPER_2L_32X4: [(&str, f64); 6] = [
    ("SOR", 31.0),
    ("Water", 28.1),
    ("Gauss", 21.7),
    ("Ilink", 12.9),
    ("Em3d", 11.4),
    ("Barnes", 7.8),
];

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload.
    pub workload: Workload,
    /// Seed of the generated request traces.
    pub seed: u64,
    /// Length of the timed phase in host seconds (passes keep starting
    /// until it has elapsed; at least two run).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Problem size (`Bench` for the benchmark, `Test` for smoke tests).
    pub scale: Scale,
}

/// The result of one invocation.
pub struct Outcome {
    /// Every cell matched its oracle and every consistency check held.
    pub correct: bool,
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that panicked or failed a check.
    pub failed: u64,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Host facts and run provenance, one JSON object.
    pub envelope: String,
    /// The benchmark's own spans (traced run only).
    pub spans: Spans,
}

/// Attempted and failed cell runs, with the failures' messages.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ledger {
    /// Counts one cell run; a panic or a failed `check` counts as failed.
    fn record(
        &mut self,
        label: &str,
        run: Result<CellRun, String>,
        check: impl FnOnce(&CellRun) -> Result<(), String>,
    ) -> Option<CellRun> {
        self.attempted += 1;
        let run = match run {
            Ok(run) => run,
            Err(msg) => {
                self.fail(format!("{label}: panicked: {msg}"));
                return None;
            }
        };
        if let Err(msg) = check(&run) {
            self.fail(msg);
        }
        Some(run)
    }

    fn fail(&mut self, msg: String) {
        println!("FAILED {msg}");
        self.failed += 1;
        self.errors.push(msg);
    }
}

/// Reference results taken outside the timed phase: each cell's oracle and
/// each app's sequential (1:1) simulated time.
struct References {
    oracles: Vec<Option<Oracle>>,
    seq_ns: BTreeMap<&'static str, u64>,
}

fn references(cells: &[Cell], ledger: &mut Ledger, spans: &mut Spans, root: usize) -> References {
    let span = spans.open("oracle", Some(root));
    let mut runs: BTreeMap<(&'static str, String), Option<(u64, u64)>> = BTreeMap::new();
    let mut run_once = |cell: &Cell, shape: Shape, ledger: &mut Ledger| {
        let key = (cell.app.name(), format!("{shape:?}"));
        *runs.entry(key).or_insert_with(|| {
            let label = format!(
                "{} {}:{} oracle",
                cell.label(),
                shape.procs,
                shape.protocol.label()
            );
            ledger
                .record(&label, run_cell(&cell.app, shape, Mode::TIMED), |_| Ok(()))
                .map(|r| (r.outcome.checksum, r.report().exec_ns))
        })
    };
    let mut seq_ns = BTreeMap::new();
    let mut oracles = Vec::new();
    for cell in cells {
        if cell.procs > 1 {
            if let Some((_, ns)) = run_once(cell, Shape::SEQUENTIAL, ledger) {
                seq_ns.insert(cell.app.name(), ns);
            }
        }
        let source = Oracle::source_for(cell);
        oracles
            .push(run_once(cell, source, ledger).map(|(checksum, _)| Oracle { checksum, source }));
    }
    spans.close(span);
    References { oracles, seq_ns }
}

/// Checks a cell run's checksum against its oracle (a missing oracle is a
/// failure: the cell cannot be shown correct).
fn check_oracle(cell: &Cell, oracle: Option<Oracle>, run: &CellRun) -> Result<(), String> {
    oracle
        .ok_or_else(|| format!("{}: no oracle", cell.label()))?
        .check(&cell.label(), run.outcome.checksum)
}

/// `Ok` when an obs-on report agrees with the obs-off one on simulated
/// time and every counter.
fn check_obs_agrees(label: &str, off: &Report, on: &Report) -> Result<(), String> {
    if on.exec_ns == off.exec_ns && on.counters == off.counters {
        Ok(())
    } else {
        Err(format!(
            "{label}: obs-on run differs from obs-off (exec {} vs {} ns)",
            on.exec_ns, off.exec_ns
        ))
    }
}

/// Set-up samples taken before the timed phase (after
/// [`SETUP_WARMUP`] untimed ones); the timed run adds one before every cell
/// run, so the samples span the whole run like the passes do.
const SETUP_REPS: usize = 5;

/// Untimed set-up samples first, so the allocator has settled.
const SETUP_WARMUP: usize = 2;

/// One set-up sample of the whole workload, `(build_s, trace_gen_s)`:
/// every cell's cluster construction (`build_cluster` + `configure`) and
/// every cell's request-trace generation, in host seconds.
fn setup_sample(cells: &[Cell]) -> (f64, f64) {
    let mut build_s = 0.0;
    let mut trace_s = 0.0;
    for cell in cells {
        build_s += time_build(&cell.app, cell.shape());
        let t = Instant::now();
        std::hint::black_box(cell.app.generate_trace());
        trace_s += t.elapsed().as_secs_f64();
    }
    (build_s, trace_s)
}

/// Runs one invocation and returns its metrics.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    let mut spans = Spans::new();
    let root = spans.open(w.name(), None);
    let cells = w.cells(opts.scale, opts.seed);
    let mut ledger = Ledger::default();
    let refs = references(&cells, &mut ledger, &mut spans, root);

    let setup_span = spans.open("setup", Some(root));
    for _ in 0..SETUP_WARMUP {
        setup_sample(&cells);
    }
    let mut setup: Vec<(f64, f64)> = (0..SETUP_REPS).map(|_| setup_sample(&cells)).collect();
    spans.close(setup_span);
    let trace_gen_ms = median(&setup.iter().map(|(_, t)| t * 1e3).collect::<Vec<_>>());

    let (metrics, reps) = if opts.trace {
        traced(
            opts,
            &cells,
            &refs,
            &mut ledger,
            &mut spans,
            root,
            trace_gen_ms,
        )
    } else {
        timed(opts, &cells, &refs, &mut ledger, &mut setup)
    };
    spans.close(root);

    for name in metrics.non_finite() {
        ledger.fail(format!("metric {name} is not a finite number"));
    }
    let envelope = envelope(opts, &cells, reps);
    println!("envelope {envelope}");
    for e in &ledger.errors {
        println!("error: {e}");
    }
    println!(
        "failed_frac {} ({} of {} cell runs failed)",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        ledger.failed,
        ledger.attempted
    );
    Outcome {
        correct: ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        envelope,
        spans,
    }
}

/// The timed run: whole passes over the cells on the det engine with obs
/// off, until `opts.seconds` have elapsed (at least two passes, so every
/// cell is repeated and its `Report` compared byte for byte).
fn timed(
    opts: &Options,
    cells: &[Cell],
    refs: &References,
    ledger: &mut Ledger,
    setup: &mut Vec<(f64, f64)>,
) -> (Metrics, usize) {
    // Each cell's first report, and its JSON for the byte-for-byte repeat
    // check.
    let mut first: Vec<Option<(Report, String)>> = vec![None; cells.len()];
    let mut pass_s = Vec::new();
    let start = Instant::now();
    while pass_s.len() < 2 || start.elapsed().as_secs_f64() < opts.seconds {
        let mut pass = 0.0;
        for (i, cell) in cells.iter().enumerate() {
            // A set-up sample between cell runs, outside the pass's time.
            setup.push(setup_sample(cells));
            let t = Instant::now();
            let run = run_cell(&cell.app, cell.shape(), Mode::TIMED);
            ledger.record(&cell.label(), run, |run| {
                check_oracle(cell, refs.oracles[i], run)?;
                let json = run.report().to_json();
                match &first[i] {
                    None => {
                        first[i] = Some((run.report().clone(), json));
                        Ok(())
                    }
                    Some((_, f)) if *f == json => Ok(()),
                    Some(_) => Err(format!("{}: repeat's Report differs", cell.label())),
                }
            });
            pass += t.elapsed().as_secs_f64();
        }
        pass_s.push(pass);
    }
    // Read before the obs-on runs below, whose span buffers would set the
    // peak otherwise.
    let rss_mb = peak_rss_mb();
    let wall_s = median(&pass_s);
    println!(
        "timed phase: {} passes, median {wall_s:.4} s, min {:.4} s, max {:.4} s",
        pass_s.len(),
        pass_s.iter().copied().fold(f64::INFINITY, f64::min),
        pass_s.iter().copied().fold(0.0, f64::max)
    );

    // Observability-on runs outside the timed phase: the request sojourns
    // (recorded only with obs on, charge-free) and the obs-on/obs-off
    // agreement check for every request-serving cell.
    let mut sojourn = VtHistogram::default();
    for (i, cell) in cells.iter().enumerate() {
        if cell.app.name() != "KV" {
            continue;
        }
        let run = run_cell(&cell.app, cell.shape(), Mode::OBS);
        ledger.record(&format!("{} obs", cell.label()), run, |run| {
            check_oracle(cell, refs.oracles[i], run)?;
            if let Some(obs) = &run.report().obs {
                sojourn.merge(&obs.metrics.sojourn_ns);
            }
            let (off, _) = first[i]
                .as_ref()
                .ok_or(format!("{}: no obs-off run to compare", cell.label()))?;
            check_obs_agrees(&cell.label(), off, run.report())
        });
    }

    let sim_ns: Vec<Option<u64>> = first
        .iter()
        .map(|f| f.as_ref().map(|(r, _)| r.exec_ns))
        .collect();
    let sims: Vec<u64> = sim_ns.iter().flatten().copied().collect();
    let mut m = Metrics::default();
    m.set("wall_s", wall_s, "s");
    let setup_s = median(&setup.iter().map(|(b, t)| b + t).collect::<Vec<_>>());
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mb", rss_mb, "MB");
    m.set("sim_s", sims.iter().sum::<u64>() as f64 / 1e9, "sim_s");
    m.set("speedup_geo", speedup_geo(cells, refs, &sim_ns), "x");
    m.set("paper_err", paper_err(cells, refs, &sim_ns), "x");
    // KV's exact mean sojourn (histogram sum / count). A workload that
    // serves no requests is a batch of jobs, each of whose sojourn is its
    // simulated run time.
    let sojourn_ms = if sojourn.count > 0 {
        sojourn.sum as f64 / sojourn.count as f64 / 1e6
    } else {
        sims.iter().sum::<u64>() as f64 / sims.len().max(1) as f64 / 1e6
    };
    m.set("kv_sojourn_mean_ms", sojourn_ms, "sim_ms");
    (m, pass_s.len())
}

/// Per-cell speedups, `(cell index, speedup)`: the app's 1:1 simulated
/// time over the cell's. A 1:1 cell is its own baseline (speedup 1).
fn speedups(cells: &[Cell], refs: &References, sim_ns: &[Option<u64>]) -> Vec<(usize, f64)> {
    (0..cells.len())
        .filter_map(|i| {
            let sim = sim_ns[i]? as f64;
            let seq = if cells[i].procs == 1 {
                sim
            } else {
                *refs.seq_ns.get(cells[i].app.name())? as f64
            };
            Some((i, seq / sim))
        })
        .collect()
}

/// Geomean of the per-cell speedups (Figure 7 on `paper-32x4`).
fn speedup_geo(cells: &[Cell], refs: &References, sim_ns: &[Option<u64>]) -> f64 {
    let s = speedups(cells, refs, sim_ns);
    for &(i, x) in &s {
        println!("speedup {} {x:.2}", cells[i].label());
    }
    geomean(&s.iter().map(|&(_, x)| x).collect::<Vec<_>>())
}

/// The error factor against the paper, exp(mean |ln(measured / paper)|),
/// i.e. the geomean of max(r, 1/r) for r = measured / paper, over the 2L
/// cells at 32:4 that have a [`PAPER_2L_32X4`] reference; 1 (the empty
/// product) on a workload without references.
fn paper_err(cells: &[Cell], refs: &References, sim_ns: &[Option<u64>]) -> f64 {
    let mut factors = Vec::new();
    for (i, measured) in speedups(cells, refs, sim_ns) {
        let c = &cells[i];
        if (c.procs, c.per_node, c.protocol) != (32, 4, ProtocolKind::TwoLevel) {
            continue;
        }
        if let Some((_, paper)) = PAPER_2L_32X4.iter().find(|(a, _)| *a == c.app.name()) {
            println!(
                "paper {}: measured {measured:.2} vs paper {paper:.1}",
                c.label()
            );
            factors.push((measured / paper).max(paper / measured));
        }
    }
    geomean(&factors)
}

/// Per-cell results of the traced run.
#[derive(Default)]
struct TracedCell {
    det2_s: f64,
    det1_s: f64,
    free_s: f64,
    obs_s: f64,
    counters: Counters,
    fig7_ns: [u64; 5],
    sojourn: VtHistogram,
}

/// The traced run: for every cell, the det engine at [`DET_WORKERS`] with
/// obs off and on, at 1 worker, the free engine, and an audited run; then
/// the layer microbenchmarks shaped to the workload.
fn traced(
    opts: &Options,
    cells: &[Cell],
    refs: &References,
    ledger: &mut Ledger,
    spans: &mut Spans,
    root: usize,
    trace_gen_ms: f64,
) -> (Metrics, usize) {
    let mut per_cell = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let cspan = spans.open(&format!("cell {}", cell.label()), Some(root));
        let oracle = refs.oracles[i];
        let mut t = TracedCell::default();
        let label = cell.label();
        let exec = |name: &str, mode: Mode, spans: &mut Spans| {
            let s = spans.open(name, Some(cspan));
            let run = run_cell(&cell.app, cell.shape(), mode);
            if let Ok(r) = &run {
                spans.record("build", Some(s), r.build_s);
                spans.record("execute", Some(s), r.exec_s);
            }
            spans.close(s);
            run
        };

        let off = exec("det2", Mode::TIMED, spans);
        let off = ledger.record(&label, off, |r| check_oracle(cell, oracle, r));
        let off_json = off.as_ref().map(|r| r.report().to_json());
        if let Some(r) = &off {
            t.det2_s = r.exec_s;
            t.counters = r.report().counters;
        }

        let on = exec("det2 obs", Mode::OBS, spans);
        ledger.record(&format!("{label} obs"), on, |r| {
            t.obs_s = r.exec_s;
            if let Some(obs) = &r.report().obs {
                for c in Fig7Cat::ALL {
                    t.fig7_ns[c.index()] = obs.fig7.get(c);
                }
                t.sojourn = obs.metrics.sojourn_ns.clone();
            }
            check_oracle(cell, oracle, r)?;
            let off = off.as_ref().ok_or(format!("{label}: no obs-off run"))?;
            check_obs_agrees(&label, off.report(), r.report())
        });

        let one = exec(
            "det1",
            Mode {
                engine: Engine::Det(1),
                ..Mode::TIMED
            },
            spans,
        );
        ledger.record(&format!("{label} det1"), one, |r| {
            t.det1_s = r.exec_s;
            check_oracle(cell, oracle, r)?;
            if off_json.as_deref() == Some(r.report().to_json().as_str()) {
                Ok(())
            } else {
                Err(format!(
                    "{label}: Report at 1 worker differs from {DET_WORKERS}"
                ))
            }
        });

        let free = exec(
            "free",
            Mode {
                engine: Engine::Free,
                ..Mode::TIMED
            },
            spans,
        );
        ledger.record(&format!("{label} free"), free, |r| {
            t.free_s = r.exec_s;
            check_oracle(cell, oracle, r)
        });

        let audited = exec(
            "audit",
            Mode {
                audit: true,
                ..Mode::TIMED
            },
            spans,
        );
        ledger.record(&format!("{label} audit"), audited, |r| {
            check_oracle(cell, oracle, r)?;
            let report = cashmere_check::audit(&r.trace);
            if report.is_clean() {
                Ok(())
            } else {
                Err(format!("{label}: audit: {}", report.summary()))
            }
        });
        spans.close(cspan);
        println!(
            "cell {label}: det2 {:.4} s, det1 {:.4} s, free {:.4} s, obs {:.4} s",
            t.det2_s, t.det1_s, t.free_s, t.obs_s
        );
        per_cell.push(t);
    }

    let mspan = spans.open("layer microbenchmarks", Some(root));
    let metrics = layer_metrics(opts, cells, &per_cell, trace_gen_ms);
    spans.close(mspan);
    (metrics, 1)
}

/// Assembles the per-layer metrics from the traced cells' counts and host
/// times and the layer microbenchmarks.
fn layer_metrics(
    opts: &Options,
    cells: &[Cell],
    per_cell: &[TracedCell],
    trace_gen_ms: f64,
) -> Metrics {
    let (procs, per_node) = opts.workload.shape();
    let topo = Shape {
        procs,
        per_node,
        protocol: cells[0].protocol,
    }
    .topology();
    let sum = |f: &dyn Fn(&TracedCell) -> f64| per_cell.iter().map(f).sum::<f64>();
    let count =
        |f: &dyn Fn(&Counters) -> u64| per_cell.iter().map(|t| f(&t.counters)).sum::<u64>() as f64;
    let det2 = sum(&|t| t.det2_s);

    let mut m = Metrics::default();
    m.set("det.share", 1.0 - sum(&|t| t.free_s) / det2, "fraction");
    m.set("det.worker_speedup", sum(&|t| t.det1_s) / det2, "x");
    let det = layers::det_costs(procs, DET_WORKERS);
    m.set("det.checkpoint_ns", det.checkpoint_ns, "ns");
    m.set("det.grant_scan_ns", det.grant_scan_ns, "ns");
    m.set("det.wakeup_ns", det.wakeup_ns, "ns");

    let read_faults = count(&|c| c.read_faults);
    let write_faults = count(&|c| c.write_faults);
    m.set("engine.read_faults", read_faults, "count");
    m.set("engine.write_faults", write_faults, "count");
    m.set(
        "engine.remote_requests",
        count(&|c| c.remote_requests),
        "count",
    );

    let page = layers::page_costs();
    let twins = count(&|c| c.twin_creations);
    let flushes = count(&|c| c.flush_updates);
    let incoming = count(&|c| c.incoming_diffs);
    m.set("vmpage.twins", twins, "count");
    m.set("vmpage.flush_updates", flushes, "count");
    m.set("vmpage.incoming_diffs", incoming, "count");
    m.set("vmpage.twin_ns", page.twin_ns, "ns");
    m.set("vmpage.diff_ns", page.diff_ns, "ns");
    m.set("vmpage.apply_ns", page.apply_ns, "ns");
    m.set(
        "vmpage.est_ms",
        (twins * page.twin_ns + flushes * page.diff_ns + incoming * page.apply_ns) / 1e6,
        "ms",
    );

    let proto = layers::protocol_costs(&topo);
    let updates = count(&|c| c.directory_updates);
    m.set("directory.updates", updates, "count");
    m.set("directory.read_ns", proto.dir_read_ns, "ns");
    m.set("directory.write_ns", proto.dir_write_ns, "ns");
    m.set("directory.sharers_ns", proto.dir_sharers_ns, "ns");
    m.set(
        "directory.est_ms",
        (updates * proto.dir_write_ns + (read_faults + write_faults) * proto.dir_read_ns) / 1e6,
        "ms",
    );
    let notices = count(&|c| c.write_notices);
    m.set("notice.sent", notices, "count");
    m.set("notice.post_ns", proto.notice_post_ns, "ns");
    m.set("notice.drain64_ns", proto.notice_drain64_ns, "ns");
    m.set("notice.est_ms", notices * proto.notice_post_ns / 1e6, "ms");
    // Every page transfer is one fetch; every directory update and write
    // notice is one remote word write.
    let transfers = count(&|c| c.page_transfers);
    m.set("transport.page_transfers", transfers, "count");
    m.set("transport.data_mb", count(&|c| c.data_bytes) / 1e6, "MB");
    m.set("transport.write_ns", proto.transport_write_ns, "ns");
    m.set("transport.fetch_ns", proto.transport_fetch_ns, "ns");
    m.set(
        "transport.est_ms",
        (transfers * proto.transport_fetch_ns + (updates + notices) * proto.transport_write_ns)
            / 1e6,
        "ms",
    );

    m.set("sync.lock_acquires", count(&|c| c.lock_acquires), "count");
    m.set("sync.barriers", count(&|c| c.barriers), "count");
    for c in Fig7Cat::ALL {
        let ns: u64 = per_cell.iter().map(|t| t.fig7_ns[c.index()]).sum();
        m.set(format!("vt.{}_s", c.label()), ns as f64 / 1e9, "sim_s");
    }

    m.set("obs.overhead", sum(&|t| t.obs_s) / det2 - 1.0, "fraction");
    let mut sojourn = VtHistogram::default();
    for t in per_cell {
        sojourn.merge(&t.sojourn);
    }
    m.set(
        "obs.sojourn_p50_ns",
        sojourn.quantile(0.50) as f64,
        "sim_ns",
    );
    m.set(
        "obs.sojourn_p99_ns",
        sojourn.quantile(0.99) as f64,
        "sim_ns",
    );

    m.set("workload.trace_gen_ms", trace_gen_ms, "ms");
    let kv = crate::cells::App::kv(opts.scale, opts.seed, None);
    let spec = kv.trace.as_ref().expect("KV is trace-driven");
    m.set("workload.sample_ns", layers::sample_ns(spec), "ns");

    for app in crate::cells::App::ALL {
        let ms: f64 = cells
            .iter()
            .zip(per_cell)
            .filter(|(c, _)| c.app.name() == app && opts.workload == Workload::Seq1x1)
            .map(|(_, t)| t.det2_s * 1e3)
            .sum();
        m.set(format!("apps.{app}_ms"), ms, "ms");
    }
    for name in cell_metric_names() {
        let s = cells
            .iter()
            .zip(per_cell)
            .find(|(c, _)| c.procs > 1 && format!("cell.{}_s", c.label()) == name)
            .map_or(0.0, |(_, t)| t.det2_s);
        m.set(name, s, "s");
    }
    m
}

/// The per-cell host-time metrics of the multi-node workloads.
#[must_use]
pub fn cell_metric_names() -> Vec<String> {
    [Workload::Paper32x4, Workload::Kv8x4]
        .into_iter()
        .flat_map(|w| w.cells(Scale::Test, 0))
        .map(|c| format!("cell.{}_s", c.label()))
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc` is
/// unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host-fact envelope: nproc, `rustc -V`, git revision, det workers,
/// seed, the KV trace digest and the repetition count.
fn envelope(opts: &Options, cells: &[Cell], reps: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let digest = cells
        .iter()
        .find(|c| c.app.name() == "KV")
        .and_then(|c| c.app.generate_trace())
        .map_or("none".into(), |t| format!("{:#018x}", t.digest()));
    format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"nproc\": {nproc}, \"rustc\": \"{}\", \
         \"git_rev\": \"{}\", \"det_workers\": {DET_WORKERS}, \"seed\": {}, \
         \"kv_trace_digest\": \"{digest}\", \"reps\": {reps}}}",
        opts.workload.name(),
        opts.trace,
        rustc.replace('"', "'"),
        git_rev(),
        opts.seed
    )
}

/// The checkout's git revision, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            }),
            None => Some(head),
        },
        None => None,
    }
    .unwrap_or_else(|| "unknown".into())
}
