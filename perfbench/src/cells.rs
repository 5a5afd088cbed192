//! The three workloads, their cells, and how one cell runs.
//!
//! A *cell* is one application under one protocol at one `P:k` shape. Every
//! cell runs on the deterministic engine (the only engine whose `Report`
//! repeats byte for byte), selected through the public
//! `RunSpec::with_det_parallel`; the free engine is used only by the traced
//! run, to price the det engine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cashmere_apps::{
    AppOutcome, BankOltp, Barnes, Benchmark, Em3d, Gauss, Ilink, KvService, Lu, Scale, Sor, Tsp,
    Water,
};
use cashmere_core::{ProtocolKind, Report, RunSpec, Topology, TraceEvent};
use cashmere_workload::{Trace, WorkloadSpec};

/// Host workers the det engine runs on: one per core of the 2-core
/// reference host. Worker count changes host time only.
pub const DET_WORKERS: usize = 2;

/// KV mean inter-arrival on `kv-8x4` (2,500 req/s simulated): below the
/// knee of both 2L and 1LD.
pub const KV_INTERARRIVAL_NS: u64 = 400_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Six paper apps at 32:4 under 2L (Figure 7's headline shape).
    Paper32x4,
    /// `KvService` at 8:4 under 2L and 1LD, open-loop Poisson arrivals.
    Kv8x4,
    /// All ten apps at 1:1 uninstrumented (Table 2's baseline).
    Seq1x1,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Paper32x4, Workload::Kv8x4, Workload::Seq1x1];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper32x4 => "paper-32x4",
            Workload::Kv8x4 => "kv-8x4",
            Workload::Seq1x1 => "seq-1x1",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `(processors, processors per node)`.
    #[must_use]
    pub fn shape(self) -> (usize, usize) {
        match self {
            Workload::Paper32x4 => (32, 4),
            Workload::Kv8x4 => (8, 4),
            Workload::Seq1x1 => (1, 1),
        }
    }

    /// The workload's cells at `scale`, with trace-driven apps seeded from
    /// `seed`.
    #[must_use]
    pub fn cells(self, scale: Scale, seed: u64) -> Vec<Cell> {
        let (procs, per_node) = self.shape();
        let cell = |app: App, protocol| Cell {
            app,
            protocol,
            procs,
            per_node,
        };
        match self {
            Workload::Paper32x4 => App::PAPER
                .into_iter()
                .map(|name| cell(App::new(name, scale, seed), ProtocolKind::TwoLevel))
                .collect(),
            Workload::Kv8x4 => [ProtocolKind::TwoLevel, ProtocolKind::OneLevelDiff]
                .into_iter()
                .map(|p| cell(App::kv(scale, seed, Some(KV_INTERARRIVAL_NS)), p))
                .collect(),
            Workload::Seq1x1 => App::ALL
                .into_iter()
                .map(|name| cell(App::new(name, scale, seed), ProtocolKind::TwoLevel))
                .collect(),
        }
    }
}

/// Spreads the benchmark seed over 64 bits (splitmix64), so nearby
/// `--seed` values give unrelated traces.
#[must_use]
pub fn mix_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One application instance, with the trace spec of the trace-driven ones.
pub struct App {
    /// The runnable application.
    pub bench: Box<dyn Benchmark>,
    /// Request-trace spec (`KvService`, `BankOltp`); `None` for batch apps.
    pub trace: Option<WorkloadSpec>,
}

impl App {
    /// The paper apps of `paper-32x4`. LU (~9 s) and TSP (~48 s per 32:4
    /// pass) are left out: they take too long on the det engine.
    pub const PAPER: [&'static str; 6] = ["SOR", "Water", "Gauss", "Ilink", "Em3d", "Barnes"];

    /// Every app `seq-1x1` runs, by `Benchmark::name`.
    pub const ALL: [&'static str; 10] = [
        "SOR", "LU", "Water", "TSP", "Gauss", "Ilink", "Em3d", "Barnes", "KV", "Bank",
    ];

    /// Builds app `name` at its standard shape for `scale`. Trace-driven
    /// apps take their trace seed from `seed`.
    ///
    /// # Panics
    /// On a name outside [`Self::ALL`].
    #[must_use]
    pub fn new(name: &str, scale: Scale, seed: u64) -> Self {
        let batch = |bench: Box<dyn Benchmark>| Self { bench, trace: None };
        match name {
            "SOR" => batch(Box::new(Sor::new(scale))),
            "LU" => batch(Box::new(Lu::new(scale))),
            "Water" => batch(Box::new(Water::new(scale))),
            "TSP" => batch(Box::new(Tsp::new(scale))),
            "Gauss" => batch(Box::new(Gauss::new(scale))),
            "Ilink" => batch(Box::new(Ilink::new(scale))),
            "Em3d" => batch(Box::new(Em3d::new(scale))),
            "Barnes" => batch(Box::new(Barnes::new(scale))),
            "KV" => Self::kv(scale, seed, None),
            "Bank" => {
                let mut bank = BankOltp::new(scale);
                bank.spec.seed = mix_seed(seed);
                Self {
                    trace: Some(bank.spec.clone()),
                    bench: Box::new(bank),
                }
            }
            other => panic!("unknown app {other}"),
        }
    }

    /// `KvService` at `scale` with its trace seeded from `seed`, at
    /// `interarrival_ns` mean inter-arrival when given.
    #[must_use]
    pub fn kv(scale: Scale, seed: u64, interarrival_ns: Option<u64>) -> Self {
        let mut kv = KvService::new(scale);
        kv.spec.seed = mix_seed(seed);
        if let Some(ns) = interarrival_ns {
            kv.spec.mean_interarrival_ns = ns;
        }
        Self {
            trace: Some(kv.spec.clone()),
            bench: Box::new(kv),
        }
    }

    /// The app's name (`Benchmark::name`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.bench.name()
    }

    /// Generates the app's request trace, if it has one.
    #[must_use]
    pub fn generate_trace(&self) -> Option<Trace> {
        self.trace.as_ref().map(Trace::generate)
    }
}

/// One app under one protocol at one shape.
pub struct Cell {
    /// The application.
    pub app: App,
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// Total processors.
    pub procs: usize,
    /// Processors per node.
    pub per_node: usize,
}

impl Cell {
    /// `App.proto` label, e.g. `SOR.2L`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}.{}", self.app.name(), self.protocol.label())
    }

    /// The same app at the same shape under another protocol.
    #[must_use]
    pub fn with_protocol(&self, protocol: ProtocolKind) -> Shape {
        Shape {
            protocol,
            procs: self.procs,
            per_node: self.per_node,
        }
    }

    /// This cell's own shape.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.with_protocol(self.protocol)
    }
}

/// Protocol and `P:k` shape of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// Total processors.
    pub procs: usize,
    /// Processors per node.
    pub per_node: usize,
}

impl Shape {
    /// The paper's sequential baseline: one processor, 2L, uninstrumented.
    pub const SEQUENTIAL: Shape = Shape {
        protocol: ProtocolKind::TwoLevel,
        procs: 1,
        per_node: 1,
    };

    /// The simulated topology.
    ///
    /// # Panics
    /// On a shape that is not a paper configuration.
    #[must_use]
    pub fn topology(self) -> Topology {
        Topology::from_paper_config(self.procs, self.per_node)
            .unwrap_or_else(|| panic!("bad shape {}:{}", self.procs, self.per_node))
    }
}

/// Which engine runs a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The deterministic engine on this many host workers.
    Det(usize),
    /// The free-running engine (host-scheduled; VT not repeatable).
    Free,
}

/// How a cell runs: engine, observability, audit trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Engine choice.
    pub engine: Engine,
    /// Record `Report::obs`.
    pub obs: bool,
    /// Record the protocol event trace for `cashmere_check::audit`.
    pub audit: bool,
}

impl Mode {
    /// The timed configuration: det engine at [`DET_WORKERS`], obs and
    /// audit off.
    pub const TIMED: Mode = Mode {
        engine: Engine::Det(DET_WORKERS),
        obs: false,
        audit: false,
    };

    /// [`Self::TIMED`] with observability on.
    pub const OBS: Mode = Mode {
        obs: true,
        ..Mode::TIMED
    };
}

/// What one cell run produced.
pub struct CellRun {
    /// The run's report and checksum.
    pub outcome: AppOutcome,
    /// Protocol event trace (empty unless audited).
    pub trace: Vec<TraceEvent>,
    /// Host seconds building the cluster (`build_cluster` + `configure`).
    pub build_s: f64,
    /// Host seconds in `Benchmark::execute`.
    pub exec_s: f64,
}

impl CellRun {
    /// The report.
    #[must_use]
    pub fn report(&self) -> &Report {
        &self.outcome.report
    }
}

/// The `RunSpec` for `app` at `shape` under `mode`. 1:1 runs are
/// uninstrumented, as the paper's sequential times are.
#[must_use]
pub fn spec(shape: Shape, mode: Mode) -> RunSpec {
    let spec = RunSpec::new(shape.topology(), shape.protocol)
        .uninstrumented(shape.procs == 1)
        .with_obs(mode.obs)
        .with_audit(mode.audit);
    match mode.engine {
        Engine::Det(workers) => spec.with_det_parallel(workers),
        Engine::Free => spec,
    }
}

/// Builds the cluster for `app` at `shape` and drops it; returns the host
/// seconds taken (the set-up cost of one cell).
#[must_use]
pub fn time_build(app: &App, shape: Shape) -> f64 {
    let spec = spec(shape, Mode::TIMED);
    let t = Instant::now();
    let cluster = spec.build_cluster(|cfg| app.bench.configure(cfg));
    let s = t.elapsed().as_secs_f64();
    drop(cluster);
    s
}

/// Runs `app` at `shape` under `mode`. A panic anywhere in the run (an
/// app's own assertion, a det-engine deadlock abort) comes back as `Err`
/// with its message.
///
/// # Errors
/// The panic message of a failed run.
pub fn run_cell(app: &App, shape: Shape, mode: Mode) -> Result<CellRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let spec = spec(shape, mode);
        let t = Instant::now();
        let mut cluster = spec.build_cluster(|cfg| app.bench.configure(cfg));
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let outcome = app.bench.execute(&mut cluster);
        let exec_s = t.elapsed().as_secs_f64();
        let trace = cluster.take_trace();
        CellRun {
            outcome,
            trace,
            build_s,
            exec_s,
        }
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

/// The reference a cell's checksum is checked against, taken from a
/// different run outside the timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oracle {
    /// The expected checksum.
    pub checksum: u64,
    /// Where it came from, for messages.
    pub source: Shape,
}

impl Oracle {
    /// Where a cell's oracle comes from: the app's 1:1 run, except for 1:1
    /// cells and for Em3d (whose graph depends on the processor count),
    /// which are checked against a second protocol at the same width.
    #[must_use]
    pub fn source_for(cell: &Cell) -> Shape {
        if cell.procs == 1 || cell.app.name() == "Em3d" {
            let other = if cell.protocol == ProtocolKind::OneLevelDiff {
                ProtocolKind::TwoLevel
            } else {
                ProtocolKind::OneLevelDiff
            };
            cell.with_protocol(other)
        } else {
            Shape::SEQUENTIAL
        }
    }

    /// `Ok` when `got` matches the oracle.
    ///
    /// # Errors
    /// A message naming the cell, both checksums and the oracle's source.
    pub fn check(&self, label: &str, got: u64) -> Result<(), String> {
        if got == self.checksum {
            Ok(())
        } else {
            Err(format!(
                "{label}: checksum {got:#x} != oracle {:#x} ({} at {}:{})",
                self.checksum,
                self.source.protocol.label(),
                self.source.procs,
                self.source.per_node
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_flags_a_wrong_checksum() {
        let oracle = Oracle {
            checksum: 0x00C0_FFEE,
            source: Shape::SEQUENTIAL,
        };
        assert!(oracle.check("SOR.2L", 0x00C0_FFEE).is_ok());
        let err = oracle.check("SOR.2L", 0x00C0_FFEF).unwrap_err();
        assert!(err.contains("SOR.2L") && err.contains("0xc0ffee"), "{err}");
    }

    #[test]
    fn oracle_sources_differ_from_the_checked_run() {
        for w in Workload::ALL {
            for cell in w.cells(Scale::Test, 1) {
                assert_ne!(Oracle::source_for(&cell), cell.shape(), "{}", cell.label());
            }
        }
    }

    #[test]
    fn a_wrong_checksum_from_a_real_run_is_caught() {
        let cell = &Workload::Kv8x4.cells(Scale::Test, 3)[0];
        let run = run_cell(&cell.app, cell.shape(), Mode::TIMED).expect("KV runs");
        let oracle = Oracle {
            checksum: run.outcome.checksum ^ 1,
            source: Shape::SEQUENTIAL,
        };
        assert!(oracle.check(&cell.label(), run.outcome.checksum).is_err());
    }

    #[test]
    fn trace_seed_comes_from_the_benchmark_seed() {
        let a = App::new("KV", Scale::Test, 1).generate_trace().unwrap();
        let b = App::new("KV", Scale::Test, 2).generate_trace().unwrap();
        let a2 = App::new("KV", Scale::Test, 1).generate_trace().unwrap();
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a2.digest());
    }
}
