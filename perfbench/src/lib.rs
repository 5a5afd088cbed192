//! The Cashmere-2L reproduction's benchmark: three workloads on the
//! deterministic engine, end-to-end metrics from timed passes and
//! per-layer metrics from a separate traced run. See `README.md` beside
//! this package for the workloads, metric definitions and the map from
//! layer metrics to end-to-end metrics.

pub mod cells;
pub mod layers;
pub mod run;
pub mod spans;
pub mod stats;

/// Every end-to-end metric a timed run reports, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 7] = [
    "wall_s",
    "setup_s",
    "peak_rss_mb",
    "sim_s",
    "speedup_geo",
    "paper_err",
    "kv_sojourn_mean_ms",
];
