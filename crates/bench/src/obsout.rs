//! Observability exporters: the Figure-7 breakdown table
//! (`results/fig7_breakdown.{jsonl,txt}`), the per-page hot-page report
//! (appended to the table), and the Chrome `trace_event` export
//! (`results/trace_<app>_<proto>.json`).
//!
//! All three consume sweep [`Cell`]s whose runs had [`crate::RunOpts::obs`]
//! set; cells without an [`ObsReport`] are skipped. The JSONL rows carry
//! raw virtual nanoseconds under a nested `"fig7"` object (the category
//! named `protocol` must not collide with the row's protocol label; the
//! gate asserts the categories sum to the run's total virtual time); the
//! text table renders the same rows as percentages, the way the paper's
//! Figure 7 stacks them.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use cashmere_obs::{chrome, Fig7Breakdown, Fig7Cat, ObsReport};

use crate::sweep::Cell;
use crate::JsonObj;

/// The five Figure-7 categories as a JSON object of virtual nanoseconds.
#[must_use]
pub fn fig7_obj(fig7: &Fig7Breakdown) -> JsonObj {
    Fig7Cat::ALL
        .into_iter()
        .fold(JsonObj::new(), |o, c| o.lit(c.label(), fig7.get(c)))
}

/// Serializes one cell's Figure-7 row (`None` when the cell ran without
/// observability).
#[must_use]
pub fn fig7_json(cell: &Cell, config: &str) -> Option<String> {
    let obs = cell.outcome.report.obs.as_ref()?;
    let mut o = JsonObj::new()
        .str("experiment", "fig7_breakdown")
        .str("app", &cell.app)
        .str("protocol", cell.protocol.label())
        .str("config", config);
    if !cell.plan.is_empty() {
        o = o.str("plan", cell.plan);
    }
    Some(
        o.lit("procs", obs.procs)
            .obj("fig7", fig7_obj(&obs.fig7))
            .lit("total_ns", obs.fig7.total())
            .lit("breakdown_total_ns", cell.outcome.report.breakdown.total())
            .finish(),
    )
}

/// Renders the Figure-7 text table: one row per cell with the five
/// categories as percentages of total virtual time, followed by the
/// hot-page report (the per-cell fault-heat leaders).
#[must_use]
pub fn fig7_table(cells: &[Cell], config: &str) -> String {
    let mut s = format!("Figure 7 — execution-time breakdown at {config} (% of total VT)\n\n");
    let _ = writeln!(
        s,
        "{:10} {:5} {:>10}  {:>6} {:>6} {:>6} {:>6} {:>6}",
        "app", "proto", "total(ms)", "task", "sync", "prot", "wait", "msg"
    );
    for cell in cells {
        let Some(obs) = cell.outcome.report.obs.as_ref() else {
            continue;
        };
        let total = obs.fig7.total().max(1) as f64;
        let _ = write!(
            s,
            "{:10} {:5} {:>10.3}",
            cell.app,
            cell.protocol.label(),
            obs.fig7.total() as f64 / 1e6
        );
        for c in Fig7Cat::ALL {
            let _ = write!(s, "  {:>5.1}%", 100.0 * obs.fig7.get(c) as f64 / total);
        }
        s.push('\n');
    }
    s.push_str("\nHot pages (page:faults, hottest first)\n\n");
    for cell in cells {
        let Some(obs) = cell.outcome.report.obs.as_ref() else {
            continue;
        };
        let _ = write!(s, "{:10} {:5}", cell.app, cell.protocol.label());
        for (page, heat) in obs.hot_pages(4) {
            let _ = write!(s, "  {page}:{heat}");
        }
        s.push('\n');
    }
    s
}

/// Writes `results/fig7_breakdown.jsonl` and `results/fig7_breakdown.txt`
/// from the sweep's observability-enabled cells (`results/fig7.jsonl` is
/// the `fig7` binary's speedup table); returns the two paths and the row
/// count.
pub fn write_fig7(cells: &[Cell], config: &str) -> io::Result<(PathBuf, PathBuf, usize)> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let mut jsonl = String::new();
    let mut rows = 0usize;
    for cell in cells {
        if let Some(line) = fig7_json(cell, config) {
            jsonl.push_str(&line);
            jsonl.push('\n');
            rows += 1;
        }
    }
    let jsonl_path = dir.join("fig7_breakdown.jsonl");
    std::fs::write(&jsonl_path, jsonl)?;
    let txt_path = dir.join("fig7_breakdown.txt");
    std::fs::write(&txt_path, fig7_table(cells, config))?;
    Ok((jsonl_path, txt_path, rows))
}

/// Exports one cell's spans as a Chrome trace to
/// `results/trace_<app>_<proto>.json`, lints the document, and returns the
/// path and duration-event count. Errors if the cell has no observability
/// data or the export fails its own schema lint.
pub fn export_trace(cell: &Cell) -> Result<(PathBuf, usize), String> {
    let obs = cell
        .outcome
        .report
        .obs
        .as_ref()
        .ok_or("cell ran without observability")?;
    let doc = chrome_doc(obs);
    let events = chrome::lint(&doc).map_err(|e| format!("trace failed its lint: {e}"))?;
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "trace_{}_{}.json",
        sanitize(&cell.app),
        sanitize(cell.protocol.label())
    ));
    std::fs::write(&path, doc).map_err(|e| e.to_string())?;
    Ok((path, events))
}

/// Renders an [`ObsReport`]'s spans as a Chrome trace document, labelling
/// one track per protocol node.
#[must_use]
pub fn chrome_doc(obs: &ObsReport) -> String {
    let nodes = obs
        .spans
        .iter()
        .map(|s| s.node as usize + 1)
        .max()
        .unwrap_or(0);
    let labels: Vec<String> = (0..nodes).map(|n| format!("node {n}")).collect();
    chrome::export(&obs.spans, &labels)
}

/// Keeps file names portable: anything outside `[A-Za-z0-9._-]` becomes `-`.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_apps::{suite, Scale};
    use cashmere_core::ProtocolKind;
    use cashmere_obs::json;

    use crate::sweep::{run_sweep, SweepSpec};
    use crate::RunOpts;

    fn obs_cells() -> Vec<Cell> {
        let apps = suite(Scale::Test);
        let apps = &apps[..1];
        let protocols = [ProtocolKind::TwoLevel];
        let mut spec = SweepSpec::new(apps, &protocols);
        spec.opts = RunOpts {
            obs: true,
            ..RunOpts::default()
        };
        run_sweep(&spec, |_| {})
    }

    #[test]
    fn fig7_json_carries_the_identity_and_table_renders() {
        let cells = obs_cells();
        let line = fig7_json(&cells[0], "4:2").expect("obs on");
        let row = json::parse(&line).expect("row parses");
        assert_eq!(
            row.get("experiment").and_then(json::Value::as_str),
            Some("fig7_breakdown")
        );
        let total = row.get("total_ns").and_then(json::Value::as_u64);
        let breakdown = row.get("breakdown_total_ns").and_then(json::Value::as_u64);
        assert!(total.is_some());
        assert_eq!(total, breakdown, "Figure-7 identity in the exported row");
        let table = fig7_table(&cells, "4:2");
        assert!(table.contains("task"), "{table}");
        assert!(table.contains("Hot pages"), "{table}");
    }

    /// The row's protocol label and the `protocol` time category used to
    /// share one key, so a reader saw the category's number as the label.
    #[test]
    fn fig7_row_keeps_the_protocol_label() {
        let cells = obs_cells();
        let row = json::parse(&fig7_json(&cells[0], "4:2").expect("obs on")).expect("parses");
        assert_eq!(
            row.get("protocol").and_then(json::Value::as_str),
            Some("2L")
        );
        let fig7 = row.get("fig7").expect("nested categories");
        let sum: u64 = Fig7Cat::ALL
            .iter()
            .map(|c| {
                fig7.get(c.label())
                    .and_then(json::Value::as_u64)
                    .expect("category")
            })
            .sum();
        assert_eq!(Some(sum), row.get("total_ns").and_then(json::Value::as_u64));
    }

    #[test]
    fn chrome_doc_passes_the_lint_and_obs_off_cells_are_skipped() {
        let cells = obs_cells();
        let obs = cells[0].outcome.report.obs.as_ref().unwrap();
        let doc = chrome_doc(obs);
        assert!(chrome::lint(&doc).expect("lints clean") > 0);

        let apps = suite(Scale::Test);
        let apps = &apps[..1];
        let protocols = [ProtocolKind::TwoLevel];
        let plain = run_sweep(&SweepSpec::new(apps, &protocols), |_| {});
        assert!(fig7_json(&plain[0], "4:2").is_none());
        assert!(export_trace(&plain[0]).is_err());
    }

    #[test]
    fn sanitize_keeps_portable_names() {
        assert_eq!(sanitize("Water-Sp"), "Water-Sp");
        assert_eq!(sanitize("a b/c"), "a-b-c");
    }
}
