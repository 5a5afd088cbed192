//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero when any cell failed.

use std::process::ExitCode;

use cashmere_apps::Scale;
use cashmere_perfbench::cells::Workload;
use cashmere_perfbench::run::{run, Options};

/// Where the traced run writes its spans, relative to the working
/// directory (the checkout root).
const SPAN_DIR: &str = "perfbench/out";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::Paper32x4,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Bench,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected seconds >= 0"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The free engine must stay free: this variable would opt every
    // cluster without an explicit choice into the det engine. Removed
    // before any thread starts.
    std::env::remove_var("CASHMERE_PROC_WORKERS");

    let out = run(&opts);
    let mut ok = out.correct;
    for (name, value, unit) in out.metrics.iter() {
        println!("metric {name} {value} {unit}");
    }
    if opts.trace {
        let path = format!(
            "{SPAN_DIR}/{}-seed{}.trace.json",
            opts.workload.name(),
            opts.seed
        );
        let written = std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, out.spans.to_chrome_json(&out.envelope)));
        match written {
            Ok(()) => println!("spans: {} written to {path}", out.spans.len()),
            Err(e) => {
                println!("spans: writing {path} failed: {e}");
                ok = false;
            }
        }
    }
    println!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
