//! The benchmark against its own contract: small (`Scale::Test`) runs of
//! every workload, timed and traced, finish quickly, report every cell
//! correct, and emit exactly the metrics `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::time::Instant;

use cashmere_apps::Scale;
use cashmere_obs::json::{parse, Value};
use cashmere_perfbench::cells::Workload;
use cashmere_perfbench::run::{run, Options};
use cashmere_perfbench::stats::valid_name;
use cashmere_perfbench::END_TO_END;

/// `BENCHMARK.json` at the repository root.
fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    parse(&text).expect("BENCHMARK.json parses")
}

/// The `name`s of one metric list of `BENCHMARK.json`.
fn declared(doc: &Value, list: &str) -> BTreeSet<String> {
    doc.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> BTreeSet<String> {
    let t = Instant::now();
    let out = run(&Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Test,
    });
    let took = t.elapsed().as_secs_f64();
    assert!(
        out.correct && out.failed == 0 && out.attempted > 0,
        "{} trace={trace}: {} of {} failed",
        workload.name(),
        out.failed,
        out.attempted
    );
    assert!(
        took < 30.0,
        "{} trace={trace} took {took:.1} s",
        workload.name()
    );
    if trace {
        assert!(!out.spans.is_empty());
    }
    out.metrics.iter().map(|(n, _, _)| n.to_string()).collect()
}

#[test]
fn every_workload_runs_correctly_and_emits_the_declared_metrics() {
    let doc = benchmark_json();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    assert_eq!(
        end_to_end,
        END_TO_END.iter().map(|s| (*s).to_string()).collect(),
        "END_TO_END and BENCHMARK.json disagree"
    );
    for w in Workload::ALL {
        assert_eq!(smoke(w, false), end_to_end, "{} timed", w.name());
        assert_eq!(smoke(w, true), per_layer, "{} traced", w.name());
    }
}

#[test]
fn declared_names_and_workloads_follow_the_contract() {
    let doc = benchmark_json();
    for list in ["end_to_end", "per_layer"] {
        for name in declared(&doc, list) {
            assert!(valid_name(&name), "{list} metric {name:?}");
        }
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for w in &workloads {
        assert!(valid_name(w), "workload {w:?}");
    }
}
