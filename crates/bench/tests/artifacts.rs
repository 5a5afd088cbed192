//! Every committed artifact parses as JSON: each `BENCH_*.json` at the
//! repository root and each line of `results/*.jsonl`. A reader looks
//! fields up by key, so no object may repeat a key (a repeated key makes
//! `Value::get` return whichever copy the parser kept).

use std::path::{Path, PathBuf};

use cashmere_obs::json::{parse, Value};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Files in `dir` whose names start with `prefix` and end with `suffix`.
fn files(dir: &Path, prefix: &str, suffix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(suffix))
        })
        .collect();
    out.sort();
    out
}

/// The path of the first object (depth-first) that repeats a key.
fn duplicate_key(v: &Value, at: &str) -> Option<String> {
    match v {
        Value::Obj(fields) => fields.iter().enumerate().find_map(|(i, (k, x))| {
            if fields[..i].iter().any(|(seen, _)| seen == k) {
                Some(format!("{at}.{k}"))
            } else {
                duplicate_key(x, &format!("{at}.{k}"))
            }
        }),
        Value::Arr(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, x)| duplicate_key(x, &format!("{at}[{i}]"))),
        _ => None,
    }
}

fn assert_valid(doc: &str, origin: &str) {
    let v = parse(doc).unwrap_or_else(|e| panic!("{origin}: not valid JSON: {e}"));
    if let Some(path) = duplicate_key(&v, "") {
        panic!("{origin}: duplicate key at {path}");
    }
}

#[test]
fn bench_files_parse_without_duplicate_keys() {
    let benches = files(&root(), "BENCH_", ".json");
    assert!(
        !benches.is_empty(),
        "no BENCH_*.json at the repository root"
    );
    for path in benches {
        let doc = std::fs::read_to_string(&path).expect("read BENCH file");
        assert_valid(&doc, &path.display().to_string());
    }
}

#[test]
fn results_rows_parse_without_duplicate_keys() {
    let results = files(&root().join("results"), "", ".jsonl");
    assert!(!results.is_empty(), "no results/*.jsonl");
    for path in results {
        let doc = std::fs::read_to_string(&path).expect("read results file");
        for (i, line) in doc.lines().enumerate() {
            assert_valid(line, &format!("{}:{}", path.display(), i + 1));
        }
    }
}

#[test]
fn duplicate_keys_are_detected_at_any_depth() {
    let dup = parse(r#"{"a":[{"protocol":"2L","protocol":1}]}"#).unwrap();
    assert_eq!(duplicate_key(&dup, "").as_deref(), Some(".a[0].protocol"));
    let clean = parse(r#"{"protocol":"2L","fig7":{"protocol":1}}"#).unwrap();
    assert_eq!(duplicate_key(&clean, ""), None);
}
