//! Harness smoke test: every workload at toy size (TINY preset, a
//! 2 000-entity scale world), each in its own process, prints every
//! metric `BENCHMARK.json` declares with its unit; a correctness check
//! fed a wrong digest fails the run.

use std::path::Path;
use std::process::{Command, Output};

use remp_json::Json;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (Output, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_crowdbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "toy"])
        .args(extra)
        .output()
        .expect("crowdbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!("{workload}: no output; stderr:\n{}", String::from_utf8_lossy(&out.stderr))
    });
    let result = Json::parse(last).expect("last line is JSON");
    (out, result)
}

fn assert_reports(workload: &str, trace: bool, key: &str) {
    let (out, result) = run(workload, 42, trace, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace={trace} failed:\n{stderr}");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{stderr}");
    assert!(result.get("attempted").and_then(Json::as_u64).is_some_and(|n| n >= 1));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = result.get("metrics").and_then(Json::as_object).expect("metrics object");
    let expected = declared(&benchmark_json(), key);
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} has a value");
            (name.clone(), m.get("unit").and_then(Json::as_str).expect("unit").to_owned())
        })
        .collect();
    assert_eq!(printed, expected, "{workload}: printed metrics differ from BENCHMARK.json");
    if trace {
        assert!(stderr.contains("unattributed"), "traced run prints its attribution table");
    }
}

#[test]
fn benchmark_json_names_the_workloads() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, ["campaign-da", "campaign-iy", "serve-da", "scale-1e5"]);
}

#[test]
fn campaign_da_reports_every_metric() {
    assert_reports("campaign-da", false, "end_to_end");
    assert_reports("campaign-da", true, "per_layer");
}

#[test]
fn campaign_iy_reports_every_metric() {
    assert_reports("campaign-iy", false, "end_to_end");
    assert_reports("campaign-iy", true, "per_layer");
}

#[test]
fn serve_da_reports_every_metric() {
    assert_reports("serve-da", false, "end_to_end");
    assert_reports("serve-da", true, "per_layer");
}

#[test]
fn scale_reports_every_metric() {
    assert_reports("scale-1e5", false, "end_to_end");
    assert_reports("scale-1e5", true, "per_layer");
}

#[test]
fn a_wrong_digest_fails_the_run() {
    for workload in ["campaign-da", "scale-1e5"] {
        let (out, result) = run(workload, 7, false, &["--expect-digest", "1"]);
        assert_eq!(out.status.code(), Some(1), "{workload} must exit 1 on a failed check");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
        let attempted = result.get("attempted").and_then(Json::as_u64);
        assert_eq!(result.get("failed").and_then(Json::as_u64), attempted);
        let ok = result.get("metrics").and_then(|m| m.get("ok_frac")).and_then(|m| m.get("value"));
        assert_eq!(
            ok.and_then(Json::as_f64),
            Some(0.0),
            "{workload}: a failed run counts as failed"
        );
    }
}
