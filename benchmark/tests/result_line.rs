//! Drives the built binary the way the driver does and checks the result
//! line against `BENCHMARK.json`: the names the binary prints are the names
//! the file declares, none missing and none extra, in both trace modes.

use std::collections::BTreeSet;
use std::process::Command;

use pure_core::util::json::Json;

fn declared(doc: &Json, key: &str) -> BTreeSet<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Run one short workload run and return its parsed result line.
fn run(workload: &str, trace: &str, out_dir: &std::path::Path) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_pure-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("spawn pure-benchmark");
    assert!(
        out.status.success(),
        "exit {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    Json::parse(text.lines().last().expect("some output")).expect("last line is JSON")
}

fn printed(result: &Json) -> BTreeSet<(String, String)> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no number"
            );
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            (name.clone(), unit)
        })
        .collect()
}

#[test]
fn printed_names_are_the_declared_names_in_both_trace_modes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));

    let untraced = run("intra_pingpong_8B", "0", out_dir);
    let keys: Vec<&str> = untraced
        .as_obj()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(untraced.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(untraced.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(untraced.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(printed(&untraced), declared(&doc, "end_to_end"));

    let traced = run("intra_pingpong_8B", "1", out_dir);
    assert_eq!(traced.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(printed(&traced), declared(&doc, "per_layer"));

    // The traced run left a Chrome trace behind (that the format parses is
    // a unit test of `spans::chrome_trace`; this file is megabytes long).
    let trace = std::fs::read_to_string(out_dir.join("intra_pingpong_8B.trace.json"))
        .expect("trace file written");
    assert!(trace.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    assert!(trace.trim_end().ends_with("]}"));
    assert!(trace.matches("\"ph\":\"X\"").count() > 100);
}
