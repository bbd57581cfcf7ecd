//! The suite: every workload, each in a process of its own (so that peak
//! RSS, allocator state and thread placement of one never leak into the
//! next), with the traced runs and the self-check as options; and the
//! generator of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use pure_core::util::json::Json;

use crate::spec::{MetricDef, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{Args, RUN_SECONDS};

/// `BENCHMARK.json`, generated from [`crate::spec`] so the two cannot
/// disagree (`tests::checked_in_benchmark_json_is_the_generated_one` checks
/// the file).
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [\"bash\", \"benchmark/run.sh\"],");
    let _ = writeln!(out, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let list = |out: &mut String, key: &str, items: Vec<String>, last: bool| {
        let _ = writeln!(out, "  \"{key}\": [");
        let _ = writeln!(out, "    {}", items.join(",\n    "));
        let _ = writeln!(out, "  ]{}", if last { "" } else { "," });
    };
    let s = |v: &str| Json::Str(v.to_string()).to_string();
    list(
        &mut out,
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": {}, \"why\": {}}}", s(w.name), s(w.why)))
            .collect(),
        false,
    );
    list(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    s(m.name),
                    s(m.unit),
                    s(m.better.word()),
                    m.bound
                )
            })
            .collect(),
        false,
    );
    list(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    s(m.name),
                    s(m.unit),
                    s(m.better.word())
                )
            })
            .collect(),
        true,
    );
    out.push_str("}\n");
    out
}

/// Everything declared, with its definition: the workloads and why each
/// exists, the end-to-end metrics and their bounds, and for every per-layer
/// metric the prediction of what it should move.
pub fn listing() -> String {
    let mut out = String::from("workloads (closed loop, 2 ranks = 2 threads):\n");
    for w in &WORKLOADS {
        let _ = writeln!(out, "  {:<24} {}", w.name, w.why);
    }
    out.push_str("\nend-to-end metrics (untraced run):\n");
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "  {:<16} {:<6} {:<7} bound {:>3.0} %  {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound * 100.0,
            m.note
        );
    }
    out.push_str("\nper-layer metrics (traced run) and what each should move:\n");
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<40} {:<6} {:<7} {}",
            m.name,
            m.unit,
            m.better.word(),
            m.note
        );
    }
    out
}

/// What the suite keeps of one child run.
struct Child {
    /// metric -> (value, in-run IQR share).
    metrics: BTreeMap<String, (f64, f64)>,
    attempted: f64,
    failed: f64,
    correct: bool,
}

/// Run one workload in a child process, echo what it printed, and parse its
/// result line and its `#iqr` line.
fn run_child(w: &Workload, args: &Args, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.unwrap_or(f64::from(RUN_SECONDS)).to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    let mut iqr: BTreeMap<String, f64> = BTreeMap::new();
    for l in &lines {
        match l.strip_prefix("#iqr ") {
            Some(j) => {
                if let Some(o) = Json::parse(j).ok().as_ref().and_then(Json::as_obj) {
                    iqr = o
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect();
                }
            }
            None => println!("{l}"),
        }
    }
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}: {}",
            w.name,
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr)
                .lines()
                .last()
                .unwrap_or("")
        ));
    }
    let doc = Json::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(k, v)| {
            let value = v.get("value")?.as_f64()?;
            Some((k.clone(), (value, iqr.get(k).copied().unwrap_or(0.0))))
        })
        .collect();
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    Ok(Child {
        metrics,
        attempted: num("attempted"),
        failed: num("failed"),
        correct: doc.get("correct") == Some(&Json::Bool(true)),
    })
}

fn metrics_json(c: &Child, declared: &[MetricDef]) -> Json {
    Json::Obj(
        declared
            .iter()
            .filter_map(|d| {
                let (value, iqr) = *c.metrics.get(d.name)?;
                Some((
                    d.name.to_string(),
                    Json::Obj(BTreeMap::from([
                        ("value".to_string(), Json::Num(value)),
                        ("unit".to_string(), Json::Str(d.unit.to_string())),
                        ("block_iqr_share".to_string(), Json::Num(iqr)),
                    ])),
                ))
            })
            .collect(),
    )
}

/// One pass over every workload, untraced (and traced when asked).
fn pass(
    args: &Args,
    trace: bool,
) -> Result<BTreeMap<&'static str, (Child, Option<Child>)>, String> {
    let mut out = BTreeMap::new();
    for w in &WORKLOADS {
        let e2e = run_child(w, args, false)?;
        let layers = if trace {
            Some(run_child(w, args, true)?)
        } else {
            None
        };
        out.insert(w.name, (e2e, layers));
    }
    Ok(out)
}

/// Compare two untraced passes: every end-to-end metric of every workload
/// must agree within its own bound. Returns the report and the verdict.
fn selfcheck_report(
    a: &BTreeMap<&'static str, (Child, Option<Child>)>,
    b: &BTreeMap<&'static str, (Child, Option<Child>)>,
) -> (String, bool) {
    let mut text = String::from(
        "# selfcheck: two untraced passes of the same code and seed\n\n\
         A metric agrees when the two passes differ by no more than its bound, as a\n\
         share of the first. `IQR 1/2` is each pass's own spread over its blocks.\n\n\
         | workload | metric | pass 1 | pass 2 | differ | bound | IQR 1 | IQR 2 | |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    let mut all_ok = true;
    for w in &WORKLOADS {
        let (Some((x, _)), Some((y, _))) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        for d in &END_TO_END {
            let (Some(&(v1, i1)), Some(&(v2, i2))) = (x.metrics.get(d.name), y.metrics.get(d.name))
            else {
                continue;
            };
            let differ = (v2 - v1).abs() / v1.abs();
            let ok = differ <= d.bound;
            all_ok &= ok;
            let _ = writeln!(
                text,
                "| {} | {} | {} | {} | {:.1} % | {:.0} % | {:.1} % | {:.1} % | {} |",
                w.name,
                d.name,
                crate::report::fmt_value(v1),
                crate::report::fmt_value(v2),
                differ * 100.0,
                d.bound * 100.0,
                i1 * 100.0,
                i2 * 100.0,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    let _ = writeln!(
        text,
        "\nverdict: {}",
        if all_ok { "agree" } else { "DISAGREE" }
    );
    (text, all_ok)
}

/// Run the suite as `args` ask and print the summary; the summary is one
/// JSON object whose last member is `"claim": null` — the benchmark
/// measures, it claims nothing.
pub fn run(args: &Args) -> ExitCode {
    println!(
        "# pure-benchmark suite: seed {} | {} s per run{} | {}",
        args.seed,
        args.run_seconds(),
        if args.smoke {
            " | SMOKE: numbers are not comparable"
        } else {
            ""
        },
        if args.selfcheck {
            "selfcheck: two untraced passes"
        } else if args.trace {
            "untraced + traced"
        } else {
            "untraced"
        },
    );
    let first = match pass(args, args.trace && !args.selfcheck) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pure-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = first
        .values()
        .all(|(e, l)| e.correct && l.as_ref().is_none_or(|l| l.correct));
    let mut selfcheck = Json::Null;
    if args.selfcheck {
        let second = match pass(args, false) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("pure-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        };
        ok &= second.values().all(|(e, _)| e.correct);
        let (text, agree) = selfcheck_report(&first, &second);
        print!("{text}");
        let path = args.out_dir.join("selfcheck.md");
        if let Err(e) =
            std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, &text))
        {
            eprintln!("pure-benchmark: could not write {}: {e}", path.display());
        } else {
            println!("selfcheck report written to {}", path.display());
        }
        ok &= agree;
        selfcheck = Json::Str(if agree { "agree" } else { "disagree" }.to_string());
    }

    let workloads: BTreeMap<String, Json> = first
        .iter()
        .map(|(name, (e, l))| {
            let mut o = BTreeMap::from([
                ("end_to_end".to_string(), metrics_json(e, &END_TO_END)),
                ("attempted".to_string(), Json::Num(e.attempted)),
                ("failed".to_string(), Json::Num(e.failed)),
                (
                    "failed_share".to_string(),
                    Json::Num(e.failed / e.attempted.max(1.0)),
                ),
                ("correct".to_string(), Json::Bool(e.correct)),
            ]);
            if let Some(l) = l {
                o.insert("per_layer".to_string(), metrics_json(l, &PER_LAYER));
                o.insert("per_layer_correct".to_string(), Json::Bool(l.correct));
            }
            (name.to_string(), Json::Obj(o))
        })
        .collect();
    let summary = Json::Obj(BTreeMap::from([
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("run_seconds".to_string(), Json::Num(args.run_seconds())),
        ("comparable".to_string(), Json::Bool(!args.smoke)),
        ("selfcheck".to_string(), selfcheck),
        ("workloads".to_string(), Json::Obj(workloads)),
    ]))
    .to_string();
    // Keys serialize sorted; the claim is appended so that it comes last.
    println!("{},\"claim\":null}}", &summary[..summary.len() - 1]);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_benchmark_json_has_exactly_the_contract_keys() {
        let doc = Json::parse(&benchmark_json()).expect("valid JSON");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(benchmark_json().len() < 64 * 1024);
        for e in doc.get("per_layer").and_then(Json::as_arr).unwrap() {
            let k: Vec<&str> = e.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(k, ["better", "name", "unit"]);
        }
        for e in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let k: Vec<&str> = e.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(k, ["better", "bound", "name", "unit"]);
        }
    }

    /// The checked-in file is the generated one, byte for byte.
    #[test]
    fn checked_in_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
    }
}
