//! What a run reports: named values with their units and their own noise,
//! the failure account, and the one-line JSON result the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pure_core::util::json::Json;

use crate::spec::MetricDef;

/// One measured value.
#[derive(Clone, Debug)]
pub struct Measured {
    /// The value, as measured.
    pub value: f64,
    /// Spread inside the run (inter-quartile distance over blocks or
    /// launches, as a share of the median); 0 where there is none.
    pub iqr_share: f64,
    /// What the value was taken over (sample counts, bases of ratios).
    pub basis: String,
}

impl Measured {
    /// A value with its spread and basis.
    pub fn new(value: f64, iqr_share: f64, basis: String) -> Self {
        Self {
            value,
            iqr_share,
            basis,
        }
    }

    /// A value that is a single count or ratio, with no spread of its own.
    pub fn plain(value: f64, basis: impl Into<String>) -> Self {
        Self::new(value, 0.0, basis.into())
    }
}

/// The failure account of a run.
#[derive(Clone, Debug, Default)]
pub struct Failures {
    /// Ops attempted, warm-up included; ops an aborted launch never got to
    /// are counted as attempted and failed.
    pub attempted: u64,
    /// Ops that failed validation, timed out, or were lost to an abort.
    pub failed: u64,
    /// A check other than per-op validation failed (pool balance, CoMD
    /// Pure/baseline equality).
    pub wrong: bool,
    /// What went wrong, for the human reader.
    pub notes: Vec<String>,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Metric name -> value.
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Failure account.
    pub fails: Failures,
}

impl RunResult {
    /// An empty result carrying `fails`.
    pub fn new(fails: Failures) -> Self {
        Self {
            metrics: BTreeMap::new(),
            fails,
        }
    }

    /// Record metric `name`.
    pub fn push(&mut self, name: &'static str, m: Measured) {
        self.metrics.insert(name, m);
    }

    /// True when every output checked out.
    pub fn correct(&self) -> bool {
        self.fails.failed == 0 && !self.fails.wrong
    }

    /// Failed ops as a share of the ops attempted.
    pub fn failed_share(&self) -> f64 {
        self.fails.failed as f64 / self.fails.attempted.max(1) as f64
    }

    /// The declared metrics this result lacks, and the ones it has that
    /// were never declared.
    pub fn name_mismatch(&self, declared: &[MetricDef]) -> (Vec<&'static str>, Vec<&'static str>) {
        let missing = declared
            .iter()
            .map(|d| d.name)
            .filter(|n| !self.metrics.contains_key(n))
            .collect();
        let extra = self
            .metrics
            .keys()
            .copied()
            .filter(|n| declared.iter().all(|d| d.name != *n))
            .collect();
        (missing, extra)
    }

    /// One line per declared metric: name, value, unit, spread, basis.
    pub fn table(&self, declared: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in declared {
            let Some(m) = self.metrics.get(d.name) else {
                continue;
            };
            let spread = if m.iqr_share > 0.0 {
                format!("IQR {:5.1} %", m.iqr_share * 100.0)
            } else {
                " ".repeat(11)
            };
            let _ = writeln!(
                out,
                "  {:<40} {:>16} {:<6} {spread}  {}",
                d.name,
                fmt_value(m.value),
                d.unit,
                m.basis
            );
        }
        out
    }

    /// Each metric's in-run spread, for the suite's self-check report.
    pub fn iqr_line(&self) -> String {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(n, m)| (n.to_string(), Json::Num(m.iqr_share)))
                .collect(),
        )
        .to_string()
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    pub fn json_line(&self, declared: &[MetricDef]) -> String {
        let metrics: BTreeMap<String, Json> = declared
            .iter()
            .filter_map(|d| {
                let m = self.metrics.get(d.name)?;
                let entry = BTreeMap::from([
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(d.unit.to_string())),
                ]);
                Some((d.name.to_string(), Json::Obj(entry)))
            })
            .collect();
        let doc = BTreeMap::from([
            ("correct".to_string(), Json::Bool(self.correct())),
            (
                "attempted".to_string(),
                Json::Num(self.fails.attempted as f64),
            ),
            ("failed".to_string(), Json::Num(self.fails.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]);
        Json::Obj(doc).to_string()
    }
}

/// A value with enough digits to read and compare by eye.
pub fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 {
        "0".into()
    } else if a >= 1e6 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};

    fn full(declared: &[MetricDef]) -> RunResult {
        let mut r = RunResult::new(Failures {
            attempted: 10,
            ..Failures::default()
        });
        for (i, d) in declared.iter().enumerate() {
            r.push(d.name, Measured::plain(1.5 + i as f64, "test"));
        }
        r
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_declared_metric() {
        for declared in [&END_TO_END[..], &PER_LAYER[..]] {
            let r = full(declared);
            let doc = Json::parse(&r.json_line(declared)).expect("valid JSON");
            let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let got: Vec<&str> = doc
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            let mut want: Vec<&str> = declared.iter().map(|d| d.name).collect();
            want.sort_unstable();
            assert_eq!(got, want);
            assert_eq!(r.name_mismatch(declared), (vec![], vec![]));
        }
    }

    #[test]
    fn missing_and_extra_names_are_both_reported() {
        let mut r = full(&END_TO_END);
        r.metrics.remove("op_p99_us");
        r.push("not.declared", Measured::plain(1.0, "test"));
        let (missing, extra) = r.name_mismatch(&END_TO_END);
        assert_eq!(missing, ["op_p99_us"]);
        assert_eq!(extra, ["not.declared"]);
    }

    #[test]
    fn a_failed_op_or_a_failed_check_makes_the_run_incorrect() {
        let mut r = full(&END_TO_END);
        assert!(r.correct());
        r.fails.failed = 1;
        assert!(!r.correct());
        assert_eq!(r.failed_share(), 0.1);
        r.fails.failed = 0;
        r.fails.wrong = true;
        assert!(!r.correct());
    }
}
