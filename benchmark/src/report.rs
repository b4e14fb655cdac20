//! What a run prints and writes: metric rows, the one-line result the
//! driver reads, `results.json` with its machine fingerprint, and the
//! declaration in `BENCHMARK.json` the output is held to.

use crate::stats::Samples;
use flexdist_json::{object, Value};
use std::path::Path;

/// A process runs at least this many timed rounds however short the
/// budget, so a median always has something to stand on.
const MIN_ROUNDS: usize = 3;

/// How long a mode keeps measuring.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Rounds while the next one is expected to end within this many
    /// seconds (and at least [`MIN_ROUNDS`]).
    Seconds(f64),
    /// Exactly this many rounds.
    Rounds(usize),
}

impl Budget {
    /// Whether to start another round after `done` rounds took
    /// `elapsed` seconds, the longest of them `longest`.
    #[must_use]
    pub fn another_round(self, done: usize, elapsed: f64, longest: f64) -> bool {
        match self {
            Self::Rounds(n) => done < n,
            Self::Seconds(s) => done < MIN_ROUNDS || elapsed + longest <= s,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Timed samples behind a median; 1 for counts and single readings.
    pub samples: usize,
}

impl Metric {
    /// Median of the samples recorded under `name`.
    #[must_use]
    pub fn timed(name: &'static str, unit: &'static str, samples: &Samples) -> Self {
        Self {
            name,
            unit,
            value: samples.median(name),
            samples: samples.count(name),
        }
    }

    /// A count, a deterministic figure or a single reading.
    #[must_use]
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value,
            samples: 1,
        }
    }
}

/// The human-readable rows, one per metric: `workload metric value unit
/// n=samples`. With so few samples a median is all that is reported;
/// there is no tail percentile to give.
#[must_use]
pub fn rows(workload: &str, metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "{workload} {} {} {} n={}\n",
                m.name,
                Value::from(m.value),
                m.unit,
                m.samples
            )
        })
        .collect()
}

/// The driver's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, on one line.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                object(vec![
                    ("value", Value::from(m.value)),
                    ("unit", Value::from(m.unit)),
                ]),
            )
        })
        .collect();
    object(vec![
        ("correct", Value::from(failed == 0)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("metrics", object(metrics)),
    ])
    .to_string()
}

/// Where and on what the numbers were taken. `rustc` and the commit
/// come from `run.sh` through the environment: the binary itself may
/// run where neither tool exists.
#[must_use]
pub fn fingerprint(seed: u64, budget: Budget, smoke: bool) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let (seconds, reps) = match budget {
        Budget::Seconds(s) => (Value::from(s), Value::Null),
        Budget::Rounds(n) => (Value::Null, Value::from(n)),
    };
    object(vec![
        ("nproc", Value::from(nproc)),
        ("workers", Value::from(nproc)),
        ("cpu_model", Value::from(cpu)),
        ("rustc", Value::from(env("BENCH_RUSTC"))),
        ("git_commit", Value::from(env("BENCH_GIT_COMMIT"))),
        ("seed", Value::from(seed)),
        ("seconds_per_run", seconds),
        ("reps", reps),
        ("smoke", Value::from(smoke)),
    ])
}

/// A bound as a percentage; the near-zero bound of an exact count
/// keeps its digits.
#[must_use]
pub fn percent(bound: f64) -> String {
    if bound >= 0.01 {
        format!("{:.0} %", bound * 100.0)
    } else {
        format!("{:.4} %", bound * 100.0)
    }
}

/// One declared metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclaredMetric {
    pub name: String,
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness checks itself against.
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<DeclaredMetric>,
    pub per_layer: Vec<DeclaredMetric>,
}

impl Declaration {
    /// # Errors
    /// Names the missing or ill-typed field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = flexdist_json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no array {key:?}"))
        };
        let string = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without string {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<DeclaredMetric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = string(m, "better")?;
                    if better != "lower" && better != "higher" {
                        return Err(format!("BENCHMARK.json: better = {better:?}"));
                    }
                    Ok(DeclaredMetric {
                        name: string(m, "name")?,
                        unit: string(m, "unit")?,
                        lower_is_better: better == "lower",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| string(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// # Errors
    /// Reports an unreadable file or what [`Declaration::parse`] rejects.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_budget_keeps_a_minimum_and_stops_before_overrunning() {
        let b = Budget::Seconds(10.0);
        assert!(b.another_round(0, 50.0, 50.0), "minimum rounds always run");
        assert!(b.another_round(3, 6.0, 3.0));
        assert!(
            !b.another_round(3, 8.0, 3.0),
            "a 3 s round would end at 11 s"
        );
        let r = Budget::Rounds(2);
        assert!(r.another_round(1, 1e9, 1e9));
        assert!(!r.another_round(2, 0.0, 0.0));
    }

    #[test]
    fn result_line_parses_and_has_exactly_the_contract_keys() {
        let metrics = [
            Metric::exact("wire_bytes", "bytes", 76_095_810.0),
            Metric::exact("setup_s", "s", 0.031_234_567_891),
        ];
        let line = result_line(12, 0, &metrics);
        assert!(!line.contains('\n'));
        let doc = flexdist_json::parse(&line).unwrap();
        let Value::Object(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(12));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(
            setup.get("value").and_then(Value::as_f64),
            Some(0.031_234_567_891),
            "all digits survive"
        );
        let failed = flexdist_json::parse(&result_line(3, 1, &metrics)).unwrap();
        assert_eq!(failed.get("correct").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn rows_name_workload_metric_value_unit_and_sample_count() {
        let mut s = Samples::default();
        for v in [0.5, 0.25, 1.0] {
            s.push("shm_wall_s", v);
        }
        let text = rows("w", &[Metric::timed("shm_wall_s", "s", &s)]);
        assert_eq!(text, "w shm_wall_s 0.5 s n=3\n");
    }

    #[test]
    fn declaration_reads_bounds_and_directions() {
        let d = Declaration::parse(
            r#"{"run_seconds": 7, "workloads": [{"name": "a", "why": "x"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "k.gf", "unit": "GF/s", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(d.run_seconds, 7);
        assert_eq!(d.workloads, ["a"]);
        assert_eq!(d.end_to_end[0].bound, Some(0.25));
        assert!(d.end_to_end[0].lower_is_better);
        assert!(!d.per_layer[0].lower_is_better);
        assert_eq!(d.per_layer[0].bound, None);
        assert!(Declaration::parse(r#"{"run_seconds": 1}"#).is_err());
    }
}
