//! Two result sets of the same build, judged against the bounds the
//! benchmark declares for itself.

use crate::report::{percent, Declaration};
use crate::stats::rel_diff;
use flexdist_json::Value;
use std::fmt::Write as _;

/// Counts and model outputs that no scheduler, clock or allocator can
/// move: two sets of one build must agree on them exactly.
const EXACT: [&str; 13] = [
    "wire_bytes",
    "core.pattern_cost",
    "dist.comm_volume_tiles",
    "dist.eq_estimate_rel_err",
    "factor.dexec_rank_task_imbalance",
    "net.wire_msgs",
    "net.recovered_msgs",
    "verify.deliveries",
    "verify.min_capacity",
    "verify.peak_tiles_max",
    "runtime.graph_tasks",
    "runtime.sim_events",
    "runtime.sim_makespan_s",
];

fn metric(set: &Value, workload: &str, section: &str, name: &str) -> Option<f64> {
    set.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))?
        .get(section)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// The same metric out of both sets.
fn pair(
    sets: [&Value; 2],
    workload: &str,
    section: &str,
    name: &str,
) -> Result<(f64, f64), String> {
    let get = |which: usize| {
        metric(sets[which], workload, section, name)
            .ok_or_else(|| format!("set {} has no {workload} {name}", which + 1))
    };
    Ok((get(0)?, get(1)?))
}

/// Compare set `b` against set `a`. Returns the markdown report and
/// whether every end-to-end metric stayed within its bound and every
/// exact figure agreed.
///
/// # Errors
/// Names a declared metric that a set does not hold.
pub fn compare(a: &Value, b: &Value, decl: &Declaration) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "| workload | metric | set 1 | set 2 | worse by | bound | verdict |\n|---|---|---|---|---|---|---|"
    );
    for workload in &decl.workloads {
        for m in &decl.end_to_end {
            let (va, vb) = pair([a, b], workload, "end_to_end", &m.name)?;
            // Positive = set 2 is worse, whichever way the metric points.
            let worse = if m.lower_is_better {
                rel_diff(va, vb)
            } else {
                rel_diff(vb, va)
            };
            let bound = m.bound.unwrap_or(0.0);
            // Two sets of one build have no "parent": either may be the
            // slower one, so the distance is judged both ways.
            let within = worse.abs() <= bound;
            ok &= within;
            let _ = writeln!(
                out,
                "| {workload} | {} | {va} | {vb} | {:+.2} % | {} | {} |",
                m.name,
                worse * 100.0,
                percent(bound),
                if within { "ok" } else { "OUTSIDE" }
            );
        }
    }
    let _ = writeln!(
        out,
        "\n| workload | exact figure | set 1 | set 2 | verdict |\n|---|---|---|---|---|"
    );
    for workload in &decl.workloads {
        for name in EXACT {
            let section = if decl.end_to_end.iter().any(|m| m.name == name) {
                "end_to_end"
            } else {
                "per_layer"
            };
            let (va, vb) = pair([a, b], workload, section, name)?;
            let same = va.to_bits() == vb.to_bits();
            ok &= same;
            let _ = writeln!(
                out,
                "| {workload} | {name} | {va} | {vb} | {} |",
                if same { "equal" } else { "DIFFERENT" }
            );
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::DeclaredMetric;
    use flexdist_json::object;

    fn set(shm: f64, wire: f64) -> Value {
        let value = |v: f64| object(vec![("value", Value::from(v)), ("unit", Value::from("x"))]);
        let exact: Vec<(&str, Value)> = EXACT.iter().map(|n| (*n, value(wire))).collect();
        object(vec![(
            "workloads",
            Value::Array(vec![object(vec![
                ("name", Value::from("w")),
                (
                    "end_to_end",
                    object(vec![(
                        "metrics",
                        object(vec![
                            ("shm_wall_s", value(shm)),
                            ("wire_bytes", value(wire)),
                        ]),
                    )]),
                ),
                ("per_layer", object(vec![("metrics", object(exact))])),
            ])]),
        )])
    }

    fn decl() -> Declaration {
        let m = |name: &str, bound| DeclaredMetric {
            name: name.to_string(),
            unit: "x".to_string(),
            lower_is_better: true,
            bound: Some(bound),
        };
        Declaration {
            run_seconds: 1,
            workloads: vec!["w".to_string()],
            end_to_end: vec![m("shm_wall_s", 0.10), m("wire_bytes", 0.0)],
            per_layer: Vec::new(),
        }
    }

    #[test]
    fn within_bound_passes_and_outside_fails() {
        let (text, ok) = compare(&set(1.0, 5.0), &set(1.05, 5.0), &decl()).unwrap();
        assert!(ok, "{text}");
        assert!(text.contains("+5.00 %"));
        let (text, ok) = compare(&set(1.0, 5.0), &set(1.2, 5.0), &decl()).unwrap();
        assert!(!ok);
        assert!(text.contains("OUTSIDE"));
        let (_, ok) = compare(&set(1.2, 5.0), &set(1.0, 5.0), &decl()).unwrap();
        assert!(!ok, "judged both ways");
    }

    #[test]
    fn exact_figures_must_agree_to_the_bit() {
        let (text, ok) = compare(&set(1.0, 5.0), &set(1.0, 6.0), &decl()).unwrap();
        assert!(!ok);
        assert!(text.contains("DIFFERENT"));
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let empty = object(vec![("workloads", Value::Array(Vec::new()))]);
        assert!(compare(&empty, &set(1.0, 5.0), &decl()).is_err());
    }
}
