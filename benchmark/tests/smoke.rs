//! The harness against its own declaration: what `--smoke` emits is
//! exactly what `BENCHMARK.json` declares, and what it writes parses.

use flexdist_json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_flexdist-benchmark");

fn declaration() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits beside benchmark/");
    flexdist_json::parse(&text).expect("BENCHMARK.json parses")
}

fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(name, unit)` of every entry of a declared metric list.
fn declared(decl: &Value, list: &str) -> BTreeSet<(String, String)> {
    decl.get(list)
        .and_then(Value::as_array)
        .expect("declared list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric of a result object.
fn emitted(result: &Value) -> BTreeSet<(String, String)> {
    let Some(Value::Object(pairs)) = result.get("metrics") else {
        panic!("result without metrics")
    };
    pairs
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no value"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn smoke_emits_exactly_what_is_declared() {
    let out = out_dir("smoke_all");
    let run = Command::new(EXE)
        .args(["--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark starts");
    assert!(
        run.status.success(),
        "--smoke failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let decl = declaration();
    let text = std::fs::read_to_string(out.join("results.json")).expect("results.json written");
    let results = flexdist_json::parse(&text).expect("results.json parses");
    let fingerprint = results.get("fingerprint").expect("fingerprint");
    for key in [
        "nproc",
        "workers",
        "cpu_model",
        "rustc",
        "git_commit",
        "seed",
        "reps",
    ] {
        assert!(fingerprint.get(key).is_some(), "fingerprint lacks {key}");
    }

    let workloads = results.get("workloads").and_then(Value::as_array).unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    let declared_names: Vec<&str> = decl
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, declared_names);

    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).unwrap();
        // Sections of results.json carry the names of the declared lists.
        for section in ["end_to_end", "per_layer"] {
            let result = w.get(section).expect("both modes ran");
            assert_eq!(
                emitted(result),
                declared(&decl, section),
                "{name}: {section} metrics differ from BENCHMARK.json"
            );
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{name} {section}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        }

        // The span file of the traced run: ids are positions, every
        // parent exists and starts no later than its child.
        let trace =
            std::fs::read_to_string(out.join(format!("{name}.trace.json"))).expect("span file");
        let trace = flexdist_json::parse(&trace).expect("span file parses");
        let harness = trace.get("harness").unwrap();
        assert_eq!(harness.get("trace_id").and_then(Value::as_str), Some(name));
        let spans = harness.get("spans").and_then(Value::as_array).unwrap();
        assert!(spans.len() > 20, "{name}: only {} spans", spans.len());
        for (id, span) in spans.iter().enumerate() {
            assert_eq!(span.get("id").and_then(Value::as_u64), Some(id as u64));
            let start = span.get("start_s").and_then(Value::as_f64).unwrap();
            assert!(span.get("end_s").and_then(Value::as_f64).unwrap() >= start);
            if let Some(parent) = span.get("parent").and_then(Value::as_u64) {
                let parent = &spans[parent as usize];
                assert!(parent.get("start_s").and_then(Value::as_f64).unwrap() <= start);
            }
        }
    }
}

#[test]
fn one_workload_ends_with_the_contract_result_line() {
    let out = out_dir("smoke_one");
    let run = Command::new(EXE)
        .args([
            "--workload",
            "lu_g2dbc_p7_fine",
            "--smoke",
            "--trace",
            "0",
            "--seed",
            "3",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("benchmark starts");
    assert!(run.status.success());
    let stdout = String::from_utf8(run.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    let Value::Object(pairs) = flexdist_json::parse(last).expect("result line parses") else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    // Socket files and directories are gone when the run ends.
    let left: Vec<_> = std::fs::read_dir(&out).unwrap().collect();
    assert!(left.is_empty(), "left behind: {left:?}");
}

#[test]
fn an_unknown_workload_prints_no_result_and_fails() {
    let run = Command::new(EXE)
        .args(["--workload", "no_such_workload", "--trace", "0", "--out"])
        .arg(out_dir("unknown"))
        .output()
        .expect("benchmark starts");
    assert!(!run.status.success());
    assert!(run.stdout.is_empty());
    assert!(String::from_utf8_lossy(&run.stderr).contains("no_such_workload"));
}
