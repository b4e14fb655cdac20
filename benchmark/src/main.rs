//! `flexdist-benchmark`: one closed-loop process per workload that runs
//! a pinned problem through every stage a user of flexdist pays for
//! (plan, verify, simulate, factor five ways) and times each stage
//! from outside, around the calls into the layers' public functions.
//!
//! ```text
//! flexdist-benchmark --workload NAME --trace 0|1 [--seed N] [--seconds S | --reps N] [--smoke] [--out DIR]
//! flexdist-benchmark [--seed N] [--seconds S | --reps N] [--smoke] [--out DIR]     every workload, both modes
//! flexdist-benchmark compare SET1.json SET2.json [--declaration BENCHMARK.json]
//! flexdist-benchmark steady [--runs N] [--workload NAME]                          spread over N seeds
//! ```
//!
//! With `--workload` the last line of stdout is the result object the
//! driver reads. `--trace 0` reports the end-to-end metrics with the
//! program's tracing off; `--trace 1` reports the per-layer metrics and
//! writes the harness's spans to `<out>/<workload>.trace.json`.

mod compare;
mod endtoend;
mod layers;
mod micro;
mod report;
mod run;
mod spans;
mod stats;
mod workload;

use flexdist_json::{object, Value};
use report::{Budget, Declaration};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::{Workload, WORKLOADS};

/// Measuring time of one run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    budget: Budget,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    declaration: PathBuf,
    /// Seeds per workload of the `steady` subcommand.
    runs: u64,
    /// Positional arguments (a subcommand and its files).
    positional: Vec<String>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Self {
            workload: None,
            seed: 1,
            budget: Budget::Seconds(DEFAULT_SECONDS),
            trace: false,
            smoke: false,
            out: PathBuf::from("benchmark/out"),
            declaration: PathBuf::from("BENCHMARK.json"),
            runs: 10,
            positional: Vec::new(),
        };
        let mut reps = None;
        let mut argv = argv;
        while let Some(arg) = argv.next() {
            let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value"));
            fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
                text.parse()
                    .map_err(|_| format!("{flag}: bad value {text:?}"))
            }
            match arg.as_str() {
                "--workload" => args.workload = Some(value("--workload")?),
                "--seed" => args.seed = number("--seed", &value("--seed")?)?,
                "--seconds" => {
                    let s: f64 = number("--seconds", &value("--seconds")?)?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds: {s} is not a positive time"));
                    }
                    args.budget = Budget::Seconds(s);
                }
                "--reps" => {
                    let n: usize = number("--reps", &value("--reps")?)?;
                    if n == 0 {
                        return Err("--reps: at least one round".to_string());
                    }
                    reps = Some(n);
                }
                "--trace" => {
                    args.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                    };
                }
                "--runs" => {
                    args.runs = number("--runs", &value("--runs")?)?;
                    if args.runs < 2 {
                        return Err("--runs: quartiles need at least two runs".to_string());
                    }
                }
                "--smoke" => args.smoke = true,
                "--out" => args.out = PathBuf::from(value("--out")?),
                "--declaration" => args.declaration = PathBuf::from(value("--declaration")?),
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => args.positional.push(arg),
            }
        }
        // A smoke run is one round; an explicit --reps wins over both.
        if args.smoke {
            args.budget = Budget::Rounds(1);
        }
        if let Some(n) = reps {
            args.budget = Budget::Rounds(n);
        }
        Ok(args)
    }

    /// The flags a per-workload child process is started with.
    fn child_flags(&self, workload: &str, trace: bool, seed: u64) -> Vec<String> {
        let mut flags = vec![
            "--workload".to_string(),
            workload.to_string(),
            "--trace".to_string(),
            u8::from(trace).to_string(),
            "--seed".to_string(),
            seed.to_string(),
            "--out".to_string(),
            self.out.display().to_string(),
        ];
        match self.budget {
            Budget::Seconds(s) => flags.extend(["--seconds".to_string(), s.to_string()]),
            Budget::Rounds(n) => flags.extend(["--reps".to_string(), n.to_string()]),
        }
        if self.smoke {
            flags.push("--smoke".to_string());
        }
        flags
    }
}

/// One workload, one mode, in this process. Prints the metric rows and,
/// last, the result line.
fn run_one(args: &Args, name: &str) -> Result<(), String> {
    let w = Workload::named(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let w = if args.smoke { w.smoke() } else { w };
    let pace = if args.smoke {
        run::Pace::SMOKE
    } else {
        run::Pace::FULL
    };
    let mut ctx = run::Context::new(w, args.seed, pace, &args.out)?;
    let metrics = if args.trace {
        layers::run(&mut ctx, args.budget, &args.out)
    } else {
        endtoend::run(&mut ctx, args.budget)
    };
    ctx.cleanup();
    let metrics = metrics?;
    if let Some(bad) = metrics.iter().find(|m| !stats::valid_name(m.name)) {
        return Err(format!("metric name {:?} breaks the naming rule", bad.name));
    }
    print!("{}", report::rows(w.name, &metrics));
    println!(
        "{} ops_failed = {} of ops_attempted = {} (medians; too few samples for a tail percentile)",
        w.name, ctx.ops.failed, ctx.ops.attempted
    );
    println!(
        "{}",
        report::result_line(ctx.ops.attempted, ctx.ops.failed, &metrics)
    );
    Ok(())
}

/// Run one workload in one mode as a child process (so that
/// `peak_rss_mb` is one workload's): echo its rows, return its parsed
/// result line.
fn child(args: &Args, workload: &str, trace: bool, seed: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(&exe)
        .args(args.child_flags(workload, trace, seed))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (rows, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{rows}");
    if !output.status.success() {
        return Err(format!(
            "{workload} --trace {} --seed {seed}: {}",
            u8::from(trace),
            output.status
        ));
    }
    flexdist_json::parse(last).map_err(|e| format!("{workload}: result line does not parse: {e}"))
}

fn is_correct(result: &Value) -> bool {
    result.get("correct").and_then(Value::as_bool) == Some(true)
}

/// Every workload in both modes, then `results.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let mut sections = vec![("name", Value::from(w.name))];
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = child(args, w.name, trace, args.seed)?;
            all_ok &= is_correct(&result);
            sections.push((section, result));
        }
        workloads.push(object(sections));
    }
    let doc = object(vec![
        ("kind", Value::from("flexdist-benchmark-results")),
        (
            "fingerprint",
            report::fingerprint(args.seed, args.budget, args.smoke),
        ),
        ("workloads", Value::Array(workloads)),
    ]);
    let path = args.out.join("results.json");
    std::fs::write(&path, doc.to_pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

/// The steadiness check the benchmark is accepted on: every end-to-end
/// metric over `--runs` seeds per workload, its quartile spread as a
/// share of its median, against its bound. Spreads are wanted below a
/// third of the bound; `setup_s` is exempt from the rule but shown.
fn steady(args: &Args) -> Result<bool, String> {
    let decl = Declaration::load(&args.declaration)?;
    let mut table = String::from(
        "| workload | metric | median | q1 | q3 | spread | bound | verdict |\n|---|---|---|---|---|---|---|---|\n",
    );
    let mut ok = true;
    let chosen = |w: &Workload| args.workload.as_deref().is_none_or(|name| name == w.name);
    for w in WORKLOADS.into_iter().filter(chosen) {
        let mut results = Vec::new();
        for seed in 1..=args.runs {
            let result = child(args, w.name, false, seed)?;
            ok &= is_correct(&result);
            results.push(result);
        }
        for m in &decl.end_to_end {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.get("metrics")?.get(&m.name)?.get("value")?.as_f64())
                .collect();
            if values.len() != results.len() {
                return Err(format!("{}: a run did not report {}", w.name, m.name));
            }
            let [q1, q2, q3] = stats::quartiles(&values);
            let spread = stats::spread(&values);
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if spread * 3.0 <= bound {
                "steady"
            } else if spread <= bound {
                "within bound"
            } else if m.name == "setup_s" {
                "exempt"
            } else {
                ok = false;
                "OUTSIDE"
            };
            table += &format!(
                "| {} | {} | {q2} | {q1} | {q3} | {:.2} % | {} | {verdict} |\n",
                w.name,
                m.name,
                spread * 100.0,
                report::percent(bound)
            );
        }
    }
    print!("{table}");
    Ok(ok)
}

fn compare_sets(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: compare SET1.json SET2.json".to_string());
    };
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(Path::new(path))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        flexdist_json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let decl = Declaration::load(&args.declaration)?;
    let (text, ok) = compare::compare(&load(a)?, &load(b)?, &decl)?;
    print!("{text}");
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        if let Some(subcommand) = args.positional.first() {
            match subcommand.as_str() {
                "compare" => compare_sets(&args),
                "steady" if args.positional.len() == 1 => steady(&args),
                other => Err(format!("unexpected argument {other:?}")),
            }
        } else if let Some(name) = &args.workload {
            // The result line carries the verdict; a run that printed
            // one has done its job.
            run_one(&args, name).map(|()| true)
        } else {
            run_all(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("flexdist-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(ToString::to_string))
    }

    #[test]
    fn driver_flags_parse() {
        let a = parse(&[
            "--workload",
            "lu_g2dbc_p7_fine",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("lu_g2dbc_p7_fine"));
        assert_eq!(a.seed, 9);
        assert!(a.trace);
        assert!(matches!(a.budget, Budget::Seconds(s) if s == 3.0));
    }

    #[test]
    fn smoke_is_one_round_unless_reps_says_otherwise() {
        assert!(matches!(
            parse(&["--smoke"]).unwrap().budget,
            Budget::Rounds(1)
        ));
        assert!(matches!(
            parse(&["--smoke", "--reps", "4"]).unwrap().budget,
            Budget::Rounds(4)
        ));
        assert!(matches!(parse(&[]).unwrap().budget, Budget::Seconds(s) if s == DEFAULT_SECONDS));
    }

    #[test]
    fn default_budget_is_the_declared_run_seconds() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let decl = Declaration::load(&path).unwrap();
        assert_eq!(decl.run_seconds as f64, DEFAULT_SECONDS);
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(decl.workloads, names);
    }

    #[test]
    fn bad_flags_are_rejected() {
        for argv in [
            &["--trace", "2"][..],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--reps", "0"],
            &["--seed"],
            &["--runs", "1"],
            &["--nope"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?}");
        }
    }

    #[test]
    fn child_flags_round_trip() {
        let a = parse(&["--seed", "5", "--smoke", "--out", "x/y"]).unwrap();
        let child = Args::parse(a.child_flags("lu_g2dbc_p7_fine", true, 7).into_iter()).unwrap();
        assert_eq!(child.workload.as_deref(), Some("lu_g2dbc_p7_fine"));
        assert_eq!((child.seed, child.trace, child.smoke), (7, true, true));
        assert_eq!(child.out, PathBuf::from("x/y"));
        assert!(matches!(child.budget, Budget::Rounds(1)));
    }
}
