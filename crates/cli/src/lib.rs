//! Implementation of the `flexdist` command-line tool.
//!
//! Subcommands:
//!
//! * `pattern`  — build and print a distribution pattern with its costs;
//! * `plan`     — rank all strategies for a node budget (the paper's
//!   "my reservation got P nodes, what now?" scenario);
//! * `simulate` — run the cluster simulator on a chosen setup;
//! * `sweep`    — run a schemes × tile-counts grid through the batch
//!   engine and print a TSV table;
//! * `gantt`    — render an ASCII utilization chart of a simulated run;
//! * `execute`  — run the factorization for real on a local work-stealing
//!   thread pool (actual `f64` kernels) and report numerics + counters;
//! * `dexec`    — run the factorization in distributed mode (one
//!   message-passing rank per node, only owned tiles resident) and hold
//!   it to the conformance contract of `flexdist_factor::conformance`;
//!   `--backend uds|tcp` repeats the run with one OS process per rank
//!   over the socket fabric, each handed the run spec on its stdin;
//! * `chaos`    — sweep fault seeds × fault rates over the distributed
//!   executor (deterministic drop/duplicate/corrupt/delay injection) and
//!   hold every cell to the same contract, seed replay included;
//! * `replay`   — feed a `dexec` net-trace back through the simulator
//!   under a chosen contention model and assert per-link message counts
//!   and byte volumes agree exactly with the trace's goodput;
//! * `verify`   — machine-checked correctness gate: workspace source
//!   lint, static DAG lint of a factorization graph, vector-clock race
//!   detection over a dumped trace, and (`--protocol`) the static
//!   communication-protocol verifier — send/recv matching,
//!   deadlock-freedom under bounded buffers with the minimum safe inbox
//!   capacity, eviction safety, per-rank peak-memory bounds, and
//!   net-trace linearization checking;
//! * `db`       — build the per-`P` best-pattern database as JSON.
//!
//! `simulate`, `gantt`, `execute` and `dexec` accept `--trace-out FILE` to
//! dump the span-level execution trace as JSON (`dexec` additionally
//! records every wire message).
//!
//! All command functions return the output as a `String` (printed by
//! `main`), which keeps them unit-testable.

pub mod args;
pub mod commands;
pub mod mp;
pub mod scheme;

pub use args::Args;

/// Top-level usage text. Every flag a command takes is in its stanza
/// and in its [`COMMANDS`] row; a test holds the two equal.
pub const USAGE: &str = "\
flexdist — data distributions for dense factorizations on any node count

USAGE: flexdist <COMMAND> [--key value ...]

COMMANDS:
  pattern   (--p N [--scheme 2dbc|g2dbc|sbc|gcrm] [--seeds K] | --pattern FILE)
            [--print]
  plan      --p N [--tiles T] [--seeds K]
  simulate  --op lu|chol|syrk (--p N [--scheme S] [--seeds K] | --pattern FILE)
            [--n M] [--tile NB] [--gflops G] [--workers W]
            [--net constant|shared|hier [--switches S] [--nic-limit K]
            [--uplink C]] [--trace-out FILE]
  sweep     --op lu|chol|syrk --p N [--schemes S1,S2] [--seeds K]
            [--tiles T1,T2] [--tile NB] [--gflops G] [--workers W]
            [--net MODEL [--switches S] [--nic-limit K] [--uplink C]]
            [--out FILE] [--json FILE]
  gantt     --op lu|chol (--p N [--scheme S] [--seeds K] | --pattern FILE)
            [--t T] [--width W] [--lanes] [--workers W]
            [--net MODEL [--switches S] [--nic-limit K] [--uplink C]]
            [--trace-out FILE]
  execute   --op lu|chol|syrk (--p N [--scheme S] [--seeds K] | --pattern FILE)
            [--t T] [--nb NB] [--threads W] [--seed S] [--trace-out FILE]
  dexec     --op lu|chol (--p N [--scheme S] [--seeds K] | --pattern FILE)
            [--t T] [--nb NB] [--seed S] [--watchdog MS]
            [--backend channel|uds|tcp] [--trace-out FILE]
            [--recover --crash RANK@EPOCH[,RANK@EPOCH]]
  chaos     --op lu|chol (--p N [--scheme S] | --pattern FILE) [--t T]
            [--nb NB] [--seeds K] [--seed S] [--rates R1,R2] [--watchdog MS]
            [--backend channel|uds|tcp]
  chaos --recover [--op lu|chol] [--ps P1,P2] [--t T] [--nb NB] [--seeds K]
            [--seed S] [--rate R] [--watchdog MS] [--backend channel|uds|tcp]
            [--crash RANK@EPOCH[,RANK@EPOCH]]
  replay    --trace FILE [--net constant|shared|hier [--switches S]
            [--nic-limit K] [--uplink C]] [--latency S] [--bandwidth B]
            [--out FILE]
  verify    [--lint [--root DIR] [--allow FILE]] [--replay FILE]
            [--op lu|chol|syrk|gemm (--p N [--scheme S] [--seeds K] |
            --pattern FILE) [--t T] [--trace FILE]] [--protocol
            [--capacity N] [--nb NB] [--crash RANK@EPOCH[,RANK@EPOCH]]
            [--mutate drop-send|drop-recovery-send|swap-sends|evict-early|
            capacity-1]]
  db        --purpose lu|sym [--pmax P] [--seeds K] [--out FILE]

--seeds K is the GCR&M restart count wherever a pattern is built; in
`chaos` it is also the number of fault seeds swept.

Run a command with bad flags to see its specific requirements.";

/// One row of the command table: the name as typed, every flag the
/// command reads (in groups, so shared sets are spelled once), and the
/// function behind it.
type Command = (
    &'static str,
    &'static [&'static [&'static str]],
    fn(&Args) -> Result<String, String>,
);

/// What `scheme::pattern_from_args` reads.
const PATTERN: &[&str] = &["p", "scheme", "seeds", "pattern"];
/// What `commands::network_from_args` reads.
const NETWORK: &[&str] = &["net", "switches", "nic-limit", "uplink"];
/// The run parameters of `execute` / `dexec` / `chaos`, with [`PATTERN`].
const RUN: &[&str] = &["op", "t", "nb", "seed"];

/// Every command with the flags it takes; [`run`] refuses the rest.
/// `chaos --recover` is its own row because it reads a different set,
/// `_rank` is the hidden rank process of a `dexec --backend` run.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("pattern", &[PATTERN, &["print"]], commands::pattern),
    ("plan", &[&["p", "tiles", "seeds"]], commands::plan),
    ("simulate", &[PATTERN, NETWORK, &["op", "n", "tile", "gflops", "workers", "trace-out"]],
        commands::simulate),
    ("sweep", &[NETWORK, &["op", "p", "schemes", "seeds", "tiles", "tile", "gflops", "workers"],
        &["out", "json"]], commands::sweep),
    ("gantt", &[PATTERN, NETWORK, &["op", "t", "width", "lanes", "workers", "trace-out"]],
        commands::gantt),
    ("execute", &[PATTERN, RUN, &["threads", "trace-out"]], commands::execute),
    ("dexec", &[PATTERN, RUN, &["watchdog", "backend", "trace-out", "recover", "crash"]],
        commands::dexec),
    ("chaos", &[PATTERN, RUN, &["rates", "watchdog", "backend"]], commands::chaos),
    ("chaos --recover", &[RUN, &["recover", "ps", "seeds", "rate", "watchdog", "backend", "crash"]],
        commands::chaos_recover),
    ("_rank", &[&["rank", "sock", "dir"]], commands::rank_worker),
    ("replay", &[NETWORK, &["trace", "latency", "bandwidth", "out"]], commands::replay),
    ("verify", &[PATTERN, &["lint", "root", "allow", "replay", "op", "t", "trace"],
        &["protocol", "capacity", "nb", "crash", "mutate"]], commands::verify),
    ("db", &[&["purpose", "pmax", "seeds", "out"]], commands::db),
];

/// Dispatch a full argv (without the program name). Returns the rendered
/// output or an error message.
///
/// # Errors
/// Returns usage/validation messages for unknown commands, flags the
/// command does not take (before it does any work), or bad flag values.
pub fn run(argv: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(USAGE.to_string());
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        return Ok(USAGE.to_string());
    }
    let args = Args::parse(rest)?;
    let name = if cmd == "chaos" && args.flag("recover") {
        "chaos --recover"
    } else {
        cmd
    };
    let Some((_, flags, command)) = COMMANDS.iter().find(|c| c.0 == name) else {
        return Err(format!("unknown command {cmd:?}\n\n{USAGE}"));
    };
    let takes = |key: &str| flags.iter().any(|group| group.contains(&key));
    if let Some(stray) = args.keys().filter(|key| !takes(key)).min() {
        return Err(format!(
            "{name}: unknown flag --{stray} (`flexdist help` lists the flags it takes)"
        ));
    }
    command(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn empty_argv_prints_usage() {
        assert!(run(&[]).unwrap_err().contains("USAGE"));
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(run(&sv(&["frobnicate"]))
            .unwrap_err()
            .contains("unknown command"));
    }

    /// The command table and the usage text state the same flag sets,
    /// and `run` holds every command to its row.
    #[test]
    fn undeclared_flags_are_refused_and_usage_lists_the_declared_ones() {
        let section = USAGE.split("COMMANDS:\n").nth(1).unwrap();
        let mut stanzas: Vec<String> = Vec::new();
        for line in section.split("\n\n").next().unwrap().lines() {
            if !line.starts_with("   ") {
                stanzas.push(String::new());
            }
            let stanza = stanzas.last_mut().unwrap();
            line.split_whitespace()
                .for_each(|w| *stanza += &format!("{w} "));
        }
        let owns = |name: &str, stanza: &str| stanza.starts_with(&format!("{name} "));
        for &(name, flags, _) in COMMANDS {
            let argv: Vec<&str> = name.split(' ').chain(["--thread", "2"]).collect();
            let err = run(&sv(&argv)).unwrap_err();
            assert_eq!(
                err.split(" (").next(),
                Some(format!("{name}: unknown flag --thread").as_str())
            );
            if name.starts_with('_') {
                continue;
            }
            // A stanza belongs to the longest command name it starts with.
            let longer = |&(other, ..): &Command| other.len() > name.len();
            let mine =
                |s: &&String| owns(name, s) && !COMMANDS.iter().any(|o| longer(o) && owns(o.0, s));
            let stanza = stanzas.iter().find(mine).expect(name);
            let mut listed: Vec<&str> = stanza
                .split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '-'))
                .filter_map(|word| word.strip_prefix("--"))
                .collect();
            let mut declared: Vec<&str> = flags.iter().flat_map(|g| g.iter().copied()).collect();
            listed.sort_unstable();
            listed.dedup();
            declared.sort_unstable();
            assert_eq!(listed, declared, "USAGE stanza vs table row of {name}");
        }
    }

    #[test]
    fn help_is_ok() {
        assert!(run(&sv(&["help"])).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn pattern_command_end_to_end() {
        let out = run(&sv(&["pattern", "--p", "10", "--print"])).unwrap();
        assert!(out.contains("G-2DBC"), "{out}");
        assert!(out.contains("LU cost"), "{out}");
        // The printed 6x10 grid (paper Fig. 3).
        assert!(out.contains('9'), "{out}");
    }

    #[test]
    fn simulate_command_end_to_end() {
        let out = run(&sv(&[
            "simulate", "--op", "lu", "--p", "6", "--n", "6000", "--tile", "500",
        ]))
        .unwrap();
        assert!(out.contains("makespan"), "{out}");
        assert!(out.contains("messages"), "{out}");
    }

    #[test]
    fn gantt_command_end_to_end() {
        let out = run(&sv(&[
            "gantt", "--op", "chol", "--p", "3", "--t", "6", "--width", "20",
        ]))
        .unwrap();
        assert!(out.contains("node   0 |"), "{out}");
    }

    #[test]
    fn execute_command_end_to_end() {
        let out = run(&sv(&[
            "execute",
            "--op",
            "lu",
            "--p",
            "4",
            "--t",
            "4",
            "--nb",
            "8",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("residual"), "{out}");
        assert!(out.contains("tasks stolen"), "{out}");
        assert!(out.contains("worker  1"), "{out}");
    }

    #[test]
    fn dexec_command_end_to_end() {
        let dir = std::env::temp_dir();
        let path = dir.join("flexdist_cli_test_net_trace.json");
        let net = path.to_str().unwrap();
        let out = run(&sv(&[
            "dexec",
            "--op",
            "lu",
            "--p",
            "5",
            "--t",
            "5",
            "--nb",
            "4",
            "--trace-out",
            net,
        ]))
        .unwrap();
        assert!(out.contains("distributed over 5 ranks"), "{out}");
        assert!(out.contains("conformance     ok"), "{out}");
        assert!(out.contains("rank   4"), "{out}");
        let doc = flexdist_json::parse(&std::fs::read_to_string(net).unwrap()).unwrap();
        assert_eq!(
            doc.get("kind").and_then(flexdist_json::Value::as_str),
            Some("net-trace")
        );
        assert!(!doc.get("spans").unwrap().as_array().unwrap().is_empty());
        assert!(!doc.get("messages").unwrap().as_array().unwrap().is_empty());
        let _ = std::fs::remove_file(net);
    }

    #[test]
    fn chaos_command_end_to_end() {
        let out = run(&sv(&[
            "chaos", "--op", "lu", "--p", "5", "--t", "5", "--nb", "4", "--seeds", "2", "--rates",
            "0.05",
        ]))
        .unwrap();
        assert!(out.contains("chaos: lu"), "{out}");
        assert!(out.contains("retrans"), "{out}");
        assert!(out.contains("all 2 cell(s)"), "{out}");
        assert!(out.contains("reports replay"), "{out}");
    }

    #[test]
    fn dexec_recover_end_to_end() {
        let out = run(&sv(&[
            "dexec",
            "--op",
            "lu",
            "--p",
            "5",
            "--t",
            "5",
            "--nb",
            "4",
            "--recover",
            "--crash",
            "3@2",
        ]))
        .unwrap();
        assert!(out.contains("crash(es) 3@2 (1 active re-map(s))"), "{out}");
        assert!(
            out.contains("goodput == composed spliced volume, bitwise == crash-free"),
            "{out}"
        );
    }

    #[test]
    fn dexec_recover_cascade_end_to_end() {
        let out = run(&sv(&[
            "dexec",
            "--op",
            "lu",
            "--p",
            "5",
            "--t",
            "5",
            "--nb",
            "4",
            "--recover",
            "--crash",
            "1@2,3@3",
        ]))
        .unwrap();
        assert!(
            out.contains("crash(es) 1@2,3@3 (2 active re-map(s))"),
            "{out}"
        );
        assert!(
            out.contains("goodput == composed spliced volume, bitwise == crash-free"),
            "{out}"
        );
    }

    #[test]
    fn dexec_recover_needs_a_crash_point_and_refuses_a_duplicate_rank() {
        let err = run(&sv(&["dexec", "--op", "lu", "--p", "5", "--recover"])).unwrap_err();
        assert!(err.contains("needs --crash"), "{err}");
        // The mirror image used to be silently ignored.
        let err = run(&sv(&["dexec", "--op", "lu", "--p", "5", "--crash", "1@2"])).unwrap_err();
        assert!(err.contains("needs --recover"), "{err}");
        let err = run(&sv(&[
            "dexec",
            "--op",
            "lu",
            "--p",
            "5",
            "--t",
            "5",
            "--nb",
            "4",
            "--recover",
            "--crash",
            "3@2,3@3",
        ]))
        .unwrap_err();
        assert!(err.contains("crash twice"), "{err}");
    }

    #[test]
    fn chaos_recover_end_to_end() {
        let out = run(&sv(&[
            "chaos",
            "--recover",
            "--op",
            "lu",
            "--ps",
            "4,5",
            "--t",
            "5",
            "--nb",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("chaos --recover"), "{out}");
        // 2 rank counts x (2 single crashes + 1 cascade) x (quiet, noisy).
        assert!(
            out.contains("all 12 cell(s): completed, bitwise == crash-free"),
            "{out}"
        );
        assert!(out.contains("0.05"), "{out}");
    }

    /// A zero tile count or tile size used to panic two layers down
    /// (`assignment.rs`, `graphs.rs`, a division in `simulate`). Every
    /// command names the flag instead.
    #[test]
    fn zero_sizes_are_typed_errors_naming_the_flag() {
        let cases: [(&[&str], &str); 13] = [
            (&["execute", "--op", "lu", "--p", "5", "--t", "0"], "--t"),
            (&["execute", "--op", "lu", "--p", "5", "--nb", "0"], "--nb"),
            (&["dexec", "--op", "lu", "--p", "5", "--t", "0"], "--t"),
            (&["dexec", "--op", "lu", "--p", "5", "--nb", "0"], "--nb"),
            (&["chaos", "--op", "lu", "--p", "5", "--t", "0"], "--t"),
            (&["chaos", "--op", "lu", "--p", "5", "--nb", "0"], "--nb"),
            (&["chaos", "--recover", "--ps", "4", "--nb", "0"], "--nb"),
            (&["chaos", "--recover", "--ps", "4", "--t", "0"], "--t"),
            (&["gantt", "--op", "lu", "--p", "4", "--t", "0"], "--t"),
            (
                &["gantt", "--op", "lu", "--p", "4", "--width", "0"],
                "--width",
            ),
            (
                &["simulate", "--op", "lu", "--p", "4", "--tile", "0"],
                "--tile",
            ),
            (
                &["sweep", "--op", "lu", "--p", "4", "--tile", "0"],
                "--tile",
            ),
            (&["plan", "--p", "4", "--tiles", "0"], "--tiles"),
        ];
        for (argv, flag) in cases {
            let err = std::panic::catch_unwind(|| run(&sv(argv)))
                .unwrap_or_else(|_| panic!("{argv:?} panicked"))
                .expect_err("a zero size is refused");
            assert!(err.contains(&format!("{flag} must be ")), "{argv:?}: {err}");
        }
    }

    /// `--crash R@E` with `R >= P` used to be dropped by the recovery
    /// derivation: `verify --protocol` then reported the crash-free
    /// schedule as the crashed one, and `dexec --recover` failed with an
    /// anonymous "no plan". Each command must name the rank and P.
    fn assert_names_rank_99_of_5(err: &str) {
        assert!(err.contains("rank 99"), "{err}");
        assert!(err.contains("P = 5"), "{err}");
    }

    #[test]
    fn dexec_recover_refuses_an_out_of_range_crash_rank() {
        let err = run(&sv(&[
            "dexec",
            "--op",
            "lu",
            "--p",
            "5",
            "--t",
            "6",
            "--nb",
            "4",
            "--recover",
            "--crash",
            "99@2",
        ]))
        .unwrap_err();
        assert_names_rank_99_of_5(&err);
    }

    #[test]
    fn chaos_recover_refuses_an_out_of_range_crash_rank() {
        let err = run(&sv(&[
            "chaos",
            "--recover",
            "--op",
            "lu",
            "--ps",
            "5",
            "--t",
            "6",
            "--nb",
            "4",
            "--crash",
            "2@1,99@2",
        ]))
        .unwrap_err();
        assert_names_rank_99_of_5(&err);
    }

    #[test]
    fn verify_protocol_refuses_an_out_of_range_crash_rank() {
        let err = run(&sv(&[
            "verify",
            "--protocol",
            "--op",
            "lu",
            "--p",
            "5",
            "--t",
            "6",
            "--crash",
            "99@2",
        ]))
        .unwrap_err();
        assert_names_rank_99_of_5(&err);
        assert!(!err.contains("verify: ok"), "{err}");
    }

    #[test]
    fn chaos_recover_honours_an_explicit_crash_list() {
        let out = run(&sv(&[
            "chaos",
            "--recover",
            "--op",
            "lu",
            "--ps",
            "5",
            "--t",
            "6",
            "--nb",
            "4",
            "--crash",
            "3@2,1@4",
        ]))
        .unwrap();
        assert!(out.contains("3@2,1@4"), "{out}");
        // One crash list x (quiet, noisy).
        assert!(out.contains("all 2 cell(s): completed"), "{out}");
    }

    #[test]
    fn chaos_rejects_bad_rates_and_syrk() {
        let err = run(&sv(&["chaos", "--op", "syrk", "--p", "4"])).unwrap_err();
        assert!(err.contains("lu or chol"), "{err}");
        let err = run(&sv(&["chaos", "--op", "lu", "--p", "4", "--rates", "1.5"])).unwrap_err();
        assert!(err.contains("outside [0, 1]"), "{err}");
        let err = run(&sv(&["chaos", "--op", "lu", "--p", "4", "--rates", "x"])).unwrap_err();
        assert!(err.contains("bad rate"), "{err}");
    }

    #[test]
    fn verify_trace_accepts_net_trace_and_lints_messages() {
        let dir = std::env::temp_dir();
        let path = dir.join("flexdist_cli_test_verify_net_trace.json");
        let net = path.to_str().unwrap();
        run(&sv(&[
            "dexec",
            "--op",
            "chol",
            "--p",
            "4",
            "--t",
            "5",
            "--nb",
            "4",
            "--scheme",
            "2dbc",
            "--trace-out",
            net,
        ]))
        .unwrap();
        let out = run(&sv(&[
            "verify", "--op", "chol", "--p", "4", "--t", "5", "--scheme", "2dbc", "--trace", net,
        ]))
        .unwrap();
        assert!(out.contains("net-messages:"), "{out}");
        assert!(out.contains("verify: ok"), "{out}");
        let _ = std::fs::remove_file(net);
    }

    #[test]
    fn verify_protocol_end_to_end() {
        // Clean run: matching + deadlock-freedom + eviction safety
        // proved, peak table printed.
        let out = run(&sv(&[
            "verify",
            "--protocol",
            "--op",
            "lu",
            "--p",
            "7",
            "--t",
            "6",
        ]))
        .unwrap();
        assert!(out.contains("min safe inbox capacity"), "{out}");
        assert!(out.contains("peak bytes"), "{out}");
        assert!(out.contains("verify: ok"), "{out}");

        // The protocol verifier needs its distribution context.
        let err = run(&sv(&["verify", "--protocol"])).unwrap_err();
        assert!(err.contains("--op"), "{err}");

        // Each seeded mutation must fail with its own finding kind.
        for (mutate, rule) in [
            ("drop-send", "missing-delivery"),
            ("swap-sends", "send-mismatch"),
            ("evict-early", "premature-eviction"),
        ] {
            let err = run(&sv(&[
                "verify",
                "--protocol",
                "--op",
                "lu",
                "--p",
                "7",
                "--t",
                "6",
                "--mutate",
                mutate,
            ]))
            .unwrap_err();
            assert!(err.contains(rule), "--mutate {mutate}: {err}");
            assert!(err.contains("FAILED"), "--mutate {mutate}: {err}");
        }
        // Capacity-1 inboxes deadlock the LU/SBC crisscross at P=2.
        let err = run(&sv(&[
            "verify",
            "--protocol",
            "--op",
            "lu",
            "--scheme",
            "sbc",
            "--p",
            "2",
            "--t",
            "6",
            "--mutate",
            "capacity-1",
        ]))
        .unwrap_err();
        assert!(err.contains("protocol-deadlock"), "{err}");
        assert!(err.contains("wait-for cycle"), "{err}");
    }

    #[test]
    fn verify_protocol_checks_live_trace_linearization() {
        let dir = std::env::temp_dir();
        let path = dir.join("flexdist_cli_test_proto_net_trace.json");
        let net = path.to_str().unwrap();
        run(&sv(&[
            "dexec",
            "--op",
            "chol",
            "--p",
            "5",
            "--t",
            "5",
            "--nb",
            "4",
            "--trace-out",
            net,
        ]))
        .unwrap();
        let out = run(&sv(&[
            "verify",
            "--protocol",
            "--op",
            "chol",
            "--p",
            "5",
            "--t",
            "5",
            "--trace",
            net,
        ]))
        .unwrap();
        assert!(out.contains("protocol-trace:"), "{out}");
        assert!(out.contains("verify: ok"), "{out}");
        let _ = std::fs::remove_file(net);
    }

    #[test]
    fn dexec_prints_static_peak_memory() {
        let out = run(&sv(&[
            "dexec", "--op", "lu", "--p", "4", "--t", "5", "--nb", "4",
        ]))
        .unwrap();
        assert!(out.contains("protocol        statically verified"), "{out}");
        assert!(out.contains("min safe inbox capacity"), "{out}");
        assert!(out.contains("peak"), "{out}");
    }

    #[test]
    fn replay_command_closes_the_loop_end_to_end() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("flexdist_cli_test_replay_net_trace.json");
        let report_path = dir.join("flexdist_cli_test_replay_report.json");
        let net = trace_path.to_str().unwrap();
        let report = report_path.to_str().unwrap();
        run(&sv(&[
            "dexec",
            "--op",
            "lu",
            "--p",
            "5",
            "--t",
            "5",
            "--nb",
            "4",
            "--trace-out",
            net,
        ]))
        .unwrap();

        // Constant model: exact per-link conformance.
        let out = run(&sv(&["replay", "--trace", net, "--out", report])).unwrap();
        assert!(out.contains("CONFORMANT"), "{out}");
        assert!(out.contains("replay[constant]"), "{out}");

        // The written report passes `verify --replay`.
        let out = run(&sv(&["verify", "--replay", report])).unwrap();
        assert!(out.contains("replay-report[constant]"), "{out}");
        assert!(out.contains("verify: ok"), "{out}");

        // Contended models preserve counts, so they conform too.
        let out = run(&sv(&["replay", "--trace", net, "--net", "shared"])).unwrap();
        assert!(out.contains("CONFORMANT"), "{out}");
        let out = run(&sv(&[
            "replay",
            "--trace",
            net,
            "--net",
            "hier",
            "--switches",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("replay[hierarchical]"), "{out}");
        assert!(out.contains("CONFORMANT"), "{out}");

        let _ = std::fs::remove_file(net);
        let _ = std::fs::remove_file(report);
    }

    #[test]
    fn replay_requires_a_trace_and_rejects_unknown_models() {
        let err = run(&sv(&["replay"])).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
        let err = run(&sv(&["replay", "--trace", "x.json", "--net", "warp"])).unwrap_err();
        assert!(err.contains("unknown network model"), "{err}");
    }

    #[test]
    fn simulate_accepts_contended_network_models() {
        let base = sv(&[
            "simulate", "--op", "lu", "--p", "6", "--n", "6000", "--tile", "500",
        ]);
        let mut shared = base.clone();
        shared.extend(sv(&["--net", "shared"]));
        let out = run(&shared).unwrap();
        assert!(out.contains("network         shared-bandwidth"), "{out}");
        let mut hier = base.clone();
        hier.extend(sv(&["--net", "hier", "--switches", "3", "--uplink", "2.5"]));
        let out = run(&hier).unwrap();
        assert!(out.contains("network         hierarchical"), "{out}");
        let out = run(&base).unwrap();
        assert!(out.contains("network         constant"), "{out}");
    }

    #[test]
    fn dexec_rejects_syrk() {
        let err = run(&sv(&["dexec", "--op", "syrk", "--p", "4"])).unwrap_err();
        assert!(err.contains("lu or chol"), "{err}");
    }

    #[test]
    fn trace_out_writes_parseable_json() {
        let dir = std::env::temp_dir();
        let sim_path = dir.join("flexdist_cli_test_sim_trace.json");
        let exec_path = dir.join("flexdist_cli_test_exec_trace.json");
        let sim = sim_path.to_str().unwrap();
        let exec = exec_path.to_str().unwrap();

        let out = run(&sv(&[
            "simulate",
            "--op",
            "lu",
            "--p",
            "4",
            "--n",
            "2000",
            "--tile",
            "500",
            "--trace-out",
            sim,
        ]))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let doc = flexdist_json::parse(&std::fs::read_to_string(sim).unwrap()).unwrap();
        assert_eq!(
            doc.get("kind").and_then(flexdist_json::Value::as_str),
            Some("sim-trace")
        );
        assert!(!doc.get("spans").unwrap().as_array().unwrap().is_empty());

        let out = run(&sv(&[
            "execute",
            "--op",
            "chol",
            "--p",
            "4",
            "--t",
            "4",
            "--nb",
            "8",
            "--threads",
            "2",
            "--scheme",
            "2dbc",
            "--trace-out",
            exec,
        ]))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let doc = flexdist_json::parse(&std::fs::read_to_string(exec).unwrap()).unwrap();
        assert_eq!(
            doc.get("kind").and_then(flexdist_json::Value::as_str),
            Some("exec-trace")
        );
        assert!(!doc.get("events").unwrap().as_array().unwrap().is_empty());

        let _ = std::fs::remove_file(sim);
        let _ = std::fs::remove_file(exec);
    }

    #[test]
    fn sweep_command_end_to_end() {
        let dir = std::env::temp_dir();
        let tsv_path = dir.join("flexdist_cli_test_sweep.tsv");
        let json_path = dir.join("flexdist_cli_test_sweep.json");
        let tsv = tsv_path.to_str().unwrap();
        let json = json_path.to_str().unwrap();
        let out = run(&sv(&[
            "sweep", "--op", "lu", "--p", "5", "--tiles", "6,8", "--tile", "200", "--out", tsv,
            "--json", json,
        ]))
        .unwrap();
        // 2 default LU schemes x 2 tile counts = 4 points over 4 graphs.
        assert!(out.contains("4 points over 4 graphs"), "{out}");
        assert!(out.contains("graph\tmachine\tmakespan_s"), "{out}");
        assert!(out.contains("G-2DBC@t8\tp5w"), "{out}");
        let table = std::fs::read_to_string(tsv).unwrap();
        assert_eq!(table.lines().count(), 5);
        let doc = flexdist_json::parse(&std::fs::read_to_string(json).unwrap()).unwrap();
        assert_eq!(
            doc.get("kind").and_then(flexdist_json::Value::as_str),
            Some("sweep")
        );
        assert_eq!(doc.get("points").unwrap().as_array().unwrap().len(), 4);
        let _ = std::fs::remove_file(tsv);
        let _ = std::fs::remove_file(json);
    }

    #[test]
    fn sweep_rejects_bad_tiles() {
        let err = run(&sv(&["sweep", "--op", "lu", "--p", "4", "--tiles", "8,x"])).unwrap_err();
        assert!(err.contains("bad tile count"), "{err}");
        let err = run(&sv(&["sweep", "--op", "lu", "--p", "4", "--tiles", "0"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn gantt_lanes_shows_per_worker_rows() {
        let out = run(&sv(&[
            "gantt", "--op", "chol", "--p", "3", "--t", "6", "--width", "20", "--lanes",
        ]))
        .unwrap();
        assert!(out.contains("n  0.w0"), "{out}");
    }

    #[test]
    fn plan_command_end_to_end() {
        let out = run(&sv(&["plan", "--p", "7", "--tiles", "14"])).unwrap();
        assert!(out.contains("G-2DBC"), "{out}");
        assert!(out.contains("GCR&M"), "{out}");
    }

    #[test]
    fn db_command_without_out_prints_summary() {
        let out = run(&sv(&[
            "db",
            "--purpose",
            "lu",
            "--pmax",
            "6",
            "--seeds",
            "2",
        ]))
        .unwrap();
        assert!(
            out.contains("P =   6") && out.contains("5 entries"),
            "{out}"
        );
    }
}
