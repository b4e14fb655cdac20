//! # flexdist-verify
//!
//! Machine-checked correctness for the factorization pipeline. The
//! owner-computes model (paper §III) only yields correct factorizations
//! if the task graph encodes *exactly* the RAW/WAR/WAW dependencies
//! implied by each kernel's tile footprint, and the executors respect
//! them. This crate turns those invariants from "the integration tests
//! happened to pass" into explicit analyses:
//!
//! 1. **Static DAG linter** ([`dag`]): derives the symbolic per-task tile
//!    access set of every kernel (GETRF/TRSM/GEMM/POTRF/SYRK) from the
//!    built [`TaskList`](flexdist_factor::TaskList), recomputes the exact
//!    required ordering set, and diffs it against the graph the runtime
//!    actually built — reporting missing orderings (latent races),
//!    redundant transitive edges (a transitive-reduction count), cycles,
//!    and owner-computes violations.
//! 2. **Trace race detector** ([`race`]): replays an execution or
//!    simulation trace through vector clocks built from the DAG's
//!    happens-before relation plus per-worker program order, flagging any
//!    pair of conflicting tile accesses left unordered — and any trace
//!    whose timestamps contradict a dependency edge.
//! 3. **Workspace lint pass** ([`lint`]): repo-specific source rules
//!    (no `unwrap()`/`expect()` in library crates outside tests, no
//!    NaN-unsafe `f64` ordering outside the blessed `Time`-bits helpers,
//!    no lossy `as` integer narrowing in the wire crates, `unsafe`
//!    confined to `factor::steal` with `// SAFETY:` comments), driven by
//!    an explicit allowlist file.
//! 4. **Static protocol verifier** ([`protocol`]): derives the complete
//!    per-rank send/recv schedule from `(pattern, P, tiles,
//!    factorization)` alone — cross-checked against the independent
//!    Fig. 2 broadcast walk — and proves send/recv matching,
//!    deadlock-freedom under bounded inbox buffers (reporting the
//!    minimum safe capacity and full wait-for cycle witnesses), replica
//!    eviction safety, and exact per-rank peak-memory bounds; a live
//!    `net-trace` can then be validated as a linearization of the
//!    derived schedule.
//!
//! All four are exposed through the `flexdist verify` CLI subcommand and
//! run in `scripts/check.sh`, so every CI run is also a race-detection
//! run.

#![forbid(unsafe_code)]

pub mod access;
pub mod dag;
pub mod lint;
pub mod protocol;
pub mod race;
pub mod view;

pub use access::{expected_accesses, TaskAccess};
pub use dag::{lint_graph, lint_with_view, DagReport};
pub use lint::{lint_workspace, Allowlist, LintFinding, LintReport};
pub use protocol::{
    check_protocol, check_schedule, check_trace_linearization, ProtocolReport, ProtocolSchedule,
    RankPeak, SendSpec, TraceCheck,
};
pub use race::{
    check_net_messages, check_replay_report, detect_races, net_messages_from_json,
    trace_provenance, MsgView, NetMsgReport, RaceReport, ReplayCheck, Span, TraceView,
};
pub use view::GraphView;

/// One verification finding. `rule` is a stable machine-readable tag;
/// `message` names the offending tasks/data/lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule tag (e.g. `"missing-edge"`, `"data-race"`).
    pub rule: &'static str,
    /// Human-readable description naming the offending entities.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.message)
    }
}
