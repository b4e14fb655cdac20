//! Multi-process rank launching: the run-spec document and the
//! rank-outcome wire format.
//!
//! `flexdist dexec --backend uds|tcp` runs each rank as its **own OS
//! process**: the parent re-invokes its own binary with the hidden
//! `_rank` subcommand once per rank and writes one [`RunSpec`] JSON
//! document — the pattern itself included — to each child's stdin.
//! Parent and child derive problem and options from it with the same two
//! functions ([`RunSpec::problem`], [`RunSpec::options`]), so a child
//! cannot rebuild a different run than the parent judges. The child
//! executes its rank over the socket fabric and prints one
//! `rank-outcome` JSON document on stdout — the control channel, tile
//! payloads as `f64::to_bits` integers, exactly as lossless as the FXT3
//! wire itself. The parent folds the documents with
//! [`flexdist_factor::merge_rank_outcomes`] and hands the merged run to
//! the same judge as the in-process ones.

use crate::commands::{crash_list_label, parse_crash_list, parse_op};
use flexdist_core::Pattern;
use flexdist_factor::net::{FaultPlan, LinkStats, RankIo, RankPhases, SocketKind};
use flexdist_factor::{
    merge_rank_outcomes, DexecOptions, DexecOutput, Operation, Problem, ProblemError, RankOutcome,
};
use flexdist_json::{object, Value};
use flexdist_kernels::{KernelError, Tile};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Every parameter of one run. The parent derives its own problem and
/// options from it and ships it verbatim to each rank process; only
/// where a rank sits (`--rank`, `--sock`, `--dir`) stays on the child's
/// argv.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The factorization.
    pub op: Operation,
    /// The distribution pattern itself, not the flags that built it.
    pub pattern: Pattern,
    /// Tile count per side.
    pub t: usize,
    /// Tile dimension.
    pub nb: usize,
    /// Seed of the input matrix and of the fault plan.
    pub seed: u64,
    /// Scheduled crash points `(rank, epoch)`, a whole cascade of
    /// distinct casualties; empty runs crash-free. On the wire in the
    /// `--crash` form, `"3@2,1@4"`.
    pub crashes: Vec<(u32, u32)>,
    /// Drop/duplicate/corrupt/delay probability on every link; `0.0`
    /// keeps the wire quiet. Fates are pure functions of the seed, so
    /// every rank computes the same noise.
    pub noise_rate: f64,
    /// Arm recovery: survivors re-map each crashed rank's tiles; a
    /// crashed rank process exits after its pre-crash work.
    pub recover: bool,
    /// Progress watchdog of every rank, in milliseconds.
    pub watchdog_ms: u64,
}

/// A refused `run-spec` document, naming the field at fault
/// (`"document"` when it is not JSON at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The missing, mistyped or out-of-range field.
    pub field: &'static str,
    /// What is wrong with it.
    pub why: String,
}

/// The plan the chaos gates arm: one rate on all four fault kinds.
#[must_use]
pub fn noise_plan(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_rates(rate, rate, rate)
        .with_delay(rate)
}

impl RunSpec {
    /// The problem of this run, refused in the vocabulary of the flags
    /// the spec came from.
    ///
    /// # Errors
    /// A zero `t` or `nb`, an invalid pattern.
    pub fn problem(&self) -> Result<Problem, String> {
        Problem::new(self.op, &self.pattern, self.t, self.nb, self.seed).map_err(|e| match e {
            ProblemError::Zero(size) => format!("--{size} must be positive"),
            other => other.to_string(),
        })
    }

    /// The executor options of this run over channels, untraced: noise
    /// at `noise_rate` plus the crash list under the spec's seed (no
    /// fault plan at all on a quiet crash-free wire), recovery, watchdog.
    ///
    /// # Errors
    /// A rank listed twice in the crash list.
    pub fn options(&self) -> Result<DexecOptions<'static>, String> {
        let quiet = self.crashes.is_empty() && self.noise_rate <= 0.0;
        let noisy = noise_plan(self.seed, self.noise_rate);
        let armed = |plan: FaultPlan, &(rank, epoch): &(u32, u32)| plan.with_crash(rank, epoch);
        let faults = (!quiet).then(|| self.crashes.iter().try_fold(noisy, armed));
        Ok(DexecOptions {
            faults: faults.transpose().map_err(|e| e.to_string())?,
            recover: self.recover,
            watchdog: Duration::from_millis(self.watchdog_ms),
            ..DexecOptions::default()
        })
    }

    /// The `run-spec` control document.
    #[must_use]
    pub fn to_json(&self) -> Value {
        object(vec![
            ("kind", "run-spec".into()),
            ("op", self.op.name().into()),
            ("pattern", self.pattern.to_json_value()),
            ("t", self.t.into()),
            ("nb", self.nb.into()),
            ("seed", self.seed.into()),
            ("crashes", crash_list_label(&self.crashes).into()),
            ("noise_rate", self.noise_rate.into()),
            ("recover", self.recover.into()),
            ("watchdog_ms", self.watchdog_ms.into()),
        ])
    }

    /// Parse a `run-spec` document.
    ///
    /// # Errors
    /// [`SpecError`] naming the first field at fault; never panics,
    /// whatever the bytes.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let bad = |field, why: &str| SpecError {
            field,
            why: why.to_string(),
        };
        let doc = flexdist_json::parse(text).map_err(|e| bad("document", &e.to_string()))?;
        let get = |field| doc.get(field).ok_or_else(|| bad(field, "missing"));
        let int = |field| {
            let n = get(field)?.as_u64();
            n.ok_or_else(|| bad(field, "not a non-negative integer"))
        };
        let size = |field| usize::try_from(int(field)?).map_err(|_| bad(field, "out of range"));
        if get("kind")?.as_str() != Some("run-spec") {
            return Err(bad("kind", "not a run-spec document"));
        }
        let text = |field| {
            let s = get(field)?.as_str();
            s.ok_or_else(|| bad(field, "not a string"))
        };
        let rate = get("noise_rate")?.as_f64();
        Ok(Self {
            op: parse_op(text("op")?).map_err(|e| bad("op", &e))?,
            pattern: Pattern::from_json_value(get("pattern")?).map_err(|e| bad("pattern", &e))?,
            t: size("t")?,
            nb: size("nb")?,
            seed: int("seed")?,
            crashes: parse_crash_list(text("crashes")?).map_err(|e| bad("crashes", &e))?,
            noise_rate: rate
                .filter(|rate| (0.0..=1.0).contains(rate))
                .ok_or_else(|| bad("noise_rate", "not a number in [0, 1]"))?,
            recover: get("recover")?
                .as_bool()
                .ok_or_else(|| bad("recover", "not a boolean"))?,
            watchdog_ms: int("watchdog_ms")?,
        })
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run-spec: field {:?}: {}", self.field, self.why)
    }
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh private directory for one socket fabric, removed again on
/// drop — so every early return of a command still cleans up its
/// sockets. Kept short because UDS socket paths are limited to ~100
/// bytes on most platforms.
pub struct SocketDir(PathBuf);

impl SocketDir {
    /// Create the directory.
    ///
    /// # Errors
    /// Reports directory-creation failures.
    pub fn new() -> Result<Self, String> {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("fxd{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self(path))
    }

    /// Where the per-rank socket and port files live.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for SocketDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fork one process per rank, hand each the spec on its stdin, collect
/// every rank's outcome over the stdout control channel, and merge them
/// into a run-level result.
///
/// # Errors
/// Reports spawn failures, a child's non-zero exit (with its stderr),
/// and malformed rank-outcome documents.
pub fn run_ranks(spec: &RunSpec, kind: SocketKind) -> Result<DexecOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let n_ranks = spec.pattern.n_nodes();
    let dir = SocketDir::new()?;
    let doc = spec.to_json().to_string();
    let spawn = |rank: u32| {
        let mut child = Command::new(&exe)
            .arg("_rank")
            .args(["--rank", &rank.to_string()])
            .args(["--sock", kind.name()])
            .args(["--dir", &dir.path().display().to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn rank {rank}: {e}"))?;
        // The child reads its whole stdin before anything else; dropping
        // the handle closes the pipe. A child that died before reading
        // reports through its exit status below, not through this write.
        if let Some(mut stdin) = child.stdin.take() {
            let _ = stdin.write_all(doc.as_bytes());
        }
        Ok::<_, String>(child)
    };
    let started = Instant::now();
    let mut children = Vec::with_capacity(n_ranks as usize);
    for rank in 0..n_ranks {
        match spawn(rank) {
            Ok(child) => children.push(child),
            Err(e) => {
                // Peers would block dialing the unspawned rank until
                // their connect timeout; reap what was started.
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(e);
            }
        }
    }
    // Wait for every child before judging any: a failed rank makes its
    // peers fail too, and the root cause is the lowest-ranked failure.
    let wait = |(rank, child): (usize, Child)| {
        let out = child.wait_with_output();
        out.map_err(|e| format!("wait rank {rank}: {e}"))
    };
    let outputs: Vec<_> = children.into_iter().enumerate().map(wait).collect();
    let mut outcomes = Vec::with_capacity(outputs.len());
    for (rank, out) in (0..n_ranks).zip(outputs) {
        let out = out?;
        if !out.status.success() {
            let err = String::from_utf8_lossy(&out.stderr);
            return Err(format!("rank {rank} failed: {}", err.trim()));
        }
        let outcome = parse_rank_outcome(&String::from_utf8_lossy(&out.stdout), spec.nb)
            .and_then(|o| check_rank_outcome(o, spec.t, n_ranks, rank));
        outcomes.push(outcome.map_err(|e| format!("rank {rank}: {e}"))?);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let (matrix, report) =
        merge_rank_outcomes(spec.t, spec.nb, n_ranks, outcomes).map_err(|e| e.to_string())?;
    Ok(DexecOutput {
        matrix,
        report,
        trace: None,
        wall_s,
        phases: Vec::new(),
    })
}

/// The integer field `key` of `v`, in the width the outcome stores it.
fn need<T: TryFrom<u64>>(v: &Value, key: &str) -> Result<T, String> {
    let n = v.get(key).and_then(Value::as_u64);
    n.and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("rank-outcome: missing, non-integer or out-of-range field {key:?}"))
}

/// Both directions of a flat counter struct from one field list, so a
/// counter cannot be shipped and not read back (or the reverse).
macro_rules! counter_codec {
    ($emit:ident, $read:ident, $ty:ty { $($field:ident),+ }) => {
        fn $emit(s: &$ty) -> Vec<(&'static str, Value)> {
            vec![$((stringify!($field), s.$field.into())),+]
        }
        fn $read(v: &Value, mut s: $ty) -> Result<$ty, String> {
            $(s.$field = need(v, stringify!($field))?;)+
            Ok(s)
        }
    };
}
counter_codec!(
    emit_io,
    read_io,
    RankIo {
        tasks,
        sent_msgs,
        sent_bytes,
        recv_msgs,
        recv_bytes,
        recovered_msgs,
        recovered_bytes,
        dup_rejected,
        corrupt_rejected,
        delayed
    }
);
counter_codec!(
    emit_link,
    read_link,
    LinkStats {
        msgs,
        bytes,
        panel,
        trailing,
        dropped,
        corrupt,
        duplicated,
        overhead_bytes
    }
);

/// Serialize one rank's outcome as the `rank-outcome` control document.
/// Spans, message events and the phase clock are not shipped: the
/// multi-process path is untraced and untimed per rank (both stay with
/// the in-process backends).
#[must_use]
pub fn rank_outcome_to_json(out: &RankOutcome) -> Value {
    let tile = |(k, tile): &(usize, Tile)| {
        let bits: Vec<Value> = tile.as_slice().iter().map(|x| x.to_bits().into()).collect();
        object(vec![("idx", (*k).into()), ("bits", Value::Array(bits))])
    };
    let link = |(to, s): &(u32, LinkStats)| {
        let mut fields = vec![("to", (*to).into())];
        fields.extend(emit_link(s));
        object(fields)
    };
    let error = out.error.map_or(Value::Null, |(task, e)| {
        let (kind, index) = match e {
            KernelError::NotPositiveDefinite { index } => ("not_positive_definite", index),
            KernelError::ZeroPivot { index } => ("zero_pivot", index),
        };
        object(vec![
            ("task", task.into()),
            ("kind", kind.into()),
            ("index", index.into()),
        ])
    });
    object(vec![
        ("kind", "rank-outcome".into()),
        ("rank", out.io.rank.into()),
        ("io", object(emit_io(&out.io))),
        ("sent", Value::Array(out.sent.iter().map(link).collect())),
        ("tiles", Value::Array(out.tiles.iter().map(tile).collect())),
        ("error", error),
    ])
}

/// Parse a `rank-outcome` document back into a [`RankOutcome`]. The
/// tile dimension comes from the caller (it is part of the run spec,
/// not of the document).
///
/// # Errors
/// Reports JSON syntax problems and structural mismatches (wrong kind,
/// wrong payload length, unknown error kind).
pub fn parse_rank_outcome(text: &str, nb: usize) -> Result<RankOutcome, String> {
    let doc = flexdist_json::parse(text).map_err(|e| format!("rank-outcome JSON: {e}"))?;
    if doc.get("kind").and_then(Value::as_str) != Some("rank-outcome") {
        return Err("rank-outcome: wrong or missing document kind".to_string());
    }
    let array = |key: &str| {
        let items = doc.get(key).and_then(Value::as_array);
        items.ok_or_else(|| format!("rank-outcome: missing {key} array"))
    };
    let rank = RankIo {
        rank: need(&doc, "rank")?,
        ..RankIo::default()
    };
    let io_doc = doc.get("io").ok_or("rank-outcome: missing io")?;
    let mut sent = Vec::new();
    for s in array("sent")? {
        sent.push((need(s, "to")?, read_link(s, LinkStats::default())?));
    }
    let mut tiles = Vec::new();
    for td in array("tiles")? {
        let idx: usize = need(td, "idx")?;
        let bits = td.get("bits").and_then(Value::as_array);
        let bits = bits.ok_or("rank-outcome: tile without bits")?;
        if bits.len() != nb * nb {
            return Err(format!(
                "rank-outcome: tile {idx} carries {} values, expected {}",
                bits.len(),
                nb * nb
            ));
        }
        let mut tile = Tile::zeros(nb);
        for (slot, b) in tile.as_mut_slice().iter_mut().zip(bits) {
            let raw = b.as_u64().ok_or("rank-outcome: non-integer tile bits")?;
            *slot = f64::from_bits(raw);
        }
        tiles.push((idx, tile));
    }
    let error = match doc.get("error") {
        None | Some(Value::Null) => None,
        Some(e) => {
            let index = need(e, "index")?;
            let err = match e.get("kind").and_then(Value::as_str) {
                Some("not_positive_definite") => KernelError::NotPositiveDefinite { index },
                Some("zero_pivot") => KernelError::ZeroPivot { index },
                other => return Err(format!("rank-outcome: unknown error kind {other:?}")),
            };
            Some((need(e, "task")?, err))
        }
    };
    Ok(RankOutcome {
        tiles,
        io: read_io(io_doc, rank)?,
        phases: RankPhases::default(),
        sent,
        spans: Vec::new(),
        msgs: Vec::new(),
        error,
    })
}

/// Refuse a parsed outcome that does not fit the run it was printed in:
/// [`merge_rank_outcomes`] indexes the `t × t` matrix and the per-rank
/// tables with these fields, so they are checked here, where the run's
/// sizes and the rank whose stdout this is are known.
///
/// # Errors
/// Names the field: a `rank` other than the child's own, a `sent[].to`
/// outside the run, a `tiles[].idx` outside the grid or listed twice.
pub fn check_rank_outcome(
    out: RankOutcome,
    t: usize,
    n_ranks: u32,
    rank: u32,
) -> Result<RankOutcome, String> {
    let bad = |field: &str, why: String| Err(format!("rank-outcome: field {field:?} {why}"));
    if out.io.rank != rank {
        let why = format!("says {}, not the rank that printed it", out.io.rank);
        return bad("rank", why);
    }
    if let Some((to, _)) = out.sent.iter().find(|(to, _)| *to >= n_ranks) {
        return bad("sent[].to", format!("names rank {to} of {n_ranks}"));
    }
    let mut seen = vec![false; t * t];
    for (idx, _) in &out.tiles {
        match seen.get_mut(*idx) {
            Some(seen) if !*seen => *seen = true,
            Some(_) => return bad("tiles[].idx", format!("lists tile {idx} twice")),
            None => {
                let why = format!("is {idx}, outside the {t} x {t} tile grid");
                return bad("tiles[].idx", why);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexdist_factor::net::NetError;
    use proptest::prelude::*;

    /// A spec exercising every field: a GCR&M pattern (undefined
    /// diagonal cells travel as `null`), a two-crash cascade, noise, a
    /// seed past 2^53 and a non-default watchdog.
    fn sample_spec() -> RunSpec {
        let config = flexdist_core::gcrm::GcrmConfig {
            n_seeds: 3,
            ..Default::default()
        };
        RunSpec {
            op: Operation::Cholesky,
            pattern: flexdist_core::gcrm::search(5, &config).unwrap().best,
            t: 6,
            nb: 4,
            seed: u64::MAX - 7,
            crashes: vec![(3, 2), (1, 4)],
            noise_rate: 0.05,
            recover: true,
            watchdog_ms: 1234,
        }
    }

    #[test]
    fn run_spec_round_trips_and_names_the_field_at_fault() {
        let spec = sample_spec();
        let Value::Object(pairs) = spec.to_json() else {
            panic!("the run spec is a JSON object");
        };
        let text = spec.to_json().to_string();
        // A declared shape whose `rows * cols` overflows is refused, not
        // multiplied.
        let shape = |r: u64| format!("\"rows\":{r},\"cols\":{r}");
        let huge = text.replace(&shape(spec.pattern.rows() as u64), &shape(1 << 32));
        assert_ne!(huge, text);
        assert_eq!(RunSpec::from_json(&huge).unwrap_err().field, "pattern");
        assert_eq!(RunSpec::from_json(&text), Ok(spec));
        // Every field, dropped or mistyped in turn, is the one named.
        for (victim, _) in &pairs {
            for mistyped in [None, Some(Value::from("nope"))] {
                let keep = |(k, v): &(String, Value)| match (k == victim, &mistyped) {
                    (true, None) => None,
                    (true, Some(wrong)) => Some((k.clone(), wrong.clone())),
                    _ => Some((k.clone(), v.clone())),
                };
                let doc = Value::Object(pairs.iter().filter_map(keep).collect());
                let err = RunSpec::from_json(&doc.to_string()).unwrap_err();
                assert_eq!(err.field, victim, "{mistyped:?}: {err}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever arrives on a rank's stdin — noise, or a valid
        /// document with one byte overwritten or cut short anywhere (a
        /// parent that died mid-write) — the answer is a spec within its
        /// field ranges or a typed refusal, never a panic.
        #[test]
        fn from_json_never_panics(
            noise in proptest::collection::vec(0u8..=255, 0..256),
            at in 0usize..10_000,
            byte in 0u8..=255,
        ) {
            prop_assert!(RunSpec::from_json(&String::from_utf8_lossy(&noise)).is_err());
            let mut bytes = sample_spec().to_json().to_string().into_bytes();
            let at = at % bytes.len();
            let cut = RunSpec::from_json(&String::from_utf8_lossy(&bytes[..at])).unwrap_err();
            prop_assert_eq!(cut.field, "document");
            bytes[at] = byte;
            if let Ok(spec) = RunSpec::from_json(&String::from_utf8_lossy(&bytes)) {
                prop_assert!((0.0..=1.0).contains(&spec.noise_rate));
            }
        }

        /// The child → parent half: whatever a rank process prints —
        /// noise, a valid document cut short or with one byte
        /// overwritten, or with any one integer field replaced — parse +
        /// check refuses it or yields an outcome the merge folds into a
        /// run of the right shape. Never a panic.
        #[test]
        fn rank_outcome_never_panics(
            noise in proptest::collection::vec(0u8..=255, 0..256),
            at in 0usize..10_000,
            byte in 0u8..=255,
            field in 0usize..27,
            hostile in 0usize..6,
        ) {
            // The sample is rank 3's outcome, tile 5 of a 3 x 3 grid, one
            // link to rank 0.
            let (t, nb, n_ranks, rank) = (3, 2, 4, 3);
            let through = |text: &str| {
                let out = parse_rank_outcome(text, nb)?;
                let out = check_rank_outcome(out, t, n_ranks, rank)?;
                let (matrix, report) =
                    merge_rank_outcomes(t, nb, n_ranks, vec![out]).map_err(|e| e.to_string())?;
                assert_eq!((matrix.tiles(), report.n_ranks), (t, n_ranks));
                Ok::<_, String>(())
            };
            prop_assert!(through(&String::from_utf8_lossy(&noise)).is_err());
            let doc = rank_outcome_to_json(&sample_outcome());
            let mut bytes = doc.to_string().into_bytes();
            prop_assert_eq!(through(&String::from_utf8_lossy(&bytes)), Ok(()));
            let at = at % bytes.len();
            prop_assert!(through(&String::from_utf8_lossy(&bytes[..at])).is_err());
            bytes[at] = byte;
            let _ = through(&String::from_utf8_lossy(&bytes));
            let mut mutated = doc.clone();
            let value = [-1, 0, 7, 999, 1 << 32, 1 << 53][hostile];
            prop_assert!(set_nth_int(&mut mutated, &mut { field }, value));
            let _ = through(&mutated.to_string());
        }
    }

    /// Overwrite the `nth` integer of `v` in document order; false when
    /// `v` holds fewer.
    fn set_nth_int(v: &mut Value, nth: &mut usize, to: i128) -> bool {
        match v {
            Value::Int(n) if *nth == 0 => {
                *n = to;
                true
            }
            Value::Int(_) => {
                *nth -= 1;
                false
            }
            Value::Array(items) => items.iter_mut().any(|x| set_nth_int(x, nth, to)),
            Value::Object(pairs) => pairs.iter_mut().any(|(_, x)| set_nth_int(x, nth, to)),
            _ => false,
        }
    }

    #[test]
    fn problem_and_options_are_functions_of_the_spec_alone() {
        let spec = sample_spec();
        let opts = spec.options().unwrap();
        assert_eq!((opts.recover, opts.watchdog.as_millis()), (true, 1234));
        let faults = opts.faults.unwrap();
        assert_eq!(faults.seed(), spec.seed);
        assert_eq!(faults.crashes(), [(3, 2), (1, 4)]);
        assert!(faults.has_noise());
        let problem = spec.problem().unwrap();
        assert_eq!(problem.assignment.n_nodes(), 5);
        assert_eq!((problem.tl.t, problem.input.nb()), (6, 4));
    }

    fn sample_outcome() -> RankOutcome {
        let mut tile = Tile::zeros(2);
        // Adversarial payloads: NaN, -0.0 and a subnormal must survive
        // the control channel bit-for-bit.
        tile.as_mut_slice().copy_from_slice(&[
            f64::from_bits(0x7ff8_0000_0000_0001),
            -0.0,
            f64::MIN_POSITIVE / 2.0,
            -3.5,
        ]);
        RankOutcome {
            tiles: vec![(5, tile)],
            io: RankIo {
                rank: 3,
                tasks: 7,
                sent_msgs: 11,
                sent_bytes: 1234,
                recv_msgs: 9,
                recv_bytes: u64::MAX - 1,
                recovered_msgs: 3,
                recovered_bytes: 555,
                dup_rejected: 2,
                corrupt_rejected: 1,
                delayed: 4,
            },
            phases: RankPhases::default(),
            sent: vec![(
                0,
                LinkStats {
                    msgs: 3,
                    bytes: 99,
                    panel: 1,
                    trailing: 2,
                    dropped: 1,
                    corrupt: 0,
                    duplicated: 1,
                    overhead_bytes: 33,
                },
            )],
            spans: Vec::new(),
            msgs: Vec::new(),
            error: Some((42, KernelError::ZeroPivot { index: 6 })),
        }
    }

    /// Counters no run could reach are a typed refusal naming the rank
    /// whose row overflowed the total and the field, not a debug-build
    /// panic in the merge.
    #[test]
    fn merge_refuses_counters_that_overflow_the_total() {
        let mut first = sample_outcome();
        first.io.rank = 2;
        first.io.delayed = u64::MAX;
        let second = sample_outcome(); // rank 3, delayed 4
        let err = merge_rank_outcomes(3, 2, 4, vec![second, first]).unwrap_err();
        let (rank, field) = (3, "delayed");
        assert_eq!(err, NetError::CounterOverflow { rank, field });
        // The per-link half of the fold, and a sum that fits.
        let mut first = sample_outcome();
        first.io.rank = 2;
        first.sent[0].1.overhead_bytes = u64::MAX - 32;
        let err = merge_rank_outcomes(3, 2, 4, vec![first, sample_outcome()]).unwrap_err();
        let (rank, field) = (3, "overhead_bytes");
        assert_eq!(err, NetError::CounterOverflow { rank, field });
        assert!(merge_rank_outcomes(3, 2, 4, vec![sample_outcome()]).is_ok());
    }

    #[test]
    fn rank_outcome_round_trips_bit_for_bit() {
        let out = sample_outcome();
        let text = rank_outcome_to_json(&out).to_string();
        let back = parse_rank_outcome(&text, 2).unwrap();
        assert_eq!(back.io, out.io);
        assert_eq!(back.sent, out.sent);
        assert_eq!(back.error, out.error);
        assert_eq!(back.tiles.len(), 1);
        assert_eq!(back.tiles[0].0, 5);
        let a: Vec<u64> = out.tiles[0]
            .1
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let b: Vec<u64> = back.tiles[0]
            .1
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(a, b, "payload bits must survive the control channel");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse_rank_outcome("{}", 2).is_err());
        assert!(parse_rank_outcome("not json", 2).is_err());
        let mut out = sample_outcome();
        out.error = None;
        let text = rank_outcome_to_json(&out).to_string();
        // Wrong nb: payload length no longer matches.
        let err = match parse_rank_outcome(&text, 3) {
            Err(e) => e,
            Ok(_) => panic!("wrong nb must be rejected"),
        };
        assert!(err.contains("expected 9"), "{err}");
        // A well-formed document that does not fit its run (the sample:
        // rank 3, tile 5, a link to rank 0) names the field; an `idx`
        // outside the grid used to panic the parent in `tile_mut`.
        let refused = |t, n_ranks, rank| {
            let fresh = parse_rank_outcome(&rank_outcome_to_json(&sample_outcome()).to_string(), 2);
            check_rank_outcome(fresh.unwrap(), t, n_ranks, rank).err()
        };
        assert_eq!(refused(3, 4, 3), None);
        assert!(refused(2, 4, 3)
            .unwrap()
            .contains("\"tiles[].idx\" is 5, outside the 2 x 2"));
        assert!(refused(3, 4, 2).unwrap().contains("\"rank\" says 3"));
        assert!(refused(3, 0, 3)
            .unwrap()
            .contains("\"sent[].to\" names rank 0 of 0"));
        let mut twice = sample_outcome();
        twice.tiles.push((5, Tile::zeros(2)));
        let err = check_rank_outcome(twice, 3, 4, 3).err().unwrap();
        assert!(err.contains("lists tile 5 twice"), "{err}");
    }
}
