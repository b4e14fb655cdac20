//! Distributed execution: one rank per node, explicit tile messages.
//!
//! Where [`execute`](crate::execute::execute) runs the task graph on a
//! shared-memory thread pool, this engine instantiates **one rank per
//! node of the [`TileAssignment`]**, gives each rank only the tiles it
//! owns, and moves every non-local operand over the
//! [`flexdist_net`] fabric as a serialized [`TileMsg`] — the panel and
//! trailing broadcasts of the paper's Fig. 2, made executable.
//!
//! ## Broadcast schedule
//!
//! The send schedule is derived from the same per-iteration
//! distinct-receiver structure that `flexdist_dist::comm` counts
//! analytically:
//!
//! * after `GETRF(ℓ)` / `POTRF(ℓ)`, tile `(ℓ,ℓ)` goes to the distinct
//!   owners of the panel tiles it unlocks (**panel** class);
//! * after each panel `TRSM`, the solved tile goes to the distinct
//!   owners of its trailing row/column (LU) or colrow (Cholesky)
//!   (**trailing** class).
//!
//! Because both walk the identical owner sets, the measured
//! [`NetReport::wire`] equals `{lu,cholesky}_comm_volume` **exactly** —
//! the headline conformance invariant, enforced by tests and by the
//! `flexdist dexec` CLI on every run.
//!
//! ## Progress engine
//!
//! Each rank runs a single-threaded loop over its own tasks: local
//! dependencies are tracked with per-task counters over same-rank graph
//! edges; remote operands are tracked as missing [`TileKey`]s resolved by
//! the [`ReplicaCache`] as messages arrive. When no task is ready the
//! rank blocks on its inbox. Sends never block (unbounded channels), and
//! every message a rank receives is consumed by at least one of its
//! tasks, so the protocol is deadlock-free; a dropped or extra message
//! surfaces as a typed [`NetError`] instead of a hang.
//!
//! ## Reliability under injected faults
//!
//! With [`DexecOptions::faults`] set, every link misbehaves according to
//! the seeded [`FaultPlan`] and the engine compensates: senders
//! retransmit dropped/corrupted frames ([`Endpoint::send_tile_reliable`])
//! until delivered or [`NetError::RetryExhausted`]; receivers reject
//! corrupt frames by checksum, deduplicate retransmitted replicas through
//! the [`ReplicaCache`] seen-set, evict replica payloads after their last
//! local read, and bound every wait with a progress watchdog that turns
//! starvation into [`NetError::Stalled`] naming the replicas still
//! outstanding. A rank the plan crashes exits with
//! [`NetError::RankCrashed`] before the scheduled iteration. Because the
//! fate of every physical frame is a pure function of the seed and the
//! message identity, the same seed reproduces the same [`NetReport`] —
//! fault counters included — and the factorized matrix stays
//! bitwise-identical to the shared-memory executor on every survivable
//! schedule.
//!
//! ## Bitwise identity
//!
//! Tasks writing the same tile are chained by same-rank WAW/RAW edges,
//! so every tile sees the exact kernel sequence of the shared-memory
//! executor, and panel tiles are never rewritten after being broadcast —
//! distributed results are bitwise-identical to `execute()` at any
//! worker count (asserted by `tests/distributed_diff.rs`).

use crate::graphs::{Op, TaskList, TileRef};
use crate::recovery::{derive_recovery, NO_RANK};
use flexdist_dist::TileAssignment;
use flexdist_kernels::{KernelError, Tile, TiledMatrix};
use flexdist_net::{
    build_fabric_with, build_socket_fabric, Endpoint, FaultPlan, FullMesh, LinkStats, MsgClass,
    MsgEvent, MsgKind, NetError, NetReport, NetTrace, RankIo, RankPhases, ReplicaCache,
    SocketConfig, SocketTransport, TileKey, Topology,
};
use flexdist_runtime::TaskSpan;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which [`Transport`](flexdist_net::Transport) carries the frames.
#[derive(Debug, Clone, Default)]
pub enum Backend {
    /// In-process mpsc channels: the deterministic test double.
    #[default]
    Channel,
    /// OS sockets (UDS or TCP per the config), still driven by one
    /// thread per rank inside this process. Separate-process execution
    /// goes through [`execute_rank_socket`] instead.
    Socket(SocketConfig),
}

/// Knobs of a distributed run.
pub struct DexecOptions<'a> {
    /// Which rank pairs may talk directly (default: [`FullMesh`]).
    pub topology: &'a dyn Topology,
    /// Record a span + message trace.
    pub trace: bool,
    /// Deterministic fault schedule to interpose on every link. `None`
    /// runs the strict protocol (any anomaly is fatal); `Some` arms the
    /// reliability layer (retransmission, dedup, checksum rejection,
    /// watchdog).
    pub faults: Option<FaultPlan>,
    /// How long a rank may sit with no consumable message before the
    /// progress watchdog turns the wait into [`NetError::Stalled`].
    pub watchdog: Duration,
    /// Transport backend under every endpoint.
    pub backend: Backend,
    /// Recover from scheduled rank crashes instead of failing the run:
    /// for each crash (sorted by epoch, ties by rank) survivors re-map
    /// the casualty's tiles onto themselves
    /// (`TileAssignment::remap_excluding`, composing across the
    /// cascade), splice the fused post-crash schedule in, and continue
    /// to completion. Composes with drop/dup/corrupt/delay noise: the
    /// goodput counters count each logical send once on the sender
    /// side, so they remain a pure function of the crash points while
    /// retransmit overhead floats.
    pub recover: bool,
    /// Test knob: the named rank sleeps for the given duration before
    /// entering its progress loop, modeling a slow schedule
    /// re-derivation near the watchdog deadline (the recovery-grace
    /// regression tests drive this).
    pub splice_delay: Option<(u32, Duration)>,
}

impl Default for DexecOptions<'_> {
    fn default() -> Self {
        Self {
            topology: &FullMesh,
            trace: false,
            faults: None,
            watchdog: Duration::from_secs(30),
            backend: Backend::Channel,
            recover: false,
            splice_delay: None,
        }
    }
}

/// Everything a distributed run produces.
pub struct DexecOutput {
    /// The factorized matrix, reassembled from the ranks' owned tiles.
    pub matrix: TiledMatrix,
    /// Measured traffic and kernel status.
    pub report: NetReport,
    /// Span + message trace, when requested.
    pub trace: Option<NetTrace>,
    /// Wall time of the run in seconds, fabric bring-up excluded: from
    /// the first rank starting to the last one joined (or, for rank
    /// processes, from the first spawn to the last exit).
    pub wall_s: f64,
    /// Where each rank's progress loop spent its time, indexed by rank;
    /// empty when the ranks were processes (the control channel does not
    /// carry it).
    pub phases: Vec<RankPhases>,
}

/// One broadcast a task performs after completing: its written tile to
/// the distinct owners that read it remotely, in first-encounter order
/// of the Fig. 2 owner walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskBcast {
    /// Panel or trailing leg of the iteration.
    pub class: MsgClass,
    /// Tile row.
    pub i: u32,
    /// Tile column.
    pub j: u32,
    /// Iteration at which the tile's final value ships (`min(i, j)`).
    pub epoch: u32,
    /// Distinct receiving ranks, never containing the sender.
    pub receivers: Vec<u32>,
    /// Parallel to `receivers`: marks sends that exist only because of
    /// a crash re-map (counted in the `Recovered` goodput counters).
    /// All-false on a crash-free schedule.
    pub recovered: Vec<bool>,
}

/// The complete static communication schedule of a distributed run,
/// derived from the ops + owner map alone — every send and every remote
/// operand of every task, before a single message moves.
///
/// This is the single source of truth shared by the progress engine
/// ([`execute_distributed_with`]) and the static protocol verifier
/// (`flexdist-verify`'s `protocol` module): both consume exactly this
/// structure, so what the verifier proves is what the engine runs.
#[derive(Debug, Clone)]
pub struct CommSchedule {
    /// Tile count per matrix side.
    pub t: usize,
    /// Rank count (one per node of the assignment).
    pub n_ranks: u32,
    /// Executing rank of each task (owner-computes).
    pub node: Vec<u32>,
    /// Same-rank predecessor counts.
    pub local_deps: Vec<u32>,
    /// Remote operands each task waits for.
    pub needs: Vec<Vec<TileKey>>,
    /// Broadcast each task performs on completion.
    pub bcast: Vec<Option<TaskBcast>>,
    /// Tile each task writes in place.
    pub writes: Vec<(u32, u32)>,
    /// Factorization iteration each task belongs to.
    pub epochs: Vec<u32>,
}

/// Distinct-receiver collector (stamp vector keyed by rank,
/// first-encounter order). Deliberately this module's own: the executed
/// derivation shares no code with the `flexdist_dist` walk that checks
/// it.
struct ReceiverCollector {
    stamp: Vec<u32>,
    current: u32,
}

impl ReceiverCollector {
    fn new(n_nodes: u32) -> Self {
        Self {
            stamp: vec![0; n_nodes as usize],
            current: 0,
        }
    }

    fn collect(&mut self, sender: u32, owners: impl Iterator<Item = u32>) -> Vec<u32> {
        self.current += 1;
        self.stamp[sender as usize] = self.current;
        let mut out = Vec::new();
        for node in owners {
            let s = &mut self.stamp[node as usize];
            if *s != self.current {
                *s = self.current;
                out.push(node);
            }
        }
        out
    }
}

/// The broadcast a completed task performs, mirroring the owner walks of
/// `lu_comm_volume` / `cholesky_comm_volume` exactly (same tiles, same
/// distinct-receiver sets), which is what makes measured == analytic.
/// Only *who reads the tile* is spelled here; the tile and its epoch are
/// the op's own [`Op::write`] and [`Op::epoch`].
fn bcast_of(op: Op, t: usize, a: &TileAssignment, rc: &mut ReceiverCollector) -> Option<TaskBcast> {
    let own = |i: usize, j: usize| a.owner(i, j);
    let tile = op.write();
    let sender = own(tile.i, tile.j);
    let (class, receivers) = match op {
        Op::Getrf { l } => {
            let owners = ((l + 1)..t).flat_map(|i| [own(i, l), own(l, i)]);
            (MsgClass::Panel, rc.collect(sender, owners))
        }
        Op::Potrf { l } => {
            let owners = ((l + 1)..t).map(|i| own(i, l));
            (MsgClass::Panel, rc.collect(sender, owners))
        }
        Op::TrsmColUpper { i, l } => {
            let owners = ((l + 1)..t).map(|j| own(i, j));
            (MsgClass::Trailing, rc.collect(sender, owners))
        }
        Op::TrsmRowLower { l, j } => {
            let owners = ((l + 1)..t).map(|i| own(i, j));
            (MsgClass::Trailing, rc.collect(sender, owners))
        }
        Op::TrsmLowerTrans { i, l } => {
            let owners = ((l + 1)..=i)
                .map(|j| own(i, j))
                .chain(((i + 1)..t).map(|j| own(j, i)));
            (MsgClass::Trailing, rc.collect(sender, owners))
        }
        _ => return None,
    };
    if receivers.is_empty() {
        return None;
    }
    let recovered = vec![false; receivers.len()];
    Some(TaskBcast {
        class,
        i: tile.i as u32,
        j: tile.j as u32,
        epoch: op.epoch(),
        receivers,
        recovered,
    })
}

/// Derive the complete static communication schedule of a distributed
/// run from the task list and owner map.
///
/// This is the derivation that is *executed*: each task's broadcast
/// comes from `bcast_of` on its own op, never from the
/// `flexdist_dist` stream. It mirrors that stream's owner walk exactly
/// (same tiles, same distinct-receiver sets in the same order) — the
/// property that makes measured wire volume equal the analytic counts,
/// and that lets `flexdist-verify` cross-check the two derivations
/// against each other.
///
/// # Errors
/// [`NetError::Unsupported`] for operations without a broadcast
/// schedule (only LU and Cholesky have one).
pub fn derive_schedule(tl: &TaskList, a: &TileAssignment) -> Result<CommSchedule, NetError> {
    if tl.operation.walk().is_none() {
        return Err(NetError::Unsupported {
            operation: tl.operation.name().to_string(),
        });
    }
    let g = &tl.graph;
    let node = (0..g.n_tasks()).map(|id| g.node_of(id as u32)).collect();
    let mut rc = ReceiverCollector::new(a.n_nodes());
    Ok(lay_out(tl, a, node, |op, _| bcast_of(op, tl.t, a, &mut rc)))
}

/// Lay a task list out over a given placement: same-rank predecessor
/// counts and remote operands under `map`, each task's broadcast
/// supplied by `bcast_for(op, executing rank)`. The one pass behind the
/// crash-free schedule (placement from the graph, broadcasts from the
/// per-op owner walk) and the fused schedules of a recovering run
/// (placement under a re-map, broadcasts from the chain stream). Tasks
/// placed on [`NO_RANK`] belong to nobody: they are neither counted as
/// predecessors nor given a broadcast.
pub(crate) fn lay_out(
    tl: &TaskList,
    map: &TileAssignment,
    node: Vec<u32>,
    mut bcast_for: impl FnMut(Op, u32) -> Option<TaskBcast>,
) -> CommSchedule {
    let g = &tl.graph;
    let n = tl.ops.len();
    let mut local_deps = vec![0u32; n];
    for (u, &nu) in node.iter().enumerate() {
        if nu == NO_RANK {
            continue;
        }
        for &s in g.successors_of(u as u32) {
            if node[s as usize] == nu {
                local_deps[s as usize] += 1;
            }
        }
    }
    let mut needs = Vec::with_capacity(n);
    let mut bcast = Vec::with_capacity(n);
    for (&op, &me) in tl.ops.iter().zip(&node) {
        let keys = op
            .reads()
            .into_iter()
            .flatten()
            .filter(|r| map.owner(r.i, r.j) != me)
            .map(|r| TileKey {
                i: r.i as u32,
                j: r.j as u32,
                epoch: op.epoch(),
            })
            .collect();
        needs.push(keys);
        bcast.push(bcast_for(op, me));
    }
    let writes = tl
        .ops
        .iter()
        .map(|&op| {
            let w = op.write();
            (w.i as u32, w.j as u32)
        })
        .collect();
    let epochs = tl.ops.iter().map(|&op| op.epoch()).collect();
    CommSchedule {
        t: tl.t,
        n_ranks: map.n_nodes(),
        node,
        local_deps,
        needs,
        bcast,
        writes,
        epochs,
    }
}

/// What one rank hands back after draining its tasks: its share of the
/// factorized matrix, its traffic counters, and any kernel failure.
/// Public so a multi-process launcher can ship each rank's outcome over
/// a control channel and rebuild the run with [`merge_rank_outcomes`].
pub struct RankOutcome {
    /// Owned tiles after factorization, keyed by flat index `i * t + j`.
    pub tiles: Vec<(usize, Tile)>,
    /// Receive-side counters and task count of this rank.
    pub io: RankIo,
    /// Wall-clock breakdown of this rank's progress loop.
    pub phases: RankPhases,
    /// Outgoing per-link counters, `(peer, stats)`.
    pub sent: Vec<(u32, LinkStats)>,
    /// Task spans, when tracing.
    pub spans: Vec<TaskSpan>,
    /// Message events, when tracing.
    pub msgs: Vec<MsgEvent>,
    /// First kernel failure on this rank, with the failing task id.
    pub error: Option<(usize, KernelError)>,
}

/// Run the kernel of one task against the rank-local store + replica
/// cache. The outer error is a protocol bug (missing tile), the inner
/// one a numerical kernel failure.
#[allow(clippy::too_many_arguments)]
fn run_local_op(
    op: Op,
    t: usize,
    nb: usize,
    me: u32,
    a: &TileAssignment,
    tiles: &mut [Option<Tile>],
    cache: &ReplicaCache,
) -> Result<Result<(), KernelError>, NetError> {
    let w = op.write();
    let widx = w.i * t + w.j;
    let mut out = tiles[widx].take().ok_or(NetError::MissingLocalTile {
        rank: me,
        i: w.i as u32,
        j: w.j as u32,
    })?;
    let read = |r: TileRef| -> Result<&[f64], NetError> {
        let (i, j, epoch) = (r.i as u32, r.j as u32, op.epoch());
        let tile = if a.owner(r.i, r.j) == me {
            let local = tiles[r.i * t + r.j].as_ref();
            local.ok_or(NetError::MissingLocalTile { rank: me, i, j })
        } else {
            let replica = cache.get(TileKey { i, j, epoch });
            replica.ok_or(NetError::MissingReplica {
                rank: me,
                i,
                j,
                epoch,
            })
        };
        tile.map(Tile::as_slice)
    };
    let [first, second] = op.reads().map(|r| r.map(read).transpose());
    let status = op.apply(out.as_mut_slice(), [first?, second?], nb);
    tiles[widx] = Some(out);
    Ok(status)
}

/// How one rank participates in a (possibly recovering) run.
#[derive(Debug, Clone, Copy, Default)]
struct RankMode {
    /// Recovery armed: the scheduled crash is modeled statically (the
    /// dead rank runs a truncated plan) instead of firing at run time.
    recover: bool,
    /// This rank *is* the scheduled casualty: after its pre-crash tasks
    /// it leaves the fabric immediately — no inbox drain, no tiles
    /// returned — like a process that died.
    dying: bool,
    /// Extra watchdog intervals tolerated before `Stalled`, so a peer's
    /// slow schedule re-derivation near the deadline is not mistaken
    /// for starvation.
    grace: u32,
    /// Sleep before the progress loop (recovery-grace test knob).
    delay: Option<Duration>,
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn run_rank(
    me: u32,
    tl: &TaskList,
    a: &TileAssignment,
    plan: &CommSchedule,
    input: &TiledMatrix,
    mut ep: Endpoint,
    t0: Instant,
    want_trace: bool,
    watchdog: Duration,
    mode: RankMode,
) -> Result<RankOutcome, NetError> {
    let g = &tl.graph;
    let t = tl.t;
    let nb = input.nb();
    let fault_mode = ep.fault_plan().is_some();
    let crash_at = if mode.recover {
        // Recovery models the crash statically: the dead rank's plan is
        // already truncated to its pre-crash tasks, so the runtime kill
        // switch must not fire (the heap could otherwise pop a
        // post-crash task while an earlier-epoch one still waits,
        // making the cut nondeterministic).
        None
    } else {
        ep.fault_plan().and_then(|p| p.crash_epoch(me))
    };
    if let Some(d) = mode.delay {
        std::thread::sleep(d);
    }
    let mut grace_left = mode.grace;
    let mut tiles: Vec<Option<Tile>> = (0..t * t)
        .map(|k| {
            let (i, j) = (k / t, k % t);
            (a.owner(i, j) == me).then(|| input.tile(i, j).clone())
        })
        .collect();
    let mut cache = ReplicaCache::new(t, nb);
    let mut deps = plan.local_deps.clone();
    let mut missing: Vec<u32> = plan.needs.iter().map(|n| n.len() as u32).collect();
    let mut waiting: HashMap<TileKey, Vec<usize>> = HashMap::new();
    // How many of this rank's tasks still read each remote replica;
    // at zero the payload is evicted (the key stays known to the cache,
    // so late retransmitted copies are still deduplicated).
    let mut readers_left: HashMap<TileKey, u32> = HashMap::new();
    let mut ready: BinaryHeap<(i64, Reverse<usize>)> = BinaryHeap::new();
    let mut my_total = 0u64;
    for (id, &rank) in plan.node.iter().enumerate() {
        if rank != me {
            continue;
        }
        my_total += 1;
        for &key in &plan.needs[id] {
            waiting.entry(key).or_default().push(id);
            *readers_left.entry(key).or_insert(0) += 1;
        }
        if deps[id] == 0 && missing[id] == 0 {
            ready.push((g.priority_of(id as u32), Reverse(id)));
        }
    }
    let mut out = RankOutcome {
        tiles: Vec::new(),
        io: RankIo {
            rank: me,
            ..RankIo::default()
        },
        phases: RankPhases::default(),
        sent: Vec::new(),
        spans: Vec::new(),
        msgs: Vec::new(),
        error: None,
    };
    // The phase clock: read only where the loop changes phase (around a
    // broadcast's send loop, around a blocking receive), never per task.
    let mut mark = Instant::now();
    let mut lap = move || {
        let now = Instant::now();
        let spent = now.duration_since(mark);
        mark = now;
        spent
    };
    let (mut running, mut sending, mut receiving) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut done = 0u64;
    while done < my_total {
        if let Some((_, Reverse(id))) = ready.pop() {
            let op = tl.ops[id];
            if let Some(ce) = crash_at {
                if op.epoch() >= ce {
                    // The fault plan kills this rank here. Dropping the
                    // endpoint closes the inbox; peers retrying into it
                    // run out their attempt budgets.
                    return Err(NetError::RankCrashed {
                        rank: me,
                        epoch: ce,
                    });
                }
            }
            let started = t0.elapsed().as_secs_f64();
            let status = run_local_op(op, t, nb, me, a, &mut tiles, &cache)?;
            if let Err(e) = status {
                if out.error.is_none() {
                    out.error = Some((id, e));
                }
            }
            if want_trace {
                out.spans.push(TaskSpan {
                    task: id as u32,
                    node: me,
                    worker: 0,
                    label: g.label_of(id as u32),
                    start: started,
                    end: t0.elapsed().as_secs_f64(),
                });
            }
            if let Some(b) = &plan.bcast[id] {
                let idx = b.i as usize * t + b.j as usize;
                let tile = tiles[idx].as_ref().ok_or(NetError::MissingLocalTile {
                    rank: me,
                    i: b.i,
                    j: b.j,
                })?;
                running += lap();
                for (k, &to) in b.receivers.iter().enumerate() {
                    // Send-enqueue vs. wire-departure: `enq` is stamped
                    // before the (blocking, possibly retransmitting) send,
                    // `dep` after it returns. Trace replay uses `dep` so
                    // sender-side queueing is not mistaken for transmission.
                    let enq = if want_trace {
                        t0.elapsed().as_secs_f64()
                    } else {
                        0.0
                    };
                    let receipt = ep.send_tile_reliable(to, b.class, b.i, b.j, b.epoch, tile)?;
                    out.io.sent_msgs += 1;
                    out.io.sent_bytes += receipt.goodput_bytes as u64;
                    if b.recovered.get(k).copied().unwrap_or(false) {
                        out.io.recovered_msgs += 1;
                        out.io.recovered_bytes += receipt.goodput_bytes as u64;
                    }
                    if want_trace {
                        let dep = t0.elapsed().as_secs_f64();
                        for ev in &receipt.events {
                            out.msgs.push(MsgEvent {
                                from: me,
                                to,
                                class: b.class,
                                i: b.i,
                                j: b.j,
                                epoch: b.epoch,
                                bytes: ev.bytes,
                                at: enq,
                                dep,
                                kind: ev.kind,
                                attempt: ev.attempt,
                            });
                        }
                    }
                }
                sending += lap();
            }
            for &key in &plan.needs[id] {
                if let Some(left) = readers_left.get_mut(&key) {
                    *left -= 1;
                    if *left == 0 {
                        cache.evict(key);
                    }
                }
            }
            for &s in g.successors_of(id as u32) {
                let s = s as usize;
                if plan.node[s] == me {
                    deps[s] -= 1;
                    if deps[s] == 0 && missing[s] == 0 {
                        ready.push((g.priority_of(s as u32), Reverse(s)));
                    }
                }
            }
            done += 1;
        } else {
            let stalled = |waiting: &HashMap<TileKey, Vec<usize>>| {
                let mut keys: Vec<TileKey> = waiting.keys().copied().collect();
                keys.sort_by_key(|k| (k.epoch, k.i, k.j));
                NetError::Stalled {
                    rank: me,
                    waiting_on: keys,
                }
            };
            running += lap();
            let received = ep.recv_deadline(watchdog);
            receiving += lap();
            let (msg, bytes) = match received {
                Ok(Some(got)) => got,
                // The watchdog fired: nothing consumable arrived for the
                // whole interval while tasks are still blocked. In a
                // recovering run each rank carries a bounded grace budget
                // so a peer still re-deriving its spliced schedule is not
                // mistaken for starvation.
                Ok(None) => {
                    if grace_left > 0 {
                        grace_left -= 1;
                        continue;
                    }
                    return Err(stalled(&waiting));
                }
                // Under faults, every peer exiting while this rank still
                // waits is a starvation, not a protocol bug: the missing
                // broadcast died with a crashed or exhausted sender.
                Err(NetError::ChannelClosed { .. }) if fault_mode => return Err(stalled(&waiting)),
                Err(e) => return Err(e),
            };
            let key = msg.key();
            let from = msg.src;
            let epoch = msg.epoch;
            if fault_mode {
                if !cache.insert_or_dup(me, msg)? {
                    // Retransmitted or injected duplicate: already
                    // consumed, drop it quietly.
                    out.io.dup_rejected += 1;
                    continue;
                }
            } else {
                cache.insert(me, msg)?;
            }
            out.io.recv_msgs += 1;
            out.io.recv_bytes += bytes as u64;
            let Some(waiters) = waiting.remove(&key) else {
                return Err(NetError::UnexpectedMsg {
                    rank: me,
                    from,
                    i: key.i,
                    j: key.j,
                    epoch,
                });
            };
            for w in waiters {
                missing[w] -= 1;
                if missing[w] == 0 && deps[w] == 0 {
                    ready.push((g.priority_of(w as u32), Reverse(w)));
                }
            }
        }
    }
    running += lap();
    let (decoding, backoff) = (ep.decode_time(), ep.backoff_time());
    out.phases = RankPhases {
        kernel_s: running.as_secs_f64(),
        send_s: sending.saturating_sub(backoff).as_secs_f64(),
        recv_wait_s: receiving.saturating_sub(decoding).as_secs_f64(),
        decode_s: decoding.as_secs_f64(),
        backoff_s: backoff.as_secs_f64(),
    };
    if mode.dying {
        // The scheduled casualty: it consumed every pre-crash operand it
        // needed (each gated one of its executed tasks), so nothing is
        // ever inbound for it again — close the outgoing half and vanish
        // from the fabric without draining, like a dead process. Its
        // tiles die with it; the survivors' re-mapped schedule covers
        // every tile of the matrix without them. It does linger until
        // fabric bring-up completes: the modeled crash is mid-run, and a
        // rank process that vanishes while slower peers are still
        // dialing its listener would turn the scheduled crash into an
        // unmodeled bring-up failure (refused dials, then peers blocked
        // on a listener that never fills).
        ep.leave_fabric();
        out.io.tasks = my_total;
        out.sent = ep.sent_stats();
        out.tiles = Vec::new();
        return Ok(out);
    }
    // Tasks done: close the outgoing half and keep the inbox alive until
    // every peer does the same, consuming whatever is still inbound.
    // This replaces the old coordinator-side drain — each rank accounts
    // for its own in-flight duplicates and corrupt copies, which works
    // identically whether the peers are threads or processes, and keeps
    // the fault counters a pure function of the seed.
    let rf = ep.finish_and_drain()?;
    out.io.corrupt_rejected = rf.corrupt_rejected;
    out.io.delayed = rf.delayed;
    out.io.dup_rejected += rf.dups_drained;
    out.io.tasks = my_total;
    out.sent = ep.sent_stats();
    out.tiles = tiles
        .into_iter()
        .enumerate()
        .filter_map(|(k, tile)| tile.map(|tile| (k, tile)))
        .collect();
    Ok(out)
}

/// One modeled crash of a recovering run, as the ranks need it.
struct Casualty {
    /// The crashed rank.
    dead: u32,
    /// The owner map after this crash's re-map, shared with every
    /// endpoint that adopts it.
    remap: Arc<TileAssignment>,
    /// The truncated schedule the casualty itself runs, under the map
    /// in force when it dies.
    sched: CommSchedule,
}

/// What every rank of a run derives up front from the shared
/// deterministic inputs: with recovery armed, the active re-map chain
/// and its fused schedules; otherwise the empty chain and the
/// crash-free schedule. Every rank process derives the identical chain
/// — that shared derivation *is* the crash-agreement round.
struct RunPlan {
    /// The schedule every rank but a casualty runs: fused across the
    /// chain, or — the empty chain — straight from [`derive_schedule`].
    survivor: CommSchedule,
    /// One entry per modeled crash, sorted by `(epoch, rank)`. Inactive
    /// plans (a trailing crash with no remaining work) are dropped:
    /// those crashes can never fire.
    chain: Vec<Casualty>,
    /// [`DexecOptions::trace`], [`DexecOptions::watchdog`] and
    /// [`DexecOptions::splice_delay`], carried to the rank threads.
    trace: bool,
    watchdog: Duration,
    splice_delay: Option<(u32, Duration)>,
}

impl RunPlan {
    fn derive(
        tl: &TaskList,
        assignment: &TileAssignment,
        input: &TiledMatrix,
        opts: &DexecOptions<'_>,
    ) -> Result<Self, NetError> {
        if input.tiles() != tl.t {
            return Err(NetError::ShapeMismatch {
                expected: tl.t,
                got: input.tiles(),
            });
        }
        let plans = if opts.recover {
            derive_recovery(tl, assignment, opts.faults.as_ref(), opts.topology)?
        } else {
            Vec::new()
        };
        let mut fused = None;
        let mut chain = Vec::new();
        for rp in plans.into_iter().filter(|rp| rp.active) {
            chain.push(Casualty {
                dead: rp.dead,
                remap: Arc::new(rp.remapped),
                sched: rp.dead_sched,
            });
            fused = Some(rp.survivor);
        }
        let survivor = match fused {
            Some(fused) => fused,
            None => derive_schedule(tl, assignment)?,
        };
        Ok(Self {
            survivor,
            chain,
            trace: opts.trace,
            watchdog: opts.watchdog,
            splice_delay: opts.splice_delay,
        })
    }

    /// Pick the rank's role and run it. Casualty `m` adopts the re-maps
    /// of every earlier crash (whose frames must stay acceptable), runs
    /// its truncated plan under the map in force when it dies and
    /// leaves the fabric after its last pre-crash task; a survivor
    /// adopts the whole chain and runs the survivor schedule under the
    /// final map. Crash-free is the survivor of the empty chain: nothing
    /// to adopt, the original map.
    fn run_rank(
        &self,
        tl: &TaskList,
        assignment: &TileAssignment,
        input: &TiledMatrix,
        mut ep: Endpoint,
        t0: Instant,
    ) -> Result<RankOutcome, NetError> {
        let rank = ep.rank();
        let casualty = self.chain.iter().position(|c| c.dead == rank);
        let adopted = &self.chain[..casualty.unwrap_or(self.chain.len())];
        for c in adopted {
            ep.adopt_remap(Arc::clone(&c.remap), c.dead);
        }
        let map = adopted.last().map_or(assignment, |c| &*c.remap);
        let sched = match casualty {
            Some(m) => &self.chain[m].sched,
            None => &self.survivor,
        };
        let mode = RankMode {
            recover: !self.chain.is_empty(),
            dying: casualty.is_some(),
            grace: self.chain.len() as u32,
            delay: self
                .splice_delay
                .and_then(|(r, d)| (r == rank).then_some(d)),
        };
        run_rank(
            rank,
            tl,
            map,
            sched,
            input,
            ep,
            t0,
            self.trace,
            self.watchdog,
            mode,
        )
    }
}

/// Run a task list distributed over one rank per node.
///
/// # Errors
/// Propagates [`NetError`] on protocol violations, shape mismatches, or
/// unsupported operations (only LU and Cholesky have a broadcast
/// schedule). Kernel failures (zero pivot, not-SPD) are reported in
/// [`NetReport::error`], not as an `Err`.
pub fn execute_distributed_with(
    tl: &TaskList,
    assignment: &TileAssignment,
    input: &TiledMatrix,
    opts: &DexecOptions<'_>,
) -> Result<DexecOutput, NetError> {
    let t = tl.t;
    let run = RunPlan::derive(tl, assignment, input, opts)?;
    let shared = Arc::new(assignment.clone());
    let faults = opts.faults.clone().map(Arc::new);
    let n_ranks = assignment.n_nodes();
    let endpoints: Vec<Endpoint> = match &opts.backend {
        Backend::Channel => build_fabric_with(&shared, opts.topology, faults),
        Backend::Socket(cfg) => build_socket_fabric(n_ranks, opts.topology, cfg)?
            .into_iter()
            .enumerate()
            .map(|(rank, tr)| {
                Endpoint::from_transport(
                    rank as u32,
                    Arc::clone(&shared),
                    opts.topology,
                    Box::new(tr),
                    faults.clone(),
                )
            })
            .collect(),
    };
    let t0 = Instant::now();
    let results: Vec<Result<RankOutcome, NetError>> = std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| scope.spawn(move || run.run_rank(tl, assignment, input, ep, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    });
    let mut outcomes = Vec::with_capacity(results.len());
    let mut failure: Option<NetError> = None;
    for r in results {
        match r {
            Ok(out) => outcomes.push(out),
            Err(e) => {
                if failure
                    .as_ref()
                    .is_none_or(|f| failure_rank(&e) < failure_rank(f))
                {
                    failure = Some(e);
                }
            }
        }
    }
    if let Some(e) = failure {
        return Err(e);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let phases = outcomes.iter().map(|out| out.phases).collect();
    let mut spans = Vec::new();
    let mut msgs = Vec::new();
    for out in &mut outcomes {
        spans.append(&mut out.spans);
        msgs.append(&mut out.msgs);
    }
    let (matrix, report) = merge_rank_outcomes(t, input.nb(), n_ranks, outcomes)?;
    let trace = opts.trace.then(|| {
        spans.sort_by_key(|s| s.task);
        let kind_order = |k: MsgKind| match k {
            MsgKind::Dropped => 0u8,
            MsgKind::Corrupt => 1,
            MsgKind::Goodput => 2,
            MsgKind::Duplicate => 3,
        };
        msgs.sort_by_key(|m| {
            (
                m.from,
                m.epoch,
                m.i,
                m.j,
                m.to,
                m.attempt,
                kind_order(m.kind),
            )
        });
        NetTrace {
            n_ranks,
            spans,
            messages: msgs,
        }
    });
    Ok(DexecOutput {
        matrix,
        report,
        trace,
        wall_s,
        phases,
    })
}

/// Rank failures prioritized by root cause: a scheduled crash explains
/// the retry exhaustion and stalls it causes downstream, and exhausted
/// senders explain stalled receivers.
fn failure_rank(e: &NetError) -> u8 {
    match e {
        NetError::RankCrashed { .. } => 0,
        NetError::RetryExhausted { .. } => 1,
        NetError::Stalled { .. } => 2,
        _ => 3,
    }
}

/// Rebuild the run-level result from per-rank outcomes: scatter owned
/// tiles into one matrix and fold the counters into a [`NetReport`].
/// Used both by [`execute_distributed_with`] after joining its rank
/// threads and by a multi-process launcher after collecting each rank
/// process's [`RankOutcome`] over its control channel. Outcomes may
/// arrive in any order.
///
/// # Errors
/// [`NetError::CounterOverflow`] when the counters of a rank (a process
/// that may have printed anything) do not sum, naming rank and field.
pub fn merge_rank_outcomes(
    t: usize,
    nb: usize,
    n_ranks: u32,
    mut outcomes: Vec<RankOutcome>,
) -> Result<(TiledMatrix, NetReport), NetError> {
    outcomes.sort_by_key(|o| o.io.rank);
    let mut matrix = TiledMatrix::zeros(t, nb);
    let mut per_rank = Vec::with_capacity(outcomes.len());
    let mut sent = Vec::with_capacity(outcomes.len());
    let mut first_error: Option<(usize, KernelError)> = None;
    for out in &mut outcomes {
        for (k, tile) in out.tiles.drain(..) {
            *matrix.tile_mut(k / t, k % t) = tile;
        }
        per_rank.push(out.io);
        sent.push(std::mem::take(&mut out.sent));
        if let Some((id, e)) = out.error {
            if first_error.is_none_or(|(fid, _)| id < fid) {
                first_error = Some((id, e));
            }
        }
    }
    let error = first_error.map(|(_, e)| e);
    let report = NetReport::from_parts(n_ranks, per_rank, &sent, error)?;
    Ok((matrix, report))
}

/// Run exactly **one** rank of a distributed factorization over the
/// socket fabric — the body of a stand-alone rank process. Every rank
/// of the run calls this with the same deterministic inputs (task list,
/// assignment, input matrix, options); the sockets under `cfg.dir`
/// connect them. Blocks until this rank's tasks are done and every peer
/// has closed its stream.
///
/// The caller (the process launcher) is responsible for collecting each
/// rank's [`RankOutcome`] and folding them with [`merge_rank_outcomes`].
///
/// # Errors
/// See [`execute_distributed_with`], plus `Io` on socket failures.
pub fn execute_rank_socket(
    tl: &TaskList,
    assignment: &TileAssignment,
    input: &TiledMatrix,
    rank: u32,
    cfg: &SocketConfig,
    opts: &DexecOptions<'_>,
) -> Result<RankOutcome, NetError> {
    let run = RunPlan::derive(tl, assignment, input, opts)?;
    let shared = Arc::new(assignment.clone());
    let faults = opts.faults.clone().map(Arc::new);
    let transport = SocketTransport::establish(rank, assignment.n_nodes(), opts.topology, cfg)?;
    let ep = Endpoint::from_transport(rank, shared, opts.topology, Box::new(transport), faults);
    run.run_rank(tl, assignment, input, ep, Instant::now())
}
