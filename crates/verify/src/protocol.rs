//! Static communication-protocol verifier.
//!
//! The paper's any-P distributions fully determine every message the
//! distributed executor will ever send, so the whole rank-to-rank
//! protocol can be derived and proved **before a single socket is
//! opened**. From `(pattern, P, tiles, factorization)` alone this module
//! builds the complete per-rank ordered send/recv schedule — the same
//! [`CommSchedule`] the engine itself runs, cross-checked against the
//! independent Fig. 2 broadcast walk in `flexdist_dist` — and
//! statically proves three properties:
//!
//! 1. **Matching** — every send is attached to the task that produces
//!    its tile at the right epoch, every receiver of a send has a task
//!    reading the replica, and every remote operand of every task is
//!    delivered exactly once (`send-mismatch`, `stale-epoch`,
//!    `orphan-send`, `duplicate-delivery`, `missing-delivery`).
//! 2. **Deadlock-freedom under bounded buffers** — the engine's
//!    unbounded inboxes ([`flexdist_factor::net::BufferConfig`]) make
//!    "sends never block" true today; this module proves how far that
//!    can be tightened by simulating the schedule under a finite inbox
//!    capacity, reporting any cross-rank wait-for cycle with its full
//!    rank/message witness path (`protocol-deadlock`) and the minimum
//!    capacity at which the schedule is cycle-free. The simulation is a
//!    Kahn-process-network fixpoint: per-capacity, its outcome is
//!    schedule-order independent.
//! 3. **Memory bounds** — replica lifetime analysis under the canonical
//!    linearization (task-id order, a valid topological order) computes
//!    the peak resident replicas/bytes per rank, and declared
//!    `readers_left` refcounts are proved to match the actual reader
//!    counts, so no replica is evicted before its last scheduled read
//!    (`premature-eviction`) or kept forever (`replica-leak`).
//!
//! The loop is closed dynamically by
//! [`check_trace_linearization`]: a real `dexec`/`chaos` net-trace,
//! after retransmit dedup, must be a linearization of the derived
//! schedule — same logical message set, every goodput frame enqueued
//! only after its producing task's span ended.

use crate::Finding;
use flexdist_dist::{spliced_chain, BcastClass, TileAssignment};
use flexdist_factor::net::{FaultPlan, FullMesh, MsgClass, TileKey};
use flexdist_factor::{
    derive_recovery, derive_schedule, CommSchedule, RecoverPlan, TaskBcast, TaskList,
};
use flexdist_json::Value;
use std::collections::{HashMap, HashSet, VecDeque};

/// Convert one engine broadcast into the verifier's send spec.
fn spec_of(b: Option<TaskBcast>) -> Option<SendSpec> {
    b.map(|b| SendSpec {
        class: b.class,
        key: TileKey {
            i: b.i,
            j: b.j,
            epoch: b.epoch,
        },
        to: b.receivers,
        recovered: b.recovered,
    })
}

/// One task's broadcast in the verifier's schedule: the tile it ships
/// and the ordered distinct receiver set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendSpec {
    /// Panel or trailing leg.
    pub class: MsgClass,
    /// The broadcast tile and epoch.
    pub key: TileKey,
    /// Distinct receiving ranks in walk order.
    pub to: Vec<u32>,
    /// Parallel to `to`: marks legs that exist only because of a crash
    /// re-map (all-false on a crash-free schedule).
    pub recovered: Vec<bool>,
}

/// The symbolically derived per-rank protocol: every send, every remote
/// operand, every replica refcount — plus mutation hooks so tests can
/// prove each analysis actually bites.
#[derive(Debug, Clone)]
pub struct ProtocolSchedule {
    /// Tiles per matrix side.
    pub t: usize,
    /// Rank count.
    pub n_ranks: u32,
    /// Executing rank of each task.
    pub rank_of: Vec<u32>,
    /// Tile each task writes.
    pub writes: Vec<(u32, u32)>,
    /// Iteration each task belongs to.
    pub epochs: Vec<u32>,
    /// Remote operands each task waits for.
    pub needs: Vec<Vec<TileKey>>,
    /// Broadcast each task performs on completion.
    pub sends: Vec<Option<SendSpec>>,
    /// Per rank: its task ids in program order (task-id order, a valid
    /// topological order of the DAG restricted to the rank).
    pub local_order: Vec<Vec<usize>>,
    /// Per rank: the `readers_left` refcount the engine seeds for each
    /// remote replica (evicted when it reaches zero).
    pub readers: Vec<HashMap<TileKey, u32>>,
    /// Per rank: owned tiles (resident for the whole run).
    pub owned: Vec<u64>,
    /// Verifier position → engine task id. Identity for a crash-free
    /// schedule; on a crashed schedule
    /// ([`Self::derive_crashed_cascade`]) each casualty's pre-crash
    /// tasks are *appended* after the fused survivor view, so two
    /// positions can map to the same engine task (the casualty ran it
    /// pre-crash, its heir re-runs it).
    pub engine_task: Vec<usize>,
}

impl ProtocolSchedule {
    /// Derive the schedule for a task list over an owner map — the
    /// exact structure [`flexdist_factor::execute_distributed_with`]
    /// runs.
    ///
    /// # Errors
    /// A message for operations without a broadcast schedule (only LU
    /// and Cholesky have one).
    pub fn derive(tl: &TaskList, a: &TileAssignment) -> Result<Self, String> {
        let cs = derive_schedule(tl, a).map_err(|e| e.to_string())?;
        Ok(Self::of_chain(cs, &[], a))
    }

    /// Derive the **crashed** schedule for a whole cascade of `(rank,
    /// epoch)` crashes: the fused survivor view (task placement and
    /// needs under the composed P→P−k re-map chain, broadcasts spliced
    /// across every crash point) at positions `0..n`, with each
    /// casualty's surviving pre-crash tasks appended after it. This is
    /// exactly the union of the k+1 [`CommSchedule`]s a recovering run
    /// executes, so everything [`check_schedule`] proves about it —
    /// matching, deadlock-freedom, eviction safety — holds for the live
    /// recovered run. An empty crash list, or crash points past every
    /// remaining task, is the plain schedule ([`Self::derive`]).
    ///
    /// # Errors
    /// A message for operations without a broadcast schedule, or for an
    /// unrecoverable cascade (unknown or duplicate rank, no survivor
    /// left).
    pub fn derive_crashed_cascade(
        tl: &TaskList,
        a: &TileAssignment,
        crashes: &[(u32, u32)],
    ) -> Result<Self, String> {
        let active = active_chain(tl, a, crashes)?;
        Self::of_active_chain(tl, a, &active)
    }

    /// The schedule of an already-derived chain of **active** recovery
    /// plans; the empty chain is the crash-free schedule.
    fn of_active_chain(
        tl: &TaskList,
        a: &TileAssignment,
        active: &[RecoverPlan],
    ) -> Result<Self, String> {
        match active.last() {
            Some(last) => Ok(Self::of_chain(last.survivor.clone(), active, a)),
            None => Self::derive(tl, a),
        }
    }

    /// Assemble the verifier's view from the schedule every survivor
    /// runs (`sv`, taken by move) plus the pre-crash rows of each
    /// casualty in `active` (sorted crash order; empty when crash-free).
    fn of_chain(sv: CommSchedule, active: &[RecoverPlan], a: &TileAssignment) -> Self {
        let (t, n_ranks) = (sv.t, sv.n_ranks);
        let n = sv.node.len();
        let mut rank_of = sv.node;
        let mut writes = sv.writes;
        let mut epochs = sv.epochs;
        let mut needs = sv.needs;
        let mut sends: Vec<Option<SendSpec>> = sv.bcast.into_iter().map(spec_of).collect();
        let mut engine_task: Vec<usize> = (0..n).collect();
        for rp in active {
            let ds = &rp.dead_sched;
            for id in 0..n {
                debug_assert_ne!(
                    rank_of[id], rp.dead,
                    "the re-map chain leaves every casualty without tasks"
                );
                if ds.node[id] != rp.dead {
                    continue;
                }
                rank_of.push(rp.dead);
                writes.push(ds.writes[id]);
                epochs.push(ds.epochs[id]);
                needs.push(ds.needs[id].clone());
                sends.push(spec_of(ds.bcast[id].clone()));
                engine_task.push(id);
            }
        }
        let mut local_order: Vec<Vec<usize>> = vec![Vec::new(); n_ranks as usize];
        let mut readers: Vec<HashMap<TileKey, u32>> = vec![HashMap::new(); n_ranks as usize];
        for (pos, &rank) in rank_of.iter().enumerate() {
            local_order[rank as usize].push(pos);
            for &key in &needs[pos] {
                *readers[rank as usize].entry(key).or_insert(0) += 1;
            }
        }
        // Survivors hold their working set under the final map; each
        // casualty holds the tiles it owned under the map it was
        // running at death — including any it inherited from earlier
        // casualties in the cascade.
        let final_map = active.last().map_or(a, |rp| &rp.remapped);
        let mut owned = vec![0u64; n_ranks as usize];
        for i in 0..t {
            for j in 0..t {
                owned[final_map.owner(i, j) as usize] += 1;
            }
        }
        for (m, rp) in active.iter().enumerate() {
            let prev: &TileAssignment = if m == 0 { a } else { &active[m - 1].remapped };
            for i in 0..t {
                for j in 0..t {
                    if prev.owner(i, j) == rp.dead {
                        owned[rp.dead as usize] += 1;
                    }
                }
            }
        }
        Self {
            t,
            n_ranks,
            rank_of,
            writes,
            epochs,
            needs,
            sends,
            local_order,
            readers,
            owned,
            engine_task,
        }
    }

    /// Total logical deliveries (tile → distinct receiver pairs); equals
    /// `lu_comm_volume` / `cholesky_comm_volume` totals by construction.
    #[must_use]
    pub fn n_deliveries(&self) -> u64 {
        self.sends.iter().flatten().map(|s| s.to.len() as u64).sum()
    }

    /// Mutation: delete the `pick`-th broadcast entirely (a sender that
    /// forgets to ship its tile). Returns the task whose send was
    /// removed, or `None` when the schedule has no sends.
    pub fn drop_send(&mut self, pick: usize) -> Option<usize> {
        let tasks: Vec<usize> = (0..self.sends.len())
            .filter(|&id| self.sends[id].is_some())
            .collect();
        let &task = tasks.get(pick % tasks.len().max(1))?;
        self.sends[task] = None;
        Some(task)
    }

    /// Mutation: delete the recovery-only legs (the `recovered = true`
    /// receivers) of the `pick`-th broadcast that carries any — an heir
    /// that forgets its re-serve duty after adopting the dead rank's
    /// tiles. Returns the mutated position and the dropped receivers,
    /// or `None` when the schedule has no recovered sends (i.e. it is
    /// crash-free or the recovery was inactive).
    pub fn drop_recovery_send(&mut self, pick: usize) -> Option<(usize, Vec<u32>)> {
        let tasks: Vec<usize> = (0..self.sends.len())
            .filter(|&id| {
                self.sends[id]
                    .as_ref()
                    .is_some_and(|s| s.recovered.iter().any(|&f| f))
            })
            .collect();
        let &task = tasks.get(pick % tasks.len().max(1))?;
        let send = self.sends[task].as_mut()?;
        let mut dropped = Vec::new();
        let mut keep = Vec::new();
        for (k, &to) in send.to.iter().enumerate() {
            if send.recovered[k] {
                dropped.push(to);
            } else {
                keep.push(to);
            }
        }
        send.recovered = vec![false; keep.len()];
        send.to = keep;
        if send.to.is_empty() {
            self.sends[task] = None;
        }
        Some((task, dropped))
    }

    /// Mutation: swap the broadcasts of two consecutive sending tasks on
    /// one rank (a reordered send queue — each message now leaves with
    /// the wrong producing task). Returns the swapped task pair, or
    /// `None` when no rank has two sends of distinct tiles.
    pub fn swap_sends(&mut self, pick: usize) -> Option<(usize, usize)> {
        let mut pairs = Vec::new();
        for order in &self.local_order {
            let senders: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&id| self.sends[id].is_some())
                .collect();
            for w in senders.windows(2) {
                let (u, v) = (w[0], w[1]);
                let ku = self.sends[u].as_ref().map(|s| s.key);
                let kv = self.sends[v].as_ref().map(|s| s.key);
                if ku != kv {
                    pairs.push((u, v));
                }
            }
        }
        let &(u, v) = pairs.get(pick % pairs.len().max(1))?;
        self.sends.swap(u, v);
        Some((u, v))
    }

    /// Mutation: decrement one replica's declared `readers_left` (the
    /// engine would evict the payload one read too early). Returns the
    /// mutated `(rank, key)`, or `None` when no rank holds replicas.
    pub fn evict_early(&mut self, pick: usize) -> Option<(u32, TileKey)> {
        let mut slots: Vec<(u32, TileKey)> = Vec::new();
        for (r, m) in self.readers.iter().enumerate() {
            for (&key, &left) in m {
                if left > 0 {
                    slots.push((r as u32, key));
                }
            }
        }
        slots.sort_by_key(|&(r, k)| (r, k.epoch, k.i, k.j));
        let &(r, key) = slots.get(pick % slots.len().max(1))?;
        if let Some(left) = self.readers[r as usize].get_mut(&key) {
            *left -= 1;
        }
        Some((r, key))
    }
}

/// Per-rank result of the replica lifetime analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankPeak {
    /// Rank id.
    pub rank: u32,
    /// Tasks the rank executes.
    pub tasks: u64,
    /// Broadcasts it originates.
    pub sends: u64,
    /// Tiles it owns (resident for the whole run).
    pub owned: u64,
    /// Distinct remote replicas it ever holds.
    pub replicas: u64,
    /// Peak simultaneously resident replicas under the canonical
    /// linearization (arrivals counted before frees at each boundary,
    /// so this is also an upper bound for the engine's eager receive).
    pub peak_replicas: u64,
}

impl RankPeak {
    /// Peak resident bytes for tiles of `nb × nb` doubles: owned tiles
    /// plus peak replicas.
    #[must_use]
    pub fn peak_bytes(&self, nb: usize) -> u64 {
        (self.owned + self.peak_replicas) * 8 * (nb as u64) * (nb as u64)
    }
}

/// Everything the static protocol analysis proves (or refutes).
#[derive(Debug, Clone)]
pub struct ProtocolReport {
    /// All findings, matching first, then eviction, then deadlock.
    pub findings: Vec<Finding>,
    /// Rank count.
    pub n_ranks: u32,
    /// Tasks in the schedule.
    pub n_tasks: usize,
    /// Logical broadcasts (sends).
    pub n_sends: u64,
    /// Logical deliveries (tile → receiver pairs); equals the analytic
    /// comm volume when the schedule is unmutated.
    pub n_deliveries: u64,
    /// Minimum inbox capacity (frames) at which the schedule completes
    /// without a wait-for cycle; `Some(0)` when nothing is sent, `None`
    /// when matching findings made the simulation meaningless.
    pub min_capacity: Option<u32>,
    /// The explicit capacity that was simulated, when one was given.
    pub capacity_checked: Option<u32>,
    /// Per-rank memory bounds.
    pub peaks: Vec<RankPeak>,
}

impl ProtocolReport {
    /// No findings of any rule.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Largest per-rank peak (tiles including owned), for one-line
    /// summaries.
    #[must_use]
    pub fn max_peak(&self) -> Option<&RankPeak> {
        self.peaks
            .iter()
            .max_by_key(|p| (p.owned + p.peak_replicas, p.rank))
    }

    /// Render the summary and all findings, one per line.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let cap = match self.min_capacity {
            Some(c) => format!("min safe inbox capacity {c} frame(s)"),
            None => "min safe inbox capacity not computed (matching failed)".to_string(),
        };
        let _ = writeln!(
            out,
            "protocol: {} rank(s), {} task(s), {} send(s) / {} deliveries, {cap}, {} finding(s)",
            self.n_ranks,
            self.n_tasks,
            self.n_sends,
            self.n_deliveries,
            self.findings.len()
        );
        for f in &self.findings {
            let _ = writeln!(out, "  {f}");
        }
        out
    }

    /// Per-rank peak-memory table for tiles of `nb × nb` doubles.
    #[must_use]
    pub fn peak_table(&self, nb: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  rank   tasks   sends   owned   replicas   peak tiles   peak bytes (nb={nb})"
        );
        for p in &self.peaks {
            let _ = writeln!(
                out,
                "  {:>4}  {:>6}  {:>6}  {:>6}  {:>9}  {:>11}  {:>10} B",
                p.rank,
                p.tasks,
                p.sends,
                p.owned,
                p.replicas,
                p.owned + p.peak_replicas,
                p.peak_bytes(nb)
            );
        }
        out
    }
}

/// Derive the sorted chain of **active** recovery plans for a list of
/// `(rank, epoch)` crashes over a full-mesh topology.
fn active_chain(
    tl: &TaskList,
    a: &TileAssignment,
    crashes: &[(u32, u32)],
) -> Result<Vec<RecoverPlan>, String> {
    let mut fp = FaultPlan::new(0);
    for &(d, e) in crashes {
        fp = fp.with_crash(d, e).map_err(|e| e.to_string())?;
    }
    let plans = derive_recovery(tl, a, Some(&fp), &FullMesh).map_err(|e| e.to_string())?;
    Ok(plans.into_iter().filter(|rp| rp.active).collect())
}

/// Derive and fully check the protocol of a task list over an owner
/// map, for a run where each rank of `crashes` dies at the start of its
/// iteration and the survivors recover under the composed P→P−k re-map
/// chain ([`ProtocolSchedule::derive_crashed_cascade`]); an empty crash
/// list is the crash-free check. The schedule's send multiset is
/// cross-checked against the independent broadcast walk of
/// `flexdist_dist` over the same chain, then matching, eviction safety,
/// deadlock-freedom, the minimum safe buffer capacity (plus, when
/// `capacity` is given, a deadlock check at exactly that capacity) and
/// the memory bounds are proved — so a clean report means the schedule
/// delivers every operand exactly once and completes under bounded
/// buffers.
///
/// # Errors
/// A message for operations without a broadcast schedule, or for an
/// unrecoverable cascade (unknown or duplicate rank, no survivor left).
pub fn check_protocol(
    tl: &TaskList,
    a: &TileAssignment,
    crashes: &[(u32, u32)],
    capacity: Option<u32>,
) -> Result<ProtocolReport, String> {
    let active = active_chain(tl, a, crashes)?;
    let s = ProtocolSchedule::of_active_chain(tl, a, &active)?;
    let mut maps = vec![a.clone()];
    let mut points: Vec<(u32, usize)> = Vec::new();
    for rp in &active {
        maps.push(rp.remapped.clone());
        points.push((rp.dead, rp.epoch as usize));
    }
    let mut walk = walk_findings(&s, tl, &maps, &points);
    let mut rep = check_schedule(&s, capacity);
    walk.append(&mut rep.findings);
    rep.findings = walk;
    Ok(rep)
}

/// Check a (possibly mutated) schedule: matching, eviction safety, the
/// bounded-buffer deadlock analysis and the per-rank memory bounds.
/// `capacity` additionally simulates that exact inbox depth and reports
/// any wait-for cycle at it.
#[must_use]
pub fn check_schedule(s: &ProtocolSchedule, capacity: Option<u32>) -> ProtocolReport {
    let mut findings = Vec::new();

    // Delivery and reader indices.
    let mut deliver: HashMap<(u32, TileKey), Vec<usize>> = HashMap::new();
    for (task, send) in s.sends.iter().enumerate() {
        let Some(send) = send else { continue };
        for &to in &send.to {
            deliver.entry((to, send.key)).or_default().push(task);
        }
    }
    let mut readers_idx: HashMap<(u32, TileKey), Vec<usize>> = HashMap::new();
    for (task, needs) in s.needs.iter().enumerate() {
        for &key in needs {
            readers_idx
                .entry((s.rank_of[task], key))
                .or_default()
                .push(task);
        }
    }

    matching_findings(s, &deliver, &readers_idx, &mut findings);
    let matching_clean = findings.is_empty();
    eviction_findings(s, &readers_idx, &mut findings);

    // Deadlock analysis is only meaningful on a schedule whose message
    // set matches — a dropped send would stall the simulation for a
    // reason the matching findings already explain.
    let mut min_capacity = None;
    if matching_clean {
        let mut inbound = vec![0u64; s.n_ranks as usize];
        for ((to, _), senders) in &deliver {
            inbound[*to as usize] += senders.len() as u64;
        }
        let max_in = inbound.iter().copied().max().unwrap_or(0);
        if max_in == 0 {
            min_capacity = Some(0);
        } else {
            let hi = u32::try_from(max_in).unwrap_or(u32::MAX);
            if let Some(f) = simulate(s, hi, &deliver) {
                findings.push(Finding {
                    rule: "protocol-stuck",
                    message: format!(
                        "schedule does not complete even with capacity {hi}: {}",
                        f.message
                    ),
                });
            } else {
                // Success is monotone in capacity (KPN monotonicity:
                // more inbox space never disables a send), so binary
                // search finds the exact threshold.
                let (mut lo, mut hi) = (1u32, hi);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if simulate(s, mid, &deliver).is_none() {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                min_capacity = Some(lo);
            }
        }
        if let Some(cap) = capacity {
            if let Some(f) = simulate(s, cap.max(1), &deliver) {
                findings.push(f);
            }
        }
    }

    let peaks = memory_peaks(s, &deliver, &readers_idx);
    ProtocolReport {
        findings,
        n_ranks: s.n_ranks,
        n_tasks: s.rank_of.len(),
        n_sends: s.sends.iter().flatten().count() as u64,
        n_deliveries: s.n_deliveries(),
        min_capacity,
        capacity_checked: capacity,
        peaks,
    }
}

fn key_str(k: TileKey) -> String {
    format!("tile ({},{})@{}", k.i, k.j, k.epoch)
}

/// Send/recv matching: producer attachment, epoch sanity, orphan sends,
/// duplicate and missing deliveries.
fn matching_findings(
    s: &ProtocolSchedule,
    deliver: &HashMap<(u32, TileKey), Vec<usize>>,
    readers_idx: &HashMap<(u32, TileKey), Vec<usize>>,
    findings: &mut Vec<Finding>,
) {
    for (task, send) in s.sends.iter().enumerate() {
        let Some(send) = send else { continue };
        let (wi, wj) = s.writes[task];
        if (send.key.i, send.key.j) != (wi, wj) || send.key.epoch != s.epochs[task] {
            findings.push(Finding {
                rule: "send-mismatch",
                message: format!(
                    "task {task} on rank {} broadcasts {} but writes tile ({wi},{wj}) at epoch {}",
                    s.rank_of[task],
                    key_str(send.key),
                    s.epochs[task]
                ),
            });
        }
        if send.key.epoch != TileKey::expected_epoch(send.key.i, send.key.j) {
            findings.push(Finding {
                rule: "stale-epoch",
                message: format!(
                    "task {task} broadcasts {} but the tile's final value ships at epoch {}",
                    key_str(send.key),
                    TileKey::expected_epoch(send.key.i, send.key.j)
                ),
            });
        }
        let me = s.rank_of[task];
        let mut seen = HashSet::new();
        for &to in &send.to {
            if to == me || to >= s.n_ranks || !seen.insert(to) {
                findings.push(Finding {
                    rule: "send-mismatch",
                    message: format!(
                        "task {task} on rank {me} has an invalid receiver {to} for {}",
                        key_str(send.key)
                    ),
                });
            }
        }
    }
    for (task, needs) in s.needs.iter().enumerate() {
        for &key in needs {
            if key.epoch != TileKey::expected_epoch(key.i, key.j) {
                findings.push(Finding {
                    rule: "stale-epoch",
                    message: format!(
                        "task {task} on rank {} reads {} of a stale epoch (expected {})",
                        s.rank_of[task],
                        key_str(key),
                        TileKey::expected_epoch(key.i, key.j)
                    ),
                });
            }
        }
    }
    let mut dup: Vec<_> = deliver.iter().filter(|(_, v)| v.len() > 1).collect();
    dup.sort_by_key(|((to, k), _)| (*to, k.epoch, k.i, k.j));
    for ((to, key), senders) in dup {
        findings.push(Finding {
            rule: "duplicate-delivery",
            message: format!(
                "{} is scheduled to reach rank {to} from {} tasks {senders:?}",
                key_str(*key),
                senders.len()
            ),
        });
    }
    let mut orphans: Vec<_> = deliver
        .keys()
        .filter(|slot| !readers_idx.contains_key(slot))
        .collect();
    orphans.sort_by_key(|(to, k)| (*to, k.epoch, k.i, k.j));
    for &(to, key) in orphans {
        findings.push(Finding {
            rule: "orphan-send",
            message: format!(
                "{} is sent to rank {to}, which has no task reading it",
                key_str(key)
            ),
        });
    }
    let mut missing: Vec<_> = readers_idx
        .iter()
        .filter(|(slot, _)| !deliver.contains_key(slot))
        .collect();
    missing.sort_by_key(|((to, k), _)| (*to, k.epoch, k.i, k.j));
    for ((rank, key), tasks) in missing {
        findings.push(Finding {
            rule: "missing-delivery",
            message: format!(
                "rank {rank} task(s) {tasks:?} read {} but no send delivers it",
                key_str(*key)
            ),
        });
    }
}

/// Eviction safety: each declared `readers_left` refcount must equal the
/// number of scheduled readers — fewer means the payload dies before its
/// last read, more means it is never evicted.
fn eviction_findings(
    s: &ProtocolSchedule,
    readers_idx: &HashMap<(u32, TileKey), Vec<usize>>,
    findings: &mut Vec<Finding>,
) {
    for rank in 0..s.n_ranks {
        let declared = &s.readers[rank as usize];
        let mut keys: Vec<_> = declared.keys().copied().collect();
        keys.sort_by_key(|k| (k.epoch, k.i, k.j));
        for key in keys {
            let d = declared[&key];
            let actual = readers_idx.get(&(rank, key)).map_or(0, |t| t.len() as u32);
            if d < actual {
                findings.push(Finding {
                    rule: "premature-eviction",
                    message: format!(
                        "rank {rank} evicts {} after {d} read(s) but schedules {actual} reader(s)",
                        key_str(key)
                    ),
                });
            } else if d > actual {
                findings.push(Finding {
                    rule: "replica-leak",
                    message: format!(
                        "rank {rank} declares {d} reader(s) of {} but schedules only {actual} — \
                         the replica is never evicted",
                        key_str(key)
                    ),
                });
            }
        }
        let mut unseeded: Vec<_> = readers_idx
            .keys()
            .filter(|(r, k)| *r == rank && !declared.contains_key(k))
            .collect();
        unseeded.sort_by_key(|(_, k)| (k.epoch, k.i, k.j));
        for &(_, key) in unseeded {
            findings.push(Finding {
                rule: "replica-leak",
                message: format!(
                    "rank {rank} reads {} but seeds no readers_left refcount — \
                     the replica is never evicted",
                    key_str(key)
                ),
            });
        }
    }
}

/// One step of a rank's canonical program: execute a task (gated on its
/// remote operands) or push one broadcast frame to a peer's inbox.
enum Action {
    Exec(usize),
    Send { to: u32, key: TileKey },
}

/// Simulate the schedule under per-rank inboxes of `cap` frames.
///
/// Semantics mirror the engine with a bounded transport substituted: a
/// rank advances through its program order; at a task whose remote
/// operands are missing it drains its whole inbox (the blocked-on-recv
/// loop), a send blocks while the receiver's inbox is full, and a
/// finished rank keeps draining (`finish_and_drain`). A rank that is
/// blocked **sending** does not drain — that is exactly what closes
/// wait-for cycles. The fire-everything-enabled fixpoint makes the
/// outcome independent of rank interleaving (Kahn network monotonicity).
///
/// Returns `None` when every rank finishes, or a `protocol-deadlock`
/// finding carrying the wait-for cycle witness.
fn simulate(
    s: &ProtocolSchedule,
    cap: u32,
    deliver: &HashMap<(u32, TileKey), Vec<usize>>,
) -> Option<Finding> {
    let n = s.n_ranks as usize;
    let mut actions: Vec<Vec<Action>> = Vec::with_capacity(n);
    for order in &s.local_order {
        let mut list = Vec::new();
        for &task in order {
            list.push(Action::Exec(task));
            if let Some(send) = &s.sends[task] {
                for &to in &send.to {
                    list.push(Action::Send { to, key: send.key });
                }
            }
        }
        actions.push(list);
    }
    let mut pc = vec![0usize; n];
    let mut have: Vec<HashSet<TileKey>> = vec![HashSet::new(); n];
    let mut inbox: Vec<VecDeque<TileKey>> = vec![VecDeque::new(); n];
    loop {
        let mut progressed = false;
        for r in 0..n {
            loop {
                if pc[r] == actions[r].len() {
                    if !inbox[r].is_empty() {
                        while let Some(k) = inbox[r].pop_front() {
                            have[r].insert(k);
                        }
                        progressed = true;
                    }
                    break;
                }
                match actions[r][pc[r]] {
                    Action::Exec(task) => {
                        if s.needs[task].iter().all(|k| have[r].contains(k)) {
                            pc[r] += 1;
                            progressed = true;
                            continue;
                        }
                        if !inbox[r].is_empty() {
                            while let Some(k) = inbox[r].pop_front() {
                                have[r].insert(k);
                            }
                            progressed = true;
                            continue;
                        }
                        break;
                    }
                    Action::Send { to, key } => {
                        let to = to as usize;
                        if (inbox[to].len() as u32) < cap {
                            inbox[to].push_back(key);
                            pc[r] += 1;
                            progressed = true;
                            continue;
                        }
                        break;
                    }
                }
            }
        }
        if !progressed {
            break;
        }
    }
    let blocked: Vec<usize> = (0..n).filter(|&r| pc[r] < actions[r].len()).collect();
    if blocked.is_empty() {
        return None;
    }
    // Every blocked rank waits on exactly identifiable peers; follow the
    // first wait edge from the lowest blocked rank until a rank repeats
    // — with clean matching, the walk must close a cycle.
    let edge = |r: usize| -> Option<(usize, String)> {
        match &actions[r][pc[r]] {
            Action::Send { to, key } => Some((
                *to as usize,
                format!(
                    "blocked sending {} to rank {to} (inbox full at {cap})",
                    key_str(*key)
                ),
            )),
            Action::Exec(task) => {
                for key in &s.needs[*task] {
                    if have[r].contains(key) {
                        continue;
                    }
                    if let Some(senders) = deliver.get(&(r as u32, *key)) {
                        let from = s.rank_of[senders[0]] as usize;
                        return Some((
                            from,
                            format!("task {task} waiting for {} from rank {from}", key_str(*key)),
                        ));
                    }
                }
                None
            }
        }
    };
    let start = blocked[0];
    let mut path: Vec<(usize, String)> = Vec::new();
    let mut pos: HashMap<usize, usize> = HashMap::new();
    let mut cur = start;
    let cycle = loop {
        if let Some(&k) = pos.get(&cur) {
            break Some(k);
        }
        let Some((next, why)) = edge(cur) else {
            break None;
        };
        pos.insert(cur, path.len());
        path.push((cur, why));
        cur = next;
    };
    let message = match cycle {
        Some(k) => {
            use std::fmt::Write as _;
            let mut msg = format!("capacity {cap}: wait-for cycle ");
            for (r, why) in &path[k..] {
                let _ = write!(msg, "[rank {r}: {why}] -> ");
            }
            let _ = write!(msg, "rank {cur}");
            msg
        }
        None => {
            format!("capacity {cap}: ranks {blocked:?} are blocked with no identifiable sender")
        }
    };
    Some(Finding {
        rule: "protocol-deadlock",
        message,
    })
}

/// Replica lifetime analysis: peak simultaneously resident replicas per
/// rank under the canonical linearization (global task-id order).
fn memory_peaks(
    s: &ProtocolSchedule,
    deliver: &HashMap<(u32, TileKey), Vec<usize>>,
    readers_idx: &HashMap<(u32, TileKey), Vec<usize>>,
) -> Vec<RankPeak> {
    let mut out = Vec::with_capacity(s.n_ranks as usize);
    for rank in 0..s.n_ranks {
        // One interval per replica: from the producing task's position
        // (arrival cannot precede the send) to its last local reader.
        let mut intervals: Vec<(usize, usize)> = Vec::new();
        for ((r, key), tasks) in readers_idx {
            if *r != rank {
                continue;
            }
            let Some(senders) = deliver.get(&(rank, *key)) else {
                continue;
            };
            let start = senders.iter().copied().min().unwrap_or(0);
            let end = tasks.iter().copied().max().unwrap_or(start);
            intervals.push((start, end.max(start)));
        }
        // Sweep; at equal positions arrivals count before frees, making
        // the peak an upper bound for any receive timing.
        let mut events: Vec<(usize, i64)> = Vec::with_capacity(intervals.len() * 2);
        for &(a, b) in &intervals {
            events.push((a, 1));
            events.push((b + 1, -1));
        }
        events.sort_by_key(|&(pos, delta)| (pos, -delta));
        let (mut cur, mut peak) = (0i64, 0i64);
        for (_, delta) in events {
            cur += delta;
            peak = peak.max(cur);
        }
        let sends = s.local_order[rank as usize]
            .iter()
            .filter(|&&id| s.sends[id].is_some())
            .count() as u64;
        out.push(RankPeak {
            rank,
            tasks: s.local_order[rank as usize].len() as u64,
            sends,
            owned: s.owned[rank as usize],
            replicas: intervals.len() as u64,
            peak_replicas: peak.max(0) as u64,
        });
    }
    out
}

/// A broadcast's identity for the multiset diff: class discriminant,
/// sender, tile, epoch, ordered receiver set.
type WalkKey = (u8, u32, u32, u32, u32, Vec<u32>);

/// Cross-derivation agreement: the schedule extracted from the task
/// list — survivor and casualty sends combined — must carry exactly the
/// message multiset of the independent Fig. 2 broadcast walk of
/// `flexdist_dist` over the re-map chain `maps`, cut at the crash
/// `points` (one map and no point when crash-free): same tiles, epochs,
/// senders and ordered receiver sets.
fn walk_findings(
    s: &ProtocolSchedule,
    tl: &TaskList,
    maps: &[TileAssignment],
    points: &[(u32, usize)],
) -> Vec<Finding> {
    let Some(walk) = tl.operation.walk() else {
        return Vec::new();
    };
    let mut counts: HashMap<WalkKey, i64> = HashMap::new();
    for m in spliced_chain(walk, maps, points) {
        let class = match m.class {
            BcastClass::Panel => 0u8,
            BcastClass::Trailing => 1,
        };
        let key = (
            class,
            m.sender,
            m.i as u32,
            m.j as u32,
            m.epoch as u32,
            m.receivers,
        );
        *counts.entry(key).or_insert(0) += 1;
    }
    for (task, send) in s.sends.iter().enumerate() {
        let Some(send) = send else { continue };
        let class = match send.class {
            MsgClass::Panel => 0u8,
            MsgClass::Trailing => 1,
        };
        *counts
            .entry((
                class,
                s.rank_of[task],
                send.key.i,
                send.key.j,
                send.key.epoch,
                send.to.clone(),
            ))
            .or_insert(0) -= 1;
    }
    // The non-zero multiset differences, capped at eight findings.
    let mut diffs: Vec<_> = counts.into_iter().filter(|(_, c)| *c != 0).collect();
    diffs.sort_by(|a, b| a.0.cmp(&b.0));
    diffs
        .into_iter()
        .take(8)
        .map(|((class, sender, i, j, epoch, to), c)| Finding {
            rule: "walk-divergence",
            message: format!(
                "{} broadcast of tile ({i},{j})@{epoch} from rank {sender} to {to:?} appears {} \
                 time(s) in the dist walk minus the task schedule",
                if class == 0 { "panel" } else { "trailing" },
                c
            ),
        })
        .collect()
}

/// Outcome of checking a live net-trace against the derived schedule.
#[derive(Debug, Clone)]
pub struct TraceCheck {
    /// Findings: messages missing from the trace, unscheduled messages,
    /// and goodput frames enqueued before their producer finished.
    pub findings: Vec<Finding>,
    /// Deduplicated goodput messages in the trace.
    pub n_goodput: u64,
    /// Logical deliveries the schedule predicts.
    pub n_scheduled: u64,
    /// Overhead frames (drops, corrupt, duplicates) skipped by dedup.
    pub n_overhead: u64,
}

impl TraceCheck {
    /// No findings of any rule.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the summary and all findings, one per line.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "protocol-trace: {} goodput frame(s) vs {} scheduled deliveries, {} overhead, \
             {} finding(s)",
            self.n_goodput,
            self.n_scheduled,
            self.n_overhead,
            self.findings.len()
        );
        for f in &self.findings {
            let _ = writeln!(out, "  {f}");
        }
        out
    }
}

/// Check that a real `net-trace` is a linearization of the derived
/// schedule: after retransmit dedup, the goodput message set equals the
/// scheduled delivery set exactly, and every goodput frame was enqueued
/// no earlier than the end of the span of the task that produces its
/// tile (sender-side causality — the trace file sorts its arrays, so
/// order is checked through timestamps, not positions).
///
/// # Errors
/// A message when the document is not a `net-trace` or a message entry
/// is malformed.
pub fn check_trace_linearization(s: &ProtocolSchedule, doc: &Value) -> Result<TraceCheck, String> {
    if doc.get("kind").and_then(Value::as_str) != Some("net-trace") {
        return Err("protocol --trace expects a net-trace document".into());
    }
    let spans = doc
        .get("spans")
        .and_then(Value::as_array)
        .ok_or("net-trace: missing array field \"spans\"")?;
    let mut findings = Vec::new();
    // Keyed by (executing rank, engine task id): on a recovered run the
    // casualty runs a task pre-crash and its heir re-runs it, so the
    // task id alone is ambiguous.
    let mut span_end: HashMap<(u32, u64), f64> = HashMap::new();
    for (k, sp) in spans.iter().enumerate() {
        let task = sp
            .get("task")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("net-trace span {k}: missing field \"task\""))?;
        let node = sp
            .get("node")
            .and_then(Value::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| format!("net-trace span {k}: missing field \"node\""))?;
        let end = sp.get("end").and_then(Value::as_f64).unwrap_or(0.0);
        let slot = span_end.entry((node, task)).or_insert(end);
        *slot = slot.max(end);
    }
    if spans.is_empty() {
        findings.push(Finding {
            rule: "no-spans",
            message: "trace contains no task spans — sender-side causality is unverifiable"
                .to_string(),
        });
    }
    let msgs = doc
        .get("messages")
        .and_then(Value::as_array)
        .ok_or("net-trace: missing array field \"messages\"")?;
    // Scheduled logical deliveries: (from, to, key) -> schedule
    // position (distinct from the engine task id on crashed schedules).
    let mut sched: HashMap<(u32, u32, TileKey), usize> = HashMap::new();
    for (task, send) in s.sends.iter().enumerate() {
        let Some(send) = send else { continue };
        for &to in &send.to {
            sched.insert((s.rank_of[task], to, send.key), task);
        }
    }
    // Deduplicated goodput: logical message -> earliest enqueue stamp.
    let mut seen: HashMap<(u32, u32, TileKey), f64> = HashMap::new();
    let mut n_overhead = 0u64;
    for (k, m) in msgs.iter().enumerate() {
        let what = format!("net-trace message {k}");
        let kind = m.get("kind").and_then(Value::as_str).unwrap_or("goodput");
        if kind != "goodput" {
            n_overhead += 1;
            continue;
        }
        let field = |name: &str| -> Result<u32, String> {
            m.get(name)
                .and_then(Value::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| format!("{what}: missing or non-integer field \"{name}\""))
        };
        let slot = (
            field("from")?,
            field("to")?,
            TileKey {
                i: field("i")?,
                j: field("j")?,
                epoch: field("epoch")?,
            },
        );
        let at = m.get("at").and_then(Value::as_f64).unwrap_or(0.0);
        let e = seen.entry(slot).or_insert(at);
        *e = e.min(at);
    }
    let mut missing: Vec<_> = sched.keys().filter(|k| !seen.contains_key(k)).collect();
    missing.sort();
    for &(from, to, key) in missing {
        findings.push(Finding {
            rule: "missing-delivery",
            message: format!(
                "scheduled delivery of {} from rank {from} to rank {to} never reached the wire",
                key_str(key)
            ),
        });
    }
    let mut extra: Vec<_> = seen.keys().filter(|k| !sched.contains_key(k)).collect();
    extra.sort();
    for &(from, to, key) in extra {
        findings.push(Finding {
            rule: "unscheduled-message",
            message: format!(
                "trace carries {} from rank {from} to rank {to}, which the schedule never sends",
                key_str(key)
            ),
        });
    }
    if !spans.is_empty() {
        let mut slots: Vec<_> = seen.iter().collect();
        slots.sort_by(|a, b| a.0.cmp(b.0));
        for (&(from, to, key), &at) in slots {
            let Some(&pos) = sched.get(&(from, to, key)) else {
                continue;
            };
            // The sender executes the producing task, so its span lives
            // on rank `from` under the engine task id.
            let task = s.engine_task[pos];
            if let Some(&end) = span_end.get(&(from, task as u64)) {
                if at + 1e-9 < end {
                    findings.push(Finding {
                        rule: "non-causal-send",
                        message: format!(
                            "{} left rank {from} at {at:.6}s before its producing task {task} \
                             finished at {end:.6}s",
                            key_str(key)
                        ),
                    });
                }
            }
        }
    }
    Ok(TraceCheck {
        findings,
        n_goodput: seen.len() as u64,
        n_scheduled: sched.len() as u64,
        n_overhead,
    })
}
