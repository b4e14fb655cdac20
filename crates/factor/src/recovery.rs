//! Crash recovery: live P→P−k tile re-mapping on rank death.
//!
//! The paper's any-P patterns make recovery *expressible*: because
//! G-2DBC / GCR&M / SBC are defined for every node count, the death of
//! a rank can be absorbed by re-instantiating the assignment over the
//! survivors — here as the minimal-movement greedy re-map
//! [`TileAssignment::remap_excluding`], which moves only the dead rank's
//! tiles. A fixed `r × c` grid has no such move. And because every
//! intermediate node count P−1, P−2, … is a first-class citizen of the
//! same scheme family, the re-map *composes*: a cascade of k crashes is
//! k applications of it, each starting from the previous survivor map
//! with every earlier casualty barred from inheriting.
//!
//! ## One executed derivation, one checking walk
//!
//! The crash-free schedule a run executes comes from
//! [`derive_schedule`]: per task, from the task list. The walk that
//! checks it is [`flexdist_dist::spliced_chain`]: per tile, from the
//! owner maps. Everything else is a fold of those two — the closed-form
//! volumes fold the walk, and the fused schedules below take their
//! placement from the task list and their broadcasts from the walk over
//! the re-map chain. Crash-free is the chain of length zero.
//!
//! ## The recovery state machine
//!
//! 1. **Crash detection + agreement.** The fault plan is shared and
//!    deterministic (PR 5): every rank derives the same ordered crash
//!    list *before the run starts*, which models the
//!    detection-and-agreement rounds as an oracle. The engine therefore
//!    splices statically rather than mid-flight — the honest framing is
//!    that this module proves the *recovered schedule* correct, while
//!    the agreement protocol itself stays out of scope.
//! 2. **Re-map chain.** Crashes sorted by `(epoch, rank)`;
//!    `maps[m+1] = maps[m].remap_excluding(dead_m, earlier casualties)`.
//!    Survivors keep every tile; each casualty's tiles go to the
//!    least-loaded live survivors — including tiles it had itself
//!    inherited from an earlier crash, which hand off a second time.
//! 3. **Schedule splice.** Survivors run one fused [`CommSchedule`]:
//!    task placement and needs under the final map, broadcasts taken
//!    from the chain stream of [`flexdist_dist::splice`] (exactly-once
//!    per `(receiver, tile)` across all k+1 segments). Casualty m runs
//!    its plan under `maps[m]` — the map in force when it dies —
//!    truncated to its pre-crash epochs (a static cut — the runtime
//!    kill switch stays off so the cut cannot race the ready heap's
//!    priority order).
//! 4. **Resurrection.** A tile's final heir re-executes every lost task
//!    from the *input* values (owner-computes over deterministic
//!    kernels ⇒ bitwise-identical results); a second-generation heir
//!    recomputes the full producer chain lost across *both* deaths.
//!    Replica caches are fed by the same broadcasts the casualties
//!    consumed — re-served by the rank owning the tile at that point of
//!    the chain, never by anyone already dead.
//!
//! Two delivery facts fall out of the fusion. First, a tile a casualty
//! finalized and broadcast *before* dying is never re-sent to any of
//! its future owners (they recompute it locally; a delivery would be an
//! unexpected message under the strict protocol). Second, every send
//! addressed *to* a casualty precedes its death: a tile broadcast at
//! iteration ℓ is read only by tasks of iteration ℓ, and a casualty
//! keeps exactly its tasks below its crash epoch — so the fused stream
//! never asks a dead inbox to consume anything.
//!
//! ## Noise
//!
//! Recovery composes with drop/duplicate/corrupt/delay noise: the
//! goodput counters record each *logical* send once on the sender side
//! (retransmits and duplicate copies land in the overhead counters, and
//! receivers deduplicate through the replica-cache seen-set), so
//! measured goodput remains a pure function of the crash points while
//! the retransmit machinery floats freely on top of the splice.

use crate::dexec::{derive_schedule, lay_out, CommSchedule, TaskBcast};
use crate::graphs::{Operation, TaskList};
use flexdist_dist::splice::{spliced_chain, spliced_volume, CrashPoint, SplicedMsg};
use flexdist_dist::{BcastClass, CommBreakdown, TileAssignment};
use flexdist_net::{FaultPlan, MsgClass, NetError, Topology};
use std::collections::HashMap;

/// A task-id slot that belongs to no live rank (a casualty's post-crash
/// tasks in its truncated schedule).
pub const NO_RANK: u32 = u32::MAX;

/// One crash of a (possibly length-one) cascade, with everything the
/// run derives up front from `(assignment, ordered crash list)`: the
/// composed re-map, the fused schedules, and the closed-form volumes
/// the measured goodput must equal.
///
/// [`derive_recovery`] returns one plan per scheduled crash, ordered by
/// `(epoch, rank)`. All elements share the same final `survivor`
/// schedule and the same `expected` / `recovered` totals (they describe
/// the one fused run); `dead_sched` and `remapped` are per-crash.
#[derive(Debug, Clone)]
pub struct RecoverPlan {
    /// The crashed rank.
    pub dead: u32,
    /// The iteration before which it dies (it executes every task of
    /// epochs `< epoch`, none of epoch `≥ epoch`).
    pub epoch: u32,
    /// Whether this crash is modeled by a re-map + splice. False only
    /// for a crash at the tail of the cascade whose rank has no
    /// remaining task (recovery is a no-op for it and it runs the
    /// survivor schedule to completion); a mid-cascade crash is always
    /// modeled, even with no work left, so later re-maps never hand
    /// tiles to — or expect re-serves from — an already-dead rank.
    pub active: bool,
    /// The owner map after this crash's re-map (unchanged from the
    /// previous map when inactive). Node count never shrinks; every
    /// casualty so far simply owns nothing.
    pub remapped: TileAssignment,
    /// The fused schedule every survivor runs: placement and needs
    /// under the *final* map of the cascade, broadcasts fused across
    /// every crash point. Identical in all elements of the chain.
    pub survivor: CommSchedule,
    /// The truncated schedule this casualty runs: placement under the
    /// map in force when it dies, post-crash tasks cut out
    /// ([`NO_RANK`]), its broadcasts taken from the fused stream (so a
    /// casualty that inherited tiles from an earlier crash re-serves
    /// them before its own death, and no send ever targets a tile's
    /// future owner).
    pub dead_sched: CommSchedule,
    /// Closed-form total goodput of the fused run — the conformance
    /// target for [`NetReport::wire`](flexdist_net::NetReport).
    pub expected: CommBreakdown,
    /// Closed-form recovery-only goodput — the conformance target for
    /// the `Recovered` counters.
    pub recovered: CommBreakdown,
}

/// The typed refusal for operations without a spliced broadcast stream.
fn unsupported_op(op: Operation) -> NetError {
    NetError::RecoveryUnsupported {
        detail: format!(
            "operation {} has no spliced broadcast stream; only LU and Cholesky \
             factorizations are recoverable",
            op.name()
        ),
    }
}

/// Derive the recovery plans a run with `faults` needs, if any.
///
/// Returns an empty vector when no crash is scheduled; otherwise one
/// [`RecoverPlan`] per crash, sorted by `(epoch, rank)` — the
/// deterministic agreement order every rank derives identically.
/// Non-crash noise (drop/duplicate/corrupt/delay) composes freely with
/// the cascade: goodput counters count each logical send once on the
/// sender side, so they remain a pure function of the crash points
/// while retransmit overhead floats.
///
/// When any plan is active, every fused send is checked against
/// `topology` up front, so a re-map onto an unreachable survivor is a
/// typed [`NetError::NoRoute`] at derive time instead of a hang at run
/// time.
///
/// # Errors
/// [`NetError::CrashOutOfRange`] when a scheduled rank does not exist;
/// [`NetError::RecoveryUnsupported`] when the operation has no
/// broadcast walk or the cascade leaves no survivor to re-map onto;
/// [`NetError::NoRoute`] as above.
pub fn derive_recovery(
    tl: &TaskList,
    a: &TileAssignment,
    faults: Option<&FaultPlan>,
    topology: &dyn Topology,
) -> Result<Vec<RecoverPlan>, NetError> {
    let mut crashes: Vec<(u32, u32)> = faults.map_or_else(Vec::new, |f| f.crashes().to_vec());
    if crashes.is_empty() {
        return Ok(Vec::new());
    }
    if let Some(&(rank, _)) = crashes.iter().find(|&&(dead, _)| dead >= a.n_nodes()) {
        return Err(NetError::CrashOutOfRange {
            rank,
            n_ranks: a.n_nodes(),
        });
    }
    crashes.sort_unstable_by_key(|&(dead, epoch)| (epoch, dead));
    let plans = derive_chain(tl, a, &crashes)?;
    check_routes(&plans, topology)?;
    Ok(plans)
}

/// Per-crash bookkeeping of the chain derivation.
struct CrashMeta {
    dead: u32,
    epoch: u32,
    /// Re-mapped (chain position `map_idx`); false only for a trailing
    /// crash with no remaining work.
    modeled: bool,
    /// Index of the map this casualty runs under (`maps[map_idx]`).
    map_idx: usize,
}

/// Derive the composed plans of a sorted, duplicate-free crash list.
fn derive_chain(
    tl: &TaskList,
    a: &TileAssignment,
    crashes: &[(u32, u32)],
) -> Result<Vec<RecoverPlan>, NetError> {
    let walk = tl
        .operation
        .walk()
        .ok_or_else(|| unsupported_op(tl.operation))?;
    let mut maps: Vec<TileAssignment> = vec![a.clone()];
    let mut chain: Vec<CrashPoint> = Vec::new();
    let mut metas: Vec<CrashMeta> = Vec::with_capacity(crashes.len());
    for (idx, &(dead, epoch)) in crashes.iter().enumerate() {
        let removes_work = {
            let cur = &maps[maps.len() - 1];
            tl.ops.iter().any(|&op| {
                let w = op.write();
                cur.owner(w.i, w.j) == dead && op.epoch() >= epoch
            })
        };
        let trailing = idx + 1 == crashes.len();
        // A trailing crash that removes no work is a no-op; a
        // mid-cascade one must still re-map, or a later heir selection
        // could hand tiles to this (dead) rank, and later delta
        // re-serves could be scheduled on it after its death.
        if removes_work || !trailing {
            if a.n_nodes() as usize <= chain.len() + 1 {
                return Err(NetError::RecoveryUnsupported {
                    detail: format!(
                        "a cascade of {} crashes leaves no survivor to re-map onto (P = {})",
                        chain.len() + 1,
                        a.n_nodes()
                    ),
                });
            }
            let gone: Vec<u32> = chain.iter().map(|&(d, _)| d).collect();
            let next = maps[maps.len() - 1].remap_excluding(dead, &gone);
            maps.push(next);
            metas.push(CrashMeta {
                dead,
                epoch,
                modeled: true,
                map_idx: chain.len(),
            });
            chain.push((dead, epoch as usize));
        } else {
            metas.push(CrashMeta {
                dead,
                epoch,
                modeled: false,
                map_idx: chain.len(),
            });
        }
    }
    let stream = spliced_chain(walk, &maps, &chain);
    let vol = spliced_volume(&stream);
    let legs = index_stream(stream);
    let survivor = if chain.is_empty() {
        // Every scheduled crash lands past its rank's last task: the
        // whole cascade is a no-op and the run proceeds under the
        // plain schedule with plain goodput.
        derive_schedule(tl, a)?
    } else {
        fused_schedule(tl, &maps[maps.len() - 1], &legs, None)
    };
    Ok(metas
        .iter()
        .map(|m| {
            let dead_sched = if m.modeled {
                fused_schedule(tl, &maps[m.map_idx], &legs, Some((m.dead, m.epoch)))
            } else {
                // Trailing no-op casualty: nothing of its schedule is
                // lost, so it runs the survivor schedule like everyone
                // else and its crash point never fires.
                survivor.clone()
            };
            RecoverPlan {
                dead: m.dead,
                epoch: m.epoch,
                active: m.modeled,
                remapped: maps[m.map_idx + usize::from(m.modeled)].clone(),
                survivor: survivor.clone(),
                dead_sched,
                expected: vol.total,
                recovered: vol.recovered,
            }
        })
        .collect())
}

/// One fused broadcast, indexed by `(sender, i, j)`. Senders along a
/// tile's ownership chain are distinct ranks (ownership only ever moves
/// off a casualty, never back), so the key is unique per stream.
struct Leg {
    class: MsgClass,
    epoch: u32,
    receivers: Vec<u32>,
    recovered: Vec<bool>,
}

fn index_stream(stream: Vec<SplicedMsg>) -> HashMap<(u32, u32, u32), Leg> {
    let mut out = HashMap::with_capacity(stream.len());
    for m in stream {
        let class = match m.class {
            BcastClass::Panel => MsgClass::Panel,
            BcastClass::Trailing => MsgClass::Trailing,
        };
        out.insert(
            (m.sender, m.i as u32, m.j as u32),
            Leg {
                class,
                epoch: m.epoch as u32,
                receivers: m.receivers,
                recovered: m.recovered,
            },
        );
    }
    out
}

/// Build one participant's fused schedule: placement, local dependency
/// counts and needs under `map` (the pass shared with
/// [`derive_schedule`]); each task's broadcast slot is its fused-stream
/// leg — the leg whose sender is the task's executing rank and whose
/// tile/epoch match the task's written tile at its finalization
/// iteration. `cut` removes a casualty's post-crash tasks ([`NO_RANK`]
/// placement, so they are neither queued nor counted).
fn fused_schedule(
    tl: &TaskList,
    map: &TileAssignment,
    legs: &HashMap<(u32, u32, u32), Leg>,
    cut: Option<(u32, u32)>,
) -> CommSchedule {
    let node = tl
        .ops
        .iter()
        .map(|&op| {
            let w = op.write();
            let rank = map.owner(w.i, w.j);
            match cut {
                Some((dead, epoch)) if rank == dead && op.epoch() >= epoch => NO_RANK,
                _ => rank,
            }
        })
        .collect();
    lay_out(tl, map, node, |op, me| {
        let w = op.write();
        let (wi, wj) = (w.i as u32, w.j as u32);
        // Only the finalizing task of tile (wi, wj) — the unique op
        // writing it at iteration min(wi, wj) — matches a leg's epoch.
        legs.get(&(me, wi, wj))
            .filter(|leg| leg.epoch == op.epoch())
            .map(|leg| TaskBcast {
                class: leg.class,
                i: wi,
                j: wj,
                epoch: leg.epoch,
                receivers: leg.receivers.clone(),
                recovered: leg.recovered.clone(),
            })
    })
}

/// Verify every fused send against the topology, so a re-map onto an
/// unreachable rank fails typed at derive time.
fn check_routes(plans: &[RecoverPlan], topology: &dyn Topology) -> Result<(), NetError> {
    let scan = |sched: &CommSchedule, only: Option<u32>| -> Result<(), NetError> {
        for (id, b) in sched.bcast.iter().enumerate() {
            let from = sched.node[id];
            if only.is_some_and(|r| from != r) || from == NO_RANK {
                continue;
            }
            let Some(b) = b else { continue };
            for &to in &b.receivers {
                if !topology.connected(from, to) {
                    return Err(NetError::NoRoute {
                        from,
                        to,
                        topology: topology.name(),
                    });
                }
            }
        }
        Ok(())
    };
    if let Some(last) = plans.iter().rev().find(|rp| rp.active) {
        scan(&last.survivor, None)?;
    }
    for rp in plans.iter().filter(|rp| rp.active) {
        scan(&rp.dead_sched, Some(rp.dead))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::build_graph;
    use flexdist_core::g2dbc;
    use flexdist_dist::lu_comm_volume;
    use flexdist_kernels::KernelCostModel;
    use flexdist_net::{FullMesh, TileKey};

    fn setup(p: u32, t: usize, op: Operation) -> (TaskList, TileAssignment) {
        let a = TileAssignment::cyclic(&g2dbc::g2dbc(p), t);
        let tl = build_graph(op, &a, &KernelCostModel::uniform(8, 10.0));
        (tl, a)
    }

    /// The plan of the one-crash chain `dead@epoch`.
    fn single(tl: &TaskList, a: &TileAssignment, dead: u32, epoch: u32) -> RecoverPlan {
        let plan = FaultPlan::new(0).with_crash(dead, epoch).unwrap();
        let mut plans = derive_recovery(tl, a, Some(&plan), &FullMesh).unwrap();
        assert_eq!(plans.len(), 1);
        plans.remove(0)
    }

    type MsgKey = (u8, u32, u32, u32, u32, Vec<u32>);

    fn stream_diff(stream: &[SplicedMsg]) -> HashMap<MsgKey, i64> {
        let mut diff: HashMap<MsgKey, i64> = HashMap::new();
        for m in stream {
            let k = (
                matches!(m.class, flexdist_dist::BcastClass::Trailing) as u8,
                m.sender,
                m.i as u32,
                m.j as u32,
                m.epoch as u32,
                m.receivers.clone(),
            );
            *diff.entry(k).or_default() += 1;
        }
        diff
    }

    fn drain(diff: &mut HashMap<MsgKey, i64>, sched: &CommSchedule, only: Option<u32>) {
        for (id, b) in sched.bcast.iter().enumerate() {
            let from = sched.node[id];
            if only.is_some_and(|r| from != r) || from == NO_RANK {
                continue;
            }
            let Some(b) = b else { continue };
            let k = (
                matches!(b.class, flexdist_net::MsgClass::Trailing) as u8,
                from,
                b.i,
                b.j,
                b.epoch,
                b.receivers.clone(),
            );
            *diff.entry(k).or_default() -= 1;
        }
    }

    /// The fused schedules' message multiset must equal the dist-layer
    /// spliced stream exactly — two independent derivations of the same
    /// hybrid walk.
    #[test]
    fn fused_single_crash_matches_the_chain_stream() {
        for op in [Operation::Lu, Operation::Cholesky] {
            let (tl, a) = setup(5, 6, op);
            for dead in [0u32, 3] {
                for epoch in 0..=6u32 {
                    let rp = single(&tl, &a, dead, epoch);
                    if !rp.active {
                        continue;
                    }
                    let mut diff = stream_diff(&spliced_chain(
                        op.walk().unwrap(),
                        &[a.clone(), rp.remapped.clone()],
                        &[(dead, epoch as usize)],
                    ));
                    drain(&mut diff, &rp.survivor, None);
                    drain(&mut diff, &rp.dead_sched, Some(dead));
                    let bad: Vec<_> = diff.iter().filter(|&(_, &c)| c != 0).collect();
                    assert!(
                        bad.is_empty(),
                        "{op:?} dead {dead} epoch {epoch}: schedule/stream divergence {bad:?}"
                    );
                }
            }
        }
    }

    /// Same cross-check for a cascade: the union of the final survivor
    /// schedule and every casualty's kept rows must reproduce the
    /// k-fused chain stream leg for leg.
    #[test]
    fn fused_cascade_matches_the_chain_stream() {
        for op in [Operation::Lu, Operation::Cholesky] {
            let (tl, a) = setup(5, 6, op);
            for crashes in [vec![(1u32, 2u32), (3, 4)], vec![(0, 1), (2, 2), (4, 5)]] {
                let plan = crashes
                    .iter()
                    .try_fold(FaultPlan::new(7), |p, &(d, e)| p.with_crash(d, e))
                    .unwrap();
                let plans = derive_recovery(&tl, &a, Some(&plan), &FullMesh).unwrap();
                assert_eq!(plans.len(), crashes.len());
                // A trailing crash may land past its rank's last task
                // (inactive); the chain is built from modeled entries.
                let modeled: Vec<&RecoverPlan> = plans.iter().filter(|rp| rp.active).collect();
                assert!(modeled.len() >= 2, "{op:?} {crashes:?}: cascade collapsed");
                let maps: Vec<TileAssignment> = std::iter::once(a.clone())
                    .chain(modeled.iter().map(|rp| rp.remapped.clone()))
                    .collect();
                let chain: Vec<CrashPoint> = modeled
                    .iter()
                    .map(|rp| (rp.dead, rp.epoch as usize))
                    .collect();
                let stream = spliced_chain(op.walk().unwrap(), &maps, &chain);
                let mut diff = stream_diff(&stream);
                let last = plans.last().unwrap();
                drain(&mut diff, &last.survivor, None);
                for rp in &modeled {
                    drain(&mut diff, &rp.dead_sched, Some(rp.dead));
                }
                let bad: Vec<_> = diff.iter().filter(|&(_, &c)| c != 0).collect();
                assert!(
                    bad.is_empty(),
                    "{op:?} {crashes:?}: schedule/stream divergence {bad:?}"
                );
                // Closed-form totals are shared by every element.
                let vol = spliced_volume(&stream);
                for rp in &plans {
                    assert_eq!(rp.expected, vol.total);
                    assert_eq!(rp.recovered, vol.recovered);
                }
            }
        }
    }

    #[test]
    fn inactive_when_crash_is_past_the_last_epoch() {
        let (tl, a) = setup(4, 5, Operation::Lu);
        let rp = single(&tl, &a, 1, 5);
        assert!(!rp.active);
        assert_eq!(rp.expected, lu_comm_volume(&a));
        assert_eq!(rp.recovered.total(), 0);
        assert_eq!(rp.remapped, a);
    }

    #[test]
    fn cascade_derives_ordered_composed_plans() {
        let (tl, a) = setup(4, 5, Operation::Lu);
        // Scheduled out of epoch order: derivation sorts by (epoch, rank).
        let plan = FaultPlan::new(1)
            .with_crash(2, 3)
            .unwrap()
            .with_crash(1, 2)
            .unwrap();
        let plans = derive_recovery(&tl, &a, Some(&plan), &FullMesh).unwrap();
        assert_eq!(plans.len(), 2);
        assert_eq!((plans[0].dead, plans[0].epoch), (1, 2));
        assert_eq!((plans[1].dead, plans[1].epoch), (2, 3));
        assert!(plans.iter().all(|rp| rp.active));
        // The re-maps compose: after the second, neither casualty owns
        // a tile, and the second map starts from the first.
        let t = tl.t;
        for i in 0..t {
            for j in 0..t {
                assert_ne!(plans[0].remapped.owner(i, j), 1);
                assert_ne!(plans[1].remapped.owner(i, j), 1);
                assert_ne!(plans[1].remapped.owner(i, j), 2);
            }
        }
        // All elements share the final survivor schedule and totals.
        assert_eq!(plans[0].survivor.node, plans[1].survivor.node);
        assert_eq!(plans[0].expected, plans[1].expected);
        assert!(plans[1].recovered.total() > 0);
    }

    #[test]
    fn noisy_crash_plan_is_accepted() {
        let (tl, a) = setup(4, 5, Operation::Lu);
        let plan = FaultPlan::new(1)
            .with_crash(1, 2)
            .unwrap()
            .with_drop(0.1)
            .with_duplicate(0.05)
            .with_delay(0.05);
        let plans = derive_recovery(&tl, &a, Some(&plan), &FullMesh).unwrap();
        assert_eq!(plans.len(), 1);
        assert!(plans[0].active);
        assert!(plans[0].recovered.total() > 0);
    }

    #[test]
    fn unsupported_operation_is_a_typed_refusal_naming_it() {
        let (syrk_tl, a) = setup(4, 5, Operation::Syrk);
        let plan = FaultPlan::new(0).with_crash(1, 2).unwrap();
        let err = derive_recovery(&syrk_tl, &a, Some(&plan), &FullMesh).unwrap_err();
        match err {
            NetError::RecoveryUnsupported { detail } => {
                assert!(
                    detail.contains("syrk"),
                    "detail does not name the op: {detail}"
                );
            }
            other => panic!("expected RecoveryUnsupported, got {other:?}"),
        }
    }

    #[test]
    fn cascade_that_kills_every_rank_is_unsupported() {
        let (tl, a) = setup(3, 5, Operation::Lu);
        let plan = FaultPlan::new(1)
            .with_crash(0, 1)
            .unwrap()
            .with_crash(1, 2)
            .unwrap()
            .with_crash(2, 3)
            .unwrap();
        let err = derive_recovery(&tl, &a, Some(&plan), &FullMesh).unwrap_err();
        assert!(
            matches!(err, NetError::RecoveryUnsupported { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn no_crash_means_no_plan() {
        let (tl, a) = setup(4, 5, Operation::Lu);
        assert!(derive_recovery(&tl, &a, None, &FullMesh)
            .unwrap()
            .is_empty());
        let quiet = FaultPlan::new(3);
        assert!(derive_recovery(&tl, &a, Some(&quiet), &FullMesh)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn crash_of_a_rank_the_run_does_not_have_is_refused_by_name() {
        // Rank 4 of P = 4 (and anything beyond) used to be filtered out,
        // turning the run silently crash-free.
        let (tl, a) = setup(4, 5, Operation::Lu);
        for rank in [4u32, 99] {
            let plan = FaultPlan::new(1)
                .with_crash(1, 2)
                .unwrap()
                .with_crash(rank, 2)
                .unwrap();
            let err = derive_recovery(&tl, &a, Some(&plan), &FullMesh).unwrap_err();
            assert_eq!(err, NetError::CrashOutOfRange { rank, n_ranks: 4 });
            let text = err.to_string();
            assert!(text.contains(&format!("rank {rank}")), "{text}");
            assert!(text.contains("P = 4"), "{text}");
        }
    }

    #[test]
    fn dead_schedule_is_cut_at_the_crash_epoch() {
        let (tl, a) = setup(5, 6, Operation::Cholesky);
        // The owner of the final diagonal tile has work at every epoch,
        // so a mid-run crash of that rank is always active.
        let dead = a.owner(5, 5);
        let rp = single(&tl, &a, dead, 3);
        assert!(rp.active);
        for (id, &n) in rp.dead_sched.node.iter().enumerate() {
            if n == dead {
                assert!(rp.dead_sched.epochs[id] < 3);
            }
            assert_ne!(
                rp.survivor.node[id], dead,
                "survivor schedule still places task {id} on the dead rank"
            );
        }
        // No future owner ever appears among the dead rank's receivers.
        for (id, b) in rp.dead_sched.bcast.iter().enumerate() {
            if rp.dead_sched.node[id] != dead {
                continue;
            }
            if let Some(b) = b {
                let heir = rp.remapped.owner(b.i as usize, b.j as usize);
                assert!(!b.receivers.contains(&heir), "heir re-delivered: {b:?}");
            }
        }
    }

    #[test]
    fn survivor_needs_are_served_exactly_once() {
        // Every survivor need must be covered by exactly one fused send,
        // and every fused send must land on a rank that needs it (or the
        // dying rank pre-crash).
        for op in [Operation::Lu, Operation::Cholesky] {
            let (tl, a) = setup(6, 7, op);
            let rp = single(&tl, &a, 1, 2);
            assert!(rp.active, "{op:?}: pick an active crash point");
            let mut delivered: HashMap<(u32, TileKey), u32> = HashMap::new();
            let mut count = |sched: &CommSchedule, only: Option<u32>| {
                for (id, b) in sched.bcast.iter().enumerate() {
                    let from = sched.node[id];
                    if only.is_some_and(|r| from != r) || from == NO_RANK {
                        continue;
                    }
                    let Some(b) = b else { continue };
                    for &to in &b.receivers {
                        let key = TileKey {
                            i: b.i,
                            j: b.j,
                            epoch: b.epoch,
                        };
                        *delivered.entry((to, key)).or_default() += 1;
                    }
                }
            };
            count(&rp.survivor, None);
            count(&rp.dead_sched, Some(1));
            let mut needed: HashMap<(u32, TileKey), u32> = HashMap::new();
            for (id, keys) in rp.survivor.needs.iter().enumerate() {
                for &k in keys {
                    needed.entry((rp.survivor.node[id], k)).or_insert(0);
                    *needed.entry((rp.survivor.node[id], k)).or_default() = 1;
                }
            }
            for (id, keys) in rp.dead_sched.needs.iter().enumerate() {
                if rp.dead_sched.node[id] != 1 {
                    continue;
                }
                for &k in keys {
                    *needed.entry((1, k)).or_default() = 1;
                }
            }
            for (slot, &n) in &needed {
                assert_eq!(
                    delivered.get(slot).copied().unwrap_or(0),
                    n,
                    "{op:?}: need {slot:?} not served exactly once"
                );
            }
            for (slot, &n) in &delivered {
                assert_eq!(n, 1, "{op:?}: {slot:?} delivered {n} times");
                assert!(needed.contains_key(slot), "{op:?}: {slot:?} unconsumed");
            }
        }
    }

    /// The exactly-once and consumption invariants must survive
    /// composition: for a 2-cascade, union deliveries == union needs.
    #[test]
    fn cascade_needs_are_served_exactly_once() {
        for op in [Operation::Lu, Operation::Cholesky] {
            let (tl, a) = setup(6, 7, op);
            let plan = FaultPlan::new(2)
                .with_crash(1, 2)
                .unwrap()
                .with_crash(4, 4)
                .unwrap();
            let plans = derive_recovery(&tl, &a, Some(&plan), &FullMesh).unwrap();
            assert!(plans.iter().all(|rp| rp.active), "{op:?}");
            let mut delivered: HashMap<(u32, TileKey), u32> = HashMap::new();
            let mut count = |sched: &CommSchedule, only: Option<u32>| {
                for (id, b) in sched.bcast.iter().enumerate() {
                    let from = sched.node[id];
                    if only.is_some_and(|r| from != r) || from == NO_RANK {
                        continue;
                    }
                    let Some(b) = b else { continue };
                    for &to in &b.receivers {
                        let key = TileKey {
                            i: b.i,
                            j: b.j,
                            epoch: b.epoch,
                        };
                        *delivered.entry((to, key)).or_default() += 1;
                    }
                }
            };
            let last = plans.last().unwrap();
            count(&last.survivor, None);
            for rp in &plans {
                count(&rp.dead_sched, Some(rp.dead));
            }
            let mut needed: HashMap<(u32, TileKey), u32> = HashMap::new();
            for (id, keys) in last.survivor.needs.iter().enumerate() {
                for &k in keys {
                    *needed.entry((last.survivor.node[id], k)).or_default() = 1;
                }
            }
            for rp in &plans {
                for (id, keys) in rp.dead_sched.needs.iter().enumerate() {
                    if rp.dead_sched.node[id] != rp.dead {
                        continue;
                    }
                    for &k in keys {
                        *needed.entry((rp.dead, k)).or_default() = 1;
                    }
                }
            }
            for (slot, &n) in &needed {
                assert_eq!(
                    delivered.get(slot).copied().unwrap_or(0),
                    n,
                    "{op:?}: need {slot:?} not served exactly once"
                );
            }
            for (slot, &n) in &delivered {
                assert_eq!(n, 1, "{op:?}: {slot:?} delivered {n} times");
                assert!(needed.contains_key(slot), "{op:?}: {slot:?} unconsumed");
            }
        }
    }

    #[test]
    fn partition_that_isolates_the_heir_is_no_route_at_derive_time() {
        // Ranks {0,1,2} in one partition, rank 3 alone. Rank 3 owns no
        // tiles under an owner map confined to 0..3, so the greedy
        // re-map sends every dead tile to it — across the partition.
        let t = 6;
        let a = TileAssignment::from_owner_fn(t, 4, |i, j| ((i + j) % 3) as u32);
        let tl = build_graph(Operation::Lu, &a, &KernelCostModel::uniform(8, 10.0));
        let topo = flexdist_net::Partition::new(vec![0, 0, 0, 1]);
        let plan = FaultPlan::new(9).with_crash(1, 2).unwrap();
        let err = derive_recovery(&tl, &a, Some(&plan), &topo).unwrap_err();
        assert!(matches!(err, NetError::NoRoute { .. }), "got {err:?}");
    }
}
