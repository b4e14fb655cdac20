//! The broadcast stream of a run: the Fig. 2 walk resolved against an
//! assignment chain, fused across every crash point.
//!
//! [`spliced_chain`] is the only message stream in this crate. A
//! crash-free run is the chain of one map and no crash — its stream is
//! the plain Fig. 2 walk with nothing flagged recovered, and
//! `lu_comm_volume` / `cholesky_comm_volume` are folds of it. The rest of
//! this header is about what k ≥ 1 crashes add.
//!
//! When node `dead` dies at the start of epoch `e`, the run is a hybrid
//! of two assignments: everything the dead node finalized *before* `e`
//! was produced and broadcast under the original map `a`, while every
//! task at epoch `≥ e` — including the re-execution of the dead node's
//! lost tiles from their input values — runs under the re-mapped
//! survivor assignment `a2` (see [`TileAssignment::remap_excluding`]).
//!
//! The stream of that hybrid run fuses the two walks tile by tile. It is
//! the closed-form oracle the executor's goodput accounting and the
//! static protocol verifier are both held to: the recovered run's wire
//! volume must equal [`SplicedVolume::total`] exactly, with the *extra*
//! messages caused by the re-map (and nothing else) flagged and counted
//! in [`SplicedVolume::recovered`].
//!
//! ## Fusion rules
//!
//! For a tile `(i,j)` broadcast at epoch `ℓ = min(i,j)`, with receiver
//! sets `Arec` under `a` and `A2rec` under `a2` (each excluding its own
//! sender, empty if the broadcast is elided):
//!
//! * `ℓ ≥ e` — the broadcast happens entirely after the crash: one
//!   message from the `a2` owner to `A2rec`. A send is *recovered* when
//!   it would not exist in a crash-free run: the tile was dead-owned
//!   (its owner changed), or the receiver reads it only under `a2` (a
//!   new owner of some re-assigned tile).
//! * `ℓ < e`, surviving owner — the owner broadcast to `Arec` before
//!   the crash (the dead node, if a reader, consumed its copy before
//!   dying); after the re-map it additionally serves the new readers
//!   `A2rec ∖ Arec`, which re-execute the dead node's updates. One
//!   message, `Arec` then the delta, delta flagged recovered.
//! * `ℓ < e`, dead owner — the dead node finalized and broadcast the
//!   tile before dying, *except* to the tile's new owner `s′ =
//!   a2.owner(i,j)`, which instead re-computes the tile locally (so a
//!   delivery would be an unexpected message under the strict
//!   protocol). Two messages: the dead node to `Arec ∖ {s′}`
//!   (pre-crash, not recovered), and `s′` to the new readers
//!   `A2rec ∖ Arec` (all recovered). Either is elided when empty.
//!
//! Exactly-once delivery per `(receiver, tile)` is preserved by
//! construction, and no message is addressed to the dead node after its
//! crash (it only appears inside `Arec` at epochs `< e`).
//!
//! ## Cascades (k sequential crashes)
//!
//! The fusion generalizes to an assignment chain `maps[0..=k]`, one
//! re-map per crash (sorted by `(epoch, rank)`). Per tile, the rules
//! compose along the tile's *ownership chain*: the broadcast fires under
//! the map of the generation `g` containing `ℓ` (the number of crashes
//! at epochs `≤ ℓ`), each later re-map's new readers are served by the
//! tile's owner under that re-map, and no send is ever addressed to any
//! *future* owner of the tile — every heir, first- or later-
//! generation, re-executes the lost producer chain locally instead of
//! receiving finalized tiles. Receivers accumulate across generations,
//! so per-`(receiver, tile)` exactly-once delivery is preserved for
//! any k, and a send is flagged recovered exactly when its
//! `(sender → receiver)` pair is absent from the crash-free walk under
//! `maps[0]`.

use crate::assignment::TileAssignment;
use crate::comm::CommBreakdown;
use crate::schedule::{BcastClass, Collector, Walk};

/// One logical broadcast of the schedule: a tile leaving its owner for
/// a set of distinct remote nodes, with a per-receiver flag marking the
/// sends that exist only because of a recovery re-map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplicedMsg {
    /// Panel or trailing leg.
    pub class: BcastClass,
    /// Sending node: the tile's owner under the map in force when the
    /// message leaves (the original map for pre-crash messages, a
    /// re-map for post-crash and re-serve messages).
    pub sender: u32,
    /// Tile row.
    pub i: usize,
    /// Tile column.
    pub j: usize,
    /// Iteration `ℓ = min(i, j)` at which the tile's final value is
    /// broadcast.
    pub epoch: usize,
    /// Distinct receivers in first-encounter order of the owner walk,
    /// never containing the sender. Never empty: broadcasts whose
    /// receiver set collapses to the sender are elided from the stream.
    pub receivers: Vec<u32>,
    /// `recovered[k]` — the send to `receivers[k]` is extra work caused
    /// by a re-map (absent from the crash-free run under `maps[0]`).
    /// All-false on a crash-free stream.
    pub recovered: Vec<bool>,
}

/// Communication volume of a stream, split into the grand total (what
/// the run's goodput must equal) and the recovered portion (sends that
/// exist only because of a re-map; zero for a crash-free stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SplicedVolume {
    /// Every tile send of the run, pre- and post-crash.
    pub total: CommBreakdown,
    /// The flagged subset: re-serves to new owners and re-mapped
    /// post-crash broadcasts that a crash-free run would not perform.
    pub recovered: CommBreakdown,
}

/// Fold a stream into its total / recovered volumes.
#[must_use]
pub fn spliced_volume(msgs: &[SplicedMsg]) -> SplicedVolume {
    let mut out = SplicedVolume::default();
    for m in msgs {
        let n = m.receivers.len() as u64;
        let r = m.recovered.iter().filter(|&&f| f).count() as u64;
        match m.class {
            BcastClass::Panel => {
                out.total.panel += n;
                out.recovered.panel += r;
            }
            BcastClass::Trailing => {
                out.total.trailing += n;
                out.recovered.trailing += r;
            }
        }
    }
    out
}

/// One crash of a cascade, in the dist layer's coordinates: rank
/// `dead` executes every task of epochs `< epoch` and none at `≥
/// epoch`.
pub type CrashPoint = (u32, usize);

/// Chain-walk state: the assignment chain `maps[0..=k]` (one per crash
/// generation; `maps[m]` is in effect after the first `m` crashes).
struct Fuser<'x> {
    maps: &'x [TileAssignment],
    crashes: &'x [CrashPoint],
    collector: Collector,
    out: Vec<SplicedMsg>,
}

impl Fuser<'_> {
    /// Fuse one broadcast slot of the walk (tile `(i,j)` at epoch
    /// `ℓ = min(i,j)` to the owners of `readers`) across every crash
    /// point of the cascade, appending the resulting message(s) — one
    /// per distinct sender of the tile's ownership chain.
    fn fuse(&mut self, class: BcastClass, i: usize, j: usize, readers: &[(usize, usize)]) {
        let l = i.min(j);
        let k = self.crashes.len();
        let maps = self.maps;
        let owner = |m: usize| maps[m].owner(i, j);
        let mut distinct_readers = |m: usize| {
            let owners = readers.iter().map(|&(ri, rj)| maps[m].owner(ri, rj));
            self.collector.collect(owner(m), owners)
        };
        // Crash-free receivers, against which the recovered flags are
        // computed: a send is recovered exactly when its (sender →
        // receiver) pair is absent from the plain walk under maps[0].
        let rec0 = distinct_readers(0);
        // The generation whose map is live when the broadcast fires.
        let g = self.crashes.iter().filter(|&&(_, e)| e <= l).count();
        // Receivers already served, across all generations.
        let mut acc: Vec<u32> = Vec::new();
        for m in g..=k {
            let s = owner(m);
            let remapped;
            let rec = if m == 0 {
                &rec0
            } else {
                remapped = distinct_readers(m);
                &remapped
            };
            // The owners after generation m all re-compute the tile
            // locally (heirs re-execute the lost producer chain), so no
            // send is ever addressed to them.
            let receivers: Vec<u32> = rec
                .iter()
                .copied()
                .filter(|r| !acc.contains(r) && ((m + 1)..=k).all(|q| owner(q) != *r))
                .collect();
            if receivers.is_empty() {
                continue;
            }
            acc.extend(&receivers);
            let recovered: Vec<bool> = receivers
                .iter()
                .map(|r| s != owner(0) || !rec0.contains(r))
                .collect();
            // Merge into the previous message when the owner survived
            // this crash (one broadcast, extended with the new readers).
            if let Some(last) = self.out.last_mut() {
                if last.sender == s && last.i == i && last.j == j && last.class == class {
                    last.receivers.extend(receivers);
                    last.recovered.extend(recovered);
                    continue;
                }
            }
            self.out.push(SplicedMsg {
                class,
                sender: s,
                i,
                j,
                epoch: l,
                receivers,
                recovered,
            });
        }
    }
}

/// Validate an assignment chain + crash list.
///
/// # Panics
/// Panics if the chain is empty or inconsistent (see [`spliced_chain`]).
fn check_chain(maps: &[TileAssignment], crashes: &[CrashPoint]) {
    assert!(!maps.is_empty(), "the assignment chain cannot be empty");
    assert_eq!(
        maps.len(),
        crashes.len() + 1,
        "need one map per crash generation"
    );
    for m in &maps[1..] {
        assert_eq!(maps[0].tiles(), m.tiles(), "assignment shapes differ");
        assert_eq!(maps[0].n_nodes(), m.n_nodes(), "node counts differ");
    }
    for (idx, &(dead, epoch)) in crashes.iter().enumerate() {
        assert!(dead < maps[0].n_nodes(), "dead node {dead} out of range");
        assert!(
            crashes[..idx].iter().all(|&(d, _)| d != dead),
            "rank {dead} crashes twice"
        );
        if let Some(&(prev_dead, prev_epoch)) = idx.checked_sub(1).and_then(|p| crashes.get(p)) {
            assert!(
                (prev_epoch, prev_dead) < (epoch, dead),
                "crashes must be sorted by (epoch, rank)"
            );
        }
    }
}

/// The broadcast stream of a factorization over an assignment chain:
/// the Fig. 2 `walk` fused across every crash of `crashes` (sorted by
/// `(epoch, rank)`), with `maps[m]` the assignment in effect after the
/// first `m` crashes — `maps[0]` the original, `maps[m+1] =
/// maps[m].remap_excluding(crashes[m].0, earlier casualties)`.
///
/// The crash-free stream is the k = 0 chain, `maps = [a]`, `crashes =
/// []`: every broadcast of the plain walk with its sender, tile, epoch
/// and distinct receiver set, nothing flagged recovered. An
/// all-identical chain (an inactive cascade) yields the same stream.
///
/// # Panics
/// Panics if the chain and crash list disagree in length, the maps
/// disagree on shape or node count, a crashed rank is out of range or
/// repeated, or the crashes are not sorted by `(epoch, rank)`.
#[must_use]
pub fn spliced_chain(
    walk: Walk,
    maps: &[TileAssignment],
    crashes: &[CrashPoint],
) -> Vec<SplicedMsg> {
    check_chain(maps, crashes);
    let mut f = Fuser {
        maps,
        crashes,
        collector: Collector::new(maps[0].n_nodes()),
        out: Vec::new(),
    };
    walk.for_each_slot(maps[0].tiles(), |class, i, j, readers| {
        f.fuse(class, i, j, readers);
    });
    f.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::cholesky_comm_volume;
    use flexdist_core::{g2dbc, sbc};

    fn g2dbc_assign(p: u32, t: usize) -> TileAssignment {
        TileAssignment::cyclic(&g2dbc::g2dbc(p), t)
    }

    /// The k = 0 stream of one map.
    fn plain(walk: Walk, a: &TileAssignment) -> Vec<SplicedMsg> {
        spliced_chain(walk, std::slice::from_ref(a), &[])
    }

    /// The k = 1 stream of `dead` dying at `epoch`, `a2` the re-map.
    fn pair(
        walk: Walk,
        a: &TileAssignment,
        a2: &TileAssignment,
        dead: u32,
        epoch: usize,
    ) -> Vec<SplicedMsg> {
        spliced_chain(walk, &[a.clone(), a2.clone()], &[(dead, epoch)])
    }

    /// A message without its recovered flags.
    fn unflagged(m: &SplicedMsg) -> (BcastClass, u32, usize, usize, usize, &[u32]) {
        (m.class, m.sender, m.i, m.j, m.epoch, &m.receivers)
    }

    #[test]
    fn crash_at_epoch_zero_runs_entirely_under_the_remap() {
        // e = 0: the dead node never executes anything, so the stream is
        // exactly the plain walk of the re-mapped assignment.
        let a = g2dbc_assign(6, 9);
        let a2 = a.remap_excluding(4, &[]);
        let s = pair(Walk::Cholesky, &a, &a2, 4, 0);
        let under_remap = plain(Walk::Cholesky, &a2);
        assert_eq!(
            s.iter().map(unflagged).collect::<Vec<_>>(),
            under_remap.iter().map(unflagged).collect::<Vec<_>>()
        );
        assert_eq!(spliced_volume(&s).total, cholesky_comm_volume(&a2));
        // Something must still be flagged: every broadcast of a tile
        // that used to be dead-owned is pure recovery traffic.
        assert!(spliced_volume(&s).recovered.total() > 0);
    }

    #[test]
    fn exactly_once_per_receiver_and_no_self_sends() {
        let a = g2dbc_assign(7, 10);
        let a2 = a.remap_excluding(3, &[]);
        for e in 0..10 {
            for s in [
                pair(Walk::Lu, &a, &a2, 3, e),
                pair(Walk::Cholesky, &a, &a2, 3, e),
            ] {
                let mut seen = std::collections::HashSet::new();
                for m in &s {
                    assert_eq!(m.receivers.len(), m.recovered.len());
                    assert!(!m.receivers.is_empty());
                    assert_eq!(m.epoch, m.i.min(m.j));
                    for (&r, &f) in m.receivers.iter().zip(&m.recovered) {
                        assert_ne!(r, m.sender, "self-send in {m:?}");
                        assert!(
                            seen.insert((m.i, m.j, r)),
                            "tile ({},{}) delivered twice to {r} (e={e})",
                            m.i,
                            m.j
                        );
                        if r == 3 {
                            // The dead node only ever receives pre-crash
                            // deliveries, never recovery traffic.
                            assert!(m.epoch < e, "post-crash send to dead: {m:?}");
                            assert!(!f, "recovered send to dead: {m:?}");
                        }
                    }
                }
                seen.clear();
            }
        }
    }

    #[test]
    fn dead_node_neither_sends_nor_receives_after_the_crash() {
        let a = g2dbc_assign(5, 8);
        let a2 = a.remap_excluding(0, &[]);
        for e in 0..8 {
            for m in pair(Walk::Lu, &a, &a2, 0, e) {
                if m.sender == 0 {
                    assert!(m.epoch < e, "dead sends post-crash: {m:?}");
                    assert!(m.recovered.iter().all(|&f| !f));
                }
            }
        }
    }

    #[test]
    fn recovered_flags_mark_exactly_the_delta_to_the_crash_free_run() {
        // Unflagged sends must be a sub-multiset of the crash-free walk's
        // (sender → receiver, tile) pairs; flagged sends must be absent
        // from it.
        let a = TileAssignment::extended(&sbc::sbc_extended(21).unwrap(), 9);
        let a2 = a.remap_excluding(7, &[]);
        let plain: std::collections::HashSet<(u32, u32, usize, usize)> = plain(Walk::Lu, &a)
            .into_iter()
            .flat_map(|m| {
                let s = m.sender;
                let (i, j) = (m.i, m.j);
                m.receivers.into_iter().map(move |r| (s, r, i, j))
            })
            .collect();
        for e in [2usize, 5] {
            for m in pair(Walk::Lu, &a, &a2, 7, e) {
                for (&r, &f) in m.receivers.iter().zip(&m.recovered) {
                    let key = (m.sender, r, m.i, m.j);
                    if f {
                        assert!(!plain.contains(&key), "flagged send exists plain: {key:?}");
                    } else {
                        assert!(plain.contains(&key), "unflagged send not plain: {key:?}");
                    }
                }
            }
        }
    }

    /// Build the composed assignment chain for a crash list.
    fn chain_for(a: &TileAssignment, crashes: &[(u32, usize)]) -> Vec<TileAssignment> {
        let mut maps = vec![a.clone()];
        let mut gone: Vec<u32> = Vec::new();
        for &(dead, _) in crashes {
            let last = maps.last().expect("chain is never empty");
            maps.push(last.remap_excluding(dead, &gone));
            gone.push(dead);
        }
        maps
    }

    #[test]
    fn cascade_is_exactly_once_and_never_serves_the_dead_or_heirs() {
        // Two and three sequential crashes: per-(receiver, tile)
        // exactly-once, nobody receives at or after its own crash
        // epoch, and no future owner of a tile ever receives it.
        let a = g2dbc_assign(7, 9);
        let cascades: [&[(u32, usize)]; 3] = [
            &[(2, 1), (5, 4)],
            &[(1, 2), (3, 2)],
            &[(0, 1), (4, 3), (6, 5)],
        ];
        for crashes in cascades {
            let maps = chain_for(&a, crashes);
            for stream in [
                spliced_chain(Walk::Lu, &maps, crashes),
                spliced_chain(Walk::Cholesky, &maps, crashes),
            ] {
                let mut seen = std::collections::HashSet::new();
                for m in &stream {
                    assert_eq!(m.receivers.len(), m.recovered.len());
                    assert!(!m.receivers.is_empty());
                    assert_eq!(m.epoch, m.i.min(m.j));
                    if let Some(&(_, ce)) = crashes.iter().find(|&&(d, _)| d == m.sender) {
                        assert!(
                            m.epoch < ce,
                            "casualty {} sends its own broadcast post-crash: {m:?}",
                            m.sender
                        );
                    }
                    for &r in &m.receivers {
                        assert_ne!(r, m.sender, "self-send in {m:?}");
                        assert!(
                            seen.insert((m.i, m.j, r)),
                            "tile ({},{}) delivered twice to {r}",
                            m.i,
                            m.j
                        );
                        if let Some(&(_, ce)) = crashes.iter().find(|&&(d, _)| d == r) {
                            assert!(m.epoch < ce, "post-crash send to casualty {r}: {m:?}");
                        }
                        // No generation's owner of the tile ever receives it.
                        assert!(
                            maps.iter().all(|map| map.owner(m.i, m.j) != r),
                            "owner-chain member {r} served tile ({},{})",
                            m.i,
                            m.j
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cascade_serves_every_reader_under_the_final_map() {
        // Completeness under composition: every distinct final-map
        // owner of a tile's reader set that never owned the tile is
        // served exactly once.
        let a = g2dbc_assign(6, 8);
        let crashes: [(u32, usize); 2] = [(5, 2), (1, 4)];
        let maps = chain_for(&a, &crashes);
        let af = maps.last().expect("chain tail");
        let t = 8usize;
        let msgs = spliced_chain(Walk::Cholesky, &maps, &crashes);
        let mut got: std::collections::HashMap<(usize, usize), Vec<u32>> =
            std::collections::HashMap::new();
        for m in &msgs {
            got.entry((m.i, m.j)).or_default().extend(&m.receivers);
        }
        for l in 0..t {
            for i in (l + 1)..t {
                let mut need: Vec<u32> = ((l + 1)..=i)
                    .map(|j| af.owner(i, j))
                    .chain(((i + 1)..t).map(|j| af.owner(j, i)))
                    .filter(|&o| maps.iter().all(|map| map.owner(i, l) != o))
                    .collect();
                need.sort_unstable();
                need.dedup();
                let have = got.get(&(i, l)).cloned().unwrap_or_default();
                for o in need {
                    assert!(have.contains(&o), "final reader {o} of ({i},{l}) unserved");
                }
            }
        }
    }

    #[test]
    fn second_generation_heir_hands_off_the_inherited_tiles() {
        // Kill a rank, then kill one of its heirs: tiles that moved
        // dead1 → heir → dead2's heir must end at a rank that is
        // neither casualty, and their recovery broadcasts must come
        // from the final owner.
        let a = g2dbc_assign(5, 8);
        let d1 = 1u32;
        let maps1 = chain_for(&a, &[(d1, 2)]);
        // Find an heir that inherited at least one of d1's tiles.
        let d2 = (0..8 * 8)
            .map(|s| maps1[1].owner(s / 8, s % 8))
            .zip((0..8 * 8).map(|s| a.owner(s / 8, s % 8)))
            .find_map(|(now, was)| (was == d1 && now != d1).then_some(now))
            .expect("the re-map moved something");
        let crashes: [(u32, usize); 2] = [(d1, 2), (d2, 4)];
        let maps = chain_for(&a, &crashes);
        let af = &maps[2];
        let mut chained = 0u32;
        for i in 0..8 {
            for j in 0..8 {
                if a.owner(i, j) == d1 && maps[1].owner(i, j) == d2 {
                    chained += 1;
                    assert_ne!(af.owner(i, j), d1);
                    assert_ne!(af.owner(i, j), d2);
                }
            }
        }
        assert!(chained > 0, "pick a cascade that chains an inheritance");
        let mut final_heir_reserved = false;
        for m in spliced_chain(Walk::Lu, &maps, &crashes) {
            for (&r, &f) in m.receivers.iter().zip(&m.recovered) {
                if f && a.owner(m.i, m.j) == d1 && maps[1].owner(m.i, m.j) == d2 {
                    // Recovery traffic for twice-inherited tiles comes
                    // from the ownership chain after d1: the first heir
                    // (pre its own crash only) or the final owner.
                    assert_ne!(m.sender, d1, "first casualty re-serves: {m:?}");
                    if m.sender == d2 {
                        assert!(m.epoch < 4, "dead heir re-serves post-crash: {m:?}");
                    } else {
                        assert_eq!(m.sender, af.owner(m.i, m.j), "wrong re-server: {m:?}");
                        final_heir_reserved = true;
                    }
                    assert_ne!(r, d1);
                    assert_ne!(r, d2);
                }
            }
        }
        assert!(
            final_heir_reserved,
            "the second-generation heir never handed anything off"
        );
    }

    #[test]
    fn recovered_share_grows_along_the_cascade() {
        let a = g2dbc_assign(6, 8);
        // No crash, nothing recovered.
        assert_eq!(spliced_volume(&plain(Walk::Lu, &a)).recovered.total(), 0);
        // A cascade's recovered share grows with each crash.
        let c1: [(u32, usize); 1] = [(2, 2)];
        let c2: [(u32, usize); 2] = [(2, 2), (4, 4)];
        let v1 = spliced_volume(&spliced_chain(Walk::Lu, &chain_for(&a, &c1), &c1));
        let v2 = spliced_volume(&spliced_chain(Walk::Lu, &chain_for(&a, &c2), &c2));
        assert!(v1.recovered.total() > 0);
        assert!(v2.recovered.total() > v1.recovered.total());
    }

    #[test]
    fn every_reader_is_served_under_the_remap() {
        // Completeness: for every tile, every distinct remote a2-owner of
        // its reader set receives the tile exactly once — except the dead
        // node, which (post-crash) reads nothing.
        let a = g2dbc_assign(6, 8);
        let a2 = a.remap_excluding(5, &[]);
        let e = 4usize;
        let t = 8usize;
        let msgs = pair(Walk::Cholesky, &a, &a2, 5, e);
        let mut got: std::collections::HashMap<(usize, usize), Vec<u32>> =
            std::collections::HashMap::new();
        for m in &msgs {
            got.entry((m.i, m.j)).or_default().extend(&m.receivers);
        }
        for l in 0..t {
            for i in (l + 1)..t {
                // Trailing tile (i,l): a2-readers are owners of its colrow.
                let s2 = a2.owner(i, l);
                let mut need: Vec<u32> = ((l + 1)..=i)
                    .map(|j| a2.owner(i, j))
                    .chain(((i + 1)..t).map(|j| a2.owner(j, i)))
                    .filter(|&o| o != s2)
                    .collect();
                need.sort_unstable();
                need.dedup();
                let have = got.get(&(i, l)).cloned().unwrap_or_default();
                for o in need {
                    assert!(
                        have.contains(&o),
                        "a2-reader {o} of ({i},{l}) never served (e={e})"
                    );
                }
            }
        }
    }
}
