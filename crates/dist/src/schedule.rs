//! The paper's Fig. 2 broadcast walk: which tile every iteration ships,
//! and whose owners read it.
//!
//! This is the one place in `flexdist-dist` where the reader sets of the
//! two factorizations are spelled out — as coordinates, independent of
//! any owner map. [`splice`](crate::splice) resolves them against an
//! assignment chain into the message stream (crash-free is the chain of
//! one map), and [`comm`](crate::comm) folds that stream into the exact
//! volumes of Eq. 1/2, so every hand-count test below and in `comm`
//! doubles as a fidelity proof of this walk. The distributed executor
//! (`flexdist-factor::dexec`) derives the schedule it *runs* separately,
//! per task from the task list; the static protocol verifier
//! (`flexdist-verify::protocol`) checks that derivation against this
//! one.

/// Which leg of the per-iteration broadcast a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastClass {
    /// Factorized diagonal tile to the panel solvers (GETRF/POTRF
    /// output → TRSM inputs).
    Panel,
    /// Solved panel tile into the trailing submatrix (TRSM outputs →
    /// GEMM/SYRK inputs).
    Trailing,
}

/// Which factorization's Fig. 2 walk to take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Right-looking tiled LU: the diagonal tile `(ℓ,ℓ)` to its panel
    /// (column tiles `(i,ℓ)` and row tiles `(ℓ,i)`, `i > ℓ`), then each
    /// solved column tile `(i,ℓ)` across its trailing row and each row
    /// tile `(ℓ,j)` down its trailing column.
    Lu,
    /// Right-looking tiled Cholesky: the diagonal tile `(ℓ,ℓ)` to the
    /// column tiles `(i,ℓ)`, `i > ℓ`, then each solved tile `(i,ℓ)` to
    /// its trailing colrow — row tiles `(i,j)` for `ℓ < j ≤ i` and
    /// column tiles `(j,i)` for `j > i`.
    Cholesky,
}

impl Walk {
    /// Visit every broadcast slot of a `t × t` factorization in schedule
    /// order as `(class, i, j, readers)`: tile `(i,j)` ships at
    /// iteration `min(i,j)` to the owners of the `readers` tiles.
    pub(crate) fn for_each_slot(
        self,
        t: usize,
        mut visit: impl FnMut(BcastClass, usize, usize, &[(usize, usize)]),
    ) {
        let mut readers: Vec<(usize, usize)> = Vec::new();
        for l in 0..t {
            let trailing = (l + 1)..t;
            readers.clear();
            match self {
                Walk::Lu => readers.extend(trailing.clone().flat_map(|i| [(i, l), (l, i)])),
                Walk::Cholesky => readers.extend(trailing.clone().map(|i| (i, l))),
            }
            visit(BcastClass::Panel, l, l, &readers);
            for i in trailing.clone() {
                readers.clear();
                match self {
                    Walk::Lu => readers.extend(trailing.clone().map(|j| (i, j))),
                    Walk::Cholesky => {
                        readers.extend(((l + 1)..=i).map(|j| (i, j)));
                        readers.extend(((i + 1)..t).map(|j| (j, i)));
                    }
                }
                visit(BcastClass::Trailing, i, l, &readers);
            }
            if self == Walk::Lu {
                for j in trailing.clone() {
                    readers.clear();
                    readers.extend(trailing.clone().map(|i| (i, j)));
                    visit(BcastClass::Trailing, l, j, &readers);
                }
            }
        }
    }
}

/// Distinct-receiver collector (stamp vector keyed by node): the
/// distinct nodes of an owner sequence, minus the sender, in
/// first-encounter order.
pub(crate) struct Collector {
    stamp: Vec<u32>,
    current: u32,
}

impl Collector {
    pub(crate) fn new(n_nodes: u32) -> Self {
        Self {
            stamp: vec![0; n_nodes as usize],
            current: 0,
        }
    }

    pub(crate) fn collect(&mut self, sender: u32, owners: impl Iterator<Item = u32>) -> Vec<u32> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::TileAssignment;
    use crate::splice::{spliced_chain, SplicedMsg};
    use flexdist_core::{g2dbc, twodbc, Pattern};

    fn plain(walk: Walk, a: &TileAssignment) -> Vec<SplicedMsg> {
        spliced_chain(walk, std::slice::from_ref(a), &[])
    }

    fn anti_diag() -> TileAssignment {
        let pat = Pattern::from_rows(2, &[vec![Some(0), Some(1)], vec![Some(1), Some(0)]]);
        TileAssignment::cyclic(&pat, 2)
    }

    #[test]
    fn lu_walk_hand_count_2x2() {
        // Mirrors `two_tiles_two_nodes_lu_hand_count` message by message.
        let msgs = plain(Walk::Lu, &anti_diag());
        assert_eq!(msgs.len(), 3);
        assert_eq!(
            msgs[0],
            SplicedMsg {
                class: BcastClass::Panel,
                sender: 0,
                i: 0,
                j: 0,
                epoch: 0,
                receivers: vec![1],
                recovered: vec![false],
            }
        );
        assert_eq!(
            msgs[1],
            SplicedMsg {
                class: BcastClass::Trailing,
                sender: 1,
                i: 1,
                j: 0,
                epoch: 0,
                receivers: vec![0],
                recovered: vec![false],
            }
        );
        assert_eq!(
            msgs[2],
            SplicedMsg {
                class: BcastClass::Trailing,
                sender: 1,
                i: 0,
                j: 1,
                epoch: 0,
                receivers: vec![0],
                recovered: vec![false],
            }
        );
    }

    #[test]
    fn cholesky_walk_hand_count_2x2() {
        let msgs = plain(Walk::Cholesky, &anti_diag());
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].class, BcastClass::Panel);
        assert_eq!((msgs[0].i, msgs[0].j), (0, 0));
        assert_eq!(msgs[1].class, BcastClass::Trailing);
        assert_eq!((msgs[1].i, msgs[1].j), (1, 0));
        assert_eq!(msgs[1].receivers, vec![0]);
    }

    #[test]
    fn receivers_are_distinct_and_never_the_sender() {
        let a = TileAssignment::cyclic(&g2dbc::g2dbc(7), 9);
        for m in plain(Walk::Lu, &a)
            .into_iter()
            .chain(plain(Walk::Cholesky, &a))
        {
            let mut seen = std::collections::HashSet::new();
            for &r in &m.receivers {
                assert_ne!(r, m.sender, "sender in receiver set of {m:?}");
                assert!(seen.insert(r), "duplicate receiver in {m:?}");
            }
            assert!(!m.receivers.is_empty());
            assert_eq!(m.epoch, m.i.min(m.j), "epoch invariant broken: {m:?}");
        }
    }

    #[test]
    fn every_tile_broadcast_at_most_once() {
        // A tile (i,j) leaves its owner exactly once, at epoch min(i,j).
        let a = TileAssignment::cyclic(&twodbc::two_dbc(3, 2), 8);
        let mut seen = std::collections::HashSet::new();
        for m in plain(Walk::Lu, &a) {
            assert!(seen.insert((m.i, m.j)), "tile ({},{}) sent twice", m.i, m.j);
        }
    }
}
