//! Mapping matrix tiles to nodes by cyclic pattern replication.

use flexdist_core::{NodeId, Pattern};

/// Owner map of a `t × t` tiled matrix: `owner(i, j)` is the node that
/// stores tile `(i, j)` and, under the owner-computes rule, performs every
/// task writing it.
///
/// Built from a [`Pattern`] by cyclic replication (`tile (i,j) → cell
/// (i mod r, j mod c)`). Patterns with undefined diagonal cells use the
/// *extended* assignment of paper §V: every tile landing on an undefined
/// cell is placed greedily on the least-loaded node among those already
/// present on the corresponding pattern colrow, so different replicas of
/// the same pattern cell may end up on different nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileAssignment {
    t: usize,
    n_nodes: u32,
    owners: Vec<NodeId>,
}

impl TileAssignment {
    /// Replicate a fully-defined pattern over a `t × t` tile grid.
    ///
    /// ```
    /// use flexdist_core::twodbc;
    /// use flexdist_dist::TileAssignment;
    ///
    /// let a = TileAssignment::cyclic(&twodbc::two_dbc(2, 3), 12);
    /// assert_eq!(a.owner(0, 0), 0);
    /// assert_eq!(a.owner(2, 3), 0); // wraps every 2 rows / 3 columns
    /// ```
    ///
    /// # Panics
    /// Panics if `t == 0` or if the pattern has undefined cells (use
    /// [`TileAssignment::extended`] for those).
    #[must_use]
    pub fn cyclic(pattern: &Pattern, t: usize) -> Self {
        assert!(t > 0, "matrix must have at least one tile");
        assert!(
            pattern.is_fully_defined(),
            "pattern has undefined cells; use TileAssignment::extended"
        );
        let mut owners = Vec::with_capacity(t * t);
        for i in 0..t {
            for j in 0..t {
                owners.push(pattern.tile_owner(i, j).expect("fully defined"));
            }
        }
        Self {
            t,
            n_nodes: pattern.n_nodes(),
            owners,
        }
    }

    /// Replicate a square pattern whose diagonal cells may be undefined
    /// (extended SBC / GCR&M). Tiles `(i, j)` with `i ≡ j (mod r)` map to a
    /// diagonal pattern cell; when that cell is undefined the tile is
    /// assigned to the least-loaded node among the nodes of pattern colrow
    /// `i mod r` (load counted over the lower triangle, since symmetric
    /// factorizations only store that half). The upper triangle mirrors the
    /// lower one so the full map stays symmetric.
    ///
    /// Fully-defined patterns pass through unchanged (identical to
    /// [`TileAssignment::cyclic`]).
    ///
    /// # Panics
    /// Panics if `t == 0`, the pattern is not square, or an undefined cell
    /// lies off the pattern diagonal.
    #[must_use]
    pub fn extended(pattern: &Pattern, t: usize) -> Self {
        assert!(t > 0, "matrix must have at least one tile");
        if pattern.is_fully_defined() {
            return Self::cyclic(pattern, t);
        }
        assert!(
            pattern.is_square(),
            "undefined cells are only supported in square patterns"
        );
        let r = pattern.rows();
        let n = pattern.n_nodes();
        // Node sets per pattern colrow, precomputed once.
        let colrow_nodes: Vec<Vec<NodeId>> = (0..r).map(|i| pattern.colrow_nodes(i)).collect();

        let mut owners = vec![NodeId::MAX; t * t];
        let mut loads = vec![0usize; n as usize];

        // First pass: defined cells of the lower triangle (i >= j).
        for i in 0..t {
            for j in 0..=i {
                if let Some(node) = pattern.tile_owner(i, j) {
                    owners[i * t + j] = node;
                    loads[node as usize] += 1;
                }
            }
        }
        // Second pass: undefined cells, greedily balanced. Row-major order
        // over the lower triangle, matching the paper's "successively
        // assigning undefined tiles to the least loaded node among those
        // present in the colrow".
        for i in 0..t {
            for j in 0..=i {
                if owners[i * t + j] == NodeId::MAX {
                    let cr = i % r;
                    debug_assert_eq!(cr, j % r, "undefined cells are diagonal");
                    let candidates = &colrow_nodes[cr];
                    assert!(
                        !candidates.is_empty(),
                        "pattern colrow {cr} has no defined node"
                    );
                    let node = *candidates
                        .iter()
                        .min_by_key(|&&c| loads[c as usize])
                        .expect("non-empty candidates");
                    owners[i * t + j] = node;
                    loads[node as usize] += 1;
                }
            }
        }
        // Mirror to the upper triangle.
        for i in 0..t {
            for j in (i + 1)..t {
                owners[i * t + j] = owners[j * t + i];
            }
        }
        Self {
            t,
            n_nodes: n,
            owners,
        }
    }

    /// Build an assignment from an arbitrary owner function (for owner
    /// maps that are not pattern-replications, such as the recovery
    /// tests' maps that leave one node nearly idle).
    ///
    /// # Panics
    /// Panics if `t == 0`, `n_nodes == 0`, or the function returns an id
    /// `>= n_nodes`.
    #[must_use]
    pub fn from_owner_fn(
        t: usize,
        n_nodes: u32,
        mut owner: impl FnMut(usize, usize) -> NodeId,
    ) -> Self {
        assert!(t > 0, "matrix must have at least one tile");
        assert!(n_nodes > 0, "need at least one node");
        let mut owners = Vec::with_capacity(t * t);
        for i in 0..t {
            for j in 0..t {
                let o = owner(i, j);
                assert!(o < n_nodes, "owner {o} out of range ({n_nodes})");
                owners.push(o);
            }
        }
        Self { t, n_nodes, owners }
    }

    /// Minimal-movement greedy re-map after the death of node `dead`:
    /// every tile the dead node owned is reassigned, in row-major order,
    /// to the currently least-loaded surviving node (load counted over
    /// the full square, ties to the lowest node id). All other tiles
    /// keep their owner, so no surviving data moves — the defining
    /// property that makes a P→P−1 re-map cheap for the any-P patterns
    /// where a fixed `r × c` grid would have to re-deal everything.
    ///
    /// The ranks in `also_dead` (earlier casualties of a cascade, who
    /// own zero tiles and would otherwise win every least-loaded
    /// tiebreak) are barred from inheriting; a first crash passes `&[]`,
    /// and k-fold composition is
    /// `a.remap_excluding(d1, &[]).remap_excluding(d2, &[d1])…`.
    ///
    /// The node count stays `n_nodes` (the dead node simply owns zero
    /// tiles), so rank ids of survivors are stable across the re-map.
    ///
    /// # Panics
    /// Panics if `dead >= n_nodes`, `dead` is listed in `also_dead`, or
    /// no live survivor remains outside `{dead} ∪ also_dead`.
    #[must_use]
    pub fn remap_excluding(&self, dead: NodeId, also_dead: &[NodeId]) -> Self {
        assert!(dead < self.n_nodes, "dead node {dead} out of range");
        assert!(
            !also_dead.contains(&dead),
            "rank {dead} is already listed dead"
        );
        let live = |n: NodeId| n != dead && !also_dead.contains(&n);
        assert!(
            (0..self.n_nodes).any(live),
            "no survivor to re-map onto after excluding {also_dead:?} and {dead}"
        );
        let mut loads = vec![0usize; self.n_nodes as usize];
        for &o in &self.owners {
            loads[o as usize] += 1;
        }
        let mut owners = self.owners.clone();
        for slot in &mut owners {
            if *slot != dead {
                continue;
            }
            let mut heir = NodeId::MAX;
            for n in 0..self.n_nodes {
                if live(n) && (heir == NodeId::MAX || loads[n as usize] < loads[heir as usize]) {
                    heir = n;
                }
            }
            *slot = heir;
            loads[heir as usize] += 1;
        }
        Self {
            t: self.t,
            n_nodes: self.n_nodes,
            owners,
        }
    }

    /// Number of tiles per matrix dimension.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.t
    }

    /// Number of nodes.
    #[must_use]
    pub fn n_nodes(&self) -> u32 {
        self.n_nodes
    }

    /// Owner of tile `(i, j)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[must_use]
    pub fn owner(&self, i: usize, j: usize) -> NodeId {
        assert!(i < self.t && j < self.t, "tile ({i},{j}) out of bounds");
        self.owners[i * self.t + j]
    }

    /// Tiles owned by each node over the full square.
    #[must_use]
    pub fn tile_counts_full(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_nodes as usize];
        for &o in &self.owners {
            counts[o as usize] += 1;
        }
        counts
    }

    /// Tiles owned by each node over the lower triangle (`i >= j`), the
    /// relevant measure for symmetric factorizations.
    #[must_use]
    pub fn tile_counts_lower(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_nodes as usize];
        for i in 0..self.t {
            for j in 0..=i {
                counts[self.owners[i * self.t + j] as usize] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexdist_core::{g2dbc, gcrm, sbc, twodbc};

    #[test]
    fn cyclic_replication_wraps() {
        let pat = twodbc::two_dbc(2, 3);
        let a = TileAssignment::cyclic(&pat, 7);
        assert_eq!(a.owner(0, 0), 0);
        assert_eq!(a.owner(2, 3), 0);
        assert_eq!(a.owner(3, 5), 5);
        assert_eq!(a.owner(6, 6), a.owner(0, 0));
    }

    #[test]
    fn cyclic_full_counts_are_balanced_on_multiples() {
        let pat = twodbc::two_dbc(4, 4);
        let a = TileAssignment::cyclic(&pat, 16);
        let counts = a.tile_counts_full();
        assert!(counts.iter().all(|&c| c == 16), "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn cyclic_rejects_undefined_patterns() {
        let pat = sbc::sbc_extended(21).unwrap();
        let _ = TileAssignment::cyclic(&pat, 10);
    }

    #[test]
    fn extended_fills_diagonal_cells_from_colrow() {
        let pat = sbc::sbc_extended(21).unwrap(); // 7x7, diagonal undefined
        let t = 35;
        let a = TileAssignment::extended(&pat, t);
        for i in 0..t {
            for j in 0..t {
                let o = a.owner(i, j);
                assert!(o < 21, "tile ({i},{j}) unassigned");
                if i % 7 == j % 7 {
                    // Tile maps to a diagonal pattern cell: its owner must
                    // come from the pattern colrow (the invariant that keeps
                    // the communication cost unchanged, paper §V).
                    let cr = pat.colrow_nodes(i % 7);
                    assert!(cr.contains(&o), "tile ({i},{j}) owner {o} not on colrow");
                }
            }
        }
    }

    #[test]
    fn extended_is_symmetric() {
        let pat = sbc::sbc_extended(28).unwrap();
        let a = TileAssignment::extended(&pat, 23);
        for i in 0..23 {
            for j in 0..23 {
                assert_eq!(a.owner(i, j), a.owner(j, i));
            }
        }
    }

    #[test]
    fn extended_balances_diagonal_load() {
        // With many replicas, the greedy diagonal placement keeps the lower
        // triangle load spread tight: max/min close to 1.
        let pat = sbc::sbc_extended(21).unwrap();
        let t = 70; // 10 pattern replicas per dimension
        let a = TileAssignment::extended(&pat, t);
        let counts = a.tile_counts_lower();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        // Lower triangle has t(t+1)/2 = 2485 tiles over 21 nodes ~ 118 each.
        assert!(
            max - min <= 12,
            "diagonal balancing too loose: {min}..{max} ({counts:?})"
        );
    }

    #[test]
    fn extended_on_defined_pattern_equals_cyclic() {
        let pat = g2dbc::g2dbc(10);
        let a = TileAssignment::extended(&pat, 12);
        let b = TileAssignment::cyclic(&pat, 12);
        assert_eq!(a, b);
    }

    #[test]
    fn extended_works_for_gcrm_patterns() {
        let pat = gcrm::run_once(13, 12, 7, gcrm::LoadMetric::Colrows).unwrap();
        let a = TileAssignment::extended(&pat, 30);
        let counts = a.tile_counts_lower();
        assert_eq!(counts.iter().sum::<usize>(), 30 * 31 / 2);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn owner_bounds_checked() {
        let pat = twodbc::two_dbc(2, 2);
        let a = TileAssignment::cyclic(&pat, 4);
        let _ = a.owner(4, 0);
    }

    #[test]
    fn remap_moves_only_the_dead_tiles() {
        let pat = g2dbc::g2dbc(5);
        let a = TileAssignment::cyclic(&pat, 9);
        for dead in 0..5 {
            let b = a.remap_excluding(dead, &[]);
            assert_eq!(b.tiles(), a.tiles());
            assert_eq!(b.n_nodes(), a.n_nodes());
            for i in 0..9 {
                for j in 0..9 {
                    let (o, n) = (a.owner(i, j), b.owner(i, j));
                    assert_ne!(n, dead, "tile ({i},{j}) still on dead node");
                    if o != dead {
                        assert_eq!(o, n, "surviving tile ({i},{j}) moved");
                    }
                }
            }
        }
    }

    #[test]
    fn remap_keeps_full_square_loads_balanced() {
        let pat = g2dbc::g2dbc(7);
        let a = TileAssignment::cyclic(&pat, 14);
        let b = a.remap_excluding(3, &[]);
        let counts = b.tile_counts_full();
        assert_eq!(counts[3], 0);
        let live: Vec<usize> = counts
            .iter()
            .enumerate()
            .filter(|&(n, _)| n != 3)
            .map(|(_, &c)| c)
            .collect();
        let (max, min) = (live.iter().max().unwrap(), live.iter().min().unwrap());
        // 196 tiles over 6 survivors ~ 32.7 each; greedy refill stays tight.
        assert!(max - min <= 2, "re-map unbalanced: {counts:?}");
    }

    #[test]
    fn remap_is_deterministic() {
        let pat = sbc::sbc_extended(21).unwrap();
        let a = TileAssignment::extended(&pat, 12);
        assert_eq!(a.remap_excluding(20, &[]), a.remap_excluding(20, &[]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remap_rejects_unknown_node() {
        let a = TileAssignment::cyclic(&twodbc::two_dbc(2, 2), 4);
        let _ = a.remap_excluding(4, &[]);
    }

    #[test]
    #[should_panic(expected = "no survivor")]
    fn remap_rejects_single_node() {
        let a = TileAssignment::cyclic(&twodbc::two_dbc(1, 1), 4);
        let _ = a.remap_excluding(0, &[]);
    }
}
