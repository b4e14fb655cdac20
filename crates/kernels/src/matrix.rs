//! Tiled square matrices: `t × t` tiles of size `nb × nb` each, with
//! generators and residual checks used to validate the distributed
//! factorizations end to end.

use crate::blas::gemm_nn;
use crate::tile::Tile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A dense `(t·nb) × (t·nb)` matrix stored as a row-major grid of
/// column-major tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledMatrix {
    t: usize,
    nb: usize,
    tiles: Vec<Tile>,
}

impl TiledMatrix {
    /// Zero matrix with `t × t` tiles of size `nb`.
    ///
    /// # Panics
    /// Panics if `t == 0` or `nb == 0`.
    #[must_use]
    pub fn zeros(t: usize, nb: usize) -> Self {
        assert!(t > 0 && nb > 0);
        Self {
            t,
            nb,
            tiles: vec![Tile::zeros(nb); t * t],
        }
    }

    /// Random matrix with i.i.d. uniform entries in `[-1, 1]`, made
    /// diagonally dominant (adding `m = t·nb` to the diagonal) so that LU
    /// without pivoting is stable — the setting of the paper's experiments
    /// ("randomly generated matrices").
    #[must_use]
    pub fn random_diag_dominant(t: usize, nb: usize, seed: u64) -> Self {
        let mut m = Self::random_uniform(t, nb, seed);
        let shift = (t * nb) as f64;
        for d in 0..t {
            let tile = &mut m.tiles[d * t + d];
            for i in 0..nb {
                let v = tile.get(i, i) + shift;
                tile.set(i, i, v);
            }
        }
        m
    }

    /// Random symmetric positive-definite matrix: symmetrized uniform
    /// entries plus a diagonal shift of `m = t·nb` (diagonally dominant
    /// symmetric ⇒ SPD).
    #[must_use]
    pub fn random_spd(t: usize, nb: usize, seed: u64) -> Self {
        let r = Self::random_uniform(t, nb, seed);
        let shift = (t * nb) as f64;
        // Tile (I, J) of the symmetric part is built from tile (I, J) and
        // the transpose of tile (J, I).
        let tiles = (0..t * t)
            .map(|at| {
                let (ti, tj) = (at / t, at % t);
                let (here, mirror) = (r.tile(ti, tj).as_slice(), r.tile(tj, ti).as_slice());
                Tile::from_fn(nb, |i, j| {
                    let sym = 0.5 * (here[i + j * nb] + mirror[j + i * nb]);
                    if ti == tj && i == j {
                        sym + shift
                    } else {
                        sym
                    }
                })
            })
            .collect();
        Self { t, nb, tiles }
    }

    /// Plain uniform random matrix (no conditioning fix-up).
    #[must_use]
    pub fn random_uniform(t: usize, nb: usize, seed: u64) -> Self {
        assert!(t > 0 && nb > 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let tiles = (0..t * t)
            .map(|_| {
                let mut tile = Tile::zeros(nb);
                for v in tile.as_mut_slice() {
                    *v = rng.gen_range(-1.0..=1.0);
                }
                tile
            })
            .collect();
        Self { t, nb, tiles }
    }

    /// Tiles per dimension.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.t
    }

    /// Tile size.
    #[must_use]
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Global matrix dimension `t·nb`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.t * self.nb
    }

    /// Borrow tile `(i, j)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[must_use]
    pub fn tile(&self, i: usize, j: usize) -> &Tile {
        assert!(i < self.t && j < self.t);
        &self.tiles[i * self.t + j]
    }

    /// Mutably borrow tile `(i, j)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut Tile {
        assert!(i < self.t && j < self.t);
        &mut self.tiles[i * self.t + j]
    }

    /// Mutably borrow two *distinct* tiles at once.
    ///
    /// # Panics
    /// Panics if the positions coincide or are out of bounds.
    pub fn two_tiles_mut(
        &mut self,
        a: (usize, usize),
        b: (usize, usize),
    ) -> (&mut Tile, &mut Tile) {
        let ia = a.0 * self.t + a.1;
        let ib = b.0 * self.t + b.1;
        assert!(ia != ib, "tiles must be distinct");
        assert!(a.0 < self.t && a.1 < self.t && b.0 < self.t && b.1 < self.t);
        if ia < ib {
            let (l, r) = self.tiles.split_at_mut(ib);
            (&mut l[ia], &mut r[0])
        } else {
            let (l, r) = self.tiles.split_at_mut(ia);
            (&mut r[0], &mut l[ib])
        }
    }

    /// Global element `(gi, gj)`.
    #[must_use]
    pub fn get_element(&self, gi: usize, gj: usize) -> f64 {
        self.tile(gi / self.nb, gj / self.nb)
            .get(gi % self.nb, gj % self.nb)
    }

    /// Set global element `(gi, gj)`.
    pub fn set_element(&mut self, gi: usize, gj: usize, v: f64) {
        let nb = self.nb;
        self.tile_mut(gi / nb, gj / nb).set(gi % nb, gj % nb, v);
    }

    /// Frobenius norm of the whole matrix.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.tiles
            .iter()
            .map(|t| {
                let f = t.frobenius_norm();
                f * f
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Mirror the lower triangle onto the upper one (tile-wise transpose),
    /// turning a lower-triangular tile layout into a full symmetric matrix.
    pub fn symmetrize_from_lower(&mut self) {
        for i in 0..self.t {
            for j in (i + 1)..self.t {
                self.tiles[i * self.t + j] = self.tiles[j * self.t + i].transposed();
            }
        }
        for d in 0..self.t {
            let tile = &mut self.tiles[d * self.t + d];
            let nb = self.nb;
            for j in 0..nb {
                for i in 0..j {
                    let v = tile.get(j, i);
                    tile.set(i, j, v);
                }
            }
        }
    }

    /// Tiled product `self · other` (reference implementation for residual
    /// checks; `O(t³)` tile GEMMs).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn multiply(&self, other: &Self) -> Self {
        assert_eq!(self.t, other.t);
        assert_eq!(self.nb, other.nb);
        let mut out = Self::zeros(self.t, self.nb);
        for i in 0..self.t {
            for j in 0..self.t {
                let acc = &mut out.tiles[i * self.t + j];
                for k in 0..self.t {
                    gemm_nn(
                        1.0,
                        self.tiles[i * self.t + k].as_slice(),
                        other.tiles[k * self.t + j].as_slice(),
                        1.0,
                        acc.as_mut_slice(),
                        self.nb,
                    );
                }
            }
        }
        out
    }

    /// Frobenius norm of `self − other`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn diff_norm(&self, other: &Self) -> f64 {
        assert_eq!(self.t, other.t);
        assert_eq!(self.nb, other.nb);
        let mut acc = 0.0;
        for (a, b) in self.tiles.iter().zip(&other.tiles) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                let d = x - y;
                acc += d * d;
            }
        }
        acc.sqrt()
    }

    /// Extract the tile-wise lower factor `L` from a completed tiled
    /// Cholesky: diagonal tiles keep their lower triangle, tiles above the
    /// diagonal are zeroed.
    #[must_use]
    pub fn extract_cholesky_l(&self) -> Self {
        let mut l = self.clone();
        for i in 0..self.t {
            for j in 0..self.t {
                match i.cmp(&j) {
                    std::cmp::Ordering::Less => {
                        l.tiles[i * self.t + j] = Tile::zeros(self.nb);
                    }
                    std::cmp::Ordering::Equal => l.tiles[i * self.t + j].keep_lower(),
                    std::cmp::Ordering::Greater => {}
                }
            }
        }
        l
    }

    /// Extract the `(L, U)` factors from a completed tiled in-place LU:
    /// `L` is unit-lower (tile diagonal gets the unit-lower part), `U`
    /// upper.
    #[must_use]
    pub fn extract_lu(&self) -> (Self, Self) {
        let mut l = Self::zeros(self.t, self.nb);
        let mut u = Self::zeros(self.t, self.nb);
        for i in 0..self.t {
            for j in 0..self.t {
                let src = &self.tiles[i * self.t + j];
                match i.cmp(&j) {
                    std::cmp::Ordering::Greater => l.tiles[i * self.t + j] = src.clone(),
                    std::cmp::Ordering::Less => u.tiles[i * self.t + j] = src.clone(),
                    std::cmp::Ordering::Equal => {
                        l.tiles[i * self.t + j] = src.unit_lower();
                        let mut up = src.clone();
                        up.keep_upper();
                        u.tiles[i * self.t + j] = up;
                    }
                }
            }
        }
        (l, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_and_tile_addressing_agree() {
        let m = TiledMatrix::random_uniform(3, 4, 5);
        assert_eq!(m.dim(), 12);
        assert_eq!(m.get_element(5, 10), m.tile(1, 2).get(1, 2));
    }

    #[test]
    fn spd_matrix_is_symmetric_and_dominant() {
        let m = TiledMatrix::random_spd(3, 4, 9);
        let n = m.dim();
        for i in 0..n {
            let mut off = 0.0;
            for j in 0..n {
                assert!((m.get_element(i, j) - m.get_element(j, i)).abs() < 1e-14);
                if i != j {
                    off += m.get_element(i, j).abs();
                }
            }
            assert!(m.get_element(i, i) > off, "row {i} not dominant");
        }
    }

    #[test]
    fn spd_matrix_keeps_its_elementwise_definition() {
        // Bit for bit, so that no seed-dependent fixture moves.
        for (t, nb) in [(3, 5), (2, 8)] {
            let r = TiledMatrix::random_uniform(t, nb, 9);
            let m = TiledMatrix::random_spd(t, nb, 9);
            let n = t * nb;
            for gi in 0..n {
                for gj in 0..n {
                    let sym = 0.5 * (r.get_element(gi, gj) + r.get_element(gj, gi));
                    let want = if gi == gj { sym + n as f64 } else { sym };
                    assert_eq!(m.get_element(gi, gj).to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn multiply_by_identity() {
        let t = 2;
        let nb = 3;
        let m = TiledMatrix::random_uniform(t, nb, 4);
        let mut id = TiledMatrix::zeros(t, nb);
        for d in 0..t {
            *id.tile_mut(d, d) = Tile::identity(nb);
        }
        let prod = m.multiply(&id);
        assert!(m.diff_norm(&prod) < 1e-13);
    }

    #[test]
    fn two_tiles_mut_disjoint() {
        let mut m = TiledMatrix::zeros(2, 2);
        let (a, b) = m.two_tiles_mut((0, 0), (1, 1));
        a.set(0, 0, 1.0);
        b.set(1, 1, 2.0);
        assert_eq!(m.tile(0, 0).get(0, 0), 1.0);
        assert_eq!(m.tile(1, 1).get(1, 1), 2.0);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn two_tiles_mut_rejects_same_tile() {
        let mut m = TiledMatrix::zeros(2, 2);
        let _ = m.two_tiles_mut((0, 1), (0, 1));
    }

    #[test]
    fn symmetrize_mirrors_lower() {
        let mut m = TiledMatrix::random_uniform(3, 2, 6);
        m.symmetrize_from_lower();
        let n = m.dim();
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (m.get_element(i, j) - m.get_element(j, i)).abs() < 1e-14,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn frobenius_matches_elementwise() {
        let m = TiledMatrix::random_uniform(2, 3, 8);
        let mut acc = 0.0;
        for i in 0..m.dim() {
            for j in 0..m.dim() {
                acc += m.get_element(i, j).powi(2);
            }
        }
        assert!((m.frobenius_norm() - acc.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn diag_dominant_has_big_diagonal() {
        let m = TiledMatrix::random_diag_dominant(2, 4, 3);
        for d in 0..m.dim() {
            assert!(m.get_element(d, d) > 6.0);
        }
    }
}
