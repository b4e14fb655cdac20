//! Tile-level factorization kernels: Cholesky (POTRF) and no-pivoting LU
//! (GETRF), the diagonal-tile operations of the tiled algorithms. Both
//! are right-looking and blocked: a small unblocked diagonal block, then
//! the triangular solves and the trailing update of `crate::micro`.

// Loops over `i`, `j`, `k` keep the subscripts of the formulas they state.
#![allow(clippy::needless_range_loop)]

use crate::dispatch::{dispatch, Body};
use crate::micro::{full_or_edge, solve_right, update, Strided, MR};

/// Numerical failures surfaced by the factorization kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// POTRF hit a non-positive leading minor at the given index: the tile
    /// (hence the matrix) is not positive definite.
    NotPositiveDefinite {
        /// Index of the failing diagonal entry.
        index: usize,
    },
    /// GETRF (no pivoting) hit an exactly-zero pivot.
    ZeroPivot {
        /// Index of the zero pivot.
        index: usize,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotPositiveDefinite { index } => {
                write!(f, "matrix not positive definite at diagonal index {index}")
            }
            Self::ZeroPivot { index } => write!(f, "zero pivot at index {index}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Width of the diagonal block the blocked factorizations peel off per
/// step: it is factored on its own in a fixed-size array, everything else
/// is a block operation of `crate::micro`.
const BLOCK: usize = 8;

/// One diagonal block, column by column, zero beyond the `bs` rows and
/// columns the tile has left. It is factored in this copy — the panels
/// beside it share its rows or columns in the tile, so their solves read
/// the triangle from here — and then written back.
type Diag = [[f64; BLOCK]; BLOCK];

/// The `BLOCK` elimination steps of a diagonal block, one call per step
/// with the step as a constant: every index into the block is then known
/// at compile time and it stays in registers, where the same steps as a
/// loop go through the stack and wait on store-to-load forwarding (2× the
/// time of an 8 × 8 `getrf`).
macro_rules! every_step {
    ($step:ident($d:expr, $bs:expr)) => {{
        const _: () = assert!(BLOCK == 8);
        $step::<0>($d, $bs)?;
        $step::<1>($d, $bs)?;
        $step::<2>($d, $bs)?;
        $step::<3>($d, $bs)?;
        $step::<4>($d, $bs)?;
        $step::<5>($d, $bs)?;
        $step::<6>($d, $bs)?;
        $step::<7>($d, $bs)
    }};
}

#[inline(always)]
fn load_diag(d: &mut Diag, a: &[f64], ld: usize, bs: usize) {
    if bs < BLOCK {
        *d = [[0.0; BLOCK]; BLOCK];
    }
    full_or_edge!(bs == BLOCK => for j in 0..bs {
        d[j][..bs].copy_from_slice(&a[j * ld..][..bs]);
    });
}

#[inline(always)]
fn store_diag(d: &Diag, a: &mut [f64], ld: usize, bs: usize) {
    full_or_edge!(bs == BLOCK => for j in 0..bs {
        a[j * ld..][..bs].copy_from_slice(&d[j][..bs]);
    });
}

/// In-place Cholesky factorization of the lower triangle: on success the
/// lower triangle of `a` holds `L` with `A = L·Lᵀ`. The strictly upper
/// triangle has no influence on the result and is left as-is.
///
/// Right-looking and blocked, but element `(i, j)` still receives its
/// updates `−l_ik·l_jk` fused and in ascending `k`, so the factor is, bit
/// for bit, the unblocked left-looking one.
///
/// # Errors
/// [`KernelError::NotPositiveDefinite`] if a leading minor is not positive.
///
/// # Panics
/// Panics if `a` does not hold `n·n` elements.
pub fn potrf(a: &mut [f64], n: usize) -> Result<(), KernelError> {
    assert!(
        a.len() == n * n,
        "potrf: the tile must hold n·n elements (col-major)"
    );
    dispatch(Potrf { a, n })
}

struct Potrf<'a> {
    a: &'a mut [f64],
    n: usize,
}

impl Body for Potrf<'_> {
    type Out = Result<(), KernelError>;
    #[inline(always)]
    fn run(self) -> Self::Out {
        let Self { a, n } = self;
        let mut diag = [[0.0; BLOCK]; BLOCK];
        for k0 in (0..n).step_by(BLOCK) {
            let bs = BLOCK.min(n - k0);
            load_diag(&mut diag, &a[k0 + k0 * n..], n, bs);
            potrf_diag(&mut diag, bs)
                .map_err(|index| KernelError::NotPositiveDefinite { index: k0 + index })?;
            store_diag(&diag, &mut a[k0 + k0 * n..], n, bs);
            let (k1, m) = (k0 + bs, n - k0 - bs);
            if m == 0 {
                break;
            }
            // (Lᵀ)[k, j] = L[j, k].
            let lt = Strided::new(diag.as_flattened(), BLOCK, 1);
            // Scratch of the block operations: one packed `MR`-row block.
            let packed = &mut [[0.0; MR]; BLOCK];
            solve_right(&mut a[k1 + k0 * n..], (1, n), m, bs, lt, false, packed);
            let (left, right) = a.split_at_mut(k1 * n);
            let panel = &left[k1 + k0 * n..];
            let panel_t = Strided::new(panel, n, 1);
            let trailing = &mut right[k1..];
            update(trailing, n, m, m, true, panel, n, panel_t, bs, packed);
        }
        Ok(())
    }
}

/// Right-looking Cholesky of the leading `bs × bs` lower triangle of `d`;
/// on failure, the index of the offending diagonal entry.
#[inline(always)]
fn potrf_diag(d: &mut Diag, bs: usize) -> Result<(), usize> {
    every_step!(potrf_step(d, bs))
}

#[inline(always)]
fn potrf_step<const J: usize>(d: &mut Diag, bs: usize) -> Result<(), usize> {
    // By now d[J][J] = A[J,J] - sum_{k<J} L[J,k]^2.
    let djj = d[J][J];
    if J < bs && (djj <= 0.0 || !djj.is_finite()) {
        return Err(J);
    }
    let ljj = djj.sqrt();
    d[J][J] = ljj;
    for i in (J + 1)..BLOCK {
        d[J][i] /= ljj;
    }
    for c in (J + 1)..BLOCK {
        for i in c..BLOCK {
            d[c][i] = (-d[J][i]).mul_add(d[J][c], d[c][i]);
        }
    }
    Ok(())
}

/// In-place LU factorization *without pivoting* (Chameleon's
/// `getrf_nopiv`): on success `a` holds the packed factors — strictly lower
/// triangle is `L` (unit diagonal implicit), upper triangle including the
/// diagonal is `U`.
///
/// Blocked like [`potrf`], with the same guarantee: the bits are those of
/// the unblocked elimination with fused updates in ascending `k`.
///
/// # Errors
/// [`KernelError::ZeroPivot`] if a pivot is exactly zero (the paper's
/// experiments use random matrices, for which this never triggers).
///
/// # Panics
/// Panics if `a` does not hold `n·n` elements.
pub fn getrf_nopiv(a: &mut [f64], n: usize) -> Result<(), KernelError> {
    assert!(
        a.len() == n * n,
        "getrf_nopiv: the tile must hold n·n elements (col-major)"
    );
    dispatch(Getrf { a, n })
}

struct Getrf<'a> {
    a: &'a mut [f64],
    n: usize,
}

impl Body for Getrf<'_> {
    type Out = Result<(), KernelError>;
    #[inline(always)]
    fn run(self) -> Self::Out {
        let Self { a, n } = self;
        let mut diag = [[0.0; BLOCK]; BLOCK];
        let mut row_panel = vec![0.0; BLOCK * n.saturating_sub(BLOCK)];
        for k0 in (0..n).step_by(BLOCK) {
            let bs = BLOCK.min(n - k0);
            load_diag(&mut diag, &a[k0 + k0 * n..], n, bs);
            getrf_diag(&mut diag, bs)
                .map_err(|index| KernelError::ZeroPivot { index: k0 + index })?;
            store_diag(&diag, &mut a[k0 + k0 * n..], n, bs);
            let (k1, m) = (k0 + bs, n - k0 - bs);
            if m == 0 {
                break;
            }
            let u = Strided::new(diag.as_flattened(), 1, BLOCK);
            // Scratch of the block operations: one packed `MR`-row block.
            let packed = &mut [[0.0; MR]; BLOCK];
            solve_right(&mut a[k1 + k0 * n..], (1, n), m, bs, u, false, packed);
            let (left, right) = a.split_at_mut(k1 * n);
            // L·X = B as Xᵀ·Lᵀ = Bᵀ.
            let lt = Strided::new(diag.as_flattened(), BLOCK, 1);
            solve_right(&mut right[k0..], (n, 1), m, bs, lt, true, packed);
            // The trailing block shares its columns with the row panel
            // just solved, so that operand is read from a copy too.
            for (dst, src) in row_panel.chunks_mut(BLOCK).zip(right[k0..].chunks(n)) {
                dst[..bs].copy_from_slice(&src[..bs]);
            }
            let rows = Strided::new(&row_panel, 1, BLOCK);
            let col_panel = &left[k1 + k0 * n..];
            let trailing = &mut right[k1..];
            update(trailing, n, m, m, false, col_panel, n, rows, bs, packed);
        }
        Ok(())
    }
}

/// Right-looking elimination of the leading `bs × bs` block of `d`; on
/// failure, the index of the offending pivot.
#[inline(always)]
fn getrf_diag(d: &mut Diag, bs: usize) -> Result<(), usize> {
    every_step!(getrf_step(d, bs))
}

#[inline(always)]
fn getrf_step<const K: usize>(d: &mut Diag, bs: usize) -> Result<(), usize> {
    let pivot = d[K][K];
    if K < bs && (pivot == 0.0 || !pivot.is_finite()) {
        return Err(K);
    }
    // Scale the column below the pivot.
    for i in (K + 1)..BLOCK {
        d[K][i] /= pivot;
    }
    // Rank-1 update of the trailing block.
    for j in (K + 1)..BLOCK {
        for i in (K + 1)..BLOCK {
            d[j][i] = (-d[K][i]).mul_add(d[j][K], d[j][i]);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::gemm_nn;
    use crate::contract::{assert_same_bits, sizes};
    use crate::dispatch::portable;
    use crate::tile::Tile;

    /// Diagonally dominant symmetric tile: guaranteed SPD.
    fn spd_tile(n: usize, seed: u64) -> Tile {
        let r = Tile::random(n, seed);
        Tile::from_fn(n, |i, j| {
            let sym = 0.5 * (r.get(i, j) + r.get(j, i));
            if i == j {
                sym + n as f64 + 1.0
            } else {
                sym
            }
        })
    }

    #[test]
    fn potrf_reconstructs() {
        let n = 12;
        let a0 = spd_tile(n, 21);
        let mut a = a0.clone();
        potrf(a.as_mut_slice(), n).unwrap();
        let mut l = a.clone();
        l.keep_lower();
        // R = L * L^T - A0 must be ~0 (lower triangle suffices by symmetry).
        let lt = l.transposed();
        let mut rec = Tile::zeros(n);
        gemm_nn(1.0, l.as_slice(), lt.as_slice(), 0.0, rec.as_mut_slice(), n);
        for j in 0..n {
            for i in 0..n {
                assert!(
                    (rec.get(i, j) - a0.get(i, j)).abs() < 1e-10,
                    "({i},{j}): {} vs {}",
                    rec.get(i, j),
                    a0.get(i, j)
                );
            }
        }
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let n = 4;
        let mut a = Tile::identity(n);
        a.set(2, 2, -1.0);
        assert_eq!(
            potrf(a.as_mut_slice(), n),
            Err(KernelError::NotPositiveDefinite { index: 2 })
        );
    }

    #[test]
    fn getrf_reconstructs() {
        let n = 10;
        // Diagonally dominant -> no pivoting needed, well conditioned.
        let r = Tile::random(n, 33);
        let a0 = Tile::from_fn(n, |i, j| {
            if i == j {
                r.get(i, j) + n as f64 + 1.0
            } else {
                r.get(i, j)
            }
        });
        let mut a = a0.clone();
        getrf_nopiv(a.as_mut_slice(), n).unwrap();
        let l = a.unit_lower();
        let mut u = a.clone();
        u.keep_upper();
        let mut rec = Tile::zeros(n);
        gemm_nn(1.0, l.as_slice(), u.as_slice(), 0.0, rec.as_mut_slice(), n);
        for j in 0..n {
            for i in 0..n {
                assert!((rec.get(i, j) - a0.get(i, j)).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn getrf_detects_zero_pivot() {
        let n = 3;
        let a0 = Tile::zeros(n);
        let mut a = a0;
        assert_eq!(
            getrf_nopiv(a.as_mut_slice(), n),
            Err(KernelError::ZeroPivot { index: 0 })
        );
    }

    // The arithmetic contract (see `crate::micro`): the blocked kernels
    // equal, bit for bit and error for error, the unblocked loops with
    // fused updates — through `dispatch` and on the portable arm alike.

    fn potrf_reference(a: &mut [f64], n: usize) -> Result<(), KernelError> {
        for j in 0..n {
            let mut d = a[j + j * n];
            for k in 0..j {
                d = (-a[j + k * n]).mul_add(a[j + k * n], d);
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(KernelError::NotPositiveDefinite { index: j });
            }
            a[j + j * n] = d.sqrt();
            for i in (j + 1)..n {
                let mut s = a[i + j * n];
                for k in 0..j {
                    s = (-a[i + k * n]).mul_add(a[j + k * n], s);
                }
                a[i + j * n] = s / a[j + j * n];
            }
        }
        Ok(())
    }

    fn getrf_reference(a: &mut [f64], n: usize) -> Result<(), KernelError> {
        for k in 0..n {
            let pivot = a[k + k * n];
            if pivot == 0.0 || !pivot.is_finite() {
                return Err(KernelError::ZeroPivot { index: k });
            }
            for i in (k + 1)..n {
                a[i + k * n] /= pivot;
            }
            for j in (k + 1)..n {
                for i in (k + 1)..n {
                    a[i + j * n] = (-a[i + k * n]).mul_add(a[k + j * n], a[i + j * n]);
                }
            }
        }
        Ok(())
    }

    /// Both kernels on both arms against their references: same verdict,
    /// and on success the same bits.
    fn check_factorizations(n: usize, a0: &Tile) {
        type Kernel = fn(&mut [f64], usize) -> Result<(), KernelError>;
        let cases: [(&str, Kernel, [Kernel; 2]); 2] = [
            (
                "potrf",
                potrf_reference,
                [potrf, |a, n| portable(Potrf { a, n })],
            ),
            (
                "getrf_nopiv",
                getrf_reference,
                [getrf_nopiv, |a, n| portable(Getrf { a, n })],
            ),
        ];
        for (name, reference, arms) in cases {
            let mut want = a0.clone();
            let verdict = reference(want.as_mut_slice(), n);
            for arm in arms {
                let mut got = a0.clone();
                assert_eq!(arm(got.as_mut_slice(), n), verdict, "{name}, n = {n}");
                if verdict.is_ok() {
                    assert_same_bits(name, n, got.as_slice(), want.as_slice());
                }
            }
        }
    }

    #[test]
    fn factorizations_equal_their_fused_chains_bit_for_bit() {
        for n in sizes() {
            check_factorizations(n, &spd_tile(n, 40 + n as u64));
        }
    }

    #[test]
    fn a_failure_inside_a_block_keeps_its_index() {
        // Rows 12 and 13 coincide, so elimination reaches an exact zero at
        // index 13: past the first block, in the middle of the second.
        let n = 20;
        let mut a = Tile::identity(n);
        for (i, j) in [(12, 13), (13, 12)] {
            a.set(i, j, 1.0);
        }
        assert_eq!(
            potrf(a.clone().as_mut_slice(), n),
            Err(KernelError::NotPositiveDefinite { index: 13 })
        );
        assert_eq!(
            getrf_nopiv(a.clone().as_mut_slice(), n),
            Err(KernelError::ZeroPivot { index: 13 })
        );
        check_factorizations(n, &a);
        // A non-finite diagonal entry counts as a failure at its index too.
        for index in [0, 7, 8, 19] {
            let mut a = spd_tile(n, 3);
            a.set(index, index, f64::NAN);
            assert_eq!(
                getrf_nopiv(a.clone().as_mut_slice(), n),
                Err(KernelError::ZeroPivot { index })
            );
            check_factorizations(n, &a);
        }
    }

    #[test]
    fn errors_display() {
        assert!(KernelError::NotPositiveDefinite { index: 3 }
            .to_string()
            .contains('3'));
        assert!(KernelError::ZeroPivot { index: 1 }
            .to_string()
            .contains('1'));
    }
}
