//! Level-3 BLAS-like kernels on square column-major `f64` tiles.
//!
//! Only the variants actually used by tiled LU, Cholesky and SYRK are
//! provided, each as a dedicated function (the tiled algorithms never need
//! runtime dispatch on side/uplo/trans). Loop orders are chosen for
//! column-major unit-stride inner loops.

/// `C ← α·A·B + β·C`, all square `n × n`, column-major.
///
/// The LU trailing update uses `gemm_nn(-1, L_il, U_lj, 1, A_ij)`.
///
/// # Panics
/// Panics (debug) if slice lengths don't match `n·n`.
pub fn gemm_nn(alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    debug_assert_eq!(c.len(), n * n);
    // jik order with an explicit k-inner accumulation buffered per column:
    // for column-major data, run k outer / i inner so both A and C stream.
    for j in 0..n {
        let cj = &mut c[j * n..(j + 1) * n];
        if beta != 1.0 {
            for v in cj.iter_mut() {
                *v *= beta;
            }
        }
        for k in 0..n {
            let bkj = alpha * b[k + j * n];
            if bkj == 0.0 {
                continue;
            }
            let ak = &a[k * n..(k + 1) * n];
            for i in 0..n {
                cj[i] += bkj * ak[i];
            }
        }
    }
}

/// `C ← α·A·Bᵀ + β·C`, all square `n × n`, column-major.
///
/// The Cholesky trailing update uses `gemm_nt(-1, A_il, A_jl, 1, A_ij)`.
pub fn gemm_nt(alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    debug_assert_eq!(c.len(), n * n);
    for j in 0..n {
        let cj = &mut c[j * n..(j + 1) * n];
        if beta != 1.0 {
            for v in cj.iter_mut() {
                *v *= beta;
            }
        }
        for k in 0..n {
            // (B^T)[k, j] = B[j, k].
            let bkj = alpha * b[j + k * n];
            if bkj == 0.0 {
                continue;
            }
            let ak = &a[k * n..(k + 1) * n];
            for i in 0..n {
                cj[i] += bkj * ak[i];
            }
        }
    }
}

/// `C ← α·A·Aᵀ + β·C`, updating the **lower** triangle of `C` only
/// (the strictly upper triangle is left untouched).
///
/// The Cholesky diagonal update uses `syrk_ln(-1, A_il, 1, A_ii)`.
pub fn syrk_ln(alpha: f64, a: &[f64], beta: f64, c: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(c.len(), n * n);
    for j in 0..n {
        if beta != 1.0 {
            for i in j..n {
                c[i + j * n] *= beta;
            }
        }
        for k in 0..n {
            let ajk = alpha * a[j + k * n];
            if ajk == 0.0 {
                continue;
            }
            for i in j..n {
                c[i + j * n] += ajk * a[i + k * n];
            }
        }
    }
}

/// `B ← B · U⁻¹` with `U` the upper triangle (non-unit diagonal) of `a`.
///
/// LU column panel: `A_il ← A_il · U_ll⁻¹`.
///
/// # Panics
/// Panics if a diagonal entry of `U` is exactly zero.
pub fn trsm_right_upper(a: &[f64], b: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    // Solve X U = B column by column of X (forward over columns of U).
    for j in 0..n {
        let ujj = a[j + j * n];
        assert!(ujj != 0.0, "singular U in trsm_right_upper");
        // X[:, j] = (B[:, j] - sum_{k<j} X[:, k] * U[k, j]) / U[j, j]
        for k in 0..j {
            let ukj = a[k + j * n];
            if ukj == 0.0 {
                continue;
            }
            let (head, tail) = b.split_at_mut(j * n);
            let xk = &head[k * n..(k + 1) * n];
            let xj = &mut tail[..n];
            for i in 0..n {
                xj[i] -= ukj * xk[i];
            }
        }
        for i in 0..n {
            b[i + j * n] /= ujj;
        }
    }
}

/// `B ← L⁻¹ · B` with `L` the strictly-lower triangle of `a` plus an
/// implicit **unit** diagonal.
///
/// LU row panel: `A_lj ← L_ll⁻¹ · A_lj`.
pub fn trsm_left_lower_unit(a: &[f64], b: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    // Forward substitution per column of B.
    for j in 0..n {
        let bj = &mut b[j * n..(j + 1) * n];
        for k in 0..n {
            let xk = bj[k];
            if xk == 0.0 {
                continue;
            }
            for i in (k + 1)..n {
                bj[i] -= a[i + k * n] * xk;
            }
        }
    }
}

/// `B ← B · L⁻ᵀ` with `L` the lower triangle (non-unit diagonal) of `a`.
///
/// Cholesky panel: `A_il ← A_il · L_ll⁻ᵀ`.
///
/// # Panics
/// Panics if a diagonal entry of `L` is exactly zero.
pub fn trsm_right_lower_trans(a: &[f64], b: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    // X L^T = B  =>  column j of X depends on columns k < j of X:
    // X[:, j] = (B[:, j] - sum_{k<j} X[:, k] * (L^T)[k, j]) / L[j, j]
    // with (L^T)[k, j] = L[j, k].
    for j in 0..n {
        let ljj = a[j + j * n];
        assert!(ljj != 0.0, "singular L in trsm_right_lower_trans");
        for k in 0..j {
            let ljk = a[j + k * n];
            if ljk == 0.0 {
                continue;
            }
            let (head, tail) = b.split_at_mut(j * n);
            let xk = &head[k * n..(k + 1) * n];
            let xj = &mut tail[..n];
            for i in 0..n {
                xj[i] -= ljk * xk[i];
            }
        }
        for i in 0..n {
            b[i + j * n] /= ljj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::Tile;

    fn assert_close(a: &Tile, b: &Tile, tol: f64) {
        let nb = a.nb();
        for j in 0..nb {
            for i in 0..nb {
                let (x, y) = (a.get(i, j), b.get(i, j));
                assert!(
                    (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                    "mismatch at ({i},{j}): {x} vs {y}"
                );
            }
        }
    }

    /// Naive reference product for oracle checks.
    fn matmul_ref(a: &Tile, b: &Tile) -> Tile {
        let n = a.nb();
        Tile::from_fn(n, |i, j| (0..n).map(|k| a.get(i, k) * b.get(k, j)).sum())
    }

    #[test]
    fn gemm_nn_matches_reference() {
        let n = 9;
        let a = Tile::random(n, 1);
        let b = Tile::random(n, 2);
        let mut c = Tile::random(n, 3);
        let expect = {
            let mut e = matmul_ref(&a, &b);
            for j in 0..n {
                for i in 0..n {
                    let v = 2.0 * e.get(i, j) + 0.5 * c.get(i, j);
                    e.set(i, j, v);
                }
            }
            e
        };
        gemm_nn(2.0, a.as_slice(), b.as_slice(), 0.5, c.as_mut_slice(), n);
        assert_close(&c, &expect, 1e-12);
    }

    #[test]
    fn gemm_nt_matches_reference() {
        let n = 7;
        let a = Tile::random(n, 4);
        let b = Tile::random(n, 5);
        let mut c = Tile::zeros(n);
        gemm_nt(1.0, a.as_slice(), b.as_slice(), 0.0, c.as_mut_slice(), n);
        let expect = matmul_ref(&a, &b.transposed());
        assert_close(&c, &expect, 1e-12);
    }

    #[test]
    fn syrk_matches_gemm_nt_on_lower_triangle() {
        let n = 8;
        let a = Tile::random(n, 6);
        let mut c_syrk = Tile::random(n, 7);
        let mut c_gemm = c_syrk.clone();
        syrk_ln(-1.0, a.as_slice(), 1.0, c_syrk.as_mut_slice(), n);
        gemm_nt(
            -1.0,
            a.as_slice(),
            a.as_slice(),
            1.0,
            c_gemm.as_mut_slice(),
            n,
        );
        for j in 0..n {
            for i in j..n {
                assert!((c_syrk.get(i, j) - c_gemm.get(i, j)).abs() < 1e-12);
            }
        }
        // Strictly upper triangle untouched by SYRK.
        let original = Tile::random(n, 7);
        for j in 1..n {
            for i in 0..j {
                assert_eq!(c_syrk.get(i, j), original.get(i, j));
            }
        }
    }

    #[test]
    fn trsm_right_upper_inverts() {
        let n = 6;
        // Build a well-conditioned upper-triangular U.
        let u = Tile::from_fn(n, |i, j| {
            if i == j {
                2.0 + i as f64
            } else if i < j {
                0.3 * ((i + 2 * j) % 5) as f64
            } else {
                0.0
            }
        });
        let x0 = Tile::random(n, 8);
        // B = X0 * U, then solve B <- B U^{-1} and recover X0.
        let mut b = matmul_ref(&x0, &u);
        trsm_right_upper(u.as_slice(), b.as_mut_slice(), n);
        assert_close(&b, &x0, 1e-10);
    }

    #[test]
    fn trsm_left_lower_unit_inverts() {
        let n = 6;
        let l = Tile::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                0.4 * ((i + j) % 3) as f64 - 0.2
            } else {
                0.0
            }
        });
        let x0 = Tile::random(n, 9);
        let mut b = matmul_ref(&l, &x0);
        trsm_left_lower_unit(l.as_slice(), b.as_mut_slice(), n);
        assert_close(&b, &x0, 1e-10);
    }

    #[test]
    fn trsm_right_lower_trans_inverts() {
        let n = 6;
        let l = Tile::from_fn(n, |i, j| {
            if i == j {
                1.5 + j as f64
            } else if i > j {
                0.25 * ((2 * i + j) % 4) as f64
            } else {
                0.0
            }
        });
        let x0 = Tile::random(n, 10);
        let mut b = matmul_ref(&x0, &l.transposed());
        trsm_right_lower_trans(l.as_slice(), b.as_mut_slice(), n);
        assert_close(&b, &x0, 1e-10);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn trsm_detects_zero_pivot() {
        let n = 3;
        let u = Tile::zeros(n);
        let mut b = Tile::identity(n);
        trsm_right_upper(u.as_slice(), b.as_mut_slice(), n);
    }

    #[test]
    fn gemm_identity_is_noop() {
        let n = 5;
        let a = Tile::random(n, 11);
        let id = Tile::identity(n);
        let mut c = Tile::zeros(n);
        gemm_nn(1.0, a.as_slice(), id.as_slice(), 0.0, c.as_mut_slice(), n);
        assert_close(&c, &a, 1e-14);
        gemm_nt(1.0, a.as_slice(), id.as_slice(), 0.0, c.as_mut_slice(), n);
        assert_close(&c, &a, 1e-14);
    }
}

/// `C ← α·Aᵀ·B + β·C`, all square `n × n`, column-major.
///
/// The Cholesky backward solve uses `gemm_tn(-1, L_ki, B_k, 1, B_i)`.
pub fn gemm_tn(alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    debug_assert_eq!(c.len(), n * n);
    for j in 0..n {
        for i in 0..n {
            // (A^T B)[i, j] = sum_k A[k, i] * B[k, j]: both columns stream.
            let ai = &a[i * n..(i + 1) * n];
            let bj = &b[j * n..(j + 1) * n];
            let dot: f64 = ai.iter().zip(bj).map(|(x, y)| x * y).sum();
            let slot = &mut c[i + j * n];
            *slot = alpha * dot + beta * *slot;
        }
    }
}

/// `B ← L⁻¹ · B` with `L` the lower triangle of `a` including a **non-unit**
/// diagonal.
///
/// Cholesky forward solve: `y_i ← L_ii⁻¹ (b_i − Σ L_ik y_k)`.
///
/// # Panics
/// Panics if a diagonal entry of `L` is exactly zero.
pub fn trsm_left_lower_nonunit(a: &[f64], b: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    for j in 0..n {
        let bj = &mut b[j * n..(j + 1) * n];
        for k in 0..n {
            let akk = a[k + k * n];
            assert!(akk != 0.0, "singular L in trsm_left_lower_nonunit");
            bj[k] /= akk;
            let xk = bj[k];
            if xk == 0.0 {
                continue;
            }
            for i in (k + 1)..n {
                bj[i] -= a[i + k * n] * xk;
            }
        }
    }
}

/// `B ← U⁻¹ · B` with `U` the upper triangle of `a` (non-unit diagonal).
///
/// LU backward solve: `x_i ← U_ii⁻¹ (y_i − Σ U_ik x_k)`.
///
/// # Panics
/// Panics if a diagonal entry of `U` is exactly zero.
pub fn trsm_left_upper_nonunit(a: &[f64], b: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    for j in 0..n {
        let bj = &mut b[j * n..(j + 1) * n];
        for k in (0..n).rev() {
            let akk = a[k + k * n];
            assert!(akk != 0.0, "singular U in trsm_left_upper_nonunit");
            bj[k] /= akk;
            let xk = bj[k];
            if xk == 0.0 {
                continue;
            }
            for i in 0..k {
                bj[i] -= a[i + k * n] * xk;
            }
        }
    }
}

/// `B ← L⁻ᵀ · B` with `L` the lower triangle of `a` (non-unit diagonal).
///
/// Cholesky backward solve: `x_i ← L_ii⁻ᵀ (y_i − Σ L_kiᵀ x_k)`.
///
/// # Panics
/// Panics if a diagonal entry of `L` is exactly zero.
pub fn trsm_left_lower_trans_nonunit(a: &[f64], b: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    // L^T is upper triangular with (L^T)[i, k] = L[k, i]; back substitution.
    for j in 0..n {
        let bj = &mut b[j * n..(j + 1) * n];
        for k in (0..n).rev() {
            let akk = a[k + k * n];
            assert!(akk != 0.0, "singular L in trsm_left_lower_trans_nonunit");
            bj[k] /= akk;
            let xk = bj[k];
            if xk == 0.0 {
                continue;
            }
            for i in 0..k {
                // (L^T)[i, k] = L[k, i].
                bj[i] -= a[k + i * n] * xk;
            }
        }
    }
}

#[cfg(test)]
mod solve_kernel_tests {
    use super::*;
    use crate::tile::Tile;

    fn matmul_ref(a: &Tile, b: &Tile) -> Tile {
        let n = a.nb();
        Tile::from_fn(n, |i, j| (0..n).map(|k| a.get(i, k) * b.get(k, j)).sum())
    }

    fn lower(n: usize, seed: u64) -> Tile {
        let r = Tile::random(n, seed);
        Tile::from_fn(n, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Equal => 2.0 + i as f64,
            std::cmp::Ordering::Greater => 0.4 * r.get(i, j),
            std::cmp::Ordering::Less => 0.0,
        })
    }

    fn assert_tiles_close(a: &Tile, b: &Tile, tol: f64) {
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let n = 7;
        let a = Tile::random(n, 1);
        let b = Tile::random(n, 2);
        let mut c = Tile::zeros(n);
        gemm_tn(1.0, a.as_slice(), b.as_slice(), 0.0, c.as_mut_slice(), n);
        let expect = matmul_ref(&a.transposed(), &b);
        assert_tiles_close(&c, &expect, 1e-12);
    }

    #[test]
    fn trsm_left_lower_nonunit_inverts() {
        let n = 6;
        let l = lower(n, 3);
        let x0 = Tile::random(n, 4);
        let mut b = matmul_ref(&l, &x0);
        trsm_left_lower_nonunit(l.as_slice(), b.as_mut_slice(), n);
        assert_tiles_close(&b, &x0, 1e-10);
    }

    #[test]
    fn trsm_left_upper_nonunit_inverts() {
        let n = 6;
        let u = lower(n, 5).transposed();
        let x0 = Tile::random(n, 6);
        let mut b = matmul_ref(&u, &x0);
        trsm_left_upper_nonunit(u.as_slice(), b.as_mut_slice(), n);
        assert_tiles_close(&b, &x0, 1e-10);
    }

    #[test]
    fn trsm_left_lower_trans_nonunit_inverts() {
        let n = 6;
        let l = lower(n, 7);
        let x0 = Tile::random(n, 8);
        let mut b = matmul_ref(&l.transposed(), &x0);
        trsm_left_lower_trans_nonunit(l.as_slice(), b.as_mut_slice(), n);
        assert_tiles_close(&b, &x0, 1e-10);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn nonunit_trsm_detects_zero_diagonal() {
        let n = 3;
        let l = Tile::zeros(n);
        let mut b = Tile::identity(n);
        trsm_left_lower_nonunit(l.as_slice(), b.as_mut_slice(), n);
    }
}
