//! Level-3 BLAS-like kernels on square column-major `f64` tiles.
//!
//! Only the variants actually used by tiled LU, Cholesky and SYRK are
//! provided, each as a dedicated function (the tiled algorithms never need
//! runtime dispatch on side/uplo/trans). The factorization kernels are
//! the block operations of `crate::micro` on a whole tile, run through
//! `crate::dispatch`; the solve-only kernels further down are plain
//! column-major loops.

use crate::dispatch::{dispatch, Body};
use crate::micro::{solve_right, update, Strided, MR};

/// `C ← α·A·B + β·C`, all square `n × n`, column-major.
///
/// The LU trailing update uses `gemm_nn(-1, L_il, U_lj, 1, A_ij)`.
///
/// Each `c_ij` is scaled by `β` (unless `β = 1`) and then updated by
/// `c_ij ← fma(a_ik, α·b_kj, c_ij)` for `k = 0, 1, …` — see
/// `crate::micro` for why this fixes its bits.
///
/// # Panics
/// Panics if a slice does not hold `n·n` elements.
pub fn gemm_nn(alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64], n: usize) {
    assert!(
        a.len() == n * n && b.len() == n * n && c.len() == n * n,
        "gemm_nn: every operand must hold n·n elements"
    );
    gemm(alpha, a, Strided::new(b, 1, n), beta, c, n, false);
}

/// `C ← α·A·Bᵀ + β·C`, all square `n × n`, column-major.
///
/// The Cholesky trailing update uses `gemm_nt(-1, A_il, A_jl, 1, A_ij)`.
///
/// # Panics
/// Panics if a slice does not hold `n·n` elements.
pub fn gemm_nt(alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64], n: usize) {
    assert!(
        a.len() == n * n && b.len() == n * n && c.len() == n * n,
        "gemm_nt: every operand must hold n·n elements"
    );
    gemm(alpha, a, Strided::new(b, n, 1), beta, c, n, false);
}

/// `C ← α·A·Aᵀ + β·C`, updating the **lower** triangle of `C` only
/// (the strictly upper triangle is left untouched).
///
/// The Cholesky diagonal update uses `syrk_ln(-1, A_il, 1, A_ii)`.
///
/// # Panics
/// Panics if a slice does not hold `n·n` elements.
pub fn syrk_ln(alpha: f64, a: &[f64], beta: f64, c: &mut [f64], n: usize) {
    assert!(
        a.len() == n * n && c.len() == n * n,
        "syrk_ln: every operand must hold n·n elements"
    );
    gemm(alpha, a, Strided::new(a, n, 1), beta, c, n, true);
}

/// `C ← α·A·B + β·C` on the whole of `C` or its lower triangle, for the
/// three products above.
fn gemm(alpha: f64, a: &[f64], b: Strided<'_>, beta: f64, c: &mut [f64], n: usize, lower: bool) {
    if beta != 1.0 {
        for j in 0..n {
            for v in &mut c[j * n + if lower { j } else { 0 }..(j + 1) * n] {
                *v *= beta;
            }
        }
    }
    // The micro-tile subtracts, which is every factorization's α = −1;
    // any other α goes into a scaled copy of B (−(−α·b) = α·b exactly).
    let scaled: Vec<f64>;
    let b = if alpha == -1.0 {
        b
    } else {
        scaled = b.data.iter().map(|v| -alpha * v).collect();
        Strided { data: &scaled, ..b }
    };
    dispatch(Update { c, n, lower, a, b });
}

struct Update<'a> {
    c: &'a mut [f64],
    n: usize,
    lower: bool,
    a: &'a [f64],
    b: Strided<'a>,
}

impl Body for Update<'_> {
    type Out = ();
    #[inline(always)]
    fn run(self) {
        let n = self.n;
        let mut panel = vec![[0.0; MR]; n];
        update(
            self.c, n, n, n, self.lower, self.a, n, self.b, n, &mut panel,
        );
    }
}

/// `B ← B · U⁻¹` with `U` the upper triangle (non-unit diagonal) of `a`.
///
/// LU column panel: `A_il ← A_il · U_ll⁻¹`.
///
/// # Panics
/// Panics if a slice does not hold `n·n` elements or a diagonal entry of
/// `U` is exactly zero.
pub fn trsm_right_upper(a: &[f64], b: &mut [f64], n: usize) {
    assert!(
        a.len() == n * n && b.len() == n * n,
        "trsm_right_upper: every operand must hold n·n elements"
    );
    assert!(
        (0..n).all(|j| a[j + j * n] != 0.0),
        "singular U in trsm_right_upper"
    );
    let (t, unit) = (Strided::new(a, 1, n), false);
    dispatch(Solve {
        b,
        by: (1, n),
        n,
        t,
        unit,
    });
}

/// `B ← B · L⁻ᵀ` with `L` the lower triangle (non-unit diagonal) of `a`.
///
/// Cholesky panel: `A_il ← A_il · L_ll⁻ᵀ`.
///
/// # Panics
/// Panics if a slice does not hold `n·n` elements or a diagonal entry of
/// `L` is exactly zero.
pub fn trsm_right_lower_trans(a: &[f64], b: &mut [f64], n: usize) {
    assert!(
        a.len() == n * n && b.len() == n * n,
        "trsm_right_lower_trans: every operand must hold n·n elements"
    );
    assert!(
        (0..n).all(|j| a[j + j * n] != 0.0),
        "singular L in trsm_right_lower_trans"
    );
    // (Lᵀ)[k, j] = L[j, k].
    let (t, unit) = (Strided::new(a, n, 1), false);
    dispatch(Solve {
        b,
        by: (1, n),
        n,
        t,
        unit,
    });
}

/// `B ← L⁻¹ · B` with `L` the strictly-lower triangle of `a` plus an
/// implicit **unit** diagonal.
///
/// LU row panel: `A_lj ← L_ll⁻¹ · A_lj`.
///
/// # Panics
/// Panics if a slice does not hold `n·n` elements.
pub fn trsm_left_lower_unit(a: &[f64], b: &mut [f64], n: usize) {
    assert!(
        a.len() == n * n && b.len() == n * n,
        "trsm_left_lower_unit: every operand must hold n·n elements"
    );
    // L·X = B is Xᵀ·Lᵀ = Bᵀ: the right solve on both transposes.
    let (t, unit) = (Strided::new(a, n, 1), true);
    dispatch(Solve {
        b,
        by: (n, 1),
        n,
        t,
        unit,
    });
}

/// `B ← B · T⁻¹` on an `n × n` tile whose element `(i, j)` is
/// `b[i·by.0 + j·by.1]`.
struct Solve<'a> {
    b: &'a mut [f64],
    by: (usize, usize),
    n: usize,
    t: Strided<'a>,
    unit: bool,
}

impl Body for Solve<'_> {
    type Out = ();
    #[inline(always)]
    fn run(self) {
        let mut panel = vec![[0.0; MR]; self.n];
        solve_right(
            self.b, self.by, self.n, self.n, self.t, self.unit, &mut panel,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{assert_same_bits, sizes};
    use crate::dispatch::portable;
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

    // The arithmetic contract: every kernel equals, bit for bit, a naive
    // loop that walks each output element's chain of fused multiply-adds
    // in ascending k — through `dispatch` and on the portable arm alike.

    /// `c_ij ← fma(a_ik, α·b_kj, c_ij)` over `k`, after `c_ij ← β·c_ij`.
    fn gemm_reference(
        alpha: f64,
        a: &[f64],
        b: impl Fn(usize, usize) -> f64,
        beta: f64,
        c: &mut [f64],
        n: usize,
        lower: bool,
    ) {
        for j in 0..n {
            for i in if lower { j } else { 0 }..n {
                let mut x = c[i + j * n];
                if beta != 1.0 {
                    x *= beta;
                }
                for k in 0..n {
                    x = a[i + k * n].mul_add(alpha * b(k, j), x);
                }
                c[i + j * n] = x;
            }
        }
    }

    /// Row by row: `x_ij ← (b_ij − Σ_{k<j} x_ik·t_kj) / t_jj`, fused, in
    /// ascending `k`; no division when the diagonal is `unit`.
    fn solve_right_reference(t: impl Fn(usize, usize) -> f64, b: &mut [f64], n: usize, unit: bool) {
        for i in 0..n {
            for j in 0..n {
                let mut x = b[i + j * n];
                for k in 0..j {
                    x = (-b[i + k * n]).mul_add(t(k, j), x);
                }
                b[i + j * n] = if unit { x } else { x / t(j, j) };
            }
        }
    }

    /// The three products on both arms against [`gemm_reference`].
    fn check_gemm(alpha: f64, beta: f64, n: usize, a: &Tile, b: &Tile, c0: &Tile) {
        let (a, b) = (a.as_slice(), b.as_slice());
        type Kernel = fn(f64, &[f64], &[f64], f64, &mut [f64], usize);
        let syrk: Kernel = |alpha, a, _, beta, c, n| syrk_ln(alpha, a, beta, c, n);
        for (name, kernel, rs, cs, lower) in [
            ("gemm_nn", gemm_nn as Kernel, 1, n, false),
            ("gemm_nt", gemm_nt as Kernel, n, 1, false),
            ("syrk_ln", syrk, n, 1, true),
        ] {
            let b = if lower { a } else { b };
            let mut want = c0.clone();
            let at = |k, j| b[k * rs + j * cs];
            gemm_reference(alpha, a, at, beta, want.as_mut_slice(), n, lower);
            let mut got = c0.clone();
            kernel(alpha, a, b, beta, got.as_mut_slice(), n);
            assert_same_bits(name, n, got.as_slice(), want.as_slice());
            if alpha == -1.0 && beta == 1.0 {
                let mut got = c0.clone();
                let b = Strided::new(b, rs, cs);
                portable(Update {
                    c: got.as_mut_slice(),
                    n,
                    lower,
                    a,
                    b,
                });
                assert_same_bits(name, n, got.as_slice(), want.as_slice());
            }
        }
    }

    #[test]
    fn products_equal_their_fused_chains_bit_for_bit() {
        for n in sizes() {
            let (a, b, c) = (Tile::random(n, 1), Tile::random(n, 2), Tile::random(n, 3));
            check_gemm(-1.0, 1.0, n, &a, &b, &c);
            if n <= 33 {
                check_gemm(1.0, 1.0, n, &a, &b, &c);
                check_gemm(0.75, -0.5, n, &a, &b, &c);
                check_gemm(2.0, 0.0, n, &a, &b, &c);
            }
        }
    }

    #[test]
    fn zero_times_nan_and_infinity_propagate() {
        // The old loops skipped a zero multiplier and with it 0·NaN and
        // 0·∞; a fused chain cannot, and must not.
        let n = 9;
        for poison in [f64::NAN, f64::INFINITY] {
            let mut a = Tile::random(n, 1);
            a.set(5, 3, poison);
            let zeros = Tile::zeros(n);
            check_gemm(-1.0, 1.0, n, &a, &zeros, &Tile::random(n, 2));
            check_gemm(-1.0, 1.0, n, &zeros, &a, &Tile::random(n, 2));
            let mut c = Tile::random(n, 2);
            gemm_nn(
                -1.0,
                a.as_slice(),
                zeros.as_slice(),
                1.0,
                c.as_mut_slice(),
                n,
            );
            for j in 0..n {
                assert!(c.get(5, j).is_nan(), "0 · {poison} was dropped");
                assert!(c.get(4, j).is_finite());
            }
        }
    }

    #[test]
    fn solves_equal_their_fused_chains_bit_for_bit() {
        for n in sizes() {
            let r = Tile::random(n, 4);
            // Any triangle with a safe diagonal; both halves are used.
            let t = Tile::from_fn(n, |i, j| r.get(i, j) + if i == j { n as f64 } else { 0.0 });
            let t = t.as_slice();
            let b0 = Tile::random(n, 5);
            type Kernel = fn(&[f64], &mut [f64], usize);
            for (name, kernel, transposed_b, rs, cs, unit) in [
                (
                    "trsm_right_upper",
                    trsm_right_upper as Kernel,
                    false,
                    1,
                    n,
                    false,
                ),
                (
                    "trsm_right_lower_trans",
                    trsm_right_lower_trans,
                    false,
                    n,
                    1,
                    false,
                ),
                (
                    "trsm_left_lower_unit",
                    trsm_left_lower_unit,
                    true,
                    n,
                    1,
                    true,
                ),
            ] {
                // L·X = B is checked as Xᵀ·Lᵀ = Bᵀ.
                let mut want = if transposed_b {
                    b0.transposed()
                } else {
                    b0.clone()
                };
                solve_right_reference(|k, j| t[k * rs + j * cs], want.as_mut_slice(), n, unit);
                let want = if transposed_b {
                    want.transposed()
                } else {
                    want
                };
                let mut got = b0.clone();
                kernel(t, got.as_mut_slice(), n);
                assert_same_bits(name, n, got.as_slice(), want.as_slice());
                let mut got = b0.clone();
                portable(Solve {
                    b: got.as_mut_slice(),
                    by: if transposed_b { (n, 1) } else { (1, n) },
                    n,
                    t: Strided::new(t, rs, cs),
                    unit,
                });
                assert_same_bits(name, n, got.as_slice(), want.as_slice());
            }
        }
    }

    #[test]
    #[should_panic(expected = "n·n elements")]
    fn a_short_slice_is_refused_up_front() {
        let n = 4;
        let a = Tile::random(n, 1);
        let mut c = vec![0.0; n * n - 1];
        gemm_nn(-1.0, a.as_slice(), a.as_slice(), 1.0, &mut c, n);
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
///
/// # Panics
/// Panics if a slice does not hold `n·n` elements.
pub fn gemm_tn(alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64], n: usize) {
    assert!(
        a.len() == n * n && b.len() == n * n && c.len() == n * n,
        "gemm_tn: every operand must hold n·n elements"
    );
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
/// Panics if a slice does not hold `n·n` elements or a diagonal entry of
/// `L` is exactly zero.
pub fn trsm_left_lower_nonunit(a: &[f64], b: &mut [f64], n: usize) {
    assert!(
        a.len() == n * n && b.len() == n * n,
        "trsm_left_lower_nonunit: every operand must hold n·n elements"
    );
    assert!(
        (0..n).all(|k| a[k + k * n] != 0.0),
        "singular L in trsm_left_lower_nonunit"
    );
    for j in 0..n {
        let bj = &mut b[j * n..(j + 1) * n];
        for k in 0..n {
            bj[k] /= a[k + k * n];
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
/// Panics if a slice does not hold `n·n` elements or a diagonal entry of
/// `U` is exactly zero.
pub fn trsm_left_upper_nonunit(a: &[f64], b: &mut [f64], n: usize) {
    assert!(
        a.len() == n * n && b.len() == n * n,
        "trsm_left_upper_nonunit: every operand must hold n·n elements"
    );
    assert!(
        (0..n).all(|k| a[k + k * n] != 0.0),
        "singular U in trsm_left_upper_nonunit"
    );
    for j in 0..n {
        let bj = &mut b[j * n..(j + 1) * n];
        for k in (0..n).rev() {
            bj[k] /= a[k + k * n];
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
/// Panics if a slice does not hold `n·n` elements or a diagonal entry of
/// `L` is exactly zero.
pub fn trsm_left_lower_trans_nonunit(a: &[f64], b: &mut [f64], n: usize) {
    assert!(
        a.len() == n * n && b.len() == n * n,
        "trsm_left_lower_trans_nonunit: every operand must hold n·n elements"
    );
    assert!(
        (0..n).all(|k| a[k + k * n] != 0.0),
        "singular L in trsm_left_lower_trans_nonunit"
    );
    // L^T is upper triangular with (L^T)[i, k] = L[k, i]; back substitution.
    for j in 0..n {
        let bj = &mut b[j * n..(j + 1) * n];
        for k in (0..n).rev() {
            bj[k] /= a[k + k * n];
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
