//! Exact communication-volume counting for right-looking tiled LU and
//! Cholesky under the owner-computes rule, plus the paper's closed-form
//! estimates (Eq. 1 and Eq. 2).
//!
//! The closed forms neglect two boundary effects (paper §III-A): the
//! shrinking of the trailing submatrix below one full pattern during the
//! last iterations, and partial pattern replication when the tile count is
//! not a multiple of the pattern size. The exact counters here capture both,
//! which lets the tests quantify how fast the estimate converges.

use crate::assignment::TileAssignment;
use crate::schedule::{Collector, Walk};
use crate::splice::{spliced_chain, spliced_volume};
use flexdist_core::Pattern;

/// Communication volumes in *tiles sent* (one unit = one tile transferred to
/// one distinct remote node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommBreakdown {
    /// Broadcasts of the factorized diagonal tile to the panel solvers
    /// (GETRF/POTRF output → TRSM inputs). Lower-order term, not part of
    /// Eq. 1/2.
    pub panel: u64,
    /// Panel tiles sent into the trailing-submatrix update (TRSM outputs →
    /// GEMM/SYRK inputs). This is the dominant term modeled by Eq. 1/2.
    pub trailing: u64,
}

impl CommBreakdown {
    /// Total tiles sent.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.panel + self.trailing
    }
}

/// Exact tile-send count of a right-looking tiled LU factorization
/// (`A = L·U`, no pivoting, as in Chameleon's `getrf_nopiv`) on a `t × t`
/// tile grid with the given owner map.
///
/// Per iteration `ℓ`:
/// * the factorized tile `(ℓ,ℓ)` is sent to the distinct owners of column
///   tiles `(i,ℓ)`, `i > ℓ`, and row tiles `(ℓ,j)`, `j > ℓ` (TRSM inputs) —
///   counted in [`CommBreakdown::panel`];
/// * each solved tile `(i,ℓ)` is sent to the distinct owners of row
///   `(i, j)`, `j > ℓ`, and each `(ℓ,j)` to the distinct owners of column
///   `(i, j)`, `i > ℓ` (GEMM inputs) — counted in
///   [`CommBreakdown::trailing`].
#[must_use]
pub fn lu_comm_volume(a: &TileAssignment) -> CommBreakdown {
    crash_free_volume(Walk::Lu, a)
}

/// Exact tile-send count of a right-looking tiled Cholesky factorization
/// (`A = L·Lᵀ`, lower triangle stored) on a `t × t` tile grid.
///
/// Per iteration `ℓ`:
/// * the factorized tile `(ℓ,ℓ)` is sent to the distinct owners of
///   `(i,ℓ)`, `i > ℓ` (TRSM inputs) — [`CommBreakdown::panel`];
/// * each solved tile `(i,ℓ)` is sent to the distinct owners of its
///   *trailing colrow*: row tiles `(i,j)` for `ℓ < j ≤ i` and column tiles
///   `(j,i)` for `j > i` (SYRK/GEMM inputs) — [`CommBreakdown::trailing`].
#[must_use]
pub fn cholesky_comm_volume(a: &TileAssignment) -> CommBreakdown {
    crash_free_volume(Walk::Cholesky, a)
}

/// The volume counters are folds of the k = 0 chain stream, so every
/// hand-count and estimate-convergence test below doubles as a fidelity
/// proof of the walk itself.
fn crash_free_volume(walk: Walk, a: &TileAssignment) -> CommBreakdown {
    spliced_volume(&spliced_chain(walk, std::slice::from_ref(a), &[])).total
}

/// Exact tile-send count of a tiled matrix product `C = A·B` where `A`,
/// `B` and `C` all follow the same owner map.
///
/// Inputs are read-only, so (with the runtime's replica cache) each input
/// tile is sent at most once to each node that consumes it: `A(i,l)` goes
/// to the distinct owners of `C` row `i`, `B(l,j)` to the distinct owners
/// of `C` column `j`.
#[must_use]
pub fn gemm_comm_volume(a: &TileAssignment) -> CommBreakdown {
    let t = a.tiles();
    let mut rc = Collector::new(a.n_nodes());
    let mut out = CommBreakdown::default();
    for l in 0..t {
        for i in 0..t {
            let row = rc.collect(a.owner(i, l), (0..t).map(|j| a.owner(i, j)));
            out.trailing += row.len() as u64;
        }
        for j in 0..t {
            let col = rc.collect(a.owner(l, j), (0..t).map(|i| a.owner(i, j)));
            out.trailing += col.len() as u64;
        }
    }
    out
}

/// Closed-form estimate of the GEMM volume: `t² · (x̄ + ȳ − 2)` (each of
/// the `t²` tiles of `A` reaches `x̄ − 1` remote row owners on average,
/// symmetrically for `B`).
#[must_use]
pub fn gemm_comm_estimate(pattern: &Pattern, t: usize) -> f64 {
    let tt = t as f64;
    tt * tt * (flexdist_core::lu_cost(pattern) - 2.0)
}

/// Closed-form estimate of the LU trailing-update volume (paper Eq. 1):
/// `t(t+1)/2 · (x̄ + ȳ − 2)`.
#[must_use]
pub fn lu_comm_estimate(pattern: &Pattern, t: usize) -> f64 {
    let tt = t as f64;
    tt * (tt + 1.0) / 2.0 * (flexdist_core::lu_cost(pattern) - 2.0)
}

/// Closed-form estimate of the Cholesky trailing-update volume (paper
/// Eq. 2): `t(t+1)/2 · (z̄ − 1)` for a square pattern.
///
/// # Panics
/// Panics if the pattern is not square.
#[must_use]
pub fn cholesky_comm_estimate(pattern: &Pattern, t: usize) -> f64 {
    let tt = t as f64;
    tt * (tt + 1.0) / 2.0 * (flexdist_core::cholesky_cost(pattern) - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexdist_core::{g2dbc, sbc, twodbc};

    #[test]
    fn single_node_never_communicates() {
        let pat = twodbc::two_dbc(1, 1);
        let a = TileAssignment::cyclic(&pat, 12);
        assert_eq!(lu_comm_volume(&a).total(), 0);
        assert_eq!(cholesky_comm_volume(&a).total(), 0);
    }

    #[test]
    fn two_tiles_two_nodes_lu_hand_count() {
        // 2x2 tiles on pattern [0 1 / 1 0] (anti-diagonal).
        let pat =
            flexdist_core::Pattern::from_rows(2, &[vec![Some(0), Some(1)], vec![Some(1), Some(0)]]);
        let a = TileAssignment::cyclic(&pat, 2);
        // Iteration 0: (0,0)@0 -> owners of (1,0)=1 and (0,1)=1 -> 1 send.
        //   (1,0)@1 -> owner of (1,1)=0 -> 1 send.
        //   (0,1)@1 -> owner of (1,1)=0 -> 1 send.
        // Iteration 1: nothing (no trailing).
        let v = lu_comm_volume(&a);
        assert_eq!(v.panel, 1);
        assert_eq!(v.trailing, 2);
    }

    #[test]
    fn two_tiles_cholesky_hand_count() {
        let pat =
            flexdist_core::Pattern::from_rows(2, &[vec![Some(0), Some(1)], vec![Some(1), Some(0)]]);
        let a = TileAssignment::cyclic(&pat, 2);
        // Iter 0: (0,0)@0 -> owner of (1,0)=1: panel 1.
        //   (1,0)@1 -> colrow 1 trailing = {(1,1)@0}: trailing 1.
        let v = cholesky_comm_volume(&a);
        assert_eq!(v.panel, 1);
        assert_eq!(v.trailing, 1);
    }

    #[test]
    fn lu_estimate_converges_to_exact() {
        // Eq. 1 over-counts boundary iterations; relative error shrinks as
        // the tile count grows (paper §III-A).
        let pat = twodbc::two_dbc(3, 2);
        for (t, tol) in [(12usize, 0.35), (48, 0.12), (120, 0.05)] {
            let a = TileAssignment::cyclic(&pat, t);
            let exact = lu_comm_volume(&a).trailing as f64;
            let est = lu_comm_estimate(&pat, t);
            let rel = (est - exact).abs() / est;
            assert!(
                rel < tol,
                "t = {t}: exact {exact}, estimate {est}, rel err {rel}"
            );
            // The estimate is an over-approximation (domain shrinking only
            // removes communications).
            assert!(est >= exact * 0.999, "t = {t}");
        }
    }

    #[test]
    fn cholesky_estimate_converges_to_exact() {
        let pat = sbc::sbc_basic(21).unwrap();
        for (t, tol) in [(21usize, 0.35), (84, 0.12), (168, 0.06)] {
            let a = TileAssignment::extended(&pat, t);
            let exact = cholesky_comm_volume(&a).trailing as f64;
            let est = cholesky_comm_estimate(&pat, t);
            let rel = (est - exact).abs() / est;
            assert!(
                rel < tol,
                "t = {t}: exact {exact}, estimate {est}, rel err {rel}"
            );
        }
    }

    #[test]
    fn extended_diagonal_does_not_add_cholesky_cost() {
        // The extended assignment picks diagonal owners from the colrow, so
        // exact volumes for basic and extended SBC stay close (they differ
        // only through which colrow member owns each diagonal tile).
        let ext = sbc::sbc_extended(21).unwrap();
        let bas = sbc::sbc_basic(21).unwrap();
        let t = 63;
        let ve = cholesky_comm_volume(&TileAssignment::extended(&ext, t)).total();
        let vb = cholesky_comm_volume(&TileAssignment::extended(&bas, t)).total();
        let rel = (ve as f64 - vb as f64).abs() / vb as f64;
        assert!(rel < 0.05, "extended {ve} vs basic {vb}");
    }

    #[test]
    fn g2dbc_sends_less_than_bad_2dbc() {
        // P = 23: G-2DBC must beat the degenerate 23x1 grid on volume.
        let t = 60;
        let g = TileAssignment::cyclic(&g2dbc::g2dbc(23), t);
        let bad = TileAssignment::cyclic(&twodbc::two_dbc(23, 1), t);
        let vg = lu_comm_volume(&g).total();
        let vb = lu_comm_volume(&bad).total();
        assert!(
            vg * 2 < vb,
            "G-2DBC {vg} should send far less than 23x1 grid {vb}"
        );
    }

    #[test]
    fn sbc_beats_square_2dbc_for_cholesky() {
        // Paper/SC'22: SBC generates ~sqrt(2) less volume than 2DBC.
        let t = 72;
        let sbc_pat = sbc::sbc_extended(36).unwrap();
        let dbc_pat = twodbc::two_dbc(6, 6);
        let vs = cholesky_comm_volume(&TileAssignment::extended(&sbc_pat, t)).total();
        let vd = cholesky_comm_volume(&TileAssignment::cyclic(&dbc_pat, t)).total();
        assert!(vs < vd, "SBC {vs} !< 2DBC {vd}");
        let ratio = vd as f64 / vs as f64;
        assert!(
            ratio > 1.2,
            "expected ~sqrt(2) advantage, got ratio {ratio}"
        );
    }

    #[test]
    fn volume_scales_quadratically_with_tiles() {
        let pat = twodbc::two_dbc(4, 4);
        let v1 = lu_comm_volume(&TileAssignment::cyclic(&pat, 40)).trailing as f64;
        let v2 = lu_comm_volume(&TileAssignment::cyclic(&pat, 80)).trailing as f64;
        let ratio = v2 / v1;
        assert!(
            (ratio - 4.0).abs() < 0.4,
            "doubling tiles should ~4x the volume, got {ratio}"
        );
    }
}

#[cfg(test)]
mod gemm_tests {
    use super::*;
    use flexdist_core::twodbc;

    #[test]
    fn gemm_volume_hand_count_2x2() {
        // 2x2 tiles on [0 1 / 2 3]: every A tile reaches 1 remote row
        // owner, every B tile 1 remote column owner, for each of 2 steps:
        // 2 * (4 + 4) ... each tile's receiver set has 2 owners incl. self.
        let a = TileAssignment::cyclic(&twodbc::two_dbc(2, 2), 2);
        let v = gemm_comm_volume(&a);
        assert_eq!(v.panel, 0);
        assert_eq!(v.trailing, 2 * (2 + 2));
    }

    #[test]
    fn gemm_estimate_matches_exact_on_square_grids() {
        // With t a multiple of the pattern and every row/col owner distinct,
        // the estimate is exact for 2DBC.
        for (r, c) in [(2usize, 2usize), (3, 2), (4, 4)] {
            let pat = twodbc::two_dbc(r, c);
            let t = 2 * r.max(c) * r.min(c);
            let a = TileAssignment::cyclic(&pat, t);
            let exact = gemm_comm_volume(&a).trailing as f64;
            let est = gemm_comm_estimate(&pat, t);
            assert!(
                (exact - est).abs() < 1e-9,
                "{r}x{c}: exact {exact} vs estimate {est}"
            );
        }
    }

    #[test]
    fn square_grid_minimizes_gemm_volume() {
        // The classical 2DBC optimality for matrix product (Irony et al.,
        // paper SII-A): among shapes of P = 16, the 4x4 grid sends least.
        let t = 32;
        let vols: Vec<u64> = [(16usize, 1usize), (8, 2), (4, 4)]
            .iter()
            .map(|&(r, c)| {
                gemm_comm_volume(&TileAssignment::cyclic(&twodbc::two_dbc(r, c), t)).total()
            })
            .collect();
        assert!(vols[2] < vols[1] && vols[1] < vols[0], "{vols:?}");
    }
}
