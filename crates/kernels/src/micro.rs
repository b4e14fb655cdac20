//! The register-blocked micro-tile every factorization kernel is built
//! on, and the two rectangular block operations made of it.
//!
//! One `MR × NR` block of the output lives in a fixed-size accumulator
//! array ([`Acc`]); every element `(i, j)` of it is updated by
//! `acc = (−a_ik).mul_add(b_kj, acc)` for ascending `k`. The `A` operand
//! is an `MR`-row panel copied once per row block into contiguous
//! `[f64; MR]` chunks (a column-major tile's rows sit `ld·8` bytes apart,
//! which for `ld = 192` or `256` maps a whole panel onto a handful of L1
//! sets); `B` is read in place as scalar broadcasts.
//!
//! The arithmetic contract: each output element is a fixed chain of fused
//! multiply-adds in ascending `k` (plus, in a solve, one division), so its
//! bits depend on the inputs alone — not on `MR`/`NR`, the vector width,
//! the edge path or the dispatch arm (`crate::dispatch`). The tests in
//! `crate::blas` and `crate::factorize` hold every kernel to a naive
//! per-element `mul_add` loop, bit for bit.
//!
//! Everything here is `#[inline(always)]`: the bodies must end up inside
//! the `#[target_feature]` wrapper of `crate::dispatch` to be compiled
//! with its instruction set.

// Loops over `i`, `j`, `k` keep the subscripts of the formulas they state.
#![allow(clippy::needless_range_loop)]

/// Rows of the micro-tile: two 4-lane or one 8-lane vector of `f64`.
pub(crate) const MR: usize = 8;
/// Columns of the micro-tile: `MR/4 · NR = 8` independent FMA chains
/// cover the latency of two FMA ports.
const NR: usize = 4;

/// `NR` columns of `MR` rows in registers.
type Acc = [[f64; MR]; NR];

/// An operand with explicit strides: element `(r, c)` is
/// `data[r * rs + c * cs]`. Column-major with leading dimension `ld` is
/// `(1, ld)`; its transpose is `(ld, 1)`.
#[derive(Clone, Copy)]
pub(crate) struct Strided<'a> {
    pub data: &'a [f64],
    pub rs: usize,
    pub cs: usize,
}

impl<'a> Strided<'a> {
    #[inline(always)]
    pub(crate) fn new(data: &'a [f64], rs: usize, cs: usize) -> Self {
        Self { data, rs, cs }
    }

    #[inline(always)]
    fn at(self, r: usize, c: usize) -> f64 {
        self.data[r * self.rs + c * self.cs]
    }

    /// The same operand with `(r, c)` as its origin.
    #[inline(always)]
    fn from(self, r: usize, c: usize) -> Self {
        Self {
            data: &self.data[r * self.rs + c * self.cs..],
            ..self
        }
    }
}

/// `panel[k][i] ← src(i, k)` for `i < mr`, zero beyond.
#[inline(always)]
fn pack(panel: &mut [[f64; MR]], src: &[f64], rs: usize, cs: usize, mr: usize) {
    for (k, chunk) in panel.iter_mut().enumerate() {
        if rs == 1 {
            chunk[..mr].copy_from_slice(&src[k * cs..][..mr]);
        } else {
            for i in 0..mr {
                chunk[i] = src[i * rs + k * cs];
            }
        }
        chunk[mr..].fill(0.0);
    }
}

/// `dst(i, k) ← panel[k][i]` for `i < mr`.
#[inline(always)]
fn unpack(panel: &[[f64; MR]], dst: &mut [f64], rs: usize, cs: usize, mr: usize) {
    for (k, chunk) in panel.iter().enumerate() {
        if rs == 1 {
            dst[k * cs..][..mr].copy_from_slice(&chunk[..mr]);
        } else {
            for i in 0..mr {
                dst[i * rs + k * cs] = chunk[i];
            }
        }
    }
}

/// The micro-tile: `acc[j][i] ← fma(−a[k][i], B[k, j], acc[j][i])` for
/// `k = 0, 1, …` over the chunks of `a`.
#[inline(always)]
fn fma_sub(acc: &mut Acc, a: &[[f64; MR]], b: Strided<'_>, nr: usize) {
    for (k, av) in a.iter().enumerate() {
        let mut bv = [0.0; NR];
        for j in 0..nr {
            bv[j] = b.at(k, j);
        }
        for j in 0..NR {
            for i in 0..MR {
                acc[j][i] = (-av[i]).mul_add(bv[j], acc[j][i]);
            }
        }
    }
}

/// Solve `X · T = acc` in registers for the `nr × nr` upper triangle at
/// `t`'s origin: forward over columns, then (unless the diagonal is
/// `unit`) one division by the diagonal entry.
#[inline(always)]
fn solve_tri(acc: &mut Acc, t: Strided<'_>, nr: usize, unit: bool) {
    for j in 0..nr {
        for k in 0..j {
            let (xk, u) = (acc[k], t.at(k, j));
            for i in 0..MR {
                acc[j][i] = (-xk[i]).mul_add(u, acc[j][i]);
            }
        }
        if !unit {
            let d = t.at(j, j);
            for i in 0..MR {
                acc[j][i] /= d;
            }
        }
    }
}

/// Run `$tile` with each `$len` as the compile-time constant `$full` when
/// the tile is full, so the hot path has no variable-length copies or
/// loops.
macro_rules! full_or_edge {
    ($($len:ident == $full:ident),+ => $tile:expr) => {
        if $($len == $full)&&+ {
            let ($($len,)+) = ($($full,)+);
            $tile
        } else {
            $tile
        }
    };
}
pub(crate) use full_or_edge;

/// `C[0..m, 0..n] ← C − A[0..m, 0..depth] · B[0..depth, 0..n]`; with
/// `lower`, only the elements `i ≥ j` of `C` are touched. `c` and `a` are
/// column-major with leading dimensions `ldc`, `lda`. `panel` is the
/// caller's scratch for one packed row block of `A`, `depth` chunks or more.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // one BLAS-shaped call, stated once
pub(crate) fn update(
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    lower: bool,
    a: &[f64],
    lda: usize,
    b: Strided<'_>,
    depth: usize,
    panel: &mut [[f64; MR]],
) {
    let panel = &mut panel[..depth];
    for i0 in (0..m).step_by(MR) {
        let mr = MR.min(m - i0);
        pack(panel, &a[i0..], 1, lda, mr);
        // Columns right of the block's last row lie above the diagonal.
        let n = if lower { n.min(i0 + mr) } else { n };
        for j0 in (0..n).step_by(NR) {
            let nr = NR.min(n - j0);
            let ct = &mut c[i0 + j0 * ldc..];
            full_or_edge!(mr == MR, nr == NR => {
                let mut acc = [[0.0; MR]; NR];
                for j in 0..nr {
                    acc[j][..mr].copy_from_slice(&ct[j * ldc..][..mr]);
                }
                fma_sub(&mut acc, panel, b.from(0, j0), nr);
                for j in 0..nr {
                    let lo = if lower {
                        (j0 + j).saturating_sub(i0).min(mr)
                    } else {
                        0
                    };
                    ct[j * ldc..][lo..mr].copy_from_slice(&acc[j][lo..mr]);
                }
            });
        }
    }
}

/// `B ← B · T⁻¹` for the `m × n` block `B(i, j) = b[i·rs + j·cs]` and the
/// upper triangle `T` (`n × n`; `unit` says its diagonal is implicit
/// ones). Each `MR`-row block is solved in a packed copy — `panel`, the
/// caller's scratch of `n` chunks or more — left to right in column blocks
/// of `NR`: micro-tile update from the columns already solved, then the
/// block's own triangle in registers.
///
/// `B ← L⁻¹ · B` is this on the transposes: `(rs, cs)` swapped and
/// `T = Lᵀ`.
#[inline(always)]
pub(crate) fn solve_right(
    b: &mut [f64],
    (rs, cs): (usize, usize),
    m: usize,
    n: usize,
    t: Strided<'_>,
    unit: bool,
    panel: &mut [[f64; MR]],
) {
    let panel = &mut panel[..n];
    for i0 in (0..m).step_by(MR) {
        let mr = MR.min(m - i0);
        pack(panel, &b[i0 * rs..], rs, cs, mr);
        for j0 in (0..n).step_by(NR) {
            let nr = NR.min(n - j0);
            let (solved, rest) = panel.split_at_mut(j0);
            full_or_edge!(nr == NR => {
                let mut acc = [[0.0; MR]; NR];
                acc[..nr].copy_from_slice(&rest[..nr]);
                fma_sub(&mut acc, solved, t.from(0, j0), nr);
                solve_tri(&mut acc, t.from(j0, j0), nr, unit);
                rest[..nr].copy_from_slice(&acc[..nr]);
            });
        }
        unpack(panel, &mut b[i0 * rs..], rs, cs, mr);
    }
}
