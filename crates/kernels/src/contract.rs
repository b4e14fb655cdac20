//! What the arithmetic-contract tests of `blas` and `factorize` share: the
//! sizes they sweep and the bit-for-bit comparison.

/// `n < MR`, `n < NR`, every remainder of both, and the benchmark sizes.
pub(crate) fn sizes() -> impl Iterator<Item = usize> {
    (1..=33).chain([64, 192])
}

/// Equal bit for bit; two NaNs count as equal whatever their payload
/// (hardware and libm propagate different ones).
pub(crate) fn assert_same_bits(what: &str, n: usize, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (at, (x, y)) in got.iter().zip(want).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}, n = {n}: element ({}, {}) is {x:e}, the reference says {y:e}",
            at % n,
            at / n
        );
    }
}
