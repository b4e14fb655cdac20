//! Sample statistics and name validation shared by the harness, the
//! set comparer and the unit tests.

use std::collections::BTreeMap;

/// Median of the samples (mean of the two middle values for an even
/// count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample: both are harness bugs.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (the default "exclusive" method), so the spread printed here is the
/// number the acceptance rule computes.
///
/// # Panics
/// Panics with fewer than two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, q) in out.iter_mut().zip(1..=3usize) {
        // Position q(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the steadiness figure every bound is judged against.
#[must_use]
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

/// `(b - a) / a`, the signed relative difference the comparer prints;
/// zero when both are zero.
#[must_use]
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a) / a.abs()
    }
}

/// Metric and workload names: start with a letter or digit, then at
/// most 63 more of `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Timed samples keyed by metric name; one entry per round.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Median of the samples recorded under `name`.
    ///
    /// # Panics
    /// Panics when nothing was recorded: every metric a mode reports is
    /// pushed at least once per round.
    #[must_use]
    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    #[must_use]
    pub fn get(&self, name: &str) -> &[f64] {
        self.0
            .get(name)
            .unwrap_or_else(|| panic!("no samples recorded for {name}"))
    }

    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn rel_diff_is_signed_and_safe_at_zero() {
        assert_eq!(rel_diff(2.0, 3.0), 0.5);
        assert_eq!(rel_diff(4.0, 3.0), -0.25);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }

    #[test]
    fn names_follow_the_contract() {
        for ok in [
            "setup_s",
            "net.tcp_rtt_us",
            "lu_g2dbc_p7_fine",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn samples_accumulate_per_name() {
        let mut s = Samples::default();
        s.push("a", 3.0);
        s.push("a", 1.0);
        s.push("a", 2.0);
        assert_eq!(s.median("a"), 2.0);
        assert_eq!(s.count("a"), 3);
        assert_eq!(s.count("b"), 0);
    }
}
