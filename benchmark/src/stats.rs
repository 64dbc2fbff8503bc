//! Order statistics over latency samples, and the FNV digest of a run's
//! generated inputs.

/// The `q`-quantile (`0.0..=1.0`) of `sorted`, linearly interpolated
/// between the two closest ranks (rank `q * (n - 1)`), so the median of
/// an even-sized sample is the mean of its two middle values.
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    at_rank(sorted, q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64)
}

/// The value at fractional 0-based `rank`, between its two neighbours.
fn at_rank(sorted: &[f64], rank: f64) -> f64 {
    let rank = rank.clamp(0.0, (sorted.len() - 1) as f64);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts `samples` in place and returns them, for [`percentile`].
pub fn sorted(samples: &mut [f64]) -> &[f64] {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of an unsorted sample (sorts a copy).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    percentile(sorted(&mut v), 0.5)
}

/// Geometric mean; the per-query medians of a rotating query list are
/// combined this way so that every query moves the figure by its own
/// ratio, whatever its absolute cost.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Interquartile range as a share of the median — the spread the
/// builder contract judges (quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them: exclusive method,
/// rank `q * (n + 1)`).
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    let v = sorted(&mut v);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |q: f64| at_rank(v, q * (n + 1) as f64 - 1.0);
    (at(0.75) - at(0.25)) / percentile(v, 0.5)
}

/// Incremental FNV-1a over the generated inputs of a run (`se_sds::
/// checksum64`'s function, fed piecewise): two runs that print the same
/// `input_digest` issued the same queries and batches.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(se_sds::checksum64(&[]))
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator: "ab"+"c" and "a"+"bc" must differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn graph(&mut self, g: &se_rdf::Graph) {
        for t in g {
            self.text(&t.to_string());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        // rank 0.5 * 3 = 1.5: halfway between 20 and 30.
        assert_eq!(percentile(&v, 0.5), 25.0);
        // rank 0.99 * 3 = 2.97.
        assert!((percentile(&v, 0.99) - 39.7).abs() < 1e-9);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_weights_ratios_not_magnitudes() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.text("ab");
        a.text("c");
        let mut b = Digest::default();
        b.text("a");
        b.text("bc");
        assert_ne!(a.value(), b.value());
        assert_eq!(Digest::default().value(), se_sds::checksum64(&[]));
    }
}
