//! Order statistics over measured samples.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`);
/// 0 for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (total order) and returns them.
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of unsorted values; 0 for none.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// Milliseconds of a duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A latency sample set in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Records one sample in milliseconds.
    pub fn push_ms(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Records one duration.
    pub fn push(&mut self, d: Duration) {
        self.values.push(ms(d));
    }

    /// Appends another set.
    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Percentile `p` in `[0, 1]` (nearest rank).
    #[must_use]
    pub fn pct(&self, p: f64) -> f64 {
        percentile(&sorted(self.values.clone()), p)
    }

    /// Sum of the samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean; 0 for none.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
