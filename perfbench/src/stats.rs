//! Order statistics for latency samples.

/// Samples a tail rank must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice; every caller has at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// 1-based rank in ascending order.
    pub rank: usize,
    /// Sample count.
    pub n: usize,
}

impl Tail {
    /// Samples ranked above this one.
    pub fn beyond(&self) -> usize {
        self.n - self.rank
    }

    /// The percentile this rank stands for: the share of samples at or
    /// below it.
    pub fn percentile(&self) -> f64 {
        100.0 * self.rank as f64 / self.n as f64
    }

    /// Whether the sample is large enough for the tail rule: at least
    /// [`TAIL_BEYOND`] samples beyond the reported one. When it is not,
    /// the tail is the maximum.
    pub fn meets_rule(&self) -> bool {
        self.beyond() >= TAIL_BEYOND
    }

    /// One line saying which percentile this is and of how many samples.
    pub fn describe(&self) -> String {
        if self.meets_rule() {
            format!(
                "p{:.1}: rank {} of n={}, {} samples beyond",
                self.percentile(),
                self.rank,
                self.n,
                self.beyond()
            )
        } else {
            format!(
                "maximum of n={}: fewer than {} samples, so no percentile has {} beyond it",
                self.n,
                TAIL_BEYOND + 1,
                TAIL_BEYOND
            )
        }
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, or the maximum when there are too few samples for one.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = if n > TAIL_BEYOND { n - TAIL_BEYOND } else { n };
    Tail {
        value: sorted[rank - 1],
        rank,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_leaves_ten_samples_beyond() {
        for n in TAIL_BEYOND + 1..400 {
            let samples: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let t = tail(&samples);
            assert!(t.meets_rule(), "n={n}");
            assert_eq!(t.beyond(), TAIL_BEYOND, "n={n}: the highest such rank");
            let above = samples.iter().filter(|&&s| s > t.value).count();
            assert_eq!(above, TAIL_BEYOND, "n={n}: {above} samples above the tail");
        }
    }

    #[test]
    fn twenty_samples_do_not_make_a_p99() {
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.rank, t.value), (10, 10.0));
        assert_eq!(t.percentile(), 50.0);
    }

    #[test]
    fn short_samples_report_the_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.rank, t.n), (3.0, 3, 3));
        assert!(!t.meets_rule());
        assert!(t.describe().starts_with("maximum of n=3"));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
