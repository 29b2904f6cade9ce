//! Order statistics, the open-loop arrival schedule and the failure tally.

use std::time::Duration;

/// Nearest-rank `q`-quantile (`0 < q ≤ 1`) of `samples`: the smallest
/// sample with at least `⌈q·n⌉` samples at or below it.
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one op.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// Nearest-rank median (the lower middle sample for even counts).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// 1-based rank of the nearest-rank `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `q`-quantile. A tail
/// percentile is only reported as trustworthy with at least ten.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// A fixed-rate open-loop arrival schedule: request `i` is due `i / rate`
/// seconds after the start, whether or not earlier requests were answered.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    rate: f64,
}

impl Schedule {
    /// A schedule offering `rate` requests per second.
    ///
    /// # Panics
    /// Panics unless `rate` is positive and finite.
    pub fn new(rate: f64) -> Schedule {
        assert!(rate.is_finite() && rate > 0.0, "bad rate {rate}");
        Schedule { rate }
    }

    /// When request `i` is due, relative to the start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// Requests due within the first `seconds` (at least one).
    pub fn count_within(&self, seconds: f64) -> usize {
        ((seconds * self.rate).ceil() as usize).max(1)
    }
}

/// Attempted and failed operations. A refused or wrong answer is a failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted. A run that attempted nothing counts as
    /// wholly failed, so it can never pass as clean.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[7.5], 0.9), 7.5);
    }

    #[test]
    fn tail_sample_counts() {
        // p90 of 100 samples is rank 90: ten samples lie beyond it.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(0, 0.9), 0);
        assert_eq!(samples_beyond(1, 0.5), 0);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        let s = Schedule::new(40.0);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_millis(25));
        assert_eq!(s.due(40), Duration::from_secs(1));
        assert_eq!(s.count_within(20.0), 800);
        assert_eq!(s.count_within(0.01), 1);
        let gaps: Vec<Duration> = (1..100).map(|i| s.due(i) - s.due(i - 1)).collect();
        assert!(gaps
            .iter()
            .all(|g| g.abs_diff(Duration::from_millis(25)) < Duration::from_micros(1)));
    }

    #[test]
    #[should_panic(expected = "bad rate")]
    fn schedule_rejects_zero_rate() {
        Schedule::new(0.0);
    }

    #[test]
    fn failed_fraction_arithmetic() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 1.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
        t.absorb(Tally {
            attempted: 4,
            failed: 0,
        });
        assert_eq!(t.failed_frac(), 0.125);
        let clean = Tally {
            attempted: 10,
            failed: 0,
        };
        assert_eq!(clean.failed_frac(), 0.0);
    }
}
