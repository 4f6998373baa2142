//! The benchmark's own statistics: medians, the tail-percentile rule,
//! failure accounting, and closed-loop throughput.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A latency percentile together with the sample it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `(0, 100]`.
    pub percentile: f64,
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile, capped at 99, that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, by nearest rank. A sample too
/// small to support even the median that way reports its maximum
/// (percentile 100, nothing beyond) so the figure is never silently
/// read as a p99. `None` for an empty sample.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let supported = 1.0 - TAIL_MIN_BEYOND as f64 / n as f64;
    if supported < 0.5 {
        return Some(Tail {
            percentile: 100.0,
            value: v[n - 1],
            samples: n,
            beyond: 0,
        });
    }
    let level = supported.min(0.99);
    // Nearest rank: the smallest rank r with r / n >= level. The epsilon
    // keeps an exact product such as 0.99 * 1000 from rounding up a rank.
    let rank = ((level * n as f64) - 1e-9).ceil().max(1.0) as usize;
    Some(Tail {
        percentile: 100.0 * level,
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Operations attempted and failed in one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed: errored, refused, closed, or whose output
    /// did not match the reference.
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Throughput of a closed loop over `(sent, replied, succeeded)` requests:
/// those that succeeded over the window from the first send to the last
/// reply. A request still in flight when the deadline passes is waited
/// for and counted, because it was sent inside the window, and the window
/// grows to its reply; a failed request occupied its caller but completed
/// nothing. 0 for an empty or zero-length window.
pub fn closed_loop_qps(requests: impl IntoIterator<Item = (Instant, Instant, bool)>) -> f64 {
    let mut window: Option<(Instant, Instant)> = None;
    let mut completed = 0u64;
    for (sent, replied, ok) in requests {
        window = Some(window.map_or((sent, replied), |(a, b)| (a.min(sent), b.max(replied))));
        completed += u64::from(ok);
    }
    match window {
        Some((first, last)) if last > first => completed as f64 / (last - first).as_secs_f64(),
        _ => 0.0,
    }
}

/// FNV-1a over a stream of 64-bit words: the digests the benchmark
/// compares between runs and between workloads.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the rule must not depend on input order.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!((t.samples, t.beyond), (1000, 10));

        let t = tail(&ramp(5000)).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 50);
    }

    #[test]
    fn tail_drops_to_the_highest_percentile_the_sample_supports() {
        // 500 samples support p98 with exactly ten beyond, not p99.
        let t = tail(&ramp(500)).unwrap();
        assert!((t.percentile - 98.0).abs() < 1e-9);
        assert_eq!(t.value, 490.0);
        assert_eq!((t.samples, t.beyond), (500, 10));

        // 20 samples support only the median.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!(t.percentile, 50.0);
        assert_eq!((t.value, t.beyond), (10.0, 10));
        for n in [20, 37, 250, 999, 1001, 12_345] {
            let t = tail(&ramp(n)).unwrap();
            assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
            assert_eq!(t.samples, n);
        }
    }

    #[test]
    fn tail_of_a_small_sample_is_its_labelled_maximum() {
        let t = tail(&[2.0, 9.0, 4.0]).unwrap();
        assert_eq!(
            t,
            Tail {
                percentile: 100.0,
                value: 9.0,
                samples: 3,
                beyond: 0
            }
        );
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn error_rate_counts_every_failure_against_attempts() {
        let mut t = Tally::default();
        for ok in [true, false, true, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.error_rate(), 0.25);
        let mut sum = Tally::default();
        sum.merge(t);
        sum.merge(Tally {
            attempted: 4,
            failed: 3,
        });
        assert_eq!(sum.error_rate(), 0.5);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn closed_loop_qps_counts_completions_over_the_whole_window() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        let requests = [
            // Connection A: two replies back to back.
            (at(0), at(1000), true),
            (at(1000), at(2000), true),
            // Connection B: a failed request, then two more; the last was
            // sent before the deadline and lands after it, at 2.5 s.
            (at(0), at(100), false),
            (at(100), at(1900), true),
            (at(1900), at(2500), true),
        ];
        assert_eq!(closed_loop_qps(requests), 4.0 / 2.5);
        assert_eq!(closed_loop_qps([]), 0.0);
        assert_eq!(closed_loop_qps([(t0, t0, true)]), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
    }
}
