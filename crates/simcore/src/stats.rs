//! Statistics collectors used by the simulation and the experiment harness.
//!
//! All collectors are plain accumulators: cheap to update on the hot path,
//! with derived quantities (means, variances, quantiles) computed on demand.

/// Streaming mean / variance via Welford's algorithm, plus min/max.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Half-width of the normal-approximation 95% confidence interval of the
    /// mean. Zero for fewer than two observations.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.stddev() / (self.n as f64).sqrt()
        }
    }

    /// Merge another accumulator into this one (parallel Welford update).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Sub-bucket resolution bits of [`LogHistogram`]: 2^6 = 64 sub-buckets
/// per power-of-two octave.
const LOG_HIST_SUB_BITS: u32 = 6;
/// Sub-buckets per octave.
const LOG_HIST_SUBS: u64 = 1 << LOG_HIST_SUB_BITS;
/// Total bucket count: 64 exact buckets for values `0..64`, then 58
/// octaves (msb 6..=63) of 64 sub-buckets each.
const LOG_HIST_BUCKETS: usize = ((64 - LOG_HIST_SUB_BITS as usize) * 64) + 64;

/// A log-bucketed, HDR-style histogram over `u64` values.
///
/// Values `0..64` land in exact unit buckets; larger values share an
/// octave (a power-of-two range) split into 64 sub-buckets, so every
/// bucket's width is at most `1/64` of its lower bound. Quantile queries
/// return the containing bucket's upper bound, giving a one-sided
/// guarantee: the reported `q`-quantile is `>=` the exact rank-`⌈q·n⌉`
/// order statistic and overestimates it by at most a factor of
/// `1 + 1/64` (≈ 1.6%, see [`LogHistogram::RELATIVE_ERROR`]).
///
/// The structure is deterministic and mergeable: [`LogHistogram::merge`]
/// is element-wise bucket addition (plus an exact `u128` sum), so merging
/// is associative and commutative and recording order never matters —
/// the properties the parallel sweep runner and the threaded cluster rely
/// on to combine per-worker histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// Worst-case relative overestimate of a quantile query: bucket width
    /// over bucket lower bound, `1/64`.
    pub const RELATIVE_ERROR: f64 = 1.0 / 64.0;

    /// An empty histogram. Buckets are allocated lazily on first record,
    /// so an unused histogram costs only the struct itself.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Bucket index for `v`.
    #[inline]
    fn bucket_index(v: u64) -> usize {
        if v < LOG_HIST_SUBS {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let oct = msb - LOG_HIST_SUB_BITS + 1;
            let sub = (v >> (msb - LOG_HIST_SUB_BITS)) & (LOG_HIST_SUBS - 1);
            ((oct as usize) << LOG_HIST_SUB_BITS) | sub as usize
        }
    }

    /// Inclusive upper bound of bucket `index` (the largest value that
    /// maps to it).
    fn bucket_high(index: usize) -> u64 {
        if index < LOG_HIST_SUBS as usize {
            index as u64
        } else {
            let oct = (index >> LOG_HIST_SUB_BITS) as u32;
            let sub = index as u64 & (LOG_HIST_SUBS - 1);
            let low = (LOG_HIST_SUBS | sub) << (oct - 1);
            let width = 1u64 << (oct - 1);
            low + (width - 1)
        }
    }

    /// Record one observation of `v`.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; LOG_HIST_BUCKETS];
        }
        self.counts[Self::bucket_index(v)] += n;
        if self.total == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.total += n;
        self.sum += v as u128 * n as u128;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Merge `other` into `self` (element-wise bucket addition). The
    /// result equals recording both input streams into one histogram, in
    /// any order — merge is associative and commutative.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.total == 0 {
            return;
        }
        if self.total == 0 {
            *self = other.clone();
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; LOG_HIST_BUCKETS];
        }
        for (dst, &src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0 < q <= 1`): the upper bound of the bucket
    /// holding the rank-`⌈q·n⌉` observation, clamped to the recorded
    /// maximum. Returns 0 when empty. The result is `>=` the exact
    /// order statistic and at most `(1 + RELATIVE_ERROR)` times it.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Iterate non-empty buckets as `(inclusive_upper_bound, count)`
    /// pairs, in increasing bound order — the shape the Prometheus text
    /// renderer needs for cumulative `le` buckets.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_high(i), c))
    }
}

/// Ratio of two counters with a guarded denominator (e.g. admitted/offered).
#[inline]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Jain's fairness index over non-negative allocations:
/// `(Σx)² / (n · Σx²)`, in `(0, 1]`; 1 means perfectly even. Returns 1 for
/// empty or all-zero input (nothing is unfair about nothing).
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    debug_assert!(
        xs.iter().all(|&x| x >= 0.0),
        "allocations must be non-negative"
    );
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|&x| x * x).sum();
    if sum_sq == 0.0 {
        1.0
    } else {
        sum * sum / (xs.len() as f64 * sum_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.record(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // population variance is 4.0; sample variance is 32/7
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
        assert!(w.ci95_half_width() > 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(5, 10), 0.5);
    }

    #[test]
    fn log_histogram_small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        for v in 1..=64u64 {
            let q = v as f64 / 64.0;
            assert_eq!(h.quantile(q), v - 1, "q={q}");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.sum(), (0..64u64).sum::<u64>() as u128);
    }

    #[test]
    fn log_histogram_error_bound_holds() {
        // Every bucket's upper bound is within 1/64 of its lower bound.
        for v in [64u64, 100, 1000, 65_535, 1 << 30, u64::MAX / 3, u64::MAX] {
            let mut h = LogHistogram::new();
            h.record(v);
            let q = h.quantile(1.0);
            assert!(q >= v, "quantile {q} < recorded {v}");
            let rel = (q - v) as f64 / v as f64;
            assert!(
                rel <= LogHistogram::RELATIVE_ERROR,
                "value {v}: rel err {rel}"
            );
        }
    }

    #[test]
    fn log_histogram_empty_and_mean() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        let mut h = LogHistogram::new();
        h.record_n(10, 3);
        h.record(20);
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_merge_is_associative_and_order_invariant() {
        use crate::check::{forall, gen};
        forall(
            "log_hist_merge_assoc",
            0xA19,
            64,
            |rng| {
                let part = |rng: &mut crate::rng::SimRng| {
                    gen::vec(rng, 0, 40, |r| match gen::u8_in(r, 0, 3) {
                        0 => gen::u64_in(r, 0, 128),
                        1 => gen::u64_in(r, 0, 1 << 20),
                        _ => gen::any_u64(r),
                    })
                };
                (part(rng), part(rng), part(rng))
            },
            |(a, b, c)| {
                let hist = |vs: &[u64]| {
                    let mut h = LogHistogram::new();
                    for &v in vs {
                        h.record(v);
                    }
                    h
                };
                let (ha, hb, hc) = (hist(a), hist(b), hist(c));
                // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
                let mut left = ha.clone();
                left.merge(&hb);
                left.merge(&hc);
                let mut bc = hb.clone();
                bc.merge(&hc);
                let mut right = ha.clone();
                right.merge(&bc);
                if left != right {
                    return Err("merge not associative".into());
                }
                // Recording the concatenation in any order gives the same
                // histogram as merging the parts.
                let mut all: Vec<u64> = a.iter().chain(b).chain(c).copied().collect();
                all.reverse();
                if hist(&all) != left {
                    return Err("merge differs from order-reversed recording".into());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn log_histogram_quantile_error_bound_vs_exact_sort() {
        use crate::check::{forall, gen};
        forall(
            "log_hist_quantile_bound",
            0xA19,
            64,
            |rng| {
                gen::vec(rng, 1, 200, |r| match gen::u8_in(r, 0, 2) {
                    0 => gen::u64_in(r, 0, 1000),
                    _ => gen::u64_in(r, 0, 1 << 40),
                })
            },
            |vs| {
                let mut h = LogHistogram::new();
                for &v in vs {
                    h.record(v);
                }
                let mut sorted = vs.clone();
                sorted.sort_unstable();
                for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
                    let rank = ((q * vs.len() as f64).ceil() as usize).clamp(1, vs.len());
                    let exact = sorted[rank - 1];
                    let approx = h.quantile(q);
                    if approx < exact {
                        return Err(format!("q={q}: approx {approx} < exact {exact}"));
                    }
                    let bound = exact as f64 * (1.0 + LogHistogram::RELATIVE_ERROR);
                    if approx as f64 > bound {
                        return Err(format!(
                            "q={q}: approx {approx} > bound {bound} (exact {exact})"
                        ));
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn log_histogram_nonzero_buckets_are_cumulative_consistent() {
        let mut h = LogHistogram::new();
        for v in [1u64, 1, 5, 100, 100_000] {
            h.record(v);
        }
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "bounds sorted");
    }

    #[test]
    fn jain_fairness_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert!((jain_fairness(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One node hogging everything: index = 1/n.
        let skew = jain_fairness(&[10.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12, "skew {skew}");
        let mid = jain_fairness(&[1.0, 2.0, 3.0]);
        assert!(mid > 0.25 && mid < 1.0);
    }
}
