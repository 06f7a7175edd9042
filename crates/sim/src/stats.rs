//! Online statistics for simulation output analysis.
//!
//! * [`Welford`] — numerically stable running mean/variance (one pass, O(1)
//!   memory), the workhorse for per-class delay measurements.
//! * [`TimeWeighted`] — time-average of a piecewise-constant signal (queue
//!   lengths, busy indicators); this is what Little's-law checks need.
//! * [`SummaryStats`] — a serializable snapshot for reports.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Welford's online algorithm for mean and variance.
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// Folds one observation in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "observation must be finite (got {x})");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (parallel reduction; Chan et al.).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub(crate) fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub(crate) fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of a two-sided 95% CI on the mean.
    ///
    /// Uses Student-t critical values for `n < 30` (replication counts of
    /// 5–10 are the norm; the z = 1.96 normal approximation understates the
    /// interval badly there) and the normal approximation above.
    pub fn ci95_halfwidth(&self) -> f64 {
        critical_value_95(self.n) * self.std_err()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Reconstructs an accumulator from a serialized snapshot, so reports
    /// from independent replications can be pooled with [`Welford::merge`].
    ///
    /// The count, mean, and extremes round-trip exactly; the second moment
    /// is rebuilt from the standard deviation (one sqrt/square round trip,
    /// exact to within an ulp), so pooled *means* are bit-identical to a
    /// merge of the original accumulators while pooled variances agree to
    /// floating-point noise.
    pub fn from_summary(s: &SummaryStats) -> Self {
        if s.count == 0 {
            return Welford::new();
        }
        Welford {
            n: s.count,
            mean: s.mean,
            m2: s.std_dev * s.std_dev * (s.count - 1) as f64,
            min: s.min,
            max: s.max,
        }
    }

    /// Serializable snapshot.
    pub fn summary(&self) -> SummaryStats {
        SummaryStats {
            count: self.n,
            mean: self.mean(),
            std_dev: self.std_dev(),
            ci95: self.ci95_halfwidth(),
            // Empty only as `count: 0`, the documented empty snapshot
            // (`SummaryStats::default()`): readers gate on `count`.
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
        }
    }
}

/// Two-sided 95% critical values of Student's t for `df = n − 1 ∈ [1, 29]`.
///
/// `t_{0.975, df}` — the exact small-sample multiplier for a CI on the mean
/// of iid normal observations. Indexed by `df - 1`.
const T_95: [f64; 29] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045,
];

/// `z_{0.975}` — the large-sample limit of the t critical values.
const Z_95: f64 = 1.959_963_984_540_054;

/// Two-sided 95% critical value for a CI on a mean of `n` observations:
/// Student-t (`df = n − 1`) below 30 observations, normal above.
///
/// With `n < 2` there is no variance estimate at all; the returned value is
/// irrelevant (the standard error is 0) but kept finite.
pub(crate) fn critical_value_95(n: u64) -> f64 {
    if n < 2 {
        Z_95
    } else if n < 30 {
        T_95[(n - 2) as usize]
    } else {
        Z_95
    }
}

/// A serializable statistics snapshot. The `Default` value is the empty
/// snapshot (count 0, all moments 0) — the serde fallback for fields added
/// to reports after older JSON was written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Observation count.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// 95% confidence-interval half-width on the mean (Student-t below 30
    /// observations, normal approximation above).
    pub ci95: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

/// Time-average of a piecewise-constant signal, e.g. a queue length.
///
/// Feed it `(time, new_value)` transitions in non-decreasing time order;
/// `time_average(now)` integrates the trajectory up to `now`.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    start: SimTime,
    last_t: SimTime,
    last_v: f64,
    area: f64,
    peak: f64,
}

impl TimeWeighted {
    /// Starts tracking at `start` with initial value `v0`.
    pub fn new(start: SimTime, v0: f64) -> Self {
        TimeWeighted {
            start,
            last_t: start,
            last_v: v0,
            area: 0.0,
            peak: v0,
        }
    }

    /// The signal changed to `v` at time `t` (must not precede the previous
    /// transition).
    pub fn set(&mut self, t: SimTime, v: f64) {
        assert!(
            t >= self.last_t,
            "time-weighted updates must be non-decreasing in time"
        );
        // Equal-value "transitions" are common on hot paths (the pull
        // queue's item count is unchanged when a request joins an already
        // queued item); the trajectory is identical either way, so defer
        // the area accumulation to the next real transition. Accumulating
        // one `last_v·(t₂−t₀)` instead of two partial spans also rounds
        // less.
        if v == self.last_v {
            return;
        }
        self.area += self.last_v * (t - self.last_t).as_f64();
        self.last_t = t;
        self.last_v = v;
        self.peak = self.peak.max(v);
    }

    /// Adds `delta` to the current value at time `t`.
    pub fn add(&mut self, t: SimTime, delta: f64) {
        let v = self.last_v + delta;
        self.set(t, v);
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.last_v
    }

    /// Largest value the signal ever took.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-average over `[start, now]`; `None` if no time has elapsed.
    pub fn time_average(&self, now: SimTime) -> Option<f64> {
        let span = (now - self.start).as_f64();
        if span <= 0.0 {
            return None;
        }
        let area = self.area + self.last_v * (now - self.last_t).as_f64();
        Some(area / span)
    }
}

/// MSER-k warm-up truncation (White, 1997): batch the series into means of
/// `batch` observations, then pick the truncation point `d` minimizing
///
/// ```text
/// MSER(d) = s²_{d..n} / (n − d)
/// ```
///
/// over the first half of the batched series (the classic guard against
/// tail instability). Returns the suggested number of *raw observations*
/// to discard. MSER-5 (`batch = 5`) is the standard recommendation.
///
/// # Panics
/// Panics if `batch == 0`.
pub fn mser_truncation(series: &[f64], batch: usize) -> usize {
    assert!(batch > 0, "batch size must be positive");
    let n_batches = series.len() / batch;
    if n_batches < 4 {
        return 0; // too short to say anything
    }
    let means: Vec<f64> = (0..n_batches)
        .map(|b| {
            let chunk = &series[b * batch..(b + 1) * batch];
            chunk.iter().sum::<f64>() / batch as f64
        })
        .collect();
    let mut best_d = 0usize;
    let mut best_stat = f64::INFINITY;
    // Suffix sums for O(n) evaluation of all truncation points.
    let mut suffix_sum = vec![0.0; n_batches + 1];
    let mut suffix_sq = vec![0.0; n_batches + 1];
    for i in (0..n_batches).rev() {
        suffix_sum[i] = suffix_sum[i + 1] + means[i];
        suffix_sq[i] = suffix_sq[i + 1] + means[i] * means[i];
    }
    for d in 0..n_batches / 2 {
        let m = (n_batches - d) as f64;
        let mean = suffix_sum[d] / m;
        let var = (suffix_sq[d] / m - mean * mean).max(0.0);
        let stat = var / m;
        if stat < best_stat {
            best_stat = stat;
            best_d = d;
        }
    }
    best_d * batch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // population variance is 4 → sample variance is 4 * 8/7
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn welford_empty_is_safe() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
        assert_eq!(w.std_err(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        let b = Welford::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 1.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut small = Welford::new();
        let mut large = Welford::new();
        let mut x: f64 = 0.37;
        for i in 0..10_000 {
            x = (x * 997.0 + 0.1).fract();
            large.push(x);
            if i < 100 {
                small.push(x);
            }
        }
        assert!(large.ci95_halfwidth() < small.ci95_halfwidth());
    }

    #[test]
    fn small_sample_ci_uses_student_t() {
        // Five replications: the z = 1.96 normal approximation understates
        // the interval; the t multiplier for df = 4 is 2.776.
        let mut w = Welford::new();
        for x in [10.0, 12.0, 9.0, 11.0, 13.0] {
            w.push(x);
        }
        let expected = 2.776 * w.std_err();
        assert!((w.ci95_halfwidth() - expected).abs() < 1e-12);
        assert!(w.ci95_halfwidth() > 1.959_963_984_540_054 * w.std_err());
    }

    #[test]
    fn large_sample_ci_uses_normal_approximation() {
        let mut w = Welford::new();
        for i in 0..30 {
            w.push(i as f64);
        }
        let expected = 1.959_963_984_540_054 * w.std_err();
        assert!((w.ci95_halfwidth() - expected).abs() < 1e-12);
    }

    #[test]
    fn critical_values_decrease_toward_z() {
        for n in 2..60u64 {
            assert!(critical_value_95(n + 1) <= critical_value_95(n));
            assert!(critical_value_95(n) >= Z_95);
        }
        assert_eq!(critical_value_95(2), 12.706);
        assert_eq!(critical_value_95(30), Z_95);
    }

    #[test]
    fn from_summary_round_trips_for_merging() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        let back = Welford::from_summary(&w.summary());
        assert_eq!(back.count(), w.count());
        assert_eq!(back.mean(), w.mean());
        assert_eq!(back.min(), w.min());
        assert_eq!(back.max(), w.max());
        assert!((back.variance() - w.variance()).abs() < 1e-12);
        // merging reconstructed accumulators pools means exactly
        let mut a = Welford::new();
        let mut b = Welford::new();
        for x in [1.0, 3.0, 5.0] {
            a.push(x);
        }
        for x in [2.0, 4.0] {
            b.push(x);
        }
        let mut direct = a.clone();
        direct.merge(&b);
        let mut via_summary = Welford::from_summary(&a.summary());
        via_summary.merge(&Welford::from_summary(&b.summary()));
        assert_eq!(via_summary.mean(), direct.mean());
        assert_eq!(via_summary.count(), direct.count());
    }

    #[test]
    fn from_summary_empty_is_empty() {
        let s = Welford::new().summary();
        let back = Welford::from_summary(&s);
        assert_eq!(back.count(), 0);
        assert_eq!(back.min(), None);
        let mut w = Welford::new();
        w.push(5.0);
        w.merge(&back);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), 5.0);
    }

    #[test]
    fn time_weighted_constant_signal() {
        let tw = TimeWeighted::new(SimTime::ZERO, 3.0);
        assert_eq!(tw.time_average(SimTime::new(10.0)), Some(3.0));
    }

    #[test]
    fn time_weighted_step_signal() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::new(5.0), 2.0); // 0 for 5 units, then 2 for 5 units
        let avg = tw.time_average(SimTime::new(10.0)).unwrap();
        assert!((avg - 1.0).abs() < 1e-12);
        assert_eq!(tw.peak(), 2.0);
        assert_eq!(tw.current(), 2.0);
    }

    #[test]
    fn time_weighted_add_tracks_queue() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.add(SimTime::new(1.0), 1.0); // len 1 from t=1
        tw.add(SimTime::new(2.0), 1.0); // len 2 from t=2
        tw.add(SimTime::new(3.0), -1.0); // len 1 from t=3
                                         // integral = 0*1 + 1*1 + 2*1 + 1*1 = 4 over 4 time units
        let avg = tw.time_average(SimTime::new(4.0)).unwrap();
        assert!((avg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_no_elapsed_time() {
        let tw = TimeWeighted::new(SimTime::new(5.0), 1.0);
        assert_eq!(tw.time_average(SimTime::new(5.0)), None);
    }

    #[test]
    fn mser_detects_an_initial_transient() {
        // ramp 100→0 over the first 200 samples, then stationary noise
        let mut xs = Vec::new();
        let mut r: f64 = 0.3;
        for i in 0..200 {
            r = (r * 997.0 + 0.1).fract();
            xs.push(100.0 * (1.0 - i as f64 / 200.0) + r);
        }
        for _ in 0..2_000 {
            r = (r * 997.0 + 0.1).fract();
            xs.push(r);
        }
        let cut = mser_truncation(&xs, 5);
        assert!(
            (100..=400).contains(&cut),
            "suggested warm-up {cut} should cover most of the 200-sample ramp"
        );
    }

    #[test]
    fn mser_keeps_stationary_series_whole() {
        let mut xs = Vec::new();
        let mut r: f64 = 0.7;
        for _ in 0..2_000 {
            r = (r * 997.0 + 0.1).fract();
            xs.push(r);
        }
        let cut = mser_truncation(&xs, 5);
        assert!(cut <= 200, "stationary series truncated by {cut}");
    }

    #[test]
    fn mser_short_series_is_untruncated() {
        assert_eq!(mser_truncation(&[1.0, 2.0, 3.0], 5), 0);
        assert_eq!(mser_truncation(&[], 5), 0);
    }

    #[test]
    fn summary_round_trips_via_serde() {
        let mut w = Welford::new();
        w.push(1.0);
        w.push(3.0);
        let s = w.summary();
        let js = serde_json::to_string(&s).unwrap();
        let back: SummaryStats = serde_json::from_str(&js).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.count, 2);
        assert_eq!(back.mean, 2.0);
    }
}
