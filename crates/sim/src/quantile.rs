//! Streaming quantile estimation with the P² algorithm (Jain & Chlamtac,
//! CACM 1985).
//!
//! Tracks a single quantile in O(1) memory by maintaining five markers
//! whose heights approximate the quantile's position via piecewise-
//! parabolic interpolation. Accurate to a few percent for unimodal delay
//! distributions — exactly what per-class p95/p99 reporting needs without
//! storing millions of samples. [`Percentiles`] is the accumulator the
//! recorders use: exact while a stream is short, P² once it is not.

use serde::{Deserialize, Serialize};

/// Branchless cell search shared by the estimators: returns the index `k`
/// of the marker cell containing `x` (`0 ..= N-2`) and clamps the extreme
/// markers. A compare ladder would mispredict on nearly every call (the
/// cell is data-dependent), so the index is computed as a sum of
/// comparison results instead.
#[inline]
fn locate<const N: usize>(heights: &mut [f64; N], x: f64) -> usize {
    let mut k = 0usize;
    for h in &heights[1..N - 1] {
        k += (x >= *h) as usize;
    }
    if x < heights[0] {
        heights[0] = x;
    }
    if x >= heights[N - 1] {
        heights[N - 1] = x;
    }
    k
}

/// One P² marker-adjustment sweep over the interior markers. `m` is the
/// number of observations folded in since the markers were seeded, so the
/// desired position of interior marker `i` is
/// `desired0[i-1] + increments[i-1] * m`.
#[inline]
fn adjust<const N: usize>(
    heights: &mut [f64; N],
    positions: &mut [i64; N],
    desired0: &[f64],
    increments: &[f64],
    m: f64,
) {
    for i in 1..N - 1 {
        let pos = positions[i];
        let d = desired0[i - 1] + increments[i - 1] * m - pos as f64;
        let s: i64 = if d >= 1.0 && positions[i + 1] - pos > 1 {
            1
        } else if d <= -1.0 && positions[i - 1] - pos < -1 {
            -1
        } else {
            continue;
        };
        let sf = s as f64;
        let candidate = parabolic(heights, positions, i, sf);
        let new_height = if heights[i - 1] < candidate && candidate < heights[i + 1] {
            candidate
        } else {
            linear(heights, positions, i, sf)
        };
        heights[i] = new_height;
        positions[i] += s;
    }
}

/// Piecewise-parabolic height prediction. Algebraically identical to the
/// textbook three-division form, but over the common denominator
/// `(a + b)·a·b` so it costs a single division (the gaps `a`, `b` are
/// small integers, so the products are exact).
#[inline]
fn parabolic<const N: usize>(h: &[f64; N], p: &[i64; N], i: usize, s: f64) -> f64 {
    let a = (p[i] - p[i - 1]) as f64;
    let b = (p[i + 1] - p[i]) as f64;
    h[i] + s * ((a + s) * (h[i + 1] - h[i]) * a + (b - s) * (h[i] - h[i - 1]) * b)
        / ((a + b) * a * b)
}

/// Linear fallback when the parabolic prediction would leave the bracket.
#[inline]
fn linear<const N: usize>(h: &[f64; N], p: &[i64; N], i: usize, s: f64) -> f64 {
    let j = (i as f64 + s) as usize;
    h[i] + s * (h[j] - h[i]) / (p[j] - p[i]) as f64
}

/// Zero-based index of the ceil-rank `q`-quantile among `n ≥ 1` sorted
/// samples — the one exact-order-statistic convention of this module.
fn ceil_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Exact ceil-rank order statistic of the first `n` seeded heights, used
/// by both estimators before their markers are live.
fn exact_prefix<const N: usize>(heights: &[f64; N], n: usize, q: f64) -> f64 {
    let mut v: Vec<f64> = heights[..n].to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[ceil_rank(q, n)]
}

/// P² estimator for one quantile `q ∈ (0, 1)`.
///
/// Marker positions are kept as integers (they are sample ranks and only
/// ever move by ±1), and the *desired* positions are not materialized at
/// all — they are linear in the observation count
/// (`desired_i(n) = d0_i + inc_i · (n − 5)`), so the adjustment step
/// computes them on the fly. Both choices cut the per-push cost roughly in
/// half versus the textbook all-`f64` formulation, which matters because
/// `push` sits on the simulator's metrics hot path (several calls per
/// served request).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimated values at marker positions).
    heights: [f64; 5],
    /// Actual marker positions (1-indexed sample ranks).
    positions: [i64; 5],
    /// Initial desired positions of the three interior markers.
    desired0: [f64; 3],
    /// Desired-position increments per observation (interior markers).
    increments: [f64; 3],
    /// Observations seen so far.
    count: u64,
}

impl P2Quantile {
    /// An estimator for quantile `q`.
    ///
    /// # Panics
    /// Panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(
            q > 0.0 && q < 1.0,
            "quantile must lie strictly inside (0, 1), got {q}"
        );
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1, 2, 3, 4, 5],
            desired0: [1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q],
            increments: [q / 2.0, q, (1.0 + q) / 2.0],
            count: 0,
        }
    }

    /// Observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds one observation in. Non-finite samples (NaN, ±∞) are
    /// rejected — dropped without counting — because a single NaN would
    /// otherwise poison the marker heights permanently (every comparison
    /// against it is false) or panic the seed-phase sort.
    ///
    /// `#[inline]`: pushed several times per served request by the
    /// metrics collector, invoked cross-crate — without the hint it stays
    /// an outlined call and dominates the per-completion cost.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.count < 5 {
            self.heights[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            }
            return;
        }
        self.count += 1;
        let k = locate(&mut self.heights, x);
        for (i, p) in self.positions.iter_mut().enumerate().skip(1) {
            *p += (i > k) as i64;
        }
        let m = (self.count - 5) as f64;
        adjust(
            &mut self.heights,
            &mut self.positions,
            &self.desired0,
            &self.increments,
            m,
        );
    }

    /// Current estimate; `None` before any observation. With 5 samples or
    /// fewer, falls back to the exact order statistic — at exactly 5 the
    /// heights are still the sorted raw samples, and handing over to the
    /// untrained middle marker there would jump discontinuously (e.g. a
    /// p95 snapping from the max to the median-ish marker 2).
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n if n <= 5 => Some(exact_prefix(&self.heights, n as usize, self.q)),
            _ => Some(self.heights[2]),
        }
    }
}

/// Extended-P² estimator tracking **two** quantiles `q_lo < q_hi` over one
/// shared set of seven markers (min, `q_lo`/2, `q_lo`, midpoint, `q_hi`,
/// `(1+q_hi)/2`, max) — cf. Raatikainen, "Simultaneous estimation of
/// several percentiles" (1987).
///
/// One `push` costs roughly 1.3× a single-quantile [`P2Quantile::push`],
/// versus 2× for two independent estimators — this is what keeps the
/// telemetry recorder's per-completion p50/p95 tracking inside the
/// `BENCH_telemetry` overhead budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2Dual {
    q_lo: f64,
    q_hi: f64,
    heights: [f64; 7],
    positions: [i64; 7],
    desired0: [f64; 5],
    increments: [f64; 5],
    count: u64,
}

impl P2Dual {
    /// An estimator for the quantile pair `(q_lo, q_hi)`.
    ///
    /// # Panics
    /// Panics unless `0 < q_lo < q_hi < 1`.
    pub fn new(q_lo: f64, q_hi: f64) -> Self {
        assert!(
            q_lo > 0.0 && q_lo < q_hi && q_hi < 1.0,
            "need 0 < q_lo < q_hi < 1, got ({q_lo}, {q_hi})"
        );
        // Marker quantile fractions for the five interior markers.
        let t = [
            q_lo / 2.0,
            q_lo,
            (q_lo + q_hi) / 2.0,
            q_hi,
            (1.0 + q_hi) / 2.0,
        ];
        P2Dual {
            q_lo,
            q_hi,
            heights: [0.0; 7],
            positions: [1, 2, 3, 4, 5, 6, 7],
            desired0: t.map(|ti| 1.0 + 6.0 * ti),
            increments: t,
            count: 0,
        }
    }

    /// Observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds one observation in (see [`P2Quantile::push`] for why this is
    /// `#[inline]` and why non-finite samples are rejected).
    #[inline]
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.count < 7 {
            self.heights[self.count as usize] = x;
            self.count += 1;
            if self.count == 7 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            }
            return;
        }
        self.count += 1;
        let k = locate(&mut self.heights, x);
        for (i, p) in self.positions.iter_mut().enumerate().skip(1) {
            *p += (i > k) as i64;
        }
        let m = (self.count - 7) as f64;
        adjust(
            &mut self.heights,
            &mut self.positions,
            &self.desired0,
            &self.increments,
            m,
        );
    }

    fn estimate_at(&self, marker: usize, q: f64) -> Option<f64> {
        match self.count {
            0 => None,
            // ≤ 7: the heights are still the (sorted) raw samples, so the
            // exact order statistic is available; see P2Quantile::estimate
            // for why the boundary is inclusive.
            n if n <= 7 => Some(exact_prefix(&self.heights, n as usize, q)),
            _ => Some(self.heights[marker]),
        }
    }

    /// Current `q_lo` estimate; `None` before any observation. With 7
    /// samples or fewer, falls back to the exact order statistic.
    pub fn estimate_lo(&self) -> Option<f64> {
        self.estimate_at(2, self.q_lo)
    }

    /// Current `q_hi` estimate; `None` before any observation. With 7
    /// samples or fewer, falls back to the exact order statistic.
    pub fn estimate_hi(&self) -> Option<f64> {
        self.estimate_at(4, self.q_hi)
    }
}

/// Samples a [`Percentiles`] holds exactly before it starts streaming.
pub const EXACT_CAP: usize = 4096;

/// p50/p95/p99 of one sample stream: *exact* ceil-rank order statistics
/// while fewer than [`EXACT_CAP`] samples have arrived (an O(n) selection
/// per read), streaming P² estimates from then on — the buffered prefix
/// is replayed into a [`P2Dual`] (p50/p95) and a [`P2Quantile`] (p99) and
/// the remainder streams through them, so memory stays bounded however
/// long the stream runs.
///
/// Buffering first is also the cheaper path: selection is ~3× cheaper per
/// sample than P² marker updates, and the one-off replay runs the
/// estimators' branch-heavy inner loop hot in one tight batch instead of
/// interleaved with the caller's code. `default()` is the empty stream.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    exact: Vec<f64>,
    p2: Option<(P2Dual, P2Quantile)>,
}

impl Percentiles {
    /// Forgets every sample, keeping the exact buffer's capacity.
    pub fn clear(&mut self) {
        self.exact.clear();
        self.p2 = None;
    }

    /// Folds one finite sample in.
    ///
    /// `#[inline]`: sits on the per-completion path of the telemetry
    /// recorder, invoked cross-crate.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if let Some((dual, p99)) = &mut self.p2 {
            dual.push(x);
            p99.push(x);
        } else {
            self.exact.push(x);
            if self.exact.len() >= EXACT_CAP {
                self.engage_p2();
            }
        }
    }

    /// Replays the buffer into fresh streaming estimators (once per
    /// stream; outlined to keep `push` small).
    #[inline(never)]
    fn engage_p2(&mut self) {
        let mut dual = P2Dual::new(0.5, 0.95);
        let mut p99 = P2Quantile::new(0.99);
        for &x in &self.exact {
            dual.push(x);
            p99.push(x);
        }
        self.exact.clear();
        self.p2 = Some((dual, p99));
    }

    /// `[p50, p95, p99]`; each `None` while there is nothing to estimate
    /// it from.
    pub fn estimates(&self) -> [Option<f64>; 3] {
        if let Some((dual, p99)) = &self.p2 {
            return [dual.estimate_lo(), dual.estimate_hi(), p99.estimate()];
        }
        let n = self.exact.len();
        if n == 0 {
            return [None; 3];
        }
        // Selecting the p99 rank first lets the lower ranks select
        // within ever smaller prefixes.
        let (i50, i95, i99) = (ceil_rank(0.5, n), ceil_rank(0.95, n), ceil_rank(0.99, n));
        let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("finite");
        let mut scratch = self.exact.clone();
        let p99 = *scratch.select_nth_unstable_by(i99, cmp).1;
        let p95 = *scratch[..=i99].select_nth_unstable_by(i95, cmp).1;
        let p50 = *scratch[..=i95].select_nth_unstable_by(i50, cmp).1;
        [Some(p50), Some(p95), Some(p99)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn exact_quantile(mut v: Vec<f64>, q: f64) -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let mut p = P2Quantile::new(0.5);
        assert_eq!(p.estimate(), None);
        p.push(3.0);
        assert_eq!(p.estimate(), Some(3.0));
        p.push(1.0);
        p.push(2.0);
        // exact median of {1,2,3} with ceil-rank convention: rank 2 → 2.0
        assert_eq!(p.estimate(), Some(2.0));
    }

    #[test]
    fn median_of_uniform_stream() {
        let mut p = P2Quantile::new(0.5);
        let mut rng = Xoshiro256::new(1);
        for _ in 0..100_000 {
            p.push(rng.next_f64());
        }
        let m = p.estimate().unwrap();
        assert!((m - 0.5).abs() < 0.01, "median {m}");
    }

    #[test]
    fn p95_of_exponential_stream() {
        // p95 of Exp(1) is ln(20) ≈ 2.9957
        let mut p = P2Quantile::new(0.95);
        let mut rng = Xoshiro256::new(2);
        for _ in 0..200_000 {
            let u: f64 = rng.next_f64();
            p.push(-(1.0 - u).ln());
        }
        let got = p.estimate().unwrap();
        let want = 20.0f64.ln();
        assert!(
            (got - want).abs() / want < 0.05,
            "p95 {got} vs exact {want}"
        );
    }

    #[test]
    fn agrees_with_exact_on_moderate_samples() {
        let mut rng = Xoshiro256::new(3);
        let xs: Vec<f64> = (0..5_000).map(|_| rng.next_f64().powi(2) * 100.0).collect();
        for &q in &[0.25, 0.5, 0.9, 0.99] {
            let mut p = P2Quantile::new(q);
            for &x in &xs {
                p.push(x);
            }
            let got = p.estimate().unwrap();
            let want = exact_quantile(xs.clone(), q);
            let tol = (want.abs() * 0.08).max(0.5);
            assert!(
                (got - want).abs() < tol,
                "q={q}: P² {got:.3} vs exact {want:.3}"
            );
        }
    }

    #[test]
    fn monotone_in_q() {
        let mut rng = Xoshiro256::new(4);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.next_f64() * 10.0).collect();
        let est = |q: f64| {
            let mut p = P2Quantile::new(q);
            for &x in &xs {
                p.push(x);
            }
            p.estimate().unwrap()
        };
        assert!(est(0.1) < est(0.5));
        assert!(est(0.5) < est(0.9));
    }

    #[test]
    fn extremes_are_tracked() {
        let mut p = P2Quantile::new(0.5);
        for i in 0..100 {
            p.push(i as f64);
        }
        // interior estimate stays inside the observed range
        let m = p.estimate().unwrap();
        assert!(m > 0.0 && m < 99.0);
    }

    #[test]
    #[should_panic(expected = "strictly inside")]
    fn invalid_q_rejected() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn serde_round_trip() {
        let mut p = P2Quantile::new(0.9);
        for i in 0..100 {
            p.push(i as f64);
        }
        let js = serde_json::to_string(&p).unwrap();
        let back: P2Quantile = serde_json::from_str(&js).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn dual_tracks_both_quantiles_of_an_exponential_stream() {
        // p50 of Exp(1) is ln 2, p95 is ln 20.
        let mut d = P2Dual::new(0.5, 0.95);
        let mut rng = Xoshiro256::new(9);
        let mut xs = Vec::new();
        for _ in 0..100_000 {
            let x = -(1.0 - rng.next_f64()).ln();
            d.push(x);
            xs.push(x);
        }
        let (lo, hi) = (d.estimate_lo().unwrap(), d.estimate_hi().unwrap());
        let (want_lo, want_hi) = (2.0f64.ln(), 20.0f64.ln());
        assert!(
            (lo - want_lo).abs() / want_lo < 0.05,
            "p50 {lo} vs {want_lo}"
        );
        assert!(
            (hi - want_hi).abs() / want_hi < 0.05,
            "p95 {hi} vs {want_hi}"
        );
        // and it agrees with the exact order statistics of the sample
        let exact_lo = exact_quantile(xs.clone(), 0.5);
        let exact_hi = exact_quantile(xs, 0.95);
        assert!((lo - exact_lo).abs() / exact_lo < 0.05);
        assert!((hi - exact_hi).abs() / exact_hi < 0.05);
    }

    #[test]
    fn dual_tiny_streams_fall_back_to_exact_order_statistics() {
        let mut d = P2Dual::new(0.5, 0.95);
        assert_eq!(d.estimate_lo(), None);
        assert_eq!(d.estimate_hi(), None);
        for x in [5.0, 1.0, 3.0] {
            d.push(x);
        }
        // exact ceil-rank on {1,3,5}: median rank 2 -> 3, p95 rank 3 -> 5
        assert_eq!(d.estimate_lo(), Some(3.0));
        assert_eq!(d.estimate_hi(), Some(5.0));
    }

    #[test]
    fn dual_estimates_stay_ordered_and_in_range() {
        let mut d = P2Dual::new(0.5, 0.95);
        let mut rng = Xoshiro256::new(11);
        for _ in 0..50_000 {
            d.push(rng.next_f64() * 100.0);
        }
        let (lo, hi) = (d.estimate_lo().unwrap(), d.estimate_hi().unwrap());
        assert!(lo <= hi, "p50 {lo} must not exceed p95 {hi}");
        assert!(lo > 0.0 && hi < 100.0);
    }

    #[test]
    #[should_panic(expected = "q_lo < q_hi")]
    fn dual_rejects_misordered_quantiles() {
        let _ = P2Dual::new(0.95, 0.5);
    }

    #[test]
    fn zero_and_one_sample_edge_cases() {
        let p = P2Quantile::new(0.95);
        assert_eq!(p.estimate(), None);
        let d = P2Dual::new(0.5, 0.95);
        assert_eq!(d.estimate_lo(), None);
        assert_eq!(d.estimate_hi(), None);

        let mut p = P2Quantile::new(0.95);
        p.push(42.0);
        assert_eq!(p.estimate(), Some(42.0));
        let mut d = P2Dual::new(0.5, 0.95);
        d.push(42.0);
        assert_eq!(d.estimate_lo(), Some(42.0));
        assert_eq!(d.estimate_hi(), Some(42.0));
    }

    #[test]
    fn estimates_stay_exact_through_the_seed_boundary() {
        // 5 samples into a 5-marker estimator / 7 into a 7-marker one:
        // the heights are still the sorted raw samples, so the estimate
        // must be the exact order statistic — not an untrained marker.
        let mut p = P2Quantile::new(0.95);
        for x in [10.0, 30.0, 20.0, 50.0, 40.0] {
            p.push(x);
        }
        assert_eq!(p.count(), 5);
        // exact p95 of 5 samples: ceil(0.95·5) = 5th smallest = 50
        assert_eq!(p.estimate(), Some(50.0));

        let mut d = P2Dual::new(0.5, 0.95);
        for x in [7.0, 1.0, 6.0, 2.0, 5.0, 3.0] {
            d.push(x);
        }
        // 6 samples: exact p50 rank ceil(3) = 3rd → 3.0, p95 rank 6 → 7.0
        assert_eq!(d.estimate_lo(), Some(3.0));
        assert_eq!(d.estimate_hi(), Some(7.0));
        d.push(4.0);
        assert_eq!(d.count(), 7);
        // 7 samples: exact p50 rank ceil(3.5) = 4th → 4.0, p95 rank 7 → 7.0
        assert_eq!(d.estimate_lo(), Some(4.0));
        assert_eq!(d.estimate_hi(), Some(7.0));
    }

    #[test]
    fn all_equal_values_collapse_to_that_value() {
        let mut p = P2Quantile::new(0.9);
        let mut d = P2Dual::new(0.5, 0.95);
        for _ in 0..1_000 {
            p.push(3.25);
            d.push(3.25);
        }
        assert_eq!(p.estimate(), Some(3.25));
        assert_eq!(d.estimate_lo(), Some(3.25));
        assert_eq!(d.estimate_hi(), Some(3.25));
    }

    #[test]
    fn non_finite_samples_are_rejected() {
        let mut p = P2Quantile::new(0.5);
        let mut d = P2Dual::new(0.5, 0.95);
        // NaN before the seed phase completes must not poison the sort…
        p.push(f64::NAN);
        d.push(f64::NAN);
        assert_eq!(p.count(), 0);
        assert_eq!(p.estimate(), None);
        for i in 0..100 {
            p.push(i as f64);
            d.push(i as f64);
            // …nor mid-stream, interleaved with good samples
            p.push(f64::NAN);
            d.push(f64::INFINITY);
            p.push(f64::NEG_INFINITY);
        }
        assert_eq!(p.count(), 100);
        assert_eq!(d.count(), 100);
        let m = p.estimate().unwrap();
        assert!(m.is_finite() && m > 0.0 && m < 99.0, "median {m}");
        let (lo, hi) = (d.estimate_lo().unwrap(), d.estimate_hi().unwrap());
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
    }

    #[test]
    fn dual_serde_round_trip() {
        let mut d = P2Dual::new(0.5, 0.95);
        for i in 0..100 {
            d.push(i as f64);
        }
        let js = serde_json::to_string(&d).unwrap();
        let back: P2Dual = serde_json::from_str(&js).unwrap();
        assert_eq!(back, d);
    }
}
