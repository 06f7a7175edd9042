//! The client request stream.
//!
//! Requests arrive as a Poisson process with aggregate rate λ′ (§4.1/§5.1);
//! each request independently picks an item by access probability and a
//! service class by population share. [`RequestGenerator`] is an infinite
//! iterator over [`Request`]s, deterministic for a given [`RngFactory`] —
//! the arrival, item-choice and class-choice streams are separate so that
//! changing one law leaves the others' draws untouched (common random
//! numbers).

use hybridcast_sim::dist::{Discrete, Exponential, PoissonCount};
use hybridcast_sim::ensure;
use hybridcast_sim::rng::{streams, RngFactory, Xoshiro256};
use hybridcast_sim::time::{SimDuration, SimTime};

use serde::{Deserialize, Serialize};

use crate::catalog::{Catalog, ItemId};
use crate::classes::{ClassId, ClassSet};

/// Popularity drift: every `period` broadcast units the rank→item mapping
/// rotates by `shift` positions, so the *identity* of the hot items moves
/// while the popularity *law* stays Zipf. A static push prefix decays in
/// usefulness under drift — the scenario that motivates the re-ranking
/// adaptive controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Rotation period in broadcast units.
    pub period: f64,
    /// Ranks shifted per period.
    pub shift: usize,
}

impl DriftConfig {
    /// What a drifting request stream requires, as a typed error.
    pub fn validate(&self) -> Result<(), String> {
        ensure(
            self.period > 0.0 && self.period.is_finite(),
            "drift period must be positive",
        )
    }
}

/// One client request for one item.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// When the request reaches the server.
    pub arrival: SimTime,
    /// The requested item.
    pub item: ItemId,
    /// The requesting client's service class.
    pub class: ClassId,
}

/// Anything that can feed requests to a simulation driver: the live
/// Poisson [`RequestGenerator`], or a recorded [`ReplaySource`] for
/// trace-driven simulation.
pub trait RequestSource {
    /// Arrival time of the next request, or `None` when the source is
    /// exhausted (a live generator never is).
    fn peek(&self) -> Option<SimTime>;

    /// Produces the next request.
    ///
    /// # Panics
    /// May panic if called after `peek` returned `None`.
    fn next_request(&mut self) -> Request;
}

/// Replays a recorded request trace in order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplaySource {
    trace: Vec<Request>,
    #[serde(default)]
    pos: usize,
}

impl ReplaySource {
    /// Builds a replay source from a trace sorted by arrival time.
    ///
    /// # Panics
    /// Panics if the trace is not sorted by arrival.
    pub fn new(trace: Vec<Request>) -> Self {
        for w in trace.windows(2) {
            assert!(
                w[0].arrival <= w[1].arrival,
                "trace must be sorted by arrival time"
            );
        }
        ReplaySource { trace, pos: 0 }
    }

    /// Requests remaining to replay.
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.pos
    }

    /// Total trace length.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// `true` for an empty trace.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }
}

impl RequestSource for ReplaySource {
    fn peek(&self) -> Option<SimTime> {
        self.trace.get(self.pos).map(|r| r.arrival)
    }

    fn next_request(&mut self) -> Request {
        let r = self.trace[self.pos];
        self.pos += 1;
        r
    }
}

/// One arrival-rate perturbation window for [`SurgeSource`]: while the
/// *output* clock lies in `[start, end)`, inter-arrival gaps of the inner
/// stream are divided by `factor`. `factor > 1` compresses gaps (an
/// arrival surge, e.g. a flash crowd); `factor < 1` stretches them (mass
/// client churn — a fraction of the population walked away).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurgeWindow {
    /// Window start (output-clock broadcast units).
    pub start: f64,
    /// Window end, exclusive.
    pub end: f64,
    /// Rate multiplier inside the window, positive and finite.
    pub factor: f64,
}

/// A [`RequestSource`] adaptor that applies piecewise rate perturbations
/// to an inner source — the fault-injection harness's "arrival surge" and
/// "mass churn" lever. Item and class choices are untouched (the same
/// requests arrive, just denser or sparser in time), the output stream
/// stays sorted, and everything is deterministic given the inner source.
///
/// Time change: each inner gap `Δ` becomes `Δ / factor(t_out)`, with the
/// factor sampled at the gap's starting output instant — exact for gaps
/// inside one window and a one-gap approximation at window edges.
pub struct SurgeSource {
    inner: Box<dyn RequestSource>,
    windows: Vec<SurgeWindow>,
    /// Output clock of the previous emitted request.
    out_prev: f64,
    /// Inner-clock arrival of the previous consumed request.
    in_prev: f64,
    /// The next request, already mapped to the output clock.
    staged: Option<Request>,
}

impl std::fmt::Debug for SurgeSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SurgeSource")
            .field("windows", &self.windows)
            .field("out_prev", &self.out_prev)
            .field("staged", &self.staged)
            .finish_non_exhaustive()
    }
}

impl SurgeSource {
    /// Wraps `inner` with the given perturbation windows.
    ///
    /// # Panics
    /// Panics if a window is empty/inverted or its factor is not a
    /// positive finite number.
    pub fn new(inner: Box<dyn RequestSource>, windows: Vec<SurgeWindow>) -> Self {
        for w in &windows {
            assert!(
                w.start.is_finite() && w.end.is_finite() && w.start < w.end,
                "surge window must satisfy start < end, got [{}, {})",
                w.start,
                w.end
            );
            assert!(
                w.factor > 0.0 && w.factor.is_finite(),
                "surge factor must be positive and finite, got {}",
                w.factor
            );
        }
        let mut src = SurgeSource {
            inner,
            windows,
            out_prev: 0.0,
            in_prev: 0.0,
            staged: None,
        };
        src.advance();
        src
    }

    fn factor_at(&self, t: f64) -> f64 {
        self.windows
            .iter()
            .find(|w| t >= w.start && t < w.end)
            .map(|w| w.factor)
            .unwrap_or(1.0)
    }

    /// Pulls the next inner request and maps it onto the output clock.
    fn advance(&mut self) {
        self.staged = match self.inner.peek() {
            None => None,
            Some(_) => {
                let req = self.inner.next_request();
                let gap = req.arrival.as_f64() - self.in_prev;
                debug_assert!(gap >= 0.0, "inner source went backwards");
                let out = self.out_prev + gap / self.factor_at(self.out_prev);
                self.in_prev = req.arrival.as_f64();
                self.out_prev = out;
                Some(Request {
                    arrival: SimTime::new(out),
                    ..req
                })
            }
        };
    }
}

impl RequestSource for SurgeSource {
    fn peek(&self) -> Option<SimTime> {
        self.staged.map(|r| r.arrival)
    }

    fn next_request(&mut self) -> Request {
        let out = self.staged.expect("next_request called on drained source");
        self.advance();
        out
    }
}

impl RequestSource for RequestGenerator {
    fn peek(&self) -> Option<SimTime> {
        Some(self.peek_time())
    }

    fn next_request(&mut self) -> Request {
        RequestGenerator::next_request(self)
    }
}

/// Infinite Poisson request stream over a catalog and class set.
#[derive(Debug, Clone)]
pub struct RequestGenerator {
    gap: Exponential,
    item_dist: Discrete,
    class_dist: Discrete,
    arrival_rng: Xoshiro256,
    item_rng: Xoshiro256,
    class_rng: Xoshiro256,
    next_arrival: SimTime,
    /// Epoch the pending `next_arrival` gap was drawn from — the anchor
    /// [`RequestGenerator::with_batching`] rescales the in-flight gap
    /// around when the epoch rate changes mid-stream.
    gap_base: SimTime,
    generated: u64,
    drift: Option<DriftConfig>,
    num_items: usize,
    /// Batch-Poisson burstiness: when set, arrivals come in bursts whose
    /// size is `1 + Poisson(mean − 1)`; epochs are thinned so the
    /// aggregate request rate stays λ′.
    batch: Option<PoissonCount>,
    /// Requests left to emit at the current instant.
    pending_in_batch: u32,
}

impl RequestGenerator {
    /// A stream with aggregate arrival rate `lambda` requests per broadcast
    /// unit, over `catalog`'s popularity law and `classes`' population split.
    ///
    /// # Panics
    /// Panics if `lambda` is not positive and finite.
    pub fn new(catalog: &Catalog, classes: &ClassSet, lambda: f64, factory: &RngFactory) -> Self {
        let gap = Exponential::new(lambda);
        let mut arrival_rng = factory.stream(streams::ARRIVALS);
        let first = SimTime::ZERO + SimDuration::new(gap.sample(&mut arrival_rng));
        RequestGenerator {
            gap,
            item_dist: catalog.sampler(),
            class_dist: classes.sampler(),
            arrival_rng,
            item_rng: factory.stream(streams::ITEM_CHOICE),
            class_rng: factory.stream(streams::CLASS_CHOICE),
            next_arrival: first,
            gap_base: SimTime::ZERO,
            generated: 0,
            drift: None,
            num_items: catalog.len(),
            batch: None,
            pending_in_batch: 0,
        }
    }

    /// Enables batch-Poisson burstiness with the given mean burst size
    /// (> 1). Burst epochs arrive at rate `λ′ / mean_batch`, so the
    /// aggregate request rate is unchanged.
    ///
    /// # Panics
    /// Panics unless `mean_batch > 1`.
    pub(crate) fn with_batching(mut self, mean_batch: f64) -> Self {
        Self::validate_batch_mean(mean_batch).unwrap_or_else(|e| panic!("{e}"));
        // epoch rate = λ / B; gap sampler is re-scaled accordingly
        self.gap = Exponential::new(self.gap.rate() / mean_batch);
        // The pending gap was drawn at the old epoch rate; scaling it by B
        // maps that Exp(λ) draw onto Exp(λ/B) exactly (inverse-CDF scaling),
        // reusing the uniform draw already consumed — the next epoch lands
        // at the new rate without disturbing the stream's determinism.
        let pending = self.next_arrival.as_f64() - self.gap_base.as_f64();
        self.next_arrival = SimTime::new(self.gap_base.as_f64() + pending * mean_batch);
        self.batch = Some(PoissonCount::new(mean_batch - 1.0));
        self
    }

    /// What [`with_batching`](Self::with_batching) requires of its mean
    /// burst size, as a typed error.
    pub(crate) fn validate_batch_mean(mean_batch: f64) -> Result<(), String> {
        ensure(
            mean_batch > 1.0 && mean_batch.is_finite(),
            format_args!("mean batch size must exceed 1 (got {mean_batch})"),
        )
    }

    /// Enables popularity drift on this stream.
    ///
    /// # Panics
    /// Panics with [`DriftConfig::validate`]'s message.
    pub(crate) fn with_drift(mut self, drift: Option<DriftConfig>) -> Self {
        if let Some(d) = &drift {
            d.validate().unwrap_or_else(|e| panic!("{e}"));
        }
        self.drift = drift;
        self
    }

    /// Maps a sampled popularity rank to the item holding that rank at
    /// time `t` (identity without drift).
    fn item_at(&self, rank: usize, t: SimTime) -> ItemId {
        match &self.drift {
            None => ItemId(rank as u32),
            Some(d) => {
                let epochs = (t.as_f64() / d.period).floor() as usize;
                let rotated = (rank + epochs * d.shift) % self.num_items;
                ItemId(rotated as u32)
            }
        }
    }

    /// Aggregate arrival rate λ′.
    pub fn rate(&self) -> f64 {
        self.gap.rate()
    }

    /// Requests generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Arrival time of the *next* request without consuming it.
    pub fn peek_time(&self) -> SimTime {
        self.next_arrival
    }

    /// Produces the next request.
    pub fn next_request(&mut self) -> Request {
        let arrival = self.next_arrival;
        let rank = self.item_dist.sample(&mut self.item_rng);
        let item = self.item_at(rank, arrival);
        let class = ClassId(self.class_dist.sample(&mut self.class_rng) as u8);
        self.generated += 1;

        // Advance time only when the current burst is exhausted.
        match &self.batch {
            None => {
                self.next_arrival =
                    arrival + SimDuration::new(self.gap.sample(&mut self.arrival_rng));
                self.gap_base = arrival;
            }
            Some(extra) => {
                if self.pending_in_batch > 0 {
                    self.pending_in_batch -= 1;
                } else {
                    // start the next burst at the next epoch
                    self.next_arrival =
                        arrival + SimDuration::new(self.gap.sample(&mut self.arrival_rng));
                    self.gap_base = arrival;
                    self.pending_in_batch = extra.sample(&mut self.arrival_rng) as u32;
                }
            }
        }
        Request {
            arrival,
            item,
            class,
        }
    }

    /// All requests with `arrival ≤ horizon`, consuming them.
    pub fn take_until(&mut self, horizon: SimTime) -> Vec<Request> {
        let mut out = Vec::new();
        while self.peek_time() <= horizon {
            out.push(self.next_request());
        }
        out
    }
}

impl Iterator for RequestGenerator {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(self.next_request())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lengths::LengthModel;
    use crate::popularity::PopularityModel;

    fn setup(lambda: f64, seed: u64) -> RequestGenerator {
        let factory = RngFactory::new(seed);
        let mut rng = factory.stream(streams::LENGTHS);
        let catalog = Catalog::build(
            100,
            &PopularityModel::zipf(1.0),
            &LengthModel::paper_default(),
            &mut rng,
        );
        let classes = ClassSet::paper_default();
        RequestGenerator::new(&catalog, &classes, lambda, &factory)
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let mut g = setup(5.0, 1);
        let mut last = SimTime::ZERO;
        for _ in 0..1000 {
            let r = g.next_request();
            assert!(r.arrival > last);
            last = r.arrival;
        }
    }

    #[test]
    fn arrival_rate_matches_lambda() {
        let mut g = setup(5.0, 2);
        let horizon = SimTime::new(20_000.0);
        let reqs = g.take_until(horizon);
        let rate = reqs.len() as f64 / horizon.as_f64();
        assert!((rate - 5.0).abs() < 0.1, "empirical rate {rate}");
    }

    #[test]
    fn item_choice_follows_popularity() {
        let mut g = setup(5.0, 3);
        let n = 100_000;
        let mut head = 0u64;
        for _ in 0..n {
            let r = g.next_request();
            if r.item.index() < 10 {
                head += 1;
            }
        }
        // Zipf(100, θ=1): top-10 mass = H(10)/H(100) ≈ 2.9290/5.1874 ≈ 0.565
        let f = head as f64 / n as f64;
        assert!((f - 0.565).abs() < 0.01, "top-10 share {f}");
    }

    #[test]
    fn class_choice_follows_population() {
        let mut g = setup(5.0, 4);
        let n = 100_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            counts[g.next_request().class.index()] += 1;
        }
        // paper default shares: A=2/11, B=3/11, C=6/11
        let a = counts[0] as f64 / n as f64;
        let c = counts[2] as f64 / n as f64;
        assert!((a - 2.0 / 11.0).abs() < 0.01, "A share {a}");
        assert!((c - 6.0 / 11.0).abs() < 0.01, "C share {c}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut g1 = setup(5.0, 7);
        let mut g2 = setup(5.0, 7);
        for _ in 0..100 {
            assert_eq!(g1.next_request(), g2.next_request());
        }
        let mut g3 = setup(5.0, 8);
        let same = (0..100)
            .filter(|_| g1.next_request() == g3.next_request())
            .count();
        assert!(same < 5, "different seeds should diverge");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut g = setup(5.0, 9);
        let t = g.peek_time();
        let r = g.next_request();
        assert_eq!(r.arrival, t);
        assert!(g.peek_time() > t);
        assert_eq!(g.generated(), 1);
    }

    #[test]
    fn take_until_respects_horizon() {
        let mut g = setup(5.0, 10);
        let reqs = g.take_until(SimTime::new(100.0));
        assert!(!reqs.is_empty());
        assert!(reqs.iter().all(|r| r.arrival <= SimTime::new(100.0)));
        assert!(g.peek_time() > SimTime::new(100.0));
    }

    #[test]
    fn batching_preserves_the_aggregate_rate() {
        let factory = RngFactory::new(17);
        let mut rng = factory.stream(streams::LENGTHS);
        let catalog = Catalog::build(
            50,
            &PopularityModel::zipf(0.6),
            &LengthModel::paper_default(),
            &mut rng,
        );
        let classes = ClassSet::paper_default();
        let mut g = RequestGenerator::new(&catalog, &classes, 5.0, &factory).with_batching(4.0);
        let horizon = SimTime::new(40_000.0);
        let reqs = g.take_until(horizon);
        let rate = reqs.len() as f64 / horizon.as_f64();
        assert!((rate - 5.0).abs() < 0.15, "bursty aggregate rate {rate}");
        // bursts share timestamps: far fewer distinct instants than requests
        let mut distinct = 1usize;
        for w in reqs.windows(2) {
            if w[0].arrival != w[1].arrival {
                distinct += 1;
            }
        }
        let mean_burst = reqs.len() as f64 / distinct as f64;
        assert!(
            (mean_burst - 4.0).abs() < 0.3,
            "mean burst size {mean_burst}"
        );
    }

    #[test]
    fn batching_is_deterministic() {
        let factory = RngFactory::new(3);
        let mut rng = factory.stream(streams::LENGTHS);
        let catalog = Catalog::build(
            20,
            &PopularityModel::zipf(0.6),
            &LengthModel::paper_default(),
            &mut rng,
        );
        let classes = ClassSet::paper_default();
        let mut a = RequestGenerator::new(&catalog, &classes, 5.0, &factory).with_batching(3.0);
        let mut b = RequestGenerator::new(&catalog, &classes, 5.0, &factory).with_batching(3.0);
        for _ in 0..500 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn batching_rescales_the_pending_first_epoch() {
        // The constructor draws the first gap at the aggregate rate λ;
        // with_batching retargets epochs to rate λ/B and must map the
        // already-drawn gap onto the new law (×B scaling), not leave a
        // pre-batching gap in flight. Statistically: the first epoch's
        // mean is B/λ, not 1/λ.
        let lambda = 5.0;
        let b = 4.0;
        let mut first = 0.0;
        let n = 2_000;
        for seed in 0..n {
            let g = setup(lambda, seed).with_batching(b);
            first += g.peek_time().as_f64();
        }
        let mean_first = first / n as f64;
        let want = b / lambda;
        assert!(
            (mean_first - want).abs() / want < 0.1,
            "first epoch mean {mean_first} vs expected {want} (pre-fix: {})",
            1.0 / lambda
        );
    }

    #[test]
    fn toggling_batching_after_polling_rescales_only_the_pending_gap() {
        // A stream polled once and then switched to batching keeps its
        // history and stretches the in-flight gap around the last epoch —
        // exactly ×B relative to an unbatched twin, with no RNG drift.
        let b = 3.0;
        let mut plain = setup(5.0, 42);
        let mut toggled = setup(5.0, 42);
        let p1 = plain.next_request();
        let t1 = toggled.next_request();
        assert_eq!(p1, t1);
        let mut toggled = toggled.with_batching(b);
        let plain_gap = plain.peek_time().as_f64() - p1.arrival.as_f64();
        let toggled_gap = toggled.peek_time().as_f64() - t1.arrival.as_f64();
        assert!(
            (toggled_gap - b * plain_gap).abs() < 1e-12,
            "pending gap must scale by exactly B: {toggled_gap} vs {}",
            b * plain_gap
        );
        // The next epoch really fires at the rescaled instant.
        let t2 = toggled.next_request();
        assert_eq!(t2.arrival, toggled.peek_time().min(t2.arrival));
        assert!(
            (t2.arrival.as_f64() - (t1.arrival.as_f64() + b * plain_gap)).abs() < 1e-12,
            "first post-toggle arrival lands on the rescaled epoch"
        );
    }

    #[test]
    fn drift_rotates_the_hot_set() {
        let factory = RngFactory::new(55);
        let mut rng = factory.stream(streams::LENGTHS);
        let catalog = Catalog::build(
            100,
            &PopularityModel::zipf(1.4),
            &LengthModel::paper_default(),
            &mut rng,
        );
        let classes = ClassSet::paper_default();
        let mut g = RequestGenerator::new(&catalog, &classes, 5.0, &factory).with_drift(Some(
            DriftConfig {
                period: 1_000.0,
                shift: 50,
            },
        ));
        // epoch 0 (t < 1000): hot items are ranks 0..; epoch 1: shifted by 50
        let mut early_head = 0u64;
        let mut early_n = 0u64;
        let mut late_shifted = 0u64;
        let mut late_n = 0u64;
        loop {
            let r = g.next_request();
            if r.arrival.as_f64() < 1_000.0 {
                early_n += 1;
                if r.item.index() < 10 {
                    early_head += 1;
                }
            } else if r.arrival.as_f64() < 2_000.0 {
                late_n += 1;
                if (50..60).contains(&r.item.index()) {
                    late_shifted += 1;
                }
            } else {
                break;
            }
        }
        let f_early = early_head as f64 / early_n as f64;
        let f_late = late_shifted as f64 / late_n as f64;
        // Zipf(100, 1.4) top-10 mass ≈ 0.74; both epochs should put that
        // mass on their own hot window.
        assert!(f_early > 0.6, "early head share {f_early}");
        assert!(f_late > 0.6, "late shifted share {f_late}");
    }

    #[test]
    fn drift_preserves_determinism() {
        let factory = RngFactory::new(9);
        let mut rng = factory.stream(streams::LENGTHS);
        let catalog = Catalog::build(
            20,
            &PopularityModel::zipf(1.0),
            &LengthModel::paper_default(),
            &mut rng,
        );
        let classes = ClassSet::paper_default();
        let drift = Some(DriftConfig {
            period: 10.0,
            shift: 3,
        });
        let mut a = RequestGenerator::new(&catalog, &classes, 5.0, &factory).with_drift(drift);
        let mut b = RequestGenerator::new(&catalog, &classes, 5.0, &factory).with_drift(drift);
        for _ in 0..200 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn replay_source_replays_exactly() {
        let mut g = setup(5.0, 21);
        let trace = g.take_until(SimTime::new(100.0));
        let mut replay = ReplaySource::new(trace.clone());
        assert_eq!(replay.len(), trace.len());
        for want in &trace {
            assert_eq!(RequestSource::peek(&replay), Some(want.arrival));
            let got = RequestSource::next_request(&mut replay);
            assert_eq!(&got, want);
        }
        assert_eq!(RequestSource::peek(&replay), None);
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    fn replay_source_serde_round_trip() {
        let mut g = setup(5.0, 22);
        let trace = g.take_until(SimTime::new(10.0));
        let src = ReplaySource::new(trace);
        let js = serde_json::to_string(&src).unwrap();
        let back: ReplaySource = serde_json::from_str(&js).unwrap();
        assert_eq!(back, src);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_rejected() {
        let r = |t: f64| Request {
            arrival: SimTime::new(t),
            item: ItemId(0),
            class: ClassId(0),
        };
        let _ = ReplaySource::new(vec![r(2.0), r(1.0)]);
    }

    #[test]
    fn surge_source_compresses_only_the_window() {
        let mut base = setup(5.0, 31);
        // the ×4 window consumes 4000 inner units, so record well past that
        let trace = base.take_until(SimTime::new(7_000.0));
        let surged = SurgeSource::new(
            Box::new(ReplaySource::new(trace.clone())),
            vec![SurgeWindow {
                start: 1_000.0,
                end: 2_000.0,
                factor: 4.0,
            }],
        );
        let mut out = Vec::new();
        let mut s = surged;
        while let Some(t) = RequestSource::peek(&s) {
            let r = s.next_request();
            assert_eq!(r.arrival, t);
            out.push(r);
        }
        // sorted output, same request count, items/classes untouched
        assert_eq!(out.len(), trace.len());
        assert!(out.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for (a, b) in out.iter().zip(&trace) {
            assert_eq!((a.item, a.class), (b.item, b.class));
        }
        // the in-window rate roughly quadruples
        let count_in = |v: &[Request], lo: f64, hi: f64| {
            v.iter()
                .filter(|r| r.arrival.as_f64() >= lo && r.arrival.as_f64() < hi)
                .count() as f64
        };
        let pre = count_in(&out, 0.0, 1_000.0) / 1_000.0;
        let during = count_in(&out, 1_000.0, 2_000.0) / 1_000.0;
        assert!((pre - 5.0).abs() < 0.7, "pre-window rate {pre}");
        assert!(during > 3.0 * pre, "surge rate {during} vs base {pre}");
    }

    #[test]
    fn surge_factor_below_one_thins_arrivals() {
        let mut base = setup(8.0, 33);
        let trace = base.take_until(SimTime::new(2_000.0));
        let mut s = SurgeSource::new(
            Box::new(ReplaySource::new(trace)),
            vec![SurgeWindow {
                start: 0.0,
                end: 500.0,
                factor: 0.25,
            }],
        );
        let mut in_window = 0u64;
        while RequestSource::peek(&s).is_some() {
            let r = s.next_request();
            if r.arrival.as_f64() < 500.0 {
                in_window += 1;
            }
        }
        let rate = in_window as f64 / 500.0;
        assert!((rate - 2.0).abs() < 0.5, "thinned rate {rate} (want ≈ 2)");
    }

    #[test]
    fn surge_source_is_deterministic_and_identity_without_windows() {
        let mut base = setup(5.0, 35);
        let trace = base.take_until(SimTime::new(500.0));
        let mut id = SurgeSource::new(Box::new(ReplaySource::new(trace.clone())), vec![]);
        for want in &trace {
            assert_eq!(id.next_request(), *want);
        }
    }

    #[test]
    #[should_panic(expected = "surge factor")]
    fn surge_rejects_non_positive_factor() {
        let _ = SurgeSource::new(
            Box::new(ReplaySource::new(vec![])),
            vec![SurgeWindow {
                start: 0.0,
                end: 1.0,
                factor: 0.0,
            }],
        );
    }

    #[test]
    fn iterator_interface_works() {
        let g = setup(5.0, 11);
        let reqs: Vec<Request> = g.take(50).collect();
        assert_eq!(reqs.len(), 50);
    }
}
