//! Windowed time-series recording.
//!
//! A [`WindowRecorder`] is a [`Sink`] that buckets the event stream into
//! fixed-width simulation-time windows `[k·w, (k+1)·w)`. Counters (arrivals,
//! served, blocked, losses, transmissions) attribute an event to the window
//! containing its timestamp; gauges (queue depth, push-set size K) are
//! integrated piecewise-constantly inside each window, so their per-window
//! mean is exact regardless of how bursty the updates are. Delay
//! quantiles come from one fixed-memory [`Histogram`] per class, cleared
//! at each window close, so a window's p50/p95/p99 reflect only the
//! completions inside it and use the same algorithm, with the same 2⁻⁷
//! relative error bound, as the run's `SimReport`.
//!
//! Unlike `MetricsCollector`, the recorder applies **no warm-up gating**:
//! the whole point of the time axis is to make transients visible.

use serde::{Deserialize, Serialize};

use hybridcast_sim::ensure;
use hybridcast_sim::quantile::Histogram;
use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::Catalog;
use hybridcast_workload::classes::ClassSet;

use crate::event::{ServiceKind, TelemetryEvent};
use crate::sink::Sink;

/// Default window width (simulation time units) when `--telemetry` is given
/// without a value.
pub const DEFAULT_WINDOW: f64 = 500.0;

/// Recorder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Window width in simulation time units; must be positive and finite.
    pub window: f64,
}

impl TelemetryConfig {
    /// A validated config. Panics with [`validate`](Self::validate)'s
    /// message on a non-positive or non-finite width.
    pub fn new(window: f64) -> Self {
        let config = TelemetryConfig { window };
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        config
    }

    /// What a window width must satisfy, as a typed error.
    pub fn validate(&self) -> Result<(), String> {
        let window = self.window;
        ensure(
            window.is_finite() && window > 0.0,
            format_args!("telemetry window must be positive and finite, got {window}"),
        )
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window: DEFAULT_WINDOW,
        }
    }
}

/// Piecewise-constant gauge integrated within the current window.
#[derive(Debug, Clone)]
struct GaugeTrack {
    last_t: f64,
    value: f64,
    acc: f64,
    max: f64,
}

impl GaugeTrack {
    fn new(start: f64, v0: f64) -> Self {
        GaugeTrack {
            last_t: start,
            value: v0,
            acc: 0.0,
            max: v0,
        }
    }

    #[inline]
    fn set(&mut self, t: f64, v: f64) {
        self.acc += self.value * (t - self.last_t);
        self.last_t = t;
        self.value = v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Closes the window ending at `end`, returning `(mean, max)` and
    /// resetting for the next window (which inherits the current value).
    fn close(&mut self, end: f64, width: f64) -> (f64, f64) {
        self.acc += self.value * (end - self.last_t);
        let mean = if width > 0.0 {
            self.acc / width
        } else {
            self.value
        };
        let max = self.max;
        self.last_t = end;
        self.acc = 0.0;
        self.max = self.value;
        (mean, max)
    }
}

/// Per-class counters for the current window; the class's delay
/// histogram sits beside them in [`WindowRecorder`], so a window close
/// resets these to zero and clears the histogram in place.
///
/// Delay/stretch means use plain sums rather than `Welford` accumulators:
/// only the mean is reported per window, and the slimmer update keeps the
/// per-completion cost inside the overhead budget (`BENCH_telemetry`).
#[derive(Debug, Clone, Default)]
struct ClassAccum {
    arrivals: u64,
    served: u64,
    served_push: u64,
    served_pull: u64,
    blocked: u64,
    uplink_lost: u64,
    uplink_delivered: u64,
    uplink_latency_sum: f64,
    delay_sum: f64,
    stretch_sum: f64,
}

impl ClassAccum {
    fn snapshot(&self, delays: &Histogram, width: f64) -> ClassWindow {
        let n = self.served;
        let [p50, p95, p99] = [0.5, 0.95, 0.99].map(|q| delays.quantile(q));
        ClassWindow {
            arrivals: self.arrivals,
            served: self.served,
            served_push: self.served_push,
            served_pull: self.served_pull,
            blocked: self.blocked,
            uplink_lost: self.uplink_lost,
            uplink_delivered: self.uplink_delivered,
            uplink_latency_mean: (self.uplink_delivered > 0)
                .then(|| self.uplink_latency_sum / self.uplink_delivered as f64),
            delay_mean: (n > 0).then(|| self.delay_sum / n as f64),
            delay_p50: p50,
            delay_p95: p95,
            delay_p99: p99,
            delay_max: delays.max(),
            stretch_mean: (n > 0).then(|| self.stretch_sum / n as f64),
            blocking_ratio: if self.arrivals > 0 {
                self.blocked as f64 / self.arrivals as f64
            } else {
                0.0
            },
            throughput: if width > 0.0 {
                self.served as f64 / width
            } else {
                0.0
            },
        }
    }
}

/// One class's QoS numbers inside one window. Delay/stretch fields are
/// `None` when no request of the class completed in the window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassWindow {
    /// Requests that arrived in the window.
    pub arrivals: u64,
    /// Requests completed in the window (whatever window they arrived in).
    pub served: u64,
    /// Completions carried by the broadcast channel.
    pub served_push: u64,
    /// Completions carried by pull transmissions.
    pub served_pull: u64,
    /// Requests rejected (queue full) in the window.
    pub blocked: u64,
    /// Requests lost on the uplink in the window.
    pub uplink_lost: u64,
    /// Requests that cleared the contended uplink in the window
    /// (0 when the back-channel model is disabled or for older series).
    #[serde(default)]
    pub uplink_delivered: u64,
    /// Mean uplink latency of deliveries in the window (`None` when no
    /// request cleared the uplink in it).
    #[serde(default)]
    pub uplink_latency_mean: Option<f64>,
    /// Mean access delay of completions in the window.
    pub delay_mean: Option<f64>,
    /// Median access delay, within relative 2⁻⁷ of the exact order
    /// statistic (`sim::quantile`).
    pub delay_p50: Option<f64>,
    /// 95th-percentile access delay (same bound).
    pub delay_p95: Option<f64>,
    /// 99th-percentile access delay (same bound; `None` for series
    /// recorded before the field existed).
    #[serde(default)]
    pub delay_p99: Option<f64>,
    /// Worst access delay.
    pub delay_max: Option<f64>,
    /// Mean stretch (delay / item length) of completions.
    pub stretch_mean: Option<f64>,
    /// blocked / arrivals within the window (0 when no arrivals).
    pub blocking_ratio: f64,
    /// Completions per simulation time unit.
    pub throughput: f64,
}

/// System-wide numbers for one window, plus the per-class breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Zero-based window index.
    pub index: u64,
    /// Window start time.
    pub start: f64,
    /// Window end time (start + width, or the horizon for a partial tail).
    pub end: f64,
    /// Per-class stats, in `ClassSet` order.
    pub per_class: Vec<ClassWindow>,
    /// Time-averaged distinct queued items.
    pub queue_items_mean: f64,
    /// Peak distinct queued items.
    pub queue_items_max: f64,
    /// Time-averaged outstanding queued requests.
    pub queue_requests_mean: f64,
    /// Peak outstanding queued requests.
    pub queue_requests_max: f64,
    /// Time-averaged push-set size K.
    pub push_set_k: f64,
    /// Cutoff retunes applied in the window.
    pub cutoff_changes: u64,
    /// Broadcast transmissions started in the window.
    pub push_tx: u64,
    /// Pull transmissions started in the window.
    pub pull_tx: u64,
    /// Churn departures in the window.
    pub churn_departures: u64,
}

/// A whole run's windowed series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Window width the run was recorded with.
    pub window: f64,
    /// Class names, fixing the order of every `per_class` vector.
    pub classes: Vec<String>,
    /// Consecutive windows from t = 0 to the horizon.
    pub windows: Vec<WindowStats>,
}

impl TimeSeries {
    /// Serializes as JSON Lines: a header object (window width, class names,
    /// window count) followed by one object per window.
    pub fn to_jsonl(&self) -> String {
        let header = serde_json::json!({
            "window": self.window,
            "classes": self.classes,
            "num_windows": self.windows.len(),
        });
        let mut out = String::new();
        out.push_str(&serde_json::to_string(&header).expect("header serializes"));
        out.push('\n');
        for w in &self.windows {
            out.push_str(&serde_json::to_string(w).expect("window serializes"));
            out.push('\n');
        }
        out
    }
}

/// The windowed recorder. Construct per run, feed it as the driver's sink,
/// then call [`WindowRecorder::finish`] with the horizon to obtain the
/// [`TimeSeries`].
#[derive(Debug, Clone)]
pub struct WindowRecorder {
    window: f64,
    classes: Vec<String>,
    lengths: Vec<u32>,
    index: u64,
    start: f64,
    per_class: Vec<ClassAccum>,
    /// Per-class delays of the current window, in `per_class` order.
    delays: Vec<Histogram>,
    queue_items: GaugeTrack,
    queue_requests: GaugeTrack,
    push_k: GaugeTrack,
    push_tx: u64,
    pull_tx: u64,
    cutoff_changes: u64,
    churn_departures: u64,
    windows: Vec<WindowStats>,
}

impl WindowRecorder {
    /// A recorder for a run over `catalog`/`classes` starting with push-set
    /// size `initial_k`.
    pub fn new(
        cfg: TelemetryConfig,
        classes: &ClassSet,
        catalog: &Catalog,
        initial_k: usize,
    ) -> Self {
        let names: Vec<String> = classes.iter().map(|(_, c)| c.name.clone()).collect();
        WindowRecorder {
            window: cfg.window,
            per_class: vec![ClassAccum::default(); names.len()],
            delays: names.iter().map(|_| Histogram::default()).collect(),
            classes: names,
            lengths: catalog.items().iter().map(|i| i.length).collect(),
            index: 0,
            start: 0.0,
            queue_items: GaugeTrack::new(0.0, 0.0),
            queue_requests: GaugeTrack::new(0.0, 0.0),
            push_k: GaugeTrack::new(0.0, initial_k as f64),
            push_tx: 0,
            pull_tx: 0,
            cutoff_changes: 0,
            churn_departures: 0,
            windows: Vec::new(),
        }
    }

    /// Closes the current window at `end` (`width` ≤ the configured window
    /// for a partial tail) and resets accumulators. Outlined: this is the
    /// cold path of the otherwise-inlined [`Sink::record`].
    #[inline(never)]
    fn close_window(&mut self, end: f64) {
        let width = end - self.start;
        let per_class = self
            .per_class
            .iter()
            .zip(&self.delays)
            .map(|(c, d)| c.snapshot(d, width))
            .collect();
        let (qi_mean, qi_max) = self.queue_items.close(end, width);
        let (qr_mean, qr_max) = self.queue_requests.close(end, width);
        let (k_mean, _) = self.push_k.close(end, width);
        self.windows.push(WindowStats {
            index: self.index,
            start: self.start,
            end,
            per_class,
            queue_items_mean: qi_mean,
            queue_items_max: qi_max,
            queue_requests_mean: qr_mean,
            queue_requests_max: qr_max,
            push_set_k: k_mean,
            cutoff_changes: self.cutoff_changes,
            push_tx: self.push_tx,
            pull_tx: self.pull_tx,
            churn_departures: self.churn_departures,
        });
        for (c, d) in self.per_class.iter_mut().zip(&mut self.delays) {
            *c = ClassAccum::default();
            d.clear();
        }
        self.push_tx = 0;
        self.pull_tx = 0;
        self.cutoff_changes = 0;
        self.churn_departures = 0;
        self.index += 1;
        self.start = end;
    }

    /// Closes every full window whose end is ≤ `t`.
    #[inline]
    fn roll_to(&mut self, t: f64) {
        while t >= self.start + self.window {
            let end = self.start + self.window;
            self.close_window(end);
        }
    }

    /// Class names, fixing the order of every window's `per_class` vector.
    pub fn class_names(&self) -> &[String] {
        &self.classes
    }

    /// Takes every window closed so far, leaving the in-progress one
    /// accumulating — the live-streaming hook: a long-running server
    /// drains closed windows periodically and appends them to a JSONL
    /// stream instead of buffering the whole series in memory.
    /// [`WindowRecorder::finish`] then returns only the windows closed
    /// after the last drain.
    pub fn drain_closed(&mut self) -> Vec<WindowStats> {
        std::mem::take(&mut self.windows)
    }

    /// Finalizes the run at `end` (the horizon), closing any partial last
    /// window, and returns the series.
    pub fn finish(mut self, end: SimTime) -> TimeSeries {
        let end = end.as_f64();
        self.roll_to(end);
        if end > self.start {
            self.close_window(end);
        }
        TimeSeries {
            window: self.window,
            classes: self.classes,
            windows: self.windows,
        }
    }
}

impl Sink for WindowRecorder {
    /// `#[inline]`: the event variant is statically known at every driver
    /// emit site, so cross-crate inlining collapses the match to the single
    /// relevant arm and elides constructing the event value altogether; the
    /// cold window-close path stays outlined. `always` because the inline
    /// cost heuristic sees the full ten-arm match and balks before it can
    /// know that constant folding deletes eight arms.
    #[inline(always)]
    fn record(&mut self, event: &TelemetryEvent) {
        let t = event.time().as_f64();
        self.roll_to(t);
        match *event {
            TelemetryEvent::RequestArrival { class, .. } => {
                self.per_class[class.index()].arrivals += 1;
            }
            TelemetryEvent::RequestServed {
                time,
                item,
                class,
                kind,
                arrival,
            } => {
                let acc = &mut self.per_class[class.index()];
                acc.served += 1;
                match kind {
                    ServiceKind::Push => acc.served_push += 1,
                    ServiceKind::Pull => acc.served_pull += 1,
                }
                let delay = time.since(arrival).as_f64();
                acc.delay_sum += delay;
                self.delays[class.index()].record(delay);
                let len = self.lengths[item.0 as usize] as f64;
                acc.stretch_sum += delay / len.max(1.0);
            }
            TelemetryEvent::RequestBlocked { class, .. } => {
                self.per_class[class.index()].blocked += 1;
            }
            TelemetryEvent::UplinkDelivered { class, latency, .. } => {
                let acc = &mut self.per_class[class.index()];
                acc.uplink_delivered += 1;
                acc.uplink_latency_sum += latency.as_f64();
            }
            TelemetryEvent::UplinkLoss { class, .. } => {
                self.per_class[class.index()].uplink_lost += 1;
            }
            TelemetryEvent::PushTx { .. } => self.push_tx += 1,
            TelemetryEvent::PullTx { .. } => self.pull_tx += 1,
            TelemetryEvent::CutoffChange { to_k, .. } => {
                self.cutoff_changes += 1;
                self.push_k.set(t, to_k as f64);
            }
            TelemetryEvent::ChurnEvent { .. } => self.churn_departures += 1,
            TelemetryEvent::QueueGauge {
                items, requests, ..
            } => {
                self.queue_items.set(t, items as f64);
                self.queue_requests.set(t, requests as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_workload::catalog::ItemId;
    use hybridcast_workload::classes::ClassId;

    fn recorder(window: f64) -> WindowRecorder {
        let catalog = Catalog::from_parts(vec![0.5, 0.3, 0.2], vec![2, 4, 8]);
        WindowRecorder::new(
            TelemetryConfig::new(window),
            &ClassSet::paper_default(),
            &catalog,
            1,
        )
    }

    fn served(t: f64, arrival: f64, item: u32, class: u8) -> TelemetryEvent {
        TelemetryEvent::RequestServed {
            time: SimTime::new(t),
            item: ItemId(item),
            class: ClassId(class),
            kind: ServiceKind::Pull,
            arrival: SimTime::new(arrival),
        }
    }

    #[test]
    fn events_land_in_the_window_containing_their_timestamp() {
        let mut r = recorder(10.0);
        for (t, class) in [(1.0, 0u8), (9.5, 0), (10.0, 1), (25.0, 2)] {
            r.record(&TelemetryEvent::RequestArrival {
                time: SimTime::new(t),
                item: ItemId(0),
                class: ClassId(class),
            });
        }
        let ts = r.finish(SimTime::new(30.0));
        assert_eq!(ts.windows.len(), 3);
        assert_eq!(ts.windows[0].per_class[0].arrivals, 2);
        assert_eq!(
            ts.windows[1].per_class[1].arrivals, 1,
            "t=10 opens window 1"
        );
        assert_eq!(ts.windows[2].per_class[2].arrivals, 1);
        assert_eq!(ts.windows[2].end, 30.0);
    }

    #[test]
    fn delay_stretch_and_ratios_are_per_window() {
        let mut r = recorder(10.0);
        r.record(&TelemetryEvent::RequestArrival {
            time: SimTime::new(0.5),
            item: ItemId(2),
            class: ClassId(0),
        });
        r.record(&TelemetryEvent::RequestBlocked {
            time: SimTime::new(1.0),
            item: ItemId(1),
            class: ClassId(0),
        });
        // Two completions: delays 4 and 8 on item 2 (length 8) => stretches .5, 1.
        r.record(&served(5.0, 1.0, 2, 0));
        r.record(&served(9.0, 1.0, 2, 0));
        let ts = r.finish(SimTime::new(10.0));
        let w = &ts.windows[0];
        let c = &w.per_class[0];
        assert_eq!(c.served, 2);
        assert_eq!(c.delay_mean, Some(6.0));
        assert_eq!(c.delay_p99, Some(8.0), "exact ceil-rank p99 of {{4, 8}}");
        assert_eq!(c.delay_max, Some(8.0));
        assert_eq!(c.stretch_mean, Some(0.75));
        assert!(
            (c.blocking_ratio - 1.0).abs() < 1e-12,
            "1 blocked / 1 arrival"
        );
        assert!((c.throughput - 0.2).abs() < 1e-12);
        assert_eq!(w.per_class[1].delay_mean, None);
    }

    #[test]
    fn gauges_integrate_piecewise_constantly_across_windows() {
        let mut r = recorder(10.0);
        r.record(&TelemetryEvent::QueueGauge {
            time: SimTime::new(5.0),
            items: 4,
            requests: 6,
        });
        // No further updates: window 0 averages 0*5 + 4*5 = 2.0 items,
        // window 1 holds 4 throughout.
        let ts = r.finish(SimTime::new(20.0));
        assert!((ts.windows[0].queue_items_mean - 2.0).abs() < 1e-12);
        assert_eq!(ts.windows[0].queue_items_max, 4.0);
        assert!((ts.windows[1].queue_items_mean - 4.0).abs() < 1e-12);
        assert!((ts.windows[1].queue_requests_mean - 6.0).abs() < 1e-12);
    }

    #[test]
    fn cutoff_changes_move_the_k_gauge() {
        let mut r = recorder(10.0);
        r.record(&TelemetryEvent::CutoffChange {
            time: SimTime::new(5.0),
            from_k: 1,
            to_k: 3,
        });
        let ts = r.finish(SimTime::new(10.0));
        assert_eq!(ts.windows[0].cutoff_changes, 1);
        assert!(
            (ts.windows[0].push_set_k - 2.0).abs() < 1e-12,
            "1*.5 + 3*.5"
        );
    }

    #[test]
    fn jsonl_round_trips_per_line() {
        let mut r = recorder(10.0);
        r.record(&served(5.0, 1.0, 0, 1));
        let ts = r.finish(SimTime::new(15.0));
        let jsonl = ts.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1 + ts.windows.len());
        for line in &lines[1..] {
            let w: WindowStats = serde_json::from_str(line).expect("window line parses");
            assert!(w.end > w.start);
        }
    }

    #[test]
    fn uplink_deliveries_and_latency_are_windowed_per_class() {
        let mut r = recorder(10.0);
        for (t, latency) in [(1.0, 0.2), (3.0, 0.4)] {
            r.record(&TelemetryEvent::UplinkDelivered {
                time: SimTime::new(t),
                item: ItemId(0),
                class: ClassId(1),
                latency: hybridcast_sim::time::SimDuration::new(latency),
            });
        }
        r.record(&TelemetryEvent::UplinkLoss {
            time: SimTime::new(4.0),
            item: ItemId(0),
            class: ClassId(1),
        });
        let ts = r.finish(SimTime::new(10.0));
        let c = &ts.windows[0].per_class[1];
        assert_eq!(c.uplink_delivered, 2);
        assert_eq!(c.uplink_lost, 1);
        assert!((c.uplink_latency_mean.unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(ts.windows[0].per_class[0].uplink_latency_mean, None);
    }

    #[test]
    fn drain_closed_streams_windows_without_losing_the_tail() {
        let mut r = recorder(10.0);
        r.record(&served(5.0, 1.0, 0, 0));
        r.record(&served(15.0, 11.0, 0, 0));
        r.record(&served(25.0, 21.0, 0, 0));
        // t = 25 closed windows [0,10) and [10,20).
        let drained = r.drain_closed();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].per_class[0].served, 1);
        let ts = r.finish(SimTime::new(30.0));
        assert_eq!(ts.windows.len(), 1, "only the undrained tail remains");
        assert_eq!(ts.windows[0].index, 2);
        assert_eq!(ts.windows[0].per_class[0].served, 1);
    }

    #[test]
    fn partial_tail_window_is_emitted_only_when_nonempty() {
        let r = recorder(10.0);
        let ts = r.finish(SimTime::new(20.0));
        assert_eq!(ts.windows.len(), 2, "exact multiple: no empty tail");
    }
}
