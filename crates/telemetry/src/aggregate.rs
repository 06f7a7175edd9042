//! Across-replication aggregation of window-aligned series.
//!
//! Replications of the same scenario share the window grid (same width, same
//! horizon), so window *k* of replication *i* describes the same stretch of
//! simulated time. Aggregation therefore pairs windows by index and treats
//! the per-replication values as i.i.d. observations, summarizing each with
//! a [`SummaryStats`] (mean, std-dev, Student-t 95% CI half-width).

use serde::{Deserialize, Serialize};

use hybridcast_sim::stats::{SummaryStats, Welford};

use crate::window::TimeSeries;

/// One class's across-replication summary for one window. Delay summaries
/// are `None` when no replication completed a request of the class in the
/// window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregatedClassWindow {
    /// Arrivals per replication.
    pub arrivals: SummaryStats,
    /// Completions per time unit, per replication.
    pub throughput: SummaryStats,
    /// blocked / arrivals per replication.
    pub blocking_ratio: SummaryStats,
    /// Uplink losses per replication.
    pub uplink_lost: SummaryStats,
    /// Uplink deliveries per replication.
    #[serde(default)]
    pub uplink_delivered: SummaryStats,
    /// Mean uplink latency (replications with ≥1 uplink delivery only).
    #[serde(default)]
    pub uplink_latency_mean: Option<SummaryStats>,
    /// Mean access delay (replications with ≥1 completion only).
    pub delay_mean: Option<SummaryStats>,
    /// 95th-percentile access delay, histogram quantile within relative
    /// 2⁻⁷ (ditto).
    pub delay_p95: Option<SummaryStats>,
}

/// One window's across-replication summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregatedWindow {
    /// Zero-based window index.
    pub index: u64,
    /// Window start time.
    pub start: f64,
    /// Window end time.
    pub end: f64,
    /// Per-class summaries, in class order.
    pub per_class: Vec<AggregatedClassWindow>,
    /// Time-averaged queued items per replication.
    pub queue_items_mean: SummaryStats,
    /// Time-averaged queued requests per replication.
    pub queue_requests_mean: SummaryStats,
    /// Time-averaged push-set size per replication.
    pub push_set_k: SummaryStats,
}

/// Window-aligned aggregate of several replications' series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregatedSeries {
    /// Common window width.
    pub window: f64,
    /// Class names fixing `per_class` order.
    pub classes: Vec<String>,
    /// Number of replications aggregated.
    pub replications: u64,
    /// Aggregated windows, truncated to the shortest replication.
    pub windows: Vec<AggregatedWindow>,
}

fn summarize(values: impl Iterator<Item = f64>) -> SummaryStats {
    let mut w = Welford::new();
    for v in values {
        w.push(v);
    }
    w.summary()
}

fn summarize_present(values: impl Iterator<Item = Option<f64>>) -> Option<SummaryStats> {
    let mut w = Welford::new();
    for v in values.flatten() {
        w.push(v);
    }
    (w.count() > 0).then(|| w.summary())
}

impl AggregatedSeries {
    /// Aggregates window-aligned series. Panics if `series` is empty or the
    /// runs disagree on window width or class set (they would not be
    /// replications of the same scenario).
    pub fn from_series(series: &[TimeSeries]) -> Self {
        assert!(!series.is_empty(), "need at least one series to aggregate");
        let first = &series[0];
        for s in series {
            assert!(
                s.window == first.window && s.classes == first.classes,
                "aggregation requires identical window width and class set"
            );
        }
        let depth = series.iter().map(|s| s.windows.len()).min().unwrap_or(0);
        let n_classes = first.classes.len();
        let windows = (0..depth)
            .map(|k| {
                let at = |f: &dyn Fn(&crate::window::WindowStats) -> f64| {
                    summarize(series.iter().map(|s| f(&s.windows[k])))
                };
                let per_class = (0..n_classes)
                    .map(|c| AggregatedClassWindow {
                        arrivals: at(&|w| w.per_class[c].arrivals as f64),
                        throughput: at(&|w| w.per_class[c].throughput),
                        blocking_ratio: at(&|w| w.per_class[c].blocking_ratio),
                        uplink_lost: at(&|w| w.per_class[c].uplink_lost as f64),
                        uplink_delivered: at(&|w| w.per_class[c].uplink_delivered as f64),
                        uplink_latency_mean: summarize_present(
                            series
                                .iter()
                                .map(|s| s.windows[k].per_class[c].uplink_latency_mean),
                        ),
                        delay_mean: summarize_present(
                            series.iter().map(|s| s.windows[k].per_class[c].delay_mean),
                        ),
                        delay_p95: summarize_present(
                            series.iter().map(|s| s.windows[k].per_class[c].delay_p95),
                        ),
                    })
                    .collect();
                AggregatedWindow {
                    index: k as u64,
                    start: first.windows[k].start,
                    end: first.windows[k].end,
                    per_class,
                    queue_items_mean: at(&|w| w.queue_items_mean),
                    queue_requests_mean: at(&|w| w.queue_requests_mean),
                    push_set_k: at(&|w| w.push_set_k),
                }
            })
            .collect();
        AggregatedSeries {
            window: first.window,
            classes: first.classes.clone(),
            replications: series.len() as u64,
            windows,
        }
    }

    /// Serializes as JSON Lines: a header object followed by one object per
    /// aggregated window.
    pub fn to_jsonl(&self) -> String {
        let header = serde_json::json!({
            "window": self.window,
            "classes": self.classes,
            "replications": self.replications,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TelemetryEvent;
    use crate::sink::Sink;
    use crate::window::{TelemetryConfig, WindowRecorder};
    use hybridcast_sim::time::SimTime;
    use hybridcast_workload::catalog::Catalog;
    use hybridcast_workload::catalog::ItemId;
    use hybridcast_workload::classes::{ClassId, ClassSet};

    fn series_with_delays(delays: &[f64]) -> TimeSeries {
        let catalog = Catalog::from_parts(vec![1.0], vec![4]);
        let mut r = WindowRecorder::new(
            TelemetryConfig::new(10.0),
            &ClassSet::paper_default(),
            &catalog,
            1,
        );
        for (i, d) in delays.iter().enumerate() {
            let t = 1.0 + i as f64;
            r.record(&TelemetryEvent::RequestServed {
                time: SimTime::new(t),
                item: ItemId(0),
                class: ClassId(0),
                kind: crate::event::ServiceKind::Pull,
                arrival: SimTime::new(t - d),
            });
        }
        r.finish(SimTime::new(10.0))
    }

    #[test]
    fn aggregates_align_windows_and_average_across_replications() {
        let a = series_with_delays(&[2.0]);
        let b = series_with_delays(&[4.0]);
        let agg = AggregatedSeries::from_series(&[a, b]);
        assert_eq!(agg.replications, 2);
        assert_eq!(agg.windows.len(), 1);
        let c0 = &agg.windows[0].per_class[0];
        let dm = c0.delay_mean.as_ref().expect("both reps served");
        assert_eq!(dm.count, 2);
        assert!((dm.mean - 3.0).abs() < 1e-12);
        assert!((c0.throughput.mean - 0.1).abs() < 1e-12);
        // Class B never served: delay summary absent, counters all zero.
        let c1 = &agg.windows[0].per_class[1];
        assert!(c1.delay_mean.is_none());
        assert_eq!(c1.arrivals.mean, 0.0);
    }

    #[test]
    #[should_panic(expected = "identical window width")]
    fn mismatched_windows_are_rejected() {
        let a = series_with_delays(&[2.0]);
        let mut b = series_with_delays(&[2.0]);
        b.window = 20.0;
        let _ = AggregatedSeries::from_series(&[a, b]);
    }

    #[test]
    fn jsonl_has_header_plus_one_line_per_window() {
        let agg = AggregatedSeries::from_series(&[series_with_delays(&[2.0])]);
        let jsonl = agg.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1 + agg.windows.len());
        assert!(jsonl.lines().next().unwrap().contains("\"replications\""));
    }
}
