//! Run dashboards: telemetry time series rendered as stacked SVG panels.
//!
//! A dashboard is four [`FigureData`] panels over the same simulation-time
//! x-axis — per-class delay (mean + p95), per-class blocking ratio,
//! per-class throughput, and server load (queue depth, outstanding
//! requests, push-set size `K`) — composed into a single SVG document by
//! [`dashboard_svg`]. Panels come either from one run's
//! [`TimeSeries`] or, for replicated experiments, from the
//! window-aligned [`AggregatedSeries`] (across-replication means with
//! a 95% CI band on the delay panel).
//!
//! Empty windows (a class served nothing) carry `NaN` y-values; the SVG
//! renderer skips non-finite points, so gaps show as gaps instead of
//! plunging to zero. These figures are for rendering only and are not
//! JSON-serialized (`NaN` has no JSON encoding) — the data export is the
//! series' own JSONL.

use std::fmt::Write as _;

use hybridcast_sim::stats::SummaryStats;
use hybridcast_telemetry::{AggregatedSeries, TimeSeries};

use crate::series::{FigureData, Series};
use crate::svg::{to_svg_fragment, PANEL_H, PANEL_W};

fn midpoints(starts_ends: impl Iterator<Item = (f64, f64)>) -> Vec<f64> {
    starts_ends.map(|(s, e)| (s + e) / 2.0).collect()
}

fn or_nan(v: Option<f64>) -> f64 {
    v.unwrap_or(f64::NAN)
}

/// `f` over every window index of `xs`.
fn col(xs: &[f64], f: impl Fn(usize) -> f64) -> Vec<f64> {
    (0..xs.len()).map(f).collect()
}

/// The four panels over windows centred at `xs`: the delay panel's
/// `(title, series)`, then `class(c, i)` = class `c`'s (blocking ratio,
/// throughput) and `load(i)` = (queued items, queued requests, push-set
/// `K`) in window `i`.
fn panels(
    xs: &[f64],
    classes: &[String],
    (delay_title, delay): (&str, Vec<Series>),
    notes: String,
    class: impl Fn(usize, usize) -> (f64, f64),
    load: impl Fn(usize) -> [f64; 3],
) -> Vec<FigureData> {
    let per_class = |pick: fn((f64, f64)) -> f64| -> Vec<Series> {
        let ys = |c| col(xs, |i| pick(class(c, i)));
        let named = classes.iter().enumerate();
        named
            .map(|(c, name)| Series::new(name.clone(), xs.to_vec(), ys(c)))
            .collect()
    };
    let load = ["queued items", "queued requests", "push-set K"]
        .into_iter()
        .enumerate()
        .map(|(j, label)| Series::new(label, xs.to_vec(), col(xs, |i| load(i)[j])))
        .collect();
    let panel = |id: &str, title: &str, y_label: &str, series| FigureData {
        id: id.into(),
        title: title.into(),
        x_label: "time (broadcast units)".into(),
        y_label: y_label.into(),
        series,
        notes: notes.clone(),
    };
    vec![
        panel("dash-delay", delay_title, "delay", delay),
        panel(
            "dash-blocking",
            "Blocking ratio per class",
            "blocked / arrivals",
            per_class(|(blocking, _)| blocking),
        ),
        panel(
            "dash-throughput",
            "Service throughput per class",
            "served / unit",
            per_class(|(_, throughput)| throughput),
        ),
        panel(
            "dash-load",
            "Server load: pull queue and push-set size",
            "count",
            load,
        ),
    ]
}

/// The four QoS panels of one run's telemetry series.
pub fn dashboard_figures(series: &TimeSeries, run_label: &str) -> Vec<FigureData> {
    let xs = midpoints(series.windows.iter().map(|w| (w.start, w.end)));
    let class_at = |c: usize, i: usize| &series.windows[i].per_class[c];
    let delay = series.classes.iter().enumerate().flat_map(|(c, name)| {
        [
            (
                name.clone(),
                col(&xs, |i| or_nan(class_at(c, i).delay_mean)),
            ),
            (
                format!("{name} p95"),
                col(&xs, |i| or_nan(class_at(c, i).delay_p95)),
            ),
        ]
    });
    panels(
        &xs,
        &series.classes,
        (
            "Access delay per class (mean and p95)",
            delay
                .map(|(label, ys)| Series::new(label, xs.clone(), ys))
                .collect(),
        ),
        format!("{run_label} — window {} broadcast units", series.window),
        |c, i| (class_at(c, i).blocking_ratio, class_at(c, i).throughput),
        |i| {
            let w = &series.windows[i];
            [w.queue_items_mean, w.queue_requests_mean, w.push_set_k]
        },
    )
}

/// The dashboard panels for a replicated run: across-replication means,
/// with a dashed ±95% CI band around each class's mean delay.
pub fn aggregated_dashboard_figures(series: &AggregatedSeries, run_label: &str) -> Vec<FigureData> {
    let xs = midpoints(series.windows.iter().map(|w| (w.start, w.end)));
    let class_at = |c: usize, i: usize| &series.windows[i].per_class[c];
    let delay = series.classes.iter().enumerate().flat_map(|(c, name)| {
        let band = |f: fn(&SummaryStats) -> f64| {
            col(&xs, |i| or_nan(class_at(c, i).delay_mean.as_ref().map(f)))
        };
        [
            (name.clone(), band(|s| s.mean)),
            (format!("{name} +CI"), band(|s| s.mean + s.ci95)),
            (format!("{name} -CI"), band(|s| s.mean - s.ci95)),
        ]
    });
    panels(
        &xs,
        &series.classes,
        (
            "Access delay per class (mean ± 95% CI)",
            delay
                .map(|(label, ys)| Series::new(label, xs.clone(), ys))
                .collect(),
        ),
        format!(
            "{run_label} — window {} broadcast units, {} replications (means ± 95% CI)",
            series.window, series.replications
        ),
        |c, i| {
            let class = class_at(c, i);
            (class.blocking_ratio.mean, class.throughput.mean)
        },
        |i| {
            let w = &series.windows[i];
            [
                w.queue_items_mean.mean,
                w.queue_requests_mean.mean,
                w.push_set_k.mean,
            ]
        },
    )
}

/// Stacks the panels into one SVG document, one [`crate::svg`] chart per
/// row.
pub fn dashboard_svg(figs: &[FigureData]) -> String {
    let total_h = PANEL_H * figs.len().max(1) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_W}" height="{total_h}" viewBox="0 0 {PANEL_W} {total_h}" font-family="sans-serif">"##
    );
    for (i, fig) in figs.iter().enumerate() {
        let _ = writeln!(
            out,
            r##"<g transform="translate(0,{:.1})">"##,
            i as f64 * PANEL_H
        );
        out.push_str(&to_svg_fragment(fig));
        let _ = writeln!(out, "</g>");
    }
    let _ = writeln!(out, "</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_core::config::HybridConfig;
    use hybridcast_core::sim_driver::{simulate_telemetry, SimParams};
    use hybridcast_telemetry::TelemetryConfig;
    use hybridcast_workload::scenario::ScenarioConfig;

    fn demo_series() -> TimeSeries {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let cfg = HybridConfig::paper(40, 0.5);
        let params = SimParams {
            horizon: 1_000.0,
            warmup: 0.0,
            replication: 0,
        };
        simulate_telemetry(&scenario, &cfg, &params, TelemetryConfig::new(200.0)).1
    }

    #[test]
    fn four_panels_over_the_run_window_grid() {
        let series = demo_series();
        let figs = dashboard_figures(&series, "demo");
        assert_eq!(figs.len(), 4);
        // 3 classes × (mean + p95) delay curves
        assert_eq!(figs[0].series.len(), 6);
        for f in &figs {
            for s in &f.series {
                assert_eq!(s.x.len(), series.windows.len());
            }
        }
    }

    #[test]
    fn dashboard_svg_is_one_document_with_stacked_groups() {
        let figs = dashboard_figures(&demo_series(), "demo");
        let svg = dashboard_svg(&figs);
        assert_eq!(svg.matches("<svg").count(), 1, "one outer document");
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches(r##"<g transform="translate(0,"##).count(), 4);
        assert!(svg.contains("Class-A"));
        assert_eq!(svg.matches('"').count() % 2, 0);
    }

    #[test]
    fn aggregated_panels_carry_ci_bands() {
        use hybridcast_core::experiment::run_replicated_with_telemetry;
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let cfg = HybridConfig::paper(40, 0.5);
        let params = SimParams {
            horizon: 800.0,
            warmup: 0.0,
            replication: 0,
        };
        let (_, agg) =
            run_replicated_with_telemetry(&scenario, &cfg, &params, 3, TelemetryConfig::new(200.0));
        let figs = aggregated_dashboard_figures(&agg, "demo");
        assert_eq!(figs.len(), 4);
        // 3 classes × (mean, +CI, −CI)
        assert_eq!(figs[0].series.len(), 9);
        assert!(figs[0].notes.contains("3 replications"));
        let svg = dashboard_svg(&figs);
        assert!(svg.contains("Class-A +CI"));
    }
}
