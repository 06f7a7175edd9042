//! Zero-dependency SVG line charts for [`FigureData`].
//!
//! Every regenerated figure is also written as a standalone `.svg` next to
//! its `.json`/`.csv`, so the reproduction can be eyeballed without any
//! plotting toolchain. Hand-rolled on purpose: a polyline chart needs no
//! dependency.

use std::fmt::Write as _;

use crate::series::FigureData;

/// A qualitative palette (colorbrewer-ish, readable on white).
const COLORS: [&str; 10] = [
    "#1b6ca8", "#d94801", "#2a9d3a", "#c02d9c", "#7a5195", "#0fa3a3", "#b8860b", "#e04444",
    "#4d4d4d", "#8c564b",
];

/// Width of one rendered chart (also the dashboard panel width).
pub(crate) const PANEL_W: f64 = 860.0;
/// Height of one rendered chart (also the dashboard panel height).
pub(crate) const PANEL_H: f64 = 520.0;

const W: f64 = PANEL_W;
const H: f64 = PANEL_H;
const ML: f64 = 70.0; // margins
const MR: f64 = 210.0; // room for the legend
const MT: f64 = 50.0;
const MB: f64 = 60.0;

fn nice_ticks(lo: f64, hi: f64, target: usize) -> Vec<f64> {
    if hi <= lo {
        return vec![lo];
    }
    let span = hi - lo;
    let raw_step = span / target as f64;
    let mag = 10f64.powf(raw_step.log10().floor());
    let norm = raw_step / mag;
    let step = if norm < 1.5 {
        mag
    } else if norm < 3.5 {
        2.0 * mag
    } else if norm < 7.5 {
        5.0 * mag
    } else {
        10.0 * mag
    };
    let start = (lo / step).ceil() * step;
    let mut ticks = Vec::new();
    let mut t = start;
    while t <= hi + step * 1e-9 {
        ticks.push(t);
        t += step;
    }
    ticks
}

fn fmt_tick(v: f64) -> String {
    if v.abs() >= 1000.0 || v.fract().abs() < 1e-9 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Renders `fig` as a complete SVG document.
pub(crate) fn to_svg(fig: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}" font-family="sans-serif">"##
    );
    out.push_str(&to_svg_fragment(fig));
    let _ = writeln!(out, "</svg>");
    out
}

/// Renders `fig`'s chart contents *without* the outer `<svg>` element — a
/// [`PANEL_W`]×[`PANEL_H`] fragment that composes into multi-panel
/// documents (the run dashboard stacks one per QoS dimension inside
/// translated `<g>` groups).
pub(crate) fn to_svg_fragment(fig: &FigureData) -> String {
    let mut xs_min = f64::INFINITY;
    let mut xs_max = f64::NEG_INFINITY;
    let mut ys_min = f64::INFINITY;
    let mut ys_max = f64::NEG_INFINITY;
    for s in &fig.series {
        for (&x, &y) in s.x.iter().zip(&s.y) {
            if x.is_finite() && y.is_finite() {
                xs_min = xs_min.min(x);
                xs_max = xs_max.max(x);
                ys_min = ys_min.min(y);
                ys_max = ys_max.max(y);
            }
        }
    }
    if !xs_min.is_finite() {
        xs_min = 0.0;
        xs_max = 1.0;
        ys_min = 0.0;
        ys_max = 1.0;
    }
    // pad the y range and anchor at 0 when everything is non-negative
    if ys_min > 0.0 && ys_min < 0.3 * ys_max {
        ys_min = 0.0;
    }
    if (ys_max - ys_min).abs() < 1e-12 {
        ys_max = ys_min + 1.0;
    }
    ys_max += (ys_max - ys_min) * 0.05;
    if (xs_max - xs_min).abs() < 1e-12 {
        xs_max = xs_min + 1.0;
    }

    let plot_w = W - ML - MR;
    let plot_h = H - MT - MB;
    let px = |x: f64| ML + (x - xs_min) / (xs_max - xs_min) * plot_w;
    let py = |y: f64| MT + plot_h - (y - ys_min) / (ys_max - ys_min) * plot_h;

    let mut out = String::new();
    let _ = writeln!(out, r##"<rect width="{W}" height="{H}" fill="white"/>"##);
    // title
    let _ = writeln!(
        out,
        r##"<text x="{}" y="28" font-size="17" font-weight="bold" text-anchor="middle">{}</text>"##,
        ML + plot_w / 2.0,
        escape(&fig.title)
    );
    // gridlines + ticks
    for &ty in &nice_ticks(ys_min, ys_max, 6) {
        let y = py(ty);
        let _ = writeln!(
            out,
            r##"<line x1="{ML}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#dddddd" stroke-width="1"/>"##,
            ML + plot_w
        );
        let _ = writeln!(
            out,
            r##"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="end" fill="#444444">{}</text>"##,
            ML - 6.0,
            y + 4.0,
            fmt_tick(ty)
        );
    }
    for &tx in &nice_ticks(xs_min, xs_max, 8) {
        let x = px(tx);
        let _ = writeln!(
            out,
            r##"<line x1="{x:.1}" y1="{MT}" x2="{x:.1}" y2="{:.1}" stroke="#eeeeee" stroke-width="1"/>"##,
            MT + plot_h
        );
        let _ = writeln!(
            out,
            r##"<text x="{x:.1}" y="{:.1}" font-size="11" text-anchor="middle" fill="#444444">{}</text>"##,
            MT + plot_h + 18.0,
            fmt_tick(tx)
        );
    }
    // axes
    let _ = writeln!(
        out,
        r##"<rect x="{ML}" y="{MT}" width="{plot_w:.1}" height="{plot_h:.1}" fill="none" stroke="#333333" stroke-width="1"/>"##
    );
    // axis labels
    let _ = writeln!(
        out,
        r##"<text x="{:.1}" y="{:.1}" font-size="13" text-anchor="middle">{}</text>"##,
        ML + plot_w / 2.0,
        H - 14.0,
        escape(&fig.x_label)
    );
    let _ = writeln!(
        out,
        r##"<text x="18" y="{:.1}" font-size="13" text-anchor="middle" transform="rotate(-90 18 {:.1})">{}</text>"##,
        MT + plot_h / 2.0,
        MT + plot_h / 2.0,
        escape(&fig.y_label)
    );
    // series
    for (i, s) in fig.series.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        let mut points = String::new();
        for (&x, &y) in s.x.iter().zip(&s.y) {
            if x.is_finite() && y.is_finite() {
                let _ = write!(points, "{:.1},{:.1} ", px(x), py(y));
            }
        }
        let dash = if i >= COLORS.len() {
            r##" stroke-dasharray="6 3""##
        } else {
            ""
        };
        let _ = writeln!(
            out,
            r##"<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"{dash}/>"##
        );
        for (&x, &y) in s.x.iter().zip(&s.y) {
            if x.is_finite() && y.is_finite() {
                let _ = writeln!(
                    out,
                    r##"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{color}"/>"##,
                    px(x),
                    py(y)
                );
            }
        }
        // legend entry
        let ly = MT + 14.0 + i as f64 * 20.0;
        let lx = ML + plot_w + 14.0;
        let _ = writeln!(
            out,
            r##"<line x1="{lx:.1}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{color}" stroke-width="3"/>"##,
            lx + 22.0
        );
        let _ = writeln!(
            out,
            r##"<text x="{:.1}" y="{:.1}" font-size="12">{}</text>"##,
            lx + 28.0,
            ly + 4.0,
            escape(&s.label)
        );
    }
    out
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Series;

    fn fig() -> FigureData {
        FigureData {
            id: "t".into(),
            title: "Delay <vs> K & friends".into(),
            x_label: "K".into(),
            y_label: "delay".into(),
            series: vec![
                Series::new("Class-A", vec![10.0, 20.0, 30.0], vec![5.0, 3.0, 4.0]),
                Series::new("Class-B", vec![10.0, 20.0, 30.0], vec![8.0, 7.0, 9.0]),
            ],
            notes: String::new(),
        }
    }

    #[test]
    fn produces_wellformed_svg() {
        let svg = to_svg(&fig());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // one polyline per series
        assert_eq!(svg.matches("<polyline").count(), 2);
        // legend labels present and escaped title
        assert!(svg.contains("Class-A"));
        assert!(svg.contains("Delay &lt;vs&gt; K &amp; friends"));
        // balanced quotes (cheap well-formedness proxy)
        assert_eq!(svg.matches('"').count() % 2, 0);
    }

    #[test]
    fn colors_are_valid_hex() {
        for c in COLORS {
            assert!(c.starts_with('#') && !c.starts_with("##"), "{c}");
            assert_eq!(c.len(), 7);
        }
        let svg = to_svg(&fig());
        assert!(svg.contains(r##"stroke="#1b6ca8""##));
        assert!(!svg.contains("##1b6ca8"));
    }

    #[test]
    fn handles_degenerate_data() {
        let flat = FigureData {
            series: vec![Series::new("x", vec![1.0], vec![2.0])],
            ..fig()
        };
        let svg = to_svg(&flat);
        assert!(svg.contains("<polyline"));
        let empty = FigureData {
            series: vec![],
            ..fig()
        };
        let svg = to_svg(&empty);
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn fragment_composes_into_the_full_document() {
        let f = fig();
        let fragment = to_svg_fragment(&f);
        assert!(!fragment.contains("<svg"), "fragment must not open <svg>");
        assert!(!fragment.contains("</svg>"));
        let full = to_svg(&f);
        assert!(full.contains(&fragment), "to_svg wraps the fragment");
    }

    #[test]
    fn nice_ticks_are_round_and_cover_range() {
        let t = nice_ticks(0.0, 97.0, 6);
        assert!(t.contains(&0.0) && t.contains(&80.0));
        assert!(t.iter().all(|v| (v / 20.0).fract().abs() < 1e-9));
        let t2 = nice_ticks(0.3, 0.9, 5);
        assert!(t2.len() >= 3);
    }
}
