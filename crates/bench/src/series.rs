//! Output containers for experiment results: named series and renderers
//! (markdown tables, CSV, JSON) shared by every figure regenerator.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::Path;

/// One named curve: `y` versus `x`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label ("Class-A", "analytical", ...).
    pub label: String,
    /// X coordinates.
    pub x: Vec<f64>,
    /// Y values, same length as `x`.
    pub y: Vec<f64>,
}

impl Series {
    /// Builds a series; panics if `x` and `y` disagree in length.
    pub fn new(label: impl Into<String>, x: Vec<f64>, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "series coordinates must align");
        Series {
            label: label.into(),
            x,
            y,
        }
    }
}

/// One reproduced figure: metadata plus its curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureData {
    /// Stable experiment id ("fig3", "fig7", "abl-stretch", ...).
    pub id: String,
    /// Human title, mirroring the paper's caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
    /// Free-form provenance: parameters, replication counts, caveats.
    pub notes: String,
}

impl FigureData {
    /// Renders a GitHub-flavoured markdown table (x in the first column,
    /// one column per series).
    pub(crate) fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        if !self.notes.is_empty() {
            let _ = writeln!(out, "{}\n", self.notes);
        }
        let _ = write!(out, "| {} |", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {} |", s.label);
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.series {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        let xs = self.series.first().map(|s| s.x.as_slice()).unwrap_or(&[]);
        for (i, &x) in xs.iter().enumerate() {
            let _ = write!(out, "| {x:.3} |");
            for s in &self.series {
                match s.y.get(i) {
                    Some(y) => {
                        let _ = write!(out, " {y:.3} |");
                    }
                    None => {
                        let _ = write!(out, " — |");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders CSV with an `x` column followed by one column per series.
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "x");
        for s in &self.series {
            let _ = write!(out, ",{}", s.label.replace(',', ";"));
        }
        let _ = writeln!(out);
        let xs = self.series.first().map(|s| s.x.as_slice()).unwrap_or(&[]);
        for (i, &x) in xs.iter().enumerate() {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.y.get(i) {
                    Some(y) => {
                        let _ = write!(out, ",{y}");
                    }
                    None => {
                        let _ = write!(out, ",");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Writes `<dir>/<id>.json` and `<dir>/<id>.csv`; creates `dir` if
    /// needed.
    pub(crate) fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("{}.json", self.id)),
            serde_json::to_string_pretty(self).expect("figure data serializes"),
        )?;
        std::fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureData {
        FigureData {
            id: "figX".into(),
            title: "Test".into(),
            x_label: "K".into(),
            y_label: "delay".into(),
            series: vec![
                Series::new("A", vec![1.0, 2.0], vec![10.0, 5.0]),
                Series::new("B", vec![1.0, 2.0], vec![20.0, 15.0]),
            ],
            notes: "note".into(),
        }
    }

    #[test]
    fn markdown_has_header_and_rows() {
        let md = sample().to_markdown();
        assert!(md.contains("### figX — Test"));
        assert!(md.contains("| K | A | B |"));
        assert!(md.contains("| 1.000 | 10.000 | 20.000 |"));
    }

    #[test]
    fn csv_round_trips_structure() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,A,B");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("1,10"));
    }

    #[test]
    fn writes_files() {
        let dir = std::env::temp_dir().join("hybridcast-series-test");
        let _ = std::fs::remove_dir_all(&dir);
        sample().write_to(&dir).unwrap();
        assert!(dir.join("figX.json").exists());
        assert!(dir.join("figX.csv").exists());
        let back: FigureData =
            serde_json::from_str(&std::fs::read_to_string(dir.join("figX.json")).unwrap()).unwrap();
        assert_eq!(back, sample());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_series_rejected() {
        let _ = Series::new("A", vec![1.0], vec![1.0, 2.0]);
    }
}
