//! # hybridcast-bench — the experiment harness
//!
//! Two front doors, both under `src/bin/`:
//!
//! * **`all_experiments`** regenerates every figure of the paper's
//!   evaluation (and the ablations listed in DESIGN.md) at publication
//!   scale and writes JSON/CSV/SVG under `results/`:
//!
//!   | experiment | paper artifact | function |
//!   |---|---|---|
//!   | FIG3/FIG4/FIG3b | Figures 3–4 (+ §5.2 middle α) | [`figures::delay_vs_cutoff`] |
//!   | FIG5 | Figure 5 | [`figures::cost_dynamics`] |
//!   | FIG6 | Figure 6 | [`figures::cost_vs_alpha`] |
//!   | FIG7 | Figure 7 | [`figures::analytic_vs_sim`] |
//!   | CLAIM-BLOCK | §5 blocking claim | [`figures::blocking_vs_bandwidth`] |
//!   | ABL-POLICY | baseline comparison | [`figures::policy_shootout`] |
//!   | ADAPT | adaptive vs static cutoff | [`figures::adaptive_vs_static`] |
//!   | ADAPT-DRIFT | tracking popularity drift | [`figures::drift_tracking`] |
//!   | CHURN | retention vs α | [`figures::churn_vs_alpha`] |
//!   | UPLINK | back-channel contention | [`figures::uplink_stress`] |
//!   | ABL-STRETCH | `R/L` vs `R/L²` | [`figures::stretch_ablation`] |
//!   | ABL-PUSH | push-scheduler choice | [`figures::push_ablation`] |
//!   | ABL-CHANNELS | interleaved vs split downlink | [`figures::channel_ablation`] |
//!
//!   The figure functions are public and take their grids as arguments;
//!   a sweep the suite does not run is a call to one of them (or a
//!   `hybridcast` CLI config), not another binary.
//!
//! * **`bench <gate> [quick]`** runs one of the eight acceptance gates in
//!   [`gates`] and writes `results/BENCH_<name>.json` under the one
//!   envelope [`report`] defines. [`report`] alone decides what `quick`
//!   means, how many cores the host has and when a gate is skipped;
//!   [`ladder`] alone drives an in-process daemon up a rate ladder.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dashboard;
pub mod figures;
pub mod gates;
pub mod ladder;
pub mod report;
pub mod runner;
pub mod scale;
pub mod series;
pub mod svg;
pub mod util;

use std::path::PathBuf;

/// The workspace-level `results/` directory (overridable with
/// `HYBRIDCAST_RESULTS`).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("HYBRIDCAST_RESULTS") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Emits a figure to stdout (markdown) and persists JSON + CSV + SVG under
/// [`results_dir`].
pub fn emit(fig: &series::FigureData) {
    println!("{}", fig.to_markdown());
    let dir = results_dir();
    let svg_result = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{}.svg", fig.id)), svg::to_svg(fig)));
    match fig.write_to(&dir).and(svg_result) {
        Ok(()) => eprintln!("[saved {}/{}.{{json,csv,svg}}]", dir.display(), fig.id),
        Err(e) => eprintln!("[warn: could not persist results: {e}]"),
    }
}
