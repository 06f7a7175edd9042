//! The one figure runner: the complete experiment suite — every paper
//! figure plus every ablation — persisted as JSON/CSV/SVG under
//! `results/`. This is the binary that produced the numbers recorded in
//! EXPERIMENTS.md; its output is byte-deterministic and CI checks it
//! against the committed files. Other parameter sweeps go through the
//! `hybridcast` CLI config or the public [`hybridcast_bench::figures`]
//! functions.
//!
//! ```text
//! cargo run --release -p hybridcast-bench --bin all_experiments -- \
//!     [--scale full|quick]
//! ```

use hybridcast_bench::figures::{
    adaptive_vs_static, analytic_vs_sim, blocking_vs_bandwidth, channel_ablation, churn_vs_alpha,
    cost_dynamics, cost_vs_alpha, default_ks, delay_vs_cutoff, drift_tracking, policy_shootout,
    push_ablation, stretch_ablation, uplink_stress, ALPHAS, THETAS,
};
use hybridcast_bench::scale::RunScale;
use hybridcast_bench::{emit, util};

fn main() {
    let scale = util::scale_from_args(RunScale::full());
    let ks = default_ks();
    let t0 = std::time::Instant::now();

    eprintln!("== FIG3/FIG4/FIG3b: delay vs cutoff (paper load, lambda' = 5) ==");
    for &alpha in &ALPHAS {
        emit(&delay_vs_cutoff(0.6, 5.0, alpha, &ks, &scale));
    }
    eprintln!("== FIG3 theta sensitivity (alpha = 0) ==");
    for &theta in &[0.2, 1.0, 1.4] {
        emit(&delay_vs_cutoff(theta, 5.0, 0.0, &ks, &scale));
    }
    eprintln!("== FIG3/FIG4 light-load variant (lambda' = 0.5) ==");
    for &alpha in &[0.0, 1.0] {
        emit(&delay_vs_cutoff(0.6, 0.5, alpha, &ks, &scale));
    }

    eprintln!("== FIG5: cost dynamics ==");
    for &alpha in &[0.25, 0.75] {
        emit(&cost_dynamics(0.6, 5.0, alpha, &ks, &scale));
    }

    eprintln!("== FIG6: optimal cost vs alpha ==");
    emit(&cost_vs_alpha(&[0.2, 0.6, 1.4], 5.0, &ALPHAS, &ks, &scale));

    eprintln!("== FIG7: analytical vs simulation ==");
    emit(&analytic_vs_sim(0.6, 5.0, 0.75, &ks, &scale));
    emit(&analytic_vs_sim(0.6, 0.5, 0.75, &ks, &scale));

    eprintln!("== CLAIM-BLOCK: blocking vs bandwidth ==");
    emit(&blocking_vs_bandwidth(
        &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        40,
        &scale,
    ));

    eprintln!("== ABL-POLICY: pull-policy shoot-out ==");
    emit(&policy_shootout(0.6, 40, 0.25, &scale));

    eprintln!("== ADAPT: adaptive cutoff controller ==");
    emit(&adaptive_vs_static(&THETAS, 0.25, &scale));

    eprintln!("== ADAPT-DRIFT: tracking popularity drift ==");
    emit(&drift_tracking(&[0, 10, 30, 50], &scale));

    eprintln!("== CHURN: retention vs alpha ==");
    emit(&churn_vs_alpha(&ALPHAS, 40, &scale));

    eprintln!("== UPLINK: back-channel contention ==");
    emit(&uplink_stress(&[0.3, 0.5, 0.7, 0.9, 1.0], 40, &scale));

    eprintln!("== ABL-STRETCH / ABL-PUSH / ABL-CHANNELS ==");
    emit(&stretch_ablation(0.6, 40, &scale));
    emit(&push_ablation(0.6, &ks, &scale));
    emit(&channel_ablation(&ks, &scale));

    eprintln!("all experiments done in {:.1?}", t0.elapsed());
}
