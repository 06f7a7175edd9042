//! Greedy case minimization: strip a failing configuration down to the
//! smallest one that still fails.
//!
//! The vendored proptest stand-in has no shrinking, so the testkit brings
//! its own: a fixed list of simplifying transformations (drop a fault,
//! disable the uplink, lift admission control, collapse to one class,
//! halve the catalog / horizon / load, pull the cutoff to a corner, …)
//! applied greedily to fixpoint. Every accepted step must keep the case
//! failing under the caller's predicate, so the output reproduces the
//! original failure with strictly less machinery in the way.

use hybridcast_core::bandwidth::BandwidthConfig;
use hybridcast_core::prelude::ChannelLayout;
use hybridcast_core::pull::PullPolicyKind;
use hybridcast_core::push::PushKind;
use hybridcast_workload::classes::ClassSet;

use crate::case::FuzzCase;

/// One simplification attempt; `None` when it does not apply (the case is
/// already in that transform's simplest form).
type Transform = fn(&FuzzCase) -> Option<FuzzCase>;

fn drop_one_fault(case: &FuzzCase) -> Option<FuzzCase> {
    if case.faults.is_empty() {
        return None;
    }
    let mut out = case.clone();
    out.faults.remove(0);
    Some(out)
}

fn drop_last_fault(case: &FuzzCase) -> Option<FuzzCase> {
    if case.faults.len() < 2 {
        return None;
    }
    let mut out = case.clone();
    out.faults.pop();
    Some(out)
}

fn drop_adaptive(case: &FuzzCase) -> Option<FuzzCase> {
    case.adaptive.is_some().then(|| {
        let mut out = case.clone();
        out.adaptive = None;
        out
    })
}

/// Falls back from the measured-feedback controller to the plain
/// model-argmin retune (strictly less machinery, same adaptive cadence).
fn drop_controller(case: &FuzzCase) -> Option<FuzzCase> {
    case.adaptive
        .as_ref()
        .is_some_and(|a| a.controller.is_some())
        .then(|| {
            let mut out = case.clone();
            out.adaptive.as_mut().expect("checked above").controller = None;
            out
        })
}

fn drop_nonstationary(case: &FuzzCase) -> Option<FuzzCase> {
    case.scenario.nonstationary.is_some().then(|| {
        let mut out = case.clone();
        out.scenario.nonstationary = None;
        out
    })
}

fn drop_uplink(case: &FuzzCase) -> Option<FuzzCase> {
    case.hybrid.uplink.is_some().then(|| {
        let mut out = case.clone();
        out.hybrid.uplink = None;
        out
    })
}

fn lift_admission_control(case: &FuzzCase) -> Option<FuzzCase> {
    let unlimited = BandwidthConfig::default();
    (case.hybrid.bandwidth != unlimited).then(|| {
        let mut out = case.clone();
        out.hybrid.bandwidth = unlimited;
        out
    })
}

fn drop_drift_and_batching(case: &FuzzCase) -> Option<FuzzCase> {
    (case.scenario.drift.is_some() || case.scenario.batch_mean.is_some()).then(|| {
        let mut out = case.clone();
        out.scenario.drift = None;
        out.scenario.batch_mean = None;
        out
    })
}

fn interleave_channels(case: &FuzzCase) -> Option<FuzzCase> {
    (case.hybrid.channels != ChannelLayout::Interleaved).then(|| {
        let mut out = case.clone();
        out.hybrid.channels = ChannelLayout::Interleaved;
        out
    })
}

fn one_pull_per_push(case: &FuzzCase) -> Option<FuzzCase> {
    (case.hybrid.pull_per_push != 1).then(|| {
        let mut out = case.clone();
        out.hybrid.pull_per_push = 1;
        out
    })
}

fn flat_push(case: &FuzzCase) -> Option<FuzzCase> {
    (case.hybrid.push != PushKind::Flat).then(|| {
        let mut out = case.clone();
        out.hybrid.push = PushKind::Flat;
        out
    })
}

fn simple_pull_policy(case: &FuzzCase) -> Option<FuzzCase> {
    let simple = PullPolicyKind::importance(0.5);
    (case.hybrid.pull != simple).then(|| {
        let mut out = case.clone();
        out.hybrid.pull = simple;
        out
    })
}

fn single_class(case: &FuzzCase) -> Option<FuzzCase> {
    (case.scenario.classes.len() > 1).then(|| {
        let mut out = case.clone();
        out.scenario.classes = ClassSet::single();
        out
    })
}

fn halve_catalog(case: &FuzzCase) -> Option<FuzzCase> {
    if case.scenario.num_items <= 1 {
        return None;
    }
    let mut out = case.clone();
    out.scenario.num_items = (case.scenario.num_items / 2).max(1);
    clamp_cutoffs(&mut out);
    Some(out)
}

fn cutoff_to_zero(case: &FuzzCase) -> Option<FuzzCase> {
    (case.hybrid.cutoff != 0).then(|| {
        let mut out = case.clone();
        out.hybrid.cutoff = 0;
        out
    })
}

fn halve_horizon(case: &FuzzCase) -> Option<FuzzCase> {
    if case.horizon <= 200.0 {
        return None;
    }
    let mut out = case.clone();
    out.horizon = (case.horizon / 2.0).max(200.0);
    // Faults scheduled past the shorter horizon simply never fire; the
    // predicate decides whether the failure survives.
    Some(out)
}

fn halve_rate(case: &FuzzCase) -> Option<FuzzCase> {
    if case.scenario.arrival_rate <= 0.5 {
        return None;
    }
    let mut out = case.clone();
    out.scenario.arrival_rate = (case.scenario.arrival_rate / 2.0).max(0.5);
    Some(out)
}

/// Keeps every cutoff-like knob inside the (possibly shrunk) catalog.
fn clamp_cutoffs(case: &mut FuzzCase) {
    let d = case.scenario.num_items;
    case.hybrid.cutoff = case.hybrid.cutoff.min(d);
    if let Some(adaptive) = &mut case.adaptive {
        for k in &mut adaptive.candidate_ks {
            *k = (*k).min(d);
        }
        adaptive.candidate_ks.sort_unstable();
        adaptive.candidate_ks.dedup();
        if let Some(ctrl) = &mut adaptive.controller {
            ctrl.k_min = ctrl.k_min.min(d);
            ctrl.k_max = ctrl.k_max.min(d).max(ctrl.k_min);
        }
    }
}

/// The transforms in application order: cheap structural strips first,
/// size reductions last.
const TRANSFORMS: &[Transform] = &[
    drop_one_fault,
    drop_last_fault,
    drop_controller,
    drop_adaptive,
    drop_nonstationary,
    drop_uplink,
    lift_admission_control,
    drop_drift_and_batching,
    interleave_channels,
    one_pull_per_push,
    flat_push,
    simple_pull_policy,
    single_class,
    halve_catalog,
    cutoff_to_zero,
    halve_horizon,
    halve_rate,
];

/// Greedily minimizes `case` under `still_fails`, which must return `true`
/// for the input case (and for any case that reproduces the failure).
/// Terminates at a fixpoint: no single transform can simplify further
/// without losing the failure.
pub(crate) fn shrink(case: &FuzzCase, mut still_fails: impl FnMut(&FuzzCase) -> bool) -> FuzzCase {
    let mut current = case.clone();
    // Each transform either strips a feature (idempotent) or halves a
    // bounded quantity, so the loop terminates; the cap is a backstop.
    for _ in 0..200 {
        let mut progressed = false;
        for transform in TRANSFORMS {
            if let Some(candidate) = transform(&current) {
                if still_fails(&candidate) {
                    current = candidate;
                    progressed = true;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_case;

    #[test]
    fn shrinks_to_the_failure_preserving_core() {
        // Find a seed whose generated case carries plenty of machinery.
        let case = (0..200)
            .map(generate_case)
            .find(|c| c.hybrid.uplink.is_some() && !c.faults.is_empty() && c.scenario.num_items > 2)
            .expect("generator must produce rich cases");
        // Synthetic failure: reproduces whenever an uplink is configured.
        let minimized = shrink(&case, |c| c.hybrid.uplink.is_some());
        assert!(minimized.hybrid.uplink.is_some(), "failure must survive");
        assert!(minimized.faults.is_empty());
        assert_eq!(minimized.scenario.num_items, 1);
        assert_eq!(minimized.scenario.classes.len(), 1);
        assert_eq!(minimized.hybrid.cutoff, 0);
        assert!(minimized.horizon <= 400.0);
    }

    #[test]
    fn shrinking_a_passing_predicate_is_a_fixpoint_walk() {
        let case = generate_case(3);
        // A predicate that always fails keeps nothing: everything strips.
        let minimized = shrink(&case, |_| true);
        assert!(minimized.faults.is_empty());
        assert!(minimized.hybrid.uplink.is_none());
        assert_eq!(minimized.hybrid.pull_per_push, 1);
    }

    #[test]
    fn candidate_cutoffs_stay_inside_the_shrunk_catalog() {
        let mut case = generate_case(11);
        case.scenario.num_items = 10;
        case.hybrid.cutoff = 10;
        case.adaptive = Some(hybridcast_core::prelude::AdaptiveConfig {
            period: 100.0,
            candidate_ks: vec![2, 8, 10],
            smoothing: 0.5,
            rerank: false,
            controller: Some(hybridcast_core::prelude::ControllerConfig {
                k_min: 4,
                k_max: 10,
                ..Default::default()
            }),
        });
        // Keep the adaptive block but halve the catalog: ks must clamp.
        let minimized = shrink(&case, |c| c.adaptive.is_some());
        let d = minimized.scenario.num_items;
        assert!(minimized.hybrid.cutoff <= d);
        let ks = &minimized.adaptive.as_ref().unwrap().candidate_ks;
        assert!(ks.iter().all(|&k| k <= d), "{ks:?} vs D = {d}");
    }

    #[test]
    fn controller_band_stays_inside_the_shrunk_catalog() {
        let mut case = generate_case(11);
        case.scenario.num_items = 10;
        case.hybrid.cutoff = 10;
        case.adaptive = Some(hybridcast_core::prelude::AdaptiveConfig {
            period: 100.0,
            candidate_ks: vec![5],
            smoothing: 0.5,
            rerank: false,
            controller: Some(hybridcast_core::prelude::ControllerConfig {
                k_min: 6,
                k_max: 10,
                ..Default::default()
            }),
        });
        // The failure "needs" the controller, so only the catalog shrinks
        // around it — the band must follow.
        let minimized = shrink(&case, |c| {
            c.adaptive.as_ref().is_some_and(|a| a.controller.is_some())
        });
        let d = minimized.scenario.num_items;
        let adaptive = minimized.adaptive.as_ref().unwrap();
        let ctrl = adaptive.controller.as_ref().unwrap();
        assert!(ctrl.k_min <= ctrl.k_max, "band stays non-empty");
        assert!(ctrl.k_max <= d, "k_max {} vs D = {d}", ctrl.k_max);
    }
}
