//! Property tests for the replication engine's aggregation guarantees:
//!
//! 1. the Chan-et-al. [`Welford::merge`] reduction is *order-invariant* —
//!    merging per-chunk accumulators in any permutation, or as a balanced
//!    tree (the shape a work-stealing scheduler would produce), agrees
//!    with the plain sequential fold up to ulp-scale floating-point noise;
//! 2. the parallel cutoff sweep returns the same curve, bit for bit, as
//!    a plain in-order loop over the same runs — on arbitrary K grids and
//!    replication counts, because the evaluator only reorders *where*
//!    runs are computed, never *how* they are grouped and reduced.

use proptest::prelude::*;

use hybridcast_core::config::HybridConfig;
use hybridcast_core::cutoff::{CutoffOptimizer, CutoffPoint, Objective};
use hybridcast_core::sim_driver::{simulate, SimParams};
use hybridcast_sim::stats::Welford;
use hybridcast_workload::scenario::ScenarioConfig;

/// splitmix64 — deterministic shuffle driver for the permutation cases.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut s) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Merges the accumulators pairwise as a balanced binary tree.
fn tree_merge(mut accs: Vec<Welford>) -> Welford {
    while accs.len() > 1 {
        let mut next = Vec::with_capacity(accs.len().div_ceil(2));
        let mut it = accs.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                a.merge(&b);
            }
            next.push(a);
        }
        accs = next;
    }
    accs.pop().unwrap_or_default()
}

fn assert_close(label: &str, got: f64, want: f64, rel: f64) {
    let scale = want.abs().max(1.0);
    assert!(
        (got - want).abs() <= rel * scale,
        "{label}: {got} vs {want} (tolerance {rel} × {scale})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any permutation of the chunk merge, and the balanced-tree merge,
    /// agree with the sequential fold over all observations.
    #[test]
    fn welford_merge_is_order_invariant(
        chunks in proptest::collection::vec(
            proptest::collection::vec(-1e3f64..1e3, 0..40),
            1..12,
        ),
        seed in 0u64..u64::MAX,
    ) {
        // Ground truth: one accumulator fed every observation in order.
        let mut sequential = Welford::new();
        for x in chunks.iter().flatten() {
            sequential.push(*x);
        }

        // One accumulator per chunk, as each replication would produce.
        let accs: Vec<Welford> = chunks
            .iter()
            .map(|chunk| {
                let mut w = Welford::new();
                for x in chunk {
                    w.push(*x);
                }
                w
            })
            .collect();

        // Permuted left-fold merge.
        let mut permuted = Welford::new();
        for i in shuffled(accs.len(), seed) {
            permuted.merge(&accs[i]);
        }
        // Balanced-tree merge (in chunk order).
        let tree = tree_merge(accs.clone());

        for (name, merged) in [("permuted", &permuted), ("tree", &tree)] {
            prop_assert_eq!(merged.count(), sequential.count(), "{} count", name);
            if sequential.count() == 0 {
                continue;
            }
            assert_close(
                &format!("{name} mean"),
                merged.mean(),
                sequential.mean(),
                1e-9,
            );
            assert_close(
                &format!("{name} variance"),
                merged.variance(),
                sequential.variance(),
                1e-6,
            );
            prop_assert_eq!(merged.min(), sequential.min(), "{} min", name);
            prop_assert_eq!(merged.max(), sequential.max(), "{} max", name);
        }
    }
}

proptest! {
    // Each case runs 2·|K|·R simulations; keep the case budget small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The parallel sweep agrees with the in-order reference — identical
    /// curve, the minimum at `best_k` — for arbitrary grids and per-point
    /// replication counts.
    #[test]
    fn parallel_sweep_matches_serial_on_random_grids(
        // icpp2005 catalog holds 100 items; K may not exceed it.
        ks in proptest::collection::vec(0usize..101, 1..6),
        replications in 1u64..3,
        theta in prop_oneof![Just(0.4), Just(0.6), Just(0.95)],
    ) {
        let scenario = ScenarioConfig::icpp2005(theta).build();
        let cfg = HybridConfig::paper(40, 0.5);
        let params = SimParams::quick();
        let objective = Objective::TotalPrioritizedCost;
        let mut serial = Vec::new();
        for &k in &ks {
            let mut reports = Vec::new();
            for i in 0..replications {
                let params = params.with_replication(params.replication + i);
                reports.push(simulate(&scenario, &cfg.with_cutoff(k), &params));
            }
            serial.push(CutoffPoint::from_reports(objective, k, &reports));
        }
        let parallel = CutoffOptimizer::new(objective, params)
            .with_replications(replications)
            .sweep(&scenario, &cfg, ks.clone());
        prop_assert_eq!(&parallel.points, &serial, "full curve is bit-identical");
        let best = parallel.best().objective;
        let first_min = serial.iter().position(|p| p.objective.total_cmp(&best).is_eq());
        prop_assert_eq!(first_min, Some(parallel.best_index));
        prop_assert!(serial.iter().all(|p| best.total_cmp(&p.objective).is_le()));
    }
}
