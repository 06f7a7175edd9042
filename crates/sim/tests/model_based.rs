//! Model-based property tests for the simulation substrate: the event
//! queue against a sorted-vector reference and (with its staged slot in
//! use) against a one-heap reference, the engine against hand
//! scheduling, and the quantile histogram against the observed extremes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use hybridcast_sim::event::EventQueue;
use hybridcast_sim::quantile::Histogram;
use hybridcast_sim::stats::{mser_truncation, Welford};
use hybridcast_sim::time::SimTime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The event queue dequeues exactly what a stable sort of the input
    /// produces: ascending time, insertion order within ties.
    #[test]
    fn event_queue_matches_stable_sort(times in proptest::collection::vec(0u32..50, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::new(t as f64), i);
        }
        let mut reference: Vec<(u32, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        reference.sort_by_key(|&(t, i)| (t, i)); // stable by construction
        let mut out = Vec::new();
        while let Some((t, i)) = q.pop() {
            out.push((t.as_f64() as u32, i));
        }
        prop_assert_eq!(out, reference);
    }

    /// Interleaved pushes and pops never break the ordering invariant:
    /// every popped timestamp is ≥ the previously popped one among those
    /// currently outstanding.
    #[test]
    fn event_queue_interleaved_operations(ops in proptest::collection::vec((0u32..100, proptest::bool::ANY), 1..300)) {
        let mut q = EventQueue::new();
        let mut outstanding = 0usize;
        let mut popped = Vec::new();
        for (t, is_push) in ops {
            if is_push || outstanding == 0 {
                q.push(SimTime::new(t as f64), ());
                outstanding += 1;
            } else {
                let (pt, _) = q.pop().expect("outstanding > 0");
                popped.push(pt);
                outstanding -= 1;
            }
        }
        // Remaining drain must come out sorted and ≥ the last popped value
        // is NOT guaranteed across epochs (pops interleave with pushes of
        // smaller times), but each *drain* must be internally sorted:
        let mut rest = Vec::new();
        while let Some((t, _)) = q.pop() {
            rest.push(t);
        }
        for w in rest.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// With the staged slot in use the queue still delivers exactly what
    /// one heap of every event would: `(time, order of scheduling)`. Times
    /// come from a 4-value set so ties between the staged event and heap
    /// entries are common. Op 0 pushes, op 1 stages (pushes when the slot
    /// is taken), op 2 pops; every accessor is checked after every op.
    #[test]
    fn staged_event_queue_matches_one_heap(
        ops in proptest::collection::vec((0u8..3, 0u32..4), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
        let mut staged: Option<usize> = None;
        for (id, (op, t)) in ops.into_iter().enumerate() {
            let time = SimTime::new(t as f64);
            match op {
                0 => {
                    q.push(time, id);
                    reference.push(Reverse((t, id)));
                }
                1 if staged.is_none() => {
                    q.stage(time, id);
                    staged = Some(id);
                    reference.push(Reverse((t, id)));
                }
                1 => {
                    q.push(time, id);
                    reference.push(Reverse((t, id)));
                }
                _ => {
                    let want = reference.pop().map(|Reverse((t, i))| (t, i));
                    let got = q.pop().map(|(t, i)| (t.as_f64() as u32, i));
                    prop_assert_eq!(got, want);
                    if got.is_some() && got.map(|(_, i)| i) == staged {
                        staged = None;
                    }
                }
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(q.is_empty(), reference.is_empty());
            prop_assert_eq!(
                q.peek_time(),
                reference.peek().map(|Reverse((t, _))| SimTime::new(*t as f64))
            );
        }
        let mut rest = Vec::new();
        while let Some((t, i)) = q.pop() {
            rest.push((t.as_f64() as u32, i));
        }
        let mut want = Vec::new();
        while let Some(Reverse(entry)) = reference.pop() {
            want.push(entry);
        }
        prop_assert_eq!(rest, want);
    }

    /// Welford matches the naive two-pass mean/variance on any input.
    #[test]
    fn welford_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let scale = mean.abs().max(1.0);
        prop_assert!((w.mean() - mean).abs() / scale < 1e-9);
        let vscale = var.abs().max(1.0);
        prop_assert!((w.variance() - var).abs() / vscale < 1e-6);
    }

    /// Welford merge equals single-pass on the concatenation, for any
    /// split point.
    #[test]
    fn welford_merge_any_split(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..100),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        prop_assert_eq!(a.count(), all.count());
        prop_assert!((a.mean() - all.mean()).abs() < 1e-9);
        prop_assert!((a.variance() - all.variance()).abs() < 1e-6);
    }

    /// Every histogram quantile lies within the observed min/max, the
    /// negative samples (underflow) included.
    #[test]
    fn histogram_stays_in_range(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..500),
        q_pct in 0u32..=100,
    ) {
        let q = q_pct as f64 / 100.0;
        let mut h = Histogram::default();
        for &x in &xs {
            h.record(x);
        }
        let est = h.quantile(q).expect("non-empty");
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(est >= lo && est <= hi, "est {est} outside [{lo}, {hi}]");
    }

    /// MSER truncation never discards more than half the series and is
    /// zero for very short inputs.
    #[test]
    fn mser_truncation_is_bounded(xs in proptest::collection::vec(-1e3f64..1e3, 0..400)) {
        let cut = mser_truncation(&xs, 5);
        prop_assert!(cut <= xs.len() / 2 + 5);
        if xs.len() < 20 {
            prop_assert_eq!(cut, 0);
        }
    }
}
