//! Pull-selection scaling sweep: linear scan vs the incremental score
//! index at catalog sizes `D ∈ {100, 10_000, 100_000, 1_000_000}`.
//!
//! ```text
//! cargo run --release -p hybridcast-bench --bin bench -- scale_sweep [quick]
//! ```
//!
//! Each variant runs a steady-state churn loop on its own queue — select
//! the best item, remove it, re-queue a fresh request for it — so the
//! active set stays constant while scores keep moving. Results (ns/op per
//! variant plus the speedup) are printed as markdown and written to
//! `results/BENCH_pull_select.json`. The sweep checks the tentpole
//! acceptance bars in-process: ≥10× at `D = 100_000`, no slowdown at
//! `D = 100`.

use std::time::Instant;

use hybridcast_core::pull::{IndexContext, PullContext, PullPolicy, PullPolicyKind};
use hybridcast_core::queue::PullQueue;
use hybridcast_sim::rng::{streams, RngFactory};
use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::{Catalog, ItemId};
use hybridcast_workload::classes::{ClassId, ClassSet};
use hybridcast_workload::lengths::LengthModel;
use hybridcast_workload::popularity::PopularityModel;
use hybridcast_workload::requests::Request;
use serde_json::json;

use crate::report::{Host, Needs, Report};

fn catalog(d: usize) -> Catalog {
    let f = RngFactory::new(42);
    let mut rng = f.stream(streams::LENGTHS);
    Catalog::build(
        d,
        &PopularityModel::zipf(0.6),
        &LengthModel::paper_default(),
        &mut rng,
    )
}

/// Every item active with one pending request, index kept current.
fn filled(cat: &Catalog, classes: &ClassSet, policy: &dyn PullPolicy) -> PullQueue {
    let mut q = PullQueue::new(cat.len());
    let ictx = IndexContext {
        catalog: cat,
        classes,
    };
    for i in 0..cat.len() {
        let req = Request {
            arrival: SimTime::new(i as f64 * 1e-3),
            item: ItemId(i as u32),
            class: ClassId((i % 3) as u8),
        };
        q.insert(&req, classes.priority(req.class));
        let s = policy
            .rescore(q.get(req.item).unwrap(), &ictx)
            .expect("policy advertises an index");
        q.reindex(req.item, s);
    }
    q
}

struct Churn<'a> {
    q: PullQueue,
    classes: &'a ClassSet,
    t: f64,
    step: u64,
}

impl Churn<'_> {
    /// Removes `sel` and immediately re-queues a request for it, so the
    /// active set size is invariant across iterations.
    fn turn_over(&mut self, sel: ItemId) -> Request {
        let e = self.q.remove(sel);
        self.q.recycle(e);
        self.t += 1e-3;
        self.step += 1;
        let req = Request {
            arrival: SimTime::new(self.t),
            item: sel,
            class: ClassId((self.step % 3) as u8),
        };
        self.q.insert(&req, self.classes.priority(req.class));
        req
    }
}

fn run_scan(mut c: Churn<'_>, policy: &dyn PullPolicy, ctx: &PullContext<'_>, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        let sel =
            c.q.select_max(|e| policy.score(e, ctx))
                .expect("queue never empties");
        c.turn_over(sel);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn run_indexed(
    mut c: Churn<'_>,
    policy: &dyn PullPolicy,
    ictx: &IndexContext<'_>,
    iters: u64,
) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        let sel = c.q.select_max_indexed().expect("queue never empties");
        let req = c.turn_over(sel);
        let s = policy
            .rescore(c.q.get(req.item).unwrap(), ictx)
            .expect("policy advertises an index");
        c.q.reindex(req.item, s);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Runs the gate.
pub fn run(host: &Host) -> Report {
    let sizes: &[usize] = host.pick(&[100, 10_000], &[100, 10_000, 100_000, 1_000_000]);
    let classes = ClassSet::paper_default();
    let policy = PullPolicyKind::importance(0.5).build();

    println!("# BENCH_pull_select — scan vs indexed selection under churn\n");
    println!("| D | scan ns/op | indexed ns/op | speedup |");
    println!("|---|-----------|---------------|---------|");

    let mut rows = Vec::new();
    let mut speedup_100k = None;
    let mut pass_small = true;
    for &d in sizes {
        let cat = catalog(d);
        let ctx = PullContext {
            catalog: &cat,
            classes: &classes,
            now: SimTime::new(1e6),
            mean_queue_len: d as f64,
        };
        let ictx = IndexContext {
            catalog: &cat,
            classes: &classes,
        };
        // Scan is O(D) per op: scale its iteration count down with D so
        // the sweep stays interactive; the index gets a fixed budget.
        let iters_scan = (20_000_000 / d as u64).clamp(50, 200_000);
        let iters_indexed = 200_000u64;

        let mk = || Churn {
            q: filled(&cat, &classes, policy.as_ref()),
            classes: &classes,
            t: 1e3,
            step: 0,
        };
        // Warm-up pass (untimed) before each measured run.
        let scan_ns = {
            run_scan(mk(), policy.as_ref(), &ctx, iters_scan.min(50));
            run_scan(mk(), policy.as_ref(), &ctx, iters_scan)
        };
        let indexed_ns = {
            run_indexed(mk(), policy.as_ref(), &ictx, 10_000);
            run_indexed(mk(), policy.as_ref(), &ictx, iters_indexed)
        };
        let speedup = scan_ns / indexed_ns;
        println!("| {d} | {scan_ns:.1} | {indexed_ns:.1} | {speedup:.1}x |");
        if d == 100_000 {
            speedup_100k = Some(speedup);
        }
        if d == 100 && indexed_ns > scan_ns {
            pass_small = false;
        }
        rows.push(json!({
            "d": d,
            "active": d,
            "iters_scan": iters_scan,
            "iters_indexed": iters_indexed,
            "scan_ns_per_op": scan_ns,
            "indexed_ns_per_op": indexed_ns,
            "speedup": speedup,
        }));
    }

    let mut report = Report::new(
        "pull_select",
        host,
        json!({
            "policy": "importance(alpha=0.5, exponent=2)",
            "workload": "steady-state churn, every item active, zipf(0.6) catalog",
            "rows": rows,
        }),
    );
    // Quick mode stops at D = 10_000, so there is no row to judge.
    report.gate(
        Needs::full(1),
        ">=10x at D=100_000",
        10.0,
        json!(speedup_100k),
        speedup_100k.is_some_and(|s| s >= 10.0),
    );
    report.gate(
        Needs::NOTHING,
        "indexed <= scan at D=100",
        true,
        pass_small,
        pass_small,
    );
    report
}
