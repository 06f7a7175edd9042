//! The steady state allocates nothing: a counting global allocator pins
//! the simulator's event loop, the virtual-time daemon replay and the
//! streaming trace reader at zero allocations per extra unit of work.
//!
//! `#[global_allocator]` applies to the whole binary, so this file is its
//! own test binary. The count is per thread, so the harness's other
//! threads do not leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hybridcast_core::config::HybridConfig;
use hybridcast_core::metrics::SimReport;
use hybridcast_core::sim_driver::{simulate, SimParams};
use hybridcast_ops::replay_daemon;
use hybridcast_ops::trace::{Trace, TraceMeta, TraceRecord, VERSION};
use hybridcast_workload::scenario::{Scenario, ScenarioConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; it is not measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local that neither allocates nor drops.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations (growths included) it made on this
/// thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allowed allocations per extra unit of work between two run lengths.
const PER_EXTRA: f64 = 0.001;

fn scenario() -> Scenario {
    ScenarioConfig::icpp2005(0.6).with_seed(11).build()
}

/// Events the simulator processed: arrivals plus transmissions.
fn events(r: &SimReport) -> u64 {
    let generated: u64 = r.per_class.iter().map(|c| c.generated).sum();
    generated + r.push_transmissions + r.pull_transmissions
}

#[test]
fn simulate_allocates_nothing_per_extra_event() {
    let scenario = scenario();
    for k in [0, 40, 100] {
        let hybrid = HybridConfig::paper(k, 0.25);
        let run = |horizon| {
            let params = SimParams {
                horizon,
                warmup: 0.0,
                replication: 0,
            };
            allocations(|| simulate(&scenario, &hybrid, &params))
        };
        let (short, a) = run(10_000.0);
        let (long, b) = run(40_000.0);
        let extra = events(&long) - events(&short);
        assert!(extra > 100_000, "K = {k}: only {extra} extra events");
        let per = b.saturating_sub(a) as f64 / extra as f64;
        assert!(
            per <= PER_EXTRA,
            "K = {k}: {a} → {b} allocations over {extra} extra events ({per:.5} each)"
        );
    }
}

/// `n` records at λ′ = 5 over `scenario`'s catalog, every fourth with a
/// deadline.
fn trace(scenario: &Scenario, n: u32) -> Trace {
    let num_items = scenario.catalog.len() as u32;
    let meta = TraceMeta {
        version: VERSION,
        config_hash: 0,
        channels: 1,
        plan_digest: 0,
        unit_millis: 1.0,
        num_items,
        num_classes: scenario.classes.len() as u8,
        default_deadline_ms: 0,
    };
    let records = (0..n)
        .map(|i| TraceRecord {
            arrival: f64::from(i) * 0.2,
            item: (i.wrapping_mul(2_654_435_761) >> 7) % num_items,
            class: (i % 3) as u8,
            channel: 0,
            deadline_ms: if i % 4 == 3 { 2_000 } else { 0 },
        })
        .collect();
    Trace { meta, records }
}

#[test]
fn replay_daemon_allocates_nothing_per_extra_record() {
    let scenario = scenario();
    let hybrid = HybridConfig::paper(40, 0.25);
    let (short, long) = (trace(&scenario, 20_000), trace(&scenario, 80_000));
    let (books, a) = allocations(|| replay_daemon(&scenario, &hybrid, 1.0, &short));
    assert!(books.conservation_ok);
    let (books, b) = allocations(|| replay_daemon(&scenario, &hybrid, 1.0, &long));
    assert!(books.conservation_ok);
    let extra = (long.records.len() - short.records.len()) as f64;
    let per = b.saturating_sub(a) as f64 / extra;
    assert!(
        per <= PER_EXTRA,
        "{a} → {b} allocations over {extra} extra records ({per:.5} each)"
    );
}

#[test]
fn trace_read_allocates_the_same_for_any_length() {
    let scenario = scenario();
    let dir = std::env::temp_dir().join(format!("alloc-guard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let mut counts = Vec::new();
    for n in [1_000, 100_000] {
        let path = dir.join(format!("{n}.hct"));
        let written = trace(&scenario, n);
        written.write(&path).expect("write");
        let (read, allocs) = allocations(|| Trace::read(&path).expect("read"));
        assert_eq!(read, written);
        counts.push(allocs);
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        counts[0], counts[1],
        "Trace::read of 1 000 vs 100 000 records"
    );
}
