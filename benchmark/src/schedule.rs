//! Inputs made from `--seed`: the open-loop request schedule the daemon
//! workloads send, and the HCT1 record stream `trace_whatif` replays. The
//! program under test receives only these generated inputs, never the seed.

use hybridcast_ops::trace::TraceRecord;
use hybridcast_sim::dist::{Discrete, Exponential, Zipf};
use hybridcast_sim::rng::{RngFactory, Xoshiro256};

/// Zipf skew of the item law (the paper's θ).
pub const ZIPF_THETA: f64 = 0.6;
/// Class population shares A : B : C = 2/11 : 3/11 : 6/11 (the paper's
/// three-tier split; A is the premium minority).
pub const CLASS_SHARES: [f64; 3] = [2.0 / 11.0, 3.0 / 11.0, 6.0 / 11.0];

// RNG lanes, one per draw so changing one law never shifts another.
const GAP_STREAM: u64 = 0xB0;
const ITEM_STREAM: u64 = 0xB1;
const CLASS_STREAM: u64 = 0xB2;

/// The gap, item and class streams of one seed.
fn lanes(seed: u64) -> (Xoshiro256, Xoshiro256, Xoshiro256) {
    let factory = RngFactory::new(seed);
    (
        factory.stream(GAP_STREAM),
        factory.stream(ITEM_STREAM),
        factory.stream(CLASS_STREAM),
    )
}

/// One request the generator owes the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Due instant, nanoseconds after the schedule's start.
    pub due_ns: u64,
    pub item: u32,
    pub class: u8,
    /// Wall-ms deadline carried in the frame (0 = none).
    pub deadline_ms: u32,
}

/// Shape of a daemon workload's traffic.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub rate_per_s: f64,
    pub num_items: usize,
    /// Every `n`-th request carries `deadline_ms` (0 = never).
    pub deadline_every: u32,
    pub deadline_ms: u32,
}

/// A Poisson schedule covering `[0, duration_s)`, fixed before the run
/// starts: send instants never depend on reply latency (open loop).
pub fn poisson_schedule(seed: u64, traffic: &Traffic, duration_s: f64) -> Vec<Planned> {
    let (mut gap_rng, mut item_rng, mut class_rng) = lanes(seed);
    let gaps = Exponential::new(traffic.rate_per_s);
    let items = Zipf::new(traffic.num_items, ZIPF_THETA);
    let classes = Discrete::new(&CLASS_SHARES);
    let mut out = Vec::with_capacity((traffic.rate_per_s * duration_s * 1.02) as usize + 16);
    let mut t = gaps.sample(&mut gap_rng);
    let mut n = 0u32;
    while t < duration_s {
        n = n.wrapping_add(1);
        let with_deadline = traffic.deadline_every != 0 && n.is_multiple_of(traffic.deadline_every);
        out.push(Planned {
            due_ns: (t * 1e9) as u64,
            item: items.sample(&mut item_rng) as u32,
            class: classes.sample(&mut class_rng) as u8,
            deadline_ms: if with_deadline {
                traffic.deadline_ms
            } else {
                0
            },
        });
        t += gaps.sample(&mut gap_rng);
    }
    out
}

/// Arrival rate of the generated trace, requests per broadcast unit (λ′).
pub const TRACE_LAMBDA: f64 = 5.0;
/// Catalog size of the generated trace (the paper's D).
pub const TRACE_ITEMS: usize = 100;
/// Deadline on every fourth record, wall ms (= broadcast units at the
/// trace's `unit_millis` of 1.0).
pub const TRACE_DEADLINE_MS: u32 = 2_000;

/// `n` single-channel HCT1 records in arrival order.
pub fn trace_records(seed: u64, n: usize) -> Vec<TraceRecord> {
    let (mut gap_rng, mut item_rng, mut class_rng) = lanes(seed);
    let gaps = Exponential::new(TRACE_LAMBDA);
    let items = Zipf::new(TRACE_ITEMS, ZIPF_THETA);
    let classes = Discrete::new(&CLASS_SHARES);
    let mut arrival = 0.0f64;
    (0..n)
        .map(|i| {
            arrival += gaps.sample(&mut gap_rng);
            TraceRecord {
                arrival,
                item: items.sample(&mut item_rng) as u32,
                class: classes.sample(&mut class_rng) as u8,
                channel: 0,
                deadline_ms: if i % 4 == 3 { TRACE_DEADLINE_MS } else { 0 },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRAFFIC: Traffic = Traffic {
        rate_per_s: 10_000.0,
        num_items: 1_000,
        deadline_every: 4,
        deadline_ms: 5_000,
    };

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, &TRAFFIC, 1.0);
        assert_eq!(a, poisson_schedule(7, &TRAFFIC, 1.0));
        assert_ne!(a, poisson_schedule(8, &TRAFFIC, 1.0));
    }

    #[test]
    fn schedule_has_the_stated_shape() {
        let s = poisson_schedule(1, &TRAFFIC, 2.0);
        let n = s.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "{n} requests for 10k/s × 2 s");
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|p| p.due_ns < 2_000_000_000));
        assert!(s.iter().all(|p| (p.item as usize) < 1_000 && p.class < 3));
        let deadlines = s.iter().filter(|p| p.deadline_ms == 5_000).count();
        assert_eq!(deadlines, s.len() / 4);
        let a = s.iter().filter(|p| p.class == 0).count() as f64 / n;
        let c = s.iter().filter(|p| p.class == 2).count() as f64 / n;
        assert!((a - 2.0 / 11.0).abs() < 0.02 && (c - 6.0 / 11.0).abs() < 0.02);
    }

    #[test]
    fn trace_stream_is_a_function_of_the_seed() {
        let a = trace_records(3, 5_000);
        assert_eq!(a, trace_records(3, 5_000));
        assert_ne!(a, trace_records(4, 5_000));
        assert!(a.windows(2).all(|w| w[0].arrival < w[1].arrival));
        assert_eq!(a.iter().filter(|r| r.deadline_ms != 0).count(), 1_250);
        // The byte stream, not just the structs, repeats.
        let bytes = |rs: &[TraceRecord]| rs.iter().flat_map(|r| r.encode()).collect::<Vec<u8>>();
        assert_eq!(bytes(&a), bytes(&trace_records(3, 5_000)));
    }
}
