//! Broadcast disks (Acharya, Alonso, Franklin & Zdonik, SIGMOD '95).
//!
//! The push set is partitioned into popularity tiers ("disks"); hotter
//! disks spin faster, so their items recur more often in the broadcast. We
//! use the classic chunk-interleaving construction:
//!
//! 1. split the push prefix into `n` contiguous disks (hottest first) with
//!    relative frequencies `n, n−1, …, 1`;
//! 2. `L = lcm(freqs)`; disk `j` is split into `L / freq_j` chunks;
//! 3. the major cycle emits, for each minor cycle `m ∈ 0..L`, chunk
//!    `m mod num_chunks_j` of every disk `j`.
//!
//! The whole major cycle is precomputed; `next` walks it.

use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::{Catalog, ItemId};

use crate::push::PushScheduler;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

/// Multi-speed tiered broadcast schedule.
#[derive(Debug, Clone)]
pub struct BroadcastDisks {
    k: usize,
    cycle: Vec<ItemId>,
    cursor: usize,
}

impl BroadcastDisks {
    /// Builds the major cycle for the push prefix `0..k` of `catalog`,
    /// using `num_disks` popularity tiers.
    ///
    /// # Panics
    /// Panics if `num_disks == 0`.
    pub fn new(catalog: &Catalog, k: usize, num_disks: usize) -> Self {
        let _ = catalog; // partitioning is by rank; probs are already sorted
        Self::over_items((0..k as u32).map(ItemId).collect(), num_disks)
    }

    /// Builds the major cycle over an arbitrary item list (hottest first).
    ///
    /// # Panics
    /// Panics if `num_disks == 0`.
    pub(crate) fn over_items(items: Vec<ItemId>, num_disks: usize) -> Self {
        assert!(num_disks >= 1, "need at least one disk");
        let k = items.len();
        if k == 0 {
            return BroadcastDisks {
                k,
                cycle: Vec::new(),
                cursor: 0,
            };
        }
        let n = num_disks.min(k);
        // Contiguous partition of the given ordering: ceil-sized hot disks
        // first.
        let mut disks: Vec<Vec<ItemId>> = Vec::with_capacity(n);
        let base = k / n;
        let extra = k % n;
        let mut it = items.into_iter();
        for j in 0..n {
            let size = base + usize::from(j < extra);
            let disk: Vec<ItemId> = (&mut it).take(size).collect();
            disks.push(disk);
        }
        // Relative frequencies n, n-1, ..., 1.
        let freqs: Vec<usize> = (1..=n).rev().collect();
        let l = freqs.iter().copied().fold(1, lcm);
        // Chunk counts and chunk sizes (ceil; later chunks may be short).
        let mut cycle = Vec::new();
        let num_chunks: Vec<usize> = freqs.iter().map(|&f| l / f).collect();
        for m in 0..l {
            for (j, disk) in disks.iter().enumerate() {
                if disk.is_empty() {
                    continue;
                }
                let nc = num_chunks[j];
                let chunk_idx = m % nc;
                let chunk_size = disk.len().div_ceil(nc);
                let start = chunk_idx * chunk_size;
                if start >= disk.len() {
                    continue; // ragged tail: this minor cycle has no data
                }
                let end = (start + chunk_size).min(disk.len());
                cycle.extend_from_slice(&disk[start..end]);
            }
        }
        debug_assert!(!cycle.is_empty());
        BroadcastDisks {
            k,
            cycle,
            cursor: 0,
        }
    }

    /// The precomputed major cycle.
    pub fn cycle(&self) -> &[ItemId] {
        &self.cycle
    }
}

impl PushScheduler for BroadcastDisks {
    fn name(&self) -> &'static str {
        "broadcast-disks"
    }

    fn push_set_size(&self) -> usize {
        self.k
    }

    fn next(&mut self, _now: SimTime) -> Option<ItemId> {
        if self.cycle.is_empty() {
            return None;
        }
        let item = self.cycle[self.cursor];
        self.cursor = (self.cursor + 1) % self.cycle.len();
        Some(item)
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push::empirical_frequencies;
    use hybridcast_sim::rng::{streams, RngFactory};
    use hybridcast_workload::lengths::LengthModel;
    use hybridcast_workload::popularity::PopularityModel;

    fn catalog(d: usize) -> Catalog {
        let f = RngFactory::new(11);
        let mut rng = f.stream(streams::LENGTHS);
        Catalog::build(
            d,
            &PopularityModel::zipf(1.0),
            &LengthModel::Fixed { length: 1 },
            &mut rng,
        )
    }

    #[test]
    fn single_disk_degenerates_to_flat() {
        let cat = catalog(10);
        let mut bd = BroadcastDisks::new(&cat, 6, 1);
        let order: Vec<u32> = (0..6).map(|_| bd.next(SimTime::ZERO).unwrap().0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn cycle_covers_every_push_item() {
        let cat = catalog(20);
        for n in 1..=4 {
            let bd = BroadcastDisks::new(&cat, 12, n);
            let mut seen = [false; 12];
            for it in bd.cycle() {
                seen[it.index()] = true;
            }
            assert!(seen.iter().all(|&x| x), "disks={n}");
        }
    }

    #[test]
    fn hot_disk_items_broadcast_more_often() {
        let cat = catalog(20);
        let mut bd = BroadcastDisks::new(&cat, 12, 3);
        let cycle_len = bd.cycle().len();
        let freqs = empirical_frequencies(&mut bd, 12, cycle_len * 10);
        // item 0 is on the fastest disk, item 11 on the slowest
        assert!(
            freqs[0] > freqs[11],
            "hot {} vs cold {}",
            freqs[0],
            freqs[11]
        );
        // hottest disk spins 3× the slowest
        let ratio = freqs[0] / freqs[11];
        assert!((ratio - 3.0).abs() < 0.3, "speed ratio {ratio}");
    }

    #[test]
    fn more_disks_than_items_is_clamped() {
        let cat = catalog(10);
        let bd = BroadcastDisks::new(&cat, 2, 5);
        let mut seen = [false; 2];
        for it in bd.cycle() {
            seen[it.index()] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn reset_restarts_cycle() {
        let cat = catalog(10);
        let mut bd = BroadcastDisks::new(&cat, 6, 2);
        let first = bd.next(SimTime::ZERO);
        bd.next(SimTime::ZERO);
        bd.reset();
        assert_eq!(bd.next(SimTime::ZERO), first);
    }

    #[test]
    fn lcm_gcd_helpers() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!([3usize, 2, 1].iter().copied().fold(1, lcm), 6);
    }
}
