//! Erlang-B blocking for the per-class bandwidth partitions.
//!
//! The paper drops a pull transmission when its Poisson bandwidth demand
//! exceeds the requesters' class partition. Viewing each class partition of
//! `m_c = capacity_c / E[demand]` "circuits" offered `E_c = ν_c · E[hold]`
//! erlangs of traffic (ν_c = class-c pull transmissions per broadcast unit,
//! hold = the transmission time), the loss probability is the classic
//! Erlang-B formula
//!
//! ```text
//! B(E, m) = (E^m / m!) / Σ_{j=0..m} E^j / j!
//! ```
//!
//! computed by the numerically stable recursion
//! `B(E, 0) = 1; B(E, j) = E·B(E, j−1) / (j + E·B(E, j−1))`.
//! `erlang_b_fractional` linearly interpolates between integer server
//! counts so partition sizes need not divide evenly.
//!
//! This is the analytic counterpart of the CLAIM-BLOCK experiment: it
//! reproduces the qualitative shape (premium blocking collapses as the
//! premium partition grows) without simulation.

use serde::{Deserialize, Serialize};

/// Erlang-B loss probability with `servers` integer servers offered
/// `erlangs` of traffic.
///
/// # Panics
/// Panics if `erlangs` is negative or not finite.
pub(crate) fn erlang_b(erlangs: f64, servers: u32) -> f64 {
    assert!(
        erlangs >= 0.0 && erlangs.is_finite(),
        "offered load must be non-negative and finite (got {erlangs})"
    );
    if erlangs == 0.0 {
        return 0.0;
    }
    let mut b = 1.0f64;
    for j in 1..=servers {
        b = erlangs * b / (j as f64 + erlangs * b);
    }
    b
}

/// Erlang-B with a fractional number of servers, by linear interpolation
/// between `floor(servers)` and `ceil(servers)`.
///
/// # Panics
/// Panics if `servers` is negative or not finite.
pub(crate) fn erlang_b_fractional(erlangs: f64, servers: f64) -> f64 {
    assert!(
        servers >= 0.0 && servers.is_finite(),
        "server count must be non-negative and finite (got {servers})"
    );
    let lo = servers.floor() as u32;
    let hi = servers.ceil() as u32;
    if lo == hi {
        return erlang_b(erlangs, lo);
    }
    let frac = servers - lo as f64;
    (1.0 - frac) * erlang_b(erlangs, lo) + frac * erlang_b(erlangs, hi)
}

/// Analytic per-class blocking of a partitioned-bandwidth pull server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionBlockingModel {
    /// Per-class partition capacities, in bandwidth units.
    pub capacities: Vec<f64>,
    /// Mean per-transmission bandwidth demand.
    pub mean_demand: f64,
    /// Per-class pull-transmission rates (transmissions per broadcast
    /// unit).
    pub tx_rates: Vec<f64>,
    /// Mean transmission holding time (broadcast units).
    pub mean_hold: f64,
}

impl PartitionBlockingModel {
    /// Per-class blocking probabilities.
    ///
    /// # Panics
    /// Panics if the capacity/rate vectors disagree or any parameter is
    /// non-positive where positivity is required.
    pub fn blocking(&self) -> Vec<f64> {
        assert_eq!(
            self.capacities.len(),
            self.tx_rates.len(),
            "capacity and rate vectors must align"
        );
        assert!(self.mean_demand > 0.0, "mean demand must be positive");
        assert!(self.mean_hold > 0.0, "mean hold must be positive");
        self.capacities
            .iter()
            .zip(&self.tx_rates)
            .map(|(&cap, &rate)| {
                let servers = cap / self.mean_demand;
                let offered = rate * self.mean_hold;
                erlang_b_fractional(offered, servers)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_values() {
        // Classic table entries: B(E=1, m=1) = 0.5; B(2, 2) = 0.4;
        // B(10, 10) ≈ 0.2146.
        assert!((erlang_b(1.0, 1) - 0.5).abs() < 1e-12);
        assert!((erlang_b(2.0, 2) - 0.4).abs() < 1e-12);
        assert!((erlang_b(10.0, 10) - 0.214_602).abs() < 1e-4);
    }

    #[test]
    fn zero_load_never_blocks_zero_servers_always_block() {
        assert_eq!(erlang_b(0.0, 5), 0.0);
        assert_eq!(erlang_b(3.0, 0), 1.0);
    }

    #[test]
    fn monotone_in_both_arguments() {
        // more servers → less blocking
        assert!(erlang_b(5.0, 4) > erlang_b(5.0, 8));
        // more load → more blocking
        assert!(erlang_b(8.0, 6) > erlang_b(4.0, 6));
    }

    #[test]
    fn fractional_interpolates() {
        let lo = erlang_b(3.0, 4);
        let hi = erlang_b(3.0, 5);
        let mid = erlang_b_fractional(3.0, 4.5);
        assert!(mid < lo && mid > hi);
        assert!((mid - 0.5 * (lo + hi)).abs() < 1e-12);
        assert_eq!(erlang_b_fractional(3.0, 4.0), lo);
    }

    #[test]
    fn partition_model_orders_classes_by_capacity() {
        let m = PartitionBlockingModel {
            capacities: vec![6.0, 4.0, 2.0],
            mean_demand: 2.0,
            tx_rates: vec![0.05, 0.08, 0.12],
            mean_hold: 2.0,
        };
        let b = m.blocking();
        assert_eq!(b.len(), 3);
        // premium has most capacity per unit of offered load
        assert!(b[0] < b[2], "blocking {b:?}");
        assert!(b.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn growing_premium_partition_collapses_premium_blocking() {
        let mk = |cap_a: f64| PartitionBlockingModel {
            capacities: vec![cap_a, 3.0, 2.0],
            mean_demand: 2.0,
            tx_rates: vec![0.1, 0.1, 0.1],
            mean_hold: 2.0,
        };
        let small = mk(1.0).blocking()[0];
        let large = mk(10.0).blocking()[0];
        assert!(large < small * 0.2, "blocking {small:.3} → {large:.3}");
    }
}
