//! Scenario = catalog + classes + arrival process, built from one
//! serializable config.
//!
//! [`ScenarioConfig`] captures every §5.1 assumption as a field with the
//! paper's value as the default, so `ScenarioConfig::default()` *is* the
//! paper's simulation setup and each experiment overrides exactly the knobs
//! it sweeps.

use serde::{Deserialize, Serialize};

use hybridcast_sim::ensure;
use hybridcast_sim::rng::{streams, RngFactory};

use crate::catalog::Catalog;
use crate::classes::ClassSet;
use crate::lengths::LengthModel;
use crate::nonstationary::NonstationaryConfig;
use crate::popularity::PopularityModel;
use crate::requests::{DriftConfig, RequestGenerator, RequestSource};

/// Full description of a workload scenario (serializable).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Total number of distinct items `D` (paper: 100).
    pub num_items: usize,
    /// Aggregate request arrival rate λ′ per broadcast unit (paper: 5).
    pub arrival_rate: f64,
    /// Item popularity law (paper: Zipf with θ ∈ {0.2, 0.6, 1.0, 1.4}).
    pub popularity: PopularityModel,
    /// Item length law (paper: 1..=5 with mean 2).
    pub lengths: LengthModel,
    /// Service classes (paper: A/B/C, priorities 3::2::1, Zipf population).
    pub classes: ClassSet,
    /// Master seed for all random streams.
    pub seed: u64,
    /// Optional popularity drift (the hot set rotates over time).
    #[serde(default)]
    pub drift: Option<DriftConfig>,
    /// Optional batch-Poisson burstiness: mean burst size (> 1). `None`
    /// is the paper's plain Poisson process.
    #[serde(default)]
    pub batch_mean: Option<f64>,
    /// Optional nonstationary disturbance (flash crowd, diurnal rotation,
    /// θ regime switch, popularity permutation). `None` is stationary.
    ///
    /// Skipped when absent so the canonical JSON of pre-existing
    /// stationary configs — and every hash derived from it (trace
    /// headers, corpus sidecars) — stays byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub nonstationary: Option<NonstationaryConfig>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            num_items: 100,
            arrival_rate: 5.0,
            popularity: PopularityModel::zipf(0.6),
            lengths: LengthModel::paper_default(),
            classes: ClassSet::paper_default(),
            seed: 0xC0FFEE,
            drift: None,
            batch_mean: None,
            nonstationary: None,
        }
    }
}

impl ScenarioConfig {
    /// The paper's setup with the given Zipf skew θ.
    pub fn icpp2005(theta: f64) -> Self {
        ScenarioConfig {
            popularity: PopularityModel::zipf(theta),
            ..Default::default()
        }
    }

    /// Returns a copy with a different seed (for replications).
    pub fn with_seed(&self, seed: u64) -> Self {
        ScenarioConfig {
            seed,
            ..self.clone()
        }
    }

    /// Every range a value of this config must lie in, as a typed error
    /// that names the field — for a config that arrives from outside the
    /// program. Each condition is its consumer's own check (the consumers
    /// panic with the same text). `arrivals: false` leaves the arrival
    /// process (`arrival_rate`, `drift`, `batch_mean`, `nonstationary`)
    /// unread: the daemon's clients are its arrival process.
    pub fn validate(&self, arrivals: bool) -> Result<(), String> {
        let field = |name: &'static str| move |e: String| format!("scenario.{name}: {e}");
        ensure(self.num_items > 0, "scenario needs at least one item")
            .map_err(field("num_items"))?;
        self.popularity
            .validate(self.num_items)
            .map_err(field("popularity"))?;
        self.lengths
            .validate(self.num_items)
            .map_err(field("lengths"))?;
        self.classes.validate().map_err(field("classes"))?;
        if !arrivals {
            return Ok(());
        }
        ensure(
            self.arrival_rate > 0.0 && self.arrival_rate.is_finite(),
            "arrival rate must be positive",
        )
        .map_err(field("arrival_rate"))?;
        if let Some(drift) = &self.drift {
            drift.validate().map_err(field("drift"))?;
        }
        if let Some(mean) = self.batch_mean {
            RequestGenerator::validate_batch_mean(mean).map_err(field("batch_mean"))?;
        }
        if let Some(ns) = &self.nonstationary {
            ns.validate().map_err(field("nonstationary"))?;
        }
        Ok(())
    }

    /// Materializes the scenario: builds the catalog (lengths drawn from the
    /// `LENGTHS` stream) and wires the class set and arrival process.
    ///
    /// # Panics
    /// Panics with [`validate`](Self::validate)'s message for the catalog
    /// and the classes; the arrival process is checked where a request
    /// stream is made from it.
    pub fn build(&self) -> Scenario {
        self.validate(false).unwrap_or_else(|e| panic!("{e}"));
        let factory = RngFactory::new(self.seed);
        let mut len_rng = factory.stream(streams::LENGTHS);
        let catalog = Catalog::build(
            self.num_items,
            &self.popularity,
            &self.lengths,
            &mut len_rng,
        );
        Scenario {
            catalog,
            classes: self.classes.clone(),
            arrival_rate: self.arrival_rate,
            factory,
            config: self.clone(),
        }
    }
}

/// A materialized scenario, ready to feed a simulation.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The popularity-sorted item database.
    pub catalog: Catalog,
    /// The service classes.
    pub classes: ClassSet,
    /// Aggregate arrival rate λ′.
    pub arrival_rate: f64,
    /// Root of all random streams for this scenario.
    pub factory: RngFactory,
    /// The config this scenario was built from.
    pub config: ScenarioConfig,
}

impl Scenario {
    /// A fresh request stream over this scenario.
    pub fn request_stream(&self) -> RequestGenerator {
        let mut g = RequestGenerator::new(
            &self.catalog,
            &self.classes,
            self.arrival_rate,
            &self.factory,
        )
        .with_drift(self.config.drift);
        if let Some(b) = self.config.batch_mean {
            g = g.with_batching(b);
        }
        g
    }

    /// A request stream for replication `r` — independent draws, same laws.
    pub(crate) fn request_stream_replication(&self, r: u64) -> RequestGenerator {
        let mut g = RequestGenerator::new(
            &self.catalog,
            &self.classes,
            self.arrival_rate,
            &self.factory.replication(r),
        )
        .with_drift(self.config.drift);
        if let Some(b) = self.config.batch_mean {
            g = g.with_batching(b);
        }
        g
    }

    /// The request source for replication `r`, with the scenario's
    /// nonstationary disturbance (if any) applied — what the simulation
    /// driver consumes. Stationary scenarios return the plain generator.
    pub fn request_source_replication(&self, r: u64) -> Box<dyn RequestSource> {
        let inner: Box<dyn RequestSource> = Box::new(self.request_stream_replication(r));
        match &self.config.nonstationary {
            None => inner,
            Some(ns) => ns.wrap(
                inner,
                self.catalog.len(),
                &self.factory,
                &self.factory.replication(r),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_sim::time::SimTime;

    #[test]
    fn default_matches_paper_assumptions() {
        let cfg = ScenarioConfig::default();
        assert_eq!(cfg.num_items, 100);
        assert_eq!(cfg.arrival_rate, 5.0);
        assert_eq!(cfg.lengths, LengthModel::paper_default());
        assert_eq!(cfg.classes.len(), 3);
    }

    #[test]
    fn build_is_deterministic() {
        let cfg = ScenarioConfig::icpp2005(1.0);
        let s1 = cfg.build();
        let s2 = cfg.build();
        assert_eq!(s1.catalog, s2.catalog);
    }

    #[test]
    fn replications_are_independent() {
        let s = ScenarioConfig::default().build();
        let mut a = s.request_stream_replication(0);
        let mut b = s.request_stream_replication(1);
        let same = (0..100)
            .filter(|_| a.next_request().arrival == b.next_request().arrival)
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn request_stream_covers_catalog() {
        let s = ScenarioConfig::icpp2005(0.2).build(); // mild skew: wide coverage
        let mut g = s.request_stream();
        let reqs = g.take_until(SimTime::new(50_000.0));
        let mut seen = [false; 100];
        for r in &reqs {
            seen[r.item.index()] = true;
        }
        let covered = seen.iter().filter(|&&x| x).count();
        assert!(covered > 95, "only {covered} items requested");
    }

    #[test]
    fn config_serde_round_trip() {
        let cfg = ScenarioConfig::icpp2005(1.4).with_seed(99);
        let js = serde_json::to_string_pretty(&cfg).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&js).unwrap();
        assert_eq!(back, cfg);
    }
}
