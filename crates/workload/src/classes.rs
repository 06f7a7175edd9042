//! Service classes — the paper's client classification.
//!
//! Clients are partitioned into priority classes (§5.1, assumptions 5–6):
//! Class-A (highest priority), Class-B, Class-C, with priority weights in
//! ratio 3::2::1 and the *population* split by a Zipf law so that the
//! premium class is the smallest ("lowest number of highest priority
//! clients"). Each class also owns a share of the downlink bandwidth used by
//! the blocking model.

use serde::{Deserialize, Serialize};

use hybridcast_sim::dist::Discrete;
use hybridcast_sim::ensure;

/// Identifier of a service class: 0 is the *highest* priority class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClassId(pub u8);

impl ClassId {
    /// Zero-based index (0 = highest priority).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // A, B, C ... for the first 26 classes; numeric beyond.
        if self.0 < 26 {
            write!(f, "Class-{}", (b'A' + self.0) as char)
        } else {
            write!(f, "Class-{}", self.0)
        }
    }
}

/// One priority class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceClass {
    /// Human-readable name ("Class-A", ...).
    pub name: String,
    /// Priority weight `q_j`: larger ⇒ more important. The paper's ratio is
    /// A=3, B=2, C=1.
    pub priority: f64,
    /// Fraction of the client population (and hence of requests) in this
    /// class; all shares sum to 1.
    pub population_share: f64,
    /// Fraction of the downlink bandwidth reserved for this class's pull
    /// transmissions; all shares sum to 1.
    pub bandwidth_share: f64,
}

/// The validated, ordered set of service classes (highest priority first).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSet {
    classes: Vec<ServiceClass>,
}

impl ClassSet {
    /// Builds a class set.
    ///
    /// # Panics
    /// Panics with [`validate`](Self::validate)'s message if empty, if
    /// priorities are not strictly decreasing, if either share vector does
    /// not sum to ≈1, or any entry is invalid.
    pub fn new(classes: Vec<ServiceClass>) -> Self {
        let set = ClassSet { classes };
        set.validate().unwrap_or_else(|e| panic!("{e}"));
        set
    }

    /// Everything [`new`](Self::new) requires, as a typed error — a set
    /// read from a config file is deserialized field by field and has not
    /// been through `new`.
    pub fn validate(&self) -> Result<(), String> {
        let classes = &self.classes;
        ensure(!classes.is_empty(), "need at least one service class")?;
        ensure(
            classes.len() <= 64,
            "more than 64 service classes is unsupported",
        )?;
        for (i, c) in classes.iter().enumerate() {
            ensure(
                c.priority > 0.0 && c.priority.is_finite(),
                format_args!("class {i} priority invalid: {}", c.priority),
            )?;
            ensure(
                (0.0..=1.0).contains(&c.population_share),
                format_args!("class {i} population share invalid: {}", c.population_share),
            )?;
            ensure(
                (0.0..=1.0).contains(&c.bandwidth_share),
                format_args!("class {i} bandwidth share invalid: {}", c.bandwidth_share),
            )?;
        }
        for w in classes.windows(2) {
            ensure(
                w[0].priority > w[1].priority,
                "classes must be ordered by strictly decreasing priority",
            )?;
        }
        let pop: f64 = classes.iter().map(|c| c.population_share).sum();
        ensure(
            (pop - 1.0).abs() < 1e-6,
            format_args!("population shares must sum to 1 (got {pop})"),
        )?;
        let bw: f64 = classes.iter().map(|c| c.bandwidth_share).sum();
        ensure(
            (bw - 1.0).abs() < 1e-6,
            format_args!("bandwidth shares must sum to 1 (got {bw})"),
        )
    }

    /// The paper's §5.1 defaults: three classes, priority weights 3::2::1,
    /// population Zipf-split (θ = 1) with Class-A smallest, bandwidth split
    /// proportional to priority.
    pub fn paper_default() -> Self {
        Self::three_tier(1.0)
    }

    /// Three-tier A/B/C set with the population Zipf-split at skew `theta`
    /// (larger `theta` ⇒ premium class even smaller).
    pub fn three_tier(theta: f64) -> Self {
        // Zipf(3, θ) masses, most mass first; reversed so Class-A (index 0)
        // gets the *least* populated share.
        let w: Vec<f64> = (1..=3).map(|i| (i as f64).powf(-theta)).collect();
        let norm: f64 = w.iter().sum();
        let shares = [w[2] / norm, w[1] / norm, w[0] / norm];
        let priorities = [3.0, 2.0, 1.0];
        let bw_norm: f64 = priorities.iter().sum();
        let classes = (0..3)
            .map(|i| ServiceClass {
                name: format!("Class-{}", (b'A' + i as u8) as char),
                priority: priorities[i],
                population_share: shares[i],
                bandwidth_share: priorities[i] / bw_norm,
            })
            .collect();
        ClassSet::new(classes)
    }

    /// A single-class set (degenerates the scheduler to no service
    /// differentiation) — useful for baselines and tests.
    pub fn single() -> Self {
        ClassSet::new(vec![ServiceClass {
            name: "Class-A".into(),
            priority: 1.0,
            population_share: 1.0,
            bandwidth_share: 1.0,
        }])
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` if there are no classes (unreachable by construction).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The class record for `id`.
    pub fn class(&self, id: ClassId) -> &ServiceClass {
        &self.classes[id.index()]
    }

    /// Priority weight `q_j` of class `id`.
    #[inline]
    pub fn priority(&self, id: ClassId) -> f64 {
        self.classes[id.index()].priority
    }

    /// Population share of class `id`.
    #[inline]
    pub fn population_share(&self, id: ClassId) -> f64 {
        self.classes[id.index()].population_share
    }

    /// Bandwidth share of class `id`.
    #[inline]
    pub fn bandwidth_share(&self, id: ClassId) -> f64 {
        self.classes[id.index()].bandwidth_share
    }

    /// Iterator over `(ClassId, &ServiceClass)`, highest priority first.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &ServiceClass)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId(i as u8), c))
    }

    /// All class ids, highest priority first.
    pub fn ids(&self) -> impl Iterator<Item = ClassId> {
        (0..self.classes.len() as u8).map(ClassId)
    }

    /// O(1) sampler of the class of an incoming request (by population
    /// share).
    pub fn sampler(&self) -> Discrete {
        let shares: Vec<f64> = self.classes.iter().map(|c| c.population_share).collect();
        Discrete::new(&shares)
    }

    /// Replaces every bandwidth share, e.g. for the blocking-vs-bandwidth
    /// sweep. Shares must sum to 1.
    pub fn with_bandwidth_shares(&self, shares: &[f64]) -> ClassSet {
        assert_eq!(shares.len(), self.classes.len());
        let classes = self
            .classes
            .iter()
            .zip(shares)
            .map(|(c, &b)| ServiceClass {
                bandwidth_share: b,
                ..c.clone()
            })
            .collect();
        ClassSet::new(classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_sim::rng::Xoshiro256;

    #[test]
    fn paper_default_shape() {
        let cs = ClassSet::paper_default();
        assert_eq!(cs.len(), 3);
        // priorities 3, 2, 1 — A highest
        assert_eq!(cs.priority(ClassId(0)), 3.0);
        assert_eq!(cs.priority(ClassId(2)), 1.0);
        // population Zipf(θ=1): masses ∝ 1, 1/2, 1/3 → A gets the smallest
        let a = cs.population_share(ClassId(0));
        let b = cs.population_share(ClassId(1));
        let c = cs.population_share(ClassId(2));
        assert!(a < b && b < c, "shares {a} {b} {c}");
        assert!((a - (1.0 / 3.0) / (11.0 / 6.0)).abs() < 1e-9);
        assert!((a + b + c - 1.0).abs() < 1e-9);
        // bandwidth ∝ priority
        assert!((cs.bandwidth_share(ClassId(0)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", ClassId(0)), "Class-A");
        assert_eq!(format!("{}", ClassId(2)), "Class-C");
        assert_eq!(format!("{}", ClassId(30)), "Class-30");
    }

    #[test]
    fn single_class_is_degenerate() {
        let cs = ClassSet::single();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.population_share(ClassId(0)), 1.0);
    }

    #[test]
    fn sampler_matches_shares() {
        let cs = ClassSet::paper_default();
        let s = cs.sampler();
        let mut rng = Xoshiro256::new(3);
        let mut counts = [0u64; 3];
        let n = 200_000;
        for _ in 0..n {
            counts[s.sample(&mut rng)] += 1;
        }
        for (i, &cnt) in counts.iter().enumerate() {
            let f = cnt as f64 / n as f64;
            let want = cs.population_share(ClassId(i as u8));
            assert!((f - want).abs() < 0.01, "class {i}: {f} vs {want}");
        }
    }

    #[test]
    fn with_bandwidth_shares_replaces() {
        let cs = ClassSet::paper_default().with_bandwidth_shares(&[0.8, 0.1, 0.1]);
        assert!((cs.bandwidth_share(ClassId(0)) - 0.8).abs() < 1e-12);
        // other fields untouched
        assert_eq!(cs.priority(ClassId(0)), 3.0);
    }

    #[test]
    #[should_panic(expected = "decreasing")]
    fn unordered_priorities_rejected() {
        let mk = |p: f64, s: f64| ServiceClass {
            name: "x".into(),
            priority: p,
            population_share: s,
            bandwidth_share: s,
        };
        let _ = ClassSet::new(vec![mk(1.0, 0.5), mk(2.0, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "population shares")]
    fn bad_population_shares_rejected() {
        let mk = |p: f64, s: f64| ServiceClass {
            name: "x".into(),
            priority: p,
            population_share: s,
            bandwidth_share: 0.5,
        };
        let _ = ClassSet::new(vec![mk(2.0, 0.9), mk(1.0, 0.9)]);
    }

    #[test]
    fn higher_theta_shrinks_premium_class() {
        let mild = ClassSet::three_tier(0.5);
        let steep = ClassSet::three_tier(2.0);
        assert!(steep.population_share(ClassId(0)) < mild.population_share(ClassId(0)));
    }

    #[test]
    fn iter_and_ids_align() {
        let cs = ClassSet::paper_default();
        let ids: Vec<ClassId> = cs.ids().collect();
        assert_eq!(ids, vec![ClassId(0), ClassId(1), ClassId(2)]);
        for (id, c) in cs.iter() {
            assert_eq!(c.name, format!("{id}"));
        }
    }

    #[test]
    fn serde_round_trip() {
        let cs = ClassSet::paper_default();
        let js = serde_json::to_string(&cs).unwrap();
        let back: ClassSet = serde_json::from_str(&js).unwrap();
        assert_eq!(back, cs);
    }
}
