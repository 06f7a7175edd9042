//! An explicit, finite client population.
//!
//! The request stream elsewhere in this crate treats clients as an
//! anonymous Poisson field, which is all the paper's *measurements* need.
//! Its *motivation*, however, is about identifiable customers: "activities
//! of the customers having higher importance have significant impact on
//! the system", and dissatisfied customers **churn**. [`ClientPool`] makes
//! clients first-class: each has a service class, a per-client view of its
//! delays, and a departure flag — the substrate for the churn model in
//! `hybridcast-core`.

use serde::{Deserialize, Serialize};

use rand::Rng;

use crate::classes::{ClassId, ClassSet};

/// Identifier of a client within a [`ClientPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClientId(pub u32);

impl ClientId {
    /// Zero-based index into the pool.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One subscriber.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Client {
    /// The client's service class.
    pub class: ClassId,
    /// Exponential moving average of this client's access delays.
    pub ema_delay: f64,
    /// Number of satisfied requests observed so far.
    pub samples: u64,
    /// `true` once the client has churned (left the provider).
    pub departed: bool,
}

/// A finite population of clients, partitioned by service class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientPool {
    clients: Vec<Client>,
    /// Client ids per class (indices never change; departures are flags).
    by_class: Vec<Vec<ClientId>>,
    /// Alive count per class (kept in sync with the flags).
    alive: Vec<usize>,
}

impl ClientPool {
    /// Builds a pool of `total` clients split across `classes` by
    /// population share (largest remainders keep the total exact).
    ///
    /// # Panics
    /// Panics if `total == 0`.
    pub fn new(classes: &ClassSet, total: usize) -> Self {
        assert!(total > 0, "need at least one client");
        let n_classes = classes.len();
        // floor allocation + largest remainder
        let mut counts: Vec<usize> = classes
            .iter()
            .map(|(_, c)| (c.population_share * total as f64).floor() as usize)
            .collect();
        let mut assigned: usize = counts.iter().sum();
        let mut remainders: Vec<(f64, usize)> = classes
            .iter()
            .enumerate()
            .map(|(i, (_, c))| {
                let exact = c.population_share * total as f64;
                (exact - exact.floor(), i)
            })
            .collect();
        remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
        let mut ri = 0;
        while assigned < total {
            counts[remainders[ri % n_classes].1] += 1;
            assigned += 1;
            ri += 1;
        }
        let mut clients = Vec::with_capacity(total);
        let mut by_class = vec![Vec::new(); n_classes];
        for (ci, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                let id = ClientId(clients.len() as u32);
                clients.push(Client {
                    class: ClassId(ci as u8),
                    ema_delay: 0.0,
                    samples: 0,
                    departed: false,
                });
                by_class[ci].push(id);
            }
        }
        ClientPool {
            clients,
            alive: counts,
            by_class,
        }
    }

    /// Total number of clients (departed included).
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// `true` when the pool is empty (unreachable by construction).
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// The client record for `id`.
    pub fn client(&self, id: ClientId) -> &Client {
        &self.clients[id.index()]
    }

    /// Alive clients in `class`.
    pub fn alive_in_class(&self, class: ClassId) -> usize {
        self.alive[class.index()]
    }

    /// Total clients originally in `class`.
    pub fn total_in_class(&self, class: ClassId) -> usize {
        self.by_class[class.index()].len()
    }

    /// Fraction of `class` that has churned.
    pub fn churn_rate(&self, class: ClassId) -> f64 {
        let total = self.total_in_class(class);
        if total == 0 {
            return 0.0;
        }
        1.0 - self.alive_in_class(class) as f64 / total as f64
    }

    /// Picks a uniformly random *alive* client of `class`; `None` when the
    /// whole class has churned. O(alive) worst case, O(1) expected while
    /// most of the class is alive (rejection sampling with a scan
    /// fallback).
    pub fn sample_alive<R: Rng + ?Sized>(&self, class: ClassId, rng: &mut R) -> Option<ClientId> {
        let ids = &self.by_class[class.index()];
        let alive = self.alive[class.index()];
        if alive == 0 {
            return None;
        }
        // Rejection sampling: efficient while the departed fraction is
        // modest (churn experiments rarely exceed ~50%).
        for _ in 0..16 {
            let id = ids[rng.gen_range(0..ids.len())];
            if !self.clients[id.index()].departed {
                return Some(id);
            }
        }
        // Dense fallback: pick the n-th alive client.
        let nth = rng.gen_range(0..alive);
        ids.iter()
            .filter(|id| !self.clients[id.index()].departed)
            .nth(nth)
            .copied()
    }

    /// Records a satisfied request for `id` and returns the updated EMA.
    /// `ema_alpha ∈ (0, 1]` is the smoothing weight of the newest sample.
    pub fn record_delay(&mut self, id: ClientId, delay: f64, ema_alpha: f64) -> f64 {
        let c = &mut self.clients[id.index()];
        c.samples += 1;
        if c.samples == 1 {
            c.ema_delay = delay;
        } else {
            c.ema_delay = ema_alpha * delay + (1.0 - ema_alpha) * c.ema_delay;
        }
        c.ema_delay
    }

    /// Marks `id` as churned (idempotent).
    pub fn depart(&mut self, id: ClientId) {
        let c = &mut self.clients[id.index()];
        if !c.departed {
            c.departed = true;
            self.alive[c.class.index()] -= 1;
        }
    }

    /// Iterator over `(ClientId, &Client)`.
    pub fn iter(&self) -> impl Iterator<Item = (ClientId, &Client)> {
        self.clients
            .iter()
            .enumerate()
            .map(|(i, c)| (ClientId(i as u32), c))
    }

    /// A helper RNG-driven sampler tied to class population shares is not
    /// provided here on purpose: the request stream already picks the
    /// class; the pool only resolves *which member* of that class asked.
    pub fn classes(&self) -> usize {
        self.by_class.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_sim::rng::RngFactory;

    fn pool(total: usize) -> ClientPool {
        ClientPool::new(&ClassSet::paper_default(), total)
    }

    #[test]
    fn population_split_matches_shares_exactly() {
        let p = pool(110);
        assert_eq!(p.len(), 110);
        // paper shares 2/11, 3/11, 6/11 → 20, 30, 60
        assert_eq!(p.total_in_class(ClassId(0)), 20);
        assert_eq!(p.total_in_class(ClassId(1)), 30);
        assert_eq!(p.total_in_class(ClassId(2)), 60);
    }

    #[test]
    fn odd_totals_are_conserved() {
        for total in [1usize, 3, 7, 97, 101] {
            let p = pool(total);
            let sum: usize = (0..3).map(|c| p.total_in_class(ClassId(c))).sum();
            assert_eq!(sum, total, "total {total}");
        }
    }

    #[test]
    fn ema_tracking() {
        let mut p = pool(11);
        let id = ClientId(0);
        assert_eq!(p.record_delay(id, 10.0, 0.5), 10.0); // first sample seeds
        let e2 = p.record_delay(id, 20.0, 0.5);
        assert!((e2 - 15.0).abs() < 1e-12);
        assert_eq!(p.client(id).samples, 2);
    }

    #[test]
    fn departures_update_alive_counts() {
        let mut p = pool(110);
        let before = p.alive_in_class(ClassId(0));
        p.depart(ClientId(0));
        p.depart(ClientId(0)); // idempotent
        assert_eq!(p.alive_in_class(ClassId(0)), before - 1);
        assert!((p.churn_rate(ClassId(0)) - 1.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_avoids_departed_clients() {
        let mut p = pool(33);
        let factory = RngFactory::new(5);
        let mut rng = factory.stream(99);
        // depart most of class A
        let a_ids: Vec<ClientId> = p
            .iter()
            .filter(|(_, c)| c.class == ClassId(0) && !c.departed)
            .map(|(id, _)| id)
            .collect();
        for &id in &a_ids[..a_ids.len() - 1] {
            p.depart(id);
        }
        let survivor = *a_ids.last().unwrap();
        for _ in 0..100 {
            assert_eq!(p.sample_alive(ClassId(0), &mut rng), Some(survivor));
        }
        p.depart(survivor);
        assert_eq!(p.sample_alive(ClassId(0), &mut rng), None);
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let p = pool(30);
        let factory = RngFactory::new(7);
        let mut rng = factory.stream(42);
        let mut counts = vec![0u64; p.len()];
        let n = 60_000;
        for _ in 0..n {
            let id = p.sample_alive(ClassId(2), &mut rng).unwrap();
            counts[id.index()] += 1;
        }
        let class_c_total = p.total_in_class(ClassId(2));
        let expect = n as f64 / class_c_total as f64;
        for (id, c) in p.iter() {
            if c.class == ClassId(2) {
                let got = counts[id.index()] as f64;
                assert!(
                    (got - expect).abs() < expect * 0.2,
                    "client {id:?}: {got} vs {expect}"
                );
            } else {
                assert_eq!(counts[id.index()], 0);
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let p = pool(22);
        let js = serde_json::to_string(&p).unwrap();
        let back: ClientPool = serde_json::from_str(&js).unwrap();
        assert_eq!(back, p);
    }
}
