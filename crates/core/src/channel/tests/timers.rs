//! Differential check of the core's timers against a lazy reference.
//!
//! The reference keeps the design the core's timers replaced: every
//! deadline and uplink delivery ever filed stays in a `BinaryHeap` until
//! it surfaces, and is skipped there if its request was answered in the
//! meantime. It draws the same uplink stream as the core, so it knows
//! which ingests are lost and when each delivery lands; it learns of
//! every other answer (served, shed) from the core's outbox. What it
//! predicts — uplink losses, each `advance`'s timeouts in order, the
//! final shed — must be exactly what the core answers, and the core's
//! `next_due()` must be the reference's earliest *live* instant.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hybridcast_sim::rng::Xoshiro256;

use super::*;

type Answer = (u64, Outcome, f64);

struct LazyTimers {
    uplink: Option<UplinkChannel>,
    /// Per ingest id: its stamp, and whether it is still owed an answer.
    ingest: Vec<SimTime>,
    live: Vec<bool>,
    timeouts: BinaryHeap<Reverse<(SimTime, u64)>>,
    deliveries: BinaryHeap<Reverse<(SimTime, u64)>>,
}

impl LazyTimers {
    fn new<S: Sink>(core: &ChannelCore<u64, S>) -> LazyTimers {
        LazyTimers {
            uplink: core.uplink.clone(),
            ingest: Vec::new(),
            live: Vec::new(),
            timeouts: BinaryHeap::new(),
            deliveries: BinaryHeap::new(),
        }
    }

    /// Files the next request; its answer if the uplink loses it.
    fn ingest(&mut self, stamp: SimTime, deadline: Option<SimTime>) -> Vec<Answer> {
        let id = self.live.len() as u64;
        self.ingest.push(stamp);
        self.live.push(true);
        if let Some(due) = deadline {
            self.timeouts.push(Reverse((due, id)));
        }
        match self.uplink.as_mut().map(UplinkChannel::transmit) {
            Some(UplinkOutcome::Lost) => {
                self.live[id as usize] = false;
                vec![(id, Outcome::UplinkLost, 0.0)]
            }
            Some(UplinkOutcome::Delivered(latency)) => {
                self.deliveries.push(Reverse((stamp + latency, id)));
                Vec::new()
            }
            None => Vec::new(),
        }
    }

    /// The timeouts `advance(now)` fires, in order, after the deliveries
    /// due by `now` left their heap.
    fn advance(&mut self, now: SimTime) -> Vec<Answer> {
        while self.deliveries.peek().is_some_and(|r| r.0 .0 <= now) {
            self.deliveries.pop();
        }
        let mut fired = Vec::new();
        while let Some(&Reverse((due, id))) = self.timeouts.peek().filter(|r| r.0 .0 <= now) {
            self.timeouts.pop();
            if std::mem::take(&mut self.live[id as usize]) {
                let wait = due.since(self.ingest[id as usize]).as_f64();
                fired.push((id, Outcome::TimedOut, wait));
            }
        }
        fired
    }

    /// What `shed_remaining(now)` answers: every live request, lowest id
    /// first.
    fn shed_remaining(&mut self, now: SimTime) -> Vec<Answer> {
        let mut shed = Vec::new();
        for (id, live) in self.live.iter_mut().enumerate() {
            if std::mem::take(live) {
                shed.push((
                    id as u64,
                    Outcome::Shed,
                    now.since(self.ingest[id]).as_f64(),
                ));
            }
        }
        shed
    }

    /// An answer the reference cannot predict (served, or shed by the
    /// bandwidth check): it must go to a live request.
    fn answered(&mut self, (id, outcome, _): Answer) {
        assert!(
            std::mem::take(&mut self.live[id as usize]),
            "{outcome:?} answers request {id}, which is not live"
        );
    }

    /// The earliest due instant among live requests, dropping the dead
    /// entries that surface on the way.
    fn head(heap: &mut BinaryHeap<Reverse<(SimTime, u64)>>, live: &[bool]) -> Option<SimTime> {
        while let Some(&Reverse((due, id))) = heap.peek() {
            if live[id as usize] {
                return Some(due);
            }
            heap.pop();
        }
        None
    }

    fn next_due(&mut self) -> Option<SimTime> {
        let timeout = Self::head(&mut self.timeouts, &self.live);
        let delivery = Self::head(&mut self.deliveries, &self.live);
        timeout.into_iter().chain(delivery).min()
    }

    fn live(&self) -> usize {
        self.live.iter().filter(|&&live| live).count()
    }
}

/// The core's timer invariants, checked against the reference.
fn check_timers<S: Sink>(core: &ChannelCore<u64, S>, lazy: &mut LazyTimers, step: usize) {
    assert_eq!(core.live(), lazy.live(), "step {step}: live requests");
    for (name, timers) in [
        ("timeouts", &core.live.timeouts),
        ("deliveries", &core.live.deliveries),
    ] {
        assert!(
            timers.heap.len() <= core.live(),
            "step {step}: {name} holds {} entries for {} live requests",
            timers.heap.len(),
            core.live()
        );
        for &(due, handle) in &timers.heap {
            assert!(
                lazy.live[handle.id as usize],
                "step {step}: {name} holds answered request {} due {due}",
                handle.id
            );
        }
        if core.live() == 0 {
            assert_eq!(
                timers.heap.len(),
                0,
                "step {step}: {name} outlives its requests"
            );
        }
    }
    let completions = core.on_air.iter().flatten().map(|i| i.tx.completes_at());
    let expected = lazy.next_due().into_iter().chain(completions).min();
    assert_eq!(core.next_due(), expected, "step {step}: next_due");
}

/// One seeded run of `steps` random operations: ingests with and without
/// deadlines (budgets short enough that many expire), exact steps to
/// `next_due`, late ticks that fire many events at once, and now and then
/// a `shed_remaining` after which ingest goes on, so slab slots are
/// reused throughout.
fn run(seed: u64, steps: usize) {
    let mut core: ChannelCore<u64, NullSink> = super::core(|| NullSink);
    let mut lazy = LazyTimers::new(&core);
    let mut rng = Xoshiro256::new(seed);
    let mut now = SimTime::ZERO;
    let mut sheds = 0;
    for step in 0..steps {
        let mut answers: Vec<Answer> = Vec::new();
        let mut out = |r: Resolution<u64>| answers.push((r.tag, r.outcome, r.wait));
        let roll = rng.next_f64();
        if roll < 0.5 {
            now += SimDuration::new(rng.next_f64() * 0.5);
            let id = core.live.next_id;
            let item = ItemId((rng.next_f64() * 100.0) as u32);
            let class = ClassId((rng.next_f64() * 3.0) as u8);
            let deadline =
                (rng.next_f64() < 0.6).then(|| now + SimDuration::new(0.5 + rng.next_f64() * 30.0));
            core.ingest(id, item, class, now, deadline, &mut out);
            assert_eq!(answers, lazy.ingest(now, deadline), "step {step}: ingest");
        } else if roll < 0.995 {
            let to = match core.next_due() {
                Some(due) if roll < 0.75 => due,
                _ => now + SimDuration::new(rng.next_f64() * 8.0),
            };
            now = now.max(to);
            core.advance(to, &mut out, |_| {});
            core.dispatch(to, &mut out);
            let timeouts = lazy.advance(to);
            assert_eq!(answers[..timeouts.len()], timeouts, "step {step}: timeouts");
            for &answer in &answers[timeouts.len()..] {
                assert_ne!(answer.1, Outcome::TimedOut, "step {step}: {answer:?}");
                lazy.answered(answer);
            }
        } else {
            core.shed_remaining(now, &mut out);
            assert_eq!(answers, lazy.shed_remaining(now), "step {step}: final shed");
            sheds += 1;
        }
        check_timers(&core, &mut lazy, step);
    }
    let books = core.books();
    assert!(
        sheds > 0 && books.total.timed_out > 100,
        "seed {seed}: {books:?}"
    );
    assert!(
        books.total.served() > 100 && books.total.uplink_lost > 0,
        "{books:?}"
    );
    assert!(
        core.live.slots.len() * 10 < lazy.live.len(),
        "seed {seed}: {} slots for {} requests",
        core.live.slots.len(),
        lazy.live.len()
    );
}

#[test]
fn eager_timers_answer_as_a_lazy_reference_does() {
    for seed in 1..=8 {
        run(seed, 3_000);
    }
}
