//! The discrete-event simulation engine.
//!
//! [`Engine`] owns a clock and an [`EventQueue`]; the caller drives it with a
//! handler closure that receives each event in timestamp order and may
//! schedule further events. Termination is by queue exhaustion, a time
//! horizon, or an event-count budget — whichever comes first.
//!
//! ```
//! use hybridcast_sim::engine::Engine;
//! use hybridcast_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::ZERO, Ev::Ping(0));
//! let mut seen = 0;
//! let stats = engine.run(|eng, ev| {
//!     let Ev::Ping(n) = ev;
//!     seen += 1;
//!     if n < 4 {
//!         eng.schedule_in(SimDuration::new(1.0), Ev::Ping(n + 1));
//!     }
//! });
//! assert_eq!(seen, 5);
//! assert_eq!(stats.events_processed, 5);
//! ```

use serde::{Deserialize, Serialize};

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Why a call to [`Engine::run`] (or a bounded variant) returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The event queue drained completely.
    QueueEmpty,
    /// The next event lies beyond the configured horizon.
    HorizonReached,
}

/// Summary of one `run` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Number of events delivered to the handler.
    pub events_processed: u64,
    /// Clock value when the run stopped.
    pub end_time: SimTime,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// A single-threaded discrete-event engine over event type `E`.
#[derive(Debug, Clone)]
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// The current simulated instant (timestamp of the last delivered event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Pending event count, a staged event included.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` precedes the current clock — the past is immutable.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            at
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` at the absolute instant `at` in the queue's one
    /// staged slot beside its heap (see [`EventQueue::stage`]): the
    /// delivery order is exactly what [`schedule_at`](Self::schedule_at)
    /// would give, without the heap push and pop. Meant for an event the
    /// handler re-arms every time it fires, such as the next arrival.
    ///
    /// # Panics
    /// Panics if `at` precedes the current clock, or if an event is
    /// already staged.
    pub fn stage_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            at
        );
        self.queue.stage(at, event);
    }

    /// Schedules `event` to fire `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.queue.push(at, event);
    }

    /// Delivers the next event to `handler`, advancing the clock.
    /// Returns `false` if the queue was empty.
    pub fn step<H>(&mut self, handler: &mut H) -> bool
    where
        H: FnMut(&mut Engine<E>, E),
    {
        match self.queue.pop() {
            Some((t, ev)) => {
                debug_assert!(t >= self.now, "event queue returned a past event");
                self.now = t;
                handler(self, ev);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue drains.
    pub fn run<H>(&mut self, mut handler: H) -> RunStats
    where
        H: FnMut(&mut Engine<E>, E),
    {
        self.run_bounded(None, &mut handler)
    }

    /// Runs until the queue drains or the clock would pass `horizon`.
    ///
    /// Events stamped exactly at the horizon are still delivered; the first
    /// event strictly beyond it is left in the queue.
    pub fn run_until<H>(&mut self, horizon: SimTime, mut handler: H) -> RunStats
    where
        H: FnMut(&mut Engine<E>, E),
    {
        self.run_bounded(Some(horizon), &mut handler)
    }

    fn run_bounded<H>(&mut self, horizon: Option<SimTime>, handler: &mut H) -> RunStats
    where
        H: FnMut(&mut Engine<E>, E),
    {
        let mut delivered = 0u64;
        let stop = loop {
            if let Some(h) = horizon {
                match self.queue.peek_time() {
                    Some(t) if t > h => break StopReason::HorizonReached,
                    None => break StopReason::QueueEmpty,
                    _ => {}
                }
            }
            if !self.step(handler) {
                break StopReason::QueueEmpty;
            }
            delivered += 1;
        };
        // When a horizon stops the run, report the horizon itself as the end
        // time so rate metrics (events / end_time) are well-defined.
        if stop == StopReason::HorizonReached {
            if let Some(h) = horizon {
                // The last delivered event was at or before the horizon, so
                // this only ever moves the clock forward.
                self.now = self.now.max(h);
            }
        }
        RunStats {
            events_processed: delivered,
            end_time: self.now,
            stop,
        }
    }

    /// Removes and returns every pending event in timestamp order without
    /// advancing the clock or counting them as processed. After a bounded
    /// run this is the harness's census hook: whatever is still in flight
    /// at the horizon (undelivered requests, unfinished transmissions) can
    /// be inspected and accounted for instead of silently discarded.
    pub fn drain_pending(&mut self) -> Vec<(SimTime, E)> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(entry) = self.queue.pop() {
            out.push(entry);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn processes_in_order_and_advances_clock() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::new(2.0), Ev::Tick(2));
        eng.schedule_at(SimTime::new(1.0), Ev::Tick(1));
        let mut seen = Vec::new();
        let stats = eng.run(|e, ev| {
            let Ev::Tick(n) = ev;
            seen.push((n, e.now().as_f64()));
        });
        assert_eq!(seen, vec![(1, 1.0), (2, 2.0)]);
        assert_eq!(stats.stop, StopReason::QueueEmpty);
        assert_eq!(stats.events_processed, 2);
        assert_eq!(eng.now(), SimTime::new(2.0));
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, Ev::Tick(0));
        let mut count = 0;
        eng.run(|e, ev| {
            let Ev::Tick(n) = ev;
            count += 1;
            if n < 9 {
                e.schedule_in(SimDuration::new(0.5), Ev::Tick(n + 1));
            }
        });
        assert_eq!(count, 10);
        assert_eq!(eng.now(), SimTime::new(4.5));
    }

    #[test]
    fn horizon_stops_before_future_events() {
        let mut eng = Engine::new();
        for i in 1..=10 {
            eng.schedule_at(SimTime::new(i as f64), Ev::Tick(i));
        }
        let mut seen = 0;
        let stats = eng.run_until(SimTime::new(5.0), |_, _| seen += 1);
        assert_eq!(seen, 5);
        assert_eq!(stats.stop, StopReason::HorizonReached);
        // clock parked exactly at the horizon
        assert_eq!(stats.end_time, SimTime::new(5.0));
        // remaining events still pending
        assert_eq!(eng.pending(), 5);
    }

    #[test]
    fn horizon_is_inclusive() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::new(5.0), Ev::Tick(1));
        let mut seen = 0;
        eng.run_until(SimTime::new(5.0), |_, _| seen += 1);
        assert_eq!(seen, 1);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::new(2.0), Ev::Tick(0));
        eng.run(|e, _| {
            e.schedule_at(SimTime::new(1.0), Ev::Tick(1));
        });
    }

    #[test]
    fn resume_after_horizon() {
        let mut eng = Engine::new();
        for i in 1..=4 {
            eng.schedule_at(SimTime::new(i as f64), Ev::Tick(i));
        }
        let mut seen = 0;
        eng.run_until(SimTime::new(2.0), |_, _| seen += 1);
        assert_eq!(seen, 2);
        eng.run(|_, _| seen += 1);
        assert_eq!(seen, 4);
    }

    #[test]
    fn staged_events_interleave_like_scheduled_ones() {
        // An event re-staged on every delivery fires in the same order as
        // the same event re-scheduled on the heap.
        let order = |stage: bool| {
            let mut eng = Engine::new();
            eng.schedule_at(SimTime::new(1.0), Ev::Tick(100));
            eng.schedule_at(SimTime::new(2.0), Ev::Tick(101));
            if stage {
                eng.stage_at(SimTime::new(1.0), Ev::Tick(0));
            } else {
                eng.schedule_at(SimTime::new(1.0), Ev::Tick(0));
            }
            let mut seen = Vec::new();
            eng.run_until(SimTime::new(3.0), |e, ev| {
                let Ev::Tick(n) = ev;
                seen.push(n);
                if n < 100 {
                    let next = Ev::Tick(n + 1);
                    let at = e.now() + SimDuration::new(0.5);
                    if stage {
                        e.stage_at(at, next);
                    } else {
                        e.schedule_at(at, next);
                    }
                }
            });
            (seen, eng.drain_pending().len())
        };
        assert_eq!(order(true), order(false));
        assert_eq!(order(true).0, vec![100, 0, 1, 101, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn staging_into_the_past_panics() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::new(2.0), Ev::Tick(0));
        eng.run(|e, _| {
            e.stage_at(SimTime::new(1.0), Ev::Tick(1));
        });
    }

    #[test]
    fn drain_pending_includes_the_staged_event() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::new(3.0), Ev::Tick(3));
        eng.stage_at(SimTime::new(2.0), Ev::Tick(2));
        eng.schedule_at(SimTime::new(1.0), Ev::Tick(1));
        assert_eq!(eng.pending(), 3);
        let times: Vec<f64> = eng
            .drain_pending()
            .iter()
            .map(|(t, _)| t.as_f64())
            .collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn drain_pending_returns_leftovers_in_order() {
        let mut eng = Engine::new();
        for i in 1..=6 {
            eng.schedule_at(SimTime::new(i as f64), Ev::Tick(i));
        }
        eng.run_until(SimTime::new(2.0), |_, _| {});
        let rest = eng.drain_pending();
        let ids: Vec<u32> = rest
            .iter()
            .map(|(_, ev)| {
                let Ev::Tick(n) = ev;
                *n
            })
            .collect();
        assert_eq!(ids, vec![3, 4, 5, 6]);
        assert!(rest.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(eng.pending(), 0);
        // the clock is untouched
        assert_eq!(eng.now(), SimTime::new(2.0));
    }
}
