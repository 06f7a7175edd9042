//! Event sinks: where telemetry goes.

use crate::event::TelemetryEvent;

/// A destination for [`TelemetryEvent`]s.
///
/// Drivers are generic over `S: Sink` and guard every emission with
/// [`emit`], so a sink whose `enabled()` is a constant `false` (the
/// [`NullSink`]) costs nothing after monomorphization: the event is never
/// even constructed. Sinks must be purely observational — recording must not
/// influence scheduler or RNG state.
pub trait Sink {
    /// Whether this sink wants events at all. Sinks that always record can
    /// keep the default `true`; [`NullSink`] returns `false` so guarded
    /// emission folds away.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event. Events arrive in non-decreasing time order (the
    /// discrete-event engine pops its heap chronologically).
    fn record(&mut self, event: &TelemetryEvent);
}

/// Constructs and records an event only if the sink is enabled.
///
/// The closure keeps event construction (and any formatting or arithmetic it
/// needs) off the hot path: with [`NullSink`] the whole call inlines to
/// nothing, which is what the `telemetry_overhead` bench gates.
#[inline(always)]
pub fn emit<S: Sink>(sink: &mut S, make: impl FnOnce() -> TelemetryEvent) {
    if sink.enabled() {
        let event = make();
        sink.record(&event);
    }
}

/// The disabled sink: compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl Sink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _event: &TelemetryEvent) {}
}

/// A sink that buffers every event in memory. Meant for tests and small
/// diagnostic runs — an unbounded buffer is the wrong tool for long
/// simulations (use [`WindowRecorder`](crate::window::WindowRecorder)).
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<TelemetryEvent>,
}

impl VecSink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything recorded so far, in arrival order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Consumes the sink, returning the buffered events.
    pub fn into_events(self) -> Vec<TelemetryEvent> {
        self.events
    }
}

impl Sink for VecSink {
    fn record(&mut self, event: &TelemetryEvent) {
        self.events.push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_sim::time::SimTime;
    use hybridcast_workload::catalog::ItemId;
    use hybridcast_workload::classes::ClassId;

    fn arrival(t: f64) -> TelemetryEvent {
        TelemetryEvent::RequestArrival {
            time: SimTime::new(t),
            item: ItemId(3),
            class: ClassId(1),
        }
    }

    #[test]
    fn null_sink_is_disabled_and_emit_skips_construction() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        let mut built = false;
        emit(&mut sink, || {
            built = true;
            arrival(1.0)
        });
        assert!(!built, "emit must not build events for a disabled sink");
    }

    #[test]
    fn vec_sink_captures_in_order() {
        let mut sink = VecSink::new();
        emit(&mut sink, || arrival(1.0));
        emit(&mut sink, || arrival(2.0));
        let times: Vec<f64> = sink.events().iter().map(|e| e.time().as_f64()).collect();
        assert_eq!(times, vec![1.0, 2.0]);
    }
}
