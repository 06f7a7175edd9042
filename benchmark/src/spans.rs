//! In-memory spans for the traced run: one span per call into a layer,
//! recorded from the benchmark's side of the boundary and written out once
//! at exit. An untraced run carries a disabled tracer whose calls are a
//! branch on a bool, so end-to-end metrics never pay for tracing.

use std::time::Instant;

use serde::Serialize;

/// Index of a span in its tracer; `parent` links use it.
pub type SpanId = u32;

#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one (`null` for a root).
    pub parent: Option<SpanId>,
    /// `layer.operation`, e.g. `ops.replay_daemon`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Correlates the spans of one request (the client `seq`); 0 otherwise.
    pub request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span with explicit endpoints.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            request,
        });
        Some(id)
    }

    /// Opens a span now; close it with [`Tracer::close`]. Children opened in
    /// between name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, now, now, 0)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Times `f` as one span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now(), 0);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover (children of one parent never overlap here — the
/// benchmark is single-threaded per tracer).
pub fn self_time_ns(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += own;
            }
            None => by_name.push((s.name, 1, own)),
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("a.b", None);
        t.close(id);
        assert_eq!(t.time("a.c", id, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let e = t.epoch;
        let at = |ms: u64| e + Duration::from_millis(ms);
        let root = t.record("run", None, at(0), at(100), 0);
        t.record("layer.call", root, at(10), at(40), 0);
        t.record("layer.call", root, at(50), at(70), 0);
        let rows = self_time_ns(t.spans());
        assert_eq!(rows[0], ("run", 1, 50_000_000));
        assert_eq!(rows[1], ("layer.call", 2, 50_000_000));
    }
}
