//! What a run hands back, the metric names `BENCHMARK.json` declares, and
//! how results are printed and written.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde_json::{json, Value};

use crate::host::Fingerprint;
use crate::spans::{self_time_ns, Span};
use crate::stats::{min, percentile_sorted, sort};

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = ["serve_push", "serve_pull", "sim_sweep", "trace_whatif"];

/// End-to-end metrics `(name, unit)` — every workload reports every one.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("cpu_us_per_op", "us"),
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("lat_a_tail_ms", "ms"),
    ("overhead_p50_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A
/// workload reports 0 for a layer it does not reach.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("server.user_us_per_req", "us"),
    ("server.sys_us_per_req", "us"),
    ("server.max_thread_cpu_frac", "ratio"),
    ("server.ctx_switches_per_kreq", "count"),
    ("server.tx_per_s", "1/s"),
    ("server.pace_frac", "ratio"),
    ("server.reqs_per_pull_tx", "count"),
    ("server.queue_items_mean", "count"),
    ("server.live_max", "count"),
    ("server.peak_rss_mib", "MiB"),
    ("server.drain_ms", "ms"),
    ("client.late_p99_ms", "ms"),
    ("client.overhead_p99_ms", "ms"),
    ("client.rtt_p999_ms", "ms"),
    ("client.replies_per_read", "count"),
    ("frame.req_decode_ns", "ns"),
    ("frame.reply_encode_ns", "ns"),
    ("shard.ring_ns", "ns"),
    ("shard.ring_xthread_ns", "ns"),
    ("hybrid.on_request_ns", "ns"),
    ("hybrid.next_tx_ns", "ns"),
    ("hybrid.complete_tx_ns", "ns"),
    ("queue.insert_ns", "ns"),
    ("queue.select_indexed_ns", "ns"),
    ("queue.inserted", "count"),
    ("queue.extracted_items", "count"),
    ("queue.peak_len", "count"),
    ("pull.score_ns", "ns"),
    ("engine.event_ns", "ns"),
    ("dist.zipf_sample_ns", "ns"),
    ("workload.next_request_ns", "ns"),
    ("metrics.record_served_ns", "ns"),
    ("telemetry.window_event_ns", "ns"),
    ("sim.windowed_ratio", "ratio"),
    ("sim.ns_per_event_k0", "ns"),
    ("sim.ns_per_event_k40", "ns"),
    ("sim.ns_per_event_k100", "ns"),
    ("sim.unattributed_frac", "ratio"),
    ("trace.encode_ns", "ns"),
    ("trace.parse_ns", "ns"),
    ("trace.bytes_per_record", "B"),
    ("replay.ns_per_record", "ns"),
    ("replay.requests_map_ns", "ns"),
    ("whatif.ms_per_point_c1", "ms"),
    ("whatif.ms_per_point_c2", "ms"),
    ("share.frontend_frac", "ratio"),
    ("share.scheduler_frac", "ratio"),
    ("proc.peak_rss_mib", "MiB"),
    ("bench.spans", "count"),
    ("bench.traced_cpu_us_per_op", "us"),
];

/// One output check: the run is `correct` only if every one holds.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Named metric values in report order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The four latency metrics of an offline workload from its unit-of-work
    /// timings (ms), one list per *kind* of unit (a cutoff, a grid point).
    /// The computation is deterministic, so what varies within a kind is
    /// the host (clock steps, neighbours) and only ever slows it down: each
    /// kind counts with its fastest run. The tail is over kinds — the slow
    /// sorts of work — at the nearest-rank p90. Nothing offline has a
    /// priority class, so the premium tail is the tail; no broadcast
    /// schedule makes a caller wait, so the software overhead is the whole
    /// latency.
    pub fn set_unit_latency(&mut self, ms_by_kind: &[Vec<f64>]) {
        let mut best: Vec<f64> = ms_by_kind.iter().map(|v| min(v)).collect();
        let sorted = sort(&mut best);
        let (p50, tail) = (
            percentile_sorted(sorted, 50.0),
            percentile_sorted(sorted, 90.0),
        );
        self.set("lat_p50_ms", p50);
        self.set("lat_tail_ms", tail);
        self.set("lat_a_tail_ms", tail);
        self.set("overhead_p50_ms", p50);
    }

    /// The contract's `metrics` object: exactly `declared`, in order, each
    /// `{value, unit}`; a per-layer metric the workload never set is 0.
    pub fn to_contract(
        &self,
        declared: &[(&str, &str)],
        default_zero: bool,
    ) -> Result<Value, String> {
        let mut obj = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {name} is not finite: {v}")),
                None if default_zero => 0.0,
                None => return Err(format!("workload did not report metric {name}")),
            };
            obj.push((name.to_string(), json!({ "value": value, "unit": unit })));
        }
        Ok(Value::Object(obj))
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Why the timings may not be trusted (empty = quiet run).
    pub noisy: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Free-form detail for the output file (sample counts, digests, …).
    pub detail: Vec<(String, Value)>,
    pub spans: Vec<Span>,
}

impl RunOutput {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_string(), value));
    }
}

/// The last stdout line of a contract-mode run.
pub fn contract_line(out: &RunOutput, traced: bool) -> Result<String, String> {
    let metrics = if traced {
        out.metrics.to_contract(&PER_LAYER, true)?
    } else {
        out.metrics.to_contract(&END_TO_END, false)?
    };
    let line = json!({
        "correct": out.correct(),
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": metrics,
    });
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, u)| u)
}

/// Human-readable result: every metric by name with its unit, every check.
pub fn print_human(workload: &str, traced: bool, out: &RunOutput) {
    let mode = if traced { "traced" } else { "untraced" };
    eprintln!("== {workload} ({mode}) ==");
    for (name, value) in &out.metrics.0 {
        eprintln!("  {name:<32} {value:>16.4} {}", unit_of(name));
    }
    eprintln!(
        "  attempted {}  failed {}  checks {}/{} ok",
        out.attempted,
        out.failed,
        out.checks.iter().filter(|c| c.ok).count(),
        out.checks.len()
    );
    for c in out.checks.iter().filter(|c| !c.ok) {
        eprintln!("  CHECK FAILED {}: {}", c.name, c.detail);
    }
    for reason in &out.noisy {
        eprintln!("  !!! NOISY RUN — do not quote these timings: {reason}");
    }
}

/// Writes `out/<stem>_<workload>.json`: host, checks, metrics and (traced)
/// spans with self time per layer.
pub fn write_file(
    out_dir: &Path,
    stem: &str,
    workload: &str,
    seed: u64,
    seconds: f64,
    host: &Fingerprint,
    out: &RunOutput,
) -> io::Result<PathBuf> {
    let metrics: Vec<(String, Value)> = out
        .metrics
        .0
        .iter()
        .map(|(n, v)| (n.to_string(), json!({ "value": *v, "unit": unit_of(n) })))
        .collect();
    let checks: Vec<Value> = out
        .checks
        .iter()
        .map(|c| json!({ "name": c.name, "ok": c.ok, "detail": &c.detail }))
        .collect();
    let self_time: Vec<Value> = self_time_ns(&out.spans)
        .into_iter()
        .map(|(name, calls, ns)| json!({ "name": name, "calls": calls, "self_ns": ns }))
        .collect();
    let body = json!({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "host": host,
        "noisy": &out.noisy,
        "correct": out.correct(),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": Value::Object(metrics),
        "checks": checks,
        "detail": Value::Object(out.detail.clone()),
        "self_time": self_time,
        "spans": &out.spans,
    });
    fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("{stem}_{workload}.json"));
    fs::write(
        &path,
        serde_json::to_string_pretty(&body).map_err(io::Error::other)?,
    )?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec: Value = serde_json::from_str(&fs::read_to_string(path).unwrap()).unwrap();
        spec.get(section)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (
                    s("name"),
                    m.get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_code_reports() {
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        let mut out = RunOutput {
            attempted: 10,
            ..RunOutput::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            out.metrics.set(name, 1.5 + i as f64);
        }
        let v: Value = serde_json::from_str(&contract_line(&out, false).unwrap()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics").unwrap().as_object().unwrap().len(),
            END_TO_END.len()
        );
        // A missing end-to-end metric is an error, a missing layer metric is 0.
        out.metrics.0.pop();
        assert!(contract_line(&out, false).is_err());
        let traced: Value = serde_json::from_str(&contract_line(&out, true).unwrap()).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }
}
