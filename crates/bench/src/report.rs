//! The one gate-run envelope: which mode, which host, which gates bound,
//! what they measured, where the result file goes and what the process
//! exits with.
//!
//! Every gate under [`crate::gates`] is a `fn(&Host) -> Report`. It never
//! looks at the command line or the machine itself: [`main`] is the only
//! reader of `quick` and of `available_parallelism`, and `Report::gate`
//! and its timed-ratio form `Report::ratio_gate` are the only place
//! where "needs ≥ N cores", "full mode only" or "the runs are too noisy
//! to resolve this margin" turns into a verdict. `results/BENCH_<bench>.json` is
//!
//! ```text
//! {bench, mode, host: {cores},
//!  gates: [{name, threshold, measured, verdict, reason}], pass,
//!  …the gate's own body keys}
//! ```
//!
//! with `verdict ∈ pass | fail | skipped`. A skipped gate still records
//! what it measured; only `fail` makes `pass` false and the exit code 1.

use serde_json::{json, Value};

/// Where and how a gate runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Host {
    /// `quick` mode (CI smoke: short runs, small grids) instead of `full`
    /// (the numbers EXPERIMENTS.md quotes).
    pub quick: bool,
    /// `available_parallelism` of the machine.
    pub cores: usize,
}

impl Host {
    /// `quick` in quick mode, `full` otherwise.
    pub(crate) fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    fn mode(&self) -> &'static str {
        self.pick("quick", "full")
    }
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mode: {}, cores: {}", self.mode(), self.cores)
    }
}

/// What a gate needs from the host before its threshold binds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Needs {
    /// Fewest cores on which the measurement means anything.
    pub cores: usize,
    /// Quick runs are too short (or skip the row) to judge.
    pub full_only: bool,
}

impl Needs {
    /// Binds on every host in every mode.
    pub(crate) const NOTHING: Needs = Needs::cores(1);

    /// Binds on hosts with at least `cores` cores.
    pub(crate) const fn cores(cores: usize) -> Needs {
        Needs {
            cores,
            full_only: false,
        }
    }

    /// Binds in full mode on hosts with at least `cores` cores.
    pub(crate) const fn full(cores: usize) -> Needs {
        Needs {
            cores,
            full_only: true,
        }
    }
}

/// The fastest of a variant's timed runs — what a min-of-runs ratio gate
/// compares (`INFINITY` for no runs).
pub(crate) fn min_of(runs: &[f64]) -> f64 {
    runs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// What one `bench <gate>` run produced.
#[derive(Debug, Clone)]
pub struct Report {
    bench: &'static str,
    host: Host,
    gates: Vec<Value>,
    failed: bool,
    body: Vec<(String, Value)>,
}

impl Report {
    /// A report for `results/BENCH_<bench>.json` carrying the gate's own
    /// `body` (a JSON object).
    pub(crate) fn new(bench: &'static str, host: &Host, body: Value) -> Report {
        let Value::Object(body) = body else {
            panic!("report body must be a JSON object");
        };
        Report {
            bench,
            host: *host,
            gates: Vec::new(),
            failed: false,
            body,
        }
    }

    /// Records and prints one gate: `skipped` (with the reason) when the
    /// host does not meet `needs`, otherwise `pass` or `fail` by `met`.
    /// `measured` is recorded either way.
    pub(crate) fn gate(
        &mut self,
        needs: Needs,
        name: &str,
        threshold: impl Into<Value>,
        measured: impl Into<Value>,
        met: bool,
    ) {
        self.record(needs, None, name, threshold.into(), measured.into(), met);
    }

    /// A gate on the min-of-runs ratio of two timed variants, given every
    /// run's value per variant. A ratio cannot be told from `threshold`
    /// when runs of the *same* variant differ by more than the margin
    /// `threshold − 1` allows between variants, so such a run is `skipped`
    /// as `unresolvable` — neither a pass nor a fail — with `measured`
    /// still recorded.
    pub(crate) fn ratio_gate(
        &mut self,
        needs: Needs,
        name: &str,
        threshold: f64,
        measured: f64,
        met: bool,
        variants: [&[f64]; 2],
    ) {
        let spread = variants
            .iter()
            .map(|runs| runs.iter().copied().fold(f64::NEG_INFINITY, f64::max) / min_of(runs) - 1.0)
            .fold(0.0, f64::max);
        let margin = threshold - 1.0;
        let noise = (spread > margin).then(|| {
            format!(
                "unresolvable: same-variant spread {:.1}% exceeds the {:.1}% margin",
                spread * 100.0,
                margin * 100.0
            )
        });
        self.record(needs, noise, name, threshold.into(), measured.into(), met);
    }

    /// The one place a gate becomes `pass | fail | skipped(reason)`: the
    /// host's reason first, then the measurement's own (`noise`).
    fn record(
        &mut self,
        needs: Needs,
        noise: Option<String>,
        name: &str,
        threshold: Value,
        measured: Value,
        met: bool,
    ) {
        let Host { quick, cores } = self.host;
        let reason = if needs.full_only && quick {
            Some("quick mode".to_string())
        } else if cores < needs.cores {
            Some(format!("needs >= {} cores, host has {cores}", needs.cores))
        } else {
            noise
        };
        let verdict = match (&reason, met) {
            (Some(_), _) => "skipped",
            (None, true) => "pass",
            (None, false) => "fail",
        };
        self.failed |= verdict == "fail";
        let why = reason.as_ref().map_or(String::new(), |r| format!("{r}; "));
        if self.gates.is_empty() {
            println!();
        }
        println!(
            "acceptance: {name}: {} ({why}measured {measured})",
            verdict.to_uppercase()
        );
        self.gates.push(json!({
            "name": name,
            "threshold": threshold,
            "measured": measured,
            "verdict": verdict,
            "reason": reason,
        }));
    }

    /// 0, or 1 when a gate failed; skipped gates do not count against a run.
    pub(crate) fn exit_code(&self) -> i32 {
        i32::from(self.failed)
    }

    /// The result document: envelope first, then the body keys.
    pub(crate) fn to_json(&self) -> Value {
        let mut doc = json!({
            "bench": self.bench,
            "mode": self.host.mode(),
            "host": { "cores": self.host.cores },
            "gates": self.gates,
            "pass": !self.failed,
        });
        for (key, value) in &self.body {
            doc.insert(key, value.clone());
        }
        doc
    }

    /// Writes `BENCH_<bench>.json` under [`crate::results_dir`] and returns
    /// the exit code.
    pub(crate) fn finish(&self) -> i32 {
        let dir = crate::results_dir();
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        let text = serde_json::to_string_pretty(&self.to_json()).expect("report serializes");
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text)) {
            Ok(()) => eprintln!("[saved {}]", path.display()),
            Err(e) => eprintln!("[warn: could not persist results: {e}]"),
        }
        self.exit_code()
    }
}

/// A gate the `bench` binary can run, under the name it is asked for by.
pub(crate) type GateFn = (&'static str, fn(&Host) -> Report);

/// `bench <gate> [quick]`: runs the named gate on this host and returns
/// the process exit code (2 on a usage error).
pub fn main(gates: &[GateFn]) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (name, quick) = match args[..] {
        [name] => (name, false),
        [name, "quick"] => (name, true),
        _ => ("", false),
    };
    let Some((_, run)) = gates.iter().find(|(gate, _)| *gate == name) else {
        let names: Vec<&str> = gates.iter().map(|(gate, _)| *gate).collect();
        eprintln!("usage: bench <gate> [quick]\ngates: {}", names.join(", "));
        return 2;
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    run(&Host { quick, cores }).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedup_report(cores: usize, measured: f64) -> Report {
        let host = Host {
            quick: false,
            cores,
        };
        let mut r = Report::new("demo", &host, json!({ "rows": [1, 2] }));
        r.gate(Needs::NOTHING, "identical", true, true, true);
        r.gate(
            Needs::cores(4),
            ">=4x at R=8",
            4.0,
            measured,
            measured >= 4.0,
        );
        r
    }

    #[test]
    fn a_four_core_gate_is_skipped_with_its_measurement_on_two_cores() {
        let r = speedup_report(2, 1.3);
        assert_eq!(r.exit_code(), 0);
        let doc = r.to_json();
        assert_eq!(doc["gates"][0]["verdict"].as_str(), Some("pass"));
        let gate = &doc["gates"][1];
        assert_eq!(gate["verdict"].as_str(), Some("skipped"));
        assert_eq!(gate["measured"].as_f64(), Some(1.3));
        assert_eq!(gate["threshold"].as_f64(), Some(4.0));
        assert_eq!(
            gate["reason"].as_str(),
            Some("needs >= 4 cores, host has 2")
        );
        assert_eq!(doc["pass"].as_bool(), Some(true));
    }

    #[test]
    fn the_same_gate_fails_on_four_cores_when_the_measurement_misses() {
        let r = speedup_report(4, 1.3);
        assert_eq!(r.to_json()["gates"][1]["verdict"].as_str(), Some("fail"));
        assert_eq!(r.exit_code(), 1);
        assert_eq!(r.to_json()["pass"].as_bool(), Some(false));
        assert!(r.to_json()["gates"][1]["reason"].is_null());
        assert_eq!(speedup_report(4, 4.2).exit_code(), 0);
    }

    #[test]
    fn full_only_gates_skip_in_quick_mode_whatever_the_host() {
        let host = Host {
            quick: true,
            cores: 64,
        };
        let mut r = Report::new("demo", &host, json!({}));
        r.gate(Needs::full(2), "regret <= 1.25", 1.25, 1.5, false);
        let doc = r.to_json();
        assert_eq!(doc["gates"][0]["verdict"].as_str(), Some("skipped"));
        assert_eq!(doc["gates"][0]["reason"].as_str(), Some("quick mode"));
        assert_eq!(r.exit_code(), 0);
    }

    /// A 1.05x gate over two variants' runs, ratio and `met` as the gates
    /// compute them.
    fn overhead_report(off: &[f64], on: &[f64]) -> Report {
        let host = Host {
            quick: false,
            cores: 2,
        };
        let mut r = Report::new("demo", &host, json!({}));
        let ratio = min_of(on) / min_of(off);
        r.ratio_gate(
            Needs::cores(2),
            "overhead <= 1.05x",
            1.05,
            ratio,
            ratio <= 1.05,
            [off, on],
        );
        r
    }

    #[test]
    fn a_ratio_gate_inside_its_margin_is_judged_by_met() {
        // Same-variant spreads of 3% and 4% resolve a 5% margin.
        let pass = overhead_report(&[10.0, 10.3, 10.1], &[10.2, 10.6, 10.4]);
        assert_eq!(pass.to_json()["gates"][0]["verdict"].as_str(), Some("pass"));
        assert!(pass.to_json()["gates"][0]["reason"].is_null());
        let fail = overhead_report(&[10.0, 10.3, 10.1], &[11.0, 11.4, 11.2]);
        assert_eq!(fail.to_json()["gates"][0]["verdict"].as_str(), Some("fail"));
        assert_eq!(fail.exit_code(), 1);
    }

    #[test]
    fn a_ratio_gate_noisier_than_its_margin_is_unresolvable_not_a_verdict() {
        // The shape of the committed 0.83x "pass": recording-off runs 43%
        // apart cannot resolve a 5% margin, whichever way the ratio falls.
        for on in [[10.59, 13.38, 11.0], [20.0, 20.5, 20.2]] {
            let r = overhead_report(&[18.17, 13.38, 12.71], &on);
            let gate = &r.to_json()["gates"][0];
            assert_eq!(gate["verdict"].as_str(), Some("skipped"));
            assert_eq!(
                gate["reason"].as_str(),
                Some("unresolvable: same-variant spread 43.0% exceeds the 5.0% margin")
            );
            assert_eq!(gate["measured"].as_f64(), Some(on[0] / 12.71));
            assert_eq!(r.exit_code(), 0);
            assert_eq!(r.to_json()["pass"].as_bool(), Some(true));
        }
        // Either variant's spread counts.
        let r = overhead_report(&[10.0, 10.1], &[10.0, 11.0]);
        let reason = r.to_json()["gates"][0]["reason"].clone();
        assert!(reason.as_str().unwrap().starts_with("unresolvable"));
    }

    #[test]
    fn envelope_comes_first_and_body_keys_follow_unchanged() {
        let doc = speedup_report(2, 1.3).to_json();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["bench", "mode", "host", "gates", "pass", "rows"]);
        assert_eq!(doc["mode"].as_str(), Some("full"));
        assert_eq!(doc["host"]["cores"].as_u64(), Some(2));
    }
}
