//! Serializable daemon configuration.
//!
//! A [`ServeConfig`] is the complete description of one serving deployment:
//! the *workload* side (catalog, classes — reusing
//! [`ScenarioConfig`]; its arrival process is ignored because real clients
//! provide the arrivals), the *scheduler* side ([`HybridConfig`]), and the
//! *serving* side ([`ServeParams`]: listen addresses, wall-clock exchange
//! rate, backpressure bounds, deadlines, telemetry). `hybridcastd
//! --init-config` prints the default as a starting point.

use serde::{Deserialize, Serialize};

use hybridcast_core::config::{HybridConfig, Role};
use hybridcast_telemetry::TelemetryConfig;
use hybridcast_workload::scenario::ScenarioConfig;

/// Serving-side knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ServeParams {
    /// TCP listen address. `127.0.0.1:0` picks an ephemeral port (tests).
    pub addr: String,
    /// Wall milliseconds per broadcast unit: a length-`L` item occupies the
    /// downlink for `L × unit_millis` ms of real time.
    pub unit_millis: f64,
    /// Per-shard bound of the event-loop→scheduler ingress rings (one ring
    /// per loop thread). A frame arriving while its ring is full is *shed*:
    /// the client gets an explicit `Shed` reply instead of silent delay —
    /// backpressure, not buffering.
    pub ingress_capacity: usize,
    /// Number of epoll event-loop threads fronting the sockets. Loop 0
    /// also owns the accept path; connections are spread round-robin.
    pub loop_threads: usize,
    /// Per-connection outbound reply-queue bound in KiB. A connection that
    /// stops reading long enough to exceed it is dropped (its replies are
    /// still counted — a dead peer doesn't break conservation).
    pub conn_outbound_kib: usize,
    /// Default per-request deadline in wall ms, applied when a request
    /// frame carries `deadline_ms = 0`. `0` here means "no deadline".
    pub default_deadline_ms: u32,
    /// On shutdown, keep draining queued pull work for at most this many
    /// wall ms before shedding whatever is left.
    pub drain_timeout_ms: u64,
    /// Telemetry window width in broadcast units.
    pub telemetry_window: f64,
    /// Where the windowed QoS series streams to (JSONL); `None` disables.
    pub results_path: Option<String>,
    /// Listen address for the ops HTTP endpoint (`/healthz`, `/stats`,
    /// `/config`); `None` disables it. `127.0.0.1:0` picks an ephemeral
    /// port (tests read it back from the handle).
    pub ops_addr: Option<String>,
    /// Where to record the accepted-request stream as a binary `HCT1`
    /// trace; `None` disables recording.
    pub trace_path: Option<String>,
}

impl Default for ServeParams {
    fn default() -> Self {
        ServeParams {
            addr: "127.0.0.1:4650".into(),
            unit_millis: 1.0,
            ingress_capacity: 8192,
            loop_threads: 2,
            conn_outbound_kib: 256,
            default_deadline_ms: 0,
            drain_timeout_ms: 2_000,
            telemetry_window: 500.0,
            results_path: Some("results/serve.jsonl".into()),
            ops_addr: None,
            trace_path: None,
        }
    }
}

/// Everything `hybridcastd` needs to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[serde(default, deny_unknown_fields)]
pub struct ServeConfig {
    /// Catalog/classes description. The arrival-process fields
    /// (`arrival_rate`, `drift`, `batch_mean`, `nonstationary`) are
    /// neither read nor validated: the network front end *is* the arrival
    /// process.
    pub scenario: ScenarioConfig,
    /// Scheduler configuration (cutoff, push/pull policies, bandwidth,
    /// optional uplink contention).
    pub hybrid: HybridConfig,
    /// Serving-side knobs.
    pub serve: ServeParams,
}

impl ServeConfig {
    /// Validates the configuration, returning every problem found.
    pub fn validate(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        if !(self.serve.unit_millis > 0.0 && self.serve.unit_millis.is_finite()) {
            problems.push(format!(
                "serve.unit_millis must be positive and finite, got {}",
                self.serve.unit_millis
            ));
        }
        if self.serve.ingress_capacity == 0 {
            problems.push("serve.ingress_capacity must be at least 1".into());
        }
        // The upper bound is the loop index a reply address carries.
        if !(1..=65_536).contains(&self.serve.loop_threads) {
            problems.push(format!(
                "serve.loop_threads must be in 1..=65536, got {}",
                self.serve.loop_threads
            ));
        }
        if self.serve.conn_outbound_kib == 0 {
            problems.push("serve.conn_outbound_kib must be at least 1".into());
        }
        let window = self.serve.telemetry_window;
        if let Err(e) = (TelemetryConfig { window }).validate() {
            problems.push(format!("serve.telemetry_window: {e}"));
        }
        // The arrival process is the clients': its fields are not read.
        problems.extend(self.scenario.validate(false).err());
        problems.extend(self.hybrid.validate().err());
        let channels = self.hybrid.channels.shard_count();
        let transmitters = self.hybrid.channels.transmitters();
        if transmitters.iter().any(|r| !matches!(r, Role::Hybrid(_))) {
            problems.push(
                "hybrid.channels: the daemon serves the paper's single interleaved \
                 downlink; the split layout is simulation-only"
                    .into(),
            );
        } else if channels > 1 && channels as usize > self.scenario.num_items {
            problems.push(format!(
                "hybrid.channels: {channels} channels exceed the catalog size {}",
                self.scenario.num_items
            ));
        }
        if self.hybrid.cutoff > self.scenario.num_items {
            problems.push(format!(
                "hybrid.cutoff {} exceeds the catalog size {}",
                self.hybrid.cutoff, self.scenario.num_items
            ));
        }
        if self.scenario.classes.len() > u8::MAX as usize {
            problems.push("at most 255 service classes fit the wire format".into());
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// Parses and validates a JSON config.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let cfg: ServeConfig =
            serde_json::from_str(json).map_err(|e| format!("config parse error: {e}"))?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    /// The canonical *identity* JSON: this config with the deployment
    /// ephemera neutralized — listen addresses, output paths, ops/trace
    /// toggles — leaving exactly the fields that shape scheduling
    /// behavior. The run's `config_hash` (serve.jsonl header, trace
    /// header, `/stats`) is FNV-1a over this text, so recording a trace on
    /// one port and replaying from the same config file on another still
    /// hash-match.
    pub fn identity_json(&self) -> String {
        let mut id = self.clone();
        id.serve.addr = ServeParams::default().addr;
        id.serve.results_path = None;
        id.serve.ops_addr = None;
        id.serve.trace_path = None;
        id.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_core::config::ChannelLayout;
    use hybridcast_core::pull::PullPolicyKind;

    #[test]
    fn default_round_trips_and_validates() {
        let cfg = ServeConfig::default();
        cfg.validate().unwrap();
        let back = ServeConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn the_removed_unix_socket_key_is_gone_and_harmless_in_old_files() {
        let cfg = ServeConfig::default();
        assert!(!cfg.to_json().contains("unix_socket"));
        assert!(!cfg.identity_json().contains("unix_socket"));
        // A config file written before the knob was removed still loads:
        // `ServeParams` ignores keys it does not know.
        let old = cfg.to_json().replacen(
            "\"serve\": {",
            "\"serve\": {\"unix_socket\": \"/tmp/hc.sock\",",
            1,
        );
        assert!(old.contains("unix_socket"));
        assert_eq!(ServeConfig::from_json(&old).unwrap(), cfg);
    }

    #[test]
    fn split_layout_is_rejected() {
        let mut cfg = ServeConfig::default();
        cfg.hybrid.channels = ChannelLayout::Split { pull_channels: 2 };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("interleaved"), "{err}");
    }

    #[test]
    fn sharded_layout_is_accepted_within_bounds() {
        use hybridcast_core::config::AssignmentStrategy;
        let mut cfg = ServeConfig::default();
        cfg.hybrid.channels = ChannelLayout::Sharded {
            channels: 4,
            assignment: AssignmentStrategy::PatternAware,
        };
        cfg.validate().unwrap();
        cfg.hybrid.channels = ChannelLayout::Sharded {
            channels: 0,
            assignment: AssignmentStrategy::PatternAware,
        };
        assert!(cfg.validate().unwrap_err().contains("1..=256"));
        cfg.hybrid.channels = ChannelLayout::Sharded {
            channels: cfg.scenario.num_items as u32 + 1,
            assignment: AssignmentStrategy::PatternAware,
        };
        assert!(cfg.validate().unwrap_err().contains("catalog size"));
    }

    #[test]
    fn bad_bounds_are_rejected() {
        let mut cfg = ServeConfig::default();
        cfg.serve.ingress_capacity = 0;
        cfg.serve.unit_millis = 0.0;
        cfg.serve.loop_threads = 0;
        cfg.serve.conn_outbound_kib = 0;
        cfg.hybrid.cutoff = cfg.scenario.num_items + 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("ingress_capacity"), "{err}");
        assert!(err.contains("unit_millis"), "{err}");
        assert!(err.contains("loop_threads"), "{err}");
        assert!(err.contains("conn_outbound_kib"), "{err}");
        assert!(err.contains("cutoff"), "{err}");
    }

    /// Scenario and scheduler values are checked as the config enters —
    /// the daemon used to print "listening" and then die on the consumer's
    /// `assert!` (or, with no classes, run and shed every request). Each
    /// error names the field.
    #[test]
    fn out_of_range_scenario_and_scheduler_values_are_errors_naming_the_field() {
        use hybridcast_core::config::AssignmentStrategy;
        use hybridcast_core::uplink::UplinkConfig;
        use hybridcast_workload::lengths::LengthModel;
        use hybridcast_workload::popularity::PopularityModel;

        type Break = fn(&mut ServeConfig);
        let no_classes = |cfg: &mut ServeConfig| {
            cfg.scenario.classes = serde_json::from_str(r#"{"classes": []}"#).unwrap();
        };
        let idle_classes = |cfg: &mut ServeConfig| {
            cfg.scenario.classes = serde_json::from_str(
                r#"{"classes": [
                    {"name": "A", "priority": 2.0, "population_share": 0.0, "bandwidth_share": 0.5},
                    {"name": "B", "priority": 1.0, "population_share": 0.0, "bandwidth_share": 0.5}
                ]}"#,
            )
            .unwrap();
        };
        let table: [(Break, &[&str]); 15] = [
            (|c| c.scenario.num_items = 0, &["scenario.num_items"]),
            (
                |c| c.scenario.popularity = PopularityModel::zipf(-5.0),
                &["scenario.popularity", "skew"],
            ),
            (no_classes, &["scenario.classes", "at least one"]),
            (idle_classes, &["scenario.classes", "population shares"]),
            (
                |c| c.scenario.lengths = LengthModel::Uniform { min: 0, max: 5 },
                &["scenario.lengths", "minimum length"],
            ),
            (
                |c| c.scenario.lengths = LengthModel::Uniform { min: 9, max: 5 },
                &["scenario.lengths", "max ≥ min"],
            ),
            (
                |c| c.hybrid.pull = PullPolicyKind::importance(7.0),
                &["hybrid.pull", "alpha"],
            ),
            (
                |c| {
                    c.hybrid.pull = PullPolicyKind::Importance {
                        alpha: 0.5,
                        exponent: -1.0,
                    }
                },
                &["hybrid.pull", "exponent"],
            ),
            (
                |c| c.hybrid.bandwidth.total_capacity = -1.0,
                &["hybrid.bandwidth", "total capacity"],
            ),
            (
                |c| c.hybrid.uplink.as_mut().unwrap().success_prob = 0.0,
                &["hybrid.uplink", "success probability"],
            ),
            (
                |c| c.hybrid.uplink.as_mut().unwrap().slot_time = 0.0,
                &["hybrid.uplink", "slot time"],
            ),
            (
                |c| c.hybrid.uplink.as_mut().unwrap().max_attempts = 0,
                &["hybrid.uplink", "attempt"],
            ),
            (
                |c| {
                    c.hybrid.channels = ChannelLayout::Sharded {
                        channels: 300,
                        assignment: AssignmentStrategy::PatternAware,
                    }
                },
                &["hybrid.channels", "300"],
            ),
            (
                |c| c.serve.telemetry_window = 0.0,
                &["serve.telemetry_window"],
            ),
            (|c| c.serve.loop_threads = 70_000, &["serve.loop_threads"]),
        ];
        for (i, (breakage, names)) in table.iter().enumerate() {
            let mut cfg = ServeConfig::default();
            cfg.hybrid.uplink = Some(UplinkConfig::default());
            cfg.validate().unwrap();
            breakage(&mut cfg);
            let err = ServeConfig::from_json(&cfg.to_json()).unwrap_err();
            assert!(names.iter().all(|n| err.contains(n)), "case {i}: {err}");
        }
    }

    /// The clients are the arrival process: the scenario's own is neither
    /// read nor validated (a zero `arrival_rate` used to kill the daemon
    /// after it printed "listening").
    #[test]
    fn the_arrival_process_fields_are_not_validated() {
        use hybridcast_workload::requests::DriftConfig;
        let mut cfg = ServeConfig::default();
        cfg.scenario.arrival_rate = 0.0;
        cfg.scenario.batch_mean = Some(0.5);
        cfg.scenario.drift = Some(DriftConfig {
            period: 0.0,
            shift: 5,
        });
        cfg.validate().unwrap();
        // … and a scenario that ignores them still builds.
        assert_eq!(cfg.scenario.build().catalog.len(), cfg.scenario.num_items);
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = ServeConfig::from_json(r#"{"surprise": 1}"#).unwrap_err();
        assert!(err.contains("parse error"), "{err}");
    }
}
