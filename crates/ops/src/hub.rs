//! The shared live-stats hub behind `/stats`.
//!
//! Each scheduler core *publishes* a [`ChannelSnapshot`] into the hub — at
//! window closes, on a coarse time throttle, and at seal — and the ops
//! HTTP thread *reads* the latest snapshots when a `/stats` request
//! arrives. Publishing copies a small fixed-size struct under a
//! per-channel mutex, so a slow or absent reader can never stall a
//! scheduler tick: the core's cost is one uncontended lock + memcpy per
//! publish, independent of HTTP traffic.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use serde::Serialize;

use hybridcast_sim::stats::SummaryStats;
use hybridcast_telemetry::WindowStats;

use crate::digest::hex64;

/// One channel core's cumulative books plus its latest closed telemetry
/// window, as published to the hub.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ChannelSnapshot {
    /// Frames this channel's core ingested (plus notices on channel 0).
    pub accepted: u64,
    /// Served by the broadcast schedule.
    pub served_push: u64,
    /// Served by pull transmissions.
    pub served_pull: u64,
    /// Explicit rejections.
    pub shed: u64,
    /// Deadline expiries.
    pub timed_out: u64,
    /// Uplink losses.
    pub uplink_lost: u64,
    /// Push transmissions aired.
    pub push_tx: u64,
    /// Pull transmissions aired.
    pub pull_tx: u64,
    /// Requests currently awaiting a reply on this channel.
    pub live: u64,
    /// Distinct items in the pull queue right now.
    pub queue_items: u32,
    /// Outstanding pull requests right now.
    pub queue_requests: u32,
    /// The scheduler's current cutoff K.
    pub cutoff_k: u32,
    /// How late this channel's transmissions have completed so far, in
    /// wall milliseconds (wake-up instant minus due stamp, one sample per
    /// transmission): is the daemon keeping its broadcast pace?
    pub slot_late_ms: SummaryStats,
    /// Latest *closed* telemetry window (None until the first window
    /// closes) — the windowed per-class QoS series `/stats` serves.
    pub last_window: Option<WindowStats>,
}

impl ChannelSnapshot {
    fn answered(&self) -> u64 {
        self.served_push + self.served_pull + self.shed + self.timed_out + self.uplink_lost
    }
}

/// The run-constant identity block served on `/healthz` and `/stats`.
#[derive(Debug, Clone, Serialize)]
struct Identity {
    config_hash: String,
    plan_digest: String,
    channels: u32,
    classes: Vec<String>,
    telemetry_window: f64,
    unit_millis: f64,
}

/// Shared between the scheduler cores (writers) and the ops HTTP thread
/// (reader). Constructed once per run in `hybridcastd`.
#[derive(Debug)]
pub struct OpsHub {
    started: Instant,
    identity: Identity,
    config_json: String,
    chans: Vec<Mutex<ChannelSnapshot>>,
}

#[derive(Debug, Serialize)]
struct Totals {
    accepted: u64,
    served_push: u64,
    served_pull: u64,
    shed: u64,
    timed_out: u64,
    uplink_lost: u64,
    live: u64,
    shed_rate: f64,
    uplink_loss_rate: f64,
    /// `accepted == answered + live` across all channels — the live form
    /// of the conservation identity (in-flight requests are not yet
    /// answered).
    conservation_ok: bool,
}

impl OpsHub {
    /// A hub for a run with the given identity. `config_json` is served
    /// verbatim on `/config`.
    pub fn new(
        config_hash: u64,
        plan_digest: u64,
        channels: u32,
        classes: Vec<String>,
        telemetry_window: f64,
        unit_millis: f64,
        config_json: String,
    ) -> OpsHub {
        OpsHub {
            started: Instant::now(),
            identity: Identity {
                config_hash: hex64(config_hash),
                plan_digest: hex64(plan_digest),
                channels,
                classes,
                telemetry_window,
                unit_millis,
            },
            config_json,
            chans: (0..channels.max(1))
                .map(|_| Mutex::new(ChannelSnapshot::default()))
                .collect(),
        }
    }

    /// Publishes channel `c`'s latest snapshot (core-side; cheap).
    pub fn publish(&self, c: u32, snap: ChannelSnapshot) {
        if let Some(slot) = self.chans.get(c as usize) {
            *slot.lock().expect("hub slot lock") = snap;
        }
    }

    fn locked(&self) -> Vec<MutexGuard<'_, ChannelSnapshot>> {
        self.chans
            .iter()
            .map(|m| m.lock().expect("hub slot lock"))
            .collect()
    }

    /// The `/healthz` body.
    pub(crate) fn healthz_json(&self) -> String {
        let body = serde_json::json!({
            "status": "ok",
            "uptime_seconds": self.started.elapsed().as_secs_f64(),
            "channels": self.identity.channels,
            "config_hash": self.identity.config_hash,
        });
        serde_json::to_string(&body).expect("healthz serializes")
    }

    /// The `/config` body (the daemon's canonical config JSON).
    pub(crate) fn config_json(&self) -> String {
        self.config_json.clone()
    }

    /// The `/stats` body: identity, aggregate totals, and per-channel
    /// snapshots with their latest closed QoS window.
    pub(crate) fn stats_json(&self) -> String {
        let snaps = self.locked();
        let mut totals = Totals {
            accepted: 0,
            served_push: 0,
            served_pull: 0,
            shed: 0,
            timed_out: 0,
            uplink_lost: 0,
            live: 0,
            shed_rate: 0.0,
            uplink_loss_rate: 0.0,
            conservation_ok: true,
        };
        let mut answered = 0u64;
        // Each entry is the snapshot's own JSON with `channel` and the
        // derived rates prepended (the vendored serde has no `flatten`).
        let per_channel: Vec<serde_json::Value> = snaps
            .iter()
            .enumerate()
            .map(|(c, s)| {
                totals.accepted += s.accepted;
                totals.served_push += s.served_push;
                totals.served_pull += s.served_pull;
                totals.shed += s.shed;
                totals.timed_out += s.timed_out;
                totals.uplink_lost += s.uplink_lost;
                totals.live += s.live;
                answered += s.answered();
                let mut v = serde_json::to_value(&**s).expect("snapshot serializes");
                if let serde_json::Value::Object(map) = &mut v {
                    map.insert(0, ("channel".to_string(), serde_json::json!(c as u32)));
                    map.insert(
                        1,
                        (
                            "shed_rate".to_string(),
                            serde_json::json!(rate(s.shed, s.accepted)),
                        ),
                    );
                    map.insert(
                        2,
                        (
                            "uplink_loss_rate".to_string(),
                            serde_json::json!(rate(s.uplink_lost, s.accepted)),
                        ),
                    );
                }
                v
            })
            .collect();
        totals.shed_rate = rate(totals.shed, totals.accepted);
        totals.uplink_loss_rate = rate(totals.uplink_lost, totals.accepted);
        totals.conservation_ok = totals.accepted == answered + totals.live;
        let body = serde_json::json!({
            "uptime_seconds": self.started.elapsed().as_secs_f64(),
            "identity": &self.identity,
            "totals": &totals,
            "per_channel": &per_channel,
        });
        serde_json::to_string(&body).expect("stats serializes")
    }
}

fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> OpsHub {
        OpsHub::new(
            1,
            2,
            2,
            vec!["Class-A".into(), "Class-B".into()],
            500.0,
            1.0,
            "{\"demo\":true}".into(),
        )
    }

    #[test]
    fn stats_aggregate_and_conserve() {
        let h = hub();
        h.publish(
            0,
            ChannelSnapshot {
                accepted: 10,
                served_push: 4,
                served_pull: 3,
                shed: 1,
                live: 2,
                ..Default::default()
            },
        );
        h.publish(
            1,
            ChannelSnapshot {
                accepted: 5,
                served_push: 2,
                uplink_lost: 1,
                live: 2,
                ..Default::default()
            },
        );
        let v: serde_json::Value = serde_json::from_str(&h.stats_json()).expect("parses");
        assert_eq!(v["totals"]["accepted"].as_u64(), Some(15));
        assert_eq!(v["totals"]["live"].as_u64(), Some(4));
        assert_eq!(v["totals"]["conservation_ok"].as_bool(), Some(true));
        assert_eq!(v["per_channel"][1]["uplink_loss_rate"].as_f64(), Some(0.2));
        assert_eq!(v["identity"]["channels"].as_u64(), Some(2));
    }

    #[test]
    fn healthz_and_config_are_json() {
        let h = hub();
        let hz: serde_json::Value = serde_json::from_str(&h.healthz_json()).expect("parses");
        assert_eq!(hz["status"].as_str(), Some("ok"));
        let cfg: serde_json::Value = serde_json::from_str(&h.config_json()).expect("parses");
        assert_eq!(cfg["demo"].as_bool(), Some(true));
    }
}
