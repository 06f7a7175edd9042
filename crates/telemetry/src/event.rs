//! The typed event taxonomy.

use std::fmt;

use hybridcast_sim::time::{SimDuration, SimTime};
use hybridcast_workload::catalog::ItemId;
use hybridcast_workload::classes::ClassId;

/// Which channel served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// Delivered by the cyclic broadcast (push) channel.
    Push,
    /// Delivered by an on-demand (pull) transmission.
    Pull,
}

impl fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceKind::Push => write!(f, "push"),
            ServiceKind::Pull => write!(f, "pull"),
        }
    }
}

/// One structured observation from a simulation run.
///
/// Every variant carries the simulation time it happened at; most carry the
/// item and service class concerned. The enum is `Copy`, so recording an
/// event never allocates — formatting is done lazily by whoever wants
/// strings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryEvent {
    /// A client request entered the system.
    RequestArrival {
        /// When the request arrived.
        time: SimTime,
        /// Requested item.
        item: ItemId,
        /// Requesting client's service class.
        class: ClassId,
    },
    /// A request was fully delivered.
    RequestServed {
        /// Completion time.
        time: SimTime,
        /// Delivered item.
        item: ItemId,
        /// Requesting client's service class.
        class: ClassId,
        /// Channel that carried the final transmission.
        kind: ServiceKind,
        /// When the request originally arrived (delay = `time - arrival`).
        arrival: SimTime,
    },
    /// A request was rejected because the pull queue was full.
    RequestBlocked {
        /// Rejection time.
        time: SimTime,
        /// Requested item.
        item: ItemId,
        /// Requesting client's service class.
        class: ClassId,
    },
    /// A request's uplink transmission reached the server after contending
    /// for the back-channel.
    UplinkDelivered {
        /// Time the request reached the server (arrival + uplink latency).
        time: SimTime,
        /// Item the request asked for.
        item: ItemId,
        /// Requesting client's service class.
        class: ClassId,
        /// Uplink latency: slots transmitted plus random backoff gaps.
        latency: SimDuration,
    },
    /// A request's uplink transmission exhausted its retries and was lost.
    UplinkLoss {
        /// Time the loss was decided.
        time: SimTime,
        /// Item the lost request asked for.
        item: ItemId,
        /// Requesting client's service class.
        class: ClassId,
    },
    /// The broadcast channel finished transmitting a push-set item.
    PushTx {
        /// Transmission *completion* time (the start is `time - duration`;
        /// batch composition is only known once the item lands).
        time: SimTime,
        /// Broadcast item.
        item: ItemId,
        /// Air time of the transmission.
        duration: SimDuration,
    },
    /// A pull channel finished transmitting a queued item.
    PullTx {
        /// Transmission *completion* time (start is `time - duration`).
        time: SimTime,
        /// Transmitted item.
        item: ItemId,
        /// Air time of the transmission.
        duration: SimDuration,
        /// Number of outstanding requests satisfied by this transmission.
        requests: u32,
        /// Dominant class among the satisfied requesters (most pending
        /// requests, ties to the higher-priority class).
        class: ClassId,
    },
    /// The adaptive controller moved the push/pull cutoff.
    CutoffChange {
        /// When the retune was applied.
        time: SimTime,
        /// Cutoff before the move.
        from_k: u32,
        /// Cutoff after the move.
        to_k: u32,
    },
    /// A client gave up and left the population (churn model).
    ChurnEvent {
        /// Departure time.
        time: SimTime,
        /// Departing client's service class.
        class: ClassId,
        /// Departing client id.
        client: u32,
    },
    /// Pull-queue depth changed (piecewise-constant gauge sample).
    QueueGauge {
        /// Sample time.
        time: SimTime,
        /// Distinct queued items.
        items: u32,
        /// Outstanding queued requests (an item can aggregate several).
        requests: u32,
    },
}

impl TelemetryEvent {
    /// The simulation time the event occurred at.
    pub fn time(&self) -> SimTime {
        match *self {
            TelemetryEvent::RequestArrival { time, .. }
            | TelemetryEvent::RequestServed { time, .. }
            | TelemetryEvent::RequestBlocked { time, .. }
            | TelemetryEvent::UplinkDelivered { time, .. }
            | TelemetryEvent::UplinkLoss { time, .. }
            | TelemetryEvent::PushTx { time, .. }
            | TelemetryEvent::PullTx { time, .. }
            | TelemetryEvent::CutoffChange { time, .. }
            | TelemetryEvent::ChurnEvent { time, .. }
            | TelemetryEvent::QueueGauge { time, .. } => time,
        }
    }

    /// The service class the event concerns, when it has one.
    pub fn class(&self) -> Option<ClassId> {
        match *self {
            TelemetryEvent::RequestArrival { class, .. }
            | TelemetryEvent::RequestServed { class, .. }
            | TelemetryEvent::RequestBlocked { class, .. }
            | TelemetryEvent::UplinkDelivered { class, .. }
            | TelemetryEvent::UplinkLoss { class, .. }
            | TelemetryEvent::PullTx { class, .. }
            | TelemetryEvent::ChurnEvent { class, .. } => Some(class),
            TelemetryEvent::PushTx { .. }
            | TelemetryEvent::CutoffChange { .. }
            | TelemetryEvent::QueueGauge { .. } => None,
        }
    }
}

impl fmt::Display for TelemetryEvent {
    /// Human-readable one-liner. The timestamp is *not* included.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TelemetryEvent::RequestArrival { item, class, .. } => {
                write!(f, "arrival item={} class={}", item.0, class.0)
            }
            TelemetryEvent::RequestServed {
                item,
                class,
                kind,
                arrival,
                time,
            } => write!(
                f,
                "served item={} class={} via={} delay={:.4}",
                item.0,
                class.0,
                kind,
                time.since(arrival).as_f64()
            ),
            TelemetryEvent::RequestBlocked { item, class, .. } => {
                write!(f, "blocked item={} class={}", item.0, class.0)
            }
            TelemetryEvent::UplinkDelivered {
                item,
                class,
                latency,
                ..
            } => write!(
                f,
                "uplink-delivered item={} class={} latency={:.4}",
                item.0,
                class.0,
                latency.as_f64()
            ),
            TelemetryEvent::UplinkLoss { item, class, .. } => {
                write!(f, "uplink-loss item={} class={}", item.0, class.0)
            }
            TelemetryEvent::PushTx { item, duration, .. } => {
                write!(f, "push-tx item={} dur={:.4}", item.0, duration.as_f64())
            }
            TelemetryEvent::PullTx {
                item,
                duration,
                requests,
                class,
                ..
            } => write!(
                f,
                "pull-tx item={} dur={:.4} requests={} class={}",
                item.0,
                duration.as_f64(),
                requests,
                class.0
            ),
            TelemetryEvent::CutoffChange { from_k, to_k, .. } => {
                write!(f, "cutoff {from_k} -> {to_k}")
            }
            TelemetryEvent::ChurnEvent { class, client, .. } => {
                write!(f, "churn-departure class={} client={}", class.0, client)
            }
            TelemetryEvent::QueueGauge {
                items, requests, ..
            } => write!(f, "queue items={items} requests={requests}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_and_class_accessors_cover_every_variant() {
        let t = SimTime::new(3.0);
        let ev = TelemetryEvent::RequestServed {
            time: t,
            item: ItemId(4),
            class: ClassId(1),
            kind: ServiceKind::Pull,
            arrival: SimTime::new(1.0),
        };
        assert_eq!(ev.time(), t);
        assert_eq!(ev.class(), Some(ClassId(1)));
        let gauge = TelemetryEvent::QueueGauge {
            time: t,
            items: 2,
            requests: 5,
        };
        assert_eq!(gauge.class(), None);
    }

    #[test]
    fn display_is_compact_and_stable() {
        let ev = TelemetryEvent::RequestServed {
            time: SimTime::new(3.5),
            item: ItemId(7),
            class: ClassId(0),
            kind: ServiceKind::Push,
            arrival: SimTime::new(1.0),
        };
        assert_eq!(
            ev.to_string(),
            "served item=7 class=0 via=push delay=2.5000"
        );
        let cut = TelemetryEvent::CutoffChange {
            time: SimTime::new(9.0),
            from_k: 10,
            to_k: 25,
        };
        assert_eq!(cut.to_string(), "cutoff 10 -> 25");
    }
}
