//! Invariant oracles: what must hold on *every* run, no matter the config.
//!
//! The [`OracleSink`] watches the telemetry stream of a single run and the
//! finalize step balances it against the report and the horizon census:
//!
//! 1. **Monotone clock** — events arrive in non-decreasing time order.
//! 2. **Non-negative delays** — no request is served before it arrived.
//! 3. **Conservation** — per class, `arrivals = served + blocked +
//!    uplink_lost + still-pending-at-horizon (+ departed)`, exactly.
//! 4. **Event/report agreement** — the counts the report claims equal the
//!    counts the event stream shows (requires zero warmup).
//! 5. **Push round-robin fairness** — under a flat push schedule with a
//!    static cutoff, the broadcast visits the K push items in a strict
//!    cycle: the first K transmissions are distinct and the sequence has
//!    period K.
//! 6. **Queue aggregate consistency** — the driver shadow-recounts
//!    `Q_i`/`R_i` from raw queue entries at audit points; any discrepancy
//!    lands in [`SimRun::queue_audit`] and is merged here.
//! 7. **Channel accounting** — reconstructing every pull transmission's
//!    occupancy interval from `PullTx { time, duration }`, the number of
//!    concurrent pulls never exceeds the layout's pull capacity (1 for
//!    the interleaved layout, `pull_channels` for the split layout, `C`
//!    for the sharded layout). A double-decremented idle-channel counter
//!    shows up here as a phantom overlapping transmission.
//! 8. **Channel-marginal conservation** — the horizon census's
//!    per-channel marginal must re-sum to the per-class total: every
//!    still-held request is owned by exactly one broadcast channel.
//! 9. **KSY partition sanity** — on a sharded layout, the item→channel
//!    plan rebuilt from the case must price at or above the balanced
//!    Kenyon–Schabanel–Young lower bound `(Σ√(pᵢlᵢ))²/(2C)`, with a
//!    finite non-negative gap and every item routed to a real channel.
//! 10. **Regret** — a measured-feedback controller run must keep its
//!     prioritized cost within a bounded factor of the best *static*
//!     cutoff inside the controller's own band, replayed on the identical
//!     arrival stream. A controller that steers the wrong way (e.g. a
//!     sign-flipped gradient step) walks to a corner and blows through
//!     the bound.
//! 11. **Telemetry freshness + service frequency** — every retune record
//!     must have decided on *this* window's telemetry: its
//!     `window_arrivals` must equal the stream-counted arrivals in
//!     `(t − period, t]`. A stale (one-window-lagged) snapshot shifts the
//!     count by a whole window. Under stable feasible load with the SLO
//!     guard on, no class with real demand may finish the run with zero
//!     completions.
//! 12. **Band and hysteresis discipline** — the controller never retunes
//!     outside `[k_min, min(k_max, D)]`, never jumps more than one step
//!     (except to land exactly on a band edge when clamping an
//!     out-of-band incumbent), and every non-rescue move is justified:
//!     the measured cost moved by at least the hysteresis band relative
//!     to the previous measured window, or the decision was the first
//!     measured one (a probe). A controller that chases every wiggle
//!     moves inside the band and fails the justification.
//!
//! Per-class priority dominance (Class-A beats Class-C under the
//! importance policy) is a *statistical* oracle; it lives in
//! [`check_dominance`] and runs over replications, not per fuzz case.

use hybridcast_core::bandwidth::BandwidthConfig;
use hybridcast_core::experiment::{evaluate, rank};
use hybridcast_core::prelude::{
    simulate, ChannelPlan, HybridConfig, NullSink, PullPolicy, SimParams, SimRun, Simulation, Sink,
    TelemetryEvent,
};
use hybridcast_core::push::PushKind;
use hybridcast_workload::catalog::ItemId;
use hybridcast_workload::scenario::ScenarioConfig;

use crate::case::FuzzCase;

/// Records a run's event stream and checks stream-level invariants online;
/// [`OracleSink::finalize`] settles the cross-cutting ones.
#[derive(Debug, Clone)]
pub struct OracleSink {
    num_classes: usize,
    last_time: f64,
    /// Timestamp of every arrival, in stream order (monotone by oracle
    /// 1) — what oracle 11 recounts controller windows from.
    arrival_times: Vec<f64>,
    arrivals: Vec<u64>,
    served: Vec<u64>,
    blocked: Vec<u64>,
    lost: Vec<u64>,
    push_seq: Vec<ItemId>,
    /// `(start, end)` occupancy intervals of every pull transmission,
    /// reconstructed as `end = time`, `start = time - duration`.
    pull_intervals: Vec<(f64, f64)>,
    cutoff_changes: u64,
    violations: Vec<String>,
}

impl OracleSink {
    /// A fresh oracle for `num_classes` service classes.
    pub fn new(num_classes: usize) -> Self {
        OracleSink {
            num_classes,
            last_time: 0.0,
            arrival_times: Vec::new(),
            arrivals: vec![0; num_classes],
            served: vec![0; num_classes],
            blocked: vec![0; num_classes],
            lost: vec![0; num_classes],
            push_seq: Vec::new(),
            pull_intervals: Vec::new(),
            cutoff_changes: 0,
            violations: Vec::new(),
        }
    }

    /// 7. Channel accounting: sweep the reconstructed pull occupancy
    ///    intervals and report the peak number of concurrent pulls if it
    ///    exceeds what the layout physically provides.
    fn check_channel_accounting(&mut self, capacity: u64) {
        // Back-to-back dispatch recomputes `start = end - duration` in
        // floats; shave an epsilon off each start so exact abutment (the
        // next pull starting the instant the last one finished) never
        // counts as overlap. Real phantom overlaps span O(duration).
        const EPS: f64 = 1e-6;
        let mut edges: Vec<(f64, i64)> = Vec::with_capacity(self.pull_intervals.len() * 2);
        for &(start, end) in &self.pull_intervals {
            edges.push((start + EPS, 1));
            edges.push((end, -1));
        }
        // Sort by time, closers before openers at ties.
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut live = 0i64;
        let mut peak = 0i64;
        for (_, delta) in edges {
            live += delta;
            peak = peak.max(live);
        }
        if peak as u64 > capacity {
            self.violations.push(format!(
                "channel accounting broken: {peak} concurrent pull transmissions \
                 on a layout with {capacity} pull channel(s)"
            ));
        }
    }

    fn violation(&mut self, msg: String) {
        // Cap the list: one broken invariant can fire per event.
        if self.violations.len() < 32 {
            self.violations.push(msg);
        }
    }

    /// 10. Regret: replay the same arrival stream under a static cutoff
    ///     grid spanning the controller's band; the controller must stay
    ///     within a bounded factor of the best static point. Gated to
    ///     clean, measurable single-channel runs so the yardstick is
    ///     apples-to-apples.
    fn check_regret(&mut self, case: &FuzzCase, out: &SimRun) {
        let Some(adaptive) = &case.adaptive else {
            return;
        };
        let Some(ctrl) = adaptive.controller.as_ref() else {
            return;
        };
        if !case.faults.is_empty()
            || case.hybrid.uplink.is_some()
            || case.hybrid.channels.shard_count() != 1
        {
            return;
        }
        let d = case.scenario.num_items;
        if d < 4 || case.horizon < 4.0 * adaptive.period {
            return;
        }
        let hi = ctrl.k_max.min(d);
        let lo = ctrl.k_min.min(hi);
        // An incumbent parked outside the band measures the clamp, not
        // the climb; skip those.
        if case.hybrid.cutoff < lo || case.hybrid.cutoff > hi {
            return;
        }
        if self.served.iter().sum::<u64>() < 50 {
            return;
        }
        let controller_cost = out.report.total_prioritized_cost;
        let scenario = case.scenario.build();
        let span = hi - lo;
        let mut grid = vec![lo, lo + span / 4, lo + span / 2, lo + 3 * span / 4, hi];
        grid.sort_unstable();
        grid.dedup();
        let run = |&k: &usize, _| {
            let hybrid = case.hybrid.with_cutoff(k);
            simulate(&scenario, &hybrid, &case.params()).total_prioritized_cost
        };
        let costs = evaluate(&grid, 1, run, |_, mut runs| runs.remove(0));
        let i = rank(&costs)[0];
        let (best, best_k) = (costs[i], grid[i]);
        const FACTOR: f64 = 3.0;
        if best > 1e-6 && controller_cost > FACTOR * best {
            self.violations.push(format!(
                "regret bound violated: controller cost {controller_cost:.3} exceeds \
                 {FACTOR}× the best static in-band cutoff cost {best:.3} (K = {best_k})"
            ));
        }
    }

    /// 11. Telemetry freshness (every retune decided on *this* window's
    ///     arrivals) plus the service-frequency SLO under stable load.
    fn check_freshness_and_slo(&mut self, case: &FuzzCase, out: &SimRun) {
        let Some(adaptive) = &case.adaptive else {
            return;
        };
        let period = adaptive.period;
        // `arrival_times` is monotone (oracle 1), so each window is a
        // contiguous slice: count arrivals in (t − period, t].
        for r in &out.retunes {
            let lo = r.time - period;
            let counted = (self.arrival_times.partition_point(|&a| a <= r.time)
                - self.arrival_times.partition_point(|&a| a <= lo))
                as u64;
            if counted != r.window_arrivals {
                self.violation(format!(
                    "stale telemetry: retune at t = {:.3} decided on {} window \
                     arrivals but the stream shows {counted} in ({lo:.3}, {:.3}]",
                    r.time, r.window_arrivals, r.time
                ));
            }
        }
        // Service frequency: under stable feasible load with the SLO
        // guard on, demand must not go entirely unserved.
        let stable = case.faults.is_empty()
            && case.hybrid.uplink.is_none()
            && case.hybrid.channels.shard_count() == 1
            && case.scenario.nonstationary.is_none()
            && case.hybrid.bandwidth == BandwidthConfig::default()
            && case.horizon >= 4.0 * period
            && adaptive
                .controller
                .as_ref()
                .is_some_and(|c| c.slo.is_some());
        if stable {
            for c in 0..self.num_classes {
                if self.arrivals[c] >= 20 && self.served[c] == 0 {
                    self.violations.push(format!(
                        "service-frequency SLO violated: class {c} saw {} arrivals \
                         but zero completions under stable load",
                        self.arrivals[c]
                    ));
                }
            }
        }
    }

    /// 12. Band and hysteresis discipline over the retune trajectory.
    fn check_band_discipline(&mut self, case: &FuzzCase, out: &SimRun) {
        let Some(ctrl) = case.adaptive.as_ref().and_then(|a| a.controller.as_ref()) else {
            return;
        };
        let d = case.scenario.num_items;
        let hi = ctrl.k_max.min(d);
        let lo = ctrl.k_min.min(hi);
        // Reconstruct the controller's cost reference from the records:
        // it updates on every *judged* measured window (held or not),
        // never on an idle one, and never on the `settle_windows`
        // transient windows it discards after each actual move — those
        // are recorded (raw) but deliberately left out of the smoothed
        // series, so the eventual judgment delta spans back to the
        // pre-move cost.
        let mut prev_cost: Option<f64> = None;
        let mut settle: u32 = 0;
        for r in &out.retunes {
            let moved = r.to_k != r.from_k;
            if moved {
                if r.to_k < lo || r.to_k > hi {
                    self.violation(format!(
                        "cutoff retuned outside the configured band: K = {} at \
                         t = {:.3} with band [{lo}, {hi}]",
                        r.to_k, r.time
                    ));
                }
                // A clamp from an out-of-band incumbent may exceed one
                // step, but then it lands exactly on a band edge.
                let jump = r.to_k.abs_diff(r.from_k);
                if jump > ctrl.step && r.to_k != lo && r.to_k != hi {
                    self.violation(format!(
                        "cutoff jumped {jump} in one retune (step {}) without \
                         landing on a band edge",
                        ctrl.step
                    ));
                }
            }
            match r.measured_cost {
                Some(cost) if settle > 0 => {
                    // Transient window after a move: the controller must
                    // hold here (rescue excepted — safety overrides
                    // settling and re-arms it).
                    settle -= 1;
                    if r.slo_rescue {
                        prev_cost = Some(cost);
                        if moved {
                            settle = ctrl.settle_windows;
                        }
                    } else if moved {
                        self.violation(format!(
                            "settle discipline broken: cutoff moved {} → {} at \
                             t = {:.3} inside the {}-window settling interval",
                            r.from_k, r.to_k, r.time, ctrl.settle_windows
                        ));
                    }
                }
                Some(cost) => {
                    if let Some(prev) = prev_cost {
                        let delta = ((cost - prev) / prev.max(f64::MIN_POSITIVE)).abs();
                        if moved && !r.slo_rescue && delta + 1e-9 < ctrl.hysteresis {
                            self.violation(format!(
                                "hysteresis discipline broken: retune at t = {:.3} \
                                 moved {} → {} on a {delta:.4} relative cost change \
                                 inside the {:.4} band",
                                r.time, r.from_k, r.to_k, ctrl.hysteresis
                            ));
                        }
                    }
                    prev_cost = Some(cost);
                    if moved {
                        settle = ctrl.settle_windows;
                    }
                }
                None if moved => {
                    self.violation(format!(
                        "hysteresis discipline broken: cutoff moved on an idle \
                         window at t = {:.3}: {} → {}",
                        r.time, r.from_k, r.to_k
                    ));
                }
                None => {}
            }
        }
    }

    /// Settles the cross-cutting invariants against the finished run and
    /// returns every violation found (empty = the run is clean).
    pub fn finalize(mut self, case: &FuzzCase, out: &SimRun) -> Vec<String> {
        // 3. Conservation: the books must balance per class, exactly.
        for c in 0..self.num_classes {
            let pending = out.census.per_class(c);
            let balance = self.served[c] + self.blocked[c] + self.lost[c] + pending;
            if self.arrivals[c] != balance {
                self.violations.push(format!(
                    "conservation broken for class {c}: {} arrivals vs {} served \
                     + {} blocked + {} lost + {pending} pending",
                    self.arrivals[c], self.served[c], self.blocked[c], self.lost[c]
                ));
            }
        }
        // 4. Event stream vs report cross-check (zero-warmup runs only).
        for (c, pc) in out.report.per_class.iter().enumerate() {
            for (label, stream, report) in [
                ("generated", self.arrivals[c], pc.generated),
                ("served", self.served[c], pc.served),
                ("blocked", self.blocked[c], pc.blocked),
                ("uplink_lost", self.lost[c], out.report.uplink_lost[c]),
            ] {
                if stream != report {
                    self.violations.push(format!(
                        "report disagrees with event stream for class {c} \
                         {label}: stream {stream} vs report {report}"
                    ));
                }
            }
        }
        // 5. Push round-robin fairness, when the gate applies: flat push
        // schedule, a cutoff that never moved, and one channel — across
        // shards the global stream interleaves C independent cycles.
        let k = case.hybrid.cutoff;
        if case.hybrid.push == PushKind::Flat
            && self.cutoff_changes == 0
            && k >= 1
            && case.hybrid.channels.shard_count() == 1
        {
            let seq = &self.push_seq;
            let head: Vec<ItemId> = seq.iter().take(k).copied().collect();
            let mut sorted = head.clone();
            sorted.sort_unstable_by_key(|it| it.index());
            sorted.dedup();
            if seq.len() >= k && sorted.len() != k {
                self.violations.push(format!(
                    "push cycle is unfair: first {k} broadcasts were not distinct: {head:?}"
                ));
            }
            if let Some(i) = (0..seq.len().saturating_sub(k)).find(|&i| seq[i + k] != seq[i]) {
                self.violations.push(format!(
                    "push cycle is aperiodic at slot {}: item {:?} vs {:?} one \
                     cycle earlier (K = {k})",
                    i + k,
                    seq[i + k],
                    seq[i]
                ));
            }
            if let Some(stray) = seq.iter().find(|it| it.index() >= k) {
                self.violations
                    .push(format!("pushed an item outside the push set: {stray:?}"));
            }
        }
        // 7. Channel accounting: concurrent pulls never exceed the number
        // of transmitters that can pull.
        let transmitters = case.hybrid.channels.transmitters();
        let capacity = transmitters.iter().filter(|r| r.pulls()).count() as u64;
        self.check_channel_accounting(capacity);
        // 8. Channel-marginal conservation: the census's per-channel view
        // must re-sum to the per-class view, exactly.
        let shard_count = case.hybrid.channels.shard_count() as usize;
        if out.census.per_channel.len() != shard_count {
            self.violations.push(format!(
                "census has {} channel entries on a {shard_count}-channel layout",
                out.census.per_channel.len()
            ));
        }
        let channel_sum: u64 = out.census.per_channel.iter().sum();
        if channel_sum != out.census.total() {
            self.violations.push(format!(
                "channel-marginal conservation broken: {channel_sum} requests \
                 across channels vs {} in the class census",
                out.census.total()
            ));
        }
        // 9. KSY partition sanity: the plan is deterministic from the
        // case, so rebuild it and price it against the offline bound.
        let catalog = case.scenario.build().catalog;
        let channels = case.hybrid.channels.shard_count();
        let plan = ChannelPlan::build(&catalog, channels, case.hybrid.channels.assignment());
        if let Some(bad) = plan.assignment().iter().find(|&&c| c as u32 >= channels) {
            self.violations
                .push(format!("plan routes an item to phantom channel {bad}"));
        }
        let (cost, lb) = (plan.cost(), plan.lower_bound());
        if !(cost.is_finite() && lb.is_finite()) || cost < lb - 1e-9 * lb.max(1.0) {
            self.violations.push(format!(
                "KSY bound violated: partition cost {cost} under the \
                 balanced lower bound {lb}"
            ));
        }
        if plan.gap().is_some_and(|g| !g.is_finite() || g < -1e-9) {
            self.violations
                .push(format!("KSY gap is not a sane ratio: {:?}", plan.gap()));
        }
        // 10–12. The controller oracles: regret, telemetry freshness +
        // service frequency, band/hysteresis discipline.
        self.check_regret(case, out);
        self.check_freshness_and_slo(case, out);
        self.check_band_discipline(case, out);
        // 6. Merge the driver's queue shadow-recount findings.
        self.violations
            .extend(out.queue_audit.iter().map(|m| format!("queue audit: {m}")));
        self.violations
    }
}

impl Sink for OracleSink {
    fn record(&mut self, event: &TelemetryEvent) {
        // 1. Monotone clock.
        let t = event.time().as_f64();
        if t < self.last_time {
            self.violation(format!("clock ran backwards: {t} after {}", self.last_time));
        }
        self.last_time = self.last_time.max(t);
        match *event {
            TelemetryEvent::RequestArrival { class, .. } => {
                self.arrivals[class.index()] += 1;
                self.arrival_times.push(t);
            }
            TelemetryEvent::RequestServed {
                time,
                arrival,
                class,
                ..
            } => {
                self.served[class.index()] += 1;
                // 2. Non-negative delay.
                if arrival > time {
                    self.violation(format!(
                        "negative delay: served at {} but arrived at {}",
                        time.as_f64(),
                        arrival.as_f64()
                    ));
                }
            }
            TelemetryEvent::RequestBlocked { class, .. } => {
                self.blocked[class.index()] += 1;
            }
            TelemetryEvent::UplinkLoss { class, .. } => {
                self.lost[class.index()] += 1;
            }
            TelemetryEvent::PushTx { item, .. } => {
                self.push_seq.push(item);
            }
            TelemetryEvent::PullTx { time, duration, .. } => {
                let end = time.as_f64();
                self.pull_intervals.push((end - duration.as_f64(), end));
            }
            TelemetryEvent::CutoffChange { .. } => {
                self.cutoff_changes += 1;
            }
            _ => {}
        }
    }
}

/// Outcome of checking one fuzz case against every oracle.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CaseOutcome {
    /// The case's generator seed.
    pub seed: u64,
    /// Panic payload if the run panicked (a graceful-degradation failure).
    pub panicked: Option<String>,
    /// Every invariant violation, in detection order.
    pub violations: Vec<String>,
}

impl CaseOutcome {
    /// `true` when the run completed and every oracle held.
    pub fn passed(&self) -> bool {
        self.panicked.is_none() && self.violations.is_empty()
    }

    /// The stable JSON form used for corpus replay comparison.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("CaseOutcome serializes")
    }
}

/// Runs one fuzz case under full oracle supervision. Panics inside the
/// simulator are caught and reported as failures — under fault injection
/// the scheduler must degrade gracefully, never crash.
pub fn run_case(case: &FuzzCase) -> CaseOutcome {
    run_case_with_policy(case, || None)
}

/// [`run_case`] with a pull-policy override factory — the seam the
/// mutation smoke test uses to plant sign-flipped scoring mutants.
pub(crate) fn run_case_with_policy(
    case: &FuzzCase,
    policy: impl Fn() -> Option<Box<dyn PullPolicy>>,
) -> CaseOutcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let scenario = case.scenario.build();
        let mut oracle = OracleSink::new(scenario.classes.len());
        let params = case.params();
        let out = Simulation {
            policy: policy(),
            ..case.simulation(&scenario, &params)
        }
        .run(&mut oracle);
        oracle.finalize(case, &out)
    }));
    match result {
        Ok(violations) => CaseOutcome {
            seed: case.seed,
            panicked: None,
            violations,
        },
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            CaseOutcome {
                seed: case.seed,
                panicked: Some(msg),
                violations: Vec::new(),
            }
        }
    }
}

/// The statistical dominance oracle: under the importance policy with a
/// priority-leaning blend, Class-A (highest priority) must not see a worse
/// mean pull delay than the lowest class, beyond CI noise. Checked over
/// `replications` independent runs; returns `Err` with the evidence when
/// dominance is violated.
///
/// `policy` optionally overrides the pull policy per replication (the
/// mutation smoke test passes a sign-flipped scorer here and expects the
/// check to fail).
pub fn check_dominance(
    scenario_cfg: &ScenarioConfig,
    hybrid: &HybridConfig,
    params: &SimParams,
    replications: u64,
    policy: impl Fn() -> Option<Box<dyn PullPolicy>>,
) -> Result<(), String> {
    assert!(
        replications >= 2,
        "dominance needs at least two replications"
    );
    assert!(
        scenario_cfg.classes.len() >= 2,
        "dominance needs at least two classes"
    );
    let scenario = scenario_cfg.build();
    let lowest = scenario.classes.len() - 1;
    let mut diffs = Vec::with_capacity(replications as usize);
    for r in 0..replications {
        let params = params.with_replication(r);
        let report = Simulation {
            policy: policy(),
            ..Simulation::new(&scenario, hybrid, &params)
        }
        .run(&mut NullSink)
        .report;
        let a = report.per_class[0].pull_delay.mean;
        let c = report.per_class[lowest].pull_delay.mean;
        diffs.push(c - a); // positive = dominance respected
    }
    let n = diffs.len() as f64;
    let mean = diffs.iter().sum::<f64>() / n;
    let var = diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let half_width = 2.0 * (var / n).sqrt(); // ~95% CI half-width
    if mean + half_width < 0.0 {
        return Err(format!(
            "priority dominance violated: Class-A mean pull delay exceeds the \
             lowest class by {:.2} ± {half_width:.2} over {replications} \
             replications",
            -mean
        ));
    }
    Ok(())
}
