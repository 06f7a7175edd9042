//! `sim_sweep`: what a reader regenerating the paper's figures runs — the
//! in-process simulator over a cutoff sweep of the paper's scenario.
//!
//! Same `core::hybrid`/`queue`/`pull` code as `serve_pull`, driven by the
//! virtual clock at ~100× the operation rate, so a scheduler change that
//! helps the daemon and costs the simulator (or the reverse) shows here.

use std::time::Instant;

use hybridcast_core::config::HybridConfig;
use hybridcast_core::metrics::SimReport;
use hybridcast_core::sim_driver::{simulate, simulate_telemetry, SimParams};
use hybridcast_ops::digest::{fnv1a64, hex64};
use hybridcast_sim::time::SimTime;
use hybridcast_telemetry::TelemetryConfig;
use hybridcast_workload::classes::ClassId;
use hybridcast_workload::scenario::{Scenario, ScenarioConfig};
use serde_json::json;

use crate::kernels::Kernels;
use crate::procfs::{self, CpuSlices};
use crate::report::RunOutput;
use crate::schedule::ZIPF_THETA;
use crate::spans::Tracer;
use crate::stats::{max, median, min};
use crate::Ctx;

/// The sweep: pull-only → push-only.
pub const CUTOFFS: [usize; 6] = [0, 20, 40, 60, 80, 100];
/// Importance blend α of Eq. 1.
const ALPHA: f64 = 0.25;
/// Simulated horizon of one point, broadcast units (λ′ = 5 → 250 k
/// requests): a sweep takes ~0.4 s, so a run holds some 40 of them and
/// one disturbed second cannot move a median.
const HORIZON: f64 = 50_000.0;
/// Horizon of the set-up's first result.
const SETUP_HORIZON: f64 = 50_000.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Above this cutoff almost nothing is pulled and the classes converge.
const ORDERED_UP_TO: usize = 80;
/// Slack on `A ≤ B ≤ C`: at K = 80 the classes' mean delays lie within
/// half a percent of each other and a 250 k-request point orders them by
/// chance (seen: 150.40 / 149.64 / 152.51). An inversion beyond sampling
/// noise still fails.
const ORDER_SLACK: f64 = 0.02;

fn params(horizon: f64) -> SimParams {
    SimParams {
        horizon,
        warmup: 0.0,
        replication: 0,
    }
}

/// Events the simulator processed: arrivals plus transmissions.
fn events(r: &SimReport) -> u64 {
    let generated: u64 = r.per_class.iter().map(|c| c.generated).sum();
    generated + r.push_transmissions + r.pull_transmissions
}

fn build(seed: u64) -> Scenario {
    ScenarioConfig::icpp2005(ZIPF_THETA).with_seed(seed).build()
}

pub fn run(ctx: &Ctx) -> Result<RunOutput, String> {
    let mut tracer = Tracer::new(ctx.traced);
    let mut out = RunOutput::default();

    // Set-up: the scenario from the seed, then a first (short) result.
    // Once now, the repeats spread over the run, so the median does not
    // hang on the state the host was in during the first half second.
    let set_up = |tracer: &mut Tracer| -> Result<(f64, Scenario), String> {
        let t0 = Instant::now();
        let span = tracer.open("bench.setup", None);
        let scenario = tracer.time("workload.scenario_build", span, || build(ctx.seed));
        let first = tracer.time("core.simulate", span, || {
            simulate(
                &scenario,
                &HybridConfig::paper(40, ALPHA),
                &params(SETUP_HORIZON),
            )
        });
        tracer.close(span);
        if events(&first) == 0 {
            return Err("set-up simulation processed no events".into());
        }
        Ok((t0.elapsed().as_secs_f64(), scenario))
    };
    let (first_setup, scenario) = set_up(&mut tracer)?;
    let mut setups = vec![first_setup];

    // One untimed sweep first: a fresh process runs its first hundred
    // milliseconds slower (page faults, cold caches).
    for &k in &CUTOFFS {
        simulate(&scenario, &HybridConfig::paper(k, ALPHA), &params(HORIZON));
    }

    // Measured: whole sweeps until the time is up. Each point is timed on
    // its own; a sweep's events ÷ its wall time is one throughput sample.
    let pid = std::process::id();
    let mut cpu = CpuSlices::start().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut ms_by_k: Vec<Vec<f64>> = vec![Vec::new(); CUTOFFS.len()];
    let mut per_k_ns_per_event: Vec<Vec<f64>> = vec![Vec::new(); CUTOFFS.len()];
    let mut sweep_rates: Vec<f64> = Vec::new();
    let mut total_events = 0u64;
    let mut first_sweep: Option<(String, Vec<SimReport>)> = None;
    let mut identical = true;
    while started.elapsed().as_secs_f64() < ctx.seconds {
        if started.elapsed().as_secs_f64() >= ctx.seconds * setups.len() as f64 / SETUPS as f64 {
            setups.push(set_up(&mut tracer)?.0);
        }
        let sweep_span = tracer.open("sim.sweep", None);
        let mut reports = Vec::with_capacity(CUTOFFS.len());
        let (mut sweep_events, mut sweep_secs) = (0u64, 0.0f64);
        for (slot, &k) in CUTOFFS.iter().enumerate() {
            let hybrid = HybridConfig::paper(k, ALPHA);
            let t0 = Instant::now();
            let report = simulate(&scenario, &hybrid, &params(HORIZON));
            let t1 = Instant::now();
            tracer.record("core.simulate", sweep_span, t0, t1, k as u64);
            let secs = t1.duration_since(t0).as_secs_f64();
            let ev = events(&report);
            ms_by_k[slot].push(secs * 1e3);
            per_k_ns_per_event[slot].push(secs * 1e9 / ev.max(1) as f64);
            sweep_events += ev;
            sweep_secs += secs;
            reports.push(report);
        }
        tracer.close(sweep_span);
        sweep_rates.push(sweep_events as f64 / sweep_secs);
        total_events += sweep_events;
        cpu.add(sweep_events).map_err(|e| e.to_string())?;
        let text = serde_json::to_string(&reports).map_err(|e| e.to_string())?;
        match &first_sweep {
            None => first_sweep = Some((text, reports)),
            Some((first, _)) => identical &= *first == text,
        }
    }
    cpu.finish().map_err(|e| e.to_string())?;
    let (first_text, reports) = first_sweep.ok_or("no sweep finished")?;

    // Output checks.
    let digest = hex64(fnv1a64(first_text.as_bytes()));
    out.check(
        "sweeps_byte_identical",
        identical,
        format!("{} sweeps, report digest {digest}", sweep_rates.len()),
    );
    let mut disorder = Vec::new();
    for (&k, r) in CUTOFFS.iter().zip(&reports) {
        let d: Vec<f64> = (0..3).map(|c| r.mean_delay(ClassId(c))).collect();
        let ordered = d[0] <= d[1] * (1.0 + ORDER_SLACK) && d[1] <= d[2] * (1.0 + ORDER_SLACK);
        if k <= ORDERED_UP_TO && !ordered {
            disorder.push(format!(
                "K={k}: A/B/C = {:.2}/{:.2}/{:.2}",
                d[0], d[1], d[2]
            ));
        }
    }
    out.check(
        "delay_order_a_le_b_le_c",
        disorder.is_empty(),
        if disorder.is_empty() {
            format!("mean delay A ≤ B ≤ C (within {ORDER_SLACK}) for every K ≤ {ORDERED_UP_TO}")
        } else {
            disorder.join("; ")
        },
    );
    let points: usize = ms_by_k.iter().map(Vec::len).sum();
    out.attempted = points as u64;
    out.failed = 0;
    out.note(
        "samples",
        json!({
            "sweeps": sweep_rates.len(),
            "points": points,
            "events": total_events,
            "sim.report_digest": &digest,
            "ops_per_s_by_sweep": &sweep_rates,
            "cpu_us_per_op_by_slice": &cpu.us_per_op,
            "setup_s_each": &setups,
        }),
    );
    eprintln!("  sim.report_digest {digest}");

    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    // The work is fixed and the host only ever slows it: the best slice is
    // the least disturbed reading of both cost and rate.
    m.set("cpu_us_per_op", min(&cpu.us_per_op));
    m.set("ops_per_s", max(&sweep_rates));
    m.set_unit_latency(&ms_by_k);
    if !ctx.traced {
        return Ok(out);
    }

    // Per-layer: the sweep's own per-K cost, then each library layer fed
    // the K = 40 point's request stream.
    for (name, k) in [
        ("sim.ns_per_event_k0", 0),
        ("sim.ns_per_event_k40", 40),
        ("sim.ns_per_event_k100", 100),
    ] {
        let slot = CUTOFFS
            .iter()
            .position(|&c| c == k)
            .expect("cutoff is swept");
        m.set(name, median(&per_k_ns_per_event[slot]));
    }
    let hybrid = HybridConfig::paper(40, ALPHA);
    let requests = scenario.request_stream().take_until(SimTime::new(HORIZON));
    let mut k = Kernels {
        tracer: &mut tracer,
        scenario: &scenario,
        hybrid: &hybrid,
        requests: &requests,
    };
    let sched = k.scheduler(m);
    // Pending at any instant: the next arrival, the slot on the air, slack.
    let event_ns = k.engine(m, 3);
    let next_request_ns = k.generator(m);
    let record_served_ns = k.accounting(m);

    // The windowed recorder against the null sink, same point, interleaved.
    let (mut plain, mut windowed) = (Vec::new(), Vec::new());
    let mut observational = true;
    for _ in 0..3 {
        let t0 = Instant::now();
        let a = tracer.time("core.simulate", None, || {
            simulate(&scenario, &hybrid, &params(HORIZON))
        });
        plain.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let (b, _series) = tracer.time("core.simulate_telemetry", None, || {
            simulate_telemetry(
                &scenario,
                &hybrid,
                &params(HORIZON),
                TelemetryConfig::default(),
            )
        });
        windowed.push(t0.elapsed().as_secs_f64());
        observational &= a == b;
    }
    m.set("sim.windowed_ratio", median(&windowed) / median(&plain));

    // What the kernels account for at K = 40, per event; the rest is the
    // driver's own glue (event dispatch, waiter lists, report building).
    let k40 = &reports[CUTOFFS.iter().position(|&c| c == 40).expect("swept")];
    let generated: f64 = k40.per_class.iter().map(|c| c.generated as f64).sum();
    let tx = (k40.push_transmissions + k40.pull_transmissions) as f64;
    let attributed = generated * (next_request_ns + sched.on_request_ns + record_served_ns)
        + tx * (sched.next_tx_ns + sched.complete_tx_ns)
        + (generated + tx) * event_ns;
    let wall = m.get("sim.ns_per_event_k40").unwrap_or(0.0) * (generated + tx);
    m.set("sim.unattributed_frac", 1.0 - attributed / wall);
    m.set(
        "proc.peak_rss_mib",
        procfs::peak_rss_mib(pid).unwrap_or(0.0),
    );
    m.set("bench.spans", tracer.spans().len() as f64);
    let traced_cost = m.get("cpu_us_per_op").unwrap_or(0.0);
    m.set("bench.traced_cpu_us_per_op", traced_cost);
    out.check(
        "telemetry_is_observational",
        observational,
        "the windowed recorder leaves the report unchanged",
    );
    out.spans = tracer.spans().to_vec();
    Ok(out)
}
