//! The two daemon workloads: `hybridcastd` as a subprocess, driven over
//! loopback TCP by the benchmark's open-loop generator.
//!
//! `serve_push` makes the front end do nearly all the work per request;
//! `serve_pull` sends most requests down the scheduler's pull path. A
//! front-end change should move the first and leave the second alone, a
//! scheduler change the reverse.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use hybridcast_core::config::HybridConfig;
use hybridcast_server::{ServeConfig, ServeParams};
use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::{Catalog, ItemId};
use hybridcast_workload::classes::ClassId;
use hybridcast_workload::requests::Request;
use hybridcast_workload::scenario::ScenarioConfig;
use serde_json::{json, Value};

use crate::daemon::{self, field_u64, Daemon};
use crate::host::LATE_P99_LIMIT_MS;
use crate::kernels;
use crate::loadgen::{self, Outcome, Phases, NUM_CLASSES};
use crate::procfs::{self, CpuTicks, TaskSample};
use crate::report::RunOutput;
use crate::schedule::{poisson_schedule, Planned, Traffic, ZIPF_THETA};
use crate::spans::Tracer;
use crate::stats::{mean, median, percentile_sorted, pick_percentile_capped, sort};
use crate::Ctx;

/// Generator connections (= cores of the reference host).
pub const CONNS: usize = 2;
/// Sent before the measured window so the queue and caches reach steady
/// state; excluded from every metric.
const WARMUP_S: f64 = 3.0;
/// Sent after the window so its last requests are answered by a daemon
/// still under load, not one that just went idle.
const COOLDOWN_S: f64 = 1.0;
/// Longest wait for stragglers once sending stops (> the 5 s deadline).
const GRACE: Duration = Duration::from_secs(6);
/// Slices of the measured window (1 s each at the declared run length);
/// every timing is the median over them, CPU cost their lower quartile.
const SLICES: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Of those, before the measured run (the rest follow it).
const SETUPS_BEFORE: usize = 3;
/// Requests the set-up sends each daemon before the generator starts.
const PROBES: u64 = 1;
/// Importance blend α of Eq. 1.
const ALPHA: f64 = 0.25;
/// Wall ms per broadcast unit.
const UNIT_MILLIS: f64 = 0.2;
/// `/stats` and `/proc/<pid>/task` sampling period in the traced run (5 Hz).
const POLL_EVERY: Duration = Duration::from_millis(200);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// D = K = 100: pure push, 40 000 req/s.
    Push,
    /// D = 1000, K = 50: 73 % of requests pulled, 15 000 req/s, every 4th
    /// with a 5 s deadline.
    Pull,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Push => "serve_push",
            Kind::Pull => "serve_pull",
        }
    }

    fn cutoff(self) -> usize {
        match self {
            Kind::Push => 100,
            Kind::Pull => 50,
        }
    }

    fn traffic(self) -> Traffic {
        match self {
            Kind::Push => Traffic {
                rate_per_s: 40_000.0,
                num_items: 100,
                deadline_every: 0,
                deadline_ms: 0,
            },
            Kind::Pull => Traffic {
                rate_per_s: 15_000.0,
                num_items: 1_000,
                deadline_every: 4,
                deadline_ms: 5_000,
            },
        }
    }

    /// The daemon's config: results, trace and ops off (ops is switched on
    /// by the traced run only), bandwidth unlimited.
    fn config(self) -> ServeConfig {
        ServeConfig {
            scenario: ScenarioConfig {
                num_items: self.traffic().num_items,
                ..ScenarioConfig::icpp2005(ZIPF_THETA)
            },
            hybrid: HybridConfig::paper(self.cutoff(), ALPHA),
            serve: ServeParams {
                unit_millis: UNIT_MILLIS,
                loop_threads: 2,
                results_path: None,
                trace_path: None,
                ops_addr: None,
                ..ServeParams::default()
            },
        }
    }
}

/// One value per slice of the measured window, per timing.
#[derive(Debug, Default)]
struct PerSlice {
    cpu_us_per_op: Vec<f64>,
    ops_per_s: Vec<f64>,
    p50: Vec<f64>,
    tail: Vec<f64>,
    a_tail: Vec<f64>,
    overhead_p50: Vec<f64>,
    overhead_p99: Vec<f64>,
    p999: Vec<f64>,
}

/// The daemon's clocks at one edge of a slice.
#[derive(Debug, Clone, Default)]
struct Edge {
    cpu: CpuTicks,
    /// The scheduler's ns-precise books, where the kernel shows them.
    runtime_ns: Option<u64>,
    /// Traced run only.
    tasks: Option<TaskSample>,
}

/// One `/stats` poll (traced run).
#[derive(Debug, Clone, Copy)]
struct Poll {
    at: Instant,
    tx: u64,
    queue_items: f64,
    live: f64,
}

fn poll_stats(d: &Daemon) -> Option<Poll> {
    let stats = d.ops_get("/stats").ok()?;
    let at = Instant::now();
    let ch = stats.get("per_channel")?.as_array()?.first()?;
    Some(Poll {
        at,
        tx: ch.get("push_tx")?.as_u64()? + ch.get("pull_tx")?.as_u64()?,
        queue_items: ch.get("queue_items")?.as_f64()?,
        live: stats.get("totals")?.get("live")?.as_f64()?,
    })
}

fn start_daemon(ctx: &Ctx, kind: Kind) -> Result<Daemon, String> {
    let (config_path, log_path) = daemon::artifact_paths(&ctx.out_dir, kind.name());
    Daemon::spawn(
        &ctx.daemon_bin,
        ctx.daemon_cpu,
        kind.config(),
        ctx.traced,
        &config_path,
        &log_path,
    )
    .map_err(|e| format!("starting hybridcastd: {e}"))
}

fn stop_daemon(d: Daemon) -> Result<daemon::Stopped, String> {
    d.stop().map_err(|e| format!("stopping hybridcastd: {e}"))
}

fn stop_setup_daemon(d: Daemon) -> Result<(), String> {
    match stop_daemon(d)?.exit_code {
        Some(0) => Ok(()),
        other => Err(format!("set-up daemon exited with {other:?}")),
    }
}

/// One set-up: inputs from the seed, daemon up, first reply. The probe
/// asks for the last push item, which a fresh daemon airs at the end of
/// its first broadcast cycle: the wait is one cycle whatever instant the
/// probe lands on.
fn set_up(
    ctx: &Ctx,
    kind: Kind,
    total_s: f64,
    tracer: &mut Tracer,
) -> Result<(f64, Vec<Planned>, Daemon), String> {
    let t0 = Instant::now();
    let span = tracer.open("bench.setup", None);
    let schedule = tracer.time("schedule.poisson", span, || {
        poisson_schedule(ctx.seed, &kind.traffic(), total_s)
    });
    let daemon = tracer.time("daemon.spawn", span, || start_daemon(ctx, kind))?;
    tracer
        .time("daemon.first_reply", span, || {
            daemon.first_reply(kind.cutoff() as u32 - 1)
        })
        .map_err(|e| format!("first reply: {e}"))?;
    tracer.close(span);
    Ok((t0.elapsed().as_secs_f64(), schedule, daemon))
}

pub fn run(ctx: &Ctx, kind: Kind) -> Result<RunOutput, String> {
    let total_s = WARMUP_S + ctx.seconds + COOLDOWN_S;
    let phases = Phases {
        warmup_ns: (WARMUP_S * 1e9) as u64,
        slice_ns: (ctx.seconds * 1e9) as u64 / SLICES as u64,
        slices: SLICES,
        grace: GRACE,
    };
    let mut tracer = Tracer::new(ctx.traced);
    let mut out = RunOutput::default();

    // Set-up, several times: three before the run (the last daemon stays
    // up for it), the rest after it, so the median does not hang on the
    // state the host was in during the run's first half second.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live: Option<(Vec<Planned>, Daemon)> = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some((_, prev)) = live.take() {
            stop_setup_daemon(prev)?;
        }
        let (secs, schedule, daemon) = set_up(ctx, kind, total_s, &mut tracer)?;
        setups.push(secs);
        live = Some((schedule, daemon));
    }
    let (schedule, daemon) = live.expect("SETUPS_BEFORE >= 1");
    let pid = daemon.pid();

    // The measured run. The generator reads the daemon's CPU clocks at
    // each slice edge (once a second); in the traced run a second thread
    // also samples /stats at 5 Hz.
    let stop_polling = AtomicBool::new(false);
    let mut edges: Vec<(Instant, Edge)> = Vec::with_capacity(SLICES + 1);
    let (outcome, polls) = thread::scope(|s| {
        let poller = ctx.traced.then(|| {
            s.spawn(|| {
                let mut polls = Vec::new();
                while !stop_polling.load(Ordering::Relaxed) {
                    polls.extend(poll_stats(&daemon));
                    thread::sleep(POLL_EVERY);
                }
                polls
            })
        });
        let outcome = loadgen::run(daemon.addr, CONNS, &schedule, phases, &mut tracer, |k| {
            // Thread detail only at the window's two outer edges.
            let outer = ctx.traced && (k == 0 || k == SLICES);
            let edge = Edge {
                cpu: procfs::process_cpu(pid).unwrap_or_default(),
                runtime_ns: procfs::runtime_ns(pid),
                tasks: outer.then(|| procfs::tasks(pid).unwrap_or_default()),
            };
            edges.push((Instant::now(), edge));
        });
        stop_polling.store(true, Ordering::Relaxed);
        let polls = poller.map_or_else(Vec::new, |p| p.join().expect("poller thread"));
        (outcome, polls)
    });
    let outcome = outcome.map_err(|e| format!("load generator: {e}"))?;
    let peak_rss_mib = procfs::peak_rss_mib(pid).unwrap_or(0.0);
    let stopped = stop_daemon(daemon)?;
    for _ in SETUPS_BEFORE..SETUPS {
        let (secs, _, extra) = set_up(ctx, kind, total_s, &mut tracer)?;
        setups.push(secs);
        stop_setup_daemon(extra)?;
    }

    check_books(&mut out, &outcome, &stopped);
    if edges.len() != SLICES + 1 {
        return Err(format!("saw {} of {} slice edges", edges.len(), SLICES + 1));
    }
    let (open_at, open) = &edges[0];
    let (close_at, close) = &edges[SLICES];
    let cpu = close.cpu.since(open.cpu);
    let reqs = outcome.window_sent as f64;
    out.attempted = outcome.window_sent;
    out.failed = outcome.window_failed;

    // One value per slice for every timing; the run reports their median.
    let mut per_slice = PerSlice::default();
    let mut late_all: Vec<f64> = Vec::new();
    let mut sums = [(0.0f64, 0usize); NUM_CLASSES];
    for (k, slice) in outcome.slices.iter().enumerate() {
        let mut all: Vec<f64> = slice.rtt_ms.iter().flatten().copied().collect();
        let (mut class_a, mut overhead) = (slice.rtt_ms[0].clone(), slice.overhead_ms.clone());
        if class_a.is_empty() {
            return Err(format!(
                "slice {k} of the window has no served Class-A reply"
            ));
        }
        let (all, class_a, overhead) = (sort(&mut all), sort(&mut class_a), sort(&mut overhead));
        let secs = edges[k + 1].0.duration_since(edges[k].0).as_secs_f64();
        // A 1 s slice is ~15 ticks of `stat`: use the ns clock when there.
        let slice_cpu_us = match (edges[k].1.runtime_ns, edges[k + 1].1.runtime_ns) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e3,
            _ => edges[k + 1].1.cpu.since(edges[k].1.cpu).secs() * 1e6,
        };
        per_slice
            .cpu_us_per_op
            .push(slice_cpu_us / slice.due as f64);
        per_slice.ops_per_s.push(all.len() as f64 / secs);
        per_slice.p50.push(percentile_sorted(all, 50.0));
        per_slice.tail.push(percentile_sorted(
            all,
            pick_percentile_capped(all.len(), 99.0),
        ));
        per_slice.a_tail.push(percentile_sorted(
            class_a,
            pick_percentile_capped(class_a.len(), 99.0),
        ));
        per_slice
            .overhead_p50
            .push(percentile_sorted(overhead, 50.0));
        per_slice
            .overhead_p99
            .push(percentile_sorted(overhead, 99.0));
        per_slice.p999.push(percentile_sorted(all, 99.9));
        late_all.extend_from_slice(&slice.late_ms);
        for (sum, v) in sums.iter_mut().zip(&slice.rtt_ms) {
            sum.0 += v.iter().sum::<f64>();
            sum.1 += v.len();
        }
    }
    let late_p99 = percentile_sorted(sort(&mut late_all), 99.0);
    if late_p99 > LATE_P99_LIMIT_MS {
        out.noisy.push(format!(
            "client.late_p99_ms = {late_p99:.3} > {LATE_P99_LIMIT_MS}: the generator itself ran late"
        ));
    }
    let means: Vec<f64> = sums.iter().map(|&(s, n)| s / n.max(1) as f64).collect();
    if kind == Kind::Pull {
        out.check(
            "rtt_order_a_le_b_le_c",
            means[0] <= means[1] && means[1] <= means[2],
            format!(
                "mean RTT ms A/B/C = {:.2}/{:.2}/{:.2}",
                means[0], means[1], means[2]
            ),
        );
    }
    let served_a: usize = outcome.slices.iter().map(|s| s.rtt_ms[0].len()).sum();
    out.note(
        "samples",
        json!({
            "window_sent": outcome.window_sent,
            "served": outcome.window_sent - outcome.window_failed,
            "served_class_a": served_a,
            "slices": SLICES,
            "a_tail_percentile_per_slice": pick_percentile_capped(served_a / SLICES, 99.0),
            "mean_rtt_ms_by_class": &means,
            "late_p99_ms": late_p99,
            "setup_s_each": &setups,
            "cpu_us_per_op_whole_window": cpu.secs() * 1e6 / reqs,
            "cpu_clock": if open.runtime_ns.is_some() { "sched (ns)" } else { "stat (10 ms ticks)" },
            "cpu_us_per_op_by_slice": &per_slice.cpu_us_per_op,
            "lat_tail_ms_by_slice": &per_slice.tail,
        }),
    );

    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    // CPU cost: the host mostly inflates it (clock steps, neighbours), so
    // the quiet quartile of slices — not the minimum, which one lucky
    // second of unusually deep batching would own. Timings: the median
    // slice, which one stall cannot move.
    let mut costs = per_slice.cpu_us_per_op.clone();
    m.set("cpu_us_per_op", percentile_sorted(sort(&mut costs), 25.0));
    m.set("ops_per_s", median(&per_slice.ops_per_s));
    m.set("lat_p50_ms", median(&per_slice.p50));
    m.set("lat_tail_ms", median(&per_slice.tail));
    m.set("lat_a_tail_ms", median(&per_slice.a_tail));
    m.set("overhead_p50_ms", median(&per_slice.overhead_p50));
    if !ctx.traced {
        return Ok(out);
    }

    // Per-layer: the daemon seen from /proc, /stats and its summary …
    let config = kind.config();
    let scenario = config.scenario.build();
    let window = close_at.duration_since(*open_at).as_secs_f64();
    let m = &mut out.metrics;
    m.set("server.user_us_per_req", cpu.user_secs() * 1e6 / reqs);
    m.set("server.sys_us_per_req", cpu.sys_secs() * 1e6 / reqs);
    if let (Some(t0), Some(t1)) = (&open.tasks, &close.tasks) {
        let busiest = t1
            .cpu
            .iter()
            .filter_map(|&(tid, c1)| {
                let c0 = t0.cpu.iter().find(|&&(t, _)| t == tid)?.1;
                Some(c1.since(c0).secs() / window)
            })
            .fold(0.0, f64::max);
        m.set("server.max_thread_cpu_frac", busiest);
        let switches = t1.ctxt_switches.saturating_sub(t0.ctxt_switches) as f64;
        m.set("server.ctx_switches_per_kreq", switches * 1e3 / reqs);
    }
    let in_window: Vec<&Poll> = polls
        .iter()
        .filter(|p| p.at >= *open_at && p.at <= *close_at)
        .collect();
    if let (Some(first), Some(last)) = (in_window.first(), in_window.last()) {
        let dt = last.at.duration_since(first.at).as_secs_f64();
        if dt > 0.0 {
            let tx_per_s = (last.tx - first.tx) as f64 / dt;
            m.set("server.tx_per_s", tx_per_s);
            m.set(
                "server.pace_frac",
                tx_per_s / nominal_tx_per_s(kind, &scenario.catalog, &stopped.summary),
            );
        }
        let items: Vec<f64> = in_window.iter().map(|p| p.queue_items).collect();
        m.set("server.queue_items_mean", mean(&items));
        m.set(
            "server.live_max",
            in_window.iter().map(|p| p.live).fold(0.0, f64::max),
        );
    }
    let pull_tx = field_u64(&stopped.summary, "pull_tx")? as f64;
    let served_pull = field_u64(&stopped.summary, "served_pull")? as f64;
    m.set(
        "server.reqs_per_pull_tx",
        if pull_tx > 0.0 {
            served_pull / pull_tx
        } else {
            0.0
        },
    );
    m.set("server.peak_rss_mib", peak_rss_mib);
    m.set("server.drain_ms", stopped.drain.as_secs_f64() * 1e3);
    // … the client edge …
    m.set("client.late_p99_ms", late_p99);
    m.set("client.overhead_p99_ms", median(&per_slice.overhead_p99));
    m.set("client.rtt_p999_ms", median(&per_slice.p999));
    m.set(
        "client.replies_per_read",
        outcome.replies as f64 / outcome.reads.max(1) as f64,
    );

    // … and each library layer, fed this workload's own requests.
    let requests = as_requests(&schedule);
    let mut k = kernels::Kernels {
        tracer: &mut tracer,
        scenario: &scenario,
        hybrid: &config.hybrid,
        requests: &requests,
    };
    let front = k.front_end(&mut out.metrics);
    let sched = k.scheduler(&mut out.metrics);
    let cpu_ns_per_req = cpu.secs() * 1e9 / reqs;
    out.metrics
        .set("share.frontend_frac", front / cpu_ns_per_req);
    out.metrics.set(
        "share.scheduler_frac",
        sched.ns_per_request / cpu_ns_per_req,
    );
    out.metrics.set("bench.spans", tracer.spans().len() as f64);
    let traced_cost = out.metrics.get("cpu_us_per_op").unwrap_or(0.0);
    out.metrics.set("bench.traced_cpu_us_per_op", traced_cost);
    out.spans = tracer.spans().to_vec();
    Ok(out)
}

/// The schedule as the scheduler sees it: arrival stamps in broadcast units.
fn as_requests(schedule: &[Planned]) -> Vec<Request> {
    schedule
        .iter()
        .map(|p| Request {
            arrival: SimTime::new(p.due_ns as f64 / 1e6 / UNIT_MILLIS),
            item: ItemId(p.item),
            class: ClassId(p.class),
        })
        .collect()
}

/// Transmissions per second of a daemon that keeps the schedule's pace: a
/// length-`L` item occupies the downlink for `L × unit_millis` ms. Exact
/// for the flat push cycle; pull slots are priced at the pull items' plain
/// mean length (which items are pulled depends on demand).
fn nominal_tx_per_s(kind: Kind, catalog: &Catalog, summary: &Value) -> f64 {
    let mean_len = |range: std::ops::Range<usize>| {
        let n = range.len().max(1) as f64;
        range
            .map(|i| catalog.length(ItemId(i as u32)) as f64)
            .sum::<f64>()
            / n
    };
    let push_tx = field_u64(summary, "push_tx").unwrap_or(0) as f64;
    let pull_tx = field_u64(summary, "pull_tx").unwrap_or(0) as f64;
    let k = kind.cutoff();
    let mean_len = (push_tx * mean_len(0..k) + pull_tx * mean_len(k..catalog.len()))
        / (push_tx + pull_tx).max(1.0);
    1e3 / (mean_len * UNIT_MILLIS)
}

/// Every request answered exactly once with `seq` and `item` echoed; the
/// client's tallies equal the daemon's books; the daemon conserves and
/// exits 0.
fn check_books(out: &mut RunOutput, o: &Outcome, stopped: &daemon::Stopped) {
    out.check(
        "every_request_answered_once",
        o.answered == o.sent && o.echo_errors == 0,
        format!(
            "sent {} answered {} echo errors {}",
            o.sent, o.answered, o.echo_errors
        ),
    );
    out.check(
        "daemon_exit_code_0",
        stopped.exit_code == Some(0),
        format!("exit code {:?}", stopped.exit_code),
    );
    let s = &stopped.summary;
    let get = |k: &str| field_u64(s, k).unwrap_or(u64::MAX);
    let (accepted, served_push, served_pull) =
        (get("accepted"), get("served_push"), get("served_pull"));
    let (shed, timed_out, uplink_lost) = (get("shed"), get("timed_out"), get("uplink_lost"));
    out.check(
        "daemon_conservation",
        s.get("conservation_ok").and_then(Value::as_bool) == Some(true)
            && served_push
                .checked_add(served_pull)
                .and_then(|x| x.checked_add(shed))
                .and_then(|x| x.checked_add(timed_out))
                .and_then(|x| x.checked_add(uplink_lost))
                == Some(accepted),
        format!(
            "accepted {accepted} = push {served_push} + pull {served_pull} + shed {shed} + \
             timed_out {timed_out} + uplink_lost {uplink_lost}"
        ),
    );
    // Client tallies against the daemon's per-class books. The set-up
    // probe (class A, a push item) is the daemon's but not the generator's.
    let mut mismatches = Vec::new();
    let per_class = s.get("per_class").and_then(Value::as_array);
    for class in 0..NUM_CLASSES {
        let theirs = per_class.and_then(|p| p.get(class));
        for (status, key) in [
            "served_push",
            "served_pull",
            "shed",
            "timed_out",
            "uplink_lost",
        ]
        .iter()
        .enumerate()
        {
            let mut mine = o.by_class_status[class][status];
            if class == 0 && status == 0 {
                mine += PROBES;
            }
            let daemon_says = theirs.and_then(|c| c.get(key)).and_then(Value::as_u64);
            if daemon_says != Some(mine) {
                mismatches.push(format!(
                    "class {class} {key}: client {mine} daemon {daemon_says:?}"
                ));
            }
        }
    }
    out.check(
        "client_tallies_equal_daemon_books",
        mismatches.is_empty() && accepted == o.sent + PROBES,
        if mismatches.is_empty() {
            format!(
                "accepted {accepted}, client sent {} + {PROBES} probe",
                o.sent
            )
        } else {
            mismatches.join("; ")
        },
    );
}
