//! `trace_whatif`: the `ops` layer — HCT1 codec, `MiniCore` virtual-time
//! replay, and the simulator under `ReplaySource` with the sharded C = 2
//! scheduler and KSY pricing. Code no other workload reaches; sockets and
//! the RNG-driven request generator are bypassed entirely.

use std::fs;
use std::path::Path;
use std::time::Instant;

use hybridcast_core::config::{AssignmentStrategy, HybridConfig};
use hybridcast_ops::replay::{replay_daemon, replay_requests};
use hybridcast_ops::trace::{Trace, TraceBuffer, TraceMeta, TraceSink, VERSION};
use hybridcast_ops::whatif::{evaluate_point, PointReport, WhatIfGrid};
use hybridcast_workload::scenario::{Scenario, ScenarioConfig};
use serde_json::json;

use crate::kernels::Kernels;
use crate::procfs::{self, CpuSlices};
use crate::report::RunOutput;
use crate::schedule::{trace_records, TRACE_ITEMS, ZIPF_THETA};
use crate::spans::Tracer;
use crate::stats::{mean, median, min};
use crate::Ctx;

/// Records in the generated trace (≈ 40 k broadcast units at λ′ = 5).
/// Sized so one replay + one 24-point grid is a ~1.6 s round: a run holds
/// some ten of them and one disturbed second cannot move a median.
pub const RECORDS: usize = 200_000;
/// Importance blend α of Eq. 1.
const ALPHA: f64 = 0.25;
/// The recording's `unit_millis`: deadlines in ms are deadlines in units.
const UNIT_MILLIS: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// `replay_daemon` passes per round; they must all agree.
const REPLAYS_PER_ROUND: usize = 3;

fn grid() -> WhatIfGrid {
    WhatIfGrid {
        cutoffs: vec![10, 20, 30, 40, 60, 80],
        channels: vec![1, 2],
        assignments: vec![AssignmentStrategy::Range, AssignmentStrategy::PatternAware],
        bandwidths: Vec::new(),
        controller: Vec::new(),
    }
}

fn meta() -> TraceMeta {
    TraceMeta {
        version: VERSION,
        config_hash: 0xbe7c_4a11,
        channels: 1,
        plan_digest: 0,
        unit_millis: UNIT_MILLIS,
        num_items: TRACE_ITEMS as u32,
        num_classes: 3,
        default_deadline_ms: 0,
    }
}

/// Generates the record stream from the seed, writes it through the
/// daemon's own `TraceSink`/`TraceBuffer` path and reads it back.
/// Returns the trace and the ns per record the write took.
fn make_trace(seed: u64, path: &Path, tracer: &mut Tracer) -> Result<(Trace, f64), String> {
    let span = tracer.open("bench.setup", None);
    let records = tracer.time("schedule.trace_records", span, || {
        trace_records(seed, RECORDS)
    });
    let t0 = Instant::now();
    let sink = TraceSink::create(path, &meta()).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut buffer = TraceBuffer::new(sink);
    for rec in &records {
        buffer.push(rec);
    }
    buffer.finish();
    let t1 = Instant::now();
    tracer.record("ops.trace_write", span, t0, t1, 0);
    if buffer.failed() {
        return Err(format!("{}: trace sink write failed", path.display()));
    }
    let trace = tracer
        .time("ops.trace_read", span, || Trace::read(path))
        .map_err(|e| e.to_string())?;
    tracer.close(span);
    if trace.records != records {
        return Err("trace read back differs from what was written".into());
    }
    Ok((
        trace,
        t1.duration_since(t0).as_nanos() as f64 / RECORDS as f64,
    ))
}

fn scenario_for(seed: u64) -> Scenario {
    ScenarioConfig::icpp2005(ZIPF_THETA).with_seed(seed).build()
}

fn to_json<T: serde::Serialize>(v: &T) -> Result<String, String> {
    serde_json::to_string(v).map_err(|e| e.to_string())
}

pub fn run(ctx: &Ctx) -> Result<RunOutput, String> {
    let mut tracer = Tracer::new(ctx.traced);
    let mut out = RunOutput::default();
    let path = ctx.out_dir.join("trace_whatif.hct");
    let scenario = scenario_for(ctx.seed);
    let base = HybridConfig::paper(40, ALPHA);

    // Set-up once now, the repeats spread over the run, so the median does
    // not hang on the state the host was in during the first half second.
    let t0 = Instant::now();
    let (trace, encode_ns) = make_trace(ctx.seed, &path, &mut tracer)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];

    // One untimed replay first: a fresh process runs its first hundred
    // milliseconds slower (page faults, cold caches).
    replay_daemon(&scenario, &base, UNIT_MILLIS, &trace);

    // Measured: rounds of one daemon-discipline replay plus the whole
    // what-if grid, point by point, until the time is up.
    let specs = grid().points();
    let pid = std::process::id();
    let mut cpu = CpuSlices::start().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut replay_secs: Vec<f64> = Vec::new();
    let mut ms_by_spec: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut point_ms_by_channels: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut first_books: Option<String> = None;
    let mut first_points: Option<(Vec<String>, Vec<PointReport>)> = None;
    let (mut replays_equal, mut points_equal, mut books_ok) = (true, true, true);
    while started.elapsed().as_secs_f64() < ctx.seconds || replay_secs.is_empty() {
        if started.elapsed().as_secs_f64() >= ctx.seconds * setups.len() as f64 / SETUPS as f64 {
            let t0 = Instant::now();
            make_trace(ctx.seed, &path, &mut tracer)?;
            setups.push(t0.elapsed().as_secs_f64());
        }
        let round = tracer.open("whatif.round", None);
        // Back to back, so the later ones run on caches the replay itself
        // warmed rather than on what the grid left behind.
        for _ in 0..REPLAYS_PER_ROUND {
            let t0 = Instant::now();
            let books = replay_daemon(&scenario, &base, UNIT_MILLIS, &trace);
            let t1 = Instant::now();
            tracer.record("ops.replay_daemon", round, t0, t1, 0);
            replay_secs.push(t1.duration_since(t0).as_secs_f64());
            books_ok &= books.conservation_ok
                && books.records == RECORDS as u64
                && books.records == books.accepted;
            let text = to_json(&books)?;
            match &first_books {
                None => first_books = Some(text),
                Some(first) => replays_equal &= *first == text,
            }
        }

        let mut texts = Vec::with_capacity(specs.len());
        let mut reports = Vec::with_capacity(specs.len());
        for (slot, spec) in specs.iter().enumerate() {
            let t0 = Instant::now();
            let point = evaluate_point(&scenario, &base, &trace, spec)?;
            let t1 = Instant::now();
            tracer.record("ops.evaluate_point", round, t0, t1, point.channels as u64);
            let ms = t1.duration_since(t0).as_secs_f64() * 1e3;
            ms_by_spec[slot].push(ms);
            point_ms_by_channels[(point.channels as usize - 1).min(1)].push(ms);
            texts.push(to_json(&point)?);
            reports.push(point);
        }
        tracer.close(round);
        cpu.add(((REPLAYS_PER_ROUND + specs.len()) * RECORDS) as u64)
            .map_err(|e| e.to_string())?;
        match &first_points {
            None => first_points = Some((texts, reports)),
            Some((first, _)) => points_equal &= *first == texts,
        }
    }
    cpu.finish().map_err(|e| e.to_string())?;
    let (point_texts, points) = first_points.expect("at least one round ran");
    let evaluations: usize = ms_by_spec.iter().map(Vec::len).sum();

    // The recommendation as `run_whatif` ranks it (lowest backlog-aware
    // cost, grid order breaking ties), re-evaluated standalone.
    let winner = (0..points.len())
        .min_by(|&a, &b| points[a].cost.total_cmp(&points[b].cost).then(a.cmp(&b)))
        .expect("non-empty grid");
    let again = to_json(&evaluate_point(
        &scenario,
        &base,
        &trace,
        &points[winner].spec,
    )?)?;

    out.check(
        "replay_daemon_repeats_string_equal",
        replays_equal,
        format!("{} replays", replay_secs.len()),
    );
    out.check(
        "replay_books_conserve_and_cover_the_trace",
        books_ok,
        format!("records == accepted == {RECORDS}, conservation_ok"),
    );
    out.check(
        "whatif_points_repeat_bit_for_bit",
        points_equal,
        format!("{evaluations} evaluations of {} points", specs.len()),
    );
    out.check(
        "recommendation_reevaluates_bit_for_bit",
        again == point_texts[winner],
        format!(
            "recommendation {} cost {}",
            points[winner].label, points[winner].cost
        ),
    );
    out.attempted = (replay_secs.len() + evaluations) as u64;
    out.failed = 0;
    out.note(
        "samples",
        json!({
            "records": RECORDS,
            "replays": replay_secs.len(),
            "points": evaluations,
            "recommendation": &points[winner].label,
            "replay_secs_by_round": &replay_secs,
            "cpu_us_per_op_by_slice": &cpu.us_per_op,
            "setup_s_each": &setups,
        }),
    );

    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    // The work is fixed and the host only ever slows it: the best slice is
    // the least disturbed reading of both cost and rate.
    m.set("cpu_us_per_op", min(&cpu.us_per_op));
    m.set("ops_per_s", RECORDS as f64 / min(&replay_secs));
    let c1_ms = mean(&point_ms_by_channels[0]);
    let c2_ms = mean(&point_ms_by_channels[1]);
    m.set_unit_latency(&ms_by_spec);
    if !ctx.traced {
        return Ok(out);
    }

    m.set(
        "replay.ns_per_record",
        min(&replay_secs) * 1e9 / RECORDS as f64,
    );
    m.set("whatif.ms_per_point_c1", c1_ms);
    m.set("whatif.ms_per_point_c2", c2_ms);
    m.set("trace.encode_ns", encode_ns);
    let bytes = fs::read(&path).map_err(|e| e.to_string())?;
    m.set(
        "trace.bytes_per_record",
        bytes.len() as f64 / RECORDS as f64,
    );
    let t0 = Instant::now();
    let parsed = tracer.time("ops.trace_parse", None, || Trace::parse(&bytes));
    m.set(
        "trace.parse_ns",
        t0.elapsed().as_nanos() as f64 / RECORDS as f64,
    );
    if parsed.map_err(|e| e.to_string())? != trace {
        return Err("Trace::parse disagrees with Trace::read".into());
    }
    let t0 = Instant::now();
    let requests = tracer.time("ops.replay_requests", None, || {
        replay_requests(&scenario, &trace)
    });
    m.set(
        "replay.requests_map_ns",
        t0.elapsed().as_nanos() as f64 / RECORDS as f64,
    );

    let mut k = Kernels {
        tracer: &mut tracer,
        scenario: &scenario,
        hybrid: &base,
        requests: &requests,
    };
    k.scheduler(m);
    // Next arrival plus one slot per channel at C = 2, and slack.
    k.engine(m, 4);
    k.accounting(m);
    m.set(
        "proc.peak_rss_mib",
        procfs::peak_rss_mib(pid).unwrap_or(0.0),
    );
    m.set("bench.spans", tracer.spans().len() as f64);
    let traced_cost = m.get("cpu_us_per_op").unwrap_or(0.0);
    m.set("bench.traced_cpu_us_per_op", traced_cost);
    out.spans = tracer.spans().to_vec();
    Ok(out)
}
