//! `hcbench` — the repo benchmark's driver. `run.sh` builds `hybridcastd`
//! and this binary, then hands over its arguments.
//!
//! Two modes:
//!
//! * **one workload** (`--workload NAME --seed N --seconds S --trace 0|1`):
//!   the contract the regression driver speaks. The last stdout line is
//!   one JSON object `{correct, attempted, failed, metrics}` — end-to-end
//!   metrics untraced, per-layer metrics traced.
//! * **the suite** (no `--workload`): every workload in turn, every metric
//!   printed by name with its unit, `--traced` adding the per-layer run,
//!   `--repeat N` comparing repeats on one seed against the bounds in
//!   `BENCHMARK.json` (`--seeds N` the same over N consecutive seeds, the
//!   acceptance procedure), `--smoke` a 2 s pass with checks on, bounds off.

mod daemon;
mod host;
mod kernels;
mod loadgen;
mod procfs;
mod report;
mod schedule;
mod serve;
mod sim_sweep;
mod spans;
mod stats;
mod trace_whatif;

use std::fs;
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use serde_json::{json, Value};

use host::Fingerprint;
use report::{RunOutput, END_TO_END, WORKLOADS};

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--traced] [--smoke] [--repeat N | --seeds N]
  workloads: serve_push serve_pull sim_sweep trace_whatif
  with --workload: one run; the last stdout line is the result JSON
  without: the whole suite (--traced adds per-layer runs; --repeat N runs it
  N times on one seed, --seeds N on N consecutive seeds, and checks each
  metric's spread against its BENCHMARK.json bound; --smoke runs 2 s each)";

/// Seconds per workload in `--smoke` mode.
const SMOKE_SECONDS: f64 = 2.0;

/// What every workload needs to know about this invocation.
pub struct Ctx {
    /// The built `hybridcastd`.
    pub daemon_bin: PathBuf,
    /// The core the daemon is confined to (the benchmark sits on another).
    pub daemon_cpu: Option<usize>,
    /// `benchmark/out/`: configs, logs, traces, result files.
    pub out_dir: PathBuf,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
}

struct Args {
    root: PathBuf,
    daemon_bin: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    /// Suite passes to make.
    repeat: usize,
    /// Whether each pass takes the next seed (`--seeds`) or the same one.
    vary_seed: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        daemon_bin: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
        repeat: 1,
        vary_seed: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--root" => args.root = value("a directory")?.into(),
            "--daemon" => args.daemon_bin = value("a path")?.into(),
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--repeat" | "--seeds" => {
                args.vary_seed = flag == "--seeds";
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("{flag}: {e}"))?;
                if args.repeat == 0 {
                    return Err(format!("{flag} must be at least 1"));
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    if !args.daemon_bin.is_file() {
        return Err(format!(
            "--daemon {:?} is not a file (run through run.sh)",
            args.daemon_bin
        ));
    }
    Ok(args)
}

/// Gives the daemon and the benchmark a core each: the daemon the first
/// allowed CPU, this process (the generator, or the offline workload
/// itself) the last — the first also fields the VM's device interrupts,
/// and a late generator corrupts every latency while a disturbed daemon
/// only costs it CPU. Unpinned, the kernel's placement of four busy
/// threads on two cores made CPU per request bimodal between otherwise
/// identical runs.
///
/// This process re-executes itself under `taskset` and tells its successor
/// through [`host::PIN_ENV`]. With one CPU, or without `taskset`, nothing
/// is pinned and the output files say so.
fn pin(workload: &str) -> (Option<usize>, String) {
    if let Ok(plan) = std::env::var(host::PIN_ENV) {
        return match plan.parse::<usize>() {
            Ok(daemon) if workload.starts_with("serve_") => (
                Some(daemon),
                format!("hybridcastd on cpu {daemon}, generator on the last cpu (taskset)"),
            ),
            Ok(_) => (None, "benchmark process on the last cpu (taskset)".into()),
            Err(_) => (
                None,
                format!("unpinned: {}={plan:?} is not a cpu", host::PIN_ENV),
            ),
        };
    }
    let cpus = host::allowed_cpus();
    let (Some(&first), Some(&last)) = (cpus.first(), cpus.last()) else {
        return (None, "unpinned: allowed CPUs unreadable".into());
    };
    if first == last {
        return (None, "unpinned: one CPU only".into());
    }
    let Ok(exe) = std::env::current_exe() else {
        return (None, "unpinned: own executable path unreadable".into());
    };
    // `exec` only returns on failure (no taskset): carry on unpinned and
    // say so.
    let err = Command::new("taskset")
        .arg("-c")
        .arg(last.to_string())
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(host::PIN_ENV, first.to_string())
        .exec();
    (None, format!("unpinned: taskset failed to start ({err})"))
}

fn run_workload(ctx: &Ctx, name: &str, host: &Fingerprint) -> Result<RunOutput, String> {
    let mut out = match name {
        "serve_push" => serve::run(ctx, serve::Kind::Push),
        "serve_pull" => serve::run(ctx, serve::Kind::Pull),
        "sim_sweep" => sim_sweep::run(ctx),
        "trace_whatif" => trace_whatif::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    out.noisy.extend(host.noise_reasons());
    report::print_human(name, ctx.traced, &out);
    let stem = if ctx.traced { "trace" } else { "result" };
    report::write_file(&ctx.out_dir, stem, name, ctx.seed, ctx.seconds, host, &out)
        .map_err(|e| format!("writing the result file: {e}"))?;
    Ok(out)
}

/// The `BENCHMARK.json` at the repo root.
fn load_spec(args: &Args) -> Result<Value, String> {
    let path = args.root.join("BENCHMARK.json");
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, bound)` per end-to-end metric.
fn bounds(spec: &Value) -> Result<Vec<(String, f64)>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// One workload in a process of its own, exactly as the regression driver
/// runs it (fresh allocator, fresh peak RSS, its own pinning). Returns the
/// child's result line — the contract's `{correct, attempted, failed,
/// metrics}` — and whether the run was marked noisy.
fn run_child(
    args: &Args,
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .arg("--root")
        .arg(&args.root)
        .arg("--daemon")
        .arg(&args.daemon_bin)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {name} run: {e}"))?;
    // 0 = correct, 1 = an output check failed (the line says so too).
    if !matches!(out.status.code(), Some(0 | 1)) {
        return Err(format!("the {name} run ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {name} run printed no result"))?;
    let result = serde_json::from_str(line).map_err(|e| format!("{name} result line: {e}"))?;
    // The trace file is megabytes of spans and the vendored JSON parser is
    // quadratic in its input: only the small untraced file is read back.
    let noisy = !traced && {
        let path = args.root.join(format!("benchmark/out/result_{name}.json"));
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        file.get("noisy")
            .and_then(Value::as_array)
            .is_some_and(|n| !n.is_empty())
    };
    Ok((result, noisy))
}

fn metric_of(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Length of the measured window: `--seconds`, else 2 s under `--smoke`,
/// else the declared `run_seconds`.
fn window_seconds(args: &Args, spec: &Value) -> Result<f64, String> {
    match (args.seconds, args.smoke) {
        (Some(s), _) => Ok(s),
        (None, true) => Ok(SMOKE_SECONDS),
        (None, false) => spec
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string()),
    }
}

fn suite(args: &Args, spec: &Value, host: &Fingerprint) -> Result<bool, String> {
    let seconds = window_seconds(args, spec)?;
    let out_dir = args.root.join("benchmark/out");
    let mut ok = true;
    // values[workload][metric] = one value per pass
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut noisy = false;
    for rep in 0..args.repeat {
        let seed = args.seed + if args.vary_seed { rep as u64 } else { 0 };
        if args.repeat > 1 {
            eprintln!(
                "#### pass {} of {} (seed {seed}) ####",
                rep + 1,
                args.repeat
            );
        }
        for (w, name) in WORKLOADS.iter().enumerate() {
            let (plain, run_noisy) = run_child(args, name, seed, seconds, false)?;
            ok &= plain.get("correct").and_then(Value::as_bool) == Some(true)
                && plain.get("failed").and_then(Value::as_u64) == Some(0);
            noisy |= run_noisy;
            for (slot, (metric, _)) in END_TO_END.iter().enumerate() {
                values[w][slot].push(metric_of(&plain, metric).unwrap_or(f64::NAN));
            }
            if args.traced {
                let (traced, _) = run_child(args, name, seed, seconds, true)?;
                ok &= traced.get("correct").and_then(Value::as_bool) == Some(true);
                let (a, b) = (
                    metric_of(&plain, "cpu_us_per_op"),
                    metric_of(&traced, "bench.traced_cpu_us_per_op"),
                );
                if let (Some(a), Some(b)) = (a, b) {
                    eprintln!(
                        "  {:<32} {:>16.4} ratio  (cpu_us_per_op, traced vs untraced)",
                        "trace_overhead_frac",
                        (b - a) / a
                    );
                }
            }
        }
    }
    if args.repeat < 2 {
        return Ok(ok);
    }

    // How far apart did the passes land, against each metric's bound? With
    // four or more: quartile distance over median, as the acceptance
    // procedure computes it; with fewer, the full range over the median.
    let bounds = bounds(spec)?;
    let mut rows = Vec::new();
    let what = if args.vary_seed {
        "seeds"
    } else {
        "repeats on one seed"
    };
    eprintln!(
        "== spread over {} {what}, from seed {} ==",
        args.repeat, args.seed
    );
    eprintln!(
        "  {:<14} {:<18} {:>14} {:>10} {:>8}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for (w, name) in WORKLOADS.iter().enumerate() {
        for (slot, (metric, _)) in END_TO_END.iter().enumerate() {
            let v = &values[w][slot];
            let spread = if v.len() >= 4 {
                stats::iqr_spread(v)
            } else {
                let (lo, hi) = v
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                        (lo.min(x), hi.max(x))
                    });
                (hi - lo) / stats::median(v)
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric)
                .map(|&(_, b)| b)
                .ok_or_else(|| format!("BENCHMARK.json lacks a bound for {metric}"))?;
            // setup_s is held to its bound on the median only, not on spread.
            let within = spread <= bound || *metric == "setup_s";
            if !within && !args.smoke {
                ok = false;
            }
            let verdict = match (within, spread <= bound / 3.0) {
                (false, _) => "DISAGREE",
                (true, true) => "ok",
                (true, false) => "ok (above a third of the bound)",
            };
            eprintln!(
                "  {name:<14} {metric:<18} {:>14.4} {:>9.2}% {:>7.0}%  {verdict}",
                stats::median(v),
                spread * 100.0,
                bound * 100.0,
            );
            rows.push(json!({
                "workload": *name, "metric": *metric, "values": v, "median": stats::median(v),
                "spread": spread, "bound": bound, "within": within,
            }));
        }
    }
    let body = json!({
        "host": host, "first_seed": args.seed, "passes": args.repeat, "seeds_vary": args.vary_seed,
        "seconds": seconds, "noisy": noisy, "spreads": rows,
    });
    let path = out_dir.join("repeat.json");
    fs::write(
        &path,
        serde_json::to_string_pretty(&body).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("  spreads written to {}", path.display());
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    // The suite's own process only waits for its children; they pin.
    let (daemon_cpu, pinning) = match &args.workload {
        Some(name) => pin(name),
        None => (None, "each run pins itself".into()),
    };
    let host = Fingerprint::collect(&args.root, pinning);
    for reason in host.noise_reasons() {
        eprintln!("!!! NOISY HOST: {reason}");
    }
    let spec = load_spec(&args)?;
    let Some(name) = &args.workload else {
        return suite(&args, &spec, &host);
    };
    let ctx = Ctx {
        daemon_bin: args.daemon_bin.clone(),
        daemon_cpu,
        out_dir: args.root.join("benchmark/out"),
        seed: args.seed,
        seconds: window_seconds(&args, &spec)?,
        traced: args.traced,
    };
    fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("{}: {e}", ctx.out_dir.display()))?;
    let out = run_workload(&ctx, name, &host)?;
    println!("{}", report::contract_line(&out, ctx.traced)?);
    Ok(out.correct())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hcbench: an output check failed or a repeat disagreed beyond its bound");
            ExitCode::FAILURE
        }
        Err(msg) if msg.is_empty() => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(msg) => {
            eprintln!("hcbench: {msg}");
            ExitCode::from(2)
        }
    }
}
