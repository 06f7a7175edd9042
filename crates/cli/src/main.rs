//! `hybridcast` — the command-line front end. See the library docs for the
//! subcommand overview.

use std::io::Read as _;
use std::process::ExitCode;

use hybridcast_cli::{
    export_aggregated_series, export_fuzz_failure, export_series, run_adaptive, run_churn,
    run_fuzz, run_model, run_optimize, run_optimize_telemetry, run_replay, run_replications,
    run_replications_telemetry, run_simulate, run_simulate_telemetry, summarize,
    summarize_replicated, ExperimentConfig,
};
use hybridcast_telemetry::DEFAULT_WINDOW;

const USAGE: &str = "\
hybridcast — hybrid push/pull broadcast scheduling (ICPP 2005 reproduction)

USAGE:
    hybridcast init-config                write a starter config (paper defaults) to stdout
    hybridcast simulate  <config.json>    one static run → JSON report on stdout
    hybridcast adaptive  <config.json>    run with periodic cutoff re-optimization
    hybridcast optimize  <config.json>    simulation-backed cutoff grid search
    hybridcast model     <config.json>    analytic per-class delays (no simulation)
    hybridcast churn     <config.json>    run with the finite-population churn model
    hybridcast summary   <config.json>    static run, human-readable table
    hybridcast dashboard <config.json>    telemetry run → JSONL on stdout +
                                          results/dashboard.{jsonl,svg}
    hybridcast fuzz [--count N] [--seed S] [--budget-secs T]
                                          seeded scenario fuzzing under the
                                          invariant oracles; a failure is
                                          minimized and written to
                                          results/fuzz-failure.json
    hybridcast fuzz --replay <dir|file>   replay corpus case(s) under the
                                          same oracles
    hybridcast serve [OPTIONS]            run the wall-clock TCP daemon until
                                          SIGTERM/SIGINT, then drain and print
                                          the run summary as JSON (the
                                          `hybridcastd` command line; `--help`
                                          lists the options)
    hybridcast replay --trace <path> [--config <serve.json>]
                      [--mode daemon|sim] [--allow-mismatch]
                                          re-drive the scheduler from a
                                          recorded trace in virtual time
                                          (deterministic: same trace, same
                                          books) and print the books as JSON;
                                          a structural trace/config mismatch
                                          (catalog, classes, channels,
                                          unit_millis) is a hard error unless
                                          --allow-mismatch is passed (items
                                          then fold in via modulo, classes
                                          clamp to the last class)
    hybridcast whatif --trace <path> [--config <serve.json>]
                      [--cutoffs K1,K2,..] [--channels C1,C2,..]
                      [--assignments range,hash,pattern_aware]
                      [--bandwidths B1,B2,..] [--controller]
                      [--allow-mismatch]
                                          replay the trace under every grid
                                          combination, rank by whole-run
                                          backlog-aware cost with KSY pricing,
                                          print the side-by-side table and
                                          write results/WHATIF_<hash>.json;
                                          --controller adds an adaptive-cutoff
                                          leg per point (C = 1 only)
    hybridcast stats [--addr <host:port>] [--path /stats]
                                          GET a running daemon's ops endpoint
                                          and print the JSON body
    hybridcast loadgen [OPTIONS]          open-loop Poisson/Zipf traffic against
                                          a running daemon; prints per-class
                                          RTT quantiles as JSON (the `loadgen`
                                          command line; `--help` lists the
                                          options)

OPTIONS:
    --adaptive            retune the cutoff online from windowed telemetry
                          (hysteresis-banded controller with SLO guards;
                          arms a default controller when the config has no
                          `adaptive` block) and report the retune ledger
                          alongside the books (simulate)
    --replications <N>    run N independent replications in parallel and
                          report means with 95% confidence intervals
                          (simulate, summary, optimize)
    --telemetry [W]       record a windowed QoS time series (window width W
                          sim-time units, default 500) and export JSONL + an
                          SVG dashboard under results/ (simulate, optimize)
    --channels <C>        partition the catalog across C broadcast channels
                          (sharded multi-channel scheduler, pattern-aware
                          item→channel assignment); C = 1 is bit-identical
                          to the single-channel scheduler (simulate,
                          summary, optimize, serve)

Use `-` as the config path to read from stdin.
";

/// Pretty-prints a report as JSON on stdout.
fn print_json<T: serde::Serialize>(value: &T) {
    println!(
        "{}",
        serde_json::to_string_pretty(value).expect("reports serialize")
    );
}

fn load_config(path: &str) -> Result<ExperimentConfig, String> {
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    ExperimentConfig::from_json(&text)
}

/// Strips `--replications N` from the argument list, returning its value.
fn take_replications(args: &mut Vec<String>) -> Result<Option<u64>, String> {
    let Some(i) = args.iter().position(|a| a == "--replications") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err("--replications needs a value".to_string());
    }
    let value: u64 = args[i + 1]
        .parse()
        .map_err(|_| format!("invalid replication count `{}`", args[i + 1]))?;
    if value == 0 {
        return Err("--replications must be at least 1".to_string());
    }
    args.drain(i..=i + 1);
    Ok(Some(value))
}

/// Strips `--telemetry [W]` from the argument list. The window width is
/// optional: when the next argument does not parse as a number the flag
/// stands alone and the default window applies.
fn take_telemetry(args: &mut Vec<String>) -> Result<Option<f64>, String> {
    let Some(i) = args.iter().position(|a| a == "--telemetry") else {
        return Ok(None);
    };
    if let Some(value) = args.get(i + 1).and_then(|a| a.parse::<f64>().ok()) {
        if !(value.is_finite() && value > 0.0) {
            return Err(format!("telemetry window must be positive, got `{value}`"));
        }
        args.drain(i..=i + 1);
        Ok(Some(value))
    } else {
        args.remove(i);
        Ok(Some(DEFAULT_WINDOW))
    }
}

/// Strips `--channels C` from the argument list, returning the sharded
/// layout it selects.
fn take_channels(
    args: &mut Vec<String>,
) -> Result<Option<hybridcast_core::config::ChannelLayout>, String> {
    let Some(channels) = take_value::<u32>(args, "--channels")? else {
        return Ok(None);
    };
    if channels == 0 || channels > 256 {
        return Err(format!("--channels must be in 1..=256, got {channels}"));
    }
    Ok(Some(hybridcast_core::config::ChannelLayout::Sharded {
        channels,
        assignment: hybridcast_core::config::AssignmentStrategy::PatternAware,
    }))
}

/// Strips the bare `--adaptive` flag: route `simulate` through the
/// online cutoff controller instead of a fixed `K`.
fn take_adaptive(args: &mut Vec<String>) -> bool {
    take_flag(args, "--adaptive")
}

/// Strips a bare boolean flag, returning whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Pulls `--flag v1,v2,..` out of `args`, parsing each comma-separated
/// element as `T`. Absent flag → empty list (inherit the base value).
fn take_list<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Result<Vec<T>, String> {
    let Some(raw) = take_value::<String>(args, flag)? else {
        return Ok(Vec::new());
    };
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| format!("invalid {flag} element `{s}`"))
        })
        .collect()
}

/// Pulls `--flag <value>` out of `args`, parsing the value as `T`.
fn take_value<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args[i + 1]
        .parse()
        .map_err(|_| format!("invalid {flag} value `{}`", args[i + 1]))?;
    args.drain(i..=i + 1);
    Ok(Some(value))
}

/// The `fuzz` subcommand: seeded campaigns and corpus replay.
fn run_fuzz_cmd(mut args: Vec<String>) -> Result<(), String> {
    if let Some(path) = take_value::<String>(&mut args, "--replay")? {
        if !args.is_empty() {
            return Err(format!("unexpected arguments: {args:?}"));
        }
        let verdicts = run_replay(std::path::Path::new(&path))?;
        let mut failed = 0;
        for (name, outcome) in &verdicts {
            if outcome.passed() {
                eprintln!("{name}: ok");
            } else {
                failed += 1;
                eprintln!("{name}: FAILED");
                println!("{}", outcome.to_json());
            }
        }
        if failed > 0 {
            return Err(format!("{failed}/{} corpus case(s) failed", verdicts.len()));
        }
        eprintln!("{} corpus case(s) replayed clean", verdicts.len());
        return Ok(());
    }
    let count = take_value::<u64>(&mut args, "--count")?.unwrap_or(200);
    let seed = take_value::<u64>(&mut args, "--seed")?.unwrap_or(0);
    let budget = take_value::<f64>(&mut args, "--budget-secs")?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    if let Some(b) = budget {
        if !(b.is_finite() && b > 0.0) {
            return Err(format!("--budget-secs must be positive, got `{b}`"));
        }
    }
    let report = run_fuzz(seed, count, budget);
    match &report.failure {
        Some(failure) => {
            let path = export_fuzz_failure(failure)?;
            eprintln!("[minimized failing config saved to {}]", path.display());
            print_json(&report);
            Err(format!(
                "fuzzing found a failure at seed {} after {} case(s)",
                failure.seed, report.cases_run
            ))
        }
        None => {
            print_json(&report);
            eprintln!(
                "{} case(s) fuzzed clean{}",
                report.cases_run,
                if report.budget_exhausted {
                    " (budget exhausted)"
                } else {
                    ""
                }
            );
            Ok(())
        }
    }
}

/// The `replay` subcommand: deterministic re-execution of a recorded
/// binary trace, through the daemon's scheduling discipline (virtual
/// time) or through the simulator.
fn run_trace_replay_cmd(mut args: Vec<String>) -> Result<(), String> {
    use hybridcast_ops::{
        hex64, replay_daemon, replay_simulator, sim_params_for, structural_mismatches, Trace,
    };
    use hybridcast_server::ServeConfig;

    let trace_path =
        take_value::<String>(&mut args, "--trace")?.ok_or("replay needs --trace <path>")?;
    let config_path = take_value::<String>(&mut args, "--config")?;
    let mode = take_value::<String>(&mut args, "--mode")?.unwrap_or_else(|| "daemon".to_string());
    let allow_mismatch = take_flag(&mut args, "--allow-mismatch");
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let trace =
        Trace::read(std::path::Path::new(&trace_path)).map_err(|e| format!("{trace_path}: {e}"))?;
    let config = match &config_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            ServeConfig::from_json(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => ServeConfig::default(),
    };
    // Structural mismatches (id reinterpretation, re-routing, deadline
    // rescaling) make the replayed books silently incomparable to the
    // recording — a hard error unless the override is explicit.
    let structural = structural_mismatches(
        &trace,
        config.scenario.num_items as u32,
        config.scenario.classes.len() as u8,
        config.hybrid.channels.shard_count(),
        config.serve.unit_millis,
    );
    if !structural.is_empty() {
        if allow_mismatch {
            eprintln!("warning: replaying under an acknowledged structural mismatch:");
            for m in &structural {
                eprintln!("  - {m}");
            }
        } else {
            return Err(format!(
                "structural mismatch between trace and replay config:\n  {}\n\
                 pass --allow-mismatch to replay anyway (out-of-range items fold \
                 back in via modulo, out-of-range classes clamp to the last class; \
                 re-routed and remapped records are counted in the books)",
                structural.join("\n  ")
            ));
        }
    } else {
        let expected = hybridcast_ops::config_hash(&config.identity_json());
        if expected != trace.meta.config_hash {
            eprintln!(
                "warning: config hash mismatch — trace recorded under {}, replaying under {}; \
                 books may not correspond to the recording deployment",
                hex64(trace.meta.config_hash),
                hex64(expected)
            );
        }
    }
    eprintln!(
        "replaying {} record(s) over {} channel(s) from {trace_path} (mode: {mode})",
        trace.records.len(),
        trace.meta.channels
    );
    let scenario = config.scenario.build();
    match mode.as_str() {
        "daemon" => {
            let books = replay_daemon(&scenario, &config.hybrid, trace.meta.unit_millis, &trace);
            if books.rerouted > 0 || books.remapped_items > 0 || books.remapped_classes > 0 {
                eprintln!(
                    "replay re-routed {} record(s), remapped {} out-of-catalog item(s) and \
                     clamped {} out-of-range class(es) through the replay config's plan",
                    books.rerouted, books.remapped_items, books.remapped_classes
                );
            }
            print_json(&books);
            if books.conservation_ok {
                Ok(())
            } else {
                Err("conservation violated in replayed books".to_string())
            }
        }
        "sim" => {
            let params = sim_params_for(&trace);
            let report = replay_simulator(&scenario, &config.hybrid, &params, &trace);
            print_json(&report);
            Ok(())
        }
        other => Err(format!("--mode must be `daemon` or `sim`, got `{other}`")),
    }
}

/// The `whatif` subcommand: one recorded trace replayed under a grid of
/// modified configs, ranked by whole-run backlog-aware cost.
fn run_whatif_cmd(mut args: Vec<String>) -> Result<(), String> {
    use hybridcast_core::config::AssignmentStrategy;
    use hybridcast_ops::{render_table, run_whatif, whatif_hash, Trace, WhatIfGrid};
    use hybridcast_server::ServeConfig;

    let trace_path =
        take_value::<String>(&mut args, "--trace")?.ok_or("whatif needs --trace <path>")?;
    let config_path = take_value::<String>(&mut args, "--config")?;
    let cutoffs = take_list::<usize>(&mut args, "--cutoffs")?;
    let channels = take_list::<u32>(&mut args, "--channels")?;
    let assignment_names = take_list::<String>(&mut args, "--assignments")?;
    let bandwidths = take_list::<f64>(&mut args, "--bandwidths")?;
    let controller = take_flag(&mut args, "--controller");
    let allow_mismatch = take_flag(&mut args, "--allow-mismatch");
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    if let Some(c) = channels.iter().find(|&&c| c == 0 || c > 256) {
        return Err(format!("--channels elements must be in 1..=256, got {c}"));
    }
    if let Some(b) = bandwidths.iter().find(|b| !(b.is_finite() && **b > 0.0)) {
        return Err(format!("--bandwidths elements must be positive, got {b}"));
    }
    let assignments = assignment_names
        .iter()
        .map(|name| match name.as_str() {
            "range" => Ok(AssignmentStrategy::Range),
            "hash" => Ok(AssignmentStrategy::Hash),
            "pattern_aware" => Ok(AssignmentStrategy::PatternAware),
            other => Err(format!(
                "--assignments must be range|hash|pattern_aware, got `{other}`"
            )),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let grid = WhatIfGrid {
        cutoffs,
        channels,
        assignments,
        bandwidths,
        controller: if controller {
            vec![false, true]
        } else {
            Vec::new()
        },
    };
    let trace =
        Trace::read(std::path::Path::new(&trace_path)).map_err(|e| format!("{trace_path}: {e}"))?;
    let config = match &config_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            ServeConfig::from_json(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => ServeConfig::default(),
    };
    let scenario = config.scenario.build();
    eprintln!(
        "what-if: {} grid point(s) over {} record(s) from {trace_path}",
        grid.points().len(),
        trace.records.len()
    );
    let report = run_whatif(&scenario, &config.hybrid, &trace, &grid, allow_mismatch)?;
    if report.points.is_empty() {
        return Err(format!(
            "every grid point was skipped:\n{}",
            report
                .skipped
                .iter()
                .map(|s| format!("  {}: {}", s.label, s.reason))
                .collect::<Vec<_>>()
                .join("\n")
        ));
    }
    let dir = hybridcast_bench::results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("WHATIF_{}.json", whatif_hash(&trace, &grid)));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("report serializes"),
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    print!("{}", render_table(&report));
    eprintln!("[saved {}]", path.display());
    Ok(())
}

/// The `stats` subcommand: one HTTP GET against a running daemon's ops
/// endpoint, body printed to stdout.
fn run_stats_cmd(mut args: Vec<String>) -> Result<(), String> {
    use std::io::{Read, Write};

    let addr =
        take_value::<String>(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1:4651".to_string());
    let path = take_value::<String>(&mut args, "--path")?.unwrap_or_else(|| "/stats".to_string());
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    if !path.starts_with('/') {
        return Err(format!("--path must start with `/`, got `{path}`"));
    }
    let mut stream = std::net::TcpStream::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .map_err(|e| format!("{addr}: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .map_err(|e| format!("{addr}: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("{addr}: {e}"))?;
    let text = String::from_utf8_lossy(&response);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status = head.split(' ').nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("{addr}{path}: HTTP {status}: {body}"));
    }
    println!("{body}");
    Ok(())
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fuzz") {
        return run_fuzz_cmd(args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("serve") {
        return hybridcast_server::daemon_main("hybridcast serve", args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("loadgen") {
        return hybridcast_server::loadgen_main("hybridcast loadgen", args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("replay") {
        return run_trace_replay_cmd(args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("whatif") {
        return run_whatif_cmd(args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("stats") {
        return run_stats_cmd(args.split_off(1));
    }
    let replications = take_replications(&mut args)?;
    let telemetry = take_telemetry(&mut args)?;
    let channels = take_channels(&mut args)?;
    let adaptive = take_adaptive(&mut args);
    let (cmd, path) = match args.as_slice() {
        [cmd] if cmd == "init-config" => {
            println!("{}", ExperimentConfig::default().to_json());
            return Ok(());
        }
        [cmd, path] => (cmd.as_str(), path.as_str()),
        _ => return Err(USAGE.to_string()),
    };
    let mut cfg = load_config(path)?;
    if replications.is_some() {
        cfg.replications = replications;
    }
    if telemetry.is_some() {
        cfg.telemetry = telemetry;
        cfg.validate_telemetry()
            .map_err(|e| format!("invalid config: {e}"))?;
    }
    if let Some(layout) = channels {
        cfg.hybrid.channels = layout;
    }
    if adaptive {
        cfg.enable_controller();
    }
    if matches!(
        cmd,
        "simulate" | "adaptive" | "churn" | "optimize" | "summary" | "dashboard"
    ) {
        let adaptive_run = cmd == "adaptive" || (cmd == "simulate" && adaptive);
        cfg.validate_run(adaptive_run, cmd == "churn")?;
    }
    if matches!(cmd, "optimize" | "model") {
        cfg.validate_grid()?;
    }
    match cmd {
        "simulate" | "adaptive" if adaptive => {
            let out = run_adaptive(&cfg);
            eprintln!(
                "adaptive: {} retune window(s), final K = {}",
                out.retunes.len(),
                out.final_k
            );
            print_json(&out);
        }
        "simulate" if cfg.telemetry.is_some() => {
            if cfg.effective_replications() > 1 {
                let (report, series) = run_replications_telemetry(&cfg);
                let (jsonl, svg) = export_aggregated_series("telemetry", "simulate", &series)?;
                eprintln!("[saved {} and {}]", jsonl.display(), svg.display());
                print_json(&report);
            } else {
                let (report, series) = run_simulate_telemetry(&cfg);
                let (jsonl, svg) = export_series("telemetry", "simulate", &series)?;
                eprintln!("[saved {} and {}]", jsonl.display(), svg.display());
                print_json(&report);
            }
        }
        "simulate" if cfg.effective_replications() > 1 => print_json(&run_replications(&cfg)),
        "simulate" => print_json(&run_simulate(&cfg)),
        "adaptive" => print_json(&run_adaptive(&cfg)),
        "optimize" => {
            let sweep = if cfg.telemetry.is_some() {
                let (sweep, series) = run_optimize_telemetry(&cfg);
                let (jsonl, svg) =
                    export_series("telemetry_optimize", "optimize (best K)", &series)?;
                eprintln!("[saved {} and {}]", jsonl.display(), svg.display());
                sweep
            } else {
                run_optimize(&cfg)
            };
            eprintln!(
                "optimal K = {} (objective {:.3} ±{:.3}, R = {})",
                sweep.best_k(),
                sweep.best().objective,
                sweep.best().objective_ci95,
                sweep.replications
            );
            print_json(&sweep);
        }
        "churn" => {
            let out = run_churn(&cfg);
            eprintln!(
                "weighted retention {:.1}% ({} departures)",
                100.0 * out.weighted_retention,
                out.departures
            );
            print_json(&out);
        }
        "model" => print_json(&run_model(&cfg)),
        "dashboard" => {
            if cfg.telemetry.is_none() {
                cfg.telemetry = Some(DEFAULT_WINDOW);
            }
            let (_, series) = run_simulate_telemetry(&cfg);
            let (jsonl, svg) = export_series("dashboard", "dashboard", &series)?;
            eprintln!("[saved {} and {}]", jsonl.display(), svg.display());
            print!("{}", series.to_jsonl());
        }
        "summary" => {
            if cfg.effective_replications() > 1 {
                let report = run_replications(&cfg);
                print!("{}", summarize_replicated(&report));
            } else {
                let report = run_simulate(&cfg);
                print!("{}", summarize(&report));
            }
        }
        other => return Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
