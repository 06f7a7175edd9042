//! The daemon's and the load generator's command lines, once: the
//! `hybridcastd` / `loadgen` binaries and the `hybridcast serve` /
//! `hybridcast loadgen` subcommands all call [`daemon_main`] /
//! [`loadgen_main`] with their argument list, so a flag means the same
//! thing at every front door.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hybridcast_core::config::{AssignmentStrategy, ChannelLayout};

use crate::loadgen::{run_loadgen, LoadgenConfig};
use crate::{serve, signal, ServeConfig};

fn daemon_usage(prog: &str) -> String {
    format!(
        "{prog} — wall-clock hybrid push/pull broadcast daemon

USAGE:
    {prog} [OPTIONS]

OPTIONS:
    --config <path>     JSON ServeConfig (default: built-in defaults)
    --init-config       Print the default config as JSON and exit
    --addr <host:port>  Override the listen address
    --results <path>    Override the telemetry JSONL path ('-' disables)
    --channels <C>      Shard the catalog across C broadcast channels
                        (pattern-aware assignment, one scheduler thread
                        per channel)
    --ops-addr <h:p>    Serve /healthz, /stats, /config over HTTP on this
                        address ('-' disables)
    --trace <path>      Record the accepted-request stream as a binary
                        HCT1 trace for later `hybridcast replay`
                        ('-' disables)
    --help              This text

Runs until SIGTERM/SIGINT (or an in-band shutdown frame), then drains
queued work, sheds the rest with explicit replies, flushes telemetry,
prints the run summary as JSON on stdout, and exits 0."
    )
}

fn loadgen_usage(prog: &str) -> String {
    format!(
        "{prog} — open-loop Poisson/Zipf traffic for hybridcastd

USAGE:
    {prog} [OPTIONS]

OPTIONS:
    --addr <host:port>   Daemon address (default 127.0.0.1:4650)
    --rps <n>            Aggregate request rate per second (default 1000)
    --conns <n>          Concurrent connections (default 4)
    --secs <n>           Send-window length in seconds (default 5)
    --seed <n>           Master seed (default 0xC0FFEE)
    --items <n>          Catalog size for the item law (default 100)
    --theta <x>          Zipf skew of the item law (default 0.6)
    --deadline-ms <n>    Per-request deadline (0 = server default)
    --grace-ms <n>       Post-window wait for stragglers (default 2000)
    --help               This text

Prints the report (per-class RTT quantiles, status breakdown) as JSON."
    )
}

/// The value following `flag`, parsed as `T`.
fn value<T: std::str::FromStr>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("invalid {flag} value `{raw}`"))
}

/// A path-like override, where `-` switches the feature off.
fn path_flag(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<Option<String>, String> {
    let raw: String = value(flag, args)?;
    Ok((raw != "-").then_some(raw))
}

/// What a daemon command line asks for.
#[derive(Debug, PartialEq)]
enum DaemonCommand {
    Help,
    InitConfig,
    /// The config file (or the defaults) with the overrides applied,
    /// validated as a whole.
    Serve(Box<ServeConfig>),
}

fn parse_daemon_args(args: Vec<String>) -> Result<DaemonCommand, String> {
    // The file comes first, wherever `--config` stands: flags override it.
    let mut config = match args.iter().position(|a| a == "--config") {
        Some(i) => {
            let path = args.get(i + 1).ok_or("--config needs a value")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            ServeConfig::from_json(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => ServeConfig::default(),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(DaemonCommand::Help),
            "--init-config" => return Ok(DaemonCommand::InitConfig),
            "--config" => drop(args.next()),
            "--addr" => config.serve.addr = value(&arg, &mut args)?,
            "--results" => config.serve.results_path = path_flag(&arg, &mut args)?,
            "--ops-addr" => config.serve.ops_addr = path_flag(&arg, &mut args)?,
            "--trace" => config.serve.trace_path = path_flag(&arg, &mut args)?,
            "--channels" => {
                config.hybrid.channels = ChannelLayout::Sharded {
                    channels: value(&arg, &mut args)?,
                    assignment: AssignmentStrategy::PatternAware,
                }
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    config.validate()?;
    Ok(DaemonCommand::Serve(Box::new(config)))
}

/// The serving daemon's `main`: parses `args` (everything after the
/// program or subcommand name `prog`), runs [`serve`] until
/// SIGTERM/SIGINT, and prints the run summary as JSON on stdout. `Err`
/// is the message to print on stderr before exiting non-zero.
pub fn daemon_main(prog: &str, args: impl IntoIterator<Item = String>) -> Result<(), String> {
    let config = match parse_daemon_args(args.into_iter().collect()) {
        Ok(DaemonCommand::Serve(config)) => *config,
        Ok(DaemonCommand::Help) => {
            println!("{}", daemon_usage(prog));
            return Ok(());
        }
        Ok(DaemonCommand::InitConfig) => {
            println!("{}", ServeConfig::default().to_json());
            return Ok(());
        }
        Err(e) => return Err(format!("{e} (`{prog} --help` lists the options)")),
    };

    // Bridge POSIX signals onto the serve loop's shutdown flag.
    signal::install();
    let shutdown = Arc::new(AtomicBool::new(false));
    {
        let shutdown = Arc::clone(&shutdown);
        thread::spawn(move || loop {
            if signal::requested() {
                shutdown.store(true, Ordering::SeqCst);
                return;
            }
            thread::sleep(Duration::from_millis(50));
        });
    }
    eprintln!(
        "{prog}: listening on {} (1 broadcast unit = {} ms)",
        config.serve.addr, config.serve.unit_millis
    );
    let summary = serve(config, shutdown).map_err(|e| format!("{prog}: {e}"))?;
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).expect("summary serializes")
    );
    if summary.conservation_ok {
        Ok(())
    } else {
        Err("conservation violated: some accepted frames went unanswered".to_string())
    }
}

/// `None` asks for the usage text.
fn parse_loadgen_args(
    args: impl IntoIterator<Item = String>,
) -> Result<Option<LoadgenConfig>, String> {
    let mut cfg = LoadgenConfig::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--addr" => cfg.addr = value(&arg, &mut args)?,
            "--rps" => cfg.rps = value(&arg, &mut args)?,
            "--conns" => cfg.connections = value(&arg, &mut args)?,
            "--secs" => cfg.duration_secs = value(&arg, &mut args)?,
            "--seed" => cfg.seed = value(&arg, &mut args)?,
            "--items" => cfg.num_items = value(&arg, &mut args)?,
            "--theta" => cfg.zipf_theta = value(&arg, &mut args)?,
            "--deadline-ms" => cfg.deadline_ms = value(&arg, &mut args)?,
            "--grace-ms" => cfg.grace_ms = value(&arg, &mut args)?,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(cfg))
}

/// The load generator's `main`: parses `args`, drives [`run_loadgen`],
/// prints the report as JSON on stdout. The run succeeded if the daemon
/// answered everything it accepted within the grace window; `Err` is the
/// message to print on stderr before exiting non-zero.
pub fn loadgen_main(prog: &str, args: impl IntoIterator<Item = String>) -> Result<(), String> {
    let parsed =
        parse_loadgen_args(args).map_err(|e| format!("{e} (`{prog} --help` lists the options)"))?;
    let Some(cfg) = parsed else {
        println!("{}", loadgen_usage(prog));
        return Ok(());
    };
    let report = run_loadgen(&cfg).map_err(|e| format!("{prog}: {e}"))?;
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("report serializes")
    );
    if report.unanswered == 0 {
        Ok(())
    } else {
        Err(format!("{} requests went unanswered", report.unanswered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        let err = parse_daemon_args(argv(&["--adr", "x:1"])).unwrap_err();
        assert_eq!(err, "unknown argument: --adr");
        let err = parse_daemon_args(argv(&["--addr", "x:1", "--config"])).unwrap_err();
        assert_eq!(err, "--config needs a value");
        let err = parse_daemon_args(argv(&["--channels", "two"])).unwrap_err();
        assert_eq!(err, "invalid --channels value `two`");

        let err = parse_loadgen_args(argv(&["--rate", "5"])).unwrap_err();
        assert_eq!(err, "unknown argument: --rate");
        let err = parse_loadgen_args(argv(&["--rps"])).unwrap_err();
        assert_eq!(err, "--rps needs a value");
        assert!(matches!(
            parse_loadgen_args(argv(&["--rps", "5", "-h"])),
            Ok(None)
        ));
    }

    #[test]
    fn overrides_land_on_the_config_and_dash_disables_a_path() {
        let parsed = parse_daemon_args(argv(&[
            "--addr",
            "127.0.0.1:9",
            "--results",
            "-",
            "--ops-addr",
            "127.0.0.1:10",
            "--trace",
            "/tmp/t.hct",
            "--channels",
            "2",
        ]));
        let Ok(DaemonCommand::Serve(config)) = parsed else {
            panic!("expected a config, got {parsed:?}");
        };
        assert_eq!(config.serve.addr, "127.0.0.1:9");
        assert_eq!(config.serve.results_path, None);
        assert_eq!(config.serve.ops_addr.as_deref(), Some("127.0.0.1:10"));
        assert_eq!(config.serve.trace_path.as_deref(), Some("/tmp/t.hct"));
        assert_eq!(config.hybrid.channels.shard_count(), 2);

        // No overrides: the defaults, untouched.
        assert_eq!(
            parse_daemon_args(Vec::new()),
            Ok(DaemonCommand::Serve(Box::default()))
        );
        assert_eq!(
            parse_daemon_args(argv(&["--trace", "x", "--init-config"])),
            Ok(DaemonCommand::InitConfig)
        );
        // The whole config is validated after the overrides, whichever
        // front door they came through.
        let err = parse_daemon_args(argv(&["--channels", "0"])).unwrap_err();
        assert!(err.contains("1..=256"), "{err}");
    }

    #[test]
    fn loadgen_flags_fill_the_config() {
        let cfg = parse_loadgen_args(argv(&["--rps", "250", "--conns", "2", "--theta", "0.9"]))
            .unwrap()
            .unwrap();
        assert_eq!(cfg.rps, 250.0);
        assert_eq!(cfg.connections, 2);
        assert_eq!(cfg.zipf_theta, 0.9);
        assert_eq!(cfg.addr, LoadgenConfig::default().addr);
    }
}
