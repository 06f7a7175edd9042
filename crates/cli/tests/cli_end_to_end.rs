//! End-to-end tests of the compiled `hybridcast` binary: real argv, real
//! stdin/stdout, JSON round-trips through the process boundary.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hybridcast"))
}

fn quick_config() -> String {
    // start from the generated default and shrink the run
    let out = bin().arg("init-config").output().expect("binary runs");
    assert!(out.status.success());
    let mut cfg: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("init-config emits JSON");
    cfg["params"]["horizon"] = 1_500.0.into();
    cfg["params"]["warmup"] = 200.0.into();
    cfg["optimize_ks"] = serde_json::json!([30, 60]);
    cfg.to_string()
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (bool, String, String) {
    run_with_stdin_env(args, stdin, &[])
}

fn run_with_stdin_env(args: &[&str], stdin: &str, env: &[(&str, &str)]) -> (bool, String, String) {
    let out = output_with_stdin(args, stdin, env);
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn output_with_stdin(args: &[&str], stdin: &str, env: &[(&str, &str)]) -> std::process::Output {
    let mut child = bin()
        .args(args)
        .envs(env.iter().copied())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // the child may reject its argv and exit before reading stdin, so a
    // broken pipe here is fine
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes());
    child.wait_with_output().expect("binary exits")
}

#[test]
fn init_config_round_trips_through_simulate() {
    let cfg = quick_config();
    let (ok, stdout, stderr) = run_with_stdin(&["simulate", "-"], &cfg);
    assert!(ok, "stderr: {stderr}");
    let report: serde_json::Value = serde_json::from_str(&stdout).expect("JSON report");
    assert_eq!(report["per_class"].as_array().expect("classes").len(), 3);
    assert!(report["overall_delay"]["mean"].as_f64().expect("mean") > 0.0);
}

#[test]
fn summary_is_human_readable() {
    let cfg = quick_config();
    let (ok, stdout, _) = run_with_stdin(&["summary", "-"], &cfg);
    assert!(ok);
    assert!(stdout.contains("Class-A"));
    assert!(stdout.contains("total cost"));
}

#[test]
fn optimize_reports_the_best_cutoff() {
    let cfg = quick_config();
    let (ok, stdout, stderr) = run_with_stdin(&["optimize", "-"], &cfg);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("optimal K ="), "stderr: {stderr}");
    let sweep: serde_json::Value = serde_json::from_str(&stdout).expect("sweep JSON");
    assert_eq!(sweep["points"].as_array().expect("points").len(), 2);
}

#[test]
fn model_needs_no_simulation() {
    let cfg = quick_config();
    let (ok, stdout, _) = run_with_stdin(&["model", "-"], &cfg);
    assert!(ok);
    let delays: serde_json::Value = serde_json::from_str(&stdout).expect("delays JSON");
    assert_eq!(delays.as_array().expect("grid").len(), 2);
}

/// A throwaway results directory for telemetry-export tests; the binary
/// honours `HYBRIDCAST_RESULTS` so nothing lands in the repo's `results/`.
fn scratch_results(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hybridcast-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Every line parses as JSON; the header carries window width and classes,
/// each subsequent line is one window.
fn assert_valid_jsonl(text: &str) {
    let mut lines = text.lines();
    let header: serde_json::Value =
        serde_json::from_str(lines.next().expect("header line")).expect("header JSON");
    assert_eq!(header["classes"].as_array().expect("classes").len(), 3);
    let num_windows = header["num_windows"].as_u64().expect("num_windows");
    let mut count = 0;
    for line in lines {
        let win: serde_json::Value = serde_json::from_str(line).expect("window JSON");
        assert_eq!(win["per_class"].as_array().expect("per_class").len(), 3);
        count += 1;
    }
    assert_eq!(count, num_windows, "header window count matches body");
    assert!(count > 0, "at least one window recorded");
}

fn assert_valid_svg(path: &std::path::Path) {
    let svg = std::fs::read_to_string(path).expect("svg exists");
    assert_eq!(svg.matches("<svg").count(), 1, "exactly one <svg> root");
    assert!(svg.trim_end().ends_with("</svg>"), "closed <svg> root");
    assert!(svg.contains("Class-A"), "per-class series are labelled");
}

#[test]
fn dashboard_emits_valid_svg_and_jsonl() {
    let cfg = quick_config();
    let results = scratch_results("dashboard");
    let (ok, stdout, stderr) = run_with_stdin_env(
        &["dashboard", "-"],
        &cfg,
        &[("HYBRIDCAST_RESULTS", results.to_str().unwrap())],
    );
    assert!(ok, "stderr: {stderr}");
    assert_valid_jsonl(&stdout);
    assert_valid_jsonl(&std::fs::read_to_string(results.join("dashboard.jsonl")).unwrap());
    assert_valid_svg(&results.join("dashboard.svg"));
    assert!(stderr.contains("[saved "), "stderr: {stderr}");
    std::fs::remove_dir_all(&results).ok();
}

#[test]
fn simulate_with_telemetry_exports_and_keeps_the_report_identical() {
    let cfg = quick_config();
    let results = scratch_results("simulate");
    let (ok, plain, _) = run_with_stdin(&["simulate", "-"], &cfg);
    assert!(ok);
    let (ok, instrumented, stderr) = run_with_stdin_env(
        &["simulate", "--telemetry", "250", "-"],
        &cfg,
        &[("HYBRIDCAST_RESULTS", results.to_str().unwrap())],
    );
    assert!(ok, "stderr: {stderr}");
    // telemetry is observational: stdout report is byte-for-byte the same
    assert_eq!(plain, instrumented);
    let jsonl = std::fs::read_to_string(results.join("telemetry.jsonl")).unwrap();
    assert_valid_jsonl(&jsonl);
    let header: serde_json::Value = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
    assert_eq!(header["window"].as_f64(), Some(250.0));
    assert_valid_svg(&results.join("telemetry.svg"));
    std::fs::remove_dir_all(&results).ok();
}

#[test]
fn replicated_telemetry_aggregates_with_confidence_intervals() {
    let cfg = quick_config();
    let results = scratch_results("replicated");
    let (ok, stdout, stderr) = run_with_stdin_env(
        &["simulate", "--replications", "4", "--telemetry", "-"],
        &cfg,
        &[("HYBRIDCAST_RESULTS", results.to_str().unwrap())],
    );
    assert!(ok, "stderr: {stderr}");
    let report: serde_json::Value = serde_json::from_str(&stdout).expect("replicated report");
    assert_eq!(report["replications"].as_u64(), Some(4));
    let jsonl = std::fs::read_to_string(results.join("telemetry.jsonl")).unwrap();
    let window: serde_json::Value =
        serde_json::from_str(jsonl.lines().nth(1).expect("first window")).unwrap();
    let class0 = &window["per_class"][0];
    assert!(
        class0["delay_mean"]["ci95"].as_f64().is_some(),
        "CI bands present"
    );
    assert_valid_svg(&results.join("telemetry.svg"));
    std::fs::remove_dir_all(&results).ok();
}

#[test]
fn optimize_with_telemetry_exports_the_best_cutoff_series() {
    let cfg = quick_config();
    let results = scratch_results("optimize");
    let (ok, stdout, stderr) = run_with_stdin_env(
        &["optimize", "--telemetry", "-"],
        &cfg,
        &[("HYBRIDCAST_RESULTS", results.to_str().unwrap())],
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("optimal K ="), "stderr: {stderr}");
    let sweep: serde_json::Value = serde_json::from_str(&stdout).expect("sweep JSON");
    assert_eq!(sweep["points"].as_array().expect("points").len(), 2);
    assert_valid_jsonl(&std::fs::read_to_string(results.join("telemetry_optimize.jsonl")).unwrap());
    assert_valid_svg(&results.join("telemetry_optimize.svg"));
    std::fs::remove_dir_all(&results).ok();
}

#[test]
fn telemetry_rejects_a_non_positive_window() {
    let cfg = quick_config();
    let (ok, _, stderr) = run_with_stdin(&["simulate", "--telemetry", "-5", "-"], &cfg);
    assert!(!ok);
    assert!(
        stderr.contains("telemetry window must be positive"),
        "stderr: {stderr}"
    );
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    // a valid config, so the failure is attributable to the subcommand
    let cfg = quick_config();
    let (ok, _, stderr) = run_with_stdin(&["frobnicate", "-"], &cfg);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"), "stderr: {stderr}");
    assert!(stderr.contains("USAGE"), "stderr: {stderr}");
}

#[test]
fn malformed_config_is_rejected_cleanly() {
    let (ok, _, stderr) = run_with_stdin(&["simulate", "-"], "{ not json");
    assert!(!ok);
    assert!(stderr.contains("invalid config"));
}

/// Run preconditions are typed errors, not panics 2 000 units into the run:
/// the starter `candidate_ks` reach 90, past a 50-item catalog.
#[test]
fn candidate_cutoffs_beyond_the_catalog_are_an_invalid_config() {
    let mut cfg: serde_json::Value = serde_json::from_str(&quick_config()).unwrap();
    cfg["scenario"]["num_items"] = 50.into();
    cfg["hybrid"]["cutoff"] = 20.into();
    let (ok, stdout, stderr) = run_with_stdin(&["adaptive", "-"], &cfg.to_string());
    assert!(!ok);
    assert!(stdout.is_empty(), "stdout: {stdout}");
    assert!(
        stderr.contains("invalid config: candidate cutoff 90 exceeds catalog size 50"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// A split layout needs a pull channel: the config check names the field
/// as the config enters, before any run starts.
#[test]
fn split_layout_without_pull_channels_is_an_invalid_config() {
    let mut cfg: serde_json::Value = serde_json::from_str(&quick_config()).unwrap();
    cfg["hybrid"]["channels"] = serde_json::json!({"kind": "split", "pull_channels": 0});
    let out = output_with_stdin(&["simulate", "-"], &cfg.to_string(), &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("invalid config: hybrid.channels: split layout needs ≥ 1 pull channel"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn warmup_past_the_horizon_is_an_invalid_config() {
    let mut cfg: serde_json::Value = serde_json::from_str(&quick_config()).unwrap();
    cfg["params"]["warmup"] = 1_500.0.into();
    for cmd in ["simulate", "summary", "churn", "optimize", "dashboard"] {
        let (ok, _, stderr) = run_with_stdin(&[cmd, "-"], &cfg.to_string());
        assert!(!ok, "{cmd}");
        assert!(
            stderr.contains("invalid config: horizon 1500 must exceed warmup 1500"),
            "{cmd}: stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd}: stderr: {stderr}");
    }
}

/// Every config value is checked where the config enters: a value outside
/// the range its consumer requires is exit 1 with the field named, never
/// that consumer's panic (exit 101) somewhere into the run.
#[test]
fn out_of_range_config_values_are_typed_errors_naming_the_field() {
    use serde_json::json;
    let uplink = |field: &str, value: serde_json::Value| {
        let mut u = json!({"slot_time": 0.05, "success_prob": 0.5, "max_attempts": 3, "backoff_slots": 1.0});
        u[field] = value;
        u
    };
    // (path to the value, the value, what the error must name)
    let table: Vec<(&[&str], serde_json::Value, &[&str])> = vec![
        (
            &["scenario", "num_items"],
            json!(0),
            &["scenario.num_items"],
        ),
        (
            &["scenario", "arrival_rate"],
            json!(0.0),
            &["scenario.arrival_rate"],
        ),
        (
            &["scenario", "arrival_rate"],
            json!(-1.0),
            &["scenario.arrival_rate"],
        ),
        (
            &["scenario", "popularity", "theta"],
            json!(-5.0),
            &["scenario.popularity", "skew"],
        ),
        (
            &["scenario", "classes", "classes"],
            json!([]),
            &["scenario.classes"],
        ),
        (
            &["scenario", "classes", "classes", "*", "population_share"],
            json!(0.0),
            &["scenario.classes", "population shares"],
        ),
        (
            &["scenario", "classes", "classes", "*", "priority"],
            json!(1.0),
            &["scenario.classes", "priority"],
        ),
        (
            &["scenario", "lengths", "min"],
            json!(0),
            &["scenario.lengths", "minimum length"],
        ),
        (
            &["scenario", "lengths", "min"],
            json!(9),
            &["scenario.lengths", "max ≥ min"],
        ),
        (
            &["scenario", "lengths", "mean"],
            json!(50.0),
            &["scenario.lengths", "mean"],
        ),
        (
            &["scenario", "batch_mean"],
            json!(0.5),
            &["scenario.batch_mean"],
        ),
        (
            &["scenario", "drift"],
            json!({"period": 0.0, "shift": 5}),
            &["scenario.drift", "period"],
        ),
        (
            &["hybrid", "pull", "alpha"],
            json!(7.0),
            &["hybrid.pull", "alpha"],
        ),
        (
            &["hybrid", "pull", "exponent"],
            json!(-1.0),
            &["hybrid.pull", "exponent"],
        ),
        (
            &["hybrid", "bandwidth", "total_capacity"],
            json!(-1.0),
            &["hybrid.bandwidth", "total capacity"],
        ),
        (
            &["hybrid", "bandwidth", "mean_demand"],
            json!(0.0),
            &["hybrid.bandwidth", "mean demand"],
        ),
        (
            &["hybrid", "uplink"],
            uplink("success_prob", json!(0.0)),
            &["hybrid.uplink", "success probability"],
        ),
        (
            &["hybrid", "uplink"],
            uplink("slot_time", json!(0.0)),
            &["hybrid.uplink", "slot time"],
        ),
        (
            &["hybrid", "uplink"],
            uplink("max_attempts", json!(0)),
            &["hybrid.uplink", "attempt"],
        ),
        (
            &["hybrid", "channels"],
            json!({"kind": "sharded", "channels": 300}),
            &["hybrid.channels", "300"],
        ),
        (&["telemetry"], json!(0.0), &["telemetry"]),
    ];
    let base: serde_json::Value = serde_json::from_str(&quick_config()).unwrap();
    for (path, value, names) in table {
        let mut cfg = base.clone();
        set_at(&mut cfg, path, &value);
        let out = output_with_stdin(&["summary", "-"], &cfg.to_string(), &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("{} = {value}: stderr: {stderr}", path.join("."));
        assert_eq!(out.status.code(), Some(1), "{what}");
        assert!(stderr.contains("invalid config: "), "{what}");
        assert!(names.iter().all(|n| stderr.contains(n)), "{what}");
        assert!(!stderr.contains("panicked"), "{what}");
        assert!(out.stdout.is_empty(), "{what}");
    }
}

/// Sets `value` at `path` inside `cfg`; a `*` step applies the rest of the
/// path to every element of an array.
fn set_at(cfg: &mut serde_json::Value, path: &[&str], value: &serde_json::Value) {
    match path {
        [] => *cfg = value.clone(),
        ["*", rest @ ..] => {
            let serde_json::Value::Array(elements) = cfg else {
                panic!("`*` needs an array, found {cfg}");
            };
            for element in elements {
                set_at(element, rest, value);
            }
        }
        [key, rest @ ..] => set_at(&mut cfg[*key], rest, value),
    }
}

#[test]
fn unknown_config_key_is_rejected_with_its_name() {
    let mut cfg: serde_json::Value = serde_json::from_str(&quick_config()).unwrap();
    cfg["replicatons"] = serde_json::json!(4); // typo'd "replications"
    let (ok, _, stderr) = run_with_stdin(&["simulate", "-"], &cfg.to_string());
    assert!(!ok);
    assert!(stderr.contains("invalid config"), "stderr: {stderr}");
    assert!(stderr.contains("replicatons"), "stderr: {stderr}");
}

#[test]
fn telemetry_rejects_a_zero_window() {
    let cfg = quick_config();
    let (ok, _, stderr) = run_with_stdin(&["simulate", "--telemetry", "0", "-"], &cfg);
    assert!(!ok);
    assert!(
        stderr.contains("telemetry window must be positive"),
        "stderr: {stderr}"
    );
}

#[test]
fn replications_zero_is_rejected() {
    let cfg = quick_config();
    let (ok, _, stderr) = run_with_stdin(&["simulate", "--replications", "0", "-"], &cfg);
    assert!(!ok);
    assert!(
        stderr.contains("--replications must be at least 1"),
        "stderr: {stderr}"
    );
}

#[test]
fn dashboard_with_uncreatable_results_dir_fails_cleanly() {
    let cfg = quick_config();
    // /dev/null is a file, so a results dir beneath it cannot be created
    let (ok, _, stderr) = run_with_stdin_env(
        &["dashboard", "-"],
        &cfg,
        &[("HYBRIDCAST_RESULTS", "/dev/null/results")],
    );
    assert!(!ok);
    assert!(stderr.contains("cannot create"), "stderr: {stderr}");
}

#[test]
fn fuzz_subcommand_runs_a_clean_campaign() {
    let out = bin()
        .args(["fuzz", "--count", "5"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("fuzz report JSON");
    assert_eq!(report["cases_run"].as_u64(), Some(5));
    assert!(report["failure"].is_null());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("5 case(s) fuzzed clean"),
        "stderr: {stderr}"
    );
}

#[test]
fn fuzz_replay_covers_the_committed_corpus() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../testkit/corpus");
    let out = bin()
        .args(["fuzz", "--replay", corpus])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("replayed clean"), "stderr: {stderr}");
    assert!(stderr.contains("paper-midpoint: ok"), "stderr: {stderr}");
}

#[test]
fn fuzz_rejects_bad_flags() {
    let out = bin()
        .args(["fuzz", "--count", "three"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid --count value"), "stderr: {stderr}");

    let out = bin()
        .args(["fuzz", "--budget-secs", "-1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--budget-secs must be positive"),
        "stderr: {stderr}"
    );
}

#[test]
fn missing_file_is_reported() {
    let out = bin()
        .args(["simulate", "/nonexistent/path.json"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"));
}

/// A config nested 50 000 deep overflowed the parser's stack and aborted
/// both front ends (exit 134). It is an invalid config naming the depth
/// limit, exit 1 — from `summary` and from the daemon's `--config` parser,
/// which `hybridcast serve` shares with `hybridcastd`.
#[test]
fn deeply_nested_config_is_an_invalid_config_not_a_stack_overflow() {
    let depth = 50_000;
    let doc = format!(
        r#"{{"scenario": {}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let path = std::env::temp_dir().join(format!("hybridcast-deep-{}.json", std::process::id()));
    std::fs::write(&path, doc).expect("temp config written");
    let path_arg = path.to_str().expect("utf-8 temp path");
    for args in [
        vec!["summary", path_arg],
        vec!["serve", "--config", path_arg],
    ] {
        let out = bin().args(&args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains("depth 128"), "{args:?}: stderr: {stderr}");
        assert!(!stderr.contains("overflowed"), "{args:?}: stderr: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
}
