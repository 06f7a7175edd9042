//! Integration tests for the live ops subsystem: the final partial
//! telemetry window flushing at graceful shutdown, binary trace
//! record→replay determinism, and the HTTP ops endpoint serving live
//! JSON mid-load while rejecting malformed traffic.

use std::io::{Read as IoRead, Write as IoWrite};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use hybridcast_core::config::HybridConfig;
use hybridcast_core::pull::PullPolicyKind;
use hybridcast_ops::{config_hash, hex64, replay_daemon, replay_simulator, sim_params_for, Trace};
use hybridcast_server::frame::{encode_shutdown, read_frame, ReplyFrame, RequestFrame, OP_REPLY};
use hybridcast_server::{ServeConfig, ServerHandle};

fn base_config() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.serve.addr = "127.0.0.1:0".into();
    cfg.serve.results_path = None;
    cfg.serve.drain_timeout_ms = 5_000;
    cfg
}

/// Connects and spawns a reply-collector thread (see `loopback.rs`).
fn client(addr: SocketAddr) -> (TcpStream, thread::JoinHandle<Vec<ReplyFrame>>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut read_half = stream.try_clone().expect("clone");
    let reader = thread::spawn(move || {
        let mut replies = Vec::new();
        while let Ok(Some(body)) = read_frame(&mut read_half) {
            if body.first() == Some(&OP_REPLY) {
                replies.push(ReplyFrame::decode(&body[1..]).expect("reply decodes"));
            }
        }
        replies
    });
    (stream, reader)
}

fn send(stream: &mut TcpStream, seq: u64, class: u8, item: u32) {
    let frame = RequestFrame {
        seq,
        class,
        item,
        deadline_ms: 0,
    };
    stream.write_all(&frame.encode()).expect("send");
}

/// One raw HTTP exchange against the ops endpoint: writes `request`
/// verbatim, reads to EOF (HTTP/1.0 closes), returns (status, body).
fn http_exchange(addr: SocketAddr, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("ops connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.write_all(request).expect("ops write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("ops read");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {text:?}"));
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    (status, body.to_string())
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    http_exchange(addr, format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
}

/// Satellite 2 — drain-path telemetry audit: a run *shorter* than the
/// telemetry window must still flush its final partial window at
/// graceful shutdown, and the JSONL header is self-describing
/// (config hash + plan digest).
#[test]
fn final_partial_window_flushes_at_shutdown() {
    let results = std::env::temp_dir().join(format!(
        "hybridcast-ops-window-{}.jsonl",
        std::process::id()
    ));
    let mut cfg = base_config();
    cfg.hybrid = HybridConfig {
        cutoff: 30,
        pull: PullPolicyKind::importance(0.5),
        ..HybridConfig::default()
    };
    cfg.serve.unit_millis = 1.0;
    // Far wider than the run: no window closes before shutdown, so any
    // window line in the file *is* the flushed partial tail.
    cfg.serve.telemetry_window = 1_000_000.0;
    cfg.serve.results_path = Some(results.display().to_string());
    let expected_hash = hex64(config_hash(&cfg.identity_json()));
    let server = ServerHandle::start(cfg).expect("server starts");
    let (mut stream, reader) = client(server.addr());

    let total = 150u64;
    for i in 0..total {
        send(&mut stream, i, (i % 3) as u8, (i * 7 % 60) as u32);
    }
    stream
        .write_all(&encode_shutdown())
        .expect("shutdown frame");
    let replies = reader.join().expect("reader sees EOF after drain");
    let summary = server.join().expect("clean shutdown");
    assert_eq!(replies.len() as u64, total);
    assert!(summary.conservation_ok, "conservation: {summary:?}");

    let text = std::fs::read_to_string(&results).expect("results written");
    let lines: Vec<&str> = text.lines().collect();
    let header: serde_json::Value = serde_json::from_str(lines[0]).expect("header parses");
    assert_eq!(header["kind"].as_str(), Some("header"));
    assert_eq!(header["config_hash"].as_str(), Some(expected_hash.as_str()));
    let plan_digest = header["plan_digest"].as_str().expect("plan digest present");
    assert_eq!(plan_digest.len(), 16, "16-hex-digit digest: {plan_digest}");

    // The partial tail window was flushed, and it accounts for every
    // completion the summary reports — nothing was dropped at the drain.
    let windows: Vec<serde_json::Value> = lines[1..lines.len() - 1]
        .iter()
        .map(|l| serde_json::from_str(l).expect("window parses"))
        .collect();
    assert!(
        !windows.is_empty(),
        "a run shorter than the telemetry window must still flush its \
         partial tail window at shutdown"
    );
    let mut windowed_served = 0u64;
    for w in &windows {
        assert_eq!(w["kind"].as_str(), Some("window"));
        for class in w["stats"]["per_class"].as_array().expect("per_class") {
            windowed_served += class["served"].as_u64().expect("served");
        }
    }
    assert_eq!(
        windowed_served,
        summary.served(),
        "the flushed windows must account for every served request"
    );
    let _ = std::fs::remove_file(&results);
}

/// Satellite 3 — record→replay round trip: a loopback run records a
/// trace; replaying it is deterministic (bit-identical books across
/// replays, in both daemon and simulator modes) and conserving.
#[test]
fn recorded_trace_replays_bit_identically() {
    let trace_path = std::env::temp_dir().join(format!(
        "hybridcast-ops-roundtrip-{}.hct",
        std::process::id()
    ));
    let mut cfg = base_config();
    cfg.hybrid = HybridConfig {
        cutoff: 30,
        pull: PullPolicyKind::importance(0.5),
        ..HybridConfig::default()
    };
    cfg.serve.unit_millis = 1.0;
    cfg.serve.trace_path = Some(trace_path.display().to_string());
    let expected_hash = config_hash(&cfg.identity_json());
    let replay_cfg = cfg.clone();
    let server = ServerHandle::start(cfg).expect("server starts");
    let (mut stream, reader) = client(server.addr());

    let total = 400u64;
    for i in 0..total {
        send(&mut stream, i, (i % 3) as u8, (i * 7 % 80) as u32);
    }
    stream
        .write_all(&encode_shutdown())
        .expect("shutdown frame");
    let replies = reader.join().expect("reader sees EOF after drain");
    let summary = server.join().expect("clean shutdown");
    assert_eq!(replies.len() as u64, total);
    assert!(summary.conservation_ok, "conservation: {summary:?}");

    // The trace header identifies the recording deployment, and every
    // accepted request was captured.
    let trace = Trace::read(&trace_path).expect("trace reads");
    assert_eq!(trace.meta.config_hash, expected_hash, "self-describing");
    assert_eq!(trace.meta.channels, 1);
    assert_eq!(trace.records.len() as u64, summary.accepted);

    // Daemon-mode replay: virtual-time re-execution of the recorded
    // stream. Two replays must produce bit-identical books.
    let scenario = replay_cfg.scenario.build();
    let first = replay_daemon(&scenario, &replay_cfg.hybrid, 1.0, &trace);
    let second = replay_daemon(&scenario, &replay_cfg.hybrid, 1.0, &trace);
    assert_eq!(
        serde_json::to_string(&first).expect("books serialize"),
        serde_json::to_string(&second).expect("books serialize"),
        "daemon-mode replay must be bit-identical across runs"
    );
    assert!(first.conservation_ok, "replay conservation: {first:?}");
    assert_eq!(first.records, summary.accepted);
    assert_eq!(
        first.accepted,
        first.served_push + first.served_pull + first.shed + first.timed_out + first.uplink_lost
    );

    // Simulator-mode replay: the same trace through the event-driven
    // simulator, equally deterministic.
    let params = sim_params_for(&trace);
    let sim_a = replay_simulator(&scenario, &replay_cfg.hybrid, &params, &trace);
    let sim_b = replay_simulator(&scenario, &replay_cfg.hybrid, &params, &trace);
    assert_eq!(
        serde_json::to_string(&sim_a).expect("report serializes"),
        serde_json::to_string(&sim_b).expect("report serializes"),
        "sim-mode replay must be bit-identical across runs"
    );
    let generated: u64 = sim_a.per_class.iter().map(|c| c.generated).sum();
    assert_eq!(generated, summary.accepted);
    let _ = std::fs::remove_file(&trace_path);
}

/// Satellite 4 — the HTTP endpoint serves well-formed live JSON while
/// the daemon is under load, and malformed/oversized/non-GET requests
/// are rejected without wedging the endpoint or the scheduler.
#[test]
fn ops_endpoint_serves_live_json_and_rejects_garbage() {
    let mut cfg = base_config();
    cfg.hybrid = HybridConfig {
        cutoff: 30,
        pull: PullPolicyKind::importance(0.5),
        ..HybridConfig::default()
    };
    cfg.serve.unit_millis = 1.0;
    cfg.serve.telemetry_window = 50.0;
    cfg.serve.ops_addr = Some("127.0.0.1:0".into());
    let expected_hash = hex64(config_hash(&cfg.identity_json()));
    let server = ServerHandle::start(cfg).expect("server starts");
    let ops = server.ops_addr().expect("ops endpoint bound");
    let (stream, reader) = client(server.addr());

    // Put real work on the wire, then probe mid-load: a trickle keeps
    // requests in flight while the HTTP thread answers.
    let total = 600u64;
    let feeder = {
        let mut w = stream.try_clone().expect("clone");
        thread::spawn(move || {
            for i in 0..total {
                let frame = RequestFrame {
                    seq: i,
                    class: (i % 3) as u8,
                    item: (i * 7 % 80) as u32,
                    deadline_ms: 0,
                };
                w.write_all(&frame.encode()).expect("send");
                if i % 50 == 0 {
                    thread::sleep(Duration::from_millis(5));
                }
            }
        })
    };

    // /healthz mid-load: well-formed JSON with the run identity.
    let (status, body) = http_get(ops, "/healthz");
    assert_eq!(status, 200, "healthz: {body}");
    let hz: serde_json::Value = serde_json::from_str(&body).expect("healthz is JSON");
    assert_eq!(hz["status"].as_str(), Some("ok"));
    assert_eq!(hz["config_hash"].as_str(), Some(expected_hash.as_str()));

    // /stats mid-load: identity, conserving totals, per-channel books.
    let (status, body) = http_get(ops, "/stats");
    assert_eq!(status, 200, "stats: {body}");
    let stats: serde_json::Value = serde_json::from_str(&body).expect("stats is JSON");
    assert_eq!(
        stats["identity"]["config_hash"].as_str(),
        Some(expected_hash.as_str())
    );
    assert_eq!(stats["totals"]["conservation_ok"].as_bool(), Some(true));
    let per_channel = stats["per_channel"].as_array().expect("per_channel");
    assert_eq!(per_channel.len(), 1);
    assert!(per_channel[0]["cutoff_k"].as_u64().is_some());
    assert!(per_channel[0]["slot_late_ms"]["count"].as_u64().is_some());

    // /config round-trips as a parseable ServeConfig.
    let (status, body) = http_get(ops, "/config");
    assert_eq!(status, 200, "config: {body}");
    assert!(ServeConfig::from_json(&body).is_ok(), "config parses");

    // Hostile traffic: each gets an error status and a closed connection.
    let (status, _) = http_exchange(ops, b"POST /stats HTTP/1.0\r\n\r\n");
    assert_eq!(status, 405, "non-GET method");
    let (status, _) = http_exchange(ops, b"complete garbage\r\n\r\n");
    assert_eq!(status, 400, "malformed request line");
    let (status, _) = http_get(ops, "/no-such-path");
    assert_eq!(status, 404, "unknown path");
    // Oversized head: rejected with 431 — or a hard close (RST) if the
    // server tears down while unread bytes remain in the socket buffer.
    // Either way the connection terminates instead of leaking.
    let oversized = format!("GET /{} HTTP/1.0\r\n\r\n", "x".repeat(8192));
    let mut big = TcpStream::connect(ops).expect("ops connect");
    big.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let _ = big.write_all(oversized.as_bytes());
    let mut raw = Vec::new();
    let _ = big.read_to_end(&mut raw);
    if !raw.is_empty() {
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.starts_with("HTTP/1.0 431"),
            "oversized head must get 431, got {text:?}"
        );
    }
    drop(big);

    // The endpoint survives the abuse and still serves.
    let (status, _) = http_get(ops, "/healthz");
    assert_eq!(status, 200, "endpoint alive after hostile traffic");

    feeder.join().expect("feeder");
    // Let the backlog clear, then a final /stats must show every request
    // accounted for — and the scheduler was never stalled by HTTP.
    thread::sleep(Duration::from_millis(800));
    server.shutdown();
    let summary = server.join().expect("clean shutdown");
    let replies = reader.join().expect("reader");
    assert_eq!(replies.len() as u64, total, "every request answered");
    assert!(summary.conservation_ok, "conservation: {summary:?}");
    assert_eq!(summary.accepted, total);
    drop(stream);
}
