//! End-to-end daemon tests over loopback TCP: differentiated QoS under
//! real sockets, explicit shedding at the ingress bound, and graceful
//! shutdown with reply conservation.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use hybridcast_core::config::HybridConfig;
use hybridcast_core::pull::PullPolicyKind;
use hybridcast_server::frame::{encode_shutdown, read_frame, ReplyFrame, RequestFrame, OP_REPLY};
use hybridcast_server::loadgen::{run_loadgen, LoadgenConfig};
use hybridcast_server::{ReplyStatus, ServeConfig, ServerHandle};

fn base_config() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.serve.addr = "127.0.0.1:0".into();
    cfg.serve.results_path = None;
    cfg.serve.drain_timeout_ms = 5_000;
    cfg
}

/// Connects and spawns a reply-collector thread (decoupling reads from
/// writes so neither side's socket buffer can deadlock a blast).
fn client(addr: std::net::SocketAddr) -> (TcpStream, thread::JoinHandle<Vec<ReplyFrame>>) {
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

/// (a) Per-class mean delay ordering A ≤ B ≤ C under the pure-priority
/// pull policy: each class hammers its own pull item, so the premium
/// class's item always wins selection.
#[test]
fn per_class_delay_ordering_over_loopback() {
    let mut cfg = base_config();
    cfg.hybrid = HybridConfig {
        cutoff: 0, // pure pull server
        pull: PullPolicyKind::importance(0.0),
        ..HybridConfig::default()
    };
    cfg.serve.unit_millis = 10.0;
    let server = ServerHandle::start(cfg).expect("server starts");
    let (mut stream, reader) = client(server.addr());

    // One interleaved burst, written back-to-back: the whole backlog is
    // queued while the first transmission (≥ 10 ms) is still on the air,
    // so subsequent selection is a clean priority contest over standing
    // per-class entries — premium drains first, best-effort last.
    let rounds = 40u64;
    let mut burst = Vec::new();
    for r in 0..rounds {
        for class in 0u8..3 {
            burst.extend_from_slice(
                &RequestFrame {
                    seq: 3 * r + class as u64,
                    class,
                    item: 40 + class as u32,
                    deadline_ms: 0,
                }
                .encode(),
            );
        }
    }
    stream.write_all(&burst).expect("send burst");
    // Let the backlog clear, then shut down so the reader sees EOF.
    thread::sleep(Duration::from_millis(1500));
    server.shutdown();
    let summary = server.join().expect("clean shutdown");
    let replies = reader.join().expect("reader");

    assert_eq!(replies.len() as u64, 3 * rounds, "every request answered");
    let mut mean = [0.0f64; 3];
    let mut count = [0u64; 3];
    for rep in &replies {
        assert!(
            rep.status.is_served(),
            "no deadline, no admission control: all served, got {:?}",
            rep.status
        );
        let class = (rep.seq % 3) as usize;
        mean[class] += rep.wait_ms;
        count[class] += 1;
    }
    for c in 0..3 {
        assert_eq!(count[c], rounds);
        mean[c] /= rounds as f64;
    }
    // Strict priority selection: premium waits least. Allow a whisker of
    // wall-clock slack — the ordering gap is many milliseconds.
    assert!(
        mean[0] <= mean[1] + 0.5 && mean[1] <= mean[2] + 0.5,
        "per-class mean wait not ordered: A={:.2}ms B={:.2}ms C={:.2}ms",
        mean[0],
        mean[1],
        mean[2]
    );
    assert!(summary.conservation_ok, "conservation: {summary:?}");
}

/// (b) Backpressure: a tiny ingress bound under a blast produces explicit
/// `Shed` replies — and *only* overflow sheds them (an idle daemon serves
/// a lone request; nothing is silently dropped).
#[test]
fn ingress_bound_sheds_explicitly_and_loses_nothing() {
    let mut cfg = base_config();
    cfg.hybrid = HybridConfig {
        cutoff: 0,
        pull: PullPolicyKind::importance(0.5),
        ..HybridConfig::default()
    };
    cfg.serve.unit_millis = 5.0;
    cfg.serve.ingress_capacity = 2;
    let server = ServerHandle::start(cfg).expect("server starts");

    // Under capacity: a lone request is served, never shed.
    let (mut probe, probe_reader) = client(server.addr());
    send(&mut probe, 0, 0, 10);
    thread::sleep(Duration::from_millis(150));
    drop(probe); // EOF ends the probe's reader

    // Now blast far past the bound from several open-loop connections.
    let report = run_loadgen(&LoadgenConfig {
        addr: server.addr().to_string(),
        rps: 40_000.0,
        connections: 4,
        duration_secs: 0.25,
        seed: 7,
        num_items: 100,
        zipf_theta: 0.6,
        class_shares: vec![2.0 / 11.0, 3.0 / 11.0, 6.0 / 11.0],
        deadline_ms: 0,
        grace_ms: 5_000,
    })
    .expect("loadgen runs");

    server.shutdown();
    let summary = server.join().expect("clean shutdown");
    let probe_replies = probe_reader.join().expect("probe reader");

    assert_eq!(probe_replies.len(), 1);
    assert!(
        probe_replies[0].status.is_served(),
        "lone request under the bound must be served, got {:?}",
        probe_replies[0].status
    );
    assert!(report.sent > 1_000, "blast actually ran: {}", report.sent);
    assert_eq!(
        report.unanswered, 0,
        "every accepted frame answered: {report:?}"
    );
    assert!(
        report.shed > 0,
        "a capacity-2 ingress under a 40k rps blast must shed: {report:?}"
    );
    assert!(
        report.served > 0,
        "the daemon still served work: {report:?}"
    );
    assert!(summary.conservation_ok, "conservation: {summary:?}");
    assert_eq!(
        summary.accepted,
        summary.served() + summary.shed + summary.timed_out + summary.uplink_lost
    );
}

/// Loadgen with several workers (one per connection up to four), so the
/// per-worker tallies go through the merge: every class that was served
/// reports known quantiles, ordered and below its maximum, over exactly
/// its served replies.
#[test]
fn loadgen_merges_worker_tallies_into_ordered_quantiles() {
    let mut cfg = base_config();
    cfg.hybrid = HybridConfig {
        cutoff: 30, // mixed push/pull
        pull: PullPolicyKind::importance(0.5),
        ..HybridConfig::default()
    };
    cfg.serve.unit_millis = 0.5;
    let server = ServerHandle::start(cfg).expect("server starts");
    let report = run_loadgen(&LoadgenConfig {
        addr: server.addr().to_string(),
        rps: 2_000.0,
        connections: 4,
        duration_secs: 0.5,
        seed: 11,
        grace_ms: 5_000,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");
    server.shutdown();
    let summary = server.join().expect("clean shutdown");

    assert_eq!(report.unanswered, 0, "{report:?}");
    assert!(report.served > 0, "{report:?}");
    for class in &report.per_class {
        let rtt = &class.rtt_ms;
        assert_eq!(rtt.count, class.served_push + class.served_pull);
        if rtt.count == 0 {
            continue;
        }
        let known = |q: Option<f64>| q.expect("served class has quantiles");
        let (p50, p95, p99, max) = (
            known(rtt.p50),
            known(rtt.p95),
            known(rtt.p99),
            known(rtt.max),
        );
        assert!(
            p50 <= p95 && p95 <= p99 && p99 <= max,
            "class {}: {rtt:?}",
            class.class
        );
    }
    assert!(summary.conservation_ok, "conservation: {summary:?}");
}

/// (c) Graceful shutdown: queued pulls drain, every outstanding request
/// gets a reply, and the telemetry JSONL closes with a conservation-clean
/// summary line.
#[test]
fn shutdown_drains_and_telemetry_conserves() {
    let results = std::env::temp_dir().join(format!(
        "hybridcast-serve-test-{}.jsonl",
        std::process::id()
    ));
    let mut cfg = base_config();
    cfg.hybrid = HybridConfig {
        cutoff: 30, // mixed push/pull
        pull: PullPolicyKind::importance(0.5),
        ..HybridConfig::default()
    };
    cfg.serve.unit_millis = 1.0;
    cfg.serve.telemetry_window = 50.0;
    cfg.serve.results_path = Some(results.display().to_string());
    let server = ServerHandle::start(cfg).expect("server starts");
    let (mut stream, reader) = client(server.addr());

    let total = 200u64;
    for i in 0..total {
        // Mix of push items (< 30) and pull items (≥ 30), cycling classes.
        let item = (i * 7 % 60) as u32;
        send(&mut stream, i, (i % 3) as u8, item);
    }
    // Shut down immediately via the in-band frame, while work is queued.
    stream
        .write_all(&encode_shutdown())
        .expect("shutdown frame");

    let replies = reader.join().expect("reader sees EOF after drain");
    let summary = server.join().expect("clean shutdown");

    assert_eq!(replies.len() as u64, total, "drain answers everything");
    let served = replies.iter().filter(|r| r.status.is_served()).count();
    let shed = replies
        .iter()
        .filter(|r| r.status == ReplyStatus::Shed)
        .count();
    assert!(served > 0, "drain must finish in-flight work");
    assert_eq!(served + shed, total as usize);
    assert_eq!(summary.accepted, total);
    assert!(summary.conservation_ok, "conservation: {summary:?}");

    // The JSONL stream: header first, summary last, windows in between.
    let text = std::fs::read_to_string(&results).expect("results written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "header + summary at minimum");
    let header: serde_json::Value = serde_json::from_str(lines[0]).expect("header parses");
    assert_eq!(header["kind"].as_str(), Some("header"));
    let footer: serde_json::Value =
        serde_json::from_str(lines[lines.len() - 1]).expect("summary parses");
    assert_eq!(footer["kind"].as_str(), Some("summary"));
    assert_eq!(footer["summary"]["conservation_ok"].as_bool(), Some(true));
    assert_eq!(footer["summary"]["accepted"].as_u64(), Some(total));
    for line in &lines[1..lines.len() - 1] {
        let w: serde_json::Value = serde_json::from_str(line).expect("window parses");
        assert_eq!(w["kind"].as_str(), Some("window"));
    }
    let _ = std::fs::remove_file(&results);
}

/// Requests for out-of-range items or classes are answered (shed), not
/// silently dropped, and don't poison the connection.
#[test]
fn malformed_requests_are_answered_not_dropped() {
    let cfg = base_config();
    let server = ServerHandle::start(cfg).expect("server starts");
    let (mut stream, reader) = client(server.addr());

    send(&mut stream, 1, 250, 5); // class out of range
    send(&mut stream, 2, 0, 1_000_000); // item out of range
    send(&mut stream, 3, 0, 5); // valid chaser
    thread::sleep(Duration::from_millis(300));
    server.shutdown();
    let summary = server.join().expect("clean shutdown");
    let replies = reader.join().expect("reader");

    assert_eq!(replies.len(), 3);
    let by_seq = |s: u64| replies.iter().find(|r| r.seq == s).expect("reply");
    assert_eq!(by_seq(1).status, ReplyStatus::Shed);
    assert_eq!(by_seq(2).status, ReplyStatus::Shed);
    assert!(by_seq(3).status.is_served());
    assert!(summary.conservation_ok);
    assert_eq!(summary.accepted, 3);
}

/// The contended-uplink model answers lossy requests with `UplinkLost`
/// and still conserves replies.
#[test]
fn uplink_losses_surface_as_replies() {
    use hybridcast_core::uplink::UplinkConfig;
    let mut cfg = base_config();
    cfg.hybrid.uplink = Some(UplinkConfig {
        success_prob: 0.3,
        max_attempts: 1, // 70% losses, decided instantly
        slot_time: 0.05,
        backoff_slots: 0.0,
    });
    let server = ServerHandle::start(cfg).expect("server starts");
    let (mut stream, reader) = client(server.addr());

    let total = 120u64;
    for i in 0..total {
        send(&mut stream, i, (i % 3) as u8, (i % 50) as u32);
    }
    thread::sleep(Duration::from_millis(400));
    server.shutdown();
    let summary = server.join().expect("clean shutdown");
    let replies = reader.join().expect("reader");

    assert_eq!(replies.len() as u64, total);
    let lost = replies
        .iter()
        .filter(|r| r.status == ReplyStatus::UplinkLost)
        .count();
    assert!(
        lost > 0,
        "p=0.3 single-attempt uplink over 120 requests must lose some"
    );
    assert_eq!(summary.uplink_lost, lost as u64);
    assert!(summary.conservation_ok, "conservation: {summary:?}");
}

/// Sharded daemon at C = 2: every request is answered, the conservation
/// identity closes on each channel *and* globally, and both channels
/// actually carry traffic.
#[test]
fn sharded_daemon_conserves_per_channel_and_globally() {
    use hybridcast_core::config::{AssignmentStrategy, ChannelLayout};
    let results = std::env::temp_dir().join(format!(
        "hybridcast-serve-sharded-{}.jsonl",
        std::process::id()
    ));
    let mut cfg = base_config();
    cfg.hybrid = HybridConfig {
        cutoff: 30, // mixed push/pull, spread over both channels
        pull: PullPolicyKind::importance(0.5),
        channels: ChannelLayout::Sharded {
            channels: 2,
            assignment: AssignmentStrategy::PatternAware,
        },
        ..HybridConfig::default()
    };
    cfg.serve.unit_millis = 1.0;
    cfg.serve.telemetry_window = 50.0;
    cfg.serve.results_path = Some(results.display().to_string());
    let server = ServerHandle::start(cfg).expect("server starts");
    let (mut stream, reader) = client(server.addr());

    let total = 300u64;
    for i in 0..total {
        // Stride across the catalog so both channels see push and pull
        // items regardless of how the plan splits them.
        let item = (i * 7 % 80) as u32;
        send(&mut stream, i, (i % 3) as u8, item);
    }
    stream
        .write_all(&encode_shutdown())
        .expect("shutdown frame");

    let replies = reader.join().expect("reader sees EOF after drain");
    let summary = server.join().expect("clean shutdown");

    assert_eq!(replies.len() as u64, total, "drain answers everything");
    assert_eq!(summary.channels, 2);
    assert_eq!(summary.per_channel.len(), 2);
    assert_eq!(summary.accepted, total);
    assert!(summary.conservation_ok, "global conservation: {summary:?}");
    let mut accepted_sum = 0u64;
    for ch in &summary.per_channel {
        assert!(
            ch.conservation_ok,
            "channel {} must balance its own books: {ch:?}",
            ch.channel
        );
        assert_eq!(
            ch.accepted,
            ch.served_push + ch.served_pull + ch.shed + ch.timed_out + ch.uplink_lost
        );
        assert!(
            ch.accepted > 0,
            "channel {} saw no traffic under a striding client",
            ch.channel
        );
        accepted_sum += ch.accepted;
    }
    assert_eq!(accepted_sum, summary.accepted);
    // One lateness sample per transmission, merged over both channels.
    assert!(summary.push_tx > 0 && summary.pull_tx > 0);
    assert_eq!(
        summary.slot_late_ms.count,
        summary.push_tx + summary.pull_tx
    );

    // Window lines carry a channel tag; both channels stream telemetry.
    let text = std::fs::read_to_string(&results).expect("results written");
    let lines: Vec<&str> = text.lines().collect();
    let header: serde_json::Value = serde_json::from_str(lines[0]).expect("header parses");
    assert_eq!(header["channels"].as_u64(), Some(2));
    for line in &lines[1..lines.len() - 1] {
        let w: serde_json::Value = serde_json::from_str(line).expect("window parses");
        assert_eq!(w["kind"].as_str(), Some("window"));
        assert!(w["channel"].as_u64().unwrap_or(99) < 2);
    }
    let _ = std::fs::remove_file(&results);
}

/// The split layout on the daemon: one scheduler thread airs a dedicated
/// broadcast transmitter and two pull transmitters. Under a loadgen run
/// the books conserve globally and per class, both kinds of transmitter
/// serve, and the recorded trace replays to bit-identical books.
#[test]
fn split_daemon_serves_push_and_pull_and_replays_bit_identically() {
    use hybridcast_core::config::ChannelLayout;
    use hybridcast_ops::{replay_daemon, Trace};
    let trace_path =
        std::env::temp_dir().join(format!("hybridcast-serve-split-{}.hct", std::process::id()));
    let mut cfg = base_config();
    cfg.hybrid = HybridConfig {
        cutoff: 30,
        pull: PullPolicyKind::importance(0.5),
        channels: ChannelLayout::Split { pull_channels: 2 },
        ..HybridConfig::default()
    };
    cfg.serve.unit_millis = 0.5;
    cfg.serve.trace_path = Some(trace_path.display().to_string());
    let replay_cfg = cfg.clone();
    let server = ServerHandle::start(cfg).expect("the daemon serves the split layout");
    let report = run_loadgen(&LoadgenConfig {
        addr: server.addr().to_string(),
        rps: 2_000.0,
        connections: 2,
        duration_secs: 0.5,
        seed: 13,
        grace_ms: 5_000,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");
    server.shutdown();
    let summary = server.join().expect("clean shutdown");

    assert_eq!(report.unanswered, 0, "{report:?}");
    assert_eq!(summary.channels, 1, "one shard, one scheduler thread");
    assert!(summary.conservation_ok, "conservation: {summary:?}");
    let answered = |served, shed, timed_out, lost| served + shed + timed_out + lost;
    assert_eq!(
        summary.accepted,
        answered(
            summary.served(),
            summary.shed,
            summary.timed_out,
            summary.uplink_lost
        )
    );
    for class in &summary.per_class {
        let served = class.served_push + class.served_pull;
        assert_eq!(
            class.accepted,
            answered(served, class.shed, class.timed_out, class.uplink_lost),
            "{}: {class:?}",
            class.name
        );
    }
    let per_class: u64 = summary.per_class.iter().map(|c| c.accepted).sum();
    assert_eq!(per_class, summary.accepted);
    assert!(
        summary.served_push > 0 && summary.served_pull > 0,
        "{summary:?}"
    );
    assert_eq!(
        summary.slot_late_ms.count,
        summary.push_tx + summary.pull_tx,
        "one lateness sample per transmission, on every transmitter"
    );

    let trace = Trace::read(&trace_path).expect("trace reads");
    assert!(!trace.records.is_empty());
    let scenario = replay_cfg.scenario.build();
    let replay = || {
        replay_daemon(
            &scenario,
            &replay_cfg.hybrid,
            trace.meta.unit_millis,
            &trace,
        )
    };
    let (first, second) = (replay(), replay());
    assert_eq!(
        serde_json::to_string(&first).expect("books serialize"),
        serde_json::to_string(&second).expect("books serialize"),
        "daemon-mode replay must be bit-identical across runs"
    );
    assert!(first.conservation_ok, "replay conservation: {first:?}");
    assert!(first.served_push > 0 && first.served_pull > 0, "{first:?}");
    let _ = std::fs::remove_file(&trace_path);
}

/// Requests one push slot answers come back in the order they went in:
/// three requests for item 1, filed while item 0 is on the air, are all
/// served by item 1's next slot and reach the connection as seq 0, 1, 2.
#[test]
fn push_replies_within_a_slot_keep_ingest_order() {
    let mut cfg = base_config();
    cfg.serve.unit_millis = 25.0; // item 0 stays on the air for >= 25 ms
    let server = ServerHandle::start(cfg).expect("server starts");
    let (mut stream, reader) = client(server.addr());

    send(&mut stream, 100, 0, 0); // starts the cycle at item 0
    thread::sleep(Duration::from_millis(5));
    let mut trio = Vec::new();
    for seq in 0..3u64 {
        let frame = RequestFrame {
            seq,
            class: (2 - seq) as u8, // priority order reversed: it must not matter
            item: 1,
            deadline_ms: 0,
        };
        trio.extend_from_slice(&frame.encode());
    }
    stream.write_all(&trio).expect("send trio");
    thread::sleep(Duration::from_millis(600));
    server.shutdown();
    let summary = server.join().expect("clean shutdown");
    let replies = reader.join().expect("reader");

    let trio: Vec<&ReplyFrame> = replies.iter().filter(|r| r.item == 1).collect();
    assert_eq!(
        trio.iter().map(|r| r.seq).collect::<Vec<_>>(),
        [0, 1, 2],
        "{replies:?}"
    );
    assert!(trio.iter().all(|r| r.status == ReplyStatus::ServedPush));
    assert_eq!(replies.len(), 4);
    assert_eq!(
        summary.push_tx, 2,
        "item 0's slot, then one slot for the trio"
    );
    assert!(summary.conservation_ok, "conservation: {summary:?}");
}

/// A connection the daemon closes is closed: the peer sees EOF there and
/// then, not when the last request it had outstanding resolves. The
/// socket used to live as long as any request held a handle to it — here
/// until both transmissions (≥ 2 s each) had aired, and forever for a
/// request the schedule never serves.
#[test]
fn a_closed_connection_is_closed_with_requests_outstanding() {
    use std::io::Read;
    use std::time::Instant;
    let mut cfg = base_config();
    cfg.hybrid = HybridConfig {
        cutoff: 0, // pure pull: nothing resolves before a transmission ends
        pull: PullPolicyKind::importance(0.5),
        ..HybridConfig::default()
    };
    cfg.serve.unit_millis = 2_000.0; // the shortest transmission takes 2 s
    cfg.serve.drain_timeout_ms = 0; // shutdown sheds what is left at once
    let server = ServerHandle::start(cfg).expect("server starts");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    // Two requests for different pull items, then a length prefix no frame
    // can have — one write, so the loop reads all three together.
    let mut bytes = Vec::new();
    for (seq, item) in [(0u64, 10u32), (1, 20)] {
        let frame = RequestFrame {
            seq,
            class: 0,
            item,
            deadline_ms: 0,
        };
        bytes.extend_from_slice(&frame.encode());
    }
    bytes.extend_from_slice(&1_000_000u32.to_le_bytes());
    let sent = Instant::now();
    stream.write_all(&bytes).expect("send");

    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf).expect("EOF, not a timeout");
    assert_eq!(n, 0, "a protocol error closes the connection: no reply");
    assert!(
        sent.elapsed() < Duration::from_secs(1),
        "EOF took {:?}: the first transmission cannot end before 2 s",
        sent.elapsed()
    );

    server.shutdown();
    let summary = server.join().expect("clean shutdown");
    assert_eq!(summary.accepted, 2, "both requests preceded the bad frame");
    assert!(summary.conservation_ok, "conservation: {summary:?}");
    assert_eq!(summary.stalled_conns, 0);
}

/// A client that goes away with requests outstanding costs nothing: its
/// replies find no connection and are dropped, every request still counts
/// as answered, and a vanished peer is not a *stalled* one.
#[test]
fn client_disconnecting_with_requests_outstanding_conserves() {
    let mut cfg = base_config();
    cfg.hybrid = HybridConfig {
        cutoff: 0,
        pull: PullPolicyKind::importance(0.5),
        ..HybridConfig::default()
    };
    cfg.serve.unit_millis = 20.0; // the backlog outlives the client
    let server = ServerHandle::start(cfg).expect("server starts");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let total = 60u64;
    for i in 0..total {
        send(&mut stream, i, (i % 3) as u8, 10 + (i % 20) as u32);
    }
    drop(stream);
    // A bystander on the other loop is served throughout.
    let (mut other, reader) = client(server.addr());
    send(&mut other, 1_000, 0, 5);
    thread::sleep(Duration::from_millis(300));
    server.shutdown();
    let summary = server.join().expect("clean shutdown");
    let replies = reader.join().expect("reader");

    assert_eq!(replies.len(), 1, "{replies:?}");
    assert_eq!(replies[0].seq, 1_000);
    assert_eq!(summary.accepted, total + 1);
    assert!(summary.conservation_ok, "conservation: {summary:?}");
    assert_eq!(
        summary.served() + summary.shed + summary.timed_out + summary.uplink_lost,
        summary.accepted,
        "every request answered, listener or not: {summary:?}"
    );
    assert_eq!(summary.stalled_conns, 0, "gone is not stalled");
}

/// The wire-level sanity check used by docs/examples: a request round
/// trip straight against a fresh daemon.
#[test]
fn single_request_round_trip() {
    let server = ServerHandle::start(base_config()).expect("server starts");
    let (mut stream, reader) = client(server.addr());
    send(&mut stream, 42, 0, 0); // item 0 is in the default push set
                                 // Wait generously for the broadcast to come around (flat cycle over
                                 // K=40 items at 1 ms/unit ≈ 80 ms).
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(reader.join());
    });
    thread::sleep(Duration::from_millis(500));
    server.shutdown();
    let summary = server.join().expect("clean shutdown");
    let replies = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("reader finished")
        .expect("reader thread");
    assert_eq!(replies.len(), 1);
    assert_eq!(replies[0].seq, 42);
    assert_eq!(replies[0].status, ReplyStatus::ServedPush);
    assert!(replies[0].wait_ms >= 0.0);
    assert_eq!(summary.served_push, 1);
}
