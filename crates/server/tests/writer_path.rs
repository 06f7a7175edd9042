//! Writer-path end-to-end tests: the `writev` flush discipline under a
//! slow reader (short writes + `EPOLLOUT` resumption lose and duplicate
//! nothing) and the bounded outbound queue (a stalled reader is killed,
//! counted, and doesn't break conservation).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::thread;
use std::time::Duration;

use hybridcast_core::config::HybridConfig;
use hybridcast_core::pull::PullPolicyKind;
use hybridcast_server::frame::{Frame, FrameBatch, RequestFrame};
use hybridcast_server::poll::set_recv_buffer;
use hybridcast_server::{ServeConfig, ServerHandle};

const REPLY_WIRE: usize = 26;

fn base_config() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.serve.addr = "127.0.0.1:0".into();
    cfg.serve.results_path = None;
    cfg.serve.drain_timeout_ms = 5_000;
    cfg.hybrid = HybridConfig {
        cutoff: 0, // pure pull: replies come in large per-transmission batches
        pull: PullPolicyKind::importance(0.5),
        ..HybridConfig::default()
    };
    cfg
}

fn request_blast(n: u64, item: u32) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(n as usize * 22);
    for seq in 0..n {
        bytes.extend_from_slice(
            &RequestFrame {
                seq,
                class: 0,
                item,
                deadline_ms: 0,
            }
            .encode(),
        );
    }
    bytes
}

/// A reader that stops reading long enough for ~half a megabyte of
/// replies to back up forces the server through real short writes: the
/// client's receive buffer is pinned tiny (which also disables kernel
/// receive autotuning), so the server's flush hits `WouldBlock` with a
/// partial `writev` almost every time the window reopens — and reopens
/// land at arbitrary byte offsets, exercising mid-entry resumption.
/// Every reply must still arrive exactly once.
#[test]
fn slow_reader_short_writes_lose_nothing() {
    let total: u64 = 20_000;
    let mut cfg = base_config();
    cfg.serve.ingress_capacity = 40_000;
    cfg.serve.conn_outbound_kib = 4_096; // plenty: this test must NOT stall-kill
    let server = ServerHandle::start(cfg).expect("server starts");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Small enough to pin the kernel pipe far below the reply volume
    // (guaranteeing a server-side backlog and short writes), but at least
    // half the loopback MSS so window updates aren't throttled onto the
    // 40 ms delayed-ACK timer by silly-window avoidance.
    set_recv_buffer(stream.as_raw_fd(), 16_384).expect("shrink rcvbuf");

    stream
        .write_all(&request_blast(total, 10))
        .expect("send blast");
    // Stall: let the scheduler answer everything while we read nothing.
    // 20k replies × 26 B ≈ 520 KB against a ~50 KB kernel pipe — the
    // server's outbound queues are guaranteed to hold a large backlog.
    thread::sleep(Duration::from_millis(700));

    let want = total as usize * REPLY_WIRE;
    let mut wire = Vec::with_capacity(want);
    let mut chunk = [0u8; 1_500];
    // Trickle phase: tiny reads with pauses, so the window reopens in
    // small arbitrary amounts and the server resumes mid-entry many times.
    for _ in 0..15 {
        let n = (&stream).read(&mut chunk).expect("trickle read");
        assert!(n > 0, "server closed early");
        wire.extend_from_slice(&chunk[..n]);
        thread::sleep(Duration::from_millis(2));
    }
    // Then drain at full speed until every reply byte arrived.
    let mut big = [0u8; 64 * 1024];
    while wire.len() < want {
        let n = (&stream).read(&mut big).expect("drain read");
        assert!(
            n > 0,
            "EOF before all replies arrived: {} / {want}",
            wire.len()
        );
        wire.extend_from_slice(&big[..n]);
    }
    assert_eq!(wire.len(), want, "no trailing bytes beyond the replies");

    let mut seen = vec![false; total as usize];
    let mut batch = FrameBatch::new();
    batch.extend(&wire);
    let mut count = 0u64;
    while let Some(frame) = batch.decode_next().expect("replies decode") {
        let Frame::Reply(rep) = frame else {
            panic!("server sent a non-reply frame");
        };
        let i = rep.seq as usize;
        assert!(i < seen.len(), "unknown seq {}", rep.seq);
        assert!(!seen[i], "duplicate reply for seq {}", rep.seq);
        seen[i] = true;
        count += 1;
    }
    assert!(batch.at_boundary());
    assert_eq!(count, total, "every request answered exactly once");

    server.shutdown();
    let summary = server.join().expect("clean shutdown");
    assert!(summary.conservation_ok, "conservation: {summary:?}");
    assert_eq!(summary.accepted, total);
    assert_eq!(summary.stalled_conns, 0, "a slow reader is not a stall");
    assert_eq!(summary.accept_errors, 0);
}

/// A reader that *never* drains past the per-connection outbound bound is
/// killed: the connection drops, `stalled_conns` ticks, and — because
/// replies are counted when the scheduler issues them, dead peer or not —
/// conservation still holds.
#[test]
fn stalled_reader_is_shed_with_ledger_notice() {
    let total: u64 = 6_000;
    let mut cfg = base_config();
    cfg.serve.unit_millis = 50.0; // slow downlink: the backlog aggregates
    cfg.serve.ingress_capacity = 10_000;
    cfg.serve.conn_outbound_kib = 8; // 8 KiB ≈ 315 replies: one pull batch trips it
    let server = ServerHandle::start(cfg).expect("server starts");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .write_all(&request_blast(total, 10))
        .expect("send blast");

    // Never read. The first transmission answers the early trickle; the
    // second carries thousands of replies in one batch, blowing the 8 KiB
    // bound at enqueue time regardless of kernel socket buffering.
    thread::sleep(Duration::from_millis(1_200));
    server.shutdown();
    let summary = server.join().expect("clean shutdown");
    drop(stream);

    assert_eq!(summary.stalled_conns, 1, "summary: {summary:?}");
    assert_eq!(summary.accepted, total);
    assert!(summary.conservation_ok, "conservation: {summary:?}");
    assert_eq!(
        summary.served() + summary.shed + summary.timed_out + summary.uplink_lost,
        total,
        "dead peer's replies still counted: {summary:?}"
    );
}
