//! `hybridcastd` as a subprocess: the daemon is measured from outside,
//! through its sockets, its `/proc` entry and the summary it prints.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use hybridcast_server::frame::{encode_shutdown, Frame, FrameBatch, RequestFrame};
use hybridcast_server::ServeConfig;
use serde_json::Value;

/// How long a freshly spawned daemon may take to accept a connection.
const START_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a daemon may take to drain and exit after the shutdown frame;
/// past it the process is killed and the run fails.
const STOP_TIMEOUT: Duration = Duration::from_secs(30);

/// An ephemeral loopback port that was free a moment ago.
pub fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    pub ops_addr: Option<SocketAddr>,
}

/// What a stopped daemon left behind.
pub struct Stopped {
    /// The `ServeSummary` JSON printed on stdout.
    pub summary: Value,
    pub exit_code: Option<i32>,
    /// Shutdown frame sent → process exited.
    pub drain: Duration,
}

impl Daemon {
    /// Writes `config` (listen addresses filled in here) to `config_path`
    /// and starts `bin` on it, confined to `cpu` when given; stderr goes to
    /// `log_path`. Returns once the daemon accepts connections.
    pub fn spawn(
        bin: &Path,
        cpu: Option<usize>,
        mut config: ServeConfig,
        with_ops: bool,
        config_path: &Path,
        log_path: &Path,
    ) -> io::Result<Daemon> {
        let addr = SocketAddr::from(([127, 0, 0, 1], free_port()?));
        let ops_addr = match with_ops {
            true => Some(SocketAddr::from(([127, 0, 0, 1], free_port()?))),
            false => None,
        };
        config.serve.addr = addr.to_string();
        config.serve.ops_addr = ops_addr.map(|a| a.to_string());
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        fs::write(config_path, config.to_json())?;
        let mut cmd = match cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.arg("-c").arg(cpu.to_string()).arg(bin);
                c
            }
            None => Command::new(bin),
        };
        let child = cmd
            .arg("--config")
            .arg(config_path)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(log_path)?)
            .spawn()?;
        let mut daemon = Daemon {
            child,
            addr,
            ops_addr,
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if TcpStream::connect(addr).is_ok() {
                return Ok(daemon);
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "hybridcastd exited during start-up ({status}); see {}",
                    log_path.display()
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other(
                    "hybridcastd did not start listening in time",
                ));
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one request on a fresh connection and blocks until its reply:
    /// the "first result" that ends set-up.
    pub fn first_reply(&self, item: u32) -> io::Result<()> {
        let mut s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(START_TIMEOUT))?;
        let req = RequestFrame {
            seq: u64::MAX,
            class: 0,
            item,
            deadline_ms: 0,
        };
        s.write_all(&req.encode())?;
        let mut batch = FrameBatch::new();
        let mut buf = [0u8; 64];
        loop {
            let n = s.read(&mut buf)?;
            if n == 0 {
                return Err(io::Error::other("daemon closed the set-up connection"));
            }
            batch.extend(&buf[..n]);
            match batch.decode_next() {
                Ok(Some(Frame::Reply(rep))) if rep.seq == u64::MAX && rep.item == item => {
                    return Ok(())
                }
                Ok(None) => {}
                other => return Err(io::Error::other(format!("set-up reply: {other:?}"))),
            }
        }
    }

    /// Graceful stop through the in-band shutdown frame (the daemon's
    /// SIGTERM equivalent): drains, prints its summary, exits.
    pub fn stop(mut self) -> io::Result<Stopped> {
        let asked = Instant::now();
        TcpStream::connect(self.addr)?.write_all(&encode_shutdown())?;
        let mut stdout = self.child.stdout.take().expect("stdout was piped");
        // The summary is a few KiB: it fits the pipe, so polling for exit
        // first and reading afterwards cannot deadlock.
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if asked.elapsed() > STOP_TIMEOUT {
                return Err(io::Error::other(
                    "hybridcastd did not exit after the shutdown frame",
                ));
            }
            thread::sleep(Duration::from_millis(1));
        };
        let drain = asked.elapsed();
        let mut text = String::new();
        stdout.read_to_string(&mut text)?;
        let summary = serde_json::from_str::<Value>(&text)
            .map_err(|e| io::Error::other(format!("daemon summary is not JSON ({e}): {text:?}")))?;
        Ok(Stopped {
            summary,
            exit_code: status.code(),
            drain,
        })
    }

    /// `GET path` on the ops endpoint (HTTP/1.0, connection-close).
    pub fn ops_get(&self, path: &str) -> io::Result<Value> {
        let addr = self
            .ops_addr
            .ok_or_else(|| io::Error::other("daemon runs without an ops endpoint"))?;
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(2)))?;
        s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
        let mut text = String::new();
        s.read_to_string(&mut text)?;
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b)
            .ok_or_else(|| io::Error::other("ops reply has no header/body split"))?;
        serde_json::from_str::<Value>(body).map_err(|e| io::Error::other(format!("{path}: {e}")))
    }
}

impl Drop for Daemon {
    /// No daemon outlives the benchmark, whatever path the run took.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Where a workload's daemon config and log go.
pub fn artifact_paths(out_dir: &Path, workload: &str) -> (PathBuf, PathBuf) {
    (
        out_dir.join(format!("{workload}.config.json")),
        out_dir.join(format!("{workload}.daemon.log")),
    )
}

/// `u64` field of a JSON object, or an error naming it.
pub fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("daemon summary lacks integer field {key:?}"))
}
