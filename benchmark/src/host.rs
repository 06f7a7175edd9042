//! Host fingerprint stamped into every output file, and the noise checks
//! that mark a run `noisy` instead of silently reporting it.

use std::fs;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

use serde::Serialize;

use crate::procfs;

/// Cores' worth of CPU other processes may burn during the start-of-run
/// probe before the run is marked noisy.
pub const BUSY_LIMIT_CORES: f64 = 0.25;
/// Length of that probe.
const BUSY_PROBE: Duration = Duration::from_millis(250);
/// Generator lateness (p99, ms) above which a run is marked noisy.
pub const LATE_P99_LIMIT_MS: f64 = 2.0;

/// Environment variable naming the CPU reserved for the daemon, set by the
/// first `hcbench` process for the one it re-executes under `taskset`.
pub const PIN_ENV: &str = "HCBENCH_PIN";

/// CPUs this process may run on (`Cpus_allowed_list` of `/proc/self/status`,
/// e.g. `0-1` or `0-3,8-11`), ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return Vec::new();
    };
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi.min(lo + 4096));
        }
    }
    cpus
}

#[derive(Debug, Clone, Serialize)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    /// `scaling_governor` of cpu0 when the host exposes it.
    pub governor: Option<String>,
    pub kernel: String,
    pub rustc: String,
    /// `git rev-parse HEAD`, or `null` outside a git checkout.
    pub git_rev: Option<String>,
    pub loadavg_1m_at_start: Option<f64>,
    /// Cores' worth of CPU in use on the whole host while this process
    /// slept for a quarter second at start, i.e. by everything else.
    pub busy_cores_at_start: Option<f64>,
    /// `"daemon on cpu A, benchmark on cpu B"`, or why nothing is pinned.
    pub pinning: String,
    /// Traffic never leaves the host: numbers say nothing about a real link.
    pub transport: &'static str,
}

fn first_line(path: &str) -> Option<String> {
    Some(
        fs::read_to_string(path)
            .ok()?
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

impl Fingerprint {
    pub fn collect(repo_root: &Path, pinning: String) -> Fingerprint {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: online_cpus(),
            cpu_model,
            governor: first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
            kernel: first_line("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["--version"], repo_root)
                .unwrap_or_else(|| "unknown".into()),
            git_rev: command_line("git", &["rev-parse", "HEAD"], repo_root),
            loadavg_1m_at_start: procfs::loadavg_1m(),
            busy_cores_at_start: busy_cores(BUSY_PROBE),
            pinning,
            transport: "loopback TCP (127.0.0.1), no real link",
        }
    }

    /// Reasons this host state makes timings untrustworthy (empty = quiet).
    ///
    /// The probe, not the 1-minute load average, decides: runs follow each
    /// other within seconds, so the average still holds the previous run's
    /// own load and would flag every run but the first.
    pub fn noise_reasons(&self) -> Vec<String> {
        match self.busy_cores_at_start {
            Some(busy) if busy > BUSY_LIMIT_CORES => vec![format!(
                "other processes used {busy:.2} cores at start (limit {BUSY_LIMIT_CORES}, \
                 1-minute loadavg {}): the cores are shared",
                self.loadavg_1m_at_start
                    .map_or("unknown".into(), |l| format!("{l:.2}")),
            )],
            _ => Vec::new(),
        }
    }
}

/// CPUs online in this VM or container (`cpuN` lines of `/proc/stat`); the
/// affinity mask of a pinned run would say 1.
fn online_cpus() -> usize {
    fs::read_to_string("/proc/stat").map_or(1, |t| {
        t.lines()
            .filter(|l| {
                l.strip_prefix("cpu")
                    .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
            })
            .count()
            .max(1)
    })
}

/// Busy jiffies and total jiffies of the aggregate `cpu` line of `/proc/stat`.
fn cpu_jiffies() -> Option<(f64, f64)> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = text
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_ascii_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal …
    let idle = fields.get(3)? + fields.get(4)?;
    let total: f64 = fields.iter().take(8).sum();
    Some((total - idle, total))
}

/// Cores' worth of CPU everything else used while this thread slept.
fn busy_cores(probe: Duration) -> Option<f64> {
    let (busy0, total0) = cpu_jiffies()?;
    std::thread::sleep(probe);
    let (busy1, total1) = cpu_jiffies()?;
    (total1 > total0).then(|| (busy1 - busy0) / (total1 - total0) * online_cpus() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), [0, 1]);
        assert_eq!(parse_cpu_list("0-3,8-9"), [0, 1, 2, 3, 8, 9]);
        assert_eq!(parse_cpu_list("5"), [5]);
        assert!(parse_cpu_list("").is_empty());
        assert!(!allowed_cpus().is_empty());
    }
}
