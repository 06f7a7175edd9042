//! The one in-process daemon driver the serving gates share: start a
//! `hybridcastd` on an ephemeral loopback port, offer it an open-loop
//! load at a target rate, shut it down, join it, and say whether it
//! *sustained* the target.
//!
//! A run sustains its target when the loadgen reports `unanswered == 0`
//! (the conservation guarantee held end to end, explicit sheds included)
//! and the achieved send rate reached ≥ 90% of the target (the client was
//! not the bottleneck). CPU cost comes from `/proc/self/stat` (utime +
//! stime deltas, `USER_HZ = 100`) and covers daemon and loadgen, since
//! both live in this process.
//!
//! A gate passes a `Setup` with the fields it really varies; the rest of
//! the daemon and of the load (fast 0.2 ms downlink so the front end is
//! the bottleneck, `K = 40`, importance(0.5), the paper's class shares
//! over a 100-item Zipf(0.6) catalog) is fixed here.

use hybridcast_core::config::{ChannelLayout, HybridConfig};
use hybridcast_core::pull::PullPolicyKind;
use hybridcast_server::loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
use hybridcast_server::{ServeConfig, ServeSummary, ServerHandle};

/// What a gate varies about the daemon and the load offered to it.
#[derive(Debug, Clone)]
pub(crate) struct Setup {
    /// Front-end event-loop threads.
    pub loop_threads: usize,
    /// Downlink layout (interleaved, or sharded over `C` channels).
    pub channels: ChannelLayout,
    /// Record a binary trace here while serving.
    pub trace_path: Option<String>,
    /// Loadgen connections.
    pub connections: usize,
    /// Loadgen master seed.
    pub seed: u64,
    /// Send-window length, wall seconds.
    pub duration_secs: f64,
}

/// One daemon lifetime at one target rate.
#[derive(Debug, Clone)]
pub(crate) struct Run {
    /// Offered rate, requests per second.
    pub target_rps: f64,
    /// What the client saw.
    pub report: LoadgenReport,
    /// What the daemon's books say.
    pub summary: ServeSummary,
    /// Process CPU seconds spent while the load ran; `None` when
    /// `/proc/self/stat` could not be read or parsed.
    pub cpu_secs: Option<f64>,
    /// Every request answered and ≥ 90% of the target rate offered.
    pub sustained: bool,
}

impl Run {
    /// Process CPU microseconds per answered request; `None` with no
    /// answers or no CPU reading — never a measured-looking 0.
    pub(crate) fn cpu_us_per_request(&self) -> Option<f64> {
        let answered = self.report.answered;
        self.cpu_secs
            .filter(|_| answered > 0)
            .map(|secs| secs * 1e6 / answered as f64)
    }
}

/// The sustained rule: every request answered and ≥ 90% of the target
/// rate actually offered.
fn sustained(target_rps: f64, achieved_rps: f64, unanswered: u64) -> bool {
    unanswered == 0 && achieved_rps >= 0.9 * target_rps
}

/// The highest sustained target among `(target_rps, sustained)` rungs, 0
/// when none was.
fn highest_sustained(rungs: impl IntoIterator<Item = (f64, bool)>) -> f64 {
    rungs
        .into_iter()
        .filter(|&(_, sustained)| sustained)
        .map(|(target, _)| target)
        .fold(0.0, f64::max)
}

/// The highest sustained target among finished runs, 0 when none was.
pub(crate) fn sustained_rps(runs: &[Run]) -> f64 {
    highest_sustained(runs.iter().map(|r| (r.target_rps, r.sustained)))
}

/// `utime + stime` of this process in seconds; `None` when
/// `/proc/self/stat` is unreadable.
fn cpu_seconds() -> Option<f64> {
    stat_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// `utime + stime` in seconds from a `/proc/<pid>/stat` line; `None`
/// when either field is missing or not a number.
fn stat_cpu_seconds(stat: &str) -> Option<f64> {
    // Field 2 (comm) may contain spaces and parens; split on the *last*
    // closing paren. After it, state is token 0 and utime/stime (1-indexed
    // stat fields 14/15) are tokens 11/12.
    let (_, after) = stat.rsplit_once(')')?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
    Some((ticks(11)? + ticks(12)?) / 100.0)
}

/// Starts a fresh daemon, offers it `rps` for `setup.duration_secs`, shuts
/// it down and joins it.
pub(crate) fn run_one(setup: &Setup, rps: f64) -> Run {
    let mut cfg = ServeConfig::default();
    cfg.serve.addr = "127.0.0.1:0".into();
    cfg.serve.results_path = None;
    cfg.serve.unit_millis = 0.2;
    cfg.serve.ingress_capacity = 16_384;
    cfg.serve.loop_threads = setup.loop_threads;
    cfg.serve.drain_timeout_ms = 10_000;
    cfg.serve.trace_path = setup.trace_path.clone();
    cfg.hybrid = HybridConfig {
        cutoff: 40,
        pull: PullPolicyKind::importance(0.5),
        channels: setup.channels,
        ..HybridConfig::default()
    };
    let server = ServerHandle::start(cfg).expect("server starts");
    let cpu0 = cpu_seconds();
    let report = run_loadgen(&LoadgenConfig {
        addr: server.addr().to_string(),
        rps,
        connections: setup.connections,
        duration_secs: setup.duration_secs,
        seed: setup.seed,
        num_items: 100,
        zipf_theta: 0.6,
        class_shares: vec![2.0 / 11.0, 3.0 / 11.0, 6.0 / 11.0],
        deadline_ms: 0,
        grace_ms: 10_000,
    })
    .expect("loadgen runs");
    let cpu_secs = cpu0.zip(cpu_seconds()).map(|(start, end)| end - start);
    server.shutdown();
    let summary = server.join().expect("clean shutdown");
    Run {
        target_rps: rps,
        sustained: sustained(rps, report.achieved_rps, report.unanswered),
        report,
        summary,
        cpu_secs,
    }
}

/// One fresh daemon per rung of `targets`.
pub(crate) fn climb(setup: &Setup, targets: &[f64]) -> Vec<Run> {
    targets.iter().map(|&rps| run_one(setup, rps)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_needs_every_answer_and_ninety_percent_of_the_rate() {
        assert!(sustained(40_000.0, 39_900.0, 0));
        assert!(sustained(40_000.0, 36_000.0, 0), "exactly 90% counts");
        assert!(!sustained(40_000.0, 35_999.0, 0), "client fell behind");
        assert!(!sustained(40_000.0, 40_000.0, 1), "one silent drop");
    }

    #[test]
    fn an_unparsable_stat_line_is_no_cpu_reading_not_zero() {
        let stat = "4242 (my (odd) bin) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0";
        assert_eq!(stat_cpu_seconds(stat), Some(3.0));
        assert_eq!(
            stat_cpu_seconds("4242 (bin) S 1 4242 4242 0 -1 0 100 0 0 0 x 50"),
            None
        );
        assert_eq!(stat_cpu_seconds("4242 (bin) S 1"), None);
        assert_eq!(stat_cpu_seconds(""), None);
    }

    #[test]
    fn highest_sustained_target_wins_even_above_a_failed_rung() {
        let rungs = [
            (20_000.0, true),
            (40_000.0, false),
            (60_000.0, true),
            (80_000.0, false),
        ];
        assert_eq!(highest_sustained(rungs), 60_000.0);
        assert_eq!(highest_sustained([(20_000.0, false)]), 0.0);
        assert_eq!(highest_sustained([]), 0.0);
    }
}
