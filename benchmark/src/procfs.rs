//! `/proc/<pid>/{stat,status,task}` readers: how the benchmark measures a
//! process from outside. Parsers take the file text so the unit tests can
//! feed them hostile `comm` values.

use std::fs;
use std::io;

/// Kernel clock ticks per second (`USER_HZ`). Fixed at 100 on every Linux
/// ABI this repo builds for; `getconf CLK_TCK` is checked by `run.sh`.
pub const TICKS_PER_SEC: f64 = 100.0;

/// CPU time of one process or thread, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    pub utime: u64,
    pub stime: u64,
}

impl CpuTicks {
    pub fn total(self) -> u64 {
        self.utime + self.stime
    }

    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
        }
    }

    pub fn user_secs(self) -> f64 {
        self.utime as f64 / TICKS_PER_SEC
    }

    pub fn sys_secs(self) -> f64 {
        self.stime as f64 / TICKS_PER_SEC
    }

    pub fn secs(self) -> f64 {
        self.total() as f64 / TICKS_PER_SEC
    }
}

/// CPU cost per operation of *this* process, slice by slice. The clock is
/// only as fine as a scheduler tick (a running thread's books are brought
/// up to date at each tick), so operations are pooled until a slice spans
/// at least [`CpuSlices::MIN_SECS`] of CPU before its cost is read off.
#[derive(Debug)]
pub struct CpuSlices {
    pid: u32,
    opened_secs: f64,
    ops: u64,
    /// µs of CPU per operation, one value per closed slice.
    pub us_per_op: Vec<f64>,
}

impl CpuSlices {
    /// A 10 ms tick is 0.5 % of this.
    pub const MIN_SECS: f64 = 2.0;

    /// CPU seconds of `pid` so far: the scheduler's books where shown,
    /// else the 10 ms ticks of `stat`.
    fn cpu_secs(pid: u32) -> io::Result<f64> {
        match runtime_ns(pid) {
            Some(ns) => Ok(ns as f64 / 1e9),
            None => Ok(process_cpu(pid)?.secs()),
        }
    }

    pub fn start() -> io::Result<CpuSlices> {
        let pid = std::process::id();
        Ok(CpuSlices {
            pid,
            opened_secs: Self::cpu_secs(pid)?,
            ops: 0,
            us_per_op: Vec::new(),
        })
    }

    /// Books `ops` finished operations; closes the slice if it is long enough.
    pub fn add(&mut self, ops: u64) -> io::Result<()> {
        self.ops += ops;
        let now = Self::cpu_secs(self.pid)?;
        let spent = now - self.opened_secs;
        if spent >= Self::MIN_SECS {
            self.us_per_op.push(spent * 1e6 / self.ops as f64);
            self.opened_secs = now;
            self.ops = 0;
        }
        Ok(())
    }

    /// Closes the open slice if nothing closed yet (a run shorter than one
    /// slice still reports a cost, coarser).
    pub fn finish(&mut self) -> io::Result<()> {
        if self.us_per_op.is_empty() && self.ops > 0 {
            let spent = Self::cpu_secs(self.pid)? - self.opened_secs;
            self.us_per_op
                .push(spent.max(1.0 / TICKS_PER_SEC) * 1e6 / self.ops as f64);
        }
        Ok(())
    }
}

/// Parses the `utime`/`stime` fields (14 and 15) of a `stat` line. `comm`
/// (field 2) is wrapped in parentheses and may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Result<CpuTicks, String> {
    let close = text
        .rfind(')')
        .ok_or_else(|| "stat line has no ')' closing comm".to_string())?;
    // After comm: state(3) ppid(4) ... utime(14) stime(15) → indexes 11, 12.
    let mut fields = text[close + 1..].split_ascii_whitespace();
    let mut field = |idx: usize, name: &str| -> Result<u64, String> {
        fields
            .nth(idx)
            .ok_or_else(|| format!("stat line ends before {name}"))?
            .parse::<u64>()
            .map_err(|e| format!("stat {name}: {e}"))
    };
    let utime = field(11, "utime")?;
    let stime = field(0, "stime")?;
    Ok(CpuTicks { utime, stime })
}

/// Fields of `/proc/<pid>/status` (or a task's) the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// Peak resident set size in KiB (`VmHWM`); 0 for kernel threads.
    pub vm_hwm_kib: u64,
    pub voluntary_ctxt_switches: u64,
    pub nonvoluntary_ctxt_switches: u64,
}

impl Status {
    pub fn ctxt_switches(&self) -> u64 {
        self.voluntary_ctxt_switches + self.nonvoluntary_ctxt_switches
    }
}

/// Parses a `status` file. The `Name:` line carries the same free-form
/// `comm`, so only whole-line `Key:\tvalue` matches on the known keys count.
pub fn parse_status(text: &str) -> Result<Status, String> {
    let mut out = Status::default();
    let mut seen_ctxt = false;
    for line in text.lines() {
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        let first = rest.split_ascii_whitespace().next();
        let slot = match key {
            "VmHWM" => &mut out.vm_hwm_kib,
            "voluntary_ctxt_switches" => {
                seen_ctxt = true;
                &mut out.voluntary_ctxt_switches
            }
            "nonvoluntary_ctxt_switches" => &mut out.nonvoluntary_ctxt_switches,
            _ => continue,
        };
        *slot = first
            .ok_or_else(|| format!("status {key}: no value"))?
            .parse()
            .map_err(|e| format!("status {key}: {e}"))?;
    }
    if seen_ctxt {
        Ok(out)
    } else {
        Err("status has no voluntary_ctxt_switches line".into())
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Process-wide CPU ticks (all threads, live and reaped).
pub fn process_cpu(pid: u32) -> io::Result<CpuTicks> {
    parse_stat(&fs::read_to_string(format!("/proc/{pid}/stat"))?).map_err(invalid)
}

/// One sample of every live thread of `pid`.
#[derive(Debug, Clone, Default)]
pub struct TaskSample {
    /// `(tid, cpu)` per live thread, ascending tid.
    pub cpu: Vec<(u32, CpuTicks)>,
    /// Context switches summed over live threads (`status` is per thread).
    pub ctxt_switches: u64,
}

/// Reads `/proc/<pid>/task/*/{stat,status}`. Threads that exit between the
/// directory listing and the read are skipped.
pub fn tasks(pid: u32) -> io::Result<TaskSample> {
    let mut tids: Vec<u32> = fs::read_dir(format!("/proc/{pid}/task"))?
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect();
    tids.sort_unstable();
    let mut sample = TaskSample::default();
    for tid in tids {
        let base = format!("/proc/{pid}/task/{tid}");
        let (Ok(stat), Ok(status)) = (
            fs::read_to_string(format!("{base}/stat")),
            fs::read_to_string(format!("{base}/status")),
        ) else {
            continue;
        };
        sample.cpu.push((tid, parse_stat(&stat).map_err(invalid)?));
        sample.ctxt_switches += parse_status(&status).map_err(invalid)?.ctxt_switches();
    }
    Ok(sample)
}

/// Parses `se.sum_exec_runtime` (ms, ns precision) out of a task's `sched`
/// file. The first line carries the free-form `comm`, so only a line that
/// *starts* with the key counts.
pub fn parse_sched_runtime_ns(text: &str) -> Option<u64> {
    let value = text
        .lines()
        .skip(1)
        .find_map(|l| l.strip_prefix("se.sum_exec_runtime"))?
        .split_once(':')?
        .1
        .trim();
    let ms: f64 = value.parse().ok()?;
    (ms.is_finite() && ms >= 0.0).then_some((ms * 1e6) as u64)
}

/// CPU time of `pid` in ns, summed over its live threads, from the
/// scheduler's own books (`/proc/<pid>/task/*/sched`) — a thousand times
/// finer than the 10 ms ticks of `stat`. `None` where the kernel does not
/// expose it (no `CONFIG_SCHED_DEBUG`); threads that exited are not counted,
/// which is exact for a daemon whose threads live as long as it does.
pub fn runtime_ns(pid: u32) -> Option<u64> {
    let mut total = 0u64;
    for entry in fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let text = fs::read_to_string(entry.ok()?.path().join("sched")).ok()?;
        total += parse_sched_runtime_ns(&text)?;
    }
    Some(total)
}

/// Peak RSS of `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    let status =
        parse_status(&fs::read_to_string(format!("/proc/{pid}/status"))?).map_err(invalid)?;
    Ok(status.vm_hwm_kib as f64 / 1024.0)
}

/// 1-minute load average.
pub fn loadavg_1m() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAIL: &str = "S 1 2 3 0 -1 4194560 100 0 0 0 1234 567 0 0 20 0 3 0 100 1000 50";

    #[test]
    fn stat_plain_comm() {
        let t = parse_stat(&format!("42 (hybridcastd) {TAIL}")).unwrap();
        assert_eq!(
            t,
            CpuTicks {
                utime: 1234,
                stime: 567
            }
        );
        assert_eq!(t.total(), 1801);
    }

    #[test]
    fn stat_comm_with_spaces_and_parentheses() {
        for comm in [
            "my daemon",
            "a) R 9 9 9 (b",
            "((",
            "x) (y) z",
            ") 1 2 3 4 5 6 7 8 9 10 11 12 13 (",
        ] {
            let t = parse_stat(&format!("42 ({comm}) {TAIL}")).unwrap();
            assert_eq!((t.utime, t.stime), (1234, 567), "comm {comm:?}");
        }
    }

    #[test]
    fn stat_truncated_or_garbled_is_an_error() {
        assert!(parse_stat("42 hybridcastd S 1 2").is_err());
        assert!(parse_stat("42 (x) S 1 2 3").is_err());
        assert!(parse_stat("42 (x) S 1 2 3 0 -1 0 0 0 0 0 abc 5").is_err());
    }

    #[test]
    fn status_reads_known_keys_only() {
        let text = "Name:\tevil: VmHWM:\t999 kB\nUmask:\t0022\nVmHWM:\t   20480 kB\n\
                    Threads:\t4\nvoluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t8\n";
        let s = parse_status(text).unwrap();
        assert_eq!(s.vm_hwm_kib, 20480);
        assert_eq!(s.ctxt_switches(), 128);
    }

    #[test]
    fn status_comm_mimicking_a_key_does_not_shadow_it() {
        // The Name line's key is "Name"; a comm of "VmHWM:\t1 kB" stays a value.
        let text = "Name:\tVmHWM:\t1 kB\nVmHWM:\t2048 kB\nvoluntary_ctxt_switches:\t1\n\
                    nonvoluntary_ctxt_switches:\t2\n";
        assert_eq!(parse_status(text).unwrap().vm_hwm_kib, 2048);
    }

    #[test]
    fn status_without_ctxt_lines_is_an_error() {
        assert!(parse_status("Name:\tx\nVmHWM:\t1 kB\n").is_err());
    }

    #[test]
    fn sched_runtime_ignores_the_comm_line() {
        let text =
            "se.sum_exec_runtime : 9.9 (1, #threads: 1)\n---\nse.exec_start   :   8720335.240972\n\
                    se.sum_exec_runtime                          :          1234.567890\n";
        assert_eq!(parse_sched_runtime_ns(text), Some(1_234_567_890));
        assert_eq!(
            parse_sched_runtime_ns("x (1, #threads: 1)\nnr_switches : 3\n"),
            None
        );
        assert_eq!(
            parse_sched_runtime_ns("x\nse.sum_exec_runtime : nope\n"),
            None
        );
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        process_cpu(pid).unwrap();
        let t = tasks(pid).unwrap();
        assert!(!t.cpu.is_empty());
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
    }
}
