//! Readers for the Linux procfs files the benchmark samples: per-thread
//! CPU and run-queue wait (`schedstat`), voluntary context switches and
//! peak RSS (`status`), process CPU ticks (`stat`) and host steal time
//! (`/proc/stat`). Parsers take the file text so they can be tested on
//! fixed inputs.

use std::fs;

/// Clock ticks per second of the `stat` files (`USER_HZ`, 100 on Linux).
pub const TICKS_PER_SEC: u64 = 100;

/// One thread of this process, sampled at one moment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSample {
    pub tid: u32,
    /// Thread name as the kernel keeps it (at most 15 bytes).
    pub comm: String,
    /// Nanoseconds spent on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Times the thread blocked of its own accord (a cross-thread
    /// hand-off parks the waiting thread, so each one counts here).
    pub voluntary_switches: u64,
}

/// `schedstat`: "run_ns wait_ns timeslices".
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_whitespace();
    let run = it.next()?.parse().ok()?;
    let wait = it.next()?.parse().ok()?;
    Some((run, wait))
}

/// A numeric field of a `status` file, e.g. `VmHWM` (in kB) or
/// `voluntary_ctxt_switches`.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

/// `utime + stime` in ticks from a `stat` file. The command name can hold
/// spaces and parentheses, so fields are counted after the last `)`.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state(0) ppid(1) ... utime(11) stime(12).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Steal ticks of all CPUs from `/proc/stat`'s aggregate `cpu` line:
/// "cpu user nice system idle iowait irq softirq steal ...".
pub fn parse_proc_stat_steal(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Every live thread of this process. A thread that exits between the
/// directory listing and the reads is skipped.
pub fn tasks() -> Vec<TaskSample> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<TaskSample> = dir
        .filter_map(|e| {
            let e = e.ok()?;
            let tid: u32 = e.file_name().to_str()?.parse().ok()?;
            let base = e.path();
            let comm = fs::read_to_string(base.join("comm")).ok()?;
            let (run_ns, wait_ns) =
                parse_schedstat(&fs::read_to_string(base.join("schedstat")).ok()?)?;
            let status = fs::read_to_string(base.join("status")).ok()?;
            Some(TaskSample {
                tid,
                comm: comm.trim_end().to_string(),
                run_ns,
                wait_ns,
                voluntary_switches: parse_status_field(&status, "voluntary_ctxt_switches")?,
            })
        })
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// Peak resident set size of this process, in KiB.
pub fn peak_rss_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, "VmHWM"))
        .unwrap_or(0)
}

/// CPU time of the whole process (live and exited threads), in ticks.
pub fn process_cpu_ticks() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .unwrap_or(0)
}

/// Host steal time so far, in ticks.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_proc_stat_steal(&s))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fields() {
        assert_eq!(
            parse_schedstat("548418424 147014 19\n"),
            Some((548418424, 147014))
        );
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn status_fields() {
        let s = "Name:\tbench\nVmHWM:\t   13540 kB\nVmRSS:\t 9000 kB\n\
                 voluntary_ctxt_switches:\t14\nnonvoluntary_ctxt_switches:\t4\n";
        assert_eq!(parse_status_field(s, "VmHWM"), Some(13540));
        assert_eq!(parse_status_field(s, "voluntary_ctxt_switches"), Some(14));
        assert_eq!(parse_status_field(s, "nonvoluntary_ctxt_switches"), Some(4));
        assert_eq!(parse_status_field(s, "VmPeak"), None);
    }

    #[test]
    fn stat_cpu_ticks_skip_odd_names() {
        let s = "9778 (a (b) c) R 9700 9778 9700 0 -1 4194304 1 0 0 0 54 7 0 0 20 0 1 0";
        assert_eq!(parse_stat_cpu_ticks(s), Some(61));
        assert_eq!(parse_stat_cpu_ticks("9778 (x) R 1"), None);
    }

    #[test]
    fn proc_stat_steal() {
        let s = "cpu  1423859 0 260406 2832720 576 0 3507 57172 0 0\n\
                 cpu0 1 0 0 0 0 0 0 9 0 0\n";
        assert_eq!(parse_proc_stat_steal(s), Some(57172));
        assert_eq!(parse_proc_stat_steal("cpu0 1 2\n"), None);
    }

    #[test]
    fn live_readers_see_this_thread() {
        let t = tasks();
        assert!(!t.is_empty());
        assert!(t.iter().any(|t| t.run_ns > 0));
        assert!(peak_rss_kib() > 0);
    }
}
