//! Host fingerprint: what a reader needs beside a wall-clock number to
//! judge it — core count, CPU model, how much of the run's CPU time the
//! hypervisor stole, toolchain, and which commit was measured.

use crate::json::Json;
use std::process::Command;

/// Cumulative jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    pub total: u64,
    pub idle: u64,
    pub steal: u64,
}

impl CpuTimes {
    /// `None` where `/proc/stat` is missing or unreadable (non-Linux).
    pub fn now() -> Option<CpuTimes> {
        parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
    }
}

fn parse_proc_stat(text: &str) -> Option<CpuTimes> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    if f.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        total: f[..8].iter().sum(),
        idle: f[3] + f[4],
        steal: f[7],
    })
}

/// Shares of all cores' time between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuDelta {
    pub busy_share: f64,
    pub steal_share: f64,
}

pub fn cpu_delta(before: Option<CpuTimes>, after: Option<CpuTimes>) -> Option<CpuDelta> {
    let (b, a) = (before?, after?);
    let total = a.total.checked_sub(b.total).filter(|t| *t > 0)? as f64;
    Some(CpuDelta {
        busy_share: 1.0 - (a.idle.saturating_sub(b.idle)) as f64 / total,
        steal_share: a.steal.saturating_sub(b.steal) as f64 / total,
    })
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Reset `VmHWM` to the current resident set, so the next reading is the
/// peak of what runs in between. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The results header. Spawns `rustc` and `git` (each waited for), so only
/// the full-suite mode calls it; a missing tool reads "unknown".
pub fn fingerprint() -> Json {
    let unknown = || "unknown".to_string();
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::Str(cpu_model().unwrap_or_else(unknown))),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        ("git_commit", Json::Str(commit.unwrap_or_else(unknown))),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_line_parses() {
        let t = parse_proc_stat("cpu  100 5 50 800 20 1 2 22 0 0\ncpu0 1 2 3 4 5 6 7 8\n").unwrap();
        assert_eq!(
            t,
            CpuTimes {
                total: 1000,
                idle: 820,
                steal: 22
            }
        );
        assert!(parse_proc_stat("cpu 1 2 3\n").is_none());
    }

    #[test]
    fn delta_is_a_share_of_elapsed_jiffies() {
        let b = CpuTimes {
            total: 1000,
            idle: 800,
            steal: 10,
        };
        let a = CpuTimes {
            total: 1200,
            idle: 900,
            steal: 30,
        };
        let d = cpu_delta(Some(b), Some(a)).unwrap();
        assert!((d.busy_share - 0.5).abs() < 1e-12);
        assert!((d.steal_share - 0.1).abs() < 1e-12);
        assert!(
            cpu_delta(Some(a), Some(a)).is_none(),
            "no elapsed time, no share"
        );
        assert!(cpu_delta(None, Some(a)).is_none());
    }
}
