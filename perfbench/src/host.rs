//! What the host and the process report about themselves. Every reader
//! returns `None` when its source is missing or unreadable.

use std::fs;
use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// Process CPU seconds so far (user + system, all threads, exited ones
/// included), from `/proc/self/stat`.
#[must_use]
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The first `model name` in `/proc/cpuinfo`.
#[must_use]
pub fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

/// The scheduler's base slice in nanoseconds (EEVDF), where readable.
#[must_use]
pub fn sched_slice_ns() -> Option<u64> {
    [
        "/sys/kernel/debug/sched/base_slice_ns",
        "/proc/sys/kernel/sched_base_slice_ns",
    ]
    .iter()
    .find_map(|p| fs::read_to_string(p).ok()?.trim().parse().ok())
}

/// The checked-out commit, read from `.git` under `root` without
/// running git; `None` outside a git checkout.
#[must_use]
pub fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_owned())
    })
}
