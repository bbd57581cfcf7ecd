//! Facts about the host and the process, echoed in every run's header.

use std::fs;

/// Threads the OS will run at once, as `std` reports it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The last-level cache of cpu0 as sysfs reports it, in bytes (on a VM this
/// is the host's cache, of which the guest's share is unknown).
pub fn llc_bytes() -> Option<u64> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u64, u64)> = None; // (level, bytes)
    for entry in fs::read_dir(dir).ok()?.flatten() {
        let read = |f: &str| fs::read_to_string(entry.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u64>() else {
            continue;
        };
        let size = size.trim();
        let (digits, mult) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1 << 10),
            Some(b'M') => (&size[..size.len() - 1], 1 << 20),
            Some(b'G') => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        let Ok(n) = digits.parse::<u64>() else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, n * mult));
        }
    }
    best.map(|(_, b)| b)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("BENCH_RUSTC_VERSION")
}
