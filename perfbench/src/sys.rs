//! Process accounting from `/proc` (std only) and the record header.

use crate::Args;

/// Kernel clock ticks per second for `/proc/self/stat` CPU fields. Linux
/// reports `USER_HZ`, which is 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Process CPU seconds (all threads) split into user and system time.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user: f64,
    pub sys: f64,
}

impl CpuTimes {
    pub fn total(&self) -> f64 {
        self.user + self.sys
    }
}

/// Read `utime` and `stime` (fields 14 and 15) of `/proc/self/stat`.
pub fn cpu_times() -> CpuTimes {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return CpuTimes::default();
    };
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |k: usize| {
        fields
            .get(k)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    CpuTimes {
        user: tick(11) / USER_HZ,
        sys: tick(12) / USER_HZ,
    }
}

/// Peak resident set size (`VmHWM` of `/proc/self/status`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The common header every result record carries, as one JSON object.
pub fn header(args: &Args) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"record\": \"header\", \"nproc\": {}, \"profile\": \"{profile}\", \"kernel_version\": {}, \
\"commit\": \"{}\", \"seed\": {}, \"workload\": \"{}\", \"seconds\": {}, \"trace\": {}}}",
        nproc(),
        rck_tmalign::KERNEL_VERSION,
        commit.replace(['"', '\\'], ""),
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace)
    )
}
