//! The measuring host, and this process's memory and CPU as `/proc`
//! reports them.

use gridagg_core::json::Json;

/// What the numbers were taken on. Printed with every report: a
/// timing without its host is not comparable to anything.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Cores available to this process.
    pub cores: usize,
    /// CPU model string.
    pub cpu: String,
    /// Operating system and kernel release.
    pub os: String,
}

impl Host {
    /// Probe the current host.
    pub fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let release = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        Host {
            cores: cores(),
            cpu,
            os: format!("{} {release}", std::env::consts::OS),
        }
    }

    /// `{cores, cpu, os}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cores".into(), Json::Num(self.cores as f64)),
            ("cpu".into(), Json::Str(self.cpu.clone())),
            ("os".into(), Json::Str(self.os.clone())),
        ])
    }
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} cores, {}, {}", self.cores, self.cpu, self.os)
    }
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Threads the benchmark loads the host with: `min(cores, 4)`.
pub fn load_threads() -> usize {
    cores().min(4)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
/// `None` where `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Kernel clock ticks per second behind `/proc/self/stat`. Linux fixes
/// `USER_HZ` at 100 on every architecture it exports `/proc` on, and
/// asking `sysconf` would need libc, which this workspace does not
/// link.
const USER_HZ: f64 = 100.0;

/// User and system CPU seconds this process (all threads) has used.
pub fn cpu_times() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // the command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis, so utime/stime are 12th and 13th
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / USER_HZ, stime / USER_HZ))
}
