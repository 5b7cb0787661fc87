//! The host stanza printed with every result, and peak-memory readings.

use std::path::Path;
use std::process::Command;

/// What the measurement ran on. Printed with every output so two results
/// are only ever compared like with like.
pub struct Host {
    pub cores: usize,
    /// `RAYON_NUM_THREADS` of the harness and `--workers` of the server.
    pub threads: usize,
    pub rustc: String,
    pub commit: String,
    pub load_1m: f64,
}

/// Worker threads for the library's fork–join pool and the server:
/// one core is left to the load generator and the operating system, up to
/// four workers. On the 2-core sizing host two pool threads made an
/// iteration of `cold_partition` swing between 3.3 s and 5.9 s; one thread
/// holds 5.7–6.1 s, and steadiness is what a regression bound needs.
pub fn worker_threads(cores: usize) -> usize {
    cores.saturating_sub(1).clamp(1, 4)
}

fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    pub fn read(root: &Path) -> Host {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let load_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(0.0);
        Host {
            cores,
            threads: worker_threads(cores),
            rustc: first_line(Command::new("rustc").arg("--version")),
            // A driver's checkout is not a git repository: then "unknown".
            commit: first_line(
                Command::new("git")
                    .args(["rev-parse", "--short", "HEAD"])
                    .current_dir(root),
            ),
            load_1m,
        }
    }

    pub fn stanza(&self) -> String {
        let mut s = format!(
            "host: cores={} threads={} (RAYON_NUM_THREADS and --workers) rustc=\"{}\" commit={} load_1m={:.2}",
            self.cores, self.threads, self.rustc, self.commit, self.load_1m
        );
        if self.load_1m > self.cores as f64 - 1.0 {
            s.push_str(&format!(
                "\nWARNING: 1-minute load average {:.2} exceeds cores-1 = {}; timings will be noisy",
                self.load_1m,
                self.cores - 1
            ));
        }
        s
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, read from `/proc`.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
