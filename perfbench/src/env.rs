//! The run's environment and process resources: core count, commit,
//! build profile, peak resident memory, CPU time, and the per-run
//! scratch directory inside the checkout.

use std::fs;
use std::path::{Path, PathBuf};

/// Where runs keep scratch state and write traces, relative to the
/// checkout root the benchmark runs from.
pub const WORK_DIR: &str = ".perfbench";

#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[must_use]
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// only (never from a parent directory); `none` outside a git checkout.
#[must_use]
pub fn git_sha() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(sha) = fs::read_to_string(git.join(reference)) {
        return sha.trim().to_owned();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn status_kib(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident memory of this process so far, in MiB. Each workload
/// runs in a process of its own, so this is that workload's peak.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// User plus system CPU time of this process (all threads), in seconds.
#[must_use]
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the command
    // name's closing parenthesis, in clock ticks of 1/100 s.
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Cumulative `(steal, total)` CPU ticks of the whole machine, from the
/// first line of `/proc/stat`: how much CPU time other tenants of the
/// host took from this one.
#[must_use]
pub fn machine_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// A per-run scratch directory under [`WORK_DIR`], removed on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh directory for one run of `workload`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn new(workload: &str) -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path =
            Path::new(WORK_DIR).join(format!("run-{workload}-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Total bytes of the regular files directly inside `dir`.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
