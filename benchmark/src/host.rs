//! Host facts every result carries: a number means nothing without the
//! machine that produced it.

use std::fs;
use std::path::Path;

/// Where and on what a run executed.
#[derive(Clone, Debug)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `MemTotal`, MiB.
    pub mem_total_mb: u64,
    /// Kernel release.
    pub kernel: String,
    /// Filesystem type holding the data directory.
    pub data_fs: String,
    /// Git revision of the checkout, when it is a git repository.
    pub git_rev: String,
}

impl Host {
    /// Probes the host; `data_dir` must exist.
    pub fn probe(data_dir: &Path) -> Host {
        Host {
            nproc: nproc(),
            cpu_model: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
            mem_total_mb: proc_field("/proc/meminfo", "MemTotal")
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
                .map_or(0, |kb| kb / 1024),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_owned()),
            data_fs: fs_type(data_dir).unwrap_or_else(unknown),
            git_rev: git_rev().unwrap_or_else(unknown),
        }
    }
}

fn unknown() -> String {
    "unknown".to_owned()
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Value of the first `key : value` line in a `/proc` text file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_owned())
    })
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `dir`: the longest mount point
/// in `/proc/self/mountinfo` that prefixes the canonical path.
fn fs_type(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let text = fs::read_to_string("/proc/self/mountinfo").ok()?;
    text.lines()
        .filter_map(|line| {
            // "... <mount point> <opts> [optional fields] - <fstype> <source> ..."
            let (left, right) = line.split_once(" - ")?;
            let mount = left.split_whitespace().nth(4)?;
            let fstype = right.split_whitespace().next()?;
            dir.starts_with(mount)
                .then(|| (mount.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}

/// Resolves `HEAD` by reading `.git` in the working directory or its
/// parent; the benchmark's checkout need not be a repository at all.
fn git_rev() -> Option<String> {
    let git = [".git", "../.git"]
        .iter()
        .map(Path::new)
        .find(|p| p.is_dir())?;
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(git.join(reference))
            .ok()
            .map(|s| s.trim().to_owned()),
        None => Some(head.to_owned()),
    }
}
