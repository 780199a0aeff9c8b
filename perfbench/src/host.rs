//! Host readings: process CPU and peak memory, machine-wide steal time
//! and TIME_WAIT sockets, a spin calibration, and provenance.
//!
//! Everything here reads `/proc` or the checkout; none of it feeds the
//! program under test.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use pga_core::{BitString, Problem, Rng64};
use pga_master_slave::ExpensiveFitness;
use pga_problems::OneMax;

use crate::workload::{fnv1a, fnv1a_from};

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`,
/// fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// CPU time (user + system, all threads) this process has used.
#[must_use]
pub fn process_cpu() -> Option<Duration> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line; counting
    // from state (field 3) they sit at indexes 11 and 12.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) / TICKS_PER_S))
}

/// Peak resident set size of this process, in MiB.
#[must_use]
pub fn rss_peak_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Machine-wide CPU tick counters: (steal, total).
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so the total stops at steal.
    let total = v.iter().take(8).sum();
    Some((*v.get(7)?, total))
}

/// Share of machine CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
#[must_use]
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// TCP sockets in TIME_WAIT on the machine (IPv4 and IPv6).
#[must_use]
pub fn timewait_sockets() -> u64 {
    ["/proc/net/sockstat", "/proc/net/sockstat6"]
        .iter()
        .filter_map(|path| fs::read_to_string(path).ok())
        .flat_map(|text| {
            text.lines()
                .filter(|l| l.starts_with("TCP"))
                .filter_map(|l| {
                    let mut words = l.split_whitespace();
                    words.find(|&w| w == "tw")?;
                    words.next()?.parse::<u64>().ok()
                })
                .collect::<Vec<_>>()
        })
        .sum()
}

/// Fixed single-thread spin calibration: evaluations per second of the
/// master–slave workload's costly fitness on one core. Tracks how fast
/// this host runs plain arithmetic right now.
#[must_use]
pub fn spin_evals_per_s(work_iters: u64) -> f64 {
    const EVALS: u32 = 2_000;
    let problem = ExpensiveFitness::new(OneMax::new(64), work_iters);
    let genome: BitString = problem.random_genome(&mut Rng64::new(1));
    let start = Instant::now();
    let mut acc = 0.0;
    for _ in 0..EVALS {
        acc += problem.evaluate(std::hint::black_box(&genome));
    }
    std::hint::black_box(acc);
    f64::from(EVALS) / start.elapsed().as_secs_f64()
}

/// The checked-out commit, read from `.git` in `root` without running
/// git; `None` outside a git checkout.
#[must_use]
pub fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a digest of the sources the benchmark builds (`Cargo.toml`,
/// `Cargo.lock`, `crates/`, `vendor/`, `perfbench/src/`), so a run from
/// a checkout without git history still names the code it measured.
#[must_use]
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let hash = files.iter().fold(fnv1a(&[]), |hash, file| {
        let rel = file.strip_prefix(root).unwrap_or(file);
        let hash = fnv1a_from(hash, rel.to_string_lossy().as_bytes());
        fnv1a_from(hash, &fs::read(file).unwrap_or_default())
    });
    format!("fnv1a64:{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_report_this_process() {
        assert!(process_cpu().is_some());
        assert!(rss_peak_mib().is_some_and(|m| m > 0.0));
        let (steal, total) = cpu_ticks().expect("/proc/stat");
        assert!(steal <= total);
        assert_eq!(steal_share((5, 100), (5, 100)), 0.0);
        assert_eq!(steal_share((5, 100), (10, 200)), 0.05);
    }
}
