//! What the benchmark reads from the machine: process CPU time, peak
//! resident set, and the provenance fields of the ledger manifest.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them. Linux
/// fixes `USER_HZ` at 100 on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (every thread, exited ones
/// included) has consumed, from `/proc/self/stat`; 0 when unavailable.
/// Checked against `CLOCK_PROCESS_CPUTIME_ID` on the box this was sized on:
/// the two agree to the tick even for threads that run in bursts far
/// shorter than one.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
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
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 when unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc --version`, or "unknown".
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// The checked-out commit, or "unknown" outside a git checkout.
pub fn git_commit() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// Times `rounds` of a fixed integer spin (xorshift, pure single-core ALU
/// work) and returns its duration in nanoseconds. How long it takes *now*
/// tracks the clock the core is running at and the share of it the
/// hypervisor is giving this guest.
fn spin_ns(rounds: u64) -> u64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    black_box(acc);
    start.elapsed().as_nanos() as u64
}

/// What [`probe_ns`] takes on the box the benchmark was sized on, in the
/// state that box is in most of the time: 1.875 ns per round. Calibrated time
/// is host time scaled by this over the probe's duration measured around it,
/// so on that box in that state the two agree.
pub const PROBE_REFERENCE_NS: f64 = 3_750_000.0;

/// The host-speed probe: four spins of about a millisecond, reported as four
/// times the fastest. A stall of the guest lands in one of them and must not
/// pass for a slow clock — it once made a 700 ms replay read 380 ms.
pub fn probe_ns() -> f64 {
    const SPINS: u64 = 4;
    let fastest = (0..SPINS).map(|_| spin_ns(2_000_000 / SPINS)).min();
    (SPINS * fastest.unwrap_or(0)) as f64
}

/// The calibration spin `bench_baseline` prices its rows in: 20M rounds,
/// best of three, in nanoseconds.
pub fn calibration_ns() -> u64 {
    (0..3).map(|_| spin_ns(20_000_000)).min().unwrap_or(0)
}
