//! CPU time and peak memory of this process and its threads, from
//! Linux `/proc`, and the glibc allocator settings that make a run's
//! peak memory repeatable.

use std::fs;

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds from a `stat` file such as
/// `/proc/self/stat` or `/proc/thread-self/stat`.
pub fn cpu_s(stat_path: &str) -> Result<f64, String> {
    let text = fs::read_to_string(stat_path).map_err(|e| format!("{stat_path}: {e}"))?;
    parse_cpu_s(&text).ok_or_else(|| format!("{stat_path}: unexpected layout"))
}

fn parse_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses; the
    // fixed fields start after its last ')'. utime and stime are fields
    // 14 and 15, i.e. the 12th and 13th after the name.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let path = "/proc/self/status";
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_hwm_kib(&text)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Fixes glibc's mmap threshold at the 32 MiB its sliding threshold
/// climbs to in a long-lived process. Left sliding, the threshold
/// depends on what earlier runs freed, and so does where large buffers
/// go: the same run's peak then flips between two values 30 MiB apart.
pub fn fix_mmap_threshold() -> Result<(), String> {
    /// `M_MMAP_THRESHOLD` in glibc's `<malloc.h>`.
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: mallopt takes no pointers; glibc serialises it with the
    // allocator's own locks.
    match unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) } {
        1 => Ok(()),
        _ => Err("mallopt(M_MMAP_THRESHOLD) refused".into()),
    }
}

/// Hands the pages the allocator holds free back to the kernel, then
/// resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so a later [`peak_rss_mib`] reads the peak of the work
/// done in between on top of the memory still in use.
pub fn reset_peak_rss() -> Result<(), String> {
    extern "C" {
        /// glibc: releases free heap pages of every arena.
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim takes no pointers and only touches the
    // allocator's own free lists, under its locks.
    unsafe { malloc_trim(0) };
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

fn parse_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_a_hostile_command_name() {
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 75 0 0 20 0 3 0";
        assert_eq!(parse_cpu_s(stat), Some(3.25));
        assert_eq!(parse_cpu_s("garbage"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_hwm_kib(status), Some(2048));
    }

    #[test]
    fn reset_lowers_the_peak_to_the_current_set() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = peak_rss_mib().expect("own status");
        reset_peak_rss().expect("clear_refs");
        let after = peak_rss_mib().expect("own status");
        assert!(after < before - 32.0, "peak {before} MiB -> {after} MiB");
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib().expect("own status") > 0.0);
        assert!(cpu_s("/proc/self/stat").expect("own stat") >= 0.0);
        assert!(cpu_s("/proc/thread-self/stat").expect("thread stat") >= 0.0);
    }
}
