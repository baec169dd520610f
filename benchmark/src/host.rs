//! What the benchmark reads from the host — process CPU time and peak
//! memory from `/proc/self`, and the fingerprint that says where a
//! number was taken — and the one thing it asks of it: CPU affinity for
//! the socket workload. The parsers take the file text, so tests feed
//! them literal samples.

use std::process::Command;

use aqua_obs::json::JsonValue;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`, all
/// threads together. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // `after_comm` starts at field 3 (state); utime and stime are 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib as f64 / 1024.0)
}

/// The 1-minute load average from the text of `/proc/loadavg`.
pub fn parse_loadavg(loadavg: &str) -> Option<f64> {
    loadavg.split_ascii_whitespace().next()?.parse().ok()
}

/// The first `model name` from the text of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// CPU seconds this process has used so far (user + system, every
/// thread). Zero where `/proc` is unreadable.
pub fn cpu_seconds() -> f64 {
    read("/proc/self/stat")
        .and_then(|s| parse_cpu_seconds(&s))
        .unwrap_or(0.0)
}

/// Peak resident set of this process in MiB. `None` where `/proc` is
/// unreadable.
pub fn peak_rss_mb() -> Option<f64> {
    read("/proc/self/status").and_then(|s| parse_vm_hwm_mb(&s))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// Where a results file was taken: cores, CPU model, compiler, commit,
/// and the load the host was under when the run started.
pub fn fingerprint() -> JsonValue {
    let unknown = || "unknown".to_string();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    JsonValue::object()
        .field("nproc", cores)
        .field(
            "cpu_model",
            read("/proc/cpuinfo")
                .and_then(|s| parse_cpu_model(&s))
                .unwrap_or_else(unknown),
        )
        .field(
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        )
        .field(
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        )
        .field(
            "loadavg_1m_at_start",
            read("/proc/loadavg")
                .and_then(|s| parse_loadavg(&s))
                .unwrap_or(-1.0),
        )
        .build()
}

/// CPU affinity through the C library, which the standard library does
/// not wrap.
#[allow(unsafe_code)]
mod affinity {
    /// Mask words passed to the kernel: room for 1024 CPUs, the size of
    /// glibc's `cpu_set_t`.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    fn get() -> Option<[u64; WORDS]> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let status =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (status == 0).then_some(mask)
    }

    fn set(mask: &[u64; WORDS]) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the size passed, only
        // read by the call; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }

    /// Restores the calling thread's previous affinity when dropped.
    #[derive(Debug)]
    pub struct Pinned {
        previous: [u64; WORDS],
    }

    /// Restricts the calling thread, and every thread it spawns from now
    /// on, to the lowest-numbered CPU it is allowed on. `None` where the
    /// host refuses; the caller then runs unpinned.
    pub fn pin_to_one_cpu() -> Option<Pinned> {
        let previous = get()?;
        let (word, bits) = previous.iter().enumerate().find(|(_, bits)| **bits != 0)?;
        let mut one = [0u64; WORDS];
        one[word] = 1 << bits.trailing_zeros();
        set(&one).then_some(Pinned { previous })
    }

    impl Drop for Pinned {
        fn drop(&mut self) {
            set(&self.previous);
        }
    }

    /// CPUs the calling thread may run on.
    #[cfg(test)]
    pub fn allowed_cpus() -> Option<u32> {
        Some(get()?.iter().map(|bits| bits.count_ones()).sum())
    }
}

pub use affinity::{pin_to_one_cpu, Pinned};

#[cfg(test)]
mod tests {
    use super::affinity::allowed_cpus;
    use super::*;

    #[test]
    fn cpu_seconds_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    731 269 0 0 20 0 3 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(10.0));
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tbench\n"), None);
    }

    #[test]
    fn loadavg_and_cpu_model() {
        assert_eq!(parse_loadavg("0.42 0.30 0.25 1/123 4567\n"), Some(0.42));
        assert_eq!(parse_loadavg(""), None);
        let cpuinfo = "processor\t: 0\nmodel name\t: Some CPU @ 2.10GHz\nflags\t: fpu\n";
        assert_eq!(
            parse_cpu_model(cpuinfo),
            Some("Some CPU @ 2.10GHz".to_string())
        );
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn pinning_narrows_to_one_cpu_and_drop_restores() {
        let before = allowed_cpus().expect("affinity is readable on Linux");
        {
            let _pinned = pin_to_one_cpu().expect("a thread may always narrow its own mask");
            assert_eq!(allowed_cpus(), Some(1));
            // Threads spawned while pinned inherit the mask.
            let inherited = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(inherited, Some(1));
        }
        assert_eq!(allowed_cpus(), Some(before));
    }

    #[test]
    fn live_proc_is_readable_here() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
