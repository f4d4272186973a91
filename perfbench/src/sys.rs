//! What the benchmark reads from the operating system: process CPU time,
//! the kernel's UDP counters, and the facts a report is stamped with.

use std::path::Path;
use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds consumed by every thread of this process so far, including
/// threads that have already exited.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The `Udp:` counters of `/proc/net/snmp`. They are system-wide: every
/// socket of the network namespace adds to them, not only this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct UdpCounters {
    /// Datagrams delivered to sockets.
    pub in_datagrams: i64,
    /// Datagrams sent.
    pub out_datagrams: i64,
    /// Datagrams dropped because a socket's receive buffer was full.
    pub rcvbuf_errors: i64,
}

impl UdpCounters {
    /// Read the counters; `None` where `/proc/net/snmp` is unavailable.
    pub fn read() -> Option<Self> {
        let text = std::fs::read_to_string("/proc/net/snmp").ok()?;
        let mut rows = text.lines().filter(|l| l.starts_with("Udp:"));
        let names: Vec<&str> = rows.next()?.split_whitespace().collect();
        let values: Vec<&str> = rows.next()?.split_whitespace().collect();
        let get = |name: &str| -> Option<i64> {
            let at = names.iter().position(|n| *n == name)?;
            values.get(at)?.parse().ok()
        };
        Some(Self {
            in_datagrams: get("InDatagrams")?,
            out_datagrams: get("OutDatagrams")?,
            rcvbuf_errors: get("RcvbufErrors")?,
        })
    }

    /// Counter increments since `earlier`.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            in_datagrams: self.in_datagrams - earlier.in_datagrams,
            out_datagrams: self.out_datagrams - earlier.out_datagrams,
            rcvbuf_errors: self.rcvbuf_errors - earlier.rcvbuf_errors,
        }
    }
}

/// The commit the benchmark was built from: `PERFBENCH_COMMIT` if set,
/// else `git describe --always --dirty` in `dir` (so a modified tree reads
/// `<sha>-dirty`), else "unknown" (an exported checkout is not a git
/// repository).
pub fn commit(dir: &Path) -> String {
    if let Ok(sha) = std::env::var("PERFBENCH_COMMIT") {
        return sha;
    }
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
