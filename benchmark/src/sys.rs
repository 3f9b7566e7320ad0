//! Process counters read from outside the program: a counting global
//! allocator (every thread, switched on only for traced runs),
//! `getrusage(2)` for CPU time and context switches, and the peak resident
//! set size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads getrusage(2) through the Linux `struct rusage` layout");

/// Whether allocations are being counted. Off in untraced runs, so the
/// end-to-end metrics are measured without the counter's atomic traffic.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts heap allocations (and their requested bytes) made by every thread
/// of the process. The counters are statistics that publish no other data,
/// hence `Relaxed`.
pub struct CountingAllocator;

fn count(bytes: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `count` only touches atomics, never
// allocates and never unwinds, so each method keeps `System`'s guarantees.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `alloc` obligations are forwarded to `System` as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: the caller's `alloc_zeroed` obligations are forwarded to `System` as-is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: the caller's `realloc` obligations (live pointer, matching
    // layout, non-zero new size) are forwarded to `System` as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: the caller's `dealloc` obligations (live pointer, matching
    // layout) are forwarded to `System` as-is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Starts counting allocations (traced runs only).
pub fn count_allocations() {
    COUNTING.store(true, Relaxed);
}

/// Allocations and allocated bytes counted so far.
pub fn allocations() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as glibc and musl lay it out on Linux; every field is
/// declared for the layout, not all are read.
#[repr(C)]
#[derive(Default)]
#[allow(dead_code)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// Resource usage of the whole process: all threads, including exited ones.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub user_nanos: u64,
    pub sys_nanos: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    pub fn cpu_nanos(&self) -> u64 {
        self.user_nanos + self.sys_nanos
    }
}

fn nanos(tv: &Timeval) -> u64 {
    (tv.tv_sec.max(0) as u64) * 1_000_000_000 + (tv.tv_usec.max(0) as u64) * 1_000
}

/// `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut raw = Rusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the Linux layout
    // declared above, and `RUSAGE_SELF` is a valid `who`; the call writes
    // only into `raw`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed with a valid buffer");
    Usage {
        user_nanos: nanos(&raw.ru_utime),
        sys_nanos: nanos(&raw.ru_stime),
        ctx_switches: (raw.ru_nvcsw.max(0) + raw.ru_nivcsw.max(0)) as u64,
    }
}

/// Peak resident set size of this process image, in KiB: `VmHWM` of
/// `/proc/self/status`. (`ru_maxrss` would also count the parent's memory
/// at `execve`, which under `cargo run` is cargo's.)
pub fn peak_rss_kib() -> Result<u64, Box<dyn std::error::Error>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(line.trim().trim_end_matches("kB").trim().parse()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_reports_cpu_time_and_resident_memory() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let after = usage();
        assert!(after.cpu_nanos() >= before.cpu_nanos());
        assert!(peak_rss_kib().unwrap() > 0);
        std::hint::black_box(x);
    }
}
