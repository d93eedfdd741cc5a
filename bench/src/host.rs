//! What the benchmark reads from the host: core count, peak memory,
//! and a count of heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Cores available to this process; printed with every result, and no
/// workload runs more threads than this.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` when the first replay of the workload's script ended.
static PEAK_AFTER_FIRST_REPLAY: OnceLock<Result<f64, String>> = OnceLock::new();

/// Every workload calls this when a replay of its script ends; the
/// first call records the process's peak memory. What later replays
/// add is the benchmark's own samples and the allocator's history (a
/// freed block raises glibc's mmap threshold, and the heap then keeps
/// what it used to hand back: a step of 3 MiB somewhere between the
/// fifth and the seventh replay of `world_upgrade`), neither of which
/// is memory the system needs.
pub fn replay_done() {
    PEAK_AFTER_FIRST_REPLAY.get_or_init(peak_rss_mib);
}

/// Peak resident set of this process (`VmHWM`) after the first replay,
/// in MiB.
pub fn peak_rss_after_first_replay() -> Result<f64, String> {
    PEAK_AFTER_FIRST_REPLAY
        .get()
        .cloned()
        .unwrap_or_else(|| Err("no replay ended".into()))
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The system allocator, counting calls while [`count_allocs`] runs.
/// Off, it adds one relaxed load to an allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is passed through to `System` unchanged; the
// counters are plain statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (and reallocations) made while `f` runs, by any
/// thread; call it while only one thread is working.
pub fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed) - before
}
