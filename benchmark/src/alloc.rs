//! Host-memory instruments: a counting global allocator and the process's
//! peak resident set.
//!
//! Allocation *counts* and the peak of *live heap bytes* are the low-noise
//! proxies for host cost and footprint: the simulator is single-threaded
//! and deterministic, so for a fixed seed both repeat exactly, where host
//! nanoseconds spread by tens of percent on a shared machine and the
//! resident set moves with the system allocator's mood (identical runs of
//! `commit_contended` peak anywhere from 24 to 27.5 MiB resident).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations made by this process so far (`alloc`, `alloc_zeroed`
/// and `realloc` calls; frees are not counted).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated and not yet freed, as requested (the system
/// allocator's own overhead and fragmentation are not in it).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// Highest [`LIVE_BYTES`] since the last [`reset_peak`].
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    let live = LIVE_BYTES.fetch_add(by as u64, Ordering::Relaxed) + by as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(by: usize) {
    LIVE_BYTES.fetch_sub(by as u64, Ordering::Relaxed);
}

/// The system allocator with a call counter in front of it.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed statistics
// that publish no other data and cannot affect the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            shrank(layout.size() - new_size);
        }
        // SAFETY: `ptr` came from this allocator (i.e. from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from this allocator (i.e. from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations counted so far; take the difference around a timed section.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Starts a new peak measurement at the current live size.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
