//! The benchmark's own counting allocator.
//!
//! It counts allocation events (alloc, alloc_zeroed and realloc, the same
//! events `repro hotpath` counts) process-wide and per thread, and tracks
//! live and peak heap bytes. The per-thread count lets a span charge only
//! the allocations made on its own thread, so a span on one reactor event
//! loop is never charged another loop's allocations. The tracer pauses
//! counting on its thread while it stores a span, so the benchmark's own
//! bookkeeping is not charged to the runtime.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Allocation events since start, all threads.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of `LIVE` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

/// Forwards to the system allocator and keeps the counters above.
pub struct Counting;

fn note_alloc(grow: usize) {
    // `try_with`: a thread's locals may already be gone while it exits.
    let paused = PAUSED.try_with(Cell::get).unwrap_or(false);
    if !paused {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
    let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates touch only atomics and
// const-initialised thread locals (which never allocate), so they cannot
// re-enter the allocator or affect the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation of this allocator is).
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `ptr`, `layout` and `new_size`
        // is passed through unchanged.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                note_alloc(new_size - layout.size());
            } else {
                note_alloc(0);
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

/// Allocation events since start, all threads.
pub fn total_allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocation events made by the calling thread since it started.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Bytes currently allocated.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Restart the peak at the current live size, and return that size.
pub fn reset_peak() -> usize {
    let live = live_bytes();
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Highest live size since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Run `f` with allocation counting paused on this thread (live bytes are
/// still tracked).
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = PAUSED.with(|p| p.replace(true));
    let out = f();
    PAUSED.with(|p| p.set(was));
    out
}
