//! A counting global allocator, so a run can report the peak live heap of
//! its timed phase.
//!
//! Unlike the resident set, the peak live heap does not depend on how the
//! system allocator happened to spread freed memory over its per-thread
//! arenas, so it repeats from run to run. Each thread counts into a slot of
//! its own, so the counting adds no contended atomic to the allocation
//! path; the slots outlive the threads, so nothing is lost when the
//! classifier's short-lived worker threads exit. The slots are summed into
//! the peak after every [`CHECK_BYTES`] a thread allocates, so the peak may
//! read low by up to that much per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

const SLOTS: usize = 64;
const CHECK_BYTES: isize = 64 * 1024;

/// One thread's net allocated bytes, on a cache line of its own.
#[repr(align(64))]
struct Slot(AtomicIsize);

static LIVE: [Slot; SLOTS] = [const { Slot(AtomicIsize::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// This thread's slot, assigned on its first allocation.
    static SLOT: Cell<Option<usize>> = const { Cell::new(None) };
    /// Bytes this thread allocated since it last summed the slots.
    static SINCE_CHECK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting live bytes.
pub struct CountingAlloc;

fn account(bytes: isize) {
    // A thread being torn down has no thread-locals left: use slot 0.
    let slot = SLOT
        .try_with(|slot| {
            slot.get().unwrap_or_else(|| {
                let mine = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
                slot.set(Some(mine));
                mine
            })
        })
        .unwrap_or(0);
    LIVE[slot].0.fetch_add(bytes, Ordering::Relaxed);
    if bytes <= 0 {
        return;
    }
    let check = SINCE_CHECK
        .try_with(|since| {
            let total = since.get() + bytes;
            since.set(if total >= CHECK_BYTES { 0 } else { total });
            total >= CHECK_BYTES
        })
        .unwrap_or(true);
    if check {
        PEAK.fetch_max(live(), Ordering::Relaxed);
    }
}

fn live() -> isize {
    LIVE.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).expect("allocations fit in isize")
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counters
// touch no allocator state and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` requirements pass through to `System`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            account(signed(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            account(signed(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        account(-signed(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` came from `System`; the caller vouches
        // for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            account(signed(new_size) - signed(layout.size()));
        }
        new
    }
}

/// Restarts the peak from the heap live now, so that [`peak_mb`] covers
/// only what runs from here on (plus what is already live).
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

/// The most heap the process has held live at once since start or the
/// last [`reset_peak`], in MiB.
#[must_use]
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
