//! Counting global allocator: live and peak heap bytes, plus running
//! totals of allocation calls and bytes requested.
//!
//! The totals are process-wide rather than per thread. The engine fans
//! scans and joins out to scoped worker threads that live only for one
//! call, so a tally kept for the calling thread alone would miss most of
//! the work. Per-call figures are therefore deltas of these totals
//! around calls made while no other client thread runs (the serial
//! replay).
//!
//! Counting must not distort what it measures, and the engine spends
//! much of its time in the allocator. So each thread counts into one of
//! [`SLOTS`] cache-line-sized slots (uncontended in the common case),
//! totals are sums over the slots, and the peak is checked every
//! [`PEAK_EVERY`] allocations of a thread and on every large one. A
//! spike shorter than that can go unseen; the peak is a lower bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The allocator installed by `main`.
pub struct Counting;

const SLOTS: usize = 16;
const PEAK_EVERY: u32 = 64;
const LARGE: usize = 1 << 16;

/// One thread's counters, alone on a cache line. `live` is signed: a
/// block freed by another thread than the one that allocated it moves
/// bytes between slots, and only the sum is meaningful.
#[repr(align(64))]
struct Slot {
    live: AtomicI64,
    calls: AtomicU64,
    bytes: AtomicU64,
}

static COUNTERS: [Slot; SLOTS] = [const {
    Slot { live: AtomicI64::new(0), calls: AtomicU64::new(0), bytes: AtomicU64::new(0) }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // `const` and free of destructors, so reading them never allocates.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static SINCE_PEAK_CHECK: Cell<u32> = const { Cell::new(0) };
}

fn slot() -> &'static Slot {
    let i = SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    &COUNTERS[i]
}

fn live() -> i64 {
    COUNTERS.iter().map(|s| s.live.load(Relaxed)).sum()
}

fn grew(bytes: usize) {
    let s = slot();
    s.live.fetch_add(bytes as i64, Relaxed);
    s.calls.fetch_add(1, Relaxed);
    s.bytes.fetch_add(bytes as u64, Relaxed);
    let due = SINCE_PEAK_CHECK
        .try_with(|n| {
            let k = n.get() + 1;
            n.set(k % PEAK_EVERY);
            k == PEAK_EVERY
        })
        .unwrap_or(false);
    if due || bytes >= LARGE {
        PEAK.fetch_max(live(), Relaxed);
    }
}

fn shrank(bytes: usize) {
    slot().live.fetch_sub(bytes as i64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the bookkeeping only
// updates atomics and never touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Counted as freeing the old block and allocating the new one.
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Allocation calls and bytes requested so far, process-wide.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub bytes: u64,
}

impl Totals {
    pub fn now() -> Totals {
        COUNTERS.iter().fold(Totals::default(), |t, s| Totals {
            calls: t.calls + s.calls.load(Relaxed),
            bytes: t.bytes + s.bytes.load(Relaxed),
        })
    }

    pub fn plus(self, other: Totals) -> Totals {
        Totals { calls: self.calls + other.calls, bytes: self.bytes + other.bytes }
    }

    /// What was allocated between `self` and now.
    pub fn since(self) -> Totals {
        let now = Totals::now();
        Totals { calls: now.calls - self.calls, bytes: now.bytes - self.bytes }
    }
}

/// Restart peak tracking from the current live heap.
pub fn reset_peak() {
    PEAK.store(live(), Relaxed);
}

/// Highest live heap, in bytes, since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed).max(0) as usize
}
