//! A counting global allocator, switched on only around the traced rep.
//!
//! While off (every untraced rep, so every end-to-end number) it costs
//! one relaxed load per allocation on top of the system allocator.
//! While on it counts in thread-local cells — no locked instruction on
//! the path being measured — so a window sees the allocations of the
//! thread that opened it, which is the thread the traced rep runs the
//! program on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// The allocator the benchmark binary installs.
#[derive(Debug)]
pub struct CountingAlloc;

// A plain switch that publishes no other data.
static ON: AtomicBool = AtomicBool::new(false);

// `const`-initialised `Cell`s need no lazy set-up and have no
// destructor, so touching them inside the allocator cannot recurse into
// it; `try_with` covers a thread that is already being torn down.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes as u64;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrank(bytes: usize) {
    // saturating: memory allocated while counting was off, or on another
    // thread, may be freed here
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes as u64)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// calls touches only an atomic and `const` thread-locals and never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's contract is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            shrank(layout.size());
        }
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            shrank(layout.size());
            grew(new_size);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Zero this thread's counters and start counting.
pub fn start() {
    ALLOCS.set(0);
    LIVE.set(0);
    PEAK.set(0);
    ON.store(true, Relaxed);
}

/// Allocations this thread has made since [`start`].
pub fn allocs() -> u64 {
    ALLOCS.get()
}

/// Stop counting; returns the high-water mark of bytes this thread
/// allocated inside the window and had not yet freed.
pub fn stop() -> u64 {
    ON.store(false, Relaxed);
    PEAK.get()
}
