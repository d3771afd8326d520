//! A counting global allocator: the heap bytes the process holds live,
//! and their peak since the last reset.
//!
//! The resident set is a poor memory figure here: each engine run
//! starts worker threads, glibc's per-thread arenas keep what those
//! threads freed, and the resident set climbs from rep to rep (from
//! 36 to 252 MiB over seven TC reps, even with `malloc_trim` before
//! each). Live heap bytes count only what the program holds, so the
//! peak per rep measures the program's own demand.

use std::alloc::{GlobalAlloc, Layout, System};

use fg_types::sync::Counter;

/// [`System`], counting the bytes it hands out.
pub struct CountingAlloc;

static LIVE: Counter = Counter::new(0);
static PEAK: Counter = Counter::new(0);

fn grow(n: usize) {
    let live = LIVE.add(n as u64);
    if live > PEAK.get() {
        PEAK.max(live);
    }
}

fn shrink(n: usize) {
    LIVE.sub(n as u64);
}

// SAFETY: every method forwards the caller's layout and pointer to
// `System` unchanged and returns what `System` returned, so `System`'s
// guarantees carry over; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the trait's contract for `alloc` binds the caller, and
    // the body passes it on to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    // SAFETY: the trait's contract for `alloc_zeroed` binds the caller, and
    // the body passes it on to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    // SAFETY: the trait's contract for `dealloc` binds the caller, and
    // the body passes it on to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from
        // `System`, with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    // SAFETY: the trait's contract for `realloc` binds the caller, and
    // the body passes it on to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc` for `ptr` and `layout`; the caller
        // upholds `realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Heap bytes live now.
pub fn live_bytes() -> u64 {
    LIVE.get()
}

/// Highest live heap since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.get()
}

/// Starts a new peak from the heap live now.
pub fn reset_peak() {
    PEAK.set(LIVE.get());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_live_allocation() {
        reset_peak();
        let v = vec![1u8; 8 << 20];
        assert!(live_bytes() >= 8 << 20);
        assert!(peak_bytes() >= 8 << 20);
        drop(v);
    }
}
