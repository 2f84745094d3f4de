//! Heap accounting for `peak_heap_mb`: a global allocator that counts the
//! bytes each thread holds, so a run can report the largest working set
//! any one loop's compile needed. The process's peak RSS moved by 11%
//! between runs of the same loops with the allocator's fragmentation;
//! this count depends only on the loop and the compiler's code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, plus per-thread byte counts.
struct Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

thread_local! {
    /// Bytes this thread allocated and has not freed (frees of another
    /// thread's blocks can take it below zero).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`start_window`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with` so the allocator never panics, even while the thread's
    // locals are being torn down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method hands its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s guarantees are this
// allocator's. The bookkeeping touches only thread-local `Cell`s, which
// neither allocate nor re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator, and so
        // `System`, returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` returned for
        // `layout` and a valid `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        new
    }
}

/// Starts a new peak window on this thread; returns the bytes live now.
pub fn start_window() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// The most bytes this thread held since [`start_window`] returned
/// `base`, beyond `base`.
pub fn window_peak(base: isize) -> u64 {
    PEAK.with(|peak| (peak.get() - base).max(0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_sees_the_largest_working_set() {
        let base = start_window();
        drop(std::hint::black_box(vec![0u8; 1 << 20]));
        let small = std::hint::black_box(vec![1u8; 1 << 10]);
        assert!(window_peak(base) >= 1 << 20);
        let base = start_window();
        drop(small);
        assert_eq!(window_peak(base), 0);
    }
}
