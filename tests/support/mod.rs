//! A counting `#[global_allocator]` (wrapping `System`) for the
//! allocation-discipline test binaries. The counters are toggled around
//! the measured window so test harness bookkeeping doesn't pollute them.
//! The armed flag and counters are **thread-local**: libtest runs
//! `#[test]` fns (and its own result-printing bookkeeping, which
//! allocates) on concurrent threads, so a process-global flag would
//! intermittently count a sibling thread's allocations inside a window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every `alloc`/`realloc` and tracks live heap bytes while armed;
/// delegates to [`System`].
struct CountingAlloc;

thread_local! {
    /// Per-thread armed flag: only the measuring thread counts.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Per-thread allocation count for the current armed window.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed since the window opened (negative
    /// when the window frees memory allocated before it).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` reached in the window.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` bytes to the armed window's live total and raises its peak.
/// `try_with` tolerates TLS teardown.
fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn armed() -> bool {
    ARMED.try_with(|a| a.get()).unwrap_or(false)
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method delegates directly to [`System`], which upholds the
// `GlobalAlloc` contract; the counter bookkeeping never touches the layout
// or the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`. The
    // thread-locals are const-initialized `Cell`s, so accessing them here
    // never allocates (no recursion); `try_with` tolerates TLS teardown.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            count_allocation();
            track(layout.size() as isize);
        }
        System.alloc(layout)
    }

    // SAFETY: forwards `ptr`/`layout` unchanged to `System.dealloc`; the
    // caller guarantees they came from this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if armed() {
            track(-(layout.size() as isize));
        }
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards all arguments unchanged to `System.realloc`; the
    // caller guarantees `ptr`/`layout` describe a live allocation.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            count_allocation();
            track(new_size as isize - layout.size() as isize);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap use of one armed window.
pub struct HeapUse {
    /// `alloc` plus `realloc` calls.
    pub allocations: usize,
    /// Peak live bytes above the window's start.
    pub peak_bytes: isize,
}

/// Runs `f` with the counters armed and returns its heap use.
pub fn measure_heap(f: impl FnOnce()) -> HeapUse {
    ALLOCATIONS.with(|c| c.set(0));
    LIVE.with(|c| c.set(0));
    PEAK.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    HeapUse {
        allocations: ALLOCATIONS.with(|c| c.get()),
        peak_bytes: PEAK.with(|c| c.get()),
    }
}
