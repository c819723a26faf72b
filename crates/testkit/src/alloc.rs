//! A counting global allocator for tests that budget heap traffic.
//!
//! [`CountingAlloc`] forwards every call to [`System`] and observes it:
//! the heap calls the *calling thread* makes (`alloc`, `alloc_zeroed`,
//! `realloc`), the bytes and blocks the *process* holds live, and the most
//! bytes it held live at once since [`CountingAlloc::reset_peak`]. A test
//! binary installs it once:
//!
//! ```no_run
//! #[global_allocator]
//! static ALLOC: dls_testkit::CountingAlloc = dls_testkit::CountingAlloc;
//!
//! let before = dls_testkit::CountingAlloc::thread_calls();
//! let v = vec![0u8; 64];
//! assert_eq!(dls_testkit::CountingAlloc::thread_calls() - before, 1);
//! # drop(v);
//! ```
//!
//! Per-thread call counts let tests run side by side; the live counters
//! are process-wide, so a binary that reads them should hold one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// [`System`], counting heap calls per thread and live bytes and blocks
/// per process. See the module docs.
pub struct CountingAlloc;

thread_local! {
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

impl CountingAlloc {
    /// Calls that allocated or grew a block on this thread so far.
    pub fn thread_calls() -> usize {
        CALLS.with(Cell::get)
    }

    /// Bytes and blocks currently allocated by the whole process.
    pub fn live() -> (isize, isize) {
        (
            LIVE_BYTES.load(Ordering::Relaxed),
            LIVE_BLOCKS.load(Ordering::Relaxed),
        )
    }

    /// The most bytes the whole process held live at once since the last
    /// [`CountingAlloc::reset_peak`] (or since it started).
    pub fn peak_live() -> isize {
        PEAK_BYTES.load(Ordering::Relaxed)
    }

    /// Starts a new peak from the bytes live now.
    pub fn reset_peak() {
        PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Counts one heap call on this thread and, if it returned a block,
    /// `bytes` more live bytes and `blocks` more live blocks.
    fn observe(p: *mut u8, bytes: isize, blocks: isize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        if !p.is_null() {
            let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
            LIVE_BLOCKS.fetch_add(blocks, Ordering::Relaxed);
        }
        p
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe calls and
// sizes (a const-initialised thread-local `Cell` never allocates).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        let p = unsafe { System.alloc(layout) };
        Self::observe(p, layout.size() as isize, 1)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        Self::observe(p, layout.size() as isize, 1)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        Self::observe(p, new_size as isize - layout.size() as isize, 0)
    }
}
