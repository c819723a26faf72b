//! `Simulator::run` allocates nothing per period.
//!
//! A periodic schedule repeats the same transfers every period, so once the
//! first periods have sized the event heap, the flow slots, the compute
//! queues and the allocator's batch memo, a further period reuses them.
//! This binary installs a counting global allocator and runs one K = 20
//! Greedy schedule for two horizons: the heap calls made by `run` must not
//! grow with the period count.
//!
//! Measured on x86-64 Linux (heap calls = `alloc` + `alloc_zeroed` +
//! `realloc`, debug and release alike):
//!
//! ```text
//!   periods   heap calls
//!        50          148
//!       400          148
//! ```
//!
//! One `#[test]` only: the counter is process-wide, so a second test
//! running on another thread would pollute it.

use dls::prelude::*;
use dls::scenario::catalog::paper_shape_instance;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`], counting every call that allocates or grows a block.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter only observes calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap calls made by one `run` of `periods` periods.
fn heap_calls(sim: &Simulator, schedule: &PeriodicSchedule, periods: usize) -> usize {
    let cfg = SimConfig {
        periods,
        ..SimConfig::default()
    };
    let before = CALLS.load(Ordering::Relaxed);
    let report = sim.run(schedule, &cfg);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert!(report.efficiency > 0.0, "{}", report.summary());
    drop(report);
    calls
}

#[test]
fn simulator_run_allocates_nothing_per_period() {
    let inst = paper_shape_instance(20, 42);
    let alloc = Greedy::default()
        .solve(&inst)
        .expect("Greedy always solves");
    let schedule = ScheduleBuilder::default()
        .build(&inst, &alloc)
        .expect("valid allocations reconstruct");
    assert!(!schedule.transfers.is_empty(), "the schedule ships work");
    let sim = Simulator::new(&inst);
    // First-use allocations (lazily built statics) are not the run's.
    heap_calls(&sim, &schedule, 2);

    let short = heap_calls(&sim, &schedule, 50);
    let long = heap_calls(&sim, &schedule, 400);
    println!("heap calls: 50 periods {short}, 400 periods {long}");
    assert!(
        long <= short,
        "400 periods made {long} heap calls, 50 periods {short}: `run` allocates per period"
    );
}
