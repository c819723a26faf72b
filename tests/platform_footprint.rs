//! Resident heap footprint of one planning instance's platform.
//!
//! The benchmark's planning workloads keep dozens of instances alive at
//! once, so what one instance holds is what the process's resident set
//! grows by per instance. This binary installs `dls_testkit::CountingAlloc`,
//! builds one K = 400 federation (`island_instance`: islands of 8 fully
//! meshed clusters, 2 800 of its 160 000 ordered pairs routed), one K = 95
//! paper-shape instance (every pair routed, multi-hop) and one K = 95
//! generated platform with 5 relay routers, and reads the live bytes and
//! blocks each holds afterwards, the heap calls its build makes, and the
//! most bytes the build held live at once.
//!
//! Measured on x86-64 Linux:
//!
//! ```text
//!                                         bytes    blocks  build calls
//!   K = 400 islands
//!     before: a K² table of `Option<Vec<LinkId>>`,
//!             one block per routed pair  3 949 440  2 804     6 023
//!     after:  one u32 slot per pair,
//!             one link arena               727 044      6       853
//!   K = 95 paper shape
//!     before                               412 464  8 934    10 455
//!     after                                182 048      6       520
//!   K = 95, connectivity 0.3, 5 relays
//!     before: routed, rebuilt with the
//!             split links, routed again    185 016      5       912
//!     after:  links split, routed once     185 016      5       458
//! ```
//!
//! Dropping the relay build's second routing pass also lowered its peak
//! from 507 980 B to 259 844 B (the same platform without relays: 452
//! calls, 259 379 B).
//!
//! The budgets are the `after` rows plus ≈ 10 %. The peak check pins that
//! the K = 400 build keeps no second pair-indexed table beside the one it
//! returns: the most it holds at once stays below the instance's own bytes
//! plus four bytes per ordered pair (it reads 58 972 B over, against
//! 640 000 B for one `u32` per pair). At K = 95 every pair is routed, so
//! the arena's growth slack alone is of the order of K² bytes and that
//! check could not tell a pair table from it; the peak is printed only.
//!
//! One `#[test]` only: the counters are process-wide, so a second test
//! running on another thread would pollute them.

use dls::platform::{PlatformConfig, PlatformGenerator};
use dls::scenario::catalog::{island_instance, paper_shape_instance};
use dls_testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What building one instance cost and what the instance holds.
struct Footprint {
    bytes: isize,
    blocks: isize,
    calls: usize,
    peak: isize,
}

fn measure<T>(build: impl FnOnce() -> T) -> Footprint {
    let before = CountingAlloc::live();
    let calls = CountingAlloc::thread_calls();
    CountingAlloc::reset_peak();
    let inst = build();
    let calls = CountingAlloc::thread_calls() - calls;
    let peak = CountingAlloc::peak_live() - before.0;
    let after = CountingAlloc::live();
    drop(inst);
    Footprint {
        bytes: after.0 - before.0,
        blocks: after.1 - before.1,
        calls,
        peak,
    }
}

/// Asserts `got` against a budget of (bytes, blocks, build calls).
fn check(name: &str, got: &Footprint, budget: (isize, isize, usize)) {
    println!(
        "{name}: {} B in {} blocks, {} build calls, build peak {} B",
        got.bytes, got.blocks, got.calls, got.peak
    );
    assert!(
        got.bytes <= budget.0,
        "{name} holds {} B (budget {})",
        got.bytes,
        budget.0
    );
    assert!(
        got.blocks <= budget.1,
        "{name} holds {} blocks (budget {})",
        got.blocks,
        budget.1
    );
    assert!(
        got.calls <= budget.2,
        "{name}'s build made {} heap calls (budget {})",
        got.calls,
        budget.2
    );
}

#[test]
fn a_planning_instance_stores_each_route_once() {
    // First-use allocations (lazily built statics) are not an instance's.
    drop(island_instance(16, 0));
    drop(paper_shape_instance(5, 0));

    const K: isize = 400;
    let island = measure(|| island_instance(K as usize, 42));
    check("K = 400 islands", &island, (800_000, 7, 940));
    assert!(
        island.peak < island.bytes + 4 * K * K,
        "the K = 400 build held {} B at once: more than the instance's {} B plus a \
         second pair table",
        island.peak,
        island.bytes
    );
    let paper = measure(|| paper_shape_instance(95, 42));
    check("K = 95 paper shape", &paper, (200_000, 7, 575));
    let relays = PlatformConfig {
        num_clusters: 95,
        connectivity: 0.3,
        relay_routers: 5,
        ..PlatformConfig::default()
    };
    let relayed = measure(|| PlatformGenerator::new(42).generate(&relays));
    check("K = 95 with 5 relays", &relayed, (205_000, 6, 505));
}
