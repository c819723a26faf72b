//! The pin sweep's probes allocate next to nothing.
//!
//! Every probe of `Lprr::pin_sweep` starts from a context equal to the
//! warm-started base. A worker clones the base once and refreshes that
//! context in place before each later probe (`WarmSimplex::clone_from`
//! reuses every buffer), so a further probe costs its patches and its
//! solve, not a copy of the model, the standard form and the factor. This
//! binary installs `dls_testkit::CountingAlloc` and runs one `threads = 1`
//! sweep (on the calling thread, so the per-thread counter sees all of it)
//! at two probe caps: the heap calls per extra probe are budgeted.
//!
//! - A K = 48 island instance (`dls_scenario::catalog::island_instance`,
//!   the `plan_island` shape; m = 648 lowered rows, dense inverse).
//! - A K = 30 paper-shape instance (m = 1 134, dense inverse).
//! - A K = 44 paper-shape instance (past `SPARSE_MIN_ROWS`: sparse LU).
//!
//! Measured on x86-64 Linux (heap calls = `alloc` + `alloc_zeroed` +
//! `realloc`, release; 4 → 20 probes, per extra probe):
//!
//! ```text
//!                                   before    after
//!   K = 48 island                   1803.1      5.1
//!   K = 30 paper shape              3255.2      5.2
//!   K = 44 paper shape (sparse)     6864.2      5.2
//! ```
//!
//! "Before" cloned the base for every probe (measured with its single
//! shard moved onto the calling thread). A further probe now makes
//! only the heap calls of its own pin delta and solve, whatever the
//! context's size.
//!
//! The counter is per thread, so the tests can run side by side.

use dls::core::heuristics::Lprr;
use dls::lp::standard::StandardForm;
use dls::lp::SPARSE_MIN_ROWS;
use dls::prelude::*;
use dls::scenario::catalog::{island_instance, paper_shape_instance};
use dls_testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap calls per extra probe the sweep may make.
const PER_PROBE_BUDGET: f64 = 10.0;

/// Rows of the lowered warm relaxation the sweep starts from.
fn warm_rows(inst: &ProblemInstance) -> usize {
    let f = dls::core::formulation::LpFormulation::relaxation_warm(inst).expect("formulates");
    StandardForm::from_model(&f.model).expect("lowers").m
}

/// Heap calls made by one sequential sweep capped at `max_probes`, and the
/// number of probes it ran.
fn sweep_calls(inst: &ProblemInstance, max_probes: usize) -> (usize, usize) {
    let lprr = Lprr {
        threads: 1,
        ..Lprr::new(7)
    };
    let before = CountingAlloc::thread_calls();
    let report = lprr.pin_sweep(inst, max_probes).expect("the sweep solves");
    let calls = CountingAlloc::thread_calls() - before;
    assert_eq!(report.threads, 1);
    (calls, report.probes.len())
}

/// Heap calls per extra probe between a 4-probe and a 20-probe sweep,
/// checked against the budget; `sparse` names the basis representation the
/// instance's warm relaxation runs on.
fn assert_probes_allocate_next_to_nothing(name: &str, inst: &ProblemInstance, sparse: bool) {
    assert_eq!(warm_rows(inst) >= SPARSE_MIN_ROWS, sparse, "{name}");
    // First-use allocations (lazily built statics) are not the sweep's.
    sweep_calls(inst, 1);
    let (few, n_few) = sweep_calls(inst, 4);
    let (many, n_many) = sweep_calls(inst, 20);
    assert!(n_many > n_few, "{name}: {n_few} vs {n_many} probes");
    let per_probe = (many as f64 - few as f64) / (n_many - n_few) as f64;
    println!(
        "{name}: {n_few} probes {few} heap calls, {n_many} probes {many}: \
         {per_probe:.1} per extra probe"
    );
    assert!(
        per_probe <= PER_PROBE_BUDGET,
        "{name}: {per_probe:.1} heap calls per extra probe: a probe copies its context"
    );
}

#[test]
fn island_sweep_probes_allocate_next_to_nothing() {
    assert_probes_allocate_next_to_nothing(
        "K = 48 island",
        &island_instance(48, 42).expect("a non-empty federation"),
        false,
    );
}

#[test]
fn paper_shape_sweep_probes_allocate_next_to_nothing() {
    let dense = paper_shape_instance(30, 42);
    assert_probes_allocate_next_to_nothing("K = 30 paper shape", &dense, false);
    let sparse = paper_shape_instance(44, 42);
    assert_probes_allocate_next_to_nothing("K = 44 paper shape", &sparse, true);
}
