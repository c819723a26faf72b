//! Shared cross-crate test harness.
//!
//! Every integration suite in this workspace needs the same four things:
//! deterministic platform/problem fixtures, "is this allocation actually
//! Eq. 7-valid" assertions, tolerant float comparisons, and a driver for the
//! `dls-cli` binary. They live here once so later PRs compose tests instead
//! of re-rolling fixtures per file.
//!
//! ```no_run
//! use dls_testkit::fixtures;
//! use dls_testkit::assertions::assert_valid_allocation;
//! # use dls_core::heuristics::{Greedy, Heuristic};
//!
//! let inst = fixtures::line_instance(5);
//! let alloc = Greedy::default().solve(&inst).unwrap();
//! assert_valid_allocation(&inst, &alloc, "greedy on the line platform");
//! ```

pub mod alloc;
pub mod approx;
pub mod assertions;
pub mod cli;
pub mod faults;
pub mod fixtures;
pub mod service;

pub use alloc::CountingAlloc;
pub use approx::{assert_close, assert_le_slack, close, rel_err};
pub use assertions::{
    assert_schedule_executes, assert_valid_allocation, assert_within_bound, assert_within_bound_of,
    lp_bound, ExecutionCheck,
};
pub use cli::{run_expect_fail, run_ok, run_with_stdin};
pub use faults::{
    audit_catches, inject_warm_lp_faults, FaultPlan, FaultStrength, FaultyPolicy, InjectedError,
};
pub use service::{
    canonical_report_json, expected_report, expected_report_with_checkpoint, ServiceHarness,
};
