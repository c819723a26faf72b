//! Eq. 7 validity and end-to-end execution assertions.

use crate::approx::assert_le_slack;
use dls_core::heuristics::UpperBound;
use dls_core::schedule::ScheduleBuilder;
use dls_core::{Allocation, ProblemInstance};
use dls_sim::{SimConfig, SimReport, Simulator};

/// Panics with every violated Eq. 7 constraint when `alloc` is invalid for
/// `inst`. `what` names the scenario in the failure message.
#[track_caller]
pub fn assert_valid_allocation(inst: &ProblemInstance, alloc: &Allocation, what: &str) {
    if let Err(violations) = alloc.validate(inst) {
        let lines: Vec<String> = violations.iter().map(|v| format!("  - {v}")).collect();
        panic!(
            "{what}: allocation violates Eq. 7 ({} constraint(s)):\n{}",
            violations.len(),
            lines.join("\n")
        );
    }
}

/// Solves the LP relaxation upper bound for `inst`, panicking with context
/// on solver failure. Compute this once per instance and feed it to
/// [`assert_within_bound_of`] when checking several heuristics — each call
/// is a full LP solve.
#[track_caller]
pub fn lp_bound(inst: &ProblemInstance, what: &str) -> f64 {
    UpperBound
        .bound(inst)
        .unwrap_or_else(|e| panic!("{what}: LP bound failed to solve: {e}"))
}

/// Panics unless `alloc`'s objective stays within `slack` (relative, scaled
/// by `1 + bound`) of the LP relaxation bound. Solves the LP itself; in a
/// loop over heuristics prefer [`lp_bound`] + [`assert_within_bound_of`].
#[track_caller]
pub fn assert_within_bound(
    inst: &ProblemInstance,
    alloc: &Allocation,
    slack: f64,
    what: &str,
) -> f64 {
    assert_within_bound_of(inst, alloc, lp_bound(inst, what), slack, what)
}

/// Panics unless `alloc`'s objective stays within `slack` of a precomputed
/// `bound`. Returns the achieved value.
#[track_caller]
pub fn assert_within_bound_of(
    inst: &ProblemInstance,
    alloc: &Allocation,
    bound: f64,
    slack: f64,
    what: &str,
) -> f64 {
    let value = alloc.objective_value(inst);
    assert_le_slack(value, bound, slack, what);
    value
}

/// What [`assert_schedule_executes`] requires of the simulation.
#[derive(Debug, Clone)]
pub struct ExecutionCheck {
    /// Minimum fraction of the predicted throughput (see
    /// [`SimReport::achieves`]).
    pub min_efficiency: f64,
    /// Maximum tolerated transfer lateness (time units).
    pub max_lateness: f64,
    /// Require per-link connection caps to hold at every instant.
    pub connection_caps: bool,
    /// Simulator configuration.
    pub sim: SimConfig,
}

impl Default for ExecutionCheck {
    fn default() -> Self {
        ExecutionCheck {
            min_efficiency: 0.85,
            max_lateness: 1e-6,
            connection_caps: true,
            // Tests always cross-check the incremental allocator against
            // the full `allocate_rates` oracle at every simulation event
            // (divergence beyond 1e-9 relative panics inside the engine).
            sim: SimConfig {
                oracle_check: true,
                ..SimConfig::default()
            },
        }
    }
}

/// Validates `alloc`, reconstructs the periodic schedule, executes it in the
/// simulator, and asserts the whole chain: Eq. 7 validity, schedule
/// validity, throughput efficiency, lateness, and connection caps. Returns
/// the report for further scenario-specific assertions.
#[track_caller]
pub fn assert_schedule_executes(
    inst: &ProblemInstance,
    alloc: &Allocation,
    check: &ExecutionCheck,
    what: &str,
) -> SimReport {
    assert_valid_allocation(inst, alloc, what);
    let schedule = ScheduleBuilder::default()
        .build(inst, alloc)
        .unwrap_or_else(|e| panic!("{what}: schedule reconstruction failed: {e}"));
    schedule
        .validate(inst)
        .unwrap_or_else(|e| panic!("{what}: reconstructed schedule invalid: {e}"));
    let report = Simulator::new(inst).run(&schedule, &check.sim);
    assert!(
        report.achieves(check.min_efficiency),
        "{what}: schedule underperforms: {}",
        report.summary()
    );
    assert!(
        report.max_transfer_lateness <= check.max_lateness,
        "{what}: transfers late by {}",
        report.max_transfer_lateness
    );
    if check.connection_caps {
        assert!(
            report.connection_caps_respected,
            "{what}: connection caps exceeded (peaks {:?})",
            report.peak_connections
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use dls_core::heuristics::{Greedy, Heuristic};
    use dls_core::Objective;

    #[test]
    fn valid_chain_passes() {
        let inst = fixtures::two_cluster_instance(Objective::MaxMin);
        let alloc = Greedy.solve(&inst).unwrap();
        assert_valid_allocation(&inst, &alloc, "greedy pair");
        assert_within_bound(&inst, &alloc, 1e-5, "greedy pair");
        assert_schedule_executes(&inst, &alloc, &ExecutionCheck::default(), "greedy pair");
    }

    #[test]
    #[should_panic(expected = "violates Eq. 7")]
    fn invalid_allocation_is_reported() {
        let inst = fixtures::two_cluster_instance(Objective::MaxMin);
        let mut alloc = Allocation::zeros(2);
        // Local compute beyond cluster 0's speed.
        alloc.alpha[0] = 1e6;
        assert_valid_allocation(&inst, &alloc, "overdriven");
    }
}
