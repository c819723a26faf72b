//! SUM vs MAXMIN on an asymmetric platform — the paper's two objective
//! functions (Eq. 5 / Eq. 6) embody very different policies, and payoff
//! factors tilt either of them.
//!
//! A well-connected "hub" application competes with two poorly-connected
//! ones. SUM happily starves the weak applications to maximise total
//! payoff; MAXMIN equalises weighted throughputs at some cost in total
//! load. Payoffs then prioritise one application under both policies.
//!
//! ```text
//! cargo run --example fairness_sum_vs_maxmin
//! ```

use dls::core::heuristics::{Heuristic, Lprg, UpperBound};
use dls::core::{Objective, ProblemInstance};
use dls::platform::PlatformBuilder;

fn build_platform() -> dls::platform::Platform {
    let mut b = PlatformBuilder::new();
    // The hub: modest own speed, fat pipes to two big helpers.
    let hub = b.add_cluster(50.0, 200.0);
    let helper_a = b.add_cluster(300.0, 150.0);
    let helper_b = b.add_cluster(300.0, 150.0);
    // Two isolated-ish clusters with thin connectivity.
    let edge_1 = b.add_cluster(80.0, 20.0);
    let edge_2 = b.add_cluster(60.0, 15.0);
    b.connect_clusters(hub, helper_a, 40.0, 4);
    b.connect_clusters(hub, helper_b, 40.0, 4);
    b.connect_clusters(edge_1, helper_a, 5.0, 1);
    b.connect_clusters(edge_2, helper_b, 5.0, 1);
    b.build().expect("valid platform")
}

fn solve_and_report(problem: &ProblemInstance, label: &str) {
    let alloc = Lprg.solve(problem).expect("solvable");
    alloc.validate(problem).expect("valid");
    let t = alloc.throughputs();
    let bound = UpperBound.bound(problem).unwrap();
    println!("\n=== {label} ===");
    println!(
        "  throughputs: {}",
        t.iter()
            .enumerate()
            .map(|(k, v)| format!("A_{k}={v:.1}"))
            .collect::<Vec<_>>()
            .join("  ")
    );
    println!(
        "  objective {:.1} (LP bound {:.1}), total load {:.1}",
        alloc.objective_value(problem),
        bound,
        alloc.total_load()
    );
}

fn main() {
    let platform = build_platform();

    // Uniform payoffs: SUM vs MAXMIN.
    let sum = ProblemInstance::uniform(platform.clone(), Objective::Sum);
    solve_and_report(&sum, "SUM, uniform payoffs (total throughput rules)");

    let maxmin = ProblemInstance::uniform(platform.clone(), Objective::MaxMin);
    solve_and_report(&maxmin, "MAXMIN, uniform payoffs (fairness rules)");

    // Priorities: the hub's application is 3× as valuable.
    let payoffs = vec![3.0, 1.0, 1.0, 1.0, 1.0];
    let prio = ProblemInstance::new(platform, payoffs, Objective::MaxMin).unwrap();
    solve_and_report(&prio, "MAXMIN, hub payoff ×3 (weighted fairness)");

    // The qualitative claims worth asserting:
    let sum_alloc = Lprg.solve(&sum).unwrap();
    let mm_alloc = Lprg.solve(&maxmin).unwrap();
    let sum_min = sum_alloc
        .throughputs()
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    let mm_min = mm_alloc
        .throughputs()
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    assert!(
        mm_min >= sum_min - 1e-9,
        "MAXMIN should never leave the weakest app worse off than SUM"
    );
    assert!(
        sum_alloc.total_load() >= mm_alloc.total_load() - 1e-6,
        "SUM should achieve at least MAXMIN's total load"
    );
    println!("\nchecks passed: MAXMIN lifts the minimum ({sum_min:.1} → {mm_min:.1}),");
    println!(
        "SUM keeps total load at least as high ({:.1} ≥ {:.1})",
        sum_alloc.total_load(),
        mm_alloc.total_load()
    );
}
