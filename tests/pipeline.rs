//! Cross-crate integration: generate → solve → validate → reconstruct →
//! simulate, for every heuristic, on the shared fixture matrix.

use dls::core::heuristics::{Greedy, Heuristic, Lpr, Lprg, Lprr, UpperBound};
use dls_testkit::assertions::{
    assert_schedule_executes, assert_within_bound_of, lp_bound, ExecutionCheck,
};
use dls_testkit::fixtures;

#[test]
fn full_pipeline_for_every_heuristic() {
    for (i, inst) in fixtures::instance_matrix().iter().enumerate() {
        let bound = lp_bound(inst, &format!("instance {i}"));
        let heuristics: Vec<(&str, Box<dyn Heuristic>)> = vec![
            ("G", Box::new(Greedy)),
            ("LPR", Box::new(Lpr)),
            ("LPRG", Box::new(Lprg)),
            ("LPRR", Box::new(Lprr::new(i as u64))),
        ];
        for (name, h) in heuristics {
            let what = format!("{name} on instance {i}");
            let alloc = h.solve(inst).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_within_bound_of(inst, &alloc, bound, 1e-5, &what);
            // Reconstruct and execute.
            assert_schedule_executes(inst, &alloc, &ExecutionCheck::default(), &what);
        }
    }
}

#[test]
fn dominance_chain_holds_across_instances() {
    for inst in &fixtures::instance_matrix() {
        let bound = UpperBound.bound(inst).unwrap();
        let lpr = Lpr.solve(inst).unwrap().objective_value(inst);
        let lprg = Lprg.solve(inst).unwrap().objective_value(inst);
        let slack = 1e-6 * (1.0 + bound);
        assert!(lpr <= lprg + slack, "LPR {lpr} > LPRG {lprg}");
        assert!(lprg <= bound + slack, "LPRG {lprg} > LP {bound}");
    }
}

#[test]
fn facade_prelude_compiles_and_works() {
    use dls::prelude::*;
    let mut b = PlatformBuilder::new();
    let c0 = b.add_cluster(100.0, 50.0);
    let c1 = b.add_cluster(200.0, 80.0);
    b.connect_clusters(c0, c1, 10.0, 4);
    let platform = b.build().unwrap();
    let problem = ProblemInstance::uniform(platform, Objective::MaxMin);
    let allocation = Lprg.solve(&problem).unwrap();
    assert!(allocation.validate(&problem).is_ok());
    assert!(allocation.objective_value(&problem) > 0.0);
}
