//! Multi-hop stress tests: on sparse platforms routes traverse several
//! backbone links and *share* them with other routes, which is exactly
//! where Eq. 7d (per-link connection budgets) and the LP's β-elimination
//! must agree with the greedy's residual accounting.

use dls::core::heuristics::{Greedy, Heuristic, Lpr, Lprg, Lprr};
use dls::core::{Objective, ProblemInstance};
use dls::platform::{ClusterId, PlatformBuilder, PlatformConfig, PlatformGenerator};
use dls_testkit::assertions::{
    assert_schedule_executes, assert_valid_allocation, assert_within_bound_of, lp_bound,
    ExecutionCheck,
};
use dls_testkit::fixtures;

#[test]
fn line_platform_routes_are_multi_hop() {
    let inst = fixtures::line_instance(5);
    let p = &inst.platform;
    assert_eq!(
        p.route(ClusterId(0), ClusterId(4)).unwrap().len(),
        4,
        "end-to-end route must cross all four links"
    );
    // Shared-link structure: routes 0→4 and 1→3 overlap on the middle.
    let r04 = p.route(ClusterId(0), ClusterId(4)).unwrap();
    let r13 = p.route(ClusterId(1), ClusterId(3)).unwrap();
    assert!(r13.iter().all(|l| r04.contains(l)));
}

#[test]
fn all_heuristics_valid_on_line_platform() {
    let inst = fixtures::line_instance(5);
    let bound = lp_bound(&inst, "line platform");
    let heuristics: Vec<(&str, Box<dyn Heuristic>)> = vec![
        ("G", Box::new(Greedy)),
        ("LPR", Box::new(Lpr)),
        ("LPRG", Box::new(Lprg)),
        ("LPRR", Box::new(Lprr::new(3))),
    ];
    for (name, h) in heuristics {
        let alloc = h.solve(&inst).unwrap();
        assert_within_bound_of(&inst, &alloc, bound, 1e-6, name);
        // Execute it too: multi-hop schedules must still be on time.
        assert_schedule_executes(&inst, &alloc, &ExecutionCheck::default(), name);
    }
}

#[test]
fn sparse_random_platforms_share_links() {
    // Low connectivity forces long routes; heuristics must stay valid and
    // below the bound despite heavy link sharing.
    let mut saw_multi_hop = false;
    for seed in 0..8u64 {
        let cfg = PlatformConfig {
            num_clusters: 10,
            connectivity: 0.15,
            mean_max_connections: 5.0,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(seed).generate(&cfg);
        let max_hops = p
            .routed_pairs()
            .iter()
            .map(|&(a, b)| p.route(a, b).unwrap().len())
            .max()
            .unwrap_or(0);
        if max_hops >= 2 {
            saw_multi_hop = true;
        }
        for objective in [Objective::Sum, Objective::MaxMin] {
            let inst = ProblemInstance::with_spread_payoffs(p.clone(), objective, 0.5, seed);
            let bound = lp_bound(&inst, &format!("seed {seed} {objective:?}"));
            for (name, alloc) in [
                ("G", Greedy.solve(&inst).unwrap()),
                ("LPRG", Lprg.solve(&inst).unwrap()),
            ] {
                let what = format!("{name} seed {seed} {objective:?}");
                assert_valid_allocation(&inst, &alloc, &what);
                assert_within_bound_of(&inst, &alloc, bound, 1e-5, &what);
            }
        }
    }
    assert!(
        saw_multi_hop,
        "test platforms never exercised multi-hop routes"
    );
}

#[test]
fn relay_router_platforms_solve_cleanly() {
    // Relay routers (Figure 2's intermediate routers) lengthen routes
    // without adding clusters.
    for seed in 0..4u64 {
        let cfg = PlatformConfig {
            num_clusters: 6,
            connectivity: 0.7,
            relay_routers: 6,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(seed).generate(&cfg);
        assert!(p.num_routers > 6);
        let inst = ProblemInstance::with_spread_payoffs(p, Objective::MaxMin, 0.5, seed);
        let alloc = Lprg.solve(&inst).unwrap();
        let check = ExecutionCheck {
            min_efficiency: 0.9,
            ..ExecutionCheck::default()
        };
        assert_schedule_executes(&inst, &alloc, &check, &format!("LPRG relay seed {seed}"));
    }
}

#[test]
fn shared_link_budget_is_respected_exactly() {
    // Two outer clusters both shipping through one middle link with
    // max-connect = 2: total β across both routes can never exceed 2.
    let mut b = PlatformBuilder::new();
    let left = b.add_cluster(10.0, 100.0);
    let right = b.add_cluster(10.0, 100.0);
    let hub = b.add_cluster(1000.0, 400.0);
    let far = b.add_cluster(1000.0, 400.0);
    b.connect_clusters(left, hub, 30.0, 9);
    b.connect_clusters(right, hub, 30.0, 9);
    b.connect_clusters(hub, far, 30.0, 2); // the scarce shared link
    let inst = ProblemInstance::new(
        b.build().unwrap(),
        vec![1.0, 1.0, 0.0, 0.0],
        Objective::MaxMin,
    )
    .unwrap();
    for (name, alloc) in [
        ("G", Greedy.solve(&inst).unwrap()),
        ("LPRG", Lprg.solve(&inst).unwrap()),
        ("LPRR", Lprr::new(1).solve(&inst).unwrap()),
    ] {
        assert_valid_allocation(&inst, &alloc, name);
        let shared_use = alloc.beta(ClusterId(0), ClusterId(3))
            + alloc.beta(ClusterId(1), ClusterId(3))
            + alloc.beta(ClusterId(3), ClusterId(0))
            + alloc.beta(ClusterId(3), ClusterId(1))
            + alloc.beta(ClusterId(2), ClusterId(3))
            + alloc.beta(ClusterId(3), ClusterId(2));
        assert!(shared_use <= 2, "shared link oversubscribed: {shared_use}");
    }
}
