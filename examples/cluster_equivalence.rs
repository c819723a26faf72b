//! Collapsing real cluster interiors into equivalent processors (§2).
//!
//! The paper's platform model represents each institution by a single
//! `(s_k, g_k)` pair, citing classical divisible-load-theory equivalence
//! results. This example starts from *full* cluster descriptions — a star
//! and a two-level tree of heterogeneous workers — computes their
//! equivalent speeds under both communication models, and schedules on the
//! collapsed platform.
//!
//! ```text
//! cargo run --example cluster_equivalence
//! ```

use dls::core::heuristics::{Heuristic, Lprg};
use dls::core::{Objective, ProblemInstance};
use dls::platform::equivalent::{star_equivalent_speed, EquivalentModel, TreeNode, Worker};
use dls::platform::PlatformBuilder;

fn main() {
    // Institution A: a front-end (no compute) driving 4 heterogeneous
    // workers over a switched LAN (bounded multiport, 1 Gb/s ≈ 120 units
    // aggregate egress).
    let workers_a = [
        Worker {
            speed: 80.0,
            link_bw: 50.0,
        },
        Worker {
            speed: 40.0,
            link_bw: 50.0,
        },
        Worker {
            speed: 120.0,
            link_bw: 30.0,
        },
        Worker {
            speed: 20.0,
            link_bw: 50.0,
        },
    ];
    let multiport = EquivalentModel::BoundedMultiport { egress: 120.0 };
    let s_a = star_equivalent_speed(0.0, &workers_a, multiport);
    let s_a_oneport = star_equivalent_speed(0.0, &workers_a, EquivalentModel::OnePort);
    println!("institution A (star of 4 workers):");
    println!("  equivalent speed, bounded multiport: {s_a:.1}");
    println!("  equivalent speed, one-port:          {s_a_oneport:.1}");

    // Institution B: a two-level tree (departmental switches).
    let tree_b = TreeNode {
        speed: 10.0,
        children: vec![
            (
                60.0,
                TreeNode {
                    speed: 20.0,
                    children: vec![(40.0, TreeNode::leaf(70.0)), (40.0, TreeNode::leaf(70.0))],
                },
            ),
            (
                30.0,
                TreeNode {
                    speed: 15.0,
                    children: vec![(25.0, TreeNode::leaf(90.0))],
                },
            ),
        ],
    };
    let s_b = tree_b.equivalent_speed(multiport);
    println!(
        "institution B (tree of {} processors): equivalent speed {s_b:.1}",
        tree_b.size()
    );

    // Build the collapsed wide-area platform and schedule two applications.
    let mut b = PlatformBuilder::new();
    let a = b.add_cluster(s_a, 80.0);
    let bb = b.add_cluster(s_b, 40.0);
    b.connect_clusters(a, bb, 12.0, 3);
    let platform = b.build().unwrap();
    let problem = ProblemInstance::uniform(platform, Objective::MaxMin);
    let alloc = Lprg.solve(&problem).unwrap();
    alloc.validate(&problem).unwrap();

    println!("\ncollapsed platform schedule (MAXMIN):");
    for (k, t) in alloc.throughputs().iter().enumerate() {
        println!("  A_{k}: {t:.1} load units / time unit");
    }
    assert!(s_a > s_a_oneport - 1e-9, "multiport dominates one-port");
}
