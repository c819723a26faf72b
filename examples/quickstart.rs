//! Quickstart: build a small Grid platform, schedule three divisible-load
//! applications fairly, and print the resulting steady-state allocation and
//! periodic schedule.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dls::prelude::*;

fn main() {
    // --- 1. Describe the platform (Figure 1 of the paper, in miniature) ---
    // Three institutions: a big cluster, a medium one and a small one,
    // linked by wide-area backbone links with per-connection bandwidth and
    // connection caps.
    let mut b = PlatformBuilder::new();
    let lyon = b.add_cluster(400.0, 120.0); // s = 400, g = 120
    let sandiego = b.add_cluster(250.0, 60.0);
    let tokyo = b.add_cluster(100.0, 90.0);
    b.connect_clusters(lyon, sandiego, 25.0, 4); // bw/connection, max-connect
    b.connect_clusters(sandiego, tokyo, 10.0, 6);
    b.connect_clusters(lyon, tokyo, 15.0, 2);
    let platform = b.build().expect("valid platform");

    // --- 2. One divisible application per cluster, MAX-MIN fairness ---
    let problem = ProblemInstance::uniform(platform, Objective::MaxMin);

    // --- 3. Solve with the paper's best practical heuristic (LPRG) ---
    let allocation = Lprg.solve(&problem).expect("solvable");
    allocation.validate(&problem).expect("valid allocation");

    println!("per-application throughput (load units / time unit):");
    for (k, t) in allocation.throughputs().iter().enumerate() {
        println!("  A_{k}: {t:.2}");
    }
    println!(
        "MAXMIN objective: {:.2} (LP upper bound: {:.2})",
        allocation.objective_value(&problem),
        UpperBound.bound(&problem).unwrap(),
    );

    // --- 4. Reconstruct the periodic schedule of §3.2 ---
    let schedule = ScheduleBuilder::default()
        .build(&problem, &allocation)
        .expect("schedulable");
    println!("\n{}", schedule.describe());

    // --- 5. Execute it in the event-driven simulator ---
    let report = Simulator::new(&problem).run(&schedule, &SimConfig::default());
    println!("{}", report.summary());
    assert!(report.achieves(0.95), "steady state should be sustained");
}
