//! Capacity planning with LP shadow prices: *which resource should this
//! Grid upgrade first?* The dual values of the steady-state relaxation
//! price every resource: compute speed (Eq. 7b), local links (7c),
//! backbone connection budgets (7d).
//!
//! ```text
//! cargo run --example bottleneck_analysis
//! ```

use dls::core::bottleneck;
use dls::core::{Objective, ProblemInstance};
use dls::platform::PlatformBuilder;

fn main() {
    // Shadow prices on a congested platform.
    let mut b = PlatformBuilder::new();
    let main_site = b.add_cluster(80.0, 25.0); // starved local link
    let helper_a = b.add_cluster(300.0, 200.0);
    let helper_b = b.add_cluster(150.0, 200.0);
    b.connect_clusters(main_site, helper_a, 15.0, 2); // tight connection cap
    b.connect_clusters(main_site, helper_b, 20.0, 8);
    let problem =
        ProblemInstance::new(b.build().unwrap(), vec![1.0, 0.2, 0.2], Objective::Sum).unwrap();

    let report = bottleneck::analyze(&problem).expect("solvable");
    println!("steady-state objective (LP): {:.1}", report.objective);
    println!("shadow prices (objective gain per unit of capacity):");
    for (what, price) in report.ranked() {
        println!("  {price:>7.3}  {what}");
    }
    if let Some((what, price)) = report.top() {
        println!("→ upgrade first: {what} (worth {price:.3} per unit)");
    }
}
