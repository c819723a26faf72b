//! From rates to an executable schedule — §3.2 end to end.
//!
//! Solves a 6-cluster instance, reconstructs the periodic schedule in both
//! modes (common-denominator and paper-faithful lcm), and executes it in the
//! event-driven simulator under max-min fair sharing. Payoffs are spread
//! around 1 as in the paper's sweeps, so LPRG ships load between clusters
//! and the simulated transfers share local links.
//!
//! ```text
//! cargo run --example schedule_and_simulate
//! ```

use dls::core::heuristics::{Heuristic, Lprg};
use dls::core::schedule::{rate_to_fraction, ScheduleBuilder};
use dls::core::{Objective, ProblemInstance};
use dls::platform::{PlatformConfig, PlatformGenerator};
use dls::sim::{SimConfig, Simulator};

fn main() {
    let cfg = PlatformConfig {
        num_clusters: 6,
        connectivity: 0.6,
        heterogeneity: 0.4,
        ..PlatformConfig::default()
    };
    let platform = PlatformGenerator::new(5).generate(&cfg);
    let problem = ProblemInstance::with_spread_payoffs(platform, Objective::MaxMin, 0.5, 5);
    let alloc = Lprg.solve(&problem).expect("solvable");

    // The paper's u/v fractions for a couple of rates.
    println!("sample rate → fraction conversions (max denominator 100):");
    for &rate in alloc.alpha.iter().filter(|a| **a > 0.0).take(4) {
        println!("  {rate:.6} ≈ {}", rate_to_fraction(rate, 100).unwrap());
    }

    // Common-denominator reconstruction: period = 1000 time units.
    let schedule = ScheduleBuilder::default().build(&problem, &alloc).unwrap();
    println!(
        "\ncommon-denominator schedule: T_p = {}, {} compute tasks, {} transfers",
        schedule.period,
        schedule.compute_tasks.len(),
        schedule.transfers.len()
    );
    assert!(
        !schedule.transfers.is_empty(),
        "the schedule ships load, so the simulation shares links"
    );

    // Paper-faithful lcm reconstruction with small denominators.
    match (ScheduleBuilder { denominator: 32 }).build_exact(&problem, &alloc) {
        Ok(exact) => println!("exact lcm schedule:          T_p = {}", exact.period),
        Err(e) => println!("exact lcm schedule overflowed ({e}) — expected for wild rates"),
    }

    // Execute under max-min fair sharing of the local links.
    let fair = Simulator::new(&problem).run(&schedule, &SimConfig::default());
    println!("\nmax-min fair sharing : {}", fair.summary());
    assert!(fair.achieves(0.95));
}
