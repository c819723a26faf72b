//! Adaptive periodic rescheduling — §1's motivation (iii) in action.
//!
//! Steady-state schedules are periodic, so the scheduler can fold observed
//! resource variation into the next period's optimisation. The catalog's
//! `drift` scenario walks every speed and bandwidth multiplicatively each
//! period while jobs arrive; we replay it twice on the same timeline:
//!
//! * `PeriodicResolve` re-solves the LPRG allocation every period on the
//!   drifted platform (warm-started LP);
//! * `StaleScale` keeps the epoch-0 allocation and shrinks it uniformly
//!   (`scale_to_fit`) whenever drift makes it infeasible.
//!
//! ```text
//! cargo run --example adaptive_rescheduling
//! ```

use dls::prelude::*;
use dls::scenario::build_catalog_entry;

fn main() {
    let (inst, scenario) = build_catalog_entry("drift", 8, 3).expect("known catalog entry");
    println!(
        "scenario `{}`: {} jobs, {} capacity updates over {} drift epochs of length {}",
        scenario.name,
        scenario.jobs.len(),
        scenario.platform_events.len(),
        scenario
            .platform_events
            .last()
            .map_or(0.0, |e| e.time / scenario.period),
        scenario.period,
    );
    println!();
    println!("policy      jobs  periods  makespan  mean-resp  achieved  allocated  resolves");

    let run = |name: &str, policy: &mut dyn ReschedulePolicy| -> ScenarioReport {
        let report = run_scenario(&inst, &scenario, policy, &ScenarioConfig::default())
            .expect("scenario executes");
        println!(
            "{:<10} {:>3}/{:<3} {:>6}  {:>8.2}  {:>9.2}  {:>8.2}  {:>9.2}  {:>8}",
            name,
            report.completed_jobs,
            report.jobs,
            report.periods,
            report.makespan,
            report.mean_response,
            report.achieved_throughput,
            report.allocated_throughput,
            report.reschedules,
        );
        report
    };

    let mut periodic = PeriodicResolve::new(Resolver::warm(&inst).expect("warm context builds"));
    let adaptive = run("adaptive", &mut periodic);
    let mut stale = StaleScale::new(Resolver::Cold);
    let baseline = run("stale", &mut stale);

    println!();
    println!(
        "allocated throughput per period: adaptive/stale = {:.3}×",
        adaptive.allocated_throughput / baseline.allocated_throughput.max(1e-9),
    );
    println!(
        "re-solving every period finishes the backlog {:.1}% sooner",
        100.0 * (baseline.makespan / adaptive.makespan.max(1e-9) - 1.0),
    );
    assert_eq!(adaptive.completed_jobs, adaptive.jobs);
    assert!(
        adaptive.makespan <= baseline.makespan * (1.0 + 1e-9),
        "re-solving on the drifted platform must not finish later than a shrunk stale plan"
    );
}
