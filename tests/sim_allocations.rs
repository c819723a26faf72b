//! The simulators allocate nothing per period.
//!
//! A periodic schedule repeats the same transfers every period, so once the
//! first periods have sized the event heap, the flow slots, the compute
//! queues and the allocator's batch memo, a further period reuses them.
//! This binary installs `dls_testkit::CountingAlloc` and runs each simulator
//! for two horizons: the heap calls made inside the simulator must not
//! grow with the period count.
//!
//! - `Simulator::run` of one K = 20 Greedy schedule.
//! - `LiveSim::advance_to`, driven period by period through a K = 5 Greedy
//!   schedule with `record_events` off. The driver's own `add_flows` /
//!   `enqueue_compute` calls allocate (one payload per flow) and are not
//!   counted.
//!
//! Measured on x86-64 Linux (heap calls = `alloc` + `alloc_zeroed` +
//! `realloc`, debug and release alike):
//!
//! ```text
//!                                      50 periods   400 periods
//!   Simulator::run (K = 20)                   147           147
//!   LiveSim::advance_to (K = 5), before       257          2007
//!   LiveSim::advance_to (K = 5), after          7             7
//! ```
//!
//! "Before" collected each completion batch into a fresh `Vec`; the flow
//! core now hands each completion to a closure instead (which also dropped
//! `Simulator::run`'s own batch buffer, 148 → 147).
//!
//! The counter is per thread, so the tests can run side by side.

use dls::prelude::*;
use dls::scenario::catalog::paper_shape_instance;
use dls::sim::{ChunkPart, LiveFlowSpec};
use dls_testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap calls made by one `run` of `periods` periods.
fn heap_calls(sim: &Simulator, schedule: &PeriodicSchedule, periods: usize) -> usize {
    let cfg = SimConfig {
        periods,
        ..SimConfig::default()
    };
    let before = CountingAlloc::thread_calls();
    let report = sim.run(schedule, &cfg);
    let calls = CountingAlloc::thread_calls() - before;
    assert!(report.efficiency > 0.0, "{}", report.summary());
    drop(report);
    calls
}

#[test]
fn simulator_run_allocates_nothing_per_period() {
    let inst = paper_shape_instance(20, 42);
    let alloc = Greedy.solve(&inst).expect("Greedy always solves");
    let schedule = ScheduleBuilder::default()
        .build(&inst, &alloc)
        .expect("valid allocations reconstruct");
    assert!(!schedule.transfers.is_empty(), "the schedule ships work");
    let sim = Simulator::new(&inst);
    // First-use allocations (lazily built statics) are not the run's.
    heap_calls(&sim, &schedule, 2);

    let short = heap_calls(&sim, &schedule, 50);
    let long = heap_calls(&sim, &schedule, 400);
    println!("heap calls: 50 periods {short}, 400 periods {long}");
    assert!(
        long <= short,
        "400 periods made {long} heap calls, 50 periods {short}: `run` allocates per period"
    );
}

/// Heap calls made inside `advance_to` over `periods` periods of a
/// `LiveSim` that replays `schedule`: every period stages its transfers as
/// flows and its local work as compute, then advances to the boundary.
fn live_heap_calls(inst: &ProblemInstance, schedule: &PeriodicSchedule, periods: usize) -> usize {
    let p = &inst.platform;
    let local_bw: Vec<f64> = p.clusters.iter().map(|c| c.local_bw).collect();
    let speeds: Vec<f64> = p.clusters.iter().map(|c| c.speed).collect();
    let mut sim = LiveSim::new(&local_bw, &speeds, LiveConfig::default());
    let tp = schedule.period as f64;
    let mut inside = 0;
    for period in 0..periods {
        let specs = schedule
            .transfers
            .iter()
            .map(|tr| {
                let bw = p
                    .route_bottleneck_bw(tr.from, tr.to)
                    .unwrap_or(f64::INFINITY);
                let amount = tr.amount as f64;
                LiveFlowSpec {
                    src: tr.from,
                    dst: tr.to,
                    cap: f64::from(tr.connections) * bw,
                    demand: amount / tp,
                    parts: vec![ChunkPart {
                        job: period as u32,
                        amount,
                    }],
                }
            })
            .collect();
        sim.add_flows(specs);
        // Remote work arrives by flow; only local work is queued directly.
        for task in schedule.compute_tasks.iter().filter(|t| t.app == t.cluster) {
            sim.enqueue_compute(task.cluster, period as u32, task.amount as f64);
        }
        let before = CountingAlloc::thread_calls();
        sim.advance_to((period + 1) as f64 * tp);
        inside += CountingAlloc::thread_calls() - before;
    }
    assert!(sim.events_processed() > 0, "the replay moves load");
    inside
}

#[test]
fn live_sim_advance_to_allocates_nothing_per_completion_batch() {
    let inst = paper_shape_instance(5, 42);
    let alloc = Greedy.solve(&inst).expect("Greedy always solves");
    let schedule = ScheduleBuilder::default()
        .build(&inst, &alloc)
        .expect("valid allocations reconstruct");
    assert!(!schedule.transfers.is_empty(), "the schedule ships work");
    live_heap_calls(&inst, &schedule, 2);

    let short = live_heap_calls(&inst, &schedule, 50);
    let long = live_heap_calls(&inst, &schedule, 400);
    println!("advance_to heap calls: 50 periods {short}, 400 periods {long}");
    assert!(
        long <= short,
        "400 periods made {long} heap calls in advance_to, 50 periods {short}: \
         `advance_to` allocates per completion batch"
    );
}
