//! `sim_periodic`: the simulator-bound workload with zero LP work — the
//! bypass workload for every LP change, and the guard for re-expressing
//! `Simulator` over `LiveSim`.

use crate::harness::{time_each, Checks, Expected, Workload};
use crate::inputs::{paper_shape_instance, unit_seed};
use crate::metrics::{median, Values};
use crate::trace::{durations_ms, ms_since, Tracer};
use dls_core::heuristics::{Greedy, Heuristic};
use dls_core::schedule::{PeriodicSchedule, ScheduleBuilder};
use dls_core::ProblemInstance;
use dls_sim::{SimConfig, SimEngine, SimReport, Simulator};
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// The paper's largest platform.
const K: usize = 95;
/// Periods per simulation run.
const PERIODS: usize = 1200;
/// Periods of the verify phase's full-recompute oracle run.
const ORACLE_PERIODS: usize = 12;

fn config(periods: usize, engine: SimEngine) -> SimConfig {
    SimConfig {
        periods,
        engine,
        ..SimConfig::default()
    }
}

pub struct SimPeriodic {
    instances: Vec<ProblemInstance>,
    schedules: Vec<PeriodicSchedule>,
    reports: Vec<Option<SimReport>>,
    greedy_ms: Vec<f64>,
    schedule_ms: Vec<f64>,
}

impl SimPeriodic {
    fn op(&self, i: usize, t: &mut Tracer) -> SimReport {
        t.set_op(i as u64);
        t.span("sim.run", |_| {
            Simulator::new(&self.instances[i])
                .run(&self.schedules[i], &config(PERIODS, SimEngine::Incremental))
        })
    }
}

impl Workload for SimPeriodic {
    const NAME: &'static str = "sim_periodic";
    const WHY: &'static str =
        "Greedy -> ScheduleBuilder -> Simulator::run at K=95 over 1200 periods: \
        simulator-bound, zero LP work, so an LP change predicts no move here";
    const UNITS_PER_SECOND: f64 = 3.5;

    fn setup(seed: u64, units: usize, layer: &mut Values) -> Self {
        let mut w = SimPeriodic {
            instances: Vec::with_capacity(units),
            schedules: Vec::with_capacity(units),
            reports: (0..units).map(|_| None).collect(),
            greedy_ms: Vec::with_capacity(units),
            schedule_ms: Vec::with_capacity(units),
        };
        let mut gen_ms = Vec::with_capacity(units);
        for i in 0..units {
            let t0 = Instant::now();
            let inst = paper_shape_instance(K, unit_seed(seed, i));
            gen_ms.push(ms_since(t0));
            let t0 = Instant::now();
            let alloc = Greedy::default()
                .solve(&inst)
                .expect("Greedy always solves");
            w.greedy_ms.push(ms_since(t0));
            let t0 = Instant::now();
            let schedule = ScheduleBuilder::default()
                .build(&inst, &alloc)
                .expect("valid allocations reconstruct");
            w.schedule_ms.push(ms_since(t0));
            w.instances.push(inst);
            w.schedules.push(schedule);
        }
        layer.insert("platform.generate_ms", median(&gen_ms));
        layer.insert(
            "platform.routes",
            w.instances[0].platform.routed_pairs().len() as f64,
        );
        black_box(w.op(0, &mut Tracer::off()));
        w
    }

    fn run(
        &mut self,
        units: Range<usize>,
        _round: u32,
        t: &mut Tracer,
        checks: &mut Checks,
    ) -> Vec<f64> {
        let lat_ms = time_each(units.clone(), |i| self.reports[i] = Some(self.op(i, t)));
        for i in units {
            let ok = self.reports[i]
                .as_ref()
                .is_some_and(|r| r.connection_caps_respected);
            checks.check(ok, || {
                format!("sim_periodic run {i}: connection caps exceeded")
            });
        }
        lat_ms
    }

    fn verify(&mut self, expected: &mut Expected, checks: &mut Checks) {
        let done: Vec<&SimReport> = self.reports.iter().map_while(Option::as_ref).collect();
        let events: Vec<f64> = done.iter().map(|r| r.events as f64).collect();
        let efficiency: Vec<f64> = done.iter().map(|r| r.efficiency).collect();
        expected.compare("events", &events, 0.0, checks);
        expected.compare("efficiency", &efficiency, 1e-9, checks);

        // One short run under the retained full-recompute core.
        let sim = Simulator::new(&self.instances[0]);
        let fast = sim.run(
            &self.schedules[0],
            &config(ORACLE_PERIODS, SimEngine::Incremental),
        );
        let slow = sim.run(
            &self.schedules[0],
            &config(ORACLE_PERIODS, SimEngine::FullRecompute),
        );
        let agree = fast.events == slow.events
            && dls_core::approx::close(fast.efficiency, slow.efficiency, 1e-6);
        checks.check(agree, || {
            format!(
                "sim_periodic: incremental and full-recompute cores disagree \
                 ({} vs {} events, efficiency {} vs {})",
                fast.events, slow.events, fast.efficiency, slow.efficiency
            )
        });
    }

    fn probe(&mut self, t: &mut Tracer, layer: &mut Values, _checks: &mut Checks) {
        let run_ms = durations_ms(t.spans(), "sim.run");
        let traced: Vec<&SimReport> = self.reports[..run_ms.len()].iter().flatten().collect();
        let events: f64 = traced.iter().map(|r| r.events as f64).sum();
        layer.insert("sim.run_ms", median(&run_ms));
        layer.insert("sim.events", events / traced.len().max(1) as f64);
        layer.insert(
            "sim.ns_per_event",
            run_ms.iter().sum::<f64>() * 1e6 / events.max(1.0),
        );
        layer.insert(
            "sim.transfers_per_period",
            self.schedules[0].transfers.len() as f64,
        );
        layer.insert("core.greedy_ms", median(&self.greedy_ms));
        layer.insert("core.schedule_ms", median(&self.schedule_ms));
    }
}
