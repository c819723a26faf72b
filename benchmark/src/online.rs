//! `online_drift`: the paper's §1(iii) adaptability claim as a latency — one
//! operation is one control period of a live session whose platform drifts
//! under it, re-planned every period by the warm-started LPRG resolver.

use crate::harness::{Checks, Expected, Workload};
use crate::inputs::{drift_scenario, paper_shape_instance, unit_seed};
use crate::metrics::{median, Values};
use crate::trace::{ms_since, self_times_ns, Tracer, PROBE_OP};
use dls_core::{Allocation, ProblemInstance, SolveError};
use dls_lp::WarmStats;
use dls_scenario::{
    run_scenario, PeriodicResolve, PolicyCtx, PolicyState, RecoveryLevel, RecoveryRecord,
    ReschedulePolicy, Resolver, Scenario, ScenarioConfig, ScenarioReport, ScenarioSession,
};
use dls_sim::SimEngine;
use std::ops::Range;
use std::time::Instant;

const K: usize = 50;
/// Arrival horizon of one session, in control periods. (The issue sized one
/// 100-period session per run; a run's latencies then come from a single
/// platform and swing with the seed, so the same epochs are spread over
/// many shorter sessions on distinct platforms.)
const HORIZON: f64 = 12.0;
/// Per-period capacity drift.
const DRIFT: f64 = 0.08;
/// Horizon of the verify phase's cold + full-recompute oracle run.
const ORACLE_HORIZON: f64 = 6.0;
/// Epoch at which the probe takes its snapshot.
const SNAPSHOT_EPOCH: usize = 5;

/// A [`ReschedulePolicy`] that forwards everything to `inner` and notes when
/// each `decide` started and ended, so the traced run can attribute a
/// `session.step` to the policy and to the engine around it.
pub struct TimedPolicy<'a, P> {
    inner: &'a mut P,
    origin: Instant,
    /// `(start_ns, end_ns)` of every `decide` since the last drain.
    decides: Vec<(u64, u64)>,
}

impl<'a, P: ReschedulePolicy> TimedPolicy<'a, P> {
    pub fn new(inner: &'a mut P, origin: Instant) -> Self {
        TimedPolicy {
            inner,
            origin,
            decides: Vec::new(),
        }
    }
}

impl<P: ReschedulePolicy> ReschedulePolicy for TimedPolicy<'_, P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> Result<Option<Allocation>, SolveError> {
        let start = self.origin.elapsed().as_nanos() as u64;
        let decision = self.inner.decide(ctx);
        self.decides
            .push((start, self.origin.elapsed().as_nanos() as u64));
        decision
    }

    fn recover(&mut self, level: RecoveryLevel, inst: &ProblemInstance) -> bool {
        self.inner.recover(level, inst)
    }

    fn drain_recovery(&mut self) -> Vec<RecoveryRecord> {
        self.inner.drain_recovery()
    }

    fn export_state(&self) -> PolicyState {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &PolicyState) {
        self.inner.import_state(state)
    }

    fn checkpoint_barrier(&mut self) {
        self.inner.checkpoint_barrier()
    }
}

/// `to_json` with the wall-clock `reschedule_ms` zeroed: the bit-identity
/// form of a report.
pub fn canonical(report: &ScenarioReport) -> String {
    let mut r = report.clone();
    r.reschedule_ms = 0.0;
    r.to_json()
}

fn warm_policy(inst: &ProblemInstance) -> PeriodicResolve {
    PeriodicResolve::new(Resolver::warm(inst).expect("the warm LPRG context builds"))
}

fn session_config() -> ScenarioConfig {
    ScenarioConfig {
        record_events: false,
        ..ScenarioConfig::default()
    }
}

struct Unit {
    inst: ProblemInstance,
    scenario: Scenario,
    /// Session and policy, built in set-up and consumed by a run.
    armed: Option<(ScenarioSession, PeriodicResolve)>,
    report: Option<ScenarioReport>,
}

impl Unit {
    fn arm(&mut self) -> f64 {
        let t0 = Instant::now();
        let policy = warm_policy(&self.inst);
        let build_ms = ms_since(t0);
        let session = ScenarioSession::new(&self.inst, self.scenario.clone(), session_config());
        self.armed = Some((session, policy));
        build_ms
    }
}

pub struct OnlineDrift {
    units: Vec<Unit>,
    policy_build_ms: Vec<f64>,
    /// Solver counters and report timings of the sessions the traced run
    /// finished.
    traced_stats: Vec<WarmStats>,
    report_ms: Vec<f64>,
}

/// Steps one session to completion, one timed operation per control period.
fn drive_session(
    session: &mut ScenarioSession,
    policy: &mut PeriodicResolve,
    t: &mut Tracer,
    lat_ms: &mut Vec<f64>,
) -> Result<(), String> {
    let mut timed = TimedPolicy::new(policy, t.origin());
    loop {
        let t0 = Instant::now();
        let step = if t.enabled() {
            t.span("scenario.step", |t| {
                let step = session.step(&mut timed);
                for (start, end) in timed.decides.drain(..) {
                    t.record("scenario.decide", start, end);
                }
                step
            })
        } else {
            // Timings are taken with tracing off: no wrapper in the way.
            session.step(&mut *timed.inner)
        };
        lat_ms.push(ms_since(t0));
        if step.map_err(|e| e.to_string())? {
            return Ok(());
        }
    }
}

impl Workload for OnlineDrift {
    const NAME: &'static str = "online_drift";
    const WHY: &'static str =
        "ScenarioSession at K=50, Poisson jobs under 8% per-period capacity drift, \
        warm periodic re-solve: epoch latency against the control period; decide is ~all of a step";
    const UNITS_PER_SECOND: f64 = 1.6;

    fn setup(seed: u64, units: usize, layer: &mut Values) -> Self {
        let mut gen_ms = Vec::with_capacity(units);
        let mut w = OnlineDrift {
            units: Vec::with_capacity(units),
            policy_build_ms: Vec::with_capacity(units),
            traced_stats: Vec::new(),
            report_ms: Vec::new(),
        };
        for i in 0..units {
            let s = unit_seed(seed, i);
            let t0 = Instant::now();
            let inst = paper_shape_instance(K, s);
            gen_ms.push(ms_since(t0));
            let scenario = drift_scenario(&inst, HORIZON, DRIFT, s);
            let mut unit = Unit {
                inst,
                scenario,
                armed: None,
                report: None,
            };
            w.policy_build_ms.push(unit.arm());
            w.units.push(unit);
        }
        layer.insert("platform.generate_ms", median(&gen_ms));
        layer.insert(
            "platform.routes",
            w.units[0].inst.platform.routed_pairs().len() as f64,
        );
        // Warm-up: the first epochs of a throw-away session on unit 0.
        let unit = &w.units[0];
        let mut policy = warm_policy(&unit.inst);
        let mut session = ScenarioSession::new(&unit.inst, unit.scenario.clone(), session_config());
        for _ in 0..3 {
            session.step(&mut policy).expect("warm-up epoch runs");
        }
        w
    }

    fn rearm(&mut self, units: Range<usize>) {
        for unit in &mut self.units[units] {
            unit.arm();
        }
    }

    fn run(
        &mut self,
        units: Range<usize>,
        round: u32,
        t: &mut Tracer,
        checks: &mut Checks,
    ) -> Vec<f64> {
        let mut lat_ms = Vec::new();
        for i in units {
            let unit = &mut self.units[i];
            let (mut session, mut policy) = unit.armed.take().expect("unit was armed");
            t.set_op(i as u64);
            let outcome = drive_session(&mut session, &mut policy, t, &mut lat_ms);
            checks.check(outcome.is_ok(), || {
                format!("online_drift session {i}: {}", outcome.unwrap_err())
            });
            let (report, report_ms) = t.timed("scenario.report", |_| session.report(&mut policy));
            let ok = report.completed_jobs == report.jobs && report.connection_caps_respected;
            checks.check(ok, || {
                format!("online_drift session {i}: {}", report.summary())
            });
            if round == 1 {
                self.report_ms.push(report_ms);
                if let Some(warm) = policy.resolver_mut().warm_mut() {
                    self.traced_stats.push(warm.stats());
                }
            }
            match &unit.report {
                None => unit.report = Some(report),
                // A unit's second run (traced or not) must reproduce the
                // first: the wrapper around the policy may not change a
                // decision.
                Some(first) => checks.check(canonical(first) == canonical(&report), || {
                    format!("online_drift session {i}: traced and untraced reports differ")
                }),
            }
        }
        lat_ms
    }

    fn verify(&mut self, expected: &mut Expected, checks: &mut Checks) {
        let done: Vec<&ScenarioReport> =
            self.units.iter().map_while(|u| u.report.as_ref()).collect();
        let column = |f: fn(&ScenarioReport) -> f64| done.iter().map(|r| f(r)).collect::<Vec<_>>();
        expected.compare(
            "completed_jobs",
            &column(|r| r.completed_jobs as f64),
            0.0,
            checks,
        );
        expected.compare("sim_events", &column(|r| r.sim_events as f64), 0.0, checks);
        expected.compare("makespan", &column(|r| r.makespan), 1e-6, checks);
        expected.compare(
            "completed_work",
            &column(|r| r.completed_work),
            1e-6,
            checks,
        );
        expected.compare("mean_response", &column(|r| r.mean_response), 1e-6, checks);

        // Oracle: a short trace under cold re-solves on the full-recompute
        // core must agree with the warm + incremental pipeline.
        let inst = &self.units[0].inst;
        let scenario = drift_scenario(inst, ORACLE_HORIZON, DRIFT, 0x0dd5);
        let fast = run_scenario(inst, &scenario, &mut warm_policy(inst), &session_config());
        let slow = run_scenario(
            inst,
            &scenario,
            &mut PeriodicResolve::new(Resolver::Cold),
            &ScenarioConfig {
                engine: SimEngine::FullRecompute,
                ..session_config()
            },
        );
        let agree = matches!((&fast, &slow), (Ok(a), Ok(b)) if a.agrees_with(b, 1e-6));
        checks.check(agree, || {
            "online_drift: warm+incremental disagrees with cold+full-recompute".into()
        });
    }

    fn probe(&mut self, t: &mut Tracer, layer: &mut Values, checks: &mut Checks) {
        let spans = t.spans();
        let selfs = self_times_ns(spans);
        let (mut step_ms, mut self_ms, mut decide_ms) = (Vec::new(), Vec::new(), Vec::new());
        for (s, &self_ns) in spans.iter().zip(&selfs) {
            match s.name {
                "scenario.step" => {
                    step_ms.push(s.dur_ns() as f64 / 1e6);
                    self_ms.push(self_ns as f64 / 1e6);
                }
                "scenario.decide" => decide_ms.push(s.dur_ns() as f64 / 1e6),
                _ => {}
            }
        }
        let step_total: f64 = step_ms.iter().sum();
        let self_total: f64 = self_ms.iter().sum();
        layer.insert("scenario.step_ms_p50", median(&step_ms));
        layer.insert("scenario.decide_ms_p50", median(&decide_ms));
        layer.insert(
            "scenario.decide_share",
            decide_ms.iter().sum::<f64>() / step_total.max(f64::MIN_POSITIVE),
        );
        layer.insert("scenario.engine_self_ms_p50", median(&self_ms));
        layer.insert("scenario.policy_build_ms", median(&self.policy_build_ms));
        layer.insert("scenario.epochs", step_ms.len() as f64);
        layer.insert("scenario.report_ms", median(&self.report_ms));

        let traced = &self.units[..self.traced_stats.len()];
        let reports: Vec<&ScenarioReport> =
            traced.iter().filter_map(|u| u.report.as_ref()).collect();
        let live_events: f64 = reports.iter().map(|r| r.sim_events as f64).sum();
        layer.insert(
            "scenario.reschedules",
            reports.iter().map(|r| r.reschedules as f64).sum(),
        );
        layer.insert(
            "scenario.platform_events",
            traced
                .iter()
                .map(|u| u.scenario.platform_events.len() as f64)
                .sum(),
        );
        layer.insert("sim.live_events", live_events);
        layer.insert(
            "sim.live_ns_per_event",
            self_total * 1e6 / live_events.max(1.0),
        );

        let sum = |f: fn(&WarmStats) -> u64| self.traced_stats.iter().map(f).sum::<u64>() as f64;
        let solves = sum(|s| s.solves);
        layer.insert("lp.warm_solves", sum(|s| s.warm_solves));
        layer.insert("lp.cold_fallbacks", sum(|s| s.fallbacks));
        layer.insert(
            "lp.warm_hit_ratio",
            sum(|s| s.warm_solves) / solves.max(1.0),
        );
        layer.insert("lp.dual_pivots", sum(|s| s.dual_pivots));
        layer.insert("lp.primal_pivots", sum(|s| s.primal_pivots));
        // `decide` is two warm solves (stage 1, canonical stage 2) plus the
        // platform deltas; per solve, that is the closest the outside gets.
        layer.insert(
            "lp.warm_solve_ms",
            decide_ms.iter().sum::<f64>() / solves.max(1.0),
        );

        // Snapshot → restore on unit 0: cost, size, and that the restored
        // replica finishes like the session that took the snapshot. Within
        // 1e-9, not bit for bit: on these drifting K = 50 platforms the two
        // differ in the last digits of completion times (the replica rebuilds
        // its LP from the base platform plus one cumulative delta, the live
        // context carries every period's delta).
        let unit = &self.units[0];
        t.set_op(PROBE_OP);
        let replica_agrees = t.span("online_drift.probe", |t| {
            let mut policy = warm_policy(&unit.inst);
            let mut live =
                ScenarioSession::new(&unit.inst, unit.scenario.clone(), session_config());
            for _ in 0..SNAPSHOT_EPOCH {
                live.step(&mut policy).ok()?;
            }
            let (snapshot, ms) = t.timed("scenario.snapshot", |_| live.snapshot(&mut policy));
            layer.insert("scenario.snapshot_ms", ms);
            layer.insert("scenario.snapshot_bytes", snapshot.to_json().len() as f64);
            let mut replica_policy = warm_policy(&unit.inst);
            let (replica, ms) = t.timed("scenario.restore", |_| {
                ScenarioSession::restore(
                    &unit.inst,
                    live.scenario().clone(),
                    session_config(),
                    &snapshot,
                    &mut replica_policy,
                )
            });
            let mut replica = replica.ok()?;
            layer.insert("scenario.restore_ms", ms);
            live.run_to_end(&mut policy).ok()?;
            replica.run_to_end(&mut replica_policy).ok()?;
            Some(
                live.report(&mut policy)
                    .agrees_with(&replica.report(&mut replica_policy), 1e-9),
            )
        });
        checks.check(replica_agrees == Some(true), || {
            "online_drift probe: restored replica diverged from the live session".into()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_policy_is_transparent() {
        let inst = paper_shape_instance(8, 11);
        let scenario = drift_scenario(&inst, 5.0, DRIFT, 11);
        let plain = run_scenario(&inst, &scenario, &mut warm_policy(&inst), &session_config())
            .expect("plain run");
        let mut inner = warm_policy(&inst);
        let mut timed = TimedPolicy::new(&mut inner, Instant::now());
        let wrapped =
            run_scenario(&inst, &scenario, &mut timed, &session_config()).expect("wrapped run");
        assert_eq!(canonical(&plain), canonical(&wrapped));
        assert_eq!(plain.policy, wrapped.policy);
        assert!(plain.reschedules > 0);
        assert!(timed.decides.len() >= plain.reschedules);
        assert!(timed.decides.iter().all(|&(s, e)| s <= e));
    }
}
