#![warn(missing_docs)]

//! # dls-scenario — online workload & platform-dynamics engine
//!
//! The paper's central argument for steady-state *periodic* schedules
//! (§1, point (iii)) is **adaptability**: the schedule is cheap to compute,
//! so "resource availability variations" can simply be folded into the next
//! period's optimisation. This crate makes that claim executable. Instead
//! of a fixed platform with all flows present at `t = 0`, a [`Scenario`]
//! replays a timeline of
//!
//! * **workload events** — divisible-load job arrivals with sizes and
//!   weights, drawn from seeded arrival processes ([`ArrivalProcess`]:
//!   Poisson and bursty on/off) or loaded from a serde-JSON trace file
//!   ([`Scenario::from_json`]); and
//! * **platform events** — cluster churn ([`PlatformChange::ClusterLeave`]
//!   / [`PlatformChange::ClusterJoin`]), local- and backbone-bandwidth
//!   drift (the [`dls_core::adaptive`] random walk, lowered to explicit
//!   events by [`drift_events`]), and connection-cap changes —
//!
//! through the live simulation core ([`dls_sim::LiveSim`], the dirty-set
//! incremental engine grown in PR 2) while a pluggable
//! [`ReschedulePolicy`] decides, period by period, whether to fold the
//! observed changes into a fresh Eq. 7 allocation:
//!
//! * [`PeriodicResolve`] — re-solve each epoch; with [`Resolver::warm`]
//!   the LPRG relaxation is *warm-started* (PR 3's [`dls_lp::WarmSimplex`]
//!   patched with platform deltas) so a re-solve costs a handful of dual
//!   pivots;
//! * [`ThresholdTriggered`] — re-solve only when observed throughput
//!   degrades past a bound;
//! * [`StaleScale`] — the paper's stale baseline, shrinking the epoch-0
//!   allocation uniformly via [`dls_core::adaptive::scale_to_fit`].
//!
//! [`run_scenario`] executes the timeline and produces a
//! [`ScenarioReport`]: per-job response times, makespan, achieved vs.
//! allocated steady-state throughput, and reschedule counts/costs. The
//! [`mod@catalog`] module names reproducible scenario families (`steady`,
//! `bursty`, `drift`, `churn`, `flash`) shared by the experiment sweep
//! (`dls-experiments`), the perf harness (`dls-bench`, emitting
//! `BENCH_scenario.json`), the `dls-cli scenario` subcommand, and
//! `examples/online_arrivals.rs`.

pub mod catalog;
pub mod engine;
pub mod events;
pub mod policy;
pub mod recovery;
pub mod report;

pub use catalog::{build as build_catalog_entry, catalog, CatalogEntry};
pub use engine::{
    resume_scenario, run_scenario, run_scenario_resumable, ResumableRun, ScenarioConfig,
    ScenarioError, ScenarioSession, ScenarioSnapshot, SCENARIO_SNAPSHOT_VERSION,
};
pub use events::{drift_events, ArrivalProcess, JobSpec, PlatformChange, PlatformEvent, Scenario};
pub use policy::{
    PeriodicResolve, PolicyCtx, PolicyState, RecoveryLevel, ReschedulePolicy, Resolver, StaleScale,
    ThresholdTriggered, WarmLprg,
};
pub use recovery::{recoverable, RecoveryLadder};
pub use report::{
    FaultKind, FaultRecord, JobOutcome, RecoveryRecord, RecoveryRung, ScenarioReport,
    UnschedulableEntry,
};

// The drift machinery this crate absorbs as one of its event sources,
// re-exported so downstream users need only one import.
pub use dls_core::adaptive::{scale_to_fit, DriftConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sim::SimEngine;

    #[test]
    fn steady_scenario_completes_all_jobs_under_periodic_warm() {
        let (inst, scenario) = build_catalog_entry("steady", 5, 17).unwrap();
        let mut policy = PeriodicResolve::new(Resolver::warm(&inst).unwrap());
        let report = run_scenario(
            &inst,
            &scenario,
            &mut policy,
            &ScenarioConfig {
                oracle_check: true,
                ..ScenarioConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.completed_jobs, report.jobs, "{}", report.summary());
        assert!(report.makespan > 0.0);
        assert!(report.mean_response > 0.0);
        assert!(report.reschedules > 0);
        assert!(report.connection_caps_respected);
        assert!(
            (report.completed_work - report.offered_work).abs() < 1e-6 * report.offered_work,
            "work lost: {} of {}",
            report.completed_work,
            report.offered_work
        );
    }

    #[test]
    fn incremental_and_full_engines_agree_on_reports() {
        for entry in ["steady", "drift", "churn"] {
            let (inst, scenario) = build_catalog_entry(entry, 5, 23).unwrap();
            let mut pa = PeriodicResolve::new(Resolver::Cold);
            let mut pb = PeriodicResolve::new(Resolver::Cold);
            let fast = run_scenario(
                &inst,
                &scenario,
                &mut pa,
                &ScenarioConfig {
                    oracle_check: true,
                    ..ScenarioConfig::default()
                },
            )
            .unwrap();
            let slow = run_scenario(
                &inst,
                &scenario,
                &mut pb,
                &ScenarioConfig {
                    engine: SimEngine::FullRecompute,
                    record_events: true,
                    ..ScenarioConfig::default()
                },
            )
            .unwrap();
            assert!(
                fast.agrees_with(&slow, 1e-6),
                "{entry}: engines diverged:\n{}\n{}",
                fast.summary(),
                slow.summary()
            );
            // Report-level agreement is necessary but coarse; the event
            // streams must match event for event, and a mismatch must name
            // the first offending event.
            assert!(
                !fast.event_trace().is_empty(),
                "{entry}: no events recorded"
            );
            if let Some(d) = fast.first_event_divergence(&slow, 1e-6) {
                panic!("{entry}: engines diverged at {}", d.describe());
            }
        }
    }

    #[test]
    fn drift_scenario_adaptive_beats_stale() {
        let (inst, scenario) = build_catalog_entry("drift", 6, 29).unwrap();
        let mut adaptive = PeriodicResolve::new(Resolver::warm(&inst).unwrap());
        let a = run_scenario(&inst, &scenario, &mut adaptive, &ScenarioConfig::default()).unwrap();
        let mut stale = StaleScale::new(Resolver::Cold);
        let s = run_scenario(&inst, &scenario, &mut stale, &ScenarioConfig::default()).unwrap();
        assert_eq!(a.completed_jobs, a.jobs, "adaptive: {}", a.summary());
        // The stale baseline must not finish faster: re-optimising each
        // epoch can only help (allow float noise).
        assert!(
            a.makespan <= s.makespan + 1e-6 * (1.0 + s.makespan),
            "adaptive {} vs stale {}",
            a.makespan,
            s.makespan
        );
        assert!(a.reschedules >= s.reschedules);
    }

    #[test]
    fn churn_scenario_recovers_in_flight_work() {
        let (inst, scenario) = build_catalog_entry("churn", 5, 31).unwrap();
        let mut policy = PeriodicResolve::new(Resolver::warm(&inst).unwrap());
        let report = run_scenario(
            &inst,
            &scenario,
            &mut policy,
            &ScenarioConfig {
                oracle_check: true,
                ..ScenarioConfig::default()
            },
        )
        .unwrap();
        // Churned clusters rejoin, so everything eventually completes.
        assert_eq!(report.completed_jobs, report.jobs, "{}", report.summary());
    }

    #[test]
    fn rejoin_restores_drift_applied_during_outage() {
        // A cluster that drifts while churned out must rejoin with the
        // drifted capacities — not the scenario-start baseline — and the
        // drift events themselves must not revive it mid-outage. Both are
        // captured by one equivalence: drifting *during* the outage must
        // produce exactly the run where the same drift lands at the rejoin
        // instant.
        let (inst, base) = build_catalog_entry("steady", 4, 53).unwrap();
        let speed = inst.platform.clusters[1].speed * 0.6;
        let bw = inst.platform.clusters[1].local_bw * 0.7;
        let mk = |events: Vec<PlatformEvent>| {
            let mut s = base.clone();
            s.platform_events = events;
            s.normalise();
            s
        };
        let leave = |t: f64| PlatformEvent {
            time: t,
            change: PlatformChange::ClusterLeave { cluster: 1 },
        };
        let join = |t: f64| PlatformEvent {
            time: t,
            change: PlatformChange::ClusterJoin { cluster: 1 },
        };
        let set_speed = |t: f64| PlatformEvent {
            time: t,
            change: PlatformChange::SetSpeed { cluster: 1, speed },
        };
        let set_bw = |t: f64| PlatformEvent {
            time: t,
            change: PlatformChange::SetLocalBw { cluster: 1, bw },
        };
        let during = mk(vec![leave(2.0), set_speed(3.0), set_bw(4.0), join(6.0)]);
        let at_rejoin = mk(vec![leave(2.0), join(6.0), set_speed(6.0), set_bw(6.0)]);
        let cfg = ScenarioConfig {
            oracle_check: true,
            ..ScenarioConfig::default()
        };
        let mut pa = PeriodicResolve::new(Resolver::Cold);
        let mut pb = PeriodicResolve::new(Resolver::Cold);
        let a = run_scenario(&inst, &during, &mut pa, &cfg).unwrap();
        let b = run_scenario(&inst, &at_rejoin, &mut pb, &cfg).unwrap();
        assert!(
            a.agrees_with(&b, 1e-9),
            "outage drift diverged from rejoin-time drift:\n{}\n{}",
            a.summary(),
            b.summary()
        );
        assert_eq!(a.completed_jobs, a.jobs, "{}", a.summary());
    }

    #[test]
    fn threshold_policy_reschedules_less_than_periodic() {
        let (inst, scenario) = build_catalog_entry("drift", 5, 37).unwrap();
        let mut periodic = PeriodicResolve::new(Resolver::Cold);
        let p = run_scenario(&inst, &scenario, &mut periodic, &ScenarioConfig::default()).unwrap();
        let mut threshold = ThresholdTriggered::new(0.5, Resolver::Cold);
        let t = run_scenario(&inst, &scenario, &mut threshold, &ScenarioConfig::default()).unwrap();
        assert!(
            t.reschedules < p.reschedules,
            "threshold {} vs periodic {}",
            t.reschedules,
            p.reschedules
        );
        assert_eq!(t.completed_jobs, t.jobs, "{}", t.summary());
    }

    #[test]
    fn greedy_heuristic_policy_runs_lp_free() {
        let (inst, scenario) = build_catalog_entry("bursty", 4, 41).unwrap();
        let mut policy = PeriodicResolve::new(Resolver::Heuristic(Box::new(
            dls_core::heuristics::Greedy::default(),
        )));
        let report =
            run_scenario(&inst, &scenario, &mut policy, &ScenarioConfig::default()).unwrap();
        assert_eq!(report.completed_jobs, report.jobs, "{}", report.summary());
    }

    #[test]
    fn faulty_scenario_loses_work_then_recovers_it() {
        // Seed 7 places queued compute on the crash victims; crashes on a
        // quiet boundary lose nothing (the periodic budgets size transfers
        // to finish exactly at the boundary), which is correct but not what
        // this test is about.
        let (inst, scenario) = build_catalog_entry("faulty", 5, 7).unwrap();
        let mut policy = PeriodicResolve::new(Resolver::warm(&inst).unwrap());
        let report = run_scenario(
            &inst,
            &scenario,
            &mut policy,
            &ScenarioConfig {
                oracle_check: true,
                ..ScenarioConfig::default()
            },
        )
        .unwrap();
        // Crashed clusters rejoin, so every job still completes — but only
        // because lost load was re-dispatched.
        assert_eq!(report.completed_jobs, report.jobs, "{}", report.summary());
        let faults = report.fault_records();
        assert!(
            faults.iter().any(|f| f.kind == FaultKind::Crash),
            "no crash recorded"
        );
        assert!(
            faults.iter().any(|f| f.kind == FaultKind::Straggler),
            "no straggler recorded"
        );
        assert!(
            report.redispatched_load.unwrap_or(0.0) > 0.0,
            "crashes re-dispatched nothing"
        );
        assert!(
            faults
                .iter()
                .filter(|f| f.kind == FaultKind::Crash)
                .any(|f| f.recovery_latency.is_some()),
            "no crash recovery latency stamped"
        );
    }

    /// A crash under congestion exercises *every* loss channel: a straggler
    /// drags cluster 1's capacity below the stale allocation's demands (the
    /// threshold policy deliberately reacts late), so at the next boundary
    /// transfers are still in flight and the compute queue is backed up —
    /// then the crash loses both, and the re-dispatched load still
    /// completes after the rejoin.
    #[test]
    fn crash_during_congestion_loses_transfers_and_compute() {
        let (inst, mut scenario) = build_catalog_entry("flash", 5, 19).unwrap();
        scenario.platform_events.push(PlatformEvent {
            time: 2.0,
            change: PlatformChange::Straggler {
                cluster: 1,
                factor: 0.05,
                until: 6.0,
            },
        });
        scenario.platform_events.push(PlatformEvent {
            time: 3.0,
            change: PlatformChange::ClusterCrash { cluster: 1 },
        });
        scenario.platform_events.push(PlatformEvent {
            time: 6.0,
            change: PlatformChange::ClusterJoin { cluster: 1 },
        });
        scenario.normalise();
        let mut policy = ThresholdTriggered::new(0.5, Resolver::Cold);
        let report =
            run_scenario(&inst, &scenario, &mut policy, &ScenarioConfig::default()).unwrap();
        assert_eq!(report.completed_jobs, report.jobs, "{}", report.summary());
        let crash = report
            .fault_records()
            .iter()
            .find(|f| f.kind == FaultKind::Crash)
            .cloned()
            .expect("crash recorded");
        assert!(crash.lost_transfer > 0.0, "no in-flight transfer lost");
        assert!(crash.lost_compute > 0.0, "no queued compute lost");
        assert!(
            crash.redispatched >= crash.lost_transfer,
            "re-dispatch must cover at least the lost transfers"
        );
        assert_eq!(crash.recovery_latency, Some(1.0), "{crash:?}");
        // The report totals mirror the per-fault records.
        assert_eq!(report.lost_transfer, Some(crash.lost_transfer));
        assert_eq!(report.lost_compute, Some(crash.lost_compute));
    }

    #[test]
    fn fault_scenarios_keep_engines_in_agreement() {
        for entry in ["faulty", "partition"] {
            let (inst, scenario) = build_catalog_entry(entry, 5, 43).unwrap();
            let mut pa = PeriodicResolve::new(Resolver::Cold);
            let mut pb = PeriodicResolve::new(Resolver::Cold);
            let fast = run_scenario(
                &inst,
                &scenario,
                &mut pa,
                &ScenarioConfig {
                    oracle_check: true,
                    ..ScenarioConfig::default()
                },
            )
            .unwrap();
            let slow = run_scenario(
                &inst,
                &scenario,
                &mut pb,
                &ScenarioConfig {
                    engine: SimEngine::FullRecompute,
                    record_events: true,
                    ..ScenarioConfig::default()
                },
            )
            .unwrap();
            assert!(
                fast.agrees_with(&slow, 1e-6),
                "{entry}: engines diverged:\n{}\n{}",
                fast.summary(),
                slow.summary()
            );
            if let Some(d) = fast.first_event_divergence(&slow, 1e-6) {
                panic!("{entry}: engines diverged at {}", d.describe());
            }
        }
    }

    #[test]
    fn partition_stalls_cross_cut_flows_until_heal() {
        // Split cluster 0 away from everyone for a while: work still
        // completes after the heal, and the partition is on the fault log.
        let (inst, base) = build_catalog_entry("steady", 4, 59).unwrap();
        let mut scenario = base.clone();
        scenario.platform_events = vec![PlatformEvent {
            time: 3.0,
            change: PlatformChange::BackbonePartition {
                groups: vec![vec![0], vec![1, 2, 3]],
                until: 8.0,
            },
        }];
        scenario.normalise();
        let mut policy = PeriodicResolve::new(Resolver::warm(&inst).unwrap());
        let report = run_scenario(
            &inst,
            &scenario,
            &mut policy,
            &ScenarioConfig {
                oracle_check: true,
                ..ScenarioConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.completed_jobs, report.jobs, "{}", report.summary());
        assert!(report
            .fault_records()
            .iter()
            .any(|f| f.kind == FaultKind::Partition));
        // Nothing is lost by a partition — flows stall, they don't die.
        assert!(report.lost_transfer.unwrap_or(0.0) == 0.0);
        assert!(report.lost_compute.unwrap_or(0.0) == 0.0);
    }

    #[test]
    fn permanent_crash_marks_jobs_unschedulable_instead_of_draining() {
        let (inst, base) = build_catalog_entry("steady", 4, 61).unwrap();
        let mut scenario = base.clone();
        // Cluster 2 crashes at t = 2 and never comes back.
        scenario.platform_events = vec![PlatformEvent {
            time: 2.0,
            change: PlatformChange::ClusterCrash { cluster: 2 },
        }];
        scenario.normalise();
        let mut policy = PeriodicResolve::new(Resolver::Cold);
        let cfg = ScenarioConfig::default();
        let report = run_scenario(&inst, &scenario, &mut policy, &cfg).unwrap();
        let stranded = report.unschedulable_entries();
        assert!(
            !stranded.is_empty(),
            "no job was homed at the dead cluster: {}",
            report.summary()
        );
        assert_eq!(
            report.completed_jobs + stranded.len(),
            report.jobs,
            "{}",
            report.summary()
        );
        // The run must stop once everything else drains — far short of the
        // drain-cap horizon the old engine looped to.
        let last_arrival_period = (scenario.last_arrival() / scenario.period).ceil() as usize;
        assert!(
            report.periods < last_arrival_period + cfg.drain_periods / 4,
            "drained to the horizon: {} periods",
            report.periods
        );
        for e in stranded {
            assert!(report.per_job[e.job as usize].completed.is_none());
            assert!(e.reason.contains("cluster 2"), "{}", e.reason);
        }
    }

    #[test]
    fn policy_failures_surface_with_scenario_context() {
        let (inst, scenario) = build_catalog_entry("steady", 4, 67).unwrap();
        let mut policy = PeriodicResolve::new(Resolver::warm(&inst).unwrap());
        // A fault the ladder is NOT wrapping: surfaces with context.
        policy
            .resolver_mut()
            .warm_mut()
            .unwrap()
            .debug_inject_fault(dls_lp::InjectedFault::Solve(
                dls_lp::LpError::NumericalBreakdown("injected"),
            ));
        let err = run_scenario(&inst, &scenario, &mut policy, &ScenarioConfig::default())
            .expect_err("injected fault must surface");
        match &err {
            ScenarioError::Policy {
                epoch,
                time,
                policy,
                source,
            } => {
                assert_eq!(*time, *epoch as f64 * scenario.period);
                assert!(policy.contains("warm"), "{policy}");
                assert!(matches!(
                    source,
                    dls_core::SolveError::Lp(dls_lp::LpError::NumericalBreakdown(_))
                ));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("failed at epoch"), "{err}");
    }

    #[test]
    fn recovery_ladder_rescues_injected_solver_faults() {
        let (inst, scenario) = build_catalog_entry("steady", 4, 71).unwrap();
        let mut policy = RecoveryLadder::new(PeriodicResolve::new(Resolver::warm(&inst).unwrap()));
        policy
            .inner_mut()
            .resolver_mut()
            .warm_mut()
            .unwrap()
            .debug_inject_fault(dls_lp::InjectedFault::Solve(
                dls_lp::LpError::NumericalBreakdown("injected"),
            ));
        let report = run_scenario(&inst, &scenario, &mut policy, &ScenarioConfig::default())
            .expect("the ladder absorbs the injected fault");
        assert_eq!(report.completed_jobs, report.jobs, "{}", report.summary());
        let recs = report.recovery_records();
        assert_eq!(recs.len(), 1, "{recs:?}");
        assert_eq!(recs[0].rung, RecoveryRung::Refactor);
        assert!(recs[0].error.contains("injected"), "{}", recs[0].error);
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        for engine in [SimEngine::Incremental, SimEngine::FullRecompute] {
            let (inst, scenario) = build_catalog_entry("faulty", 4, 73).unwrap();
            let cfg = ScenarioConfig {
                engine,
                record_events: true,
                ..ScenarioConfig::default()
            };
            let mut uninterrupted = PeriodicResolve::new(Resolver::Cold);
            let mut full = run_scenario(&inst, &scenario, &mut uninterrupted, &cfg).unwrap();
            let mut first = PeriodicResolve::new(Resolver::Cold);
            let snap = match run_scenario_resumable(&inst, &scenario, &mut first, &cfg, Some(7))
                .unwrap()
            {
                ResumableRun::Interrupted(snap) => snap,
                ResumableRun::Finished(_) => panic!("run finished before epoch 7"),
            };
            // The snapshot survives a JSON round trip bit-exactly.
            let snap = ScenarioSnapshot::from_json(&snap.to_json()).unwrap();
            let mut second = PeriodicResolve::new(Resolver::Cold);
            let mut resumed = resume_scenario(&inst, &scenario, &mut second, &cfg, &snap).unwrap();
            // Bit-identical up to the wall-clock-only reschedule_ms field.
            full.reschedule_ms = 0.0;
            resumed.reschedule_ms = 0.0;
            assert_eq!(
                full.to_json(),
                resumed.to_json(),
                "{engine:?}: resumed run diverged"
            );
        }
    }

    #[test]
    fn snapshot_rejects_version_and_scenario_skew() {
        let (inst, scenario) = build_catalog_entry("steady", 4, 79).unwrap();
        let cfg = ScenarioConfig::default();
        let mut p = PeriodicResolve::new(Resolver::Cold);
        let snap = match run_scenario_resumable(&inst, &scenario, &mut p, &cfg, Some(3)).unwrap() {
            ResumableRun::Interrupted(snap) => *snap,
            ResumableRun::Finished(_) => panic!("run finished before epoch 3"),
        };
        let mut wrong_version = snap.clone();
        wrong_version.version += 1;
        let mut q = PeriodicResolve::new(Resolver::Cold);
        assert!(matches!(
            resume_scenario(&inst, &scenario, &mut q, &cfg, &wrong_version),
            Err(ScenarioError::Snapshot(_))
        ));
        let (inst2, scenario2) = build_catalog_entry("drift", 4, 79).unwrap();
        assert!(matches!(
            resume_scenario(&inst2, &scenario2, &mut q, &cfg, &snap),
            Err(ScenarioError::Snapshot(_))
        ));
    }

    #[test]
    fn snapshot_json_version_skew_is_a_clear_error() {
        let (inst, scenario) = build_catalog_entry("steady", 4, 101).unwrap();
        let cfg = ScenarioConfig::default();
        let mut p = PeriodicResolve::new(Resolver::Cold);
        let snap = match run_scenario_resumable(&inst, &scenario, &mut p, &cfg, Some(3)).unwrap() {
            ResumableRun::Interrupted(snap) => snap,
            ResumableRun::Finished(_) => panic!("run finished before epoch 3"),
        };
        let bumped = snap
            .to_json()
            .replacen("\"version\":1", "\"version\":99", 1);
        assert_ne!(bumped, snap.to_json(), "version field not found to bump");
        match ScenarioSnapshot::from_json(&bumped) {
            Err(ScenarioError::Snapshot(msg)) => {
                assert!(
                    msg.contains("schema version 99"),
                    "unhelpful message: {msg}"
                );
                assert!(
                    msg.contains(&SCENARIO_SNAPSHOT_VERSION.to_string()),
                    "message does not name the supported version: {msg}"
                );
            }
            other => panic!("expected a snapshot error, got {other:?}"),
        }
        match ScenarioSnapshot::from_json("{\"not\": \"a snapshot\"}") {
            Err(ScenarioError::Snapshot(msg)) => {
                assert!(msg.contains("version"), "unhelpful message: {msg}");
            }
            other => panic!("expected a snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn session_fed_just_in_time_matches_full_trace_run() {
        for entry in ["bursty", "faulty"] {
            let (inst, scenario) = build_catalog_entry(entry, 4, 91).unwrap();
            let cfg = ScenarioConfig {
                record_events: true,
                ..ScenarioConfig::default()
            };
            let mut pref = PeriodicResolve::new(Resolver::Cold);
            let mut full = run_scenario(&inst, &scenario, &mut pref, &cfg).unwrap();

            // Session starts with the platform-event timeline but *no*
            // jobs: each job is pushed only just before its due boundary,
            // the way a daemon learns of submissions.
            let mut base = scenario.clone();
            let jobs = std::mem::take(&mut base.jobs);
            let mut session = ScenarioSession::new(&inst, base, cfg.clone());
            let mut policy = PeriodicResolve::new(Resolver::Cold);
            let eps = 1e-9 * scenario.period;
            let mut fed = 0;
            while fed < jobs.len() || !session.is_done() {
                if session.is_done() {
                    // The run went idle before this arrival was known:
                    // feeding it re-opens the session.
                    session.push_jobs(&[jobs[fed]]).unwrap();
                    fed += 1;
                    continue;
                }
                let t_next = session.epoch() as f64 * scenario.period + eps;
                while fed < jobs.len() && jobs[fed].arrival <= t_next {
                    session.push_jobs(&[jobs[fed]]).unwrap();
                    fed += 1;
                }
                session.step(&mut policy).unwrap();
            }
            // The merged timeline equals the original scenario...
            assert_eq!(session.scenario().jobs, scenario.jobs, "{entry}");
            // ...and the run bit-agrees with the full-trace replay.
            let mut report = session.into_report(&mut policy);
            full.reschedule_ms = 0.0;
            report.reschedule_ms = 0.0;
            assert_eq!(
                full.to_json(),
                report.to_json(),
                "{entry}: session run diverged from the full-trace run"
            );
        }
    }

    #[test]
    fn session_rejects_inadmissible_pushes() {
        let (inst, scenario) = build_catalog_entry("steady", 4, 103).unwrap();
        let mut session = ScenarioSession::new(&inst, scenario.clone(), ScenarioConfig::default());
        let mut policy = PeriodicResolve::new(Resolver::Cold);
        for _ in 0..3 {
            assert!(!session.step(&mut policy).unwrap());
        }
        let tp = scenario.period;
        // A job at an already-scanned boundary is refused...
        let past = JobSpec {
            arrival: tp,
            origin: 0,
            size: 10.0,
            weight: 1.0,
        };
        assert!(matches!(
            session.push_jobs(&[past]),
            Err(ScenarioError::Admission(_))
        ));
        // ...as is one aimed at a cluster the platform doesn't have...
        let bad_origin = JobSpec {
            arrival: 10.0 * tp,
            origin: 99,
            size: 10.0,
            weight: 1.0,
        };
        assert!(matches!(
            session.push_jobs(&[bad_origin]),
            Err(ScenarioError::Admission(_))
        ));
        // ...and a platform event in the executed past.
        let ev = PlatformEvent {
            time: tp,
            change: PlatformChange::SetSpeed {
                cluster: 0,
                speed: 120.0,
            },
        };
        assert!(matches!(
            session.push_platform_event(ev),
            Err(ScenarioError::Admission(_))
        ));
        // Future admissions are accepted and the session still finishes.
        session
            .push_jobs(&[JobSpec {
                arrival: 10.0 * tp,
                origin: 0,
                size: 25.0,
                weight: 1.0,
            }])
            .unwrap();
        session
            .push_platform_event(PlatformEvent {
                time: 11.0 * tp,
                change: PlatformChange::SetSpeed {
                    cluster: 0,
                    speed: 120.0,
                },
            })
            .unwrap();
        session.run_to_end(&mut policy).unwrap();
        let report = session.into_report(&mut policy);
        assert_eq!(report.completed_jobs, report.jobs, "{}", report.summary());
    }

    #[test]
    fn warm_policy_state_survives_snapshot_restore() {
        let (inst, scenario) = build_catalog_entry("steady", 4, 83).unwrap();
        let cfg = ScenarioConfig::default();
        let mut first = PeriodicResolve::new(Resolver::warm(&inst).unwrap());
        let snap =
            match run_scenario_resumable(&inst, &scenario, &mut first, &cfg, Some(5)).unwrap() {
                ResumableRun::Interrupted(snap) => snap,
                ResumableRun::Finished(_) => panic!("run finished before epoch 5"),
            };
        let mut second = PeriodicResolve::new(Resolver::warm(&inst).unwrap());
        let resumed = resume_scenario(&inst, &scenario, &mut second, &cfg, &snap).unwrap();
        assert_eq!(
            resumed.completed_jobs,
            resumed.jobs,
            "{}",
            resumed.summary()
        );
        // The imported basis lets the resumed run's very first resolve go
        // warm: its context never pays a from-scratch cold solve.
        let stats = second.resolver_mut().warm_mut().unwrap().stats();
        assert!(stats.solves > 0);
        assert_eq!(
            stats.cold_solves, 0,
            "resumed warm context fell back cold: {stats:?}"
        );
    }
}
