//! Property tests for the failure-domain story: random fault storms keep
//! the two simulation cores in event-stream agreement, and crash-at-any-
//! epoch snapshot/restore replays bit-identically on both cores. Also: the
//! capacity-drift walk stays inside its clamping band.

use dls_scenario::{
    build_catalog_entry, drift_events, run_scenario, DriftConfig, PeriodicResolve, PlatformChange,
    PlatformEvent, Resolver, Scenario, ScenarioConfig, ScenarioSession, ScenarioSnapshot,
};
use dls_sim::SimEngine;
use proptest::prelude::*;

const K: usize = 4;

/// One random fault incident: a kind, an onset slot and a duration, mapped
/// onto the engine's fault-event vocabulary.
#[derive(Debug, Clone)]
enum Incident {
    CrashAndRejoin {
        cluster: u32,
        at: f64,
        outage: f64,
    },
    Partition {
        cluster: u32,
        at: f64,
        dur: f64,
    },
    Straggler {
        cluster: u32,
        at: f64,
        dur: f64,
        factor: f64,
    },
    LeaveAndRejoin {
        cluster: u32,
        at: f64,
        outage: f64,
    },
}

fn slot() -> impl Strategy<Value = f64> {
    (2u32..12).prop_map(|s| s as f64)
}

fn dur() -> impl Strategy<Value = f64> {
    (1u32..4).prop_map(|s| s as f64)
}

fn arb_incident() -> impl Strategy<Value = Incident> {
    let cluster = || 0u32..K as u32;
    prop_oneof![
        (cluster(), slot(), dur()).prop_map(|(cluster, at, outage)| Incident::CrashAndRejoin {
            cluster,
            at,
            outage
        }),
        (cluster(), slot(), dur()).prop_map(|(cluster, at, dur)| Incident::Partition {
            cluster,
            at,
            dur
        }),
        (cluster(), slot(), dur(), 0.2f64..0.9).prop_map(|(cluster, at, dur, factor)| {
            Incident::Straggler {
                cluster,
                at,
                dur,
                factor,
            }
        }),
        (cluster(), slot(), dur()).prop_map(|(cluster, at, outage)| Incident::LeaveAndRejoin {
            cluster,
            at,
            outage
        }),
    ]
}

/// Replays a random fault storm over the steady catalog workload.
fn storm_scenario(seed: u64, incidents: &[Incident]) -> (dls_core::ProblemInstance, Scenario) {
    let (inst, mut scenario) = build_catalog_entry("steady", K, seed).unwrap();
    for inc in incidents {
        match *inc {
            Incident::CrashAndRejoin {
                cluster,
                at,
                outage,
            } => {
                scenario.platform_events.push(PlatformEvent {
                    time: at,
                    change: PlatformChange::ClusterCrash { cluster },
                });
                scenario.platform_events.push(PlatformEvent {
                    time: at + outage,
                    change: PlatformChange::ClusterJoin { cluster },
                });
            }
            Incident::Partition { cluster, at, dur } => {
                let rest: Vec<u32> = (0..K as u32).filter(|&c| c != cluster).collect();
                scenario.platform_events.push(PlatformEvent {
                    time: at,
                    change: PlatformChange::BackbonePartition {
                        groups: vec![vec![cluster], rest],
                        until: at + dur,
                    },
                });
            }
            Incident::Straggler {
                cluster,
                at,
                dur,
                factor,
            } => {
                scenario.platform_events.push(PlatformEvent {
                    time: at,
                    change: PlatformChange::Straggler {
                        cluster,
                        factor,
                        until: at + dur,
                    },
                });
            }
            Incident::LeaveAndRejoin {
                cluster,
                at,
                outage,
            } => {
                scenario.platform_events.push(PlatformEvent {
                    time: at,
                    change: PlatformChange::ClusterLeave { cluster },
                });
                scenario.platform_events.push(PlatformEvent {
                    time: at + outage,
                    change: PlatformChange::ClusterJoin { cluster },
                });
            }
        }
    }
    scenario.normalise();
    scenario.validate(&inst.platform).expect("storm validates");
    (inst, scenario)
}

proptest! {
    // Each case is a pair of full scenario runs — keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random crash/partition/straggler/churn storms never drive the
    /// incremental core away from the full-recompute oracle: reports and
    /// event streams agree, and the fault log is identical.
    #[test]
    fn fault_storms_keep_engines_in_agreement(
        seed in 0u64..1000,
        incidents in proptest::collection::vec(arb_incident(), 1..5),
    ) {
        let (inst, scenario) = storm_scenario(seed, &incidents);
        let run = |engine| {
            let mut policy = PeriodicResolve::new(Resolver::Cold);
            run_scenario(
                &inst,
                &scenario,
                &mut policy,
                &ScenarioConfig {
                    engine,
                    record_events: true,
                    oracle_check: engine == SimEngine::Incremental,
                },
            )
            .unwrap()
        };
        let fast = run(SimEngine::Incremental);
        let slow = run(SimEngine::FullRecompute);
        prop_assert!(
            fast.agrees_with(&slow, 1e-6),
            "reports diverged:\n{}\n{}",
            fast.summary(),
            slow.summary()
        );
        if let Some(d) = fast.first_event_divergence(&slow, 1e-6) {
            return Err(TestCaseError::fail(format!(
                "engines diverged at {}",
                d.describe()
            )));
        }
        prop_assert_eq!(fast.fault_records(), slow.fault_records());
    }

    /// The drift walk never leaves its clamping band: every capacity an
    /// epoch sets lies within `[floor, ceil]` times that capacity's
    /// original value, however wide the per-epoch spread and however long
    /// the walk.
    #[test]
    fn drift_respects_floor_and_ceiling(
        seed in 0u64..1000,
        spread in 0.0f64..0.9,
        floor in 0.1f64..1.0,
        ceil in 1.0f64..4.0,
        epochs in 2usize..40,
    ) {
        let (inst, _) = build_catalog_entry("steady", K, seed).unwrap();
        let p = &inst.platform;
        let cfg = DriftConfig {
            speed_drift: spread,
            local_bw_drift: spread,
            backbone_bw_drift: spread,
            floor_fraction: floor,
            ceil_fraction: ceil,
            epochs,
            seed,
        };
        let events = drift_events(p, &cfg, 1.0);
        prop_assert_eq!(events.len(), (epochs - 1) * (2 * K + p.links.len()));
        for e in &events {
            let (value, orig) = match e.change {
                PlatformChange::SetSpeed { cluster, speed } => {
                    (speed, p.clusters[cluster as usize].speed)
                }
                PlatformChange::SetLocalBw { cluster, bw } => {
                    (bw, p.clusters[cluster as usize].local_bw)
                }
                PlatformChange::SetBackboneBw { link, bw } => {
                    (bw, p.links[link as usize].bw_per_connection)
                }
                ref other => return Err(TestCaseError::fail(format!("{other:?}"))),
            };
            prop_assert!(
                value >= orig * floor && value <= orig * ceil,
                "{:?} left the band [{}, {}] x {}",
                e,
                floor,
                ceil,
                orig
            );
        }
    }

    /// Crash-at-any-epoch resilience: interrupting a faulty run at a random
    /// epoch, serialising the snapshot through JSON, and resuming replays
    /// the remainder bit-identically to the uninterrupted run — on both
    /// simulation cores. The restored session's own first snapshot is the
    /// JSON it was restored from, byte for byte.
    #[test]
    fn snapshot_restore_is_bit_identical_at_any_epoch(
        seed in 0u64..1000,
        interrupt in 1usize..14,
        incidents in proptest::collection::vec(arb_incident(), 0..4),
    ) {
        let (inst, scenario) = storm_scenario(seed, &incidents);
        for engine in [SimEngine::Incremental, SimEngine::FullRecompute] {
            let cfg = ScenarioConfig {
                engine,
                record_events: true,
                ..ScenarioConfig::default()
            };
            let mut uninterrupted = PeriodicResolve::new(Resolver::Cold);
            let mut full = run_scenario(&inst, &scenario, &mut uninterrupted, &cfg).unwrap();
            // Wall-clock solve time is the one legitimately non-replayable
            // field.
            full.reschedule_ms = 0.0;
            let mut first = PeriodicResolve::new(Resolver::Cold);
            let mut session = ScenarioSession::new(&inst, scenario.clone(), cfg.clone());
            if (0..interrupt).any(|_| session.step(&mut first).unwrap()) {
                // The run finished before the interrupt epoch: the
                // checkpointing run IS the full run, nothing to restore.
                let mut report = session.into_report(&mut first);
                report.reschedule_ms = 0.0;
                prop_assert_eq!(full.to_json(), report.to_json());
                continue;
            }
            let json = session.snapshot(&mut first).to_json();
            let snap = ScenarioSnapshot::from_json(&json).unwrap();
            let mut second = PeriodicResolve::new(Resolver::Cold);
            let mut resumed =
                ScenarioSession::restore(&inst, scenario.clone(), cfg.clone(), &snap, &mut second)
                    .unwrap();
            // A restored session carries exactly the state it was given.
            prop_assert_eq!(&resumed.snapshot(&mut second).to_json(), &json);
            resumed.run_to_end(&mut second).unwrap();
            let mut resumed = resumed.into_report(&mut second);
            resumed.reschedule_ms = 0.0;
            prop_assert_eq!(full.to_json(), resumed.to_json(), "engine {:?}", engine);
        }
    }
}
