//! The fast pipeline against its reference at the paper's scale.
//!
//! The same job trace runs through two pipelines:
//!
//! * **fast**: the incremental live core, audited at every mutation
//!   (`oracle_check`), driven by [`PeriodicResolve`] over a warm-started
//!   LPRG ([`Resolver::warm`]);
//! * **reference**: the [`SimEngine::FullRecompute`] core driven by cold
//!   LPRG re-solves ([`Resolver::Cold`]).
//!
//! Both take identical control decisions (the two-stage canonical LP makes
//! warm and cold certify the same vertex), so their reports must agree on
//! every trace: a static platform, per-period capacity drift, and
//! round-robin cluster crashes whose lost work is re-dispatched. K = 50 over
//! a horizon of 25 periods (≈ 330 jobs) in release builds, K = 12 over 10 in
//! debug builds.

use dls_core::ProblemInstance;
use dls_scenario::catalog::{paper_shape_instance, poisson_jobs};
use dls_scenario::{
    drift_events, run_scenario, DriftConfig, PeriodicResolve, PlatformChange, PlatformEvent,
    Resolver, Scenario, ScenarioConfig, ScenarioReport,
};
use dls_sim::SimEngine;

const SEED: u64 = 42;

/// `(clusters, horizon)`.
const SCALE: (usize, f64) = if cfg!(debug_assertions) {
    (12, 10.0)
} else {
    (50, 25.0)
};

/// The round-robin fault trace: a victim crashes every 7 periods (its
/// in-flight and queued work is lost and re-dispatched) and rejoins 3
/// periods later, the path where the incremental core's retire/purge
/// bookkeeping must stay in step with the reference.
fn crash_and_rejoin(k: usize, horizon: f64) -> Vec<PlatformEvent> {
    let mut events = Vec::new();
    let mut victim = 0u32;
    let mut t = 4.0;
    while t + 3.0 < horizon {
        events.push(PlatformEvent {
            time: t,
            change: PlatformChange::ClusterCrash { cluster: victim },
        });
        events.push(PlatformEvent {
            time: t + 3.0,
            change: PlatformChange::ClusterJoin { cluster: victim },
        });
        victim = (victim + 2) % k as u32;
        t += 7.0;
    }
    events
}

/// The `steady`, `drift` and `faulty` traces over the catalog's Poisson
/// workload.
fn traces(inst: &ProblemInstance, k: usize, horizon: f64) -> [Scenario; 3] {
    let jobs = poisson_jobs(k, horizon, SEED ^ 0xa5a5);
    let drift = drift_events(
        &inst.platform,
        &DriftConfig {
            epochs: horizon as usize + 1,
            speed_drift: 0.08,
            local_bw_drift: 0.08,
            backbone_bw_drift: 0.08,
            seed: SEED ^ 0x5a5a,
            ..DriftConfig::default()
        },
        1.0,
    );
    [
        ("steady", Vec::new()),
        ("drift", drift),
        ("faulty", crash_and_rejoin(k, horizon)),
    ]
    .map(|(name, platform_events)| {
        let mut scenario = Scenario {
            name: name.into(),
            period: 1.0,
            jobs: jobs.clone(),
            platform_events,
        };
        scenario.normalise();
        scenario
    })
}

fn run(inst: &ProblemInstance, scenario: &Scenario, fast: bool) -> ScenarioReport {
    let (mut policy, cfg) = if fast {
        let cfg = ScenarioConfig {
            oracle_check: true,
            ..ScenarioConfig::default()
        };
        (PeriodicResolve::new(Resolver::warm(inst).unwrap()), cfg)
    } else {
        let cfg = ScenarioConfig {
            engine: SimEngine::FullRecompute,
            record_events: true,
            ..ScenarioConfig::default()
        };
        (PeriodicResolve::new(Resolver::Cold), cfg)
    };
    run_scenario(inst, scenario, &mut policy, &cfg).unwrap()
}

#[test]
fn warm_incremental_and_cold_full_pipelines_agree_at_paper_shape() {
    let (k, horizon) = SCALE;
    let inst = paper_shape_instance(k, SEED);
    for scenario in traces(&inst, k, horizon) {
        let name = &scenario.name;
        let fast = run(&inst, &scenario, true);
        let slow = run(&inst, &scenario, false);
        assert!(
            fast.agrees_with(&slow, 1e-6),
            "{name}: pipelines diverged:\n{}\n{}",
            fast.summary(),
            slow.summary()
        );
        assert!(!fast.event_trace().is_empty(), "{name}: no events recorded");
        if let Some(d) = fast.first_event_divergence(&slow, 1e-6) {
            panic!("{name}: event streams diverged at {}", d.describe());
        }
        assert_eq!(fast.fault_records(), slow.fault_records(), "{name}");
        if name == "faulty" {
            assert!(!fast.fault_records().is_empty(), "{name}: nothing crashed");
        }
        for report in [&fast, &slow] {
            assert_eq!(report.completed_jobs, scenario.jobs.len(), "{name}");
            assert_eq!(report.completed_jobs, report.jobs, "{name}");
        }
    }
}
