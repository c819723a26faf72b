//! Metamorphic relation: a platform event that changes nothing leaves the
//! run as it was.
//!
//! For every catalog entry (K = 5, and K = 20 in release builds), under
//! both simulation cores and three re-solve policies (periodic cold,
//! periodic warm, threshold-triggered warm), one event is inserted at a
//! seeded time: a `SetSpeed`, `SetLocalBw`, `SetBackboneBw`
//! or `SetMaxConnections` that sets the value already in force, a
//! `Straggler` of factor 1 on a cluster no straggler window covers, or a
//! `BackbonePartition` whose one group holds every cluster. The report must
//! print the bytes of the unperturbed run's, outside [`excluded`]: the
//! event's own fault record and the wall-clock `reschedule_ms`.

use dls_core::ProblemInstance;
use dls_scenario::{
    build_catalog_entry, catalog, run_scenario, FaultKind, PeriodicResolve, PlatformChange,
    PlatformEvent, ReschedulePolicy, Resolver, Scenario, ScenarioConfig, ScenarioReport,
    ThresholdTriggered,
};
use dls_sim::SimEngine;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Catalog sizes: the relation is cheap enough at K = 20 only in release.
const SIZES: &[usize] = if cfg!(debug_assertions) {
    &[5]
} else {
    &[5, 20]
};

/// A fresh policy for one run.
type MakePolicy = fn(&ProblemInstance) -> Box<dyn ReschedulePolicy>;

/// The policies the relation must hold under, by name.
const POLICIES: [(&str, MakePolicy); 3] = [
    ("periodic-cold", |_| {
        Box::new(PeriodicResolve::new(Resolver::Cold))
    }),
    ("periodic-warm", |inst| {
        Box::new(PeriodicResolve::new(Resolver::warm(inst).unwrap()))
    }),
    ("threshold-warm", |inst| {
        Box::new(ThresholdTriggered::new(0.9, Resolver::warm(inst).unwrap()))
    }),
];

/// The report without what a no-op `event` may change: its wall-clock
/// solver time, and the fault record a straggler or a partition writes for
/// itself.
fn excluded(mut report: ScenarioReport, event: Option<&PlatformEvent>) -> String {
    report.reschedule_ms = 0.0;
    let own = match event.map(|e| (e.time, &e.change)) {
        Some((time, PlatformChange::Straggler { cluster, .. })) => {
            Some((FaultKind::Straggler, time, Some(*cluster)))
        }
        Some((time, PlatformChange::BackbonePartition { .. })) => {
            Some((FaultKind::Partition, time, None))
        }
        _ => None,
    };
    if let (Some((kind, time, cluster)), Some(faults)) = (own, report.faults.as_mut()) {
        let at = faults
            .iter()
            .position(|f| f.kind == kind && f.time == time && f.cluster == cluster)
            .expect("the event wrote its fault record");
        faults.remove(at);
    }
    report.to_json()
}

fn run(
    inst: &ProblemInstance,
    scenario: &Scenario,
    engine: SimEngine,
    policy: MakePolicy,
) -> ScenarioReport {
    let cfg = ScenarioConfig {
        engine,
        record_events: true,
        ..ScenarioConfig::default()
    };
    run_scenario(inst, scenario, policy(inst).as_mut(), &cfg).expect("the run finishes")
}

/// The last value `pick` finds among the events before `t`, or `base`.
fn in_force<T>(
    scenario: &Scenario,
    t: f64,
    base: T,
    pick: impl Fn(&PlatformChange) -> Option<T>,
) -> T {
    scenario
        .platform_events
        .iter()
        .filter(|e| e.time < t)
        .filter_map(|e| pick(&e.change))
        .last()
        .unwrap_or(base)
}

/// The no-op events for `scenario` at `t`, one of each kind.
fn no_ops(
    inst: &ProblemInstance,
    scenario: &Scenario,
    t: f64,
    rng: &mut ChaCha8Rng,
) -> Vec<PlatformEvent> {
    let platform = &inst.platform;
    let k = platform.num_clusters() as u32;
    let cluster = rng.gen_range(0..k);
    let c = cluster as usize;
    let link = rng.gen_range(0..platform.links.len() as u32);
    let l = link as usize;
    let speed = in_force(
        scenario,
        t,
        platform.clusters[c].speed,
        |change| match change {
            PlatformChange::SetSpeed { cluster: x, speed } if *x == cluster => Some(*speed),
            _ => None,
        },
    );
    let bw = in_force(
        scenario,
        t,
        platform.clusters[c].local_bw,
        |change| match change {
            PlatformChange::SetLocalBw { cluster: x, bw } if *x == cluster => Some(*bw),
            _ => None,
        },
    );
    let backbone = in_force(
        scenario,
        t,
        platform.links[l].bw_per_connection,
        |change| match change {
            PlatformChange::SetBackboneBw { link: x, bw } if *x == link => Some(*bw),
            _ => None,
        },
    );
    let max = in_force(
        scenario,
        t,
        platform.links[l].max_connections,
        |change| match change {
            PlatformChange::SetMaxConnections { link: x, max } if *x == link => Some(*max),
            _ => None,
        },
    );
    // A factor-1 window must neither cut short nor overlap another one.
    let until = t + 1.5;
    let straggler = (0..k)
        .map(|i| (cluster + i) % k)
        .find(|&x| {
            !scenario.platform_events.iter().any(|e| {
                matches!(e.change, PlatformChange::Straggler { cluster, until: end, .. }
                    if cluster == x && e.time < until && end > t)
            })
        })
        .expect("some cluster has no straggler window around t");
    [
        PlatformChange::SetSpeed { cluster, speed },
        PlatformChange::SetLocalBw { cluster, bw },
        PlatformChange::SetBackboneBw { link, bw: backbone },
        PlatformChange::SetMaxConnections { link, max },
        PlatformChange::Straggler {
            cluster: straggler,
            factor: 1.0,
            until,
        },
        PlatformChange::BackbonePartition {
            groups: vec![(0..k).collect()],
            until,
        },
    ]
    .into_iter()
    .map(|change| PlatformEvent { time: t, change })
    .collect()
}

#[test]
fn no_op_platform_events_leave_every_catalog_run_unchanged() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    for &k in SIZES {
        for entry in catalog() {
            let (inst, scenario) = build_catalog_entry(entry.name, k, 11).expect("catalog entry");
            // A time inside the arrivals, off every event's own time.
            let mut t = rng.gen_range(1.0..15.0);
            while scenario
                .platform_events
                .iter()
                .any(|e| (e.time - t).abs() < 1e-6)
            {
                t += 0.013;
            }
            let events = no_ops(&inst, &scenario, t, &mut rng);
            for (policy_name, policy) in POLICIES {
                for engine in [SimEngine::Incremental, SimEngine::FullRecompute] {
                    let want = excluded(run(&inst, &scenario, engine, policy), None);
                    for event in &events {
                        let mut perturbed = scenario.clone();
                        perturbed.platform_events.push(event.clone());
                        perturbed.normalise();
                        let got = excluded(run(&inst, &perturbed, engine, policy), Some(event));
                        assert!(
                            got == want,
                            "{} at K = {k}, {policy_name} under {engine:?}: {event:?} moved \
                             the report\n{}",
                            entry.name,
                            first_difference(&want, &got)
                        );
                    }
                }
            }
        }
    }
}

/// The first line where two pretty reports differ, with its neighbours.
fn first_difference(want: &str, got: &str) -> String {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let at = want
        .iter()
        .zip(&got)
        .position(|(a, b)| a != b)
        .unwrap_or(want.len().min(got.len()));
    let lo = at.saturating_sub(3);
    format!(
        "line {}:\n  want {:?}\n  got  {:?}",
        at + 1,
        &want[lo..(at + 2).min(want.len())],
        &got[lo..(at + 2).min(got.len())]
    )
}
