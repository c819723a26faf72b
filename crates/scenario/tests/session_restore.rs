//! Bit-identity of the warm-policy snapshot/restore path at an awkward
//! seed (distilled from the service recovery bench, where seed 32461
//! first exposed a ulp-level makespan drift after restore).
//!
//! Warm LP contexts carry an incrementally-updated factorisation that a
//! restore necessarily rebuilds from the persisted basis, so taking a
//! checkpoint fires [`ReschedulePolicy::checkpoint_barrier`] on the live
//! side: both the continuing run and any restored replica start their
//! next solve from the identical clean factorisation. The contract is
//! therefore *checkpoint-relative* — a restored run bit-agrees with the
//! run that took the checkpoint (and kept going), not with a
//! hypothetical run that never checkpointed. For cold policies the
//! barrier is a no-op and the two references coincide; that stronger
//! property is covered by the existing cold-resolver snapshot tests.

use dls_scenario::catalog::paper_shape_instance;
use dls_scenario::{
    resume_scenario, run_scenario_resumable, JobSpec, PeriodicResolve, ReschedulePolicy, Resolver,
    ResumableRun, Scenario, ScenarioConfig, ScenarioReport, ScenarioSession,
};
use dls_sim::SimEngine;

fn jobs() -> Vec<JobSpec> {
    let mut out = Vec::new();
    for b in 0..6usize {
        for j in 0..2usize {
            out.push(JobSpec {
                arrival: b as f64 * 10.0 + 1.0 + 3.0 * j as f64,
                origin: ((2 + b + j) % 5) as u32,
                size: 60.0 + 10.0 * ((2 + 2 * b + j) % 5) as f64,
                weight: 1.0,
            });
        }
    }
    out
}

fn warm_policy(inst: &dls_core::ProblemInstance) -> impl ReschedulePolicy {
    PeriodicResolve::new(Resolver::warm(inst).expect("warm resolver builds"))
}

fn scenario() -> Scenario {
    let mut s = Scenario {
        name: "r2".into(),
        period: 10.0,
        jobs: jobs(),
        platform_events: Vec::new(),
    };
    s.normalise();
    s
}

fn cfg() -> ScenarioConfig {
    ScenarioConfig {
        engine: SimEngine::Incremental,
        ..ScenarioConfig::default()
    }
}

/// The run that takes the checkpoint: step to `at_epoch`, snapshot
/// (firing the barrier), continue to completion.
fn checkpointing_reference(
    inst: &dls_core::ProblemInstance,
    at_epoch: usize,
) -> (ScenarioReport, dls_scenario::ScenarioSnapshot) {
    let mut policy = warm_policy(inst);
    let mut session = ScenarioSession::new(inst, scenario(), cfg());
    for _ in 0..at_epoch {
        session.step(&mut policy).expect("reference steps");
    }
    let snap = session.snapshot(&mut policy);
    session.run_to_end(&mut policy).expect("reference finishes");
    (session.into_report(&mut policy), snap)
}

fn canonical(mut r: ScenarioReport) -> String {
    r.reschedule_ms = 0.0;
    r.to_json()
}

#[test]
fn session_restore_bit_agrees_with_the_checkpointing_run() {
    let inst = paper_shape_instance(5, 32461);
    let (reference, snap) = checkpointing_reference(&inst, 2);

    let mut policy = warm_policy(&inst);
    let mut resumed = ScenarioSession::restore(&inst, scenario(), cfg(), &snap, &mut policy)
        .expect("session restores");
    resumed
        .run_to_end(&mut policy)
        .expect("restored run finishes");
    let report = resumed.into_report(&mut policy);

    assert_eq!(
        canonical(report),
        canonical(reference),
        "restored session must replay bit-identically to the run that \
         took the checkpoint"
    );
}

#[test]
fn resumable_run_bit_agrees_with_the_checkpointing_run() {
    // The `run_scenario_resumable` interrupt discards the live run, so its
    // snapshot never needed a barrier — but the resumed replica still must
    // match a session that checkpointed at the same epoch, because both
    // start epoch 2 from a fresh factorisation of the same basis.
    let inst = paper_shape_instance(5, 32461);
    let (reference, _) = checkpointing_reference(&inst, 2);

    let sc = scenario();
    let mut first = warm_policy(&inst);
    let snap = match run_scenario_resumable(&inst, &sc, &mut first, &cfg(), Some(2)).unwrap() {
        ResumableRun::Interrupted(snap) => snap,
        ResumableRun::Finished(_) => panic!("finished before epoch 2"),
    };
    let mut second = warm_policy(&inst);
    let resumed = resume_scenario(&inst, &sc, &mut second, &cfg(), &snap).unwrap();

    assert_eq!(
        canonical(resumed),
        canonical(reference),
        "resume_scenario must replay bit-identically to the run that \
         checkpointed at the interrupt epoch"
    );
}

#[test]
fn checkpoint_barrier_changes_nothing_for_cold_policies() {
    // Snapshots are observationally free for stateless policies: the
    // checkpointing run and the straight-through run coincide exactly.
    let inst = paper_shape_instance(5, 32461);
    let sc = scenario();

    let mut straight = PeriodicResolve::new(Resolver::Cold);
    let mut reference =
        dls_scenario::run_scenario(&inst, &sc, &mut straight, &cfg()).expect("reference runs");
    reference.reschedule_ms = 0.0;

    let mut policy = PeriodicResolve::new(Resolver::Cold);
    let mut session = ScenarioSession::new(&inst, sc, cfg());
    for _ in 0..2 {
        session.step(&mut policy).expect("step");
    }
    let _ = session.snapshot(&mut policy);
    session.run_to_end(&mut policy).expect("finishes");
    let report = session.into_report(&mut policy);

    assert_eq!(
        canonical(report),
        reference.to_json(),
        "a cold checkpointing run must equal the never-checkpointed run"
    );
}

/// A checkpoint written by one commit must restore on the next.
/// `tests/fixtures/snapshot_v1_k5_greedy.json` is a [`ScenarioSnapshot`]
/// taken after 5 steps of the run below *by the commit that introduced
/// it*; it embeds a `LiveSnapshot` v1 with squeezed flows in flight across
/// the boundary, fresh ones, heap and queue entries, and a recorded event
/// prefix. The allocation is LP-free Greedy, solved once (the threshold
/// never triggers) and then squeezed by a capacity cut it is not re-solved
/// for, so the fixture pins the simulator's and the scenario engine's wire
/// format only, and the checkpointing run coincides with the uninterrupted
/// one. Re-take it (`FIXTURE_BLESS=1`) only together with a snapshot
/// version bump.
#[test]
fn committed_snapshot_restores_and_finishes_like_the_uninterrupted_run() {
    use dls_core::heuristics::Greedy;
    use dls_scenario::{PlatformChange, PlatformEvent, ScenarioSnapshot, ThresholdTriggered};

    let inst = paper_shape_instance(5, 32461);
    let cut = |cluster| PlatformEvent {
        time: 20.0,
        change: PlatformChange::SetLocalBw { cluster, bw: 3.0 },
    };
    let mut sc = Scenario {
        name: "fixture".into(),
        period: 10.0,
        jobs: jobs()
            .into_iter()
            .map(|j| JobSpec {
                size: 10.0 * j.size,
                ..j
            })
            .collect(),
        platform_events: vec![cut(1), cut(2)],
    };
    sc.normalise();
    let cfg = ScenarioConfig {
        record_events: true,
        ..cfg()
    };
    let greedy = || ThresholdTriggered::new(1e-9, Resolver::Heuristic(Box::new(Greedy::default())));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/snapshot_v1_k5_greedy.json");

    if std::env::var_os("FIXTURE_BLESS").is_some() {
        let mut policy = greedy();
        let mut session = ScenarioSession::new(&inst, sc.clone(), cfg.clone());
        for _ in 0..5 {
            session.step(&mut policy).expect("step");
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, session.snapshot(&mut policy).to_json()).unwrap();
    }

    let json = std::fs::read_to_string(&path).expect("committed fixture");
    let snap = ScenarioSnapshot::from_json(&json).expect("fixture parses");
    assert_eq!(
        snap.to_json(),
        json,
        "parse then print must reproduce the committed snapshot byte for byte"
    );
    let mut policy = greedy();
    let mut resumed = ScenarioSession::restore(&inst, sc.clone(), cfg.clone(), &snap, &mut policy)
        .expect("fixture restores");
    resumed.run_to_end(&mut policy).expect("restored run ends");
    let report = resumed.into_report(&mut policy);

    let reference =
        dls_scenario::run_scenario(&inst, &sc, &mut greedy(), &cfg).expect("reference runs");
    assert!(reference.events.is_some(), "fixture run records events");
    assert_eq!(canonical(report), canonical(reference));
}
