//! Round-trip laws for every wire and persistence type.
//!
//! For [`Request`], [`Response`], [`ServerFrame`], [`PushFrame`],
//! [`CheckpointFile`] and [`ScenarioSnapshot`], over seeded generated
//! values: printing a value, reading the text back and printing again gives
//! the same bytes (`to_string(from_str(to_string(x))) == to_string(x)`).
//! Distinct finite floats print distinct text (`serde`'s `float_printer`
//! reads every printed float back to its bits), so the same bytes mean every
//! finite float came back with its bits; a non-finite one prints as `null`,
//! on both sides.
//!
//! The floats are drawn where a printer or a reader goes wrong: the edge
//! floats the request goldens pin, ±0.0, subnormals, 2^53 and its
//! neighbours, 15–17-digit mantissas, values printed with 21–28 fraction
//! digits (past the 19 digits the reader's shortcuts take), non-finite
//! values and arbitrary bit patterns. Strings carry every escape and astral
//! characters. Snapshots and checkpoint files come from real tenants run a
//! few epochs on generated jobs, so their floats are the engine's own
//! 17-digit completion times and rates.
//!
//! The seeds are fixed; a failing case names its seed.

use dls_scenario::{
    FaultKind, FaultRecord, JobOutcome, JobSpec, PlatformChange, PlatformEvent, RecoveryRecord,
    RecoveryRung, ScenarioReport, ScenarioSnapshot, UnschedulableEntry,
};
use dls_service::{
    CheckpointFile, Op, Push, PushFrame, Request, RespBody, Response, ServerFrame, Tenant,
    TenantSpec,
};
use dls_sim::{EventKind, EventRecord};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Generated values per type.
const CASES: u64 = 300;

fn float(rng: &mut ChaCha8Rng) -> f64 {
    let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
    match rng.gen_range(0..9) {
        // The edge floats of the request goldens.
        0 => [
            5e-324,
            2.2250738585072014e-308,
            1e-7,
            0.1 + 0.2,
            9999999999999998.0,
            1e16,
            123456789012345680000.0,
            f64::MAX,
            -0.0,
        ][rng.gen_range(0..9)],
        1 => sign * 0.0,
        // Subnormals.
        2 => sign * f64::from_bits(rng.gen_range(1..1u64 << 52)),
        // 2^53 and its neighbours.
        3 => sign * (2f64.powi(53) + [-2.0, -1.0, 0.0, 2.0, 4.0][rng.gen_range(0..5)]),
        // 15–17-digit mantissas.
        4 => sign * rng.gen_range(1e-3..1e5),
        5 => sign * rng.gen_range(1e14..1e17) as u64 as f64 / 10f64.powi(rng.gen_range(0..18)),
        // 21–28 fraction digits.
        6 => sign * rng.gen_range(1..1000) as f64 * 10f64.powi(-rng.gen_range(19..26)),
        7 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3)],
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn int(rng: &mut ChaCha8Rng) -> u64 {
    match rng.gen_range(0..4) {
        0 => [0, 1, u64::MAX, 1 << 53, (1 << 53) + 1][rng.gen_range(0..5)],
        1 => rng.next_u64(),
        _ => rng.gen_range(0..1000),
    }
}

fn text(rng: &mut ChaCha8Rng) -> String {
    const PIECES: [&str; 10] = [
        "acme",
        "r0-u7",
        "",
        "q\"\\/\u{8}\u{c}\n\r\t",
        "\u{1}\u{1f}\u{7f}",
        "t\u{e9}l\u{e9}",
        "\u{1f600}\u{10ffff}",
        "{\"json\":[1,2.5,null]}",
        " spaced out ",
        "0.30000000000000004",
    ];
    (0..rng.gen_range(0..3))
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

fn some<T>(rng: &mut ChaCha8Rng, make: impl FnOnce(&mut ChaCha8Rng) -> T) -> Option<T> {
    rng.gen_bool(0.7).then(|| make(rng))
}

fn list<T>(rng: &mut ChaCha8Rng, max: usize, mut make: impl FnMut(&mut ChaCha8Rng) -> T) -> Vec<T> {
    (0..rng.gen_range(0..=max)).map(|_| make(rng)).collect()
}

fn job(rng: &mut ChaCha8Rng) -> JobSpec {
    JobSpec {
        arrival: float(rng),
        origin: rng.next_u32(),
        size: float(rng),
        weight: float(rng),
    }
}

fn platform_event(rng: &mut ChaCha8Rng) -> PlatformEvent {
    let cluster = rng.gen_range(0..64);
    let change = match rng.gen_range(0..9) {
        0 => PlatformChange::SetSpeed {
            cluster,
            speed: float(rng),
        },
        1 => PlatformChange::SetLocalBw {
            cluster,
            bw: float(rng),
        },
        2 => PlatformChange::SetBackboneBw {
            link: rng.next_u32(),
            bw: float(rng),
        },
        3 => PlatformChange::SetMaxConnections {
            link: rng.next_u32(),
            max: rng.next_u32(),
        },
        4 => PlatformChange::ClusterLeave { cluster },
        5 => PlatformChange::ClusterJoin { cluster },
        6 => PlatformChange::ClusterCrash { cluster },
        7 => PlatformChange::BackbonePartition {
            groups: list(rng, 3, |rng| list(rng, 3, |rng| rng.gen_range(0..64))),
            until: float(rng),
        },
        _ => PlatformChange::Straggler {
            cluster,
            factor: float(rng),
            until: float(rng),
        },
    };
    PlatformEvent {
        time: float(rng),
        change,
    }
}

fn spec(rng: &mut ChaCha8Rng) -> TenantSpec {
    TenantSpec {
        clusters: int(rng) as usize,
        seed: int(rng),
        policy: text(rng),
        period: float(rng),
        engine: text(rng),
        record_events: rng.gen_bool(0.5),
    }
}

fn op(rng: &mut ChaCha8Rng) -> Op {
    let tenant = text(rng);
    match rng.gen_range(0..11) {
        0 => Op::Hello,
        1 => Op::CreateTenant {
            tenant,
            spec: spec(rng),
        },
        2 => Op::Submit {
            tenant,
            jobs: list(rng, 4, job),
        },
        3 => Op::Fault {
            tenant,
            event: platform_event(rng),
        },
        4 => Op::Advance {
            tenant,
            epochs: int(rng) as usize,
        },
        5 => Op::Run { tenant },
        6 => Op::Query { tenant },
        7 => Op::Subscribe { tenant },
        8 => Op::Checkpoint { tenant },
        9 => Op::ListTenants,
        _ => Op::Shutdown,
    }
}

fn report(rng: &mut ChaCha8Rng) -> ScenarioReport {
    ScenarioReport {
        scenario: text(rng),
        policy: text(rng),
        periods: int(rng) as usize,
        period_length: float(rng),
        jobs: int(rng) as usize,
        completed_jobs: int(rng) as usize,
        offered_work: float(rng),
        completed_work: float(rng),
        makespan: float(rng),
        mean_response: float(rng),
        max_response: float(rng),
        achieved_throughput: float(rng),
        allocated_throughput: float(rng),
        reschedules: int(rng) as usize,
        reschedule_ms: float(rng),
        sim_events: int(rng),
        connection_caps_respected: rng.gen_bool(0.5),
        per_job: list(rng, 6, |rng| JobOutcome {
            job: rng.next_u32(),
            origin: rng.next_u32(),
            arrival: float(rng),
            size: float(rng),
            completed: some(rng, float),
        }),
        events: some(rng, |rng| {
            list(rng, 8, |rng| EventRecord {
                kind: [EventKind::Delivered, EventKind::Computed][rng.gen_range(0..2)],
                time: float(rng),
                cluster: rng.next_u32(),
                job: rng.next_u32(),
                amount: float(rng),
            })
        }),
        faults: some(rng, |rng| {
            list(rng, 3, |rng| FaultRecord {
                kind: [FaultKind::Crash, FaultKind::Partition, FaultKind::Straggler]
                    [rng.gen_range(0..3)],
                time: float(rng),
                cluster: some(rng, |rng| rng.next_u32()),
                lost_transfer: float(rng),
                lost_compute: float(rng),
                redispatched: float(rng),
                recovery_latency: some(rng, float),
            })
        }),
        recoveries: some(rng, |rng| {
            list(rng, 3, |rng| RecoveryRecord {
                epoch: int(rng) as usize,
                rung: [
                    RecoveryRung::Refactor,
                    RecoveryRung::Rebuild,
                    RecoveryRung::StaleScale,
                ][rng.gen_range(0..3)],
                error: text(rng),
                attempts: rng.next_u32(),
            })
        }),
        unschedulable: some(rng, |rng| {
            list(rng, 3, |rng| UnschedulableEntry {
                job: rng.next_u32(),
                detected_at: float(rng),
                reason: text(rng),
            })
        }),
        lost_transfer: some(rng, float),
        lost_compute: some(rng, float),
        redispatched_load: some(rng, float),
    }
}

fn resp_body(rng: &mut ChaCha8Rng) -> RespBody {
    let tenant = text(rng);
    match rng.gen_range(0..9) {
        0 => RespBody::Hello {
            protocol: rng.next_u32(),
        },
        1 => RespBody::Created { tenant },
        2 => RespBody::Accepted {
            tenant,
            admitted: int(rng) as usize,
        },
        3 => RespBody::Advanced {
            tenant,
            epoch: int(rng) as usize,
            done: rng.gen_bool(0.5),
        },
        4 => RespBody::Report {
            tenant,
            report: Box::new(report(rng)),
        },
        5 => RespBody::Subscribed { tenant },
        6 => RespBody::Checkpointed {
            tenant,
            path: text(rng),
        },
        7 => RespBody::Tenants {
            tenants: list(rng, 3, text),
        },
        _ => RespBody::ShuttingDown,
    }
}

fn response(rng: &mut ChaCha8Rng) -> Response {
    Response {
        id: int(rng),
        ok: rng.gen_bool(0.5),
        error: some(rng, text),
        body: some(rng, resp_body),
    }
}

fn push_frame(rng: &mut ChaCha8Rng) -> PushFrame {
    let tenant = text(rng);
    let push = match rng.gen_range(0..3) {
        0 => Push::Delta {
            tenant,
            epoch: int(rng) as usize,
            done: rng.gen_bool(0.5),
            completed_jobs: int(rng) as usize,
            completed_work: float(rng),
            reschedules: int(rng) as usize,
            sim_events: int(rng),
        },
        1 => Push::Fault {
            tenant,
            record: text(rng),
        },
        _ => Push::Recovery {
            tenant,
            record: text(rng),
        },
    };
    PushFrame { push }
}

/// The law for one value: its text reads back to a value that prints the
/// same text. Returns the text.
fn law<T: Serialize + Deserialize>(x: &T, case: &str) -> String {
    let printed = serde_json::to_string(x).unwrap();
    let back: T = serde_json::from_str(&printed)
        .unwrap_or_else(|e| panic!("{case}: {e} reading back {printed}"));
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        printed,
        "{case}: printed differently after a round trip"
    );
    printed
}

/// [`law`], with the text also read as a [`ServerFrame`], which must be the
/// variant `pick` takes and hold the same value.
fn law_as_frame<T: Serialize>(x: &T, case: &str, pick: fn(ServerFrame) -> Option<T>) {
    let printed = serde_json::to_string(x).unwrap();
    let frame = serde_json::from_str::<ServerFrame>(&printed)
        .unwrap_or_else(|e| panic!("{case}: {e} reading back {printed}"));
    let back = pick(frame).unwrap_or_else(|| panic!("{case}: {printed} read as the other frame"));
    assert_eq!(serde_json::to_string(&back).unwrap(), printed, "{case}");
}

/// Runs `check` on `CASES` values of `make`, each from its own seed.
fn cases<T, R>(salt: u64, make: impl Fn(&mut ChaCha8Rng) -> T, check: impl Fn(&T, &str) -> R) {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(salt << 32 | seed);
        check(&make(&mut rng), &format!("seed {seed}"));
    }
}

#[test]
fn requests_round_trip() {
    let request = |rng: &mut ChaCha8Rng| Request {
        id: int(rng),
        op: op(rng),
    };
    cases(1, request, law);
}

#[test]
fn responses_round_trip_also_as_server_frames() {
    cases(2, response, |x, case| {
        law(x, case);
        law_as_frame(x, case, |frame| match frame {
            ServerFrame::Response(back) => Some(back),
            ServerFrame::Push(_) => None,
        });
    });
}

#[test]
fn push_frames_round_trip_also_as_server_frames() {
    cases(3, push_frame, |x, case| {
        law(x, case);
        law_as_frame(x, case, |frame| match frame {
            ServerFrame::Push(back) => Some(back),
            ServerFrame::Response(_) => None,
        });
    });
}

#[test]
fn generated_checkpoint_files_round_trip() {
    cases(
        4,
        |rng| CheckpointFile {
            schema_version: rng.next_u32(),
            tenant: text(rng),
            spec: spec(rng),
            scenario_json: text(rng),
            snapshot_json: text(rng),
            done: rng.gen_bool(0.5),
        },
        law,
    );
}

/// A tenant of a few clusters, run a few epochs on generated jobs and
/// checkpointed: its checkpoint file and the snapshot inside it.
fn checkpointed_tenant(rng: &mut ChaCha8Rng, dir: &std::path::Path) -> CheckpointFile {
    let clusters = rng.gen_range(2..6);
    let spec = TenantSpec {
        clusters,
        seed: rng.next_u64(),
        policy: ["periodic", "periodic-cold", "threshold", "stale"][rng.gen_range(0..4)].into(),
        period: [10.0, 0.1 + 0.2, 7.3999999999999995, 12.5][rng.gen_range(0..4)],
        engine: ["incremental", "full"][rng.gen_range(0..2)].into(),
        record_events: rng.gen_bool(0.5),
    };
    let period = spec.period;
    let mut tenant = Tenant::new("tenant", spec).expect("a valid spec builds");
    let jobs: Vec<JobSpec> = (0..rng.gen_range(1..8))
        .map(|_| JobSpec {
            arrival: rng.gen_range(0.0..4.0 * period),
            origin: rng.gen_range(0..clusters as u32),
            size: [
                1e-7,
                0.1 + 0.2,
                90.07199254740993,
                rng.gen_range(1.0..500.0),
            ][rng.gen_range(0..4)],
            weight: 1.0,
        })
        .collect();
    tenant.submit(&jobs).expect("jobs admitted");
    if rng.gen_bool(0.3) {
        let crash = PlatformEvent {
            time: rng.gen_range(0.0..3.0 * period),
            change: PlatformChange::ClusterCrash {
                cluster: rng.gen_range(0..clusters as u32),
            },
        };
        tenant.fault(crash).expect("crash admitted");
    }
    tenant.advance(rng.gen_range(0..6)).expect("epochs run");
    let path = tenant.checkpoint(dir).expect("checkpoint written");
    let text = std::fs::read_to_string(path).expect("checkpoint readable");
    serde_json::from_str(&text).expect("checkpoint reads")
}

#[test]
fn tenant_checkpoints_and_snapshots_round_trip() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("round_trip_checkpoints");
    for seed in 0..24 {
        let case = format!("tenant seed {seed}");
        let mut rng = ChaCha8Rng::seed_from_u64(5 << 32 | seed);
        let file = checkpointed_tenant(&mut rng, &dir);
        law(&file, &case);
        // A snapshot is read through its version probe, and prints back
        // the bytes it was read from.
        let snapshot = ScenarioSnapshot::from_json(&file.snapshot_json)
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(
            snapshot.to_json(),
            file.snapshot_json,
            "{case}: the snapshot reprinted"
        );
    }
}
