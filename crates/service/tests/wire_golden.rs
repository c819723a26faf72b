//! Byte-level goldens for the wire protocol.
//!
//! `tests/golden/wire/` pins the compact frame of a [`Request`] of every
//! [`Op`], a [`Response`] of every [`RespBody`] (plus a rejection), each
//! [`Push`], a [`CheckpointFile`] as the daemon writes it, and the pretty
//! [`ScenarioReport::to_json`] — the bytes every peer, checkpoint directory
//! and committed artifact already holds. A codec change must leave every
//! line as it is; `PROTOCOL_VERSION` / `CHECKPOINT_VERSION` move first
//! otherwise. The last test holds the streamed reader to the tree reader on
//! every truncation and on 10 000 one-byte mutations of the report frame.
//! Regenerate with
//! `GOLDEN_BLESS=1 cargo test -p dls_service --test wire_golden` and review
//! the diff: a line may only change when the PR says why.

use dls_scenario::{
    JobSpec, PlatformChange, PlatformEvent, RecoveryRecord, RecoveryRung, ScenarioReport,
};
use dls_service::{
    frame, Op, Push, PushFrame, Request, RespBody, Response, ServerFrame, Tenant, TenantSpec,
    PROTOCOL_VERSION,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Deserialize;
use std::fmt::Debug;
use std::path::PathBuf;

fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/wire")
        .join(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with GOLDEN_BLESS=1)", path.display()));
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "{name}: line {} moved", i + 1);
    }
    assert_eq!(expected.len(), actual.len(), "{name}: length moved");
}

fn spec() -> TenantSpec {
    TenantSpec {
        clusters: 5,
        seed: 7,
        policy: "periodic".into(),
        period: 10.0,
        engine: "incremental".into(),
        record_events: true,
    }
}

fn jobs() -> Vec<JobSpec> {
    (0..8usize)
        .map(|j| JobSpec {
            arrival: 0.5 + 2.3 * j as f64,
            origin: (j % 5) as u32,
            size: 1500.0 + 127.3 * (j % 3) as f64,
            weight: 1.0,
        })
        .collect()
}

/// Jobs whose floats sit where a float printer goes wrong: the smallest
/// subnormal and normal, a value printed with leading zeros, a sum that
/// needs 17 digits, the integral values either side of 1e16 (where `.0`
/// stops), a large integral value, the largest finite value and -0.0.
fn edge_float_jobs() -> Vec<JobSpec> {
    let edges = [
        5e-324,
        2.2250738585072014e-308,
        1e-7,
        0.1 + 0.2,
        9999999999999998.0,
        1e16,
        123456789012345680000.0,
        1.7976931348623157e308,
        -0.0,
    ];
    edges
        .chunks(3)
        .map(|f| JobSpec {
            arrival: f[0],
            origin: 0,
            size: f[1],
            weight: f[2],
        })
        .collect()
}

fn crash() -> PlatformEvent {
    PlatformEvent {
        time: 25.0,
        change: PlatformChange::ClusterCrash { cluster: 3 },
    }
}

fn rejoin() -> PlatformEvent {
    PlatformEvent {
        time: 41.0,
        change: PlatformChange::ClusterJoin { cluster: 3 },
    }
}

/// What the recorded-events K = 5 tenant leaves behind: its checkpoint
/// file, taken two epochs in with flows in flight across the crash, and its
/// final report with `reschedule_ms` (wall clock) zeroed. `scratch` names
/// the caller's own directory under the target tmpdir (tests run in parallel).
fn crash_run(scratch: &str) -> (String, ScenarioReport) {
    let mut tenant = Tenant::new("golden", spec()).expect("tenant builds");
    tenant.submit(&jobs()).expect("jobs admitted");
    tenant.fault(crash()).expect("crash admitted");
    tenant.fault(rejoin()).expect("rejoin admitted");
    tenant.advance(2).expect("two epochs run");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(scratch);
    let path = tenant.checkpoint(&dir).expect("checkpoint written");
    let checkpoint = std::fs::read_to_string(path).expect("checkpoint readable");
    tenant.run_to_end().expect("run finishes");
    let mut report = tenant.query();
    report.reschedule_ms = 0.0;
    (checkpoint, report)
}

#[test]
fn request_frames_are_pinned() {
    let tenant = || "acme".to_string();
    let ops = vec![
        Op::Hello,
        Op::CreateTenant {
            tenant: tenant(),
            spec: spec(),
        },
        Op::Submit {
            tenant: tenant(),
            jobs: jobs()[..2].to_vec(),
        },
        Op::Fault {
            tenant: tenant(),
            event: crash(),
        },
        Op::Fault {
            tenant: tenant(),
            event: PlatformEvent {
                time: 5.5,
                change: PlatformChange::BackbonePartition {
                    groups: vec![vec![0, 1], vec![2], vec![]],
                    until: 1e21,
                },
            },
        },
        Op::Advance {
            tenant: tenant(),
            epochs: 3,
        },
        Op::Run { tenant: tenant() },
        Op::Query { tenant: tenant() },
        Op::Subscribe { tenant: tenant() },
        Op::Checkpoint { tenant: tenant() },
        Op::ListTenants,
        Op::Shutdown,
        Op::Submit {
            tenant: tenant(),
            jobs: edge_float_jobs(),
        },
    ];
    let frames: Vec<String> = ops
        .into_iter()
        .enumerate()
        .map(|(i, op)| {
            frame(&Request {
                // Ids at both ends of the range, and small ones.
                id: [0, 1, u64::MAX][i % 3],
                op,
            })
        })
        .collect();
    check("requests.txt", &frames.concat());
}

#[test]
fn response_and_push_frames_are_pinned() {
    let (_, report) = crash_run("wire_golden_frames");
    let faults = report.faults.clone().expect("the engine reports faults");
    assert!(!faults.is_empty(), "the crash left a fault record");
    assert!(
        report.events.as_ref().is_some_and(|e| !e.is_empty()),
        "the run recorded events"
    );
    let tenant = || "acme".to_string();

    let bodies = vec![
        RespBody::Hello {
            protocol: PROTOCOL_VERSION,
        },
        RespBody::Created { tenant: tenant() },
        RespBody::Accepted {
            tenant: tenant(),
            admitted: 2,
        },
        RespBody::Advanced {
            tenant: tenant(),
            epoch: 4,
            done: false,
        },
        RespBody::Subscribed { tenant: tenant() },
        RespBody::Checkpointed {
            tenant: tenant(),
            path: "/var/lib/dls/ckpt \"a\"\\acme.ckpt.json".into(),
        },
        RespBody::Tenants {
            tenants: vec![
                tenant(),
                "t\u{e9}l\u{e9}com-\u{1f600}".into(),
                String::new(),
            ],
        },
        RespBody::ShuttingDown,
    ];
    let mut frames: Vec<String> = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| frame(&Response::ok(i as u64 + 1, body)))
        .collect();
    frames.push(frame(&Response::err(
        0,
        "unparseable frame: expected `,` or `}` at byte 17\n\ttab, \u{1} control, / slash",
    )));
    check("responses.txt", &frames.concat());

    check(
        "report_frame.txt",
        &frame(&Response::ok(
            42,
            RespBody::Report {
                tenant: "golden".into(),
                report: Box::new(report.clone()),
            },
        )),
    );
    check("report_pretty.json", &report.to_json());

    let recovery = RecoveryRecord {
        epoch: 3,
        rung: RecoveryRung::Refactor,
        error: "singular basis: pivot 1e-13 in row 4".into(),
        attempts: 2,
    };
    let pushes = vec![
        Push::Delta {
            tenant: tenant(),
            epoch: 9,
            done: true,
            completed_jobs: report.completed_jobs,
            completed_work: report.completed_work,
            reschedules: report.reschedules,
            sim_events: report.sim_events,
        },
        Push::Fault {
            tenant: tenant(),
            record: serde_json::to_string(&faults[0]).unwrap(),
        },
        Push::Recovery {
            tenant: tenant(),
            record: serde_json::to_string(&recovery).unwrap(),
        },
    ];
    let frames: Vec<String> = pushes
        .into_iter()
        .map(|push| frame(&PushFrame { push }))
        .collect();
    check("pushes.txt", &frames.concat());
}

#[test]
fn checkpoint_file_is_pinned() {
    let (checkpoint, _) = crash_run("wire_golden_ckpt");
    // JSON inside JSON strings: the scenario (pretty, so newlines) and the
    // snapshot (compact) ride as escaped text.
    assert!(checkpoint.contains("\\n") && checkpoint.contains("\\\""));
    check("checkpoint.txt", &checkpoint);
}

/// Reads `text` streamed and through the tree: `None` when both refuse it,
/// the value (as `Debug` text, so that `NaN` equals itself) when both read
/// the same, a panic otherwise.
fn read_both_ways<T: Deserialize + Debug>(text: &str) -> Option<String> {
    let streamed = serde_json::from_str::<T>(text);
    let through_tree = serde_json::from_str_value(text).and_then(|tree| T::from_value(&tree));
    match (streamed, through_tree) {
        (Ok(a), Ok(b)) => {
            let value = format!("{a:?}");
            assert_eq!(value, format!("{b:?}"), "on {text}");
            Some(value)
        }
        (Err(_), Err(_)) => None,
        (a, b) => panic!("verdicts differ on {text}: streamed {a:?}, through the tree {b:?}"),
    }
}

#[test]
fn damaged_report_frames_get_one_verdict() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire/report_frame.txt");
    let golden = std::fs::read_to_string(path).expect("committed golden");
    let frame = golden.trim();
    let intact = read_both_ways::<ServerFrame>(frame).expect("the golden frame reads");
    let response: Response = serde_json::from_str(frame).unwrap();
    assert_eq!(serde_json::to_string(&response).unwrap(), frame);

    // Truncation: every prefix (on a char boundary: the frame is a `str`).
    let mut read = 0;
    for end in (0..frame.len()).filter(|&end| frame.is_char_boundary(end)) {
        read += read_both_ways::<Response>(&frame[..end]).is_some() as usize;
    }
    assert_eq!(read, 0, "no proper prefix of a frame is a frame");

    // Mutation: one byte replaced by one from the frame's own alphabet plus
    // the bytes that change structure.
    let mut alphabet: Vec<u8> = frame.bytes().filter(u8::is_ascii).collect();
    alphabet.extend_from_slice(b"{}[]\":,\\ \t\n\r\x00\x7fnulltruefalse-+.eE0123456789uU/");
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let (mut read, mut changed) = (0, 0);
    for _ in 0..10_000 {
        let mut bytes = frame.as_bytes().to_vec();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = alphabet[rng.gen_range(0..alphabet.len())];
        // A replaced byte inside a multi-byte character is not a `str`; no
        // frame reaches either reader that way.
        let Ok(text) = std::str::from_utf8(&bytes) else {
            continue;
        };
        if let Some(value) = read_both_ways::<ServerFrame>(text) {
            read += 1;
            changed += (value != intact) as usize;
        }
    }
    assert!(
        read > 1000 && changed > 500,
        "{read} mutants read, {changed} of them to another value: the \
         comparison has to see accepted frames too"
    );
}
