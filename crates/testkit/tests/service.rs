//! Multi-tenant isolation: N client threads hammer one daemon with
//! interleaved submissions, faults, and advances on their own tenants;
//! every tenant's final report must be bit-for-bit what its timeline
//! produces alone, in-process, on a private engine.

use dls_scenario::{JobSpec, PlatformChange, PlatformEvent};
use dls_service::{Op, RespBody, TenantSpec};
use dls_testkit::service::{canonical_report_json, expected_report, ServiceHarness};

/// Deterministic per-tenant workload: two admission batches (the second
/// strictly after every boundary the first two advances can scan) plus
/// one platform fault between them.
struct TenantPlan {
    name: String,
    spec: TenantSpec,
    batch1: Vec<JobSpec>,
    batch2: Vec<JobSpec>,
    fault: PlatformEvent,
}

fn plan(t: usize) -> TenantPlan {
    let clusters = 3 + t % 3;
    let spec = TenantSpec {
        clusters,
        seed: 100 + t as u64,
        policy: if t.is_multiple_of(2) {
            "periodic".into()
        } else {
            "periodic-cold".into()
        },
        period: 10.0,
        engine: if t.is_multiple_of(3) {
            "full".into()
        } else {
            "incremental".into()
        },
        record_events: t % 2 == 1,
    };
    let job = |arrival: f64, origin: usize, size: f64| JobSpec {
        arrival,
        origin: (origin % clusters) as u32,
        size,
        weight: 1.0,
    };
    let batch1 = vec![
        job(0.0, t, 120.0 + 10.0 * t as f64),
        job(4.5, t + 1, 90.0),
        job(11.0, t + 2, 60.0 + 5.0 * t as f64),
    ];
    // The client advances twice after batch 1, so the scanned boundary
    // is at most 2 * period = 20; everything below lands strictly later.
    let batch2 = vec![job(26.0, t + 1, 80.0), job(31.5, t, 45.0)];
    let fault = PlatformEvent {
        time: 35.0,
        change: PlatformChange::SetSpeed {
            cluster: (t % clusters) as u32,
            speed: 40.0 + 3.0 * t as f64,
        },
    };
    TenantPlan {
        name: format!("tenant-{t}"),
        spec,
        batch1,
        batch2,
        fault,
    }
}

#[test]
fn concurrent_tenants_are_isolated_bit_for_bit() {
    const N: usize = 6;
    // Fewer workers than tenants so pinning actually shares threads.
    let harness = ServiceHarness::start(3);
    let addr = harness.addr();

    let handles: Vec<_> = (0..N)
        .map(|t| {
            std::thread::spawn(move || {
                let p = plan(t);
                let mut c = dls_service::Client::connect(addr).expect("client connects");
                c.expect_ok(Op::CreateTenant {
                    tenant: p.name.clone(),
                    spec: p.spec.clone(),
                })
                .expect("create");
                c.expect_ok(Op::Submit {
                    tenant: p.name.clone(),
                    jobs: p.batch1.clone(),
                })
                .expect("submit batch 1");
                c.expect_ok(Op::Advance {
                    tenant: p.name.clone(),
                    epochs: 2,
                })
                .expect("advance");
                c.expect_ok(Op::Submit {
                    tenant: p.name.clone(),
                    jobs: p.batch2.clone(),
                })
                .expect("submit batch 2");
                c.expect_ok(Op::Fault {
                    tenant: p.name.clone(),
                    event: p.fault.clone(),
                })
                .expect("fault");
                c.expect_ok(Op::Run {
                    tenant: p.name.clone(),
                })
                .expect("run to end");
                let body = c
                    .expect_ok(Op::Query {
                        tenant: p.name.clone(),
                    })
                    .expect("query");
                match body {
                    RespBody::Report { tenant, report } => {
                        assert_eq!(tenant, p.name);
                        (p, report)
                    }
                    other => panic!("query returned {other:?}"),
                }
            })
        })
        .collect();

    for h in handles {
        let (p, daemon_report) = h.join().expect("tenant thread joins");
        let mut jobs = p.batch1.clone();
        jobs.extend(p.batch2.iter().cloned());
        let reference = expected_report(&p.name, &p.spec, &jobs, std::slice::from_ref(&p.fault));
        assert_eq!(
            canonical_report_json(&daemon_report),
            canonical_report_json(&reference),
            "tenant {} diverged from its single-tenant in-process run",
            p.name
        );
        assert_eq!(daemon_report.completed_jobs, jobs.len());
    }

    harness.stop().expect("daemon drains cleanly");
}

#[test]
fn daemon_rejects_cross_tenant_and_malformed_ops() {
    let harness = ServiceHarness::start(2);
    let mut c = harness.client();

    // Unknown tenant.
    let resp = c
        .request(Op::Query {
            tenant: "ghost".into(),
        })
        .expect("request completes");
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("ghost"));

    // Invalid tenant name.
    let resp = c
        .request(Op::CreateTenant {
            tenant: "../etc/passwd".into(),
            spec: TenantSpec::default(),
        })
        .expect("request completes");
    assert!(!resp.ok);

    // Duplicate create.
    c.expect_ok(Op::CreateTenant {
        tenant: "solo".into(),
        spec: TenantSpec::default(),
    })
    .expect("create");
    let resp = c
        .request(Op::CreateTenant {
            tenant: "solo".into(),
            spec: TenantSpec::default(),
        })
        .expect("request completes");
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("exists"));

    // Inadmissible submission: arrival in already-executed past.
    c.expect_ok(Op::Submit {
        tenant: "solo".into(),
        jobs: vec![JobSpec {
            arrival: 0.0,
            origin: 0,
            size: 50.0,
            weight: 1.0,
        }],
    })
    .expect("submit");
    c.expect_ok(Op::Advance {
        tenant: "solo".into(),
        epochs: 2,
    })
    .expect("advance");
    let resp = c
        .request(Op::Submit {
            tenant: "solo".into(),
            jobs: vec![JobSpec {
                arrival: 0.5,
                origin: 0,
                size: 10.0,
                weight: 1.0,
            }],
        })
        .expect("request completes");
    assert!(!resp.ok, "past-dated submission must be rejected");
    assert!(resp.error.unwrap().contains("admission"));

    harness.stop().expect("daemon drains cleanly");
}

#[test]
fn subscribe_streams_deltas() {
    let harness = ServiceHarness::start(1);
    let mut sub = harness.client();
    let mut driver = harness.client();

    driver
        .expect_ok(Op::CreateTenant {
            tenant: "watched".into(),
            spec: TenantSpec::default(),
        })
        .expect("create");
    sub.expect_ok(Op::Subscribe {
        tenant: "watched".into(),
    })
    .expect("subscribe");
    driver
        .expect_ok(Op::Submit {
            tenant: "watched".into(),
            jobs: vec![JobSpec {
                arrival: 0.0,
                origin: 0,
                size: 100.0,
                weight: 1.0,
            }],
        })
        .expect("submit");
    driver
        .expect_ok(Op::Run {
            tenant: "watched".into(),
        })
        .expect("run");

    let push = sub
        .wait_push(std::time::Duration::from_secs(10))
        .expect("push channel healthy")
        .expect("a delta arrives after the run");
    match push.push {
        dls_service::Push::Delta {
            tenant,
            done,
            completed_jobs,
            ..
        } => {
            assert_eq!(tenant, "watched");
            assert!(done);
            assert_eq!(completed_jobs, 1);
        }
        other => panic!("expected a delta push, got {other:?}"),
    }

    harness.stop().expect("daemon drains cleanly");
}

/// A connection subscribed to its own tenant is sent a push frame and then
/// the response for every `Advance`. On an accepted socket without
/// `TCP_NODELAY` the second write waited out the client's delayed ACK
/// (≈ 44 ms a round trip against ≈ 0.3 ms unsubscribed).
#[test]
fn subscribed_advances_do_not_wait_for_a_delayed_ack() {
    let harness = ServiceHarness::start(1);
    let mut c = harness.client();
    c.expect_ok(Op::CreateTenant {
        tenant: "own".into(),
        spec: TenantSpec::default(),
    })
    .expect("create");
    c.expect_ok(Op::Subscribe {
        tenant: "own".into(),
    })
    .expect("subscribe");
    c.expect_ok(Op::Submit {
        tenant: "own".into(),
        jobs: (0..30)
            .map(|j| JobSpec {
                arrival: 10.0 * j as f64 + 1.0,
                origin: j % 5,
                size: 80.0,
                weight: 1.0,
            })
            .collect(),
    })
    .expect("submit");

    let mut round_trips: Vec<std::time::Duration> = (0..20)
        .map(|_| {
            let t0 = std::time::Instant::now();
            c.expect_ok(Op::Advance {
                tenant: "own".into(),
                epochs: 1,
            })
            .expect("advance");
            t0.elapsed()
        })
        .collect();
    assert_eq!(c.drain_pushes().len(), 20, "one delta per advance");
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(20),
        "median subscribed Advance round trip {median:?}"
    );

    harness.stop().expect("daemon drains cleanly");
}

/// `wait_push` timing out in the middle of a frame must keep the half it
/// read: the next read resumes that frame. (It used to drop it, and the
/// next `request` started mid-frame: "bad frame from daemon".)
#[test]
fn a_frame_cut_by_the_push_timeout_is_resumed() {
    use std::io::{BufRead, BufReader, Write};
    use std::sync::mpsc;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("stub binds");
    let addr = listener.local_addr().expect("stub address");
    let (timed_out, resume) = mpsc::channel::<()>();
    let stub = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("client connects");
        let push = dls_service::frame(&dls_service::PushFrame {
            push: dls_service::Push::Fault {
                tenant: "stub".into(),
                record: "x".repeat(500),
            },
        });
        let (head, tail) = push.split_at(push.len() / 2);
        stream.write_all(head.as_bytes()).expect("first half");
        resume.recv().expect("the client's wait timed out");
        stream.write_all(tail.as_bytes()).expect("second half");
        let mut request = String::new();
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut request)
            .expect("a request arrives");
        let request: dls_service::Request = serde_json::from_str(&request).expect("it parses");
        let response = dls_service::Response::ok(request.id, RespBody::Hello { protocol: 1 });
        stream
            .write_all(dls_service::frame(&response).as_bytes())
            .expect("response");
    });

    let mut c = dls_service::Client::connect(addr).expect("client connects");
    let cut = c
        .wait_push(std::time::Duration::from_millis(100))
        .expect("a timeout is not an error");
    assert!(cut.is_none(), "half a frame is no frame");
    timed_out.send(()).expect("stub is waiting");
    let body = c.expect_ok(Op::Hello).expect("the response is found");
    assert!(matches!(body, RespBody::Hello { protocol: 1 }));
    match c.drain_pushes().as_slice() {
        [dls_service::PushFrame {
            push: dls_service::Push::Fault { tenant, record },
        }] => assert_eq!((tenant.as_str(), record.len()), ("stub", 500)),
        other => panic!("expected the resumed push, got {other:?}"),
    }
    stub.join().expect("stub thread");
}

/// Frames no client of ours would send, straight onto the socket: each is
/// answered `ok: false` / `unparseable frame`, none takes the connection
/// (or its thread's stack) down, and the same connection then serves a
/// whole tenant script.
#[test]
fn hostile_frames_are_refused_and_the_connection_lives() {
    use std::io::{BufRead, BufReader, Write};

    let harness = ServiceHarness::start(1);
    let mut stream = std::net::TcpStream::connect(harness.addr()).expect("raw socket connects");
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    let mut exchange = |frame: &str| -> dls_service::Response {
        stream.write_all(frame.as_bytes()).expect("frame sent");
        stream.write_all(b"\n").expect("newline sent");
        let mut line = String::new();
        replies.read_line(&mut line).expect("a reply arrives");
        serde_json::from_str(&line).expect("the reply is a response frame")
    };

    let deep = "[".repeat(100_000);
    let hostile = [
        "garbage".to_string(),
        r#"{"id":1,"op":{"Query":{"tenant":"cut mid-stri"#.to_string(),
        deep.clone(),
        // The nesting an unknown key's value hides is skipped, not built:
        // that path needs the depth limit too.
        format!(r#"{{"id":1,"zzz":{deep},"op":"Hello"}}"#),
        format!(r#"{{"id":1,"op":{{"Query":{{"tenant":"t","zzz":{deep}}}}}}}"#),
        r#"{"id":1,"op":"Dance"}"#.to_string(),
        r#"{"id":1,"op":{"Dance":{"tenant":"t"}}}"#.to_string(),
        r#"{"id":"one","op":"Hello"}"#.to_string(),
        r#"{"id":-1,"op":"Hello"}"#.to_string(),
        r#"{"id":1,"op":"Hello"} trailing"#.to_string(),
        r#"{"id":1,"op":{"Query":{"tenant":"a"},"Run":{"tenant":"a"}}}"#.to_string(),
    ];
    for frame in &hostile {
        let shown = &frame[..frame.len().min(60)];
        let resp = exchange(frame);
        assert!(!resp.ok && resp.id == 0 && resp.body.is_none(), "{shown}");
        let error = resp.error.expect("a refusal says why");
        assert!(error.starts_with("unparseable frame: "), "{shown}: {error}");
    }

    // Still a working connection: unknown keys and foreign spacing included.
    let hello = exchange(r#" { "extra" : [1, {"x": null}], "id" : 7, "op" : "Hello" } "#);
    assert!(hello.ok && hello.id == 7);
    let spec = serde_json::to_string(&TenantSpec::default()).unwrap();
    let script = [
        format!(r#"{{"id":8,"op":{{"CreateTenant":{{"tenant":"raw","spec":{spec}}}}}}}"#),
        r#"{"id":9,"op":{"Submit":{"tenant":"raw","jobs":[{"arrival":0,"origin":0,"size":1e2,"weight":1}]}}}"#.to_string(),
        r#"{"id":10,"op":{"Run":{"tenant":"raw"}}}"#.to_string(),
        r#"{"id":11,"op":{"Query":{"tenant":"raw"}}}"#.to_string(),
    ];
    let mut last = None;
    for (frame, id) in script.iter().zip(8..) {
        let resp = exchange(frame);
        assert!(resp.ok && resp.id == id, "{frame}: {:?}", resp.error);
        last = resp.body;
    }
    match last {
        Some(RespBody::Report { report, .. }) => assert_eq!(report.completed_jobs, 1),
        other => panic!("the script ends in a report, got {other:?}"),
    }

    harness.stop().expect("daemon drains cleanly");
}
