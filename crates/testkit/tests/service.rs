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

/// `n` tenants, each driven over its own connection by its own thread, on
/// a daemon of `workers` shards: every report equals the tenant's
/// single-tenant in-process run, and `ListTenants` names them all, sorted.
fn tenants_on_their_own_connections_are_isolated(n: usize, workers: usize) {
    let harness = ServiceHarness::start(workers);
    let addr = harness.addr();

    let handles: Vec<_> = (0..n)
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

    let mut names: Vec<String> = (0..n).map(|t| plan(t).name).collect();
    names.sort();
    match harness.client().expect_ok(Op::ListTenants) {
        Ok(RespBody::Tenants { tenants }) => assert_eq!(tenants, names),
        other => panic!("ListTenants returned {other:?}"),
    }
    harness.stop().expect("daemon drains cleanly");
}

#[test]
fn concurrent_tenants_are_isolated_bit_for_bit() {
    // Fewer shards than tenants so pinning actually shares them.
    tenants_on_their_own_connections_are_isolated(6, 3);
}

/// 64 tenants over 64 connections on two shards: each connection thread
/// executes its own ops, so 32 of them contend for every shard lock.
#[test]
fn sixty_four_tenants_on_two_shards_are_isolated_bit_for_bit() {
    tenants_on_their_own_connections_are_isolated(64, 2);
}

/// A connection's requests execute and are answered in the order sent: a
/// `Hello` written right behind a long `Run` is answered after it. (When a
/// worker thread executed tenant ops, the connection thread answered the
/// `Hello` first.)
#[test]
fn a_connections_requests_are_answered_in_the_order_sent() {
    use dls_service::{frame, Request, Response};
    use std::io::{BufRead, BufReader, Write};

    let harness = ServiceHarness::start(1);
    let mut c = harness.client();
    c.expect_ok(Op::CreateTenant {
        tenant: "busy".into(),
        spec: TenantSpec::default(),
    })
    .expect("create");
    c.expect_ok(Op::Submit {
        tenant: "busy".into(),
        jobs: (0..60)
            .map(|j| JobSpec {
                arrival: 10.0 * j as f64 + 1.0,
                origin: j % 5,
                size: 80.0,
                weight: 1.0,
            })
            .collect(),
    })
    .expect("submit");

    let mut stream = std::net::TcpStream::connect(harness.addr()).expect("raw socket connects");
    let run = Op::Run {
        tenant: "busy".into(),
    };
    let both = frame(&Request { id: 1, op: run })
        + &frame(&Request {
            id: 2,
            op: Op::Hello,
        });
    stream
        .write_all(both.as_bytes())
        .expect("both frames in one write");
    let mut replies = BufReader::new(stream);
    let answers: Vec<Response> = (0..2)
        .map(|_| {
            let mut line = String::new();
            replies.read_line(&mut line).expect("a reply arrives");
            serde_json::from_str(&line).expect("a response frame")
        })
        .collect();
    assert_eq!(answers.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2]);
    assert!(matches!(
        answers[0].body,
        Some(RespBody::Advanced { done: true, .. })
    ));
    harness.stop().expect("daemon drains cleanly");
}

/// A new connection is accepted as soon as it arrives. (The accept loop
/// used to poll a non-blocking socket and sleep 20 ms after every empty
/// poll, so a first `Hello` took ≈ 17 ms and the second ≈ 0.1 ms.)
#[test]
fn a_new_connection_is_answered_without_an_accept_wait() {
    let harness = ServiceHarness::start(1);
    let mut firsts: Vec<std::time::Duration> = (0..20)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let mut c = harness.client();
            c.expect_ok(Op::Hello).expect("hello");
            t0.elapsed()
        })
        .collect();
    firsts.sort();
    let median = firsts[firsts.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(5),
        "median first Hello on a fresh connection {median:?}"
    );
    harness.stop().expect("daemon drains cleanly");
}

/// A burst of connects waits in the accept queue instead of being dropped.
/// (`std`'s `TcpListener::bind` listens with a backlog of 128, so the queue
/// held 129 connections: the 130th SYN was dropped and its client waited out
/// TCP's 1 s initial retransmission timeout, and 256 tenants connecting at
/// once stalled a session for ≈ 1.1 s.) The server is bound but never run,
/// so nothing leaves the queue.
#[cfg(unix)]
#[test]
fn a_burst_of_connects_fits_the_accept_queue() {
    use dls_service::{Server, ServiceConfig};
    use std::time::Duration;

    let server = Server::bind(ServiceConfig::default()).expect("daemon binds");
    let addr = server.local_addr().expect("bound address");
    let mut queued = Vec::new();
    for n in 0..256 {
        match std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
            Ok(stream) => queued.push(stream),
            Err(e) => {
                let somaxconn = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
                    .map_or_else(|_| "unreadable".into(), |s| s.trim().to_string());
                panic!(
                    "connect {} of 256 to a listener that accepts nothing failed ({e}): \
                     the accept queue held {n} (the kernel caps the backlog at \
                     /proc/sys/net/core/somaxconn = {somaxconn})",
                    n + 1
                );
            }
        }
    }
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
    assert_eq!(resp.error.as_deref(), Some("unknown tenant `ghost`"));

    // Invalid tenant name.
    let resp = c
        .request(Op::CreateTenant {
            tenant: "../etc/passwd".into(),
            spec: TenantSpec::default(),
        })
        .expect("request completes");
    assert!(!resp.ok);
    assert_eq!(
        resp.error.as_deref(),
        Some("invalid tenant name `../etc/passwd` (want [A-Za-z0-9_-], 1..=64 chars)")
    );

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
    assert_eq!(resp.error.as_deref(), Some("tenant `solo` already exists"));

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

/// A line of `MAX_FRAME + 1` bytes with no newline, straight onto the
/// socket: one refusal, then the daemon closes the connection (the line
/// used to grow without bound), and a new connection is served.
#[test]
fn an_over_long_frame_is_refused_and_its_connection_closed() {
    use std::io::{BufRead, BufReader, Write};

    let harness = ServiceHarness::start(1);
    let mut stream = std::net::TcpStream::connect(harness.addr()).expect("raw socket connects");
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    let long = vec![b'x'; dls_service::MAX_FRAME as usize + 1];
    stream.write_all(&long).expect("the long line is sent");
    let mut line = String::new();
    replies.read_line(&mut line).expect("a reply arrives");
    let resp: dls_service::Response = serde_json::from_str(&line).expect("a response frame");
    assert!(!resp.ok && resp.id == 0 && resp.body.is_none());
    let error = resp.error.expect("a refusal says why");
    assert!(error.starts_with("unparseable frame: "), "{error}");
    line.clear();
    let eof = replies.read_line(&mut line).expect("a clean close");
    assert_eq!((eof, line.as_str()), (0, ""), "the connection is closed");

    let mut c = harness.client();
    assert!(matches!(
        c.expect_ok(Op::Hello).expect("a new connection is served"),
        RespBody::Hello { .. }
    ));
    harness.stop().expect("daemon drains cleanly");
}

/// A subscriber whose write fails is dropped at that `publish`: later
/// advances never write to it again, and a healthy subscriber of the same
/// tenant still gets a `Delta` for every one of them.
#[test]
fn a_subscriber_whose_write_fails_is_dropped() {
    use dls_service::{ConnHandle, Core, Push, PushFrame, Request};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    struct Broken(Arc<AtomicUsize>);
    impl std::io::Write for Broken {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let writes = Arc::new(AtomicUsize::new(0));
    let broken: ConnHandle = Arc::new(Mutex::new(Broken(writes.clone())));
    let healthy = Arc::new(Mutex::new(Vec::<u8>::new()));
    let driver: ConnHandle = healthy.clone();

    let mut core = Core::new(None, 0);
    let mut apply = |conn: &ConnHandle, op: Op| {
        let resp = core.apply(conn, Request { id: 1, op });
        assert!(resp.ok, "{:?}", resp.error);
    };
    let tenant = || "watched".to_string();
    apply(
        &driver,
        Op::CreateTenant {
            tenant: tenant(),
            spec: TenantSpec::default(),
        },
    );
    apply(&broken, Op::Subscribe { tenant: tenant() });
    apply(&driver, Op::Subscribe { tenant: tenant() });
    apply(
        &driver,
        Op::Submit {
            tenant: tenant(),
            jobs: (0..10)
                .map(|j| JobSpec {
                    arrival: 10.0 * j as f64 + 1.0,
                    origin: j % 5,
                    size: 80.0,
                    weight: 1.0,
                })
                .collect(),
        },
    );
    for _ in 0..5 {
        apply(
            &driver,
            Op::Advance {
                tenant: tenant(),
                epochs: 1,
            },
        );
    }

    assert_eq!(
        writes.load(Ordering::SeqCst),
        1,
        "one failed write, then dropped"
    );
    let bytes = healthy.lock().unwrap().clone();
    let epochs: Vec<usize> = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(
            |line| match serde_json::from_str::<PushFrame>(line).unwrap().push {
                Push::Delta { epoch, .. } => epoch,
                other => panic!("expected a delta, got {other:?}"),
            },
        )
        .collect();
    assert_eq!(epochs, [1, 2, 3, 4, 5]);
}

/// An op that panics — here inside a subscriber's `write` — is answered
/// with an error naming its tenant and poisons that tenant only: later ops
/// on it are refused, it is no longer listed, and a neighbour in the same
/// core finishes with the report of its single-tenant run.
#[test]
fn a_panicking_op_poisons_only_its_tenant() {
    use dls_service::{ConnHandle, Core, Request, Response};
    use std::sync::{Arc, Mutex};

    struct Exploding;
    impl std::io::Write for Exploding {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            panic!("the sink exploded")
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let exploding: ConnHandle = Arc::new(Mutex::new(Exploding));
    let driver: ConnHandle = Arc::new(Mutex::new(Vec::<u8>::new()));
    let mut core = Core::new(None, 0);
    let mut apply =
        |conn: &ConnHandle, op: Op| -> Response { core.apply(conn, Request { id: 1, op }) };
    let ok = |resp: Response| -> Option<RespBody> {
        assert!(resp.ok, "{:?}", resp.error);
        resp.body
    };

    let p = plan(1);
    let victim = || "victim".to_string();
    ok(apply(
        &driver,
        Op::CreateTenant {
            tenant: p.name.clone(),
            spec: p.spec.clone(),
        },
    ));
    ok(apply(
        &driver,
        Op::CreateTenant {
            tenant: victim(),
            spec: TenantSpec::default(),
        },
    ));
    ok(apply(&exploding, Op::Subscribe { tenant: victim() }));
    ok(apply(
        &driver,
        Op::Submit {
            tenant: p.name.clone(),
            jobs: p.batch1.clone(),
        },
    ));
    ok(apply(
        &driver,
        Op::Advance {
            tenant: p.name.clone(),
            epochs: 2,
        },
    ));

    let resp = apply(
        &driver,
        Op::Advance {
            tenant: victim(),
            epochs: 1,
        },
    );
    assert!(!resp.ok && resp.body.is_none());
    assert_eq!(
        resp.error.as_deref(),
        Some("tenant `victim` panicked and is poisoned: the sink exploded")
    );
    let poisoned = Some("tenant `victim` is poisoned by an earlier panic");
    for op in [
        Op::Query { tenant: victim() },
        Op::CreateTenant {
            tenant: victim(),
            spec: TenantSpec::default(),
        },
    ] {
        assert_eq!(apply(&driver, op).error.as_deref(), poisoned);
    }

    for op in [
        Op::Submit {
            tenant: p.name.clone(),
            jobs: p.batch2.clone(),
        },
        Op::Fault {
            tenant: p.name.clone(),
            event: p.fault.clone(),
        },
        Op::Run {
            tenant: p.name.clone(),
        },
    ] {
        ok(apply(&driver, op));
    }
    let Some(RespBody::Report { report, .. }) = ok(apply(
        &driver,
        Op::Query {
            tenant: p.name.clone(),
        },
    )) else {
        panic!("a query answers a report");
    };
    let mut jobs = p.batch1.clone();
    jobs.extend(p.batch2.iter().cloned());
    let reference = expected_report(&p.name, &p.spec, &jobs, std::slice::from_ref(&p.fault));
    assert_eq!(
        canonical_report_json(&report),
        canonical_report_json(&reference)
    );
    assert_eq!(core.names(), [p.name]);
}

/// A scripted request and the reply it must get: `Ok` or the exact error.
type Step = (Op, Result<(), String>);

/// One in-process connection: the sink its frames go to, and its script.
struct VirtualConn {
    sink: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
    conn: dls_service::ConnHandle,
    script: std::collections::VecDeque<Step>,
}

/// What a connection's script does to its own tenant `t{i}`, for the
/// single-tenant reference run.
struct Timeline {
    spec: TenantSpec,
    jobs: Vec<JobSpec>,
    events: Vec<PlatformEvent>,
}

/// Connection `i`'s script: create `t{i}` → (submit, advance) × k →
/// maybe a fault → run → query, with a duplicate create, an invalid name,
/// an op on an unknown tenant and maybe one subscription (to any tenant,
/// its own included) at random places.
fn virtual_script(
    rng: &mut rand_chacha::ChaCha8Rng,
    i: usize,
    conns: usize,
) -> (Vec<Step>, Timeline) {
    use rand::Rng;
    let name = format!("t{i}");
    let clusters = rng.gen_range(3usize..6);
    let spec = TenantSpec {
        clusters,
        seed: rng.gen_range(0u64..1000),
        policy: if rng.gen_bool(0.5) {
            "periodic".into()
        } else {
            "periodic-cold".into()
        },
        period: 10.0,
        engine: if rng.gen_bool(0.5) {
            "full".into()
        } else {
            "incremental".into()
        },
        record_events: rng.gen_bool(0.5),
    };
    let mut tl = Timeline {
        spec: spec.clone(),
        jobs: Vec::new(),
        events: Vec::new(),
    };
    let mut script = vec![(
        Op::CreateTenant {
            tenant: name.clone(),
            spec,
        },
        Ok(()),
    )];
    // Every arrival lands strictly after the boundaries already scanned.
    let mut epochs = 0usize;
    for _ in 0..rng.gen_range(1usize..4) {
        let jobs: Vec<JobSpec> = (0..rng.gen_range(1usize..4))
            .map(|_| JobSpec {
                arrival: 10.0 * epochs as f64 + rng.gen_range(1.0..9.0),
                origin: rng.gen_range(0..clusters as u32),
                size: rng.gen_range(40.0..160.0),
                weight: 1.0,
            })
            .collect();
        tl.jobs.extend(jobs.iter().cloned());
        script.push((
            Op::Submit {
                tenant: name.clone(),
                jobs,
            },
            Ok(()),
        ));
        let advance = rng.gen_range(1usize..3);
        epochs += advance;
        script.push((
            Op::Advance {
                tenant: name.clone(),
                epochs: advance,
            },
            Ok(()),
        ));
    }
    if rng.gen_bool(0.5) {
        let event = PlatformEvent {
            time: 10.0 * epochs as f64 + rng.gen_range(1.0..9.0),
            change: PlatformChange::SetSpeed {
                cluster: rng.gen_range(0..clusters as u32),
                speed: rng.gen_range(30.0..60.0),
            },
        };
        tl.events.push(event.clone());
        script.push((
            Op::Fault {
                tenant: name.clone(),
                event,
            },
            Ok(()),
        ));
    }
    script.push((
        Op::Run {
            tenant: name.clone(),
        },
        Ok(()),
    ));
    script.push((
        Op::Query {
            tenant: name.clone(),
        },
        Ok(()),
    ));

    let mut insert = |rng: &mut rand_chacha::ChaCha8Rng, op: Op, reply: Result<(), String>| {
        let at = rng.gen_range(1..script.len() + 1);
        script.insert(at, (op, reply));
    };
    insert(
        rng,
        Op::CreateTenant {
            tenant: name.clone(),
            spec: TenantSpec::default(),
        },
        Err(format!("tenant `{name}` already exists")),
    );
    insert(
        rng,
        Op::CreateTenant {
            tenant: format!("bad name {i}"),
            spec: TenantSpec::default(),
        },
        Err(format!(
            "invalid tenant name `bad name {i}` (want [A-Za-z0-9_-], 1..=64 chars)"
        )),
    );
    let ghost = format!("ghost-{i}");
    insert(
        rng,
        Op::Advance {
            tenant: ghost.clone(),
            epochs: 1,
        },
        Err(format!("unknown tenant `{ghost}`")),
    );
    // Before this script's own `Run`: a `Run` waits for every subscription
    // to its tenant, so a later one could wait on a cycle.
    if rng.gen_bool(0.6) {
        let tenant = format!("t{}", rng.gen_range(0..conns));
        let run = script
            .iter()
            .position(|(op, _)| matches!(op, Op::Run { .. }))
            .unwrap();
        script.insert(
            rng.gen_range(1..run + 1),
            (Op::Subscribe { tenant }, Ok(())),
        );
    }
    (script, tl)
}

/// The daemon's multi-tenant contracts, with no socket and no thread:
/// 2–4 [`dls_service::Core`]s routed by [`dls_service::pin`], driven by
/// 3–5 virtual connections whose scripts a seeded RNG interleaves (a
/// `Subscribe` waits for its tenant's create, a `Run` for every
/// subscription to its tenant). The shell's part is played here: each
/// response is written to the connection's sink after `apply` returns.
/// For 64 seeds:
/// - every tenant's final report equals its single-tenant `run_scenario`
///   bit for bit (`reschedule_ms` aside);
/// - each subscriber gets one `Delta` per `Advance` / `Run` of its tenant
///   after it subscribed, in epoch order, the last one `done`; a
///   connection subscribed to the tenant it drives gets the push right
///   before the `Advanced` response it belongs to;
/// - duplicate creates, invalid names and ops on unknown tenants are
///   refused with the error texts the TCP daemon sends.
#[test]
fn interleaved_virtual_connections_keep_every_contract_in_process() {
    use dls_service::{frame, pin, Core, Push, Request, Response, ServerFrame};
    use rand::{Rng, SeedableRng};
    use std::collections::{HashMap, HashSet};

    for seed in 0..64u64 {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let workers = rng.gen_range(2usize..5);
        let n = rng.gen_range(3usize..6);
        let mut cores: Vec<Core> = (0..workers).map(|_| Core::new(None, 0)).collect();
        let mut timelines = Vec::new();
        let mut conns: Vec<VirtualConn> = (0..n)
            .map(|i| {
                let (script, tl) = virtual_script(&mut rng, i, n);
                timelines.push(tl);
                let sink = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
                VirtualConn {
                    conn: sink.clone(),
                    sink,
                    script: script.into(),
                }
            })
            .collect();
        let mut replies: Vec<Vec<Result<(), String>>> = vec![Vec::new(); n];
        let mut pending_subs: HashMap<String, usize> = HashMap::new();
        for c in &conns {
            for (op, _) in &c.script {
                if let Op::Subscribe { tenant } = op {
                    *pending_subs.entry(tenant.clone()).or_default() += 1;
                }
            }
        }
        let mut created: HashSet<String> = HashSet::new();
        let mut subscribers: HashMap<String, Vec<usize>> = HashMap::new();
        // (connection, tenant) → deltas it must receive.
        let mut deltas_due: HashMap<(usize, String), usize> = HashMap::new();

        loop {
            let ready: Vec<usize> = (0..n)
                .filter(|&c| match conns[c].script.front() {
                    None => false,
                    Some((Op::Subscribe { tenant }, _)) => created.contains(tenant),
                    Some((Op::Run { tenant }, _)) => {
                        pending_subs.get(tenant).is_none_or(|&p| p == 0)
                    }
                    Some(_) => true,
                })
                .collect();
            let Some(&c) = ready.get(rng.gen_range(0..ready.len().max(1))) else {
                break;
            };
            let (op, reply) = conns[c].script.pop_front().unwrap();
            let tenant = op.tenant().unwrap().to_string();
            let ok = reply.is_ok();
            match &op {
                Op::CreateTenant { .. } if ok => {
                    created.insert(tenant.clone());
                }
                Op::Subscribe { .. } => {
                    *pending_subs.get_mut(&tenant).unwrap() -= 1;
                    subscribers.entry(tenant.clone()).or_default().push(c);
                }
                Op::Advance { .. } | Op::Run { .. } if ok => {
                    for &s in subscribers.get(&tenant).into_iter().flatten() {
                        *deltas_due.entry((s, tenant.clone())).or_default() += 1;
                    }
                }
                _ => {}
            }
            replies[c].push(reply);
            let req = Request {
                id: replies[c].len() as u64,
                op,
            };
            let resp = cores[pin(&tenant, workers)].apply(&conns[c].conn, req);
            let mut sink = conns[c].conn.lock().unwrap();
            sink.write_all(frame(&resp).as_bytes()).unwrap();
        }
        assert!(
            conns.iter().all(|c| c.script.is_empty()),
            "seed {seed}: every script ran to its end"
        );

        for (c, conn) in conns.iter().enumerate() {
            let own = format!("t{c}");
            let bytes = std::mem::take(&mut *conn.sink.lock().unwrap());
            let mut expected = replies[c].iter();
            let mut deltas: HashMap<String, Vec<(usize, bool)>> = HashMap::new();
            let (mut self_subscribed, mut last_push) = (false, None);
            let mut report = None;
            for line in String::from_utf8(bytes).unwrap().lines() {
                let resp: Response = match serde_json::from_str(line).unwrap() {
                    ServerFrame::Push(p) => {
                        if let Push::Delta {
                            tenant,
                            epoch,
                            done,
                            ..
                        } = p.push
                        {
                            deltas
                                .entry(tenant.clone())
                                .or_default()
                                .push((epoch, done));
                            last_push = Some((tenant, epoch, done));
                        }
                        continue;
                    }
                    ServerFrame::Response(r) => r,
                };
                let pushed = last_push.take();
                match expected.next().expect("no response without a request") {
                    Ok(()) => assert!(resp.ok, "seed {seed} conn {c}: {:?}", resp.error),
                    Err(text) => assert_eq!(resp.error.as_ref(), Some(text), "seed {seed}"),
                }
                match resp.body {
                    Some(RespBody::Subscribed { tenant }) => self_subscribed |= tenant == own,
                    Some(RespBody::Advanced {
                        tenant,
                        epoch,
                        done,
                    }) if self_subscribed => {
                        assert_eq!(pushed, Some((tenant, epoch, done)), "seed {seed} conn {c}");
                    }
                    Some(RespBody::Report { report: r, .. }) => report = Some(r),
                    _ => {}
                }
            }
            assert!(
                expected.next().is_none(),
                "seed {seed} conn {c}: a reply per op"
            );

            for ((s, tenant), &due) in &deltas_due {
                if *s != c {
                    continue;
                }
                let seen = deltas.remove(tenant).unwrap_or_default();
                assert_eq!(seen.len(), due, "seed {seed} conn {c} on {tenant}");
                for w in seen.windows(2) {
                    let ((e0, _), (e1, d1)) = (w[0], w[1]);
                    assert!(e1 > e0 || (e1 == e0 && d1), "seed {seed}: {seen:?}");
                }
                assert!(
                    seen.last().unwrap().1,
                    "seed {seed}: the last delta is done"
                );
            }
            assert!(
                deltas.is_empty(),
                "seed {seed} conn {c}: no push it did not ask for"
            );

            let tl = &timelines[c];
            let reference = expected_report(&own, &tl.spec, &tl.jobs, &tl.events);
            assert_eq!(
                canonical_report_json(&report.expect("the script ends in a query")),
                canonical_report_json(&reference),
                "seed {seed}: {own} diverged from its single-tenant run"
            );
        }
    }
}

/// One end of the memo soundness test: a raw socket (the daemon's frame
/// bytes as sent) or a [`dls_service::Client`] (its decode memo on top).
enum MemoConn {
    Raw {
        reader: std::io::BufReader<std::net::TcpStream>,
        writer: std::net::TcpStream,
        next_id: u64,
    },
    Client(dls_service::Client),
}

impl MemoConn {
    /// Sends `op` and returns its response frame (push frames skipped):
    /// the bytes the daemon sent, or the client's answer encoded again.
    fn request(&mut self, op: Op) -> String {
        use std::io::{BufRead, Write};
        match self {
            MemoConn::Raw {
                reader,
                writer,
                next_id,
            } => {
                *next_id += 1;
                let req = dls_service::Request { id: *next_id, op };
                writer
                    .write_all(dls_service::frame(&req).as_bytes())
                    .expect("request sent");
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("a frame arrives");
                    if !line.starts_with("{\"push\":") {
                        return line;
                    }
                }
            }
            MemoConn::Client(c) => dls_service::frame(&c.request(op).expect("request completes")),
        }
    }
}

/// A response frame's bytes after its leading `{"id":N`.
fn after_id(frame: &str) -> &str {
    let rest = frame.strip_prefix("{\"id\":").expect("a response frame");
    &rest[rest.find(',').expect("more than an id")..]
}

/// One tenant's ops, in order, each with whether the daemon accepts it.
fn memo_script(name: &str, spec: &TenantSpec) -> Vec<(Op, bool)> {
    let tenant = || name.to_string();
    let jobs = |arrivals: &[f64]| -> Vec<JobSpec> {
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &arrival)| JobSpec {
                arrival,
                origin: (i % spec.clusters) as u32,
                size: 70.0 + 15.0 * i as f64,
                weight: 1.0,
            })
            .collect()
    };
    vec![
        (
            Op::CreateTenant {
                tenant: tenant(),
                spec: spec.clone(),
            },
            true,
        ),
        (
            Op::Submit {
                tenant: tenant(),
                jobs: jobs(&[0.0, 3.5, 12.0]),
            },
            true,
        ),
        (Op::Subscribe { tenant: tenant() }, true),
        (
            Op::Advance {
                tenant: tenant(),
                epochs: 2,
            },
            true,
        ),
        // Past-dated: refused.
        (
            Op::Submit {
                tenant: tenant(),
                jobs: jobs(&[0.5]),
            },
            false,
        ),
        (
            Op::Fault {
                tenant: tenant(),
                event: PlatformEvent {
                    time: 33.0,
                    change: PlatformChange::SetSpeed {
                        cluster: 1,
                        speed: 45.0,
                    },
                },
            },
            true,
        ),
        (Op::Checkpoint { tenant: tenant() }, true),
        (
            Op::Advance {
                tenant: tenant(),
                epochs: 1,
            },
            true,
        ),
        (
            Op::Submit {
                tenant: tenant(),
                jobs: jobs(&[41.0, 47.5]),
            },
            true,
        ),
        (
            Op::CreateTenant {
                tenant: tenant(),
                spec: spec.clone(),
            },
            false,
        ),
        (
            Op::Advance {
                tenant: tenant(),
                epochs: 2,
            },
            true,
        ),
        (Op::Checkpoint { tenant: tenant() }, true),
        (Op::Run { tenant: tenant() }, true),
        (
            Op::Advance {
                tenant: tenant(),
                epochs: 1,
            },
            true,
        ),
    ]
}

/// The daemon's frame memo and the client's decode memo never answer
/// stale. Two connections to a daemon with a checkpoint directory, one a
/// raw socket and one a `Client`, interleave every tenant op of two tenants
/// (failed ones included) with bursts of repeated `Query`s, so that a
/// connection re-reads a tenant another connection has just moved. Every
/// `Query` frame equals, byte for byte after the id, a fresh encode of an
/// in-process twin [`dls_service::Tenant`] that ran the same ops (its
/// wall-clock `reschedule_ms` set to the daemon's); and until an op on the
/// tenant, every later `Query` frame of it repeats the same bytes.
#[test]
fn repeated_queries_answer_what_a_fresh_encode_of_the_tenant_answers() {
    use dls_service::{frame, Response, Tenant};
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    let specs = [
        TenantSpec {
            clusters: 4,
            seed: 11,
            policy: "periodic".into(),
            record_events: true,
            ..TenantSpec::default()
        },
        TenantSpec {
            clusters: 5,
            seed: 12,
            engine: "full".into(),
            ..TenantSpec::default()
        },
    ];
    for seed in 0..12u64 {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let root = std::env::temp_dir().join(format!("dls-memo-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (daemon_dir, twin_dir) = (root.join("daemon"), root.join("twin"));
        let harness = ServiceHarness::start_with(2, Some(daemon_dir), 0);
        let stream = std::net::TcpStream::connect(harness.addr()).expect("raw socket connects");
        let mut conns = [
            MemoConn::Raw {
                reader: std::io::BufReader::new(stream.try_clone().expect("clone")),
                writer: stream,
                next_id: 0,
            },
            MemoConn::Client(harness.client()),
        ];
        let names = ["m0", "m1"];
        let mut scripts: Vec<std::collections::VecDeque<(Op, bool)>> = names
            .iter()
            .zip(&specs)
            .map(|(name, spec)| memo_script(name, spec).into())
            .collect();
        let mut twins: HashMap<&str, Tenant> = HashMap::new();
        // The tail of the last `Query` frame of each tenant since its last op.
        let mut last: HashMap<&str, String> = HashMap::new();
        let sink: dls_service::ConnHandle = Arc::new(Mutex::new(Vec::<u8>::new()));
        let mut queries = 0;

        while scripts.iter().any(|s| !s.is_empty()) {
            let t = rng.gen_range(0..names.len());
            let Some((op, ok)) = scripts[t].pop_front() else {
                continue;
            };
            let name = names[t];
            let c = rng.gen_range(0..conns.len());
            let shown = format!("seed {seed}: {op:?} on conn {c}");
            let resp: Response =
                serde_json::from_str(&conns[c].request(op.clone())).expect("a response frame");
            assert_eq!(resp.ok, ok, "{shown}: {:?}", resp.error);
            last.remove(name);
            match op {
                Op::CreateTenant { spec, .. } if ok => {
                    twins.insert(name, Tenant::new(name, spec).expect("twin builds"));
                }
                Op::Submit { jobs, .. } => {
                    assert_eq!(twins.get_mut(name).unwrap().submit(&jobs).is_ok(), ok);
                }
                Op::Fault { event, .. } => twins.get_mut(name).unwrap().fault(event).unwrap(),
                Op::Advance { epochs, .. } => {
                    twins.get_mut(name).unwrap().advance(epochs).unwrap();
                }
                Op::Run { .. } => {
                    twins.get_mut(name).unwrap().run_to_end().unwrap();
                }
                Op::Checkpoint { .. } => {
                    twins.get_mut(name).unwrap().checkpoint(&twin_dir).unwrap();
                }
                Op::Subscribe { .. } => twins.get_mut(name).unwrap().subscribe(sink.clone()),
                _ => {}
            }

            // A burst of re-reads: 0–3 runs of 1–3 queries, each run on
            // one connection and one created tenant.
            for _ in 0..rng.gen_range(0..4) {
                let c = rng.gen_range(0..conns.len());
                let name = names[rng.gen_range(0..names.len())];
                if !twins.contains_key(name) {
                    continue;
                }
                for _ in 0..rng.gen_range(1..4) {
                    let text = conns[c].request(Op::Query {
                        tenant: name.to_string(),
                    });
                    queries += 1;
                    let shown = format!("seed {seed}: query {queries} of {name} on conn {c}");
                    let got: Response = serde_json::from_str(&text).expect("a response frame");
                    let Some(RespBody::Report { report, .. }) = got.body else {
                        panic!("{shown}: {:?}", got.error);
                    };
                    let mut twin = twins.get_mut(name).unwrap().query();
                    twin.reschedule_ms = report.reschedule_ms;
                    let fresh = frame(&Response::ok(
                        got.id,
                        RespBody::Report {
                            tenant: name.to_string(),
                            report: Box::new(twin),
                        },
                    ));
                    assert_eq!(after_id(&text), after_id(&fresh), "{shown}");
                    if let Some(prev) = last.get(name) {
                        assert_eq!(after_id(&text), prev, "{shown}: a re-read moved");
                    }
                    last.insert(name, after_id(&text).to_string());
                }
            }
        }
        assert!(queries > 20, "seed {seed}: only {queries} queries");
        harness.stop().expect("daemon drains cleanly");
        let _ = std::fs::remove_dir_all(&root);
    }
}
