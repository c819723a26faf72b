//! The two daemon workloads: an in-process `dls_service::Server` with two
//! workers, driven closed-loop over TCP by two client connections (each
//! tenant's control loop waits for every reply before sending the next
//! request). `serve_small` is the write path — tiny LPs and tiny frames, so
//! wire, parse, queue hop and thread wake-up dominate; `serve_report` is the
//! read path — 30 KB reports, so serialise/parse dominates.

use crate::harness::{manifest_dir, Checks, Expected, Workload};
use crate::inputs::{paper_shape_instance, unit_seed};
use crate::metrics::{median, Values};
use crate::online::canonical;
use crate::trace::{durations_ms, ms_since, Tracer, PROBE_OP};
use dls_scenario::{
    run_scenario, JobSpec, PeriodicResolve, Resolver, Scenario, ScenarioConfig, ScenarioReport,
};
use dls_service::{
    frame, Client, Op, Request, RespBody, Response, Server, ServiceConfig, Tenant, TenantSpec,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections (= load-generating threads) and daemon workers: the
/// reference box has two cores.
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// Control-period length of every tenant.
const PERIOD: f64 = 10.0;
/// `serve_small`: rounds of (submit a batch, advance one epoch) per tenant.
const BATCHES: usize = 6;
const JOBS_PER_BATCH: usize = 2;
/// `serve_report`: jobs submitted up front, and queries per advanced epoch.
const REPORT_JOBS: usize = 150;
const QUERIES_PER_EPOCH: usize = 4;
/// Tenants per connection whose final report is compared bit for bit with an
/// in-process run of the same timeline.
const CHECKED_PER_CONNECTION: usize = 3;
/// Tenants the in-process replay of the probe covers.
const REPLAY_TENANTS: usize = 4;
/// `Hello` round trips behind `service.rtt_floor_us`.
const RTT_SAMPLES: usize = 2000;

/// A daemon running on its own thread inside this process.
struct Daemon {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn boot(checkpoint_dir: Option<PathBuf>) -> Daemon {
        let server = Server::bind(ServiceConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            checkpoint_dir,
            checkpoint_every: 0,
        })
        .expect("the daemon binds an ephemeral loopback port");
        let addr = server.local_addr().expect("a bound socket has an address");
        let shutdown = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            shutdown,
            join,
        }
    }

    /// Asks the daemon to drain and waits until its threads have ended.
    fn stop(self) -> bool {
        self.shutdown.store(true, Ordering::SeqCst);
        matches!(self.join.join(), Ok(Ok(())))
    }
}

/// What one tenant will be sent, generated from the seed in set-up.
struct TenantInput {
    spec: TenantSpec,
    /// `serve_small`: one batch per epoch; `serve_report`: a single batch.
    batches: Vec<Vec<JobSpec>>,
}

fn tenant_input(report: bool, seed: u64, unit: usize) -> TenantInput {
    let s = unit_seed(seed, unit);
    let mut rng = ChaCha8Rng::seed_from_u64(s);
    let clusters = if report { 8 } else { 5 };
    let spec = TenantSpec {
        clusters,
        seed: s,
        policy: "periodic".into(),
        period: PERIOD,
        engine: "incremental".into(),
        record_events: report,
    };
    let mut job = |lo: f64, hi: f64| JobSpec {
        arrival: rng.gen_range(lo..hi),
        origin: rng.gen_range(0..clusters as u32),
        size: rng.gen_range(40.0..120.0),
        weight: 1.0,
    };
    let batches = if report {
        // Everything is known up front, arriving over the first 12 periods.
        vec![(0..REPORT_JOBS).map(|_| job(0.5, 12.0 * PERIOD)).collect()]
    } else {
        // Batch `b` arrives inside period `b`: strictly after boundary
        // `b - 1`, the last one scanned when the client submits it.
        (0..BATCHES)
            .map(|b| {
                let start = b as f64 * PERIOD;
                (0..JOBS_PER_BATCH)
                    .map(|_| job(start + 0.5, start + PERIOD - 0.5))
                    .collect()
            })
            .collect()
    };
    TenantInput { spec, batches }
}

fn tenant_name(round: u32, unit: usize) -> String {
    format!("r{round}-u{unit}")
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("a client connects to the daemon")
}

/// One connection's side of a run.
struct ClientRun<'a> {
    client: &'a mut Client,
    tracer: Tracer,
    checks: Checks,
    lat_ms: Vec<f64>,
    /// Final reports of the tenants the verify phase re-runs in-process.
    finals: Vec<(usize, Option<ScenarioReport>)>,
}

impl<'a> ClientRun<'a> {
    fn new(client: &'a mut Client, tracer: Tracer) -> Self {
        ClientRun {
            client,
            tracer,
            checks: Checks::default(),
            lat_ms: Vec::new(),
            finals: Vec::new(),
        }
    }

    /// One timed request: the operation of the `serve_*` workloads.
    fn request(&mut self, span: &'static str, op: Op) -> Option<RespBody> {
        let (resp, ms) = self.tracer.timed(span, |_| self.client.request(op));
        self.lat_ms.push(ms);
        let body = match resp {
            Ok(Response {
                ok: true,
                body: Some(body),
                ..
            }) => Some(body),
            _ => None,
        };
        self.checks
            .check(body.is_some(), || format!("{span}: request failed"));
        body
    }
}

/// Request kinds, named as their spans are.
const CREATE: &str = "service.req_create";
const SUBMIT: &str = "service.req_submit";
const ADVANCE: &str = "service.req_advance";
const RUN: &str = "service.req_run";
const QUERY: &str = "service.req_query";
const KINDS: [&str; 5] = [CREATE, SUBMIT, ADVANCE, RUN, QUERY];

/// One tenant's whole script, sent through `send` (the wire, or the
/// in-process replay); returns the tenant's final report.
fn script(
    report: bool,
    name: &str,
    input: &TenantInput,
    send: &mut dyn FnMut(&'static str, Op) -> Option<RespBody>,
) -> Option<ScenarioReport> {
    let tenant = || name.to_string();
    let submit = |jobs: &Vec<JobSpec>| Op::Submit {
        tenant: tenant(),
        jobs: jobs.clone(),
    };
    let advance = || Op::Advance {
        tenant: tenant(),
        epochs: 1,
    };
    send(
        CREATE,
        Op::CreateTenant {
            tenant: tenant(),
            spec: input.spec.clone(),
        },
    )?;
    let mut last = None;
    if report {
        send(SUBMIT, submit(&input.batches[0]))?;
        loop {
            let advanced = send(ADVANCE, advance())?;
            for _ in 0..QUERIES_PER_EPOCH {
                last = send(QUERY, Op::Query { tenant: tenant() });
            }
            if let RespBody::Advanced { done: true, .. } = advanced {
                break;
            }
        }
    } else {
        for batch in &input.batches {
            send(SUBMIT, submit(batch))?;
            send(ADVANCE, advance())?;
        }
        send(RUN, Op::Run { tenant: tenant() })?;
        last = send(QUERY, Op::Query { tenant: tenant() });
    }
    match last {
        Some(RespBody::Report { report, .. }) => Some(*report),
        _ => None,
    }
}

/// The same timeline run alone, in-process, exactly as the daemon builds it.
fn reference_report(name: &str, input: &TenantInput) -> Option<ScenarioReport> {
    let inst = paper_shape_instance(input.spec.clusters, input.spec.seed);
    let mut policy = PeriodicResolve::new(Resolver::warm(&inst).ok()?);
    let mut scenario = Scenario {
        name: name.to_string(),
        period: input.spec.period,
        jobs: input.batches.concat(),
        platform_events: Vec::new(),
    };
    scenario.normalise();
    let cfg = ScenarioConfig {
        record_events: input.spec.record_events,
        ..ScenarioConfig::default()
    };
    run_scenario(&inst, &scenario, &mut policy, &cfg).ok()
}

/// Per-request-kind costs measured away from the wire: the tenant executing
/// the operation in-process, and the four (de)serialisations of one round
/// trip replayed on the same frames.
#[derive(Default)]
struct KindCost {
    tenant_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    frame_bytes: Vec<f64>,
    report_bytes: Vec<f64>,
}

/// What the daemon's worker does with a tenant-scoped op, on a tenant held
/// in this thread.
fn exec_in_process(slot: &mut Option<Tenant>, op: &Op) -> Result<RespBody, String> {
    if let Op::CreateTenant { tenant, spec } = op {
        *slot = Some(Tenant::new(tenant, spec.clone())?);
        return Ok(RespBody::Created {
            tenant: tenant.clone(),
        });
    }
    let t = slot.as_mut().ok_or("no tenant yet")?;
    let tenant = t.name.clone();
    let advanced = |tenant, (epoch, done)| RespBody::Advanced {
        tenant,
        epoch,
        done,
    };
    match op {
        Op::Submit { jobs, .. } => t
            .submit(jobs)
            .map(|admitted| RespBody::Accepted { tenant, admitted }),
        Op::Advance { epochs, .. } => t.advance(*epochs).map(|r| advanced(tenant, r)),
        Op::Run { .. } => t.run_to_end().map(|r| advanced(tenant, r)),
        Op::Query { .. } => Ok(RespBody::Report {
            tenant,
            report: Box::new(t.query()),
        }),
        other => Err(format!("{other:?} is not part of a tenant script")),
    }
}

/// Runs one operation on the in-process tenant and replays the wire work of
/// its round trip on the same frames.
fn replay_op(
    cost: &mut KindCost,
    t: &mut Tracer,
    slot: &mut Option<Tenant>,
    op: Op,
) -> Option<RespBody> {
    let (body, ms) = t.timed("service.tenant_exec", |_| exec_in_process(slot, &op));
    cost.tenant_us.push(ms * 1e3);
    let body = body.ok()?;
    let request = Request { id: 1, op };
    let response = Response::ok(request.id, body);

    let ((req_frame, resp_frame), ms) =
        t.timed("service.encode", |_| (frame(&request), frame(&response)));
    cost.encode_us.push(ms * 1e3);
    cost.frame_bytes
        .push((req_frame.len() + resp_frame.len()) as f64);
    if matches!(response.body, Some(RespBody::Report { .. })) {
        cost.report_bytes.push(resp_frame.len() as f64);
    }

    let (parsed, ms) = t.timed("service.decode", |_| {
        // The server parses the request; the client first looks for a `push`
        // key on the raw value, then parses the response.
        let req = serde_json::from_str::<Request>(req_frame.trim());
        let probe = serde_json::from_str_value(resp_frame.trim());
        let resp = serde_json::from_str::<Response>(resp_frame.trim());
        req.is_ok() && probe.is_ok() && resp.is_ok()
    });
    cost.decode_us.push(ms * 1e3);
    parsed.then_some(response.body).flatten()
}

/// The daemon workloads; `REPORT` selects `serve_report`.
pub struct Serve<const REPORT: bool> {
    daemon: Daemon,
    /// The load-generating connections, open for the whole run.
    clients: Vec<Client>,
    inputs: Vec<TenantInput>,
    /// Final reports of the first tenants of each connection (round 0).
    finals: BTreeMap<usize, Option<ScenarioReport>>,
    /// Untraced latencies in request order, per connection.
    base_lat_ms: Vec<Vec<f64>>,
    errors: u64,
}

impl<const REPORT: bool> Workload for Serve<REPORT> {
    const NAME: &'static str = if REPORT {
        "serve_report"
    } else {
        "serve_small"
    };
    const WHY: &'static str = if REPORT {
        "daemon read path, closed loop, 2 connections: K=8 tenants with recorded events, advance 1 \
         + 4x Query until done; 30 KB reports make it serialise/parse-bound"
    } else {
        "daemon write path, closed loop, 2 connections: K=5 tenants scripted create -> 6x(submit \
         2, advance 1) -> run -> query; LPs are trivial, so wire + parse + queue hop dominate"
    };
    const UNITS_PER_SECOND: f64 = if REPORT { 24.0 } else { 600.0 };
    const BLOCK: usize = if REPORT { 4 } else { 200 };

    fn setup(seed: u64, units: usize, _layer: &mut Values) -> Self {
        let inputs: Vec<TenantInput> = (0..units).map(|u| tenant_input(REPORT, seed, u)).collect();
        let daemon = Daemon::boot(None);
        // Warm-up on a throw-away connection: whole tenant scripts, enough of
        // them that both workers, the allocator and the loopback path are warm.
        let mut warm_client = connect(daemon.addr);
        let mut warm = ClientRun::new(&mut warm_client, Tracer::off());
        for (u, input) in inputs.iter().enumerate().take(Self::WARMUP_TENANTS) {
            black_box(script(
                REPORT,
                &format!("warm-up-{u}"),
                input,
                &mut |kind, op| warm.request(kind, op),
            ));
        }
        Serve {
            clients: (0..CONNECTIONS).map(|_| connect(daemon.addr)).collect(),
            daemon,
            inputs,
            finals: BTreeMap::new(),
            base_lat_ms: vec![Vec::new(); CONNECTIONS],
            errors: 0,
        }
    }

    fn run(
        &mut self,
        units: Range<usize>,
        round: u32,
        t: &mut Tracer,
        checks: &mut Checks,
    ) -> Vec<f64> {
        let inputs = &self.inputs;
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let tracer = t.fork(c as u32 + 1);
                    let units = units.clone();
                    scope.spawn(move || {
                        let mut run = ClientRun::new(client, tracer);
                        for u in units.filter(|u| u % CONNECTIONS == c) {
                            run.tracer.set_op(u as u64);
                            let name = tenant_name(round, u);
                            let report = script(REPORT, &name, &inputs[u], &mut |kind, op| {
                                run.request(kind, op)
                            });
                            run.checks.check(report.is_some(), || {
                                format!("tenant {name}: script did not end in a report")
                            });
                            if u / CONNECTIONS < CHECKED_PER_CONNECTION {
                                run.finals.push((u, report));
                            }
                        }
                        run
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread does not panic"))
                .collect()
        });
        let mut lat_ms = Vec::new();
        for (c, run) in runs.into_iter().enumerate() {
            self.errors += run.checks.failed;
            checks.merge(run.checks);
            t.absorb(run.tracer);
            lat_ms.extend_from_slice(&run.lat_ms);
            if round == 0 {
                self.finals.extend(run.finals);
                self.base_lat_ms[c].extend(run.lat_ms);
            }
        }
        lat_ms
    }

    fn verify(&mut self, _expected: &mut Expected, checks: &mut Checks) {
        for (&u, daemon_side) in &self.finals {
            let name = tenant_name(0, u);
            let reference = reference_report(&name, &self.inputs[u]);
            let same = match (daemon_side, &reference) {
                (Some(a), Some(b)) => canonical(a) == canonical(b) && a.completed_jobs == a.jobs,
                _ => false,
            };
            checks.check(same, || {
                format!("tenant {name}: daemon report differs from the in-process run")
            });
        }
    }

    fn probe(&mut self, t: &mut Tracer, layer: &mut Values, checks: &mut Checks) {
        let spans = t.spans();
        let req_us: BTreeMap<&str, Vec<f64>> = KINDS
            .iter()
            .map(|&kind| {
                let us = durations_ms(spans, kind)
                    .iter()
                    .map(|ms| ms * 1e3)
                    .collect();
                (kind, us)
            })
            .collect();
        layer.insert("service.req_create_us_p50", median(&req_us[CREATE]));
        layer.insert("service.req_submit_us_p50", median(&req_us[SUBMIT]));
        layer.insert("service.req_advance_us_p50", median(&req_us[ADVANCE]));
        layer.insert("service.req_run_us_p50", median(&req_us[RUN]));
        layer.insert("service.req_query_us_p50", median(&req_us[QUERY]));

        // Latency growth over the end-to-end run: p50 of each connection's
        // last decile of requests over p50 of its first decile.
        let (mut first, mut last) = (Vec::new(), Vec::new());
        for lat in &self.base_lat_ms {
            let decile = (lat.len() / 10).max(1);
            first.extend_from_slice(&lat[..decile]);
            last.extend_from_slice(&lat[lat.len() - decile..]);
        }
        layer.insert(
            "service.latency_growth",
            median(&last) / median(&first).max(f64::MIN_POSITIVE),
        );
        let live: usize = req_us[CREATE].len() * 2;
        layer.insert("service.live_tenants", live as f64);
        layer.insert("service.errors", self.errors as f64);

        t.set_op(PROBE_OP);
        let probed = t.span("serve.probe", |t| {
            // The floor of one round trip: `Hello` is answered by the
            // connection thread, with no queue hop and no tenant.
            let mut client = Client::connect(self.daemon.addr).ok()?;
            let mut rtt = Vec::with_capacity(RTT_SAMPLES);
            for _ in 0..RTT_SAMPLES {
                let t0 = Instant::now();
                client.request(Op::Hello).ok()?;
                rtt.push(ms_since(t0) * 1e3);
            }
            layer.insert("service.rtt_floor_us", median(&rtt));

            // The same scripts on an in-process `Tenant`: no TCP, no queue.
            let mut costs: BTreeMap<&str, KindCost> = BTreeMap::new();
            for (u, input) in self.inputs.iter().enumerate().take(REPLAY_TENANTS) {
                let mut slot = None;
                script(REPORT, &format!("replay-{u}"), input, &mut |kind, op| {
                    replay_op(costs.entry(kind).or_default(), t, &mut slot, op)
                })?;
            }
            let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
            let pooled = |f: fn(&KindCost) -> &Vec<f64>| -> Vec<f64> {
                costs.values().flat_map(|c| f(c).iter().copied()).collect()
            };
            layer.insert("service.encode_us", mean(&pooled(|c| &c.encode_us)));
            layer.insert("service.decode_us", mean(&pooled(|c| &c.decode_us)));
            layer.insert("service.frame_bytes", mean(&pooled(|c| &c.frame_bytes)));
            layer.insert("service.report_bytes", mean(&pooled(|c| &c.report_bytes)));
            let tenant_us = |kind: &str| costs.get(kind).map_or(0.0, |c| median(&c.tenant_us));
            layer.insert("service.tenant_create_us", tenant_us(CREATE));
            layer.insert("service.tenant_submit_us", tenant_us(SUBMIT));
            layer.insert("service.tenant_advance_us", tenant_us(ADVANCE));
            layer.insert("service.tenant_query_us", tenant_us(QUERY));

            // What the daemon adds per request, weighted by the request mix
            // of the traced run: each kind's p50 minus the tenant's own work
            // and the (de)serialisation replayed above.
            let (mut overhead, mut total, mut n) = (0.0, 0.0, 0.0);
            for (kind, cost) in &costs {
                let count = req_us[kind].len() as f64;
                let p50 = median(&req_us[kind]);
                let accounted =
                    median(&cost.tenant_us) + mean(&cost.encode_us) + mean(&cost.decode_us);
                overhead += count * (p50 - accounted);
                total += count * p50;
                n += count;
            }
            layer.insert("service.overhead_us", overhead / f64::max(n, 1.0));
            layer.insert(
                "service.overhead_share",
                overhead / total.max(f64::MIN_POSITIVE),
            );

            self.probe_push_and_checkpoint(layer)
        });
        checks.check(probed.is_some(), || {
            format!("{} probe: a replayed request failed", Self::NAME)
        });
    }

    fn teardown(self) {
        self.daemon.stop();
    }
}

impl<const REPORT: bool> Serve<REPORT> {
    /// Tenant scripts set-up runs before anything is timed: ~3000 requests
    /// of `serve_small`'s 15-request scripts, ~300 of `serve_report`'s
    /// ~70-request ones.
    const WARMUP_TENANTS: usize = if REPORT { 4 } else { 200 };

    /// A second, one-tenant daemon with a checkpoint directory: push frames a
    /// subscriber sees over one script, and the cost and size of one
    /// checkpoint.
    fn probe_push_and_checkpoint(&self, layer: &mut Values) -> Option<()> {
        let dir =
            manifest_dir()
                .join("out")
                .join(format!("ckpt-{}-{}", Self::NAME, std::process::id()));
        let daemon = Daemon::boot(Some(dir.clone()));
        let outcome = (|| {
            let mut client = Client::connect(daemon.addr).ok()?;
            let mut subscriber = Client::connect(daemon.addr).ok()?;
            let name = "probe";
            // The subscription has to exist before the script starts, so the
            // tenant is created first and its script re-creates nothing.
            client
                .expect_ok(Op::CreateTenant {
                    tenant: name.into(),
                    spec: self.inputs[0].spec.clone(),
                })
                .ok()?;
            subscriber
                .expect_ok(Op::Subscribe {
                    tenant: name.into(),
                })
                .ok()?;
            for batch in &self.inputs[0].batches {
                client
                    .expect_ok(Op::Submit {
                        tenant: name.into(),
                        jobs: batch.clone(),
                    })
                    .ok()?;
                client
                    .expect_ok(Op::Advance {
                        tenant: name.into(),
                        epochs: 1,
                    })
                    .ok()?;
            }
            client
                .expect_ok(Op::Run {
                    tenant: name.into(),
                })
                .ok()?;
            let mut pushes = 0usize;
            while subscriber
                .wait_push(Duration::from_millis(50))
                .ok()?
                .is_some()
            {
                pushes += 1;
            }
            layer.insert("service.push_frames", pushes as f64);

            let t0 = Instant::now();
            let body = client
                .expect_ok(Op::Checkpoint {
                    tenant: name.into(),
                })
                .ok()?;
            layer.insert("service.checkpoint_ms", ms_since(t0));
            if let RespBody::Checkpointed { path, .. } = body {
                let bytes = std::fs::metadata(path).ok()?.len();
                layer.insert("service.checkpoint_bytes", bytes as f64);
            }
            Some(())
        })();
        let stopped = daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
        outcome.filter(|()| stopped)
    }
}
