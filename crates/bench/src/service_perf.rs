//! Perf harness for the `dls-service` daemon: sustained submission
//! throughput and request-latency tails under concurrent tenants.
//!
//! For each tenant count the harness boots an in-process daemon twice —
//! once with every tenant on the [`SimEngine::Incremental`] live core,
//! once on the [`SimEngine::FullRecompute`] reference core — and drives
//! it with one client thread per tenant issuing the same scripted
//! session (create → interleaved submit/advance batches → run → query).
//! Every request is timed individually; the artifact records sustained
//! submissions/sec and the p99 request latency per core, plus
//! `reports_agree` (a tenant subset checked bit-for-bit against the same
//! timeline run alone, in-process) and a `recovery` section proving the
//! drain-checkpoint-restart-replay path reproduces the uninterrupted
//! run bit-for-bit. [`ServicePerfRun`] is `BENCH_service.json`.

use crate::preset_name;
use dls_experiments::Preset;
use dls_scenario::catalog::paper_shape_instance;
use dls_scenario::{
    run_scenario, JobSpec, PolicyKind, Scenario, ScenarioConfig, ScenarioReport, ScenarioSession,
};
use dls_service::{Client, Op, RespBody, Server, ServiceConfig, TenantSpec};
use dls_sim::SimEngine;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Tenant counts per preset. The flagship paper-shape run covers the
/// acceptance-criteria ladder {8, 64, 256}.
pub fn tenant_counts(preset: Preset) -> &'static [usize] {
    match preset {
        Preset::Quick => &[4, 16],
        Preset::PaperShape | Preset::Full => &[8, 64, 256],
    }
}

/// Scripted session shape: `batches` rounds of (`jobs_per_batch` jobs
/// submitted, one epoch advanced), then run-to-end.
const BATCHES: usize = 6;
const JOBS_PER_BATCH: usize = 2;
/// Clusters per tenant platform — small on purpose: the bench measures
/// the daemon's request path, not LP scale (BENCH_lp covers that).
const CLUSTERS: usize = 5;
const PERIOD: f64 = 10.0;
/// Daemon shards (tenants shard across these by name hash; at most this
/// many tenant ops run at once).
const WORKERS: usize = 4;

fn tenant_spec(engine: &str, seed: u64, t: usize) -> TenantSpec {
    TenantSpec {
        clusters: CLUSTERS,
        seed: seed.wrapping_add(t as u64),
        policy: "periodic".into(),
        period: PERIOD,
        engine: engine.into(),
        record_events: false,
    }
}

/// The deterministic per-tenant timeline. Batch `b` arrives inside
/// period `b` (strictly after boundary `b-1`, the last one scanned when
/// the client submits it), so every submission is admissible.
fn batch_jobs(t: usize, b: usize) -> Vec<JobSpec> {
    (0..JOBS_PER_BATCH)
        .map(|j| JobSpec {
            arrival: b as f64 * PERIOD + 1.0 + 3.0 * j as f64,
            origin: ((t + b + j) % CLUSTERS) as u32,
            size: 60.0 + 10.0 * ((t + 2 * b + j) % 5) as f64,
            weight: 1.0,
        })
        .collect()
}

fn all_jobs(t: usize) -> Vec<JobSpec> {
    (0..BATCHES).flat_map(|b| batch_jobs(t, b)).collect()
}

/// Runs `(spec, jobs)` alone in-process — the reference a daemon tenant
/// must match bit-for-bit (modulo wall-clock `reschedule_ms`).
fn reference_report(name: &str, spec: &TenantSpec, jobs: Vec<JobSpec>) -> ScenarioReport {
    let inst = paper_shape_instance(spec.clusters, spec.seed);
    let mut policy = PolicyKind::parse(&spec.policy)
        .expect("bench policy parses")
        .build(&inst)
        .expect("bench policy builds");
    let mut scenario = Scenario {
        name: name.to_string(),
        period: spec.period,
        jobs,
        platform_events: Vec::new(),
    };
    scenario.normalise();
    let cfg = ScenarioConfig {
        engine: match spec.engine.as_str() {
            "full" => SimEngine::FullRecompute,
            _ => SimEngine::Incremental,
        },
        record_events: spec.record_events,
        ..ScenarioConfig::default()
    };
    run_scenario(&inst, &scenario, policy.as_mut(), &cfg).expect("reference run succeeds")
}

/// The reference for a tenant whose daemon was drained (checkpointing at
/// `checkpoint_epochs` epochs) and restarted: taking a checkpoint fires
/// the live policy's checkpoint barrier, so the reference must itself
/// checkpoint at the same epoch — see
/// `dls_testkit::expected_report_with_checkpoint` for the contract.
fn checkpointed_reference_report(
    name: &str,
    spec: &TenantSpec,
    jobs: Vec<JobSpec>,
    checkpoint_epochs: usize,
) -> ScenarioReport {
    let inst = paper_shape_instance(spec.clusters, spec.seed);
    let mut policy = PolicyKind::parse(&spec.policy)
        .expect("bench policy parses")
        .build(&inst)
        .expect("bench policy builds");
    let mut scenario = Scenario {
        name: name.to_string(),
        period: spec.period,
        jobs,
        platform_events: Vec::new(),
    };
    scenario.normalise();
    let cfg = ScenarioConfig {
        engine: match spec.engine.as_str() {
            "full" => SimEngine::FullRecompute,
            _ => SimEngine::Incremental,
        },
        record_events: spec.record_events,
        ..ScenarioConfig::default()
    };
    let mut session = ScenarioSession::new(&inst, scenario, cfg);
    for _ in 0..checkpoint_epochs {
        session.step(policy.as_mut()).expect("reference steps");
    }
    let _ = session.snapshot(policy.as_mut());
    session
        .run_to_end(policy.as_mut())
        .expect("reference finishes");
    session.into_report(policy.as_mut())
}

/// `to_json` with `reschedule_ms` zeroed: the bit-identity form.
fn canonical(report: &ScenarioReport) -> String {
    let mut r = report.clone();
    r.reschedule_ms = 0.0;
    r.to_json()
}

/// Measurements for one core at one tenant count.
#[derive(Debug, Clone, Serialize)]
pub struct CoreStats {
    /// Total requests issued across all client threads.
    pub requests: usize,
    /// Jobs admitted per second, over the whole session wall-clock.
    pub subs_per_sec: f64,
    /// 99th-percentile single-request latency, milliseconds.
    pub p99_ms: f64,
    /// Mean single-request latency, milliseconds.
    pub mean_ms: f64,
    /// Wall-clock of the whole concurrent session, milliseconds.
    pub wall_ms: f64,
}

/// One tenant-count entry.
#[derive(Debug, Clone, Serialize)]
pub struct ServicePerfEntry {
    /// Concurrent tenants (= client threads).
    pub tenants: usize,
    /// Jobs each tenant submits.
    pub jobs_per_tenant: usize,
    /// How many tenants were cross-checked per core.
    pub checked_tenants: usize,
    /// Checked-tenant daemon reports matched their single-tenant
    /// in-process runs bit-for-bit (both cores).
    pub reports_agree: bool,
    /// Incremental-core stats.
    pub incremental: CoreStats,
    /// Full-recompute-core stats.
    pub full: CoreStats,
    /// Session wall-clocks, milliseconds.
    pub timing_ms: ServiceTiming,
}

/// Session wall-clocks of one [`ServicePerfEntry`], milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceTiming {
    /// Incremental core.
    pub incremental_wall: f64,
    /// Full-recompute core.
    pub full_wall: f64,
    /// Incremental over full sustained submissions/sec.
    pub speedup: f64,
}

/// The drain → restart → replay proof.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryCheck {
    /// Tenants in the recovery fleet.
    pub tenants: usize,
    /// Epochs executed before the daemon was shut down mid-run.
    pub interrupted_after_epochs: usize,
    /// Tenants restored by the second daemon life.
    pub restored: usize,
    /// Every resumed report matched the uninterrupted reference
    /// bit-for-bit.
    pub recovery_agree: bool,
}

/// One full harness run: `BENCH_service.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ServicePerfRun {
    /// Artifact schema tag.
    pub schema: &'static str,
    /// Preset the run was generated with.
    pub preset: &'static str,
    /// Base seed.
    pub seed: u64,
    /// One entry per tenant count.
    pub entries: Vec<ServicePerfEntry>,
    /// Daemon worker threads.
    pub workers: usize,
    /// Submit/advance rounds per tenant session.
    pub batches_per_tenant: usize,
    /// Jobs per submitted batch.
    pub jobs_per_batch: usize,
    /// The kill/restart replay check.
    pub recovery: RecoveryCheck,
}

/// Boots an in-process daemon, returns `(addr, shutdown, join)`.
fn boot(
    checkpoint_dir: Option<PathBuf>,
) -> (
    std::net::SocketAddr,
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<std::io::Result<()>>,
    usize,
) {
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        checkpoint_dir,
        checkpoint_every: 0,
    })
    .expect("bench daemon binds");
    let addr = server.local_addr().expect("bound address");
    let shutdown = server.shutdown_handle();
    let restored = server.restored_tenants();
    let join = std::thread::spawn(move || server.run());
    (addr, shutdown, join, restored)
}

fn timed(lat: &mut Vec<f64>, client: &mut Client, op: Op) -> RespBody {
    let t0 = Instant::now();
    let body = client.expect_ok(op).expect("bench request succeeds");
    lat.push(t0.elapsed().as_secs_f64() * 1e3);
    body
}

/// Drives one core at one tenant count; returns the stats and the
/// daemon-side reports of the first `check` tenants.
fn run_core(engine: &str, n: usize, seed: u64, check: usize) -> (CoreStats, Vec<ScenarioReport>) {
    let (addr, shutdown, join, _) = boot(None);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..n)
        .map(|t| {
            let engine = engine.to_string();
            std::thread::spawn(move || {
                let mut lat: Vec<f64> = Vec::with_capacity(2 * BATCHES + 3);
                let mut client = Client::connect(addr).expect("bench client connects");
                let name = format!("t{t}");
                timed(
                    &mut lat,
                    &mut client,
                    Op::CreateTenant {
                        tenant: name.clone(),
                        spec: tenant_spec(&engine, seed, t),
                    },
                );
                for b in 0..BATCHES {
                    timed(
                        &mut lat,
                        &mut client,
                        Op::Submit {
                            tenant: name.clone(),
                            jobs: batch_jobs(t, b),
                        },
                    );
                    timed(
                        &mut lat,
                        &mut client,
                        Op::Advance {
                            tenant: name.clone(),
                            epochs: 1,
                        },
                    );
                }
                timed(
                    &mut lat,
                    &mut client,
                    Op::Run {
                        tenant: name.clone(),
                    },
                );
                let body = timed(&mut lat, &mut client, Op::Query { tenant: name });
                let report = match body {
                    RespBody::Report { report, .. } => report,
                    other => panic!("query returned {other:?}"),
                };
                (lat, report)
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    let mut reports: Vec<ScenarioReport> = Vec::new();
    for (t, h) in handles.into_iter().enumerate() {
        let (lat, report) = h.join().expect("bench client thread joins");
        latencies.extend(lat);
        if t < check {
            reports.push(*report);
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    shutdown.store(true, Ordering::SeqCst);
    join.join()
        .expect("bench daemon thread joins")
        .expect("bench daemon drains cleanly");

    latencies.sort_by(f64::total_cmp);
    let requests = latencies.len();
    let p99_ms = latencies[((requests as f64 * 0.99) as usize).min(requests - 1)];
    let mean_ms = latencies.iter().sum::<f64>() / requests as f64;
    let submitted = n * BATCHES * JOBS_PER_BATCH;
    (
        CoreStats {
            requests,
            subs_per_sec: submitted as f64 / (wall_ms / 1e3),
            p99_ms,
            mean_ms,
            wall_ms,
        },
        reports,
    )
}

/// The drain → restart → replay proof: a small fleet is interrupted
/// mid-run by the daemon's own drain path, restored in a second daemon
/// life, run to completion, and compared bit-for-bit against the
/// uninterrupted in-process run of the same timeline.
fn run_recovery(seed: u64) -> RecoveryCheck {
    const FLEET: usize = 3;
    const INTERRUPT_AFTER: usize = 2;
    let dir = std::env::temp_dir().join(format!("dls-bench-service-recovery-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);

    // First life: create the fleet, feed every batch, advance partway.
    let (addr, shutdown, join, _) = boot(Some(dir.clone()));
    {
        let mut client = Client::connect(addr).expect("recovery client connects");
        for t in 0..FLEET {
            let name = format!("r{t}");
            client
                .expect_ok(Op::CreateTenant {
                    tenant: name.clone(),
                    spec: tenant_spec("incremental", seed ^ 0x7ec0, t),
                })
                .expect("recovery create");
            client
                .expect_ok(Op::Submit {
                    tenant: name.clone(),
                    jobs: all_jobs(t),
                })
                .expect("recovery submit");
            client
                .expect_ok(Op::Advance {
                    tenant: name,
                    epochs: INTERRUPT_AFTER,
                })
                .expect("recovery advance");
        }
    }
    shutdown.store(true, Ordering::SeqCst);
    join.join()
        .expect("recovery daemon joins")
        .expect("drain checkpoints and exits cleanly");

    // Second life: restore, run to end, compare.
    let (addr, shutdown, join, restored) = boot(Some(dir.clone()));
    let mut agree = true;
    {
        let mut client = Client::connect(addr).expect("recovery client reconnects");
        for t in 0..FLEET {
            let name = format!("r{t}");
            client
                .expect_ok(Op::Run {
                    tenant: name.clone(),
                })
                .expect("recovery run");
            let body = client
                .expect_ok(Op::Query {
                    tenant: name.clone(),
                })
                .expect("recovery query");
            let RespBody::Report { report, .. } = body else {
                panic!("recovery query returned a non-report body");
            };
            let reference = checkpointed_reference_report(
                &name,
                &tenant_spec("incremental", seed ^ 0x7ec0, t),
                all_jobs(t),
                INTERRUPT_AFTER,
            );
            let (got, want) = (canonical(&report), canonical(&reference));
            if got != want {
                let split = got
                    .bytes()
                    .zip(want.bytes())
                    .position(|(a, b)| a != b)
                    .unwrap_or(got.len().min(want.len()));
                eprintln!(
                    "service recovery: {name} diverged near byte {split}:\n  resumed:   ...{}\n  reference: ...{}",
                    &got[split.saturating_sub(60)..(split + 60).min(got.len())],
                    &want[split.saturating_sub(60)..(split + 60).min(want.len())],
                );
            }
            agree &= got == want;
        }
    }
    shutdown.store(true, Ordering::SeqCst);
    join.join()
        .expect("recovery daemon joins")
        .expect("second life exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);

    RecoveryCheck {
        tenants: FLEET,
        interrupted_after_epochs: INTERRUPT_AFTER,
        restored,
        recovery_agree: agree && restored == FLEET,
    }
}

/// Runs the harness: both cores at every tenant count, then the
/// kill/restart replay check.
pub fn run(preset: Preset, seed: u64) -> ServicePerfRun {
    let mut entries = Vec::new();
    for &n in tenant_counts(preset) {
        let check = n.min(3);
        let (incremental, inc_reports) = run_core("incremental", n, seed, check);
        let (full, full_reports) = run_core("full", n, seed, check);
        let mut agree = true;
        for (engine, reports) in [("incremental", &inc_reports), ("full", &full_reports)] {
            for (t, daemon) in reports.iter().enumerate() {
                let reference =
                    reference_report(&format!("t{t}"), &tenant_spec(engine, seed, t), all_jobs(t));
                agree &= canonical(daemon) == canonical(&reference);
            }
        }
        let timing_ms = ServiceTiming {
            incremental_wall: incremental.wall_ms,
            full_wall: full.wall_ms,
            speedup: if incremental.subs_per_sec > 0.0 {
                incremental.subs_per_sec / full.subs_per_sec.max(f64::MIN_POSITIVE)
            } else {
                0.0
            },
        };
        entries.push(ServicePerfEntry {
            tenants: n,
            jobs_per_tenant: BATCHES * JOBS_PER_BATCH,
            checked_tenants: check,
            reports_agree: agree,
            incremental,
            full,
            timing_ms,
        });
    }
    ServicePerfRun {
        schema: "dls-bench/service/v1",
        preset: preset_name(preset),
        seed,
        entries,
        workers: WORKERS,
        batches_per_tenant: BATCHES,
        jobs_per_batch: JOBS_PER_BATCH,
        recovery: run_recovery(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_preset_agrees_and_renders() {
        let run = run(Preset::Quick, 11);
        assert_eq!(run.entries.len(), tenant_counts(Preset::Quick).len());
        for e in &run.entries {
            assert!(
                e.reports_agree,
                "daemon tenants diverged from their in-process references at N = {}",
                e.tenants
            );
            assert!(e.incremental.subs_per_sec > 0.0);
            assert!(e.full.p99_ms >= 0.0);
            assert_eq!(
                e.incremental.requests,
                e.tenants * (2 * BATCHES + 3),
                "request count bookkeeping"
            );
        }
        assert!(run.recovery.recovery_agree, "kill/restart replay diverged");
        assert_eq!(run.recovery.restored, run.recovery.tenants);
        crate::tests::assert_same_artifact(&run, &super::run(Preset::Quick, 11));
    }
}
