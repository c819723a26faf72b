//! In-process harness for the `dls-service` daemon.
//!
//! Spins a [`Server`] on an ephemeral port inside the test process,
//! hands out [`Client`] connections, and shuts the daemon down (with
//! its full drain-and-checkpoint path) on [`ServiceHarness::stop`].
//! Also builds the single-tenant *reference* run — the same spec and
//! timeline executed through plain [`run_scenario`] — so isolation
//! tests can assert a tenant's daemon-side report is bit-identical to
//! what it would have produced alone in-process.

use dls_core::ProblemInstance;
use dls_scenario::catalog::paper_shape_instance;
use dls_scenario::{
    run_scenario, JobSpec, PlatformEvent, PolicyKind, ReschedulePolicy, Scenario, ScenarioConfig,
    ScenarioReport, ScenarioSession,
};
use dls_service::{Client, Server, ServiceConfig, TenantSpec};
use dls_sim::SimEngine;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running in-process daemon plus the knobs tests need.
pub struct ServiceHarness {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
    restored: usize,
}

impl ServiceHarness {
    /// Binds and runs a daemon on `127.0.0.1:0` with `workers` tenant
    /// shards (at most that many tenant ops run at once) and no
    /// checkpointing.
    pub fn start(workers: usize) -> ServiceHarness {
        Self::start_with(workers, None, 0)
    }

    /// Binds and runs a daemon with a checkpoint directory and periodic
    /// checkpoint interval (`0` = only on drain/explicit request).
    pub fn start_with(
        workers: usize,
        checkpoint_dir: Option<PathBuf>,
        checkpoint_every: usize,
    ) -> ServiceHarness {
        let server = Server::bind(ServiceConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            checkpoint_dir,
            checkpoint_every,
        })
        .expect("harness daemon binds an ephemeral port");
        let addr = server.local_addr().expect("bound socket has an address");
        let shutdown = server.shutdown_handle();
        let restored = server.restored_tenants();
        let handle = std::thread::Builder::new()
            .name("dls-service-harness".into())
            .spawn(move || server.run())
            .expect("harness daemon thread spawns");
        ServiceHarness {
            addr,
            shutdown,
            handle: Some(handle),
            restored,
        }
    }

    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Tenants restored from the checkpoint directory at startup.
    pub fn restored_tenants(&self) -> usize {
        self.restored
    }

    /// Opens a fresh client connection.
    pub fn client(&self) -> Client {
        Client::connect(self.addr).expect("harness client connects")
    }

    /// Requests shutdown and joins the daemon thread, propagating its
    /// exit result (the drain path checkpoints every tenant first when a
    /// checkpoint directory is configured).
    pub fn stop(mut self) -> std::io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.handle.take() {
            Some(h) => h.join().expect("harness daemon thread joins"),
            None => Ok(()),
        }
    }
}

impl Drop for ServiceHarness {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// What a reference run of tenant `name` starts from, built exactly as the
/// daemon builds it: the paper-shape platform from `(clusters, seed)`, the
/// spec's policy, the timeline sorted by time, and the spec's engine.
fn reference_setup(
    name: &str,
    spec: &TenantSpec,
    jobs: &[JobSpec],
    events: &[PlatformEvent],
) -> (
    ProblemInstance,
    Box<dyn ReschedulePolicy + Send>,
    Scenario,
    ScenarioConfig,
) {
    let inst = paper_shape_instance(spec.clusters, spec.seed);
    let kind = PolicyKind::parse(&spec.policy).expect("reference spec has a known policy");
    let policy = kind.build(&inst).expect("reference policy builds");
    let engine = match spec.engine.as_str() {
        "incremental" => SimEngine::Incremental,
        "full" => SimEngine::FullRecompute,
        other => panic!("reference spec has unknown engine `{other}`"),
    };
    let mut jobs = jobs.to_vec();
    jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
    let mut events = events.to_vec();
    events.sort_by(|a, b| a.time.total_cmp(&b.time));
    let scenario = Scenario {
        name: name.to_string(),
        period: spec.period,
        jobs,
        platform_events: events,
    };
    let cfg = ScenarioConfig {
        engine,
        record_events: spec.record_events,
        ..ScenarioConfig::default()
    };
    (inst, policy, scenario, cfg)
}

/// Runs the `(spec, jobs, events)` timeline alone, in-process, exactly
/// as the daemon builds it for tenant `name` (see `reference_setup`). The
/// returned report is the bit-for-bit reference for what the daemon
/// must produce for that tenant regardless of its neighbours
/// (`reschedule_ms` excepted — wall-clock is not part of the contract).
pub fn expected_report(
    name: &str,
    spec: &TenantSpec,
    jobs: &[JobSpec],
    events: &[PlatformEvent],
) -> ScenarioReport {
    let (inst, mut policy, scenario, cfg) = reference_setup(name, spec, jobs, events);
    run_scenario(&inst, &scenario, policy.as_mut(), &cfg).expect("reference run succeeds")
}

/// The bit-for-bit reference for a tenant whose daemon was drained (and
/// checkpointed) after `checkpoint_epochs` epochs, then restarted and run
/// to completion. Taking a checkpoint fires the live policy's
/// [`dls_scenario::ReschedulePolicy::checkpoint_barrier`], which for warm
/// LP contexts realigns the factorisation with what a restore rebuilds —
/// so the reference must itself checkpoint at the same epoch, not merely
/// run the merged timeline straight through ([`expected_report`]).
pub fn expected_report_with_checkpoint(
    name: &str,
    spec: &TenantSpec,
    jobs: &[JobSpec],
    events: &[PlatformEvent],
    checkpoint_epochs: usize,
) -> ScenarioReport {
    let (inst, mut policy, scenario, cfg) = reference_setup(name, spec, jobs, events);
    let mut session = ScenarioSession::new(&inst, scenario, cfg);
    for _ in 0..checkpoint_epochs {
        session
            .step(policy.as_mut())
            .expect("reference session steps");
    }
    let _ = session.snapshot(policy.as_mut());
    session
        .run_to_end(policy.as_mut())
        .expect("reference session finishes");
    session.into_report(policy.as_mut())
}

/// Serialises a report with `reschedule_ms` zeroed — the canonical
/// bit-identity comparison form (wall-clock timing is measurement, not
/// schedule state).
pub fn canonical_report_json(report: &ScenarioReport) -> String {
    let mut r = report.clone();
    r.reschedule_ms = 0.0;
    r.to_json()
}
