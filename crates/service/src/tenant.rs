//! The daemon's tenant logic, with no sockets and no threads.
//!
//! A [`Tenant`] is a [`ScenarioSession`] plus its policy, subscribers and
//! checkpoint bookkeeping. A [`Core`] owns one shard's tenants and
//! executes every tenant-scoped op against them: name and duplicate
//! checks, the unknown-tenant answer, the op itself and the periodic
//! checkpoint. A tenant lives in exactly one core for its whole life
//! (the shell in [`crate::server`] routes by [`crate::server::pin`] and
//! holds the shard's lock around [`Core::apply`]), so nothing in here needs
//! interior synchronisation — the `Send` bound is all the daemon asks for.
//! A panicking op poisons its tenant and nothing else. Subscribers are
//! plain writers, so tests drive cores in process with in-memory sinks.

use crate::proto::{frame, Op, Push, PushFrame, Request, RespBody, Response, TenantSpec};
use dls_scenario::catalog::paper_shape_instance;
use dls_scenario::{
    JobSpec, PlatformEvent, PolicyKind, ReschedulePolicy, Scenario, ScenarioConfig, ScenarioReport,
    ScenarioSession, ScenarioSnapshot,
};
use dls_sim::SimEngine;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where a connection's frames go (the daemon's is a socket's write half):
/// responses and push frames from any connection thread serialise through
/// the mutex.
pub type ConnHandle = Arc<Mutex<dyn Write + Send>>;

/// Wire version of the tenant checkpoint file.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The on-disk tenant checkpoint: everything needed to rebuild the
/// session in a fresh process. The scenario (the tenant's merged
/// timeline — it grows past what the tenant was created with) and the
/// engine snapshot are embedded in their own bit-exact JSON forms.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointFile {
    pub schema_version: u32,
    pub tenant: String,
    pub spec: TenantSpec,
    pub scenario_json: String,
    pub snapshot_json: String,
    pub done: bool,
}

/// `Ok(kind, engine, cfg)` when the spec is well-formed.
fn parse_spec(spec: &TenantSpec) -> Result<(PolicyKind, ScenarioConfig), String> {
    if !(1..=512).contains(&spec.clusters) {
        return Err(format!(
            "clusters must be in 1..=512, got {}",
            spec.clusters
        ));
    }
    if !(spec.period.is_finite() && spec.period > 0.0) {
        return Err(format!("period must be positive, got {}", spec.period));
    }
    let kind = PolicyKind::parse(&spec.policy)
        .ok_or_else(|| format!("unknown policy `{}`", spec.policy))?;
    let engine = match spec.engine.as_str() {
        "incremental" => SimEngine::Incremental,
        "full" => SimEngine::FullRecompute,
        other => return Err(format!("unknown engine `{other}` (incremental|full)")),
    };
    Ok((
        kind,
        ScenarioConfig {
            engine,
            record_events: spec.record_events,
            ..ScenarioConfig::default()
        },
    ))
}

/// `true` iff `name` is a safe tenant identifier (also used as the
/// checkpoint file stem): `[A-Za-z0-9_-]`, 1..=64 chars.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Where [`Tenant::revision`] stamps come from: a stamp is never handed
/// out twice in the process, so it names one tenant at one state.
static NEXT_REVISION: AtomicU64 = AtomicU64::new(0);

fn next_revision() -> u64 {
    // `fetch_add` hands out distinct values under any ordering, and a stamp
    // publishes nothing: it is read and moved under its shard's lock.
    NEXT_REVISION.fetch_add(1, Ordering::Relaxed)
}

/// One tenant's live scheduling session. Once the session is done its
/// policy rests packed ([`ReschedulePolicy::pack`]): an op that leaves it
/// done (`advance`, `run_to_end`, `restore`) packs it before returning, and
/// its next solve unpacks it.
pub struct Tenant {
    pub name: String,
    pub spec: TenantSpec,
    /// Moved by every op that may change what `Query` answers (see
    /// [`Core::revision`]).
    revision: u64,
    session: ScenarioSession,
    policy: Box<dyn ReschedulePolicy + Send>,
    subscribers: Vec<ConnHandle>,
    /// Fault/recovery records already streamed to subscribers.
    published_faults: usize,
    published_recoveries: usize,
    /// Epochs executed since the last checkpoint (for periodic persist).
    pub epochs_since_checkpoint: usize,
}

impl Tenant {
    /// Builds a fresh tenant: paper-shape platform from
    /// `(spec.clusters, spec.seed)`, an empty timeline (everything
    /// arrives through submissions), and the spec's policy.
    pub fn new(name: &str, spec: TenantSpec) -> Result<Tenant, String> {
        let (kind, cfg) = parse_spec(&spec)?;
        let inst = paper_shape_instance(spec.clusters, spec.seed);
        let policy = kind.build(&inst).map_err(|e| e.to_string())?;
        let scenario = Scenario {
            name: name.to_string(),
            period: spec.period,
            jobs: Vec::new(),
            platform_events: Vec::new(),
        };
        let session = ScenarioSession::new(&inst, scenario, cfg);
        Ok(Tenant {
            name: name.to_string(),
            spec,
            revision: next_revision(),
            session,
            policy,
            subscribers: Vec::new(),
            published_faults: 0,
            published_recoveries: 0,
            epochs_since_checkpoint: 0,
        })
    }

    /// Rebuilds a tenant from a checkpoint file. The remainder of its
    /// timeline replays bit-identically to the uninterrupted session.
    pub fn restore(file: &CheckpointFile) -> Result<Tenant, String> {
        if file.schema_version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint schema version {} is not supported (this build reads {})",
                file.schema_version, CHECKPOINT_VERSION
            ));
        }
        let (kind, cfg) = parse_spec(&file.spec)?;
        let inst = paper_shape_instance(file.spec.clusters, file.spec.seed);
        let mut policy = kind.build(&inst).map_err(|e| e.to_string())?;
        let scenario =
            Scenario::from_json(&file.scenario_json, &inst.platform).map_err(|e| e.to_string())?;
        let snapshot =
            ScenarioSnapshot::from_json(&file.snapshot_json).map_err(|e| e.to_string())?;
        let mut session =
            ScenarioSession::restore(&inst, scenario, cfg, &snapshot, policy.as_mut())
                .map_err(|e| e.to_string())?;
        if file.done {
            // Re-settle the done flag: re-executing the terminating
            // boundary is state-idempotent.
            session.step(policy.as_mut()).map_err(|e| e.to_string())?;
            policy.pack();
        }
        Ok(Tenant {
            name: file.tenant.clone(),
            spec: file.spec.clone(),
            revision: next_revision(),
            session,
            policy,
            subscribers: Vec::new(),
            published_faults: 0,
            published_recoveries: 0,
            epochs_since_checkpoint: 0,
        })
    }

    /// Admits jobs into the open timeline (they take effect together at
    /// the next executed boundary — admissions batch per control period).
    pub fn submit(&mut self, jobs: &[JobSpec]) -> Result<usize, String> {
        self.session.push_jobs(jobs).map_err(|e| e.to_string())?;
        Ok(jobs.len())
    }

    /// Admits a platform event (fault notification, capacity drift).
    pub fn fault(&mut self, event: PlatformEvent) -> Result<(), String> {
        self.session
            .push_platform_event(event)
            .map_err(|e| e.to_string())
    }

    /// Executes up to `epochs` control periods (stops early when the run
    /// completes), then publishes one delta to subscribers. Returns the
    /// next epoch and whether the run is done.
    pub fn advance(&mut self, epochs: usize) -> Result<(usize, bool), String> {
        let mut done = self.session.is_done();
        for _ in 0..epochs {
            done = self
                .session
                .step(self.policy.as_mut())
                .map_err(|e| e.to_string())?;
            self.epochs_since_checkpoint += 1;
            if done {
                break;
            }
        }
        if done {
            self.policy.pack();
        }
        self.publish();
        Ok((self.session.epoch(), done))
    }

    /// Runs the session until every admitted job is terminal.
    pub fn run_to_end(&mut self) -> Result<(usize, bool), String> {
        while !self.session.is_done() {
            self.session
                .step(self.policy.as_mut())
                .map_err(|e| e.to_string())?;
            self.epochs_since_checkpoint += 1;
        }
        self.policy.pack();
        self.publish();
        Ok((self.session.epoch(), true))
    }

    /// The tenant's current report (interim if the run is still open).
    pub fn query(&mut self) -> ScenarioReport {
        self.session.report(self.policy.as_mut())
    }

    pub fn is_done(&self) -> bool {
        self.session.is_done()
    }

    /// Registers a connection for push frames.
    pub fn subscribe(&mut self, conn: ConnHandle) {
        self.subscribers.push(conn);
    }

    /// Streams the report delta plus any new fault/recovery records to
    /// every subscriber; a subscriber whose write fails is dropped. Reads
    /// the session's counters and records, not a whole report.
    fn publish(&mut self) {
        if self.subscribers.is_empty() {
            return;
        }
        let mut frames: Vec<String> = Vec::new();
        let faults = self.session.faults();
        for f in &faults[self.published_faults.min(faults.len())..] {
            frames.push(frame(&PushFrame {
                push: Push::Fault {
                    tenant: self.name.clone(),
                    record: serde_json::to_string(f).unwrap_or_default(),
                },
            }));
        }
        self.published_faults = faults.len();
        let recs = self.session.recoveries(self.policy.as_mut());
        for r in &recs[self.published_recoveries.min(recs.len())..] {
            frames.push(frame(&PushFrame {
                push: Push::Recovery {
                    tenant: self.name.clone(),
                    record: serde_json::to_string(r).unwrap_or_default(),
                },
            }));
        }
        self.published_recoveries = recs.len();
        frames.push(frame(&PushFrame {
            push: Push::Delta {
                tenant: self.name.clone(),
                epoch: self.session.epoch(),
                done: self.session.is_done(),
                completed_jobs: self.session.completed_jobs(),
                completed_work: self.session.completed_work(),
                reschedules: self.session.reschedules(),
                sim_events: self.session.sim_events(),
            },
        }));
        self.subscribers.retain(|conn| {
            let Ok(mut sink) = conn.lock() else {
                return false;
            };
            frames.iter().all(|f| sink.write_all(f.as_bytes()).is_ok())
        });
    }

    /// Atomically writes the tenant's checkpoint into `dir` and resets
    /// the periodic-checkpoint counter.
    pub fn checkpoint(&mut self, dir: &Path) -> Result<PathBuf, String> {
        let file = CheckpointFile {
            schema_version: CHECKPOINT_VERSION,
            tenant: self.name.clone(),
            spec: self.spec.clone(),
            scenario_json: self.session.scenario().to_json(),
            snapshot_json: self.session.snapshot(self.policy.as_mut()).to_json(),
            done: self.session.is_done(),
        };
        let path = dir.join(format!("{}.ckpt.json", self.name));
        let tmp = dir.join(format!("{}.ckpt.json.tmp", self.name));
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let bytes = serde_json::to_string(&file).map_err(|e| e.to_string())?;
        std::fs::write(&tmp, bytes).map_err(|e| e.to_string())?;
        std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
        self.epochs_since_checkpoint = 0;
        Ok(path)
    }
}

/// One shard's tenants, and everything the daemon does with a
/// tenant-scoped op. Performs no socket I/O of its own: the only bytes it
/// writes are push frames, into the subscribers' [`ConnHandle`]s, before
/// [`Core::apply`] returns the response.
pub struct Core {
    /// Boxed: a tenant is ≈ 2 KB inline, and a map slot holding one would
    /// be copied on every growth and left half empty after it.
    tenants: HashMap<String, Box<Tenant>>,
    /// Tenants an op panicked on: refused from then on, never listed or
    /// checkpointed again.
    poisoned: HashSet<String>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
}

impl Core {
    /// An empty core. With `checkpoint_dir` set, `Checkpoint` ops write
    /// there and, when `checkpoint_every > 0`, so does every `Advance` /
    /// `Run` that brings a tenant to that many epochs since its last one.
    pub fn new(checkpoint_dir: Option<PathBuf>, checkpoint_every: usize) -> Core {
        Core {
            tenants: HashMap::new(),
            poisoned: HashSet::new(),
            checkpoint_dir,
            checkpoint_every,
        }
    }

    /// Takes ownership of a tenant restored from a checkpoint.
    pub fn adopt(&mut self, tenant: Tenant) {
        self.tenants.insert(tenant.name.clone(), Box::new(tenant));
    }

    /// The names of the tenants this core owns, in no particular order.
    pub fn names(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }

    /// The tenant's revision stamp, `None` if this core has no such tenant.
    /// Every op on a tenant except `Query` and `Subscribe` moves it, refused
    /// ops included (a panicking op drops the tenant), and no two tenants
    /// ever share one; so while it stands still, `Query` answers the same
    /// report.
    pub fn revision(&self, tenant: &str) -> Option<u64> {
        self.tenants.get(tenant).map(|t| t.revision)
    }

    /// Executes one request for the connection `conn` (a `Subscribe`
    /// registers it for push frames) and returns the response to send.
    /// An op that panics is answered with an error naming its tenant, and
    /// poisons that tenant: it is dropped (its checkpoint file stays as it
    /// was) and every later op on its name is refused.
    pub fn apply(&mut self, conn: &ConnHandle, req: Request) -> Response {
        let tenant = req.op.tenant().unwrap_or_default().to_string();
        match catch_unwind(AssertUnwindSafe(|| self.execute(conn, req.op))) {
            Ok(Ok(body)) => Response::ok(req.id, body),
            Ok(Err(e)) => Response::err(req.id, e),
            Err(panic) => {
                let what = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                self.tenants.remove(&tenant);
                let error = format!("tenant `{tenant}` panicked and is poisoned: {what}");
                self.poisoned.insert(tenant);
                Response::err(req.id, error)
            }
        }
    }

    fn execute(&mut self, conn: &ConnHandle, op: Op) -> Result<RespBody, String> {
        if let Some(tenant) = op.tenant().filter(|t| self.poisoned.contains(*t)) {
            return Err(format!("tenant `{tenant}` is poisoned by an earlier panic"));
        }
        // The one place the stamp moves, before the op can fail part-way.
        if !matches!(op, Op::Query { .. } | Op::Subscribe { .. }) {
            if let Some(t) = op.tenant().and_then(|name| self.tenants.get_mut(name)) {
                t.revision = next_revision();
            }
        }
        if let Op::CreateTenant { tenant, spec } = op {
            if !valid_tenant_name(&tenant) {
                return Err(format!(
                    "invalid tenant name `{tenant}` (want [A-Za-z0-9_-], 1..=64 chars)"
                ));
            }
            if self.tenants.contains_key(&tenant) {
                return Err(format!("tenant `{tenant}` already exists"));
            }
            let t = Tenant::new(&tenant, spec)?;
            self.tenants.insert(tenant.clone(), Box::new(t));
            return Ok(RespBody::Created { tenant });
        }
        let tenant = op.tenant().ok_or("op is not tenant-scoped")?.to_string();
        let t = self
            .tenants
            .get_mut(&tenant)
            .ok_or_else(|| format!("unknown tenant `{tenant}`"))?;
        Ok(match op {
            Op::Submit { jobs, .. } => RespBody::Accepted {
                admitted: t.submit(&jobs)?,
                tenant,
            },
            Op::Fault { event, .. } => {
                t.fault(event)?;
                RespBody::Accepted {
                    tenant,
                    admitted: 1,
                }
            }
            Op::Advance { .. } | Op::Run { .. } => {
                let (epoch, done) = match op {
                    Op::Advance { epochs, .. } => t.advance(epochs)?,
                    _ => t.run_to_end()?,
                };
                if let Some(dir) = &self.checkpoint_dir {
                    let every = self.checkpoint_every;
                    if every > 0 && t.epochs_since_checkpoint >= every {
                        if let Err(e) = t.checkpoint(dir) {
                            eprintln!("dls-service: periodic checkpoint of `{tenant}` failed: {e}");
                        }
                    }
                }
                RespBody::Advanced {
                    tenant,
                    epoch,
                    done,
                }
            }
            Op::Query { .. } => RespBody::Report {
                report: Box::new(t.query()),
                tenant,
            },
            Op::Subscribe { .. } => {
                t.subscribe(conn.clone());
                RespBody::Subscribed { tenant }
            }
            Op::Checkpoint { .. } => {
                let dir = self
                    .checkpoint_dir
                    .as_deref()
                    .ok_or("no checkpoint directory configured")?;
                let path = t.checkpoint(dir)?.display().to_string();
                RespBody::Checkpointed { tenant, path }
            }
            Op::CreateTenant { .. } | Op::Hello | Op::ListTenants | Op::Shutdown => {
                unreachable!("handled above")
            }
        })
    }

    /// Checkpoints every tenant (the daemon's drain); a failure is noted
    /// on stderr and does not stop the others.
    pub fn drain(&mut self) {
        let Some(dir) = &self.checkpoint_dir else {
            return;
        };
        for t in self.tenants.values_mut() {
            if let Err(e) = t.checkpoint(dir) {
                eprintln!(
                    "dls-service: shutdown checkpoint of `{}` failed: {e}",
                    t.name
                );
            }
        }
    }
}

/// Loads every `*.ckpt.json` in `dir`, skipping with a note on stderr
/// any file that fails to parse or restore (a torn tmp file must not
/// brick the daemon) and any whose `tenant` is not a valid tenant name or
/// not its own file stem: the name decides where the tenant's next
/// checkpoint is written. Returns restored tenants sorted by name.
pub fn restore_all(dir: &Path) -> Vec<Tenant> {
    let mut tenants: Vec<Tenant> = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return tenants;
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".ckpt.json"))
        })
        .collect();
    paths.sort();
    for path in paths {
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str::<CheckpointFile>(&s).map_err(|e| e.to_string()))
            .and_then(|f| {
                let own = path.file_name().and_then(|n| n.to_str())
                    == Some(format!("{}.ckpt.json", f.tenant).as_str());
                if !valid_tenant_name(&f.tenant) || !own {
                    return Err(format!(
                        "names tenant {:?}, not its own file stem",
                        f.tenant
                    ));
                }
                Tenant::restore(&f)
            });
        match parsed {
            Ok(t) => tenants.push(t),
            Err(e) => eprintln!("dls-service: skipping checkpoint {}: {e}", path.display()),
        }
    }
    tenants
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canonical(mut r: ScenarioReport) -> String {
        r.reschedule_ms = 0.0;
        r.to_json()
    }

    /// The byte range inside the brackets of the first `"key":[…]` array.
    fn array_at(json: &str, key: &str) -> std::ops::Range<usize> {
        let open = json.find(&format!("\"{key}\":[")).unwrap() + key.len() + 4;
        open..open + json[open..].find(']').unwrap()
    }

    /// The stamp rule the connection threads' report memo rests on:
    /// `Query` and `Subscribe` leave a tenant's stamp where it is, every
    /// other op on it moves it, refused ones included.
    #[test]
    fn every_op_but_query_and_subscribe_moves_the_stamp() {
        use dls_scenario::PlatformChange;
        let sink: ConnHandle = Arc::new(Mutex::new(Vec::<u8>::new()));
        let mut core = Core::new(None, 0);
        let tenant = || "t".to_string();
        let create = || Op::CreateTenant {
            tenant: tenant(),
            spec: TenantSpec::default(),
        };
        let submit = |arrival: f64| Op::Submit {
            tenant: tenant(),
            jobs: vec![JobSpec {
                arrival,
                origin: 0,
                size: 50.0,
                weight: 1.0,
            }],
        };
        let fault = |time: f64| Op::Fault {
            tenant: tenant(),
            event: PlatformEvent {
                time,
                change: PlatformChange::SetSpeed {
                    cluster: 0,
                    speed: 40.0,
                },
            },
        };
        assert!(
            core.apply(
                &sink,
                Request {
                    id: 1,
                    op: create()
                }
            )
            .ok
        );
        let ops = [
            (Op::Query { tenant: tenant() }, true, false),
            (Op::Subscribe { tenant: tenant() }, true, false),
            (submit(1.0), true, true),
            (
                Op::Advance {
                    tenant: tenant(),
                    epochs: 2,
                },
                true,
                true,
            ),
            (Op::Query { tenant: tenant() }, true, false),
            // Refused: past-dated, past-dated, no checkpoint directory, a
            // duplicate create.
            (submit(0.5), false, true),
            (fault(0.5), false, true),
            (Op::Checkpoint { tenant: tenant() }, false, true),
            (create(), false, true),
            (fault(35.0), true, true),
            (Op::Run { tenant: tenant() }, true, true),
            (Op::Query { tenant: tenant() }, true, false),
        ];
        for (op, ok, moves) in ops {
            let shown = format!("{op:?}");
            let before = core.revision("t").unwrap();
            let resp = core.apply(&sink, Request { id: 1, op });
            assert_eq!(resp.ok, ok, "{shown}: {:?}", resp.error);
            assert_eq!(core.revision("t").unwrap() != before, moves, "{shown}");
        }
        assert_eq!(core.revision("ghost"), None);
    }

    /// A checkpoint directory holding one good checkpoint among a torn
    /// file, non-JSON bytes, an old schema version, a file naming another
    /// tenant, one naming an unsafe tenant, and three whose snapshot parses
    /// but has the wrong shape (a live core of another version, a live core
    /// one speed short, no connection counts): only the good tenant loads,
    /// and it finishes bit-identically to the tenant that wrote it.
    #[test]
    fn restore_all_loads_only_well_formed_checkpoints_under_their_own_name() {
        let dir = std::env::temp_dir().join(format!("dls-restore-all-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = TenantSpec {
            policy: "periodic".into(),
            record_events: true,
            ..TenantSpec::default()
        };
        let mut original = Tenant::new("good", spec).unwrap();
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec {
                arrival: 1.0 + 4.0 * i as f64,
                origin: i % 5,
                size: 80.0 + 10.0 * i as f64,
                weight: 1.0,
            })
            .collect();
        original.submit(&jobs).unwrap();
        original.advance(2).unwrap();
        let good = std::fs::read_to_string(original.checkpoint(&dir).unwrap()).unwrap();
        original.run_to_end().unwrap();
        let expected = canonical(original.query());

        let file: CheckpointFile = serde_json::from_str(&good).unwrap();
        let write = |stem: &str, bytes: &[u8]| {
            std::fs::write(dir.join(format!("{stem}.ckpt.json")), bytes).unwrap();
        };
        let renamed = |stem: &str, tenant: &str, schema_version: u32| {
            let f = CheckpointFile {
                schema_version,
                tenant: tenant.into(),
                ..file.clone()
            };
            write(stem, serde_json::to_string(&f).unwrap().as_bytes());
        };
        write("torn", &good.as_bytes()[..good.len() / 2]);
        write("junk", b"\x00\xffnot json at all");
        renamed("old", "old", CHECKPOINT_VERSION - 1);
        renamed("alias", "good", CHECKPOINT_VERSION);
        renamed("evil", "../x", CHECKPOINT_VERSION);
        let reshaped = |stem: &str, snapshot_json: String| {
            assert_ne!(
                snapshot_json, file.snapshot_json,
                "{stem} edits the snapshot"
            );
            let f = CheckpointFile {
                tenant: stem.into(),
                snapshot_json,
                ..file.clone()
            };
            write(stem, serde_json::to_string(&f).unwrap().as_bytes());
        };
        let snap = &file.snapshot_json;
        reshaped(
            "live_v2",
            snap.replacen("\"live\":{\"version\":1,", "\"live\":{\"version\":2,", 1),
        );
        let speeds = array_at(snap, "speeds");
        let last = speeds.start + snap[speeds.clone()].rfind(',').unwrap();
        reshaped(
            "short_speeds",
            [&snap[..last], &snap[speeds.end..]].concat(),
        );
        let conn_now = array_at(snap, "conn_now");
        reshaped(
            "no_conn_now",
            [&snap[..conn_now.start], &snap[conn_now.end..]].concat(),
        );

        let mut restored = restore_all(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        let names: Vec<&str> = restored.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["good"]);
        let t = &mut restored[0];
        t.run_to_end().unwrap();
        assert_eq!(canonical(t.query()), expected);
    }
}
