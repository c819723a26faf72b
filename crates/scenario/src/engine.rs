//! The online scenario engine: replays a [`Scenario`] timeline against a
//! live simulation, driving shipments from the policy's current allocation.
//!
//! Time is organised in control periods of length [`Scenario::period`]
//! (the online analogue of the §3.2 periodic schedule's `T_p`). At each
//! boundary the engine
//!
//! 1. advances the [`LiveSim`] to the boundary, collecting deliveries,
//!    compute completions, and job finishes on the way;
//! 2. heals expired faults (backbone partitions past their `until`,
//!    straggler windows that ended), then applies the platform events that
//!    came due — churn retires in-flight transfers (their payload returns
//!    to the source backlog), a [`PlatformChange::ClusterCrash`]
//!    additionally *loses* transfer progress and queued compute (accounted
//!    per fault in [`FaultRecord`]), a
//!    [`PlatformChange::BackbonePartition`] stalls flows crossing the cut
//!    at zero rate, capacity drift feeds the live-mutation API;
//! 3. activates the jobs that arrived, and marks jobs that can never
//!    finish (origin cluster permanently gone) as
//!    [`UnschedulableEntry`] instead of draining to the horizon;
//! 4. consults the [`ReschedulePolicy`], installing a fresh allocation if
//!    it returns one (solver failures surface as [`ScenarioError::Policy`]
//!    with the epoch, scenario time, and policy name attached);
//! 5. ships one period's worth of backlog: per application `k`, each
//!    destination `l` receives at most `α_{k,l} · T` units (drawn FIFO
//!    from `k`'s job backlog, local share enqueued directly), spawning one
//!    flow per used route with the allocation's `β·minbw` cap and `α`
//!    reservation — exactly the Eq. 7 shape the periodic engine executes,
//!    but driven by dynamic backlogs. Destinations currently separated
//!    from the origin by a partition are skipped (their load stays
//!    backlogged until the cut heals or the policy reshuffles it).
//!
//! The run ends when every job has been computed or proven unschedulable
//! (or at a drain-cap after the last arrival, reporting unfinished jobs as
//! such). [`run_scenario`] is a [`ScenarioSession`] stepped to the end; a
//! session can also be checkpointed at any boundary as a
//! [`ScenarioSnapshot`] and restored — even in a fresh process — to replay
//! the remainder bit-identically ([`ScenarioSession::snapshot`]).
//!
//! Every field a session persists is declared once, in one derived
//! `SessionState` struct that the session holds. A snapshot is that state,
//! plus the epoch, the live core's own snapshot, the platform's current
//! capacities and the policy state; a restore checks the shapes and clones
//! the state back. What the session derives from its scenario and config
//! (period, drain cap, join bookkeeping) is rebuilt, not persisted.

use crate::events::{JobSpec, PlatformChange, PlatformEvent, Scenario};
use crate::policy::{PolicyCtx, PolicyState, ReschedulePolicy};
use crate::report::{
    FaultKind, FaultRecord, JobOutcome, RecoveryRecord, ScenarioReport, UnschedulableEntry,
};
use dls_core::{Allocation, ProblemInstance, SolveError};
use dls_platform::ClusterId;
use dls_sim::{
    ChunkPart, LiveConfig, LiveEvent, LiveFlowId, LiveFlowSpec, LiveSim, LiveSnapshot, SimEngine,
};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::time::Instant;

/// Scenario-engine settings.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Which live-simulation core executes the timeline.
    pub engine: SimEngine,
    /// Cross-check every incremental mutation against a full solve
    /// (expensive; tests only). Implies [`ScenarioConfig::record_events`]:
    /// a checked run always carries the event trace needed to localise a
    /// divergence.
    pub oracle_check: bool,
    /// Record the simulation's delivery/compute event stream into
    /// [`ScenarioReport::events`], so two runs (e.g. incremental vs.
    /// full-recompute) can be compared event by event with
    /// [`ScenarioReport::first_event_divergence`].
    pub record_events: bool,
}

/// Periods the engine keeps draining after the last arrival before giving
/// up on unfinished jobs (churn can strand work forever).
pub(crate) const DRAIN_PERIODS: usize = 400;

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            engine: SimEngine::Incremental,
            oracle_check: false,
            record_events: false,
        }
    }
}

/// Why a scenario run stopped short of a report.
#[derive(Debug, Clone)]
pub enum ScenarioError {
    /// The policy's solver failed at a period boundary and no recovery
    /// rung rescued it (wrap the policy in
    /// [`crate::RecoveryLadder`] to absorb transient failures).
    Policy {
        /// Control period (epoch) at which the decide failed.
        epoch: usize,
        /// Scenario time of the boundary.
        time: f64,
        /// [`ReschedulePolicy::name`] of the failing policy.
        policy: String,
        /// The underlying solver failure.
        source: SolveError,
    },
    /// A [`ScenarioSnapshot`] could not be restored against this
    /// scenario/platform (version skew, wrong scenario, shape mismatch).
    Snapshot(String),
    /// A [`ScenarioSession`] admission was rejected: the pushed job or
    /// platform event is invalid against the platform, or lands in the
    /// already-executed past (admitting it would break the session's
    /// bit-identity with a full-trace replay).
    Admission(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Policy {
                epoch,
                time,
                policy,
                source,
            } => write!(
                f,
                "policy `{policy}` failed at epoch {epoch} (t = {time}): {source}"
            ),
            ScenarioError::Snapshot(msg) => write!(f, "snapshot restore failed: {msg}"),
            ScenarioError::Admission(msg) => write!(f, "admission rejected: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Policy { source, .. } => Some(source),
            ScenarioError::Snapshot(_) | ScenarioError::Admission(_) => None,
        }
    }
}

/// Per-job execution state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct JobState {
    origin: usize,
    arrival: f64,
    size: f64,
    /// Load not yet assigned to a destination (backlogged at the origin).
    unassigned: f64,
    /// Assigned parts not yet fully computed.
    pending_parts: u32,
    in_backlog: bool,
    completed_at: Option<f64>,
    /// Proven unfinishable (origin cluster permanently gone with load
    /// still unplaced); terminal for the drain loop.
    stranded: bool,
}

impl JobState {
    /// A job of the timeline, not yet arrived.
    fn admitted(j: &JobSpec) -> JobState {
        JobState {
            origin: j.origin as usize,
            arrival: j.arrival,
            size: j.size,
            unassigned: 0.0,
            pending_parts: 0,
            in_backlog: false,
            completed_at: None,
            stranded: false,
        }
    }

    fn done(&self) -> bool {
        self.completed_at.is_some()
    }

    /// `true` once the drain loop has nothing left to wait for.
    fn terminal(&self) -> bool {
        self.done() || (self.stranded && self.pending_parts == 0)
    }
}

/// A cluster's fault-aware capacity state. The *base* values track
/// scenario drift even while the cluster is absent or degraded; what the
/// platform (and hence the LP) sees is [`ClusterCaps::effective`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ClusterCaps {
    base_speed: f64,
    base_local: f64,
    /// `false` between a leave/crash and the matching rejoin.
    present: bool,
    /// Multiplicative straggler factor (1.0 outside straggler windows).
    straggler: f64,
}

impl ClusterCaps {
    fn effective(&self) -> (f64, f64) {
        if self.present {
            (
                self.base_speed * self.straggler,
                self.base_local * self.straggler,
            )
        } else {
            (0.0, 0.0)
        }
    }
}

/// One active backbone partition (removed when it heals).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PartitionState {
    groups: Vec<Vec<u32>>,
    until: f64,
}

/// `true` iff an active partition puts `a` and `b` in different groups
/// (clusters not listed in any group are unaffected).
fn separated(partitions: &[PartitionState], a: usize, b: usize) -> bool {
    partitions.iter().any(|p| {
        let ga = p.groups.iter().position(|g| g.contains(&(a as u32)));
        let gb = p.groups.iter().position(|g| g.contains(&(b as u32)));
        matches!((ga, gb), (Some(x), Some(y)) if x != y)
    })
}

/// Connection bookkeeping for one in-flight transfer.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FlowMeta {
    from: ClusterId,
    to: ClusterId,
    connections: u32,
    /// The flow's negotiated bandwidth cap (`None` = unbounded), kept so a
    /// partition stall can be undone at heal time.
    cap: Option<f64>,
    /// The flow's `α` reservation (demand rate), kept for the same reason.
    demand: f64,
    /// Currently stalled at zero rate by an active partition.
    stalled: bool,
}

/// Connection bookkeeping of the in-flight transfers, by flow. A snapshot
/// writes it as `[raw id, meta]` pairs sorted by raw id, since `HashMap`
/// iteration order is not deterministic.
#[derive(Debug, Clone, Default)]
struct FlowTable(HashMap<LiveFlowId, FlowMeta>);

impl std::ops::Deref for FlowTable {
    type Target = HashMap<LiveFlowId, FlowMeta>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl std::ops::DerefMut for FlowTable {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl FlowTable {
    fn sorted(&self) -> Vec<(u64, &FlowMeta)> {
        let mut pairs: Vec<(u64, &FlowMeta)> =
            self.iter().map(|(id, m)| (id.to_raw(), m)).collect();
        pairs.sort_by_key(|(raw, _)| *raw);
        pairs
    }
}

impl Serialize for FlowTable {
    fn to_value(&self) -> Value {
        self.sorted().to_value()
    }
    fn write_json(&self, out: &mut String) {
        self.sorted().write_json(out);
    }
}

impl Deserialize for FlowTable {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = Vec::<(u64, FlowMeta)>::from_value(v)?;
        Ok(FlowTable(
            pairs
                .into_iter()
                .map(|(raw, m)| (LiveFlowId::from_raw(raw), m))
                .collect(),
        ))
    }
}

/// Everything a session persists besides its epoch, the live core and the
/// platform's capacities, declared in wire order: a [`ScenarioSnapshot`]
/// writes these entries between `link_max_conn` and `policy_state`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct SessionState {
    caps: Vec<ClusterCaps>,
    partitions: Vec<PartitionState>,
    straggler_ends: Vec<(f64, u32)>,
    jobs: Vec<JobState>,
    backlog: Vec<VecDeque<u32>>,
    flows: FlowTable,
    conn_now: Vec<i64>,
    caps_ok: bool,
    alloc: Option<Allocation>,
    next_arrival: usize,
    next_event: usize,
    platform_changed: bool,
    achieved_window: f64,
    completed_work: f64,
    last_completion: f64,
    reschedules: usize,
    allocated_sum: f64,
    allocated_periods: usize,
    faults: Vec<FaultRecord>,
    /// Indices into `faults` awaiting their first post-fault allocation
    /// install (which stamps `recovery_latency`).
    pending_recovery: Vec<usize>,
    recoveries: Vec<RecoveryRecord>,
    unschedulable: Vec<UnschedulableEntry>,
    lost_transfer: f64,
    lost_compute: f64,
    redispatched: f64,
}

impl SessionState {
    /// The state before the first epoch: nothing arrived, shipped or
    /// faulted yet.
    fn new(inst: &ProblemInstance, scenario: &Scenario) -> SessionState {
        SessionState {
            caps: inst
                .platform
                .clusters
                .iter()
                .map(|c| ClusterCaps {
                    base_speed: c.speed,
                    base_local: c.local_bw,
                    present: true,
                    straggler: 1.0,
                })
                .collect(),
            jobs: scenario.jobs.iter().map(JobState::admitted).collect(),
            backlog: vec![VecDeque::new(); inst.num_apps()],
            conn_now: vec![0; inst.platform.links.len()],
            caps_ok: true,
            ..SessionState::default()
        }
    }

    /// `true` iff the per-cluster, per-link and per-job vectors have the
    /// lengths `fresh` (a new state for the same platform and timeline) has.
    fn same_shape(&self, fresh: &SessionState) -> bool {
        self.caps.len() == fresh.caps.len()
            && self.jobs.len() == fresh.jobs.len()
            && self.backlog.len() == fresh.backlog.len()
            && self.conn_now.len() == fresh.conn_now.len()
    }

    /// Records a fault and queues it for recovery-latency stamping.
    fn push_fault(&mut self, rec: FaultRecord) {
        self.lost_transfer += rec.lost_transfer;
        self.lost_compute += rec.lost_compute;
        self.redispatched += rec.redispatched;
        self.pending_recovery.push(self.faults.len());
        self.faults.push(rec);
    }
}

/// Wire version of [`ScenarioSnapshot`].
pub const SCENARIO_SNAPSHOT_VERSION: u32 = 1;

/// The complete serialisable state of a scenario session at a boundary:
/// restore with [`ScenarioSession::restore`] and the remainder replays
/// bit-identically to the session that took it (report and event stream;
/// the wall-clock `reschedule_ms` field is the only exception).
///
/// It is the session's epoch, its live core, the platform's current
/// capacities, the session state and the policy state. On the wire the
/// session state's entries sit inline, between `link_max_conn` and
/// `policy_state`.
#[derive(Debug, Clone)]
pub struct ScenarioSnapshot {
    /// Wire version ([`SCENARIO_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Name of the scenario the snapshot was taken from (checked on
    /// restore).
    pub scenario: String,
    /// The next epoch to execute.
    pub epoch: usize,
    live: LiveSnapshot,
    cluster_speed: Vec<f64>,
    cluster_local: Vec<f64>,
    link_bw: Vec<f64>,
    link_max_conn: Vec<u32>,
    state: SessionState,
    policy_state: PolicyState,
}

impl ScenarioSnapshot {
    /// The entries written before the session state, in wire order.
    fn head(&self) -> [(&'static str, &dyn Serialize); 8] {
        [
            ("version", &self.version),
            ("scenario", &self.scenario),
            ("epoch", &self.epoch),
            ("live", &self.live),
            ("cluster_speed", &self.cluster_speed),
            ("cluster_local", &self.cluster_local),
            ("link_bw", &self.link_bw),
            ("link_max_conn", &self.link_max_conn),
        ]
    }

    /// Serialises to JSON (all floats survive bit-exactly).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialisation cannot fail")
    }

    /// Parses a snapshot serialised by [`ScenarioSnapshot::to_json`].
    ///
    /// A snapshot written by a different wire version is rejected with an
    /// explicit schema-version message *before* field-level deserialisation
    /// runs, so version skew surfaces as "version 2 is not supported"
    /// rather than as an opaque missing/mistyped-field error.
    pub fn from_json(json: &str) -> Result<ScenarioSnapshot, ScenarioError> {
        let value =
            serde_json::from_str_value(json).map_err(|e| ScenarioError::Snapshot(e.to_string()))?;
        match value.get("version") {
            Some(serde_json::Value::Number(serde_json::Number::Int(v)))
                if *v == SCENARIO_SNAPSHOT_VERSION as i128 => {}
            Some(serde_json::Value::Number(serde_json::Number::Int(v))) => {
                return Err(ScenarioError::Snapshot(format!(
                    "snapshot schema version {v} is not supported by this build \
                     (it reads version {SCENARIO_SNAPSHOT_VERSION}); re-take the \
                     snapshot with a matching build"
                )));
            }
            _ => {
                return Err(ScenarioError::Snapshot(
                    "snapshot carries no integer `version` field — not a scenario snapshot".into(),
                ));
            }
        }
        // The tree the probe read is the one parse of `json`.
        ScenarioSnapshot::from_value(&value).map_err(|e| ScenarioError::Snapshot(e.to_string()))
    }
}

impl Serialize for ScenarioSnapshot {
    fn to_value(&self) -> Value {
        let Value::Object(state) = self.state.to_value() else {
            unreachable!("a struct serialises to an object")
        };
        let head = self.head().map(|(key, v)| (key.to_string(), v.to_value()));
        let tail = ("policy_state".to_string(), self.policy_state.to_value());
        Value::Object(head.into_iter().chain(state).chain([tail]).collect())
    }

    fn write_json(&self, out: &mut String) {
        for (i, (key, v)) in self.head().into_iter().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            serde::ser::write_str(key, out);
            out.push(':');
            v.write_json(out);
        }
        // The state's entries inline: its `{` becomes the separator, its
        // `}` goes.
        let start = out.len();
        self.state.write_json(out);
        out.replace_range(start..=start, ",");
        out.pop();
        out.push_str(",\"policy_state\":");
        self.policy_state.write_json(out);
        out.push('}');
    }
}

impl Deserialize for ScenarioSnapshot {
    /// Head fields and `policy_state` by key; the session state reads its
    /// own keys out of the same object and ignores the rest.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Object(_)) {
            return Err(DeError::expected("object for ScenarioSnapshot", v));
        }
        fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, DeError> {
            T::from_value(v.get(key).unwrap_or(&Value::Null))
                .map_err(|e| e.in_field(&format!("ScenarioSnapshot.{key}")))
        }
        Ok(ScenarioSnapshot {
            version: field(v, "version")?,
            scenario: field(v, "scenario")?,
            epoch: field(v, "epoch")?,
            live: field(v, "live")?,
            cluster_speed: field(v, "cluster_speed")?,
            cluster_local: field(v, "cluster_local")?,
            link_bw: field(v, "link_bw")?,
            link_max_conn: field(v, "link_max_conn")?,
            state: SessionState::from_value(v)?,
            policy_state: field(v, "policy_state")?,
        })
    }
}

fn live_config(cfg: &ScenarioConfig) -> LiveConfig {
    LiveConfig {
        engine: cfg.engine,
        oracle_check: cfg.oracle_check,
        record_events: cfg.record_events || cfg.oracle_check,
    }
}

fn last_join_index(scenario: &Scenario, clusters: usize) -> Vec<Option<usize>> {
    let mut last = vec![None; clusters];
    for (i, e) in scenario.platform_events.iter().enumerate() {
        if let PlatformChange::ClusterJoin { cluster } = &e.change {
            last[*cluster as usize] = Some(i);
        }
    }
    last
}

/// The drain cap: the epoch at which a run stops waiting on unfinished
/// jobs.
fn max_periods(scenario: &Scenario) -> usize {
    (scenario.last_arrival() / scenario.period).ceil() as usize + DRAIN_PERIODS
}

/// Runs `scenario` on `base`'s platform under `policy`: a
/// [`ScenarioSession`] over the whole timeline, stepped to the end. The
/// returned report is deterministic except for its `reschedule_ms`
/// wall-clock field.
pub fn run_scenario(
    base: &ProblemInstance,
    scenario: &Scenario,
    policy: &mut dyn ReschedulePolicy,
    cfg: &ScenarioConfig,
) -> Result<ScenarioReport, ScenarioError> {
    let mut session = ScenarioSession::new(base, scenario.clone(), cfg.clone());
    session.run_to_end(policy)?;
    Ok(session.into_report(policy))
}

/// A long-lived, externally driven scenario run: the engine state of
/// [`run_scenario`] held open so a caller (the `dls-service` daemon, an
/// interactive driver) can interleave stepping with *extending* the
/// timeline — admitting jobs and platform events as they are learned
/// rather than knowing the whole trace up front.
///
/// # Equivalence contract
///
/// Driving a session epoch by epoch, pushing jobs/events at any point
/// before their due boundary, yields a report and event stream
/// bit-identical to a single [`run_scenario`] over the final merged
/// timeline ([`ScenarioSession::scenario`]), modulo the wall-clock
/// `reschedule_ms` field. To keep that true, [`ScenarioSession::push_jobs`]
/// and [`ScenarioSession::push_platform_event`] reject anything landing at
/// or before the last boundary whose admission scan already ran — the
/// full-trace run would have admitted it there, so accepting it late would
/// diverge.
///
/// A session that has finished ([`ScenarioSession::is_done`]) re-opens
/// when new jobs arrive: the terminating boundary's admission phases are
/// pointer-idempotent, so re-executing that epoch after a push is
/// state-identical to the merged full-trace run reaching it for the first
/// time.
pub struct ScenarioSession {
    scenario: Scenario,
    cfg: ScenarioConfig,
    tp: f64,
    max_periods: usize,
    time_eps: f64,
    /// Index of the *last* `ClusterJoin` event per cluster (derived from
    /// the scenario, not snapshotted): a cluster that is absent with no
    /// join at or past `next_event` is gone for good.
    last_join: Vec<Option<usize>>,
    inst: ProblemInstance,
    live: LiveSim,
    epoch: usize,
    periods: usize,
    reschedule_ms: f64,
    st: SessionState,
    done: bool,
}

impl ScenarioSession {
    /// Opens a session over `scenario` (which may be empty: jobs and
    /// events can all arrive later through the push API).
    pub fn new(base: &ProblemInstance, scenario: Scenario, cfg: ScenarioConfig) -> ScenarioSession {
        let p = &base.platform;
        let live = LiveSim::new(
            &p.clusters.iter().map(|c| c.local_bw).collect::<Vec<_>>(),
            &p.clusters.iter().map(|c| c.speed).collect::<Vec<_>>(),
            live_config(&cfg),
        );
        let tp = scenario.period;
        ScenarioSession {
            st: SessionState::new(base, &scenario),
            last_join: last_join_index(&scenario, p.clusters.len()),
            max_periods: max_periods(&scenario),
            scenario,
            cfg,
            tp,
            time_eps: 1e-9 * tp,
            inst: base.clone(),
            live,
            epoch: 0,
            periods: 0,
            reschedule_ms: 0.0,
            done: false,
        }
    }

    /// Re-opens a session from a checkpoint. `scenario` must be the
    /// session's timeline *as of the snapshot* (the caller persists it
    /// alongside, since a session's timeline grows past the scenario it
    /// was created with). The policy's serialisable state is re-seeded
    /// from the snapshot via [`ReschedulePolicy::import_state`].
    pub fn restore(
        base: &ProblemInstance,
        scenario: Scenario,
        cfg: ScenarioConfig,
        snap: &ScenarioSnapshot,
        policy: &mut dyn ReschedulePolicy,
    ) -> Result<ScenarioSession, ScenarioError> {
        if snap.version != SCENARIO_SNAPSHOT_VERSION {
            return Err(ScenarioError::Snapshot(format!(
                "unsupported snapshot version {} (expected {SCENARIO_SNAPSHOT_VERSION})",
                snap.version
            )));
        }
        if snap.scenario != scenario.name {
            return Err(ScenarioError::Snapshot(format!(
                "snapshot was taken from scenario `{}`, not `{}`",
                snap.scenario, scenario.name
            )));
        }
        let live =
            LiveSim::restore(live_config(&cfg), &snap.live).map_err(ScenarioError::Snapshot)?;
        let mut session = ScenarioSession::new(base, scenario, cfg);
        let p = &mut session.inst.platform;
        if snap.cluster_speed.len() != p.clusters.len()
            || snap.cluster_local.len() != p.clusters.len()
            || snap.link_bw.len() != p.links.len()
            || snap.link_max_conn.len() != p.links.len()
            || live.clusters() != p.clusters.len()
            || !snap.state.same_shape(&session.st)
        {
            return Err(ScenarioError::Snapshot(
                "snapshot shape does not match the platform/scenario".into(),
            ));
        }
        for (i, c) in p.clusters.iter_mut().enumerate() {
            c.speed = snap.cluster_speed[i];
            c.local_bw = snap.cluster_local[i];
        }
        for (i, l) in p.links.iter_mut().enumerate() {
            l.bw_per_connection = snap.link_bw[i];
            l.max_connections = snap.link_max_conn[i];
        }
        session.live = live;
        session.st = snap.state.clone();
        session.epoch = snap.epoch;
        session.periods = snap.epoch.saturating_sub(1);
        policy.import_state(&snap.policy_state);
        Ok(session)
    }

    /// The next control period to execute (re-execute, if the run is
    /// currently finished — that re-execution is state-idempotent).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// `true` once every admitted job is terminal and no arrivals remain.
    /// Not a terminal state for the *session*: pushing more jobs re-opens
    /// the run.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The session's timeline so far (base scenario plus everything
    /// pushed). Persist this next to a snapshot to make it restorable.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Executes one control period; returns `true` when the run is (now)
    /// finished. A no-op returning `true` while the session is done.
    pub fn step(&mut self, policy: &mut dyn ReschedulePolicy) -> Result<bool, ScenarioError> {
        if self.done {
            return Ok(true);
        }
        self.done = self.execute_epoch(policy)?;
        Ok(self.done)
    }

    /// Steps until the run finishes.
    pub fn run_to_end(&mut self, policy: &mut dyn ReschedulePolicy) -> Result<(), ScenarioError> {
        while !self.step(policy)? {}
        Ok(())
    }

    /// Last boundary whose admission scan has run (`None` before the
    /// first step). Pushes must land strictly after it.
    fn scanned_boundary(&self) -> Option<f64> {
        if self.done {
            // The terminating step scanned boundary `epoch` before
            // returning early (without incrementing the epoch).
            Some(self.epoch as f64 * self.tp)
        } else if self.epoch == 0 {
            None
        } else {
            Some((self.epoch - 1) as f64 * self.tp)
        }
    }

    fn check_time_admissible(&self, what: &str, t: f64) -> Result<(), ScenarioError> {
        if let Some(boundary) = self.scanned_boundary() {
            if t <= boundary + self.time_eps {
                return Err(ScenarioError::Admission(format!(
                    "{what} at t={t} is in the executed past: the admission \
                     scan for boundary t={boundary} has already run"
                )));
            }
        }
        Ok(())
    }

    /// Admits new jobs into the open timeline. All-or-nothing: each job is
    /// validated against the platform and must arrive strictly after the
    /// last executed boundary, else nothing is admitted.
    pub fn push_jobs(&mut self, jobs: &[JobSpec]) -> Result<(), ScenarioError> {
        let k = self.st.caps.len() as u32;
        for (i, j) in jobs.iter().enumerate() {
            if j.origin >= k {
                return Err(ScenarioError::Admission(format!(
                    "pushed job {i} originates at unknown cluster {}",
                    j.origin
                )));
            }
            if !(j.size.is_finite() && j.size > 0.0) {
                return Err(ScenarioError::Admission(format!(
                    "pushed job {i} has a non-positive size {}",
                    j.size
                )));
            }
            if !(j.arrival.is_finite() && j.arrival >= 0.0) {
                return Err(ScenarioError::Admission(format!(
                    "pushed job {i} has a bad arrival time {}",
                    j.arrival
                )));
            }
            self.check_time_admissible("job arrival", j.arrival)?;
        }
        for &j in jobs {
            // Stable position: after every job arriving at or before it —
            // exactly where append-then-`normalise()` would put it. The
            // admissibility check guarantees idx >= next_arrival, so
            // already-admitted job ids stay valid.
            let idx = self
                .scenario
                .jobs
                .partition_point(|x| x.arrival <= j.arrival);
            debug_assert!(idx >= self.st.next_arrival);
            self.scenario.jobs.insert(idx, j);
            self.st.jobs.insert(idx, JobState::admitted(&j));
        }
        if !jobs.is_empty() {
            self.max_periods = max_periods(&self.scenario);
            self.done = false;
        }
        Ok(())
    }

    /// Admits a platform event (fault notification, capacity update) into
    /// the open timeline. Must land strictly after the last executed
    /// boundary. Does not by itself re-open a finished run: a full-trace
    /// run over the merged timeline would terminate at the same epoch and
    /// never apply the event either.
    pub fn push_platform_event(&mut self, event: PlatformEvent) -> Result<(), ScenarioError> {
        let probe = Scenario {
            name: self.scenario.name.clone(),
            period: self.scenario.period,
            jobs: Vec::new(),
            platform_events: vec![event.clone()],
        };
        probe
            .validate(&self.inst.platform)
            .map_err(ScenarioError::Admission)?;
        self.check_time_admissible("platform event", event.time)?;
        let idx = self
            .scenario
            .platform_events
            .partition_point(|e| e.time <= event.time);
        debug_assert!(idx >= self.st.next_event);
        self.scenario.platform_events.insert(idx, event);
        // Re-derive join bookkeeping: the insert shifted later indices.
        self.last_join = last_join_index(&self.scenario, self.inst.platform.clusters.len());
        Ok(())
    }

    /// Checkpoints the complete session state. Restore with
    /// [`ScenarioSession::restore`], handing it [`ScenarioSession::scenario`]
    /// as persisted at snapshot time; the remainder replays bit-identically
    /// to **this** session continuing from here.
    ///
    /// Taking a checkpoint fires [`ReschedulePolicy::checkpoint_barrier`]
    /// on the live policy: warm LP contexts carry an incrementally-updated
    /// factorisation that a restore necessarily rebuilds from scratch, so
    /// the live side schedules the same rebuild. The continuing run is
    /// therefore a function of *where checkpoints were taken* — a session
    /// that checkpoints at epoch `e` bit-agrees with a restored replica,
    /// and with any other session checkpointing at `e`, but may differ at
    /// the ulp level from a run that never checkpointed. Cold and
    /// heuristic policies are stateless across solves; for them the
    /// barrier is a no-op and snapshots are observationally free.
    pub fn snapshot(&self, policy: &mut dyn ReschedulePolicy) -> ScenarioSnapshot {
        let p = &self.inst.platform;
        let snap = ScenarioSnapshot {
            version: SCENARIO_SNAPSHOT_VERSION,
            scenario: self.scenario.name.clone(),
            epoch: self.epoch,
            live: self.live.snapshot(),
            cluster_speed: p.clusters.iter().map(|c| c.speed).collect(),
            cluster_local: p.clusters.iter().map(|c| c.local_bw).collect(),
            link_bw: p.links.iter().map(|l| l.bw_per_connection).collect(),
            link_max_conn: p.links.iter().map(|l| l.max_connections).collect(),
            state: self.st.clone(),
            policy_state: policy.export_state(),
        };
        policy.checkpoint_barrier();
        snap
    }

    /// Jobs terminal so far: [`ScenarioReport::completed_jobs`].
    pub fn completed_jobs(&self) -> usize {
        self.st.jobs.iter().filter(|j| j.done()).count()
    }

    /// Work completed so far: [`ScenarioReport::completed_work`].
    pub fn completed_work(&self) -> f64 {
        self.st.completed_work
    }

    /// Allocations installed so far: [`ScenarioReport::reschedules`].
    pub fn reschedules(&self) -> usize {
        self.st.reschedules
    }

    /// Events the live core has processed: [`ScenarioReport::sim_events`].
    pub fn sim_events(&self) -> u64 {
        self.live.events_processed()
    }

    /// Fault records so far: [`ScenarioReport::faults`].
    pub fn faults(&self) -> &[FaultRecord] {
        &self.st.faults
    }

    /// Recovery records so far: [`ScenarioReport::recoveries`]. Like
    /// [`ScenarioSession::report`], first appends what `policy` has not
    /// handed over yet.
    pub fn recoveries(&mut self, policy: &mut dyn ReschedulePolicy) -> &[RecoveryRecord] {
        self.st.recoveries.extend(policy.drain_recovery());
        &self.st.recoveries
    }

    /// A report of the run's current state (interim if the run is still
    /// open; the recorded vectors are cloned out). Deterministic except for
    /// the wall-clock `reschedule_ms`.
    pub fn report(&mut self, policy: &mut dyn ReschedulePolicy) -> ScenarioReport {
        let recoveries = Some(self.recoveries(policy).to_vec());
        let completed_jobs = self.completed_jobs();
        let responses: Vec<f64> = self
            .st
            .jobs
            .iter()
            .filter_map(|j| j.completed_at.map(|c| c - j.arrival))
            .collect();
        let mean_response = if responses.is_empty() {
            0.0
        } else {
            responses.iter().sum::<f64>() / responses.len() as f64
        };
        let max_response = responses.iter().fold(0.0f64, |a, &r| a.max(r));
        let per_job: Vec<JobOutcome> = self
            .scenario
            .jobs
            .iter()
            .zip(&self.st.jobs)
            .enumerate()
            .map(|(i, (spec, state))| JobOutcome {
                job: i as u32,
                origin: spec.origin,
                arrival: spec.arrival,
                size: spec.size,
                completed: state.completed_at,
            })
            .collect();

        ScenarioReport {
            scenario: self.scenario.name.clone(),
            policy: policy.name(),
            periods: self.periods,
            period_length: self.tp,
            jobs: self.st.jobs.len(),
            completed_jobs,
            offered_work: self.scenario.offered_work(),
            completed_work: self.completed_work(),
            makespan: self.st.last_completion,
            mean_response,
            max_response,
            achieved_throughput: if self.st.last_completion > 0.0 {
                self.st.completed_work / self.st.last_completion
            } else {
                0.0
            },
            allocated_throughput: if self.st.allocated_periods > 0 {
                self.st.allocated_sum / self.st.allocated_periods as f64
            } else {
                0.0
            },
            reschedules: self.reschedules(),
            reschedule_ms: self.reschedule_ms,
            sim_events: self.sim_events(),
            connection_caps_respected: self.st.caps_ok,
            per_job,
            events: (self.cfg.record_events || self.cfg.oracle_check)
                .then(|| self.live.event_log().to_vec()),
            faults: Some(self.faults().to_vec()),
            recoveries,
            unschedulable: Some(self.st.unschedulable.clone()),
            lost_transfer: Some(self.st.lost_transfer),
            lost_compute: Some(self.st.lost_compute),
            redispatched_load: Some(self.st.redispatched),
        }
    }

    /// Consumes the session into a final report.
    pub fn into_report(mut self, policy: &mut dyn ReschedulePolicy) -> ScenarioReport {
        self.report(policy)
    }

    /// Pushes a cluster's effective capacities into the platform and the
    /// live core (no-op for components that did not change).
    fn apply_cluster(&mut self, c: usize) {
        let (speed, local_bw) = self.st.caps[c].effective();
        if self.inst.platform.clusters[c].speed != speed {
            self.inst.platform.clusters[c].speed = speed;
            self.live.update_speed(ClusterId(c as u32), speed);
        }
        if self.inst.platform.clusters[c].local_bw != local_bw {
            self.inst.platform.clusters[c].local_bw = local_bw;
            self.live
                .update_link_capacity(ClusterId(c as u32), local_bw);
        }
    }

    /// Retires every in-flight flow touching `cluster`, requeueing its
    /// payload at the source backlog. Returns `(shipped, redispatched)`:
    /// transfer progress forfeited and load returned to the pending pool.
    fn retire_cluster_flows(&mut self, cluster: u32) -> (f64, f64) {
        let mut victims: Vec<LiveFlowId> = self
            .st
            .flows
            .iter()
            .filter(|(_, m)| m.from.index() == cluster as usize || m.to.index() == cluster as usize)
            .map(|(id, _)| *id)
            .collect();
        // HashMap iteration order is not deterministic; the requeue order
        // below feeds FIFO backlogs, so fix it.
        victims.sort_by_key(|id| id.to_raw());
        let mut shipped = 0.0;
        let mut redispatched = 0.0;
        for retired in self.live.retire_flows(&victims) {
            shipped += retired.shipped;
            for part in &retired.parts {
                redispatched += part.amount;
                let j = &mut self.st.jobs[part.job as usize];
                j.pending_parts = j.pending_parts.saturating_sub(1);
                j.unassigned += part.amount;
                if !j.in_backlog {
                    j.in_backlog = true;
                    self.st.backlog[j.origin].push_back(part.job);
                }
            }
        }
        for id in victims {
            release_connections(&self.inst, &mut self.st, id);
        }
        (shipped, redispatched)
    }

    /// Heals partitions past their `until` and ends expired straggler
    /// windows. Runs before the boundary's platform events so a heal and a
    /// fresh fault due at the same boundary compose in fault order.
    fn process_expiries(&mut self, t: f64) {
        let mut healed = false;
        self.st.partitions.retain(|p| {
            if p.until <= t + self.time_eps {
                healed = true;
                false
            } else {
                true
            }
        });
        if healed {
            self.st.platform_changed = true;
            let mut stalled: Vec<LiveFlowId> = self
                .st
                .flows
                .iter()
                .filter(|(_, m)| m.stalled)
                .map(|(id, _)| *id)
                .collect();
            stalled.sort_by_key(|id| id.to_raw());
            for id in stalled {
                let m = &self.st.flows[&id];
                if !separated(&self.st.partitions, m.from.index(), m.to.index()) {
                    let (cap, demand) = (m.cap.unwrap_or(f64::INFINITY), m.demand);
                    self.live.set_flow_constraints(id, cap, demand);
                    self.st.flows.get_mut(&id).expect("just looked up").stalled = false;
                }
            }
        }
        let mut ended: Vec<u32> = Vec::new();
        self.st.straggler_ends.retain(|&(until, c)| {
            if until <= t + self.time_eps {
                ended.push(c);
                false
            } else {
                true
            }
        });
        for c in ended {
            self.st.caps[c as usize].straggler = 1.0;
            self.apply_cluster(c as usize);
            self.st.platform_changed = true;
        }
    }

    /// Applies one due platform event.
    fn apply_event(&mut self, time: f64, change: &PlatformChange) {
        self.st.platform_changed = true;
        match change {
            PlatformChange::SetSpeed { cluster, speed } => {
                // Drift on an absent cluster must not revive it: the base
                // value updates, the effective capacity stays zero until
                // the rejoin.
                self.st.caps[*cluster as usize].base_speed = *speed;
                self.apply_cluster(*cluster as usize);
            }
            PlatformChange::SetLocalBw { cluster, bw } => {
                self.st.caps[*cluster as usize].base_local = *bw;
                self.apply_cluster(*cluster as usize);
            }
            PlatformChange::SetBackboneBw { link, bw } => {
                // Connection-oriented semantics (§2): a connection is
                // granted bw(l) when it opens, so transfers already in
                // flight keep their negotiated cap for the remainder of
                // their chunk; the new bandwidth applies to every flow
                // spawned from the next period on.
                self.inst.platform.links[*link as usize].bw_per_connection = *bw;
            }
            PlatformChange::SetMaxConnections { link, max } => {
                self.inst.platform.links[*link as usize].max_connections = *max;
                // A cap dropping below the already-open connection count is
                // a violation even if no new flow ever ships over the link.
                if self.st.conn_now[*link as usize] > *max as i64 {
                    self.st.caps_ok = false;
                }
            }
            PlatformChange::ClusterLeave { cluster } => {
                // Graceful departure: in-flight payload returns to the
                // source backlog in full (store-and-forward progress is
                // forfeited but not accounted as a fault), queued compute
                // stays put and resumes at the rejoin.
                self.st.caps[*cluster as usize].present = false;
                self.apply_cluster(*cluster as usize);
                self.retire_cluster_flows(*cluster);
            }
            PlatformChange::ClusterJoin { cluster } => {
                // Rejoin with the capacities the cluster would have had if
                // it never left: its base values track any drift recorded
                // during the outage.
                self.st.caps[*cluster as usize].present = true;
                self.apply_cluster(*cluster as usize);
            }
            PlatformChange::ClusterCrash { cluster } => {
                self.st.caps[*cluster as usize].present = false;
                self.apply_cluster(*cluster as usize);
                let (lost_transfer, mut redispatched) = self.retire_cluster_flows(*cluster);
                // Unlike a graceful leave, queued (and partially computed)
                // work on the crashed cluster is lost; the load returns to
                // the pending pool for re-dispatch.
                let mut lost_compute = 0.0;
                for e in self.live.purge_queue(ClusterId(*cluster)) {
                    lost_compute += e.original - e.remaining;
                    redispatched += e.original;
                    let j = &mut self.st.jobs[e.job as usize];
                    j.pending_parts = j.pending_parts.saturating_sub(1);
                    j.unassigned += e.original;
                    if !j.in_backlog {
                        j.in_backlog = true;
                        self.st.backlog[j.origin].push_back(e.job);
                    }
                }
                self.st.push_fault(FaultRecord {
                    kind: FaultKind::Crash,
                    time,
                    cluster: Some(*cluster),
                    lost_transfer,
                    lost_compute,
                    redispatched,
                    recovery_latency: None,
                });
            }
            PlatformChange::BackbonePartition { groups, until } => {
                self.st.partitions.push(PartitionState {
                    groups: groups.clone(),
                    until: *until,
                });
                // Stall in-flight flows crossing the cut at zero rate;
                // their progress keeps at heal time (nothing is lost).
                let mut ids: Vec<LiveFlowId> = self
                    .st
                    .flows
                    .iter()
                    .filter(|(_, m)| !m.stalled)
                    .map(|(id, _)| *id)
                    .collect();
                ids.sort_by_key(|id| id.to_raw());
                for id in ids {
                    let m = &self.st.flows[&id];
                    if separated(&self.st.partitions, m.from.index(), m.to.index()) {
                        self.live.set_flow_constraints(id, 0.0, 0.0);
                        self.st.flows.get_mut(&id).expect("just looked up").stalled = true;
                    }
                }
                self.st.push_fault(FaultRecord {
                    kind: FaultKind::Partition,
                    time,
                    cluster: None,
                    lost_transfer: 0.0,
                    lost_compute: 0.0,
                    redispatched: 0.0,
                    recovery_latency: None,
                });
            }
            PlatformChange::Straggler {
                cluster,
                factor,
                until,
            } => {
                self.st.caps[*cluster as usize].straggler = *factor;
                self.apply_cluster(*cluster as usize);
                self.st.straggler_ends.push((*until, *cluster));
                self.st.push_fault(FaultRecord {
                    kind: FaultKind::Straggler,
                    time,
                    cluster: Some(*cluster),
                    lost_transfer: 0.0,
                    lost_compute: 0.0,
                    redispatched: 0.0,
                    recovery_latency: None,
                });
            }
        }
    }

    /// Marks backlogged jobs whose origin cluster is gone for good (absent
    /// with no rejoin anywhere in the remaining event stream) as
    /// unschedulable, so the drain loop stops waiting on them.
    fn detect_stranded(&mut self, t: f64) {
        for c in 0..self.st.caps.len() {
            if self.st.caps[c].present || self.st.backlog[c].is_empty() {
                continue;
            }
            if self.last_join[c].is_some_and(|idx| idx >= self.st.next_event) {
                continue; // a rejoin is still coming
            }
            for id in std::mem::take(&mut self.st.backlog[c]) {
                let j = &mut self.st.jobs[id as usize];
                j.in_backlog = false;
                j.stranded = true;
                self.st.unschedulable.push(UnschedulableEntry {
                    job: id,
                    detected_at: t,
                    reason: format!(
                        "origin cluster {c} is gone for good with {:.3} load units unplaced",
                        j.unassigned
                    ),
                });
            }
        }
    }

    /// Executes one control period. Returns `true` when the run is over
    /// (every job terminal, or the drain cap hit).
    fn execute_epoch(&mut self, policy: &mut dyn ReschedulePolicy) -> Result<bool, ScenarioError> {
        let epoch = self.epoch;
        let t = epoch as f64 * self.tp;
        self.periods = epoch;

        // --- 1. advance the live core to the boundary ---
        let mut finished_flows: Vec<LiveFlowId> = Vec::new();
        for e in self.live.advance_to(t) {
            match *e {
                LiveEvent::FlowDone { id, .. } => finished_flows.push(id),
                LiveEvent::Delivered { .. } => {}
                LiveEvent::Computed {
                    time, job, amount, ..
                } => {
                    let j = &mut self.st.jobs[job as usize];
                    j.pending_parts = j.pending_parts.saturating_sub(1);
                    self.st.achieved_window += amount;
                    self.st.completed_work += amount;
                    if j.pending_parts == 0 && j.unassigned <= 0.0 && !j.in_backlog && !j.done() {
                        j.completed_at = Some(time);
                        self.st.last_completion = self.st.last_completion.max(time);
                    }
                }
            }
        }
        for id in finished_flows {
            release_connections(&self.inst, &mut self.st, id);
        }

        // --- 2. fault expiries, then platform events due at this boundary ---
        self.process_expiries(t);
        while self.st.next_event < self.scenario.platform_events.len()
            && self.scenario.platform_events[self.st.next_event].time <= t + self.time_eps
        {
            let ev = self.scenario.platform_events[self.st.next_event].clone();
            self.st.next_event += 1;
            self.apply_event(ev.time, &ev.change);
        }

        // --- 3. job arrivals due at (or before) this boundary ---
        while self.st.next_arrival < self.scenario.jobs.len()
            && self.scenario.jobs[self.st.next_arrival].arrival <= t + self.time_eps
        {
            let j = &mut self.st.jobs[self.st.next_arrival];
            j.unassigned = j.size;
            j.in_backlog = true;
            self.st.backlog[j.origin].push_back(self.st.next_arrival as u32);
            self.st.next_arrival += 1;
        }
        self.detect_stranded(t);

        // --- termination ---
        let arrivals_left = self.st.next_arrival < self.scenario.jobs.len();
        let all_done = self.st.jobs.iter().all(JobState::terminal);
        if !arrivals_left && (all_done || epoch == self.max_periods) {
            return Ok(true);
        }

        // --- 4. policy ---
        let backlogged = self.st.backlog.iter().any(|q| !q.is_empty());
        if backlogged {
            let allocated = self.st.alloc.as_ref().map_or(0.0, Allocation::total_load);
            let ctx = PolicyCtx {
                inst: &self.inst,
                epoch,
                platform_changed: self.st.platform_changed,
                achieved: self.st.achieved_window / self.tp,
                allocated,
                backlogged,
                current: self.st.alloc.as_ref(),
            };
            let t0 = Instant::now();
            let decision = policy
                .decide(&ctx)
                .map_err(|source| ScenarioError::Policy {
                    epoch,
                    time: t,
                    policy: policy.name(),
                    source,
                })?;
            self.reschedule_ms += t0.elapsed().as_secs_f64() * 1e3;
            self.st.recoveries.extend(policy.drain_recovery());
            if let Some(new_alloc) = decision {
                debug_assert!(
                    new_alloc.validate(&self.inst).is_ok(),
                    "policy produced an invalid allocation: {:?}",
                    new_alloc.violations(&self.inst)
                );
                self.st.alloc = Some(new_alloc);
                self.st.reschedules += 1;
                self.st.platform_changed = false;
                // The first allocation installed at/after a fault closes
                // its recovery window.
                for &fi in &self.st.pending_recovery {
                    self.st.faults[fi].recovery_latency = Some(t - self.st.faults[fi].time);
                }
                self.st.pending_recovery.clear();
            }
        }
        self.st.achieved_window = 0.0;

        // --- 5. ship one period of backlog under the current allocation ---
        if let Some(a) = &self.st.alloc {
            if backlogged {
                self.st.allocated_sum += a.total_load();
                self.st.allocated_periods += 1;
                spawn_period(&mut self.live, &self.inst, self.tp, &mut self.st);
            }
        }
        self.epoch += 1;
        Ok(false)
    }
}

/// Drops the connection charge of a finished/retired flow (routes are
/// topology and never change, so the release mirrors the charge exactly).
fn release_connections(inst: &ProblemInstance, st: &mut SessionState, id: LiveFlowId) {
    if let Some(meta) = st.flows.remove(&id) {
        let mut ignore = true;
        charge_route(inst, &meta, &mut st.conn_now, &mut ignore, -1);
    }
}

/// Ships one control period's worth of backlog: per application, the FIFO
/// backlog is split across destinations under the `α_{k,l} · T` budgets,
/// local shares enqueue directly, remote shares spawn reserved flows.
/// Destinations cut off from the origin by an active partition are skipped
/// (their load stays backlogged).
fn spawn_period(live: &mut LiveSim, inst: &ProblemInstance, tp: f64, st: &mut SessionState) {
    let SessionState {
        alloc: Some(alloc),
        jobs,
        backlog,
        flows,
        conn_now,
        caps_ok,
        partitions,
        ..
    } = st
    else {
        return;
    };
    let p = &inst.platform;
    let k = inst.num_apps();
    for (origin, queue) in backlog.iter_mut().enumerate() {
        if queue.is_empty() {
            continue;
        }
        let from = ClusterId(origin as u32);
        // Destination budgets for this period: local first, then remote
        // destinations in cluster order (deterministic).
        let mut dests: Vec<(usize, f64)> = Vec::new();
        let local_budget = alloc.alpha(from, from) * tp;
        if local_budget > 0.0 {
            dests.push((origin, local_budget));
        }
        for to in 0..k {
            if to == origin || separated(partitions, origin, to) {
                continue;
            }
            let b = alloc.alpha(from, ClusterId(to as u32)) * tp;
            if b > 0.0 {
                dests.push((to, b));
            }
        }
        if dests.is_empty() {
            continue;
        }
        let budget_eps: f64 = 1e-12 * (1.0 + dests.iter().map(|(_, b)| b).sum::<f64>());
        // Per-destination parts assembled this period.
        let mut parts: Vec<Vec<ChunkPart>> = vec![Vec::new(); dests.len()];
        'fifo: while let Some(&job_id) = queue.front() {
            let j = &mut jobs[job_id as usize];
            for (di, (_, b)) in dests.iter_mut().enumerate() {
                if *b <= budget_eps || j.unassigned <= 0.0 {
                    continue;
                }
                let mut take = j.unassigned.min(*b);
                // Sweep size-relative dust into the last part so jobs are
                // assigned *exactly* (completion is a part-count, not a
                // float comparison).
                if j.unassigned - take <= 1e-9 * (1.0 + j.size) {
                    take = j.unassigned;
                }
                j.unassigned -= take;
                *b -= take;
                j.pending_parts += 1;
                parts[di].push(ChunkPart {
                    job: job_id,
                    amount: take,
                });
            }
            if j.unassigned <= 0.0 {
                j.unassigned = 0.0;
                j.in_backlog = false;
                queue.pop_front();
            } else {
                break 'fifo; // budgets exhausted
            }
        }
        // Local shares: straight into the compute queue.
        let mut specs: Vec<LiveFlowSpec> = Vec::new();
        let mut spec_meta: Vec<FlowMeta> = Vec::new();
        for (di, (dest, _)) in dests.iter().enumerate() {
            if parts[di].is_empty() {
                continue;
            }
            if *dest == origin {
                for part in &parts[di] {
                    live.enqueue_compute(from, part.job, part.amount);
                }
                continue;
            }
            let to = ClusterId(*dest as u32);
            let amount: f64 = parts[di].iter().map(|c| c.amount).sum();
            let connections = alloc.beta(from, to);
            let cap = match p.route_bottleneck_bw(from, to) {
                Some(bw) if bw.is_finite() => Some(connections as f64 * bw),
                Some(_) => None,
                None => continue, // validated allocations never ship here
            };
            let demand = amount / tp;
            specs.push(LiveFlowSpec {
                src: from,
                dst: to,
                cap: cap.unwrap_or(f64::INFINITY),
                demand,
                parts: std::mem::take(&mut parts[di]),
            });
            spec_meta.push(FlowMeta {
                from,
                to,
                connections,
                cap,
                demand,
                stalled: false,
            });
        }
        if specs.is_empty() {
            continue;
        }
        let ids = live.add_flows(specs);
        for (id, meta) in ids.into_iter().zip(spec_meta) {
            charge_route(inst, &meta, conn_now, caps_ok, 1);
            flows.insert(id, meta);
        }
    }
}

/// Charges (`sign = 1`) or releases (`sign = -1`) a flow's connections on
/// every backbone link of its route, flagging cap violations on charge.
fn charge_route(
    inst: &ProblemInstance,
    meta: &FlowMeta,
    conn_now: &mut [i64],
    caps_ok: &mut bool,
    sign: i64,
) {
    if let Some(route) = inst.platform.route(meta.from, meta.to) {
        for l in route {
            conn_now[l.index()] += sign * meta.connections as i64;
            if sign > 0
                && conn_now[l.index()] > inst.platform.links[l.index()].max_connections as i64
            {
                *caps_ok = false;
            }
        }
    }
}
