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

use crate::events::{JobSpec, PlatformChange, PlatformEvent, Scenario};
use crate::policy::{PolicyCtx, PolicyState, ReschedulePolicy};
use crate::report::{
    FaultKind, FaultRecord, JobOutcome, RecoveryRecord, ScenarioReport, UnschedulableEntry,
};
use dls_core::{Allocation, ProblemInstance, SolveError};
use dls_platform::ClusterId;
use dls_sim::{
    BandwidthModel, ChunkPart, LiveConfig, LiveEvent, LiveFlowId, LiveFlowSpec, LiveSim,
    LiveSnapshot, SimEngine,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::time::Instant;

/// Scenario-engine settings.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Local-link sharing discipline.
    pub bandwidth_model: BandwidthModel,
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
    /// Periods the engine keeps draining after the last arrival before
    /// giving up on unfinished jobs (churn can strand work forever).
    pub drain_periods: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            bandwidth_model: BandwidthModel::MaxMinFair,
            engine: SimEngine::Incremental,
            oracle_check: false,
            record_events: false,
            drain_periods: 400,
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

/// Wire version of [`ScenarioSnapshot`].
pub const SCENARIO_SNAPSHOT_VERSION: u32 = 1;

/// The complete serialisable state of a scenario session at a boundary:
/// restore with [`ScenarioSession::restore`] and the remainder replays
/// bit-identically to the session that took it (report and event stream;
/// the wall-clock `reschedule_ms` field is the only exception).
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    caps: Vec<ClusterCaps>,
    partitions: Vec<PartitionState>,
    straggler_ends: Vec<(f64, u32)>,
    jobs: Vec<JobState>,
    backlog: Vec<Vec<u32>>,
    flows: Vec<(u64, FlowMeta)>,
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
    pending_recovery: Vec<usize>,
    recoveries: Vec<RecoveryRecord>,
    unschedulable: Vec<UnschedulableEntry>,
    lost_transfer: f64,
    lost_compute: f64,
    redispatched: f64,
    policy_state: PolicyState,
}

impl ScenarioSnapshot {
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

/// All mutable state of one scenario run, so the control loop can be
/// paused, serialised, and resumed. Owns its scenario and configuration so
/// long-lived sessions ([`ScenarioSession`]) can extend the timeline while
/// the run is in flight.
struct Runner {
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
    jobs: Vec<JobState>,
    backlog: Vec<VecDeque<u32>>,
    flows: HashMap<LiveFlowId, FlowMeta>,
    conn_now: Vec<i64>,
    caps_ok: bool,
    caps: Vec<ClusterCaps>,
    partitions: Vec<PartitionState>,
    straggler_ends: Vec<(f64, u32)>,
    alloc: Option<Allocation>,
    epoch: usize,
    next_arrival: usize,
    next_event: usize,
    platform_changed: bool,
    achieved_window: f64,
    completed_work: f64,
    last_completion: f64,
    reschedules: usize,
    reschedule_ms: f64,
    allocated_sum: f64,
    allocated_periods: usize,
    periods: usize,
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

fn live_config(cfg: &ScenarioConfig) -> LiveConfig {
    LiveConfig {
        bandwidth_model: cfg.bandwidth_model,
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

impl Runner {
    fn new(base: &ProblemInstance, scenario: Scenario, cfg: ScenarioConfig) -> Runner {
        let tp = scenario.period;
        let inst = base.clone();
        let live = LiveSim::new(
            &inst
                .platform
                .clusters
                .iter()
                .map(|c| c.local_bw)
                .collect::<Vec<_>>(),
            &inst
                .platform
                .clusters
                .iter()
                .map(|c| c.speed)
                .collect::<Vec<_>>(),
            live_config(&cfg),
        );
        let jobs: Vec<JobState> = scenario
            .jobs
            .iter()
            .map(|j| JobState {
                origin: j.origin as usize,
                arrival: j.arrival,
                size: j.size,
                unassigned: 0.0,
                pending_parts: 0,
                in_backlog: false,
                completed_at: None,
                stranded: false,
            })
            .collect();
        let caps: Vec<ClusterCaps> = inst
            .platform
            .clusters
            .iter()
            .map(|c| ClusterCaps {
                base_speed: c.speed,
                base_local: c.local_bw,
                present: true,
                straggler: 1.0,
            })
            .collect();
        let last_arrival_period = (scenario.last_arrival() / tp).ceil() as usize;
        let max_periods = last_arrival_period + cfg.drain_periods.max(1);
        let last_join = last_join_index(&scenario, inst.platform.clusters.len());
        Runner {
            scenario,
            cfg,
            tp,
            max_periods,
            time_eps: 1e-9 * tp,
            last_join,
            backlog: vec![VecDeque::new(); base.num_apps()],
            flows: HashMap::new(),
            conn_now: vec![0; inst.platform.links.len()],
            caps_ok: true,
            caps,
            partitions: Vec::new(),
            straggler_ends: Vec::new(),
            alloc: None,
            epoch: 0,
            next_arrival: 0,
            next_event: 0,
            platform_changed: false,
            achieved_window: 0.0,
            completed_work: 0.0,
            last_completion: 0.0,
            reschedules: 0,
            reschedule_ms: 0.0,
            allocated_sum: 0.0,
            allocated_periods: 0,
            periods: 0,
            faults: Vec::new(),
            pending_recovery: Vec::new(),
            recoveries: Vec::new(),
            unschedulable: Vec::new(),
            lost_transfer: 0.0,
            lost_compute: 0.0,
            redispatched: 0.0,
            inst,
            live,
            jobs,
        }
    }

    fn snapshot(&self, policy: &dyn ReschedulePolicy) -> ScenarioSnapshot {
        let mut flows: Vec<(u64, FlowMeta)> = self
            .flows
            .iter()
            .map(|(id, m)| (id.to_raw(), m.clone()))
            .collect();
        flows.sort_by_key(|(raw, _)| *raw);
        ScenarioSnapshot {
            version: SCENARIO_SNAPSHOT_VERSION,
            scenario: self.scenario.name.clone(),
            epoch: self.epoch,
            live: self.live.snapshot(),
            cluster_speed: self
                .inst
                .platform
                .clusters
                .iter()
                .map(|c| c.speed)
                .collect(),
            cluster_local: self
                .inst
                .platform
                .clusters
                .iter()
                .map(|c| c.local_bw)
                .collect(),
            link_bw: self
                .inst
                .platform
                .links
                .iter()
                .map(|l| l.bw_per_connection)
                .collect(),
            link_max_conn: self
                .inst
                .platform
                .links
                .iter()
                .map(|l| l.max_connections)
                .collect(),
            caps: self.caps.clone(),
            partitions: self.partitions.clone(),
            straggler_ends: self.straggler_ends.clone(),
            jobs: self.jobs.clone(),
            backlog: self
                .backlog
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            flows,
            conn_now: self.conn_now.clone(),
            caps_ok: self.caps_ok,
            alloc: self.alloc.clone(),
            next_arrival: self.next_arrival,
            next_event: self.next_event,
            platform_changed: self.platform_changed,
            achieved_window: self.achieved_window,
            completed_work: self.completed_work,
            last_completion: self.last_completion,
            reschedules: self.reschedules,
            allocated_sum: self.allocated_sum,
            allocated_periods: self.allocated_periods,
            faults: self.faults.clone(),
            pending_recovery: self.pending_recovery.clone(),
            recoveries: self.recoveries.clone(),
            unschedulable: self.unschedulable.clone(),
            lost_transfer: self.lost_transfer,
            lost_compute: self.lost_compute,
            redispatched: self.redispatched,
            policy_state: policy.export_state(),
        }
    }

    fn from_snapshot(
        base: &ProblemInstance,
        scenario: Scenario,
        cfg: ScenarioConfig,
        snap: &ScenarioSnapshot,
    ) -> Result<Runner, ScenarioError> {
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
        let clusters = base.platform.clusters.len();
        let links = base.platform.links.len();
        if snap.cluster_speed.len() != clusters
            || snap.cluster_local.len() != clusters
            || snap.caps.len() != clusters
            || snap.link_bw.len() != links
            || snap.link_max_conn.len() != links
            || snap.jobs.len() != scenario.jobs.len()
            || snap.backlog.len() != base.num_apps()
        {
            return Err(ScenarioError::Snapshot(
                "snapshot shape does not match the platform/scenario".into(),
            ));
        }
        let live_cfg = live_config(&cfg);
        let mut runner = Runner::new(base, scenario, cfg);
        for (i, c) in runner.inst.platform.clusters.iter_mut().enumerate() {
            c.speed = snap.cluster_speed[i];
            c.local_bw = snap.cluster_local[i];
        }
        for (i, l) in runner.inst.platform.links.iter_mut().enumerate() {
            l.bw_per_connection = snap.link_bw[i];
            l.max_connections = snap.link_max_conn[i];
        }
        runner.live = LiveSim::restore(live_cfg, &snap.live);
        runner.jobs = snap.jobs.clone();
        runner.backlog = snap
            .backlog
            .iter()
            .map(|q| q.iter().copied().collect())
            .collect();
        runner.flows = snap
            .flows
            .iter()
            .map(|(raw, m)| (LiveFlowId::from_raw(*raw), m.clone()))
            .collect();
        runner.conn_now = snap.conn_now.clone();
        runner.caps_ok = snap.caps_ok;
        runner.caps = snap.caps.clone();
        runner.partitions = snap.partitions.clone();
        runner.straggler_ends = snap.straggler_ends.clone();
        runner.alloc = snap.alloc.clone();
        runner.epoch = snap.epoch;
        runner.next_arrival = snap.next_arrival;
        runner.next_event = snap.next_event;
        runner.platform_changed = snap.platform_changed;
        runner.achieved_window = snap.achieved_window;
        runner.completed_work = snap.completed_work;
        runner.last_completion = snap.last_completion;
        runner.reschedules = snap.reschedules;
        runner.allocated_sum = snap.allocated_sum;
        runner.allocated_periods = snap.allocated_periods;
        runner.periods = snap.epoch.saturating_sub(1);
        runner.faults = snap.faults.clone();
        runner.pending_recovery = snap.pending_recovery.clone();
        runner.recoveries = snap.recoveries.clone();
        runner.unschedulable = snap.unschedulable.clone();
        runner.lost_transfer = snap.lost_transfer;
        runner.lost_compute = snap.lost_compute;
        runner.redispatched = snap.redispatched;
        Ok(runner)
    }

    /// Pushes a cluster's effective capacities into the platform and the
    /// live core (no-op for components that did not change).
    fn apply_cluster(&mut self, c: usize) {
        let (speed, local_bw) = self.caps[c].effective();
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

    /// Records a fault and queues it for recovery-latency stamping.
    fn push_fault(&mut self, rec: FaultRecord) {
        self.lost_transfer += rec.lost_transfer;
        self.lost_compute += rec.lost_compute;
        self.redispatched += rec.redispatched;
        self.pending_recovery.push(self.faults.len());
        self.faults.push(rec);
    }

    /// Retires every in-flight flow touching `cluster`, requeueing its
    /// payload at the source backlog. Returns `(shipped, redispatched)`:
    /// transfer progress forfeited and load returned to the pending pool.
    fn retire_cluster_flows(&mut self, cluster: u32) -> (f64, f64) {
        let mut victims: Vec<LiveFlowId> = self
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
                let j = &mut self.jobs[part.job as usize];
                j.pending_parts = j.pending_parts.saturating_sub(1);
                j.unassigned += part.amount;
                if !j.in_backlog {
                    j.in_backlog = true;
                    self.backlog[j.origin].push_back(part.job);
                }
            }
        }
        for id in victims {
            release_connections(&self.inst, &mut self.flows, &mut self.conn_now, id);
        }
        (shipped, redispatched)
    }

    /// Heals partitions past their `until` and ends expired straggler
    /// windows. Runs before the boundary's platform events so a heal and a
    /// fresh fault due at the same boundary compose in fault order.
    fn process_expiries(&mut self, t: f64) {
        let mut healed = false;
        self.partitions.retain(|p| {
            if p.until <= t + self.time_eps {
                healed = true;
                false
            } else {
                true
            }
        });
        if healed {
            self.platform_changed = true;
            let mut stalled: Vec<LiveFlowId> = self
                .flows
                .iter()
                .filter(|(_, m)| m.stalled)
                .map(|(id, _)| *id)
                .collect();
            stalled.sort_by_key(|id| id.to_raw());
            for id in stalled {
                let m = &self.flows[&id];
                if !separated(&self.partitions, m.from.index(), m.to.index()) {
                    let (cap, demand) = (m.cap.unwrap_or(f64::INFINITY), m.demand);
                    self.live.set_flow_constraints(id, cap, demand);
                    self.flows.get_mut(&id).expect("just looked up").stalled = false;
                }
            }
        }
        let mut ended: Vec<u32> = Vec::new();
        self.straggler_ends.retain(|&(until, c)| {
            if until <= t + self.time_eps {
                ended.push(c);
                false
            } else {
                true
            }
        });
        for c in ended {
            self.caps[c as usize].straggler = 1.0;
            self.apply_cluster(c as usize);
            self.platform_changed = true;
        }
    }

    /// Applies one due platform event.
    fn apply_event(&mut self, time: f64, change: &PlatformChange) {
        self.platform_changed = true;
        match change {
            PlatformChange::SetSpeed { cluster, speed } => {
                // Drift on an absent cluster must not revive it: the base
                // value updates, the effective capacity stays zero until
                // the rejoin.
                self.caps[*cluster as usize].base_speed = *speed;
                self.apply_cluster(*cluster as usize);
            }
            PlatformChange::SetLocalBw { cluster, bw } => {
                self.caps[*cluster as usize].base_local = *bw;
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
                if self.conn_now[*link as usize] > *max as i64 {
                    self.caps_ok = false;
                }
            }
            PlatformChange::ClusterLeave { cluster } => {
                // Graceful departure: in-flight payload returns to the
                // source backlog in full (store-and-forward progress is
                // forfeited but not accounted as a fault), queued compute
                // stays put and resumes at the rejoin.
                self.caps[*cluster as usize].present = false;
                self.apply_cluster(*cluster as usize);
                self.retire_cluster_flows(*cluster);
            }
            PlatformChange::ClusterJoin { cluster } => {
                // Rejoin with the capacities the cluster would have had if
                // it never left: its base values track any drift recorded
                // during the outage.
                self.caps[*cluster as usize].present = true;
                self.apply_cluster(*cluster as usize);
            }
            PlatformChange::ClusterCrash { cluster } => {
                self.caps[*cluster as usize].present = false;
                self.apply_cluster(*cluster as usize);
                let (lost_transfer, mut redispatched) = self.retire_cluster_flows(*cluster);
                // Unlike a graceful leave, queued (and partially computed)
                // work on the crashed cluster is lost; the load returns to
                // the pending pool for re-dispatch.
                let mut lost_compute = 0.0;
                for e in self.live.purge_queue(ClusterId(*cluster)) {
                    lost_compute += e.original - e.remaining;
                    redispatched += e.original;
                    let j = &mut self.jobs[e.job as usize];
                    j.pending_parts = j.pending_parts.saturating_sub(1);
                    j.unassigned += e.original;
                    if !j.in_backlog {
                        j.in_backlog = true;
                        self.backlog[j.origin].push_back(e.job);
                    }
                }
                self.push_fault(FaultRecord {
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
                self.partitions.push(PartitionState {
                    groups: groups.clone(),
                    until: *until,
                });
                // Stall in-flight flows crossing the cut at zero rate;
                // their progress keeps at heal time (nothing is lost).
                let mut ids: Vec<LiveFlowId> = self
                    .flows
                    .iter()
                    .filter(|(_, m)| !m.stalled)
                    .map(|(id, _)| *id)
                    .collect();
                ids.sort_by_key(|id| id.to_raw());
                for id in ids {
                    let m = &self.flows[&id];
                    if separated(&self.partitions, m.from.index(), m.to.index()) {
                        self.live.set_flow_constraints(id, 0.0, 0.0);
                        self.flows.get_mut(&id).expect("just looked up").stalled = true;
                    }
                }
                self.push_fault(FaultRecord {
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
                self.caps[*cluster as usize].straggler = *factor;
                self.apply_cluster(*cluster as usize);
                self.straggler_ends.push((*until, *cluster));
                self.push_fault(FaultRecord {
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
        for c in 0..self.caps.len() {
            if self.caps[c].present || self.backlog[c].is_empty() {
                continue;
            }
            if self.last_join[c].is_some_and(|idx| idx >= self.next_event) {
                continue; // a rejoin is still coming
            }
            for id in std::mem::take(&mut self.backlog[c]) {
                let j = &mut self.jobs[id as usize];
                j.in_backlog = false;
                j.stranded = true;
                self.unschedulable.push(UnschedulableEntry {
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
    fn step(&mut self, policy: &mut dyn ReschedulePolicy) -> Result<bool, ScenarioError> {
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
                    let j = &mut self.jobs[job as usize];
                    j.pending_parts = j.pending_parts.saturating_sub(1);
                    self.achieved_window += amount;
                    self.completed_work += amount;
                    if j.pending_parts == 0 && j.unassigned <= 0.0 && !j.in_backlog && !j.done() {
                        j.completed_at = Some(time);
                        self.last_completion = self.last_completion.max(time);
                    }
                }
            }
        }
        for id in finished_flows {
            release_connections(&self.inst, &mut self.flows, &mut self.conn_now, id);
        }

        // --- 2. fault expiries, then platform events due at this boundary ---
        self.process_expiries(t);
        while self.next_event < self.scenario.platform_events.len()
            && self.scenario.platform_events[self.next_event].time <= t + self.time_eps
        {
            let ev = self.scenario.platform_events[self.next_event].clone();
            self.next_event += 1;
            self.apply_event(ev.time, &ev.change);
        }

        // --- 3. job arrivals due at (or before) this boundary ---
        while self.next_arrival < self.scenario.jobs.len()
            && self.scenario.jobs[self.next_arrival].arrival <= t + self.time_eps
        {
            let j = &mut self.jobs[self.next_arrival];
            j.unassigned = j.size;
            j.in_backlog = true;
            self.backlog[j.origin].push_back(self.next_arrival as u32);
            self.next_arrival += 1;
        }
        self.detect_stranded(t);

        // --- termination ---
        let arrivals_left = self.next_arrival < self.scenario.jobs.len();
        let all_done = self.jobs.iter().all(JobState::terminal);
        if !arrivals_left && (all_done || epoch == self.max_periods) {
            return Ok(true);
        }

        // --- 4. policy ---
        let backlogged = self.backlog.iter().any(|q| !q.is_empty());
        if backlogged {
            let allocated = self.alloc.as_ref().map_or(0.0, Allocation::total_load);
            let ctx = PolicyCtx {
                inst: &self.inst,
                epoch,
                platform_changed: self.platform_changed,
                achieved: self.achieved_window / self.tp,
                allocated,
                backlogged,
                current: self.alloc.as_ref(),
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
            self.recoveries.extend(policy.drain_recovery());
            if let Some(new_alloc) = decision {
                debug_assert!(
                    new_alloc.validate(&self.inst).is_ok(),
                    "policy produced an invalid allocation: {:?}",
                    new_alloc.violations(&self.inst)
                );
                self.alloc = Some(new_alloc);
                self.reschedules += 1;
                self.platform_changed = false;
                // The first allocation installed at/after a fault closes
                // its recovery window.
                for &fi in &self.pending_recovery {
                    self.faults[fi].recovery_latency = Some(t - self.faults[fi].time);
                }
                self.pending_recovery.clear();
            }
        }
        self.achieved_window = 0.0;

        // --- 5. ship one period of backlog under the current allocation ---
        if let Some(a) = &self.alloc {
            if backlogged {
                self.allocated_sum += a.total_load();
                self.allocated_periods += 1;
                spawn_period(
                    &mut self.live,
                    &self.inst,
                    a,
                    self.tp,
                    &mut self.jobs,
                    &mut self.backlog,
                    &mut self.flows,
                    &mut self.conn_now,
                    &mut self.caps_ok,
                    &self.partitions,
                );
            }
        }
        self.epoch += 1;
        Ok(false)
    }

    /// Assembles a report of the run's *current* state. Non-consuming so a
    /// long-lived [`ScenarioSession`] can publish interim reports while the
    /// timeline is still open; the recorded vectors are cloned out.
    fn report(&mut self, policy: &mut dyn ReschedulePolicy) -> ScenarioReport {
        self.recoveries.extend(policy.drain_recovery());
        let completed_jobs = self.jobs.iter().filter(|j| j.done()).count();
        let responses: Vec<f64> = self
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
            .zip(&self.jobs)
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
            jobs: self.jobs.len(),
            completed_jobs,
            offered_work: self.scenario.offered_work(),
            completed_work: self.completed_work,
            makespan: self.last_completion,
            mean_response,
            max_response,
            achieved_throughput: if self.last_completion > 0.0 {
                self.completed_work / self.last_completion
            } else {
                0.0
            },
            allocated_throughput: if self.allocated_periods > 0 {
                self.allocated_sum / self.allocated_periods as f64
            } else {
                0.0
            },
            reschedules: self.reschedules,
            reschedule_ms: self.reschedule_ms,
            sim_events: self.live.events_processed(),
            connection_caps_respected: self.caps_ok,
            per_job,
            events: (self.cfg.record_events || self.cfg.oracle_check)
                .then(|| self.live.event_log().to_vec()),
            faults: Some(self.faults.clone()),
            recoveries: Some(self.recoveries.clone()),
            unschedulable: Some(self.unschedulable.clone()),
            lost_transfer: Some(self.lost_transfer),
            lost_compute: Some(self.lost_compute),
            redispatched_load: Some(self.redispatched),
        }
    }
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
    runner: Runner,
    done: bool,
}

impl ScenarioSession {
    /// Opens a session over `scenario` (which may be empty: jobs and
    /// events can all arrive later through the push API).
    pub fn new(base: &ProblemInstance, scenario: Scenario, cfg: ScenarioConfig) -> ScenarioSession {
        ScenarioSession {
            runner: Runner::new(base, scenario, cfg),
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
        snapshot: &ScenarioSnapshot,
        policy: &mut dyn ReschedulePolicy,
    ) -> Result<ScenarioSession, ScenarioError> {
        let runner = Runner::from_snapshot(base, scenario, cfg, snapshot)?;
        policy.import_state(&snapshot.policy_state);
        Ok(ScenarioSession {
            runner,
            done: false,
        })
    }

    /// The next control period to execute (re-execute, if the run is
    /// currently finished — that re-execution is state-idempotent).
    pub fn epoch(&self) -> usize {
        self.runner.epoch
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
        &self.runner.scenario
    }

    /// Executes one control period; returns `true` when the run is (now)
    /// finished. A no-op returning `true` while the session is done.
    pub fn step(&mut self, policy: &mut dyn ReschedulePolicy) -> Result<bool, ScenarioError> {
        if self.done {
            return Ok(true);
        }
        self.done = self.runner.step(policy)?;
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
            Some(self.runner.epoch as f64 * self.runner.tp)
        } else if self.runner.epoch == 0 {
            None
        } else {
            Some((self.runner.epoch - 1) as f64 * self.runner.tp)
        }
    }

    fn check_time_admissible(&self, what: &str, t: f64) -> Result<(), ScenarioError> {
        if let Some(boundary) = self.scanned_boundary() {
            if t <= boundary + self.runner.time_eps {
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
        let k = self.runner.caps.len() as u32;
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
                .runner
                .scenario
                .jobs
                .partition_point(|x| x.arrival <= j.arrival);
            debug_assert!(idx >= self.runner.next_arrival);
            self.runner.scenario.jobs.insert(idx, j);
            self.runner.jobs.insert(
                idx,
                JobState {
                    origin: j.origin as usize,
                    arrival: j.arrival,
                    size: j.size,
                    unassigned: 0.0,
                    pending_parts: 0,
                    in_backlog: false,
                    completed_at: None,
                    stranded: false,
                },
            );
        }
        if !jobs.is_empty() {
            let last_arrival_period =
                (self.runner.scenario.last_arrival() / self.runner.tp).ceil() as usize;
            self.runner.max_periods = last_arrival_period + self.runner.cfg.drain_periods.max(1);
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
            name: self.runner.scenario.name.clone(),
            period: self.runner.scenario.period,
            jobs: Vec::new(),
            platform_events: vec![event.clone()],
        };
        probe
            .validate(&self.runner.inst.platform)
            .map_err(ScenarioError::Admission)?;
        self.check_time_admissible("platform event", event.time)?;
        let idx = self
            .runner
            .scenario
            .platform_events
            .partition_point(|e| e.time <= event.time);
        debug_assert!(idx >= self.runner.next_event);
        self.runner.scenario.platform_events.insert(idx, event);
        // Re-derive join bookkeeping: the insert shifted later indices.
        self.runner.last_join = last_join_index(
            &self.runner.scenario,
            self.runner.inst.platform.clusters.len(),
        );
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
        let snap = self.runner.snapshot(&*policy);
        policy.checkpoint_barrier();
        snap
    }

    /// A report of the run's current state (interim if the run is still
    /// open). Deterministic except for the wall-clock `reschedule_ms`.
    pub fn report(&mut self, policy: &mut dyn ReschedulePolicy) -> ScenarioReport {
        self.runner.report(policy)
    }

    /// Consumes the session into a final report.
    pub fn into_report(mut self, policy: &mut dyn ReschedulePolicy) -> ScenarioReport {
        self.runner.report(policy)
    }
}

/// Drops the connection charge of a finished/retired flow (routes are
/// topology and never change, so the release mirrors the charge exactly).
fn release_connections(
    inst: &ProblemInstance,
    flows: &mut HashMap<LiveFlowId, FlowMeta>,
    conn_now: &mut [i64],
    id: LiveFlowId,
) {
    if let Some(meta) = flows.remove(&id) {
        let mut ignore = true;
        charge_route(inst, &meta, conn_now, &mut ignore, -1);
    }
}

/// Ships one control period's worth of backlog: per application, the FIFO
/// backlog is split across destinations under the `α_{k,l} · T` budgets,
/// local shares enqueue directly, remote shares spawn reserved flows.
/// Destinations cut off from the origin by an active partition are skipped
/// (their load stays backlogged).
#[allow(clippy::too_many_arguments)]
fn spawn_period(
    live: &mut LiveSim,
    inst: &ProblemInstance,
    alloc: &Allocation,
    tp: f64,
    jobs: &mut [JobState],
    backlog: &mut [VecDeque<u32>],
    flows: &mut HashMap<LiveFlowId, FlowMeta>,
    conn_now: &mut [i64],
    caps_ok: &mut bool,
    partitions: &[PartitionState],
) {
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
