//! Scenario outcome reporting.

use dls_sim::{EventDivergence, EventRecord};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Outcome of one job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Index into the scenario's job list.
    pub job: u32,
    /// Home cluster.
    pub origin: u32,
    /// Arrival time.
    pub arrival: f64,
    /// Load units.
    pub size: f64,
    /// Completion time (`None` when the scenario ended first).
    pub completed: Option<f64>,
}

impl JobOutcome {
    /// Response time (completion − arrival), if the job finished.
    pub fn response(&self) -> Option<f64> {
        self.completed.map(|c| c - self.arrival)
    }
}

/// What kind of fault a [`FaultRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A cluster crashed: in-flight transfers and queued compute were lost.
    Crash,
    /// A backbone partition started: flows crossing the cut stalled.
    Partition,
    /// A straggler window started: a cluster's speed/local link degraded.
    Straggler,
}

/// Lost-work accounting for one fault event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Fault kind.
    pub kind: FaultKind,
    /// When the fault fired.
    pub time: f64,
    /// Affected cluster (`None` for partitions, which cut between groups).
    pub cluster: Option<u32>,
    /// Transfer progress lost: load units already shipped on flows that
    /// were killed (store-and-forward — partial transfers are worthless).
    pub lost_transfer: f64,
    /// Compute progress lost: load units already processed on chunks whose
    /// results died with the cluster.
    pub lost_compute: f64,
    /// Load units returned to the pending pool for re-dispatch (full
    /// original chunk sizes, not just the lost progress).
    pub redispatched: f64,
    /// Time from the fault to the first allocation installed afterwards —
    /// how long the system ran without a post-fault schedule. `None` when
    /// the scenario ended first (or the fault needed no reschedule).
    pub recovery_latency: Option<f64>,
}

/// Which recovery-ladder rung rescued an epoch that would otherwise have
/// aborted the scenario (see `RecoveryLadder`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryRung {
    /// Refactorise-and-retry: the warm context rebuilt its factorisation
    /// and the retry succeeded.
    Refactor,
    /// Full rebuild: the solver context was reconstructed from scratch
    /// (the cold rung) and succeeded.
    Rebuild,
    /// Degraded mode: the last good allocation was scaled to fit the
    /// current platform instead of re-solving.
    StaleScale,
}

/// One recovery-ladder activation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRecord {
    /// Epoch whose policy decision needed rescue.
    pub epoch: usize,
    /// The rung that produced a usable decision.
    pub rung: RecoveryRung,
    /// The original error, rendered.
    pub error: String,
    /// Decide attempts consumed before the rung succeeded (including the
    /// initial failed one).
    pub attempts: u32,
}

/// A job the engine proved can never finish (e.g. its home cluster is
/// permanently gone), reported instead of draining to the horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnschedulableEntry {
    /// Index into the scenario's job list.
    pub job: u32,
    /// When the engine detected it.
    pub detected_at: f64,
    /// Human-readable cause.
    pub reason: String,
}

/// What a scenario run achieved.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Policy name.
    pub policy: String,
    /// Control periods executed.
    pub periods: usize,
    /// Control-period length.
    pub period_length: f64,
    /// Total jobs offered.
    pub jobs: usize,
    /// Jobs completed before the scenario ended.
    pub completed_jobs: usize,
    /// `Σ size` over all offered jobs.
    pub offered_work: f64,
    /// Load units fully computed.
    pub completed_work: f64,
    /// Completion time of the last finished job (0 when none finished).
    pub makespan: f64,
    /// Mean response time over completed jobs.
    pub mean_response: f64,
    /// Maximum response time over completed jobs.
    pub max_response: f64,
    /// `completed_work / makespan` — the throughput the online system
    /// actually sustained.
    pub achieved_throughput: f64,
    /// Mean, over periods, of the installed allocation's total steady-state
    /// throughput — the optimal rate the §3 allocation promises if backlog
    /// never starves it.
    pub allocated_throughput: f64,
    /// Times the policy installed a new allocation.
    pub reschedules: usize,
    /// Wall-clock spent inside the policy (solver cost), milliseconds.
    /// The only non-deterministic field.
    pub reschedule_ms: f64,
    /// Events processed by the live simulation core.
    pub sim_events: u64,
    /// `true` while per-link open connections never exceeded the (current)
    /// backbone connection caps.
    pub connection_caps_respected: bool,
    /// Per-job outcomes, in scenario order.
    pub per_job: Vec<JobOutcome>,
    /// The recorded delivery/compute event stream (`None` unless
    /// [`crate::ScenarioConfig::record_events`] or `oracle_check` was
    /// set). `Option` so reports serialised before the field existed
    /// still parse (a missing key reads back as `None`).
    pub events: Option<Vec<EventRecord>>,
    /// Per-fault lost-work accounting, in event order. `Option` (like
    /// every field below) so pre-fault-era reports still parse; the
    /// engine always emits `Some`.
    pub faults: Option<Vec<FaultRecord>>,
    /// Recovery-ladder activations, in epoch order.
    pub recoveries: Option<Vec<RecoveryRecord>>,
    /// Jobs proven unfinishable (their `completed` stays `None`).
    pub unschedulable: Option<Vec<UnschedulableEntry>>,
    /// Total transfer progress lost to faults (`Σ` over `faults`).
    pub lost_transfer: Option<f64>,
    /// Total compute progress lost to faults.
    pub lost_compute: Option<f64>,
    /// Total load returned to the pending pool by faults.
    pub redispatched_load: Option<f64>,
}

impl ScenarioReport {
    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        match serde_json::to_string_pretty(self) {
            Ok(json) => json,
            // The serialiser writes into a `String` and has no error path.
            Err(e) => unreachable!("report serialisation failed: {e}"),
        }
    }

    /// Parses a report back from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Per-job CSV (`job,origin,arrival,size,completed,response`).
    pub fn per_job_csv(&self) -> String {
        let mut out = String::from("job,origin,arrival,size,completed,response\n");
        for j in &self.per_job {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                j.job,
                j.origin,
                j.arrival,
                j.size,
                j.completed.map_or(String::new(), |c| format!("{c}")),
                j.response().map_or(String::new(), |r| format!("{r}")),
            );
        }
        out
    }

    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "scenario `{}` under `{}`: {}/{} jobs done in {} periods \
             (makespan {:.2}), throughput {:.3} achieved vs {:.3} allocated, \
             mean response {:.2} (max {:.2}), {} reschedules, {} sim events{}",
            self.scenario,
            self.policy,
            self.completed_jobs,
            self.jobs,
            self.periods,
            self.makespan,
            self.achieved_throughput,
            self.allocated_throughput,
            self.mean_response,
            self.max_response,
            self.reschedules,
            self.sim_events,
            if self.connection_caps_respected {
                ""
            } else {
                " [connection caps exceeded]"
            }
        );
        let faults = self.fault_records();
        if !faults.is_empty() {
            let _ = write!(
                s,
                "; {} faults (lost {:.1} transfer + {:.1} compute, {:.1} re-dispatched)",
                faults.len(),
                self.lost_transfer.unwrap_or(0.0),
                self.lost_compute.unwrap_or(0.0),
                self.redispatched_load.unwrap_or(0.0),
            );
        }
        let recoveries = self.recovery_records();
        if !recoveries.is_empty() {
            let _ = write!(s, "; {} recoveries", recoveries.len());
        }
        let stranded = self.unschedulable_entries();
        if !stranded.is_empty() {
            let _ = write!(s, "; {} unschedulable", stranded.len());
        }
        s
    }

    /// Per-fault lost-work records (empty for pre-fault-era reports).
    pub fn fault_records(&self) -> &[FaultRecord] {
        self.faults.as_deref().unwrap_or(&[])
    }

    /// Recovery-ladder activations (empty when no ladder ran or rescued).
    pub fn recovery_records(&self) -> &[RecoveryRecord] {
        self.recoveries.as_deref().unwrap_or(&[])
    }

    /// Jobs the engine proved unfinishable.
    pub fn unschedulable_entries(&self) -> &[UnschedulableEntry] {
        self.unschedulable.as_deref().unwrap_or(&[])
    }

    /// `true` when the deterministic metrics of two runs of the *same*
    /// scenario agree within `tol` relative — the cross-pipeline
    /// equivalence check used by the bench harness (wall-clock fields are
    /// excluded).
    pub fn agrees_with(&self, other: &ScenarioReport, tol: f64) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()));
        if self.jobs != other.jobs
            || self.completed_jobs != other.completed_jobs
            || self.periods != other.periods
            || !close(self.makespan, other.makespan)
            || !close(self.completed_work, other.completed_work)
            || !close(self.mean_response, other.mean_response)
            || !close(self.max_response, other.max_response)
            || !close(self.achieved_throughput, other.achieved_throughput)
            || !close(self.allocated_throughput, other.allocated_throughput)
            || !close(
                self.lost_transfer.unwrap_or(0.0),
                other.lost_transfer.unwrap_or(0.0),
            )
            || !close(
                self.lost_compute.unwrap_or(0.0),
                other.lost_compute.unwrap_or(0.0),
            )
            || !close(
                self.redispatched_load.unwrap_or(0.0),
                other.redispatched_load.unwrap_or(0.0),
            )
        {
            return false;
        }
        let stranded = |r: &ScenarioReport| -> Vec<u32> {
            r.unschedulable_entries().iter().map(|u| u.job).collect()
        };
        if stranded(self) != stranded(other) {
            return false;
        }
        self.per_job.len() == other.per_job.len()
            && self.per_job.iter().zip(&other.per_job).all(|(a, b)| {
                match (a.completed, b.completed) {
                    (Some(x), Some(y)) => close(x, y),
                    (None, None) => true,
                    _ => false,
                }
            })
    }

    /// The recorded event stream (empty when recording was off).
    pub fn event_trace(&self) -> &[EventRecord] {
        self.events.as_deref().unwrap_or(&[])
    }

    /// First point where the two runs' recorded event streams disagree
    /// within `tol` relative, or `None` when they match end to end. Both
    /// runs must have been executed with
    /// [`crate::ScenarioConfig::record_events`] for this to be meaningful:
    /// two empty traces trivially agree.
    pub fn first_event_divergence(
        &self,
        other: &ScenarioReport,
        tol: f64,
    ) -> Option<EventDivergence> {
        dls_sim::first_divergence(self.event_trace(), other.event_trace(), tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ScenarioReport {
        ScenarioReport {
            scenario: "t".into(),
            policy: "p".into(),
            periods: 3,
            period_length: 1.0,
            jobs: 2,
            completed_jobs: 1,
            offered_work: 30.0,
            completed_work: 10.0,
            makespan: 2.5,
            mean_response: 2.0,
            max_response: 2.0,
            achieved_throughput: 4.0,
            allocated_throughput: 12.0,
            reschedules: 3,
            reschedule_ms: 1.5,
            sim_events: 17,
            connection_caps_respected: true,
            per_job: vec![
                JobOutcome {
                    job: 0,
                    origin: 1,
                    arrival: 0.5,
                    size: 10.0,
                    completed: Some(2.5),
                },
                JobOutcome {
                    job: 1,
                    origin: 0,
                    arrival: 1.0,
                    size: 20.0,
                    completed: None,
                },
            ],
            events: None,
            faults: None,
            recoveries: None,
            unschedulable: None,
            lost_transfer: None,
            lost_compute: None,
            redispatched_load: None,
        }
    }

    #[test]
    fn json_round_trip_and_csv() {
        let r = report();
        let back = ScenarioReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.per_job, r.per_job);
        assert_eq!(back.sim_events, r.sim_events);
        let csv = r.per_job_csv();
        assert!(csv.contains("0,1,0.5,10,2.5,2"));
        assert!(csv.lines().count() == 3);
        assert!(r.summary().contains("1/2 jobs"));
    }

    #[test]
    fn event_trace_round_trips_and_divergence_is_localised() {
        use dls_sim::EventKind;
        let mut a = report();
        a.events = Some(vec![
            EventRecord {
                kind: EventKind::Delivered,
                time: 1.0,
                cluster: 0,
                job: 0,
                amount: 10.0,
            },
            EventRecord {
                kind: EventKind::Computed,
                time: 2.5,
                cluster: 0,
                job: 0,
                amount: 10.0,
            },
        ]);
        let back = ScenarioReport::from_json(&a.to_json()).unwrap();
        assert_eq!(back.events, a.events);
        // A report serialised before the field existed still parses: the
        // shim reads a missing key as null, which an Option tolerates.
        let legacy_json = report().to_json().replace("\"events\"", "\"unrelated\"");
        let legacy = ScenarioReport::from_json(&legacy_json).unwrap();
        assert!(legacy.event_trace().is_empty());
        let mut b = a.clone();
        assert_eq!(a.first_event_divergence(&b, 1e-9), None);
        b.events.as_mut().unwrap()[1].time = 3.0;
        let d = a.first_event_divergence(&b, 1e-9).expect("shifted event");
        assert_eq!(d.index, 1);
    }

    #[test]
    fn fault_and_recovery_records_round_trip_and_gate_agreement() {
        let mut r = report();
        r.faults = Some(vec![FaultRecord {
            kind: FaultKind::Crash,
            time: 4.0,
            cluster: Some(2),
            lost_transfer: 12.5,
            lost_compute: 3.0,
            redispatched: 40.0,
            recovery_latency: Some(1.0),
        }]);
        r.recoveries = Some(vec![RecoveryRecord {
            epoch: 4,
            rung: RecoveryRung::StaleScale,
            error: "numerical breakdown".into(),
            attempts: 3,
        }]);
        r.unschedulable = Some(vec![UnschedulableEntry {
            job: 1,
            detected_at: 4.0,
            reason: "origin cluster permanently lost".into(),
        }]);
        r.lost_transfer = Some(12.5);
        r.lost_compute = Some(3.0);
        r.redispatched_load = Some(40.0);
        let back = ScenarioReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.faults, r.faults);
        assert_eq!(back.recoveries, r.recoveries);
        assert_eq!(back.unschedulable, r.unschedulable);
        assert!(r.summary().contains("1 faults"));
        assert!(r.summary().contains("1 unschedulable"));
        // Lost work and stranded jobs are deterministic metrics: two runs
        // disagreeing on them must not count as agreeing.
        let mut other = r.clone();
        assert!(r.agrees_with(&other, 1e-9));
        other.lost_transfer = Some(99.0);
        assert!(!r.agrees_with(&other, 1e-9));
        let mut other = r.clone();
        other.unschedulable = Some(vec![]);
        assert!(!r.agrees_with(&other, 1e-9));
        // Legacy reports (no fault fields) still parse and read as empty.
        let legacy = ScenarioReport::from_json(&report().to_json()).unwrap();
        assert!(legacy.fault_records().is_empty());
        assert!(legacy.recovery_records().is_empty());
        assert!(legacy.unschedulable_entries().is_empty());
    }

    #[test]
    fn agreement_ignores_wall_clock_but_not_metrics() {
        let a = report();
        let mut b = report();
        b.reschedule_ms = 99.0;
        assert!(a.agrees_with(&b, 1e-9));
        b.makespan += 1.0;
        assert!(!a.agrees_with(&b, 1e-9));
    }
}
