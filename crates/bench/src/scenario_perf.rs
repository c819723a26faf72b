//! Deterministic perf-trajectory harness for the online scenario engine.
//!
//! Replays the *same* job trace through the two pipelines the repository
//! has been building toward:
//!
//! * **incremental + warm** — [`SimEngine::Incremental`] live core
//!   (dirty-set bandwidth re-allocation, PR 2) driven by
//!   [`PeriodicResolve`] over a warm-started LPRG
//!   ([`Resolver::warm`], PR 3);
//! * **full + cold** — the retained [`SimEngine::FullRecompute`] reference
//!   core driven by cold LPRG re-solves ([`Resolver::Cold`]).
//!
//! Both pipelines execute identical control decisions, so their
//! [`ScenarioReport`]s must agree on **every** trace — including the
//! drifting one that exercises the platform-delta path (the lexicographic
//! two-stage LP canonicalisation guarantees warm and cold resolvers
//! certify the *same* vertex, not merely equally-optimal ones). The
//! harness asserts the comparison at two levels: aggregate metrics
//! (`reports_agree`) and the full delivery/compute event stream
//! (`events_agree`, with the first divergent event named when they split).
//! Both land in `BENCH_scenario.json` ([`ScenarioPerfRun`]) next to the
//! wall-clock speedup, and the `perf` binary's gate fails on either.

use crate::{preset_name, ratio};
use dls_core::adaptive::DriftConfig;
use dls_core::ProblemInstance;
use dls_experiments::Preset;
use dls_lp::WarmStats;
use dls_scenario::catalog::{paper_shape_instance, poisson_jobs};
use dls_scenario::{
    run_scenario, PeriodicResolve, PlatformChange, PlatformEvent, Resolver, Scenario,
    ScenarioConfig, ScenarioReport,
};
use dls_sim::SimEngine;
use serde::Serialize;
use std::time::Instant;

/// `(clusters, horizon periods)` exercised per preset: the flagship scale
/// is the acceptance-criteria K = 50 with a ≥ 200-job trace.
pub fn scales(preset: Preset) -> &'static [(usize, f64)] {
    match preset {
        Preset::Quick => &[(12, 10.0)],
        Preset::PaperShape => &[(50, 25.0)],
        Preset::Full => &[(50, 25.0), (95, 25.0)],
    }
}

/// Measurements for one trace × pipeline pair. The report fields are
/// the incremental + warm pipeline's unless suffixed `_slow`.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioPerfEntry {
    /// Trace name (`steady`, `drift` or `faulty`).
    pub trace: String,
    /// Cluster count.
    pub k: usize,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Platform events in the trace.
    pub platform_events: usize,
    /// Periods simulated.
    pub periods: usize,
    /// Jobs completed.
    pub completed_jobs: usize,
    /// Completion time of the last job.
    pub makespan: f64,
    /// Mean job response time.
    pub mean_response: f64,
    /// Load completed per unit time.
    pub achieved_throughput: f64,
    /// Load the policy allocated per unit time.
    pub allocated_throughput: f64,
    /// Re-solves the policy performed.
    pub reschedules: usize,
    /// Simulator events, incremental + warm.
    pub sim_events_fast: u64,
    /// Simulator events, full + cold.
    pub sim_events_slow: u64,
    /// Makespan under full + cold.
    pub makespan_slow: f64,
    /// Mean response under full + cold.
    pub mean_response_slow: f64,
    /// `true` iff both pipelines produced identical deterministic metrics
    /// (1e-6 relative).
    pub reports_agree: bool,
    /// `true` iff both pipelines emitted the same delivery/compute event
    /// stream (same events, same order, times/amounts within 1e-6
    /// relative).
    pub events_agree: bool,
    /// When the event streams split: a one-line description of the first
    /// divergent event (index + both records).
    pub first_divergence: Option<String>,
    /// The warm pipeline's cumulative LP counters over one replay (patch,
    /// flush, repair and pivot counts — deterministic per seed).
    pub warm: WarmStats,
    /// Wall-clocks, milliseconds (best of two).
    pub timing_ms: ScenarioTiming,
}

/// Wall-clocks of one [`ScenarioPerfEntry`], milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioTiming {
    /// Incremental engine + warm LP.
    pub incremental_warm: f64,
    /// Full-recompute engine + cold LP.
    pub full_cold: f64,
    /// `full_cold / incremental_warm`.
    pub speedup: f64,
}

/// One full harness run: `BENCH_scenario.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioPerfRun {
    /// Artifact schema tag.
    pub schema: &'static str,
    /// Preset the run was generated with.
    pub preset: &'static str,
    /// Base seed.
    pub seed: u64,
    /// One entry per trace × scale.
    pub entries: Vec<ScenarioPerfEntry>,
    /// Speedup of the flagship `steady` trace at K = 50, if it was run.
    pub k50_steady_speedup: Option<f64>,
}

/// The benchmark traces: the catalog's Poisson workload (≈ 330 jobs at the
/// flagship K = 50, horizon 25), replayed once on a static platform and
/// once under capacity drift. Built from the catalog's own generators so
/// the bench measures exactly the platforms/workloads the scenarios use.
fn traces(inst: &ProblemInstance, k: usize, horizon: f64, seed: u64) -> Vec<Scenario> {
    let jobs = poisson_jobs(k, horizon, seed ^ 0xa5a5);
    let mut steady = Scenario {
        name: "steady".into(),
        period: 1.0,
        jobs: jobs.clone(),
        platform_events: Vec::new(),
    };
    steady.normalise();
    let mut drift = Scenario {
        name: "drift".into(),
        period: 1.0,
        jobs,
        platform_events: dls_scenario::drift_events(
            &inst.platform,
            &DriftConfig {
                epochs: horizon as usize + 1,
                speed_drift: 0.08,
                local_bw_drift: 0.08,
                backbone_bw_drift: 0.08,
                seed: seed ^ 0x5a5a,
                ..DriftConfig::default()
            },
            1.0,
        ),
    };
    drift.normalise();
    // The failure-domain trace: a round-robin victim crashes every 7
    // periods (in-flight and queued work lost and re-dispatched) and
    // rejoins 3 periods later — the path where the incremental core's
    // retire/purge bookkeeping must stay in lock-step with the
    // full-recompute oracle.
    let mut fault_events = Vec::new();
    let mut victim = 0u32;
    let mut t = 4.0;
    while t + 3.0 < horizon {
        fault_events.push(PlatformEvent {
            time: t,
            change: PlatformChange::ClusterCrash { cluster: victim },
        });
        fault_events.push(PlatformEvent {
            time: t + 3.0,
            change: PlatformChange::ClusterJoin { cluster: victim },
        });
        victim = (victim + 2) % k as u32;
        t += 7.0;
    }
    let mut faulty = Scenario {
        name: "faulty".into(),
        period: 1.0,
        jobs: steady.jobs.clone(),
        platform_events: fault_events,
    };
    faulty.normalise();
    vec![steady, drift, faulty]
}

fn run_pipeline(
    inst: &ProblemInstance,
    scenario: &Scenario,
    warm: bool,
) -> Result<(ScenarioReport, f64, WarmStats), dls_scenario::ScenarioError> {
    let cfg = ScenarioConfig {
        engine: if warm {
            SimEngine::Incremental
        } else {
            SimEngine::FullRecompute
        },
        // Event recording is cheap (a Vec push per delivery/compute) and
        // symmetric, so it stays on in the timed runs: both pipelines pay
        // it, and the traces feed the events_agree cross-check.
        record_events: true,
        ..ScenarioConfig::default()
    };
    // Best of two runs, symmetric for both pipelines. The timer covers
    // policy construction too, so the warm pipeline pays its one-time
    // formulation + factorisation build inside the measured window.
    let mut best = f64::INFINITY;
    let mut report = None;
    let mut warm_stats = WarmStats::default();
    for _ in 0..2 {
        let t0 = Instant::now();
        let mut policy = if warm {
            let resolver =
                Resolver::warm(inst).map_err(|source| dls_scenario::ScenarioError::Policy {
                    epoch: 0,
                    time: 0.0,
                    policy: "periodic(warm-lprg)".into(),
                    source,
                })?;
            PeriodicResolve::new(resolver)
        } else {
            PeriodicResolve::new(Resolver::Cold)
        };
        let r = run_scenario(inst, scenario, &mut policy, &cfg)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if ms < best {
            best = ms;
        }
        report.get_or_insert(r);
        if let Some(w) = policy.resolver_mut().warm_mut() {
            warm_stats = w.stats();
        }
    }
    Ok((report.expect("two runs happened"), best, warm_stats))
}

/// Runs the harness: for each scale, generate platform + traces, replay
/// each trace under both pipelines, and time them.
pub fn run(preset: Preset, seed: u64) -> Result<ScenarioPerfRun, dls_scenario::ScenarioError> {
    let mut entries = Vec::new();
    for &(k, horizon) in scales(preset) {
        let inst = paper_shape_instance(k, seed);
        for scenario in traces(&inst, k, horizon, seed) {
            let (fast, fast_ms, warm_stats) = run_pipeline(&inst, &scenario, true)?;
            let (slow, slow_ms, _) = run_pipeline(&inst, &scenario, false)?;
            let reports_agree = fast.agrees_with(&slow, 1e-6);
            let first_divergence = fast
                .first_event_divergence(&slow, 1e-6)
                .map(|d| d.describe());
            entries.push(ScenarioPerfEntry {
                trace: scenario.name.clone(),
                k,
                jobs: scenario.jobs.len(),
                platform_events: scenario.platform_events.len(),
                periods: fast.periods,
                completed_jobs: fast.completed_jobs,
                makespan: fast.makespan,
                mean_response: fast.mean_response,
                achieved_throughput: fast.achieved_throughput,
                allocated_throughput: fast.allocated_throughput,
                reschedules: fast.reschedules,
                sim_events_fast: fast.sim_events,
                sim_events_slow: slow.sim_events,
                makespan_slow: slow.makespan,
                mean_response_slow: slow.mean_response,
                reports_agree,
                events_agree: first_divergence.is_none(),
                first_divergence,
                warm: warm_stats,
                timing_ms: ScenarioTiming {
                    incremental_warm: fast_ms,
                    full_cold: slow_ms,
                    speedup: ratio(slow_ms, fast_ms),
                },
            });
        }
    }
    let k50_steady_speedup = entries
        .iter()
        .find(|e| e.k == 50 && e.trace == "steady")
        .map(|e| e.timing_ms.speedup);
    Ok(ScenarioPerfRun {
        schema: "dls-bench/scenario/v1",
        preset: preset_name(preset),
        seed,
        entries,
        k50_steady_speedup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_preset_pipelines_agree_and_finish() {
        let run = run(Preset::Quick, 7).unwrap();
        assert_eq!(run.entries.len(), 3);
        // Agreement is required on EVERY trace — the drifting one too.
        // The platform-delta path is exactly where the incremental engine
        // and the warm resolver earn their keep, so it is exactly where
        // divergence must be caught.
        for e in &run.entries {
            assert!(e.jobs > 0);
            assert!(e.reports_agree, "{} pipelines diverged: {e:?}", e.trace);
            assert!(
                e.events_agree,
                "{} event streams diverged at {}",
                e.trace,
                e.first_divergence.as_deref().unwrap_or("?")
            );
            assert_eq!(e.completed_jobs, e.jobs, "{}", e.trace);
        }
        assert_eq!(run.entries[0].trace, "steady");
        assert_eq!(run.entries[1].trace, "drift");
        assert_eq!(run.entries[2].trace, "faulty");
        // The fault trace really crashed clusters (and both pipelines
        // recorded the identical fault log).
        let (k, horizon) = scales(Preset::Quick)[0];
        let inst = paper_shape_instance(k, 7);
        let faulty = &traces(&inst, k, horizon, 7)[2];
        let (fast, _, _) = run_pipeline(&inst, faulty, true).unwrap();
        let (slow, _, _) = run_pipeline(&inst, faulty, false).unwrap();
        assert!(!fast.fault_records().is_empty());
        assert_eq!(fast.fault_records(), slow.fault_records());
        crate::tests::assert_same_artifact(&run, &super::run(Preset::Quick, 7).unwrap());
    }
}
