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
//! Both land in `BENCH_scenario.json` next to the wall-clock speedup so
//! the perf trajectory is tracked across PRs, and `perf_scenario` exits
//! non-zero when any trace disagrees.

use crate::preset_name;
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
use std::fmt::Write as _;
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

/// Measurements for one trace × pipeline pair.
#[derive(Debug, Clone)]
pub struct ScenarioPerfEntry {
    /// Trace name (`steady`, `drift` or `faulty`).
    pub trace: String,
    /// Cluster count.
    pub k: usize,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Platform events in the trace.
    pub platform_events: usize,
    /// Report of the incremental + warm pipeline.
    pub fast: ScenarioReport,
    /// Report of the full-recompute + cold pipeline.
    pub slow: ScenarioReport,
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
    /// Incremental + warm wall-clock, milliseconds (best of two).
    pub fast_ms: f64,
    /// Full + cold wall-clock, milliseconds (best of two).
    pub slow_ms: f64,
    /// `slow_ms / fast_ms`.
    pub speedup: f64,
    /// The warm pipeline's cumulative LP counters over one replay (patch,
    /// flush, repair and pivot counts — deterministic per seed). Terminal
    /// summary only; the JSON schema is unchanged.
    pub warm_stats: WarmStats,
}

/// One full harness run.
#[derive(Debug, Clone)]
pub struct ScenarioPerfRun {
    /// Preset the run was generated with.
    pub preset: Preset,
    /// Base seed.
    pub seed: u64,
    /// One entry per trace × scale.
    pub entries: Vec<ScenarioPerfEntry>,
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
            let events_agree = first_divergence.is_none();
            entries.push(ScenarioPerfEntry {
                trace: scenario.name.clone(),
                k,
                jobs: scenario.jobs.len(),
                platform_events: scenario.platform_events.len(),
                fast,
                slow,
                reports_agree,
                events_agree,
                first_divergence,
                fast_ms,
                slow_ms,
                speedup: if fast_ms > 0.0 {
                    slow_ms / fast_ms
                } else {
                    f64::INFINITY
                },
                warm_stats,
            });
        }
    }
    Ok(ScenarioPerfRun {
        preset,
        seed,
        entries,
    })
}

impl ScenarioPerfRun {
    /// `true` iff every trace's pipelines agreed on both the aggregate
    /// report and the event stream. The perf bin refuses to publish an
    /// artifact where this is false.
    pub fn all_agree(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.reports_agree && e.events_agree)
    }

    /// One line per disagreeing trace, for error output.
    pub fn disagreements(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| !(e.reports_agree && e.events_agree))
            .map(|e| {
                format!(
                    "{} (K = {}): reports_agree = {}, events_agree = {}{}",
                    e.trace,
                    e.k,
                    e.reports_agree,
                    e.events_agree,
                    e.first_divergence
                        .as_deref()
                        .map(|d| format!("; first divergence at {d}"))
                        .unwrap_or_default()
                )
            })
            .collect()
    }

    /// Speedup of the flagship `steady` trace at K = 50, if present.
    pub fn k50_steady_speedup(&self) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.k == 50 && e.trace == "steady")
            .map(|e| e.speedup)
    }

    /// Human-readable table for the terminal.
    pub fn text_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scenario perf (preset {}, seed {}; incremental+warm vs full+cold)",
            preset_name(self.preset),
            self.seed,
        );
        let _ = writeln!(
            out,
            "{:>8} {:>4} {:>6} {:>8} {:>10} {:>10} {:>9}  agree",
            "trace", "K", "jobs", "events", "fast ms", "slow ms", "speedup"
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{:>8} {:>4} {:>6} {:>8} {:>10.1} {:>10.1} {:>8.1}x  {}",
                e.trace,
                e.k,
                e.jobs,
                e.fast.sim_events,
                e.fast_ms,
                e.slow_ms,
                e.speedup,
                match (e.reports_agree, e.events_agree) {
                    (true, true) => "yes",
                    (false, _) => "NO (reports)",
                    (true, false) => "NO (events)",
                }
            );
        }
        if let Some(s) = self.k50_steady_speedup() {
            let _ = writeln!(out, "K = 50 steady speedup: {s:.1}x");
        }
        let _ = writeln!(out, "warm LP counters per replay:");
        for e in &self.entries {
            let s = &e.warm_stats;
            let _ = writeln!(
                out,
                "{:>8} K={}: solves {} (cold {}), b_patches {}, xb_flushes {}, rank1_repairs {}, \
                 evictions {}, refactorisations {}, dual/primal pivots {}/{}",
                e.trace,
                e.k,
                s.solves,
                s.cold_solves,
                s.b_patches,
                s.xb_flushes,
                s.rank1_repairs,
                s.evictions,
                s.refactorisations,
                s.dual_pivots,
                s.primal_pivots,
            );
        }
        out
    }

    /// Renders `BENCH_scenario.json` (stable key order; only the timing
    /// fields vary between runs with the same seed).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"dls-bench/scenario/v1\",");
        let _ = writeln!(out, "  \"preset\": \"{}\",", preset_name(self.preset));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"trace\": \"{}\",", e.trace);
            let _ = writeln!(out, "      \"k\": {},", e.k);
            let _ = writeln!(out, "      \"jobs\": {},", e.jobs);
            let _ = writeln!(out, "      \"platform_events\": {},", e.platform_events);
            let _ = writeln!(out, "      \"periods\": {},", e.fast.periods);
            let _ = writeln!(out, "      \"completed_jobs\": {},", e.fast.completed_jobs);
            let _ = writeln!(out, "      \"makespan\": {:.9},", e.fast.makespan);
            let _ = writeln!(out, "      \"mean_response\": {:.9},", e.fast.mean_response);
            let _ = writeln!(
                out,
                "      \"achieved_throughput\": {:.9},",
                e.fast.achieved_throughput
            );
            let _ = writeln!(
                out,
                "      \"allocated_throughput\": {:.9},",
                e.fast.allocated_throughput
            );
            let _ = writeln!(out, "      \"reschedules\": {},", e.fast.reschedules);
            let _ = writeln!(out, "      \"sim_events_fast\": {},", e.fast.sim_events);
            let _ = writeln!(out, "      \"sim_events_slow\": {},", e.slow.sim_events);
            let _ = writeln!(out, "      \"makespan_slow\": {:.9},", e.slow.makespan);
            let _ = writeln!(
                out,
                "      \"mean_response_slow\": {:.9},",
                e.slow.mean_response
            );
            let _ = writeln!(out, "      \"reports_agree\": {},", e.reports_agree);
            let _ = writeln!(out, "      \"events_agree\": {},", e.events_agree);
            match &e.first_divergence {
                Some(d) => {
                    let _ = writeln!(
                        out,
                        "      \"first_divergence\": \"{}\",",
                        d.replace('\\', "\\\\").replace('"', "\\\"")
                    );
                }
                None => {
                    let _ = writeln!(out, "      \"first_divergence\": null,");
                }
            }
            let _ = writeln!(out, "      \"timing_ms\": {{");
            let _ = writeln!(out, "        \"incremental_warm\": {:.3},", e.fast_ms);
            let _ = writeln!(out, "        \"full_cold\": {:.3},", e.slow_ms);
            let _ = writeln!(out, "        \"speedup\": {:.3}", e.speedup);
            out.push_str("      }\n");
            out.push_str(if i + 1 == self.entries.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ],\n");
        match self.k50_steady_speedup() {
            Some(s) => {
                let _ = writeln!(out, "  \"k50_steady_speedup\": {s:.3}");
            }
            None => {
                let _ = writeln!(out, "  \"k50_steady_speedup\": null");
            }
        }
        out.push_str("}\n");
        out
    }
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
            assert!(
                e.reports_agree,
                "{} pipelines diverged:\n{}\n{}",
                e.trace,
                e.fast.summary(),
                e.slow.summary()
            );
            assert!(
                e.events_agree,
                "{} event streams diverged at {}",
                e.trace,
                e.first_divergence.as_deref().unwrap_or("?")
            );
            assert_eq!(e.fast.completed_jobs, e.fast.jobs, "{}", e.trace);
        }
        assert_eq!(run.entries[0].trace, "steady");
        assert_eq!(run.entries[1].trace, "drift");
        assert_eq!(run.entries[2].trace, "faulty");
        // The fault trace really crashed clusters (and both pipelines
        // recorded the identical fault log).
        let faulty = &run.entries[2];
        assert!(!faulty.fast.fault_records().is_empty());
        assert_eq!(faulty.fast.fault_records(), faulty.slow.fault_records());
        assert!(run.all_agree());
        assert!(run.disagreements().is_empty());
        // The JSON is well-formed enough to embed in the artifact.
        let json = run.to_json();
        assert!(json.contains("\"schema\": \"dls-bench/scenario/v1\""));
        assert!(json.contains("\"reports_agree\""));
        assert!(json.contains("\"events_agree\": true"));
        assert!(json.contains("\"first_divergence\": null"));
    }
}
