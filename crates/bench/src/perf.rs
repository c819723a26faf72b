//! Deterministic perf-trajectory harness for the simulation core.
//!
//! Times a seeded heuristic + simulation workload at several platform
//! scales, executing every schedule under **both** engine cores —
//! [`SimEngine::Incremental`] and the retained [`SimEngine::FullRecompute`]
//! slow path — in the same process; [`PerfRun`] is `BENCH_sim.json`.
//!
//! Everything in the output except the timings is deterministic for a
//! fixed `--seed`: platform generation, the heuristic allocation, the
//! schedule, both engines' event counts and measured efficiencies, and the
//! incremental run's bandwidth-allocator counters.

use crate::{preset_name, ratio, timed};
use dls_core::heuristics::{Greedy, Heuristic};
use dls_core::schedule::ScheduleBuilder;
use dls_core::{Objective, ProblemInstance};
use dls_experiments::Preset;
use dls_platform::{PlatformConfig, PlatformGenerator};
use dls_sim::{AllocStats, SimConfig, SimEngine, Simulator};
use serde::Serialize;
use std::time::Instant;

/// Simulated periods per workload (warmup 2, like the default [`SimConfig`]).
pub const PERIODS: usize = 12;

/// Cluster counts exercised per preset. `paper-shape` tops out at the
/// paper's K ≈ 95; `full` extrapolates beyond it.
pub fn cluster_counts(preset: Preset) -> &'static [usize] {
    match preset {
        Preset::Quick => &[20],
        Preset::PaperShape => &[20, 50, 95],
        Preset::Full => &[20, 50, 95, 200],
    }
}

/// Measurements for one platform scale.
#[derive(Debug, Clone, Serialize)]
pub struct PerfEntry {
    /// Number of clusters.
    pub k: usize,
    /// Platform-generation seed.
    pub platform_seed: u64,
    /// Transfers spawned per period (flows alive right after a boundary).
    pub transfers_per_period: usize,
    /// Events processed by the incremental engine.
    pub events_incremental: u64,
    /// Events processed by the full-recompute engine.
    pub events_full: u64,
    /// Measured/predicted throughput ratio under the incremental engine.
    pub efficiency_incremental: f64,
    /// Same, under the retained slow path.
    pub efficiency_full: f64,
    /// `true` iff both engines processed the same number of events *and*
    /// agreed on efficiency within 1e-6 relative.
    pub engines_agree: bool,
    /// The incremental run's bandwidth-allocator stage counters (boundary
    /// solves = memo hits + misses).
    pub alloc: AllocStats,
    /// Wall-clocks, milliseconds.
    pub timing_ms: SimTiming,
}

/// Wall-clocks of one [`PerfEntry`], milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct SimTiming {
    /// The Greedy heuristic solve.
    pub heuristic: f64,
    /// Incremental engine (best of two runs).
    pub sim_incremental: f64,
    /// Full-recompute engine (best of two runs).
    pub sim_full: f64,
    /// `sim_full / sim_incremental`.
    pub speedup: f64,
}

/// One full harness run: `BENCH_sim.json`.
#[derive(Debug, Clone, Serialize)]
pub struct PerfRun {
    /// Artifact schema tag.
    pub schema: &'static str,
    /// Preset the run was generated with.
    pub preset: &'static str,
    /// Base seed.
    pub seed: u64,
    /// One entry per platform scale.
    pub entries: Vec<PerfEntry>,
    /// Simulated periods per workload.
    pub periods: usize,
    /// Speedup at the paper's flagship K = 95 scale, if it was run.
    pub k95_speedup: Option<f64>,
}

pub(crate) fn paper_shape_config(k: usize) -> PlatformConfig {
    // The Table 1 centre of the paper's parameter grid, at scale `k`.
    PlatformConfig {
        num_clusters: k,
        connectivity: 0.4,
        heterogeneity: 0.4,
        mean_local_bw: 250.0,
        mean_backbone_bw: 30.0,
        mean_max_connections: 15.0,
        speed: 100.0,
        relay_routers: 0,
    }
}

/// Runs the harness: for each scale, generate → solve (Greedy) → schedule →
/// simulate under both engines, timing each stage.
pub fn run(preset: Preset, seed: u64) -> PerfRun {
    let mut entries = Vec::new();
    for &k in cluster_counts(preset) {
        let cfg = paper_shape_config(k);
        let platform = PlatformGenerator::new(seed).generate(&cfg);
        // Spread payoffs, like the experiments runner: uniform payoffs on a
        // homogeneous-speed platform are degenerate (everything stays
        // local) and would leave the simulator with zero flows.
        let inst = ProblemInstance::with_spread_payoffs(
            platform,
            Objective::MaxMin,
            0.5,
            seed ^ 0x9e37_79b9_7f4a_7c15,
        );

        let t0 = Instant::now();
        let alloc = Greedy.solve(&inst).expect("Greedy always solves");
        let heuristic_ms = t0.elapsed().as_secs_f64() * 1e3;
        let schedule = ScheduleBuilder::default()
            .build(&inst, &alloc)
            .expect("valid allocations reconstruct");

        let sim = Simulator::new(&inst);
        let incremental_cfg = SimConfig {
            periods: PERIODS,
            ..SimConfig::default()
        };
        let full_cfg = SimConfig {
            engine: SimEngine::FullRecompute,
            ..incremental_cfg.clone()
        };

        // Symmetric methodology: best-of-two runs for *both* engines, so a
        // one-off scheduler hiccup or cold cache cannot bias the speedup in
        // either direction.
        let ((fast_report, alloc), incremental_ms) = {
            let (r1, m1) = timed(|| sim.run_counted(&schedule, &incremental_cfg));
            let (_r2, m2) = timed(|| sim.run(&schedule, &incremental_cfg));
            (r1, m1.min(m2))
        };
        let (full_report, full_ms) = {
            let (r1, m1) = timed(|| sim.run(&schedule, &full_cfg));
            let (_r2, m2) = timed(|| sim.run(&schedule, &full_cfg));
            (r1, m1.min(m2))
        };

        // Same workload (event-for-event) and same observed execution.
        let engines_agree = fast_report.events == full_report.events
            && dls_core::approx::close(fast_report.efficiency, full_report.efficiency, 1e-6);
        entries.push(PerfEntry {
            k,
            platform_seed: seed,
            transfers_per_period: schedule.transfers.len(),
            events_incremental: fast_report.events,
            events_full: full_report.events,
            efficiency_incremental: fast_report.efficiency,
            efficiency_full: full_report.efficiency,
            engines_agree,
            alloc,
            timing_ms: SimTiming {
                heuristic: heuristic_ms,
                sim_incremental: incremental_ms,
                sim_full: full_ms,
                speedup: ratio(full_ms, incremental_ms),
            },
        });
    }
    let k95_speedup = entries
        .iter()
        .find(|e| e.k == 95)
        .map(|e| e.timing_ms.speedup);
    PerfRun {
        schema: "dls-bench/perf/v1",
        preset: preset_name(preset),
        seed,
        entries,
        periods: PERIODS,
        k95_speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_preset_is_deterministic_and_consistent() {
        let a = run(Preset::Quick, 7);
        let e = &a.entries[0];
        assert_eq!((a.entries.len(), e.k), (1, 20));
        assert!(e.engines_agree, "engines diverged: {e:?}");
        assert!(e.alloc.memo_hits > 0, "{:?}", e.alloc);
        crate::tests::assert_same_artifact(&a, &run(Preset::Quick, 7));
    }
}
