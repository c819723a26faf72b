//! Deterministic perf-trajectory harness for the simulation core.
//!
//! Times a seeded heuristic + simulation workload at several platform
//! scales, executing every schedule under **both** engine cores —
//! [`SimEngine::Incremental`] and the retained [`SimEngine::FullRecompute`]
//! slow path — in the same process, and renders the result as
//! `BENCH_sim.json` so the repository keeps a perf trajectory across PRs.
//!
//! Everything in the output except the `timing_ms` blocks is deterministic
//! for a fixed `--seed`: platform generation, the heuristic allocation, the
//! schedule, and both engines' event counts and measured efficiencies.

use crate::{preset_name, timed};
use dls_core::heuristics::{Greedy, Heuristic};
use dls_core::schedule::ScheduleBuilder;
use dls_core::{Objective, ProblemInstance};
use dls_experiments::Preset;
use dls_platform::{PlatformConfig, PlatformGenerator};
use dls_sim::{AllocStats, SimConfig, SimEngine, Simulator};
use std::fmt::Write as _;
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
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Number of clusters.
    pub k: usize,
    /// Platform-generation seed.
    pub platform_seed: u64,
    /// Wall-clock of the Greedy heuristic solve, milliseconds.
    pub heuristic_ms: f64,
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
    /// Incremental-engine wall-clock, milliseconds (best of two runs).
    pub incremental_ms: f64,
    /// Full-recompute wall-clock, milliseconds (best of two runs).
    pub full_ms: f64,
    /// `full_ms / incremental_ms`.
    pub speedup: f64,
    /// The incremental run's bandwidth-allocator stage counters (printed by
    /// [`PerfRun::text_summary`]; not part of the JSON schema).
    pub alloc: AllocStats,
}

/// One full harness run.
#[derive(Debug, Clone)]
pub struct PerfRun {
    /// Preset the run was generated with.
    pub preset: Preset,
    /// Base seed.
    pub seed: u64,
    /// One entry per platform scale.
    pub entries: Vec<PerfEntry>,
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
        let alloc = Greedy::default()
            .solve(&inst)
            .expect("Greedy always solves");
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
            heuristic_ms,
            transfers_per_period: schedule.transfers.len(),
            events_incremental: fast_report.events,
            events_full: full_report.events,
            efficiency_incremental: fast_report.efficiency,
            efficiency_full: full_report.efficiency,
            engines_agree,
            incremental_ms,
            full_ms,
            speedup: if incremental_ms > 0.0 {
                full_ms / incremental_ms
            } else {
                f64::INFINITY
            },
            alloc,
        });
    }
    PerfRun {
        preset,
        seed,
        entries,
    }
}

impl PerfRun {
    /// Speedup measured at the paper's flagship K = 95 scale, if that scale
    /// was part of the run.
    pub fn k95_speedup(&self) -> Option<f64> {
        self.entries.iter().find(|e| e.k == 95).map(|e| e.speedup)
    }

    /// Human-readable table for the terminal.
    pub fn text_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf trajectory (preset {}, seed {}, {} periods; \
             incremental vs retained full-recompute engine)",
            preset_name(self.preset),
            self.seed,
            PERIODS
        );
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>9} {:>12} {:>12} {:>9}  agree",
            "K", "transfers", "events", "inc ms", "full ms", "speedup"
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{:>5} {:>10} {:>9} {:>12.2} {:>12.2} {:>8.1}x  {}",
                e.k,
                e.transfers_per_period,
                e.events_incremental,
                e.incremental_ms,
                e.full_ms,
                e.speedup,
                if e.engines_agree { "yes" } else { "NO" }
            );
        }
        if let Some(s) = self.k95_speedup() {
            let _ = writeln!(out, "K = 95 speedup: {s:.1}x");
        }
        let _ = writeln!(
            out,
            "bandwidth allocator stages, incremental run \
             (boundary solves = memo hits + misses):"
        );
        let _ = writeln!(
            out,
            "{:>5} {:>9} {:>12} {:>15} {:>10} {:>12}",
            "K", "updates", "subproblems", "filling rounds", "memo hits", "memo misses"
        );
        for e in &self.entries {
            let a = &e.alloc;
            let _ = writeln!(
                out,
                "{:>5} {:>9} {:>12} {:>15} {:>10} {:>12}",
                e.k, a.updates, a.subproblems, a.filling_rounds, a.memo_hits, a.memo_misses
            );
        }
        out
    }

    /// Renders `BENCH_sim.json` (stable key order; only the `timing_ms`
    /// blocks vary between runs with the same seed).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"dls-bench/perf/v1\",");
        let _ = writeln!(out, "  \"preset\": \"{}\",", preset_name(self.preset));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"periods\": {},", PERIODS);
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"k\": {},", e.k);
            let _ = writeln!(out, "      \"platform_seed\": {},", e.platform_seed);
            let _ = writeln!(
                out,
                "      \"transfers_per_period\": {},",
                e.transfers_per_period
            );
            let _ = writeln!(
                out,
                "      \"events_incremental\": {},",
                e.events_incremental
            );
            let _ = writeln!(out, "      \"events_full\": {},", e.events_full);
            let _ = writeln!(
                out,
                "      \"efficiency_incremental\": {:.9},",
                e.efficiency_incremental
            );
            let _ = writeln!(out, "      \"efficiency_full\": {:.9},", e.efficiency_full);
            let _ = writeln!(out, "      \"engines_agree\": {},", e.engines_agree);
            let _ = writeln!(out, "      \"timing_ms\": {{");
            let _ = writeln!(out, "        \"heuristic\": {:.3},", e.heuristic_ms);
            let _ = writeln!(out, "        \"sim_incremental\": {:.3},", e.incremental_ms);
            let _ = writeln!(out, "        \"sim_full\": {:.3},", e.full_ms);
            let _ = writeln!(out, "        \"speedup\": {:.3}", e.speedup);
            out.push_str("      }\n");
            out.push_str(if i + 1 == self.entries.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ],\n");
        match self.k95_speedup() {
            Some(s) => {
                let _ = writeln!(out, "  \"k95_speedup\": {s:.3}");
            }
            None => {
                let _ = writeln!(out, "  \"k95_speedup\": null");
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
    fn quick_preset_is_deterministic_and_consistent() {
        let a = run(Preset::Quick, 7);
        let b = run(Preset::Quick, 7);
        assert_eq!(a.entries.len(), 1);
        let (ea, eb) = (&a.entries[0], &b.entries[0]);
        assert_eq!(ea.k, 20);
        assert!(ea.engines_agree, "engines diverged: {ea:?}");
        // Everything except wall-clock is reproducible.
        assert_eq!(ea.transfers_per_period, eb.transfers_per_period);
        assert_eq!(ea.events_incremental, eb.events_incremental);
        assert_eq!(ea.events_full, eb.events_full);
        assert_eq!(ea.efficiency_incremental, eb.efficiency_incremental);
        assert_eq!(ea.efficiency_full, eb.efficiency_full);
        assert_eq!(ea.alloc, eb.alloc);
        assert!(ea.alloc.memo_hits > 0, "{:?}", ea.alloc);
        // And the JSON only differs in the timing blocks.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| {
                    !l.contains("\"heuristic\"")
                        && !l.contains("\"sim_incremental\"")
                        && !l.contains("\"sim_full\"")
                        && !l.contains("\"speedup\"")
                        && !l.contains("\"k95_speedup\"")
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&a.to_json()), strip(&b.to_json()));
    }
}
