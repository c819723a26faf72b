//! Parallel sweep execution.
//!
//! Platforms are generated and solved on a std::thread scoped pool;
//! work distribution is a simple atomic cursor over the configuration list.
//! Per-instance seeds are `base_seed + index`, so results are independent of
//! thread count and re-runnable one instance at a time.

use crate::record::RunRecord;
use dls_core::heuristics::{Greedy, Heuristic, Lpr, Lprg, Lprr, UpperBound};
use dls_core::{Objective, ProblemInstance};
use dls_platform::{PlatformConfig, PlatformGenerator};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Which heuristics a sweep evaluates.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HeuristicSet {
    /// The greedy `G`.
    pub greedy: bool,
    /// `LPR` (round-off).
    pub lpr: bool,
    /// `LPRG` (round-off + greedy).
    pub lprg: bool,
    /// `LPRR` (randomized rounding) — ~K² LP solves, expensive.
    pub lprr: bool,
    /// The equal-probability LPRR ablation.
    pub lprr_equal: bool,
}

impl HeuristicSet {
    /// `G`, `LPR`, `LPRG` — the cheap trio used for large sweeps.
    pub fn cheap() -> Self {
        HeuristicSet {
            greedy: true,
            lpr: true,
            lprg: true,
            lprr: false,
            lprr_equal: false,
        }
    }

    /// Everything, including LPRR (for Figure 6/7-scale runs).
    pub fn all() -> Self {
        HeuristicSet {
            greedy: true,
            lpr: true,
            lprg: true,
            lprr: true,
            lprr_equal: false,
        }
    }

    /// Everything plus the LPRR equal-probability ablation.
    pub fn with_ablation() -> Self {
        HeuristicSet {
            lprr_equal: true,
            ..Self::all()
        }
    }
}

/// Sweep settings. (De)serialisable, so sweeps and scenarios are fully
/// configurable from JSON files instead of code-only construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunnerConfig {
    /// Heuristics to evaluate.
    pub heuristics: HeuristicSet,
    /// Objectives to evaluate (each objective is a separate LP).
    pub objectives: Vec<Objective>,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Base seed; instance `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Share one relaxation solve between the bound, LPR and LPRG (3×
    /// faster; identical values). Disable for timing studies (Figure 7),
    /// where each heuristic must pay for its own LP like in the paper.
    pub share_lp_solution: bool,
    /// Application payoffs are drawn from `U[1 − spread, 1 + spread]`
    /// per platform (seeded). The paper leaves its payoffs unstated; with
    /// `spread = 0` (uniform payoffs) and equal cluster speeds both
    /// objectives are degenerate — see `ProblemInstance::uniform` — so the
    /// harness defaults to a moderate spread, which restores the paper's
    /// observed heuristic gaps.
    pub payoff_spread: f64,
    /// Execute the LPRG schedule in the (incremental-engine) simulator and
    /// record the measured/predicted throughput ratio in
    /// [`RunRecord::sim_efficiency`]. Requires `heuristics.lprg` — with
    /// LPRG disabled there is no schedule to execute and the records keep
    /// `sim_efficiency = None`. Off by default — it adds a full simulation
    /// per record.
    pub simulate: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            heuristics: HeuristicSet::cheap(),
            objectives: vec![Objective::Sum, Objective::MaxMin],
            threads: 0,
            base_seed: 42,
            share_lp_solution: true,
            payoff_spread: 0.5,
            simulate: false,
        }
    }
}

/// Runs every heuristic on every `(config, objective)` pair and returns the
/// records sorted by `(seed, objective)`.
pub fn run_sweep(configs: &[PlatformConfig], rc: &RunnerConfig) -> Vec<RunRecord> {
    let threads = if rc.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        rc.threads
    }
    .min(configs.len().max(1));

    let cursor = AtomicUsize::new(0);
    let records: Mutex<Vec<RunRecord>> =
        Mutex::new(Vec::with_capacity(configs.len() * rc.objectives.len()));

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= configs.len() {
                    break;
                }
                let seed = rc.base_seed + i as u64;
                let platform = PlatformGenerator::new(seed).generate(&configs[i]);
                let mut local = Vec::with_capacity(rc.objectives.len());
                for &objective in &rc.objectives {
                    let inst = with_payoffs(platform.clone(), objective, rc.payoff_spread, seed);
                    local.push(evaluate_instance(&inst, seed, &configs[i], rc));
                }
                records.lock().extend(local);
            });
        }
    });

    let mut out = records.into_inner();
    out.sort_by_key(|r| (r.seed, matches!(r.objective, Objective::MaxMin)));
    out
}

/// The instance a sweep evaluates for the platform drawn with `seed`.
/// The payoff stream is decoupled from the topology stream, so the same
/// platform gets the same payoffs under both objectives.
fn with_payoffs(
    platform: dls_platform::Platform,
    objective: Objective,
    payoff_spread: f64,
    seed: u64,
) -> ProblemInstance {
    ProblemInstance::with_spread_payoffs(
        platform,
        objective,
        payoff_spread,
        seed ^ 0x9e37_79b9_7f4a_7c15,
    )
}

/// The instance behind a sweep's record of `(config, seed, objective)`,
/// rebuilt on its own: what [`run_sweep`] evaluated under `payoff_spread`.
pub fn sweep_instance(
    config: &PlatformConfig,
    seed: u64,
    objective: Objective,
    payoff_spread: f64,
) -> ProblemInstance {
    with_payoffs(
        PlatformGenerator::new(seed).generate(config),
        objective,
        payoff_spread,
        seed,
    )
}

fn evaluate_instance(
    inst: &ProblemInstance,
    seed: u64,
    config: &PlatformConfig,
    rc: &RunnerConfig,
) -> RunRecord {
    let t0 = Instant::now();
    let relaxed = UpperBound
        .solve_fractional(inst)
        .expect("relaxation solves on well-formed instances");
    let bound = relaxed.objective;
    let bound_ms = t0.elapsed().as_secs_f64() * 1e3;

    let hs = rc.heuristics;
    let mut values = Vec::new();
    let mut times_ms = Vec::new();
    let mut record = |name: &str, alloc: &dls_core::Allocation, elapsed_ms: f64| {
        debug_assert!(
            alloc.validate(inst).is_ok(),
            "{name} produced an invalid allocation: {:?}",
            alloc.violations(inst)
        );
        values.push((name.to_string(), alloc.objective_value(inst)));
        times_ms.push((name.to_string(), elapsed_ms));
    };
    // The LPRG allocation is kept around when the sweep also executes the
    // schedule in the simulator.
    let mut lprg_alloc = None;

    if hs.greedy {
        let t = Instant::now();
        let alloc = Greedy.solve(inst).expect("G always solves");
        record("G", &alloc, t.elapsed().as_secs_f64() * 1e3);
    }
    if rc.share_lp_solution {
        // One relaxation (already solved above) backs LPR and LPRG.
        if hs.lpr {
            let t = Instant::now();
            let alloc = Lpr::from_relaxation(inst, &relaxed);
            record("LPR", &alloc, bound_ms + t.elapsed().as_secs_f64() * 1e3);
        }
        if hs.lprg {
            let t = Instant::now();
            let alloc = Lprg.from_relaxation(inst, &relaxed);
            record("LPRG", &alloc, bound_ms + t.elapsed().as_secs_f64() * 1e3);
            lprg_alloc = Some(alloc);
        }
    } else {
        if hs.lpr {
            let t = Instant::now();
            let alloc = Lpr.solve(inst).expect("LPR always solves");
            record("LPR", &alloc, t.elapsed().as_secs_f64() * 1e3);
        }
        if hs.lprg {
            let t = Instant::now();
            let alloc = Lprg.solve(inst).expect("LPRG always solves");
            record("LPRG", &alloc, t.elapsed().as_secs_f64() * 1e3);
            lprg_alloc = Some(alloc);
        }
    }
    if hs.lprr {
        let t = Instant::now();
        let alloc = Lprr::new(seed).solve(inst).expect("LPRR always solves");
        record("LPRR", &alloc, t.elapsed().as_secs_f64() * 1e3);
    }
    if hs.lprr_equal {
        let t = Instant::now();
        let alloc = Lprr::equal_probability(seed)
            .solve(inst)
            .expect("LPRR-EQ always solves");
        record("LPRR-EQ", &alloc, t.elapsed().as_secs_f64() * 1e3);
    }

    // Optional execution check: run the LPRG schedule through the
    // incremental simulation engine and keep the measured efficiency.
    let sim_efficiency = if rc.simulate {
        lprg_alloc.as_ref().map(|alloc| {
            let schedule = dls_core::schedule::ScheduleBuilder::default()
                .build(inst, alloc)
                .expect("valid allocations reconstruct");
            let report = dls_sim::Simulator::new(inst).run(
                &schedule,
                &dls_sim::SimConfig {
                    periods: 8,
                    ..dls_sim::SimConfig::default()
                },
            );
            report.efficiency
        })
    } else {
        None
    };

    RunRecord {
        seed,
        config: config.clone(),
        objective: inst.objective,
        bound,
        bound_ms,
        values,
        times_ms,
        sim_efficiency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_configs(n: usize) -> Vec<PlatformConfig> {
        (0..n)
            .map(|i| PlatformConfig {
                num_clusters: 3 + i % 3,
                connectivity: 0.5,
                ..PlatformConfig::default()
            })
            .collect()
    }

    #[test]
    fn sweep_produces_one_record_per_config_objective() {
        let configs = small_configs(4);
        let records = run_sweep(&configs, &RunnerConfig::default());
        assert_eq!(records.len(), 8);
        for r in &records {
            assert!(r.bound > 0.0);
            assert!(r.value("G").is_some());
            assert!(r.value("LPR").is_some());
            assert!(r.value("LPRG").is_some());
            assert!(r.value("LPRR").is_none()); // cheap set
                                                // Dominance sanity: LPR ≤ LPRG ≤ bound.
            let lpr = r.value("LPR").unwrap();
            let lprg = r.value("LPRG").unwrap();
            assert!(lpr <= lprg + 1e-6);
            assert!(lprg <= r.bound + 1e-5 * (1.0 + r.bound));
        }
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let configs = small_configs(6);
        let one = run_sweep(
            &configs,
            &RunnerConfig {
                threads: 1,
                ..RunnerConfig::default()
            },
        );
        let many = run_sweep(
            &configs,
            &RunnerConfig {
                threads: 4,
                ..RunnerConfig::default()
            },
        );
        assert_eq!(one.len(), many.len());
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.objective, b.objective);
            assert_eq!(a.values, b.values);
            assert_eq!(a.bound, b.bound);
        }
    }

    #[test]
    fn simulate_records_lprg_execution_efficiency() {
        let configs = small_configs(2);
        let records = run_sweep(
            &configs,
            &RunnerConfig {
                simulate: true,
                objectives: vec![Objective::MaxMin],
                ..RunnerConfig::default()
            },
        );
        assert_eq!(records.len(), 2);
        for r in &records {
            let eff = r.sim_efficiency.expect("simulate records efficiency");
            assert!(
                (0.5..=1.5).contains(&eff),
                "implausible sim efficiency {eff}"
            );
        }
        // Off by default.
        let plain = run_sweep(&configs, &RunnerConfig::default());
        assert!(plain.iter().all(|r| r.sim_efficiency.is_none()));
    }

    #[test]
    fn runner_config_round_trips_through_json() {
        let cfg = RunnerConfig {
            heuristics: HeuristicSet::with_ablation(),
            objectives: vec![Objective::MaxMin],
            threads: 2,
            base_seed: 7,
            share_lp_solution: false,
            payoff_spread: 0.25,
            simulate: true,
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: RunnerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
        // And a hand-written JSON config drives a real sweep.
        let hand = r#"{
            "heuristics": {"greedy": true, "lpr": false, "lprg": true,
                           "lprr": false, "lprr_equal": false},
            "objectives": ["Sum"],
            "threads": 1,
            "base_seed": 1,
            "share_lp_solution": true,
            "payoff_spread": 0.5,
            "simulate": false
        }"#;
        let parsed: RunnerConfig = serde_json::from_str(hand).unwrap();
        assert_eq!(parsed.objectives, vec![Objective::Sum]);
        let records = run_sweep(&small_configs(1), &parsed);
        assert!(!records.is_empty());
        assert!(records[0].value("G").is_some());
    }

    #[test]
    fn lprr_included_when_requested() {
        let configs = small_configs(1);
        let records = run_sweep(
            &configs,
            &RunnerConfig {
                heuristics: HeuristicSet::with_ablation(),
                objectives: vec![Objective::MaxMin],
                ..RunnerConfig::default()
            },
        );
        assert_eq!(records.len(), 1);
        assert!(records[0].value("LPRR").is_some());
        assert!(records[0].value("LPRR-EQ").is_some());
    }
}
