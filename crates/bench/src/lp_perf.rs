//! LP-pipeline perf suite: warm-started vs cold LPRR/B&B solves.
//!
//! §5.2.3's LPRR performs ~K² LP solves per instance; this harness measures
//! exactly that inner loop. A deterministic, LP-independent pin sequence is
//! generated once per scale (so both pipelines solve *identical* model
//! sequences), then replayed twice:
//!
//! * **cold** — the reference path: rebuild `relaxation_with_fixed` and
//!   two-phase-solve it from scratch for every pin, with the engine
//!   resolved once per instance (exactly what `Lprr { warm: false }` does);
//! * **warm** — the incremental path: one `relaxation_warm` formulation,
//!   `pin_beta` deltas, and a persistent [`WarmSimplex`] that repairs the
//!   previous optimal basis with dual pivots.
//!
//! Every step's LP objective is cross-checked between the two pipelines
//! (`objectives_agree`), and a branch-and-bound section times warm (parent
//! basis inheritance) vs cold node solves on the exact mixed program. An
//! ungated `crossover` section times one cold solve per engine (dense
//! tableau, dense-inverse revised, sparse-LU revised) across K: the table
//! `dls_lp::AUTO_DENSE_LIMIT` is read from. [`LpPerfRun`] is
//! `BENCH_lp.json`.
//!
//! Every scale replays [`paper_shape_instance`]: its spread payoffs make
//! pins bind (with uniform payoffs every cluster serves its own
//! application locally, no transfer pays off, and the replay would time
//! trivially-warm solves).

use crate::{preset_name, ratio, timed};
use dls_core::heuristics::{Lprr, PinSweepReport};
use dls_core::{paper_shape_instance, LpFormulation, ProblemInstance};
use dls_experiments::Preset;
use dls_lp::{
    resolve_engine, solve_with, tableau_size, BasisRepr, BranchBound, BranchBoundConfig,
    DenseSimplex, Engine, FactorStats, Model, RevisedSimplex, Solution, Status, WarmSimplex,
    WarmStats,
};
use dls_platform::ClusterId;
use dls_scenario::catalog::{island_instance, ISLAND};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

/// Cluster counts for the LPRR replay, per preset. The paper caps LPRR at
/// small K because of exactly this cost; K = 35 is ~1200 LP solves.
pub fn cluster_counts(preset: Preset) -> &'static [usize] {
    match preset {
        Preset::Quick => &[10],
        Preset::PaperShape | Preset::Full => &[10, 20, 35],
    }
}

/// Cluster counts for the branch-and-bound section (exact MILP; tiny K).
pub fn bnb_cluster_counts(preset: Preset) -> &'static [usize] {
    match preset {
        Preset::Quick => &[3],
        Preset::PaperShape | Preset::Full => &[3, 4],
    }
}

/// Cluster counts for the engine crossover table: the paper-shape rows
/// bracket `dls_lp::AUTO_DENSE_LIMIT`, quick keeps the sub-millisecond
/// prefix.
pub fn crossover_cluster_counts(preset: Preset) -> &'static [usize] {
    match preset {
        Preset::Quick => &[5, 8, 10],
        Preset::PaperShape | Preset::Full => &[5, 8, 10, 15, 20, 25, 35, 50],
    }
}

/// Cluster counts for the sparse-scaling section. The tentpole target:
/// K = 5000 must cold-solve in time sub-quadratic in K, two orders of
/// magnitude past the dense engine's K ≈ 35 ceiling.
pub fn sparse_cluster_counts(preset: Preset) -> &'static [usize] {
    match preset {
        Preset::Quick => &[200],
        Preset::PaperShape | Preset::Full => &[200, 1000, 5000],
    }
}

/// One pinned route: `(from, to, β)`.
pub type Pin = (ClusterId, ClusterId, u32);

/// Deterministic LPRR-style pin sequence over every pinnable route,
/// respecting the per-link connection budgets (so every prefix is feasible)
/// but independent of any LP solution — both replay pipelines therefore
/// solve the same models.
pub fn pin_sequence(inst: &ProblemInstance, seed: u64) -> Vec<Pin> {
    let p = &inst.platform;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut pinnable: Vec<(ClusterId, ClusterId)> = Vec::new();
    for from in p.cluster_ids() {
        for to in p.cluster_ids() {
            if from != to
                && p.route_bottleneck_bw(from, to)
                    .is_some_and(|bw| bw.is_finite())
            {
                pinnable.push((from, to));
            }
        }
    }
    let mut budgets: Vec<i64> = p.links.iter().map(|l| l.max_connections as i64).collect();
    let mut pins = Vec::with_capacity(pinnable.len());
    while !pinnable.is_empty() {
        let (from, to) = pinnable.swap_remove(rng.gen_range(0..pinnable.len()));
        let route = p.route(from, to).expect("pinnable pair has a route");
        let budget = route
            .iter()
            .map(|l| budgets[l.index()])
            .min()
            .unwrap_or(0)
            .max(0);
        let v = rng.gen_range(0..=budget.min(3)) as u32;
        for l in route {
            budgets[l.index()] -= v as i64;
        }
        pins.push((from, to, v));
    }
    pins
}

/// Cold reference replay: rebuild + solve `relaxation_with_fixed` for every
/// pin prefix. Returns the per-step LP objectives.
pub fn replay_cold(inst: &ProblemInstance, pins: &[Pin]) -> Vec<f64> {
    let k = inst.platform.num_clusters();
    let engine = resolve_engine(&LpFormulation::relaxation(inst).expect("relaxation").model);
    let mut fixed: Vec<Option<u32>> = vec![None; k * k];
    let mut objectives = Vec::with_capacity(pins.len() + 1);
    for step in 0..=pins.len() {
        if step > 0 {
            let (from, to, v) = pins[step - 1];
            fixed[from.index() * k + to.index()] = Some(v);
        }
        let f = LpFormulation::relaxation_with_fixed(inst, &fixed).expect("formulation");
        let sol = solve_with(&f.model, engine).expect("cold solve");
        assert_eq!(sol.status, Status::Optimal, "cold solve must be optimal");
        objectives.push(sol.objective);
    }
    objectives
}

/// Warm incremental replay: one formulation, `pin_beta` deltas, one
/// persistent [`WarmSimplex`]. Returns per-step objectives and the solver's
/// counters; `oracle_check` arms the per-solve cold cross-check.
pub fn replay_warm(
    inst: &ProblemInstance,
    pins: &[Pin],
    oracle_check: bool,
) -> (Vec<f64>, WarmStats) {
    let mut f = LpFormulation::relaxation_warm(inst).expect("warm formulation");
    let mut warm =
        WarmSimplex::new(f.model.clone(), RevisedSimplex::default()).expect("warm context");
    warm.check_against_cold = oracle_check;
    let mut objectives = Vec::with_capacity(pins.len() + 1);
    for step in 0..=pins.len() {
        if step > 0 {
            let (from, to, v) = pins[step - 1];
            let delta = f.pin_beta(inst, from, to, v).expect("pin delta");
            delta.apply_to(&mut warm).expect("pin patch");
        }
        let sol = warm.solve().expect("warm solve");
        assert_eq!(sol.status, Status::Optimal, "warm solve must be optimal");
        objectives.push(sol.objective);
    }
    (objectives, warm.stats())
}

/// Measurements for one sparse-scaling scale (island topology).
#[derive(Debug, Clone, Serialize)]
pub struct SparsePerfEntry {
    /// Number of clusters.
    pub k: usize,
    /// Number of islands (`⌈K / ISLAND⌉`).
    pub islands: usize,
    /// Rows of the warm formulation's model.
    pub model_rows: usize,
    /// Variables of the warm formulation's model.
    pub model_cols: usize,
    /// Pins in the warm-replay agreement check.
    pub replay_pins: usize,
    /// Probes evaluated by each pin sweep.
    pub sweep_probes: usize,
    /// Worker count of the sharded sweep (the sequential reference always
    /// runs with 1).
    pub threads: usize,
    /// Sparse cold vs dense cold objective (when measured) *and* the warm
    /// incremental sparse replay vs a cold sparse rebuild of the final pin
    /// prefix — all within 1e-5 relative.
    pub objectives_agree: bool,
    /// Sharded pin sweep is bit-identical to the sequential sweep
    /// (probes, winner, stage-2 vertex).
    pub sweep_agree: bool,
    /// `true` when the dense cold reference was not run (dense cold is
    /// intractable past K ≈ 200 and skipped in the quick preset).
    pub dense_skipped: bool,
    /// `factor.factor_nnz`.
    pub factor_nnz: usize,
    /// `factor.fill_ratio`.
    pub fill_ratio: f64,
    /// `factor.refactorisations`.
    pub refactor_count: u64,
    /// The sparse factorisation after the cold solve: non-zeros (LU + eta
    /// file), fill-in relative to the basis matrix, refactorisations, and
    /// how many rows the solve's FTRANs/BTRANs actually walked.
    pub factor: FactorStats,
    /// Wall-clocks, milliseconds.
    pub timing_ms: SparseTiming,
}

/// Wall-clocks of one [`SparsePerfEntry`], milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct SparseTiming {
    /// Sparse cold solve.
    pub sparse_cold: f64,
    /// Dense cold solve (`None` when skipped).
    pub dense_cold: Option<f64>,
    /// Sequential (`threads = 1`) pin sweep.
    pub sweep_sequential: f64,
    /// Sharded pin sweep.
    pub sweep_sharded: f64,
    /// `dense_cold / sparse_cold` (`None` when dense was skipped).
    pub dense_vs_sparse_speedup: Option<f64>,
}

/// NaN-safe bit-for-bit equality of two sweep reports, ignoring the
/// `threads` bookkeeping field — the tentpole's determinism claim.
fn sweeps_bit_identical(a: &PinSweepReport, b: &PinSweepReport) -> bool {
    let bits = |x: f64, y: f64| x.to_bits() == y.to_bits();
    a.probes.len() == b.probes.len()
        && a.probes.iter().zip(&b.probes).all(|(p, q)| {
            p.from == q.from && p.to == q.to && p.v == q.v && bits(p.objective, q.objective)
        })
        && a.best == b.best
        && bits(a.base_objective, b.base_objective)
        && bits(a.best_objective, b.best_objective)
        && a.stage2_values.len() == b.stage2_values.len()
        && a.stage2_values
            .iter()
            .zip(&b.stage2_values)
            .all(|(x, y)| bits(*x, *y))
}

/// Pins replayed for the warm-vs-cold agreement check; kept small at large
/// K, where each extra pin is another large warm solve.
fn replay_pin_count(k: usize) -> usize {
    match k {
        _ if k <= 200 => 12,
        _ if k <= 1000 => 8,
        _ => 4,
    }
}

/// Probe cap for the timed pin sweeps at scale `k`.
fn sweep_probe_cap(k: usize) -> usize {
    match k {
        _ if k <= 200 => 64,
        _ if k <= 1000 => 24,
        _ => 8,
    }
}

/// One sparse-scaling measurement: cold-solve the island relaxation with
/// the sparse-LU engine (recording factor statistics), cross-check against
/// the dense oracle when `run_dense`, verify a warm incremental pin replay
/// against a cold rebuild, and time the sequential vs sharded pin sweep
/// with a bit-identity check.
fn sparse_entry(k: usize, seed: u64, sharded_threads: usize, run_dense: bool) -> SparsePerfEntry {
    let inst = island_instance(k, seed);
    let mut f = LpFormulation::relaxation_warm(&inst).expect("warm formulation");
    let model_rows = f.model.num_constraints();
    let model_cols = f.model.num_vars();

    // Sparse cold solve + factorisation statistics.
    let sparse_solver = RevisedSimplex {
        basis_repr: BasisRepr::SparseLu,
    };
    let mut w = WarmSimplex::new(f.model.clone(), sparse_solver).expect("warm context");
    let (sparse_sol, sparse_cold_ms) = timed(|| w.solve().expect("sparse cold solve"));
    assert_eq!(sparse_sol.status, Status::Optimal, "sparse cold solve");
    let stats = w.factor_stats().expect("factorised after a solve");

    // Dense cold reference (the retained oracle) — K ≈ 200 only; past that
    // the m² inverse alone makes the dense engine intractable.
    let (dense_cold_ms, dense_agrees) = if run_dense {
        let dense_solver = RevisedSimplex {
            basis_repr: BasisRepr::DenseInverse,
        };
        let (dense_sol, ms) = timed(|| dense_solver.solve(&f.model).expect("dense cold"));
        assert_eq!(dense_sol.status, Status::Optimal, "dense cold solve");
        let agree = (dense_sol.objective - sparse_sol.objective).abs()
            <= 1e-5 * (1.0 + dense_sol.objective.abs());
        (Some(ms), agree)
    } else {
        (None, true)
    };

    // Warm incremental replay of a short pin prefix on the sparse context,
    // checked against a cold sparse rebuild of the final pinned model.
    let replay_pins: Vec<Pin> = pin_sequence(&inst, seed ^ (k as u64).wrapping_mul(0x9e37_79b9))
        .into_iter()
        .take(replay_pin_count(k))
        .collect();
    let mut warm_final = sparse_sol.objective;
    for &(from, to, v) in &replay_pins {
        let delta = f.pin_beta(&inst, from, to, v).expect("pin delta");
        delta.apply_to(&mut w).expect("pin patch");
        let sol = w.solve().expect("warm sparse solve");
        assert_eq!(sol.status, Status::Optimal, "warm sparse solve");
        warm_final = sol.objective;
    }
    let mut fixed: Vec<Option<u32>> = vec![None; k * k];
    for &(from, to, v) in &replay_pins {
        fixed[from.index() * k + to.index()] = Some(v);
    }
    let f_cold = LpFormulation::relaxation_with_fixed(&inst, &fixed).expect("pinned formulation");
    let cold_sol = solve_with(&f_cold.model, Engine::Sparse).expect("cold sparse rebuild");
    let replay_agrees = cold_sol.status == Status::Optimal
        && (warm_final - cold_sol.objective).abs() <= 1e-5 * (1.0 + cold_sol.objective.abs());

    // Sequential vs sharded pin sweep: timing plus the bit-identity gate.
    let cap = sweep_probe_cap(k);
    let (seq, sweep_sequential_ms) = timed(|| {
        Lprr {
            threads: 1,
            ..Lprr::new(seed)
        }
        .pin_sweep(&inst, cap)
        .expect("sequential sweep")
    });
    let (shd, sweep_sharded_ms) = timed(|| {
        Lprr {
            threads: sharded_threads,
            ..Lprr::new(seed)
        }
        .pin_sweep(&inst, cap)
        .expect("sharded sweep")
    });

    SparsePerfEntry {
        k,
        islands: k.div_ceil(ISLAND),
        model_rows,
        model_cols,
        replay_pins: replay_pins.len(),
        sweep_probes: seq.probes.len(),
        threads: shd.threads,
        objectives_agree: dense_agrees && replay_agrees,
        sweep_agree: sweeps_bit_identical(&seq, &shd),
        dense_skipped: !run_dense,
        factor_nnz: stats.factor_nnz,
        fill_ratio: stats.fill_ratio,
        refactor_count: stats.refactorisations,
        factor: stats,
        timing_ms: SparseTiming {
            sparse_cold: sparse_cold_ms,
            dense_cold: dense_cold_ms,
            sweep_sequential: sweep_sequential_ms,
            sweep_sharded: sweep_sharded_ms,
            dense_vs_sparse_speedup: dense_cold_ms.map(|d| ratio(d, sparse_cold_ms)),
        },
    }
}

/// Measurements for one LPRR replay scale.
#[derive(Debug, Clone, Serialize)]
pub struct LpPerfEntry {
    /// Number of clusters.
    pub k: usize,
    /// Pins in the sequence (the replay performs `pins + 1` LP solves).
    pub pins: usize,
    /// Rows/columns of the warm formulation's model.
    pub model_rows: usize,
    /// Variables of the warm formulation's model.
    pub model_cols: usize,
    /// Engine the cold reference resolved to.
    pub cold_engine: &'static str,
    /// `true` iff every step's warm and cold objectives agree to 1e-5
    /// relative tolerance.
    pub objectives_agree: bool,
    /// Largest relative objective gap observed across the sequence.
    pub max_rel_gap: f64,
    /// Warm-context counters for the whole replay.
    pub warm: WarmStats,
    /// Wall-clocks, milliseconds.
    pub timing_ms: ColdWarmTiming,
}

/// Cold vs warm wall-clocks, milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct ColdWarmTiming {
    /// Cold pipeline.
    pub cold: f64,
    /// Warm pipeline.
    pub warm: f64,
    /// `cold / warm`.
    pub speedup: f64,
}

impl ColdWarmTiming {
    fn new(cold: f64, warm: f64) -> Self {
        ColdWarmTiming {
            cold,
            warm,
            speedup: ratio(cold, warm),
        }
    }
}

/// Measurements for one branch-and-bound scale.
#[derive(Debug, Clone, Serialize)]
pub struct BnbPerfEntry {
    /// Number of clusters of the exact mixed program.
    pub k: usize,
    /// Warm (basis-inheriting) and cold optima agree to 1e-6 relative.
    pub objectives_agree: bool,
    /// Cold vs warm node-solve wall-clocks, milliseconds.
    pub timing_ms: ColdWarmTiming,
}

/// One row of the cold-engine crossover table.
#[derive(Debug, Clone, Serialize)]
pub struct CrossoverEntry {
    /// Number of clusters of the paper-shape relaxation.
    pub k: usize,
    /// Rows of the dense tableau ([`tableau_size`]).
    pub rows: usize,
    /// Cells of the dense tableau — the size `AUTO_DENSE_LIMIT` bounds.
    pub cells: usize,
    /// Median cold-solve wall-clock per engine, milliseconds.
    pub timing_ms: EngineTiming,
}

/// One cold solve's median wall-clock per engine, milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct EngineTiming {
    /// Dense tableau.
    pub dense: f64,
    /// Revised simplex over a dense `B⁻¹`.
    pub revised: f64,
    /// Revised simplex over the sparse LU.
    pub sparse: f64,
}

/// Each engine's cold solve is timed at least 9 times and until the
/// samples add up to 100 ms (at most 999 times), so sub-millisecond rows
/// take their median over hundreds of solves.
const CROSSOVER_SAMPLES: (usize, usize, f64) = (9, 999, 100.0);

fn crossover_entry(k: usize, seed: u64) -> CrossoverEntry {
    let f = LpFormulation::relaxation(&paper_shape_instance(k, seed)).expect("relaxation");
    let (rows, cells) = tableau_size(&f.model);
    let (min, max, budget_ms) = CROSSOVER_SAMPLES;
    let median_ms = |solve: &dyn Fn(&Model) -> Result<Solution, dls_lp::LpError>| {
        let mut ms = Vec::new();
        while ms.len() < min || (ms.len() < max && ms.iter().sum::<f64>() < budget_ms) {
            ms.push(timed(|| solve(&f.model).expect("cold solve")).1);
        }
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    let [dense_inverse, sparse_lu] = [BasisRepr::DenseInverse, BasisRepr::SparseLu]
        .map(|basis_repr| RevisedSimplex { basis_repr });
    CrossoverEntry {
        k,
        rows,
        cells,
        timing_ms: EngineTiming {
            dense: median_ms(&|m| DenseSimplex.solve(m)),
            revised: median_ms(&|m| dense_inverse.solve(m)),
            sparse: median_ms(&|m| sparse_lu.solve(m)),
        },
    }
}

/// One full LP perf run: `BENCH_lp.json`.
#[derive(Debug, Clone, Serialize)]
pub struct LpPerfRun {
    /// Artifact schema tag.
    pub schema: &'static str,
    /// Preset the run was generated with.
    pub preset: &'static str,
    /// Base seed (pin sequences derive from it).
    pub seed: u64,
    /// LPRR replay entries, one per scale.
    pub entries: Vec<LpPerfEntry>,
    /// Sparse-scaling entries (island topology), one per scale.
    pub sparse: Vec<SparsePerfEntry>,
    /// Branch-and-bound entries.
    pub branch_bound: Vec<BnbPerfEntry>,
    /// Cold-engine crossover rows, one per K (ungated).
    pub crossover: Vec<CrossoverEntry>,
    /// Speedup at the largest LPRR scale of the run.
    pub largest_k_speedup: Option<f64>,
}

/// Best-of-`runs` timing for sub-millisecond work, where a one-shot
/// measurement is dominated by allocator warm-up and scheduler noise. The
/// first run's result is kept (all runs are deterministic repeats).
fn timed_best<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out.get_or_insert(r);
    }
    (out.expect("at least one run"), best)
}

/// Runs the suite: for each scale, generate the pin sequence, replay it
/// cold and warm, and cross-check every step's objective; run the
/// sparse-scaling section (island topology, sparse-LU engine, sharded pin
/// sweep); time the exact branch-and-bound with and without basis
/// inheritance; and time each engine's cold solve for the crossover table.
/// `threads` sizes the sharded sweep (0 = all cores, floored
/// at 2 so sharding is always exercised).
pub fn run(preset: Preset, seed: u64, threads: usize) -> LpPerfRun {
    let mut entries = Vec::new();
    for &k in cluster_counts(preset) {
        let inst = paper_shape_instance(k, seed);
        let pins = pin_sequence(&inst, seed ^ (k as u64).wrapping_mul(0x9e37_79b9));
        let f = LpFormulation::relaxation_warm(&inst).expect("warm formulation");
        // Label the engine the cold replay actually resolves (from the
        // plain relaxation, exactly like `replay_cold` does — the warm
        // model's pre-materialised bound rows would inflate the sizing).
        let cold_engine =
            match resolve_engine(&LpFormulation::relaxation(&inst).expect("relaxation").model) {
                Engine::Dense => "dense",
                Engine::Sparse => "sparse",
            };

        let (cold_objs, cold_ms) = timed(|| replay_cold(&inst, &pins));
        let ((warm_objs, warm_stats), warm_ms) = timed(|| replay_warm(&inst, &pins, false));

        let mut max_rel_gap = 0.0f64;
        for (w, c) in warm_objs.iter().zip(&cold_objs) {
            max_rel_gap = max_rel_gap.max((w - c).abs() / (1.0 + c.abs()));
        }
        entries.push(LpPerfEntry {
            k,
            pins: pins.len(),
            model_rows: f.model.num_constraints(),
            model_cols: f.model.num_vars(),
            cold_engine,
            objectives_agree: max_rel_gap <= 1e-5,
            max_rel_gap,
            warm: warm_stats,
            timing_ms: ColdWarmTiming::new(cold_ms, warm_ms),
        });
    }

    let requested = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let sharded_threads = requested.max(2);
    let mut sparse = Vec::new();
    for &k in sparse_cluster_counts(preset) {
        // The dense oracle is cross-checked at the smallest scale only, and
        // never in the quick preset: its m² inverse puts larger K out of
        // reach (recorded as `dense_skipped`).
        let run_dense = preset != Preset::Quick && k <= 200;
        sparse.push(sparse_entry(k, seed, sharded_threads, run_dense));
    }

    let mut branch_bound = Vec::new();
    for &k in bnb_cluster_counts(preset) {
        let inst = paper_shape_instance(k, seed);
        let f = LpFormulation::mixed(&inst).expect("mixed formulation");
        let warm_solver = BranchBound::default();
        let cold_solver = BranchBound::new(BranchBoundConfig { warm_start: false });
        // These integer programs sit below the warm-start size floor, so the
        // default solver falls back to cold node solves and the two
        // timings should be statistically identical — the entry guards
        // against warm-start overhead creeping back in on tiny models.
        let (warm_sol, warm_ms) = timed_best(5, || warm_solver.solve(&f.model).expect("warm B&B"));
        let (cold_sol, cold_ms) = timed_best(5, || cold_solver.solve(&f.model).expect("cold B&B"));
        let objectives_agree = warm_sol.status == cold_sol.status
            && (warm_sol.objective - cold_sol.objective).abs()
                <= 1e-6 * (1.0 + cold_sol.objective.abs());
        branch_bound.push(BnbPerfEntry {
            k,
            objectives_agree,
            timing_ms: ColdWarmTiming::new(cold_ms, warm_ms),
        });
    }

    let crossover = crossover_cluster_counts(preset)
        .iter()
        .map(|&k| crossover_entry(k, seed))
        .collect();

    let largest_k_speedup = entries
        .iter()
        .max_by_key(|e| e.k)
        .map(|e| e.timing_ms.speedup);
    LpPerfRun {
        schema: "dls-bench/lp-perf/v2",
        preset: preset_name(preset),
        seed,
        entries,
        sparse,
        branch_bound,
        crossover,
        largest_k_speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_sequence_is_deterministic_and_budget_safe() {
        let inst = paper_shape_instance(8, 7);
        let a = pin_sequence(&inst, 7);
        let b = pin_sequence(&inst, 7);
        assert_eq!(a, b);
        // Budgets respected: per-link sums stay within max_connections.
        let mut used = vec![0i64; inst.platform.links.len()];
        for &(from, to, v) in &a {
            for l in inst.platform.route(from, to).unwrap() {
                used[l.index()] += v as i64;
            }
        }
        for (u, l) in used.iter().zip(&inst.platform.links) {
            assert!(*u <= l.max_connections as i64);
        }
    }

    #[test]
    fn sparse_section_smoke_with_dense_oracle() {
        let e = sparse_entry(16, 3, 2, true);
        assert!(e.objectives_agree, "{e:?}");
        assert!(e.sweep_agree, "{e:?}");
        assert!(!e.dense_skipped);
        assert!(e.timing_ms.dense_vs_sparse_speedup.is_some());
        assert!(e.factor.factor_nnz > 0 && e.factor.fill_ratio > 0.0);
        assert_eq!(e.islands, 2);
        assert_eq!(e.threads, 2);
    }

    #[test]
    fn quick_preset_is_deterministic() {
        let a = run(Preset::Quick, 7, 2);
        assert!(a.entries[0].objectives_agree, "{:?}", a.entries[0]);
        let ks: Vec<usize> = a.crossover.iter().map(|c| c.k).collect();
        assert_eq!(ks, crossover_cluster_counts(Preset::Quick));
        crate::tests::assert_same_artifact(&a, &run(Preset::Quick, 7, 2));
    }

    #[test]
    fn crossover_rows_match_the_auto_dense_limit_table() {
        // `dls_lp::AUTO_DENSE_LIMIT`'s table was measured at seed 42.
        let sizes: Vec<(usize, usize)> = [5, 8, 10]
            .iter()
            .map(|&k| {
                let e = crossover_entry(k, 42);
                (e.rows, e.cells)
            })
            .collect();
        assert_eq!(sizes, [(18, 972), (37, 5143), (47, 9165)]);
    }

    #[test]
    fn replays_agree_on_a_small_scale() {
        let inst = paper_shape_instance(6, 3);
        let pins = pin_sequence(&inst, 3);
        let cold = replay_cold(&inst, &pins);
        let (warm, stats) = replay_warm(&inst, &pins, true);
        assert_eq!(cold.len(), warm.len());
        for (w, c) in warm.iter().zip(&cold) {
            assert!(
                (w - c).abs() <= 1e-5 * (1.0 + c.abs()),
                "warm {w} vs cold {c}"
            );
        }
        assert!(stats.warm_solves > 0, "{stats:?}");
    }
}
