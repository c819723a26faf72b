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
//! basis inheritance) vs cold node solves on the exact mixed program. The
//! result is rendered as `BENCH_lp.json`, the LP-side companion of
//! `BENCH_sim.json`, so the repository keeps a perf trajectory across PRs.

use crate::{preset_name, timed};
use dls_core::heuristics::{Lprr, PinSweepReport};
use dls_core::{LpFormulation, Objective, ProblemInstance};
use dls_experiments::Preset;
use dls_lp::{
    resolve_engine, solve_with, BasisRepr, BranchBound, BranchBoundConfig, Engine, FactorStats,
    RevisedSimplex, Status, WarmSimplex, WarmStats,
};
use dls_platform::{ClusterId, PlatformBuilder, PlatformGenerator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::time::Instant;

/// Deterministic MAXMIN instance with *spread* payoffs, like the simulation
/// perf harness uses: uniform payoffs are degenerate here (every cluster
/// serves its own application locally, no transfer pays off, and no pin
/// ever binds — the whole replay would measure trivially-warm solves).
pub fn lp_instance(k: usize, seed: u64) -> ProblemInstance {
    let platform = PlatformGenerator::new(seed).generate(&crate::perf::paper_shape_config(k));
    ProblemInstance::with_spread_payoffs(
        platform,
        Objective::MaxMin,
        0.5,
        seed ^ 0x9e37_79b9_7f4a_7c15,
    )
}

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

/// Clusters per island in [`island_instance`]. Eight fully-meshed clusters
/// give each island 28 backbone links and 56 routed pairs — enough coupling
/// for non-trivial LPs while the global constraint matrix stays
/// block-diagonal, which is the structure the sparse LU engine exploits.
pub const ISLAND: usize = 8;

/// Deterministic large-K instance for the sparse-scaling section: islands
/// of [`ISLAND`] fully-meshed clusters with no inter-island links. The
/// paper-shape generator's `connectivity · K²` backbone is intractable (and
/// unrealistically dense) beyond a few hundred clusters; real large
/// platforms are federations of well-connected sites, and the resulting
/// block structure keeps basis fill-in — and therefore sparse solve time —
/// near-linear in K.
pub fn island_instance(k: usize, seed: u64) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51a9_d05e_c0de_0001);
    let mut b = PlatformBuilder::new();
    let clusters: Vec<ClusterId> = (0..k)
        .map(|_| b.add_cluster(100.0, rng.gen_range(150.0..350.0)))
        .collect();
    for island in clusters.chunks(ISLAND) {
        for (i, &a) in island.iter().enumerate() {
            for &c in &island[i + 1..] {
                let bw = rng.gen_range(10.0..50.0);
                let conn: u32 = rng.gen_range(5..25);
                b.connect_clusters(a, c, bw, conn);
            }
        }
    }
    let platform = b.build().expect("island platform is valid");
    ProblemInstance::with_spread_payoffs(
        platform,
        Objective::MaxMin,
        0.5,
        seed ^ 0x9e37_79b9_7f4a_7c15,
    )
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
    let engine = match resolve_engine(&LpFormulation::relaxation(inst).expect("relaxation").model) {
        e @ (Engine::Dense | Engine::Revised | Engine::Sparse) => e,
        Engine::Auto => unreachable!("resolve_engine returns a concrete engine"),
    };
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
            warm.set_var_bounds(delta.var, delta.lo, delta.up)
                .expect("bound patch");
            for &(con, var) in &delta.coef_zeroed {
                warm.set_coefficient(con, var, 0.0).expect("coef patch");
            }
            for &(con, rhs) in &delta.rhs {
                warm.set_rhs(con, rhs).expect("rhs patch");
            }
        }
        let sol = warm.solve().expect("warm solve");
        assert_eq!(sol.status, Status::Optimal, "warm solve must be optimal");
        objectives.push(sol.objective);
    }
    (objectives, warm.stats())
}

/// Measurements for one sparse-scaling scale (island topology).
#[derive(Debug, Clone)]
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
    /// The sparse factorisation after the cold solve: non-zeros (LU + eta
    /// file), fill-in relative to the basis matrix, refactorisations, and
    /// how many rows the solve's FTRANs/BTRANs actually walked.
    pub factor: FactorStats,
    /// Sparse cold solve wall-clock, milliseconds.
    pub sparse_cold_ms: f64,
    /// Dense cold solve wall-clock, milliseconds (`None` when skipped).
    pub dense_cold_ms: Option<f64>,
    /// Sequential (`threads = 1`) pin sweep wall-clock, milliseconds.
    pub sweep_sequential_ms: f64,
    /// Sharded pin sweep wall-clock, milliseconds.
    pub sweep_sharded_ms: f64,
}

impl SparsePerfEntry {
    /// `dense_cold_ms / sparse_cold_ms` (`None` when dense was skipped).
    pub fn dense_vs_sparse_speedup(&self) -> Option<f64> {
        self.dense_cold_ms.map(|d| {
            if self.sparse_cold_ms > 0.0 {
                d / self.sparse_cold_ms
            } else {
                f64::INFINITY
            }
        })
    }
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
        ..RevisedSimplex::default()
    };
    let mut w = WarmSimplex::new(f.model.clone(), sparse_solver).expect("warm context");
    let (sparse_sol, sparse_cold_ms) = timed(|| w.solve().expect("sparse cold solve"));
    assert_eq!(sparse_sol.status, Status::Optimal, "sparse cold solve");
    let stats = w.factor_stats().expect("factorised after a solve");

    // Dense cold reference (the retained oracle) — K ≈ 200 only; past that
    // the m² inverse alone makes the dense engine intractable.
    let (dense_cold_ms, dense_agrees) = if run_dense {
        let (dense_sol, ms) = timed(|| solve_with(&f.model, Engine::Revised).expect("dense cold"));
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
        w.set_var_bounds(delta.var, delta.lo, delta.up)
            .expect("bound patch");
        for &(con, var) in &delta.coef_zeroed {
            w.set_coefficient(con, var, 0.0).expect("coef patch");
        }
        for &(con, rhs) in &delta.rhs {
            w.set_rhs(con, rhs).expect("rhs patch");
        }
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
        factor: stats,
        sparse_cold_ms,
        dense_cold_ms,
        sweep_sequential_ms,
        sweep_sharded_ms,
    }
}

/// Measurements for one LPRR replay scale.
#[derive(Debug, Clone)]
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
    pub warm_stats: WarmStats,
    /// Cold replay wall-clock, milliseconds.
    pub cold_ms: f64,
    /// Warm replay wall-clock, milliseconds.
    pub warm_ms: f64,
    /// `cold_ms / warm_ms`.
    pub speedup: f64,
}

/// Measurements for one branch-and-bound scale.
#[derive(Debug, Clone)]
pub struct BnbPerfEntry {
    /// Number of clusters of the exact mixed program.
    pub k: usize,
    /// Warm (basis-inheriting) and cold optima agree to 1e-6 relative.
    pub objectives_agree: bool,
    /// Cold-node-solve wall-clock, milliseconds.
    pub cold_ms: f64,
    /// Warm-node-solve wall-clock, milliseconds.
    pub warm_ms: f64,
    /// `cold_ms / warm_ms`.
    pub speedup: f64,
}

/// One full LP perf run.
#[derive(Debug, Clone)]
pub struct LpPerfRun {
    /// Preset the run was generated with.
    pub preset: Preset,
    /// Base seed (pin sequences derive from it).
    pub seed: u64,
    /// LPRR replay entries, one per scale.
    pub entries: Vec<LpPerfEntry>,
    /// Sparse-scaling entries (island topology), one per scale.
    pub sparse: Vec<SparsePerfEntry>,
    /// Branch-and-bound entries.
    pub bnb: Vec<BnbPerfEntry>,
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
/// sweep); then time the exact branch-and-bound with and without basis
/// inheritance. `threads` sizes the sharded sweep (0 = all cores, floored
/// at 2 so sharding is always exercised).
pub fn run(preset: Preset, seed: u64, threads: usize) -> LpPerfRun {
    let mut entries = Vec::new();
    for &k in cluster_counts(preset) {
        let inst = lp_instance(k, seed);
        let pins = pin_sequence(&inst, seed ^ (k as u64).wrapping_mul(0x9e37_79b9));
        let f = LpFormulation::relaxation_warm(&inst).expect("warm formulation");
        // Label the engine the cold replay actually resolves (from the
        // plain relaxation, exactly like `replay_cold` does — the warm
        // model's pre-materialised bound rows would inflate the sizing).
        let cold_engine =
            match resolve_engine(&LpFormulation::relaxation(&inst).expect("relaxation").model) {
                Engine::Dense => "dense",
                Engine::Revised => "revised",
                Engine::Sparse => "sparse",
                Engine::Auto => unreachable!(),
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
            warm_stats,
            cold_ms,
            warm_ms,
            speedup: if warm_ms > 0.0 {
                cold_ms / warm_ms
            } else {
                f64::INFINITY
            },
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

    let mut bnb = Vec::new();
    for &k in bnb_cluster_counts(preset) {
        let inst = lp_instance(k, seed);
        let f = LpFormulation::mixed(&inst).expect("mixed formulation");
        let warm_solver = BranchBound::default();
        let cold_solver = BranchBound::new(BranchBoundConfig {
            warm_start: false,
            ..BranchBoundConfig::default()
        });
        // These integer programs sit below `warm_start_min_dim`, so the
        // default solver falls back to cold node solves and the two
        // timings should be statistically identical — the entry guards
        // against warm-start overhead creeping back in on tiny models.
        let (warm_sol, warm_ms) = timed_best(5, || warm_solver.solve(&f.model).expect("warm B&B"));
        let (cold_sol, cold_ms) = timed_best(5, || cold_solver.solve(&f.model).expect("cold B&B"));
        let objectives_agree = warm_sol.status == cold_sol.status
            && (warm_sol.objective - cold_sol.objective).abs()
                <= 1e-6 * (1.0 + cold_sol.objective.abs());
        bnb.push(BnbPerfEntry {
            k,
            objectives_agree,
            cold_ms,
            warm_ms,
            speedup: if warm_ms > 0.0 {
                cold_ms / warm_ms
            } else {
                f64::INFINITY
            },
        });
    }

    LpPerfRun {
        preset,
        seed,
        entries,
        sparse,
        bnb,
    }
}

impl LpPerfRun {
    /// Speedup at the largest LPRR scale of the run.
    pub fn largest_k_speedup(&self) -> Option<f64> {
        self.entries.iter().max_by_key(|e| e.k).map(|e| e.speedup)
    }

    /// `true` iff every LPRR step, every sparse-section check, and every
    /// B&B pair agreed.
    pub fn all_agree(&self) -> bool {
        self.entries.iter().all(|e| e.objectives_agree)
            && self
                .sparse
                .iter()
                .all(|e| e.objectives_agree && e.sweep_agree)
            && self.bnb.iter().all(|e| e.objectives_agree)
    }

    /// Human-readable table for the terminal.
    pub fn text_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "LP pipeline trajectory (preset {}, seed {}; warm-started vs cold LPRR replay)",
            preset_name(self.preset),
            self.seed
        );
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>7} {:>11} {:>11} {:>9} {:>11}  agree",
            "K", "pins", "engine", "cold ms", "warm ms", "speedup", "dual piv"
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{:>5} {:>6} {:>7} {:>11.1} {:>11.1} {:>8.1}x {:>11}  {}",
                e.k,
                e.pins,
                e.cold_engine,
                e.cold_ms,
                e.warm_ms,
                e.speedup,
                e.warm_stats.dual_pivots,
                if e.objectives_agree { "yes" } else { "NO" }
            );
        }
        if !self.sparse.is_empty() {
            let _ = writeln!(
                out,
                "sparse LP core (islands of {ISLAND}, sparse-LU engine, sharded pin sweep)"
            );
            let _ = writeln!(
                out,
                "{:>5} {:>7} {:>11} {:>11} {:>9} {:>6} {:>9} {:>9} {:>11} {:>11}  agree",
                "K",
                "rows",
                "sparse ms",
                "dense ms",
                "dns/sprs",
                "fill",
                "rows/ftr",
                "nz/btr",
                "seq swp ms",
                "shard ms"
            );
            for e in &self.sparse {
                let dense = match e.dense_cold_ms {
                    Some(ms) => format!("{ms:.1}"),
                    None => "skipped".to_string(),
                };
                let speedup = match e.dense_vs_sparse_speedup() {
                    Some(s) => format!("{s:.1}x"),
                    None => "-".to_string(),
                };
                // Cold-solve averages: Ũ rows back-substituted per sparse
                // FTRAN and non-zero inputs per BTRAN (a sweep of the
                // factor would read `rows` + bound rows for both).
                let per = |total: u64, calls: u64| total as f64 / calls.max(1) as f64;
                let _ = writeln!(
                    out,
                    "{:>5} {:>7} {:>11.1} {:>11} {:>9} {:>6.2} {:>9.1} {:>9.1} {:>11.1} {:>11.1}  {}",
                    e.k,
                    e.model_rows,
                    e.sparse_cold_ms,
                    dense,
                    speedup,
                    e.factor.fill_ratio,
                    per(e.factor.ftran_u_rows, e.factor.sparse_ftrans),
                    per(e.factor.btran_nz_rows, e.factor.btrans),
                    e.sweep_sequential_ms,
                    e.sweep_sharded_ms,
                    if e.objectives_agree && e.sweep_agree {
                        "yes"
                    } else {
                        "NO"
                    }
                );
            }
        }
        for e in &self.bnb {
            let _ = writeln!(
                out,
                "B&B K={}: cold {:.1} ms, warm {:.1} ms ({:.1}x)  agree: {}",
                e.k,
                e.cold_ms,
                e.warm_ms,
                e.speedup,
                if e.objectives_agree { "yes" } else { "NO" }
            );
        }
        if let Some(s) = self.largest_k_speedup() {
            let _ = writeln!(out, "largest-K LPRR speedup: {s:.1}x");
        }
        out
    }

    /// Renders `BENCH_lp.json` (stable key order; only `timing_ms` blocks
    /// vary between runs with the same seed).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"dls-bench/lp-perf/v2\",");
        let _ = writeln!(out, "  \"preset\": \"{}\",", preset_name(self.preset));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"k\": {},", e.k);
            let _ = writeln!(out, "      \"pins\": {},", e.pins);
            let _ = writeln!(out, "      \"model_rows\": {},", e.model_rows);
            let _ = writeln!(out, "      \"model_cols\": {},", e.model_cols);
            let _ = writeln!(out, "      \"cold_engine\": \"{}\",", e.cold_engine);
            let _ = writeln!(out, "      \"objectives_agree\": {},", e.objectives_agree);
            let _ = writeln!(out, "      \"max_rel_gap\": {:.3e},", e.max_rel_gap);
            let s = &e.warm_stats;
            let _ = writeln!(
                out,
                "      \"warm\": {{\"solves\": {}, \"warm_solves\": {}, \"cold_solves\": {}, \
                 \"fallbacks\": {}, \"dual_pivots\": {}, \"primal_pivots\": {}}},",
                s.solves, s.warm_solves, s.cold_solves, s.fallbacks, s.dual_pivots, s.primal_pivots
            );
            let _ = writeln!(out, "      \"timing_ms\": {{");
            let _ = writeln!(out, "        \"cold\": {:.3},", e.cold_ms);
            let _ = writeln!(out, "        \"warm\": {:.3},", e.warm_ms);
            let _ = writeln!(out, "        \"speedup\": {:.3}", e.speedup);
            out.push_str("      }\n");
            out.push_str(if i + 1 == self.entries.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"sparse\": [\n");
        for (i, e) in self.sparse.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"k\": {},", e.k);
            let _ = writeln!(out, "      \"islands\": {},", e.islands);
            let _ = writeln!(out, "      \"model_rows\": {},", e.model_rows);
            let _ = writeln!(out, "      \"model_cols\": {},", e.model_cols);
            let _ = writeln!(out, "      \"replay_pins\": {},", e.replay_pins);
            let _ = writeln!(out, "      \"sweep_probes\": {},", e.sweep_probes);
            let _ = writeln!(out, "      \"threads\": {},", e.threads);
            let _ = writeln!(out, "      \"objectives_agree\": {},", e.objectives_agree);
            let _ = writeln!(out, "      \"sweep_agree\": {},", e.sweep_agree);
            let _ = writeln!(out, "      \"dense_skipped\": {},", e.dense_skipped);
            let _ = writeln!(out, "      \"factor_nnz\": {},", e.factor.factor_nnz);
            let _ = writeln!(out, "      \"fill_ratio\": {:.3},", e.factor.fill_ratio);
            let _ = writeln!(
                out,
                "      \"refactor_count\": {},",
                e.factor.refactorisations
            );
            let _ = writeln!(out, "      \"timing_ms\": {{");
            let _ = writeln!(out, "        \"sparse_cold\": {:.3},", e.sparse_cold_ms);
            match e.dense_cold_ms {
                Some(ms) => {
                    let _ = writeln!(out, "        \"dense_cold\": {ms:.3},");
                }
                None => {
                    let _ = writeln!(out, "        \"dense_cold\": null,");
                }
            }
            let _ = writeln!(
                out,
                "        \"sweep_sequential\": {:.3},",
                e.sweep_sequential_ms
            );
            let _ = writeln!(out, "        \"sweep_sharded\": {:.3},", e.sweep_sharded_ms);
            match e.dense_vs_sparse_speedup() {
                Some(s) => {
                    let _ = writeln!(out, "        \"dense_vs_sparse_speedup\": {s:.3}");
                }
                None => {
                    let _ = writeln!(out, "        \"dense_vs_sparse_speedup\": null");
                }
            }
            out.push_str("      }\n");
            out.push_str(if i + 1 == self.sparse.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"branch_bound\": [\n");
        for (i, e) in self.bnb.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"k\": {}, \"objectives_agree\": {}, \"timing_ms\": \
                 {{\"cold\": {:.3}, \"warm\": {:.3}, \"speedup\": {:.3}}}}}",
                e.k, e.objectives_agree, e.cold_ms, e.warm_ms, e.speedup
            );
            out.push_str(if i + 1 == self.bnb.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ],\n");
        match self.largest_k_speedup() {
            Some(s) => {
                let _ = writeln!(out, "  \"largest_k_speedup\": {s:.3}");
            }
            None => {
                let _ = writeln!(out, "  \"largest_k_speedup\": null");
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
    fn pin_sequence_is_deterministic_and_budget_safe() {
        let inst = lp_instance(8, 7);
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
    fn island_instance_is_block_structured() {
        let inst = island_instance(20, 5);
        let p = &inst.platform;
        assert_eq!(p.num_clusters(), 20);
        // Routed pairs stay within their island: 8 + 8 + 4 clusters give
        // 8·7 + 8·7 + 4·3 directed pairs and nothing across islands.
        let pairs = p.routed_pairs();
        assert_eq!(pairs.len(), 56 + 56 + 12);
        for (a, b) in pairs {
            assert_eq!(a.index() / ISLAND, b.index() / ISLAND);
        }
    }

    #[test]
    fn sparse_section_smoke_with_dense_oracle() {
        let e = sparse_entry(16, 3, 2, true);
        assert!(e.objectives_agree, "{e:?}");
        assert!(e.sweep_agree, "{e:?}");
        assert!(!e.dense_skipped);
        assert!(e.dense_vs_sparse_speedup().is_some());
        assert!(e.factor.factor_nnz > 0 && e.factor.fill_ratio > 0.0);
        assert_eq!(e.islands, 2);
        assert_eq!(e.threads, 2);
    }

    #[test]
    fn replays_agree_on_a_small_scale() {
        let inst = lp_instance(6, 3);
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
