//! The two offline-planning workloads. `plan_paper` is warm-heavy on the
//! dense-inverse basis (LPRR's ~K² re-solves of a ~500-row model);
//! `plan_island` is cold-heavy on the sparse LU (one large solve, then
//! cloned probes) — a gain for one that costs the other shows.

use crate::harness::{time_each, Checks, Expected, Workload};
use crate::inputs::{island_instance, paper_shape_instance, unit_seed};
use crate::metrics::{median, Values};
use crate::trace::{durations_ms, ms_since, Tracer, PROBE_OP};
use dls_core::heuristics::{Greedy, Heuristic, Lprg, Lprr, PinSweepReport, UpperBound};
use dls_core::{Allocation, LpFormulation, PinDelta, ProblemInstance};
use dls_lp::standard::StandardForm;
use dls_lp::{RevisedSimplex, Solution, Status, WarmSimplex};
use dls_platform::ClusterId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Cluster count of the `plan_paper` instances: the paper's own scale.
const PAPER_K: usize = 50;
/// Cluster count of the `plan_island` instances: 50 islands, ~2400
/// standard-form rows, past `dls_lp::SPARSE_MIN_ROWS`, so the LP runs on the
/// sparse LU core. (The issue sized this at K = 1000, 2.4 s per operation;
/// four operations per run cannot carry a median.)
const ISLAND_K: usize = 400;
/// Probe cap of the `plan_island` pin sweep.
const SWEEP_PROBES: usize = 24;

/// `objective ≤ bound` within 1e-7 relative — no heuristic may beat the LP.
fn within_bound(objective: f64, bound: f64) -> bool {
    objective <= bound + 1e-7 * (1.0 + bound.abs())
}

/// What one planning operation produced, kept for the verify phase.
#[derive(Debug, Clone, Copy)]
struct Plan {
    bound: f64,
    best: f64,
}

fn quality_gap(plans: &[Option<Plan>]) -> f64 {
    let gaps: Vec<f64> = plans
        .iter()
        .flatten()
        .map(|p| 1.0 - p.best / p.bound)
        .collect();
    gaps.iter().sum::<f64>() / gaps.len().max(1) as f64
}

fn generate(
    units: usize,
    layer: &mut Values,
    make: impl Fn(usize) -> ProblemInstance,
) -> Vec<ProblemInstance> {
    let mut gen_ms = Vec::with_capacity(units);
    let instances: Vec<ProblemInstance> = (0..units)
        .map(|i| {
            let t = Instant::now();
            let inst = make(i);
            gen_ms.push(ms_since(t));
            inst
        })
        .collect();
    layer.insert("platform.generate_ms", median(&gen_ms));
    layer.insert(
        "platform.routes",
        instances[0].platform.routed_pairs().len() as f64,
    );
    instances
}

fn compare_plans(plans: &[Option<Plan>], expected: &mut Expected, checks: &mut Checks) {
    let done: Vec<Plan> = plans.iter().map_while(|p| *p).collect();
    let bounds: Vec<f64> = done.iter().map(|p| p.bound).collect();
    let bests: Vec<f64> = done.iter().map(|p| p.best).collect();
    expected.compare("lp_bound", &bounds, 1e-9, checks);
    expected.compare("best_objective", &bests, 1e-9, checks);
}

/// Mirrors one [`PinDelta`] onto a warm solver context.
fn apply_delta(w: &mut WarmSimplex, delta: &PinDelta) -> Result<(), dls_lp::LpError> {
    w.set_var_bounds(delta.var, delta.lo, delta.up)?;
    for &(con, var) in &delta.coef_zeroed {
        w.set_coefficient(con, var, 0.0)?;
    }
    for &(con, rhs) in &delta.rhs {
        w.set_rhs(con, rhs)?;
    }
    Ok(())
}

/// The stages every plan starts with, re-executed one by one: formulate →
/// context build → cold solve → extract → round, plus a context clone.
/// Fills the model-shape, cold-solve and factorisation values.
fn probe_cold_stages(
    inst: &ProblemInstance,
    t: &mut Tracer,
    layer: &mut Values,
) -> Option<(LpFormulation, WarmSimplex, Solution)> {
    let (f, ms) = t.timed("core.formulate", |_| LpFormulation::relaxation_warm(inst));
    let f = f.ok()?;
    layer.insert("core.formulate_ms", ms);
    let sf = StandardForm::from_model(&f.model).ok()?;
    let model_nnz: usize = sf.cols.iter().map(Vec::len).sum();
    layer.insert("core.model_rows", f.model.num_constraints() as f64);
    layer.insert("core.model_cols", f.model.num_vars() as f64);
    layer.insert("core.model_nnz", model_nnz as f64);

    let (w, ms) = t.timed("lp.context_build", |_| {
        WarmSimplex::new(f.model.clone(), RevisedSimplex::default())
    });
    let mut w = w.ok()?;
    layer.insert("lp.context_build_ms", ms);

    let (sol, cold_ms) = t.timed("lp.cold_solve", |_| w.solve());
    let sol = sol.ok()?;
    layer.insert("lp.cold_solve_ms", cold_ms);
    layer.insert("lp.cold_iterations", sol.iterations as f64);
    layer.insert(
        "lp.us_per_iteration",
        cold_ms * 1e3 / sol.iterations.max(1) as f64,
    );
    let factor = w.factor_stats()?;
    layer.insert("lp.factor_nnz", factor.factor_nnz as f64);
    layer.insert("lp.fill_ratio", factor.fill_ratio);
    layer.insert("lp.refactorisations", factor.refactorisations as f64);

    let frac = t.span("core.extract", |_| f.extract_fractional(&sol));
    let (alloc, ms) = t.timed("core.round", |_| {
        Lprg::default().from_relaxation(inst, &frac)
    });
    black_box(alloc);
    layer.insert("core.round_ms", ms);

    let (clone, ms) = t.timed("lp.clone", |_| w.clone());
    black_box(clone);
    layer.insert("lp.clone_ms", ms);
    // Computed, not measured: the model and its standard form each hold the
    // non-zeros as (index, f64) pairs, the factor holds `factor_nnz` floats.
    layer.insert(
        "lp.clone_kb",
        (2 * 16 * model_nnz + 8 * factor.factor_nnz) as f64 / 1024.0,
    );
    Some((f, w, sol))
}

fn insert_warm_stats(w: &WarmSimplex, layer: &mut Values) {
    let s = w.stats();
    layer.insert("lp.warm_solves", s.warm_solves as f64);
    layer.insert("lp.cold_fallbacks", s.fallbacks as f64);
    layer.insert(
        "lp.warm_hit_ratio",
        s.warm_solves as f64 / s.solves.max(1) as f64,
    );
    layer.insert("lp.dual_pivots", s.dual_pivots as f64);
    layer.insert("lp.primal_pivots", s.primal_pivots as f64);
}

/// Offline planning at the paper's scale.
pub struct PlanPaper {
    seed: u64,
    instances: Vec<ProblemInstance>,
    plans: Vec<Option<Plan>>,
}

impl PlanPaper {
    /// One operation: the LP bound and the paper's three heuristics on one
    /// instance, each output validated as it is produced.
    fn op(&self, i: usize, t: &mut Tracer, checks: &mut Checks) -> Option<Plan> {
        let inst = &self.instances[i];
        let seed = self.seed;
        t.set_op(i as u64);
        t.span("plan_paper.op", |t| {
            let bound = t.span("core.upper_bound", |_| UpperBound::default().bound(inst));
            let greedy = t.span("core.greedy", |_| Greedy::default().solve(inst));
            let lprg = t.span("core.lprg", |_| Lprg::default().solve(inst));
            let lprr = t.span("core.lprr", |_| Lprr::new(seed).solve(inst));
            t.span("core.validate", |_| {
                let (Ok(bound), Ok(g), Ok(lprg), Ok(lprr)) = (bound, greedy, lprg, lprr) else {
                    checks.check(false, || format!("plan_paper op {i}: a solver errored"));
                    return None;
                };
                let mut best = f64::NEG_INFINITY;
                for (name, alloc) in [("G", &g), ("LPRG", &lprg), ("LPRR", &lprr)] {
                    let objective = alloc.objective_value(inst);
                    let ok = alloc.validate(inst).is_ok() && within_bound(objective, bound);
                    checks.check(ok, || {
                        format!("plan_paper op {i}: {name} invalid or above the LP bound")
                    });
                    best = best.max(objective);
                }
                Some(Plan { bound, best })
            })
        })
    }
}

impl Workload for PlanPaper {
    const NAME: &'static str = "plan_paper";
    const WHY: &'static str = "the paper's own experiment: LP bound + G + LPRG + LPRR at K=50; \
        LPRR's ~K^2 warm re-solves on the dense-inverse basis dominate";
    const UNITS_PER_SECOND: f64 = 1.6;

    fn setup(seed: u64, units: usize, layer: &mut Values) -> Self {
        let instances = generate(units, layer, |i| {
            paper_shape_instance(PAPER_K, unit_seed(seed, i))
        });
        let w = PlanPaper {
            seed,
            plans: vec![None; instances.len()],
            instances,
        };
        black_box(w.op(0, &mut Tracer::off(), &mut Checks::default()));
        w
    }

    fn run(
        &mut self,
        units: Range<usize>,
        _round: u32,
        t: &mut Tracer,
        checks: &mut Checks,
    ) -> Vec<f64> {
        time_each(units, |i| self.plans[i] = self.op(i, t, checks))
    }

    fn verify(&mut self, expected: &mut Expected, checks: &mut Checks) {
        compare_plans(&self.plans, expected, checks);
    }

    fn probe(&mut self, t: &mut Tracer, layer: &mut Values, checks: &mut Checks) {
        let spans = t.spans();
        let med = |name: &str| median(&durations_ms(spans, name));
        layer.insert("core.upper_bound_ms", med("core.upper_bound"));
        layer.insert("core.greedy_ms", med("core.greedy"));
        layer.insert("core.lprg_ms", med("core.lprg"));
        layer.insert("core.lprr_ms", med("core.lprr"));
        layer.insert("core.validate_ms", med("core.validate"));
        let total = |name: &str| durations_ms(spans, name).iter().sum::<f64>();
        layer.insert(
            "core.lprr_share",
            total("core.lprr") / total("plan_paper.op").max(f64::MIN_POSITIVE),
        );
        layer.insert("core.quality_gap", quality_gap(&self.plans));

        // Stage-by-stage re-execution of instance 0, then LPRR's rounding
        // loop replayed through `pin_beta` + `solve`, one span per stage.
        let inst = &self.instances[0];
        t.set_op(PROBE_OP);
        let replay = t.span("plan_paper.probe", |t| {
            let (f, w, sol) = probe_cold_stages(inst, t, layer)?;
            replay_lprr(inst, self.seed, f, w, sol, t, layer)
        });
        let direct = Lprr::new(self.seed).solve(inst).ok();
        checks.check(replay.is_some() && replay == direct, || {
            "plan_paper probe: the staged LPRR replay diverged from Lprr::solve".into()
        });
    }
}

/// LPRR's rounding loop (§5.2.3) driven from outside through the public
/// pieces — same RNG draws, same clamping — so each pin application and each
/// warm re-solve gets its own span. Returns the allocation, which must equal
/// `Lprr::solve`'s.
fn replay_lprr(
    inst: &ProblemInstance,
    seed: u64,
    mut f: LpFormulation,
    mut w: WarmSimplex,
    first: Solution,
    t: &mut Tracer,
    layer: &mut Values,
) -> Option<Allocation> {
    let p = &inst.platform;
    let k = p.num_clusters();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut unfixed: Vec<usize> = p
        .routed_pairs()
        .into_iter()
        .filter(|&(from, to)| {
            p.route_bottleneck_bw(from, to)
                .is_some_and(|bw| bw.is_finite())
        })
        .map(|(from, to)| from.index() * k + to.index())
        .collect();
    let mut fixed: Vec<Option<u32>> = vec![None; k * k];
    let mut link_budget: Vec<i64> = p.links.iter().map(|l| l.max_connections as i64).collect();
    let (mut apply_us, mut warm_ms) = (Vec::new(), Vec::new());
    let mut sol = first;
    loop {
        if sol.status != Status::Optimal {
            return None;
        }
        let frac = f.extract_fractional(&sol);
        if unfixed.is_empty() {
            let mut alloc = Allocation::zeros(k);
            alloc.alpha.copy_from_slice(&frac.alpha);
            for (b, f) in alloc.beta.iter_mut().zip(&fixed) {
                *b = f.unwrap_or(0);
            }
            layer.insert("core.pin_apply_us", median(&apply_us));
            layer.insert("lp.warm_solve_ms", median(&warm_ms));
            insert_warm_stats(&w, layer);
            return Some(alloc);
        }
        let nonzero: Vec<usize> = unfixed
            .iter()
            .copied()
            .filter(|&i| frac.beta[i] > 1e-9)
            .collect();
        let candidates = if nonzero.is_empty() {
            &unfixed
        } else {
            &nonzero
        };
        let pick = candidates[rng.gen_range(0..candidates.len())];
        let beta_tilde = frac.beta[pick];
        let floor = (beta_tilde + 1e-9).floor();
        let fraction = (beta_tilde - floor).clamp(0.0, 1.0);
        let up = fraction > 1e-9 && rng.gen_bool(fraction);
        let (from, to) = (ClusterId((pick / k) as u32), ClusterId((pick % k) as u32));
        let route = p.route(from, to)?;
        let budget = route
            .iter()
            .map(|l| link_budget[l.index()])
            .min()
            .unwrap_or(i64::MAX);
        let v = (floor as i64 + i64::from(up)).min(budget).max(0);
        fixed[pick] = Some(v as u32);
        for l in route {
            link_budget[l.index()] -= v;
        }
        unfixed.retain(|&i| i != pick);

        let (applied, ms) = t.timed("core.pin_apply", |_| {
            let delta = f.pin_beta(inst, from, to, v as u32).ok()?;
            apply_delta(&mut w, &delta).ok()
        });
        applied?;
        apply_us.push(ms * 1e3);
        let (solved, ms) = t.timed("lp.warm_solve", |_| w.solve());
        sol = solved.ok()?;
        warm_ms.push(ms);
    }
}

/// Planning at federation scale.
pub struct PlanIsland {
    seed: u64,
    instances: Vec<ProblemInstance>,
    plans: Vec<Option<Plan>>,
    /// Sequential and sharded sweep times of the verify phase's
    /// threads = 1 ≡ default check, with the sharded worker count.
    sweep_check: Option<(f64, f64, usize)>,
}

impl PlanIsland {
    /// One operation: an LPRG plan plus a what-if sweep over candidate pins.
    fn op(&self, i: usize, t: &mut Tracer, checks: &mut Checks) -> Option<Plan> {
        let inst = &self.instances[i];
        let seed = self.seed;
        t.set_op(i as u64);
        t.span("plan_island.op", |t| {
            let lprg = t.span("core.lprg", |_| Lprg::default().solve(inst));
            let sweep = t.span("core.pin_sweep", |_| {
                Lprr::new(seed).pin_sweep(inst, SWEEP_PROBES)
            });
            t.span("core.validate", |_| {
                let (Ok(lprg), Ok(sweep)) = (lprg, sweep) else {
                    checks.check(false, || format!("plan_island op {i}: a solver errored"));
                    return None;
                };
                let bound = sweep.base_objective;
                let best = lprg.objective_value(inst);
                let probes_ok = sweep
                    .probes
                    .iter()
                    .all(|p| within_bound(p.objective, bound));
                let ok = lprg.validate(inst).is_ok() && within_bound(best, bound) && probes_ok;
                checks.check(ok, || {
                    format!("plan_island op {i}: LPRG invalid, or a plan above the LP bound")
                });
                Some(Plan { bound, best })
            })
        })
    }
}

/// NaN-safe bit-for-bit equality of two sweep reports, ignoring the worker
/// count they ran with.
fn sweeps_bit_identical(a: &PinSweepReport, b: &PinSweepReport) -> bool {
    let bits = |x: f64, y: f64| x.to_bits() == y.to_bits();
    a.probes.len() == b.probes.len()
        && a.probes.iter().zip(&b.probes).all(|(p, q)| {
            (p.from, p.to, p.v) == (q.from, q.to, q.v) && bits(p.objective, q.objective)
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

impl Workload for PlanIsland {
    const NAME: &'static str = "plan_island";
    const WHY: &'static str =
        "federation scale (K=400 in islands of 8): the only path through the \
        sparse LU core, the per-probe WarmSimplex clone and the sharded pin sweep";
    const UNITS_PER_SECOND: f64 = 3.0;

    fn setup(seed: u64, units: usize, layer: &mut Values) -> Self {
        let instances = generate(units, layer, |i| {
            island_instance(ISLAND_K, unit_seed(seed, i))
        });
        let w = PlanIsland {
            seed,
            plans: vec![None; instances.len()],
            instances,
            sweep_check: None,
        };
        black_box(w.op(0, &mut Tracer::off(), &mut Checks::default()));
        w
    }

    fn run(
        &mut self,
        units: Range<usize>,
        _round: u32,
        t: &mut Tracer,
        checks: &mut Checks,
    ) -> Vec<f64> {
        time_each(units, |i| self.plans[i] = self.op(i, t, checks))
    }

    fn verify(&mut self, expected: &mut Expected, checks: &mut Checks) {
        compare_plans(&self.plans, expected, checks);
        // threads = 1 ≡ default, bit for bit, on one instance.
        let inst = &self.instances[0];
        let sequential = Lprr {
            threads: 1,
            ..Lprr::new(self.seed)
        };
        let t0 = Instant::now();
        let seq = sequential.pin_sweep(inst, SWEEP_PROBES);
        let seq_ms = ms_since(t0);
        let t0 = Instant::now();
        let shd = Lprr::new(self.seed).pin_sweep(inst, SWEEP_PROBES);
        let shd_ms = ms_since(t0);
        let same = match (&seq, &shd) {
            (Ok(a), Ok(b)) => {
                self.sweep_check = Some((seq_ms, shd_ms, b.threads));
                sweeps_bit_identical(a, b)
            }
            _ => false,
        };
        checks.check(same, || {
            "plan_island: pin_sweep with threads = 1 differs from the default".into()
        });
    }

    fn probe(&mut self, t: &mut Tracer, layer: &mut Values, checks: &mut Checks) {
        let spans = t.spans();
        let med = |name: &str| median(&durations_ms(spans, name));
        layer.insert("core.lprg_ms", med("core.lprg"));
        layer.insert("core.pin_sweep_ms", med("core.pin_sweep"));
        layer.insert("core.validate_ms", med("core.validate"));
        layer.insert("core.quality_gap", quality_gap(&self.plans));
        if let Some((seq_ms, shd_ms, threads)) = self.sweep_check {
            layer.insert("core.sweep_threads", threads as f64);
            layer.insert("core.sweep_sequential_ms", seq_ms);
            layer.insert("core.sweep_sharded_ms", shd_ms);
            layer.insert(
                "core.sweep_parallel_eff",
                seq_ms / (threads as f64 * shd_ms),
            );
        }

        // Stage-by-stage: the cold stages, then single probes exactly as the
        // sweep runs them — clone the base context, apply one pin, re-solve.
        let inst = &self.instances[0];
        t.set_op(PROBE_OP);
        let probed = t.span("plan_island.probe", |t| {
            let (f, base, sol) = probe_cold_stages(inst, t, layer)?;
            let frac = f.extract_fractional(&sol);
            let k = inst.platform.num_clusters();
            let mut probe_ms = Vec::new();
            let mut stats = None;
            let pairs = inst.platform.routed_pairs();
            let step = pairs.len().div_ceil(SWEEP_PROBES).max(1);
            for &(from, to) in pairs.iter().step_by(step) {
                let want = (frac.beta[from.index() * k + to.index()] + 0.5).floor() as u32;
                let v = want.min(inst.platform.route_max_connections(from, to).unwrap_or(0));
                let Ok(delta) = f.pin_delta(inst, from, to, v) else {
                    continue;
                };
                let (objective, ms) = t.timed("core.pin_probe", |t| {
                    let mut w = t.span("lp.clone", |_| base.clone());
                    t.span("core.pin_apply", |_| apply_delta(&mut w, &delta))
                        .ok()?;
                    let sol = t.span("lp.warm_solve", |_| w.solve()).ok()?;
                    stats = Some(w);
                    Some(sol.objective)
                });
                probe_ms.push(ms);
                if !within_bound(objective?, sol.objective) {
                    return None;
                }
            }
            layer.insert("core.pin_probe_ms", median(&probe_ms));
            layer.insert("core.pin_probes", probe_ms.len() as f64);
            if let Some(w) = &stats {
                // Counters of the last probe's private context: one cold
                // solve inherited from the base, one warm re-solve.
                insert_warm_stats(w, layer);
            }
            Some(())
        });
        layer.insert(
            "lp.warm_solve_ms",
            median(&durations_ms(t.spans(), "lp.warm_solve")),
        );
        layer.insert(
            "core.pin_apply_us",
            median(&durations_ms(t.spans(), "core.pin_apply")) * 1e3,
        );
        checks.check(probed.is_some(), || {
            "plan_island probe: a staged solve failed or beat the LP bound".into()
        });
    }
}
