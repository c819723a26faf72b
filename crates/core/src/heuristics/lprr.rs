//! The randomized round-off heuristic `LPRR` of §5.2.3.
//!
//! Following Coudert & Rivano's practical variant of the
//! Motwani–Naor–Raghavan randomized rounding, routes are fixed one at a
//! time:
//!
//! 1. solve the rational relaxation with all previously fixed `β` pinned;
//! 2. pick an unfixed route `(k,l)` with `β̃_{k,l} ≠ 0` uniformly at random;
//! 3. draw `X ∈ {0,1}` with `P(X=1) = β̃_{k,l} − ⌊β̃_{k,l}⌋`;
//! 4. pin `β_{k,l} = ⌊β̃_{k,l}⌋ + X` (clamped to the remaining connection
//!    budget of the route, which keeps every intermediate LP feasible —
//!    the property that makes this variant always produce a solution);
//! 5. repeat until every route is fixed, then read `α` off the final LP.
//!
//! One pin per route ⇒ ~`K²` pins, which §5.2.3 costs at one LP each:
//! near-optimal results (§6.2) at roughly `K²` times LPRG's price. The
//! equal-probability ablation ([`RoundingRule::EqualProbability`])
//! reproduces the paper's remark that rounding to the nearest integer
//! *with probability proportional to the fractional part* matters: a fair
//! coin performs much worse.
//!
//! # Warm-started inner loop
//!
//! By default ([`Lprr::warm`]) the loop runs through one persistent
//! [`dls_lp::WarmSimplex`], which owns the model: the formulation is built
//! once ([`LpFormulation::relaxation_warm`]), every pin is applied as an
//! in-place [`crate::formulation::PinDelta`] (`LpIndex::pin`), and each
//! re-solve starts from the previous optimal basis (a handful of dual
//! pivots) instead of a cold two-phase solve over a freshly rebuilt model.
//! The cold path is retained as the oracle: [`Lprr::oracle_check`]
//! cross-checks every warm solve against a cold solve of the same model,
//! and with `warm: false` the heuristic rebuilds + cold-solves after every
//! pin, exactly as the paper costs it (with the LP engine selected once per
//! instance, so one rounding sequence never straddles the dense/sparse
//! crossover as pins grow the model).
//!
//! # Lazy re-solves
//!
//! Most pins cannot change the LP's answer — chiefly the long tail of
//! unused routes pinned to the `β̃ = 0` they already had — so the warm loop
//! *applies* every pin (formulation and solver patches, as above) but
//! re-solves only before a draw that follows a pin that could. The held
//! optimum, with `β̃[pick]` set to the pinned value, serves the draws in
//! between, and α is always read off a real solve at the end. A pin is
//! deferred only when all three hold:
//!
//! * it fixes β where the LP already had it (`|v − β̃| ≤ 1e-9`, budget clamp
//!   included), so the held point stays feasible for the tightened LP, hence
//!   optimal;
//! * every (7d) row that loses the `α/minbw` term has a zero dual, so no
//!   reduced cost moves and the held basis stays dual feasible — a pin at an
//!   integral `β̃` on a *priced* row keeps the optimum but not the basis,
//!   and the solve-every-pin loop would pivot to another optimal vertex;
//! * the patches left the basis alone (no eviction of the α column, no
//!   refactorisation queued).
//!
//! The re-solve such a pin skips finds the inherited basis still optimal
//! and leaves by the warm path's zero-pivot exit without touching the
//! factorisation, so skipping it changes no later solve: same RNG draws,
//! same bases, and the result is bit-identical to the solve-every-pin loop
//! (`tests/properties.rs` replays that loop through the public pieces;
//! [`Lprr::oracle_check`] runs every deferred solve anyway and fails with
//! [`SolveError::DeferredSolveMoved`] unless it was a no-op). Measured on
//! the paper-shape K = 50 platforms of the `plan_paper` benchmark workload
//! (seed 42, 24 instances): 2450 pins, 289–722 `solve()` calls where the
//! eager loop makes 2451, with identical pivot counts (438–2025 dual
//! pivots).

use super::Heuristic;
use crate::allocation::{Allocation, FractionalAllocation};
use crate::error::SolveError;
use crate::formulation::{LpFormulation, LpIndex};
use crate::problem::ProblemInstance;
use dls_lp::{resolve_engine, solve_with, Engine, RevisedSimplex, Status, WarmSimplex, WarmStats};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Noise floor of the lazy loop: a pin this close to the `β̃` the LP
/// already had, shifting no reduced cost by more than this, does not move
/// the LP — and the solve it defers must reproduce `β̃` this closely.
const HELD_PIN_TOL: f64 = 1e-9;

/// How step 3 draws the rounding direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundingRule {
    /// `P(up) = fractional part` — the paper's LPRR.
    NearestProbability,
    /// `P(up) = 1/2` whenever fractional — the ablation the paper reports
    /// as much worse (§6.2).
    EqualProbability,
}

/// The `LPRR` heuristic.
#[derive(Debug, Clone)]
pub struct Lprr {
    /// RNG seed (LPRR is randomized; fixing the seed fixes the outcome).
    pub seed: u64,
    /// Rounding rule (paper default: nearest-probability).
    pub rule: RoundingRule,
    /// LP engine for the cold (`warm: false`) path. `None` resolves the
    /// size-based choice **once per instance**, from the pristine
    /// relaxation, and reuses it for the whole rounding sequence.
    pub engine: Option<Engine>,
    /// Run the incremental warm-started pipeline (default). The cold path
    /// stays available as the reference implementation.
    pub warm: bool,
    /// Cross-check every warm solve against a cold solve of the same model
    /// (surfaces [`dls_lp::LpError::WarmColdMismatch`] on disagreement), and
    /// run every re-solve the lazy loop defers, which must be a no-op
    /// ([`SolveError::DeferredSolveMoved`] otherwise).
    pub oracle_check: bool,
    /// Worker count for [`Lprr::pin_sweep`]: `0` resolves to the machine's
    /// available parallelism, `1` is the sequential path. The sweep result
    /// is bit-identical for every value (see `pin_sweep`'s module docs).
    pub threads: usize,
}

impl Lprr {
    /// Paper-default LPRR with the given seed.
    pub fn new(seed: u64) -> Self {
        Lprr {
            seed,
            rule: RoundingRule::NearestProbability,
            engine: None,
            warm: true,
            oracle_check: false,
            threads: 0,
        }
    }

    /// Equal-probability ablation variant.
    pub fn equal_probability(seed: u64) -> Self {
        Lprr {
            rule: RoundingRule::EqualProbability,
            ..Lprr::new(seed)
        }
    }

    /// Reference variant: rebuild + cold-solve every LP (the paper's cost
    /// model; kept as the oracle for the warm pipeline).
    pub fn cold(seed: u64) -> Self {
        Lprr {
            warm: false,
            ..Lprr::new(seed)
        }
    }

    pub(crate) fn check_optimal(sol: dls_lp::Solution) -> Result<dls_lp::Solution, SolveError> {
        match sol.status {
            Status::Optimal => Ok(sol),
            Status::Infeasible => Err(SolveError::UnexpectedStatus("infeasible")),
            Status::Unbounded => Err(SolveError::UnexpectedStatus("unbounded")),
        }
    }

    /// Oracle for the lazy loop: runs the solve a held optimum stands in
    /// for. It must be a no-op — no pivot, refactorisation or cold fallback
    /// — and must return the held `β̃`; anything else means a pin was
    /// deferred that moved the LP.
    fn check_held(
        index: &LpIndex,
        solver: &mut WarmSimplex,
        held: &FractionalAllocation,
    ) -> Result<(), SolveError> {
        let spent =
            |s: WarmStats| s.dual_pivots + s.primal_pivots + s.refactorisations + s.fallbacks;
        let before = spent(solver.stats());
        let sol = Self::check_optimal(solver.solve()?)?;
        let work = spent(solver.stats()) - before;
        let drift = index
            .extract_fractional(&sol)
            .beta
            .iter()
            .zip(&held.beta)
            .fold(0.0f64, |worst, (a, b)| worst.max((a - b).abs()));
        if work == 0 && drift <= HELD_PIN_TOL {
            Ok(())
        } else {
            Err(SolveError::DeferredSolveMoved { work, drift })
        }
    }
}

/// Per-instance LP backend: one warm context (the only copy of the model)
/// reused across every pin, or the cold rebuild-per-solve reference with a
/// fixed engine.
enum LpBackend {
    Warm {
        index: LpIndex,
        solver: Box<WarmSimplex>,
    },
    Cold {
        engine: Engine,
    },
}

impl Heuristic for Lprr {
    fn name(&self) -> &'static str {
        "LPRR"
    }

    fn solve(&self, inst: &ProblemInstance) -> Result<Allocation, SolveError> {
        let p = &inst.platform;
        let k = p.num_clusters();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        // Routes that carry a β variable: routed pairs with a non-empty
        // (finite-bandwidth) route. Same-router pairs need no connections.
        let mut unfixed: Vec<usize> = Vec::new();
        for from in p.cluster_ids() {
            for to in p.cluster_ids() {
                if from == to {
                    continue;
                }
                if let Some(bw) = p.route_bottleneck_bw(from, to) {
                    if bw.is_finite() {
                        unfixed.push(from.index() * k + to.index());
                    }
                }
            }
        }
        let mut fixed: Vec<Option<u32>> = vec![None; k * k];
        // Remaining connection budget per backbone link.
        let mut link_budget: Vec<i64> = p.links.iter().map(|l| l.max_connections as i64).collect();

        let mut backend = if self.warm {
            let LpFormulation { model, index } = LpFormulation::relaxation_warm(inst)?;
            let mut solver = WarmSimplex::new(model, RevisedSimplex::default())?;
            solver.check_against_cold = self.oracle_check;
            LpBackend::Warm {
                index,
                solver: Box::new(solver),
            }
        } else {
            // Size the engine once, from the pristine relaxation.
            let engine = match self.engine {
                Some(e) => e,
                None => resolve_engine(&LpFormulation::relaxation(inst)?.model),
            };
            LpBackend::Cold { engine }
        };

        // Warm backend: the optimum of the last solve (β̃ and row duals),
        // held while no pin since could move it (module docs, "Lazy
        // re-solves"). `None` means the LP must be solved.
        let mut held: Option<(FractionalAllocation, Vec<f64>)> = None;

        loop {
            let (mut frac, duals) = match &mut backend {
                LpBackend::Warm { index, solver } => match held.take() {
                    // α is read off a real solve, never off a held optimum.
                    Some(kept) if !unfixed.is_empty() => {
                        if self.oracle_check {
                            Self::check_held(index, solver, &kept.0)?;
                        }
                        kept
                    }
                    _ => {
                        let sol = Self::check_optimal(solver.solve()?)?;
                        (index.extract_fractional(&sol), sol.duals)
                    }
                },
                LpBackend::Cold { engine } => {
                    let f = LpFormulation::relaxation_with_fixed(inst, &fixed)?;
                    let sol = Self::check_optimal(solve_with(&f.model, *engine)?)?;
                    (f.extract_fractional(&sol), sol.duals)
                }
            };

            if unfixed.is_empty() {
                // Every β pinned: α of this last solve is the answer.
                let mut alloc = Allocation::zeros(k);
                alloc.alpha.copy_from_slice(&frac.alpha);
                for (b, f) in alloc.beta.iter_mut().zip(&fixed) {
                    *b = f.unwrap_or(0);
                }
                return Ok(alloc);
            }

            // Step 2: prefer routes the current LP actually uses.
            let candidates: Vec<usize> = {
                let nonzero: Vec<usize> = unfixed
                    .iter()
                    .copied()
                    .filter(|&i| frac.beta[i] > 1e-9)
                    .collect();
                if nonzero.is_empty() {
                    unfixed.clone()
                } else {
                    nonzero
                }
            };
            let pick = candidates[rng.gen_range(0..candidates.len())];

            // Steps 3–4.
            let beta_tilde = frac.beta[pick];
            let floor = (beta_tilde + 1e-9).floor();
            let fraction = (beta_tilde - floor).clamp(0.0, 1.0);
            let up = if fraction <= 1e-9 {
                false
            } else {
                match self.rule {
                    RoundingRule::NearestProbability => rng.gen_bool(fraction),
                    RoundingRule::EqualProbability => rng.gen_bool(0.5),
                }
            };
            let mut v = floor as i64 + i64::from(up);

            // Clamp to the remaining budget along the route so the next LP
            // stays feasible (⌊β̃⌋ always fits; only the +1 can overflow).
            let (from, to) = (
                dls_platform::ClusterId((pick / k) as u32),
                dls_platform::ClusterId((pick % k) as u32),
            );
            let route = p.route(from, to).expect("candidate pair has a route");
            let budget = route
                .iter()
                .map(|l| link_budget[l.index()])
                .min()
                .unwrap_or(i64::MAX);
            v = v.min(budget).max(0);

            fixed[pick] = Some(v as u32);
            for l in route {
                link_budget[l.index()] -= v;
            }
            unfixed.retain(|&i| i != pick);

            // Warm path: mirror the pin onto the index *and* the
            // factorised solver state; the next solve is a dual repair.
            if let LpBackend::Warm { index, solver } = &mut backend {
                let evictions = solver.stats().evictions;
                let delta = index.pin(solver, inst, from, to, v as u32)?;
                // Hold the optimum when the pin cannot have moved it: β is
                // fixed where the LP had it (clamp included), so the point
                // stays feasible; the (7d) rows that lost the α/minbw term
                // carry no price, so no reduced cost moves; and the patches
                // left the basis alone.
                let same_beta = (v as f64 - beta_tilde).abs() <= HELD_PIN_TOL;
                let minbw = p.route_bottleneck_bw(from, to).unwrap_or(f64::INFINITY);
                let price_shift: f64 = delta
                    .coef_zeroed
                    .iter()
                    .map(|&(con, _)| duals[con.index()].abs() / minbw)
                    .sum();
                let basis_kept =
                    solver.stats().evictions == evictions && !solver.refactor_pending();
                if same_beta && price_shift <= HELD_PIN_TOL && basis_kept {
                    frac.beta[pick] = v as f64;
                    held = Some((frac, duals));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{Greedy, UpperBound};
    use crate::problem::Objective;
    use dls_platform::{PlatformConfig, PlatformGenerator};

    #[test]
    fn lprr_always_valid() {
        for seed in 0..8 {
            let cfg = PlatformConfig {
                num_clusters: 5,
                connectivity: 0.6,
                ..PlatformConfig::default()
            };
            let p = PlatformGenerator::new(seed).generate(&cfg);
            for objective in [Objective::Sum, Objective::MaxMin] {
                let inst = ProblemInstance::uniform(p.clone(), objective);
                let a = Lprr::new(seed).solve(&inst).unwrap();
                assert!(a.validate(&inst).is_ok(), "{:?}", a.violations(&inst));
            }
        }
    }

    #[test]
    fn lprr_is_deterministic_given_seed() {
        let cfg = PlatformConfig {
            num_clusters: 5,
            connectivity: 0.5,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(3).generate(&cfg);
        let inst = ProblemInstance::uniform(p, Objective::MaxMin);
        let a = Lprr::new(7).solve(&inst).unwrap();
        let b = Lprr::new(7).solve(&inst).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lprr_within_upper_bound_and_competitive() {
        let mut at_least_as_good = 0;
        let trials = 6;
        for seed in 0..trials {
            let cfg = PlatformConfig {
                num_clusters: 6,
                connectivity: 0.5,
                ..PlatformConfig::default()
            };
            let p = PlatformGenerator::new(50 + seed).generate(&cfg);
            let inst = ProblemInstance::uniform(p, Objective::MaxMin);
            let ub = UpperBound::default().bound(&inst).unwrap();
            let lprr = Lprr::new(seed).solve(&inst).unwrap().objective_value(&inst);
            let g = Greedy::default()
                .solve(&inst)
                .unwrap()
                .objective_value(&inst);
            assert!(lprr <= ub + 1e-6 * (1.0 + ub));
            if lprr >= g - 1e-9 {
                at_least_as_good += 1;
            }
        }
        // LPRR should usually match or beat the greedy (§6.2).
        assert!(
            at_least_as_good * 2 >= trials,
            "{at_least_as_good}/{trials}"
        );
    }

    #[test]
    fn warm_pipeline_passes_oracle_checks() {
        // Every warm solve in the rounding sequence is cross-checked against
        // a cold solve of the same model; a mismatch would error out.
        for seed in 0..3 {
            let cfg = PlatformConfig {
                num_clusters: 5,
                connectivity: 0.6,
                ..PlatformConfig::default()
            };
            let p = PlatformGenerator::new(seed).generate(&cfg);
            for objective in [Objective::Sum, Objective::MaxMin] {
                let inst = ProblemInstance::uniform(p.clone(), objective);
                let lprr = Lprr {
                    oracle_check: true,
                    ..Lprr::new(seed)
                };
                let a = lprr.solve(&inst).unwrap();
                assert!(a.validate(&inst).is_ok(), "{:?}", a.violations(&inst));
            }
        }
    }

    #[test]
    fn deferred_solves_are_no_ops_under_the_oracle() {
        // With `oracle_check` every re-solve the lazy loop would skip is run
        // anyway and must spend no pivot, refactorisation or fallback and
        // reproduce the held β̃ (`check_held`) — on the paper's platform
        // shape, on an equal-speed/equal-bandwidth platform where every optimum is
        // degenerate, and under connection budgets of 1–3, where (7d) rows
        // bind with integral β̃: there a pin at β̃ alone is not enough (the
        // patch evicts the α column, or a priced row loses a term).
        let paper = |k| PlatformConfig {
            num_clusters: k,
            mean_backbone_bw: 30.0,
            mean_max_connections: 15.0,
            ..PlatformConfig::default()
        };
        let flat = PlatformConfig {
            heterogeneity: 0.0,
            ..paper(10)
        };
        let tight = PlatformConfig {
            mean_max_connections: 2.0,
            ..paper(10)
        };
        let both = [
            RoundingRule::NearestProbability,
            RoundingRule::EqualProbability,
        ];
        // Every checked solve is also cold-solved, which at K = 20 costs
        // ~20 s per run unoptimised: that scale gets one rule, and only in
        // optimised builds (CI runs this test with `--release`).
        let k20_rules = if cfg!(debug_assertions) { 0 } else { 1 };
        for (cfg, seed, rules) in [
            (paper(10), 42, &both[..]),
            (paper(20), 42, &both[..k20_rules]),
            (flat, 3, &both[..]),
            (tight.clone(), 3, &both[..]),
            (tight, 8, &both[..]),
        ] {
            let p = PlatformGenerator::new(seed).generate(&cfg);
            for inst in [
                ProblemInstance::with_spread_payoffs(p.clone(), Objective::MaxMin, 0.5, seed),
                ProblemInstance::uniform(p, Objective::Sum),
            ] {
                for &rule in rules {
                    let lprr = Lprr {
                        rule,
                        ..Lprr::new(seed)
                    };
                    let checked = Lprr {
                        oracle_check: true,
                        ..lprr.clone()
                    };
                    let a = checked.solve(&inst).unwrap_or_else(|e| {
                        panic!("K={} seed {seed} {rule:?}: {e}", cfg.num_clusters)
                    });
                    assert!(a.validate(&inst).is_ok(), "{:?}", a.violations(&inst));
                    // The checked solves are no-ops, so both runs agree.
                    assert_eq!(a, lprr.solve(&inst).unwrap());
                }
            }
        }
    }

    #[test]
    fn cold_reference_path_still_valid() {
        let cfg = PlatformConfig {
            num_clusters: 5,
            connectivity: 0.5,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(11).generate(&cfg);
        for objective in [Objective::Sum, Objective::MaxMin] {
            let inst = ProblemInstance::uniform(p.clone(), objective);
            let a = Lprr::cold(11).solve(&inst).unwrap();
            assert!(a.validate(&inst).is_ok(), "{:?}", a.violations(&inst));
            // Deterministic too.
            assert_eq!(a, Lprr::cold(11).solve(&inst).unwrap());
        }
    }

    #[test]
    fn equal_probability_variant_runs() {
        let cfg = PlatformConfig {
            num_clusters: 4,
            connectivity: 0.6,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(5).generate(&cfg);
        let inst = ProblemInstance::uniform(p, Objective::Sum);
        let a = Lprr::equal_probability(1).solve(&inst).unwrap();
        assert!(a.validate(&inst).is_ok());
    }
}
