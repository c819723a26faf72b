//! Linear-program formulations of the steady-state problem (Eq. 7).
//!
//! Two lowering modes are provided:
//!
//! * **β-eliminated relaxation** ([`LpFormulation::relaxation`]) — for the
//!   rational relaxation, `β_{k,l}` appears only in (7d) with positive
//!   coefficients and in (7e) as an upper bound on `α_{k,l}`, so the optimal
//!   fractional choice is exactly `β̃_{k,l} = α_{k,l} / minbw_{k,l}`.
//!   Substituting turns (7d) into
//!   `Σ_{(k,l): li∈L_{k,l}} α_{k,l}/minbw_{k,l} ≤ max-connect(li)` and drops
//!   (7e) entirely: the LP shrinks from `2·K²` variables and `K² + 2K + |B|`
//!   rows to `K²` variables and `2K + |B|` rows with no loss of exactness.
//!   The fractional `β̃` reported to the rounding heuristics is recovered as
//!   `α̃/minbw`.
//! * **explicit mixed program** ([`LpFormulation::mixed`]) — keeps integer
//!   `β` variables and the (7d)/(7e) rows verbatim; used by the exact
//!   branch-and-bound solver and by the formulation ablation benchmark.
//!
//! [`LpFormulation::relaxation_with_fixed`] supports the randomized-rounding
//! heuristic (LPRR): routes whose `β` has been fixed to an integer `v` keep
//! `α_{k,l} ≤ v·minbw` as a variable bound, stop contributing to (7d), and
//! reduce the remaining connection budget of every link on their route.
//!
//! # Incremental pins (`pin_beta` delta algebra)
//!
//! Rebuilding the fixed-β relaxation over the whole K² pair grid for every
//! pin is what made LPRR cost ~K² *model constructions* on top of ~K² cold
//! LP solves. [`LpFormulation::relaxation_warm`] +
//! [`LpFormulation::pin_beta`] instead apply each §5.2.3 pin as a delta to
//! one model built once per instance:
//!
//! * **pre-materialised caps** — `relaxation_warm` gives every pinnable
//!   route the finite bound `α_{k,l} ≤ minbw·route-budget` up front. The
//!   bound is implied by (7d) (each link row alone forces
//!   `α/minbw ≤ max-connect`), so the relaxation optimum is unchanged — but
//!   it keeps the standard-form layout *stable* under pins: tightening an
//!   already-finite bound is a pure value change, while turning an infinite
//!   bound finite would add a row;
//! * **pin delta** — `pin_beta(k, l, v)` then (1) tightens the variable
//!   bound to `v·minbw`, (2) removes the `α/minbw` term from every (7d) row
//!   along the route, and (3) lowers those rows' right-hand sides by `v`.
//!
//! The returned [`PinDelta`] lists the primitive mutations so a
//! [`dls_lp::WarmSimplex`] can mirror them onto its factorised state and
//! re-solve warm (a handful of dual pivots) instead of cold.

use crate::allocation::FractionalAllocation;
use crate::error::SolveError;
use crate::problem::{Objective, ProblemInstance};
use dls_lp::{ConstraintId, ConstraintOp, Model, Sense, Solution, VarId};
use dls_platform::{ClusterId, LinkId};

/// A lowered steady-state problem with the bookkeeping needed to map LP
/// solutions back to `(α, β)` matrices.
#[derive(Debug, Clone)]
pub struct LpFormulation {
    /// The LP/MILP model (maximisation).
    pub model: Model,
    k: usize,
    /// `alpha_vars[k·K + l]`: the `α_{k,l}` variable, present for the
    /// diagonal and every routed pair.
    alpha_vars: Vec<Option<VarId>>,
    /// `β_{k,l}` variables (explicit mode only).
    beta_vars: Vec<Option<VarId>>,
    /// β values pinned by randomized rounding (relaxation-with-fixed mode).
    fixed_beta: Vec<Option<u32>>,
    /// Bottleneck bandwidth per pair (∞ for same-router pairs, NaN when no
    /// route).
    minbw: Vec<f64>,
    /// (7b) compute-capacity row per cluster.
    compute_rows: Vec<Option<ConstraintId>>,
    /// (7c) local-link row per cluster.
    local_rows: Vec<Option<ConstraintId>>,
    /// (7d) connection-budget row per backbone link.
    link_rows: Vec<Option<ConstraintId>>,
    /// `true` when pinnable α bounds were pre-materialised (warm mode), the
    /// prerequisite for `pin_beta`.
    premat_caps: bool,
    /// The auxiliary objective variable (`z` for MAXMIN; `None` for SUM,
    /// whose objective lives directly on the α coefficients).
    objective_var: Option<VarId>,
}

/// Deterministic tie-break weight for structural variable `index` in the
/// canonical lexicographic second stage (see
/// [`LpFormulation::tiebreak_terms`]). A full-width bit mixer (the
/// splitmix64 finaliser) maps each index to `[1, 1.5)`; a *linear* map of
/// the index must not be used here — affine weight structure makes swap
/// patterns like `w(a)−w(a+2) = w(b)−w(b+2)` cancel exactly, leaving the
/// stage-2 LP degenerate along precisely the directions it is meant to
/// resolve. Generic (mixed) weights force a unique stage-2 optimum.
pub fn tiebreak_weight(index: usize) -> f64 {
    let mut h = (index as u64) ^ 0x9e37_79b9_7f4a_7c15;
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    1.0 + ((h >> 44) as f64 / (1u64 << 20) as f64) * 0.5
}

/// The primitive model mutations one [`LpFormulation::pin_beta`] performed,
/// so a warm solver context can mirror them onto its factorised state.
#[derive(Debug, Clone, PartialEq)]
pub struct PinDelta {
    /// The pinned pair's α variable.
    pub var: VarId,
    /// Its new bounds: `[0, v·minbw]`.
    pub lo: f64,
    /// Upper bound after the pin.
    pub up: f64,
    /// (7d) rows that lost this α's `1/minbw` coefficient.
    pub coef_zeroed: Vec<(ConstraintId, VarId)>,
    /// (7d) rows whose right-hand side dropped by `v`, with the new value.
    pub rhs: Vec<(ConstraintId, f64)>,
}

impl LpFormulation {
    /// β-eliminated rational relaxation of Eq. 7.
    pub fn relaxation(inst: &ProblemInstance) -> Result<Self, SolveError> {
        Self::build(
            inst,
            BetaMode::Eliminated {
                fixed: &[],
                premat_caps: false,
            },
        )
    }

    /// Relaxation with some routes' β pinned to integers (LPRR inner loop).
    /// `fixed[k·K + l] = Some(v)` pins `β_{k,l} = v`.
    pub fn relaxation_with_fixed(
        inst: &ProblemInstance,
        fixed: &[Option<u32>],
    ) -> Result<Self, SolveError> {
        Self::build(
            inst,
            BetaMode::Eliminated {
                fixed,
                premat_caps: false,
            },
        )
    }

    /// Warm-startable relaxation: like [`LpFormulation::relaxation`], but
    /// every pinnable route's α carries the (implied, hence exact) finite
    /// cap `minbw·route-budget`, so later [`LpFormulation::pin_beta`] calls
    /// never change the standard-form layout. See the module docs.
    pub fn relaxation_warm(inst: &ProblemInstance) -> Result<Self, SolveError> {
        Self::build(
            inst,
            BetaMode::Eliminated {
                fixed: &[],
                premat_caps: true,
            },
        )
    }

    /// The true mixed integer/rational program with explicit integer β.
    pub fn mixed(inst: &ProblemInstance) -> Result<Self, SolveError> {
        Self::build(inst, BetaMode::Explicit)
    }

    fn build(inst: &ProblemInstance, mode: BetaMode<'_>) -> Result<Self, SolveError> {
        let p = &inst.platform;
        let k = p.num_clusters();
        if inst.payoffs.len() != k {
            return Err(SolveError::PayoffMismatch {
                clusters: k,
                payoffs: inst.payoffs.len(),
            });
        }
        let mut model = Model::new(Sense::Maximize);
        let mut alpha_vars: Vec<Option<VarId>> = vec![None; k * k];
        let mut beta_vars: Vec<Option<VarId>> = vec![None; k * k];
        let mut fixed_beta: Vec<Option<u32>> = vec![None; k * k];
        let mut minbw = vec![f64::NAN; k * k];

        let premat_caps = matches!(
            mode,
            BetaMode::Eliminated {
                premat_caps: true,
                ..
            }
        );
        if let BetaMode::Eliminated { fixed, .. } = mode {
            if !fixed.is_empty() {
                assert_eq!(fixed.len(), k * k, "fixed-β table must be K×K");
                fixed_beta.copy_from_slice(fixed);
            }
        }

        // --- variables ---
        for from in p.cluster_ids() {
            // Diagonal: local work, bounded by (7b) anyway.
            let v = model.add_var(format!("a_{}_{}", from.0, from.0), 0.0, f64::INFINITY);
            alpha_vars[from.index() * k + from.index()] = Some(v);
            for to in p.cluster_ids() {
                if from == to {
                    continue;
                }
                let Some(bw) = p.route_bottleneck_bw(from, to) else {
                    continue;
                };
                let i = from.index() * k + to.index();
                minbw[i] = bw;
                // α upper bound: pinned routes are capped at v·minbw right
                // in the variable bound (cheaper than an extra row). Warm
                // mode caps every pinnable route at the bound (7d) already
                // implies, so pins stay layout-preserving.
                let ub = match fixed_beta[i] {
                    Some(v) if bw.is_finite() => v as f64 * bw,
                    None if premat_caps && bw.is_finite() => p
                        .route_max_connections(from, to)
                        .map(|b| b as f64 * bw)
                        .unwrap_or(f64::INFINITY),
                    _ => f64::INFINITY,
                };
                let av = model.add_var(format!("a_{}_{}", from.0, to.0), 0.0, ub);
                alpha_vars[i] = Some(av);
                if matches!(mode, BetaMode::Explicit) && bw.is_finite() {
                    let beta_ub = p
                        .route_max_connections(from, to)
                        .map(|m| m as f64)
                        .unwrap_or(f64::INFINITY);
                    let bv = model.add_int_var(format!("b_{}_{}", from.0, to.0), 0.0, beta_ub);
                    beta_vars[i] = Some(bv);
                }
            }
        }

        // --- (7b) compute capacity ---
        let mut compute_rows: Vec<Option<ConstraintId>> = vec![None; k];
        for c in p.cluster_ids() {
            let terms: Vec<(VarId, f64)> = p
                .cluster_ids()
                .filter_map(|from| alpha_vars[from.index() * k + c.index()].map(|v| (v, 1.0)))
                .collect();
            if !terms.is_empty() {
                compute_rows[c.index()] =
                    Some(model.add_constraint(terms, ConstraintOp::Le, p.cluster(c).speed));
            }
        }

        // --- (7c) local links ---
        let mut local_rows: Vec<Option<ConstraintId>> = vec![None; k];
        for c in p.cluster_ids() {
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for l in p.cluster_ids() {
                if l == c {
                    continue;
                }
                if let Some(v) = alpha_vars[c.index() * k + l.index()] {
                    terms.push((v, 1.0));
                }
                if let Some(v) = alpha_vars[l.index() * k + c.index()] {
                    terms.push((v, 1.0));
                }
            }
            if !terms.is_empty() {
                local_rows[c.index()] =
                    Some(model.add_constraint(terms, ConstraintOp::Le, p.cluster(c).local_bw));
            }
        }

        // --- (7d) connection budget per backbone link (+ (7e) in explicit
        // mode) ---
        // Collect, per link, the routed pairs crossing it.
        let mut through: Vec<Vec<usize>> = vec![Vec::new(); p.links.len()];
        for from in p.cluster_ids() {
            for to in p.cluster_ids() {
                if from == to {
                    continue;
                }
                if let Some(route) = p.route(from, to) {
                    let i = from.index() * k + to.index();
                    if alpha_vars[i].is_some() {
                        for l in route {
                            through[l.index()].push(i);
                        }
                    }
                }
            }
        }
        let mut link_rows: Vec<Option<ConstraintId>> = vec![None; p.links.len()];
        for (li, pairs) in through.iter().enumerate() {
            if pairs.is_empty() {
                continue;
            }
            let cap = p.links[li].max_connections as f64;
            match mode {
                BetaMode::Eliminated { .. } => {
                    let mut rhs = cap;
                    let mut terms: Vec<(VarId, f64)> = Vec::new();
                    for &i in pairs {
                        match fixed_beta[i] {
                            Some(v) => rhs -= v as f64,
                            None => {
                                let bw = minbw[i];
                                debug_assert!(bw.is_finite() && bw >= 0.0);
                                if bw > 0.0 {
                                    terms.push((alpha_vars[i].unwrap(), 1.0 / bw));
                                } else {
                                    // Zero-bandwidth route: α must be 0.
                                    model.set_bounds(alpha_vars[i].unwrap(), 0.0, 0.0);
                                }
                            }
                        }
                    }
                    if !terms.is_empty() {
                        link_rows[li] =
                            Some(model.add_constraint(terms, ConstraintOp::Le, rhs.max(0.0)));
                    }
                }
                BetaMode::Explicit => {
                    let terms: Vec<(VarId, f64)> = pairs
                        .iter()
                        .filter_map(|&i| beta_vars[i].map(|v| (v, 1.0)))
                        .collect();
                    if !terms.is_empty() {
                        link_rows[li] = Some(model.add_constraint(terms, ConstraintOp::Le, cap));
                    }
                }
            }
        }
        if matches!(mode, BetaMode::Explicit) {
            // (7e): α ≤ β·minbw for every pair that has a β variable.
            for i in 0..k * k {
                if let (Some(av), Some(bv)) = (alpha_vars[i], beta_vars[i]) {
                    let bw = minbw[i];
                    model.add_constraint(vec![(av, 1.0), (bv, -bw)], ConstraintOp::Le, 0.0);
                }
            }
        }

        // --- objective ---
        let mut objective_var = None;
        match inst.objective {
            Objective::Sum => {
                for from in p.cluster_ids() {
                    let payoff = inst.payoffs[from.index()];
                    if payoff == 0.0 {
                        continue;
                    }
                    for to in p.cluster_ids() {
                        if let Some(v) = alpha_vars[from.index() * k + to.index()] {
                            model.add_objective_coef(v, payoff);
                        }
                    }
                }
            }
            Objective::MaxMin => {
                let z = model.add_var("z", 0.0, f64::INFINITY);
                model.set_objective_coef(z, 1.0);
                objective_var = Some(z);
                for from in p.cluster_ids() {
                    let payoff = inst.payoffs[from.index()];
                    if payoff <= 0.0 {
                        continue;
                    }
                    // π_k·Σ_l α_{k,l} − z ≥ 0
                    let mut terms: Vec<(VarId, f64)> = p
                        .cluster_ids()
                        .filter_map(|to| {
                            alpha_vars[from.index() * k + to.index()].map(|v| (v, payoff))
                        })
                        .collect();
                    terms.push((z, -1.0));
                    model.add_constraint(terms, ConstraintOp::Ge, 0.0);
                }
            }
        }

        Ok(LpFormulation {
            model,
            k,
            alpha_vars,
            beta_vars,
            fixed_beta,
            minbw,
            compute_rows,
            local_rows,
            link_rows,
            premat_caps,
            objective_var,
        })
    }

    /// Applies the §5.2.3 pin `β_{from,to} = v` as an in-place delta (see
    /// the module docs): the α bound tightens to `v·minbw`, the `α/minbw`
    /// term leaves every (7d) row on the route, and those rows' budgets drop
    /// by `v`. Requires a [`LpFormulation::relaxation_warm`] formulation and
    /// `inst` must be the instance it was built from.
    ///
    /// Returns the primitive mutations for mirroring onto a warm solver.
    pub fn pin_beta(
        &mut self,
        inst: &ProblemInstance,
        from: ClusterId,
        to: ClusterId,
        v: u32,
    ) -> Result<PinDelta, SolveError> {
        let delta = self.pin_delta(inst, from, to, v)?;
        let i = from.index() * self.k + to.index();
        self.fixed_beta[i] = Some(v);
        self.model.set_bounds(delta.var, delta.lo, delta.up);
        for &(con, var) in &delta.coef_zeroed {
            self.model.set_coefficient(con, var, 0.0);
        }
        for &(con, new_rhs) in &delta.rhs {
            self.model.set_rhs(con, new_rhs);
        }
        Ok(delta)
    }

    /// Computes the [`PinDelta`] that [`LpFormulation::pin_beta`] *would*
    /// apply for `β_{from,to} = v`, without mutating the formulation.
    ///
    /// This is the probe primitive of the parallel pin sweep: every sweep
    /// worker evaluates candidate pins against an immutable shared base
    /// formulation, applying the returned delta to its own clone of the
    /// warm solver — so probes are pure functions of the base state and the
    /// sweep result is independent of worker count and chunking.
    pub fn pin_delta(
        &self,
        inst: &ProblemInstance,
        from: ClusterId,
        to: ClusterId,
        v: u32,
    ) -> Result<PinDelta, SolveError> {
        if !self.premat_caps {
            return Err(SolveError::BadPin(
                "formulation was not built with relaxation_warm",
            ));
        }
        let i = from.index() * self.k + to.index();
        if self.fixed_beta[i].is_some() {
            return Err(SolveError::BadPin("route is already pinned"));
        }
        let bw = self.minbw[i];
        if !bw.is_finite() {
            return Err(SolveError::BadPin("pair has no pinnable route"));
        }
        let var = self.alpha_vars[i].ok_or(SolveError::BadPin("pair has no α variable"))?;

        let up = v as f64 * bw;
        let mut coef_zeroed = Vec::new();
        let mut rhs = Vec::new();
        let route = inst
            .platform
            .route(from, to)
            .ok_or(SolveError::BadPin("pair has no route"))?;
        for l in route {
            let Some(con) = self.link_rows[l.index()] else {
                continue;
            };
            if bw > 0.0 {
                coef_zeroed.push((con, var));
            }
            // Clamp like `relaxation_with_fixed` does; the LPRR budget
            // discipline keeps this non-negative up to float noise.
            let new_rhs = (self.model.rhs(con) - v as f64).max(0.0);
            rhs.push((con, new_rhs));
        }
        Ok(PinDelta {
            var,
            lo: 0.0,
            up,
            coef_zeroed,
            rhs,
        })
    }

    /// The pinned β value of a pair, if any.
    pub fn pinned_beta(&self, from: ClusterId, to: ClusterId) -> Option<u32> {
        self.fixed_beta[from.index() * self.k + to.index()]
    }

    /// Number of applications.
    pub fn num_apps(&self) -> usize {
        self.k
    }

    /// The `α_{from,to}` variable, if the pair is routed (or diagonal).
    pub fn alpha_var(&self, from: ClusterId, to: ClusterId) -> Option<VarId> {
        self.alpha_vars[from.index() * self.k + to.index()]
    }

    /// The `β_{from,to}` variable (explicit mode only).
    pub fn beta_var(&self, from: ClusterId, to: ClusterId) -> Option<VarId> {
        self.beta_vars[from.index() * self.k + to.index()]
    }

    /// The auxiliary objective variable (`z` under MAXMIN), when the
    /// objective is carried by a dedicated variable rather than by α
    /// coefficients. Its presence signals a massively degenerate optimal
    /// face — the trigger for the canonical second stage.
    pub fn objective_var(&self) -> Option<VarId> {
        self.objective_var
    }

    /// Canonical lexicographic stage-2 objective: every α variable paired
    /// with its deterministic [`tiebreak_weight`]. Solving
    /// `max Σ w_j·α_j` over the (margin-relaxed) stage-1 optimal face has a
    /// unique optimum, so *any* correct LP solver — warm-started or cold —
    /// extracts the same vertex. This is what makes warm and cold resolver
    /// pipelines agree event-for-event under platform drift.
    pub fn tiebreak_terms(&self) -> Vec<(VarId, f64)> {
        self.alpha_vars
            .iter()
            .filter_map(|v| *v)
            .map(|v| (v, tiebreak_weight(v.index())))
            .collect()
    }

    /// The (7b) compute-capacity row of a cluster.
    pub fn compute_row(&self, cluster: ClusterId) -> Option<ConstraintId> {
        self.compute_rows[cluster.index()]
    }

    /// The (7c) local-link row of a cluster.
    pub fn local_link_row(&self, cluster: ClusterId) -> Option<ConstraintId> {
        self.local_rows[cluster.index()]
    }

    /// The (7d) connection-budget row of a backbone link.
    pub fn link_row(&self, link: LinkId) -> Option<ConstraintId> {
        self.link_rows[link.index()]
    }

    /// Maps an LP solution back to `(α, β̃)` matrices.
    ///
    /// In eliminated mode the fractional β is recovered as `α/minbw` (0 for
    /// same-router routes, the pinned integer for fixed routes).
    pub fn extract_fractional(&self, sol: &Solution) -> FractionalAllocation {
        let k = self.k;
        let mut alpha = vec![0.0f64; k * k];
        let mut beta = vec![0.0f64; k * k];
        for i in 0..k * k {
            if let Some(v) = self.alpha_vars[i] {
                // Clamp solver noise.
                alpha[i] = sol.values[v.index()].max(0.0);
            }
            beta[i] = match (self.beta_vars[i], self.fixed_beta[i]) {
                (Some(bv), _) => sol.values[bv.index()].max(0.0),
                (None, Some(f)) => f as f64,
                (None, None) => {
                    let bw = self.minbw[i];
                    if bw.is_finite() && bw > 0.0 && alpha[i] > 0.0 {
                        alpha[i] / bw
                    } else {
                        0.0
                    }
                }
            };
        }
        FractionalAllocation {
            k,
            alpha,
            beta,
            objective: sol.objective,
        }
    }
}

enum BetaMode<'a> {
    Eliminated {
        fixed: &'a [Option<u32>],
        /// Pre-materialise implied finite α caps on pinnable routes so
        /// `pin_beta` deltas preserve the standard-form layout.
        premat_caps: bool,
    },
    Explicit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_lp::solve_auto;
    use dls_platform::PlatformBuilder;

    fn two_cluster_inst(objective: Objective) -> ProblemInstance {
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 20.0);
        let c1 = b.add_cluster(50.0, 30.0);
        b.connect_clusters(c0, c1, 10.0, 2);
        ProblemInstance::uniform(b.build().unwrap(), objective)
    }

    #[test]
    fn sum_relaxation_solves_two_clusters() {
        // SUM optimum: both clusters fully busy = 150 total (transfers don't
        // add work when both can fill locally; LP just must reach 150).
        let inst = two_cluster_inst(Objective::Sum);
        let f = LpFormulation::relaxation(&inst).unwrap();
        let sol = solve_auto(&f.model).unwrap();
        assert!(sol.is_optimal());
        assert!(
            (sol.objective - 150.0).abs() < 1e-6,
            "obj {}",
            sol.objective
        );
    }

    #[test]
    fn maxmin_relaxation_balances_apps() {
        // MAXMIN: app 1 is limited by C1's speed 50 plus what it can ship to
        // C0 (min(g1,bw·β,g0) ≤ 20 by C0's g? Actually (7c) on C1 allows 30,
        // on C0 allows 20, route allows 2 conn × 10 = 20 → app1 ≤ 70; app0
        // ≤ 100 locally. min is bounded by 70. LP can reach min = 70:
        // α_1 = 50 + 20, α_0 = 100 − 20 = 80 ≥ 70. So optimum ≥ 70.
        let inst = two_cluster_inst(Objective::MaxMin);
        let f = LpFormulation::relaxation(&inst).unwrap();
        let sol = solve_auto(&f.model).unwrap();
        assert!(sol.is_optimal());
        assert!((sol.objective - 70.0).abs() < 1e-6, "obj {}", sol.objective);
    }

    #[test]
    fn eliminated_and_explicit_relaxations_agree() {
        // With integrality ignored, the explicit formulation's LP relaxation
        // must equal the eliminated one (the elimination is exact).
        let inst = two_cluster_inst(Objective::Sum);
        let elim = LpFormulation::relaxation(&inst).unwrap();
        let expl = LpFormulation::mixed(&inst).unwrap();
        let a = solve_auto(&elim.model).unwrap();
        let b = solve_auto(&expl.model).unwrap();
        assert!((a.objective - b.objective).abs() < 1e-6);
    }

    #[test]
    fn extract_fractional_recovers_beta() {
        let inst = two_cluster_inst(Objective::MaxMin);
        let f = LpFormulation::relaxation(&inst).unwrap();
        let sol = solve_auto(&f.model).unwrap();
        let frac = f.extract_fractional(&sol);
        let a01 = frac.alpha(ClusterId(0), ClusterId(1));
        let b01 = frac.beta(ClusterId(0), ClusterId(1));
        assert!((b01 - a01 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_beta_caps_alpha_and_reduces_budget() {
        let inst = two_cluster_inst(Objective::MaxMin);
        let k = inst.num_apps();
        let mut fixed = vec![None; k * k];
        // Pin β_{1,0} = 1: app 1 can ship at most 10 to C0; app 0's shipping
        // budget over the shared link shrinks to 1 connection.
        fixed[k] = Some(1);
        let f = LpFormulation::relaxation_with_fixed(&inst, &fixed).unwrap();
        let sol = solve_auto(&f.model).unwrap();
        let frac = f.extract_fractional(&sol);
        assert!(frac.alpha(ClusterId(1), ClusterId(0)) <= 10.0 + 1e-9);
        assert!(frac.beta(ClusterId(0), ClusterId(1)) <= 1.0 + 1e-9);
        assert_eq!(frac.beta(ClusterId(1), ClusterId(0)), 1.0);
    }

    #[test]
    fn warm_relaxation_caps_are_exact() {
        // The pre-materialised α caps are implied by (7d), so the warm
        // formulation's optimum must equal the plain relaxation's.
        for objective in [Objective::Sum, Objective::MaxMin] {
            let inst = two_cluster_inst(objective);
            let plain = LpFormulation::relaxation(&inst).unwrap();
            let warm = LpFormulation::relaxation_warm(&inst).unwrap();
            assert!(warm.model.num_upper_bounded_vars() > plain.model.num_upper_bounded_vars());
            let a = solve_auto(&plain.model).unwrap();
            let b = solve_auto(&warm.model).unwrap();
            assert!(
                (a.objective - b.objective).abs() < 1e-6,
                "plain {} vs warm {}",
                a.objective,
                b.objective
            );
        }
    }

    /// The paper's platform shape (Table 1 grid centre, as the scenario
    /// catalog draws it) at `k` clusters.
    fn paper_shape(k: usize, seed: u64, objective: Objective) -> ProblemInstance {
        use dls_platform::{PlatformConfig, PlatformGenerator};
        let cfg = PlatformConfig {
            num_clusters: k,
            mean_backbone_bw: 30.0,
            mean_max_connections: 15.0,
            ..PlatformConfig::default()
        };
        ProblemInstance::uniform(PlatformGenerator::new(seed).generate(&cfg), objective)
    }

    #[test]
    fn paper_scale_warm_relaxation_runs_on_the_sparse_lu() {
        // Which basis representation `BasisRepr::Auto` picks is decided by
        // the *lowered* row count. On the paper's K=50 platform shape the
        // plain relaxation stays far below the switch, but the warm variant
        // adds one bound row per pre-materialised α cap — ~K² of them — and
        // crosses it: LPRR and the online `WarmLprg` resolver at the
        // paper's scale run on the sparse LU, not on the dense inverse.
        use dls_lp::standard::StandardForm;
        use dls_lp::SPARSE_MIN_ROWS;
        for seed in [7, 42] {
            let inst = paper_shape(50, seed, Objective::MaxMin);
            let rows = |f: LpFormulation| StandardForm::from_model(&f.model).unwrap().m;
            let plain = rows(LpFormulation::relaxation(&inst).unwrap());
            let warm = rows(LpFormulation::relaxation_warm(&inst).unwrap());
            assert!(plain < SPARSE_MIN_ROWS, "seed {seed}: plain m = {plain}");
            assert!(warm >= SPARSE_MIN_ROWS, "seed {seed}: warm m = {warm}");
        }
    }

    #[test]
    fn auto_engine_crossover_sits_between_the_service_and_paper_scales() {
        // `Engine::Auto` routes one-shot cold solves by the measured
        // tableau crossover (`dls_lp::AUTO_DENSE_LIMIT`): the paper's own
        // K=50 relaxation (~2.4 M cells, where the tableau loses 3.9×) goes
        // to the sparse LU — never to the dense-inverse oracle — while the
        // K = 5 / 8 tenants the service benchmarks create stay on the
        // tableau, which is still the fastest engine there.
        use dls_lp::{resolve_engine, Engine};
        for objective in [Objective::Sum, Objective::MaxMin] {
            for seed in [7, 42] {
                let engine = |k| {
                    let inst = paper_shape(k, seed, objective);
                    resolve_engine(&LpFormulation::relaxation(&inst).unwrap().model)
                };
                assert_eq!(engine(50), Engine::Sparse, "seed {seed} {objective:?}");
                assert_eq!(engine(8), Engine::Dense, "seed {seed} {objective:?}");
                assert_eq!(engine(5), Engine::Dense, "seed {seed} {objective:?}");
            }
        }
    }

    #[test]
    fn pin_beta_delta_matches_rebuilt_formulation() {
        let inst = two_cluster_inst(Objective::MaxMin);
        let k = inst.num_apps();
        let mut warm = LpFormulation::relaxation_warm(&inst).unwrap();
        let delta = warm.pin_beta(&inst, ClusterId(1), ClusterId(0), 1).unwrap();
        assert_eq!(delta.up, 10.0);
        assert_eq!(delta.coef_zeroed.len(), 1);
        assert_eq!(delta.rhs, vec![(delta.coef_zeroed[0].0, 1.0)]);
        assert_eq!(warm.pinned_beta(ClusterId(1), ClusterId(0)), Some(1));

        let mut fixed = vec![None; k * k];
        fixed[k] = Some(1);
        let rebuilt = LpFormulation::relaxation_with_fixed(&inst, &fixed).unwrap();
        let a = solve_auto(&warm.model).unwrap();
        let b = solve_auto(&rebuilt.model).unwrap();
        assert!(
            (a.objective - b.objective).abs() < 1e-6,
            "delta {} vs rebuilt {}",
            a.objective,
            b.objective
        );
        // And the extracted fractional allocations agree on the pin.
        let frac = warm.extract_fractional(&a);
        assert_eq!(frac.beta(ClusterId(1), ClusterId(0)), 1.0);
        assert!(frac.alpha(ClusterId(1), ClusterId(0)) <= 10.0 + 1e-9);
    }

    #[test]
    fn pin_beta_guards() {
        let inst = two_cluster_inst(Objective::Sum);
        let mut plain = LpFormulation::relaxation(&inst).unwrap();
        assert!(matches!(
            plain.pin_beta(&inst, ClusterId(0), ClusterId(1), 1),
            Err(SolveError::BadPin(_))
        ));
        let mut warm = LpFormulation::relaxation_warm(&inst).unwrap();
        warm.pin_beta(&inst, ClusterId(0), ClusterId(1), 1).unwrap();
        assert!(matches!(
            warm.pin_beta(&inst, ClusterId(0), ClusterId(1), 2),
            Err(SolveError::BadPin(_))
        ));
        // Diagonal pairs carry no β.
        assert!(matches!(
            warm.pin_beta(&inst, ClusterId(0), ClusterId(0), 1),
            Err(SolveError::BadPin(_))
        ));
    }

    #[test]
    fn isolated_cluster_only_works_locally() {
        let mut b = PlatformBuilder::new();
        b.add_cluster(100.0, 20.0);
        b.add_cluster(50.0, 30.0); // not connected
        let inst = ProblemInstance::uniform(b.build().unwrap(), Objective::Sum);
        let f = LpFormulation::relaxation(&inst).unwrap();
        let sol = solve_auto(&f.model).unwrap();
        assert!((sol.objective - 150.0).abs() < 1e-6);
        let frac = f.extract_fractional(&sol);
        assert_eq!(frac.alpha(ClusterId(0), ClusterId(1)), 0.0);
    }

    #[test]
    fn single_cluster_instance() {
        let mut b = PlatformBuilder::new();
        b.add_cluster(42.0, 5.0);
        let inst = ProblemInstance::uniform(b.build().unwrap(), Objective::MaxMin);
        let f = LpFormulation::relaxation(&inst).unwrap();
        let sol = solve_auto(&f.model).unwrap();
        assert!((sol.objective - 42.0).abs() < 1e-9);
    }
}
