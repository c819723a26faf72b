//! Warm-started LP solving: basis snapshots and in-place formulation deltas.
//!
//! The randomized-rounding heuristic (LPRR, §5.2.3 of the paper) and
//! branch-and-bound both solve long *sequences* of LPs where consecutive
//! models differ by a bound tightening, a right-hand-side delta, or a few
//! coefficient changes. Cold-solving each one from a slack basis wastes
//! almost all of the work: the previous optimal basis is one or two pivots
//! away from the new optimum. This module provides two warm-start layers on
//! top of [`RevisedSimplex`]:
//!
//! * [`Basis`] + [`RevisedSimplex::solve_warm`] — a snapshot/restore API.
//!   The basis of one solve seeds the next solve of a *same-shaped* model
//!   (same variables, constraints, and finite-bound pattern — exactly what
//!   branch-and-bound bound tightenings produce). The standard form is
//!   re-lowered, the snapshot basis re-factorised, and the solve finishes
//!   with the dual/primal repair loop below instead of two cold phases.
//!
//! * [`WarmSimplex`] — a persistent solver context that additionally keeps
//!   the lowered [`StandardForm`] *and* the factorised basis inverse alive
//!   across solves, applying model mutations as sparse in-place patches:
//!
//!   * right-hand-side and bound changes only touch `b` (the previous basis
//!     stays dual feasible, so the dual simplex repairs it directly);
//!   * a coefficient change patches one sparse column; if that column is
//!     basic, `B⁻¹` is repaired by a rank-1 Sherman–Morrison update instead
//!     of an O(m³) refactorisation.
//!
//! # The repair loop
//!
//! Each warm solve runs the same three steps from the inherited basis:
//!
//! 1. **Cost shift.** Reduced costs are recomputed; any non-basic column
//!    priced below zero (possible after a coefficient patch) has its cost
//!    shifted up so the basis is dual feasible by construction.
//! 2. **Dual phase.** The dual simplex drives every negative basic value
//!    out (or proves infeasibility) while keeping the shifted reduced costs
//!    non-negative.
//! 3. **Primal cleanup.** The shift is dropped and ordinary primal phase 2
//!    runs with the true costs from the now primal-feasible basis. When no
//!    shift was needed this terminates in a single pricing pass.
//!
//! Every failure mode (singular basis, iteration limit, an artificial
//! column stuck at a nonzero level) falls back to a full cold solve, and
//! [`WarmSimplex::check_against_cold`] optionally cross-checks every warm
//! result against a cold solve of the same model — the oracle knob used by
//! the property tests and the `dls-bench` LP perf suite.

use crate::model::{ConstraintId, Model, Sense, VarId};
use crate::revised_simplex::{
    extract_optimal, ColumnRepair, DualEnd, Factor, PhaseEnd, RevisedSimplex,
};
use crate::solution::{Solution, Status};
use crate::standard::StandardForm;
use crate::LpError;

/// A basis snapshot: the basic column (standard-form index) of every row,
/// plus the shape it was taken from. Restoring onto a standard form of a
/// different shape is rejected (the caller falls back to a cold solve).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    cols: Vec<usize>,
    n_cols: usize,
}

impl Basis {
    /// The basic column of every row (standard-form indices) — the raw
    /// descriptor a failover snapshot persists.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Total standard-form columns of the shape the snapshot was taken
    /// from (the other half of the descriptor).
    pub fn num_cols(&self) -> usize {
        self.n_cols
    }

    /// Rebuilds a snapshot from a persisted descriptor
    /// ([`Basis::cols`] / [`Basis::num_cols`]). An inconsistent
    /// descriptor is harmless: restoring it is rejected by the usual
    /// compatibility check and the next solve simply runs cold.
    pub fn from_parts(cols: Vec<usize>, n_cols: usize) -> Basis {
        Basis { cols, n_cols }
    }

    /// `true` when the snapshot can seed a solve of this standard form.
    pub fn compatible(&self, sf: &StandardForm) -> bool {
        self.cols.len() == sf.m && self.n_cols == sf.n_cols
    }

    fn of(factor: &Factor, sf: &StandardForm) -> Basis {
        Basis {
            cols: factor.basis.clone(),
            n_cols: sf.n_cols,
        }
    }
}

/// Counters describing how a [`WarmSimplex`] spent its solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct WarmStats {
    /// Total `solve()` calls.
    pub solves: u64,
    /// Solves finished by the warm repair loop.
    pub warm_solves: u64,
    /// Solves that ran the full cold two-phase method (first solve, and any
    /// fallback).
    pub cold_solves: u64,
    /// Warm attempts abandoned for a cold solve (numerical trouble).
    pub fallbacks: u64,
    /// Dual-simplex pivots spent across all warm solves.
    pub dual_pivots: u64,
    /// Primal cleanup pivots spent across all warm solves.
    pub primal_pivots: u64,
    /// Basic columns pivoted out ahead of a coefficient patch that would
    /// have made the basis singular.
    pub evictions: u64,
    /// Full basis refactorisations performed inside warm attempts (drift
    /// detector trips, deferred patches, singular-basis repairs, and
    /// explicit [`WarmSimplex::request_refactor`] calls).
    pub refactorisations: u64,
    /// Right-hand-side entries patched under a live factorisation (bound,
    /// rhs and lower-bound-shift deltas). The dense inverse folds each into
    /// `x_B` on the spot; the sparse LU defers them all to one flush.
    pub b_patches: u64,
    /// Deferred `x_B` recomputations (`x_B = B⁻¹b`, sparse LU only): at
    /// most one per solve, however many `b_patches` preceded it.
    pub xb_flushes: u64,
    /// Basic-column coefficient patches absorbed by a rank-1 update of the
    /// factorisation (the alternatives are counted by `evictions` and
    /// `refactorisations`).
    pub rank1_repairs: u64,
}

/// Snapshot of the current factorisation's sparsity, for bench artifacts
/// and diagnostics. All counts refer to the factor held after the last
/// solve; [`WarmSimplex::factor_stats`] returns `None` before any solve.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct FactorStats {
    /// Non-zeros held by the basis representation (dense: m², sparse:
    /// LU factors plus the eta file).
    pub factor_nnz: usize,
    /// Non-zeros of the basis matrix `B` itself.
    pub basis_nnz: usize,
    /// `factor_nnz / basis_nnz` — fill-in ratio of the factorisation.
    pub fill_ratio: f64,
    /// Full refactorisations performed over the factor's lifetime.
    pub refactorisations: u64,
    /// Sparse-input FTRANs run on the sparse LU over the factor's lifetime
    /// (entering columns, unit columns of the repair paths). This and the
    /// three counts below stay 0 on the dense inverse.
    pub sparse_ftrans: u64,
    /// `Ũ` rows those FTRANs back-substituted through. Divided by
    /// `sparse_ftrans` it reads "rows visited per FTRAN": a sweep of the
    /// factor would visit every one of the `m` rows each time.
    pub ftran_u_rows: u64,
    /// BTRANs run on the sparse LU (pricing vectors and unit rows).
    pub btrans: u64,
    /// Non-zero entries of the BTRAN inputs that reached the `Ũᵀ`
    /// substitution (each costs one division and one scatter).
    pub btran_nz_rows: u64,
    /// Row-wise pricing passes on the sparse LU (reduced costs `c − Aᵀy`
    /// and dual pivot rows `ρᵀA`); 0 on the dense inverse.
    pub pricing_passes: u64,
    /// Matrix entries those passes scattered: the rows where `y` or `ρ` is
    /// non-zero. Divided by `pricing_passes` and compared with nnz(A), it
    /// reads the share of the matrix one pass touches.
    pub pricing_nz: u64,
}

/// A failure queued by [`WarmSimplex::debug_inject_fault`]: deterministic
/// fault injection for recovery-path tests. Hidden — not part of the solver
/// API.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum InjectedFault {
    /// The next warm attempt fails with this error, exercising the
    /// fallback path exactly as a real numerical breakdown would (the
    /// factorisation is discarded and the solve degrades to cold).
    WarmAttempt(LpError),
    /// The next `solve()` call fails outright with this error, as if even
    /// the cold path broke down.
    Solve(LpError),
}

/// Runs the shared warm repair loop (cost shift → dual phase → primal
/// cleanup → extraction) from an already-factorised basis whose `x_B` is
/// current. `b_scale` is `sf.b_scale()`.
///
/// The common LPRR/B&B case — the inherited basis is still optimal, or a
/// few dual pivots away — is served by a fast path: one BTRAN prices every
/// column, and if the basis is both dual and primal feasible the solution
/// is extracted directly (reusing that BTRAN for the duals), skipping both
/// phases entirely. Otherwise the same BTRAN seeds the dual phase's first
/// pricing.
fn warm_finish(
    params: &RevisedSimplex,
    model: &Model,
    sf: &StandardForm,
    factor: &mut Factor,
    b_scale: f64,
) -> Result<(Solution, u64, u64), LpError> {
    let cap = params.iteration_cap(sf);

    // --- 1. cost shift: make the inherited basis dual feasible ---
    // `y` borrows the factor's BTRAN scratch (as `run_phase` does) and is
    // handed back before either phase below borrows it in turn.
    let mut y = std::mem::take(&mut factor.scratch_y);
    factor.btran(&sf.c, &mut y);
    let mut shifted: Option<Vec<f64>> = None;
    factor.price(sf, &sf.c, &y, &sf.is_artificial, |j, d| {
        shifted.get_or_insert_with(|| sf.c.to_vec())[j] -= d;
        true
    });

    // --- fast path: still optimal after the patches (a positive basic
    // artificial falls through to the dual phase, which evicts it) ---
    let primal_feasible = factor.xb.iter().all(|&x| x >= -crate::FEAS_TOL * b_scale);
    let still_optimal =
        shifted.is_none() && primal_feasible && !factor.artificial_above_zero(sf, b_scale);
    let fast = still_optimal.then(|| extract_optimal(model, sf, factor, &y));
    factor.scratch_y = y;
    if let Some(solution) = fast {
        return Ok((solution, 0, 0));
    }

    // --- 2. dual phase to primal feasibility ---
    // Anti-degeneracy cost perturbation: the steady-state LPs are massively
    // dual degenerate (redundant cap rows, MAXMIN ties), and a Dantzig dual
    // phase can thrash through 10⁵ zero-ratio pivots with a flat objective.
    // A tiny deterministic positive jitter on every non-basic cost makes
    // all dual ratios distinct, so each pivot strictly improves the dual
    // objective and the phase terminates in a handful of steps; the primal
    // cleanup below re-optimises with the *true* costs, absorbing the
    // perturbation exactly like it absorbs the feasibility shift.
    let mut costs = shifted.unwrap_or_else(|| sf.c.to_vec());
    let eps = 1e-7 * (1.0 + sf.c.iter().fold(0.0f64, |a, &c| a.max(c.abs())));
    for (j, c) in costs.iter_mut().enumerate() {
        if !factor.in_basis[j] && !sf.is_artificial[j] {
            let jitter = (j as u64).wrapping_mul(2_654_435_761) % 1024;
            *c += eps * (1.0 + jitter as f64 / 1024.0);
        }
    }
    // The shift and the jitter move non-basic costs only: `c_B`, hence the
    // `y` priced above, is the dual phase's own first pricing vector.
    let before = factor.iterations;
    let end = factor.run_dual_phase(sf, &costs, &sf.is_artificial, cap, b_scale)?;
    let dual_pivots = (factor.iterations - before) as u64;
    if matches!(end, DualEnd::Infeasible) {
        return Ok((Solution::infeasible(factor.iterations), dual_pivots, 0));
    }
    if factor.artificial_above_zero(sf, b_scale) {
        // An artificial basic at a nonzero level (the dual phase drives
        // those out; a leftover means it could not) violates an original
        // row; the primal phase would "evict" it with a large non-zero step
        // and hide the violation, so refuse the warm start instead.
        return Err(LpError::NumericalBreakdown(
            "artificial stuck in warm basis",
        ));
    }

    // --- 3. primal cleanup with the true costs ---
    let before = factor.iterations;
    let end = factor.run_phase(sf, &sf.c, &sf.is_artificial, true, cap)?;
    let primal_pivots = (factor.iterations - before) as u64;
    if matches!(end, PhaseEnd::Unbounded) {
        return Ok((
            Solution::unbounded(factor.iterations),
            dual_pivots,
            primal_pivots,
        ));
    }
    if factor.artificial_above_zero(sf, b_scale) {
        // An artificial stuck at a nonzero level means an original row is
        // violated; the inherited basis cannot represent a real solution.
        return Err(LpError::NumericalBreakdown(
            "artificial stuck in warm basis",
        ));
    }
    Ok((
        extract_optimal(model, sf, factor, &factor.scratch_y),
        dual_pivots,
        primal_pivots,
    ))
}

impl RevisedSimplex {
    /// Cold solve that also snapshots the final basis, seeding later
    /// [`RevisedSimplex::solve_warm`] calls. The basis is `None` only for
    /// constraint-free models.
    pub fn solve_with_basis(&self, model: &Model) -> Result<(Solution, Option<Basis>), LpError> {
        let sf = StandardForm::from_model(model)?;
        let (solution, factor) = self.solve_standard_keep(model, &sf)?;
        Ok((solution, factor.map(|f| Basis::of(&f, &sf))))
    }

    /// Solves `model` starting from a basis snapshot of a previous solve of
    /// a same-shaped model (e.g. the parent node of a branch-and-bound
    /// tree, whose child differs only by a bound tightening).
    ///
    /// The snapshot basis is re-factorised against the freshly lowered
    /// model and repaired with the dual/primal loop; an incompatible or
    /// numerically unusable snapshot silently degrades to a cold solve, so
    /// the result is always exactly what [`RevisedSimplex::solve`] would
    /// return.
    pub fn solve_warm(
        &self,
        model: &Model,
        warm: &Basis,
    ) -> Result<(Solution, Option<Basis>), LpError> {
        let sf = StandardForm::from_model(model)?;
        if sf.m == 0 || !warm.compatible(&sf) {
            let (solution, factor) = self.solve_standard_keep(model, &sf)?;
            return Ok((solution, factor.map(|f| Basis::of(&f, &sf))));
        }
        let warm_result =
            Factor::from_basis(&sf, &warm.cols, self.sparse_for(sf.m)).and_then(|mut factor| {
                warm_finish(self, model, &sf, &mut factor, sf.b_scale())
                    .map(|(sol, _, _)| (sol, factor))
            });
        match warm_result {
            Ok((solution, factor)) => Ok((solution, Some(Basis::of(&factor, &sf)))),
            // Unusable snapshot (singular, cycling, stuck artificial):
            // degrade to the cold two-phase method.
            Err(_) => {
                let (solution, factor) = self.solve_standard_keep(model, &sf)?;
                Ok((solution, factor.map(|f| Basis::of(&f, &sf))))
            }
        }
    }
}

/// Row → slack/surplus column map (single-entry non-artificial columns
/// beyond the structural block).
pub(crate) fn slack_columns(sf: &StandardForm) -> Vec<Option<usize>> {
    let mut map = vec![None; sf.m];
    for j in sf.n_structural..sf.n_cols {
        if !sf.is_artificial[j] {
            if let [(r, _)] = sf.cols[j][..] {
                map[r] = Some(j);
            }
        }
    }
    map
}

/// A persistent warm-start context: owns the model, its lowered standard
/// form, and the factorised basis of the last solve, and keeps all three in
/// sync under in-place mutations. See the module docs for the method.
///
/// `clone_from` refreshes a context in place: every buffer it already holds
/// is reused, so copying one context over another of the same shape makes
/// next to no heap calls (the pin sweep's per-probe refresh).
#[derive(Debug)]
pub struct WarmSimplex {
    params: RevisedSimplex,
    model: Model,
    sf: StandardForm,
    factor: Option<Factor>,
    /// user-constraint index → standard row.
    con_rows: Vec<usize>,
    /// variable index → upper-bound row (vars with a finite bound only).
    bound_rows: Vec<Option<usize>>,
    /// row → its slack/surplus column (None for equality rows).
    slack_cols: Vec<Option<usize>>,
    needs_refactor: bool,
    /// When set, every solve is cross-checked against a cold solve of the
    /// same model and [`LpError::WarmColdMismatch`] is returned on
    /// disagreement — the oracle knob for tests and benches.
    pub check_against_cold: bool,
    stats: WarmStats,
    /// FIFO of injected faults (tests only; always empty in production).
    injected: Vec<InjectedFault>,
}

clone_in_place!(WarmSimplex {
    params,
    model,
    sf,
    factor,
    con_rows,
    bound_rows,
    slack_cols,
    needs_refactor,
    check_against_cold,
    stats,
    injected,
});

impl WarmSimplex {
    /// Builds a context around `model` with the given solver parameters.
    /// Nothing is solved yet; the first [`WarmSimplex::solve`] is cold.
    ///
    /// The context keeps `model` for its whole life, so it first drops the
    /// spare capacity construction left in it: a model moved in costs no
    /// more than a clone would.
    pub fn new(mut model: Model, params: RevisedSimplex) -> Result<Self, LpError> {
        model.shrink_to_fit();
        let sf = StandardForm::from_model(&model)?;
        let con_rows = sf.constraint_rows(model.num_constraints());
        let bound_rows = sf.bound_rows(model.num_vars());
        let slack_cols = slack_columns(&sf);
        Ok(WarmSimplex {
            params,
            model,
            sf,
            factor: None,
            con_rows,
            bound_rows,
            slack_cols,
            needs_refactor: false,
            check_against_cold: false,
            stats: WarmStats::default(),
            injected: Vec::new(),
        })
    }

    /// The owned model, reflecting every patch applied so far.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Cumulative solve/pivot counters.
    pub fn stats(&self) -> WarmStats {
        self.stats
    }

    /// Snapshot of the current basis, if a solve has happened.
    pub fn basis(&self) -> Option<Basis> {
        self.factor.as_ref().map(|f| Basis::of(f, &self.sf))
    }

    /// Sparsity statistics of the current factorisation (`None` before the
    /// first solve).
    pub fn factor_stats(&self) -> Option<FactorStats> {
        self.factor.as_ref().map(|f| {
            let factor_nnz = f.factor_nnz();
            let basis_nnz = f.basis_nnz(&self.sf).max(1);
            let counts = f.solve_counts();
            let (pricing_passes, pricing_nz) = f.pricing_counts();
            FactorStats {
                factor_nnz,
                basis_nnz,
                fill_ratio: factor_nnz as f64 / basis_nnz as f64,
                refactorisations: f.refactor_count,
                sparse_ftrans: counts.ftrans,
                ftran_u_rows: counts.ftran_u_rows,
                btrans: counts.btrans,
                btran_nz_rows: counts.btran_nz_rows,
                pricing_passes,
                pricing_nz,
            }
        })
    }

    /// Forces the next warm attempt to refactorise the basis from scratch
    /// before solving — the first recovery rung after numerical trouble:
    /// compounding rank-1 updates are discarded and `B⁻¹` is rebuilt from
    /// the patched columns, which clears accumulated drift without paying
    /// for a cold two-phase solve.
    pub fn request_refactor(&mut self) {
        self.needs_refactor = true;
    }

    /// `true` while a full refactorisation is queued for the next warm
    /// attempt — by [`WarmSimplex::request_refactor`], or by a coefficient
    /// patch on a basic column that neither a rank-1 update nor an eviction
    /// could absorb.
    pub fn refactor_pending(&self) -> bool {
        self.needs_refactor
    }

    /// Puts the context to rest between solves: a dense `B⁻¹` keeps only
    /// its non-zeros resident (bit for bit, `−0.0` and subnormals
    /// included). Every entry point that reaches the factor unpacks it
    /// first, so packing changes no result; it costs one `m²` scan here and
    /// one `m²` fill at the next entry. The sparse LU packs nothing. A
    /// long-lived host calls this when a caller's session finishes;
    /// in-process loops never need to.
    pub fn pack(&mut self) {
        if let Some(factor) = &mut self.factor {
            factor.pack();
        }
    }

    /// Undoes [`WarmSimplex::pack`] (a no-op on an unpacked context).
    fn unpack(&mut self) {
        if let Some(factor) = &mut self.factor {
            factor.unpack();
        }
    }

    /// Seeds the context with a persisted basis snapshot (failover
    /// restore): the next solve warm-starts from it instead of running
    /// cold. Returns `false` — leaving the context on the cold path — when
    /// the snapshot does not fit the current shape or cannot be
    /// factorised; restore is best-effort by design, since a cold first
    /// solve is always correct.
    pub fn seed_basis(&mut self, basis: &Basis) -> bool {
        if !basis.compatible(&self.sf) {
            return false;
        }
        match Factor::from_basis(&self.sf, &basis.cols, self.params.sparse_for(self.sf.m)) {
            Ok(f) => {
                self.factor = Some(f);
                self.needs_refactor = false;
                true
            }
            Err(_) => false,
        }
    }

    /// Queues a deterministic fault: the FIFO front fires at the next
    /// matching point ([`InjectedFault::Solve`] at `solve()` entry,
    /// [`InjectedFault::WarmAttempt`] when the warm repair loop would
    /// run). Tests only.
    #[doc(hidden)]
    pub fn debug_inject_fault(&mut self, fault: InjectedFault) {
        self.injected.push(fault);
    }

    /// Replaces the bounds of `var`, patching the standard form in place.
    ///
    /// The finiteness of the upper bound must not change (a finite bound is
    /// lowered to a dedicated row, so flipping it would change the layout);
    /// such a request fails with [`LpError::StructuralChange`] and leaves
    /// the context untouched.
    pub fn set_var_bounds(&mut self, var: VarId, lo: f64, up: f64) -> Result<(), LpError> {
        self.unpack();
        if !lo.is_finite() || up.is_nan() {
            return Err(LpError::NotFinite("variable bounds"));
        }
        if lo > up {
            return Err(LpError::EmptyDomain {
                var: var.index(),
                lo,
                up,
            });
        }
        let (_, old_up) = self.model.bounds(var);
        if old_up.is_finite() != up.is_finite() {
            return Err(LpError::StructuralChange(
                "upper bound flipped between finite and infinite",
            ));
        }
        self.model.set_bounds(var, lo, up);
        let j = var.index();
        let d_lo = lo - self.sf.lo_shift[j];
        if d_lo != 0.0 {
            // Every row's rhs was shifted by −a·lo at lowering time; move it
            // by the delta. The var's own bound row is covered too (its
            // coefficient is 1, giving rhs = up − lo).
            for idx in 0..self.sf.cols[j].len() {
                let (r, a) = self.sf.cols[j][idx];
                self.patch_b(r, -a * d_lo);
            }
            self.sf.lo_shift[j] = lo;
        }
        // A column has a bound row exactly when it was lowered with a
        // finite upper bound, and the check above keeps that finiteness.
        debug_assert_eq!(self.bound_rows[j].is_some(), up.is_finite());
        if let Some(r) = self.bound_rows[j] {
            debug_assert_eq!(self.sf.row_scale_sign(r), (1.0, 1.0));
            let delta = (up - lo) - self.sf.b[r];
            if delta != 0.0 {
                // Stored outright, not as `b += delta`: that lands within
                // an ulp of `up − lo` and would make `b` depend on the
                // patch history.
                self.sf.b[r] = up - lo;
                self.fold_b_delta(r, delta);
            }
        }
        Ok(())
    }

    /// Moves one standard-form rhs entry by `delta`.
    fn patch_b(&mut self, row: usize, delta: f64) {
        if delta != 0.0 {
            self.sf.b[row] += delta;
            self.fold_b_delta(row, delta);
        }
    }

    /// Tells the factorisation that `b[row]` moved by a nonzero `delta`:
    /// folded into `x_B` in O(m) on the dense inverse, marked for one
    /// deferred flush on the sparse LU (skipped while a deferred
    /// refactorisation is pending, which recomputes `x_B` exactly anyway).
    fn fold_b_delta(&mut self, row: usize, delta: f64) {
        if self.needs_refactor {
            return;
        }
        if let Some(factor) = &mut self.factor {
            factor.apply_b_delta(row, delta);
            self.stats.b_patches += 1;
        }
    }

    /// Replaces the objective coefficient of a variable, patching the
    /// standard form's cost vector in place. A pure `c` delta: the
    /// factorised basis, `x_B`, and every row stay valid, and the next
    /// solve's cost-shift/dual-repair loop absorbs whatever dual
    /// feasibility the change destroyed. This is what lets a caller run a
    /// lexicographic second stage (swap the objective, re-solve warm from
    /// the stage-1 basis, swap it back) at a handful of pivots.
    pub fn set_objective_coef(&mut self, var: VarId, coef: f64) -> Result<(), LpError> {
        self.unpack();
        if !coef.is_finite() {
            return Err(LpError::NotFinite("objective coefficient"));
        }
        self.model.set_objective_coef(var, coef);
        // Mirror the lowering convention: internal minimisation, so a
        // maximising model's costs enter negated (and never scaled —
        // standard-form scaling is per-row only).
        let flip = match self.model.sense() {
            Sense::Maximize => -1.0,
            Sense::Minimize => 1.0,
        };
        self.sf.c[var.index()] = flip * coef;
        Ok(())
    }

    /// Replaces the right-hand side of a constraint, patching the standard
    /// form in place (a pure `b` delta — the basis stays dual feasible).
    pub fn set_rhs(&mut self, con: ConstraintId, rhs: f64) -> Result<(), LpError> {
        self.unpack();
        if !rhs.is_finite() {
            return Err(LpError::NotFinite("constraint rhs"));
        }
        let delta = rhs - self.model.rhs(con);
        if delta != 0.0 {
            self.model.set_rhs(con, rhs);
            let row = self.con_rows[con.index()];
            let (scale, sign) = self.sf.row_scale_sign(row);
            self.patch_b(row, delta * scale * sign);
        }
        Ok(())
    }

    /// Replaces the coefficient of `var` in a constraint, patching the
    /// sparse column in place. If the column is basic, `B⁻¹` is repaired by
    /// a rank-1 Sherman–Morrison update (with a deferred refactorisation as
    /// the fallback when the update is numerically unsafe).
    pub fn set_coefficient(
        &mut self,
        con: ConstraintId,
        var: VarId,
        coef: f64,
    ) -> Result<(), LpError> {
        self.unpack();
        if !coef.is_finite() {
            return Err(LpError::NotFinite("constraint coefficient"));
        }
        let old = self.model.coefficient(con, var);
        if old == coef {
            return Ok(());
        }
        self.model.set_coefficient(con, var, coef);
        let j = var.index();
        let row = self.con_rows[con.index()];
        let (scale, sign) = self.sf.row_scale_sign(row);
        let scaled_new = coef * scale * sign;
        // Entries stay in ascending row order: it is the summation order of
        // every reduced cost.
        let col = &mut self.sf.cols[j];
        let entry = col.binary_search_by_key(&row, |&(r, _)| r);
        let scaled_old = entry.map_or(0.0, |idx| col[idx].1);
        match (entry, scaled_new == 0.0) {
            (Ok(idx), true) => {
                col.remove(idx);
            }
            (Ok(idx), false) => col[idx].1 = scaled_new,
            (Err(idx), false) => col.insert(idx, (row, scaled_new)),
            (Err(_), true) => {}
        }
        if let Some(factor) = &mut self.factor {
            factor.patch_coefficient(&self.sf, row, j, scaled_new);
        }
        let delta_scaled = scaled_new - scaled_old;
        // The lower-bound shift folded −a·lo into the rhs; keep it current.
        let lo = self.sf.lo_shift[j];
        if lo != 0.0 {
            self.patch_b(row, -delta_scaled * lo);
        }
        if self.needs_refactor {
            return Ok(());
        }
        if let Some(factor) = &mut self.factor {
            // `in_basis[j]` holds exactly when `j` has a basis slot.
            let slot = factor.in_basis[j].then(|| factor.basis.iter().position(|&b| b == j));
            if let Some(Some(pos)) = slot {
                let (repair, _) =
                    factor.repair_basic_column(&self.sf, &self.slack_cols, row, pos, delta_scaled);
                match repair {
                    ColumnRepair::Rank1 => self.stats.rank1_repairs += 1,
                    ColumnRepair::Evicted => self.stats.evictions += 1,
                    // Refactorise lazily (and cold-solve if even that fails).
                    ColumnRepair::Refactor => self.needs_refactor = true,
                }
            }
        }
        Ok(())
    }

    /// Solves the current model: cold on the first call, warm (dual repair
    /// from the previous basis) afterwards, with automatic cold fallback on
    /// numerical trouble. The result is always equivalent to a fresh
    /// [`RevisedSimplex::solve`] of the current model.
    pub fn solve(&mut self) -> Result<Solution, LpError> {
        self.unpack();
        self.stats.solves += 1;
        if let Some(InjectedFault::Solve(e)) = self.injected.first() {
            let e = e.clone();
            self.injected.remove(0);
            return Err(e);
        }
        let solution = match self.try_warm() {
            Some(Ok(sol)) => {
                self.stats.warm_solves += 1;
                sol
            }
            Some(Err(_)) => {
                self.stats.fallbacks += 1;
                self.solve_cold()?
            }
            None => self.solve_cold()?,
        };
        if self.check_against_cold {
            let cold = self.params.solve(&self.model)?;
            let agree = match (solution.status, cold.status) {
                (Status::Optimal, Status::Optimal) => {
                    (solution.objective - cold.objective).abs()
                        <= 1e-6 * (1.0 + cold.objective.abs())
                }
                (a, b) => a == b,
            };
            if !agree {
                return Err(LpError::WarmColdMismatch {
                    warm: solution.objective,
                    cold: cold.objective,
                });
            }
        }
        Ok(solution)
    }

    /// Attempts the warm repair loop; `None` when no basis exists yet.
    /// `x_B` is made current first: the dense inverse folded every patch in
    /// eagerly, the sparse LU flushes its deferred right-hand-side patches
    /// with one `B⁻¹b` here.
    ///
    /// A singular basis — a deferred refactorisation, or a periodic one
    /// inside a phase exposing accumulated drift — is *repaired* (dependent
    /// columns swapped for unit columns) and the repair loop re-run, so the
    /// expensive cold fallback is reserved for genuine breakdowns.
    fn try_warm(&mut self) -> Option<Result<Solution, LpError>> {
        let mut factor = self.factor.take()?;
        let b_scale = self.sf.b_scale();
        if let Some(InjectedFault::WarmAttempt(e)) = self.injected.first() {
            let e = e.clone();
            self.injected.remove(0);
            // The taken factor is dropped, exactly as a real breakdown
            // leaves the context: the fallback cold solve rebuilds it.
            return Some(Err(e));
        }
        if !self.needs_refactor {
            if factor.flush_xb(&self.sf) {
                self.stats.xb_flushes += 1;
            }
            // Drift detector: compare the maintained x_B against the true
            // patched columns. Compounding rank-1 updates eventually poison
            // B⁻¹; refactorising the moment the residual leaves the noise
            // floor is far cheaper than letting a solve run on bad numbers.
            if factor.xb_residual_inf(&self.sf) > 1e-6 * b_scale {
                self.needs_refactor = true;
            }
        }
        if self.needs_refactor {
            self.stats.refactorisations += 1;
            if let Err(e) = factor.refactor_repair(&self.sf) {
                return Some(Err(e));
            }
            self.needs_refactor = false;
        }
        let mut outcome = warm_finish(&self.params, &self.model, &self.sf, &mut factor, b_scale);
        if matches!(outcome, Err(LpError::SingularBasis)) {
            self.stats.refactorisations += 1;
            outcome = factor.refactor_repair(&self.sf).and_then(|_| {
                warm_finish(&self.params, &self.model, &self.sf, &mut factor, b_scale)
            });
        }
        match outcome {
            Ok((solution, dual, primal)) => {
                self.stats.dual_pivots += dual;
                self.stats.primal_pivots += primal;
                self.factor = Some(factor);
                Some(Ok(solution))
            }
            Err(e) => Some(Err(e)),
        }
    }

    /// Cold path: re-lowers the model from scratch (restoring the `b ≥ 0` /
    /// fresh-scaling invariants the in-place patches do not maintain) and
    /// runs the two-phase method, keeping the final factorisation.
    fn solve_cold(&mut self) -> Result<Solution, LpError> {
        self.sf = StandardForm::from_model(&self.model)?;
        self.con_rows = self.sf.constraint_rows(self.model.num_constraints());
        self.bound_rows = self.sf.bound_rows(self.model.num_vars());
        self.slack_cols = slack_columns(&self.sf);
        self.needs_refactor = false;
        let (solution, factor) = self.params.solve_standard_keep(&self.model, &self.sf)?;
        self.factor = factor;
        self.stats.cold_solves += 1;
        Ok(solution)
    }

    /// The standard form and the factor of the last solve, for the kernel
    /// oracles.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&StandardForm, Option<&Factor>) {
        (&self.sf, self.factor.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Sense};
    use crate::{DenseSimplex, Status};

    fn textbook() -> (
        Model,
        VarId,
        VarId,
        ConstraintId,
        ConstraintId,
        ConstraintId,
    ) {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 8.0);
        let y = m.add_var("y", 0.0, 8.0);
        m.set_objective_coef(x, 3.0);
        m.set_objective_coef(y, 5.0);
        let c0 = m.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 4.0);
        let c1 = m.add_constraint(vec![(y, 2.0)], ConstraintOp::Le, 12.0);
        let c2 = m.add_constraint(vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        (m, x, y, c0, c1, c2)
    }

    fn assert_matches_cold(warm: &mut WarmSimplex) {
        let sol = warm.solve().unwrap();
        let cold = DenseSimplex.solve(warm.model()).unwrap();
        assert_eq!(sol.status, cold.status);
        if sol.status == Status::Optimal {
            assert!(
                (sol.objective - cold.objective).abs() <= 1e-6 * (1.0 + cold.objective.abs()),
                "warm {} vs cold {}",
                sol.objective,
                cold.objective
            );
            warm.model().check_feasible(&sol.values, 1e-6).unwrap();
        }
    }

    #[test]
    fn objective_patches_track_cold() {
        let (_, x, y, _, _, _) = textbook();
        let (m, ..) = textbook();
        let mut warm = WarmSimplex::new(m, RevisedSimplex::default()).unwrap();
        warm.solve().unwrap();
        // Swap the objective: y becomes nearly worthless, x precious.
        warm.set_objective_coef(x, 10.0).unwrap();
        warm.set_objective_coef(y, 0.5).unwrap();
        assert_matches_cold(&mut warm);
        // And back: the original optimum is re-certified warm.
        warm.set_objective_coef(x, 3.0).unwrap();
        warm.set_objective_coef(y, 5.0).unwrap();
        assert_matches_cold(&mut warm);
        assert!(warm.stats().warm_solves >= 1, "{:?}", warm.stats());
        assert!(warm.set_objective_coef(x, f64::NAN).is_err());
    }

    #[test]
    fn bound_tightening_sequence_matches_cold() {
        let (m, x, y, _, _, _) = textbook();
        let mut warm = WarmSimplex::new(m, RevisedSimplex::default()).unwrap();
        warm.check_against_cold = true;
        assert_matches_cold(&mut warm);
        // A sequence of tightenings, each repaired warm.
        for up in [5.0, 3.5, 2.0, 0.5] {
            warm.set_var_bounds(y, 0.0, up).unwrap();
            assert_matches_cold(&mut warm);
        }
        warm.set_var_bounds(x, 1.0, 2.0).unwrap();
        assert_matches_cold(&mut warm);
        let stats = warm.stats();
        assert_eq!(stats.cold_solves, 1, "{stats:?}");
        assert_eq!(stats.warm_solves, 5, "{stats:?}");
    }

    #[test]
    fn rhs_and_coefficient_patches_match_cold() {
        let (m, x, y, c0, c1, c2) = textbook();
        let mut warm = WarmSimplex::new(m, RevisedSimplex::default()).unwrap();
        warm.check_against_cold = true;
        assert_matches_cold(&mut warm);
        warm.set_rhs(c1, 7.0).unwrap();
        assert_matches_cold(&mut warm);
        // Remove x from the joint row, then re-weight y and relax c0.
        warm.set_coefficient(c2, x, 0.0).unwrap();
        assert_matches_cold(&mut warm);
        warm.set_coefficient(c2, y, 4.0).unwrap();
        assert_matches_cold(&mut warm);
        warm.set_rhs(c0, 2.0).unwrap();
        warm.set_coefficient(c1, y, 1.0).unwrap();
        assert_matches_cold(&mut warm);
    }

    #[test]
    fn infeasible_and_recovery() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0);
        m.set_objective_coef(x, 1.0);
        let le = m.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 6.0);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 2.0);
        let mut warm = WarmSimplex::new(m, RevisedSimplex::default()).unwrap();
        assert_eq!(warm.solve().unwrap().status, Status::Optimal);
        // 1 ≥ x ≥ 2 is empty; the dual phase must certify that.
        warm.set_rhs(le, 1.0).unwrap();
        assert_eq!(warm.solve().unwrap().status, Status::Infeasible);
        // And relaxing it again must recover optimality.
        warm.set_rhs(le, 4.0).unwrap();
        let sol = warm.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 4.0).abs() < 1e-7);
    }

    #[test]
    fn structural_change_is_rejected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.set_objective_coef(x, 1.0);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 3.0);
        let mut warm = WarmSimplex::new(m, RevisedSimplex::default()).unwrap();
        assert!(matches!(
            warm.set_var_bounds(x, 0.0, 2.0),
            Err(LpError::StructuralChange(_))
        ));
        // The rejected patch must not have leaked into the model.
        assert_eq!(warm.model().bounds(x).1, f64::INFINITY);
    }

    #[test]
    fn injected_warm_fault_falls_back_to_cold() {
        let (m, _, y, _, _, _) = textbook();
        let mut warm = WarmSimplex::new(m, RevisedSimplex::default()).unwrap();
        warm.check_against_cold = true;
        warm.solve().unwrap();
        // A forced warm breakdown must degrade to cold and still produce
        // the right optimum.
        warm.debug_inject_fault(InjectedFault::WarmAttempt(LpError::NumericalBreakdown(
            "injected",
        )));
        warm.set_var_bounds(y, 0.0, 4.0).unwrap();
        assert_matches_cold(&mut warm);
        let stats = warm.stats();
        assert_eq!(stats.fallbacks, 1, "{stats:?}");
        assert_eq!(stats.cold_solves, 2, "{stats:?}");
        // A forced solve-level fault surfaces to the caller...
        warm.debug_inject_fault(InjectedFault::Solve(LpError::IterationLimit {
            iterations: 1,
        }));
        assert!(matches!(
            warm.solve(),
            Err(LpError::IterationLimit { iterations: 1 })
        ));
        // ...and the context recovers on the next solve.
        assert_matches_cold(&mut warm);
    }

    #[test]
    fn request_refactor_is_counted_and_harmless() {
        let (m, _, y, _, _, _) = textbook();
        let mut warm = WarmSimplex::new(m, RevisedSimplex::default()).unwrap();
        warm.check_against_cold = true;
        warm.solve().unwrap();
        warm.request_refactor();
        warm.set_var_bounds(y, 0.0, 5.0).unwrap();
        assert_matches_cold(&mut warm);
        let stats = warm.stats();
        assert!(stats.refactorisations >= 1, "{stats:?}");
        assert_eq!(stats.warm_solves, 1, "{stats:?}");
    }

    #[test]
    fn sparse_context_flushes_xb_once_per_patch_batch() {
        use crate::BasisRepr;
        let (m, x, y, c0, c1, _) = textbook();
        let sparse = RevisedSimplex {
            basis_repr: BasisRepr::SparseLu,
        };
        let mut warm = WarmSimplex::new(m.clone(), sparse).unwrap();
        warm.check_against_cold = true;
        warm.solve().unwrap();
        assert_eq!(
            warm.stats().b_patches,
            0,
            "no factor before the first solve"
        );
        // Four single-entry patches, then one solve: one flush.
        warm.set_var_bounds(y, 0.0, 5.0).unwrap();
        warm.set_var_bounds(x, 0.0, 6.0).unwrap();
        warm.set_rhs(c1, 7.0).unwrap();
        warm.set_rhs(c0, 3.0).unwrap();
        assert_eq!(warm.stats().xb_flushes, 0, "patches alone never flush");
        assert_matches_cold(&mut warm);
        let stats = warm.stats();
        assert_eq!((stats.b_patches, stats.xb_flushes), (4, 1), "{stats:?}");
        // No intervening patch: nothing to flush.
        assert_matches_cold(&mut warm);
        let stats = warm.stats();
        assert_eq!((stats.b_patches, stats.xb_flushes), (4, 1), "{stats:?}");
        assert_eq!(stats.cold_solves, 1, "{stats:?}");

        // The dense inverse folds every patch in eagerly and never flushes.
        let mut dense = WarmSimplex::new(m, RevisedSimplex::default()).unwrap();
        dense.solve().unwrap();
        dense.set_var_bounds(y, 0.0, 5.0).unwrap();
        dense.set_rhs(c1, 7.0).unwrap();
        assert_matches_cold(&mut dense);
        let stats = dense.stats();
        assert_eq!((stats.b_patches, stats.xb_flushes), (2, 0), "{stats:?}");
    }

    #[test]
    fn stale_xb_survives_rank1_repair_and_eviction() {
        use crate::BasisRepr;
        // At the optimum (x = 2, y = 6) both variables and both bound
        // slacks are basic. One burst, no solve in between: a rhs patch
        // leaves the sparse x_B stale, a re-weighting of basic column y is
        // repaired rank-1 on top of it, and zeroing y's remaining entries
        // collapses the column onto its bound row — parallel to the basic
        // bound slack — which forces an eviction pivot on the stale x_B.
        for basis_repr in [BasisRepr::SparseLu, BasisRepr::DenseInverse] {
            let (m, _, y, c0, c1, c2) = textbook();
            let params = RevisedSimplex { basis_repr };
            let mut warm = WarmSimplex::new(m, params).unwrap();
            warm.check_against_cold = true;
            warm.solve().unwrap();
            warm.set_rhs(c0, 3.5).unwrap();
            warm.set_coefficient(c2, y, 1.0).unwrap();
            warm.set_rhs(c1, 10.0).unwrap();
            warm.set_coefficient(c1, y, 0.0).unwrap();
            warm.set_coefficient(c2, y, 0.0).unwrap();
            warm.set_rhs(c2, 15.0).unwrap();
            assert_matches_cold(&mut warm);
            let stats = warm.stats();
            assert!(stats.rank1_repairs >= 1, "{basis_repr:?}: {stats:?}");
            assert_eq!(stats.evictions, 1, "{basis_repr:?}: {stats:?}");
            assert_eq!(stats.cold_solves, 1, "{basis_repr:?}: {stats:?}");
            let flushes = u64::from(basis_repr == BasisRepr::SparseLu);
            assert_eq!(stats.xb_flushes, flushes, "{basis_repr:?}: {stats:?}");
        }
    }

    #[test]
    fn inserted_coefficient_keeps_rows_ascending_and_the_row_copy_fresh() {
        use crate::BasisRepr;
        // Column x holds rows 0 (c0), 2 (c2) and 3 (its bound row); c1 is
        // row 1, so the new entry lands in the middle of the column.
        let (m, x, _, _, c1, _) = textbook();
        let sparse = RevisedSimplex {
            basis_repr: BasisRepr::SparseLu,
        };
        let mut warm = WarmSimplex::new(m, sparse).unwrap();
        warm.check_against_cold = true;
        warm.solve().unwrap();
        warm.set_coefficient(c1, x, 0.5).unwrap();
        let (sf, factor) = warm.parts();
        let rows: Vec<usize> = sf.cols[x.index()].iter().map(|&(r, _)| r).collect();
        assert_eq!(rows, [0, 1, 2, 3]);
        assert!(factor.unwrap().row_copy_matches(sf));
        assert_matches_cold(&mut warm);
        // Removing it again leaves an explicit zero behind, not a rebuild.
        warm.set_coefficient(c1, x, 0.0).unwrap();
        let (sf, factor) = warm.parts();
        assert_eq!(sf.cols[x.index()].len(), 3);
        assert!(factor.unwrap().row_copy_matches(sf));
        assert_matches_cold(&mut warm);
    }

    #[test]
    fn seed_basis_restores_warm_start_from_descriptor() {
        let (m, ..) = textbook();
        let mut warm = WarmSimplex::new(m.clone(), RevisedSimplex::default()).unwrap();
        warm.solve().unwrap();
        let basis = warm.basis().expect("constrained model keeps a basis");
        // Persist the descriptor, rebuild a fresh context, seed it: the
        // first solve is warm, not cold.
        let descriptor = (basis.cols().to_vec(), basis.num_cols());
        let mut fresh = WarmSimplex::new(m, RevisedSimplex::default()).unwrap();
        fresh.check_against_cold = true;
        assert!(fresh.seed_basis(&Basis::from_parts(descriptor.0, descriptor.1)));
        assert_matches_cold(&mut fresh);
        let stats = fresh.stats();
        assert_eq!(stats.cold_solves, 0, "{stats:?}");
        assert_eq!(stats.warm_solves, 1, "{stats:?}");
        // An incompatible descriptor is rejected, not fatal.
        let (m2, ..) = textbook();
        let mut other = WarmSimplex::new(m2, RevisedSimplex::default()).unwrap();
        assert!(!other.seed_basis(&Basis::from_parts(vec![0], 1)));
        other.solve().unwrap();
    }

    /// Contexts in every state a pin sweep can leave one in: unsolved,
    /// pinned, pivoted, refactorised, fallen back to cold (its form
    /// re-lowered), with patches pending, on another model, and on both
    /// basis representations.
    fn dirty_contexts() -> Vec<WarmSimplex> {
        use crate::BasisRepr;
        let params = |basis_repr| RevisedSimplex { basis_repr };
        let mut out = Vec::new();
        for repr in [BasisRepr::DenseInverse, BasisRepr::SparseLu] {
            let (m, x, y, c0, c1, c2) = textbook();
            let fresh = WarmSimplex::new(m, params(repr)).unwrap();
            out.push(fresh.clone());

            let mut pinned = fresh.clone();
            pinned.solve().unwrap();
            pinned.set_var_bounds(y, 0.0, 2.0).unwrap();
            pinned.solve().unwrap();
            pinned.set_coefficient(c2, y, 1.0).unwrap();
            pinned.set_rhs(c0, 3.0).unwrap();
            out.push(pinned.clone());
            // Patches pending: a stale sparse x_B, an unsolved basis.
            pinned.set_coefficient(c1, x, 0.5).unwrap();
            pinned.set_var_bounds(x, 0.5, 3.0).unwrap();
            out.push(pinned);

            let mut refactored = fresh.clone();
            refactored.solve().unwrap();
            refactored.request_refactor();
            refactored.set_var_bounds(x, 0.0, 1.0).unwrap();
            refactored.solve().unwrap();
            out.push(refactored);

            let mut fallen = fresh.clone();
            fallen.solve().unwrap();
            fallen.debug_inject_fault(InjectedFault::WarmAttempt(LpError::NumericalBreakdown(
                "injected",
            )));
            fallen.set_var_bounds(y, 0.0, 4.0).unwrap();
            fallen.solve().unwrap();
            assert_eq!(fallen.stats().fallbacks, 1);
            out.push(fallen);

            // Another model: more columns and rows, so every buffer has a
            // different length, and a fault still queued.
            let mut other = Model::new(Sense::Minimize);
            let v: Vec<VarId> = (0..5)
                .map(|i| other.add_var(format!("v{i}"), 0.0, 3.0 + i as f64))
                .collect();
            for (i, &vi) in v.iter().enumerate() {
                other.set_objective_coef(vi, 1.0 + i as f64);
                other.add_constraint(
                    vec![(vi, 1.0), (v[(i + 1) % 5], 2.0)],
                    ConstraintOp::Ge,
                    2.0,
                );
            }
            let mut other = WarmSimplex::new(other, params(repr)).unwrap();
            other.solve().unwrap();
            other.set_var_bounds(v[2], 0.0, 0.5).unwrap();
            other.solve().unwrap();
            other.debug_inject_fault(InjectedFault::WarmAttempt(LpError::NumericalBreakdown(
                "queued",
            )));
            out.push(other);
        }
        out
    }

    /// `clone_from` into a context in any other state leaves exactly what
    /// `clone` would (by `Debug`, which prints every field and every float
    /// in round-trip form), and the next solve has the same bits.
    #[test]
    fn clone_from_a_dirty_context_equals_a_clone() {
        let contexts = dirty_contexts();
        for (i, src) in contexts.iter().enumerate() {
            for (j, dirty) in contexts.iter().enumerate() {
                let mut refreshed = dirty.clone();
                refreshed.clone_from(src);
                let mut cloned = src.clone();
                assert_eq!(format!("{refreshed:?}"), format!("{cloned:?}"), "{j} ← {i}");
                let a = refreshed.solve();
                let b = cloned.solve();
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{j} ← {i}");
                assert_eq!(format!("{refreshed:?}"), format!("{cloned:?}"), "{j} ← {i}");
            }
        }
    }

    #[test]
    fn solve_warm_reuses_basis_across_rebuilds() {
        let (m, _, y, _, _, _) = textbook();
        let solver = RevisedSimplex::default();
        let (sol, basis) = solver.solve_with_basis(&m).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-6);
        let basis = basis.unwrap();
        // Same-shaped child model: tighten y's bound (finite → finite).
        let mut child = m.clone();
        child.set_bounds(y, 0.0, 3.0);
        let (warm_sol, child_basis) = solver.solve_warm(&child, &basis).unwrap();
        let cold = solver.solve(&child).unwrap();
        assert_eq!(warm_sol.status, Status::Optimal);
        assert!((warm_sol.objective - cold.objective).abs() < 1e-6);
        assert!(child_basis.is_some());
        // Differently-shaped model: silently degrades to a cold solve.
        let mut other = Model::new(Sense::Maximize);
        let z = other.add_var("z", 0.0, 5.0);
        other.set_objective_coef(z, 2.0);
        let (deg, _) = solver.solve_warm(&other, &basis).unwrap();
        assert!((deg.objective - 10.0).abs() < 1e-7);
    }
}
