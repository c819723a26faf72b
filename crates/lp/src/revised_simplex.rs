//! Revised simplex over a pluggable basis factorisation — primal *and*
//! dual pivoting.
//!
//! The dense tableau keeps the whole `m × n` matrix explicit, which is
//! wasteful for the paper's large platforms (K ≈ 95 clusters produce
//! thousands of rows and ~K² columns with only a handful of nonzeros each).
//! The revised method keeps only a factorisation of the `m × m` basis and
//! works from the sparse constraint columns:
//!
//! * pricing: one BTRAN (`y = c_Bᵀ B⁻¹`) + a sparse dot per column;
//! * column generation: one FTRAN (`w = B⁻¹ a_e`);
//! * basis update: rank-1 repair of the factorisation;
//! * periodic refactorisation bounds error accumulation.
//!
//! The factorisation itself comes in two interchangeable representations
//! ([`BasisRepr`]): the original dense row-major `B⁻¹` (Gauss–Jordan
//! refactorisation, elementary-row-transform updates, Sherman–Morrison
//! column patches) and the sparse Markowitz LU of `sparse_lu.rs`
//! (eta-file updates, fill-bounded refactorisation). The dense inverse is
//! the retained, cross-checked oracle — the same pattern as the simulator's
//! `SimEngine::FullRecompute` — and every pivot rule below is shared
//! between both, so the representations agree to numerical noise.
//!
//! Primal pivot rules (Dantzig with Bland fallback, zero-step artificial
//! eviction in phase 2) mirror [`crate::dense_simplex`] exactly, which is
//! what makes the engines cross-checkable by property tests.
//!
//! # Dual simplex
//!
//! `Factor::run_dual_phase` implements the dual simplex: starting from a
//! basis whose reduced costs are non-negative (dual feasible) but whose
//! basic values `x_B = B⁻¹b` may be negative (primal infeasible), it
//! repeatedly
//!
//! 1. picks the leaving row `r` with the most negative `x_B[r]`,
//! 2. reads row `r` of `B⁻¹` (free — the inverse is stored row-major) and
//!    forms the pivot row `α_r = ρᵀA` by one sparse dot per column,
//! 3. picks the entering column minimising the dual ratio `d_j / (−α_rj)`
//!    over `α_rj < 0` (ties broken on the smallest column index, which
//!    guards against cycling the same way Bland's rule does),
//! 4. pivots with the same rank-1 update as the primal method.
//!
//! If a row is negative but no column qualifies, the row is a certificate of
//! primal infeasibility. The dual method is what makes warm starts cheap: a
//! bound tightening or right-hand-side delta leaves the previous optimal
//! basis dual feasible, so re-optimisation costs a handful of dual pivots
//! instead of a full two-phase cold solve (see [`crate::warm`]).

// Index-based loops are deliberate in the numeric kernels below: most walk
// two or three parallel arrays with offsets, where iterator chains obscure
// the linear algebra.
#![allow(clippy::needless_range_loop)]

use crate::dense_simplex::solve_unconstrained;
use crate::model::Model;
use crate::solution::{Solution, Status};
use crate::sparse_lu::{SolveCounts, SparseLu};
use crate::standard::StandardForm;
use crate::{
    scaled_iteration_cap, sparse_iteration_cap, LpError, COST_TOL, FEAS_TOL, PIVOT_TOL,
    SPARSE_MIN_ROWS,
};

/// How [`RevisedSimplex`] represents the basis factorisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisRepr {
    /// Dense row-major `B⁻¹` — the retained, cross-checked oracle path.
    DenseInverse,
    /// Sparse Markowitz LU with eta updates (`sparse_lu.rs`).
    SparseLu,
    /// [`BasisRepr::SparseLu`] at or above [`SPARSE_MIN_ROWS`]
    /// standard-form rows, [`BasisRepr::DenseInverse`] below. The row count
    /// that matters is the *lowered* one: the paper-shape K=50 plain
    /// relaxation (m ≈ 630) is on the dense side of this switch (its cold
    /// solves pick the sparse LU explicitly, through `Engine::Auto`), but
    /// its warm variant carries one bound row per pre-materialised α cap
    /// (m ≈ 3 080) and runs sparse.
    Auto,
}

/// Revised simplex solver.
#[derive(Debug, Clone)]
pub struct RevisedSimplex {
    /// Hard cap on pivots per phase; `None` derives the size-scaled default
    /// ([`scaled_iteration_cap`] / [`sparse_iteration_cap`] depending on
    /// the resolved representation), so a pathological or cycling instance
    /// surfaces [`LpError::IterationLimit`] instead of spinning forever.
    pub max_iterations: Option<usize>,
    /// Pivots without improvement before Bland's rule engages.
    pub stall_limit: usize,
    /// Basis refactorisation interval (pivots). The sparse representation
    /// additionally refactorises early when the eta file outgrows the LU
    /// factors (fill-bounded refactorisation).
    pub refactor_every: usize,
    /// Basis factorisation representation (see [`BasisRepr`]).
    pub basis_repr: BasisRepr,
}

impl Default for RevisedSimplex {
    fn default() -> Self {
        RevisedSimplex {
            max_iterations: None,
            stall_limit: 256,
            refactor_every: 128,
            basis_repr: BasisRepr::Auto,
        }
    }
}

impl RevisedSimplex {
    /// Resolves [`BasisRepr::Auto`] for a model with `m` standard-form
    /// rows: `true` = sparse LU.
    pub(crate) fn sparse_for(&self, m: usize) -> bool {
        match self.basis_repr {
            BasisRepr::DenseInverse => false,
            BasisRepr::SparseLu => true,
            BasisRepr::Auto => m >= SPARSE_MIN_ROWS,
        }
    }

    /// The per-phase pivot cap used on a given standard form.
    pub(crate) fn iteration_cap(&self, sf: &StandardForm) -> usize {
        self.max_iterations.unwrap_or_else(|| {
            if self.sparse_for(sf.m) {
                sparse_iteration_cap(sf.m, sf.n_cols)
            } else {
                scaled_iteration_cap(sf.m, sf.n_cols)
            }
        })
    }
}

/// Smallest Sherman–Morrison denominator [`Factor::repair_basic_column`]
/// still repairs by a rank-1 update; below it the patched basis is treated
/// as nearly singular and the column is pivoted out instead.
const RANK1_MIN_DENOM: f64 = 0.1;

/// What [`Factor::repair_basic_column`] did about a patched basic column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColumnRepair {
    /// The factorisation (and a current `x_B`) absorbed the patch by a
    /// rank-1 update.
    Rank1,
    /// The column was pivoted out for a slack before the patch could make
    /// the basis singular; the next solve's repair loop absorbs the pivot.
    Evicted,
    /// Neither was possible: refactorise before the next solve.
    Refactor,
}

pub(crate) enum PhaseEnd {
    Optimal,
    Unbounded,
}

/// Outcome of a dual-simplex phase.
pub(crate) enum DualEnd {
    /// All basic values are non-negative; the basis is primal feasible (and
    /// still dual feasible for the costs the phase ran with).
    PrimalFeasible,
    /// A negative row with no admissible pivot column: primal infeasible.
    Infeasible,
}

/// Dense row-major `B⁻¹` with its Gauss–Jordan refactorisation scratch —
/// the retained oracle representation.
#[derive(Debug, Clone)]
struct DenseInv {
    binv: Vec<f64>,
    /// Dense `B` scratch for refactorisation (`m × m`, allocated once).
    scratch_a: Vec<f64>,
    /// Gauss–Jordan inverse scratch for refactorisation (`m × m`).
    scratch_inv: Vec<f64>,
}

/// The interchangeable basis-factorisation representations. Exactly one
/// `Repr` lives in each solver context (never in bulk collections), so the
/// size gap between the variants costs nothing.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
enum Repr {
    Dense(DenseInv),
    Sparse(SparseLu),
}

/// An FTRAN result `w = B⁻¹a` in basis-position space, with the positions
/// worth looking at. The sparse LU hands back, ascending, the positions that
/// may hold a non-zero (`val` is zero everywhere else), and everything
/// downstream of a solve — ratio test, eta append, `x_B` step — walks
/// [`Column::rows`] instead of `0..m`. Ascending order is part of the
/// contract: the ratio test's tie window and the eta file's entry order both
/// depend on it. The dense inverse fills `val` outright, so its pattern is
/// every position, written once in [`Column::new`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Column {
    pub(crate) val: Vec<f64>,
    /// See [`SparseLu::ftran`] for the `val`/`pat` contract on the sparse LU.
    pat: Vec<u32>,
}

impl Column {
    fn new(m: usize, sparse: bool) -> Self {
        Column {
            val: vec![0.0; m],
            pat: if sparse {
                Vec::new()
            } else {
                (0..m as u32).collect()
            },
        }
    }

    pub(crate) fn rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.pat.iter().map(|&i| i as usize)
    }

    fn scale(&mut self, by: f64) {
        for &i in &self.pat {
            self.val[i as usize] *= by;
        }
    }
}

/// The persistent simplex state: basis, a factorisation of it (dense `B⁻¹`
/// or sparse LU + etas), and basic values.
///
/// Unlike a per-solve tableau this owns no reference to the standard form,
/// so it can outlive a solve and be re-used by the warm-start layer: every
/// method takes the (possibly patched-in-place) `StandardForm` explicitly.
#[derive(Debug, Clone)]
pub(crate) struct Factor {
    pub(crate) m: usize,
    pub(crate) basis: Vec<usize>,
    pub(crate) in_basis: Vec<bool>,
    /// Basis factorisation.
    repr: Repr,
    /// Current basic variable values `x_B = B⁻¹ b`.
    pub(crate) xb: Vec<f64>,
    /// Sparse representation only: right-hand-side patches arrived since
    /// `xb` was last computed, so it must be flushed ([`Factor::flush_xb`])
    /// before anything decides on it. Always `false` on the dense inverse.
    xb_stale: bool,
    pub(crate) iterations: usize,
    /// Total refactorisations performed over this factor's lifetime.
    pub(crate) refactor_count: u64,
    pivots_since_refactor: usize,
    refactor_every: usize,
    /// BTRAN scratch (`y`), reused across pivots, phases and warm solves.
    pub(crate) scratch_y: Vec<f64>,
    /// FTRAN scratch (`w`), reused across pivots and phases.
    scratch_w: Column,
    /// Dual pricing-row scratch (`ρ`), reused across dual pivots.
    scratch_rho: Vec<f64>,
}

impl Factor {
    pub(crate) fn new(sf: &StandardForm, refactor_every: usize, sparse: bool) -> Self {
        let m = sf.m;
        let mut in_basis = vec![false; sf.n_cols];
        for &j in &sf.initial_basis {
            in_basis[j] = true;
        }
        // The initial basis is {slack, artificial} columns with coefficient
        // +1 on their row, so B = I and x_B = b.
        let repr = if sparse {
            Repr::Sparse(SparseLu::identity(m))
        } else {
            let mut binv = vec![0.0f64; m * m];
            for i in 0..m {
                binv[i * m + i] = 1.0;
            }
            Repr::Dense(DenseInv {
                binv,
                scratch_a: Vec::new(),
                scratch_inv: Vec::new(),
            })
        };
        Factor {
            m,
            basis: sf.initial_basis.clone(),
            in_basis,
            repr,
            xb: sf.b.to_vec(),
            xb_stale: false,
            iterations: 0,
            refactor_count: 0,
            pivots_since_refactor: 0,
            refactor_every,
            scratch_y: vec![0.0; m],
            scratch_w: Column::new(m, sparse),
            scratch_rho: vec![0.0; m],
        }
    }

    /// Installs an explicit basis (one column per row) and factorises it.
    /// Fails with [`LpError::SingularBasis`] when the columns are linearly
    /// dependent, and rejects malformed basis vectors.
    pub(crate) fn from_basis(
        sf: &StandardForm,
        cols: &[usize],
        refactor_every: usize,
        sparse: bool,
    ) -> Result<Self, LpError> {
        if cols.len() != sf.m {
            return Err(LpError::SingularBasis);
        }
        let mut in_basis = vec![false; sf.n_cols];
        for &j in cols {
            if j >= sf.n_cols || in_basis[j] {
                return Err(LpError::SingularBasis);
            }
            in_basis[j] = true;
        }
        let repr = if sparse {
            Repr::Sparse(SparseLu::identity(sf.m))
        } else {
            Repr::Dense(DenseInv {
                binv: vec![0.0; sf.m * sf.m],
                scratch_a: Vec::new(),
                scratch_inv: Vec::new(),
            })
        };
        let mut f = Factor {
            m: sf.m,
            basis: cols.to_vec(),
            in_basis,
            repr,
            xb: vec![0.0; sf.m],
            xb_stale: false,
            iterations: 0,
            refactor_count: 0,
            pivots_since_refactor: 0,
            refactor_every,
            scratch_y: vec![0.0; sf.m],
            scratch_w: Column::new(sf.m, sparse),
            scratch_rho: vec![0.0; sf.m],
        };
        // Repairing factorisation: a snapshot that went (near-)singular
        // after model edits degrades to a partially-restored basis instead
        // of failing outright; the warm repair loop re-optimises from it.
        f.refactor_repair(sf)?;
        Ok(f)
    }

    /// Nonzeros held by the factorisation: `m²` for the dense inverse,
    /// LU + eta-file nonzeros for the sparse representation.
    pub(crate) fn factor_nnz(&self) -> usize {
        match &self.repr {
            Repr::Dense(_) => self.m * self.m,
            Repr::Sparse(lu) => lu.lu_nnz() + lu.eta_nnz(),
        }
    }

    /// Nonzeros of the basis columns at the last factorisation (dense:
    /// recomputed on demand is unnecessary — the sparse factoriser records
    /// it; dense callers fall back to the current sparse column count).
    pub(crate) fn basis_nnz(&self, sf: &StandardForm) -> usize {
        match &self.repr {
            Repr::Dense(_) => sf.basis_nnz(&self.basis),
            Repr::Sparse(lu) => lu.basis_nnz,
        }
    }

    /// How much of the sparse LU the solves walked so far (all zero on the
    /// dense inverse).
    pub(crate) fn solve_counts(&self) -> SolveCounts {
        match &self.repr {
            Repr::Dense(_) => SolveCounts::default(),
            Repr::Sparse(lu) => lu.counts,
        }
    }

    /// `y = c_Bᵀ B⁻¹`.
    pub(crate) fn btran(&mut self, costs: &[f64], y: &mut [f64]) {
        let basis = &self.basis;
        match &mut self.repr {
            Repr::Dense(d) => {
                y.iter_mut().for_each(|v| *v = 0.0);
                for (r, &bj) in basis.iter().enumerate() {
                    let cb = costs[bj];
                    if cb != 0.0 {
                        let row = &d.binv[r * self.m..(r + 1) * self.m];
                        for (yi, &bi) in y.iter_mut().zip(row) {
                            *yi += cb * bi;
                        }
                    }
                }
            }
            Repr::Sparse(lu) => lu.btran(|pos| costs[basis[pos]], y),
        }
    }

    /// `ρ = e_posᵀ B⁻¹` — row `pos` of the inverse, indexed by original
    /// standard-form row. The dense representation reads the row straight
    /// off `B⁻¹` (bit-identical to the historical direct access); the
    /// sparse one runs a unit BTRAN.
    pub(crate) fn btran_unit(&mut self, pos: usize, rho: &mut [f64]) {
        match &mut self.repr {
            Repr::Dense(d) => rho.copy_from_slice(&d.binv[pos * self.m..(pos + 1) * self.m]),
            Repr::Sparse(lu) => lu.btran(|p| if p == pos { 1.0 } else { 0.0 }, rho),
        }
    }

    /// `w = B⁻¹ a_j` from the sparse column.
    pub(crate) fn ftran(&mut self, sf: &StandardForm, j: usize, w: &mut Column) {
        match &mut self.repr {
            Repr::Dense(d) => {
                let w = &mut w.val;
                w.iter_mut().for_each(|v| *v = 0.0);
                for &(r, a) in &sf.cols[j] {
                    let col = &d.binv[..];
                    // Accumulate a · (column r of B⁻¹): row-major storage
                    // means a strided walk; m is small on this path so it
                    // stays cheap relative to the m² updates.
                    for i in 0..self.m {
                        w[i] += a * col[i * self.m + r];
                    }
                }
            }
            Repr::Sparse(lu) => lu.ftran(&sf.cols[j], &mut w.val, &mut w.pat),
        }
    }

    /// `w = B⁻¹ e_row` — column `row` of the inverse.
    pub(crate) fn ftran_unit(&mut self, row: usize, w: &mut Column) {
        match &mut self.repr {
            Repr::Dense(d) => {
                for i in 0..self.m {
                    w.val[i] = d.binv[i * self.m + row];
                }
            }
            Repr::Sparse(lu) => lu.ftran(&[(row, 1.0)], &mut w.val, &mut w.pat),
        }
    }

    /// Reduced cost of column `j` given `y`.
    pub(crate) fn reduced_cost(
        &self,
        sf: &StandardForm,
        costs: &[f64],
        y: &[f64],
        j: usize,
    ) -> f64 {
        let mut d = costs[j];
        for &(r, a) in &sf.cols[j] {
            d -= y[r] * a;
        }
        d
    }

    pub(crate) fn objective(&self, costs: &[f64]) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .map(|(&j, &x)| costs[j] * x)
            .sum()
    }

    /// Accounts for a single right-hand-side delta in `x_B`. The dense
    /// inverse folds it in eagerly — `Δx_B = B⁻¹ Δb = δ ·` (column `row` of
    /// `B⁻¹`), one O(m) strided column read. The sparse LU would need a
    /// unit FTRAN per patch for the same column, so it only marks `x_B`
    /// stale: one [`Factor::flush_xb`] before the next solve recomputes
    /// `B⁻¹b` exactly, whatever the size of the patch batch.
    pub(crate) fn apply_b_delta(&mut self, row: usize, delta: f64) {
        let m = self.m;
        match &self.repr {
            Repr::Dense(d) => {
                for i in 0..m {
                    self.xb[i] += delta * d.binv[i * m + row];
                }
            }
            Repr::Sparse(_) => self.xb_stale = true,
        }
    }

    /// `x_B = B⁻¹ b` with the small-negative clamp every `x_B` rebuild
    /// applies (sparse representation).
    fn recompute_xb(lu: &mut SparseLu, sf: &StandardForm, xb: &mut [f64]) {
        lu.ftran_dense(&sf.b, xb);
        for v in xb.iter_mut() {
            if *v < 0.0 && *v > -FEAS_TOL {
                *v = 0.0;
            }
        }
    }

    /// Recomputes a stale `x_B` (see [`Factor::apply_b_delta`]) from the
    /// patched right-hand side. Returns whether a flush was needed.
    pub(crate) fn flush_xb(&mut self, sf: &StandardForm) -> bool {
        if !self.xb_stale {
            return false;
        }
        let Repr::Sparse(lu) = &mut self.repr else {
            unreachable!("only the sparse representation defers x_B");
        };
        Self::recompute_xb(lu, sf, &mut self.xb);
        self.xb_stale = false;
        true
    }

    /// Swaps the basic column at basis position `pos` for a nonbasic slack
    /// column with a numerically solid pivot element, using one ordinary
    /// basis update (`slack_cols` maps rows to their slack columns).
    /// Returns `false` when no such slack exists. Used by the warm-start
    /// layer to pull a column out of the basis *before* a coefficient patch
    /// that would make the basis singular.
    pub(crate) fn evict_position(
        &mut self,
        sf: &StandardForm,
        pos: usize,
        slack_cols: &[Option<usize>],
    ) -> bool {
        let m = self.m;
        // w_slack(r)[pos] = B⁻¹[pos, r] · coef, so the best candidate is
        // read off row `pos` of the inverse (one unit BTRAN for the sparse
        // representation).
        let mut rho = std::mem::take(&mut self.scratch_rho);
        self.btran_unit(pos, &mut rho);
        let mut best: Option<(usize, f64)> = None;
        for r in 0..m {
            let Some(s) = slack_cols[r] else {
                continue;
            };
            if self.in_basis[s] {
                continue;
            }
            let w_pos = (rho[r] * sf.cols[s][0].1).abs();
            if best.is_none_or(|(_, b)| w_pos > b) {
                best = Some((s, w_pos));
            }
        }
        self.scratch_rho = rho;
        let Some((e, mag)) = best else {
            return false;
        };
        if mag <= 1e-7 {
            return false;
        }
        let mut w = std::mem::take(&mut self.scratch_w);
        self.ftran(sf, e, &mut w);
        let ok = w.val[pos].abs() > PIVOT_TOL;
        if ok {
            self.update(pos, e, &w);
        }
        self.scratch_w = w;
        ok
    }

    /// `‖B·x_B − b‖∞`, computed from the *true* sparse basis columns — an
    /// O(nnz) health check of the incrementally-maintained factorisation.
    /// Rank-1 patches with modest denominators compound; when this residual
    /// leaves the noise floor the caller must refactorise before trusting
    /// another solve (a drifted `B⁻¹` sends the dual phase on a degenerate
    /// random walk of pivots).
    pub(crate) fn xb_residual_inf(&mut self, sf: &StandardForm) -> f64 {
        // (`scratch_w` is off limits for dense writes: it is zero outside
        // its pattern.)
        let mut res = std::mem::take(&mut self.scratch_rho);
        res.copy_from_slice(&sf.b);
        for (pos, &j) in self.basis.iter().enumerate() {
            let x = self.xb[pos];
            if x != 0.0 {
                for &(r, a) in &sf.cols[j] {
                    res[r] -= a * x;
                }
            }
        }
        let worst = res.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
        self.scratch_rho = res;
        worst
    }

    /// Rebuilds `B⁻¹` from scratch (Gauss–Jordan with partial pivoting) and
    /// recomputes `x_B`. Fails with [`LpError::SingularBasis`] when the
    /// basis columns are dependent.
    pub(crate) fn refactor(&mut self, sf: &StandardForm) -> Result<(), LpError> {
        self.refactor_inner(sf, false).map(|_| ())
    }

    /// Like [`Factor::refactor`], but *repairs* a singular basis instead of
    /// failing: when elimination exposes a dependent basis column, that
    /// basis slot is replaced by the unit (slack/artificial) column of a
    /// not-yet-pivoted row — `initial_basis` guarantees one exists per row —
    /// and elimination continues. Returns the number of replaced columns;
    /// the caller must treat the basis as arbitrary (re-run the full
    /// dual/primal repair loop) whenever it is nonzero.
    pub(crate) fn refactor_repair(&mut self, sf: &StandardForm) -> Result<usize, LpError> {
        self.refactor_inner(sf, true)
    }

    fn refactor_inner(&mut self, sf: &StandardForm, repair: bool) -> Result<usize, LpError> {
        let replaced = match &mut self.repr {
            Repr::Sparse(lu) => {
                let replaced = lu.factorise(sf, &mut self.basis, &mut self.in_basis, repair)?;
                // Same small-negative clamp as the dense rebuild below;
                // whatever patches were pending are now folded in.
                Self::recompute_xb(lu, sf, &mut self.xb);
                self.xb_stale = false;
                replaced
            }
            Repr::Dense(_) => self.refactor_dense(sf, repair)?,
        };
        self.pivots_since_refactor = 0;
        self.refactor_count += 1;
        Ok(replaced)
    }

    /// The dense Gauss–Jordan rebuild (see [`Factor::refactor_repair`] for
    /// the repair semantics shared with the sparse factoriser).
    fn refactor_dense(&mut self, sf: &StandardForm, repair: bool) -> Result<usize, LpError> {
        let m = self.m;
        let Repr::Dense(dense) = &mut self.repr else {
            unreachable!("dense refactor on a sparse factor");
        };
        // Dense B from the sparse basis columns, into the reusable scratch
        // (zeroed in place — no per-refactor `m²` allocations).
        let mut a = std::mem::take(&mut dense.scratch_a);
        let mut inv = std::mem::take(&mut dense.scratch_inv);
        a.clear();
        a.resize(m * m, 0.0);
        inv.clear();
        inv.resize(m * m, 0.0);
        for (c, &j) in self.basis.iter().enumerate() {
            for &(r, v) in &sf.cols[j] {
                a[r * m + c] = v;
            }
        }
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        // Physical row ↔ original row bookkeeping (needed by the repair
        // path: replacement candidates are indexed by original rows).
        let mut perm: Vec<usize> = (0..m).collect();
        let mut replaced = 0usize;
        for col in 0..m {
            // Partial pivoting.
            let mut piv_row = col;
            let mut piv_val = a[col * m + col].abs();
            for r in col + 1..m {
                let v = a[r * m + col].abs();
                if v > piv_val {
                    piv_val = v;
                    piv_row = r;
                }
            }
            if piv_val < 1e-12 {
                if !repair {
                    dense.scratch_a = a;
                    dense.scratch_inv = inv;
                    return Err(LpError::SingularBasis);
                }
                // Basis column `col` is dependent on the already-pivoted
                // ones. Substitute the unit column `e_q` of an unpivoted
                // original row `q` whose slack/artificial is nonbasic; its
                // eliminated representation is just column `q` of the
                // accumulated op matrix (`inv`), so no re-elimination is
                // needed. Pick the candidate with the largest pivot.
                let mut best: Option<(usize, usize, f64)> = None;
                for r in col..m {
                    let q = perm[r];
                    let cand = sf.initial_basis[q];
                    if self.in_basis[cand] {
                        continue;
                    }
                    let mag = inv[r * m + q].abs();
                    if best.is_none_or(|(_, _, b)| mag > b) {
                        best = Some((r, q, mag));
                    }
                }
                match best {
                    Some((r, q, mag)) if mag >= 1e-12 => {
                        let cand = sf.initial_basis[q];
                        self.in_basis[self.basis[col]] = false;
                        self.in_basis[cand] = true;
                        self.basis[col] = cand;
                        for rr in 0..m {
                            a[rr * m + col] = inv[rr * m + q];
                        }
                        replaced += 1;
                        piv_row = r;
                        piv_val = mag;
                    }
                    _ => {
                        dense.scratch_a = a;
                        dense.scratch_inv = inv;
                        return Err(LpError::SingularBasis);
                    }
                }
                debug_assert!(piv_val >= 1e-12);
            }
            if piv_row != col {
                for j in 0..m {
                    a.swap(col * m + j, piv_row * m + j);
                    inv.swap(col * m + j, piv_row * m + j);
                }
                perm.swap(col, piv_row);
            }
            let inv_piv = 1.0 / a[col * m + col];
            for j in 0..m {
                a[col * m + j] *= inv_piv;
                inv[col * m + j] *= inv_piv;
            }
            for r in 0..m {
                if r != col {
                    let f = a[r * m + col];
                    if f != 0.0 {
                        for j in 0..m {
                            a[r * m + j] -= f * a[col * m + j];
                            inv[r * m + j] -= f * inv[col * m + j];
                        }
                    }
                }
            }
        }
        dense.binv.copy_from_slice(&inv);
        dense.scratch_a = a;
        dense.scratch_inv = inv;
        // x_B = B⁻¹ b.
        for i in 0..m {
            let row = &dense.binv[i * m..(i + 1) * m];
            self.xb[i] = row.iter().zip(&sf.b).map(|(&bi, &b)| bi * b).sum();
            if self.xb[i] < 0.0 && self.xb[i] > -FEAS_TOL {
                self.xb[i] = 0.0;
            }
        }
        Ok(replaced)
    }

    /// Repairs the factorisation after the *basic* column at basis position
    /// `pos` changed by `delta` in row `row` (`sf` already holds the patched
    /// column). One `u = B⁻¹e_row` — a column read on the dense inverse, a
    /// unit FTRAN on the sparse LU — yields the Sherman–Morrison
    /// denominator `1 + δ·u[pos]`, which picks the branch *before* anything
    /// is mutated, and then drives the rank-1 repair itself:
    ///
    /// * `|denom| ≥` [`RANK1_MIN_DENOM`]: rank-1 repair. The dense inverse
    ///   applies Sherman–Morrison — `B′ = B + δ·e_row·e_posᵀ`, so
    ///   `B′⁻¹ = B⁻¹ − (δ · B⁻¹e_row · e_posᵀB⁻¹) / denom`; the sparse LU
    ///   appends the product-form eta `E = I + δu·e_posᵀ` (`B′ = B·E`) —
    ///   same operator, O(nnz) instead of O(m²). Both correct `x_B` with
    ///   the identical rank-1 arithmetic (skipped while `x_B` is stale: the
    ///   flush recomputes it from the repaired factorisation).
    /// * a small denominator means the patched basis is nearly singular —
    ///   the column was basic *because of* the entries the patch removes,
    ///   and a rank-1 update would wreck the conditioning even where it
    ///   technically succeeds. Pivoting the column out first
    ///   ([`Factor::evict_position`]), while the factorisation is still
    ///   valid, sidesteps the singularity.
    /// * no usable replacement column: the caller must refactorise.
    ///
    /// Returns the branch taken and the denominator.
    pub(crate) fn repair_basic_column(
        &mut self,
        sf: &StandardForm,
        slack_cols: &[Option<usize>],
        row: usize,
        pos: usize,
        delta: f64,
    ) -> (ColumnRepair, f64) {
        let m = self.m;
        let mut u = std::mem::take(&mut self.scratch_w);
        self.ftran_unit(row, &mut u);
        let denom = 1.0 + delta * u.val[pos];
        // (A NaN denominator takes the eviction branch too.)
        let rank1_safe = denom.abs() >= RANK1_MIN_DENOM;
        if !rank1_safe {
            self.scratch_w = u;
            let repair = if self.evict_position(sf, pos, slack_cols) {
                ColumnRepair::Evicted
            } else {
                ColumnRepair::Refactor
            };
            return (repair, denom);
        }
        u.scale(delta);
        let inv_denom = 1.0 / denom;
        match &mut self.repr {
            // Column pos of E is e_pos + u: pivot `denom`, off entries u.
            Repr::Sparse(lu) => lu.append_eta(pos, denom, &u.val, &u.pat, 0.0),
            Repr::Dense(dense) => {
                let u = &u.val;
                // Rows i ≠ pos read the *old* row pos, so it must be
                // corrected last: its own correction works out to a plain
                // scaling by 1/denom (`new = old − (u_pos/denom)·old =
                // old·(denom − u_pos)/denom`, and `denom − u_pos = 1` by
                // the definition of the denominator).
                for i in 0..m {
                    if i == pos {
                        continue;
                    }
                    let f = u[i] * inv_denom;
                    if f != 0.0 {
                        // binv[i, :] -= f · binv[pos, :] — raw index math
                        // splits the borrow between the updated row and the
                        // pivot row.
                        for j in 0..m {
                            let pv = dense.binv[pos * m + j];
                            dense.binv[i * m + j] -= f * pv;
                        }
                    }
                }
                for j in 0..m {
                    dense.binv[pos * m + j] *= inv_denom;
                }
            }
        }
        if !self.xb_stale {
            // Same rank-1 correction keeps x_B = B⁻¹b current:
            // `x_B ← x_B − u · x_B[pos]/denom` (the pos entry lands on
            // `x_B[pos]/denom` by the identity above).
            let f = self.xb[pos] * inv_denom;
            for i in u.rows() {
                self.xb[i] -= u.val[i] * f;
            }
        }
        self.scratch_w = u;
        (ColumnRepair::Rank1, denom)
    }

    /// Applies the basis change for entering column `e` at row `r` with
    /// FTRAN result `w`: an elementary row transformation of the dense
    /// `B⁻¹`, or an appended eta for the sparse LU (identical `x_B`
    /// arithmetic on both paths, including the 1e-13 drop threshold).
    ///
    /// `x_B` is only *maintained* here (θ and the column step), never
    /// decided on: an eviction pivot between patches may run this on a
    /// stale sparse `x_B`, and whatever it writes is overwritten by the
    /// pending [`Factor::flush_xb`].
    pub(crate) fn update(&mut self, r: usize, e: usize, w: &Column) {
        let m = self.m;
        let pivot = w.val[r];
        let theta = self.xb[r] / pivot;
        match &mut self.repr {
            Repr::Dense(dense) => {
                let w = &w.val;
                let inv_p = 1.0 / pivot;
                for j in 0..m {
                    dense.binv[r * m + j] *= inv_p;
                }
                for i in 0..m {
                    if i != r {
                        let f = w[i];
                        if f.abs() > 1e-13 {
                            // Split borrows: copying the pivot row is
                            // avoided with raw index math over the flat
                            // buffer.
                            for j in 0..m {
                                let pr = dense.binv[r * m + j];
                                dense.binv[i * m + j] -= f * pr;
                            }
                            self.xb[i] -= theta * f;
                            if self.xb[i] < 0.0 && self.xb[i] > -FEAS_TOL {
                                self.xb[i] = 0.0;
                            }
                        }
                    }
                }
            }
            Repr::Sparse(lu) => {
                lu.append_eta(r, pivot, &w.val, &w.pat, 1e-13);
                for i in w.rows() {
                    if i != r {
                        let f = w.val[i];
                        if f.abs() > 1e-13 {
                            self.xb[i] -= theta * f;
                            if self.xb[i] < 0.0 && self.xb[i] > -FEAS_TOL {
                                self.xb[i] = 0.0;
                            }
                        }
                    }
                }
            }
        }
        self.xb[r] = theta;
        self.in_basis[self.basis[r]] = false;
        self.in_basis[e] = true;
        self.basis[r] = e;
        self.iterations += 1;
        self.pivots_since_refactor += 1;
    }

    /// Refactorisation trigger shared by the phase loops: the pivot-count
    /// interval, plus the sparse representation's fill bound (refactorise
    /// early when the eta file outgrows the LU factors — "fill-in-bounded
    /// refactorisation").
    fn due_refactor(&self) -> bool {
        self.pivots_since_refactor >= self.refactor_every
            || matches!(&self.repr, Repr::Sparse(lu) if lu.fill_exceeded())
    }

    pub(crate) fn run_phase(
        &mut self,
        sf: &StandardForm,
        costs: &[f64],
        banned: &[bool],
        evict_artificials: bool,
        max_iter: usize,
        stall_limit: usize,
    ) -> Result<PhaseEnd, LpError> {
        // Borrow the BTRAN/FTRAN scratch out of `self` for the duration of
        // the phase so no pivot (or phase) allocates.
        let mut y = std::mem::take(&mut self.scratch_y);
        let mut w = std::mem::take(&mut self.scratch_w);
        let end = self.run_phase_inner(
            sf,
            costs,
            banned,
            evict_artificials,
            max_iter,
            stall_limit,
            &mut y,
            &mut w,
        );
        self.scratch_y = y;
        self.scratch_w = w;
        end
    }

    #[allow(clippy::too_many_arguments)]
    fn run_phase_inner(
        &mut self,
        sf: &StandardForm,
        costs: &[f64],
        banned: &[bool],
        evict_artificials: bool,
        max_iter: usize,
        stall_limit: usize,
        y: &mut [f64],
        w: &mut Column,
    ) -> Result<PhaseEnd, LpError> {
        let mut bland = false;
        let mut stall = 0usize;
        let mut last_obj = self.objective(costs);
        let mut iters_this_phase = 0usize;

        loop {
            self.btran(costs, y);

            // --- entering column ---
            let mut entering = None;
            if bland {
                for j in 0..sf.n_cols {
                    if !banned[j] && !self.in_basis[j] {
                        let d = self.reduced_cost(sf, costs, y, j);
                        if d < -COST_TOL {
                            entering = Some(j);
                            break;
                        }
                    }
                }
            } else {
                let mut best = -COST_TOL;
                for j in 0..sf.n_cols {
                    if !banned[j] && !self.in_basis[j] {
                        let d = self.reduced_cost(sf, costs, y, j);
                        if d < best {
                            best = d;
                            entering = Some(j);
                        }
                    }
                }
            }
            let Some(e) = entering else {
                return Ok(PhaseEnd::Optimal);
            };

            self.ftran(sf, e, w);

            // --- leaving row (artificial eviction first, as in the dense
            // engine) ---
            let mut leaving = None;
            if evict_artificials {
                let mut best_abs = PIVOT_TOL;
                for i in w.rows() {
                    if sf.is_artificial[self.basis[i]] {
                        let v = w.val[i].abs();
                        if v > best_abs {
                            best_abs = v;
                            leaving = Some(i);
                        }
                    }
                }
            }
            if leaving.is_none() {
                let mut best_ratio = f64::INFINITY;
                let mut best_basis = usize::MAX;
                for i in w.rows() {
                    if w.val[i] > PIVOT_TOL {
                        let ratio = self.xb[i] / w.val[i];
                        if ratio < best_ratio - 1e-12
                            || (ratio < best_ratio + 1e-12 && self.basis[i] < best_basis)
                        {
                            best_ratio = ratio;
                            best_basis = self.basis[i];
                            leaving = Some(i);
                        }
                    }
                }
            }
            let Some(r) = leaving else {
                return Ok(PhaseEnd::Unbounded);
            };

            self.update(r, e, w);
            iters_this_phase += 1;

            if self.due_refactor() {
                self.refactor(sf)?;
            }

            let obj = self.objective(costs);
            if obj < last_obj - 1e-12 {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
                if stall >= stall_limit {
                    bland = true;
                }
            }
            if iters_this_phase >= max_iter {
                return Err(LpError::IterationLimit {
                    iterations: self.iterations,
                });
            }
        }
    }

    /// Dual simplex: from a dual-feasible basis (`d_j ≥ 0` for every
    /// non-banned column under `costs`), pivots until primal feasibility or
    /// an infeasibility certificate. See the module docs for the method.
    pub(crate) fn run_dual_phase(
        &mut self,
        sf: &StandardForm,
        costs: &[f64],
        banned: &[bool],
        max_iter: usize,
    ) -> Result<DualEnd, LpError> {
        let m = self.m;
        let mut y = std::mem::take(&mut self.scratch_y);
        let mut w = std::mem::take(&mut self.scratch_w);
        let mut rho = std::mem::take(&mut self.scratch_rho);
        let b_scale = 1.0 + sf.b.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
        let tol = FEAS_TOL * b_scale;
        let mut iters_this_phase = 0usize;
        let mut retried_after_refactor = false;

        let end = loop {
            // --- leaving row: the most violated basic value. A negative
            // basic variable violates its lower bound 0; a *positive* basic
            // artificial violates its conceptual upper bound 0 (artificials
            // are fixed at zero outside phase 1) and is driven out the same
            // way, with the ratio test run on the opposite sign. ---
            let mut leaving: Option<(usize, bool)> = None;
            let mut worst = tol;
            for i in 0..m {
                let (viol, above) = if self.xb[i] < 0.0 {
                    (-self.xb[i], false)
                } else if self.xb[i] > 0.0 && sf.is_artificial[self.basis[i]] {
                    (self.xb[i], true)
                } else {
                    continue;
                };
                if viol > worst {
                    worst = viol;
                    leaving = Some((i, above));
                }
            }
            let Some((r, above)) = leaving else {
                break Ok(DualEnd::PrimalFeasible);
            };
            // Entering candidates need `α_rj` of this sign for the pivot to
            // reduce the violation.
            let want_sign = if above { 1.0 } else { -1.0 };

            // --- entering column: dual ratio test over sign·α_rj > 0 ---
            self.btran(costs, &mut y);
            self.btran_unit(r, &mut rho);
            let mut entering: Option<(usize, f64)> = None;
            let mut best_ratio = f64::INFINITY;
            for j in 0..sf.n_cols {
                if banned[j] || self.in_basis[j] {
                    continue;
                }
                let mut a_rj = 0.0;
                for &(i, a) in &sf.cols[j] {
                    a_rj += rho[i] * a;
                }
                if a_rj * want_sign > PIVOT_TOL {
                    // Clamp drift: dual feasibility guarantees d ≥ −ε.
                    let d = self.reduced_cost(sf, costs, &y, j).max(0.0);
                    let ratio = d / (a_rj * want_sign);
                    // Strict improvement with ascending j means ties keep
                    // the smallest column index (Bland flavour), which
                    // guards against cycling on degenerate (d = 0) pivots.
                    if ratio < best_ratio - 1e-12 {
                        best_ratio = ratio;
                        entering = Some((j, a_rj));
                    }
                }
            }
            let Some((e, a_re)) = entering else {
                break Ok(DualEnd::Infeasible);
            };

            self.ftran(sf, e, &mut w);
            // The FTRAN pivot element must agree with the pricing row; a
            // disagreement means B⁻¹ drifted — refactorise once and retry.
            let w_r = w.val[r];
            if w_r * want_sign <= PIVOT_TOL || (w_r - a_re).abs() > 1e-6 * (1.0 + a_re.abs()) {
                if retried_after_refactor {
                    break Err(LpError::NumericalBreakdown("dual pivot row"));
                }
                retried_after_refactor = true;
                if let Err(e) = self.refactor(sf) {
                    break Err(e);
                }
                continue;
            }
            retried_after_refactor = false;

            self.update(r, e, &w);
            iters_this_phase += 1;
            if self.due_refactor() {
                if let Err(e) = self.refactor(sf) {
                    break Err(e);
                }
            }
            if iters_this_phase >= max_iter {
                break Err(LpError::IterationLimit {
                    iterations: self.iterations,
                });
            }
        };
        self.scratch_y = y;
        self.scratch_w = w;
        self.scratch_rho = rho;
        end
    }

    /// `true` iff some artificial column is basic at a non-negligible level
    /// — the "solution" then violates an original row and must be rejected
    /// (warm starts fall back to a cold solve when this happens).
    pub(crate) fn artificial_above_zero(&self, sf: &StandardForm) -> bool {
        let b_scale = 1.0 + sf.b.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
        self.basis
            .iter()
            .zip(&self.xb)
            .any(|(&j, &x)| sf.is_artificial[j] && x.abs() > FEAS_TOL * b_scale)
    }
}

/// Builds the user-facing optimal solution (values, objective, duals) from a
/// factorised optimal basis. `y` may supply an already-computed pricing
/// vector `c_Bᵀ B⁻¹` (valid for the *current* basis and the true costs) to
/// skip the O(m²) BTRAN.
pub(crate) fn extract_optimal(
    model: &Model,
    sf: &StandardForm,
    factor: &mut Factor,
    y: Option<&[f64]>,
) -> Solution {
    let mut std_values = vec![0.0f64; sf.n_structural];
    for (i, &j) in factor.basis.iter().enumerate() {
        if j < sf.n_structural {
            std_values[j] = factor.xb[i].max(0.0);
        }
    }
    let values = sf.recover(&std_values);
    let objective = model.objective_value(&values);
    // Standard-space duals at optimality: y = c_Bᵀ B⁻¹.
    let duals = match y {
        Some(y) => sf.recover_duals(y, model.num_constraints()),
        None => {
            let mut y_std = std::mem::take(&mut factor.scratch_y);
            factor.btran(&sf.c, &mut y_std);
            let duals = sf.recover_duals(&y_std, model.num_constraints());
            factor.scratch_y = y_std;
            duals
        }
    };
    Solution {
        status: Status::Optimal,
        objective,
        values,
        duals,
        iterations: factor.iterations,
    }
}

impl RevisedSimplex {
    /// Solves the LP relaxation of `model` (integrality marks are ignored).
    pub fn solve(&self, model: &Model) -> Result<Solution, LpError> {
        let sf = StandardForm::from_model(model)?;
        self.solve_standard(model, &sf)
    }

    pub(crate) fn solve_standard(
        &self,
        model: &Model,
        sf: &StandardForm,
    ) -> Result<Solution, LpError> {
        Ok(self.solve_standard_keep(model, sf)?.0)
    }

    /// Cold two-phase solve that also hands back the final factorisation, so
    /// the warm-start layer can keep pivoting from where the solve ended.
    pub(crate) fn solve_standard_keep(
        &self,
        model: &Model,
        sf: &StandardForm,
    ) -> Result<(Solution, Option<Factor>), LpError> {
        if sf.m == 0 {
            return Ok((solve_unconstrained(model, sf), None));
        }
        let mut factor = Factor::new(sf, self.refactor_every, self.sparse_for(sf.m));
        let max_iter = self.iteration_cap(sf);
        let no_ban = vec![false; sf.n_cols];

        // --- Phase 1 ---
        if sf.n_artificial > 0 {
            let costs = sf.phase1_costs();
            match factor.run_phase(sf, &costs, &no_ban, false, max_iter, self.stall_limit)? {
                PhaseEnd::Optimal => {}
                // Phase-1 objective is bounded below by 0; "unbounded" here
                // means the factorisation broke down.
                PhaseEnd::Unbounded => return Err(LpError::NumericalBreakdown("phase 1")),
            }
            let b_norm = 1.0 + sf.b.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
            if factor.objective(&costs) > FEAS_TOL * b_norm {
                return Ok((Solution::infeasible(factor.iterations), Some(factor)));
            }
        }

        // --- Phase 2 ---
        let end = factor.run_phase(
            sf,
            &sf.c,
            &sf.is_artificial,
            true,
            max_iter,
            self.stall_limit,
        )?;
        if matches!(end, PhaseEnd::Unbounded) {
            return Ok((Solution::unbounded(factor.iterations), Some(factor)));
        }

        let solution = extract_optimal(model, sf, &mut factor, None);
        Ok((solution, Some(factor)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};

    fn solve(m: &Model) -> Solution {
        RevisedSimplex::default().solve(m).unwrap()
    }

    #[test]
    fn matches_dense_on_textbook_problem() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective_coef(x, 3.0);
        m.set_objective_coef(y, 5.0);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint(vec![(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let s = solve(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 36.0).abs() < 1e-7);
    }

    #[test]
    fn phase1_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(solve(&m).status, Status::Infeasible);
    }

    #[test]
    fn unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.set_objective_coef(x, 2.0);
        m.add_constraint(vec![(x, -1.0)], ConstraintOp::Le, 5.0);
        assert_eq!(solve(&m).status, Status::Unbounded);
    }

    #[test]
    fn equality_and_ge_mix() {
        // min 4a+b s.t. a+b = 3, a ≥ 1 → a=1? cost 4+2=6 vs a=3,b=0 cost 12
        // → a=1, b=2, obj 6.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_var("a", 0.0, f64::INFINITY);
        let b = m.add_var("b", 0.0, f64::INFINITY);
        m.set_objective_coef(a, 4.0);
        m.set_objective_coef(b, 1.0);
        m.add_constraint(vec![(a, 1.0), (b, 1.0)], ConstraintOp::Eq, 3.0);
        m.add_constraint(vec![(a, 1.0)], ConstraintOp::Ge, 1.0);
        let s = solve(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 6.0).abs() < 1e-7);
        assert!((s[a] - 1.0).abs() < 1e-7);
        assert!((s[b] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn refactorisation_path_exercised() {
        // A chain of constraints forcing many pivots with a tiny refactor
        // interval, to exercise the Gauss–Jordan rebuild.
        let n = 30;
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(format!("x{i}"), 0.0, f64::INFINITY))
            .collect();
        for (i, &v) in vars.iter().enumerate() {
            m.set_objective_coef(v, 1.0 + (i as f64) * 0.01);
            m.add_constraint(vec![(v, 1.0)], ConstraintOp::Le, 1.0 + i as f64);
        }
        m.add_constraint(
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            ConstraintOp::Le,
            40.0,
        );
        let solver = RevisedSimplex {
            refactor_every: 4,
            ..RevisedSimplex::default()
        };
        let s = solver.solve(&m).unwrap();
        assert_eq!(s.status, Status::Optimal);
        m.check_feasible(&s.values, 1e-6).unwrap();
        // Compare against the dense engine.
        let d = crate::DenseSimplex::default().solve(&m).unwrap();
        assert!((s.objective - d.objective).abs() < 1e-5);
    }

    #[test]
    fn dual_phase_repairs_rhs_tightening() {
        // Solve, tighten a right-hand side in place, and let the dual phase
        // repair the (now primal-infeasible) optimal basis.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective_coef(x, 3.0);
        m.set_objective_coef(y, 5.0);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint(vec![(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let solver = RevisedSimplex::default();
        let mut sf = StandardForm::from_model(&m).unwrap();
        let (sol, factor) = solver.solve_standard_keep(&m, &sf).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-7);
        let mut factor = factor.unwrap();

        // Tighten row 2: 2y ≤ 12 → 2y ≤ 2 (scaled by 1/2 during lowering).
        // This drives x up against x ≤ 4, so the previous basis (where the
        // x ≤ 4 slack was basic) turns primal infeasible.
        sf.b[1] = 1.0;
        factor.refactor(&sf).unwrap();
        assert!(factor.xb.iter().any(|&v| v < -1e-9), "tightening must bite");
        let cap = solver.iteration_cap(&sf);
        match factor
            .run_dual_phase(&sf, &sf.c, &sf.is_artificial, cap)
            .unwrap()
        {
            DualEnd::PrimalFeasible => {}
            DualEnd::Infeasible => panic!("tightened LP is feasible"),
        }
        // Optimal after y ≤ 1: x=4, y=1 → 12 + 5 = 17.
        let repaired = extract_optimal(&m, &sf, &mut factor, None);
        m.set_rhs(crate::ConstraintId::from_index(1), 2.0);
        m.check_feasible(&repaired.values, 1e-6).unwrap();
        assert!(
            (repaired.objective - 17.0).abs() < 1e-6,
            "obj {}",
            repaired.objective
        );
    }

    #[test]
    fn dual_phase_detects_infeasibility() {
        // x ≤ 4 and x ≥ 2; tightening x ≤ 4 to x ≤ 1 makes it infeasible.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.set_objective_coef(x, 1.0);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 2.0);
        let solver = RevisedSimplex::default();
        let mut sf = StandardForm::from_model(&m).unwrap();
        let (sol, factor) = solver.solve_standard_keep(&m, &sf).unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-7);
        let mut factor = factor.unwrap();
        sf.b[0] = 1.0;
        factor.refactor(&sf).unwrap();
        let cap = solver.iteration_cap(&sf);
        assert!(matches!(
            factor
                .run_dual_phase(&sf, &sf.c, &sf.is_artificial, cap)
                .unwrap(),
            DualEnd::Infeasible
        ));
    }

    #[test]
    fn fused_repair_denominator_matches_unit_ftran_bit_for_bit() {
        // The denominator `repair_basic_column` derives from its single
        // `u = B⁻¹e_row` must be, bit for bit, the value the former separate
        // probe computed — `1 + δ·B⁻¹[pos, row]` read off the dense inverse,
        // `1 + δ·(B⁻¹e_row)[pos]` by unit FTRAN on the sparse LU — and it
        // alone must pick the branch.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective_coef(x, 3.0);
        m.set_objective_coef(y, 5.0);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint(vec![(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let sf = StandardForm::from_model(&m).unwrap();
        let slack_cols = crate::warm::slack_columns(&sf);
        for basis_repr in [BasisRepr::DenseInverse, BasisRepr::SparseLu] {
            let solver = RevisedSimplex {
                basis_repr,
                ..RevisedSimplex::default()
            };
            let (_, factor) = solver.solve_standard_keep(&m, &sf).unwrap();
            let factor = factor.unwrap();
            let mut seen = Vec::new();
            for pos in 0..sf.m {
                let j = factor.basis[pos];
                for idx in 0..sf.cols[j].len() {
                    let (row, a) = sf.cols[j][idx];
                    // Re-weight, halve, and zero out the entry.
                    for delta in [0.37, -0.5 * a, -a] {
                        let mut f = factor.clone();
                        let mut patched = sf.clone();
                        patched.cols[j][idx].1 += delta;
                        // The removed `patch_denominator`, verbatim.
                        let probe = if let Repr::Dense(d) = &f.repr {
                            1.0 + delta * d.binv[pos * sf.m + row]
                        } else {
                            let mut w = Column::new(sf.m, true);
                            f.ftran_unit(row, &mut w);
                            1.0 + delta * w.val[pos]
                        };
                        let (repair, denom) =
                            f.repair_basic_column(&patched, &slack_cols, row, pos, delta);
                        assert_eq!(denom.to_bits(), probe.to_bits(), "{basis_repr:?}");
                        assert_eq!(
                            repair == ColumnRepair::Rank1,
                            probe.abs() >= RANK1_MIN_DENOM,
                            "{basis_repr:?}: denom {denom} took {repair:?}"
                        );
                        if repair == ColumnRepair::Rank1 {
                            // The repaired factor carries the patched x_B.
                            let xb = f.xb.clone();
                            f.refactor(&patched).unwrap();
                            for (a, b) in xb.iter().zip(&f.xb) {
                                assert!((a - b).abs() < 1e-9, "{basis_repr:?}: {a} vs {b}");
                            }
                        }
                        seen.push(repair);
                    }
                }
            }
            assert!(seen.contains(&ColumnRepair::Rank1), "{seen:?}");
            assert!(seen.contains(&ColumnRepair::Evicted), "{seen:?}");
        }
    }
}

#[cfg(test)]
mod sparse_dense_props {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};
    use crate::same_bits;
    use proptest::prelude::*;

    /// Random block-structured LP in the shape of the paper's formulation:
    /// independent variable blocks with local rows, coupled by a few
    /// backbone rows over one variable per block. Feasible by witness.
    fn random_block_lp() -> impl Strategy<Value = Model> {
        (2usize..5, 2usize..4, 1usize..3).prop_flat_map(|(nblocks, bsize, nlocal)| {
            let n = nblocks * bsize;
            let coefs = proptest::collection::vec(
                proptest::collection::vec(0.2f64..4.0, bsize),
                nblocks * nlocal,
            );
            let witness = proptest::collection::vec(0.1f64..2.0, n);
            let slack = proptest::collection::vec(0.1f64..3.0, nblocks * nlocal + 1);
            let obj = proptest::collection::vec(-2.0f64..3.0, n);
            (coefs, witness, slack, obj).prop_map(move |(coefs, witness, slack, obj)| {
                let mut model = Model::new(Sense::Maximize);
                let vars: Vec<_> = (0..n)
                    .map(|j| model.add_var(format!("x{j}"), 0.0, 8.0))
                    .collect();
                for (j, &v) in vars.iter().enumerate() {
                    model.set_objective_coef(v, obj[j]);
                }
                for b in 0..nblocks {
                    for row in 0..nlocal {
                        let c = &coefs[b * nlocal + row];
                        let terms: Vec<_> =
                            (0..bsize).map(|i| (vars[b * bsize + i], c[i])).collect();
                        let at_witness: f64 =
                            (0..bsize).map(|i| c[i] * witness[b * bsize + i]).sum();
                        model.add_constraint(
                            terms,
                            ConstraintOp::Le,
                            at_witness + slack[b * nlocal + row],
                        );
                    }
                }
                // Backbone row coupling the first variable of every block.
                let terms: Vec<_> = (0..nblocks).map(|b| (vars[b * bsize], 1.0)).collect();
                let at_witness: f64 = (0..nblocks).map(|b| witness[b * bsize]).sum();
                model.add_constraint(
                    terms,
                    ConstraintOp::Le,
                    at_witness + slack[nblocks * nlocal],
                );
                model
            })
        })
    }

    /// Holds every pattern-carrying solve of a sparse factor against the
    /// retained sweep: FTRAN of every column and every unit column (through
    /// the factor's own scratch column, so each call inherits the previous
    /// call's pattern), BTRAN of the cost row and of every unit row.
    fn check_kernels(f: &mut Factor, sf: &StandardForm, at: &str) -> Result<(), TestCaseError> {
        let m = sf.m;
        let mut want = vec![0.0; m];

        let units: Vec<[(usize, f64); 1]> = (0..m).map(|row| [(row, 1.0)]).collect();
        let columns = sf.cols.iter().map(Vec::as_slice);
        let mut w = std::mem::take(&mut f.scratch_w);
        for (j, rhs) in columns.chain(units.iter().map(|u| &u[..])).enumerate() {
            let Repr::Sparse(lu) = &mut f.repr else {
                unreachable!("kernel oracles run on the sparse LU");
            };
            lu.ftran(rhs, &mut w.val, &mut w.pat);
            lu.ftran_sweep(rhs, &mut want);
            prop_assert!(
                w.pat.windows(2).all(|p| p[0] < p[1]),
                "{at}: ftran {j}: pattern {:?} not ascending",
                w.pat
            );
            for i in 0..m {
                prop_assert!(
                    same_bits(w.val[i], want[i]),
                    "{at}: ftran {j} pos {i}: {:e} vs sweep {:e}",
                    w.val[i],
                    want[i]
                );
                prop_assert!(
                    w.val[i] == 0.0 || w.pat.binary_search(&(i as u32)).is_ok(),
                    "{at}: ftran {j}: non-zero at {i} outside pattern {:?}",
                    w.pat
                );
            }
        }
        f.scratch_w = w;

        // `None`: the cost row; `Some(pos)`: the unit row of a position.
        let mut y = vec![0.0; m];
        let basis = f.basis.clone();
        for unit in std::iter::once(None).chain((0..m).map(Some)) {
            match unit {
                None => f.btran(&sf.c, &mut y),
                Some(pos) => f.btran_unit(pos, &mut y),
            }
            let Repr::Sparse(lu) = &mut f.repr else {
                unreachable!("kernel oracles run on the sparse LU");
            };
            lu.btran_sweep(
                |p| match unit {
                    None => sf.c[basis[p]],
                    Some(pos) => f64::from(u8::from(p == pos)),
                },
                &mut want,
            );
            for i in 0..m {
                prop_assert!(
                    same_bits(y[i], want[i]),
                    "{at}: btran {unit:?} row {i}: {:e} vs sweep {:e}",
                    y[i],
                    want[i]
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Tentpole invariant: the sparse LU engine solves every
        /// block-structured model to the same optimum as the dense-inverse
        /// engine, and on the *same basis* its FTRAN/BTRAN answers match
        /// the dense inverse's.
        #[test]
        fn sparse_engine_matches_dense_inverse(model in random_block_lp()) {
            let dense = RevisedSimplex {
                basis_repr: BasisRepr::DenseInverse,
                ..RevisedSimplex::default()
            };
            let sparse = RevisedSimplex {
                basis_repr: BasisRepr::SparseLu,
                refactor_every: 8, // force refactorisations mid-solve
                ..RevisedSimplex::default()
            };
            let sf = StandardForm::from_model(&model).unwrap();
            let (sol_d, factor_d) = dense.solve_standard_keep(&model, &sf).unwrap();
            let (sol_s, _) = sparse.solve_standard_keep(&model, &sf).unwrap();
            prop_assert_eq!(sol_d.status, sol_s.status);
            if sol_d.status == Status::Optimal {
                prop_assert!(
                    (sol_d.objective - sol_s.objective).abs()
                        <= 1e-6 * (1.0 + sol_d.objective.abs()),
                    "objectives: dense {} sparse {}", sol_d.objective, sol_s.objective
                );
                model.check_feasible(&sol_s.values, 1e-6).unwrap();
            }

            // FTRAN/BTRAN agreement on the dense solve's final basis.
            let Some(mut factor_d) = factor_d else { return Ok(()); };
            let mut factor_s =
                Factor::from_basis(&sf, &factor_d.basis, 128, true).unwrap();
            let m_rows = sf.m;
            let mut wd = Column::new(m_rows, false);
            let mut ws = Column::new(m_rows, true);
            for j in 0..sf.n_cols {
                factor_d.ftran(&sf, j, &mut wd);
                factor_s.ftran(&sf, j, &mut ws);
                for i in 0..m_rows {
                    prop_assert!(
                        (wd.val[i] - ws.val[i]).abs() <= 1e-7 * (1.0 + wd.val[i].abs()),
                        "ftran col {} row {}: dense {} sparse {}", j, i, wd.val[i], ws.val[i]
                    );
                }
            }
            let (mut wd, mut ws) = (wd.val, vec![0.0; m_rows]);
            factor_d.btran(&sf.c, &mut wd);
            factor_s.btran(&sf.c, &mut ws);
            for i in 0..m_rows {
                prop_assert!(
                    (wd[i] - ws[i]).abs() <= 1e-7 * (1.0 + wd[i].abs()),
                    "btran row {}: dense {} sparse {}", i, wd[i], ws[i]
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Kernel oracle: on a forced sparse LU the reach-ordered FTRAN and
        /// the zero-skipping BTRAN equal the dense sweeps bit for bit (up
        /// to the sign of zero), with an ascending pattern covering every
        /// non-zero — after every pivot of a solve that refactorises every
        /// 3 pivots (to the optimum, then back out under the negated
        /// objective, so pivots land on real `L̃Ũ` factors plus etas), after
        /// a rank-1 column repair, after an eviction, and after a
        /// refactorisation that substitutes a dependent column.
        #[test]
        fn pattern_kernels_match_the_dense_sweeps(model in random_block_lp()) {
            let sf = StandardForm::from_model(&model).unwrap();
            let slack_cols = crate::warm::slack_columns(&sf);
            let mut f = Factor::new(&sf, 3, true);
            check_kernels(&mut f, &sf, "identity")?;
            let negated: Vec<f64> = sf.c.iter().map(|c| -c).collect();
            let mut pivots = 0;
            for costs in [&sf.c, &negated] {
                // One pivot per call: the phase reports its cap as an error.
                loop {
                    match f.run_phase(&sf, costs, &sf.is_artificial, true, 1, 256) {
                        Err(LpError::IterationLimit { .. }) => {}
                        Ok(_) => break,
                        Err(e) => panic!("phase 2: {e:?}"),
                    }
                    pivots += 1;
                    check_kernels(&mut f, &sf, &format!("pivot {pivots}"))?;
                    prop_assert!(pivots < 500, "phase 2 did not terminate");
                }
            }

            // A basic structural column to patch, evict and duplicate.
            let Some(pos) = (0..sf.m).find(|&p| f.basis[p] < sf.n_structural) else {
                return Ok(());
            };
            let j = f.basis[pos];

            // Rank-1 repair: re-weight one entry of the basic column.
            let (row, a) = sf.cols[j][0];
            let mut patched = sf.clone();
            patched.cols[j][0].1 = a + 0.37;
            let mut g = f.clone();
            let (repair, _) = g.repair_basic_column(&patched, &slack_cols, row, pos, 0.37);
            if repair != ColumnRepair::Refactor {
                check_kernels(&mut g, &patched, &format!("{repair:?}"))?;
            }

            // Eviction: pivot the column out for a slack.
            let mut g = f.clone();
            if g.evict_position(&sf, pos, &slack_cols) {
                check_kernels(&mut g, &sf, "eviction")?;
            }

            // Dependent column: a second basic column becomes a copy of
            // the first, and the repairing refactorisation swaps one out.
            if let Some(other) = (0..sf.m).find(|&p| p != pos && f.basis[p] < sf.n_structural) {
                let mut patched = sf.clone();
                patched.cols[f.basis[other]] = patched.cols[j].clone();
                let mut g = f.clone();
                let replaced = g.refactor_repair(&patched).unwrap();
                prop_assert!(replaced >= 1, "a duplicated column must be replaced");
                check_kernels(&mut g, &patched, "dependent column")?;
            }
        }
    }
}
