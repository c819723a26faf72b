//! Revised simplex over a pluggable basis factorisation — primal *and*
//! dual pivoting.
//!
//! The dense tableau keeps the whole `m × n` matrix explicit, which is
//! wasteful for the paper's large platforms (K ≈ 95 clusters produce
//! thousands of rows and ~K² columns with only a handful of nonzeros each).
//! The revised method keeps only a factorisation of the `m × m` basis and
//! works from the sparse constraint columns:
//!
//! * pricing: one BTRAN (`y = c_Bᵀ B⁻¹`, from the `c_B` the running phase
//!   keeps in basis-position space), then `d = c − Aᵀy` — a sparse dot per
//!   column on the dense inverse, a scatter over a row-wise copy of `A`
//!   restricted to the rows where `y ≠ 0` on the sparse LU (same bits).
//!   Only the columns past the pivot rule's threshold reach it
//!   (`d_j < −COST_TOL`; `sign·α_rj > PIVOT_TOL` for the dual ratio test),
//!   and only their banned / in-basis flags are read;
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
//! 2. reads row `r` of `B⁻¹` (free on the dense inverse, which is stored
//!    row-major; a unit BTRAN on the sparse LU) and forms the pivot row
//!    `α_r = ρᵀA`, as pricing forms `d`,
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
    SPARSE_MIN_ROWS, STALL_LIMIT,
};

/// Basis refactorisation interval, in pivots. The sparse representation
/// also refactorises early when the eta file outgrows the LU factors
/// (fill-bounded refactorisation).
pub(crate) const REFACTOR_EVERY: usize = 128;

/// How [`RevisedSimplex`] represents the basis factorisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisRepr {
    /// Dense row-major `B⁻¹` — the retained, cross-checked oracle path.
    /// A finished daemon tenant keeps it packed
    /// ([`crate::WarmSimplex::pack`]): only the entries whose bits differ
    /// from `+0.0` stay resident, and they unpack bit for bit.
    DenseInverse,
    /// Sparse Markowitz LU with eta updates (`sparse_lu.rs`).
    SparseLu,
    /// [`BasisRepr::SparseLu`] at or above [`SPARSE_MIN_ROWS`]
    /// standard-form rows, [`BasisRepr::DenseInverse`] below. The row count
    /// that matters is the *lowered* one: the paper-shape K=50 plain
    /// relaxation (m ≈ 630) is on the dense side of this switch (its cold
    /// solves pick the sparse LU explicitly, through `solve_auto`), but
    /// its warm variant carries one bound row per pre-materialised α cap
    /// (m ≈ 3 080) and runs sparse.
    Auto,
}

/// Revised simplex solver. Each phase is capped at the size-scaled
/// [`scaled_iteration_cap`] / [`sparse_iteration_cap`] (by the resolved
/// representation), so a pathological or cycling instance surfaces
/// [`LpError::IterationLimit`] instead of spinning forever.
#[derive(Debug, Clone, Copy)]
pub struct RevisedSimplex {
    /// Basis factorisation representation (see [`BasisRepr`]).
    pub basis_repr: BasisRepr,
}

impl Default for RevisedSimplex {
    fn default() -> Self {
        RevisedSimplex {
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
        if self.sparse_for(sf.m) {
            sparse_iteration_cap(sf.m, sf.n_cols)
        } else {
            scaled_iteration_cap(sf.m, sf.n_cols)
        }
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

/// Dense row-major `B⁻¹` — the retained oracle representation. Its
/// Gauss–Jordan refactorisation builds `B` and the new inverse in two
/// transient `m × m` buffers and keeps only the inverse, so a context that
/// refactorised once (every checkpoint barrier schedules one) holds no
/// more than one that never did.
#[derive(Debug)]
struct DenseInv {
    binv: Vec<f64>,
}

clone_in_place!(DenseInv { binv });

/// A resting dense `B⁻¹` ([`Factor::pack`]): one bit per entry, row-major,
/// set where the entry's bits differ from `+0.0`, and those entries in the
/// same order. Every other value (`−0.0` and subnormals included) is kept
/// as it was, so [`PackedInv::unpack`] gives back the inverse bit for bit.
#[derive(Debug)]
struct PackedInv {
    map: Vec<u64>,
    vals: Vec<f64>,
}

clone_in_place!(PackedInv { map, vals });

impl PackedInv {
    fn pack(binv: &[f64]) -> PackedInv {
        let mut map = vec![0u64; binv.len().div_ceil(64)];
        for (i, &v) in binv.iter().enumerate() {
            map[i / 64] |= u64::from(v.to_bits() != 0) << (i % 64);
        }
        let nnz = map.iter().map(|w| w.count_ones() as usize).sum();
        let mut vals = Vec::with_capacity(nnz);
        vals.extend(binv.iter().filter(|v| v.to_bits() != 0));
        PackedInv { map, vals }
    }

    fn unpack(&self, m: usize) -> Vec<f64> {
        let mut binv = vec![0.0f64; m * m];
        let mut vals = self.vals.iter();
        for (&word, chunk) in self.map.iter().zip(binv.chunks_mut(64)) {
            let mut bits = word;
            for &v in vals.by_ref().take(word.count_ones() as usize) {
                chunk[bits.trailing_zeros() as usize] = v;
                bits &= bits - 1;
            }
        }
        binv
    }
}

/// The interchangeable basis-factorisation representations. Exactly one
/// `Repr` lives in each solver context (never in bulk collections), so the
/// size gap between the variants costs nothing. `Packed` is a dense inverse
/// at rest: [`Factor::unpack`] turns it back into `Dense` before anything
/// reads it, and every kernel treats it as unreachable.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Repr {
    Dense(DenseInv),
    Sparse(SparseLu),
    Packed(PackedInv),
}

clone_in_place!(
    enum Repr {
        Dense,
        Sparse,
        Packed,
    }
);

/// What a kernel that met a packed inverse reports: its caller skipped
/// [`Factor::unpack`].
const PACKED: &str = "a packed B⁻¹ must be unpacked before use";

/// An FTRAN result `w = B⁻¹a` in basis-position space, with the positions
/// worth looking at. The sparse LU hands back, ascending, the positions that
/// may hold a non-zero (`val` is zero everywhere else), and everything
/// downstream of a solve — ratio test, eta append, `x_B` step — walks
/// [`Column::rows`] instead of `0..m`. Ascending order is part of the
/// contract: the ratio test's tie window and the eta file's entry order both
/// depend on it. The dense inverse fills `val` outright, so its pattern is
/// every position, written once in [`Column::new`].
#[derive(Debug, Default)]
pub(crate) struct Column {
    pub(crate) val: Vec<f64>,
    /// See [`SparseLu::ftran`] for the `val`/`pat` contract on the sparse LU.
    pat: Vec<u32>,
}

clone_in_place!(Column { val, pat });

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

/// Row-wise (CSR) copy of the standard-form matrix, kept next to the sparse
/// LU so pricing scatters over the rows where the pricing vector is non-zero
/// instead of taking one dot per column.
///
/// Bit-identical to the column-wise dots: every column lists its entries in
/// ascending row order (`standard.rs`), and the scatter walks rows in
/// ascending order, so each `d_j` / `α_rj` sums the same products in the
/// same order. A skipped row has a zero multiplier, so a skipped term could
/// only change the sign of a zero, which no pricing comparison reads.
///
/// A coefficient patch writes an existing entry in place; a removed entry
/// stays behind as an explicit `0.0` (pins zero entries, and must not
/// rebuild the copy), and only a newly inserted entry rebuilds it.
#[derive(Debug)]
struct RowWise {
    /// Row `r`'s entries are `col/val[ptr[r]..ptr[r + 1]]`, ascending column.
    ptr: Vec<u32>,
    col: Vec<u32>,
    val: Vec<f64>,
    /// Output of the last pass (`d` or `α_r`), one entry per column.
    out: Vec<f64>,
    /// Pricing passes run, and the matrix entries they scattered.
    passes: u64,
    scattered: u64,
}

clone_in_place!(RowWise {
    ptr,
    col,
    val,
    out,
    passes,
    scattered,
});

impl RowWise {
    fn new(sf: &StandardForm) -> Self {
        let mut rw = RowWise {
            ptr: Vec::new(),
            col: Vec::new(),
            val: Vec::new(),
            out: vec![0.0; sf.n_cols],
            passes: 0,
            scattered: 0,
        };
        rw.build(sf);
        rw
    }

    fn build(&mut self, sf: &StandardForm) {
        let mut ptr = vec![0u32; sf.m + 1];
        for col in &sf.cols {
            for &(r, _) in col {
                ptr[r + 1] += 1;
            }
        }
        for r in 0..sf.m {
            ptr[r + 1] += ptr[r];
        }
        let nnz = ptr[sf.m] as usize;
        let mut next = ptr.clone();
        self.col.clear();
        self.col.resize(nnz, 0);
        self.val.clear();
        self.val.resize(nnz, 0.0);
        // Ascending `j` fills every row in ascending column order.
        for (j, col) in sf.cols.iter().enumerate() {
            for &(r, a) in col {
                let at = next[r] as usize;
                self.col[at] = j as u32;
                self.val[at] = a;
                next[r] += 1;
            }
        }
        self.ptr = ptr;
    }

    /// Mirrors `A[row, j] = a` once `sf` holds it.
    fn set(&mut self, sf: &StandardForm, row: usize, j: usize, a: f64) {
        let (s, e) = (self.ptr[row] as usize, self.ptr[row + 1] as usize);
        match self.col[s..e].binary_search(&(j as u32)) {
            Ok(at) => self.val[s + at] = a,
            Err(_) if a == 0.0 => {}
            Err(_) => self.build(sf),
        }
    }

    /// Adds `sign·v_r·A[r, j]` to `out[j]` over the rows with `v_r ≠ 0`, in
    /// ascending row order, and returns `out`. (`x + (−v)·a` is `x − v·a`
    /// bit for bit: IEEE negation is exact and `x − p` is `x + (−p)`.)
    fn scatter(&mut self, v: &[f64], sign: f64) -> &[f64] {
        self.passes += 1;
        for (r, &vr) in v.iter().enumerate() {
            if vr == 0.0 {
                continue;
            }
            let vr = sign * vr;
            let (s, e) = (self.ptr[r] as usize, self.ptr[r + 1] as usize);
            self.scattered += (e - s) as u64;
            for (&j, &a) in self.col[s..e].iter().zip(&self.val[s..e]) {
                self.out[j as usize] += vr * a;
            }
        }
        &self.out
    }

    /// `d = c − Aᵀy` over every column.
    fn reduced_costs(&mut self, costs: &[f64], y: &[f64]) -> &[f64] {
        self.out.copy_from_slice(costs);
        self.scatter(y, -1.0)
    }

    /// The dual pivot row `α_r = ρᵀA` over every column.
    fn pivot_row(&mut self, rho: &[f64]) -> &[f64] {
        self.out.iter_mut().for_each(|x| *x = 0.0);
        self.scatter(rho, 1.0)
    }
}

/// Reduced cost `d_j = c_j − y·a_j` of column `j`, by one sparse dot.
fn reduced_cost(sf: &StandardForm, costs: &[f64], y: &[f64], j: usize) -> f64 {
    let mut d = costs[j];
    for &(r, a) in &sf.cols[j] {
        d -= y[r] * a;
    }
    d
}

/// The persistent simplex state: basis, a factorisation of it (dense `B⁻¹`
/// or sparse LU + etas), and basic values.
///
/// Unlike a per-solve tableau this owns no reference to the standard form,
/// so it can outlive a solve and be re-used by the warm-start layer: every
/// method takes the (possibly patched-in-place) `StandardForm` explicitly.
#[derive(Debug)]
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
    /// `c_B` in basis-position space under the costs of the running phase
    /// ([`Factor::load_costs`]): BTRAN's input and the stall check's
    /// weights, kept current by the pivot loops.
    cost_b: Vec<f64>,
    /// Sparse representation only: the row-wise matrix copy pricing runs
    /// on. Boxed, so a dense-inverse factor carries one pointer for it.
    row_wise: Option<Box<RowWise>>,
}

clone_in_place!(Factor {
    m,
    basis,
    in_basis,
    repr,
    xb,
    xb_stale,
    iterations,
    refactor_count,
    pivots_since_refactor,
    refactor_every,
    scratch_y,
    scratch_w,
    scratch_rho,
    cost_b,
    row_wise,
});

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
            Repr::Dense(DenseInv { binv })
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
            cost_b: vec![0.0; m],
            row_wise: sparse.then(|| Box::new(RowWise::new(sf))),
        }
    }

    /// Installs an explicit basis (one column per row) and factorises it.
    /// Fails with [`LpError::SingularBasis`] when the columns are linearly
    /// dependent, and rejects malformed basis vectors.
    pub(crate) fn from_basis(
        sf: &StandardForm,
        cols: &[usize],
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
            refactor_every: REFACTOR_EVERY,
            scratch_y: vec![0.0; sf.m],
            scratch_w: Column::new(sf.m, sparse),
            scratch_rho: vec![0.0; sf.m],
            cost_b: vec![0.0; sf.m],
            row_wise: sparse.then(|| Box::new(RowWise::new(sf))),
        };
        // Repairing factorisation: a snapshot that went (near-)singular
        // after model edits degrades to a partially-restored basis instead
        // of failing outright; the warm repair loop re-optimises from it.
        f.refactor_repair(sf)?;
        Ok(f)
    }

    /// Nonzeros held by the factorisation: `m²` for the dense inverse
    /// (packed or not: the count describes the representation a solve
    /// runs on), LU + eta-file nonzeros for the sparse representation.
    pub(crate) fn factor_nnz(&self) -> usize {
        match &self.repr {
            Repr::Dense(_) | Repr::Packed(_) => self.m * self.m,
            Repr::Sparse(lu) => lu.lu_nnz() + lu.eta_nnz(),
        }
    }

    /// Nonzeros of the basis columns at the last factorisation (dense:
    /// recomputed on demand is unnecessary — the sparse factoriser records
    /// it; dense callers fall back to the current sparse column count).
    pub(crate) fn basis_nnz(&self, sf: &StandardForm) -> usize {
        match &self.repr {
            Repr::Dense(_) | Repr::Packed(_) => sf.basis_nnz(&self.basis),
            Repr::Sparse(lu) => lu.basis_nnz,
        }
    }

    /// How much of the sparse LU the solves walked so far (all zero on the
    /// dense inverse).
    pub(crate) fn solve_counts(&self) -> SolveCounts {
        match &self.repr {
            Repr::Dense(_) | Repr::Packed(_) => SolveCounts::default(),
            Repr::Sparse(lu) => lu.counts,
        }
    }

    /// Puts a dense `B⁻¹` to rest: only its non-zeros stay resident
    /// ([`PackedInv`]) until [`Factor::unpack`]. The sparse LU packs
    /// nothing, and a packed inverse stays as it is.
    pub(crate) fn pack(&mut self) {
        if let Repr::Dense(d) = &self.repr {
            self.repr = Repr::Packed(PackedInv::pack(&d.binv));
        }
    }

    /// Restores the dense `B⁻¹` a [`Factor::pack`] put to rest (a no-op on
    /// any other representation).
    pub(crate) fn unpack(&mut self) {
        if let Repr::Packed(p) = &self.repr {
            self.repr = Repr::Dense(DenseInv {
                binv: p.unpack(self.m),
            });
        }
    }

    /// Loads `c_B` of the current basis under `costs` into position space
    /// (`cost_b[pos] = costs[basis[pos]]`), as a phase does on entry.
    pub(crate) fn load_costs(&mut self, costs: &[f64]) {
        for (cb, &j) in self.cost_b.iter_mut().zip(&self.basis) {
            *cb = costs[j];
        }
    }

    /// `y = c_Bᵀ B⁻¹` under `costs` (loads them first).
    pub(crate) fn btran(&mut self, costs: &[f64], y: &mut [f64]) {
        self.load_costs(costs);
        self.btran_loaded(y);
    }

    /// `y = c_Bᵀ B⁻¹` of the loaded `c_B`.
    fn btran_loaded(&mut self, y: &mut [f64]) {
        match &mut self.repr {
            Repr::Dense(d) => {
                y.iter_mut().for_each(|v| *v = 0.0);
                for (r, &cb) in self.cost_b.iter().enumerate() {
                    if cb != 0.0 {
                        let row = &d.binv[r * self.m..(r + 1) * self.m];
                        for (yi, &bi) in y.iter_mut().zip(row) {
                            *yi += cb * bi;
                        }
                    }
                }
            }
            Repr::Sparse(lu) => lu.btran(&self.cost_b, y),
            Repr::Packed(_) => unreachable!("{PACKED}"),
        }
    }

    /// `ρ = e_posᵀ B⁻¹` — row `pos` of the inverse, indexed by original
    /// standard-form row. The dense representation reads the row straight
    /// off `B⁻¹` (bit-identical to the historical direct access); the
    /// sparse one runs a unit BTRAN.
    pub(crate) fn btran_unit(&mut self, pos: usize, rho: &mut [f64]) {
        match &mut self.repr {
            Repr::Dense(d) => rho.copy_from_slice(&d.binv[pos * self.m..(pos + 1) * self.m]),
            Repr::Sparse(lu) => lu.btran_unit(pos, rho),
            Repr::Packed(_) => unreachable!("{PACKED}"),
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
            Repr::Packed(_) => unreachable!("{PACKED}"),
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
            Repr::Packed(_) => unreachable!("{PACKED}"),
        }
    }

    /// Prices the columns given `y` and hands `(j, d_j)` to `visit`, in
    /// ascending `j` until it returns `false`, for every non-banned
    /// non-basic column with `d_j < −COST_TOL` — the only ones a pricing
    /// rule can pick. The sparse LU prices row-wise ([`RowWise`]) and tests
    /// the flags of the columns past the threshold only; the dense inverse
    /// takes one dot per open column. Both hand out the same bits up to the
    /// sign of zero.
    pub(crate) fn price(
        &mut self,
        sf: &StandardForm,
        costs: &[f64],
        y: &[f64],
        banned: &[bool],
        mut visit: impl FnMut(usize, f64) -> bool,
    ) {
        let in_basis = &self.in_basis;
        match self.row_wise.as_deref_mut() {
            Some(rw) => {
                let d = rw.reduced_costs(costs, y);
                for (j, &dj) in d.iter().enumerate() {
                    if dj < -COST_TOL && !banned[j] && !in_basis[j] && !visit(j, dj) {
                        return;
                    }
                }
            }
            None => {
                for j in (0..sf.n_cols).filter(|&j| !banned[j] && !in_basis[j]) {
                    let dj = reduced_cost(sf, costs, y, j);
                    if dj < -COST_TOL && !visit(j, dj) {
                        return;
                    }
                }
            }
        }
    }

    /// Hands `(j, α_rj)` of the dual pivot row `α_r = ρᵀA` to `visit`, in
    /// ascending `j`, for every non-banned non-basic column with
    /// `sign·α_rj > PIVOT_TOL` — the dual ratio test's candidates (row-wise
    /// on the sparse LU, as [`Factor::price`]).
    fn price_row(
        &mut self,
        sf: &StandardForm,
        rho: &[f64],
        sign: f64,
        banned: &[bool],
        mut visit: impl FnMut(usize, f64),
    ) {
        let in_basis = &self.in_basis;
        match self.row_wise.as_deref_mut() {
            Some(rw) => {
                let alpha = rw.pivot_row(rho);
                for (j, &a_rj) in alpha.iter().enumerate() {
                    if a_rj * sign > PIVOT_TOL && !banned[j] && !in_basis[j] {
                        visit(j, a_rj);
                    }
                }
            }
            None => {
                for j in (0..sf.n_cols).filter(|&j| !banned[j] && !in_basis[j]) {
                    let mut a_rj = 0.0;
                    for &(i, a) in &sf.cols[j] {
                        a_rj += rho[i] * a;
                    }
                    if a_rj * sign > PIVOT_TOL {
                        visit(j, a_rj);
                    }
                }
            }
        }
    }

    /// Mirrors a coefficient patch `A[row, j] = a` (already applied to
    /// `sf`) into the row-wise copy.
    pub(crate) fn patch_coefficient(&mut self, sf: &StandardForm, row: usize, j: usize, a: f64) {
        if let Some(rw) = &mut self.row_wise {
            rw.set(sf, row, j, a);
        }
    }

    /// Row-wise pricing passes run so far and the matrix entries they
    /// scattered (both zero on the dense inverse).
    pub(crate) fn pricing_counts(&self) -> (u64, u64) {
        self.row_wise
            .as_ref()
            .map_or((0, 0), |rw| (rw.passes, rw.scattered))
    }

    /// `c_Bᵀ x_B` under the loaded costs, summed in position order (the
    /// terms and order of the gathered `Σ costs[basis[pos]]·x_B[pos]`).
    pub(crate) fn objective(&self) -> f64 {
        self.cost_b.iter().zip(&self.xb).map(|(&c, &x)| c * x).sum()
    }

    /// Whether any artificial column is basic. The lowering appends the
    /// artificials after every other column, so they are the trailing
    /// `n_artificial`.
    fn artificial_basic(&self, sf: &StandardForm) -> bool {
        self.in_basis[sf.n_cols - sf.n_artificial..]
            .iter()
            .any(|&b| b)
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
            Repr::Packed(_) => unreachable!("{PACKED}"),
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
            Repr::Packed(_) => unreachable!("{PACKED}"),
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
        // Dense B from the sparse basis columns; `inv` becomes `binv`.
        let mut a = vec![0.0f64; m * m];
        let mut inv = vec![0.0f64; m * m];
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
                    _ => return Err(LpError::SingularBasis),
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
        dense.binv = inv;
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
            Repr::Packed(_) => unreachable!("{PACKED}"),
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
            Repr::Packed(_) => unreachable!("{PACKED}"),
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
        y: &mut [f64],
        w: &mut Column,
    ) -> Result<PhaseEnd, LpError> {
        let mut bland = false;
        let mut stall = 0usize;
        self.load_costs(costs);
        let mut last_obj = self.objective();
        let mut iters_this_phase = 0usize;

        loop {
            self.btran_loaded(y);

            // --- entering column: Bland's first negative reduced cost, or
            // Dantzig's most negative one ---
            let mut entering = None;
            let mut best = -COST_TOL;
            self.price(sf, costs, y, banned, |j, d| {
                if d < best {
                    entering = Some(j);
                    if bland {
                        return false;
                    }
                    best = d;
                }
                true
            });
            // `y` is now `c_Bᵀ B⁻¹` of the final basis, which extraction
            // reads when `costs` are the true ones.
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
            self.cost_b[r] = costs[e];
            iters_this_phase += 1;

            if self.due_refactor() {
                self.refactor(sf)?;
            }

            let obj = self.objective();
            if obj < last_obj - 1e-12 {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
                if stall >= STALL_LIMIT {
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
    ///
    /// `b_scale` is `sf.b_scale()`. `scratch_y` must hold `c_Bᵀ B⁻¹` of the
    /// current factorisation under `costs` — in a warm solve, the cost-shift
    /// scan's `y` — and prices the first iteration.
    pub(crate) fn run_dual_phase(
        &mut self,
        sf: &StandardForm,
        costs: &[f64],
        banned: &[bool],
        max_iter: usize,
        b_scale: f64,
    ) -> Result<DualEnd, LpError> {
        let mut y = std::mem::take(&mut self.scratch_y);
        let mut w = std::mem::take(&mut self.scratch_w);
        let mut rho = std::mem::take(&mut self.scratch_rho);
        let tol = FEAS_TOL * b_scale;
        // `y` is current on entry; every later iteration follows a pivot or
        // a refactorisation.
        let mut y_current = true;
        let mut iters_this_phase = 0usize;
        let mut retried_after_refactor = false;
        self.load_costs(costs);

        let end = loop {
            // --- leaving row: the most violated basic value. A negative
            // basic variable violates its lower bound 0; a *positive* basic
            // artificial violates its conceptual upper bound 0 (artificials
            // are fixed at zero outside phase 1) and is driven out the same
            // way, with the ratio test run on the opposite sign. ---
            // Positions are looked up only while some artificial is basic.
            let artificials = self.artificial_basic(sf);
            let mut leaving: Option<(usize, bool)> = None;
            let mut worst = tol;
            for (i, &x) in self.xb.iter().enumerate() {
                let (viol, above) = if x < 0.0 {
                    (-x, false)
                } else if artificials && x > 0.0 && sf.is_artificial[self.basis[i]] {
                    (x, true)
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
            if !y_current {
                self.btran_loaded(&mut y);
            }
            y_current = false;
            self.btran_unit(r, &mut rho);
            let mut entering: Option<(usize, f64)> = None;
            let mut best_ratio = f64::INFINITY;
            self.price_row(sf, &rho, want_sign, banned, |j, a_rj| {
                // Clamp drift: dual feasibility guarantees d ≥ −ε. Only the
                // candidates are priced, column-wise.
                let d = reduced_cost(sf, costs, &y, j).max(0.0);
                let ratio = d / (a_rj * want_sign);
                // Strict improvement with ascending j means ties keep the
                // smallest column index (Bland flavour), which guards
                // against cycling on degenerate (d = 0) pivots.
                if ratio < best_ratio - 1e-12 {
                    best_ratio = ratio;
                    entering = Some((j, a_rj));
                }
            });
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
            self.cost_b[r] = costs[e];
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
    /// (warm starts fall back to a cold solve when this happens). `b_scale`
    /// is `sf.b_scale()`.
    pub(crate) fn artificial_above_zero(&self, sf: &StandardForm, b_scale: f64) -> bool {
        self.artificial_basic(sf)
            && self
                .basis
                .iter()
                .zip(&self.xb)
                .any(|(&j, &x)| sf.is_artificial[j] && x.abs() > FEAS_TOL * b_scale)
    }
}

#[cfg(test)]
impl Factor {
    /// Whether the sparse factor's row-wise copy holds `sf`'s matrix — every
    /// row in strictly ascending column order and, explicit zeros left by
    /// removals aside, entry for entry what a fresh build holds.
    pub(crate) fn row_copy_matches(&self, sf: &StandardForm) -> bool {
        let rw = self
            .row_wise
            .as_ref()
            .expect("a sparse factor keeps a row copy");
        let fresh = RowWise::new(sf);
        (0..sf.m).all(|r| {
            let row = |rw: &RowWise| {
                let (s, e) = (rw.ptr[r] as usize, rw.ptr[r + 1] as usize);
                rw.col[s..e]
                    .iter()
                    .zip(&rw.val[s..e])
                    .map(|(&j, &a)| (j, a.to_bits()))
                    .collect::<Vec<_>>()
            };
            let kept = row(rw);
            kept.windows(2).all(|p| p[0].0 < p[1].0)
                && kept
                    .into_iter()
                    .filter(|&(_, a)| f64::from_bits(a) != 0.0)
                    .eq(row(&fresh))
        })
    }
}

/// Builds the user-facing optimal solution (values, objective, duals) from a
/// factorised optimal basis and its pricing vector `y = c_Bᵀ B⁻¹` under the
/// true costs — the one the final pricing pass already computed.
pub(crate) fn extract_optimal(
    model: &Model,
    sf: &StandardForm,
    factor: &Factor,
    y: &[f64],
) -> Solution {
    let mut std_values = vec![0.0f64; sf.n_structural];
    for (i, &j) in factor.basis.iter().enumerate() {
        if j < sf.n_structural {
            std_values[j] = factor.xb[i].max(0.0);
        }
    }
    let values = sf.recover(&std_values);
    let objective = model.objective_value(&values);
    Solution {
        status: Status::Optimal,
        objective,
        values,
        // Standard-space duals at optimality: y = c_Bᵀ B⁻¹.
        duals: sf.recover_duals(y, model.num_constraints()),
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
        self.solve_refactoring_every(model, sf, REFACTOR_EVERY)
    }

    /// [`RevisedSimplex::solve_standard_keep`] with another refactorisation
    /// interval (tests force refactorisations mid-solve with it).
    pub(crate) fn solve_refactoring_every(
        &self,
        model: &Model,
        sf: &StandardForm,
        refactor_every: usize,
    ) -> Result<(Solution, Option<Factor>), LpError> {
        if sf.m == 0 {
            return Ok((solve_unconstrained(model, sf), None));
        }
        let mut factor = Factor::new(sf, refactor_every, self.sparse_for(sf.m));
        let max_iter = self.iteration_cap(sf);
        let no_ban = vec![false; sf.n_cols];

        // --- Phase 1 ---
        if sf.n_artificial > 0 {
            let costs = sf.phase1_costs();
            match factor.run_phase(sf, &costs, &no_ban, false, max_iter)? {
                PhaseEnd::Optimal => {}
                // Phase-1 objective is bounded below by 0; "unbounded" here
                // means the factorisation broke down.
                PhaseEnd::Unbounded => return Err(LpError::NumericalBreakdown("phase 1")),
            }
            // The phase left its costs loaded.
            if factor.objective() > FEAS_TOL * sf.b_scale() {
                return Ok((Solution::infeasible(factor.iterations), Some(factor)));
            }
        }

        // --- Phase 2 ---
        let end = factor.run_phase(sf, &sf.c, &sf.is_artificial, true, max_iter)?;
        if matches!(end, PhaseEnd::Unbounded) {
            return Ok((Solution::unbounded(factor.iterations), Some(factor)));
        }

        let solution = extract_optimal(model, sf, &factor, &factor.scratch_y);
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

    /// Leaves `c_Bᵀ B⁻¹` of the current basis in `scratch_y`, as the dual
    /// phase expects on entry.
    fn price_basis(factor: &mut Factor, sf: &StandardForm) {
        let mut y = std::mem::take(&mut factor.scratch_y);
        factor.btran(&sf.c, &mut y);
        factor.scratch_y = y;
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
        let sf = StandardForm::from_model(&m).unwrap();
        let s = RevisedSimplex::default()
            .solve_refactoring_every(&m, &sf, 4)
            .unwrap()
            .0;
        assert_eq!(s.status, Status::Optimal);
        m.check_feasible(&s.values, 1e-6).unwrap();
        // Compare against the dense engine.
        let d = crate::DenseSimplex.solve(&m).unwrap();
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
        price_basis(&mut factor, &sf);
        assert!(factor.xb.iter().any(|&v| v < -1e-9), "tightening must bite");
        let cap = solver.iteration_cap(&sf);
        match factor
            .run_dual_phase(&sf, &sf.c, &sf.is_artificial, cap, sf.b_scale())
            .unwrap()
        {
            DualEnd::PrimalFeasible => {}
            DualEnd::Infeasible => panic!("tightened LP is feasible"),
        }
        // Optimal after y ≤ 1: x=4, y=1 → 12 + 5 = 17.
        price_basis(&mut factor, &sf);
        let repaired = extract_optimal(&m, &sf, &factor, &factor.scratch_y);
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
        price_basis(&mut factor, &sf);
        let cap = solver.iteration_cap(&sf);
        assert!(matches!(
            factor
                .run_dual_phase(&sf, &sf.c, &sf.is_artificial, cap, sf.b_scale())
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
            let solver = RevisedSimplex { basis_repr };
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

    /// A packed `B⁻¹` comes back bit for bit, signed zeros and subnormals
    /// included; a packed factor clones (and `clone_from`s over factors of
    /// every representation) to what `clone` gives.
    #[test]
    fn a_packed_inverse_unpacks_bit_for_bit_and_clones_packed() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..9)
            .map(|i| m.add_var(format!("x{i}"), 0.0, 1.0 + i as f64))
            .collect();
        for (i, &v) in vars.iter().enumerate() {
            m.set_objective_coef(v, 1.0 + i as f64);
            m.add_constraint(
                vec![(v, 1.0), (vars[(i + 1) % 9], 2.0)],
                ConstraintOp::Le,
                7.0,
            );
        }
        let sf = StandardForm::from_model(&m).unwrap();
        let mut f = Factor::new(&sf, REFACTOR_EVERY, false);
        let n = f.m * f.m;
        assert!(n > 128, "the map spans several words ({n} entries)");
        // Every third entry an exact zero; then −0.0, the smallest and
        // largest subnormals, ±∞, a NaN payload and ordinary values.
        let specials = [
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            -f64::from_bits(7),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_dead_beef),
            1.5,
            -2.25e-300,
        ];
        let binv: Vec<f64> = (0..n)
            .map(|i| match i % 3 {
                0 => 0.0,
                1 => specials[(i / 3) % specials.len()],
                _ => (i as f64).sqrt() - 7.0,
            })
            .collect();
        let Repr::Dense(d) = &mut f.repr else {
            unreachable!("a dense factor")
        };
        d.binv.clone_from(&binv);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        f.pack();
        let Repr::Packed(p) = &f.repr else {
            unreachable!("packed")
        };
        assert_eq!(p.vals.len(), n - n.div_ceil(3));
        assert_eq!(p.map.len(), n.div_ceil(64));
        f.pack();
        let shown = format!("{f:?}");
        let mut dirty = vec![
            Factor::new(&sf, REFACTOR_EVERY, false),
            Factor::new(&sf, REFACTOR_EVERY, true),
        ];
        let mut other = Factor::new(&sf, REFACTOR_EVERY, false);
        other.pack();
        dirty.push(other);
        for mut to in dirty {
            to.clone_from(&f);
            assert_eq!(format!("{to:?}"), shown);
        }
        let mut cloned = f.clone();
        assert_eq!(format!("{cloned:?}"), shown);
        for g in [&mut f, &mut cloned] {
            g.unpack();
            let Repr::Dense(d) = &g.repr else {
                unreachable!("unpacked")
            };
            assert_eq!(bits(&d.binv), bits(&binv));
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
            };
            let sparse = RevisedSimplex {
                basis_repr: BasisRepr::SparseLu,
            };
            let sf = StandardForm::from_model(&model).unwrap();
            let (sol_d, factor_d) = dense.solve_standard_keep(&model, &sf).unwrap();
            // Refactorise every 8 pivots: forces refactorisations mid-solve.
            let (sol_s, _) = sparse.solve_refactoring_every(&model, &sf, 8).unwrap();
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
                Factor::from_basis(&sf, &factor_d.basis, true).unwrap();
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
                    match f.run_phase(&sf, costs, &sf.is_artificial, true, 1) {
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

    /// A pricing vector over `m` rows from `(kind, value)` draws: exact
    /// `+0.0`, `-0.0`, or the value.
    fn pricing_vector(draws: &[(u8, f64)], m: usize) -> Vec<f64> {
        (0..m)
            .map(|r| match draws[r % draws.len()] {
                (0, _) => 0.0,
                (1, _) => -0.0,
                (_, v) => v,
            })
            .collect()
    }

    /// Holds the row-wise pricing of a sparse factor against the
    /// column-wise dots it replaced, for every column.
    fn check_pricing(
        f: &Factor,
        sf: &StandardForm,
        y: &[f64],
        rho: &[f64],
        at: &str,
    ) -> Result<(), TestCaseError> {
        prop_assert!(f.row_copy_matches(sf), "{at}: row copy out of sync");
        let mut rw = f
            .row_wise
            .clone()
            .expect("a sparse factor keeps a row copy");
        let d = rw.reduced_costs(&sf.c, y).to_vec();
        let alpha = rw.pivot_row(rho);
        for j in 0..sf.n_cols {
            let want_d = reduced_cost(sf, &sf.c, y, j);
            let mut want_a = 0.0;
            for &(i, a) in &sf.cols[j] {
                want_a += rho[i] * a;
            }
            prop_assert!(
                same_bits(d[j], want_d),
                "{at}: d[{j}] {:e} vs column-wise {:e}",
                d[j],
                want_d
            );
            prop_assert!(
                same_bits(alpha[j], want_a),
                "{at}: alpha[{j}] {:e} vs column-wise {:e}",
                alpha[j],
                want_a
            );
        }
        Ok(())
    }

    /// Holds threshold pricing and `price_row` of `f` and of a dense-inverse
    /// factor on its basis against the full visit they replaced — every
    /// open column's column-wise `d_j` / `α_rj`, filtered by the pricing
    /// rule's threshold afterwards: the same columns, in the same order,
    /// with the same bits, under the solver's ban mask (artificials) and one
    /// that bans every odd column, and under both row signs; and a
    /// visit that stops at once sees the first of them.
    fn check_threshold_visits(
        f: &Factor,
        sf: &StandardForm,
        y: &[f64],
        rho: &[f64],
        at: &str,
    ) -> Result<(), TestCaseError> {
        let dense = Factor::from_basis(sf, &f.basis, false).unwrap();
        let odd: Vec<bool> = (0..sf.n_cols).map(|j| j % 2 == 1).collect();
        for mut g in [f.clone(), dense] {
            let repr = if g.row_wise.is_some() {
                "sparse"
            } else {
                "dense"
            };
            for banned in [&sf.is_artificial, &odd] {
                let open: Vec<usize> = (0..sf.n_cols)
                    .filter(|&j| !banned[j] && !g.in_basis[j])
                    .collect();
                let want: Vec<(usize, u64)> = open
                    .iter()
                    .map(|&j| (j, reduced_cost(sf, &sf.c, y, j)))
                    .filter(|&(_, d)| d < -COST_TOL)
                    .map(|(j, d)| (j, d.to_bits()))
                    .collect();
                let mut got = Vec::new();
                g.price(sf, &sf.c, y, banned, |j, d| {
                    got.push((j, d.to_bits()));
                    true
                });
                prop_assert_eq!(&got, &want, "{} {}: pricing visits", at, repr);
                let mut first = None;
                g.price(sf, &sf.c, y, banned, |j, d| {
                    first = Some((j, d.to_bits()));
                    false
                });
                prop_assert_eq!(first, want.first().copied(), "{} {}: first", at, repr);

                for sign in [1.0, -1.0] {
                    let want: Vec<(usize, u64)> = open
                        .iter()
                        .map(|&j| {
                            let mut a_rj = 0.0;
                            for &(i, a) in &sf.cols[j] {
                                a_rj += rho[i] * a;
                            }
                            (j, a_rj)
                        })
                        .filter(|&(_, a)| a * sign > PIVOT_TOL)
                        .map(|(j, a)| (j, a.to_bits()))
                        .collect();
                    let mut got = Vec::new();
                    g.price_row(sf, rho, sign, banned, |j, a| got.push((j, a.to_bits())));
                    prop_assert_eq!(&got, &want, "{} {}: pivot row, sign {}", at, repr, sign);
                }
            }
        }
        Ok(())
    }

    /// After an optimal solve the factor's BTRAN scratch holds the pricing
    /// vector extraction reused; it must be a fresh BTRAN of the true costs
    /// on the final factor, bit for bit. So must the BTRAN of costs moved
    /// on non-basic columns only, which the dual phase's first iteration
    /// reuses in its place.
    fn check_reused_y(f: &Factor, sf: &StandardForm, at: &str) -> Result<(), TestCaseError> {
        let mut g = f.clone();
        let mut fresh = vec![0.0; sf.m];
        g.btran(&sf.c, &mut fresh);
        for (r, (&kept, &want)) in f.scratch_y.iter().zip(&fresh).enumerate() {
            prop_assert!(
                kept.to_bits() == want.to_bits(),
                "{at}: reused y[{r}] {kept:e} vs fresh {want:e}"
            );
        }
        let moved: Vec<f64> = (0..sf.n_cols)
            .map(|j| {
                if f.in_basis[j] {
                    sf.c[j]
                } else {
                    sf.c[j] + 0.5 + j as f64
                }
            })
            .collect();
        let mut shifted = vec![0.0; sf.m];
        g.btran(&moved, &mut shifted);
        prop_assert!(
            shifted
                .iter()
                .zip(&fresh)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{at}: c_B alone must fix y"
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Pricing oracle: on a warm sparse context, the row-wise `d` and
        /// `α_r` equal the column-wise reduced costs and dots bit for bit
        /// (up to the sign of zero) for pricing vectors with exact `±0.0`
        /// entries, after every coefficient patch of random bursts that zero
        /// entries, re-set them and insert new ones; the threshold visits of
        /// both representations are the full visits, filtered; and every
        /// reused `y` is a fresh BTRAN.
        #[test]
        fn row_wise_pricing_matches_the_column_dots(
            model in random_block_lp(),
            y_draws in proptest::collection::vec((0u8..4, -3.0f64..3.0), 1..40),
            rho_draws in proptest::collection::vec((0u8..4, -3.0f64..3.0), 1..40),
            bursts in proptest::collection::vec(
                proptest::collection::vec((0usize..64, 0usize..64, 0u8..3, 0.2f64..3.0), 1..8),
                1..4,
            ),
        ) {
            let sparse = RevisedSimplex {
                basis_repr: BasisRepr::SparseLu,
            };
            let (n_cons, n_vars) = (model.num_constraints(), model.num_vars());
            let mut warm = crate::warm::WarmSimplex::new(model, sparse).unwrap();
            let sol = warm.solve().unwrap();
            let mut steps = 0;
            for (b, burst) in bursts.iter().enumerate() {
                let (sf, f) = warm.parts();
                let f = f.expect("a solve leaves a factor");
                if sol.status == Status::Optimal {
                    check_reused_y(f, sf, &format!("before burst {b}"))?;
                }
                for &(ci, vi, kind, v) in burst {
                    let con = crate::ConstraintId::from_index(ci % n_cons);
                    let var = crate::VarId::from_index(vi % n_vars);
                    // Zero an entry, or re-weight / re-set / insert one.
                    let coef = if kind == 0 { 0.0 } else { v };
                    warm.set_coefficient(con, var, coef).unwrap();
                    steps += 1;
                    let (sf, f) = warm.parts();
                    let f = f.expect("patches keep the factor");
                    let y = pricing_vector(&y_draws, sf.m);
                    let rho = pricing_vector(&rho_draws, sf.m);
                    check_pricing(f, sf, &y, &rho, &format!("patch {steps}"))?;
                    check_threshold_visits(f, sf, &y, &rho, &format!("patch {steps}"))?;
                }
                let sol = warm.solve().unwrap();
                prop_assert_eq!(sol.status, Status::Optimal, "x = 0 stays feasible");
                let (sf, f) = warm.parts();
                check_reused_y(f.unwrap(), sf, &format!("after burst {b}"))?;
            }
        }
    }

    /// Holds the loaded position-space `c_B` against `costs[basis[pos]]`,
    /// and its objective against the gathered sum, bit for bit.
    fn check_cost_b(f: &Factor, costs: &[f64], at: &str) -> Result<(), TestCaseError> {
        for (pos, (&cb, &j)) in f.cost_b.iter().zip(&f.basis).enumerate() {
            prop_assert!(
                cb.to_bits() == costs[j].to_bits(),
                "{at}: c_B[{pos}] {cb:e} vs costs[{j}] {:e}",
                costs[j]
            );
        }
        let gathered: f64 = f.basis.iter().zip(&f.xb).map(|(&j, &x)| costs[j] * x).sum();
        prop_assert!(
            f.objective().to_bits() == gathered.to_bits(),
            "{at}: objective {:e} vs gathered {gathered:e}",
            f.objective()
        );
        Ok(())
    }

    /// Runs one-pivot calls of `phase` until it ends, checking `c_B` under
    /// `costs` after each (pivot, refactorisation or end alike).
    fn step_phase(
        f: &mut Factor,
        costs: &[f64],
        at: &str,
        mut phase: impl FnMut(&mut Factor) -> Result<(), LpError>,
    ) -> Result<(), TestCaseError> {
        for pivot in 0.. {
            let end = phase(f);
            check_cost_b(f, costs, &format!("{at} pivot {pivot}"))?;
            if !matches!(end, Err(LpError::IterationLimit { .. })) {
                return Ok(());
            }
            prop_assert!(pivot < 500, "{at}: the phase did not terminate");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Position-space `c_B` on both representations, refactorising
        /// every 3 pivots: after every pivot of primal phases to the
        /// optimum, back out under the negated objective and back again;
        /// after every pivot of a dual phase repairing a tightened right-hand
        /// side; and on the first pivot after a repairing refactorisation
        /// that substitutes a dependent column.
        #[test]
        fn position_space_costs_track_the_basis(
            model in random_block_lp(),
            row in 0usize..64,
            shrink in 0.0f64..0.9,
        ) {
            let sf = StandardForm::from_model(&model).unwrap();
            let negated: Vec<f64> = sf.c.iter().map(|c| -c).collect();
            let mut tight = sf.clone();
            tight.b[row % sf.m] *= shrink;
            for sparse in [false, true] {
                let mut f = Factor::new(&sf, 3, sparse);
                for (i, costs) in [&sf.c, &negated, &sf.c].into_iter().enumerate() {
                    step_phase(&mut f, costs, &format!("sparse {sparse} primal {i}"), |f| {
                        f.run_phase(&sf, costs, &sf.is_artificial, true, 1).map(|_| ())
                    })?;
                }

                f.refactor(&tight).unwrap();
                step_phase(&mut f, &tight.c, &format!("sparse {sparse} dual"), |f| {
                    // A one-pivot call leaves `y` stale: price the basis.
                    let mut y = std::mem::take(&mut f.scratch_y);
                    f.btran(&tight.c, &mut y);
                    f.scratch_y = y;
                    let b_scale = tight.b_scale();
                    f.run_dual_phase(&tight, &tight.c, &tight.is_artificial, 1, b_scale)
                        .map(|_| ())
                })?;

                let structural: Vec<usize> =
                    (0..sf.m).filter(|&p| f.basis[p] < sf.n_structural).collect();
                if let [p, q, ..] = structural[..] {
                    let mut patched = tight.clone();
                    patched.cols[f.basis[q]] = patched.cols[f.basis[p]].clone();
                    let replaced = f.refactor_repair(&patched).unwrap();
                    prop_assert!(replaced >= 1, "a duplicated column must be replaced");
                    let _ = f.run_phase(&patched, &patched.c, &patched.is_artificial, true, 1);
                    check_cost_b(&f, &patched.c, &format!("sparse {sparse} repaired"))?;
                }
            }
        }
    }
}
