//! Sparse LU basis factorisation with Markowitz pivoting and an eta file.
//!
//! The paper's steady-state formulation is overwhelmingly block-structured:
//! per-cluster α/β columns couple only through a handful of backbone rows
//! (Eq. 7b–7d) and the MAXMIN objective column, so the basis matrices the
//! revised simplex factorises are extremely sparse — a dense `m × m` B⁻¹
//! is O(m²) memory and O(m²) per pivot where O(nnz) suffices. This module
//! provides the sparse counterpart of the dense inverse kept by
//! [`crate::revised_simplex::Factor`]:
//!
//! * **Factorisation**: right-looking Gaussian elimination with
//!   **Markowitz pivoting** — each step picks the pivot minimising the
//!   fill bound `(row_count − 1)·(col_count − 1)` among entries passing a
//!   threshold-partial-pivoting test (`|a| ≥ 0.1·max|column|`), searched
//!   over a small number of lowest-count columns (bucket lists with lazy
//!   invalidation). Ties prefer the larger pivot magnitude.
//! * **FTRAN/BTRAN**: forward/backward solves through the sparse `L̃Ũ`
//!   factors plus the eta file. A factor of these bases is almost diagonal
//!   and an entering column's `w = B⁻¹a` has tens of non-zeros out of
//!   thousands of positions, so the sparse-input [`SparseLu::ftran`] is
//!   *pattern-carrying*: every factorisation also builds a symbolic index
//!   (row → step, `Ũ`'s pattern transposed, the steps with multipliers),
//!   the solve visits only the steps reachable from the right-hand side's
//!   non-zeros, and it returns the ascending positions of `w` so the
//!   caller's ratio test, eta append and `x_B` step walk those instead of
//!   `0..m`. [`SparseLu::btran`] takes a dense input (`c_B`) and stays a
//!   sweep that skips zero entries; [`SparseLu::ftran_dense`] (`B⁻¹b`) is
//!   the plain sweep. All three produce the floats of the plain sweeps up
//!   to the sign of zero (see [`SparseLu::ftran`]), which the tests hold
//!   them to bit for bit.
//! * **Eta updates**: basis exchanges and the warm layer's single-entry
//!   column patches append *eta* matrices (identity with one replaced
//!   column) instead of touching the factors — the product-form update
//!   that replaces the dense engine's O(m²) elementary row transform and
//!   Sherman–Morrison repair with an O(nnz(w)) append.
//! * **Fill-bounded refactorisation**: when the eta file outgrows the LU
//!   factors ([`SparseLu::fill_exceeded`]), the owner refactorises from
//!   scratch, which both bounds solve cost and squashes accumulated error
//!   (same role as the dense engine's periodic Gauss–Jordan rebuild).
//!
//! Representation: after elimination `(E_{m−1}⋯E_0)B = Ũ`, so
//! `B = L̃Ũ` with `L̃ = E_0⁻¹⋯E_{m−1}⁻¹` stored as the per-step multiplier
//! lists, and the *current* basis is `B·E₁⋯E_q` with the etas in basis
//! position space. Row indices are original standard-form rows; column
//! indices are basis positions throughout.

use crate::error::LpError;
use crate::standard::StandardForm;
use std::collections::BinaryHeap;

/// Dependent-column threshold, matching the dense Gauss–Jordan rebuild.
const SINGULAR_TOL: f64 = 1e-12;
/// Threshold partial pivoting: admit entries within this factor of the
/// column's largest magnitude (numerical stability vs. fill trade-off).
const REL_PIVOT: f64 = 0.1;
/// Number of candidate columns examined per Markowitz step.
const SEARCH_COLS: usize = 8;

/// How much of the factor the solves walked: "rows visited per FTRAN" next
/// to `m` says whether a solve followed the non-zeros or swept the factor.
/// Plain additive counts — deterministic, no clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SolveCounts {
    /// Sparse-input [`SparseLu::ftran`] calls.
    pub(crate) ftrans: u64,
    /// `Ũ` rows those calls back-substituted through (a sweep visits `m`
    /// per call).
    pub(crate) ftran_u_rows: u64,
    /// [`SparseLu::btran`] calls.
    pub(crate) btrans: u64,
    /// Non-zero entries of `z` those calls divided and scattered.
    pub(crate) btran_nz_rows: u64,
}

/// Sparse LU factors + eta file for one basis, with reusable work storage.
#[derive(Debug, Default)]
pub(crate) struct SparseLu {
    m: usize,
    /// Pivot sequence: original row / basis position per elimination step.
    piv_row: Vec<u32>,
    piv_pos: Vec<u32>,
    /// Pivot values (the diagonal of `Ũ` in pivot order).
    u_piv: Vec<f64>,
    /// Off-pivot entries of each frozen pivot row, keyed by basis position.
    u_ptr: Vec<u32>,
    u_pos: Vec<u32>,
    u_val: Vec<f64>,
    /// Per-step elimination multipliers: `(row, multiplier)` lists.
    l_ptr: Vec<u32>,
    l_row: Vec<u32>,
    l_val: Vec<f64>,
    /// Eta file: basis position, pivot value, off-pivot entries.
    eta_r: Vec<u32>,
    eta_piv: Vec<f64>,
    eta_ptr: Vec<u32>,
    eta_idx: Vec<u32>,
    eta_val: Vec<f64>,
    /// Symbolic index of the factors, rebuilt by every factorisation so the
    /// solves can follow the non-zeros: elimination step of each original
    /// row (the inverse of `piv_row`), …
    row_step: Vec<u32>,
    /// … the pattern of `Ũ` transposed — per basis position, the steps
    /// whose frozen row holds an off-pivot entry there (all earlier than the
    /// position's own step) — …
    ut_ptr: Vec<u32>,
    ut_step: Vec<u32>,
    /// … and the steps with at least one multiplier, ascending.
    l_steps: Vec<u32>,
    /// Nonzeros of the basis columns at the last factorisation.
    pub(crate) basis_nnz: usize,
    /// Solve counters over this factor's lifetime (see [`SolveCounts`]).
    pub(crate) counts: SolveCounts,
    /// Row-space scratch for FTRAN right-hand sides: all-zero between
    /// calls, so a sparse solve only pays for the rows it touches.
    scr_row: Vec<f64>,
    /// Position-space scratch for BTRAN inputs.
    scr_pos: Vec<f64>,
    /// Rows of `scr_row` written by the running FTRAN (duplicates allowed).
    touched: Vec<u32>,
    /// Steps waiting in the running FTRAN's back-substitution, largest
    /// first; `queued[pos]` marks the positions already in its pattern.
    reach: BinaryHeap<u32>,
    queued: Vec<bool>,
    /// Reusable active-submatrix rows (cleared between factorisations; kept
    /// for their capacity only, so clones stay cheap).
    work_rows: Vec<Vec<(u32, f64)>>,
    /// Reusable column row-lists (pattern only, lazily invalidated).
    work_cols: Vec<Vec<u32>>,
}

clone_in_place!(SparseLu {
    m,
    piv_row,
    piv_pos,
    u_piv,
    u_ptr,
    u_pos,
    u_val,
    l_ptr,
    l_row,
    l_val,
    eta_r,
    eta_piv,
    eta_ptr,
    eta_idx,
    eta_val,
    row_step,
    ut_ptr,
    ut_step,
    l_steps,
    basis_nnz,
    counts,
    scr_row,
    scr_pos,
    touched,
    reach,
    queued,
    work_rows,
    work_cols,
});

impl SparseLu {
    /// The identity factorisation of the all-{slack, artificial} basis
    /// (`B = I`): trivial pivots, no multipliers, no etas.
    pub(crate) fn identity(m: usize) -> Self {
        let mut lu = SparseLu {
            m,
            scr_row: vec![0.0; m],
            scr_pos: vec![0.0; m],
            queued: vec![false; m],
            ..SparseLu::default()
        };
        lu.piv_row = (0..m as u32).collect();
        lu.piv_pos = (0..m as u32).collect();
        lu.u_piv = vec![1.0; m];
        lu.u_ptr = vec![0; m + 1];
        lu.l_ptr = vec![0; m + 1];
        lu.eta_ptr = vec![0];
        lu.basis_nnz = m;
        lu.build_index();
        lu
    }

    /// Rebuilds the symbolic index from the factors just computed.
    fn build_index(&mut self) {
        let m = self.m;
        self.row_step.clear();
        self.row_step.resize(m, 0);
        self.l_steps.clear();
        for t in 0..m {
            self.row_step[self.piv_row[t] as usize] = t as u32;
            if self.l_ptr[t + 1] > self.l_ptr[t] {
                self.l_steps.push(t as u32);
            }
        }
        // Counting sort of the off-pivot entries by basis position.
        self.ut_ptr.clear();
        self.ut_ptr.resize(m + 1, 0);
        for &pos in &self.u_pos {
            self.ut_ptr[pos as usize + 1] += 1;
        }
        for pos in 0..m {
            self.ut_ptr[pos + 1] += self.ut_ptr[pos];
        }
        self.ut_step.clear();
        self.ut_step.resize(self.u_pos.len(), 0);
        let mut next = self.ut_ptr.clone();
        for t in 0..m {
            for i in self.u_ptr[t] as usize..self.u_ptr[t + 1] as usize {
                let slot = &mut next[self.u_pos[i] as usize];
                self.ut_step[*slot as usize] = t as u32;
                *slot += 1;
            }
        }
    }

    /// Nonzeros in the LU factors (pivots + off-pivot U + L multipliers).
    pub(crate) fn lu_nnz(&self) -> usize {
        self.u_piv.len() + self.u_pos.len() + self.l_row.len()
    }

    /// Nonzeros in the eta file.
    pub(crate) fn eta_nnz(&self) -> usize {
        self.eta_piv.len() + self.eta_idx.len()
    }

    /// `true` when the eta file dominates the factors — time to
    /// refactorise even if the pivot-count interval has not elapsed.
    pub(crate) fn fill_exceeded(&self) -> bool {
        self.eta_nnz() > 8 * (self.lu_nnz() + self.m)
    }

    /// Factorises the basis given by `basis` (one standard-form column per
    /// position) with Markowitz pivoting, resetting the eta file.
    ///
    /// With `repair`, a dependent basis column is replaced by the initial
    /// (slack/artificial) column of a not-yet-pivoted row — elimination
    /// only ever subtracts *pivot* rows, and an unpivoted row `q` is never
    /// one, so the partially-eliminated replacement column is exactly the
    /// unit column `e_q` and elimination continues without any re-work.
    /// Returns the number of replaced columns; without `repair` a
    /// dependent column is [`LpError::SingularBasis`].
    pub(crate) fn factorise(
        &mut self,
        sf: &StandardForm,
        basis: &mut [usize],
        in_basis: &mut [bool],
        repair: bool,
    ) -> Result<usize, LpError> {
        let m = self.m;
        debug_assert_eq!(basis.len(), m);
        self.piv_row.clear();
        self.piv_pos.clear();
        self.u_piv.clear();
        self.u_ptr.clear();
        self.u_ptr.push(0);
        self.u_pos.clear();
        self.u_val.clear();
        self.l_ptr.clear();
        self.l_ptr.push(0);
        self.l_row.clear();
        self.l_val.clear();
        self.clear_etas();

        // Active submatrix: rows of B keyed by basis position, plus a
        // per-position row list (pattern only — entries go stale when an
        // update removes them; consumers re-validate against `rows`).
        let mut rows = std::mem::take(&mut self.work_rows);
        rows.resize_with(m, Vec::new);
        let mut col_rows = std::mem::take(&mut self.work_cols);
        col_rows.resize_with(m, Vec::new);
        for r in &mut rows {
            r.clear();
        }
        for c in &mut col_rows {
            c.clear();
        }
        let mut basis_nnz = 0usize;
        for (pos, &j) in basis.iter().enumerate() {
            for &(r, v) in &sf.cols[j] {
                rows[r].push((pos as u32, v));
                col_rows[pos].push(r as u32);
                basis_nnz += 1;
            }
        }
        self.basis_nnz = basis_nnz;

        let mut row_count: Vec<u32> = rows.iter().map(|r| r.len() as u32).collect();
        let mut col_count: Vec<u32> = col_rows.iter().map(|c| c.len() as u32).collect();
        let mut row_active = vec![true; m];
        let mut col_active = vec![true; m];

        // Columns bucketed by their current count. A column is re-pushed
        // whenever its count changes; stale entries are dropped on scan.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); m + 1];
        for pos in 0..m {
            buckets[col_count[pos] as usize].push(pos as u32);
        }

        // Sparse accumulator for row updates, epoch-marked per use.
        let mut spa = vec![0.0f64; m];
        let mut spa_mark = vec![0u64; m];
        let mut epoch = 0u64;
        let mut touched: Vec<u32> = Vec::new();
        let mut col_entries: Vec<(u32, f64)> = Vec::new();

        let mut replaced = 0usize;

        for _step in 0..m {
            // ---- Markowitz pivot selection ----------------------------
            // (row, pos, value, markowitz cost)
            let mut best: Option<(usize, usize, f64, u64)> = None;
            let mut seen = 0usize;
            let mut dependent: Option<usize> = None;
            'select: for (count, bucket) in buckets.iter_mut().enumerate() {
                let mut i = 0;
                while i < bucket.len() {
                    let pos = bucket[i] as usize;
                    if !col_active[pos] || col_count[pos] as usize != count {
                        bucket.swap_remove(i);
                        continue;
                    }
                    i += 1;
                    col_entries.clear();
                    let mut col_max = 0.0f64;
                    for &r32 in &col_rows[pos] {
                        let r = r32 as usize;
                        if !row_active[r] {
                            continue;
                        }
                        if let Some(&(_, v)) = rows[r].iter().find(|&&(p, _)| p as usize == pos) {
                            col_entries.push((r32, v));
                            col_max = col_max.max(v.abs());
                        }
                    }
                    if col_max < SINGULAR_TOL {
                        dependent = Some(pos);
                        break 'select;
                    }
                    let admit = REL_PIVOT * col_max;
                    for &(r32, v) in &col_entries {
                        if v.abs() >= admit {
                            let r = r32 as usize;
                            let cost = (row_count[r] as u64 - 1) * (col_count[pos] as u64 - 1);
                            let better = match best {
                                None => true,
                                Some((_, _, bv, bc)) => {
                                    cost < bc || (cost == bc && v.abs() > bv.abs())
                                }
                            };
                            if better {
                                best = Some((r, pos, v, cost));
                            }
                        }
                    }
                    seen += 1;
                    if seen >= SEARCH_COLS {
                        break 'select;
                    }
                }
            }

            let (pr, pc, pval) = if let Some(pc) = dependent {
                if !repair {
                    self.work_rows = rows;
                    self.work_cols = col_rows;
                    return Err(LpError::SingularBasis);
                }
                // Replace the dependent column by `e_q` of an unpivoted
                // row whose initial column is nonbasic.
                let q = (0..m)
                    .find(|&q| row_active[q] && !in_basis[sf.initial_basis[q]])
                    .ok_or(LpError::SingularBasis);
                let q = match q {
                    Ok(q) => q,
                    Err(e) => {
                        self.work_rows = rows;
                        self.work_cols = col_rows;
                        return Err(e);
                    }
                };
                // Drop the defunct column's numerically-nil residue — both
                // the active rows *and* the already-frozen pivot rows of U:
                // the replacement `e_q` is zero in every pivot row (q is
                // unpivoted), so the old column's frozen entries at this
                // position would corrupt back-substitution.
                for (ui, &pos32) in self.u_pos.iter().enumerate() {
                    if pos32 as usize == pc {
                        self.u_val[ui] = 0.0;
                    }
                }
                let stale = std::mem::take(&mut col_rows[pc]);
                for &r32 in &stale {
                    let r = r32 as usize;
                    if !row_active[r] {
                        continue;
                    }
                    if let Some(idx) = rows[r].iter().position(|&(p, _)| p as usize == pc) {
                        rows[r].swap_remove(idx);
                        row_count[r] = rows[r].len() as u32;
                    }
                }
                col_rows[pc] = stale;
                col_rows[pc].clear();
                in_basis[basis[pc]] = false;
                let repl = sf.initial_basis[q];
                in_basis[repl] = true;
                basis[pc] = repl;
                replaced += 1;
                rows[q].push((pc as u32, 1.0));
                col_rows[pc].push(q as u32);
                col_count[pc] = 1;
                row_count[q] += 1;
                (q, pc, 1.0)
            } else {
                match best {
                    Some((pr, pc, pval, _)) => (pr, pc, pval),
                    // Unreachable while active columns remain; fail loudly
                    // rather than loop if the invariant is ever broken.
                    None => {
                        self.work_rows = rows;
                        self.work_cols = col_rows;
                        return Err(LpError::NumericalBreakdown("markowitz pivot search"));
                    }
                }
            };

            // ---- Freeze the pivot row into U --------------------------
            self.piv_row.push(pr as u32);
            self.piv_pos.push(pc as u32);
            self.u_piv.push(pval);
            let prow = std::mem::take(&mut rows[pr]);
            let u_start = self.u_pos.len();
            for &(pos32, v) in &prow {
                let pos = pos32 as usize;
                if pos == pc {
                    continue;
                }
                self.u_pos.push(pos32);
                self.u_val.push(v);
                col_count[pos] -= 1;
                buckets[col_count[pos] as usize].push(pos32);
            }
            let u_end = self.u_pos.len();
            self.u_ptr.push(u_end as u32);
            rows[pr] = prow;
            row_active[pr] = false;
            col_active[pc] = false;

            // ---- Eliminate the pivot column from the other rows -------
            let piv_col = std::mem::take(&mut col_rows[pc]);
            for &r32 in &piv_col {
                let r = r32 as usize;
                if !row_active[r] {
                    continue;
                }
                let Some(idx) = rows[r].iter().position(|&(p, _)| p as usize == pc) else {
                    continue; // stale pattern entry
                };
                let a = rows[r].swap_remove(idx).1;
                let mult = a / pval;
                self.l_row.push(r32);
                self.l_val.push(mult);
                if mult == 0.0 {
                    row_count[r] = rows[r].len() as u32;
                    continue;
                }
                // rows[r] −= mult · (off-pivot part of the pivot row),
                // scatter/gather through the epoch-marked accumulator.
                epoch += 1;
                touched.clear();
                for &(pos32, v) in &rows[r] {
                    let pos = pos32 as usize;
                    spa[pos] = v;
                    spa_mark[pos] = epoch;
                    touched.push(pos32);
                }
                for ui in u_start..u_end {
                    let pos = self.u_pos[ui] as usize;
                    let uv = self.u_val[ui];
                    if spa_mark[pos] == epoch {
                        spa[pos] -= mult * uv;
                    } else {
                        spa_mark[pos] = epoch;
                        spa[pos] = -mult * uv;
                        touched.push(pos as u32);
                        col_rows[pos].push(r32);
                        col_count[pos] += 1;
                        buckets[col_count[pos] as usize].push(pos as u32);
                    }
                }
                rows[r].clear();
                for &pos32 in &touched {
                    let pos = pos32 as usize;
                    let v = spa[pos];
                    if v == 0.0 {
                        // Exact cancellation: the entry disappears.
                        col_count[pos] -= 1;
                        buckets[col_count[pos] as usize].push(pos32);
                    } else {
                        rows[r].push((pos32, v));
                    }
                }
                row_count[r] = rows[r].len() as u32;
            }
            self.l_ptr.push(self.l_row.len() as u32);
            col_rows[pc] = piv_col;
            col_rows[pc].clear();
        }

        // Return the work storage emptied: the next factorisation refills
        // it, and probe-clones of the factor stay cheap.
        for r in &mut rows {
            r.clear();
        }
        for c in &mut col_rows {
            c.clear();
        }
        self.work_rows = rows;
        self.work_cols = col_rows;
        self.build_index();
        Ok(replaced)
    }

    fn clear_etas(&mut self) {
        self.eta_r.clear();
        self.eta_piv.clear();
        self.eta_ptr.clear();
        self.eta_ptr.push(0);
        self.eta_idx.clear();
        self.eta_val.clear();
    }

    /// Appends the product-form update for a basis whose column at
    /// position `r` was replaced by `w` (position space, non-zero only
    /// inside the ascending pattern `pat`): pivot `w[r]`, off-pivot entries
    /// above `drop_tol` in magnitude (the same drop the dense engine applies
    /// to its elementary row transform), in ascending position order.
    pub(crate) fn append_eta(&mut self, r: usize, piv: f64, w: &[f64], pat: &[u32], drop_tol: f64) {
        self.eta_r.push(r as u32);
        self.eta_piv.push(piv);
        for &i in pat {
            let v = w[i as usize];
            if i as usize != r && v.abs() > drop_tol {
                self.eta_idx.push(i);
                self.eta_val.push(v);
            }
        }
        self.eta_ptr.push(self.eta_idx.len() as u32);
    }

    /// FTRAN: `w = B⁻¹ a` for a sparse row-space input, result in basis
    /// position space, at a cost that follows the non-zeros instead of `m`.
    ///
    /// `w` must be zero outside `pat` on entry (a zeroed buffer with an
    /// empty `pat`, or the untouched pair a previous call returned). On
    /// return `pat` lists, ascending, every position that may hold a
    /// non-zero and `w` is zero elsewhere.
    ///
    /// `L̃⁻¹` runs over the steps that have multipliers; the `Ũ`
    /// back-substitution visits only the *reach* of the non-zero residual
    /// rows — a row is queued when its residual is non-zero or when a
    /// position its frozen row refers to turned non-zero — in descending
    /// step order, so every operand is final when it is read; then the eta
    /// inverses apply in file order. A visited row evaluates exactly the
    /// terms, in exactly the order, of the dense sweep [`Self::ftran_dense`]
    /// still is; a row the sweep would visit and the reach skips has a zero
    /// residual and only zero operands, so the sweep would have written
    /// `±0 / pivot` there. The two agree bit for bit up to the sign of zero.
    pub(crate) fn ftran(&mut self, entries: &[(usize, f64)], w: &mut [f64], pat: &mut Vec<u32>) {
        for &i in pat.iter() {
            w[i as usize] = 0.0;
        }
        pat.clear();
        let v = &mut self.scr_row;
        let touched = &mut self.touched;
        for &(r, a) in entries {
            v[r] += a;
            touched.push(r as u32);
        }
        // L̃⁻¹: apply the elimination steps in order.
        for &t in &self.l_steps {
            let t = t as usize;
            let va = v[self.piv_row[t] as usize];
            if va != 0.0 {
                let (s, e) = (self.l_ptr[t] as usize, self.l_ptr[t + 1] as usize);
                for i in s..e {
                    v[self.l_row[i] as usize] -= self.l_val[i] * va;
                    touched.push(self.l_row[i]);
                }
            }
        }
        // Ũ⁻¹ over the reach. Off-pivot positions of step t were pivoted
        // later, so a position turning non-zero only queues earlier steps.
        for &r in touched.iter() {
            if v[r as usize] != 0.0 {
                let t = self.row_step[r as usize];
                let pos = self.piv_pos[t as usize] as usize;
                if !self.queued[pos] {
                    self.queued[pos] = true;
                    self.reach.push(t);
                }
            }
        }
        self.counts.ftrans += 1;
        while let Some(t) = self.reach.pop() {
            let t = t as usize;
            self.counts.ftran_u_rows += 1;
            let mut s = v[self.piv_row[t] as usize];
            let (us, ue) = (self.u_ptr[t] as usize, self.u_ptr[t + 1] as usize);
            for i in us..ue {
                s -= self.u_val[i] * w[self.u_pos[i] as usize];
            }
            let pos = self.piv_pos[t] as usize;
            pat.push(pos as u32);
            if s != 0.0 {
                w[pos] = s / self.u_piv[t];
                let (ts, te) = (self.ut_ptr[pos] as usize, self.ut_ptr[pos + 1] as usize);
                for &t2 in &self.ut_step[ts..te] {
                    let p2 = self.piv_pos[t2 as usize] as usize;
                    if !self.queued[p2] {
                        self.queued[p2] = true;
                        self.reach.push(t2);
                    }
                }
            }
        }
        for &r in touched.iter() {
            v[r as usize] = 0.0;
        }
        touched.clear();
        // Eta inverses, oldest first; fill-in joins the pattern.
        for e in 0..self.eta_piv.len() {
            let r = self.eta_r[e] as usize;
            if w[r] == 0.0 {
                continue;
            }
            let t = w[r] / self.eta_piv[e];
            if t != 0.0 {
                let (s, en) = (self.eta_ptr[e] as usize, self.eta_ptr[e + 1] as usize);
                for i in s..en {
                    let idx = self.eta_idx[i] as usize;
                    w[idx] -= self.eta_val[i] * t;
                    if !self.queued[idx] {
                        self.queued[idx] = true;
                        pat.push(idx as u32);
                    }
                }
            }
            w[r] = t;
        }
        for &i in pat.iter() {
            self.queued[i as usize] = false;
        }
        pat.sort_unstable();
    }

    /// FTRAN of a dense right-hand side (used to recompute `x_B = B⁻¹b`
    /// after a refactorisation): the plain sweep over every step, and the
    /// oracle the tests hold [`Self::ftran`] against.
    pub(crate) fn ftran_dense(&mut self, b: &[f64], w: &mut [f64]) {
        let m = self.m;
        let v = &mut self.scr_row;
        v.copy_from_slice(b);
        for t in 0..m {
            let va = v[self.piv_row[t] as usize];
            if va != 0.0 {
                let (s, e) = (self.l_ptr[t] as usize, self.l_ptr[t + 1] as usize);
                for i in s..e {
                    v[self.l_row[i] as usize] -= self.l_val[i] * va;
                }
            }
        }
        // Ũ⁻¹: back-substitution in reverse pivot order. Off-pivot
        // positions of step t were pivoted later, so their entries of `w`
        // are already final.
        w.iter_mut().for_each(|x| *x = 0.0);
        for t in (0..m).rev() {
            let mut s = v[self.piv_row[t] as usize];
            let (us, ue) = (self.u_ptr[t] as usize, self.u_ptr[t + 1] as usize);
            for i in us..ue {
                s -= self.u_val[i] * w[self.u_pos[i] as usize];
            }
            w[self.piv_pos[t] as usize] = s / self.u_piv[t];
        }
        // `scr_row` is shared with the sparse FTRAN, which relies on
        // finding it zeroed.
        v.iter_mut().for_each(|x| *x = 0.0);
        // Eta inverses, oldest first.
        for e in 0..self.eta_piv.len() {
            let r = self.eta_r[e] as usize;
            let t = w[r] / self.eta_piv[e];
            if t != 0.0 {
                let (s, en) = (self.eta_ptr[e] as usize, self.eta_ptr[e + 1] as usize);
                for i in s..en {
                    w[self.eta_idx[i] as usize] -= self.eta_val[i] * t;
                }
            }
            w[r] = t;
        }
    }

    /// BTRAN: `y = B⁻ᵀ z` for a basis-position-space input, result in row
    /// space. Eta transposes newest first, then `Ũᵀ` forward substitution
    /// — dividing and scattering only where `z` is non-zero (a zero entry
    /// would write `±0 / pivot`) — then `L̃ᵀ` in reverse over the steps that
    /// have multipliers.
    pub(crate) fn btran(&mut self, z: &[f64], y: &mut [f64]) {
        self.scr_pos.copy_from_slice(z);
        self.btran_scratch(y);
    }

    /// [`Self::btran`] of the unit vector `e_pos`: row `pos` of `B⁻¹`.
    pub(crate) fn btran_unit(&mut self, pos: usize, y: &mut [f64]) {
        self.scr_pos.fill(0.0);
        self.scr_pos[pos] = 1.0;
        self.btran_scratch(y);
    }

    /// [`Self::btran`] of the input already in `scr_pos` (which it spends).
    fn btran_scratch(&mut self, y: &mut [f64]) {
        let m = self.m;
        let z = &mut self.scr_pos;
        // (Eᵀ)⁻¹ for each eta, newest first: only component `r` changes,
        // to (z_r − Σ_{i≠r} wᵢ·zᵢ) / w_r.
        for e in (0..self.eta_piv.len()).rev() {
            let r = self.eta_r[e] as usize;
            let (s, en) = (self.eta_ptr[e] as usize, self.eta_ptr[e + 1] as usize);
            let mut dot = 0.0;
            for i in s..en {
                dot += self.eta_val[i] * z[self.eta_idx[i] as usize];
            }
            z[r] = (z[r] - dot) / self.eta_piv[e];
        }
        // Ũᵀ q = z: forward over the pivot order, scattering residuals.
        y.iter_mut().for_each(|x| *x = 0.0);
        self.counts.btrans += 1;
        for t in 0..m {
            let zt = z[self.piv_pos[t] as usize];
            if zt == 0.0 {
                continue;
            }
            self.counts.btran_nz_rows += 1;
            let q = zt / self.u_piv[t];
            y[self.piv_row[t] as usize] = q;
            if q != 0.0 {
                let (us, ue) = (self.u_ptr[t] as usize, self.u_ptr[t + 1] as usize);
                for i in us..ue {
                    z[self.u_pos[i] as usize] -= self.u_val[i] * q;
                }
            }
        }
        // L̃ᵀ: apply the transposed elimination steps in reverse.
        for &t in self.l_steps.iter().rev() {
            let t = t as usize;
            let (s, e) = (self.l_ptr[t] as usize, self.l_ptr[t + 1] as usize);
            let mut dot = 0.0;
            for i in s..e {
                dot += self.l_val[i] * y[self.l_row[i] as usize];
            }
            if dot != 0.0 {
                y[self.piv_row[t] as usize] -= dot;
            }
        }
    }

    /// The sweep [`Self::ftran`] replaced, as its oracle: the same
    /// right-hand side, densely, through [`Self::ftran_dense`].
    #[cfg(test)]
    pub(crate) fn ftran_sweep(&mut self, entries: &[(usize, f64)], w: &mut [f64]) {
        let mut b = vec![0.0; self.m];
        for &(r, a) in entries {
            b[r] += a;
        }
        self.ftran_dense(&b, w);
    }

    /// The sweep [`Self::btran`] replaced, as its oracle: every step
    /// divides, every step's multiplier list is walked.
    #[cfg(test)]
    pub(crate) fn btran_sweep(&mut self, z_init: impl Fn(usize) -> f64, y: &mut [f64]) {
        let m = self.m;
        let mut z: Vec<f64> = (0..m).map(z_init).collect();
        for e in (0..self.eta_piv.len()).rev() {
            let r = self.eta_r[e] as usize;
            let (s, en) = (self.eta_ptr[e] as usize, self.eta_ptr[e + 1] as usize);
            let mut dot = 0.0;
            for i in s..en {
                dot += self.eta_val[i] * z[self.eta_idx[i] as usize];
            }
            z[r] = (z[r] - dot) / self.eta_piv[e];
        }
        y.iter_mut().for_each(|x| *x = 0.0);
        for t in 0..m {
            let q = z[self.piv_pos[t] as usize] / self.u_piv[t];
            y[self.piv_row[t] as usize] = q;
            if q != 0.0 {
                let (us, ue) = (self.u_ptr[t] as usize, self.u_ptr[t + 1] as usize);
                for i in us..ue {
                    z[self.u_pos[i] as usize] -= self.u_val[i] * q;
                }
            }
        }
        for t in (0..m).rev() {
            let (s, e) = (self.l_ptr[t] as usize, self.l_ptr[t + 1] as usize);
            let mut dot = 0.0;
            for i in s..e {
                dot += self.l_val[i] * y[self.l_row[i] as usize];
            }
            if dot != 0.0 {
                y[self.piv_row[t] as usize] -= dot;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};

    /// A small standard form with a mix of row types.
    fn fixture() -> StandardForm {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 4.0);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        let z = m.add_var("z", 1.0, 9.0);
        m.set_objective_coef(x, 3.0);
        m.set_objective_coef(y, 5.0);
        m.set_objective_coef(z, 1.0);
        m.add_constraint(vec![(x, 1.0), (z, 2.0)], ConstraintOp::Le, 8.0);
        m.add_constraint(vec![(y, 2.0), (z, -1.0)], ConstraintOp::Le, 12.0);
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], ConstraintOp::Ge, 2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], ConstraintOp::Eq, 6.0);
        StandardForm::from_model(&m).unwrap()
    }

    /// Dense reference: materialise B, solve with partial-pivot Gaussian
    /// elimination.
    fn dense_solve(sf: &StandardForm, basis: &[usize], rhs: &[f64]) -> Vec<f64> {
        let m = sf.m;
        let mut a = vec![0.0f64; m * m];
        for (c, &j) in basis.iter().enumerate() {
            for &(r, v) in &sf.cols[j] {
                a[r * m + c] = v;
            }
        }
        let mut x = rhs.to_vec();
        for col in 0..m {
            let mut p = col;
            for r in col + 1..m {
                if a[r * m + col].abs() > a[p * m + col].abs() {
                    p = r;
                }
            }
            if p != col {
                for j in 0..m {
                    a.swap(col * m + j, p * m + j);
                }
                x.swap(col, p);
            }
            let piv = a[col * m + col];
            assert!(piv.abs() > 1e-12, "fixture basis must be nonsingular");
            for r in 0..m {
                if r != col {
                    let f = a[r * m + col] / piv;
                    if f != 0.0 {
                        for j in col..m {
                            a[r * m + j] -= f * a[col * m + j];
                        }
                        x[r] -= f * x[col];
                    }
                }
            }
        }
        (0..m).map(|i| x[i] / a[i * m + i]).collect()
    }

    #[test]
    fn ftran_btran_match_dense_on_initial_basis_with_pivots() {
        let sf = fixture();
        let m = sf.m;
        let mut basis = sf.initial_basis.clone();
        let mut in_basis = vec![false; sf.n_cols];
        for &j in &basis {
            in_basis[j] = true;
        }
        // Swap a couple of structural columns into the basis so B ≠ I.
        basis[0] = 0;
        basis[1] = 1;
        in_basis[0] = true;
        in_basis[1] = true;
        let mut lu = SparseLu::identity(m);
        lu.factorise(&sf, &mut basis, &mut in_basis, false)
            .expect("nonsingular");

        // FTRAN of each structural column vs. the dense solve.
        let mut w = vec![0.0; m];
        let mut pat = Vec::new();
        for j in 0..sf.n_structural {
            lu.ftran(&sf.cols[j], &mut w, &mut pat);
            let mut rhs = vec![0.0; m];
            for &(r, v) in &sf.cols[j] {
                rhs[r] += v;
            }
            let want = dense_solve(&sf, &basis, &rhs);
            for i in 0..m {
                assert!(
                    (w[i] - want[i]).abs() <= 1e-9 * (1.0 + want[i].abs()),
                    "ftran col {j} pos {i}: {} vs {}",
                    w[i],
                    want[i]
                );
            }
        }

        // BTRAN of the cost vector: y solves Bᵀy = c_B, i.e. for every
        // basis column, yᵀa_j = c_j.
        let mut y = vec![0.0; m];
        lu.btran(&basis.iter().map(|&j| sf.c[j]).collect::<Vec<_>>(), &mut y);
        for (pos, &j) in basis.iter().enumerate() {
            let dot: f64 = sf.cols[j].iter().map(|&(r, v)| y[r] * v).sum();
            assert!(
                (dot - sf.c[j]).abs() <= 1e-9 * (1.0 + sf.c[j].abs()),
                "btran pos {pos}: {dot} vs {}",
                sf.c[j]
            );
        }
    }

    #[test]
    fn eta_updates_track_basis_exchanges() {
        let sf = fixture();
        let m = sf.m;
        let mut basis = sf.initial_basis.clone();
        let mut in_basis = vec![false; sf.n_cols];
        for &j in &basis {
            in_basis[j] = true;
        }
        let mut lu = SparseLu::identity(m);
        lu.factorise(&sf, &mut basis, &mut in_basis, false).unwrap();

        // Bring structural columns in one at a time via etas, checking
        // FTRAN against a dense factorisation of the *current* basis.
        let mut w = vec![0.0; m];
        let mut pat = Vec::new();
        for (r, e) in [(0usize, 0usize), (1, 1), (2, 2)] {
            lu.ftran(&sf.cols[e], &mut w, &mut pat);
            assert!(w[r].abs() > 1e-9, "pivot must be usable");
            lu.append_eta(r, w[r], &w, &pat, 0.0);
            in_basis[basis[r]] = false;
            in_basis[e] = true;
            basis[r] = e;

            let probe = 3usize; // a slack column
            lu.ftran(&sf.cols[probe], &mut w, &mut pat);
            let mut rhs = vec![0.0; m];
            for &(rr, v) in &sf.cols[probe] {
                rhs[rr] += v;
            }
            let want = dense_solve(&sf, &basis, &rhs);
            for i in 0..m {
                assert!(
                    (w[i] - want[i]).abs() <= 1e-8 * (1.0 + want[i].abs()),
                    "after eta: pos {i}: {} vs {}",
                    w[i],
                    want[i]
                );
            }
            let mut y = vec![0.0; m];
            lu.btran(&basis.iter().map(|&j| sf.c[j]).collect::<Vec<_>>(), &mut y);
            for (pos, &j) in basis.iter().enumerate() {
                let dot: f64 = sf.cols[j].iter().map(|&(rr, v)| y[rr] * v).sum();
                assert!(
                    (dot - sf.c[j]).abs() <= 1e-8 * (1.0 + sf.c[j].abs()),
                    "after eta btran pos {pos}"
                );
            }
        }
    }

    #[test]
    fn repair_substitutes_unit_columns_for_dependent_ones() {
        let sf = fixture();
        let m = sf.m;
        let mut basis = sf.initial_basis.clone();
        let mut in_basis = vec![false; sf.n_cols];
        for &j in &basis {
            in_basis[j] = true;
        }
        // Duplicate a column pattern: position 1 gets the same structural
        // column as position 0 → linearly dependent.
        basis[0] = 0;
        in_basis[0] = true;
        let dup = basis[1];
        in_basis[dup] = false;
        basis[1] = 0; // duplicate; from_basis would reject, factorise must repair
        let mut lu = SparseLu::identity(m);
        // in_basis deliberately marks column 0 once; the dependent copy is
        // what repair replaces.
        let replaced = lu
            .factorise(&sf, &mut basis, &mut in_basis, true)
            .expect("repair path");
        assert_eq!(replaced, 1, "one dependent column replaced");
        // All basis columns distinct again, and the factor solves.
        let mut seen = vec![false; sf.n_cols];
        for &j in basis.iter() {
            assert!(!seen[j], "duplicate column {j} after repair");
            seen[j] = true;
        }
        let mut w = vec![0.0; m];
        let mut pat = Vec::new();
        let mut rhs = vec![0.0; m];
        for &(r, v) in &sf.cols[2] {
            rhs[r] += v;
        }
        lu.ftran(&sf.cols[2], &mut w, &mut pat);
        let want = dense_solve(&sf, &basis, &rhs);
        for i in 0..m {
            assert!((w[i] - want[i]).abs() <= 1e-8 * (1.0 + want[i].abs()));
        }
    }

    mod props {
        use super::*;
        use crate::same_bits as same;
        use crate::standard::RowOrigin;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        /// `m` random structural columns of the given density (diagonally
        /// dominant, so every basis drawn from them is nonsingular and the
        /// elimination produces real multipliers and fill) plus `m` unit
        /// slack columns.
        fn random_form(rng: &mut ChaCha8Rng, m: usize, density: f64) -> StandardForm {
            let mut cols: Vec<Vec<(usize, f64)>> = (0..m)
                .map(|j| {
                    (0..m)
                        .filter_map(|r| {
                            if r == j {
                                Some((r, m as f64 + rng.gen_range(1.0..2.0)))
                            } else if rng.gen_bool(density) {
                                Some((r, rng.gen_range(-1.0..1.0)))
                            } else {
                                None
                            }
                        })
                        .collect()
                })
                .collect();
            cols.extend((0..m).map(|r| vec![(r, 1.0)]));
            StandardForm {
                n_structural: m,
                n_cols: 2 * m,
                m,
                cols,
                c: vec![0.0; 2 * m],
                b: vec![0.0; m],
                initial_basis: (m..2 * m).collect(),
                is_artificial: vec![false; 2 * m],
                lo_shift: vec![0.0; m],
                n_artificial: 0,
                row_origin: (0..m)
                    .map(|constraint| RowOrigin::Constraint {
                        constraint,
                        scale: 1.0,
                        sign: 1.0,
                    })
                    .collect(),
                maximise: false,
            }
        }

        /// Every column and a random cost row through both kernels.
        fn check(
            lu: &mut SparseLu,
            sf: &StandardForm,
            rng: &mut ChaCha8Rng,
            w: &mut [f64],
            pat: &mut Vec<u32>,
        ) -> Result<(), TestCaseError> {
            let m = sf.m;
            let mut want = vec![0.0; m];
            for (j, col) in sf.cols.iter().enumerate() {
                lu.ftran(col, w, pat);
                lu.ftran_sweep(col, &mut want);
                prop_assert!(pat.windows(2).all(|p| p[0] < p[1]), "pattern {pat:?}");
                for i in 0..m {
                    prop_assert!(
                        same(w[i], want[i]),
                        "ftran {j} pos {i}: {} vs {}",
                        w[i],
                        want[i]
                    );
                    prop_assert!(w[i] == 0.0 || pat.binary_search(&(i as u32)).is_ok());
                }
            }
            prop_assert!(lu.scr_row.iter().all(|&v| v == 0.0), "scr_row left dirty");
            let z: Vec<f64> = (0..m)
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        rng.gen_range(-2.0..2.0)
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut y = vec![0.0; m];
            lu.btran(&z, &mut y);
            lu.btran_sweep(|pos| z[pos], &mut want);
            for i in 0..m {
                prop_assert!(
                    same(y[i], want[i]),
                    "btran row {i}: {} vs {}",
                    y[i],
                    want[i]
                );
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// On bases dense enough to need multipliers and to fill in, the
            /// reach-ordered FTRAN and the zero-skipping BTRAN equal the
            /// sweeps — fresh from the factorisation and under a growing eta
            /// file — and the shared row scratch is handed back clean.
            #[test]
            fn solves_match_the_sweeps_on_filled_factors(
                seed in 0u64..u64::MAX,
                m in 2usize..12,
                density in 0.05f64..0.7,
            ) {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let sf = random_form(&mut rng, m, density);
                let mut basis: Vec<usize> = (0..m).collect();
                let mut in_basis = vec![false; sf.n_cols];
                in_basis[..m].fill(true);
                let mut lu = SparseLu::identity(m);
                lu.factorise(&sf, &mut basis, &mut in_basis, false).expect("dominant diagonal");
                let (mut w, mut pat) = (vec![0.0; m], Vec::new());
                check(&mut lu, &sf, &mut rng, &mut w, &mut pat)?;
                // Swap slack columns in through etas, as basis exchanges do.
                for _ in 0..m.min(4) {
                    let e = m + rng.gen_range(0..m);
                    if in_basis[e] {
                        continue;
                    }
                    lu.ftran(&sf.cols[e], &mut w, &mut pat);
                    let Some(r) = (0..m).find(|&r| w[r].abs() > 1e-6) else {
                        continue;
                    };
                    lu.append_eta(r, w[r], &w, &pat, 1e-13);
                    in_basis[basis[r]] = false;
                    in_basis[e] = true;
                    basis[r] = e;
                    check(&mut lu, &sf, &mut rng, &mut w, &mut pat)?;
                }
                // ftran_dense shares the row scratch and must clean up too.
                let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
                lu.ftran_dense(&b, &mut w);
                pat.clear();
                w.fill(0.0);
                check(&mut lu, &sf, &mut rng, &mut w, &mut pat)?;
            }
        }
    }
}
