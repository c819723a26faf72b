//! Two-phase primal simplex on a dense tableau.
//!
//! This is the reference LP engine: simple, aggressively tested, and fast
//! enough for the small/medium platforms of the paper's sweep. Cycling is
//! prevented by switching to Bland's rule after a stall, and artificial
//! variables are prevented from re-entering (or silently growing) in phase 2
//! by an eviction pivot with step length zero.

use crate::model::Model;
use crate::solution::{Solution, Status};
use crate::standard::StandardForm;
use crate::{scaled_iteration_cap, LpError, COST_TOL, FEAS_TOL, PIVOT_TOL, STALL_LIMIT};

/// Dense tableau simplex solver. Each phase is capped at
/// [`scaled_iteration_cap`] pivots, so a pathological instance surfaces
/// [`LpError::IterationLimit`] instead of spinning forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseSimplex;

enum PhaseEnd {
    Optimal,
    Unbounded,
}

struct Tableau {
    m: usize,
    /// Row width: `n_cols + 1`, last column is the right-hand side.
    w: usize,
    t: Vec<f64>,
    basis: Vec<usize>,
    /// Reduced-cost row; `z[w-1]` holds the *negated* current objective.
    z: Vec<f64>,
    is_artificial: Vec<bool>,
    iterations: usize,
}

impl Tableau {
    fn rhs_col(&self) -> usize {
        self.w - 1
    }

    fn at(&self, i: usize, j: usize) -> f64 {
        self.t[i * self.w + j]
    }

    /// Installs a fresh cost row for the given per-column costs and zeroes
    /// the reduced costs of the current basic columns.
    fn set_costs(&mut self, costs: &[f64]) {
        self.z.clear();
        self.z.extend_from_slice(costs);
        self.z.push(0.0);
        for i in 0..self.m {
            let cb = costs[self.basis[i]];
            if cb != 0.0 {
                let row = &self.t[i * self.w..(i + 1) * self.w];
                // z ← z − c_B[i]·row  (zeroes the basic column, accumulates
                // −objective in the rhs slot).
                for (zj, &tj) in self.z.iter_mut().zip(row) {
                    *zj -= cb * tj;
                }
            }
        }
    }

    fn pivot(&mut self, r: usize, e: usize) {
        let w = self.w;
        let pivot_val = self.t[r * w + e];
        debug_assert!(pivot_val.abs() > 0.0);
        let inv = 1.0 / pivot_val;
        for v in &mut self.t[r * w..(r + 1) * w] {
            *v *= inv;
        }
        // Borrow-splitting: copy the (now normalised) pivot row out once; the
        // row is short-lived and m·w dominates the copy cost anyway.
        let pivot_row: Vec<f64> = self.t[r * w..(r + 1) * w].to_vec();
        for i in 0..self.m {
            if i == r {
                continue;
            }
            let factor = self.t[i * w + e];
            if factor.abs() > 1e-13 {
                let row = &mut self.t[i * w..(i + 1) * w];
                for (v, &p) in row.iter_mut().zip(&pivot_row) {
                    *v -= factor * p;
                }
                row[e] = 0.0; // kill round-off exactly on the pivot column
            }
        }
        let zfactor = self.z[e];
        if zfactor.abs() > 1e-13 {
            for (v, &p) in self.z.iter_mut().zip(&pivot_row) {
                *v -= zfactor * p;
            }
            self.z[e] = 0.0;
        }
        self.basis[r] = e;
        self.iterations += 1;
    }

    /// Runs pivots until optimality/unboundedness for the currently
    /// installed cost row.
    fn run(
        &mut self,
        banned: impl Fn(usize) -> bool,
        evict_artificials: bool,
        max_iter: usize,
    ) -> Result<PhaseEnd, LpError> {
        let rhs = self.rhs_col();
        let mut bland = false;
        let mut stall = 0usize;
        let mut last_obj = self.z[rhs];
        let mut iters_this_phase = 0usize;

        loop {
            // --- entering column ---
            let mut entering = None;
            if bland {
                for j in 0..self.w - 1 {
                    if !banned(j) && self.z[j] < -COST_TOL {
                        entering = Some(j);
                        break;
                    }
                }
            } else {
                let mut best = -COST_TOL;
                for j in 0..self.w - 1 {
                    if !banned(j) && self.z[j] < best {
                        best = self.z[j];
                        entering = Some(j);
                    }
                }
            }
            let Some(e) = entering else {
                return Ok(PhaseEnd::Optimal);
            };

            // --- leaving row ---
            // Eviction first: a basic artificial with a nonzero entry in the
            // entering column is swapped out with step length 0, so it can
            // never grow back above zero in phase 2.
            let mut leaving = None;
            if evict_artificials {
                let mut best_abs = PIVOT_TOL;
                for i in 0..self.m {
                    if self.is_artificial[self.basis[i]] {
                        let v = self.at(i, e).abs();
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
                for i in 0..self.m {
                    let coef = self.at(i, e);
                    if coef > PIVOT_TOL {
                        let ratio = self.at(i, rhs) / coef;
                        // Tie-break on the smallest basis index (lexicographic
                        // flavour, cooperates with Bland's rule).
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

            self.pivot(r, e);
            iters_this_phase += 1;

            // --- stall / limit bookkeeping ---
            let obj = self.z[rhs];
            if obj > last_obj + 1e-12 {
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
}

impl DenseSimplex {
    /// Solves the LP relaxation of `model` (integrality marks are ignored).
    pub fn solve(&self, model: &Model) -> Result<Solution, LpError> {
        let sf = StandardForm::from_model(model)?;
        self.solve_standard(model, &sf)
    }

    /// Solves a pre-lowered model (lets branch-and-bound reuse lowering
    /// logic; bounds changes require re-lowering, so this is internal-ish).
    pub(crate) fn solve_standard(
        &self,
        model: &Model,
        sf: &StandardForm,
    ) -> Result<Solution, LpError> {
        if sf.m == 0 {
            return Ok(solve_unconstrained(model, sf));
        }
        let w = sf.n_cols + 1;
        let mut t = vec![0.0f64; sf.m * w];
        for (j, col) in sf.cols.iter().enumerate() {
            for &(i, a) in col {
                t[i * w + j] = a;
            }
        }
        for (i, &bi) in sf.b.iter().enumerate() {
            t[i * w + sf.n_cols] = bi;
        }
        let mut tab = Tableau {
            m: sf.m,
            w,
            t,
            basis: sf.initial_basis.clone(),
            z: Vec::new(),
            is_artificial: sf.is_artificial.clone(),
            iterations: 0,
        };
        let max_iter = scaled_iteration_cap(sf.m, sf.n_cols);

        // --- Phase 1 ---
        if sf.n_artificial > 0 {
            let costs = sf.phase1_costs();
            tab.set_costs(&costs);
            match tab.run(|_| false, false, max_iter)? {
                PhaseEnd::Optimal => {}
                // Phase-1 objective is bounded below by 0; "unbounded" here
                // means numerical breakdown.
                PhaseEnd::Unbounded => return Err(LpError::NumericalBreakdown("phase 1")),
            }
            let b_norm = 1.0 + sf.b.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
            let phase1_obj = -tab.z[tab.rhs_col()];
            if phase1_obj > FEAS_TOL * b_norm {
                return Ok(Solution::infeasible(tab.iterations));
            }
        }

        // --- Phase 2 ---
        tab.set_costs(&sf.c);
        let art = sf.is_artificial.clone();
        let end = tab.run(|j| art[j], true, max_iter)?;
        if matches!(end, PhaseEnd::Unbounded) {
            return Ok(Solution::unbounded(tab.iterations));
        }

        // --- extract ---
        let rhs = tab.rhs_col();
        let mut std_values = vec![0.0f64; sf.n_structural];
        for i in 0..tab.m {
            let j = tab.basis[i];
            if j < sf.n_structural {
                std_values[j] = tab.at(i, rhs).max(0.0);
            }
        }
        let values = sf.recover(&std_values);
        let objective = model.objective_value(&values);
        // Standard-space duals: the initial-basis column of row i is an
        // identity column (+1 in row i, zero cost in phase 2), so its
        // reduced cost is 0 − y_i.
        let y_std: Vec<f64> = sf.initial_basis.iter().map(|&j| -tab.z[j]).collect();
        let duals = sf.recover_duals(&y_std, model.num_constraints());
        Ok(Solution {
            status: Status::Optimal,
            objective,
            values,
            duals,
            iterations: tab.iterations,
        })
    }
}

/// Degenerate case: no rows at all (no constraints and no finite upper
/// bounds). Each variable sits at its lower bound unless improving the
/// objective is possible, which then means unbounded.
pub(crate) fn solve_unconstrained(model: &Model, sf: &StandardForm) -> Solution {
    for j in 0..sf.n_structural {
        if sf.c[j] < -COST_TOL {
            return Solution::unbounded(0);
        }
    }
    let values = sf.recover(&vec![0.0; sf.n_structural]);
    let objective = model.objective_value(&values);
    Solution {
        status: Status::Optimal,
        objective,
        values,
        duals: Vec::new(),
        iterations: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};

    fn solve(m: &Model) -> Solution {
        DenseSimplex.solve(m).unwrap()
    }

    #[test]
    fn textbook_maximisation() {
        // max 3x+5y s.t. x ≤ 4, 2y ≤ 12, 3x+2y ≤ 18 → (2,6), obj 36.
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
        assert!((s[x] - 2.0).abs() < 1e-7);
        assert!((s[y] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn minimisation_with_ge_rows_needs_phase1() {
        // min 2x+3y s.t. x+y ≥ 10, x ≥ 3 → (10? no): optimum x=10,y=0? cost 20
        // vs x=3,y=7 cost 27 → x=10 y=0, obj 20.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective_coef(x, 2.0);
        m.set_objective_coef(y, 3.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 3.0);
        let s = solve(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-7, "obj {}", s.objective);
        assert!((s[x] - 10.0).abs() < 1e-6);
        assert!(s[y].abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // max x+y s.t. x+y = 5, x−y = 1 → (3,2), obj 5.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective_coef(x, 1.0);
        m.set_objective_coef(y, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 5.0);
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        let s = solve(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s[x] - 3.0).abs() < 1e-7);
        assert!((s[y] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 1.0);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(solve(&m).status, Status::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective_coef(x, 1.0);
        // Only y is bounded; x can grow forever.
        m.add_constraint(vec![(y, 1.0)], ConstraintOp::Le, 1.0);
        assert_eq!(solve(&m).status, Status::Unbounded);
    }

    #[test]
    fn variable_bounds_respected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 1.0, 3.0);
        let y = m.add_var("y", 0.5, 2.0);
        m.set_objective_coef(x, 1.0);
        m.set_objective_coef(y, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        let s = solve(&m);
        assert!((s.objective - 4.0).abs() < 1e-7);
        assert!(s[x] >= 1.0 - 1e-9 && s[x] <= 3.0 + 1e-9);
        assert!(s[y] >= 0.5 - 1e-9 && s[y] <= 2.0 + 1e-9);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic cycling-prone example (Beale); Bland fallback must end it.
        let mut m = Model::new(Sense::Minimize);
        let x1 = m.add_var("x1", 0.0, f64::INFINITY);
        let x2 = m.add_var("x2", 0.0, f64::INFINITY);
        let x3 = m.add_var("x3", 0.0, f64::INFINITY);
        let x4 = m.add_var("x4", 0.0, f64::INFINITY);
        m.set_objective_coef(x1, -0.75);
        m.set_objective_coef(x2, 150.0);
        m.set_objective_coef(x3, -0.02);
        m.set_objective_coef(x4, 6.0);
        m.add_constraint(
            vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        m.add_constraint(
            vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            ConstraintOp::Le,
            0.0,
        );
        m.add_constraint(vec![(x3, 1.0)], ConstraintOp::Le, 1.0);
        let s = solve(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - (-0.05)).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn no_constraints_at_all() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 2.0, f64::INFINITY);
        m.set_objective_coef(x, 5.0);
        let s = solve(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 10.0).abs() < 1e-9);

        let mut m2 = Model::new(Sense::Maximize);
        let y = m2.add_var("y", 0.0, f64::INFINITY);
        m2.set_objective_coef(y, 1.0);
        assert_eq!(solve(&m2).status, Status::Unbounded);
    }

    #[test]
    fn zero_rhs_degenerate_start() {
        // max x s.t. x − y ≤ 0, y ≤ 7 → x = y = 7.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective_coef(x, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], ConstraintOp::Le, 0.0);
        m.add_constraint(vec![(y, 1.0)], ConstraintOp::Le, 7.0);
        let s = solve(&m);
        assert!((s.objective - 7.0).abs() < 1e-7);
    }

    #[test]
    fn solution_feasibility_always_checked() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0);
        let y = m.add_var("y", 0.0, 10.0);
        m.set_objective_coef(x, 1.0);
        m.set_objective_coef(y, 2.0);
        m.add_constraint(vec![(x, 3.0), (y, 1.0)], ConstraintOp::Le, 9.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 2.0);
        let s = solve(&m);
        assert_eq!(s.status, Status::Optimal);
        m.check_feasible(&s.values, 1e-7).unwrap();
    }
}
