//! Lowering of a [`Model`] to computational standard form.
//!
//! Standard form is `min c·x  s.t.  A x = b,  x ≥ 0,  b ≥ 0`, obtained by
//!
//! 1. shifting every structural variable by its (finite) lower bound,
//! 2. materialising finite upper bounds as extra `≤` rows,
//! 3. adding a slack (`≤`) or surplus (`≥`) column per inequality row,
//! 4. normalising right-hand sides to be non-negative,
//! 5. adding an artificial column for every row whose slack cannot serve as
//!    the initial basic variable,
//! 6. scaling each row by its max-norm for numerical stability.
//!
//! Both the dense tableau simplex and the revised simplex consume this
//! representation; columns are stored sparsely as `(row, coefficient)` lists.
//!
//! Lowering costs O(nnz + rows + vars): a solve at K = 400 lowers its model
//! three times (LPRG, the warm context, the cold path's re-lowering), so a
//! per-constraint pass over all variables — 2600 × 3201 there — used to
//! cost more than a hundred pivots. The order of the entries inside each
//! column is part of the output: it fixes the summation order of every
//! reduced cost, so it must not depend on how the terms were merged.

use crate::model::{ConstraintOp, Model, Sense};
use crate::LpError;

/// Provenance of a standard-form row, for mapping dual values back to the
/// user's constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowOrigin {
    /// Row `i` lowers user constraint `constraint`; the standard row equals
    /// `sign · scale ·` (user row), so a standard-space dual `y` maps back
    /// as `y · sign · scale`.
    Constraint {
        /// Index into the model's constraint list.
        constraint: usize,
        /// Row-equilibration factor applied during lowering.
        scale: f64,
        /// −1.0 when the row was negated to make its rhs non-negative.
        sign: f64,
    },
    /// Row materialises the finite upper bound of a variable (its dual is
    /// the variable's bound multiplier, not a constraint dual).
    UpperBound {
        /// Index of the bounded variable.
        var: usize,
        /// Row sign/scale as for constraints.
        scale: f64,
        /// −1.0 when negated.
        sign: f64,
    },
}

/// A model lowered to `min c·x, A x = b, x ≥ 0, b ≥ 0`.
#[derive(Debug)]
pub struct StandardForm {
    /// Number of structural columns (one per model variable, in order).
    pub n_structural: usize,
    /// Total number of columns (structural + slack/surplus + artificial).
    pub n_cols: usize,
    /// Number of rows.
    pub m: usize,
    /// Sparse columns: `cols[j]` lists `(row, coef)` with coef ≠ 0.
    pub cols: Vec<Vec<(usize, f64)>>,
    /// Phase-2 cost vector (length `n_cols`), already negated for
    /// maximisation problems so that both senses minimise.
    pub c: Vec<f64>,
    /// Right-hand side (length `m`, all entries ≥ 0).
    pub b: Vec<f64>,
    /// Initial basis: one column index per row (slack with +1 coefficient,
    /// or an artificial).
    pub initial_basis: Vec<usize>,
    /// `is_artificial[j]` for every column.
    pub is_artificial: Vec<bool>,
    /// Lower bound shift per structural variable (`x_orig = lo + x_std`).
    pub lo_shift: Vec<f64>,
    /// Number of artificial columns (0 means the slack basis is feasible).
    pub n_artificial: usize,
    /// Provenance of each row (dual mapping).
    pub row_origin: Vec<RowOrigin>,
    /// `true` when the model maximises (duals are sign-flipped on recovery).
    pub maximise: bool,
}

clone_in_place!(StandardForm {
    n_structural,
    n_cols,
    m,
    cols,
    c,
    b,
    initial_basis,
    is_artificial,
    lo_shift,
    n_artificial,
    row_origin,
    maximise,
});

/// One row in the intermediate (pre-slack) form.
struct Row {
    terms: Vec<(usize, f64)>,
    op: ConstraintOp,
    rhs: f64,
    /// `Ok(constraint index)` or `Err(variable index)` for bound rows.
    origin: Result<usize, usize>,
}

/// Steps 1–2 for the user constraints: merges duplicate terms and applies
/// the lower-bound shift, one [`Row`] per constraint, in O(nnz).
///
/// One accumulator (`acc`, zero outside `touched`) is reused across
/// constraints. The float contract is that of a dense per-constraint
/// accumulator scanned left to right, which the test-only
/// `dense_constraint_rows` still is: duplicates are summed in term order,
/// terms come out in ascending variable index (that order is the entry order
/// of every standard-form column, hence the summation order of every reduced
/// cost), the shift is summed over the same ascending indices (the entries a
/// dense scan would add in between are zeros), and a coefficient that
/// cancels exactly is dropped.
fn constraint_rows(model: &Model, lo_shift: &[f64]) -> Vec<Row> {
    let n = model.num_vars();
    let mut acc = vec![0.0f64; n];
    let mut seen = vec![false; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut rows = Vec::with_capacity(model.num_constraints() + n);
    for (ci, con) in model.cons.iter().enumerate() {
        for &(v, a) in &con.terms {
            let j = v.index();
            if !seen[j] {
                seen[j] = true;
                touched.push(j);
            }
            acc[j] += a;
        }
        touched.sort_unstable();
        let shift: f64 = touched.iter().map(|&j| acc[j] * lo_shift[j]).sum();
        let terms: Vec<(usize, f64)> = touched
            .iter()
            .filter(|&&j| acc[j] != 0.0)
            .map(|&j| (j, acc[j]))
            .collect();
        for &j in &touched {
            acc[j] = 0.0;
            seen[j] = false;
        }
        touched.clear();
        rows.push(Row {
            terms,
            op: con.op,
            rhs: con.rhs - shift,
            origin: Ok(ci),
        });
    }
    rows
}

impl StandardForm {
    /// Lowers `model`, validating it first.
    pub fn from_model(model: &Model) -> Result<Self, LpError> {
        model.validate()?;
        let lo_shift: Vec<f64> = model.vars.iter().map(|v| v.lo).collect();
        let rows = constraint_rows(model, &lo_shift);
        Ok(Self::assemble(model, lo_shift, rows))
    }

    /// Steps 2–6 from the merged, shifted constraint rows.
    fn assemble(model: &Model, lo_shift: Vec<f64>, mut rows: Vec<Row>) -> Self {
        let n = model.num_vars();
        for (j, v) in model.vars.iter().enumerate() {
            if v.up.is_finite() {
                rows.push(Row {
                    terms: vec![(j, 1.0)],
                    op: ConstraintOp::Le,
                    rhs: v.up - v.lo,
                    origin: Err(j),
                });
            }
        }

        let m = rows.len();
        // Every structural column gets exactly the capacity of its entries,
        // so a context that keeps the form for its whole life holds no
        // growth slack.
        let mut counts = vec![0usize; n];
        for row in &rows {
            for &(j, _) in &row.terms {
                counts[j] += 1;
            }
        }
        let mut cols: Vec<Vec<(usize, f64)>> =
            counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        let mut b = vec![0.0f64; m];
        let mut initial_basis = vec![usize::MAX; m];

        // 6 (scaling) is folded in: compute a per-row scale before emitting.
        // 3–5: slack/surplus and artificials are appended after structural
        // columns; we collect per-row slack info first.
        struct RowPlan {
            scale: f64,
            negate: bool,
            slack_sign: f64, // 0.0 = equality (no slack column)
        }
        let mut plans: Vec<RowPlan> = Vec::with_capacity(m);
        for row in &rows {
            let max_abs = row
                .terms
                .iter()
                .map(|(_, a)| a.abs())
                .fold(0.0f64, f64::max);
            let scale = if max_abs > 0.0 { 1.0 / max_abs } else { 1.0 };
            let rhs_scaled = row.rhs * scale;
            let negate = rhs_scaled < 0.0;
            let slack_sign = match row.op {
                ConstraintOp::Le => 1.0,
                ConstraintOp::Ge => -1.0,
                ConstraintOp::Eq => 0.0,
            };
            plans.push(RowPlan {
                scale,
                negate,
                slack_sign,
            });
        }

        let mut row_origin = Vec::with_capacity(m);
        for (i, (row, plan)) in rows.iter().zip(&plans).enumerate() {
            let sign = if plan.negate { -1.0 } else { 1.0 };
            for &(j, a) in &row.terms {
                cols[j].push((i, a * plan.scale * sign));
            }
            b[i] = row.rhs * plan.scale * sign;
            row_origin.push(match row.origin {
                Ok(constraint) => RowOrigin::Constraint {
                    constraint,
                    scale: plan.scale,
                    sign,
                },
                Err(var) => RowOrigin::UpperBound {
                    var,
                    scale: plan.scale,
                    sign,
                },
            });
        }

        // Slack/surplus columns.
        for (i, plan) in plans.iter().enumerate() {
            if plan.slack_sign != 0.0 {
                let sign = if plan.negate { -1.0 } else { 1.0 };
                let coef = plan.slack_sign * sign;
                let j = cols.len();
                cols.push(vec![(i, coef)]);
                if coef > 0.0 {
                    initial_basis[i] = j;
                }
            }
        }

        // Artificial columns for rows still lacking a basic column.
        let mut is_artificial = vec![false; cols.len()];
        let mut n_artificial = 0;
        for (i, basis) in initial_basis.iter_mut().enumerate() {
            if *basis == usize::MAX {
                let j = cols.len();
                cols.push(vec![(i, 1.0)]);
                is_artificial.push(true);
                *basis = j;
                n_artificial += 1;
            }
        }

        cols.shrink_to_fit();
        is_artificial.shrink_to_fit();

        // Cost vector (minimisation internally).
        let flip = match model.sense() {
            Sense::Maximize => -1.0,
            Sense::Minimize => 1.0,
        };
        let mut c = vec![0.0f64; cols.len()];
        for (j, v) in model.vars.iter().enumerate() {
            c[j] = flip * v.obj;
        }

        StandardForm {
            n_structural: n,
            n_cols: cols.len(),
            m,
            cols,
            c,
            b,
            initial_basis,
            is_artificial,
            lo_shift,
            n_artificial,
            row_origin,
            maximise: model.sense() == Sense::Maximize,
        }
    }

    /// Maps standard-space duals (one per standard row, minimisation sense)
    /// back to one dual per *user constraint*, in the user's optimisation
    /// sense: for a maximisation model, the dual of a binding `≤` row is the
    /// marginal objective gain per unit of right-hand side.
    pub fn recover_duals(&self, y_std: &[f64], num_constraints: usize) -> Vec<f64> {
        let flip = if self.maximise { -1.0 } else { 1.0 };
        let mut duals = vec![0.0f64; num_constraints];
        for (i, origin) in self.row_origin.iter().enumerate() {
            if let RowOrigin::Constraint {
                constraint,
                scale,
                sign,
            } = origin
            {
                // Standard row = sign·scale·(user row): a unit increase of
                // the user rhs moves the standard rhs by sign·scale.
                duals[*constraint] = flip * y_std[i] * sign * scale;
            }
        }
        duals
    }

    /// Map from user-constraint index to standard-form row (one row per
    /// constraint, in order). Used by the warm-start layer to patch rows in
    /// place.
    pub fn constraint_rows(&self, num_constraints: usize) -> Vec<usize> {
        let mut rows = vec![usize::MAX; num_constraints];
        for (i, origin) in self.row_origin.iter().enumerate() {
            if let RowOrigin::Constraint { constraint, .. } = origin {
                rows[*constraint] = i;
            }
        }
        rows
    }

    /// Map from variable index to its upper-bound row, if the variable had a
    /// finite upper bound at lowering time.
    pub fn bound_rows(&self, num_vars: usize) -> Vec<Option<usize>> {
        let mut rows = vec![None; num_vars];
        for (i, origin) in self.row_origin.iter().enumerate() {
            if let RowOrigin::UpperBound { var, .. } = origin {
                rows[*var] = Some(i);
            }
        }
        rows
    }

    /// Row-equilibration factor and negation sign of a standard row: the
    /// standard row equals `sign · scale ·` (user row).
    pub fn row_scale_sign(&self, row: usize) -> (f64, f64) {
        match self.row_origin[row] {
            RowOrigin::Constraint { scale, sign, .. } => (scale, sign),
            RowOrigin::UpperBound { scale, sign, .. } => (scale, sign),
        }
    }

    /// Non-zero count of the basis matrix `B` formed by `basis`'s columns —
    /// the sparsity baseline against which factor fill-in is measured.
    pub(crate) fn basis_nnz(&self, basis: &[usize]) -> usize {
        basis.iter().map(|&j| self.cols[j].len()).sum()
    }

    /// `1 + max|b|`, the scale of every feasibility tolerance. A solve does
    /// not change `b`, so it folds this once and passes it down.
    pub(crate) fn b_scale(&self) -> f64 {
        1.0 + self.b.iter().fold(0.0f64, |a, &x| a.max(x.abs()))
    }

    /// Phase-1 cost vector: minimise the sum of artificial variables.
    pub fn phase1_costs(&self) -> Vec<f64> {
        self.is_artificial
            .iter()
            .map(|&a| if a { 1.0 } else { 0.0 })
            .collect()
    }

    /// Recovers original-space variable values from standard-form values of
    /// the structural columns.
    pub fn recover(&self, std_values: &[f64]) -> Vec<f64> {
        self.lo_shift
            .iter()
            .zip(std_values)
            .map(|(lo, x)| lo + x)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};

    #[test]
    fn slack_basis_when_all_le_nonneg() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.add_constraint(vec![(x, 2.0)], ConstraintOp::Le, 4.0);
        let sf = StandardForm::from_model(&m).unwrap();
        assert_eq!(sf.m, 1);
        assert_eq!(sf.n_artificial, 0);
        assert_eq!(sf.n_cols, 2); // x + slack
        assert!((sf.b[0] - 2.0).abs() < 1e-12); // scaled by 1/2
    }

    #[test]
    fn ge_rows_get_artificials() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 3.0);
        let sf = StandardForm::from_model(&m).unwrap();
        assert_eq!(sf.n_artificial, 1);
        assert_eq!(sf.n_cols, 3); // x + surplus + artificial
        assert!(sf.is_artificial[2]);
        assert_eq!(sf.initial_basis[0], 2);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        // x ≤ −2 is infeasible for x ≥ 0, but lowering must still produce
        // b ≥ 0 (feasibility is the solver's business).
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, -2.0);
        let sf = StandardForm::from_model(&m).unwrap();
        assert!(sf.b[0] >= 0.0);
        // The flipped slack has coefficient −1 → artificial added.
        assert_eq!(sf.n_artificial, 1);
    }

    #[test]
    fn lower_bound_shift_applied() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 5.0, 8.0);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 7.0);
        let sf = StandardForm::from_model(&m).unwrap();
        // Constraint row becomes x̂ ≤ 2, bound row x̂ ≤ 3.
        assert_eq!(sf.m, 2);
        assert!((sf.b[0] - 2.0).abs() < 1e-12);
        assert!((sf.b[1] - 3.0).abs() < 1e-12);
        assert_eq!(sf.recover(&[1.0]), vec![6.0]);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.add_constraint(vec![(x, 1.0), (x, 2.0)], ConstraintOp::Le, 6.0);
        let sf = StandardForm::from_model(&m).unwrap();
        // Single merged coefficient 3, scaled to 1 with rhs 2.
        assert_eq!(sf.cols[0].len(), 1);
        assert!((sf.cols[0][0].1 - 1.0).abs() < 1e-12);
        assert!((sf.b[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_that_cancel_are_dropped() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 2.0, f64::INFINITY);
        m.add_constraint(vec![(y, 0.3), (x, 4.0), (y, -0.3)], ConstraintOp::Le, 6.0);
        let sf = StandardForm::from_model(&m).unwrap();
        assert_eq!(sf.cols[0].len(), 1);
        assert!(sf.cols[1].is_empty(), "0.3 + (−0.3) must leave no entry");
        assert_eq!(sf.b[0], 1.5); // no shift from the cancelled y
    }

    #[test]
    fn maximisation_negates_costs() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0);
        m.set_objective_coef(x, 3.0);
        let sf = StandardForm::from_model(&m).unwrap();
        assert_eq!(sf.c[0], -3.0);
    }

    /// The lowering `constraint_rows` replaced, kept as its oracle: one
    /// dense accumulator per constraint, scanned left to right for the
    /// shift and again for the terms — O(rows × vars).
    fn dense_constraint_rows(model: &Model, lo_shift: &[f64]) -> Vec<Row> {
        let n = model.num_vars();
        let mut rows = Vec::new();
        for (ci, con) in model.cons.iter().enumerate() {
            let mut dense: Vec<f64> = vec![0.0; n];
            for &(v, a) in &con.terms {
                dense[v.index()] += a;
            }
            let shift: f64 = dense.iter().zip(lo_shift).map(|(a, lo)| a * lo).sum();
            let terms: Vec<(usize, f64)> = dense
                .iter()
                .enumerate()
                .filter(|(_, &a)| a != 0.0)
                .map(|(j, &a)| (j, a))
                .collect();
            rows.push(Row {
                terms,
                op: con.op,
                rhs: con.rhs - shift,
                origin: Ok(ci),
            });
        }
        rows
    }

    fn same_all(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| crate::same_bits(x, y))
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        /// A random model built to hit every branch of the merge: repeated
        /// variables, pairs that cancel exactly, unsorted terms, non-zero
        /// (also negative) lower bounds, all three row senses, negative
        /// right-hand sides and empty rows.
        fn random_model(seed: u64, n: usize, rows: usize) -> Model {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let sense = if rng.gen_bool(0.5) {
                Sense::Maximize
            } else {
                Sense::Minimize
            };
            let mut m = Model::new(sense);
            let vars: Vec<_> = (0..n)
                .map(|j| {
                    let lo = match rng.gen_range(0..3) {
                        0 => 0.0,
                        1 => rng.gen_range(0.5..3.0),
                        _ => rng.gen_range(-3.0..-0.5),
                    };
                    let up = if rng.gen_bool(0.5) {
                        lo + rng.gen_range(0.0..4.0)
                    } else {
                        f64::INFINITY
                    };
                    let v = m.add_var(format!("x{j}"), lo, up);
                    m.set_objective_coef(v, rng.gen_range(-2.0..2.0));
                    v
                })
                .collect();
            for _ in 0..rows {
                let mut terms = Vec::new();
                for _ in 0..rng.gen_range(0..2 * n) {
                    let v = vars[rng.gen_range(0..n)];
                    let a = rng.gen_range(-4.0..4.0);
                    terms.push((v, a));
                    match rng.gen_range(0..4) {
                        0 => terms.push((v, -a)),
                        1 => terms.push((v, rng.gen_range(-1.0..1.0))),
                        _ => {}
                    }
                }
                // Shuffle so a cancelling pair is not always adjacent.
                for i in (1..terms.len()).rev() {
                    terms.swap(i, rng.gen_range(0..i + 1));
                }
                let op = match rng.gen_range(0..3) {
                    0 => ConstraintOp::Le,
                    1 => ConstraintOp::Ge,
                    _ => ConstraintOp::Eq,
                };
                m.add_constraint(terms, op, rng.gen_range(-5.0..5.0));
            }
            m
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The O(nnz) lowering equals the dense-accumulator reference
            /// field for field — entry order inside every column included.
            #[test]
            fn lowering_matches_dense_accumulator_reference(
                seed in 0u64..u64::MAX,
                n in 1usize..9,
                rows in 0usize..8,
            ) {
                let model = random_model(seed, n, rows);
                let got = StandardForm::from_model(&model).unwrap();
                let lo_shift: Vec<f64> = model.vars.iter().map(|v| v.lo).collect();
                let dense = dense_constraint_rows(&model, &lo_shift);
                let want = StandardForm::assemble(&model, lo_shift, dense);

                prop_assert_eq!(
                    (got.n_structural, got.n_cols, got.m, got.n_artificial, got.maximise),
                    (want.n_structural, want.n_cols, want.m, want.n_artificial, want.maximise)
                );
                prop_assert_eq!(&got.initial_basis, &want.initial_basis);
                prop_assert_eq!(&got.is_artificial, &want.is_artificial);
                prop_assert_eq!(&got.row_origin, &want.row_origin);
                prop_assert!(same_all(&got.c, &want.c));
                prop_assert!(same_all(&got.b, &want.b), "b: {:?} vs {:?}", got.b, want.b);
                prop_assert!(same_all(&got.lo_shift, &want.lo_shift));
                for (j, (g, w)) in got.cols.iter().zip(&want.cols).enumerate() {
                    prop_assert_eq!(g.len(), w.len(), "column {}", j);
                    for (&(gr, gv), &(wr, wv)) in g.iter().zip(w) {
                        prop_assert!(
                            gr == wr && gv.to_bits() == wv.to_bits(),
                            "column {}: ({}, {}) vs ({}, {})", j, gr, gv, wr, wv
                        );
                    }
                }
            }
        }
    }
}
