//! Property tests for the LP/MILP solvers.
//!
//! The generators construct problems that are feasible by design (the
//! right-hand side is derived from a known interior point) and bounded by
//! design (box constraints), so the solvers must return `Optimal` and the
//! returned point must satisfy every constraint. The dense and revised
//! engines are cross-checked for objective agreement, and branch-and-bound
//! incumbents are checked for integrality and consistency with the
//! relaxation bound.

use dls_lp::{
    BasisRepr, BranchBound, BranchBoundConfig, ConstraintId, ConstraintOp, DenseSimplex, Model,
    RevisedSimplex, Sense, Status, VarId, WarmSimplex,
};
use proptest::prelude::*;

/// A random feasible-bounded LP together with the witness point that proves
/// feasibility.
#[derive(Debug, Clone)]
struct RandomLp {
    model: Model,
    witness: Vec<f64>,
}

fn random_lp(max_vars: usize, max_cons: usize) -> impl Strategy<Value = RandomLp> {
    (2..=max_vars, 1..=max_cons).prop_flat_map(|(n, m)| {
        let coefs = proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, n), m);
        let witness = proptest::collection::vec(0.0f64..3.0, n);
        let slack = proptest::collection::vec(0.0f64..4.0, m);
        let obj = proptest::collection::vec(-3.0f64..3.0, n);
        let ub = proptest::collection::vec(3.0f64..10.0, n);
        (coefs, witness, slack, obj, ub).prop_map(move |(coefs, witness, slack, obj, ub)| {
            let mut model = Model::new(Sense::Maximize);
            let vars: Vec<_> = (0..n)
                .map(|j| model.add_var(format!("x{j}"), 0.0, ub[j]))
                .collect();
            for (j, &v) in vars.iter().enumerate() {
                model.set_objective_coef(v, obj[j]);
            }
            for i in 0..m {
                let lhs_at_witness: f64 = coefs[i].iter().zip(&witness).map(|(a, x)| a * x).sum();
                let terms: Vec<_> = vars
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| (v, coefs[i][j]))
                    .collect();
                // witness satisfies `lhs ≤ lhs(witness) + slack` strictly.
                model.add_constraint(terms, ConstraintOp::Le, lhs_at_witness + slack[i]);
            }
            RandomLp { model, witness }
        })
    })
}

/// One random in-place delta: `(kind, variable, constraint, magnitude)`.
type Patch = (usize, usize, usize, f64);

fn random_patches(max_len: usize) -> impl Strategy<Value = Vec<Patch>> {
    proptest::collection::vec((0usize..3, 0usize..6, 0usize..6, 0.1f64..3.0), 1..max_len)
}

/// Applies one [`Patch`] to the context: a bound tightening, a rhs nudge,
/// or a coefficient change.
fn apply_patch(warm: &mut WarmSimplex, (kind, vi, ci, mag): Patch) {
    let var = VarId::from_index(vi % warm.model().num_vars());
    let con = ConstraintId::from_index(ci % warm.model().num_constraints());
    match kind {
        0 => {
            // Tighten the variable's upper bound (stays finite).
            let (lo, up) = warm.model().bounds(var);
            let new_up = lo + (up - lo) * (mag / 3.0).min(1.0);
            warm.set_var_bounds(var, lo, new_up).unwrap();
        }
        1 => {
            let rhs = warm.model().rhs(con);
            // Both tightening and relaxing directions.
            warm.set_rhs(con, rhs + (mag - 1.5)).unwrap();
        }
        _ => {
            let old = warm.model().coefficient(con, var);
            // Change, zero out, or introduce a coefficient.
            let new = if mag < 0.8 { 0.0 } else { old + mag - 2.0 };
            warm.set_coefficient(con, var, new).unwrap();
        }
    }
}

/// Solves with the cold cross-check oracle armed (the oracle itself returns
/// an error on a warm/cold disagreement). Status may legitimately become
/// Infeasible — a rhs pushed below what the bounds allow — and the oracle
/// covers that too.
fn solve_checked(warm: &mut WarmSimplex) -> Result<(), TestCaseError> {
    let sol = warm.solve().unwrap();
    if sol.status == Status::Optimal {
        let feasible = warm.model().check_feasible(&sol.values, 1e-6);
        prop_assert!(feasible.is_ok(), "{:?}", feasible);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dense_solution_is_feasible_and_optimal(lp in random_lp(8, 8)) {
        let sol = DenseSimplex::default().solve(&lp.model).unwrap();
        prop_assert_eq!(sol.status, Status::Optimal);
        prop_assert!(lp.model.check_feasible(&sol.values, 1e-6).is_ok(),
            "{:?}", lp.model.check_feasible(&sol.values, 1e-6));
        // At least as good as the witness.
        let witness_obj = lp.model.objective_value(&lp.witness);
        prop_assert!(sol.objective >= witness_obj - 1e-6);
    }

    #[test]
    fn engines_agree(lp in random_lp(7, 7)) {
        let d = DenseSimplex::default().solve(&lp.model).unwrap();
        let r = RevisedSimplex::default().solve(&lp.model).unwrap();
        prop_assert_eq!(d.status, Status::Optimal);
        prop_assert_eq!(r.status, Status::Optimal);
        prop_assert!((d.objective - r.objective).abs() <= 1e-5 * (1.0 + d.objective.abs()),
            "dense {} vs revised {}", d.objective, r.objective);
        prop_assert!(lp.model.check_feasible(&r.values, 1e-6).is_ok());
    }

    #[test]
    fn branch_and_bound_within_relaxation(lp in random_lp(6, 5)) {
        // Mark a prefix of variables integral.
        let mut milp = lp.model.clone();
        let n_int = milp.num_vars() / 2;
        let vars: Vec<_> = milp.var_ids().collect();
        for &var in vars.iter().take(n_int) {
            milp.set_integer(var, true);
        }
        let relax = DenseSimplex::default().solve(&lp.model).unwrap();
        let exact = BranchBound::default().solve(&milp).unwrap();
        if exact.status == Status::Optimal {
            // Objective cannot exceed the relaxation (maximisation).
            prop_assert!(exact.objective <= relax.objective + 1e-5 * (1.0 + relax.objective.abs()));
            // Integer variables are integral.
            for v in milp.integer_vars() {
                let x = exact.values[v.index()];
                prop_assert!((x - x.round()).abs() < 1e-6);
            }
            prop_assert!(milp.check_feasible(&exact.values, 1e-6).is_ok());
        }
    }

    #[test]
    fn warm_context_tracks_cold_under_random_patches(
        lp in random_lp(6, 6),
        patches in random_patches(12),
    ) {
        // Replay a random sequence of in-place deltas (bound tightenings,
        // rhs nudges, coefficient changes) through a WarmSimplex with the
        // cold cross-check oracle armed: every warm solve must match a cold
        // solve of the same model, bit-for-bit in status and to tolerance
        // in objective.
        let mut warm = WarmSimplex::new(lp.model.clone(), RevisedSimplex::default()).unwrap();
        warm.check_against_cold = true;
        prop_assert_eq!(warm.solve().unwrap().status, Status::Optimal);
        for patch in patches {
            apply_patch(&mut warm, patch);
            solve_checked(&mut warm)?;
        }
    }

    #[test]
    fn sparse_warm_context_tracks_cold_under_patch_bursts(
        lp in random_lp(6, 6),
        bursts in proptest::collection::vec(random_patches(41), 1..5),
    ) {
        // The same oracle on the sparse LU, where right-hand-side patches
        // only mark x_B stale and one flush per solve recomputes it: whole
        // *bursts* of mixed patches land between two solves, so coefficient
        // repairs and eviction pivots run on top of a stale x_B.
        let sparse = RevisedSimplex {
            basis_repr: BasisRepr::SparseLu,
            ..RevisedSimplex::default()
        };
        let mut warm = WarmSimplex::new(lp.model.clone(), sparse).unwrap();
        warm.check_against_cold = true;
        let first = warm.solve().unwrap();
        prop_assert_eq!(first.status, Status::Optimal);

        // A designed burst first: pick a variable strictly inside its
        // bounds (basic, and so is its bound slack) and, row by row, nudge
        // the rhs (x_B goes stale) and zero the variable's coefficient (a
        // basic-column repair). The last zeroing collapses the column onto
        // its bound row, parallel to the basic slack, so the rank-1
        // denominator vanishes and the column must be evicted.
        let interior = warm.model().var_ids().find(|&v| {
            let (lo, up) = warm.model().bounds(v);
            first[v] > lo + 1e-6 && first[v] < up - 1e-6
        });
        if let Some(var) = interior {
            for ci in 0..warm.model().num_constraints() {
                let con = ConstraintId::from_index(ci);
                let rhs = warm.model().rhs(con);
                warm.set_rhs(con, rhs + 0.25).unwrap();
                warm.set_coefficient(con, var, 0.0).unwrap();
            }
            solve_checked(&mut warm)?;
        }

        for burst in bursts {
            for patch in burst {
                apply_patch(&mut warm, patch);
            }
            solve_checked(&mut warm)?;
        }
        // However long the bursts, x_B was recomputed at most once a solve.
        let stats = warm.stats();
        prop_assert!(stats.xb_flushes <= stats.solves, "{:?}", stats);
    }

    #[test]
    fn solve_warm_matches_cold_after_tightening(lp in random_lp(6, 6), frac in 0.0f64..1.0) {
        // Basis snapshot / restore across a model rebuild: tighten one
        // bounded variable and re-solve from the old optimal basis.
        let solver = RevisedSimplex::default();
        let (cold0, basis) = solver.solve_with_basis(&lp.model).unwrap();
        prop_assert_eq!(cold0.status, Status::Optimal);
        let Some(basis) = basis else { return Ok(()); };
        let mut child = lp.model.clone();
        let var = VarId::from_index(0);
        let (lo, up) = child.bounds(var);
        child.set_bounds(var, lo, lo + (up - lo) * frac);
        let (warm_sol, _) = solver.solve_warm(&child, &basis).unwrap();
        let cold = DenseSimplex::default().solve(&child).unwrap();
        prop_assert_eq!(warm_sol.status, cold.status);
        if cold.status == Status::Optimal {
            prop_assert!((warm_sol.objective - cold.objective).abs()
                <= 1e-5 * (1.0 + cold.objective.abs()),
                "warm {} vs cold {}", warm_sol.objective, cold.objective);
            prop_assert!(child.check_feasible(&warm_sol.values, 1e-6).is_ok());
        }
    }

    #[test]
    fn warm_branch_and_bound_matches_cold(lp in random_lp(6, 5)) {
        let mut milp = lp.model.clone();
        let vars: Vec<_> = milp.var_ids().collect();
        for &var in vars.iter().take(milp.num_vars() / 2 + 1) {
            milp.set_integer(var, true);
        }
        let warm = BranchBound::default().solve(&milp).unwrap();
        let cold = BranchBound::new(BranchBoundConfig {
            warm_start: false,
            ..BranchBoundConfig::default()
        }).solve(&milp).unwrap();
        prop_assert_eq!(warm.status, cold.status);
        if warm.status == Status::Optimal {
            prop_assert!((warm.objective - cold.objective).abs()
                <= 1e-5 * (1.0 + cold.objective.abs()),
                "warm {} vs cold {}", warm.objective, cold.objective);
            prop_assert!(milp.check_feasible(&warm.values, 1e-6).is_ok());
        }
    }

    #[test]
    fn equality_rows_solved_consistently(
        n in 2usize..5,
        seedvals in proptest::collection::vec(0.1f64..2.0, 5),
    ) {
        // Σ x_j = Σ witness_j with box bounds: both engines must agree.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|j| m.add_var(format!("x{j}"), 0.0, 4.0)).collect();
        let total: f64 = seedvals.iter().take(n).sum();
        for (j, &v) in vars.iter().enumerate() {
            m.set_objective_coef(v, (j + 1) as f64);
        }
        m.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(), ConstraintOp::Eq, total);
        let d = DenseSimplex::default().solve(&m).unwrap();
        let r = RevisedSimplex::default().solve(&m).unwrap();
        prop_assert_eq!(d.status, Status::Optimal);
        prop_assert!((d.objective - r.objective).abs() < 1e-6);
        let sum: f64 = d.values.iter().sum();
        prop_assert!((sum - total).abs() < 1e-6);
    }
}
