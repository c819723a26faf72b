#![warn(missing_docs)]

//! # dls-lp — from-scratch linear and mixed-integer programming
//!
//! The divisible-load steady-state problem of Marchal et al. (IPDPS 2005,
//! Eq. 7) is a mixed integer/rational linear program. The paper solved its
//! rational relaxation with the `lp_solve` C library; this crate is the
//! equivalent substrate built from scratch in Rust:
//!
//! * [`Model`] — a small modelling layer (variables with bounds, linear
//!   constraints, maximise/minimise objectives, integer marking);
//! * [`dense_simplex::DenseSimplex`] — a two-phase primal simplex on a dense
//!   tableau, the robust reference implementation for small and medium
//!   problems;
//! * [`revised_simplex::RevisedSimplex`] — a revised primal simplex with a
//!   dense basis inverse and sparse column storage, used for the large
//!   platforms of the paper's sweep (thousands of rows);
//! * [`branch_bound::BranchBound`] — best-first branch-and-bound over either
//!   solver, giving exact optima of the *mixed* program on small instances
//!   (the paper only bounds the optimum; the exact solver lets our tests
//!   verify the NP-completeness reduction end-to-end);
//! * [`solve_auto`] — picks a solver by problem size.
//!
//! Both simplex implementations share the same [`standard::StandardForm`]
//! lowering (bounded variables, slack/artificial augmentation) and are
//! cross-checked against each other by property tests.
//!
//! ## Example
//!
//! ```
//! use dls_lp::{Model, Sense, ConstraintOp, solve_auto};
//!
//! // maximise 3x + 2y  s.t.  x + y ≤ 4,  x + 3y ≤ 6,  x,y ≥ 0
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", 0.0, f64::INFINITY);
//! let y = m.add_var("y", 0.0, f64::INFINITY);
//! m.set_objective_coef(x, 3.0);
//! m.set_objective_coef(y, 2.0);
//! m.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
//! m.add_constraint(vec![(x, 1.0), (y, 3.0)], ConstraintOp::Le, 6.0);
//! let sol = solve_auto(&m).unwrap();
//! assert!((sol.objective - 12.0).abs() < 1e-7);
//! assert!((sol[x] - 4.0).abs() < 1e-7);
//! ```

pub mod branch_bound;
pub mod dense_simplex;
pub mod error;
pub mod model;
pub mod revised_simplex;
pub mod solution;
pub(crate) mod sparse_lu;
pub mod standard;
pub mod warm;

pub use branch_bound::{BranchBound, BranchBoundConfig};
pub use dense_simplex::DenseSimplex;
pub use error::LpError;
pub use model::{ConstraintId, ConstraintOp, LinExpr, Model, Sense, VarId};
pub use revised_simplex::{BasisRepr, RevisedSimplex};
pub use solution::{Solution, Status};
pub use warm::{Basis, FactorStats, InjectedFault, WarmSimplex, WarmStats};

/// Feasibility tolerance: a constraint is satisfied if violated by at most
/// this amount (absolute, after row scaling).
pub const FEAS_TOL: f64 = 1e-7;

/// Pivot tolerance: tableau/column entries smaller than this are treated as
/// zero during the ratio test.
pub const PIVOT_TOL: f64 = 1e-9;

/// Reduced-cost tolerance for optimality.
pub const COST_TOL: f64 = 1e-8;

/// Integrality tolerance used by branch-and-bound.
pub const INT_TOL: f64 = 1e-6;

/// Default per-phase pivot cap for a standard form with `m` rows and
/// `n_cols` columns. Both simplex engines (and the dual/warm phases) fall
/// back to this size-scaled cap when `max_iterations` is `None`, so no solve
/// can loop forever — a pathological instance surfaces
/// [`LpError::IterationLimit`] instead.
pub fn scaled_iteration_cap(m: usize, n_cols: usize) -> usize {
    500 + 50 * (m + n_cols)
}

/// Per-phase pivot cap for the **sparse** basis representation.
///
/// `scaled_iteration_cap` was tuned for the dense engine, where the O(m²)
/// per-pivot cost makes any solve that needs more than ~50·(m+n) pivots
/// intractable anyway, so the cap doubles as a runtime guard. The sparse
/// engine changes the trade-off: per-pivot cost is closer to O(nnz), so a
/// phase-1 on a large block-structured platform (K in the thousands, m in
/// the tens of thousands) can legitimately take more pivots than the dense
/// formula allows while still finishing in seconds — with the dense cap it
/// spuriously hits [`LpError::IterationLimit`].
///
/// Derivation: practical simplex folklore (and our bench instances) put the
/// expected pivot count between m and 3·(m + n) for non-degenerate
/// problems; phase 1 on a basis of all artificials needs at least one pivot
/// per row just to evict them, and degenerate ties under the Bland
/// anti-cycling fallback can multiply that by a small constant. We take
/// double the dense formula's slope (100 per row/column) plus a larger
/// constant floor so tiny models keep generous headroom:
///
/// ```text
/// cap_sparse(m, n_cols) = 2_000 + 100 · (m + n_cols)
/// ```
///
/// At K=5000 (m ≈ 67 000, n_cols ≈ 210 000) this allows ~28 M pivots — far
/// above the observed ~1·m pivot counts — while still bounding a cycling
/// pathological instance to hours rather than forever.
pub fn sparse_iteration_cap(m: usize, n_cols: usize) -> usize {
    2_000 + 100 * (m + n_cols)
}

/// Row-count threshold at which [`BasisRepr::Auto`] switches the revised
/// simplex from the dense basis inverse to the sparse LU factorisation.
/// What counts is the *lowered* row count, and the warm relaxation carries
/// one bound row per pre-materialised α cap (~K² of them): measured on
/// paper-shape platforms, warm models have m ≈ 1 530 at K=35 and ≈ 1 990
/// at K=40 (dense inverse, so the committed K ≤ 35 baselines keep
/// bit-identical dense arithmetic), but m ≈ 2 190 at K=42 and ≈ 3 080 at
/// K=50 — LPRR's pin replay and the online `WarmLprg` resolver at the
/// paper's own scale already run on the sparse factor, as does the large-K
/// platform axis (K ≥ 200 island platforms, m ≳ 2 700). The *plain* K=50
/// relaxation (m ≈ 630) stays dense; `dls_core` pins both facts in a test.
pub const SPARSE_MIN_ROWS: usize = 2048;

/// Solver engine selection for [`solve_with`] and the branch-and-bound layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Dense tableau simplex (reference implementation).
    Dense,
    /// Revised simplex with dense basis inverse (large problems). Retained
    /// as the cross-checked oracle for [`Engine::Sparse`], the same pattern
    /// as the simulator's `FullRecompute` engine.
    Revised,
    /// Revised simplex with the sparse LU basis factorisation (Markowitz
    /// pivoting + eta-file updates) — the large-platform engine.
    Sparse,
    /// Choose by problem size: dense below [`AUTO_DENSE_LIMIT`] tableau
    /// cells; above that, sparse when the standard form has at least
    /// [`SPARSE_MIN_ROWS`] rows, revised (dense inverse) otherwise.
    Auto,
}

/// Problems whose tableau would have more cells than this are routed to the
/// revised simplex by [`Engine::Auto`].
pub const AUTO_DENSE_LIMIT: usize = 4_000_000;

/// Solves a pure LP (integrality marks ignored) with the engine chosen by
/// problem size.
pub fn solve_auto(model: &Model) -> Result<Solution, LpError> {
    solve_with(model, Engine::Auto)
}

/// Resolves [`Engine::Auto`]'s size-based choice for a model: the concrete
/// engine `solve_with` would use. Callers that solve a *sequence* of related
/// models (LPRR's rounding loop, branch-and-bound trees) should resolve once
/// up front and reuse the result, so one run never straddles both engines as
/// in-place deltas change the model's size.
pub fn resolve_engine(model: &Model) -> Engine {
    let sf_rows = model.num_constraints() + model.num_upper_bounded_vars();
    let sf_cols = model.num_vars() + 2 * sf_rows;
    if sf_rows.saturating_mul(sf_cols) > AUTO_DENSE_LIMIT {
        if sf_rows >= SPARSE_MIN_ROWS {
            Engine::Sparse
        } else {
            Engine::Revised
        }
    } else {
        Engine::Dense
    }
}

/// Solves a pure LP (integrality marks ignored) with an explicit engine.
pub fn solve_with(model: &Model, engine: Engine) -> Result<Solution, LpError> {
    let engine = match engine {
        Engine::Auto => resolve_engine(model),
        e => e,
    };
    match engine {
        Engine::Dense => DenseSimplex::default().solve(model),
        Engine::Revised => RevisedSimplex {
            basis_repr: BasisRepr::DenseInverse,
            ..Default::default()
        }
        .solve(model),
        Engine::Sparse => RevisedSimplex {
            basis_repr: BasisRepr::SparseLu,
            ..Default::default()
        }
        .solve(model),
        Engine::Auto => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_dispatch_small_problem() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0);
        m.set_objective_coef(x, 1.0);
        let sol = solve_auto(&m).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 10.0).abs() < 1e-7);
    }
}
