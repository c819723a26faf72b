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
//! * [`revised_simplex::RevisedSimplex`] — a revised primal/dual simplex
//!   over sparse column storage with a sparse LU (or, as the retained
//!   oracle, dense-inverse) basis factorisation, used past the tableau's
//!   measured crossover ([`AUTO_DENSE_LIMIT`]) and by every warm context;
//! * [`branch_bound::BranchBound`] — best-first branch-and-bound over either
//!   solver, giving exact optima of the *mixed* program on small instances
//!   (the paper only bounds the optimum; the exact solver lets our tests
//!   verify the NP-completeness reduction end-to-end);
//! * [`solve_auto`] — the one-shot cold solve: the solver is picked by
//!   problem size ([`resolve_engine`]), not by a setting.
//!
//! Both simplex implementations share the same [`standard::StandardForm`]
//! lowering (bounded variables, slack/artificial augmentation) and are
//! cross-checked against each other by property tests. Their tuning (pivot
//! caps, the Bland stall limit, the refactorisation interval) is constants,
//! not options.
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

/// Implements `Clone` for a struct field by field, with a `clone_from` that
/// forwards to each field's own `clone_from`. `Vec`, `String`, `Box`,
/// `Option` and `BinaryHeap` keep their heap blocks there, so refreshing a
/// warm context from another (the pin sweep does it before every probe)
/// copies values instead of re-allocating thousands of small blocks. Both
/// methods destructure the struct exhaustively: a field added later is a
/// compile error here, not a stale copy.
///
/// The `enum` arm covers enums whose variants each hold one value: equal
/// variants refresh in place, different ones fall back to `clone`.
macro_rules! clone_in_place {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Clone for $ty {
            #[inline]
            fn clone(&self) -> Self {
                let $ty { $($field),+ } = self;
                $ty { $($field: Clone::clone($field)),+ }
            }

            #[inline]
            fn clone_from(&mut self, source: &Self) {
                let $ty { $($field),+ } = self;
                $(Clone::clone_from($field, &source.$field);)+
            }
        }
    };
    (enum $ty:ident { $($variant:ident),+ $(,)? }) => {
        impl Clone for $ty {
            #[inline]
            fn clone(&self) -> Self {
                match self {
                    $($ty::$variant(x) => $ty::$variant(Clone::clone(x)),)+
                }
            }

            #[inline]
            fn clone_from(&mut self, source: &Self) {
                match (self, source) {
                    $(($ty::$variant(to), $ty::$variant(from)) => Clone::clone_from(to, from),)+
                    (to, from) => *to = Clone::clone(from),
                }
            }
        }
    };
}

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

/// Pivots without objective improvement before either simplex switches to
/// Bland's rule (anti-cycling).
pub(crate) const STALL_LIMIT: usize = 256;

/// Per-phase pivot cap for a standard form with `m` rows and `n_cols`
/// columns. Both simplex engines (and the dual/warm phases) use this
/// size-scaled cap on the dense representations, so no solve can loop
/// forever — a pathological instance surfaces [`LpError::IterationLimit`]
/// instead.
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
/// relaxation (m ≈ 630) sits below this switch, but its one-shot cold
/// solves go through [`solve_auto`], which selects the sparse LU
/// explicitly past [`AUTO_DENSE_LIMIT`]; `dls_core` pins all three facts in
/// a test.
///
/// "Always sparse" (`SPARSE_MIN_ROWS = 0`) was measured and is a
/// regression today: on the benchmark's `serve_small` workload (K=5
/// tenants, trivial LPs, one warm context each) `peak_rss_mb` went
/// 360.8 / 360.6 / 360.9 → 429.5 / 429.7 / 434.2 MiB over three
/// alternating pairs (+19 % against a 10 % bound; `op_p50_ms` +17 %) with
/// every check still passing — `SparseLu`'s per-context footprint at tiny
/// `m` is what keeps the dense inverse. Measured with a finished tenant at
/// ≈ 31 KB of live heap (`tests/tenant_footprint.rs`); the sparse factor's
/// cost is a larger share the smaller the rest of the tenant gets.
pub const SPARSE_MIN_ROWS: usize = 2048;

/// The cold-solve engine [`resolve_engine`] picks for a model by its size.
/// A result, not a setting: callers that solve a sequence of related models
/// take it once from the first and hand it to [`solve_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Dense tableau simplex (reference implementation, and the fastest
    /// engine on small models): up to [`AUTO_DENSE_LIMIT`] tableau cells.
    Dense,
    /// Revised simplex with the sparse LU basis factorisation (Markowitz
    /// pivoting + eta-file updates) — the engine for everything past the
    /// tableau's crossover.
    Sparse,
}

/// Tableau size (standard-form rows × columns) above which [`solve_auto`]
/// leaves the dense tableau for the sparse LU: the measured crossover of a
/// one-shot cold solve of the paper-shape relaxation, as `perf lp` records
/// it in `BENCH_lp.json`'s `crossover` section (seed 42, median cold
/// solve per engine over ≥ 9 solves and ≥ 100 ms, ms, 2-core x86-64
/// sandbox):
///
/// ```text
///   K   rows      cells    Dense   Revised   Sparse
///   5     18        972   0.0134    0.0168   0.0213
///   8     37      5 143   0.055     0.063    0.079
///  10     47      9 165   0.097     0.109    0.133
///  15     83     32 536   0.336     0.367    0.397
///  20    140     95 340   0.865     0.797    0.981
///  25    202    208 060   2.33      1.63     1.55
///  35    338    642 876   7.29      3.82     2.54
///  50    628  2 359 396  42.8      21.8      7.83
/// ```
///
/// The tableau wins by 9–25 % up to ~3·10⁴ cells, loses from ~2·10⁵ and by
/// 5.5× at the paper's own K = 50; the limit sits between the two
/// measured sizes that bracket the crossover. The dense-inverse revised
/// engine leads only at K = 20, by 8 %, so no cold solve picks it (it stays
/// the warm contexts' [`BasisRepr::DenseInverse`] below
/// [`SPARSE_MIN_ROWS`]). Re-measure with
/// `cargo run --release -p dls_bench --bin perf -- lp` (the `crossover`
/// rows carry `k`, `rows`, `cells` and `timing_ms` per engine) and move the
/// constant if the bracket moves.
///
/// This sizes *cold* solves only; which factorisation a warm context keeps
/// is [`BasisRepr::Auto`]'s separate row-count switch
/// ([`SPARSE_MIN_ROWS`]).
pub const AUTO_DENSE_LIMIT: usize = 150_000;

/// Solves a pure LP (integrality marks ignored) with the engine chosen by
/// problem size ([`resolve_engine`]).
pub fn solve_auto(model: &Model) -> Result<Solution, LpError> {
    solve_with(model, resolve_engine(model))
}

/// The engine [`solve_auto`] uses for a model: [`Engine::Dense`] up to
/// [`AUTO_DENSE_LIMIT`] tableau cells (sized from the model, without
/// lowering it), [`Engine::Sparse`] above. Callers that solve a *sequence*
/// of related models (LPRR's cold rounding loop, branch-and-bound trees)
/// resolve once up front and reuse the result, so one run never straddles
/// both engines as in-place deltas change the model's size.
pub fn resolve_engine(model: &Model) -> Engine {
    let (_, cells) = tableau_size(model);
    if cells > AUTO_DENSE_LIMIT {
        Engine::Sparse
    } else {
        Engine::Dense
    }
}

/// `(rows, cells)` of the dense tableau `model` lowers to — the size
/// [`resolve_engine`] compares against [`AUTO_DENSE_LIMIT`], computed from
/// the model without lowering it.
pub fn tableau_size(model: &Model) -> (usize, usize) {
    let sf_rows = model.num_constraints() + model.num_upper_bounded_vars();
    let sf_cols = model.num_vars() + 2 * sf_rows;
    (sf_rows, sf_rows.saturating_mul(sf_cols))
}

/// Solves a pure LP (integrality marks ignored) on an engine
/// [`resolve_engine`] picked earlier.
pub fn solve_with(model: &Model, engine: Engine) -> Result<Solution, LpError> {
    match engine {
        Engine::Dense => DenseSimplex.solve(model),
        Engine::Sparse => RevisedSimplex {
            basis_repr: BasisRepr::SparseLu,
        }
        .solve(model),
    }
}

/// Bit equality up to the sign of zero — what the kernel oracles hold a
/// non-zero-following kernel to against the dense sweep it replaced.
#[cfg(test)]
pub(crate) fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
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
