//! Error type for the scheduling layer.

use dls_lp::LpError;
use std::fmt;

/// Errors surfaced while solving a steady-state scheduling problem.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are given per variant
pub enum SolveError {
    /// The underlying LP/MILP solver failed (numerical trouble or budget).
    Lp(LpError),
    /// The relaxation reported infeasible/unbounded, which cannot happen for
    /// a well-formed instance (α = 0 is always feasible and throughput is
    /// bounded by `Σ s_k`) — indicates numerical breakdown.
    UnexpectedStatus(&'static str),
    /// Payoff vector length differs from the number of clusters.
    PayoffMismatch { clusters: usize, payoffs: usize },
    /// The produced allocation failed validation (internal bug guard).
    InvalidAllocation(String),
    /// An incremental β pin was rejected (unpinnable route, double pin, or a
    /// formulation built without warm-start support).
    BadPin(&'static str),
    /// `Lprr::oracle_check` only: a re-solve LPRR would have deferred
    /// (the pin fixed β at its LP value) was not a no-op — it spent `work`
    /// pivots/refactorisations/fallbacks or moved some `β̃` by `drift`.
    DeferredSolveMoved { work: u64, drift: f64 },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Lp(e) => write!(f, "LP solver error: {e}"),
            SolveError::UnexpectedStatus(s) => {
                write!(f, "unexpected LP status for a steady-state instance: {s}")
            }
            SolveError::PayoffMismatch { clusters, payoffs } => {
                write!(f, "{payoffs} payoffs supplied for {clusters} clusters")
            }
            SolveError::InvalidAllocation(why) => {
                write!(f, "heuristic produced an invalid allocation: {why}")
            }
            SolveError::BadPin(why) => {
                write!(f, "cannot pin β on this formulation: {why}")
            }
            SolveError::DeferredSolveMoved { work, drift } => {
                write!(
                    f,
                    "deferred LPRR re-solve was not a no-op: {work} pivots/refactorisations, \
                     β̃ moved by {drift}"
                )
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<LpError> for SolveError {
    fn from(e: LpError) -> Self {
        SolveError::Lp(e)
    }
}
