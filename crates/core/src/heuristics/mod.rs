//! The paper's polynomial heuristics (§5), the LP upper bound and our exact
//! branch-and-bound solver.

mod exact;
mod greedy;
mod lpr;
mod lprg;
mod lprr;
mod pin_sweep;
mod upper_bound;

pub use exact::ExactMilp;
pub use greedy::Greedy;
pub use lpr::Lpr;
pub use lprg::Lprg;
pub use lprr::{Lprr, LprrWork, RoundingRule};
pub use pin_sweep::{PinProbe, PinSweepReport};
pub use upper_bound::UpperBound;

use crate::allocation::Allocation;
use crate::error::SolveError;
use crate::problem::ProblemInstance;

/// A steady-state scheduling heuristic: produces a *valid allocation*
/// (integral β, Eq. 7 satisfied) for any well-formed instance.
pub trait Heuristic {
    /// Short name used in experiment reports (`"G"`, `"LPR"`, …).
    fn name(&self) -> &'static str;

    /// Computes an allocation. Implementations guarantee validity; the
    /// experiment harness re-validates in debug builds.
    fn solve(&self, inst: &ProblemInstance) -> Result<Allocation, SolveError>;
}
