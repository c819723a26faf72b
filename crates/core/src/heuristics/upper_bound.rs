//! The paper's `LP` comparator: the rational relaxation of Eq. 7.
//!
//! Solving the β-eliminated relaxation yields an upper bound on the optimal
//! throughput of the mixed program — the yardstick every heuristic is
//! measured against in §6. The fractional `(α̃, β̃)` pair is *not* a valid
//! allocation (connection counts are fractional), which is why this type
//! does not implement [`super::Heuristic`].

use crate::allocation::FractionalAllocation;
use crate::error::SolveError;
use crate::formulation::LpFormulation;
use crate::problem::ProblemInstance;
use dls_lp::{solve_auto, Status};

/// The rational-relaxation upper bound (`LP` in the paper's figures),
/// solved by [`solve_auto`]: the engine follows the model's size.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpperBound;

impl UpperBound {
    /// The optimal objective of the rational relaxation.
    pub fn bound(&self, inst: &ProblemInstance) -> Result<f64, SolveError> {
        Ok(self.solve_fractional(inst)?.objective)
    }

    /// Full fractional solution `(α̃, β̃)`.
    pub fn solve_fractional(
        &self,
        inst: &ProblemInstance,
    ) -> Result<FractionalAllocation, SolveError> {
        let f = LpFormulation::relaxation(inst)?;
        let sol = solve_auto(&f.model)?;
        match sol.status {
            Status::Optimal => Ok(f.extract_fractional(&sol)),
            Status::Infeasible => Err(SolveError::UnexpectedStatus("infeasible")),
            Status::Unbounded => Err(SolveError::UnexpectedStatus("unbounded")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Objective;
    use dls_platform::{PlatformConfig, PlatformGenerator};

    #[test]
    fn bound_dominates_total_local_speed_under_sum() {
        // With uniform payoffs, running everything locally achieves Σ s_k;
        // the relaxation can only do at least as well — and never more than
        // Σ s_k, since total compute is the binding resource for SUM.
        let cfg = PlatformConfig {
            num_clusters: 8,
            connectivity: 0.7,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(3).generate(&cfg);
        let inst = ProblemInstance::uniform(p, Objective::Sum);
        let ub = UpperBound.bound(&inst).unwrap();
        let total: f64 = inst.platform.clusters.iter().map(|c| c.speed).sum();
        assert!((ub - total).abs() < 1e-5, "ub {ub} vs Σs {total}");
    }

    #[test]
    fn solvers_agree_on_the_bound() {
        use dls_lp::{BasisRepr, DenseSimplex, RevisedSimplex};
        let cfg = PlatformConfig {
            num_clusters: 7,
            connectivity: 0.5,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(9).generate(&cfg);
        for objective in [Objective::Sum, Objective::MaxMin] {
            let inst = ProblemInstance::uniform(p.clone(), objective);
            let bound = UpperBound.bound(&inst).unwrap();
            let model = LpFormulation::relaxation(&inst).unwrap().model;
            let revised = |basis_repr| RevisedSimplex { basis_repr }.solve(&model).unwrap();
            for (solver, sol) in [
                ("dense", DenseSimplex.solve(&model).unwrap()),
                ("revised", revised(BasisRepr::DenseInverse)),
                ("sparse", revised(BasisRepr::SparseLu)),
            ] {
                assert!(
                    (sol.objective - bound).abs() < 1e-5 * (1.0 + bound.abs()),
                    "{solver} {} vs bound {bound} ({objective:?})",
                    sol.objective
                );
            }
        }
    }

    #[test]
    fn maxmin_bound_at_least_local_minimum() {
        let cfg = PlatformConfig {
            num_clusters: 6,
            connectivity: 0.4,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(17).generate(&cfg);
        let inst = ProblemInstance::uniform(p, Objective::MaxMin);
        let ub = UpperBound.bound(&inst).unwrap();
        // Each app can run locally at speed 100, so MAXMIN ≥ 100.
        assert!(ub >= 100.0 - 1e-6);
    }
}
