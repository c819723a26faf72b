//! Exact solution of the mixed program by branch-and-bound.
//!
//! The paper proves STEADY-STATE-DIVISIBLE-LOAD NP-complete and therefore
//! never computes the true optimum ("solving the mixed LP problem for the
//! optimal solution takes exponential time; consequently we cannot use it in
//! practice"). On small platforms we *can*: this solver feeds the explicit
//! Eq. 7 formulation (integer `β` variables) to the branch-and-bound layer
//! of `dls-lp`. Our tests use it to verify the NP-completeness reduction
//! end-to-end and to measure the true optimality gap of the heuristics at
//! small `K`.

use super::Heuristic;
use crate::allocation::Allocation;
use crate::error::SolveError;
use crate::formulation::LpFormulation;
use crate::problem::ProblemInstance;
use dls_lp::{BranchBound, Status};

/// Exact mixed-integer solver (exponential; intended for `K ≲ 8`), on the
/// default warm-started [`BranchBound`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactMilp;

impl Heuristic for ExactMilp {
    fn name(&self) -> &'static str {
        "MILP"
    }

    fn solve(&self, inst: &ProblemInstance) -> Result<Allocation, SolveError> {
        let f = LpFormulation::mixed(inst)?;
        let sol = BranchBound::default().solve(&f.model)?;
        match sol.status {
            Status::Optimal => {}
            Status::Infeasible => return Err(SolveError::UnexpectedStatus("infeasible")),
            Status::Unbounded => return Err(SolveError::UnexpectedStatus("unbounded")),
        }
        let p = &inst.platform;
        let k = p.num_clusters();
        let mut alloc = Allocation::zeros(k);
        for from in p.cluster_ids() {
            for to in p.cluster_ids() {
                let i = from.index() * k + to.index();
                if let Some(av) = f.alpha_var(from, to) {
                    alloc.alpha[i] = sol.values[av.index()].max(0.0);
                }
                if let Some(bv) = f.beta_var(from, to) {
                    alloc.beta[i] = sol.values[bv.index()].round().max(0.0) as u32;
                }
            }
        }
        Ok(alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{Greedy, Lpr, Lprg, UpperBound};
    use crate::problem::Objective;
    use dls_platform::{ClusterId, PlatformBuilder, PlatformConfig, PlatformGenerator};

    #[test]
    fn exact_beats_heuristics_and_respects_bound() {
        for seed in 0..6 {
            let cfg = PlatformConfig {
                num_clusters: 4,
                connectivity: 0.6,
                ..PlatformConfig::default()
            };
            let p = PlatformGenerator::new(seed).generate(&cfg);
            for objective in [Objective::Sum, Objective::MaxMin] {
                let inst = ProblemInstance::uniform(p.clone(), objective);
                let exact = ExactMilp.solve(&inst).unwrap();
                assert!(
                    exact.validate(&inst).is_ok(),
                    "{:?}",
                    exact.violations(&inst)
                );
                let opt = exact.objective_value(&inst);
                let ub = UpperBound.bound(&inst).unwrap();
                assert!(
                    opt <= ub + 1e-5 * (1.0 + ub),
                    "MILP {opt} above LP bound {ub}"
                );
                let (g, lpr, lprg) = (Greedy, Lpr, Lprg);
                let heuristics: [&dyn Heuristic; 3] = [&g, &lpr, &lprg];
                for h in heuristics {
                    let v = h.solve(&inst).unwrap().objective_value(&inst);
                    assert!(
                        v <= opt + 1e-5 * (1.0 + opt.abs()),
                        "{} = {v} beats the exact optimum {opt} ({objective:?}, seed {seed})",
                        h.name()
                    );
                }
            }
        }
    }

    #[test]
    fn exact_finds_the_obvious_optimum() {
        // Single connection of bw 10 between a working and an idle cluster:
        // optimum is exactly s_0 + min(g, bw, g, s_1) with β = 1.
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(10.0, 30.0);
        let c1 = b.add_cluster(100.0, 30.0);
        b.connect_clusters(c0, c1, 10.0, 1);
        let inst =
            ProblemInstance::new(b.build().unwrap(), vec![1.0, 0.0], Objective::Sum).unwrap();
        let a = ExactMilp.solve(&inst).unwrap();
        assert!((a.objective_value(&inst) - 20.0).abs() < 1e-6);
        assert_eq!(a.beta(ClusterId(0), ClusterId(1)), 1);
    }
}
