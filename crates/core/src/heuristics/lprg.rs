//! The `LPRG` heuristic of §5.2.2: LP round-off refined by the greedy.
//!
//! `LPR` throws away whatever network capacity the floor operation frees;
//! `LPRG` reclaims it by running the greedy heuristic `G` on the *residual*
//! platform (speeds, local links and connection budgets debited by the
//! rounded allocation). The LP provides the global structure, the greedy
//! mops up locally — the paper's best cost/quality trade-off.

use super::greedy::Greedy;
use super::lpr::round_down;
use super::{Heuristic, UpperBound};
use crate::allocation::Allocation;
use crate::error::SolveError;
use crate::problem::ProblemInstance;
use crate::residual::ResidualPlatform;

/// The `LPRG` heuristic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lprg;

impl Heuristic for Lprg {
    fn name(&self) -> &'static str {
        "LPRG"
    }

    fn solve(&self, inst: &ProblemInstance) -> Result<Allocation, SolveError> {
        let relaxed = UpperBound.solve_fractional(inst)?;
        Ok(self.from_relaxation(inst, &relaxed))
    }
}

impl Lprg {
    /// Refines an already-solved relaxation (lets sweeps share one LP solve
    /// between the upper bound, LPR and LPRG).
    pub fn from_relaxation(
        &self,
        inst: &ProblemInstance,
        relaxed: &crate::allocation::FractionalAllocation,
    ) -> Allocation {
        let mut alloc = round_down(inst, relaxed);
        let mut residual = ResidualPlatform::after(&inst.platform, &alloc);
        Greedy.run(inst, &mut residual, &mut alloc);
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{Greedy, Lpr};
    use crate::problem::Objective;
    use dls_platform::{PlatformConfig, PlatformGenerator};

    #[test]
    fn lprg_valid_and_dominates_lpr() {
        for seed in 0..20 {
            let cfg = PlatformConfig {
                num_clusters: 4 + (seed as usize % 6),
                connectivity: 0.4,
                ..PlatformConfig::default()
            };
            let p = PlatformGenerator::new(seed).generate(&cfg);
            for objective in [Objective::Sum, Objective::MaxMin] {
                let inst = ProblemInstance::uniform(p.clone(), objective);
                let lpr = Lpr.solve(&inst).unwrap();
                let lprg = Lprg.solve(&inst).unwrap();
                assert!(lprg.validate(&inst).is_ok(), "{:?}", lprg.violations(&inst));
                assert!(
                    lprg.objective_value(&inst) >= lpr.objective_value(&inst) - 1e-6,
                    "seed {seed} {objective:?}: LPRG {} < LPR {}",
                    lprg.objective_value(&inst),
                    lpr.objective_value(&inst)
                );
            }
        }
    }

    #[test]
    fn lprg_within_upper_bound() {
        for seed in 0..10 {
            let cfg = PlatformConfig {
                num_clusters: 7,
                connectivity: 0.6,
                ..PlatformConfig::default()
            };
            let p = PlatformGenerator::new(100 + seed).generate(&cfg);
            for objective in [Objective::Sum, Objective::MaxMin] {
                let inst = ProblemInstance::uniform(p.clone(), objective);
                let ub = UpperBound.bound(&inst).unwrap();
                let a = Lprg.solve(&inst).unwrap();
                let v = a.objective_value(&inst);
                assert!(v <= ub + 1e-6 * (1.0 + ub), "LPRG {v} above bound {ub}");
            }
        }
    }

    #[test]
    fn lprg_close_to_bound_for_sum() {
        // §6.1: LPRG is near-optimal for SUM. On saturated platforms
        // (uniform payoffs, every cluster busy locally) it should achieve
        // the Σ s_k bound up to rounding loss.
        let mut close = 0;
        let total = 10;
        for seed in 0..total {
            let cfg = PlatformConfig {
                num_clusters: 10,
                connectivity: 0.5,
                ..PlatformConfig::default()
            };
            let p = PlatformGenerator::new(200 + seed).generate(&cfg);
            let inst = ProblemInstance::uniform(p, Objective::Sum);
            let ub = UpperBound.bound(&inst).unwrap();
            let v = Lprg.solve(&inst).unwrap().objective_value(&inst);
            if v >= 0.95 * ub {
                close += 1;
            }
        }
        assert!(
            close >= 8,
            "LPRG near the bound on only {close}/{total} platforms"
        );
    }

    #[test]
    fn greedy_refinement_uses_leftover_network() {
        // Narrow local links make β̃ fractional → LPR drops the network;
        // LPRG must reclaim at least one connection via the greedy pass.
        use dls_platform::PlatformBuilder;
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(10.0, 5.0);
        let c1 = b.add_cluster(1000.0, 5.0);
        b.connect_clusters(c0, c1, 10.0, 3);
        let inst =
            ProblemInstance::new(b.build().unwrap(), vec![1.0, 0.0], Objective::Sum).unwrap();
        let lpr_v = Lpr.solve(&inst).unwrap().objective_value(&inst);
        let lprg_v = Lprg.solve(&inst).unwrap().objective_value(&inst);
        // Greedy ships min(g0, bw, g1, s1) = 5 over one connection.
        assert!((lpr_v - 10.0).abs() < 1e-6);
        assert!((lprg_v - 15.0).abs() < 1e-6, "LPRG {lprg_v}");
        // And matches plain greedy here.
        let g_v = Greedy.solve(&inst).unwrap().objective_value(&inst);
        assert!((lprg_v - g_v).abs() < 1e-9);
    }
}
