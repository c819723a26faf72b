//! The round-off heuristic `LPR` of §5.2.1.
//!
//! Solve the rational relaxation, then round every `β̃_{k,l}` down to
//! `⌊β̃_{k,l}⌋` and clip `α_{k,l}` to the bandwidth the rounded connection
//! count still supports:
//!
//! ```text
//! β̂ = ⌊β̃⌋,   α̂_{k,l} = min(α̃_{k,l}, β̂_{k,l} · minbw_{k,l})
//! ```
//!
//! All Eq. 7 constraints survive the rounding (everything only shrinks), so
//! the result is always a valid allocation — typically a very poor one, as
//! the paper observes (§6.1): on narrow platforms every `β̃ < 1` collapses
//! to zero and the network goes unused.

use super::{Heuristic, UpperBound};
use crate::allocation::{Allocation, FractionalAllocation};
use crate::error::SolveError;
use crate::problem::ProblemInstance;

/// The `LPR` heuristic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lpr;

impl Heuristic for Lpr {
    fn name(&self) -> &'static str {
        "LPR"
    }

    fn solve(&self, inst: &ProblemInstance) -> Result<Allocation, SolveError> {
        let relaxed = UpperBound.solve_fractional(inst)?;
        Ok(round_down(inst, &relaxed))
    }
}

impl Lpr {
    /// Rounds an already-solved relaxation (lets sweeps share one LP solve
    /// between the upper bound, LPR and LPRG).
    pub fn from_relaxation(inst: &ProblemInstance, relaxed: &FractionalAllocation) -> Allocation {
        round_down(inst, relaxed)
    }
}

/// Floors β̃ and clips α accordingly (shared with LPRG).
pub(crate) fn round_down(inst: &ProblemInstance, frac: &FractionalAllocation) -> Allocation {
    let p = &inst.platform;
    let k = frac.k;
    let mut alloc = Allocation::zeros(k);
    for from in p.cluster_ids() {
        for to in p.cluster_ids() {
            let i = from.index() * k + to.index();
            if from == to {
                alloc.alpha[i] = frac.alpha[i];
                continue;
            }
            if frac.alpha[i] <= 0.0 && frac.beta[i] <= 0.0 {
                continue;
            }
            let Some(bw) = p.route_bottleneck_bw(from, to) else {
                continue;
            };
            if bw.is_finite() {
                // Tolerate float dust just below an integer (e.g. 1.9999999
                // floors to 2, matching the intended exact value).
                let rounded = (frac.beta[i] + 1e-9).floor();
                alloc.beta[i] = rounded as u32;
                alloc.alpha[i] = frac.alpha[i].min(rounded * bw);
            } else {
                // Same-router pair: no backbone, no connections needed.
                alloc.alpha[i] = frac.alpha[i];
            }
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::UpperBound;
    use crate::problem::Objective;
    use dls_platform::{ClusterId, PlatformBuilder, PlatformConfig, PlatformGenerator};

    fn c(i: u32) -> ClusterId {
        ClusterId(i)
    }

    #[test]
    fn rounding_keeps_validity() {
        for seed in 0..20 {
            let cfg = PlatformConfig {
                num_clusters: 4 + (seed as usize % 6),
                connectivity: 0.5,
                ..PlatformConfig::default()
            };
            let p = PlatformGenerator::new(seed).generate(&cfg);
            for objective in [Objective::Sum, Objective::MaxMin] {
                let inst = ProblemInstance::uniform(p.clone(), objective);
                let a = Lpr.solve(&inst).unwrap();
                assert!(a.validate(&inst).is_ok(), "{:?}", a.violations(&inst));
            }
        }
    }

    #[test]
    fn lpr_never_beats_the_relaxation() {
        for seed in 0..10 {
            let cfg = PlatformConfig {
                num_clusters: 6,
                connectivity: 0.6,
                ..PlatformConfig::default()
            };
            let p = PlatformGenerator::new(seed).generate(&cfg);
            let inst = ProblemInstance::uniform(p, Objective::Sum);
            let ub = UpperBound.bound(&inst).unwrap();
            let a = Lpr.solve(&inst).unwrap();
            assert!(a.objective_value(&inst) <= ub + 1e-6 * (1.0 + ub));
        }
    }

    #[test]
    fn fractional_connections_collapse_to_zero() {
        // One narrow connection: bw 10 but the local links only allow 5, so
        // β̃ = 0.5 → LPR rounds the network away entirely.
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(10.0, 5.0);
        let c1 = b.add_cluster(1000.0, 5.0);
        b.connect_clusters(c0, c1, 10.0, 3);
        let inst =
            ProblemInstance::new(b.build().unwrap(), vec![1.0, 0.0], Objective::Sum).unwrap();
        let a = Lpr.solve(&inst).unwrap();
        a.validate(&inst).unwrap();
        assert_eq!(a.beta(c(0), c(1)), 0);
        assert_eq!(a.alpha(c(0), c(1)), 0.0);
        // Only the local 10 units remain.
        assert!((a.objective_value(&inst) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn integral_relaxation_survives_rounding_intact() {
        // Wide local links: the LP saturates whole connections, β̃ integral,
        // LPR loses nothing.
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(10.0, 100.0);
        let c1 = b.add_cluster(50.0, 100.0);
        b.connect_clusters(c0, c1, 10.0, 4);
        let inst =
            ProblemInstance::new(b.build().unwrap(), vec![1.0, 0.0], Objective::Sum).unwrap();
        let ub = UpperBound.bound(&inst).unwrap();
        let a = Lpr.solve(&inst).unwrap();
        assert!(
            (a.objective_value(&inst) - ub).abs() < 1e-6,
            "{} vs {ub}",
            a.objective_value(&inst)
        );
    }
}
