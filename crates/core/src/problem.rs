//! Problem instances: a platform plus per-application payoffs and an
//! objective.

use crate::error::SolveError;
use dls_platform::{ClusterId, Platform, PlatformConfig, PlatformGenerator};
use serde::{Deserialize, Serialize};

/// The two objective functions of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Maximise the total payoff `Σ_k π_k·α_k` (Eq. 5).
    Sum,
    /// Maximise the minimum payoff `min_k π_k·α_k` over applications with
    /// `π_k > 0` (Eq. 6, MAX-MIN fairness). Applications with zero payoff
    /// are excluded from the min — the paper itself sets `π_k = 0` for
    /// clusters that "do not wish to execute" an application, which only
    /// makes sense if they do not drag the min to zero.
    MaxMin,
}

/// The paper-shape instance: a generated platform at the centre of the
/// paper's Table 1 parameter grid with `k` clusters, MAXMIN, and payoffs
/// spread over `U[0.5, 1.5]` so that transfers matter (uniform payoffs on
/// equal-speed clusters keep everything local). Deterministic in `seed`;
/// the scenario catalog, the simulator's and LP's goldens and the benchmark
/// all draw their paper-shape inputs from here.
pub fn paper_shape_instance(k: usize, seed: u64) -> ProblemInstance {
    let cfg = PlatformConfig {
        num_clusters: k,
        connectivity: 0.4,
        heterogeneity: 0.4,
        mean_local_bw: 250.0,
        mean_backbone_bw: 30.0,
        mean_max_connections: 15.0,
        speed: 100.0,
        relay_routers: 0,
    };
    ProblemInstance::with_spread_payoffs(
        PlatformGenerator::new(seed).generate(&cfg),
        Objective::MaxMin,
        0.5,
        seed ^ 0x9e37_79b9_7f4a_7c15,
    )
}

/// A steady-state scheduling instance: `K` divisible-load applications, one
/// originating at each cluster, with payoff factors `π_k` quantifying their
/// relative worth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProblemInstance {
    /// The platform (clusters, links, routing).
    pub platform: Platform,
    /// Payoff factor `π_k` per application (`len == K`, all ≥ 0).
    pub payoffs: Vec<f64>,
    /// Objective function to optimise.
    pub objective: Objective,
}

impl ProblemInstance {
    /// Builds an instance, validating the payoff vector.
    pub fn new(
        platform: Platform,
        payoffs: Vec<f64>,
        objective: Objective,
    ) -> Result<Self, SolveError> {
        if payoffs.len() != platform.num_clusters() {
            return Err(SolveError::PayoffMismatch {
                clusters: platform.num_clusters(),
                payoffs: payoffs.len(),
            });
        }
        Ok(ProblemInstance {
            platform,
            payoffs,
            objective,
        })
    }

    /// Instance with uniform payoffs `π_k = 1`.
    ///
    /// Note for experiment design: with uniform payoffs **and** the paper's
    /// equal cluster speeds, both objectives are degenerate — every
    /// application can saturate its own cluster locally, so the SUM optimum
    /// is `Σ s_k` and the MAXMIN optimum is `min_k s_k`, both achievable
    /// with no network traffic at all. The evaluation harness therefore
    /// samples heterogeneous payoffs (see
    /// [`ProblemInstance::with_spread_payoffs`]), which makes transfers
    /// essential and reproduces the paper's observed heuristic gaps.
    pub fn uniform(platform: Platform, objective: Objective) -> Self {
        let payoffs = vec![1.0; platform.num_clusters()];
        ProblemInstance {
            platform,
            payoffs,
            objective,
        }
    }

    /// Instance with payoffs drawn i.i.d. from `U[1 − spread, 1 + spread]`
    /// (seeded, deterministic). `spread = 0` reduces to
    /// [`ProblemInstance::uniform`].
    pub fn with_spread_payoffs(
        platform: Platform,
        objective: Objective,
        spread: f64,
        seed: u64,
    ) -> Self {
        use rand::{Rng, SeedableRng};
        let spread = spread.clamp(0.0, 0.999);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let payoffs = (0..platform.num_clusters())
            .map(|_| {
                if spread == 0.0 {
                    1.0
                } else {
                    rng.gen_range(1.0 - spread..1.0 + spread)
                }
            })
            .collect();
        ProblemInstance {
            platform,
            payoffs,
            objective,
        }
    }

    /// Number of applications `K` (one per cluster).
    pub fn num_apps(&self) -> usize {
        self.platform.num_clusters()
    }

    /// Payoff of application `k`.
    pub fn payoff(&self, k: ClusterId) -> f64 {
        self.payoffs[k.index()]
    }

    /// Applications that take part in the objective (`π_k > 0`).
    pub fn active_apps(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.platform
            .cluster_ids()
            .filter(move |k| self.payoffs[k.index()] > 0.0)
    }

    /// Objective value of per-application throughputs `α_k` under this
    /// instance's objective and payoffs.
    pub fn objective_of_throughputs(&self, throughputs: &[f64]) -> f64 {
        debug_assert_eq!(throughputs.len(), self.num_apps());
        match self.objective {
            Objective::Sum => self
                .payoffs
                .iter()
                .zip(throughputs)
                .map(|(p, a)| p * a)
                .sum(),
            Objective::MaxMin => self
                .payoffs
                .iter()
                .zip(throughputs)
                .filter(|(p, _)| **p > 0.0)
                .map(|(p, a)| p * a)
                .fold(f64::INFINITY, f64::min)
                .min(f64::INFINITY),
        }
    }

    /// Same instance with the other objective (convenience for experiments
    /// that evaluate both SUM and MAXMIN on one platform).
    pub fn with_objective(&self, objective: Objective) -> Self {
        ProblemInstance {
            platform: self.platform.clone(),
            payoffs: self.payoffs.clone(),
            objective,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_platform::{PlatformBuilder, PlatformConfig, PlatformGenerator};

    fn platform3() -> Platform {
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 50.0);
        let c1 = b.add_cluster(100.0, 50.0);
        b.add_cluster(100.0, 50.0);
        b.connect_clusters(c0, c1, 10.0, 5);
        b.build().unwrap()
    }

    #[test]
    fn payoff_length_checked() {
        let p = platform3();
        assert!(ProblemInstance::new(p.clone(), vec![1.0, 2.0], Objective::Sum).is_err());
        assert!(ProblemInstance::new(p, vec![1.0; 3], Objective::Sum).is_ok());
    }

    #[test]
    fn uniform_payoffs() {
        let inst = ProblemInstance::uniform(platform3(), Objective::MaxMin);
        assert_eq!(inst.payoffs, vec![1.0; 3]);
        assert_eq!(inst.num_apps(), 3);
        assert_eq!(inst.active_apps().count(), 3);
    }

    #[test]
    fn zero_payoff_apps_excluded_from_maxmin() {
        let p = platform3();
        let inst = ProblemInstance::new(p, vec![1.0, 0.0, 2.0], Objective::MaxMin).unwrap();
        assert_eq!(inst.active_apps().count(), 2);
        // App 1 has throughput 0 but payoff 0 → objective is min(3·1, 4·2).
        assert_eq!(inst.objective_of_throughputs(&[3.0, 0.0, 4.0]), 3.0);
    }

    #[test]
    fn sum_objective_weights_throughputs() {
        let inst = ProblemInstance::new(platform3(), vec![1.0, 2.0, 0.5], Objective::Sum).unwrap();
        assert_eq!(inst.objective_of_throughputs(&[1.0, 1.0, 4.0]), 5.0);
    }

    #[test]
    fn works_on_generated_platforms() {
        let p = PlatformGenerator::new(1).generate(&PlatformConfig::default());
        let inst = ProblemInstance::uniform(p, Objective::Sum);
        assert!(inst.num_apps() > 0);
    }
}
