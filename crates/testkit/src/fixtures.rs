//! Deterministic platform/problem fixtures.
//!
//! Every fixture is a pure function of its arguments (seeds included), so
//! two test files asking for the same fixture compare the same object.

use dls_core::{Objective, ProblemInstance};
use dls_platform::{Platform, PlatformBuilder, PlatformConfig, PlatformGenerator};

/// The canonical payoff spread and payoff-stream decoupling constant used by
/// seeded fixtures (matches the experiment runner's convention).
pub const PAYOFF_SPREAD: f64 = 0.5;

/// A chain of `n` identical clusters (speed 100, local bandwidth 60) where
/// consecutive clusters are joined by a scarce backbone link (bandwidth 15
/// per connection, at most 3 connections). End-to-end routes are maximally
/// multi-hop: the stress fixture for shared-link budgets (Eq. 7d).
pub fn line_platform(n: usize) -> Platform {
    assert!(n >= 2, "a line needs at least two clusters");
    let mut b = PlatformBuilder::new();
    let c: Vec<_> = (0..n).map(|_| b.add_cluster(100.0, 60.0)).collect();
    for w in c.windows(2) {
        b.connect_clusters(w[0], w[1], 15.0, 3);
    }
    b.build().expect("line platform is well-formed")
}

/// [`line_platform`] wrapped into a MAXMIN instance with the canonical
/// spread payoffs (seed 7, matching the seed tests).
pub fn line_instance(n: usize) -> ProblemInstance {
    ProblemInstance::with_spread_payoffs(line_platform(n), Objective::MaxMin, PAYOFF_SPREAD, 7)
}

/// The small asymmetric pair used across the sim/schedule unit tests:
/// speeds 100/50, local bandwidths 20/30, one backbone link (bw 10, ≤ 2
/// connections).
pub fn two_cluster_platform() -> Platform {
    let mut b = PlatformBuilder::new();
    let c0 = b.add_cluster(100.0, 20.0);
    let c1 = b.add_cluster(50.0, 30.0);
    b.connect_clusters(c0, c1, 10.0, 2);
    b.build().expect("pair platform is well-formed")
}

/// [`two_cluster_platform`] with uniform payoffs.
pub fn two_cluster_instance(objective: Objective) -> ProblemInstance {
    ProblemInstance::uniform(two_cluster_platform(), objective)
}

/// A random platform from the paper's generator, fully determined by
/// `(seed, k, connectivity)`.
pub fn random_platform(seed: u64, k: usize, connectivity: f64) -> Platform {
    let cfg = PlatformConfig {
        num_clusters: k,
        connectivity,
        ..PlatformConfig::default()
    };
    PlatformGenerator::new(seed).generate(&cfg)
}

/// The standard cross-crate instance matrix: four platform shapes (dense
/// small, mid, sparse large, complete) × both objectives, uniform payoffs.
/// This is the spread `tests/pipeline.rs` sweeps.
pub fn instance_matrix() -> Vec<ProblemInstance> {
    let mut out = Vec::new();
    for (seed, k, conn) in [(1u64, 4usize, 0.7), (2, 6, 0.4), (3, 8, 0.2), (4, 5, 1.0)] {
        let p = random_platform(seed, k, conn);
        for objective in [Objective::Sum, Objective::MaxMin] {
            out.push(ProblemInstance::uniform(p.clone(), objective));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = line_instance(5);
        let b = line_instance(5);
        assert_eq!(a.payoffs, b.payoffs);
        assert_eq!(a.platform.num_clusters(), b.platform.num_clusters());
        let p1 = random_platform(3, 6, 0.5);
        let p2 = random_platform(3, 6, 0.5);
        assert_eq!(p1.to_json(), p2.to_json());
    }

    #[test]
    fn matrix_covers_both_objectives() {
        let m = instance_matrix();
        assert_eq!(m.len(), 8);
        assert!(m.iter().any(|i| i.objective == Objective::Sum));
        assert!(m.iter().any(|i| i.objective == Objective::MaxMin));
    }
}
