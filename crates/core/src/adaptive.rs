//! Drift configuration and the stale baseline's shrink-to-fit.
//!
//! The paper motivates steady-state scheduling with *adaptability* (§1,
//! point (iii)): because the schedule is periodic and cheap to recompute,
//! observed resource variations can be folded into the next period's
//! optimisation. [`DriftConfig`] describes a multiplicative random walk of
//! every capacity (cluster speeds, local links, backbone bandwidths), which
//! `dls_scenario::drift_events` lowers to replayable platform events; and
//! [`scale_to_fit`] is the *stale* alternative to re-solving — keep an old
//! allocation and shrink it uniformly until it is feasible again.

use crate::allocation::Allocation;
use crate::problem::ProblemInstance;
use serde::{Deserialize, Serialize};

/// Multiplicative random-walk drift configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Per-epoch relative drift of cluster speeds (uniform ±).
    pub speed_drift: f64,
    /// Per-epoch relative drift of local-link capacities.
    pub local_bw_drift: f64,
    /// Per-epoch relative drift of backbone per-connection bandwidths.
    pub backbone_bw_drift: f64,
    /// Capacities never fall below this fraction of their original value.
    pub floor_fraction: f64,
    /// Capacities never exceed this multiple of their original value.
    pub ceil_fraction: f64,
    /// Number of epochs; epoch 0 is the undrifted platform.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            speed_drift: 0.15,
            local_bw_drift: 0.15,
            backbone_bw_drift: 0.15,
            floor_fraction: 0.2,
            ceil_fraction: 3.0,
            epochs: 10,
            seed: 0,
        }
    }
}

/// Largest `γ ∈ [0, 1]` such that `γ·alloc` (α scaled, β unchanged) is valid
/// on `inst`, together with the scaled allocation. All Eq. 7 constraints are
/// linear in α, so γ is a simple minimum of capacity ratios; the connection
/// budget (7d) does not scale and is treated as a hard feasibility gate:
/// if the drifted platform cannot host the stale β (a connection cap
/// dropped below the open-connection count, or a route vanished), *nothing*
/// of the stale allocation survives — the result is the empty allocation
/// with `γ = 0`, so the returned allocation is always valid.
pub fn scale_to_fit(alloc: &Allocation, inst: &ProblemInstance) -> (Allocation, f64) {
    let p = &inst.platform;
    let k = alloc.k;
    let mut gamma: f64 = 1.0;

    // (7d): β is not scalable — if the drifted platform cannot host the
    // connections (only possible if maxcon changed), nothing fits: keeping
    // β while γ·α → 0 would still over-subscribe the link, so the whole
    // allocation is dropped.
    let mut link_use = vec![0u64; p.links.len()];
    let mut connections_feasible = true;
    for from in p.cluster_ids() {
        for to in p.cluster_ids() {
            let b = alloc.beta(from, to);
            if b > 0 && from != to {
                if let Some(route) = p.route(from, to) {
                    for l in route {
                        link_use[l.index()] += b as u64;
                    }
                } else {
                    connections_feasible = false;
                }
            }
        }
    }
    for (i, &used) in link_use.iter().enumerate() {
        if used > p.links[i].max_connections as u64 {
            connections_feasible = false;
        }
    }
    if !connections_feasible {
        return (Allocation::zeros(k), 0.0);
    }

    // (7b) compute.
    for c in p.cluster_ids() {
        let used: f64 = p.cluster_ids().map(|f| alloc.alpha(f, c)).sum();
        if used > 0.0 {
            gamma = gamma.min(p.cluster(c).speed / used);
        }
    }
    // (7c) local links.
    for c in p.cluster_ids() {
        let used: f64 = p
            .cluster_ids()
            .filter(|&l| l != c)
            .map(|l| alloc.alpha(c, l) + alloc.alpha(l, c))
            .sum();
        if used > 0.0 {
            gamma = gamma.min(p.cluster(c).local_bw / used);
        }
    }
    // (7e) route bandwidth.
    for from in p.cluster_ids() {
        for to in p.cluster_ids() {
            if from == to {
                continue;
            }
            let a = alloc.alpha(from, to);
            if a <= 0.0 {
                continue;
            }
            match p.route_bottleneck_bw(from, to) {
                Some(bw) if bw.is_finite() => {
                    let cap = alloc.beta(from, to) as f64 * bw;
                    gamma = gamma.min(cap / a);
                }
                Some(_) => {}
                None => gamma = 0.0,
            }
        }
    }

    let gamma = gamma.clamp(0.0, 1.0);
    let scaled = Allocation {
        k,
        alpha: alloc.alpha.iter().map(|a| a * gamma).collect(),
        beta: alloc.beta.clone(),
    };
    (scaled, gamma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{Greedy, Heuristic, Lprg};
    use crate::problem::Objective;
    use dls_platform::{PlatformConfig, PlatformGenerator};

    fn instance(seed: u64) -> ProblemInstance {
        let cfg = PlatformConfig {
            num_clusters: 5,
            connectivity: 0.6,
            ..PlatformConfig::default()
        };
        ProblemInstance::uniform(
            PlatformGenerator::new(seed).generate(&cfg),
            Objective::MaxMin,
        )
    }

    #[test]
    fn scale_to_fit_identity_when_already_valid() {
        let inst = instance(1);
        let alloc = Greedy.solve(&inst).unwrap();
        let (scaled, gamma) = scale_to_fit(&alloc, &inst);
        assert!((gamma - 1.0).abs() < 1e-9);
        assert_eq!(scaled, alloc);
    }

    #[test]
    fn scale_to_fit_shrinks_on_slower_platform() {
        let inst = instance(2);
        let alloc = Greedy.solve(&inst).unwrap();
        // Halve every speed: allocation must shrink by ≥ 2×.
        let mut slower = inst.clone();
        for c in slower.platform.clusters.iter_mut() {
            c.speed /= 2.0;
        }
        let (scaled, gamma) = scale_to_fit(&alloc, &slower);
        assert!(gamma <= 0.5 + 1e-9, "gamma {gamma}");
        assert!(scaled.validate(&slower).is_ok());
    }

    #[test]
    fn scale_to_fit_zero_when_connections_impossible() {
        let inst = instance(3);
        let mut alloc = Allocation::zeros(inst.num_apps());
        // Fabricate traffic on a pair with no route.
        let (mut from, mut to) = (None, None);
        'outer: for a in inst.platform.cluster_ids() {
            for b in inst.platform.cluster_ids() {
                if a != b && inst.platform.route(a, b).is_none() {
                    from = Some(a);
                    to = Some(b);
                    break 'outer;
                }
            }
        }
        let (Some(a), Some(b)) = (from, to) else {
            return; // fully connected draw; nothing to test
        };
        alloc.add_alpha(a, b, 5.0);
        alloc.add_beta(a, b, 1);
        let (_, gamma) = scale_to_fit(&alloc, &inst);
        assert_eq!(gamma, 0.0);
    }

    #[test]
    fn scale_to_fit_empty_allocation_is_identity() {
        let inst = instance(6);
        let empty = Allocation::zeros(inst.num_apps());
        let (scaled, gamma) = scale_to_fit(&empty, &inst);
        assert_eq!(gamma, 1.0, "nothing to shrink");
        assert_eq!(scaled, empty);
        assert!(scaled.validate(&inst).is_ok());
    }

    #[test]
    fn scale_to_fit_zero_capacity_cluster_after_drift() {
        // A cluster churns out (speed 0, local link 0): any allocation that
        // computed there or shipped through it must shrink to nothing, and
        // the scaled result must still validate.
        let inst = instance(7);
        let alloc = Lprg.solve(&inst).unwrap();
        // Pick a cluster the allocation actually uses.
        let victim = inst
            .platform
            .cluster_ids()
            .find(|&c| {
                inst.platform
                    .cluster_ids()
                    .any(|f| alloc.alpha(f, c) > 0.0 || alloc.alpha(c, f) > 0.0)
            })
            .expect("some cluster is used");
        let mut dead = inst.clone();
        dead.platform.clusters[victim.index()].speed = 0.0;
        dead.platform.clusters[victim.index()].local_bw = 0.0;
        let (scaled, gamma) = scale_to_fit(&alloc, &dead);
        assert_eq!(gamma, 0.0, "work on a dead cluster cannot shrink to fit");
        assert!(scaled.validate(&dead).is_ok());
        assert!(scaled.alpha.iter().all(|&a| a == 0.0));
    }

    #[test]
    fn scale_to_fit_drops_beta_when_connection_caps_collapse() {
        // Connection caps are not scalable: when they drop below the stale
        // β usage, the entire allocation is dropped (keeping β would still
        // violate (7d) no matter how small γ gets).
        let inst = instance(8);
        let alloc = Lprg.solve(&inst).unwrap();
        if alloc.beta.iter().all(|&b| b == 0) {
            return; // purely local draw; nothing to test
        }
        let mut cut = inst.clone();
        for l in cut.platform.links.iter_mut() {
            l.max_connections = 0;
        }
        let (scaled, gamma) = scale_to_fit(&alloc, &cut);
        assert_eq!(gamma, 0.0);
        assert_eq!(scaled, Allocation::zeros(inst.num_apps()));
        assert!(scaled.validate(&cut).is_ok());
    }
}
