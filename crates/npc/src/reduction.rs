//! The §4 reduction: MAXIMUM-INDEPENDENT-SET ≤ₚ STEADY-STATE-DIVISIBLE-LOAD.
//!
//! From an instance `I₁ = (G, B)` of MAXIMUM-INDEPENDENT-SET, build the
//! platform instance `I₂` of Figure 4:
//!
//! * clusters `C⁰` (speed 0, local link `g₀ = n`) and `C¹..Cⁿ` (speed 1,
//!   `g = 1`), only `C⁰` holding work (`π₀ = 1`, all other payoffs 0);
//! * per edge `e_k = (V_i, V_j)`: routers `Qᵃ_k, Qᵇ_k` and a backbone link
//!   `lᶜᵒᵐᵐᵒⁿ_k = (Qᵃ_k, Qᵇ_k)` with `bw = 1`, `max-connect = 1`;
//! * per vertex `i` with incident edge list `Route(i) = {k₁ < … < k_r}`: a
//!   chain of private links threading `C⁰`'s router through
//!   `Qᵃ_{k₁}…Qᵇ_{k_r}` to `Cⁱ`'s router (all `bw = 1`, `max-connect = 1`),
//!   giving the fixed route of Eq. 8:
//!   `L_{0,i} = {lⁱ₁, lᶜᵒᵐᵐᵒⁿ_{k₁}, lⁱ₂, …, lᶜᵒᵐᵐᵒⁿ_{k_r}, lⁱ_{r+1}}`.
//!
//! Lemma 1 then holds by construction — routes `L_{0,i}` and `L_{0,j}`
//! share a backbone link iff `(V_i, V_j) ∈ E` — and the optimal steady-state
//! throughput of `I₂` equals the independence number `α(G)`: every
//! `max-connect = 1` shared link forbids serving two adjacent vertices, and
//! each served vertex contributes exactly `min(s_i, bw) = 1`.

use crate::graph::Graph;
use crate::independent_set::is_independent_set;
use dls_core::{Allocation, Objective, ProblemInstance};
use dls_platform::{ClusterId, LinkId, Platform, PlatformBuilder};

/// The reduced instance `I₂` with its construction bookkeeping.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The constructed platform (clusters `C⁰..Cⁿ`).
    pub platform: Platform,
    /// The source graph.
    pub graph: Graph,
    /// `lᶜᵒᵐᵐᵒⁿ_k` per edge index.
    pub common_links: Vec<LinkId>,
    /// The explicit route `L_{0,i}` per vertex `i` (index `i`, cluster
    /// `C^{i+1}`).
    pub routes: Vec<Vec<LinkId>>,
}

/// Builds `I₂` from `G` (§4, Figure 4).
pub fn reduce(g: &Graph) -> Reduction {
    let n = g.num_vertices();
    let m = g.edges().len();
    let mut b = PlatformBuilder::new();

    // C⁰: no compute, local link wide enough for n parallel unit flows.
    let c0 = b.add_cluster(0.0, n as f64);
    let workers: Vec<ClusterId> = (0..n).map(|_| b.add_cluster(1.0, 1.0)).collect();

    // Edge gadget routers and their common links.
    let mut common_links = Vec::with_capacity(m);
    let mut q_a = Vec::with_capacity(m);
    let mut q_b = Vec::with_capacity(m);
    for _ in 0..m {
        let qa = b.add_router();
        let qb = b.add_router();
        common_links.push(b.add_backbone(qa, qb, 1.0, 1));
        q_a.push(qa);
        q_b.push(qb);
    }

    // Vertex chains and the explicit routes of Eq. 8.
    let r0 = b.cluster_router(c0);
    let mut routes = Vec::with_capacity(n);
    for (i, &wi) in workers.iter().enumerate() {
        let ri = b.cluster_router(wi);
        let incident = g.incident_edges(i);
        let mut route = Vec::new();
        if incident.is_empty() {
            // Degenerate chain: a single private link C⁰ → Cⁱ.
            route.push(b.add_backbone(r0, ri, 1.0, 1));
        } else {
            let first = incident[0];
            route.push(b.add_backbone(r0, q_a[first], 1.0, 1));
            route.push(common_links[first]);
            for w in incident.windows(2) {
                let (prev, next) = (w[0], w[1]);
                route.push(b.add_backbone(q_b[prev], q_a[next], 1.0, 1));
                route.push(common_links[next]);
            }
            let last = *incident.last().expect("non-empty incident list");
            route.push(b.add_backbone(q_b[last], ri, 1.0, 1));
        }
        b.set_route(c0, wi, route.clone());
        routes.push(route);
    }

    let platform = b.build().expect("reduction platform is always valid");
    Reduction {
        platform,
        graph: g.clone(),
        common_links,
        routes,
    }
}

impl Reduction {
    /// The scheduling instance: `π₀ = 1`, all other payoffs 0 (SUM and
    /// MAXMIN coincide when a single application is active; SUM keeps the
    /// MILP objective simple).
    pub fn instance(&self) -> ProblemInstance {
        let mut payoffs = vec![0.0; self.platform.num_clusters()];
        payoffs[0] = 1.0;
        ProblemInstance::new(self.platform.clone(), payoffs, Objective::Sum)
            .expect("payoff vector sized to the platform")
    }

    /// Verifies Lemma 1: `L_{0,i}` and `L_{0,j}` share a backbone link iff
    /// `(V_i, V_j) ∈ E`.
    pub fn verify_lemma1(&self) -> Result<(), String> {
        let n = self.graph.num_vertices();
        for i in 0..n {
            for j in i + 1..n {
                let shares = self.routes[i].iter().any(|l| self.routes[j].contains(l));
                let edge = self.graph.has_edge(i, j);
                if shares != edge {
                    return Err(format!(
                        "Lemma 1 violated for (V{i}, V{j}): shares={shares}, edge={edge}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Builds the allocation that serves an independent set: `β_{0,i} = 1`,
    /// `α_{0,i} = 1` for every member `i` of `set`.
    pub fn allocation_for_set(&self, set: &[usize]) -> Allocation {
        let k = self.platform.num_clusters();
        let mut alloc = Allocation::zeros(k);
        for &v in set {
            let target = ClusterId(v as u32 + 1);
            alloc.add_alpha(ClusterId(0), target, 1.0);
            alloc.add_beta(ClusterId(0), target, 1);
        }
        alloc
    }
}

/// Recovers an independent set from a valid allocation of the reduced
/// instance: the vertices whose cluster receives a connection from `C⁰`.
/// Validity of the allocation + Lemma 1 guarantee independence (asserted in
/// debug builds).
pub fn independent_set_from_allocation(red: &Reduction, alloc: &Allocation) -> Vec<usize> {
    let set: Vec<usize> = (0..red.graph.num_vertices())
        .filter(|&v| {
            let target = ClusterId(v as u32 + 1);
            alloc.beta(ClusterId(0), target) >= 1 && alloc.alpha(ClusterId(0), target) > 1e-6
        })
        .collect();
    debug_assert!(is_independent_set(&red.graph, &set));
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independent_set::max_independent_set;
    use dls_core::heuristics::{ExactMilp, Heuristic, UpperBound};

    /// The Figure 3 example: a 4-cycle V1V2V3V4 (0-indexed here).
    fn figure3() -> Graph {
        Graph::new(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn construction_counts_match_figure4() {
        let g = figure3();
        let red = reduce(&g);
        // n+1 clusters; 2m edge routers + n+1 cluster routers.
        assert_eq!(red.platform.num_clusters(), 5);
        assert_eq!(red.platform.num_routers, 5 + 2 * 4);
        // Links: m common + per vertex (deg + 1) chain links.
        let chain_links: usize = (0..4).map(|v| g.degree(v) + 1).sum();
        assert_eq!(red.platform.links.len(), 4 + chain_links);
        // Every constructed link is bw 1, maxcon 1.
        assert!(red
            .platform
            .links
            .iter()
            .all(|l| l.bw_per_connection == 1.0 && l.max_connections == 1));
        red.platform.validate().unwrap();
    }

    #[test]
    fn lemma1_holds_on_figure3() {
        let red = reduce(&figure3());
        red.verify_lemma1().unwrap();
    }

    #[test]
    fn lemma1_holds_on_random_graphs() {
        for seed in 0..15 {
            let g = Graph::random(3 + (seed as usize % 8), 0.45, seed);
            let red = reduce(&g);
            red.verify_lemma1().unwrap();
        }
    }

    #[test]
    fn independent_set_allocation_is_valid_and_achieves_its_size() {
        let g = figure3();
        let red = reduce(&g);
        let inst = red.instance();
        let mis = max_independent_set(&g);
        let alloc = red.allocation_for_set(&mis);
        assert!(
            alloc.validate(&inst).is_ok(),
            "{:?}",
            alloc.violations(&inst)
        );
        assert_eq!(alloc.objective_value(&inst), mis.len() as f64);
    }

    #[test]
    fn dependent_set_allocation_is_invalid() {
        // Serving two adjacent vertices must violate a shared common link.
        let g = figure3();
        let red = reduce(&g);
        let inst = red.instance();
        let alloc = red.allocation_for_set(&[0, 1]); // edge (0,1) exists
        assert!(alloc.validate(&inst).is_err());
    }

    #[test]
    fn lp_bound_matches_independence_number_on_figure3() {
        // For the 4-cycle, the LP relaxation can serve each vertex at
        // β̃ = 1/2 (each common link splits), giving bound 2 = α(C₄): the
        // relaxation is tight here.
        let red = reduce(&figure3());
        let inst = red.instance();
        let ub = UpperBound.bound(&inst).unwrap();
        assert!((ub - 2.0).abs() < 1e-6, "ub {ub}");
    }

    #[test]
    fn exact_milp_equals_independence_number() {
        for seed in 0..8 {
            let n = 3 + (seed as usize % 5);
            let g = Graph::random(n, 0.5, 1000 + seed);
            let red = reduce(&g);
            red.verify_lemma1().unwrap();
            let inst = red.instance();
            let exact = ExactMilp.solve(&inst).unwrap();
            assert!(exact.validate(&inst).is_ok());
            let throughput = exact.objective_value(&inst);
            let mis = max_independent_set(&g).len();
            assert!(
                (throughput - mis as f64).abs() < 1e-6,
                "seed {seed}: MILP throughput {throughput} vs α(G) = {mis}"
            );
            // And the solution maps back to an actual independent set of
            // the right size.
            let recovered = independent_set_from_allocation(&red, &exact);
            assert!(is_independent_set(&g, &recovered));
            assert_eq!(recovered.len(), mis);
        }
    }
}
