//! Property tests for platform generation and routing.

use dls_platform::{
    ClusterId, LinkId, Platform, PlatformBuilder, PlatformConfig, PlatformGenerator, RouterId,
};
use proptest::prelude::*;
use std::collections::VecDeque;

fn arb_config() -> impl Strategy<Value = PlatformConfig> {
    (
        2usize..20,
        0.0f64..=1.0,
        prop_oneof![Just(0.2), Just(0.4), Just(0.6), Just(0.8)],
        10.0f64..500.0,
        5.0f64..100.0,
        2.0f64..100.0,
        0usize..4,
    )
        .prop_map(|(k, conn, het, g, bw, mc, relays)| PlatformConfig {
            num_clusters: k,
            connectivity: conn,
            heterogeneity: het,
            mean_local_bw: g,
            mean_backbone_bw: bw,
            mean_max_connections: mc,
            speed: 100.0,
            relay_routers: relays,
        })
}

/// Reference BFS hop-distance between two routers, ignoring tie-breaks.
fn bfs_hops(p: &Platform, from: usize, to: usize) -> Option<usize> {
    let src = p.clusters[from].router;
    let dst = p.clusters[to].router;
    let mut dist = vec![usize::MAX; p.num_routers];
    let mut q = VecDeque::new();
    dist[src.index()] = 0;
    q.push_back(src);
    while let Some(r) = q.pop_front() {
        for l in &p.links {
            if let Some(next) = l.opposite(r) {
                if dist[next.index()] == usize::MAX {
                    dist[next.index()] = dist[r.index()] + 1;
                    q.push_back(next);
                }
            }
        }
    }
    (dist[dst.index()] != usize::MAX).then_some(dist[dst.index()])
}

/// A random builder topology: clusters on `routers` routers (several may
/// share one), `relays` more routers with no cluster, and random links
/// among all of them, so shared routers, relays and disconnected parts all
/// come up. Indices are drawn wide and taken modulo the range.
#[derive(Debug, Clone)]
struct Topology {
    routers: usize,
    relays: usize,
    cluster_routers: Vec<usize>,
    links: Vec<(usize, usize, f64, u32)>,
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    (
        1usize..7,
        0usize..3,
        collection::vec(0usize..64, 1..10),
        collection::vec((0usize..64, 0usize..64, 1.0f64..50.0, 1u32..10), 0..14),
    )
        .prop_map(|(routers, relays, cluster_routers, links)| Topology {
            routers,
            relays,
            cluster_routers,
            links,
        })
}

impl Topology {
    fn builder(&self) -> PlatformBuilder {
        let mut b = PlatformBuilder::new();
        let n = self.routers + self.relays;
        for _ in 0..n {
            b.add_router();
        }
        for (i, &r) in self.cluster_routers.iter().enumerate() {
            b.add_cluster_at(100.0, 10.0 + i as f64, RouterId((r % self.routers) as u32));
        }
        for &(a, c, bw, conn) in &self.links {
            b.add_backbone(RouterId((a % n) as u32), RouterId((c % n) as u32), bw, conn);
        }
        b
    }
}

/// Every ordered pair's route, row-major.
fn all_routes(p: &Platform) -> Vec<Option<Vec<LinkId>>> {
    let ids: Vec<ClusterId> = p.cluster_ids().collect();
    ids.iter()
        .flat_map(|&a| {
            ids.iter()
                .map(move |&b| p.route(a, b).map(<[LinkId]>::to_vec))
        })
        .collect()
}

/// The route table's own invariants: a JSON round trip gives an equal
/// table, `routed_pairs` lists the routed off-diagonal pairs in row-major
/// order, and the link arena holds exactly the routes' links, row-major.
fn check_table(p: &Platform) -> Result<(), TestCaseError> {
    let q = Platform::from_json(&p.to_json()).unwrap();
    prop_assert_eq!(p.route_table(), q.route_table());
    prop_assert_eq!(q.to_json(), p.to_json());

    let k = p.num_clusters();
    let routes = all_routes(p);
    let routed: Vec<(ClusterId, ClusterId)> = (0..k * k)
        .filter(|&pair| pair / k != pair % k && routes[pair].is_some())
        .map(|pair| (ClusterId((pair / k) as u32), ClusterId((pair % k) as u32)))
        .collect();
    prop_assert_eq!(p.routed_pairs(), routed);

    let stored: Vec<LinkId> = routes.iter().flatten().flatten().copied().collect();
    prop_assert_eq!(p.route_table().links(), &stored[..]);
    prop_assert_eq!(
        p.route_table().num_routes(),
        routes.iter().filter(|r| r.is_some()).count()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn builder_route_tables_hold_exactly_their_routes(
        topo in arb_topology(),
        pins in collection::vec((0usize..64, 0usize..64, proptest::bool::ANY), 0..6),
    ) {
        let p = topo.builder().build().unwrap();
        let k = p.num_clusters();
        for a in p.cluster_ids() {
            for b in p.cluster_ids() {
                let route = p.route(a, b);
                if a == b {
                    prop_assert!(route.is_none(), "a self-route {}", a);
                    continue;
                }
                let reachable = bfs_hops(&p, a.index(), b.index()).is_some();
                prop_assert_eq!(route.is_some(), reachable, "{}→{}", a, b);
                let same_router = p.cluster(a).router == p.cluster(b).router;
                prop_assert_eq!(route == Some(&[][..]), same_router, "{}→{}", a, b);
            }
        }
        check_table(&p)?;

        // Pin valid paths over the computed ones: a reversed route, or a
        // route that ends with a detour over its last link and back. Later
        // pins of a pair override earlier ones.
        let mut b = topo.builder();
        let mut want = all_routes(&p);
        for &(x, y, reverse) in &pins {
            let (from, to) = (x % k, y % k);
            let Some(route) = want[from * k + to].clone() else { continue };
            let (pair, links) = if reverse {
                (to * k + from, route.iter().rev().copied().collect())
            } else {
                let mut links = route.clone();
                links.extend(route.last().map(|&l| [l, l]).into_iter().flatten());
                (from * k + to, links)
            };
            let (a, c) = (ClusterId((pair / k) as u32), ClusterId((pair % k) as u32));
            b.set_route(a, c, links.clone());
            want[pair] = Some(links);
        }
        let q = b.build().unwrap();
        prop_assert_eq!(all_routes(&q), want);
        check_table(&q)?;
    }

    #[test]
    fn generated_platforms_validate(cfg in arb_config(), seed in 0u64..1000) {
        let p = PlatformGenerator::new(seed).generate(&cfg);
        prop_assert!(p.validate().is_ok());
        prop_assert_eq!(p.num_clusters(), cfg.num_clusters);
        prop_assert!(p.clusters.iter().all(|c| c.speed == cfg.speed));
    }

    #[test]
    fn route_existence_is_symmetric(cfg in arb_config(), seed in 0u64..1000) {
        let p = PlatformGenerator::new(seed).generate(&cfg);
        for a in p.cluster_ids() {
            for b in p.cluster_ids() {
                if a != b {
                    prop_assert_eq!(
                        p.route(a, b).is_some(),
                        p.route(b, a).is_some(),
                        "asymmetric reachability {}↔{}", a, b
                    );
                }
            }
        }
    }

    #[test]
    fn routes_are_minimum_hop(cfg in arb_config(), seed in 0u64..1000) {
        let p = PlatformGenerator::new(seed).generate(&cfg);
        let k = p.num_clusters();
        for from in 0..k {
            for to in 0..k {
                if from == to { continue; }
                let stored = p.route(
                    dls_platform::ClusterId(from as u32),
                    dls_platform::ClusterId(to as u32),
                );
                match bfs_hops(&p, from, to) {
                    None => prop_assert!(stored.is_none()),
                    Some(h) => {
                        let stored = stored.expect("reachable pair must have a route");
                        prop_assert_eq!(stored.len(), h,
                            "route C{}→C{} has {} hops, BFS found {}",
                            from, to, stored.len(), h);
                    }
                }
            }
        }
    }

    #[test]
    fn json_round_trip_preserves_routes(cfg in arb_config(), seed in 0u64..1000) {
        let p = PlatformGenerator::new(seed).generate(&cfg);
        let q = Platform::from_json(&p.to_json()).unwrap();
        prop_assert_eq!(p.route_table(), q.route_table());
        prop_assert_eq!(p.links.len(), q.links.len());
    }

    #[test]
    fn relay_routers_do_not_change_reachability(
        k in 3usize..10, seed in 0u64..500, relays in 1usize..6,
    ) {
        let base = PlatformConfig {
            num_clusters: k,
            connectivity: 0.7,
            relay_routers: 0,
            ..PlatformConfig::default()
        };
        let with_relays = PlatformConfig { relay_routers: relays, ..base.clone() };
        // Same seed: identical base topology before relay insertion (relay
        // randomness is drawn after the topology stream).
        let p0 = PlatformGenerator::new(seed).generate(&base);
        let p1 = PlatformGenerator::new(seed).generate(&with_relays);
        prop_assert_eq!(
            p0.routed_pairs().len(),
            p1.routed_pairs().len(),
            "relay insertion changed reachability"
        );
    }
}
