//! Construction of arbitrary platform topologies with automatic routing.

use crate::model::{
    BackboneLink, Cluster, ClusterId, LinkId, Platform, PlatformError, RouteTable, RouterId,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Builder for [`Platform`].
///
/// Routes that are not supplied explicitly via [`PlatformBuilder::set_route`]
/// are computed by a fewest-hops shortest path over the backbone graph,
/// breaking ties in favour of the widest bottleneck (largest minimum
/// per-connection bandwidth), then deterministically by router index.
#[derive(Debug, Default, Clone)]
pub struct PlatformBuilder {
    clusters: Vec<Cluster>,
    num_routers: usize,
    pub(crate) links: Vec<BackboneLink>,
    explicit_routes: Vec<(ClusterId, ClusterId, Vec<LinkId>)>,
}

impl PlatformBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a standalone router and returns its id.
    pub fn add_router(&mut self) -> RouterId {
        let id = RouterId(self.num_routers as u32);
        self.num_routers += 1;
        id
    }

    /// Adds a cluster with its own dedicated router.
    pub fn add_cluster(&mut self, speed: f64, local_bw: f64) -> ClusterId {
        let router = self.add_router();
        self.add_cluster_at(speed, local_bw, router)
    }

    /// Adds a cluster attached to an existing router.
    pub fn add_cluster_at(&mut self, speed: f64, local_bw: f64, router: RouterId) -> ClusterId {
        let id = ClusterId(self.clusters.len() as u32);
        self.clusters.push(Cluster {
            speed,
            local_bw,
            router,
        });
        id
    }

    /// Adds a backbone link between two routers.
    pub fn add_backbone(
        &mut self,
        from: RouterId,
        to: RouterId,
        bw_per_connection: f64,
        max_connections: u32,
    ) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(BackboneLink {
            from,
            to,
            bw_per_connection,
            max_connections,
        });
        id
    }

    /// Convenience: backbone link directly between two clusters' routers.
    pub fn connect_clusters(
        &mut self,
        a: ClusterId,
        b: ClusterId,
        bw_per_connection: f64,
        max_connections: u32,
    ) -> LinkId {
        let ra = self.clusters[a.index()].router;
        let rb = self.clusters[b.index()].router;
        self.add_backbone(ra, rb, bw_per_connection, max_connections)
    }

    /// Pins the route `L_{from,to}` explicitly (one direction only; set both
    /// directions if both are wanted). Overrides the automatic shortest
    /// path.
    pub fn set_route(&mut self, from: ClusterId, to: ClusterId, links: Vec<LinkId>) {
        self.explicit_routes.push((from, to, links));
    }

    /// Router a previously added cluster is attached to.
    pub fn cluster_router(&self, cluster: ClusterId) -> RouterId {
        self.clusters[cluster.index()].router
    }

    /// Number of routers added so far.
    pub fn num_routers(&self) -> usize {
        self.num_routers
    }

    /// Number of clusters added so far.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Finalises and validates the platform. Routes are written into the
    /// table in row-major pair order, straight from the shortest-path tree
    /// (or the last [`PlatformBuilder::set_route`] of the pair).
    pub fn build(self) -> Result<Platform, PlatformError> {
        let k = self.clusters.len();
        // Explicit routes by pair index; the last one set for a pair wins.
        let mut pinned = Vec::with_capacity(self.explicit_routes.len());
        for (from, to, links) in self.explicit_routes.into_iter().rev() {
            if from.index() >= k || to.index() >= k {
                return Err(PlatformError::BadRoutePair);
            }
            pinned.push((from.index() * k + to.index(), links));
        }
        pinned.sort_by_key(|&(pair, _)| pair);
        pinned.dedup_by_key(|&mut (pair, _)| pair);
        let mut pinned = pinned.into_iter().peekable();

        // Adjacency: router → [(neighbour, link)].
        let mut adj: Vec<Vec<(RouterId, LinkId)>> = vec![Vec::new(); self.num_routers];
        for (i, l) in self.links.iter().enumerate() {
            let lid = LinkId(i as u32);
            adj[l.from.index()].push((l.to, lid));
            adj[l.to.index()].push((l.from, lid));
        }
        let mut search = ShortestPaths::new(self.num_routers);
        let mut path = Vec::new();
        // The router whose shortest-path tree `search` holds: consecutive
        // clusters on one router share it.
        let mut searched = None;
        let mut routes = RouteTable::with_pairs(k * k);
        for (from, src) in self.clusters.iter().enumerate() {
            for (to, dst) in self.clusters.iter().enumerate() {
                let pair = from * k + to;
                if let Some((_, links)) = pinned.next_if(|&(p, _)| p == pair) {
                    routes.push_route(pair, links);
                    continue;
                }
                if from == to {
                    continue;
                }
                if searched != Some(src.router) {
                    search.run(src.router, &adj, &self.links);
                    searched = Some(src.router);
                }
                if search.path_to(dst.router, &mut path) {
                    routes.push_route(pair, path.iter().rev().copied());
                }
            }
        }
        routes.shrink_to_fit();

        let platform = Platform {
            num_routers: self.num_routers,
            clusters: self.clusters,
            links: self.links,
            routes,
        };
        platform.validate()?;
        Ok(platform)
    }
}

/// Dijkstra label: fewest hops, then widest bottleneck.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Label {
    hops: u32,
    bottleneck: f64,
}

impl Label {
    fn better_than(&self, other: &Label) -> bool {
        self.hops < other.hops
            || (self.hops == other.hops && self.bottleneck > other.bottleneck + 1e-12)
    }
}

struct HeapItem {
    label: Label,
    router: RouterId,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert hops so fewer hops pop first;
        // larger bottleneck pops first; smaller router index breaks ties.
        other
            .label
            .hops
            .cmp(&self.label.hops)
            .then_with(|| self.label.bottleneck.total_cmp(&other.label.bottleneck))
            .then_with(|| other.router.cmp(&self.router))
    }
}

/// Dijkstra over the backbone graph from one source router, with buffers
/// kept across sources.
struct ShortestPaths {
    best: Vec<Option<Label>>,
    /// Per router: predecessor `(router, link)` on the best path, if
    /// reached.
    pred: Vec<Option<(RouterId, LinkId)>>,
    done: Vec<bool>,
    heap: BinaryHeap<HeapItem>,
    src: RouterId,
}

impl ShortestPaths {
    fn new(num_routers: usize) -> Self {
        ShortestPaths {
            best: vec![None; num_routers],
            pred: vec![None; num_routers],
            done: vec![false; num_routers],
            heap: BinaryHeap::new(),
            src: RouterId(0),
        }
    }

    /// Grows the tree of best paths from `src`.
    fn run(&mut self, src: RouterId, adj: &[Vec<(RouterId, LinkId)>], links: &[BackboneLink]) {
        self.best.fill(None);
        self.pred.fill(None);
        self.done.fill(false);
        self.src = src;
        let start = Label {
            hops: 0,
            bottleneck: f64::INFINITY,
        };
        self.best[src.index()] = Some(start);
        self.heap.push(HeapItem {
            label: start,
            router: src,
        });

        while let Some(HeapItem { label, router }) = self.heap.pop() {
            if self.done[router.index()] {
                continue;
            }
            self.done[router.index()] = true;
            for &(next, lid) in &adj[router.index()] {
                if self.done[next.index()] {
                    continue;
                }
                let link = &links[lid.index()];
                let cand = Label {
                    hops: label.hops + 1,
                    bottleneck: label.bottleneck.min(link.bw_per_connection),
                };
                let improves = match &self.best[next.index()] {
                    None => true,
                    Some(cur) => cand.better_than(cur),
                };
                if improves {
                    self.best[next.index()] = Some(cand);
                    self.pred[next.index()] = Some((router, lid));
                    self.heap.push(HeapItem {
                        label: cand,
                        router: next,
                    });
                }
            }
        }
    }

    /// Writes the path to `dst` into `path`, last link first; `false` (and
    /// `path` untouched) when `dst` was not reached.
    fn path_to(&self, dst: RouterId, path: &mut Vec<LinkId>) -> bool {
        if self.best[dst.index()].is_none() {
            return false;
        }
        path.clear();
        let mut here = dst;
        while here != self.src {
            let (prev, link) = self.pred[here.index()].expect("reached router has predecessor");
            path.push(link);
            here = prev;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_topology_routes_through_middle() {
        // C0 — C1 — C2 in a line: route C0→C2 must use both links.
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 10.0);
        let c1 = b.add_cluster(100.0, 10.0);
        let c2 = b.add_cluster(100.0, 10.0);
        let l01 = b.connect_clusters(c0, c1, 5.0, 3);
        let l12 = b.connect_clusters(c1, c2, 7.0, 3);
        let p = b.build().unwrap();
        assert_eq!(p.route(c0, c2).unwrap(), &[l01, l12]);
        assert_eq!(p.route(c2, c0).unwrap(), &[l12, l01]);
        assert_eq!(p.route_bottleneck_bw(c0, c2), Some(5.0));
    }

    #[test]
    fn disconnected_clusters_have_no_route() {
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 10.0);
        let c1 = b.add_cluster(100.0, 10.0);
        let p = b.build().unwrap();
        assert_eq!(p.route(c0, c1), None);
        assert!(p.routed_pairs().is_empty());
    }

    #[test]
    fn fewest_hops_wins_over_wider_path() {
        // Direct narrow link vs two-hop wide path: fewest hops is chosen.
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 10.0);
        let c1 = b.add_cluster(100.0, 10.0);
        let relay = b.add_router();
        let direct = b.connect_clusters(c0, c1, 1.0, 1);
        b.add_backbone(RouterId(0), relay, 100.0, 9);
        b.add_backbone(relay, RouterId(1), 100.0, 9);
        let p = b.build().unwrap();
        assert_eq!(p.route(c0, c1).unwrap(), &[direct]);
    }

    #[test]
    fn bottleneck_breaks_hop_ties() {
        // Two parallel direct links: the wider one is chosen.
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 10.0);
        let c1 = b.add_cluster(100.0, 10.0);
        let _narrow = b.connect_clusters(c0, c1, 2.0, 1);
        let wide = b.connect_clusters(c0, c1, 9.0, 1);
        let p = b.build().unwrap();
        assert_eq!(p.route(c0, c1).unwrap(), &[wide]);
    }

    #[test]
    fn explicit_route_overrides_shortest_path() {
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 10.0);
        let c1 = b.add_cluster(100.0, 10.0);
        let direct = b.connect_clusters(c0, c1, 5.0, 1);
        let relay = b.add_router();
        let la = b.add_backbone(RouterId(0), relay, 3.0, 2);
        let lb = b.add_backbone(relay, RouterId(1), 3.0, 2);
        b.set_route(c0, c1, vec![la, lb]);
        let p = b.build().unwrap();
        assert_eq!(p.route(c0, c1).unwrap(), &[la, lb]);
        // Reverse direction still uses the shortest path.
        assert_eq!(p.route(c1, c0).unwrap(), &[direct]);
    }

    #[test]
    fn clusters_on_same_router_get_empty_route() {
        let mut b = PlatformBuilder::new();
        let r = b.add_router();
        let c0 = b.add_cluster_at(100.0, 10.0, r);
        let c1 = b.add_cluster_at(100.0, 10.0, r);
        let p = b.build().unwrap();
        let route = p.route(c0, c1).unwrap();
        assert!(route.is_empty());
        assert_eq!(p.route_bottleneck_bw(c0, c1), Some(f64::INFINITY));
    }

    #[test]
    fn invalid_explicit_route_rejected() {
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 10.0);
        let c1 = b.add_cluster(100.0, 10.0);
        let c2 = b.add_cluster(100.0, 10.0);
        let _l01 = b.connect_clusters(c0, c1, 5.0, 1);
        let l12 = b.connect_clusters(c1, c2, 5.0, 1);
        // l12 does not touch C0's router.
        b.set_route(c0, c1, vec![l12]);
        assert!(matches!(
            b.build(),
            Err(PlatformError::BrokenRoute { from: 0, to: 1, .. })
        ));
    }
}
