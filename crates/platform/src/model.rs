//! The immutable, validated platform model.

use serde::de::Parser;
use serde::{DeError, Deserialize, Serialize};
use std::fmt;

/// Index of a cluster (`C^k` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Index of a router (nodes of the inter-cluster graph `G_ic = (R, B)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RouterId(pub u32);

impl RouterId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a backbone link (edges of `G_ic`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A cluster collapsed to its equivalent processor (§2): cumulated speed
/// `s_k` and local-link capacity `g_k`, attached to a router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Cumulated computing speed `s_k` (load units per time unit).
    pub speed: f64,
    /// Local serial-link capacity `g_k` (load units per time unit), shared
    /// by all incoming and outgoing traffic of the cluster.
    pub local_bw: f64,
    /// Router this cluster's front-end is attached to.
    pub router: RouterId,
}

/// A backbone (wide-area) link with the paper's bandwidth-sharing model:
/// every connection gets `bw_per_connection`, up to `max_connections`
/// simultaneously open connections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackboneLink {
    /// One endpoint.
    pub from: RouterId,
    /// Other endpoint (links are bidirectional; `max_connections` counts
    /// connections in both directions, as in the paper).
    pub to: RouterId,
    /// Bandwidth granted to each connection, `bw(l)`.
    pub bw_per_connection: f64,
    /// Maximum simultaneously open connections, `max-connect(l)`.
    pub max_connections: u32,
}

impl BackboneLink {
    /// `true` iff the link touches `router`.
    pub fn touches(&self, router: RouterId) -> bool {
        self.from == router || self.to == router
    }

    /// The opposite endpoint, or `None` if `router` is not an endpoint.
    pub fn opposite(&self, router: RouterId) -> Option<RouterId> {
        if self.from == router {
            Some(self.to)
        } else if self.to == router {
            Some(self.from)
        } else {
            None
        }
    }
}

/// Validation failures for [`Platform::validate`].
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are given per variant
pub enum PlatformError {
    /// A cluster references a router outside the router range.
    BadRouter { cluster: usize },
    /// A link endpoint is outside the router range.
    BadLinkEndpoint { link: usize },
    /// A speed/bandwidth value is non-finite or negative.
    BadNumeric { what: &'static str, index: usize },
    /// A stored route is not a path between the two clusters' routers.
    BrokenRoute {
        from: usize,
        to: usize,
        detail: String,
    },
    /// A route was stored for a cluster pair outside the range.
    BadRoutePair,
    /// The platform has no clusters.
    Empty,
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::BadRouter { cluster } => {
                write!(f, "cluster {cluster} references an unknown router")
            }
            PlatformError::BadLinkEndpoint { link } => {
                write!(f, "backbone link {link} has an unknown endpoint")
            }
            PlatformError::BadNumeric { what, index } => {
                write!(f, "{what} {index} has a non-finite or negative value")
            }
            PlatformError::BrokenRoute { from, to, detail } => {
                write!(f, "route C{from}→C{to} is not a valid path: {detail}")
            }
            PlatformError::BadRoutePair => write!(f, "route stored for out-of-range clusters"),
            PlatformError::Empty => write!(f, "platform has no clusters"),
        }
    }
}

impl std::error::Error for PlatformError {}

/// The validated platform: clusters, routers, backbone links and the fixed
/// routing table `L_{k,l}`.
///
/// Construct through [`crate::PlatformBuilder`] or
/// [`crate::PlatformGenerator`], or read one with [`Platform::from_json`],
/// which validates it. The public fields may be edited in place, after
/// which [`Platform::validate`] should be called.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Platform {
    /// Number of routers (`|R|`); routers carry no attributes beyond their
    /// identity, matching the paper.
    pub num_routers: usize,
    /// Clusters, indexed by [`ClusterId`].
    pub clusters: Vec<Cluster>,
    /// Backbone links, indexed by [`LinkId`].
    pub links: Vec<BackboneLink>,
    /// Routing table `L_{k,l}`, read through [`Platform::route`].
    pub(crate) routes: RouteTable,
}

/// Slot of a pair that has no route.
const NO_ROUTE: u32 = u32::MAX;

/// The fixed routing table `L_{k,l}`, each route stored once.
///
/// Three flat arrays: `slots[k * K + l]` is the ordinal `r` of the route
/// `L_{k,l}`, or `NO_ROUTE` (`u32::MAX`) when `C^l` is unreachable from
/// `C^k` (the graph is not assumed connected; diagonal entries have no
/// route); route `r`'s links are `links[starts[r]..starts[r + 1]]`. A lookup is O(1), and
/// a table costs 4 bytes per ordered pair plus 4 per routed pair plus 4 per
/// link on a route — no heap block per route. Routes lie in the arena in
/// row-major pair order, so two tables with the same routes are the same
/// arrays.
///
/// In JSON the table is the dense row-major array of `K²` entries, `null`
/// for no route and the link-id list otherwise (`[]` for two clusters on
/// one router).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    slots: Vec<u32>,
    starts: Vec<u32>,
    links: Vec<LinkId>,
}

impl RouteTable {
    /// A table of `pairs` entries, none routed yet.
    pub(crate) fn with_pairs(pairs: usize) -> Self {
        RouteTable {
            slots: vec![NO_ROUTE; pairs],
            starts: vec![0],
            links: Vec::new(),
        }
    }

    /// Stores `links` as the route of entry `pair`. Entries are routed in
    /// increasing order, which keeps the arena row-major.
    pub(crate) fn push_route(&mut self, pair: usize, links: impl IntoIterator<Item = LinkId>) {
        self.links.extend(links);
        self.seal(pair);
    }

    /// Makes the links appended since the last route the route of `pair`.
    fn seal(&mut self, pair: usize) {
        debug_assert!(self.slots[pair] == NO_ROUTE, "entry {pair} routed twice");
        self.slots[pair] = u32::try_from(self.starts.len() - 1).expect("route count fits u32");
        let end = u32::try_from(self.links.len()).expect("route arena fits u32");
        self.starts.push(end);
    }

    /// Drops the spare capacity the arrays grew with.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.slots.shrink_to_fit();
        self.starts.shrink_to_fit();
        self.links.shrink_to_fit();
    }

    /// Number of stored routes.
    pub fn num_routes(&self) -> usize {
        self.starts.len() - 1
    }

    /// Every stored route's links, concatenated in row-major pair order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// The route of entry `pair`, or `None`.
    #[inline]
    fn get(&self, pair: usize) -> Option<&[LinkId]> {
        let slot = self.slots[pair];
        if slot == NO_ROUTE {
            return None;
        }
        let r = slot as usize;
        Some(&self.links[self.starts[r] as usize..self.starts[r + 1] as usize])
    }
}

impl Serialize for RouteTable {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for pair in 0..self.slots.len() {
            if pair > 0 {
                out.push(',');
            }
            match self.get(pair) {
                Some(links) => links.write_json(out),
                None => out.push_str("null"),
            }
        }
        out.push(']');
    }
}

/// Reads what `Vec<Option<Vec<LinkId>>>` reads, with the same errors,
/// straight into the arena.
impl Deserialize for RouteTable {
    fn from_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
        let mut table = RouteTable::with_pairs(0);
        p.array("array", |p| {
            let pair = table.slots.len();
            table.slots.push(NO_ROUTE);
            if !p.null()? {
                p.array("array", |p| {
                    table.links.push(LinkId::from_json(p)?);
                    Ok(())
                })?;
                table.seal(pair);
            }
            Ok(())
        })?;
        table.shrink_to_fit();
        Ok(table)
    }
}

impl Platform {
    /// Number of clusters `K`.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// All cluster ids, in order.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> {
        (0..self.clusters.len() as u32).map(ClusterId)
    }

    /// All link ids, in order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Cluster accessor.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.index()]
    }

    /// Link accessor.
    pub fn link(&self, id: LinkId) -> &BackboneLink {
        &self.links[id.index()]
    }

    /// The fixed route `L_{from,to}`, or `None` if unreachable (or
    /// `from == to`, which needs no network).
    pub fn route(&self, from: ClusterId, to: ClusterId) -> Option<&[LinkId]> {
        let k = self.clusters.len();
        self.routes.get(from.index() * k + to.index())
    }

    /// The routing table all routes are stored in.
    pub fn route_table(&self) -> &RouteTable {
        &self.routes
    }

    /// Bandwidth available to **one** connection from `from` to `to`:
    /// `min_{l ∈ L_{from,to}} bw(l)` (the paper's `g_{k,l}`). `None` when no
    /// route exists.
    pub fn route_bottleneck_bw(&self, from: ClusterId, to: ClusterId) -> Option<f64> {
        self.route(from, to).map(|links| {
            links
                .iter()
                .map(|l| self.links[l.index()].bw_per_connection)
                .fold(f64::INFINITY, f64::min)
        })
    }

    /// Maximum number of connections a *single new* transfer could open
    /// along the route if it had the route to itself: `min max-connect`.
    pub fn route_max_connections(&self, from: ClusterId, to: ClusterId) -> Option<u32> {
        self.route(from, to).map(|links| {
            links
                .iter()
                .map(|l| self.links[l.index()].max_connections)
                .min()
                .unwrap_or(u32::MAX)
        })
    }

    /// Ordered cluster pairs `(k, l)`, `k ≠ l`, that have a route — exactly
    /// the pairs for which `α_{k,l}` / `β_{k,l}` variables exist.
    pub fn routed_pairs(&self) -> Vec<(ClusterId, ClusterId)> {
        let k = self.clusters.len();
        let mut out = Vec::with_capacity(self.routes.num_routes());
        for (pair, &slot) in self.routes.slots.iter().enumerate().take(k * k) {
            let (from, to) = (pair / k, pair % k);
            if from != to && slot != NO_ROUTE {
                out.push((ClusterId(from as u32), ClusterId(to as u32)));
            }
        }
        out
    }

    /// Full structural validation (used by the builder and after
    /// deserialisation).
    pub fn validate(&self) -> Result<(), PlatformError> {
        if self.clusters.is_empty() {
            return Err(PlatformError::Empty);
        }
        for (i, c) in self.clusters.iter().enumerate() {
            if c.router.index() >= self.num_routers {
                return Err(PlatformError::BadRouter { cluster: i });
            }
            if !c.speed.is_finite() || c.speed < 0.0 {
                return Err(PlatformError::BadNumeric {
                    what: "cluster speed",
                    index: i,
                });
            }
            if !c.local_bw.is_finite() || c.local_bw < 0.0 {
                return Err(PlatformError::BadNumeric {
                    what: "cluster local_bw",
                    index: i,
                });
            }
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.from.index() >= self.num_routers || l.to.index() >= self.num_routers {
                return Err(PlatformError::BadLinkEndpoint { link: i });
            }
            if !l.bw_per_connection.is_finite() || l.bw_per_connection < 0.0 {
                return Err(PlatformError::BadNumeric {
                    what: "link bw_per_connection",
                    index: i,
                });
            }
        }
        let k = self.clusters.len();
        if self.routes.slots.len() != k * k {
            return Err(PlatformError::BadRoutePair);
        }
        for from in 0..k {
            for to in 0..k {
                if let Some(route) = self.routes.get(from * k + to) {
                    self.check_route_path(from, to, route)?;
                }
            }
        }
        Ok(())
    }

    fn check_route_path(
        &self,
        from: usize,
        to: usize,
        route: &[LinkId],
    ) -> Result<(), PlatformError> {
        let broken = |detail: String| PlatformError::BrokenRoute { from, to, detail };
        if from == to {
            return Err(broken("self-route stored".into()));
        }
        if route.is_empty() {
            // Two clusters may share a router; an empty route is legal then.
            if self.clusters[from].router == self.clusters[to].router {
                return Ok(());
            }
            return Err(broken("empty route between distinct routers".into()));
        }
        let mut here = self.clusters[from].router;
        for (pos, lid) in route.iter().enumerate() {
            let link = self
                .links
                .get(lid.index())
                .ok_or_else(|| broken(format!("unknown link at position {pos}")))?;
            here = link
                .opposite(here)
                .ok_or_else(|| broken(format!("link {pos} does not touch router {here:?}")))?;
        }
        if here != self.clusters[to].router {
            return Err(broken("path does not end at the destination router".into()));
        }
        Ok(())
    }

    /// Serialises the platform to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("platform serialisation cannot fail")
    }

    /// Parses a platform from JSON and validates it.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let p: Platform = serde_json::from_str(s).map_err(|e| e.to_string())?;
        p.validate().map_err(|e| e.to_string())?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlatformBuilder;

    fn triangle() -> Platform {
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 50.0);
        let c1 = b.add_cluster(200.0, 40.0);
        let c2 = b.add_cluster(50.0, 30.0);
        b.connect_clusters(c0, c1, 10.0, 4);
        b.connect_clusters(c1, c2, 20.0, 2);
        b.connect_clusters(c0, c2, 5.0, 8);
        b.build().unwrap()
    }

    #[test]
    fn accessors() {
        let p = triangle();
        assert_eq!(p.num_clusters(), 3);
        assert_eq!(p.cluster(ClusterId(1)).speed, 200.0);
        assert_eq!(p.route(ClusterId(0), ClusterId(1)).unwrap().len(), 1);
        assert_eq!(p.route(ClusterId(0), ClusterId(0)), None);
        assert_eq!(p.route_bottleneck_bw(ClusterId(0), ClusterId(2)), Some(5.0));
        assert_eq!(p.route_max_connections(ClusterId(0), ClusterId(1)), Some(4));
        assert_eq!(p.routed_pairs().len(), 6);
    }

    #[test]
    fn json_round_trip() {
        let p = triangle();
        let json = p.to_json();
        let q = Platform::from_json(&json).unwrap();
        assert_eq!(q.num_clusters(), p.num_clusters());
        assert_eq!(q.links.len(), p.links.len());
        assert_eq!(
            q.route(ClusterId(2), ClusterId(0)),
            p.route(ClusterId(2), ClusterId(0))
        );
    }

    #[test]
    fn validation_catches_bad_router() {
        let mut p = triangle();
        p.clusters[0].router = RouterId(99);
        assert!(matches!(
            p.validate(),
            Err(PlatformError::BadRouter { cluster: 0 })
        ));
    }

    #[test]
    fn validation_catches_broken_route() {
        let mut p = triangle();
        let k = p.num_clusters();
        // Route C0→C1 over a link that doesn't touch C0's router.
        p.routes = RouteTable::with_pairs(k * k);
        p.routes.push_route(1, [LinkId(1)]);
        assert!(matches!(
            p.validate(),
            Err(PlatformError::BrokenRoute { from: 0, to: 1, .. })
        ));
    }

    #[test]
    fn validation_catches_negative_speed() {
        let mut p = triangle();
        p.clusters[1].speed = -1.0;
        assert!(matches!(
            p.validate(),
            Err(PlatformError::BadNumeric {
                what: "cluster speed",
                index: 1
            })
        ));
    }

    #[test]
    fn link_helpers() {
        let l = BackboneLink {
            from: RouterId(0),
            to: RouterId(1),
            bw_per_connection: 1.0,
            max_connections: 1,
        };
        assert!(l.touches(RouterId(0)));
        assert!(!l.touches(RouterId(2)));
        assert_eq!(l.opposite(RouterId(1)), Some(RouterId(0)));
        assert_eq!(l.opposite(RouterId(5)), None);
    }
}
