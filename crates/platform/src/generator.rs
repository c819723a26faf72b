//! Random platform generation following the paper's experimental setup (§6).
//!
//! The paper instantiates random platforms from six parameters (Table 1):
//! the number of clusters `K`, the probability `connectivity` that any two
//! clusters are connected by a backbone link, a `heterogeneity` ratio, and
//! the mean values of the local-link capacity `g`, the per-connection
//! backbone bandwidth `bw` and the backbone connection cap `maxcon`.
//! `g`, `bw` and `maxcon` are drawn uniformly from
//! `mean · (1 − heterogeneity)` to `mean · (1 + heterogeneity)`; computing
//! speed is fixed at 100 because only relative values matter for a periodic
//! schedule.

use crate::builder::PlatformBuilder;
use crate::model::{Platform, RouterId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Parameters describing one random-platform distribution (a single cell of
/// Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Number of clusters `K`.
    pub num_clusters: usize,
    /// Probability that any two clusters are directly connected.
    pub connectivity: f64,
    /// Relative spread of `g`, `bw`, `maxcon` around their means.
    pub heterogeneity: f64,
    /// Mean local-link capacity `g`.
    pub mean_local_bw: f64,
    /// Mean per-connection backbone bandwidth `bw`.
    pub mean_backbone_bw: f64,
    /// Mean backbone connection cap `maxcon`.
    pub mean_max_connections: f64,
    /// Cluster computing speed (fixed at 100 in the paper).
    pub speed: f64,
    /// Number of relay routers inserted by splitting random backbone links
    /// (models the intermediate routers of Figure 2; 0 in the paper's
    /// sweep).
    pub relay_routers: usize,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            num_clusters: 10,
            connectivity: 0.4,
            heterogeneity: 0.4,
            mean_local_bw: 250.0,
            mean_backbone_bw: 50.0,
            mean_max_connections: 30.0,
            speed: 100.0,
            relay_routers: 0,
        }
    }
}

/// Deterministic random platform generator (seeded ChaCha8).
#[derive(Debug, Clone)]
pub struct PlatformGenerator {
    rng: ChaCha8Rng,
}

impl PlatformGenerator {
    /// Creates a generator from a seed; equal seeds yield equal platforms.
    pub fn new(seed: u64) -> Self {
        PlatformGenerator {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Samples `mean · U[1−h, 1+h]`.
    fn spread(&mut self, mean: f64, heterogeneity: f64) -> f64 {
        let lo = mean * (1.0 - heterogeneity);
        let hi = mean * (1.0 + heterogeneity);
        if hi <= lo {
            return lo.max(0.0);
        }
        self.rng.gen_range(lo..hi).max(0.0)
    }

    /// Generates one platform from `config`.
    pub fn generate(&mut self, config: &PlatformConfig) -> Platform {
        let mut b = PlatformBuilder::new();
        let k = config.num_clusters;
        let clusters: Vec<_> = (0..k)
            .map(|_| {
                let g = self.spread(config.mean_local_bw, config.heterogeneity);
                b.add_cluster(config.speed, g)
            })
            .collect();

        // Backbone links: each unordered cluster pair independently with
        // probability `connectivity`.
        for i in 0..k {
            for j in i + 1..k {
                if self.rng.gen_bool(config.connectivity.clamp(0.0, 1.0)) {
                    let bw = self.spread(config.mean_backbone_bw, config.heterogeneity);
                    let maxcon = self
                        .spread(config.mean_max_connections, config.heterogeneity)
                        .round()
                        .max(1.0) as u32;
                    b.connect_clusters(clusters[i], clusters[j], bw, maxcon);
                }
            }
        }

        // Optional relay routers (Figure 2 shows intermediate routers not
        // attached to any cluster), split into the links before routing.
        if config.relay_routers > 0 {
            split_links(&mut b, config.relay_routers, &mut self.rng);
        }
        b.build().expect("generated platform is always valid")
    }
}

/// Splits `n` random backbone links of `b` with relay routers: each split
/// replaces one link by two links of identical characteristics through a
/// new router. The relays are numbered densely after `b`'s routers, in
/// order of first appearance in the link list.
fn split_links(b: &mut PlatformBuilder, n: usize, rng: &mut ChaCha8Rng) {
    let (routers, before) = (b.num_routers(), b.links.len());
    for _ in 0..n {
        if b.links.is_empty() {
            break;
        }
        let idx = rng.gen_range(0..b.links.len());
        // Until every split is known, each relay gets a unique marker id
        // counting down from u32::MAX.
        let relay = RouterId(u32::MAX - b.links.len() as u32);
        let mut second = b.links[idx].clone();
        second.from = relay;
        b.links[idx].to = relay;
        b.links.push(second);
    }
    // Split `j` made the marker `u32::MAX - (before + j)`.
    let mut ids: Vec<Option<RouterId>> = vec![None; b.links.len() - before];
    let mut next = routers as u32;
    for l in &mut b.links {
        for r in [&mut l.from, &mut l.to] {
            if r.index() >= routers {
                *r = *ids[(u32::MAX - r.0) as usize - before].get_or_insert_with(|| {
                    next += 1;
                    RouterId(next - 1)
                });
            }
        }
    }
    for _ in routers..next as usize {
        b.add_router();
    }
}

/// The full Table 1 parameter grid of the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParameterGrid {
    /// Values of `K` (paper: 5, 15, …, 95).
    pub num_clusters: Vec<usize>,
    /// Values of `connectivity` (paper: 0.1, 0.2, …, 0.8).
    pub connectivity: Vec<f64>,
    /// Values of `heterogeneity` (paper: 0.2, 0.4, 0.6, 0.8).
    pub heterogeneity: Vec<f64>,
    /// Mean `g` values (paper: 50, 250, 350, 450).
    pub mean_local_bw: Vec<f64>,
    /// Mean `bw` values (paper: 10, 20, …, 90).
    pub mean_backbone_bw: Vec<f64>,
    /// Mean `maxcon` values (paper: 5, 15, …, 95).
    pub mean_max_connections: Vec<f64>,
    /// Random platforms generated per grid cell (paper: 10).
    pub replicates: usize,
}

impl ParameterGrid {
    /// The exact grid of Table 1. Note: the paper reports "269,835 different
    /// platform configurations", which is smaller than the nominal product
    /// of the Table 1 ranges at 10 replicates per cell (1 152 000); the
    /// sweep was evidently partial. We keep the full grid definition here
    /// and let the experiment presets subsample it.
    pub fn paper() -> Self {
        ParameterGrid {
            num_clusters: (5..=95).step_by(10).collect(),
            connectivity: (1..=8).map(|i| i as f64 / 10.0).collect(),
            heterogeneity: vec![0.2, 0.4, 0.6, 0.8],
            mean_local_bw: vec![50.0, 250.0, 350.0, 450.0],
            mean_backbone_bw: (1..=9).map(|i| (i * 10) as f64).collect(),
            mean_max_connections: (0..=9).map(|i| (5 + i * 10) as f64).collect(),
            replicates: 10,
        }
    }

    /// Number of grid cells (excluding replicates).
    pub fn num_cells(&self) -> usize {
        self.num_clusters.len()
            * self.connectivity.len()
            * self.heterogeneity.len()
            * self.mean_local_bw.len()
            * self.mean_backbone_bw.len()
            * self.mean_max_connections.len()
    }

    /// Iterates over every configuration in the grid, in a deterministic
    /// order, `replicates` times each.
    pub fn configs(&self) -> impl Iterator<Item = PlatformConfig> + '_ {
        self.cell_configs()
            .flat_map(move |c| std::iter::repeat_n(c, self.replicates))
    }

    /// Iterates over one configuration per grid cell.
    pub fn cell_configs(&self) -> impl Iterator<Item = PlatformConfig> + '_ {
        self.num_clusters.iter().flat_map(move |&k| {
            self.connectivity.iter().flat_map(move |&conn| {
                self.heterogeneity.iter().flat_map(move |&het| {
                    self.mean_local_bw.iter().flat_map(move |&g| {
                        self.mean_backbone_bw.iter().flat_map(move |&bw| {
                            self.mean_max_connections
                                .iter()
                                .map(move |&mc| PlatformConfig {
                                    num_clusters: k,
                                    connectivity: conn,
                                    heterogeneity: het,
                                    mean_local_bw: g,
                                    mean_backbone_bw: bw,
                                    mean_max_connections: mc,
                                    speed: 100.0,
                                    relay_routers: 0,
                                })
                        })
                    })
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = PlatformConfig::default();
        let p1 = PlatformGenerator::new(42).generate(&cfg);
        let p2 = PlatformGenerator::new(42).generate(&cfg);
        assert_eq!(p1.to_json(), p2.to_json());
        let p3 = PlatformGenerator::new(43).generate(&cfg);
        assert_ne!(p1.to_json(), p3.to_json());
    }

    #[test]
    fn respects_cluster_count_and_speed() {
        let cfg = PlatformConfig {
            num_clusters: 17,
            speed: 100.0,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(1).generate(&cfg);
        assert_eq!(p.num_clusters(), 17);
        assert!(p.clusters.iter().all(|c| c.speed == 100.0));
    }

    #[test]
    fn heterogeneity_bounds_hold() {
        let cfg = PlatformConfig {
            num_clusters: 30,
            connectivity: 0.5,
            heterogeneity: 0.4,
            mean_local_bw: 250.0,
            mean_backbone_bw: 50.0,
            mean_max_connections: 30.0,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(7).generate(&cfg);
        for c in &p.clusters {
            assert!(c.local_bw >= 150.0 - 1e-9 && c.local_bw <= 350.0 + 1e-9);
        }
        for l in &p.links {
            assert!(l.bw_per_connection >= 30.0 - 1e-9 && l.bw_per_connection <= 70.0 + 1e-9);
            assert!(l.max_connections >= 18 && l.max_connections <= 42);
        }
    }

    #[test]
    fn connectivity_extremes() {
        let full = PlatformConfig {
            num_clusters: 8,
            connectivity: 1.0,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(3).generate(&full);
        assert_eq!(p.links.len(), 8 * 7 / 2);
        assert_eq!(p.routed_pairs().len(), 8 * 7);

        let none = PlatformConfig {
            num_clusters: 8,
            connectivity: 0.0,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(3).generate(&none);
        assert!(p.links.is_empty());
        assert!(p.routed_pairs().is_empty());
    }

    #[test]
    fn relay_routers_preserve_reachability() {
        let cfg = PlatformConfig {
            num_clusters: 6,
            connectivity: 1.0,
            relay_routers: 5,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(11).generate(&cfg);
        // All pairs still reachable, now possibly through relays.
        assert_eq!(p.routed_pairs().len(), 6 * 5);
        assert!(p.num_routers > 6);
        p.validate().unwrap();
    }

    #[test]
    fn paper_grid_shape() {
        let g = ParameterGrid::paper();
        assert_eq!(g.num_clusters.len(), 10);
        assert_eq!(g.connectivity.len(), 8);
        assert_eq!(g.heterogeneity.len(), 4);
        assert_eq!(g.mean_local_bw.len(), 4);
        assert_eq!(g.mean_backbone_bw.len(), 9);
        assert_eq!(g.mean_max_connections.len(), 10);
        assert_eq!(g.num_cells(), 10 * 8 * 4 * 4 * 9 * 10);
        assert_eq!(g.num_cells() * g.replicates, 1_152_000);
        assert_eq!(g.cell_configs().count(), g.num_cells());
    }
}
