//! A catalog of named, seeded scenario families.
//!
//! Each entry deterministically builds a `(ProblemInstance, Scenario)` pair
//! from a cluster count and a seed, so sweeps, benches, the CLI, and the
//! examples all speak the same names:
//!
//! | name | workload | platform dynamics |
//! |------|----------|-------------------|
//! | `steady` | Poisson arrivals | none |
//! | `bursty` | on/off (flash-crowd) arrivals | none |
//! | `drift` | Poisson arrivals | multiplicative capacity drift each period |
//! | `churn` | Poisson arrivals | periodic cluster leave/join cycles |
//! | `flash` | one t=0 burst + trickle | none |
//! | `faulty` | Poisson arrivals | cluster crashes (lost work), straggler windows, rejoins |
//! | `partition` | Poisson arrivals | backbone partitions that split and heal |

use crate::events::{ArrivalProcess, JobSpec, PlatformChange, PlatformEvent, Scenario};
use dls_core::adaptive::DriftConfig;
use dls_core::{Objective, ProblemInstance};
use dls_platform::{ClusterId, PlatformBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A named catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Catalog key (`steady`, `bursty`, `drift`, `churn`, `flash`).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
}

/// All catalog entries.
pub fn catalog() -> Vec<CatalogEntry> {
    vec![
        CatalogEntry {
            name: "steady",
            description: "Poisson arrivals on a static platform",
        },
        CatalogEntry {
            name: "bursty",
            description: "on/off arrival bursts on a static platform",
        },
        CatalogEntry {
            name: "drift",
            description: "Poisson arrivals under multiplicative capacity drift",
        },
        CatalogEntry {
            name: "churn",
            description: "Poisson arrivals with periodic cluster leave/join",
        },
        CatalogEntry {
            name: "flash",
            description: "a t=0 flash crowd followed by a trickle",
        },
        CatalogEntry {
            name: "faulty",
            description: "cluster crashes with lost work, straggler windows, rejoins",
        },
        CatalogEntry {
            name: "partition",
            description: "backbone partitions that split the platform and heal",
        },
    ]
}

/// The paper-shape platform the catalog draws (Table 1 grid centre), with
/// spread payoffs so transfers matter. Re-exported from `dls_core` so the
/// benchmark and the tests measure exactly the platforms the catalog
/// replays.
pub use dls_core::paper_shape_instance;

/// Clusters per island in [`island_instance`]. Eight fully-meshed clusters
/// give each island 28 backbone links and 56 routed pairs — enough coupling
/// for non-trivial LPs while the global constraint matrix stays
/// block-diagonal, which is the structure the sparse LU engine exploits.
pub const ISLAND: usize = 8;

/// Deterministic large-K federation instance (`perf`'s sparse-scaling
/// section, the pin-sweep allocation test): islands of [`ISLAND`]
/// fully-meshed clusters with no inter-island links. The paper-shape
/// generator's `connectivity · K²` backbone is intractable (and
/// unrealistically dense) beyond a few hundred clusters; real large
/// platforms are federations of well-connected sites, and the resulting
/// block structure keeps basis fill-in — and therefore sparse solve time —
/// near-linear in K.
pub fn island_instance(k: usize, seed: u64) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51a9_d05e_c0de_0001);
    let mut b = PlatformBuilder::new();
    let clusters: Vec<ClusterId> = (0..k)
        .map(|_| b.add_cluster(100.0, rng.gen_range(150.0..350.0)))
        .collect();
    for island in clusters.chunks(ISLAND) {
        for (i, &a) in island.iter().enumerate() {
            for &c in &island[i + 1..] {
                let bw = rng.gen_range(10.0..50.0);
                let conn: u32 = rng.gen_range(5..25);
                b.connect_clusters(a, c, bw, conn);
            }
        }
    }
    let platform = b.build().expect("island platform is valid");
    ProblemInstance::with_spread_payoffs(
        platform,
        Objective::MaxMin,
        0.5,
        seed ^ 0x9e37_79b9_7f4a_7c15,
    )
}

/// The catalog's workload: Poisson arrivals offering roughly 40% of the
/// platform's aggregate speed, so queues stay stable but the network is
/// genuinely exercised. Public for the same reason as
/// [`paper_shape_instance`].
pub fn poisson_jobs(k: usize, horizon: f64, seed: u64) -> Vec<JobSpec> {
    let mean_size = 150.0;
    let rate = 0.4 * k as f64 * 100.0 / mean_size;
    ArrivalProcess::Poisson { rate, mean_size }.generate(horizon, k, seed)
}

/// Builds a catalog entry. Returns `None` for unknown names.
pub fn build(name: &str, k: usize, seed: u64) -> Option<(ProblemInstance, Scenario)> {
    let inst = paper_shape_instance(k, seed);
    let period = 1.0;
    let horizon = 20.0;
    let scenario = match name {
        "steady" => Scenario {
            name: name.into(),
            period,
            jobs: poisson_jobs(k, horizon, seed ^ 0xa5a5),
            platform_events: Vec::new(),
        },
        "bursty" => Scenario {
            name: name.into(),
            period,
            jobs: ArrivalProcess::OnOff {
                rate: 0.8 * k as f64,
                mean_size: 150.0,
                on_len: 3.0,
                off_len: 5.0,
            }
            .generate(horizon, k, seed ^ 0xa5a5),
            platform_events: Vec::new(),
        },
        "drift" => Scenario {
            name: name.into(),
            period,
            jobs: poisson_jobs(k, horizon, seed ^ 0xa5a5),
            platform_events: crate::events::drift_events(
                &inst.platform,
                &DriftConfig {
                    epochs: horizon as usize + 1,
                    seed: seed ^ 0x5a5a,
                    ..DriftConfig::default()
                },
                period,
            ),
        },
        "churn" => {
            let mut events = Vec::new();
            // Every 6 periods one cluster (round-robin) leaves for 3.
            let mut victim = 0u32;
            let mut t = 4.0;
            while t + 3.0 < horizon {
                events.push(PlatformEvent {
                    time: t,
                    change: PlatformChange::ClusterLeave { cluster: victim },
                });
                events.push(PlatformEvent {
                    time: t + 3.0,
                    change: PlatformChange::ClusterJoin { cluster: victim },
                });
                victim = (victim + 1) % k as u32;
                t += 6.0;
            }
            Scenario {
                name: name.into(),
                period,
                jobs: poisson_jobs(k, horizon, seed ^ 0xa5a5),
                platform_events: events,
            }
        }
        "flash" => {
            let mut jobs = poisson_jobs(k, horizon, seed ^ 0xa5a5);
            // The flash crowd: one burst of K large jobs at t = 0.
            for c in 0..k {
                jobs.push(JobSpec {
                    arrival: 0.0,
                    origin: c as u32,
                    size: 300.0,
                    weight: 1.0,
                });
            }
            Scenario {
                name: name.into(),
                period,
                jobs,
                platform_events: Vec::new(),
            }
        }
        "faulty" => {
            // Every 7 periods a round-robin victim crashes (in-flight and
            // queued work lost, load re-dispatched) and rejoins 3 periods
            // later; between crashes a straggler window halves another
            // cluster's capacity for 2 periods.
            let mut events = Vec::new();
            let mut victim = 0u32;
            let mut t = 4.0;
            while t + 3.0 < horizon {
                events.push(PlatformEvent {
                    time: t,
                    change: PlatformChange::ClusterCrash { cluster: victim },
                });
                events.push(PlatformEvent {
                    time: t + 3.0,
                    change: PlatformChange::ClusterJoin { cluster: victim },
                });
                let straggler = (victim + 1) % k as u32;
                events.push(PlatformEvent {
                    time: t + 1.0,
                    change: PlatformChange::Straggler {
                        cluster: straggler,
                        factor: 0.5,
                        until: t + 3.0,
                    },
                });
                victim = (victim + 2) % k as u32;
                t += 7.0;
            }
            Scenario {
                name: name.into(),
                period,
                jobs: poisson_jobs(k, horizon, seed ^ 0xa5a5),
                platform_events: events,
            }
        }
        "partition" => {
            // Every 8 periods the backbone splits a rotating half of the
            // clusters away from the rest for 3 periods, then heals.
            let mut events = Vec::new();
            let half = (k / 2).max(1);
            let mut offset = 0usize;
            let mut t = 3.0;
            while t + 3.0 < horizon {
                let side: Vec<u32> = (0..half).map(|i| ((offset + i) % k) as u32).collect();
                let rest: Vec<u32> = (0..k as u32).filter(|c| !side.contains(c)).collect();
                if !rest.is_empty() {
                    events.push(PlatformEvent {
                        time: t,
                        change: PlatformChange::BackbonePartition {
                            groups: vec![side, rest],
                            until: t + 3.0,
                        },
                    });
                }
                offset = (offset + half) % k;
                t += 8.0;
            }
            Scenario {
                name: name.into(),
                period,
                jobs: poisson_jobs(k, horizon, seed ^ 0xa5a5),
                platform_events: events,
            }
        }
        _ => return None,
    };
    let mut scenario = scenario;
    scenario.normalise();
    debug_assert!(scenario.validate(&inst.platform).is_ok());
    Some((inst, scenario))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn island_instance_is_block_structured() {
        let inst = island_instance(20, 5);
        let p = &inst.platform;
        assert_eq!(p.num_clusters(), 20);
        // Routed pairs stay within their island: 8 + 8 + 4 clusters give
        // 8·7 + 8·7 + 4·3 directed pairs and nothing across islands.
        let pairs = p.routed_pairs();
        assert_eq!(pairs.len(), 56 + 56 + 12);
        for (a, b) in pairs {
            assert_eq!(a.index() / ISLAND, b.index() / ISLAND);
        }
    }

    #[test]
    fn every_entry_builds_and_validates() {
        for e in catalog() {
            let (inst, sc) = build(e.name, 6, 11).expect("known entry");
            assert!(sc.validate(&inst.platform).is_ok(), "{}", e.name);
            assert!(!sc.jobs.is_empty(), "{} has no jobs", e.name);
            // Deterministic.
            let (_, sc2) = build(e.name, 6, 11).unwrap();
            assert_eq!(sc.jobs, sc2.jobs);
            assert_eq!(sc.platform_events, sc2.platform_events);
        }
        assert!(build("nope", 6, 11).is_none());
    }

    #[test]
    fn drift_and_churn_have_platform_events() {
        let (_, drift) = build("drift", 5, 3).unwrap();
        assert!(!drift.platform_events.is_empty());
        let (_, churn) = build("churn", 5, 3).unwrap();
        assert!(churn
            .platform_events
            .iter()
            .any(|e| matches!(e.change, PlatformChange::ClusterLeave { .. })));
    }

    #[test]
    fn fault_entries_carry_their_fault_events() {
        let (_, faulty) = build("faulty", 5, 3).unwrap();
        assert!(faulty
            .platform_events
            .iter()
            .any(|e| matches!(e.change, PlatformChange::ClusterCrash { .. })));
        assert!(faulty
            .platform_events
            .iter()
            .any(|e| matches!(e.change, PlatformChange::Straggler { .. })));
        let (_, partition) = build("partition", 5, 3).unwrap();
        assert!(partition
            .platform_events
            .iter()
            .any(|e| matches!(e.change, PlatformChange::BackbonePartition { .. })));
    }
}
