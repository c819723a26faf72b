//! Seeded input generators. Every workload input is a pure function of
//! `--seed`; the product crates only ever see what is generated here.

use dls_core::adaptive::DriftConfig;
use dls_core::{Objective, ProblemInstance};
use dls_platform::{ClusterId, PlatformBuilder};
use dls_scenario::catalog::poisson_jobs;
use dls_scenario::{drift_events, Scenario};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

pub use dls_scenario::catalog::paper_shape_instance;

/// Seed of the `i`-th input of a run. A full-width mix (the splitmix64
/// finaliser), so neighbouring `--seed` values share no inputs.
pub fn unit_seed(seed: u64, i: usize) -> u64 {
    let mut h = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((i as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Clusters per island of [`island_instance`].
pub const ISLAND: usize = 8;

/// A federation-shaped platform: islands of [`ISLAND`] fully-meshed clusters
/// with no inter-island links, so the constraint matrix is block-diagonal —
/// the structure the sparse LU core is built for. Payoffs are spread so
/// transfers matter.
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

/// Poisson job arrivals over `horizon` periods with every capacity of the
/// platform drifting by up to `drift` per period.
pub fn drift_scenario(inst: &ProblemInstance, horizon: f64, drift: f64, seed: u64) -> Scenario {
    let k = inst.platform.num_clusters();
    let mut scenario = Scenario {
        name: "online_drift".into(),
        period: 1.0,
        jobs: poisson_jobs(k, horizon, seed ^ 0xa5a5),
        platform_events: drift_events(
            &inst.platform,
            &DriftConfig {
                epochs: horizon as usize + 1,
                speed_drift: drift,
                local_bw_drift: drift,
                backbone_bw_drift: drift,
                seed: seed ^ 0x5a5a,
                ..DriftConfig::default()
            },
            1.0,
        ),
    };
    scenario.normalise();
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_seeds_are_distinct_across_neighbouring_runs() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 40..44 {
            for i in 0..64 {
                assert!(seen.insert(unit_seed(seed, i)));
            }
        }
        assert_eq!(unit_seed(42, 3), unit_seed(42, 3));
    }

    #[test]
    fn island_platforms_have_no_inter_island_routes() {
        let inst = island_instance(16, 5);
        let p = &inst.platform;
        assert_eq!(p.num_clusters(), 16);
        assert!(p.route(ClusterId(0), ClusterId(7)).is_some());
        assert!(p.route(ClusterId(0), ClusterId(8)).is_none());
    }
}
