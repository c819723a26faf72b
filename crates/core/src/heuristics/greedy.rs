//! The greedy heuristic `G` of §5.1.
//!
//! Repeatedly: (i) pick the application with the smallest relative share
//! `α_k·π_k` so far (ties to the higher payoff); (ii) find the cluster —
//! local or one connection-hop away — where one connection's worth of its
//! work is most profitable; (iii) allocate that work and debit the residual
//! platform.
//!
//! Two deliberate deviations from the paper's pseudo-code, both documented
//! in DESIGN.md:
//!
//! * the paper's step-3 sort key (*non-decreasing* `(1/(α_k π_k), π_k)`)
//!   contradicts its own prose; we implement the prose (smallest `α_k π_k`
//!   first, ties favouring the **larger** payoff);
//! * the paper's local allotment `max_{m≠k} min{g_k, g_{k,m}, g_m, s_k}`
//!   (the largest amount any *other* application could place on `C^k`,
//!   reserved to avoid starving them) can be zero when no other cluster can
//!   reach `C^k`, stalling the loop; we then grant the full residual speed,
//!   since reserving capacity nobody else can use is pointless. (Read
//!   literally, step 5 would retire that application with nothing: an
//!   isolated cluster of speed 100 gets 0 instead of 100.)

use super::Heuristic;
use crate::allocation::Allocation;
use crate::error::SolveError;
use crate::problem::ProblemInstance;
use crate::residual::ResidualPlatform;
use dls_platform::ClusterId;

/// Amounts below `EPSILON · (1 + max capacity)` are treated as zero —
/// guards termination against float dust.
const EPSILON: f64 = 1e-9;

/// The greedy heuristic `G`. Its loop is capped at `10·K² + Σ maxcon + 1000`
/// iterations, a safety net against non-termination.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy;

impl Heuristic for Greedy {
    fn name(&self) -> &'static str {
        "G"
    }

    fn solve(&self, inst: &ProblemInstance) -> Result<Allocation, SolveError> {
        if inst.payoffs.len() != inst.num_apps() {
            return Err(SolveError::PayoffMismatch {
                clusters: inst.num_apps(),
                payoffs: inst.payoffs.len(),
            });
        }
        let mut alloc = Allocation::zeros(inst.num_apps());
        let mut residual = ResidualPlatform::full(&inst.platform);
        self.run(inst, &mut residual, &mut alloc);
        Ok(alloc)
    }
}

impl Greedy {
    /// Core loop, shared with LPRG: extends `alloc` using whatever capacity
    /// `residual` still offers. Fairness decisions account for load already
    /// present in `alloc` (the LP-rounded part, for LPRG).
    pub(crate) fn run(
        &self,
        inst: &ProblemInstance,
        residual: &mut ResidualPlatform,
        alloc: &mut Allocation,
    ) {
        let p = &inst.platform;
        let k = p.num_clusters();
        let cap_scale = residual
            .speed
            .iter()
            .chain(residual.local_bw.iter())
            .fold(0.0f64, |a, &x| a.max(x));
        let eps = EPSILON * (1.0 + cap_scale);
        let total_conn: i64 = residual.conn_left.iter().sum();
        let max_iter = 10 * k * k + total_conn.max(0) as usize + 1000;

        // Step 1: only applications that want work compete (π_k > 0; the
        // paper's zero-payoff clusters are exactly those that "do not wish
        // to execute a divisible load application").
        let mut active: Vec<usize> = (0..k).filter(|&i| inst.payoffs[i] > 0.0).collect();
        let mut totals: Vec<f64> = alloc.throughputs();

        for _ in 0..max_iter {
            if active.is_empty() {
                break;
            }
            // Step 3 — select the most starved application.
            let &kk = active
                .iter()
                .min_by(|&&a, &&b| {
                    let sa = totals[a] * inst.payoffs[a];
                    let sb = totals[b] * inst.payoffs[b];
                    sa.total_cmp(&sb)
                        .then_with(|| inst.payoffs[b].total_cmp(&inst.payoffs[a]))
                        .then_with(|| a.cmp(&b))
                })
                .expect("active is non-empty");
            let ck = ClusterId(kk as u32);

            // Step 4 — pick the most profitable cluster. Local is the
            // baseline; remote candidates need an open connection slot on
            // every link of their route.
            let mut best_benefit = residual.speed[kk];
            let mut best_target = kk;
            for m in 0..k {
                if m == kk {
                    continue;
                }
                let cm = ClusterId(m as u32);
                if !residual.route_open(p, ck, cm) {
                    continue;
                }
                let bw = p
                    .route_bottleneck_bw(ck, cm)
                    .expect("open route has a bottleneck bw");
                let benefit = residual.local_bw[kk]
                    .min(bw)
                    .min(residual.local_bw[m])
                    .min(residual.speed[m]);
                if benefit > best_benefit + eps {
                    best_benefit = benefit;
                    best_target = m;
                }
            }

            if best_benefit <= eps {
                // Step 4 fallthrough — nothing profitable left for A_k.
                active.retain(|&a| a != kk);
                continue;
            }

            if best_target == kk {
                // Step 5, local branch: cede no more than the best amount
                // another application could have claimed on C^k.
                let mut contention = 0.0f64;
                for m in 0..k {
                    if m == kk {
                        continue;
                    }
                    let cm = ClusterId(m as u32);
                    if !residual.route_open(p, cm, ck) {
                        continue;
                    }
                    let bw = p
                        .route_bottleneck_bw(cm, ck)
                        .expect("open route has a bottleneck bw");
                    let could = residual.local_bw[m]
                        .min(bw)
                        .min(residual.local_bw[kk])
                        .min(residual.speed[kk]);
                    contention = contention.max(could);
                }
                let amount = if contention <= eps {
                    residual.speed[kk]
                } else {
                    contention.min(residual.speed[kk])
                };
                residual.speed[kk] -= amount;
                alloc.add_alpha(ck, ck, amount);
                totals[kk] += amount;
            } else {
                // Step 5/6, remote branch: one connection, `benefit` units.
                let cm = ClusterId(best_target as u32);
                let amount = best_benefit;
                residual.speed[best_target] -= amount;
                residual.local_bw[kk] -= amount;
                residual.local_bw[best_target] -= amount;
                residual.consume_connection(p, ck, cm);
                alloc.add_alpha(ck, cm, amount);
                alloc.add_beta(ck, cm, 1);
                totals[kk] += amount;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Objective;
    use dls_platform::{PlatformBuilder, PlatformConfig, PlatformGenerator};

    fn c(i: u32) -> ClusterId {
        ClusterId(i)
    }

    #[test]
    fn isolated_clusters_work_locally() {
        let mut b = PlatformBuilder::new();
        b.add_cluster(100.0, 10.0);
        b.add_cluster(60.0, 10.0);
        let inst = ProblemInstance::uniform(b.build().unwrap(), Objective::Sum);
        let a = Greedy.solve(&inst).unwrap();
        a.validate(&inst).unwrap();
        assert_eq!(a.alpha(c(0), c(0)), 100.0);
        assert_eq!(a.alpha(c(1), c(1)), 60.0);
        assert_eq!(a.objective_value(&inst), 160.0);
    }

    #[test]
    fn offloads_to_idle_fast_cluster() {
        // C0 is slow but well connected to a fast idle cluster C1 (payoff 0
        // → no local demand).
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(10.0, 50.0);
        let c1 = b.add_cluster(100.0, 50.0);
        b.connect_clusters(c0, c1, 20.0, 3);
        let inst =
            ProblemInstance::new(b.build().unwrap(), vec![1.0, 0.0], Objective::Sum).unwrap();
        let a = Greedy.solve(&inst).unwrap();
        a.validate(&inst).unwrap();
        // App 0: 10 locally + shipped work over up to 3 connections
        // (20 each, capped by g=50 and s=100).
        assert!(
            a.app_throughput(c(0)) > 10.0 + 39.0,
            "{}",
            a.app_throughput(c(0))
        );
        assert!(a.beta(c(0), c(1)) >= 2);
        // The idle application got nothing (and wanted nothing).
        assert_eq!(a.app_throughput(c(1)), 0.0);
    }

    #[test]
    fn respects_connection_budget() {
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(1.0, 1000.0);
        let c1 = b.add_cluster(1000.0, 1000.0);
        b.connect_clusters(c0, c1, 10.0, 2); // only 2 connections ever
        let inst =
            ProblemInstance::new(b.build().unwrap(), vec![1.0, 0.0], Objective::Sum).unwrap();
        let a = Greedy.solve(&inst).unwrap();
        a.validate(&inst).unwrap();
        assert!(a.beta(c(0), c(1)) <= 2);
        assert!(a.app_throughput(c(0)) <= 1.0 + 20.0 + 1e-9);
    }

    #[test]
    fn fairness_prefers_starved_app() {
        // Symmetric two-cluster platform: both apps should end with similar
        // throughput under equal payoffs.
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 30.0);
        let c1 = b.add_cluster(100.0, 30.0);
        b.connect_clusters(c0, c1, 10.0, 4);
        let inst = ProblemInstance::uniform(b.build().unwrap(), Objective::MaxMin);
        let a = Greedy.solve(&inst).unwrap();
        a.validate(&inst).unwrap();
        let t = a.throughputs();
        assert!((t[0] - t[1]).abs() < 1e-6, "{t:?}");
        assert!(t[0] >= 100.0 - 1e-9);
    }

    #[test]
    fn higher_payoff_wins_ties() {
        // Both apps start at share 0; the higher-payoff app is served first
        // and should grab the single connection to the big idle cluster.
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(1.0, 100.0);
        let c1 = b.add_cluster(1.0, 100.0);
        let c2 = b.add_cluster(50.0, 100.0);
        b.connect_clusters(c0, c2, 50.0, 1);
        b.connect_clusters(c1, c2, 50.0, 1);
        let inst =
            ProblemInstance::new(b.build().unwrap(), vec![1.0, 5.0, 0.0], Objective::Sum).unwrap();
        let a = Greedy.solve(&inst).unwrap();
        a.validate(&inst).unwrap();
        // App 1 (payoff 5) moves first and claims C2's speed.
        assert!(a.alpha(c(1), c(2)) > a.alpha(c(0), c(2)));
    }

    #[test]
    fn always_valid_on_random_platforms() {
        for seed in 0..30 {
            let cfg = PlatformConfig {
                num_clusters: 3 + (seed as usize % 10),
                connectivity: 0.1 * ((seed % 8) + 1) as f64,
                ..PlatformConfig::default()
            };
            let p = PlatformGenerator::new(seed).generate(&cfg);
            for objective in [Objective::Sum, Objective::MaxMin] {
                let inst = ProblemInstance::uniform(p.clone(), objective);
                let a = Greedy.solve(&inst).unwrap();
                assert!(
                    a.validate(&inst).is_ok(),
                    "seed {seed}: {:?}",
                    a.violations(&inst)
                );
                // The greedy only retires an application once its home
                // cluster's residual speed hits zero, so every cluster ends
                // saturated: total load equals Σ s_k exactly.
                let total_speed = 100.0 * inst.num_apps() as f64;
                assert!(
                    (a.total_load() - total_speed).abs() < 1e-6 * total_speed,
                    "total {} vs Σs {}",
                    a.total_load(),
                    total_speed
                );
                for t in a.throughputs() {
                    assert!(t > 0.0, "an application starved completely");
                }
            }
        }
    }
}
