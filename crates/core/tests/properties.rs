//! Property tests for the scheduling core: every heuristic must produce a
//! valid allocation on arbitrary random platforms, dominance relations must
//! hold, and schedule reconstruction must preserve feasibility.

use dls_core::heuristics::{ExactMilp, Greedy, Heuristic, Lpr, Lprg, Lprr, UpperBound};
use dls_core::schedule::ScheduleBuilder;
use dls_core::{adaptive, Allocation, LpFormulation, Objective, ProblemInstance};
use dls_lp::{solve_auto, RevisedSimplex, Status, WarmSimplex};
use dls_platform::{ClusterId, PlatformBuilder, PlatformConfig, PlatformGenerator};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[derive(Debug, Clone)]
struct ArbInstance {
    inst: ProblemInstance,
    seed: u64,
}

fn arb_instance(max_k: usize) -> impl Strategy<Value = ArbInstance> {
    (
        2usize..=max_k,
        0.0f64..=1.0,
        prop_oneof![Just(0.2), Just(0.4), Just(0.6), Just(0.8)],
        prop_oneof![Just(50.0), Just(250.0), Just(450.0)],
        10.0f64..90.0,
        2.0f64..40.0,
        0u64..10_000,
        prop_oneof![Just(Objective::Sum), Just(Objective::MaxMin)],
        0.0f64..1.0, // fraction of zero-payoff apps
    )
        .prop_map(|(k, conn, het, g, bw, mc, seed, objective, zero_frac)| {
            let cfg = PlatformConfig {
                num_clusters: k,
                connectivity: conn,
                heterogeneity: het,
                mean_local_bw: g,
                mean_backbone_bw: bw,
                mean_max_connections: mc,
                speed: 100.0,
                relay_routers: 0,
            };
            let platform = PlatformGenerator::new(seed).generate(&cfg);
            // Deterministic payoff pattern with some zero-payoff apps,
            // but always at least one active application.
            let payoffs: Vec<f64> = (0..k)
                .map(|i| {
                    if i > 0 && (i as f64 / k as f64) < zero_frac {
                        0.0
                    } else {
                        1.0 + (i % 3) as f64
                    }
                })
                .collect();
            let inst = ProblemInstance::new(platform, payoffs, objective).unwrap();
            ArbInstance { inst, seed }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn greedy_always_valid(a in arb_instance(10)) {
        let alloc = Greedy::default().solve(&a.inst).unwrap();
        prop_assert!(alloc.validate(&a.inst).is_ok(), "{:?}", alloc.violations(&a.inst));
    }

    #[test]
    fn lpr_and_lprg_always_valid_and_ordered(a in arb_instance(8)) {
        let lpr = Lpr::default().solve(&a.inst).unwrap();
        let lprg = Lprg::default().solve(&a.inst).unwrap();
        prop_assert!(lpr.validate(&a.inst).is_ok(), "{:?}", lpr.violations(&a.inst));
        prop_assert!(lprg.validate(&a.inst).is_ok(), "{:?}", lprg.violations(&a.inst));
        let (v_lpr, v_lprg) = (lpr.objective_value(&a.inst), lprg.objective_value(&a.inst));
        prop_assert!(v_lprg >= v_lpr - 1e-6 * (1.0 + v_lpr.abs()),
            "LPRG {v_lprg} < LPR {v_lpr}");
    }

    #[test]
    fn all_heuristics_below_upper_bound(a in arb_instance(7)) {
        let ub = UpperBound::default().bound(&a.inst).unwrap();
        let g = Greedy::default().solve(&a.inst).unwrap().objective_value(&a.inst);
        let lprg = Lprg::default().solve(&a.inst).unwrap().objective_value(&a.inst);
        let slack = 1e-5 * (1.0 + ub.abs());
        prop_assert!(g <= ub + slack, "G {g} above LP bound {ub}");
        prop_assert!(lprg <= ub + slack, "LPRG {lprg} above LP bound {ub}");
    }

    #[test]
    fn lprr_valid_and_bounded(a in arb_instance(5)) {
        let alloc = Lprr::new(a.seed).solve(&a.inst).unwrap();
        prop_assert!(alloc.validate(&a.inst).is_ok(), "{:?}", alloc.violations(&a.inst));
        let ub = UpperBound::default().bound(&a.inst).unwrap();
        let v = alloc.objective_value(&a.inst);
        prop_assert!(v <= ub + 1e-5 * (1.0 + ub.abs()), "LPRR {v} above bound {ub}");
    }

    #[test]
    fn schedules_reconstruct_for_every_heuristic(a in arb_instance(6)) {
        let builder = ScheduleBuilder::default();
        for alloc in [
            Greedy::default().solve(&a.inst).unwrap(),
            Lprg::default().solve(&a.inst).unwrap(),
        ] {
            let s = builder.build(&a.inst, &alloc).unwrap();
            prop_assert!(s.validate(&a.inst).is_ok());
            // Per-app throughput loss bounded by K/D.
            let bound = a.inst.num_apps() as f64 / builder.denominator as f64;
            for (orig, rec) in alloc.throughputs().iter().zip(s.throughputs()) {
                prop_assert!(orig - rec >= -1e-9);
                prop_assert!(orig - rec <= bound + 1e-9, "loss {}", orig - rec);
            }
        }
    }

    #[test]
    fn scale_to_fit_always_valid(a in arb_instance(7), factor in 0.3f64..1.0) {
        let alloc = Greedy::default().solve(&a.inst).unwrap();
        // Shrink the platform and refit.
        let mut harsher = a.inst.clone();
        for c in harsher.platform.clusters.iter_mut() {
            c.speed *= factor;
            c.local_bw *= factor;
        }
        let (scaled, gamma) = adaptive::scale_to_fit(&alloc, &harsher);
        prop_assert!((0.0..=1.0).contains(&gamma));
        prop_assert!(scaled.validate(&harsher).is_ok(), "{:?}", scaled.violations(&harsher));
        prop_assert!(gamma >= factor - 1e-9, "gamma {gamma} below uniform factor {factor}");
    }
}

/// Replays a random LPRR-style pin sequence through the warm pipeline
/// (`relaxation_warm` + `pin_beta` deltas + `WarmSimplex`) and asserts that
/// every warm solve matches a cold `relaxation_with_fixed` rebuild: same
/// status, same objective, and a basic solution feasible for the patched
/// model. The same budget discipline as `Lprr` keeps every step feasible.
fn replay_pins_warm_vs_cold(inst: &ProblemInstance, seed: u64, max_pins: usize) {
    let p = &inst.platform;
    let k = p.num_clusters();
    let mut f = LpFormulation::relaxation_warm(inst).unwrap();
    let mut warm = WarmSimplex::new(f.model.clone(), RevisedSimplex::default()).unwrap();
    warm.check_against_cold = true; // internal same-model oracle
    let mut fixed: Vec<Option<u32>> = vec![None; k * k];
    let mut budgets: Vec<i64> = p.links.iter().map(|l| l.max_connections as i64).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut pinnable: Vec<(ClusterId, ClusterId)> = Vec::new();
    for from in p.cluster_ids() {
        for to in p.cluster_ids() {
            if from != to
                && p.route_bottleneck_bw(from, to)
                    .is_some_and(|bw| bw.is_finite())
            {
                pinnable.push((from, to));
            }
        }
    }

    for _ in 0..=max_pins {
        // Warm solve vs cold rebuild of the fixed-β relaxation.
        let sol = warm.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(
            warm.model().check_feasible(&sol.values, 1e-6).is_ok(),
            "{:?}",
            warm.model().check_feasible(&sol.values, 1e-6)
        );
        let cold_f = LpFormulation::relaxation_with_fixed(inst, &fixed).unwrap();
        let cold = solve_auto(&cold_f.model).unwrap();
        assert_eq!(cold.status, Status::Optimal);
        assert!(
            (sol.objective - cold.objective).abs() <= 1e-5 * (1.0 + cold.objective.abs()),
            "warm {} vs cold {} after {} pins",
            sol.objective,
            cold.objective,
            fixed.iter().flatten().count()
        );

        if pinnable.is_empty() {
            break;
        }
        let (from, to) = pinnable.swap_remove(rng.gen_range(0..pinnable.len()));
        let route = p.route(from, to).expect("pinnable pair has a route");
        let budget = route
            .iter()
            .map(|l| budgets[l.index()])
            .min()
            .unwrap_or(0)
            .max(0);
        let v = rng.gen_range(0..=budget.min(3)) as u32;
        fixed[from.index() * k + to.index()] = Some(v);
        for l in route {
            budgets[l.index()] -= v as i64;
        }
        let delta = f.pin_beta(inst, from, to, v).unwrap();
        warm.set_var_bounds(delta.var, delta.lo, delta.up).unwrap();
        for &(con, var) in &delta.coef_zeroed {
            warm.set_coefficient(con, var, 0.0).unwrap();
        }
        for &(con, rhs) in &delta.rhs {
            warm.set_rhs(con, rhs).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lprr_pin_replay_warm_matches_cold(a in arb_instance(6), seed in 0u64..10_000) {
        // `arb_instance` draws both steady-state models (SUM and MAXMIN)
        // and heterogeneous platform shapes.
        replay_pins_warm_vs_cold(&a.inst, seed, 12);
    }

    #[test]
    fn lprr_pin_replay_with_relay_routers(
        k in 3usize..6,
        relays in 1usize..3,
        seed in 0u64..10_000,
        objective in prop_oneof![Just(Objective::Sum), Just(Objective::MaxMin)],
    ) {
        // Relay-router platforms have multi-hop routes, so one pin touches
        // several (7d) rows at once.
        let cfg = PlatformConfig {
            num_clusters: k,
            connectivity: 0.5,
            relay_routers: relays,
            ..PlatformConfig::default()
        };
        let platform = PlatformGenerator::new(seed).generate(&cfg);
        let inst = ProblemInstance::uniform(platform, objective);
        replay_pins_warm_vs_cold(&inst, seed ^ 0xdead_beef, 10);
    }
}

/// §5.2.3's rounding loop driven from outside through the public pieces —
/// `relaxation_warm` + `pin_beta` + one `WarmSimplex::solve` after *every*
/// pin, the same RNG draws in the same order. The oracle `Lprr::solve`'s
/// lazy loop must reproduce bit for bit.
fn replay_lprr_every_pin(inst: &ProblemInstance, seed: u64) -> Allocation {
    let p = &inst.platform;
    let k = p.num_clusters();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut unfixed: Vec<usize> = p
        .routed_pairs()
        .into_iter()
        .filter(|&(from, to)| {
            p.route_bottleneck_bw(from, to)
                .is_some_and(|bw| bw.is_finite())
        })
        .map(|(from, to)| from.index() * k + to.index())
        .collect();
    let mut fixed: Vec<Option<u32>> = vec![None; k * k];
    let mut budgets: Vec<i64> = p.links.iter().map(|l| l.max_connections as i64).collect();
    let mut f = LpFormulation::relaxation_warm(inst).unwrap();
    let mut warm = WarmSimplex::new(f.model.clone(), RevisedSimplex::default()).unwrap();
    loop {
        let sol = warm.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        let frac = f.extract_fractional(&sol);
        if unfixed.is_empty() {
            let mut alloc = Allocation::zeros(k);
            alloc.alpha.copy_from_slice(&frac.alpha);
            for (b, f) in alloc.beta.iter_mut().zip(&fixed) {
                *b = f.unwrap_or(0);
            }
            return alloc;
        }
        let nonzero: Vec<usize> = unfixed
            .iter()
            .copied()
            .filter(|&i| frac.beta[i] > 1e-9)
            .collect();
        let candidates = if nonzero.is_empty() {
            &unfixed
        } else {
            &nonzero
        };
        let pick = candidates[rng.gen_range(0..candidates.len())];
        let floor = (frac.beta[pick] + 1e-9).floor();
        let fraction = (frac.beta[pick] - floor).clamp(0.0, 1.0);
        let up = fraction > 1e-9 && rng.gen_bool(fraction);
        let (from, to) = (ClusterId((pick / k) as u32), ClusterId((pick % k) as u32));
        let route = p.route(from, to).unwrap();
        let budget = route.iter().map(|l| budgets[l.index()]).min().unwrap();
        let v = (floor as i64 + i64::from(up)).min(budget).max(0);
        fixed[pick] = Some(v as u32);
        for l in route {
            budgets[l.index()] -= v;
        }
        unfixed.retain(|&i| i != pick);
        let delta = f.pin_beta(inst, from, to, v as u32).unwrap();
        warm.set_var_bounds(delta.var, delta.lo, delta.up).unwrap();
        for &(con, var) in &delta.coef_zeroed {
            warm.set_coefficient(con, var, 0.0).unwrap();
        }
        for &(con, rhs) in &delta.rhs {
            warm.set_rhs(con, rhs).unwrap();
        }
    }
}

/// Islands of four fully-meshed clusters, no inter-island links.
fn island_instance(k: usize, seed: u64) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = PlatformBuilder::new();
    let clusters: Vec<ClusterId> = (0..k)
        .map(|_| b.add_cluster(100.0, rng.gen_range(150.0..350.0)))
        .collect();
    for island in clusters.chunks(4) {
        for (i, &a) in island.iter().enumerate() {
            for &c in &island[i + 1..] {
                b.connect_clusters(a, c, rng.gen_range(10.0..50.0), rng.gen_range(5..25));
            }
        }
    }
    ProblemInstance::with_spread_payoffs(b.build().unwrap(), Objective::MaxMin, 0.5, seed)
}

/// `Lprr::solve` re-solves only after pins that can move the LP; the answer
/// must be the solve-every-pin loop's, bit for bit — on the paper's platform
/// shape (dense-inverse warm basis up to K = 20, sparse LU with its deferred
/// `x_B` at K = 44), on a block-diagonal island platform, and with connection budgets of 1–2, where (7d) rows
/// bind and carry a price. (The budget clamp itself cannot fire from here:
/// each LP caps `β̃` at the integral remaining budget, so `⌈β̃⌉` fits.)
#[test]
fn lprr_lazy_resolves_match_the_solve_every_pin_replay() {
    let paper = |k: usize, max_connections: f64| PlatformConfig {
        num_clusters: k,
        mean_backbone_bw: 30.0,
        mean_max_connections: max_connections,
        ..PlatformConfig::default()
    };
    let generated = |cfg: PlatformConfig, seed: u64, objective| {
        let platform = PlatformGenerator::new(seed).generate(&cfg);
        ProblemInstance::with_spread_payoffs(platform, objective, 0.5, seed)
    };
    for (inst, seed) in [
        (generated(paper(12, 15.0), 42, Objective::MaxMin), 42),
        (generated(paper(20, 15.0), 42, Objective::MaxMin), 7),
        (generated(paper(20, 15.0), 7, Objective::Sum), 42),
        (generated(paper(44, 15.0), 42, Objective::MaxMin), 42),
        (island_instance(16, 5), 5),
        (generated(paper(12, 1.0), 3, Objective::MaxMin), 3),
        (generated(paper(12, 2.0), 8, Objective::Sum), 8),
        (generated(paper(12, 2.0), 9, Objective::MaxMin), 9),
    ] {
        let replayed = replay_lprr_every_pin(&inst, seed);
        let direct = Lprr::new(seed).solve(&inst).unwrap();
        assert_eq!(direct, replayed, "seed {seed}, K = {}", inst.num_apps());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `scale_to_fit`: on any drifted platform, the γ-scaled allocation is
    /// always feasible, γ stays in [0, 1], and an undrifted platform keeps
    /// γ = 1 (the allocation untouched).
    #[test]
    fn scale_to_fit_is_always_feasible(
        a in arb_instance(8),
        speed_f in proptest::collection::vec(0.0f64..3.0, 8),
        local_f in proptest::collection::vec(0.05f64..3.0, 8),
        bw_f in proptest::collection::vec(0.05f64..3.0, 16),
        conn_f in proptest::collection::vec(0.0f64..2.0, 16),
    ) {
        let alloc = Greedy::default().solve(&a.inst).unwrap();

        // Identity: no drift → γ = 1 (up to the float noise of ratios that
        // sit exactly at capacity) and the allocation survives as-is.
        let (same, gamma) = adaptive::scale_to_fit(&alloc, &a.inst);
        prop_assert!((gamma - 1.0).abs() < 1e-9, "undrifted γ = {gamma}");
        prop_assert_eq!(&same.beta, &alloc.beta);
        for (s, o) in same.alpha.iter().zip(&alloc.alpha) {
            prop_assert!((s - o).abs() <= 1e-9 * (1.0 + o.abs()));
        }

        // Arbitrary multiplicative drift, including outright outages
        // (speed factor 0) and connection-cap cuts.
        let mut drifted = a.inst.clone();
        for (i, c) in drifted.platform.clusters.iter_mut().enumerate() {
            c.speed *= speed_f[i % speed_f.len()];
            c.local_bw *= local_f[i % local_f.len()];
        }
        for (i, l) in drifted.platform.links.iter_mut().enumerate() {
            l.bw_per_connection *= bw_f[i % bw_f.len()];
            l.max_connections =
                ((l.max_connections as f64) * conn_f[i % conn_f.len()]) as u32;
        }
        let (scaled, gamma) = adaptive::scale_to_fit(&alloc, &drifted);
        prop_assert!((0.0..=1.0).contains(&gamma), "γ = {gamma}");
        prop_assert!(scaled.validate(&drifted).is_ok(),
            "γ = {gamma} left violations: {:?}", scaled.violations(&drifted));
        // Either the whole allocation was dropped (the unscalable (7d)
        // gate failed), or the scaling is exactly uniform on α with β
        // untouched.
        if scaled.beta == alloc.beta {
            for (s, o) in scaled.alpha.iter().zip(&alloc.alpha) {
                prop_assert!((s - gamma * o).abs() <= 1e-12 * (1.0 + o.abs()));
            }
        } else {
            prop_assert_eq!(&scaled, &dls_core::Allocation::zeros(a.inst.num_apps()));
            prop_assert_eq!(gamma, 0.0);
        }
    }
}

proptest! {
    // The exact solver is expensive: fewer, smaller cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn exact_dominates_heuristics(a in arb_instance(4)) {
        let exact = ExactMilp::default().solve(&a.inst).unwrap();
        prop_assert!(exact.validate(&a.inst).is_ok());
        let opt = exact.objective_value(&a.inst);
        let ub = UpperBound::default().bound(&a.inst).unwrap();
        prop_assert!(opt <= ub + 1e-5 * (1.0 + ub.abs()));
        for h in [&Greedy::default() as &dyn Heuristic, &Lprg::default()] {
            let v = h.solve(&a.inst).unwrap().objective_value(&a.inst);
            prop_assert!(v <= opt + 1e-5 * (1.0 + opt.abs()),
                "{} {v} beats exact {opt}", h.name());
        }
    }
}
