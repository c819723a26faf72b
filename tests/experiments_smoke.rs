//! Integration: the experiment harness regenerates every figure at Quick
//! scale, and the paper's qualitative claims hold on those samples.

use dls::core::heuristics::Lprr;
use dls::core::Objective;
use dls::experiments::{
    fig5, fig6, fig7, overall_ratio, sweep_instance, table1, Preset, RunnerConfig,
};

#[test]
fn fig5_quick_shape() {
    let out = fig5(Preset::Quick, 7, 0);
    // Both objectives aggregated, every ratio in (0, 1].
    assert_eq!(out.aggregates.len(), 2);
    for (_, agg) in &out.aggregates {
        assert!(!agg.is_empty());
        for a in agg {
            for (name, r) in &a.ratios {
                assert!(
                    (0.0..=1.0 + 1e-9).contains(r),
                    "{name} ratio {r} out of range"
                );
            }
            // LPR ≤ LPRG pointwise in the aggregate means too.
            let lpr = a.ratio("LPR").unwrap();
            let lprg = a.ratio("LPRG").unwrap();
            assert!(lpr <= lprg + 1e-9);
        }
    }
    // §6.1 scalar: LPRG at least matches G on average (the paper reports
    // 1.98× for MAXMIN, 1.02× for SUM at full scale).
    let r = overall_ratio(&out.records, Objective::MaxMin, "LPRG", "G").unwrap();
    assert!(r >= 0.99, "LPRG/G MAXMIN ratio {r} below parity");
}

#[test]
fn fig6_quick_lprr_dominates_lpr_rounding_floor() {
    let out = fig6(Preset::Quick, 7, 0, true);
    // LPRR present with the ablation variant.
    for (_, agg) in &out.aggregates {
        for a in agg {
            assert!(a.ratio("LPRR").is_some());
            assert!(a.ratio("LPRR-EQ").is_some());
            // LPRR stays within the bound.
            assert!(a.ratio("LPRR").unwrap() <= 1.0 + 1e-9);
        }
    }
}

/// Figure 7's cost order, asserted on counted work rather than on wall
/// clock (a shared box reorders milliseconds): G solves no LP, LPRG solves
/// one (the relaxation it rounds), and LPRR solves at least as many (its
/// warm context's `WarmStats::solves` over the pinning loop). The timings
/// the figure plots are printed.
#[test]
fn fig7_quick_orders_heuristics_by_cost() {
    let out = fig7(Preset::Quick, 7, 0);
    assert!(!out.timings.is_empty());
    println!("{}", out.text);
    let spread = RunnerConfig::default().payoff_spread;
    for record in &out.records {
        let inst = sweep_instance(&record.config, record.seed, record.objective, spread);
        let (alloc, work) = Lprr::new(record.seed)
            .solve_counting(&inst)
            .expect("LPRR solves");
        let lprr_solves = work.solves;
        assert_eq!(
            Some(alloc.objective_value(&inst)),
            record.value("LPRR"),
            "seed {}: the rebuilt instance is the one the figure ran",
            record.seed
        );
        let k = record.config.num_clusters;
        println!(
            "K={k} seed {}: LP solves G 0, LPRG 1, LPRR {lprr_solves}",
            record.seed
        );
        assert!(
            lprr_solves >= 1,
            "K={k}: LPRR solved {lprr_solves} LPs, LPRG one"
        );
    }
}

#[test]
fn table1_quick_prints_grid_and_marginals() {
    let out = table1(Preset::Quick, 7, 0);
    assert!(out.text.contains("Table 1"));
    assert!(out.text.contains("269,835"));
    assert!(out.text.contains("marginal LPRG/G"));
    assert!(out.csv.lines().count() > 1);
}
