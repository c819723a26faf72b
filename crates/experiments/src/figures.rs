//! Regeneration of every table and figure of the paper's evaluation (§6).

use crate::record::RunRecord;
use crate::report::{ascii_chart, records_to_csv, ChartOptions, ChartSeries};
use crate::runner::{run_sweep, HeuristicSet, RunnerConfig};
use crate::stats::{marginal_ratio, overall_ratio, ratios_by_k, timings_by_k, KAggregate};
use dls_core::Objective;
use dls_platform::{ParameterGrid, PlatformConfig};
use std::fmt::Write as _;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// A few seconds; used by the integration tests.
    Quick,
    /// Minutes; reproduces the *shape* of every figure (committed in
    /// EXPERIMENTS.md).
    PaperShape,
    /// The entire Table 1 grid at 10 replicates — the paper's sweep.
    /// Expect many hours.
    Full,
}

impl Preset {
    /// Parses `quick` / `paper-shape` / `full`.
    pub fn parse(s: &str) -> Option<Preset> {
        match s {
            "quick" => Some(Preset::Quick),
            "paper-shape" | "paper" => Some(Preset::PaperShape),
            "full" => Some(Preset::Full),
            _ => None,
        }
    }
}

/// The output of one figure regeneration: a terminal rendering plus CSV
/// twins and the structured aggregates for programmatic checks.
#[derive(Debug, Clone)]
pub struct FigureOutput {
    /// Figure title.
    pub title: String,
    /// Full terminal rendering (charts + summary blocks).
    pub text: String,
    /// CSV of the underlying records.
    pub csv: String,
    /// Ratio aggregates per objective (Figures 5 and 6).
    pub aggregates: Vec<(Objective, Vec<KAggregate>)>,
    /// Timing aggregates (Figure 7).
    pub timings: Vec<(usize, Vec<(String, f64)>)>,
    /// Headline scalars, e.g. `("LPRG/G (MAXMIN)", 1.98)`.
    pub scalars: Vec<(String, f64)>,
    /// Raw records (for further analysis).
    pub records: Vec<RunRecord>,
}

fn cross(
    ks: &[usize],
    conns: &[f64],
    hets: &[f64],
    gs: &[f64],
    bws: &[f64],
    mcs: &[f64],
    reps: usize,
) -> Vec<PlatformConfig> {
    let mut out = Vec::new();
    for &k in ks {
        for &conn in conns {
            for &het in hets {
                for &g in gs {
                    for &bw in bws {
                        for &mc in mcs {
                            for _ in 0..reps {
                                out.push(PlatformConfig {
                                    num_clusters: k,
                                    connectivity: conn,
                                    heterogeneity: het,
                                    mean_local_bw: g,
                                    mean_backbone_bw: bw,
                                    mean_max_connections: mc,
                                    speed: 100.0,
                                    relay_routers: 0,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn fig5_configs(preset: Preset) -> Vec<PlatformConfig> {
    match preset {
        Preset::Quick => cross(&[4, 8], &[0.4], &[0.4], &[250.0], &[30.0], &[15.0], 2),
        Preset::PaperShape => cross(
            &[5, 15, 25, 35, 45, 55],
            &[0.2, 0.5],
            &[0.4],
            &[50.0, 250.0],
            &[10.0, 50.0, 90.0],
            &[5.0, 45.0],
            1,
        ),
        Preset::Full => ParameterGrid::paper().configs().collect(),
    }
}

/// **Figure 5** — mean `H/LP` ratio vs `K` for `H ∈ {G, LPRG}` (and LPR,
/// whose collapse §6.1 reports), under both objectives, plus the §6.1
/// headline LPRG:G scalars.
pub fn fig5(preset: Preset, seed: u64, threads: usize) -> FigureOutput {
    let configs = fig5_configs(preset);
    let records = run_sweep(
        &configs,
        &RunnerConfig {
            heuristics: HeuristicSet::cheap(),
            base_seed: seed,
            threads,
            ..RunnerConfig::default()
        },
    );

    let mut aggregates = Vec::new();
    let mut series = Vec::new();
    for (objective, tag) in [(Objective::MaxMin, "MAXMIN"), (Objective::Sum, "SUM")] {
        let agg = ratios_by_k(&records, objective);
        for h in ["LPRG", "G"] {
            series.push(ChartSeries {
                label: format!("{tag}({h})/{tag}(LP)"),
                points: agg
                    .iter()
                    .filter_map(|a| a.ratio(h).map(|r| (a.k as f64, r)))
                    .collect(),
            });
        }
        aggregates.push((objective, agg));
    }

    let chart = ascii_chart(
        &series,
        &ChartOptions {
            title: "Figure 5: G and LPRG relative to the LP upper bound".into(),
            y_label: "objective value (relative to LP)".into(),
            y_range: Some((0.4, 1.0)),
            ..ChartOptions::default()
        },
    );

    let mut scalars = Vec::new();
    for (objective, tag) in [(Objective::MaxMin, "MAXMIN"), (Objective::Sum, "SUM")] {
        if let Some(r) = overall_ratio(&records, objective, "LPRG", "G") {
            scalars.push((format!("LPRG/G ({tag})"), r));
        }
        if let Some(r) = overall_ratio(&records, objective, "LPR", "LPRG") {
            scalars.push((format!("LPR/LPRG ({tag})"), r));
        }
    }

    let mut text = chart;
    let _ = writeln!(
        text,
        "\n§6.1 headline scalars (paper: LPRG/G ≈ 1.98 MAXMIN, 1.02 SUM):"
    );
    for (name, v) in &scalars {
        let _ = writeln!(text, "  {name} = {v:.3}");
    }
    let _ = writeln!(text, "\nper-K mean ratios:");
    for (objective, agg) in &aggregates {
        let _ = writeln!(text, "  {objective:?}:");
        for a in agg {
            let row: Vec<String> = a
                .ratios
                .iter()
                .map(|(n, r)| format!("{n}={r:.3}"))
                .collect();
            let _ = writeln!(text, "    K={:<3} (n={:<3}) {}", a.k, a.n, row.join("  "));
        }
    }

    FigureOutput {
        title: "Figure 5".into(),
        text,
        csv: records_to_csv(&records),
        aggregates,
        timings: Vec::new(),
        scalars,
        records,
    }
}

fn fig6_configs(preset: Preset) -> Vec<PlatformConfig> {
    match preset {
        Preset::Quick => cross(&[4, 5], &[0.5], &[0.4], &[250.0], &[30.0], &[15.0], 1),
        // ~72 topologies across K ∈ {15, 20, 25} (paper: 80).
        Preset::PaperShape => cross(
            &[15, 20, 25],
            &[0.2, 0.5],
            &[0.4],
            &[250.0],
            &[30.0, 60.0],
            &[15.0, 45.0],
            3,
        ),
        Preset::Full => cross(
            &[15, 20, 25],
            &[0.2, 0.4, 0.6, 0.8],
            &[0.2, 0.4, 0.6, 0.8],
            &[250.0],
            &[30.0, 60.0],
            &[15.0, 45.0],
            1,
        ),
    }
}

/// **Figure 6** — `LPRR` vs `G` relative to `LP` on a small topology set
/// (K ∈ {15, 20, 25} in the paper). With `ablation`, also runs the
/// equal-probability rounding variant the paper reports as much worse.
pub fn fig6(preset: Preset, seed: u64, threads: usize, ablation: bool) -> FigureOutput {
    let configs = fig6_configs(preset);
    let records = run_sweep(
        &configs,
        &RunnerConfig {
            heuristics: if ablation {
                HeuristicSet::with_ablation()
            } else {
                HeuristicSet::all()
            },
            base_seed: seed,
            threads,
            ..RunnerConfig::default()
        },
    );

    let mut aggregates = Vec::new();
    let mut series = Vec::new();
    let mut shown: Vec<&str> = vec!["LPRR", "G"];
    if ablation {
        shown.push("LPRR-EQ");
    }
    for (objective, tag) in [(Objective::MaxMin, "MAXMIN"), (Objective::Sum, "SUM")] {
        let agg = ratios_by_k(&records, objective);
        for h in &shown {
            series.push(ChartSeries {
                label: format!("{tag}({h})/{tag}(LP)"),
                points: agg
                    .iter()
                    .filter_map(|a| a.ratio(h).map(|r| (a.k as f64, r)))
                    .collect(),
            });
        }
        aggregates.push((objective, agg));
    }

    let mut scalars = Vec::new();
    for (objective, tag) in [(Objective::MaxMin, "MAXMIN"), (Objective::Sum, "SUM")] {
        if let Some(r) = overall_ratio(&records, objective, "LPRR", "G") {
            scalars.push((format!("LPRR/G ({tag})"), r));
        }
        if ablation {
            if let Some(r) = overall_ratio(&records, objective, "LPRR-EQ", "LPRR") {
                scalars.push((format!("LPRR-EQ/LPRR ({tag})"), r));
            }
        }
    }

    let mut text = ascii_chart(
        &series,
        &ChartOptions {
            title: "Figure 6: LPRR vs G relative to the LP upper bound".into(),
            y_label: "objective value (relative to LP)".into(),
            y_range: Some((0.4, 1.0)),
            ..ChartOptions::default()
        },
    );
    let _ = writeln!(text, "\nscalars:");
    for (name, v) in &scalars {
        let _ = writeln!(text, "  {name} = {v:.3}");
    }

    FigureOutput {
        title: "Figure 6".into(),
        text,
        csv: records_to_csv(&records),
        aggregates,
        timings: Vec::new(),
        scalars,
        records,
    }
}

fn fig7_configs(preset: Preset) -> Vec<PlatformConfig> {
    match preset {
        // One topology per K, timed once: K starts where the gaps between
        // the heuristics (LPRG − G ≳ 10 ms, LPRR − LPRG ≳ 150 ms in a debug
        // build) exceed a scheduler stall (≈ 4 ms on a shared box), so the
        // cost ordering shows in a single sample.
        Preset::Quick => cross(&[20, 24], &[0.3], &[0.4], &[250.0], &[30.0], &[15.0], 1),
        Preset::PaperShape => cross(
            &[10, 20, 30, 40],
            &[0.3],
            &[0.4],
            &[250.0],
            &[30.0],
            &[15.0],
            3,
        ),
        // The paper used 112 topologies over K ∈ {10, 20, 30, 40}.
        Preset::Full => cross(
            &[10, 20, 30, 40],
            &[0.2, 0.4, 0.6, 0.8],
            &[0.4],
            &[250.0],
            &[30.0],
            &[15.0],
            7,
        ),
    }
}

/// **Figure 7** — mean running time vs `K` (log y-axis) for G, LP, LPR,
/// LPRG, LPRR. LP solves are *not* shared here: each heuristic pays for its
/// own relaxation, as in the paper's measurements.
pub fn fig7(preset: Preset, seed: u64, threads: usize) -> FigureOutput {
    let configs = fig7_configs(preset);
    let records = run_sweep(
        &configs,
        &RunnerConfig {
            heuristics: HeuristicSet::all(),
            objectives: vec![Objective::MaxMin],
            base_seed: seed,
            threads,
            share_lp_solution: false,
            ..RunnerConfig::default()
        },
    );
    let timings = timings_by_k(&records);

    let names = ["G", "LPR", "LPRG", "LPRR", "LP"];
    let series: Vec<ChartSeries> = names
        .iter()
        .map(|&name| ChartSeries {
            label: name.to_string(),
            points: timings
                .iter()
                .filter_map(|(k, row)| {
                    row.iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, ms)| (*k as f64, ms.max(1e-3)))
                })
                .collect(),
        })
        .collect();

    let mut text = ascii_chart(
        &series,
        &ChartOptions {
            title: "Figure 7: running time vs K (log scale)".into(),
            y_label: "running time (ms)".into(),
            y_log: true,
            ..ChartOptions::default()
        },
    );
    let mut scalars = Vec::new();
    // The paper's claim: LPRR costs ≈ K² × LPRG.
    if let Some((k_max, row)) = timings.last().map(|(k, row)| (*k, row)) {
        let lprr = row.iter().find(|(n, _)| n == "LPRR").map(|(_, v)| *v);
        let lprg = row.iter().find(|(n, _)| n == "LPRG").map(|(_, v)| *v);
        if let (Some(a), Some(b)) = (lprr, lprg) {
            if b > 0.0 {
                scalars.push((format!("LPRR/LPRG time at K={k_max}"), a / b));
            }
        }
    }
    let _ = writeln!(text, "\nmean running time (ms) by K:");
    for (k, row) in &timings {
        let cells: Vec<String> = row.iter().map(|(n, v)| format!("{n}={v:.2}")).collect();
        let _ = writeln!(text, "  K={k:<3} {}", cells.join("  "));
    }
    for (name, v) in &scalars {
        let _ = writeln!(text, "  {name} = {v:.1} (paper: ≈ K²)");
    }

    FigureOutput {
        title: "Figure 7".into(),
        text,
        csv: records_to_csv(&records),
        aggregates: Vec::new(),
        timings,
        scalars,
        records,
    }
}

/// **Table 1** — prints the paper's parameter grid, then reruns the Figure 5
/// sweep and reports the marginal LPRG/G ratio along every non-K dimension
/// (the §6.1 finding: only K moves the needle; the other parameters show
/// "no clear trend").
pub fn table1(preset: Preset, seed: u64, threads: usize) -> FigureOutput {
    let grid = ParameterGrid::paper();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Table 1: parameter settings used for simulation experiments"
    );
    let _ = writeln!(text, "  K            : {:?}", grid.num_clusters);
    let _ = writeln!(text, "  connectivity : {:?}", grid.connectivity);
    let _ = writeln!(text, "  heterogeneity: {:?}", grid.heterogeneity);
    let _ = writeln!(text, "  mean g       : {:?}", grid.mean_local_bw);
    let _ = writeln!(text, "  mean bw      : {:?}", grid.mean_backbone_bw);
    let _ = writeln!(text, "  mean maxcon  : {:?}", grid.mean_max_connections);
    let _ = writeln!(
        text,
        "  cells: {} × {} replicates = {} platforms (paper ran 269,835)",
        grid.num_cells(),
        grid.replicates,
        grid.num_cells() * grid.replicates
    );

    let configs = fig5_configs(preset);
    let records = run_sweep(
        &configs,
        &RunnerConfig {
            heuristics: HeuristicSet::cheap(),
            base_seed: seed,
            threads,
            ..RunnerConfig::default()
        },
    );
    type Dim = (&'static str, fn(&RunRecord) -> f64);
    let dims: [Dim; 5] = [
        ("connectivity", |r| r.config.connectivity),
        ("heterogeneity", |r| r.config.heterogeneity),
        ("mean g", |r| r.config.mean_local_bw),
        ("mean bw", |r| r.config.mean_backbone_bw),
        ("mean maxcon", |r| r.config.mean_max_connections),
    ];
    let _ = writeln!(
        text,
        "\n§6.1 marginal LPRG/G ratios (sampled at preset {preset:?}; only K should trend):"
    );
    for (objective, tag) in [(Objective::MaxMin, "MAXMIN"), (Objective::Sum, "SUM")] {
        let _ = writeln!(text, "  {tag}:");
        let _ = writeln!(
            text,
            "    K: {:?}",
            marginal_summary(&records, objective, |r| r.config.num_clusters as f64)
        );
        for (name, f) in dims {
            let _ = writeln!(
                text,
                "    {name}: {:?}",
                marginal_summary(&records, objective, f)
            );
        }
    }

    FigureOutput {
        title: "Table 1".into(),
        text,
        csv: records_to_csv(&records),
        aggregates: Vec::new(),
        timings: Vec::new(),
        scalars: Vec::new(),
        records,
    }
}

fn marginal_summary(
    records: &[RunRecord],
    objective: Objective,
    f: impl Fn(&RunRecord) -> f64,
) -> Vec<(f64, f64)> {
    marginal_ratio(records, objective, f)
        .into_iter()
        .map(|(v, r, _)| (v, (r * 1000.0).round() / 1000.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_parsing() {
        assert_eq!(Preset::parse("quick"), Some(Preset::Quick));
        assert_eq!(Preset::parse("paper-shape"), Some(Preset::PaperShape));
        assert_eq!(Preset::parse("full"), Some(Preset::Full));
        assert_eq!(Preset::parse("bogus"), None);
    }

    #[test]
    fn quick_fig5_has_both_objectives_and_scalars() {
        let out = fig5(Preset::Quick, 1, 2);
        assert_eq!(out.aggregates.len(), 2);
        assert!(!out.records.is_empty());
        assert!(out.text.contains("Figure 5"));
        assert!(out.csv.lines().count() > 1);
        assert!(out.scalars.iter().any(|(n, _)| n.starts_with("LPRG/G")));
        // Ratios are sane.
        for (_, agg) in &out.aggregates {
            for a in agg {
                for (_, r) in &a.ratios {
                    assert!((0.0..=1.0 + 1e-6).contains(r), "ratio {r}");
                }
            }
        }
    }

    #[test]
    fn quick_fig7_reports_timings() {
        let out = fig7(Preset::Quick, 1, 2);
        assert!(!out.timings.is_empty());
        assert!(out.text.contains("running time"));
        let (_, row) = &out.timings[0];
        let names: Vec<_> = row.iter().map(|(n, _)| n.as_str()).collect();
        for h in ["G", "LPR", "LPRG", "LPRR", "LP"] {
            assert!(names.contains(&h), "{h} missing from timings");
        }
    }
}
