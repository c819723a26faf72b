//! Aggregation of sweep records into the paper's summary statistics.

use crate::record::RunRecord;
use dls_core::Objective;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Mean heuristic/LP ratios for one value of `K`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KAggregate {
    /// Number of clusters.
    pub k: usize,
    /// Records aggregated.
    pub n: usize,
    /// `(heuristic, mean value/bound ratio)` in first-seen order.
    pub ratios: Vec<(String, f64)>,
    /// `(heuristic, sample standard deviation of the ratio)` — 0.0 when
    /// fewer than two samples.
    pub std_devs: Vec<(String, f64)>,
}

impl KAggregate {
    /// Ratio for one heuristic.
    pub fn ratio(&self, name: &str) -> Option<f64> {
        self.ratios.iter().find(|(n, _)| n == name).map(|(_, r)| *r)
    }
}

/// Groups records of one objective by `K` and averages each heuristic's
/// ratio to the LP bound (Figure 5/6's y-axis). Welford's online algorithm
/// keeps the variance numerically stable over long sweeps.
pub fn ratios_by_k(records: &[RunRecord], objective: Objective) -> Vec<KAggregate> {
    #[derive(Default, Clone)]
    struct Welford {
        n: usize,
        mean: f64,
        m2: f64,
    }
    impl Welford {
        fn push(&mut self, x: f64) {
            self.n += 1;
            let d = x - self.mean;
            self.mean += d / self.n as f64;
            self.m2 += d * (x - self.mean);
        }
        fn std_dev(&self) -> f64 {
            if self.n > 1 {
                (self.m2 / (self.n - 1) as f64).sqrt()
            } else {
                0.0
            }
        }
    }

    let mut by_k: BTreeMap<usize, BTreeMap<String, Welford>> = BTreeMap::new();
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    for r in records.iter().filter(|r| r.objective == objective) {
        if r.bound <= 0.0 {
            continue;
        }
        *counts.entry(r.config.num_clusters).or_default() += 1;
        let slot = by_k.entry(r.config.num_clusters).or_default();
        for (name, value) in &r.values {
            slot.entry(name.clone()).or_default().push(value / r.bound);
        }
    }
    by_k.into_iter()
        .map(|(k, stats)| KAggregate {
            k,
            n: counts[&k],
            ratios: stats
                .iter()
                .map(|(name, w)| (name.clone(), w.mean))
                .collect(),
            std_devs: stats
                .iter()
                .map(|(name, w)| (name.clone(), w.std_dev()))
                .collect(),
        })
        .collect()
}

/// Mean ratio `value(h_num) / value(h_den)` over all records of one
/// objective — the §6.1 headline scalars (LPRG:G ≈ 1.98 for MAXMIN, 1.02
/// for SUM in the paper). Records where the denominator is ≤ 0 are skipped.
pub fn overall_ratio(
    records: &[RunRecord],
    objective: Objective,
    h_num: &str,
    h_den: &str,
) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for r in records.iter().filter(|r| r.objective == objective) {
        if let (Some(a), Some(b)) = (r.value(h_num), r.value(h_den)) {
            if b > 0.0 {
                sum += a / b;
                n += 1;
            }
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// Mean wall-clock milliseconds per heuristic, grouped by `K` (Figure 7's
/// y-axis; includes the LP bound itself under the name `"LP"`).
pub fn timings_by_k(records: &[RunRecord]) -> Vec<(usize, Vec<(String, f64)>)> {
    let mut by_k: BTreeMap<usize, BTreeMap<String, (f64, usize)>> = BTreeMap::new();
    for r in records {
        let slot = by_k.entry(r.config.num_clusters).or_default();
        let e = slot.entry("LP".to_string()).or_insert((0.0, 0));
        e.0 += r.bound_ms;
        e.1 += 1;
        for (name, ms) in &r.times_ms {
            let e = slot.entry(name.clone()).or_insert((0.0, 0));
            e.0 += ms;
            e.1 += 1;
        }
    }
    by_k.into_iter()
        .map(|(k, sums)| {
            (
                k,
                sums.into_iter()
                    .map(|(name, (sum, n))| (name, sum / n.max(1) as f64))
                    .collect(),
            )
        })
        .collect()
}

/// Marginal mean LPRG/G ratio along one platform parameter (the §6.1
/// "no clear trend" analysis). `param` extracts the dimension of interest.
pub fn marginal_ratio(
    records: &[RunRecord],
    objective: Objective,
    param: impl Fn(&RunRecord) -> f64,
) -> Vec<(f64, f64, usize)> {
    let mut by_val: BTreeMap<i64, (f64, usize)> = BTreeMap::new();
    for r in records.iter().filter(|r| r.objective == objective) {
        if let (Some(a), Some(b)) = (r.value("LPRG"), r.value("G")) {
            if b > 0.0 {
                // Bucket the (float) parameter value by a stable integer key.
                let key = (param(r) * 1000.0).round() as i64;
                let e = by_val.entry(key).or_insert((0.0, 0));
                e.0 += a / b;
                e.1 += 1;
            }
        }
    }
    by_val
        .into_iter()
        .map(|(key, (sum, n))| (key as f64 / 1000.0, sum / n as f64, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_platform::PlatformConfig;

    fn record(k: usize, objective: Objective, g: f64, lprg: f64, bound: f64) -> RunRecord {
        RunRecord {
            seed: 0,
            config: PlatformConfig {
                num_clusters: k,
                ..PlatformConfig::default()
            },
            objective,
            bound,
            bound_ms: 1.0,
            values: vec![("G".into(), g), ("LPRG".into(), lprg)],
            times_ms: vec![("G".into(), 0.1), ("LPRG".into(), 2.0)],
            sim_efficiency: None,
        }
    }

    #[test]
    fn ratios_grouped_and_averaged() {
        let records = vec![
            record(5, Objective::Sum, 8.0, 9.0, 10.0),
            record(5, Objective::Sum, 6.0, 10.0, 10.0),
            record(15, Objective::Sum, 5.0, 5.0, 10.0),
            record(5, Objective::MaxMin, 1.0, 1.0, 1.0), // other objective
        ];
        let agg = ratios_by_k(&records, Objective::Sum);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].k, 5);
        assert_eq!(agg[0].n, 2);
        assert!((agg[0].ratio("G").unwrap() - 0.7).abs() < 1e-12);
        assert!((agg[0].ratio("LPRG").unwrap() - 0.95).abs() < 1e-12);
        assert_eq!(agg[1].k, 15);
        // Sample std dev of {0.8, 0.6} is √(0.02) ≈ 0.1414.
        assert_eq!(agg[0].std_devs[0].0, "G");
        assert!((agg[0].std_devs[0].1 - 0.02f64.sqrt()).abs() < 1e-12);
        // Single sample → 0.
        assert_eq!(agg[1].std_devs[0], ("G".to_string(), 0.0));
    }

    #[test]
    fn overall_ratio_matches_hand_computation() {
        let records = vec![
            record(5, Objective::MaxMin, 2.0, 4.0, 10.0), // ratio 2
            record(5, Objective::MaxMin, 5.0, 5.0, 10.0), // ratio 1
        ];
        let r = overall_ratio(&records, Objective::MaxMin, "LPRG", "G").unwrap();
        assert!((r - 1.5).abs() < 1e-12);
        assert!(overall_ratio(&records, Objective::Sum, "LPRG", "G").is_none());
    }

    #[test]
    fn timings_include_lp() {
        let records = vec![record(5, Objective::Sum, 1.0, 1.0, 1.0)];
        let t = timings_by_k(&records);
        assert_eq!(t.len(), 1);
        let names: Vec<_> = t[0].1.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"LP"));
        assert!(names.contains(&"G"));
    }

    #[test]
    fn marginal_buckets_by_parameter() {
        let mut a = record(5, Objective::Sum, 2.0, 4.0, 10.0);
        a.config.connectivity = 0.2;
        let mut b = record(5, Objective::Sum, 2.0, 2.0, 10.0);
        b.config.connectivity = 0.8;
        let m = marginal_ratio(&[a, b], Objective::Sum, |r| r.config.connectivity);
        assert_eq!(m.len(), 2);
        assert!((m[0].0 - 0.2).abs() < 1e-9 && (m[0].1 - 2.0).abs() < 1e-12);
        assert!((m[1].0 - 0.8).abs() < 1e-9 && (m[1].1 - 1.0).abs() < 1e-12);
    }
}
