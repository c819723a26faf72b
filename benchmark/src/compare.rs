//! `compare A.json B.json`: applies each end-to-end metric's direction and
//! bound to two result files written by `run` (A is the baseline).

use crate::json;
use crate::metrics::{median, Better, MetricSpec, END_TO_END};
use serde::Value;
use std::collections::BTreeMap;

/// How one (workload, metric) pairing compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread of either side is wider than the bound, and B's
    /// runs do not all read better than A's: the files cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method). 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quartile(3) - quartile(1)) / median(&v).abs().max(f64::MIN_POSITIVE)
}

/// Judges one metric from the baseline's and the candidate's readings.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = spec.bound.unwrap_or(f64::INFINITY);
    let (ma, mb) = (median(a), median(b));
    // Positive = B is worse, as a share of the baseline median.
    let worsening = match spec.better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let b_always_better = a.iter().all(|&x| {
        b.iter().all(|&y| match spec.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if spread(a).max(spread(b)) > bound && !b_always_better {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `(workload, metric) → readings` of a result file's untraced runs.
fn readings(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::from_str_value(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no `runs` array"))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        if run.get("trace").and_then(json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: a run has no workload"))?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}: a run has no metrics"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(json::as_f64)
                .ok_or_else(|| format!("{path}: {workload} {name} has no value"))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// Prints one row per (workload, end-to-end metric); `Ok(false)` when any
/// row is `worse`.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (readings(a_path)?, readings(b_path)?);
    println!("workload metric unit baseline candidate change spread_a spread_b bound verdict");
    let mut any_worse = false;
    for ((workload, metric), xs) in &a {
        let Some(spec) = END_TO_END.iter().find(|m| m.name == metric) else {
            continue;
        };
        let Some(ys) = b.get(&(workload.clone(), metric.clone())) else {
            return Err(format!("{b_path}: no {workload} {metric}"));
        };
        let verdict = judge(spec, xs, ys);
        any_worse |= verdict == Verdict::Worse;
        let (ma, mb) = (median(xs), median(ys));
        println!(
            "{workload} {metric} {} {ma:.6} {mb:.6} {:+.4} {:.4} {:.4} {} {}",
            spec.unit,
            (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
            spread(xs),
            spread(ys),
            spec.bound.unwrap_or(f64::NAN),
            verdict.as_str()
        );
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better::{Higher, Lower};

    fn spec(better: Better, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m",
            unit: "ms",
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn spread_matches_pythons_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn direction_and_bound_decide_worse() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [115.0, 116.0, 114.0, 115.0, 115.5];
        assert_eq!(judge(&spec(Lower, 0.10), &steady, &slower), Verdict::Worse);
        assert_eq!(judge(&spec(Lower, 0.20), &steady, &slower), Verdict::Ok);
        assert_eq!(judge(&spec(Higher, 0.10), &steady, &slower), Verdict::Ok);
        assert_eq!(judge(&spec(Higher, 0.10), &slower, &steady), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let similar = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert_eq!(
            judge(&spec(Lower, 0.10), &noisy, &similar),
            Verdict::Unresolved
        );
        let far_better = [40.0, 50.0, 60.0, 45.0, 55.0];
        assert_eq!(judge(&spec(Lower, 0.10), &noisy, &far_better), Verdict::Ok);
    }
}
