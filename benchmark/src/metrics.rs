//! The metric registry and the arithmetic behind the numbers: every metric
//! the runner may print is declared here once (name, unit, direction, bound),
//! and `BENCHMARK.json` must list exactly these (a unit test compares them).

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is `Some` for end-to-end metrics (the share
/// of the baseline median by which the metric may worsen) and `None` for
/// per-layer metrics, which are printed but never gated.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, on every workload, measured with tracing
/// off. The percentile tails (`op_p90_ms`, `op_p99_ms`), `quality_gap` and the
/// failure count are not here: the first three do not exist on every
/// workload and the last is exactly 0 — see `e2e.*` / `core.quality_gap`
/// below and the `failed` field of the result line.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Single-layer numbers from the traced run. A value of 0 means the layer is
/// not on that workload's path.
pub const PER_LAYER: &[MetricSpec] = &[
    // Demoted end-to-end candidates: reported from the untraced half of the
    // traced run, where the sample count supports them (rule: at least ten samples
    // beyond the percentile), 0 elsewhere.
    layer("e2e.op_samples", "count", Higher),
    layer("e2e.op_p90_ms", "ms", Lower),
    layer("e2e.op_p99_ms", "ms", Lower),
    layer("e2e.checks", "count", Higher),
    // platform
    layer("platform.generate_ms", "ms", Lower),
    layer("platform.routes", "count", Lower),
    // core
    layer("core.formulate_ms", "ms", Lower),
    layer("core.model_rows", "count", Lower),
    layer("core.model_cols", "count", Lower),
    layer("core.model_nnz", "count", Lower),
    layer("core.upper_bound_ms", "ms", Lower),
    layer("core.greedy_ms", "ms", Lower),
    layer("core.round_ms", "ms", Lower),
    layer("core.lprg_ms", "ms", Lower),
    layer("core.lprr_ms", "ms", Lower),
    layer("core.lprr_share", "ratio", Lower),
    layer("core.pin_apply_us", "us", Lower),
    layer("core.validate_ms", "ms", Lower),
    layer("core.quality_gap", "ratio", Lower),
    layer("core.pin_sweep_ms", "ms", Lower),
    layer("core.pin_probe_ms", "ms", Lower),
    layer("core.pin_probes", "count", Lower),
    layer("core.sweep_threads", "count", Higher),
    layer("core.sweep_sequential_ms", "ms", Lower),
    layer("core.sweep_sharded_ms", "ms", Lower),
    layer("core.sweep_parallel_eff", "ratio", Higher),
    layer("core.schedule_ms", "ms", Lower),
    // lp
    layer("lp.context_build_ms", "ms", Lower),
    layer("lp.cold_solve_ms", "ms", Lower),
    layer("lp.cold_iterations", "count", Lower),
    layer("lp.us_per_iteration", "us", Lower),
    layer("lp.factor_nnz", "count", Lower),
    layer("lp.fill_ratio", "ratio", Lower),
    layer("lp.refactorisations", "count", Lower),
    layer("lp.clone_ms", "ms", Lower),
    layer("lp.clone_kb", "kB", Lower),
    layer("lp.warm_solve_ms", "ms", Lower),
    layer("lp.warm_solves", "count", Lower),
    layer("lp.cold_fallbacks", "count", Lower),
    layer("lp.warm_hit_ratio", "ratio", Higher),
    layer("lp.dual_pivots", "count", Lower),
    layer("lp.primal_pivots", "count", Lower),
    // sim
    layer("sim.run_ms", "ms", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.ns_per_event", "ns", Lower),
    layer("sim.transfers_per_period", "count", Lower),
    layer("sim.live_events", "count", Lower),
    layer("sim.live_ns_per_event", "ns", Lower),
    // scenario
    layer("scenario.step_ms_p50", "ms", Lower),
    layer("scenario.decide_ms_p50", "ms", Lower),
    layer("scenario.decide_share", "ratio", Lower),
    layer("scenario.engine_self_ms_p50", "ms", Lower),
    layer("scenario.policy_build_ms", "ms", Lower),
    layer("scenario.epochs", "count", Lower),
    layer("scenario.reschedules", "count", Lower),
    layer("scenario.platform_events", "count", Lower),
    layer("scenario.report_ms", "ms", Lower),
    layer("scenario.snapshot_ms", "ms", Lower),
    layer("scenario.snapshot_bytes", "B", Lower),
    layer("scenario.restore_ms", "ms", Lower),
    // service
    layer("service.rtt_floor_us", "us", Lower),
    layer("service.encode_us", "us", Lower),
    layer("service.decode_us", "us", Lower),
    layer("service.frame_bytes", "B", Lower),
    layer("service.report_bytes", "B", Lower),
    layer("service.req_create_us_p50", "us", Lower),
    layer("service.req_submit_us_p50", "us", Lower),
    layer("service.req_advance_us_p50", "us", Lower),
    layer("service.req_run_us_p50", "us", Lower),
    layer("service.req_query_us_p50", "us", Lower),
    layer("service.tenant_create_us", "us", Lower),
    layer("service.tenant_submit_us", "us", Lower),
    layer("service.tenant_advance_us", "us", Lower),
    layer("service.tenant_query_us", "us", Lower),
    layer("service.overhead_us", "us", Lower),
    layer("service.overhead_share", "ratio", Lower),
    layer("service.latency_growth", "ratio", Lower),
    layer("service.live_tenants", "count", Lower),
    layer("service.push_frames", "count", Lower),
    layer("service.checkpoint_ms", "ms", Lower),
    layer("service.checkpoint_bytes", "B", Lower),
    layer("service.errors", "count", Lower),
    // the tracer itself
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.spans", "count", Lower),
    layer("trace.span_ns", "ns", Lower),
];

/// `true` iff `name` fits the benchmark contract's charset: starts with a
/// letter or digit, then letters, digits, `_`, `.`, `-`; at most 64 bytes.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated `q`-quantile (`0 ≤ q ≤ 1`); 0 when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail percentiles a sample of `n` latencies supports: a percentile is
/// reported only when at least ten samples lie beyond it, so p90 needs 100
/// samples and p99 needs 1000.
pub fn supported_tails(n: usize) -> (bool, bool) {
    (n / 10 >= 10, n / 100 >= 10)
}

/// User + system CPU seconds consumed by this process so far (every thread),
/// from `/proc/self/stat`. 0 where procfs is unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. indices 11 and 12 after the `)`.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // USER_HZ is 100 on every Linux ABI this runs on.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MB. 0 where procfs
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert_eq!(supported_tails(16), (false, false));
        assert_eq!(supported_tails(99), (false, false));
        assert_eq!(supported_tails(100), (true, false));
        assert_eq!(supported_tails(999), (true, false));
        assert_eq!(supported_tails(1000), (true, true));
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn metric_names_fit_the_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
        }
        assert!(!valid_metric_name(".x"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name(""));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
