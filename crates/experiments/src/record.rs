//! Result records produced by the sweep runner.

use dls_core::Objective;
use dls_platform::PlatformConfig;
use serde::{Deserialize, Serialize};

/// One (platform, objective) evaluation: every heuristic's objective value
/// and wall-clock time, plus the LP upper bound.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Seed that generated the platform (deterministic replay).
    pub seed: u64,
    /// The platform distribution this instance was drawn from.
    pub config: PlatformConfig,
    /// Objective optimised.
    pub objective: Objective,
    /// LP upper bound (the paper's `LP` comparator).
    pub bound: f64,
    /// Wall-clock milliseconds to compute the bound.
    pub bound_ms: f64,
    /// `(heuristic name, objective value)` pairs.
    pub values: Vec<(String, f64)>,
    /// `(heuristic name, wall-clock ms)` pairs.
    pub times_ms: Vec<(String, f64)>,
    /// Measured/predicted throughput of the LPRG schedule under the
    /// incremental simulation engine (`None` unless the sweep ran with
    /// `RunnerConfig::simulate` *and* LPRG was in the heuristic set).
    pub sim_efficiency: Option<f64>,
}

impl RunRecord {
    /// Value achieved by a heuristic, if it ran.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Wall-clock milliseconds of a heuristic, if it ran.
    pub fn time_ms(&self, name: &str) -> Option<f64> {
        self.times_ms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let r = RunRecord {
            seed: 1,
            config: PlatformConfig::default(),
            objective: Objective::Sum,
            bound: 10.0,
            bound_ms: 1.0,
            values: vec![("G".into(), 8.0)],
            times_ms: vec![("G".into(), 0.5)],
            sim_efficiency: None,
        };
        assert_eq!(r.value("G"), Some(8.0));
        assert_eq!(r.value("LPR"), None);
        assert_eq!(r.time_ms("G"), Some(0.5));
    }
}
