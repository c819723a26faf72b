//! Simulation results.

use serde::{Deserialize, Serialize};

/// Outcome of executing a periodic schedule on the simulated platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Periods simulated.
    pub periods: usize,
    /// Period length `T_p` (time units).
    pub period_length: f64,
    /// Per-application throughput promised by the schedule.
    pub predicted: Vec<f64>,
    /// Per-application throughput measured in the post-warm-up window.
    pub measured: Vec<f64>,
    /// `Σ measured / Σ predicted` (1.0 for an empty schedule).
    pub efficiency: f64,
    /// Worst transfer tardiness beyond its period deadline (time units;
    /// 0 means every flow of period `p` finished by `(p+1)·T_p`).
    pub max_transfer_lateness: f64,
    /// Worst compute backlog observed at a period boundary, expressed as
    /// drain time in time units (0 means queues clear every period).
    pub max_compute_backlog: f64,
    /// Peak simultaneous connections observed per backbone link.
    pub peak_connections: Vec<u64>,
    /// `true` iff peak connections never exceeded any `max-connect`.
    pub connection_caps_respected: bool,
    /// Mean utilisation of each cluster's local link over the horizon
    /// (carried traffic / `g_k`·horizon, counting both directions).
    pub local_link_utilization: Vec<f64>,
    /// Discrete events processed (period boundaries + completion instants).
    /// Deterministic for a fixed schedule and configuration — the perf
    /// harness uses it to confirm both engines simulated the same workload.
    pub events: u64,
}

impl SimReport {
    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "simulated {} periods of length {}: efficiency {:.4}, \
             max transfer lateness {:.4}, max compute backlog {:.4}, \
             connection caps respected: {}",
            self.periods,
            self.period_length,
            self.efficiency,
            self.max_transfer_lateness,
            self.max_compute_backlog,
            self.connection_caps_respected,
        )
    }

    /// `true` iff the schedule executed at at least `threshold` of its
    /// promised aggregate throughput.
    pub fn achieves(&self, threshold: f64) -> bool {
        self.efficiency >= threshold
    }
}
