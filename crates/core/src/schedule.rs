//! Periodic schedule reconstruction (§3.2).
//!
//! A valid allocation only fixes *rates*; the paper turns it into an actual
//! schedule by writing every `α_{k,l}` as a fraction `u_{k,l}/v_{k,l}` and
//! taking the period `T_p = lcm(v_{k,l})`: within each period, cluster `C^k`
//! computes the integral load `α_{l,k}·T_p` for every application `A_l`
//! (data received during the *previous* period) and sends `α_{k,l}·T_p`
//! units to every partner (consumed in the *next* period). The first period
//! only communicates and the last only computes; in steady state both
//! proceed concurrently.
//!
//! Two reconstruction modes:
//!
//! * [`ScheduleBuilder::build`] — **common-denominator** mode: every rate is
//!   rounded *down* onto the grid `1/D` (`D` = [`ScheduleBuilder::denominator`]),
//!   so `T_p = D` always, the schedule stays compact, and each application
//!   loses at most `K/D` load units per time unit relative to the
//!   allocation. Rounding down can never violate Eq. 7.
//! * [`ScheduleBuilder::build_exact`] — **paper-faithful** mode: each rate
//!   becomes its best rational approximation with bounded denominator and
//!   `T_p` is the exact lcm (may be large; fails with
//!   [`ScheduleError::PeriodOverflow`] if it exceeds `i128`).

use crate::allocation::Allocation;
use crate::problem::ProblemInstance;
use dls_platform::ClusterId;
use dls_rational::{approximate_f64, common_period, ApproxConfig, Rational};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors during schedule reconstruction.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are given per variant
pub enum ScheduleError {
    /// The allocation is not valid for the instance (violations attached as
    /// preformatted text to avoid an error-type dependency cycle).
    InvalidAllocation(String),
    /// The exact lcm period overflowed `i128`.
    PeriodOverflow,
    /// A rate failed rational approximation (NaN/∞ input).
    BadRate { from: usize, to: usize },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::InvalidAllocation(v) => write!(f, "invalid allocation: {v}"),
            ScheduleError::PeriodOverflow => write!(f, "schedule period overflows i128"),
            ScheduleError::BadRate { from, to } => {
                write!(f, "rate α_{{{from},{to}}} is not a finite number")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// One per-period compute assignment: cluster `cluster` processes `amount`
/// load units of application `app`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComputeTask {
    /// Executing cluster.
    pub cluster: ClusterId,
    /// Application whose load is processed.
    pub app: ClusterId,
    /// Integral load units per period.
    pub amount: i128,
}

/// One per-period transfer: `from` ships `amount` units of its own
/// application's load to `to` over `connections` parallel connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferTask {
    /// Source cluster (and owning application).
    pub from: ClusterId,
    /// Destination cluster.
    pub to: ClusterId,
    /// Integral load units per period.
    pub amount: i128,
    /// Parallel connections used (`β_{from,to}`).
    pub connections: u32,
}

/// A reconstructed periodic schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodicSchedule {
    /// Period length `T_p` (time units).
    pub period: i128,
    /// Number of applications/clusters.
    pub k: usize,
    /// Integral per-period loads, row-major `K×K` (app × executing cluster).
    pub loads: Vec<i128>,
    /// Connection counts, copied from the allocation.
    pub beta: Vec<u32>,
    /// Compute assignments (non-zero loads only).
    pub compute_tasks: Vec<ComputeTask>,
    /// Transfers (non-zero remote loads only).
    pub transfers: Vec<TransferTask>,
}

/// Builder for [`PeriodicSchedule`].
#[derive(Debug, Clone)]
pub struct ScheduleBuilder {
    /// Common denominator `D` (and period) for [`ScheduleBuilder::build`];
    /// maximum per-rate denominator for [`ScheduleBuilder::build_exact`].
    pub denominator: i128,
}

impl Default for ScheduleBuilder {
    fn default() -> Self {
        ScheduleBuilder { denominator: 1000 }
    }
}

impl ScheduleBuilder {
    fn check(inst: &ProblemInstance, alloc: &Allocation) -> Result<(), ScheduleError> {
        alloc.validate(inst).map_err(|v| {
            let text = v
                .iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            ScheduleError::InvalidAllocation(text)
        })
    }

    /// Common-denominator reconstruction: period is exactly `denominator`.
    pub fn build(
        &self,
        inst: &ProblemInstance,
        alloc: &Allocation,
    ) -> Result<PeriodicSchedule, ScheduleError> {
        Self::check(inst, alloc)?;
        let k = alloc.k;
        let d = self.denominator;
        let mut loads = vec![0i128; k * k];
        for (i, &a) in alloc.alpha.iter().enumerate() {
            if !a.is_finite() {
                return Err(ScheduleError::BadRate {
                    from: i / k,
                    to: i % k,
                });
            }
            // Round *down* onto the 1/D grid; negative dust clamps to 0.
            loads[i] = ((a * d as f64).floor() as i128).max(0);
        }
        Ok(assemble(k, d, loads, alloc.beta.clone()))
    }

    /// Paper-faithful reconstruction: per-rate best rational approximations
    /// (never exceeding the rate), period `lcm` of the denominators.
    pub fn build_exact(
        &self,
        inst: &ProblemInstance,
        alloc: &Allocation,
    ) -> Result<PeriodicSchedule, ScheduleError> {
        Self::check(inst, alloc)?;
        let k = alloc.k;
        let cfg = ApproxConfig {
            max_denominator: self.denominator,
            never_exceed: true,
        };
        let mut rates = Vec::with_capacity(k * k);
        for (i, &a) in alloc.alpha.iter().enumerate() {
            let r = approximate_f64(a.max(0.0), cfg).map_err(|_| ScheduleError::BadRate {
                from: i / k,
                to: i % k,
            })?;
            rates.push(r);
        }
        let period = common_period(rates.iter()).ok_or(ScheduleError::PeriodOverflow)?;
        let loads: Vec<i128> = rates
            .iter()
            .map(|r| {
                // r·period is integral by construction of the lcm.
                r.numer() * (period / r.denom())
            })
            .collect();
        Ok(assemble(k, period, loads, alloc.beta.clone()))
    }
}

fn assemble(k: usize, period: i128, loads: Vec<i128>, beta: Vec<u32>) -> PeriodicSchedule {
    let mut compute_tasks = Vec::new();
    let mut transfers = Vec::new();
    for from in 0..k {
        for to in 0..k {
            let amount = loads[from * k + to];
            if amount > 0 {
                compute_tasks.push(ComputeTask {
                    cluster: ClusterId(to as u32),
                    app: ClusterId(from as u32),
                    amount,
                });
                if from != to {
                    transfers.push(TransferTask {
                        from: ClusterId(from as u32),
                        to: ClusterId(to as u32),
                        amount,
                        connections: beta[from * k + to],
                    });
                }
            }
        }
    }
    PeriodicSchedule {
        period,
        k,
        loads,
        beta,
        compute_tasks,
        transfers,
    }
}

impl PeriodicSchedule {
    /// Load of application `app` executed on `cluster` per period.
    pub fn load(&self, app: ClusterId, cluster: ClusterId) -> i128 {
        self.loads[app.index() * self.k + cluster.index()]
    }

    /// Steady-state throughput of one application (load units per time
    /// unit).
    pub fn app_throughput(&self, app: ClusterId) -> f64 {
        let row = app.index() * self.k;
        let total: i128 = self.loads[row..row + self.k].iter().sum();
        total as f64 / self.period as f64
    }

    /// All application throughputs.
    pub fn throughputs(&self) -> Vec<f64> {
        (0..self.k as u32)
            .map(|a| self.app_throughput(ClusterId(a)))
            .collect()
    }

    /// The equivalent average-rate allocation (for re-validation and
    /// simulation).
    pub fn as_allocation(&self) -> Allocation {
        Allocation {
            k: self.k,
            alpha: self
                .loads
                .iter()
                .map(|&u| u as f64 / self.period as f64)
                .collect(),
            beta: self.beta.clone(),
        }
    }

    /// Verifies the per-period loads against Eq. 7 scaled by the period.
    pub fn validate(&self, inst: &ProblemInstance) -> Result<(), String> {
        self.as_allocation().validate(inst).map_err(|v| {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        })
    }

    /// Human-readable description of one steady-state period.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "period T_p = {} time units", self.period);
        let _ = writeln!(s, "compute ({} tasks):", self.compute_tasks.len());
        for t in &self.compute_tasks {
            let _ = writeln!(
                s,
                "  {} runs {} units of A_{}",
                t.cluster, t.amount, t.app.0
            );
        }
        let _ = writeln!(s, "transfers ({} flows):", self.transfers.len());
        for t in &self.transfers {
            let _ = writeln!(
                s,
                "  {} → {}: {} units over {} connection(s)",
                t.from, t.to, t.amount, t.connections
            );
        }
        s
    }
}

/// Convenience: snap a single rate to the best bounded-denominator rational
/// (re-exported for examples that want to show the paper's `u/v` fractions).
pub fn rate_to_fraction(rate: f64, max_denominator: i128) -> Option<Rational> {
    approximate_f64(
        rate,
        ApproxConfig {
            max_denominator,
            never_exceed: true,
        },
    )
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{Greedy, Heuristic, Lprg};
    use crate::problem::Objective;
    use dls_platform::{PlatformBuilder, PlatformConfig, PlatformGenerator};

    fn c(i: u32) -> ClusterId {
        ClusterId(i)
    }

    fn small_inst() -> ProblemInstance {
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 20.0);
        let c1 = b.add_cluster(50.0, 30.0);
        b.connect_clusters(c0, c1, 10.0, 2);
        ProblemInstance::uniform(b.build().unwrap(), Objective::MaxMin)
    }

    #[test]
    fn common_denominator_mode_period_is_d() {
        let inst = small_inst();
        let alloc = Greedy.solve(&inst).unwrap();
        let s = ScheduleBuilder::default().build(&inst, &alloc).unwrap();
        assert_eq!(s.period, 1000);
        s.validate(&inst).unwrap();
        // Throughput loss bounded by K/D per app.
        for (a, b) in s.throughputs().iter().zip(alloc.throughputs()) {
            assert!(b - a >= -1e-12);
            assert!(b - a <= 2.0 / 1000.0 + 1e-12, "loss {}", b - a);
        }
    }

    #[test]
    fn exact_mode_matches_rational_rates() {
        let inst = small_inst();
        let mut alloc = Allocation::zeros(2);
        alloc.add_alpha(c(0), c(0), 92.0);
        alloc.add_alpha(c(1), c(1), 50.0);
        alloc.add_alpha(c(1), c(0), 7.5); // 15/2
        alloc.add_beta(c(1), c(0), 1);
        let s = ScheduleBuilder::default()
            .build_exact(&inst, &alloc)
            .unwrap();
        // Denominators: 1, 1, 2 → period 2.
        assert_eq!(s.period, 2);
        assert_eq!(s.load(c(1), c(0)), 15);
        assert_eq!(s.load(c(0), c(0)), 184);
        s.validate(&inst).unwrap();
        assert!((s.app_throughput(c(1)) - 57.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_allocation_rejected() {
        let inst = small_inst();
        let mut alloc = Allocation::zeros(2);
        alloc.add_alpha(c(0), c(0), 1000.0); // over speed
        let err = ScheduleBuilder::default().build(&inst, &alloc);
        assert!(matches!(err, Err(ScheduleError::InvalidAllocation(_))));
    }

    #[test]
    fn tasks_enumerate_nonzero_entries_only() {
        let inst = small_inst();
        let alloc = Greedy.solve(&inst).unwrap();
        let s = ScheduleBuilder::default().build(&inst, &alloc).unwrap();
        assert!(s.compute_tasks.iter().all(|t| t.amount > 0));
        assert!(s.transfers.iter().all(|t| t.amount > 0));
        let total_compute: i128 = s.compute_tasks.iter().map(|t| t.amount).sum();
        let total_loads: i128 = s.loads.iter().sum();
        assert_eq!(total_compute, total_loads);
        assert!(!s.describe().is_empty());
    }

    #[test]
    fn schedules_for_heuristic_outputs_on_random_platforms() {
        for seed in 0..10 {
            let cfg = PlatformConfig {
                num_clusters: 5,
                connectivity: 0.5,
                ..PlatformConfig::default()
            };
            let p = PlatformGenerator::new(seed).generate(&cfg);
            let inst = ProblemInstance::uniform(p, Objective::Sum);
            let alloc = Lprg.solve(&inst).unwrap();
            let s = ScheduleBuilder::default().build(&inst, &alloc).unwrap();
            s.validate(&inst).unwrap();
            let exact = ScheduleBuilder { denominator: 64 }.build_exact(&inst, &alloc);
            // Exact mode may overflow for adversarial denominators but must
            // not here (denominators ≤ 64 ⇒ lcm ≤ lcm(1..64), still large —
            // accept either success or a clean overflow error).
            if let Ok(s) = exact {
                s.validate(&inst).unwrap();
            }
        }
    }

    #[test]
    fn rate_fraction_helper() {
        let r = rate_to_fraction(2.5, 10).unwrap();
        assert_eq!(r, Rational::new(5, 2).unwrap());
    }
}
