#![warn(missing_docs)]

//! # dls — Divisible-Load Scheduling on Large-Scale Platforms
//!
//! A production-quality Rust reproduction of *“A Realistic
//! Network/Application Model for Scheduling Divisible Loads on Large-Scale
//! Platforms”* (Marchal, Yang, Casanova, Robert — IPDPS 2005).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`platform`] — the Grid platform model of §2: clusters behind local
//!   links, routers, backbone links with per-connection bandwidth and
//!   connection caps, fixed routing, plus the random generator used by the
//!   paper's evaluation.
//! * [`core`] — the paper's contribution: the steady-state multi-application
//!   scheduling problem (Eq. 7), the SUM and MAXMIN objectives, the
//!   heuristics `G`, `LPR`, `LPRG`, `LPRR`, the LP upper bound, an exact
//!   branch-and-bound solver, and periodic schedule reconstruction (§3.2).
//! * [`lp`] — from-scratch linear programming: model builder, two-phase
//!   dense simplex, revised simplex for large instances, branch-and-bound
//!   MILP.
//! * [`rational`] — exact fractions for schedule reconstruction.
//! * [`npc`] — the §4 NP-completeness reduction from
//!   MAXIMUM-INDEPENDENT-SET, with exact solvers to verify it.
//! * [`sim`] — an event-driven simulator that executes periodic schedules
//!   under the §2 bandwidth-sharing model and measures achieved throughput,
//!   plus the live-mutation core ([`sim::LiveSim`]) for online workloads.
//! * [`scenario`] — the online workload & platform-dynamics engine
//!   (§1 (iii)): job arrivals, churn, capacity drift, and live
//!   rescheduling policies over the warm-started LP pipeline.
//! * [`experiments`] — the §6 evaluation harness (parallel sweeps,
//!   statistics, CSV/ASCII figures).
//! * [`service`] — the long-running multi-tenant scheduler daemon:
//!   concurrent tenant sessions over a newline-delimited JSON wire
//!   protocol, sharded across a worker pool, with snapshot-based
//!   checkpoint/restore (`dls-cli serve`).
//!
//! ## Quickstart
//!
//! ```
//! use dls::prelude::*;
//!
//! // A three-cluster platform in a triangle of backbone links.
//! let mut b = PlatformBuilder::new();
//! let c0 = b.add_cluster(100.0, 50.0);
//! let c1 = b.add_cluster(200.0, 80.0);
//! let c2 = b.add_cluster(50.0, 30.0);
//! b.connect_clusters(c0, c1, 10.0, 4);
//! b.connect_clusters(c1, c2, 20.0, 2);
//! b.connect_clusters(c0, c2, 5.0, 8);
//! let platform = b.build().unwrap();
//!
//! // One divisible application per cluster, equal payoffs, MAXMIN fairness.
//! let problem = ProblemInstance::uniform(platform, Objective::MaxMin);
//!
//! // Solve with the LPRG heuristic and validate the allocation.
//! let allocation = Lprg.solve(&problem).unwrap();
//! assert!(allocation.validate(&problem).is_ok());
//! assert!(allocation.objective_value(&problem) > 0.0);
//! ```

pub use dls_core as core;
pub use dls_experiments as experiments;
pub use dls_lp as lp;
pub use dls_npc as npc;
pub use dls_platform as platform;
pub use dls_rational as rational;
pub use dls_scenario as scenario;
pub use dls_service as service;
pub use dls_sim as sim;
#[doc(hidden)]
pub use serde_json;

/// Most-used items in one import.
pub mod prelude {
    pub use dls_core::schedule::{PeriodicSchedule, ScheduleBuilder};
    pub use dls_core::{
        heuristics::{Greedy, Heuristic, Lpr, Lprg, Lprr, UpperBound},
        Allocation, Objective, ProblemInstance,
    };
    pub use dls_platform::{
        ClusterId, Platform, PlatformBuilder, PlatformConfig, PlatformGenerator,
    };
    pub use dls_scenario::{
        run_scenario, PeriodicResolve, ReschedulePolicy, Resolver, Scenario, ScenarioConfig,
        ScenarioReport, StaleScale, ThresholdTriggered,
    };
    pub use dls_sim::{LiveConfig, LiveSim, SimConfig, Simulator};
}
