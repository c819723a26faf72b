#![warn(missing_docs)]

//! # dls-core — steady-state scheduling of multiple divisible loads
//!
//! This crate is the paper's primary contribution (Marchal, Yang, Casanova,
//! Robert — IPDPS 2005): given the platform model of [`dls_platform`] and
//! one divisible-load application per cluster, find per-time-unit activity
//! variables
//!
//! * `α_{k,l}` — load of application `A_k` shipped from its home cluster
//!   `C^k` and computed on cluster `C^l` (`α_{k,k}` is the locally processed
//!   share), and
//! * `β_{k,l} ∈ ℕ` — number of network connections opened for that
//!   transfer,
//!
//! subject to the steady-state constraints of Eq. 7:
//!
//! ```text
//! (7b)  ∀k:  Σ_l α_{l,k}                       ≤ s_k          (compute)
//! (7c)  ∀k:  Σ_{l≠k} α_{k,l} + Σ_{j≠k} α_{j,k} ≤ g_k          (local link)
//! (7d)  ∀li: Σ_{(k,l): li∈L_{k,l}} β_{k,l}     ≤ maxconn(li)  (connections)
//! (7e)  ∀k,l: α_{k,l} ≤ β_{k,l}·min_{li∈L_{k,l}} bw(li)       (bandwidth)
//! ```
//!
//! maximising either the total payoff **SUM** `Σ_k π_k α_k` or the max-min
//! fair **MAXMIN** `min_k π_k α_k` ([`Objective`]). The mixed program is
//! NP-hard (§4, see `dls-npc`), so the paper proposes polynomial heuristics,
//! all implemented in [`heuristics`]:
//!
//! | name | idea | paper § |
//! |------|------|---------|
//! | [`heuristics::Greedy`] | repeatedly grant one connection's worth of work to the most starved application | 5.1 |
//! | [`heuristics::Lpr`]  | solve the rational relaxation, round `β` down | 5.2.1 |
//! | [`heuristics::Lprg`] | LPR, then run the greedy on the residual platform | 5.2.2 |
//! | [`heuristics::Lprr`] | randomized rounding, one LP re-solve per fixed route | 5.2.3 |
//! | [`heuristics::UpperBound`] | the rational relaxation itself (not a feasible allocation; the paper's "LP" comparator) | 6 |
//! | [`heuristics::ExactMilp`] | branch-and-bound on the true mixed program (ours; exponential, small K only) | — |
//!
//! A feasible `(α, β)` pair is an [`Allocation`]; [`Allocation::validate`]
//! checks Eq. 7 exactly, and [`schedule`] turns any valid allocation into
//! the explicit periodic schedule of §3.2. [`adaptive`] holds the drift
//! model and the stale baseline's shrink-to-fit (§1's motivation (iii)).

pub mod adaptive;
pub mod allocation;
pub mod approx;
pub mod bottleneck;
pub mod error;
pub mod formulation;
pub mod heuristics;
pub mod problem;
pub mod residual;
pub mod schedule;

pub use allocation::{Allocation, ConstraintViolation, FractionalAllocation};
pub use bottleneck::BottleneckReport;
pub use error::SolveError;
pub use formulation::{LpFormulation, LpIndex, PinDelta};
pub use problem::{paper_shape_instance, Objective, ProblemInstance};
pub use residual::ResidualPlatform;
