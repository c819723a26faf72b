#![warn(missing_docs)]

//! # dls-experiments — the §6 evaluation harness
//!
//! Reproduces the paper's simulation study: random platforms drawn from the
//! Table 1 parameter grid, all heuristics solved under both objectives, and
//! the figures of the evaluation section regenerated as ASCII charts + CSV:
//!
//! * [`figures::fig5`] — `G` and `LPRG` relative to the `LP` upper bound as
//!   a function of `K` (Figure 5), plus the §6.1 headline scalars (the
//!   LPRG:G overall ratios);
//! * [`figures::fig6`] — `LPRR` vs `G` on a small set of topologies
//!   (Figure 6), with the equal-probability rounding ablation;
//! * [`figures::fig7`] — running times vs `K` on a log scale (Figure 7);
//! * [`figures::table1`] — the parameter grid itself plus the §6.1
//!   "no clear trend" marginal analysis.
//!
//! Because the original sweep (269 835 platforms on a Pentium III) is not a
//! sensible default in CI, every figure takes a [`Preset`]:
//! [`Preset::Quick`] (seconds, used by the integration tests),
//! [`Preset::PaperShape`] (minutes, the committed EXPERIMENTS.md numbers)
//! and [`Preset::Full`] (the entire grid, hours).
//!
//! The [`runner`] executes sweeps on a scoped thread pool with
//! deterministic per-platform seeds, so every figure is reproducible from
//! its `--seed`.

pub mod figures;
pub mod record;
pub mod report;
pub mod runner;
pub mod stats;

pub use figures::{fig5, fig6, fig7, table1, Preset};
pub use record::RunRecord;
pub use runner::{run_sweep, sweep_instance, HeuristicSet, RunnerConfig};
pub use stats::{overall_ratio, ratios_by_k, timings_by_k, KAggregate};
