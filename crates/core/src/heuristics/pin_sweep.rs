//! Parallel pin sweep: probe every candidate β pin of the grid in one pass.
//!
//! The LPRR rounding loop pins routes one at a time, but several consumers
//! (branch ordering, scenario what-if analysis, the bench harness) want the
//! *whole* K² pin grid evaluated against one relaxation: for every routed
//! pair `(k, l)`, the objective of pinning `β_{k,l}` to its rounded
//! fractional value. That is ~K² independent warm solves — embarrassingly
//! parallel, and the dominant cost at large K.
//!
//! # Determinism under sharding
//!
//! Each probe is a *pure function of the shared base state*: the worker
//! clones the warm-started base [`WarmSimplex`] (factorisation included),
//! applies the probe's [`PinDelta`](crate::formulation::PinDelta), and
//! solves. No per-worker state survives between probes, so the objective
//! vector is bit-identical for any worker count or chunking — including
//! when a probe degrades to a cold fallback inside its private clone. The
//! merge (best-pin argmax, canonical stage-2 vertex) runs sequentially
//! after the barrier, in probe-index order with strict-improvement ties to
//! the lowest index, so the full [`PinSweepReport`] is bit-identical to the
//! `threads = 1` sweep.

use super::Lprr;
use crate::error::SolveError;
use crate::formulation::{LpFormulation, PinDelta};
use crate::problem::ProblemInstance;
use dls_lp::{RevisedSimplex, Sense, Status, WarmSimplex};
use dls_platform::ClusterId;

/// One evaluated candidate pin.
#[derive(Debug, Clone, PartialEq)]
pub struct PinProbe {
    /// Source cluster of the pinned route.
    pub from: ClusterId,
    /// Destination cluster of the pinned route.
    pub to: ClusterId,
    /// The probed β value (rounded fractional β̃, clamped to the route's
    /// remaining connection budget).
    pub v: u32,
    /// Objective of the relaxation with this single pin applied.
    pub objective: f64,
}

/// Result of [`Lprr::pin_sweep`]: every probe, the winner, and the
/// canonical stage-2 vertex at the winning pin.
#[derive(Debug, Clone, PartialEq)]
pub struct PinSweepReport {
    /// Probes in deterministic row-major `(from, to)` order.
    pub probes: Vec<PinProbe>,
    /// Index into `probes` of the best objective (strict improvement, so
    /// ties keep the lowest index); `None` when there are no probes.
    pub best: Option<usize>,
    /// Objective of the unpinned base relaxation.
    pub base_objective: f64,
    /// Certified stage-1 objective at the winning pin (base objective when
    /// no probes exist).
    pub best_objective: f64,
    /// Canonical stage-2 vertex at the winning pin: the unique optimum of
    /// the tie-break objective over the stage-1 optimal face (see
    /// [`LpFormulation::tiebreak_terms`]), as model-space variable values.
    pub stage2_values: Vec<f64>,
    /// Worker count the sweep ran with (1 = sequential).
    pub threads: usize,
}

/// Margin by which the stage-2 lower bound on the objective variable is
/// relaxed below the certified stage-1 optimum — same constant as the
/// scenario resolvers, so every pipeline extracts the same vertex.
fn stage2_floor(z_star: f64) -> f64 {
    (z_star - 1e-9 * (1.0 + z_star.abs())).max(0.0)
}

/// Clones the base context, applies one pin delta, and solves. Pure in the
/// base state — see the module docs.
fn probe(base: &WarmSimplex, delta: &PinDelta) -> Result<f64, SolveError> {
    let mut w = base.clone();
    w.set_var_bounds(delta.var, delta.lo, delta.up)
        .map_err(SolveError::from)?;
    for &(con, var) in &delta.coef_zeroed {
        w.set_coefficient(con, var, 0.0).map_err(SolveError::from)?;
    }
    for &(con, rhs) in &delta.rhs {
        w.set_rhs(con, rhs).map_err(SolveError::from)?;
    }
    let sol = w.solve().map_err(SolveError::from)?;
    match sol.status {
        Status::Optimal => Ok(sol.objective),
        Status::Infeasible => Err(SolveError::UnexpectedStatus("infeasible probe")),
        Status::Unbounded => Err(SolveError::UnexpectedStatus("unbounded probe")),
    }
}

impl Lprr {
    /// Resolved worker count: the `threads` knob, with `0` meaning the
    /// machine's available parallelism.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Evaluates the pin grid of `inst` against one warm-started base
    /// relaxation, sharded over [`Lprr::threads`] workers.
    ///
    /// Every routed pair contributes one candidate pin — β̃ rounded to the
    /// nearest integer, clamped to the route's connection budget. When the
    /// grid exceeds `max_probes`, a deterministic stride subsample keeps
    /// the probe count bounded (large-K grids are quadratic). The report is
    /// bit-identical for every thread count; see the module docs.
    pub fn pin_sweep(
        &self,
        inst: &ProblemInstance,
        max_probes: usize,
    ) -> Result<PinSweepReport, SolveError> {
        let p = &inst.platform;
        let k = p.num_clusters();

        // Shared base: formulation + one warm-started solve whose
        // factorised basis every probe clone starts from.
        let f = LpFormulation::relaxation_warm(inst)?;
        let mut base = WarmSimplex::new(f.model.clone(), RevisedSimplex::default())
            .map_err(SolveError::from)?;
        base.check_against_cold = self.oracle_check;
        let base_sol = Self::check_optimal(base.solve().map_err(SolveError::from)?)?;
        let frac = f.extract_fractional(&base_sol);
        let maximize = f.model.sense() == Sense::Maximize;

        // Candidate pins in row-major (from, to) order: round β̃ and clamp
        // to the route's remaining budget, mirroring the rounding loop.
        let mut candidates: Vec<(ClusterId, ClusterId, u32)> = Vec::new();
        for from in p.cluster_ids() {
            for to in p.cluster_ids() {
                if from == to {
                    continue;
                }
                let Some(bw) = p.route_bottleneck_bw(from, to) else {
                    continue;
                };
                if !bw.is_finite() {
                    continue;
                }
                let route = p.route(from, to).expect("routed pair has a route");
                let budget = route
                    .iter()
                    .map(|l| p.links[l.index()].max_connections as i64)
                    .min()
                    .unwrap_or(i64::MAX);
                let want = (frac.beta[from.index() * k + to.index()] + 0.5).floor() as i64;
                candidates.push((from, to, want.clamp(0, budget) as u32));
            }
        }
        // Subsample first, so a delta is only built for a pin that is probed.
        let step = if max_probes > 0 && candidates.len() > max_probes {
            candidates.len().div_ceil(max_probes)
        } else {
            1
        };
        let tasks: Vec<(ClusterId, ClusterId, u32, PinDelta)> = candidates
            .into_iter()
            .step_by(step)
            .map(|(from, to, v)| Ok((from, to, v, f.pin_delta(inst, from, to, v)?)))
            .collect::<Result<_, SolveError>>()?;

        // Shard contiguous chunks over scoped workers. Each slot is written
        // by exactly one worker; errors are merged in probe-index order.
        let threads = self.resolved_threads().clamp(1, tasks.len().max(1));
        let mut slots: Vec<Option<Result<f64, SolveError>>> =
            (0..tasks.len()).map(|_| None).collect();
        let chunk = tasks.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            for (slot_chunk, task_chunk) in slots.chunks_mut(chunk).zip(tasks.chunks(chunk)) {
                let base = &base;
                scope.spawn(move || {
                    for (slot, (_, _, _, delta)) in slot_chunk.iter_mut().zip(task_chunk) {
                        *slot = Some(probe(base, delta));
                    }
                });
            }
        });

        let mut probes: Vec<PinProbe> = Vec::with_capacity(tasks.len());
        let mut best: Option<usize> = None;
        for (i, ((from, to, v, _), slot)) in tasks.iter().zip(slots).enumerate() {
            let objective = slot.expect("every slot is written by its worker")?;
            let improves = match best {
                None => true,
                Some(b) => {
                    let b_obj = probes[b].objective;
                    if maximize {
                        objective > b_obj
                    } else {
                        objective < b_obj
                    }
                }
            };
            probes.push(PinProbe {
                from: *from,
                to: *to,
                v: *v,
                objective,
            });
            if improves {
                best = Some(i);
            }
        }

        // Canonical stage-2 vertex at the winner, computed once after the
        // merge (sequentially — identical regardless of sharding): re-apply
        // the winning delta to a fresh clone, certify stage 1, then pin the
        // objective and maximise the tie-break weights warm from that basis.
        let mut wbest = base.clone();
        let best_objective = match best {
            Some(b) => {
                let delta = &tasks[b].3;
                wbest
                    .set_var_bounds(delta.var, delta.lo, delta.up)
                    .map_err(SolveError::from)?;
                for &(con, var) in &delta.coef_zeroed {
                    wbest
                        .set_coefficient(con, var, 0.0)
                        .map_err(SolveError::from)?;
                }
                for &(con, rhs) in &delta.rhs {
                    wbest.set_rhs(con, rhs).map_err(SolveError::from)?;
                }
                probes[b].objective
            }
            None => base_sol.objective,
        };
        let stage1 = Self::check_optimal(wbest.solve().map_err(SolveError::from)?)?;
        let stage2_values = if let Some(z) = f.objective_var() {
            wbest
                .set_var_bounds(z, stage2_floor(stage1.values[z.index()]), f64::INFINITY)
                .map_err(SolveError::from)?;
            wbest.set_objective_coef(z, 0.0).map_err(SolveError::from)?;
            for (var, weight) in f.tiebreak_terms() {
                wbest
                    .set_objective_coef(var, weight)
                    .map_err(SolveError::from)?;
            }
            let canon = wbest.solve().map_err(SolveError::from)?;
            if canon.status == Status::Optimal {
                canon.values
            } else {
                stage1.values
            }
        } else {
            stage1.values
        };

        Ok(PinSweepReport {
            probes,
            best,
            base_objective: base_sol.objective,
            best_objective,
            stage2_values,
            threads,
        })
    }
}
