//! Parallel pin sweep: probe every candidate β pin of the grid in one pass.
//!
//! The LPRR rounding loop pins routes one at a time; the sweep instead
//! evaluates the *whole* K² pin grid against one relaxation: for every
//! routed pair `(k, l)`, the objective of pinning `β_{k,l}` to its rounded
//! fractional value. That is ~K² independent warm solves — embarrassingly
//! parallel, and the dominant cost at large K. Its callers are the
//! benchmarks (`perf`'s sparse scaling entries and the `plan_island`
//! workload) and the tests that pin its bit identity.
//!
//! # Determinism under sharding
//!
//! Each probe is a *pure function of the shared base state*. A worker
//! clones the warm-started base [`WarmSimplex`] (factorisation included)
//! once, and before every later probe refreshes that context in place with
//! `clone_from(&base)`, which reuses its buffers but leaves a value equal
//! to the base. It then applies the probe's
//! [`PinDelta`](crate::formulation::PinDelta) and solves. Nothing a probe
//! did survives the refresh, so the objective vector is bit-identical for
//! any worker count or chunking — including when a probe degrades to a
//! cold fallback and re-lowers its context. The merge (best-pin argmax in
//! probe-index order, strict improvement, so ties go to the lowest index)
//! runs sequentially after the barrier. The winner is then re-applied to
//! the base itself, which no probe touched, and
//! [`LpIndex::canonical_stage2`](crate::LpIndex::canonical_stage2) runs
//! warm from that solve. The full [`PinSweepReport`] is bit-identical to
//! the `threads = 1` sweep, which runs on the calling thread.

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
    /// Canonical stage-2 vertex at the winning pin: the optimum of the
    /// tie-break objective over the stage-1 optimal face (see
    /// [`LpIndex::tiebreak_terms`](crate::LpIndex::tiebreak_terms)), as
    /// model-space variable values; the stage-1 vertex when stage 2 does
    /// not re-certify optimality.
    pub stage2_values: Vec<f64>,
    /// Worker count the sweep ran with (1 = sequential).
    pub threads: usize,
}

/// One candidate pin: `(from, to, v)` and the delta that applies it.
type Task = (ClusterId, ClusterId, u32, PinDelta);

/// Applies one pin delta to `w`, a context equal to the base, and solves.
/// Pure in the base state — see the module docs.
fn probe(w: &mut WarmSimplex, delta: &PinDelta) -> Result<f64, SolveError> {
    delta.apply_to(w)?;
    let sol = w.solve()?;
    match sol.status {
        Status::Optimal => Ok(sol.objective),
        Status::Infeasible => Err(SolveError::UnexpectedStatus("infeasible probe")),
        Status::Unbounded => Err(SolveError::UnexpectedStatus("unbounded probe")),
    }
}

/// Runs one worker's chunk of probes, writing each objective to its slot.
/// The worker clones the base once and refreshes that context in place
/// before every later probe.
fn sweep_chunk(base: &WarmSimplex, tasks: &[Task], slots: &mut [Option<Result<f64, SolveError>>]) {
    let mut w = base.clone();
    for (i, (slot, (_, _, _, delta))) in slots.iter_mut().zip(tasks).enumerate() {
        if i > 0 {
            w.clone_from(base);
        }
        *slot = Some(probe(&mut w, delta));
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

        // Shared base: the formulation's index + one warm-started solve
        // whose factorised basis (and model) every probe clone starts from.
        let LpFormulation { model, index } = LpFormulation::relaxation_warm(inst)?;
        let mut base = WarmSimplex::new(model, RevisedSimplex::default())?;
        base.check_against_cold = self.oracle_check;
        let base_sol = Self::check_optimal(base.solve()?)?;
        let frac = index.extract_fractional(&base_sol);
        let maximize = base.model().sense() == Sense::Maximize;

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
        let tasks: Vec<Task> = candidates
            .into_iter()
            .step_by(step)
            .map(|(from, to, v)| {
                let delta = index.pin_delta_in(base.model(), inst, from, to, v)?;
                Ok((from, to, v, delta))
            })
            .collect::<Result<_, SolveError>>()?;

        // Shard contiguous chunks over workers: the first chunk runs on
        // the calling thread (all of a `threads = 1` sweep), the rest on
        // scoped threads. Each slot is written by exactly one worker;
        // errors are merged in probe-index order.
        let threads = self.resolved_threads().clamp(1, tasks.len().max(1));
        let mut slots: Vec<Option<Result<f64, SolveError>>> =
            (0..tasks.len()).map(|_| None).collect();
        let chunk = tasks.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            let mut shards = slots.chunks_mut(chunk).zip(tasks.chunks(chunk));
            let own = shards.next();
            let base = &base;
            for (slots, tasks) in shards {
                scope.spawn(move || sweep_chunk(base, tasks, slots));
            }
            if let Some((slots, tasks)) = own {
                sweep_chunk(base, tasks, slots);
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
        // merge (sequentially — identical regardless of sharding): apply
        // the winning delta to the base itself, which every probe copied
        // but none changed, certify stage 1, then run the shared second
        // stage warm from that basis.
        let mut wbest = base;
        let best_objective = match best {
            Some(b) => {
                tasks[b].3.apply_to(&mut wbest)?;
                probes[b].objective
            }
            None => base_sol.objective,
        };
        let stage1 = Self::check_optimal(wbest.solve()?)?;
        let stage2_values = index.canonical_stage2(&mut wbest, stage1)?.values;

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
