//! Best-first branch-and-bound for mixed-integer linear programs.
//!
//! The steady-state divisible-load program (Eq. 7 of the paper) mixes
//! rational `α` variables with integral connection counts `β`. The paper
//! proves optimising it is NP-hard and therefore only *bounds* the optimum
//! with the rational relaxation; this exact solver closes the loop on small
//! instances — our tests use it to verify the NP-completeness reduction
//! (maximum-independent-set size ⟺ optimal throughput) and to measure how
//! close the heuristics land on platforms where exactness is affordable.
//!
//! Standard design: LP relaxation per node, most-fractional branching,
//! best-first exploration ordered by relaxation bound, pruning against the
//! incumbent. With [`BranchBoundConfig::warm_start`] (the default) every
//! node solve runs the revised simplex warm-started from its parent's
//! optimal basis: a child differs from its parent only by one bound
//! tightening, so the dual simplex repairs the inherited basis in a few
//! pivots instead of re-running both cold phases per node. Cold node
//! solves use the engine [`crate::resolve_engine`] picks for the root
//! model, once per tree.

use crate::model::{Model, Sense, VarId};
use crate::solution::{Solution, Status};
use crate::warm::Basis;
use crate::{
    resolve_engine, solve_auto, solve_with, BasisRepr, Engine, LpError, RevisedSimplex, INT_TOL,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Hard cap on explored nodes.
const MAX_NODES: usize = 100_000;

/// Relative optimality gap at which the search stops: 1e-9, i.e. prove
/// optimality.
const REL_GAP: f64 = 1e-9;

/// Minimum root-model size (variables + constraints) at which
/// [`BranchBoundConfig::warm_start`] actually engages. Below it every node
/// cold-solves even with `warm_start` on: tiny relaxations finish in a
/// handful of pivots either way, so the basis snapshot/restore bookkeeping
/// costs more than the pivots it saves (measured ~2.5× slower on the
/// K∈{3,4} steady-state programs).
pub(crate) const WARM_START_MIN_DIM: usize = 64;

/// Branch-and-bound configuration.
#[derive(Debug, Clone)]
pub struct BranchBoundConfig {
    /// Warm-start node relaxations from the parent's basis (default). This
    /// forces the revised simplex, since only it can restore a [`Basis`];
    /// nodes whose snapshot is unusable silently degrade to a cold solve.
    /// `false` cold-solves every node, the reference tree.
    pub warm_start: bool,
}

impl Default for BranchBoundConfig {
    fn default() -> Self {
        BranchBoundConfig { warm_start: true }
    }
}

/// Exact MILP solver.
#[derive(Debug, Clone, Default)]
pub struct BranchBound {
    /// Tunables.
    pub config: BranchBoundConfig,
}

/// A node in the search tree: bound tightenings relative to the root model.
#[derive(Debug, Clone)]
struct Node {
    /// `(variable, lo, up)` overrides accumulated along the path.
    tightenings: Vec<(VarId, f64, f64)>,
    /// Parent relaxation objective — an optimistic bound for this node.
    bound: f64,
    depth: usize,
    /// Optimal basis of the parent relaxation (warm-start seed).
    basis: Option<Arc<Basis>>,
}

/// Heap ordering: best bound first (max-heap on `score`).
struct HeapEntry {
    score: f64,
    node: Node,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            // Deeper nodes first among equal bounds: dives to integer
            // solutions sooner.
            .then_with(|| self.node.depth.cmp(&other.node.depth))
    }
}

impl BranchBound {
    /// Creates a solver with the given configuration.
    pub fn new(config: BranchBoundConfig) -> Self {
        BranchBound { config }
    }

    /// Solves `model` to proven optimality over its integer-marked
    /// variables.
    pub fn solve(&self, model: &Model) -> Result<Solution, LpError> {
        self.solve_warm_from(model, WARM_START_MIN_DIM)
    }

    /// [`BranchBound::solve`] with warm starts engaging from another
    /// root-model size (tests force basis inheritance on tiny models with
    /// `0`).
    pub(crate) fn solve_warm_from(
        &self,
        model: &Model,
        warm_start_min_dim: usize,
    ) -> Result<Solution, LpError> {
        let int_vars = model.integer_vars();
        if int_vars.is_empty() {
            return solve_auto(model);
        }
        // `better(a, b)` ⇔ objective a improves on b for the model sense.
        let maximize = model.sense() == Sense::Maximize;
        let better = |a: f64, b: f64| if maximize { a > b } else { a < b };

        // Resolve the engine once from the root: bound tightenings flip
        // infinite bounds finite and would otherwise flip the size-based
        // choice mid-tree.
        let engine = resolve_engine(model);
        // Warm node solves go through the revised simplex whatever the
        // engine; align its basis representation with the resolved choice
        // so sparse-engine trees keep the sparse factor at every node.
        let warm_solver = RevisedSimplex {
            basis_repr: match engine {
                Engine::Sparse => BasisRepr::SparseLu,
                Engine::Dense => BasisRepr::DenseInverse,
            },
        };
        let warm_start = self.config.warm_start
            && model.num_vars() + model.num_constraints() >= warm_start_min_dim;

        let mut incumbent: Option<Solution> = None;
        let mut explored = 0usize;
        let mut total_iterations = 0usize;
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            score: if maximize {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            },
            node: Node {
                tightenings: Vec::new(),
                bound: if maximize {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                },
                depth: 0,
                basis: None,
            },
        });

        let mut scratch = model.clone();
        while let Some(HeapEntry { node, .. }) = heap.pop() {
            explored += 1;
            if explored > MAX_NODES {
                // Out of budget: return the incumbent if we have one.
                return match incumbent {
                    Some(sol) => Ok(sol),
                    None => Err(LpError::NodeLimit { explored }),
                };
            }
            // Prune against the incumbent using the inherited bound.
            if let Some(inc) = &incumbent {
                if !better(node.bound, inc.objective * gap_factor(maximize)) {
                    continue;
                }
            }

            // Apply tightenings onto the scratch model.
            restore_bounds(&mut scratch, model);
            let mut empty_domain = false;
            for &(v, lo, up) in &node.tightenings {
                if lo > up {
                    empty_domain = true;
                    break;
                }
                scratch.set_bounds(v, lo, up);
            }
            if empty_domain {
                continue;
            }

            // Warm path: restore the parent's basis and repair it with the
            // dual simplex (root and unusable snapshots cold-solve).
            let (relax, relax_basis) = if warm_start {
                let (sol, basis) = match node.basis.as_deref() {
                    Some(parent) => warm_solver.solve_warm(&scratch, parent)?,
                    None => warm_solver.solve_with_basis(&scratch)?,
                };
                (sol, basis.map(Arc::new))
            } else {
                (solve_with(&scratch, engine)?, None)
            };
            total_iterations += relax.iterations;
            match relax.status {
                Status::Infeasible => continue,
                Status::Unbounded => {
                    // An unbounded relaxation at the root means the MILP is
                    // unbounded (or will be cut off by integrality in a way
                    // we cannot bound) — report it.
                    return Ok(Solution::unbounded(total_iterations));
                }
                Status::Optimal => {}
            }
            if let Some(inc) = &incumbent {
                if !better(relax.objective, inc.objective * gap_factor(maximize)) {
                    continue;
                }
            }

            // Find the most fractional integer variable.
            let mut branch_var = None;
            let mut worst_frac = INT_TOL;
            for &v in &int_vars {
                let x = relax.values[v.index()];
                let frac = (x - x.round()).abs();
                if frac > worst_frac {
                    worst_frac = frac;
                    branch_var = Some((v, x));
                }
            }

            match branch_var {
                None => {
                    // Integral: candidate incumbent. Snap the integer values
                    // exactly before storing. LP duals do not apply to the
                    // mixed program, so they are dropped (see `Solution`).
                    let mut sol = relax;
                    for &v in &int_vars {
                        sol.values[v.index()] = sol.values[v.index()].round();
                    }
                    sol.objective = model.objective_value(&sol.values);
                    sol.duals.clear();
                    let replace = match &incumbent {
                        None => true,
                        Some(inc) => better(sol.objective, inc.objective),
                    };
                    if replace {
                        incumbent = Some(sol);
                    }
                }
                Some((v, x)) => {
                    let (lo, up) = scratch.bounds(v);
                    let down = x.floor();
                    let up_branch = x.ceil();
                    for (new_lo, new_up) in [(lo, down), (up_branch, up)] {
                        if new_lo <= new_up {
                            let mut t = node.tightenings.clone();
                            t.push((v, new_lo, new_up));
                            heap.push(HeapEntry {
                                score: relax.objective * if maximize { 1.0 } else { -1.0 },
                                node: Node {
                                    tightenings: t,
                                    bound: relax.objective,
                                    depth: node.depth + 1,
                                    basis: relax_basis.clone(),
                                },
                            });
                        }
                    }
                }
            }
        }

        match incumbent {
            Some(mut sol) => {
                sol.iterations = total_iterations;
                Ok(sol)
            }
            None => Ok(Solution::infeasible(total_iterations)),
        }
    }
}

/// Incumbent comparison slack: a node must beat `incumbent·(1 ± gap)`.
fn gap_factor(maximize: bool) -> f64 {
    if maximize {
        1.0 + REL_GAP
    } else {
        1.0 - REL_GAP
    }
}

fn restore_bounds(scratch: &mut Model, original: &Model) {
    for j in 0..original.num_vars() {
        let v = VarId(j as u32);
        let (lo, up) = original.bounds(v);
        scratch.set_bounds(v, lo, up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 3.5);
        m.set_objective_coef(x, 1.0);
        let s = BranchBound::default().solve(&m).unwrap();
        assert!((s.objective - 3.5).abs() < 1e-7);
    }

    #[test]
    fn knapsack_small() {
        // max 10a+6b+4c s.t. a+b+c ≤ 2 (binary) → a+b = 16.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_int_var("a", 0.0, 1.0);
        let b = m.add_int_var("b", 0.0, 1.0);
        let c = m.add_int_var("c", 0.0, 1.0);
        m.set_objective_coef(a, 10.0);
        m.set_objective_coef(b, 6.0);
        m.set_objective_coef(c, 4.0);
        m.add_constraint(vec![(a, 1.0), (b, 1.0), (c, 1.0)], ConstraintOp::Le, 2.0);
        let s = BranchBound::default().solve(&m).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 16.0).abs() < 1e-6);
        assert!((s[a] - 1.0).abs() < 1e-9);
        assert!((s[b] - 1.0).abs() < 1e-9);
        assert!(s[c].abs() < 1e-9);
    }

    #[test]
    fn integrality_forces_weaker_objective() {
        // max x s.t. 2x ≤ 5 → LP gives 2.5, MILP gives 2.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_int_var("x", 0.0, f64::INFINITY);
        m.set_objective_coef(x, 1.0);
        m.add_constraint(vec![(x, 2.0)], ConstraintOp::Le, 5.0);
        let s = BranchBound::default().solve(&m).unwrap();
        assert!((s.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + y, x integer: x + y ≤ 3.7, x ≤ 2.2 → x=2, y=1.7, obj 5.7.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_int_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective_coef(x, 2.0);
        m.set_objective_coef(y, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 3.7);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 2.2);
        let s = BranchBound::default().solve(&m).unwrap();
        assert!((s.objective - 5.7).abs() < 1e-6, "obj {}", s.objective);
        assert!((s[x] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_milp() {
        // 0.4 ≤ x ≤ 0.6 integral → infeasible.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_int_var("x", 0.0, 1.0);
        m.set_objective_coef(x, 1.0);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 0.4);
        m.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 0.6);
        let s = BranchBound::default().solve(&m).unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn minimisation_sense() {
        // min 3x + 2y s.t. x + y ≥ 2.5, integers → (0,3)=6 vs (1,2)=7 vs
        // (2,1)=8 vs (3,0)=9 → obj 6.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_int_var("x", 0.0, 10.0);
        let y = m.add_int_var("y", 0.0, 10.0);
        m.set_objective_coef(x, 3.0);
        m.set_objective_coef(y, 2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 2.5);
        let s = BranchBound::default().solve(&m).unwrap();
        assert!((s.objective - 6.0).abs() < 1e-6);
    }

    #[test]
    fn warm_and_cold_trees_agree() {
        // Same MILP solved with basis inheritance and with per-node cold
        // solves must reach the same optimum (the search order may differ).
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..6)
            .map(|i| m.add_int_var(format!("x{i}"), 0.0, 3.0))
            .collect();
        for (i, &v) in vars.iter().enumerate() {
            m.set_objective_coef(v, 2.0 + (i as f64) * 0.7);
        }
        m.add_constraint(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 3) as f64))
                .collect::<Vec<_>>(),
            ConstraintOp::Le,
            7.3,
        );
        m.add_constraint(
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            ConstraintOp::Le,
            5.0,
        );
        // A warm start from size 0 forces genuine basis inheritance — this
        // model is far below the tiny-model fallback threshold.
        let warm = BranchBound::default().solve_warm_from(&m, 0).unwrap();
        let cold = BranchBound::new(BranchBoundConfig { warm_start: false })
            .solve(&m)
            .unwrap();
        assert_eq!(warm.status, Status::Optimal);
        assert_eq!(cold.status, Status::Optimal);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        m.check_feasible(&warm.values, 1e-6).unwrap();
    }

    #[test]
    fn tiny_models_fall_back_to_cold_but_agree() {
        // Below `WARM_START_MIN_DIM` the default config cold-solves every
        // node; the answer must match both a forced-warm and a forced-cold
        // tree on the same model.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..5)
            .map(|i| m.add_int_var(format!("x{i}"), 0.0, 4.0))
            .collect();
        for (i, &v) in vars.iter().enumerate() {
            m.set_objective_coef(v, 1.0 + (i as f64) * 0.9);
        }
        m.add_constraint(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 2) as f64))
                .collect::<Vec<_>>(),
            ConstraintOp::Le,
            9.4,
        );
        assert!(m.num_vars() + m.num_constraints() < WARM_START_MIN_DIM);
        let auto = BranchBound::default().solve(&m).unwrap();
        let forced_warm = BranchBound::default().solve_warm_from(&m, 0).unwrap();
        let forced_cold = BranchBound::new(BranchBoundConfig { warm_start: false })
            .solve(&m)
            .unwrap();
        assert_eq!(auto.status, Status::Optimal);
        for other in [&forced_warm, &forced_cold] {
            assert!(
                (auto.objective - other.objective).abs() < 1e-6,
                "auto {} vs {}",
                auto.objective,
                other.objective
            );
        }
    }

    #[test]
    fn matches_bruteforce_on_random_knapsacks() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for trial in 0..25 {
            let n = rng.gen_range(3..8);
            let profits: Vec<f64> = (0..n).map(|_| rng.gen_range(1..20) as f64).collect();
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1..10) as f64).collect();
            let cap = rng.gen_range(5..25) as f64;

            let mut m = Model::new(Sense::Maximize);
            let vars: Vec<_> = (0..n)
                .map(|i| m.add_int_var(format!("x{i}"), 0.0, 1.0))
                .collect();
            for (i, &v) in vars.iter().enumerate() {
                m.set_objective_coef(v, profits[i]);
            }
            m.add_constraint(
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| (v, weights[i]))
                    .collect::<Vec<_>>(),
                ConstraintOp::Le,
                cap,
            );
            let s = BranchBound::default().solve(&m).unwrap();

            // Brute force.
            let mut best = 0.0f64;
            for mask in 0u32..(1 << n) {
                let w: f64 = (0..n)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| weights[i])
                    .sum();
                if w <= cap {
                    let p: f64 = (0..n)
                        .filter(|i| mask >> i & 1 == 1)
                        .map(|i| profits[i])
                        .sum();
                    best = best.max(p);
                }
            }
            assert!(
                (s.objective - best).abs() < 1e-6,
                "trial {trial}: bb {} vs brute {best}",
                s.objective
            );
        }
    }
}
