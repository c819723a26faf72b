//! The modelling layer: variables, linear expressions, constraints.

use crate::LpError;
use serde::{Deserialize, Serialize};

/// Handle to a decision variable of a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Reconstructs a handle from a dense index (variables are numbered in
    /// declaration order).
    pub fn from_index(index: usize) -> Self {
        VarId(index as u32)
    }

    /// Index of the variable inside its model.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a constraint of a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConstraintId(pub(crate) u32);

impl ConstraintId {
    /// Reconstructs a handle from a dense index (constraints are numbered
    /// in insertion order; useful when iterating `Solution::duals`).
    pub fn from_index(index: usize) -> Self {
        ConstraintId(index as u32)
    }

    /// Index of the constraint inside its model.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConstraintOp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// Maximise the objective.
    Maximize,
    /// Minimise the objective.
    Minimize,
}

/// A linear expression as a sparse list of `(variable, coefficient)` terms.
/// Repeated variables are allowed; they are summed during lowering.
pub type LinExpr = Vec<(VarId, f64)>;

#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct Variable {
    pub name: String,
    pub lo: f64,
    pub up: f64,
    pub obj: f64,
    pub integer: bool,
}

clone_in_place!(Variable {
    name,
    lo,
    up,
    obj,
    integer
});

#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct Constraint {
    pub terms: LinExpr,
    pub op: ConstraintOp,
    pub rhs: f64,
}

clone_in_place!(Constraint { terms, op, rhs });

/// A linear (or mixed-integer, when variables are marked integral) program.
///
/// Variables carry bounds `lo ≤ x ≤ up` (`lo` must be finite — every
/// variable of the divisible-load formulation is non-negative; free
/// variables can be modelled as a difference of two). Constraints are
/// `Σ aᵢxᵢ {≤,≥,=} b` with finite coefficients and right-hand side.
#[derive(Debug, Serialize, Deserialize)]
pub struct Model {
    sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) cons: Vec<Constraint>,
}

clone_in_place!(Model { sense, vars, cons });

impl Model {
    /// Creates an empty model with the given optimisation sense.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            cons: Vec::new(),
        }
    }

    /// Optimisation direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a continuous variable with bounds `[lo, up]` (`up` may be
    /// `f64::INFINITY`) and zero objective coefficient.
    pub fn add_var(&mut self, name: impl Into<String>, lo: f64, up: f64) -> VarId {
        debug_assert!(lo.is_finite(), "lower bounds must be finite");
        debug_assert!(!up.is_nan());
        let id = VarId(self.vars.len() as u32);
        self.vars.push(Variable {
            name: name.into(),
            lo,
            up,
            obj: 0.0,
            integer: false,
        });
        id
    }

    /// Adds an integer variable with bounds `[lo, up]`.
    pub fn add_int_var(&mut self, name: impl Into<String>, lo: f64, up: f64) -> VarId {
        let id = self.add_var(name, lo, up);
        self.vars[id.index()].integer = true;
        id
    }

    /// Sets the objective coefficient of `var`.
    pub fn set_objective_coef(&mut self, var: VarId, coef: f64) {
        self.vars[var.index()].obj = coef;
    }

    /// Adds `coef` to the objective coefficient of `var`.
    pub fn add_objective_coef(&mut self, var: VarId, coef: f64) {
        self.vars[var.index()].obj += coef;
    }

    /// Adds the constraint `terms {op} rhs` and returns its handle.
    pub fn add_constraint(&mut self, terms: LinExpr, op: ConstraintOp, rhs: f64) -> ConstraintId {
        debug_assert!(rhs.is_finite());
        debug_assert!(terms.iter().all(|(_, c)| c.is_finite()));
        let id = ConstraintId(self.cons.len() as u32);
        self.cons.push(Constraint { terms, op, rhs });
        id
    }

    /// Replaces the right-hand side of an existing constraint (used by the
    /// randomized-rounding heuristic when re-solving with fixed β values).
    pub fn set_rhs(&mut self, con: ConstraintId, rhs: f64) {
        self.cons[con.index()].rhs = rhs;
    }

    /// Right-hand side of a constraint.
    pub fn rhs(&self, con: ConstraintId) -> f64 {
        self.cons[con.index()].rhs
    }

    /// Replaces the coefficient of `var` in an existing constraint (merging
    /// any duplicate terms first). A zero coefficient removes the term; a
    /// nonzero coefficient on a variable the row never mentioned adds one.
    /// Used by the warm-started LP pipeline to apply formulation deltas in
    /// place instead of rebuilding the model.
    pub fn set_coefficient(&mut self, con: ConstraintId, var: VarId, coef: f64) {
        debug_assert!(coef.is_finite());
        let terms = &mut self.cons[con.index()].terms;
        terms.retain(|&(v, _)| v != var);
        if coef != 0.0 {
            terms.push((var, coef));
        }
    }

    /// Current coefficient of `var` in a constraint (duplicate terms summed,
    /// 0.0 when the row does not mention the variable).
    pub fn coefficient(&self, con: ConstraintId, var: VarId) -> f64 {
        self.cons[con.index()]
            .terms
            .iter()
            .filter(|&&(v, _)| v == var)
            .map(|&(_, a)| a)
            .sum()
    }

    /// Tightens the bounds of a variable (used by branch-and-bound).
    pub fn set_bounds(&mut self, var: VarId, lo: f64, up: f64) {
        let v = &mut self.vars[var.index()];
        v.lo = lo;
        v.up = up;
    }

    /// Current bounds of a variable.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        let v = &self.vars[var.index()];
        (v.lo, v.up)
    }

    /// Marks / unmarks a variable as integral.
    pub fn set_integer(&mut self, var: VarId, integer: bool) {
        self.vars[var.index()].integer = integer;
    }

    /// `true` iff the variable is integer-constrained.
    pub fn is_integer(&self, var: VarId) -> bool {
        self.vars[var.index()].integer
    }

    /// Releases the spare capacity that building the model left in its
    /// buffers (growth slack of the variable and constraint lists, of
    /// pushed-to term lists and of formatted names). Contents are unchanged.
    pub(crate) fn shrink_to_fit(&mut self) {
        for v in &mut self.vars {
            v.name.shrink_to_fit();
        }
        self.vars.shrink_to_fit();
        for c in &mut self.cons {
            c.terms.shrink_to_fit();
        }
        self.cons.shrink_to_fit();
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.cons.len()
    }

    /// Number of variables with a finite upper bound (each costs one extra
    /// row in standard form).
    pub fn num_upper_bounded_vars(&self) -> usize {
        self.vars.iter().filter(|v| v.up.is_finite()).count()
    }

    /// All variable ids in declaration order.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len() as u32).map(VarId)
    }

    /// Ids of all integer-constrained variables.
    pub fn integer_vars(&self) -> Vec<VarId> {
        (0..self.vars.len() as u32)
            .map(VarId)
            .filter(|v| self.vars[v.index()].integer)
            .collect()
    }

    /// Objective value of an assignment (no feasibility check).
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.vars.iter().zip(values).map(|(v, &x)| v.obj * x).sum()
    }

    /// Checks an assignment against bounds and constraints with tolerance
    /// `tol`; returns the first violation description, if any.
    pub fn check_feasible(&self, values: &[f64], tol: f64) -> Result<(), String> {
        if values.len() != self.vars.len() {
            return Err(format!(
                "assignment has {} values for {} variables",
                values.len(),
                self.vars.len()
            ));
        }
        for (j, v) in self.vars.iter().enumerate() {
            let x = values[j];
            if x < v.lo - tol || x > v.up + tol {
                return Err(format!(
                    "variable {} = {x} outside [{}, {}]",
                    v.name, v.lo, v.up
                ));
            }
        }
        for (i, c) in self.cons.iter().enumerate() {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * values[v.index()]).sum();
            // Scale tolerance with the magnitude of the row to stay fair on
            // large right-hand sides.
            let scale = 1.0 + c.rhs.abs() + c.terms.iter().map(|(_, a)| a.abs()).sum::<f64>();
            let t = tol * scale;
            let ok = match c.op {
                ConstraintOp::Le => lhs <= c.rhs + t,
                ConstraintOp::Ge => lhs >= c.rhs - t,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= t,
            };
            if !ok {
                return Err(format!(
                    "constraint {i}: lhs {lhs} {:?} rhs {} violated",
                    c.op, c.rhs
                ));
            }
        }
        Ok(())
    }

    /// Validates the model itself (finite data, non-empty domains).
    pub fn validate(&self) -> Result<(), LpError> {
        for (j, v) in self.vars.iter().enumerate() {
            if !v.lo.is_finite() || v.up.is_nan() || !v.obj.is_finite() {
                return Err(LpError::NotFinite("variable data"));
            }
            if v.lo > v.up {
                return Err(LpError::EmptyDomain {
                    var: j,
                    lo: v.lo,
                    up: v.up,
                });
            }
        }
        for c in &self.cons {
            if !c.rhs.is_finite() {
                return Err(LpError::NotFinite("constraint rhs"));
            }
            for &(v, a) in &c.terms {
                if v.index() >= self.vars.len() {
                    return Err(LpError::BadVariable);
                }
                if !a.is_finite() {
                    return Err(LpError::NotFinite("constraint coefficient"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 5.0);
        let y = m.add_int_var("y", 0.0, f64::INFINITY);
        m.set_objective_coef(x, 2.0);
        m.add_objective_coef(x, 1.0);
        let c = m.add_constraint(vec![(x, 1.0), (y, 2.0)], ConstraintOp::Le, 10.0);

        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.num_upper_bounded_vars(), 1);
        assert!(m.is_integer(y));
        assert!(!m.is_integer(x));
        assert_eq!(m.integer_vars(), vec![y]);
        assert_eq!(m.rhs(c), 10.0);
        assert_eq!(m.objective_value(&[2.0, 3.0]), 6.0);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn feasibility_checker() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0);
        m.add_constraint(vec![(x, 2.0)], ConstraintOp::Ge, 1.0);
        assert!(m.check_feasible(&[0.6], 1e-9).is_ok());
        assert!(m.check_feasible(&[0.2], 1e-9).is_err());
        assert!(m.check_feasible(&[1.5], 1e-9).is_err());
        assert!(m.check_feasible(&[], 1e-9).is_err());
    }

    #[test]
    fn validate_rejects_empty_domain() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 2.0, 1.0);
        let _ = x;
        assert!(matches!(m.validate(), Err(LpError::EmptyDomain { .. })));
    }

    #[test]
    fn coefficient_update() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0);
        // Duplicate terms: coefficient() sums, set_coefficient() merges.
        let c = m.add_constraint(vec![(x, 1.0), (x, 2.0)], ConstraintOp::Le, 6.0);
        assert_eq!(m.coefficient(c, x), 3.0);
        assert_eq!(m.coefficient(c, y), 0.0);
        m.set_coefficient(c, x, 5.0);
        assert_eq!(m.coefficient(c, x), 5.0);
        m.set_coefficient(c, y, -1.0);
        assert_eq!(m.coefficient(c, y), -1.0);
        m.set_coefficient(c, x, 0.0);
        assert_eq!(m.coefficient(c, x), 0.0);
        assert_eq!(m.cons[c.index()].terms.len(), 1);
    }

    #[test]
    fn bounds_update() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 5.0);
        m.set_bounds(x, 1.0, 3.0);
        assert_eq!(m.bounds(x), (1.0, 3.0));
    }
}
