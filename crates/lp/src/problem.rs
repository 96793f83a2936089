//! Problem builder: variables, bounds, linear constraints, objective.

use crate::error::LpError;

/// Handle to a variable in a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Min,
    /// Maximize the objective.
    Max,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

/// One linear constraint in sparse form.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// `(variable, coefficient)` terms; duplicate variables are summed.
    pub terms: Vec<(VarId, f64)>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
    /// Optional label for diagnostics.
    pub name: String,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Var {
    pub lower: f64,
    pub upper: f64,
    pub obj: f64,
    pub integer: bool,
    pub name: String,
}

/// A linear (or mixed-integer) program under construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    pub(crate) vars: Vec<Var>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) sense: Sense,
}

impl Problem {
    /// New empty problem with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Problem { vars: Vec::new(), constraints: Vec::new(), sense }
    }

    /// Optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a continuous variable with bounds `[lower, upper]` and objective
    /// coefficient `obj`. Use `f64::INFINITY` for an unbounded upper and
    /// `f64::NEG_INFINITY` for an unbounded lower.
    pub fn add_var(&mut self, name: impl Into<String>, lower: f64, upper: f64, obj: f64) -> VarId {
        self.vars.push(Var { lower, upper, obj, integer: false, name: name.into() });
        VarId(self.vars.len() - 1)
    }

    /// Add an integer variable with bounds `[lower, upper]`.
    pub fn add_int_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        obj: f64,
    ) -> VarId {
        let v = self.add_var(name, lower, upper, obj);
        self.vars[v.0].integer = true;
        v
    }

    /// Add a binary (0/1) variable.
    pub fn add_bin_var(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.add_int_var(name, 0.0, 1.0, obj)
    }

    /// Add a constraint.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: Vec<(VarId, f64)>,
        cmp: Cmp,
        rhs: f64,
    ) {
        self.constraints.push(Constraint { terms, cmp, rhs, name: name.into() });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// `[lower, upper]` of variable `v`.
    pub fn bounds(&self, v: VarId) -> (f64, f64) {
        (self.vars[v.0].lower, self.vars[v.0].upper)
    }

    /// Indices of the integer variables.
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.vars.iter().enumerate().filter(|(_, v)| v.integer).map(|(i, _)| VarId(i)).collect()
    }

    /// Validate the model: finite rhs/coefficients, bounds ordered and not
    /// NaN (an infinite bound only on its own side), ids in range.
    pub fn validate(&self) -> Result<(), LpError> {
        for (i, v) in self.vars.iter().enumerate() {
            // A NaN bound compares false both ways and is not finite: the
            // standard form would read it as "unbounded on that side".
            let unordered = v.lower.is_nan() || v.upper.is_nan() || v.lower > v.upper;
            if unordered || v.lower == f64::INFINITY || v.upper == f64::NEG_INFINITY {
                return Err(LpError::Model(format!(
                    "variable {} ('{}') has unusable bounds [{}, {}]",
                    i, v.name, v.lower, v.upper
                )));
            }
            if v.obj.is_nan() {
                return Err(LpError::Model(format!("variable {} has NaN objective", i)));
            }
        }
        for c in &self.constraints {
            if !c.rhs.is_finite() {
                return Err(LpError::Model(format!("constraint '{}' has non-finite rhs", c.name)));
            }
            for &(v, a) in &c.terms {
                if v.0 >= self.vars.len() {
                    return Err(LpError::Model(format!(
                        "constraint '{}' references unknown variable {}",
                        c.name, v.0
                    )));
                }
                if !a.is_finite() {
                    return Err(LpError::Model(format!(
                        "constraint '{}' has non-finite coefficient",
                        c.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Evaluate the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, &xi)| v.obj * xi).sum()
    }

    /// Check primal feasibility of a point within tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        for (v, &xi) in self.vars.iter().zip(x) {
            if xi < v.lower - tol || xi > v.upper + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v.0]).sum();
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut p = Problem::new(Sense::Max);
        let x = p.add_var("x", 0.0, 10.0, 3.0);
        let y = p.add_bin_var("y", 1.0);
        p.add_constraint("c0", vec![(x, 1.0), (y, 2.0)], Cmp::Le, 8.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.integer_vars(), vec![y]);
        assert!(p.validate().is_ok());
        assert_eq!(p.objective_value(&[2.0, 1.0]), 7.0);
    }

    #[test]
    fn feasibility_checker() {
        let mut p = Problem::new(Sense::Min);
        let x = p.add_var("x", 0.0, 5.0, 1.0);
        p.add_constraint("c", vec![(x, 2.0)], Cmp::Ge, 4.0);
        assert!(p.is_feasible(&[2.0], 1e-9));
        assert!(p.is_feasible(&[5.0], 1e-9));
        assert!(!p.is_feasible(&[1.0], 1e-9)); // violates c
        assert!(!p.is_feasible(&[6.0], 1e-9)); // violates bound
        assert!(!p.is_feasible(&[], 1e-9)); // wrong arity
    }

    #[test]
    fn validation_catches_errors() {
        let mut p = Problem::new(Sense::Min);
        let _ = p.add_var("x", 3.0, 1.0, 0.0);
        assert!(matches!(p.validate(), Err(LpError::Model(_))));

        for (lower, upper) in [
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
            (f64::INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::NEG_INFINITY),
        ] {
            let mut p = Problem::new(Sense::Min);
            let _ = p.add_var("bad", lower, upper, 0.0);
            let err = p.validate().expect_err("unusable bounds");
            assert!(matches!(&err, LpError::Model(m) if m.contains("'bad'")), "{err:?}");
        }

        let mut p2 = Problem::new(Sense::Min);
        let x = p2.add_var("x", 0.0, 1.0, 0.0);
        p2.add_constraint("bad", vec![(x, f64::NAN)], Cmp::Le, 1.0);
        assert!(matches!(p2.validate(), Err(LpError::Model(_))));

        let mut p3 = Problem::new(Sense::Min);
        p3.add_constraint("ghost", vec![(VarId(9), 1.0)], Cmp::Le, 1.0);
        assert!(matches!(p3.validate(), Err(LpError::Model(_))));
    }
}
