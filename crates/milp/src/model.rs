//! Modeling layer: variables, linear expressions, constraints, objective.

use crate::branch::{BranchBound, MipSolution, SolveLimits};
use crate::SolveError;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Handle to a variable of a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in the order of creation.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a constraint of a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstrId(pub(crate) usize);

impl ConstrId {
    /// Index of the constraint in the order of creation.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Domain of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
    /// Integer-valued in `{0, 1}` (bounds are clamped to `[0, 1]`).
    Binary,
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sense::Le => "<=",
            Sense::Ge => ">=",
            Sense::Eq => "==",
        })
    }
}

/// A linear expression `Σ coeff·var + constant`.
///
/// Built with operator overloads or collected from `(VarId, f64)` pairs:
///
/// ```
/// use swp_milp::{LinExpr, Model, VarKind};
/// let mut m = Model::new();
/// let x = m.add_var(VarKind::Continuous, 0.0, 1.0, "x");
/// let y = m.add_var(VarKind::Continuous, 0.0, 1.0, "y");
/// let e = LinExpr::term(x, 2.0) + LinExpr::term(y, -1.0) + 3.0;
/// assert_eq!(e.constant(), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The empty expression (zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// A single term `coeff·var`.
    pub fn term(var: VarId, coeff: f64) -> Self {
        LinExpr {
            terms: vec![(var, coeff)],
            constant: 0.0,
        }
    }

    /// Sum of `coeff·var` terms.
    pub fn sum<I: IntoIterator<Item = (VarId, f64)>>(terms: I) -> Self {
        LinExpr {
            terms: terms.into_iter().collect(),
            constant: 0.0,
        }
    }

    /// Adds `coeff·var` to the expression.
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut Self {
        self.terms.push((var, coeff));
        self
    }

    /// The additive constant.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// The terms, unmerged, in insertion order.
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// Merges duplicate variables and drops zero coefficients.
    ///
    /// Returns `(sorted merged terms, constant)`.
    pub fn compact(&self) -> (Vec<(VarId, f64)>, f64) {
        let mut terms = self.terms.clone();
        terms.sort_by_key(|&(v, _)| v);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| c != 0.0);
        (out, self.constant)
    }
}

impl FromIterator<(VarId, f64)> for LinExpr {
    fn from_iter<I: IntoIterator<Item = (VarId, f64)>>(iter: I) -> Self {
        LinExpr::sum(iter)
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

#[derive(Debug, Clone)]
pub(crate) struct VarInfo {
    pub kind: VarKind,
    pub lo: f64,
    pub hi: f64,
    pub name: String,
}

#[derive(Debug, Clone)]
pub(crate) struct Constr {
    pub terms: Vec<(VarId, f64)>,
    pub sense: Sense,
    pub rhs: f64,
}

/// A mixed-integer linear program.
///
/// Variables and constraints are added incrementally; [`Model::solve`]
/// runs branch-and-bound with default limits. The objective defaults to
/// minimizing `0` (pure feasibility).
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<VarInfo>,
    pub(crate) constrs: Vec<Constr>,
    pub(crate) obj: Vec<f64>,
    pub(crate) obj_constant: f64,
    pub(crate) maximize: bool,
}

impl Model {
    /// Creates an empty model (minimization by default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable and returns its handle.
    ///
    /// For [`VarKind::Binary`], bounds are intersected with `[0, 1]`.
    pub fn add_var(&mut self, kind: VarKind, lo: f64, hi: f64, name: impl Into<String>) -> VarId {
        let (lo, hi) = match kind {
            VarKind::Binary => (lo.max(0.0), hi.min(1.0)),
            _ => (lo, hi),
        };
        self.vars.push(VarInfo {
            kind,
            lo,
            hi,
            name: name.into(),
        });
        self.obj.push(0.0);
        VarId(self.vars.len() - 1)
    }

    /// Adds a binary variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(VarKind::Binary, 0.0, 1.0, name)
    }

    /// Adds a non-negative integer variable with upper bound `hi`.
    pub fn add_integer(&mut self, hi: f64, name: impl Into<String>) -> VarId {
        self.add_var(VarKind::Integer, 0.0, hi, name)
    }

    /// Sets the objective to minimize the given expression.
    pub fn minimize(&mut self, expr: impl IntoLinExpr) {
        self.set_objective(expr.into_lin_expr(), false);
    }

    /// Sets the objective to maximize the given expression.
    pub fn maximize(&mut self, expr: impl IntoLinExpr) {
        self.set_objective(expr.into_lin_expr(), true);
    }

    fn set_objective(&mut self, expr: LinExpr, maximize: bool) {
        self.obj = vec![0.0; self.vars.len()];
        let (terms, c) = expr.compact();
        for (v, coeff) in terms {
            self.obj[v.0] = coeff;
        }
        self.obj_constant = c;
        self.maximize = maximize;
    }

    /// Adds a linear constraint `expr sense rhs` and returns its handle.
    ///
    /// Any constant inside `expr` is moved to the right-hand side.
    pub fn add_constr(&mut self, expr: impl IntoLinExpr, sense: Sense, rhs: f64) -> ConstrId {
        let expr = expr.into_lin_expr();
        let (terms, c) = expr.compact();
        self.constrs.push(Constr {
            terms,
            sense,
            rhs: rhs - c,
        });
        ConstrId(self.constrs.len() - 1)
    }

    /// Tightens the lower bound of `var` to at least `lo`.
    pub fn set_lower_bound(&mut self, var: VarId, lo: f64) {
        let v = &mut self.vars[var.0];
        v.lo = v.lo.max(lo);
    }

    /// Tightens the upper bound of `var` to at most `hi`.
    pub fn set_upper_bound(&mut self, var: VarId, hi: f64) {
        let v = &mut self.vars[var.0];
        v.hi = v.hi.min(hi);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constrs(&self) -> usize {
        self.constrs.len()
    }

    /// `(lo, hi)` bounds of `var`.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        (self.vars[var.0].lo, self.vars[var.0].hi)
    }

    /// Checks structural validity (bound order, finite coefficients).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::BadModel`] describing the first defect found.
    pub fn validate(&self) -> Result<(), SolveError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lo > v.hi {
                return Err(SolveError::BadModel(format!(
                    "variable {} (`{}`) has lo {} > hi {}",
                    i, v.name, v.lo, v.hi
                )));
            }
            if v.lo.is_nan() || v.hi.is_nan() {
                return Err(SolveError::BadModel(format!(
                    "variable {} (`{}`) has NaN bound",
                    i, v.name
                )));
            }
        }
        for (i, c) in self.constrs.iter().enumerate() {
            if !c.rhs.is_finite() {
                return Err(SolveError::BadModel(format!(
                    "constraint {i} has non-finite rhs {}",
                    c.rhs
                )));
            }
            for &(v, coeff) in &c.terms {
                if !coeff.is_finite() {
                    return Err(SolveError::BadModel(format!(
                        "constraint {i} has non-finite coefficient on `{}`",
                        self.vars[v.0].name
                    )));
                }
            }
        }
        for &c in &self.obj {
            if !c.is_finite() {
                return Err(SolveError::BadModel(
                    "non-finite objective coefficient".into(),
                ));
            }
        }
        Ok(())
    }

    /// Evaluates whether `point` satisfies every constraint and bound
    /// within tolerance `tol`, ignoring integrality.
    pub fn is_feasible_point(&self, point: &[f64], tol: f64) -> bool {
        if point.len() != self.vars.len() {
            return false;
        }
        for (v, &x) in self.vars.iter().zip(point) {
            if x < v.lo - tol || x > v.hi + tol {
                return false;
            }
        }
        self.constrs.iter().all(|c| {
            let lhs: f64 = c.terms.iter().map(|&(v, co)| co * point[v.0]).sum();
            match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }

    /// Evaluates the objective at `point` (honoring the max/min direction
    /// as stated, i.e. the returned value is the stated objective).
    pub fn objective_value(&self, point: &[f64]) -> f64 {
        let v: f64 = self
            .obj
            .iter()
            .zip(point)
            .map(|(&c, &x)| c * x)
            .sum::<f64>()
            + self.obj_constant;
        v
    }

    /// The LP relaxation: the same model with every integer and binary
    /// variable re-kinded as continuous (bounds kept).
    pub fn relax(&self) -> Model {
        let mut out = self.clone();
        for v in &mut out.vars {
            v.kind = VarKind::Continuous;
        }
        out
    }

    /// Solves with default limits. See [`Model::solve_with`].
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the search: infeasible, unbounded,
    /// limit reached, or malformed model.
    pub fn solve(&self) -> Result<MipSolution, SolveError> {
        self.solve_with(&SolveLimits::default())
    }

    /// Solves under explicit limits.
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the search.
    pub fn solve_with(&self, limits: &SolveLimits) -> Result<MipSolution, SolveError> {
        self.validate()?;
        BranchBound::new(self, limits.clone()).run()
    }

    /// Solves under explicit limits and exports the root relaxation's
    /// terminal simplex basis (also on the infeasible path), for
    /// warm-starting the next closely-related model. See
    /// [`BranchBound::run_with_basis`].
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the search (first tuple slot).
    pub fn solve_with_basis(
        &self,
        limits: &SolveLimits,
    ) -> (
        Result<MipSolution, SolveError>,
        Option<crate::simplex::LpBasis>,
    ) {
        if let Err(e) = self.validate() {
            return (Err(e), None);
        }
        BranchBound::new(self, limits.clone()).run_with_basis()
    }

    /// Resolves a basis carried as variable **names** — exported by
    /// [`Model::basis_to_names`] from an earlier, possibly
    /// differently-shaped model — into this model's column space.
    /// Unknown names are dropped: the warm-start crash tolerates partial
    /// hints, so a T-sweep can hand the `T` basis to the `T+1` model
    /// even though row/column counts differ.
    pub fn basis_from_names<S: AsRef<str>>(&self, names: &[S]) -> crate::simplex::LpBasis {
        use std::collections::HashMap;
        let by_name: HashMap<&str, usize> = self
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.name.as_str(), i))
            .collect();
        let mut cols: Vec<usize> = names
            .iter()
            .filter_map(|n| by_name.get(n.as_ref()).copied())
            .collect();
        cols.sort_unstable();
        cols.dedup();
        crate::simplex::LpBasis { cols }
    }

    /// Renders a basis exported from **this** model as variable names,
    /// the representation that survives a model re-build at a different
    /// period. Out-of-range columns are skipped.
    pub fn basis_to_names(&self, basis: &crate::simplex::LpBasis) -> Vec<String> {
        basis
            .cols
            .iter()
            .filter(|&&j| j < self.vars.len())
            .map(|&j| self.vars[j].name.clone())
            .collect()
    }
}

/// Conversion into [`LinExpr`], accepted by the modeling entry points.
///
/// Implemented for `LinExpr`, `VarId`, and iterables of `(VarId, f64)`.
pub trait IntoLinExpr {
    /// Performs the conversion.
    fn into_lin_expr(self) -> LinExpr;
}

impl IntoLinExpr for LinExpr {
    fn into_lin_expr(self) -> LinExpr {
        self
    }
}

impl IntoLinExpr for VarId {
    fn into_lin_expr(self) -> LinExpr {
        LinExpr::term(self, 1.0)
    }
}

impl<const N: usize> IntoLinExpr for [(VarId, f64); N] {
    fn into_lin_expr(self) -> LinExpr {
        LinExpr::sum(self)
    }
}

impl IntoLinExpr for Vec<(VarId, f64)> {
    fn into_lin_expr(self) -> LinExpr {
        LinExpr::sum(self)
    }
}

impl IntoLinExpr for &[(VarId, f64)] {
    fn into_lin_expr(self) -> LinExpr {
        LinExpr::sum(self.iter().copied())
    }
}

impl From<LinExpr> for Vec<(VarId, f64)> {
    fn from(e: LinExpr) -> Self {
        e.compact().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_merges_and_drops_zeros() {
        let mut m = Model::new();
        let x = m.add_var(VarKind::Continuous, 0.0, 1.0, "x");
        let y = m.add_var(VarKind::Continuous, 0.0, 1.0, "y");
        let e = LinExpr::term(x, 2.0) + LinExpr::term(y, 1.0) + LinExpr::term(x, -2.0);
        let (terms, _) = e.compact();
        assert_eq!(terms, vec![(y, 1.0)]);
    }

    #[test]
    fn constraint_moves_constant_to_rhs() {
        let mut m = Model::new();
        let x = m.add_var(VarKind::Continuous, 0.0, 10.0, "x");
        let e = LinExpr::term(x, 1.0) + 5.0;
        m.add_constr(e, Sense::Le, 8.0);
        assert_eq!(m.constrs[0].rhs, 3.0);
    }

    #[test]
    fn binary_bounds_clamped() {
        let mut m = Model::new();
        let b = m.add_var(VarKind::Binary, -3.0, 7.0, "b");
        assert_eq!(m.bounds(b), (0.0, 1.0));
    }

    #[test]
    fn validate_rejects_crossed_bounds() {
        let mut m = Model::new();
        m.add_var(VarKind::Continuous, 2.0, 1.0, "x");
        assert!(matches!(m.validate(), Err(SolveError::BadModel(_))));
    }

    #[test]
    fn validate_rejects_nan() {
        let mut m = Model::new();
        let x = m.add_var(VarKind::Continuous, 0.0, 1.0, "x");
        m.add_constr([(x, f64::NAN)], Sense::Le, 1.0);
        assert!(matches!(m.validate(), Err(SolveError::BadModel(_))));
    }

    #[test]
    fn feasible_point_checks_all_senses() {
        let mut m = Model::new();
        let x = m.add_var(VarKind::Continuous, 0.0, 10.0, "x");
        m.add_constr([(x, 1.0)], Sense::Ge, 2.0);
        m.add_constr([(x, 1.0)], Sense::Le, 4.0);
        m.add_constr([(x, 2.0)], Sense::Eq, 6.0);
        assert!(m.is_feasible_point(&[3.0], 1e-9));
        assert!(!m.is_feasible_point(&[4.0], 1e-9));
        assert!(!m.is_feasible_point(&[1.0], 1e-9));
    }

    #[test]
    fn expression_operators() {
        let mut m = Model::new();
        let x = m.add_var(VarKind::Continuous, 0.0, 1.0, "x");
        let y = m.add_var(VarKind::Continuous, 0.0, 1.0, "y");
        let e = (LinExpr::from(x) - LinExpr::from(y)) * 3.0;
        let (terms, _) = e.compact();
        assert_eq!(terms, vec![(x, 3.0), (y, -3.0)]);
        let n = -LinExpr::term(x, 1.5);
        assert_eq!(n.terms()[0].1, -1.5);
    }
}
