//! Branch-and-bound search for mixed-integer models.
//!
//! Depth-first search over LP relaxations solved by [`crate::simplex`].
//! The relaxation's tableau is built once; each node applies its bounds
//! to the current basis and re-solves it in place by dual simplex, so a
//! node costs the pivots it needs and nothing more. Branching picks the
//! most fractional integer variable; the child whose branch is nearer the
//! LP value is explored first.
//!
//! One primal heuristic rides along: a fix-and-propagate completion. At
//! a node whose LP point has every binary column integral but some
//! general integer fractional, it fixes the binaries at their LP values,
//! propagates the other columns' bounds (activity-based, with integer
//! rounding) to a fixpoint over the rows that hold a non-binary column,
//! and offers the point with every such column at its lower bound. On
//! the scheduling models in `swp-core` the rows left once the residues
//! `a_{t,i}` are fixed are difference constraints, so that point is the
//! earliest placement `t_i = T·k_i + r_i` the dependences allow, and
//! the search need not branch on the stage counts `k_i` to find it. The
//! point becomes an incumbent only if it passes the same check as an
//! integral leaf; the tree and its pruning are otherwise unchanged.
//! Propagation spends ticks at the simplex's rate: one per pivot's worth
//! of tableau entries.

use crate::budget::{Budget, Exhaustion};
use crate::model::{Model, Sense, VarKind};
use crate::simplex::{Lp, LpBasis, LpOutcome, LpProblem, PivotLayout, FEAS_TOL};
use crate::SolveError;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Integrality tolerance: an LP value within this of an integer counts
/// as integral.
pub const INT_TOL: f64 = 1e-6;

/// Search limits for [`Model::solve_with`].
#[derive(Debug, Clone, Default)]
pub struct SolveLimits {
    /// Wall-clock budget for the whole search, folded into
    /// [`budget`](Self::budget)'s deadline when the search starts.
    pub time_limit: Option<Duration>,
    /// Stop as soon as any integer-feasible point is found.
    ///
    /// The scheduling driver uses this: at a fixed initiation interval it
    /// only needs feasibility, not the objective optimum.
    pub stop_at_first_incumbent: bool,
    /// Shared solve budget: wall-clock deadline, deterministic tick cap,
    /// and cooperative cancellation (default: unlimited). One tick is
    /// spent per simplex iteration and every node LP spends at least one,
    /// so the cap bounds total work and the node count across the tree;
    /// the cancel token stops the search within one check
    /// interval with [`SolveError::Cancelled`].
    pub budget: Budget,
    /// Optional basis hint for the **root** relaxation, typically
    /// exported from a closely related earlier solve (the previous
    /// period of a T-sweep, or the pre-edit instance). Its columns are
    /// crashed into the starting basis in place of slacks and the
    /// simplex runs to completion from there, so the hint can never
    /// change the verdict — only the pivot count (default: none).
    pub warm_basis: Option<LpBasis>,
    /// Inert: [`PivotLayout`] has the single variant
    /// [`PivotLayout::SparseRow`], which every node LP uses. The field
    /// stays so callers that set it explicitly still compile.
    pub pivot_layout: PivotLayout,
}

impl SolveLimits {
    /// Limits suitable for a feasibility probe with a wall-clock budget.
    pub fn feasibility(time_limit: Duration) -> Self {
        SolveLimits {
            time_limit: Some(time_limit),
            stop_at_first_incumbent: true,
            ..Self::default()
        }
    }
}

/// Why a branch-and-bound search stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StopReason {
    /// The tree was exhausted: the answer is exact.
    #[default]
    Exhausted,
    /// `stop_at_first_incumbent` fired.
    FirstIncumbent,
    /// The shared [`Budget`] tripped (deadline — including
    /// [`SolveLimits::time_limit`] — tick cap, or cancel).
    Budget(Exhaustion),
}

/// Counters describing a finished (or truncated) search.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Nodes explored (LPs solved, excluding heuristic probes).
    pub nodes: u64,
    /// Total simplex iterations across all node LPs.
    pub lp_iterations: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Whether optimality was proven (search exhausted, not truncated).
    pub proven_optimal: bool,
    /// What ended the search.
    pub stop_reason: StopReason,
}

/// An integer-feasible solution of a [`Model`].
#[derive(Debug, Clone)]
pub struct MipSolution {
    values: Vec<f64>,
    objective: f64,
    stats: SearchStats,
}

impl MipSolution {
    /// Value of `var` in the solution.
    pub fn value(&self, var: crate::VarId) -> f64 {
        self.values[var.index()]
    }

    /// Value of `var` rounded to the nearest integer.
    pub fn value_int(&self, var: crate::VarId) -> i64 {
        self.values[var.index()].round() as i64
    }

    /// All variable values in creation order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Objective value in the model's stated direction.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Search counters.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Whether the search proved this solution optimal.
    pub fn is_proven_optimal(&self) -> bool {
        self.stats.proven_optimal
    }
}

struct Node {
    lo: Vec<f64>,
    hi: Vec<f64>,
    depth: usize,
}

/// The branch-and-bound engine. Most callers use [`Model::solve`] /
/// [`Model::solve_with`] instead of driving this directly.
pub struct BranchBound<'a> {
    model: &'a Model,
    limits: SolveLimits,
    /// Indices of integer/binary variables.
    int_vars: Vec<usize>,
    /// The root relaxation: the minimization objective (negated if the
    /// model maximizes), the rows, and the root bounds (integer bounds
    /// rounded inward).
    root: LpProblem,
    /// The fix-and-propagate completion's row index.
    completion: Completion,
}

/// Tolerance at which an incumbent must satisfy every row and bound.
const INCUMBENT_TOL: f64 = 1e-5;

impl<'a> BranchBound<'a> {
    /// Prepares a search over `model` with the given `limits`; the
    /// search's wall clock starts here.
    pub fn new(model: &'a Model, mut limits: SolveLimits) -> Self {
        limits.budget = limits.budget.restrict(limits.time_limit, None);
        let int_vars: Vec<usize> = model
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind != VarKind::Continuous)
            .map(|(i, _)| i)
            .collect();
        let rows: Vec<_> = model
            .constrs
            .iter()
            .map(|c| {
                (
                    c.terms.iter().map(|&(v, co)| (v.index(), co)).collect(),
                    c.sense,
                    c.rhs,
                )
            })
            .collect();
        let sign = if model.maximize { -1.0 } else { 1.0 };
        let obj = model.obj.iter().map(|&c| sign * c).collect();
        let mut lo: Vec<f64> = model.vars.iter().map(|v| v.lo).collect();
        let mut hi: Vec<f64> = model.vars.iter().map(|v| v.hi).collect();
        for &j in &int_vars {
            if lo[j].is_finite() {
                lo[j] = (lo[j] - INT_TOL).ceil();
            }
            if hi[j].is_finite() {
                hi[j] = (hi[j] + INT_TOL).floor();
            }
        }
        let root = LpProblem { obj, rows, lo, hi };
        let completion = Completion::new(model, &root);
        BranchBound {
            model,
            limits,
            int_vars,
            root,
            completion,
        }
    }

    /// Makes `x` the incumbent if it beats the current one and satisfies
    /// every row and bound; returns whether it did.
    fn offer(&self, incumbent: &mut Option<(Vec<f64>, f64)>, x: Vec<f64>) -> bool {
        let obj = self.min_objective(&x);
        let better = incumbent.as_ref().is_none_or(|(_, inc)| obj < *inc - 1e-9);
        let accepted = better && self.model.is_feasible_point(&x, INCUMBENT_TOL);
        if accepted {
            *incumbent = Some((x, obj));
        }
        accepted
    }

    /// Minimization objective of a point.
    fn min_objective(&self, x: &[f64]) -> f64 {
        self.root.obj.iter().zip(x).map(|(&c, &v)| c * v).sum()
    }

    /// Stated-direction objective from a minimization objective value.
    fn stated(&self, min_obj: f64) -> f64 {
        let v = if self.model.maximize {
            -min_obj
        } else {
            min_obj
        };
        v + self.model.obj_constant
    }

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] if no integer point exists,
    /// [`SolveError::Unbounded`] if the root relaxation is unbounded,
    /// [`SolveError::LimitReached`] if the budget (its deadline, the
    /// time limit, or its tick cap) tripped before any integer-feasible
    /// point was found,
    /// [`SolveError::Cancelled`] if the budget's cancel token fired, and
    /// [`SolveError::Numerical`] if a node LP stalled. If the budget
    /// trips *after* an incumbent was found, that
    /// incumbent is returned with `proven_optimal == false` and the
    /// tripping limit in [`SearchStats::stop_reason`].
    pub fn run(self) -> Result<MipSolution, SolveError> {
        self.run_with_basis().0
    }

    /// Runs the search and additionally exports the **root** relaxation's
    /// terminal simplex basis, which is the natural warm-start hint for
    /// the next closely-related model (T+1 of a sweep, or a re-solve
    /// after a DDG edit). The basis is exported on the infeasible path
    /// too — refuted periods are exactly where the next period's warm
    /// start pays.
    ///
    /// # Errors
    ///
    /// As [`BranchBound::run`]; the error sits in the first tuple slot.
    pub fn run_with_basis(self) -> (Result<MipSolution, SolveError>, Option<LpBasis>) {
        let mut root_basis: Option<LpBasis> = None;
        let start = Instant::now();
        let budget = &self.limits.budget;
        let mut stack = vec![Node {
            lo: self.root.lo.clone(),
            hi: self.root.hi.clone(),
            depth: 0,
        }];
        let mut incumbent: Option<(Vec<f64>, f64)> = None; // (x, min-objective)
        let mut stats = SearchStats::default();
        let mut truncated = false;
        // One tableau for the whole search. The caller's hint (if any) is
        // crashed into the root basis; `None` means the root bounds cross.
        let mut lp = Lp::new(&self.root);
        let crashed = match (&mut lp, &self.limits.warm_basis) {
            (Some(lp), Some(hint)) => lp.crash(hint, budget).map(|_| ()),
            _ => Ok(()),
        };

        'search: while let Some(node) = stack.pop() {
            // Full budget check at every node boundary so cancellation is
            // honoured promptly even when node LPs are tiny.
            match budget.check() {
                Ok(()) => {}
                Err(Exhaustion::Cancelled) => return (Err(SolveError::Cancelled), root_basis),
                Err(e) => {
                    truncated = true;
                    stats.stop_reason = StopReason::Budget(e);
                    break;
                }
            }
            stats.nodes += 1;

            // Every node LP spends at least one tick, crossed bounds
            // included, so a tick cap bounds the node count.
            let lp_result = match (lp.as_mut(), &crashed) {
                (_, Err(e)) => Err(e.clone()),
                (Some(lp), Ok(())) => match lp.set_bounds(&node.lo, &node.hi) {
                    true => lp.solve(budget),
                    false => crossed(budget),
                },
                (None, Ok(())) => crossed(budget),
            };
            if let (0, Some(lp), Ok(_)) = (node.depth, &lp, &lp_result) {
                root_basis = Some(lp.basis());
            }
            let sol = match lp_result {
                Ok(LpOutcome::Optimal(s)) => s,
                Ok(LpOutcome::Infeasible) => continue,
                Ok(LpOutcome::Unbounded) => {
                    // An unbounded relaxation (with or without integer
                    // variables) means the MIP is unbounded or needs a
                    // bound; report it.
                    return (Err(SolveError::Unbounded), root_basis);
                }
                Err(SolveError::Cancelled) => return (Err(SolveError::Cancelled), root_basis),
                Err(SolveError::LimitReached(_)) => {
                    // Budget tripped mid-LP: keep whatever incumbent we have.
                    truncated = true;
                    stats.stop_reason = StopReason::Budget(
                        // Distinguish deadline from ticks for the log; a
                        // second check cannot un-trip.
                        budget.check().err().unwrap_or(Exhaustion::Deadline),
                    );
                    break;
                }
                Err(e) => return (Err(e), root_basis),
            };
            stats.lp_iterations += sol.iterations as u64;

            // Bound pruning.
            if let Some((_, inc)) = &incumbent {
                if sol.objective >= *inc - 1e-9 {
                    continue;
                }
            }

            // Most fractional integer variable.
            let mut branch_var = None;
            let mut best_frac = INT_TOL;
            let mut binaries_integral = true;
            for &j in &self.int_vars {
                let x = sol.x[j];
                let frac = (x - x.round()).abs();
                if frac > INT_TOL && self.completion.binary[j] {
                    binaries_integral = false;
                }
                if frac > best_frac {
                    best_frac = frac;
                    branch_var = Some(j);
                }
            }

            match branch_var {
                None => {
                    // Integer feasible: snap and accept.
                    let mut x = sol.x.clone();
                    for &j in &self.int_vars {
                        x[j] = x[j].round();
                    }
                    if self.offer(&mut incumbent, x) && self.limits.stop_at_first_incumbent {
                        truncated = true;
                        stats.stop_reason = StopReason::FirstIncumbent;
                        break 'search;
                    }
                }
                Some(j) => {
                    if binaries_integral {
                        match self.completion.complete(&self.root, &sol.x, &node, budget) {
                            Ok(Some(y)) => {
                                if self.offer(&mut incumbent, y)
                                    && self.limits.stop_at_first_incumbent
                                {
                                    truncated = true;
                                    stats.stop_reason = StopReason::FirstIncumbent;
                                    break 'search;
                                }
                            }
                            Ok(None) => {}
                            Err(Exhaustion::Cancelled) => {
                                return (Err(SolveError::Cancelled), root_basis)
                            }
                            Err(e) => {
                                truncated = true;
                                stats.stop_reason = StopReason::Budget(e);
                                break;
                            }
                        }
                        // Bound pruning again, against a completed incumbent.
                        if let Some((_, inc)) = &incumbent {
                            if sol.objective >= *inc - 1e-9 {
                                continue;
                            }
                        }
                    }
                    let x = sol.x[j];
                    let down = x.floor();
                    let up = x.ceil();
                    let mut child_down = Node {
                        lo: node.lo.clone(),
                        hi: node.hi.clone(),
                        depth: node.depth + 1,
                    };
                    child_down.hi[j] = child_down.hi[j].min(down);
                    let mut child_up = Node {
                        lo: node.lo,
                        hi: node.hi,
                        depth: node.depth + 1,
                    };
                    child_up.lo[j] = child_up.lo[j].max(up);
                    // Explore the branch nearer the LP value first (LIFO).
                    if x - down <= up - x {
                        stack.push(child_up);
                        stack.push(child_down);
                    } else {
                        stack.push(child_down);
                        stack.push(child_up);
                    }
                }
            }
        }

        stats.elapsed = start.elapsed();
        stats.proven_optimal = !truncated;
        let result = match incumbent {
            Some((x, obj)) => Ok(MipSolution {
                objective: self.stated(obj),
                values: x,
                stats,
            }),
            None if truncated => Err(SolveError::LimitReached(None)),
            None => Err(SolveError::Infeasible),
        };
        (result, root_basis)
    }
}

/// The fix-and-propagate completion's index over a model's rows.
struct Completion {
    /// Whether each column is binary.
    binary: Vec<bool>,
    /// Whether each column is integer (binary or general).
    integer: Vec<bool>,
    /// The rows that hold a non-binary column: once the binaries are
    /// fixed, only these can move a bound.
    rows: Vec<usize>,
    /// Column → rows index over `rows`: column `j` sits in rows
    /// `col_rows[col_start[j]..col_start[j + 1]]` (none for binaries).
    col_start: Vec<usize>,
    col_rows: Vec<usize>,
    /// Passes after which propagation gives up on reaching a fixpoint.
    max_passes: usize,
    /// Term visits one tick buys: the `m × (n + m)` entries of the
    /// tableau `B⁻¹[A | I]` that a simplex pivot updates, so a tick of
    /// propagation is no more work than a tick of simplex.
    terms_per_tick: usize,
    /// Term visits not yet paid for, carried from one completion to the
    /// next.
    unpaid: Cell<usize>,
}

impl Completion {
    fn new(model: &Model, root: &LpProblem) -> Self {
        let binary: Vec<bool> = model
            .vars
            .iter()
            .map(|v| v.kind == VarKind::Binary)
            .collect();
        let integer = model
            .vars
            .iter()
            .map(|v| v.kind != VarKind::Continuous)
            .collect();
        let mut degree = vec![0usize; binary.len()];
        let mut rows = Vec::new();
        for (r, (terms, _, _)) in root.rows.iter().enumerate() {
            let mut any = false;
            for &(j, _) in terms {
                if !binary[j] {
                    degree[j] += 1;
                    any = true;
                }
            }
            if any {
                rows.push(r);
            }
        }
        let mut col_start = vec![0; binary.len() + 1];
        for (j, &d) in degree.iter().enumerate() {
            col_start[j + 1] = col_start[j] + d;
        }
        let mut fill = col_start.clone();
        let mut col_rows = vec![0; fill[binary.len()]];
        for &r in &rows {
            for &(j, _) in &root.rows[r].0 {
                if !binary[j] {
                    col_rows[fill[j]] = r;
                    fill[j] += 1;
                }
            }
        }
        let general = binary.iter().filter(|&&b| !b).count();
        Completion {
            binary,
            integer,
            rows,
            col_start,
            col_rows,
            max_passes: 2 * general + 8,
            terms_per_tick: (root.rows.len() * (root.obj.len() + root.rows.len())).max(1),
            unpaid: Cell::new(0),
        }
    }

    /// Completes the LP point `x`, whose binary columns are integral, at
    /// `node`: fixes the binaries, propagates the other columns' bounds
    /// to a fixpoint, and returns the point with each of them at its
    /// lower bound. Only rows holding a column whose bound moved are
    /// revisited. `None` when a domain empties, a lower bound stays
    /// infinite, or no fixpoint is reached within the pass cap. The
    /// point is not checked against the rows here.
    ///
    /// Spends a tick per pivot's worth of term visits.
    fn complete(
        &self,
        root: &LpProblem,
        x: &[f64],
        node: &Node,
        budget: &Budget,
    ) -> Result<Option<Vec<f64>>, Exhaustion> {
        let (mut lo, mut hi) = (node.lo.clone(), node.hi.clone());
        for (j, _) in self.binary.iter().enumerate().filter(|&(_, &b)| b) {
            lo[j] = x[j].round();
            hi[j] = lo[j];
        }
        let mut queued = vec![false; root.rows.len()];
        for &r in &self.rows {
            queued[r] = true;
        }
        let mut pass = self.rows.clone();
        let mut next = Vec::new();
        let mut changed = Vec::new();
        let mut passes = 0;
        while !pass.is_empty() {
            if passes == self.max_passes {
                return Ok(None);
            }
            passes += 1;
            for &r in &pass {
                queued[r] = false;
                let (terms, sense, rhs) = &root.rows[r];
                self.pay(terms.len(), budget)?;
                if !self.tighten(terms, *sense, *rhs, &mut lo, &mut hi, &mut changed) {
                    return Ok(None);
                }
                for j in changed.drain(..) {
                    for &r2 in &self.col_rows[self.col_start[j]..self.col_start[j + 1]] {
                        if !queued[r2] {
                            queued[r2] = true;
                            next.push(r2);
                        }
                    }
                }
            }
            std::mem::swap(&mut pass, &mut next);
            next.clear();
        }
        Ok(lo.iter().all(|v| v.is_finite()).then_some(lo))
    }

    /// Counts `terms` term visits, spending a tick each time
    /// `terms_per_tick` of them have accrued.
    fn pay(&self, terms: usize, budget: &Budget) -> Result<(), Exhaustion> {
        let mut unpaid = self.unpaid.get() + terms;
        while unpaid >= self.terms_per_tick {
            unpaid -= self.terms_per_tick;
            budget.tick()?;
        }
        self.unpaid.set(unpaid);
        Ok(())
    }

    /// Tightens the non-binary columns of one row `Σ a_j·x_j (sense) rhs`
    /// from the activity bounds of the rest of the row, rounding integer
    /// columns inward, and pushes each column it moves onto `changed`.
    /// Returns `false` if a domain empties.
    fn tighten(
        &self,
        terms: &[(usize, f64)],
        sense: Sense,
        rhs: f64,
        lo: &mut [f64],
        hi: &mut [f64],
        changed: &mut Vec<usize>,
    ) -> bool {
        // Each term's least and greatest contribution.
        let span = |j: usize, a: f64, lo: &[f64], hi: &[f64]| {
            if a > 0.0 {
                (a * lo[j], a * hi[j])
            } else {
                (a * hi[j], a * lo[j])
            }
        };
        // Activity bounds as (finite sum, count of infinite terms).
        let (mut min_sum, mut min_inf, mut max_sum, mut max_inf) = (0.0, 0, 0.0, 0);
        for &(j, a) in terms {
            let (l, h) = span(j, a, lo, hi);
            match l.is_finite() {
                true => min_sum += l,
                false => min_inf += 1,
            }
            match h.is_finite() {
                true => max_sum += h,
                false => max_inf += 1,
            }
        }
        // The activity of the row without one term, when finite.
        let rest = |sum: f64, inf: usize, own: f64| match (inf, own.is_finite()) {
            (0, _) => Some(sum - own),
            (1, false) => Some(sum),
            _ => None,
        };
        for &(j, a) in terms {
            if self.binary[j] || a == 0.0 {
                continue;
            }
            let (l, h) = span(j, a, lo, hi);
            // `a·x_j ≤ rhs − min(rest)` for ≤ rows, `a·x_j ≥ rhs − max(rest)` for ≥.
            let upper = rest(min_sum, min_inf, l)
                .filter(|_| sense != Sense::Ge)
                .map(|r| (rhs - r) / a);
            let lower = rest(max_sum, max_inf, h)
                .filter(|_| sense != Sense::Le)
                .map(|r| (rhs - r) / a);
            let (new_lo, new_hi) = if a > 0.0 {
                (lower, upper)
            } else {
                (upper, lower)
            };
            let mut moved = false;
            if let Some(b) = new_lo {
                let b = if self.integer[j] {
                    (b - INT_TOL).ceil()
                } else {
                    b
                };
                if b > lo[j] + FEAS_TOL {
                    lo[j] = b;
                    moved = true;
                }
            }
            if let Some(b) = new_hi {
                let b = if self.integer[j] {
                    (b + INT_TOL).floor()
                } else {
                    b
                };
                if b < hi[j] - FEAS_TOL {
                    hi[j] = b;
                    moved = true;
                }
            }
            if lo[j] > hi[j] + FEAS_TOL {
                return false;
            }
            if moved {
                changed.push(j);
            }
        }
        true
    }
}

/// The outcome of a node whose bounds cross: infeasible, for one tick.
fn crossed(budget: &Budget) -> Result<LpOutcome, SolveError> {
    budget.tick().map_err(SolveError::from)?;
    Ok(LpOutcome::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Sense, VarKind};

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary -> a=0? enumerate:
        // best is a+c? 3+2=5 -> 17; b+c = 6 -> 20. optimum 20.
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.maximize([(a, 10.0), (b, 13.0), (c, 7.0)]);
        m.add_constr([(a, 3.0), (b, 4.0), (c, 2.0)], Sense::Le, 6.0);
        let sol = m.solve().expect("solved");
        assert_eq!(sol.objective().round() as i64, 20);
        assert_eq!(sol.value_int(b), 1);
        assert_eq!(sol.value_int(c), 1);
        assert!(sol.is_proven_optimal());
    }

    #[test]
    fn integer_rounding_matters() {
        // max x s.t. 2x <= 7, x integer -> 3 (LP gives 3.5)
        let mut m = Model::new();
        let x = m.add_integer(100.0, "x");
        m.maximize([(x, 1.0)]);
        m.add_constr([(x, 2.0)], Sense::Le, 7.0);
        let sol = m.solve().expect("solved");
        assert_eq!(sol.value_int(x), 3);
    }

    #[test]
    fn infeasible_integer_model() {
        // 0.4 <= x <= 0.6, x integer
        let mut m = Model::new();
        m.add_var(VarKind::Integer, 0.4, 0.6, "x");
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn equality_constrained_assignment() {
        // Choose exactly one of three slots; minimize cost 5, 3, 9.
        let mut m = Model::new();
        let xs: Vec<_> = (0..3).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.minimize([(xs[0], 5.0), (xs[1], 3.0), (xs[2], 9.0)]);
        m.add_constr(
            xs.iter().map(|&x| (x, 1.0)).collect::<Vec<_>>(),
            Sense::Eq,
            1.0,
        );
        let sol = m.solve().expect("solved");
        assert_eq!(sol.value_int(xs[1]), 1);
        assert!((sol.objective() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn maximization_objective_sign() {
        let mut m = Model::new();
        let x = m.add_integer(10.0, "x");
        m.maximize([(x, 2.0)]);
        m.add_constr([(x, 1.0)], Sense::Le, 4.0);
        let sol = m.solve().expect("solved");
        assert!((sol.objective() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn stop_at_first_incumbent_is_feasible() {
        let mut m = Model::new();
        let xs: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_constr(
            xs.iter().map(|&x| (x, 1.0)).collect::<Vec<_>>(),
            Sense::Eq,
            3.0,
        );
        let limits = SolveLimits {
            stop_at_first_incumbent: true,
            ..Default::default()
        };
        let sol = m.solve_with(&limits).expect("feasible");
        let count: i64 = xs.iter().map(|&x| sol.value_int(x)).sum();
        assert_eq!(count, 3);
    }

    #[test]
    fn spent_budget_without_incumbent_errors() {
        let mut m = Model::new();
        // Infeasible parity-style system that needs branching to refute.
        let xs: Vec<_> = (0..4).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_constr(
            xs.iter().map(|&x| (x, 1.0)).collect::<Vec<_>>(),
            Sense::Eq,
            1.5,
        );
        // A 0-tick budget trips at the root node: the search is
        // truncated before any incumbent exists.
        let limits = SolveLimits {
            budget: Budget::with_tick_limit(0),
            ..Default::default()
        };
        assert_eq!(
            m.solve_with(&limits).unwrap_err(),
            SolveError::LimitReached(None)
        );
    }

    /// Two ops at period 3 in the shape of the scheduling models: one-hot
    /// residues `a`, stage counts `k`, starts `t = 3·k + r` and a
    /// dependence `t1 − t0 ≥ 5`. Both residues are pinned (op 0 to 0, op
    /// 1 to 1), so the root LP's binaries are integral while
    /// `k1 = 4/3` is not.
    fn residue_model() -> (Model, crate::VarId, crate::VarId) {
        let mut m = Model::new();
        let mut ts = Vec::new();
        let mut ks = Vec::new();
        for (i, r) in [0usize, 1].into_iter().enumerate() {
            let a: Vec<_> = (0..3)
                .map(|t| m.add_binary(format!("a[{t},{i}]")))
                .collect();
            for (t, &v) in a.iter().enumerate() {
                if t != r {
                    m.set_upper_bound(v, 0.0);
                }
            }
            let t = m.add_var(VarKind::Integer, 0.0, 20.0, format!("t[{i}]"));
            let k = m.add_var(VarKind::Integer, 0.0, 6.0, format!("k[{i}]"));
            m.add_constr(
                a.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
                Sense::Eq,
                1.0,
            );
            let mut link = vec![(t, 1.0), (k, -3.0)];
            link.extend(a.iter().enumerate().skip(1).map(|(r, &v)| (v, -(r as f64))));
            m.add_constr(link, Sense::Eq, 0.0);
            ts.push(t);
            ks.push(k);
        }
        m.add_constr([(ts[1], 1.0), (ts[0], -1.0)], Sense::Ge, 5.0);
        m.minimize([(ts[0], 1.0), (ts[1], 1.0)]);
        (m, ts[1], ks[1])
    }

    #[test]
    fn completion_settles_a_fractional_stage_count_at_the_root() {
        let (m, t1, k1) = residue_model();
        // The earliest start of op 1 with residue 1 after t1 ≥ 5 is 7.
        let limits = SolveLimits {
            stop_at_first_incumbent: true,
            ..SolveLimits::default()
        };
        let sol = m.solve_with(&limits).expect("feasible");
        assert_eq!(sol.stats().nodes, 1);
        assert_eq!((sol.value_int(t1), sol.value_int(k1)), (7, 2));
        // To prove it optimal the search still branches on `k1` once:
        // `k1 ≤ 1` is infeasible and `k1 ≥ 2` meets the incumbent.
        let sol = m.solve().expect("feasible");
        assert!(sol.is_proven_optimal());
        assert_eq!(sol.stats().nodes, 3);
        assert_eq!(sol.value_int(t1), 7);
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new();
        let x = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY, "x");
        let y = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY, "y");
        m.maximize([(x, 5.0), (y, 4.0)]);
        m.add_constr([(x, 6.0), (y, 4.0)], Sense::Le, 24.0);
        m.add_constr([(x, 1.0), (y, 2.0)], Sense::Le, 6.0);
        let sol = m.solve().expect("solved");
        assert!((sol.objective() - 21.0).abs() < 1e-6);
    }

    #[test]
    fn unbounded_is_reported() {
        let mut m = Model::new();
        let x = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY, "x");
        m.maximize([(x, 1.0)]);
        assert_eq!(m.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn gomory_free_correctness_vs_enumeration() {
        // Random-ish 0-1 problem checked against brute force.
        let weights = [4.0, 7.0, 5.0, 2.0, 6.0];
        let values = [9.0, 12.0, 8.0, 3.0, 10.0];
        let cap = 13.0;
        let mut m = Model::new();
        let xs: Vec<_> = (0..5).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.maximize(
            xs.iter()
                .zip(values)
                .map(|(&x, v)| (x, v))
                .collect::<Vec<_>>(),
        );
        m.add_constr(
            xs.iter()
                .zip(weights)
                .map(|(&x, w)| (x, w))
                .collect::<Vec<_>>(),
            Sense::Le,
            cap,
        );
        let sol = m.solve().expect("solved");
        // Brute force.
        let mut best = 0.0f64;
        for mask in 0u32..32 {
            let w: f64 = (0..5)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| weights[i])
                .sum();
            if w <= cap {
                let v: f64 = (0..5)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| values[i])
                    .sum();
                best = best.max(v);
            }
        }
        assert!((sol.objective() - best).abs() < 1e-6);
    }
}
