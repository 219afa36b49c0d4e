//! Branch-and-bound search for mixed-integer models.
//!
//! Depth-first search over LP relaxations solved by [`crate::simplex`].
//! Branching picks the most fractional integer variable; the child whose
//! branch is nearer the LP value is explored first. An LP-rounding primal
//! heuristic runs at the root and periodically thereafter, which matters
//! for the scheduling models in `swp-core`: their LP relaxations are often
//! integral or nearly so, and rounding finds a schedule without descending
//! the tree.

use crate::budget::{Budget, Exhaustion};
use crate::model::{Model, Sense, VarKind};
use crate::simplex::{
    solve_lp_warm, solve_lp_with, LpBasis, LpOutcome, LpProblem, PivotLayout, FEAS_TOL,
};
use crate::SolveError;
use std::time::{Duration, Instant};

/// Integrality tolerance: an LP value within this of an integer counts
/// as integral.
pub const INT_TOL: f64 = 1e-6;

/// Search limits for [`Model::solve_with`].
#[derive(Debug, Clone)]
pub struct SolveLimits {
    /// Maximum branch-and-bound nodes to explore.
    pub max_nodes: u64,
    /// Wall-clock budget for the whole search.
    pub time_limit: Option<Duration>,
    /// Stop as soon as any integer-feasible point is found.
    ///
    /// The scheduling driver uses this: at a fixed initiation interval it
    /// only needs feasibility, not the objective optimum.
    pub stop_at_first_incumbent: bool,
    /// Shared solve budget: wall-clock deadline, deterministic tick cap,
    /// and cooperative cancellation (default: unlimited). One tick is
    /// spent per simplex pivot, so the cap bounds total work across every
    /// node LP; the cancel token stops the search within one check
    /// interval with [`SolveError::Cancelled`].
    pub budget: Budget,
    /// Optional basis hint for the **root** relaxation, typically
    /// exported from a closely related earlier solve (the previous
    /// period of a T-sweep, or the pre-edit instance). Crash-started
    /// with a full ratio test, so the hint can never change the verdict
    /// — only the pivot count (default: none).
    pub warm_basis: Option<LpBasis>,
    /// Inert: [`PivotLayout`] has the single variant
    /// [`PivotLayout::SparseRow`], which every node LP uses. The field
    /// stays so callers that set it explicitly still compile.
    pub pivot_layout: PivotLayout,
}

impl Default for SolveLimits {
    fn default() -> Self {
        SolveLimits {
            max_nodes: 1_000_000,
            time_limit: None,
            stop_at_first_incumbent: false,
            budget: Budget::unlimited(),
            warm_basis: None,
            pivot_layout: PivotLayout::default(),
        }
    }
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
    /// The node limit was reached.
    NodeLimit,
    /// The [`SolveLimits::time_limit`] wall clock ran out.
    TimeLimit,
    /// The shared [`Budget`] tripped (deadline, tick cap, or cancel).
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
    /// Rows shared by every node LP.
    rows: Vec<(Vec<(usize, f64)>, Sense, f64)>,
    /// Minimization objective (negated if the model maximizes).
    obj_min: Vec<f64>,
}

impl<'a> BranchBound<'a> {
    /// Prepares a search over `model` with the given `limits`.
    pub fn new(model: &'a Model, limits: SolveLimits) -> Self {
        let int_vars: Vec<usize> = model
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind != VarKind::Continuous)
            .map(|(i, _)| i)
            .collect();
        let rows = model
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
        let obj_min = model.obj.iter().map(|&c| sign * c).collect();
        BranchBound {
            model,
            limits,
            int_vars,
            rows,
            obj_min,
        }
    }

    fn root_bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let mut lo: Vec<f64> = self.model.vars.iter().map(|v| v.lo).collect();
        let mut hi: Vec<f64> = self.model.vars.iter().map(|v| v.hi).collect();
        for &j in &self.int_vars {
            if lo[j].is_finite() {
                lo[j] = (lo[j] - INT_TOL).ceil();
            }
            if hi[j].is_finite() {
                hi[j] = (hi[j] + INT_TOL).floor();
            }
        }
        (lo, hi)
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
    /// [`SolveError::LimitReached`] if limits (node, time, or budget)
    /// were hit before any integer-feasible point was found,
    /// [`SolveError::Cancelled`] if the budget's cancel token fired, and
    /// [`SolveError::Numerical`] if a node LP stalled. If node/time/
    /// budget limits are hit *after* an incumbent was found, that
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
        let (lo, hi) = self.root_bounds();
        let mut stack = vec![Node { lo, hi, depth: 0 }];
        let mut incumbent: Option<(Vec<f64>, f64)> = None; // (x, min-objective)
        let mut stats = SearchStats::default();
        let mut truncated = false;

        'search: while let Some(node) = stack.pop() {
            if stats.nodes >= self.limits.max_nodes {
                truncated = true;
                stats.stop_reason = StopReason::NodeLimit;
                break;
            }
            if let Some(tl) = self.limits.time_limit {
                if start.elapsed() >= tl {
                    truncated = true;
                    stats.stop_reason = StopReason::TimeLimit;
                    break;
                }
            }
            // Full budget check at every node boundary so cancellation is
            // honoured promptly even when node LPs are tiny.
            match self.limits.budget.check() {
                Ok(()) => {}
                Err(Exhaustion::Cancelled) => return (Err(SolveError::Cancelled), root_basis),
                Err(e) => {
                    truncated = true;
                    stats.stop_reason = StopReason::Budget(e);
                    break;
                }
            }
            stats.nodes += 1;

            let lp = LpProblem {
                obj: self.obj_min.clone(),
                rows: self.rows.clone(),
                lo: node.lo.clone(),
                hi: node.hi.clone(),
            };
            // The root relaxation is warm-started from the caller's hint
            // (if any) and its terminal basis exported for the caller's
            // next solve; deeper nodes stay on the cold path, whose pivot
            // sequence is untouched.
            let lp_result = if node.depth == 0 {
                solve_lp_warm(&lp, &self.limits.budget, self.limits.warm_basis.as_ref()).map(|r| {
                    root_basis = Some(r.basis);
                    r.outcome
                })
            } else {
                solve_lp_with(&lp, &self.limits.budget)
            };
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
                        self.limits
                            .budget
                            .check()
                            .err()
                            .unwrap_or(Exhaustion::Deadline),
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
            for &j in &self.int_vars {
                let x = sol.x[j];
                let frac = (x - x.round()).abs();
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
                    let obj: f64 = self.obj_min.iter().zip(&x).map(|(&c, &v)| c * v).sum();
                    let better = incumbent
                        .as_ref()
                        .map(|(_, inc)| obj < *inc - 1e-9)
                        .unwrap_or(true);
                    if better && self.model.is_feasible_point(&x, 1e-5) {
                        incumbent = Some((x, obj));
                        if self.limits.stop_at_first_incumbent {
                            truncated = true;
                            stats.stop_reason = StopReason::FirstIncumbent;
                            break 'search;
                        }
                    }
                }
                Some(j) => {
                    // Rounding heuristic: occasionally try snapping the whole
                    // LP point.
                    if stats.nodes == 1 || stats.nodes % 64 == 0 {
                        if let Some((x, obj)) = self.try_round(&sol.x, &node) {
                            let better = incumbent
                                .as_ref()
                                .map(|(_, inc)| obj < *inc - 1e-9)
                                .unwrap_or(true);
                            if better {
                                incumbent = Some((x, obj));
                                if self.limits.stop_at_first_incumbent {
                                    truncated = true;
                                    stats.stop_reason = StopReason::FirstIncumbent;
                                    break 'search;
                                }
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

    /// Rounds the LP point to integers (within node bounds) and accepts it
    /// if it satisfies every constraint.
    fn try_round(&self, x: &[f64], node: &Node) -> Option<(Vec<f64>, f64)> {
        let mut y = x.to_vec();
        for &j in &self.int_vars {
            y[j] = y[j].round().clamp(node.lo[j], node.hi[j]);
        }
        if self.model.is_feasible_point(&y, FEAS_TOL * 10.0) {
            let obj: f64 = self.obj_min.iter().zip(&y).map(|(&c, &v)| c * v).sum();
            Some((y, obj))
        } else {
            None
        }
    }
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
    fn node_limit_without_incumbent_errors() {
        let mut m = Model::new();
        // Infeasible parity-style system that needs branching to refute.
        let xs: Vec<_> = (0..4).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_constr(
            xs.iter().map(|&x| (x, 1.0)).collect::<Vec<_>>(),
            Sense::Eq,
            1.5,
        );
        let limits = SolveLimits {
            max_nodes: 0,
            ..Default::default()
        };
        assert_eq!(
            m.solve_with(&limits).unwrap_err(),
            SolveError::LimitReached(None)
        );
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
