//! Bounded-variable simplex over `f64` on a dense row-major tableau.
//!
//! The solver accepts problems in the *bounded row form* used by the
//! branch-and-bound driver: minimize `c·x` subject to rows
//! `a·x {<=, >=, ==} b` and box bounds `lo <= x <= hi` (bounds may be
//! infinite). Columns fixed by their bounds are substituted out. Every
//! row gets one slack `s = b − a·x` whose bounds come from the row's
//! sense (`Le`: `s ≥ 0`, `Ge`: `s ≤ 0`, `Eq`: `s = 0`), and the box
//! bounds stay in the ratio tests. The tableau therefore has one row per
//! constraint, no bound rows and no artificial columns, and the
//! all-slack basis is always a valid (if primal-infeasible) start.
//!
//! The crate-private `Lp` holds the tableau `B⁻¹[A | I]`, every
//! column's value and the reduced costs, and is re-solved in place:
//!
//! * **Dual iterations** restore primal feasibility while the reduced
//!   costs stay dual feasible. They solve a cold start from the slack
//!   basis and every branch-and-bound node after its bounds change.
//! * **Primal iterations** finish a solve whose start was not dual
//!   feasible (a column with a cost toward an open bound): a dual pass
//!   under a cost that prices the current positions as optimal first
//!   reaches a feasible vertex, then primal iterations optimize the real
//!   cost from there.
//!
//! A model whose objective is zero (every feasibility probe of the
//! scheduler) is solved under a fixed perturbation instead: each column
//! gets a cost in `[1, 2)` that pulls it toward the bound it starts at.
//! Every feasible point is optimal for the zero objective, so this
//! changes which vertex is reported, never the verdict, and it keeps the
//! dual ratio test from tying on every column. The reported objective is
//! always the model's own.
//!
//! Pricing is dual Devex in the dual (the largest squared bound violation
//! relative to the row's reference weight leaves) and Dantzig in the
//! primal (the largest reduced cost enters), with a switch to Bland's
//! least-index rule after a run of degenerate pivots. A cycle consists
//! of degenerate pivots only, so once it starts Bland's rule governs it
//! and termination is guaranteed; a pivot cap still reports any stall as
//! [`SolveError::Numerical`], and no path accepts a stalled vertex.
//!
//! Drift is contained twice over: basic values are recomputed from the
//! tableau at every re-solve, and every 1,024 pivots the tableau itself
//! is rebuilt from the original rows for the current basis. An infeasibility verdict is only given after the offending
//! row's value has been recomputed from scratch.
//!
//! The pivot sweeps only the pivot row's nonzero columns, collected
//! once per pivot, and skips the exact zeros in every eliminated row.
//! Scheduling tableaus are mostly zeros (each constraint touches a
//! handful of the `ops × slots` columns), so this does a small fraction
//! of a full-width sweep's arithmetic. Every skipped update is
//! `x -= f · (±0.0)`, which can change at most the sign of a zero, and
//! every decision in the solver is a comparison (IEEE orders
//! `-0.0 == 0.0`), so the pivot sequence is the one a full-width sweep
//! would take.
//!
//! [`solve_lp_with`] and [`solve_lp_warm`] solve one problem;
//! branch-and-bound drives an `Lp` directly.

// Tableau arithmetic is clearer with explicit indices.
#![allow(clippy::needless_range_loop)]

use crate::budget::{Budget, Exhaustion};
use crate::model::Sense;
use crate::SolveError;

/// Feasibility tolerance used throughout the `f64` pipeline.
pub const FEAS_TOL: f64 = 1e-7;
/// Pivot magnitude below which a column entry is treated as zero.
const PIVOT_TOL: f64 = 1e-9;
/// Reduced-cost magnitude below which a column counts as dual-degenerate.
const DUAL_TOL: f64 = 1e-9;
/// Ratios within this of each other tie.
const RATIO_TIE: f64 = 1e-12;
/// Number of consecutive degenerate pivots before switching to Bland's rule.
const DEGEN_SWITCH: usize = 60;
/// Pivots between two rebuilds of the tableau from the original rows.
const REFACTOR_PIVOTS: usize = 1024;
/// Marks a column that is not basic in any row.
const NONBASIC: usize = usize::MAX;

/// Inner-loop layout of the pivot elimination. Only the sparse-row sweep
/// exists; the type and [`SolveLimits::pivot_layout`] are inert and kept
/// so callers that name the layout explicitly still compile.
///
/// [`SolveLimits::pivot_layout`]: crate::SolveLimits::pivot_layout
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PivotLayout {
    /// Sweep only the pivot row's nonzero columns, collected once per
    /// pivot into a reusable index list.
    #[default]
    SparseRow,
}

/// A linear program in bounded row form, ready for [`solve_lp_with`].
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Objective coefficients (always minimized), one per column.
    pub obj: Vec<f64>,
    /// Sparse rows: `(terms, sense, rhs)` with terms as `(col, coeff)`.
    pub rows: Vec<(Vec<(usize, f64)>, Sense, f64)>,
    /// Per-column lower bounds (`-inf` allowed).
    pub lo: Vec<f64>,
    /// Per-column upper bounds (`+inf` allowed).
    pub hi: Vec<f64>,
}

impl LpProblem {
    /// Number of structural columns.
    pub fn num_cols(&self) -> usize {
        self.obj.len()
    }
}

/// Optimal solution of an LP.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Value of each structural column.
    pub x: Vec<f64>,
    /// Objective value `c·x`.
    pub objective: f64,
    /// Simplex iterations used (pivots and bound flips, crash included).
    pub iterations: usize,
}

/// A simplex basis exported in *structural* (model-variable) space.
///
/// `cols` lists the problem columns that were basic when the solve
/// terminated (sorted, deduplicated). The basis is a **hint**, never a
/// contract: a warm solve crashes the hinted columns into the starting
/// basis in place of slacks, and the simplex then runs to completion
/// from there. A useless hint costs a few extra pivots; it can never
/// change the outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LpBasis {
    /// Structural column indices basic at termination.
    pub cols: Vec<usize>,
}

impl LpBasis {
    /// Whether the basis carries no information.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// Outcome of a warm-started LP solve: the verdict plus the terminal
/// basis (for carry-over to the next closely-related instance) and how
/// many crash pivots the hint bought.
#[derive(Debug, Clone)]
pub struct WarmLpResult {
    /// The solve verdict, identical in meaning to [`solve_lp_with`].
    pub outcome: LpOutcome,
    /// Structural basis at termination (empty on early infeasibility).
    pub basis: LpBasis,
    /// Forced-entering pivots performed while crashing the hint into the
    /// starting basis (0 when no hint was given or none applied).
    pub crash_pivots: usize,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// Optimum found.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// The objective decreases without bound.
    Unbounded,
}

impl LpOutcome {
    /// The solution if optimal, else `None`.
    pub fn optimal(self) -> Option<LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// Solves the LP under a [`Budget`], with strict stall detection.
///
/// Column bounds with `lo > hi` (to within [`FEAS_TOL`]) yield
/// [`LpOutcome::Infeasible`] immediately.
///
/// # Errors
///
/// * [`SolveError::LimitReached`] — the budget's deadline or tick cap
///   tripped mid-solve (one tick is spent per simplex iteration, and
///   every solve spends at least one);
/// * [`SolveError::Cancelled`] — the budget's cancel token fired;
/// * [`SolveError::Numerical`] — the pivot cap was exhausted without
///   convergence (a stall or cycling even Bland's rule did not resolve).
pub fn solve_lp_with(p: &LpProblem, budget: &Budget) -> Result<LpOutcome, SolveError> {
    solve_lp_warm(p, budget, None).map(|r| r.outcome)
}

/// Solves the LP under a [`Budget`] with an optional basis hint, and
/// exports the terminal basis for carry-over to the next instance.
///
/// Each hinted column is pivoted into the starting basis in place of a
/// slack (largest pivot first); the solve then runs exactly as a cold
/// one from that basis, so the verdict and the optimal objective always
/// agree with [`solve_lp_with`] (a degenerate optimum may sit at a
/// different vertex).
///
/// # Errors
///
/// As [`solve_lp_with`]. Crash pivots spend budget ticks like any other
/// pivot, so determinism under tick caps is preserved.
pub fn solve_lp_warm(
    p: &LpProblem,
    budget: &Budget,
    hint: Option<&LpBasis>,
) -> Result<WarmLpResult, SolveError> {
    let Some(mut lp) = Lp::new(p) else {
        return Ok(WarmLpResult {
            outcome: LpOutcome::Infeasible,
            basis: LpBasis::default(),
            crash_pivots: 0,
        });
    };
    let crash_pivots = match hint {
        Some(h) => lp.crash(h, budget)?,
        None => 0,
    };
    let mut outcome = lp.solve(budget)?;
    if let LpOutcome::Optimal(s) = &mut outcome {
        s.iterations += crash_pivots;
    }
    Ok(WarmLpResult {
        outcome,
        basis: lp.basis(),
        crash_pivots,
    })
}

/// Where a problem column lives in the tableau.
#[derive(Debug, Clone, Copy)]
enum ColMap {
    /// Tableau column.
    Col(usize),
    /// Fixed by its bounds and substituted into the right-hand sides.
    Fixed(f64),
}

/// How a simplex pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Optimal,
    Infeasible,
    Unbounded,
    /// The pivot cap ran out before the pass converged.
    Stalled,
}

/// An LP kept as a live tableau, re-solved in place after bound changes.
///
/// Columns `0..nx` are the problem's non-fixed columns, `nx..nx + m` the
/// row slacks. Nonbasic columns sit at a finite bound (a free one at 0),
/// and `d` holds the reduced costs of `cost`, the cost the solver
/// minimizes.
pub(crate) struct Lp {
    m: usize,
    n: usize,
    nx: usize,
    /// `B⁻¹[A | I]`, row-major.
    a: Vec<f64>,
    /// `B⁻¹b`.
    rhs: Vec<f64>,
    basis: Vec<usize>,
    /// Row of each basic column, [`NONBASIC`] otherwise.
    row_of: Vec<usize>,
    x: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    d: Vec<f64>,
    /// The model's objective per column, or (if that is zero) the
    /// perturbation that stands in for it.
    cost: Vec<f64>,
    zero_cost: bool,
    /// Whether `d` holds the reduced costs of `cost`.
    priced: bool,
    map: Vec<ColMap>,
    obj: Vec<f64>,
    /// Original structural rows (tableau columns) and right-hand sides,
    /// kept for rebuilding the tableau.
    rows: Vec<Vec<(usize, f64)>>,
    b: Vec<f64>,
    since_refactor: usize,
    /// Dual Devex reference weights, one per row.
    weights: Vec<f64>,
    /// The pivot row's nonzero columns, reused across pivots.
    nz: Vec<usize>,
}

/// Deterministic stand-in cost in `[1, 2)` for column `j`.
fn perturbation(j: usize) -> f64 {
    1.0 + (j as f64 * 0.618_033_988_749_895).fract()
}

impl Lp {
    /// Builds the slack-basis tableau for `p`, or `None` if some
    /// column's bounds cross.
    pub(crate) fn new(p: &LpProblem) -> Option<Lp> {
        let ncols = p.num_cols();
        let mut map = Vec::with_capacity(ncols);
        let mut nx = 0usize;
        for j in 0..ncols {
            let (lo, hi) = (p.lo[j], p.hi[j]);
            if lo > hi + FEAS_TOL {
                return None;
            }
            if lo >= hi {
                map.push(ColMap::Fixed(lo));
            } else {
                map.push(ColMap::Col(nx));
                nx += 1;
            }
        }
        let m = p.rows.len();
        let n = nx + m;
        let mut rows = Vec::with_capacity(m);
        let mut b = Vec::with_capacity(m);
        let mut lo = vec![0.0; n];
        let mut hi = vec![0.0; n];
        let mut cost = vec![0.0; n];
        for j in 0..ncols {
            if let ColMap::Col(c) = map[j] {
                lo[c] = p.lo[j];
                hi[c] = p.hi[j];
                cost[c] = p.obj[j];
            }
        }
        for (r, (terms, sense, rhs)) in p.rows.iter().enumerate() {
            let mut row = Vec::with_capacity(terms.len());
            let mut br = *rhs;
            for &(j, coeff) in terms {
                match map[j] {
                    ColMap::Col(c) => row.push((c, coeff)),
                    ColMap::Fixed(v) => br -= coeff * v,
                }
            }
            rows.push(row);
            b.push(br);
            (lo[nx + r], hi[nx + r]) = match sense {
                Sense::Le => (0.0, f64::INFINITY),
                Sense::Ge => (f64::NEG_INFINITY, 0.0),
                Sense::Eq => (0.0, 0.0),
            };
        }
        let zero_cost = cost.iter().all(|&c| c == 0.0);
        let mut lp = Lp {
            m,
            n,
            nx,
            a: vec![0.0; m * n],
            rhs: Vec::new(),
            basis: Vec::new(),
            row_of: Vec::new(),
            x: vec![0.0; n],
            lo,
            hi,
            d: vec![0.0; n],
            cost,
            zero_cost,
            priced: false,
            map,
            obj: p.obj.clone(),
            rows,
            b,
            since_refactor: 0,
            weights: Vec::new(),
            nz: Vec::new(),
        };
        lp.load_slack_basis();
        // On the slack basis the reduced costs are the costs: each column
        // starts at the bound its cost prefers (the nearer one to 0 when
        // its cost is 0).
        lp.reprice();
        lp.place_nonbasics();
        lp.start();
        Some(lp)
    }

    /// Resets the tableau to `[A | I]` with the all-slack basis.
    fn load_slack_basis(&mut self) {
        let (m, n, nx) = (self.m, self.n, self.nx);
        self.a.fill(0.0);
        for (r, row) in self.rows.iter().enumerate() {
            for &(c, v) in row {
                self.a[r * n + c] += v;
            }
            self.a[r * n + nx + r] = 1.0;
        }
        self.rhs = self.b.clone();
        self.basis = (nx..nx + m).collect();
        self.row_of = vec![NONBASIC; n];
        for r in 0..m {
            self.row_of[nx + r] = r;
        }
        self.since_refactor = 0;
        self.weights = vec![1.0; m];
    }

    /// Recomputes basic values and prices the current basis: a
    /// zero-cost model adopts the perturbation of its current positions
    /// (dual feasible by construction), any other is repriced.
    fn start(&mut self) {
        self.refresh_basics();
        if self.zero_cost {
            self.price_positions();
        } else {
            self.reprice();
        }
    }

    /// Crashes the hinted columns into the basis, each replacing the
    /// slack with the largest pivot in its column. Returns the number of
    /// pivots made (one tick each).
    pub(crate) fn crash(&mut self, hint: &LpBasis, budget: &Budget) -> Result<usize, SolveError> {
        let mut pivots = 0;
        for &j in &hint.cols {
            let Some(ColMap::Col(c)) = self.map.get(j).copied() else {
                continue; // fixed, or from a differently-shaped model
            };
            if self.row_of[c] != NONBASIC {
                continue;
            }
            let mut pr = NONBASIC;
            let mut best = PIVOT_TOL;
            for r in 0..self.m {
                let v = self.a[r * self.n + c].abs();
                if self.basis[r] >= self.nx && v > best {
                    best = v;
                    pr = r;
                }
            }
            if pr == NONBASIC {
                continue;
            }
            budget.tick().map_err(SolveError::from)?;
            self.pivot(pr, c);
            pivots += 1;
        }
        if pivots > 0 {
            self.start();
        }
        Ok(pivots)
    }

    /// Sets every problem column's bounds; `false` if some pair crosses
    /// (the node is infeasible without solving).
    pub(crate) fn set_bounds(&mut self, lo: &[f64], hi: &[f64]) -> bool {
        for (j, m) in self.map.iter().enumerate() {
            match *m {
                ColMap::Fixed(v) => {
                    if lo[j] > v + FEAS_TOL || hi[j] < v - FEAS_TOL {
                        return false;
                    }
                }
                ColMap::Col(c) => {
                    if lo[j] > hi[j] + FEAS_TOL {
                        return false;
                    }
                    self.lo[c] = lo[j];
                    self.hi[c] = hi[j].max(lo[j]);
                }
            }
        }
        true
    }

    /// The structural basis in problem-column space.
    pub(crate) fn basis(&self) -> LpBasis {
        let mut cols: Vec<usize> = self
            .map
            .iter()
            .enumerate()
            .filter(|(_, m)| matches!(m, ColMap::Col(c) if self.row_of[*c] != NONBASIC))
            .map(|(j, _)| j)
            .collect();
        cols.sort_unstable();
        LpBasis { cols }
    }

    /// Re-solves from the current basis under the current bounds.
    ///
    /// # Errors
    ///
    /// As [`solve_lp_with`].
    pub(crate) fn solve(&mut self, budget: &Budget) -> Result<LpOutcome, SolveError> {
        if self.since_refactor >= REFACTOR_PIVOTS {
            self.refactor();
        }
        if !self.priced {
            self.reprice();
        }
        let dual_feasible = self.place_nonbasics();
        self.refresh_basics();
        let mut iterations = 0usize;
        let end = if dual_feasible {
            self.dual(budget, &mut iterations)
        } else {
            // Price the current positions as optimal, reach a feasible
            // vertex by dual iterations, then optimize the real cost.
            self.price_positions();
            match self.dual(budget, &mut iterations) {
                Ok(End::Optimal) if !self.zero_cost => {
                    self.reprice();
                    self.primal(budget, &mut iterations)
                }
                other => other,
            }
        }
        .map_err(SolveError::from)?;
        match end {
            End::Optimal => {
                let x: Vec<f64> = self
                    .map
                    .iter()
                    .map(|m| match *m {
                        ColMap::Col(c) => self.x[c],
                        ColMap::Fixed(v) => v,
                    })
                    .collect();
                let objective = self.obj.iter().zip(&x).map(|(c, v)| c * v).sum();
                Ok(LpOutcome::Optimal(LpSolution {
                    x,
                    objective,
                    iterations,
                }))
            }
            End::Infeasible => Ok(LpOutcome::Infeasible),
            End::Unbounded => Ok(LpOutcome::Unbounded),
            End::Stalled => Err(SolveError::Numerical(
                "simplex stalled: pivot cap exhausted without convergence".into(),
            )),
        }
    }

    /// Moves every nonbasic column to the bound its reduced cost prefers
    /// (a fixed column to its value, a free one with zero reduced cost
    /// stays put). Returns whether the result is dual feasible: `false`
    /// when some reduced cost points at an open bound.
    fn place_nonbasics(&mut self) -> bool {
        let mut feasible = true;
        for j in 0..self.n {
            if self.row_of[j] != NONBASIC {
                continue;
            }
            let (l, h, v, dj) = (self.lo[j], self.hi[j], self.x[j], self.d[j]);
            let nearest = || {
                if v == l || v == h {
                    v
                } else if l.is_finite() && (!h.is_finite() || v - l <= h - v) {
                    l
                } else if h.is_finite() {
                    h
                } else {
                    0.0
                }
            };
            self.x[j] = if l >= h {
                l
            } else if dj > DUAL_TOL {
                feasible &= l.is_finite();
                if l.is_finite() {
                    l
                } else {
                    nearest()
                }
            } else if dj < -DUAL_TOL {
                feasible &= h.is_finite();
                if h.is_finite() {
                    h
                } else {
                    nearest()
                }
            } else {
                nearest()
            };
        }
        feasible
    }

    /// Recomputes every basic value as `B⁻¹b − B⁻¹N·x_N`.
    fn refresh_basics(&mut self) {
        let n = self.n;
        let moved: Vec<usize> = (0..n)
            .filter(|&j| self.row_of[j] == NONBASIC && self.x[j] != 0.0)
            .collect();
        for r in 0..self.m {
            let row = &self.a[r * n..(r + 1) * n];
            let mut v = self.rhs[r];
            for &j in &moved {
                v -= row[j] * self.x[j];
            }
            self.x[self.basis[r]] = v;
        }
    }

    /// Value of row `r`'s basic column recomputed from scratch.
    fn row_value(&self, r: usize) -> f64 {
        let row = &self.a[r * self.n..(r + 1) * self.n];
        let mut v = self.rhs[r];
        for j in 0..self.n {
            if self.row_of[j] == NONBASIC && self.x[j] != 0.0 {
                v -= row[j] * self.x[j];
            }
        }
        v
    }

    /// Reduced costs of `cost` for the current basis.
    fn reprice(&mut self) {
        let n = self.n;
        self.d.copy_from_slice(&self.cost);
        for r in 0..self.m {
            let cb = self.cost[self.basis[r]];
            if cb != 0.0 {
                for (dc, &a) in self.d.iter_mut().zip(&self.a[r * n..(r + 1) * n]) {
                    *dc -= cb * a;
                }
            }
        }
        for &j in &self.basis {
            self.d[j] = 0.0;
        }
        self.priced = true;
    }

    /// Prices every nonbasic column toward the bound it sits at and every
    /// basic one at zero, so the basis is dual feasible as it stands and
    /// the cost is bounded over the box. A zero-cost model adopts this as
    /// its cost; any other keeps its own, to be repriced.
    fn price_positions(&mut self) {
        for j in 0..self.n {
            let (l, h, v) = (self.lo[j], self.hi[j], self.x[j]);
            self.d[j] = if self.row_of[j] != NONBASIC || l >= h {
                0.0
            } else if v == l {
                perturbation(j)
            } else if v == h {
                -perturbation(j)
            } else {
                0.0
            };
        }
        if self.zero_cost {
            self.cost.copy_from_slice(&self.d);
            self.priced = true;
        } else {
            self.priced = false;
        }
    }

    /// Rebuilds the tableau from the original rows and pivots the current
    /// basis back in, largest pivot first. A column that no longer finds
    /// a pivot stays out of the basis (its row keeps a slack); placement
    /// then moves it to a bound.
    fn refactor(&mut self) {
        let nx = self.nx;
        let mut keep_slack = vec![false; self.m];
        let mut structural = Vec::new();
        for &j in &self.basis {
            if j >= nx {
                keep_slack[j - nx] = true;
            } else {
                structural.push(j);
            }
        }
        structural.sort_unstable();
        self.load_slack_basis();
        for c in structural {
            let mut pr = NONBASIC;
            let mut best = PIVOT_TOL;
            for r in 0..self.m {
                let s = self.basis[r];
                let v = self.a[r * self.n + c].abs();
                if s >= nx && !keep_slack[s - nx] && v > best {
                    best = v;
                    pr = r;
                }
            }
            if pr != NONBASIC {
                self.pivot(pr, c);
            }
        }
        self.since_refactor = 0;
        self.priced = false;
    }

    /// Pivots column `pc` into row `pr`, updating the tableau, the
    /// reduced costs and the basis bookkeeping. Only the pivot row's
    /// nonzeros are swept; every elimination this skips is
    /// `row[c] -= f * (±0.0)`, a value-level no-op (see the module docs).
    fn pivot(&mut self, pr: usize, pc: usize) {
        let n = self.n;
        let inv = 1.0 / self.a[pr * n + pc];
        self.nz.clear();
        for (c, v) in self.a[pr * n..(pr + 1) * n].iter_mut().enumerate() {
            if *v != 0.0 {
                *v *= inv;
                self.nz.push(c);
            }
        }
        self.rhs[pr] *= inv;
        let rhs_pr = self.rhs[pr];
        let (before, rest) = self.a.split_at_mut(pr * n);
        let (prow, after) = rest.split_at_mut(n);
        let others = before.chunks_exact_mut(n).enumerate().chain(
            after
                .chunks_exact_mut(n)
                .enumerate()
                .map(|(i, row)| (pr + 1 + i, row)),
        );
        for (ri, row) in others {
            let f = row[pc];
            if f != 0.0 {
                for &c in &self.nz {
                    row[c] -= f * prow[c];
                }
                row[pc] = 0.0; // exact zero to contain drift
                self.rhs[ri] -= f * rhs_pr;
            }
        }
        let f = self.d[pc];
        if f != 0.0 {
            for &c in &self.nz {
                self.d[c] -= f * prow[c];
            }
        }
        self.d[pc] = 0.0;
        let out = self.basis[pr];
        self.row_of[out] = NONBASIC;
        self.row_of[pc] = pr;
        self.basis[pr] = pc;
        self.since_refactor += 1;
    }

    /// Moves nonbasic column `q` by `step`, carrying every basic value.
    fn step(&mut self, q: usize, step: f64) {
        let n = self.n;
        for r in 0..self.m {
            let f = self.a[r * n + q];
            if f != 0.0 {
                self.x[self.basis[r]] -= f * step;
            }
        }
        self.x[q] += step;
    }

    /// Dual simplex iterations: repairs primal infeasibility while the
    /// reduced costs stay dual feasible. One tick per iteration.
    fn dual(&mut self, budget: &Budget, iterations: &mut usize) -> Result<End, Exhaustion> {
        let (m, n) = (self.m, self.n);
        let mut degen_run = 0usize;
        for _ in 0..50 * (m + n).max(200) {
            budget.tick()?;
            let bland = degen_run >= DEGEN_SWITCH;
            // Leaving row: the largest bound violation relative to its
            // Devex weight (Bland: the least basic column index among
            // violated rows).
            let mut pr = NONBASIC;
            let mut worst = 0.0;
            for r in 0..m {
                let j = self.basis[r];
                let v = self.x[j];
                let gap = if v < self.lo[j] - FEAS_TOL {
                    self.lo[j] - v
                } else if v > self.hi[j] + FEAS_TOL {
                    v - self.hi[j]
                } else {
                    continue;
                };
                if bland {
                    if pr == NONBASIC || j < self.basis[pr] {
                        pr = r;
                    }
                } else if gap * gap > worst * self.weights[r] {
                    worst = gap * gap / self.weights[r];
                    pr = r;
                }
            }
            if pr == NONBASIC {
                return Ok(End::Optimal);
            }
            let p = self.basis[pr];
            let rise = self.x[p] < self.lo[p];
            let target = if rise { self.lo[p] } else { self.hi[p] };
            // Entering column: x_p = rhs − Σ α_j x_j, so a column moves
            // x_p toward `target` by rising when `α < 0` equals `rise`.
            // Least dual ratio |d_j / α_j| (ties: larger |α|, or under
            // Bland the least index).
            let row = &self.a[pr * n..(pr + 1) * n];
            let mut q = NONBASIC;
            let mut best = f64::INFINITY;
            let mut best_abs = 0.0;
            for j in 0..n {
                let alpha = row[j];
                if alpha.abs() <= PIVOT_TOL || self.row_of[j] != NONBASIC {
                    continue;
                }
                let up = (alpha < 0.0) == rise;
                let movable = if up {
                    self.x[j] < self.hi[j]
                } else {
                    self.x[j] > self.lo[j]
                };
                if !movable {
                    continue;
                }
                let dj = if up { self.d[j] } else { -self.d[j] };
                let ratio = dj.max(0.0) / alpha.abs();
                let take = ratio < best - RATIO_TIE
                    || (!bland && ratio <= best + RATIO_TIE && alpha.abs() > best_abs);
                if take {
                    best = ratio;
                    best_abs = alpha.abs();
                    q = j;
                }
            }
            if q == NONBASIC {
                // No column can repair the row. Confirm the violation
                // on a freshly computed value before calling it.
                let v = self.row_value(pr);
                self.x[p] = v;
                if v < self.lo[p] - FEAS_TOL || v > self.hi[p] + FEAS_TOL {
                    return Ok(End::Infeasible);
                }
                continue;
            }
            if self.d[q].abs() <= DUAL_TOL {
                degen_run += 1;
            } else {
                degen_run = 0;
            }
            // Devex weight update from the pivot column.
            let alpha = self.a[pr * n + q];
            let wr = self.weights[pr];
            for r in 0..m {
                let ratio = self.a[r * n + q] / alpha;
                if ratio != 0.0 {
                    self.weights[r] = self.weights[r].max(ratio * ratio * wr);
                }
            }
            self.weights[pr] = (wr / (alpha * alpha)).max(1.0);
            let delta = (self.x[p] - target) / alpha;
            self.step(q, delta);
            self.x[p] = target;
            self.pivot(pr, q);
            *iterations += 1;
        }
        Ok(End::Stalled)
    }

    /// Primal simplex iterations from a primal-feasible basis: optimizes
    /// `cost` with bound flips in the ratio test. One tick per iteration.
    fn primal(&mut self, budget: &Budget, iterations: &mut usize) -> Result<End, Exhaustion> {
        let (m, n) = (self.m, self.n);
        let mut degen_run = 0usize;
        for _ in 0..50 * (m + n).max(200) {
            budget.tick()?;
            let bland = degen_run >= DEGEN_SWITCH;
            // Entering column: the largest improving reduced cost whose
            // column can move that way (Bland: the least such index).
            let mut q = NONBASIC;
            let mut best = DUAL_TOL;
            for j in 0..n {
                if self.row_of[j] != NONBASIC {
                    continue;
                }
                let dj = self.d[j];
                let improving = (dj < -DUAL_TOL && self.x[j] < self.hi[j])
                    || (dj > DUAL_TOL && self.x[j] > self.lo[j]);
                if !improving {
                    continue;
                }
                if bland {
                    q = j;
                    break;
                }
                if dj.abs() > best {
                    best = dj.abs();
                    q = j;
                }
            }
            if q == NONBASIC {
                return Ok(End::Optimal);
            }
            let dir = if self.d[q] < 0.0 { 1.0 } else { -1.0 };
            // Ratio test: the entering column's own range (a bound flip)
            // against each basic column's room (ties: least basic index).
            let mut step = self.hi[q] - self.lo[q];
            let mut pr = NONBASIC;
            for r in 0..m {
                let g = self.a[r * n + q] * dir;
                let j = self.basis[r];
                let room = if g > PIVOT_TOL {
                    (self.x[j] - self.lo[j]).max(0.0) / g
                } else if g < -PIVOT_TOL {
                    (self.hi[j] - self.x[j]).max(0.0) / -g
                } else {
                    continue;
                };
                if room < step - RATIO_TIE
                    || (room <= step + RATIO_TIE && pr != NONBASIC && j < self.basis[pr])
                {
                    step = room;
                    pr = r;
                }
            }
            if step == f64::INFINITY {
                return Ok(End::Unbounded);
            }
            if step <= RATIO_TIE {
                degen_run += 1;
            } else {
                degen_run = 0;
            }
            let leaves_low = pr != NONBASIC && self.a[pr * n + q] * dir > 0.0;
            self.step(q, dir * step);
            if pr == NONBASIC {
                self.x[q] = if dir > 0.0 { self.hi[q] } else { self.lo[q] };
            } else {
                let p = self.basis[pr];
                self.x[p] = if leaves_low { self.lo[p] } else { self.hi[p] };
                self.pivot(pr, q);
            }
            *iterations += 1;
        }
        Ok(End::Stalled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(
        obj: Vec<f64>,
        rows: Vec<(Vec<(usize, f64)>, Sense, f64)>,
        lo: Vec<f64>,
        hi: Vec<f64>,
    ) -> LpProblem {
        LpProblem { obj, rows, lo, hi }
    }

    fn solve(p: &LpProblem) -> LpOutcome {
        solve_lp_with(p, &Budget::unlimited()).expect("unlimited solve")
    }

    #[test]
    fn textbook_maximization() {
        // max 5x+4y s.t. 6x+4y<=24, x+2y<=6  -> x=3, y=1.5, obj 21
        let p = lp(
            vec![-5.0, -4.0],
            vec![
                (vec![(0, 6.0), (1, 4.0)], Sense::Le, 24.0),
                (vec![(0, 1.0), (1, 2.0)], Sense::Le, 6.0),
            ],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let s = solve(&p).optimal().expect("optimal");
        assert!((s.objective + 21.0).abs() < 1e-6);
        assert!((s.x[0] - 3.0).abs() < 1e-6);
        assert!((s.x[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn equality_and_ge_rows() {
        // min x+y s.t. x+y = 4, x >= 1, y >= 1
        let p = lp(
            vec![1.0, 1.0],
            vec![(vec![(0, 1.0), (1, 1.0)], Sense::Eq, 4.0)],
            vec![1.0, 1.0],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let s = solve(&p).optimal().expect("optimal");
        assert!((s.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2
        let p = lp(
            vec![0.0],
            vec![
                (vec![(0, 1.0)], Sense::Le, 1.0),
                (vec![(0, 1.0)], Sense::Ge, 2.0),
            ],
            vec![0.0],
            vec![f64::INFINITY],
        );
        assert!(matches!(solve(&p), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        // min -x, x >= 0, no upper limit
        let p = lp(vec![-1.0], vec![], vec![0.0], vec![f64::INFINITY]);
        assert!(matches!(solve(&p), LpOutcome::Unbounded));
    }

    #[test]
    fn respects_upper_bounds() {
        // min -x, 0 <= x <= 7
        let p = lp(vec![-1.0], vec![], vec![0.0], vec![7.0]);
        let s = solve(&p).optimal().expect("optimal");
        assert!((s.x[0] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn free_variable_split() {
        // min x s.t. x >= -5 as a row (x itself free)
        let p = lp(
            vec![1.0],
            vec![(vec![(0, 1.0)], Sense::Ge, -5.0)],
            vec![f64::NEG_INFINITY],
            vec![f64::INFINITY],
        );
        let s = solve(&p).optimal().expect("optimal");
        assert!((s.x[0] + 5.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_variable_substituted() {
        // x fixed at 2; min y s.t. y >= x  -> y = 2
        let p = lp(
            vec![0.0, 1.0],
            vec![(vec![(1, 1.0), (0, -1.0)], Sense::Ge, 0.0)],
            vec![2.0, 0.0],
            vec![2.0, f64::INFINITY],
        );
        let s = solve(&p).optimal().expect("optimal");
        assert!((s.x[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn crossed_bounds_infeasible() {
        let p = lp(vec![0.0], vec![], vec![3.0], vec![1.0]);
        assert!(matches!(solve(&p), LpOutcome::Infeasible));
    }

    #[test]
    fn negative_rhs_row_normalized() {
        // min x s.t. -x <= -3  (i.e. x >= 3)
        let p = lp(
            vec![1.0],
            vec![(vec![(0, -1.0)], Sense::Le, -3.0)],
            vec![0.0],
            vec![f64::INFINITY],
        );
        let s = solve(&p).optimal().expect("optimal");
        assert!((s.x[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn vacuous_violated_row_infeasible() {
        // 0 >= 1 after a fixed variable cancels out.
        let p = lp(
            vec![0.0],
            vec![(vec![(0, 1.0)], Sense::Ge, 3.0)],
            vec![2.0],
            vec![2.0],
        );
        assert!(matches!(solve(&p), LpOutcome::Infeasible));
    }

    #[test]
    fn degenerate_cycling_guard() {
        // Beale's classic cycling example (with Dantzig rule it cycles
        // without anti-cycling); ensure we terminate at the optimum.
        let p = lp(
            vec![-0.75, 150.0, -0.02, 6.0],
            vec![
                (
                    vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
                    Sense::Le,
                    0.0,
                ),
                (
                    vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
                    Sense::Le,
                    0.0,
                ),
                (vec![(2, 1.0)], Sense::Le, 1.0),
            ],
            vec![0.0; 4],
            vec![f64::INFINITY; 4],
        );
        let s = solve(&p).optimal().expect("optimal");
        assert!((s.objective + 0.05).abs() < 1e-6);
    }

    /// A random LP over `0 <= x_j <= ub_j` with a handful of rows, and a
    /// sequence of bound boxes inside the root box (tightenings and
    /// relaxations alike), with a zero or a linear objective.
    fn lp_and_boxes() -> impl proptest::strategy::Strategy<Value = (LpProblem, Vec<Vec<(f64, f64)>>)>
    {
        use proptest::prelude::*;
        (2usize..=5, 1usize..=5, any::<bool>()).prop_flat_map(|(ncols, nrows, zero)| {
            let row = (
                proptest::collection::vec(-4i64..=4, ncols),
                0usize..3,
                -6i64..=12,
            );
            let bounds = proptest::collection::vec((0i64..=4, 0i64..=4), ncols);
            (
                proptest::collection::vec(-3i64..=3, ncols),
                proptest::collection::vec(row, nrows),
                proptest::collection::vec(bounds, 1..6),
            )
                .prop_map(move |(obj, rows, boxes)| {
                    let p = LpProblem {
                        obj: obj
                            .iter()
                            .map(|&c| if zero { 0.0 } else { c as f64 })
                            .collect(),
                        rows: rows
                            .into_iter()
                            .map(|(terms, sense, rhs)| {
                                let terms = terms
                                    .into_iter()
                                    .enumerate()
                                    .map(|(j, c)| (j, c as f64))
                                    .collect();
                                (terms, [Sense::Le, Sense::Ge, Sense::Eq][sense], rhs as f64)
                            })
                            .collect(),
                        lo: vec![0.0; ncols],
                        hi: vec![4.0; ncols],
                    };
                    let boxes = boxes
                        .into_iter()
                        .map(|b| {
                            b.into_iter()
                                .map(|(x, y)| (x.min(y) as f64, x.max(y) as f64))
                                .collect()
                        })
                        .collect();
                    (p, boxes)
                })
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// One live tableau re-solved in place through a sequence of
        /// bound boxes reaches the verdict and optimum of a cold solve
        /// of each box.
        #[test]
        fn in_place_resolves_match_cold_solves(case in lp_and_boxes()) {
            let (p, boxes) = case;
            let budget = Budget::unlimited();
            let mut live = Lp::new(&p).expect("root bounds are ordered");
            for b in boxes {
                let lo: Vec<f64> = b.iter().map(|r| r.0).collect();
                let hi: Vec<f64> = b.iter().map(|r| r.1).collect();
                let cold = solve(&LpProblem { lo: lo.clone(), hi: hi.clone(), ..p.clone() });
                proptest::prop_assert!(live.set_bounds(&lo, &hi));
                match (cold, live.solve(&budget).expect("re-solve")) {
                    (LpOutcome::Optimal(c), LpOutcome::Optimal(w)) => {
                        proptest::prop_assert!((c.objective - w.objective).abs() < 1e-6,
                            "objective: cold {} vs in place {}", c.objective, w.objective);
                        let point = w.x.iter().zip(&lo).zip(&hi);
                        proptest::prop_assert!(point.clone().all(|((&x, &l), &h)| l - 1e-6 <= x && x <= h + 1e-6));
                        for (terms, sense, rhs) in &p.rows {
                            let lhs: f64 = terms.iter().map(|&(j, c)| c * w.x[j]).sum();
                            proptest::prop_assert!(match sense {
                                Sense::Le => lhs <= rhs + 1e-6,
                                Sense::Ge => lhs >= rhs - 1e-6,
                                Sense::Eq => (lhs - rhs).abs() <= 1e-6,
                            }, "row violated at {:?}", w.x);
                        }
                    }
                    (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                    (c, w) => proptest::prop_assert!(false, "cold {c:?} vs in place {w:?}"),
                }
            }
        }
    }
}
