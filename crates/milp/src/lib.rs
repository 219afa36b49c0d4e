//! Exact and floating-point mixed-integer linear programming.
//!
//! This crate is the solver substrate for the software-pipelining ILP
//! formulations of Altman, Govindarajan & Gao (PLDI 1995). It is written
//! from scratch and has no external dependencies:
//!
//! * [`Model`] — a small modeling layer: variables (continuous, integer,
//!   binary) with bounds, linear constraints, and a linear objective.
//! * [`simplex`] — a bounded-variable simplex over `f64`: one slack per
//!   row, box bounds in the ratio tests, dual iterations to restore
//!   feasibility after bounds change and primal ones to finish a cold
//!   start, sparse-row pivoting, and a Bland anti-cycling fallback.
//! * [`branch`] — branch-and-bound for mixed-integer models with
//!   most-fractional branching, depth-first search, a fix-and-propagate
//!   completion at nodes whose binaries are integral, and budget limits.
//!   The relaxation's tableau is built once and re-solved in place at
//!   every node.
//! * [`exact`] — arbitrary-precision integers and rationals plus a dense
//!   exact rational simplex, used in tests and audits to cross-check the
//!   `f64` path on small instances.
//!
//! # Example
//!
//! Maximize `5x + 4y` subject to `6x + 4y <= 24`, `x + 2y <= 6`:
//!
//! ```
//! use swp_milp::{Model, Sense, VarKind};
//!
//! # fn main() -> Result<(), swp_milp::SolveError> {
//! let mut m = Model::new();
//! let x = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY, "x");
//! let y = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY, "y");
//! m.maximize([(x, 5.0), (y, 4.0)]);
//! m.add_constr([(x, 6.0), (y, 4.0)], Sense::Le, 24.0);
//! m.add_constr([(x, 1.0), (y, 2.0)], Sense::Le, 6.0);
//! let sol = m.solve()?;
//! assert!((sol.objective() - 21.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod budget;
pub mod exact;
pub mod model;
pub mod simplex;

pub use branch::{BranchBound, MipSolution, SearchStats, SolveLimits, StopReason};
pub use budget::{Budget, CancelToken, Exhaustion};
pub use model::{ConstrId, LinExpr, Model, Sense, VarId, VarKind};
pub use simplex::{LpBasis, LpOutcome, LpSolution, PivotLayout, WarmLpResult};

use std::error::Error;
use std::fmt;

/// Reason a solve did not produce an optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The time or tick budget ran out before optimality was proven.
    ///
    /// Carries the best incumbent objective found, if any.
    LimitReached(Option<f64>),
    /// The model is malformed (e.g. a variable bound with `lo > hi`).
    BadModel(String),
    /// The `f64` pipeline lost numerical traction (a simplex stall or
    /// cycling that even the Bland fallback could not resolve). The model
    /// itself may be fine; callers should fall back to another engine.
    Numerical(String),
    /// A [`CancelToken`] fired mid-solve; the search stopped
    /// cooperatively without a usable answer.
    Cancelled,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::Unbounded => write!(f, "model is unbounded"),
            SolveError::LimitReached(Some(_)) => {
                write!(f, "search limit reached with an unproven incumbent")
            }
            SolveError::LimitReached(None) => {
                write!(
                    f,
                    "search limit reached before any feasible point was found"
                )
            }
            SolveError::BadModel(msg) => write!(f, "malformed model: {msg}"),
            SolveError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            SolveError::Cancelled => write!(f, "solve cancelled"),
        }
    }
}

impl Error for SolveError {}

impl From<Exhaustion> for SolveError {
    fn from(e: Exhaustion) -> Self {
        match e {
            Exhaustion::Cancelled => SolveError::Cancelled,
            Exhaustion::Deadline | Exhaustion::Ticks => SolveError::LimitReached(None),
        }
    }
}
