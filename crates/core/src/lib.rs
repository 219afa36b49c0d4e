//! Rate-optimal software pipelining in the presence of structural
//! hazards — the unified ILP scheduling + mapping framework of
//! Altman, Govindarajan & Gao (PLDI 1995).
//!
//! The crate turns a loop's data-dependence graph ([`swp_ddg::Ddg`]) and
//! a machine description ([`swp_machine::Machine`]) into a software-
//! pipelined schedule with a *fixed function-unit assignment*, at the
//! smallest feasible initiation interval:
//!
//! * [`formulation`] builds the paper's ILP at a candidate period `T`:
//!   the `A`-matrix issue variables, the `t = T·K + Aᵀ·[0..T)` linkage,
//!   dependence rows, per-stage capacity rows derived from reservation
//!   tables, and — the paper's contribution — the mapping as linear
//!   circular-arc-coloring constraints;
//! * [`RateOptimalScheduler`] drives `T = T_lb, T_lb+1, …` to the first
//!   feasible period;
//! * [`PipelinedSchedule`] carries the result, exposes the `T`/`K`/`A`
//!   matrices of the paper's Figure 3, and self-validates against an
//!   independent cycle-accurate checker;
//! * [`coloring`] gives the external circular-arc view (Figure 4) used to
//!   show that capacity-feasible schedules may admit no fixed assignment.
//!
//! # Example
//!
//! ```
//! use swp_core::{RateOptimalScheduler, SchedulerConfig};
//! use swp_ddg::{Ddg, OpClass};
//! use swp_machine::Machine;
//!
//! # fn main() -> Result<(), swp_core::ScheduleError> {
//! // a[j] = a[j-1] * b[j]   (recurrence through an FP multiply)
//! let mut g = Ddg::new();
//! let ld = g.add_node("load b[j]", OpClass::new(2), 3);
//! let mul = g.add_node("fmul", OpClass::new(1), 2);
//! let st = g.add_node("store a[j]", OpClass::new(2), 3);
//! g.add_edge(ld, mul, 0).unwrap();
//! g.add_edge(mul, mul, 1).unwrap();
//! g.add_edge(mul, st, 0).unwrap();
//!
//! let machine = Machine::example_pldi95();
//! let result = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
//!     .schedule(&g)?;
//! assert!(result.is_rate_optimal());
//! assert!(result.schedule.validate(&g, &machine).is_ok());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod coloring;
pub mod formulation;
mod scheduler;

pub use formulation::{Formulation, FormulationOptions, MappingMode, Objective};
pub use scheduler::{
    Engine, FaultPlan, Optimality, PeriodAttempt, PeriodOutcome, RateOptimalScheduler, ReuseStats,
    ScheduleResult, SchedulerConfig, SolvedBy, SolverStats, WarmState,
};
pub use swp_machine::{Matrices, PipelinedSchedule, ValidationError};
pub use swp_milp::{Budget, CancelToken};

use std::error::Error;
use std::fmt;
use swp_ddg::{NodeId, OpClass};
use swp_milp::SolveError;

/// Errors raised by formulation building or the scheduling driver.
#[derive(Debug, Clone)]
pub enum ScheduleError {
    /// The DDG has a zero-distance dependence cycle: no period works.
    NoFinitePeriod,
    /// The DDG references a class the machine does not define.
    UnknownClass(OpClass),
    /// The machine itself is malformed (e.g. a zero-unit class).
    BadMachine(String),
    /// This specific period cannot work (modulo constraint or self-loop
    /// test failed before solving). The driver treats this as "try the
    /// next period".
    PeriodInfeasible {
        /// The rejected period.
        period: u32,
    },
    /// No feasible period found up to the configured cap.
    NotFound {
        /// The lower bound that the search started from.
        t_lb: u32,
        /// The largest period attempted.
        t_max: u32,
        /// The per-period log.
        attempts: Vec<PeriodAttempt>,
    },
    /// Internal invariant failure: a schedule deemed feasible could not
    /// be completed to a unit assignment.
    MappingGap {
        /// Node that could not be mapped.
        node: NodeId,
        /// Period at which it happened.
        period: u32,
    },
    /// The underlying MILP solver failed structurally.
    Solver(SolveError),
    /// A schedule produced by an engine failed the independent
    /// cycle-accurate re-check, and the other engine could not produce a
    /// verified schedule at that period either. Indicates a bug in the
    /// producing engine; the bad schedule is never returned.
    VerificationFailed {
        /// Period of the rejected schedule.
        period: u32,
        /// Engine that produced the rejected schedule.
        engine: SolvedBy,
        /// What the checker objected to.
        error: ValidationError,
    },
    /// The budget's cancel token fired; the search stopped cooperatively
    /// without an answer.
    Cancelled,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoFinitePeriod => {
                write!(f, "zero-distance dependence cycle: no finite period")
            }
            ScheduleError::UnknownClass(c) => write!(f, "machine does not define {c}"),
            ScheduleError::BadMachine(m) => write!(f, "malformed machine: {m}"),
            ScheduleError::PeriodInfeasible { period } => {
                write!(f, "period {period} infeasible before solving")
            }
            ScheduleError::NotFound { t_lb, t_max, .. } => {
                write!(f, "no schedule found for T in [{t_lb}, {t_max}]")
            }
            ScheduleError::MappingGap { node, period } => write!(
                f,
                "internal error: node {} unmappable at period {period}",
                node.index()
            ),
            ScheduleError::Solver(e) => write!(f, "solver failure: {e}"),
            ScheduleError::VerificationFailed {
                period,
                engine,
                error,
            } => write!(
                f,
                "schedule at period {period} from {engine:?} failed re-verification: {error}"
            ),
            ScheduleError::Cancelled => write!(f, "scheduling cancelled"),
        }
    }
}

impl Error for ScheduleError {}

impl From<SolveError> for ScheduleError {
    fn from(e: SolveError) -> Self {
        ScheduleError::Solver(e)
    }
}
