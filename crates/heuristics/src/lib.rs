//! Heuristic modulo schedulers — the baseline class the paper's ILP is
//! measured against.
//!
//! Two schedulers, both honoring full reservation tables and binding
//! every operation to a physical function unit at schedule time:
//!
//! * [`IterativeModuloScheduler`] — Rau's *iterative modulo scheduling*
//!   (MICRO '94, \[22\]): height-priority placement with bounded eviction
//!   and re-placement ("budget"), trying `II = MII, MII+1, …`;
//! * [`ListModuloScheduler`] — the same placement rule without
//!   backtracking: first conflict at an `II` aborts to `II+1`. A weaker
//!   baseline that shows what eviction buys.
//!
//! Both produce [`swp_machine::PipelinedSchedule`]s that pass the same
//! independent validator as the ILP schedules, so quality comparisons
//! (`II` achieved vs. `T_lb`) are apples-to-apples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ims;
mod mrt;

pub use ims::{HeuristicError, HeuristicResult, IterativeModuloScheduler, ListModuloScheduler};
pub use mrt::ModuloReservationTable;
