//! Arbitrary-precision arithmetic and an exact rational simplex.
//!
//! The `f64` path in [`crate::simplex`] is fast but decides feasibility
//! with tolerances. For audits — and in this crate's tests — the same LPs
//! can be re-solved here by [`solve_lp_exact`], a dense [`BigRat`]
//! tableau under Bland's rule: slower, but free of rounding artifacts,
//! guaranteed to terminate, and the only exact reference. No solve path
//! calls it.

mod bigint;
mod rational;
mod simplex;

pub use bigint::BigInt;
pub use rational::BigRat;
pub use simplex::{solve_lp_exact, ExactLp, ExactOutcome};
