//! Retired hazard-automaton layer: only a zero-valued telemetry stub
//! remains.
//!
//! The CP engine of `swp-cpsat` derives its structural facts from the
//! reservation tables while it builds its model (conflict vectors from
//! the stage offsets, per-unit capacity from
//! `ReservationTable::max_ops_per_period`), so nothing in the solve path
//! uses this crate.
//!
//! [`stats`] stays only because the `benchmark/` package compiles
//! against it. It reports zeros, and it goes, together with this crate's
//! remaining dependency entries, in the benchmark change that makes the
//! benchmark read its per-layer counts from each solve's own trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;
