//! Shared experiment machinery for the table/figure regeneration
//! binaries and the Criterion benches.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` (run `cargo run -p swp-bench --release --bin table4`);
//! this library holds the pieces they share: ASCII table rendering,
//! Gantt views of periodic schedules, and the Table 4 / Table 5 corpus
//! runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod gantt;
pub mod suite_run;
pub mod tables;

pub use gantt::{flat_gantt, kernel_gantt};
pub use suite_run::{run_suite, LoopRecord, SuiteOutcome, SuiteRunConfig};
pub use tables::render_table;

/// Parses the shared `--engine ilp|cp|portfolio` harness flag (default
/// `ilp`), selecting the exact engine that settles each period.
///
/// # Errors
///
/// A usage message when the value names no engine.
pub fn parse_engine(flags: &swp_harness::Flags) -> Result<swp_core::Engine, String> {
    let name = flags.get("engine").unwrap_or("ilp");
    swp_core::Engine::from_name(name).ok_or_else(|| {
        format!("flag --engine: unknown engine `{name}` (expected `ilp`, `cp`, or `portfolio`)")
    })
}
