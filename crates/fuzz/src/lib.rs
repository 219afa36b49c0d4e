//! Differential fuzzing and metamorphic testing for the scheduling
//! engines.
//!
//! The workspace has three ways to answer "what is the best initiation
//! interval for this loop on this machine, and what schedule achieves
//! it?": the unified ILP (simplex + branch & bound), the
//! constraint-propagation engine, and iterative modulo scheduling. They
//! must agree — on feasibility, on proven optimality, and on hazard-
//! freedom of every schedule they emit. This crate industrializes that
//! cross-check:
//!
//! * [`gen`] — seeded generators for random DDGs and random machines
//!   (unclean pipelines, multi-stage collisions, non-pipelined units),
//!   in guaranteed-schedulable and adversarial modes;
//! * [`diff`] — the differential runner: every engine configuration
//!   per case, with the oracle properties (checker +
//!   simulator acceptance, proven-`T` agreement, lower-bound respect,
//!   no false refutations) and the metamorphic relations (relabeling
//!   and unit-renaming invariance, latency-scaling monotonicity,
//!   `T+1` confirmation);
//! * [`shrink`](mod@shrink) — a delta-debugging shrinker that minimizes a failing
//!   case while preserving its violation kind;
//! * [`regression`] — self-contained regression files for shrunk
//!   counterexamples, committed under `tests/regressions/` and replayed
//!   by a table-driven test;
//! * [`record`] — the timing-free JSONL artifact record that makes
//!   same-seed campaigns byte-identical.
//!
//! The `fuzz` binary shards a campaign over the `swp-harness`
//! thread-pool executor (`--seed --cases --workers --budget-ms
//! --shrink`); see `TESTING.md` at the repo root for the full test
//! taxonomy this crate slots into.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod gen;
pub mod incr;
pub mod record;
pub mod regression;
pub mod shrink;

pub use diff::{run_case, CaseReport, DiffOptions, Violation, ViolationKind};
pub use gen::{gen_case, gen_cases, FuzzCase, GenConfig, MachineFamily};
pub use incr::{run_incr_case, IncrOptions, IncrReport};
pub use record::{check_json_line, to_json_line, FUZZ_SCHEMA_VERSION};
pub use regression::{parse_regression, write_regression, RegressionCase};
pub use shrink::{shrink, ShrinkOutcome};
