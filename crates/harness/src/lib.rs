//! Sharded parallel corpus execution for the scheduling experiments.
//!
//! The paper's tables are built by running the rate-optimal scheduler
//! over a 1066-loop corpus. Sequentially that is embarrassingly slow and
//! embarrassingly parallel at once: every loop is independent. This
//! crate is the harness that exploits that:
//!
//! * [`executor`] — a hand-rolled work-stealing thread pool (per-worker
//!   deques, no external dependencies) that shards the corpus and
//!   returns results **in corpus order**, so a parallel run is
//!   indistinguishable from a sequential one;
//! * [`run`] — the [`Harness`] orchestrator: an isolated budget per
//!   loop (reusing the `swp-milp` budget and cancellation machinery),
//!   cooperative Ctrl-C-style draining, and cache-first execution;
//! * [`record`] / [`sink`] — the per-loop [`LoopRecord`] with its JSONL
//!   schema, and streaming sinks that write each record to disk the
//!   moment its loop finishes;
//! * [`cache`] — the on-disk result cache: the JSONL artifact read back
//!   keyed by `(DDG, machine, config)` fingerprints, so re-runs skip
//!   already-solved loops and table binaries can rebuild their buckets
//!   from the artifact alone;
//! * [`telemetry`] — per-run aggregation: engine mix, solver effort,
//!   solve-time histogram, and the wall-time vs. summed-solve-time
//!   split that makes parallel speedup measurable;
//! * [`json`] / [`cli`] — the dependency-free JSON subset and flag
//!   parser the above are built on.
//!
//! # Determinism
//!
//! With isolated per-loop budgets (the default), a tick-capped run
//! produces byte-identical record sequences at any worker count — the
//! regression tests compare 1-, 4-, and 8-worker runs line by line.
//! See [`run`] for the budget-mode trade-off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod executor;
pub mod json;
pub mod record;
pub mod run;
pub mod sink;
pub mod telemetry;

pub use cache::ResultCache;
pub use cli::Flags;
pub use record::{CacheKey, LoopRecord, RecordReuse, SuiteOutcome, SuiteRunConfig, SCHEMA_VERSION};
pub use run::{Harness, HarnessConfig, HarnessError, RunReport};
pub use sink::{JsonlSink, NullSink, RunSink, VecSink};
pub use telemetry::RunSummary;
