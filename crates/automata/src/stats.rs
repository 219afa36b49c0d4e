//! Zero-valued stand-in for the retired hazard-automaton telemetry.
//!
//! [`snapshot`] always returns zeros, so a before/after delta is zero
//! too. The type and function stay only because the `benchmark/`
//! package reads them; both are deleted by the benchmark change that
//! reads per-layer counts from each solve's own trace.

/// A snapshot of the (retired) oracle counters; always zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleCounters {
    /// Pairwise collision-matrix probes (always 0).
    pub matrix_queries: u64,
    /// Automata served from the memo registry (always 0).
    pub memo_hits: u64,
    /// Automata constructed from scratch (always 0).
    pub memo_builds: u64,
}

impl OracleCounters {
    /// The counter delta since an `earlier` snapshot (saturating, so a
    /// stale snapshot never underflows).
    pub fn since(&self, earlier: &OracleCounters) -> OracleCounters {
        OracleCounters {
            matrix_queries: self.matrix_queries.saturating_sub(earlier.matrix_queries),
            memo_hits: self.memo_hits.saturating_sub(earlier.memo_hits),
            memo_builds: self.memo_builds.saturating_sub(earlier.memo_builds),
        }
    }
}

/// Reads the counters: all zero, since nothing increments them.
pub fn snapshot() -> OracleCounters {
    OracleCounters::default()
}
