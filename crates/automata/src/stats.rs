//! Process-wide hazard-automaton telemetry: matrix probes and memo use.
//!
//! Counters are plain relaxed atomics — they are *observability only*
//! and never feed back into scheduling decisions, so cross-thread (and
//! cross-test) interleavings are harmless. The harness snapshots before
//! and after a run and reports the delta.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

static MATRIX_QUERIES: AtomicU64 = AtomicU64::new(0);
static MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static MEMO_BUILDS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the oracle counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleCounters {
    /// Pairwise probes answered by a collision-matrix bit test.
    pub matrix_queries: u64,
    /// Automata served from the `(machine_fingerprint, T)` registry.
    pub memo_hits: u64,
    /// Automata constructed from scratch.
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

    /// Whether any counter is nonzero.
    pub fn any(&self) -> bool {
        self.matrix_queries != 0 || self.memo_hits != 0 || self.memo_builds != 0
    }
}

/// Reads the current counter values.
pub fn snapshot() -> OracleCounters {
    OracleCounters {
        matrix_queries: MATRIX_QUERIES.load(Ordering::Relaxed),
        memo_hits: MEMO_HITS.load(Ordering::Relaxed),
        memo_builds: MEMO_BUILDS.load(Ordering::Relaxed),
    }
}

/// Records `n` collision-matrix bit-test queries.
#[inline]
pub(crate) fn count_matrix_queries(n: u64) {
    MATRIX_QUERIES.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn count_memo_hit() {
    MEMO_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_memo_build() {
    MEMO_BUILDS.fetch_add(1, Ordering::Relaxed);
}

/// Serializes tests that reset the process-global telemetry; see
/// [`reset_for_test`].
static RESET_LOCK: Mutex<()> = Mutex::new(());

/// Holds the telemetry-reset lock for the duration of one test's
/// counter assertions. Returned by [`reset_for_test`]; dropping it
/// releases the lock for the next telemetry-observing test.
#[must_use = "drop the guard only after the test's counter assertions"]
#[derive(Debug)]
pub struct TelemetryResetGuard {
    _lock: MutexGuard<'static, ()>,
}

/// Test-only: zeroes every oracle counter *and* clears the automaton
/// memo registry, under a process-wide lock that the returned guard
/// holds until dropped.
///
/// Counters and the registry are process-global, so test suites running
/// many `#[test]`s in one process double-count each other's queries and
/// see registry entries interned by earlier tests (a first-use
/// `for_machine` may report a memo *hit*). Tests that assert on
/// telemetry must call this once at the top and keep the guard alive —
/// it replaces the ad-hoc snapshot/delta and registry-clear dances —
/// which both resets the world and serializes such tests against each
/// other. Tests that never assert on telemetry need no guard: their
/// stray counts are wiped by the next holder's reset.
pub fn reset_for_test() -> TelemetryResetGuard {
    let lock = match RESET_LOCK.lock() {
        Ok(g) => g,
        // A previous holder panicked mid-test; the counters are mere
        // atomics and about to be zeroed anyway.
        Err(poisoned) => poisoned.into_inner(),
    };
    MATRIX_QUERIES.store(0, Ordering::Relaxed);
    MEMO_HITS.store(0, Ordering::Relaxed);
    MEMO_BUILDS.store(0, Ordering::Relaxed);
    crate::automaton::clear_registry_for_test();
    TelemetryResetGuard { _lock: lock }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_saturating_and_monotone() {
        let before = snapshot();
        count_matrix_queries(3);
        count_memo_hit();
        let delta = snapshot().since(&before);
        // Other tests may run concurrently; deltas are at least ours.
        assert!(delta.matrix_queries >= 3);
        assert!(delta.memo_hits >= 1);
        assert!(delta.any());
        assert_eq!(before.since(&snapshot()), OracleCounters::default());
    }

    #[test]
    fn reset_guard_zeroes_counters_and_serializes_holders() {
        let guard = reset_for_test();
        // Immediately after a reset, only counts made while holding the
        // guard are visible (concurrent guardless tests may still add;
        // the assertions stay one-sided for that reason).
        count_matrix_queries(2);
        let s = snapshot();
        assert!(s.matrix_queries >= 2);
        drop(guard);
        // Re-acquiring after a drop must not deadlock; the second reset
        // wipes what the first holder counted. (No exact zero assertion:
        // guardless tests running concurrently may count in between.)
        let _guard = reset_for_test();
    }
}
