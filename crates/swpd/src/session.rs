//! Daemon-hosted incremental solve sessions.
//!
//! A session (`POST /session`, op `session_open`) pins one parsed case
//! plus its [`SolveSession`] warm state — carried refutations, simplex
//! basis, schedule hint, CP no-goods, exact-replay cache — in daemon
//! memory. Edits (`POST /session/{id}/edit`) invalidate only the edit's
//! dependency cone worth of facts; solves (`POST /session/{id}/solve`)
//! then run warm, and every operation feeds its reuse-counter delta into
//! the daemon's monotone telemetry.
//!
//! Session operations run on the connection thread, not the worker
//! pool: a session's edits and solves are causally ordered per client,
//! so pipelining them through the queue would just reorder what the
//! protocol forbids reordering. Budgets, cancel-token registration (for
//! drain hard-stop), panic isolation and reply classification are the
//! worker path's own.

use crate::proto::{Reply, ReplyStatus};
use crate::state::{lock, Shared};
use crate::worker::classify;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use swp_core::{ReuseStats, SchedulerConfig};
use swp_incr::{EditOp, SolveSession};
use swp_milp::CancelToken;

/// One hosted session plus the reuse totals already pushed to the
/// daemon counters (so each operation reports only its delta).
struct Hosted {
    session: SolveSession,
    reported: ReuseStats,
}

/// The daemon's capped, id-keyed session registry.
pub(crate) struct SessionStore {
    sessions: Mutex<HashMap<u64, Arc<Mutex<Hosted>>>>,
    next: AtomicU64,
}

impl fmt::Debug for SessionStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionStore")
            .field("live", &lock(&self.sessions).len())
            .finish()
    }
}

impl Default for SessionStore {
    fn default() -> Self {
        SessionStore {
            sessions: Mutex::new(HashMap::new()),
            next: AtomicU64::new(0),
        }
    }
}

impl SessionStore {
    fn get(&self, id: u64) -> Option<Arc<Mutex<Hosted>>> {
        lock(&self.sessions).get(&id).cloned()
    }
}

/// What a session's counters gained since `reported` (every `ReuseStats`
/// field is a lifetime total and monotone, so plain subtraction is the
/// delta).
fn reuse_delta(now: &ReuseStats, reported: &ReuseStats) -> ReuseStats {
    let mut d = ReuseStats::default();
    d.basis_hits = now.basis_hits - reported.basis_hits;
    d.basis_exports = now.basis_exports - reported.basis_exports;
    d.nogood_replays = now.nogood_replays - reported.nogood_replays;
    d.ims_hint_hits = now.ims_hint_hits - reported.ims_hint_hits;
    d.periods_skipped = now.periods_skipped - reported.periods_skipped;
    d.replays = now.replays - reported.replays;
    d.cone_nodes = now.cone_nodes - reported.cone_nodes;
    d
}

fn publish_reuse(shared: &Shared, hosted: &mut Hosted) {
    let now = hosted.session.reuse();
    shared
        .stats
        .record_reuse(&reuse_delta(&now, &hosted.reported));
    hosted.reported = now;
}

/// Handles `session_open`: parse, admit (capacity + drain), register.
pub(crate) fn open(shared: &Shared, id: &str, case: &str) -> Reply {
    if shared.draining.load(Ordering::Relaxed) {
        let mut r = Reply::error(id, ReplyStatus::Overloaded, "daemon is draining");
        r.retry_after_ms = Some(shared.retry_after_ms());
        return r;
    }
    let parsed = match swp_fuzz::parse_regression(id, case) {
        Ok(p) => p.case,
        Err(why) => return Reply::error(id, ReplyStatus::BadRequest, why),
    };
    let config = SchedulerConfig {
        time_limit_per_t: None,
        time_limit_total: None,
        ..SchedulerConfig::default()
    };
    let session = SolveSession::from_ddg(parsed.machine, config, &parsed.ddg);

    let store = &shared.sessions;
    let mut map = lock(&store.sessions);
    if map.len() >= shared.config.session_capacity {
        drop(map);
        let mut r = Reply::error(
            id,
            ReplyStatus::Overloaded,
            format!(
                "session capacity ({}) reached; close a session first",
                shared.config.session_capacity
            ),
        );
        r.retry_after_ms = Some(shared.retry_after_ms());
        return r;
    }
    let handle = store.next.fetch_add(1, Ordering::Relaxed);
    let mut reply = Reply::status(id, ReplyStatus::Ok);
    reply.session = Some(handle);
    reply.nodes = Some(session.num_nodes() as u64);
    reply.edges = Some(session.num_edges() as u64);
    map.insert(
        handle,
        Arc::new(Mutex::new(Hosted {
            session,
            reported: ReuseStats::default(),
        })),
    );
    drop(map);
    shared.stats.count_session_open();
    reply
}

/// Handles `session_edit`: apply one DDG edit, report the invalidated
/// cone size and the new shape.
pub(crate) fn edit(shared: &Shared, id: &str, handle: u64, op: &EditOp) -> Reply {
    let Some(hosted) = shared.sessions.get(handle) else {
        return Reply::error(
            id,
            ReplyStatus::BadRequest,
            format!("unknown session {handle}"),
        );
    };
    let mut hosted = lock(&hosted);
    match hosted.session.apply(op) {
        Ok(cone) => {
            shared.stats.count_session_edit();
            publish_reuse(shared, &mut hosted);
            let mut r = Reply::status(id, ReplyStatus::Ok);
            r.session = Some(handle);
            r.cone = Some(cone as u64);
            r.nodes = Some(hosted.session.num_nodes() as u64);
            r.edges = Some(hosted.session.num_edges() as u64);
            r
        }
        Err(e) => Reply::error(id, ReplyStatus::BadRequest, e.to_string()),
    }
}

/// Handles `session_solve`: solve the session's current instance warm,
/// under a budget carved exactly like a worker solve's.
pub(crate) fn solve(
    shared: &Shared,
    id: &str,
    handle: u64,
    ticks: Option<u64>,
    timeout_ms: Option<u64>,
    cancel: &CancelToken,
) -> Reply {
    let Some(hosted) = shared.sessions.get(handle) else {
        return Reply::error(
            id,
            ReplyStatus::BadRequest,
            format!("unknown session {handle}"),
        );
    };
    if shared.hard_drain.load(Ordering::Relaxed) || cancel.is_cancelled() {
        return Reply::error(id, ReplyStatus::Cancelled, "cancelled before solve");
    }

    let budget = match shared.admit(id, ticks, timeout_ms, cancel) {
        Ok(budget) => budget,
        Err(refused) => return *refused,
    };

    // Register for the drain hard-stop, exactly like a queued job.
    let seq = shared.alloc_seq();
    lock(&shared.inflight).insert(seq, cancel.clone());
    shared.stats.enter_flight();

    let mut hosted = lock(&hosted);
    let ticks_before = budget.ticks_used();
    let started = Instant::now();
    let solved = {
        let hosted = &mut *hosted;
        catch_unwind(AssertUnwindSafe(|| hosted.session.solve_with(&budget)))
    };
    let solve_time = started.elapsed();
    let used = budget.ticks_used().saturating_sub(ticks_before);

    shared.stats.leave_flight();
    shared.deregister(seq);
    shared.observe_solve_us(solve_time.as_micros() as u64);
    shared.stats.count_session_solve();

    let mut reply = classify(id, &solved, used, solve_time);
    reply.session = Some(handle);
    publish_reuse(shared, &mut hosted);
    reply
}

/// Handles `session_close`.
pub(crate) fn close(shared: &Shared, id: &str, handle: u64) -> Reply {
    match lock(&shared.sessions.sessions).remove(&handle) {
        Some(_) => {
            let mut r = Reply::status(id, ReplyStatus::Ok);
            r.session = Some(handle);
            r
        }
        None => Reply::error(
            id,
            ReplyStatus::BadRequest,
            format!("unknown session {handle}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_delta_subtracts_fieldwise() {
        let mut now = ReuseStats::default();
        now.basis_hits = 5;
        now.periods_skipped = 3;
        now.cone_nodes = 7;
        let mut reported = ReuseStats::default();
        reported.basis_hits = 2;
        reported.cone_nodes = 7;
        let d = reuse_delta(&now, &reported);
        assert_eq!(d.basis_hits, 3);
        assert_eq!(d.periods_skipped, 3);
        assert_eq!(d.cone_nodes, 0);
    }
}
