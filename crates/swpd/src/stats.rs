//! Daemon telemetry: relaxed atomic counters plus a wire snapshot.
//!
//! Every counter is monotone non-decreasing for the lifetime of one
//! daemon (the two gauges, `in_flight` and `queue_depth`, are the only
//! exceptions) — the load generator polls `stats` during a run and
//! asserts exactly that. The accounting invariant the daemon maintains:
//! once idle (`in_flight == 0`, `queue_depth == 0`), `requests` equals
//! the sum of the per-status classification counters, because every
//! request is classified as exactly one [`ReplyStatus`].
//!
//! [`ReplyStatus`]: crate::proto::ReplyStatus

use crate::proto::ReplyStatus;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use swp_core::ReuseStats;
use swp_harness::json::{JsonValue, ObjectWriter};

/// Live daemon counters (interior-mutable; shared across threads).
#[derive(Debug, Default)]
pub struct SwpdStats {
    requests: AtomicU64,
    ok: AtomicU64,
    solved: AtomicU64,
    cached: AtomicU64,
    unscheduled: AtomicU64,
    budget_exhausted: AtomicU64,
    overloaded: AtomicU64,
    cancelled: AtomicU64,
    panics: AtomicU64,
    bad_requests: AtomicU64,
    internal_errors: AtomicU64,
    in_flight: AtomicU64,
    queue_depth: AtomicU64,
    replayed: AtomicU64,
    sessions_opened: AtomicU64,
    session_edits: AtomicU64,
    session_solves: AtomicU64,
    reuse_ims_hint_hits: AtomicU64,
    reuse_replays: AtomicU64,
    reuse_cone_nodes: AtomicU64,
    draining: AtomicBool,
}

impl SwpdStats {
    /// Counts one received request (before any classification).
    pub fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one classified reply.
    pub fn count_reply(&self, status: ReplyStatus) {
        let counter = match status {
            ReplyStatus::Ok => &self.ok,
            ReplyStatus::Solved => &self.solved,
            ReplyStatus::Cached => &self.cached,
            ReplyStatus::Unscheduled => &self.unscheduled,
            ReplyStatus::BudgetExhausted => &self.budget_exhausted,
            ReplyStatus::Overloaded => &self.overloaded,
            ReplyStatus::Cancelled => &self.cancelled,
            ReplyStatus::InternalPanic => &self.panics,
            ReplyStatus::BadRequest => &self.bad_requests,
            ReplyStatus::InternalError => &self.internal_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one solve as started (gauge).
    pub fn enter_flight(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one solve as finished (gauge).
    pub fn leave_flight(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Publishes the current queue length (gauge).
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Records how many artifact records the startup replay loaded.
    pub fn set_replayed(&self, n: u64) {
        self.replayed.store(n, Ordering::Relaxed);
    }

    /// Counts one opened session.
    pub fn count_session_open(&self) {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one applied session edit.
    pub fn count_session_edit(&self) {
        self.session_edits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one session solve.
    pub fn count_session_solve(&self) {
        self.session_solves.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates a session's reuse-counter *delta* (what this one
    /// operation added to the session's lifetime totals).
    pub fn record_reuse(&self, delta: &ReuseStats) {
        self.reuse_ims_hint_hits
            .fetch_add(delta.ims_hint_hits, Ordering::Relaxed);
        self.reuse_replays
            .fetch_add(delta.replays, Ordering::Relaxed);
        self.reuse_cone_nodes
            .fetch_add(delta.cone_nodes, Ordering::Relaxed);
    }

    /// Latches the draining flag (never unlatched).
    pub fn set_draining(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Reads every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            solved: self.solved.load(Ordering::Relaxed),
            cached: self.cached.load(Ordering::Relaxed),
            unscheduled: self.unscheduled.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            internal_errors: self.internal_errors.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            session_edits: self.session_edits.load(Ordering::Relaxed),
            session_solves: self.session_solves.load(Ordering::Relaxed),
            reuse_ims_hint_hits: self.reuse_ims_hint_hits.load(Ordering::Relaxed),
            reuse_replays: self.reuse_replays.load(Ordering::Relaxed),
            reuse_cone_nodes: self.reuse_cone_nodes.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the daemon counters, as carried by `stats`
/// replies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests received (every parsed-or-not message counts once).
    pub requests: u64,
    /// `ok` replies (ping / stats / shutdown acknowledgements).
    pub ok: u64,
    /// Fresh proven solves.
    pub solved: u64,
    /// Cache hits.
    pub cached: u64,
    /// Proven-infeasible answers.
    pub unscheduled: u64,
    /// Budget trips (deadline, ticks, admission pool).
    pub budget_exhausted: u64,
    /// Load-shed refusals.
    pub overloaded: u64,
    /// Disconnect / drain cancellations.
    pub cancelled: u64,
    /// Caught solve panics.
    pub panics: u64,
    /// Malformed requests.
    pub bad_requests: u64,
    /// Structural solver failures.
    pub internal_errors: u64,
    /// Solves currently executing (gauge).
    pub in_flight: u64,
    /// Requests currently queued (gauge).
    pub queue_depth: u64,
    /// Artifact records replayed into the cache at startup.
    pub replayed: u64,
    /// Incremental sessions opened.
    pub sessions_opened: u64,
    /// Session edits applied.
    pub session_edits: u64,
    /// Session solves executed (warm or replayed).
    pub session_solves: u64,
    /// IMS probes seeded from a still-valid previous schedule.
    pub reuse_ims_hint_hits: u64,
    /// Exact replays served from session caches.
    pub reuse_replays: u64,
    /// Total nodes in edit-invalidated dependency cones.
    pub reuse_cone_nodes: u64,
    /// Whether a drain has begun.
    pub draining: bool,
}

impl StatsSnapshot {
    /// Sum of every classification counter — equals [`requests`] once
    /// the daemon is idle.
    ///
    /// [`requests`]: StatsSnapshot::requests
    pub fn classified_total(&self) -> u64 {
        self.ok
            + self.solved
            + self.cached
            + self.unscheduled
            + self.budget_exhausted
            + self.overloaded
            + self.cancelled
            + self.panics
            + self.bad_requests
            + self.internal_errors
    }

    /// Checks that every monotone counter is `>=` its value in an
    /// `earlier` snapshot, returning the first violation's field name.
    /// The gauges and the latch are exempt.
    pub fn monotone_regression_from(&self, earlier: &StatsSnapshot) -> Option<&'static str> {
        let pairs: [(&'static str, u64, u64); 17] = [
            ("requests", earlier.requests, self.requests),
            ("ok", earlier.ok, self.ok),
            ("solved", earlier.solved, self.solved),
            ("cached", earlier.cached, self.cached),
            ("unscheduled", earlier.unscheduled, self.unscheduled),
            (
                "budget_exhausted",
                earlier.budget_exhausted,
                self.budget_exhausted,
            ),
            ("overloaded", earlier.overloaded, self.overloaded),
            ("cancelled", earlier.cancelled, self.cancelled),
            ("panics", earlier.panics, self.panics),
            ("bad_requests", earlier.bad_requests, self.bad_requests),
            (
                "internal_errors",
                earlier.internal_errors,
                self.internal_errors,
            ),
            (
                "sessions_opened",
                earlier.sessions_opened,
                self.sessions_opened,
            ),
            ("session_edits", earlier.session_edits, self.session_edits),
            (
                "session_solves",
                earlier.session_solves,
                self.session_solves,
            ),
            (
                "reuse_ims_hint_hits",
                earlier.reuse_ims_hint_hits,
                self.reuse_ims_hint_hits,
            ),
            ("reuse_replays", earlier.reuse_replays, self.reuse_replays),
            (
                "reuse_cone_nodes",
                earlier.reuse_cone_nodes,
                self.reuse_cone_nodes,
            ),
        ];
        pairs
            .iter()
            .find(|(_, a, b)| b < a)
            .map(|(name, _, _)| *name)
    }

    /// Writes the counters as flat fields onto a reply object.
    pub fn write_fields(&self, w: &mut ObjectWriter) {
        w.u64("requests", self.requests)
            .u64("ok", self.ok)
            .u64("solved", self.solved)
            .u64("cached", self.cached)
            .u64("unscheduled", self.unscheduled)
            .u64("budget_exhausted", self.budget_exhausted)
            .u64("overloaded", self.overloaded)
            .u64("cancelled", self.cancelled)
            .u64("panics", self.panics)
            .u64("bad_requests", self.bad_requests)
            .u64("internal_errors", self.internal_errors)
            .u64("in_flight", self.in_flight)
            .u64("queue_depth", self.queue_depth)
            .u64("replayed", self.replayed)
            .u64("sessions_opened", self.sessions_opened)
            .u64("session_edits", self.session_edits)
            .u64("session_solves", self.session_solves)
            .u64("reuse_ims_hint_hits", self.reuse_ims_hint_hits)
            .u64("reuse_replays", self.reuse_replays)
            .u64("reuse_cone_nodes", self.reuse_cone_nodes)
            .bool("draining", self.draining);
    }

    /// Reads the counters back from a parsed reply object; `None` when
    /// the object carries no counter fields (a non-stats reply).
    pub fn from_fields(m: &BTreeMap<String, JsonValue>) -> Option<StatsSnapshot> {
        let num = |k: &str| m.get(k).and_then(JsonValue::as_u64);
        Some(StatsSnapshot {
            requests: num("requests")?,
            ok: num("ok")?,
            solved: num("solved")?,
            cached: num("cached")?,
            unscheduled: num("unscheduled")?,
            budget_exhausted: num("budget_exhausted")?,
            overloaded: num("overloaded")?,
            cancelled: num("cancelled")?,
            panics: num("panics")?,
            bad_requests: num("bad_requests")?,
            internal_errors: num("internal_errors")?,
            in_flight: num("in_flight")?,
            queue_depth: num("queue_depth")?,
            replayed: num("replayed")?,
            sessions_opened: num("sessions_opened")?,
            session_edits: num("session_edits")?,
            session_solves: num("session_solves")?,
            reuse_ims_hint_hits: num("reuse_ims_hint_hits")?,
            reuse_replays: num("reuse_replays")?,
            reuse_cone_nodes: num("reuse_cone_nodes")?,
            draining: m.get("draining").and_then(JsonValue::as_bool)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_harness::json::parse_object;

    #[test]
    fn snapshot_round_trips_through_reply_fields() {
        let stats = SwpdStats::default();
        stats.count_request();
        stats.count_request();
        stats.count_reply(ReplyStatus::Solved);
        stats.count_reply(ReplyStatus::Overloaded);
        stats.set_queue_depth(3);
        stats.set_replayed(11);
        stats.set_draining();
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.classified_total(), 2);

        let mut w = ObjectWriter::new();
        snap.write_fields(&mut w);
        let m = parse_object(&w.finish()).expect("flat json");
        assert_eq!(StatsSnapshot::from_fields(&m), Some(snap));
        assert_eq!(StatsSnapshot::from_fields(&BTreeMap::new()), None);
    }

    #[test]
    fn session_and_reuse_counters_accumulate_monotonically() {
        let stats = SwpdStats::default();
        stats.count_session_open();
        stats.count_session_edit();
        stats.count_session_edit();
        stats.count_session_solve();
        let delta = ReuseStats {
            ims_hint_hits: 3,
            replays: 1,
            cone_nodes: 5,
        };
        let before = stats.snapshot();
        stats.record_reuse(&delta);
        let after = stats.snapshot();
        assert_eq!(after.sessions_opened, 1);
        assert_eq!(after.session_edits, 2);
        assert_eq!(after.session_solves, 1);
        assert_eq!(after.reuse_ims_hint_hits, 3);
        assert_eq!(after.reuse_replays, 1);
        assert_eq!(after.reuse_cone_nodes, 5);
        assert_eq!(after.monotone_regression_from(&before), None);
        assert_eq!(
            before.monotone_regression_from(&after),
            Some("reuse_ims_hint_hits")
        );

        let mut w = ObjectWriter::new();
        after.write_fields(&mut w);
        let m = parse_object(&w.finish()).expect("flat json");
        assert_eq!(StatsSnapshot::from_fields(&m), Some(after));
    }

    #[test]
    fn monotone_check_flags_regressions_but_not_gauges() {
        let mut a = StatsSnapshot::default();
        a.solved = 5;
        a.in_flight = 9;
        let mut b = a;
        b.solved = 6;
        b.in_flight = 0; // gauge may fall
        assert_eq!(b.monotone_regression_from(&a), None);
        let mut c = b;
        c.cancelled = 0;
        c.solved = 4; // monotone counter fell
        assert_eq!(c.monotone_regression_from(&a), Some("solved"));
    }

    #[test]
    fn every_status_lands_in_its_own_counter() {
        let stats = SwpdStats::default();
        for s in [
            ReplyStatus::Ok,
            ReplyStatus::Solved,
            ReplyStatus::Cached,
            ReplyStatus::Unscheduled,
            ReplyStatus::BudgetExhausted,
            ReplyStatus::Overloaded,
            ReplyStatus::Cancelled,
            ReplyStatus::InternalPanic,
            ReplyStatus::BadRequest,
            ReplyStatus::InternalError,
        ] {
            stats.count_request();
            stats.count_reply(s);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 10);
        assert_eq!(snap.classified_total(), 10);
        assert_eq!(snap.panics, 1);
        assert_eq!(snap.cancelled, 1);
    }
}
