//! Daemon configuration and the state shared by every thread.
//!
//! One `Shared` instance is the whole daemon: the bounded request
//! queue with its condition variable, the global admission [`Budget`]
//! pool, the in-flight cancel-token registry (so a drain can
//! hard-cancel everything), the result cache with its append-only JSONL
//! artifact, and the telemetry counters. Connection threads push
//! `Job`s in; worker threads pop them out; nobody else holds state.

use crate::proto::{Reply, ReplyStatus, SolveRequest};
use crate::session::SessionStore;
use crate::stats::SwpdStats;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;
use swp_harness::{JsonlSink, ResultCache};
use swp_milp::{Budget, CancelToken};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Solver worker threads.
    pub workers: usize,
    /// Bounded queue capacity; a full queue load-sheds with
    /// `overloaded`. Zero means "never queue" (useful in tests).
    pub queue_capacity: usize,
    /// JSONL artifact path; `None` disables persistence (and therefore
    /// crash recovery — the cache is then memory-only).
    pub artifact: Option<PathBuf>,
    /// Replay an existing artifact into the cache at startup and append
    /// to it, instead of truncating.
    pub resume: bool,
    /// Global admission pool tick cap; `None` leaves the pool
    /// unlimited. When set, every solve drains this one pool and a
    /// drained pool refuses admission (`budget_exhausted`).
    pub admission_ticks: Option<u64>,
    /// Deadline applied when a request carries no `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Upper clamp on client-supplied `timeout_ms`.
    pub max_timeout_ms: u64,
    /// How long a drain waits for in-flight solves before hard-
    /// cancelling them.
    pub drain_grace: Duration,
    /// Allow `panic` fault injection in requests (load tests only).
    pub allow_fault_injection: bool,
    /// Most incremental solve sessions held open at once; opening past
    /// the cap load-sheds with `overloaded`.
    pub session_capacity: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            artifact: None,
            resume: false,
            admission_ticks: None,
            default_timeout_ms: 10_000,
            max_timeout_ms: 120_000,
            drain_grace: Duration::from_secs(5),
            allow_fault_injection: false,
            session_capacity: 16,
        }
    }
}

/// One queued solve. The reply channel leads back to the owning
/// connection's writer; the token is fired by that connection on
/// disconnect, or by the drain supervisor on hard cancel.
#[derive(Debug)]
pub(crate) struct Job {
    /// Daemon-unique sequence number (doubles as the artifact record
    /// index).
    pub seq: u64,
    /// The request.
    pub req: SolveRequest,
    /// Where the classified reply goes. A send failure means the
    /// connection is gone; replies are then dropped silently (the
    /// classification counters have already recorded the outcome).
    pub reply_to: Sender<Reply>,
    /// Cancels this solve.
    pub cancel: CancelToken,
}

/// Everything the daemon's threads share.
#[derive(Debug)]
pub(crate) struct Shared {
    pub config: DaemonConfig,
    pub stats: SwpdStats,
    pub queue: Mutex<VecDeque<Job>>,
    pub queue_cv: Condvar,
    /// Latched by shutdown: stop accepting, let workers run the queue
    /// dry and exit.
    pub draining: AtomicBool,
    /// Latched `drain_grace` after `draining`: queued jobs are answered
    /// `cancelled` instead of solved.
    pub hard_drain: AtomicBool,
    pub cache: Mutex<ResultCache>,
    pub artifact: Option<Mutex<JsonlSink>>,
    /// The global admission pool every per-request budget is sliced
    /// from.
    pub admission: Budget,
    /// Cancel tokens of queued + in-flight solves, by `seq`.
    pub inflight: Mutex<HashMap<u64, CancelToken>>,
    /// Open incremental solve sessions.
    pub sessions: SessionStore,
    pub next_seq: AtomicU64,
    /// EWMA of recent solve times in microseconds; feeds the
    /// `retry_after_ms` hint.
    pub avg_solve_us: AtomicU64,
}

/// Locks a mutex, tolerating poisoning: a panicked holder must not take
/// the daemon down with it (panic isolation is the whole point).
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Shared {
    /// Builds the shared state, loading (or creating) the artifact.
    pub fn new(config: DaemonConfig) -> io::Result<Shared> {
        let cache = match (&config.artifact, config.resume) {
            (Some(path), true) => ResultCache::load(path)?,
            _ => ResultCache::empty(),
        };
        let artifact = match &config.artifact {
            Some(path) => Some(Mutex::new(if config.resume {
                JsonlSink::append(path)?
            } else {
                JsonlSink::create(path)?
            })),
            None => None,
        };
        let admission = match config.admission_ticks {
            Some(t) => Budget::with_tick_limit(t),
            None => Budget::unlimited(),
        };
        let stats = SwpdStats::default();
        stats.set_replayed(cache.len() as u64);
        Ok(Shared {
            config,
            stats,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            hard_drain: AtomicBool::new(false),
            cache: Mutex::new(cache),
            artifact,
            admission,
            inflight: Mutex::new(HashMap::new()),
            sessions: SessionStore::default(),
            next_seq: AtomicU64::new(0),
            avg_solve_us: AtomicU64::new(0),
        })
    }

    /// Classifies and sends a reply. The single funnel through which
    /// every reply leaves the daemon — guarantees each request is
    /// counted exactly once.
    pub fn finish(&self, reply_to: &Sender<Reply>, reply: Reply) {
        self.stats.count_reply(reply.status);
        // The connection may already be gone; the classification above
        // is the durable part.
        let _ = reply_to.send(reply);
    }

    /// Tries to enqueue a solve. On admission the job's token is
    /// registered in the in-flight map; on refusal an `overloaded`
    /// reply (with a backoff hint) is produced instead.
    pub fn enqueue(&self, job: Job) -> Result<(), Reply> {
        if self.draining.load(Ordering::Relaxed) {
            let mut r = Reply::error(job.req.id, ReplyStatus::Overloaded, "daemon is draining");
            r.retry_after_ms = Some(self.retry_after_ms());
            return Err(r);
        }
        let mut q = lock(&self.queue);
        if q.len() >= self.config.queue_capacity {
            // Compute the hint from the already-held guard: calling
            // retry_after_ms() here would re-lock the queue and
            // self-deadlock.
            let hint = self.retry_hint_for_depth(q.len() as u64);
            drop(q);
            let mut r = Reply::error(job.req.id, ReplyStatus::Overloaded, "queue full");
            r.retry_after_ms = Some(hint);
            return Err(r);
        }
        lock(&self.inflight).insert(job.seq, job.cancel.clone());
        q.push_back(job);
        self.stats.set_queue_depth(q.len() as u64);
        drop(q);
        self.queue_cv.notify_one();
        Ok(())
    }

    /// Carves one solve's budget from the admission pool: an equal
    /// worker share of the pool, with an isolated tick counter when the
    /// pool is unlimited (so a request's tick cap is exact), capped by
    /// the request's `ticks` and clamped `timeout_ms`, and stopped by
    /// `cancel`. A pool that cannot fund a share refuses the solve up
    /// front with a `budget_exhausted` reply.
    pub fn admit(
        &self,
        id: &str,
        ticks: Option<u64>,
        timeout_ms: Option<u64>,
        cancel: &CancelToken,
    ) -> Result<Budget, Box<Reply>> {
        let workers = self.config.workers.max(1) as u64;
        let share = self.admission.try_slice(workers).map_err(|e| {
            Box::new(Reply::error(
                id,
                ReplyStatus::BudgetExhausted,
                format!("admission pool: {e}"),
            ))
        })?;
        // With a capped pool the share keeps the pool's counter (solves
        // drain it globally).
        let mut budget = if self.config.admission_ticks.is_some() {
            share
        } else {
            share.fork_isolated()
        };
        if let Some(t) = ticks {
            budget = budget.limit_ticks(t);
        }
        let timeout_ms = timeout_ms
            .unwrap_or(self.config.default_timeout_ms)
            .min(self.config.max_timeout_ms);
        Ok(budget
            .deadline_in(Duration::from_millis(timeout_ms))
            .cancelled_by(cancel))
    }

    /// The load-shedding backoff hint: roughly "queue drain time per
    /// worker", from the observed solve-time EWMA, clamped to a sane
    /// range so cold daemons and pathological solves both stay useful.
    pub fn retry_after_ms(&self) -> u64 {
        let depth = lock(&self.queue).len() as u64;
        self.retry_hint_for_depth(depth)
    }

    fn retry_hint_for_depth(&self, depth: u64) -> u64 {
        let avg_ms = (self.avg_solve_us.load(Ordering::Relaxed) / 1000).clamp(5, 2_000);
        let workers = self.config.workers.max(1) as u64;
        ((depth + 1).saturating_mul(avg_ms) / workers).clamp(5, 5_000)
    }

    /// Folds one solve time into the EWMA (racy read-modify-write is
    /// fine: this feeds a hint, not an invariant).
    pub fn observe_solve_us(&self, us: u64) {
        let old = self.avg_solve_us.load(Ordering::Relaxed);
        let new = if old == 0 { us } else { (old * 7 + us) / 8 };
        self.avg_solve_us.store(new, Ordering::Relaxed);
    }

    /// Fires every registered cancel token (drain hard-stop).
    pub fn cancel_all_inflight(&self) {
        for token in lock(&self.inflight).values() {
            token.cancel();
        }
    }

    /// Removes a finished solve's token from the registry.
    pub fn deregister(&self, seq: u64) {
        lock(&self.inflight).remove(&seq);
    }

    /// Allocates the next request sequence number.
    pub fn alloc_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn job(shared: &Shared, id: &str) -> Job {
        let (tx, _rx) = channel();
        Job {
            seq: shared.alloc_seq(),
            req: SolveRequest::new(id, "case"),
            reply_to: tx,
            cancel: CancelToken::new(),
        }
    }

    #[test]
    fn bounded_queue_sheds_load_with_a_retry_hint() {
        let shared = Shared::new(DaemonConfig {
            queue_capacity: 2,
            ..DaemonConfig::default()
        })
        .expect("no artifact, no io");
        assert!(shared.enqueue(job(&shared, "a")).is_ok());
        assert!(shared.enqueue(job(&shared, "b")).is_ok());
        let refused = shared.enqueue(job(&shared, "c")).expect_err("queue full");
        assert_eq!(refused.status, ReplyStatus::Overloaded);
        assert!(refused.retry_after_ms.is_some());
        assert_eq!(refused.id, "c");
        assert_eq!(
            lock(&shared.inflight).len(),
            2,
            "refused job never registers"
        );
        assert_eq!(shared.stats.snapshot().queue_depth, 2);
    }

    #[test]
    fn draining_daemon_refuses_admission() {
        let shared = Shared::new(DaemonConfig::default()).expect("no io");
        shared.draining.store(true, Ordering::Relaxed);
        let refused = shared.enqueue(job(&shared, "late")).expect_err("draining");
        assert_eq!(refused.status, ReplyStatus::Overloaded);
        assert!(refused.error.as_deref().unwrap_or("").contains("draining"));
    }

    #[test]
    fn cancel_all_inflight_fires_every_registered_token() {
        let shared = Shared::new(DaemonConfig::default()).expect("no io");
        let j1 = job(&shared, "x");
        let j2 = job(&shared, "y");
        let (t1, t2) = (j1.cancel.clone(), j2.cancel.clone());
        shared.enqueue(j1).expect("fits");
        shared.enqueue(j2).expect("fits");
        shared.cancel_all_inflight();
        assert!(t1.is_cancelled() && t2.is_cancelled());
        shared.deregister(0);
        assert_eq!(lock(&shared.inflight).len(), 1);
    }

    #[test]
    fn retry_hint_scales_with_queue_depth_and_stays_clamped() {
        let shared = Shared::new(DaemonConfig {
            workers: 2,
            queue_capacity: 1000,
            ..DaemonConfig::default()
        })
        .expect("no io");
        let empty_hint = shared.retry_after_ms();
        assert!((5..=5_000).contains(&empty_hint));
        shared.observe_solve_us(40_000); // 40 ms solves
        for i in 0..10 {
            shared
                .enqueue(job(&shared, &format!("j{i}")))
                .expect("fits");
        }
        let deep_hint = shared.retry_after_ms();
        assert!(deep_hint >= empty_hint);
        assert!(deep_hint <= 5_000);
        shared.observe_solve_us(u64::MAX / 2); // pathological EWMA input
        assert!(shared.retry_after_ms() <= 5_000);
    }
}
