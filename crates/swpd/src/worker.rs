//! Solver workers: pop jobs, solve under a per-request budget carved
//! from the admission pool, classify the outcome, feed the cache.
//!
//! The classification here is *total*: every popped job produces exactly
//! one reply, whatever happens — including a panicking solve, which
//! `catch_unwind` confines to its own request. Deterministic outcomes
//! (proven solves, exact refutations) are inserted into the shared
//! cache and appended to the JSONL artifact in the same step, which is
//! what makes recovery crash-only: the artifact is the only state, and
//! it is already durable the moment the reply leaves.

use crate::proto::{Reply, ReplyStatus};
use crate::state::{lock, Job, Shared};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swp_core::{
    FaultPlan, Optimality, RateOptimalScheduler, ScheduleError, ScheduleResult, SchedulerConfig,
    WarmState,
};
use swp_harness::{CacheKey, LoopRecord, SuiteOutcome, SuiteRunConfig};
use swp_loops::fingerprint::{ddg_fingerprint, machine_fingerprint};

/// One worker thread's main loop: runs until draining *and* the queue
/// is dry.
pub(crate) fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    shared.stats.set_queue_depth(q.len() as u64);
                    break Some(job);
                }
                if shared.draining.load(Ordering::Relaxed) {
                    break None;
                }
                q = match shared.queue_cv.wait(q) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let Some(job) = job else { return };
        shared.stats.enter_flight();
        let reply = process(&shared, &job);
        shared.deregister(job.seq);
        shared.stats.leave_flight();
        shared.finish(&job.reply_to, reply);
    }
}

/// Solves one job end to end. Never panics outward; never skips the
/// reply.
fn process(shared: &Shared, job: &Job) -> Reply {
    let req = &job.req;
    // Drain hard-stop or an already-dead client: don't start the solve.
    if shared.hard_drain.load(Ordering::Relaxed) || job.cancel.is_cancelled() {
        return Reply::error(&req.id, ReplyStatus::Cancelled, "cancelled before solve");
    }

    let parsed = match swp_fuzz::parse_regression(&req.id, &req.case) {
        Ok(p) => p.case,
        Err(why) => return Reply::error(&req.id, ReplyStatus::BadRequest, why),
    };
    let (machine, ddg) = (parsed.machine, parsed.ddg);

    // Cache key: only outcome-relevant knobs, never budgets, so client
    // deadlines don't fragment the cache (see the harness's
    // SuiteRunConfig::fingerprint contract).
    let cache_cfg = SuiteRunConfig {
        num_loops: 1,
        time_limit_per_t: None,
        per_loop_ticks: None,
        max_t_above_lb: req.max_t.unwrap_or(8),
        heuristic_incumbent: req.heuristic.unwrap_or(true),
        engine: req.engine.unwrap_or_default(),
        // Warm sweeps, as in the harness, so daemon records stay
        // interchangeable with the harness's warm records.
        warm: true,
        max_live: None,
    };
    let key = CacheKey {
        ddg: ddg_fingerprint(&ddg),
        machine: machine_fingerprint(&machine),
        config: cache_cfg.fingerprint(),
    };
    // Fault-injected requests bypass the cache: the injection must
    // reach the solver even when the fingerprint happens to collide
    // with an already-solved case (small DDGs collide readily).
    if !req.inject_panic {
        if let Some(rec) = lock(&shared.cache).lookup(&key) {
            return reply_from_record(&req.id, rec);
        }
    }

    let budget = match shared.admit(&req.id, req.ticks, req.timeout_ms, &job.cancel) {
        Ok(budget) => budget,
        Err(refused) => return *refused,
    };
    let faults = FaultPlan {
        panic_in_solver: req.inject_panic,
        ..FaultPlan::default()
    };
    let config = SchedulerConfig {
        faults,
        ..cache_cfg.scheduler_config()
    };
    let scheduler = RateOptimalScheduler::new(machine.clone(), config);

    let ticks_before = budget.ticks_used();
    let started = Instant::now();
    // Per-request warm state: reuse is within this solve's T-sweep only
    // (cross-solve reuse is the session endpoints' job).
    let mut warm = WarmState::new();
    let solved = catch_unwind(AssertUnwindSafe(|| {
        scheduler.schedule_with_warm(&ddg, &budget, &mut warm)
    }));
    let solve_time = started.elapsed();
    let ticks = budget.ticks_used().saturating_sub(ticks_before);
    shared.observe_solve_us(solve_time.as_micros() as u64);
    shared.stats.record_reuse(&warm.reuse);

    let reply = classify(&req.id, &solved, ticks, solve_time);
    let Ok(solved) = solved else { return reply };
    if let Ok(result) = &solved {
        shared.stats.record_races(&result.solver_stats());
    }
    // Proven schedules and exact refutations (including a zero-distance
    // cycle) are deterministic answers: cache and persist them.
    if matches!(reply.status, ReplyStatus::Solved | ReplyStatus::Unscheduled) {
        let record = LoopRecord::from_solve(
            &solved,
            job.seq as usize,
            &req.id,
            &ddg,
            &machine,
            key,
            ticks,
            &warm.reuse,
            solve_time,
        );
        if let Some(record) = record {
            commit(shared, record);
        }
    }
    reply
}

/// Classifies a finished (or panicked) solve into its reply: the one
/// place a solve outcome becomes a reply, shared by queued solves and
/// session solves.
pub(crate) fn classify(
    id: &str,
    solved: &std::thread::Result<Result<ScheduleResult, ScheduleError>>,
    ticks: u64,
    solve_time: Duration,
) -> Reply {
    let base = |status: ReplyStatus| {
        let mut r = Reply::status(id, status);
        r.ticks = Some(ticks);
        r.solve_us = Some(solve_time.as_micros() as u64);
        r
    };
    let with_error = |status: ReplyStatus, why: String| {
        let mut r = base(status);
        r.error = Some(why);
        r
    };
    match solved {
        Err(payload) => with_error(
            ReplyStatus::InternalPanic,
            panic_text(payload.as_ref()).to_string(),
        ),
        Ok(Ok(result)) => {
            let mut r = base(match result.optimality {
                Optimality::Proven => ReplyStatus::Solved,
                Optimality::BudgetExhausted { .. } => ReplyStatus::BudgetExhausted,
            });
            r.period = Some(result.schedule.initiation_interval());
            r.t_lb = Some(result.t_lb());
            r.slack = Some(result.slack_above_lb());
            r.proven = Some(result.is_proven_optimal());
            r.solved_by = Some(result.solved_by().name().to_string());
            r
        }
        Ok(Err(ScheduleError::Cancelled)) => base(ReplyStatus::Cancelled),
        Ok(Err(ScheduleError::NotFound { t_lb, attempts, .. })) => {
            let mut r = if attempts.iter().any(|a| a.outcome.is_undecided()) {
                let why = "budget ran out before any period was settled";
                with_error(ReplyStatus::BudgetExhausted, why.to_string())
            } else {
                // Every period in range refuted exactly.
                let mut r = base(ReplyStatus::Unscheduled);
                r.proven = Some(false);
                r
            };
            r.t_lb = Some(*t_lb);
            r
        }
        // Structural: a zero-distance dependence cycle.
        Ok(Err(e @ ScheduleError::NoFinitePeriod)) => {
            with_error(ReplyStatus::Unscheduled, e.to_string())
        }
        Ok(Err(e @ (ScheduleError::UnknownClass(_) | ScheduleError::BadMachine(_)))) => {
            with_error(ReplyStatus::BadRequest, e.to_string())
        }
        Ok(Err(other)) => with_error(ReplyStatus::InternalError, other.to_string()),
    }
}

/// The message of a caught panic.
fn panic_text(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("solve panicked")
}

/// Inserts a deterministic record into the in-memory cache and appends
/// it to the artifact (flushed per record — the durability point).
fn commit(shared: &Shared, rec: LoopRecord) {
    if let Some(artifact) = &shared.artifact {
        if let Err(e) = lock(artifact).write_record(&rec) {
            eprintln!("swpd: artifact write failed for {}: {e}", rec.name);
        }
    }
    lock(&shared.cache).insert(rec);
}

/// Builds a `cached` reply out of a stored record.
fn reply_from_record(id: &str, rec: &LoopRecord) -> Reply {
    let mut r = Reply::status(id, ReplyStatus::Cached);
    r.period = rec.period;
    r.t_lb = Some(rec.t_lb);
    r.proven = Some(rec.proven);
    r.ticks = Some(rec.ticks);
    r.solve_us = Some(rec.solve_time.as_micros() as u64);
    if let SuiteOutcome::Scheduled { slack, solved_by } = &rec.outcome {
        r.slack = Some(*slack);
        r.solved_by = Some(solved_by.name().to_string());
    }
    r
}
