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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swp_core::{
    FaultPlan, Optimality, RateOptimalScheduler, ScheduleError, SchedulerConfig, SolvedBy,
    SolverStats, WarmState,
};
use swp_harness::{CacheKey, LoopRecord, RecordReuse, SuiteOutcome, SuiteRunConfig};
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
    let max_t = req.max_t.unwrap_or(8);
    let heuristic = req.heuristic.unwrap_or(true);
    let engine = req.engine.unwrap_or_default();
    let cache_cfg = SuiteRunConfig {
        num_loops: 1,
        time_limit_per_t: None,
        per_loop_ticks: None,
        max_t_above_lb: max_t,
        heuristic_incumbent: heuristic,
        engine,
        // The solve below runs under the scheduler's default
        // warm-sweep mode; fingerprint accordingly so daemon records
        // stay interchangeable with the harness's warm records.
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

    // Admission: slice the global pool; a pool that cannot fund an
    // equal worker share refuses the solve up front.
    let workers = shared.config.workers.max(1) as u64;
    let share = match shared.admission.try_slice(workers) {
        Ok(b) => b,
        Err(e) => {
            return Reply::error(
                &req.id,
                ReplyStatus::BudgetExhausted,
                format!("admission pool: {e}"),
            )
        }
    };
    // With a capped pool the share keeps the pool's counter (solves
    // drain it globally); with an unlimited pool each request gets an
    // isolated counter so its tick cap is exact.
    let mut budget = if shared.config.admission_ticks.is_some() {
        share
    } else {
        share.fork_isolated()
    };
    if let Some(t) = req.ticks {
        budget = budget.limit_ticks(t);
    }
    let timeout_ms = req
        .timeout_ms
        .unwrap_or(shared.config.default_timeout_ms)
        .min(shared.config.max_timeout_ms);
    budget = budget
        .deadline_in(Duration::from_millis(timeout_ms))
        .cancelled_by(&job.cancel);

    let faults = FaultPlan {
        panic_in_solver: req.inject_panic,
        ..FaultPlan::default()
    };
    let scheduler = RateOptimalScheduler::new(
        machine.clone(),
        SchedulerConfig {
            time_limit_per_t: None,
            time_limit_total: None,
            max_t_above_lb: max_t,
            heuristic_incumbent: heuristic,
            engine,
            faults,
            ..SchedulerConfig::default()
        },
    );

    let t_lb_counting = ddg
        .t_dep()
        .unwrap_or(0)
        .max(machine.t_res_counting(&ddg).unwrap_or(0));
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

    let base = |status: ReplyStatus| {
        let mut r = Reply::status(&req.id, status);
        r.ticks = Some(ticks);
        r.solve_us = Some(solve_time.as_micros() as u64);
        r
    };
    let record = |period: Option<u32>,
                  t_lb: u32,
                  outcome: SuiteOutcome,
                  proven: bool,
                  stats: SolverStats| LoopRecord {
        index: job.seq as usize,
        name: req.id.clone(),
        num_nodes: ddg.num_nodes(),
        key,
        t_lb,
        t_lb_counting,
        period,
        outcome,
        proven,
        bb_nodes: stats.bb_nodes,
        lp_iterations: stats.lp_iterations,
        ticks,
        periods_attempted: stats.periods_attempted,
        races: stats.races,
        race_cp_wins: stats.race_cp_wins,
        race_ilp_wins: stats.race_ilp_wins,
        any_timeout: stats.any_timeout(),
        reuse: RecordReuse::from(&warm.reuse),
        solve_time,
        cached: false,
    };

    match solved {
        Err(payload) => {
            let why = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("solve panicked");
            let mut r = base(ReplyStatus::InternalPanic);
            r.error = Some(why.to_string());
            r
        }
        Ok(Ok(result)) => {
            let stats = result.solver_stats();
            let period = result.schedule.initiation_interval();
            let solved_by = result.solved_by();
            let mut r = base(match result.optimality {
                Optimality::Proven => ReplyStatus::Solved,
                Optimality::BudgetExhausted { .. } => ReplyStatus::BudgetExhausted,
            });
            r.period = Some(period);
            r.t_lb = Some(result.t_lb());
            r.slack = Some(result.slack_above_lb());
            r.proven = Some(result.is_proven_optimal());
            r.solved_by = Some(
                match solved_by {
                    SolvedBy::Ilp => "ilp",
                    SolvedBy::Cp => "cp",
                    SolvedBy::Heuristic => "heuristic",
                }
                .to_string(),
            );
            shared.stats.record_races(&stats);
            if result.is_proven_optimal() {
                commit(
                    shared,
                    record(
                        Some(period),
                        result.t_lb(),
                        SuiteOutcome::Scheduled {
                            slack: result.slack_above_lb(),
                            solved_by,
                        },
                        true,
                        stats,
                    ),
                );
            }
            r
        }
        Ok(Err(e)) => match e {
            ScheduleError::Cancelled => base(ReplyStatus::Cancelled),
            ScheduleError::NotFound { t_lb, attempts, .. } => {
                let stats = SolverStats::from_attempts(&attempts);
                if stats.timeouts > 0 || stats.engine_failures > 0 {
                    let mut r = base(ReplyStatus::BudgetExhausted);
                    r.t_lb = Some(t_lb);
                    r.error = Some("budget ran out before any period was settled".to_string());
                    r
                } else {
                    // Every period in range refuted exactly: a
                    // deterministic answer, so cache it.
                    let mut r = base(ReplyStatus::Unscheduled);
                    r.t_lb = Some(t_lb);
                    r.proven = Some(false);
                    commit(
                        shared,
                        record(None, t_lb, SuiteOutcome::Unscheduled, false, stats),
                    );
                    r
                }
            }
            ScheduleError::NoFinitePeriod => {
                // Structural: a zero-distance dependence cycle. Also
                // deterministic, also cached.
                let mut r = base(ReplyStatus::Unscheduled);
                r.error = Some(e.to_string());
                commit(
                    shared,
                    record(
                        None,
                        0,
                        SuiteOutcome::Unscheduled,
                        false,
                        SolverStats::default(),
                    ),
                );
                r
            }
            ScheduleError::UnknownClass(_) | ScheduleError::BadMachine(_) => {
                let mut r = base(ReplyStatus::BadRequest);
                r.error = Some(e.to_string());
                r
            }
            other => {
                let mut r = base(ReplyStatus::InternalError);
                r.error = Some(other.to_string());
                r
            }
        },
    }
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
        r.solved_by = Some(
            match solved_by {
                SolvedBy::Ilp => "ilp",
                SolvedBy::Cp => "cp",
                SolvedBy::Heuristic => "heuristic",
            }
            .to_string(),
        );
    }
    r
}
