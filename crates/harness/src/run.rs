//! The corpus-run orchestrator: sharding, budgets, cache, sinks.
//!
//! [`Harness::run`] drives a loop corpus through the rate-optimal
//! scheduler on a work-stealing pool ([`crate::executor`]), consulting
//! the on-disk result cache first ([`crate::cache`]) and streaming every
//! fresh record to the artifact and the caller's sink as it completes.
//! The returned [`RunReport`] carries the records **in corpus order**,
//! so a parallel run is indistinguishable from the sequential one.
//!
//! # Budgets and determinism
//!
//! Each loop is solved under its own [`Budget`]. By default
//! ([`HarnessConfig::global_ticks`] unset) that budget is *isolated*
//! ([`Budget::fork_isolated`]): its tick counter is private to the loop,
//! so a per-loop tick cap ([`SuiteRunConfig::per_loop_ticks`]) trips at
//! exactly the same point no matter how many workers run or how the
//! corpus is sharded — the basis of the determinism guarantee. Setting
//! `global_ticks` instead slices one shared pool across the workers
//! ([`Budget::slice`]); total effort is then bounded globally, but which
//! loop exhausts the pool depends on scheduling, so run-to-run identity
//! is deliberately traded away (the report is flagged accordingly).
//!
//! Cancellation ([`Harness::cancel_token`]) stops the run cooperatively:
//! in-flight loops drain (each solver notices the token within one
//! budget check interval and its record is dropped), queued loops are
//! skipped, and everything already recorded is returned — with the
//! artifact flushed per record, a cancelled run resumes where it left
//! off.

use crate::cache::ResultCache;
use crate::executor;
use crate::record::{CacheKey, LoopRecord, SuiteRunConfig};
use crate::sink::{JsonlSink, RunSink};
use crate::telemetry::RunSummary;
use std::error::Error;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use swp_core::{RateOptimalScheduler, WarmState};
use swp_loops::fingerprint::{ddg_fingerprint, machine_fingerprint};
use swp_loops::suite::GeneratedLoop;
use swp_machine::Machine;
use swp_milp::{Budget, CancelToken};

/// Sharding, artifact, and global-budget knobs (the solve-side knobs
/// live in [`SuiteRunConfig`]).
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Worker threads. `0` means one per available CPU.
    pub workers: usize,
    /// JSONL artifact path: every fresh record is streamed here.
    pub artifact: Option<PathBuf>,
    /// Load the artifact as a result cache before running and append to
    /// it, so already-solved loops are served without re-solving.
    /// Without `resume`, an existing artifact is truncated.
    pub resume: bool,
    /// Record per-loop solve times. Turning this off zeroes
    /// [`LoopRecord::solve_time`], making records (and artifacts)
    /// byte-identical across runs and worker counts.
    pub record_timing: bool,
    /// Wall-clock budget for the whole run; when it expires, remaining
    /// loops are skipped (drained) and the report is marked interrupted.
    pub global_time_limit: Option<Duration>,
    /// Global tick pool sliced across workers (see the module docs for
    /// the determinism trade-off). `None` (default) gives every loop an
    /// isolated budget.
    pub global_ticks: Option<u64>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            workers: 1,
            artifact: None,
            resume: false,
            record_timing: true,
            global_time_limit: None,
            global_ticks: None,
        }
    }
}

impl HarnessConfig {
    /// A sequential, artifact-less configuration — the `run_suite`
    /// compatibility mode.
    pub fn sequential() -> Self {
        HarnessConfig::default()
    }
}

/// What a corpus run produced.
#[derive(Debug)]
pub struct RunReport {
    /// One record per completed loop, **in corpus order** (loops skipped
    /// by cancellation or global-budget exhaustion are absent).
    pub records: Vec<LoopRecord>,
    /// Whole-run wall time (cache load + solving + artifact I/O) —
    /// deliberately separate from the per-loop
    /// [`solve_time`](LoopRecord::solve_time)s, whose sum measures
    /// CPU-side effort; the ratio of the two is the realized speedup.
    pub wall_time: Duration,
    /// Records served from the cache.
    pub cache_hits: usize,
    /// Records solved in this run.
    pub fresh_solves: usize,
    /// Corrupt artifact lines skipped while loading the cache.
    pub skipped_lines: usize,
    /// Whether the run stopped early (cancel token or global budget).
    pub interrupted: bool,
    /// Aggregated telemetry.
    pub summary: RunSummary,
}

/// Errors a corpus run can hit outside individual solves (per-loop
/// solver failures are recorded, not raised).
#[derive(Debug)]
pub enum HarnessError {
    /// The artifact could not be opened or loaded.
    Artifact {
        /// The offending path.
        path: PathBuf,
        /// The underlying I/O error.
        error: io::Error,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Artifact { path, error } => {
                write!(f, "artifact {}: {error}", path.display())
            }
        }
    }
}

impl Error for HarnessError {}

/// The sharded corpus runner.
pub struct Harness {
    machine: Machine,
    solve: SuiteRunConfig,
    config: HarnessConfig,
    cancel: CancelToken,
}

impl Harness {
    /// Creates a harness for `machine` under the given configurations.
    pub fn new(machine: Machine, solve: SuiteRunConfig, config: HarnessConfig) -> Harness {
        Harness {
            machine,
            solve,
            config,
            cancel: CancelToken::new(),
        }
    }

    /// A token that stops any in-progress [`run`](Self::run)
    /// cooperatively (Ctrl-C style): fire it from another thread or a
    /// signal handler; workers drain within one budget check interval.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The machine this harness targets.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Runs the corpus, streaming records to `sink` (and to the
    /// configured artifact) as loops complete.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Artifact`] if the artifact cannot be opened or
    /// read. Per-loop solver failures never error the run; they become
    /// [`SuiteOutcome::Unscheduled`](crate::SuiteOutcome::Unscheduled)
    /// records.
    pub fn run(
        &self,
        loops: &[GeneratedLoop],
        sink: &mut dyn RunSink,
    ) -> Result<RunReport, HarnessError> {
        let started = Instant::now();
        let machine_fp = machine_fingerprint(&self.machine);
        let config_fp = self.solve.fingerprint();

        // The global pool: deadline + optional shared ticks + the
        // harness's cancel token. Rebuilt per run, so the deadline is
        // anchored at run start and the harness is reusable.
        let mut pool = Budget::unlimited().cancelled_by(&self.cancel);
        if let Some(d) = self.config.global_time_limit {
            pool = pool.deadline_in(d);
        }
        if let Some(t) = self.config.global_ticks {
            pool = pool.limit_ticks(t);
        }

        let cache = match (&self.config.artifact, self.config.resume) {
            (Some(path), true) => {
                ResultCache::load(path).map_err(|error| HarnessError::Artifact {
                    path: path.clone(),
                    error,
                })?
            }
            _ => ResultCache::empty(),
        };
        let artifact: Option<Mutex<JsonlSink>> = match &self.config.artifact {
            Some(path) => {
                let sink = if self.config.resume {
                    JsonlSink::append(path)
                } else {
                    JsonlSink::create(path)
                }
                .map_err(|error| HarnessError::Artifact {
                    path: path.clone(),
                    error,
                })?;
                Some(Mutex::new(sink))
            }
            None => None,
        };

        let scheduler =
            RateOptimalScheduler::new(self.machine.clone(), self.solve.scheduler_config());

        let workers = match self.config.workers {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        // Worker shares of the pool: real slices when a global tick pool
        // is configured, otherwise plain handles to the (uncapped) pool.
        let shares: Vec<Budget> = (0..workers.max(1))
            .map(|_| pool.slice(workers as u64))
            .collect();

        let sink = Mutex::new(sink);
        // Oracle telemetry is process-global; delta against a snapshot so
        // the summary reports only this run's queries.
        let oracle_before = swp_automata::stats::snapshot();
        let results = executor::run_indexed(loops.len(), workers, |w, idx| {
            // Drain (skip without a record) once the run-wide budget or
            // the cancel token has tripped.
            if pool.check().is_err() {
                return None;
            }
            let l = &loops[idx];
            let key = CacheKey {
                ddg: ddg_fingerprint(&l.ddg),
                machine: machine_fp,
                config: config_fp,
            };
            if let Some(hit) = cache.lookup(&key) {
                let mut rec = hit.clone();
                rec.index = idx;
                rec.name = l.name.clone();
                rec.cached = true;
                lock(&sink).on_record(&rec);
                return Some(rec);
            }
            let rec = self.solve_one(idx, l, &scheduler, key, &shares[w])?;
            if let Some(artifact) = &artifact {
                lock(artifact).on_record(&rec);
            }
            lock(&sink).on_record(&rec);
            Some(rec)
        });

        let interrupted = results.iter().any(Option::is_none);
        let records: Vec<LoopRecord> = results.into_iter().flatten().collect();
        let wall_time = started.elapsed();
        let mut summary = RunSummary::from_records(&records, wall_time);
        summary.oracle = swp_automata::stats::snapshot().since(&oracle_before);
        lock(&sink).on_summary(&summary);
        Ok(RunReport {
            cache_hits: summary.cache_hits,
            fresh_solves: summary.fresh_solves,
            skipped_lines: cache.skipped_lines(),
            interrupted,
            wall_time,
            summary,
            records,
        })
    }

    /// Solves one loop under its per-loop budget. `None` means the loop
    /// drained on cancellation and must not be recorded.
    fn solve_one(
        &self,
        index: usize,
        l: &GeneratedLoop,
        scheduler: &RateOptimalScheduler,
        key: CacheKey,
        share: &Budget,
    ) -> Option<LoopRecord> {
        let loop_budget = if self.config.global_ticks.is_some() {
            // Shared pool: per-loop allowance drains the worker's share.
            share.restrict(None, self.solve.per_loop_ticks)
        } else {
            // Isolated counter: per-loop ticks are exact and
            // scheduling-independent (the determinism guarantee).
            let b = share.fork_isolated();
            match self.solve.per_loop_ticks {
                Some(t) => b.limit_ticks(t),
                None => b,
            }
        };
        let ticks_before = loop_budget.ticks_used();
        let solve_started = Instant::now();
        // One warm state per loop: the basis/hint/no-good carry-over is
        // strictly within this loop's T-sweep, so nothing leaks between
        // DDGs and per-loop records stay scheduling-independent.
        let mut warm = WarmState::new();
        let solved = scheduler.schedule_with_warm(&l.ddg, &loop_budget, &mut warm);
        let solve_time = if self.config.record_timing {
            solve_started.elapsed()
        } else {
            Duration::ZERO
        };
        LoopRecord::from_solve(
            &solved,
            index,
            &l.name,
            &l.ddg,
            &self.machine,
            key,
            loop_budget.ticks_used().saturating_sub(ticks_before),
            &warm.reuse,
            solve_time,
        )
    }
}

/// Locks a mutex, tolerating poisoning — one panicked worker must not
/// lose every other worker's records.
fn lock<T: ?Sized>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordReuse, SuiteOutcome};
    use crate::sink::{NullSink, VecSink};
    use swp_loops::suite::{generate, SuiteConfig};

    fn small_corpus(n: usize) -> Vec<GeneratedLoop> {
        generate(&SuiteConfig {
            num_loops: n,
            ..SuiteConfig::pldi95_default()
        })
    }

    fn fast_solve() -> SuiteRunConfig {
        SuiteRunConfig {
            num_loops: 0, // unused by the harness itself
            time_limit_per_t: Some(Duration::from_millis(500)),
            per_loop_ticks: None,
            max_t_above_lb: 8,
            heuristic_incumbent: true,
            engine: Default::default(),
            warm: true,
            max_live: None,
        }
    }

    #[test]
    fn runs_a_small_corpus_and_orders_records() {
        let loops = small_corpus(8);
        let h = Harness::new(
            Machine::example_pldi95(),
            fast_solve(),
            HarnessConfig::default(),
        );
        let mut sink = VecSink::default();
        let report = h.run(&loops, &mut sink).expect("no artifact, no error");
        assert_eq!(report.records.len(), 8);
        assert!(!report.interrupted);
        assert_eq!(report.fresh_solves, 8);
        assert_eq!(report.cache_hits, 0);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.name, loops[i].name);
            if let Some(p) = r.period {
                assert!(p >= r.t_lb);
            }
        }
        // The sink saw the same records (possibly in completion order).
        assert_eq!(sink.records.len(), 8);
        let scheduled = report
            .records
            .iter()
            .filter(|r| matches!(r.outcome, SuiteOutcome::Scheduled { .. }))
            .count();
        assert!(scheduled >= 6, "only {scheduled}/8 scheduled");
        assert_eq!(report.summary.total, 8);
    }

    #[test]
    fn portfolio_engine_records_charge_ticks() {
        // With the incumbent probe off, every period is settled by the
        // staged portfolio. Both of its stages spend the loop's own
        // budget, so every record reports the ticks its solve used.
        let loops = small_corpus(4);
        let h = Harness::new(
            Machine::example_pldi95(),
            SuiteRunConfig {
                heuristic_incumbent: false,
                engine: swp_core::Engine::Portfolio,
                ..fast_solve()
            },
            HarnessConfig::default(),
        );
        let report = h.run(&loops, &mut NullSink).expect("run");
        assert_eq!(report.records.len(), 4);
        for r in &report.records {
            assert!(r.ticks > 0, "{} charged no ticks", r.name);
        }
        assert_eq!(
            report.summary.by_ilp + report.summary.by_cp + report.summary.by_heuristic,
            report.summary.scheduled
        );
    }

    #[test]
    fn cancellation_drains_cleanly() {
        let loops = small_corpus(16);
        let h = Harness::new(
            Machine::example_pldi95(),
            fast_solve(),
            HarnessConfig::default(),
        );
        // Fire the token before the run: every loop drains, nothing is
        // recorded, and the report says interrupted.
        h.cancel_token().cancel();
        let report = h.run(&loops, &mut NullSink).expect("run");
        assert!(report.interrupted);
        assert!(report.records.is_empty());
    }

    #[test]
    fn global_tick_pool_bounds_total_effort() {
        let loops = small_corpus(12);
        let h = Harness::new(
            Machine::example_pldi95(),
            SuiteRunConfig {
                time_limit_per_t: None,
                ..fast_solve()
            },
            HarnessConfig {
                global_ticks: Some(16),
                ..HarnessConfig::default()
            },
        );
        let report = h.run(&loops, &mut NullSink).expect("run");
        // The tiny pool cannot cover 12 loops: the run is interrupted
        // (drained) partway, but whatever completed is well-formed.
        assert!(report.interrupted, "16 ticks should not finish 12 loops");
        assert!(report.records.len() < 12);
        for r in &report.records {
            assert!(!r.cached);
        }
    }

    #[test]
    fn warm_and_cold_sweeps_make_identical_decisions() {
        // Warm sweeps are the default; decisions (period, outcome,
        // proven) must be exactly those of a cold run, with only the
        // reuse telemetry and effort counters free to differ. Tick caps
        // keep both runs deterministic.
        let loops = small_corpus(16);
        let solve = SuiteRunConfig {
            time_limit_per_t: None,
            per_loop_ticks: Some(50_000),
            ..fast_solve()
        };
        let run = |warm: bool| {
            Harness::new(
                Machine::example_pldi95(),
                SuiteRunConfig {
                    warm,
                    ..solve.clone()
                },
                HarnessConfig::default(),
            )
            .run(&loops, &mut NullSink)
            .expect("run")
        };
        let (w, c) = (run(true), run(false));
        assert_eq!(w.records.len(), c.records.len());
        for (a, b) in w.records.iter().zip(&c.records) {
            assert_eq!(a.period, b.period, "{}", a.name);
            assert_eq!(a.outcome, b.outcome, "{}", a.name);
            assert_eq!(a.proven, b.proven, "{}", a.name);
            assert!(!b.reuse.any(), "cold record reports reuse: {}", b.name);
        }
        // The two configs must never share cache entries.
        assert_ne!(w.records[0].key.config, c.records[0].key.config);
        // Summary totals aggregate the per-record counters exactly.
        let mut total = RecordReuse::default();
        for r in &w.records {
            total.absorb(&r.reuse);
        }
        assert_eq!(w.summary.reuse, total);
    }

    #[test]
    fn worker_zero_means_available_parallelism() {
        let loops = small_corpus(4);
        let h = Harness::new(
            Machine::example_pldi95(),
            fast_solve(),
            HarnessConfig {
                workers: 0,
                ..HarnessConfig::default()
            },
        );
        let report = h.run(&loops, &mut NullSink).expect("run");
        assert_eq!(report.records.len(), 4);
    }
}
