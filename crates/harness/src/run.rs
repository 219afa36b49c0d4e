//! The corpus-run orchestrator: sharding, budgets, cache, sinks.
//!
//! [`Harness::run`] drives a loop corpus through the rate-optimal
//! scheduler on a small thread pool ([`crate::executor`]), consulting
//! the on-disk result cache first ([`crate::cache`]) and streaming every
//! fresh record to the artifact and the caller's sink as it completes.
//! The returned [`RunReport`] carries the records **in corpus order**,
//! so a parallel run is indistinguishable from the sequential one.
//!
//! # Budgets and determinism
//!
//! Each loop is solved under its own *isolated* [`Budget`]
//! ([`Budget::fork_isolated`]): its tick counter is private to the loop,
//! so a per-loop tick cap ([`HarnessConfig::per_loop_ticks`]) trips at
//! exactly the same point no matter how many workers run or how the
//! corpus is sharded — the basis of the determinism guarantee.
//!
//! Cancellation ([`Harness::cancel_token`]) stops the run cooperatively:
//! in-flight loops drain (each solver notices the token within one
//! budget check interval and its record is dropped), queued loops are
//! skipped, and everything already recorded is returned — with the
//! artifact flushed per record, a cancelled run resumes where it left
//! off.

use crate::cache::ResultCache;
use crate::executor;
use crate::record::{config_fingerprint, CacheKey, LoopRecord};
use crate::sink::{JsonlSink, RunSink};
use crate::telemetry::RunSummary;
use std::error::Error;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use swp_core::{RateOptimalScheduler, SchedulerConfig};
use swp_loops::fingerprint::{ddg_fingerprint, machine_fingerprint};
use swp_loops::suite::GeneratedLoop;
use swp_machine::Machine;
use swp_milp::{Budget, CancelToken};

/// Sharding, budget and artifact knobs (the solve itself is described
/// by the [`SchedulerConfig`] the harness runs).
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Worker threads. `0` means one per available CPU.
    pub workers: usize,
    /// Deterministic per-loop tick cap (simplex pivots + B&B nodes + IMS
    /// placements all count). `None` leaves ticks uncapped; with the
    /// scheduler's `time_limit_per_t` also `None`, runs are fully
    /// deterministic and machine-speed-independent. Part of the cache
    /// key ([`config_fingerprint`]).
    pub per_loop_ticks: Option<u64>,
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
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            workers: 1,
            per_loop_ticks: None,
            artifact: None,
            resume: false,
            record_timing: true,
        }
    }
}

/// What a corpus run produced.
#[derive(Debug)]
pub struct RunReport {
    /// One record per completed loop, **in corpus order** (loops skipped
    /// by cancellation are absent).
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
    /// Whether the run stopped early (cancel token).
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
    config: SchedulerConfig,
    harness: HarnessConfig,
    cancel: CancelToken,
}

impl Harness {
    /// Creates a harness that solves every loop on `machine` under
    /// `config`, sharded and budgeted as `harness` says.
    pub fn new(machine: Machine, config: SchedulerConfig, harness: HarnessConfig) -> Harness {
        Harness {
            machine,
            config,
            harness,
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
        let config_fp = config_fingerprint(&self.config, self.harness.per_loop_ticks);

        // The run's root budget carries only the harness's cancel
        // token; every loop forks an isolated counter from it.
        let pool = Budget::unlimited().cancelled_by(&self.cancel);

        let cache = match (&self.harness.artifact, self.harness.resume) {
            (Some(path), true) => {
                ResultCache::load(path).map_err(|error| HarnessError::Artifact {
                    path: path.clone(),
                    error,
                })?
            }
            _ => ResultCache::empty(),
        };
        let artifact: Option<Mutex<JsonlSink>> = match &self.harness.artifact {
            Some(path) => {
                let sink = if self.harness.resume {
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

        let scheduler = RateOptimalScheduler::new(self.machine.clone(), self.config.clone());

        let workers = match self.harness.workers {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        let sink = Mutex::new(sink);
        let results = executor::run_indexed(loops.len(), workers, |idx| {
            // Drain (skip without a record) once the cancel token has
            // fired.
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
            let rec = self.solve_one(idx, l, &scheduler, key, &pool)?;
            if let Some(artifact) = &artifact {
                lock(artifact).on_record(&rec);
            }
            lock(&sink).on_record(&rec);
            Some(rec)
        });

        let interrupted = results.iter().any(Option::is_none);
        let records: Vec<LoopRecord> = results.into_iter().flatten().collect();
        let wall_time = started.elapsed();
        let summary = RunSummary::from_records(&records, wall_time);
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
        pool: &Budget,
    ) -> Option<LoopRecord> {
        // Isolated counter: per-loop ticks are exact and
        // scheduling-independent (the determinism guarantee).
        let loop_budget = pool.fork_isolated();
        let loop_budget = match self.harness.per_loop_ticks {
            Some(t) => loop_budget.limit_ticks(t),
            None => loop_budget,
        };
        let solve_started = Instant::now();
        let solved = scheduler.schedule_with(&l.ddg, &loop_budget);
        let solve_time = if self.harness.record_timing {
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
            loop_budget.ticks_used(),
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
    use crate::record::SuiteOutcome;
    use crate::sink::{NullSink, VecSink};
    use swp_loops::suite::{generate, SuiteConfig};

    fn small_corpus(n: usize) -> Vec<GeneratedLoop> {
        generate(&SuiteConfig {
            num_loops: n,
            ..SuiteConfig::pldi95_default()
        })
    }

    fn fast_solve() -> SchedulerConfig {
        SchedulerConfig {
            time_limit_per_t: Some(Duration::from_millis(500)),
            max_t_above_lb: 8,
            ..SchedulerConfig::default()
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
            SchedulerConfig {
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
