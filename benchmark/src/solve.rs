//! The four solver workloads: seeded loop inputs timed through the
//! rate-optimal driver (`RateOptimalScheduler::schedule_with_warm`), one
//! closed-loop thread, blocks of passes for the measuring time.

use crate::golden::Golden;
use crate::metrics::{self, Report, SetupTimer};
use crate::trace::Tracer;
use crate::RunOpts;
use std::time::{Duration, Instant};
use swp_core::{
    Engine, RateOptimalScheduler, ScheduleError, ScheduleResult, SchedulerConfig, SolverStats,
    WarmState,
};
use swp_ddg::Ddg;
use swp_fuzz::{gen_cases, GenConfig, MachineFamily};
use swp_loops::suite::{generate, SuiteConfig};
use swp_machine::{simulate, Machine, PipelinedSchedule, UnitPolicy};
use swp_milp::Budget;

/// Inputs solved once, untimed, before measuring.
const WARM_UP: usize = 64;
/// Inputs of a `--smoke` run.
pub const SMOKE_INPUTS: usize = 32;

/// One scheduling problem.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub machine: Machine,
    pub ddg: Ddg,
    pub max_live: Option<u32>,
}

/// How a workload solves its inputs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub heuristic: bool,
    pub engine: Engine,
    /// Tick cap per input, on an isolated counter (`fork_isolated`).
    pub ticks: u64,
    pub max_t_above_lb: u32,
}

impl Spec {
    pub fn scheduler(&self, case: &Case) -> RateOptimalScheduler {
        RateOptimalScheduler::new(
            case.machine.clone(),
            SchedulerConfig {
                time_limit_per_t: None,
                max_t_above_lb: self.max_t_above_lb,
                heuristic_incumbent: self.heuristic,
                engine: self.engine,
                max_live: case.max_live,
                ..SchedulerConfig::default()
            },
        )
    }

    /// A fresh per-input budget, as `Harness::solve_one` builds it.
    pub fn budget(&self) -> Budget {
        Budget::unlimited().fork_isolated().limit_ticks(self.ticks)
    }

    /// Solves `case` once, as the harness does: fresh budget and warm
    /// state. Returns the driver's wall time with the result.
    pub fn solve(
        &self,
        scheduler: &RateOptimalScheduler,
        ddg: &Ddg,
    ) -> (Duration, Result<ScheduleResult, ScheduleError>) {
        let budget = self.budget();
        let mut warm = WarmState::new();
        let started = Instant::now();
        let result = scheduler.schedule_with_warm(ddg, &budget, &mut warm);
        (started.elapsed(), result)
    }
}

/// What a solve decided: the fields golden files and the replay compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub t_lb: u32,
    /// Achieved period; `None` when no schedule was found in the window.
    pub period: Option<u32>,
    /// Every smaller period refuted (for `None`: every period refuted).
    pub proven: bool,
}

impl Outcome {
    /// The outcome of a driver result; `Err` for a solver failure.
    pub fn of(result: &Result<ScheduleResult, ScheduleError>) -> Result<Outcome, String> {
        match result {
            Ok(r) => Ok(Outcome {
                t_lb: r.t_lb(),
                period: Some(r.schedule.initiation_interval()),
                proven: r.is_proven_optimal(),
            }),
            Err(ScheduleError::NotFound { t_lb, attempts, .. }) => {
                let s = SolverStats::from_attempts(attempts);
                Ok(Outcome {
                    t_lb: *t_lb,
                    period: None,
                    proven: s.timeouts == 0 && s.engine_failures == 0,
                })
            }
            Err(e) => Err(e.to_string()),
        }
    }
}

/// The inputs and solve configuration of a solver workload.
pub fn inputs(workload: &str, seed: u64, smoke: bool) -> (Vec<Case>, Spec) {
    let corpus = |n: usize| -> Vec<Case> {
        let machine = Machine::example_pldi95();
        generate(&SuiteConfig {
            seed,
            num_loops: n,
            ..SuiteConfig::pldi95_default()
        })
        .into_iter()
        .map(|l| Case {
            name: l.name,
            machine: machine.clone(),
            ddg: l.ddg,
            max_live: None,
        })
        .collect()
    };
    let size = |n: usize| if smoke { n.min(SMOKE_INPUTS) } else { n };
    let spec = |heuristic, engine, ticks, max_t_above_lb| Spec {
        heuristic,
        engine,
        ticks,
        max_t_above_lb,
    };
    match workload {
        "corpus-ims" => (corpus(size(1066)), spec(true, Engine::Ilp, 2_000, 8)),
        "corpus-exact-ilp" => {
            // At this cap about 95% of these loops are proven on every
            // seed (at 1 000 ticks, 82–84%), so `proven_share` barely
            // depends on the seed.
            let mut small: Vec<Case> = corpus(4 * 1066)
                .into_iter()
                .filter(|c| c.ddg.num_nodes() <= 8)
                .collect();
            small.truncate(size(small.len()));
            (small, spec(false, Engine::Ilp, 4_000, 8))
        }
        "corpus-portfolio" => (corpus(size(1066)), spec(false, Engine::Portfolio, 1_000, 8)),
        "families" => {
            let family = |family, seed, adversarial_fraction, prefix: &str| {
                let config = GenConfig {
                    seed,
                    family,
                    adversarial_fraction,
                    ..GenConfig::default()
                };
                gen_cases(&config, size(2000) / if smoke { 2 } else { 1 })
                    .into_iter()
                    .map(|c| Case {
                        name: format!("{prefix}/{}", c.name),
                        machine: c.machine,
                        ddg: c.ddg,
                        max_live: c.max_live,
                    })
                    .collect::<Vec<_>>()
            };
            let mut cases = family(MachineFamily::Vliw, seed, 0.6, "vliw");
            // Only guaranteed pressure cases: adversarial caps can send the
            // grace pass into a multi-second search (see the README).
            cases.extend(family(
                MachineFamily::RegPressure,
                seed.wrapping_add(1),
                0.0,
                "rp",
            ));
            (cases, spec(true, Engine::Ilp, 5_000, 16))
        }
        other => panic!("not a solver workload: {other}"),
    }
}

/// The independent output checks: the schedule checker (and the
/// pressure census under a cap), then the cycle-accurate simulator over
/// at least three times as many iterations as the schedule has stages.
pub fn check_schedule(case: &Case, s: &PipelinedSchedule) -> Result<(), String> {
    s.validate(&case.ddg, &case.machine)
        .map_err(|e| format!("{}: checker: {e}", case.name))?;
    if let Some(limit) = case.max_live {
        s.validate_pressure(&case.ddg, limit)
            .map_err(|e| format!("{}: pressure: {e}", case.name))?;
    }
    let period = s.initiation_interval();
    let stages = s
        .start_times()
        .iter()
        .map(|t| t / period)
        .max()
        .unwrap_or(0)
        + 1;
    simulate(&case.machine, &case.ddg, s, 3 * stages, UnitPolicy::Fixed)
        .map_err(|e| format!("{}: simulator: {e}", case.name))?;
    Ok(())
}

/// Passes per block. A block times every input this many times and keeps
/// each input's fastest time, so both sides of a comparison take their
/// minimum over the same number of samples, however fast the code under
/// test is. Sized so that one block of the slowest of seeds 1–10 fits in
/// a 15-second run at the baseline: pass times differ across seeds by up
/// to 35x, set by a few ILP refutations.
fn block_passes(workload: &str, smoke: bool) -> usize {
    if smoke {
        return 1;
    }
    match workload {
        "corpus-ims" => 10,
        "corpus-exact-ilp" => 3,
        "corpus-portfolio" | "families" => 10,
        other => panic!("not a solver workload: {other}"),
    }
}

/// Runs a solver workload: the set-ups, the timed passes, the output
/// checks, and the traced replay when asked.
pub fn run(workload: &str, opts: &RunOpts, golden: Option<&Golden>) -> Report {
    let mut report = Report::default();
    // Set-up is input generation and construction. The warm-up solves
    // after it are not timed: their cost depends on which inputs a seed
    // puts first.
    let (mut setup_timer, (cases, spec, schedulers)) = SetupTimer::start(opts, || {
        let (cases, spec) = inputs(workload, opts.seed, opts.smoke);
        let schedulers: Vec<RateOptimalScheduler> =
            cases.iter().map(|c| spec.scheduler(c)).collect();
        (cases, spec, schedulers)
    });
    for (case, scheduler) in cases.iter().zip(&schedulers).take(WARM_UP) {
        let _ = std::hint::black_box(spec.solve(scheduler, &case.ddg));
    }

    // Timed blocks of passes over the inputs in order, while the next
    // block is expected to end within the measuring time (at least one
    // block). Within a block an input's time is its fastest pass: on a
    // shared host, bursts of contention from outside slow whole stretches
    // of a run, and the minimum over passes discards them where the median
    // does not; the median over blocks then discards bursts that cover a
    // whole block. The first pass's results are kept for checking; later
    // passes must decide exactly the same. The replay is compared with
    // each input's latest pass, a single pass like itself.
    let passes = block_passes(workload, opts.smoke);
    let deadline = Instant::now() + opts.seconds;
    let mut blocks: Vec<Vec<f64>> = Vec::new();
    let mut block_time = Duration::ZERO;
    let mut last_us = vec![0.0; cases.len()];
    let mut first: Vec<Result<ScheduleResult, ScheduleError>> = Vec::with_capacity(cases.len());
    while blocks.is_empty() || !opts.smoke && Instant::now() + block_time <= deadline {
        let started = Instant::now();
        let mut best_us = vec![f64::INFINITY; cases.len()];
        for _ in 0..passes {
            for (i, (case, scheduler)) in cases.iter().zip(&schedulers).enumerate() {
                let (took, result) = spec.solve(scheduler, std::hint::black_box(&case.ddg));
                last_us[i] = took.as_secs_f64() * 1e6;
                best_us[i] = best_us[i].min(last_us[i]);
                if first.len() < cases.len() {
                    first.push(result);
                } else if Outcome::of(&result) != Outcome::of(&first[i]) {
                    report.fail(format!("{}: a later pass decided differently", case.name));
                }
                drop(setup_timer.sample());
            }
        }
        block_time = started.elapsed();
        blocks.push(best_us);
    }
    report.set("setup_s", setup_timer.median());
    report.attempted = (blocks.len() * passes * cases.len()) as u64;
    let block_count = blocks.len();
    metrics::set_latency(&mut report, blocks);

    // Output checks, outside the timed window.
    let mut outcomes = Vec::with_capacity(cases.len());
    let (mut proven, mut period_sum, mut lb_sum, mut slack) = (0usize, 0u64, 0u64, 0u64);
    for (case, result) in cases.iter().zip(&first) {
        let outcome = match Outcome::of(result) {
            Ok(o) => o,
            Err(e) => {
                report.fail(format!("{}: solver error: {e}", case.name));
                outcomes.push(None);
                continue;
            }
        };
        if let Ok(r) = result {
            if let Err(e) = check_schedule(case, &r.schedule) {
                report.fail(e);
            }
        }
        if let Some(g) = golden {
            if let Err(e) = g.check(&case.name, &outcome) {
                report.fail(e);
            }
        }
        proven += usize::from(outcome.proven && outcome.period.is_some());
        if let Some(p) = outcome.period {
            period_sum += u64::from(p);
            lb_sum += u64::from(outcome.t_lb);
            slack += u64::from(p - outcome.t_lb);
        }
        outcomes.push(Some(outcome));
    }
    report.set("proven_share", proven as f64 / cases.len() as f64);
    report.set("ii_over_lb", period_sum as f64 / lb_sum.max(1) as f64);
    report.set("core.ii_slack_sum", slack as f64);
    let mut slowest: Vec<(f64, &str)> = last_us
        .iter()
        .zip(&cases)
        .map(|(&us, c)| (us, c.name.as_str()))
        .collect();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    let slowest: Vec<String> = slowest
        .iter()
        .take(3)
        .map(|(us, name)| format!("{name} {:.0} us", us))
        .collect();
    eprintln!(
        "swp-benchmark: {workload}: {} inputs x {block_count} blocks of {passes} passes; slowest: {}",
        cases.len(),
        slowest.join(", ")
    );

    if opts.trace {
        let mut tracer = Tracer::new(Instant::now());
        let oracle_before = swp_automata::stats::snapshot();
        let mut agree = 0usize;
        for (i, case) in cases.iter().enumerate() {
            let replayed = crate::trace::replay(&mut tracer, i, case, &spec);
            agree += usize::from(replayed.is_some() && replayed == outcomes[i]);
        }
        crate::trace::set_oracle_counts(&mut report, &oracle_before);
        tracer.fill(
            &mut report,
            last_us.iter().sum(),
            agree as f64 / cases.len() as f64,
        );
        opts.write_spans(workload, &tracer);
    }
    report
}

/// The golden file a workload is checked against. The three corpus
/// workloads solve the same loops in the same window, so they share one
/// reference: a proven period does not depend on the budget that found
/// it.
pub fn golden_name(workload: &str) -> &str {
    if workload.starts_with("corpus-") {
        "corpus"
    } else {
        workload
    }
}

/// The two reference engines: ILP and CP, each with the IMS incumbent
/// off, under a tick cap larger than any workload's so that more rows
/// carry a proven period.
pub fn reference_specs(max_t_above_lb: u32) -> (Spec, Spec) {
    let exact = |engine| Spec {
        heuristic: false,
        engine,
        ticks: 20_000,
        max_t_above_lb,
    };
    (exact(Engine::Ilp), exact(Engine::Cp))
}

/// Runs both reference engines on every input of a solver workload's
/// golden set and keeps a proven period only where they agree: the
/// reference the correctness gate compares against.
pub fn reference_rows(name: &str, seed: u64) -> Vec<(String, Outcome)> {
    let members = crate::WORKLOADS.iter().filter(|w| golden_name(w) == name);
    let mut rows: Vec<(String, Outcome)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for workload in members {
        let (cases, spec) = inputs(workload, seed, false);
        let (ilp, cp) = reference_specs(spec.max_t_above_lb);
        for case in cases {
            if seen.insert(case.name.clone()) {
                rows.push((case.name.clone(), reference(&case, &ilp, &cp)));
            }
        }
    }
    rows
}

/// The agreed reference outcome of one case under two exact specs.
pub fn reference(case: &Case, ilp: &Spec, cp: &Spec) -> Outcome {
    let a = Outcome::of(&ilp.solve(&ilp.scheduler(case), &case.ddg).1);
    let b = Outcome::of(&cp.solve(&cp.scheduler(case), &case.ddg).1);
    match (a, b) {
        (Ok(a), Ok(b)) if a.proven && b.proven && a == b => a,
        (Ok(a), Ok(b)) => {
            if a.proven && b.proven {
                eprintln!("swp-benchmark: {}: ILP and CP disagree", case.name);
            }
            Outcome {
                proven: false,
                period: b.period.or(a.period),
                ..b
            }
        }
        (Ok(o), Err(_)) | (Err(_), Ok(o)) => Outcome { proven: false, ..o },
        (Err(e), Err(_)) => panic!("{}: both engines failed: {e}", case.name),
    }
}
