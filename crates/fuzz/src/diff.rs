//! The differential runner: one case, every engine, every oracle
//! property.
//!
//! Each generated `(machine, ddg)` pair is scheduled under every engine
//! configuration:
//!
//! * the full driver (ILP + IMS incumbent);
//! * the pure-ILP driver (Table 5 mode);
//! * the CP backend (Table 5 mode);
//! * the staged portfolio (CP, then the ILP on what CP leaves);
//! * iterative modulo scheduling alone.
//!
//! and the results are cross-checked:
//!
//! 1. every accepted schedule passes the exact checker **and** the
//!    cycle-accurate simulator;
//! 2. any two `Optimality::Proven` results agree on `T`;
//! 3. no accepted schedule beats a proven-optimal `T`, and heuristic
//!    `II ≥` proven `T`;
//! 4. no configuration *refutes* (proves infeasible) a period another
//!    configuration certified feasible;
//! 5. accepted periods respect `max(T_dep, T_res)`, and every
//!    configuration reports the same `T_dep`/`T_res`;
//! 6. guaranteed-schedulable cases that run to completion (no budget
//!    trips) must schedule.
//!
//! Metamorphic relations (checked against the baseline configuration):
//!
//! * relabeling instructions and renaming/permuting function-unit
//!   classes leave the outcome invariant;
//! * uniformly scaling all latencies never *decreases* the proven `T`
//!   (any schedule feasible under scaled latencies is feasible under the
//!   originals, so the scaled optimum bounds the original from above);
//! * an IMS schedule obtained at `T+1` after a proven optimum at `T`
//!   must itself verify. (Plain "feasible at `T` ⇒ feasible at `T+1`"
//!   is *false* under structural hazards — modulo feasibility of a
//!   reservation table is not monotone in the period, which is why the
//!   driver skips modulo-infeasible periods — so the runner checks the
//!   sound residue: positive confirmations must verify, and a proven
//!   optimum at `T` with a *refutation* at `T+1` is accepted only when
//!   some class table is modulo-infeasible at `T+1`.)
//!
//! Determinism: every engine runs under a tick-capped, wall-clock-free
//! [`Budget`], so a case's report — including every violation — is a
//! pure function of the case. That is what makes same-seed campaigns
//! byte-identical and shrinking reproducible.

use crate::gen::FuzzCase;
use swp_core::{
    Engine, FaultPlan, Optimality, PeriodAttempt, PeriodOutcome, RateOptimalScheduler,
    ScheduleError, ScheduleResult, SchedulerConfig, SolvedBy,
};
use swp_ddg::{Ddg, OpClass};
use swp_heuristics::{HeuristicError, IterativeModuloScheduler};
use swp_machine::{
    simulate, BundleSpec, FuType, Machine, PipelinedSchedule, SlotGroup, UnitPolicy,
};
use swp_milp::Budget;

/// What went wrong, as a stable label usable for dedup and shrinking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// An accepted schedule failed the exact checker.
    CheckerReject,
    /// An accepted schedule failed the cycle-accurate simulator.
    SimulatorReject,
    /// Two proven-optimal results disagree on `T`.
    ProvenMismatch,
    /// A result beats a proven-optimal `T`.
    BelowProven,
    /// A configuration proved a period infeasible that another
    /// configuration certified feasible.
    FalseRefutation,
    /// An accepted period violates `max(T_dep, T_res)`, or a
    /// budget-exhausted bracket is inconsistent.
    BoundViolated,
    /// A configuration reports `T_dep`/`T_res` other than the exact
    /// ones.
    BoundsMismatch,
    /// An engine returned an internal-invariant error
    /// (verification failure, mapping gap, solver breakdown).
    EngineError,
    /// A guaranteed-schedulable case found no schedule without any
    /// budget trip.
    Unschedulable,
    /// Instruction relabeling changed the outcome.
    MetamorphicRelabel,
    /// Function-unit renaming/permutation changed the outcome.
    MetamorphicRenaming,
    /// Uniform latency scaling decreased the proven `T`.
    MetamorphicScaling,
    /// The `T+1` confirmation schedule failed to verify, or `T+1` was
    /// refuted without a modulo-infeasible table to justify it.
    MetamorphicTPlusOne,
    /// A warm incremental session and a cold solver disagreed on a
    /// decision (achieved period, optimality claim, or schedule
    /// acceptance) at some step of an edit script.
    IncrementalDiverged,
}

impl ViolationKind {
    /// Stable label (used in JSONL records and regression files).
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationKind::CheckerReject => "checker-reject",
            ViolationKind::SimulatorReject => "simulator-reject",
            ViolationKind::ProvenMismatch => "proven-mismatch",
            ViolationKind::BelowProven => "below-proven",
            ViolationKind::FalseRefutation => "false-refutation",
            ViolationKind::BoundViolated => "bound-violated",
            ViolationKind::BoundsMismatch => "bounds-mismatch",
            ViolationKind::EngineError => "engine-error",
            ViolationKind::Unschedulable => "unschedulable",
            ViolationKind::MetamorphicRelabel => "metamorphic-relabel",
            ViolationKind::MetamorphicRenaming => "metamorphic-renaming",
            ViolationKind::MetamorphicScaling => "metamorphic-scaling",
            ViolationKind::MetamorphicTPlusOne => "metamorphic-t-plus-1",
            ViolationKind::IncrementalDiverged => "incremental-diverged",
        }
    }

    /// Parses a label written by [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<ViolationKind> {
        use ViolationKind::*;
        for k in [
            CheckerReject,
            SimulatorReject,
            ProvenMismatch,
            BelowProven,
            FalseRefutation,
            BoundViolated,
            BoundsMismatch,
            EngineError,
            Unschedulable,
            MetamorphicRelabel,
            MetamorphicRenaming,
            MetamorphicScaling,
            MetamorphicTPlusOne,
            IncrementalDiverged,
        ] {
            if k.as_str() == s {
                return Some(k);
            }
        }
        None
    }
}

/// One oracle-property violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which property broke.
    pub kind: ViolationKind,
    /// Configuration that broke it.
    pub config: String,
    /// Deterministic human-readable detail.
    pub details: String,
}

/// Options for the runner.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Deterministic tick cap per engine invocation.
    pub ticks_per_config: u64,
    /// Run the metamorphic relations (skipped automatically when faults
    /// are injected — a broken checker fails them trivially).
    pub metamorphic: bool,
    /// Fault plan injected into the *baseline* configuration only; used
    /// to prove the oracle catches a deliberately broken pipeline.
    pub faults: FaultPlan,
    /// Iterations fed to the cycle-accurate simulator.
    pub sim_iterations: u32,
    /// When set, restricts the driver matrix to configurations using
    /// this exact engine, plus the baseline (which every cross-check and
    /// metamorphic relation compares against). `None` runs everything.
    pub engine_filter: Option<Engine>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            ticks_per_config: 2_000_000,
            metamorphic: true,
            faults: FaultPlan::default(),
            sim_iterations: 4,
            engine_filter: None,
        }
    }
}

/// Compact, timing-free outcome of one configuration.
#[derive(Debug, Clone)]
pub struct ConfigOutcome {
    /// Configuration name (`"ilp+ims"`, …).
    pub config: &'static str,
    /// Accepted period, when a schedule was produced.
    pub period: Option<u32>,
    /// Whether the period was proven optimal.
    pub proven: bool,
    /// Whether any period attempt tripped a budget.
    pub timed_out: bool,
    /// Deterministic summary string (goes into the JSONL record).
    pub summary: String,
}

/// Everything the runner learned about one case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Case index within the campaign.
    pub index: usize,
    /// Case name.
    pub name: String,
    /// Whether the case carried the schedulability guarantee.
    pub guaranteed: bool,
    /// Nodes in the DDG.
    pub num_nodes: usize,
    /// Edges in the DDG.
    pub num_edges: usize,
    /// Recurrence bound.
    pub t_dep: u32,
    /// Resource bound (exact, packing-refined).
    pub t_res: u32,
    /// The agreed proven-optimal period, if any configuration proved one.
    pub proven_t: Option<u32>,
    /// Per-configuration outcomes, in configuration order.
    pub outcomes: Vec<ConfigOutcome>,
    /// Metamorphic relations actually evaluated (conclusively).
    pub metamorphic_checked: u32,
    /// Oracle-property violations.
    pub violations: Vec<Violation>,
}

impl CaseReport {
    /// Whether the case passed every property.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The driver matrix: `(name, heuristic_incumbent, engine)`. Index 0
/// is the *baseline* every cross-check and metamorphic relation
/// compares against (and the only slot faults are injected into). The
/// CP and portfolio rows run without the IMS incumbent so the exact
/// engines — not a heuristic certificate — settle every period.
const SCHEDULER_CONFIGS: [(&str, bool, Engine); 4] = [
    ("ilp+ims", true, Engine::Ilp),
    ("ilp", false, Engine::Ilp),
    ("cp", false, Engine::Cp),
    ("portfolio", false, Engine::Portfolio),
];

fn scheduler_config(
    heuristic_incumbent: bool,
    engine: Engine,
    faults: FaultPlan,
    max_live: Option<u32>,
) -> SchedulerConfig {
    SchedulerConfig {
        // Wall-clock limits off: ticks are the only budget, so outcomes
        // are machine-speed independent.
        time_limit_per_t: None,
        time_limit_total: None,
        heuristic_incumbent,
        engine,
        faults,
        max_live,
        ..SchedulerConfig::default()
    }
}

/// One driver invocation, reduced to what the oracle needs.
enum DriverOutcome {
    Ok(Box<ScheduleResult>),
    Failed(ScheduleError),
}

fn run_driver(case: &FuzzCase, config: SchedulerConfig, ticks: u64) -> DriverOutcome {
    let budget = Budget::with_tick_limit(ticks);
    match RateOptimalScheduler::new(case.machine.clone(), config).schedule_with(&case.ddg, &budget)
    {
        Ok(r) => DriverOutcome::Ok(Box::new(r)),
        Err(e) => DriverOutcome::Failed(e),
    }
}

fn attempts_timed_out(attempts: &[PeriodAttempt]) -> bool {
    attempts.iter().any(|a| a.outcome.is_undecided())
}

/// Periods this attempt log *proved* infeasible.
fn refuted_periods(attempts: &[PeriodAttempt]) -> Vec<u32> {
    attempts
        .iter()
        .filter(|a| {
            matches!(
                a.outcome,
                PeriodOutcome::Infeasible | PeriodOutcome::RejectedAtBuild
            )
        })
        .map(|a| a.period)
        .collect()
}

/// Renders one outcome as a deterministic summary string.
fn summarize(outcome: &DriverOutcome) -> String {
    match outcome {
        DriverOutcome::Ok(r) => {
            let t = r.schedule.initiation_interval();
            let by = match r.solved_by() {
                SolvedBy::Heuristic => "ims",
                SolvedBy::Ilp => "ilp",
                SolvedBy::Cp => "cp",
            };
            match r.optimality {
                Optimality::Proven => format!("T={t} proven {by}"),
                Optimality::BudgetExhausted { smallest_refuted } => {
                    format!("T={t} budget[{smallest_refuted}..{t}] {by}")
                }
            }
        }
        DriverOutcome::Failed(e) => match e {
            ScheduleError::NotFound { t_lb, t_max, .. } => format!("notfound[{t_lb}..{t_max}]"),
            ScheduleError::Cancelled => "cancelled".to_string(),
            other => format!("error:{other}"),
        },
    }
}

/// Checks one accepted schedule against the exact checker and the
/// cycle-accurate simulator.
pub(crate) fn check_schedule(
    config: &str,
    schedule: &PipelinedSchedule,
    ddg: &Ddg,
    machine: &Machine,
    max_live: Option<u32>,
    sim_iterations: u32,
    violations: &mut Vec<Violation>,
) {
    if let Err(e) = schedule.validate(ddg, machine) {
        violations.push(Violation {
            kind: ViolationKind::CheckerReject,
            config: config.to_string(),
            details: format!("checker rejected accepted schedule: {e}"),
        });
        return;
    }
    if let Some(limit) = max_live {
        if let Err(e) = schedule.validate_pressure(ddg, limit) {
            violations.push(Violation {
                kind: ViolationKind::CheckerReject,
                config: config.to_string(),
                details: format!("accepted schedule breaks the pressure cap: {e}"),
            });
            return;
        }
    }
    let policy = if schedule.is_mapped() {
        UnitPolicy::Fixed
    } else {
        UnitPolicy::Dynamic
    };
    if let Err(e) = simulate(machine, ddg, schedule, sim_iterations, policy) {
        violations.push(Violation {
            kind: ViolationKind::SimulatorReject,
            config: config.to_string(),
            details: format!("simulator rejected accepted schedule: {e}"),
        });
    }
}

/// Runs every configuration over `case` and applies the oracle.
pub fn run_case(case: &FuzzCase, opts: &DiffOptions) -> CaseReport {
    let faulted = opts.faults != FaultPlan::default();
    let mut violations: Vec<Violation> = Vec::new();

    let t_res = case.machine.t_res(&case.ddg).unwrap_or(0);
    let t_dep = case.ddg.t_dep().unwrap_or(0);
    let t_lb = t_dep.max(t_res);

    // Stage 1: the driver configurations (the engine matrix).
    let mut driver_outcomes: Vec<(usize, DriverOutcome)> = Vec::new();
    let mut outcomes: Vec<ConfigOutcome> = Vec::new();
    for (i, (name, incumbent, engine)) in SCHEDULER_CONFIGS.iter().enumerate() {
        // The baseline (index 0) always runs: every cross-check and
        // metamorphic relation is anchored to it.
        if i != 0 && opts.engine_filter.is_some_and(|f| f != *engine) {
            continue;
        }
        let faults = if i == 0 {
            opts.faults
        } else {
            FaultPlan::default()
        };
        let outcome = run_driver(
            case,
            scheduler_config(*incumbent, *engine, faults, case.max_live),
            opts.ticks_per_config,
        );
        let (period, proven, timed_out) = match &outcome {
            DriverOutcome::Ok(r) => (
                Some(r.schedule.initiation_interval()),
                r.is_proven_optimal(),
                attempts_timed_out(&r.attempts) || !r.is_proven_optimal(),
            ),
            DriverOutcome::Failed(ScheduleError::NotFound { attempts, .. }) => {
                (None, false, attempts_timed_out(attempts))
            }
            DriverOutcome::Failed(_) => (None, false, true),
        };
        outcomes.push(ConfigOutcome {
            config: name,
            period,
            proven,
            timed_out,
            summary: summarize(&outcome),
        });
        driver_outcomes.push((i, outcome));
    }

    // Property 1: accepted schedules verify. Property 5a: bounds hold.
    for (i, outcome) in &driver_outcomes {
        let name = SCHEDULER_CONFIGS[*i].0;
        // Note: a fault-injected configuration gets no special
        // treatment here — the oracle judging every engine by the same
        // rules is precisely how a deliberately broken checker is
        // caught (it surfaces as `EngineError`/`FalseRefutation`).
        match outcome {
            DriverOutcome::Ok(r) => {
                check_schedule(
                    name,
                    &r.schedule,
                    &case.ddg,
                    &case.machine,
                    case.max_live,
                    opts.sim_iterations,
                    &mut violations,
                );
                let t = r.schedule.initiation_interval();
                if t < t_lb {
                    violations.push(Violation {
                        kind: ViolationKind::BoundViolated,
                        config: name.to_string(),
                        details: format!("accepted T={t} below lower bound {t_lb}"),
                    });
                }
                if r.t_dep != t_dep || r.t_res != t_res {
                    violations.push(Violation {
                        kind: ViolationKind::BoundsMismatch,
                        config: name.to_string(),
                        details: format!(
                            "reported bounds ({}, {}) != computed ({t_dep}, {t_res})",
                            r.t_dep, r.t_res
                        ),
                    });
                }
                if let Optimality::BudgetExhausted { smallest_refuted } = r.optimality {
                    if smallest_refuted > t {
                        violations.push(Violation {
                            kind: ViolationKind::BoundViolated,
                            config: name.to_string(),
                            details: format!("budget bracket [{smallest_refuted}..{t}] is empty"),
                        });
                    }
                }
            }
            DriverOutcome::Failed(e) => match e {
                ScheduleError::NotFound { .. } | ScheduleError::Cancelled => {}
                other => {
                    violations.push(Violation {
                        kind: ViolationKind::EngineError,
                        config: name.to_string(),
                        details: format!("driver error: {other}"),
                    });
                }
            },
        }
    }

    // Property 2: proven results agree on T.
    let proven_ts: Vec<(usize, u32)> = driver_outcomes
        .iter()
        .filter_map(|(i, o)| match o {
            DriverOutcome::Ok(r) if r.is_proven_optimal() => {
                Some((*i, r.schedule.initiation_interval()))
            }
            _ => None,
        })
        .collect();
    let proven_t = proven_ts.iter().map(|&(_, t)| t).min();
    if let Some(t_star) = proven_t {
        for &(i, t) in &proven_ts {
            if t != t_star {
                violations.push(Violation {
                    kind: ViolationKind::ProvenMismatch,
                    config: SCHEDULER_CONFIGS[i].0.to_string(),
                    details: format!("proven T={t} disagrees with proven T={t_star}"),
                });
            }
        }
        // Property 3: nothing beats a proven optimum.
        // Property 4: nobody refuted the proven-feasible period.
        for (i, outcome) in &driver_outcomes {
            let name = SCHEDULER_CONFIGS[*i].0;
            match outcome {
                DriverOutcome::Ok(r) => {
                    let t = r.schedule.initiation_interval();
                    if t < t_star {
                        violations.push(Violation {
                            kind: ViolationKind::BelowProven,
                            config: name.to_string(),
                            details: format!("accepted T={t} beats proven optimum {t_star}"),
                        });
                    }
                    if refuted_periods(&r.attempts).contains(&t_star) && t != t_star {
                        violations.push(Violation {
                            kind: ViolationKind::FalseRefutation,
                            config: name.to_string(),
                            details: format!("refuted period {t_star} proven feasible elsewhere"),
                        });
                    }
                }
                DriverOutcome::Failed(ScheduleError::NotFound { attempts, .. }) => {
                    if refuted_periods(attempts).contains(&t_star) {
                        violations.push(Violation {
                            kind: ViolationKind::FalseRefutation,
                            config: name.to_string(),
                            details: format!("refuted period {t_star} proven feasible elsewhere"),
                        });
                    }
                }
                DriverOutcome::Failed(_) => {}
            }
        }
    }

    // Property 7: guaranteed-schedulable cases schedule (when complete).
    if case.guaranteed && !faulted {
        for (i, outcome) in &driver_outcomes {
            if let DriverOutcome::Failed(ScheduleError::NotFound { attempts, .. }) = outcome {
                if !attempts_timed_out(attempts) {
                    violations.push(Violation {
                        kind: ViolationKind::Unschedulable,
                        config: SCHEDULER_CONFIGS[*i].0.to_string(),
                        details: "guaranteed-schedulable case exhausted the period range"
                            .to_string(),
                    });
                }
            }
        }
    }

    // Stage 2: iterative modulo scheduling alone.
    let name = "ims";
    let budget = Budget::with_tick_limit(opts.ticks_per_config);
    let ims = IterativeModuloScheduler::new(case.machine.clone()).with_max_live(case.max_live);
    match ims.schedule_with(&case.ddg, &budget) {
        Ok(hr) => {
            let ii = hr.schedule.initiation_interval();
            check_schedule(
                name,
                &hr.schedule,
                &case.ddg,
                &case.machine,
                case.max_live,
                opts.sim_iterations,
                &mut violations,
            );
            if ii < t_lb {
                violations.push(Violation {
                    kind: ViolationKind::BoundViolated,
                    config: name.to_string(),
                    details: format!("IMS II={ii} below lower bound {t_lb}"),
                });
            }
            if let Some(t_star) = proven_t {
                if ii < t_star {
                    violations.push(Violation {
                        kind: ViolationKind::BelowProven,
                        config: name.to_string(),
                        details: format!("IMS II={ii} beats proven optimum {t_star}"),
                    });
                }
            }
            outcomes.push(ConfigOutcome {
                config: name,
                period: Some(ii),
                proven: false,
                timed_out: false,
                summary: format!("II={ii}"),
            });
        }
        Err(e) => {
            match &e {
                HeuristicError::NotFound { .. }
                | HeuristicError::BudgetExhausted
                | HeuristicError::Cancelled => {}
                other => violations.push(Violation {
                    kind: ViolationKind::EngineError,
                    config: name.to_string(),
                    details: format!("IMS error: {other}"),
                }),
            }
            outcomes.push(ConfigOutcome {
                config: name,
                period: None,
                proven: false,
                timed_out: matches!(
                    e,
                    HeuristicError::BudgetExhausted | HeuristicError::Cancelled
                ),
                summary: format!("ims-{e:?}")
                    .to_lowercase()
                    .chars()
                    .filter(|c| !c.is_whitespace())
                    .collect(),
            });
        }
    }

    // Stage 3: metamorphic relations, against the *unfaulted* baseline.
    let mut metamorphic_checked = 0;
    if opts.metamorphic && !faulted {
        let baseline = &driver_outcomes[0].1;
        metamorphic_checked += metamorphic_relabel(case, baseline, opts, &mut violations) as u32;
        metamorphic_checked +=
            metamorphic_permute_classes(case, baseline, opts, &mut violations) as u32;
        metamorphic_checked += metamorphic_scale(case, baseline, opts, &mut violations) as u32;
        metamorphic_checked += metamorphic_t_plus_one(case, baseline, opts, &mut violations) as u32;
    }

    CaseReport {
        index: case.index,
        name: case.name.clone(),
        guaranteed: case.guaranteed,
        num_nodes: case.ddg.num_nodes(),
        num_edges: case.ddg.num_edges(),
        t_dep,
        t_res,
        proven_t,
        outcomes,
        metamorphic_checked,
        violations,
    }
}

/// `(T, proven)` of a conclusive outcome; `None` when the run tripped a
/// budget anywhere (in which case comparisons would be unsound).
fn conclusive_signature(outcome: &DriverOutcome) -> Option<(Option<u32>, bool)> {
    match outcome {
        DriverOutcome::Ok(r) => {
            if attempts_timed_out(&r.attempts) || !r.is_proven_optimal() {
                None
            } else {
                Some((Some(r.schedule.initiation_interval()), true))
            }
        }
        DriverOutcome::Failed(ScheduleError::NotFound { attempts, .. }) => {
            if attempts_timed_out(attempts) {
                None
            } else {
                Some((None, false))
            }
        }
        DriverOutcome::Failed(_) => None,
    }
}

fn rerun_baseline(case: &FuzzCase, opts: &DiffOptions) -> DriverOutcome {
    run_driver(
        case,
        scheduler_config(true, Engine::Ilp, FaultPlan::default(), case.max_live),
        opts.ticks_per_config,
    )
}

/// Relabeling instructions must not change the outcome. Returns whether
/// the relation was conclusively evaluated.
fn metamorphic_relabel(
    case: &FuzzCase,
    baseline: &DriverOutcome,
    opts: &DiffOptions,
    violations: &mut Vec<Violation>,
) -> bool {
    let Some(base_sig) = conclusive_signature(baseline) else {
        return false;
    };
    let mut g = Ddg::new();
    let ids: Vec<_> = case
        .ddg
        .nodes()
        .map(|(_, n)| g.add_node(format!("relabeled_{}", n.name), n.class, n.latency))
        .collect();
    for e in case.ddg.edges() {
        g.add_edge(ids[e.src.index()], ids[e.dst.index()], e.distance)
            .expect("same shape");
    }
    let renamed = FuzzCase {
        ddg: g,
        ..case.clone()
    };
    let outcome = rerun_baseline(&renamed, opts);
    let Some(sig) = conclusive_signature(&outcome) else {
        return false;
    };
    if sig != base_sig {
        violations.push(Violation {
            kind: ViolationKind::MetamorphicRelabel,
            config: "ilp+ims".to_string(),
            details: format!(
                "relabeled outcome {} != original {}",
                summarize(&outcome),
                summarize(baseline)
            ),
        });
    }
    true
}

/// Rotating the class order (renaming every function unit) must not
/// change the outcome.
fn metamorphic_permute_classes(
    case: &FuzzCase,
    baseline: &DriverOutcome,
    opts: &DiffOptions,
    violations: &mut Vec<Violation>,
) -> bool {
    let k = case.machine.num_classes();
    if k < 2 {
        return false;
    }
    let Some(base_sig) = conclusive_signature(baseline) else {
        return false;
    };
    // Class c moves to slot (c + 1) % k; unit names follow their slot.
    let mut types: Vec<FuType> = Vec::with_capacity(k);
    for slot in 0..k {
        let old = (slot + k - 1) % k;
        let mut t = case.machine.types()[old].clone();
        t.name = format!("R{slot}");
        types.push(t);
    }
    let mut machine = Machine::new(types).expect("counts preserved");
    if let Some(b) = case.machine.bundle() {
        // Slot groups name classes by index, so they rotate with them.
        let rotated = BundleSpec {
            width: b.width,
            groups: b
                .groups
                .iter()
                .map(|gr| SlotGroup {
                    name: gr.name.clone(),
                    cap: gr.cap,
                    classes: gr.classes.iter().map(|&c| (c + 1) % k).collect(),
                })
                .collect(),
        };
        machine = machine.with_bundle(rotated).expect("caps preserved");
    }
    let mut g = Ddg::new();
    let ids: Vec<_> = case
        .ddg
        .nodes()
        .map(|(_, n)| {
            g.add_node(
                n.name.clone(),
                OpClass::new((n.class.index() + 1) % k),
                n.latency,
            )
        })
        .collect();
    for e in case.ddg.edges() {
        g.add_edge(ids[e.src.index()], ids[e.dst.index()], e.distance)
            .expect("same shape");
    }
    let permuted = FuzzCase {
        machine,
        ddg: g,
        ..case.clone()
    };
    let outcome = rerun_baseline(&permuted, opts);
    let Some(sig) = conclusive_signature(&outcome) else {
        return false;
    };
    if sig != base_sig {
        violations.push(Violation {
            kind: ViolationKind::MetamorphicRenaming,
            config: "ilp+ims".to_string(),
            details: format!(
                "class-permuted outcome {} != original {}",
                summarize(&outcome),
                summarize(baseline)
            ),
        });
    }
    true
}

/// Doubling every latency (node and machine; reservation tables
/// untouched) can only tighten dependence constraints, so the proven
/// optimum must not decrease.
fn metamorphic_scale(
    case: &FuzzCase,
    baseline: &DriverOutcome,
    opts: &DiffOptions,
    violations: &mut Vec<Violation>,
) -> bool {
    let DriverOutcome::Ok(base) = baseline else {
        return false;
    };
    if !base.is_proven_optimal() {
        return false;
    }
    let t_orig = base.schedule.initiation_interval();
    let types: Vec<FuType> = case
        .machine
        .types()
        .iter()
        .map(|t| FuType {
            latency: t.latency * 2,
            ..t.clone()
        })
        .collect();
    let mut machine = Machine::new(types).expect("counts preserved");
    if let Some(b) = case.machine.bundle() {
        machine = machine.with_bundle(b.clone()).expect("caps preserved");
    }
    let mut g = Ddg::new();
    let ids: Vec<_> = case
        .ddg
        .nodes()
        .map(|(_, n)| g.add_node(n.name.clone(), n.class, n.latency * 2))
        .collect();
    for e in case.ddg.edges() {
        g.add_edge(ids[e.src.index()], ids[e.dst.index()], e.distance)
            .expect("same shape");
    }
    let scaled = FuzzCase {
        machine,
        ddg: g,
        ..case.clone()
    };
    let outcome = rerun_baseline(&scaled, opts);
    let DriverOutcome::Ok(res) = &outcome else {
        // Scaling can push the optimum past the search cap; that is a
        // legitimate NotFound, not a monotonicity violation.
        return false;
    };
    if !res.is_proven_optimal() {
        return false;
    }
    let t_scaled = res.schedule.initiation_interval();
    if t_scaled < t_orig {
        violations.push(Violation {
            kind: ViolationKind::MetamorphicScaling,
            config: "ilp+ims".to_string(),
            details: format!("latency ×2 decreased proven T: {t_orig} -> {t_scaled}"),
        });
    }
    true
}

/// After a proven optimum at `T`, probe `T+1` with the IMS: a positive
/// answer must verify. A refutation of `T+1` by the baseline's own
/// attempt log is only acceptable when some used class's table is
/// modulo-infeasible at `T+1`.
fn metamorphic_t_plus_one(
    case: &FuzzCase,
    baseline: &DriverOutcome,
    opts: &DiffOptions,
    violations: &mut Vec<Violation>,
) -> bool {
    let DriverOutcome::Ok(base) = baseline else {
        return false;
    };
    if !base.is_proven_optimal() {
        return false;
    }
    let t1 = base.schedule.initiation_interval() + 1;
    let budget = Budget::with_tick_limit(opts.ticks_per_config);
    let ims = IterativeModuloScheduler::new(case.machine.clone()).with_max_live(case.max_live);
    match ims.schedule_at_with(&case.ddg, t1, &budget) {
        Ok(Some(s)) => {
            if s.initiation_interval() != t1 {
                violations.push(Violation {
                    kind: ViolationKind::MetamorphicTPlusOne,
                    config: "ims".to_string(),
                    details: format!("asked for II={t1}, got II={}", s.initiation_interval()),
                });
            } else {
                let before = violations.len();
                check_schedule(
                    "ims@T+1",
                    &s,
                    &case.ddg,
                    &case.machine,
                    case.max_live,
                    opts.sim_iterations,
                    violations,
                );
                // Re-tag verification failures under the metamorphic kind
                // so shrinking targets the right predicate.
                for v in violations.iter_mut().skip(before) {
                    v.kind = ViolationKind::MetamorphicTPlusOne;
                }
            }
            true
        }
        Ok(None) | Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_cases, GenConfig, MachineFamily};

    #[test]
    fn clean_pipeline_runs_clean() {
        // A healthy engine set over a small campaign: zero violations.
        let cfg = GenConfig {
            seed: 11,
            max_nodes: 6,
            ..GenConfig::default()
        };
        let opts = DiffOptions::default();
        for case in gen_cases(&cfg, 40) {
            let report = run_case(&case, &opts);
            assert!(report.passed(), "{}: {:?}", case.name, report.violations);
        }
    }

    #[test]
    fn engine_filter_keeps_baseline_and_matching_rows() {
        let cfg = GenConfig {
            seed: 7,
            max_nodes: 5,
            ..GenConfig::default()
        };
        let opts = DiffOptions {
            engine_filter: Some(Engine::Portfolio),
            ..DiffOptions::default()
        };
        for case in gen_cases(&cfg, 5) {
            let report = run_case(&case, &opts);
            let names: Vec<&str> = report.outcomes.iter().map(|o| o.config).collect();
            assert_eq!(
                names,
                ["ilp+ims", "portfolio", "ims"],
                "filtered matrix should be baseline + portfolio row + IMS stage"
            );
            assert!(report.passed(), "{}: {:?}", case.name, report.violations);
        }
    }

    #[test]
    fn vliw_family_runs_clean() {
        let cfg = GenConfig {
            seed: 21,
            max_nodes: 5,
            family: MachineFamily::Vliw,
            ..GenConfig::default()
        };
        // Tight ticks keep this debug-build smoke cheap; budget trips
        // just mark outcomes inconclusive. The full-scale campaign runs
        // in release via `ci/scenario-smoke.sh`.
        let opts = DiffOptions {
            ticks_per_config: 200_000,
            ..DiffOptions::default()
        };
        for case in gen_cases(&cfg, 10) {
            let report = run_case(&case, &opts);
            assert!(report.passed(), "{}: {:?}", case.name, report.violations);
        }
    }

    #[test]
    fn regpressure_family_runs_clean() {
        let cfg = GenConfig {
            seed: 23,
            max_nodes: 5,
            family: MachineFamily::RegPressure,
            ..GenConfig::default()
        };
        let opts = DiffOptions {
            ticks_per_config: 200_000,
            ..DiffOptions::default()
        };
        let mut capped = 0;
        for case in gen_cases(&cfg, 10) {
            capped += usize::from(case.max_live.is_some());
            let report = run_case(&case, &opts);
            assert!(report.passed(), "{}: {:?}", case.name, report.violations);
        }
        assert!(capped > 0, "campaign exercised no pressure caps");
    }

    #[test]
    fn reports_are_deterministic() {
        let cfg = GenConfig {
            seed: 5,
            ..GenConfig::default()
        };
        let opts = DiffOptions::default();
        for case in gen_cases(&cfg, 10) {
            let a = run_case(&case, &opts);
            let b = run_case(&case, &opts);
            assert_eq!(a.proven_t, b.proven_t);
            let sa: Vec<&str> = a.outcomes.iter().map(|o| o.summary.as_str()).collect();
            let sb: Vec<&str> = b.outcomes.iter().map(|o| o.summary.as_str()).collect();
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn fault_injection_is_caught() {
        // Rejecting every schedule in the baseline config must surface a
        // disagreement on some case of a small campaign.
        let cfg = GenConfig {
            seed: 3,
            ..GenConfig::default()
        };
        let opts = DiffOptions {
            faults: FaultPlan {
                reject_ilp_schedule: true,
                reject_heuristic_schedule: true,
                ..FaultPlan::default()
            },
            ..DiffOptions::default()
        };
        let caught = gen_cases(&cfg, 25)
            .iter()
            .any(|case| !run_case(case, &opts).passed());
        assert!(caught, "broken checker escaped the differential oracle");
    }
}
