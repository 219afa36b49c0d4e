//! The rate-optimal scheduling driver.
//!
//! Finding the minimum `T` is done exactly as in the paper's evaluation:
//! compute `T_lb = max(T_dep, T_res)`, then solve the unified ILP at
//! `T = T_lb, T_lb+1, …` until one is feasible. The first feasible period
//! is rate-optimal by construction (every smaller period is infeasible —
//! either proven by the ILP or excluded by the lower bound).
//!
//! # Budgets and graceful degradation
//!
//! [`RateOptimalScheduler::schedule_with`] threads a shared
//! [`swp_milp::Budget`] (wall-clock deadline, deterministic tick cap,
//! cooperative cancel token) through every engine: simplex pivots,
//! branch-and-bound nodes, and IMS placements all spend ticks from the
//! same pool. When the budget runs out mid-search the driver does not
//! error: it falls back to a best-effort heuristic schedule found under a
//! small fresh tick allowance and tags the result
//! [`Optimality::BudgetExhausted`], recording how far the exact refutation
//! got. Cancellation is different — a fired token means the caller wants
//! out *now*, so it surfaces as [`ScheduleError::Cancelled`].
//!
//! # Self-verification
//!
//! Every schedule — from the ILP or the heuristic — is re-checked by the
//! independent cycle-accurate checker ([`PipelinedSchedule::validate`])
//! before it leaves the driver. A rejected schedule triggers fallback to
//! the other engine; only if both fail does the driver return
//! [`ScheduleError::VerificationFailed`].

use crate::formulation::{self, FormulationOptions, MappingMode, Objective};
use crate::ScheduleError;
use std::time::{Duration, Instant};
use swp_cpsat::{CpError, CpOptions, CpOutcome};
use swp_ddg::Ddg;
use swp_heuristics::{HeuristicError, IterativeModuloScheduler};
use swp_machine::checker::{greedy_assignment, ConflictError, PlacedOp};
use swp_machine::{Machine, PipelinedSchedule, ValidationError};
use swp_milp::{Budget, Exhaustion, SolveError, SolveLimits};

/// Tick allowance for the best-effort heuristic pass that runs after the
/// main budget is exhausted. Ticks (one per IMS placement) rather than
/// wall-clock, so the grace pass works even when the deadline is already
/// past, and stays bounded deterministically. The caller's cancel token
/// still stops it.
const GRACE_TICKS: u64 = 200_000;

/// Test-only fault injection: forces failures at chosen pipeline stages
/// so the degradation paths can be exercised deterministically. All
/// fields default to `false` (no faults). Not part of the public API
/// contract.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Pretend the heuristic incumbent probe found nothing.
    pub fail_heuristic_incumbent: bool,
    /// Pretend every ILP solve failed numerically
    /// ([`SolveError::Numerical`]).
    pub fail_ilp: bool,
    /// Treat every ILP-produced schedule as failing verification.
    pub reject_ilp_schedule: bool,
    /// Treat every heuristic-produced schedule as failing verification.
    pub reject_heuristic_schedule: bool,
    /// Pretend the global budget is already exhausted before the first
    /// candidate period.
    pub expire_before_search: bool,
    /// Pretend the global budget expires right before the ILP stage of
    /// the first attempted period.
    pub expire_before_ilp: bool,
    /// Panic inside the driver before the first candidate period —
    /// exercises crash isolation (`catch_unwind` supervision) in
    /// embedders like the `swpd` daemon without corrupting any engine
    /// state: the panic fires before any solver structure is built.
    pub panic_in_solver: bool,
}

/// Which exact engine settles each candidate period (after the optional
/// IMS incumbent probe, which is engine-independent).
///
/// The CP backend implements the unified-coloring feasibility problem
/// only; under [`MappingMode::CapacityOnly`] or a non-`Feasible`
/// [`Objective`] the driver transparently uses the ILP regardless of
/// this setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The unified ILP (simplex + branch-and-bound). The seed behaviour.
    #[default]
    Ilp,
    /// The constraint-propagation backend (`swp-cpsat`): offset/color
    /// search with interval, capacity, and hazard/coloring propagators
    /// plus no-good recording. Proven-exact, decision-equivalent to the
    /// ILP.
    Cp,
    /// Both exact engines, staged on one per-period budget: the CP
    /// backend first, on half of each capped axis (ticks and deadline),
    /// then the ILP on what is left of the same budget if CP ran out or
    /// failed. Every tick either stage spends is charged to the caller's
    /// budget, and the solve is as deterministic as its budget.
    Portfolio,
}

impl Engine {
    /// The engine's name on the command line and the wire — the one
    /// name table, which [`from_name`](Self::from_name) parses back.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Ilp => "ilp",
            Engine::Cp => "cp",
            Engine::Portfolio => "portfolio",
        }
    }

    /// The engine whose [`name`](Self::name) is `name`, if any.
    pub fn from_name(name: &str) -> Option<Engine> {
        [Engine::Ilp, Engine::Cp, Engine::Portfolio]
            .into_iter()
            .find(|e| e.name() == name)
    }
}

/// Configuration for [`RateOptimalScheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// How mapping is handled (default: the paper's unified coloring).
    pub mapping: MappingMode,
    /// Objective at each fixed `T` (default: pure feasibility).
    pub objective: Objective,
    /// ILP budget per candidate period (default 10 s).
    pub time_limit_per_t: Option<Duration>,
    /// Wall-clock budget for the *whole* search across all candidate
    /// periods (default: none). When it runs out, the driver returns the
    /// best schedule it can still certify, tagged
    /// [`Optimality::BudgetExhausted`]. For tick caps or cancellation use
    /// [`RateOptimalScheduler::schedule_with`] directly.
    pub time_limit_total: Option<Duration>,
    /// Give up after `T_lb + max_t_above_lb` (default 16).
    pub max_t_above_lb: u32,
    /// Prune rotation and color-permutation symmetry (default on).
    pub symmetry_breaking: bool,
    /// Use the exact class-packing capacity to refine `T_res` and reject
    /// impossible periods before solving (default on; ablatable).
    pub packing_bound: bool,
    /// Try iterative modulo scheduling at each candidate period before
    /// the ILP (default on). A heuristic schedule at `T` is a feasibility
    /// certificate, so rate-optimality is unaffected: every smaller
    /// period has still been refuted exactly. Turn off to measure pure
    /// ILP behaviour (Table 5).
    pub heuristic_incumbent: bool,
    /// Which exact engine settles each candidate period (default: the
    /// ILP). See [`Engine`].
    pub engine: Engine,
    /// Carry warm hints (simplex basis, CP no-goods, schedule hints)
    /// across the `T`-sweep and across solves sharing a [`WarmState`]
    /// (default on). Hints are re-validated before use and can never
    /// change a verdict; turn off for a strictly cold, hint-free solve —
    /// the pre-warm-start behaviour, byte for byte.
    pub warm_sweep: bool,
    /// Register-pressure cap (default: none). When set, every engine —
    /// ILP rows, CP propagation, the IMS incumbent probe — bounds the
    /// number of simultaneously live values per pattern residue by this
    /// limit, and the independent checker re-verifies it
    /// ([`PipelinedSchedule::validate_pressure`]). Refutations at a
    /// period are then refutations *under the cap*: a tighter cap can
    /// only raise the proven-optimal `T`.
    pub max_live: Option<u32>,
    /// Test-only fault injection; leave at `Default::default()`.
    #[doc(hidden)]
    pub faults: FaultPlan,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            mapping: MappingMode::default(),
            objective: Objective::default(),
            time_limit_per_t: Some(Duration::from_secs(10)),
            time_limit_total: None,
            max_t_above_lb: 16,
            symmetry_breaking: true,
            packing_bound: true,
            heuristic_incumbent: true,
            engine: Engine::default(),
            warm_sweep: true,
            max_live: None,
            faults: FaultPlan::default(),
        }
    }
}

/// Which engine settled a candidate period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvedBy {
    /// The unified ILP.
    Ilp,
    /// The constraint-propagation backend (`swp-cpsat`).
    Cp,
    /// The iterative-modulo-scheduling certificate (see
    /// [`SchedulerConfig::heuristic_incumbent`]).
    Heuristic,
}

impl SolvedBy {
    /// The engine's name in records and replies — the one name table,
    /// which [`from_name`](Self::from_name) parses back.
    pub fn name(self) -> &'static str {
        match self {
            SolvedBy::Ilp => "ilp",
            SolvedBy::Cp => "cp",
            SolvedBy::Heuristic => "heuristic",
        }
    }

    /// The engine whose [`name`](Self::name) is `name`, if any.
    pub fn from_name(name: &str) -> Option<SolvedBy> {
        [SolvedBy::Ilp, SolvedBy::Cp, SolvedBy::Heuristic]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// Outcome of one candidate period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeriodOutcome {
    /// A schedule was found (and passed the independent re-check).
    Feasible(SolvedBy),
    /// The ILP proved no schedule exists at this period.
    Infeasible,
    /// Rejected before solving (modulo constraint / self-loop test).
    RejectedAtBuild,
    /// The time, node, or tick budget ran out undecided.
    TimedOut,
    /// The ILP failed numerically at this period (simplex stall); the
    /// period stays undecided unless the heuristic certifies it.
    EngineFailed,
}

impl PeriodOutcome {
    /// Whether the period was left undecided — a budget trip or an
    /// exact-engine failure. A solve that left a period undecided is not
    /// conclusive: its answer depends on how much budget was left.
    pub fn is_undecided(&self) -> bool {
        matches!(self, PeriodOutcome::TimedOut | PeriodOutcome::EngineFailed)
    }
}

/// Statistics for one candidate period.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodAttempt {
    /// The candidate period.
    pub period: u32,
    /// What happened.
    pub outcome: PeriodOutcome,
    /// Search nodes (ILP branch-and-bound or CP) of the solve that
    /// produced this period's schedule. Zero on every other outcome: a
    /// failed ILP solve carries no statistics, and CP refutations drop
    /// theirs.
    pub nodes: u64,
    /// Simplex iterations of the ILP solve that produced this period's
    /// schedule; zero on every other outcome, as for `nodes`.
    pub lp_iterations: u64,
    /// Wall-clock spent on this period.
    pub elapsed: Duration,
    /// Variables in the ILP (0 if rejected at build or settled by CP).
    pub num_vars: usize,
    /// Constraints in the ILP (0 if rejected at build or settled by CP).
    pub num_constrs: usize,
}

/// Aggregated solver-effort statistics over a per-period attempt log —
/// the telemetry exported per loop by the corpus-execution harness.
///
/// Built with [`SolverStats::from_attempts`], which works for both the
/// success path ([`ScheduleResult::solver_stats`]) and the failure path
/// (the `attempts` carried by [`ScheduleError::NotFound`]).
///
/// [`ScheduleError::NotFound`]: crate::ScheduleError::NotFound
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Simplex iterations (pivots) across all attempted periods.
    pub lp_iterations: u64,
    /// Branch-and-bound nodes across all attempted periods.
    pub bb_nodes: u64,
    /// Candidate periods attempted (including build-time rejections).
    pub periods_attempted: u32,
    /// Periods settled feasible by the unified ILP.
    pub ilp_feasible: u32,
    /// Periods settled feasible by the CP backend.
    pub cp_feasible: u32,
    /// Periods settled feasible by the IMS certificate.
    pub heuristic_feasible: u32,
    /// Periods proven infeasible (exact refutations, either by the ILP or
    /// at formulation build time).
    pub refuted: u32,
    /// Periods left undecided by a time/tick budget trip.
    pub timeouts: u32,
    /// Periods on which the exact engine failed numerically.
    pub engine_failures: u32,
}

impl SolverStats {
    /// Aggregates an attempt log.
    pub fn from_attempts(attempts: &[PeriodAttempt]) -> SolverStats {
        let mut s = SolverStats {
            periods_attempted: attempts.len() as u32,
            ..SolverStats::default()
        };
        for a in attempts {
            s.lp_iterations += a.lp_iterations;
            s.bb_nodes += a.nodes;
            match a.outcome {
                PeriodOutcome::Feasible(SolvedBy::Ilp) => s.ilp_feasible += 1,
                PeriodOutcome::Feasible(SolvedBy::Cp) => s.cp_feasible += 1,
                PeriodOutcome::Feasible(SolvedBy::Heuristic) => s.heuristic_feasible += 1,
                PeriodOutcome::Infeasible | PeriodOutcome::RejectedAtBuild => s.refuted += 1,
                PeriodOutcome::TimedOut => s.timeouts += 1,
                PeriodOutcome::EngineFailed => s.engine_failures += 1,
            }
        }
        s
    }

    /// Whether any attempted period was left undecided by a budget trip.
    pub fn any_timeout(&self) -> bool {
        self.timeouts > 0
    }
}

/// How strong the optimality claim on a [`ScheduleResult`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Optimality {
    /// Every period below the achieved one was proven infeasible: the
    /// achieved period is the exact optimum.
    Proven,
    /// The budget ran out before every smaller period could be refuted.
    BudgetExhausted {
        /// The smallest candidate period whose refutation is missing.
        /// Every period below it *was* proven infeasible, so the true
        /// optimal period lies in
        /// `smallest_refuted ..= schedule.initiation_interval()`.
        smallest_refuted: u32,
    },
}

impl Optimality {
    /// Whether the achieved period is proven exactly optimal.
    pub fn is_proven(&self) -> bool {
        matches!(self, Optimality::Proven)
    }
}

/// Telemetry for warm-started solving: what a [`WarmState`] actually
/// bought across a sweep (and, at the session layer, across edits).
///
/// Counters are cumulative over the life of the `WarmState`; callers
/// snapshot-and-diff per solve. All reuse is *hint-shaped* — it can
/// change effort counters, never verdicts — except `periods_skipped`,
/// which relies on the caller's proof obligations (see
/// [`WarmState::start_at`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Root LPs that were crash-started from a carried simplex basis.
    pub basis_hits: u64,
    /// Root bases exported for the next solve.
    pub basis_exports: u64,
    /// CP no-good clauses replayed from the carried store.
    pub nogood_replays: u64,
    /// IMS probes settled by validating the carried schedule hint.
    pub ims_hint_hits: u64,
    /// Sweep periods skipped because the caller carried their proven
    /// refutations across ([`WarmState::start_at`]).
    pub periods_skipped: u64,
    /// Whole solves answered by replaying a fingerprint-identical cached
    /// result (filled by the session layer, not this driver).
    pub replays: u64,
    /// Total size of dependency cones invalidated by edits (filled by
    /// the session layer, not this driver).
    pub cone_nodes: u64,
}

impl ReuseStats {
    /// Merges `other` into `self` (all counters are additive).
    pub fn absorb(&mut self, other: &ReuseStats) {
        self.basis_hits += other.basis_hits;
        self.basis_exports += other.basis_exports;
        self.nogood_replays += other.nogood_replays;
        self.ims_hint_hits += other.ims_hint_hits;
        self.periods_skipped += other.periods_skipped;
        self.replays += other.replays;
        self.cone_nodes += other.cone_nodes;
    }
}

/// Cross-solve state for warm-started sweeps, owned by the caller (an
/// incremental session, or the harness's per-loop sweep) and threaded
/// through [`RateOptimalScheduler::schedule_with_warm`].
///
/// Everything here is a **hint** except `start_at`: bases and schedule
/// hints are re-validated (crash ratio test, cycle-accurate checker)
/// before use, and CP no-goods are replayed only under the period match
/// the store enforces itself, so a stale `WarmState` can cost extra work
/// but never change a verdict. `start_at` is the one trusted field — it
/// skips sweep periods outright, and the caller must only set it from
/// refutations it has proven (or carried monotonically) for the *exact*
/// instance being solved.
#[derive(Default)]
pub struct WarmState {
    /// Simplex basis from the previous root relaxation, keyed by
    /// variable name so it survives the `T → T+1` model re-build.
    pub basis_names: Option<Vec<String>>,
    /// Last known-good schedule, used to seed the IMS incumbent probe
    /// and re-validated by the checker before it counts.
    pub ims_hint: Option<PipelinedSchedule>,
    /// CP no-good store; self-flushes when the period changes. The
    /// caller must [`clear`](swp_cpsat::NoGoodStore::clear) it on any
    /// non-tightening edit.
    pub nogoods: swp_cpsat::NoGoodStore,
    /// First period the sweep should attempt; every period in
    /// `t_lb..start_at` is treated as already refuted. Trusted — see the
    /// type docs.
    pub start_at: Option<u32>,
    /// Cumulative reuse telemetry.
    pub reuse: ReuseStats,
}

impl WarmState {
    /// A fresh, empty warm state (identical behaviour to a cold solve).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A schedule together with how it was found.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// The schedule (always re-checked by the cycle-accurate checker).
    pub schedule: PipelinedSchedule,
    /// Recurrence bound `T_dep`.
    pub t_dep: u32,
    /// Resource bound `T_res`.
    pub t_res: u32,
    /// Per-period solve log, in the order attempted.
    pub attempts: Vec<PeriodAttempt>,
    /// Whether the achieved period is proven optimal or budget-limited.
    pub optimality: Optimality,
}

impl ScheduleResult {
    /// Combined lower bound `max(T_dep, T_res)`.
    pub fn t_lb(&self) -> u32 {
        self.t_dep.max(self.t_res)
    }

    /// `T − T_lb`: zero means provably rate-optimal.
    pub fn slack_above_lb(&self) -> u32 {
        self.schedule.initiation_interval() - self.t_lb()
    }

    /// Whether the achieved period equals the lower bound.
    pub fn is_rate_optimal(&self) -> bool {
        self.slack_above_lb() == 0
    }

    /// Whether every smaller period was refuted (see [`Optimality`]).
    pub fn is_proven_optimal(&self) -> bool {
        self.optimality.is_proven()
    }

    /// Aggregated solver-effort telemetry over the attempt log.
    pub fn solver_stats(&self) -> SolverStats {
        SolverStats::from_attempts(&self.attempts)
    }

    /// Engine that produced the final schedule (the last feasible
    /// attempt), defaulting to the ILP for legacy logs without one.
    pub fn solved_by(&self) -> SolvedBy {
        self.attempts
            .iter()
            .rev()
            .find_map(|a| match a.outcome {
                PeriodOutcome::Feasible(s) => Some(s),
                _ => None,
            })
            .unwrap_or(SolvedBy::Ilp)
    }

    /// Total wall-clock over all attempted periods.
    pub fn total_elapsed(&self) -> Duration {
        self.attempts.iter().map(|a| a.elapsed).sum()
    }
}

/// What one exact engine concluded about one candidate period, before
/// the sweep logs it (and possibly falls back). Normalizing both
/// engines onto this type is what lets every engine mode share one
/// settlement routine. What the solve cost
/// travels beside it as an [`Effort`].
enum ExactVerdict {
    /// A candidate schedule (not yet re-verified by the checker).
    Feasible {
        starts: Vec<u32>,
        units: Vec<Option<u32>>,
    },
    /// Proven infeasible; `at_build` means rejected before any search.
    Refuted { at_build: bool },
    /// The per-period budget ran out undecided.
    Limit,
    /// The cancel token fired mid-solve.
    Cancelled,
    /// The engine failed on this instance (numerical stall, or a colored
    /// class too wide for the CP backend's 64-bit unit domains).
    Failed,
    /// A hard error to propagate to the caller.
    Error(ScheduleError),
}

/// What one exact solve of one period reports about its cost: search
/// counters and ILP model size, copied into the period's
/// [`PeriodAttempt`]. Search counters come only with a schedule (a
/// failed ILP solve carries no statistics, and the CP backend drops those of
/// a refutation); the model size is zero for CP and for a period
/// rejected before the model was built.
#[derive(Debug, Clone, Copy, Default)]
struct Effort {
    nodes: u64,
    lp_iterations: u64,
    num_vars: usize,
    num_constrs: usize,
}

/// One candidate period being settled: what every path that logs its
/// attempt shares.
struct Candidate<'a> {
    ddg: &'a Ddg,
    period: u32,
    /// The caller's budget for the whole sweep.
    budget: &'a Budget,
    /// This period's slice of `budget`.
    period_budget: Budget,
    started: Instant,
}

impl Candidate<'_> {
    /// Logs this period's attempt — the one place a [`PeriodAttempt`]
    /// is built.
    fn log(&self, attempts: &mut Vec<PeriodAttempt>, outcome: PeriodOutcome, effort: Effort) {
        attempts.push(PeriodAttempt {
            period: self.period,
            outcome,
            nodes: effort.nodes,
            lp_iterations: effort.lp_iterations,
            elapsed: self.started.elapsed(),
            num_vars: effort.num_vars,
            num_constrs: effort.num_constrs,
        });
    }
}

/// The CP stage's share of a portfolio period budget: half of each
/// capped axis (the ticks left and the time to the deadline) on the
/// period budget's own counter and cancel flag. An uncapped axis stays
/// uncapped, and the ILP stage gets whatever CP leaves.
fn cp_stage(period_budget: &Budget) -> Budget {
    let half = period_budget.slice(2);
    match period_budget.time_remaining() {
        Some(left) => half.restrict(Some(left / 2), None),
        None => half,
    }
}

/// What one candidate period contributed to the search.
enum PeriodResult {
    /// A verified schedule.
    Schedule(PipelinedSchedule),
    /// Proven infeasible (exact refutation).
    Refuted,
    /// Ran out of per-period budget (or failed numerically) undecided.
    Undecided,
    /// The *global* budget is exhausted; stop probing periods.
    BudgetExhausted,
}

/// Schedules loops at the fastest feasible initiation rate using the
/// paper's unified ILP.
///
/// ```
/// use swp_core::{RateOptimalScheduler, SchedulerConfig};
/// use swp_ddg::{Ddg, OpClass};
/// use swp_machine::Machine;
///
/// # fn main() -> Result<(), swp_core::ScheduleError> {
/// let mut g = Ddg::new();
/// let ld = g.add_node("load", OpClass::new(2), 3);
/// let fm = g.add_node("fmul", OpClass::new(1), 2);
/// g.add_edge(ld, fm, 0).unwrap();
///
/// let sched = RateOptimalScheduler::new(Machine::example_pldi95(), SchedulerConfig::default())
///     .schedule(&g)?;
/// assert!(sched.optimality.is_proven());
/// assert!(sched.schedule.validate(&g, &Machine::example_pldi95()).is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RateOptimalScheduler {
    machine: Machine,
    config: SchedulerConfig,
}

impl RateOptimalScheduler {
    /// Creates a scheduler for `machine` under `config`.
    pub fn new(machine: Machine, config: SchedulerConfig) -> Self {
        RateOptimalScheduler { machine, config }
    }

    /// The machine this scheduler targets.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The configuration this scheduler runs under.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// An IMS instance honouring the configured register-pressure cap.
    fn ims(&self) -> IterativeModuloScheduler {
        IterativeModuloScheduler::new(self.machine.clone()).with_max_live(self.config.max_live)
    }

    /// Finds a schedule at the smallest feasible period `≥ T_lb`, under a
    /// global budget derived from
    /// [`SchedulerConfig::time_limit_total`] (unlimited if `None`).
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::NoFinitePeriod`] — zero-distance cycle;
    /// * [`ScheduleError::UnknownClass`] — DDG/machine mismatch;
    /// * [`ScheduleError::NotFound`] — every period up to the configured
    ///   cap was infeasible or timed out (the attempts log tells which)
    ///   and no best-effort schedule exists either;
    /// * [`ScheduleError::VerificationFailed`] — both engines produced
    ///   only schedules the independent checker rejected.
    pub fn schedule(&self, ddg: &Ddg) -> Result<ScheduleResult, ScheduleError> {
        let budget = match self.config.time_limit_total {
            Some(d) => Budget::with_deadline(d),
            None => Budget::unlimited(),
        };
        self.schedule_with(ddg, &budget)
    }

    /// Like [`schedule`](Self::schedule), but under an explicit shared
    /// [`Budget`] — deadline, deterministic tick cap, and a cancel token
    /// that stops all engines within one check interval.
    ///
    /// On budget exhaustion (deadline or ticks) the driver degrades
    /// gracefully: it returns the best heuristic schedule it can still
    /// find and certify, tagged [`Optimality::BudgetExhausted`].
    /// Cancellation instead returns [`ScheduleError::Cancelled`].
    ///
    /// # Errors
    ///
    /// Everything [`schedule`](Self::schedule) lists, plus
    /// [`ScheduleError::Cancelled`].
    pub fn schedule_with(
        &self,
        ddg: &Ddg,
        budget: &Budget,
    ) -> Result<ScheduleResult, ScheduleError> {
        // A scratch warm state makes this exactly the cold path: no
        // hints, no skips, byte-identical behaviour to before warm
        // starting existed.
        self.schedule_with_warm(ddg, budget, &mut WarmState::new())
    }

    /// [`Self::schedule_with`] threaded through a caller-owned
    /// [`WarmState`]: the sweep crash-starts each root LP from the basis
    /// the previous period exported, seeds the IMS incumbent probe with
    /// the carried schedule hint, replays CP no-goods where the store
    /// permits, and (when the caller proved it) skips already-refuted
    /// periods. On success the schedule is written back into
    /// [`WarmState::ims_hint`] for the caller's next solve.
    ///
    /// # Errors
    ///
    /// As [`Self::schedule_with`].
    pub fn schedule_with_warm(
        &self,
        ddg: &Ddg,
        budget: &Budget,
        warm: &mut WarmState,
    ) -> Result<ScheduleResult, ScheduleError> {
        if self.config.faults.panic_in_solver {
            panic!("injected fault: panic_in_solver");
        }
        let t_dep = ddg.t_dep().ok_or(ScheduleError::NoFinitePeriod)?;
        let t_res = match (self.config.mapping, self.config.packing_bound) {
            // Fixed-assignment problem: counting bound, optionally
            // strengthened by the exact packing capacity.
            (MappingMode::UnifiedColoring, true) => self.machine.t_res(ddg),
            (MappingMode::UnifiedColoring, false) => self.machine.t_res_counting(ddg),
            // Run-time unit choice: instances may rotate across units, so
            // only pure stage-demand counting is a valid bound.
            (MappingMode::CapacityOnly, _) => self.machine.t_res_capacity(ddg),
        }
        .map_err(|e| match e {
            swp_machine::MachineError::UnknownClass(c) => ScheduleError::UnknownClass(c),
            swp_machine::MachineError::NoUnits(n) => ScheduleError::BadMachine(n),
            swp_machine::MachineError::BadBundle(why) => ScheduleError::BadMachine(why),
        })?;
        let t_lb = t_dep.max(t_res);
        let t_max = t_lb + self.config.max_t_above_lb;
        let mut attempts = Vec::new();
        // Carried refutations: the caller vouches for `t_lb..start`, so
        // the sweep begins there and those periods count as refuted.
        let start = if self.config.warm_sweep {
            warm.start_at
                .map_or(t_lb, |s| s.clamp(t_lb, t_max.saturating_add(1)))
        } else {
            t_lb
        };
        warm.reuse.periods_skipped += u64::from(start - t_lb);
        // Periods in `t_lb..first_unrefuted` are proven infeasible.
        let mut first_unrefuted = start;
        let mut budget_hit = self.config.faults.expire_before_search;

        if !budget_hit {
            for period in start..=t_max {
                match budget.check() {
                    Ok(()) => {}
                    Err(Exhaustion::Cancelled) => return Err(ScheduleError::Cancelled),
                    Err(_) => {
                        budget_hit = true;
                        break;
                    }
                }
                match self.try_period(ddg, period, budget, &mut attempts, warm)? {
                    PeriodResult::Schedule(schedule) => {
                        let optimality = if first_unrefuted == period {
                            Optimality::Proven
                        } else {
                            Optimality::BudgetExhausted {
                                smallest_refuted: first_unrefuted,
                            }
                        };
                        warm.ims_hint = Some(schedule.clone());
                        return Ok(ScheduleResult {
                            schedule,
                            t_dep,
                            t_res,
                            attempts,
                            optimality,
                        });
                    }
                    PeriodResult::Refuted => {
                        if first_unrefuted == period {
                            first_unrefuted = period + 1;
                        }
                    }
                    PeriodResult::Undecided => {}
                    PeriodResult::BudgetExhausted => {
                        budget_hit = true;
                        break;
                    }
                }
            }
        }

        if let Err(Exhaustion::Cancelled) = budget.check() {
            return Err(ScheduleError::Cancelled);
        }
        if budget_hit {
            // Graceful degradation: best-effort heuristic schedule under a
            // fresh tick-capped grace allowance (the dead wall-clock
            // deadline must not also kill the fallback).
            return self.degrade(ddg, budget, t_dep, t_res, first_unrefuted, attempts);
        }
        Err(ScheduleError::NotFound {
            t_lb,
            t_max,
            attempts,
        })
    }

    /// The post-exhaustion fallback: IMS under [`GRACE_TICKS`], verified
    /// by the independent checker, tagged budget-exhausted. The grace
    /// budget shares `budget`'s cancel token, so cancelling the solve
    /// stops the fallback too.
    fn degrade(
        &self,
        ddg: &Ddg,
        budget: &Budget,
        t_dep: u32,
        t_res: u32,
        first_unrefuted: u32,
        mut attempts: Vec<PeriodAttempt>,
    ) -> Result<ScheduleResult, ScheduleError> {
        let started = Instant::now();
        let grace = Budget::with_tick_limit(GRACE_TICKS).cancelled_by(&budget.cancel_token());
        let res = match self.ims().schedule_with(ddg, &grace) {
            Ok(res) => res,
            Err(HeuristicError::Cancelled) => return Err(ScheduleError::Cancelled),
            Err(_) => {
                let t_lb = t_dep.max(t_res);
                return Err(ScheduleError::NotFound {
                    t_lb,
                    t_max: t_lb + self.config.max_t_above_lb,
                    attempts,
                });
            }
        };
        let c = Candidate {
            ddg,
            period: res.schedule.initiation_interval(),
            budget: &grace,
            period_budget: grace.clone(),
            started,
        };
        if let Err(error) = self.accept_heuristic(&c, &res.schedule, &mut attempts) {
            return Err(ScheduleError::VerificationFailed {
                period: c.period,
                engine: SolvedBy::Heuristic,
                error,
            });
        }
        Ok(ScheduleResult {
            schedule: res.schedule,
            t_dep,
            t_res,
            attempts,
            optimality: Optimality::BudgetExhausted {
                smallest_refuted: first_unrefuted,
            },
        })
    }

    /// The shared verify-and-log step for every schedule an engine
    /// proposes: the independent re-check (with fault hooks) and, if it
    /// passes, the period's attempt-log entry.
    fn accept(
        &self,
        c: &Candidate,
        schedule: &PipelinedSchedule,
        engine: SolvedBy,
        effort: Effort,
        attempts: &mut Vec<PeriodAttempt>,
    ) -> Result<(), ValidationError> {
        let injected = match engine {
            SolvedBy::Ilp => self.config.faults.reject_ilp_schedule,
            SolvedBy::Cp => false,
            SolvedBy::Heuristic => self.config.faults.reject_heuristic_schedule,
        };
        if injected {
            // A synthetic, clearly-impossible violation.
            return Err(ValidationError::WrongArity {
                schedule: usize::MAX,
                ddg: c.ddg.num_nodes(),
            });
        }
        schedule.validate(c.ddg, &self.machine)?;
        if let Some(limit) = self.config.max_live {
            schedule.validate_pressure(c.ddg, limit)?;
        }
        c.log(attempts, PeriodOutcome::Feasible(engine), effort);
        Ok(())
    }

    /// [`Self::accept`] for an IMS schedule, which reports no effort.
    fn accept_heuristic(
        &self,
        c: &Candidate,
        schedule: &PipelinedSchedule,
        attempts: &mut Vec<PeriodAttempt>,
    ) -> Result<(), ValidationError> {
        let heuristic = SolvedBy::Heuristic;
        self.accept(c, schedule, heuristic, Effort::default(), attempts)
    }

    /// Attempts exactly one period under a per-period slice of `budget`.
    fn try_period(
        &self,
        ddg: &Ddg,
        period: u32,
        budget: &Budget,
        attempts: &mut Vec<PeriodAttempt>,
        warm: &mut WarmState,
    ) -> Result<PeriodResult, ScheduleError> {
        let c = Candidate {
            ddg,
            period,
            budget,
            period_budget: budget.restrict(self.config.time_limit_per_t, None),
            started: Instant::now(),
        };

        // The heuristic produces *mapped* schedules; under CapacityOnly
        // the point is to study the capacity-only ILP, so skip it there.
        if self.config.heuristic_incumbent
            && self.config.mapping == MappingMode::UnifiedColoring
            && !self.config.faults.fail_heuristic_incumbent
        {
            let hint = warm.ims_hint.as_ref().filter(|_| self.config.warm_sweep);
            match self
                .ims()
                .schedule_at_with_hint(ddg, period, &c.period_budget, hint)
            {
                Ok(Some(schedule)) => {
                    if hint == Some(&schedule) {
                        warm.reuse.ims_hint_hits += 1;
                    }
                    if self.accept_heuristic(&c, &schedule, attempts).is_ok() {
                        return Ok(PeriodResult::Schedule(schedule));
                    }
                    // Checker rejected the heuristic schedule: fall through
                    // to the exact engine at this same period.
                }
                Ok(None) => {}
                Err(HeuristicError::Cancelled) => return Err(ScheduleError::Cancelled),
                // Per-period (or global) budget died inside the probe.
                Err(_) => {
                    let (limit, heuristic) = (ExactVerdict::Limit, SolvedBy::Heuristic);
                    return self.settle_exact(&c, limit, Effort::default(), heuristic, attempts);
                }
            }
        }

        if self.config.faults.expire_before_ilp {
            c.log(attempts, PeriodOutcome::TimedOut, Effort::default());
            return Ok(PeriodResult::BudgetExhausted);
        }

        // A strictly cold solve never threads the warm state into the
        // engines: no basis carry-over, no no-good replay, even within
        // one sweep.
        let hot = self.config.warm_sweep;
        let pb = &c.period_budget;
        let ((verdict, effort), engine) = match self.effective_engine() {
            Engine::Ilp => (
                self.run_ilp_exact(ddg, period, pb, hot.then_some(&mut *warm)),
                SolvedBy::Ilp,
            ),
            engine @ (Engine::Cp | Engine::Portfolio) => {
                let staged = engine == Engine::Portfolio;
                let cp_budget = if staged { cp_stage(pb) } else { pb.clone() };
                let settled = self.run_cp_exact(ddg, period, &cp_budget, hot.then_some(&mut *warm));
                // The CP backend cannot color classes wider than its
                // 64-bit unit domains; on such instances the ILP settles
                // this period instead. A portfolio also hands the ILP
                // what is left of the period budget when CP ran out of
                // its stage, unless that budget is spent.
                let hand_over = match settled.0 {
                    ExactVerdict::Failed => true,
                    ExactVerdict::Limit => staged && pb.check().is_ok(),
                    _ => false,
                };
                if hand_over {
                    let ilp = self.run_ilp_exact(ddg, period, pb, hot.then_some(&mut *warm));
                    (ilp, SolvedBy::Ilp)
                } else {
                    (settled, SolvedBy::Cp)
                }
            }
        };
        self.settle_exact(&c, verdict, effort, engine, attempts)
    }

    /// The engine that will actually settle periods: the CP backend
    /// implements the unified-coloring feasibility problem only, so any
    /// other mapping mode or objective forces the ILP regardless of
    /// [`SchedulerConfig::engine`].
    fn effective_engine(&self) -> Engine {
        if self.config.mapping != MappingMode::UnifiedColoring
            || self.config.objective != Objective::Feasible
        {
            Engine::Ilp
        } else {
            self.config.engine
        }
    }

    /// Runs the unified ILP at `period` under `period_budget` and
    /// normalizes the outcome. Pushes no attempt-log entry — that is
    /// [`Self::settle_exact`]'s job, so a stage that hands over to the
    /// next never pollutes the log.
    fn run_ilp_exact(
        &self,
        ddg: &Ddg,
        period: u32,
        period_budget: &Budget,
        mut warm: Option<&mut WarmState>,
    ) -> (ExactVerdict, Effort) {
        let f = match formulation::build_with(
            ddg,
            &self.machine,
            period,
            FormulationOptions {
                mapping: self.config.mapping,
                objective: self.config.objective,
                symmetry_breaking: self.config.symmetry_breaking,
                packing_bound: self.config.packing_bound,
                max_live: self.config.max_live,
                ..FormulationOptions::standard()
            },
            period_budget,
        ) {
            Ok(f) => f,
            Err(ScheduleError::PeriodInfeasible { .. }) => {
                return (ExactVerdict::Refuted { at_build: true }, Effort::default())
            }
            Err(ScheduleError::Cancelled) => return (ExactVerdict::Cancelled, Effort::default()),
            Err(e) => return (ExactVerdict::Error(e), Effort::default()),
        };
        let mut limits = SolveLimits {
            time_limit: self.config.time_limit_per_t,
            budget: period_budget.clone(),
            ..SolveLimits::default()
        };
        if self.config.objective == Objective::Feasible {
            limits.stop_at_first_incumbent = true;
        }
        if let Some(w) = warm.as_mut() {
            if let Some(names) = &w.basis_names {
                let hint = f.model.basis_from_names(names);
                if !hint.is_empty() {
                    w.reuse.basis_hits += 1;
                    limits.warm_basis = Some(hint);
                }
            }
        }
        let mut effort = Effort {
            num_vars: f.model.num_vars(),
            num_constrs: f.model.num_constrs(),
            ..Effort::default()
        };
        let (solved, basis) = if self.config.faults.fail_ilp {
            (Err(SolveError::Numerical("injected fault".into())), None)
        } else if warm.is_some() {
            f.model.solve_with_basis(&limits)
        } else {
            (f.model.solve_with(&limits), None)
        };
        if let Some(w) = warm {
            // The basis is exported even off the infeasible path: refuted
            // periods are exactly where the `T+1` crash start pays.
            if let Some(b) = basis.filter(|b| !b.is_empty()) {
                w.basis_names = Some(f.model.basis_to_names(&b));
                w.reuse.basis_exports += 1;
            }
        }
        let verdict = match solved {
            Ok(sol) => {
                effort.nodes = sol.stats().nodes;
                effort.lp_iterations = sol.stats().lp_iterations;
                let (starts, units) = f.extract(&sol);
                ExactVerdict::Feasible { starts, units }
            }
            Err(SolveError::Infeasible) => ExactVerdict::Refuted { at_build: false },
            Err(SolveError::LimitReached(_)) => ExactVerdict::Limit,
            Err(SolveError::Cancelled) => ExactVerdict::Cancelled,
            Err(SolveError::Numerical(_)) => ExactVerdict::Failed,
            Err(e) => ExactVerdict::Error(ScheduleError::Solver(e)),
        };
        (verdict, effort)
    }

    /// Runs the CP backend at `period` under `period_budget` and
    /// normalizes the outcome onto the same verdict type as the ILP.
    fn run_cp_exact(
        &self,
        ddg: &Ddg,
        period: u32,
        period_budget: &Budget,
        warm: Option<&mut WarmState>,
    ) -> (ExactVerdict, Effort) {
        let opts = CpOptions {
            symmetry_breaking: self.config.symmetry_breaking,
            packing_bound: self.config.packing_bound,
            max_live: self.config.max_live,
        };
        // A cold solve learns into a throwaway store.
        let mut scratch = swp_cpsat::NoGoodStore::default();
        let (store, reuse) = match warm {
            Some(w) => (&mut w.nogoods, Some(&mut w.reuse)),
            None => (&mut scratch, None),
        };
        let solved =
            swp_cpsat::solve_at_warm(ddg, &self.machine, period, opts, period_budget, store);
        if let (Some(reuse), Ok((_, stats))) = (reuse, &solved) {
            reuse.nogood_replays += stats.nogoods_replayed;
        }
        let verdict = match solved {
            Ok((CpOutcome::Feasible { starts, units }, stats)) => {
                let effort = Effort {
                    nodes: stats.nodes,
                    ..Effort::default()
                };
                return (ExactVerdict::Feasible { starts, units }, effort);
            }
            Ok((CpOutcome::Infeasible, _)) => ExactVerdict::Refuted { at_build: false },
            Err(CpError::Exhausted(Exhaustion::Cancelled)) => ExactVerdict::Cancelled,
            Err(CpError::Exhausted(_)) => ExactVerdict::Limit,
            Err(CpError::UnknownClass(c)) => ExactVerdict::Error(ScheduleError::UnknownClass(c)),
            Err(CpError::TooManyUnits { .. }) => ExactVerdict::Failed,
        };
        (verdict, Effort::default())
    }

    /// Turns an exact-engine verdict into the period's attempt-log entry
    /// and a [`PeriodResult`], running the shared verification and
    /// fallback paths. Every engine mode settles through here, so
    /// degradation behaviour is identical regardless of which engine
    /// answered.
    fn settle_exact(
        &self,
        c: &Candidate,
        verdict: ExactVerdict,
        effort: Effort,
        engine: SolvedBy,
        attempts: &mut Vec<PeriodAttempt>,
    ) -> Result<PeriodResult, ScheduleError> {
        let outcome = match verdict {
            ExactVerdict::Feasible { starts, units } => {
                let assignment = self.complete_assignment(c.ddg, c.period, &starts, &units)?;
                let schedule = PipelinedSchedule::new(c.period, starts, assignment);
                return match self.accept(c, &schedule, engine, effort, attempts) {
                    Ok(()) => Ok(PeriodResult::Schedule(schedule)),
                    // Checker rejected the exact schedule: fall back to
                    // the heuristic at this same period.
                    Err(error) => self.heuristic_fallback(
                        c,
                        attempts,
                        Err(ScheduleError::VerificationFailed {
                            period: c.period,
                            engine,
                            error,
                        }),
                    ),
                };
            }
            ExactVerdict::Refuted { at_build: true } => PeriodOutcome::RejectedAtBuild,
            ExactVerdict::Refuted { at_build: false } => PeriodOutcome::Infeasible,
            ExactVerdict::Limit => PeriodOutcome::TimedOut,
            ExactVerdict::Failed => PeriodOutcome::EngineFailed,
            ExactVerdict::Cancelled => return Err(ScheduleError::Cancelled),
            ExactVerdict::Error(e) => return Err(e),
        };
        c.log(attempts, outcome.clone(), effort);
        match outcome {
            // An undecided period ends the sweep if the caller's budget
            // died with it.
            PeriodOutcome::TimedOut if c.budget.check().is_err() => {
                Ok(PeriodResult::BudgetExhausted)
            }
            PeriodOutcome::TimedOut => Ok(PeriodResult::Undecided),
            // The exact engine lost traction: degrade to the heuristic
            // at this period. Its success is a certificate; its failure
            // proves nothing, so the period stays undecided.
            PeriodOutcome::EngineFailed => {
                self.heuristic_fallback(c, attempts, Ok(PeriodResult::Undecided))
            }
            _ => Ok(PeriodResult::Refuted),
        }
    }

    /// Runs IMS at the candidate period as the fallback engine. A
    /// schedule the checker accepts settles the period; otherwise the
    /// result is `otherwise`.
    fn heuristic_fallback(
        &self,
        c: &Candidate,
        attempts: &mut Vec<PeriodAttempt>,
        otherwise: Result<PeriodResult, ScheduleError>,
    ) -> Result<PeriodResult, ScheduleError> {
        let ims = self.ims();
        match ims.schedule_at_with(c.ddg, c.period, &c.period_budget) {
            Ok(Some(schedule)) if self.accept_heuristic(c, &schedule, attempts).is_ok() => {
                Ok(PeriodResult::Schedule(schedule))
            }
            Err(HeuristicError::Cancelled) => Err(ScheduleError::Cancelled),
            _ => otherwise,
        }
    }

    /// Fills unit assignments with [`greedy_assignment`]: colored nodes
    /// keep their color and every other node is mapped first-fit
    /// (always possible for clean or single-unit classes given capacity
    /// holds; under [`MappingMode::CapacityOnly`] first-fit may fail, and
    /// the schedule is returned unmapped — exactly the gap the paper
    /// closes).
    fn complete_assignment(
        &self,
        ddg: &Ddg,
        period: u32,
        starts: &[u32],
        colors: &[Option<u32>],
    ) -> Result<Vec<Option<u32>>, ScheduleError> {
        let ops: Vec<PlacedOp> = ddg
            .nodes()
            .map(|(id, node)| PlacedOp {
                class: node.class,
                offset: starts[id.index()] % period,
                fu: colors[id.index()],
            })
            .collect();
        let assignment = match greedy_assignment(&self.machine, period, &ops) {
            Ok(assignment) => assignment,
            Err(ConflictError::UnknownClass { op }) => {
                return Err(ScheduleError::UnknownClass(ops[op].class))
            }
            // An engine colored a node with a unit its class lacks: keep
            // the colors, so the checker rejects the schedule and the
            // fallback engages.
            Err(_) => return Ok(colors.to_vec()),
        };
        if self.config.mapping == MappingMode::UnifiedColoring {
            // Should be impossible: coloring covered every class that
            // could fail first-fit.
            let gap = ddg.nodes().zip(&assignment).find(|(_, fu)| fu.is_none());
            if let Some(((node, _), _)) = gap {
                return Err(ScheduleError::MappingGap { node, period });
            }
        }
        // CapacityOnly: leave unmapped; caller sees is_mapped() == false.
        Ok(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_ddg::OpClass;
    use swp_milp::CancelToken;

    /// A small FP loop with a recurrence on the hazard machine.
    fn fp_loop() -> Ddg {
        let mut g = Ddg::new();
        let ld = g.add_node("load", OpClass::new(2), 3);
        let m1 = g.add_node("fmul", OpClass::new(1), 2);
        let a1 = g.add_node("fadd", OpClass::new(1), 2);
        let st = g.add_node("store", OpClass::new(2), 3);
        g.add_edge(ld, m1, 0).unwrap();
        g.add_edge(m1, a1, 0).unwrap();
        g.add_edge(a1, st, 0).unwrap();
        g.add_edge(a1, a1, 1).unwrap(); // accumulator: T_dep = 2
        g
    }

    #[test]
    fn schedules_at_lower_bound_on_hazard_machine() {
        let machine = Machine::example_pldi95();
        let s = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
            .schedule(&fp_loop())
            .expect("schedulable");
        assert_eq!(s.t_dep, 2);
        assert!(
            s.is_rate_optimal(),
            "expected T = T_lb, got slack {}",
            s.slack_above_lb()
        );
        assert!(s.is_proven_optimal());
        assert!(s.schedule.is_mapped());
        assert_eq!(s.schedule.validate(&fp_loop(), &machine), Ok(()));
    }

    #[test]
    fn capacity_only_schedule_validates_capacity() {
        let machine = Machine::example_pldi95();
        let cfg = SchedulerConfig {
            mapping: MappingMode::CapacityOnly,
            ..Default::default()
        };
        let s = RateOptimalScheduler::new(machine.clone(), cfg)
            .schedule(&fp_loop())
            .expect("schedulable");
        assert_eq!(s.schedule.validate(&fp_loop(), &machine), Ok(()));
    }

    #[test]
    fn solver_stats_aggregate_the_attempt_log() {
        let machine = Machine::example_pldi95();
        let s = RateOptimalScheduler::new(machine, SchedulerConfig::default())
            .schedule(&fp_loop())
            .expect("schedulable");
        assert_eq!(s.t_lb(), s.t_dep.max(s.t_res));
        let stats = s.solver_stats();
        assert_eq!(stats.periods_attempted, s.attempts.len() as u32);
        let nodes: u64 = s.attempts.iter().map(|a| a.nodes).sum();
        let lp_iterations: u64 = s.attempts.iter().map(|a| a.lp_iterations).sum();
        assert_eq!(
            (stats.bb_nodes, stats.lp_iterations),
            (nodes, lp_iterations)
        );
        assert_eq!(stats.ilp_feasible + stats.heuristic_feasible, 1);
        assert!(!stats.any_timeout());
        // The final feasible attempt names the producing engine.
        match s.attempts.last().map(|a| a.outcome.clone()) {
            Some(PeriodOutcome::Feasible(e)) => assert_eq!(s.solved_by(), e),
            other => panic!("last attempt not feasible: {other:?}"),
        }
    }

    #[test]
    fn vliw_bundle_agrees_across_exact_engines() {
        // example_vliw: issue width 2, "mem" slot (class 2) capped at 1
        // per cycle. fp_loop has two mem ops, so any period must keep
        // them at distinct residues; both exact engines must agree on
        // the proven-optimal T and their witnesses must validate.
        let machine = Machine::example_vliw();
        let g = fp_loop();
        let mut proven = Vec::new();
        for engine in [Engine::Ilp, Engine::Cp] {
            let cfg = SchedulerConfig {
                engine,
                ..Default::default()
            };
            let s = RateOptimalScheduler::new(machine.clone(), cfg)
                .schedule(&g)
                .expect("schedulable on the VLIW machine");
            assert!(s.is_proven_optimal(), "{engine:?} should prove optimality");
            assert_eq!(s.schedule.validate(&g, &machine), Ok(()));
            proven.push(s.schedule.initiation_interval());
        }
        assert_eq!(proven[0], proven[1], "ILP and CP disagree on VLIW T");
    }

    #[test]
    fn pressure_cap_agrees_across_exact_engines() {
        // a (latency 3, FP) -> b: uncapped the chain schedules at T=1,
        // where the value of `a` spans 3 periods (pressure 3). A cap of
        // 1 forces T up to 3 with b exactly one period after a. Both
        // exact engines must land on the same proven T and emit
        // cap-compliant witnesses.
        let machine = Machine::example_clean();
        let mut g = Ddg::new();
        let a = g.add_node("a", OpClass::new(1), 3);
        let b = g.add_node("b", OpClass::new(1), 1);
        g.add_edge(a, b, 0).unwrap();
        let uncapped = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
            .schedule(&g)
            .expect("uncapped");
        assert!(uncapped.schedule.max_live(&g) > 1);
        let mut proven = Vec::new();
        for engine in [Engine::Ilp, Engine::Cp] {
            let cfg = SchedulerConfig {
                engine,
                max_live: Some(1),
                ..Default::default()
            };
            let s = RateOptimalScheduler::new(machine.clone(), cfg)
                .schedule(&g)
                .expect("schedulable under the cap");
            assert!(s.is_proven_optimal());
            assert_eq!(s.schedule.validate_pressure(&g, 1), Ok(()));
            assert!(
                s.schedule.initiation_interval() > uncapped.schedule.initiation_interval(),
                "the cap must cost some period"
            );
            proven.push(s.schedule.initiation_interval());
        }
        assert_eq!(proven[0], proven[1], "ILP and CP disagree under the cap");
    }

    #[test]
    fn names_round_trip() {
        for engine in [Engine::Ilp, Engine::Cp, Engine::Portfolio] {
            assert_eq!(Engine::from_name(engine.name()), Some(engine));
        }
        for solved_by in [SolvedBy::Ilp, SolvedBy::Cp, SolvedBy::Heuristic] {
            assert_eq!(SolvedBy::from_name(solved_by.name()), Some(solved_by));
        }
        assert_eq!(Engine::from_name("heuristic"), None);
        assert_eq!(SolvedBy::from_name("portfolio"), None);
    }

    #[test]
    fn zero_distance_cycle_is_an_error() {
        let mut g = Ddg::new();
        let a = g.add_node("a", OpClass::new(1), 2);
        let b = g.add_node("b", OpClass::new(1), 2);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 0).unwrap();
        let err = RateOptimalScheduler::new(Machine::example_pldi95(), SchedulerConfig::default())
            .schedule(&g)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::NoFinitePeriod));
    }

    #[test]
    fn min_start_times_objective_compacts() {
        let machine = Machine::example_clean();
        let cfg = SchedulerConfig {
            objective: Objective::MinStartTimes,
            ..Default::default()
        };
        let s = RateOptimalScheduler::new(machine.clone(), cfg)
            .schedule(&fp_loop())
            .expect("schedulable");
        // Chain lengths: ld@0, fmul@3, fadd@5, store@7 is the compact optimum.
        assert_eq!(s.schedule.start_times(), &[0, 3, 5, 7]);
    }

    #[test]
    fn non_pipelined_machine_raises_t() {
        // 3 FP ops on 2 non-pipelined lat-2 units: T_res = ceil(6/2)... the
        // fp_loop has 2 FP ops -> ceil(4/2) = 2; with recurrence T_dep = 2.
        let machine = Machine::example_non_pipelined();
        let s = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
            .schedule(&fp_loop())
            .expect("schedulable");
        assert!(s.schedule.initiation_interval() >= 2);
        assert_eq!(s.schedule.validate(&fp_loop(), &machine), Ok(()));
    }

    #[test]
    fn exhausted_budget_still_returns_verified_schedule() {
        let machine = Machine::example_pldi95();
        let g = fp_loop();
        let s = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
            .schedule_with(&g, &Budget::with_tick_limit(0))
            .expect("degrades, not errors");
        assert!(matches!(s.optimality, Optimality::BudgetExhausted { .. }));
        assert_eq!(s.schedule.validate(&g, &machine), Ok(()));
    }

    #[test]
    fn cancellation_is_an_error_not_a_schedule() {
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let err = RateOptimalScheduler::new(Machine::example_pldi95(), SchedulerConfig::default())
            .schedule_with(&fp_loop(), &budget)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Cancelled));
        // The token handle type is exported for callers.
        let _t: CancelToken = budget.cancel_token();
    }

    #[test]
    fn cp_engine_agrees_with_ilp_on_proven_results() {
        // The CP backend must be decision-equivalent to the ILP: same
        // first feasible period, same proven-optimality claim, and the
        // same feasible/refuted shape of the attempt log (refutation
        // *kind* may differ: the CP backend folds build-time rejections
        // into Infeasible).
        for machine in [
            Machine::example_pldi95(),
            Machine::example_clean(),
            Machine::example_non_pipelined(),
        ] {
            let g = fp_loop();
            let base = SchedulerConfig {
                heuristic_incumbent: false,
                ..Default::default()
            };
            let ilp = RateOptimalScheduler::new(machine.clone(), base.clone())
                .schedule(&g)
                .expect("ilp schedulable");
            let cp = RateOptimalScheduler::new(
                machine.clone(),
                SchedulerConfig {
                    engine: Engine::Cp,
                    ..base
                },
            )
            .schedule(&g)
            .expect("cp schedulable");
            assert_eq!(
                ilp.schedule.initiation_interval(),
                cp.schedule.initiation_interval(),
                "machine {machine:?}"
            );
            assert!(cp.is_proven_optimal());
            assert_eq!(cp.schedule.validate(&g, &machine), Ok(()));
            assert_eq!(
                ilp.attempts
                    .iter()
                    .map(|a| matches!(a.outcome, PeriodOutcome::Feasible(_)))
                    .collect::<Vec<_>>(),
                cp.attempts
                    .iter()
                    .map(|a| matches!(a.outcome, PeriodOutcome::Feasible(_)))
                    .collect::<Vec<_>>(),
                "machine {machine:?}"
            );
            assert_eq!(cp.solved_by(), SolvedBy::Cp);
            assert_eq!(cp.solver_stats().cp_feasible, 1);
        }
    }

    #[test]
    fn cp_engine_defers_to_ilp_outside_unified_coloring() {
        // CapacityOnly has no coloring problem for the CP backend; the
        // driver must transparently use the ILP.
        let machine = Machine::example_pldi95();
        let cfg = SchedulerConfig {
            mapping: MappingMode::CapacityOnly,
            engine: Engine::Cp,
            heuristic_incumbent: false,
            ..Default::default()
        };
        let s = RateOptimalScheduler::new(machine, cfg)
            .schedule(&fp_loop())
            .expect("ilp settles");
        assert_eq!(s.solved_by(), SolvedBy::Ilp);
    }

    #[test]
    fn portfolio_matches_the_proven_period_of_the_ilp() {
        let machine = Machine::example_pldi95();
        let g = fp_loop();
        let base = SchedulerConfig {
            heuristic_incumbent: false,
            ..Default::default()
        };
        let ilp = RateOptimalScheduler::new(machine.clone(), base.clone())
            .schedule(&g)
            .expect("ilp schedulable");
        let port = RateOptimalScheduler::new(
            machine.clone(),
            SchedulerConfig {
                engine: Engine::Portfolio,
                ..base
            },
        )
        .schedule(&g)
        .expect("portfolio schedulable");
        assert!(port.is_proven_optimal());
        assert_eq!(
            ilp.schedule.initiation_interval(),
            port.schedule.initiation_interval()
        );
        assert_eq!(port.schedule.validate(&g, &machine), Ok(()));
    }

    /// The staged portfolio spends the caller's budget: both stages
    /// run on slices of the caller's counter, so the ticks they used
    /// show up there and stay under its cap.
    #[test]
    fn portfolio_charges_the_callers_budget() {
        let cfg = SchedulerConfig {
            engine: Engine::Portfolio,
            heuristic_incumbent: false,
            ..Default::default()
        };
        let budget = Budget::with_tick_limit(10_000);
        let s = RateOptimalScheduler::new(Machine::example_pldi95(), cfg)
            .schedule_with(&fp_loop(), &budget)
            .expect("schedulable");
        assert!(s.is_proven_optimal());
        assert!(budget.ticks_used() > 0, "portfolio solve charged no ticks");
        assert!(budget.ticks_used() <= 10_000);
    }

    /// CP's stage trip hands the period to the ILP while the period
    /// budget lives (the ILP's model size is logged), and ends the
    /// period when the trip spent that budget too.
    #[test]
    fn portfolio_stages_the_ilp_only_on_a_live_budget() {
        let first_attempt = |ticks: u64| {
            let cfg = SchedulerConfig {
                engine: Engine::Portfolio,
                heuristic_incumbent: false,
                ..Default::default()
            };
            let s = RateOptimalScheduler::new(Machine::example_pldi95(), cfg)
                .schedule_with(&fp_loop(), &Budget::with_tick_limit(ticks))
                .expect("degrades to IMS");
            (s.attempts[0].outcome.clone(), s.attempts[0].num_vars)
        };
        // One tick: CP's half is empty, and its trip spends the budget.
        assert_eq!(first_attempt(1), (PeriodOutcome::TimedOut, 0));
        // Two ticks: CP trips on its one, the ILP builds its model.
        assert_eq!(first_attempt(2), (PeriodOutcome::TimedOut, 20));
    }

    #[test]
    fn portfolio_cancellation_is_an_error() {
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let cfg = SchedulerConfig {
            engine: Engine::Portfolio,
            heuristic_incumbent: false,
            ..Default::default()
        };
        let err = RateOptimalScheduler::new(Machine::example_pldi95(), cfg)
            .schedule_with(&fp_loop(), &budget)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Cancelled));
    }

    #[test]
    fn portfolio_survives_ilp_failure_with_cp_settling() {
        // With every ILP solve failing numerically, CP settles every
        // period on its own stage and the result is still exact.
        let machine = Machine::example_pldi95();
        let g = fp_loop();
        let cfg = SchedulerConfig {
            engine: Engine::Portfolio,
            heuristic_incumbent: false,
            faults: FaultPlan {
                fail_ilp: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let s = RateOptimalScheduler::new(machine.clone(), cfg)
            .schedule(&g)
            .expect("cp settles every period");
        assert!(s.is_proven_optimal());
        assert_eq!(s.schedule.validate(&g, &machine), Ok(()));
        assert!(s
            .attempts
            .iter()
            .all(|a| a.outcome == PeriodOutcome::Feasible(SolvedBy::Cp)));
    }

    /// Pins every effort field of the attempt log — outcome, search
    /// counters and model size per attempt — so a change
    /// to how periods are settled cannot drop or move effort unseen.
    /// Only a period that produced a schedule logs search counters; an
    /// ILP refutation keeps its model size, a CP refutation logs nothing.
    /// An injected ILP failure degrades to a verified IMS schedule.
    #[test]
    fn attempt_log_pins_effort_per_period() {
        use PeriodOutcome::{EngineFailed, Feasible, Infeasible};
        let log = |machine: Machine, engine: Engine, fail_ilp: bool, max_live: Option<u32>| {
            let cfg = SchedulerConfig {
                engine,
                heuristic_incumbent: false,
                max_live,
                faults: FaultPlan {
                    fail_ilp,
                    ..Default::default()
                },
                ..Default::default()
            };
            let s = RateOptimalScheduler::new(machine.clone(), cfg)
                .schedule(&fp_loop())
                .expect("schedulable");
            assert_eq!(s.schedule.validate(&fp_loop(), &machine), Ok(()));
            let row = |a: &PeriodAttempt| {
                let effort = (a.nodes, a.lp_iterations, a.num_vars, a.num_constrs);
                (a.period, a.outcome.clone(), effort)
            };
            s.attempts.iter().map(row).collect::<Vec<_>>()
        };
        let hazard = Machine::example_pldi95;
        assert_eq!(
            log(hazard(), Engine::Ilp, false, None),
            [(2, Feasible(SolvedBy::Ilp), (3, 30, 20, 27))]
        );
        for engine in [Engine::Cp, Engine::Portfolio] {
            assert_eq!(
                log(hazard(), engine, false, None),
                [(2, Feasible(SolvedBy::Cp), (3, 0, 0, 0))]
            );
        }
        assert_eq!(
            log(hazard(), Engine::Ilp, true, None),
            [
                (2, EngineFailed, (0, 0, 20, 27)),
                (2, Feasible(SolvedBy::Heuristic), (0, 0, 0, 0)),
            ]
        );
        // A pressure cap of 2 on the clean machine refutes T = 2..4.
        assert_eq!(
            log(Machine::example_clean(), Engine::Ilp, false, Some(2)),
            [
                (2, Infeasible, (0, 0, 22, 25)),
                (3, Infeasible, (0, 0, 29, 32)),
                (4, Infeasible, (0, 0, 36, 39)),
                (5, Feasible(SolvedBy::Ilp), (32, 723, 43, 46)),
            ]
        );
        for engine in [Engine::Cp, Engine::Portfolio] {
            assert_eq!(
                log(Machine::example_clean(), engine, false, Some(2)),
                [
                    (2, Infeasible, (0, 0, 0, 0)),
                    (3, Infeasible, (0, 0, 0, 0)),
                    (4, Infeasible, (0, 0, 0, 0)),
                    (5, Feasible(SolvedBy::Cp), (58, 0, 0, 0)),
                ]
            );
        }
    }
}
