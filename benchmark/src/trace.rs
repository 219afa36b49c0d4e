//! The traced replay: one extra pass that calls each layer's public
//! function in the driver's order, timing every call as a span.
//!
//! The end-to-end numbers never include this pass. It exists to split
//! the driver's time by layer from the outside: every span wraps one call
//! into a layer crate, counts come from the same call's return values
//! (`Budget::ticks_used`, `MipSolution::stats`, `CpStats`), and whatever
//! the driver spends outside those calls (warm-state handling, race
//! threads, attempt logs) is left over as `core.driver.self_us`.

use crate::metrics::Report;
use crate::solve::{Case, Outcome, Spec};
use std::collections::{BTreeMap, HashSet};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};
use swp_core::formulation::{self, FormulationOptions};
use swp_core::{Engine, ScheduleError};
use swp_cpsat::{CpError, CpOptions, CpOutcome};
use swp_heuristics::IterativeModuloScheduler;
use swp_machine::PipelinedSchedule;
use swp_milp::{Budget, PivotLayout, SolveError, SolveLimits};

/// The driver's post-exhaustion heuristic allowance (`GRACE_TICKS` in
/// `swp-core`'s scheduler).
const GRACE_TICKS: u64 = 200_000;

/// Layers whose spans make up the replayed share of the driver's time.
pub const SOLVER_LAYERS: &[&str] = &[
    "ddg.t_dep",
    "machine.t_res",
    "machine.checker",
    "heuristics.ims",
    "heuristics.grace",
    "core.formulation",
    "milp.solve",
    "cpsat.solve",
];

/// One timed call. `parent` indexes the enclosing input span (`None` for
/// input spans themselves).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub input: usize,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// In-memory span and count store, written out once at the end.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open_input: Option<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open_input: None,
            counts: BTreeMap::new(),
        }
    }

    /// Records an already-measured interval.
    pub fn record(&mut self, name: &'static str, input: usize, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            input,
            parent: self.open_input,
            start: start.duration_since(self.epoch),
            end: end.duration_since(self.epoch),
        });
    }

    /// Runs `f` as a span named `name` of input `input`.
    pub fn time<T>(&mut self, name: &'static str, input: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, input, start, Instant::now());
        out
    }

    /// Runs `f` as the root span of input `input`; spans recorded inside
    /// name it as their parent.
    pub fn input<T>(&mut self, input: usize, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let start = Instant::now();
        let at = self.spans.len();
        self.spans.push(Span {
            name: "input",
            input,
            parent: None,
            start: start.duration_since(self.epoch),
            end: Duration::ZERO,
        });
        self.open_input = Some(at);
        let out = f(self);
        self.open_input = None;
        self.spans[at].end = self.epoch.elapsed();
        out
    }

    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_default() += n;
    }

    /// Total microseconds spent in spans named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .fold(0.0, |a, b| a + b)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"input\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.input,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        w.flush()
    }

    /// Fills the per-layer metrics that derive from spans and counts.
    /// `driver_us` is the summed timed-pass driver time of the replayed
    /// inputs; `agreement` the share of them whose replay reached the
    /// driver's period and proof status.
    pub fn fill(&self, report: &mut Report, driver_us: f64, agreement: f64) {
        let share = |us: f64| if driver_us > 0.0 { us / driver_us } else { 0.0 };
        let replayed: f64 = SOLVER_LAYERS.iter().map(|l| self.total_us(l)).sum();
        report.set("core.driver.us", driver_us);
        report.set("core.driver.self_us", driver_us - replayed);
        report.set("trace.coverage", share(replayed));
        report.set("trace.agreement", agreement);
        for (layer, metric) in [
            ("ddg.t_dep", "ddg.t_dep.share"),
            ("machine.t_res", "machine.t_res.share"),
            ("machine.checker", "machine.checker.share"),
            ("heuristics.ims", "heuristics.ims.share"),
            ("heuristics.grace", "heuristics.grace.share"),
            ("core.formulation", "core.formulation.share"),
            ("milp.solve", "milp.solve.share"),
            ("cpsat.solve", "cpsat.solve.share"),
        ] {
            report.set(metric, share(self.total_us(layer)));
        }
        // Whatever the caller has not set is a count from the spans' call
        // sites, or a layer the workload never reaches.
        for (name, _) in crate::metrics::PER_LAYER {
            if !report.values.contains_key(name) {
                report.set(name, self.counts.get(name).copied().unwrap_or(0) as f64);
            }
        }
    }
}

/// Sets the hazard-automaton counters (process-wide) as deltas since
/// `before`.
pub fn set_oracle_counts(report: &mut Report, before: &swp_automata::stats::OracleCounters) {
    let d = swp_automata::stats::snapshot().since(before);
    report.set("automata.matrix_queries", d.matrix_queries as f64);
    report.set("automata.memo_builds", d.memo_builds as f64);
    report.set("automata.memo_hits", d.memo_hits as f64);
}

/// What an exact engine concluded about one period.
enum Verdict {
    Feasible(PipelinedSchedule),
    Refuted,
    Limit,
    Failed,
}

impl Verdict {
    fn decisive(&self) -> bool {
        matches!(self, Verdict::Feasible(_) | Verdict::Refuted)
    }
}

/// Replays one input through the layers in the driver's order under the
/// same per-input tick budget, returning the outcome it reached.
pub fn replay(t: &mut Tracer, input: usize, case: &Case, spec: &Spec) -> Option<Outcome> {
    t.input(input, |t| replay_sweep(t, input, case, spec))
}

fn replay_sweep(t: &mut Tracer, input: usize, case: &Case, spec: &Spec) -> Option<Outcome> {
    let (ddg, machine) = (&case.ddg, &case.machine);
    let budget = spec.budget();
    t.add("ddg.t_dep.calls", 1);
    let t_dep = t.time("ddg.t_dep", input, || ddg.t_dep())?;
    let t_res = t.time("machine.t_res", input, || machine.t_res(ddg)).ok()?;
    let t_lb = t_dep.max(t_res);
    let ims = IterativeModuloScheduler::new(machine.clone()).with_max_live(case.max_live);
    let found = |period: u32, first_unrefuted: u32| {
        Some(Outcome {
            t_lb,
            period: Some(period),
            proven: first_unrefuted == period,
        })
    };
    let mut first_unrefuted = t_lb;
    let mut undecided = false;
    let mut exhausted = false;
    // The simplex basis the ILP path carries from one period to the next.
    let mut basis: Option<Vec<String>> = None;

    for period in t_lb..=t_lb + spec.max_t_above_lb {
        if budget.check().is_err() {
            exhausted = true;
            break;
        }
        if spec.heuristic {
            match probe_ims(t, input, case, &ims, period, &budget) {
                Ok(Some(_)) => {
                    t.add("heuristics.ims.certified", 1);
                    return found(period, first_unrefuted);
                }
                Ok(None) => {}
                Err(()) => {
                    undecided = true;
                    if budget.check().is_err() {
                        exhausted = true;
                        break;
                    }
                    continue;
                }
            }
        }
        let verdict = match spec.engine {
            Engine::Ilp => ilp(t, input, case, period, &budget, Some(&mut basis)),
            // Classes too wide for CP's unit masks fall back to the ILP.
            Engine::Cp => match cp(t, input, case, period, &budget) {
                Verdict::Failed => ilp(t, input, case, period, &budget, Some(&mut basis)),
                v => v,
            },
            // CP first on its own isolated slice, as the race arms run;
            // the ILP arm only matters when CP does not settle.
            Engine::Portfolio => match cp(t, input, case, period, &budget.fork_racer().0) {
                v if v.decisive() => v,
                _ => ilp(t, input, case, period, &budget.fork_racer().0, None),
            },
        };
        match verdict {
            Verdict::Feasible(s) => {
                if check(t, input, case, &s) {
                    return found(period, first_unrefuted);
                }
                if let Ok(Some(_)) = probe_ims(t, input, case, &ims, period, &budget) {
                    return found(period, first_unrefuted);
                }
                undecided = true;
            }
            Verdict::Refuted => {
                if first_unrefuted == period {
                    first_unrefuted = period + 1;
                }
            }
            Verdict::Limit => {
                undecided = true;
                if budget.check().is_err() {
                    exhausted = true;
                    break;
                }
            }
            Verdict::Failed => {
                if let Ok(Some(_)) = probe_ims(t, input, case, &ims, period, &budget) {
                    return found(period, first_unrefuted);
                }
                undecided = true;
            }
        }
    }

    if exhausted {
        t.add("heuristics.grace.calls", 1);
        let grace = Budget::with_tick_limit(GRACE_TICKS);
        if let Ok(h) = t.time("heuristics.grace", input, || ims.schedule_with(ddg, &grace)) {
            if check(t, input, case, &h.schedule) {
                return Some(Outcome {
                    t_lb,
                    period: Some(h.schedule.initiation_interval()),
                    proven: false,
                });
            }
        }
    }
    Some(Outcome {
        t_lb,
        period: None,
        proven: !undecided && !exhausted,
    })
}

/// One IMS attempt at `period`, checked. `Err` means the budget died
/// inside the probe.
fn probe_ims(
    t: &mut Tracer,
    input: usize,
    case: &Case,
    ims: &IterativeModuloScheduler,
    period: u32,
    budget: &Budget,
) -> Result<Option<PipelinedSchedule>, ()> {
    t.add("heuristics.ims.calls", 1);
    let before = budget.ticks_used();
    let probed = t.time("heuristics.ims", input, || {
        ims.schedule_at_with(&case.ddg, period, budget)
    });
    t.add("heuristics.ims.ticks", budget.ticks_used() - before);
    match probed {
        Ok(Some(s)) if check(t, input, case, &s) => Ok(Some(s)),
        Ok(_) => Ok(None),
        Err(_) => Err(()),
    }
}

/// The independent checker, as the driver runs it on every schedule.
fn check(t: &mut Tracer, input: usize, case: &Case, s: &PipelinedSchedule) -> bool {
    t.add("machine.checker.calls", 1);
    let ok = t.time("machine.checker", input, || {
        s.validate(&case.ddg, &case.machine).is_ok()
            && case
                .max_live
                .is_none_or(|ml| s.validate_pressure(&case.ddg, ml).is_ok())
    });
    if !ok {
        t.add("machine.checker.rejects", 1);
    }
    ok
}

fn ilp(
    t: &mut Tracer,
    input: usize,
    case: &Case,
    period: u32,
    budget: &Budget,
    basis: Option<&mut Option<Vec<String>>>,
) -> Verdict {
    let (ddg, machine) = (&case.ddg, &case.machine);
    t.add("core.formulation.calls", 1);
    let options = FormulationOptions {
        max_live: case.max_live,
        ..FormulationOptions::standard()
    };
    let f = match t.time("core.formulation", input, || {
        formulation::build_with(ddg, machine, period, options, budget)
    }) {
        Ok(f) => f,
        Err(ScheduleError::PeriodInfeasible { .. }) => {
            t.add("core.formulation.rejected", 1);
            return Verdict::Refuted;
        }
        Err(_) => return Verdict::Failed,
    };
    t.add("core.formulation.vars", f.model.num_vars() as u64);
    t.add("core.formulation.constrs", f.model.num_constrs() as u64);
    let mut limits = SolveLimits {
        time_limit: None,
        budget: budget.clone(),
        stop_at_first_incumbent: true,
        pivot_layout: PivotLayout::SparseRow,
        ..SolveLimits::default()
    };
    t.add("milp.solve.calls", 1);
    let before = budget.ticks_used();
    let solved = match basis {
        Some(carry) => {
            if let Some(names) = carry.as_ref() {
                let hint = f.model.basis_from_names(names);
                if !hint.is_empty() {
                    limits.warm_basis = Some(hint);
                }
            }
            let (solved, exported) =
                t.time("milp.solve", input, || f.model.solve_with_basis(&limits));
            if let Some(b) = exported.filter(|b| !b.is_empty()) {
                *carry = Some(f.model.basis_to_names(&b));
            }
            solved
        }
        None => t.time("milp.solve", input, || f.model.solve_with(&limits)),
    };
    t.add("milp.ticks", budget.ticks_used() - before);
    match solved {
        Ok(sol) => {
            t.add("milp.bb_nodes", sol.stats().nodes);
            t.add("milp.lp_iterations", sol.stats().lp_iterations);
            let (starts, units) = f.extract(&sol);
            complete(case, period, starts, units)
        }
        Err(SolveError::Infeasible) => {
            t.add("milp.refuted", 1);
            Verdict::Refuted
        }
        Err(SolveError::LimitReached(_)) => {
            t.add("milp.limit", 1);
            Verdict::Limit
        }
        Err(_) => Verdict::Failed,
    }
}

fn cp(t: &mut Tracer, input: usize, case: &Case, period: u32, budget: &Budget) -> Verdict {
    let options = CpOptions {
        symmetry_breaking: true,
        packing_bound: true,
        max_live: case.max_live,
    };
    t.add("cpsat.solve.calls", 1);
    let before = budget.ticks_used();
    let solved = t.time("cpsat.solve", input, || {
        swp_cpsat::solve_at(&case.ddg, &case.machine, period, options, budget)
    });
    t.add("cpsat.ticks", budget.ticks_used() - before);
    if let Ok((_, stats)) = &solved {
        t.add("cpsat.nodes", stats.nodes);
        t.add("cpsat.conflicts", stats.conflicts);
    }
    match solved {
        Ok((CpOutcome::Feasible { starts, units }, _)) => complete(case, period, starts, units),
        Ok((CpOutcome::Infeasible, _)) => {
            t.add("cpsat.refuted", 1);
            Verdict::Refuted
        }
        Err(CpError::Exhausted(_)) => {
            t.add("cpsat.exhausted", 1);
            Verdict::Limit
        }
        Err(_) => Verdict::Failed,
    }
}

/// Maps the nodes an exact engine left uncolored first-fit, per class,
/// the way the driver completes exact schedules before checking them.
fn complete(case: &Case, period: u32, starts: Vec<u32>, mut units: Vec<Option<u32>>) -> Verdict {
    let mut used: HashSet<(usize, u32, usize, u32)> = HashSet::new();
    let cells = |class, start: u32| {
        let rt = &case.machine.fu_type(class).ok()?.reservation;
        Some(
            (0..rt.stages())
                .flat_map(|s| rt.stage_offsets(s).into_iter().map(move |l| (s, l)))
                .map(|(s, l)| (s, (start + l as u32) % period))
                .collect::<Vec<_>>(),
        )
    };
    for (id, node) in case.ddg.nodes() {
        if let Some(fu) = units[id.index()] {
            let Some(cells) = cells(node.class, starts[id.index()]) else {
                return Verdict::Failed;
            };
            for (s, r) in cells {
                used.insert((node.class.index(), fu, s, r));
            }
        }
    }
    for (id, node) in case.ddg.nodes() {
        if units[id.index()].is_some() {
            continue;
        }
        let (Ok(fu_type), Some(cells)) = (
            case.machine.fu_type(node.class),
            cells(node.class, starts[id.index()]),
        ) else {
            return Verdict::Failed;
        };
        let c = node.class.index();
        let Some(fu) = (0..fu_type.count)
            .find(|&fu| cells.iter().all(|&(s, r)| !used.contains(&(c, fu, s, r))))
        else {
            return Verdict::Failed;
        };
        for (s, r) in cells {
            used.insert((c, fu, s, r));
        }
        units[id.index()] = Some(fu);
    }
    Verdict::Feasible(PipelinedSchedule::new(period, starts, units))
}
