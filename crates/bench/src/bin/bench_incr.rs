//! Incremental-session A/B benchmark → `BENCH_incr.json`.
//!
//! Measures what a [`SolveSession`] buys over cold re-solving on the
//! corpus the tables use. Every loop runs the same five-step edit
//! script — solve; add a dependence; solve; revert it; solve; add an
//! instruction; solve; revert it; solve — through two arms:
//!
//! * **warm**: one session per loop; solves seed the IMS probe with the
//!   carried schedule hint, and the two revert steps replay their
//!   fingerprint-identical results.
//! * **cold**: `RateOptimalScheduler::schedule_with` re-solving each
//!   step's DDG snapshot from scratch.
//!
//! Both arms run under identical deterministic per-solve tick budgets;
//! the wall-time comparison is min-of-`REPS` with the arms interleaved
//! so machine-wide drift hits both equally. The benchmark *gates* on
//! decision identity: at every step of every loop the two arms must
//! agree on achieved period and optimality claim (steps where either
//! arm exhausted its budget are counted `inconclusive` and excluded,
//! as in the fuzzer's differential mode). Any mismatch fails the run.
//!
//! Two suites cover the two table stacks: `table4` (heuristic
//! incumbent on, default engine) and `table5` (pure ILP, a small
//! corpus slice at a quarter of the tick budget — exact solves are
//! seconds-per-loop there, see `BENCH_cpsat.json`).
//!
//! Run: `cargo run -p swp-bench --release --bin bench_incr -- --help`
//! for the arguments.

use std::process::ExitCode;
use std::time::Instant;
use swp_bench::ab;
use swp_core::{
    Optimality, PeriodAttempt, RateOptimalScheduler, ReuseStats, ScheduleError, ScheduleResult,
    SchedulerConfig,
};
use swp_ddg::Ddg;
use swp_harness::{Cli, Flags};
use swp_incr::{EditOp, SolveSession};
use swp_loops::suite::{generate, GeneratedLoop, SuiteConfig};
use swp_machine::Machine;
use swp_milp::Budget;

/// Timed A/B repetitions; the minimum total is reported.
const REPS: usize = 3;

const CLI: Cli = Cli {
    name: "bench_incr",
    usage: "\
usage: bench_incr [NUM_LOOPS] [--ticks N] [--out PATH]

  NUM_LOOPS    table4-suite loops (default 192; the table5 suite runs
               NUM_LOOPS / 16, at least 8)
  --ticks N    tick budget per table4 solve (default 400000; table5
               solves get a quarter)
  --out PATH   where to write the artifact (default BENCH_incr.json)
  -h, --help   print this help
",
};

/// One step of the per-loop script: the edit to apply before solving
/// (`None` for the initial solve).
fn script(ddg: &Ddg) -> Option<Vec<Option<EditOp>>> {
    let n = ddg.num_nodes();
    if n < 2 {
        return None; // the script needs two endpoints for its edge
    }
    // A forward loop-carried dependence 0 → n-1 at the smallest
    // distance that is not already present, so the revert step restores
    // the exact original edge list (and with it the fingerprint).
    let mut distance = 1;
    while ddg
        .edges()
        .any(|e| e.src.index() == 0 && e.dst.index() == n - 1 && e.distance == distance)
    {
        distance += 1;
    }
    let class = ddg.nodes().next().map(|(_, node)| node.class.index())?;
    Some(vec![
        None,
        Some(EditOp::AddEdge {
            src: 0,
            dst: n - 1,
            distance,
        }),
        Some(EditOp::RemoveEdge {
            src: 0,
            dst: n - 1,
            distance,
        }),
        Some(EditOp::AddNode {
            name: "bench_incr_x".into(),
            class,
            latency: 1,
        }),
        Some(EditOp::RemoveNode { index: n }),
    ])
}

/// Decision signature of one solve: `(period, proven)`, or `None` when
/// the run was inconclusive (a budget-tripped or failed attempt, whose
/// outcome legitimately depends on how much work the arm had left).
fn signature(r: &Result<ScheduleResult, ScheduleError>) -> Option<(Option<u32>, bool)> {
    let timed = |attempts: &[PeriodAttempt]| attempts.iter().any(|a| a.outcome.is_undecided());
    match r {
        Ok(res) => (!timed(&res.attempts)).then(|| {
            (
                Some(res.schedule.initiation_interval()),
                matches!(res.optimality, Optimality::Proven),
            )
        }),
        Err(ScheduleError::NotFound { attempts, .. }) => {
            (!timed(attempts)).then_some((None, false))
        }
        Err(ScheduleError::NoFinitePeriod) => Some((None, false)),
        Err(_) => None,
    }
}

struct SuiteSpec {
    name: &'static str,
    heuristic_incumbent: bool,
    num_loops: usize,
    /// Deterministic per-solve budget for this suite (identical across
    /// both arms, so decision identity is still well-posed).
    ticks: u64,
}

struct ArmResult {
    us: u64,
    /// Per (loop, step) decision signatures, in script order.
    decisions: Vec<Option<(Option<u32>, bool)>>,
    reuse: ReuseStats,
}

fn config(heuristic_incumbent: bool) -> SchedulerConfig {
    SchedulerConfig {
        time_limit_per_t: None,
        heuristic_incumbent,
        ..SchedulerConfig::default()
    }
}

/// The warm arm: one session per loop, edits applied in place.
fn run_warm(
    machine: &Machine,
    loops: &[(GeneratedLoop, Vec<Option<EditOp>>)],
    heuristic: bool,
    ticks: u64,
) -> ArmResult {
    let mut decisions = Vec::new();
    let mut reuse = ReuseStats::default();
    let started = Instant::now();
    for (l, steps) in loops {
        let mut session = SolveSession::from_ddg(machine.clone(), config(heuristic), &l.ddg);
        for step in steps {
            if let Some(op) = step {
                session.apply(op).expect("script edits are valid");
            }
            let r = session.solve_with(&Budget::with_tick_limit(ticks));
            decisions.push(signature(&r));
        }
        reuse.absorb(&session.reuse());
    }
    ArmResult {
        us: started.elapsed().as_micros() as u64,
        decisions,
        reuse,
    }
}

/// The cold arm: every step's DDG snapshot solved from scratch.
fn run_cold(machine: &Machine, snapshots: &[Vec<Ddg>], heuristic: bool, ticks: u64) -> ArmResult {
    let scheduler = RateOptimalScheduler::new(machine.clone(), config(heuristic));
    let mut decisions = Vec::new();
    let started = Instant::now();
    for steps in snapshots {
        for ddg in steps {
            let r = scheduler.schedule_with(ddg, &Budget::with_tick_limit(ticks));
            decisions.push(signature(&r));
        }
    }
    ArmResult {
        us: started.elapsed().as_micros() as u64,
        decisions,
        reuse: ReuseStats::default(),
    }
}

struct SuiteResult {
    name: &'static str,
    loops: usize,
    skipped: usize,
    steps: usize,
    warm_us: u64,
    cold_us: u64,
    ticks: u64,
    mismatches: usize,
    inconclusive: usize,
    reuse: ReuseStats,
}

fn run_suite(machine: &Machine, spec: &SuiteSpec) -> SuiteResult {
    let ticks = spec.ticks;
    let generated = generate(&SuiteConfig {
        num_loops: spec.num_loops,
        ..SuiteConfig::pldi95_default()
    });
    let mut skipped = 0usize;
    let loops: Vec<(GeneratedLoop, Vec<Option<EditOp>>)> = generated
        .into_iter()
        .filter_map(|l| match script(&l.ddg) {
            Some(s) => Some((l, s)),
            None => {
                skipped += 1;
                None
            }
        })
        .collect();
    // Pre-materialize every step's DDG for the cold arm by replaying
    // the edit script through an untimed scratch session, so both arms
    // solve byte-identical instances.
    let snapshots: Vec<Vec<Ddg>> = loops
        .iter()
        .map(|(l, steps)| {
            let mut s =
                SolveSession::from_ddg(machine.clone(), config(spec.heuristic_incumbent), &l.ddg);
            steps
                .iter()
                .map(|step| {
                    if let Some(op) = step {
                        s.apply(op).expect("script edits are valid");
                    }
                    s.ddg().clone()
                })
                .collect()
        })
        .collect();

    // Interleaved warm/cold reps with the min-total-time rep of each arm
    // kept. Decisions are tick-deterministic (identical budgets every
    // rep), so comparing the kept arms' decision vectors is the same
    // comparison the first rep would make.
    let mut runs = ab::interleave_min(
        REPS,
        2,
        |arm| match arm {
            0 => run_warm(machine, &loops, spec.heuristic_incumbent, ticks),
            _ => run_cold(machine, &snapshots, spec.heuristic_incumbent, ticks),
        },
        |best, next| {
            if next.us < best.us {
                *best = next;
            }
        },
    );
    let cold = runs.pop().expect("two arms");
    let warm = runs.pop().expect("two arms");
    assert_eq!(warm.decisions.len(), cold.decisions.len());
    let mut mismatches = 0usize;
    let mut inconclusive = 0usize;
    for (w, c) in warm.decisions.iter().zip(&cold.decisions) {
        match (w, c) {
            (Some(a), Some(b)) if a != b => mismatches += 1,
            (Some(_), Some(_)) => {}
            _ => inconclusive += 1,
        }
    }
    SuiteResult {
        name: spec.name,
        loops: loops.len(),
        skipped,
        steps: warm.decisions.len(),
        warm_us: warm.us,
        cold_us: cold.us,
        ticks,
        mismatches,
        inconclusive,
        reuse: warm.reuse,
    }
}

fn main() -> ExitCode {
    CLI.run(run)
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let num_loops: usize = flags.positional_or(0, 192)?;
    let ticks: u64 = flags.get_or("ticks", 400_000)?;
    let out = flags.get("out").unwrap_or("BENCH_incr.json").to_string();
    let machine = Machine::example_pldi95();
    // The pure-ILP stack is orders of magnitude slower per solve (see
    // BENCH_cpsat: seconds per loop where the incumbent path takes
    // milliseconds), so the table5 suite runs a small slice of the
    // corpus at a quarter of the tick budget to stay minutes, not
    // hours. Both arms always share a suite's budget exactly.
    let suites = [
        SuiteSpec {
            name: "table4",
            heuristic_incumbent: true,
            num_loops,
            ticks,
        },
        SuiteSpec {
            name: "table5",
            heuristic_incumbent: false,
            num_loops: (num_loops / 16).max(8),
            ticks: (ticks / 4).max(1),
        },
    ];

    eprintln!(
        "== incremental sessions A/B: 5-step edit script per loop, base {ticks} ticks per solve, min of {REPS} reps =="
    );
    let mut results = Vec::new();
    for spec in &suites {
        let r = run_suite(&machine, spec);
        eprintln!(
            "{}: {} loops ({} skipped) × {} steps | warm {} µs, cold {} µs (speedup ×{:.2}) | {} mismatches, {} inconclusive",
            r.name,
            r.loops,
            r.skipped,
            r.steps.checked_div(r.loops).unwrap_or(0),
            r.warm_us,
            r.cold_us,
            r.cold_us as f64 / r.warm_us.max(1) as f64,
            r.mismatches,
            r.inconclusive
        );
        eprintln!(
            "  reuse: {} replays, {} IMS hint hits, {} cone nodes",
            r.reuse.replays, r.reuse.ims_hint_hits, r.reuse.cone_nodes
        );
        results.push(r);
    }

    let mut json = String::from("{\n  \"machine\": \"example_pldi95\",\n");
    json.push_str(&format!(
        "  \"script\": \"solve; +edge; solve; -edge; solve; +node; solve; -node; solve\",\n  \"base_ticks\": {ticks},\n  \"reps\": {REPS},\n  \"suites\": [\n"
    ));
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"suite\": \"{}\", \"loops\": {}, \"steps\": {}, \"ticks_per_solve\": {}, \"warm_us\": {}, \"cold_us\": {}, \"speedup\": {:.2},\n     \"mismatches\": {}, \"inconclusive\": {},\n     \"reuse\": {{\"replays\": {}, \"ims_hint_hits\": {}, \"cone_nodes\": {}}}}}{}\n",
            r.name,
            r.loops,
            r.steps,
            r.ticks,
            r.warm_us,
            r.cold_us,
            r.cold_us as f64 / r.warm_us.max(1) as f64,
            r.mismatches,
            r.inconclusive,
            r.reuse.replays,
            r.reuse.ims_hint_hits,
            r.reuse.cone_nodes,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {out}");

    let mismatches: usize = results.iter().map(|r| r.mismatches).sum();
    if mismatches > 0 {
        return Err(format!("warm and cold decisions DIVERGED ({mismatches})"));
    }
    Ok(ExitCode::SUCCESS)
}
