//! Exact-engine A/B benchmark: ILP vs CP vs portfolio → `BENCH_cpsat.json`.
//!
//! The harness runs the same PLDI'95 corpus three times — once per
//! [`Engine`] — with the IMS incumbent *off*, so the exact engines
//! settle every period themselves (with the heuristic on, most loops
//! close on an IMS certificate and the comparison measures nothing).
//! Methodology: one worker, deterministic tick budgets, interleaved
//! repetitions with the per-loop **minimum** solve time kept (`AB_REPS`
//! reps), decision identity asserted across engines.
//!
//! The artifact records, per loop, the min solve time under each engine,
//! the portfolio's ratio against `min(ILP, CP)`, and whether any engine
//! hit its tick budget there. `wall_us.ilp_settled` and
//! `wall_us.cp_settled` sum the per-loop minimums over the loops no
//! engine capped, so they measure exact solving rather than budgets. The portfolio
//! stages CP before the ILP, so on loops CP settles alone it should
//! track CP. The one gate is decision identity.
//!
//! Run: `cargo run -p swp-bench --release --bin bench_cpsat`. Its
//! defaults are the committed artifact's: 32 loops at 100,000 ticks per
//! loop; `--help` lists the flags.

use std::process::ExitCode;
use swp_bench::ab;
use swp_core::{Engine, SchedulerConfig};
use swp_harness::{Cli, Flags, Harness, HarnessConfig, LoopRecord, NullSink};
use swp_loops::suite::{generate, GeneratedLoop, SuiteConfig};
use swp_machine::Machine;

const CLI: Cli = Cli {
    name: "bench_cpsat",
    usage: "\
usage: bench_cpsat [NUM_LOOPS] [--ticks N] [--out PATH]

  NUM_LOOPS    corpus loops to run under each engine (default 32)
  --ticks N    deterministic tick budget per loop (default 100000)
  --out PATH   where to write the artifact (default BENCH_cpsat.json)
  -h, --help   print this help
",
};

/// Interleaved repetitions per engine; per-loop minimum is kept.
const AB_REPS: usize = 3;

struct EngineRun {
    wall_us: u64,
    records: Vec<LoopRecord>,
    /// Per-loop minimum solve time across reps, in µs.
    per_loop_us: Vec<u64>,
}

fn run_engine(machine: &Machine, loops: &[GeneratedLoop], engine: Engine, ticks: u64) -> EngineRun {
    let harness = Harness::new(
        machine.clone(),
        SchedulerConfig {
            time_limit_per_t: None,
            max_t_above_lb: 8,
            heuristic_incumbent: false,
            engine,
            ..SchedulerConfig::default()
        },
        HarnessConfig {
            workers: 1,
            per_loop_ticks: Some(ticks),
            record_timing: true,
            ..HarnessConfig::default()
        },
    );
    let report = harness.run(loops, &mut NullSink).expect("artifact-less");
    assert!(!report.interrupted, "A/B run must cover every loop");
    let per_loop_us = report
        .records
        .iter()
        .map(|r| r.solve_time.as_micros() as u64)
        .collect();
    EngineRun {
        wall_us: report.wall_time.as_micros() as u64,
        records: report.records,
        per_loop_us,
    }
}

/// The decision an engine reached on one loop — everything that must be
/// engine-independent (timing is not compared).
fn decision(r: &LoopRecord) -> (Option<u32>, bool, bool) {
    (r.period, r.proven, r.any_timeout)
}

fn main() -> ExitCode {
    CLI.run(run)
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let num_loops: usize = flags.positional_or(0, 32)?;
    let ticks: u64 = flags.get_or("ticks", 100_000)?;
    let out = flags.get("out").unwrap_or("BENCH_cpsat.json").to_string();
    let machine = Machine::example_pldi95();
    let loops = generate(&SuiteConfig {
        num_loops,
        ..SuiteConfig::pldi95_default()
    });

    eprintln!(
        "== exact-engine A/B: {num_loops} loops, {ticks} ticks/loop, heuristic off, \
         1 worker, per-loop min of {AB_REPS} reps =="
    );
    let engines = [Engine::Ilp, Engine::Cp, Engine::Portfolio];
    // Interleaved so machine-wide drift hits every engine equally; the
    // merge keeps the min wall and element-wise min per-loop times.
    let mut runs = ab::interleave_min(
        AB_REPS,
        engines.len(),
        |arm| run_engine(&machine, &loops, engines[arm], ticks),
        |b, run| {
            b.wall_us = b.wall_us.min(run.wall_us);
            for (m, v) in b.per_loop_us.iter_mut().zip(&run.per_loop_us) {
                *m = (*m).min(*v);
            }
        },
    );
    let port = runs.pop().expect("three arms");
    let cp = runs.pop().expect("three arms");
    let ilp = runs.pop().expect("three arms");

    // Decision identity: every engine is decision-equivalent, so with
    // the same tick budget the (period, proven, timeout) triple must
    // agree wherever no engine tripped its budget. Budget-tripped loops
    // may legitimately differ (the engines spend ticks differently).
    let decisions: Vec<[_; 3]> = (0..num_loops)
        .map(|i| [&ilp, &cp, &port].map(|run| decision(&run.records[i])))
        .collect();
    let limited: Vec<bool> = decisions
        .iter()
        .map(|d| d.iter().any(|&(_, _, timeout)| timeout))
        .collect();
    let mut mismatches = 0usize;
    for (i, d) in decisions.iter().enumerate() {
        if limited[i] {
            continue;
        }
        if d[1] != d[0] || d[2] != d[0] {
            mismatches += 1;
            if mismatches <= 3 {
                eprintln!(
                    "decision mismatch on {}: ilp {:?} cp {:?} portfolio {:?}",
                    ilp.records[i].name, d[0], d[1], d[2]
                );
            }
        }
    }

    let budget_limited = limited.iter().filter(|&&l| l).count();
    // Solve time summed over the loops no engine capped: a capped loop
    // costs whatever its budget allows, so it measures the budget, not
    // the engine.
    let settled_us = |run: &EngineRun| -> u64 {
        run.per_loop_us
            .iter()
            .zip(&limited)
            .filter(|&(_, &l)| !l)
            .map(|(&us, _)| us)
            .sum()
    };
    let (ilp_settled, cp_settled) = (settled_us(&ilp), settled_us(&cp));

    // Per-loop comparison on the minimums.
    let mut cp_faster = 0usize;
    let mut worst_ratio = 0.0f64;
    let mut per_loop = String::new();
    for (i, capped) in limited.iter().enumerate() {
        let (i_us, c_us, p_us) = (ilp.per_loop_us[i], cp.per_loop_us[i], port.per_loop_us[i]);
        let floor = i_us.min(c_us);
        if c_us < i_us {
            cp_faster += 1;
        }
        let ratio = p_us as f64 / floor.max(1) as f64;
        worst_ratio = worst_ratio.max(ratio);
        per_loop.push_str(&format!(
            "    {{\"loop\": {i}, \"period\": {}, \"ilp_us\": {i_us}, \"cp_us\": {c_us}, \
             \"portfolio_us\": {p_us}, \"ratio_vs_best\": {ratio:.2}, \
             \"budget_limited\": {}}}{}\n",
            ilp.records[i].period.map_or(-1i64, i64::from),
            capped,
            if i + 1 < num_loops { "," } else { "" }
        ));
    }
    eprintln!(
        "wall: ilp {} µs | cp {} µs | portfolio {} µs | settled loops: ilp {ilp_settled} µs, \
         cp {cp_settled} µs",
        ilp.wall_us, cp.wall_us, port.wall_us
    );
    eprintln!(
        "per-loop: CP faster on {cp_faster}/{num_loops}, worst portfolio ratio to the \
         faster engine ×{worst_ratio:.2} | decisions: {mismatches} mismatches, \
         {budget_limited} budget-limited loops"
    );

    let json = format!(
        "{{\n  \"machine\": \"example_pldi95\",\n  \"loops\": {num_loops},\n  \
         \"per_loop_ticks\": {ticks},\n  \"reps\": {AB_REPS},\n  \
         \"heuristic_incumbent\": false,\n  \
         \"wall_us\": {{\"ilp\": {}, \"cp\": {}, \"portfolio\": {}, \
         \"ilp_settled\": {ilp_settled}, \"cp_settled\": {cp_settled}}},\n  \
         \"per_loop_summary\": {{\"cp_faster_than_ilp\": {cp_faster}, \
         \"worst_portfolio_ratio\": {worst_ratio:.2}, \
         \"decision_mismatches\": {mismatches}, \"budget_limited\": {budget_limited}}},\n  \
         \"per_loop\": [\n{per_loop}  ]\n}}\n",
        ilp.wall_us, cp.wall_us, port.wall_us
    );
    std::fs::write(&out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {out}");

    if mismatches > 0 {
        return Err("engines DISAGREED on fully-settled loops".into());
    }
    Ok(ExitCode::SUCCESS)
}
