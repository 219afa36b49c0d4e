//! Table 5 (reconstructed) — ILP effort over the corpus: how many loops
//! settle within which time budget, engine mix, and branch-and-bound
//! effort. The paper's "10/30" note records its own per-loop solver
//! budgets; here the distribution is regenerated on the synthetic corpus
//! with the pure ILP (heuristic certificates off).
//!
//! The time bins use the harness's per-loop **solve time** (on-thread
//! CPU-side effort), not wall time, so they are meaningful at any worker
//! count.
//!
//! Run: `cargo run -p swp-bench --release --bin table5 -- --help` for
//! the arguments and harness flags.

use std::process::ExitCode;
use std::time::Duration;
use swp_bench::{parse_engine, render_table};
use swp_core::{SchedulerConfig, SolvedBy};
use swp_harness::{Cli, Flags, Harness, HarnessConfig, NullSink, SuiteOutcome};
use swp_loops::suite::{generate, SuiteConfig};
use swp_machine::Machine;

const CLI: Cli = Cli {
    name: "table5",
    usage: "\
usage: table5 [NUM_LOOPS] [PER_T_SECONDS] [flags]

  NUM_LOOPS                corpus loops to schedule (default 200)
  PER_T_SECONDS            wall-clock budget per candidate period (default 3)
  --workers N              shard the corpus over N threads (0 = all CPUs)
  --artifact PATH          stream per-loop JSONL records to PATH
  --resume                 load PATH first and skip already-solved loops
  --engine ilp|cp|portfolio
                           the exact engine settling each period (default ilp)
  -h, --help               print this help
",
};

fn main() -> ExitCode {
    CLI.run(run)
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let num_loops: usize = flags.positional_or(0, 200)?;
    let secs: u64 = flags.positional_or(1, 3)?;
    let workers: usize = flags.get_or("workers", 1)?;
    let engine = parse_engine(flags)?;
    println!(
        "== Table 5: ILP solve effort ({num_loops} loops, pure ILP, {secs}s per period, {workers} workers) ==\n"
    );
    let run = SchedulerConfig {
        time_limit_per_t: Some(Duration::from_secs(secs)),
        max_t_above_lb: 8,
        heuristic_incumbent: false,
        engine,
        ..SchedulerConfig::default()
    };
    let config = HarnessConfig {
        workers,
        artifact: flags.get("artifact").map(Into::into),
        resume: flags.has("resume"),
        ..HarnessConfig::default()
    };
    let loops = generate(&SuiteConfig {
        num_loops,
        ..SuiteConfig::pldi95_default()
    });
    let harness = Harness::new(Machine::example_pldi95(), run, config);
    let report = harness
        .run(&loops, &mut NullSink)
        .map_err(|e| e.to_string())?;
    let recs = &report.records;

    let budgets_ms = [10u128, 100, 1000, 10_000, 60_000];
    let scheduled: Vec<_> = recs
        .iter()
        .filter(|r| matches!(r.outcome, SuiteOutcome::Scheduled { .. }))
        .collect();
    let rows: Vec<Vec<String>> = budgets_ms
        .iter()
        .map(|&b| {
            let within = scheduled
                .iter()
                .filter(|r| r.solve_time.as_millis() <= b)
                .count();
            vec![
                format!("<= {} ms", b),
                within.to_string(),
                format!("{:.1}%", 100.0 * within as f64 / recs.len().max(1) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["solve-time budget", "loops solved", "of corpus"], &rows)
    );

    let ilp_solved = scheduled
        .iter()
        .filter(|r| {
            matches!(
                r.outcome,
                SuiteOutcome::Scheduled {
                    solved_by: SolvedBy::Ilp,
                    ..
                }
            )
        })
        .count();
    let timeouts = recs.iter().filter(|r| r.any_timeout).count();
    let total_nodes: u64 = recs.iter().map(|r| r.bb_nodes).sum();
    let mean_nodes = total_nodes as f64 / scheduled.len().max(1) as f64;
    println!("scheduled           : {}/{}", scheduled.len(), recs.len());
    println!("solved by the ILP   : {ilp_solved} (heuristic certificates disabled)");
    println!("loops with a timeout: {timeouts}");
    println!("mean B&B nodes/loop : {mean_nodes:.0}");
    let mut times: Vec<u128> = scheduled.iter().map(|r| r.solve_time.as_millis()).collect();
    times.sort_unstable();
    if !times.is_empty() {
        println!(
            "solve time p50/p90/max: {} / {} / {} ms",
            times[times.len() / 2],
            times[times.len() * 9 / 10],
            times.last().expect("nonempty"),
        );
    }
    println!("\n{}", report.summary.render());
    if report.interrupted {
        return Err("run interrupted before the whole corpus was covered".into());
    }
    Ok(ExitCode::SUCCESS)
}
