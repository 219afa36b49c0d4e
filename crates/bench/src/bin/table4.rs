//! Table 4 — scheduling performance over the 1066-loop corpus: how many
//! loops achieve `T = T_lb`, `T_lb + k`, with the mean DDG size per
//! bucket (the paper reports 735 loops at `T_lb` with mean 6 nodes, and
//! a small large-loop tail at `T_lb+2` / `T_lb+4` with means 16–17).
//!
//! Run: `cargo run -p swp-bench --release --bin table4 -- --help` for
//! the arguments and harness flags.

use std::process::ExitCode;
use std::time::Duration;
use swp_bench::{parse_engine, render_table};
use swp_core::SchedulerConfig;
use swp_harness::{Cli, Flags, Harness, HarnessConfig, LoopRecord, NullSink, SuiteOutcome};
use swp_loops::suite::{generate, SuiteConfig};
use swp_machine::Machine;

const CLI: Cli = Cli {
    name: "table4",
    usage: "\
usage: table4 [NUM_LOOPS] [PER_T_SECONDS] [MACHINE] [flags]

  NUM_LOOPS                corpus loops to schedule (default 1066)
  PER_T_SECONDS            wall-clock budget per candidate period (default 3)
  MACHINE                  example (default) or ppc604
  --workers N              shard the corpus over N threads (0 = all CPUs;
                           the buckets are identical at any worker count)
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
    let num_loops: usize = flags.positional_or(0, 1066)?;
    let secs: u64 = flags.positional_or(1, 3)?;
    let workers: usize = flags.get_or("workers", 1)?;
    let engine = parse_engine(flags)?;
    let which = flags.positional(2).unwrap_or("example").to_string();
    let (machine, corpus) = match which.as_str() {
        "example" => (Machine::example_pldi95(), SuiteConfig::pldi95_default()),
        "ppc604" => (Machine::ppc604(), SuiteConfig::ppc604()),
        other => return Err(format!("unknown machine `{other}` (use example or ppc604)")),
    };
    let run = SchedulerConfig {
        time_limit_per_t: Some(Duration::from_secs(secs)),
        max_t_above_lb: 8,
        engine,
        ..SchedulerConfig::default()
    };
    let config = HarnessConfig {
        workers,
        artifact: flags.get("artifact").map(Into::into),
        resume: flags.has("resume"),
        ..HarnessConfig::default()
    };
    println!(
        "== Table 4: scheduling performance ({num_loops} loops, {secs}s per period, {which} machine, {workers} workers) ==\n"
    );
    let loops = generate(&SuiteConfig {
        num_loops,
        ..corpus
    });
    let harness = Harness::new(machine, run, config);
    let report = harness
        .run(&loops, &mut NullSink)
        .map_err(|e| e.to_string())?;

    print_buckets(&report.records);
    println!("{}", report.summary.render());
    println!(
        "Paper's shape for comparison: 735 loops at T = T_lb (mean 6 nodes);\n\
         20 at T_lb+2 (mean 16); 11 at T_lb+4 (mean 17) — most loops rate-optimal\n\
         at the bound, larger DDGs dominating the slack tail."
    );
    if report.interrupted {
        return Err("run interrupted before the whole corpus was covered".into());
    }
    Ok(ExitCode::SUCCESS)
}

/// Buckets records by slack above the paper's counting `T_lb` (what the
/// paper's Table 4 measures) and renders the table. Our refined packing
/// bound proves most of the nonzero buckets rate-optimal anyway; that is
/// reported separately in the summary.
fn print_buckets(recs: &[LoopRecord]) {
    let mut buckets: std::collections::BTreeMap<u32, (usize, usize)> =
        std::collections::BTreeMap::new();
    let mut unscheduled = (0usize, 0usize);
    for r in recs {
        match (&r.outcome, r.period) {
            (SuiteOutcome::Scheduled { .. }, Some(p)) => {
                let slack = p.saturating_sub(r.t_lb_counting);
                let e = buckets.entry(slack).or_insert((0, 0));
                e.0 += 1;
                e.1 += r.num_nodes;
            }
            _ => {
                unscheduled.0 += 1;
                unscheduled.1 += r.num_nodes;
            }
        }
    }
    let mut rows: Vec<Vec<String>> = buckets
        .iter()
        .map(|(slack, (count, nodes))| {
            vec![
                count.to_string(),
                if *slack == 0 {
                    "T = T_lb".into()
                } else {
                    format!("T = T_lb + {slack}")
                },
                format!("{:.0}", *nodes as f64 / *count as f64),
            ]
        })
        .collect();
    if unscheduled.0 > 0 {
        rows.push(vec![
            unscheduled.0.to_string(),
            "not scheduled in range".into(),
            format!("{:.0}", unscheduled.1 as f64 / unscheduled.0 as f64),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Number of Loops",
                "Initiation Interval",
                "Mean # Nodes in DDG"
            ],
            &rows,
        )
    );
}
