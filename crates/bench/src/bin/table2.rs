//! Table 2 — Schedule B: the unified scheduling + mapping ILP finds a
//! `T = 4` schedule of the motivating example *with* a valid fixed
//! function-unit assignment (the paper's `t = [0,1,3,5,7,11]` class of
//! solutions).
//!
//! Run: `cargo run -p swp-bench --release --bin table2`

use swp_bench::{flat_gantt, kernel_gantt};
use swp_core::{MappingMode, RateOptimalScheduler, SchedulerConfig};
use swp_harness::Cli;
use swp_loops::kernels;
use swp_machine::{Machine, PipelinedSchedule};

const CLI: Cli = Cli {
    name: "table2",
    usage: "\
usage: table2

Prints Table 2: the unified ILP's schedule of the motivating example,
with its fixed function-unit assignment.
It takes no arguments.

  -h, --help    print this help
",
};

fn main() {
    CLI.parse_env();
    let ddg = kernels::motivating_example();
    let machine = Machine::example_pldi95();
    println!("== Table 2: Schedule B — unified scheduling and mapping ==\n");

    let cfg = SchedulerConfig {
        mapping: MappingMode::UnifiedColoring,
        heuristic_incumbent: false, // show the pure ILP result
        ..Default::default()
    };
    let r = RateOptimalScheduler::new(machine.clone(), cfg)
        .schedule(&ddg)
        .expect("unified ILP schedules");
    let t = r.schedule.initiation_interval();
    println!(
        "Unified ILP: first feasible period T = {t} (T_lb = {}).",
        r.t_lb()
    );
    for a in &r.attempts {
        println!(
            "  T = {}: {:?} ({} B&B nodes, {:?})",
            a.period, a.outcome, a.nodes, a.elapsed
        );
    }
    println!("\nstart times t_i = {:?}", r.schedule.start_times());
    println!(
        "unit assignment = {:?}",
        r.schedule
            .assignment()
            .iter()
            .map(|a| a.expect("mapped"))
            .collect::<Vec<_>>()
    );
    assert!(r.schedule.validate(&ddg, &machine).is_ok());

    println!("\nRepetitive pattern (one period, issue slots per physical unit):");
    println!("{}", kernel_gantt(&r.schedule, &ddg, &machine));
    println!("Flat schedule, 3 iterations (Table-2 shape: prolog, pattern, epilog):");
    println!("{}", flat_gantt(&r.schedule, 3));

    // The paper's own Schedule B for reference.
    println!("The paper's Schedule B (t = [0,1,3,5,7,11]) validated here too:");
    let paper = PipelinedSchedule::new(4, vec![0, 1, 3, 5, 7, 11], vec![None; 6]);
    println!(
        "  dependences + capacity: {:?}",
        paper.validate(&ddg, &machine).map(|_| "OK")
    );
    let ops = paper.placed_ops(&ddg);
    let graph = swp_core::coloring::OverlapGraph::build(&machine, 4, &ops);
    println!(
        "  fixed assignment via circular-arc coloring: {:?}",
        graph.color().map(|c| format!("units {c:?}"))
    );
}
