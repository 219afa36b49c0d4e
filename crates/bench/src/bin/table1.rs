//! Table 1 — the motivating gap: a rate-optimal schedule found under
//! run-time unit choice (capacity-only ILP, the pre-paper state of the
//! art [6, 9]) that admits **no** fixed function-unit assignment.
//!
//! Run: `cargo run -p swp-bench --release --bin table1`

use swp_bench::flat_gantt;
use swp_core::coloring::OverlapGraph;
use swp_core::{MappingMode, RateOptimalScheduler, SchedulerConfig};
use swp_ddg::OpClass;
use swp_harness::Cli;
use swp_loops::kernels;
use swp_machine::{check_capacity_only, Machine};

const CLI: Cli = Cli {
    name: "table1",
    usage: "\
usage: table1

Prints Table 1: a capacity-only schedule of the motivating example
that admits no fixed function-unit assignment.
It takes no arguments.

  -h, --help    print this help
",
};

fn main() {
    CLI.parse_env();
    let ddg = kernels::motivating_example();
    let machine = Machine::example_pldi95();
    println!("== Table 1: Schedule A — run-time unit choice vs. fixed assignment ==\n");
    println!(
        "Loop: the paper's Figure 1 example ({} ops).  T_dep = {}, T_res = {}.",
        ddg.num_nodes(),
        ddg.t_dep().expect("finite"),
        machine.t_res(&ddg).expect("classes known"),
    );

    let cfg = SchedulerConfig {
        mapping: MappingMode::CapacityOnly,
        ..Default::default()
    };
    let r = RateOptimalScheduler::new(machine.clone(), cfg)
        .schedule(&ddg)
        .expect("capacity-only ILP schedules");
    let t = r.schedule.initiation_interval();
    println!("\nCapacity-only ILP (eq. (5) resources, units chosen at run time): T = {t}");
    println!("start times t_i = {:?}", r.schedule.start_times());
    println!("\nFlat schedule, 3 iterations (Schedule-A style):");
    println!("{}", flat_gantt(&r.schedule, 3));

    let ops = r.schedule.placed_ops(&ddg);
    println!(
        "Per-class capacity check (run-time choice): {:?}",
        check_capacity_only(&machine, t, &ops).map(|_| "OK")
    );

    let graph = OverlapGraph::build(&machine, t, &ops);
    match graph.color() {
        Some(colors) => println!("Exact circular-arc coloring unexpectedly succeeded: {colors:?}"),
        None => {
            println!("\nExact circular-arc coloring: NO fixed assignment exists at T = {t}.");
            if let Some(demand) = graph.min_units() {
                let fp = demand.get(&OpClass::new(1)).copied().unwrap_or(0);
                println!(
                    "This placement needs {fp} FP units; the machine has {}.",
                    machine.fu_type(OpClass::new(1)).expect("fp").count
                );
            } else {
                println!("(an operation even collides with its own next instance)");
            }
        }
    }
    println!(
        "\n=> The paper's point: resource feasibility under run-time unit choice does not\n\
         imply a valid mapping. Table 2 shows the unified formulation closing the gap."
    );
}
