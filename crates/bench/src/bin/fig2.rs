//! Figure 2 — reservation tables, their extension mod `T`, and the
//! per-stage resource-usage view of Schedule B: the paper's (a) `T = 4`
//! and (b) `T = 2` modulo tables for the hazard FP pipeline, plus the
//! schedule's pattern.
//!
//! Run: `cargo run -p swp-bench --release --bin fig2`

use swp_bench::kernel_gantt;
use swp_core::{RateOptimalScheduler, SchedulerConfig};
use swp_ddg::OpClass;
use swp_harness::Cli;
use swp_loops::kernels;
use swp_machine::Machine;

fn modulo_table(machine: &Machine, class: OpClass, period: u32) -> String {
    let rt = &machine.fu_type(class).expect("known").reservation;
    let mut out = format!("(T = {period})  time steps 0..{}\n", period - 1);
    for s in 0..rt.stages() {
        out.push_str(&format!("  Stage {}: ", s + 1));
        for t in 0..period {
            out.push_str(if rt.modulo_mark(s, t, period) {
                "1 "
            } else {
                "0 "
            });
        }
        out.push('\n');
    }
    out
}

const CLI: Cli = Cli {
    name: "fig2",
    usage: "\
usage: fig2

Prints Figure 2: the hazard pipeline's reservation tables mod T and
Schedule B's resource usage.
It takes no arguments.

  -h, --help    print this help
",
};

fn main() {
    CLI.parse_env();
    let machine = Machine::example_pldi95();
    let fp = OpClass::new(1);
    println!("== Figure 2: reservation tables and resource usage ==\n");
    println!(
        "FP reservation table (3 stages, stage 3 reused — the structural hazard):\n{}",
        machine.fu_type(fp).expect("fp").reservation
    );
    println!("Modulo (extended) reservation tables of the FP unit [8]:");
    println!("(a) {}", modulo_table(&machine, fp, 4));
    println!("(b) {}", modulo_table(&machine, fp, 2));
    println!(
        "At T = 2, stage 3 is claimed at both residues — the modulo scheduling\n\
         constraint [5, 11, 19] caps how densely one unit can be reused.\n"
    );

    let ddg = kernels::motivating_example();
    let r = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
        .schedule(&ddg)
        .expect("schedulable");
    println!(
        "Schedule found at T = {} — issue pattern per physical unit:",
        r.schedule.initiation_interval()
    );
    println!("{}", kernel_gantt(&r.schedule, &ddg, &machine));

    // Per-stage usage of each FP unit over the pattern.
    let t = r.schedule.initiation_interval();
    let rt = &machine.fu_type(fp).expect("fp").reservation;
    for fu in 0..machine.fu_type(fp).expect("fp").count {
        println!("FP[{fu}] stage usage over the pattern (rows: stages):");
        for s in 0..rt.stages() {
            print!("  Stage {}: ", s + 1);
            for step in 0..t {
                let used = ddg.nodes().any(|(id, n)| {
                    n.class == fp
                        && r.schedule.fu(id) == Some(fu)
                        && rt
                            .stage_offsets(s)
                            .iter()
                            .any(|&l| (r.schedule.offset(id) + l as u32) % t == step)
                });
                print!("{}", if used { "X " } else { ". " });
            }
            println!();
        }
    }
}
