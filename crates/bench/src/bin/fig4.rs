//! Figure 4 — the circular-arc view of the mapping problem: each FP
//! operation's stage usage is a set of arcs mod `T`; overlapping arcs
//! must go to different physical units; the mapping is an arc coloring.
//!
//! Run: `cargo run -p swp-bench --release --bin fig4`

use swp_core::coloring::OverlapGraph;
use swp_core::{RateOptimalScheduler, SchedulerConfig};
use swp_ddg::OpClass;
use swp_harness::Cli;
use swp_loops::kernels;
use swp_machine::Machine;

const CLI: Cli = Cli {
    name: "fig4",
    usage: "\
usage: fig4

Prints Figure 4: the FP operations' circular arcs and their coloring.
It takes no arguments.

  -h, --help    print this help
",
};

fn main() {
    CLI.parse_env();
    println!("== Figure 4: circular arcs and the coloring ==\n");
    let ddg = kernels::motivating_example();
    let machine = Machine::example_pldi95();
    let r = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
        .schedule(&ddg)
        .expect("schedulable");
    let t = r.schedule.initiation_interval();
    let fp = OpClass::new(1);
    let rt = &machine.fu_type(fp).expect("fp").reservation;

    println!("T = {t}. FP operations and their circular arcs (stage: residues):");
    for (id, n) in ddg.nodes() {
        if n.class != fp {
            continue;
        }
        print!("  i{} (offset {}):", id.index(), r.schedule.offset(id));
        for s in 0..rt.stages() {
            let res: Vec<u32> = rt
                .stage_offsets(s)
                .iter()
                .map(|&l| (r.schedule.offset(id) + l as u32) % t)
                .collect();
            print!("  stage{}@{res:?}", s + 1);
        }
        println!();
    }

    let ops = r.schedule.placed_ops(&ddg);
    let graph = OverlapGraph::build(&machine, t, &ops);
    println!("\nOverlap edges (same class, shared stage/residue cell):");
    for i in 0..graph.num_ops() {
        for &j in graph.neighbors(i) {
            if j > i {
                println!("  i{i} -- i{j}");
            }
        }
    }
    match graph.color() {
        Some(colors) => {
            println!("\nExact circular-arc coloring (unit per op):");
            for (id, n) in ddg.nodes() {
                if n.class == fp {
                    println!("  i{} -> FP[{}]", id.index(), colors[id.index()]);
                }
            }
            println!(
                "\nThe ILP reached the same conclusion internally via eqs. (12)-(14):\n\
                 assignment = {:?}",
                r.schedule.assignment()
            );
        }
        None => println!("no coloring exists (should not happen for an ILP schedule)"),
    }
    if let Some(demand) = graph.min_units() {
        println!("\nminimum units per class for this placement: {demand:?}");
    }
}
