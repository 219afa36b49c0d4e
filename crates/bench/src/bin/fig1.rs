//! Figure 1 — the motivating example's DDG, its critical cycle, and the
//! period lower bounds.
//!
//! Run: `cargo run -p swp-bench --release --bin fig1`

use swp_bench::render_table;
use swp_harness::Cli;
use swp_loops::kernels;
use swp_machine::Machine;

const CLI: Cli = Cli {
    name: "fig1",
    usage: "\
usage: fig1

Prints Figure 1: the motivating example's DDG, its critical cycle
and the period lower bounds.
It takes no arguments.

  -h, --help    print this help
",
};

fn main() {
    CLI.parse_env();
    let ddg = kernels::motivating_example();
    let machine = Machine::example_pldi95();
    println!("== Figure 1: motivating-example DDG ==\n");
    let rows: Vec<Vec<String>> = ddg
        .nodes()
        .map(|(id, n)| {
            let fu = machine.fu_type(n.class).expect("known class");
            vec![
                format!("i{}", id.index()),
                n.name.clone(),
                fu.name.clone(),
                n.latency.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["node", "operation", "unit class", "latency"], &rows)
    );
    println!("dependences (src -> dst, distance):");
    for e in ddg.edges() {
        println!(
            "  i{} -> i{}  (distance {})",
            e.src.index(),
            e.dst.index(),
            e.distance
        );
    }
    let t_dep = ddg.t_dep().expect("finite");
    let t_res = machine.t_res(&ddg).expect("classes known");
    println!("\nT_dep = {t_dep}");
    if let Some(c) = ddg.critical_cycle() {
        println!(
            "critical cycle: {:?} (Σd = {}, Σm = {}, bound = {})",
            c.nodes
                .iter()
                .map(|n| format!("i{}", n.index()))
                .collect::<Vec<_>>(),
            c.total_latency,
            c.total_distance,
            c.bound(),
        );
    }
    println!("T_res = {t_res}");
    println!("T_lb  = {}", t_dep.max(t_res));
    println!("\nGraphviz DOT:\n{}", ddg.to_dot());
}
