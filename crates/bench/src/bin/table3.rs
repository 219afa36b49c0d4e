//! Table 3 — the machine configurations used in the evaluation: the
//! motivating-example machine and the PowerPC-604-flavoured model \[14\],
//! with each unit's reservation table, forbidden latencies, and MAL.
//!
//! Run: `cargo run -p swp-bench --release --bin table3`

use swp_bench::render_table;
use swp_harness::Cli;
use swp_machine::{CollisionInfo, Machine};

fn describe(name: &str, machine: &Machine) {
    println!("== {name} ==\n");
    let rows: Vec<Vec<String>> = machine
        .types()
        .iter()
        .map(|t| {
            let info = CollisionInfo::analyze(&t.reservation);
            vec![
                t.name.clone(),
                t.count.to_string(),
                t.latency.to_string(),
                t.reservation.exec_time().to_string(),
                t.reservation.stages().to_string(),
                if t.reservation.is_clean() {
                    "clean".into()
                } else {
                    format!("{:?}", info.forbidden_latencies())
                },
                info.mal().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "unit",
                "count",
                "latency",
                "exec",
                "stages",
                "forbidden",
                "MAL"
            ],
            &rows,
        )
    );
    for t in machine.types() {
        if !t.reservation.is_clean() {
            println!("{} reservation table:\n{}", t.name, t.reservation);
        }
    }
}

const CLI: Cli = Cli {
    name: "table3",
    usage: "\
usage: table3

Prints Table 3: the machine configurations, with each unit's
reservation table, forbidden latencies and MAL.
It takes no arguments.

  -h, --help    print this help
",
};

fn main() {
    CLI.parse_env();
    println!("== Table 3: machine configurations ==\n");
    describe(
        "Motivating-example machine (PLDI '95 §2, reconstructed)",
        &Machine::example_pldi95(),
    );
    describe(
        "Same machine, clean pipelines (MICRO '94 baseline world)",
        &Machine::example_clean(),
    );
    describe(
        "Same machine, non-pipelined FP and Ld/St (paper Problem 1)",
        &Machine::example_non_pipelined(),
    );
    describe("PowerPC-604-flavoured model [14]", &Machine::ppc604());
}
