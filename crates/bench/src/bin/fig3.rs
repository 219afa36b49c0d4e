//! Figure 3 — the `T`, `K`, `A` matrices of Schedule B (paper eq. (1)):
//! both the paper's literal schedule `t = [0,1,3,5,7,11]` and the one
//! our unified ILP finds.
//!
//! Run: `cargo run -p swp-bench --release --bin fig3`

use swp_core::{RateOptimalScheduler, SchedulerConfig};
use swp_harness::Cli;
use swp_loops::kernels;
use swp_machine::{Machine, PipelinedSchedule};

const CLI: Cli = Cli {
    name: "fig3",
    usage: "\
usage: fig3

Prints Figure 3: the T, K and A matrices of Schedule B.
It takes no arguments.

  -h, --help    print this help
",
};

fn main() {
    CLI.parse_env();
    println!("== Figure 3: T/K/A matrices ==\n");
    let ddg = kernels::motivating_example();
    let machine = Machine::example_pldi95();

    println!("The paper's Schedule B (t = [0,1,3,5,7,11], T = 4):\n");
    let paper = PipelinedSchedule::new(4, vec![0, 1, 3, 5, 7, 11], vec![None; 6]);
    assert!(paper.validate(&ddg, &machine).is_ok());
    println!("{}", paper.matrices());

    let r = RateOptimalScheduler::new(machine, SchedulerConfig::default())
        .schedule(&ddg)
        .expect("schedulable");
    println!(
        "The schedule our unified ILP finds (T = {}):\n",
        r.schedule.initiation_interval()
    );
    println!("{}", r.schedule.matrices());
    println!(
        "Both factor as T_vec = T·K + Aᵀ·[0..T)ᵀ with Σ_t a_t,i = 1 per column\n\
         (paper eqs. (1)/(7)/(9)); the A matrix is the modulo reservation view\n\
         the resource constraints are written over."
    );
}
