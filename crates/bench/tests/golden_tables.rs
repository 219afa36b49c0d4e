//! Golden snapshots for the Table 4 / Table 5 pipelines.
//!
//! Each test runs a prefix of the fixed-seed synthetic corpus (the
//! generator consumes one sequential RNG, so a 16-loop run is exactly
//! the head of the full 1066-loop corpus) under a fully deterministic
//! run configuration — tick budgets only, no wall clock — and compares
//! `(T_lb, T, solving engine, optimality)` per loop against a pinned
//! table. Any drift in the scheduler, the bounds, the corpus generator,
//! or the engine-selection logic fails tier-1 loudly instead of
//! silently shifting the paper tables.
//!
//! To regenerate after an *intentional* change: run with
//! `GOLDEN_PRINT=1 cargo test -p swp-bench --test golden_tables -- --nocapture`
//! and paste the printed block over the stale constant.

use swp_bench::run_suite;
use swp_core::SchedulerConfig;
use swp_harness::{LoopRecord, SuiteOutcome};
use swp_loops::suite::SuiteConfig;
use swp_machine::Machine;

/// Per-loop tick cap: small enough that a budget-bound loop stays cheap
/// in debug builds, big enough that most prefix loops solve to proven
/// optimality; budget-exhausted outcomes are pinned like any other
/// (ticks are deterministic, wall clock is not consulted).
const TICKS: Option<u64> = Some(60_000);

fn deterministic(heuristic_incumbent: bool) -> SchedulerConfig {
    SchedulerConfig {
        time_limit_per_t: None,
        max_t_above_lb: 8,
        heuristic_incumbent,
        ..SchedulerConfig::default()
    }
}

/// The first `num_loops` loops of `corpus`.
fn prefix(num_loops: usize, corpus: SuiteConfig) -> SuiteConfig {
    SuiteConfig {
        num_loops,
        ..corpus
    }
}

fn render(records: &[LoopRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let (outcome, by) = match &r.outcome {
            SuiteOutcome::Scheduled { solved_by, .. } => ("scheduled", format!("{solved_by:?}")),
            other => ("other", format!("{other:?}")),
        };
        out.push_str(&format!(
            "{} nodes={} t_lb={} period={} {} by={} proven={}\n",
            r.name,
            r.num_nodes,
            r.t_lb,
            r.period.map_or_else(|| "-".to_string(), |p| p.to_string()),
            outcome,
            by,
            r.proven,
        ));
    }
    out
}

fn check(label: &str, golden: &str, records: &[LoopRecord]) {
    let actual = render(records);
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("=== {label} ===\n{actual}=== end {label} ===");
        return;
    }
    assert_eq!(
        actual.trim(),
        golden.trim(),
        "{label}: corpus outcomes drifted from the pinned snapshot \
         (regenerate with GOLDEN_PRINT=1 if the change is intentional)"
    );
}

/// Table 4 pipeline: PLDI'95 example machine, default engine stack
/// (heuristic incumbent on).
const GOLDEN_TABLE4: &str = "\
loop0000 nodes=8 t_lb=4 period=4 scheduled by=Heuristic proven=true
loop0001 nodes=5 t_lb=3 period=3 scheduled by=Heuristic proven=true
loop0002 nodes=4 t_lb=2 period=2 scheduled by=Heuristic proven=true
loop0003 nodes=9 t_lb=4 period=4 scheduled by=Heuristic proven=true
loop0004 nodes=5 t_lb=2 period=2 scheduled by=Heuristic proven=true
loop0005 nodes=17 t_lb=8 period=8 scheduled by=Heuristic proven=true
loop0006 nodes=6 t_lb=4 period=4 scheduled by=Heuristic proven=true
loop0007 nodes=7 t_lb=4 period=4 scheduled by=Heuristic proven=true
loop0008 nodes=6 t_lb=3 period=3 scheduled by=Heuristic proven=true
loop0009 nodes=15 t_lb=7 period=7 scheduled by=Heuristic proven=true
loop0010 nodes=4 t_lb=3 period=3 scheduled by=Heuristic proven=true
loop0011 nodes=18 t_lb=7 period=7 scheduled by=Heuristic proven=true
loop0012 nodes=4 t_lb=3 period=3 scheduled by=Heuristic proven=true
loop0013 nodes=9 t_lb=5 period=5 scheduled by=Heuristic proven=true
loop0014 nodes=7 t_lb=4 period=4 scheduled by=Heuristic proven=true
loop0015 nodes=4 t_lb=2 period=2 scheduled by=Heuristic proven=true
";

#[test]
fn table4_corpus_prefix_is_pinned() {
    let records = run_suite(
        &Machine::example_pldi95(),
        &prefix(16, SuiteConfig::pldi95_default()),
        &deterministic(true),
        TICKS,
    );
    check("table4", GOLDEN_TABLE4, &records);
}

/// Table 5 pipeline: same corpus, ILP-only engine stack (heuristic
/// incumbent off), as the table-5 comparison runs it.
const GOLDEN_TABLE5: &str = "\
loop0000 nodes=8 t_lb=4 period=4 scheduled by=Ilp proven=true
loop0001 nodes=5 t_lb=3 period=3 scheduled by=Ilp proven=true
loop0002 nodes=4 t_lb=2 period=2 scheduled by=Ilp proven=true
loop0003 nodes=9 t_lb=4 period=4 scheduled by=Ilp proven=true
loop0004 nodes=5 t_lb=2 period=2 scheduled by=Ilp proven=true
loop0005 nodes=17 t_lb=8 period=8 scheduled by=Heuristic proven=true
loop0006 nodes=6 t_lb=4 period=4 scheduled by=Ilp proven=true
loop0007 nodes=7 t_lb=4 period=4 scheduled by=Ilp proven=true
loop0008 nodes=6 t_lb=3 period=3 scheduled by=Ilp proven=true
loop0009 nodes=15 t_lb=7 period=7 scheduled by=Ilp proven=true
loop0010 nodes=4 t_lb=3 period=3 scheduled by=Ilp proven=true
loop0011 nodes=18 t_lb=7 period=7 scheduled by=Heuristic proven=true
loop0012 nodes=4 t_lb=3 period=3 scheduled by=Ilp proven=true
loop0013 nodes=9 t_lb=5 period=5 scheduled by=Ilp proven=true
loop0014 nodes=7 t_lb=4 period=4 scheduled by=Ilp proven=true
loop0015 nodes=4 t_lb=2 period=2 scheduled by=Ilp proven=true
";

#[test]
fn table5_corpus_prefix_is_pinned() {
    let records = run_suite(
        &Machine::example_pldi95(),
        &prefix(16, SuiteConfig::pldi95_default()),
        &deterministic(false),
        TICKS,
    );
    check("table5", GOLDEN_TABLE5, &records);
}

/// The PPC604 flavour of the corpus on the PPC604 machine model.
const GOLDEN_PPC604: &str = "\
loop0000 nodes=8 t_lb=6 period=6 scheduled by=Heuristic proven=true
loop0001 nodes=5 t_lb=4 period=4 scheduled by=Heuristic proven=true
loop0002 nodes=4 t_lb=4 period=4 scheduled by=Heuristic proven=true
loop0003 nodes=9 t_lb=8 period=8 scheduled by=Ilp proven=true
loop0004 nodes=5 t_lb=4 period=4 scheduled by=Heuristic proven=true
loop0005 nodes=17 t_lb=16 period=16 scheduled by=Heuristic proven=true
loop0006 nodes=6 t_lb=18 period=18 scheduled by=Heuristic proven=true
loop0007 nodes=14 t_lb=14 period=14 scheduled by=Heuristic proven=true
";

#[test]
fn ppc604_corpus_prefix_is_pinned() {
    let records = run_suite(
        &Machine::ppc604(),
        &prefix(8, SuiteConfig::ppc604()),
        &deterministic(true),
        TICKS,
    );
    check("ppc604", GOLDEN_PPC604, &records);
}

#[test]
fn table4_and_table5_agree_on_proven_periods() {
    // Cross-pipeline consistency: wherever both configurations prove
    // optimality they must prove the same period — the incumbent only
    // changes *how* the optimum is found.
    let a = run_suite(
        &Machine::example_pldi95(),
        &prefix(12, SuiteConfig::pldi95_default()),
        &deterministic(true),
        TICKS,
    );
    let b = run_suite(
        &Machine::example_pldi95(),
        &prefix(12, SuiteConfig::pldi95_default()),
        &deterministic(false),
        TICKS,
    );
    for (x, y) in a.iter().zip(&b) {
        if x.proven && y.proven {
            assert_eq!(
                x.period, y.period,
                "{}: proven periods disagree between table-4 and table-5 configs",
                x.name
            );
        }
    }
}
