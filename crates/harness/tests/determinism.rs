//! The harness's headline guarantee: a parallel run is bit-identical to
//! the sequential one.
//!
//! The runs here are configured for exact reproducibility — no
//! wall-clock deadlines (`time_limit_per_t: None`), a deterministic
//! per-loop tick cap, and timing recording off so `solve_us` is zero —
//! and then compared **serialized**: the JSONL line sequences of 1-, 4-,
//! and 8-worker runs over the same 64-loop corpus must match byte for
//! byte, and the Table-4 slack buckets derived from them must agree.
//! The staged portfolio engine is held to the same standard.

use std::collections::BTreeMap;
use std::time::Duration;
use swp_core::{Engine, SchedulerConfig};
use swp_harness::{Harness, HarnessConfig, LoopRecord, NullSink, SuiteOutcome};
use swp_loops::suite::{generate, GeneratedLoop, SuiteConfig};
use swp_machine::Machine;

fn corpus(n: usize) -> Vec<GeneratedLoop> {
    generate(&SuiteConfig {
        num_loops: n,
        ..SuiteConfig::pldi95_default()
    })
}

/// A deterministic solve configuration: no deadlines (the harness adds
/// a per-loop tick cap).
fn deterministic_solve() -> SchedulerConfig {
    SchedulerConfig {
        time_limit_per_t: None,
        max_t_above_lb: 8,
        ..SchedulerConfig::default()
    }
}

fn run_with_workers(loops: &[GeneratedLoop], workers: usize) -> Vec<LoopRecord> {
    run_solve(loops, workers, deterministic_solve())
}

fn run_solve(loops: &[GeneratedLoop], workers: usize, solve: SchedulerConfig) -> Vec<LoopRecord> {
    let harness = Harness::new(
        Machine::example_pldi95(),
        solve,
        HarnessConfig {
            workers,
            per_loop_ticks: Some(50_000),
            record_timing: false,
            ..HarnessConfig::default()
        },
    );
    let report = harness
        .run(loops, &mut NullSink)
        .expect("artifact-less run");
    assert!(!report.interrupted);
    report.records
}

/// Table-4 bucketing: slack above the counting `T_lb` → (count, nodes).
fn table4_buckets(records: &[LoopRecord]) -> BTreeMap<Option<u32>, (usize, usize)> {
    let mut buckets = BTreeMap::new();
    for r in records {
        let slack = match (&r.outcome, r.period) {
            (SuiteOutcome::Scheduled { .. }, Some(p)) => Some(p.saturating_sub(r.t_lb_counting)),
            _ => None,
        };
        let e = buckets.entry(slack).or_insert((0, 0));
        e.0 += 1;
        e.1 += r.num_nodes;
    }
    buckets
}

#[test]
fn worker_count_does_not_change_the_records() {
    let loops = corpus(64);
    // The default ILP sweep with the IMS probe, and the staged
    // portfolio with the probe off, so CP and the ILP settle every
    // period between them.
    let portfolio = SchedulerConfig {
        heuristic_incumbent: false,
        engine: Engine::Portfolio,
        ..deterministic_solve()
    };
    for solve in [deterministic_solve(), portfolio] {
        let engine = solve.engine;
        let sequential = run_solve(&loops, 1, solve.clone());
        assert_eq!(sequential.len(), 64);

        let seq_lines: Vec<String> = sequential.iter().map(LoopRecord::to_json_line).collect();
        let seq_buckets = table4_buckets(&sequential);
        // The corpus must exercise more than one bucket for the bucket
        // comparison to mean anything.
        assert!(seq_buckets.values().map(|(c, _)| c).sum::<usize>() == 64);

        for workers in [4usize, 8] {
            let parallel = run_solve(&loops, workers, solve.clone());
            let par_lines: Vec<String> = parallel.iter().map(LoopRecord::to_json_line).collect();
            assert_eq!(
                par_lines, seq_lines,
                "{engine:?}: {workers}-worker record sequence differs from sequential"
            );
            assert_eq!(
                table4_buckets(&parallel),
                seq_buckets,
                "{engine:?}: {workers}-worker Table-4 buckets differ from sequential"
            );
        }
    }
}

#[test]
fn repeated_runs_are_identical_too() {
    // Same-worker-count reproducibility — the baseline the cross-count
    // comparison implicitly relies on.
    let loops = corpus(24);
    let a = run_with_workers(&loops, 4);
    let b = run_with_workers(&loops, 4);
    let lines = |v: &[LoopRecord]| v.iter().map(LoopRecord::to_json_line).collect::<Vec<_>>();
    assert_eq!(lines(&a), lines(&b));
}

#[test]
fn per_loop_ticks_are_recorded_and_deterministic() {
    // Tick accounting is per-loop exact under isolated budgets: the
    // per-record tick counts must match across worker counts (this is
    // implied by the byte-identity test but pinned separately so a
    // regression points straight at budget isolation).
    let loops = corpus(16);
    let seq = run_with_workers(&loops, 1);
    let par = run_with_workers(&loops, 8);
    let ticks = |v: &[LoopRecord]| v.iter().map(|r| r.ticks).collect::<Vec<_>>();
    assert_eq!(ticks(&seq), ticks(&par));
    // And some loop actually did work.
    assert!(seq.iter().any(|r| r.ticks > 0));
}

#[test]
fn deterministic_runs_zero_their_solve_times() {
    let loops = corpus(4);
    let recs = run_with_workers(&loops, 2);
    assert!(recs.iter().all(|r| r.solve_time == Duration::ZERO));
}
