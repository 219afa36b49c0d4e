//! Harness throughput: loops/sec over a 128-loop corpus at 1 vs. N
//! workers.
//!
//! The solves are tick-capped (no wall-clock deadlines) so each
//! iteration does the same amount of work regardless of machine speed;
//! the measured difference between worker counts is then the sharding
//! overhead and the realized parallelism of the pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use swp_core::SchedulerConfig;
use swp_harness::{Harness, HarnessConfig, NullSink};
use swp_loops::suite::{generate, SuiteConfig};
use swp_machine::Machine;

fn bench_workers(c: &mut Criterion) {
    let corpus = generate(&SuiteConfig {
        num_loops: 128,
        ..SuiteConfig::pldi95_default()
    });
    let solve = SchedulerConfig {
        time_limit_per_t: None,
        max_t_above_lb: 8,
        ..SchedulerConfig::default()
    };
    let mut group = c.benchmark_group("harness_corpus_128");
    group.sample_size(10);
    let n = std::thread::available_parallelism()
        .map_or(4, usize::from)
        .max(2);
    for &workers in &[1usize, n] {
        let harness = Harness::new(
            Machine::example_pldi95(),
            solve.clone(),
            HarnessConfig {
                workers,
                per_loop_ticks: Some(20_000),
                ..HarnessConfig::default()
            },
        );
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &corpus,
            |b, corpus| {
                b.iter(|| {
                    let report = harness
                        .run(std::hint::black_box(corpus), &mut NullSink)
                        .expect("artifact-less run");
                    assert_eq!(report.records.len(), corpus.len());
                    report.summary.loops_per_sec()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_workers);
criterion_main!(benches);
