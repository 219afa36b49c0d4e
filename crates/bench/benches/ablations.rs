//! Ablations of the design choices DESIGN.md calls out: the heuristic
//! incumbent, and capacity-only vs. unified coloring formulations.

use criterion::{criterion_group, criterion_main, Criterion};
use swp_core::{MappingMode, RateOptimalScheduler, SchedulerConfig};
use swp_loops::kernels;
use swp_machine::Machine;

fn cfg(mapping: MappingMode, incumbent: bool) -> SchedulerConfig {
    SchedulerConfig {
        mapping,
        heuristic_incumbent: incumbent,
        time_limit_per_t: Some(std::time::Duration::from_secs(10)),
        ..Default::default()
    }
}

fn bench_ablations(c: &mut Criterion) {
    let machine = Machine::example_pldi95();
    let ddg = kernels::motivating_example();
    let mut group = c.benchmark_group("ablations_motivating_example");
    group.sample_size(10);

    let variants: [(&str, SchedulerConfig); 3] = [
        ("unified", cfg(MappingMode::UnifiedColoring, false)),
        ("unified+incumbent", cfg(MappingMode::UnifiedColoring, true)),
        ("capacity-only", cfg(MappingMode::CapacityOnly, false)),
    ];
    for (name, config) in variants {
        group.bench_function(name, |b| {
            let s = RateOptimalScheduler::new(machine.clone(), config.clone());
            b.iter(|| s.schedule(std::hint::black_box(&ddg)).expect("feasible"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
