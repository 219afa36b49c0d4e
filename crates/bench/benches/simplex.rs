//! Solver-substrate micro-benchmarks: f64 simplex, branch-and-bound,
//! and the exact rational path on the same instance.

use criterion::{criterion_group, criterion_main, Criterion};
use swp_milp::exact::{solve_lp_exact, ExactLp};
use swp_milp::simplex::{solve_lp_with, LpProblem};
use swp_milp::{Budget, Model, Sense};

/// A dense random-ish LP with `n` columns and `n` rows (deterministic).
fn lp(n: usize) -> LpProblem {
    let coef = |i: usize, j: usize| (((i * 31 + j * 17) % 13) as f64) - 4.0;
    LpProblem {
        obj: (0..n).map(|j| ((j % 7) as f64) - 3.0).collect(),
        rows: (0..n)
            .map(|i| {
                let terms: Vec<(usize, f64)> = (0..n)
                    .map(|j| (j, coef(i, j)))
                    .filter(|&(_, c)| c != 0.0)
                    .collect();
                (terms, Sense::Le, 25.0 + (i % 5) as f64)
            })
            .collect(),
        lo: vec![0.0; n],
        hi: vec![10.0; n],
    }
}

fn bench_simplex(c: &mut Criterion) {
    for &n in &[10usize, 30, 60] {
        let p = lp(n);
        c.bench_function(&format!("simplex_f64_{n}x{n}"), |b| {
            b.iter(|| {
                solve_lp_with(std::hint::black_box(&p), &Budget::unlimited()).expect("lp solves")
            });
        });
    }
    let p = lp(10);
    let e = ExactLp::from_f64_problem(&p);
    c.bench_function("simplex_exact_10x10", |b| {
        b.iter(|| solve_lp_exact(std::hint::black_box(&e)));
    });
}

fn bench_bnb(c: &mut Criterion) {
    // 0-1 knapsack-ish model with 18 binaries.
    let mut m = Model::new();
    let xs: Vec<_> = (0..18).map(|i| m.add_binary(format!("x{i}"))).collect();
    m.maximize(
        xs.iter()
            .enumerate()
            .map(|(i, &x)| (x, ((i * 7) % 11 + 1) as f64))
            .collect::<Vec<_>>(),
    );
    m.add_constr(
        xs.iter()
            .enumerate()
            .map(|(i, &x)| (x, ((i * 5) % 9 + 1) as f64))
            .collect::<Vec<_>>(),
        Sense::Le,
        30.0,
    );
    c.bench_function("bnb_knapsack_18bin", |b| {
        b.iter(|| std::hint::black_box(&m).solve().expect("feasible"));
    });
}

criterion_group!(benches, bench_simplex, bench_bnb);
criterion_main!(benches);
