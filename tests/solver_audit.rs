//! Exact-arithmetic audit: the `f64` LP path agrees with the exact
//! rational simplex on structured LPs, and LP relaxations of real
//! scheduling formulations bound their MIP optima.

use swp::core::{formulation, formulation::FormulationOptions, MappingMode, Objective};
use swp::ddg::{Ddg, OpClass};
use swp::machine::Machine;
use swp::milp::exact::{solve_lp_exact, ExactLp, ExactOutcome};
use swp::milp::simplex::{solve_lp_with, LpProblem};
use swp::milp::{Budget, LpOutcome, Model, Sense};

#[test]
fn relaxation_bounds_the_scheduling_mip() {
    // Tiny loop on the hazard machine at its T_lb.
    let mut g = Ddg::new();
    let a = g.add_node("ld", OpClass::new(2), 3);
    let b = g.add_node("fmul", OpClass::new(1), 2);
    g.add_edge(a, b, 0).unwrap();
    g.add_edge(b, b, 1).unwrap();
    let machine = Machine::example_pldi95();

    let f = formulation::build(
        &g,
        &machine,
        2,
        FormulationOptions {
            mapping: MappingMode::UnifiedColoring,
            objective: Objective::MinStartTimes,
            ..FormulationOptions::standard()
        },
    )
    .expect("builds");

    let sol = f.model.solve().expect("feasible");
    // The claimed optimum must satisfy its own model.
    assert!(f.model.is_feasible_point(sol.values(), 1e-5));
    // And the LP relaxation must lower-bound it.
    let relaxed_sol = f.model.relax().solve().expect("relaxation feasible");
    assert!(
        relaxed_sol.objective() <= sol.objective() + 1e-6,
        "LP relaxation {} must lower-bound MIP {}",
        relaxed_sol.objective(),
        sol.objective()
    );
}

#[test]
fn relaxation_of_infeasible_period_detects_or_bounds() {
    // At period 1 the motivating example is rejected at build time
    // (self-loop needs T >= 2; the FP table cannot repeat at T = 1).
    let g = swp::loops::kernels::motivating_example();
    let machine = Machine::example_pldi95();
    assert!(formulation::build(&g, &machine, 1, FormulationOptions::standard()).is_err());
}

#[test]
fn f64_and_exact_paths_agree_on_assignment_lps() {
    // An assignment-polytope LP (naturally integral): both paths must
    // find the same optimum, and the exact one must be integral.
    let n = 4;
    let cost = |i: usize, j: usize| ((i * 3 + j * 7) % 5) as f64 + 1.0;
    let mut obj = Vec::new();
    let mut rows: Vec<(Vec<(usize, f64)>, Sense, f64)> = Vec::new();
    for i in 0..n {
        for j in 0..n {
            obj.push(cost(i, j));
        }
    }
    for i in 0..n {
        rows.push(((0..n).map(|j| (i * n + j, 1.0)).collect(), Sense::Eq, 1.0));
        rows.push(((0..n).map(|j| (j * n + i, 1.0)).collect(), Sense::Eq, 1.0));
    }
    let p = LpProblem {
        obj,
        rows,
        lo: vec![0.0; n * n],
        hi: vec![1.0; n * n],
    };
    let f = match solve_lp_with(&p, &Budget::unlimited()) {
        Ok(LpOutcome::Optimal(s)) => s,
        other => panic!("expected optimal, got {other:?}"),
    };
    let (e_obj, e_x) = match solve_lp_exact(&ExactLp::from_f64_problem(&p)) {
        ExactOutcome::Optimal { objective, x } => (objective, x),
        other => panic!("expected optimal, got {other:?}"),
    };
    assert!((f.objective - e_obj.to_f64()).abs() < 1e-8);
    for v in &e_x {
        assert!(v.is_integer(), "assignment LP must be integral, got {v}");
    }
}

#[test]
fn capacity_conflicts_are_infeasible() {
    // Two ops forced to the same slot with capacity one.
    let mut m = Model::new();
    let a0 = m.add_binary("a0");
    let b0 = m.add_binary("b0");
    m.add_constr([(a0, 1.0)], Sense::Eq, 1.0);
    m.add_constr([(b0, 1.0)], Sense::Eq, 1.0);
    m.add_constr([(a0, 1.0), (b0, 1.0)], Sense::Le, 1.0);
    assert!(matches!(m.solve(), Err(swp::milp::SolveError::Infeasible)));
}

#[test]
fn scheduling_lp_relaxations_match_exact_simplex() {
    // Build a real formulation, relax it, and solve the relaxation on
    // both numeric paths via the public row structures.
    let mut g = Ddg::new();
    let a = g.add_node("ld", OpClass::new(2), 3);
    let b = g.add_node("fadd", OpClass::new(1), 2);
    let c = g.add_node("st", OpClass::new(2), 3);
    g.add_edge(a, b, 0).unwrap();
    g.add_edge(b, c, 0).unwrap();
    let machine = Machine::example_clean();
    let f = formulation::build(
        &g,
        &machine,
        3,
        FormulationOptions {
            mapping: MappingMode::CapacityOnly,
            objective: Objective::MinStartTimes,
            ..FormulationOptions::standard()
        },
    )
    .expect("builds");
    let relaxed = f.model.relax();
    let mip = f.model.solve().expect("mip feasible");
    let lp = relaxed.solve().expect("lp feasible");
    assert!(lp.objective() <= mip.objective() + 1e-6);
    // For this chain the LP relaxation is already integral: equal optima.
    assert!(
        (lp.objective() - mip.objective()).abs() < 1e-6,
        "chain relaxation should be tight: lp {} vs mip {}",
        lp.objective(),
        mip.objective()
    );
}
