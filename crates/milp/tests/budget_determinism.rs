//! Tick budgets make solves a pure function of the model.
//!
//! The fuzzing and golden-snapshot layers above this crate rely on one
//! contract: a solve bounded only by *ticks* (never the wall clock)
//! produces bit-identical search statistics on every run, on every
//! machine, at any load. These tests pin that contract at the MILP
//! layer directly.

use swp_milp::{Budget, Model, Sense, SolveError, SolveLimits, VarKind};

/// A 0-1 knapsack-ish model hard enough to branch a few times.
fn model() -> Model {
    let mut m = Model::new();
    let xs: Vec<_> = (0..10).map(|i| m.add_binary(format!("x{i}"))).collect();
    let weights = [3.0, 5.0, 7.0, 2.0, 9.0, 4.0, 6.0, 8.0, 5.0, 3.0];
    let values = [-2.0, -4.0, -7.0, -1.0, -9.0, -3.0, -5.0, -8.0, -4.0, -2.0];
    m.minimize(
        xs.iter()
            .zip(values)
            .map(|(&x, v)| (x, v))
            .collect::<Vec<_>>(),
    );
    m.add_constr(
        xs.iter()
            .zip(weights)
            .map(|(&x, w)| (x, w))
            .collect::<Vec<_>>(),
        Sense::Le,
        20.0,
    );
    // A coupling row so the LP relaxation is fractional.
    m.add_constr(
        vec![(xs[0], 1.0), (xs[4], 1.0), (xs[7], 1.0)],
        Sense::Le,
        2.0,
    );
    m
}

fn limits(ticks: u64) -> swp_milp::SolveLimits {
    swp_milp::SolveLimits {
        budget: Budget::unlimited().limit_ticks(ticks),
        ..Default::default()
    }
}

#[test]
fn tick_limited_solves_are_bit_identical_across_runs() {
    let m = model();
    let a = m.solve_with(&limits(1_000_000)).expect("solvable");
    let b = m.solve_with(&limits(1_000_000)).expect("solvable");
    assert_eq!(a.objective(), b.objective());
    assert_eq!(a.stats().nodes, b.stats().nodes);
    assert_eq!(a.stats().lp_iterations, b.stats().lp_iterations);
    assert_eq!(a.stats().proven_optimal, b.stats().proven_optimal);
    assert!(
        a.stats().proven_optimal,
        "generous tick budget should prove optimality"
    );
}

#[test]
fn exhausted_tick_budget_fails_identically_across_runs() {
    let m = model();
    // Too few ticks to finish: the truncation point must also be
    // deterministic — same incumbent, same stats, same stop reason,
    // run after run (whether it surfaces as an unproven Ok or an Err).
    let a = m.solve_with(&limits(8));
    let b = m.solve_with(&limits(8));
    match (&a, &b) {
        (Ok(x), Ok(y)) => {
            assert!(
                !x.stats().proven_optimal,
                "8 ticks cannot prove optimality for this model"
            );
            assert_eq!(x.objective(), y.objective());
            assert_eq!(x.stats().nodes, y.stats().nodes);
            assert_eq!(x.stats().lp_iterations, y.stats().lp_iterations);
            assert_eq!(
                format!("{:?}", x.stats().stop_reason),
                format!("{:?}", y.stats().stop_reason),
            );
            assert!(
                format!("{:?}", x.stats().stop_reason).contains("Ticks"),
                "truncation must be attributed to the tick budget, got {:?}",
                x.stats().stop_reason
            );
        }
        (Err(SolveError::LimitReached(x)), Err(SolveError::LimitReached(y))) => {
            assert_eq!(x, y, "incumbent at truncation differs between runs");
        }
        other => panic!("expected identical truncation, got {other:?}"),
    }
}

#[test]
fn tick_budget_never_changes_the_answer_only_whether_there_is_one() {
    let m = model();
    let unlimited = m.solve_with(&limits(u64::MAX)).expect("solvable");
    for ticks in [50u64, 500, 5_000, 50_000] {
        match m.solve_with(&limits(ticks)) {
            Ok(sol) if sol.stats().proven_optimal => {
                assert_eq!(
                    sol.objective(),
                    unlimited.objective(),
                    "a proven solve under {ticks} ticks found a different optimum"
                );
            }
            Ok(sol) => {
                // Unproven incumbent: must never beat the true optimum.
                assert!(
                    sol.objective() >= unlimited.objective() - 1e-9,
                    "incumbent {} beats the optimum {}",
                    sol.objective(),
                    unlimited.objective()
                );
            }
            Err(SolveError::LimitReached(_)) => {}
            Err(e) => panic!("unexpected error under {ticks} ticks: {e:?}"),
        }
    }
}

/// A chain of `n` ops at period 3 in the shape of the scheduling models
/// (one-hot residues, linkage `t = 3·k + r`, dependences of latency 2),
/// with op 0's residue pinned. Its LPs reach integral residues with
/// fractional stage counts, where the fix-and-propagate completion fires.
fn chain(n: usize) -> Model {
    let mut m = Model::new();
    let mut prev: Option<(swp_milp::VarId, Vec<swp_milp::VarId>)> = None;
    let mut starts = Vec::new();
    for i in 0..n {
        let a: Vec<_> = (0..3)
            .map(|r| m.add_binary(format!("a[{r},{i}]")))
            .collect();
        if i == 0 {
            m.set_upper_bound(a[1], 0.0);
            m.set_upper_bound(a[2], 0.0);
        }
        let t = m.add_var(VarKind::Integer, 0.0, 60.0, format!("t[{i}]"));
        let k = m.add_var(VarKind::Integer, 0.0, 20.0, format!("k[{i}]"));
        m.add_constr(
            a.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Eq,
            1.0,
        );
        let mut link = vec![(t, 1.0), (k, -3.0)];
        link.extend(a.iter().enumerate().skip(1).map(|(r, &v)| (v, -(r as f64))));
        m.add_constr(link, Sense::Eq, 0.0);
        // Neighbours issue at distinct residues.
        if let Some((prev_t, prev_a)) = &prev {
            m.add_constr([(t, 1.0), (*prev_t, -1.0)], Sense::Ge, 2.0);
            for (&v, &u) in a.iter().zip(prev_a) {
                m.add_constr([(v, 1.0), (u, 1.0)], Sense::Le, 1.0);
            }
        }
        starts.push(t);
        prev = Some((t, a));
    }
    m.minimize(starts.iter().map(|&t| (t, 1.0)).collect::<Vec<_>>());
    m
}

/// Solves `m` under a fresh tick-capped budget; returns the result and
/// the ticks the search spent.
fn solve_counting(
    m: &Model,
    ticks: u64,
    first: bool,
) -> (Result<swp_milp::MipSolution, SolveError>, u64) {
    let budget = Budget::with_tick_limit(ticks);
    let limits = SolveLimits {
        budget: budget.clone(),
        stop_at_first_incumbent: first,
        ..SolveLimits::default()
    };
    let result = m.solve_with(&limits);
    (result, budget.ticks_used())
}

/// `x − y = 1/2` over integers in `0..=hi`: every LP is feasible, and
/// every propagation pass lifts both lower bounds by one until the
/// domain empties or the pass cap stops it.
fn creeping(hi: f64) -> Model {
    let mut m = Model::new();
    let x = m.add_var(VarKind::Integer, 0.0, hi, "x");
    let y = m.add_var(VarKind::Integer, 0.0, hi, "y");
    m.add_constr([(x, 2.0), (y, -2.0)], Sense::Eq, 1.0);
    m
}

#[test]
fn completion_ticks_are_identical_across_runs() {
    let m = chain(6);
    for first in [true, false] {
        let (a, ticks_a) = solve_counting(&m, 1_000_000, first);
        let (b, ticks_b) = solve_counting(&m, 1_000_000, first);
        let (a, b) = (a.expect("feasible"), b.expect("feasible"));
        assert_eq!(ticks_a, ticks_b);
        assert_eq!(a.values(), b.values());
        assert_eq!(a.stats().nodes, b.stats().nodes);
        assert_eq!(a.stats().lp_iterations, b.stats().lp_iterations);
        // The root LP's residues are integral: the completion ends the
        // probe there.
        if first {
            assert_eq!(a.stats().nodes, 1);
        }
    }
    // Propagation that creeps until its domains empty, at every node of
    // a refutation, is charged the same on every run.
    let m = creeping(30.0);
    let (a, ticks_a) = solve_counting(&m, u64::MAX, false);
    let (b, ticks_b) = solve_counting(&m, u64::MAX, false);
    assert!(matches!(a, Err(SolveError::Infeasible)));
    assert!(matches!(b, Err(SolveError::Infeasible)));
    assert_eq!(ticks_a, ticks_b);
}

#[test]
fn tiny_tick_caps_bound_the_completion() {
    let m = chain(6);
    let (full, full_ticks) = solve_counting(&m, u64::MAX, true);
    let full = full.expect("feasible");
    for cap in 0..full_ticks {
        let (result, spent) = solve_counting(&m, cap, true);
        // A tick is counted before it is refused, so a capped search
        // spends at most one tick past its cap, propagation included.
        assert!(spent <= cap + 1, "cap {cap}: spent {spent}");
        assert_eq!(
            result.map(|s| s.values().to_vec()),
            Err(SolveError::LimitReached(None)),
            "cap {cap} below the {full_ticks} ticks the search needs"
        );
    }
    let (at_cap, _) = solve_counting(&m, full_ticks, true);
    assert_eq!(at_cap.expect("feasible").values(), full.values());
}

#[test]
fn propagation_that_never_settles_stops_at_its_cap() {
    // Across a domain of a million, only the pass cap and the tick cap
    // stop the creep.
    let m = creeping(1e6);
    for cap in [0u64, 1, 2, 5, 50, 500] {
        let (result, spent) = solve_counting(&m, cap, true);
        assert!(matches!(result, Err(SolveError::LimitReached(None))));
        assert!(spent <= cap + 1, "cap {cap}: spent {spent}");
    }
}
