//! Layout-equivalence property tests for the `f64` simplex pivot: the
//! sparse-row elimination must be decision-identical to the dense sweep
//! — same verdicts, same pivot sequences (iteration counts), same
//! solutions under `==` (which treats `-0.0` and `0.0` alike, the only
//! value difference the skipped `x -= f * 0.0` updates can introduce) —
//! on random LPs, and branch-and-bound must inherit that identity node
//! for node.
//!
//! Replay a failing stream with `SWP_PROPTEST_SEED=<seed>`.

use proptest::prelude::*;
use swp_milp::simplex::{solve_lp_with_layout, LpProblem};
use swp_milp::{Budget, Model, PivotLayout, Sense, SolveLimits};

fn small_int() -> impl Strategy<Value = i64> {
    -9i64..=9
}

/// Outcome equality under `==` on every f64 (so `-0.0 == 0.0`, the one
/// representational slack the sparse pivot is allowed).
fn outcomes_eq(
    a: &Result<swp_milp::LpOutcome, swp_milp::SolveError>,
    b: &Result<swp_milp::LpOutcome, swp_milp::SolveError>,
) -> Result<(), String> {
    use swp_milp::LpOutcome::*;
    match (a, b) {
        (Ok(Optimal(s)), Ok(Optimal(t))) => {
            if s.iterations != t.iterations {
                return Err(format!(
                    "pivot sequences diverged: {} vs {} iterations",
                    s.iterations, t.iterations
                ));
            }
            if s.objective != t.objective {
                return Err(format!("objective {} vs {}", s.objective, t.objective));
            }
            if s.x.len() != t.x.len() {
                return Err(format!("dim {} vs {}", s.x.len(), t.x.len()));
            }
            for (i, (&u, &v)) in s.x.iter().zip(&t.x).enumerate() {
                if u != v {
                    return Err(format!("x[{i}]: {u} vs {v}"));
                }
            }
            Ok(())
        }
        (Ok(Infeasible), Ok(Infeasible)) | (Ok(Unbounded), Ok(Unbounded)) => Ok(()),
        (Err(a), Err(b)) if a == b => Ok(()),
        (a, b) => Err(format!("results diverge: {a:?} vs {b:?}")),
    }
}

fn arb_lp() -> impl Strategy<Value = LpProblem> {
    (
        prop::collection::vec(small_int(), 3..=5),
        prop::collection::vec(
            (prop::collection::vec(small_int(), 5), 0usize..3, -9i64..=9),
            1..6,
        ),
    )
        .prop_map(|(obj, rows)| {
            let n = obj.len();
            LpProblem {
                obj: obj.iter().map(|&c| c as f64).collect(),
                rows: rows
                    .iter()
                    .map(|(coeffs, s, b)| {
                        let terms: Vec<(usize, f64)> = coeffs
                            .iter()
                            .take(n)
                            .enumerate()
                            .filter(|(_, &c)| c != 0)
                            .map(|(j, &c)| (j, c as f64))
                            .collect();
                        (terms, [Sense::Le, Sense::Ge, Sense::Eq][*s], *b as f64)
                    })
                    .collect(),
                lo: vec![0.0; n],
                hi: vec![10.0; n], // bounded -> never unbounded
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dense and sparse-row pivoting return the same outcome: identical
    /// verdict, iteration count, objective, and point (elementwise `==`).
    #[test]
    fn lp_pivot_layouts_agree(p in arb_lp()) {
        let dense = solve_lp_with_layout(&p, &Budget::unlimited(), PivotLayout::Dense);
        let sparse = solve_lp_with_layout(&p, &Budget::unlimited(), PivotLayout::SparseRow);
        if let Err(msg) = outcomes_eq(&dense, &sparse) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// Tick spending is layout-independent: under any tick cap, both
    /// layouts run out (or don't) at exactly the same point.
    #[test]
    fn lp_tick_spending_is_layout_invariant(p in arb_lp(), ticks in 0u64..12) {
        let dense = solve_lp_with_layout(
            &p, &Budget::with_tick_limit(ticks), PivotLayout::Dense);
        let sparse = solve_lp_with_layout(
            &p, &Budget::with_tick_limit(ticks), PivotLayout::SparseRow);
        if let Err(msg) = outcomes_eq(&dense, &sparse) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// Branch-and-bound inherits the identity: same incumbent, same node
    /// count, same total simplex iterations, same proof.
    #[test]
    fn bnb_pivot_layouts_agree(
        obj in prop::collection::vec(small_int(), 4),
        rows in prop::collection::vec(
            (prop::collection::vec(small_int(), 4), 0usize..2, -6i64..=12),
            1..4,
        ),
    ) {
        let mut m = Model::new();
        let xs: Vec<_> = (0..4).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.minimize(
            xs.iter()
                .zip(&obj)
                .map(|(&x, &c)| (x, c as f64))
                .collect::<Vec<_>>(),
        );
        for (coeffs, s, b) in &rows {
            m.add_constr(
                xs.iter()
                    .zip(coeffs)
                    .map(|(&x, &c)| (x, c as f64))
                    .collect::<Vec<_>>(),
                [Sense::Le, Sense::Ge][*s],
                *b as f64,
            );
        }
        let solve = |layout: PivotLayout| {
            m.solve_with(&SolveLimits {
                pivot_layout: layout,
                ..SolveLimits::default()
            })
        };
        match (solve(PivotLayout::Dense), solve(PivotLayout::SparseRow)) {
            (Ok(a), Ok(b)) => {
                prop_assert!(
                    a.objective() == b.objective(),
                    "objective {} vs {}", a.objective(), b.objective()
                );
                for (i, (&u, &v)) in a.values().iter().zip(b.values()).enumerate() {
                    prop_assert!(u == v, "x[{}]: {} vs {}", i, u, v);
                }
                let (sa, sb) = (a.stats(), b.stats());
                prop_assert_eq!(sa.nodes, sb.nodes);
                prop_assert_eq!(sa.lp_iterations, sb.lp_iterations);
                prop_assert_eq!(sa.proven_optimal, sb.proven_optimal);
                prop_assert_eq!(sa.stop_reason, sb.stop_reason);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "verdicts diverge: {a:?} vs {b:?}"),
        }
    }
}
