//! Branch-and-bound against brute force: on random small programs over
//! bounded integer and binary variables, the feasible/infeasible verdict
//! and the optimum must match exhaustive enumeration, with and without
//! `stop_at_first_incumbent`, and a tick-capped run may only add
//! `LimitReached` — never a wrong verdict.

use proptest::prelude::*;
use swp_milp::{Budget, Model, Sense, SolveError, SolveLimits, VarKind};

/// A variable's integer domain `lo..=hi` (binary when `0..=1`).
#[derive(Debug, Clone)]
struct Program {
    domains: Vec<(i64, i64)>,
    rows: Vec<(Vec<i64>, Sense, i64)>,
    /// Minimized; all zero for a pure feasibility program.
    obj: Vec<i64>,
}

fn program() -> impl Strategy<Value = Program> {
    (1usize..=4, 0usize..=4, any::<bool>()).prop_flat_map(|(n, m, zero_obj)| {
        let domain = (any::<bool>(), -2i64..=1, 0i64..=3).prop_map(|(binary, lo, span)| {
            if binary {
                (0, 1)
            } else {
                (lo, lo + span)
            }
        });
        let sense = (0usize..3).prop_map(|s| [Sense::Le, Sense::Ge, Sense::Eq][s]);
        (
            proptest::collection::vec(domain, n),
            proptest::collection::vec(
                (proptest::collection::vec(-3i64..=3, n), sense, -4i64..=6),
                m,
            ),
            proptest::collection::vec(-3i64..=3, n),
        )
            .prop_map(move |(domains, rows, obj)| Program {
                domains,
                rows,
                obj: if zero_obj { vec![0; obj.len()] } else { obj },
            })
    })
}

impl Program {
    fn feasible(&self, x: &[i64]) -> bool {
        let in_box = x
            .iter()
            .zip(&self.domains)
            .all(|(&v, &(lo, hi))| lo <= v && v <= hi);
        in_box
            && self.rows.iter().all(|(a, sense, b)| {
                let lhs: i64 = a.iter().zip(x).map(|(c, v)| c * v).sum();
                match sense {
                    Sense::Le => lhs <= *b,
                    Sense::Ge => lhs >= *b,
                    Sense::Eq => lhs == *b,
                }
            })
    }

    fn objective(&self, x: &[i64]) -> i64 {
        self.obj.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// The least objective over every integer point, or `None` when no
    /// point is feasible.
    fn brute_force(&self) -> Option<i64> {
        let mut x: Vec<i64> = self.domains.iter().map(|d| d.0).collect();
        let mut best: Option<i64> = None;
        loop {
            if self.feasible(&x) {
                let v = self.objective(&x);
                best = Some(best.map_or(v, |b| b.min(v)));
            }
            // Odometer step over the box.
            let mut k = 0;
            loop {
                if k == x.len() {
                    return best;
                }
                if x[k] < self.domains[k].1 {
                    x[k] += 1;
                    break;
                }
                x[k] = self.domains[k].0;
                k += 1;
            }
        }
    }

    fn model(&self) -> Model {
        let mut m = Model::new();
        let vars: Vec<_> = self
            .domains
            .iter()
            .enumerate()
            .map(|(j, &(lo, hi))| match (lo, hi) {
                (0, 1) => m.add_binary(format!("b{j}")),
                _ => m.add_var(VarKind::Integer, lo as f64, hi as f64, format!("x{j}")),
            })
            .collect();
        m.minimize(
            vars.iter()
                .zip(&self.obj)
                .map(|(&v, &c)| (v, c as f64))
                .collect::<Vec<_>>(),
        );
        for (a, sense, b) in &self.rows {
            m.add_constr(
                vars.iter()
                    .zip(a)
                    .map(|(&v, &c)| (v, c as f64))
                    .collect::<Vec<_>>(),
                *sense,
                *b as f64,
            );
        }
        m
    }
}

/// The solution's integer point, checked against the program exactly.
fn point(p: &Program, sol: &swp_milp::MipSolution) -> Vec<i64> {
    let x: Vec<i64> = sol.values().iter().map(|v| v.round() as i64).collect();
    assert!(p.feasible(&x), "returned point {x:?} is infeasible");
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn verdict_and_optimum_match_enumeration(p in program(), first in any::<bool>()) {
        let truth = p.brute_force();
        let limits = SolveLimits { stop_at_first_incumbent: first, ..SolveLimits::default() };
        match (p.model().solve_with(&limits), truth) {
            (Ok(sol), Some(best)) => {
                let x = point(&p, &sol);
                if first {
                    prop_assert!(p.objective(&x) >= best);
                } else {
                    prop_assert!(sol.is_proven_optimal());
                    prop_assert_eq!(p.objective(&x), best);
                    prop_assert!((sol.objective() - best as f64).abs() < 1e-6);
                }
            }
            (Err(SolveError::Infeasible), None) => {}
            (got, truth) => prop_assert!(false, "solver {got:?} vs enumeration {truth:?}"),
        }
    }

    #[test]
    fn tick_caps_add_only_limit_reached(
        p in program(),
        first in any::<bool>(),
        ticks in 0u64..40,
    ) {
        let truth = p.brute_force();
        let limits = SolveLimits {
            stop_at_first_incumbent: first,
            budget: Budget::with_tick_limit(ticks),
            ..SolveLimits::default()
        };
        match (p.model().solve_with(&limits), truth) {
            (Ok(sol), Some(best)) => {
                let x = point(&p, &sol);
                prop_assert!(p.objective(&x) >= best);
                if sol.is_proven_optimal() {
                    prop_assert_eq!(p.objective(&x), best);
                }
            }
            (Err(SolveError::Infeasible), None) | (Err(SolveError::LimitReached(_)), _) => {}
            (got, truth) => prop_assert!(false, "solver {got:?} vs enumeration {truth:?}"),
        }
    }
}
