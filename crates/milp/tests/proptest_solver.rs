//! Property tests: the `f64` solver stack against exhaustive enumeration
//! and the exact rational path, plus algebraic laws of the arbitrary-
//! precision types.

use proptest::prelude::*;
use swp_milp::exact::{solve_lp_exact, BigInt, BigRat, ExactLp, ExactOutcome};
use swp_milp::simplex::{solve_lp_with, LpProblem};
use swp_milp::{Budget, LpOutcome, Model, Sense, SolveError};

fn small_int() -> impl Strategy<Value = i64> {
    -9i64..=9
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BigInt +, -, * agree with i128 on 64-bit inputs.
    #[test]
    fn bigint_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let (ba, bb) = (BigInt::from(a), BigInt::from(b));
        prop_assert_eq!((&ba + &bb).to_string(), (a as i128 + b as i128).to_string());
        prop_assert_eq!((&ba - &bb).to_string(), (a as i128 - b as i128).to_string());
        prop_assert_eq!((&ba * &bb).to_string(), (a as i128 * b as i128).to_string());
    }

    /// Division is Euclidean: a == q*b + r with |r| < |b| and sign(r) == sign(a).
    #[test]
    fn bigint_divrem_reconstructs(a in any::<i64>(), b in any::<i64>().prop_filter("nonzero", |&b| b != 0)) {
        let (ba, bb) = (BigInt::from(a), BigInt::from(b));
        let (q, r) = ba.div_rem(&bb);
        prop_assert_eq!(&(&q * &bb) + &r, ba);
        prop_assert!(r.abs() < bb.abs());
    }

    /// BigRat is a field: a + b - b == a, (a*b)/b == a for b != 0.
    #[test]
    fn bigrat_field_laws(
        an in small_int(), ad in 1i64..=9,
        bn in small_int(), bd in 1i64..=9,
    ) {
        let a = BigRat::from_ratio(an, ad);
        let b = BigRat::from_ratio(bn, bd);
        prop_assert_eq!(&(&a + &b) - &b, a.clone());
        if !b.is_zero() {
            prop_assert_eq!(&(&a * &b) / &b, a);
        }
    }

    /// floor/ceil bracket the value and differ only on non-integers.
    #[test]
    fn bigrat_floor_ceil(n in -100i64..=100, d in 1i64..=13) {
        let x = BigRat::from_ratio(n, d);
        let fl = BigRat::from(x.floor());
        let ce = BigRat::from(x.ceil());
        prop_assert!(fl <= x && x <= ce);
        if x.is_integer() {
            prop_assert_eq!(fl, ce);
        } else {
            prop_assert_eq!(&ce - &fl, BigRat::one());
        }
    }

    /// f64 simplex agrees with the dense `BigRat` reference simplex on
    /// random bounded LPs (outcome class and, when optimal, objective
    /// value). An f64 solve error, such as a stall, is a mismatch.
    #[test]
    fn f64_simplex_agrees_with_exact(
        obj in prop::collection::vec(small_int(), 3),
        rows in prop::collection::vec(
            (prop::collection::vec(small_int(), 3), 0usize..3, -9i64..=9),
            1..5,
        ),
    ) {
        let p = LpProblem {
            obj: obj.iter().map(|&c| c as f64).collect(),
            rows: rows
                .iter()
                .map(|(coeffs, s, b)| {
                    let terms: Vec<(usize, f64)> = coeffs
                        .iter()
                        .enumerate()
                        .map(|(j, &c)| (j, c as f64))
                        .collect();
                    let sense = [Sense::Le, Sense::Ge, Sense::Eq][*s];
                    (terms, sense, *b as f64)
                })
                .collect(),
            lo: vec![0.0; 3],
            hi: vec![10.0; 3], // bounded -> never unbounded
        };
        let f = solve_lp_with(&p, &Budget::unlimited());
        let e = solve_lp_exact(&ExactLp::from_f64_problem(&p));
        match (&f, &e) {
            (Ok(LpOutcome::Optimal(fs)), ExactOutcome::Optimal { objective, .. }) => {
                prop_assert!(
                    (fs.objective - objective.to_f64()).abs() < 1e-5,
                    "objectives diverge: f64 {} vs exact {}",
                    fs.objective,
                    objective.to_f64()
                );
            }
            (Ok(LpOutcome::Infeasible), ExactOutcome::Infeasible) => {}
            other => prop_assert!(false, "outcome mismatch: {other:?}"),
        }
    }

    /// Branch-and-bound on random 0-1 models matches brute-force
    /// enumeration of all 2^n assignments.
    #[test]
    fn bnb_matches_bruteforce(
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
            let sense = [Sense::Le, Sense::Ge][*s];
            m.add_constr(
                xs.iter()
                    .zip(coeffs)
                    .map(|(&x, &c)| (x, c as f64))
                    .collect::<Vec<_>>(),
                sense,
                *b as f64,
            );
        }
        // Brute force.
        let mut best: Option<f64> = None;
        for mask in 0u32..16 {
            let point: Vec<f64> = (0..4)
                .map(|i| if mask & (1 << i) != 0 { 1.0 } else { 0.0 })
                .collect();
            if m.is_feasible_point(&point, 1e-9) {
                let v = m.objective_value(&point);
                best = Some(best.map_or(v, |b: f64| b.min(v)));
            }
        }
        match (m.solve(), best) {
            (Ok(sol), Some(b)) => prop_assert!(
                (sol.objective() - b).abs() < 1e-6,
                "solver {} vs brute force {}",
                sol.objective(),
                b
            ),
            (Err(SolveError::Infeasible), None) => {}
            (got, want) => prop_assert!(false, "mismatch: solver {got:?}, brute force {want:?}"),
        }
    }

    /// Every solution the MIP solver returns satisfies the model.
    #[test]
    fn solutions_are_feasible(
        rhs in 1i64..=5,
        coeffs in prop::collection::vec(1i64..=4, 3),
    ) {
        let mut m = Model::new();
        let xs: Vec<_> = (0..3).map(|i| m.add_integer(6.0, format!("x{i}"))).collect();
        m.maximize(
            xs.iter()
                .zip(&coeffs)
                .map(|(&x, &c)| (x, c as f64))
                .collect::<Vec<_>>(),
        );
        m.add_constr(
            xs.iter()
                .zip(&coeffs)
                .map(|(&x, &c)| (x, c as f64))
                .collect::<Vec<_>>(),
            Sense::Le,
            rhs as f64,
        );
        let sol = m.solve().expect("bounded and feasible (origin)");
        prop_assert!(m.is_feasible_point(sol.values(), 1e-6));
        for &x in &xs {
            let v = sol.value(x);
            prop_assert!((v - v.round()).abs() < 1e-6, "integrality violated: {v}");
        }
    }
}
