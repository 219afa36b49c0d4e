//! Branch-and-bound against brute force: on random small programs over
//! bounded integer and binary variables, the feasible/infeasible verdict
//! and the optimum must match exhaustive enumeration, with and without
//! `stop_at_first_incumbent`, and a tick-capped run may only add
//! `LimitReached` — never a wrong verdict. The same holds on small
//! models shaped like the scheduling formulation, where the
//! fix-and-propagate completion fires.

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

/// A small model in the shape of the scheduling formulation: per op `i`
/// a one-hot residue row `Σ_r a_{r,i} = 1`, a linkage row
/// `t_i − T·k_i − Σ_r r·a_{r,i} = 0`, and difference rows
/// `t_j − t_i ≥ d` between ops, plus at most one general row over the
/// starts that is not a difference (so a completion at the lower bounds
/// may fail and the search has to go on). Some residues are pinned, as
/// the formulation pins op 0's, so node LPs often have integral
/// residues and fractional stage counts: where the completion fires.
#[derive(Debug, Clone)]
struct Linked {
    period: i64,
    /// Per op: the upper bound of `k_i` and of `t_i`.
    caps: Vec<(i64, i64)>,
    /// Per op: the residue it is pinned to, if any.
    pins: Vec<Option<i64>>,
    /// `t_dst − t_src ≥ d`.
    diffs: Vec<(usize, usize, i64)>,
    /// `Σ_i c_i·t_i ≤ b`.
    extra: Option<(Vec<i64>, i64)>,
    /// Minimized, per op: the weights of `t_i`, `k_i` and `a_{0,i}`.
    obj: Vec<(i64, i64, i64)>,
}

fn linked() -> impl Strategy<Value = Linked> {
    (1usize..=3, 1i64..=3, 1usize..=4, any::<bool>()).prop_flat_map(|(n, period, m, with_extra)| {
        (
            proptest::collection::vec((1i64..=3, 2i64..=10), n),
            // Three ops in four have their residue pinned.
            proptest::collection::vec((0..4, 0..period), n),
            proptest::collection::vec((0..n, 0..n, -1i64..=5), m),
            (proptest::collection::vec(-2i64..=2, n), 0i64..=12),
            proptest::collection::vec((0i64..=2, -2i64..=2, -2i64..=2), n),
        )
            .prop_map(move |(caps, pins, diffs, extra, obj)| Linked {
                period,
                caps,
                pins: pins
                    .into_iter()
                    .map(|(pin, r)| (pin > 0).then_some(r))
                    .collect(),
                diffs: diffs
                    .into_iter()
                    .filter(|&(i, j, _)| i != j)
                    // A backward edge is loop-carried: it only bounds
                    // how far apart its ops may drift.
                    .map(|(i, j, d)| (i, j, if i < j { d } else { d - 8 }))
                    .collect(),
                extra: with_extra.then_some(extra),
                obj,
            })
    })
}

impl Linked {
    /// The objective of the placement `(r_i, k_i)` per op, or `None` if it
    /// breaks a bound or a row.
    fn value(&self, place: &[(i64, i64)]) -> Option<i64> {
        let t: Vec<i64> = place.iter().map(|&(r, k)| self.period * k + r).collect();
        let in_box = t.iter().zip(&self.caps).all(|(&t, &(_, t_hi))| t <= t_hi);
        let pinned = place
            .iter()
            .zip(&self.pins)
            .all(|(&(r, _), pin)| pin.is_none_or(|p| p == r));
        let diffs = self.diffs.iter().all(|&(i, j, d)| t[j] - t[i] >= d);
        let extra = self
            .extra
            .as_ref()
            .is_none_or(|(c, b)| c.iter().zip(&t).map(|(c, t)| c * t).sum::<i64>() <= *b);
        (in_box && pinned && diffs && extra).then(|| {
            place
                .iter()
                .zip(&t)
                .zip(&self.obj)
                .map(|((&(r, k), &t), &(wt, wk, wa))| wt * t + wk * k + wa * i64::from(r == 0))
                .sum()
        })
    }

    /// The least objective over every placement, or `None` when none is
    /// feasible. The one-hot and linkage rows leave `(r_i, k_i)` per op
    /// as the only freedom, so this enumerates every integer point.
    fn brute_force(&self) -> Option<i64> {
        let n = self.caps.len();
        let mut place = vec![(0i64, 0i64); n];
        let mut best: Option<i64> = None;
        loop {
            if let Some(v) = self.value(&place) {
                best = Some(best.map_or(v, |b| b.min(v)));
            }
            let mut i = 0;
            loop {
                if i == n {
                    return best;
                }
                let (r, k) = &mut place[i];
                if *r + 1 < self.period {
                    *r += 1;
                    break;
                }
                *r = 0;
                if *k < self.caps[i].0 {
                    *k += 1;
                    break;
                }
                *k = 0;
                i += 1;
            }
        }
    }

    fn model(&self) -> Model {
        let mut m = Model::new();
        let mut obj = Vec::new();
        let mut ts = Vec::new();
        for (i, (&(k_hi, t_hi), &(wt, wk, wa))) in self.caps.iter().zip(&self.obj).enumerate() {
            let a: Vec<_> = (0..self.period)
                .map(|r| m.add_binary(format!("a[{r},{i}]")))
                .collect();
            let t = m.add_var(VarKind::Integer, 0.0, t_hi as f64, format!("t[{i}]"));
            let k = m.add_var(VarKind::Integer, 0.0, k_hi as f64, format!("k[{i}]"));
            if let Some(p) = self.pins[i] {
                for (r, &v) in a.iter().enumerate() {
                    if r as i64 != p {
                        m.set_upper_bound(v, 0.0);
                    }
                }
            }
            m.add_constr(
                a.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
                Sense::Eq,
                1.0,
            );
            let mut link = vec![(t, 1.0), (k, -(self.period as f64))];
            link.extend(a.iter().enumerate().map(|(r, &v)| (v, -(r as f64))));
            m.add_constr(link, Sense::Eq, 0.0);
            obj.extend([(t, wt as f64), (k, wk as f64), (a[0], wa as f64)]);
            ts.push(t);
        }
        for &(i, j, d) in &self.diffs {
            m.add_constr([(ts[j], 1.0), (ts[i], -1.0)], Sense::Ge, d as f64);
        }
        if let Some((c, b)) = &self.extra {
            let row: Vec<_> = ts.iter().zip(c).map(|(&t, &c)| (t, c as f64)).collect();
            m.add_constr(row, Sense::Le, *b as f64);
        }
        m.minimize(obj);
        m
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The completion only adds incumbents: on linkage-shaped models the
    /// verdict and the optimum still match enumeration, and every
    /// returned point is integral and satisfies the model.
    #[test]
    fn linked_models_match_enumeration(p in linked(), first in any::<bool>()) {
        let truth = p.brute_force();
        let m = p.model();
        let limits = SolveLimits { stop_at_first_incumbent: first, ..SolveLimits::default() };
        match (m.solve_with(&limits), truth) {
            (Ok(sol), Some(best)) => {
                prop_assert!(m.is_feasible_point(sol.values(), 1e-5));
                prop_assert!(sol.values().iter().all(|v| (v - v.round()).abs() < 1e-6));
                let got = sol.objective().round() as i64;
                if first {
                    prop_assert!(got >= best);
                } else {
                    prop_assert!(sol.is_proven_optimal());
                    prop_assert_eq!(got, best);
                }
            }
            (Err(SolveError::Infeasible), None) => {}
            (got, truth) => prop_assert!(false, "solver {got:?} vs enumeration {truth:?}"),
        }
    }
}
