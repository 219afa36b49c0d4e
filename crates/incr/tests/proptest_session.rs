//! Differential property tests for incremental sessions: across random
//! instances and random edit scripts, a warm session must agree with a
//! cold solver on every decision (achieved period, optimality claim,
//! schedule validity), and a script that reverts itself must replay the
//! original result bit for bit.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swp_core::{Optimality, RateOptimalScheduler, SchedulerConfig};
use swp_ddg::{Ddg, NodeId, OpClass};
use swp_incr::{EditOp, SolveSession};
use swp_machine::{FuType, Machine, ReservationTable};
use swp_milp::Budget;

fn gen_machine(rng: &mut SmallRng) -> Machine {
    let classes = rng.gen_range(1..=2usize);
    let types = (0..classes)
        .map(|c| {
            let latency = rng.gen_range(1..=3);
            let reservation = if rng.gen_bool(0.3) {
                ReservationTable::non_pipelined(rng.gen_range(1..=2))
            } else {
                ReservationTable::clean(rng.gen_range(1..=2))
            };
            FuType {
                name: format!("C{c}"),
                count: rng.gen_range(1..=2),
                latency,
                reservation,
            }
        })
        .collect();
    Machine::new(types).expect("counts are positive")
}

fn gen_ddg(rng: &mut SmallRng, machine: &Machine) -> Ddg {
    let n = rng.gen_range(2..=5usize);
    let mut g = Ddg::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            let class = OpClass::new(rng.gen_range(0..machine.num_classes()));
            let latency = machine.latency(class).expect("class in range");
            g.add_node(format!("n{i}"), class, latency)
        })
        .collect();
    for i in 1..n {
        if rng.gen_bool(0.7) {
            let p = rng.gen_range(0..i);
            g.add_edge(ids[p], ids[i], 0).expect("valid ids");
        }
    }
    if rng.gen_bool(0.4) {
        let k = rng.gen_range(0..n);
        g.add_edge(ids[k], ids[k], rng.gen_range(1..=2))
            .expect("valid ids");
    }
    g
}

/// One random, always-applicable edit for the session's current shape.
fn gen_edit(rng: &mut SmallRng, s: &mut SolveSession) -> Option<EditOp> {
    let n = s.num_nodes();
    for _ in 0..8 {
        let op = match rng.gen_range(0u32..4) {
            0 => EditOp::AddNode {
                name: format!("x{}", s.edits_applied()),
                class: rng.gen_range(0..s.machine().num_classes()),
                latency: 1,
            },
            1 if n > 2 => EditOp::RemoveNode {
                index: rng.gen_range(0..n),
            },
            2 if n >= 2 => {
                // Forward edge or distance->=1 back edge: never creates a
                // zero-distance cycle, so the instance stays solvable.
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                let (src, dst) = (a.min(b), a.max(b));
                if src == dst {
                    continue;
                }
                EditOp::AddEdge {
                    src,
                    dst,
                    distance: 0,
                }
            }
            _ => {
                if s.num_edges() == 0 {
                    continue;
                }
                let ddg = s.ddg();
                let edges: Vec<_> = ddg
                    .edges()
                    .map(|e| (e.src.index(), e.dst.index(), e.distance))
                    .collect();
                let (src, dst, distance) = edges[rng.gen_range(0..edges.len())];
                EditOp::RemoveEdge { src, dst, distance }
            }
        };
        return Some(op);
    }
    None
}

/// The decision triple the differential obligation covers.
#[derive(Debug, PartialEq, Eq)]
enum Decision {
    Feasible { period: u32, proven: bool },
    NoSchedule,
}

fn decide(r: &Result<swp_core::ScheduleResult, swp_core::ScheduleError>) -> Decision {
    match r {
        Ok(res) => Decision::Feasible {
            period: res.schedule.initiation_interval(),
            proven: matches!(res.optimality, Optimality::Proven),
        },
        Err(_) => Decision::NoSchedule,
    }
}

fn config() -> SchedulerConfig {
    SchedulerConfig {
        max_t_above_lb: 8,
        ..SchedulerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// For any instance and any edit script, every step of the warm
    /// session agrees with a cold solve of the same instance on the
    /// decision triple, and the session's schedule passes the
    /// cycle-accurate checker.
    #[test]
    fn session_matches_cold_at_every_step(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let machine = gen_machine(&mut rng);
        let ddg = gen_ddg(&mut rng, &machine);
        let mut session = SolveSession::from_ddg(machine.clone(), config(), &ddg);
        let cold = RateOptimalScheduler::new(machine.clone(), config());
        let steps = rng.gen_range(1..=3usize);
        for step in 0..=steps {
            if step > 0 {
                let Some(op) = gen_edit(&mut rng, &mut session) else { break };
                session.apply(&op).expect("generated edits are valid");
            }
            let warm_res = session.solve();
            let cold_res = cold.schedule_with(session.ddg(), &Budget::unlimited());
            prop_assert_eq!(
                decide(&warm_res),
                decide(&cold_res),
                "step {} of seed {} diverged",
                step,
                seed
            );
            if let Ok(res) = &warm_res {
                prop_assert!(
                    res.schedule.validate(session.ddg(), &machine).is_ok(),
                    "warm schedule failed the checker at step {}",
                    step
                );
            }
        }
    }

    /// A script that reverts itself replays the original solve bit for
    /// bit: same schedule, same optimality, same attempt outcomes.
    #[test]
    fn revert_scripts_replay_bit_for_bit(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let machine = gen_machine(&mut rng);
        let ddg = gen_ddg(&mut rng, &machine);
        let mut session = SolveSession::from_ddg(machine, config(), &ddg);
        let before = session.solve();
        let fp = session.fingerprint();
        // Tighten then revert (edge), or grow then revert (node).
        if rng.gen_bool(0.5) && session.num_nodes() >= 2 {
            let (src, dst) = (0, session.num_nodes() - 1);
            if src != dst {
                session.apply(&EditOp::AddEdge { src, dst, distance: 1 }).expect("apply");
                let _ = session.solve();
                session.apply(&EditOp::RemoveEdge { src, dst, distance: 1 }).expect("apply");
            }
        } else {
            session.apply(&EditOp::AddNode { name: "tmp".into(), class: 0, latency: 1 })
                .expect("apply");
            let _ = session.solve();
            let last = session.num_nodes() - 1;
            session.apply(&EditOp::RemoveNode { index: last }).expect("apply");
        }
        prop_assert_eq!(session.fingerprint(), fp, "revert must restore the fingerprint");
        let after = session.solve();
        match (&before, &after) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.schedule, &b.schedule);
                prop_assert_eq!(a.optimality.is_proven(), b.optimality.is_proven());
                prop_assert_eq!(a.attempts.len(), b.attempts.len());
                for (x, y) in a.attempts.iter().zip(&b.attempts) {
                    prop_assert_eq!(x.period, y.period);
                    prop_assert_eq!(&x.outcome, &y.outcome);
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "verdicts differ: {a:?} vs {b:?}"),
        }
    }
}
