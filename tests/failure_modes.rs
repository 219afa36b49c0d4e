//! Failure injection across crate boundaries: every error path a user
//! can hit should produce a typed, descriptive error — never a panic.

use std::time::Duration;
use swp::core::{RateOptimalScheduler, ScheduleError, SchedulerConfig};
use swp::ddg::{Ddg, DdgError, OpClass};
use swp::heuristics::{HeuristicError, IterativeModuloScheduler};
use swp::loops::parse::parse_loop;
use swp::loops::ClassConvention;
use swp::machine::{parse_machine, Machine, ValidationError};

#[test]
fn unknown_class_fails_at_every_layer() {
    let mut g = Ddg::new();
    g.add_node("mystery", OpClass::new(42), 1);
    let machine = Machine::example_pldi95();

    assert!(matches!(
        RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default()).schedule(&g),
        Err(ScheduleError::UnknownClass(_))
    ));
    assert!(matches!(
        IterativeModuloScheduler::new(machine.clone()).schedule(&g),
        Err(HeuristicError::UnknownClass(_))
    ));
    assert!(machine.t_res(&g).is_err());
}

#[test]
fn zero_distance_cycle_fails_everywhere() {
    let mut g = Ddg::new();
    let a = g.add_node("a", OpClass::new(1), 2);
    let b = g.add_node("b", OpClass::new(1), 2);
    g.add_edge(a, b, 0).unwrap();
    g.add_edge(b, a, 0).unwrap();

    assert!(matches!(g.validate(), Err(DdgError::ZeroDistanceCycle(_))));
    assert_eq!(g.t_dep(), None);
    let machine = Machine::example_pldi95();
    assert!(matches!(
        RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default()).schedule(&g),
        Err(ScheduleError::NoFinitePeriod)
    ));
    assert!(matches!(
        IterativeModuloScheduler::new(machine).schedule(&g),
        Err(HeuristicError::NoFinitePeriod)
    ));
}

#[test]
fn exhausted_period_range_reports_attempts() {
    // A loop whose T_lb attempt must time out: cap the range at +0 and
    // give the solver no time.
    let machine = Machine::example_pldi95();
    let g = swp::loops::kernels::fir4(&machine, ClassConvention::example()).ddg;
    let cfg = SchedulerConfig {
        max_t_above_lb: 0,
        time_limit_per_t: Some(Duration::from_millis(1)),
        heuristic_incumbent: false,
        ..Default::default()
    };
    match RateOptimalScheduler::new(machine, cfg).schedule(&g) {
        Err(ScheduleError::NotFound {
            t_lb,
            t_max,
            attempts,
        }) => {
            assert_eq!(t_lb, t_max);
            assert_eq!(attempts.len(), 1);
        }
        other => panic!("expected NotFound, got {other:?}"),
    }
}

#[test]
fn validator_rejects_forged_schedules() {
    let machine = Machine::example_pldi95();
    let g = swp::loops::kernels::motivating_example();
    // Right arity, nonsense times: dependences must catch it.
    let forged = swp::machine::PipelinedSchedule::new(4, vec![0; 6], vec![None; 6]);
    assert!(matches!(
        forged.validate(&g, &machine),
        Err(ValidationError::DependenceViolated { .. })
    ));
    // Satisfy dependences but overload the single Ld/St unit.
    let overload = swp::machine::PipelinedSchedule::new(4, vec![0, 0, 3, 5, 7, 9], vec![None; 6]);
    assert!(matches!(
        overload.validate(&g, &machine),
        Err(ValidationError::Conflict(_))
    ));
}

#[test]
fn loop_parser_rejects_garbage_gracefully() {
    let machine = Machine::example_pldi95();
    let conv = ClassConvention::example();
    for src in [
        "",
        "loop x {",
        "loop x {\n}",
        "loop x {\n = fadd a\n}",
        "loop x {\n t = \n}",
        "loop x {\n t = fadd t@banana\n}",
    ] {
        assert!(
            parse_loop(src, &machine, &conv).is_err(),
            "accepted: {src:?}"
        );
    }
}

#[test]
fn machine_parser_rejects_garbage_gracefully() {
    for src in [
        "",
        "machine m {",
        "machine m {\n}",
        "machine m {\n unit A count=0 latency=1 clean\n}",
        "machine m {\n unit A count=1 latency=1 clean nonpipelined\n}",
    ] {
        assert!(parse_machine(src).is_err(), "accepted: {src:?}");
    }
}

#[test]
fn parsed_machine_and_loop_compose_end_to_end() {
    let (_, machine) = parse_machine(
        "machine tiny {
            unit INT count=1 latency=1 clean
            unit FP  count=2 latency=2 table[X.. / .X. / .XX]
            unit MEM count=1 latency=3 clean
        }",
    )
    .expect("machine parses");
    let conv = ClassConvention {
        int: OpClass::new(0),
        fp: OpClass::new(1),
        ldst: OpClass::new(2),
        fdiv: None,
    };
    let parsed = parse_loop(
        "loop body {
            t1 = load a[i]
            t2 = fmul t1, w
            s  = fadd s@1, t2
            store t2
        }",
        &machine,
        &conv,
    )
    .expect("loop parses");
    let r = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
        .schedule(&parsed.ddg)
        .expect("schedules");
    assert_eq!(r.schedule.validate(&parsed.ddg, &machine), Ok(()));
    // And it executes.
    let rep = swp::machine::simulate(
        &machine,
        &parsed.ddg,
        &r.schedule,
        25,
        swp::machine::UnitPolicy::Fixed,
    )
    .expect("runs");
    assert!(rep.rate > 0.0);
}

// --- Budget semantics, cancellation, and injected faults -------------------

use proptest::prelude::*;
use std::time::Instant;
use swp::core::{Budget, FaultPlan, Optimality, PeriodOutcome, ScheduleResult, SolvedBy};

/// The tag a result is owed: `Proven` exactly when its period is the
/// refutation frontier (the first period from `T_lb` up that no attempt
/// refuted), `BudgetExhausted` at that frontier otherwise.
fn owed_tag(r: &ScheduleResult) -> Optimality {
    let refuted = |p: u32| {
        r.attempts.iter().any(|a| {
            a.period == p
                && matches!(
                    a.outcome,
                    PeriodOutcome::Infeasible | PeriodOutcome::RejectedAtBuild
                )
        })
    };
    let mut frontier = r.t_lb();
    while refuted(frontier) {
        frontier += 1;
    }
    if r.schedule.initiation_interval() == frontier {
        Optimality::Proven
    } else {
        Optimality::BudgetExhausted {
            smallest_refuted: frontier,
        }
    }
}

/// Small well-formed loop on the 3-class example machines (same shape as
/// the core pipeline proptests): forward edges keep distance 0 acyclic.
fn arb_loop() -> impl Strategy<Value = Ddg> {
    (2usize..7).prop_flat_map(|n| {
        let classes = proptest::collection::vec(0usize..3, n);
        let fwd = proptest::collection::vec(any::<u16>(), n - 1);
        let carried = proptest::option::of((0..n, 1u32..3));
        (classes, fwd, carried).prop_map(move |(classes, fwd, carried)| {
            let mut g = Ddg::new();
            let lat = [1u32, 2, 3];
            let ids: Vec<_> = classes
                .iter()
                .enumerate()
                .map(|(i, &c)| g.add_node(format!("n{i}"), OpClass::new(c), lat[c]))
                .collect();
            for (i, &a) in fwd.iter().enumerate() {
                let src = (a as usize) % (i + 1);
                g.add_edge(ids[src], ids[i + 1], 0).expect("valid");
            }
            if let Some((k, d)) = carried {
                g.add_edge(ids[k], ids[k], d).expect("valid");
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Starving the search of ticks must never panic and never leak an
    /// unverified schedule: the result is either a checker-clean schedule
    /// with an honest optimality tag, or a typed error.
    #[test]
    fn tiny_tick_budget_never_panics_never_lies(g in arb_loop(), ticks in 0u64..200) {
        let machine = Machine::example_pldi95();
        let budget = Budget::with_tick_limit(ticks);
        match RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
            .schedule_with(&g, &budget)
        {
            Ok(r) => {
                prop_assert_eq!(r.schedule.validate(&g, &machine), Ok(()));
                if let Optimality::BudgetExhausted { smallest_refuted } = r.optimality {
                    prop_assert!(smallest_refuted >= r.t_lb());
                    prop_assert!(smallest_refuted <= r.schedule.initiation_interval());
                }
            }
            Err(e) => {
                // Typed and displayable is the contract; panics are not.
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// An already-expired wall-clock deadline still yields a best-effort,
    /// checker-verified schedule (the grace pass is tick-funded, so a
    /// dead clock cannot starve it too).
    #[test]
    fn expired_deadline_still_returns_verified_schedule(g in arb_loop()) {
        let machine = Machine::example_pldi95();
        let budget = Budget::with_deadline(Duration::from_nanos(1));
        let r = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
            .schedule_with(&g, &budget)
            .expect("degrades to a heuristic schedule, not an error");
        prop_assert_eq!(r.schedule.validate(&g, &machine), Ok(()));
        prop_assert_eq!(r.optimality, owed_tag(&r));
    }
}

#[test]
fn pre_cancelled_budget_is_a_hard_error() {
    let machine = Machine::example_pldi95();
    let g = swp::loops::kernels::motivating_example();
    let budget = Budget::unlimited();
    budget.cancel_token().cancel();
    assert!(matches!(
        RateOptimalScheduler::new(machine, SchedulerConfig::default()).schedule_with(&g, &budget),
        Err(ScheduleError::Cancelled)
    ));
}

#[test]
fn cancellation_mid_solve_stops_promptly() {
    let machine = Machine::example_pldi95();
    let g = swp::loops::kernels::fir4(&machine, ClassConvention::example()).ddg;
    let cfg = SchedulerConfig {
        heuristic_incumbent: false, // force the slow ILP path
        time_limit_per_t: Some(Duration::from_secs(60)),
        ..Default::default()
    };
    let budget = Budget::unlimited();
    let token = budget.cancel_token();
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        token.cancel();
    });
    let started = Instant::now();
    let result = RateOptimalScheduler::new(machine.clone(), cfg).schedule_with(&g, &budget);
    handle.join().expect("canceller thread");
    // Either the solve won the race or the cancellation stopped it — but
    // it must come back orders of magnitude before the 60 s solve limit.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "cancellation did not stop the solve promptly"
    );
    match result {
        Ok(r) => assert_eq!(r.schedule.validate(&g, &machine), Ok(())),
        Err(ScheduleError::Cancelled) => {}
        Err(other) => panic!("unexpected error under cancellation: {other}"),
    }
}

/// The grace pass that runs after the main budget is spent must still
/// honour the caller's cancel token. Adversarial register-pressure case
/// 16 of generator seed 11 (`max_live` 1, 8 ops) exhausts a 5,000-tick
/// cap quickly and then spends tens of seconds in the 200,000-tick IMS
/// grace pass; cancelling during that pass must end the solve at once.
#[test]
fn cancellation_reaches_the_grace_pass() {
    use swp::core::Engine;
    use swp::fuzz::{gen_cases, GenConfig, MachineFamily};
    const CAP: u64 = 5_000;
    let config = GenConfig {
        seed: 11,
        family: MachineFamily::RegPressure,
        ..GenConfig::default()
    };
    let case = gen_cases(&config, 17).remove(16);
    assert!(!case.guaranteed && case.max_live == Some(1));
    let scheduler = RateOptimalScheduler::new(
        case.machine,
        SchedulerConfig {
            time_limit_per_t: None,
            max_t_above_lb: 16,
            engine: Engine::Ilp,
            max_live: case.max_live,
            ..SchedulerConfig::default()
        },
    );
    let budget = Budget::unlimited().fork_isolated().limit_ticks(CAP);
    let (tx, rx) = std::sync::mpsc::channel();
    let solve_budget = budget.clone();
    let solver = std::thread::spawn(move || {
        let _ = tx.send(scheduler.schedule_with(&case.ddg, &solve_budget));
    });
    // Wait until the main budget is spent, then a little longer so the
    // driver is inside the grace pass rather than its own exit check
    // (a cancel that lands there ends in `Cancelled` too, so this wait
    // affects only whether the test exercises the grace pass, never
    // whether it passes on a correct driver).
    let started = Instant::now();
    while budget.ticks_used() < CAP {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "main budget never ran out"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        rx.try_recv().is_err(),
        "the case no longer reaches a long grace pass"
    );
    budget.cancel_token().cancel();
    match rx.recv_timeout(Duration::from_secs(5)) {
        Ok(Err(ScheduleError::Cancelled)) => {}
        Ok(other) => panic!("expected Cancelled, got {other:?}"),
        Err(_) => panic!("the grace pass ignored the cancel token"),
    }
    solver.join().expect("solver thread");
}

/// Every injected fault must degrade to a verified schedule or a typed
/// error — never a panic, never an unverified schedule.
#[test]
fn fault_injection_exercises_every_degradation_path() {
    let machine = Machine::example_pldi95();
    let g = swp::loops::kernels::motivating_example();
    let run = |faults: FaultPlan, heuristic_incumbent: bool| {
        let cfg = SchedulerConfig {
            heuristic_incumbent,
            faults,
            ..Default::default()
        };
        RateOptimalScheduler::new(machine.clone(), cfg).schedule(&g)
    };
    let verified = |r: &swp::core::ScheduleResult| r.schedule.validate(&g, &machine) == Ok(());

    // Dead heuristic probe: the ILP carries the period alone.
    let r = run(
        FaultPlan {
            fail_heuristic_incumbent: true,
            ..Default::default()
        },
        true,
    )
    .expect("ILP-only path schedules");
    assert!(verified(&r));
    assert!(r
        .attempts
        .iter()
        .any(|a| a.outcome == PeriodOutcome::Feasible(SolvedBy::Ilp)));

    // Dead ILP: the heuristic fallback carries the period.
    let r = run(
        FaultPlan {
            fail_ilp: true,
            ..Default::default()
        },
        false,
    )
    .expect("heuristic fallback schedules");
    assert!(verified(&r));
    assert!(r
        .attempts
        .iter()
        .any(|a| a.outcome == PeriodOutcome::EngineFailed));

    // Checker rejects the ILP schedule: fall back to the heuristic.
    let r = run(
        FaultPlan {
            reject_ilp_schedule: true,
            ..Default::default()
        },
        false,
    )
    .expect("heuristic rescues a rejected ILP schedule");
    assert!(verified(&r));
    assert!(r
        .attempts
        .iter()
        .any(|a| a.outcome == PeriodOutcome::Feasible(SolvedBy::Heuristic)));

    // Checker rejects the heuristic schedule: the ILP rescues it.
    let r = run(
        FaultPlan {
            reject_heuristic_schedule: true,
            ..Default::default()
        },
        true,
    )
    .expect("ILP rescues a rejected heuristic schedule");
    assert!(verified(&r));

    // Both engines rejected: a typed VerificationFailed, not a panic.
    let err = run(
        FaultPlan {
            reject_ilp_schedule: true,
            reject_heuristic_schedule: true,
            ..Default::default()
        },
        true,
    )
    .expect_err("nothing can be certified");
    assert!(matches!(err, ScheduleError::VerificationFailed { .. }));

    // Budget dead before the search even starts: grace pass delivers.
    let r = run(
        FaultPlan {
            expire_before_search: true,
            ..Default::default()
        },
        true,
    )
    .expect("grace pass schedules");
    assert!(verified(&r));
    assert_eq!(r.optimality, owed_tag(&r));

    // Budget dies right before the ILP stage: same graceful exit.
    let r = run(
        FaultPlan {
            expire_before_ilp: true,
            ..Default::default()
        },
        false,
    )
    .expect("grace pass schedules");
    assert!(verified(&r));
    assert_eq!(r.optimality, owed_tag(&r));
}
