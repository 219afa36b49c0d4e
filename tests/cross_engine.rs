//! Cross-engine properties on generated corpora: every engine's output
//! passes the same independent validator, and the exact method is never
//! beaten by a heuristic.

use std::time::Duration;
use swp::core::{RateOptimalScheduler, SchedulerConfig};
use swp::heuristics::{IterativeModuloScheduler, ListModuloScheduler};
use swp::loops::suite::{generate, SuiteConfig};
use swp::machine::Machine;

fn corpus(n: usize, seed: u64) -> Vec<swp::loops::suite::GeneratedLoop> {
    generate(&SuiteConfig {
        num_loops: n,
        seed,
        ..SuiteConfig::pldi95_default()
    })
}

#[test]
fn ilp_schedules_validate_and_meet_bounds() {
    let machine = Machine::example_pldi95();
    let scheduler = RateOptimalScheduler::new(
        machine.clone(),
        SchedulerConfig {
            time_limit_per_t: Some(Duration::from_secs(2)),
            ..Default::default()
        },
    );
    for l in corpus(20, 11) {
        if let Ok(r) = scheduler.schedule(&l.ddg) {
            assert_eq!(r.schedule.validate(&l.ddg, &machine), Ok(()), "{}", l.name);
            assert!(r.schedule.initiation_interval() >= r.t_lb(), "{}", l.name);
            assert!(r.schedule.is_mapped(), "{}", l.name);
        }
    }
}

#[test]
fn heuristic_schedules_validate() {
    let machine = Machine::example_pldi95();
    let ims = IterativeModuloScheduler::new(machine.clone());
    let list = ListModuloScheduler::new(machine.clone());
    for l in corpus(40, 22) {
        if let Ok(r) = ims.schedule(&l.ddg) {
            assert_eq!(r.schedule.validate(&l.ddg, &machine), Ok(()), "{}", l.name);
        }
        if let Ok(r) = list.schedule(&l.ddg) {
            assert_eq!(r.schedule.validate(&l.ddg, &machine), Ok(()), "{}", l.name);
        }
    }
}

#[test]
fn exact_never_beaten_by_heuristics() {
    let machine = Machine::example_pldi95();
    let ilp = RateOptimalScheduler::new(
        machine.clone(),
        SchedulerConfig {
            time_limit_per_t: Some(Duration::from_secs(2)),
            ..Default::default()
        },
    );
    let ims = IterativeModuloScheduler::new(machine.clone());
    for l in corpus(12, 33) {
        if l.ddg.num_nodes() > 10 {
            continue;
        }
        let (Ok(a), Ok(b)) = (ilp.schedule(&l.ddg), ims.schedule(&l.ddg)) else {
            continue;
        };
        assert!(
            a.schedule.initiation_interval() <= b.schedule.initiation_interval(),
            "{}: ILP {} > IMS {}",
            l.name,
            a.schedule.initiation_interval(),
            b.schedule.initiation_interval()
        );
    }
}

#[test]
fn non_pipelined_machine_cross_engine() {
    let machine = Machine::example_non_pipelined();
    let ilp = RateOptimalScheduler::new(
        machine.clone(),
        SchedulerConfig {
            time_limit_per_t: Some(Duration::from_secs(2)),
            ..Default::default()
        },
    );
    let ims = IterativeModuloScheduler::new(machine.clone());
    for l in corpus(10, 44) {
        if let Ok(r) = ilp.schedule(&l.ddg) {
            assert_eq!(r.schedule.validate(&l.ddg, &machine), Ok(()), "{}", l.name);
        }
        if let Ok(r) = ims.schedule(&l.ddg) {
            assert_eq!(r.schedule.validate(&l.ddg, &machine), Ok(()), "{}", l.name);
        }
    }
}

#[test]
fn heuristic_incumbent_does_not_change_achieved_period() {
    // With and without the IMS certificate, the driver must land on the
    // same (minimal) period — the certificate only changes who proves
    // feasibility, never which periods were refuted.
    let machine = Machine::example_pldi95();
    let with = RateOptimalScheduler::new(
        machine.clone(),
        SchedulerConfig {
            heuristic_incumbent: true,
            time_limit_per_t: Some(Duration::from_secs(2)),
            ..Default::default()
        },
    );
    let without = RateOptimalScheduler::new(
        machine.clone(),
        SchedulerConfig {
            heuristic_incumbent: false,
            time_limit_per_t: Some(Duration::from_secs(2)),
            ..Default::default()
        },
    );
    for l in corpus(12, 55) {
        if l.ddg.num_nodes() > 8 {
            continue; // keep the pure-ILP side fast
        }
        let (Ok(a), Ok(b)) = (with.schedule(&l.ddg), without.schedule(&l.ddg)) else {
            continue;
        };
        // A timed-out (undecided) period forces the pure-ILP run upward;
        // the equality claim only holds for fully decided searches.
        let undecided = |r: &swp::core::ScheduleResult| {
            r.attempts
                .iter()
                .any(|at| at.outcome == swp::core::PeriodOutcome::TimedOut)
        };
        if undecided(&a) || undecided(&b) {
            continue;
        }
        assert_eq!(
            a.schedule.initiation_interval(),
            b.schedule.initiation_interval(),
            "{}",
            l.name
        );
    }
}

#[test]
fn family_kernels_agree_across_all_engines() {
    // VLIW issue-bundle and register-pressure kernels: the ILP, the CP
    // backend, and the staged portfolio must land on the same proven
    // period, and every accepted schedule must pass the independent
    // checker (and the pressure validator when a cap is in force).
    use swp::core::{Budget, Engine};
    use swp::fuzz::{gen_cases, GenConfig, MachineFamily};
    for (family, seed) in [
        (MachineFamily::Vliw, 77u64),
        (MachineFamily::RegPressure, 88),
    ] {
        let config = GenConfig {
            seed,
            max_nodes: 6,
            family,
            ..GenConfig::default()
        };
        let mut compared = 0usize;
        for case in gen_cases(&config, 12).into_iter().filter(|c| c.guaranteed) {
            let mut proven_periods = Vec::new();
            for engine in [Engine::Ilp, Engine::Cp, Engine::Portfolio] {
                let scheduler = RateOptimalScheduler::new(
                    case.machine.clone(),
                    SchedulerConfig {
                        time_limit_per_t: None,
                        engine,
                        max_live: case.max_live,
                        ..Default::default()
                    },
                );
                let budget = Budget::with_tick_limit(2_000_000);
                let r = scheduler
                    .schedule_with(&case.ddg, &budget)
                    .unwrap_or_else(|e| {
                        panic!(
                            "{}: guaranteed {family:?} case failed on {engine:?}: {e}",
                            case.name
                        )
                    });
                assert_eq!(
                    r.schedule.validate(&case.ddg, &case.machine),
                    Ok(()),
                    "{} on {engine:?}",
                    case.name
                );
                if let Some(limit) = case.max_live {
                    assert_eq!(
                        r.schedule.validate_pressure(&case.ddg, limit),
                        Ok(()),
                        "{} on {engine:?}",
                        case.name
                    );
                }
                if r.is_proven_optimal() {
                    proven_periods.push(r.schedule.initiation_interval());
                }
            }
            if proven_periods.len() > 1 {
                compared += 1;
                assert!(
                    proven_periods.windows(2).all(|w| w[0] == w[1]),
                    "{}: engines disagree on the proven period: {proven_periods:?}",
                    case.name
                );
            }
        }
        assert!(
            compared > 0,
            "{family:?}: the campaign produced no cross-engine comparisons"
        );
    }
}

#[test]
fn optimality_tags_are_honest_across_a_corpus() {
    // Table-4-style reporting: under a deterministic tick budget each
    // result must carry an honest tag — `Proven` only when every smaller
    // period really was refuted, `BudgetExhausted` with a refutation
    // frontier that brackets the true optimum.
    use swp::core::{Budget, Optimality, PeriodOutcome};
    let machine = Machine::example_pldi95();
    let scheduler = RateOptimalScheduler::new(
        machine.clone(),
        SchedulerConfig {
            time_limit_per_t: Some(Duration::from_secs(2)),
            ..Default::default()
        },
    );
    let (mut proven, mut limited) = (0usize, 0usize);
    let mut tally = |l: &swp::loops::suite::GeneratedLoop, budget: &Budget| {
        let Ok(r) = scheduler.schedule_with(&l.ddg, budget) else {
            return;
        };
        assert_eq!(r.schedule.validate(&l.ddg, &machine), Ok(()), "{}", l.name);
        let achieved = r.schedule.initiation_interval();
        match r.optimality {
            Optimality::Proven => {
                proven += 1;
                // Every attempted period below the achieved one is refuted.
                for a in &r.attempts {
                    if a.period < achieved {
                        assert!(
                            matches!(
                                a.outcome,
                                PeriodOutcome::Infeasible | PeriodOutcome::RejectedAtBuild
                            ),
                            "{}: period {} not refuted yet tagged Proven",
                            l.name,
                            a.period
                        );
                    }
                }
            }
            Optimality::BudgetExhausted { smallest_refuted } => {
                limited += 1;
                assert!(smallest_refuted >= r.t_lb(), "{}", l.name);
                // A schedule at the frontier itself would be proven.
                assert!(smallest_refuted < achieved, "{}", l.name);
            }
        }
    };
    for (i, l) in corpus(16, 66).into_iter().enumerate() {
        // Alternate generous and starved budgets over the corpus.
        let budget = if i % 2 == 0 {
            Budget::unlimited()
        } else {
            // A handful of ticks: enough to start, never enough to finish.
            Budget::with_tick_limit(1 + (i as u64 % 4))
        };
        tally(&l, &budget);
    }
    // Every starved loop above gets its grace schedule at T_lb, the
    // frontier of an empty refutation set, which proves it. Two loops of
    // another seed whose grace schedule lands above T_lb keep the
    // budget-limited tag exercised.
    for l in corpus(9, 1)
        .iter()
        .filter(|l| l.name == "loop0006" || l.name == "loop0008")
    {
        tally(l, &Budget::with_tick_limit(2));
    }
    // The corpus must exercise both kinds of reporting.
    assert!(proven > 0, "no proven-optimal results in the corpus");
    assert!(limited > 0, "no budget-limited results in the corpus");
}
