//! Seeded-generator property tests for the two scenario families.
//!
//! Same spirit as a proptest suite, but driven by the crate's own
//! deterministic generators (no new dependencies): for every case of a
//! fixed-seed campaign,
//!
//! * **register pressure** — any schedule the driver accepts under a
//!   `max_live` cap passes [`PipelinedSchedule::validate_pressure`] and
//!   its census never exceeds the cap;
//! * **issue bundles** — any schedule the driver accepts on a VLIW
//!   machine replays through the cycle-accurate simulator, which halts
//!   with `BundleExceeded` on any cycle that overflows the issue width
//!   or a slot-group cap.
//!
//! Negative controls prove both oracles have teeth: hand-built
//! overflowing schedules are rejected by the checker, the simulator,
//! and the pressure validator.
//!
//! [`PipelinedSchedule::validate_pressure`]: swp_machine::PipelinedSchedule::validate_pressure

use swp_core::{Budget, Engine, RateOptimalScheduler, SchedulerConfig};
use swp_ddg::{Ddg, OpClass};
use swp_fuzz::{gen_cases, GenConfig, MachineFamily};
use swp_heuristics::IterativeModuloScheduler;
use swp_machine::{
    simulate, BundleSpec, FuType, Machine, PipelinedSchedule, ReservationTable, SimError,
    SlotGroup, UnitPolicy,
};

fn exact(engine: Engine, max_live: Option<u32>) -> SchedulerConfig {
    SchedulerConfig {
        time_limit_per_t: None,
        engine,
        max_live,
        ..SchedulerConfig::default()
    }
}

#[test]
fn accepted_schedules_respect_the_pressure_cap() {
    let config = GenConfig {
        seed: 0xCAFE,
        max_nodes: 6,
        family: MachineFamily::RegPressure,
        ..GenConfig::default()
    };
    let mut checked = 0usize;
    for case in gen_cases(&config, 20) {
        let Some(limit) = case.max_live else { continue };
        let budget = Budget::with_tick_limit(500_000);
        if let Ok(r) =
            RateOptimalScheduler::new(case.machine.clone(), exact(Engine::Ilp, Some(limit)))
                .schedule_with(&case.ddg, &budget)
        {
            assert_eq!(
                r.schedule.validate_pressure(&case.ddg, limit),
                Ok(()),
                "{}",
                case.name
            );
            assert!(r.schedule.max_live(&case.ddg) <= limit, "{}", case.name);
            checked += 1;
        }
        let ims = IterativeModuloScheduler::new(case.machine.clone()).with_max_live(Some(limit));
        if let Ok(hr) = ims.schedule_with(&case.ddg, &Budget::with_tick_limit(500_000)) {
            assert_eq!(
                hr.schedule.validate_pressure(&case.ddg, limit),
                Ok(()),
                "{}",
                case.name
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 10,
        "campaign exercised too few capped schedules ({checked})"
    );
}

#[test]
fn bundle_machines_never_overflow_in_the_simulator() {
    let config = GenConfig {
        seed: 0xBEEF,
        max_nodes: 6,
        family: MachineFamily::Vliw,
        ..GenConfig::default()
    };
    let mut checked = 0usize;
    for case in gen_cases(&config, 20) {
        assert!(
            case.machine.bundle().is_some(),
            "{}: VLIW family must bundle",
            case.name
        );
        let budget = Budget::with_tick_limit(500_000);
        let Ok(r) = RateOptimalScheduler::new(case.machine.clone(), exact(Engine::Ilp, None))
            .schedule_with(&case.ddg, &budget)
        else {
            continue;
        };
        let policy = if r.schedule.is_mapped() {
            UnitPolicy::Fixed
        } else {
            UnitPolicy::Dynamic
        };
        simulate(&case.machine, &case.ddg, &r.schedule, 4, policy).unwrap_or_else(|e| {
            panic!(
                "{}: simulator rejected an accepted schedule: {e}",
                case.name
            )
        });
        checked += 1;
    }
    assert!(
        checked >= 8,
        "campaign exercised too few bundled schedules ({checked})"
    );
}

/// One clean single-cycle class with plenty of units, so only the
/// bundle (or the pressure cap) can object.
fn wide_machine(count: u32, bundle: Option<BundleSpec>) -> Machine {
    let m = Machine::new(vec![FuType {
        name: "C0".into(),
        count,
        latency: 1,
        reservation: ReservationTable::clean(1),
    }])
    .expect("static machine");
    match bundle {
        Some(b) => m.with_bundle(b).expect("static bundle"),
        None => m,
    }
}

#[test]
fn width_overflow_is_rejected_by_checker_and_simulator() {
    let machine = wide_machine(
        4,
        Some(BundleSpec {
            width: 2,
            groups: vec![],
        }),
    );
    let mut ddg = Ddg::new();
    for i in 0..3 {
        ddg.add_node(format!("n{i}"), OpClass::new(0), 1);
    }
    // Three same-cycle issues against width 2.
    let schedule = PipelinedSchedule::new(2, vec![0, 0, 0], vec![None; 3]);
    assert!(
        schedule.validate(&ddg, &machine).is_err(),
        "checker must reject"
    );
    let err = simulate(&machine, &ddg, &schedule, 2, UnitPolicy::Dynamic)
        .expect_err("simulator must reject");
    assert!(
        matches!(err, SimError::BundleExceeded { group: None, .. }),
        "want a width overflow, got {err:?}"
    );
}

#[test]
fn slot_group_overflow_is_rejected_by_checker_and_simulator() {
    let machine = wide_machine(
        4,
        Some(BundleSpec {
            width: 3,
            groups: vec![SlotGroup {
                name: "g".into(),
                cap: 1,
                classes: vec![0],
            }],
        }),
    );
    let mut ddg = Ddg::new();
    ddg.add_node("a", OpClass::new(0), 1);
    ddg.add_node("b", OpClass::new(0), 1);
    // Two same-cycle class-0 issues against a group cap of 1.
    let schedule = PipelinedSchedule::new(2, vec![0, 0], vec![None; 2]);
    assert!(
        schedule.validate(&ddg, &machine).is_err(),
        "checker must reject"
    );
    let err = simulate(&machine, &ddg, &schedule, 2, UnitPolicy::Dynamic)
        .expect_err("simulator must reject");
    assert!(
        matches!(err, SimError::BundleExceeded { group: Some(ref g), .. } if g == "g"),
        "want a slot-group overflow, got {err:?}"
    );
}

#[test]
fn pressure_validator_rejects_an_overflowing_census() {
    let machine = wide_machine(4, None);
    let mut ddg = Ddg::new();
    let a = ddg.add_node("a", OpClass::new(0), 3);
    let b = ddg.add_node("b", OpClass::new(0), 1);
    ddg.add_edge(a, b, 0).unwrap();
    // T = 1 with the consumer 3 cycles out: the value spans three full
    // periods, so three copies are live at once.
    let schedule = PipelinedSchedule::new(1, vec![0, 3], vec![None; 2]);
    // Resources and dependences are fine, so the pressure cap is the
    // only thing that rejects it.
    assert_eq!(schedule.validate(&ddg, &machine), Ok(()));
    assert_eq!(schedule.max_live(&ddg), 3);
    assert!(schedule.validate_pressure(&ddg, 2).is_err());
    assert!(schedule.validate_pressure(&ddg, 3).is_ok());
}
