//! Cases promoted from differential-fuzzing campaigns (see
//! `crates/fuzz`), inlined so the heuristics keep guarding them without
//! a dependency cycle.
//!
//! The property under guard is the one the differential runner checks
//! on every case: IMS schedules the case, and a positive `schedule_at`
//! answer is a real feasibility certificate (it validates and
//! simulates).

use swp_ddg::{Ddg, OpClass};
use swp_heuristics::IterativeModuloScheduler;
use swp_machine::{simulate, FuType, Machine, ReservationTable, UnitPolicy};

fn clean_machine() -> Machine {
    Machine::new(vec![FuType {
        name: "C0".into(),
        count: 1,
        latency: 1,
        reservation: ReservationTable::clean(1),
    }])
    .expect("valid machine")
}

/// The fuzzer's seed-11 shrunk recurrence (see
/// `crates/core/tests/fuzz_promoted.rs` for the driver-level twin).
fn three_node_recurrence() -> Ddg {
    let mut g = Ddg::new();
    let a = g.add_node("n1", OpClass::new(0), 1);
    let b = g.add_node("n3", OpClass::new(0), 4);
    let c = g.add_node("n4", OpClass::new(0), 4);
    g.add_edge(a, b, 0).expect("valid");
    g.add_edge(b, c, 0).expect("valid");
    g.add_edge(c, a, 2).expect("valid");
    g
}

fn unclean_machine() -> Machine {
    Machine::new(vec![FuType {
        name: "C0".into(),
        count: 1,
        latency: 3,
        reservation: ReservationTable::from_rows(&[
            &[true, false, true][..],
            &[false, true, false][..],
        ])
        .expect("valid table"),
    }])
    .expect("valid machine")
}

#[test]
fn promoted_cases_schedule_and_validate() {
    for (machine, ddg) in [
        (clean_machine(), three_node_recurrence()),
        (unclean_machine(), three_node_recurrence()),
    ] {
        let res = IterativeModuloScheduler::new(machine.clone())
            .schedule(&ddg)
            .expect("promoted case schedules");
        res.schedule
            .validate(&ddg, &machine)
            .expect("schedule validates");
        simulate(&machine, &ddg, &res.schedule, 4, UnitPolicy::Fixed).expect("schedule simulates");
    }
}

#[test]
fn promoted_case_feasibility_certificates_are_honest() {
    let machine = clean_machine();
    let ddg = three_node_recurrence();
    let ims = IterativeModuloScheduler::new(machine.clone());
    let best = ims.schedule(&ddg).expect("schedules").schedule;
    let t = best.initiation_interval();
    // Feasibility certificates at T and a few slower periods: every
    // positive answer must hold up under the checker and the simulator.
    for ii in t..t + 3 {
        let Some(s) = ims.schedule_at(&ddg, ii) else {
            panic!("IMS failed at ii={ii} though {t} is feasible on a clean unit");
        };
        assert_eq!(s.initiation_interval(), ii);
        s.validate(&ddg, &machine).expect("certificate validates");
        let policy = if s.is_mapped() {
            UnitPolicy::Fixed
        } else {
            UnitPolicy::Dynamic
        };
        simulate(&machine, &ddg, &s, 4, policy).expect("certificate simulates");
    }
}
