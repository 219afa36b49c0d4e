//! Cases promoted from differential-fuzzing campaigns (see
//! `crates/fuzz`), inlined here so the core driver guards them without
//! a dependency cycle.
//!
//! Each case is a minimized structure the fuzzer's shrinker produced
//! while exercising the oracle properties; the assertions mirror what
//! the differential runner checks — schedules validate, simulate at
//! rate `1/T`, respect the lower bounds, and are proven optimal.

use swp_core::{Optimality, RateOptimalScheduler, SchedulerConfig};
use swp_ddg::{Ddg, OpClass};
use swp_machine::{simulate, FuType, Machine, ReservationTable, UnitPolicy};

/// Schedules `ddg`, checks the result the way the differential runner
/// does, and returns the proven-optimal period.
fn check_case(machine: &Machine, ddg: &Ddg) -> u32 {
    let config = SchedulerConfig {
        time_limit_per_t: None,
        ..Default::default()
    };
    let r = RateOptimalScheduler::new(machine.clone(), config)
        .schedule(ddg)
        .expect("promoted cases schedule");
    let s = &r.schedule;
    let t = s.initiation_interval();
    assert!(t >= r.t_lb(), "period below the lower bound");
    s.validate(ddg, machine).expect("schedule validates");
    let policy = if s.is_mapped() {
        UnitPolicy::Fixed
    } else {
        UnitPolicy::Dynamic
    };
    simulate(machine, ddg, s, 4, policy).expect("schedule simulates");
    assert!(
        matches!(r.optimality, Optimality::Proven),
        "promoted cases are small enough to prove"
    );
    t
}

/// Shrunk by the fuzzer from a fault-injection campaign (seed 11): a
/// three-node recurrence with mixed latencies on a clean unit. The
/// recurrence bound (1+4+4 over distance 2) dominates the resource
/// bound.
#[test]
fn promoted_three_node_recurrence() {
    let machine = Machine::new(vec![FuType {
        name: "C0".into(),
        count: 1,
        latency: 1,
        reservation: ReservationTable::clean(1),
    }])
    .expect("valid machine");
    let mut g = Ddg::new();
    let a = g.add_node("n1", OpClass::new(0), 1);
    let b = g.add_node("n3", OpClass::new(0), 4);
    let c = g.add_node("n4", OpClass::new(0), 4);
    g.add_edge(a, b, 0).expect("valid");
    g.add_edge(b, c, 0).expect("valid");
    g.add_edge(c, a, 2).expect("valid");
    let t = check_case(&machine, &g);
    // ceil((1+4+4)/2) = 5 from the recurrence; 3 ops on 1 unit give 3.
    assert_eq!(t, 5);
}

/// Shrunk singleton: one op on one clean unit — the smallest case the
/// shrinker ever emits, pinned so the trivial path stays exact.
#[test]
fn promoted_singleton() {
    let machine = Machine::new(vec![FuType {
        name: "C0".into(),
        count: 1,
        latency: 1,
        reservation: ReservationTable::clean(1),
    }])
    .expect("valid machine");
    let mut g = Ddg::new();
    g.add_node("n0", OpClass::new(0), 1);
    assert_eq!(check_case(&machine, &g), 1);
}

/// Curated fuzz structure: an unclean pipeline revisiting stage 0 two
/// cycles after issue under a carried recurrence — the modulo
/// reservation interplay the paper is about.
#[test]
fn promoted_unclean_table_recurrence() {
    let table = ReservationTable::from_rows(&[&[true, false, true][..], &[false, true, false][..]])
        .expect("valid table");
    let machine = Machine::new(vec![FuType {
        name: "C0".into(),
        count: 1,
        latency: 3,
        reservation: table,
    }])
    .expect("valid machine");
    let mut g = Ddg::new();
    let a = g.add_node("n0", OpClass::new(0), 3);
    let b = g.add_node("n1", OpClass::new(0), 3);
    let c = g.add_node("n2", OpClass::new(0), 3);
    g.add_edge(a, b, 0).expect("valid");
    g.add_edge(b, c, 0).expect("valid");
    g.add_edge(c, a, 2).expect("valid");
    let t = check_case(&machine, &g);
    assert!(t >= 5, "recurrence bound ceil(9/2) = 5, got {t}");
}
