//! The subsystem's headline property: collision-matrix verdicts are
//! bit-identical to the naive reservation-table scan on random machines
//! and periods, and the automaton's `res_mii` equals the exact packing
//! bound. Alongside, the production checker is held to the
//! cycle-accurate simulator on random placements.

use proptest::prelude::*;
use swp_automata::{res_mii, CollisionMatrix};
use swp_ddg::{Ddg, OpClass};
use swp_machine::{
    check_fixed_assignment, simulate, FuType, Machine, PipelinedSchedule, PlacedOp,
    ReservationTable, SimError, UnitPolicy,
};

/// Arbitrary well-formed reservation table (1–4 stages, 1–6 columns,
/// with some mark at issue time).
fn arb_table() -> impl Strategy<Value = ReservationTable> {
    (1usize..=4, 1usize..=6).prop_flat_map(|(stages, cols)| {
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), cols), stages).prop_map(
            move |mut rows| {
                rows[0][0] = true;
                let refs: Vec<&[bool]> = rows.iter().map(|r| r.as_slice()).collect();
                ReservationTable::from_rows(&refs).expect("shape is valid")
            },
        )
    })
}

/// Arbitrary machine: 1–3 classes, 1–2 units each, random tables.
fn arb_machine() -> impl Strategy<Value = Machine> {
    proptest::collection::vec((arb_table(), 1u32..=2), 1..=3).prop_map(|types| {
        Machine::new(
            types
                .into_iter()
                .enumerate()
                .map(|(i, (reservation, count))| FuType {
                    name: format!("C{i}"),
                    count,
                    latency: 1,
                    reservation,
                })
                .collect(),
        )
        .expect("valid machine")
    })
}

/// The exact pairwise verdict the checker scans for: same-stage marks of
/// one table overlapping at issue distance `delta` (mod `period`).
fn naive_collides(rt: &ReservationTable, period: u32, delta: u32) -> bool {
    (0..rt.stages()).any(|s| {
        let offs = rt.stage_offsets(s);
        offs.iter().any(|&l1| {
            offs.iter()
                .any(|&l2| (l1 as i64 - l2 as i64).rem_euclid(i64::from(period)) as u32 == delta)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Collision-matrix bits are exactly the naive pair-scan verdicts,
    /// for every class and every issue distance.
    #[test]
    fn matrix_matches_naive_scan(machine in arb_machine(), t in 1u32..=10) {
        let matrix = CollisionMatrix::build(&machine, t);
        for (i, fu) in machine.types().iter().enumerate() {
            let class = OpClass::new(i);
            for delta in 0..t {
                prop_assert_eq!(
                    matrix.collides(class, class, delta),
                    Some(naive_collides(&fu.reservation, t, delta)),
                    "class {} delta {} at T={}", i, delta, t
                );
            }
            prop_assert_eq!(
                matrix.self_collides(class),
                Some(!fu.reservation.modulo_feasible(t))
            );
        }
    }

    /// Checker-accepted schedules survive the cycle-accurate simulator,
    /// and simulator-detected collisions are always checker-rejected —
    /// the checker cannot certify a schedule the hardware would break.
    #[test]
    fn checker_accepts_iff_simulator_survives(
        machine in arb_machine(),
        t in 1u32..=8,
        raw in proptest::collection::vec((0usize..3, 0u32..16, 0u32..2), 1..5),
    ) {
        let num_classes = machine.types().len();
        let mut ddg = Ddg::new();
        let mut starts = Vec::new();
        let mut assignment = Vec::new();
        let mut ops = Vec::new();
        for (i, &(c, offset, fu)) in raw.iter().enumerate() {
            let class = OpClass::new(c % num_classes);
            let count = machine.types()[c % num_classes].count;
            ddg.add_node(format!("n{i}"), class, 1);
            starts.push(offset % t);
            assignment.push(Some(fu % count));
            ops.push(PlacedOp { class, offset: offset % t, fu: Some(fu % count) });
        }
        let verdict = check_fixed_assignment(&machine, t, &ops);
        let schedule = PipelinedSchedule::new(t, starts, assignment);
        // Enough iterations that every modulo-periodic overlap manifests.
        let sim = simulate(&machine, &ddg, &schedule, 8, UnitPolicy::Fixed);
        if verdict.is_ok() {
            prop_assert!(sim.is_ok(), "checker accepted but simulator found {:?}", sim.err());
        }
        if matches!(sim, Err(SimError::Collision { .. })) {
            prop_assert!(verdict.is_err(), "simulator collided but checker accepted");
        }
    }

    /// The automaton's `res_mii` (forbidden-latency closure) equals the
    /// machine's exact packing-refined `T_res` on random edge-free DDGs.
    #[test]
    fn res_mii_matches_exact_packing_bound(
        machine in arb_machine(),
        raw in proptest::collection::vec(0usize..3, 1..8),
    ) {
        let num_classes = machine.types().len();
        let mut ddg = Ddg::new();
        for (i, &c) in raw.iter().enumerate() {
            ddg.add_node(format!("n{i}"), OpClass::new(c % num_classes), 1);
        }
        prop_assert_eq!(res_mii(&machine, &ddg), machine.t_res(&ddg));
    }
}
