//! Property tests for the fixed-assignment checker: its word-parallel
//! occupancy probe must be byte-identical to a naive per-cell hash-map
//! scan — same verdict and the same *first* error — on random machines
//! and random (frequently invalid) placements, and it must agree with
//! the cycle-accurate simulator on random in-range placements.
//!
//! Replay a failing stream with `SWP_PROPTEST_SEED=<seed>`.

use proptest::prelude::*;
use std::collections::HashMap;
use swp_ddg::{Ddg, OpClass};
use swp_machine::{
    check_fixed_assignment, simulate, ConflictError, FuType, Machine, PipelinedSchedule, PlacedOp,
    ReservationTable, SimError, UnitPolicy,
};

/// The reference checker: one hash-map entry per claimed
/// (class, unit, stage, residue) cell, ops scanned in order, stages
/// major and offsets ascending within an op. It knows nothing of issue
/// bundles, so callers compare on bundle-free machines only.
fn naive_check(machine: &Machine, period: u32, ops: &[PlacedOp]) -> Result<(), ConflictError> {
    assert!(machine.bundle().is_none(), "reference ignores bundles");
    let mut usage: HashMap<(usize, u32, usize, u32), usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        let fu_type = machine
            .fu_type(op.class)
            .map_err(|_| ConflictError::UnknownClass { op: i })?;
        let fu = op.fu.ok_or(ConflictError::MissingAssignment { op: i })?;
        if fu >= fu_type.count {
            return Err(ConflictError::FuOutOfRange {
                op: i,
                fu,
                available: fu_type.count,
            });
        }
        if op.offset >= period {
            return Err(ConflictError::OffsetOutOfRange {
                op: i,
                offset: op.offset,
            });
        }
        let rt = &fu_type.reservation;
        for s in 0..rt.stages() {
            for l in rt.stage_offset_iter(s) {
                let residue = (op.offset + l as u32) % period;
                let key = (op.class.index(), fu, s, residue);
                if let Some(&other) = usage.get(&key) {
                    return Err(ConflictError::StageCollision {
                        class: op.class,
                        fu,
                        stage: s,
                        residue,
                        ops: (other, i),
                    });
                }
                usage.insert(key, i);
            }
        }
    }
    Ok(())
}

/// Arbitrary well-formed reservation table (1–4 stages, 1–8 columns,
/// with some mark in column 0).
fn arb_table() -> impl Strategy<Value = ReservationTable> {
    (1usize..=4, 1usize..=8).prop_flat_map(|(stages, cols)| {
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), cols), stages).prop_map(
            move |mut rows| {
                rows[0][0] = true;
                let refs: Vec<&[bool]> = rows.iter().map(|r| r.as_slice()).collect();
                ReservationTable::from_rows(&refs).expect("shape is valid")
            },
        )
    })
}

/// Arbitrary machine: 1–3 classes, 1–3 units each.
fn arb_machine() -> impl Strategy<Value = Machine> {
    proptest::collection::vec((arb_table(), 1u32..=3), 1..=3).prop_map(|types| {
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
        .expect("well-formed machine")
    })
}

/// A machine, a period, and a batch of placements that deliberately
/// exercises every checker error path: unknown classes, missing and
/// out-of-range unit assignments, unreduced offsets, and (mostly)
/// ordinary collisions.
fn arb_case() -> impl Strategy<Value = (Machine, u32, Vec<PlacedOp>)> {
    (arb_machine(), 1u32..=9).prop_flat_map(|(machine, period)| {
        let nclasses = machine.types().len();
        // Class index may equal `nclasses` (unknown class); offsets run
        // past the period; fu indices run past every count.
        let ops = proptest::collection::vec(
            // The last slot decides assignment; skewed so most ops carry
            // a unit and genuine collisions dominate the sanity errors.
            (0usize..=nclasses, 0u32..12, 0u32..4, 0u8..20),
            0..14,
        );
        ops.prop_map(move |raw| {
            let placed = raw
                .into_iter()
                .map(|(class, offset, fu, w)| PlacedOp {
                    class: OpClass::new(class),
                    offset,
                    fu: (w < 17).then_some(fu),
                })
                .collect();
            (machine.clone(), period, placed)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The checker agrees exactly with the reference scan — `Ok` for
    /// `Ok`, and on failure the identical first `ConflictError`, field
    /// for field.
    #[test]
    fn checker_matches_reference(case in arb_case()) {
        let (machine, period, ops) = case;
        prop_assert_eq!(
            check_fixed_assignment(&machine, period, &ops),
            naive_check(&machine, period, &ops)
        );
    }

    /// Restricting to in-range placements (the hot path — no sanity
    /// errors, only genuine stage collisions) the two still agree.
    #[test]
    fn checker_matches_reference_on_collisions(case in arb_case()) {
        let (machine, period, ops) = case;
        let valid: Vec<PlacedOp> = ops
            .into_iter()
            .filter(|op| op.class.index() < machine.types().len())
            .map(|op| {
                let count = machine.types()[op.class.index()].count;
                PlacedOp {
                    class: op.class,
                    offset: op.offset % period,
                    fu: Some(op.fu.unwrap_or(0) % count),
                }
            })
            .collect();
        prop_assert_eq!(
            check_fixed_assignment(&machine, period, &valid),
            naive_check(&machine, period, &valid)
        );
    }

    /// Checker-accepted schedules survive the cycle-accurate simulator,
    /// and simulator-detected collisions are always checker-rejected —
    /// the checker cannot certify a schedule the hardware would break.
    #[test]
    fn checker_accepts_iff_simulator_survives(
        machine in arb_machine(),
        t in 1u32..=8,
        raw in proptest::collection::vec((0usize..3, 0u32..16, 0u32..3), 1..5),
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
}

/// Every hand-written checker fixture, plus wraparound self-collision
/// and mixed-class schedules, on the example machines: same variant,
/// same fields, same first error in scan order.
#[test]
fn checker_matches_reference_on_every_fixture() {
    let machines = [
        Machine::example_pldi95(),
        Machine::example_clean(),
        Machine::example_non_pipelined(),
        Machine::ppc604(),
    ];
    let op = |class, offset, fu| PlacedOp {
        class: OpClass::new(class),
        offset,
        fu,
    };
    let fp = |offset, fu| op(1, offset, fu);
    let int = |offset, fu| op(0, offset, fu);
    let cases: Vec<Vec<PlacedOp>> = vec![
        vec![fp(0, Some(0)), fp(0, Some(1))],
        vec![fp(0, Some(0)), fp(1, Some(0))],
        vec![fp(0, Some(0)), fp(1, Some(0)), fp(9, Some(0))],
        vec![fp(0, None)],
        vec![fp(9, Some(0))],
        vec![fp(0, Some(7))],
        vec![
            fp(0, Some(0)),
            int(0, Some(0)),
            fp(2, Some(0)),
            int(1, Some(0)),
        ],
        vec![
            fp(0, Some(0)),
            fp(2, Some(1)),
            fp(3, Some(0)),
            fp(1, Some(1)),
        ],
        vec![op(9, 0, Some(0))],
    ];
    for m in &machines {
        for period in 1u32..7 {
            for ops in &cases {
                assert_eq!(
                    check_fixed_assignment(m, period, ops),
                    naive_check(m, period, ops),
                    "period {period}, ops {ops:?}"
                );
            }
        }
    }
}
