//! Cycle-accurate conflict checking, independent of any scheduler.
//!
//! Both schedulers in this workspace (the ILP of `swp-core` and the
//! heuristics of `swp-heuristics`) are validated against these checks,
//! which simulate one period of the repetitive pattern and verify every
//! stage of every physical unit is used by at most one operation per
//! time step.

use crate::machine::{Machine, MachineError};
use std::error::Error;
use std::fmt;
use swp_ddg::OpClass;

/// One operation as placed in the repetitive pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedOp {
    /// Function-unit class of the operation.
    pub class: OpClass,
    /// Issue time within the pattern, `t_i mod T` (must be `< T`).
    pub offset: u32,
    /// Physical unit index within the class, if mapped.
    pub fu: Option<u32>,
}

/// A violation found by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConflictError {
    /// The machine does not define the class of operation `op`.
    UnknownClass {
        /// Index of the offending operation.
        op: usize,
    },
    /// Fixed-assignment checking requires every op to carry a unit index.
    MissingAssignment {
        /// Index of the offending operation.
        op: usize,
    },
    /// The unit index is `>= count` for the class.
    FuOutOfRange {
        /// Index of the offending operation.
        op: usize,
        /// The out-of-range unit index.
        fu: u32,
        /// Number of units of that class.
        available: u32,
    },
    /// An offset was not reduced mod the period.
    OffsetOutOfRange {
        /// Index of the offending operation.
        op: usize,
        /// Its offset.
        offset: u32,
    },
    /// Two uses (possibly of the same op wrapping around) collide on a
    /// stage of one physical unit at one residue.
    StageCollision {
        /// Class of the colliding unit.
        class: OpClass,
        /// Physical unit index.
        fu: u32,
        /// Stage within the unit.
        stage: usize,
        /// Time step (mod period) of the collision.
        residue: u32,
        /// The two colliding operations (may be equal for self-collision).
        ops: (usize, usize),
    },
    /// More operations issue in one cycle (pattern residue) than the
    /// machine's VLIW issue bundle allows.
    BundleExceeded {
        /// Slot-group name, or `None` when the total width overflowed.
        group: Option<String>,
        /// Time step (mod period) of the overflow.
        residue: u32,
        /// Operations issuing there.
        used: u32,
        /// The bundle's cap for this limit.
        cap: u32,
    },
    /// More operations need a stage of some class at a residue than there
    /// are physical units (run-time-choice checking).
    CapacityExceeded {
        /// Class whose capacity is exceeded.
        class: OpClass,
        /// Stage within the unit type.
        stage: usize,
        /// Time step (mod period) of the overflow.
        residue: u32,
        /// Units demanded.
        used: u32,
        /// Units available.
        available: u32,
    },
}

impl fmt::Display for ConflictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictError::UnknownClass { op } => write!(f, "op {op} has an unknown class"),
            ConflictError::MissingAssignment { op } => {
                write!(f, "op {op} has no function-unit assignment")
            }
            ConflictError::FuOutOfRange { op, fu, available } => {
                write!(f, "op {op} assigned unit {fu} of {available}")
            }
            ConflictError::OffsetOutOfRange { op, offset } => {
                write!(f, "op {op} offset {offset} not reduced mod period")
            }
            ConflictError::StageCollision {
                class,
                fu,
                stage,
                residue,
                ops,
            } => write!(
                f,
                "ops {} and {} collide on {class} unit {fu} stage {stage} at t={residue}",
                ops.0, ops.1
            ),
            ConflictError::BundleExceeded {
                group,
                residue,
                used,
                cap,
            } => match group {
                Some(g) => write!(
                    f,
                    "{used} ops issue in slot group `{g}` at t={residue}, cap {cap}"
                ),
                None => write!(f, "{used} ops issue at t={residue}, bundle width {cap}"),
            },
            ConflictError::CapacityExceeded {
                class,
                stage,
                residue,
                used,
                available,
            } => write!(
                f,
                "{used} ops need {class} stage {stage} at t={residue}, only {available} units"
            ),
        }
    }
}

impl Error for ConflictError {}

impl From<MachineError> for ConflictError {
    fn from(_: MachineError) -> Self {
        // Only reachable through per-op class lookups; index is patched by
        // the call sites, which construct UnknownClass directly.
        ConflictError::UnknownClass { op: usize::MAX }
    }
}

/// Issue-bundle pre-pass shared by both checker entry points: in steady
/// state the issues of one cycle are the ops at one pattern residue, so
/// the per-cycle width and slot-group caps become per-residue counts.
/// Offsets are reduced mod `period`; class indices outside the machine
/// count toward the total width only (the per-op scans report them).
fn check_bundle(machine: &Machine, period: u32, ops: &[PlacedOp]) -> Result<(), ConflictError> {
    let Some(bundle) = machine.bundle() else {
        return Ok(());
    };
    let mut counts = vec![0u32; period as usize];
    for op in ops {
        counts[(op.offset % period) as usize] += 1;
    }
    if let Some((rho, &used)) = counts.iter().enumerate().find(|&(_, &u)| u > bundle.width) {
        return Err(ConflictError::BundleExceeded {
            group: None,
            residue: rho as u32,
            used,
            cap: bundle.width,
        });
    }
    for g in &bundle.groups {
        counts.iter_mut().for_each(|c| *c = 0);
        for op in ops {
            if g.classes.contains(&op.class.index()) {
                counts[(op.offset % period) as usize] += 1;
            }
        }
        if let Some((rho, &used)) = counts.iter().enumerate().find(|&(_, &u)| u > g.cap) {
            return Err(ConflictError::BundleExceeded {
                group: Some(g.name.clone()),
                residue: rho as u32,
                used,
                cap: g.cap,
            });
        }
    }
    Ok(())
}

/// Verifies a *mapped* schedule: every operation carries a physical unit,
/// and no stage of any unit is claimed twice at the same time step mod
/// `period`. Self-collision of a wrapping operation (the modulo
/// scheduling constraint) is caught too. Machines with a
/// [`crate::BundleSpec`] additionally get the per-residue issue-width
/// and slot-group checks, before any per-op scan.
///
/// # Errors
///
/// The first [`ConflictError`] found, scanning ops in order; a collision
/// is reported at its first claimed cell in stage-major, offset-ascending
/// order.
///
/// Each (class, unit) keeps u64 occupancy words probed with one AND per
/// word, plus a flat owner array consulted only to name the earlier op of
/// a collision.
pub fn check_fixed_assignment(
    machine: &Machine,
    period: u32,
    ops: &[PlacedOp],
) -> Result<(), ConflictError> {
    assert!(period > 0, "period must be positive");
    check_bundle(machine, period, ops)?;
    let t = period as usize;
    let ft = FlatTables::new(machine, period);
    let mut occ: Vec<Vec<u64>> = machine
        .types()
        .iter()
        .enumerate()
        .map(|(c, fu_type)| vec![0u64; fu_type.count as usize * ft.words[c]])
        .collect();
    let mut owner: Vec<Vec<usize>> = machine
        .types()
        .iter()
        .enumerate()
        .map(|(c, fu_type)| vec![usize::MAX; fu_type.count as usize * ft.cells[c]])
        .collect();
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
        let c = op.class.index();
        let (w, cells, off) = (ft.words[c], ft.cells[c], op.offset as usize);
        let unit_occ = &mut occ[c][fu as usize * w..(fu as usize + 1) * w];
        let mask = &ft.masks[c][off];
        let clean = ft.self_ok[c] && mask.iter().zip(unit_occ.iter()).all(|(m, o)| m & o == 0);
        let unit_owner = &mut owner[c][fu as usize * cells..(fu as usize + 1) * cells];
        if clean {
            for (o, m) in unit_occ.iter_mut().zip(mask) {
                *o |= m;
            }
            for &cell in &ft.lists[c][off] {
                unit_owner[cell] = i;
            }
        } else {
            // Word probe hit (or the class self-collides at this period):
            // walk the claimed cells in scan order to name the first
            // collision.
            for &cell in &ft.lists[c][off] {
                if unit_owner[cell] != usize::MAX {
                    return Err(ConflictError::StageCollision {
                        class: op.class,
                        fu,
                        stage: cell / t,
                        residue: (cell % t) as u32,
                        ops: (unit_owner[cell], i),
                    });
                }
                unit_owner[cell] = i;
            }
            // Unreachable in practice (a probe hit implies an owned cell),
            // but keep the occupancy invariant if we ever fall through.
            for (o, m) in unit_occ.iter_mut().zip(mask) {
                *o |= m;
            }
        }
    }
    Ok(())
}

/// Per-class modulo tables shared by the checker and the greedy mapper:
/// for each unit class, the word-parallel claimed-cell masks and the
/// claimed-cell lists in scan order (stage-major, offsets ascending).
struct FlatTables {
    masks: Vec<Vec<Vec<u64>>>,
    lists: Vec<Vec<Vec<usize>>>,
    /// u64 words per per-unit occupancy run, per class.
    words: Vec<usize>,
    /// `stages * period` flat cells per unit, per class.
    cells: Vec<usize>,
    /// Whether one op of the class repeats without self-collision.
    self_ok: Vec<bool>,
}

impl FlatTables {
    fn new(machine: &Machine, period: u32) -> Self {
        let t = period as usize;
        let mut ft = FlatTables {
            masks: Vec::with_capacity(machine.num_classes()),
            lists: Vec::with_capacity(machine.num_classes()),
            words: Vec::with_capacity(machine.num_classes()),
            cells: Vec::with_capacity(machine.num_classes()),
            self_ok: Vec::with_capacity(machine.num_classes()),
        };
        for fu_type in machine.types() {
            let rt = &fu_type.reservation;
            ft.masks.push(rt.modulo_cell_masks(period));
            ft.lists.push(rt.modulo_cell_lists(period));
            ft.words.push(rt.cell_mask_words(period));
            ft.cells.push(rt.stages() * t);
            ft.self_ok.push(rt.modulo_feasible(period));
        }
        ft
    }
}

/// Verifies a schedule under *run-time unit choice*: operations are not
/// bound to physical units; the check only demands that, per class and
/// stage, at most `count` operations claim any time step mod `period`.
///
/// This is the resource constraint of the paper's eq. (5). A schedule can
/// pass this check yet admit **no** fixed assignment — that gap is the
/// paper's motivation (Table 1 / Table 2).
///
/// # Errors
///
/// The first [`ConflictError`] found.
pub fn check_capacity_only(
    machine: &Machine,
    period: u32,
    ops: &[PlacedOp],
) -> Result<(), ConflictError> {
    assert!(period > 0, "period must be positive");
    check_bundle(machine, period, ops)?;
    let t = period as usize;
    // Flat per-class demand counters indexed by `stage * period + residue`
    // — same counts as the old (class, stage, residue) hash map, scanned
    // in the same sorted order, without hashing or allocation per op.
    let mut demand: Vec<Vec<u32>> = machine
        .types()
        .iter()
        .map(|fu_type| vec![0u32; fu_type.reservation.stages() * t])
        .collect();
    for (i, op) in ops.iter().enumerate() {
        let fu_type = machine
            .fu_type(op.class)
            .map_err(|_| ConflictError::UnknownClass { op: i })?;
        if op.offset >= period {
            return Err(ConflictError::OffsetOutOfRange {
                op: i,
                offset: op.offset,
            });
        }
        let rt = &fu_type.reservation;
        let class_demand = &mut demand[op.class.index()];
        for s in 0..rt.stages() {
            for l in rt.stage_offset_iter(s) {
                let residue = (op.offset + l as u32) % period;
                class_demand[s * t + residue as usize] += 1;
            }
        }
    }
    for (class_idx, class_demand) in demand.iter().enumerate() {
        let class = OpClass::new(class_idx);
        let Ok(fu_type) = machine.fu_type(class) else {
            return Err(ConflictError::UnknownClass { op: usize::MAX });
        };
        let available = fu_type.count;
        for (cell, &used) in class_demand.iter().enumerate() {
            if used > available {
                return Err(ConflictError::CapacityExceeded {
                    class,
                    stage: cell / t,
                    residue: (cell % t) as u32,
                    used,
                    available,
                });
            }
        }
    }
    Ok(())
}

/// Completes a fixed assignment first-fit: ops that already carry a
/// unit keep it and are committed first, then every other op takes, in
/// op order, the lowest-numbered unit of its class whose claimed cells
/// are all free. An op that no unit can take stays `None`. Carried units
/// are committed as given, not checked against each other — that is
/// [`check_fixed_assignment`]'s job.
///
/// This is *not* complete — the paper's point is that some schedules
/// admit an assignment only under a smarter (coloring) analysis, and some
/// admit none at all — but it is a useful baseline and a fast path.
///
/// # Errors
///
/// [`ConflictError::UnknownClass`] for an op whose class the machine
/// lacks, and [`ConflictError::FuOutOfRange`] for a carried unit
/// `>= count`.
pub fn greedy_assignment(
    machine: &Machine,
    period: u32,
    ops: &[PlacedOp],
) -> Result<Vec<Option<u32>>, ConflictError> {
    assert!(period > 0, "period must be positive");
    // First-fit with word-parallel unit probes: a unit is free for the
    // op iff its claimed-cell mask is disjoint from the unit's occupancy
    // words.
    let ft = FlatTables::new(machine, period);
    let mut occ: Vec<Vec<u64>> = machine
        .types()
        .iter()
        .enumerate()
        .map(|(c, fu_type)| vec![0u64; fu_type.count as usize * ft.words[c]])
        .collect();
    let mut out: Vec<Option<u32>> = ops.iter().map(|op| op.fu).collect();
    let carried = (0..ops.len()).filter(|&i| ops[i].fu.is_some());
    let free = (0..ops.len()).filter(|&i| ops[i].fu.is_none());
    for i in carried.chain(free) {
        let op = &ops[i];
        let count = machine
            .fu_type(op.class)
            .map_err(|_| ConflictError::UnknownClass { op: i })?
            .count;
        let c = op.class.index();
        let unit = |fu: u32| fu as usize * ft.words[c]..(fu as usize + 1) * ft.words[c];
        // Offsets are reduced here, so unreduced ones are legal (unlike
        // in the fixed-assignment checker).
        let mask = &ft.masks[c][(op.offset % period) as usize];
        let fu = match op.fu {
            Some(fu) if fu >= count => {
                return Err(ConflictError::FuOutOfRange {
                    op: i,
                    fu,
                    available: count,
                })
            }
            Some(fu) => fu,
            None => {
                let fits = |&fu: &u32| mask.iter().zip(&occ[c][unit(fu)]).all(|(m, o)| m & o == 0);
                let Some(fu) = (0..count).find(fits) else {
                    continue;
                };
                out[i] = Some(fu);
                fu
            }
        };
        for (o, m) in occ[c][unit(fu)].iter_mut().zip(mask) {
            *o |= m;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn fp(offset: u32, fu: Option<u32>) -> PlacedOp {
        PlacedOp {
            class: OpClass::new(1),
            offset,
            fu,
        }
    }

    #[test]
    fn disjoint_ops_pass() {
        let m = Machine::example_pldi95();
        // FP hazard table occupies stage3 at offsets 1,2. Two ops, two units.
        let ops = [fp(0, Some(0)), fp(0, Some(1))];
        assert_eq!(check_fixed_assignment(&m, 4, &ops), Ok(()));
    }

    #[test]
    fn same_unit_collision_detected() {
        let m = Machine::example_pldi95();
        let ops = [fp(0, Some(0)), fp(1, Some(0))]; // stage3: {1,2} vs {2,3}
        match check_fixed_assignment(&m, 4, &ops) {
            Err(ConflictError::StageCollision { stage, ops, .. }) => {
                assert_eq!(stage, 2);
                assert_eq!(ops, (0, 1));
            }
            other => panic!("expected collision, got {other:?}"),
        }
    }

    #[test]
    fn wraparound_self_collision_detected() {
        // Non-pipelined lat 2 at period 1: op collides with its own next
        // instance.
        let m = Machine::example_non_pipelined();
        let ops = [fp(0, Some(0))];
        match check_fixed_assignment(&m, 1, &ops) {
            Err(ConflictError::StageCollision { ops, .. }) => assert_eq!(ops, (0, 0)),
            other => panic!("expected self-collision, got {other:?}"),
        }
    }

    #[test]
    fn missing_assignment_rejected() {
        let m = Machine::example_pldi95();
        assert_eq!(
            check_fixed_assignment(&m, 4, &[fp(0, None)]),
            Err(ConflictError::MissingAssignment { op: 0 })
        );
    }

    #[test]
    fn fu_out_of_range_rejected() {
        let m = Machine::example_pldi95();
        assert!(matches!(
            check_fixed_assignment(&m, 4, &[fp(0, Some(5))]),
            Err(ConflictError::FuOutOfRange { fu: 5, .. })
        ));
    }

    #[test]
    fn offset_must_be_reduced() {
        let m = Machine::example_pldi95();
        assert!(matches!(
            check_fixed_assignment(&m, 4, &[fp(7, Some(0))]),
            Err(ConflictError::OffsetOutOfRange { offset: 7, .. })
        ));
    }

    #[test]
    fn capacity_check_allows_runtime_choice() {
        let m = Machine::example_pldi95();
        // Three FP ops at offsets 0, 0, 2 with 2 units at period 4:
        // issue stage demands: t0 x2, t2 x1 -> within capacity 2.
        let ops = [fp(0, None), fp(0, None), fp(2, None)];
        assert_eq!(check_capacity_only(&m, 4, &ops), Ok(()));
    }

    #[test]
    fn capacity_overflow_detected() {
        let m = Machine::example_pldi95();
        let ops = [fp(0, None), fp(0, None), fp(0, None)];
        match check_capacity_only(&m, 4, &ops) {
            Err(ConflictError::CapacityExceeded {
                used, available, ..
            }) => {
                assert_eq!((used, available), (3, 2));
            }
            other => panic!("expected capacity error, got {other:?}"),
        }
    }

    #[test]
    fn bundle_width_enforced_by_both_entry_points() {
        use crate::machine::BundleSpec;
        let m = Machine::example_clean()
            .with_bundle(BundleSpec::width(1))
            .unwrap();
        // Two ops issuing at the same residue on different units: clean
        // for the tables, rejected by the width-1 bundle.
        let ops = [fp(0, Some(0)), fp(0, Some(1))];
        let expected = Err(ConflictError::BundleExceeded {
            group: None,
            residue: 0,
            used: 2,
            cap: 1,
        });
        assert_eq!(check_fixed_assignment(&m, 4, &ops), expected);
        let unmapped = [fp(0, None), fp(0, None)];
        assert_eq!(check_capacity_only(&m, 4, &unmapped), expected);
        // Staggered issues pass everywhere.
        let ok = [fp(0, Some(0)), fp(1, Some(1))];
        assert_eq!(check_fixed_assignment(&m, 4, &ok), Ok(()));
    }

    #[test]
    fn slot_group_cap_enforced() {
        let m = Machine::example_vliw(); // width 2, mem (class 2) cap 1
        let mem = |offset, fu| PlacedOp {
            class: OpClass::new(2),
            offset,
            fu,
        };
        // Two memory issues in one cycle: inside width 2, outside mem cap 1.
        let ops = [mem(0, None), mem(0, None)];
        match check_capacity_only(&m, 4, &ops) {
            Err(ConflictError::BundleExceeded {
                group: Some(g),
                residue: 0,
                used: 2,
                cap: 1,
            }) => assert_eq!(g, "mem"),
            other => panic!("expected mem-group overflow, got {other:?}"),
        }
        // One memory + one int in the same cycle is fine.
        let ops = [
            mem(0, Some(0)),
            PlacedOp {
                class: OpClass::new(0),
                offset: 0,
                fu: Some(0),
            },
        ];
        assert_eq!(check_fixed_assignment(&m, 4, &ops), Ok(()));
    }

    #[test]
    fn greedy_assignment_round_trips_checker() {
        let m = Machine::example_pldi95();
        let mut ops = vec![fp(0, None), fp(2, None), fp(1, None)];
        let assign = greedy_assignment(&m, 4, &ops).expect("known classes");
        for (op, fu) in ops.iter_mut().zip(assign) {
            op.fu = Some(fu.expect("assignable"));
        }
        assert_eq!(check_fixed_assignment(&m, 4, &ops), Ok(()));
    }

    #[test]
    fn greedy_assignment_can_fail_where_capacity_passes() {
        // The paper's motivating gap: capacity fine, first-fit mapping
        // impossible. Non-pipelined FP (latency 2, 2 units) at period 6:
        // ops at offsets 0, 2, 4 fill one unit exactly, a second such
        // triple fills the other, and a seventh op fits nowhere.
        let m = Machine::example_non_pipelined();
        let mut ops = vec![fp(0, None), fp(2, None), fp(4, None)];
        ops.extend([fp(0, None), fp(2, None), fp(4, None)]);
        assert_eq!(check_capacity_only(&m, 6, &ops), Ok(()));
        let full = greedy_assignment(&m, 6, &ops).expect("known classes");
        assert!(full.iter().all(Option::is_some));
        ops.push(fp(1, None));
        let over = greedy_assignment(&m, 6, &ops).expect("known classes");
        assert_eq!(over[..6], full[..]);
        assert_eq!(over[6], None);
    }

    #[test]
    fn greedy_assignment_commits_carried_units_first() {
        // The op at offset 0 would take unit 0 under plain first-fit, but
        // the later op carries unit 0 at the same offset, so it is
        // committed first and the free op moves to unit 1.
        let m = Machine::example_non_pipelined();
        let ops = [fp(0, None), fp(0, Some(0))];
        assert_eq!(greedy_assignment(&m, 6, &ops), Ok(vec![Some(1), Some(0)]));
    }

    #[test]
    fn greedy_assignment_rejects_a_carried_unit_out_of_range() {
        let m = Machine::example_non_pipelined();
        let ops = [fp(0, None), fp(2, Some(2))];
        assert_eq!(
            greedy_assignment(&m, 6, &ops),
            Err(ConflictError::FuOutOfRange {
                op: 1,
                fu: 2,
                available: 2
            })
        );
    }
}
