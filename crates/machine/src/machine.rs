//! Machine descriptions: function-unit types and period bounds.

use crate::restable::ReservationTable;
use std::error::Error;
use std::fmt;
use swp_ddg::{Ddg, OpClass};

/// One function-unit type: `count` identical physical copies, each
/// described by the same reservation table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuType {
    /// Human-readable name ("FP", "Load/Store", …).
    pub name: String,
    /// Number of physical copies `R_r`.
    pub count: u32,
    /// Result latency `d_i` for dependence purposes.
    pub latency: u32,
    /// Stage-occupancy pattern of one operation.
    pub reservation: ReservationTable,
}

/// Errors raised by machine construction or queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// A DDG referenced a class index this machine does not define.
    UnknownClass(OpClass),
    /// A function-unit type was declared with zero copies.
    NoUnits(String),
    /// An issue-bundle specification is malformed (zero width, empty or
    /// out-of-range slot group, zero cap).
    BadBundle(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::UnknownClass(c) => write!(f, "machine has no unit type for {c}"),
            MachineError::NoUnits(n) => write!(f, "unit type `{n}` has zero copies"),
            MachineError::BadBundle(why) => write!(f, "bad issue bundle: {why}"),
        }
    }
}

impl Error for MachineError {}

/// One named slot group of a VLIW issue bundle: at most `cap`
/// operations whose class is in `classes` may issue in any one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotGroup {
    /// Human-readable name ("mem", "fp", …).
    pub name: String,
    /// Per-cycle issue cap for member classes combined.
    pub cap: u32,
    /// Member class indices (into [`Machine::types`]).
    pub classes: Vec<usize>,
}

/// Per-cycle issue-bundle constraints of a VLIW-style target: a total
/// issue width plus optional slot-class groups. In a modulo schedule
/// with period `T` the steady-state issues of cycle `c` are exactly the
/// operations with `t_i ≡ c (mod T)`, so the bundle constrains the
/// number of start times per residue — a synthetic shared resource next
/// to the per-unit reservation tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleSpec {
    /// Total operations that may issue in one cycle.
    pub width: u32,
    /// Slot-class groups, each capping a subset of classes.
    pub groups: Vec<SlotGroup>,
}

impl BundleSpec {
    /// A bundle with only a total width, no slot groups.
    pub fn width(width: u32) -> Self {
        BundleSpec {
            width,
            groups: Vec::new(),
        }
    }

    /// The per-cycle issue limits as `(cap, member-filter)` rows: the
    /// total width over all classes, then each slot group. `None`
    /// means "every class counts".
    pub fn limits(&self) -> impl Iterator<Item = (u32, Option<&[usize]>)> {
        std::iter::once((self.width, None)).chain(
            self.groups
                .iter()
                .map(|g| (g.cap, Some(g.classes.as_slice()))),
        )
    }
}

/// A target machine: an indexed list of function-unit types.
/// [`OpClass::index`] of a DDG node selects into this list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    types: Vec<FuType>,
    bundle: Option<BundleSpec>,
}

impl Machine {
    /// Creates a machine from unit types.
    ///
    /// # Errors
    ///
    /// [`MachineError::NoUnits`] if any type has `count == 0`.
    pub fn new(types: Vec<FuType>) -> Result<Self, MachineError> {
        for t in &types {
            if t.count == 0 {
                return Err(MachineError::NoUnits(t.name.clone()));
            }
        }
        Ok(Machine {
            types,
            bundle: None,
        })
    }

    /// Attaches VLIW issue-bundle constraints to this machine.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadBundle`] if the width or any slot-group cap is
    /// zero, a group has no member classes or a duplicate member, or a
    /// member class index is out of range.
    pub fn with_bundle(mut self, bundle: BundleSpec) -> Result<Self, MachineError> {
        if bundle.width == 0 {
            return Err(MachineError::BadBundle("issue width is zero".into()));
        }
        for g in &bundle.groups {
            if g.cap == 0 {
                return Err(MachineError::BadBundle(format!(
                    "slot group `{}` has cap zero",
                    g.name
                )));
            }
            if g.classes.is_empty() {
                return Err(MachineError::BadBundle(format!(
                    "slot group `{}` has no member classes",
                    g.name
                )));
            }
            let mut seen = vec![false; self.types.len()];
            for &c in &g.classes {
                if c >= self.types.len() {
                    return Err(MachineError::BadBundle(format!(
                        "slot group `{}` references class {c} of {}",
                        g.name,
                        self.types.len()
                    )));
                }
                if seen[c] {
                    return Err(MachineError::BadBundle(format!(
                        "slot group `{}` lists class {c} twice",
                        g.name
                    )));
                }
                seen[c] = true;
            }
        }
        self.bundle = Some(bundle);
        Ok(self)
    }

    /// The issue-bundle constraints, if this is a VLIW-style target.
    pub fn bundle(&self) -> Option<&BundleSpec> {
        self.bundle.as_ref()
    }

    /// Number of unit types (classes).
    pub fn num_classes(&self) -> usize {
        self.types.len()
    }

    /// The unit type for `class`.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownClass`] if the index is out of range.
    pub fn fu_type(&self, class: OpClass) -> Result<&FuType, MachineError> {
        self.types
            .get(class.index())
            .ok_or(MachineError::UnknownClass(class))
    }

    /// All unit types in class order.
    pub fn types(&self) -> &[FuType] {
        &self.types
    }

    /// The dependence latency of `class` operations.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownClass`] if the index is out of range.
    pub fn latency(&self, class: OpClass) -> Result<u32, MachineError> {
        Ok(self.fu_type(class)?.latency)
    }

    /// The resource lower bound `T_res` for scheduling `ddg` here.
    ///
    /// For each class `r` with `N_r` operations, each operation occupies
    /// stage `s` for `marks_r(s)` cycles per period, and the class has
    /// `R_r` copies, so `T ≥ ⌈N_r · marks_r(s) / R_r⌉` for every stage.
    /// Fixed FU assignment additionally requires each table to repeat
    /// without self-collision, so `T` is also at least each used class's
    /// [`ReservationTable::min_self_period`].
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownClass`] if the DDG uses an undefined class.
    pub fn t_res(&self, ddg: &Ddg) -> Result<u32, MachineError> {
        let mut bound = self.t_res_counting(ddg)?;
        // Packing refinement: advance past periods where some class's
        // operations provably cannot pack onto its units (exact per-unit
        // capacity, see `ReservationTable::max_ops_per_period`). Only
        // infeasible periods are skipped, so this stays a lower bound;
        // the cap guards against pathological non-monotone tables.
        let cap = bound + 64;
        while bound < cap && !self.classes_pack(ddg, bound)? {
            bound += 1;
        }
        Ok(bound)
    }

    /// The paper's original counting bound: busiest-stage demand divided
    /// by unit count, plus each used table's minimum self-period. This is
    /// what the paper's Table 4 buckets are measured against; [`Machine::t_res`]
    /// strengthens it with the exact packing capacity.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownClass`] if the DDG uses an undefined class.
    pub fn t_res_counting(&self, ddg: &Ddg) -> Result<u32, MachineError> {
        let mut bound = 1u32;
        for class in ddg.classes() {
            let fu = self.fu_type(class)?;
            let n_ops = ddg.nodes_of_class(class).len() as u32;
            for s in 0..fu.reservation.stages() {
                let marks = fu.reservation.stage_offsets(s).len() as u32;
                bound = bound.max((n_ops * marks).div_ceil(fu.count));
            }
            bound = bound.max(fu.reservation.min_self_period());
        }
        Ok(bound.max(self.bundle_bound(ddg)?))
    }

    /// The issue-bundle pigeonhole bound: every operation issues once
    /// per iteration, at most `width` per cycle (and at most `cap` per
    /// slot group), so `T ≥ ⌈N/width⌉` and `T ≥ ⌈N_g/cap_g⌉`. Returns
    /// `1` for machines without a bundle.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownClass`] if the DDG uses an undefined class.
    pub fn bundle_bound(&self, ddg: &Ddg) -> Result<u32, MachineError> {
        let Some(bundle) = &self.bundle else {
            return Ok(1);
        };
        let mut per_class = vec![0u32; self.types.len()];
        let mut total = 0u32;
        for class in ddg.classes() {
            self.fu_type(class)?;
            let n = ddg.nodes_of_class(class).len() as u32;
            per_class[class.index()] = n;
            total += n;
        }
        let mut bound = 1u32.max(total.div_ceil(bundle.width));
        for g in &bundle.groups {
            let members: u32 = g.classes.iter().map(|&c| per_class[c]).sum();
            bound = bound.max(members.div_ceil(g.cap));
        }
        Ok(bound)
    }

    /// The resource bound for the *run-time unit choice* relaxation
    /// (paper eq. (5) without fixed assignment): pure stage-demand
    /// counting, with no per-table self-period term — successive
    /// instances of one op may rotate across units.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownClass`] if the DDG uses an undefined class.
    pub fn t_res_capacity(&self, ddg: &Ddg) -> Result<u32, MachineError> {
        let mut bound = 1u32;
        for class in ddg.classes() {
            let fu = self.fu_type(class)?;
            let n_ops = ddg.nodes_of_class(class).len() as u32;
            for s in 0..fu.reservation.stages() {
                let marks = fu.reservation.stage_offsets(s).len() as u32;
                bound = bound.max((n_ops * marks).div_ceil(fu.count));
            }
        }
        Ok(bound.max(self.bundle_bound(ddg)?))
    }

    /// Whether every class's operations can, ignoring dependences, be
    /// packed onto its physical units at period `t` (a necessary
    /// condition for any schedule at `t`).
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownClass`] if the DDG uses an undefined class.
    pub fn classes_pack(&self, ddg: &Ddg, t: u32) -> Result<bool, MachineError> {
        for class in ddg.classes() {
            let fu = self.fu_type(class)?;
            let n_ops = ddg.nodes_of_class(class).len() as u32;
            if n_ops == 0 {
                continue;
            }
            if n_ops > fu.count * fu.reservation.max_ops_per_period(t) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The combined period lower bound `T_lb = max(T_dep, T_res)`.
    ///
    /// Returns `Ok(None)` when `T_dep` is undefined (zero-distance cycle).
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownClass`] if the DDG uses an undefined class.
    pub fn t_lower_bound(&self, ddg: &Ddg) -> Result<Option<u32>, MachineError> {
        let t_res = self.t_res(ddg)?;
        Ok(ddg.t_dep().map(|t_dep| t_dep.max(t_res)))
    }

    /// The machine of the paper's motivating example (§2, reconstructed):
    ///
    /// * class 0 `Int`: 1 unit, latency 1, clean;
    /// * class 1 `FP`: 2 units, latency 2, 3-stage pipeline whose third
    ///   stage is used at offsets 1 *and* 2 — the structural hazard of
    ///   Figure 2(d);
    /// * class 2 `Ld/St`: 1 unit, latency 3, clean.
    pub fn example_pldi95() -> Machine {
        Machine::new(vec![
            FuType {
                name: "Int".into(),
                count: 1,
                latency: 1,
                reservation: ReservationTable::clean(1),
            },
            FuType {
                name: "FP".into(),
                count: 2,
                latency: 2,
                reservation: ReservationTable::from_rows(&[
                    &[true, false, false],
                    &[false, true, false],
                    &[false, true, true],
                ])
                .expect("static table"),
            },
            FuType {
                name: "Ld/St".into(),
                count: 1,
                latency: 3,
                reservation: ReservationTable::clean(3),
            },
        ])
        .expect("static machine")
    }

    /// The same machine with *clean* pipelines everywhere — the baseline
    /// world of Govindarajan/Altman/Gao (MICRO '94), used to show what
    /// the hazard constraints add.
    pub fn example_clean() -> Machine {
        Machine::new(vec![
            FuType {
                name: "Int".into(),
                count: 1,
                latency: 1,
                reservation: ReservationTable::clean(1),
            },
            FuType {
                name: "FP".into(),
                count: 2,
                latency: 2,
                reservation: ReservationTable::clean(2),
            },
            FuType {
                name: "Ld/St".into(),
                count: 1,
                latency: 3,
                reservation: ReservationTable::clean(3),
            },
        ])
        .expect("static machine")
    }

    /// The same machine with FP and Ld/St *non-pipelined* — the setting
    /// of the paper's Problem 1 (§4).
    pub fn example_non_pipelined() -> Machine {
        Machine::new(vec![
            FuType {
                name: "Int".into(),
                count: 1,
                latency: 1,
                reservation: ReservationTable::clean(1),
            },
            FuType {
                name: "FP".into(),
                count: 2,
                latency: 2,
                reservation: ReservationTable::non_pipelined(2),
            },
            FuType {
                name: "Ld/St".into(),
                count: 1,
                latency: 3,
                reservation: ReservationTable::non_pipelined(3),
            },
        ])
        .expect("static machine")
    }

    /// A PowerPC-604-flavoured model, following the latencies the paper's
    /// evaluation borrows from the 604 Technical Summary \[14\]:
    ///
    /// * class 0 `SCIU` (simple integer, ×2): latency 1, clean;
    /// * class 1 `MCIU` (multi-cycle integer): multiply latency 4,
    ///   pipelined with a hazard (iteration stage reused);
    /// * class 2 `FPU`: latency 3, 3-stage pipeline with a hazard on the
    ///   normalize stage;
    /// * class 3 `LSU` (load/store): latency 3, clean 2-stage;
    /// * class 4 `FDIV` (divide, shares FPU silicon on the 604 — modeled
    ///   as one non-pipelined unit): latency 18;
    /// * class 5 `BPU` (branch): latency 1, clean.
    pub fn ppc604() -> Machine {
        Machine::new(vec![
            FuType {
                name: "SCIU".into(),
                count: 2,
                latency: 1,
                reservation: ReservationTable::clean(1),
            },
            FuType {
                name: "MCIU".into(),
                count: 1,
                latency: 4,
                reservation: ReservationTable::from_rows(&[
                    &[true, false, false, false],
                    &[false, true, true, false],
                    &[false, false, false, true],
                ])
                .expect("static table"),
            },
            FuType {
                name: "FPU".into(),
                count: 1,
                latency: 3,
                reservation: ReservationTable::from_rows(&[
                    &[true, false, false],
                    &[false, true, false],
                    &[false, true, true],
                ])
                .expect("static table"),
            },
            FuType {
                name: "LSU".into(),
                count: 1,
                latency: 3,
                reservation: ReservationTable::from_rows(&[
                    &[true, false, false],
                    &[false, true, false],
                ])
                .expect("static table"),
            },
            FuType {
                name: "FDIV".into(),
                count: 1,
                latency: 18,
                reservation: ReservationTable::non_pipelined(18),
            },
            FuType {
                name: "BPU".into(),
                count: 1,
                latency: 1,
                reservation: ReservationTable::clean(1),
            },
        ])
        .expect("static machine")
    }

    /// A VLIW flavour of the clean example machine: the same three unit
    /// types behind a 2-wide issue bundle whose single slot group lets
    /// only one memory operation (`Ld/St`) issue per cycle.
    pub fn example_vliw() -> Machine {
        Machine::example_clean()
            .with_bundle(BundleSpec {
                width: 2,
                groups: vec![SlotGroup {
                    name: "mem".into(),
                    cap: 1,
                    classes: vec![2],
                }],
            })
            .expect("static bundle")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_fp_ddg() -> Ddg {
        let mut g = Ddg::new();
        let a = g.add_node("a", OpClass::new(1), 2);
        let b = g.add_node("b", OpClass::new(1), 2);
        g.add_edge(a, b, 0).unwrap();
        g
    }

    #[test]
    fn zero_count_rejected() {
        let err = Machine::new(vec![FuType {
            name: "X".into(),
            count: 0,
            latency: 1,
            reservation: ReservationTable::clean(1),
        }])
        .unwrap_err();
        assert_eq!(err, MachineError::NoUnits("X".into()));
    }

    #[test]
    fn unknown_class_detected() {
        let m = Machine::example_clean();
        let mut g = Ddg::new();
        g.add_node("z", OpClass::new(9), 1);
        assert_eq!(
            m.t_res(&g).unwrap_err(),
            MachineError::UnknownClass(OpClass::new(9))
        );
    }

    #[test]
    fn t_res_clean_counts_ops_per_unit() {
        // 2 FP ops on 2 clean FP units -> T_res 1.
        let m = Machine::example_clean();
        assert_eq!(m.t_res(&two_fp_ddg()).unwrap(), 1);
    }

    #[test]
    fn t_res_non_pipelined_scales_with_latency() {
        // 2 FP ops, non-pipelined lat 2, 2 units -> ceil(2*2/2) = 2.
        let m = Machine::example_non_pipelined();
        assert_eq!(m.t_res(&two_fp_ddg()).unwrap(), 2);
    }

    #[test]
    fn t_res_hazard_counts_busiest_stage() {
        // Hazard FP: stage 3 has 2 marks; 2 ops on 2 units ->
        // max(ceil(2*2/2), min_self_period=2) = 2.
        let m = Machine::example_pldi95();
        assert_eq!(m.t_res(&two_fp_ddg()).unwrap(), 2);
    }

    #[test]
    fn t_lower_bound_combines_dep_and_res() {
        let m = Machine::example_clean();
        let mut g = two_fp_ddg();
        // add a strong recurrence: self-loop lat 2 / dist 1 on node 0 -> T_dep 2.
        let ids: Vec<_> = g.node_ids().collect();
        g.add_edge(ids[0], ids[0], 1).unwrap();
        assert_eq!(m.t_lower_bound(&g).unwrap(), Some(2));
    }

    #[test]
    fn example_machines_are_consistent() {
        for m in [
            Machine::example_pldi95(),
            Machine::example_clean(),
            Machine::example_non_pipelined(),
            Machine::ppc604(),
        ] {
            for t in m.types() {
                assert!(t.count > 0);
                assert!(t.latency > 0);
                assert!(t.reservation.exec_time() > 0);
            }
        }
    }

    #[test]
    fn bad_bundles_rejected() {
        let zero_width = Machine::example_clean().with_bundle(BundleSpec::width(0));
        assert!(matches!(zero_width, Err(MachineError::BadBundle(_))));
        let out_of_range = Machine::example_clean().with_bundle(BundleSpec {
            width: 2,
            groups: vec![SlotGroup {
                name: "g".into(),
                cap: 1,
                classes: vec![7],
            }],
        });
        assert!(matches!(out_of_range, Err(MachineError::BadBundle(_))));
        let dup = Machine::example_clean().with_bundle(BundleSpec {
            width: 2,
            groups: vec![SlotGroup {
                name: "g".into(),
                cap: 1,
                classes: vec![0, 0],
            }],
        });
        assert!(matches!(dup, Err(MachineError::BadBundle(_))));
    }

    #[test]
    fn bundle_bound_tightens_t_res() {
        // 2 FP ops on 2 clean FP units is T_res 1 without a bundle;
        // a width-1 bundle forces one issue per cycle -> T_res 2.
        let m = Machine::example_clean()
            .with_bundle(BundleSpec::width(1))
            .unwrap();
        assert_eq!(m.bundle_bound(&two_fp_ddg()).unwrap(), 2);
        assert_eq!(m.t_res(&two_fp_ddg()).unwrap(), 2);
        assert_eq!(m.t_res_capacity(&two_fp_ddg()).unwrap(), 2);
    }

    #[test]
    fn slot_group_bound_counts_members() {
        // Group capping FP at 1/cycle: 2 FP ops -> T >= 2 even at width 4.
        let m = Machine::example_clean()
            .with_bundle(BundleSpec {
                width: 4,
                groups: vec![SlotGroup {
                    name: "fp".into(),
                    cap: 1,
                    classes: vec![1],
                }],
            })
            .unwrap();
        assert_eq!(m.bundle_bound(&two_fp_ddg()).unwrap(), 2);
    }

    #[test]
    fn ppc604_divide_is_slow_and_exclusive() {
        let m = Machine::ppc604();
        let fdiv = m.fu_type(OpClass::new(4)).unwrap();
        assert_eq!(fdiv.latency, 18);
        assert_eq!(fdiv.reservation.min_self_period(), 18);
    }
}
