//! Pairwise modulo collision matrices.
//!
//! For a period `T`, class `r`'s **cyclic conflict vector** `C_r` has
//! bit `d` set iff two operations of class `r` issued `d (mod T)` apart
//! on the *same* physical unit occupy some pipeline stage in the same
//! cycle. Formally, with `L_s` the marked offsets of stage `s`:
//!
//! ```text
//! C_r[d] = 1  ⇔  ∃ s, l1 ∈ L_s, l2 ∈ L_s :  l1 − l2 ≡ d (mod T)
//! ```
//!
//! Taking `l1 = l2` shows bit 0 is always set for a non-empty table
//! (two distinct operations at the same residue always collide), and
//! swapping `l1`/`l2` shows `C_r` is symmetric under negation mod `T`.
//!
//! The full pairwise matrix `M[a][b][d]` of the issue spec degenerates:
//! units are per-class in this machine model, so operations of distinct
//! classes never share a physical unit and every off-diagonal entry is
//! `false`. [`CollisionMatrix::collides`] keeps the two-class signature
//! for that reason, but only the diagonal stores bits.

use crate::bits;
use crate::stats;
use swp_ddg::OpClass;
use swp_machine::Machine;

/// All per-class cyclic conflict vectors of one machine at one period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollisionMatrix {
    period: u32,
    /// `conflict[class]` is the packed conflict vector `C_class`.
    conflict: Vec<Box<[u64]>>,
    /// Whether a *single* operation of this class collides with its own
    /// periodic repetitions at this period (`!modulo_feasible`): the
    /// class cannot be scheduled at all at this `T`.
    self_collides: Vec<bool>,
}

impl CollisionMatrix {
    /// Builds the conflict vectors of every class of `machine` at
    /// `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` (no modulo schedule has period zero).
    pub fn build(machine: &Machine, period: u32) -> Self {
        assert!(period > 0, "collision matrix needs a positive period");
        let words = bits::words_for(period);
        let mut conflict = Vec::with_capacity(machine.num_classes());
        let mut self_collides = Vec::with_capacity(machine.num_classes());
        for t in machine.types() {
            let rt = &t.reservation;
            let mut c = vec![0u64; words].into_boxed_slice();
            for s in 0..rt.stages() {
                let offs = rt.stage_offsets(s);
                for &l1 in &offs {
                    for &l2 in &offs {
                        let d = (l1 as i64 - l2 as i64).rem_euclid(i64::from(period));
                        bits::set(&mut c, d as u32);
                    }
                }
            }
            conflict.push(c);
            self_collides.push(!rt.modulo_feasible(period));
        }
        CollisionMatrix {
            period,
            conflict,
            self_collides,
        }
    }

    /// The period this matrix was compiled for.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Number of classes covered.
    pub fn num_classes(&self) -> usize {
        self.conflict.len()
    }

    /// Whether two operations of classes `a` and `b` on the same
    /// physical unit, issued `delta` cycles apart (any integer distance;
    /// reduced mod `T` here), collide on some stage.
    ///
    /// Returns `None` if either class is outside this machine.
    #[inline]
    pub fn collides(&self, a: OpClass, b: OpClass, delta: u32) -> Option<bool> {
        stats::count_matrix_queries(1);
        if a.index() >= self.conflict.len() || b.index() >= self.conflict.len() {
            return None;
        }
        if a != b {
            // Distinct classes never share a unit in this machine model.
            return Some(false);
        }
        Some(bits::test(&self.conflict[a.index()], delta % self.period))
    }

    /// Whether one operation of `class` collides with its own periodic
    /// repetitions (the class is infeasible at this period).
    pub fn self_collides(&self, class: OpClass) -> Option<bool> {
        self.self_collides.get(class.index()).copied()
    }

    /// The packed conflict vector of `class` (one bit per residue).
    pub(crate) fn conflict_vector(&self, class_index: usize) -> &[u64] {
        &self.conflict[class_index]
    }

    /// Number of forbidden residues of `class` (popcount of `C`).
    pub fn forbidden_count(&self, class: OpClass) -> Option<u32> {
        self.conflict.get(class.index()).map(|c| bits::count(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_machine::Machine;

    const FP: OpClass = OpClass::new(1);
    const INT: OpClass = OpClass::new(0);

    #[test]
    fn pldi95_fp_conflict_vector() {
        // PLDI'95 FP table: stage 0 at offset 0, stage 1 at offsets
        // {1, 2}, stage 2 at offset 2. Stage 1 gives deltas ±1 and 0.
        let m = Machine::example_pldi95();
        let cm = CollisionMatrix::build(&m, 4);
        assert_eq!(cm.collides(FP, FP, 0), Some(true));
        assert_eq!(cm.collides(FP, FP, 1), Some(true));
        assert_eq!(cm.collides(FP, FP, 3), Some(true)); // -1 mod 4
        assert_eq!(cm.collides(FP, FP, 2), Some(false));
        // Deltas reduce mod T.
        assert_eq!(cm.collides(FP, FP, 6), Some(false));
        assert_eq!(cm.collides(FP, FP, 5), Some(true));
    }

    #[test]
    fn cross_class_never_collides() {
        let m = Machine::example_pldi95();
        let cm = CollisionMatrix::build(&m, 4);
        assert_eq!(cm.collides(INT, FP, 0), Some(false));
        assert_eq!(cm.collides(FP, INT, 3), Some(false));
        assert_eq!(cm.collides(OpClass::new(9), FP, 0), None);
    }

    #[test]
    fn clean_table_conflicts_only_at_zero() {
        let m = Machine::example_clean();
        let cm = CollisionMatrix::build(&m, 8);
        for c in 0..m.num_classes() {
            let class = OpClass::new(c);
            assert_eq!(cm.collides(class, class, 0), Some(true));
            for d in 1..8 {
                assert_eq!(cm.collides(class, class, d), Some(false));
            }
            assert_eq!(cm.self_collides(class), Some(false));
        }
    }

    #[test]
    fn non_pipelined_table_conflicts_everywhere_below_exec_time() {
        let m = Machine::example_non_pipelined();
        let cm = CollisionMatrix::build(&m, 8);
        // Single stage occupied for offsets {0, 1}: deltas {0, ±1}.
        let fp = OpClass::new(1);
        assert_eq!(cm.collides(fp, fp, 0), Some(true));
        assert_eq!(cm.collides(fp, fp, 1), Some(true));
        assert_eq!(cm.collides(fp, fp, 7), Some(true));
        assert_eq!(cm.collides(fp, fp, 2), Some(false));
    }

    #[test]
    fn self_collision_detected_at_tight_period() {
        // A non-pipelined 2-cycle table wraps onto itself at T = 1.
        let m = Machine::example_non_pipelined();
        let cm = CollisionMatrix::build(&m, 1);
        assert_eq!(cm.self_collides(OpClass::new(1)), Some(true));
    }

    #[test]
    fn conflict_vector_is_symmetric() {
        let m = Machine::ppc604();
        for t in [2u32, 4, 8, 16, 67] {
            let cm = CollisionMatrix::build(&m, t);
            for c in 0..m.num_classes() {
                let class = OpClass::new(c);
                for d in 0..t {
                    assert_eq!(
                        cm.collides(class, class, d),
                        cm.collides(class, class, (t - d) % t),
                        "C must be symmetric under negation mod T"
                    );
                }
            }
        }
    }
}
