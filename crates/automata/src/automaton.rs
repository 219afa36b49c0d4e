//! The per-`(machine, T)` hazard automaton and its memo registry.

use crate::bits;
use crate::matrix::CollisionMatrix;
use crate::stats;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use swp_ddg::{Ddg, OpClass};
use swp_loops::fingerprint::machine_fingerprint;
use swp_machine::{Machine, MachineError};

/// The structural-conflict tables of one machine at one period: the
/// pairwise [`CollisionMatrix`], and per class the forbidden-latency
/// closure and the per-unit packing capacity derived from it.
#[derive(Debug)]
pub struct HazardAutomaton {
    machine_fp: u64,
    period: u32,
    matrix: CollisionMatrix,
    /// `capacity[class]`: max operations of `class` one physical unit
    /// can carry per period without a stage collision. Equals
    /// `ReservationTable::max_ops_per_period` (max independent set in
    /// the circulant graph of the conflict vector).
    capacity: Vec<u32>,
    /// `closure[class]`: the forbidden-latency closure anchored at
    /// residue 0 — the OR of the conflict vector rotated to residue 0,
    /// i.e. exactly the root `forbidden` mask the packing search
    /// ([`max_ops_per_unit`]) starts from. Hoisted into the registry
    /// entry so `res_mii` and the CP structural propagator
    /// ([`Self::forbidden_closure`] / [`Self::or_forbidden_from`]) share
    /// one computation per `(machine, T)` instead of re-deriving it per
    /// node.
    closure: Vec<Box<[u64]>>,
}

type Registry = Mutex<HashMap<(u64, u32), Arc<HazardAutomaton>>>;

static REGISTRY: OnceLock<Registry> = OnceLock::new();

impl HazardAutomaton {
    /// Compiles the automaton for `machine` at `period` (no memo).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn build(machine: &Machine, period: u32) -> Self {
        stats::count_memo_build();
        let matrix = CollisionMatrix::build(machine, period);
        let mut capacity = Vec::with_capacity(matrix.num_classes());
        let mut closure = Vec::with_capacity(matrix.num_classes());
        for c in 0..matrix.num_classes() {
            let class = OpClass::new(c);
            let self_collides = matrix.self_collides(class).unwrap_or(true);
            let conflict = matrix.conflict_vector(c);
            // The forbidden-latency closure at residue 0 seeds both the
            // packing search below and the CP propagator's word-parallel
            // domain pruning; computing it once here is the whole point
            // of storing it on the registry entry.
            let mut root = vec![0u64; conflict.len()].into_boxed_slice();
            bits::or_rotated(&mut root, conflict, 0, period);
            capacity.push(max_ops_per_unit(conflict, &root, self_collides, period));
            closure.push(root);
        }
        HazardAutomaton {
            machine_fp: machine_fingerprint(machine),
            period,
            matrix,
            capacity,
            closure,
        }
    }

    /// Fetches the automaton for `(machine, period)` from the
    /// process-wide registry, building and interning it on first use.
    /// The key is `(machine_fingerprint, period)`, so every loop of a
    /// corpus run compiled against the same machine shares one
    /// automaton per candidate period.
    pub fn for_machine(machine: &Machine, period: u32) -> Arc<HazardAutomaton> {
        let fp = machine_fingerprint(machine);
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let mut guard = match registry.lock() {
            Ok(g) => g,
            // A panic while holding the lock can only have happened in
            // `HazardAutomaton::build`; the map itself is still sound.
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(existing) = guard.get(&(fp, period)) {
            stats::count_memo_hit();
            return Arc::clone(existing);
        }
        let built = Arc::new(HazardAutomaton::build(machine, period));
        guard.insert((fp, period), Arc::clone(&built));
        built
    }

    /// The period this automaton was compiled for.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// The fingerprint of the machine it was compiled from.
    pub fn machine_fingerprint(&self) -> u64 {
        self.machine_fp
    }

    /// The pairwise collision matrix.
    pub fn matrix(&self) -> &CollisionMatrix {
        &self.matrix
    }

    /// Max operations of `class` one unit carries per period, or `None`
    /// for an unknown class.
    pub fn max_ops_per_unit(&self, class: OpClass) -> Option<u32> {
        self.capacity.get(class.index()).copied()
    }

    /// The forbidden-latency closure of `class` anchored at residue 0:
    /// one bit per residue `d`, set iff an issue `d mod T` after an
    /// anchor issue on the same unit collides. Identical to the conflict
    /// vector closed under rotation to 0, precomputed at build time so
    /// consumers (the `ResMII` refinement, the CP structural propagator)
    /// never re-derive it per node. `None` for an unknown class.
    pub fn forbidden_closure(&self, class: OpClass) -> Option<&[u64]> {
        self.closure.get(class.index()).map(|c| &**c)
    }

    /// ORs the forbidden-latency closure of `class`, rotated so its
    /// anchor sits at residue `anchor`, into `dst` (one bit per residue,
    /// `words_for(T)` words). This is the CP propagator's bulk domain
    /// prune: after it, every set bit of `dst` is a residue where a new
    /// op of `class` would collide with an op already issued at `anchor`
    /// on the same unit. No-op for an unknown class.
    pub fn or_forbidden_from(&self, class: OpClass, anchor: u32, dst: &mut [u64]) {
        if let Some(closure) = self.closure.get(class.index()) {
            bits::or_rotated(dst, closure, anchor % self.period, self.period);
        }
    }

    /// Words needed for a residue mask at this automaton's period (the
    /// layout [`or_forbidden_from`](Self::or_forbidden_from) expects).
    pub fn mask_words(&self) -> usize {
        bits::words_for(self.period)
    }
}

/// Test-only: empties the memo registry so the next
/// [`HazardAutomaton::for_machine`] call builds from scratch.
/// Outstanding `Arc`s stay valid. Called by
/// [`stats::reset_for_test`](crate::stats::reset_for_test), which also
/// holds the serialization lock — use that entry point.
pub(crate) fn clear_registry_for_test() {
    if let Some(registry) = REGISTRY.get() {
        let mut guard = match registry.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.clear();
    }
}

/// Max independent set in the circulant graph `{r1 ~ r2 ⇔ C[(r1−r2) mod
/// T] = 1}`: the exact number of operations one unit carries per
/// period. Pairwise stage-disjointness is equivalent to joint
/// disjointness (a cell is multiply claimed iff some *pair* claims it),
/// so this matches `ReservationTable::max_ops_per_period` exactly —
/// including its rotation-symmetry normalization (residue 0 is in some
/// maximum packing, so it is fixed).
fn max_ops_per_unit(conflict: &[u64], closure: &[u64], self_collides: bool, period: u32) -> u32 {
    if self_collides {
        return 0;
    }
    // `closure` is the hoisted root mask (conflict vector rotated to
    // residue 0) shared with `HazardAutomaton::forbidden_closure`.
    let mut best = 1u32;
    pack_dfs(conflict, period, closure, 1, 1, &mut best);
    best
}

fn pack_dfs(
    conflict: &[u64],
    period: u32,
    forbidden: &[u64],
    next: u32,
    count: u32,
    best: &mut u32,
) {
    for r in next..period {
        // Even taking every remaining residue cannot beat the best.
        if count + (period - r) <= *best {
            return;
        }
        if bits::test(forbidden, r) {
            continue;
        }
        let mut extended = forbidden.to_vec();
        bits::or_rotated(&mut extended, conflict, r, period);
        let new_count = count + 1;
        if new_count > *best {
            *best = new_count;
        }
        pack_dfs(conflict, period, &extended, r + 1, new_count, best);
    }
}

/// The automaton-tightened resource bound `ResMII`: the counting bound
/// advanced past every period where some class's operations provably
/// cannot pack onto its units, with per-unit capacity read from the
/// memoized automaton instead of a fresh reservation-table search.
/// Structurally identical to [`Machine::t_res`] (same refinement loop,
/// same `+64` cap), so the two always agree — debug-asserted by
/// callers and pinned by the equivalence proptest.
///
/// # Errors
///
/// [`MachineError::UnknownClass`] if the DDG uses an undefined class.
pub fn res_mii(machine: &Machine, ddg: &Ddg) -> Result<u32, MachineError> {
    let mut bound = machine.t_res_counting(ddg)?;
    let cap = bound + 64;
    'refine: while bound < cap {
        let automaton = HazardAutomaton::for_machine(machine, bound);
        for class in ddg.classes() {
            let fu = machine.fu_type(class)?;
            let n_ops = ddg.nodes_of_class(class).len() as u32;
            if n_ops == 0 {
                continue;
            }
            let per_unit = automaton.max_ops_per_unit(class).unwrap_or(0);
            if n_ops > fu.count * per_unit {
                bound += 1;
                continue 'refine;
            }
        }
        break;
    }
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_reservation_table_search() {
        for machine in [
            Machine::example_pldi95(),
            Machine::example_clean(),
            Machine::example_non_pipelined(),
            Machine::ppc604(),
        ] {
            for period in 1u32..=12 {
                let automaton = HazardAutomaton::build(&machine, period);
                for (c, t) in machine.types().iter().enumerate() {
                    assert_eq!(
                        automaton.max_ops_per_unit(OpClass::new(c)),
                        Some(t.reservation.max_ops_per_period(period)),
                        "class {c} at T={period}"
                    );
                }
            }
        }
    }

    #[test]
    fn registry_returns_shared_instances() {
        // The reset guard clears the process-global registry and zeroes
        // the counters, so the build/hit sequence below is exact even
        // when other suites in this process already interned (machine,
        // 7) — no ad-hoc snapshot/delta arithmetic needed.
        let _guard = stats::reset_for_test();
        let machine = Machine::example_pldi95();
        let a = HazardAutomaton::for_machine(&machine, 7);
        let b = HazardAutomaton::for_machine(&machine, 7);
        assert!(Arc::ptr_eq(&a, &b));
        let after = stats::snapshot();
        assert!(after.memo_hits >= 1, "second fetch must be a memo hit");
        assert!(after.memo_builds >= 1, "first fetch must build");
    }

    #[test]
    fn hoisted_closure_matches_matrix_and_rotates_correctly() {
        for machine in [
            Machine::example_pldi95(),
            Machine::example_clean(),
            Machine::example_non_pipelined(),
            Machine::ppc604(),
        ] {
            for period in [2u32, 4, 7, 13] {
                let a = HazardAutomaton::build(&machine, period);
                for c in 0..machine.num_classes() {
                    let class = OpClass::new(c);
                    let closure = a.forbidden_closure(class).expect("known class");
                    // Bit d of the hoisted closure must equal the
                    // pairwise matrix verdict at delta d.
                    for d in 0..period {
                        assert_eq!(
                            crate::bits::test(closure, d),
                            a.matrix().collides(class, class, d) == Some(true),
                            "class {c} T={period} delta {d}"
                        );
                    }
                    // The rotated form anchors the closure at `anchor`:
                    // bit r set iff (r - anchor) mod T collides.
                    for anchor in 0..period {
                        let mut mask = vec![0u64; a.mask_words()];
                        a.or_forbidden_from(class, anchor, &mut mask);
                        for r in 0..period {
                            let delta = (r + period - anchor) % period;
                            assert_eq!(
                                crate::bits::test(&mask, r),
                                a.matrix().collides(class, class, delta) == Some(true),
                                "class {c} T={period} anchor {anchor} residue {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn registry_never_aliases_distinct_bundle_widths() {
        // Regression: the registry memoizes per (machine fingerprint, T).
        // Two machines that differ only in their VLIW issue width must
        // hash differently, or the second would be served the first's
        // automaton (and, worse, the harness result cache built on the
        // same fingerprint would serve the wrong cached verdicts).
        use swp_machine::BundleSpec;
        let w2 = Machine::example_clean()
            .with_bundle(BundleSpec::width(2))
            .unwrap();
        let w3 = Machine::example_clean()
            .with_bundle(BundleSpec::width(3))
            .unwrap();
        let a2 = HazardAutomaton::for_machine(&w2, 4);
        let a3 = HazardAutomaton::for_machine(&w3, 4);
        assert_ne!(
            a2.machine_fingerprint(),
            a3.machine_fingerprint(),
            "widths 2 and 3 alias at T=4"
        );
        assert!(!Arc::ptr_eq(&a2, &a3), "registry interned one automaton");
        // Same width at the same T still shares one entry.
        let again = HazardAutomaton::for_machine(&w2, 4);
        assert!(Arc::ptr_eq(&a2, &again));
    }
}
