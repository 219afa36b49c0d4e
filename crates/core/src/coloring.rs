//! Circular-arc overlap graphs and exact coloring (paper §4.2, Figure 4).
//!
//! In the repetitive pattern, an operation's occupancy of its unit type
//! is a set of *circular arcs* mod `T` (one per stage). Two operations of
//! the same class can share a physical unit iff their arcs are disjoint;
//! assigning units is therefore circular-arc graph coloring \[10\].
//!
//! Inside the ILP this coloring is expressed with linear constraints
//! (see [`crate::formulation`]). This module provides the *external*
//! view: build the overlap graph of an already-placed pattern and color
//! it exactly by backtracking. It is used to
//!
//! * regenerate Figure 4;
//! * decide whether a capacity-feasible schedule (run-time unit choice)
//!   admits any fixed assignment at all — the paper's Table 1 vs. 2 gap;
//! * map heuristic schedules after the fact.

use std::collections::HashMap;
use swp_ddg::OpClass;
use swp_machine::{Machine, PlacedOp};

/// The pairwise overlap structure of same-class operations in a pattern.
#[derive(Debug, Clone)]
pub struct OverlapGraph {
    /// Number of operations (indices align with the input slice).
    n: usize,
    adj: Vec<Vec<usize>>,
    classes: Vec<OpClass>,
    capacity: Vec<u32>,
}

impl OverlapGraph {
    /// Builds the overlap graph of `ops` at the given period.
    ///
    /// Two ops overlap iff they have the same class and occupy a common
    /// `(stage, residue)` cell. Ops whose table self-collides at this
    /// period overlap *themselves* and make the graph uncolorable; they
    /// are recorded as self-edges.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or an op's class is unknown to `machine`.
    pub fn build(machine: &Machine, period: u32, ops: &[PlacedOp]) -> OverlapGraph {
        assert!(period > 0, "period must be positive");
        let mut cell_owners: HashMap<(usize, usize, u32), Vec<usize>> = HashMap::new();
        let mut classes = Vec::with_capacity(ops.len());
        let mut capacity = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let fu = machine.fu_type(op.class).expect("known class");
            classes.push(op.class);
            capacity.push(fu.count);
            let rt = &fu.reservation;
            for s in 0..rt.stages() {
                for l in rt.stage_offsets(s) {
                    let residue = (op.offset + l as u32) % period;
                    cell_owners
                        .entry((op.class.index(), s, residue))
                        .or_default()
                        .push(i);
                }
            }
        }
        let n = ops.len();
        let mut adj = vec![Vec::new(); n];
        for owners in cell_owners.values() {
            for (x, &i) in owners.iter().enumerate() {
                for &j in &owners[x..] {
                    // j == i (listed twice in one cell) marks self-collision.
                    if i == j {
                        continue;
                    }
                    if !adj[i].contains(&j) {
                        adj[i].push(j);
                        adj[j].push(i);
                    }
                }
            }
            // Self-collision: the same op occupies one cell twice.
            let mut seen = HashMap::new();
            for &i in owners {
                *seen.entry(i).or_insert(0u32) += 1;
            }
            for (&i, &count) in &seen {
                if count > 1 && !adj[i].contains(&i) {
                    adj[i].push(i);
                }
            }
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        OverlapGraph {
            n,
            adj,
            classes,
            capacity,
        }
    }

    /// Number of operations.
    pub fn num_ops(&self) -> usize {
        self.n
    }

    /// Ops overlapping op `i` (sorted; may include `i` for self-conflict).
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adj[i]
    }

    /// Whether `i` and `j` overlap.
    pub fn overlaps(&self, i: usize, j: usize) -> bool {
        self.adj[i].binary_search(&j).is_ok()
    }

    /// Exact coloring by backtracking: assigns each op a unit index in
    /// `0..capacity(class)` such that overlapping ops differ. Returns
    /// `None` if no assignment exists (including any self-conflict).
    ///
    /// Exponential in the worst case; the per-class cliques arising from
    /// loop patterns are small, and the search orders ops by degree.
    pub fn color(&self) -> Option<Vec<u32>> {
        if (0..self.n).any(|i| self.adj[i].binary_search(&i).is_ok()) {
            return None;
        }
        // Order by descending degree (fail-first).
        let mut order: Vec<usize> = (0..self.n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.adj[i].len()));
        let mut colors: Vec<Option<u32>> = vec![None; self.n];
        if self.assign(&order, 0, &mut colors) {
            Some(colors.into_iter().map(|c| c.expect("complete")).collect())
        } else {
            None
        }
    }

    fn assign(&self, order: &[usize], pos: usize, colors: &mut Vec<Option<u32>>) -> bool {
        let Some(&i) = order.get(pos) else {
            return true;
        };
        'c: for c in 0..self.capacity[i] {
            for &j in &self.adj[i] {
                if self.classes[j] == self.classes[i] && colors[j] == Some(c) {
                    continue 'c;
                }
            }
            colors[i] = Some(c);
            if self.assign(order, pos + 1, colors) {
                return true;
            }
            colors[i] = None;
        }
        false
    }

    /// The chromatic demand per class: the minimum units needed for this
    /// placement, found by trying successively larger capacities.
    /// Returns `None` if some op self-conflicts.
    pub fn min_units(&self) -> Option<HashMap<OpClass, u32>> {
        if (0..self.n).any(|i| self.adj[i].binary_search(&i).is_ok()) {
            return None;
        }
        let mut demand: HashMap<OpClass, u32> = HashMap::new();
        let mut distinct: Vec<OpClass> = self.classes.clone();
        distinct.sort();
        distinct.dedup();
        for class in distinct {
            let members: Vec<usize> = (0..self.n).filter(|&i| self.classes[i] == class).collect();
            let mut k = 1u32;
            loop {
                let mut sub = self.clone();
                for &i in &members {
                    sub.capacity[i] = k;
                }
                // Color only considering this class (others get capacity
                // as-is; cross-class edges never exist anyway).
                if sub.color_class(&members, k) {
                    break;
                }
                k += 1;
                if k > members.len() as u32 {
                    break; // n colors always suffice for n arcs
                }
            }
            demand.insert(class, k);
        }
        Some(demand)
    }

    fn color_class(&self, members: &[usize], k: u32) -> bool {
        let mut colors: Vec<Option<u32>> = vec![None; self.n];
        self.assign_class(members, 0, k, &mut colors)
    }

    fn assign_class(
        &self,
        members: &[usize],
        pos: usize,
        k: u32,
        colors: &mut Vec<Option<u32>>,
    ) -> bool {
        let Some(&i) = members.get(pos) else {
            return true;
        };
        'c: for c in 0..k {
            for &j in &self.adj[i] {
                if colors[j] == Some(c) {
                    continue 'c;
                }
            }
            colors[i] = Some(c);
            if self.assign_class(members, pos + 1, k, colors) {
                return true;
            }
            colors[i] = None;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_machine::Machine;

    fn fp(offset: u32) -> PlacedOp {
        PlacedOp {
            class: OpClass::new(1),
            offset,
            fu: None,
        }
    }

    #[test]
    fn non_overlapping_ops_one_unit() {
        // Non-pipelined lat 2 at period 4: offsets 0 and 2 are disjoint.
        let m = Machine::example_non_pipelined();
        let g = OverlapGraph::build(&m, 4, &[fp(0), fp(2)]);
        assert!(!g.overlaps(0, 1));
        assert_eq!(g.min_units().unwrap()[&OpClass::new(1)], 1);
    }

    #[test]
    fn wrapping_arcs_overlap() {
        // Non-pipelined lat 2: offset 3 wraps to {3, 0}, clashing with
        // offset 0's {0, 1}.
        let m = Machine::example_non_pipelined();
        let g = OverlapGraph::build(&m, 4, &[fp(0), fp(3)]);
        assert!(g.overlaps(0, 1));
        let colors = g.color().expect("2 units available");
        assert_ne!(colors[0], colors[1]);
    }

    #[test]
    fn triangle_exceeds_two_units() {
        // Three pairwise-overlapping arcs need 3 colors but FP has 2.
        let m = Machine::example_non_pipelined();
        let g = OverlapGraph::build(&m, 2, &[fp(0), fp(0), fp(1)]);
        // At period 2 a lat-2 non-pipelined op fills the whole period:
        // everything overlaps everything.
        assert!(g.color().is_none());
        assert_eq!(g.min_units().unwrap()[&OpClass::new(1)], 3);
    }

    #[test]
    fn self_collision_blocks_coloring() {
        // Non-pipelined lat 2 at period 1: the op collides with itself.
        let m = Machine::example_non_pipelined();
        let g = OverlapGraph::build(&m, 1, &[fp(0)]);
        assert!(g.color().is_none());
        assert!(g.min_units().is_none());
    }

    #[test]
    fn hazard_stage_drives_overlap() {
        // PLDI'95 FP table: stage 3 at offsets {1, 2}. Ops at offsets 0
        // and 1 collide (stage-3 uses {1,2} vs {2,3}); ops at 0 and 2 do
        // not ({1,2} vs {3,0}).
        let m = Machine::example_pldi95();
        let g = OverlapGraph::build(&m, 4, &[fp(0), fp(1), fp(2)]);
        assert!(g.overlaps(0, 1));
        assert!(!g.overlaps(0, 2));
        assert!(g.overlaps(1, 2));
        let colors = g.color().expect("colorable with 2 units");
        assert_ne!(colors[0], colors[1]);
        assert_ne!(colors[1], colors[2]);
    }

    #[test]
    fn classes_do_not_interfere() {
        let m = Machine::example_non_pipelined();
        let ld = PlacedOp {
            class: OpClass::new(2),
            offset: 0,
            fu: None,
        };
        let g = OverlapGraph::build(&m, 4, &[fp(0), ld]);
        assert!(!g.overlaps(0, 1));
    }
}
