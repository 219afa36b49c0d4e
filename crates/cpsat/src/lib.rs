//! Constraint-propagation exact backend for scheduling-and-mapping.
//!
//! This crate decides the *same* question as the ILP formulation in
//! `swp-core` — "does a modulo schedule with a valid unit mapping exist
//! at period `T`?" — with a different exact method: depth-first search
//! over MRT **row/offset assignments** (one residue `o_i = t_i mod T`
//! per operation) and **unit colors** for the classes where mapping can
//! bind, driven to a fixpoint after every decision by four propagators:
//!
//! 1. **Dependence bounds** — interval propagation of the difference
//!    constraints `t_j − t_i ≥ d_i − T·m_ij` over `[lo_i, hi_i]` boxes
//!    (longest-path tightening, the CP analogue of the ILP's dependence
//!    rows plus its earliest-start potentials).
//! 2. **Congruence sync** — each node's start must hit an allowed
//!    residue: windows narrower than `T` prune the offset domain, and
//!    `lo`/`hi` are rounded in to the nearest allowed residue.
//! 3. **Capacity** — per class/stage/step demand counting of *fixed*
//!    offsets against the unit count `R_r` (the ILP's capacity rows,
//!    eq. (5)/(25)), with forward pruning of residues that would land
//!    an operation on a saturated stage-step.
//! 4. **Hazard/coloring** — for classes where the ILP emits
//!    circular-arc coloring (`count ≥ 2`, `≥ 2` members, unclean
//!    table), structural conflicts come from each class's cyclic
//!    conflict vector, built from the reservation table's forbidden
//!    latencies (`ReservationTable::forbidden_latencies`) while the
//!    model is built: bit `d` is set iff `d ≡ 0` or `d ≡ ±f (mod T)`
//!    for some forbidden latency `f`. Two members whose fixed
//!    offsets collide (a bit test on that vector) must take distinct
//!    colors; members forced onto one unit prune each other's offset
//!    domains word-parallel with the vector rotated to the fixed
//!    member's residue; and a per-unit pigeonhole bounds each unit's
//!    load by `ReservationTable::max_ops_per_period`, the same packing
//!    capacity the root pre-check uses.
//!
//! Dead ends record **no-goods** (refuted decision prefixes, kept
//! short) that later branches consult before cloning a state, so the
//! search never re-explores a refuted subtree reached in a different
//! order.
//!
//! # Exactness and agreement with the ILP
//!
//! The solver is complete over the same solution space the ILP
//! searches: the identical horizon (`Σd_i + 2T`), the identical root
//! rejections (self-loop period test, `modulo_feasible`, the
//! pigeonhole packing pre-check when enabled), the identical capacity
//! and coloring constraints, and the identical symmetry reductions
//! (node 0 pinned to pattern step 0, the first member of each colored
//! class pinned to color 0). Soundness of a `Feasible` answer: at a
//! full assignment the propagation fixpoint gives `lo_j ≥ lo_i + w` for
//! every dependence, so `t_i = lo_i` is a concrete witness, and the
//! fixed-offset capacity/coloring checks are exact. Completeness of an
//! `Infeasible` answer: every propagator only removes values that no
//! extension of the current assignment can use, so the branch carrying
//! any existing solution is never pruned. Hence for every case where
//! both engines finish within budget, CP and ILP verdicts agree — the
//! property the differential fuzzer enforces.
//!
//! # Budget integration
//!
//! The inner propagation loop and every search node call
//! [`swp_milp::Budget::tick`], so deadline, tick-cap, and
//! [`swp_milp::CancelToken`] cancellation are all observed within one
//! budget-check interval. The staged portfolio in `swp-core` relies on
//! this: CP's stage ends exactly at its share of the period's ticks, and
//! the ILP stage gets the rest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use swp_ddg::{Ddg, OpClass};
use swp_machine::{Machine, ReservationTable};
use swp_milp::{Budget, Exhaustion};

/// Widest colored class the color-mask representation supports. The
/// driver falls back to the ILP for machines beyond it (none of the
/// paper's machines come close).
pub const MAX_COLORED_UNITS: u32 = 64;

/// Longest decision prefix recorded as a no-good. Short prefixes are
/// the ones a reordered search can actually rediscover; long ones cost
/// more to index than they save.
const MAX_NOGOOD_LEN: usize = 4;

/// Cap on the no-good store, bounding memory on adversarial inputs.
const MAX_NOGOODS: usize = 4096;

/// Knobs mirrored from `SchedulerConfig` so both exact engines search
/// the same reduced space (a precondition for differential agreement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpOptions {
    /// Pin node 0 to pattern step 0 and the first member of each
    /// colored class to color 0 (feasibility-preserving, same as the
    /// ILP's rotation/color pinning).
    pub symmetry_breaking: bool,
    /// Apply the pigeonhole packing pre-check at the root and the
    /// per-unit packing bound inside the coloring propagator.
    pub packing_bound: bool,
    /// Register-pressure cap, mirroring the ILP's per-residue live rows
    /// (`SchedulerConfig::max_live`). When set, a fifth propagator
    /// lower-bounds the live census from the current boxes, and — since
    /// pressure depends on actual start *times*, not just residues — a
    /// third branching tier fixes the time of every edge-incident node
    /// before a leaf is accepted, so the verdict is exact.
    pub max_live: Option<u32>,
}

impl Default for CpOptions {
    fn default() -> Self {
        CpOptions {
            symmetry_breaking: true,
            packing_bound: true,
            max_live: None,
        }
    }
}

/// Verdict of [`solve_at`] when the search ran to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpOutcome {
    /// A schedule exists; `starts[i]` is the start time of node `i`
    /// (within the shared horizon) and `units[i]` the 0-based physical
    /// unit for nodes of colored classes (`None` for nodes whose
    /// mapping is left to first-fit completion, exactly like the ILP's
    /// uncolored nodes).
    Feasible {
        /// Start time per node.
        starts: Vec<u32>,
        /// Unit assignment per node, colored classes only.
        units: Vec<Option<u32>>,
    },
    /// The search space is exhausted: no schedule exists at this
    /// period (a proven refutation, like the ILP's `Infeasible`).
    Infeasible,
}

/// Why [`solve_at`] could not produce a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpError {
    /// The DDG uses a class the machine does not define.
    UnknownClass(OpClass),
    /// The budget ran out (deadline, tick cap, or cancellation) before
    /// the search finished; the verdict is unknown.
    Exhausted(Exhaustion),
    /// A colored class has more than [`MAX_COLORED_UNITS`] units; the
    /// caller should fall back to the ILP.
    TooManyUnits {
        /// The offending class.
        class: OpClass,
        /// Its unit count.
        count: u32,
    },
}

impl fmt::Display for CpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpError::UnknownClass(c) => write!(f, "machine does not define class {c}"),
            CpError::Exhausted(e) => write!(f, "budget exhausted: {e:?}"),
            CpError::TooManyUnits { class, count } => write!(
                f,
                "class {class} has {count} units, beyond the {MAX_COLORED_UNITS}-unit color mask"
            ),
        }
    }
}

impl Error for CpError {}

/// Search effort counters, reported alongside the verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpStats {
    /// Search-tree nodes visited (decisions tried).
    pub nodes: u64,
    /// Propagation passes run to fixpoint.
    pub passes: u64,
    /// Dead ends detected by propagation.
    pub conflicts: u64,
    /// No-goods recorded from refuted prefixes.
    pub nogoods_recorded: u64,
    /// Branches skipped because a recorded no-good subsumed them.
    pub nogoods_hit: u64,
    /// No-goods carried in from a previous solve via
    /// [`solve_at_warm`]'s store (0 on cold solves).
    pub nogoods_replayed: u64,
}

fn spend(budget: &Budget) -> Result<(), CpError> {
    budget.tick().map_err(CpError::Exhausted)
}

fn words_for(period: u32) -> usize {
    (period as usize).div_ceil(64)
}

fn modt(t: i64, period: u32) -> u32 {
    (t.rem_euclid(period as i64)) as u32
}

/// ORs `src` rotated by `by` into `dst`: bit `d` of `src` lands on bit
/// `(d + by) mod period`.
fn or_rotated(dst: &mut [u64], src: &[u64], by: u32, period: u32) {
    for (w, &word) in src.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let d = (w * 64) as u32 + word.trailing_zeros();
            word &= word - 1;
            let r = ((d + by) % period) as usize;
            dst[r / 64] |= 1u64 << (r % 64);
        }
    }
}

/// The marked offsets of each reservation stage, empty stages dropped.
fn stage_offsets(rt: &ReservationTable) -> Vec<Vec<u32>> {
    (0..rt.stages())
        .map(|s| rt.stage_offsets(s).into_iter().map(|l| l as u32).collect())
        .filter(|offs: &Vec<u32>| !offs.is_empty())
        .collect()
}

/// The cyclic conflict vector of one class at `period`: bit `d` is set
/// iff two ops of the class issued `d (mod T)` apart on one unit claim
/// some stage in the same cycle. That is bit 0 (every table marks
/// column 0) plus `±f mod T` for each of the table's forbidden
/// latencies `f` (`ReservationTable::forbidden_latencies`), so the
/// vector is symmetric under negation mod `T`.
fn conflict_vector(forbidden: &[u32], period: u32) -> Box<[u64]> {
    let mut c = vec![0u64; words_for(period)].into_boxed_slice();
    c[0] = 1;
    for &f in forbidden {
        for d in [modt(i64::from(f), period), modt(-i64::from(f), period)] {
            c[d as usize / 64] |= 1u64 << (d % 64);
        }
    }
    c
}

/// One function-unit class as the propagators see it.
#[derive(Debug)]
struct ClassInfo {
    count: u32,
    /// Whether the ILP would emit coloring for this class (count ≥ 2,
    /// ≥ 2 members, unclean table) — the CP model colors exactly those.
    colored: bool,
    /// Max ops one unit carries per period
    /// (`ReservationTable::max_ops_per_period`); computed only under
    /// `CpOptions::packing_bound`, the one mode that reads it.
    capacity: Option<u32>,
    /// Reservation-stage offsets, empty stages dropped.
    stage_offsets: Vec<Vec<u32>>,
    /// Cyclic conflict vector at the model's period (see
    /// [`conflict_vector`]), `words_for(T)` words; empty unless
    /// `colored`, the only case that reads it.
    conflict: Box<[u64]>,
    /// Node indices of this class, ascending.
    members: Vec<usize>,
}

/// Issue-bundle limits as the propagator sees them: the width row over
/// every node, plus one `(cap, members)` row per slot group.
struct CpBundle {
    width: u32,
    all: Vec<usize>,
    groups: Vec<(u32, Vec<usize>)>,
}

/// The immutable model: graph, classes, options.
struct CpModel {
    period: u32,
    words: usize,
    n: usize,
    classes: Vec<ClassInfo>,
    /// `(src, dst, w)` with `w = d_src − T·m`, self-loops removed.
    edges: Vec<(usize, usize, i64)>,
    colored: Vec<bool>,
    /// Issue-bundle limits, when the machine declares them.
    bundle: Option<CpBundle>,
    /// Out-edges `(dst, T·m)` per node — self-loops *included* (their
    /// `t` terms cancel, leaving the constant `T·m`). Populated only
    /// when `opts.max_live` is set.
    outs: Vec<Vec<(usize, i64)>>,
    /// Nodes whose exact start time can move the pressure census (an
    /// endpoint of some non-self edge); only these get the time
    /// branching tier.
    time_relevant: Vec<bool>,
    opts: CpOptions,
}

/// The mutable search state: per-node bounds, offset domains (one
/// `words`-wide bitset per node, flattened), and color masks (one word
/// per node; meaningful only for colored nodes).
#[derive(Clone)]
struct CpState {
    lo: Vec<i64>,
    hi: Vec<i64>,
    dom: Vec<u64>,
    col: Vec<u64>,
}

impl CpModel {
    fn dom<'s>(&self, s: &'s CpState, i: usize) -> &'s [u64] {
        &s.dom[i * self.words..(i + 1) * self.words]
    }

    fn dom_mut<'s>(&self, s: &'s mut CpState, i: usize) -> &'s mut [u64] {
        &mut s.dom[i * self.words..(i + 1) * self.words]
    }

    fn dom_test(&self, s: &CpState, i: usize, r: u32) -> bool {
        let r = r as usize;
        self.dom(s, i)[r / 64] >> (r % 64) & 1 != 0
    }

    fn dom_clear(&self, s: &mut CpState, i: usize, r: u32) {
        let r = r as usize;
        self.dom_mut(s, i)[r / 64] &= !(1u64 << (r % 64));
    }

    fn dom_count(&self, s: &CpState, i: usize) -> u32 {
        self.dom(s, i).iter().map(|w| w.count_ones()).sum()
    }

    /// The single allowed residue, if the domain is a singleton.
    fn dom_fixed(&self, s: &CpState, i: usize) -> Option<u32> {
        if self.dom_count(s, i) != 1 {
            return None;
        }
        for (wi, &w) in self.dom(s, i).iter().enumerate() {
            if w != 0 {
                return Some((wi * 64) as u32 + w.trailing_zeros());
            }
        }
        None
    }

    /// `dom_i &= !mask`; reports whether anything was removed.
    fn dom_subtract(&self, s: &mut CpState, i: usize, mask: &[u64]) -> bool {
        let dom = self.dom_mut(s, i);
        let mut changed = false;
        for (d, &m) in dom.iter_mut().zip(mask) {
            let next = *d & !m;
            changed |= next != *d;
            *d = next;
        }
        changed
    }

    /// Intersects the domain with the residues reachable in
    /// `[lo_i, hi_i]` (caller guarantees the span is `< T`).
    fn restrict_window(&self, s: &mut CpState, i: usize) -> bool {
        let span = (s.hi[i] - s.lo[i] + 1) as u32;
        let start = modt(s.lo[i], self.period);
        let mut window = vec![0u64; self.words];
        for k in 0..span {
            let r = ((start + k) % self.period) as usize;
            window[r / 64] |= 1u64 << (r % 64);
        }
        let dom = self.dom_mut(s, i);
        let mut changed = false;
        for (d, w) in dom.iter_mut().zip(&window) {
            let next = *d & *w;
            changed |= next != *d;
            *d = next;
        }
        changed
    }

    /// Propagators 1–2: dependence bounds and congruence sync.
    /// Returns `Ok(false)` on a detected conflict.
    fn bounds_pass(&self, s: &mut CpState) -> Result<bool, bool> {
        let mut changed = false;
        for &(i, j, w) in &self.edges {
            let nl = s.lo[i] + w;
            if nl > s.lo[j] {
                s.lo[j] = nl;
                changed = true;
            }
            let nh = s.hi[j] - w;
            if nh < s.hi[i] {
                s.hi[i] = nh;
                changed = true;
            }
        }
        for i in 0..self.n {
            if s.lo[i] > s.hi[i] {
                return Err(false);
            }
            if s.hi[i] - s.lo[i] + 1 < self.period as i64 {
                changed |= self.restrict_window(s, i);
            }
            if self.dom_count(s, i) == 0 {
                return Err(false);
            }
            // Round lo up / hi down to the nearest allowed residue.
            let mut t = s.lo[i];
            let mut k = 0;
            while k < self.period && !self.dom_test(s, i, modt(t, self.period)) {
                t += 1;
                k += 1;
            }
            if t != s.lo[i] {
                if t > s.hi[i] {
                    return Err(false);
                }
                s.lo[i] = t;
                changed = true;
            }
            let mut t = s.hi[i];
            let mut k = 0;
            while k < self.period && !self.dom_test(s, i, modt(t, self.period)) {
                t -= 1;
                k += 1;
            }
            if t != s.hi[i] {
                if t < s.lo[i] {
                    return Err(false);
                }
                s.hi[i] = t;
                changed = true;
            }
        }
        Ok(changed)
    }

    /// Propagator 3: capacity rows over fixed offsets, with forward
    /// pruning of residues that would overflow a saturated stage-step.
    fn capacity_pass(&self, s: &mut CpState) -> Result<bool, bool> {
        let mut changed = false;
        let t = self.period as usize;
        for ci in &self.classes {
            if ci.stage_offsets.is_empty() {
                continue;
            }
            let mut demand = vec![0u32; ci.stage_offsets.len() * t];
            for &i in &ci.members {
                if let Some(r) = self.dom_fixed(s, i) {
                    for (si, offs) in ci.stage_offsets.iter().enumerate() {
                        for &l in offs {
                            let cell = &mut demand[si * t + ((r + l) % self.period) as usize];
                            *cell += 1;
                            if *cell > ci.count {
                                return Err(false);
                            }
                        }
                    }
                }
            }
            for &i in &ci.members {
                if self.dom_fixed(s, i).is_some() {
                    continue;
                }
                let mut pruned = false;
                for r in 0..self.period {
                    if !self.dom_test(s, i, r) {
                        continue;
                    }
                    'residue: for (si, offs) in ci.stage_offsets.iter().enumerate() {
                        for &l in offs {
                            if demand[si * t + ((r + l) % self.period) as usize] >= ci.count {
                                self.dom_clear(s, i, r);
                                pruned = true;
                                break 'residue;
                            }
                        }
                    }
                }
                if pruned {
                    changed = true;
                    if self.dom_count(s, i) == 0 {
                        return Err(false);
                    }
                }
            }
        }
        Ok(changed)
    }

    /// Propagator 4: hazard/coloring for colored classes.
    fn coloring_pass(&self, s: &mut CpState, scratch: &mut [u64]) -> Result<bool, bool> {
        let mut changed = false;
        for ci in self.classes.iter().filter(|c| c.colored) {
            if let Some(capacity) = ci.capacity {
                // A unit carries at most `capacity` members; once that
                // many are pinned to it, it is closed to the rest.
                for u in 0..ci.count {
                    let bit = 1u64 << u;
                    let mut pinned = 0u32;
                    for &i in &ci.members {
                        if s.col[i] == bit {
                            pinned += 1;
                        }
                    }
                    if pinned > capacity {
                        return Err(false);
                    }
                    if pinned == capacity {
                        for &i in &ci.members {
                            if s.col[i] != bit && s.col[i] & bit != 0 {
                                s.col[i] &= !bit;
                                changed = true;
                                if s.col[i] == 0 {
                                    return Err(false);
                                }
                            }
                        }
                    }
                }
            }
            for (xi, &i) in ci.members.iter().enumerate() {
                for &j in &ci.members[xi + 1..] {
                    let fi = self.dom_fixed(s, i);
                    let fj = self.dom_fixed(s, j);
                    if let (Some(ri), Some(rj)) = (fi, fj) {
                        // Both offsets fixed: a structural collision at
                        // their separation forces distinct colors.
                        let d = ((ri + self.period - rj) % self.period) as usize;
                        if ci.conflict[d / 64] >> (d % 64) & 1 != 0 {
                            if s.col[i].count_ones() == 1 && s.col[j] & s.col[i] != 0 {
                                s.col[j] &= !s.col[i];
                                changed = true;
                                if s.col[j] == 0 {
                                    return Err(false);
                                }
                            }
                            if s.col[j].count_ones() == 1 && s.col[i] & s.col[j] != 0 {
                                s.col[i] &= !s.col[j];
                                changed = true;
                                if s.col[i] == 0 {
                                    return Err(false);
                                }
                            }
                        }
                    } else if s.col[i].count_ones() == 1 && s.col[i] == s.col[j] {
                        // Same unit forced, one offset still open: the
                        // rotated conflict vector prunes it word-parallel.
                        let (anchor, open) = match (fi, fj) {
                            (Some(r), None) => (r, j),
                            (None, Some(r)) => (r, i),
                            _ => continue,
                        };
                        scratch.fill(0);
                        or_rotated(scratch, &ci.conflict, anchor, self.period);
                        if self.dom_subtract(s, open, scratch) {
                            changed = true;
                            if self.dom_count(s, open) == 0 {
                                return Err(false);
                            }
                        }
                    }
                }
            }
        }
        Ok(changed)
    }

    /// Propagator 5: issue-bundle width and slot-group caps. Counts
    /// fixed offsets per residue against each row's cap (the CP
    /// analogue of the ILP's `Σ_i a_{ρ,i} ≤ W` rows), then prunes
    /// saturated residues from the still-open members.
    fn bundle_pass(&self, s: &mut CpState) -> Result<bool, bool> {
        let Some(b) = &self.bundle else {
            return Ok(false);
        };
        let mut changed = self.bundle_row(s, b.width, &b.all)?;
        for (cap, members) in &b.groups {
            changed |= self.bundle_row(s, *cap, members)?;
        }
        Ok(changed)
    }

    fn bundle_row(&self, s: &mut CpState, cap: u32, members: &[usize]) -> Result<bool, bool> {
        let mut counts = vec![0u32; self.period as usize];
        let mut changed = false;
        for &i in members {
            if let Some(r) = self.dom_fixed(s, i) {
                let c = &mut counts[r as usize];
                *c += 1;
                if *c > cap {
                    return Err(false);
                }
            }
        }
        for &i in members {
            if self.dom_fixed(s, i).is_some() {
                continue;
            }
            let mut pruned = false;
            for r in 0..self.period {
                if counts[r as usize] >= cap && self.dom_test(s, i, r) {
                    self.dom_clear(s, i, r);
                    pruned = true;
                }
            }
            if pruned {
                changed = true;
                if self.dom_count(s, i) == 0 {
                    return Err(false);
                }
            }
        }
        Ok(changed)
    }

    /// Propagator 6: register-pressure census. For each node with a
    /// fixed offset, a sound lower bound on its live range from the
    /// current boxes is `max_j (lo_j + T·m − hi_i)` (the `t` terms
    /// cancel on self-loops, leaving `T·m`); summing each node's
    /// `⌈(L_lb − δ)/T⌉` contribution per residue and comparing against
    /// the cap detects dead ends early. Pure conflict detection — it
    /// never narrows a domain, so it reports no change. Exactness comes
    /// from the time branching tier: at a leaf every edge-incident time
    /// is pinned (`lo == hi`), making the bound the true census.
    fn pressure_pass(&self, s: &CpState) -> Result<bool, bool> {
        let Some(ml) = self.opts.max_live else {
            return Ok(false);
        };
        let t = self.period as i64;
        let mut per_rho = vec![0u64; self.period as usize];
        for (i, outs) in self.outs.iter().enumerate() {
            if outs.is_empty() {
                continue;
            }
            let Some(r) = self.dom_fixed(s, i) else {
                continue;
            };
            let mut l = 0i64;
            for &(j, tm) in outs {
                let lb = if j == i { tm } else { s.lo[j] + tm - s.hi[i] };
                l = l.max(lb);
            }
            if l <= 0 {
                continue;
            }
            for rho in 0..t {
                let delta = (rho - i64::from(r)).rem_euclid(t);
                let instances = (l - delta + t - 1).div_euclid(t).max(0);
                per_rho[rho as usize] += instances as u64;
            }
        }
        if per_rho.iter().any(|&c| c > u64::from(ml)) {
            return Err(false);
        }
        Ok(false)
    }
}

/// Exact pressure census of the witness `t = lo` at a search leaf.
/// Sound to decide here: with the time tier exhausted, every
/// edge-incident node has exactly one residue-consistent time left in
/// its box, so `lo` *is* the only extension — mirror of
/// [`swp_machine::PipelinedSchedule::live_per_residue`].
fn leaf_pressure_ok(m: &CpModel, s: &CpState) -> bool {
    let Some(ml) = m.opts.max_live else {
        return true;
    };
    let t = m.period as i64;
    let mut per_rho = vec![0u64; m.period as usize];
    for (i, outs) in m.outs.iter().enumerate() {
        if outs.is_empty() {
            continue;
        }
        let ti = s.lo[i];
        let mut l = 0i64;
        for &(j, tm) in outs {
            let span = if j == i { tm } else { s.lo[j] + tm - ti };
            l = l.max(span);
        }
        if l <= 0 {
            continue;
        }
        let off = ti.rem_euclid(t);
        for rho in 0..t {
            let delta = (rho - off).rem_euclid(t);
            let instances = (l - delta + t - 1).div_euclid(t).max(0);
            per_rho[rho as usize] += instances as u64;
        }
    }
    per_rho.iter().all(|&c| c <= u64::from(ml))
}

/// Runs all propagators to a fixpoint. `Ok(true)` means consistent,
/// `Ok(false)` means a conflict was derived.
fn propagate(
    m: &CpModel,
    s: &mut CpState,
    budget: &Budget,
    stats: &mut CpStats,
) -> Result<bool, CpError> {
    let mut scratch = vec![0u64; m.words];
    loop {
        spend(budget)?;
        stats.passes += 1;
        let mut changed = false;
        match m.bounds_pass(s) {
            Ok(c) => changed |= c,
            Err(_) => return Ok(false),
        }
        match m.capacity_pass(s) {
            Ok(c) => changed |= c,
            Err(_) => return Ok(false),
        }
        match m.bundle_pass(s) {
            Ok(c) => changed |= c,
            Err(_) => return Ok(false),
        }
        match m.coloring_pass(s, &mut scratch) {
            Ok(c) => changed |= c,
            Err(_) => return Ok(false),
        }
        match m.pressure_pass(s) {
            Ok(c) => changed |= c,
            Err(_) => return Ok(false),
        }
        if !changed {
            return Ok(true);
        }
    }
}

/// A branching variable: an offset domain, a color mask, or — only
/// under a pressure cap — an exact start time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Var {
    Off(usize),
    Col(usize),
    Time(usize),
}

const COL_TAG: u32 = 1 << 31;
const TIME_TAG: u32 = 1 << 30;

fn encode(v: Var) -> u32 {
    match v {
        Var::Off(i) => i as u32,
        Var::Col(i) => i as u32 | COL_TAG,
        Var::Time(i) => i as u32 | TIME_TAG,
    }
}

/// Smallest-domain-first over offsets, then colors, then (under a
/// pressure cap) start times; ties break on the lowest node index so
/// the search is deterministic.
fn pick_var(m: &CpModel, s: &CpState) -> Option<Var> {
    let mut best: Option<(u32, usize)> = None;
    for i in 0..m.n {
        let c = m.dom_count(s, i);
        if c >= 2 && best.is_none_or(|(bc, _)| c < bc) {
            best = Some((c, i));
        }
    }
    if let Some((_, i)) = best {
        return Some(Var::Off(i));
    }
    let mut best: Option<(u32, usize)> = None;
    for i in 0..m.n {
        if !m.colored[i] {
            continue;
        }
        let c = s.col[i].count_ones();
        if c >= 2 && best.is_none_or(|(bc, _)| c < bc) {
            best = Some((c, i));
        }
    }
    if let Some((_, i)) = best {
        return Some(Var::Col(i));
    }
    if m.opts.max_live.is_some() {
        // All offsets are singletons here, and bounds_pass has rounded
        // `lo`/`hi` onto the allowed residue, so the residue-consistent
        // times left in a box are exactly lo, lo+T, …, hi.
        let t = i64::from(m.period);
        let mut best: Option<(i64, usize)> = None;
        for i in 0..m.n {
            if !m.time_relevant[i] {
                continue;
            }
            let c = (s.hi[i] - s.lo[i]) / t + 1;
            if c >= 2 && best.is_none_or(|(bc, _)| c < bc) {
                best = Some((c, i));
            }
        }
        if let Some((_, i)) = best {
            return Some(Var::Time(i));
        }
    }
    None
}

fn candidate_values(m: &CpModel, s: &CpState, v: Var) -> Vec<u32> {
    match v {
        Var::Off(i) => (0..m.period).filter(|&r| m.dom_test(s, i, r)).collect(),
        Var::Col(i) => (0..64).filter(|&u| s.col[i] >> u & 1 != 0).collect(),
        Var::Time(i) => (s.lo[i]..=s.hi[i])
            .step_by(m.period as usize)
            .map(|t| t as u32)
            .collect(),
    }
}

fn assign(m: &CpModel, s: &mut CpState, v: Var, val: u32) {
    match v {
        Var::Off(i) => {
            let dom = m.dom_mut(s, i);
            dom.fill(0);
            dom[(val / 64) as usize] = 1u64 << (val % 64);
        }
        Var::Col(i) => s.col[i] = 1u64 << val,
        Var::Time(i) => {
            s.lo[i] = i64::from(val);
            s.hi[i] = i64::from(val);
        }
    }
}

/// A persistable no-good store for warm re-solves at the **same period**.
///
/// No-goods are refuted decision prefixes: "under the root constraints,
/// no solution extends this partial assignment". A clause learned for
/// instance `I` stays valid for any instance whose root solution set is
/// a **subset** of `I`'s — i.e. after constraint-*adding* edits (an edge
/// added, or a node appended so existing node indices are stable). The
/// caller owns that monotonicity judgement: replay only across
/// tightening edits, [`NoGoodStore::clear`] on anything else. The store
/// self-invalidates when the period changes, since literals encode
/// residues modulo the period.
#[derive(Default)]
pub struct NoGoodStore {
    ng: NoGoods,
    period: Option<u32>,
}

impl NoGoodStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of clauses currently held.
    pub fn len(&self) -> usize {
        self.ng.clauses.len()
    }

    /// Whether the store holds no clauses.
    pub fn is_empty(&self) -> bool {
        self.ng.clauses.is_empty()
    }

    /// The period the clauses were learned at, if any.
    pub fn period(&self) -> Option<u32> {
        self.period
    }

    /// Drops every clause (required after a constraint-removing edit or
    /// any edit that renumbers nodes).
    pub fn clear(&mut self) {
        self.ng = NoGoods::default();
        self.period = None;
    }
}

/// Refuted decision prefixes, indexed by literal for cheap lookup.
#[derive(Default)]
struct NoGoods {
    clauses: Vec<Vec<(u32, u32)>>,
    by_lit: HashMap<(u32, u32), Vec<usize>>,
    seen: HashSet<Vec<(u32, u32)>>,
}

impl NoGoods {
    /// Would taking `lit` on top of `set` complete a recorded no-good?
    fn blocks(&self, lit: (u32, u32), set: &HashSet<(u32, u32)>) -> bool {
        if let Some(idxs) = self.by_lit.get(&lit) {
            'clause: for &ci in idxs {
                for l in &self.clauses[ci] {
                    if *l != lit && !set.contains(l) {
                        continue 'clause;
                    }
                }
                return true;
            }
        }
        false
    }

    fn record(&mut self, decisions: &[(u32, u32)], stats: &mut CpStats) {
        if decisions.is_empty()
            || decisions.len() > MAX_NOGOOD_LEN
            || self.clauses.len() >= MAX_NOGOODS
        {
            return;
        }
        let mut clause = decisions.to_vec();
        clause.sort_unstable();
        if !self.seen.insert(clause.clone()) {
            return;
        }
        let idx = self.clauses.len();
        for &l in &clause {
            self.by_lit.entry(l).or_default().push(idx);
        }
        self.clauses.push(clause);
        stats.nogoods_recorded += 1;
    }
}

fn extract(m: &CpModel, s: &CpState) -> (Vec<u32>, Vec<Option<u32>>) {
    let starts = s.lo.iter().map(|&t| t as u32).collect();
    let units = (0..m.n)
        .map(|i| m.colored[i].then(|| s.col[i].trailing_zeros()))
        .collect();
    (starts, units)
}

#[allow(clippy::too_many_arguments)]
fn search(
    m: &CpModel,
    s: &CpState,
    budget: &Budget,
    stats: &mut CpStats,
    nogoods: &mut NoGoods,
    decisions: &mut Vec<(u32, u32)>,
    decision_set: &mut HashSet<(u32, u32)>,
) -> Result<Option<(Vec<u32>, Vec<Option<u32>>)>, CpError> {
    spend(budget)?;
    stats.nodes += 1;
    let Some(var) = pick_var(m, s) else {
        if !leaf_pressure_ok(m, s) {
            stats.conflicts += 1;
            return Ok(None);
        }
        return Ok(Some(extract(m, s)));
    };
    for val in candidate_values(m, s, var) {
        let lit = (encode(var), val);
        if nogoods.blocks(lit, decision_set) {
            stats.nogoods_hit += 1;
            continue;
        }
        let mut child = s.clone();
        assign(m, &mut child, var, val);
        decisions.push(lit);
        decision_set.insert(lit);
        let outcome = match propagate(m, &mut child, budget, stats) {
            Ok(true) => search(m, &child, budget, stats, nogoods, decisions, decision_set),
            Ok(false) => {
                stats.conflicts += 1;
                Ok(None)
            }
            Err(e) => Err(e),
        };
        decisions.pop();
        decision_set.remove(&lit);
        match outcome {
            Ok(Some(sol)) => return Ok(Some(sol)),
            Ok(None) => {}
            Err(e) => return Err(e),
        }
    }
    // Every value of this variable is refuted under the current prefix,
    // so the prefix itself is a no-good (sound for this solve: the root
    // state is fixed and all propagators are sound).
    nogoods.record(decisions, stats);
    Ok(None)
}

/// Decides schedulability of `ddg` on `machine` at period `period`,
/// under the unified-coloring mapping mode (the only mode the CP model
/// implements; the driver falls back to the ILP for others).
///
/// Returns the verdict and search statistics, or a [`CpError`] if the
/// budget ran out or the instance is outside the model's shape.
///
/// # Errors
///
/// [`CpError::UnknownClass`] if the DDG uses a class the machine does
/// not define; [`CpError::Exhausted`] on deadline/tick/cancellation;
/// [`CpError::TooManyUnits`] for colored classes wider than
/// [`MAX_COLORED_UNITS`].
///
/// # Panics
///
/// Panics if `period == 0`.
pub fn solve_at(
    ddg: &Ddg,
    machine: &Machine,
    period: u32,
    options: CpOptions,
    budget: &Budget,
) -> Result<(CpOutcome, CpStats), CpError> {
    let mut fresh = NoGoodStore::new();
    solve_at_warm(ddg, machine, period, options, budget, &mut fresh)
}

/// [`solve_at`] with a caller-owned [`NoGoodStore`]: clauses learned in
/// this solve are appended to the store, and clauses already present are
/// replayed (counted in [`CpStats::nogoods_replayed`]).
///
/// If the store was filled at a different period it is cleared first —
/// residue literals do not transfer across periods. Replay across
/// *edits* is sound only for constraint-adding edits with stable node
/// indices; see [`NoGoodStore`].
///
/// # Errors
///
/// As [`solve_at`].
///
/// # Panics
///
/// Panics if `period == 0`.
pub fn solve_at_warm(
    ddg: &Ddg,
    machine: &Machine,
    period: u32,
    options: CpOptions,
    budget: &Budget,
    store: &mut NoGoodStore,
) -> Result<(CpOutcome, CpStats), CpError> {
    assert!(period > 0, "period must be positive");
    if store.period != Some(period) {
        store.clear();
        store.period = Some(period);
    }
    let mut stats = CpStats {
        nogoods_replayed: store.len() as u64,
        ..CpStats::default()
    };
    let n = ddg.num_nodes();
    if n == 0 {
        return Ok((
            CpOutcome::Feasible {
                starts: Vec::new(),
                units: Vec::new(),
            },
            stats,
        ));
    }

    // Root rejections, in the ILP's order so mixed failure modes (e.g.
    // unknown class + infeasible self-loop) classify identically.
    let Some(earliest) = ddg.earliest_starts(period) else {
        return Ok((CpOutcome::Infeasible, stats));
    };
    let mut edges = Vec::with_capacity(ddg.num_edges());
    for e in ddg.edges() {
        let w = ddg.node(e.src).latency as i64 - period as i64 * e.distance as i64;
        if e.src == e.dst {
            if w > 0 {
                return Ok((CpOutcome::Infeasible, stats));
            }
            continue;
        }
        edges.push((e.src.index(), e.dst.index(), w));
    }

    let mut classes = Vec::new();
    let mut colored = vec![false; n];
    for class in ddg.classes() {
        let fu = machine
            .fu_type(class)
            .map_err(|_| CpError::UnknownClass(class))?;
        let members: Vec<usize> = ddg
            .nodes_of_class(class)
            .into_iter()
            .map(|id| id.index())
            .collect();
        let rt = &fu.reservation;
        if !rt.modulo_feasible(period) {
            return Ok((CpOutcome::Infeasible, stats));
        }
        let capacity = options.packing_bound.then(|| rt.max_ops_per_period(period));
        if capacity.is_some_and(|cap| members.len() as u32 > fu.count * cap) {
            return Ok((CpOutcome::Infeasible, stats));
        }
        let forbidden = rt.forbidden_latencies();
        let is_colored = fu.count >= 2 && members.len() >= 2 && !forbidden.is_empty();
        if is_colored && fu.count > MAX_COLORED_UNITS {
            return Err(CpError::TooManyUnits {
                class,
                count: fu.count,
            });
        }
        if is_colored {
            for &i in &members {
                colored[i] = true;
            }
        }
        let stage_offsets = stage_offsets(rt);
        classes.push(ClassInfo {
            count: fu.count,
            colored: is_colored,
            capacity,
            conflict: if is_colored {
                conflict_vector(&forbidden, period)
            } else {
                Box::default()
            },
            stage_offsets,
            members,
        });
    }

    // Bundle root pigeonholes, in the ILP's position (after the
    // per-class rejections) and order (width first, then each group).
    let group_members = |g: &swp_machine::SlotGroup| -> Vec<usize> {
        g.classes
            .iter()
            .flat_map(|&c| ddg.nodes_of_class(OpClass::new(c)))
            .map(|id| id.index())
            .collect()
    };
    if let Some(b) = machine.bundle() {
        if options.packing_bound {
            if n as u64 > u64::from(b.width) * u64::from(period) {
                return Ok((CpOutcome::Infeasible, stats));
            }
            for g in &b.groups {
                if group_members(g).len() as u64 > u64::from(g.cap) * u64::from(period) {
                    return Ok((CpOutcome::Infeasible, stats));
                }
            }
        }
    }
    let bundle = machine.bundle().map(|b| CpBundle {
        width: b.width,
        all: (0..n).collect(),
        groups: b.groups.iter().map(|g| (g.cap, group_members(g))).collect(),
    });

    let mut outs: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
    let mut time_relevant = vec![false; n];
    if options.max_live.is_some() {
        for e in ddg.edges() {
            outs[e.src.index()].push((e.dst.index(), i64::from(period) * i64::from(e.distance)));
            if e.src != e.dst {
                time_relevant[e.src.index()] = true;
                time_relevant[e.dst.index()] = true;
            }
        }
    }

    let words = words_for(period);
    let horizon = (ddg.total_latency() + 2 * period) as i64;
    let model = CpModel {
        period,
        words,
        n,
        classes,
        edges,
        colored: colored.clone(),
        bundle,
        outs,
        time_relevant,
        opts: options,
    };

    // Full offset domains: all residues `0..T`.
    let mut full = vec![u64::MAX; words];
    if period as usize % 64 != 0 {
        full[words - 1] = (1u64 << (period % 64)) - 1;
    }
    let mut state = CpState {
        lo: earliest.iter().map(|&e| e.max(0)).collect(),
        hi: vec![horizon; n],
        dom: (0..n).flat_map(|_| full.iter().copied()).collect(),
        col: (0..n)
            .map(|i| {
                if colored[i] {
                    let count = model.classes[..]
                        .iter()
                        .find(|c| c.members.contains(&i))
                        .map_or(1, |c| c.count);
                    if count >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << count) - 1
                    }
                } else {
                    0
                }
            })
            .collect(),
    };

    if options.symmetry_breaking {
        // Rotation symmetry: pin node 0 to pattern step 0.
        let dom = model.dom_mut(&mut state, 0);
        dom.fill(0);
        dom[0] = 1;
        // Color symmetry: first member of each colored class to color 0.
        for ci in model.classes.iter().filter(|c| c.colored) {
            if let Some(&first) = ci.members.first() {
                state.col[first] = 1;
            }
        }
    }

    if !propagate(&model, &mut state, budget, &mut stats)? {
        return Ok((CpOutcome::Infeasible, stats));
    }
    let mut decisions = Vec::new();
    let mut decision_set = HashSet::new();
    match search(
        &model,
        &state,
        budget,
        &mut stats,
        &mut store.ng,
        &mut decisions,
        &mut decision_set,
    )? {
        Some((starts, units)) => Ok((CpOutcome::Feasible { starts, units }, stats)),
        None => Ok((CpOutcome::Infeasible, stats)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use swp_ddg::Ddg;
    use swp_machine::checker::{check_fixed_assignment, greedy_assignment, PlacedOp};
    use swp_machine::FuType;

    fn bit(v: &[u64], d: u32) -> bool {
        v[d as usize / 64] >> (d % 64) & 1 != 0
    }

    /// Arbitrary well-formed reservation table (1–4 stages, 1–6
    /// columns, with a mark at issue time).
    fn arb_table() -> impl Strategy<Value = ReservationTable> {
        (1usize..=4, 1usize..=6).prop_flat_map(|(stages, cols)| {
            proptest::collection::vec(proptest::collection::vec(any::<bool>(), cols), stages)
                .prop_map(|mut rows| {
                    rows[0][0] = true;
                    let refs: Vec<&[bool]> = rows.iter().map(|r| r.as_slice()).collect();
                    ReservationTable::from_rows(&refs).expect("shape is valid")
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Bit `d` of the conflict vector is set iff the cycle-accurate
        /// checker rejects two ops of the class at offsets 0 and `d` on
        /// one unit (for every `T` at which one op alone fits). Half the
        /// periods exceed 64, so the vector spans two words.
        #[test]
        fn conflict_vector_matches_the_checker(
            reservation in arb_table(),
            t in (any::<bool>(), 1u32..=10, 65u32..=72)
                .prop_map(|(wide, narrow, spanning)| if wide { spanning } else { narrow }),
        ) {
            prop_assume!(reservation.modulo_feasible(t));
            let conflict = conflict_vector(&reservation.forbidden_latencies(), t);
            let machine = Machine::new(vec![FuType {
                name: "C".into(),
                count: 1,
                latency: 1,
                reservation,
            }])
            .expect("valid machine");
            let class = OpClass::new(0);
            for d in 0..t {
                let pair = [
                    PlacedOp { class, offset: 0, fu: Some(0) },
                    PlacedOp { class, offset: d, fu: Some(0) },
                ];
                prop_assert_eq!(
                    bit(&conflict, d),
                    check_fixed_assignment(&machine, t, &pair).is_err(),
                    "delta {} at T={}", d, t
                );
            }
        }
    }

    #[test]
    fn pldi95_fp_conflict_vector() {
        // PLDI'95 FP table: stage 0 at offset 0, stage 1 at offsets
        // {1, 2}, stage 2 at offset 2. Stage 1 gives deltas ±1 and 0.
        let machine = Machine::example_pldi95();
        let rt = &machine.types()[1].reservation;
        let conflict = conflict_vector(&rt.forbidden_latencies(), 4);
        let set: Vec<u32> = (0..4).filter(|&d| bit(&conflict, d)).collect();
        assert_eq!(set, [0, 1, 3]);
        let mut rotated = vec![0u64; 1];
        // Anchored at residue 1: an op fixed there forbids 1 + {0, ±1}.
        or_rotated(&mut rotated, &conflict, 1, 4);
        let set: Vec<u32> = (0..4).filter(|&d| bit(&rotated, d)).collect();
        assert_eq!(set, [0, 1, 2]);
    }

    #[test]
    fn or_rotated_crosses_word_boundaries() {
        let period = 130;
        let mut src = vec![0u64; words_for(period)];
        for d in [60usize, 129] {
            src[d / 64] |= 1u64 << (d % 64);
        }
        let mut dst = vec![0u64; words_for(period)];
        or_rotated(&mut dst, &src, 5, period);
        let set: Vec<u32> = (0..period).filter(|&d| bit(&dst, d)).collect();
        // 60 + 5 moves up a word; (129 + 5) mod 130 wraps to word 0.
        assert_eq!(set, [4, 65]);
    }

    fn solve(ddg: &Ddg, machine: &Machine, period: u32) -> Result<(CpOutcome, CpStats), CpError> {
        solve_at(
            ddg,
            machine,
            period,
            CpOptions::default(),
            &Budget::unlimited(),
        )
    }

    /// First-fits units for unmapped ops (sound for clean or count-1
    /// classes, which is all the CP leaves unmapped), then runs the
    /// exact cycle-accurate checker.
    fn assert_schedule_valid(
        machine: &Machine,
        period: u32,
        ddg: &Ddg,
        starts: &[u32],
        units: &[Option<u32>],
    ) {
        let mut ops: Vec<PlacedOp> = ddg
            .nodes()
            .map(|(id, node)| PlacedOp {
                class: node.class,
                offset: starts[id.index()] % period,
                fu: units[id.index()],
            })
            .collect();
        let completed = greedy_assignment(machine, period, &ops).expect("known classes and units");
        for (op, fu) in ops.iter_mut().zip(completed) {
            op.fu = Some(fu.expect("first-fit completion must succeed for uncolored classes"));
        }
        check_fixed_assignment(machine, period, &ops).expect("schedule must pass exact checker");
        // Dependences.
        for e in ddg.edges() {
            let d = ddg.node(e.src).latency as i64;
            let lhs = starts[e.dst.index()] as i64 - starts[e.src.index()] as i64;
            assert!(
                e.src == e.dst || lhs >= d - (period as i64) * e.distance as i64,
                "dependence violated"
            );
        }
    }

    fn paper_ddg() -> Ddg {
        // A small FP/Int/LdSt mix with a recurrence, exercising the
        // unclean FP pipeline of `example_pldi95`.
        let mut ddg = Ddg::new();
        let ld = ddg.add_node("ld", OpClass::new(2), 3);
        let f1 = ddg.add_node("f1", OpClass::new(1), 2);
        let f2 = ddg.add_node("f2", OpClass::new(1), 2);
        let add = ddg.add_node("add", OpClass::new(0), 1);
        ddg.add_edge(ld, f1, 0).expect("edge");
        ddg.add_edge(f1, f2, 0).expect("edge");
        ddg.add_edge(f2, add, 0).expect("edge");
        ddg.add_edge(f2, f1, 1).expect("edge");
        ddg
    }

    #[test]
    fn feasible_schedule_passes_exact_checker() {
        let machine = Machine::example_pldi95();
        let ddg = paper_ddg();
        let mut found = None;
        for t in 1..=12 {
            match solve(&ddg, &machine, t).expect("unlimited budget") {
                (CpOutcome::Feasible { starts, units }, _) => {
                    found = Some((t, starts, units));
                    break;
                }
                (CpOutcome::Infeasible, _) => {}
            }
        }
        let (t, starts, units) = found.expect("some period in 1..=12 must be feasible");
        assert_schedule_valid(&machine, t, &ddg, &starts, &units);
    }

    #[test]
    fn refutes_below_resource_bound() {
        // Two non-pipelined d=2 ops on a single unit need T >= 4.
        let machine = Machine::new(vec![FuType {
            name: "NP".into(),
            count: 1,
            latency: 2,
            reservation: ReservationTable::non_pipelined(2),
        }])
        .expect("machine");
        let mut ddg = Ddg::new();
        ddg.add_node("a", OpClass::new(0), 2);
        ddg.add_node("b", OpClass::new(0), 2);
        for t in 1..4 {
            let (outcome, _) = solve(&ddg, &machine, t).expect("unlimited budget");
            assert_eq!(outcome, CpOutcome::Infeasible, "T={t} must refute");
        }
        let (outcome, _) = solve(&ddg, &machine, 4).expect("unlimited budget");
        let CpOutcome::Feasible { starts, units } = outcome else {
            panic!("T=4 must be feasible");
        };
        assert_schedule_valid(&machine, 4, &ddg, &starts, &units);
    }

    #[test]
    fn self_loop_bounds_period() {
        let machine = Machine::example_clean();
        let mut ddg = Ddg::new();
        let n = ddg.add_node("x", OpClass::new(2), 3);
        ddg.add_edge(n, n, 1).expect("edge");
        // Self-loop: 0 >= 3 - T, so T >= 3.
        let (outcome, _) = solve(&ddg, &machine, 2).expect("unlimited budget");
        assert_eq!(outcome, CpOutcome::Infeasible);
        let (outcome, _) = solve(&ddg, &machine, 3).expect("unlimited budget");
        assert!(matches!(outcome, CpOutcome::Feasible { .. }));
    }

    #[test]
    fn colored_members_get_distinct_units_when_colliding() {
        // Two FP ops (count=2, unclean) forced to the same residue: the
        // FP table self-collides at delta 0, so they must split units.
        let machine = Machine::example_pldi95();
        let mut ddg = Ddg::new();
        let a = ddg.add_node("a", OpClass::new(1), 2);
        let b = ddg.add_node("b", OpClass::new(1), 2);
        // t_b - t_a >= 4 - 1*4 = 0 and t_a - t_b >= 4 - 1*4 = 0 at T=4
        // leaves offsets free; pick a case where both land at residue 0
        // via symmetry + propagation is not forced, so just check the
        // returned mapping is checker-valid at the first feasible T.
        ddg.add_edge(a, b, 0).expect("edge");
        for t in 1..=8 {
            if let (CpOutcome::Feasible { starts, units }, _) =
                solve(&ddg, &machine, t).expect("unlimited budget")
            {
                assert!(units[a.index()].is_some() && units[b.index()].is_some());
                assert_schedule_valid(&machine, t, &ddg, &starts, &units);
                return;
            }
        }
        panic!("no feasible period found");
    }

    #[test]
    fn budget_ticks_and_cancellation_stop_the_search() {
        let machine = Machine::example_pldi95();
        let ddg = paper_ddg();
        let tiny = Budget::unlimited().limit_ticks(3);
        let err = solve_at(&ddg, &machine, 6, CpOptions::default(), &tiny)
            .expect_err("3 ticks cannot finish");
        assert_eq!(err, CpError::Exhausted(Exhaustion::Ticks));

        let budget = Budget::unlimited();
        let token = budget.cancel_token();
        token.cancel();
        let err = solve_at(&ddg, &machine, 6, CpOptions::default(), &budget)
            .expect_err("cancelled before start");
        assert_eq!(err, CpError::Exhausted(Exhaustion::Cancelled));
    }

    #[test]
    fn symmetry_pins_node_zero_to_step_zero() {
        let machine = Machine::example_pldi95();
        let ddg = paper_ddg();
        for t in 1..=12 {
            if let (CpOutcome::Feasible { starts, .. }, _) =
                solve(&ddg, &machine, t).expect("unlimited budget")
            {
                assert_eq!(starts[0] % t, 0, "node 0 must sit at pattern step 0");
                return;
            }
        }
        panic!("no feasible period found");
    }

    #[test]
    fn verdicts_and_stats_are_deterministic() {
        let machine = Machine::example_pldi95();
        let ddg = paper_ddg();
        for t in 2..=8 {
            let a = solve(&ddg, &machine, t).expect("unlimited budget");
            let b = solve(&ddg, &machine, t).expect("unlimited budget");
            assert_eq!(a, b, "T={t} must be deterministic");
        }
    }

    #[test]
    fn symmetry_off_agrees_on_feasibility() {
        let machine = Machine::example_pldi95();
        let ddg = paper_ddg();
        let plain = CpOptions {
            symmetry_breaking: false,
            packing_bound: false,
            max_live: None,
        };
        for t in 2..=8 {
            let with = solve(&ddg, &machine, t).expect("unlimited budget").0;
            let without = solve_at(&ddg, &machine, t, plain, &Budget::unlimited())
                .expect("unlimited budget")
                .0;
            assert_eq!(
                matches!(with, CpOutcome::Feasible { .. }),
                matches!(without, CpOutcome::Feasible { .. }),
                "symmetry/packing must be feasibility-preserving at T={t}"
            );
        }
    }

    #[test]
    fn bundle_width_bounds_the_period() {
        use swp_machine::BundleSpec;
        // Width-1 bundle: one issue per cycle, so 2 ops need T >= 2
        // regardless of unit counts.
        let machine = Machine::example_clean()
            .with_bundle(BundleSpec::width(1))
            .expect("bundle");
        let mut ddg = Ddg::new();
        ddg.add_node("a", OpClass::new(0), 1);
        ddg.add_node("b", OpClass::new(0), 1);
        let (outcome, _) = solve(&ddg, &machine, 1).expect("unlimited budget");
        assert_eq!(outcome, CpOutcome::Infeasible, "T=1 overflows the bundle");
        let (outcome, _) = solve(&ddg, &machine, 2).expect("unlimited budget");
        let CpOutcome::Feasible { starts, .. } = outcome else {
            panic!("T=2 must be feasible");
        };
        assert_ne!(starts[0] % 2, starts[1] % 2, "issues must split residues");
        // The pigeonhole pre-check off: the propagator must still refute.
        let plain = CpOptions {
            packing_bound: false,
            ..CpOptions::default()
        };
        let (outcome, _) =
            solve_at(&ddg, &machine, 1, plain, &Budget::unlimited()).expect("unlimited budget");
        assert_eq!(outcome, CpOutcome::Infeasible);
    }

    #[test]
    fn slot_group_cap_bounds_the_period() {
        // example_vliw: width 2, "mem" slot (class 2) capped at 1.
        let machine = Machine::example_vliw();
        let mut ddg = Ddg::new();
        ddg.add_node("ld1", OpClass::new(2), 3);
        ddg.add_node("ld2", OpClass::new(2), 3);
        let (outcome, _) = solve(&ddg, &machine, 1).expect("unlimited budget");
        assert_eq!(outcome, CpOutcome::Infeasible, "two mem ops, one mem slot");
        let (outcome, _) = solve(&ddg, &machine, 2).expect("unlimited budget");
        assert!(matches!(outcome, CpOutcome::Feasible { .. }));
    }

    #[test]
    fn pressure_cap_forces_a_longer_period() {
        // a (latency 3) -> b: the value of `a` is live >= 3 cycles, so
        // at T=2 it overlaps itself (2 instances at a's residue) and a
        // cap of 1 refutes; at T=3 placing b exactly T cycles after a
        // keeps one instance per residue — that needs both ops at the
        // same residue, hence the 2-unit FP class.
        let machine = Machine::example_clean();
        let mut ddg = Ddg::new();
        let a = ddg.add_node("a", OpClass::new(1), 3);
        let b = ddg.add_node("b", OpClass::new(1), 1);
        ddg.add_edge(a, b, 0).expect("edge");
        let capped = CpOptions {
            max_live: Some(1),
            ..CpOptions::default()
        };
        let (outcome, _) =
            solve_at(&ddg, &machine, 2, capped, &Budget::unlimited()).expect("unlimited budget");
        assert_eq!(outcome, CpOutcome::Infeasible, "T=2 needs 2 live instances");
        // Without the cap T=2 is fine — the refutation is pressure-only.
        let (outcome, _) = solve(&ddg, &machine, 2).expect("unlimited budget");
        assert!(matches!(outcome, CpOutcome::Feasible { .. }));
        let (outcome, _) =
            solve_at(&ddg, &machine, 3, capped, &Budget::unlimited()).expect("unlimited budget");
        let CpOutcome::Feasible { starts, .. } = outcome else {
            panic!("T=3 must be feasible under the cap");
        };
        let sched = swp_machine::PipelinedSchedule::new(3, starts, vec![None; 2]);
        sched
            .validate_pressure(&ddg, 1)
            .expect("CP witness must meet the cap it was solved under");
    }

    #[test]
    fn unknown_class_is_an_error() {
        let machine = Machine::example_pldi95();
        let mut ddg = Ddg::new();
        ddg.add_node("z", OpClass::new(9), 1);
        let err = solve(&ddg, &machine, 4).expect_err("class 9 undefined");
        assert_eq!(err, CpError::UnknownClass(OpClass::new(9)));
    }

    #[test]
    fn empty_ddg_is_trivially_feasible() {
        let machine = Machine::example_pldi95();
        let ddg = Ddg::new();
        let (outcome, _) = solve(&ddg, &machine, 1).expect("unlimited budget");
        assert_eq!(
            outcome,
            CpOutcome::Feasible {
                starts: Vec::new(),
                units: Vec::new()
            }
        );
    }
}
