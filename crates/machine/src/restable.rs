//! Reservation tables (Kogge 1981).
//!
//! Marks are stored as u64 words (one padded word run per stage) so
//! collision tests over rows and modulo cell sets are word-parallel
//! AND/OR instead of per-cell boolean loops. Padding bits are always
//! zero, so the derived `PartialEq`/`Hash` stay canonical.

use std::fmt;

/// A reservation table: `stages × cols` boolean marks, where
/// `mark(s, l)` means an operation occupies stage `s` exactly `l` cycles
/// after issue. `cols` equals the operation's execution time `d`.
///
/// ```
/// use swp_machine::ReservationTable;
/// // A 3-stage FP pipeline where stage 3 is reused (structural hazard):
/// let rt = ReservationTable::from_rows(&[
///     &[true, false, false],
///     &[false, true, false],
///     &[false, true, true],
/// ]).unwrap();
/// assert_eq!(rt.stages(), 3);
/// assert!(rt.forbidden_latencies().contains(&1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReservationTable {
    stages: usize,
    cols: usize,
    /// Words per stage row: `cols.div_ceil(64)`.
    words_per_row: usize,
    /// Row-major bit marks, `words_per_row` words per stage; bit `l` of
    /// the row's word run is set iff stage `s` is busy at offset `l`.
    /// Bits at offsets `>= cols` are always zero.
    marks: Vec<u64>,
}

impl ReservationTable {
    fn empty(stages: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        ReservationTable {
            stages,
            cols,
            words_per_row,
            marks: vec![0u64; stages * words_per_row],
        }
    }

    fn set(&mut self, s: usize, l: usize) {
        debug_assert!(s < self.stages && l < self.cols);
        self.marks[s * self.words_per_row + l / 64] |= 1u64 << (l % 64);
    }

    /// A clean pipeline of execution time `d`: a single issue stage used
    /// only at offset 0, so a new operation can start every cycle.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn clean(d: u32) -> Self {
        assert!(d > 0, "execution time must be positive");
        let mut rt = Self::empty(1, d as usize);
        rt.set(0, 0);
        rt
    }

    /// A non-pipelined unit of execution time `d`: one stage held for all
    /// `d` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn non_pipelined(d: u32) -> Self {
        assert!(d > 0, "execution time must be positive");
        let mut rt = Self::empty(1, d as usize);
        for l in 0..d as usize {
            rt.set(0, l);
        }
        rt
    }

    /// Builds a table from explicit rows (one per stage).
    ///
    /// Returns `None` if the rows are empty, ragged, or no mark is set in
    /// column 0 (an operation must occupy something at issue).
    pub fn from_rows(rows: &[&[bool]]) -> Option<Self> {
        let stages = rows.len();
        let cols = rows.first()?.len();
        if cols == 0 || rows.iter().any(|r| r.len() != cols) {
            return None;
        }
        if !rows.iter().any(|r| r[0]) {
            return None;
        }
        let mut rt = Self::empty(stages, cols);
        for (s, row) in rows.iter().enumerate() {
            for (l, &m) in row.iter().enumerate() {
                if m {
                    rt.set(s, l);
                }
            }
        }
        Some(rt)
    }

    /// Number of pipeline stages (rows).
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Execution time `d` (columns).
    pub fn exec_time(&self) -> u32 {
        self.cols as u32
    }

    /// Whether stage `s` is occupied `l` cycles after issue.
    ///
    /// Out-of-range offsets return `false`.
    pub fn mark(&self, s: usize, l: usize) -> bool {
        s < self.stages
            && l < self.cols
            && (self.marks[s * self.words_per_row + l / 64] >> (l % 64)) & 1 == 1
    }

    /// The u64 bit-row for stage `s`: bit `l` is set iff the stage is
    /// busy at offset `l`. Padding bits past [`Self::exec_time`] are zero,
    /// so callers may AND/OR whole words without masking.
    pub fn row_words(&self, s: usize) -> &[u64] {
        &self.marks[s * self.words_per_row..(s + 1) * self.words_per_row]
    }

    /// Offsets at which stage `s` is occupied, ascending, without
    /// allocating — the hot-loop form of [`Self::stage_offsets`].
    pub fn stage_offset_iter(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        self.row_words(s).iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + l)
            })
        })
    }

    /// Offsets at which stage `s` is occupied.
    pub fn stage_offsets(&self, s: usize) -> Vec<usize> {
        self.stage_offset_iter(s).collect()
    }

    /// Number of marks in the fullest row — every operation holds some
    /// stage for this many cycles, so one unit sustains at most one
    /// operation per `max_row_marks` cycles (the MAL lower bound).
    pub fn max_row_marks(&self) -> u32 {
        (0..self.stages)
            .map(|s| self.row_words(s).iter().map(|w| w.count_ones()).sum())
            .max()
            .unwrap_or(0)
    }

    /// Whether this is a clean pipeline (new issue possible every cycle):
    /// no forbidden latencies at all.
    pub fn is_clean(&self) -> bool {
        self.forbidden_latencies().is_empty()
    }

    /// Forbidden latencies: gaps `f >= 1` such that issuing a second
    /// operation `f` cycles after a first collides on some stage.
    /// (Kogge: distances between marks within a row.)
    pub fn forbidden_latencies(&self) -> Vec<u32> {
        let mut forb = Vec::new();
        for s in 0..self.stages {
            let offs: Vec<usize> = self.stage_offset_iter(s).collect();
            for (a, &x) in offs.iter().enumerate() {
                for &y in &offs[a + 1..] {
                    let f = (y - x) as u32;
                    if !forb.contains(&f) {
                        forb.push(f);
                    }
                }
            }
        }
        forb.sort_unstable();
        forb
    }

    /// The forbidden set reduced mod `period`: the issue distances
    /// `d ∈ 0..period` at which a second operation collides with a first
    /// on one unit. That is 0 (every table marks column 0) and `±f mod
    /// period` for each forbidden latency `f`, sorted and deduplicated.
    /// The ILP's overlap rows and the CP engine's conflict vectors both
    /// read it.
    pub fn forbidden_residues(&self, period: u32) -> Vec<u32> {
        assert!(period > 0, "period must be positive");
        let mut residues = vec![0];
        for f in self.forbidden_latencies() {
            let f = f % period;
            residues.extend([f, (period - f) % period]);
        }
        residues.sort_unstable();
        residues.dedup();
        residues
    }

    /// The *modulo* usage of stage `s` at residue `t` for period `T`:
    /// true iff some offset `l ≡ t (mod T)` is marked. This is the
    /// extended reservation table of Govindarajan et al. \[8\] collapsed
    /// mod `T`.
    pub fn modulo_mark(&self, s: usize, t: u32, period: u32) -> bool {
        assert!(period > 0, "period must be positive");
        (0..self.cols).any(|l| (l as u32) % period == t % period && self.mark(s, l))
    }

    /// Whether an operation can repeat every `period` cycles on one unit
    /// without self-collision — the *modulo scheduling constraint*
    /// [5, 11, 19]: no stage is used at two offsets equal mod `period`.
    pub fn modulo_feasible(&self, period: u32) -> bool {
        assert!(period > 0, "period must be positive");
        (0..self.stages).all(|s| {
            let mut seen = vec![false; period as usize];
            self.stage_offset_iter(s).all(|l| {
                let r = (l as u32 % period) as usize;
                !std::mem::replace(&mut seen[r], true)
            })
        })
    }

    /// The smallest period at which one unit can sustain one operation
    /// per period: `max(max_row_marks, first period passing the modulo
    /// constraint)`.
    pub fn min_self_period(&self) -> u32 {
        let mut t = self.max_row_marks().max(1);
        while !self.modulo_feasible(t) {
            t += 1;
        }
        t
    }

    /// Number of u64 words in one per-period cell mask for `period`:
    /// `(stages * period).div_ceil(64)`. See [`Self::modulo_cell_masks`].
    pub fn cell_mask_words(&self, period: u32) -> usize {
        (self.stages * period as usize).div_ceil(64)
    }

    /// Per-residue modulo cell masks for `period`: `masks[o]` has bit
    /// `s * period + r` set iff an operation issued at residue `o`
    /// claims stage `s` at residue `r = (o + l) % period` for some
    /// marked offset `l`. Two issues at residues `a` and `b` collide on
    /// one unit iff `masks[a] & masks[b] != 0` — one AND per word
    /// instead of a per-cell scan. Each mask is
    /// [`Self::cell_mask_words`] words long; padding bits are zero.
    pub fn modulo_cell_masks(&self, period: u32) -> Vec<Vec<u64>> {
        assert!(period > 0, "period must be positive");
        let t = period as usize;
        let words = self.cell_mask_words(period);
        let mut cell_mask = vec![vec![0u64; words]; t];
        for (o, mask) in cell_mask.iter_mut().enumerate() {
            for s in 0..self.stages {
                for l in self.stage_offset_iter(s) {
                    let bit = s * t + (o + l) % t;
                    mask[bit / 64] |= 1 << (bit % 64);
                }
            }
        }
        cell_mask
    }

    /// Per-residue modulo cell lists for `period`: `lists[o]` holds the
    /// flat cell indices `s * period + (o + l) % period` claimed by an
    /// issue at residue `o`, in scan order (stage-major, then marked
    /// offsets ascending). Consumers that must report the *first*
    /// colliding cell walk this list.
    pub fn modulo_cell_lists(&self, period: u32) -> Vec<Vec<usize>> {
        assert!(period > 0, "period must be positive");
        let t = period as usize;
        (0..t)
            .map(|o| {
                let mut cells = Vec::new();
                for s in 0..self.stages {
                    for l in self.stage_offset_iter(s) {
                        cells.push(s * t + (o + l) % t);
                    }
                }
                cells
            })
            .collect()
    }

    /// The maximum number of operations with this table that one
    /// physical unit can host per period `T` (offsets chosen freely,
    /// no stage cell claimed twice mod `T`). Exact, by backtracking with
    /// rotation symmetry (some maximum packing uses offset 0).
    ///
    /// This is the per-unit capacity behind the packing refinement of
    /// `T_res`: e.g. a stage busy at offsets {1, 2} packs ⌊T/2⌋ ops per
    /// unit, which for odd `T` is strictly less than the `T·R / marks`
    /// counting bound — a pigeonhole fact linear relaxations cannot see.
    ///
    /// Returns 0 when even a single operation self-collides (the table
    /// is not modulo-feasible at `T`).
    pub fn max_ops_per_period(&self, period: u32) -> u32 {
        assert!(period > 0, "period must be positive");
        if !self.modulo_feasible(period) {
            return 0;
        }
        let t = period as usize;
        let words = self.cell_mask_words(period);
        let cell_mask = self.modulo_cell_masks(period);
        let disjoint = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(x, y)| x & y == 0);
        let or_into = |a: &mut [u64], b: &[u64]| {
            for (x, y) in a.iter_mut().zip(b) {
                *x |= y;
            }
        };
        // DFS over increasing offsets, offset 0 fixed (rotation symmetry).
        fn dfs(
            next: usize,
            t: usize,
            used: &mut Vec<u64>,
            count: u32,
            best: &mut u32,
            cell_mask: &[Vec<u64>],
            disjoint: &dyn Fn(&[u64], &[u64]) -> bool,
        ) {
            *best = (*best).max(count);
            if next >= t || count + (t - next) as u32 <= *best {
                return;
            }
            for o in next..t {
                if disjoint(used, &cell_mask[o]) {
                    let saved = used.clone();
                    for (x, y) in used.iter_mut().zip(&cell_mask[o]) {
                        *x |= y;
                    }
                    dfs(o + 1, t, used, count + 1, best, cell_mask, disjoint);
                    *used = saved;
                }
            }
        }
        let mut used = vec![0u64; words];
        or_into(&mut used, &cell_mask[0]);
        let mut best = 1;
        dfs(1, t, &mut used, 1, &mut best, &cell_mask, &disjoint);
        best
    }
}

impl fmt::Display for ReservationTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in 0..self.stages {
            write!(f, "stage {s}: ")?;
            for l in 0..self.cols {
                write!(f, "{}", if self.mark(s, l) { 'X' } else { '.' })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_shape() {
        let rt = ReservationTable::clean(3);
        assert_eq!(rt.exec_time(), 3);
        assert_eq!(rt.stages(), 1);
        assert!(rt.mark(0, 0));
        assert!(!rt.mark(0, 1));
        assert!(rt.is_clean());
        assert_eq!(rt.max_row_marks(), 1);
        assert_eq!(rt.min_self_period(), 1);
    }

    #[test]
    fn non_pipelined_shape() {
        let rt = ReservationTable::non_pipelined(3);
        assert_eq!(rt.forbidden_latencies(), vec![1, 2]);
        assert!(!rt.is_clean());
        assert_eq!(rt.max_row_marks(), 3);
        assert_eq!(rt.min_self_period(), 3);
    }

    #[test]
    fn hazard_pipeline() {
        // stage 3 used at offsets 1 and 2 -> forbidden latency 1.
        let rt = ReservationTable::from_rows(&[
            &[true, false, false],
            &[false, true, false],
            &[false, true, true],
        ])
        .expect("well formed");
        assert_eq!(rt.forbidden_latencies(), vec![1]);
        assert_eq!(rt.max_row_marks(), 2);
        assert!(!rt.modulo_feasible(1));
        assert!(rt.modulo_feasible(2));
        assert_eq!(rt.min_self_period(), 2);
    }

    #[test]
    fn modulo_mark_wraps() {
        let rt = ReservationTable::non_pipelined(3);
        // period 2: offsets 0,1,2 -> residues 0,1,0.
        assert!(rt.modulo_mark(0, 0, 2));
        assert!(rt.modulo_mark(0, 1, 2));
        assert!(!rt.modulo_feasible(2));
    }

    #[test]
    fn from_rows_rejects_bad_shapes() {
        assert!(ReservationTable::from_rows(&[]).is_none());
        let empty: &[bool] = &[];
        assert!(ReservationTable::from_rows(&[empty]).is_none());
        assert!(ReservationTable::from_rows(&[&[true, false][..], &[true][..]]).is_none());
        // No mark at issue time.
        assert!(ReservationTable::from_rows(&[&[false, true]]).is_none());
    }

    #[test]
    fn display_renders_grid() {
        let rt = ReservationTable::from_rows(&[&[true, false], &[false, true]]).unwrap();
        let s = rt.to_string();
        assert!(s.contains("stage 0: X."));
        assert!(s.contains("stage 1: .X"));
    }

    #[test]
    #[should_panic(expected = "execution time must be positive")]
    fn zero_exec_time_panics() {
        let _ = ReservationTable::clean(0);
    }

    #[test]
    fn row_words_match_marks() {
        // A 70-column table exercises the multi-word row path.
        let mut row = vec![false; 70];
        row[0] = true;
        row[63] = true;
        row[64] = true;
        row[69] = true;
        let rt = ReservationTable::from_rows(&[&row]).expect("well formed");
        assert_eq!(rt.row_words(0).len(), 2);
        assert_eq!(rt.stage_offsets(0), vec![0, 63, 64, 69]);
        for l in 0..70 {
            assert_eq!(rt.mark(0, l), row[l], "offset {l}");
        }
        assert!(!rt.mark(0, 70));
        assert_eq!(rt.max_row_marks(), 4);
    }

    #[test]
    fn cell_masks_match_cell_lists() {
        let rt = ReservationTable::from_rows(&[
            &[true, false, false, false, true],
            &[false, true, false, true, false],
            &[false, false, true, false, false],
        ])
        .expect("well formed");
        for t in 1u32..9 {
            let masks = rt.modulo_cell_masks(t);
            let lists = rt.modulo_cell_lists(t);
            for o in 0..t as usize {
                let mut from_list = vec![0u64; rt.cell_mask_words(t)];
                for &cell in &lists[o] {
                    from_list[cell / 64] |= 1 << (cell % 64);
                }
                assert_eq!(masks[o], from_list, "T = {t}, o = {o}");
            }
        }
    }

    #[test]
    fn packing_capacity_clean() {
        // A clean pipeline hosts one op per step: T ops per period.
        let rt = ReservationTable::clean(3);
        assert_eq!(rt.max_ops_per_period(4), 4);
        assert_eq!(rt.max_ops_per_period(1), 1);
    }

    #[test]
    fn packing_capacity_non_pipelined() {
        // lat-d non-pipelined: floor(T / d) ops per unit.
        let rt = ReservationTable::non_pipelined(2);
        assert_eq!(rt.max_ops_per_period(4), 2);
        assert_eq!(rt.max_ops_per_period(5), 2);
        assert_eq!(rt.max_ops_per_period(6), 3);
        assert_eq!(rt.max_ops_per_period(1), 0); // self-collision
    }

    #[test]
    fn packing_capacity_hazard_parity() {
        // The PLDI'95 FP table: stage 3 busy at offsets {1,2} -> 2-blocks
        // mod T. Odd T wastes a slot: floor(T/2).
        let rt = ReservationTable::from_rows(&[
            &[true, false, false],
            &[false, true, false],
            &[false, true, true],
        ])
        .expect("well formed");
        assert_eq!(rt.max_ops_per_period(4), 2);
        assert_eq!(rt.max_ops_per_period(5), 2); // the pigeonhole case
        assert_eq!(rt.max_ops_per_period(6), 3);
        assert_eq!(rt.max_ops_per_period(7), 3);
    }

    #[test]
    fn packing_matches_bruteforce_on_kogge_table() {
        let rt = ReservationTable::from_rows(&[
            &[true, false, false, false, true],
            &[false, true, false, true, false],
            &[false, false, true, false, false],
        ])
        .expect("well formed");
        // Brute force over all offset subsets for small T.
        for t in 3u32..9 {
            let mut best = 0u32;
            for mask in 0u32..(1 << t) {
                let offs: Vec<u32> = (0..t).filter(|&o| mask & (1 << o) != 0).collect();
                let mut cells = std::collections::HashSet::new();
                let mut ok = true;
                'outer: for &o in &offs {
                    for s in 0..rt.stages() {
                        for l in rt.stage_offsets(s) {
                            if !cells.insert((s, (o + l as u32) % t)) {
                                ok = false;
                                break 'outer;
                            }
                        }
                    }
                }
                if ok {
                    best = best.max(offs.len() as u32);
                }
            }
            assert_eq!(rt.max_ops_per_period(t), best, "T = {t}");
        }
    }
}
