//! Periodic schedules and their `T`/`K`/`A` matrix form.
//!
//! A software-pipelined schedule is *linear periodic* (Reiter 1968):
//! instruction `i` of iteration `j` starts at `j·T + t_i`. The paper
//! factors the start-time vector as
//!
//! ```text
//! T_vec = T·K + Aᵀ·[0, 1, …, T−1]ᵀ          (paper eq. (1))
//! ```
//!
//! where `K` counts whole periods (`k_i = ⌊t_i / T⌋`) and `A` is the
//! `T×N` 0-1 matrix with `a_{t,i} = 1` iff instruction `i` issues at
//! time-step `t` of the repetitive pattern (`t = t_i mod T`). [`Matrices`]
//! reproduces exactly this factoring; Figure 3 of the paper is
//! regenerated from it.

use crate::checker::{check_capacity_only, check_fixed_assignment, ConflictError, PlacedOp};
use crate::machine::Machine;
use std::fmt;
use swp_ddg::{Ddg, NodeId};

/// A software-pipelined schedule of one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinedSchedule {
    period: u32,
    start_times: Vec<u32>,
    assignment: Vec<Option<u32>>,
}

/// The `T`, `K`, `A` decomposition of a schedule (paper Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrices {
    /// The period `T`.
    pub period: u32,
    /// Start times `t_i`.
    pub t: Vec<u32>,
    /// Whole periods `k_i = ⌊t_i / T⌋`.
    pub k: Vec<u32>,
    /// `T×N` issue matrix, row-major: `a[t][i] = 1` iff `i` issues at
    /// pattern step `t`.
    pub a: Vec<Vec<u8>>,
}

/// A violation found by [`PipelinedSchedule::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The schedule has a different node count than the DDG.
    WrongArity {
        /// Nodes in the schedule.
        schedule: usize,
        /// Nodes in the DDG.
        ddg: usize,
    },
    /// A dependence `t_j − t_i ≥ d_i − T·m_ij` is violated.
    DependenceViolated {
        /// Producing node.
        src: NodeId,
        /// Consuming node.
        dst: NodeId,
        /// Required minimum separation `d_i − T·m_ij`.
        required: i64,
        /// Actual separation `t_j − t_i`.
        actual: i64,
    },
    /// The machine checker found a structural conflict.
    Conflict(ConflictError),
    /// Register pressure exceeds the configured `max_live` bound.
    PressureExceeded {
        /// Pattern residue where the peak occurs.
        residue: u32,
        /// Values live at that residue.
        live: u32,
        /// The configured bound.
        limit: u32,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::WrongArity { schedule, ddg } => {
                write!(f, "schedule has {schedule} ops but DDG has {ddg}")
            }
            ValidationError::DependenceViolated {
                src,
                dst,
                required,
                actual,
            } => write!(
                f,
                "dependence {}->{} needs separation {required}, got {actual}",
                src.index(),
                dst.index()
            ),
            ValidationError::Conflict(c) => write!(f, "resource conflict: {c}"),
            ValidationError::PressureExceeded {
                residue,
                live,
                limit,
            } => write!(
                f,
                "register pressure {live} at residue {residue} exceeds max_live {limit}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

impl From<ConflictError> for ValidationError {
    fn from(c: ConflictError) -> Self {
        ValidationError::Conflict(c)
    }
}

impl PipelinedSchedule {
    /// Creates a schedule from raw start times and (optional) unit
    /// assignments, one entry per DDG node in id order.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or the two vectors disagree in length.
    pub fn new(period: u32, start_times: Vec<u32>, assignment: Vec<Option<u32>>) -> Self {
        assert!(period > 0, "period must be positive");
        assert_eq!(
            start_times.len(),
            assignment.len(),
            "start_times and assignment must align"
        );
        PipelinedSchedule {
            period,
            start_times,
            assignment,
        }
    }

    /// The initiation interval `T`.
    pub fn initiation_interval(&self) -> u32 {
        self.period
    }

    /// Number of scheduled operations.
    pub fn num_ops(&self) -> usize {
        self.start_times.len()
    }

    /// Start time `t_i` of node `n` (iteration 0).
    pub fn start_time(&self, n: NodeId) -> u32 {
        self.start_times[n.index()]
    }

    /// Pattern offset `t_i mod T`.
    pub fn offset(&self, n: NodeId) -> u32 {
        self.start_times[n.index()] % self.period
    }

    /// Whole periods `k_i = ⌊t_i / T⌋` — the pipeline stage of `n`.
    pub fn k(&self, n: NodeId) -> u32 {
        self.start_times[n.index()] / self.period
    }

    /// Physical unit of `n`, if the schedule is mapped.
    pub fn fu(&self, n: NodeId) -> Option<u32> {
        self.assignment[n.index()]
    }

    /// Whether every operation carries a unit assignment.
    pub fn is_mapped(&self) -> bool {
        self.assignment.iter().all(|a| a.is_some())
    }

    /// All start times in node order.
    pub fn start_times(&self) -> &[u32] {
        &self.start_times
    }

    /// All unit assignments in node order.
    pub fn assignment(&self) -> &[Option<u32>] {
        &self.assignment
    }

    /// The `T`/`K`/`A` factoring of this schedule (paper eq. (1)).
    pub fn matrices(&self) -> Matrices {
        let period = self.period;
        let n = self.start_times.len();
        let mut a = vec![vec![0u8; n]; period as usize];
        for (i, &t) in self.start_times.iter().enumerate() {
            a[(t % period) as usize][i] = 1;
        }
        Matrices {
            period,
            t: self.start_times.clone(),
            k: self.start_times.iter().map(|&t| t / period).collect(),
            a,
        }
    }

    /// The operations as seen by the machine checker.
    pub fn placed_ops(&self, ddg: &Ddg) -> Vec<PlacedOp> {
        ddg.nodes()
            .map(|(id, node)| PlacedOp {
                class: node.class,
                offset: self.offset(id),
                fu: self.fu(id),
            })
            .collect()
    }

    /// Full validation against the DDG and machine:
    ///
    /// 1. every dependence satisfies `t_j − t_i ≥ d_i − T·m_ij`;
    /// 2. if mapped, no two ops collide on any stage of any unit
    ///    (including wraparound self-collisions); if unmapped, per-class
    ///    capacity suffices at every pattern step.
    ///
    /// # Errors
    ///
    /// The first [`ValidationError`] found.
    pub fn validate(&self, ddg: &Ddg, machine: &Machine) -> Result<(), ValidationError> {
        if self.start_times.len() != ddg.num_nodes() {
            return Err(ValidationError::WrongArity {
                schedule: self.start_times.len(),
                ddg: ddg.num_nodes(),
            });
        }
        for e in ddg.edges() {
            let d = ddg.node(e.src).latency as i64;
            let required = d - self.period as i64 * e.distance as i64;
            let actual =
                self.start_times[e.dst.index()] as i64 - self.start_times[e.src.index()] as i64;
            if actual < required {
                return Err(ValidationError::DependenceViolated {
                    src: e.src,
                    dst: e.dst,
                    required,
                    actual,
                });
            }
        }
        let ops = self.placed_ops(ddg);
        if self.is_mapped() {
            check_fixed_assignment(machine, self.period, &ops)?;
        } else {
            check_capacity_only(machine, self.period, &ops)?;
        }
        Ok(())
    }

    /// The flat schedule of the first `iterations` iterations:
    /// `(iteration, node, start_cycle)` triples sorted by cycle. Renders
    /// the prolog / repetitive pattern / epilog view of paper Figure 2.
    pub fn flat(&self, iterations: u32) -> Vec<(u32, NodeId, u64)> {
        let mut out = Vec::new();
        for j in 0..iterations {
            for (i, &t) in self.start_times.iter().enumerate() {
                out.push((
                    j,
                    NodeId::from_index(i),
                    j as u64 * self.period as u64 + t as u64,
                ));
            }
        }
        out.sort_by_key(|&(j, n, c)| (c, j, n));
        out
    }

    /// Buffer (logical register) demand per dependence, following
    /// Ning & Gao: the value flowing along edge `(i, j)` with distance
    /// `m` has `⌈(t_j − t_i)/T⌉ + m` instances live at once. Returns the
    /// counts in edge order plus their sum.
    pub fn buffer_requirements(&self, ddg: &Ddg) -> (Vec<u32>, u32) {
        let t = self.period as i64;
        let per_edge: Vec<u32> = ddg
            .edges()
            .map(|e| {
                let diff =
                    self.start_times[e.dst.index()] as i64 - self.start_times[e.src.index()] as i64;
                let ceil_div = diff.div_euclid(t) + i64::from(diff.rem_euclid(t) != 0);
                (ceil_div + e.distance as i64).max(0) as u32
            })
            .collect();
        let total = per_edge.iter().sum();
        (per_edge, total)
    }

    /// The live range `L_i` of each node's value, in node order: from
    /// issue to the last consuming *issue* across iteration distance,
    /// `max_j (t_j + T·m_ij) − t_i` over out-edges of `i` (clamped at 0;
    /// 0 for values never consumed). Issue-based — deliberately free of
    /// latencies — so that uniformly scaling latencies cannot manufacture
    /// pressure a scaled schedule did not already have.
    pub fn live_ranges(&self, ddg: &Ddg) -> Vec<i64> {
        let t = self.period as i64;
        let mut live = vec![0i64; self.start_times.len()];
        for e in ddg.edges() {
            let span = self.start_times[e.dst.index()] as i64 + t * e.distance as i64
                - self.start_times[e.src.index()] as i64;
            let l = &mut live[e.src.index()];
            *l = (*l).max(span);
        }
        live
    }

    /// Values simultaneously live at each pattern residue `ρ` of the
    /// steady state. A value with live range `L_i` contributes
    /// `⌈(L_i − δ)/T⌉` overlapping iteration instances at residue `ρ`,
    /// where `δ = (ρ − t_i) mod T` — the modulo analogue of the
    /// Ning–Gao buffer count, per residue instead of per edge.
    pub fn live_per_residue(&self, ddg: &Ddg) -> Vec<u32> {
        let t = self.period as i64;
        let mut per_residue = vec![0u32; self.period as usize];
        for (i, l) in self.live_ranges(ddg).into_iter().enumerate() {
            if l <= 0 {
                continue;
            }
            let off = (self.start_times[i] % self.period) as i64;
            for (rho, slot) in per_residue.iter_mut().enumerate() {
                let delta = (rho as i64 - off).rem_euclid(t);
                let instances = (l - delta + t - 1).div_euclid(t).max(0);
                *slot += instances as u32;
            }
        }
        per_residue
    }

    /// Peak register pressure: the maximum of
    /// [`PipelinedSchedule::live_per_residue`].
    pub fn max_live(&self, ddg: &Ddg) -> u32 {
        self.live_per_residue(ddg).into_iter().max().unwrap_or(0)
    }

    /// Checks the schedule against a register-pressure bound: no more
    /// than `limit` values live at any pattern residue.
    ///
    /// # Errors
    ///
    /// [`ValidationError::PressureExceeded`] at the first offending
    /// residue.
    pub fn validate_pressure(&self, ddg: &Ddg, limit: u32) -> Result<(), ValidationError> {
        for (rho, live) in self.live_per_residue(ddg).into_iter().enumerate() {
            if live > limit {
                return Err(ValidationError::PressureExceeded {
                    residue: rho as u32,
                    live,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Length of one iteration's schedule (makespan of iteration 0).
    pub fn span(&self, ddg: &Ddg) -> u32 {
        ddg.nodes()
            .map(|(id, n)| self.start_time(id) + n.latency)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Matrices {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "T = {}, t = {:?}, K = {:?}\nA =\n",
            self.period, self.t, self.k
        )?;
        for row in &self.a {
            write!(f, "  [")?;
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{v}")?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_ddg::OpClass;

    /// The paper's Schedule B: T = 4, t = [0,1,3,5,7,11].
    fn schedule_b() -> PipelinedSchedule {
        PipelinedSchedule::new(
            4,
            vec![0, 1, 3, 5, 7, 11],
            vec![Some(0), Some(0), Some(0), Some(0), Some(1), Some(0)],
        )
    }

    #[test]
    fn matrices_match_paper_figure_3() {
        let m = schedule_b().matrices();
        assert_eq!(m.k, vec![0, 0, 0, 1, 1, 2]); // paper's K
                                                 // offsets: [0,1,3,1,3,3]
        assert_eq!(m.a[0], vec![1, 0, 0, 0, 0, 0]);
        assert_eq!(m.a[1], vec![0, 1, 0, 1, 0, 0]); // row shown in the paper
        assert_eq!(m.a[2], vec![0, 0, 0, 0, 0, 0]);
        assert_eq!(m.a[3], vec![0, 0, 1, 0, 1, 1]); // row shown in the paper
    }

    #[test]
    fn offsets_and_k_consistent() {
        let s = schedule_b();
        for i in 0..6 {
            let n = NodeId::from_index(i);
            assert_eq!(s.k(n) * 4 + s.offset(n), s.start_time(n));
        }
    }

    #[test]
    fn flat_schedule_sorted_and_periodic() {
        let s = schedule_b();
        let flat = s.flat(3);
        assert_eq!(flat.len(), 18);
        assert!(flat.windows(2).all(|w| w[0].2 <= w[1].2));
        // i0 of iteration 2 starts at 8.
        assert!(flat.contains(&(2, NodeId::from_index(0), 8)));
    }

    #[test]
    fn validate_catches_dependence_violation() {
        let mut g = Ddg::new();
        let a = g.add_node("a", OpClass::new(1), 2);
        let b = g.add_node("b", OpClass::new(1), 2);
        g.add_edge(a, b, 0).unwrap();
        let machine = Machine::example_clean();
        let bad = PipelinedSchedule::new(4, vec![0, 1], vec![Some(0), Some(1)]);
        assert!(matches!(
            bad.validate(&g, &machine),
            Err(ValidationError::DependenceViolated { .. })
        ));
        let good = PipelinedSchedule::new(4, vec![0, 2], vec![Some(0), Some(1)]);
        assert_eq!(good.validate(&g, &machine), Ok(()));
    }

    #[test]
    fn validate_catches_arity_mismatch() {
        let g = Ddg::new();
        let s = PipelinedSchedule::new(2, vec![0], vec![None]);
        assert!(matches!(
            s.validate(&g, &Machine::example_clean()),
            Err(ValidationError::WrongArity { .. })
        ));
    }

    #[test]
    fn loop_carried_dependence_relaxes_with_distance() {
        let mut g = Ddg::new();
        let a = g.add_node("a", OpClass::new(1), 2);
        g.add_edge(a, a, 1).unwrap(); // t_a >= t_a + 2 - T  -> T >= 2
        let machine = Machine::example_clean();
        let s1 = PipelinedSchedule::new(1, vec![0], vec![Some(0)]);
        assert!(s1.validate(&g, &machine).is_err());
        let s2 = PipelinedSchedule::new(2, vec![0], vec![Some(0)]);
        assert_eq!(s2.validate(&g, &machine), Ok(()));
    }

    #[test]
    fn live_counts_follow_the_ceiling_formula() {
        let mut g = Ddg::new();
        let a = g.add_node("a", OpClass::new(0), 1);
        let b = g.add_node("b", OpClass::new(0), 1);
        g.add_edge(a, b, 0).unwrap();
        // T=2, t=[0,1]: L_a = 1 -> live only at residue 0; b unread.
        let s = PipelinedSchedule::new(2, vec![0, 1], vec![None, None]);
        assert_eq!(s.live_ranges(&g), vec![1, 0]);
        assert_eq!(s.live_per_residue(&g), vec![1, 0]);
        assert_eq!(s.max_live(&g), 1);
        assert_eq!(s.validate_pressure(&g, 1), Ok(()));
        assert!(matches!(
            s.validate_pressure(&g, 0),
            Err(ValidationError::PressureExceeded {
                residue: 0,
                live: 1,
                limit: 0
            })
        ));
    }

    #[test]
    fn live_range_of_a_full_period_covers_every_residue_once() {
        // Self-loop at distance 1: L = T, exactly one instance live at
        // every residue; L = T+1 overlaps two instances at the issue
        // residue.
        let mut g = Ddg::new();
        let a = g.add_node("a", OpClass::new(0), 1);
        g.add_edge(a, a, 1).unwrap();
        let s = PipelinedSchedule::new(3, vec![0], vec![None]);
        assert_eq!(s.live_ranges(&g), vec![3]);
        assert_eq!(s.live_per_residue(&g), vec![1, 1, 1]);

        let mut g2 = Ddg::new();
        let a = g2.add_node("a", OpClass::new(0), 1);
        let b = g2.add_node("b", OpClass::new(0), 1);
        g2.add_edge(a, b, 1).unwrap(); // L_a = 1 + 3 - 0 = 4 = T+1
        let s2 = PipelinedSchedule::new(3, vec![0, 1], vec![None, None]);
        assert_eq!(s2.live_ranges(&g2), vec![4, 0]);
        assert_eq!(s2.live_per_residue(&g2), vec![2, 1, 1]);
        assert_eq!(s2.max_live(&g2), 2);
    }

    #[test]
    fn span_is_makespan() {
        let mut g = Ddg::new();
        let a = g.add_node("a", OpClass::new(1), 2);
        let b = g.add_node("b", OpClass::new(2), 3);
        g.add_edge(a, b, 0).unwrap();
        let s = PipelinedSchedule::new(4, vec![0, 2], vec![None, None]);
        assert_eq!(s.span(&g), 5);
    }
}
