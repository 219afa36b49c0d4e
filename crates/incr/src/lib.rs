//! Incremental solving sessions.
//!
//! A [`SolveSession`] owns a DDG, a target machine, and a scheduler
//! configuration, and survives across queries: repeated solves and
//! small graph edits (add/remove an instruction or a dependence) reuse
//! work from earlier solves instead of starting cold. Reuse happens in
//! two tiers with very different trust levels:
//!
//! * **Exact replay.** Results are cached under a structural
//!   fingerprint of the instance. Re-solving a fingerprint-identical
//!   instance (e.g. after an edit script that reverts itself) replays
//!   the cached [`ScheduleResult`] bit for bit — same schedule, same
//!   attempt log, same optimality claim. Always sound: same instance,
//!   same deterministic solver.
//! * **Schedule hint.** Across *different* fingerprints the session
//!   carries only the last feasible schedule ([`WarmState::ims_hint`]),
//!   projected onto the remaining instructions on node removal and
//!   dropped when a node is added. The IMS probe tries it first at each
//!   candidate period, and the cycle-accurate checker re-validates it
//!   before it counts, so a stale hint can at worst waste the work of
//!   checking it. Every refutation behind an optimality claim is made
//!   in the solve itself; nothing proven for an earlier instance is
//!   trusted for the next one.
//!
//! The differential obligation (`swp-fuzz`'s incremental-vs-cold mode)
//! is that for any edit script the session and a cold
//! [`RateOptimalScheduler::schedule_with`] agree on achieved period,
//! optimality claim, and schedule validity at every step.
//!
//! Node identity is positional, like [`Ddg`]: `add_node` returns the
//! next index, and [`EditOp::RemoveNode`] shifts every higher index
//! down by one (the `Vec::remove` convention). Callers that need
//! stable handles across removals must track the shifts themselves —
//! the daemon's session protocol simply exposes the same convention.

use std::collections::HashMap;

use swp_core::{
    RateOptimalScheduler, ReuseStats, ScheduleError, ScheduleResult, SchedulerConfig, WarmState,
};
use swp_ddg::{Ddg, OpClass};
use swp_machine::{Machine, PipelinedSchedule};
use swp_milp::Budget;

/// Cached exact-replay results kept per session. The cache is cleared
/// wholesale when full; edit scripts revisit a handful of recent
/// fingerprints (undo/redo lineages), so recency is the only structure
/// worth preserving.
const MAX_CACHED_SOLVES: usize = 64;

/// One instruction as the session records it (the session re-builds the
/// [`Ddg`] from these specs after destructive edits, which `Ddg` itself
/// does not support).
#[derive(Debug, Clone, PartialEq, Eq)]
struct NodeSpec {
    name: String,
    class: OpClass,
    latency: u32,
}

/// A graph edit, the unit of the session's incremental interface.
///
/// `class` is the function-unit class index on the session's machine;
/// node endpoints are positional indices into the current live nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// Append an instruction (tightening: more resource demand, no new
    /// freedom for the existing instructions).
    AddNode {
        /// Human-readable name.
        name: String,
        /// Function-unit class index.
        class: usize,
        /// Latency in cycles.
        latency: u32,
    },
    /// Remove the instruction at `index` and every incident dependence
    /// (relaxing). Higher indices shift down by one.
    RemoveNode {
        /// Positional index of the instruction to remove.
        index: usize,
    },
    /// Add a dependence edge (tightening).
    AddEdge {
        /// Producing instruction index.
        src: usize,
        /// Consuming instruction index.
        dst: usize,
        /// Iteration distance `m_ij`.
        distance: u32,
    },
    /// Remove one matching dependence edge (relaxing).
    RemoveEdge {
        /// Producing instruction index.
        src: usize,
        /// Consuming instruction index.
        dst: usize,
        /// Iteration distance `m_ij`.
        distance: u32,
    },
}

/// Errors from applying an edit to a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// An edit referenced a node index not currently in the graph.
    UnknownNode(usize),
    /// `RemoveEdge` named a dependence that does not exist.
    UnknownEdge {
        /// Producing instruction index.
        src: usize,
        /// Consuming instruction index.
        dst: usize,
        /// Iteration distance.
        distance: u32,
    },
    /// The edit referenced a function-unit class the machine lacks.
    UnknownClass(usize),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownNode(i) => write!(f, "unknown node index {i}"),
            SessionError::UnknownEdge { src, dst, distance } => {
                write!(f, "no edge {src} -> {dst} (distance {distance})")
            }
            SessionError::UnknownClass(c) => write!(f, "unknown class index {c}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// A long-lived solving session: DDG + machine + configuration, with
/// warm state and an exact-replay cache carried across queries.
pub struct SolveSession {
    scheduler: RateOptimalScheduler,
    nodes: Vec<NodeSpec>,
    edges: Vec<(usize, usize, u32)>,
    /// Rebuilt lazily after edits; `None` means dirty.
    ddg: Option<Ddg>,
    warm: WarmState,
    cache: HashMap<u64, ScheduleResult>,
    edits_applied: u64,
    solves: u64,
}

impl SolveSession {
    /// An empty session for `machine` under `config`.
    pub fn new(machine: Machine, config: SchedulerConfig) -> Self {
        SolveSession {
            scheduler: RateOptimalScheduler::new(machine, config),
            nodes: Vec::new(),
            edges: Vec::new(),
            ddg: Some(Ddg::new()),
            warm: WarmState::new(),
            cache: HashMap::new(),
            edits_applied: 0,
            solves: 0,
        }
    }

    /// A session seeded from an existing graph (e.g. a corpus loop).
    pub fn from_ddg(machine: Machine, config: SchedulerConfig, ddg: &Ddg) -> Self {
        let mut s = SolveSession::new(machine, config);
        s.nodes = ddg
            .nodes()
            .map(|(_, n)| NodeSpec {
                name: n.name.clone(),
                class: n.class,
                latency: n.latency,
            })
            .collect();
        s.edges = ddg
            .edges()
            .map(|e| (e.src.index(), e.dst.index(), e.distance))
            .collect();
        s.ddg = None;
        s
    }

    /// Number of live instructions.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live dependences.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edits applied so far.
    pub fn edits_applied(&self) -> u64 {
        self.edits_applied
    }

    /// Solves answered so far (replays included).
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Cumulative reuse telemetry (snapshot-and-diff per query).
    pub fn reuse(&self) -> ReuseStats {
        self.warm.reuse
    }

    /// The machine this session targets.
    pub fn machine(&self) -> &Machine {
        self.scheduler.machine()
    }

    /// The current graph (rebuilt if an edit dirtied it).
    pub fn ddg(&mut self) -> &Ddg {
        if self.ddg.is_none() {
            let mut g = Ddg::new();
            let ids: Vec<_> = self
                .nodes
                .iter()
                .map(|n| g.add_node(n.name.clone(), n.class, n.latency))
                .collect();
            for &(src, dst, distance) in &self.edges {
                // Specs are validated on entry, so the ids are in range.
                let _ = g.add_edge(ids[src], ids[dst], distance);
            }
            self.ddg = Some(g);
        }
        self.ddg.as_ref().expect("just built")
    }

    /// Applies one edit, adjusting the carried schedule hint to the
    /// edited instance. Returns the size of the
    /// dependency cone the edit invalidated (also accumulated into
    /// [`ReuseStats::cone_nodes`]).
    pub fn apply(&mut self, op: &EditOp) -> Result<usize, SessionError> {
        let n = self.nodes.len();
        let cone = match op {
            EditOp::AddNode {
                name,
                class,
                latency,
            } => {
                if *class >= self.machine().num_classes() {
                    return Err(SessionError::UnknownClass(*class));
                }
                self.nodes.push(NodeSpec {
                    name: name.clone(),
                    class: OpClass::new(*class),
                    latency: *latency,
                });
                // The carried schedule covers one fewer op than the new
                // instance and can never re-validate; drop it rather
                // than paying a doomed check every period.
                self.warm.ims_hint = None;
                1
            }
            EditOp::AddEdge { src, dst, distance } => {
                for &e in [src, dst].iter() {
                    if *e >= n {
                        return Err(SessionError::UnknownNode(*e));
                    }
                }
                self.edges.push((*src, *dst, *distance));
                self.cone(*src, *dst)
            }
            EditOp::RemoveEdge { src, dst, distance } => {
                let at = self
                    .edges
                    .iter()
                    .position(|&(s, d, m)| s == *src && d == *dst && m == *distance)
                    .ok_or(SessionError::UnknownEdge {
                        src: *src,
                        dst: *dst,
                        distance: *distance,
                    })?;
                self.edges.remove(at);
                // Relaxing: the old schedule stays feasible and survives
                // as a hint.
                self.cone(*src, *dst)
            }
            EditOp::RemoveNode { index } => {
                if *index >= n {
                    return Err(SessionError::UnknownNode(*index));
                }
                let cone = self.cone(*index, *index);
                self.nodes.remove(*index);
                self.edges.retain(|&(s, d, _)| s != *index && d != *index);
                for (s, d, _) in self.edges.iter_mut() {
                    if *s > *index {
                        *s -= 1;
                    }
                    if *d > *index {
                        *d -= 1;
                    }
                }
                // Project the carried schedule onto the survivors: the
                // remaining placements use a subset of the resources, so
                // the projection stays feasible — and is re-validated
                // before use regardless.
                if let Some(h) = self.warm.ims_hint.take() {
                    if h.num_ops() == n {
                        let mut starts = h.start_times().to_vec();
                        let mut assign = h.assignment().to_vec();
                        starts.remove(*index);
                        assign.remove(*index);
                        self.warm.ims_hint = Some(PipelinedSchedule::new(
                            h.initiation_interval(),
                            starts,
                            assign,
                        ));
                    }
                }
                cone
            }
        };
        self.ddg = None;
        self.edits_applied += 1;
        self.warm.reuse.cone_nodes += cone as u64;
        Ok(cone)
    }

    /// Solves the current instance, warm, with no budget, mirroring
    /// [`RateOptimalScheduler::schedule`].
    pub fn solve(&mut self) -> Result<ScheduleResult, ScheduleError> {
        self.solve_with(&Budget::unlimited())
    }

    /// Solves the current instance under an explicit budget, reusing
    /// carried state: fingerprint-identical instances replay the cached
    /// result outright; otherwise the sweep runs with the schedule hint
    /// that survived the intervening edits.
    pub fn solve_with(&mut self, budget: &Budget) -> Result<ScheduleResult, ScheduleError> {
        self.solves += 1;
        let fp = self.fingerprint();
        if let Some(hit) = self.cache.get(&fp) {
            let result = hit.clone();
            self.warm.reuse.replays += 1;
            // Re-anchor the hint on the replayed instance so the *next*
            // edit chains off it, exactly as if we had re-solved.
            self.warm.ims_hint = Some(result.schedule.clone());
            return Ok(result);
        }
        self.ddg();
        let ddg = self.ddg.take().expect("just built");
        let solved = self
            .scheduler
            .schedule_with_warm(&ddg, budget, &mut self.warm);
        self.ddg = Some(ddg);
        if let Ok(res) = &solved {
            if self.cache.len() >= MAX_CACHED_SOLVES {
                self.cache.clear();
            }
            self.cache.insert(fp, res.clone());
        }
        solved
    }

    /// Structural fingerprint of the current instance (nodes in order,
    /// edges as a multiset-insensitive ordered list). Machine and
    /// configuration are fixed per session, so they are not hashed.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.nodes.len() as u64);
        for n in &self.nodes {
            h.bytes(n.name.as_bytes());
            h.u64(n.class.index() as u64);
            h.u64(u64::from(n.latency));
        }
        // Edge order must not matter: scripts that remove and re-add a
        // dependence land it at the back of the list, yet describe the
        // same instance. Hash a sorted copy.
        let mut edges = self.edges.clone();
        edges.sort_unstable();
        h.u64(edges.len() as u64);
        for (s, d, m) in edges {
            h.u64(s as u64);
            h.u64(d as u64);
            h.u64(u64::from(m));
        }
        h.finish()
    }

    /// The dependency cone of an edit touching `a` (as a consumer side)
    /// and `b` (as a producer side): every transitive predecessor of
    /// `a`, every transitive successor of `b`, and the endpoints
    /// themselves. These are the instructions whose feasible start
    /// windows the edit can move; the count feeds reuse telemetry.
    fn cone(&self, a: usize, b: usize) -> usize {
        let n = self.nodes.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(s, d, _) in &self.edges {
            succs[s].push(d);
            preds[d].push(s);
        }
        let mut in_cone = vec![false; n];
        let mut stack = vec![a];
        while let Some(v) = stack.pop() {
            if !in_cone[v] {
                in_cone[v] = true;
                stack.extend(preds[v].iter().copied().filter(|&p| !in_cone[p]));
            }
        }
        let mut down = vec![false; n];
        stack.push(b);
        while let Some(v) = stack.pop() {
            if !down[v] {
                down[v] = true;
                stack.extend(succs[v].iter().copied().filter(|&s| !down[s]));
            }
        }
        (0..n).filter(|&v| in_cone[v] || down[v]).count()
    }
}

/// FNV-1a, the same hash the harness uses for artifact fingerprints —
/// stable across platforms and runs, cheap, and collision-safe enough
/// for a per-session cache keyed by full structural content.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_machine::{FuType, Machine, ReservationTable};

    fn machine() -> Machine {
        Machine::new(vec![
            FuType {
                name: "alu".into(),
                count: 1,
                latency: 1,
                reservation: ReservationTable::clean(1),
            },
            FuType {
                name: "mul".into(),
                count: 1,
                latency: 2,
                reservation: ReservationTable::non_pipelined(2),
            },
        ])
        .expect("valid machine")
    }

    fn seeded() -> SolveSession {
        let mut ddg = Ddg::new();
        let a = ddg.add_node("a", OpClass::new(0), 1);
        let b = ddg.add_node("b", OpClass::new(1), 2);
        let c = ddg.add_node("c", OpClass::new(0), 1);
        ddg.add_edge(a, b, 0).expect("edge");
        ddg.add_edge(b, c, 0).expect("edge");
        ddg.add_edge(c, a, 2).expect("edge");
        SolveSession::from_ddg(machine(), SchedulerConfig::default(), &ddg)
    }

    #[test]
    fn replay_is_bit_for_bit() {
        let mut s = seeded();
        let first = s.solve().expect("feasible");
        let again = s.solve().expect("feasible");
        assert_eq!(first.schedule, again.schedule);
        assert_eq!(first.optimality.is_proven(), again.optimality.is_proven());
        assert_eq!(s.reuse().replays, 1);
    }

    #[test]
    fn revert_script_replays() {
        let mut s = seeded();
        let before = s.solve().expect("feasible");
        let fp = s.fingerprint();
        s.apply(&EditOp::AddEdge {
            src: 0,
            dst: 2,
            distance: 1,
        })
        .expect("apply");
        let _mid = s.solve().expect("still feasible");
        s.apply(&EditOp::RemoveEdge {
            src: 0,
            dst: 2,
            distance: 1,
        })
        .expect("apply");
        assert_eq!(s.fingerprint(), fp, "revert restores the fingerprint");
        let after = s.solve().expect("feasible");
        assert_eq!(before.schedule, after.schedule);
        assert!(s.reuse().replays >= 1);
    }

    #[test]
    fn remove_node_shifts_indices() {
        let mut s = seeded();
        s.apply(&EditOp::RemoveNode { index: 1 }).expect("apply");
        assert_eq!(s.num_nodes(), 2);
        // Only the carried c->a recurrence survives, renumbered 1 -> 0.
        assert_eq!(s.num_edges(), 1);
        let res = s.solve().expect("feasible");
        assert_eq!(res.schedule.num_ops(), 2);
    }

    /// A first solve that refutes `T_lb` under a pressure cap, then a
    /// tightening edit (one more ALU op): the warm re-solve must
    /// reach the same decision as a cold solve of the edited instance,
    /// making its own refutations rather than inheriting the first's.
    #[test]
    fn tightened_resolve_matches_cold() {
        let config = SchedulerConfig {
            max_live: Some(2),
            ..SchedulerConfig::default()
        };
        let mut ddg = Ddg::new();
        let a = ddg.add_node("a", OpClass::new(0), 1);
        let b = ddg.add_node("b", OpClass::new(1), 2);
        let c = ddg.add_node("c", OpClass::new(0), 1);
        ddg.add_edge(a, b, 0).expect("edge");
        ddg.add_edge(a, c, 0).expect("edge");
        ddg.add_edge(b, c, 0).expect("edge");
        let mut s = SolveSession::from_ddg(machine(), config.clone(), &ddg);
        let first = s.solve().expect("feasible");
        let t_lb = first.t_dep.max(first.t_res);
        assert!(first.is_proven_optimal());
        assert!(
            first.schedule.initiation_interval() > t_lb,
            "T_lb is refuted"
        );
        s.apply(&EditOp::AddNode {
            name: "d".into(),
            class: 0,
            latency: 1,
        })
        .expect("apply");
        let warm = s.solve().expect("feasible");
        let cold = RateOptimalScheduler::new(machine(), config)
            .schedule_with(s.ddg(), &Budget::unlimited())
            .expect("feasible");
        let decision =
            |r: &ScheduleResult| (r.schedule.initiation_interval(), r.is_proven_optimal());
        assert_eq!(decision(&warm), decision(&cold));
        // The re-solve sweeps from its own lower bound, below the first
        // solve's proven period, and refutes it itself.
        let warm_lb = warm.t_dep.max(warm.t_res);
        assert!(warm_lb < first.schedule.initiation_interval());
        assert_eq!(warm.attempts.first().map(|a| a.period), Some(warm_lb));
    }

    #[test]
    fn bad_edits_are_rejected() {
        let mut s = seeded();
        assert_eq!(
            s.apply(&EditOp::RemoveNode { index: 9 }),
            Err(SessionError::UnknownNode(9))
        );
        assert_eq!(
            s.apply(&EditOp::AddEdge {
                src: 0,
                dst: 7,
                distance: 0
            }),
            Err(SessionError::UnknownNode(7))
        );
        assert_eq!(
            s.apply(&EditOp::RemoveEdge {
                src: 0,
                dst: 2,
                distance: 3
            }),
            Err(SessionError::UnknownEdge {
                src: 0,
                dst: 2,
                distance: 3
            })
        );
        assert_eq!(
            s.apply(&EditOp::AddNode {
                name: "x".into(),
                class: 5,
                latency: 1
            }),
            Err(SessionError::UnknownClass(5))
        );
        // Rejected edits leave the instance untouched.
        assert_eq!(s.num_nodes(), 3);
        assert_eq!(s.num_edges(), 3);
        assert_eq!(s.edits_applied(), 0);
    }
}
