//! The unified ILP formulations of the paper (§4 and §5).
//!
//! Given a DDG, a machine, and a candidate period `T`, [`Formulation`]
//! emits a mixed-integer model over:
//!
//! * `a_{t,i} ∈ {0,1}` — instruction `i` issues at pattern step `t`
//!   (the `A` matrix; paper eqs. (9)/(23): `Σ_t a_{t,i} = 1`);
//! * `k_i ≥ 0` integer and `t_i ≥ 0` — linked by
//!   `t_i = T·k_i + Σ_t t·a_{t,i}` (eqs. (7)/(22));
//! * dependences `t_j − t_i ≥ d_i − T·m_ij` (eqs. (4)/(8)), in one of
//!   two row forms with the same integer points. An edge whose endpoints
//!   share a recurrence (a cyclic SCC) gets the `T` structured rows of
//!   Eichenberger and Davidson over `a` and `k` (see
//!   `add_structured_dependence`), whose LP relaxation cannot spread an
//!   issue row across residues to meet the dependence; every other edge
//!   keeps the paper's aggregate row over `t`, one row instead of `T`;
//! * per-class **capacity** rows: for each stage `s` and step `t`,
//!   `Σ_i U_s[t, i] ≤ R_r`, where the stage usage
//!   `U_s[t, i] = Σ_{l ∈ offsets(s)} a_{((t−l) mod T), i}` (eqs. (5)/(25))
//!   is inlined as a sum of `a` variables;
//! * and, in [`MappingMode::UnifiedColoring`], the **mapping** as a
//!   circular-arc coloring (§4.2/§5): colors `c_i ∈ [1, R_r]`, pairwise
//!   overlap indicators `δ_{ij}` forced to 1 whenever `i` and `j` occupy
//!   the same stage at the same step, and Hu's 0-1 linearization
//!   (`w_{ij}`) of `|c_i − c_j| ≥ δ_{ij}` (eqs. (12)–(14), Theorem 4.1).
//!   Two ops overlap iff `(t_j − t_i) mod T` lies in the forbidden set
//!   `D = {0} ∪ {±f mod T}` of the class's reservation table, so `δ_{ij}`
//!   is forced by one row per step,
//!   `a_{t,i} + Σ_{d∈D} a_{(t+d) mod T, j} − δ_{ij} ≤ 1`, rather than one
//!   per stage and step.
//!
//! The paper-literal forms — explicit usage variables `U_s[t, i]` with
//! their defining equalities, the per-stage overlap rows, and the
//! aggregate dependence row on every edge — live in the test module as
//! the references this formulation is checked against.
//!
//! Clean pipelines never overlap on a stage across distinct ops issued at
//! distinct steps, and classes with a single unit are fully constrained
//! by capacity, so coloring machinery is emitted only where it can bind:
//! classes with `R_r ≥ 2` and at least two ops whose tables are unclean.

use crate::ScheduleError;
use swp_ddg::{Ddg, NodeId, OpClass};
use swp_machine::Machine;
use swp_milp::{Budget, Exhaustion, LinExpr, Model, Sense, VarId, VarKind};

/// How the mapping (instruction → physical unit) is handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingMode {
    /// Only per-class capacity constraints (paper eq. (5)): function units
    /// are chosen at run time. This is the pre-paper state of the art
    /// (\[9\]/\[6\]) and can yield schedules with **no** valid fixed
    /// assignment — the paper's Table 1.
    CapacityOnly,
    /// Scheduling and mapping solved together: capacity plus the
    /// circular-arc coloring constraints. Schedules come out with a valid
    /// unit for every instruction. This is the paper's contribution.
    #[default]
    UnifiedColoring,
}

/// Objective imposed on top of feasibility at a fixed `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Pure feasibility: rate-optimality comes from the driver trying
    /// `T = T_lb, T_lb+1, …` and stopping at the first feasible period.
    #[default]
    Feasible,
    /// Minimize `Σ_i t_i`: compact schedules, shorter prologs; also a
    /// useful LP guide (paper §4's heuristic remark).
    MinStartTimes,
    /// Minimize `Σ_r max_color_r`: the fewest physical units that still
    /// sustain this `T` (the paper's `min Σ C_r R_r` with unit costs).
    /// Only meaningful under [`MappingMode::UnifiedColoring`].
    MinUnits,
    /// Minimize total buffer (logical register) demand à la Ning & Gao
    /// \[18\], the extension the paper's §7 points to: for each dependence
    /// `(i, j)` the number of simultaneously live instances of `i`'s
    /// value is `⌈(t_j − t_i)/T⌉ + m_ij`, captured by an integer
    /// `B_ij ≥ (t_j − t_i)/T + m_ij` and minimized.
    MinBuffers,
}

/// Options controlling what [`build`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FormulationOptions {
    /// How the mapping is handled.
    pub mapping: MappingMode,
    /// Objective on top of feasibility.
    pub objective: Objective,
    /// Register-pressure cap: bound the number of simultaneously live
    /// values (counted per pattern residue, exactly as
    /// [`swp_machine::PipelinedSchedule::live_per_residue`]) by this
    /// limit. `None` leaves pressure unconstrained.
    pub max_live: Option<u32>,
}

impl FormulationOptions {
    /// The defaults the scheduler uses: unified coloring and the
    /// feasibility objective.
    pub fn standard() -> Self {
        FormulationOptions {
            mapping: MappingMode::UnifiedColoring,
            objective: Objective::Feasible,
            max_live: None,
        }
    }
}

/// Handles into the built model, used to read the solution back.
#[derive(Debug)]
pub struct Formulation {
    /// The model, ready to solve.
    pub model: Model,
    /// `a[i][t]` — issue indicator for node `i` at step `t`.
    pub a: Vec<Vec<VarId>>,
    /// `t_i` start-time variables.
    pub t: Vec<VarId>,
    /// `k_i` period-count variables.
    pub k: Vec<VarId>,
    /// `c_i` color variables for nodes that got one (else `None`).
    pub color: Vec<Option<VarId>>,
    /// The candidate period.
    pub period: u32,
}

/// Builds the ILP for scheduling `ddg` on `machine` at period `period`.
///
/// Convenience wrapper around [`build_with`] with an unlimited budget —
/// for callers (tests, benches, one-shot tools) that never cancel a
/// build in flight. The scheduler goes through [`build_with`] so that a
/// cancelled solve aborts model construction promptly.
///
/// # Errors
///
/// [`ScheduleError::UnknownClass`] if the DDG uses a class the machine
/// does not define.
pub fn build(
    ddg: &Ddg,
    machine: &Machine,
    period: u32,
    options: FormulationOptions,
) -> Result<Formulation, ScheduleError> {
    build_with(ddg, machine, period, options, &Budget::unlimited())
}

/// Budget-aware [`build`]: consults `budget`'s **cancel flag** (only —
/// ticks and deadline are the solver's business, and the solver trips
/// on them the moment it starts) at every loop boundary, so a cancelled
/// caller pays at most one constraint family of dead work instead of
/// the whole model. This is what keeps cancellation prompt: on small
/// loops the build dominates the ILP's wall time.
///
/// # Errors
///
/// [`ScheduleError::UnknownClass`] for an undefined class,
/// [`ScheduleError::Cancelled`] when the budget's cancel flag fires
/// mid-build.
pub fn build_with(
    ddg: &Ddg,
    machine: &Machine,
    period: u32,
    options: FormulationOptions,
    budget: &Budget,
) -> Result<Formulation, ScheduleError> {
    assert!(period > 0, "period must be positive");
    let bail = || -> Result<(), ScheduleError> {
        match budget.check() {
            Err(Exhaustion::Cancelled) => Err(ScheduleError::Cancelled),
            _ => Ok(()),
        }
    };
    let FormulationOptions {
        mapping,
        objective,
        max_live,
    } = options;
    let n = ddg.num_nodes();
    let t_f = period as f64;
    let mut model = Model::new();

    // Horizon: t_i < T·k_max. Any feasible schedule can be compacted so
    // that every start time is below Σ d_i + T (each op waits at most the
    // full chain); we take a safe cap.
    let horizon = (ddg.total_latency() + period) as f64 + t_f;
    let k_max = (horizon / t_f).ceil();

    // --- Variables ---
    let mut a = Vec::with_capacity(n);
    let mut t_vars = Vec::with_capacity(n);
    let mut k_vars = Vec::with_capacity(n);
    bail()?;
    for (id, node) in ddg.nodes() {
        let i = id.index();
        let row: Vec<VarId> = (0..period)
            .map(|t| model.add_binary(format!("a[{t},{i}]")))
            .collect();
        a.push(row);
        t_vars.push(model.add_var(
            VarKind::Integer,
            0.0,
            horizon,
            format!("t[{i}]({})", node.name),
        ));
        k_vars.push(model.add_var(VarKind::Integer, 0.0, k_max, format!("k[{i}]")));
    }

    // --- Assignment: Σ_t a_{t,i} = 1 (eq. (9)/(23)) ---
    for row in &a {
        model.add_constr(
            row.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Eq,
            1.0,
        );
    }

    // --- Linkage: t_i − T·k_i − Σ_t t·a_{t,i} = 0 (eq. (7)/(22)) ---
    for i in 0..n {
        let mut e = LinExpr::term(t_vars[i], 1.0);
        e.add_term(k_vars[i], -t_f);
        for (t, &v) in a[i].iter().enumerate() {
            if t > 0 {
                e.add_term(v, -(t as f64));
            }
        }
        model.add_constr(e, Sense::Eq, 0.0);
    }

    // --- Earliest-start lower bounds (longest-path potentials) ---
    // Implied by the dependence rows, but stating them as bounds tightens
    // every node LP and prunes branching early.
    if let Some(earliest) = ddg.earliest_starts(period) {
        for (i, &e) in earliest.iter().enumerate() {
            if e > 0 {
                model.set_lower_bound(t_vars[i], e as f64);
            }
        }
    } else {
        return Err(ScheduleError::PeriodInfeasible { period });
    }

    // --- Dependences: t_j − t_i ≥ d_i − T·m_ij (eq. (4)/(8)) ---
    // Edges inside a recurrence get the structured rows instead (see
    // `add_structured_dependence`): same integer points, tighter LP.
    let scc = swp_ddg::scc_ids(ddg);
    for e in ddg.edges() {
        let (i, j) = (e.src.index(), e.dst.index());
        let latency = ddg.node(e.src).latency;
        let rhs = latency as f64 - t_f * e.distance as f64;
        if i == j {
            // 0 ≥ d − T·m: a pure period test, no variables involved.
            if 0.0 < rhs {
                return Err(ScheduleError::PeriodInfeasible { period });
            }
        } else if scc[i] == scc[j] {
            // Distinct ends in one component: the edge lies on a cycle.
            let ends = [(&a[i][..], k_vars[i]), (&a[j][..], k_vars[j])];
            add_structured_dependence(&mut model, ends, latency, e.distance, period);
        } else {
            let expr = LinExpr::term(t_vars[j], 1.0) - LinExpr::term(t_vars[i], 1.0);
            model.add_constr(expr, Sense::Ge, rhs);
        }
    }

    // --- Capacity per class/stage/step (eqs. (5)/(25)) ---
    for class in ddg.classes() {
        bail()?;
        let fu = machine
            .fu_type(class)
            .map_err(|_| ScheduleError::UnknownClass(class))?;
        let members = ddg.nodes_of_class(class);
        let rt = &fu.reservation;
        // Both pre-checks below assume *fixed* unit assignment: under
        // run-time choice, successive instances of one operation may
        // rotate across units, so neither self-collision nor per-unit
        // packing refutes a period (the capacity rows model the rotation
        // correctly — a wrapping op simply consumes two units' worth).
        if mapping == MappingMode::UnifiedColoring {
            // Modulo scheduling constraint [5, 11, 19]: one op must not
            // collide with its own next instances on its unit.
            if !rt.modulo_feasible(period) {
                return Err(ScheduleError::PeriodInfeasible { period });
            }
            // Packing pre-check: pigeonhole facts the LP cannot see.
            if (members.len() as u32) > fu.count * rt.max_ops_per_period(period) {
                return Err(ScheduleError::PeriodInfeasible { period });
            }
        }
        for s in 0..rt.stages() {
            bail()?;
            let offsets = rt.stage_offsets(s);
            if offsets.is_empty() {
                continue;
            }
            for t in 0..period {
                let mut expr = LinExpr::new();
                for &id in &members {
                    for &l in &offsets {
                        let src = ((t as i64 - l as i64).rem_euclid(period as i64)) as usize;
                        expr.add_term(a[id.index()][src], 1.0);
                    }
                }
                model.add_constr(expr, Sense::Le, fu.count as f64);
            }
        }
    }

    // --- Issue bundle: per-residue width and slot-group rows ---
    // Steady-state cycle `c` issues exactly the ops with `t_i ≡ c (mod
    // T)`, so a per-cycle issue-width limit becomes `Σ_i a_{ρ,i} ≤ W`
    // for every residue `ρ`, and a slot-group cap the same sum over the
    // group's classes. Offset-based, so mapping mode is irrelevant.
    if let Some(bundle) = machine.bundle() {
        bail()?;
        // Root pigeonholes, mirrored verbatim by the CP backend.
        // `Machine::bundle_bound` folds them into T_res, but the
        // formulation can be probed below T_res directly.
        if n as u64 > u64::from(bundle.width) * u64::from(period) {
            return Err(ScheduleError::PeriodInfeasible { period });
        }
        for g in &bundle.groups {
            let members: u64 = g
                .classes
                .iter()
                .map(|&c| ddg.nodes_of_class(OpClass::new(c)).len() as u64)
                .sum();
            if members > u64::from(g.cap) * u64::from(period) {
                return Err(ScheduleError::PeriodInfeasible { period });
            }
        }
        for rho in 0..period as usize {
            let expr: Vec<(VarId, f64)> = (0..n).map(|i| (a[i][rho], 1.0)).collect();
            model.add_constr(expr, Sense::Le, f64::from(bundle.width));
        }
        for g in &bundle.groups {
            bail()?;
            let members: Vec<usize> = g
                .classes
                .iter()
                .flat_map(|&c| ddg.nodes_of_class(OpClass::new(c)))
                .map(|id| id.index())
                .collect();
            if members.is_empty() {
                continue;
            }
            for rho in 0..period as usize {
                let expr: Vec<(VarId, f64)> = members.iter().map(|&i| (a[i][rho], 1.0)).collect();
                model.add_constr(expr, Sense::Le, f64::from(g.cap));
            }
        }
    }

    // --- Register pressure: live-value census per residue (§7) ---
    // For node `i` with an out-edge to `j`, the value is live for
    // `L_i = max_j (t_j + T·m_ij) − t_i` cycles, and contributes
    // `⌈(L_i − δ)/T⌉` live instances at residue `ρ`, where
    // `δ = (ρ − t_i) mod T`. An integer `live_{i,ρ} ≥ 0` bounded below
    // per out-edge by `T·live ≥ t_j + T·m_ij − t_i − δ_{i,ρ}` (with
    // `δ_{i,ρ} = Σ_r ((ρ−r) mod T)·a_{r,i}`, linear in the issue row)
    // takes exactly that ceiling at any feasible point that tightens it,
    // so `Σ_i live_{i,ρ} ≤ max_live` is feasible iff some schedule meets
    // the cap. Integrality of `live` is what makes the ceiling exact —
    // mirrors the `MinBuffers` B_ij pattern.
    if let Some(ml) = max_live {
        let live_ub = (horizon / t_f).ceil() + 2.0;
        let mut outs: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        for e in ddg.edges() {
            outs[e.src.index()].push((e.dst.index(), e.distance));
        }
        let mut live_vars: Vec<Vec<VarId>> = vec![Vec::new(); period as usize];
        for (i, out_edges) in outs.iter().enumerate() {
            bail()?;
            if out_edges.is_empty() {
                continue; // no consumer: never live, exactly as the checker counts
            }
            for rho in 0..period {
                let c = model.add_var(VarKind::Integer, 0.0, live_ub, format!("live[{i},{rho}]"));
                for &(j, m) in out_edges {
                    let mut expr = LinExpr::term(c, t_f);
                    if j != i {
                        // Self-loop: t_i cancels against t_j.
                        expr.add_term(t_vars[i], 1.0);
                        expr.add_term(t_vars[j], -1.0);
                    }
                    for (r, &v) in a[i].iter().enumerate() {
                        let delta = (rho as i64 - r as i64).rem_euclid(period as i64) as f64;
                        if delta != 0.0 {
                            expr.add_term(v, delta);
                        }
                    }
                    model.add_constr(expr, Sense::Ge, t_f * f64::from(m));
                }
                live_vars[rho as usize].push(c);
            }
        }
        for per_rho in &live_vars {
            if per_rho.is_empty() {
                continue;
            }
            model.add_constr(
                per_rho.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
                Sense::Le,
                f64::from(ml),
            );
        }
    }

    // --- Mapping: circular-arc coloring (§4.2, §5.1) ---
    let mut color: Vec<Option<VarId>> = vec![None; n];
    let mut unit_count_vars: Vec<VarId> = Vec::new();
    if mapping == MappingMode::UnifiedColoring {
        for class in ddg.classes() {
            bail()?;
            let fu = machine
                .fu_type(class)
                .map_err(|_| ScheduleError::UnknownClass(class))?;
            let members = ddg.nodes_of_class(class);
            let r = fu.count as f64;
            // Coloring can only bind when two unclean ops could share a
            // unit: with one unit, capacity rows already serialize; with a
            // clean table, ops at distinct steps never collide and ops at
            // equal steps are excluded by capacity. Minimizing units,
            // however, needs the overlap structure for every multi-op
            // class, clean or not.
            let needs_coloring =
                (fu.count >= 2 && members.len() >= 2 && !fu.reservation.is_clean())
                    || (objective == Objective::MinUnits && members.len() >= 2);
            if !needs_coloring && objective != Objective::MinUnits {
                continue;
            }
            for &id in &members {
                let c = model.add_var(VarKind::Integer, 1.0, r, format!("c[{}]", id.index()));
                color[id.index()] = Some(c);
            }
            // Colors are interchangeable: pin the first member to 1.
            if let Some(&first) = members.first() {
                if let Some(c) = color[first.index()] {
                    model.set_upper_bound(c, 1.0);
                }
            }
            if objective == Objective::MinUnits {
                // max color per class, to be minimized.
                let u = model.add_var(
                    VarKind::Integer,
                    1.0,
                    r,
                    format!("units[{}]", class.index()),
                );
                for &id in &members {
                    if let Some(c) = color[id.index()] {
                        let expr = LinExpr::term(u, 1.0) - LinExpr::term(c, 1.0);
                        model.add_constr(expr, Sense::Ge, 0.0);
                    }
                }
                unit_count_vars.push(u);
            }
            if !needs_coloring {
                continue;
            }
            // D: the issue distances mod T at which two ops collide.
            let conflicts = fu.reservation.forbidden_residues(period);
            for (x, &i_id) in members.iter().enumerate() {
                bail()?;
                for &j_id in &members[x + 1..] {
                    let (i, j) = (i_id.index(), j_id.index());
                    // δ_{ij}: 1 if the two ops overlap on some stage/step,
                    // i.e. iff `(t_j − t_i) mod T ∈ D`. Each op issues at
                    // exactly one step, so one row per step is exact:
                    // a_{t,i} + Σ_{d∈D} a_{(t+d) mod T, j} − δ_{ij} ≤ 1.
                    let delta = model.add_binary(format!("ov[{i},{j}]"));
                    for t in 0..period as usize {
                        let mut expr = LinExpr::term(delta, -1.0);
                        expr.add_term(a[i][t], 1.0);
                        for &d in &conflicts {
                            expr.add_term(a[j][(t + d as usize) % period as usize], 1.0);
                        }
                        model.add_constr(expr, Sense::Le, 1.0);
                    }
                    // Hu linearization of |c_i − c_j| ≥ δ_{ij}:
                    //   c_i − c_j ≥ δ − R·w,   c_j − c_i ≥ δ − R·(1−w).
                    let w = model.add_binary(format!("w[{i},{j}]"));
                    let (ci, cj) = (
                        color[i].expect("member colored"),
                        color[j].expect("member colored"),
                    );
                    let e1 =
                        LinExpr::term(ci, 1.0) - LinExpr::term(cj, 1.0) - LinExpr::term(delta, 1.0)
                            + LinExpr::term(w, r);
                    model.add_constr(e1, Sense::Ge, 0.0);
                    let e2 = LinExpr::term(cj, 1.0)
                        - LinExpr::term(ci, 1.0)
                        - LinExpr::term(delta, 1.0)
                        - LinExpr::term(w, r);
                    model.add_constr(e2, Sense::Ge, -r);
                }
            }
        }
    }

    // --- Symmetry breaking on rotation: pin node 0 to offset 0. ---
    // Any periodic schedule can be rotated so an arbitrary instruction
    // issues at pattern step 0 (adding one period to every start keeps
    // all constraints), so this prunes a factor-T symmetry safely.
    if let Some(row) = a.first() {
        for &v in &row[1..] {
            model.set_upper_bound(v, 0.0);
        }
    }

    // --- Objective ---
    match objective {
        Objective::Feasible => { /* minimize 0 */ }
        Objective::MinStartTimes => {
            model.minimize(t_vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>());
        }
        Objective::MinUnits => {
            model.minimize(
                unit_count_vars
                    .iter()
                    .map(|&v| (v, 1.0))
                    .collect::<Vec<_>>(),
            );
        }
        Objective::MinBuffers => {
            // One integer buffer count per dependence (Ning & Gao [18]):
            // B_ij ≥ (t_j − t_i)/T + m_ij; integrality of B makes the
            // bound the exact ceiling at the optimum.
            let mut buffer_vars = Vec::new();
            let horizon_buffers = (horizon / t_f).ceil() + 2.0;
            for (idx, e) in ddg.edges().enumerate() {
                if e.src == e.dst {
                    continue; // self-loops need exactly m_ij buffers, a constant
                }
                let b = model.add_var(VarKind::Integer, 0.0, horizon_buffers, format!("B[{idx}]"));
                // T·B − t_j + t_i ≥ T·m_ij
                let expr = LinExpr::term(b, t_f) - LinExpr::term(t_vars[e.dst.index()], 1.0)
                    + LinExpr::term(t_vars[e.src.index()], 1.0);
                model.add_constr(expr, Sense::Ge, t_f * e.distance as f64);
                buffer_vars.push(b);
            }
            model.minimize(buffer_vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>());
        }
    }

    Ok(Formulation {
        model,
        a,
        t: t_vars,
        k: k_vars,
        color,
        period,
    })
}

/// Emits the structured form of the dependence `t_j − t_i ≥ d − T·m`
/// (Eichenberger and Davidson, PLDI '97) over the issue rows and stage
/// counts of `ends = [(a_i, k_i), (a_j, k_j)]`: for each step `t`, with
/// `t + d − 1 = q·T + s` and `0 ≤ s < T`,
///
/// `Σ_{y≥t} a_{y,i} + Σ_{y≤s} a_{y,j} + k_i − k_j ≤ m − q + 1`.
///
/// At integer points the `T` rows hold iff the dependence does (the row
/// at `t = r_i` alone implies it), so the feasible set is unchanged; but
/// the LP relaxation can no longer meet the dependence by spreading
/// `a_{·,i}` over residues.
fn add_structured_dependence(
    model: &mut Model,
    ends: [(&[VarId], VarId); 2],
    latency: u32,
    distance: u32,
    period: u32,
) {
    let [(a_i, k_i), (a_j, k_j)] = ends;
    let p = i64::from(period);
    for t in 0..p {
        let x = t + i64::from(latency) - 1;
        let (q, s) = (x.div_euclid(p), x.rem_euclid(p));
        let mut expr = LinExpr::term(k_i, 1.0);
        expr.add_term(k_j, -1.0);
        for &v in &a_i[t as usize..] {
            expr.add_term(v, 1.0);
        }
        for &v in &a_j[..=s as usize] {
            expr.add_term(v, 1.0);
        }
        model.add_constr(expr, Sense::Le, (i64::from(distance) - q + 1) as f64);
    }
}

impl Formulation {
    /// Reads a solved model back into `(start_times, colors)`.
    ///
    /// Colors are returned 0-based (unit indices); nodes without coloring
    /// variables get `None` here and are mapped greedily by the driver.
    pub fn extract(&self, sol: &swp_milp::MipSolution) -> (Vec<u32>, Vec<Option<u32>>) {
        let starts = self
            .t
            .iter()
            .map(|&v| sol.value_int(v).max(0) as u32)
            .collect();
        let colors = self
            .color
            .iter()
            .map(|c| c.map(|v| (sol.value_int(v).max(1) - 1) as u32))
            .collect();
        (starts, colors)
    }

    /// Convenience: node id for row `i` of the variable tables.
    pub fn node(&self, i: usize) -> NodeId {
        NodeId::from_index(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use swp_machine::{FuType, PipelinedSchedule, ReservationTable};
    use swp_milp::{SolveError, SolveLimits};

    fn opts(mapping: MappingMode, objective: Objective) -> FormulationOptions {
        FormulationOptions {
            mapping,
            objective,
            ..FormulationOptions::standard()
        }
    }

    fn simple_chain() -> Ddg {
        let mut g = Ddg::new();
        let a = g.add_node("ld", OpClass::new(2), 3);
        let b = g.add_node("fmul", OpClass::new(1), 2);
        let c = g.add_node("st", OpClass::new(2), 3);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, c, 0).unwrap();
        g
    }

    #[test]
    fn builds_expected_variable_counts() {
        let g = simple_chain();
        let m = Machine::example_clean();
        let f = build(
            &g,
            &m,
            4,
            opts(MappingMode::CapacityOnly, Objective::Feasible),
        )
        .expect("builds");
        // 3 nodes × (4 a-vars + t + k) = 18 variables.
        assert_eq!(f.model.num_vars(), 18);
        assert_eq!(f.a.len(), 3);
        assert_eq!(f.a[0].len(), 4);
    }

    #[test]
    fn solve_and_extract_respects_dependences() {
        let g = simple_chain();
        let m = Machine::example_clean();
        let f = build(
            &g,
            &m,
            3,
            opts(MappingMode::UnifiedColoring, Objective::Feasible),
        )
        .expect("builds");
        let sol = f
            .model
            .solve_with(&SolveLimits::feasibility(std::time::Duration::from_secs(
                10,
            )))
            .expect("feasible");
        let (starts, _) = f.extract(&sol);
        assert!(starts[1] >= starts[0] + 3);
        assert!(starts[2] >= starts[1] + 2);
    }

    #[test]
    fn self_loop_infeasible_period_rejected_at_build() {
        let mut g = Ddg::new();
        let a = g.add_node("acc", OpClass::new(1), 2);
        g.add_edge(a, a, 1).unwrap();
        let m = Machine::example_clean();
        assert!(matches!(
            build(
                &g,
                &m,
                1,
                opts(MappingMode::CapacityOnly, Objective::Feasible)
            ),
            Err(ScheduleError::PeriodInfeasible { period: 1 })
        ));
        assert!(build(
            &g,
            &m,
            2,
            opts(MappingMode::CapacityOnly, Objective::Feasible)
        )
        .is_ok());
    }

    #[test]
    fn non_pipelined_period_below_mal_rejected() {
        let mut g = Ddg::new();
        g.add_node("f", OpClass::new(1), 2);
        let m = Machine::example_non_pipelined();
        // Fixed assignment: a non-pipelined lat-2 op cannot repeat at
        // period 1 on one unit.
        assert!(matches!(
            build(
                &g,
                &m,
                1,
                opts(MappingMode::UnifiedColoring, Objective::Feasible)
            ),
            Err(ScheduleError::PeriodInfeasible { period: 1 })
        ));
        // Run-time choice: instances may alternate between the 2 units,
        // so the build must NOT reject (the capacity rows decide).
        assert!(build(
            &g,
            &m,
            1,
            opts(MappingMode::CapacityOnly, Objective::Feasible)
        )
        .is_ok());
    }

    #[test]
    fn coloring_vars_only_where_needed() {
        let mut g = Ddg::new();
        for i in 0..3 {
            g.add_node(format!("f{i}"), OpClass::new(1), 2);
        }
        // Clean machine: no coloring vars even with 2 units.
        let f = build(
            &g,
            &Machine::example_clean(),
            3,
            opts(MappingMode::UnifiedColoring, Objective::Feasible),
        )
        .expect("builds");
        assert!(f.color.iter().all(|c| c.is_none()));
        // Hazard machine: FP class (2 units, unclean) gets colors.
        // (Period 6 so that 3 FP ops pack onto 2 hazard units.)
        let f = build(
            &g,
            &Machine::example_pldi95(),
            6,
            opts(MappingMode::UnifiedColoring, Objective::Feasible),
        )
        .expect("builds");
        assert!(f.color.iter().all(|c| c.is_some()));
    }

    /// The paper-literal model, the reference the formulation is checked
    /// against: explicit stage-usage variables `U_s[t, i]` defined by
    /// eq. (25), capacity over them (eq. (5)), and overlap rows
    /// `U_s[t,i] + U_s[t,j] − 1 ≤ δ_{ij}` per pair, stage and step. Unified
    /// coloring only, and without the build-time pre-checks: the model
    /// refutes those periods itself. Returns the model with its `t_i` and
    /// color variables.
    fn paper_literal(
        ddg: &Ddg,
        machine: &Machine,
        period: u32,
        objective: Objective,
    ) -> (Model, Vec<VarId>, Vec<Option<VarId>>) {
        let n = ddg.num_nodes();
        let t_f = period as f64;
        let steps = period as usize;
        let wrap = |t: usize, l: usize| (t as i64 - l as i64).rem_euclid(period as i64) as usize;
        let horizon = (ddg.total_latency() + period) as f64 + t_f;
        let mut model = Model::new();
        let mut a = Vec::new();
        let mut t_vars = Vec::new();
        for i in 0..n {
            let row: Vec<VarId> = (0..steps)
                .map(|t| model.add_binary(format!("a[{t},{i}]")))
                .collect();
            let t_i = model.add_var(VarKind::Integer, 0.0, horizon, format!("t[{i}]"));
            let k_i = model.add_var(VarKind::Integer, 0.0, (horizon / t_f).ceil(), "k");
            model.add_constr(
                row.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
                Sense::Eq,
                1.0,
            );
            let mut link = LinExpr::term(t_i, 1.0);
            link.add_term(k_i, -t_f);
            for (t, &v) in row.iter().enumerate() {
                link.add_term(v, -(t as f64));
            }
            model.add_constr(link, Sense::Eq, 0.0);
            a.push(row);
            t_vars.push(t_i);
        }
        for e in ddg.edges() {
            let rhs = ddg.node(e.src).latency as f64 - t_f * e.distance as f64;
            let expr = LinExpr::term(t_vars[e.dst.index()], 1.0)
                - LinExpr::term(t_vars[e.src.index()], 1.0);
            model.add_constr(expr, Sense::Ge, rhs);
        }
        let mut color = vec![None; n];
        for class in ddg.classes() {
            let fu = machine.fu_type(class).expect("known class");
            let rt = &fu.reservation;
            let members = ddg.nodes_of_class(class);
            // usage[s][member][t] = U_s[t, i]
            let mut usage: Vec<Vec<Vec<VarId>>> = Vec::new();
            for s in 0..rt.stages() {
                let offsets = rt.stage_offsets(s);
                if offsets.is_empty() {
                    continue;
                }
                let mut rows = Vec::new();
                for &id in &members {
                    let i = id.index();
                    let mut row = Vec::new();
                    for t in 0..steps {
                        let u =
                            model.add_var(VarKind::Continuous, 0.0, 1.0, format!("U[{s},{t},{i}]"));
                        let mut expr = LinExpr::term(u, 1.0);
                        for &l in &offsets {
                            expr.add_term(a[i][wrap(t, l)], -1.0);
                        }
                        model.add_constr(expr, Sense::Eq, 0.0);
                        row.push(u);
                    }
                    rows.push(row);
                }
                for t in 0..steps {
                    let expr: Vec<(VarId, f64)> = rows.iter().map(|row| (row[t], 1.0)).collect();
                    model.add_constr(expr, Sense::Le, fu.count as f64);
                }
                usage.push(rows);
            }
            if fu.count < 2 || members.len() < 2 || rt.is_clean() {
                continue;
            }
            let r = fu.count as f64;
            for (x, &id) in members.iter().enumerate() {
                let hi = if x == 0 { 1.0 } else { r };
                color[id.index()] = Some(model.add_var(VarKind::Integer, 1.0, hi, "c"));
            }
            for x in 0..members.len() {
                for y in x + 1..members.len() {
                    let delta = model.add_binary("ov");
                    for rows in &usage {
                        for (&ui, &uj) in rows[x].iter().zip(&rows[y]) {
                            let expr = vec![(ui, 1.0), (uj, 1.0), (delta, -1.0)];
                            model.add_constr(expr, Sense::Le, 1.0);
                        }
                    }
                    let w = model.add_binary("w");
                    let ci = color[members[x].index()].expect("colored");
                    let cj = color[members[y].index()].expect("colored");
                    let e1 = vec![(ci, 1.0), (cj, -1.0), (delta, -1.0), (w, r)];
                    model.add_constr(e1, Sense::Ge, 0.0);
                    let e2 = vec![(cj, 1.0), (ci, -1.0), (delta, -1.0), (w, -r)];
                    model.add_constr(e2, Sense::Ge, -r);
                }
            }
        }
        if let Some(row) = a.first() {
            for &v in &row[1..] {
                model.set_upper_bound(v, 0.0);
            }
        }
        if objective == Objective::MinStartTimes {
            model.minimize(t_vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>());
        }
        (model, t_vars, color)
    }

    #[test]
    fn explicit_usage_is_equivalent() {
        // Same loop, same period: the formulation and the paper-literal
        // reference must agree on feasibility and optimal objective.
        let g = simple_chain();
        let m = Machine::example_pldi95();
        for period in 2..6u32 {
            let ours = build(
                &g,
                &m,
                period,
                opts(MappingMode::UnifiedColoring, Objective::MinStartTimes),
            )
            .ok()
            .and_then(|f| f.model.solve().ok())
            .map(|s| s.objective().round() as i64);
            let (reference, _, _) = paper_literal(&g, &m, period, Objective::MinStartTimes);
            let theirs = reference.solve().ok().map(|s| s.objective().round() as i64);
            assert_eq!(ours, theirs, "period {period}");
        }
    }

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
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On one colored class, the forbidden-set overlap rows and the
        /// per-stage reference agree on feasibility at every period, and
        /// every schedule either returns passes the checker.
        #[test]
        fn overlap_rows_match_the_per_stage_reference(
            reservation in arb_table(),
            count in 2u32..=3,
            period in 1u32..=12,
            ops in 2usize..=4,
            edges in proptest::collection::vec((0usize..4, 0usize..4, 0u32..=2), 0..4),
        ) {
            prop_assume!(!reservation.is_clean());
            let fu = FuType { name: "C".into(), count, latency: 1, reservation };
            let machine = Machine::new(vec![fu]).expect("valid machine");
            let mut g = Ddg::new();
            let ids: Vec<_> = (0..ops)
                .map(|i| g.add_node(format!("op{i}"), OpClass::new(0), 1))
                .collect();
            for (s, d, distance) in edges {
                let (s, d) = (s % ops, d % ops);
                // Only forward edges may carry distance 0: no
                // zero-distance cycle can form.
                let distance = if s < d { distance } else { distance.max(1) };
                g.add_edge(ids[s], ids[d], distance).expect("valid edge");
            }
            let limits = SolveLimits { stop_at_first_incumbent: true, ..SolveLimits::default() };
            let validate = |starts, colors| {
                PipelinedSchedule::new(period, starts, colors).validate(&g, &machine)
            };
            let ours = match build(&g, &machine, period, FormulationOptions::standard()) {
                Ok(f) => match f.model.solve_with(&limits) {
                    Ok(sol) => {
                        let (starts, colors) = f.extract(&sol);
                        prop_assert_eq!(validate(starts, colors), Ok(()));
                        true
                    }
                    Err(e) => {
                        prop_assert_eq!(e, SolveError::Infeasible);
                        false
                    }
                },
                Err(e) => {
                    prop_assert!(matches!(e, ScheduleError::PeriodInfeasible { .. }), "{e:?}");
                    false
                }
            };
            let (reference, t_vars, color) = paper_literal(&g, &machine, period, Objective::Feasible);
            let theirs = match reference.solve_with(&limits) {
                Ok(sol) => {
                    let starts = t_vars.iter().map(|&v| sol.value_int(v) as u32).collect();
                    let colors = color
                        .iter()
                        .map(|c| c.map(|v| (sol.value_int(v) - 1) as u32))
                        .collect();
                    prop_assert_eq!(validate(starts, colors), Ok(()));
                    true
                }
                Err(e) => {
                    prop_assert_eq!(e, SolveError::Infeasible);
                    false
                }
            };
            prop_assert_eq!(ours, theirs, "period {}", period);
        }
    }

    /// The paper-literal dependence model, the reference for the
    /// structured rows: issue rows and stage counts linked to start times
    /// by eq. (7), the aggregate row `t_j − t_i ≥ d_i − T·m_ij` on every
    /// edge, self-loops included (eqs. (4)/(8)), and capacity `units` on
    /// one clean single-stage class. Variables, bounds and the rotation
    /// pin are those [`build`] emits for such a machine under
    /// [`MappingMode::CapacityOnly`], numbered the same way, so the two
    /// models can be evaluated at one point.
    fn aggregate_reference(ddg: &Ddg, period: u32, units: u32) -> Model {
        let t_f = period as f64;
        let horizon = (ddg.total_latency() + period) as f64 + t_f;
        let mut model = Model::new();
        let mut a = Vec::new();
        let mut t_vars = Vec::new();
        for (id, _) in ddg.nodes() {
            let i = id.index();
            let row: Vec<VarId> = (0..period)
                .map(|t| model.add_binary(format!("a[{t},{i}]")))
                .collect();
            let t_i = model.add_var(VarKind::Integer, 0.0, horizon, format!("t[{i}]"));
            let k_i = model.add_var(VarKind::Integer, 0.0, (horizon / t_f).ceil(), "k");
            model.add_constr(
                row.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
                Sense::Eq,
                1.0,
            );
            let mut link = LinExpr::term(t_i, 1.0);
            link.add_term(k_i, -t_f);
            for (t, &v) in row.iter().enumerate() {
                link.add_term(v, -(t as f64));
            }
            model.add_constr(link, Sense::Eq, 0.0);
            a.push(row);
            t_vars.push(t_i);
        }
        for e in ddg.edges() {
            let rhs = ddg.node(e.src).latency as f64 - t_f * e.distance as f64;
            let expr = LinExpr::term(t_vars[e.dst.index()], 1.0)
                - LinExpr::term(t_vars[e.src.index()], 1.0);
            model.add_constr(expr, Sense::Ge, rhs);
        }
        for t in 0..period as usize {
            let expr: Vec<(VarId, f64)> = a.iter().map(|row| (row[t], 1.0)).collect();
            model.add_constr(expr, Sense::Le, f64::from(units));
        }
        if let Some(row) = a.first() {
            for &v in &row[1..] {
                model.set_upper_bound(v, 0.0);
            }
        }
        model
    }

    /// A DDG of `latencies.len()` class-0 ops with a recurrence through
    /// ops `0..ring` (a self-loop when `ring` is 1) closed at distance
    /// `back`, plus `extra` edges. Only forward edges carry distance 0,
    /// so no zero-distance cycle forms.
    fn ring_ddg(latencies: &[u32], ring: usize, back: u32, extra: &[(usize, usize, u32)]) -> Ddg {
        let ops = latencies.len();
        let mut g = Ddg::new();
        let ids: Vec<_> = latencies
            .iter()
            .enumerate()
            .map(|(i, &d)| g.add_node(format!("op{i}"), OpClass::new(0), d))
            .collect();
        let ring = ring.min(ops);
        for i in 1..ring {
            g.add_edge(ids[i - 1], ids[i], 0).expect("valid edge");
        }
        g.add_edge(ids[ring - 1], ids[0], back).expect("valid edge");
        for &(s, d, distance) in extra {
            let (s, d) = (s % ops, d % ops);
            let distance = if s < d { distance } else { distance.max(1) };
            g.add_edge(ids[s], ids[d], distance).expect("valid edge");
        }
        g
    }

    #[test]
    fn structured_rows_replace_the_aggregate_only_inside_recurrences() {
        // op1 ⇄ op2 and op0 ⇄ op3 are recurrences; op0 → op1 is not.
        let mut g = Ddg::new();
        let ids: Vec<_> = [1, 1, 1, 2]
            .iter()
            .enumerate()
            .map(|(i, &d)| g.add_node(format!("op{i}"), OpClass::new(0), d))
            .collect();
        for (s, d, distance) in [(0, 1, 0), (1, 2, 0), (2, 1, 1), (0, 3, 0), (3, 0, 1)] {
            g.add_edge(ids[s], ids[d], distance).expect("valid edge");
        }
        let machine = Machine::new(vec![FuType {
            name: "C".into(),
            count: 4,
            latency: 1,
            reservation: ReservationTable::from_rows(&[&[true]]).expect("valid"),
        }])
        .expect("valid machine");
        let f = build(
            &g,
            &machine,
            3,
            opts(MappingMode::CapacityOnly, Objective::Feasible),
        )
        .expect("builds");
        // At T = 3: 4 assignment, 4 linkage and 3 capacity rows; 3
        // structured rows for each of the four recurrence edges; one
        // aggregate row for op0 → op1.
        assert_eq!(f.model.num_constrs(), 4 + 4 + 3 + 4 * 3 + 1);
        assert_eq!(aggregate_reference(&g, 3, 4).num_constrs(), 4 + 4 + 3 + 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The structured rows change the form of the model, not its
        /// integer points: on random small DDGs with a recurrence, at a
        /// random period and with latencies down to 0, every `(a, k)`
        /// point of a box (one issue step per op, `k_i ≤ 2`, `t_i` from
        /// eq. (7)) is admitted by [`build`] iff it is admitted by the
        /// aggregate reference, and the solver's verdict at that period
        /// is the same for both. Issue rows that are not one-hot fail the
        /// assignment row in both models alike, so the box skips them.
        #[test]
        fn structured_rows_admit_exactly_the_aggregate_points(
            latencies in proptest::collection::vec(0u32..=4, 2..=4),
            ring in 1usize..=4,
            back in 1u32..=2,
            extra in proptest::collection::vec((0usize..4, 0usize..4, 0u32..=2), 0..4),
            period in 1u32..=4,
            units in 1u32..=2,
        ) {
            const K_BOX: u32 = 2;
            let g = ring_ddg(&latencies, ring, back, &extra);
            let machine = Machine::new(vec![FuType {
                name: "C".into(),
                count: units,
                latency: 1,
                reservation: ReservationTable::from_rows(&[&[true]]).expect("valid"),
            }])
            .expect("valid machine");
            let reference = aggregate_reference(&g, period, units);
            let ours = match build(&g, &machine, period, opts(MappingMode::CapacityOnly, Objective::Feasible)) {
                Ok(f) => Some(f),
                Err(e) => {
                    prop_assert!(matches!(e, ScheduleError::PeriodInfeasible { .. }), "{e:?}");
                    None
                }
            };
            if let Some(f) = &ours {
                prop_assert_eq!(f.model.num_vars(), reference.num_vars());
            }
            let n = g.num_nodes();
            let (steps, ks) = (period as usize, K_BOX as usize + 1);
            let mut point = vec![0.0; reference.num_vars()];
            // Per node: T issue binaries, then t_i, then k_i.
            let stride = steps + 2;
            for code in 0..(steps * ks).pow(n as u32) {
                point.iter_mut().for_each(|x| *x = 0.0);
                let mut rest = code;
                for i in 0..n {
                    let (r, k) = (rest % steps, (rest / steps) % ks);
                    rest /= steps * ks;
                    point[i * stride + r] = 1.0;
                    point[i * stride + steps] = (period as usize * k + r) as f64;
                    point[i * stride + steps + 1] = k as f64;
                }
                let theirs = reference.is_feasible_point(&point, 1e-9);
                let admitted = ours.as_ref().is_some_and(|f| f.model.is_feasible_point(&point, 1e-9));
                prop_assert_eq!(admitted, theirs, "point {:?} at T = {}", point, period);
            }
            let limits = SolveLimits { stop_at_first_incumbent: true, ..SolveLimits::default() };
            let verdict = |result: Result<swp_milp::MipSolution, SolveError>| match result {
                Ok(sol) => Ok(Some(sol)),
                Err(SolveError::Infeasible) => Ok(None),
                Err(e) => Err(e),
            };
            let theirs = verdict(reference.solve_with(&limits)).expect("settles").is_some();
            let ours = match &ours {
                Some(f) => match verdict(f.model.solve_with(&limits)).expect("settles") {
                    Some(sol) => {
                        let (starts, colors) = f.extract(&sol);
                        let schedule = PipelinedSchedule::new(period, starts, colors);
                        prop_assert_eq!(schedule.validate(&g, &machine), Ok(()));
                        true
                    }
                    None => false,
                },
                None => false,
            };
            prop_assert_eq!(ours, theirs, "verdict at T = {}", period);
        }
    }

    #[test]
    fn min_buffers_objective_counts_live_values() {
        // Chain ld -> fmul -> st on the clean machine: with MinBuffers
        // the optimum packs values tightly; the reported objective must
        // match the schedule's own buffer accounting.
        let g = simple_chain();
        let m = Machine::example_clean();
        let o = FormulationOptions {
            objective: Objective::MinBuffers,
            mapping: MappingMode::CapacityOnly,
            ..FormulationOptions::standard()
        };
        let f = build(&g, &m, 3, o).expect("builds");
        let sol = f.model.solve().expect("feasible");
        let (starts, _) = f.extract(&sol);
        let sched = swp_machine::PipelinedSchedule::new(3, starts, vec![None; 3]);
        let (_, total) = sched.buffer_requirements(&g);
        assert_eq!(sol.objective().round() as i64, total as i64);
    }

    #[test]
    fn unknown_class_propagates() {
        let mut g = Ddg::new();
        g.add_node("z", OpClass::new(9), 1);
        let m = Machine::example_clean();
        assert!(matches!(
            build(
                &g,
                &m,
                2,
                opts(MappingMode::CapacityOnly, Objective::Feasible)
            ),
            Err(ScheduleError::UnknownClass(_))
        ));
    }
}
