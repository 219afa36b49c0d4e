//! The incremental-vs-cold differential mode.
//!
//! For each generated case, a seeded edit script is applied to a warm
//! [`SolveSession`] while a cold solver
//! ([`RateOptimalScheduler::schedule_with`]) is run from scratch on the
//! identical instance at every step. The oracle:
//!
//! 1. **Decision identity** — whenever both runs are conclusive (no
//!    budget trips), they agree on the achieved period and the
//!    optimality claim, and a no-schedule verdict on one side is a
//!    no-schedule verdict on the other. Warm reuse may change effort,
//!    never answers.
//! 2. **Re-verification** — every schedule the warm session accepts,
//!    including replayed and hint-seeded ones, passes the exact checker
//!    and the cycle-accurate simulator. A warm-started *proven* verdict
//!    is never taken on faith.
//!
//! The script generator is deterministic per `(seed, case index)`, so
//! same-seed campaigns are replayable, and edits are always applicable
//! (indices drawn from the live shape).

use crate::diff::{check_schedule, Violation, ViolationKind};
use crate::gen::FuzzCase;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swp_core::{
    Optimality, PeriodAttempt, RateOptimalScheduler, ScheduleError, ScheduleResult, SchedulerConfig,
};
use swp_incr::{EditOp, SolveSession};
use swp_milp::Budget;

/// Options for the incremental differential runner.
#[derive(Debug, Clone)]
pub struct IncrOptions {
    /// Campaign seed for the edit-script generator (independent of the
    /// case generator's seed so the two can be varied separately).
    pub seed: u64,
    /// Deterministic tick cap per solve (warm and cold alike).
    pub ticks_per_solve: u64,
    /// Edit-script length per case.
    pub edits: usize,
}

impl Default for IncrOptions {
    fn default() -> Self {
        IncrOptions {
            seed: 0,
            ticks_per_solve: 2_000_000,
            edits: 4,
        }
    }
}

/// What one incremental case produced.
#[derive(Debug, Clone)]
pub struct IncrReport {
    /// Case index within the campaign.
    pub index: usize,
    /// Case name.
    pub name: String,
    /// Steps executed (initial solve + applied edits).
    pub steps: usize,
    /// Steps where both runs were conclusive and were compared.
    pub compared: usize,
    /// Exact-replay answers served by the session.
    pub replays: u64,
    /// IMS probes seeded from a still-valid previous schedule.
    pub ims_hint_hits: u64,
    /// Oracle violations.
    pub violations: Vec<Violation>,
}

impl IncrReport {
    /// Whether the case passed the incremental oracle.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn splitmix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One always-applicable random edit for the session's current shape.
/// Distances stay ≥ 1 on potentially-backward edges so scripts never
/// manufacture a zero-distance cycle (which would be a degenerate
/// instance, not an incremental-solving test).
fn gen_edit(rng: &mut SmallRng, s: &mut SolveSession) -> Option<EditOp> {
    let n = s.num_nodes();
    for _ in 0..8 {
        match rng.gen_range(0u32..4) {
            0 => {
                return Some(EditOp::AddNode {
                    name: format!("e{}", s.edits_applied()),
                    class: rng.gen_range(0..s.machine().num_classes()),
                    latency: rng.gen_range(1..=3),
                });
            }
            1 if n > 2 => {
                return Some(EditOp::RemoveNode {
                    index: rng.gen_range(0..n),
                });
            }
            2 if n >= 2 => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a == b {
                    continue;
                }
                let (src, dst) = (a.min(b), a.max(b));
                return Some(EditOp::AddEdge {
                    src,
                    dst,
                    distance: if rng.gen_bool(0.25) { 1 } else { 0 },
                });
            }
            _ if s.num_edges() > 0 => {
                let edges: Vec<(usize, usize, u32)> = s
                    .ddg()
                    .edges()
                    .map(|e| (e.src.index(), e.dst.index(), e.distance))
                    .collect();
                let (src, dst, distance) = edges[rng.gen_range(0..edges.len())];
                return Some(EditOp::RemoveEdge { src, dst, distance });
            }
            _ => {}
        }
    }
    None
}

/// Decision signature of one solve: `(accepted period, proven)` when the
/// run is conclusive; `None` when a budget trip or an engine failure
/// left a period undecided, which makes a comparison unsound.
fn signature(r: &Result<ScheduleResult, ScheduleError>) -> Option<(Option<u32>, bool)> {
    let undecided = |attempts: &[PeriodAttempt]| attempts.iter().any(|a| a.outcome.is_undecided());
    match r {
        Ok(res) => (!undecided(&res.attempts)).then(|| {
            (
                Some(res.schedule.initiation_interval()),
                matches!(res.optimality, Optimality::Proven),
            )
        }),
        Err(ScheduleError::NotFound { attempts, .. }) => {
            (!undecided(attempts)).then_some((None, false))
        }
        // Structural errors (no finite period, unknown class) are
        // instance properties: both sides must report them. They carry
        // no attempt log, so fold them into the no-schedule signature.
        Err(ScheduleError::NoFinitePeriod) => Some((None, false)),
        Err(_) => None,
    }
}

fn describe(op: &EditOp) -> String {
    match op {
        EditOp::AddNode { class, latency, .. } => format!("add-node(c{class},l{latency})"),
        EditOp::RemoveNode { index } => format!("remove-node({index})"),
        EditOp::AddEdge { src, dst, distance } => format!("add-edge({src}->{dst},m{distance})"),
        EditOp::RemoveEdge { src, dst, distance } => {
            format!("remove-edge({src}->{dst},m{distance})")
        }
    }
}

/// Runs the incremental-vs-cold oracle over one case.
pub fn run_incr_case(case: &FuzzCase, opts: &IncrOptions) -> IncrReport {
    let mut rng = SmallRng::seed_from_u64(splitmix(opts.seed ^ 0x1C4E_55A1, case.index as u64));
    let config = SchedulerConfig {
        time_limit_per_t: None,
        max_live: case.max_live,
        ..SchedulerConfig::default()
    };
    let cold = RateOptimalScheduler::new(case.machine.clone(), config.clone());
    let mut session = SolveSession::from_ddg(case.machine.clone(), config, &case.ddg);
    let mut violations: Vec<Violation> = Vec::new();
    let mut compared = 0;
    let mut steps = 0;
    let mut script = String::from("init");

    for step in 0..=opts.edits {
        if step > 0 {
            let Some(op) = gen_edit(&mut rng, &mut session) else {
                break;
            };
            script = describe(&op);
            if session.apply(&op).is_err() {
                // Generator bug, not an engine bug — surface loudly.
                violations.push(Violation {
                    kind: ViolationKind::EngineError,
                    config: "incr".to_string(),
                    details: format!("generated edit {script} rejected at step {step}"),
                });
                break;
            }
        }
        steps += 1;
        let warm_res = session.solve_with(&Budget::with_tick_limit(opts.ticks_per_solve));
        let cold_res = cold.schedule_with(
            session.ddg(),
            &Budget::with_tick_limit(opts.ticks_per_solve),
        );
        // Property 2: warm acceptances re-verify, replayed or not.
        if let Ok(res) = &warm_res {
            check_schedule(
                "incr/warm",
                &res.schedule,
                session.ddg(),
                &case.machine,
                case.max_live,
                &mut violations,
            );
        }
        // Property 1: conclusive decisions are identical.
        match (signature(&warm_res), signature(&cold_res)) {
            (Some(w), Some(c)) => {
                compared += 1;
                if w != c {
                    violations.push(Violation {
                        kind: ViolationKind::IncrementalDiverged,
                        config: "incr".to_string(),
                        details: format!(
                            "step {step} ({script}): warm {w:?} vs cold {c:?} \
                             [{} node(s), {} edge(s)]",
                            session.num_nodes(),
                            session.num_edges()
                        ),
                    });
                }
            }
            _ => {}
        }
    }

    let reuse = session.reuse();
    IncrReport {
        index: case.index,
        name: case.name.clone(),
        steps,
        compared,
        replays: reuse.replays,
        ims_hint_hits: reuse.ims_hint_hits,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_cases, GenConfig};

    #[test]
    fn incremental_campaign_runs_clean() {
        let cfg = GenConfig {
            seed: 21,
            max_nodes: 6,
            ..GenConfig::default()
        };
        let opts = IncrOptions {
            seed: 21,
            ..IncrOptions::default()
        };
        for case in gen_cases(&cfg, 30) {
            let report = run_incr_case(&case, &opts);
            assert!(report.passed(), "{}: {:?}", case.name, report.violations);
            assert!(report.steps >= 1);
        }
    }

    #[test]
    fn incremental_reports_are_deterministic() {
        let cfg = GenConfig {
            seed: 4,
            ..GenConfig::default()
        };
        let opts = IncrOptions {
            seed: 4,
            ..IncrOptions::default()
        };
        for case in gen_cases(&cfg, 8) {
            let a = run_incr_case(&case, &opts);
            let b = run_incr_case(&case, &opts);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.compared, b.compared);
            assert_eq!(a.replays, b.replays);
            assert_eq!(a.ims_hint_hits, b.ims_hint_hits);
            assert_eq!(a.violations.len(), b.violations.len());
        }
    }

    #[test]
    fn reuse_actually_happens() {
        // Across a campaign the sessions must demonstrate real reuse —
        // otherwise the differential tests a no-op.
        let cfg = GenConfig {
            seed: 9,
            max_nodes: 6,
            ..GenConfig::default()
        };
        let opts = IncrOptions {
            seed: 9,
            ..IncrOptions::default()
        };
        let reports: Vec<IncrReport> = gen_cases(&cfg, 20)
            .iter()
            .map(|c| run_incr_case(c, &opts))
            .collect();
        let reused: u64 = reports.iter().map(|r| r.ims_hint_hits + r.replays).sum();
        assert!(reused > 0, "no warm reuse observed across the campaign");
    }
}
