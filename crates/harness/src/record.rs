//! Per-loop records, the solve-configuration fingerprint, and the JSONL artifact schema.
//!
//! One [`LoopRecord`] is produced per corpus loop and serialized as one
//! JSON line (see [`LoopRecord::to_json_line`] for the schema). The
//! triple [`CacheKey`] — DDG, machine, and config fingerprints — keys
//! the on-disk cache: a record is reusable exactly when all three match.
//!
//! # Wall-clock vs. solve time
//!
//! [`LoopRecord::solve_time`] is the *per-loop, on-thread* solve time:
//! the time the owning worker spent inside the scheduler for this loop.
//! The whole-run wall time lives on the run report instead
//! ([`RunReport::wall_time`]). With `W` workers the per-loop times sum
//! to roughly `W ×` the wall time; conflating the two (as the old
//! sequential runner did with its single `elapsed` field) makes parallel
//! speedup unmeasurable and skews the Table 5 time bins.
//!
//! [`RunReport::wall_time`]: crate::run::RunReport::wall_time

use crate::json::{parse_object, ObjectWriter};
use std::time::Duration;
use swp_core::{
    MappingMode, Objective, ScheduleError, ScheduleResult, SchedulerConfig, SolvedBy, SolverStats,
};
use swp_ddg::Ddg;
use swp_loops::fingerprint::{from_hex, to_hex, Fnv64};
use swp_machine::Machine;

/// Schema version stamped into every artifact line. v2 added the
/// portfolio-race counters (`races`, `race_cp`, `race_ilp`); v3 added
/// the warm-sweep reuse counters (`reuse_*`); v4 dropped the race
/// counters when the portfolio became a staged CP-then-ILP solve, whose
/// `ticks` and budget-limited periods differ from a v3 race's; v5 keys
/// records by [`config_fingerprint`] over the whole `SchedulerConfig`
/// and adds `reuse_exports`; v6 drops the `reuse_*` counters and the
/// `warm_sweep` config word, since a per-loop solve carries nothing
/// between periods or loops.
pub const SCHEMA_VERSION: u64 = 6;

/// Stable fingerprint of a solve configuration: every
/// [`SchedulerConfig`] field plus the per-loop tick cap the caller puts
/// on each solve's budget (`None` for uncapped). A cached record is
/// reusable exactly when this matches.
///
/// The destructuring names every field, so a field added to
/// `SchedulerConfig` fails to compile here until it is hashed or
/// skipped with a reason. The corpus size is no part of it: a longer
/// run over the same corpus prefix reuses cached records.
pub fn config_fingerprint(config: &SchedulerConfig, per_loop_ticks: Option<u64>) -> u64 {
    let SchedulerConfig {
        mapping,
        objective,
        time_limit_per_t,
        max_t_above_lb,
        heuristic_incumbent,
        engine,
        max_live,
        // Test-only: the daemon sends fault-injected requests past its
        // cache, and no harness caller sets faults.
        faults: _,
    } = config;
    let millis = |d: &Option<Duration>| d.map_or(u64::MAX, |d| d.as_millis() as u64);
    let mut h = Fnv64::new();
    h.write_u64(SCHEMA_VERSION);
    h.write_u64(match mapping {
        MappingMode::CapacityOnly => 0,
        MappingMode::UnifiedColoring => 1,
    });
    h.write_u64(match objective {
        Objective::Feasible => 0,
        Objective::MinStartTimes => 1,
        Objective::MinUnits => 2,
        Objective::MinBuffers => 3,
    });
    h.write_u64(millis(time_limit_per_t));
    h.write_u64(u64::from(*max_t_above_lb));
    h.write_u64(u64::from(*heuristic_incumbent));
    h.write_str(engine.name());
    h.write_u64(max_live.map_or(u64::MAX, u64::from));
    h.write_u64(per_loop_ticks.unwrap_or(u64::MAX));
    h.finish()
}

/// The cache key: a record is reusable iff the loop, the machine, and
/// the outcome-relevant config all fingerprint identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`swp_loops::fingerprint::ddg_fingerprint`] of the loop.
    pub ddg: u64,
    /// [`swp_loops::fingerprint::machine_fingerprint`] of the target.
    pub machine: u64,
    /// [`config_fingerprint`] of the solve configuration.
    pub config: u64,
}

/// What happened to one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuiteOutcome {
    /// Scheduled at `T_lb + slack`.
    Scheduled {
        /// Achieved slack above the (packing-refined) lower bound.
        slack: u32,
        /// Engine that found the schedule at the final period.
        solved_by: SolvedBy,
    },
    /// Every period in range failed or timed out.
    Unscheduled,
}

/// Per-loop record of a corpus run — the JSONL artifact line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopRecord {
    /// Index of the loop in the corpus (artifact lines may appear out of
    /// completion order; this restores corpus order).
    pub index: usize,
    /// Loop name from the generator.
    pub name: String,
    /// DDG node count.
    pub num_nodes: usize,
    /// Cache key of this record.
    pub key: CacheKey,
    /// `T_lb` of the loop (with the packing-refined `T_res`).
    pub t_lb: u32,
    /// `T_lb` under the paper's counting `T_res` — what the paper's
    /// Table 4 buckets against.
    pub t_lb_counting: u32,
    /// Achieved initiation interval (if scheduled).
    pub period: Option<u32>,
    /// Outcome class.
    pub outcome: SuiteOutcome,
    /// Whether every smaller period was refuted exactly (proven optimal).
    pub proven: bool,
    /// Branch-and-bound nodes over all periods.
    pub bb_nodes: u64,
    /// Simplex iterations over all periods.
    pub lp_iterations: u64,
    /// Budget ticks consumed by this loop's solve (pivots + B&B nodes +
    /// IMS placements). Exact and deterministic when the harness runs
    /// with isolated per-loop budgets (the default).
    pub ticks: u64,
    /// Candidate periods attempted.
    pub periods_attempted: u32,
    /// Whether any attempted period timed out undecided.
    pub any_timeout: bool,
    /// Per-loop on-thread solve time (see the module docs; zeroed when
    /// the harness runs with timing recording off).
    pub solve_time: Duration,
    /// Whether this record was served from the on-disk cache rather than
    /// solved in this run. Runtime-only: never serialized, so a cached
    /// record's JSON line is byte-identical to the cold solve's.
    pub cached: bool,
}

impl LoopRecord {
    /// The record of one finished solve of `ddg` on `machine` — the one
    /// place a solve becomes a record. `ticks` and `solve_time` are what the caller measured around the solve. A failed solve
    /// records as [`SuiteOutcome::Unscheduled`]. `None` for a cancelled
    /// solve, which has no outcome to record.
    #[allow(clippy::too_many_arguments)]
    pub fn from_solve(
        solved: &Result<ScheduleResult, ScheduleError>,
        index: usize,
        name: &str,
        ddg: &Ddg,
        machine: &Machine,
        key: CacheKey,
        ticks: u64,
        solve_time: Duration,
    ) -> Option<LoopRecord> {
        let unscheduled = |t_lb, stats| (t_lb, None, SuiteOutcome::Unscheduled, false, stats);
        let (t_lb, period, outcome, proven, stats) = match solved {
            Ok(r) => (
                r.t_lb(),
                Some(r.schedule.initiation_interval()),
                SuiteOutcome::Scheduled {
                    slack: r.slack_above_lb(),
                    solved_by: r.solved_by(),
                },
                r.is_proven_optimal(),
                r.solver_stats(),
            ),
            Err(ScheduleError::Cancelled) => return None,
            Err(ScheduleError::NotFound { t_lb, attempts, .. }) => {
                unscheduled(*t_lb, SolverStats::from_attempts(attempts))
            }
            Err(_) => unscheduled(0, SolverStats::default()),
        };
        Some(LoopRecord {
            index,
            name: name.to_string(),
            num_nodes: ddg.num_nodes(),
            key,
            t_lb,
            t_lb_counting: ddg
                .t_dep()
                .unwrap_or(0)
                .max(machine.t_res_counting(ddg).unwrap_or(0)),
            period,
            outcome,
            proven,
            bb_nodes: stats.bb_nodes,
            lp_iterations: stats.lp_iterations,
            ticks,
            periods_attempted: stats.periods_attempted,
            any_timeout: stats.any_timeout(),
            solve_time,
            cached: false,
        })
    }

    /// Serializes the record as one artifact line (no trailing newline).
    ///
    /// Schema (`v` = [`SCHEMA_VERSION`]):
    ///
    /// ```json
    /// {"v":6,"idx":7,"name":"loop0007","nodes":9,
    ///  "ddg_fp":"9f…16 hex…","mach_fp":"…","cfg_fp":"…",
    ///  "t_lb":4,"t_lb_counting":4,"status":"scheduled",
    ///  "period":4,"slack":0,"solved_by":"heuristic","proven":true,
    ///  "bb_nodes":0,"lp_iters":0,"ticks":151,"periods":1,
    ///  "timeout":false,"solve_us":423}
    /// ```
    ///
    /// `period`, `slack`, and `solved_by` are `null` for `"unscheduled"`
    /// records; fingerprints are fixed-width lowercase hex.
    pub fn to_json_line(&self) -> String {
        let mut w = ObjectWriter::new();
        w.u64("v", SCHEMA_VERSION)
            .u64("idx", self.index as u64)
            .str("name", &self.name)
            .u64("nodes", self.num_nodes as u64)
            .str("ddg_fp", &to_hex(self.key.ddg))
            .str("mach_fp", &to_hex(self.key.machine))
            .str("cfg_fp", &to_hex(self.key.config))
            .u64("t_lb", u64::from(self.t_lb))
            .u64("t_lb_counting", u64::from(self.t_lb_counting));
        match &self.outcome {
            SuiteOutcome::Scheduled { slack, solved_by } => {
                w.str("status", "scheduled")
                    .opt_u64("period", self.period.map(u64::from))
                    .u64("slack", u64::from(*slack))
                    .str("solved_by", solved_by.name());
            }
            SuiteOutcome::Unscheduled => {
                w.str("status", "unscheduled")
                    .null("period")
                    .null("slack")
                    .null("solved_by");
            }
        }
        w.bool("proven", self.proven)
            .u64("bb_nodes", self.bb_nodes)
            .u64("lp_iters", self.lp_iterations)
            .u64("ticks", self.ticks)
            .u64("periods", u64::from(self.periods_attempted))
            .bool("timeout", self.any_timeout)
            .u64("solve_us", self.solve_time.as_micros() as u64);
        w.finish()
    }

    /// Parses one artifact line back into a record (`cached` is `false`).
    ///
    /// # Errors
    ///
    /// A description of what is malformed — bad JSON, a missing or
    /// mistyped field, an unknown status, a schema-version mismatch. The
    /// cache loader downgrades these to a warning and skips the line.
    pub fn from_json_line(line: &str) -> Result<LoopRecord, String> {
        let m = parse_object(line)?;
        let field = |k: &str| m.get(k).ok_or_else(|| format!("missing field `{k}`"));
        let num = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("field `{k}` is not an integer"))
        };
        let text = |k: &str| {
            field(k)?
                .as_str()
                .ok_or_else(|| format!("field `{k}` is not a string"))
        };
        let flag = |k: &str| {
            field(k)?
                .as_bool()
                .ok_or_else(|| format!("field `{k}` is not a bool"))
        };
        let fp = |k: &str| {
            from_hex(text(k)?).ok_or_else(|| format!("field `{k}` is not a 16-hex fingerprint"))
        };

        let v = num("v")?;
        if v != SCHEMA_VERSION {
            return Err(format!("schema version {v}, expected {SCHEMA_VERSION}"));
        }
        let status = text("status")?;
        let (outcome, period) = match status {
            "scheduled" => {
                let slack = num("slack")? as u32;
                let name = text("solved_by")?;
                let solved_by =
                    SolvedBy::from_name(name).ok_or_else(|| format!("unknown engine `{name}`"))?;
                let period = num("period")? as u32;
                (SuiteOutcome::Scheduled { slack, solved_by }, Some(period))
            }
            "unscheduled" => (SuiteOutcome::Unscheduled, None),
            other => return Err(format!("unknown status `{other}`")),
        };
        Ok(LoopRecord {
            index: num("idx")? as usize,
            name: text("name")?.to_string(),
            num_nodes: num("nodes")? as usize,
            key: CacheKey {
                ddg: fp("ddg_fp")?,
                machine: fp("mach_fp")?,
                config: fp("cfg_fp")?,
            },
            t_lb: num("t_lb")? as u32,
            t_lb_counting: num("t_lb_counting")? as u32,
            period,
            outcome,
            proven: flag("proven")?,
            bb_nodes: num("bb_nodes")?,
            lp_iterations: num("lp_iters")?,
            ticks: num("ticks")?,
            periods_attempted: num("periods")? as u32,
            any_timeout: flag("timeout")?,
            solve_time: Duration::from_micros(num("solve_us")?),
            cached: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_core::{Engine, FaultPlan};

    fn sample(scheduled: bool) -> LoopRecord {
        LoopRecord {
            index: 7,
            name: "loop0007".into(),
            num_nodes: 9,
            key: CacheKey {
                ddg: 0x1234_5678_9abc_def0,
                machine: 42,
                config: u64::MAX,
            },
            t_lb: 4,
            t_lb_counting: 4,
            period: scheduled.then_some(4),
            outcome: if scheduled {
                SuiteOutcome::Scheduled {
                    slack: 0,
                    solved_by: SolvedBy::Heuristic,
                }
            } else {
                SuiteOutcome::Unscheduled
            },
            proven: scheduled,
            bb_nodes: 12,
            lp_iterations: 340,
            ticks: 151,
            periods_attempted: 1,
            any_timeout: !scheduled,
            solve_time: Duration::from_micros(423),
            cached: false,
        }
    }

    #[test]
    fn json_round_trips_both_outcomes() {
        for scheduled in [true, false] {
            let r = sample(scheduled);
            let line = r.to_json_line();
            let back = LoopRecord::from_json_line(&line).expect("round trip");
            assert_eq!(back, r);
            // Serialization is canonical: re-serializing reproduces the line.
            assert_eq!(back.to_json_line(), line);
        }
    }

    #[test]
    fn cached_flag_is_not_serialized() {
        let mut r = sample(true);
        let cold = r.to_json_line();
        r.cached = true;
        assert_eq!(r.to_json_line(), cold);
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let current = format!("\"v\":{SCHEMA_VERSION}");
        let line = sample(true).to_json_line().replace(&current, "\"v\":99");
        assert!(LoopRecord::from_json_line(&line)
            .unwrap_err()
            .contains("schema version"));
    }

    #[test]
    fn truncated_and_mistyped_lines_are_rejected() {
        let line = sample(true).to_json_line();
        assert!(LoopRecord::from_json_line(&line[..line.len() / 2]).is_err());
        let bad = line.replace("\"t_lb\":4", "\"t_lb\":\"four\"");
        assert!(LoopRecord::from_json_line(&bad).is_err());
        let missing = line.replace("\"proven\":true,", "");
        assert!(LoopRecord::from_json_line(&missing)
            .unwrap_err()
            .contains("proven"));
    }

    #[test]
    fn config_fingerprint_covers_every_hashed_field() {
        let base = SchedulerConfig::default();
        let fp = config_fingerprint(&base, None);
        assert_eq!(fp, config_fingerprint(&SchedulerConfig::default(), None));
        // Faults never key a record: fault-injected solves bypass caches.
        let faulty = SchedulerConfig {
            faults: FaultPlan {
                panic_in_solver: true,
                ..FaultPlan::default()
            },
            ..base.clone()
        };
        assert_eq!(fp, config_fingerprint(&faulty, None));
        // The per-loop tick cap does.
        assert_ne!(fp, config_fingerprint(&base, Some(1000)));
        // And so does every other field.
        let variants = [
            SchedulerConfig {
                mapping: MappingMode::CapacityOnly,
                ..base.clone()
            },
            SchedulerConfig {
                objective: Objective::MinUnits,
                ..base.clone()
            },
            SchedulerConfig {
                time_limit_per_t: None,
                ..base.clone()
            },
            SchedulerConfig {
                max_t_above_lb: 2,
                ..base.clone()
            },
            SchedulerConfig {
                heuristic_incumbent: false,
                ..base.clone()
            },
            SchedulerConfig {
                engine: Engine::Cp,
                ..base.clone()
            },
            SchedulerConfig {
                engine: Engine::Portfolio,
                ..base.clone()
            },
            SchedulerConfig {
                max_live: Some(4),
                ..base.clone()
            },
        ];
        for v in variants {
            assert_ne!(fp, config_fingerprint(&v, None), "{v:?}");
        }
    }
}
