//! Per-loop records, run configuration, and the JSONL artifact schema.
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
    Engine, ReuseStats, ScheduleError, ScheduleResult, SchedulerConfig, SolvedBy, SolverStats,
};
use swp_ddg::Ddg;
use swp_loops::fingerprint::{from_hex, to_hex, Fnv64};
use swp_machine::Machine;

/// Schema version stamped into every artifact line. v2 added the
/// portfolio-race counters (`races`, `race_cp`, `race_ilp`); v3 added
/// the warm-sweep reuse counters (`reuse_*`).
pub const SCHEMA_VERSION: u64 = 3;

/// Configuration for a corpus run (the solve-side knobs; sharding and
/// artifact knobs live in [`HarnessConfig`]).
///
/// [`HarnessConfig`]: crate::run::HarnessConfig
#[derive(Debug, Clone)]
pub struct SuiteRunConfig {
    /// Number of loops (paper: 1066). Override with fewer for smoke runs.
    pub num_loops: usize,
    /// Per-period ILP wall-clock budget. `None` disables the per-period
    /// deadline — combine with [`per_loop_ticks`](Self::per_loop_ticks)
    /// for fully deterministic, machine-speed-independent runs.
    pub time_limit_per_t: Option<Duration>,
    /// Deterministic per-loop tick cap (simplex pivots + B&B nodes + IMS
    /// placements all count). `None` leaves ticks uncapped.
    pub per_loop_ticks: Option<u64>,
    /// Stop at `T_lb + span`.
    pub max_t_above_lb: u32,
    /// Let iterative modulo scheduling certify feasible periods
    /// (rate-optimality is unaffected; see `SchedulerConfig`).
    pub heuristic_incumbent: bool,
    /// Exact engine per candidate period: the unified ILP, the CP
    /// backend, or a portfolio race of both ([`Engine`]). All three are
    /// decision-equivalent on proven outcomes; the fingerprint still
    /// distinguishes them so A/B records never mix.
    pub engine: Engine,
    /// Warm-start each loop's `T`-sweep: carry the simplex basis, the
    /// IMS schedule hint, and the CP no-good store from period `T` into
    /// `T+1` (`SchedulerConfig::warm_sweep`). Decision-equivalent to a
    /// cold sweep — warm facts are hints re-validated before use — but
    /// fingerprinted anyway so warm-vs-cold A/B records never mix.
    pub warm: bool,
    /// Register-pressure cap (`SchedulerConfig::max_live`). Changes
    /// which periods are feasible, so it is part of the fingerprint:
    /// capped and uncapped sweeps never share cached records.
    pub max_live: Option<u32>,
}

impl Default for SuiteRunConfig {
    fn default() -> Self {
        SuiteRunConfig {
            num_loops: 1066,
            time_limit_per_t: Some(Duration::from_secs(3)),
            per_loop_ticks: None,
            max_t_above_lb: 8,
            heuristic_incumbent: true,
            engine: Engine::default(),
            warm: true,
            max_live: None,
        }
    }
}

impl SuiteRunConfig {
    /// The scheduler configuration these knobs solve under; the
    /// per-loop tick cap goes on the budget instead. Solving with it is
    /// what makes a record's fingerprint describe the solve.
    pub fn scheduler_config(&self) -> SchedulerConfig {
        SchedulerConfig {
            time_limit_per_t: self.time_limit_per_t,
            max_t_above_lb: self.max_t_above_lb,
            heuristic_incumbent: self.heuristic_incumbent,
            engine: self.engine,
            warm_sweep: self.warm,
            max_live: self.max_live,
            ..SchedulerConfig::default()
        }
    }

    /// Stable fingerprint of every field that can change a loop's
    /// *outcome*. `num_loops` is deliberately excluded: a longer run
    /// over the same corpus prefix must be able to reuse cached records.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(SCHEMA_VERSION);
        h.write_u64(match self.time_limit_per_t {
            Some(d) => d.as_millis() as u64,
            None => u64::MAX,
        });
        h.write_u64(self.per_loop_ticks.unwrap_or(u64::MAX));
        h.write_u64(u64::from(self.max_t_above_lb));
        h.write_u64(u64::from(self.heuristic_incumbent));
        h.write_u64(match self.engine {
            Engine::Ilp => 0,
            Engine::Cp => 1,
            Engine::Portfolio => 2,
        });
        h.write_u64(u64::from(self.warm));
        h.write_u64(self.max_live.map_or(u64::MAX, u64::from));
        h.finish()
    }
}

/// Warm-sweep reuse telemetry carried on each record (schema v3): what
/// the warm-started `T`-sweep actually reused while solving this loop.
/// All zeros under a cold configuration ([`SuiteRunConfig::warm`]
/// off); `replays` and `cone_nodes` are only filled by callers that
/// host incremental sessions (the daemon), never by the corpus sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordReuse {
    /// Root LPs crash-started from the previous period's simplex basis.
    pub basis_hits: u64,
    /// CP no-good clauses replayed from the carried store.
    pub nogood_replays: u64,
    /// IMS probes settled by validating the carried schedule hint.
    pub ims_hint_hits: u64,
    /// Sweep periods skipped on carried (proven) refutations.
    pub periods_skipped: u64,
    /// Whole solves answered by replaying a cached session result.
    pub replays: u64,
    /// Total size of dependency cones invalidated by session edits.
    pub cone_nodes: u64,
}

impl RecordReuse {
    /// Whether any reuse happened at all.
    pub fn any(&self) -> bool {
        *self != RecordReuse::default()
    }

    /// Adds `other`'s counters into `self` (all fields are additive).
    pub fn absorb(&mut self, other: &RecordReuse) {
        self.basis_hits += other.basis_hits;
        self.nogood_replays += other.nogood_replays;
        self.ims_hint_hits += other.ims_hint_hits;
        self.periods_skipped += other.periods_skipped;
        self.replays += other.replays;
        self.cone_nodes += other.cone_nodes;
    }
}

impl From<&ReuseStats> for RecordReuse {
    fn from(r: &ReuseStats) -> RecordReuse {
        RecordReuse {
            basis_hits: r.basis_hits,
            nogood_replays: r.nogood_replays,
            ims_hint_hits: r.ims_hint_hits,
            periods_skipped: r.periods_skipped,
            replays: r.replays,
            cone_nodes: r.cone_nodes,
        }
    }
}

/// The cache key: a record is reusable iff the loop, the machine, and
/// the outcome-relevant config all fingerprint identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`swp_loops::fingerprint::ddg_fingerprint`] of the loop.
    pub ddg: u64,
    /// [`swp_loops::fingerprint::machine_fingerprint`] of the target.
    pub machine: u64,
    /// [`SuiteRunConfig::fingerprint`] of the solve configuration.
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
    /// Portfolio races run (0 outside portfolio mode).
    pub races: u32,
    /// Races the CP backend settled first.
    pub race_cp_wins: u32,
    /// Races the ILP settled first.
    pub race_ilp_wins: u32,
    /// Whether any attempted period timed out undecided.
    pub any_timeout: bool,
    /// Warm-sweep reuse counters (all zeros under a cold config).
    pub reuse: RecordReuse,
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
    /// place a solve becomes a record. `ticks`, `reuse` and `solve_time`
    /// are what the caller measured around the solve. A failed solve
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
        reuse: &ReuseStats,
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
            races: stats.races,
            race_cp_wins: stats.race_cp_wins,
            race_ilp_wins: stats.race_ilp_wins,
            any_timeout: stats.any_timeout(),
            reuse: RecordReuse::from(reuse),
            solve_time,
            cached: false,
        })
    }

    /// Serializes the record as one artifact line (no trailing newline).
    ///
    /// Schema (`v` = [`SCHEMA_VERSION`]):
    ///
    /// ```json
    /// {"v":3,"idx":7,"name":"loop0007","nodes":9,
    ///  "ddg_fp":"9f…16 hex…","mach_fp":"…","cfg_fp":"…",
    ///  "t_lb":4,"t_lb_counting":4,"status":"scheduled",
    ///  "period":4,"slack":0,"solved_by":"heuristic","proven":true,
    ///  "bb_nodes":0,"lp_iters":0,"ticks":151,"periods":1,
    ///  "races":0,"race_cp":0,"race_ilp":0,"timeout":false,
    ///  "reuse_basis":0,"reuse_nogoods":0,"reuse_hints":1,
    ///  "reuse_skips":0,"reuse_replays":0,"reuse_cone":0,
    ///  "solve_us":423}
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
            .u64("races", u64::from(self.races))
            .u64("race_cp", u64::from(self.race_cp_wins))
            .u64("race_ilp", u64::from(self.race_ilp_wins))
            .bool("timeout", self.any_timeout)
            .u64("reuse_basis", self.reuse.basis_hits)
            .u64("reuse_nogoods", self.reuse.nogood_replays)
            .u64("reuse_hints", self.reuse.ims_hint_hits)
            .u64("reuse_skips", self.reuse.periods_skipped)
            .u64("reuse_replays", self.reuse.replays)
            .u64("reuse_cone", self.reuse.cone_nodes)
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
            races: num("races")? as u32,
            race_cp_wins: num("race_cp")? as u32,
            race_ilp_wins: num("race_ilp")? as u32,
            any_timeout: flag("timeout")?,
            reuse: RecordReuse {
                basis_hits: num("reuse_basis")?,
                nogood_replays: num("reuse_nogoods")?,
                ims_hint_hits: num("reuse_hints")?,
                periods_skipped: num("reuse_skips")?,
                replays: num("reuse_replays")?,
                cone_nodes: num("reuse_cone")?,
            },
            solve_time: Duration::from_micros(num("solve_us")?),
            cached: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            races: 0,
            race_cp_wins: 0,
            race_ilp_wins: 0,
            any_timeout: !scheduled,
            reuse: RecordReuse {
                basis_hits: 2,
                nogood_replays: 1,
                ims_hint_hits: 3,
                periods_skipped: 1,
                replays: 0,
                cone_nodes: 4,
            },
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
        let line = sample(true).to_json_line().replace("\"v\":3", "\"v\":99");
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
    fn config_fingerprint_tracks_outcome_relevant_fields_only() {
        let base = SuiteRunConfig::default();
        let fp = base.fingerprint();
        assert_eq!(fp, SuiteRunConfig::default().fingerprint());
        // num_loops must NOT change the key (prefix reuse).
        let more = SuiteRunConfig {
            num_loops: 9999,
            ..base.clone()
        };
        assert_eq!(fp, more.fingerprint());
        // Every outcome-relevant knob must.
        let variants = [
            SuiteRunConfig {
                time_limit_per_t: None,
                ..base.clone()
            },
            SuiteRunConfig {
                per_loop_ticks: Some(1000),
                ..base.clone()
            },
            SuiteRunConfig {
                max_t_above_lb: 2,
                ..base.clone()
            },
            SuiteRunConfig {
                heuristic_incumbent: false,
                ..base.clone()
            },
            SuiteRunConfig {
                engine: Engine::Cp,
                ..base.clone()
            },
            SuiteRunConfig {
                engine: Engine::Portfolio,
                ..base.clone()
            },
            SuiteRunConfig {
                warm: false,
                ..base.clone()
            },
            SuiteRunConfig {
                max_live: Some(4),
                ..base.clone()
            },
        ];
        for v in variants {
            assert_ne!(fp, v.fingerprint(), "{v:?}");
        }
    }
}
