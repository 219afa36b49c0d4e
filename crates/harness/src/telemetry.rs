//! End-of-run telemetry: aggregate counters and a solve-time histogram.
//!
//! Every corpus run aggregates its [`LoopRecord`]s into a
//! [`RunSummary`]: outcome and engine mix, total solver effort (simplex
//! pivots, branch-and-bound nodes, budget ticks), cache effectiveness,
//! and the split the satellite fix demands — summed per-loop solve time
//! *versus* whole-run wall time, whose ratio is the realized parallel
//! speedup.

use crate::record::{LoopRecord, SuiteOutcome};
use std::fmt::Write as _;
use std::time::Duration;
use swp_core::SolvedBy;

/// Upper edges of the solve-time histogram buckets.
const BUCKET_EDGES_US: [(u64, &str); 6] = [
    (100, "< 100 µs"),
    (1_000, "< 1 ms"),
    (10_000, "< 10 ms"),
    (100_000, "< 100 ms"),
    (1_000_000, "< 1 s"),
    (10_000_000, "< 10 s"),
];

/// Aggregated statistics over one corpus run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Loops with a record (cancelled runs may have fewer than the corpus).
    pub total: usize,
    /// Loops scheduled at some period.
    pub scheduled: usize,
    /// Loops not scheduled in range.
    pub unscheduled: usize,
    /// Records served from the on-disk cache.
    pub cache_hits: usize,
    /// Records solved fresh in this run.
    pub fresh_solves: usize,
    /// Scheduled loops whose period equals the *counting* `T_lb` (the
    /// paper's Table 4 headline bucket).
    pub at_counting_lb: usize,
    /// Scheduled loops proven rate-optimal under the refined bound.
    pub proven_optimal: usize,
    /// Loops whose final schedule came from the unified ILP.
    pub by_ilp: usize,
    /// Loops whose final schedule came from the CP backend.
    pub by_cp: usize,
    /// Loops whose final schedule came from the IMS certificate.
    pub by_heuristic: usize,
    /// Loops with at least one undecided (timed-out) period.
    pub with_timeout: usize,
    /// Total branch-and-bound nodes.
    pub bb_nodes: u64,
    /// Total simplex iterations.
    pub lp_iterations: u64,
    /// Total budget ticks (pivots + B&B nodes + IMS placements).
    pub ticks: u64,
    /// Sum of per-loop on-thread solve times (CPU-side effort).
    pub solve_time_total: Duration,
    /// Whole-run wall time (what a user actually waits).
    pub wall_time: Duration,
    /// Solve-time histogram: `(label, count)` per bucket, including the
    /// final overflow bucket.
    pub histogram: Vec<(&'static str, usize)>,
}

impl RunSummary {
    /// Aggregates `records`; `wall_time` is measured by the caller
    /// around the whole run (including cache loading and I/O).
    pub fn from_records(records: &[LoopRecord], wall_time: Duration) -> RunSummary {
        let mut s = RunSummary {
            total: records.len(),
            wall_time,
            histogram: BUCKET_EDGES_US
                .iter()
                .map(|&(_, label)| (label, 0))
                .chain([("≥ 10 s", 0)])
                .collect(),
            ..RunSummary::default()
        };
        for r in records {
            match &r.outcome {
                SuiteOutcome::Scheduled { solved_by, .. } => {
                    s.scheduled += 1;
                    match solved_by {
                        SolvedBy::Ilp => s.by_ilp += 1,
                        SolvedBy::Cp => s.by_cp += 1,
                        SolvedBy::Heuristic => s.by_heuristic += 1,
                    }
                    if r.period.is_some_and(|p| p <= r.t_lb_counting) {
                        s.at_counting_lb += 1;
                    }
                    if r.proven && r.period.is_some_and(|p| p == r.t_lb) {
                        s.proven_optimal += 1;
                    }
                }
                SuiteOutcome::Unscheduled => s.unscheduled += 1,
            }
            if r.cached {
                s.cache_hits += 1;
            } else {
                s.fresh_solves += 1;
            }
            if r.any_timeout {
                s.with_timeout += 1;
            }
            s.bb_nodes += r.bb_nodes;
            s.lp_iterations += r.lp_iterations;
            s.ticks += r.ticks;
            s.solve_time_total += r.solve_time;
            let us = r.solve_time.as_micros() as u64;
            let bucket = BUCKET_EDGES_US
                .iter()
                .position(|&(edge, _)| us < edge)
                .unwrap_or(BUCKET_EDGES_US.len());
            s.histogram[bucket].1 += 1;
        }
        s
    }

    /// Corpus throughput against *wall* time.
    pub fn loops_per_sec(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total as f64 / secs
    }

    /// Realized parallel speedup: summed solve time over wall time.
    /// ~1.0 for a sequential run, approaching the worker count when the
    /// corpus shards well. Meaningless (0) when timing was not recorded.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        self.solve_time_total.as_secs_f64() / wall
    }

    /// Renders the summary as an ASCII block (engine mix, effort totals,
    /// solve-time histogram with proportional bars).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loops: {} ({} scheduled, {} unscheduled) | cache: {} hits / {} solved",
            self.total, self.scheduled, self.unscheduled, self.cache_hits, self.fresh_solves
        );
        let _ = writeln!(
            out,
            "engines: {} ILP, {} CP, {} heuristic | {} at counting T_lb, {} proven optimal, {} with timeouts",
            self.by_ilp,
            self.by_cp,
            self.by_heuristic,
            self.at_counting_lb,
            self.proven_optimal,
            self.with_timeout
        );
        let _ = writeln!(
            out,
            "effort: {} B&B nodes, {} simplex iterations, {} budget ticks",
            self.bb_nodes, self.lp_iterations, self.ticks
        );
        let _ = writeln!(
            out,
            "time: {:.2?} wall, {:.2?} summed solve ({:.1} loops/s, speedup ×{:.2})",
            self.wall_time,
            self.solve_time_total,
            self.loops_per_sec(),
            self.speedup()
        );
        let max = self.histogram.iter().map(|&(_, c)| c).max().unwrap_or(0);
        if max > 0 {
            let _ = writeln!(out, "solve-time histogram:");
            for &(label, count) in &self.histogram {
                let width = (count * 40).div_ceil(max.max(1));
                let _ = writeln!(
                    out,
                    "  {label:>9} | {:<40} {count}",
                    "#".repeat(if count == 0 { 0 } else { width.max(1) })
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CacheKey;

    fn rec(i: usize, solve_us: u64, cached: bool, scheduled: bool) -> LoopRecord {
        LoopRecord {
            index: i,
            name: format!("loop{i:04}"),
            num_nodes: 5,
            key: CacheKey {
                ddg: i as u64,
                machine: 1,
                config: 2,
            },
            t_lb: 3,
            t_lb_counting: 3,
            period: scheduled.then_some(3),
            outcome: if scheduled {
                SuiteOutcome::Scheduled {
                    slack: 0,
                    solved_by: if i % 2 == 0 {
                        SolvedBy::Ilp
                    } else {
                        SolvedBy::Heuristic
                    },
                }
            } else {
                SuiteOutcome::Unscheduled
            },
            proven: scheduled,
            bb_nodes: 10,
            lp_iterations: 100,
            ticks: 111,
            periods_attempted: 1,
            any_timeout: false,
            solve_time: Duration::from_micros(solve_us),
            cached,
        }
    }

    #[test]
    fn summary_counts_everything() {
        let records = vec![
            rec(0, 50, false, true),          // <100µs, ILP
            rec(1, 5_000, true, true),        // <10ms, heuristic, cached
            rec(2, 20_000_000, false, false), // overflow bucket, unscheduled
        ];
        let s = RunSummary::from_records(&records, Duration::from_secs(2));
        assert_eq!(s.total, 3);
        assert_eq!(s.scheduled, 2);
        assert_eq!(s.unscheduled, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.fresh_solves, 2);
        assert_eq!(s.by_ilp, 1);
        assert_eq!(s.by_heuristic, 1);
        assert_eq!(s.at_counting_lb, 2);
        assert_eq!(s.proven_optimal, 2);
        assert_eq!(s.bb_nodes, 30);
        assert_eq!(s.lp_iterations, 300);
        assert_eq!(s.ticks, 333);
        assert_eq!(s.histogram[0], ("< 100 µs", 1));
        assert_eq!(s.histogram[2], ("< 10 ms", 1));
        assert_eq!(s.histogram[6], ("≥ 10 s", 1));
        assert!((s.loops_per_sec() - 1.5).abs() < 1e-9);
        let rendered = s.render();
        assert!(rendered.contains("3 (2 scheduled, 1 unscheduled)"));
        assert!(rendered.contains("histogram"));
    }

    #[test]
    fn empty_run_renders_without_panicking() {
        let s = RunSummary::from_records(&[], Duration::ZERO);
        assert_eq!(s.loops_per_sec(), 0.0);
        assert_eq!(s.speedup(), 0.0);
        let _ = s.render();
    }
}
