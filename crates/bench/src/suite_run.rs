//! The corpus runner behind Tables 4 and 5 — a thin sequential wrapper
//! over the `swp-harness` subsystem.
//!
//! This module only keeps the historical entry point: a synchronous,
//! artifact-less, single-worker corpus run. Anything fancier — worker
//! sharding, the JSONL artifact, resume-from-cache, run telemetry — is
//! the harness's job; see the `table4`/`table5` binaries for
//! full-featured use.

use swp_core::SchedulerConfig;
use swp_harness::{Harness, HarnessConfig, LoopRecord, NullSink};
use swp_loops::suite::{generate, SuiteConfig};
use swp_machine::Machine;

/// Runs the synthetic corpus through the unified scheduler under
/// `config`, one loop at a time, each loop capped at `per_loop_ticks`,
/// and returns one record per loop. Deterministic for a fixed corpus
/// seed (up to solve-time fields) when `config` sets no deadline.
pub fn run_suite(
    machine: &Machine,
    corpus: &SuiteConfig,
    config: &SchedulerConfig,
    per_loop_ticks: Option<u64>,
) -> Vec<LoopRecord> {
    let loops = generate(corpus);
    let harness = HarnessConfig {
        per_loop_ticks,
        ..HarnessConfig::default()
    };
    match Harness::new(machine.clone(), config.clone(), harness).run(&loops, &mut NullSink) {
        Ok(report) => report.records,
        // Sequential mode configures no artifact, so no I/O can fail.
        Err(e) => unreachable!("artifact-less run cannot fail: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use swp_harness::SuiteOutcome;

    #[test]
    fn smoke_run_produces_records() {
        let config = SchedulerConfig {
            time_limit_per_t: Some(Duration::from_millis(500)),
            max_t_above_lb: 8,
            ..SchedulerConfig::default()
        };
        let corpus = SuiteConfig {
            num_loops: 8,
            ..SuiteConfig::pldi95_default()
        };
        let recs = run_suite(&Machine::example_pldi95(), &corpus, &config, None);
        assert_eq!(recs.len(), 8);
        let scheduled = recs
            .iter()
            .filter(|r| matches!(r.outcome, SuiteOutcome::Scheduled { .. }))
            .count();
        assert!(scheduled >= 6, "only {scheduled}/8 scheduled");
        for r in &recs {
            if let Some(p) = r.period {
                assert!(p >= r.t_lb);
            }
        }
    }
}
