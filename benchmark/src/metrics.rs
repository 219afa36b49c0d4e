//! Metric declarations, the per-run report, and the order statistics
//! every workload shares.
//!
//! The names, units and directions here must match `BENCHMARK.json` at
//! the repository root, which also fixes each end-to-end bound; the
//! smoke test checks the two agree.

use crate::RunOpts;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_us_p50", "us"),
    ("latency_us_p90", "us"),
    ("proven_share", "share"),
    ("ii_over_lb", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics, from the traced replay pass: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.driver.us", "us"),
    ("core.driver.self_us", "us"),
    ("trace.coverage", "share"),
    ("trace.agreement", "share"),
    ("ddg.t_dep.share", "share"),
    ("ddg.t_dep.calls", "count"),
    ("machine.t_res.share", "share"),
    ("machine.checker.share", "share"),
    ("machine.checker.calls", "count"),
    ("machine.checker.rejects", "count"),
    ("heuristics.ims.share", "share"),
    ("heuristics.ims.calls", "count"),
    ("heuristics.ims.ticks", "count"),
    ("heuristics.ims.certified", "count"),
    ("heuristics.grace.share", "share"),
    ("heuristics.grace.calls", "count"),
    ("core.formulation.share", "share"),
    ("core.formulation.calls", "count"),
    ("core.formulation.vars", "count"),
    ("core.formulation.constrs", "count"),
    ("core.formulation.rejected", "count"),
    ("core.ii_slack_sum", "count"),
    ("milp.solve.share", "share"),
    ("milp.solve.calls", "count"),
    ("milp.bb_nodes", "count"),
    ("milp.lp_iterations", "count"),
    ("milp.ticks", "count"),
    ("milp.refuted", "count"),
    ("milp.limit", "count"),
    ("cpsat.solve.share", "share"),
    ("cpsat.solve.calls", "count"),
    ("cpsat.nodes", "count"),
    ("cpsat.conflicts", "count"),
    ("cpsat.ticks", "count"),
    ("cpsat.refuted", "count"),
    ("cpsat.exhausted", "count"),
    ("automata.matrix_queries", "count"),
    ("automata.memo_builds", "count"),
    ("automata.memo_hits", "count"),
    ("swpd.server_solve.share", "share"),
    ("swpd.proto.share", "share"),
    ("swpd.case_parse.share", "share"),
    ("harness.fingerprint.share", "share"),
    ("harness.cache.hit_ratio", "share"),
    ("incr.session.share", "share"),
    ("incr.replay_share", "share"),
    ("incr.reuse.ims_hint_hits", "count"),
];

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed window (solves or requests).
    pub attempted: u64,
    /// Attempted operations whose output failed a check.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a failed check, with the reason on standard error.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("swp-benchmark: check failed: {}", why.as_ref());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `v` and returns its median.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// Seconds since `t` as `f64`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times a workload's set-up for `setup_s`. A set-up lasts milliseconds,
/// while contention from other tenants of a shared host comes in
/// stretches of seconds, so a run times set-ups spread over its whole
/// measurement and reports their median: the first, whose result the run
/// keeps, then one more each time a fortieth of the measuring time has
/// passed since the last (a smoke run sets up once).
pub struct SetupTimer<F> {
    set_up: F,
    times: Vec<f64>,
    interval: Option<Duration>,
    next: Instant,
}

impl<T, F: FnMut() -> T> SetupTimer<F> {
    /// Times the first set-up and returns its result.
    pub fn start(opts: &RunOpts, mut set_up: F) -> (SetupTimer<F>, T) {
        let started = Instant::now();
        let first = set_up();
        let times = vec![secs(started)];
        let interval = (!opts.smoke).then(|| opts.seconds / 40);
        let next = Instant::now() + interval.unwrap_or_default();
        let timer = SetupTimer {
            set_up,
            times,
            interval,
            next,
        };
        (timer, first)
    }

    /// Whether another set-up is due.
    pub fn due(&self) -> bool {
        self.interval.is_some() && Instant::now() >= self.next
    }

    /// Times one more set-up if one is due and returns it, to be
    /// discarded by the caller outside the timed part.
    pub fn sample(&mut self) -> Option<T> {
        let interval = self.interval.filter(|_| self.due())?;
        let started = Instant::now();
        let built = (self.set_up)();
        self.times.push(secs(started));
        self.next = Instant::now() + interval;
        Some(built)
    }

    /// The median set-up time in seconds.
    pub fn median(mut self) -> f64 {
        median(&mut self.times)
    }
}

/// Sets the two latency percentiles from per-operation times in
/// microseconds, measured in blocks: each percentile is the median over
/// the blocks of that block's percentile, so that contention from outside
/// during a few blocks does not set it.
pub fn set_latency(report: &mut Report, blocks: Vec<Vec<f64>>) {
    let (mut p50, mut p90) = (Vec::new(), Vec::new());
    for mut us in blocks {
        us.sort_by(f64::total_cmp);
        p50.push(quantile(&us, 0.5));
        p90.push(quantile(&us, 0.9));
    }
    report.set("latency_us_p50", median(&mut p50));
    report.set("latency_us_p90", median(&mut p90));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
