//! The `swpd` daemon binary (`swpd --help` lists its flags).
//!
//! Prints `swpd listening on <addr>` once ready (scripts scrape the
//! port from it), then serves until a `shutdown` request drains it.
//! Exits 0 after a clean drain.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use swp_harness::{Cli, Flags};
use swp_swpd::{Daemon, DaemonConfig};

const CLI: Cli = Cli {
    name: "swpd",
    usage: "\
usage: swpd [flags]

  --addr HOST:PORT          listen address (default 127.0.0.1:0)
  --workers N               solver threads (default 4)
  --queue N                 queued solves before `overloaded` (default 64)
  --sessions N              incremental sessions held open at once (default 16)
  --artifact PATH           persist every solve to a JSONL artifact
  --resume                  replay PATH into the cache and append to it
  --admission-ticks N       cap the tick pool every solve drains (default: none)
  --default-timeout-ms MS   per-request deadline when none is given (default 10000)
  --max-timeout-ms MS       largest deadline a request may ask for (default 120000)
  --drain-grace-ms MS       how long a drain waits for in-flight solves (default 5000)
  --allow-fault-injection   honour `panic` fault injection in requests (load tests)
  -h, --help                print this help
",
};

fn main() -> ExitCode {
    CLI.run(run)
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let config = build_config(flags)?;
    let handle = Daemon::start(config).map_err(|e| format!("failed to start: {e}"))?;
    println!("swpd listening on {}", handle.addr());

    let stats = handle.wait();
    println!(
        "swpd drained: requests={} solved={} cached={} unscheduled={} \
         budget_exhausted={} overloaded={} cancelled={} panics={} \
         bad_requests={} internal_errors={} replayed={}",
        stats.requests,
        stats.solved,
        stats.cached,
        stats.unscheduled,
        stats.budget_exhausted,
        stats.overloaded,
        stats.cancelled,
        stats.panics,
        stats.bad_requests,
        stats.internal_errors,
        stats.replayed,
    );
    let clean = stats.in_flight == 0 && stats.queue_depth == 0 && stats.internal_errors == 0;
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn build_config(flags: &Flags) -> Result<DaemonConfig, String> {
    let defaults = DaemonConfig::default();
    Ok(DaemonConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        workers: flags.get_or("workers", defaults.workers)?,
        queue_capacity: flags.get_or("queue", defaults.queue_capacity)?,
        artifact: flags.get("artifact").map(PathBuf::from),
        resume: flags.has("resume"),
        admission_ticks: match flags.get("admission-ticks") {
            None => None,
            Some(raw) => Some(
                raw.parse()
                    .map_err(|_| format!("flag --admission-ticks: cannot parse `{raw}`"))?,
            ),
        },
        default_timeout_ms: flags.get_or("default-timeout-ms", defaults.default_timeout_ms)?,
        max_timeout_ms: flags.get_or("max-timeout-ms", defaults.max_timeout_ms)?,
        drain_grace: Duration::from_millis(
            flags.get_or("drain-grace-ms", defaults.drain_grace.as_millis() as u64)?,
        ),
        allow_fault_injection: flags.has("allow-fault-injection"),
        session_capacity: flags.get_or("sessions", defaults.session_capacity)?,
    })
}
