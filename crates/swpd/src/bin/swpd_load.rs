//! `swpd-load` — hammers a daemon with concurrent mixed traffic and
//! asserts the robustness contract (`swpd-load --help` lists its flags).
//!
//! Without `--addr` it starts an in-process daemon (over real TCP) and
//! runs the full acceptance: a seeded deterministic mix of hot
//! fingerprints (cache churn), cold guaranteed-schedulable DDGs,
//! adversarial DDGs, injected panics, over-tight deadlines, and
//! mid-solve disconnects, fired from `--clients` pipelined connections;
//! then a graceful drain and an in-process restart that must serve
//! every previously solved fingerprint from the replayed artifact.
//!
//! Hard assertions (exit 1 on any violation):
//! * zero lost or hung requests — every expected id gets exactly one
//!   reply, classified as one of the protocol statuses;
//! * telemetry counters are monotone under concurrent polling, and once
//!   idle `requests == classified_total`;
//! * every injected panic is isolated (`internal_panic` reply, daemon
//!   keeps serving) and `panics` matches the client-observed count;
//! * the drain leaves `in_flight == 0`, `queue_depth == 0`;
//! * post-restart, 100% of previously `solved`/`unscheduled` ids reply
//!   `cached`.
//!
//! With `--addr` the same main phase runs against an external daemon
//! (restart is the script's job): `--solved-out` records the solved id
//! set, a later `--solved-in` run replays it and asserts 100% warm
//! hits, and `--shutdown` sends the drain request at the end.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use swp_fuzz::{gen_case, gen_cases, write_regression, GenConfig};
use swp_harness::Cli;
use swp_swpd::{
    Daemon, DaemonConfig, Reply, ReplyStatus, Request, SolveRequest, StatsSnapshot, SwpdClient,
};

const HOT_POOL: usize = 8;
const PIPELINE_WINDOW: usize = 8;
const READ_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot,
    Cold,
    Adversarial,
    Panic,
    Deadline,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Hot => "hot",
            Kind::Cold => "cold",
            Kind::Adversarial => "adv",
            Kind::Panic => "panic",
            Kind::Deadline => "deadline",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "hot" => Kind::Hot,
            "cold" => Kind::Cold,
            "adv" => Kind::Adversarial,
            "panic" => Kind::Panic,
            "deadline" => Kind::Deadline,
            _ => return None,
        })
    }
}

/// splitmix64 — the same per-index decorrelation the fuzz generators
/// use, so the mix is identical across processes given the seed.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn kind_of(seed: u64, i: usize) -> Kind {
    match mix(seed ^ 0xD15C, i as u64) % 40 {
        0..=21 => Kind::Hot,          // 55%
        22..=29 => Kind::Cold,        // 20%
        30..=33 => Kind::Adversarial, // 10%
        34..=36 => Kind::Panic,       // 7.5%
        _ => Kind::Deadline,          // 7.5%
    }
}

struct Mix {
    seed: u64,
    hot_pool: Vec<String>,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let cfg = GenConfig {
            seed: seed ^ 0x0107,
            adversarial_fraction: 0.0,
            max_nodes: 5,
            ..GenConfig::default()
        };
        let hot_pool = gen_cases(&cfg, HOT_POOL)
            .iter()
            .map(|c| write_regression(c, None))
            .collect();
        Mix { seed, hot_pool }
    }

    fn request(&self, kind: Kind, i: usize) -> SolveRequest {
        let id = format!("{}-{i}", kind.label());
        match kind {
            Kind::Hot => {
                let mut r = SolveRequest::new(id, self.hot_pool[i % HOT_POOL].clone());
                r.timeout_ms = Some(30_000);
                r.ticks = Some(2_000_000);
                r
            }
            Kind::Cold => {
                let cfg = GenConfig {
                    seed: self.seed ^ 0xC01D,
                    adversarial_fraction: 0.0,
                    max_nodes: 6,
                    ..GenConfig::default()
                };
                let case = write_regression(&gen_case(&cfg, i), None);
                let mut r = SolveRequest::new(id, case);
                r.timeout_ms = Some(30_000);
                r.ticks = Some(2_000_000);
                r
            }
            Kind::Adversarial => {
                let cfg = GenConfig {
                    seed: self.seed ^ 0x0adf,
                    adversarial_fraction: 1.0,
                    max_nodes: 8,
                    ..GenConfig::default()
                };
                let case = write_regression(&gen_case(&cfg, i), None);
                let mut r = SolveRequest::new(id, case);
                r.timeout_ms = Some(30_000);
                r.ticks = Some(300_000);
                r
            }
            Kind::Panic => {
                // A dedicated pool so a cache hit can never pre-empt the
                // injected panic (cache lookup runs before the solve).
                let cfg = GenConfig {
                    seed: self.seed ^ 0xFA71,
                    adversarial_fraction: 0.0,
                    max_nodes: 4,
                    ..GenConfig::default()
                };
                let case = write_regression(&gen_case(&cfg, i), None);
                let mut r = SolveRequest::new(id, case);
                r.inject_panic = true;
                r
            }
            Kind::Deadline => {
                let cfg = GenConfig {
                    seed: self.seed ^ 0xDEAD,
                    adversarial_fraction: 1.0,
                    max_nodes: 8,
                    ..GenConfig::default()
                };
                let case = write_regression(&gen_case(&cfg, i), None);
                let mut r = SolveRequest::new(id, case);
                r.timeout_ms = Some(1);
                r
            }
        }
    }

    fn request_for_id(&self, id: &str) -> Option<SolveRequest> {
        let (label, index) = id.rsplit_once('-')?;
        let kind = Kind::parse(label)?;
        let i: usize = index.parse().ok()?;
        Some(self.request(kind, i))
    }

    /// A deliberately heavyweight case for the disconnect mix: big
    /// adversarial DDG, generous budget — we *want* it still running
    /// when the socket drops.
    fn disconnect_request(&self, i: usize) -> SolveRequest {
        let cfg = GenConfig {
            seed: self.seed ^ 0xD15C0,
            adversarial_fraction: 1.0,
            max_nodes: 10,
            ..GenConfig::default()
        };
        let case = write_regression(&gen_case(&cfg, i), None);
        let mut r = SolveRequest::new(format!("disc-{i}"), case);
        r.timeout_ms = Some(30_000);
        r.max_t = Some(32);
        r
    }
}

#[derive(Default)]
struct Outcome {
    replies: HashMap<String, ReplyStatus>,
    violations: Vec<String>,
}

const CLI: Cli = Cli {
    name: "swpd-load",
    usage: "\
usage: swpd-load [flags]

  --smoke              smoke scale: 150 requests from 8 clients
  --requests N         requests in the main phase (default 1000)
  --clients N          pipelined client connections (default 24)
  --seed N             traffic-mix seed (default 1)
  --workers N          in-process daemon's solver threads (default 4)
  --queue N            in-process daemon's queue capacity (default 48)
  --artifact PATH      in-process daemon's artifact (default: a temp file)
  --keep-artifact      keep the in-process daemon's artifact after the run
  --addr HOST:PORT     drive an external daemon instead
  --solved-out FILE    record the solved request ids (with --addr)
  --solved-in FILE     replay FILE's ids, expecting 100% cache hits (with --addr)
  --shutdown           send the drain request at the end (with --addr)
  -h, --help           print this help
",
};

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let flags = CLI.parse_env();
    let smoke = flags.has("smoke");
    let parsed = (|| -> Result<(u64, usize, usize, usize, usize), String> {
        Ok((
            flags.get_or("seed", 1)?,
            flags.get_or("requests", if smoke { 150 } else { 1000 })?,
            flags.get_or("clients", if smoke { 8 } else { 24 })?,
            flags.get_or("workers", 4)?,
            flags.get_or("queue", 48)?,
        ))
    })();
    let (seed, requests, clients, workers, queue_capacity) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("swpd-load: {e}");
            return 2;
        }
    };
    let disconnects = (requests / 25).clamp(4, 50);
    let mix = Arc::new(Mix::new(seed));

    // Replay-only mode: re-issue a recorded solved set, expect 100%
    // warm cache hits.
    if let Some(path) = flags.get("solved-in") {
        let Some(addr) = flags.get("addr") else {
            eprintln!("swpd-load: --solved-in needs --addr");
            return 2;
        };
        let ids: Vec<String> = match std::fs::read_to_string(path) {
            Ok(t) => t.lines().map(str::to_string).collect(),
            Err(e) => {
                eprintln!("swpd-load: cannot read {path}: {e}");
                return 2;
            }
        };
        let mut violations = replay_solved(addr, &mix, &ids);
        if flags.has("shutdown") {
            let mut c = SwpdClient::new(addr, seed);
            if let Err(e) = c.shutdown() {
                violations.push(format!("shutdown request failed: {e}"));
            }
        }
        return report("replay", &violations, &[("replayed_ids", ids.len() as u64)]);
    }

    // Main phase: external daemon or an in-process one.
    let external = flags.get("addr").map(str::to_string);
    let artifact = flags.get("artifact").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("swpd-load-{}-{seed}.jsonl", std::process::id()))
    });
    let daemon = if external.is_some() {
        None
    } else {
        let config = DaemonConfig {
            workers,
            queue_capacity,
            artifact: Some(artifact.clone()),
            resume: false,
            default_timeout_ms: 30_000,
            drain_grace: Duration::from_secs(3),
            allow_fault_injection: true,
            ..DaemonConfig::default()
        };
        match Daemon::start(config) {
            Ok(h) => Some(h),
            Err(e) => {
                eprintln!("swpd-load: failed to start daemon: {e}");
                return 1;
            }
        }
    };
    let addr = external.clone().unwrap_or_else(|| {
        daemon
            .as_ref()
            .map(|d| d.addr().to_string())
            .unwrap_or_default()
    });

    eprintln!(
        "swpd-load: {requests} requests, {clients} clients, {disconnects} disconnects, seed {seed}, daemon {addr}"
    );

    // Telemetry monitor: concurrent polls must observe monotone
    // counters.
    let stop_monitor = Arc::new(AtomicBool::new(false));
    let monitor = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop_monitor);
        thread::spawn(move || monitor_stats(&addr, &stop))
    };

    // Disconnect threads: fire a heavy solve, then hang up mid-flight.
    let disconnectors: Vec<_> = (0..disconnects)
        .map(|i| {
            let addr = addr.clone();
            let mix = Arc::clone(&mix);
            thread::spawn(move || {
                let req = mix.disconnect_request(i);
                if let Ok(mut s) = TcpStream::connect(&addr) {
                    let line = Request::Solve(req).to_json_line();
                    let _ = s.write_all(line.as_bytes());
                    let _ = s.write_all(b"\n");
                    let _ = s.flush();
                    thread::sleep(Duration::from_millis(20));
                    // drop: EOF fires the cancel token server-side
                }
            })
        })
        .collect();

    // Client threads: pipelined JSONL, overload retries via the backoff
    // client.
    let outcomes: Vec<Outcome> = {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                let mix = Arc::clone(&mix);
                let ids: Vec<usize> = (0..requests).filter(|i| i % clients == c).collect();
                thread::spawn(move || client_thread(&addr, &mix, &ids, seed.wrapping_add(c as u64)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut o = Outcome::default();
                    o.violations.push("client thread panicked".into());
                    o
                })
            })
            .collect()
    };
    for d in disconnectors {
        let _ = d.join();
    }

    let mut violations: Vec<String> = Vec::new();
    let mut replies: HashMap<String, ReplyStatus> = HashMap::new();
    for mut o in outcomes {
        violations.append(&mut o.violations);
        replies.extend(o.replies);
    }

    // Zero lost requests: every id replied exactly once (the map
    // structure dedups; double replies would surface as a protocol
    // error in the per-thread reader).
    for i in 0..requests {
        let id = format!("{}-{i}", kind_of(seed, i).label());
        if !replies.contains_key(&id) {
            violations.push(format!("lost request: no reply for {id}"));
        }
    }
    let mut by_status: HashMap<ReplyStatus, u64> = HashMap::new();
    for status in replies.values() {
        *by_status.entry(*status).or_default() += 1;
    }
    let panic_expected = (0..requests)
        .filter(|&i| kind_of(seed, i) == Kind::Panic)
        .count() as u64;
    let panic_seen = by_status
        .get(&ReplyStatus::InternalPanic)
        .copied()
        .unwrap_or(0);
    if panic_seen != panic_expected {
        violations.push(format!(
            "panic isolation: expected {panic_expected} internal_panic replies, saw {panic_seen}"
        ));
    }
    if let Some(n) = by_status.get(&ReplyStatus::InternalError) {
        violations.push(format!("{n} internal_error replies"));
    }

    // Let in-flight disconnect solves cancel/finish, then check the
    // idle accounting identity.
    let mut client = SwpdClient::new(addr.clone(), seed ^ 0xACC7);
    let settle = settle_idle(&mut client, Duration::from_secs(120));
    match settle {
        Ok(stats) => {
            if stats.requests != stats.classified_total() {
                violations.push(format!(
                    "accounting: requests={} but classified_total={}",
                    stats.requests,
                    stats.classified_total()
                ));
            }
            if panic_seen != stats.panics {
                violations.push(format!(
                    "panics counter {} != client-observed {}",
                    stats.panics, panic_seen
                ));
            }
            if stats.internal_errors != 0 {
                violations.push(format!(
                    "daemon counted {} internal_errors",
                    stats.internal_errors
                ));
            }
        }
        Err(e) => violations.push(format!("daemon never went idle: {e}")),
    }

    stop_monitor.store(true, Ordering::Relaxed);
    match monitor.join() {
        Ok((polls, mut monitor_violations)) => {
            violations.append(&mut monitor_violations);
            if polls < 2 {
                violations.push(format!("monitor managed only {polls} stats polls"));
            }
        }
        Err(_) => violations.push("monitor thread panicked".into()),
    }

    // The warm set: ids whose outcome is deterministic and therefore
    // cached (fresh proven solves and exact refutations, plus ids that
    // already hit the cache this run).
    let solved: Vec<String> = {
        let mut v: Vec<String> = replies
            .iter()
            .filter(|(_, s)| {
                matches!(
                    s,
                    ReplyStatus::Solved | ReplyStatus::Unscheduled | ReplyStatus::Cached
                )
            })
            .map(|(id, _)| id.clone())
            .collect();
        v.sort();
        v
    };
    if solved.is_empty() {
        violations.push("no request ever solved — load mix is broken".into());
    }
    if let Some(path) = flags.get("solved-out") {
        if let Err(e) = std::fs::write(path, solved.join("\n") + "\n") {
            violations.push(format!("cannot write {path}: {e}"));
        }
    }

    let mut extras: Vec<(&str, u64)> = vec![
        ("requests", requests as u64),
        ("solved_set", solved.len() as u64),
    ];
    for (status, n) in &by_status {
        extras.push((status.as_str(), *n));
    }

    // Drain; for the in-process daemon also restart and verify the
    // crash-only recovery contract end to end.
    if let Some(handle) = daemon {
        let mut c = SwpdClient::new(addr.clone(), seed ^ 0xD3A1);
        if let Err(e) = c.shutdown() {
            violations.push(format!("shutdown request failed: {e}"));
        }
        let final_stats = handle.wait();
        if final_stats.in_flight != 0 || final_stats.queue_depth != 0 {
            violations.push(format!(
                "unclean drain: in_flight={} queue_depth={}",
                final_stats.in_flight, final_stats.queue_depth
            ));
        }
        if !final_stats.draining {
            violations.push("daemon drained without latching the draining flag".into());
        }

        // Crash-only recovery: a fresh daemon over the same artifact
        // must serve every previously solved fingerprint warm.
        let restarted = Daemon::start(DaemonConfig {
            workers: 2,
            artifact: Some(artifact.clone()),
            resume: true,
            ..DaemonConfig::default()
        });
        match restarted {
            Ok(handle2) => {
                let addr2 = handle2.addr().to_string();
                if handle2.stats().replayed == 0 {
                    violations.push("restart replayed 0 artifact records".into());
                }
                violations.extend(replay_solved(&addr2, &mix, &solved));
                let mut c2 = SwpdClient::new(addr2, seed ^ 0x5EC0);
                let _ = c2.shutdown();
                handle2.wait();
            }
            Err(e) => violations.push(format!("restart failed: {e}")),
        }
        if !flags.has("keep-artifact") {
            let _ = std::fs::remove_file(&artifact);
        }
    } else if flags.has("shutdown") {
        let mut c = SwpdClient::new(addr, seed ^ 0xD3A1);
        if let Err(e) = c.shutdown() {
            violations.push(format!("shutdown request failed: {e}"));
        }
    }

    report("load", &violations, &extras)
}

/// One pipelined client: fire-and-collect in windows, retry overloads
/// through the backoff client.
fn client_thread(addr: &str, mix: &Mix, indices: &[usize], seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut overloaded: Vec<String> = Vec::new();

    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            out.violations.push(format!("connect failed: {e}"));
            return out;
        }
    };
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            out.violations.push(format!("clone failed: {e}"));
            return out;
        }
    };
    let mut reader = BufReader::new(stream);

    for window in indices.chunks(PIPELINE_WINDOW) {
        let mut sent = 0usize;
        for &i in window {
            let req = mix.request(kind_of(mix.seed, i), i);
            let line = Request::Solve(req).to_json_line();
            if writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .is_err()
            {
                out.violations.push(format!("write failed at index {i}"));
                return out;
            }
            sent += 1;
        }
        for _ in 0..sent {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    out.violations
                        .push("daemon closed connection mid-window".into());
                    return out;
                }
                Ok(_) => {}
                Err(e) => {
                    out.violations
                        .push(format!("hung request: read failed/timed out: {e}"));
                    return out;
                }
            }
            match Reply::from_json_line(line.trim()) {
                Ok(reply) => {
                    if reply.status == ReplyStatus::Overloaded {
                        overloaded.push(reply.id);
                    } else if out.replies.insert(reply.id.clone(), reply.status).is_some() {
                        out.violations
                            .push(format!("duplicate reply for {}", reply.id));
                    }
                }
                Err(e) => out.violations.push(format!("unparseable reply: {e}")),
            }
        }
    }
    drop(writer);
    drop(reader);

    // Overload retries: the backoff client re-submits until admitted
    // (or returns the final refusal, which still counts as classified).
    let mut retry = SwpdClient::new(addr, seed);
    retry.max_retries = 10;
    for id in overloaded {
        let Some(req) = mix.request_for_id(&id) else {
            out.violations
                .push(format!("unparseable overloaded id {id}"));
            continue;
        };
        match retry.solve(&req) {
            Ok(reply) => {
                out.replies.insert(id, reply.status);
            }
            Err(e) => out.violations.push(format!("retry of {id} failed: {e}")),
        }
    }
    out
}

/// Polls `stats` until the daemon stops, asserting monotonicity.
fn monitor_stats(addr: &str, stop: &AtomicBool) -> (u64, Vec<String>) {
    let mut client = SwpdClient::new(addr, 0x3417);
    let mut polls = 0u64;
    let mut violations = Vec::new();
    let mut last: Option<StatsSnapshot> = None;
    let mut check = |client: &mut SwpdClient, polls: &mut u64, violations: &mut Vec<String>| {
        if let Ok(snap) = client.stats() {
            *polls += 1;
            if let Some(prev) = last {
                if let Some(field) = snap.monotone_regression_from(&prev) {
                    violations.push(format!("telemetry counter `{field}` went backwards"));
                }
            }
            last = Some(snap);
        }
    };
    while !stop.load(Ordering::Relaxed) {
        check(&mut client, &mut polls, &mut violations);
        thread::sleep(Duration::from_millis(50));
    }
    // One final poll so even a blink-and-done run gets a monotonicity
    // comparison.
    check(&mut client, &mut polls, &mut violations);
    (polls, violations)
}

/// Waits until the daemon reports no queued or in-flight work.
fn settle_idle(client: &mut SwpdClient, timeout: Duration) -> Result<StatsSnapshot, String> {
    let started = Instant::now();
    loop {
        match client.stats() {
            Ok(s) if s.in_flight == 0 && s.queue_depth == 0 => return Ok(s),
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        if started.elapsed() > timeout {
            return Err(format!("still busy after {timeout:?}"));
        }
        thread::sleep(Duration::from_millis(100));
    }
}

/// Re-issues every id in `solved` and demands a `cached` reply.
fn replay_solved(addr: &str, mix: &Mix, solved: &[String]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut client = SwpdClient::new(addr, 0x4EB1A);
    client.max_retries = 10;
    let mut warm = 0usize;
    for id in solved {
        let Some(req) = mix.request_for_id(id) else {
            violations.push(format!("unparseable solved id {id}"));
            continue;
        };
        match client.solve(&req) {
            Ok(reply) if reply.status == ReplyStatus::Cached => warm += 1,
            Ok(reply) => violations.push(format!(
                "cold after restart: {id} replied {} (want cached)",
                reply.status.as_str()
            )),
            Err(e) => violations.push(format!("replay of {id} failed: {e}")),
        }
    }
    if warm != solved.len() {
        violations.push(format!(
            "warm hit rate {warm}/{} — contract requires 100%",
            solved.len()
        ));
    }
    violations
}

fn report(phase: &str, violations: &[String], extras: &[(&str, u64)]) -> i32 {
    let detail: Vec<String> = extras.iter().map(|(k, v)| format!("{k}={v}")).collect();
    eprintln!("swpd-load [{phase}]: {}", detail.join(" "));
    if violations.is_empty() {
        eprintln!("swpd-load [{phase}]: OK — contract holds");
        0
    } else {
        for v in violations {
            eprintln!("swpd-load [{phase}]: VIOLATION: {v}");
        }
        eprintln!("swpd-load [{phase}]: {} violation(s)", violations.len());
        1
    }
}
